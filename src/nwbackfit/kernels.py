# kernels.py
# Kernel shapes and bandwidth specifications.
# Conventions (the smoother rows of smoothers.build_smoother):
#   K_h(t) = K(t / h) / h          for bandwidth h > 0
#   weight row of point i:  w_ik = K_{h_i}(x_i - x_k) / sum_j K_{h_i}(x_i - x_j)
# Every supported shape is symmetric with K(0) > 0, so the self-weight
# w_ii is strictly positive and the normaliser never vanishes.

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "ConstantBandwidth",
    "PerPointBandwidth",
    "KNearestBandwidth",
    "RateBandwidth",
    "BandwidthSpec",
    "parse_bandwidth",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_TOP_BINADE = 2.0**1023  # the floats from here to the largest share one ulp

# Raw Gaussian values below this are flushed to exact zero so that strict
# positivity tests on kernel evaluations are never decided by denormals.
# A flush costs a mask and a pass over the result, so it runs only when
# some value is below it, at |t| of about 37 and beyond.
# The compact shapes need no flush: their smallest positive values, at
# t = nextafter(1, 0), are 0.5 (uniform), 0.75 * 2**-52 (Epanechnikov) and
# 2**-53 (triangular).
ZERO_THRESHOLD = 1e-300


class Kernel(enum.Enum):
    """Supported kernel shapes.

    All shapes are symmetric, nonnegative and positive at the origin.
    Compact-support shapes vanish for |t| >= 1; the Gaussian is positive
    everywhere (up to the ``ZERO_THRESHOLD`` flush).
    """

    UNIFORM = "uniform"
    EPANECHNIKOV = "epanechnikov"
    TRIANGULAR = "triangular"
    GAUSSIAN = "gaussian"

    @classmethod
    def from_name(cls, name: str) -> "Kernel":
        try:
            return cls(name.strip().lower())
        except ValueError:
            choices = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel {name!r}; choose one of: {choices}") from None

    @property
    def compact_support(self) -> bool:
        return self is not Kernel.GAUSSIAN

    def evaluate(self, t, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate K(t) elementwise, with no temporaries but the Gaussian's
        mask, made only when some value underflows.

        Every step is an in-place ufunc on the result, so ``out`` may be
        ``t`` itself: the dense and packed smoother builds evaluate each
        slab of their matrix where it lies.

        Parameters
        ----------
        t : array_like
            Points at which to evaluate the kernel.
        out : ndarray, optional
            A float64 array of the shape of ``t`` to hold the result; by
            default a fresh one.

        Returns
        -------
        ndarray
            ``out``: nonnegative kernel values; Gaussian values below
            ``ZERO_THRESHOLD`` are flushed to exact zero.
        """
        t = np.asarray(t, dtype=float)
        if out is None:
            out = np.empty_like(t)
        if self is Kernel.UNIFORM:
            np.less(np.abs(t, out=out), 1.0, out=out)
            np.multiply(out, 0.5, out=out)
        elif self is Kernel.EPANECHNIKOV:
            np.subtract(1.0, np.square(t, out=out), out=out)
            np.multiply(0.75, np.maximum(0.0, out, out=out), out=out)
        elif self is Kernel.TRIANGULAR:
            np.subtract(1.0, np.abs(t, out=out), out=out)
            np.maximum(0.0, out, out=out)
        else:  # Gaussian
            np.multiply(np.square(t, out=out), -0.5, out=out)
            np.divide(np.exp(out, out=out), _SQRT_2PI, out=out)
            # fmin skips NaN, where min would return it and hide an underflow
            if out.size and np.fmin.reduce(out, axis=None) < ZERO_THRESHOLD:
                np.copyto(out, 0.0, where=out < ZERO_THRESHOLD)
        return out


@np.errstate(over="ignore")
def support_window(
    x: np.ndarray, order: np.ndarray, centre, h
) -> tuple[np.ndarray, np.ndarray]:
    """Positions in sorted order of the points a compact kernel can weigh.

    A compact kernel weighs x_j at ``centre`` c and bandwidth h only when
    (c - x_j) / h, computed in floating point, lies strictly inside
    (-1, 1).  Rounding is monotone and h is a float, so that requires
    |c - x_j| < h exactly.  The searched edges c -/+ h are widened by four
    ulps of |c| + h, more than their own rounding can move them, so
    ``x[order][lo:hi]`` holds every such point, and perhaps a few that the
    kernel weighs zero.  Near the largest float an edge may overflow to
    +/-inf, which still bounds the window; the ulp is then that of 2^1023,
    as for every float from there up, so the other edge stays finite.
    ``order`` sorts ``x`` (an argsort permutation), or is None when ``x``
    is sorted; ``centre`` and ``h`` may be scalars or arrays of one shape.
    Two binary searches: O(log n) per centre.  The smoother builds use it
    for every row, and a constant or rate spec's ``off_sample`` for a
    query.
    """
    pad = 4.0 * np.spacing(np.minimum(np.abs(centre) + h, _TOP_BINADE))
    lo = np.searchsorted(x, centre - h - pad, side="left", sorter=order)
    hi = np.searchsorted(x, centre + h + pad, side="right", sorter=order)
    return lo, hi


# ---------------------------------------------------------------------------
# Bandwidth specifications
# ---------------------------------------------------------------------------
# Every spec resolves against a coordinate vector to a strictly positive
# per-point bandwidth array of matching length.  ``off_sample(x, order, at)``
# answers a query point ``at`` off the sample x (for prediction), given the
# argsort ``order`` of x: it returns (h, lo, hi), the bandwidth at the query
# and positions such that ``x[order][lo:hi]`` holds every sample point with
# |at - x_j| < h, the only points a compact kernel weighs.  A constant spec
# finds them with :func:`support_window` in O(log n), a rate spec the same
# way after the O(n) sample sd, and a k-nearest spec reads h and them from
# the 2k sorted positions around the query in O(k + log n).
# ``known_constant()`` gives the common bandwidth when it is fixed before
# the data are seen (for the analytic gap bound), else None: only a
# constant spec's is, since a rate spec scales by the sample sd.


@dataclass(frozen=True)
class ConstantBandwidth:
    """A single global bandwidth h > 0."""

    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"constant bandwidth must be positive and finite, got {self.h}")

    def resolve(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(x), float(self.h))

    def off_sample(self, x: np.ndarray, order: np.ndarray, at: float) -> tuple[float, int, int]:
        return self.h, *support_window(x, order, at, self.h)

    def known_constant(self) -> float | None:
        return self.h

    def describe(self) -> str:
        return f"h={self.h:g}"


@dataclass(frozen=True, eq=False)
class PerPointBandwidth:
    """Explicit per-point bandwidths, one per sample point."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        if self.h.ndim != 1:
            raise ValueError("per-point bandwidths must be a 1-d array")
        if not np.all(np.isfinite(self.h) & (self.h > 0.0)):
            raise ValueError("per-point bandwidths must all be positive and finite")

    def resolve(self, x: np.ndarray) -> np.ndarray:
        if len(self.h) != len(x):
            raise ValueError(
                f"per-point bandwidth length {len(self.h)} does not match sample size {len(x)}"
            )
        return self.h.copy()

    def off_sample(self, x: np.ndarray, order: np.ndarray, at: float) -> tuple[float, int, int]:
        raise ValueError(
            f"bandwidth spec {type(self).__name__} has no off-sample rule; "
            "use a constant, rate, or k-nearest spec for prediction"
        )

    def known_constant(self) -> float | None:
        return None

    def describe(self) -> str:
        return f"per-point (n={len(self.h)})"


@dataclass(frozen=True)
class KNearestBandwidth:
    """Bandwidth of point i = distance to its k-th nearest sample neighbour.

    A tie at distance zero (k or more duplicates of a point) leaves no
    positive bandwidth and is an error.
    """

    k: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))

    def resolve(self, x: np.ndarray) -> np.ndarray:
        """Distance from each point to its k-th nearest neighbour, in O(n k).

        In sorted order, a point and its k nearest neighbours fill a
        window of k + 1 consecutive order statistics within k positions of
        it, and distances grow away from the point on each side.  So the
        k-th distance is the smallest, over the k + 1 windows holding the
        point, of the larger distance to either end of the window.  Each
        is the same floating-point difference as in the full n x n
        distance matrix, so the result is bit-identical to sorting it.
        """
        x = np.asarray(x, dtype=float)
        n, k = len(x), self.k
        if k > n - 1:
            raise ValueError(f"k={k} requires at least {k + 1} sample points, got {n}")
        order = np.argsort(x, kind="stable")
        xs = x[order]
        h_sorted = np.full(n, np.inf)
        for j in range(k + 1):
            # every window xs[lo : lo + k + 1], seen from its point at lo + j
            at = slice(j, n - k + j)
            reach = np.maximum(xs[at] - xs[: n - k], xs[k:] - xs[at])
            np.minimum(h_sorted[at], reach, out=h_sorted[at])
        h = np.empty(n)
        h[order] = h_sorted
        zero = np.flatnonzero(h <= 0.0)
        if zero.size:
            raise ValueError(
                f"k-nearest bandwidth is zero at index {zero[0]}: "
                f"point has >= {self.k} duplicates"
            )
        return h

    def off_sample(self, x: np.ndarray, order: np.ndarray, at: float) -> tuple[float, int, int]:
        """Distance h from ``at`` to its k-th nearest sample point, and its box.

        Distances grow away from the query's insertion position p in
        sorted order on each side (rounding is monotone), so the k nearest
        points lie among the at most 2k positions [p - k, p + k), the box
        returned as (lo, hi); h is the k-th smallest of their distances,
        the same floating-point differences as over the whole sample.
        Every point nearer than h is one of the k - 1 nearest, so the box
        also holds every point a compact kernel weighs.  O(k + log n).
        """
        n, k = len(x), self.k
        if k > n:
            raise ValueError(f"k={k} exceeds the sample size {n}")
        p = int(np.searchsorted(x, at, sorter=order))
        lo, hi = max(p - k, 0), min(p + k, n)
        h = float(np.partition(np.abs(x[order[lo:hi]] - at), k - 1)[k - 1])
        if h <= 0.0:
            raise ValueError(f"k={k} nearest sample points coincide with the query")
        return h, lo, hi

    def known_constant(self) -> float | None:
        return None

    def describe(self) -> str:
        return f"knn k={self.k}"


@dataclass(frozen=True)
class RateBandwidth:
    """Rate rule h = sd * n**(-delta), with sd the sample standard deviation.

    The admissible decay range is 0 < delta < 1.  Resolves to a constant
    bandwidth once the sample is known.  Scaling x by a power of two
    scales h by the same power, exactly while nothing under- or overflows.
    """

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"rate exponent must satisfy 0 < delta < 1, got {self.delta}")

    def realize(self, x: np.ndarray) -> ConstantBandwidth:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            sd = float(np.std(x))
            if not np.isfinite(sd):
                # The sum or the squared deviations overflowed.  Scaling by
                # a power of two is exact, so take the sd of x brought
                # below 1 in modulus and scale it back.
                e = int(np.frexp(np.abs(x).max())[1])
                sd = float(np.ldexp(np.std(np.ldexp(x, -e)), e))
        if sd <= 0.0:
            raise ValueError("sd-scaled rate bandwidth needs a non-constant coordinate")
        return ConstantBandwidth(sd * len(x) ** (-self.delta))

    def resolve(self, x: np.ndarray) -> np.ndarray:
        return self.realize(x).resolve(x)

    def off_sample(self, x: np.ndarray, order: np.ndarray, at: float) -> tuple[float, int, int]:
        return self.realize(x).off_sample(x, order, at)

    def known_constant(self) -> float | None:
        return None

    def describe(self) -> str:
        return f"h=n^(-{self.delta:g}) * sd"


BandwidthSpec = ConstantBandwidth | PerPointBandwidth | KNearestBandwidth | RateBandwidth


def parse_bandwidth(text: str) -> BandwidthSpec:
    """Parse a bandwidth rule string: '<float>', 'rate:<delta>' or 'knn:<k>'.

    'rate:<delta>' scales by the per-coordinate sample standard deviation.
    A number that does not parse raises ``ValueError`` quoting the rule.
    """
    head, colon, number = text.strip().rpartition(":")
    forms = {"": ConstantBandwidth, "rate:": RateBandwidth, "knn:": KNearestBandwidth}
    try:
        spec = forms[head + colon]
        value = (int if spec is KNearestBandwidth else float)(number)
    except (KeyError, ValueError):
        raise ValueError(
            f"bandwidth rule {text!r} is not <float>, rate:<delta> or knn:<k>"
        ) from None
    return spec(value)
