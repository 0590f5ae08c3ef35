"""Row-stochastic smoother matrices and their mean-centered action.

``build_smoother`` stacks the Nadaraya-Watson weight rows of one
coordinate into an n x n row-stochastic matrix.  ``center`` applies the
mean-removal projector C = I - 11^T/n, which enforces the zero-mean
identification constraint on fitted component vectors.  The backfitting
equations use the centered smoothers S* = C S; this module is the one
place that knows how they are obtained from S: :class:`SmootherPair`
stores S1 and S2 only and applies, or forms, the centered versions on
demand.  Rows follow the original sample order; the sort permutations
live on the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import BandwidthSpec, Kernel

__all__ = ["Dataset", "SmootherPair", "build_smoother", "center", "build_pair"]

# Rows per block of build_smoother: the temporaries of one block are a few
# BUILD_BLOCK x n arrays, beside the one n x n result.
BUILD_BLOCK = 256


@dataclass
class Dataset:
    """A sample of responses and two predictor coordinates.

    ``sort_u`` and ``sort_v`` are argsort permutations of the coordinates,
    derived on construction: ``u[sort_u]`` is non-decreasing.
    """

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sort_u: np.ndarray = field(init=False, repr=False)
    sort_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        for name, arr in (("y", self.y), ("u", self.u), ("v", self.v)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d array")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        n = len(self.y)
        if len(self.u) != n or len(self.v) != n:
            raise ValueError(
                f"length mismatch: y has {n}, u has {len(self.u)}, v has {len(self.v)}"
            )
        if n < 2:
            raise ValueError(f"need at least 2 observations, got {n}")
        self.sort_u = np.argsort(self.u, kind="stable")
        self.sort_v = np.argsort(self.v, kind="stable")

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass
class SmootherPair:
    """Row-stochastic smoother matrices S1 (of u) and S2 (of v).

    The centered smoothers S* = C S are rank-one corrections of S and are
    not stored: the fitters apply them as S* x = S x - mean(S x), and
    :meth:`star_product` forms S2* S1* when a dense route needs it.
    ``s1_star`` and ``s2_star`` build a fresh centered copy on every
    access.
    """

    s1: np.ndarray
    s2: np.ndarray

    @property
    def n(self) -> int:
        return self.s1.shape[0]

    @property
    def s1_star(self) -> np.ndarray:
        return center(self.s1)

    @property
    def s2_star(self) -> np.ndarray:
        return center(self.s2)

    def apply_s1_star(self, x: np.ndarray) -> np.ndarray:
        """S1* x, computed as S1 x - mean(S1 x)."""
        z = self.s1 @ x
        return z - z.mean()

    def apply_s2_star(self, x: np.ndarray) -> np.ndarray:
        """S2* x, computed as S2 x - mean(S2 x)."""
        z = self.s2 @ x
        return z - z.mean()

    def star_product(self) -> np.ndarray:
        """S2* S1*, formed as C (S2 S1) in one fresh n x n array.

        C S2 C = C S2 because S2 is row-stochastic (S2 1 = 1), so the
        product needs one centering instead of two centered copies.
        """
        product = self.s2 @ self.s1
        product -= product.mean(axis=0)
        return product


def build_smoother(x: np.ndarray, kernel: Kernel, bw: BandwidthSpec) -> np.ndarray:
    """Assemble the row-stochastic smoother matrix of one coordinate.

    Row i holds the normalised kernel weights of point i at bandwidth
    h_i: w_ik = K_{h_i}(x_i - x_k) / sum_j K_{h_i}(x_i - x_j), with
    K_h(t) = K(t / h) / h.  The rows are computed in blocks of
    ``BUILD_BLOCK`` straight into the preallocated result; each row's
    arithmetic is the same as in one whole-matrix expression, so the
    matrix is bit-identical to it.

    Parameters
    ----------
    x : ndarray, shape (n,)
        Coordinate values, n >= 2.
    kernel : Kernel
        Kernel shape.
    bw : bandwidth spec
        Resolved against ``x`` to per-point bandwidths.

    Returns
    -------
    ndarray, shape (n, n)
        Row-stochastic matrix with a strictly positive diagonal.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 points to build a smoother, got {n}")
    h = bw.resolve(x)
    for lo in range(0, n, BUILD_BLOCK):
        rows = slice(lo, lo + BUILD_BLOCK)
        h_rows = h[rows, None]
        raw = kernel.evaluate((x[rows, None] - x[None, :]) / h_rows) / h_rows
        total = raw.sum(axis=1)
        bad = np.flatnonzero(total <= 0.0)
        if bad.size:
            raise ValueError(f"row {lo + bad[0]} has zero total kernel mass")
        if lo == 0:
            # allocated after the first block's kernel temporaries are freed,
            # so a one-block build peaks no higher than a one-shot one
            s = np.empty((n, n))
        np.divide(raw, total[:, None], out=s[rows])
    return s


def center(s: np.ndarray) -> np.ndarray:
    """Apply the mean-removal projector: (I - 11^T/n) s.

    Subtracts the column-mean row from every row, so the result maps any
    vector to a zero-mean vector.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    return s - s.mean(axis=0)


def build_pair(
    data: Dataset,
    kernel: Kernel,
    bw_u: BandwidthSpec,
    bw_v: BandwidthSpec,
) -> SmootherPair:
    """Build the smoothers of both coordinates: S1 from u, S2 from v."""
    return SmootherPair(
        s1=build_smoother(data.u, kernel, bw_u), s2=build_smoother(data.v, kernel, bw_v)
    )
