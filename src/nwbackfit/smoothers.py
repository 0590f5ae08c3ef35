"""Row-stochastic smoother matrices and their mean-centered action.

``build_smoother`` stacks the Nadaraya-Watson weight rows of one
coordinate into an n x n row-stochastic matrix.  Each row's weights lie
in a window of consecutive order statistics (:func:`support_window`)
when the kernel has compact support; when those windows hold at most
n^2/16 entries the matrix is stored as a ``scipy.sparse.csr_array``,
otherwise as a dense array, which costs one n x n array: it is filled in
place, a slab of ``BUILD_BLOCK`` rows at a time, across the CPUs the
process may use.  Products with a vector (``@``) work on
either, and so do the fitters and the matrix-free ARPACK route; only the
routes that need the dense matrix itself (the formed product S2* S1*,
which the dense fallbacks use, and :func:`center`, a reference for tests
and demos) convert it, through :func:`as_dense`.  ``center`` applies the mean-removal
projector C = I - 11^T/n, which enforces the zero-mean identification
constraint on fitted component vectors.  The backfitting equations use
the centered smoothers S* = C S; this module is the one place that knows
how they are obtained from S: :class:`SmootherPair` stores S1 and S2
only, applies S1* and S2* to vectors and forms S2* S1* on demand, and
``center(s)`` forms one S* as a dense matrix.  Rows follow the original
sample order; the sort permutations live on the dataset.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array, issparse

from .kernels import BandwidthSpec, Kernel, support_window

__all__ = ["Dataset", "SmootherPair", "build_smoother", "center", "build_pair"]

# Rows per slab of the dense build.  A slab is computed inside its rows of
# the n x n result; beside it, each slab in flight holds its row totals and,
# for the Gaussian, one BUILD_BLOCK x n boolean mask (the kernel's zero flush).
BUILD_BLOCK = 256

# A compact-kernel smoother is stored as CSR when its windows hold at most
# this share of the n x n entries.  Below about 1/16 fill a CSR product
# with a vector beats the dense one at least twofold for n >= 400, and at
# n = 200 the two tie or dense wins (one BLAS thread).
CSR_MAX_FILL = 1.0 / 16.0


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

    Each is a dense ndarray or a ``csr_array``, as :func:`build_smoother`
    chose.  The centered smoothers S* = C S are rank-one corrections of S
    and are not stored: the fitters apply them as S* x = S x - mean(S x), and
    :meth:`star_product` forms S2* S1* when a dense route needs it.
    ``center(pair.s1)`` gives a dense S1* where one is wanted.
    """

    s1: np.ndarray | csr_array
    s2: np.ndarray | csr_array

    @property
    def n(self) -> int:
        return self.s1.shape[0]

    def apply_s1_star(self, x: np.ndarray) -> np.ndarray:
        """S1* x, computed as S1 x - mean(S1 x)."""
        return apply_star(self.s1, x)

    def apply_s2_star(self, x: np.ndarray) -> np.ndarray:
        """S2* x, computed as S2 x - mean(S2 x)."""
        return apply_star(self.s2, x)

    def star_product(self) -> np.ndarray:
        """S2* S1*, formed as C (S2 S1) in one fresh dense n x n array.

        C S2 C = C S2 because S2 is row-stochastic (S2 1 = 1), so the
        product needs one centering instead of two centered copies.  Two
        CSR smoothers multiply as sparse matrices before the result is
        made dense.
        """
        product = as_dense(self.s2 @ self.s1)
        product -= product.mean(axis=0)
        return product


def as_dense(s: np.ndarray | csr_array) -> np.ndarray:
    """``s`` as a dense array: a sparse matrix is copied out, a dense one returned as is."""
    return s.toarray() if issparse(s) else s


def _check_total(total: np.ndarray, offset: int = 0) -> None:
    """Reject any row total that is not finite and positive.

    The builds ignore overflow: a t = (x_i - x_k) / h that overflows is
    weighed K(inf) = 0, as it should be, and the one harmful overflow,
    K(0)/h at a tiny h, leaves a total that is not finite.  NaN fails
    both comparisons, so it is caught too.
    """
    bad = np.flatnonzero(~((total > 0.0) & (total < np.inf)))
    if bad.size:
        row, mass = offset + bad[0], total[bad[0]]
        if mass == 0.0:
            raise ValueError(f"row {row} has zero total kernel mass")
        raise ValueError(
            f"row {row} has non-finite total kernel mass ({mass}); "
            "is the bandwidth so small that K(0)/h overflows?"
        )


def _build_dense(x: np.ndarray, kernel: Kernel, h: np.ndarray) -> np.ndarray:
    """The smoother as one dense array, filled in place by slabs of ``BUILD_BLOCK`` rows.

    Each slab is computed inside its own rows of the result, so the build
    holds the n x n array and, for the Gaussian, a boolean mask per slab in
    flight.  The slabs are shared among the CPUs the process may use (numpy
    releases the GIL in these ufuncs); a one-slab build runs in the
    caller's thread.  ``pool.map`` re-raises in slab order, so a row-total error
    names the lowest failing row.
    """
    n = len(x)
    s = np.empty((n, n))

    def fill(lo: int) -> None:
        rows = slice(lo, lo + BUILD_BLOCK)
        slab, h_rows = s[rows], h[rows, None]
        np.subtract(x[rows, None], x[None, :], out=slab)
        with np.errstate(over="ignore"):  # see _check_total
            np.divide(slab, h_rows, out=slab)
            kernel.evaluate(slab, out=slab)
            np.divide(slab, h_rows, out=slab)
        total = slab.sum(axis=1)
        _check_total(total, lo)
        np.divide(slab, total[:, None], out=slab)

    starts = range(0, n, BUILD_BLOCK)
    workers = min(_usable_cpus(), len(starts))
    if workers == 1:
        for lo in starts:
            fill(lo)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, starts))
    return s


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _build_csr(
    x: np.ndarray,
    kernel: Kernel,
    h: np.ndarray,
    order: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> csr_array:
    """The smoother as a CSR array, evaluating the kernel on each row's window.

    Row i's window is ``order[lo[i]:hi[i]]`` (:func:`support_window`).
    Each entry is computed as in the dense build; only the row total sums
    the window alone, in another order.  Zero weights are dropped, so the
    stored pattern is the positive pattern of the dense build.
    """
    n = len(x)
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(n), counts)
    cols = order[np.arange(counts.sum()) + np.repeat(lo - starts, counts)]
    h_rows = h[rows]
    with np.errstate(over="ignore"):  # see _check_total
        raw = (x[rows] - x[cols]) / h_rows
        kernel.evaluate(raw, out=raw)
        raw /= h_rows
    # every window holds its own point, so no window is empty
    total = np.add.reduceat(raw, starts)
    _check_total(total)
    keep = raw > 0.0
    rows = rows[keep]
    index = np.int32 if max(n, len(rows)) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    s = csr_array((raw[keep] / total[rows], cols[keep].astype(index), indptr), shape=(n, n))
    s.sort_indices()
    return s


def build_smoother(
    x: np.ndarray, kernel: Kernel, bw: BandwidthSpec
) -> np.ndarray | csr_array:
    """Assemble the row-stochastic smoother matrix of one coordinate.

    Row i holds the normalised kernel weights of point i at bandwidth
    h_i: w_ik = K_{h_i}(x_i - x_k) / sum_j K_{h_i}(x_i - x_j), with
    K_h(t) = K(t / h) / h.

    A compact kernel weighs only the points of a window of consecutive
    order statistics around each x_i (:func:`support_window`).  When
    those windows hold at most ``CSR_MAX_FILL`` n^2 entries, the kernel is
    evaluated on them alone and the matrix is returned as a ``csr_array``
    with sorted indices and no stored zeros; its entries agree with the
    dense build to a few ulps, since only the row totals are summed in
    another order.  Otherwise (the Gaussian, or wide windows) the result
    is one dense n x n array, and each slab of ``BUILD_BLOCK`` rows is
    computed in place inside it, the slabs shared among the CPUs the
    process may use; each row's arithmetic is the same as in one
    whole-matrix expression, so that matrix is bit-identical to it.
    A row total that is zero or not finite (K(0)/h overflows at a tiny
    h) raises ``ValueError`` naming the lowest such row.

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
    ndarray or csr_array, shape (n, n)
        Row-stochastic matrix with a strictly positive diagonal.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 points to build a smoother, got {n}")
    h = bw.resolve(x)
    windows = _csr_windows(x, kernel, h)
    if windows is None:
        return _build_dense(x, kernel, h)
    return _build_csr(x, kernel, h, *windows)


def _csr_windows(
    x: np.ndarray, kernel: Kernel, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Sort order and row windows of a CSR build, or None when the build is dense.

    The build is CSR when the kernel has compact support and its windows
    hold at most ``CSR_MAX_FILL`` n^2 entries.
    """
    if not kernel.compact_support:
        return None
    order = np.argsort(x, kind="stable")
    lo, hi = support_window(x, order, x, h)
    if int((hi - lo).sum()) > CSR_MAX_FILL * len(x) ** 2:
        return None
    return order, lo, hi


def smoother_storage(x: np.ndarray, kernel: Kernel, bw: BandwidthSpec) -> tuple[str, int]:
    """How :func:`build_smoother` stores this smoother, without building it.

    Returns ``("dense", 8 n^2)`` or ``("CSR", b)``, where b bounds the
    bytes of the CSR arrays: per window entry a float64 weight and an
    index, and per row one pointer.  Indices and pointers are int32, 4
    bytes each, or int64, 8 bytes each, once n or the entry count reaches
    2^31, by the rule of :func:`_build_csr`.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    windows = _csr_windows(x, kernel, bw.resolve(x))
    if windows is None:
        return "dense", 8 * n * n
    _, lo, hi = windows
    entries = int((hi - lo).sum())
    index = 4 if max(n, entries) < 2**31 else 8
    return "CSR", (8 + index) * entries + index * (n + 1)


def apply_star(s: np.ndarray | csr_array, x: np.ndarray) -> np.ndarray:
    """S* x = C S x for a smoother S, dense or CSR, computed as S x - mean(S x)."""
    z = s @ x
    # the reduction and division of z.mean(), without its Python wrapper
    return z - z.sum() / z.size


def center(s: np.ndarray) -> np.ndarray:
    """Apply the mean-removal projector: (I - 11^T/n) s.

    Subtracts the column-mean row from every row, so the result maps any
    vector to a zero-mean vector.  A sparse ``s`` gives a dense result.
    """
    s = np.asarray(as_dense(s), dtype=float)
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
