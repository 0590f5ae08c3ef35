"""Row-stochastic smoother matrices and their mean-centered action.

``build_smoother`` stacks the Nadaraya-Watson weight rows of one
coordinate into an n x n row-stochastic matrix.  Each row's weights lie
in a window of consecutive order statistics (:func:`support_window`)
when the kernel has compact support; when those windows hold at most
n^2/16 entries the matrix is stored as a ``scipy.sparse.csr_array``,
otherwise as a dense array, which costs one n x n array: it is filled in
place, a slab of ``BUILD_BLOCK`` rows at a time, across the CPUs the
process may use.  A CSR build fills arrays sized by the window count
(the bytes :func:`pair_storage` reports) by slabs of the same rows, so
it holds its stored bytes plus one slab's temporaries.  It stays the
reference the pairs below are tested against.

``build_pair`` stores the two smoothers of a problem in one of three
layouts.  A uniform-kernel row weighs its window's points equally, so it
is a running mean over consecutive order statistics (Hastie and
Tibshirani, *Generalized Additive Models*, 1990): that pair is a
:class:`WindowPair`, which holds each coordinate's sort order and each
row's exact window and count, O(n) bytes under any bandwidth spec.  Its
smoothers (:class:`WindowSmoother`) apply as window means over prefix
sums taken in sorted order (Seifert, Brockmann, Engel and Gasser, 1994,
*J. Comput. Graph. Statist.* 3, 192-213), O(n) per product.  Otherwise,
when both would be dense and each coordinate has one bandwidth (a
constant or ``rate:`` spec, or any spec whose resolved bandwidths are
all equal), the raw kernel matrix K((x_i - x_j) / h) of each coordinate
is exactly symmetric: floating-point subtraction is antisymmetric, and
every kernel reads |t| or t^2.  Such a pair is a :class:`PackedPair`:
one n x n array holds u's raw weights in its lower triangle and v's in
its strict upper one, with the shared diagonal K(0), beside the two
vectors of row totals.  Its smoothers (:class:`PackedSmoother`) are
applied by BLAS ``dsymv`` on the array's Fortran view, then divided by
the totals.  Any other pair is a :class:`SmootherPair` of two matrices,
dense or CSR.  Packed and window smoothers share one small base,
:class:`OperatorSmoother`, through which the certificate reads them.

Every storage answers ``s @ z`` for a vector z and for an n x m block z,
dense or another smoother; the fitters and the matrix-free ARPACK route
take only vectors.  Only the routes that need a dense matrix (the dense
fallbacks' S2* S1* and :func:`center`, a reference for tests and demos)
form one, through :func:`as_dense`.  ``center`` applies the mean-removal
projector C = I - 11^T/n, which enforces the zero-mean identification
constraint on fitted component vectors.  The backfitting equations use
the centered smoothers S* = C S; this module is the one place that knows
how they are obtained from S: every layout is a :class:`Pair`, which
supplies S1 and S2 only, applies S1* and S2* to vectors and forms
S2* S1* = C (S2 @ S1) on demand, and ``center(s)`` forms one S* as a
dense matrix.  Rows follow the original sample order; the sort
permutations live on the dataset.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsymm, dsymv
from scipy.sparse import csr_array, issparse

from .kernels import BandwidthSpec, Kernel, support_window

__all__ = [
    "Dataset",
    "SmootherPair",
    "PackedPair",
    "PackedSmoother",
    "WindowPair",
    "WindowSmoother",
    "OperatorSmoother",
    "Pair",
    "build_smoother",
    "center",
    "build_pair",
    "pair_storage",
]

# Rows per slab of the dense, packed and CSR builds.  A dense or packed
# slab is computed inside its rows of the n x n result; beside it, a dense
# slab in flight holds its row totals, and a Gaussian slab one boolean mask
# of its rows only when some weight underflows (the kernel's zero flush).
# A CSR slab holds a few temporaries over its rows' window entries beside
# the window-sized result arrays.
BUILD_BLOCK = 256

# A compact-kernel smoother that build_smoother returns, or that
# build_pair holds for the Epanechnikov and triangular kernels, is stored
# as CSR when its windows hold at most this share of the n x n entries
# (build_pair holds a uniform-kernel pair as windows at any fill).  Below
# about 1/16 fill a CSR product with a vector beats the dense one at
# least twofold for n >= 400, and at n = 200 the two tie or dense wins
# (one BLAS thread).
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


class Pair:
    """The smoothers S1 (of u) and S2 (of v), which a layout supplies as ``s1`` and ``s2``.

    The centered smoothers S* = C S are rank-one corrections of S and are
    not stored; ``center(pair.s1)`` gives a dense S1* where one is wanted.
    """

    @property
    def n(self) -> int:
        return self.s1.shape[0]

    def apply_s1_star(self, x: np.ndarray) -> np.ndarray:
        """S1* x, computed as S1 x - mean(S1 x)."""
        return self._center(self.s1 @ x)

    def apply_s2_star(self, x: np.ndarray) -> np.ndarray:
        """S2* x, computed as S2 x - mean(S2 x)."""
        return self._center(self.s2 @ x)

    @staticmethod
    def _center(z: np.ndarray) -> np.ndarray:
        # the reduction and division of z.mean(), without its Python wrappers
        return z - np.add.reduce(z) / z.size

    def star_product(self) -> np.ndarray:
        """S2* S1*, formed as C (S2 S1) in one fresh dense n x n array.

        C S2 C = C S2 because S2 is row-stochastic (S2 1 = 1), so the
        product needs one centering, done in place, instead of two
        centered copies.  S2 @ S1 is the block product S2's storage
        answers; two CSR smoothers multiply as sparse matrices before the
        result is made dense.
        """
        product = as_dense(self.s2 @ self.s1)
        product -= product.mean(axis=0)
        return product


@dataclass
class SmootherPair(Pair):
    """S1 and S2 as two matrices, each a dense ndarray or a ``csr_array``, as
    :func:`build_smoother` chose."""

    s1: np.ndarray | csr_array
    s2: np.ndarray | csr_array


@dataclass
class PackedPair(Pair):
    """S1 and S2 of one bandwidth per coordinate, in one n x n array.

    ``weights`` holds the raw kernel values K((u_i - u_j) / h_u) in its
    lower triangle and K((v_i - v_j) / h_v) in its strict upper one; the
    diagonal K(0) is the same for both.  ``total_u`` and ``total_v`` are
    the row totals of the two symmetric kernel matrices, so
    S1 = diag(total_u)^-1 K_u and S2 = diag(total_v)^-1 K_v.  ``s1`` and
    ``s2`` read as those smoothers (:class:`PackedSmoother`) without
    forming them; S2 @ S1, the product :meth:`Pair.star_product` centers,
    forms S1 and multiplies it by v's triangle with BLAS ``dsymm``.
    """

    weights: np.ndarray
    total_u: np.ndarray
    total_v: np.ndarray

    def __post_init__(self):
        # the smallest raw weight, read once for both smoothers' min()
        lowest = functools.cache(self.weights.min)
        self.s1 = PackedSmoother(self.weights, self.total_u, True, lowest)
        self.s2 = PackedSmoother(self.weights, self.total_v, False, lowest)


class OperatorSmoother:
    """A smoother of a pair that holds less than its n x n matrix, read without forming it.

    It answers what the fitters and the certificate ask of a smoother:
    ``shape`` and ``ndim``, ``s @ x`` for a vector x or an n x m block
    (a dense array, or another smoother, which is formed), ``s.sum(axis=1)``
    (S 1), ``s.min()``, the entries ``s[rows, cols]`` for two integer
    arrays, and the positivity pattern ``s > 0``.  ``toarray()``, and so
    ``np.asarray(s)`` and :func:`as_dense`, form S.  A subclass gives
    ``shape``, ``@``, ``min()``, ``toarray()``, ``_entries(rows, cols)``
    and ``_positive()``.
    """

    ndim = 2

    def sum(self, axis: int) -> np.ndarray:
        """Row sums (``axis=1``): S 1."""
        if axis != 1:
            raise ValueError("an operator smoother sums its rows only (axis=1)")
        return self @ np.ones(self.shape[0])

    def __getitem__(self, key) -> np.ndarray:
        """Entries S[rows[k], cols[k]] for two integer arrays ``(rows, cols)``."""
        rows, cols = key
        if not all(isinstance(k, np.ndarray) and k.dtype.kind in "iu" for k in key):
            raise TypeError("read an operator smoother by two integer arrays, or form it by as_dense")
        return self._entries(rows, cols)

    def __gt__(self, other):
        """The positivity pattern S > 0."""
        if other != 0:
            raise ValueError("an operator smoother compares with 0 only")
        return self._positive()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        s = self.toarray()
        return s if dtype is None else s.astype(dtype, copy=False)


class PackedSmoother(OperatorSmoother):
    """One smoother of a :class:`PackedPair`, read without being formed.

    S = diag(total)^-1 K, with K the symmetric raw kernel matrix held in
    the lower (``lower=True``, u) or strict upper (v) triangle of the
    pair's array, sharing its diagonal.  ``s @ x`` is BLAS ``dsymv`` on
    the array's Fortran view for a vector, ``dsymm`` for a block, then a
    division by the totals, and ``s > 0`` is a dense boolean n x n array.
    """

    def __init__(self, weights: np.ndarray, total: np.ndarray, lower: bool, lowest):
        # a view whose lower triangle holds K, for the reads below
        self._tri = weights if lower else weights.T
        # the C-ordered array's transpose is Fortran-ordered, so f2py
        # passes it to BLAS without a copy; u's triangle is its upper one
        self._fortran, self._blas_lower = weights.T, 0 if lower else 1
        self._total = total
        self._lowest = lowest  # the pair's smallest raw weight, on demand
        self.shape = weights.shape

    def __matmul__(self, x) -> np.ndarray:
        if x.ndim == 1:
            return dsymv(1.0, self._fortran, x, lower=self._blas_lower) / self._total
        # (K X)^T = X^T K takes both operands as Fortran views of C-ordered
        # arrays, so neither is copied; a smoother operand is formed once
        product = dsymm(1.0, self._fortran, as_dense(x).T, side=1, lower=self._blas_lower).T
        product /= self._total[:, None]
        return product

    def min(self) -> float:
        """A lower bound on the smallest entry of S, exact when that entry is 0.

        The smallest raw weight of the pair's array over the largest row
        total: S_ij = K_ij / total_i is not smaller when the weights are
        nonnegative, and a NaN weight gives NaN.  The array is read once,
        for the pair's two smoothers together.
        """
        return float(self._lowest() / self._total.max())

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._tri[np.maximum(rows, cols), np.minimum(rows, cols)] / self._total[rows]

    def _positive(self) -> np.ndarray:
        """The dense boolean pattern S > 0, which is K > 0 (totals are positive)."""
        out = np.empty(self.shape, dtype=bool)
        _unpack(self._tri, out, lambda src, dst: np.greater(src, 0.0, out=dst))
        return out

    def toarray(self) -> np.ndarray:
        """S as a fresh dense C-ordered array."""
        out = np.empty(self.shape)
        _unpack(self._tri, out, lambda src, dst: np.copyto(dst, src))
        out /= self._total[:, None]
        return out


@dataclass
class WindowPair(Pair):
    """S1 and S2 of the uniform kernel, held as windows of sorted positions.

    A uniform-kernel row weighs its members equally, so it is the mean
    over a window of consecutive order statistics (the running-mean
    smoother).  Per coordinate the pair holds the sort order (``order_u``,
    the dataset's ``sort_u``), and for each point i its window
    ``[lo_u[i], hi_u[i])`` of sorted positions and its count
    ``count_u[i]``, a float since it divides each product; likewise for
    v.  ``s1`` and ``s2`` read as the smoothers (:class:`WindowSmoother`)
    without forming them; S2 @ S1, the product :meth:`Pair.star_product`
    centers, forms S1 and takes S2's window means of its columns.
    """

    order_u: np.ndarray
    lo_u: np.ndarray
    hi_u: np.ndarray
    count_u: np.ndarray
    order_v: np.ndarray
    lo_v: np.ndarray
    hi_v: np.ndarray
    count_v: np.ndarray

    def __post_init__(self):
        self.s1 = WindowSmoother(self.order_u, self.lo_u, self.hi_u, self.count_u)
        self.s2 = WindowSmoother(self.order_v, self.lo_v, self.hi_v, self.count_v)


class WindowSmoother(OperatorSmoother):
    """One smoother of a :class:`WindowPair`, read without being formed.

    Row i holds 1 / count[i] at the points ``order[lo[i]:hi[i]]``, and 0
    elsewhere.  ``s @ z`` takes the prefix sums C of z in sorted order,
    with a leading 0, and reads row i's window mean as
    (C[hi[i]] - C[lo[i]]) / count[i]: O(n) for a vector, and column by
    column for an n x m block or another smoother, which is formed first.
    Entries are read through the inverse permutation, and ``s > 0`` is a
    boolean CSR pattern built from the windows.
    """

    def __init__(self, order: np.ndarray, lo: np.ndarray, hi: np.ndarray, count: np.ndarray):
        self._order, self._lo, self._hi, self._count = order, lo, hi, count
        self.shape = (len(order), len(order))

    def __matmul__(self, z) -> np.ndarray:
        if z.ndim == 1:
            count = self._count
        else:  # a block, or another smoother, formed once
            z, count = as_dense(z), self._count[:, None]
        # take and the cumsum method skip the Python wrappers of z[order]
        # and np.cumsum, which cost as much as the arithmetic at n = 200
        prefix = np.zeros((len(z) + 1,) + z.shape[1:])
        z.take(self._order, axis=0).cumsum(axis=0, out=prefix[1:])
        means = prefix.take(self._hi, axis=0)
        means -= prefix.take(self._lo, axis=0)
        means /= count
        return means

    def _rank(self) -> np.ndarray:
        """The inverse permutation: the sorted position of each point."""
        rank = np.empty_like(self._order)
        rank[self._order] = np.arange(len(rank))
        return rank

    def min(self) -> float:
        """The smallest entry of S: 0 unless every window holds all n points."""
        n = self.shape[0]
        return 0.0 if (self._count < n).any() else 1.0 / n

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        col = self._rank()[cols]
        return ((self._lo[rows] <= col) & (col < self._hi[rows])) / self._count[rows]

    def _positive(self) -> csr_array:
        """The boolean CSR pattern S > 0: each row's window, with sorted indices."""
        n, count = self.shape[0], self._count.astype(np.intp)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(count, out=indptr[1:])
        starts = indptr[:-1]
        indices = self._order[np.arange(indptr[-1]) + np.repeat(self._lo - starts, count)]
        pattern = csr_array((np.ones(len(indices), dtype=bool), indices, indptr), shape=self.shape)
        pattern.sort_indices()
        return pattern

    def toarray(self) -> np.ndarray:
        """S as a fresh dense C-ordered array."""
        rank = self._rank()
        inside = (self._lo[:, None] <= rank) & (rank < self._hi[:, None])
        return inside / self._count[:, None]


def _slabs(n: int):
    """The row ranges ``(lo, hi)`` of the slabs of ``BUILD_BLOCK`` rows."""
    return ((lo, min(lo + BUILD_BLOCK, n)) for lo in range(0, n, BUILD_BLOCK))


def _lower_mask(b: int) -> np.ndarray:
    """The b x b boolean mask of the lower triangle, diagonal included."""
    return np.tri(b, dtype=bool)


def _unpack(tri: np.ndarray, out: np.ndarray, put) -> None:
    """Write the symmetric matrix held in ``tri``'s lower triangle into ``out``.

    ``put(src, dst)`` writes a block of it (or a function of one) into
    ``dst``, a slab of ``BUILD_BLOCK`` rows of ``out`` at a time: first
    each row's entries left of the slab's end, read along the rows, then
    those right of it, read down the columns below the slab; the upper
    part of the slab's diagonal block, written from the other triangle by
    the first step, is then mirrored from its lower part.
    """
    for lo, hi in _slabs(len(out)):
        put(tri[lo:hi, :hi], out[lo:hi, :hi])
        put(tri[hi:, lo:hi].T, out[lo:hi, hi:])
        block, upper = out[lo:hi, lo:hi], ~_lower_mask(hi - lo)
        block[upper] = block.T[upper]


def as_dense(s) -> np.ndarray:
    """``s`` as a dense array: a sparse or operator smoother is formed, a dense one returned as is."""
    return s.toarray() if issparse(s) or isinstance(s, OperatorSmoother) else s


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


def _scaled_differences(
    out: np.ndarray, x_rows: np.ndarray, x_cols: np.ndarray, h_rows, where=True
) -> None:
    """Set ``out[i, j]`` to (x_rows[i] - x_cols[j]) / h_rows[i] in place, where ``where`` holds.

    The slab arithmetic the dense and packed builds share before their
    kernel runs in place.  ``h_rows`` is a column of per-row bandwidths
    or one bandwidth.  Overflow is ignored (see :func:`_check_total`).
    """
    with np.errstate(over="ignore"):
        np.subtract(x_rows[:, None], x_cols[None, :], out=out, where=where)
        np.divide(out, h_rows, out=out, where=where)


def _by_slabs(fill, n: int) -> None:
    """Run ``fill(lo, hi)`` on every slab of rows, shared among the CPUs the process may use.

    numpy releases the GIL in the ufuncs of a fill; a one-slab build, or
    one on a single CPU, runs in the caller's thread.  ``pool.map``
    re-raises in slab order, so an error names the lowest failing row.
    """
    slabs = list(_slabs(n))
    workers = min(_usable_cpus(), len(slabs))
    if workers == 1:
        for lo, hi in slabs:
            fill(lo, hi)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda slab: fill(*slab), slabs))


def _build_dense(x: np.ndarray, kernel: Kernel, h: np.ndarray) -> np.ndarray:
    """The smoother as one dense array, filled in place by slabs of ``BUILD_BLOCK`` rows.

    Each slab's scaled differences (:func:`_scaled_differences`) and
    kernel values are computed inside its own rows of the result, then
    divided by its bandwidths and by its row totals, so the build holds
    the n x n array and, for the Gaussian, a boolean mask per slab in
    flight only when some weight of that slab underflows.
    """
    s = np.empty((len(x), len(x)))

    def fill(lo: int, hi: int) -> None:
        slab, h_rows = s[lo:hi], h[lo:hi, None]
        _scaled_differences(slab, x[lo:hi], x, h_rows)
        with np.errstate(over="ignore"):  # see _check_total
            kernel.evaluate(slab, out=slab)
            np.divide(slab, h_rows, out=slab)
        total = slab.sum(axis=1)
        _check_total(total, lo)
        np.divide(slab, total[:, None], out=slab)

    _by_slabs(fill, len(x))
    return s


def _build_packed(
    u: np.ndarray, v: np.ndarray, kernel: Kernel, h_u: float, h_v: float
) -> PackedPair:
    """Both smoothers in one n x n array of raw kernel values (:class:`PackedPair`).

    Slab rows [lo, hi) first get their scaled differences
    (:func:`_scaled_differences`): u's left of hi, v's right of it, and
    in their diagonal block v's over u's on the strict upper triangle,
    so the block needs no array of its own.  Then one kernel evaluation
    runs in place over the slab's full rows, which are contiguous; a
    kernel run over two strided parts of them costs numpy a dispatch per
    row.  So n^2 kernel values are computed, against 2 n^2 for two dense
    smoothers, and a Gaussian slab makes its flush mask only when one of
    its weights underflows.  The row totals are BLAS ``dsymv`` products of
    each triangle with ones; when u and v and their bandwidths coincide,
    the two triangles hold the same matrix and S2 takes S1's totals, so
    the two smoothers are the same to the bit.  A total that is zero or
    not finite in the units of K_h = K / h raises ``ValueError`` as in
    the dense build, S1's rows first.
    """
    n = len(u)
    weights = np.empty((n, n))
    # the strict upper triangle of a diagonal block; a shorter last slab
    # takes its leading corner
    upper = ~_lower_mask(min(n, BUILD_BLOCK))

    def fill(lo: int, hi: int) -> None:
        rows = weights[lo:hi]
        _scaled_differences(rows[:, :hi], u[lo:hi], u[:hi], h_u)
        _scaled_differences(rows[:, lo:hi], v[lo:hi], v[lo:hi], h_v, upper[: hi - lo, : hi - lo])
        _scaled_differences(rows[:, hi:], v[lo:hi], v[hi:], h_v)
        with np.errstate(over="ignore"):  # see _check_total
            kernel.evaluate(rows, out=rows)

    _by_slabs(fill, n)
    ones = np.ones(n)
    total_u = dsymv(1.0, weights.T, ones, lower=0)
    same = h_u == h_v and np.array_equal(u, v)
    total_v = total_u if same else dsymv(1.0, weights.T, ones, lower=1)
    with np.errstate(over="ignore"):  # see _check_total
        _check_total(total_u / h_u)
        _check_total(total_v / h_v)
    return PackedPair(weights, total_u, total_v)


def _bisect(holds, rows: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per row, the first p in [first, last] at which ``holds(rows, p)`` is True.

    ``holds`` is monotone in p, False then True, and True at ``last``.
    Every row is bisected together, in O(log(last - first)) calls.
    """
    while (first < last).any():
        mid = (first + last) // 2
        above = holds(rows, mid)
        last = np.where(above, mid, last)
        first = np.where(above, first, mid + 1)
    return last


@np.errstate(over="ignore")  # see _check_total
def _build_window(
    x: np.ndarray, order: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows of a uniform-kernel smoother: ``lo``, ``hi`` and ``count`` per point.

    The point at sorted position r weighs the point at position p exactly
    when the dense build's t = (x_r - x_p) / h_r lies strictly inside
    (-1, 1), an overflowing t weighing 0.  t falls as p rises, so those
    points fill the positions [lo, hi) around r.  :func:`support_window`
    on the sorted values gives windows widened by a few ulps, and each
    edge that holds a point the kernel weighs zero is moved in
    (:func:`_bisect`): lo to the first position whose t is below 1, hi to
    the first one whose t is -1 or below.  The windows are then put in
    sample order, and the row totals 0.5 count / h of K_h = K / h are
    checked as in the other builds, naming the lowest failing row.
    """
    xs, hs = x[order], h[order]
    lo, hi = support_window(xs, None, xs, hs)

    def t(rows, p):
        return (xs[rows] - xs[p]) / hs[rows]

    left = np.flatnonzero((xs - xs[lo]) / hs >= 1.0)
    lo[left] = _bisect(lambda rows, p: t(rows, p) < 1.0, left, lo[left] + 1, left)
    right = np.flatnonzero((xs - xs[hi - 1]) / hs <= -1.0)
    hi[right] = _bisect(lambda rows, p: t(rows, p) <= -1.0, right, right + 1, hi[right] - 1)
    windows = np.empty((2, len(xs)), dtype=lo.dtype)
    windows[:, order] = lo, hi
    lo, hi = windows
    count = np.subtract(hi, lo, dtype=float)
    _check_total(0.5 * count / h)
    return lo, hi, count


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _index_dtype(n: int, entries: int):
    """int32 for the indices and pointers of an n x n CSR smoother over
    ``entries`` window entries, or int64 once n or that count reaches 2^31."""
    return np.int32 if max(n, entries) < 2**31 else np.int64


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
    ``data`` and ``indices`` are allocated once, one entry per window
    entry, with the index width :func:`_index_dtype` gives the window
    count, so they are the bytes :func:`_storage` counts.  They are
    filled a slab of ``BUILD_BLOCK`` rows at a time: each entry is
    computed as in the dense build, only the row total sums the window
    alone, in another order, and a slab's positive weights are packed
    right after the previous slab's.  Zero weights are dropped, so the
    stored pattern is the positive pattern of the dense build.  The CSR
    takes the leading nnz entries as views (scipy copies them only when
    fewer than half the window entries are positive), so the build holds
    its stored bytes and one slab's temporaries.  A row total that is
    zero or not finite raises ``ValueError`` naming the lowest such row.
    """
    n = len(x)
    counts = hi - lo
    entries = int(counts.sum())
    index = _index_dtype(n, entries)
    data = np.empty(entries)
    indices = np.empty(entries, dtype=index)
    indptr = np.zeros(n + 1, dtype=index)
    nnz = 0
    for first, last in _slabs(n):
        width = counts[first:last]
        starts = np.cumsum(width) - width
        cols = order[np.arange(int(width.sum())) + np.repeat(lo[first:last] - starts, width)]
        h_rows = np.repeat(h[first:last], width)
        raw = np.repeat(x[first:last], width)
        with np.errstate(over="ignore"):  # see _check_total
            raw -= x[cols]
            raw /= h_rows
            kernel.evaluate(raw, out=raw)
            raw /= h_rows
        # every window holds its own point, so no window is empty
        total = np.add.reduceat(raw, starts)
        _check_total(total, first)
        keep = raw > 0.0
        raw /= np.repeat(total, width)
        kept = np.count_nonzero(keep)
        data[nnz : nnz + kept] = raw[keep]
        indices[nnz : nnz + kept] = cols[keep]
        indptr[first + 1 : last + 1] = np.add.reduceat(keep, starts, dtype=index)
        nnz += kept
    np.cumsum(indptr, out=indptr)
    s = csr_array((data[:nnz], indices[:nnz], indptr), shape=(n, n))
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
    return _build(x, kernel, h, _csr_windows(x, kernel, h))


def _build(x: np.ndarray, kernel: Kernel, h: np.ndarray, windows) -> np.ndarray | csr_array:
    """The dense build when ``windows`` is None, else the CSR build on them."""
    if windows is None:
        return _build_dense(x, kernel, h)
    return _build_csr(x, kernel, h, *windows)


def _csr_windows(
    x: np.ndarray, kernel: Kernel, h: np.ndarray, *, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Sort order and row windows of a CSR build, or None when the build is dense.

    The build is CSR when the kernel has compact support and its windows
    hold at most ``CSR_MAX_FILL`` n^2 entries.  ``order`` is the stable
    argsort of ``x``, computed here when not given.
    """
    if not kernel.compact_support:
        return None
    if order is None:
        order = np.argsort(x, kind="stable")
    lo, hi = support_window(x, order, x, h)
    if int((hi - lo).sum()) > CSR_MAX_FILL * len(x) ** 2:
        return None
    return order, lo, hi


def _plan(data: Dataset, kernel: Kernel, h_u: np.ndarray, h_v: np.ndarray):
    """How :func:`build_pair` stores this pair, and each coordinate's CSR windows.

    The layout is ``"window"`` for the uniform kernel, whatever the
    bandwidths.  Otherwise it is ``"packed"`` when both smoothers would be
    dense (both windows None) and each coordinate's resolved bandwidths
    are all equal, whatever spec gave them, and ``"matrices"`` else.
    """
    if kernel is Kernel.UNIFORM:
        return "window", (None, None)
    windows = (
        _csr_windows(data.u, kernel, h_u, order=data.sort_u),
        _csr_windows(data.v, kernel, h_v, order=data.sort_v),
    )
    packed = all(w is None for w in windows) and all(h.min() == h.max() for h in (h_u, h_v))
    return "packed" if packed else "matrices", windows


def _storage(n: int, windows) -> tuple[str, int]:
    """``("dense", 8 n^2)``, or ``("CSR", b)``: the bytes the build on ``windows`` allocates.

    b counts per window entry a float64 weight and an index, and per row
    one pointer: the arrays :func:`_build_csr` fills, whose nnz leading
    entries the CSR holds, so a CSR build peaks at b plus one slab of
    ``BUILD_BLOCK`` rows.  Indices and pointers are int32, 4 bytes each,
    or int64, 8 bytes each, once n or the window count reaches 2^31
    (:func:`_index_dtype`).
    """
    if windows is None:
        return "dense", 8 * n * n
    _, lo, hi = windows
    entries = int((hi - lo).sum())
    index = np.dtype(_index_dtype(n, entries)).itemsize
    return "CSR", (8 + index) * entries + index * (n + 1)


def pair_storage(
    data: Dataset, kernel: Kernel, bw_u: BandwidthSpec, bw_v: BandwidthSpec
) -> tuple[str, str, int]:
    """How :func:`build_pair` stores this pair, without building it.

    Returns the layout of S1 and of S2 and the bytes of both, by the rule
    of :func:`_plan`: ``("window", "window", 2 n (3 i + 8))`` for the sort
    orders, window edges (i bytes an index) and float counts of a
    :class:`WindowPair`,
    ``("packed", "packed", 8 n^2 + 16 n)`` for one n x n array and two
    total vectors, else each smoother's ``"dense"`` or ``"CSR"`` with the
    sum of their bytes (:func:`_storage`).  A CSR smoother's bytes are
    those its build allocates, one weight and one index per window entry,
    so its build holds them plus one slab.
    """
    layout, windows = _plan(data, kernel, bw_u.resolve(data.u), bw_v.resolve(data.v))
    n = data.n
    if layout == "window":
        return "window", "window", 2 * n * (3 * np.dtype(np.intp).itemsize + 8)
    if layout == "packed":
        return "packed", "packed", 8 * n * n + 16 * n
    (kind_u, bytes_u), (kind_v, bytes_v) = (_storage(n, w) for w in windows)
    return kind_u, kind_v, bytes_u + bytes_v


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
) -> Pair:
    """Build the smoothers of both coordinates: S1 from u, S2 from v.

    A :class:`WindowPair` for the uniform kernel, a :class:`PackedPair`
    when :func:`_plan` packs them (both dense, one bandwidth per
    coordinate), else a :class:`SmootherPair` of the two matrices
    :func:`build_smoother` would return.  A coordinate whose width
    max - min overflows a float raises ``ValueError``, since the
    smoothers read differences of its points.
    """
    for name, x in (("u", data.u), ("v", data.v)):
        low, high = float(x.min()), float(x.max())
        if high - low == np.inf:  # Python floats overflow without a warning
            raise ValueError(
                f"{name} spans [{low!r}, {high!r}], and its width {name}_max - {name}_min "
                "overflows a float; rescale it"
            )
    h_u, h_v = bw_u.resolve(data.u), bw_v.resolve(data.v)
    layout, (windows_u, windows_v) = _plan(data, kernel, h_u, h_v)
    if layout == "window":
        return WindowPair(
            data.sort_u,
            *_build_window(data.u, data.sort_u, h_u),
            data.sort_v,
            *_build_window(data.v, data.sort_v, h_v),
        )
    if layout == "packed":
        return _build_packed(data.u, data.v, kernel, h_u[0], h_v[0])
    return SmootherPair(
        s1=_build(data.u, kernel, h_u, windows_u), s2=_build(data.v, kernel, h_v, windows_v)
    )
