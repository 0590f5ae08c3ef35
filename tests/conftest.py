"""Shared fixtures and construction helpers for the test suite."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import csr_array, issparse

from nwbackfit.kernels import ZERO_THRESHOLD, ConstantBandwidth, Kernel
from nwbackfit.simulate import max_gap
from nwbackfit.smoothers import Dataset
from nwbackfit.spectral import RHO_MARGIN, Verdict, check_gap_conditions, spectral_radius

ALL_KERNELS = [Kernel.UNIFORM, Kernel.EPANECHNIKOV, Kernel.TRIANGULAR, Kernel.GAUSSIAN]


def dense(s) -> np.ndarray:
    """A smoother as a dense array; a CSR one is copied out with ``toarray()``."""
    return s.toarray() if issparse(s) else np.asarray(s)


def gap_passing_constant(x, rng, lo=1.15, hi=3.0) -> ConstantBandwidth:
    """Constant bandwidth comfortably above the max adjacent gap of x."""
    h = max(max_gap(x) * float(rng.uniform(lo, hi)), 1e-6)
    return ConstantBandwidth(h)


def kernel_oracle(kernel: Kernel, t) -> np.ndarray:
    """Oracle for K(t): each shape's closed form as one whole-array expression.

    Independent of ``Kernel.evaluate``, which computes the same forms in
    place.  Values below ``ZERO_THRESHOLD`` are flushed to exact zero.
    """
    t = np.asarray(t, dtype=float)
    if kernel is Kernel.UNIFORM:
        out = np.where(np.abs(t) < 1.0, 0.5, 0.0)
    elif kernel is Kernel.EPANECHNIKOV:
        out = 0.75 * np.maximum(0.0, 1.0 - t * t)
    elif kernel is Kernel.TRIANGULAR:
        out = np.maximum(0.0, 1.0 - np.abs(t))
    else:  # Gaussian
        out = np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    return np.where(out < ZERO_THRESHOLD, 0.0, out)


def eval_scaled(kernel: Kernel, t, h: float) -> np.ndarray:
    """Oracle for the bandwidth-scaled kernel K_h(t) = K(t/h)/h, h > 0 finite."""
    h = float(h)
    if not h > 0.0 or not np.isfinite(h):
        raise ValueError(f"bandwidth must be a positive finite number, got {h}")
    return kernel_oracle(kernel, np.asarray(t, dtype=float) / h) / h


def weight_row(kernel: Kernel, x: np.ndarray, i: int, h_i: float) -> np.ndarray:
    """Oracle for row i of a smoother: normalised weights K_{h_i}(x_i - x_k)."""
    x = np.asarray(x, dtype=float)
    raw = eval_scaled(kernel, x[int(i)] - x, h_i)
    total = raw.sum()
    if not total > 0.0:
        raise ValueError(f"weight row {i} has zero total kernel mass (h={h_i})")
    return raw / total


def build_smoother_oneshot(x, kernel: Kernel, bw) -> np.ndarray:
    """Oracle for a whole smoother, every row in one n x n expression."""
    x = np.asarray(x, dtype=float)
    h = bw.resolve(x)
    raw = kernel_oracle(kernel, (x[:, None] - x[None, :]) / h[:, None]) / h[:, None]
    return raw / raw.sum(axis=1)[:, None]


def build_packed_oneshot(u, v, kernel: Kernel, h_u: float, h_v: float) -> np.ndarray:
    """Oracle for a packed pair's array of raw kernel values.

    u's whole raw kernel matrix K((u_i - u_j) / h_u) gives the lower
    triangle and the diagonal, v's the strict upper triangle, each in
    one whole-array expression.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        k_u = kernel_oracle(kernel, (u[:, None] - u[None, :]) / h_u)
        k_v = kernel_oracle(kernel, (v[:, None] - v[None, :]) / h_v)
    return np.where(np.tri(len(u), dtype=bool), k_u, k_v)


def build_csr_oneshot(x, kernel: Kernel, h, order, lo, hi) -> csr_array:
    """Oracle for a CSR smoother: every window entry in one whole-array expression.

    Row i's window is ``order[lo[i]:hi[i]]``.  Each entry is
    K((x_i - x_j) / h_i) / h_i, the row total is the sum over the window,
    zero weights are dropped, and the indices are sorted.  The index
    width follows the window count, as in ``smoothers._index_dtype``.
    """
    n = len(x)
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(n), counts)
    cols = order[np.arange(counts.sum()) + np.repeat(lo - starts, counts)]
    h_rows = h[rows]
    with np.errstate(over="ignore"):
        raw = (x[rows] - x[cols]) / h_rows
        kernel.evaluate(raw, out=raw)
        raw /= h_rows
    total = np.add.reduceat(raw, starts)
    keep = raw > 0.0
    index = np.int32 if max(n, len(raw)) < 2**31 else np.int64
    rows = rows[keep]
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    s = csr_array((raw[keep] / total[rows], cols[keep].astype(index), indptr), shape=(n, n))
    s.sort_indices()
    return s


def knn_bandwidth_fullsort(x, k: int) -> np.ndarray:
    """Oracle for k-nearest bandwidths: sort every row of the distance matrix.

    Column 0 of a sorted row is the self distance, so column k holds the
    distance to the k-th nearest neighbour.
    """
    x = np.asarray(x, dtype=float)
    dist = np.abs(x[:, None] - x[None, :])
    dist.sort(axis=1)
    return dist[:, k]


def lu_direct_oracle(pair, y) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the direct fit: LU of the formed reduced system.

    m2 solves (I - S2* S1*) m2 = S2* (I - S1*) y, with the centered
    smoothers formed from S1 and S2; then m1 = S1* (y - m2).
    """
    n = pair.n
    c = np.eye(n) - 1.0 / n
    s1_star, s2_star = c @ dense(pair.s1), c @ dense(pair.s2)
    m2 = lu_solve(lu_factor(np.eye(n) - s2_star @ s1_star), s2_star @ (y - s1_star @ y))
    return s1_star @ (y - m2), m2


def closed_class_count(m) -> int:
    """Oracle for the number of closed classes of a matrix's positivity graph.

    Reachability is the reflexive-transitive closure R of the boolean
    pattern, by repeated squaring.  Node i is in a closed class when
    everything it reaches reaches it back; the row R[i] of such a node is
    its class, so the closed classes are the distinct rows of those nodes.
    """
    reach = (dense(m) > 0.0) | np.eye(m.shape[0], dtype=bool)
    while True:
        wider = (reach.astype(float) @ reach.astype(float)) > 0.0
        if np.array_equal(wider, reach):
            break
        reach = wider
    closed = (reach <= reach.T).all(axis=1)
    return len({row.tobytes() for row in reach[closed]})


def certify_oracle(pair, kernel, bw_u, bw_v, data) -> tuple[Verdict, float]:
    """Oracle for a certificate's verdict and rho(S2* S1*).

    The radius is the dense reference ``spectral_radius`` of the formed
    product, and the verdict applies ``certify``'s rule to it: below
    1 - ``RHO_MARGIN`` it certifies, by the gap conditions when they hold
    on both coordinates.
    """
    rho = spectral_radius(pair.star_product())
    if rho >= 1.0 - RHO_MARGIN:
        return Verdict.NOT_CERTIFIED, rho
    gaps = check_gap_conditions(data.u, kernel, bw_u), check_gap_conditions(data.v, kernel, bw_v)
    if all(g.condition_holds for g in gaps):
        return Verdict.CERTIFIED_BY_GAP_CONDITIONS, rho
    return Verdict.CERTIFIED_BY_SPECTRAL_RADIUS, rho


def assert_certify_matches_oracle(cert, pair, kernel, bw_u, bw_v, data, tol=1e-12):
    """A certificate's verdict equals the oracle's, and its radius is within ``tol``."""
    verdict, rho = certify_oracle(pair, kernel, bw_u, bw_v, data)
    assert cert.verdict is verdict
    assert abs(cert.spectral.rho_product - rho) <= tol


def random_stochastic(rng, n, style):
    """Row-stochastic matrices with varied positivity patterns."""
    if style == 0:
        m = rng.random((n, n)) + 1e-3
    elif style == 1:
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        m[np.arange(n), rng.integers(0, n, n)] += 0.5  # keep every row nonzero
    elif style == 2:
        m = np.zeros((n, n))
        m[np.arange(n), (np.arange(n) + 1) % n] = 1.0  # pure cycle
    elif style == 3:
        m = np.zeros((n, n))
        m[np.arange(n), (np.arange(n) + 1) % n] = 0.7
        m[np.arange(n), rng.integers(0, n, n)] += 0.3  # cycle plus chords
    else:
        k = max(1, n // 2)
        m = np.zeros((n, n))
        m[:k, :k] = rng.random((k, k)) + 0.01
        m[k:, k:] = rng.random((n - k, n - k)) + 0.01  # two blocks
    return m / m.sum(axis=1, keepdims=True)


def brute_force_regular(s):
    """Reference oracle: some boolean power of the pattern is all-positive."""
    b = dense(s) > 0.0
    p = np.eye(len(s), dtype=bool)
    for _ in range(len(s) ** 2):
        p = p @ b
        if p.all():
            return True
    return False


def note_bound(notes: str) -> float:
    """The lower bound 1/|1 - lambda| on ||(I - S2* S1*)^-1||_2 that a
    NOT_CERTIFIED note states."""
    return float(notes.split("1/|1 - lambda| = ")[1].split(";")[0])


def two_cluster_dataset(rng, spread: float, n_a: int = 6, n_b: int = 6) -> Dataset:
    """Two well-separated clusters, aligned across both coordinates.

    Cluster membership is identical for u and v, so the step vector that
    is +1/n_a on one cluster and -1/n_b on the other is fixed by both
    centered smoothers whenever the bandwidth bridges neither gap.
    ``spread`` sets the within-cluster diameter: tight clusters with a
    covering bandwidth give equal within-cluster weights (a block
    averaging projector), larger spreads give distance-varying weights.
    """
    u = np.concatenate([rng.uniform(0.0, spread, n_a), rng.uniform(10.0, 10.0 + spread, n_b)])
    v = np.concatenate([rng.uniform(0.0, spread, n_a), rng.uniform(10.0, 10.0 + spread, n_b)])
    y = rng.normal(size=n_a + n_b)
    return Dataset(y=y, u=u, v=v)


@pytest.fixture
def uniform_cluster_problem():
    """Tight aligned clusters + uniform kernel: the certificate-failure fixture."""
    rng = np.random.default_rng(7)
    data = two_cluster_dataset(rng, spread=0.5)
    return data, Kernel.UNIFORM, ConstantBandwidth(1.0)


@pytest.fixture
def triangular_cluster_problem():
    """Aligned clusters with within-cluster weight variation.

    Keeps the unit eigenvalue of the centered product but starts the
    iteration off the fixed-point manifold, so the iterative solver
    genuinely fails to converge and the direct system is singular.
    """
    rng = np.random.default_rng(11)
    data = two_cluster_dataset(rng, spread=0.8)
    return data, Kernel.TRIANGULAR, ConstantBandwidth(1.0)


@pytest.fixture
def crossed_cluster_problem():
    """Four groups, clustered one way on u and another way on v.

    On u the groups form the clusters {G1 G2}, {G3}, {G4}; on v they form
    {G1}, {G2}, {G3 G4}.  With a uniform kernel whose bandwidth covers
    each cluster and bridges no gap, S1* and S2* are orthogonal
    projectors whose ranges share the contrast of G1 G2 against G3 G4, so
    I - S2* S1* is singular.  Unlike the aligned clusters, the data's own
    right-hand side S2* (I - S1*) y is nonzero and consistent, so a
    solver fed only that right-hand side finds one of many solutions.
    """
    rng = np.random.default_rng(3)

    def group(lo, width):
        return rng.uniform(lo, lo + width, 4)

    u = np.concatenate([group(0.0, 0.2), group(0.3, 0.2), group(10.0, 0.5), group(20.0, 0.5)])
    v = np.concatenate([group(0.0, 0.5), group(10.0, 0.5), group(20.0, 0.2), group(20.3, 0.2)])
    data = Dataset(y=rng.normal(size=16), u=u, v=v)
    return data, Kernel.UNIFORM, ConstantBandwidth(1.0)


@pytest.fixture
def interleaved_cluster_data():
    """Four groups, clustered one way on u and the crossing way on v.

    On u the groups form the clusters {G1 G2} and {G3 G4}; on v they form
    {G1 G3} and {G2 G4}.  A compact kernel at h = 1.0 bridges no gap, so
    neither gap condition holds and each smoother has two closed classes,
    but every group reaches every other through one coordinate or the
    other: the union of the two positivity graphs has one closed class.
    """
    rng = np.random.default_rng(5)

    def group(lo):
        return rng.uniform(lo, lo + 0.5, 4)

    u = np.concatenate([group(0.0), group(0.0), group(10.0), group(10.0)])
    v = np.concatenate([group(0.0), group(10.0), group(0.0), group(10.0)])
    return Dataset(y=rng.normal(size=16), u=u, v=v)


@pytest.fixture
def near_critical_problem():
    """Nearly collinear design: rho(S2* S1*) = 0.996.

    n = 500, u uniform, v = c u + sqrt(1 - c^2) (uniform noise) with
    c = 0.9999, Gaussian kernel at constant h = 0.02.  The default
    Gauss-Seidel fit (tol 1e-10) takes 4407 sweeps here.
    """
    rng = np.random.default_rng(0)
    n, c = 500, 0.9999
    u = rng.uniform(size=n)
    v = c * u + np.sqrt(1.0 - c * c) * rng.uniform(size=n)
    y = np.sin(2.0 * np.pi * u) + (v - 0.5) ** 2 + 0.3 * rng.normal(size=n)
    return Dataset(y=y, u=u, v=v), Kernel.GAUSSIAN, ConstantBandwidth(0.02)
