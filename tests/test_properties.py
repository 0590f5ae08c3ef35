"""Property tests: what the certificate and the fit must not depend on."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig
from scipy.sparse import coo_array, csc_array, csr_array

from nwbackfit.fitting import (
    BackfitNonConvergenceError,
    SingularSystemError,
    backfit_direct,
    backfit_iterative,
)
from nwbackfit.kernels import (
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
)
from nwbackfit.simulate import BivariateNormal, SimSpec, generate, max_gap
from nwbackfit.smoothers import (
    Dataset,
    PackedPair,
    SmootherPair,
    WindowPair,
    _build_packed,
    as_dense,
    build_pair,
    build_smoother,
)
from nwbackfit.spectral import (
    RHO_MARGIN,
    _closed_classes,
    _neighbours_and_loop,
    _validate_stochastic,
    certify,
    check_regularity,
)

from conftest import ALL_KERNELS


def radius_tol(m: np.ndarray) -> float:
    """How far rounding can move the computed spectral radius of ``m``.

    A backward error delta = n eps ||m||_2 moves the top eigenvalue by
    about kappa delta, kappa = 1 / |y^H x| its condition number (unit
    left and right eigenvectors y and x): negligible beside 1e-12 unless
    the eigenvalue is ill-conditioned, as in some knn smoothers.  That
    first-order bound fails at a defective eigenvalue, whose computed
    copies have nearly dependent eigenvectors: kappa is huge there (1e15
    when the copies coincide), while a k-fold one moves only by about
    r_k = 2 (n eps)^(1/k) ||m||_2 (Lidskii), and an ARPACK run can settle
    anywhere in that disc.  So when the k - 1 computed eigenvalues nearest
    the top one lie within r_k of it, for k up to 5 (the largest
    multiplicity seen on these samples), the bound is the smaller of
    kappa delta and r_k at the largest such k, with kappa the largest
    over those k eigenvalues: the copy that comes out on top can look
    well-conditioned (kappa 6) where the others show the defect (7e7).
    """
    vals, left, right = eig(m, left=True, right=True)
    n_eps = len(vals) * np.finfo(float).eps
    norm = np.linalg.norm(m, 2)
    top = np.argmax(np.abs(vals))
    nearest = np.argsort(np.abs(vals - vals[top]))[:5]
    disc = 2.0 * norm * n_eps ** (1.0 / np.arange(1, len(nearest) + 1))
    k = int(np.flatnonzero(np.abs(vals[nearest] - vals[top]) <= disc).max()) + 1
    cluster = nearest[:k]
    overlap = np.abs(np.einsum("ij,ij->j", left[:, cluster].conj(), right[:, cluster]))
    kappa_delta = n_eps * norm / overlap.min()
    return float(kappa_delta if k == 1 else min(kappa_delta, disc[k - 1]))


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
    kind=st.sampled_from(["constant", "rate", "knn"]),
    rho=st.sampled_from([0.0, 0.5, 0.999]),
)
# defective top eigenvalues of S2* S1* (quadruple and triple, where the
# radius moves by 1.7e-7 and 8e-8 under permutation), and a double one of
# S1*; a triple one of S2* whose top copy looks well-conditioned; and a
# near-identity S1* whose top eigenvalues crowd below 1
@example(n=8, seed=200, kernel=Kernel.UNIFORM, kind="knn", rho=0.0)
@example(n=8, seed=224, kernel=Kernel.UNIFORM, kind="knn", rho=0.999)
@example(n=9, seed=3776825933, kernel=Kernel.UNIFORM, kind="knn", rho=0.0)
@example(n=9, seed=10803, kernel=Kernel.UNIFORM, kind="knn", rho=0.5)
@example(n=38, seed=1870203459, kernel=Kernel.GAUSSIAN, kind="rate", rho=0.0)
# certified at rho(S2* S1*) = 0.99999991, with components as large as 6.1e5
@example(n=8, seed=8388607, kernel=Kernel.GAUSSIAN, kind="rate", rho=0.5)
# certified near rho(S2* S1*) = 1, where the fitted values differ by
# 5.0e-8, 1.7e-9, 7.1e-10 and 1.75e-10
@example(n=23, seed=883574275, kernel=Kernel.GAUSSIAN, kind="knn", rho=0.999)
@example(n=34, seed=3617449413, kernel=Kernel.GAUSSIAN, kind="knn", rho=0.999)
@example(n=34, seed=1511539635, kernel=Kernel.TRIANGULAR, kind="knn", rho=0.999)
@example(n=20, seed=2033661757, kernel=Kernel.GAUSSIAN, kind="rate", rho=0.999)
def test_permuting_rows_changes_nothing(n, seed, kernel, kind, rho):
    # the smoothers of a permuted sample are P S P^T: same spectra, same
    # graphs, same verdict, and fitted components that are the permuted
    # originals.  The product's radius agrees to 1e-12 plus what rounding
    # can move it by in either matrix (see radius_tol)
    data = generate(SimSpec(n=n, design=BivariateNormal(rho=rho), seed=seed))
    rng = np.random.default_rng(seed)
    if kind == "constant":
        bw_u = ConstantBandwidth(max_gap(data.u) * float(rng.uniform(0.7, 2.5)))
        bw_v = ConstantBandwidth(max_gap(data.v) * float(rng.uniform(0.7, 2.5)))
    elif kind == "rate":
        bw_u = bw_v = RateBandwidth(float(rng.uniform(0.1, 0.9)))
    else:
        bw_u = bw_v = KNearestBandwidth(int(rng.integers(2, 6)))
    perm = rng.permutation(n)
    permuted = Dataset(y=data.y[perm], u=data.u[perm], v=data.v[perm])

    pair = build_pair(data, kernel, bw_u, bw_v)
    permuted_pair = build_pair(permuted, kernel, bw_u, bw_v)
    cert = certify(pair, kernel, bw_u, bw_v, data)
    permuted_cert = certify(permuted_pair, kernel, bw_u, bw_v, permuted)
    assert permuted_cert.verdict is cert.verdict
    tol = 1e-12 + sum(radius_tol(p.star_product()) for p in (pair, permuted_pair))
    assert abs(permuted_cert.spectral.rho_product - cert.spectral.rho_product) <= tol
    # the graph fields are read from the smoothers' graphs, whose strong
    # components and closed classes are relabelled by the permutation only
    assert permuted_cert.spectral.closed_classes == cert.spectral.closed_classes
    for name in ("s1", "s2"):
        assert getattr(permuted_cert, f"regular_{name}") == getattr(cert, f"regular_{name}")
        assert _closed_classes(getattr(permuted_pair, name)) == _closed_classes(getattr(pair, name))

    if cert.certified:
        # near-collinear designs split the fit into large components that
        # cancel, so the components are compared relative to their size.
        # The components solve (I - S2* S1*) m2 = b, whose condition number
        # is at least 1/(1 - rho), rho = rho(S2* S1*); GMRES stops at a
        # relative residual of 1e-14 (45 eps), so each solve may err by
        # about 45 eps scale/(1 - rho), and the two fits compared by twice
        # that.  Hence c = 100.  Where rho is near 1 this exceeds 1e-10
        # scale (at rho = 0.99999991, components of 6.1e5 differ by 9.1e-4,
        # 0.6 eps scale/(1 - rho)).  The fitted values are the components'
        # sum, so they inherit the same bound: at rho = 0.99999939 they
        # differ by 5.0e-8, 0.02 eps scale/(1 - rho)
        fit = backfit_direct(pair, data.y)
        permuted_fit = backfit_direct(permuted_pair, permuted.y)
        scale = max(1.0, np.abs(fit.m1_hat).max(), np.abs(fit.m2_hat).max())
        conditioned = 100.0 * np.finfo(float).eps * scale / (1.0 - cert.spectral.rho_product)
        tol = max(1e-10 * scale, conditioned)
        assert abs(permuted_fit.alpha_hat - fit.alpha_hat) <= 1e-10
        assert np.abs(permuted_fit.m1_hat - fit.m1_hat[perm]).max() <= tol
        assert np.abs(permuted_fit.m2_hat - fit.m2_hat[perm]).max() <= tol
        fitted = fit.fitted_values()[perm]
        assert np.abs(permuted_fit.fitted_values() - fitted).max() <= tol


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
    rho=st.sampled_from([0.0, 0.5, 0.999]),
    powers=st.tuples(st.integers(min_value=-40, max_value=600), st.integers(-40, 600)),
)
@example(n=2, seed=0, kernel=Kernel.UNIFORM, rho=0.0, powers=(600, -40))
def test_power_of_two_scales_change_no_bit(n, seed, kernel, rho, powers):
    # a power of two scales each coordinate, its sd, its rate bandwidth
    # and every difference exactly, so each (x_i - x_j) / h, smoother,
    # window and radius is the same bits (u's sd at 2^600 is one whose
    # squared deviations overflow)
    data = generate(SimSpec(n=n, design=BivariateNormal(rho=rho), seed=seed))
    scaled = Dataset(y=data.y, u=np.ldexp(data.u, powers[0]), v=np.ldexp(data.v, powers[1]))
    bw = RateBandwidth(0.2)
    want, got = (certify(build_pair(d, kernel, bw, bw), kernel, bw, bw, d) for d in (data, scaled))
    assert got.verdict is want.verdict
    assert got.spectral.rho_product == want.spectral.rho_product


# How far an affine map's rounding may move the Gaussian rho(S2* S1*).
# Mapping x to a x + b, |b| <= 10 |a|, rounds each point by at most
# 2 eps (|a x| + |b|), so each kernel argument t = (x_i - x_j) / h and the
# bandwidth h = sd n^-0.2 move relatively by about eps (|x| + 10) / sd, and
# each smoother entry, since K'(t) / K(t) = -t, by |t| times that.  Each
# Gaussian smoother is a diagonal scaling of a symmetric matrix, and its
# product's radius moved by at most 2.2e-15 over 3000 random draws of
# this test's inputs (half of them with reflections), so 1e-12 leaves a
# factor of about 450.
AFFINE_RHO_TOL = 1e-12


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rho=st.sampled_from([0.0, 0.5, 0.999]),
    scales=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 2),
    signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
    shifts=st.tuples(*[st.floats(min_value=-10.0, max_value=10.0)] * 2),
)
def test_affine_maps_keep_the_gaussian_verdict(n, seed, rho, scales, signs, shifts):
    # the rate bandwidth follows the sd, so an affine map of u or v (scale
    # 10^e, |e| <= 3, either sign; shift up to 10 scales) is the same
    # study up to rounding (AFFINE_RHO_TOL)
    data = generate(SimSpec(n=n, design=BivariateNormal(rho=rho), seed=seed))
    a_u, a_v = (sign * 10.0**e for sign, e in zip(signs, scales))
    mapped = Dataset(
        y=data.y, u=a_u * data.u + a_u * shifts[0], v=a_v * data.v + a_v * shifts[1]
    )
    bw, kernel = RateBandwidth(0.2), Kernel.GAUSSIAN
    want, got = (certify(build_pair(d, kernel, bw, bw), kernel, bw, bw, d) for d in (data, mapped))
    assume(abs(want.spectral.rho_product - (1.0 - RHO_MARGIN)) > AFFINE_RHO_TOL)
    assert got.verdict is want.verdict
    assert abs(got.spectral.rho_product - want.spectral.rho_product) <= AFFINE_RHO_TOL


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
    kind=st.sampled_from(["constant", "rate", "knn"]),
    ties=st.booleans(),
    layout=st.sampled_from(
        [
            "dense", "csr", "csr-unsorted", "csc", "coo", "csr-duplicates",
            "packed-lower", "packed-upper",
        ]
    ),
    shuffled=st.booleans(),
)
@example(n=2, seed=0, kernel=Kernel.UNIFORM, kind="constant", ties=False, layout="csr", shuffled=True)
@example(n=2, seed=0, kernel=Kernel.GAUSSIAN, kind="rate", ties=True, layout="dense", shuffled=False)
# regular, with a stored 0.0 ahead of three of its four neighbour entries
@example(
    n=5, seed=3, kernel=Kernel.EPANECHNIKOV, kind="constant", ties=False,
    layout="csr-duplicates", shuffled=False,
)
def test_sorted_neighbour_read_agrees_with_the_graph(n, seed, kernel, kind, ties, layout, shuffled):
    # the sorted-neighbour read calls a smoother regular only where its
    # strong components do, in any order o; check_regularity agrees with
    # the graph always.  Gaps drawn as cubed exponentials leave some far
    # beyond the bandwidth, where a Gaussian weight is flushed to exact 0,
    # and rounding them makes ties
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.exponential(size=n) ** 3)
    if ties:
        x = np.round(x)
    multiplicity = int(np.unique(x, return_counts=True)[1].max())
    if kind == "knn" and multiplicity < n:
        bw = KNearestBandwidth(int(rng.integers(multiplicity, n)))
    elif kind == "rate" and multiplicity < n:
        bw = RateBandwidth(float(rng.uniform(0.05, 0.9)))
    else:
        bw = ConstantBandwidth(max(max_gap(x), 1.0) * float(rng.uniform(0.05, 2.5)))
    s = as_dense(build_smoother(x, kernel, bw))
    order = rng.permutation(n) if shuffled else np.argsort(x, kind="stable")
    if layout.startswith("packed"):
        # x's smoother in one triangle of a packed pair, a second
        # coordinate's in the other; packing needs one bandwidth
        h = bw.resolve(x)
        assume(h.min() == h.max())
        other = np.cumsum(rng.exponential(size=n))
        if layout == "packed-lower":
            packed = _build_packed(x, other, kernel, h[0], 1.0).s1
        else:
            packed = _build_packed(other, x, kernel, 1.0, h[0]).s2
        assert np.array_equal(np.asarray(packed) > 0.0, s > 0.0)
        s = packed
    elif layout != "dense":
        s = {"csc": csc_array, "coo": coo_array}.get(layout, csr_array)(s)
    if layout == "csr-unsorted":  # each row's stored entries in descending column order
        s = csr_array((s.data, s.indices, s.indptr), shape=s.shape)
        for i in range(n):
            row = slice(s.indptr[i], s.indptr[i + 1])
            s.indices[row], s.data[row] = s.indices[row][::-1], s.data[row][::-1]
        s.has_sorted_indices = False
    if layout == "csr-duplicates":
        # each stored entry split into two halves, and a stored 0.0 ahead
        # of them at some neighbour positions: each entry reads as its sum
        rows = np.repeat(np.arange(n), np.diff(s.indptr))
        zero = rng.random(n - 1) < 0.5
        i = np.concatenate([order[:-1][zero], rows, rows])
        j = np.concatenate([order[1:][zero], s.indices, s.indices])
        v = np.concatenate([np.zeros(zero.sum()), s.data / 2, s.data / 2])
        by_row = np.argsort(i, kind="stable")
        indptr = np.searchsorted(i[by_row], np.arange(n + 1))
        s = csr_array((v[by_row], j[by_row], indptr), shape=(n, n))
    valid = _validate_stochastic(s)
    read = _neighbours_and_loop(valid, order)

    n_components, periods = _closed_classes(valid)
    regular = n_components == 1 and periods == (1,)
    assert check_regularity(s, order) == regular
    if read:
        assert regular
    if not shuffled and kernel.compact_support and kind == "constant":
        # a compact kernel at one bandwidth weighs only points within h,
        # so a zero neighbour entry cuts the line: the read is exact
        assert read == regular


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
    kind=st.sampled_from(["constant", "rate", "knn"]),
    ties=st.booleans(),
    same=st.booleans(),
)
@example(n=2, seed=0, kernel=Kernel.GAUSSIAN, kind="rate", ties=False, same=True)
def test_operator_smoothers_are_row_stochastic(n, seed, kernel, kind, ties, same):
    # the certificate takes packed and window smoothers as built, without
    # checking their row sums: S 1 = 1 exactly, since a window row is
    # count / count and a packed row's total is the dsymv that applies S.
    # When u = v at one bandwidth, S2 takes S1's totals and is only close
    rng = np.random.default_rng(seed)

    def draw():
        x = np.cumsum(rng.exponential(size=n) ** 3)
        return np.round(x) if ties else x

    u = draw()
    v = u.copy() if same else draw()
    multiplicity = max(int(np.unique(x, return_counts=True)[1].max()) for x in (u, v))
    if kind == "knn" and multiplicity < n:
        bw = KNearestBandwidth(int(rng.integers(multiplicity, n)))
    elif kind == "rate" and multiplicity < n:
        bw = RateBandwidth(float(rng.uniform(0.05, 0.9)))
    else:
        bw = ConstantBandwidth(max(max_gap(u), max_gap(v), 1.0) * float(rng.uniform(0.05, 2.5)))
    ones = np.ones(n)
    window = build_pair(Dataset(y=np.zeros(n), u=u, v=v), Kernel.UNIFORM, bw, bw)
    assert isinstance(window, WindowPair)
    assert np.array_equal(window.s1 @ ones, ones) and np.array_equal(window.s2 @ ones, ones)
    h_u, h_v = bw.resolve(u), bw.resolve(v)
    if h_u.min() == h_u.max() and h_v.min() == h_v.max():
        packed = _build_packed(u, v, kernel, h_u[0], h_v[0])
        assert np.array_equal(packed.s1 @ ones, ones)
        if same:
            assert np.abs(packed.s2 @ ones - 1.0).max() <= 1e-14
        else:
            assert np.array_equal(packed.s2 @ ones, ones)


@settings(derandomize=True, deadline=None, database=None)
@given(
    values=st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=30),
    scale=st.sampled_from([1.0, 0.1, 3e-9]),
    where=st.sampled_from(["point", "between", "below", "above"]),
    pick=st.integers(min_value=0, max_value=29),
    k_choice=st.sampled_from(["1", "2", "n-1", "n"]),
)
def test_windowed_kth_distance_matches_the_full_sort(values, scale, where, pick, k_choice):
    # drawn lists come in any order and repeat values (ties in distance
    # and duplicates); the k-th distance read from the query's 2k sorted
    # positions is the full sort's, bit for bit, and its box holds every
    # point nearer than it
    x = np.array(values, dtype=float) * scale
    n = len(x)
    k = {"1": 1, "2": 2, "n-1": n - 1, "n": n}[k_choice]
    if not 1 <= k <= n:
        return
    xs = np.sort(x)
    if where == "point":
        at = float(x[pick % n])
    elif where == "between":
        i = pick % max(n - 1, 1)
        at = 0.5 * (xs[i] + xs[min(i + 1, n - 1)])
    elif where == "below":
        at = float(xs[0] - (pick + 1) * 0.37 * scale)
    else:
        at = float(xs[-1] + (pick + 1) * 0.37 * scale)
    order = np.argsort(x, kind="stable")
    want = np.sort(np.abs(x - at))[k - 1]
    spec = KNearestBandwidth(k)
    if want == 0.0:
        with pytest.raises(ValueError, match="coincide with the query"):
            spec.off_sample(x, order, at)
        return
    h, lo, hi = spec.off_sample(x, order, at)
    assert np.float64(h).tobytes() == want.tobytes()
    assert hi - lo <= 2 * k
    inside = np.zeros(n, dtype=bool)
    inside[order[lo:hi]] = True
    assert inside[np.abs(x - at) < h].all()


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # build_pair holds a uniform-kernel pair as windows, never packed
    kernel=st.sampled_from([k for k in ALL_KERNELS if k is not Kernel.UNIFORM]),
    ties=st.booleans(),
    same=st.booleans(),
)
@example(n=2, seed=0, kernel=Kernel.EPANECHNIKOV, ties=False, same=False)
@example(n=3, seed=1, kernel=Kernel.GAUSSIAN, ties=True, same=True)
def test_packed_pair_matches_build_smoother(n, seed, kernel, ties, same):
    # a packed pair stores raw kernel values and divides by their row
    # totals; build_smoother divides each value by h, then by the total
    # of those.  The totals are summed in other orders, so entries agree
    # to a few ulps (up to 4 at n <= 12, growing like the sums' rounding:
    # 8 at n = 40), and products to rounding
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    if ties:
        u = np.round(u)
    v = u.copy() if same else rng.uniform(-2.0, 2.0, n)
    h_u = float(rng.uniform(0.3, 3.0))
    h_v = h_u * float(rng.uniform(1.1, 2.0))
    data = Dataset(y=np.zeros(n), u=u, v=v)
    pair = build_pair(data, kernel, ConstantBandwidth(h_u), ConstantBandwidth(h_v))
    assert isinstance(pair, PackedPair)
    ref = SmootherPair(
        as_dense(build_smoother(u, kernel, ConstantBandwidth(h_u))),
        as_dense(build_smoother(v, kernel, ConstantBandwidth(h_v))),
    )
    rows, cols = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    for got, want in ((pair.s1, ref.s1), (pair.s2, ref.s2)):
        np.testing.assert_array_max_ulp(got[rows, cols], want[rows, cols], maxulp=4)
    x = rng.normal(size=n)
    assert np.abs(pair.apply_s1_star(x) - ref.apply_s1_star(x)).max() <= 1e-14
    assert np.abs(pair.apply_s2_star(x) - ref.apply_s2_star(x)).max() <= 1e-14
    assert np.abs(pair.star_product() - ref.star_product()).max() <= 1e-14


def _window_bandwidth(x, rng, kind: str, reach: float, tiny: bool):
    """A bandwidth spec for x whose windows run from each point's own
    value alone (``reach`` 0) to every point (``reach`` 1), on a log
    scale; ``tiny`` puts h = 1e-320, where K(0)/h overflows, at one point
    or on the whole coordinate."""
    spread = float(np.ptp(x))
    gaps = np.diff(np.unique(x))
    low = float(gaps.min()) / 2.0 if gaps.size else 1e-3
    high = 2.0 * spread + 1.0
    h = low * (high / low) ** reach
    if kind == "knn":
        return KNearestBandwidth(max(1, min(len(x) - 1, round(reach * (len(x) - 1)))))
    if kind == "rate":
        return RateBandwidth(min(max(1.0 - reach, 0.01), 0.99))
    if kind == "per-point":
        h = low * (high / low) ** rng.uniform(0.0, reach, len(x))
        if tiny:
            h[int(rng.integers(len(x)))] = 1e-320
        return PerPointBandwidth(h)
    return ConstantBandwidth(1e-320 if tiny else h)


def _outcome(build):
    """What ``build()`` returns, or the text of the ``ValueError`` it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.tuples(*[st.sampled_from(["constant", "rate", "knn", "per-point"])] * 2),
    ties=st.sampled_from(["none", "rounded", "duplicated"]),
    reach=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 2),
    tiny=st.sampled_from(["none", "u", "v"]),
)
@example(n=2, seed=0, kinds=("constant", "constant"), ties="none", reach=(0.0, 1.0), tiny="none")
@example(n=3, seed=1, kinds=("knn", "per-point"), ties="duplicated", reach=(0.5, 0.5), tiny="none")
@example(n=3, seed=2, kinds=("constant", "per-point"), ties="none", reach=(0.3, 0.3), tiny="v")
def test_window_pair_matches_build_smoother(n, seed, kinds, ties, reach, tiny):
    # the window pair against build_smoother's matrices of the same
    # coordinates: entries to 1e-15, products to the 1e-12 parity
    # tolerance times max|z| (z with 1e8 outliers), the same graphs and
    # certificate, and the same error when K(0)/h overflows
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.uniform(-2.0, 2.0, n)
    if ties == "rounded":
        u, v = np.round(u, 1), np.round(v, 1)
    elif ties == "duplicated":
        u, v = np.repeat(u[: (n + 1) // 2], 2)[:n], np.repeat(v[: (n + 1) // 2], 2)[:n]
    data = Dataset(y=rng.normal(size=n), u=u, v=v)
    bw_u = _window_bandwidth(u, rng, kinds[0], reach[0], tiny == "u")
    bw_v = _window_bandwidth(v, rng, kinds[1], reach[1], tiny == "v")
    kernel = Kernel.UNIFORM
    pair = _outcome(lambda: build_pair(data, kernel, bw_u, bw_v))

    def reference():
        # build_pair resolves both bandwidths before it builds either smoother
        bw_u.resolve(u)
        bw_v.resolve(v)
        return SmootherPair(build_smoother(u, kernel, bw_u), build_smoother(v, kernel, bw_v))

    ref = _outcome(reference)
    if isinstance(ref, str):
        assert pair == ref
        return
    assert isinstance(pair, WindowPair)
    z = rng.normal(size=n)
    z[rng.integers(n, size=2)] = [1e8, -1e8]
    for name, order in (("s1", data.sort_u), ("s2", data.sort_v)):
        got, want = getattr(pair, name), getattr(ref, name)
        dense = as_dense(want)
        assert np.array_equal(as_dense(got) > 0.0, dense > 0.0)
        assert np.abs(as_dense(got) - dense).max() <= 1e-15
        assert np.abs(got @ z - want @ z).max() <= 1e-12 * np.abs(z).max()
        assert check_regularity(got, order) == check_regularity(want, order)
        assert _closed_classes(got) == _closed_classes(want)
    cert = certify(pair, kernel, bw_u, bw_v, data)
    want = certify(ref, kernel, bw_u, bw_v, data)
    tol = 1e-12 + radius_tol(ref.star_product())
    assert abs(cert.spectral.rho_product - want.spectral.rho_product) <= tol
    assume(abs(want.spectral.rho_product - (1.0 - RHO_MARGIN)) > tol)
    assert cert.verdict is want.verdict
    assert (cert.regular_s1, cert.regular_s2) == (want.regular_s1, want.regular_s2)
    assert cert.spectral.closed_classes == want.spectral.closed_classes


def _settles(call):
    """Run ``call``: its result, or None when it raises one of the
    documented errors with a message; any other exception escapes."""
    try:
        return call()
    except (ValueError, SingularSystemError, BackfitNonConvergenceError) as exc:
        assert str(exc)
        return None


@st.composite
def _tied_sample(draw):
    """A sample of 2-12 points from few values, so that points repeat and
    neighbours tie, with a knn k per coordinate of at most n (k = n, or
    k at or above a value's multiplicity, leaves a zero bandwidth)."""
    values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0, 10.0])
    u = draw(st.lists(values, min_size=2, max_size=12))
    k = draw(st.tuples(*[st.integers(min_value=1, max_value=len(u))] * 2))
    return u, k


@settings(derandomize=True, deadline=None, database=None)
@given(
    sample=_tied_sample(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
)
@example(sample=([0.0, 0.0], (1, 1)), seed=0, kernel=Kernel.UNIFORM)
@example(sample=([0.0, 1.0], (1, 1)), seed=1, kernel=Kernel.GAUSSIAN)
@example(sample=([0.5, 0.5, 0.5], (2, 1)), seed=2, kernel=Kernel.EPANECHNIKOV)
@example(sample=([0.0, 0.25, 0.5], (1, 2)), seed=3, kernel=Kernel.TRIANGULAR)
def test_knn_ties_give_a_verdict_or_a_clean_error(sample, seed, kernel):
    # duplicated and tied samples under knn bandwidths, down to n = 2:
    # each step returns, or raises one of the documented errors with a
    # message, and nothing else
    u, k = sample
    n = len(u)
    rng = np.random.default_rng(seed)
    u = np.array(u)
    # v repeats u's values in another order, so both coordinates tie
    data = Dataset(y=rng.normal(size=n), u=u, v=rng.permutation(u))
    bw_u, bw_v = KNearestBandwidth(k[0]), KNearestBandwidth(k[1])
    pair = _settles(lambda: build_pair(data, kernel, bw_u, bw_v))
    if pair is None:
        return
    cert = _settles(lambda: certify(pair, kernel, bw_u, bw_v, data))
    assert cert is None or isinstance(cert.certified, bool)
    _settles(lambda: backfit_iterative(pair, data.y))
    _settles(lambda: backfit_direct(pair, data.y))
