"""Property tests: what the certificate and the fit must not depend on."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig
from scipy.sparse import coo_array, csc_array, csr_array

from nwbackfit.fitting import backfit_direct
from nwbackfit.kernels import ConstantBandwidth, Kernel, KNearestBandwidth, RateBandwidth
from nwbackfit.simulate import BivariateNormal, SimSpec, generate, max_gap
from nwbackfit.smoothers import Dataset, as_dense, build_pair, build_smoother
from nwbackfit.spectral import (
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
    # the smoothers' fields are read from their graphs, whose strong
    # components and closed classes are relabelled by the permutation only
    assert permuted_cert.spectral.top_eigenvalue_simple == cert.spectral.top_eigenvalue_simple
    for name in ("s1", "s2"):
        assert getattr(permuted_cert, f"regular_{name}") == getattr(cert, f"regular_{name}")
        got = getattr(permuted_cert.spectral, f"rho_{name}_star")
        assert got == getattr(cert.spectral, f"rho_{name}_star"), name
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
    kind=st.sampled_from(["constant", "rate", "knn"]),
    ties=st.booleans(),
    layout=st.sampled_from(["dense", "csr", "csr-unsorted", "csc", "coo", "csr-duplicates"]),
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
    if layout != "dense":
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
