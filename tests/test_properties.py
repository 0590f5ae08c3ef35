"""Property tests: what the certificate and the fit must not depend on."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig

from nwbackfit.fitting import backfit_direct
from nwbackfit.kernels import ConstantBandwidth, Kernel, KNearestBandwidth, RateBandwidth
from nwbackfit.simulate import BivariateNormal, SimSpec, generate, max_gap
from nwbackfit.smoothers import Dataset, build_pair, center
from nwbackfit.spectral import _smoother_extremes, certify

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
def test_permuting_rows_changes_nothing(n, seed, kernel, kind, rho):
    # the smoothers of a permuted sample are P S P^T: same spectra, same
    # verdict, and fitted components that are the permuted originals.
    # Each radius agrees to 1e-12 plus what rounding can move it by in
    # either matrix (see radius_tol)
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
    cert = certify(pair, kernel, bw_u, bw_v, data, method="power")
    permuted_cert = certify(permuted_pair, kernel, bw_u, bw_v, permuted, method="power")
    assert permuted_cert.verdict is cert.verdict
    tol = 1e-12 + sum(radius_tol(p.star_product()) for p in (pair, permuted_pair))
    assert abs(permuted_cert.spectral.rho_product - cert.spectral.rho_product) <= tol
    for name in ("s1", "s2"):
        s, permuted_s = getattr(pair, name), getattr(permuted_pair, name)
        tol = 1e-12 + radius_tol(center(s)) + radius_tol(center(permuted_s))
        # a report computes the radius of a non-regular smoother only
        regular = getattr(cert, f"regular_{name}")
        assert getattr(permuted_cert, f"regular_{name}") == regular
        got = getattr(permuted_cert.spectral, f"rho_{name}_star")
        want = getattr(cert.spectral, f"rho_{name}_star")
        assert (got is None and want is None) if regular else abs(got - want) <= tol, name
        got = _smoother_extremes(permuted_s)[2]
        want = _smoother_extremes(s)[2]
        assert abs(got - want) <= tol, name

    if cert.certified:
        # near-collinear designs (rho(S2* S1*) up to 0.99996 here) split
        # the fit into components as large as 136 that cancel; their
        # rounding then scales with that size, so the components are
        # compared relative to it and the fitted values absolutely
        fit = backfit_direct(pair, data.y)
        permuted_fit = backfit_direct(permuted_pair, permuted.y)
        scale = max(1.0, np.abs(fit.m1_hat).max(), np.abs(fit.m2_hat).max())
        assert abs(permuted_fit.alpha_hat - fit.alpha_hat) <= 1e-10
        assert np.abs(permuted_fit.m1_hat - fit.m1_hat[perm]).max() <= 1e-10 * scale
        assert np.abs(permuted_fit.m2_hat - fit.m2_hat[perm]).max() <= 1e-10 * scale
        fitted = fit.fitted_values()[perm]
        assert np.abs(permuted_fit.fitted_values() - fitted).max() <= 1e-10
