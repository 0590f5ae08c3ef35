"""Property tests: what the certificate and the fit must not depend on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nwbackfit.fitting import backfit_direct
from nwbackfit.kernels import ConstantBandwidth, KNearestBandwidth, RateBandwidth
from nwbackfit.simulate import BivariateNormal, SimSpec, generate, max_gap
from nwbackfit.smoothers import Dataset, build_pair
from nwbackfit.spectral import certify

from conftest import ALL_KERNELS


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
    kind=st.sampled_from(["constant", "rate", "knn"]),
    rho=st.sampled_from([0.0, 0.5, 0.999]),
)
def test_permuting_rows_changes_nothing(n, seed, kernel, kind, rho):
    # the smoothers of a permuted sample are P S P^T: same spectra, same
    # verdict, and fitted components that are the permuted originals
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
    for field in ("rho_product", "rho_s1_star", "rho_s2_star"):
        got = getattr(permuted_cert.spectral, field)
        assert abs(got - getattr(cert.spectral, field)) <= 1e-12, field

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
