"""Gap conditions, chain regularity, spectral radii, certification."""

import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array, issparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator

from nwbackfit import smoothers, spectral
from nwbackfit.kernels import (
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
)
from nwbackfit.simulate import BivariateNormal, IndependentUniform, SimSpec, generate, max_gap
from nwbackfit.smoothers import Dataset, build_pair, build_smoother, center
from nwbackfit.spectral import (
    Verdict,
    certify,
    check_gap_conditions,
    check_regularity,
    spectral_radius,
)
from nwbackfit.spectral import _asymmetry, _product_radius, _smoother_extremes, _symmetrized

from conftest import (
    ALL_KERNELS,
    brute_force_regular,
    gap_passing_constant,
    random_stochastic,
    smoother_extremes_oracle,
    two_cluster_dataset,
)


class TestGapConditions:
    def test_gaussian_always_holds(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 40)))
            h = float(rng.uniform(0.01, 2.0))
            rep = check_gap_conditions(x, Kernel.GAUSSIAN, ConstantBandwidth(h))
            assert rep.condition_holds and rep.failing_indices == []

    def test_uniform_with_oversized_gap(self):
        rep = check_gap_conditions(
            np.array([0.0, 0.3, 2.0]), Kernel.UNIFORM, ConstantBandwidth(1.0)
        )
        assert not rep.condition_holds
        assert rep.failing_indices == [1, 2]  # both endpoints of the 0.3 to 2.0 gap
        assert_allclose(rep.gaps, [0.3, 1.7])
        assert rep.max_gap == pytest.approx(1.7)

    def test_uniform_constant_bandwidth_reduces_to_max_gap(self):
        # with a constant-h uniform kernel the check is exactly h > max gap
        rng = np.random.default_rng(52)
        for _ in range(30):
            x = rng.uniform(0.0, 1.0, 25)
            g = float(np.diff(np.sort(x)).max())
            above = check_gap_conditions(x, Kernel.UNIFORM, ConstantBandwidth(g * 1.01))
            below = check_gap_conditions(x, Kernel.UNIFORM, ConstantBandwidth(g * 0.99))
            assert above.condition_holds
            assert not below.condition_holds

    def test_per_point_bandwidths_one_sided_failure(self):
        # only the last point's bandwidth is too small for its left gap
        rep = check_gap_conditions(
            np.array([0.0, 1.0, 2.0]),
            Kernel.UNIFORM,
            PerPointBandwidth(np.array([3.0, 3.0, 0.5])),
        )
        assert rep.failing_indices == [2]

    def test_unsorted_input_handled(self):
        a = check_gap_conditions(np.array([2.0, 0.0, 0.3]), Kernel.UNIFORM, ConstantBandwidth(1.0))
        b = check_gap_conditions(np.array([0.0, 0.3, 2.0]), Kernel.UNIFORM, ConstantBandwidth(1.0))
        assert a.failing_indices == b.failing_indices
        assert_allclose(a.gaps, b.gaps)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            check_gap_conditions(np.array([1.0]), Kernel.GAUSSIAN, ConstantBandwidth(1.0))

    def test_report_serializes(self):
        rep = check_gap_conditions(np.array([0.0, 1.0]), Kernel.GAUSSIAN, ConstantBandwidth(1.0))
        json.dumps(rep.to_dict())


class TestRegularity:
    def test_complete_graph(self):
        n = 5
        assert check_regularity(np.full((n, n), 1.0 / n))

    def test_block_diagonal(self):
        m = np.zeros((4, 4))
        m[:2, :2] = 0.5
        m[2:, 2:] = 0.5
        assert not check_regularity(m)

    def test_pure_cycle_is_periodic(self):
        m = np.zeros((4, 4))
        m[np.arange(4), (np.arange(4) + 1) % 4] = 1.0
        assert not check_regularity(m)  # irreducible but period 4

    def test_cycle_with_self_loop_is_regular(self):
        m = np.zeros((4, 4))
        m[np.arange(4), (np.arange(4) + 1) % 4] = 1.0
        m[0, 0] = 0.5
        m[0, 1] = 0.5
        assert check_regularity(m)

    def test_two_cycle_lengths_coprime(self):
        # cycle of length 3 plus a chord creating a 2-cycle: gcd(3, 2) = 1
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        m[1, 2] = 0.5
        m[1, 0] = 0.5
        m[2, 0] = 1.0
        assert check_regularity(m)

    def test_smoother_with_oversized_gap(self):
        s = build_smoother(np.array([0.0, 0.3, 2.0]), Kernel.UNIFORM, ConstantBandwidth(1.0))
        assert not check_regularity(s)
        assert not brute_force_regular(s)

    def test_matches_brute_force(self):
        # dense, and CSR copies without their zeros
        rng = np.random.default_rng(53)
        for trial in range(150):
            n = int(rng.integers(2, 13))
            m = random_stochastic(rng, n, trial % 5)
            want = brute_force_regular(m)
            assert check_regularity(m) == want
            assert check_regularity(csr_array(m)) == want

    def test_large_periodic_graph(self):
        # steps of 1 and 4 around a 300-cycle, no self-loops: every cycle
        # length is a multiple of gcd(300, 3) = 3
        n = 300
        m = np.zeros((n, n))
        for step in (1, 4):
            m[np.arange(n), (np.arange(n) + step) % n] = 0.5
        assert not check_regularity(m)
        assert not check_regularity(csr_array(m))

    def test_large_graph_with_a_step_of_two_is_regular(self):
        # a step of 2 beside 1 and 4 gives cycles of coprime lengths
        n = 300
        m = np.zeros((n, n))
        for step in (1, 2, 4):
            m[np.arange(n), (np.arange(n) + step) % n] = 1.0 / 3.0
        assert check_regularity(m)
        assert check_regularity(csr_array(m))

    def test_csr_keeps_stored_zeros_out_of_the_graph(self):
        # a stored zero on the cycle's diagonal must not read as a self-loop
        data = [0.0, 1.0, 1.0, 1.0, 1.0]
        s = csr_array((data, [0, 1, 2, 3, 0], [0, 2, 3, 4, 5]), shape=(4, 4))
        assert s.nnz == 5
        assert not check_regularity(s)

    def test_rejects_non_stochastic(self):
        # dense, and the same matrices as CSR
        for to_matrix in (np.array, csr_array):
            with pytest.raises(ValueError):
                check_regularity(to_matrix(np.array([[0.5, 0.4], [0.5, 0.5]])))
            with pytest.raises(ValueError):
                check_regularity(to_matrix(np.array([[1.5, -0.5], [0.0, 1.0]])))
            with pytest.raises(ValueError):
                check_regularity(to_matrix(np.zeros((2, 3))))


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_stochastic_has_radius_one(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = random_stochastic(rng, n, 0)
            assert abs(spectral_radius(m) - 1.0) <= 1e-10

    def test_hand_two_by_two(self):
        m = np.array([[0.2, -0.2], [-0.2, 0.2]])
        assert spectral_radius(m) == pytest.approx(0.4, abs=1e-12)

    def test_power_handles_complex_pair(self):
        rot = 0.9 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_radius(rot) == pytest.approx(0.9, abs=1e-8)

    def test_power_agrees_with_dense(self):
        # general nonsymmetric matrices, often with a complex dominant
        # pair, as the product operator of a stand-in pair
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 25))
            m = rng.normal(size=(n, n))
            m *= float(rng.uniform(0.1, 1.5)) / max(np.abs(np.linalg.eigvals(m)).max(), 1e-12)
            pair = SimpleNamespace(
                n=n,
                apply_s1_star=lambda x: x,
                apply_s2_star=lambda x, m=m: m @ x,
                star_product=m.copy,
            )
            rho, used, _, _, fallback = _product_radius(pair)
            assert used == ("power" if n >= 3 else "dense")
            assert fallback == (None if n >= 3 else "n < 3")
            assert rho == pytest.approx(spectral_radius(m), abs=1e-7)

    def test_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))


class TestEigenstructure:
    def test_perron_pair_sweep(self):
        # stochastic smoothers: radius 1, constant vector fixed
        rng = np.random.default_rng(56)
        for trial in range(40):
            n = int(rng.integers(5, 45))
            x = rng.normal(size=n)
            kernel = ALL_KERNELS[trial % 4]
            s = build_smoother(x, kernel, gap_passing_constant(x, rng))
            theta = np.full(n, 1.0 / np.sqrt(n))
            assert np.linalg.norm(s @ theta - theta) <= 1e-10
            assert abs(spectral_radius(s) - 1.0) <= 1e-10

    def test_centered_spectrum_swaps_unit_eigenvalue_for_zero(self):
        # eigenvalues of center(s) are {0} plus the non-unit eigenvalues
        # of s, checked by optimal matching on distinct-spectrum cases
        # small matrices: large n drives the trailing eigenvalues of a
        # Gaussian smoother together and the distinctness filter skips all
        rng = np.random.default_rng(57)
        checked = 0
        for trial in range(80):
            n = int(rng.integers(5, 10))
            x = rng.normal(size=n)
            s = build_smoother(x, Kernel.GAUSSIAN, ConstantBandwidth(float(rng.uniform(0.4, 2.0))))
            eigs = np.linalg.eigvals(s)
            dists = np.abs(eigs[:, None] - eigs[None, :])[np.triu_indices(n, 1)]
            if dists.min() <= 1e-6:
                continue
            near_one = np.abs(eigs - 1.0) <= 1e-8
            assert near_one.sum() == 1
            target = np.concatenate([[0.0], eigs[~near_one]])
            got = np.linalg.eigvals(center(s))
            cost = np.abs(got[:, None] - target[None, :])
            r, c = linear_sum_assignment(cost)
            assert cost[r, c].max() <= 1e-6
            checked += 1
        assert checked >= 25


def certified_problem(seed, n=40):
    spec = SimSpec(n=n, design=IndependentUniform(), noise_sd=0.2, seed=seed)
    data = generate(spec)
    rng = np.random.default_rng(seed + 1)
    kernel = ALL_KERNELS[seed % 4]
    bw_u = gap_passing_constant(data.u, rng)
    bw_v = gap_passing_constant(data.v, rng)
    return data, kernel, bw_u, bw_v


class TestCertify:
    def test_gaussian_always_gap_certified(self):
        spec = SimSpec(n=50, seed=58)
        data = generate(spec)
        bw = ConstantBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        cert = certify(pair, Kernel.GAUSSIAN, bw, bw, data)
        assert cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS
        assert cert.certified
        assert cert.regular_s1 and cert.regular_s2
        assert cert.spectral.top_eigenvalue_simple
        assert abs(cert.spectral.top_eigenvalue_s1) == pytest.approx(1.0, abs=1e-10)

    def test_huge_bandwidth_gives_zero_radius(self):
        spec = SimSpec(n=20, seed=59)
        data = generate(spec)
        bw = ConstantBandwidth(1e6)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        for method in ("dense", "power"):
            cert = certify(pair, Kernel.UNIFORM, bw, bw, data, method=method)
            assert cert.spectral.method == method
            assert cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS
            assert cert.spectral.rho_product <= 1e-14

    def test_spectral_route_when_gaps_fail(self):
        # u splits into two clusters at its bandwidth, but a huge v
        # bandwidth kills the centered product, so the computed radius
        # still certifies convergence
        rng = np.random.default_rng(60)
        u = np.concatenate([rng.uniform(0.0, 0.5, 6), rng.uniform(10.0, 10.5, 6)])
        v = rng.uniform(0.0, 1.0, 12)
        data = Dataset(y=rng.normal(size=12), u=u, v=v)
        bw_u = ConstantBandwidth(1.0)
        bw_v = ConstantBandwidth(1e6)
        pair = build_pair(data, Kernel.UNIFORM, bw_u, bw_v)
        cert = certify(pair, Kernel.UNIFORM, bw_u, bw_v, data)
        assert not cert.gap_u.condition_holds
        assert cert.gap_v.condition_holds
        assert cert.verdict is Verdict.CERTIFIED_BY_SPECTRAL_RADIUS
        assert cert.spectral.rho_product < 1e-8

    @pytest.mark.parametrize("method", ["dense", "power"])
    def test_two_cluster_not_certified(self, uniform_cluster_problem, method):
        # under "power" the note's condition estimate needs the product,
        # which is formed only on this path
        data, kernel, bw = uniform_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        cert = certify(pair, kernel, bw, bw, data, method=method)
        assert cert.spectral.method == method
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert not cert.certified
        assert not cert.regular_s1 and not cert.regular_s2
        assert cert.spectral.rho_s1_star == pytest.approx(1.0, abs=1e-6)
        assert cert.spectral.rho_product >= 1.0 - 1e-8
        assert "condition estimate" in cert.notes
        assert float(cert.notes.split(" is ")[1].split(";")[0]) > 1e12

    def test_verdict_invariants_sweep(self):
        for seed in range(12):
            data, kernel, bw_u, bw_v = certified_problem(seed)
            pair = build_pair(data, kernel, bw_u, bw_v)
            cert = certify(pair, kernel, bw_u, bw_v, data)
            if cert.verdict is not Verdict.NOT_CERTIFIED:
                assert cert.spectral.rho_product < 1.0 - 1e-8
            if cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS:
                assert cert.gap_u.condition_holds and cert.gap_v.condition_holds
            assert cert.spectral.perron_vector_check <= 1e-10

    def test_power_method_matches_dense(self):
        data, kernel, bw_u, bw_v = certified_problem(3)
        pair = build_pair(data, kernel, bw_u, bw_v)
        dense = certify(pair, kernel, bw_u, bw_v, data, method="dense")
        power = certify(pair, kernel, bw_u, bw_v, data, method="power")
        assert power.verdict is dense.verdict
        assert power.spectral.rho_product == pytest.approx(
            dense.spectral.rho_product, abs=1e-7
        )

    def test_certificate_serializes(self):
        data, kernel, bw_u, bw_v = certified_problem(4)
        pair = build_pair(data, kernel, bw_u, bw_v)
        cert = certify(pair, kernel, bw_u, bw_v, data)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        assert "verdict" in blob

    def test_unknown_method(self):
        data, kernel, bw_u, bw_v = certified_problem(5)
        pair = build_pair(data, kernel, bw_u, bw_v)
        with pytest.raises(ValueError):
            certify(pair, kernel, bw_u, bw_v, data, method="qr")


def assert_matches_oracle(cert, pair, tol):
    """A certificate's smoother fields, and the smoothers' own spectral
    runs, against the full-spectrum oracle.

    :func:`_smoother_extremes` must match the oracle on every smoother.
    The report computes a smoother's radius only when it is not regular;
    a regular one's is None and its top eigenvalue is simple by
    Perron-Frobenius, even where a second eigenvalue lies within 1e-8.
    """
    smoothers = ((pair.s1, cert.regular_s1, cert.spectral.rho_s1_star),
                 (pair.s2, cert.regular_s2, cert.spectral.rho_s2_star))
    for s, regular, rho_star in smoothers:
        want_top, want_simple, want_rho_star = smoother_extremes_oracle(s)
        top, simple, got_rho_star = _smoother_extremes(s)[:3]
        assert abs(top - want_top) <= tol
        assert simple == want_simple
        assert abs(got_rho_star - want_rho_star) <= tol
        if regular:
            assert rho_star is None
        else:
            assert abs(rho_star - want_rho_star) <= tol
    want_top, want_simple, _ = smoother_extremes_oracle(pair.s1)
    assert abs(cert.spectral.top_eigenvalue_s1 - want_top) <= tol
    assert cert.spectral.top_eigenvalue_simple == (cert.regular_s1 or want_simple)


class TestSpectralRoutes:
    def test_symmetric_route_matches_eigvals(self, monkeypatch):
        # at n = 40 the smoother budget is too small to try ARPACK, so a
        # reversible smoother takes one full eigvalsh spectrum
        calls = []

        def counting(*args, eigvalsh=spectral.eigvalsh, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigvalsh", counting)
        rng = np.random.default_rng(61)
        for kernel in ALL_KERNELS:
            x = rng.normal(size=40)
            for bw in (gap_passing_constant(x, rng), RateBandwidth(0.2)):
                s = build_smoother(x, kernel, bw)
                assert _symmetrized(s) is not None
                before = len(calls)
                top, simple, rho_star, applications, fallback = _smoother_extremes(s)
                assert len(calls) == before + 1
                assert (applications, fallback) == (0, None)
                want_top, want_simple, want_rho_star = smoother_extremes_oracle(s)
                assert abs(top - want_top) <= 1e-12
                assert simple == want_simple
                assert abs(rho_star - want_rho_star) <= 1e-12

    @pytest.mark.parametrize("method", ["dense", "power"])
    def test_centered_radii_match_centered_matrices(self, method):
        rng = np.random.default_rng(62)
        for trial, kernel in enumerate(ALL_KERNELS):
            data = generate(SimSpec(n=35, design=BivariateNormal(rho=0.5), seed=62 + trial))
            for bw_u, bw_v in (
                (gap_passing_constant(data.u, rng), gap_passing_constant(data.v, rng)),
                (RateBandwidth(0.2), RateBandwidth(0.2)),
            ):
                pair = build_pair(data, kernel, bw_u, bw_v)
                cert = certify(pair, kernel, bw_u, bw_v, data, method=method)
                for s, regular, rho_star in (
                    (pair.s1, cert.regular_s1, cert.spectral.rho_s1_star),
                    (pair.s2, cert.regular_s2, cert.spectral.rho_s2_star),
                ):
                    want = spectral_radius(center(s))
                    assert _smoother_extremes(s)[2] == pytest.approx(want, abs=1e-12)
                    if regular:
                        assert rho_star is None
                    else:
                        assert rho_star == pytest.approx(want, abs=1e-12)

    def test_asymmetry_holds_one_block(self):
        a = np.random.default_rng(68).random((1536, 1536))
        tracemalloc.start()
        try:
            got = _asymmetry(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 512 * 1536 * 8
        assert got == pytest.approx(np.linalg.norm(a - a.T), rel=1e-12)

    def test_knn_and_per_point_take_general_route(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=40)
        for kernel in ALL_KERNELS:
            for bw in (
                KNearestBandwidth(8),
                PerPointBandwidth(rng.uniform(1.0, 3.0, 40)),
            ):
                s = build_smoother(x, kernel, bw)
                assert _symmetrized(s) is None
                assert _smoother_extremes(s) == (*smoother_extremes_oracle(s), 0, None)

    @pytest.mark.parametrize("method", ["dense", "power"])
    def test_double_unit_eigenvalue_survives_centering(self, uniform_cluster_problem, method):
        # two closed classes: S keeps a second unit eigenvalue after the
        # constant vector's is deflated, so rho(S*) stays at 1
        data, kernel, bw = uniform_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        assert _symmetrized(pair.s1) is not None
        cert = certify(pair, kernel, bw, bw, data, method=method)
        assert not cert.spectral.top_eigenvalue_simple
        assert cert.spectral.rho_s1_star == pytest.approx(1.0, abs=1e-6)
        assert cert.spectral.rho_s2_star == pytest.approx(1.0, abs=1e-6)

    def test_one_nonsymmetric_solve_per_certificate(self, monkeypatch):
        # a regular pair needs no spectral work beyond the product, and
        # under "power" the product is never formed: the pair's
        # product-forming method raises once the dense run is done
        data = generate(SimSpec(n=60, design=BivariateNormal(rho=0.5), seed=64))
        bw = RateBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        calls = {"eigvals": 0, "eigs": 0, "components": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(spectral, "eigs", counting("eigs", spectral.eigs))
        monkeypatch.setattr(
            spectral,
            "connected_components",
            counting("components", spectral.connected_components),
        )
        dense = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="dense")
        assert calls == {"eigvals": 1, "eigs": 0, "components": 0}

        def unformed():
            raise AssertionError("the power route formed S2* S1*")

        monkeypatch.setattr(pair, "star_product", unformed)
        power = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="power")
        assert power.spectral.method == "power"
        assert power.certified
        assert power.spectral.iterations > 0
        assert calls == {"eigvals": 1, "eigs": 1, "components": 0}
        assert dense.regular_s1 and dense.regular_s2


class TestArpackRoute:
    @pytest.mark.parametrize(
        "error",
        [
            ArpackNoConvergence("no convergence", np.array([]), np.array([])),
            ArpackError(-9999),
        ],
        ids=["no-convergence", "arpack-error"],
    )
    def test_arpack_failure_falls_back_to_dense(self, monkeypatch, error):
        data, kernel, bw_u, bw_v = certified_problem(6)
        pair = build_pair(data, kernel, bw_u, bw_v)
        dense = certify(pair, kernel, bw_u, bw_v, data, method="dense")

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(spectral, "eigs", failing)
        power = certify(pair, kernel, bw_u, bw_v, data, method="power")
        assert power.spectral.method == "dense"
        assert power.spectral.iterations == 0
        assert power.spectral.fallback == f"{type(error).__name__}: {error}"
        assert dense.spectral.fallback is None
        assert power.spectral.rho_product == dense.spectral.rho_product
        assert power.verdict is dense.verdict

    def test_two_points_take_dense_route(self):
        data = Dataset(y=np.array([0.0, 1.0]), u=np.array([0.0, 1.0]), v=np.array([0.5, 0.2]))
        bw = ConstantBandwidth(0.8)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        power = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="power")
        dense = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="dense")
        assert power.spectral.method == "dense"
        assert power.spectral.fallback == "n < 3"
        assert power.to_dict()["spectral"]["fallback"] == "n < 3"
        assert power.spectral.rho_product == dense.spectral.rho_product
        assert power.verdict is dense.verdict

    def test_parity_sweep(self):
        # same verdict, radii within 1e-12, smoother fields as the
        # full-spectrum oracle, and a bit-identical rerun of the ARPACK route
        verdicts = set()
        near_critical = 0
        for i, _, pair, certify_pair in parity_replicates():
            dense = certify_pair("dense")
            power = certify_pair("power")
            again = certify_pair("power")
            assert power.spectral.method == "power", i
            assert power.verdict is dense.verdict, i
            assert abs(power.spectral.rho_product - dense.spectral.rho_product) <= 1e-12, i
            assert again.spectral == power.spectral, i
            assert power.spectral.smoother_iterations == (0, 0), i
            assert_matches_oracle(power, pair, 1e-12)
            verdicts.add(dense.verdict)
            near_critical += 0.99 <= dense.spectral.rho_product < 1.0 - 1e-8
        assert verdicts == set(Verdict)
        assert near_critical >= 10


def parity_replicates():
    """The parity sweep's 504 seeded replicates, n from 8 to 40.

    They run over four kernels and three bandwidth kinds (constant, rate,
    knn), with aligned clusters (not certified) and a design correlated
    at 0.999 (near-critical).  Yields the index, the bandwidth kind, the
    pair, and a function of the ``certify`` method that certifies it.
    """
    designs = [IndependentUniform(), BivariateNormal(rho=0.5), BivariateNormal(rho=0.999)]
    rng = np.random.default_rng(65)
    for i in range(504):
        kernel = ALL_KERNELS[i % 4]
        kind = ("constant", "rate", "knn")[(i // 4) % 3]
        n = int(rng.integers(8, 41))
        if kind == "constant" and i % 12 >= 9:
            data = two_cluster_dataset(
                rng, float(rng.uniform(0.2, 0.9)), n_a=n // 2, n_b=n - n // 2
            )
        else:
            data = generate(SimSpec(n=n, design=designs[(i // 12) % 3], seed=i))
        if kind == "constant":
            bw_u = ConstantBandwidth(max_gap(data.u) * float(rng.uniform(0.7, 2.5)))
            bw_v = ConstantBandwidth(max_gap(data.v) * float(rng.uniform(0.7, 2.5)))
        elif kind == "rate":
            bw_u = bw_v = RateBandwidth(float(rng.uniform(0.1, 0.9)))
        else:
            bw_u = bw_v = KNearestBandwidth(int(rng.integers(2, 6)))
        pair = build_pair(data, kernel, bw_u, bw_v)

        def certify_pair(method, pair=pair, kernel=kernel, bw_u=bw_u, bw_v=bw_v, data=data):
            return certify(pair, kernel, bw_u, bw_v, data, method=method)

        yield i, kind, pair, certify_pair


class TestSmootherArpackRoute:
    """Smoother extremes by ARPACK on x -> S x - mean(S x) from n = 410 on."""

    def test_parity_sweep(self, monkeypatch):
        # with an unbounded budget every smoother (n >= 8 here), knn and
        # per-point ones too, takes ARPACK: its output matches the
        # full-spectrum oracle, the verdicts of both certify methods agree,
        # reruns are bit-identical and both methods take the same route;
        # a certificate runs ARPACK on exactly its non-regular smoothers
        monkeypatch.setattr(spectral, "_smoother_budget", lambda n: 10**6)
        for i, _, pair, certify_pair in parity_replicates():
            power = certify_pair("power")
            again = certify_pair("power")
            dense = certify_pair("dense")
            assert again.spectral == power.spectral, i
            assert power.verdict is dense.verdict, i
            assert dataclasses.replace(
                dense.spectral, rho_product=0.0, method="", iterations=0
            ) == dataclasses.replace(power.spectral, rho_product=0.0, method="", iterations=0), i
            assert_matches_oracle(power, pair, 1e-12)
            assert power.spectral.smoother_fallback is None, i
            for s, regular, ran in zip(
                (pair.s1, pair.s2),
                (power.regular_s1, power.regular_s2),
                power.spectral.smoother_iterations,
            ):
                assert (ran == 0) == regular, i
                applications, fallback = _smoother_extremes(s)[3:]
                assert applications > 0 and fallback is None, i
        rng = np.random.default_rng(69)
        for trial in range(48):
            x = rng.normal(size=int(rng.integers(8, 41)))
            h = max_gap(x) * rng.uniform(0.7, 2.5, len(x))
            s = build_smoother(x, ALL_KERNELS[trial % 4], PerPointBandwidth(h))
            top, simple, rho_star, applications, fallback = _smoother_extremes(s)
            assert _smoother_extremes(s) == (top, simple, rho_star, applications, fallback)
            assert applications > 0 and fallback is None, trial
            want_top, want_simple, want_rho_star = smoother_extremes_oracle(s)
            assert abs(top - want_top) <= 1e-12, trial
            assert simple == want_simple, trial
            assert abs(rho_star - want_rho_star) <= 1e-12, trial

    def test_large_smoother_never_takes_eigvalsh(self, monkeypatch):
        data = generate(SimSpec(n=800, design=BivariateNormal(rho=0.5), seed=66))
        bw = RateBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)

        def unused(*args, **kwargs):
            raise AssertionError("eigvalsh ran on an n = 800 Gaussian smoother")

        monkeypatch.setattr(spectral, "eigvalsh", unused)
        cert = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="power")
        assert certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="power").spectral == cert.spectral
        # both smoothers are regular, so the certificate runs neither
        assert cert.regular_s1 and cert.regular_s2
        assert cert.spectral.smoother_fallback is None
        assert cert.spectral.smoother_iterations == (0, 0)
        assert cert.spectral.top_eigenvalue_simple
        as_json = cert.to_dict()["spectral"]
        assert as_json["smoother_iterations"] == [0, 0]
        assert as_json["rho_s1_star"] is None and as_json["rho_s2_star"] is None
        for s in (pair.s1, pair.s2):
            top, simple, rho_star, applications, fallback = _smoother_extremes(s)
            assert _smoother_extremes(s) == (top, simple, rho_star, applications, fallback)
            assert fallback is None
            assert 0 < applications <= 800 // 10
            assert simple

    def test_arpack_failure_falls_back_to_eigvalsh(
        self, monkeypatch, uniform_cluster_problem
    ):
        # the dense product route keeps ARPACK out of the product, so only
        # the smoother runs meet the failing eigs: run directly on the
        # regular smoothers of a certified problem, and by the certificate
        # on the non-regular ones of the two-cluster problem
        data, kernel, bw_u, bw_v = certified_problem(7)
        pair = build_pair(data, kernel, bw_u, bw_v)
        full = certify(pair, kernel, bw_u, bw_v, data, method="dense")
        full_spectra = [_smoother_extremes(s) for s in (pair.s1, pair.s2)]
        cluster_data, cluster_kernel, bw = uniform_cluster_problem
        cluster_pair = build_pair(cluster_data, cluster_kernel, bw, bw)
        cluster_full = certify(cluster_pair, cluster_kernel, bw, bw, cluster_data, method="dense")
        error = ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(spectral, "_smoother_budget", lambda n: 10**6)
        monkeypatch.setattr(spectral, "eigs", failing)
        reason = f"ArpackNoConvergence: {error}"
        for s, want in zip((pair.s1, pair.s2), full_spectra):
            assert want[3:] == (0, None)
            assert _smoother_extremes(s) == (*want[:3], 0, reason)
        cert = certify(pair, kernel, bw_u, bw_v, data, method="dense")
        assert cert.regular_s1 and cert.regular_s2
        assert cert.spectral == full.spectral
        assert cert.verdict is full.verdict

        cluster = certify(cluster_pair, cluster_kernel, bw, bw, cluster_data, method="dense")
        assert not cluster.regular_s1 and not cluster.regular_s2
        assert cluster.spectral.smoother_fallback == f"s1: {reason}; s2: {reason}"
        assert cluster.spectral.smoother_iterations == (0, 0)
        assert cluster_full.spectral.smoother_fallback is None
        assert cluster.spectral == dataclasses.replace(
            cluster_full.spectral, smoother_fallback=cluster.spectral.smoother_fallback
        )
        assert cluster.verdict is cluster_full.verdict

    def test_spent_budget_falls_back_to_eigvalsh(self):
        # at n = 410 the budget is 41 applications; the clustered spectrum
        # of a uniform kernel at h = 0.02 (rho(S*) = 0.9997) needs 141, and
        # the CSR smoother is made dense for eigvalsh
        x = np.random.default_rng(67).uniform(size=410)
        s = build_smoother(x, Kernel.UNIFORM, ConstantBandwidth(0.02))
        assert issparse(s)
        top, simple, rho_star, applications, fallback = _smoother_extremes(s)
        assert applications == 0
        assert fallback == (
            "ArpackNoConvergence: ARPACK error -1: "
            "ARPACK budget of 41 operator applications used up"
        )
        want_top, want_simple, want_rho_star = smoother_extremes_oracle(s)
        assert abs(top - want_top) <= 1e-12
        assert simple == want_simple
        assert abs(rho_star - want_rho_star) <= 1e-12

    @pytest.mark.parametrize("n", [400, 409])
    def test_budget_of_forty_skips_arpack(self, monkeypatch, n):
        # below n = 410 the budget n // 10 is at most 40 applications, and
        # the full spectrum is taken without calling ARPACK
        def unused(*args, **kwargs):
            raise AssertionError(f"eigs ran with a budget of {n // 10}")

        monkeypatch.setattr(spectral, "eigs", unused)
        x = np.random.default_rng(67).uniform(size=n)
        s = build_smoother(x, Kernel.GAUSSIAN, RateBandwidth(0.2))
        top, simple, rho_star, applications, fallback = _smoother_extremes(s)
        assert (applications, fallback) == (0, None)
        want_top, want_simple, want_rho_star = smoother_extremes_oracle(s)
        assert abs(top - want_top) <= 1e-12
        assert simple == want_simple
        assert abs(rho_star - want_rho_star) <= 1e-12

    def test_csr_smoothers_stay_sparse(self, monkeypatch):
        # n = 2000, uniform kernel at h = 0.03: CSR smoothers whose runs
        # converge within their budget of 200 (81 applications for S1),
        # and a certified power-route certificate, neither of which makes
        # them dense
        data = generate(SimSpec(n=2000, design=IndependentUniform(), seed=70))
        bw = ConstantBandwidth(0.03)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        assert issparse(pair.s1) and issparse(pair.s2)

        def refused(s):
            raise AssertionError("a CSR smoother was made dense")

        monkeypatch.setattr(spectral, "as_dense", refused)
        monkeypatch.setattr(smoothers, "as_dense", refused)
        cert = certify(pair, Kernel.UNIFORM, bw, bw, data, method="power")
        assert cert.certified
        assert cert.spectral.method == "power"
        assert cert.spectral.smoother_fallback is None
        assert cert.spectral.smoother_iterations == (0, 0)
        for s in (pair.s1, pair.s2):
            applications, fallback = _smoother_extremes(s)[3:]
            assert 0 < applications <= 200 and fallback is None
        monkeypatch.undo()
        assert_matches_oracle(cert, pair, 1e-12)

    def test_knn_certificate_stays_sparse(self, monkeypatch):
        # the smooth-knn design: n = 4000 uniform points, Epanechnikov at
        # knn:30, CSR smoothers whose clustered spectra would spend any
        # budget; both are regular, so the certificate computes neither
        # spectrum and never makes them dense
        rng = np.random.default_rng(71)
        n = 4000
        data = Dataset(y=rng.normal(size=n), u=rng.uniform(size=n), v=rng.uniform(size=n))
        bw = KNearestBandwidth(30)
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        assert issparse(pair.s1) and issparse(pair.s2)

        def refused(s):
            raise AssertionError("a CSR smoother was made dense")

        monkeypatch.setattr(spectral, "as_dense", refused)
        monkeypatch.setattr(smoothers, "as_dense", refused)
        cert = certify(pair, Kernel.EPANECHNIKOV, bw, bw, data, method="power")
        assert cert.certified
        assert cert.regular_s1 and cert.regular_s2
        assert cert.spectral.method == "power"
        assert cert.spectral.smoother_fallback is None
        assert cert.spectral.smoother_iterations == (0, 0)


def failing_first_attempt(monkeypatch, spent):
    """Patch ``eigs`` so that a k = 1 run applies the operator ``spent``
    times and then raises ``ArpackNoConvergence``; later runs are real.

    Returns the k of every run, and the k of every successful operator
    application.
    """
    runs, applied = [], []

    def patched(a, k, eigs=spectral.eigs, **kwargs):
        runs.append(k)

        def matvec(x):
            y = a.matvec(x)
            applied.append(k)
            return y

        operator = LinearOperator(a.shape, matvec=matvec, dtype=float)
        if k == 1:
            for _ in range(spent):
                operator.matvec(np.ones(a.shape[0]))
            raise ArpackNoConvergence("k = 1 did not converge", np.array([]), np.array([]))
        return eigs(operator, k=k, **kwargs)

    monkeypatch.setattr(spectral, "eigs", patched)
    return runs, applied


class TestArpackRetry:
    """A k = 1 ARPACK run that does not converge is retried at k = 6."""

    def test_product_radius_comes_from_the_retry(self, monkeypatch):
        data, kernel, bw_u, bw_v = certified_problem(8)
        pair = build_pair(data, kernel, bw_u, bw_v)
        runs, applied = failing_first_attempt(monkeypatch, spent=0)
        cert = certify(pair, kernel, bw_u, bw_v, data, method="power")
        assert cert.spectral.method == "power"
        assert cert.spectral.fallback is None
        assert runs == [1, 6] and set(applied) == {6}
        assert cert.spectral.iterations == len(applied)
        want = spectral_radius(pair.star_product())
        assert abs(cert.spectral.rho_product - want) <= 1e-12

    def test_both_attempts_share_the_smoother_budget(self, monkeypatch):
        # n = 410, budget 41: the k = 1 run spends 30, so the retry stops
        # after 11 more on a smoother that needs far more, and the
        # smoother falls back to its full spectrum
        x = np.random.default_rng(67).uniform(size=410)
        s = build_smoother(x, Kernel.UNIFORM, ConstantBandwidth(0.02))
        runs, applied = failing_first_attempt(monkeypatch, spent=30)
        top, simple, rho_star, applications, fallback = _smoother_extremes(s)
        assert runs == [1, 6]
        assert (applied.count(1), applied.count(6)) == (30, 11)
        assert applications == 0
        assert fallback == (
            "ArpackNoConvergence: ARPACK error -1: "
            "ARPACK budget of 41 operator applications used up"
        )
        want_top, want_simple, want_rho_star = smoother_extremes_oracle(s)
        assert abs(top - want_top) <= 1e-12
        assert simple == want_simple
        assert abs(rho_star - want_rho_star) <= 1e-12

    def test_applications_count_both_attempts(self, monkeypatch):
        # a retry that converges reports the applications of both runs
        data = generate(SimSpec(n=800, design=BivariateNormal(rho=0.5), seed=66))
        s = build_smoother(data.u, Kernel.GAUSSIAN, RateBandwidth(0.2))
        monkeypatch.setattr(spectral, "_smoother_budget", lambda n: 10**6)
        runs, applied = failing_first_attempt(monkeypatch, spent=10)
        top, simple, rho_star, applications, fallback = _smoother_extremes(s)
        assert fallback is None and runs == [1, 6]
        assert applied.count(1) == 10 and applied.count(6) > 0
        assert applications == len(applied)
        assert abs(rho_star - spectral_radius(center(s))) <= 1e-12
