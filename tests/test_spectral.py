"""Gap conditions, chain regularity, spectral radii, certification."""

import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from nwbackfit import spectral
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
    PowerIterationNonConvergence,
    Verdict,
    certify,
    check_gap_conditions,
    check_regularity,
    spectral_radius,
)
from nwbackfit.spectral import _smoother_spectrum, _symmetrized

from conftest import ALL_KERNELS, gap_passing_constant, two_cluster_dataset


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
    b = s > 0.0
    p = np.eye(len(s), dtype=bool)
    for _ in range(len(s) ** 2):
        p = p @ b
        if p.all():
            return True
    return False


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
        rng = np.random.default_rng(53)
        for trial in range(150):
            n = int(rng.integers(2, 13))
            m = random_stochastic(rng, n, trial % 5)
            assert check_regularity(m) == brute_force_regular(m)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            check_regularity(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            check_regularity(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            check_regularity(np.zeros((2, 3)))


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0
        assert spectral_radius(np.zeros((4, 4)), method="power") == 0.0

    def test_stochastic_has_radius_one(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = random_stochastic(rng, n, 0)
            assert abs(spectral_radius(m) - 1.0) <= 1e-10

    def test_hand_two_by_two(self):
        m = np.array([[0.2, -0.2], [-0.2, 0.2]])
        assert spectral_radius(m) == pytest.approx(0.4, abs=1e-12)
        assert spectral_radius(m, method="power") == pytest.approx(0.4, abs=1e-8)

    def test_power_handles_complex_pair(self):
        rot = 0.9 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_radius(rot, method="power") == pytest.approx(0.9, abs=1e-8)

    def test_power_agrees_with_dense(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 25))
            m = rng.normal(size=(n, n))
            m *= float(rng.uniform(0.1, 1.5)) / max(np.abs(np.linalg.eigvals(m)).max(), 1e-12)
            assert spectral_radius(m, method="power") == pytest.approx(
                spectral_radius(m, method="dense"), abs=1e-7
            )

    def test_power_reports_non_convergence(self):
        # a clustered spectrum needs more than one ARPACK restart
        m = np.diag(np.linspace(0.9, 1.0, 60))
        with pytest.raises(PowerIterationNonConvergence) as exc:
            spectral_radius(m, method="power", max_iter=1)
        assert isinstance(exc.value.__cause__, ArpackNoConvergence)
        assert spectral_radius(m, method="power") == pytest.approx(1.0, abs=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            spectral_radius(np.eye(2), method="qr")

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


def matched_distance(got, want):
    """Largest distance between two spectra under optimal matching."""
    cost = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].max()


class TestSpectralRoutes:
    def test_symmetric_route_matches_eigvals(self):
        rng = np.random.default_rng(61)
        for kernel in ALL_KERNELS:
            x = rng.normal(size=40)
            for bw in (gap_passing_constant(x, rng), RateBandwidth(0.2)):
                s = build_smoother(x, kernel, bw)
                assert _symmetrized(s) is not None
                eigs = _smoother_spectrum(s)
                assert eigs.dtype == float
                assert matched_distance(eigs, np.linalg.eigvals(s)) <= 1e-12

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
                assert cert.spectral.rho_s1_star == pytest.approx(
                    spectral_radius(center(pair.s1)), abs=1e-12
                )
                assert cert.spectral.rho_s2_star == pytest.approx(
                    spectral_radius(center(pair.s2)), abs=1e-12
                )

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
                assert np.array_equal(_smoother_spectrum(s), np.linalg.eigvals(s))

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
        # a reversible pair needs no nonsymmetric work beyond the product
        # (this fails if the route test stops admitting ordinary
        # smoothers), and under "power" the product is never formed: the
        # pair handed to the power route has no centered matrices
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
        bare = dataclasses.replace(pair, s1_star=None, s2_star=None)
        power = certify(bare, Kernel.GAUSSIAN, bw, bw, data, method="power")
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
        assert power.spectral.rho_product == dense.spectral.rho_product
        assert power.verdict is dense.verdict

    def test_two_points_take_dense_route(self):
        data = Dataset(y=np.array([0.0, 1.0]), u=np.array([0.0, 1.0]), v=np.array([0.5, 0.2]))
        bw = ConstantBandwidth(0.8)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        power = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="power")
        dense = certify(pair, Kernel.GAUSSIAN, bw, bw, data, method="dense")
        assert power.spectral.method == "dense"
        assert power.spectral.rho_product == dense.spectral.rho_product
        assert power.verdict is dense.verdict

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_parity_sweep(self):
        # seeded replicates over four kernels and three bandwidth kinds,
        # with aligned clusters (not certified) and a design correlated at
        # 0.999 (near-critical): same verdict, radii within 1e-12, and a
        # bit-identical rerun of the ARPACK route
        designs = [IndependentUniform(), BivariateNormal(rho=0.5), BivariateNormal(rho=0.999)]
        rng = np.random.default_rng(65)
        verdicts = set()
        near_critical = 0
        for i in range(504):
            kernel = ALL_KERNELS[i % 4]
            kind = (i // 4) % 3
            n = int(rng.integers(8, 41))
            if kind == 0 and i % 12 >= 9:
                data = two_cluster_dataset(
                    rng, float(rng.uniform(0.2, 0.9)), n_a=n // 2, n_b=n - n // 2
                )
            else:
                data = generate(SimSpec(n=n, design=designs[(i // 12) % 3], seed=i))
            if kind == 0:
                bw_u = ConstantBandwidth(max_gap(data.u) * float(rng.uniform(0.7, 2.5)))
                bw_v = ConstantBandwidth(max_gap(data.v) * float(rng.uniform(0.7, 2.5)))
            elif kind == 1:
                bw_u = bw_v = RateBandwidth(float(rng.uniform(0.1, 0.9)))
            else:
                bw_u = bw_v = KNearestBandwidth(int(rng.integers(2, 6)))
            pair = build_pair(data, kernel, bw_u, bw_v)
            dense = certify(pair, kernel, bw_u, bw_v, data, method="dense")
            power = certify(pair, kernel, bw_u, bw_v, data, method="power")
            again = certify(pair, kernel, bw_u, bw_v, data, method="power")
            assert power.spectral.method == "power", i
            assert power.verdict is dense.verdict, i
            assert abs(power.spectral.rho_product - dense.spectral.rho_product) <= 1e-12, i
            assert again.spectral == power.spectral, i
            verdicts.add(dense.verdict)
            near_critical += 0.99 <= dense.spectral.rho_product < 1.0 - 1e-8
        assert verdicts == set(Verdict)
        assert near_critical >= 10
