"""Gap conditions, chain regularity, spectral radii, certification."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array, csc_array, csr_array, issparse
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
from nwbackfit.fitting import backfit_direct, backfit_iterative
from nwbackfit.smoothers import (
    Dataset,
    PackedPair,
    SmootherPair,
    WindowPair,
    as_dense,
    build_pair,
    build_smoother,
    center,
)
from nwbackfit.spectral import (
    Verdict,
    certify,
    check_gap_conditions,
    check_regularity,
    spectral_radius,
)
from nwbackfit.spectral import _closed_classes, _product_radius

from conftest import (
    ALL_KERNELS,
    assert_certify_matches_oracle,
    certify_oracle,
    brute_force_regular,
    closed_class_count,
    gap_passing_constant,
    note_bound,
    random_stochastic,
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
        assert a == b

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            check_gap_conditions(np.array([1.0]), Kernel.GAUSSIAN, ConstantBandwidth(1.0))

    def test_report_serializes(self):
        rep = check_gap_conditions(np.array([0.0, 1.0]), Kernel.GAUSSIAN, ConstantBandwidth(1.0))
        json.dumps(rep.to_dict())

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, kernel, value):
        # a NaN coordinate would pass every gap comparison and report
        # max_gap nan, which no JSON report can hold
        x = np.array([0.0, value, 0.5, 1.0])
        with pytest.raises(ValueError, match="u contains non-finite values"):
            check_gap_conditions(x, kernel, ConstantBandwidth(0.3), coordinate="u")


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
        # dense, and the same matrices in each sparse format
        for to_matrix in (np.array, csr_array, csc_array, coo_array):
            with pytest.raises(ValueError):
                check_regularity(to_matrix(np.array([[0.5, 0.4], [0.5, 0.5]])))
            with pytest.raises(ValueError):
                check_regularity(to_matrix(np.array([[1.5, -0.5], [0.0, 1.0]])))
            with pytest.raises(ValueError):
                check_regularity(to_matrix(np.zeros((2, 3))))

    def test_rejects_nan(self):
        # NaN passes every comparison of the stochastic checks unless
        # tested for; here it sits in a row that sums to NaN
        for to_matrix in (np.array, csr_array, csc_array, coo_array):
            with pytest.raises(ValueError, match="NaN"):
                check_regularity(to_matrix(np.array([[0.5, 0.5], [np.nan, 0.5]])))

    def test_rejects_an_order_that_is_not_integer(self):
        # a float order equal to a permutation cannot index the read, and
        # a bool one would mask it rather than index
        with pytest.raises(ValueError, match="permutation"):
            check_regularity(np.full((3, 3), 1.0 / 3.0), order=np.arange(3.0))
        with pytest.raises(ValueError, match="permutation"):
            check_regularity(np.full((2, 2), 0.5), order=np.array([True, False]))

    def test_leaves_a_non_canonical_csr_input_as_it_was(self):
        # duplicate and unsorted entries are put in canonical form on a
        # copy; the caller's arrays keep their layout
        s = csr_array(([0.25, 0.0, 0.25, 0.5, 1.0], [1, 0, 1, 0, 1], [0, 4, 5]), shape=(2, 2))
        before = [a.copy() for a in (s.data, s.indices, s.indptr)]
        assert check_regularity(s) is False
        for got, want in zip((s.data, s.indices, s.indptr), before):
            assert np.array_equal(got, want)


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
            lam, _, fallback = _product_radius(pair)
            assert fallback == (None if n >= 3 else "n < 3")
            assert abs(lam) == pytest.approx(spectral_radius(m), abs=1e-7)

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


@pytest.fixture(params=["dense", "power"])
def route(request, monkeypatch):
    """The route ``certify`` takes to rho(S2* S1*): "power" is ARPACK on
    the unformed product, and "dense" makes ARPACK fail, so that the
    fallback, eigvals of the formed product, answers."""
    if request.param == "dense":

        def failing(*args, **kwargs):
            raise ArpackError(-9999)

        monkeypatch.setattr(spectral, "eigs", failing)
    return request.param


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
        assert cert.spectral.closed_classes == 1

    def test_huge_bandwidth_gives_zero_radius(self):
        spec = SimSpec(n=20, seed=59)
        data = generate(spec)
        bw = ConstantBandwidth(1e6)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        cert = certify(pair, Kernel.UNIFORM, bw, bw, data)
        assert cert.spectral.method == "power"
        assert cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS
        assert cert.spectral.rho_product <= 1e-14
        assert_certify_matches_oracle(cert, pair, Kernel.UNIFORM, bw, bw, data)

    @pytest.mark.parametrize("n, zero_starts", [(20, 1), (5, 2)])
    def test_zero_product_on_a_start_vector(self, monkeypatch, n, zero_starts):
        # every raw weight is K(0) (|t| <= 1e-9, so 1 - t^2 rounds to 1),
        # so S2* S1* is zero, and the rounding of the packed pair's
        # products may send ARPACK's seeded start vector to exact zeros
        # (ARPACK's error -9).  The run restarts from a second seeded
        # vector; when that too goes to zeros the radius is 0.  Neither
        # forms S2* S1*
        data = generate(SimSpec(n=n, seed=59))
        bw = ConstantBandwidth(1e9)
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        assert isinstance(pair, PackedPair)
        starts = [np.random.default_rng(seed).standard_normal(n) for seed in (0, 1)]
        zeros = [not pair.apply_s2_star(pair.apply_s1_star(v0)).any() for v0 in starts]
        assert zeros == [True, zero_starts == 2]
        assert spectral_radius(pair.star_product()) <= 1e-14

        def unformed(*args):
            raise AssertionError("S2* S1* formed")

        monkeypatch.setattr(type(pair), "star_product", unformed)
        cert = certify(pair, Kernel.EPANECHNIKOV, bw, bw, data)
        assert cert.spectral.method == "power" and cert.spectral.fallback is None
        assert cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS
        if zero_starts == 2:
            assert cert.spectral.rho_product == 0.0 and cert.spectral.iterations == 2
        else:
            assert cert.spectral.rho_product <= 1e-14 and cert.spectral.iterations > 2

    def test_zero_window_product(self, monkeypatch):
        # every uniform-kernel window holds all n points, so each smoother
        # sends a vector to its mean, and both seeded starts go to exact
        # zeros: the radius is 0 after two applications, unformed
        data = generate(SimSpec(n=20, seed=59))
        bw = ConstantBandwidth(1e6)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        assert isinstance(pair, WindowPair)

        def unformed(*args):
            raise AssertionError("S2* S1* formed")

        monkeypatch.setattr(WindowPair, "star_product", unformed)
        cert = certify(pair, Kernel.UNIFORM, bw, bw, data)
        assert cert.spectral.fallback is None
        assert cert.spectral.rho_product == 0.0 and cert.spectral.iterations == 2
        assert cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS

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

    def test_two_cluster_not_certified(self, uniform_cluster_problem, route):
        # the union of the two graphs has two closed classes, which makes
        # rho(S2* S1*) = 1 exactly before either route runs: ARPACK, which
        # the dense route makes fail, is not asked, and the note's bound
        # is infinite
        data, kernel, bw = uniform_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        cert = certify(pair, kernel, bw, bw, data)
        assert cert.spectral.fallback is None and cert.spectral.iterations == 0
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert not cert.certified
        assert not cert.regular_s1 and not cert.regular_s2
        assert cert.spectral.closed_classes == 2
        assert cert.spectral.rho_product == 1.0
        assert note_bound(cert.notes) == float("inf")

    def test_graph_built_once_per_non_regular_smoother(self, uniform_cluster_problem, monkeypatch):
        # each non-regular smoother's graph is built once, by its
        # regularity check, and the union of the two once more, for c
        data, kernel, bw = uniform_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        built = []

        def counting(s, closed_classes=spectral._closed_classes):
            built.append(s)
            return closed_classes(s)

        monkeypatch.setattr(spectral, "_closed_classes", counting)
        cert = certify(pair, kernel, bw, bw, data)
        assert not cert.regular_s1 and not cert.regular_s2
        assert cert.spectral.closed_classes == 2
        assert len(built) == 3
        assert built[0] is pair.s1 and built[1] is pair.s2
        union = (as_dense(pair.s1) > 0.0) | (as_dense(pair.s2) > 0.0)
        assert np.array_equal(built[2].toarray(), union)

    def test_verdict_invariants_sweep(self):
        for seed in range(12):
            data, kernel, bw_u, bw_v = certified_problem(seed)
            pair = build_pair(data, kernel, bw_u, bw_v)
            cert = certify(pair, kernel, bw_u, bw_v, data)
            if cert.verdict is not Verdict.NOT_CERTIFIED:
                assert cert.spectral.rho_product < 1.0 - 1e-8
            if cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS:
                assert cert.gap_u.condition_holds and cert.gap_v.condition_holds

    def test_power_method_matches_dense(self):
        data, kernel, bw_u, bw_v = certified_problem(3)
        pair = build_pair(data, kernel, bw_u, bw_v)
        cert = certify(pair, kernel, bw_u, bw_v, data)
        assert cert.spectral.method == "power"
        assert_certify_matches_oracle(cert, pair, kernel, bw_u, bw_v, data, tol=1e-7)

    def test_certificate_serializes(self):
        data, kernel, bw_u, bw_v = certified_problem(4)
        pair = build_pair(data, kernel, bw_u, bw_v)
        cert = certify(pair, kernel, bw_u, bw_v, data)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        assert "verdict" in blob

    def test_unknown_method(self):
        # "power" is the one route; the dense one is spectral_radius of the
        # formed product, which the message names
        data, kernel, bw_u, bw_v = certified_problem(5)
        pair = build_pair(data, kernel, bw_u, bw_v)
        for method in ("dense", "qr"):
            with pytest.raises(ValueError, match=r"spectral_radius\(pair\.star_product\(\)\)"):
                certify(pair, kernel, bw_u, bw_v, data, method=method)
        with pytest.raises(TypeError):
            certify(pair, kernel, bw_u, bw_v, data, "power")

    @pytest.mark.parametrize("n_data", [12, 8])
    def test_dataset_of_another_size(self, n_data, monkeypatch):
        # a dataset whose size is not the pair's is refused before any
        # check runs, naming both sizes
        bw = RateBandwidth(0.3)
        pair = build_pair(generate(SimSpec(n=10, seed=61)), Kernel.GAUSSIAN, bw, bw)
        data = generate(SimSpec(n=n_data, seed=61))

        def unused(*args, **kwargs):
            raise AssertionError("a check ran on a mismatched dataset")

        monkeypatch.setattr(spectral, "check_gap_conditions", unused)
        with pytest.raises(ValueError, match=f"^pair has n=10 but dataset has n={n_data}$"):
            certify(pair, Kernel.GAUSSIAN, bw, bw, data)

    def test_s2_of_another_size(self, monkeypatch):
        # a hand-built pair whose S2 does not match the dataset is refused
        # before any read, naming S2, rather than failing in the read of
        # its order
        data = Dataset(y=np.zeros(3), u=np.arange(3.0), v=np.arange(3.0))
        pair = SmootherPair(np.full((3, 3), 1.0 / 3.0), np.full((4, 4), 0.25))

        def unused(*args, **kwargs):
            raise AssertionError("a check ran on a mismatched pair")

        monkeypatch.setattr(spectral, "check_gap_conditions", unused)
        monkeypatch.setattr(spectral, "check_regularity", unused)
        bw = ConstantBandwidth(1.0)
        with pytest.raises(ValueError, match=r"^pair's S2 has shape \(4, 4\) but dataset has n=3$"):
            certify(pair, Kernel.UNIFORM, bw, bw, data)


def assert_matches_oracle(cert, pair):
    """A certificate's ``closed_classes`` against the product's graph.

    c is the number of closed classes of the union of the two positivity
    graphs, which for smoothers with positive diagonals equals that of
    the boolean pattern of S2 S1 (the block product the pair's storage
    answers).  A regular smoother makes c = 1, and c >= 2 gives
    rho_product = 1.0 exactly, with no operator application.
    """
    c = cert.spectral.closed_classes
    assert c == len(_closed_classes(pair.s2 @ pair.s1)[1])
    if cert.regular_s1 or cert.regular_s2:
        assert c == 1
    if c > 1:
        assert cert.spectral.rho_product == 1.0 and cert.spectral.iterations == 0
        assert cert.verdict is Verdict.NOT_CERTIFIED


class TestSpectralRoutes:
    def test_centered_radii_match_centered_matrices(self, route):
        # regular pairs, c = 1, so the product's radius comes from the
        # route under test; a regular smoother's dense rho(S*) is below 1
        rng = np.random.default_rng(62)
        for trial, kernel in enumerate(ALL_KERNELS):
            data = generate(SimSpec(n=35, design=BivariateNormal(rho=0.5), seed=62 + trial))
            for bw_u, bw_v in (
                (gap_passing_constant(data.u, rng), gap_passing_constant(data.v, rng)),
                (RateBandwidth(0.2), RateBandwidth(0.2)),
            ):
                pair = build_pair(data, kernel, bw_u, bw_v)
                cert = certify(pair, kernel, bw_u, bw_v, data)
                assert cert.spectral.method == route
                assert cert.spectral.closed_classes == 1
                assert_certify_matches_oracle(cert, pair, kernel, bw_u, bw_v, data)
                assert_matches_oracle(cert, pair)
                for s, regular in ((pair.s1, cert.regular_s1), (pair.s2, cert.regular_s2)):
                    if regular:
                        assert spectral_radius(center(s)) < 1.0 + 1e-12

    def test_knn_and_per_point_take_general_route(self):
        # the graph route, which needs no symmetry of the smoother: the
        # regularity check against the brute-force one, and the pair's c
        # against its product's graph
        rng = np.random.default_rng(63)
        u, v = rng.normal(size=40), rng.normal(size=40)
        data = Dataset(y=rng.normal(size=40), u=u, v=v)
        for kernel in ALL_KERNELS:
            for bw in (
                KNearestBandwidth(8),
                PerPointBandwidth(rng.uniform(0.05, 3.0, 40)),
            ):
                pair = SmootherPair(build_smoother(u, kernel, bw), build_smoother(v, kernel, bw))
                for s in (pair.s1, pair.s2):
                    assert check_regularity(s) == brute_force_regular(s)
                cert = certify(pair, kernel, bw, bw, data)
                assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)
                assert_matches_oracle(cert, pair)

    def test_double_unit_eigenvalue_survives_centering(self, uniform_cluster_problem, route):
        # two closed classes of the union graph: S2 S1 has a double unit
        # eigenvalue, and centering deflates one copy only, so
        # rho(S2* S1*) = 1; the graph proves it without either route, and
        # the dense spectrum shows the one unit eigenvalue left
        data, kernel, bw = uniform_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        cert = certify(pair, kernel, bw, bw, data)
        assert cert.spectral.fallback is None and cert.spectral.iterations == 0
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)
        assert cert.spectral.closed_classes == 2
        vals = np.linalg.eigvals(pair.star_product())
        assert np.sum(np.abs(vals - 1.0) <= 1e-6) == 1
        assert_matches_oracle(cert, pair)

    def test_one_nonsymmetric_solve_per_certificate(self, monkeypatch):
        # a regular pair needs no spectral work beyond the product's one
        # ARPACK run: no eigvals, and no strong components
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
        cert = certify(pair, Kernel.GAUSSIAN, bw, bw, data)
        assert calls == {"eigvals": 0, "eigs": 1, "components": 0}
        assert cert.certified and cert.regular_s1 and cert.regular_s2

    @pytest.mark.parametrize(
        "n, design, kernel, bw, layout",
        [
            (200, BivariateNormal(rho=0.5), Kernel.GAUSSIAN, RateBandwidth(0.2), PackedPair),
            (410, IndependentUniform(), Kernel.EPANECHNIKOV, ConstantBandwidth(0.02), SmootherPair),
            (410, IndependentUniform(), Kernel.UNIFORM, ConstantBandwidth(0.02), WindowPair),
        ],
        ids=["dense-n200", "csr-n410", "window-n410"],
    )
    def test_default_route_never_forms_the_product(
        self, monkeypatch, n, design, kernel, bw, layout
    ):
        # with no method given, a certificate whose ARPACK run converges
        # neither forms S2* S1* nor takes any dense eigenvalues
        data = generate(SimSpec(n=n, design=design, seed=72))
        pair = build_pair(data, kernel, bw, bw)
        assert type(pair) is layout
        assert issparse(pair.s1) == (layout is SmootherPair)

        def refused(*args, **kwargs):
            raise AssertionError("the certificate formed S2* S1* or ran eigvals")

        monkeypatch.setattr(layout, "star_product", refused)
        monkeypatch.setattr(np.linalg, "eigvals", refused)
        cert = certify(pair, kernel, bw, bw, data)
        assert cert.spectral.method == "power"
        assert cert.spectral.fallback is None
        assert cert.spectral.iterations > 0
        monkeypatch.undo()
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)


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

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(spectral, "eigs", failing)
        cert = certify(pair, kernel, bw_u, bw_v, data)
        assert cert.spectral.method == "dense"
        assert cert.spectral.iterations == 0
        assert cert.spectral.fallback == f"{type(error).__name__}: {error}"
        # the fallback is the oracle's eigvals of the same formed product
        assert_certify_matches_oracle(cert, pair, kernel, bw_u, bw_v, data, tol=0.0)

    def test_two_points_take_dense_route(self):
        # the Gaussian pair of two points is regular, c = 1, and its
        # radius comes from eigvals, since ARPACK needs n >= 3.  With the
        # uniform kernel each point lies outside the other's bandwidth, so
        # S1 = S2 = I: two closed classes, read from the graph, give
        # rho(S2* S1*) = 1 exactly, and no eigensolver runs
        data = Dataset(y=np.array([0.0, 1.0]), u=np.array([0.0, 1.0]), v=np.array([0.5, 0.2]))
        for kernel, h in ((Kernel.GAUSSIAN, 0.8), (Kernel.UNIFORM, 0.2)):
            bw = ConstantBandwidth(h)
            pair = build_pair(data, kernel, bw, bw)
            cert = certify(pair, kernel, bw, bw, data)
            assert "method" not in cert.to_dict()["spectral"]
            assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data, tol=0.0)
            assert "smoother_fallback" not in cert.to_dict()["spectral"]
            if kernel is Kernel.UNIFORM:
                assert not cert.regular_s1 and not cert.regular_s2
                assert cert.spectral.closed_classes == 2
                assert cert.spectral.fallback is None and cert.spectral.iterations == 0
                assert cert.verdict is Verdict.NOT_CERTIFIED
            else:
                assert cert.regular_s1 and cert.regular_s2
                assert cert.spectral.closed_classes == 1
                assert cert.spectral.method == "dense"
                assert cert.spectral.fallback == "n < 3"
                assert cert.to_dict()["spectral"]["fallback"] == "n < 3"
            assert_matches_oracle(cert, pair)

    def test_parity_sweep(self):
        # the oracle's verdict, its radius within 1e-12, smoother fields
        # from the graph as the full-spectrum oracle confirms them, and a
        # bit-identical rerun
        verdicts = set()
        near_critical = 0
        for i, pair, problem in parity_replicates():
            cert = certify(pair, *problem)
            again = certify(pair, *problem)
            verdict, rho = certify_oracle(pair, *problem)
            assert cert.spectral.method == "power", i
            assert cert.verdict is verdict, i
            assert abs(cert.spectral.rho_product - rho) <= 1e-12, i
            assert again.spectral == cert.spectral, i
            assert_matches_oracle(cert, pair)
            verdicts.add(verdict)
            near_critical += 0.99 <= rho < 1.0 - 1e-8
        assert verdicts == set(Verdict)
        assert near_critical >= 10


def parity_replicates():
    """The parity sweep's 504 seeded replicates, n from 8 to 40.

    They run over four kernels and three bandwidth kinds (constant, rate,
    knn), with aligned clusters (not certified) and a design correlated
    at 0.999 (near-critical).  Yields the index, the pair, and the rest
    of its ``certify`` arguments: kernel, the two bandwidths and the data.
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
        yield i, build_pair(data, kernel, bw_u, bw_v), (kernel, bw_u, bw_v, data)


class TestSmootherArpackRoute:
    """Smoothers under the certificate's ARPACK route, which only the
    product takes, and only when the union of the two positivity graphs
    has one closed class: the smoothers' part of the report is read from
    their graphs."""

    def test_parity_sweep(self, monkeypatch):
        # every pair of the sweep (n >= 8), knn ones too: the graph's
        # fields do not depend on how the product's radius was found
        # (ARPACK, or eigvals after an ARPACK failure), reruns are
        # bit-identical, and a pair with c >= 2 takes neither route; the
        # oracle checks are in TestArpackRoute.test_parity_sweep
        error = ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        def failing(*args, **kwargs):
            raise error

        for i, pair, problem in parity_replicates():
            cert = certify(pair, *problem)
            again = certify(pair, *problem)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "eigs", failing)
                fallback = certify(pair, *problem)
            assert again.spectral == cert.spectral, i
            assert fallback.verdict is cert.verdict, i
            if cert.spectral.closed_classes == 1:
                assert fallback.spectral.method == "dense", i
            else:
                assert fallback.spectral == cert.spectral, i
            assert dataclasses.replace(
                fallback.spectral, rho_product=0.0, iterations=0, fallback=None
            ) == dataclasses.replace(cert.spectral, rho_product=0.0, iterations=0), i
        # per-point bandwidths, for which build_pair keeps two smoothers
        rng = np.random.default_rng(69)
        for trial in range(48):
            n = int(rng.integers(8, 41))
            data = Dataset(y=rng.normal(size=n), u=rng.normal(size=n), v=rng.normal(size=n))
            bw_u, bw_v = (
                PerPointBandwidth(max_gap(x) * rng.uniform(0.7, 2.5, n)) for x in (data.u, data.v)
            )
            kernel = ALL_KERNELS[trial % 4]
            pair = build_pair(data, kernel, bw_u, bw_v)
            cert = certify(pair, kernel, bw_u, bw_v, data)
            assert_certify_matches_oracle(cert, pair, kernel, bw_u, bw_v, data)
            assert_matches_oracle(cert, pair)

    @pytest.mark.parametrize(
        "fixture",
        [
            "uniform_cluster_problem",
            "triangular_cluster_problem",
            "crossed_cluster_problem",
            "near_critical_problem",
        ],
    )
    def test_fixtures(self, fixture, request):
        data, kernel, bw = request.getfixturevalue(fixture)
        pair = build_pair(data, kernel, bw, bw)
        cert = certify(pair, kernel, bw, bw, data)
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)
        assert_matches_oracle(cert, pair)

    def test_periodic_closed_classes(self):
        # matrices with a zero diagonal, which no smoother has.  A 3-cycle
        # that two transient nodes feed: one closed class, of period 3.
        # And steps of 1 and 4 around a 300-cycle, one class of period 3
        m = np.zeros((5, 5))
        m[[0, 1, 2], [1, 2, 0]] = 1.0
        m[3, [0, 4]] = 0.5
        m[4, [1, 3]] = 0.5
        assert spectral._closed_classes(m) == (2, (3,))
        n = 300
        ring = np.zeros((n, n))
        for step in (1, 4):
            ring[np.arange(n), (np.arange(n) + step) % n] = 0.5
        assert spectral._closed_classes(csr_array(ring)) == (1, (3,))
        for s in (m, ring, csr_array(ring)):
            assert not check_regularity(s)
        # three closed classes, one periodic, and a transient node
        both = np.zeros((5, 5))
        both[0, 1] = both[1, 0] = 1.0
        both[2, 2] = both[3, 3] = 1.0
        both[4, [0, 2, 4]] = 1.0 / 3.0
        assert spectral._closed_classes(both) == (4, (1, 1, 2))
        assert closed_class_count(both) == 3
        # one aperiodic closed class fed by a transient node
        leak = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.0, 0.8]])
        assert spectral._closed_classes(leak) == (2, (1,))
        assert closed_class_count(leak) == 1
        # as a hand-built pair, ``both`` has three closed classes closed
        # under both of its matrices: 1 is a repeated eigenvalue of S2 S1
        # whatever the diagonals hold, so rho(S2* S1*) = 1 with no
        # eigensolver, as its dense spectrum confirms
        pair = SmootherPair(both, both)
        data = Dataset(y=np.zeros(5), u=np.arange(5.0), v=np.arange(5.0))
        bw = ConstantBandwidth(2.0)
        cert = certify(pair, Kernel.UNIFORM, bw, bw, data)
        assert cert.spectral.closed_classes == 3 and cert.spectral.rho_product == 1.0
        assert cert.spectral.iterations == 0 and cert.verdict is Verdict.NOT_CERTIFIED
        assert np.abs(np.abs(np.linalg.eigvals(pair.star_product())).max() - 1.0) <= 1e-12

    def test_large_smoother_never_takes_eigvals(self, monkeypatch):
        data = generate(SimSpec(n=800, design=BivariateNormal(rho=0.5), seed=66))
        bw = RateBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)

        def unused(*args, **kwargs):
            raise AssertionError("eigvals ran on an n = 800 Gaussian smoother")

        monkeypatch.setattr(np.linalg, "eigvals", unused)
        cert = certify(pair, Kernel.GAUSSIAN, bw, bw, data)
        assert certify(pair, Kernel.GAUSSIAN, bw, bw, data).spectral == cert.spectral
        assert cert.regular_s1 and cert.regular_s2
        as_json = cert.to_dict()["spectral"]
        assert "smoother_iterations" not in as_json and "smoother_fallback" not in as_json
        assert as_json["closed_classes"] == 1

    def test_arpack_failure_falls_back_to_eigvals(self, monkeypatch, near_critical_problem):
        # the graph's fields need no ARPACK: on a pair with c = 1, with
        # eigs failing, only the product's radius falls back to eigvals,
        # and every other field stays
        data, kernel, bw = near_critical_problem
        pair = build_pair(data, kernel, bw, bw)
        before = certify(pair, kernel, bw, bw, data)
        error = ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(spectral, "eigs", failing)
        cert = certify(pair, kernel, bw, bw, data)
        assert cert.spectral.fallback == f"ArpackNoConvergence: {error}"
        assert cert.spectral.method == "dense"
        assert cert.spectral == dataclasses.replace(
            before.spectral,
            rho_product=cert.spectral.rho_product,
            iterations=0,
            fallback=cert.spectral.fallback,
        )
        assert cert.spectral.closed_classes == 1
        assert cert.verdict is before.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS
        assert abs(cert.spectral.rho_product - before.spectral.rho_product) <= 1e-12
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data, tol=0.0)

    @pytest.mark.parametrize(
        "x, kernel, bw, sparse, regular",
        [
            (
                np.random.default_rng(67).uniform(size=410),
                Kernel.UNIFORM,
                ConstantBandwidth(0.02),
                True,
                True,
            ),
            (
                np.random.default_rng(15).uniform(size=200),
                Kernel.UNIFORM,
                ConstantBandwidth(0.04),
                False,
                False,
            ),
            (
                generate(SimSpec(n=38, design=BivariateNormal(rho=0.0), seed=1870203459)).u,
                Kernel.GAUSSIAN,
                RateBandwidth(0.83),
                False,
                True,
            ),
        ],
        ids=["csr-n410", "dense-n200", "near-identity-n38"],
    )
    def test_clustered_smoother_from_graph(self, x, kernel, bw, sparse, regular):
        # clustered spectra.  A uniform kernel at a small bandwidth: at
        # n = 410, h = 0.02 a regular CSR smoother (rho(S*) = 0.9997); at
        # n = 200, h = 0.04 the simulate workload's design, where this
        # seed's largest gap exceeds h and the dense smoother is not
        # regular (rho(S*) = 1).  And a Gaussian smoother at rate:0.83,
        # nearly the identity: S* has four eigenvalues within 1e-11 of 1,
        # which no eigensolver separates from a second unit eigenvalue,
        # while its graph is regular.  Read in sorted order and in sample
        # order alike
        s = build_smoother(x, kernel, bw)
        assert issparse(s) == sparse
        assert check_regularity(s, np.argsort(x)) == check_regularity(s) == regular
        assert (len(_closed_classes(s)[1]) == 1) == regular

    def test_csr_smoothers_stay_sparse(self, monkeypatch):
        # n = 2000, Epanechnikov kernel at h = 0.03: CSR smoothers,
        # regular, and a certified power-route certificate that never
        # makes them dense
        data = generate(SimSpec(n=2000, design=IndependentUniform(), seed=70))
        bw = ConstantBandwidth(0.03)
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        assert issparse(pair.s1) and issparse(pair.s2)

        def refused(s):
            raise AssertionError("a CSR smoother was made dense")

        monkeypatch.setattr(smoothers, "as_dense", refused)
        cert = certify(pair, Kernel.EPANECHNIKOV, bw, bw, data)
        assert cert.certified
        assert cert.spectral.method == "power"
        assert cert.regular_s1 and cert.regular_s2
        monkeypatch.undo()
        assert_matches_oracle(cert, pair)

    @pytest.mark.parametrize("split", [False, True], ids=["regular", "two-clusters"])
    def test_window_smoothers_stay_unformed(self, monkeypatch, split):
        # n = 2000, uniform kernel at h = 0.03: a window pair, which the
        # certificate and both fits read through products and entry
        # reads alone.  Split u into two clusters by a 0.2 gap and S1 has
        # two closed classes, read from the windows' CSR pattern, while v's
        # smoother is regular, which makes c = 1 without the union graph,
        # so the product certifies
        data = generate(SimSpec(n=2000, design=IndependentUniform(), seed=70))
        if split:
            data = Dataset(y=data.y, u=np.where(data.u < 0.5, data.u, data.u + 0.2), v=data.v)
        bw = ConstantBandwidth(0.03)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        assert isinstance(pair, WindowPair)

        def refused(*args, **kwargs):
            raise AssertionError("a window smoother was formed")

        graphs = []

        def counting(s, closed_classes=spectral._closed_classes):
            graphs.append(s)
            return closed_classes(s)

        with monkeypatch.context() as m:
            for name in ("toarray", "__array__"):
                m.setattr(smoothers.WindowSmoother, name, refused)
            m.setattr(WindowPair, "star_product", refused)
            m.setattr(spectral, "_closed_classes", counting)
            cert = certify(pair, Kernel.UNIFORM, bw, bw, data)
            fits = [solve(pair, data.y) for solve in (backfit_iterative, backfit_direct)]
        assert cert.spectral.method == "power"
        assert cert.regular_s1 is not split and cert.regular_s2
        assert cert.spectral.closed_classes == 1
        assert len(_closed_classes(pair.s1)[1]) == (2 if split else 1)
        # S1's own graph when split, and no union: regular S2 gives c = 1
        assert graphs == ([pair.s1] if split else [])
        assert cert.verdict is (
            Verdict.CERTIFIED_BY_SPECTRAL_RADIUS if split else Verdict.CERTIFIED_BY_GAP_CONDITIONS
        )
        assert_matches_oracle(cert, pair)
        dense = SmootherPair(as_dense(pair.s1), as_dense(pair.s2))
        assert abs(cert.spectral.rho_product - spectral_radius(dense.star_product())) <= 1e-12
        for fit, solve in zip(fits, (backfit_iterative, backfit_direct)):
            want = solve(dense, data.y)
            assert np.abs(fit.m1_hat - want.m1_hat).max() <= 1e-12
            assert np.abs(fit.m2_hat - want.m2_hat).max() <= 1e-12

    def test_not_certified_csr_certificate_stays_sparse(self, monkeypatch):
        # n = 1500, Epanechnikov at h = 0.01, u in two clusters split by
        # a 0.2 gap and v following u within 0.002: both CSR smoothers,
        # and their union, have two closed classes, so rho(S2* S1*) = 1
        # from the graph, with neither ARPACK nor a formed product, and
        # the note's bound is infinite
        rng = np.random.default_rng(7)
        n = 1500
        u = rng.uniform(size=n)
        u = np.where(u < 0.5, u, u + 0.2)
        v = u + rng.uniform(-0.002, 0.002, size=n)
        data = Dataset(y=rng.normal(size=n), u=u, v=v)
        bw = ConstantBandwidth(0.01)
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        assert issparse(pair.s1) and issparse(pair.s2)

        def refused(s):
            raise AssertionError("a CSR smoother was made dense")

        monkeypatch.setattr(smoothers, "as_dense", refused)
        cert = certify(pair, Kernel.EPANECHNIKOV, bw, bw, data)
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert cert.spectral.method == "power"
        assert cert.spectral.closed_classes == 2
        assert cert.spectral.rho_product == 1.0 and cert.spectral.iterations == 0
        assert note_bound(cert.notes) == float("inf")
        monkeypatch.undo()
        want = spectral_radius(pair.star_product())
        assert abs(cert.spectral.rho_product - want) <= 1e-12

    def test_knn_certificate_stays_sparse(self, monkeypatch):
        # the smooth-knn design: n = 4000 uniform points, Epanechnikov at
        # knn:30, CSR smoothers with clustered spectra; both are regular,
        # and the certificate never makes them dense.  Split u into two
        # clusters by a 0.2 gap and S1 is no longer regular: its graph has
        # two closed classes, read without a dense copy
        rng = np.random.default_rng(71)
        n = 4000
        data = Dataset(y=rng.normal(size=n), u=rng.uniform(size=n), v=rng.uniform(size=n))
        bw = KNearestBandwidth(30)
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        split = build_smoother(
            np.where(data.u < 0.5, data.u, data.u + 0.2), Kernel.EPANECHNIKOV, bw
        )
        assert issparse(pair.s1) and issparse(pair.s2) and issparse(split)

        def refused(s):
            raise AssertionError("a CSR smoother was made dense")

        monkeypatch.setattr(smoothers, "as_dense", refused)
        cert = certify(pair, Kernel.EPANECHNIKOV, bw, bw, data)
        assert cert.certified
        assert cert.regular_s1 and cert.regular_s2
        assert cert.spectral.method == "power"
        assert cert.spectral.closed_classes == 1
        assert not check_regularity(split, data.sort_u)
        assert spectral._closed_classes(split) == (2, (1, 1))


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
        cert = certify(pair, kernel, bw_u, bw_v, data)
        assert cert.spectral.method == "power"
        assert cert.spectral.fallback is None
        assert runs == [1, 6] and set(applied) == {6}
        assert cert.spectral.iterations == len(applied)
        want = spectral_radius(pair.star_product())
        assert abs(cert.spectral.rho_product - want) <= 1e-12

    def test_applications_count_both_attempts(self, monkeypatch):
        # a retry that converges reports the applications of both runs
        data = generate(SimSpec(n=800, design=BivariateNormal(rho=0.5), seed=66))
        bw = RateBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        runs, applied = failing_first_attempt(monkeypatch, spent=10)
        lam, applications, fallback = _product_radius(pair)
        assert fallback is None and runs == [1, 6]
        assert applied.count(1) == 10 and applied.count(6) > 0
        assert applications == len(applied)
        assert abs(abs(lam) - spectral_radius(pair.star_product())) <= 1e-12


class TestUnionGraph:
    """c, the closed classes of the union of the two positivity graphs,
    decides the product's unit eigenvalues: c - 1 of them."""

    @pytest.mark.parametrize(
        "fixture",
        ["uniform_cluster_problem", "triangular_cluster_problem", "crossed_cluster_problem"],
    )
    def test_repeated_unit_eigenvalue_needs_no_eigensolve(self, fixture, request, monkeypatch):
        # c >= 2: rho(S2* S1*) = 1 exactly, with no operator application,
        # no formed product and no eigvals
        data, kernel, bw = request.getfixturevalue(fixture)
        pair = build_pair(data, kernel, bw, bw)

        def refused(*args, **kwargs):
            raise AssertionError("an eigensolver ran, or S2* S1* was formed")

        with monkeypatch.context() as m:
            m.setattr(spectral, "_arpack", refused)
            m.setattr(type(pair), "star_product", refused)
            m.setattr(np.linalg, "eigvals", refused)
            cert = certify(pair, kernel, bw, bw, data)
        assert cert.spectral.closed_classes == 2
        assert cert.spectral.rho_product == 1.0 and cert.spectral.iterations == 0
        assert cert.spectral.fallback is None
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert note_bound(cert.notes) == float("inf")
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)

    def test_union_leaves_non_canonical_csr_inputs_as_they_were(self):
        # two block-diagonal CSR smoothers, neither regular, with each
        # entry stored as two halves in descending column order: the union
        # graph reads them as the regularity check does, on canonical
        # copies, and finds the two blocks closed
        rows = [0, 0, 0, 0, 1, 1, 2, 2, 3, 3]
        cols = [1, 0, 1, 0, 1, 0, 3, 2, 3, 2]
        data = [0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        indptr = np.searchsorted(rows, np.arange(5))
        pair = SmootherPair(
            *(csr_array((data, cols, indptr), shape=(4, 4)) for _ in range(2))
        )
        before = [(s.data.copy(), s.indices.copy(), s.indptr.copy()) for s in (pair.s1, pair.s2)]
        sample = Dataset(y=np.zeros(4), u=np.arange(4.0), v=np.arange(4.0))
        bw = ConstantBandwidth(1.0)
        cert = certify(pair, Kernel.UNIFORM, bw, bw, sample)
        assert not cert.regular_s1 and not cert.regular_s2
        assert cert.spectral.closed_classes == 2 and cert.spectral.rho_product == 1.0
        for s, arrays in zip((pair.s1, pair.s2), before):
            for got, want in zip((s.data, s.indices, s.indptr), arrays):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel", [Kernel.UNIFORM, Kernel.EPANECHNIKOV])
    def test_interleaved_clusters_certify(self, interleaved_cluster_data, kernel):
        # the paper's weak condition at work: each smoother has two closed
        # classes and neither gap condition holds, but the union graph has
        # one closed class, and the product's radius certifies
        data = interleaved_cluster_data
        bw = ConstantBandwidth(1.0)
        pair = build_pair(data, kernel, bw, bw)
        cert = certify(pair, kernel, bw, bw, data)
        assert not cert.gap_u.condition_holds and not cert.gap_v.condition_holds
        assert not cert.regular_s1 and not cert.regular_s2
        for s in (pair.s1, pair.s2):
            assert len(_closed_classes(s)[1]) == 2
        assert cert.spectral.closed_classes == 1
        assert cert.verdict is Verdict.CERTIFIED_BY_SPECTRAL_RADIUS
        assert_certify_matches_oracle(cert, pair, kernel, bw, bw, data)
        assert_matches_oracle(cert, pair)


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(ALL_KERNELS),
    kind=st.sampled_from(["constant", "rate", "knn"]),
    clustered=st.booleans(),
)
@example(n=2, seed=0, kernel=Kernel.UNIFORM, kind="constant", clustered=False)
@example(n=2, seed=1, kernel=Kernel.GAUSSIAN, kind="knn", clustered=True)
@example(n=3, seed=2, kernel=Kernel.EPANECHNIKOV, kind="constant", clustered=True)
@example(n=3, seed=3, kernel=Kernel.TRIANGULAR, kind="rate", clustered=False)
def test_closed_classes_count_unit_eigenvalues(n, seed, kernel, kind, clustered):
    # c equals the closed-class count of the boolean pattern of S2 S1, and
    # one plus the number of eigenvalues of S2* S1* within 1e-6 of 1; no
    # pair with c >= 2 is certified.  Clustered samples put u and v in two
    # groups each, aligned or not, so that c >= 2 is common
    rng = np.random.default_rng(seed)
    if clustered:
        u = rng.uniform(size=n) + 5.0 * (rng.random(n) < 0.5)
        v = rng.uniform(size=n) + 5.0 * (rng.random(n) < 0.5)
        data = Dataset(y=rng.normal(size=n), u=u, v=v)
    else:
        data = generate(SimSpec(n=n, design=BivariateNormal(rho=0.5), seed=seed))
    if kind == "constant":
        bw_u = ConstantBandwidth(max_gap(data.u) * float(rng.uniform(0.3, 2.5)))
        bw_v = ConstantBandwidth(max_gap(data.v) * float(rng.uniform(0.3, 2.5)))
    elif kind == "rate":
        bw_u = bw_v = RateBandwidth(float(rng.uniform(0.1, 0.9)))
    else:
        bw_u = bw_v = KNearestBandwidth(int(rng.integers(1, min(5, n - 1) + 1)))
    pair = build_pair(data, kernel, bw_u, bw_v)
    cert = certify(pair, kernel, bw_u, bw_v, data)
    c = cert.spectral.closed_classes
    assert c == closed_class_count(pair.s2 @ pair.s1)
    vals = np.linalg.eigvals(pair.star_product())
    assert c == 1 + int(np.sum(np.abs(vals - 1.0) <= 1e-6))
    if c > 1:
        assert not cert.certified
        assert cert.spectral.rho_product == 1.0 and cert.spectral.iterations == 0
