"""Iterative and direct backfitting, their agreement, and prediction."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_solve
from scipy.sparse import issparse

from nwbackfit import fitting, smoothers
from nwbackfit.fitting import (
    BackfitNonConvergenceError,
    FitResult,
    SingularSystemError,
    backfit_direct,
    backfit_iterative,
    normal_equation_residual,
    predict,
)
from nwbackfit.kernels import (
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
)
from nwbackfit.simulate import BivariateNormal, IndependentUniform, SimSpec, generate, max_gap
from nwbackfit.smoothers import (
    Dataset,
    PackedPair,
    PackedSmoother,
    SmootherPair,
    WindowPair,
    as_dense,
    build_pair,
    build_smoother,
    center,
)
from nwbackfit.spectral import Verdict, _closed_classes, certify, check_regularity

from conftest import (
    ALL_KERNELS,
    assert_certify_matches_oracle,
    eval_scaled,
    lu_direct_oracle,
    two_cluster_dataset,
)


def gaussian_problem(seed, n=60, rho=None):
    design = IndependentUniform() if rho is None else BivariateNormal(rho=rho)
    spec = SimSpec(n=n, design=design, noise_sd=0.3, seed=seed)
    data = generate(spec)
    bw = RateBandwidth(0.2)
    pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
    return data, pair


def knn_problem(seed, n=300):
    rng = np.random.default_rng(seed)
    data = Dataset(y=rng.normal(size=n), u=rng.uniform(size=n), v=rng.uniform(size=n))
    bw = KNearestBandwidth(30)
    return data, build_pair(data, Kernel.EPANECHNIKOV, bw, bw)


def outcome(solve, *args, **kwargs):
    """The fit a solver returns, or the class of the error it raises."""
    try:
        return solve(*args, **kwargs)
    except (BackfitNonConvergenceError, SingularSystemError) as exc:
        return type(exc)


class TestSparseSmoothers:
    @pytest.mark.parametrize(
        "problem",
        [
            "uniform_cluster_problem",
            "triangular_cluster_problem",
            "crossed_cluster_problem",
            "near_critical_problem",
            "knn",
        ],
    )
    def test_csr_pair_matches_dense_pair(self, problem, request, monkeypatch):
        # the same problem with every compact-kernel smoother stored as CSR
        # and as dense, and a uniform-kernel pair also as the windows
        # build_pair holds it in: fits, radii and verdicts agree to 1e-12
        if problem == "knn":
            rng = np.random.default_rng(93)
            data = Dataset(y=rng.normal(size=500), u=rng.uniform(size=500), v=rng.uniform(size=500))
            kernel, bw = Kernel.EPANECHNIKOV, KNearestBandwidth(10)
        else:
            data, kernel, bw = request.getfixturevalue(problem)
        pairs = {}
        for layout, fill in (("csr", 1.0), ("dense", 0.0)):
            monkeypatch.setattr(smoothers, "CSR_MAX_FILL", fill)
            if kernel is Kernel.UNIFORM:
                pairs[layout] = SmootherPair(
                    build_smoother(data.u, kernel, bw), build_smoother(data.v, kernel, bw)
                )
            else:
                pairs[layout] = build_pair(data, kernel, bw, bw)
        if kernel is Kernel.UNIFORM:
            pairs["window"] = build_pair(data, kernel, bw, bw)
            assert isinstance(pairs["window"], WindowPair)
        if not kernel.compact_support:
            # a Gaussian smoother is dense whatever the fill rule, so the
            # fits and certificates are the same computations
            for got, want in zip(vars(pairs["csr"]).values(), vars(pairs["dense"]).values()):
                assert not issparse(got) and np.array_equal(np.asarray(got), np.asarray(want))
            return
        results = {}
        for layout, pair in pairs.items():
            assert all(issparse(s) == (layout == "csr") for s in (pair.s1, pair.s2))
            results[layout] = [
                outcome(backfit_iterative, pair, data.y),
                outcome(backfit_direct, pair, data.y),
                certify(pair, kernel, bw, bw, data),
            ]
            assert_certify_matches_oracle(results[layout][-1], pair, kernel, bw, bw, data)
        others = [layout for layout in results if layout != "dense"]
        for got, want in ((g, w) for o in others for g, w in zip(results[o], results["dense"])):
            if isinstance(want, type):
                assert got is want
            elif isinstance(want, FitResult):
                assert got.iterations == want.iterations
                assert np.abs(got.m1_hat - want.m1_hat).max() <= 1e-12
                assert np.abs(got.m2_hat - want.m2_hat).max() <= 1e-12
            else:
                assert got.verdict is want.verdict
                assert got.regular_s1 == want.regular_s1 and got.regular_s2 == want.regular_s2
                assert abs(got.spectral.rho_product - want.spectral.rho_product) <= 1e-12
                # c is read from the union of the smoothers' graphs
                assert got.spectral.closed_classes == want.spectral.closed_classes
        for got, want in (
            (getattr(pairs[o], name), getattr(pairs["dense"], name))
            for o in others
            for name in ("s1", "s2")
        ):
            assert check_regularity(got) == check_regularity(want)
            assert _closed_classes(got) == _closed_classes(want)


class TestPackedPair:
    def test_fit_path_forms_no_dense_matrix(self, monkeypatch):
        # the certificate, the iterative fit and the GMRES direct fit read
        # a packed pair through products and entry reads alone, and agree
        # with the same smoothers stored as two dense matrices
        data = generate(SimSpec(n=400, design=BivariateNormal(rho=0.5), noise_sd=0.3, seed=7))
        kernel, bw = Kernel.GAUSSIAN, RateBandwidth(0.2)
        pair = build_pair(data, kernel, bw, bw)
        assert isinstance(pair, PackedPair)
        dense = SmootherPair(as_dense(pair.s1), as_dense(pair.s2))

        def refuse(*args, **kwargs):
            raise AssertionError("a dense n x n array was formed from a packed pair")

        with monkeypatch.context() as m:
            for cls, name in (
                (PackedSmoother, "toarray"),
                (PackedSmoother, "__array__"),
                (PackedSmoother, "__gt__"),
                (PackedPair, "star_product"),
            ):
                m.setattr(cls, name, refuse)
            cert = certify(pair, kernel, bw, bw, data)
            iterative = backfit_iterative(pair, data.y)
            direct = backfit_direct(pair, data.y)
        assert cert.verdict is Verdict.CERTIFIED_BY_GAP_CONDITIONS
        assert cert.spectral.fallback is None
        want = certify(dense, kernel, bw, bw, data)
        assert abs(cert.spectral.rho_product - want.spectral.rho_product) <= 1e-12
        for got, solve in ((iterative, backfit_iterative), (direct, backfit_direct)):
            ref = solve(dense, data.y)
            assert np.abs(got.m1_hat - ref.m1_hat).max() <= 1e-12
            assert np.abs(got.m2_hat - ref.m2_hat).max() <= 1e-12


class TestTrivialFixedPoints:
    def test_zero_centered_smoothers(self):
        rng = np.random.default_rng(61)
        data = Dataset(y=rng.normal(size=10), u=rng.uniform(size=10), v=rng.uniform(size=10))
        bw = ConstantBandwidth(1e6)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        fit = backfit_iterative(pair, data.y)
        assert fit.iterations == 1
        assert fit.alpha_hat == pytest.approx(data.y.mean())
        assert np.abs(fit.m1_hat).max() <= 1e-12
        assert np.abs(fit.m2_hat).max() <= 1e-12

    def test_constant_response(self):
        data, pair = gaussian_problem(62)
        c = 4.25
        y = np.full(data.n, c)
        for fit in (backfit_iterative(pair, y), backfit_direct(pair, y)):
            assert fit.alpha_hat == pytest.approx(c, abs=1e-12)
            assert np.abs(fit.m1_hat).max() <= 1e-10
            assert np.abs(fit.m2_hat).max() <= 1e-10


class TestDirectSolve:
    def test_hand_two_by_two(self):
        # x = [0, 4/7], triangular, h = 1 gives rows [0.7, 0.3]; the
        # centered system solves to m1 = m2 = (1/7, -1/7) for y = (1, 0)
        x = np.array([0.0, 4.0 / 7.0])
        data = Dataset(y=np.array([1.0, 0.0]), u=x, v=x.copy())
        bw = ConstantBandwidth(1.0)
        pair = build_pair(data, Kernel.TRIANGULAR, bw, bw)
        assert_allclose(center(pair.s1), [[0.2, -0.2], [-0.2, 0.2]], atol=1e-14)
        fit = backfit_direct(pair, data.y)
        assert_allclose(fit.m1_hat, [1.0 / 7.0, -1.0 / 7.0], rtol=1e-12)
        assert_allclose(fit.m2_hat, [1.0 / 7.0, -1.0 / 7.0], rtol=1e-12)
        assert fit.alpha_hat == pytest.approx(0.5)
        assert fit.iterations == 0 and fit.final_delta == 0.0

    def test_closed_form_cross_check(self):
        # the displayed closed form for m1 solves its own linear system;
        # the implementation back-substitutes instead, so compare routes
        data, pair = gaussian_problem(63)
        fit = backfit_direct(pair, data.y)
        n = data.n
        eye = np.eye(n)
        s1_star, s2_star = center(pair.s1), center(pair.s2)
        m1_closed = s1_star @ np.linalg.solve(
            eye - s2_star @ s1_star, (eye - s2_star) @ data.y
        )
        # the two routes differ: back-substitution vs the rearranged
        # closed form; both must produce the same component
        m1_alt = np.linalg.solve(eye - s1_star @ s2_star, s1_star @ (eye - s2_star) @ data.y)
        assert_allclose(fit.m1_hat, m1_alt, atol=1e-10)
        assert_allclose(m1_closed, m1_alt, atol=1e-10)

    def test_residual_small_on_certified_instances(self):
        for seed in range(5):
            data, pair = gaussian_problem(64 + seed)
            fit = backfit_direct(pair, data.y)
            assert fit.residual_normal_eq <= 1e-9

    def test_singular_system_rejected(self, triangular_cluster_problem):
        data, kernel, bw = triangular_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        with pytest.raises(SingularSystemError) as exc:
            backfit_direct(pair, data.y)
        assert exc.value.condition_estimate > 1e12

    @pytest.mark.parametrize("problem", ["gaussian", "correlated-gaussian", "knn", "near-critical"])
    def test_gmres_matches_lu_oracle(self, problem, request, monkeypatch):
        if problem == "gaussian":
            cases = [gaussian_problem(seed) for seed in range(64, 69)]
        elif problem == "correlated-gaussian":
            cases = [gaussian_problem(seed, rho=0.4) for seed in range(70, 73)]
        elif problem == "knn":
            cases = [knn_problem(90)]
        else:
            data, kernel, bw = request.getfixturevalue("near_critical_problem")
            cases = [(data, build_pair(data, kernel, bw, bw))]

        def no_lu(pair, rhs):
            raise AssertionError("GMRES missed its target and fell back to LU")

        monkeypatch.setattr(fitting, "_lu_direct", no_lu)
        for data, pair in cases:
            fit = backfit_direct(pair, data.y)
            m1, m2 = lu_direct_oracle(pair, data.y)
            assert np.abs(fit.m1_hat - m1).max() <= 1e-12
            assert np.abs(fit.m2_hat - m2).max() <= 1e-12
            assert fit.iterations == 0 and fit.final_delta == 0.0

    def test_lu_fallback_matches_lu_oracle(self, monkeypatch):
        monkeypatch.setattr(fitting, "_gmres", lambda system, rhs: None)
        data, pair = knn_problem(91, n=120)
        fit = backfit_direct(pair, data.y)
        m1, m2 = lu_direct_oracle(pair, data.y)
        assert np.abs(fit.m1_hat - m1).max() <= 1e-12
        assert np.abs(fit.m2_hat - m2).max() <= 1e-12

    def test_lu_fallback_where_gmres_stagnates(self, monkeypatch):
        # a certified near-identity pair (rho(S2* S1*) = 0.99928): GMRES
        # meets its target on the data's right-hand side but stalls on the
        # uniqueness probe's, and the LU fallback returns the answer
        data = generate(SimSpec(n=38, design=BivariateNormal(rho=0.0), seed=1870203459))
        bw = RateBandwidth(0.8301857510925544)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        assert certify(pair, Kernel.GAUSSIAN, bw, bw, data).certified
        solved, lu_calls = [], []

        def gmres_spy(system, rhs, gmres=fitting._gmres):
            x = gmres(system, rhs)
            solved.append(x is not None)
            return x

        def lu_spy(pair, rhs, lu_direct=fitting._lu_direct):
            lu_calls.append(pair.n)
            return lu_direct(pair, rhs)

        monkeypatch.setattr(fitting, "_gmres", gmres_spy)
        monkeypatch.setattr(fitting, "_lu_direct", lu_spy)
        fit = backfit_direct(pair, data.y)
        assert solved == [True, False]
        assert lu_calls == [38]
        m1, m2 = lu_direct_oracle(pair, data.y)
        assert np.abs(fit.m1_hat - m1).max() <= 1e-12
        assert np.abs(fit.m2_hat - m2).max() <= 1e-12

    def test_lu_condition_factors_in_place(self):
        # a heavy first column makes the 1-norm condition number far larger
        # than the infinity-norm one, so the estimate must be of the former
        rng = np.random.default_rng(92)
        a = np.eye(40) + 0.1 * rng.normal(size=(40, 40))
        a[:, 0] += 3.0
        system = a.copy()
        lu, piv, cond = fitting.lu_condition(system)
        assert np.shares_memory(lu, system)
        assert cond == pytest.approx(np.linalg.cond(a, 1), rel=1e-6)
        assert np.linalg.cond(a, 1) > 10.0 * np.linalg.cond(a, np.inf)
        b = rng.normal(size=40)
        assert_allclose(a @ lu_solve((lu, piv), b, trans=1), b, atol=1e-12)

    def test_uniform_cluster_system_rejected(self, uniform_cluster_problem):
        data, kernel, bw = uniform_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        with pytest.raises(SingularSystemError) as exc:
            backfit_direct(pair, data.y)
        assert exc.value.condition_estimate > 1e12

    def test_probe_rejects_consistent_singular_system(self, crossed_cluster_problem):
        # GMRES on the data's right-hand side meets its target here; only
        # the uniqueness probe sends the system to the LU route, which raises
        data, kernel, bw = crossed_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        rhs = pair.apply_s2_star(data.y - pair.apply_s1_star(data.y))
        assert np.abs(rhs).max() > 0.1
        assert fitting._gmres(fitting._reduced_system(pair), rhs) is not None
        with pytest.raises(SingularSystemError) as exc:
            backfit_direct(pair, data.y)
        assert exc.value.condition_estimate > 1e12

    @pytest.mark.parametrize("seed", [1, 20])
    def test_exactly_singular_system_warns_nothing(self, seed):
        # aligned clusters whose I - S2* S1* factors with an exactly zero
        # pivot (seed 1 when the product is formed from centered copies,
        # seed 20 when it is centered once): the infinite condition
        # estimate reports it, so lu_factor's LinAlgWarning must not escape
        rng = np.random.default_rng(seed)
        data = two_cluster_dataset(rng, rng.uniform(0.2, 0.9))
        bw = ConstantBandwidth(0.8 * max_gap(data.u))
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify(pair, Kernel.EPANECHNIKOV, bw, bw, data)
            with pytest.raises(SingularSystemError) as exc:
                backfit_direct(pair, data.y)
        assert cert.verdict is Verdict.NOT_CERTIFIED
        assert_certify_matches_oracle(cert, pair, Kernel.EPANECHNIKOV, bw, bw, data)
        assert exc.value.condition_estimate > 1e12


class TestIterative:
    def test_matches_direct_both_sweeps(self):
        for seed in range(8):
            data, pair = gaussian_problem(70 + seed, rho=0.4)
            fd = backfit_direct(pair, data.y)
            for sweep in ("gauss-seidel", "jacobi"):
                fi = backfit_iterative(pair, data.y, sweep=sweep)
                assert np.abs(fi.m1_hat - fd.m1_hat).max() <= 1e-8
                assert np.abs(fi.m2_hat - fd.m2_hat).max() <= 1e-8
                assert fi.residual_normal_eq <= 1e-9
                assert fi.sweep == sweep

    def test_jacobi_needs_more_iterations(self):
        data, pair = gaussian_problem(71)
        gs = backfit_iterative(pair, data.y)
        ja = backfit_iterative(pair, data.y, sweep="jacobi")
        assert ja.iterations >= gs.iterations

    def test_linearity(self):
        data, pair = gaussian_problem(72)
        rng = np.random.default_rng(73)
        y1 = rng.normal(size=data.n)
        y2 = rng.normal(size=data.n)
        f1 = backfit_iterative(pair, y1)
        f2 = backfit_iterative(pair, y2)
        f12 = backfit_iterative(pair, y1 + y2)
        assert np.abs(f12.m1_hat - (f1.m1_hat + f2.m1_hat)).max() <= 1e-8
        assert np.abs(f12.m2_hat - (f1.m2_hat + f2.m2_hat)).max() <= 1e-8

    def test_shift_invariance(self):
        data, pair = gaussian_problem(74)
        base = backfit_iterative(pair, data.y)
        shifted = backfit_iterative(pair, data.y + 11.5)
        assert shifted.alpha_hat == pytest.approx(base.alpha_hat + 11.5, abs=1e-8)
        assert np.abs(shifted.m1_hat - base.m1_hat).max() <= 1e-8
        assert np.abs(shifted.m2_hat - base.m2_hat).max() <= 1e-8

    def test_component_fits_are_mean_zero(self):
        data, pair = gaussian_problem(75)
        for fit in (backfit_iterative(pair, data.y), backfit_direct(pair, data.y)):
            assert abs(fit.m1_hat.mean()) <= 1e-8
            assert abs(fit.m2_hat.mean()) <= 1e-8

    def test_delta_ratios_approach_product_radius(self):
        # coarse geometric-rate check on one deterministic instance
        data, pair = gaussian_problem(76)
        bw = RateBandwidth(0.2)
        rho = certify(pair, Kernel.GAUSSIAN, bw, bw, data).spectral.rho_product
        m1 = np.zeros(data.n)
        m2 = np.zeros(data.n)
        deltas = []
        s1_star, s2_star = center(pair.s1), center(pair.s2)
        for _ in range(25):
            m1_new = s1_star @ (data.y - m2)
            m2_new = s2_star @ (data.y - m1_new)
            deltas.append(
                max(np.abs(m1_new - m1).max(), np.abs(m2_new - m2).max())
            )
            m1, m2 = m1_new, m2_new
        ratios = [b / a for a, b in zip(deltas, deltas[1:]) if a > 1e-14]
        assert ratios and max(ratios[3:]) <= rho + 0.1

    def test_non_convergence_on_unit_radius(self, triangular_cluster_problem):
        data, kernel, bw = triangular_cluster_problem
        pair = build_pair(data, kernel, bw, bw)
        cert = certify(pair, kernel, bw, bw, data)
        assert cert.verdict is Verdict.NOT_CERTIFIED
        with pytest.raises(BackfitNonConvergenceError) as exc:
            backfit_iterative(pair, data.y, max_iter=400)
        assert exc.value.iterations == 400
        assert exc.value.final_delta > 1e-10

    def test_validation(self):
        data, pair = gaussian_problem(77)
        with pytest.raises(ValueError):
            backfit_iterative(pair, data.y, tol=0.0)
        # inf would stop after one sweep and nan would run every sweep
        for tol in (np.inf, np.nan, -np.inf):
            with pytest.raises(ValueError, match="tol must be positive"):
                backfit_iterative(pair, data.y, tol=tol)
        with pytest.raises(ValueError):
            backfit_iterative(pair, data.y, sweep="sor")
        with pytest.raises(ValueError):
            backfit_iterative(pair, data.y, max_iter=0)
        with pytest.raises(ValueError):
            backfit_iterative(pair, data.y[:-1])
        with pytest.raises(ValueError):
            backfit_iterative(pair, np.where(np.arange(data.n) == 0, np.nan, data.y))

    def test_result_serializes(self):
        data, pair = gaussian_problem(78)
        fit = backfit_iterative(pair, data.y)
        blob = json.loads(json.dumps(fit.to_dict()))
        assert blob["method"] == "iterative"
        assert len(blob["m1_hat"]) == data.n

    def test_fitted_values_and_residuals(self):
        data, pair = gaussian_problem(79)
        fit = backfit_direct(pair, data.y)
        assert_allclose(
            fit.fitted_values(), fit.alpha_hat + fit.m1_hat + fit.m2_hat, atol=0.0
        )
        assert_allclose(fit.residuals(data.y), data.y - fit.fitted_values(), atol=0.0)
        manual = normal_equation_residual(pair, data.y, fit.m1_hat, fit.m2_hat)
        assert fit.residual_normal_eq == pytest.approx(manual, abs=0.0)


class TestPredict:
    def test_tiny_bandwidth_recovers_fitted_point(self):
        data, pair = gaussian_problem(80, n=25)
        fit = backfit_direct(pair, data.y)
        i = 7
        # uniform window narrower than the nearest neighbor distance
        eps_u = 0.9 * np.min(np.abs(np.delete(data.u, i) - data.u[i]))
        eps_v = 0.9 * np.min(np.abs(np.delete(data.v, i) - data.v[i]))
        got = predict(
            data,
            fit,
            (data.u[i], data.v[i]),
            Kernel.UNIFORM,
            ConstantBandwidth(eps_u),
            ConstantBandwidth(eps_v),
        )
        assert got == pytest.approx(fit.alpha_hat + fit.m1_hat[i] + fit.m2_hat[i], abs=1e-12)

    def test_constant_fit_predicts_constant(self):
        data, pair = gaussian_problem(81, n=20)
        y = np.full(data.n, 2.5)
        fit = backfit_direct(pair, y)
        got = predict(
            data, fit, (data.u.mean(), data.v.mean()), Kernel.GAUSSIAN,
            ConstantBandwidth(0.5), ConstantBandwidth(0.5),
        )
        assert got == pytest.approx(2.5, abs=1e-9)

    def test_midpoint_averages_two_nearest(self):
        data, pair = gaussian_problem(82, n=30)
        fit = backfit_direct(pair, data.y)
        # query between the two smallest u values, window covering only them
        order = data.sort_u
        u0, u1 = data.u[order[0]], data.u[order[1]]
        q = 0.5 * (u0 + u1)
        h_u = (u1 - u0) * 0.9
        assert data.u[order[2]] - q > h_u  # nothing else in range
        vq = data.v[order[0]]
        h_v = 0.9 * np.min(np.abs(np.delete(data.v, order[0]) - vq))
        got = predict(
            data, fit, (q, vq), Kernel.UNIFORM,
            ConstantBandwidth(h_u), ConstantBandwidth(h_v),
        )
        want = (
            fit.alpha_hat
            + 0.5 * (fit.m1_hat[order[0]] + fit.m1_hat[order[1]])
            + fit.m2_hat[order[0]]
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_far_query_with_compact_kernel_raises(self):
        data, pair = gaussian_problem(83, n=15)
        fit = backfit_direct(pair, data.y)
        with pytest.raises(ValueError):
            predict(
                data, fit, (data.u.max() + 100.0, data.v[0]), Kernel.UNIFORM,
                ConstantBandwidth(0.5), ConstantBandwidth(0.5),
            )

    def test_overflowing_offsets_weigh_zero(self):
        # at h = 1e-320 every (q - x) / h overflows to inf, which the
        # Gaussian weighs zero, so the query has no mass at all
        data, pair = gaussian_problem(83, n=30)
        fit = backfit_direct(pair, data.y)
        tiny = ConstantBandwidth(1e-320)
        with pytest.raises(ValueError, match="zero total kernel mass at u=0.5"):
            predict(data, fit, (0.5, 0.5), Kernel.GAUSSIAN, tiny, tiny)

    @pytest.mark.parametrize(
        "kernel", [k for k in ALL_KERNELS if k.compact_support], ids=lambda k: k.value
    )
    @pytest.mark.parametrize(
        ("bw", "query_h"),
        [
            (ConstantBandwidth(0.25), lambda x, at: 0.25),
            (RateBandwidth(0.3), lambda x, at: len(x) ** -0.3 * float(np.std(x))),
            (KNearestBandwidth(7), lambda x, at: float(np.sort(np.abs(x - at))[6])),
        ],
        ids=["constant", "rate", "knn"],
    )
    def test_windowed_prediction_matches_full_rows(self, kernel, bw, query_h):
        # queries on and between grid points a multiple of h = 0.25 apart,
        # at the range ends, and at random; the window drops only points
        # the kernel weighs zero.  The expected values weigh all n points
        # at the bandwidth of each rule's own definition (query_h), not
        # through the spec under test
        rng = np.random.default_rng(88)
        u = np.concatenate([np.arange(40) * 0.125, rng.uniform(0.0, 5.0, 60)])
        v = rng.normal(size=100)
        data = Dataset(y=rng.normal(size=100), u=u, v=v)
        fit = FitResult(
            alpha_hat=0.3, m1_hat=rng.normal(size=100), m2_hat=rng.normal(size=100),
            method="direct", sweep=None, iterations=0, final_delta=0.0, residual_normal_eq=0.0,
        )
        queries = [(0.5, 0.0), (0.625, v.min()), (u.max(), v.max()), (4.875, 0.1)]
        queries += list(zip(rng.uniform(0.0, 5.0, 20), rng.uniform(-1.0, 1.0, 20)))
        for q in queries:
            want = fit.alpha_hat
            for x, comp, at in ((u, fit.m1_hat, q[0]), (v, fit.m2_hat, q[1])):
                w = eval_scaled(kernel, at - x, query_h(x, at))
                want += float(w @ comp) / float(w.sum())
            got = predict(data, fit, q, kernel, bw, bw)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_knn_and_rate_query_bandwidths(self):
        data, pair = gaussian_problem(84, n=15)
        fit = backfit_direct(pair, data.y)
        got = predict(
            data, fit, (data.u.mean(), data.v.mean()), Kernel.GAUSSIAN,
            KNearestBandwidth(3), RateBandwidth(0.2),
        )
        assert np.isfinite(got)

    def test_per_point_bandwidth_rejected(self):
        data, pair = gaussian_problem(85, n=10)
        fit = backfit_direct(pair, data.y)
        with pytest.raises(ValueError):
            predict(
                data, fit, (0.0, 0.0), Kernel.GAUSSIAN,
                PerPointBandwidth(np.full(10, 0.5)), ConstantBandwidth(0.5),
            )

    def test_mismatched_fit_rejected(self):
        data, pair = gaussian_problem(86, n=10)
        other, _ = gaussian_problem(87, n=12)
        fit = backfit_direct(pair, data.y)
        with pytest.raises(ValueError):
            predict(
                other, fit, (0.0, 0.0), Kernel.GAUSSIAN,
                ConstantBandwidth(0.5), ConstantBandwidth(0.5),
            )
