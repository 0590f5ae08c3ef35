"""Data generation, spacing statistics, analytic bounds, Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nwbackfit import simulate
from nwbackfit.kernels import ConstantBandwidth, Kernel, RateBandwidth
from nwbackfit.simulate import (
    BivariateNormal,
    IndependentUniform,
    SimSpec,
    density_ratio_sup,
    gap_exceedance_bound,
    generate,
    max_gap,
    run_monte_carlo,
    uniform_max_gap_exceedance,
)


class TestGenerate:
    def test_same_spec_same_bits(self):
        spec = SimSpec(n=100, seed=42)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_replicates_differ_and_are_isolated(self):
        spec = SimSpec(n=50, seed=42)
        r0 = generate(spec, replicate=0)
        r1 = generate(spec, replicate=1)
        assert not np.array_equal(r0.u, r1.u)
        # a replicate is reproducible without generating its predecessors
        again = generate(spec, replicate=1)
        assert np.array_equal(r1.y, again.y)

    def test_zero_noise_zero_components(self):
        spec = SimSpec(n=30, m1_fn="zero", m2_fn="zero", noise_sd=0.0, alpha=3.5, seed=1)
        data = generate(spec)
        assert_allclose(data.y, np.full(30, 3.5), atol=0.0)

    def test_components_centered_in_sample(self):
        spec = SimSpec(n=10_000, m1_fn="identity", m2_fn="zero", noise_sd=0.0, alpha=2.0, seed=2)
        data = generate(spec)
        # y - alpha is the centered identity component of u
        assert abs((data.y - 2.0).mean()) <= 1e-12
        assert_allclose(data.y - 2.0, data.u - data.u.mean(), atol=1e-12)

    def test_sample_mean_near_alpha(self):
        noise_sd = 0.5
        spec = SimSpec(n=10_000, noise_sd=noise_sd, alpha=1.0, seed=3)
        data = generate(spec)
        assert abs(data.y.mean() - 1.0) <= 3.0 * noise_sd / math.sqrt(10_000)

    def test_normal_design_correlation(self):
        spec = SimSpec(n=20_000, design=BivariateNormal(rho=0.6), seed=4)
        data = generate(spec)
        got = np.corrcoef(data.u, data.v)[0, 1]
        assert got == pytest.approx(0.6, abs=0.05)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(n=1)
        with pytest.raises(ValueError):
            SimSpec(n=10, noise_sd=-0.1)
        with pytest.raises(ValueError):
            SimSpec(n=10, m1_fn="quartic")
        with pytest.raises(ValueError):
            BivariateNormal(rho=1.0)
        with pytest.raises(ValueError):
            generate(SimSpec(n=10), replicate=-1)


class TestMaxGap:
    def test_hand_cases(self):
        assert max_gap(np.array([0.0, 1.0, 2.0, 3.0])) == 1.0
        assert max_gap(np.array([0.0, 0.0, 5.0])) == 5.0
        assert max_gap(np.array([3.0, 0.0, 1.0])) == 2.0

    def test_matches_pairwise_oracle(self):
        # nearest strictly-greater neighbor per point, maximized
        rng = np.random.default_rng(90)
        x = rng.uniform(0.0, 1.0, 1000)
        brute = 0.0
        for xi in x:
            above = x[x > xi]
            if len(above):
                brute = max(brute, float(above.min() - xi))
        assert max_gap(x) == pytest.approx(brute, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_gap(np.array([1.0]))


class TestGapExceedanceBound:
    def test_threshold_one_gives_zero(self):
        assert gap_exceedance_bound(100, 1.0).exact == 0.0
        assert gap_exceedance_bound(100, 1.5).exact == 0.0

    def test_vanishing_threshold_tends_to_n(self):
        assert gap_exceedance_bound(100, 1e-12).exact == pytest.approx(100.0, rel=1e-9)

    def test_hand_value(self):
        b = gap_exceedance_bound(100, 0.1)
        # independent route: exp-log evaluation of the same quantity
        assert b.exact == pytest.approx(math.exp(math.log(100.0) + 99.0 * math.log(0.9)), rel=1e-12)
        assert b.exact == pytest.approx(2.95e-3, rel=0.01)

    def test_exact_below_exponential(self):
        for n in (5, 50, 500):
            for h in (0.01, 0.2, 0.9):
                b = gap_exceedance_bound(n, h)
                assert b.exact <= b.exponential

    def test_dominates_tight_union_bound(self):
        # (n-1)(1-h)^n is the per-gap union bound; the reported form is looser
        for n in (10, 100):
            for h in (0.05, 0.3):
                b = gap_exceedance_bound(n, h)
                assert b.exact >= (n - 1) * (1.0 - h) ** n

    def test_monotone_in_h(self):
        hs = np.linspace(0.01, 0.99, 25)
        vals = [gap_exceedance_bound(50, float(h)).exact for h in hs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_eventually_monotone_in_n(self):
        # decreasing once n exceeds (1-h)/h
        h = 0.1
        start = int((1.0 - h) / h) + 1
        vals = [gap_exceedance_bound(n, h).exact for n in range(start, start + 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            gap_exceedance_bound(1, 0.5)
        with pytest.raises(ValueError):
            gap_exceedance_bound(10, 0.0)


class TestUniformExceedance:
    def test_frequency_below_bound(self):
        # empirical exceedance within 3 binomial ses of the analytic bound
        for n, h in ((50, 0.15), (100, 0.08)):
            freq = uniform_max_gap_exceedance(n, h, 20_000, seed=91)
            bound = gap_exceedance_bound(n, h).exact
            se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / 20_000)
            assert freq <= bound + 3.0 * se

    def test_deterministic(self):
        a = uniform_max_gap_exceedance(40, 0.1, 5000, seed=92)
        b = uniform_max_gap_exceedance(40, 0.1, 5000, seed=92)
        assert a == b

    def test_extremes(self):
        assert uniform_max_gap_exceedance(10, 1.1, 100, seed=93) == 0.0
        assert uniform_max_gap_exceedance(10, 1e-9, 100, seed=93) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_max_gap_exceedance(10, 0.5, 0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_points(self, n):
        # as for the analytic bound: a max gap needs two points
        with pytest.raises(ValueError, match="n must be >= 2"):
            uniform_max_gap_exceedance(n, 0.5, 10)

    @pytest.mark.parametrize("h", [-1.0, 0.0, np.nan, np.inf])
    def test_needs_positive_h(self, h):
        # h = -1 would report 1.0 and h = nan 0.0, silently; an infinite h
        # gives bounds that no JSON report can hold
        with pytest.raises(ValueError, match="h must be positive and finite"):
            uniform_max_gap_exceedance(10, h, 10)
        with pytest.raises(ValueError, match="h must be positive and finite"):
            gap_exceedance_bound(10, h)

    @pytest.mark.parametrize("budget", [75, 24], ids=["three-per-block", "one-per-block"])
    def test_blocks_draw_one_stream(self, monkeypatch, budget):
        # the samples drawn block by block are those of one draw, so the
        # frequency at every replicate's own max gap matches a one-block
        # reference; 10 samples of 25 points make blocks of 3, 3, 3 and 1
        # samples, or ten of one (a budget below n takes one per block)
        n, replicates, seed = 25, 10, 94
        x = np.sort(np.random.default_rng(seed).random((replicates, n)), axis=1)
        gaps = np.diff(x, axis=1).max(axis=1)
        monkeypatch.setattr(simulate, "EXCEEDANCE_BLOCK_VALUES", budget)
        for h in gaps:
            want = float((gaps >= h).sum()) / replicates
            assert uniform_max_gap_exceedance(n, float(h), replicates, seed=seed) == want

    def test_block_memory(self):
        # blocks hold about EXCEEDANCE_BLOCK_VALUES values, not a count of
        # samples: one block of these 400 samples of 20,000 points and their
        # gaps would hold 128 MB
        tracemalloc.start()
        try:
            uniform_max_gap_exceedance(20_000, 1e-3, 400, seed=95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * simulate.EXCEEDANCE_BLOCK_VALUES


class TestRunMonteCarlo:
    def test_oversized_bandwidth_all_pass(self):
        spec = SimSpec(n=25, seed=95)
        bw = ConstantBandwidth(10.0)
        rep = run_monte_carlo(spec, Kernel.UNIFORM, bw, bw, replicates=10)
        assert rep.fraction_gap_ok == 1.0
        assert rep.fraction_certified == 1.0
        assert rep.analytic_bound is not None
        assert len(rep.rows) == 10

    def test_borderline_bandwidth_gives_mixture(self):
        # max gaps of n uniforms concentrate near log(n)/n, so a
        # threshold there passes on both coordinates only sometimes
        n = 50
        h = 1.2 * math.log(n) / n
        spec = SimSpec(n=n, seed=96)
        bw = ConstantBandwidth(h)
        rep = run_monte_carlo(
            spec, Kernel.UNIFORM, bw, bw, replicates=60, certify_replicates=False
        )
        assert 0.0 < rep.fraction_gap_ok < 1.0
        assert rep.fraction_certified is None
        assert all(r.certified is None for r in rep.rows)

    def test_certified_fraction_dominates_gap_fraction(self):
        n = 40
        spec = SimSpec(n=n, seed=97)
        bw = ConstantBandwidth(1.35 * math.log(n) / n)
        rep = run_monte_carlo(spec, Kernel.UNIFORM, bw, bw, replicates=40)
        assert rep.fraction_certified >= rep.fraction_gap_ok

    def test_analytic_bound_value_and_availability(self):
        spec = SimSpec(n=30, seed=98)
        bw = ConstantBandwidth(0.2)
        rep = run_monte_carlo(
            spec, Kernel.UNIFORM, bw, bw, replicates=3, certify_replicates=False
        )
        want = 2.0 * gap_exceedance_bound(30, 0.2).exact
        assert rep.analytic_bound == pytest.approx(want, rel=1e-12)
        # data-dependent bandwidth: no analytic bound
        rep2 = run_monte_carlo(
            spec, Kernel.UNIFORM, RateBandwidth(0.2), RateBandwidth(0.2),
            replicates=3, certify_replicates=False,
        )
        assert rep2.analytic_bound is None
        # non-uniform design: no analytic bound
        spec3 = SimSpec(n=30, design=BivariateNormal(), seed=99)
        rep3 = run_monte_carlo(
            spec3, Kernel.GAUSSIAN, bw, bw, replicates=3, certify_replicates=False
        )
        assert rep3.analytic_bound is None

    def test_deterministic_report(self):
        spec = SimSpec(n=30, seed=100)
        bw = ConstantBandwidth(0.5)
        a = run_monte_carlo(spec, Kernel.EPANECHNIKOV, bw, bw, replicates=6)
        b = run_monte_carlo(spec, Kernel.EPANECHNIKOV, bw, bw, replicates=6)
        assert a.to_dict() == b.to_dict()
        assert a.rows == b.rows

    @pytest.mark.parametrize("design", [IndependentUniform(), BivariateNormal(rho=0.5)])
    def test_response_does_not_enter_the_study(self, design):
        # generate draws u and v before the noise, and the gap conditions and
        # rho(S2* S1*) depend on the design alone, so the response's recipe
        # changes no row and no aggregate
        plain = SimSpec(n=40, design=design, seed=103)
        other = SimSpec(
            n=40, m1_fn="identity", m2_fn="zero", design=design, noise_sd=2.0, alpha=-3.0,
            seed=103,
        )
        bw = RateBandwidth(0.2)
        a = run_monte_carlo(plain, Kernel.GAUSSIAN, bw, bw, replicates=4)
        b = run_monte_carlo(other, Kernel.GAUSSIAN, bw, bw, replicates=4)
        assert not np.array_equal(generate(plain).y, generate(other).y)
        assert a.rows == b.rows
        assert a.to_dict() == b.to_dict()

    def test_report_serializes_aggregates_only(self):
        spec = SimSpec(n=20, seed=101)
        bw = ConstantBandwidth(0.6)
        rep = run_monte_carlo(spec, Kernel.TRIANGULAR, bw, bw, replicates=4)
        d = rep.to_dict()
        assert "rows" not in d
        assert d["replicates"] == 4

    def test_validation(self):
        spec = SimSpec(n=20, seed=102)
        bw = ConstantBandwidth(0.6)
        with pytest.raises(ValueError):
            run_monte_carlo(spec, Kernel.UNIFORM, bw, bw, replicates=0)


class TestDensityRatio:
    def test_independent_design_is_zero(self):
        assert density_ratio_sup(BivariateNormal(rho=0.0)) == 0.0

    def test_correlated_design_exceeds_one(self):
        assert density_ratio_sup(BivariateNormal(rho=0.5)) > 1.0

    def test_closed_form_point_value(self):
        # at z1 = z2 = 2 the ratio is exp(rho z^2 / (1 + rho)) / sqrt(1 - rho^2)
        rho = 0.5
        want = math.exp(rho * 4.0 / (1.0 + rho)) / math.sqrt(1.0 - rho * rho) - 1.0
        got = density_ratio_sup(BivariateNormal(rho=rho), bound=2.0, step=0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_grows_with_grid(self):
        rho = 0.3
        small = density_ratio_sup(BivariateNormal(rho=rho), bound=2.0)
        large = density_ratio_sup(BivariateNormal(rho=rho), bound=4.0)
        assert large > small

    def test_sign_symmetric_in_rho(self):
        a = density_ratio_sup(BivariateNormal(rho=0.4), bound=3.0, step=0.1)
        b = density_ratio_sup(BivariateNormal(rho=-0.4), bound=3.0, step=0.1)
        assert a == pytest.approx(b, rel=1e-12)

    def test_validation(self):
        with pytest.raises(TypeError):
            density_ratio_sup(IndependentUniform())
        with pytest.raises(ValueError):
            density_ratio_sup(BivariateNormal(rho=0.5), bound=0.0)
        with pytest.raises(ValueError):
            density_ratio_sup(BivariateNormal(rho=0.5), step=-1.0)
