"""Acceptance gate: one end-to-end test per shipping criterion.

Each test runs its full workload, prints a single summary line with the
measured margins (visible under ``pytest -s`` or ``-rA``), and asserts
on the pinned tolerances.  Test names carry the criterion number so a
plain ``pytest -v`` run yields one pass/fail line per criterion.
"""

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from nwbackfit.cli import main
from nwbackfit.fitting import backfit_direct, backfit_iterative
from nwbackfit.io import write_dataset_csv
from nwbackfit.kernels import ConstantBandwidth, Kernel, RateBandwidth
from nwbackfit.simulate import (
    BivariateNormal,
    IndependentUniform,
    SimSpec,
    density_ratio_sup,
    gap_exceedance_bound,
    generate,
    run_monte_carlo,
    uniform_max_gap_exceedance,
)
from nwbackfit.smoothers import build_pair, build_smoother, center
from nwbackfit.spectral import certify, check_gap_conditions, check_regularity, spectral_radius

from conftest import ALL_KERNELS, brute_force_regular, gap_passing_constant, random_stochastic


def report(number, ok, detail):
    line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_iterative_agrees_with_direct_on_certified_instances():
    start = time.perf_counter()
    bw = RateBandwidth(0.2)
    uncertified = 0
    worst_gap = 0.0
    worst_resid = 0.0
    for rep in range(100):
        rho = float(np.random.default_rng(100 + rep).uniform(-0.8, 0.8))
        spec = SimSpec(
            n=200, design=BivariateNormal(rho=rho), noise_sd=0.3, seed=1000 + rep
        )
        data = generate(spec)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        if not certify(pair, Kernel.GAUSSIAN, bw, bw, data).certified:
            uncertified += 1
            continue
        direct = backfit_direct(pair, data.y)
        worst_resid = max(worst_resid, direct.residual_normal_eq)
        for sweep in ("gauss-seidel", "jacobi"):
            fit = backfit_iterative(pair, data.y, sweep=sweep)
            gap = max(
                np.abs(fit.m1_hat - direct.m1_hat).max(),
                np.abs(fit.m2_hat - direct.m2_hat).max(),
                abs(fit.alpha_hat - direct.alpha_hat),
            )
            worst_gap = max(worst_gap, gap)
            worst_resid = max(worst_resid, fit.residual_normal_eq)
    elapsed = time.perf_counter() - start
    ok = (
        uncertified == 0
        and worst_gap <= 1e-8
        and worst_resid <= 1e-9
        and elapsed <= 60.0
    )
    report(
        1,
        ok,
        f"{100 - uncertified}/100 instances certified, "
        f"max sweep-vs-direct gap {worst_gap:.2e} (tol 1e-8), "
        f"max normal-equation residual {worst_resid:.2e} (tol 1e-9), "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_perron_structure_and_centered_spectrum_transfer():
    rng = np.random.default_rng(202)
    bad_gap = 0
    worst_perron = 0.0
    worst_other_modulus = 0.0
    transfer_checked = 0
    worst_transfer = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 51))
        kernel = ALL_KERNELS[trial % len(ALL_KERNELS)]
        x = rng.uniform(0.0, 1.0, n) if trial % 2 == 0 else rng.normal(0.0, 1.0, n)
        bw = gap_passing_constant(x, rng)
        if not check_gap_conditions(x, kernel, bw).condition_holds:
            bad_gap += 1
            continue
        s = build_smoother(x, kernel, bw)
        eigs = np.linalg.eigvals(s)
        theta = np.ones(n) / np.sqrt(n)
        worst_perron = max(worst_perron, float(np.linalg.norm(s @ theta - theta)))
        top = int(np.argmin(np.abs(eigs - 1.0)))
        rest = np.delete(eigs, top)
        # strict subdominance also certifies the unit eigenvalue is simple
        worst_other_modulus = max(worst_other_modulus, float(np.abs(rest).max()))
        pairwise = np.abs(eigs[:, None] - eigs[None, :])
        if np.min(pairwise[~np.eye(n, dtype=bool)]) <= 1e-6:
            continue
        expected = np.concatenate([[0.0], rest])
        actual = np.linalg.eigvals(center(s))
        cost = np.abs(expected[:, None] - actual[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst_transfer = max(worst_transfer, float(cost[rows, cols].max()))
        transfer_checked += 1
    ok = (
        bad_gap == 0
        and worst_perron <= 1e-10
        and worst_other_modulus < 1.0
        and transfer_checked >= 10
        and worst_transfer <= 1e-6
    )
    report(
        2,
        ok,
        f"100 smoothers, max |S.theta - theta| {worst_perron:.2e} (tol 1e-10), "
        f"max subdominant modulus {worst_other_modulus:.6f} (< 1), "
        f"centered-spectrum transfer checked on {transfer_checked} "
        f"distinct-spectrum instances, max matched distance {worst_transfer:.2e} "
        f"(tol 1e-6)",
    )


def test_criterion_3_gap_passing_datasets_certify_and_converge():
    rng = np.random.default_rng(303)
    gap_failures = 0
    rho_failures = 0
    convergence_failures = 0
    worst_rho = 0.0
    for trial in range(200):
        n = int(rng.integers(20, 61))
        kernel = ALL_KERNELS[trial % len(ALL_KERNELS)]
        design = (
            BivariateNormal(rho=float(rng.uniform(-0.7, 0.7)))
            if trial % 2 == 0
            else IndependentUniform()
        )
        spec = SimSpec(n=n, design=design, noise_sd=0.2, seed=30000 + trial)
        data = generate(spec)
        bw_u = gap_passing_constant(data.u, rng)
        bw_v = gap_passing_constant(data.v, rng)
        pair = build_pair(data, kernel, bw_u, bw_v)
        cert = certify(pair, kernel, bw_u, bw_v, data)
        if not (cert.gap_u.condition_holds and cert.gap_v.condition_holds):
            gap_failures += 1
            continue
        rho = cert.spectral.rho_product
        worst_rho = max(worst_rho, rho)
        if not rho < 1.0 - 1e-8:
            rho_failures += 1
            continue
        try:
            backfit_iterative(pair, data.y)
        except Exception:
            convergence_failures += 1
    ok = gap_failures == 0 and rho_failures == 0 and convergence_failures == 0
    report(
        3,
        ok,
        f"200 gap-passing datasets, spectral radius < 1 - 1e-8 in "
        f"{200 - rho_failures}/200 (max {worst_rho:.4f}), iterative converged in "
        f"{200 - convergence_failures}/200",
    )


def test_criterion_4_cluster_fixture_detected_and_cli_exits_nonzero(
    uniform_cluster_problem, tmp_path
):
    data, kernel, bw = uniform_cluster_problem
    pair = build_pair(data, kernel, bw, bw)
    regular = check_regularity(pair.s1) or check_regularity(pair.s2)
    rho_s1_star = spectral_radius(pair.s1_star)
    # the step vector +1/n_a on one cluster, -1/n_b on the other is fixed
    n_a = 6
    w = np.concatenate([np.full(n_a, 1.0 / n_a), np.full(n_a, -1.0 / n_a)])
    fixed_err = float(np.abs(pair.s1_star @ w - w).max())
    csv = tmp_path / "clusters.csv"
    write_dataset_csv(csv, data)
    rc = main(
        [
            "certify", "--input", str(csv), "--kernel", "uniform",
            "--bandwidth", "1.0", "--require-certificate",
            "--out", str(tmp_path / "out"),
        ]
    )
    ok = (
        regular is False
        and abs(rho_s1_star - 1.0) <= 1e-6
        and fixed_err <= 1e-12
        and rc != 0
    )
    report(
        4,
        ok,
        f"regularity={regular}, rho(S1*)={rho_s1_star:.12f} (1 +- 1e-6), "
        f"step vector fixed within {fixed_err:.2e}, strict CLI exit code {rc}",
    )


def test_criterion_5_max_spacing_bounds_at_scale():
    start = time.perf_counter()
    h_big = 1000.0 ** -0.2
    bw = ConstantBandwidth(h_big)
    mc = run_monte_carlo(
        SimSpec(n=1000, seed=505),
        Kernel.UNIFORM,
        bw,
        bw,
        replicates=500,
        certify_replicates=False,
    )
    h_small = 2.0 * np.log(100.0) / 100.0
    p_hat = uniform_max_gap_exceedance(100, h_small, 100_000, seed=550)
    bound = gap_exceedance_bound(100, h_small).exact
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / 100_000))
    elapsed = time.perf_counter() - start
    ok = (
        mc.fraction_gap_ok >= 0.998
        and p_hat <= bound + 3.0 * se
        and elapsed <= 300.0
    )
    report(
        5,
        ok,
        f"gap condition held in {mc.fraction_gap_ok:.1%} of 500 replicates at "
        f"n=1000 (need >= 99.8%); exceedance estimate {p_hat:.5f} vs analytic "
        f"bound {bound:.5f} + 3se {3 * se:.5f} at n=100 over 1e5 replicates; "
        f"{elapsed:.1f}s (limit 300s)",
    )


def test_criterion_6_density_ratio_fails_while_certificate_passes():
    design = BivariateNormal(rho=0.5)
    sup = density_ratio_sup(design)
    bw = RateBandwidth(0.2)
    mc = run_monte_carlo(
        SimSpec(n=500, design=design, seed=606),
        Kernel.GAUSSIAN,
        bw,
        bw,
        replicates=200,
    )
    ok = sup > 1.0 and mc.fraction_certified >= 0.99
    report(
        6,
        ok,
        f"density-ratio grid supremum {sup:.1f} (> 1, so the ratio-based "
        f"screen rejects), certificate passed in {mc.fraction_certified:.1%} "
        f"of 200 replicates (need >= 99%)",
    )


def test_criterion_7_degenerate_fixtures():
    data = generate(SimSpec(n=30, seed=707))
    huge = ConstantBandwidth(1e9)
    pair = build_pair(data, Kernel.UNIFORM, huge, huge)
    star_max = max(np.abs(pair.s1_star).max(), np.abs(pair.s2_star).max())
    fit_it = backfit_iterative(pair, data.y)
    fit_dir = backfit_direct(pair, data.y)
    flat_max = max(
        np.abs(fit_it.m1_hat).max(),
        np.abs(fit_it.m2_hat).max(),
        np.abs(fit_dir.m1_hat).max(),
        np.abs(fit_dir.m2_hat).max(),
    )
    alpha_exact = fit_it.alpha_hat == np.mean(data.y) == fit_dir.alpha_hat

    uncertified = 0
    const_max = 0.0
    rng = np.random.default_rng(717)
    for idx, kernel in enumerate(ALL_KERNELS):
        d = generate(SimSpec(n=40, seed=720 + idx))
        bw_u = gap_passing_constant(d.u, rng)
        bw_v = gap_passing_constant(d.v, rng)
        p = build_pair(d, kernel, bw_u, bw_v)
        if not certify(p, kernel, bw_u, bw_v, d).certified:
            uncertified += 1
            continue
        y = np.full(40, 7.5)
        for fit in (backfit_iterative(p, y), backfit_direct(p, y)):
            const_max = max(
                const_max, np.abs(fit.m1_hat).max(), np.abs(fit.m2_hat).max()
            )
            assert fit.alpha_hat == 7.5
    ok = (
        star_max <= 1e-14
        and flat_max <= 1e-12
        and alpha_exact
        and uncertified == 0
        and const_max <= 1e-10
    )
    report(
        7,
        ok,
        f"huge-bandwidth centered smoothers max entry {star_max:.2e} "
        f"(tol 1e-14), fitted components max {flat_max:.2e}, alpha == mean(y) "
        f"exactly; constant response on {len(ALL_KERNELS) - uncertified} "
        f"certified smoothers gave components max {const_max:.2e} (tol 1e-10)",
    )


def test_criterion_8_regularity_matches_brute_force_powers():
    rng = np.random.default_rng(808)
    disagreements = 0
    regular_count = 0
    for trial in range(500):
        n = int(rng.integers(2, 13))
        style = int(rng.integers(0, 5))
        s = random_stochastic(rng, n, style)
        fast = check_regularity(s)
        if fast != brute_force_regular(s):
            disagreements += 1
        regular_count += int(fast)
    ok = disagreements == 0
    report(
        8,
        ok,
        f"500 random row-stochastic matrices (n <= 12), "
        f"{500 - disagreements}/500 agree with the matrix-power oracle "
        f"({regular_count} regular, {500 - regular_count} not)",
    )
