"""Correctness checks of one benchmark run, against independent oracles.

Run as ``python3 bench/oracle.py REQUEST.json``; prints one JSON object
``{"ok": bool, "failures": [...], "values": {...}}``.  It runs in its own
process so that its matrices never count toward the peak memory of the
process that ran the timed passes.

The oracles re-derive everything from the inputs with plain numpy and
scipy: kernel weights, bandwidths, smoother products, radii and fits.
Only the pinned values in ``pinned.json`` come from the package, as it
was when the benchmark was defined.

Tolerances:

- ``rho_product``: 1e-9 for the dense certificate of ``fit``.  The power
  route of ``simulate`` stops on a residual of 1e-10, which leaves up to
  ~7e-8 against the dense radius on these near-critical replicates, so it
  gets 1e-6.  Both pass ARPACK-level agreement (~1e-12).
- normal-equation residual <= 1e-9 and iterative-vs-direct gap <= 1e-8:
  the acceptance criterion 1 tolerances.
- verdicts, gap flags and simulate fractions: exact.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigs

RHO_MARGIN = 1e-8
RHO_TOL = {"fit-gauss-n2000": 1e-9, "simulate-uniform-n200": 1e-6}
RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-8
PREDICT_TOL = 1e-9
PINNED = Path(__file__).resolve().parent / "pinned.json"


# -- kernels, bandwidths and smoothers, written from their definitions -------
def kernel(name: str, t: np.ndarray) -> np.ndarray:
    if name == "uniform":
        out = np.where(np.abs(t) < 1.0, 0.5, 0.0)
    elif name == "epanechnikov":
        out = 0.75 * np.maximum(0.0, 1.0 - t * t)
    elif name == "gaussian":
        out = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    else:
        raise ValueError(name)
    return np.where(out < 1e-300, 0.0, out)


def knn_bandwidth(x: np.ndarray, k: int, block: int = 256) -> np.ndarray:
    """Distance from each point to its k-th nearest other sample point."""
    h = np.empty(len(x))
    for lo in range(0, len(x), block):
        d = np.abs(x[lo : lo + block, None] - x[None, :])
        h[lo : lo + block] = np.partition(d, k, axis=1)[:, k]
    return h


def smoother_rows(x: np.ndarray, h: np.ndarray, kern: str, lo: int, hi: int) -> np.ndarray:
    raw = kernel(kern, (x[lo:hi, None] - x[None, :]) / h[lo:hi, None]) / h[lo:hi, None]
    return raw / raw.sum(axis=1)[:, None]


def dense_smoother(x: np.ndarray, h: np.ndarray, kern: str) -> np.ndarray:
    return smoother_rows(x, h, kern, 0, len(x))


def apply_centered(x, h, kern, vec, block: int = 256) -> np.ndarray:
    """(I - 11'/n) S vec without forming S."""
    out = np.concatenate(
        [smoother_rows(x, h, kern, lo, lo + block) @ vec for lo in range(0, len(x), block)]
    )
    return out - out.mean()


def residual(apply1, apply2, y, m1, m2) -> float:
    """Summed infinity-norm residual of m1 = S1*(y - m2), m2 = S2*(y - m1)."""
    return float(np.abs(m1 - apply1(y - m2)).max() + np.abs(m2 - apply2(y - m1)).max())


def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.values: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def pinned_for(workload: str, size: str, seed: int) -> dict | None:
    if size != "full" or not PINNED.exists():
        return None
    return json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))


# -- fit-gauss-n2000 ---------------------------------------------------------
def check_fit(req: dict, c: Checks) -> None:
    out = Path(req["out_dir"])
    data = read_columns(Path(req["input_csv"]))
    y, u, v = data["y"], data["u"], data["v"]
    n = len(y)
    report = json.loads((out / "fit.json").read_text())
    cert, fit = report["certificate"], report["fit"]

    hu = np.full(n, float(np.std(u)) * n**-0.2)
    hv = np.full(n, float(np.std(v)) * n**-0.2)
    s1 = dense_smoother(u, hu, "gaussian")
    s2 = dense_smoother(v, hv, "gaussian")
    s1 -= s1.mean(axis=0)
    s2 -= s2.mean(axis=0)

    product = LinearOperator((n, n), matvec=lambda x: s2 @ (s1 @ x), dtype=float)
    rho = float(np.abs(eigs(product, k=6, which="LM", return_eigenvectors=False)).max())
    rho_prog = cert["spectral"]["rho_product"]
    c.expect(
        abs(rho_prog - rho) <= RHO_TOL[req["workload"]],
        f"rho_product {rho_prog!r} differs from the ARPACK oracle {rho!r}",
    )
    c.expect(
        cert["verdict"] == "certified_by_gap_conditions",
        f"verdict {cert['verdict']} (a Gaussian kernel passes every gap condition)",
    )
    c.expect(cert["regular_s1"] and cert["regular_s2"], "smoothers not reported regular")

    m1, m2 = np.array(fit["m1_hat"]), np.array(fit["m2_hat"])
    res = residual(lambda x: s1 @ x, lambda x: s2 @ x, y, m1, m2)
    m2_direct = np.linalg.solve(np.eye(n) - s2 @ s1, s2 @ (y - s1 @ y))
    m1_direct = s1 @ (y - m2_direct)
    gap = float(max(np.abs(m1 - m1_direct).max(), np.abs(m2 - m2_direct).max()))
    c.values.update({"residual_normal_eq": res, "iter_direct_gap": gap, "rho_product": rho})
    c.expect(res <= RESIDUAL_TOL, f"normal-equation residual {res:.3e} > {RESIDUAL_TOL:g}")
    c.expect(gap <= GAP_TOL, f"iterative fit differs from the direct oracle by {gap:.3e}")
    c.expect(abs(fit["alpha_hat"] - y.mean()) <= 1e-12, "alpha_hat is not mean(y)")

    curves = read_columns(out / "curves.csv")
    c.expect(
        np.array_equal(curves["m1_hat"], m1) and np.array_equal(curves["m2_hat"], m2),
        "curves.csv components differ from fit.json",
    )
    c.expect(
        all(np.array_equal(curves[k], data[k]) for k in ("y", "u", "v")),
        "curves.csv does not echo the input",
    )

    pinned = pinned_for(req["workload"], req["size"], req["seed"])
    if pinned is not None:
        c.expect(cert["verdict"] == pinned["verdict"], "verdict differs from the pinned value")
        c.expect(
            abs(rho_prog - pinned["rho_product"]) <= RHO_TOL[req["workload"]],
            f"rho_product {rho_prog!r} differs from the pinned {pinned['rho_product']!r}",
        )


# -- simulate-uniform-n200 ---------------------------------------------------
def check_simulate(req: dict, c: Checks) -> None:
    out = Path(req["out_dir"])
    p, seed = req["params"], req["seed"]
    n, reps, h = p["n"], p["replicates"], p["bandwidth"]
    report = json.loads((out / "simulation.json").read_text())["report"]
    with open(out / "replicates.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    c.expect(len(rows) == reps and report["replicates"] == reps, "wrong replicate count")
    c.expect(report["n"] == n, "wrong n in report")

    hs = np.full(n, h)
    gap_ok, certified, rhos, worst = [], [], [], 0.0
    for rep, row in enumerate(rows):
        # the generator's documented stream rule: entropy (seed, replicate),
        # u then v drawn uniform on the unit square
        rng = np.random.default_rng([seed, rep])
        u = rng.uniform(0.0, 1.0, n)
        v = rng.uniform(0.0, 1.0, n)
        gaps_u, gaps_v = np.diff(np.sort(u)), np.diff(np.sort(v))
        ok = bool(np.all(gaps_u / h < 1.0) and np.all(gaps_v / h < 1.0))
        s1 = dense_smoother(u, hs, "uniform")
        s2 = dense_smoother(v, hs, "uniform")
        s1 -= s1.mean(axis=0)
        s2 -= s2.mean(axis=0)
        rho = float(np.abs(np.linalg.eigvals(s2 @ s1)).max())
        rho_prog = float(row["rho_product"])
        row_gap = row["gap_ok"] == "true"
        row_cert = row["certified"] == "true"
        worst = max(worst, abs(rho_prog - rho))
        c.expect(row_gap == ok, f"replicate {rep}: gap_ok {row_gap}, oracle {ok}")
        c.expect(
            float(row["max_gap_u"]) == float(gaps_u.max())
            and float(row["max_gap_v"]) == float(gaps_v.max()),
            f"replicate {rep}: max gaps differ from the oracle",
        )
        if abs(rho - (1.0 - RHO_MARGIN)) > RHO_TOL[req["workload"]]:
            c.expect(
                row_cert == (rho < 1.0 - RHO_MARGIN),
                f"replicate {rep}: certified {row_cert} but oracle rho {rho!r}",
            )
        gap_ok.append(row_gap)
        certified.append(row_cert)
        rhos.append(rho_prog)
    c.values["rho_max_error"] = worst
    c.expect(
        worst <= RHO_TOL[req["workload"]],
        f"rho_product differs from the dense oracle by up to {worst:.3e}",
    )
    c.expect(
        report["fraction_gap_ok"] == sum(gap_ok) / reps
        and report["fraction_certified"] == sum(certified) / reps,
        "simulate fractions do not match the replicate rows",
    )
    bound = 2.0 * n * (1.0 - h) ** (n - 1)
    c.expect(
        math.isclose(report["analytic_bound"], bound, rel_tol=1e-12),
        f"analytic bound {report['analytic_bound']!r}, expected {bound!r}",
    )

    pinned = pinned_for(req["workload"], req["size"], seed)
    if pinned is not None:
        c.expect(
            report["fraction_gap_ok"] == pinned["fraction_gap_ok"]
            and report["fraction_certified"] == pinned["fraction_certified"],
            "simulate fractions differ from the pinned values",
        )
        c.expect(
            gap_ok == pinned["gap_ok"] and certified == pinned["certified"],
            "per-replicate verdicts differ from the pinned values",
        )
        diff = max(abs(a - b) for a, b in zip(rhos, pinned["rho_product"]))
        c.expect(
            diff <= RHO_TOL[req["workload"]],
            f"rho_product differs from the pinned values by up to {diff:.3e}",
        )


# -- smooth-knn-n4000 --------------------------------------------------------
def check_knn(req: dict, c: Checks) -> None:
    out = Path(req["out_dir"])
    k = req["params"]["k"]
    data = read_columns(Path(req["input_csv"]))
    y, u, v = data["y"], data["u"], data["v"]
    ref = np.load(out / "reference.npz")
    hu, hv = knn_bandwidth(u, k), knn_bandwidth(v, k)

    def apply1(x):
        return apply_centered(u, hu, "epanechnikov", x)

    def apply2(x):
        return apply_centered(v, hv, "epanechnikov", x)

    res_iter = residual(apply1, apply2, y, ref["iter_m1"], ref["iter_m2"])
    res_direct = residual(apply1, apply2, y, ref["direct_m1"], ref["direct_m2"])
    gap = float(
        max(
            np.abs(ref["iter_m1"] - ref["direct_m1"]).max(),
            np.abs(ref["iter_m2"] - ref["direct_m2"]).max(),
        )
    )
    c.values.update(
        {"residual_normal_eq": max(res_iter, res_direct), "iter_direct_gap": gap}
    )
    c.expect(res_iter <= RESIDUAL_TOL, f"iterative residual {res_iter:.3e} > {RESIDUAL_TOL:g}")
    c.expect(res_direct <= RESIDUAL_TOL, f"direct residual {res_direct:.3e} > {RESIDUAL_TOL:g}")
    c.expect(gap <= GAP_TOL, f"iterative and direct fits differ by {gap:.3e}")
    alpha = float(ref["alpha"][0])
    c.expect(abs(alpha - y.mean()) <= 1e-12, "alpha_hat is not mean(y)")

    expected = np.full(len(ref["grid"]), alpha)
    for col, x, comp in ((0, u, ref["iter_m1"]), (1, v, ref["iter_m2"])):
        for i, q in enumerate(ref["grid"][:, col]):
            d = np.abs(x - q)
            hq = np.partition(d, k - 1)[k - 1]
            w = kernel("epanechnikov", (q - x) / hq) / hq
            expected[i] += float(w @ comp) / float(w.sum())
    err = float(np.abs(ref["predictions"] - expected).max())
    c.values["predict_error"] = err
    c.expect(err <= PREDICT_TOL, f"predictions differ from the oracle by {err:.3e}")

    curves = read_columns(out / "curves.csv")
    c.expect(
        np.array_equal(curves["m1_hat"], ref["iter_m1"])
        and np.array_equal(curves["m2_hat"], ref["iter_m2"]),
        "curves.csv components differ from the fit",
    )
    c.expect(
        all(np.array_equal(curves[key], data[key]) for key in ("y", "u", "v")),
        "curves.csv does not echo the input",
    )


CHECKS = {
    "fit-gauss-n2000": check_fit,
    "smooth-knn-n4000": check_knn,
    "simulate-uniform-n200": check_simulate,
}


def main(argv: list[str]) -> int:
    req = json.loads(Path(argv[0]).read_text())
    c = Checks()
    try:
        CHECKS[req["workload"]](req, c)
    except (OSError, KeyError, ValueError) as exc:
        c.failures.append(f"{type(exc).__name__}: {exc}")
    print(json.dumps({"ok": not c.failures, "failures": c.failures, "values": c.values}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
