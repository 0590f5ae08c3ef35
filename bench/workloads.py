"""The benchmark's three workloads: seeded inputs and one timed pass each.

Inputs are generated here with numpy from the benchmark seed, never by the
package under test; the program only sees the generated CSV (or, for the
``simulate`` subcommand, the seed it draws its own replicates from).

Every call into nwbackfit goes through a module attribute at call time
(``cli.main``, ``fitting.backfit_direct``, ...), so the tracer's wrappers
see the pipeline's calls exactly as they see the CLI's.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import nwbackfit.cli as cli
import nwbackfit.fitting as fitting
import nwbackfit.io as nwio
import nwbackfit.kernels as kernels
import nwbackfit.smoothers as smoothers

# Parameters per workload and size.  "tiny" keeps every code path of the
# full size but runs in well under a second; the smoke test uses it.
PARAMS = {
    "fit-gauss-n2000": {
        "full": {"n": 2000, "corr": 0.5},
        "tiny": {"n": 120, "corr": 0.5},
    },
    "smooth-knn-n4000": {
        "full": {"n": 4000, "k": 30, "grid": 1000},
        "tiny": {"n": 300, "k": 30, "grid": 40},
    },
    "simulate-uniform-n200": {
        "full": {"n": 200, "replicates": 60, "bandwidth": 0.04},
        "tiny": {"n": 40, "replicates": 6, "bandwidth": 0.2},
    },
}


class PassFailed(RuntimeError):
    """A pass ended with a nonzero exit code."""


def write_csv(path: Path, y: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Write a ``y,u,v`` CSV with round-tripping float reprs."""
    rows = (f"{a!r},{b!r},{c!r}" for a, b, c in zip(y.tolist(), u.tolist(), v.tolist()))
    path.write_text("y,u,v\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _response(rng: np.random.Generator, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    m1 = np.sin(2.0 * np.pi * u)
    m2 = v**3
    return (m1 - m1.mean()) + (m2 - m2.mean()) + 0.1 * rng.standard_normal(len(u))


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _dir_digest(out: Path) -> str:
    files = sorted(p for p in out.iterdir() if p.is_file())
    return _digest(*(p.name.encode() + p.read_bytes() for p in files))


class Workload:
    """One workload: ``prepare`` once, then ``run_pass`` as often as timed."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.params = PARAMS[self.name][size]
        self.workdir = workdir
        self.input_csv = workdir / "input.csv"

    def prepare(self) -> None:
        """Generate the inputs (excluded from every timing)."""

    def run_pass(self, out: Path):
        raise NotImplementedError

    def fingerprint(self, out: Path, result) -> str:
        """Digest of a pass's outputs; every pass must match the first."""
        return _dir_digest(out)

    def save_reference(self, out: Path, result) -> None:
        """Keep what the oracle needs from the first pass in ``out``."""

    def check_request(self, out: Path) -> dict:
        return {
            "workload": self.name,
            "size": self.size,
            "seed": self.seed,
            "params": self.params,
            "input_csv": str(self.input_csv),
            "out_dir": str(out),
        }

    def _cli(self, argv: list[str]) -> None:
        code = cli.main(argv)
        if code != 0:
            raise PassFailed(f"nwbackfit {argv[0]} exited with code {code}")


class FitGauss(Workload):
    """``nwbackfit fit`` with default flags on a correlated normal design."""

    name = "fit-gauss-n2000"

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n, corr = self.params["n"], self.params["corr"]
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        u = z1
        v = corr * z1 + math.sqrt(1.0 - corr * corr) * z2
        write_csv(self.input_csv, _response(rng, u, v), u, v)

    def run_pass(self, out: Path):
        self._cli(["fit", "--input", str(self.input_csv), "--out", str(out)])


class SmoothKnn(Workload):
    """Library pipeline, no certificate: Epanechnikov with knn bandwidths."""

    name = "smooth-knn-n4000"

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n = self.params["n"]
        u = rng.uniform(0.0, 1.0, n)
        v = rng.uniform(0.0, 1.0, n)
        write_csv(self.input_csv, _response(rng, u, v), u, v)
        grid = np.linspace(0.005, 0.995, self.params["grid"])
        self.grid = np.column_stack([grid, grid[::-1]])

    def run_pass(self, out: Path):
        data = nwio.read_dataset_csv(self.input_csv)
        kernel = kernels.Kernel.EPANECHNIKOV
        bw = kernels.KNearestBandwidth(self.params["k"])
        pair = smoothers.build_pair(data, kernel, bw, bw)
        iterative = fitting.backfit_iterative(pair, data.y)
        direct = fitting.backfit_direct(pair, data.y)
        predictions = np.array(
            [fitting.predict(data, iterative, (a, b), kernel, bw, bw) for a, b in self.grid]
        )
        nwio.write_fit_curves_csv(out / "curves.csv", data, iterative)
        return {
            "alpha": np.array([iterative.alpha_hat]),
            "iterations": np.array([iterative.iterations]),
            "iter_m1": iterative.m1_hat,
            "iter_m2": iterative.m2_hat,
            "direct_m1": direct.m1_hat,
            "direct_m2": direct.m2_hat,
            "grid": self.grid,
            "predictions": predictions,
        }

    def fingerprint(self, out: Path, result) -> str:
        arrays = (np.ascontiguousarray(result[k]).tobytes() for k in sorted(result))
        return _digest((out / "curves.csv").read_bytes(), *arrays)

    def save_reference(self, out: Path, result) -> None:
        np.savez(out / "reference.npz", **result)


class SimulateUniform(Workload):
    """``nwbackfit simulate``: many small near-critical certifications."""

    name = "simulate-uniform-n200"

    def run_pass(self, out: Path):
        p = self.params
        self._cli(
            [
                "simulate",
                "--n", str(p["n"]),
                "--replicates", str(p["replicates"]),
                "--kernel", "uniform",
                "--bandwidth", repr(p["bandwidth"]),
                "--seed", str(self.seed),
                "--out", str(out),
            ]
        )


WORKLOADS = {w.name: w for w in (FitGauss, SmoothKnn, SimulateUniform)}
