"""Smoke test of the benchmark at tiny n.

Every workload must run in both modes, print every metric of
``BENCHMARK.json`` by name with its unit, pass its correctness checks, and
report a nonzero time for each layer it exercises.  Run from the
repository root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be positive because the workload runs the layer.
LAYERS_RUN = {
    "fit-gauss-n2000": [
        "io.read_s", "io.write_s", "io.bytes_written", "kernels.resolve_s",
        "smoothers.build_pair_s", "smoothers.pair_mb", "smoothers.nnz_frac",
        "spectral.gap_s", "spectral.regularity_s", "spectral.radii_s", "spectral.certify_s",
        "spectral.cert_over_fit", "fitting.iterative_s", "fitting.iterations",
        "fitting.residual_normal_eq", "fitting.iter_direct_gap", "cli.self_s",
    ],
    "smooth-knn-n4000": [
        "io.read_s", "io.write_s", "io.bytes_written", "kernels.resolve_s",
        "smoothers.build_pair_s", "smoothers.pair_mb", "smoothers.nnz_frac",
        "fitting.iterative_s", "fitting.iterations", "fitting.direct_s", "fitting.predict_s",
        "fitting.residual_normal_eq", "fitting.iter_direct_gap",
    ],
    "simulate-uniform-n200": [
        "io.write_s", "io.bytes_written", "kernels.resolve_s", "smoothers.build_pair_s",
        "smoothers.pair_mb", "smoothers.nnz_frac", "spectral.gap_s", "spectral.regularity_s",
        "spectral.radii_s", "spectral.certify_s", "spectral.power_iterations",
        "spectral.power_attempts", "simulate.generate_s", "simulate.replicate_s.p50",
        "simulate.replicate_s.p80", "cli.self_s",
    ],
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_reports_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert any(line == f"{m['name']} {value!r} {m['unit']}" for line in lines)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    expected_positive = LAYERS_RUN[workload] if trace else [m["name"] for m in declared]
    assert all(values[name] > 0 for name in expected_positive), values


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
