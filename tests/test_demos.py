"""Smoke test: every script in demos/ runs to completion, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import note_bound

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name == "certificate_failure.py":
        direct = [line for line in proc.stdout.splitlines() if line.startswith("direct:")]
        assert len(direct) == 1
        assert "singular or near-singular" in direct[0]
        graph = [
            line for line in proc.stdout.splitlines()
            if line.startswith("  closed classes of the union graph = ")
        ]
        assert len(graph) == 1
        assert graph[0].split(" = ")[1] == "2 (needs 1)"
        dense = [line for line in proc.stdout.splitlines() if line.startswith("  rho(S1*), dense = ")]
        assert len(dense) == 1
        assert abs(float(dense[0].split(" = ")[1]) - 1.0) <= 1e-6
        notes = [line for line in proc.stdout.splitlines() if line.startswith("  notes:")]
        assert len(notes) == 1
        assert note_bound(notes[0]) > 1e12
