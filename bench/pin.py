#!/usr/bin/env python3
"""Regenerate ``pinned.json``: what the package reports for seeds 0..15.

The oracle checks compare every run of a pinned seed against these values
(verdicts and simulate fractions exactly, radii within the oracle's
tolerance), so a change that alters a verdict fails the benchmark even
where the independent oracles would accept it.  Run from the repository
root, on the commit whose answers should be pinned:

    python3 bench/pin.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil

from run import BENCH, ROOT, configure_process

PINNED_WORKLOADS = ("fit-gauss-n2000", "simulate-uniform-n200")
PINNED_SEEDS = 16


def pinned_values(name: str, out) -> dict:
    if name == "fit-gauss-n2000":
        cert = json.loads((out / "fit.json").read_text())["certificate"]
        return {"verdict": cert["verdict"], "rho_product": cert["spectral"]["rho_product"]}
    report = json.loads((out / "simulation.json").read_text())["report"]
    with open(out / "replicates.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "fraction_gap_ok": report["fraction_gap_ok"],
        "fraction_certified": report["fraction_certified"],
        "gap_ok": [r["gap_ok"] == "true" for r in rows],
        "certified": [r["certified"] == "true" for r in rows],
        "rho_product": [float(r["rho_product"]) for r in rows],
    }


def main() -> int:
    configure_process()
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"pin-{os.getpid()}"
    pinned: dict[str, dict[str, dict]] = {}
    try:
        for name in PINNED_WORKLOADS:
            for seed in range(PINNED_SEEDS):
                shutil.rmtree(workdir, ignore_errors=True)
                (workdir / "out").mkdir(parents=True)
                workload = WORKLOADS[name](seed, "full", workdir)
                workload.prepare()
                workload.run_pass(workdir / "out")
                pinned.setdefault(name, {})[str(seed)] = pinned_values(name, workdir / "out")
                print(f"pinned {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
