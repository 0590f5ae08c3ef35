#!/usr/bin/env python3
"""Summarize full-size run records into one JSON document.

For each workload and mode (untraced, traced) it gives every metric's
median, quartiles (``statistics.quantiles(values, n=4)``) and sample count
over the seeds found and the BLAS library and threads it ran with, plus
the environment of the first record with the per-run fields removed.  Records are read from ``.bench_results/`` or from
the directory given, so a set of runs moved aside can be compared with the
next one.  Run from the repository root, for example to write a baseline:

    python3 bench/summarize.py --label seed-commit > bench/baseline/seed-commit.json
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_RUN = ("seed", "trace", "workload", "params", "size", "blas_threads_requested", "blas")


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        env = r["environment"]
        groups.setdefault((env["workload"], env["trace"]), []).append(r)
    out: dict[str, dict] = {}
    for (workload, trace), runs in sorted(groups.items()):
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            metrics[name] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "n": len(values),
                "unit": m["unit"],
            }
        out.setdefault(workload, {})["traced" if trace else "untraced"] = {
            "params": runs[0]["environment"]["params"],
            "blas": runs[0]["environment"]["blas"],
            "seeds": sorted(r["environment"]["seed"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this set of runs")
    parser.add_argument(
        "results", nargs="?", type=Path, default=ROOT / ".bench_results",
        help="directory of run records (default .bench_results)",
    )
    args = parser.parse_args()
    records = [
        json.loads(p.read_text()) for p in sorted(args.results.glob("*-full-seed*-trace[01].json"))
    ]
    if not records:
        parser.error(f"no full-size run records in {args.results}")
    env = {k: v for k, v in records[0]["environment"].items() if k not in PER_RUN}
    print(json.dumps({"label": args.label, "environment": env, "workloads": summarize(records)},
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
