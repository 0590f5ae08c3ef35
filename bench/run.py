#!/usr/bin/env python3
"""Benchmark of nwbackfit: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fit-gauss-n2000 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``fit-gauss-n2000``: ``nwbackfit fit`` with default flags (Gaussian
  kernel, ``rate:0.2``, dense certificate, Gauss-Seidel) on n=2000 draws
  of a bivariate normal with correlation 0.5.
- ``smooth-knn-n4000``: the library pipeline read -> build_pair ->
  backfit_iterative -> backfit_direct -> predict (1000 points) -> write,
  Epanechnikov ``knn:30`` on a uniform design, no certificate.
- ``simulate-uniform-n200``: ``nwbackfit simulate --n 200 --replicates 60
  --kernel uniform --bandwidth 0.04`` with its default power method.

A run repeats passes of one workload, in this process, and stops at the
pass boundary nearest to ``--seconds`` (at least two passes; three when
traced).  Every pass's outputs must equal the
first pass's, and the first pass's outputs are checked against independent
oracles (``oracle.py``, run in a child process).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
child processes, half started before the passes and half after them, of
interpreter start, ``import nwbackfit`` and parser construction), ``wall_s`` (median pass time) and ``peak_rss_mb`` (peak
resident memory of this process, which ran the passes).  ``--trace 1``
runs one untraced pass and then traced passes, and prints the per-layer
metrics from spans recorded by ``tracing.py``; per-layer memory comes from
``tracemalloc``, which runs only during traced passes.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failure ratio.  The run record (environment, passes, checks) is written to
``.bench_results/`` and spans to a ``-spans.json`` file next to it.
BLAS runs with min(nproc, 2) threads, or one for ``simulate-uniform-n200``;
the count in effect is recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Setup samples per run, half before the passes and half after them, so they
# span the run rather than the few seconds in which the host may be slow.
SETUP_REPEATS = 16
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
# The child prints the clock once the parser is built.  perf_counter is
# CLOCK_MONOTONIC on Linux, one clock for every process, so the parent can
# subtract its own start time; timing the whole subprocess.run call instead
# would add interpreter teardown and its 50 ms wait-polling steps.
SETUP_CODE = (
    "import time; import nwbackfit; from nwbackfit.cli import build_parser; "
    "build_parser(); print(repr(time.perf_counter()))"
)


# Workloads whose BLAS calls are too small for a second thread.  simulate's
# n=200 mat-vec products ran no faster on two threads but used twice the CPU
# time, and a pass then waited on whichever core the host slowed down, which
# widened its spread across runs.
SINGLE_THREAD_WORKLOADS = ("simulate-uniform-n200",)


def blas_threads(workload: str | None = None) -> int:
    if workload in SINGLE_THREAD_WORKLOADS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def configure_process(workload: str | None = None) -> int:
    """Pin BLAS threads and put ``src/`` on the path, for this process and
    its children.  Must run before numpy is imported; returns the threads."""
    threads = blas_threads(workload)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return threads


def measure_setup(env: dict, count: int, warm_up: bool) -> list[float]:
    """Times from spawning a fresh interpreter until it has imported nwbackfit
    and built the CLI parser, after an untimed warm-up if asked."""
    times = []
    for i in range(count + warm_up):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE,
            text=True,
        )
        if i >= warm_up:
            times.append(float(proc.stdout.split()[-1]) - start)
    return times


def blas_info() -> list[dict]:
    """Name, version and live thread count of each OpenBLAS numpy/scipy load."""
    import numpy as np
    import scipy

    out = []
    for pkg, symbols in (
        (np, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")),
        (scipy, ("scipy_openblas_get_num_threads", "openblas_get_num_threads")),
    ):
        config = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in symbols:
                fn = getattr(handle, sym, None)
                if fn is not None:
                    threads = int(fn())
                    break
        out.append(
            {
                "package": pkg.__name__,
                "name": config.get("name"),
                "version": config.get("version"),
                "threads": threads,
            }
        )
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nwbackfit").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def environment(args, params: dict, threads: int) -> dict:
    import numpy as np
    import scipy

    import nwbackfit

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "blas_threads_requested": threads,
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nwbackfit": nwbackfit.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "size": args.size,
        "params": params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_oracle(request: dict, workdir: Path, env: dict) -> dict:
    path = workdir / "oracle-request.json"
    path.write_text(json.dumps(request))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "oracle.py"), str(path)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "failures": [f"oracle failed: {proc.stderr[-2000:]}"], "values": {}}
    return json.loads(lines[-1])


def pass_mode(index: int, tracing: bool) -> str:
    """``plain`` passes are untraced.  A traced run makes one plain pass, one
    ``memory`` pass (spans and tracemalloc, for the ``*_peak_mb`` metrics)
    and then ``spans`` passes (spans only, for every time and count)."""
    if not tracing or index == 0:
        return "plain"
    return "memory" if index == 1 else "spans"


def run_passes(workload, workdir: Path, seconds: float, tracer) -> tuple[list[dict], Path | None]:
    """Repeat passes and stop at the pass boundary nearest to ``seconds``.

    The next pass is assumed to take the median of the passes of its mode,
    so a run measures about ``seconds`` on average rather than always less.

    Returns the pass records and the directory of the first good pass.
    """
    passes: list[dict] = []
    digest = None
    # Every pass writes to the same directory, so the config echoed into the
    # reports is identical; the first good pass is kept as the reference.
    out = workdir / "out"
    ref_dir = workdir / "reference"
    start = time.perf_counter()
    while True:
        index = len(passes)
        mode = pass_mode(index, tracer is not None)
        out.mkdir()
        record = {"index": index, "mode": mode, "ok": True, "error": None}
        captured = io.StringIO()
        if mode == "memory":
            tracemalloc.start()
        if mode != "plain":
            tracer.install()
            root = tracer.begin_pass(index)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                result = workload.run_pass(out)
        except Exception as exc:  # a failed pass is counted, not fatal
            result = None
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        record["wall_s"] = time.perf_counter() - t0
        if mode != "plain":
            tracer.end_pass(root)
            tracer.uninstall()
        tracemalloc.stop()
        if record["ok"] and digest is None:
            digest = workload.fingerprint(out, result)
            workload.save_reference(out, result)
            out.rename(ref_dir)
        else:
            if record["ok"] and workload.fingerprint(out, result) != digest:
                record.update(ok=False, error="outputs differ from the first pass")
            shutil.rmtree(out)
        del result
        if not record["ok"]:
            record["output"] = captured.getvalue()[-2000:]
        passes.append(record)

        elapsed = time.perf_counter() - start
        timed = [p["wall_s"] for p in passes if p["mode"] == mode]
        enough = index + 1 >= (3 if tracer is not None else MIN_PASSES)
        if enough and elapsed + statistics.median(timed) / 2 > seconds:
            return passes, (ref_dir if digest is not None else None)


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of one run's own samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs"
    )
    args = parser.parse_args(argv)

    if not (SRC / "nwbackfit" / "__init__.py").is_file():
        print(f"error: no nwbackfit sources under {SRC}", file=sys.stderr)
        return 2
    threads = configure_process(args.workload)
    env = dict(os.environ)

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_times = measure_setup(env, SETUP_REPEATS // 2, warm_up=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        workload.prepare()
        tracer = Tracer() if args.trace else None
        passes, ref_dir = run_passes(workload, workdir, args.seconds, tracer)
        setup_times += measure_setup(env, SETUP_REPEATS - len(setup_times), warm_up=False)
        if ref_dir is not None:
            checks = run_oracle(workload.check_request(ref_dir), workdir, env)
        else:
            checks = {"ok": False, "failures": ["no pass succeeded"], "values": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = len(passes)
    failed = attempted if not checks["ok"] else sum(not p["ok"] for p in passes)
    untraced = [p["wall_s"] for p in passes if p["mode"] == "plain"]
    if args.trace:
        span_ids = [p["index"] for p in passes if p["mode"] == "spans"]
        memory_ids = [p["index"] for p in passes if p["mode"] == "memory"]
        traced_walls = [p["wall_s"] for p in passes if p["mode"] == "spans"]
        values = layer_metrics(tracer, span_ids, memory_ids)
        values["fitting.residual_normal_eq"] = checks["values"].get("residual_normal_eq", 0.0)
        values["fitting.iter_direct_gap"] = checks["values"].get("iter_direct_gap", 0.0)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    record = {
        "environment": environment(args, workload.params, threads),
        "setup_times_s": setup_times,
        "setup_spread_s": spread(setup_times),
        "wall_spread_s": spread(untraced),
        "passes": passes,
        "checks": checks,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(
            json.dumps({"skipped": tracer.skipped, "spans": tracer.export()})
        )

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"passes {attempted} (untraced {len(untraced)})")
    for name, values in (("setup_s", setup_times), ("wall_s", untraced)):
        print(f"samples {name} " + " ".join(f"{k} {v:.4g}" for k, v in spread(values).items()))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for failure in checks["failures"] + [p["error"] for p in passes if p["error"]]:
        print(f"FAIL {failure}")
    print(f"fail_ratio {failed / attempted:g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
