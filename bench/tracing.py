"""Spans around calls into nwbackfit, recorded from outside the package.

A :class:`Tracer` replaces public functions at the module attributes
where ``cli``, ``spectral``, ``simulate`` and the library pipeline look
them up (for example ``nwbackfit.cli.certify``) with wrappers that record
one span per call: name, start, end, parent and the traced-memory peak
above the span's start.  Nothing under ``src/`` is modified; the
originals are put back by :meth:`Tracer.uninstall`.  Spans stay in memory
and are written out once, when the benchmark ends.

A call whose span name is already open on the stack (for example
``RateBandwidth.resolve`` delegating to ``ConstantBandwidth.resolve``)
records no second span, so totals per name never double count.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import tracemalloc

import numpy as np

MB = float(2**20)

# (module, attribute path, span name).  A missing attribute is skipped and
# listed in ``Tracer.skipped``, so a later rename shows as a zero metric
# rather than a crash.
WRAP_POINTS = [
    ("nwbackfit.cli", "main", "cli.main"),
    ("nwbackfit.cli", "read_dataset_csv", "io.read"),
    ("nwbackfit.io", "read_dataset_csv", "io.read"),
    ("nwbackfit.cli", "write_json_report", "io.write"),
    ("nwbackfit.cli", "write_fit_curves_csv", "io.write"),
    ("nwbackfit.cli", "write_replicate_rows_csv", "io.write"),
    ("nwbackfit.io", "write_fit_curves_csv", "io.write"),
    ("nwbackfit.kernels", "ConstantBandwidth.resolve", "kernels.resolve"),
    ("nwbackfit.kernels", "RateBandwidth.resolve", "kernels.resolve"),
    ("nwbackfit.kernels", "KNearestBandwidth.resolve", "kernels.resolve"),
    ("nwbackfit.kernels", "PerPointBandwidth.resolve", "kernels.resolve"),
    ("nwbackfit.cli", "build_pair", "smoothers.build_pair"),
    ("nwbackfit.simulate", "build_pair", "smoothers.build_pair"),
    ("nwbackfit.smoothers", "build_pair", "smoothers.build_pair"),
    ("nwbackfit.cli", "certify", "spectral.certify"),
    ("nwbackfit.simulate", "certify", "spectral.certify"),
    ("nwbackfit.spectral", "check_gap_conditions", "spectral.gap"),
    ("nwbackfit.simulate", "check_gap_conditions", "spectral.gap"),
    ("nwbackfit.spectral", "check_regularity", "spectral.regularity"),
    ("nwbackfit.cli", "backfit_iterative", "fitting.iterative"),
    ("nwbackfit.fitting", "backfit_iterative", "fitting.iterative"),
    ("nwbackfit.cli", "backfit_direct", "fitting.direct"),
    ("nwbackfit.fitting", "backfit_direct", "fitting.direct"),
    ("nwbackfit.fitting", "predict", "fitting.predict"),
    ("nwbackfit.cli", "run_monte_carlo", "simulate.run"),
    ("nwbackfit.simulate", "generate", "simulate.generate"),
]


def array_bytes(obj) -> int:
    """Bytes held by a dense ndarray or a scipy sparse matrix, else 0."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "indptr"):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    return 0


def positive_fraction(s) -> float:
    """Share of positive entries of a dense or sparse square matrix."""
    if hasattr(s, "indptr"):
        return float((s.data > 0.0).sum()) / float(s.shape[0] * s.shape[1])
    return float(np.count_nonzero(np.asarray(s) > 0.0)) / float(np.asarray(s).size)


def _observe_write(span, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    span["attrs"]["bytes"] = os.path.getsize(path) if path and os.path.exists(path) else 0


def _observe_certify(span, args, kwargs, result):
    requested = kwargs.get("method", args[5] if len(args) > 5 else "dense")
    span["attrs"]["requested"] = requested
    span["attrs"]["used"] = result.spectral.method
    span["attrs"]["iterations"] = int(result.spectral.iterations)


def _observe_iterative(span, args, kwargs, result):
    span["attrs"]["iterations"] = int(result.iterations)


class Tracer:
    """In-memory span recorder with module-attribute wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.skipped: list[str] = []
        self.sample_pair = None  # first smoother pair built in the current pass
        self.nnz_frac: dict[int, float] = {}  # share of positive S1 weights per pass
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pass = -1
        self._t0 = time.perf_counter()
        self._observers = {
            "io.write": _observe_write,
            "smoothers.build_pair": self._observe_pair,
            "spectral.certify": _observe_certify,
            "fitting.iterative": _observe_iterative,
        }

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> dict:
        # Nested spans share tracemalloc's single peak counter: each open
        # hands the peak so far to the parent and restarts the counter.
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pass": self._pass,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": {},
            "_mem0": current,
            "_peak": current,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict, error: bool = False) -> None:
        span["end"] = time.perf_counter() - self._t0
        _, peak = tracemalloc.get_traced_memory()
        span["_peak"] = max(span["_peak"], peak)
        span["peak_mb"] = (span["_peak"] - span["_mem0"]) / MB
        if error:
            span["attrs"]["error"] = True
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent["_peak"] = max(parent["_peak"], span["_peak"])
        tracemalloc.reset_peak()

    def begin_pass(self, index: int) -> dict:
        """Open the root span of one traced pass."""
        self._pass = index
        self.sample_pair = None
        return self._open("bench.pass")

    def end_pass(self, span: dict) -> None:
        """Close the pass's root span, then measure its sample pair's sparsity."""
        self._close(span)
        s1 = getattr(self.sample_pair, "s1", None)
        self.nnz_frac[self._pass] = positive_fraction(s1) if s1 is not None else 0.0
        self.sample_pair = None

    def _wrap(self, fn, name: str):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(open_span["name"] == name for open_span in self._stack):
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, error=True)
                raise
            self._close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    def _observe_pair(self, span, args, kwargs, result):
        span["attrs"]["pair_mb"] = sum(array_bytes(v) for v in vars(result).values()) / MB
        if self.sample_pair is None:
            self.sample_pair = result

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Replace every wrap point with its recording wrapper."""
        for module_name, attr_path, span_name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, self._wrap(original, span_name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def export(self) -> list[dict]:
        """Spans without their private bookkeeping fields."""
        return [{k: v for k, v in s.items() if not k.startswith("_")} for s in self.spans]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def pass_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced pass, from that pass's spans."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name: str) -> float:
        return sum(_duration(s) for s in by_name.get(name, []))

    def peak(*names: str) -> float:
        return max((s["peak_mb"] for n in names for s in by_name.get(n, [])), default=0.0)

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    certify_spans = by_name.get("spectral.certify", [])
    certify_children = sum(
        _duration(c)
        for s in certify_spans
        for c in children.get(s["id"], [])
        if c["name"] in ("spectral.gap", "spectral.regularity")
    )
    power = [s for s in certify_spans if s["attrs"].get("requested") == "power"]
    cli_self = sum(
        _duration(s) - sum(_duration(c) for c in children.get(s["id"], []))
        for s in by_name.get("cli.main", [])
    )
    solve_s = total("fitting.iterative") + total("fitting.direct")
    return {
        "io.read_s": total("io.read"),
        "io.write_s": total("io.write"),
        "io.bytes_written": attr_sum("io.write", "bytes"),
        "kernels.resolve_s": total("kernels.resolve"),
        "smoothers.build_pair_s": total("smoothers.build_pair"),
        "smoothers.pair_mb": max(
            (s["attrs"].get("pair_mb", 0.0) for s in by_name.get("smoothers.build_pair", [])),
            default=0.0,
        ),
        "smoothers.build_peak_mb": peak("smoothers.build_pair"),
        "spectral.gap_s": total("spectral.gap"),
        "spectral.regularity_s": total("spectral.regularity"),
        "spectral.certify_s": total("spectral.certify"),
        "spectral.radii_s": total("spectral.certify") - certify_children,
        "spectral.certify_peak_mb": peak("spectral.certify"),
        "spectral.power_iterations": attr_sum("spectral.certify", "iterations"),
        "spectral.power_attempts": float(len(power)),
        "spectral.dense_fallbacks": float(
            sum(1 for s in power if s["attrs"].get("used") != "power")
        ),
        "spectral.cert_over_fit": total("spectral.certify") / solve_s if solve_s > 0 else 0.0,
        "fitting.iterative_s": total("fitting.iterative"),
        "fitting.iterations": attr_sum("fitting.iterative", "iterations"),
        "fitting.direct_s": total("fitting.direct"),
        "fitting.predict_s": total("fitting.predict"),
        "fitting.solve_peak_mb": peak("fitting.iterative", "fitting.direct"),
        "simulate.generate_s": total("simulate.generate"),
        "cli.self_s": cli_self,
    }


def replicate_durations(spans: list[dict]) -> list[float]:
    """Per-replicate wall times inside each ``simulate.run`` span.

    A replicate runs from one ``simulate.generate`` start to the next; the
    last one ends with the enclosing run span.
    """
    out: list[float] = []
    for run in (s for s in spans if s["name"] == "simulate.run"):
        starts = sorted(
            s["start"]
            for s in spans
            if s["name"] == "simulate.generate" and run["start"] <= s["start"] <= run["end"]
        )
        bounds = starts + [run["end"]]
        out.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def layer_metrics(
    tracer: Tracer, span_passes: list[int], memory_passes: list[int]
) -> dict[str, float]:
    """Median over passes of each per-pass layer metric.

    ``*_peak_mb`` comes from the passes run under tracemalloc, everything
    else from the spans-only passes, whose times tracemalloc does not slow.
    """

    def medians(passes: list[int]) -> tuple[dict[str, float], list[float]]:
        per_pass, reps = [], []
        for index in passes:
            spans = [s for s in tracer.spans if s["pass"] == index]
            per_pass.append(pass_layer_metrics(spans))
            reps.extend(replicate_durations(spans))
        keys = per_pass[0]
        return {k: float(statistics.median(p[k] for p in per_pass)) for k in keys}, reps

    metrics, reps = medians(span_passes)
    memory, _ = medians(memory_passes)
    metrics.update({k: v for k, v in memory.items() if k.endswith("_peak_mb")})
    metrics["smoothers.nnz_frac"] = float(
        statistics.median(tracer.nnz_frac[i] for i in span_passes)
    )
    metrics["simulate.replicate_s.p50"] = percentile(reps, 50)
    metrics["simulate.replicate_s.p80"] = percentile(reps, 80)
    return metrics
