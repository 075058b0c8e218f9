"""Per-layer tracing of the olreg package from outside it.

The tracer replaces public functions and methods of the package with timed
wrappers while it is installed, records one span per call (name, start,
end, parent) in memory, and restores the originals when it is removed.  A
name imported with ``from .x import y`` is looked up in the importing
module, so a function is replaced in every package module that holds it.
A span's self time is its duration minus the durations of its child spans;
the layer of a span is the package module named by its prefix.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import olreg.cli
import olreg.data
import olreg.numerics
import olreg.predictors
import olreg.protocol
import olreg.sampler

MODULES = (olreg.cli, olreg.data, olreg.protocol, olreg.numerics, olreg.predictors, olreg.sampler)
LAYERS = ("cli", "data", "protocol", "numerics", "predictors", "sampler")


def _sweep_points(args, result):
    return "predictors.sweep_points", result.points.size - 2


def _mc_bytes(args, result):
    _, design, orderings, _ = args
    samples, rows = orderings.shape
    return "predictors.mc_bytes", samples * rows * design.shape[1] * 8


FUNCTIONS = (
    (olreg.cli.main, "cli.main", None),
    (olreg.data.load_matrix, "data.load_matrix", None),
    (olreg.data.save_matrix, "data.save_matrix", None),
    (olreg.data.emit_series, "data.emit_series", None),
    (olreg.data.gen_synthetic, "data.gen_synthetic", None),
    (olreg.data.observations_from_arrays, "data.observations", None),
    (olreg.data.observations_to_arrays, "data.observations", None),
    (olreg.protocol.run_online, "protocol.run_online", None),
    (olreg.protocol.validity_report, "protocol.validity_report", None),
    (olreg.predictors.iid_predict, "predictors.iid_predict", None),
    (olreg.predictors.iid_pvalue, "predictors.iid_pvalue", None),
    (olreg.predictors.mva_predict, "predictors.mva_predict", None),
    (olreg.predictors.gauss_predict, "predictors.gauss_predict", None),
    (olreg.predictors.gauss_fit, "predictors.gauss_fit", None),
    (olreg.predictors.iidgauss_predict, "predictors.iidgauss_predict", None),
    (olreg.predictors.iidgauss_pvalue, "predictors.iidgauss_pvalue", None),
    (olreg.predictors.build_sweep, "predictors.build_sweep", _sweep_points),
    (olreg.predictors.sweep_hull, "predictors.sweep_hull", None),
    (olreg.predictors.mva_hull, "predictors.mva_hull", None),
    (olreg.numerics.residual_decomposition, "numerics.residual_decomposition", None),
    (olreg.sampler.complement_directions, "sampler.complement_directions", _mc_bytes),
    (olreg.sampler.random_orderings, "sampler.random_orderings", None),
)

PREDICTOR_CLASSES = (
    olreg.protocol.IidPredictor,
    olreg.protocol.MvaPredictor,
    olreg.protocol.GaussPredictor,
    olreg.protocol.IidGaussPredictor,
)
METHODS = tuple(
    (cls, method, f"protocol.{method}")
    for cls in PREDICTOR_CLASSES
    for method in ("predict", "pvalue")
) + (
    (olreg.protocol.OnlineLedger, "median_lengths", "protocol.median_lengths"),
    (olreg.numerics.RidgeProjector, "__init__", "numerics.projector"),
    (olreg.numerics.RidgeProjector, "residuals", "numerics.residuals"),
)

# Per-layer metrics: (metric, kind, span names).  "total" sums whole span
# durations, "self" sums self times, "calls" counts spans; facts are summed
# ("predictors.sweep_points") or maximized ("predictors.mc_bytes") per round.
ROUND_METRICS = (
    ("cli.self_s", "self", ("cli.main",)),
    ("data.load_s", "total", ("data.load_matrix",)),
    ("data.write_s", "self", ("data.save_matrix", "data.emit_series")),
    ("protocol.predict_s", "total", ("protocol.predict",)),
    ("protocol.predict_calls", "calls", ("protocol.predict",)),
    ("protocol.pvalue_s", "total", ("protocol.pvalue",)),
    ("protocol.pvalue_calls", "calls", ("protocol.pvalue",)),
    ("protocol.ledger_s", "self", ("protocol.run_online",)),
    ("protocol.median_s", "total", ("protocol.median_lengths",)),
    ("numerics.projector_s", "total", ("numerics.projector",)),
    ("numerics.projector_calls", "calls", ("numerics.projector",)),
    ("numerics.decomposition_s", "total", ("numerics.residual_decomposition",)),
    ("numerics.residuals_s", "total", ("numerics.residuals",)),
    ("predictors.sweep_s", "total", ("predictors.build_sweep",)),
    ("predictors.sweep_hull_s", "total", ("predictors.sweep_hull",)),
    ("predictors.mva_hull_s", "total", ("predictors.mva_hull",)),
    ("predictors.gauss_fit_s", "total", ("predictors.gauss_fit",)),
    ("predictors.gauss_fit_calls", "calls", ("predictors.gauss_fit",)),
    ("predictors.iidgauss_predict_s", "total", ("predictors.iidgauss_predict",)),
    ("predictors.iidgauss_pvalue_s", "total", ("predictors.iidgauss_pvalue",)),
    ("sampler.directions_s", "total", ("sampler.complement_directions",)),
    ("sampler.directions_calls", "calls", ("sampler.complement_directions",)),
    ("sampler.orderings_s", "total", ("sampler.random_orderings",)),
)
SETUP_METRICS = (("data.gen_s", "total", ("data.gen_synthetic",)),)
FACT_METRICS = (("predictors.sweep_points", sum), ("predictors.mc_bytes", max))
LAYER_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS if layer != "cli")
RUN_METRICS = ("trace.spans", "trace.round_s", "trace.overhead_s")

PER_LAYER = (
    tuple(name for name, _, _ in ROUND_METRICS + SETUP_METRICS)
    + tuple(name for name, _ in FACT_METRICS)
    + LAYER_METRICS
    + RUN_METRICS
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.facts: list[tuple[int, str, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, function, name, observe):
        spans, stack, facts, clock = self.spans, self._stack, self.facts, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                key, value = observe(args, result)
                facts.append((index, key, value))
            return result

        return traced

    def install(self):
        for function, name, observe in FUNCTIONS:
            wrapper = self._wrap(function, name, observe)
            for module in MODULES:
                for attribute, value in list(vars(module).items()):
                    if value is function:
                        self._saved.append((module, attribute, value))
                        setattr(module, attribute, wrapper)
        for cls, method, name in METHODS:
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, None))

    def remove(self):
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)

    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, start: int, stop: int) -> dict:
        """Totals, self times, counts and facts of the spans in [start, stop)."""
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for index in range(start, stop):
            name, begin, end, parent = self.spans[index]
            duration = end - begin
            total[name] += duration
            own[name] += duration
            calls[name] += 1
            if parent >= start:
                own[self.spans[parent][0]] -= duration
        facts = defaultdict(list)
        for index, key, value in self.facts:
            if start <= index < stop:
                facts[key].append(value)
        return {"total": total, "self": own, "calls": calls, "facts": facts}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent\n")
            for name, begin, end, parent in self.spans:
                handle.write(f"{name},{begin!r},{end!r},{parent}\n")


def _value(summary, kind, names):
    return sum(summary[kind][name] for name in names)


def layer_metrics(round_summaries, setup_summaries, traced_seconds, untraced_seconds) -> dict:
    """Median over traced rounds (or set-ups) of every per-layer metric.

    The overhead is the median traced round time minus the median untraced
    round time of the same run.
    """
    def median_of(summaries, kind, names):
        values = [_value(summary, kind, names) for summary in summaries]
        return statistics.median(values)

    out = {}
    for name, kind, names in ROUND_METRICS:
        out[name] = median_of(round_summaries, kind, names)
    for name, kind, names in SETUP_METRICS:
        out[name] = median_of(setup_summaries, kind, names)
    for name, combine in FACT_METRICS:
        out[name] = statistics.median(
            combine(summary["facts"][name] or [0]) for summary in round_summaries
        )
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = statistics.median(
            sum(value for span, value in summary["self"].items() if span.startswith(layer + "."))
            for summary in round_summaries
        )
    out["trace.spans"] = statistics.median(sum(s["calls"].values()) for s in round_summaries)
    out["trace.round_s"] = statistics.median(traced_seconds)
    out["trace.overhead_s"] = out["trace.round_s"] - statistics.median(untraced_seconds)
    return out
