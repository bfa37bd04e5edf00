"""The traced run: which aggthru functions get spans, and the per-layer metrics.

Layers are the package modules.  ``approx`` is left out on purpose: it is
a closed form that takes microseconds and no workload spends time in it;
if an optimizer calls into it, that time shows as optimizer time.
"""
from __future__ import annotations

import aggthru
import numpy as np
from aggthru import approx, cli, exact, geometry, params, report

from spans import Tracer
from workloads import FLAVORS, SIZE_CLASSES, size_class

MODULES = (aggthru, params, geometry, exact, approx, report, cli)
LAYERS = ("params", "geometry", "exact", "report", "cli", "bench")


def _optimize_tag(args, kwargs) -> int:
    scenario = args[0] if args else kwargs["scenario"]
    return FLAVORS.index(scenario.flavor) * len(SIZE_CLASSES) + size_class(scenario.msdu_len)


def _cycles_tag(args, kwargs) -> int:
    return kwargs["cycles"]


def hooks() -> dict:
    """Hooked function -> (span name, tag function, keep arguments for replay)."""
    return {
        cli.main: ("cli.main", None, False),
        params.default_config: ("params.default_config", None, False),
        params.load_override_file: ("params.load_override_file", None, False),
        params.apply_overrides: ("params.apply_overrides", None, False),
        exact.optimize_exact: ("exact.optimize_exact", _optimize_tag, True),
        exact.throughput_exact: ("exact.throughput_exact", None, False),
        exact.simulate_throughput: ("exact.simulate_throughput", _cycles_tag, False),
        geometry.is_feasible: ("geometry.is_feasible", None, False),
        geometry.airtime: ("geometry.airtime", None, False),
        report.run_sweep: ("report.run_sweep", None, False),
        report.rows_to_csv: ("report.rows_to_csv", None, False),
    }


def traced_pass(workload, run_pass):
    """One pass with every hook installed; returns (tracer, Pass, outputs)."""
    tracer = Tracer()
    tracer.install(MODULES, hooks())
    try:
        p, outputs = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    return tracer, p, outputs


def _mean(values) -> float:
    return float(values.mean()) if values.size else 0.0


def layer_metrics(tracer: Tracer, *, peak_alloc: float, import_s: tuple, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit, samples).

    ``import_s`` is (median seconds, fresh processes).  Means over no
    calls read 0.
    """
    cols = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(name):
        """Durations and self times of one function's spans, their mask and count."""
        mask = cols["name"] == ids.get(name, -1)
        return cols["dur"][mask], cols["self"][mask], mask, int(mask.sum())

    out = {}
    dur, _, mask, n = sel("exact.optimize_exact")
    out["exact.optimize_exact.calls"] = (n, "count", n)
    p50, p90 = np.percentile(dur * 1e3, [50, 90]) if n else (0.0, 0.0)
    out["exact.optimize_exact.ms_p50"] = (float(p50), "ms", n)
    out["exact.optimize_exact.ms_p90"] = (float(p90), "ms", n)
    tags = cols["tag"][mask]
    for fi, flavor in enumerate(FLAVORS):
        for si, size in enumerate(SIZE_CLASSES):
            part = dur[tags == fi * len(SIZE_CLASSES) + si]
            out[f"exact.optimize_exact.{flavor.value}.{size}.ms_mean"] = (_mean(part) * 1e3, "ms", part.size)
    out["exact.optimize_exact.peak_alloc_mb"] = (peak_alloc / 1e6, "MB", n)

    dur, _, mask, n = sel("exact.throughput_exact")
    out["exact.throughput_exact.calls"] = (n, "count", n)
    out["exact.throughput_exact.us_mean"] = (_mean(dur) * 1e6, "us", n)
    out["exact.throughput_exact.feasible_frac"] = (1.0 - _mean(cols["raised"][mask].astype(float)), "1", n)

    for name in ("geometry.airtime", "geometry.is_feasible"):
        dur, _, _, n = sel(name)
        out[f"{name}.calls"] = (n, "count", n)
        out[f"{name}.us_mean"] = (_mean(dur) * 1e6, "us", n)

    dur, _, mask, n = sel("exact.simulate_throughput")
    cycles = int(cols["tag"][mask].sum())
    out["exact.simulate_throughput.calls"] = (n, "count", n)
    out["exact.simulate_throughput.ns_per_cycle"] = (float(dur.sum()) / cycles * 1e9 if cycles else 0.0, "ns", n)

    n = sel("params.default_config")[3]
    out["params.default_config.calls"] = (n, "count", n)
    dur, _, _, n = sel("params.apply_overrides")
    out["params.apply_overrides.calls"] = (n, "count", n)
    out["params.apply_overrides.us_mean"] = (_mean(dur) * 1e6, "us", n)
    dur, _, _, n = sel("params.load_override_file")
    out["params.load_override_file.us_mean"] = (_mean(dur) * 1e6, "us", n)

    # a span's self time excludes its direct children; under cli.main and
    # run_sweep those are exactly the optimizer and params calls
    dur, self_, _, n = sel("cli.main")
    out["cli.main.ms_mean"] = (_mean(dur) * 1e3, "ms", n)
    out["cli.main.self_ms"] = (_mean(self_) * 1e3, "ms", n)
    out["cli.import_s"] = (import_s[0], "s", import_s[1])
    _, self_, _, n = sel("report.run_sweep")
    out["report.run_sweep.self_s"] = (_mean(self_), "s", n)
    dur, _, _, n = sel("report.rows_to_csv")
    out["report.rows_to_csv.ms"] = (_mean(dur) * 1e3, "ms", n)

    layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in tracer.names], dtype=np.int64)
    self_by_layer = np.bincount(layer_of[cols["name"]], weights=cols["self"], minlength=len(LAYERS))
    for layer, total in zip(LAYERS, self_by_layer):
        out[f"layers.{layer}.self_s"] = (float(total), "s", 1)
    out["trace.overhead_s"] = (overhead_s, "s", 1)
    return out
