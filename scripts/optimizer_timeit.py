"""Timings of the optimizer, per point and per sweep, each side in fresh processes.

    python scripts/optimizer_timeit.py                           # this checkout
    python scripts/optimizer_timeit.py --pairs 10 --out BENCH.json BEFORE AFTER

Runs in the alternating fresh-process pairs of ``kernel_timeit.py`` (see its
docstring for the report).  A process times:

- ``optimize_exact`` on every point of the default grid, cold (the ``Link``
  cache cleared before each call), the fastest of ``REPEATS`` calls per
  point, as the mean per flavor and MSDU size class (small L < 256 bytes,
  medium L < 1024, large) and the median and 90th percentile over points;
- the same for the seed-1 ``scenario-mix`` requests of the checkout's
  ``bench/workloads.py``, resolved to configs outside the timing: mostly
  small searches, where fixed costs show;
- the default 408-point sweep, rounded and unrounded, fastest of
  ``SWEEP_REPEATS``;
- one huge search (ax256, MCS 11, BER 1e-6, L=64, a 1e5-us PPDU limit and a
  window of 1e6 frames): fastest of ``SWEEP_REPEATS``, and its peak
  ``tracemalloc`` allocation.
"""
from __future__ import annotations

import statistics
import sys
from pathlib import Path

import kernel_timeit

REPEATS = 5
SWEEP_REPEATS = 3
FLAVORS = ("ac64", "ax64", "ax256")
SIZE_CLASSES = ("small", "medium", "large")

UNITS = {
    **{f"optimize_exact.{f}.{c}.ms_mean": "ms" for f in FLAVORS for c in SIZE_CLASSES},
    "optimize_exact.grid.ms_p50": "ms",
    "optimize_exact.grid.ms_p90": "ms",
    "optimize_exact.scenario_mix.ms_p50": "ms",
    "optimize_exact.scenario_mix.ms_p90": "ms",
    "sweep.rounded_s": "s",
    "sweep.unrounded_s": "s",
    "huge_1e5.s": "s",
    "huge_1e5.peak_alloc_mb": "MB",
}


def _size_class(msdu_len: int) -> str:
    return SIZE_CLASSES[0 if msdu_len < 256 else 1 if msdu_len < 1024 else 2]


def _child() -> dict:
    """Time every entry of ``UNITS`` in this process."""
    import time
    import tracemalloc
    from dataclasses import replace

    import numpy as np

    from aggthru import (
        Link,
        NoFeasiblePlanError,
        ProtocolFlavor,
        Scenario,
        default_config,
        optimize_exact,
        params,
    )
    from aggthru.report import DEFAULT_BERS, DEFAULT_MSDU_LENS, SweepGrid, run_sweep

    sys.path.insert(0, str(Path.cwd() / "bench"))
    from workloads import scenario_mix_requests

    def cold(scenario, config, overhead=params.DEFAULT_OVERHEAD) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            Link._build.cache_clear()
            start = time.perf_counter()
            try:
                optimize_exact(scenario, config, overhead)
            except NoFeasiblePlanError:
                pass
            best = min(best, time.perf_counter() - start)
        return best * 1e3

    out = {}
    by_class, grid = {}, []
    for flavor in FLAVORS:
        config = default_config(ProtocolFlavor(flavor))
        for msdu_len in DEFAULT_MSDU_LENS:
            for mcs in range(len(config.mcs_rates)):
                for ber in DEFAULT_BERS:
                    ms = cold(Scenario(ProtocolFlavor(flavor), mcs, ber, msdu_len), config)
                    by_class.setdefault((flavor, _size_class(msdu_len)), []).append(ms)
                    grid.append(ms)
    for (flavor, size), times in by_class.items():
        out[f"optimize_exact.{flavor}.{size}.ms_mean"] = statistics.fmean(times)
    out["optimize_exact.grid.ms_p50"] = float(np.percentile(grid, 50))
    out["optimize_exact.grid.ms_p90"] = float(np.percentile(grid, 90))

    mix = []
    for request in scenario_mix_requests(1):
        overrides = params.parse_override_text(request.override_text)
        config, overhead = params.apply_overrides(
            default_config(request.flavor), params.DEFAULT_OVERHEAD, overrides,
        )
        scenario = Scenario(request.flavor, request.mcs, request.ber, request.msdu_len)
        mix.append(cold(scenario, config, overhead))
    out["optimize_exact.scenario_mix.ms_p50"] = float(np.percentile(mix, 50))
    out["optimize_exact.scenario_mix.ms_p90"] = float(np.percentile(mix, 90))

    def fastest(call) -> float:
        best = float("inf")
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        return best

    out["sweep.rounded_s"] = fastest(lambda: run_sweep(SweepGrid()))
    out["sweep.unrounded_s"] = fastest(lambda: run_sweep(SweepGrid(), round_symbols=False))

    huge = replace(default_config(ProtocolFlavor.AX256), ppdu_time_limit=1e5, max_mpdus=10**6)
    scenario = Scenario(ProtocolFlavor.AX256, 11, 1e-6, 64)
    out["huge_1e5.s"] = fastest(lambda: optimize_exact(scenario, huge))
    tracemalloc.start()
    optimize_exact(scenario, huge)
    out["huge_1e5.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    out["numpy"] = np.__version__
    return out


def main(argv=None) -> int:
    return kernel_timeit.compare(
        __file__, __doc__.splitlines()[0], _child, UNITS, argv,
        repeats_per_point=REPEATS, repeats_per_sweep=SWEEP_REPEATS,
    )


if __name__ == "__main__":
    sys.exit(main())
