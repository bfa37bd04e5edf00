"""Per-call timings of the throughput kernel, each side in fresh processes.

    python scripts/kernel_timeit.py                           # this checkout
    python scripts/kernel_timeit.py --pairs 10 --out BENCH.json BEFORE AFTER

Each timing runs in a new Python process that imports ``aggthru`` from the
``src`` directory of one checkout; the timing code itself is this file, so
both sides run the same measurement.  With two checkouts, the processes run
in alternating pairs (BEFORE first in even pairs, AFTER first in odd ones).
A process reports the fastest of ``REPEATS`` repeats per timing; the result
gives each side's median and quartiles over its processes, and with two
checkouts the AFTER/BEFORE ratio of the medians.  The output is JSON, with
the git SHA of each checkout, ``nproc`` and the Python and numpy versions.
Other timing scripts reuse ``compare`` for the same pairs and report.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPEATS = 5
MC_CYCLES = 20_000

# name -> (statement, unit); the statement runs in the namespace of _child
TIMINGS = {
    "throughput_exact.feasible_us": ("throughput_exact(plan, scenario, config)", "us"),
    "throughput_exact.infeasible_us": ("infeasible()", "us"),
    "link_of.hit_us": ("Link.of(scenario, config)", "us"),
    "airtime_us": ("airtime(plan, scenario, config)", "us"),
    "is_feasible_us": ("is_feasible(plan, scenario, config)", "us"),
    "simulate_throughput.ns_per_cycle": (
        "simulate_throughput(plan, scenario, config, cycles=MC_CYCLES, seed=1)", "ns",
    ),
}


def _child() -> dict:
    """Time every entry of ``TIMINGS`` in this process; per call, fastest repeat."""
    import timeit

    import numpy as np

    from aggthru import (
        AggregationPlan,
        InfeasiblePlanError,
        Link,
        ProtocolFlavor,
        Scenario,
        airtime,
        default_config,
        is_feasible,
        simulate_throughput,
        throughput_exact,
    )

    # the optimum of ax256, MCS 7, BER 1e-5, 1500-byte MSDUs: two MPDU sizes,
    # so the kernel and the Monte Carlo both take their two-group path
    config = default_config(ProtocolFlavor.AX256)
    scenario = Scenario(ProtocolFlavor.AX256, 7, 1e-5, 1500)
    plan = AggregationPlan(256, 1, 6)
    too_long = AggregationPlan(256, 7, 0)   # over the PPDU time limit

    def infeasible():
        try:
            throughput_exact(too_long, scenario, config)
        except InfeasiblePlanError:
            pass

    if is_feasible(too_long, scenario, config).ok:
        raise RuntimeError("the infeasible timing's plan is feasible")
    namespace = dict(locals(), MC_CYCLES=MC_CYCLES)
    out = {}
    for name, (stmt, unit) in TIMINGS.items():
        timer = timeit.Timer(stmt, globals=namespace)
        number, _ = timer.autorange()
        best = min(timer.repeat(REPEATS, number)) / number
        if unit == "ns":
            out[name] = best / MC_CYCLES * 1e9
        else:
            out[name] = best * 1e6
    out["numpy"] = np.__version__
    return out


def _run_child(script: Path, checkout: Path) -> dict:
    # absolute: the child runs with the checkout as its working directory
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--child"],
        env=env, cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _git_sha(checkout: Path):
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True,
    )
    return proc.stdout.strip() or None


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def compare(script, description: str, child, units: dict, argv=None, **context) -> int:
    """Command-line entry of a timing script: alternating fresh-process pairs.

    ``script --child`` prints ``child()`` as JSON: one number per name of
    ``units`` (name -> unit) and the numpy version.  ``context`` goes into
    the report as it is.
    """
    script = Path(script).resolve()
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("checkouts", nargs="*", type=Path, help="BEFORE [AFTER] (default: this checkout)")
    parser.add_argument("--pairs", type=int, default=5, help="fresh processes per checkout")
    parser.add_argument("--out", type=Path, help="write the JSON here (default: stdout)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child()))
        return 0
    checkouts = args.checkouts or [script.parent.parent]
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    runs = {side: [] for side in range(len(checkouts))}
    for pair in range(args.pairs):
        order = range(len(checkouts)) if pair % 2 == 0 else reversed(range(len(checkouts)))
        for side in order:
            runs[side].append(_run_child(script, checkouts[side]))

    sides = []
    for side, checkout in enumerate(checkouts):
        sides.append({
            "side": ("before", "after")[side] if len(checkouts) == 2 else "this",
            "git_sha": _git_sha(checkout),
            "numpy": runs[side][0]["numpy"],
            "timings": {
                name: dict(_summary([run[name] for run in runs[side]]), unit=unit)
                for name, unit in units.items()
            },
        })
    result = {
        "script": f"scripts/{script.name}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **context,
        "pairs": args.pairs,
        "sides": sides,
    }
    if len(sides) == 2:
        result["after_over_before"] = {
            name: sides[1]["timings"][name]["median"] / sides[0]["timings"][name]["median"]
            for name in units
        }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    units = {name: unit for name, (_, unit) in TIMINGS.items()}
    return compare(
        __file__, __doc__.splitlines()[0], _child, units, argv, repeats_per_process=REPEATS,
    )


if __name__ == "__main__":
    sys.exit(main())
