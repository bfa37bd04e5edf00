"""Layered benchmark for aggthru: run one workload and report its metrics.

    python3 bench/run.py --workload plan-eval --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository.  The workload's
inputs are built from ``--seed``; passes over them repeat until their
summed time reaches ``--seconds``; every output is checked, between passes
and outside the timed phase.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs half the time untraced, then one traced pass, and
reports the per-layer metrics derived from its spans.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without ``--workload`` every workload runs in turn, each
in its own process.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("grid-sweep", "scenario-mix", "plan-eval")
N_PROBES = 5            # fresh processes behind cli.import_s, and at least behind setup_s
MAX_SETUP_PROBES = 7


@dataclass
class Pass:
    wall: float        # [s]
    cpu: float         # user + system [s]
    op_latency: list   # [s], one per op


def run_pass(workload, tracer=None):
    """One timed pass over the workload's ops; returns the Pass and the outputs."""
    outputs, latency = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, op in enumerate(workload.ops):
        t0 = time.perf_counter()
        if tracer is None:
            out = workload.run_op(op)
        else:
            tracer.current_op = i
            with tracer.span("bench.op"):
                out = workload.run_op(op)
        latency.append(time.perf_counter() - t0)
        outputs.append(out)
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0, latency), outputs


class Checks:
    """Running total of checked results and failed checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def add(self, outputs) -> None:
        checked, failed = self.workload.check(outputs)
        self.attempted += checked
        self.failed += failed


def run_passes(workload, seconds: float, checks: Checks, between=None) -> list:
    """Passes until their summed time reaches ``seconds`` (at least one).

    ``between()``, if given, runs after each pass, outside the timing.
    """
    passes = []
    while not passes or sum(p.wall for p in passes) < seconds:
        p, outputs = run_pass(workload)
        checks.add(outputs)
        passes.append(p)
        if between is not None:
            between()
    return passes


def child_seconds(argv) -> float:
    """Time reported by one fresh process, run to completion.

    The child prints either a ``time.monotonic()`` stamp, turned here into
    the time since just before it was started, or a duration it measured.
    """
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    kind, value = proc.stdout.split()[-2:]
    return float(value) - t0 if kind == "stamp" else float(value)


def setup_probe_argv(workload_name: str, seed: int) -> list:
    """A fresh process that stamps the time once its imports and inputs are ready."""
    return [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
            "--seed", str(seed), "--setup-probe"]


def cli_import_seconds() -> float:
    """Median import time of ``aggthru.cli`` over fresh processes."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import aggthru.cli; print('duration', time.perf_counter() - t)"
    )
    return statistics.median(child_seconds([sys.executable, "-c", code, str(SRC)]) for _ in range(N_PROBES))


def _percentiles_ms(samples) -> tuple:
    p50, p90 = np.percentile(np.asarray(samples) * 1e3, [50, 90])
    return float(p50), float(p90)


def end_to_end(workload, seed: int, seconds: float) -> tuple:
    checks = Checks(workload)
    # set-up probes run one after each pass, so their median spans the run
    # rather than one moment of the host's load
    probe = setup_probe_argv(workload.name, seed)
    setup = []

    def setup_between_passes():
        if len(setup) < MAX_SETUP_PROBES:
            setup.append(child_seconds(probe))

    passes = run_passes(workload, seconds, checks, between=setup_between_passes)
    while len(setup) < N_PROBES:
        setup.append(child_seconds(probe))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # Passes repeat identical work, so a pass or op slower than its fastest
    # repeat was slowed by something outside the program (the benchmark's
    # host is a shared 2-vCPU VM): report the fastest repeat of each.
    latency = [min(ts) for ts in zip(*(p.op_latency for p in passes))]
    p50, p90 = _percentiles_ms(latency)
    n_pass, n_op = len(passes), len(latency)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (min(p.wall for p in passes), "s", n_pass),
        "cpu_s": (min(p.cpu for p in passes), "s", n_pass),
        "op_ms_p50": (p50, "ms", n_op),
        "op_ms_p90": (p90, "ms", n_op),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    return metrics, checks


def traced(workload, seconds: float) -> tuple:
    from aggthru import exact
    import layers
    from spans import replay_peak_alloc

    checks = Checks(workload)
    untraced = run_passes(workload, seconds / 2, checks)
    tracer, traced_pass, outputs = layers.traced_pass(workload, run_pass)
    checks.add(outputs)
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{workload.name}.npz")

    def optimize_quiet(*args, **kwargs):
        try:
            exact.optimize_exact(*args, **kwargs)
        except exact.NoFeasiblePlanError:
            pass

    metrics = layers.layer_metrics(
        tracer,
        peak_alloc=replay_peak_alloc(optimize_quiet, tracer.recorded_calls["exact.optimize_exact"]),
        import_s=(cli_import_seconds(), N_PROBES),
        overhead_s=traced_pass.wall - min(p.wall for p in untraced),
    )
    return metrics, checks


def context(args) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("stamp", time.monotonic())
            return 0
        if args.trace:
            metrics, checks = traced(workload, args.seconds)
        else:
            metrics, checks = end_to_end(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("context", json.dumps(context(args)))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit:<6} n={n}")
    frac = checks.failed / checks.attempted
    print(f"{'failed_frac':<44} {frac:>14.6g} {'1':<6} n={checks.attempted}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed pass time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "aggthru" / "__init__.py", ROOT / "tests" / "data" / "sweep_default.csv") if not p.is_file()]
    if missing:
        print(f"bench: not a checkout of the repository; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
