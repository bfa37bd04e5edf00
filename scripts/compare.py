"""Per-layer timings and output digests of one or two checkouts, each in fresh processes.

    python scripts/compare.py                                     # this checkout
    python scripts/compare.py --pairs 10 --out BENCH.json BEFORE AFTER

Each child is a new Python process that imports ``aggthru`` from the ``src``
directory of one checkout and runs ``_child`` of this file, so both sides run
the same measurement.  With two checkouts the children run in alternating
pairs (BEFORE first in even pairs, AFTER first in odd ones).  A child
reports, as the fastest of ``REPEATS`` runs unless said otherwise:

- the throughput kernel, ``Link.of``, ``airtime`` and ``is_feasible`` per
  call and the Monte Carlo per cycle (``KERNEL``), each timed with ``timeit``;
- ``optimize_exact`` on every point of the default grid, cold (see
  ``_cold_reset``), per point, as the mean per flavor and MSDU size class
  (small L < 256 bytes, medium L < 1024, large) and the median and 90th
  percentile over points;
- the same for the seed-1 ``scenario-mix`` requests of the checkout's
  ``bench/workloads.py``, resolved to configs outside the timing: mostly
  small searches, where fixed costs show;
- the default 408-point sweep, rounded and unrounded, and the huge searches
  of ``HUGE``, fastest of ``SWEEP_REPEATS``, with each huge search's peak
  ``tracemalloc`` allocation;
- ``rows_to_csv`` and ``rows_to_json`` on the rows of one default sweep
  (``_writers``);
- the cold start of each command of ``CLI``: a fresh ``python -m aggthru``
  process, output discarded;
- the tier-1 suite (``TIER1``, the command of ROADMAP.md), once per child as
  a fresh process run in the checkout: its wall time, and its passed and
  failed counts from pytest's summary line (``tier1`` of each side, one
  entry per child); failing tests do not stop it, a suite that cannot run
  does;
- a SHA-256 digest of each output family (``_digests``);
- outside the timed runs, the function calls ``cProfile`` records (``_calls``)
  and the candidate plans scored, in total and per search stage
  (``_stage_candidates``), per cold ``optimize_exact`` over the default grid
  and over the ``scenario-mix`` requests, per default sweep and, for
  candidates, in each huge search; the ``optimize_exact_batch``,
  ``Link.v_table`` and ``Link.within_time_limit`` calls of one cold default
  sweep (``_calls_of``), and the calls of one warm ``throughput_exact`` of
  each ``KERNEL`` plan (``_kernel_calls``), all in ``_counts``: the same on
  every run, so they show a change in work too small for the timings.

The report, JSON, gives each side's git SHA, whether its tracked files differ
from that commit (``dirty``), the lines of its ``src/aggthru/*.py``
(``src_lines``), its digests and counts, and the median and
quartiles of each timing over its children; with two checkouts also the
AFTER/BEFORE ratio of the medians.  The exit status is 1 if any digest
differs, between the sides or between the children of one side.
"""
from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5
SWEEP_REPEATS = 3
MC_CYCLES = 20_000
FLAVORS = ("ac64", "ax64", "ax256")
STAGES = ("seed", "caps", "kinks", "symbols")   # of one search call, in the order it scores them
SIZE_CLASSES = ("small", "medium", "large")
# name -> the limit each huge search lifts, for ax256, MCS 11, BER 1e-6, L=64 under a 1e5-us PPDU limit
HUGE = {
    "huge_1e5": {"max_mpdus": 10**6},               # a window of 1e6 frames
    "huge_bytes_1e5": {"max_mpdu_bytes": 10**12},   # MPDUs of up to 1e12 bytes
}

# name -> (statement, unit); the statement runs in the namespace of _kernel
KERNEL = {
    "throughput_exact.feasible_us": ("throughput_exact(plan, scenario, config)", "us"),
    "throughput_exact.infeasible_us": ("infeasible()", "us"),
    "link_of.hit_us": ("Link.of(scenario, config)", "us"),
    "airtime_us": ("airtime(plan, scenario, config)", "us"),
    "is_feasible_us": ("is_feasible(plan, scenario, config)", "us"),
    "simulate_throughput.ns_per_cycle": (
        "simulate_throughput(plan, scenario, config, cycles=MC_CYCLES, seed=1)", "ns",
    ),
}
CLI = {
    "optimize": ("optimize", "--flavor", "ax256", "--mcs", "11", "--ber", "1e-6", "--msdu-len", "64"),
    "sweep": ("sweep",),
    "xopt": ("xopt", "--ber", "1e-5", "--rate", "4803"),
    "crossover": ("crossover", "--ber", "1e-6"),
    "validate": ("validate", "--cycles", "2000"),
}
UNITS = {
    **{name: unit for name, (_, unit) in KERNEL.items()},
    **{f"optimize_exact.{f}.{c}.ms_mean": "ms" for f in FLAVORS for c in SIZE_CLASSES},
    "optimize_exact.grid.ms_p50": "ms",
    "optimize_exact.grid.ms_p90": "ms",
    "optimize_exact.scenario_mix.ms_p50": "ms",
    "optimize_exact.scenario_mix.ms_p90": "ms",
    "sweep.rounded_s": "s",
    "sweep.unrounded_s": "s",
    "sweep.csv_ms": "ms",
    "sweep.json_ms": "ms",
    **{f"{name}.{metric}": unit for name in HUGE for metric, unit in (("s", "s"), ("peak_alloc_mb", "MB"))},
    **{f"cli.{command}.cold_s": "s" for command in CLI},
    "tier1.wall_s": "s",
}
# the tier-1 command; the child's PYTHONPATH already starts with the checkout's src
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

# Digest inputs.  BERs and MSDU sizes of the closed-form CLI commands:
BERS = ("1e-7", "1e-6", "1e-5")
MSDU_LENS = ("64", "512", "1500")
XOPT_RATE = "4803"   # ax MCS 11 [Mbps]
# override files, written to a scratch directory the child runs the CLI in
OVERRIDE_FILES = {
    # at ac64 MCS 9 the wide window fills the 1048575-byte PSDU cap; without it, the time limit
    "wide.cfg": "max_mpdus = 256\n",
    "wide_no_psdu_cap.cfg": "max_mpdus = 256\nmax_psdu_bytes = none\n",
    "tight.cfg": "ppdu_time_limit = 50\n",   # no transmission fits: in-band infeasible
}
# (flavor, MCS, BER, MSDU size, override file or None)
OPTIMIZE_CASES = (
    ("ac64", "9", "0", "1500", None),
    ("ac64", "9", "0", "1500", "wide.cfg"),
    ("ac64", "9", "0", "1500", "wide_no_psdu_cap.cfg"),
    ("ax64", "5", "1e-5", "512", None),
    ("ax256", "11", "1e-6", "64", None),
    ("ac64", "0", "0", "64", "tight.cfg"),
)


def _fastest(call, repeats: int, reset=lambda: None) -> float:
    """Fastest of ``repeats`` runs of ``call()`` [s], each after ``reset()``."""
    best = float("inf")
    for _ in range(repeats):
        reset()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _cold_reset() -> None:
    """Forget the last built ``Link``, so the next ``optimize_exact`` builds its own."""
    from aggthru import geometry

    geometry._last_link = (None,) * 5


def _profile(call, *args) -> cProfile.Profile:
    """What ``cProfile`` records in one cold ``call(*args)`` (see ``_cold_reset``).

    Python functions and the built-in ones they call, numpy's included; a
    ``NoFeasiblePlanError`` ends the call as a return would.
    """
    from aggthru import NoFeasiblePlanError

    profile = cProfile.Profile()
    _cold_reset()
    try:
        profile.runcall(call, *args)
    except NoFeasiblePlanError:
        pass
    return profile


def _calls_of(profile: cProfile.Profile, function: str = "") -> int:
    """Function calls in ``profile``, or only those of ``function``, ``<aggthru module>.<name>``.

    The sum over ``getstats()``: ``pstats`` keys functions by file, line and
    name, so it merges every dataclass-generated ``__init__`` into one entry
    and keeps only one of their counts.
    """
    module, _, name = function.rpartition(".")
    return sum(
        entry.callcount for entry in profile.getstats()
        if not function or not isinstance(entry.code, str)
        and entry.code.co_name == name and entry.code.co_filename.endswith(f"{module}.py")
    )


def _calls(call, *args) -> int:
    """Function calls ``cProfile`` records in one cold ``call(*args)`` (see ``_profile``, ``_calls_of``)."""
    return _calls_of(_profile(call, *args))


def _candidates(call, *args) -> int:
    """Candidate plans scored in one cold ``call(*args)``: the sum of its ``_stage_candidates``."""
    return sum(_stage_candidates(call, *args).values())


def _stage_candidates(call, *args) -> dict:
    """Candidate plans scored in one cold ``call(*args)`` (see ``_cold_reset``), per search stage.

    Every stage scores its candidates in one ``Link.scores`` call, in the
    order of ``STAGES``.  A search call of two or more channels first scores
    the seed of all its MCSs, each at its own rate: the one call whose link
    holds an array of rates.  Then each MCS scores its caps, its kinks and
    the last ``M`` of each symbol count (only when rounding).  A checkout
    that searches one MCS per call and seeds it on its own scores the seed
    right after the caps instead; this counts both.  Each call adds the
    number of plans its ``x`` and ``m`` broadcast to, one per plan whatever
    the number of channels.  The kernel scores one plan without
    ``Link.scores`` and adds nothing.  A ``NoFeasiblePlanError`` ends the
    call as a return would.
    """
    import numpy as np

    from aggthru import Link, NoFeasiblePlanError

    scores, scored = Link.scores, dict.fromkeys(STAGES, 0)
    stages = []   # the stages left in the current MCS's search
    seeded_ahead = []   # not empty once a call has scored its seed ahead of its MCSs

    def counting(self, x, m, *rest, **keywords):
        result = scores(self, x, m, *rest, **keywords)
        if np.ndim(self.per_symbol):   # the seed of a whole call
            seeded_ahead.append(True)
            stage = "seed"
        else:
            if not stages:   # the caps of a new search; its scores have one row per channel
                seed = ["seed"] * (len(result[0]) > 1 and not seeded_ahead)
                stages.extend(["caps", *seed, "kinks", *["symbols"] * self.round_symbols])
            stage = stages.pop(0)
        scored[stage] += np.broadcast(x, m).size
        return result

    Link.scores = counting
    _cold_reset()
    try:
        call(*args)
    except NoFeasiblePlanError:
        pass
    finally:
        Link.scores = scores
    return scored


def _kernel_calls() -> dict:
    """Function calls ``cProfile`` records in one warm ``throughput_exact`` of each ``KERNEL`` plan.

    The feasible and the infeasible statement of ``KERNEL`` each run once
    first, to fill the memo of ``Link.of`` as in the timed loops.
    """
    namespace = _kernel_namespace()
    out = {}
    for name in ("throughput_exact.feasible_us", "throughput_exact.infeasible_us"):
        stmt = KERNEL[name][0]
        exec(stmt, namespace)
        profile = cProfile.Profile()
        profile.runctx(stmt, namespace, {})
        out[name.removesuffix("_us") + ".calls"] = _calls_of(profile)
    return out


def _huge(name: str):
    """``(scenario, config)`` of the huge search ``name`` of ``HUGE``."""
    from dataclasses import replace

    from aggthru import ProtocolFlavor, Scenario, default_config

    config = replace(default_config(ProtocolFlavor.AX256), ppdu_time_limit=1e5, **HUGE[name])
    return Scenario(ProtocolFlavor.AX256, 11, 1e-6, 64), config


def _grid():
    """``(flavor, size class, scenario, config)`` of every point of the default grid."""
    from aggthru import ProtocolFlavor, Scenario, default_config
    from aggthru.report import DEFAULT_BERS, DEFAULT_MSDU_LENS

    for flavor in FLAVORS:
        config = default_config(ProtocolFlavor(flavor))
        for msdu_len in DEFAULT_MSDU_LENS:
            size = SIZE_CLASSES[0 if msdu_len < 256 else 1 if msdu_len < 1024 else 2]
            for mcs in range(len(config.mcs_rates)):
                for ber in DEFAULT_BERS:
                    yield flavor, size, Scenario(ProtocolFlavor(flavor), mcs, ber, msdu_len), config


def _scenario_mix():
    """``(scenario, config, overhead)`` of each seed-1 ``scenario-mix`` request of the checkout."""
    from aggthru import Scenario, default_config, params

    bench = str(Path.cwd() / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import scenario_mix_requests

    for request in scenario_mix_requests(1):
        overrides = params.parse_override_text(request.override_text)
        config, overhead = params.apply_overrides(
            default_config(request.flavor), params.DEFAULT_OVERHEAD, overrides,
        )
        yield Scenario(request.flavor, request.mcs, request.ber, request.msdu_len), config, overhead


def _kernel_namespace() -> dict:
    """The names the statements of ``KERNEL`` run with."""
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
    return dict(locals(), MC_CYCLES=MC_CYCLES)


def _kernel() -> dict:
    """Per call of every entry of ``KERNEL``; the fastest repeat of an autoranged loop."""
    import timeit

    namespace = _kernel_namespace()
    out = {}
    for name, (stmt, unit) in KERNEL.items():
        timer = timeit.Timer(stmt, globals=namespace)
        number, _ = timer.autorange()
        best = min(timer.repeat(REPEATS, number)) / number
        out[name] = best / MC_CYCLES * 1e9 if unit == "ns" else best * 1e6
    return out


def _optimizer() -> dict:
    """Every ``optimize_exact.*``, ``sweep.*`` and ``HUGE`` entry of ``UNITS``."""
    import tracemalloc

    import numpy as np

    from aggthru import NoFeasiblePlanError, optimize_exact, params
    from aggthru.report import SweepGrid, run_sweep

    def cold_ms(scenario, config, overhead=params.DEFAULT_OVERHEAD) -> float:
        def call():
            try:
                optimize_exact(scenario, config, overhead)
            except NoFeasiblePlanError:
                pass
        return _fastest(call, REPEATS, _cold_reset) * 1e3

    out = {}
    by_class, grid = {}, []
    for flavor, size, scenario, config in _grid():
        ms = cold_ms(scenario, config)
        by_class.setdefault((flavor, size), []).append(ms)
        grid.append(ms)
    for (flavor, size), times in by_class.items():
        out[f"optimize_exact.{flavor}.{size}.ms_mean"] = statistics.fmean(times)
    out["optimize_exact.grid.ms_p50"] = float(np.percentile(grid, 50))
    out["optimize_exact.grid.ms_p90"] = float(np.percentile(grid, 90))

    mix = [cold_ms(*search) for search in _scenario_mix()]
    out["optimize_exact.scenario_mix.ms_p50"] = float(np.percentile(mix, 50))
    out["optimize_exact.scenario_mix.ms_p90"] = float(np.percentile(mix, 90))

    out["sweep.rounded_s"] = _fastest(lambda: run_sweep(SweepGrid()), SWEEP_REPEATS, _cold_reset)
    out["sweep.unrounded_s"] = _fastest(
        lambda: run_sweep(SweepGrid(), round_symbols=False), SWEEP_REPEATS, _cold_reset,
    )
    for name in HUGE:
        scenario, huge = _huge(name)
        out[f"{name}.s"] = _fastest(lambda: optimize_exact(scenario, huge), SWEEP_REPEATS, _cold_reset)
        _cold_reset()
        tracemalloc.start()
        optimize_exact(scenario, huge)
        out[f"{name}.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return out


def _writers() -> dict:
    """``sweep.csv_ms`` and ``sweep.json_ms``: each writer on the rows of one default sweep."""
    from aggthru.report import SweepGrid, rows_to_csv, rows_to_json, run_sweep

    rows = run_sweep(SweepGrid())
    return {
        f"sweep.{name}_ms": _fastest(lambda: write(rows), REPEATS) * 1e3
        for name, write in (("csv", rows_to_csv), ("json", rows_to_json))
    }


def _counts() -> dict:
    """Function calls (``_calls``) and candidates scored (``_stage_candidates``).

    The mean per cold search of the grid and of ``scenario-mix`` and the total
    per default sweep; the candidates also of each huge search, each in total
    and per stage (``<name>.<stage>``); the search calls, ``v`` tables and
    time checks of the sweep (``_calls_of``) and the calls of the kernel
    (``_kernel_calls``).
    """
    from aggthru import optimize_exact, params
    from aggthru.report import SweepGrid, run_sweep

    grid = [(scenario, config, params.DEFAULT_OVERHEAD) for *_, scenario, config in _grid()]
    mix = list(_scenario_mix())
    sweep = _profile(run_sweep, SweepGrid())
    out = {
        "optimize_exact.grid.calls_per_search": statistics.fmean(_calls(optimize_exact, *s) for s in grid),
        "optimize_exact.scenario_mix.calls_per_search": statistics.fmean(
            _calls(optimize_exact, *s) for s in mix
        ),
        "sweep.rounded.calls": _calls_of(sweep),
        "sweep.rounded.searches": _calls_of(sweep, "exact.optimize_exact_batch"),
        "sweep.rounded.v_tables": _calls_of(sweep, "geometry.v_table"),
        "sweep.rounded.time_checks": _calls_of(sweep, "geometry.within_time_limit"),
    }

    def candidates(name, searches, reduce):
        out[name] = reduce([sum(search.values()) for search in searches])
        out.update({f"{name}.{stage}": reduce([search[stage] for search in searches]) for stage in STAGES})

    candidates("optimize_exact.grid.candidates_per_search",
               [_stage_candidates(optimize_exact, *s) for s in grid], statistics.fmean)
    candidates("optimize_exact.scenario_mix.candidates_per_search",
               [_stage_candidates(optimize_exact, *s) for s in mix], statistics.fmean)
    candidates("sweep.rounded.candidates", [_stage_candidates(run_sweep, SweepGrid())], sum)
    for name in HUGE:
        candidates(f"{name}.candidates", [_stage_candidates(optimize_exact, *_huge(name))], sum)
    out.update(_kernel_calls())
    return out


def _cli_cold() -> dict:
    """Each command of ``CLI`` as a fresh ``python -m aggthru`` of this checkout [s]."""
    def run(argv):
        subprocess.run([sys.executable, "-m", "aggthru", *argv], stdout=subprocess.DEVNULL, check=True)
    return {f"cli.{command}.cold_s": _fastest(lambda: run(argv), REPEATS) for command, argv in CLI.items()}


def _tier1() -> tuple:
    """The tier-1 suite as one fresh process of this checkout: its wall time [s] and its counts.

    The counts come from pytest's summary line, e.g. ``2 failed, 376 passed
    in 12.01s``; ``passed`` and ``failed`` are always present.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):   # 1: some tests failed; anything else: the suite did not run
        raise RuntimeError(f"tier-1 suite exited with {proc.returncode}")
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {"passed": 0, "failed": 0}
    counts.update((word, int(n)) for n, word in re.findall(r"(\d+) (\w+)", summary))
    return {"tier1.wall_s": elapsed}, dict(counts, summary=summary)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _digests() -> dict:
    """One digest per output family, for the ``aggthru`` on ``sys.path``:

    - ``sweep.rounded`` and ``sweep.unrounded``: the ``repr`` of the rows of
      the default sweep, with and without whole OFDM symbols;
    - ``lifted_window``: the plan and throughput of the 36 ax256 optima of
      acceptance criterion 6 (L=64, a window of 1e6 frames);
    - ``cli``: the exit code and JSON of ``xopt`` and ``crossover`` at each
      BER of ``BERS`` and of ``crossover --reliable`` at each of ``MSDU_LENS``;
    - ``optimize``: the exit code and JSON of ``optimize`` at each of
      ``OPTIMIZE_CASES``, some with an override file of ``OVERRIDE_FILES``;
    - ``sweep.json``: the exit code and output of ``sweep --format json``;
    - ``validate``: the exit code and JSON of ``validate --cycles 2000``.
    """
    import contextlib
    import io
    import tempfile
    from dataclasses import replace

    from aggthru import ProtocolFlavor, Scenario, cli, default_config, optimize_exact
    from aggthru.report import SweepGrid, run_sweep

    ax256 = default_config(ProtocolFlavor.AX256)
    lifted = replace(ax256, max_mpdus=10**6, back64_duration=ax256.back_duration)
    optima = []
    for ber in map(float, BERS):
        for mcs in range(len(ax256.mcs_rates)):
            res = optimize_exact(Scenario(ProtocolFlavor.AX256, mcs, ber, 64), lifted)
            optima.append((res.plan.x, res.plan.y_base, res.plan.n_extra, res.throughput))

    def outputs(commands) -> list:
        out = []
        for argv in commands:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli.main(list(argv))
            out.append((argv, code, text.getvalue()))
        return out

    commands = [("xopt", "--ber", ber, "--rate", XOPT_RATE) for ber in BERS]
    commands += [("crossover", "--ber", ber) for ber in BERS]
    commands += [("crossover", "--reliable", "--msdu-len", size) for size in MSDU_LENS]
    optimize = []
    for flavor, mcs, ber, size, config in OPTIMIZE_CASES:
        argv = ("optimize", "--flavor", flavor, "--mcs", mcs, "--ber", ber, "--msdu-len", size)
        optimize.append(argv + (("--config", config) if config else ()))

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        # relative config paths keep the digested argv the same on every run
        os.chdir(scratch)
        try:
            for name, text in OVERRIDE_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            optimize_outputs = outputs(optimize)
        finally:
            os.chdir(home)

    return {
        "sweep.rounded": _digest(run_sweep(SweepGrid())),
        "sweep.unrounded": _digest(run_sweep(SweepGrid(), round_symbols=False)),
        "lifted_window": _digest(optima),
        "cli": _digest(outputs(commands)),
        "optimize": _digest(optimize_outputs),
        "sweep.json": _digest(outputs([("sweep", "--format", "json")])),
        "validate": _digest(outputs([("validate", "--cycles", "2000")])),
    }


def _child() -> dict:
    import numpy as np

    tier1_wall, tier1 = _tier1()
    return {
        "timings": {**_kernel(), **_optimizer(), **_writers(), **_cli_cold(), **tier1_wall},
        "tier1": tier1,
        "counts": _counts(),
        "digests": _digests(),
        "numpy": np.__version__,
    }


def _run_child(checkout: Path) -> dict:
    # absolute paths: the child runs with the checkout as its working directory
    path = os.pathsep.join((str(checkout.resolve() / "src"), str(Path(__file__).resolve().parent)))
    proc = subprocess.run(
        [sys.executable, "-c", "import compare, json; print(json.dumps(compare._child()))"],
        env=dict(os.environ, PYTHONPATH=path), cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _git_sha(checkout: Path):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/aggthru/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "aggthru").glob("*.py"))


def _git_dirty(checkout: Path):
    """Whether tracked files of ``checkout`` differ from its HEAD; None outside a git checkout."""
    proc = subprocess.run(
        ["git", "-C", str(checkout), "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True,
    )
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="BEFORE [AFTER] (default: this checkout)")
    parser.add_argument("--pairs", type=int, default=5, help="fresh processes per checkout")
    parser.add_argument("--out", type=Path, help="write the JSON here (default: stdout)")
    args = parser.parse_args(argv)
    checkouts = args.checkouts or [Path(__file__).resolve().parent.parent]
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    runs = [[] for _ in checkouts]
    for pair in range(args.pairs):
        order = range(len(checkouts)) if pair % 2 == 0 else reversed(range(len(checkouts)))
        for side in order:
            runs[side].append(_run_child(checkouts[side]))

    sides = []
    for side, checkout in enumerate(checkouts):
        sides.append({
            "side": ("before", "after")[side] if len(checkouts) == 2 else "this",
            "git_sha": _git_sha(checkout),
            "dirty": _git_dirty(checkout),
            "src_lines": _src_lines(checkout),
            "numpy": runs[side][0]["numpy"],
            "digests": runs[side][0]["digests"],
            "counts": runs[side][0]["counts"],   # the same on every child
            "tier1": [run["tier1"] for run in runs[side]],   # the suite's counts, one per child
            "timings": {
                name: dict(_summary([run["timings"][name] for run in runs[side]]), unit=unit)
                for name, unit in UNITS.items()
            },
        })
    reference = sides[0]["digests"]
    differ = [
        family for family in reference
        if any(run["digests"][family] != reference[family] for side in runs for run in side)
    ]
    result = {
        "script": "scripts/compare.py",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "repeats": REPEATS,
        "sweep_repeats": SWEEP_REPEATS,
        "pairs": args.pairs,
        "digests_differ": differ,
        "sides": sides,
    }
    if len(sides) == 2:
        result["after_over_before"] = {
            name: sides[1]["timings"][name]["median"] / sides[0]["timings"][name]["median"]
            for name in UNITS
        }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if differ:
        print(f"digests differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
