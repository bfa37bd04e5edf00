"""The benchmark's three workloads: inputs, timed ops and result checks.

Each workload builds its inputs from a seed in ``__init__`` (set-up), runs
one op per item of ``ops`` through ``run_op`` (timed), and checks the
outputs afterwards in ``check``, outside the timed phase.  Layers are
called through their module attributes (``exact.throughput_exact``, not a
name imported here) so the traced run's wrappers see every call.

``check`` takes the outputs of one pass over ``ops``, in order, and returns
``(checked, failed)``: grid rows for ``grid-sweep``, requests for
``scenario-mix`` and points for ``plan-eval``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aggthru import cli, exact, geometry, params, report

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CSV = ROOT / "tests" / "data" / "sweep_default.csv"

FLAVORS = tuple(params.ProtocolFlavor)
SIZE_CLASSES = ("small", "medium", "large")


def size_class(msdu_len: int) -> int:
    """0 for L < 256, 1 for 256 <= L < 1024, 2 for L >= 1024 bytes."""
    return 0 if msdu_len < 256 else 1 if msdu_len < 1024 else 2


def read_golden() -> tuple:
    """Header line and data lines of the golden sweep CSV, without newlines."""
    lines = GOLDEN_CSV.read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines[0], lines[1:]


def _mismatches(got: list, want: list) -> int:
    """Lines that differ, counting missing or extra lines as differing."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


class GridSweep:
    """``report.run_sweep()`` on the default grid, then ``rows_to_csv``.

    The paper's own job, dominated by the large (x, M) searches at small
    MSDU sizes.  Deterministic: the seed is ignored.
    """

    name = "grid-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.header, self.golden = read_golden()
        self.ops = [None]

    def run_op(self, op):
        return report.rows_to_csv(report.run_sweep())

    def check(self, outputs) -> tuple:
        want = [self.header] + self.golden
        (text,) = outputs
        lines = text.split("\n")
        failed = _mismatches(lines, want + [""])   # the CSV ends with a newline
        return len(self.golden), min(failed, len(self.golden))


# --- scenario-mix ------------------------------------------------------------

MAX_MPDU_BYTES_CHOICES = (3895, 7991, 11454)
MSDU_LEN_RANGE = (30, 2304)            # [bytes], drawn log-uniformly
PPDU_LIMIT_RANGE = (80.0, 5484.0)      # [us], drawn log-uniformly
BER_RANGE = (1e-8, 1e-4)               # drawn log-uniformly
ZERO_BER_SHARE = 0.25
N_REQUESTS = 800
N_CHALLENGERS = 4                      # random feasible plans per answer


@dataclass(frozen=True)
class Request:
    flavor: params.ProtocolFlavor
    mcs: int
    ber: float
    msdu_len: int
    override_text: str

    def argv(self, config_path) -> list:
        return [
            "optimize", "--flavor", self.flavor.value, "--mcs", str(self.mcs),
            "--ber", repr(self.ber), "--msdu-len", str(self.msdu_len),
            "--config", str(config_path),
        ]


# dimensions of a request, the costliest first: they get the Halton bases
# whose first points are spread most evenly
REQUEST_DIMS = ("len", "limit", "window", "mcs", "flavor", "bytes", "ber")
HALTON_BASES = (2, 3, 5, 7, 11, 13, 17)
HALTON_DIGITS = 12


def _scrambled_halton(rng: np.random.Generator, n: int) -> list:
    """n points in [0, 1)^7: a Halton sequence with seeded digit scrambling.

    Each digit position of each base gets its own random permutation of the
    digits.  The points cover the unit cube far more evenly than independent
    draws (randomized quasi-Monte Carlo), so every seed's mix has nearly the
    same cost and latency distribution while its requests differ.
    """
    index = rng.permutation(n) + 1
    cols = {}
    for dim, base in zip(REQUEST_DIMS, HALTON_BASES):
        k, f, r = index.copy(), 1.0, np.zeros(n)
        for _ in range(HALTON_DIGITS):
            f /= base
            r += f * rng.permutation(base)[k % base]
            k //= base
        cols[dim] = r
    return [{dim: float(cols[dim][j]) for dim in REQUEST_DIMS} for j in range(n)]


def _log_uniform(u, lo: float, hi: float) -> float:
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def scenario_mix_requests(seed: int, n: int = N_REQUESTS) -> list:
    """Seeded list of interactive ``optimize`` requests, one override each.

    Small MSDUs and long PPDU limits make the large searches.  Drawing both
    log-uniformly keeps most searches small, while every seed still holds a
    few searches that reach the optimizer's largest working set, so peak
    memory does not hinge on the seed.
    """
    rng = np.random.default_rng([seed, 0x5ce7a])
    n_rates = {f: len(params.default_config(f).mcs_rates) for f in FLAVORS}
    requests = []
    for u in _scrambled_halton(rng, n):
        flavor = FLAVORS[int(u["flavor"] * len(FLAVORS))]
        if u["ber"] < ZERO_BER_SHARE:
            ber = 0.0
        else:
            ber = _log_uniform((u["ber"] - ZERO_BER_SHARE) / (1 - ZERO_BER_SHARE), *BER_RANGE)
        limit = _log_uniform(u["limit"], *PPDU_LIMIT_RANGE)
        override = (
            f"ppdu_time_limit = {limit!r}\n"
            f"max_mpdu_bytes = {MAX_MPDU_BYTES_CHOICES[int(u['bytes'] * len(MAX_MPDU_BYTES_CHOICES))]}\n"
            f"max_mpdus = {1 + int(u['window'] * 256)}\n"
        )
        requests.append(Request(
            flavor=flavor,
            mcs=int(u["mcs"] * n_rates[flavor]),
            ber=ber,
            msdu_len=int(_log_uniform(u["len"], MSDU_LEN_RANGE[0], MSDU_LEN_RANGE[1] + 1)),
            override_text=override,
        ))
    return requests


def _resolve(request: Request):
    config = params.default_config(request.flavor)
    overrides = params.parse_override_text(request.override_text)
    return params.apply_overrides(config, params.DEFAULT_OVERHEAD, overrides)


def challenger_plans(rng: random.Random, request: Request, config, overhead, k: int = N_CHALLENGERS):
    """Up to ``k`` seeded random feasible balanced plans for one request.

    Each draw picks x and the MSDU total M uniformly and halves M, then x,
    until the plan is feasible, so challengers sit near the limits.
    """
    scenario = params.Scenario(request.flavor, request.mcs, request.ber, request.msdu_len)
    ym = geometry.y_max(geometry.MsduSlot.for_payload(request.msdu_len, overhead), overhead, config)
    plans = []
    for _ in range(k):
        x = rng.randint(1, config.max_mpdus)
        m = rng.randint(x, x * ym)
        while True:
            plan = geometry.AggregationPlan(x, m // x, m % x)
            if geometry.is_feasible(plan, scenario, config, overhead).ok:
                plans.append(plan)
                break
            if m > x:
                m = max(x, m // 2)
            elif x > 1:
                x = m = x // 2
            else:
                break
    return plans


def check_answer(request: Request, code: int, text: str, rng: random.Random) -> bool:
    """True when one ``optimize`` answer is correct.

    A feasible answer must pass ``is_feasible``, reproduce its throughput
    through ``throughput_exact`` and beat every challenger plan.  An
    infeasible answer must be confirmed by the one-MSDU, one-MPDU plan
    being infeasible.
    """
    if code != 0:
        return False
    try:
        answer = json.loads(text)
    except json.JSONDecodeError:
        return False
    if not isinstance(answer, dict):
        return False
    config, overhead = _resolve(request)
    scenario = params.Scenario(request.flavor, request.mcs, request.ber, request.msdu_len)
    smallest = geometry.AggregationPlan(1, 1, 0)
    if answer.get("feasible") is False:
        return not geometry.is_feasible(smallest, scenario, config, overhead).ok
    if answer.get("feasible") is not True:
        return False
    try:
        got = answer["plan"]
        plan = geometry.AggregationPlan(got["x"], got["y_base"], got["n_extra"])
        reported = float(answer["throughput_mbps"])
    except (KeyError, TypeError, ValueError):
        return False
    if not geometry.is_feasible(plan, scenario, config, overhead).ok:
        return False
    thr = exact.throughput_exact(plan, scenario, config, overhead).throughput
    if not math.isclose(thr, reported, rel_tol=1e-12):
        return False
    for other in challenger_plans(rng, request, config, overhead):
        if exact.throughput_exact(other, scenario, config, overhead).throughput > thr * (1 + 1e-12):
            return False
    return True


def run_cli(argv) -> tuple:
    """``cli.main(argv)`` in-process; returns the exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class ScenarioMix:
    """Interactive ``optimize`` requests run in-process through ``cli.main``.

    Every request resolves a fresh config from its own override file and
    most searches are small, so per-call fixed cost in ``cli``, ``params``
    and the optimizer's set-up dominates, the opposite of ``grid-sweep``.
    """

    name = "scenario-mix"

    def __init__(self, seed: int, workdir: Path):
        self.requests = scenario_mix_requests(seed)
        self._rng = random.Random(seed)
        self._verdicts: dict = {}
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for i, request in enumerate(self.requests):
            path = workdir / f"override-{i:04d}.txt"
            path.write_text(request.override_text, encoding="utf-8")
            self.ops.append(request.argv(path))

    def run_op(self, argv):
        return run_cli(argv)

    def check(self, outputs) -> tuple:
        # passes repeat the same requests; an answer seen before keeps its verdict
        failed = 0
        for i, (code, text) in enumerate(outputs):
            key = (i, code, text)
            if key not in self._verdicts:
                self._verdicts[key] = check_answer(self.requests[i], code, text, self._rng)
            failed += not self._verdicts[key]
        return len(outputs), failed


# --- plan-eval ---------------------------------------------------------------

MC_CYCLES = 20_000
MC_Z_BOUND = 5.0   # ~5 sigma: crossed by chance with negligible probability over 408 points


@dataclass(frozen=True)
class Point:
    scenario: params.Scenario
    config: params.ProtocolConfig
    plan: geometry.AggregationPlan
    golden_throughput: str   # as written in the CSV (6 significant digits)
    mc_seed: int


def plan_eval_points(seed: int) -> list:
    """Every feasible golden plan, with a Monte Carlo seed derived from ``seed``."""
    header, lines = read_golden()
    configs = {f: params.default_config(f) for f in FLAVORS}
    points = []
    for index, row in enumerate(csv.DictReader([header] + lines)):
        if int(row["x"]) < 1:
            continue
        flavor = params.ProtocolFlavor(row["flavor"])
        points.append(Point(
            scenario=params.Scenario(flavor, int(row["mcs"]), float(row["ber"]), int(row["msdu_len"])),
            config=configs[flavor],
            plan=geometry.AggregationPlan(int(row["x"]), int(row["y_base"]), int(row["n_extra"])),
            golden_throughput=row["throughput_mbps"],
            mc_seed=int(np.random.SeedSequence([seed, index]).generate_state(1)[0]),
        ))
    return points


def evaluate_point(point: Point):
    """Kernel at the golden plan, a throughput-vs-x curve, and Monte Carlo."""
    scenario, config, plan = point.scenario, point.config, point.plan
    thr = exact.throughput_exact(plan, scenario, config).throughput
    curve = []
    for x in range(1, config.max_mpdus + 1):
        try:
            res = exact.throughput_exact(geometry.AggregationPlan(x, plan.y_base, 0), scenario, config)
        except exact.InfeasiblePlanError:
            curve.append(None)
        else:
            curve.append(res.throughput)
    mc = exact.simulate_throughput(plan, scenario, config, cycles=MC_CYCLES, seed=point.mc_seed)
    return thr, curve, mc.throughput


def mc_sigma(point: Point) -> float:
    """Model standard error of the simulated throughput at ``MC_CYCLES`` [Mbps]."""
    scenario, config, plan = point.scenario, point.config, point.plan
    msdu = geometry.MsduSlot.for_payload(scenario.msdu_len)
    var = 0.0
    for y, count in plan.mpdu_groups():
        p = exact.success_probability(scenario.ber, geometry.mpdu_bits(y, msdu))
        var += count * p * (1 - p) * (8 * scenario.msdu_len * y) ** 2
    cycle = geometry.airtime(plan, scenario, config).cycle_time
    return math.sqrt(var / MC_CYCLES) / cycle


def check_point(point: Point, output, sigma: float) -> bool:
    """True when one plan-eval result is correct.

    The kernel must match the CSV to 6 significant digits; the curve's
    feasible x must form a prefix starting at x = 1 and never beat the
    golden plan, which the optimizer found over all balanced plans; the
    Monte Carlo mean must lie within ``MC_Z_BOUND`` standard errors.
    """
    thr, curve, mc = output
    if format(thr, ".6g") != point.golden_throughput:
        return False
    feasible = [v for v in curve if v is not None]
    if not feasible or curve[: len(feasible)] != feasible:
        return False
    if max(feasible) > thr * (1 + 1e-12):
        return False
    if sigma == 0.0:
        return math.isclose(mc, thr, rel_tol=1e-12)
    return abs(mc - thr) <= MC_Z_BOUND * sigma


class PlanEval:
    """Kernel, geometry and Monte Carlo at every golden plan; no search.

    An optimizer change should leave this workload unchanged; a change to
    the per-scenario kernel should move it.
    """

    name = "plan-eval"

    def __init__(self, seed: int, workdir: Path):
        self.ops = plan_eval_points(seed)
        self._sigmas = None

    def run_op(self, point):
        return evaluate_point(point)

    def check(self, outputs) -> tuple:
        if self._sigmas is None:
            self._sigmas = [mc_sigma(p) for p in self.ops]
        failed = sum(
            not check_point(point, output, sigma)
            for point, output, sigma in zip(self.ops, outputs, self._sigmas)
        )
        return len(outputs), failed


WORKLOADS = {w.name: w for w in (GridSweep, ScenarioMix, PlanEval)}
