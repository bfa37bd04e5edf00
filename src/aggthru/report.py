"""Grid sweeps over (flavor, MCS, BER, MSDU size) and comparison tables.

Sweep points are independent; reductions are ordered so output never
depends on how the work was partitioned.  CSV output is byte-stable:
fixed column order, floats at 6 significant digits, '\\n' line endings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from .exact import NoFeasiblePlanError, optimize_exact
from .params import ProtocolFlavor, Scenario, phy_rate, resolve_config

DEFAULT_BERS = (0.0, 1e-7, 1e-6, 1e-5)
DEFAULT_MSDU_LENS = (64, 512, 1500)
DEFAULT_FLAVORS = (ProtocolFlavor.AC64, ProtocolFlavor.AX64, ProtocolFlavor.AX256)

CSV_COLUMNS = (
    "flavor",
    "mcs",
    "phy_rate_mbps",
    "ber",
    "msdu_len",
    "x",
    "y_base",
    "n_extra",
    "throughput_mbps",
    "data_time_us",
    "cycle_time_us",
)
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class SweepGrid:
    """Evaluation grid; the default is every flavor and MCS at the four
    channel conditions and three MSDU sizes."""

    flavors: tuple = DEFAULT_FLAVORS
    bers: tuple = DEFAULT_BERS
    msdu_lens: tuple = DEFAULT_MSDU_LENS


@dataclass(frozen=True)
class SweepRow:
    """One optimized grid point.  ``x == 0`` flags an infeasible point."""

    flavor: ProtocolFlavor
    mcs: int
    phy_rate_mbps: float
    ber: float
    msdu_len: int
    x: int
    y_base: int
    n_extra: int
    throughput_mbps: float
    data_time_us: float
    cycle_time_us: float

    @property
    def feasible(self) -> bool:
        return self.x >= 1

    def key(self) -> tuple:
        return (self.mcs, self.ber, self.msdu_len)


def _evaluate_point(task) -> SweepRow:
    flavor, mcs, ber, msdu_len, config, overhead, round_symbols = task
    rate = phy_rate(config, mcs)
    scenario = Scenario(flavor=flavor, mcs=mcs, ber=ber, msdu_len=msdu_len)
    try:
        res = optimize_exact(scenario, config, overhead, round_symbols=round_symbols)
    except NoFeasiblePlanError:
        return SweepRow(flavor, mcs, rate, ber, msdu_len, 0, 0, 0, 0.0, 0.0, 0.0)
    return SweepRow(
        flavor=flavor,
        mcs=mcs,
        phy_rate_mbps=rate,
        ber=ber,
        msdu_len=msdu_len,
        x=res.plan.x,
        y_base=res.plan.y_base,
        n_extra=res.plan.n_extra,
        throughput_mbps=res.throughput,
        data_time_us=res.airtime.data_time,
        cycle_time_us=res.airtime.cycle_time,
    )


def run_sweep(
    grid: SweepGrid = SweepGrid(),
    overrides: Optional[Mapping] = None,
    *,
    workers: int = 1,
    round_symbols: bool = True,
) -> list:
    """Optimize every grid point; rows ordered by (flavor, ber, msdu_len, mcs).

    Each flavor's configuration is its default with ``overrides`` applied
    (see ``params.resolve_config``).  Infeasible points become zero rows
    instead of aborting the sweep.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = []
    for flavor in grid.flavors:
        config, overhead = resolve_config(flavor, overrides)
        for ber in grid.bers:
            for msdu_len in grid.msdu_lens:
                for mcs in range(len(config.mcs_rates)):
                    tasks.append((flavor, mcs, ber, msdu_len, config, overhead, round_symbols))
    if workers == 1:
        return [_evaluate_point(t) for t in tasks]
    # imported here: the pool pulls in multiprocessing, which a serial sweep
    # and every plain import of the package would otherwise pay for
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_point, tasks))


def _fmt(value) -> str:
    if isinstance(value, ProtocolFlavor):
        return value.value
    if isinstance(value, bool):
        raise TypeError("unexpected bool in row")
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    out = []
    for row in rows:
        item = {col: getattr(row, col) for col in CSV_COLUMNS}
        item["flavor"] = row.flavor.value
        out.append(item)
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


@dataclass(frozen=True)
class ImprovementTable:
    """Relative throughput gain of one flavor over another [percent]."""

    entries: Mapping          # (mcs, ber, msdu_len) -> percent
    per_ber_max: Mapping      # ber -> max percent over common (mcs, msdu_len)
    missing: tuple            # keys lacking a feasible counterpart


def improvement(rows, flavor_a: ProtocolFlavor, flavor_b: ProtocolFlavor) -> ImprovementTable:
    """Per-point percentage gain 100*(a - b)/b over the common grid keys."""
    a_rows = {r.key(): r for r in rows if r.flavor is flavor_a}
    b_rows = {r.key(): r for r in rows if r.flavor is flavor_b}
    entries = {}
    missing = []
    for key in sorted(set(a_rows) | set(b_rows)):
        ra, rb = a_rows.get(key), b_rows.get(key)
        if ra is None or rb is None or not ra.feasible or not rb.feasible:
            missing.append(key)
            continue
        entries[key] = 100.0 * (ra.throughput_mbps - rb.throughput_mbps) / rb.throughput_mbps
    per_ber_max = {}
    for (mcs, ber, msdu_len), pct in entries.items():
        if ber not in per_ber_max or pct > per_ber_max[ber]:
            per_ber_max[ber] = pct
    return ImprovementTable(entries, per_ber_max, tuple(missing))
