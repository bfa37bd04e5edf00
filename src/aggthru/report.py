"""Grid sweeps over (flavor, MCS, BER, MSDU size) and comparison tables.

A sweep makes one search call per flavor and MSDU size, for all its MCSs
and BERs.  CSV output is byte-stable: fixed column order, floats at 6
significant digits, '\\n' line endings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Mapping, Optional

from .exact import optimize_exact_batch
from .params import ProtocolFlavor, Scenario, phy_rate, resolve_config

DEFAULT_BERS = (0.0, 1e-7, 1e-6, 1e-5)
DEFAULT_MSDU_LENS = (64, 512, 1500)
DEFAULT_FLAVORS = tuple(ProtocolFlavor)


@dataclass(frozen=True)
class SweepGrid:
    """Evaluation grid; the default is every flavor and MCS at the four
    channel conditions and three MSDU sizes.  No list may be empty or
    repeat a value."""

    flavors: tuple[ProtocolFlavor, ...] = DEFAULT_FLAVORS
    bers: tuple[float, ...] = DEFAULT_BERS
    msdu_lens: tuple[int, ...] = DEFAULT_MSDU_LENS

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if not values:
                raise ValueError(f"{f.name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{f.name} must not repeat a value")


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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(CSV_COLUMNS)
_row_values = attrgetter(*CSV_COLUMNS)
# How a field is written as a CSV cell, per declared type
_CELLS = {"ProtocolFlavor": attrgetter("value"), "int": str, "float": lambda v: format(v, ".6g")}
_ROW_CELLS = tuple(_CELLS[f.type] for f in fields(SweepRow))


def run_sweep(
    grid: SweepGrid = SweepGrid(),
    overrides: Optional[Mapping] = None,
    *,
    round_symbols: bool = True,
) -> list:
    """Optimize every grid point; rows ordered by (flavor, ber, msdu_len, mcs).

    Each flavor's configuration is its default with ``overrides`` applied
    (see ``params.resolve_config``).  Each flavor and MSDU size is one
    ``optimize_exact_batch`` call over every MCS and BER of the grid.  An
    MCS that admits no plan gives zero rows instead of aborting the sweep.
    """
    rows = []
    for flavor in grid.flavors:
        config, overhead = resolve_config(flavor, overrides)
        mcss = range(len(config.mcs_rates))
        by_ber = {ber: [] for ber in grid.bers}   # each in (msdu_len, mcs) order
        for msdu_len in grid.msdu_lens:
            scenarios = [Scenario(flavor, mcs, ber, msdu_len) for mcs in mcss for ber in grid.bers]
            results = optimize_exact_batch(scenarios, config, overhead, round_symbols=round_symbols)
            for s, res in zip(scenarios, results):
                head = (flavor, s.mcs, phy_rate(config, s.mcs), s.ber, msdu_len)
                by_ber[s.ber].append(SweepRow(*head, 0, 0, 0, 0.0, 0.0, 0.0) if res is None else SweepRow(
                    *head, res.plan.x, res.plan.y_base, res.plan.n_extra,
                    res.throughput, res.airtime.data_time, res.airtime.cycle_time,
                ))
        for per_ber in by_ber.values():
            rows.extend(per_ber)
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join([cell(v) for cell, v in zip(_ROW_CELLS, _row_values(row))]))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    out = [dict(zip(CSV_COLUMNS, _row_values(row))) for row in rows]
    # numbers as they are; a flavor, the one field type JSON has no form for, as its value
    return json.dumps(out, indent=2, allow_nan=False, default=attrgetter("value")) + "\n"


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
