import concurrent.futures
import os
from pathlib import Path

import pytest

from aggthru import (
    ProtocolFlavor,
    Scenario,
    default_config,
    optimize_exact,
)
from aggthru.report import (
    CSV_HEADER,
    SweepGrid,
    improvement,
    rows_to_csv,
    rows_to_json,
    run_sweep,
)

GOLDEN = Path(__file__).parent / "data" / "sweep_default.csv"


def test_default_grid_shape(default_rows):
    assert len(default_rows) == 408  # 4 BER x 3 sizes x (10 + 12 + 12) MCS
    flavors = [ProtocolFlavor.AC64, ProtocolFlavor.AX64, ProtocolFlavor.AX256]
    order = [
        (flavors.index(r.flavor), r.ber, r.msdu_len, r.mcs) for r in default_rows
    ]
    assert order == sorted(order)
    assert all(r.feasible for r in default_rows)


def test_rows_match_golden_file(default_rows):
    assert rows_to_csv(default_rows) == GOLDEN.read_text(encoding="utf-8")


def test_csv_format(default_rows):
    text = rows_to_csv(default_rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n")
    assert "\r" not in text
    assert len(lines) == 409


def test_csv_spot_values(default_rows):
    text = rows_to_csv(default_rows)
    assert "ac64,9,3120,0,1500,64,7,0,2759.05,1748,1948.5" in text
    assert "ax256,11,4803,0,1500,255,6,252,4514.73,4515.2,4736.5" in text


def test_json_round(default_rows):
    import json

    data = json.loads(rows_to_json(default_rows[:3]))
    assert len(data) == 3
    assert data[0]["flavor"] == "ac64"
    assert set(data[0]) == set(CSV_HEADER.split(","))


def test_row_reproducible_from_key(default_rows):
    for row in (default_rows[37], default_rows[200], default_rows[-1]):
        config = default_config(row.flavor)
        res = optimize_exact(Scenario(row.flavor, row.mcs, row.ber, row.msdu_len), config)
        assert res.plan.x == row.x
        assert res.plan.y_base == row.y_base
        assert res.plan.n_extra == row.n_extra
        assert res.throughput == row.throughput_mbps


def test_improvement_self_is_zero(default_rows):
    table = improvement(default_rows, ProtocolFlavor.AC64, ProtocolFlavor.AC64)
    assert table.entries
    assert all(v == 0.0 for v in table.entries.values())


def test_improvement_antisymmetric_sign(default_rows):
    ab = improvement(default_rows, ProtocolFlavor.AX256, ProtocolFlavor.AC64)
    ba = improvement(default_rows, ProtocolFlavor.AC64, ProtocolFlavor.AX256)
    for key, pct in ab.entries.items():
        assert (pct > 0) == (ba.entries[key] < 0) or pct == ba.entries[key] == 0.0


def test_improvement_common_keys_and_missing(default_rows):
    table = improvement(default_rows, ProtocolFlavor.AX256, ProtocolFlavor.AC64)
    # only the ten shared MCS indices are compared
    assert len(table.entries) == 10 * 4 * 3
    assert all(mcs <= 9 for (mcs, _, _) in table.entries)
    # the 11ax-only MCSs have no 11ac counterpart and are flagged
    assert len(table.missing) == 2 * 4 * 3
    assert all(mcs >= 10 for (mcs, _, _) in table.missing)
    assert set(table.per_ber_max) == {0.0, 1e-7, 1e-6, 1e-5}


def test_sweep_flags_infeasible_points():
    grid = SweepGrid(flavors=(ProtocolFlavor.AC64,), bers=(0.0,), msdu_lens=(1500,))
    rows = run_sweep(grid, overrides={"ppdu_time_limit": 50})
    assert len(rows) == 10
    assert all(not r.feasible for r in rows)
    assert all(r.x == 0 and r.throughput_mbps == 0.0 for r in rows)
    table = improvement(rows, ProtocolFlavor.AC64, ProtocolFlavor.AC64)
    assert not table.entries
    assert len(table.missing) == 10


def test_sweep_parallel_matches_serial():
    grid = SweepGrid(
        flavors=(ProtocolFlavor.AC64, ProtocolFlavor.AX256),
        bers=(0.0, 1e-5),
        msdu_lens=(1500,),
    )
    serial = run_sweep(grid, workers=1)
    parallel = run_sweep(grid, workers=2)
    assert serial == parallel


def test_sweep_pool_is_no_larger_than_its_tasks_and_cpus(monkeypatch):
    # the pool may start every worker at the first task, so it asks for no
    # more than there are points or CPUs; a serial stand-in records the size
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    grid = SweepGrid(flavors=(ProtocolFlavor.AC64,), bers=(0.0,), msdu_lens=(1500,))   # 10 points
    serial = run_sweep(grid)
    for cpus, workers in ((4, 10**6), (64, 10**6), (64, 3), (None, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_sweep(grid, workers=workers) == serial
    assert sizes == [4, 10, 3, 1]
