from dataclasses import replace
from pathlib import Path

import pytest

from aggthru import geometry, report
from aggthru import (
    Link,
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


def test_sweep_geometry_without_a_plan_is_infeasible_at_every_ber():
    grid = SweepGrid(flavors=(ProtocolFlavor.AC64,), bers=(0.0, 1e-6, 1e-5), msdu_lens=(1500,))
    rows = run_sweep(grid, overrides={"ppdu_time_limit": 50})
    assert [(r.ber, r.mcs) for r in rows] == [(ber, mcs) for ber in grid.bers for mcs in range(10)]
    assert all(r.x == 0 and r.throughput_mbps == 0.0 for r in rows)


def test_sweep_writes_zero_rows_only_for_the_mcss_without_a_plan():
    # under a 100-us time limit no 1500-byte MSDU fits at MCS 0, while the
    # other MCSs of the same search call each have a plan
    grid = SweepGrid(flavors=(ProtocolFlavor.AC64,), bers=(0.0, 1e-5), msdu_lens=(1500,))
    config = replace(default_config(ProtocolFlavor.AC64), ppdu_time_limit=100.0)
    rows = run_sweep(grid, overrides={"ppdu_time_limit": 100.0})
    assert [r.mcs for r in rows if not r.feasible] == [0, 0]
    assert all(r.x == 0 and r.throughput_mbps == 0.0 and r.cycle_time_us == 0.0 for r in rows if r.mcs == 0)
    for row in rows:
        if row.feasible:
            res = optimize_exact(Scenario(row.flavor, row.mcs, row.ber, row.msdu_len), config)
            assert (row.x, row.y_base, row.n_extra, row.throughput_mbps) == (
                res.plan.x, res.plan.y_base, res.plan.n_extra, res.throughput,
            )


def test_a_cold_default_sweep_makes_one_search_call_per_flavor_and_msdu_size(monkeypatch):
    # 9 search calls, each building one v row per BER for all its MCSs: 36
    # v tables, not one call per flavor, MCS and MSDU size (102 and 408)
    calls, tables = [], []
    batch, v_table = report.optimize_exact_batch, Link.v_table
    monkeypatch.setattr(report, "optimize_exact_batch", lambda *args, **kw: calls.append(args) or batch(*args, **kw))
    monkeypatch.setattr(Link, "v_table", lambda self, n: tables.append(n) or v_table(self, n))
    geometry._last_link = (None,) * 5
    run_sweep(SweepGrid())
    assert (len(calls), len(tables)) == (9, 36)


def test_sweep_rows_follow_the_grid_order_and_match_single_searches():
    # one search per geometry answers every BER; the rows still go by
    # (flavor, ber, msdu_len, mcs) in the grid's own order
    grid = SweepGrid(
        flavors=(ProtocolFlavor.AX64, ProtocolFlavor.AC64),
        bers=(1e-5, 0.0, 1e-7),
        msdu_lens=(1500, 64),
    )
    rows = run_sweep(grid)
    expected_keys = [
        (flavor, ber, msdu_len, mcs)
        for flavor in grid.flavors
        for ber in grid.bers
        for msdu_len in grid.msdu_lens
        for mcs in range(len(default_config(flavor).mcs_rates))
    ]
    assert [(r.flavor, r.ber, r.msdu_len, r.mcs) for r in rows] == expected_keys
    for row in rows[::7]:
        res = optimize_exact(Scenario(row.flavor, row.mcs, row.ber, row.msdu_len), default_config(row.flavor))
        assert (row.x, row.y_base, row.n_extra) == (res.plan.x, res.plan.y_base, res.plan.n_extra)
        assert row.throughput_mbps == res.throughput


def test_sweep_equals_its_sweeps_per_flavor_and_ber():
    grid = SweepGrid(
        flavors=(ProtocolFlavor.AC64, ProtocolFlavor.AX256),
        bers=(0.0, 1e-5),
        msdu_lens=(1500,),
    )
    pieces = [
        run_sweep(replace(grid, flavors=(flavor,), bers=(ber,)))
        for flavor in grid.flavors
        for ber in grid.bers
    ]
    assert run_sweep(grid) == [row for piece in pieces for row in piece]
