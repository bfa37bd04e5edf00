"""Acceptance gate: every release criterion, one test each, one printed
pass/fail line each (run with ``pytest -s`` to see them inline).

Two checks document known discrepancies and currently fail; the printed
details and the repository notes explain why:

- criterion 5: the lossy headline gain (about 54 % at BER=1e-5) lies above
  its window.  The gain hinges on the contention overhead (AIFS and
  backoff), whose conventional EDCA values are not the paper's;
- criterion 6: the closed form drops the symbol ceiling, the padding and
  the integrality of the per-MPDU MSDU count, so it does not promise
  |x_exact - round(X_opt)| <= 2.  At BER=1e-5 the exact optimum sits on an
  integer-fill ridge about 2 % above X_opt; at 1e-7 and 1e-6 the
  throughput is so flat in x that the argmax drifts by up to ~14 MPDUs.
"""
import itertools
import math
from dataclasses import replace

import pytest

from aggthru import (
    DEFAULT_OVERHEAD,
    AggregationPlan,
    ContinuousScenario,
    MsduSlot,
    ProtocolFlavor,
    Scenario,
    crossover_mcs,
    crossover_rate_reliable,
    cycle_overhead,
    default_config,
    mpdu_bits,
    optimize_exact,
    phy_rate,
    simulate_throughput,
    smallest_mcs_at_least,
    success_probability,
    throughput_exact,
    x_opt_closed_form,
    x_opt_coefficient,
    y_max,
)
from aggthru.report import SweepGrid, improvement, rows_to_csv, run_sweep

AX256 = default_config(ProtocolFlavor.AX256)
FLAVOR_ORDER = (ProtocolFlavor.AC64, ProtocolFlavor.AX64, ProtocolFlavor.AX256)


def _verdict(num, name, ok, detail):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def unrounded_rows():
    return run_sweep(round_symbols=False)


def test_criterion_01_x_opt_coefficients():
    expected = {1e-7: 0.0991, 1e-6: 0.3117, 1e-5: 0.9678}
    got = {ber: round(x_opt_coefficient(ber, 288, 5400.0, 64.8), 4) for ber in expected}
    ok = got == expected
    assert _verdict(1, "closed-form X coefficients", ok, f"X/R rounded to 4 decimals: {got}"), got


def test_criterion_02_lossy_crossover_thresholds():
    expected = {1e-7: (645.0, 2), 1e-6: (205.0, 0), 1e-5: (66.0, 0)}
    details = {}
    ok = True
    for ber, (rate, mcs) in expected.items():
        report = crossover_mcs(ber, DEFAULT_OVERHEAD, AX256)
        details[ber] = (round(report.rate_threshold, 2), report.mcs_crossover)
        ok &= abs(report.rate_threshold - rate) <= 1.0 and report.mcs_crossover == mcs
    assert _verdict(2, "lossy-channel crossover", ok, f"(threshold Mbps, MCS): {details}"), details


def test_criterion_03_reliable_crossover():
    discrete = crossover_rate_reliable(1500, DEFAULT_OVERHEAD, AX256).discrete
    continuous = {
        L: crossover_rate_reliable(L, DEFAULT_OVERHEAD, AX256).continuous for L in (64, 512, 1500)
    }
    mcs = {smallest_mcs_at_least(AX256, v) for v in continuous.values()}
    mcs.add(smallest_mcs_at_least(AX256, discrete))
    ok = (
        abs(discrete - 1021.0) <= 1.0
        and all(abs(v - 1099.0) <= 1.0 for v in continuous.values())
        and len(set(continuous.values())) == 1
        and mcs == {3}
    )
    detail = f"discrete {discrete:.2f}, continuous {continuous[1500]:.2f} (all L equal), MCS {sorted(mcs)}"
    assert _verdict(3, "reliable-channel crossover", ok, detail), detail


def test_criterion_04_flavor_dominance(default_rows, default_rows_by_key):
    nonneg = all(r.throughput_mbps >= 0.0 for r in default_rows)
    window_violations = []
    ax_vs_ac_violations = []
    for r in default_rows:
        if r.flavor is ProtocolFlavor.AX64:
            r256 = default_rows_by_key[(ProtocolFlavor.AX256, r.mcs, r.ber, r.msdu_len)]
            if r256.throughput_mbps < r.throughput_mbps:
                window_violations.append(
                    (r.mcs, r.ber, r.msdu_len,
                     round(100 * (r256.throughput_mbps / r.throughput_mbps - 1), 3))
                )
        if r.flavor is ProtocolFlavor.AC64:
            rax = default_rows_by_key[(ProtocolFlavor.AX64, r.mcs, r.ber, r.msdu_len)]
            if rax.throughput_mbps <= r.throughput_mbps:
                ax_vs_ac_violations.append((r.mcs, r.ber, r.msdu_len))
    ok = nonneg and not window_violations and not ax_vs_ac_violations
    detail = (
        f"throughput >= 0: {nonneg}; ax64 > ac64 violations: {len(ax_vs_ac_violations)}; "
        f"ax256 >= ax64 violations: {len(window_violations)}"
    )
    if window_violations:
        detail += (
            f"; (MCS, BER, L, ax256 vs ax64 %), worst {min(v[3] for v in window_violations)}%:"
            f" {window_violations}"
        )
    assert _verdict(4, "flavor dominance on the default sweep", ok, detail), detail


def test_criterion_05_headline_improvements(default_rows):
    table = improvement(default_rows, ProtocolFlavor.AX256, ProtocolFlavor.AC64)
    reliable = table.per_ber_max[0.0]
    lossy = table.per_ber_max[1e-5]
    ok_reliable = 25.0 <= reliable <= 33.0
    ok_lossy = 43.0 <= lossy <= 53.0
    detail = (
        f"max gain over common MCS: BER=0 {reliable:.2f}% (target [25, 33]), "
        f"BER=1e-5 {lossy:.2f}% (target [43, 53])"
    )
    if not ok_lossy:
        per_len = {
            L: max(v for (m, b, l), v in table.entries.items() if b == 1e-5 and l == L)
            for L in (64, 512, 1500)
        }
        detail += f"; per-size maxima at BER=1e-5: { {k: round(v, 2) for k, v in per_len.items()} }"
    assert _verdict(5, "headline improvement windows", ok_reliable and ok_lossy, detail)


def test_criterion_06_continuous_exact_consistency():
    # the closed form assumes a per-cycle overhead that does not depend on
    # x, so the lifted window charges the full-window block ack for every x
    lifted = replace(AX256, max_mpdus=10**6, back64_duration=AX256.back_duration)
    deltas = {}
    worst = 0
    for ber in (1e-7, 1e-6, 1e-5):
        row = []
        for mcs in range(len(AX256.mcs_rates)):
            scenario = Scenario(ProtocolFlavor.AX256, mcs, ber, 64)
            cs = ContinuousScenario.from_config(lifted, ber=ber, msdu_len=64, rate=phy_rate(lifted, mcs))
            x_exact = optimize_exact(scenario, lifted).plan.x
            delta = x_exact - round(x_opt_closed_form(cs))
            row.append(delta)
            worst = max(worst, abs(delta))
        deltas[ber] = row
    ok = worst <= 2
    detail = (
        f"x_exact - round(X_opt) per MCS0..11 at L=64: {deltas}; worst |delta| = {worst} "
        "(target <= 2; at BER=1e-5 the integer per-MPDU MSDU count pins the exact "
        "optimum to the nearest integer-fill ridge, shifting x by ~2% of X_opt; at "
        "1e-7 and 1e-6 the throughput is nearly flat in x around X_opt, so the "
        "argmax drifts by up to ~14 MPDUs)"
    )
    assert _verdict(6, "closed-form vs exact optimizer", ok, detail), detail


def test_criterion_07_rounding_gap(default_rows, unrounded_rows):
    worst = 0.0
    worst_at = None
    for rounded, unrounded in zip(default_rows, unrounded_rows):
        gap = abs(unrounded.throughput_mbps - rounded.throughput_mbps) / rounded.throughput_mbps
        if gap > worst:
            worst = gap
            worst_at = (rounded.flavor.value, rounded.mcs, rounded.ber, rounded.msdu_len)
    ok = worst <= 0.02
    assert _verdict(
        7, "symbol-rounding gap", ok, f"max relative change {100 * worst:.3f}% at {worst_at} (target <= 2%)"
    ), worst


def test_criterion_08_monte_carlo_oracle(default_rows):
    base_seed = 7
    cycles = 100_000
    max_rel = 0.0
    max_z = 0.0
    for index, row in enumerate(default_rows):
        config = default_config(row.flavor)
        scenario = Scenario(row.flavor, row.mcs, row.ber, row.msdu_len)
        plan = AggregationPlan(row.x, row.y_base, row.n_extra)
        exact = throughput_exact(plan, scenario, config).throughput
        mc = simulate_throughput(plan, scenario, config, cycles=cycles, seed=base_seed + index)
        dev = abs(mc.throughput - exact)
        max_rel = max(max_rel, dev / exact)
        if mc.std_error > 0:
            max_z = max(max_z, dev / mc.std_error)
        else:
            assert dev == 0.0
    ok = max_z <= 3.0 and max_rel <= 0.01
    detail = (
        f"{len(default_rows)} points, {cycles} cycles, base seed {base_seed}: "
        f"max |dev| = {max_z:.2f} standard errors (<= 3), {100 * max_rel:.4f}% relative (<= 1%)"
    )
    assert _verdict(8, "Monte Carlo oracle agreement", ok, detail), detail


def _unrounded_allocation_throughput(alloc, scenario, config):
    msdu = MsduSlot.for_payload(scenario.msdu_len, DEFAULT_OVERHEAD)
    rate = phy_rate(config, scenario.mcs)
    good = 0.0
    bits = 0
    for y in alloc:
        c = mpdu_bits(y, msdu, DEFAULT_OVERHEAD)
        bits += c
        good += 8.0 * scenario.msdu_len * y * success_probability(scenario.ber, c)
    duration = cycle_overhead(config, DEFAULT_OVERHEAD, len(alloc)) + (bits + DEFAULT_OVERHEAD.service_tail_bits) / rate
    return good / duration


def test_criterion_09_balanced_allocations_suffice():
    y_cap = 6
    cases = 0
    violations = []
    for flavor, mcs in ((ProtocolFlavor.AC64, 0), (ProtocolFlavor.AC64, 9), (ProtocolFlavor.AX256, 11)):
        config = default_config(flavor)
        for ber in (0.0, 1e-7, 1e-6, 1e-5):
            for msdu_len in (64, 512, 1500):
                scenario = Scenario(flavor, mcs, ber, msdu_len)
                for x in range(1, 5):
                    best_any = -math.inf
                    best_balanced = -math.inf
                    for alloc in itertools.combinations_with_replacement(range(y_cap + 1), x):
                        if sum(alloc) == 0:
                            continue
                        thr = _unrounded_allocation_throughput(alloc, scenario, config)
                        best_any = max(best_any, thr)
                        if max(alloc) - min(alloc) <= 1:
                            best_balanced = max(best_balanced, thr)
                    cases += 1
                    if best_any > best_balanced * (1 + 1e-12):
                        violations.append((flavor.value, mcs, ber, msdu_len, x))
    ok = not violations
    assert _verdict(
        9, "balanced allocations attain the optimum", ok,
        f"{cases} enumerated cases (x <= 4, per-MPDU MSDUs <= {y_cap}, rounding off); violations: {violations}"
    ), violations


def test_criterion_10_property_suite(default_rows):
    # throughput strictly decreasing in BER at a fixed plan
    monotone = True
    for plan, flavor, mcs, L in (
        (AggregationPlan(32, 4, 7), ProtocolFlavor.AX256, 8, 512),
        (AggregationPlan(60, 7, 0), ProtocolFlavor.AC64, 9, 1500),
    ):
        config = default_config(flavor)
        values = [
            throughput_exact(plan, Scenario(flavor, mcs, ber, L), config).throughput
            for ber in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
        ]
        monotone &= all(b < a for a, b in zip(values, values[1:]))

    # one search for all BERs of a geometry picks what one search per BER picks
    grid = SweepGrid(
        flavors=(ProtocolFlavor.AX64, ProtocolFlavor.AX256), bers=(0.0, 1e-5), msdu_lens=(512,)
    )
    per_ber = [run_sweep(replace(grid, flavors=(flavor,), bers=(ber,)))
               for flavor in grid.flavors for ber in grid.bers]
    partitioned = run_sweep(grid) == list(itertools.chain.from_iterable(per_ber))

    # CSV output byte-stable across independent runs
    stable = rows_to_csv(run_sweep()) == rows_to_csv(default_rows)

    ok = monotone and partitioned and stable
    detail = (
        f"BER-monotonicity: {monotone}; whole sweep equals per-BER sweeps: {partitioned}; "
        f"CSV byte-stability: {stable}"
    )
    assert _verdict(10, "property suite", ok, detail), detail
