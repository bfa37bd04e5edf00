import math
import pickle
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aggthru import geometry
from aggthru import (
    DEFAULT_OVERHEAD,
    AggregationPlan,
    InfeasiblePlanError,
    Link,
    MsduSlot,
    NoFeasiblePlanError,
    OverheadConfig,
    ProtocolFlavor,
    Scenario,
    ThroughputResult,
    cycle_overhead,
    default_config,
    is_feasible,
    mpdu_bits,
    optimize_exact,
    optimize_exact_batch,
    resolve_config,
    simulate_throughput,
    success_probability,
    throughput_exact,
    y_max,
)

AC = default_config(ProtocolFlavor.AC64)
AX64 = default_config(ProtocolFlavor.AX64)
AX256 = default_config(ProtocolFlavor.AX256)
ZERO_CYCLE_OVERHEAD = OverheadConfig(aifs=0.0, backoff=0.0, sifs=0.0)


def test_throughput_example_reliable():
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    res = throughput_exact(AggregationPlan(64, 7, 0), sc, AC)
    assert res.throughput == pytest.approx(2759.0, abs=0.1)
    assert res.throughput == pytest.approx(5376000 / 1948.5, rel=1e-12)


def test_reliable_numerator_is_total_payload():
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    res = throughput_exact(AggregationPlan(64, 6, 32), sc, AC)
    assert res.goodput_bits_expected == 8.0 * 1500 * (64 * 6 + 32)


def test_lossy_numerator_example():
    sc = Scenario(ProtocolFlavor.AC64, 0, 1e-5, 64)
    res = throughput_exact(AggregationPlan(1, 1, 0), sc, AC)
    expected = 8 * 64 * math.pow(1 - 1e-5, 928)
    assert res.goodput_bits_expected == pytest.approx(expected, rel=1e-9)
    assert res.goodput_bits_expected == pytest.approx(507.27, abs=0.05)


def test_infeasible_plan_names_limit():
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    with pytest.raises(InfeasiblePlanError, match="max_mpdus"):
        throughput_exact(AggregationPlan(65, 7, 0), sc, AC)
    with pytest.raises(InfeasiblePlanError, match="ppdu_time_limit"):
        throughput_exact(AggregationPlan(64, 7, 0), Scenario(ProtocolFlavor.AC64, 0, 0.0, 1500), AC)


def test_infeasible_plan_error_carries_its_verdict():
    err = InfeasiblePlanError(geometry.Feasibility.PSDU_TOO_LARGE)
    assert err.verdict is geometry.Feasibility.PSDU_TOO_LARGE
    assert str(err) == "infeasible plan: max_psdu_bytes limit violated"
    copy = pickle.loads(pickle.dumps(err))
    assert (copy.verdict, str(copy)) == (err.verdict, str(err))


def test_throughput_strictly_decreasing_in_ber():
    plan = AggregationPlan(32, 4, 7)
    previous = math.inf
    for ber in (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        sc = Scenario(ProtocolFlavor.AX256, 8, ber, 512)
        thr = throughput_exact(plan, sc, AX256).throughput
        assert thr < previous or (ber == 0.0 and thr <= previous)
        previous = thr


def _brute_force(scenario, config, overhead=DEFAULT_OVERHEAD, *, round_symbols=True):
    """Scalar reference search over every balanced plan, same tie-breaks.

    Each plan is scored through one ``Link``, as ``throughput_exact`` scores
    it (``test_kernel_is_the_composition_of_the_link_methods``), in either
    symbol mode.  Returns (-inf, None) when no plan is feasible.
    """
    link = Link.of(scenario, config, overhead, round_symbols=round_symbols)
    best = (-math.inf, None)
    for x in range(1, config.max_mpdus + 1):
        for y in range(1, link.y_cap + 1):
            for n in range(0, x):
                if n and y + 1 > link.y_cap:
                    break
                plan = AggregationPlan(x, y, n)
                if not link.verdict(plan).ok:
                    break  # airtime grows with n
                m = plan.total_msdus
                thr = link.goodput(x, m) / link.airtime(plan).cycle_time
                if thr > best[0]:
                    best = (thr, plan)
    return best


def _optimize(scenario, config, overhead=DEFAULT_OVERHEAD, *, round_symbols=True):
    """``optimize_exact``; unrounded, the batch of one scenario, which is the same search."""
    if round_symbols:
        return optimize_exact(scenario, config, overhead)
    return optimize_exact_batch([scenario], config, overhead, round_symbols=False)[0]


@pytest.mark.parametrize("flavor,mcs", [(ProtocolFlavor.AC64, 0), (ProtocolFlavor.AC64, 9), (ProtocolFlavor.AX256, 11)])
@pytest.mark.parametrize("ber", [0.0, 1e-5, 1e-3])
def test_optimizer_matches_brute_force(flavor, mcs, ber):
    config = replace(default_config(flavor), max_mpdus=6)
    scenario = Scenario(flavor, mcs, ber, 1500)
    expected_thr, expected_plan = _brute_force(scenario, config)
    res = optimize_exact(scenario, config)
    assert res.plan == expected_plan
    assert res.throughput == expected_thr


@pytest.mark.parametrize(
    "overhead,mcs,ber",
    [
        (DEFAULT_OVERHEAD, 2, 1e-7),
        (DEFAULT_OVERHEAD, 11, 0.0),
        (ZERO_CYCLE_OVERHEAD, 3, 0.0),
        (ZERO_CYCLE_OVERHEAD, 11, 1e-5),
    ],
)
def test_optimizer_matches_brute_force_across_block_ack_step(overhead, mcs, ber):
    # a window just past 64 frames, so the search straddles the 8 us step;
    # without preamble and 64-frame block ack, the doubled copy of a small
    # plan never pays less than twice its per-cycle overhead, so it does
    # not strictly dominate and ties must break toward fewer MPDUs
    config = replace(AX256, max_mpdus=68)
    if overhead is ZERO_CYCLE_OVERHEAD:
        config = replace(config, preamble=0.0, back64_duration=0.0)
    scenario = Scenario(ProtocolFlavor.AX256, mcs, ber, 1500)
    expected_thr, expected_plan = _brute_force(scenario, config, overhead)
    res = optimize_exact(scenario, config, overhead)
    assert res.plan == expected_plan
    assert res.throughput == expected_thr


def test_block_ack_rule_shared_by_kernel_simulation_and_optimizer():
    # MCS 2, BER 1e-7, L=64: with the full-window block ack for every x the
    # 256-frame window's optimum sends more than 64 MPDUs; with the rule it
    # sends 64 and matches the 64-frame window exactly
    sc256 = Scenario(ProtocolFlavor.AX256, 2, 1e-7, 64)
    sc64 = Scenario(ProtocolFlavor.AX64, 2, 1e-7, 64)
    best = optimize_exact(sc256, AX256)
    narrow = optimize_exact(sc64, AX64)
    assert (best.plan, best.airtime) == (narrow.plan, narrow.airtime)
    assert best.throughput == throughput_exact(best.plan, sc256, AX256).throughput
    full_window = replace(AX256, back64_duration=AX256.back_duration)
    assert optimize_exact(sc256, full_window).plan.x > 64

    reliable = Scenario(ProtocolFlavor.AX256, 2, 0.0, 64)
    for x, back in ((64, 31.0), (65, 39.0)):
        plan = AggregationPlan(x, 5, 0)
        res = throughput_exact(plan, reliable, AX256)
        assert res.airtime.cycle_time - res.airtime.data_time == pytest.approx(
            cycle_overhead(AX256) - AX256.back_duration + back, abs=1e-9
        )
        sim = simulate_throughput(plan, reliable, AX256, cycles=3, seed=0)
        assert sim.throughput == pytest.approx(res.throughput, rel=1e-12)


def test_optimizer_ax256_top_mcs_reliable():
    sc = Scenario(ProtocolFlavor.AX256, 11, 0.0, 1500)
    res = optimize_exact(sc, AX256)
    assert res.throughput == pytest.approx(4514.0, rel=0.005)
    # dominates the plan that naively maxes out both the frame count and
    # the per-MPDU fill (trading 10 MSDUs for two OFDM symbols wins)
    naive = throughput_exact(AggregationPlan(256, 7, 0), sc, AX256)
    assert res.throughput >= naive.throughput
    assert res.plan == AggregationPlan(255, 6, 252)


def test_optimizer_ac64_fills_mpdus_when_time_allows():
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    res = optimize_exact(sc, AC)
    assert res.plan == AggregationPlan(64, 7, 0)


def test_optimizer_lossy_prefers_short_mpdus():
    res = optimize_exact(Scenario(ProtocolFlavor.AX256, 11, 1e-5, 1500), AX256)
    slot = MsduSlot.for_payload(1500)
    assert res.plan.y_base + (1 if res.plan.n_extra else 0) < y_max(slot, DEFAULT_OVERHEAD, AX256)


@pytest.mark.parametrize(
    "flavor,mcs,ber,msdu_len",
    [
        (ProtocolFlavor.AX256, 11, 1e-5, 64),
        (ProtocolFlavor.AC64, 9, 1e-5, 512),
        (ProtocolFlavor.AX64, 3, 0.0, 1500),
    ],
)
def test_optimizer_dominates_random_plans(flavor, mcs, ber, msdu_len):
    config = default_config(flavor)
    scenario = Scenario(flavor, mcs, ber, msdu_len)
    best = optimize_exact(scenario, config)
    slot = MsduSlot.for_payload(msdu_len)
    ym = y_max(slot, DEFAULT_OVERHEAD, config)
    rng = random.Random(1234)
    checked = 0
    while checked < 400:
        x = rng.randint(1, config.max_mpdus)
        y = rng.randint(0, ym - 1)
        n = rng.randint(1, x - 1) if x > 1 else 0
        if y == 0 and n == 0:
            continue
        plan = AggregationPlan(x, y, n)
        if not is_feasible(plan, scenario, config).ok:
            continue
        thr = throughput_exact(plan, scenario, config).throughput
        assert best.throughput >= thr * (1 - 1e-12)
        checked += 1


@settings(max_examples=300, deadline=None)
@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    ber=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
    msdu_len=st.integers(min_value=1, max_value=2304),
    ppdu_time_limit=st.floats(min_value=40.0, max_value=5484.0),
    y_cap=st.integers(min_value=0, max_value=40),
    byte_slack=st.integers(min_value=0, max_value=3),
    max_mpdus=st.integers(min_value=1, max_value=8),
    round_symbols=st.booleans(),
    overhead=st.sampled_from([DEFAULT_OVERHEAD, ZERO_CYCLE_OVERHEAD]),
    mpdu_delimiter=st.integers(min_value=0, max_value=8),
    mac_header=st.integers(min_value=1, max_value=40),
    fcs=st.integers(min_value=0, max_value=8),
)
def test_optimizer_matches_brute_force_property(
    flavor, mcs, ber, msdu_len, ppdu_time_limit, y_cap, byte_slack, max_mpdus, round_symbols, overhead,
    mpdu_delimiter, mac_header, fcs,
):
    # the MPDU byte cap is drawn as a per-MPDU MSDU count (0 = the MSDU does
    # not fit), which bounds the brute-force search to 36 * 40 plans; the
    # per-MPDU overhead need not be a multiple of 4, so the MPDU's own
    # padding decides whether the y_cap-th MSDU still fits
    overhead = replace(overhead, mpdu_delimiter=mpdu_delimiter, mac_header=mac_header, fcs=fcs)
    slot = MsduSlot.for_payload(msdu_len, overhead)
    config = replace(
        default_config(flavor),
        ppdu_time_limit=ppdu_time_limit,
        max_mpdu_bytes=overhead.mpdu_overhead_bytes + y_cap * slot.padded_len + byte_slack,
        max_mpdus=max_mpdus,
    )
    scenario = Scenario(flavor, mcs % len(config.mcs_rates), ber, msdu_len)
    expected_thr, expected_plan = _brute_force(scenario, config, overhead, round_symbols=round_symbols)
    if expected_plan is None:
        with pytest.raises(NoFeasiblePlanError):
            _optimize(scenario, config, overhead, round_symbols=round_symbols)
        return
    res = _optimize(scenario, config, overhead, round_symbols=round_symbols)
    assert res.plan == expected_plan
    assert res.throughput == expected_thr


@pytest.mark.parametrize(
    "ber,plan",
    [
        (1e-7, AggregationPlan(471, 84, 233)),
        (1e-6, AggregationPlan(1511, 26, 43)),
        (1e-5, AggregationPlan(4731, 8, 32)),
    ],
)
def test_optimizer_lifted_window_optima(ber, plan):
    # the window criterion 6 compares with the closed form
    lifted = replace(AX256, max_mpdus=10**6, back64_duration=AX256.back_duration)
    assert optimize_exact(Scenario(ProtocolFlavor.AX256, 11, ber, 64), lifted).plan == plan


def _exhaustive_scan(scenario, config, overhead, *, round_symbols):
    """Best balanced plan over every (x, M), scored with ``Link.scores``.

    Every x up to the window and every M from x to x * y_cap whose PSDU fits
    ``bit_cap``, one numpy pass per x; ties break toward fewer MPDUs, then
    fewer MSDUs.  Returns (throughput, plan).
    """
    link = Link.of(scenario, config, overhead, round_symbols=round_symbols)
    v = np.array([link.v(y) for y in range(link.y_cap + 2)]).take
    best = (-math.inf, None)
    for x in range(1, config.max_mpdus + 1):
        m = np.arange(x, x * link.y_cap + 1)
        m = m[link.psdu_bits(x, m) <= link.bit_cap]
        if not m.size:
            break   # the budget only shrinks as x grows
        thr = link.scores(x, m, v)[0]
        i = int(thr.argmax())   # the first maximum: the fewest MSDUs
        if thr[i] > best[0]:
            best = (float(thr[i]), AggregationPlan(x, int(m[i]) // x, int(m[i]) % x))
    return best


@pytest.mark.parametrize("round_symbols", [True, False])
@pytest.mark.parametrize(
    "flavor,mcs,ber,msdu_len,quiet",
    [
        (ProtocolFlavor.AX256, 0, 0.0, 64, False),
        (ProtocolFlavor.AX256, 11, 1e-5, 64, False),
        (ProtocolFlavor.AX256, 11, 1e-7, 64, False),
        (ProtocolFlavor.AX256, 11, 0.0, 1500, False),
        (ProtocolFlavor.AX64, 11, 1e-6, 64, False),
        (ProtocolFlavor.AC64, 0, 1e-7, 64, False),
        (ProtocolFlavor.AC64, 3, 1e-7, 512, False),
        (ProtocolFlavor.AX256, 1, 1e-7, 64, True),
        (ProtocolFlavor.AX256, 0, 1e-7, 512, True),
    ],
)
def test_optimizer_matches_exhaustive_scan_at_default_windows(
    flavor, mcs, ber, msdu_len, quiet, round_symbols,
):
    # the brute-force oracles stop at small windows; this scan covers the
    # default windows, the 64-frame block-ack step and every kink the
    # optimizer leaves unscored.  A quiet channel has no contention,
    # preamble or 64-frame block ack, so many plans nearly tie.
    config = default_config(flavor)
    overhead = DEFAULT_OVERHEAD
    if quiet:
        config = replace(config, preamble=0.0, back64_duration=0.0)
        overhead = ZERO_CYCLE_OVERHEAD
    scenario = Scenario(flavor, mcs, ber, msdu_len)
    expected_thr, expected_plan = _exhaustive_scan(scenario, config, overhead, round_symbols=round_symbols)
    res = _optimize(scenario, config, overhead, round_symbols=round_symbols)
    assert res.plan == expected_plan
    assert res.throughput == expected_thr


def test_optimizer_ties_at_zero_pick_the_smallest_plan():
    # every MPDU is lost (its success probability underflows to 0.0), so every
    # plan ties at zero and the tie-break alone picks one MPDU of one MSDU
    res = optimize_exact(Scenario(ProtocolFlavor.AX256, 0, 0.5, 2304), AX256)
    assert (res.plan, res.throughput) == (AggregationPlan(1, 1, 0), 0.0)


@pytest.mark.parametrize(
    "ppdu_time_limit,peak_mb,plan",
    [
        (1e5, 64, AggregationPlan(28352, 26, 54)),
        (1e6, 128, AggregationPlan(283709, 26, 32)),
    ],
)
def test_optimizer_memory_stays_bounded_at_huge_limits(ppdu_time_limit, peak_mb, plan):
    # a search that enumerated every kink M = x*y allocated about 365 MB at
    # the 1e5-us limit and 2.4 GB at 1e6 us; the bound is on memory, not time
    config = replace(AX256, ppdu_time_limit=ppdu_time_limit, max_mpdus=10**6)
    scenario = Scenario(ProtocolFlavor.AX256, 11, 1e-6, 64)
    tracemalloc.start()
    try:
        res = optimize_exact(scenario, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.plan == plan
    assert peak < peak_mb * 1e6


def test_optimizer_no_feasible_plan():
    with pytest.raises(NoFeasiblePlanError, match="no transmission"):
        optimize_exact(Scenario(ProtocolFlavor.AC64, 0, 0.0, 11500), AC)
    tiny = replace(AC, ppdu_time_limit=50.0)
    with pytest.raises(NoFeasiblePlanError, match="no transmission"):
        optimize_exact(Scenario(ProtocolFlavor.AC64, 0, 0.0, 64), tiny)


BATCH_BERS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.3)), min_size=1, max_size=5, unique=True,
)


@settings(max_examples=150, deadline=None)
@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    msdu_len=st.integers(min_value=1, max_value=2500),
    bers=BATCH_BERS,
    round_symbols=st.booleans(),
    overrides=st.fixed_dictionaries({}, optional={
        "ppdu_time_limit": st.floats(min_value=40.0, max_value=20000.0),
        "max_mpdus": st.integers(min_value=1, max_value=600),
        "max_mpdu_bytes": st.integers(min_value=100, max_value=20000),
        "mac_header": st.integers(min_value=0, max_value=100),
        "msdu_subheader": st.integers(min_value=0, max_value=50),
    }),
)
def test_batch_equals_each_channel_alone(flavor, mcs, msdu_len, bers, round_symbols, overrides):
    # a batch of two or more channels scores every channel over the union of
    # all channels' candidates, with best seeded by the widest kinks; a batch
    # of one (optimize_exact) is neither widened nor seeded, so comparing the
    # two checks that neither the union nor the seed changes a result
    config, overhead = resolve_config(flavor, overrides)
    scenarios = [Scenario(flavor, mcs % len(config.mcs_rates), ber, msdu_len) for ber in bers]
    try:
        batch = optimize_exact_batch(scenarios, config, overhead, round_symbols=round_symbols)
    except NoFeasiblePlanError:
        for scenario in scenarios:
            with pytest.raises(NoFeasiblePlanError):
                _optimize(scenario, config, overhead, round_symbols=round_symbols)
        return
    assert len(batch) == len(scenarios)
    for scenario, res in zip(scenarios, batch):
        alone = _optimize(scenario, config, overhead, round_symbols=round_symbols)
        assert (res.plan, res.throughput) == (alone.plan, alone.throughput)
        assert res == alone


@settings(max_examples=100, deadline=None)
@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    msdu_len=st.integers(min_value=1, max_value=2304),
    bers=BATCH_BERS,
    ppdu_time_limit=st.floats(min_value=40.0, max_value=5484.0),
    y_cap=st.integers(min_value=0, max_value=40),
    max_mpdus=st.integers(min_value=1, max_value=8),
    round_symbols=st.booleans(),
)
# a subnormal optimum (5.93e-322 Mbps at BER 0.1), which float slack alone cannot prune around
@example(ProtocolFlavor.AC64, 0, 832, [0.0, 0.1], 5400.0, 13, 8, True)
@example(ProtocolFlavor.AC64, 0, 832, [0.0, 0.1], 5400.0, 13, 8, False)
def test_batch_matches_brute_force(flavor, mcs, msdu_len, bers, ppdu_time_limit, y_cap, max_mpdus, round_symbols):
    slot = MsduSlot.for_payload(msdu_len)
    config = replace(
        default_config(flavor),
        ppdu_time_limit=ppdu_time_limit,
        max_mpdu_bytes=DEFAULT_OVERHEAD.mpdu_overhead_bytes + y_cap * slot.padded_len,
        max_mpdus=max_mpdus,
    )
    scenarios = [Scenario(flavor, mcs % len(config.mcs_rates), ber, msdu_len) for ber in bers]
    expected = [_brute_force(scenario, config, round_symbols=round_symbols) for scenario in scenarios]
    if expected[0][1] is None:
        with pytest.raises(NoFeasiblePlanError):
            optimize_exact_batch(scenarios, config, round_symbols=round_symbols)
        return
    batch = optimize_exact_batch(scenarios, config, round_symbols=round_symbols)
    assert [(res.throughput, res.plan) for res in batch] == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("round_symbols", [True, False])
@pytest.mark.parametrize(
    "flavor,mcs,msdu_len,bers,max_mpdus",
    [
        (ProtocolFlavor.AX256, 3, 827, [0.9], 3),
        (ProtocolFlavor.AX256, 3, 827, [0.0, 0.9], 3),
        (ProtocolFlavor.AX256, 3, 827, [0.9], 70),
        (ProtocolFlavor.AX256, 3, 827, [0.0, 0.9], 70),
        (ProtocolFlavor.AC64, 7, 1500, [0.01], 1),
    ],
)
def test_a_zero_best_under_a_huge_overhead_reaches_every_kink_silently(
    flavor, mcs, msdu_len, bers, max_mpdus, round_symbols,
):
    # every score of a lossy channel here is below _PRUNE_FLOOR, so its best is
    # zeroed and its kink intervals must start at x = 1.  Under a 1e300-us
    # block ack each lower end best*o / d is 0 (0 / inf where d <= 0); a best
    # of -1 in its place would give lower ends far below int64, whose cast warns
    config = replace(default_config(flavor), back_duration=1e300, max_mpdus=max_mpdus)
    scenarios = [Scenario(flavor, mcs, ber, msdu_len) for ber in bers]
    batch = optimize_exact_batch(scenarios, config, round_symbols=round_symbols)
    expected = [_brute_force(scenario, config, round_symbols=round_symbols) for scenario in scenarios]
    assert [(res.throughput, res.plan) for res in batch] == expected


def test_batch_without_a_feasible_plan_raises_for_every_ber():
    tiny = replace(AC, ppdu_time_limit=50.0)
    scenarios = [Scenario(ProtocolFlavor.AC64, 0, ber, 64) for ber in (0.0, 1e-6, 1e-5)]
    with pytest.raises(NoFeasiblePlanError, match="no transmission"):
        optimize_exact_batch(scenarios, tiny)


def test_batch_overflowing_budget_is_the_one_line_error_of_a_single_search():
    config = replace(AX256, symbol_time=1e-300)
    scenarios = [Scenario(ProtocolFlavor.AX256, 0, ber, 64) for ber in (0.0, 1e-6)]
    with pytest.raises(ValueError) as alone:
        optimize_exact(scenarios[0], config)
    with pytest.raises(ValueError) as batch:
        optimize_exact_batch(scenarios, config)
    assert str(batch.value) == str(alone.value)
    assert str(batch.value).startswith("the PSDU budget overflows 64-bit counts")
    assert "\n" not in str(batch.value)


@pytest.mark.parametrize(
    "others",
    [
        [Scenario(ProtocolFlavor.AX256, 9, 1e-6, 512)],    # another MCS
        [Scenario(ProtocolFlavor.AX256, 8, 1e-6, 1500)],   # another MSDU size
        [Scenario(ProtocolFlavor.AX64, 8, 1e-6, 512)],     # another flavor
        None,                                              # no scenario at all
    ],
)
def test_batch_takes_scenarios_that_differ_only_in_ber(others):
    scenarios = [Scenario(ProtocolFlavor.AX256, 8, 0.0, 512)] + others if others else []
    with pytest.raises(ValueError, match="differ only in BER"):
        optimize_exact_batch(scenarios, AX256)


def test_optimizer_unrounded_not_below_rounded():
    for sc in (
        Scenario(ProtocolFlavor.AC64, 4, 1e-6, 512),
        Scenario(ProtocolFlavor.AX256, 11, 0.0, 1500),
    ):
        cfg = default_config(sc.flavor)
        rounded = optimize_exact(sc, cfg).throughput
        unrounded = optimize_exact_batch([sc], cfg, round_symbols=False)[0].throughput
        assert unrounded >= rounded


@pytest.mark.parametrize("round_symbols", [True, False])
def test_results_do_not_depend_on_the_link_cache(round_symbols):
    # the rounded wrappers run after a link of either mode
    sc = Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512)
    plan = AggregationPlan(100, 3, 5)

    def results(clear):
        out = []
        for call in (
            lambda: optimize_exact_batch([sc], AX256, round_symbols=round_symbols),
            lambda: Link.of(sc, AX256, round_symbols=round_symbols).airtime(plan),
            lambda: optimize_exact(sc, AX256),
            lambda: throughput_exact(plan, sc, AX256),
        ):
            if clear:
                geometry._last_link = (None,) * 5
            out.append(repr(call()))
        return out

    assert results(clear=True) == results(clear=False)


@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    ber=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e-3)),
    msdu_len=st.integers(min_value=1, max_value=2304),
    zero_overhead=st.booleans(),
    x=st.integers(min_value=1, max_value=300),
    y_base=st.integers(min_value=0, max_value=12),
    n_extra=st.integers(min_value=0, max_value=299),
)
@example(ProtocolFlavor.AX256, 7, 1e-5, 1500, False, 256, 1, 6)  # feasible, two MPDU sizes
@example(ProtocolFlavor.AX256, 7, 0.0, 1500, True, 256, 7, 0)    # over the time limit
@example(ProtocolFlavor.AC64, 9, 1e-6, 64, False, 65, 1, 0)      # too many MPDUs
def test_kernel_is_the_composition_of_the_link_methods(
    flavor, mcs, ber, msdu_len, zero_overhead, x, y_base, n_extra,
):
    cfg = default_config(flavor)
    overhead = ZERO_CYCLE_OVERHEAD if zero_overhead else DEFAULT_OVERHEAD
    sc = Scenario(flavor, mcs % len(cfg.mcs_rates), ber, msdu_len)
    n_extra %= x
    plan = AggregationPlan(x, max(y_base, n_extra == 0), n_extra)
    link = Link.of(sc, cfg, overhead)
    verdict = link.verdict(plan)
    if not verdict.ok:
        with pytest.raises(InfeasiblePlanError) as exc:
            throughput_exact(plan, sc, cfg, overhead)
        assert exc.value.verdict is verdict
        return
    air = link.airtime(plan)
    good = link.goodput(plan.x, plan.total_msdus)
    expected = ThroughputResult(good / air.cycle_time, plan, air, good)
    assert repr(throughput_exact(plan, sc, cfg, overhead)) == repr(expected)


def test_success_probability():
    assert success_probability(0.0, 10**9) == 1.0
    assert success_probability(1e-5, 928) == pytest.approx(math.pow(1 - 1e-5, 928), rel=1e-12)


def test_monte_carlo_reliable_channel_is_exact():
    sc = Scenario(ProtocolFlavor.AX256, 11, 0.0, 1500)
    plan = AggregationPlan(255, 6, 252)
    exact = throughput_exact(plan, sc, AX256).throughput
    res = simulate_throughput(plan, sc, AX256, cycles=100, seed=3)
    assert res.throughput == exact and res.std_error == 0.0


def test_monte_carlo_deterministic_given_seed():
    sc = Scenario(ProtocolFlavor.AX256, 7, 1e-5, 1500)
    plan = optimize_exact(sc, AX256).plan
    a = simulate_throughput(plan, sc, AX256, cycles=5000, seed=42).throughput
    b = simulate_throughput(plan, sc, AX256, cycles=5000, seed=42).throughput
    c = simulate_throughput(plan, sc, AX256, cycles=5000, seed=43).throughput
    assert a == b
    assert a != c


def test_monte_carlo_stream_is_pinned():
    # the draws behind criterion 8's fixed seeds: a new sampler or draw order fails here
    sc = Scenario(ProtocolFlavor.AX256, 7, 1e-5, 1500)
    plan = optimize_exact(sc, AX256).plan
    assert plan == AggregationPlan(256, 1, 6) and len(plan.mpdu_groups()) == 2
    res = simulate_throughput(plan, sc, AX256, cycles=5000, seed=42)
    assert res.throughput == 2046.6501740611807
    assert res.std_error == 0.6909455884923684


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_close_to_analytic(seed):
    sc = Scenario(ProtocolFlavor.AX256, 7, 1e-5, 1500)
    res = optimize_exact(sc, AX256)
    mc = simulate_throughput(res.plan, sc, AX256, cycles=100_000, seed=seed)
    assert mc.throughput == pytest.approx(res.throughput, rel=0.005)
    assert abs(mc.throughput - res.throughput) <= 3.0 * mc.std_error


def test_monte_carlo_rejects_bad_cycles():
    sc = Scenario(ProtocolFlavor.AX256, 7, 1e-5, 1500)
    with pytest.raises(ValueError, match="cycles"):
        simulate_throughput(AggregationPlan(1, 1, 0), sc, AX256, cycles=0, seed=0)
