from dataclasses import replace

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aggthru import (
    DEFAULT_OVERHEAD,
    AggregationPlan,
    Feasibility,
    Link,
    MsduSlot,
    MsduTooLargeError,
    ProtocolFlavor,
    Scenario,
    airtime,
    cycle_overhead,
    default_config,
    is_feasible,
    mpdu_bits,
    mpdu_bytes,
    success_probability,
    y_max,
)
from aggthru import geometry
from aggthru.params import apply_overrides

AC = default_config(ProtocolFlavor.AC64)
AX64 = default_config(ProtocolFlavor.AX64)
AX256 = default_config(ProtocolFlavor.AX256)


@pytest.mark.parametrize("payload,padded", [(1500, 1516), (64, 80), (512, 528), (1, 16)])
def test_padding_examples(payload, padded):
    assert MsduSlot.for_payload(payload).padded_len == padded


@given(st.integers(min_value=1, max_value=20000))
def test_padding_properties(payload):
    padded = MsduSlot.for_payload(payload).padded_len
    assert padded % 4 == 0
    assert 0 <= padded - (payload + 14) <= 3


def test_mpdu_bits_examples():
    slot1500 = MsduSlot.for_payload(1500)
    assert mpdu_bits(7, slot1500) == 85184
    assert mpdu_bits(0, slot1500) == 288
    assert mpdu_bits(1, MsduSlot.for_payload(64)) == 928


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=2000))
def test_mpdu_bits_properties(y, payload):
    slot = MsduSlot.for_payload(payload)
    om = DEFAULT_OVERHEAD.mpdu_overhead_bytes
    bits = mpdu_bits(y, slot)
    assert bits >= mpdu_bits(max(y - 1, 0), slot)
    raw = om + y * slot.padded_len
    if raw % 4 == 0:
        assert bits == 8 * raw
    assert 0 <= bits - 8 * raw <= 24


@pytest.mark.parametrize("payload,expected", [(1500, 7), (64, 142), (512, 21)])
def test_y_max_examples(payload, expected):
    slot = MsduSlot.for_payload(payload)
    assert y_max(slot, DEFAULT_OVERHEAD, AC) == expected


def test_y_max_counts_the_aligned_empty_mpdu():
    # a 35-byte per-MPDU overhead pads to 36, so five 772-byte MSDUs need
    # 3896 bytes: one more than the cap, although 35 + 5 * 772 fits
    ovh = replace(DEFAULT_OVERHEAD, mac_header=27)
    cfg = replace(AX64, max_mpdu_bytes=3895)
    slot = MsduSlot.for_payload(758, ovh)
    assert y_max(slot, ovh, cfg) == 4
    assert mpdu_bytes(4, slot, ovh) <= 3895 < mpdu_bytes(5, slot, ovh)
    sc = Scenario(ProtocolFlavor.AX64, 11, 0.0, 758)
    assert is_feasible(AggregationPlan(2, 4, 1), sc, cfg, ovh) is Feasibility.MPDU_TOO_LARGE
    assert is_feasible(AggregationPlan(2, 4, 0), sc, cfg, ovh) is Feasibility.OK


def test_y_max_rejects_oversized_msdu():
    slot = MsduSlot.for_payload(11500)
    with pytest.raises(MsduTooLargeError, match="does not fit"):
        y_max(slot, DEFAULT_OVERHEAD, AC)


def test_plan_validation():
    with pytest.raises(ValueError):
        AggregationPlan(0, 1, 0)
    with pytest.raises(ValueError):
        AggregationPlan(4, 1, 4)
    with pytest.raises(ValueError):
        AggregationPlan(4, -1, 0)
    with pytest.raises(ValueError):
        AggregationPlan(4, 0, 0)
    plan = AggregationPlan(4, 0, 1)  # one single-MSDU MPDU, three empty
    assert plan.total_msdus == 1
    assert AggregationPlan(5, 3, 2).total_msdus == 17
    assert AggregationPlan(5, 3, 2).mpdu_groups() == ((4, 2), (3, 3))
    assert AggregationPlan(5, 3, 0).mpdu_groups() == ((3, 5),)


def test_airtime_example_large():
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    air = airtime(AggregationPlan(64, 7, 0), sc, AC)
    assert air.psdu_bits == 5451776
    assert air.symbols == 437
    assert air.data_time == pytest.approx(1748.0)
    assert air.ppdu_time == pytest.approx(1800.0)
    assert air.cycle_time == pytest.approx(1948.5)


def test_airtime_example_small():
    sc = Scenario(ProtocolFlavor.AC64, 0, 0.0, 64)
    air = airtime(AggregationPlan(1, 1, 0), sc, AC)
    assert air.symbols == 2
    assert air.data_time == pytest.approx(8.0)


@pytest.mark.parametrize(
    "plan",
    [AggregationPlan(3, 2, 0), AggregationPlan(64, 7, 0), AggregationPlan(10, 1, 9)],
)
def test_cycle_time_relation(plan):
    sc = Scenario(ProtocolFlavor.AC64, 4, 0.0, 512)
    air = airtime(plan, sc, AC)
    assert air.cycle_time == pytest.approx(
        air.ppdu_time - AC.preamble + cycle_overhead(AC), rel=1e-12
    )


def test_airtime_block_ack_follows_mpdu_count():
    # up to 64 MPDUs the 256-frame window acknowledges with the 64-frame
    # bitmap, so its cycle matches the 64-frame window's; beyond, 8 us more
    sc256 = Scenario(ProtocolFlavor.AX256, 11, 0.0, 512)
    sc64 = Scenario(ProtocolFlavor.AX64, 11, 0.0, 512)
    at64 = airtime(AggregationPlan(64, 3, 0), sc256, AX256)
    assert at64 == airtime(AggregationPlan(64, 3, 0), sc64, AX64)
    at65 = airtime(AggregationPlan(65, 3, 0), sc256, AX256)
    assert at65.cycle_time - at65.data_time == pytest.approx(
        at64.cycle_time - at64.data_time + 8.0, abs=1e-9
    )
    assert at65.cycle_time - at65.data_time == pytest.approx(cycle_overhead(AX256), abs=1e-9)


def test_airtime_monotonic_in_rate():
    sc_lo = Scenario(ProtocolFlavor.AC64, 0, 0.0, 1500)
    plan = AggregationPlan(8, 7, 0)
    times = [airtime(plan, Scenario(ProtocolFlavor.AC64, m, 0.0, 1500), AC).data_time for m in range(10)]
    assert all(b <= a for a, b in zip(times, times[1:]))
    assert airtime(plan, sc_lo, AC).symbols >= 1


def test_airtime_monotonic_in_plan_size():
    sc = Scenario(ProtocolFlavor.AX256, 5, 0.0, 512)
    base = airtime(AggregationPlan(10, 3, 0), sc, AX256).data_time
    assert airtime(AggregationPlan(11, 3, 0), sc, AX256).data_time >= base
    assert airtime(AggregationPlan(10, 3, 5), sc, AX256).data_time >= base


def test_airtime_unrounded():
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    plan = AggregationPlan(64, 7, 0)
    air = Link.of(sc, AC, round_symbols=False).airtime(plan)
    assert air.symbols == pytest.approx(5451798 / 12480, rel=1e-12)
    assert air.data_time < airtime(plan, sc, AC).data_time


def test_feasible_ok_at_time_boundary():
    sc = Scenario(ProtocolFlavor.AX256, 11, 0.0, 1500)
    plan = AggregationPlan(256, 7, 0)
    air = airtime(plan, sc, AX256)
    assert air.ppdu_time == pytest.approx(4607.2)
    assert is_feasible(plan, sc, AX256) is Feasibility.OK


def test_feasible_checks_in_order():
    sc_ac = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    assert is_feasible(AggregationPlan(65, 7, 0), sc_ac, AC) is Feasibility.TOO_MANY_MPDUS
    assert is_feasible(AggregationPlan(64, 8, 0), sc_ac, AC) is Feasibility.MPDU_TOO_LARGE

    # the default 11ac byte cap only binds with a tighter override
    tight, _ = apply_overrides(AC, DEFAULT_OVERHEAD, {"max_psdu_bytes": 100000})
    assert is_feasible(AggregationPlan(10, 7, 0), sc_ac, tight) is Feasibility.PSDU_TOO_LARGE

    slow = Scenario(ProtocolFlavor.AC64, 0, 0.0, 1500)
    assert is_feasible(AggregationPlan(64, 7, 0), slow, AC) is Feasibility.TIME_LIMIT_EXCEEDED


def test_feasible_psdu_cap_inactive_by_default():
    # 64 maximum-size MPDUs stay well under the 1048575-byte A-MPDU cap
    sc = Scenario(ProtocolFlavor.AC64, 9, 0.0, 1500)
    plan = AggregationPlan(64, 7, 0)
    assert airtime(plan, sc, AC).psdu_bits // 8 == 681472
    assert is_feasible(plan, sc, AC) is Feasibility.OK


@pytest.mark.parametrize("flavor", list(ProtocolFlavor))
@pytest.mark.parametrize("ber", [0.0, 1e-5])
@pytest.mark.parametrize("msdu_len", [64, 512, 1500])
def test_single_msdu_plan_always_feasible(flavor, ber, msdu_len):
    cfg = default_config(flavor)
    for mcs in (0, len(cfg.mcs_rates) - 1):
        sc = Scenario(flavor, mcs, ber, msdu_len)
        assert is_feasible(AggregationPlan(1, 1, 0), sc, cfg) is Feasibility.OK


def test_flavor_mismatch_rejected():
    sc = Scenario(ProtocolFlavor.AX64, 0, 0.0, 64)
    with pytest.raises(ValueError, match="does not match"):
        airtime(AggregationPlan(1, 1, 0), sc, AC)


@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    msdu_len=st.integers(min_value=1, max_value=2304),
    ppdu_time_limit=st.floats(min_value=0.0, max_value=5484.0),
    round_symbols=st.booleans(),
    x=st.integers(min_value=1, max_value=256),
    y=st.integers(min_value=1, max_value=20),
)
@example(ProtocolFlavor.AX256, 11, 64, 1e6, True, 1, 1)       # huge limits
@example(ProtocolFlavor.AX256, 11, 64, 1e9, False, 1, 1)
@example(ProtocolFlavor.AC64, 0, 1500, AC.preamble + 100 * AC.symbol_time, True, 1, 1)  # on a symbol
@example(ProtocolFlavor.AC64, 9, 1500, AC.preamble - 1.0, True, 1, 1)  # no PSDU fits
@example(ProtocolFlavor.AX64, 10, 64, 2784.8, True, 1, 1)     # the closed form overshoots by one bit
@example(ProtocolFlavor.AX64, 10, 64, 2784.8, False, 1, 1)
def test_link_time_limit_matches_airtime(flavor, mcs, msdu_len, ppdu_time_limit, round_symbols, x, y):
    # the verdict's time check and the optimizer's bit budget agree with the
    # PPDU time the airtime reports
    cfg = replace(default_config(flavor), ppdu_time_limit=ppdu_time_limit, max_psdu_bytes=None)
    sc = Scenario(flavor, mcs % len(cfg.mcs_rates), 0.0, msdu_len)
    link = Link.of(sc, cfg, round_symbols=round_symbols)
    air = link.airtime(AggregationPlan(x, y, 0))
    assert link.within_time_limit(air.psdu_bits) == (air.ppdu_time <= ppdu_time_limit)
    cap = link.bit_cap
    if cap >= 0:
        assert link.within_time_limit(cap)
    assert not link.within_time_limit(cap + 1)


@pytest.mark.parametrize("ber", [0.0, 1e-6, 1e-3, 0.5])
def test_v_table_holds_v(ber):
    link = Link.of(Scenario(ProtocolFlavor.AX256, 11, ber, 64), AX256)
    assert link.v_table(150).tolist() == [link.v(y) for y in range(150)]


@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    ber=st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e-2)),
    msdu_len=st.integers(min_value=1, max_value=2304),
    round_symbols=st.booleans(),
    plans=st.lists(
        st.tuples(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=20)),
        min_size=1, max_size=20,
    ),
)
def test_scores_are_goodput_over_cycle_time(flavor, mcs, ber, msdu_len, round_symbols, plans):
    cfg = default_config(flavor)
    link = Link.of(Scenario(flavor, mcs % len(cfg.mcs_rates), ber, msdu_len), cfg, round_symbols=round_symbols)
    x = np.array([x for x, _ in plans])
    m = np.array([x * y + (y % x) for x, y in plans])
    v = link.v_table(int((m // x).max()) + 2).take
    value, bound = link.scores(x, m, v)
    good = link.goodput(x, m, v)
    assert value.tolist() == (good / link.cycle_time(x, m)).tolist()
    assert bound.tolist() == (good / replace(link, round_symbols=False).cycle_time(x, m)).tolist()
    assert (bound >= value).all()


def test_link_of_shares_one_link_per_scenario():
    sc = Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512)
    link = Link.of(sc, AX256)
    assert Link.of(sc, AX256) is link
    same = Link.of(Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512), replace(AX256), DEFAULT_OVERHEAD, round_symbols=True)
    assert same == link
    assert Link.of(sc, AX256, round_symbols=False) != link


def test_link_of_memo_returns_the_link_of_its_arguments():
    # the memo answers by identity; every call must still get the link its own
    # arguments build, whatever the call before it was
    def cold(scenario, config, overhead, round_symbols):
        geometry._last_link = (None,) * 5
        return Link.of(scenario, config, overhead, round_symbols=round_symbols)

    a = Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512)
    same_as_a = Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512)
    lossless = Scenario(ProtocolFlavor.AX256, 9, 0.0, 512)
    short = replace(AX256, ppdu_time_limit=2000.0)
    no_contention = replace(DEFAULT_OVERHEAD, aifs=0.0, backoff=0.0)
    calls = [
        (a, AX256, DEFAULT_OVERHEAD, True),
        (same_as_a, AX256, DEFAULT_OVERHEAD, True),
        (a, replace(AX256), DEFAULT_OVERHEAD, True),
        (a, short, DEFAULT_OVERHEAD, True),
        (a, short, DEFAULT_OVERHEAD, False),
        (a, short, no_contention, False),
        (lossless, short, no_contention, False),
        (lossless, AX256, DEFAULT_OVERHEAD, True),
    ]
    sequence = [(call, cold(*call)) for call in calls]
    for _ in range(2):
        for call, expected in sequence + sequence[::-1]:
            scenario, config, overhead, round_symbols = call
            link = Link.of(scenario, config, overhead, round_symbols=round_symbols)
            assert link == expected
            assert Link.of(scenario, config, overhead, round_symbols=round_symbols) is link


@given(
    ber=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    msdu_len=st.integers(min_value=1, max_value=2304),
    y=st.integers(min_value=0, max_value=10**6),
)
def test_link_p_is_success_probability(ber, msdu_len, y):
    link = Link.of(Scenario(ProtocolFlavor.AX256, 9, ber, msdu_len), AX256)
    assert link.p(y) == success_probability(ber, link.c0 + link.step * y)


def test_link_cache_keeps_int_sizes():
    # a float size would make every frame size a float, so floats are refused
    plan = AggregationPlan(100, 3, 0)
    with pytest.raises(ValueError, match="msdu_len"):
        airtime(plan, Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512.0), AX256)
    assert type(airtime(plan, Scenario(ProtocolFlavor.AX256, 9, 1e-5, 512), AX256).psdu_bits) is int


def _verdict_in_sequence(link, plan):
    # the limits one after another, as the verdict read before it used bit_cap
    cfg = link.config
    if plan.x > cfg.max_mpdus:
        return Feasibility.TOO_MANY_MPDUS
    if plan.y_base + (plan.n_extra > 0) > link.y_cap:
        return Feasibility.MPDU_TOO_LARGE
    bits = link.psdu_bits(plan.x, plan.total_msdus)
    if cfg.max_psdu_bytes is not None and bits > 8 * cfg.max_psdu_bytes:
        return Feasibility.PSDU_TOO_LARGE
    if not link.within_time_limit(bits):
        return Feasibility.TIME_LIMIT_EXCEEDED
    return Feasibility.OK


@given(
    flavor=st.sampled_from(list(ProtocolFlavor)),
    mcs=st.integers(min_value=0, max_value=11),
    msdu_len=st.integers(min_value=1, max_value=2304),
    round_symbols=st.booleans(),
    x=st.integers(min_value=1, max_value=300),
    y_base=st.integers(min_value=0, max_value=30),
    n_extra=st.integers(min_value=0, max_value=299),
    mpdus_step=st.integers(min_value=-2, max_value=2),
    mpdu_bytes_step=st.one_of(st.none(), st.integers(min_value=-2, max_value=2)),
    psdu_bytes_step=st.one_of(st.none(), st.integers(min_value=-2, max_value=2)),
    limit=st.one_of(st.integers(min_value=-2, max_value=2), st.floats(min_value=0.0, max_value=6000.0)),
)
@example(ProtocolFlavor.AC64, 0, 1500, True, 1, 1, 0, 0, None, None, 0.0)  # no PSDU fits at all
@example(ProtocolFlavor.AC64, 0, 1500, True, 1, 1, 0, 0, None, 0, 0)  # max_psdu_bytes = bits / 8
@example(ProtocolFlavor.AC64, 0, 1500, True, 1, 1, 0, 0, None, -1, -1)  # over both byte and time caps
def test_verdict_matches_the_limits_in_sequence(
    flavor, mcs, msdu_len, round_symbols, x, y_base, n_extra,
    mpdus_step, mpdu_bytes_step, psdu_bytes_step, limit,
):
    # each limit is drawn on or next to the plan's own size, so plans fall on
    # both sides of every cap; an int limit is a symbol offset from the plan's
    # last symbol, a float one any PPDU time
    cfg = default_config(flavor)
    sc = Scenario(flavor, mcs % len(cfg.mcs_rates), 0.0, msdu_len)
    n_extra %= x
    plan = AggregationPlan(x, max(y_base, n_extra == 0), n_extra)
    biggest = plan.y_base + (plan.n_extra > 0)
    msdu = MsduSlot.for_payload(msdu_len)
    bits = Link.of(sc, cfg).psdu_bits(plan.x, plan.total_msdus)
    if isinstance(limit, int):
        symbols = math.ceil(Link.of(sc, cfg, round_symbols=round_symbols).symbols(bits))
        limit = cfg.preamble + (symbols + limit) * cfg.symbol_time
    cfg = replace(
        cfg,
        max_mpdus=max(1, x + mpdus_step),
        max_mpdu_bytes=(
            cfg.max_mpdu_bytes if mpdu_bytes_step is None
            else max(1, mpdu_bytes(biggest, msdu) + mpdu_bytes_step)
        ),
        max_psdu_bytes=None if psdu_bytes_step is None else max(0, bits // 8 + psdu_bytes_step),
        ppdu_time_limit=limit,
    )
    link = Link.of(sc, cfg, round_symbols=round_symbols)
    assert link.verdict(plan) is _verdict_in_sequence(link, plan)
