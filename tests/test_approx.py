import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aggthru import (
    DEFAULT_OVERHEAD,
    AggregationPlan,
    Link,
    ProtocolFlavor,
    Scenario,
    crossover_mcs,
    crossover_rate_reliable,
    default_config,
    optimize_exact,
    phy_rate,
    smallest_mcs_at_least,
    success_probability,
    throughput_approx,
    throughput_on_budget,
    x_opt_coefficient,
    y_from_x,
)

AX256 = default_config(ProtocolFlavor.AX256)
# the closed form assumes a per-cycle overhead that does not depend on x, so
# this config charges the full-window block ack for every x, as criterion 6 does
LIFTED = replace(AX256, back64_duration=AX256.back_duration)
O_M_BITS = 8 * DEFAULT_OVERHEAD.mpdu_overhead_bytes


def _link(mcs=11, ber=1e-5, msdu_len=1500):
    """The continuous model on ``LIFTED``: MCS 11 is 4803 Mbps, MCS 7 2882 Mbps."""
    return Link.of(Scenario(ProtocolFlavor.AX256, mcs, ber, msdu_len), LIFTED, round_symbols=False)


def _x_opt(mcs, ber):
    """The closed-form optimal MPDU count at ``mcs`` on ``LIFTED``."""
    return phy_rate(LIFTED, mcs) * x_opt_coefficient(ber, O_M_BITS, LIFTED.ppdu_time_limit, LIFTED.preamble)


# ac64 MCS 9: the 1048575-byte PSDU cap, not the time limit, sets bit_cap
AC64 = default_config(ProtocolFlavor.AC64)
AC64_MCS9 = Link.of(Scenario(ProtocolFlavor.AC64, 9, 1e-5, 1500), AC64, round_symbols=False)


def test_throughput_approx_reliable_simplification():
    link = _link(ber=0.0)
    x, y = 40.0, 3.0
    direct = 8 * x * y * 1500 / (221.3 + (8 * x * (36 + y * 1516) + 22) / 4803)
    assert throughput_approx(link, x, y) == pytest.approx(direct, rel=1e-12)


def test_throughput_approx_large_x_asymptote():
    link = _link(ber=1e-6)
    y = 4.0
    mpdu_bits = 288 + 8 * y * 1516
    limit = 4803 * (y * 1500 / (36 + y * 1516)) * success_probability(1e-6, mpdu_bits)
    assert throughput_approx(link, 1e9, y) == pytest.approx(limit, rel=1e-6)


@pytest.mark.parametrize(
    "flavor,mcs,ber,msdu_len,plans",
    [
        (ProtocolFlavor.AC64, 9, 1e-5, 1500, [(1, 1), (20, 7), (64, 5)]),
        (ProtocolFlavor.AX64, 5, 1e-6, 512, [(1, 3), (33, 21), (64, 9)]),
        (ProtocolFlavor.AX256, 11, 1e-5, 64, [(7, 100), (64, 12), (65, 12), (200, 30)]),
    ],
)
def test_throughput_approx_is_the_unrounded_link_at_integer_y(flavor, mcs, ber, msdu_len, plans):
    # the continuous model is the link's own cycle model, PSDU cap, tail bits
    # and both block-ack regimes included, once y is an integer
    link = Link.of(Scenario(flavor, mcs, ber, msdu_len), default_config(flavor), round_symbols=False)
    table = link.v_table(max(y for _, y in plans) + 2)
    xs = np.array([x for x, _ in plans])
    ms = np.array([x * y for x, y in plans])
    _, bounds = link.scores(xs, ms, table.take)
    for (x, y), bound in zip(plans, bounds):
        smooth = throughput_approx(link, x, y)
        assert smooth == pytest.approx(link.throughput(AggregationPlan(x, y)).throughput, rel=1e-12)
        assert smooth == pytest.approx(bound, rel=1e-12)


def test_y_from_x_example():
    assert y_from_x(_link(), 256) == pytest.approx(8.23, abs=0.005)


@pytest.mark.parametrize("link", [_link(), AC64_MCS9], ids=["ax256", "ac64-psdu-capped"])
@given(x=st.integers(min_value=1, max_value=1800))
def test_y_from_x_inverts_time_budget(link, x):
    assert AC64_MCS9.bit_cap == 8 * AC64_MCS9.config.max_psdu_bytes
    y = y_from_x(link, x)
    assert x * (link.c0 + link.step * y) == pytest.approx(link.bit_cap, rel=1e-9)


def test_y_from_x_boundary_and_error():
    link = _link()
    boundary = link.bit_cap / link.c0
    assert y_from_x(link, boundary) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="exceeds the PSDU budget"):
        y_from_x(link, boundary * 1.01)


@pytest.mark.parametrize(
    "ber,expected",
    [(1e-7, 0.0991), (1e-6, 0.3117), (1e-5, 0.9678)],
)
def test_x_opt_coefficients(ber, expected):
    assert round(x_opt_coefficient(ber, 288, 5400.0, 64.8), 4) == expected


def test_x_opt_rejects_zero_ber():
    with pytest.raises(ValueError, match="reliable-channel crossover"):
        x_opt_coefficient(0.0, 288, 5400.0, 64.8)


@pytest.mark.parametrize("o_m_bits", [0, -24, math.inf, math.nan])
def test_x_opt_rejects_bad_mpdu_overhead(o_m_bits):
    with pytest.raises(ValueError, match="per-MPDU overhead"):
        x_opt_coefficient(1e-5, o_m_bits, 5400.0, 64.8)


def test_x_opt_is_a_local_maximum():
    link = _link(mcs=7)
    x_opt = _x_opt(7, 1e-5)
    peak = throughput_on_budget(link, x_opt)
    assert peak > throughput_on_budget(link, x_opt * 1.01)
    assert peak > throughput_on_budget(link, x_opt * 0.99)


# X = rate * coefficient solves the quadratic at each rate, so the closed form is linear in the rate
@pytest.mark.parametrize("mcs", [7, 11])
@pytest.mark.parametrize("ber", [1e-7, 1e-6, 1e-5])
def test_x_opt_solves_quadratic(ber, mcs):
    a = float(O_M_BITS)
    b = math.log1p(-ber)
    d = phy_rate(LIFTED, mcs) * (LIFTED.ppdu_time_limit - LIFTED.preamble)
    x = _x_opt(mcs, ber)
    residual = a * x * x - a * b * d * x + b * d * d
    scale = max(abs(a * x * x), abs(a * b * d * x), abs(b * d * d))
    assert abs(residual) / scale < 1e-9


@pytest.mark.parametrize("ber,mcs", [(1e-6, 7), (1e-5, 7), (1e-7, 11)])
def test_on_budget_unimodal_over_full_domain(ber, mcs):
    link = _link(mcs=mcs, ber=ber)
    top = int(link.bit_cap / link.c0) - 1
    values = [throughput_on_budget(link, x) for x in range(1, top + 1)]
    rises = 0
    falls = 0
    direction_changes = 0
    last = values[0]
    going_up = True
    for v in values[1:]:
        if v > last:
            if not going_up:
                direction_changes += 1
                going_up = True
            rises += 1
        elif v < last:
            if going_up:
                direction_changes += 1
                going_up = False
            falls += 1
        last = v
    assert direction_changes <= 1
    assert rises > 0 and falls > 0
    peak = max(range(len(values)), key=values.__getitem__) + 1
    assert abs(peak - _x_opt(mcs, ber)) <= 1.0


def test_fine_scan_peak_matches_closed_form():
    link = _link(mcs=7, ber=1e-5)
    x_opt = _x_opt(7, 1e-5)
    xs = [x_opt - 5 + 0.05 * i for i in range(200)]
    best = max(xs, key=lambda x: throughput_on_budget(link, x))
    assert abs(best - x_opt) <= 0.5


def test_reliable_crossover_values():
    rel = crossover_rate_reliable(1500, DEFAULT_OVERHEAD, AX256)
    assert rel.discrete == pytest.approx(1021.0, abs=1.0)
    assert rel.continuous == pytest.approx(1099.0, abs=1.0)
    assert smallest_mcs_at_least(AX256, rel.discrete) == 3
    assert smallest_mcs_at_least(AX256, rel.continuous) == 3
    continuous = {crossover_rate_reliable(L, DEFAULT_OVERHEAD, AX256).continuous for L in (64, 512, 1500)}
    assert len(continuous) == 1


def test_reliable_crossover_counts_aligned_mpdus():
    # 35 bytes of per-MPDU overhead pad to 36: four 772-byte MSDUs fill the
    # 3895-byte cap, and each full MPDU is 36 + 4 * 772 bytes on air
    ovh = replace(DEFAULT_OVERHEAD, mac_header=27)
    cfg = replace(AX256, max_mpdu_bytes=3895)
    span = cfg.ppdu_time_limit - cfg.preamble
    assert crossover_rate_reliable(758, ovh, cfg).discrete == 8.0 * 64 * (36 + 4 * 772) / span


@pytest.mark.parametrize(
    "ber,threshold,mcs",
    [(1e-7, 645.0, 2), (1e-6, 205.0, 0), (1e-5, 66.0, 0)],
)
def test_lossy_crossover_values(ber, threshold, mcs):
    report = crossover_mcs(ber, DEFAULT_OVERHEAD, AX256)
    assert report.rate_threshold == pytest.approx(threshold, abs=1.0)
    assert report.mcs_crossover == mcs
    assert report.rate_threshold == pytest.approx(64 / report.x_opt_coefficient, rel=1e-12)


def test_smallest_mcs_above_table_is_none():
    assert smallest_mcs_at_least(AX256, 5000.0) is None


@pytest.mark.parametrize(
    "flavor,mcs,ber,msdu_len",
    [
        (ProtocolFlavor.AC64, 9, 0.0, 1500),
        (ProtocolFlavor.AX256, 11, 0.0, 512),
        (ProtocolFlavor.AX256, 7, 1e-5, 1500),
        (ProtocolFlavor.AX64, 4, 1e-6, 64),
    ],
)
def test_approx_close_to_exact_at_optimum(flavor, mcs, ber, msdu_len):
    config = default_config(flavor)
    scenario = Scenario(flavor, mcs, ber, msdu_len)
    res = optimize_exact(scenario, config)
    link = Link.of(scenario, config, round_symbols=False)
    plan = res.plan
    smooth = throughput_approx(link, plan.x, plan.total_msdus / plan.x)
    assert smooth == pytest.approx(res.throughput, rel=0.02)
