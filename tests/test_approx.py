import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from aggthru import (
    DEFAULT_OVERHEAD,
    ContinuousScenario,
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
    throughput_exact,
    throughput_on_budget,
    x_opt_closed_form,
    x_opt_coefficient,
    y_from_x,
)

AX256 = default_config(ProtocolFlavor.AX256)


def _scenario(rate=4803.0, ber=1e-5, msdu_len=1500):
    return ContinuousScenario.from_config(AX256, ber=ber, msdu_len=msdu_len, rate=rate)


def test_from_config_fields():
    cs = _scenario()
    assert cs.padded_len == 1516
    assert cs.o_m_bits == 288
    assert cs.budget_bits == pytest.approx(4803 * 5335.2, rel=1e-12)
    assert cs.cycle_overhead == pytest.approx(221.3, abs=1e-12)


@pytest.mark.parametrize("kwargs,message", [({"ber": 1.0}, "bit error rate"), ({"rate": 0.0}, "rate must be positive")])
def test_from_config_rejects_bad_inputs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        _scenario(**kwargs)


def test_throughput_approx_reliable_simplification():
    cs = _scenario(ber=0.0)
    x, y = 40.0, 3.0
    direct = 8 * x * y * 1500 / (221.3 + 8 * x * (36 + y * 1516) / 4803)
    assert throughput_approx(x, y, cs) == pytest.approx(direct, rel=1e-12)


def test_throughput_approx_large_x_asymptote():
    cs = _scenario(ber=1e-6)
    y = 4.0
    mpdu_bits = 288 + 8 * y * 1516
    limit = 4803 * (y * 1500 / (36 + y * 1516)) * success_probability(1e-6, mpdu_bits)
    assert throughput_approx(1e9, y, cs) == pytest.approx(limit, rel=1e-6)


def test_y_from_x_example():
    cs = _scenario()
    assert y_from_x(256, cs) == pytest.approx(8.23, abs=0.005)


@given(st.integers(min_value=1, max_value=1800))
def test_y_from_x_inverts_time_budget(x):
    cs = _scenario()
    y = y_from_x(x, cs)
    filled = x * 8 * (36 + y * 1516) / 4803 + 64.8
    assert filled == pytest.approx(5400.0, rel=1e-9)


def test_y_from_x_boundary_and_error():
    cs = _scenario()
    boundary = cs.budget_bits / cs.o_m_bits
    assert y_from_x(boundary, cs) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="exceeds the airtime budget"):
        y_from_x(boundary * 1.01, cs)


@pytest.mark.parametrize(
    "ber,expected",
    [(1e-7, 0.0991), (1e-6, 0.3117), (1e-5, 0.9678)],
)
def test_x_opt_coefficients(ber, expected):
    assert round(x_opt_coefficient(ber, 288, 5400.0, 64.8), 4) == expected


def test_x_opt_rejects_zero_ber():
    with pytest.raises(ValueError, match="reliable-channel crossover"):
        x_opt_coefficient(0.0, 288, 5400.0, 64.8)
    with pytest.raises(ValueError, match="reliable-channel crossover"):
        x_opt_closed_form(_scenario(ber=0.0))


@pytest.mark.parametrize("o_m_bits", [0, -24, math.inf, math.nan])
def test_x_opt_rejects_bad_mpdu_overhead(o_m_bits):
    with pytest.raises(ValueError, match="per-MPDU overhead"):
        x_opt_coefficient(1e-5, o_m_bits, 5400.0, 64.8)


def test_x_opt_is_a_local_maximum():
    cs = _scenario(rate=2882.0)
    x_opt = x_opt_closed_form(cs)
    peak = throughput_on_budget(x_opt, cs)
    assert peak > throughput_on_budget(x_opt * 1.01, cs)
    assert peak > throughput_on_budget(x_opt * 0.99, cs)


def test_x_opt_independent_of_msdu_len():
    values = {x_opt_closed_form(_scenario(msdu_len=L)) for L in (64, 512, 1500)}
    assert len(values) == 1


def test_x_opt_linear_in_rate():
    a = x_opt_closed_form(_scenario(rate=1000.0))
    b = x_opt_closed_form(_scenario(rate=2000.0))
    assert b == pytest.approx(2 * a, rel=1e-12)


@pytest.mark.parametrize("ber", [1e-7, 1e-6, 1e-5])
def test_x_opt_solves_quadratic(ber):
    cs = _scenario(ber=ber)
    a = float(cs.o_m_bits)
    b = math.log1p(-ber)
    d = cs.budget_bits
    x = x_opt_closed_form(cs)
    residual = a * x * x - a * b * d * x + b * d * d
    scale = max(abs(a * x * x), abs(a * b * d * x), abs(b * d * d))
    assert abs(residual) / scale < 1e-9


@pytest.mark.parametrize("ber,rate", [(1e-6, 2882.0), (1e-5, 2882.0), (1e-7, 4803.0)])
def test_on_budget_unimodal_over_full_domain(ber, rate):
    cs = _scenario(rate=rate, ber=ber)
    top = int(cs.budget_bits / cs.o_m_bits) - 1
    values = [throughput_on_budget(x, cs) for x in range(1, top + 1)]
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
    assert abs(peak - x_opt_closed_form(cs)) <= 1.0


def test_fine_scan_peak_matches_closed_form():
    cs = _scenario(rate=2882.0, ber=1e-5)
    x_opt = x_opt_closed_form(cs)
    xs = [x_opt - 5 + 0.05 * i for i in range(200)]
    best = max(xs, key=lambda x: throughput_on_budget(x, cs))
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
    cs = ContinuousScenario.from_config(config, ber=ber, msdu_len=msdu_len, rate=phy_rate(config, mcs))
    plan = res.plan
    smooth = throughput_approx(plan.x, plan.total_msdus / plan.x, cs)
    assert smooth == pytest.approx(res.throughput, rel=0.02)
