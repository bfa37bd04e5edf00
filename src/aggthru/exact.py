"""Exact cycle throughput, optimal-plan search, and a Monte Carlo cross-check.

The throughput of a plan is the expected MSDU payload delivered per cycle
divided by the cycle airtime; an MPDU of C bits survives the channel with
probability (1 - BER)^C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AggregationPlan,
    AirtimeBreakdown,
    Feasibility,
    MsduSlot,
    MsduTooLargeError,
    airtime,
    is_feasible,
    mpdu_bits,
    y_max,
)
from .params import (
    BA64_FRAMES,
    DEFAULT_OVERHEAD,
    OverheadConfig,
    ProtocolConfig,
    Scenario,
    cycle_overhead,
    phy_rate,
)


class InfeasiblePlanError(ValueError):
    """The plan violates a transmission limit."""

    def __init__(self, verdict: Feasibility):
        super().__init__(f"infeasible plan: {verdict.value} limit violated")
        self.verdict = verdict


class NoFeasiblePlanError(ValueError):
    """The scenario admits no transmission at all."""


def success_probability(ber: float, bits) -> float:
    """Probability that ``bits`` consecutive bits all arrive intact."""
    if ber == 0:
        return 1.0
    return math.exp(bits * math.log1p(-ber))


@dataclass(frozen=True)
class ThroughputResult:
    throughput: float              # Mbps
    plan: AggregationPlan
    airtime: AirtimeBreakdown
    goodput_bits_expected: float   # expected delivered payload bits per cycle


def throughput_exact(
    plan: AggregationPlan,
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
    *,
    round_symbols: bool = True,
) -> ThroughputResult:
    """Expected throughput of a feasible plan [Mbps]."""
    verdict = is_feasible(plan, scenario, config, overhead, round_symbols=round_symbols)
    if not verdict.ok:
        raise InfeasiblePlanError(verdict)
    msdu = MsduSlot.for_payload(scenario.msdu_len, overhead)
    n = plan.n_extra
    c_lo = mpdu_bits(plan.y_base, msdu, overhead)
    v_lo = plan.y_base * success_probability(scenario.ber, c_lo)
    if n:
        c_hi = mpdu_bits(plan.y_base + 1, msdu, overhead)
        v_hi = (plan.y_base + 1) * success_probability(scenario.ber, c_hi)
    else:
        v_hi = 0.0
    good = (8.0 * scenario.msdu_len) * (n * v_hi + (plan.x - n) * v_lo)
    air = airtime(plan, scenario, config, overhead, round_symbols=round_symbols)
    return ThroughputResult(good / air.cycle_time, plan, air, good)


def _symbol_cap(config: ProtocolConfig) -> int:
    """Largest whole-symbol count whose PPDU still meets the time limit."""
    span = config.ppdu_time_limit - config.preamble
    cap = int(span // config.symbol_time)
    # settle boundary float effects against the same expression airtime() uses
    while config.preamble + (cap + 1) * config.symbol_time <= config.ppdu_time_limit:
        cap += 1
    while cap > 0 and config.preamble + cap * config.symbol_time > config.ppdu_time_limit:
        cap -= 1
    return cap


def _psdu_bits_budget(
    config: ProtocolConfig,
    rate: float,
    overhead: OverheadConfig,
    round_symbols: bool,
) -> int:
    """Largest PSDU bit count that passes the PPDU time check."""
    tail = overhead.service_tail_bits
    per_symbol = config.symbol_time * rate

    if round_symbols:
        s_cap = _symbol_cap(config)
        if s_cap < 1:
            return -1
        cand = int(s_cap * per_symbol) - tail

        def fits(bits: int) -> bool:
            return math.ceil((bits + tail) / per_symbol) <= s_cap

    else:
        cand = int(rate * (config.ppdu_time_limit - config.preamble)) - tail

        def fits(bits: int) -> bool:
            raw = (bits + tail) / per_symbol
            return config.preamble + raw * config.symbol_time <= config.ppdu_time_limit

    while cand >= 0 and not fits(cand):
        cand -= 1
    while fits(cand + 1):
        cand += 1
    return cand


# Relative float slack on a segment's upper bound: the bound is exact in real
# arithmetic but evaluated in floats, so a segment is skipped only when its
# bound, widened by this factor, still falls below the best value found.
_BOUND_SLACK = 1e-9


def optimize_exact(
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
    *,
    round_symbols: bool = True,
) -> ThroughputResult:
    """Throughput-maximizing plan, exact over every balanced plan.

    A balanced plan has ``x`` MPDUs and ``M >= x`` MSDUs split ``M // x``
    per MPDU, ``M % x`` MPDUs carrying one more, i.e. per-MPDU counts that
    differ by at most one.  Ties break toward fewer MPDUs, then fewer MSDUs.
    The per-cycle overhead depends on ``x`` through the block ack (see
    ``block_ack_duration``).

    Only a small candidate set is evaluated; it holds the maximum because:

    - Padded MSDUs are 4-byte aligned, so an MPDU of ``y`` MSDUs has
      ``C(y) = C(0) + s*y`` bits and a plan's PSDU has ``x*C(0) + s*M``
      bits, linear in ``M``.  The budget therefore caps ``M`` at
      ``M_max(x)``.
    - For a fixed ``x``, expected goodput ``G(M)`` is linear between the
      kinks ``M = x*y`` (each added MSDU lifts one MPDU from ``y`` to
      ``y + 1`` MSDUs), with slope ``v(y+1) - v(y)``, ``v(y) = y*p(C(y))``.
    - Cycle airtime ``T(M)`` is non-decreasing in ``M``.  Without symbol
      rounding it is affine in ``M``, so ``G/T`` is monotone on each
      segment and the segment ends (kinks and cap) hold the maximum.
    - With rounding, ``T`` is a step function of the OFDM symbol count.  On a
      segment of non-positive slope ``G/T`` does not increase, so its left
      kink holds the maximum; on a segment of positive slope ``G/T`` strictly
      increases within each symbol count, so the maximum lies at the last
      ``M`` of a symbol count or at a segment end.  Unrounded airtime never
      exceeds rounded airtime, so the larger unrounded value at a segment's
      two ends bounds every rounded value on it; a segment whose bound falls
      below the best rounded kink or cap value is not searched
      (``_BOUND_SLACK`` absorbs float error in the bound).

    Every candidate is scored with the same float expression as
    ``throughput_exact``, and the lowest ``(x, M)`` among the maxima wins.
    """
    rate = phy_rate(config, scenario.mcs)
    msdu = MsduSlot.for_payload(scenario.msdu_len, overhead)
    try:
        ym = y_max(msdu, overhead, config)
    except MsduTooLargeError as exc:
        raise NoFeasiblePlanError("scenario admits no transmission") from exc

    ts = config.symbol_time
    tail = overhead.service_tail_bits
    per_symbol = ts * rate
    # per-cycle overhead: op_small for x <= BA64_FRAMES, op above
    op = cycle_overhead(config, overhead)
    op_small = cycle_overhead(config, overhead, BA64_FRAMES)
    payload = scenario.msdu_len

    bit_cap = _psdu_bits_budget(config, rate, overhead, round_symbols)
    if config.max_psdu_bytes is not None:
        bit_cap = min(bit_cap, 8 * config.max_psdu_bytes)

    c0 = mpdu_bits(0, msdu, overhead)
    step = mpdu_bits(1, msdu, overhead) - c0   # bits per MSDU: C(y) = c0 + step*y
    x_cap = min(config.max_mpdus, bit_cap // (c0 + step))
    if x_cap < 1:
        raise NoFeasiblePlanError("scenario admits no transmission")
    # no MPDU of a feasible plan holds more MSDUs than fit the budget alone
    ym = min(ym, (bit_cap - c0) // step)

    # v(y) = y * p(C(y)); index ym+1 exists only so gathers stay in bounds
    # (it is always multiplied by a zero count)
    p_table = np.array([success_probability(scenario.ber, c0 + step * y) for y in range(ym + 2)])
    v_table = np.arange(ym + 2) * p_table

    def symbols(x, m):
        return np.ceil((c0 * x + step * m + tail) / per_symbol)

    def throughput(x, m, rounded):
        y = m // x
        n = m - y * x
        raw = (c0 * x + step * m + tail) / per_symbol
        den = (np.ceil(raw) if rounded else raw) * ts + np.where(x <= BA64_FRAMES, op_small, op)
        good = (8.0 * payload) * (n * v_table[y + 1] + (x - n) * v_table[y])
        return good / den

    # per x, the kinks M = x*y for y = 1..M_max//x, then the cap M_max;
    # consecutive points of one x bound a segment
    xs = np.arange(1, x_cap + 1, dtype=np.int64)
    m_max = np.minimum(xs * ym, (bit_cap - c0 * xs) // step)
    per_x = m_max // xs + 1
    px = np.repeat(xs, per_x)
    j = np.arange(1, px.size + 1) - np.repeat(np.cumsum(per_x) - per_x, per_x)
    pm = np.minimum(px * j, np.repeat(m_max, per_x))
    cand_x, cand_m, cand_thr = [px], [pm], [throughput(px, pm, round_symbols)]

    if round_symbols:
        bound = throughput(px, pm, False)
        bound = np.maximum(bound[:-1], bound[1:]) * (1.0 + _BOUND_SLACK)
        sx, lo, hi = px[:-1], pm[:-1], pm[1:]
        y = lo // sx
        searched = (
            (px[1:] == sx) & (hi - lo > 1) & (v_table[y + 1] > v_table[y])
            & (bound >= cand_thr[0].max())
        )
        sx, lo, hi = sx[searched], lo[searched], hi[searched]
        # one candidate per symbol count s the segment spans: the last M that fits s
        s_lo = symbols(sx, lo).astype(np.int64)
        counts = symbols(sx, hi).astype(np.int64) - s_lo
        rx = np.repeat(sx, counts)
        s = np.arange(rx.size) - np.repeat(np.cumsum(counts) - counts - s_lo, counts)
        m = np.floor((s * per_symbol - tail - c0 * rx) / step).astype(np.int64)
        m += symbols(rx, m + 1) <= s          # settle float error against the
        m -= symbols(rx, m) > s               # expression the score uses
        m = np.clip(m, np.repeat(lo, counts), np.repeat(hi, counts) - 1)
        cand_x.append(rx)
        cand_m.append(m)
        cand_thr.append(throughput(rx, m, True))

    xs_c, ms_c, thr = (np.concatenate(a) for a in (cand_x, cand_m, cand_thr))
    top = thr == thr.max()
    best_x = int(xs_c[top].min())
    best_m = int(ms_c[top & (xs_c == best_x)].min())

    plan = AggregationPlan(best_x, best_m // best_x, best_m % best_x)
    return throughput_exact(plan, scenario, config, overhead, round_symbols=round_symbols)


@dataclass(frozen=True)
class MonteCarloResult:
    throughput: float   # Mbps
    std_error: float    # standard error of the throughput estimate
    cycles: int
    seed: int


def simulate_throughput(
    plan: AggregationPlan,
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
    *,
    cycles: int,
    seed: int,
) -> MonteCarloResult:
    """Simulate per-MPDU channel outcomes over repeated cycles.

    Each cycle draws every MPDU's fate independently (success probability
    (1 - BER)^C); MPDUs of equal size are drawn together as one binomial.
    Deterministic for a given seed.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    msdu = MsduSlot.for_payload(scenario.msdu_len, overhead)
    air = airtime(plan, scenario, config, overhead)
    rng = np.random.default_rng(seed)

    delivered = np.zeros(cycles, dtype=np.int64)
    for y, count in plan.mpdu_groups():
        p = success_probability(scenario.ber, mpdu_bits(y, msdu, overhead))
        successes = rng.binomial(count, p, size=cycles)
        delivered += successes * (8 * scenario.msdu_len * y)

    mean_bits = delivered.mean()
    thr = mean_bits / air.cycle_time
    if cycles > 1:
        se = delivered.std(ddof=1) / math.sqrt(cycles) / air.cycle_time
    else:
        se = 0.0
    return MonteCarloResult(float(thr), float(se), cycles, seed)


def monte_carlo_throughput(
    plan: AggregationPlan,
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
    *,
    cycles: int,
    seed: int,
) -> float:
    """Simulated throughput in Mbps; see ``simulate_throughput``."""
    return simulate_throughput(
        plan, scenario, config, overhead, cycles=cycles, seed=seed
    ).throughput
