"""Exact cycle throughput, optimal-plan search, and a Monte Carlo cross-check.

The throughput of a plan is the expected MSDU payload delivered per cycle
divided by the cycle airtime; an MPDU of C bits survives the channel with
probability (1 - BER)^C.  Both come from one ``geometry.Link`` per scenario.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AggregationPlan,
    AirtimeBreakdown,
    Feasibility,
    Link,
    success_probability,  # noqa: F401  (part of this module's interface)
)
from .params import DEFAULT_OVERHEAD, OverheadConfig, ProtocolConfig, Scenario


class InfeasiblePlanError(ValueError):
    """The plan violates a transmission limit."""

    def __init__(self, verdict: Feasibility):
        super().__init__(f"infeasible plan: {verdict.value} limit violated")
        self.verdict = verdict


class NoFeasiblePlanError(ValueError):
    """The scenario admits no transmission at all."""


@dataclass(frozen=True, slots=True)
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
    """Expected throughput of a feasible plan [Mbps].

    Raises ``InfeasiblePlanError`` with the first limit the plan violates,
    checked in the order of ``Link.verdict``.  The plan's PSDU bits are
    computed once and shared by the verdict and the airtime.
    """
    link = Link.of(scenario, config, overhead, round_symbols=round_symbols)
    m = plan.total_msdus
    bits = link.psdu_bits(plan.x, m)
    verdict = link.verdict(plan, bits)
    if verdict is not Feasibility.OK:
        raise InfeasiblePlanError(verdict)
    air = link.airtime(plan, bits)
    good = link.goodput(plan.x, m)
    return ThroughputResult(good / air.cycle_time, plan, air, good)


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

    Every candidate is scored with ``Link.goodput / Link.cycle_time``, the
    expressions ``throughput_exact`` uses, under the ``Link``'s ``y_cap`` and
    ``bit_cap``, the limits ``is_feasible`` checks; the lowest ``(x, M)``
    among the maxima wins.
    """
    link = Link.of(scenario, config, overhead, round_symbols=round_symbols)
    c0, step, bit_cap = link.c0, link.step, link.bit_cap
    x_cap = min(config.max_mpdus, bit_cap // (c0 + step))
    # no MPDU of a feasible plan holds more MSDUs than fit the budget alone
    ym = min(link.y_cap, (bit_cap - c0) // step)
    if min(x_cap, ym) < 1:
        raise NoFeasiblePlanError("scenario admits no transmission")

    # v(y) for y = 0..ym+1; index ym+1 exists only so lookups stay in bounds
    # (it is always multiplied by a zero count)
    v = np.array([link.v(y) for y in range(ym + 2)]).take

    # per x, the kinks M = x*y for y = 1..M_max//x, then the cap M_max;
    # consecutive points of one x bound a segment
    xs = np.arange(1, x_cap + 1, dtype=np.int64)
    m_max = np.minimum(xs * ym, (bit_cap - c0 * xs) // step)
    per_x = m_max // xs + 1
    px = np.repeat(xs, per_x)
    j = np.arange(1, px.size + 1) - np.repeat(np.cumsum(per_x) - per_x, per_x)
    pm = np.minimum(px * j, np.repeat(m_max, per_x))
    good = link.goodput(px, pm, v)
    cand_x, cand_m, cand_thr = [px], [pm], [good / link.cycle_time(px, pm)]

    if round_symbols:
        bound = good / link.cycle_time(px, pm, rounded=False)
        bound = np.maximum(bound[:-1], bound[1:]) * (1.0 + _BOUND_SLACK)
        sx, lo, hi = px[:-1], pm[:-1], pm[1:]
        y = lo // sx
        searched = (
            (px[1:] == sx) & (hi - lo > 1) & (v(y + 1) > v(y))
            & (bound >= cand_thr[0].max())
        )
        sx, lo, hi = sx[searched], lo[searched], hi[searched]
        # one candidate per symbol count s the segment spans: the last M that fits s
        s_lo = link.symbols(link.psdu_bits(sx, lo)).astype(np.int64)
        counts = link.symbols(link.psdu_bits(sx, hi)).astype(np.int64) - s_lo
        rx = np.repeat(sx, counts)
        s = np.arange(rx.size) - np.repeat(np.cumsum(counts) - counts - s_lo, counts)
        m = np.floor((s * link.per_symbol - link.tail_bits - c0 * rx) / step).astype(np.int64)
        # settle float error against the expression the score uses
        m += link.symbols(link.psdu_bits(rx, m + 1)) <= s
        m -= link.symbols(link.psdu_bits(rx, m)) > s
        m = np.clip(m, np.repeat(lo, counts), np.repeat(hi, counts) - 1)
        cand_x.append(rx)
        cand_m.append(m)
        cand_thr.append(link.goodput(rx, m, v) / link.cycle_time(rx, m))

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
    Deterministic for a given seed.  On a reliable channel (BER 0) every
    MPDU arrives, so nothing is drawn and the result is the exact throughput.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    link = Link.of(scenario, config, overhead)
    cycle_time = link.cycle_time(plan.x, plan.total_msdus)
    rng = np.random.default_rng(seed)

    delivered = np.zeros(cycles, dtype=np.int64)
    for y, count in plan.mpdu_groups():
        successes = rng.binomial(count, link.p(y), size=cycles) if link.ber else count
        delivered += successes * (8 * scenario.msdu_len * y)

    mean_bits = delivered.mean()
    thr = mean_bits / cycle_time
    if cycles > 1:
        se = delivered.std(ddof=1) / math.sqrt(cycles) / cycle_time
    else:
        se = 0.0
    return MonteCarloResult(float(thr), float(se), cycles, seed)
