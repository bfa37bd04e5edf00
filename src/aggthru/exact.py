"""Exact cycle throughput, optimal-plan search, and a Monte Carlo cross-check.

The throughput of a plan is the expected MSDU payload delivered per cycle
divided by the cycle airtime; an MPDU of C bits survives the channel with
probability (1 - BER)^C.  Both come from one ``geometry.Link`` per scenario.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    AggregationPlan,
    InfeasiblePlanError,  # noqa: F401  (part of this module's interface)
    Link,
    ThroughputResult,
    success_probability,
)
from .params import BA64_FRAMES, DEFAULT_OVERHEAD, OverheadConfig, ProtocolConfig, Scenario


class NoFeasiblePlanError(ValueError):
    """The scenario admits no transmission at all."""


def throughput_exact(
    plan: AggregationPlan,
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
) -> ThroughputResult:
    """Expected throughput of a feasible plan [Mbps], in whole OFDM symbols: ``Link.throughput``.

    Raises ``InfeasiblePlanError`` with the first limit the plan violates,
    checked in the order of ``Link.verdict``.
    """
    return Link.of(scenario, config, overhead).throughput(plan)


# Relative float slack on an upper bound: the bound is exact in real
# arithmetic but evaluated in floats, so a kink or segment is dropped only
# when its bound, widened by this factor, still falls below the best value found.
_BOUND_SLACK = 1e-9
_TINY = np.finfo(float).tiny   # the smallest normal double
# A best value below this prunes nothing: near the subnormals one ulp exceeds the slack.
_PRUNE_FLOOR = _TINY / _BOUND_SLACK


def _peak(link: Link, delta: float, lift: float, ym: int) -> int:
    """``y*`` of ``optimize_exact``: from it on ``v`` falls by the factor ``1 + delta`` per MSDU; else ``ym``.

    Starts from the closed form, the smallest integer above
    ``1/expm1(t - lift)`` with ``t = -step*log_q`` and ``lift = log1p(delta)``,
    and settles its float error in two comparisons of the doubles ``v``
    gives, the ones ``v_table`` holds.
    """
    t = -link.step * link.log_q
    if t <= lift:   # BER 0, or v falls by less than that even at y = 1
        return ym
    r = 0.0 if t > 700 else 1 / math.expm1(t - lift)   # expm1 overflows past 709
    if r >= ym:
        return ym
    y = int(r) + 1
    v0, v1 = link.v(y), link.v(y + 1)
    if v0 >= _TINY and v1 * (1 + delta) <= v0:
        return y
    v2 = link.v(y + 2)
    if v1 >= _TINY and v2 * (1 + delta) <= v1:
        return y + 1
    return ym


def _ranges(start, counts):
    """``start[i], start[i] + 1, ...`` (``counts[i]`` values) for every ``i``, concatenated."""
    return np.arange(counts.sum()) - (counts.cumsum() - counts - start).repeat(counts)


def optimize_exact(
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
) -> ThroughputResult:
    """Throughput-maximizing plan, exact over every balanced plan.

    A balanced plan has ``x`` MPDUs and ``M >= x`` MSDUs split ``M // x``
    per MPDU, ``M % x`` MPDUs carrying one more, i.e. per-MPDU counts that
    differ by at most one.  Ties break toward fewer MPDUs, then fewer MSDUs.
    The per-cycle overhead depends on ``x`` through the block ack (see
    ``block_ack_duration``).

    No unbalanced plan scores higher: every split of ``M`` MSDUs over ``x``
    MPDUs has the same PSDU bits (below), so the same airtime and verdict, and
    the balanced one has the smallest largest MPDU.  Goodput is ``payload *
    sum(v(y_i))``, and ``v`` is discretely concave up to its integer peak ``P``
    (``v''`` has the sign of ``t*y - 2``, ``t = -s*log q``): no split beats the
    balanced one if ``ceil(M/x) <= P``, nor else the kink ``(x, x*P)``.

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
      below the best rounded kink or cap value is not searched.

    Most kinks cannot reach the best cap, and the search scores only those
    that can, in three steps (``_BOUND_SLACK`` absorbs float error in every
    bound):

    1. Every cap ``(x, M_max(x))`` is scored; ``best`` is the largest value.
    2. Within one block-ack regime (``x <= BA64_FRAMES`` or above), the
       uniform kink of ``x`` MPDUs of ``y`` MSDUs has the unrounded value
       ``U(x) = a*x / (o + b*x)``, with ``a = payload*v(y)``,
       ``b = C(y)*T_sym/per_symbol`` and ``o`` the regime's per-cycle
       overhead plus ``tail*T_sym/per_symbol``.  ``U`` never falls as ``x``
       grows, so the kinks whose ``U`` reaches ``best`` form one interval of
       ``x`` per ``y`` and regime, up to the widest kink that fits.  Its
       lower end, ``best*o / (a - best*b)``, is taken with twice the slack,
       so float error cannot drop a kink that reaches ``best``.  Only these
       kinks are scored.
    3. With rounding, a segment is searched when its bound reaches the best
       kink or cap value, i.e. when the float ``U`` of one of its ends does;
       only a scored kink or a cap can be such an end.  Whatever its slope:
       a falling segment's candidates score at most its left kink, with more MSDUs.

    Why this is exact: the rounded value never exceeds the unrounded one (a
    ceiling only lengthens the airtime, also in floats), so a kink left out
    scores strictly below ``best``.  It can neither win nor tie, the best
    kink or cap value is unchanged, and it never makes a segment searched.
    The segments searched, the candidates that can reach the maximum and
    hence the tie-break are the same as when every kink is scored.  This
    needs ``best`` at or above ``_PRUNE_FLOOR``, where the slack covers float
    error: below it nothing is pruned, every kink or segment is scored.

    Past the peak of ``v`` no MSDU adds goodput, so ``y`` stops at ``y*``
    (``_peak``), however far a lifted ``max_mpdu_bytes`` lets it run.  For
    BER > 0 the ratio ``v(y+1)/v(y) = (1 + 1/y)*q^s``, ``q = 1 - BER``,
    falls as ``y`` grows; it is at most ``1/(1 + delta)`` from the smallest
    integer above ``1/expm1(t - log1p(delta))``, ``t = -s*log q``, on.  That
    integer, or the next, is ``y*`` if the ``v`` table's doubles meet
    ``v(y*+1)*(1 + delta) <= v(y*)`` with ``v(y*)`` normal; otherwise, or
    when ``t <= log1p(delta)``, nothing is cut.  A plan of ``x`` MPDUs and
    more than ``x*y*`` MSDUs then scores no higher, as a double, than the
    kink ``(x, x*y*)``, which has fewer MSDUs, so it can neither win nor win
    a tie.  Its airtime is no shorter, also in floats (every float operation
    is monotone), and its goodput is no larger:

    - If ``n`` of its MPDUs carry ``y* + 1`` MSDUs and the rest ``y*``, its
      goodput is below the kink's by ``n*(v(y*) - v(y*+1))``: in the table's
      doubles about ``delta/(1 + delta)/x`` of it or more, less ``2u`` for
      the test's own rounding, ``u = 2^-53``.  The two sums round by at most
      ``3u`` together, and ``delta = max(_BOUND_SLACK, 16u*x_cap)`` leaves
      more than ``5u`` while ``x_cap < 2^50``, which every search that fits
      in memory meets: its caps alone take ``8*x_cap`` bytes.  One MSDU's
      drop is shared by every MPDU of the plan, so the ``x_cap`` term binds
      above about a million MPDUs.
    - If every MPDU carries ``y* + 1`` or more, each ``v`` is below ``v(y*)``
      by the factor ``1 + delta`` or more in real arithmetic.  A table double
      errs by less than ``(|e| + 2)*u`` for its exponent ``e = C(y)*log q``,
      which is above ``-753`` at ``y*`` (``v(y*)`` is normal) and falls by
      ``t < 753`` per MSDU, while ``v`` falls by at least ``1 + 1e-9``: the
      errors stay far below ``delta``.

    A batch stops ``y`` at the largest ``y*`` of its channels, and a reliable
    channel, whose ``v`` never falls, stops none: every channel searches at
    least up to its own ``y*``, and the union argument below covers the rest.

    Every candidate is scored with ``Link.scores``, whose value is the
    expression ``Link.throughput`` takes from ``Link.airtime``, under the
    ``Link``'s ``y_cap`` and ``bit_cap``, the limits ``is_feasible`` checks;
    the lowest ``(x, M)`` among the maxima wins.

    ``optimize_exact_batch`` runs this search for each MCS of one flavor and
    MSDU size, for one or more channels (BERs) at once, and this function is
    its batch of one.  A plan's airtime does not depend on the channel, only
    its goodput does, so each candidate is generated and timed once and
    scored per channel, with that channel's ``v(y)``.  Three more arguments
    keep every channel's result the one it gets alone:

    - Union.  Each channel is scored over the union of all the channels'
      candidates: each kink interval reaches down to the lowest lower end of
      any channel (a channel none of whose kinks reach its ``best`` has no
      lower end and widens nothing), and a segment is searched when it is
      for any channel.  ``best`` and the best kink or cap value stay per
      channel.  Every extra candidate is a feasible plan, so it can neither
      beat the channel's lowest maximizer nor tie it with a smaller
      ``(x, M)``: the channel's maximum and tie-break are unchanged.
    - Seed.  With two or more channels, step 1 also scores the widest
      uniform kink of each ``y`` and regime, in the caps' ``Link.scores``
      call, and ``best`` is the largest of these and the caps.  Without it
      the union is as wide as the widest channel's interval.  A seed is a
      feasible plan, so ``best`` still never exceeds the channel's maximum,
      and a kink left out still scores below it: the argument above holds
      as it stands.  A batch of one has no union to narrow and is not
      seeded: seeding every search ran small single searches 3.6-4.6 %
      slower.  Without the seed the default sweep scores 379 141
      candidates, not 90 767 (``scripts/compare.py``).
    - Rates.  Each MCS is searched on its own over every BER of the call.
      Nothing crosses MCSs but values with no rate in them: the ``v`` rows,
      ``y`` and ``C(y)``, sliced to the MCS's ``ym``.  So each MCS scores the
      candidates of its own search, the same doubles.
    """
    result = optimize_exact_batch([scenario], config, overhead)[0]
    if result is None:
        raise NoFeasiblePlanError("scenario admits no transmission")
    return result


def optimize_exact_batch(
    scenarios: Sequence[Scenario],
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
    *,
    round_symbols: bool = True,
) -> tuple:
    """``optimize_exact`` of every scenario, None where its MCS admits no plan; one flavor and MSDU size.

    The search ``optimize_exact`` argues, per MCS over every BER of the call.
    ``round_symbols`` goes to ``Link.of`` for one scenario of each MCS, whose
    other BERs are its ``channel``; a 64-bit overflow at any MCS raises for all.
    """
    if len({(s.flavor, s.msdu_len) for s in scenarios}) != 1:
        raise ValueError("one search call takes one or more scenarios of one flavor and MSDU size")
    bers = {s.ber: None for s in scenarios}   # the channels of every MCS, in this order
    found = {}   # MCS -> BER -> result; None where the MCS admits no plan
    live = []   # per MCS that admits a plan: it, its channels' links, bit_cap, x_cap and ym
    ym_all = 0
    for scenario in scenarios:
        if scenario.mcs in found:
            continue
        found[scenario.mcs] = None
        link = Link.of(scenario, config, overhead, round_symbols=round_symbols)
        c0, step = link.c0, link.step
        # no plan within the frame-count and MPDU-size caps has a larger PSDU, so
        # this cap changes no verdict; it keeps a huge time limit's budget in int64
        bit_cap = min(link.bit_cap, config.max_mpdus * (c0 + step * link.y_cap))
        x_cap = min(config.max_mpdus, bit_cap // (c0 + step))
        # no MPDU of a feasible plan holds more MSDUs than fit the budget alone
        ym = min(link.y_cap, (bit_cap - c0) // step)
        if min(x_cap, ym) < 1:
            continue
        if bit_cap + link.tail_bits >= 2**63 or round_symbols and link.symbols(bit_cap) >= 2**63:
            raise ValueError("the PSDU budget overflows 64-bit counts: ppdu_time_limit, max_mpdus, "
                             "max_mpdu_bytes or service_tail_bits too large, or symbol_time too short")
        links = [link if ber == scenario.ber else link.channel(ber) for ber in bers]
        # no y past the peak of v of every channel (optimize_exact argues delta; a reliable channel has no peak)
        delta = max(_BOUND_SLACK, 2.0**-49 * x_cap)   # 16 units of 2^-53 per MPDU
        lift = math.log1p(delta)
        ym = min(ym, max(_peak(each, delta, lift, ym) for each in links))
        live.append((scenario.mcs, links, bit_cap, x_cap, ym))
        ym_all = max(ym_all, ym)
    if not live:
        return (None,) * len(scenarios)

    # built once to the largest ym, sliced to each MCS's (Rates): v(y) for y = 0..ym+1, one row per channel
    # (index ym+1 only keeps lookups in bounds: a zero count multiplies it), and y and C(y) for y = 1..ym.
    # Every lookup and every score has a leading channel axis, also for one channel.
    link = live[0][1][0]
    v = functools.partial(np.array([each.v_table(ym_all + 2) for each in live[0][1]]).take, axis=1)
    ys = np.arange(1, ym_all + 1, dtype=np.int64)
    c = link.c0 + link.step * ys
    v_ys = v(ys)
    for mcs, links, bit_cap, x_cap, ym in live:
        found[mcs] = dict(zip(bers, _search(links, bit_cap, x_cap, ym, v, ys[:ym], c[:ym], v_ys[:, :ym])))
    return tuple(found[s.mcs] and found[s.mcs][s.ber] for s in scenarios)


def _search(links, bit_cap, x_cap, ym, v, ys, c, v_ys):
    """Steps 1-3 and the pick of ``optimize_exact`` for one MCS: the result of each channel of ``links``.

    ``ys``, ``c`` and ``v_ys`` hold ``y``, ``C(y)`` and ``v(y)`` for ``y = 1..ym``.
    """
    link = links[0]
    c0, step, config = link.c0, link.step, link.config
    slack = 1.0 + _BOUND_SLACK

    # 1. the cap M_max(x) of every x and, with two or more channels, the seed: the widest
    # uniform kink of each y and regime (90 767 sweep candidates, not 379 141), in one call
    xs = np.arange(1, x_cap + 1, dtype=np.int64)
    m_max = np.minimum(xs * ym, (bit_cap - c0 * xs) // step)
    x_top = np.minimum(x_cap, bit_cap // c)   # the widest uniform plan of each y
    x1, m1 = xs, m_max   # step 1's plans: the caps, then the seed
    if len(links) > 1:
        wide = x_top > BA64_FRAMES
        x1 = np.concatenate((xs, np.minimum(x_top, BA64_FRAMES), x_top[wide]))
        m1 = np.concatenate((m_max, x1[x_cap:] * np.concatenate((ys, ys[wide]))))
    thr, u = link.scores(x1, m1, v)
    cap_thr, cap_u = thr[:, :x_cap], u[:, :x_cap]
    t_bit = config.symbol_time / link.per_symbol
    tail_time = link.tail_bits * t_bit
    o = (link.overhead_ba64 + tail_time, link.overhead_full + tail_time)
    best = thr.max(axis=1, keepdims=True)
    best[best < _PRUNE_FLOOR] = 0.0   # every kink reaches a zero best
    with np.errstate(over="ignore"):   # inf is the right lower end; an overflow-free form divides by best or d
        best_o, best_b = best[..., None] * o, best * t_bit
    unreached = np.where(best > 0, np.nan, np.inf)[..., None]   # 0/inf = 0; a -1 best casts -inf and warns

    # 2. per y (rows) and block-ack regime (columns), the x from the closed-form
    # lower end up to the widest uniform plan of y
    x_top = x_top[:, None]
    # d = a*(1 + 2*_BOUND_SLACK) - best*b; where it is not positive no kink
    # reaches a positive best, while a zero best is reached by every kink
    d = (v_ys * (link.payload_bits * (1.0 + 2 * _BOUND_SLACK)) - best_b * c)[..., None]
    # the lowest lower end of any channel; fmin skips the NaN of a channel
    # none of whose kinks reach its best
    x_lo = np.fmin.reduce(best_o / np.where(d > 0, d, unreached), axis=0)
    lo = np.maximum((1, BA64_FRAMES + 1), np.fmin(x_lo, x_top + 1).astype(np.int64))
    counts = np.maximum(0, np.minimum((BA64_FRAMES, x_cap), x_top) - lo + 1)
    kx = _ranges(lo.ravel(), counts.ravel())
    ky = ys.repeat(counts.sum(axis=1))
    km = kx * ky
    k_thr, ku = link.scores(kx, km, v)
    cand_x, cand_m, cand_thr = [xs, kx], [m_max, km], [cap_thr, k_thr]

    if link.round_symbols:   # unrounded the ends hold the maximum (a search: 39 669 sweep candidates, not 22 728)
        # 3. segment (x, y) runs from M = x*y to the next kink or the cap, and is searched only if
        # the unrounded value of one end reaches the best kink or cap value of some channel (reach;
        # best alone would score 6127, not 1071, candidates per grid search)
        reach = np.maximum(best, k_thr.max(axis=1, keepdims=True, initial=-np.inf))
        reach[reach < _PRUNE_FLOOR] = -np.inf   # every segment reaches it
        k_end = (ku * slack >= reach).any(axis=0)
        key = kx * (ym + 1) + ky
        key = np.concatenate((
            key[k_end],                                                            # from a kink
            key[k_end & (ky > 1)] - 1,                                             # to a kink
            (xs * (ym + 1) + m_max // xs)[(cap_u * slack >= reach).any(axis=0)],   # to a cap
        ))
        key.sort()   # without the dedupe: 4 calls fewer, 8.5 % more sweep candidates, a slower sweep
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        sx, y = np.divmod(key[first], ym + 1)
        lo = sx * y
        hi = np.minimum(lo + sx, m_max[sx - 1])
        # one candidate per symbol count s the segment spans: the last M that fits s
        s_lo = link.symbols(link.psdu_bits(sx, lo)).astype(np.int64)
        counts = link.symbols(link.psdu_bits(sx, hi)).astype(np.int64) - s_lo
        rx = sx.repeat(counts)
        s = _ranges(s_lo, counts)
        m = np.floor((s * link.per_symbol - link.tail_bits - c0 * rx) / step).astype(np.int64)
        # settle float error against the expression the score uses
        m += link.symbols(link.psdu_bits(rx, m + 1)) <= s
        m -= link.symbols(link.psdu_bits(rx, m)) > s
        m = m.clip(lo.repeat(counts), hi.repeat(counts) - 1)
        cand_x.append(rx)
        cand_m.append(m)
        cand_thr.append(link.scores(rx, m, v)[0])

    xs_c, ms_c, thr = (np.concatenate(a, axis=-1) for a in (cand_x, cand_m, cand_thr))
    # per channel: the highest score, then the fewest MPDUs, then MSDUs (one int64 key can overflow)
    top = thr == thr.max(axis=1, keepdims=True)
    best_x = np.where(top, xs_c, x_cap).min(axis=1)
    best_m = np.where(top & (xs_c == best_x[:, None]), ms_c, bit_cap).min(axis=1)
    return [
        each.throughput(AggregationPlan(x, m // x, m % x))
        for each, x, m in zip(links, best_x.tolist(), best_m.tolist())
    ]


class MonteCarloResult(NamedTuple):
    throughput: float   # Mbps
    std_error: float    # standard error of the throughput estimate


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
    cycle_time = link.airtime(plan).cycle_time
    rng = np.random.default_rng(seed)

    delivered = np.zeros(cycles, dtype=np.int64)
    for y, count in plan.mpdu_groups():
        p = success_probability(scenario.ber, link.c0 + link.step * y)
        successes = rng.binomial(count, p, size=cycles) if scenario.ber else count
        delivered += successes * (8 * scenario.msdu_len * y)

    mean_bits = delivered.mean()
    thr = mean_bits / cycle_time
    if cycles > 1:
        se = delivered.std(ddof=1) / math.sqrt(cycles) / cycle_time
    else:
        se = 0.0
    return MonteCarloResult(float(thr), float(se))
