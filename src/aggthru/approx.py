"""Continuous (rounding-free) throughput model and its closed-form optimum.

Dropping the symbol ceiling, the MPDU padding and the 22 service/tail bits
turns the cycle throughput into a smooth function of the MPDU count ``x``
and the per-MPDU MSDU count ``y``.  On a lossy channel, constraining the
PPDU to fill the whole transmission-time budget leaves a unimodal function
of ``x`` alone, whose maximizer is the positive root of a quadratic.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .geometry import MsduSlot, mpdu_bytes, success_probability, y_max
from .params import BA64_FRAMES, DEFAULT_OVERHEAD, OverheadConfig, ProtocolConfig, cycle_overhead


@dataclass(frozen=True)
class ContinuousScenario:
    """Inputs of the continuous model; real-valued x and y are first-class."""

    rate: float            # PHY rate [Mbps == bits/us]
    ber: float
    msdu_len: int          # payload bytes
    padded_len: int        # subheader + payload, 4-byte aligned [bytes]
    t_limit: float         # PPDU time limit [us]
    preamble: float        # [us]
    o_m_bits: int          # per-MPDU MAC overhead [bits]
    cycle_overhead: float  # fixed per-cycle airtime [us]

    def __post_init__(self):
        if not 0.0 <= self.ber < 1.0:
            raise ValueError(f"bit error rate must lie in [0, 1), got {self.ber}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def budget_bits(self) -> float:
        """Bits the PHY can move in the post-preamble time budget."""
        return self.rate * (self.t_limit - self.preamble)

    @classmethod
    def from_config(
        cls,
        config: ProtocolConfig,
        overhead: OverheadConfig = DEFAULT_OVERHEAD,
        *,
        ber: float,
        msdu_len: int,
        rate: float,
    ) -> "ContinuousScenario":
        return cls(
            rate=rate,
            ber=ber,
            msdu_len=msdu_len,
            padded_len=MsduSlot.for_payload(msdu_len, overhead).padded_len,
            t_limit=config.ppdu_time_limit,
            preamble=config.preamble,
            o_m_bits=8 * overhead.mpdu_overhead_bytes,
            cycle_overhead=cycle_overhead(config, overhead),
        )


def throughput_approx(x: float, y: float, scenario: ContinuousScenario) -> float:
    """Continuous cycle throughput for ``x`` MPDUs of ``y`` MSDUs each [Mbps]."""
    mpdu_bits = scenario.o_m_bits + 8.0 * y * scenario.padded_len
    p = success_probability(scenario.ber, mpdu_bits)
    good = 8.0 * x * y * scenario.msdu_len * p
    air = scenario.cycle_overhead + x * mpdu_bits / scenario.rate
    return good / air


def y_from_x(x: float, scenario: ContinuousScenario) -> float:
    """MSDU count per MPDU that makes ``x`` MPDUs fill the time budget exactly."""
    spare = scenario.budget_bits - x * scenario.o_m_bits
    if spare < 0:
        raise ValueError("x alone exceeds the airtime budget")
    return spare / (x * 8.0 * scenario.padded_len)


def throughput_on_budget(x: float, scenario: ContinuousScenario) -> float:
    """Continuous throughput of ``x`` budget-filling MPDUs [Mbps]."""
    return throughput_approx(x, y_from_x(x, scenario), scenario)


def x_opt_coefficient(ber: float, o_m_bits: int, t_limit: float, preamble: float) -> float:
    """Optimal MPDU count per Mbps of PHY rate, for a lossy channel.

    With a = per-MPDU overhead bits, b = ln(1 - BER) and D = R (T - Pr),
    the budget-filling throughput peaks at X = (b D / 2)(1 - sqrt(1 - 4/(a b))),
    the positive root of a X^2 - a b D X + b D^2 = 0.  X is proportional
    to R, so the coefficient X/R depends only on BER, overhead and budget.
    """
    if not 0.0 < ber < 1.0:
        raise ValueError(f"bit error rate must lie in (0, 1), got {ber}: "
                         "for BER 0 use the reliable-channel crossover, 'crossover --reliable'")
    # compared before converting: an int overhead may be larger than any double
    if not 0 < o_m_bits <= sys.float_info.max:
        shown = f"> {sys.float_info.max:.6g}" if o_m_bits > sys.float_info.max else o_m_bits
        raise ValueError(f"per-MPDU overhead must be finite and > 0 bits, got {shown}")
    a = float(o_m_bits)
    b = math.log1p(-ber)
    span = t_limit - preamble
    coefficient = (b * span / 2.0) * (1.0 - math.sqrt(1.0 - 4.0 / (a * b)))
    # a huge overhead rounds the square root to 1, a huge span overflows
    if not 0.0 < coefficient < math.inf:
        raise ValueError(
            f"optimal MPDUs per Mbps must be finite and > 0, got {coefficient}: "
            "per-MPDU overhead or ppdu_time_limit - preamble out of range"
        )
    return coefficient


def x_opt_closed_form(scenario: ContinuousScenario) -> float:
    """MPDU count maximizing the budget-filling throughput (real-valued)."""
    return scenario.rate * x_opt_coefficient(
        scenario.ber, scenario.o_m_bits, scenario.t_limit, scenario.preamble
    )


def smallest_mcs_at_least(config: ProtocolConfig, rate_threshold: float) -> Optional[int]:
    """Smallest MCS index whose PHY rate reaches the threshold, if any."""
    for index, rate in enumerate(config.mcs_rates):
        if rate >= rate_threshold:
            return index
    return None


class ReliableCrossover(NamedTuple):
    discrete: float     # Mbps, Y capped at its integral maximum
    continuous: float   # Mbps, MPDU filled to the byte cap exactly


def crossover_rate_reliable(
    msdu_len: int,
    overhead: OverheadConfig,
    config: ProtocolConfig,
) -> ReliableCrossover:
    """Largest PHY rate at which ``BA64_FRAMES`` full MPDUs still fill the time budget.

    On an error-free channel every MPDU carries as many MSDUs as fit, so
    beyond this rate a larger acknowledgment window starts to pay off.  The
    continuous variant ignores the integrality of the per-MPDU MSDU count
    and is independent of the MSDU size.
    """
    if msdu_len < 1:
        raise ValueError("msdu_len must be >= 1 byte")
    msdu = MsduSlot.for_payload(msdu_len, overhead)
    full_mpdu = mpdu_bytes(y_max(msdu, overhead, config), msdu, overhead)
    span = config.ppdu_time_limit - config.preamble
    if not span > 0:
        raise ValueError(f"ppdu_time_limit - preamble must be > 0 us, got {span:g}")
    discrete = 8.0 * BA64_FRAMES * full_mpdu / span
    continuous = 8.0 * BA64_FRAMES * config.max_mpdu_bytes / span
    if continuous == math.inf:   # continuous >= discrete
        raise ValueError("crossover rate overflows a double: "
                         "max_mpdu_bytes / (ppdu_time_limit - preamble) too large")
    return ReliableCrossover(discrete, continuous)


@dataclass(frozen=True)
class CrossoverReport:
    """Where the optimal MPDU count outgrows a ``BA64_FRAMES``-frame ack window."""

    ber: float
    x_opt_coefficient: float      # optimal MPDUs per Mbps
    rate_threshold: float         # Mbps where the optimum hits the window
    mcs_crossover: Optional[int]  # smallest MCS at or above the threshold


def crossover_mcs(
    ber: float,
    overhead: OverheadConfig,
    config: ProtocolConfig,
) -> CrossoverReport:
    """Rate and MCS from which the optimum needs more than ``BA64_FRAMES`` MPDUs."""
    coefficient = x_opt_coefficient(
        ber,
        8 * overhead.mpdu_overhead_bytes,
        config.ppdu_time_limit,
        config.preamble,
    )
    threshold = BA64_FRAMES / coefficient
    if threshold == math.inf:
        raise ValueError(f"crossover rate overflows a double: {coefficient:g} optimal MPDUs per Mbps, "
                         "ppdu_time_limit - preamble too small")
    return CrossoverReport(
        ber=ber,
        x_opt_coefficient=coefficient,
        rate_threshold=threshold,
        mcs_crossover=smallest_mcs_at_least(config, threshold),
    )
