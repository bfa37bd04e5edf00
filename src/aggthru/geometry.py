"""Frame sizing, airtime arithmetic and limit checks for two-level A-MPDU aggregation.

An A-MPDU carries ``x`` MPDUs; MPDU ``i`` carries ``y_i`` MSDUs.  Each MSDU
is prefixed by a subheader and padded to a 4-byte boundary, each MPDU adds
delimiter + MAC header + FCS and is itself padded to 4 bytes, and the whole
PSDU is sent as whole OFDM symbols after a fixed preamble.  A ``Link`` holds
everything a plan's cost depends on for one scenario; the kernel, the
airtime, the limit checks and the optimizer all use it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .params import (
    BA64_FRAMES,
    DEFAULT_OVERHEAD,
    OverheadConfig,
    ProtocolConfig,
    Scenario,
    cycle_overhead,
    phy_rate,
)


class MsduTooLargeError(ValueError):
    """MSDU does not fit in one MPDU."""


def success_probability(ber: float, bits) -> float:
    """Probability that ``bits`` consecutive bits all arrive intact."""
    if ber == 0:
        return 1.0
    return math.exp(bits * math.log1p(-ber))


@dataclass(frozen=True)
class MsduSlot:
    """The padded on-air size of an MSDU."""

    padded_len: int    # subheader + payload, 4-byte aligned

    @classmethod
    def for_payload(cls, payload_len: int, overhead: OverheadConfig = DEFAULT_OVERHEAD) -> "MsduSlot":
        raw = payload_len + overhead.msdu_subheader
        return cls(4 * ((raw + 3) // 4))


def mpdu_bytes(y: int, msdu: MsduSlot, overhead: OverheadConfig = DEFAULT_OVERHEAD) -> int:
    """On-air size of one MPDU holding ``y`` MSDUs, 4-byte aligned [bytes]."""
    if y < 0:
        raise ValueError("y must be >= 0")
    raw = overhead.mpdu_overhead_bytes + y * msdu.padded_len
    return 4 * ((raw + 3) // 4)


def mpdu_bits(y: int, msdu: MsduSlot, overhead: OverheadConfig = DEFAULT_OVERHEAD) -> int:
    """On-air size of one MPDU holding ``y`` MSDUs [bits]."""
    return 8 * mpdu_bytes(y, msdu, overhead)


def y_max(msdu: MsduSlot, overhead: OverheadConfig, config: ProtocolConfig) -> int:
    """Largest MSDU count that keeps one MPDU within the MPDU byte cap.

    The padded MSDUs are 4-byte aligned, so ``mpdu_bytes(y)`` is
    ``mpdu_bytes(0) + y * padded_len``: the aligned empty MPDU, not the raw
    per-MPDU overhead, is what the MSDUs add to.
    """
    budget = config.max_mpdu_bytes - mpdu_bytes(0, msdu, overhead)
    if msdu.padded_len > budget:
        raise MsduTooLargeError(
            f"MSDU does not fit in one MPDU: {msdu.padded_len} padded bytes, "
            f"{budget} available"
        )
    return budget // msdu.padded_len


# Every kernel call takes a plan: slots make this frozen value cheaper to construct.
@dataclass(frozen=True, slots=True)
class AggregationPlan:
    """``x`` MPDUs; ``n_extra`` of them carry ``y_base + 1`` MSDUs, the rest ``y_base``.

    Per-MPDU MSDU counts therefore differ by at most one.
    """

    x: int
    y_base: int
    n_extra: int = 0

    def __post_init__(self):
        if self.x < 1:
            raise ValueError("plan needs at least one MPDU")
        if not 0 <= self.n_extra < self.x:
            raise ValueError("n_extra must lie in [0, x)")
        if self.y_base < 0:
            raise ValueError("y_base must be >= 0")
        if self.y_base == 0 and self.n_extra == 0:
            raise ValueError("plan carries no MSDUs")

    @property
    def total_msdus(self) -> int:
        return self.x * self.y_base + self.n_extra

    def mpdu_groups(self) -> tuple:
        """(msdus_per_mpdu, mpdu_count) pairs with nonzero counts."""
        groups = []
        if self.n_extra:
            groups.append((self.y_base + 1, self.n_extra))
        if self.x - self.n_extra:
            groups.append((self.y_base, self.x - self.n_extra))
        return tuple(groups)


class AirtimeBreakdown(NamedTuple):
    """On-air accounting for one transmission cycle."""

    psdu_bits: int     # sum of all MPDU sizes
    symbols: float     # OFDM symbols (integral unless rounding disabled)
    data_time: float   # symbols * symbol_time [us]
    ppdu_time: float   # preamble + data_time [us]
    cycle_time: float  # per-cycle overhead, with the plan's block ack, + data_time [us]


class Feasibility(enum.Enum):
    """Verdict of the limit checks, in the order they are applied."""

    OK = "ok"
    TOO_MANY_MPDUS = "max_mpdus"
    MPDU_TOO_LARGE = "max_mpdu_bytes"
    PSDU_TOO_LARGE = "max_psdu_bytes"
    TIME_LIMIT_EXCEEDED = "ppdu_time_limit"

    @property
    def ok(self) -> bool:
        return self is Feasibility.OK


# The arguments and result of the last ``Link.of`` call, as one tuple, so a
# reader in another thread never pairs one call's arguments with another's link.
_last_link = (None, None, None, None, None)


@dataclass(frozen=True)
class Link:
    """Everything a plan's cost depends on, for one scenario and configuration.

    Padded MSDUs are 4-byte aligned, so an MPDU of ``y`` MSDUs has
    ``C(y) = c0 + step*y`` bits and a balanced plan of ``x`` MPDUs and
    ``m`` MSDUs a PSDU of ``c0*x + step*m`` bits.  The cycle model is
    written once per shape: ``goodput``, ``overhead`` and ``airtime`` for one
    plan, ``scores`` for arrays of candidates (both symbol modes at once, for
    the optimizer); ``psdu_bits`` and ``symbols`` take ints or numpy arrays
    alike.  ``verdict`` and the optimizer both check a plan against ``y_cap``
    and ``bit_cap``, the largest PSDU within the byte and time limits.
    """

    config: ProtocolConfig
    round_symbols: bool    # whole OFDM symbols, or the continuous approximation
    per_symbol: float      # bits per OFDM symbol
    tail_bits: int         # SERVICE + TAIL bits added to every PSDU
    c0: int                # bits of an MPDU without MSDUs
    step: int              # bits per MSDU
    y_cap: int             # most MSDUs one MPDU may carry (< 1: the MSDU does not fit)
    overhead_ba64: float   # per-cycle overhead [us] for x <= BA64_FRAMES
    overhead_full: float   # per-cycle overhead [us] for x > BA64_FRAMES
    payload_bits: float    # MSDU payload [bits]
    log_q: float           # log(1 - ber): an intact C-bit MPDU has probability exp(C * log_q)

    @classmethod
    def of(
        cls,
        scenario: Scenario,
        config: ProtocolConfig,
        overhead: OverheadConfig = DEFAULT_OVERHEAD,
        *,
        round_symbols: bool = True,
    ) -> "Link":
        """The link of ``scenario`` under ``config``, whose flavor it must share.

        ``round_symbols=False`` replaces the ceiling to whole OFDM symbols by
        exact division, the continuous approximation that bounds the rounding
        error; this is the one place the symbol mode is chosen: no method takes
        a mode of its own.  A caller that repeats its last arguments, the same
        objects (``is``), gets the last link back; any other call builds a new one.
        """
        global _last_link
        last_scenario, last_config, last_overhead, last_round, link = _last_link
        if (
            scenario is last_scenario
            and config is last_config
            and overhead is last_overhead
            and round_symbols is last_round
        ):
            return link
        if scenario.flavor is not config.flavor:
            raise ValueError(
                f"scenario flavor {scenario.flavor.value} does not match "
                f"config flavor {config.flavor.value}"
            )
        msdu = MsduSlot.for_payload(scenario.msdu_len, overhead)
        try:
            y_cap = y_max(msdu, overhead, config)
        except MsduTooLargeError:
            y_cap = 0
        per_symbol = config.symbol_time * phy_rate(config, scenario.mcs)
        if not 0.0 < per_symbol < math.inf:
            raise ValueError(f"symbol_time * mcs_rates[{scenario.mcs}] must be finite and > 0 bits per symbol")
        link = cls(
            config=config,
            round_symbols=round_symbols,
            per_symbol=per_symbol,
            tail_bits=overhead.service_tail_bits,
            c0=mpdu_bits(0, msdu, overhead),
            step=8 * msdu.padded_len,
            y_cap=y_cap,
            overhead_ba64=cycle_overhead(config, overhead, BA64_FRAMES),
            overhead_full=cycle_overhead(config, overhead),
            payload_bits=8.0 * scenario.msdu_len,
            log_q=math.log1p(-scenario.ber),
        )
        _last_link = (scenario, config, overhead, round_symbols, link)
        return link

    def within_time_limit(self, bits) -> bool:
        """Whether the PPDU of a ``bits``-bit PSDU meets ``ppdu_time_limit``."""
        cfg = self.config
        return cfg.preamble + self.symbols(bits) * cfg.symbol_time <= cfg.ppdu_time_limit

    @cached_property
    def bit_cap(self) -> int:
        """Largest PSDU [bits] within ``max_psdu_bytes`` and the time limit (< 0: none)."""
        # start from the closed form, floor((limit - preamble) / symbol_time)
        # symbols (whole when rounding; -1 when the preamble alone overruns)
        # less the tail bits, and settle it against within_time_limit, which is
        # monotone in bits: step out 1, 2, 4, ... bits until lo is within the
        # limit (-1: no PSDU at all) and hi beyond it, then bisect
        cfg = self.config
        span = max(-1.0, (cfg.ppdu_time_limit - cfg.preamble) / cfg.symbol_time)
        if span * self.per_symbol == math.inf:
            raise ValueError("ppdu_time_limit / symbol_time spans more PSDU bits than a float holds")
        if self.round_symbols:
            span = math.floor(span)
        lo = max(-1, math.floor(span * self.per_symbol) - self.tail_bits)
        hi, gap = lo + 1, 1
        while lo >= 0 and not self.within_time_limit(lo):
            lo, hi, gap = max(-1, lo - gap), lo, 2 * gap
        gap = 1
        while self.within_time_limit(hi):
            lo, hi, gap = hi, hi + gap, 2 * gap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.within_time_limit(mid):
                lo = mid
            else:
                hi = mid
        if cfg.max_psdu_bytes is not None:
            lo = min(lo, 8 * cfg.max_psdu_bytes)
        return lo

    def p(self, y: int) -> float:
        """Probability that an MPDU of ``y`` MSDUs arrives intact.

        The same double as ``success_probability(ber, c0 + step*y)``, with
        ``log1p(-ber)`` taken once per link.
        """
        return math.exp((self.c0 + self.step * y) * self.log_q)

    def v(self, y: int) -> float:
        """Expected MSDUs delivered by an MPDU of ``y`` MSDUs."""
        return y * self.p(y)

    def v_table(self, n: int) -> np.ndarray:
        """``v(y)`` for ``y = 0..n-1``, each the same double ``v(y)`` returns."""
        c0, step, log_q = self.c0, self.step, self.log_q
        return np.array([y * math.exp((c0 + step * y) * log_q) for y in range(n)])

    def psdu_bits(self, x, m):
        """PSDU size of ``x`` MPDUs carrying ``m`` MSDUs [bits]."""
        return self.c0 * x + self.step * m

    def symbols(self, bits):
        """OFDM symbols of a ``bits``-bit PSDU, whole ones if the link rounds."""
        raw = (bits + self.tail_bits) / self.per_symbol
        if not self.round_symbols:
            return raw
        # ceil(raw) as a float; nan, which no limit admits, where raw is inf
        return np.ceil(raw) if isinstance(raw, np.ndarray) else -(-raw // 1.0)

    def overhead(self, x: int) -> float:
        """Per-cycle overhead of ``x`` MPDUs [us], with their block ack."""
        return self.overhead_ba64 if x <= BA64_FRAMES else self.overhead_full

    def goodput(self, x: int, m: int) -> float:
        """Expected payload bits per cycle of ``x`` MPDUs carrying ``m`` MSDUs, balanced."""
        y, n = m // x, m % x
        if n:
            return self.payload_bits * (n * self.v(y + 1) + (x - n) * self.v(y))
        return self.payload_bits * (x * self.v(y))

    def scores(self, x, m, v):
        """Throughput of arrays of plans, ``x`` MPDUs carrying ``m`` MSDUs [Mbps], and its bound.

        ``v`` is a lookup into a table of ``Link.v`` (``v_table``), or into
        one row of it per channel.  The throughput is ``goodput`` over the
        ``airtime`` cycle time, the same doubles ``throughput_exact`` takes for
        each plan.  The bound is the same ratio with unrounded symbols, which
        never exceeds the rounded airtime.
        """
        y, n = np.divmod(m, x)
        good = self.payload_bits * (n * v(y + 1) + (x - n) * v(y))
        del y, n   # freed before the airtime arrays are built, to keep the search's peak memory down
        overhead = np.where(x <= BA64_FRAMES, self.overhead_ba64, self.overhead_full)
        raw = (self.psdu_bits(x, m) + self.tail_bits) / self.per_symbol
        bound = good / (overhead + raw * self.config.symbol_time)
        if not self.round_symbols:
            return bound, bound
        return good / (overhead + np.ceil(raw) * self.config.symbol_time), bound

    def airtime(self, plan: AggregationPlan, bits=None) -> AirtimeBreakdown:
        """Airtime of ``plan``, whose PSDU bits a caller may pass in if it has them."""
        if bits is None:
            bits = self.psdu_bits(plan.x, plan.total_msdus)
        symbols = self.symbols(bits)
        data_time = symbols * self.config.symbol_time
        return AirtimeBreakdown(
            bits,
            symbols,
            data_time,
            self.config.preamble + data_time,   # ppdu_time
            self.overhead(plan.x) + data_time,  # cycle_time
        )

    def verdict(self, plan: AggregationPlan, bits=None) -> Feasibility:
        """First violated transmission limit, or OK; ``bits`` as for ``airtime``."""
        cfg = self.config
        if plan.x > cfg.max_mpdus:
            return Feasibility.TOO_MANY_MPDUS
        if plan.y_base + (plan.n_extra > 0) > self.y_cap:
            return Feasibility.MPDU_TOO_LARGE
        if bits is None:
            bits = self.psdu_bits(plan.x, plan.total_msdus)
        if bits <= self.bit_cap:
            return Feasibility.OK
        if cfg.max_psdu_bytes is not None and bits > 8 * cfg.max_psdu_bytes:
            return Feasibility.PSDU_TOO_LARGE
        return Feasibility.TIME_LIMIT_EXCEEDED


def airtime(
    plan: AggregationPlan,
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
) -> AirtimeBreakdown:
    """Airtime of a plan in whole OFDM symbols; makes no feasibility judgment."""
    return Link.of(scenario, config, overhead).airtime(plan)


def is_feasible(
    plan: AggregationPlan,
    scenario: Scenario,
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
) -> Feasibility:
    """First violated transmission limit, or OK."""
    return Link.of(scenario, config, overhead).verdict(plan)
