"""Protocol, channel and overhead constants for the aggregation model.

Durations are microseconds, sizes bytes and PHY rates Mbps unless a name
says otherwise.  Mbps and bits/us are the same unit, which keeps all the
airtime arithmetic free of conversion factors.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional


class UnsupportedMcsError(ValueError):
    """The MCS index has no PHY rate for the selected protocol."""


class ProtocolFlavor(enum.Enum):
    """802.11ac, or 802.11ax with a 64- or 256-frame acknowledgment window."""

    AC64 = "ac64"
    AX64 = "ax64"
    AX256 = "ax256"

    @classmethod
    def parse(cls, name: str) -> "ProtocolFlavor":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown protocol flavor {name!r}; expected one of "
                f"{', '.join(f.value for f in cls)}"
            ) from None


# Frames one block ack with a 64-bit bitmap acknowledges.
BA64_FRAMES = 64

# PHY rates for a 160 MHz channel, 4 spatial streams, 0.8 us guard interval.
AC_MCS_RATES = (234.0, 468.0, 702.0, 936.0, 1404.0, 1872.0, 2106.0, 2340.0, 2808.0, 3120.0)
AX_MCS_RATES = (288.0, 576.0, 864.0, 1152.0, 1729.0, 2305.0, 2594.0, 2882.0, 3458.0, 3843.0, 4323.0, 4803.0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-flavor PHY/MAC constants.

    The channel width, the number of spatial streams and the guard interval
    reach the model only through ``symbol_time``, ``preamble`` and
    ``mcs_rates``; the defaults hold the values for 160 MHz, 4 streams and a
    0.8 us guard interval.  Another guard interval or stream count is
    modelled by overriding those three.
    """

    flavor: ProtocolFlavor
    symbol_time: float            # OFDM symbol incl. guard interval [us]
    preamble: float               # PHY preamble [us]
    max_mpdus: int                # A-MPDU frame-count cap (ack window size)
    max_mpdu_bytes: int
    max_psdu_bytes: Optional[int]  # None = no A-MPDU byte cap
    ppdu_time_limit: float        # preamble + data symbols [us]
    back_duration: float          # block-ack frame airtime, full window [us]
    back64_duration: float        # block-ack airtime, 64-frame bitmap [us]
    mcs_rates: tuple[float, ...]  # Mbps, indexed by MCS

    def __post_init__(self):
        object.__setattr__(self, "mcs_rates", tuple(self.mcs_rates))  # immutable, as the frozen config is
        if not self.mcs_rates:
            raise ValueError("mcs_rates must not be empty")
        if not all(math.isfinite(r) and r > 0 for r in self.mcs_rates):
            raise ValueError("mcs_rates must be finite and > 0")
        if any(b <= a for a, b in zip(self.mcs_rates, self.mcs_rates[1:])):
            raise ValueError("mcs_rates must be strictly increasing")
        _check_numbers(self, int_min=1)   # every integer here is a cap
        if self.symbol_time <= 0:
            raise ValueError("symbol_time must be > 0")


@dataclass(frozen=True)
class OverheadConfig:
    """Per-cycle time overheads and per-MPDU/MSDU byte overheads.

    AIFS, mean backoff and SIFS carry conventional EDCA best-effort values
    (SIFS 16 us, AIFS = SIFS + 2 slots, mean backoff 7.5 slots of 9 us),
    not values taken from the paper; all are configurable.  None of the
    published crossover figures depend on AIFS or backoff, but the headline
    gains do: a mean backoff of 9 us instead of 67.5 us lowers the largest
    lossy-channel (BER 1e-5) gain of ax256 over ac64 from 54 % to 48 %.
    """

    aifs: float = 34.0            # [us]
    backoff: float = 67.5         # mean random backoff [us]
    sifs: float = 16.0            # [us]
    mpdu_delimiter: int = 4       # bytes
    mac_header: int = 28          # bytes
    fcs: int = 4                  # bytes
    msdu_subheader: int = 14      # bytes
    service_tail_bits: int = 22   # SERVICE + TAIL added to every PPDU

    def __post_init__(self):
        _check_numbers(self, int_min=0)

    @property
    def mpdu_overhead_bytes(self) -> int:
        """Per-MPDU byte overhead: delimiter + MAC header + FCS."""
        return self.mpdu_delimiter + self.mac_header + self.fcs


# Every field an override can set, all but the flavor, with its class and
# declared type: the type decides how ``apply_overrides`` reads a value
# (``_READERS``) and how ``_check_numbers`` checks it.
_SETTINGS = {
    f.name: (cls, f.type)
    for cls in (ProtocolConfig, OverheadConfig) for f in fields(cls) if f.name != "flavor"
}
_NUMBERS = {  # per class, each number field and its type
    cls: tuple((n, k) for n, (c, k) in _SETTINGS.items() if c is cls and k != "tuple[float, ...]")
    for cls in (ProtocolConfig, OverheadConfig)
}


def _check_numbers(obj, int_min: int) -> None:
    """Each number of ``obj`` is finite and >= 0, an integer one >= ``int_min``; None where Optional."""
    for name, kind in _NUMBERS[type(obj)]:
        value = getattr(obj, name)
        low = 0 if kind == "float" else int_min
        if not (value is None and kind == "Optional[int]" or low <= value < math.inf):
            raise ValueError(f"{name} must be finite and >= {low}, got {value}")


DEFAULT_OVERHEAD = OverheadConfig()

# The 11ax preamble exceeds the 11ac one by one long-training field per
# spatial stream: S * (7.2 - 4.0) us.  With S = 4 that puts the 11ac
# preamble at 64.8 - 12.8 = 52.0 us.
_AX_PREAMBLE = 64.8
_AC_PREAMBLE = 52.0


# Every flavor's default; one row per flavor, then the values all three share.
_FLAVOR_FIELDS = ("symbol_time", "preamble", "max_mpdus", "max_psdu_bytes", "back_duration", "mcs_rates")
_FLAVOR_DEFAULTS = {
    ProtocolFlavor.AC64: (4.0, _AC_PREAMBLE, 64, 1048575, 31.0, AC_MCS_RATES),
    ProtocolFlavor.AX64: (13.6, _AX_PREAMBLE, 64, None, 31.0, AX_MCS_RATES),
    ProtocolFlavor.AX256: (13.6, _AX_PREAMBLE, 256, None, 39.0, AX_MCS_RATES),
}
_SHARED_DEFAULTS = {"max_mpdu_bytes": 11454, "ppdu_time_limit": 5400.0, "back64_duration": 31.0}


def default_config(flavor: ProtocolFlavor) -> ProtocolConfig:
    """Baseline configuration: 160 MHz, 4 spatial streams, 0.8 us GI.

    The streams and the guard interval are folded into ``symbol_time``,
    ``preamble`` and ``mcs_rates``; override those three to model another
    guard interval or stream count.
    """
    try:
        row = _FLAVOR_DEFAULTS[flavor]
    except KeyError:
        raise ValueError(f"unknown flavor: {flavor!r}") from None
    return ProtocolConfig(flavor=flavor, **dict(zip(_FLAVOR_FIELDS, row)), **_SHARED_DEFAULTS)


def phy_rate(config: ProtocolConfig, mcs: int) -> float:
    """PHY rate in Mbps (== bits/us) for an MCS index."""
    if not 0 <= mcs < len(config.mcs_rates):
        raise UnsupportedMcsError(
            f"unsupported MCS {mcs} for protocol {config.flavor.value}"
        )
    return config.mcs_rates[mcs]


def block_ack_duration(config: ProtocolConfig, mpdus: Optional[int] = None) -> float:
    """Airtime of the block ack that closes an exchange of ``mpdus`` MPDUs [us].

    A window wider than ``BA64_FRAMES`` frames acknowledges an exchange of
    at most ``BA64_FRAMES`` MPDUs with the 64-frame bitmap
    (``back64_duration``).  Larger exchanges, windows of at most 64 frames
    and ``mpdus=None`` (the full window) pay ``back_duration``.
    """
    if mpdus is not None and mpdus <= BA64_FRAMES < config.max_mpdus:
        return config.back64_duration
    return config.back_duration


def cycle_overhead(
    config: ProtocolConfig,
    overhead: OverheadConfig = DEFAULT_OVERHEAD,
    mpdus: Optional[int] = None,
) -> float:
    """Fixed per-cycle airtime: AIFS + backoff + preamble + SIFS + block ack [us].

    The block ack is the one for ``mpdus`` MPDUs (see ``block_ack_duration``);
    without ``mpdus`` it is the full-window one.
    """
    total = (
        overhead.aifs + overhead.backoff + config.preamble + overhead.sifs
        + block_ack_duration(config, mpdus)
    )
    if total == math.inf:
        raise ValueError("aifs + backoff + preamble + sifs + block ack overflows")
    return total


@dataclass(frozen=True)
class Scenario:
    """One evaluation point: protocol flavor, MCS, channel BER, MSDU payload size."""

    flavor: ProtocolFlavor
    mcs: int
    ber: float
    msdu_len: int

    def __post_init__(self):
        # stored as Python ints, so frame sizes stay exact integer arithmetic
        for name in ("mcs", "msdu_len"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if not 0.0 <= self.ber < 1.0:
            raise ValueError(f"bit error rate must lie in [0, 1), got {self.ber}")
        if self.msdu_len < 1:
            raise ValueError("msdu_len must be >= 1 byte")
        if self.mcs < 0:
            raise ValueError("mcs must be >= 0")


# ---------------------------------------------------------------------------
# Flat key=value configuration overrides.

def parse_override_text(text: str) -> dict:
    """Parse an override file: one ``key = value`` per line.

    '#' starts a comment and blank lines are ignored.  Keys are the numeric
    fields of ``ProtocolConfig`` and ``OverheadConfig``; values stay strings
    here and are checked by ``apply_overrides``.  Each key may appear only
    once.  ``none`` is the one spelling of "no cap" for ``max_psdu_bytes``.
    Example::

        ppdu_time_limit = 5484     # [us]
        max_mpdus = 256
        mcs_rates = 288, 576, 864
        max_psdu_bytes = none
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key}")
        out[key] = value.strip()
    return out


def load_override_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_override_text(fh.read())
    except OSError as exc:   # a file that cannot be read is a configuration error
        raise ValueError(str(exc)) from None


def _coerce(key: str, value, kind):
    """``value`` as ``kind``; an integer field takes whole numbers only."""
    try:
        if kind is float or isinstance(value, int):
            return kind(value)
        number = float(value)
        if number.is_integer():
            return int(number)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"invalid value for {key}: {value!r}")


def _items(value):
    """A comma-separated string as its non-blank items; a sequence as it is."""
    return [v for v in value.split(",") if v.strip()] if isinstance(value, str) else value


# How a setting or a ``report.SweepGrid`` list is read, per declared type (``none``: no cap)
_READERS = {
    "float": lambda key, value: _coerce(key, value, float),
    "int": lambda key, value: _coerce(key, value, int),
    "Optional[int]": lambda key, value: None if str(value).lower() == "none" else _coerce(key, value, int),
    "tuple[float, ...]": lambda key, value: tuple(_coerce(key, v, float) for v in _items(value)),
    "tuple[int, ...]": lambda key, value: tuple(_coerce(key, v, int) for v in _items(value)),
    "tuple[ProtocolFlavor, ...]": lambda key, value: tuple(map(ProtocolFlavor.parse, _items(value))),
}


def apply_overrides(
    config: ProtocolConfig,
    overhead: OverheadConfig,
    overrides: Mapping,
) -> tuple[ProtocolConfig, OverheadConfig]:
    """Apply flat overrides to a protocol config and an overhead config.

    Every field of either dataclass but the flavor can be overridden by
    name.  Values may be strings, as ``parse_override_text`` returns them,
    or numbers.  A float field takes any number; an integer field takes
    whole numbers only, in any float spelling (``64``, ``64.0`` and ``1e3``
    are accepted, ``2.7`` is rejected).  ``mcs_rates`` takes a
    comma-separated list and ``max_psdu_bytes`` takes ``none``, its only
    spelling of no cap.  Unknown keys and malformed values raise
    ``ValueError``, as do values the dataclasses reject.
    """
    changes = {ProtocolConfig: {}, OverheadConfig: {}}
    for key, value in overrides.items():
        try:
            cls, kind = _SETTINGS[key]
        except KeyError:
            raise ValueError(f"unknown configuration key: {key}") from None
        changes[cls][key] = _READERS[kind](key, value)
    if changes[ProtocolConfig]:
        config = replace(config, **changes[ProtocolConfig])
    if changes[OverheadConfig]:
        overhead = replace(overhead, **changes[OverheadConfig])
    return config, overhead


def resolve_config(
    flavor: ProtocolFlavor,
    overrides: Optional[Mapping] = None,
) -> tuple[ProtocolConfig, OverheadConfig]:
    """The default configuration of ``flavor`` with ``overrides`` applied."""
    config, overhead = default_config(flavor), DEFAULT_OVERHEAD
    if overrides:
        config, overhead = apply_overrides(config, overhead, overrides)
    return config, overhead
