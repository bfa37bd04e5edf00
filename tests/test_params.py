from dataclasses import fields, replace

import numpy as np
import pytest

from aggthru import (
    AC_MCS_RATES,
    AX_MCS_RATES,
    DEFAULT_OVERHEAD,
    Link,
    OverheadConfig,
    ProtocolConfig,
    ProtocolFlavor,
    Scenario,
    UnsupportedMcsError,
    apply_overrides,
    block_ack_duration,
    cycle_overhead,
    default_config,
    optimize_exact,
    parse_override_text,
    phy_rate,
    resolve_config,
)

ALL_FLAVORS = tuple(ProtocolFlavor)


def test_default_constants():
    ac = default_config(ProtocolFlavor.AC64)
    ax64 = default_config(ProtocolFlavor.AX64)
    ax256 = default_config(ProtocolFlavor.AX256)

    assert ac.symbol_time == 4.0 and ax64.symbol_time == ax256.symbol_time == 13.6
    assert ac.preamble == 52.0 and ax64.preamble == ax256.preamble == 64.8
    assert (ac.max_mpdus, ax64.max_mpdus, ax256.max_mpdus) == (64, 64, 256)
    assert ac.max_psdu_bytes == 1048575
    assert ax64.max_psdu_bytes is None and ax256.max_psdu_bytes is None
    assert (ac.back_duration, ax64.back_duration, ax256.back_duration) == (31.0, 31.0, 39.0)
    assert ac.back64_duration == ax64.back64_duration == ax256.back64_duration == 31.0
    for cfg in (ac, ax64, ax256):
        assert cfg.max_mpdu_bytes == 11454
        assert cfg.ppdu_time_limit == 5400.0
    assert ac.mcs_rates == AC_MCS_RATES
    assert ax64.mcs_rates == ax256.mcs_rates == AX_MCS_RATES


def test_phy_rate_lookup():
    assert phy_rate(default_config(ProtocolFlavor.AX256), 11) == 4803.0
    assert phy_rate(default_config(ProtocolFlavor.AC64), 0) == 234.0
    assert phy_rate(default_config(ProtocolFlavor.AC64), 3) == 936.0


@pytest.mark.parametrize("mcs", [10, 11, 12, -1])
def test_phy_rate_unsupported(mcs):
    with pytest.raises(UnsupportedMcsError, match="unsupported MCS"):
        phy_rate(default_config(ProtocolFlavor.AC64), mcs)


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
def test_rates_strictly_increasing(flavor):
    rates = default_config(flavor).mcs_rates
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_cycle_overhead_defaults():
    assert cycle_overhead(default_config(ProtocolFlavor.AX256)) == pytest.approx(221.3, abs=1e-12)
    assert cycle_overhead(default_config(ProtocolFlavor.AX64)) == pytest.approx(213.3, abs=1e-12)
    assert cycle_overhead(default_config(ProtocolFlavor.AC64)) == pytest.approx(200.5, abs=1e-12)


def test_cycle_overhead_zero():
    cfg, ovh = apply_overrides(
        default_config(ProtocolFlavor.AX64),
        OverheadConfig(aifs=0.0, backoff=0.0, sifs=0.0),
        {"preamble": 0, "back_duration": 0},
    )
    assert cycle_overhead(cfg, ovh) == 0.0


def test_ack_window_overhead_gap():
    gap = cycle_overhead(default_config(ProtocolFlavor.AX256)) - cycle_overhead(
        default_config(ProtocolFlavor.AX64)
    )
    assert gap == pytest.approx(8.0, abs=1e-12)


def test_block_ack_rule():
    ax256 = default_config(ProtocolFlavor.AX256)
    assert block_ack_duration(ax256, 1) == block_ack_duration(ax256, 64) == 31.0
    assert block_ack_duration(ax256, 65) == block_ack_duration(ax256, 256) == 39.0
    assert block_ack_duration(ax256) == 39.0
    assert cycle_overhead(ax256, DEFAULT_OVERHEAD, 64) == cycle_overhead(
        default_config(ProtocolFlavor.AX64)
    )
    assert cycle_overhead(ax256, DEFAULT_OVERHEAD, 65) == cycle_overhead(ax256)
    # a window of at most 64 frames always pays its own block ack
    narrow, _ = apply_overrides(ax256, DEFAULT_OVERHEAD, {"max_mpdus": 64})
    assert block_ack_duration(narrow, 10) == 39.0
    ax64, _ = apply_overrides(
        default_config(ProtocolFlavor.AX64), DEFAULT_OVERHEAD, {"back_duration": 50}
    )
    assert block_ack_duration(ax64, 10) == 50.0


def test_back64_duration_overrides():
    cfg, _ = apply_overrides(
        default_config(ProtocolFlavor.AX256), DEFAULT_OVERHEAD, {"back64_duration": "27.5"}
    )
    assert (cfg.back64_duration, cfg.back_duration) == (27.5, 39.0)
    assert block_ack_duration(cfg, 64) == 27.5
    with pytest.raises(ValueError, match="back64_duration"):
        apply_overrides(cfg, DEFAULT_OVERHEAD, {"back64_duration": -1})


def test_preamble_gap_is_per_stream_ltf():
    ax = default_config(ProtocolFlavor.AX256)
    ac = default_config(ProtocolFlavor.AC64)
    assert ax.preamble - ac.preamble == pytest.approx(4 * 3.2, abs=1e-12)


def test_mpdu_overhead_bytes():
    assert DEFAULT_OVERHEAD.mpdu_overhead_bytes == 36
    assert DEFAULT_OVERHEAD.msdu_subheader == 14
    assert DEFAULT_OVERHEAD.service_tail_bits == 22


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ber": 1.0},
        {"ber": -0.1},
        {"msdu_len": 0},
        {"mcs": -1},
    ],
)
def test_scenario_rejects_bad_inputs(kwargs):
    base = dict(flavor=ProtocolFlavor.AX256, mcs=5, ber=1e-6, msdu_len=1500)
    base.update(kwargs)
    with pytest.raises(ValueError):
        Scenario(**base)


@pytest.mark.parametrize("field", ["mcs", "msdu_len"])
def test_scenario_rejects_float_counts(field):
    base = dict(flavor=ProtocolFlavor.AX256, mcs=5, ber=1e-6, msdu_len=512)
    base[field] = float(base[field])
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        Scenario(**base)


def test_scenario_stores_python_ints():
    sc = Scenario(ProtocolFlavor.AX256, np.int64(5), 1e-6, np.int32(512))
    assert type(sc.mcs) is int and type(sc.msdu_len) is int
    assert sc == Scenario(ProtocolFlavor.AX256, 5, 1e-6, 512)


def test_scenario_accepts_zero_ber():
    sc = Scenario(ProtocolFlavor.AC64, 0, 0.0, 64)
    assert sc.ber == 0.0


def test_config_takes_a_list_of_rates():
    cfg = replace(default_config(ProtocolFlavor.AC64), mcs_rates=list(AC_MCS_RATES))
    assert cfg.mcs_rates == AC_MCS_RATES and hash(cfg) == hash(default_config(ProtocolFlavor.AC64))


def test_config_validation():
    ac = default_config(ProtocolFlavor.AC64)
    with pytest.raises(ValueError, match="strictly increasing"):
        replace(ac, mcs_rates=[100.0, 100.0])
    with pytest.raises(ValueError, match=">= 0"):
        replace(ac, preamble=-1.0)


def test_parse_override_text():
    text = """
    # overrides
    sifs = 10        # trailing comment
    max_mpdus=128
    mcs_rates = 100, 200, 300
    max_psdu_bytes = none
    """
    parsed = parse_override_text(text)
    assert parsed == {
        "sifs": "10",
        "max_mpdus": "128",
        "mcs_rates": "100, 200, 300",
        "max_psdu_bytes": "none",
    }
    with pytest.raises(ValueError, match="key=value"):
        parse_override_text("sifs 10")
    with pytest.raises(ValueError, match="^line 3: duplicate key max_mpdus$"):
        parse_override_text("max_mpdus = 64\nsifs = 10\nmax_mpdus = 8\n")


def test_apply_overrides():
    cfg, ovh = apply_overrides(
        default_config(ProtocolFlavor.AC64),
        DEFAULT_OVERHEAD,
        {"sifs": "10", "max_mpdus": "128", "mcs_rates": "100,200", "max_psdu_bytes": "none", "mac_header": 30},
    )
    assert ovh.sifs == 10.0
    assert ovh.mac_header == 30
    assert cfg.max_mpdus == 128
    assert cfg.mcs_rates == (100.0, 200.0)
    assert cfg.max_psdu_bytes is None


@pytest.mark.parametrize("value", ["unlimited", ""])
def test_none_is_the_only_spelling_of_no_psdu_cap(value):
    with pytest.raises(ValueError, match="invalid value for max_psdu_bytes"):
        apply_overrides(default_config(ProtocolFlavor.AC64), DEFAULT_OVERHEAD, {"max_psdu_bytes": value})


@pytest.mark.parametrize("value", ["64.0", "1e3", 64.0, 1000])
def test_integer_override_takes_whole_numbers(value):
    cfg, _ = apply_overrides(default_config(ProtocolFlavor.AC64), DEFAULT_OVERHEAD, {"max_mpdus": value})
    assert cfg.max_mpdus == int(float(value))
    assert type(cfg.max_mpdus) is int


@pytest.mark.parametrize("value", ["2.7", 2.7, "inf", "nan", "1e400", "two"])
def test_integer_override_rejects_fractions(value):
    with pytest.raises(ValueError, match="invalid value for max_mpdus"):
        apply_overrides(default_config(ProtocolFlavor.AC64), DEFAULT_OVERHEAD, {"max_mpdus": value})


def test_resolve_config():
    assert resolve_config(ProtocolFlavor.AX64) == (default_config(ProtocolFlavor.AX64), DEFAULT_OVERHEAD)
    cfg, ovh = resolve_config(ProtocolFlavor.AX64, {"sifs": "10", "max_mpdus": "32"})
    assert (cfg.max_mpdus, ovh.sifs) == (32, 10.0)


# One override per key, each a value that some derived quantity must follow:
# at ax256, MCS 7, BER 1e-5 and 1500-byte MSDUs the optimum fills the whole
# 256-frame window with 7 MSDUs per MPDU at most.
LIVE_OVERRIDES = {
    "symbol_time": 12.8,
    "preamble": 40.0,
    "max_mpdus": 128,
    "max_mpdu_bytes": 5000,
    "max_psdu_bytes": 10000,
    "ppdu_time_limit": 3000.0,
    "back_duration": 50.0,
    "back64_duration": 20.0,
    "mcs_rates": tuple(rate / 2 for rate in AX_MCS_RATES),
    "aifs": 43.0,
    "backoff": 9.0,
    "sifs": 10.0,
    "mpdu_delimiter": 8,
    "mac_header": 32,
    "fcs": 8,
    "msdu_subheader": 18,
    "service_tail_bits": 30,
}


def test_every_override_key_moves_the_model():
    # no setting may be accepted and then ignored
    keys = {f.name for cls in (ProtocolConfig, OverheadConfig) for f in fields(cls)} - {"flavor"}
    assert set(LIVE_OVERRIDES) == keys
    with pytest.raises(ValueError, match="unknown configuration key: flavor"):
        apply_overrides(default_config(ProtocolFlavor.AX256), DEFAULT_OVERHEAD, {"flavor": "ax64"})
    scenario = Scenario(ProtocolFlavor.AX256, 7, 1e-5, 1500)

    def derived(overrides):
        config, overhead = resolve_config(ProtocolFlavor.AX256, overrides)
        link = Link.of(scenario, config, overhead)
        names = ("per_symbol", "c0", "step", "y_cap", "bit_cap", "overhead_ba64", "overhead_full", "tail_bits")
        res = optimize_exact(scenario, config, overhead)
        return [getattr(link, name) for name in names] + [res.plan, res.throughput]

    base = derived(None)
    for key, value in LIVE_OVERRIDES.items():
        assert derived({key: value}) != base, key


def test_apply_overrides_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown configuration key"):
        apply_overrides(default_config(ProtocolFlavor.AC64), DEFAULT_OVERHEAD, {"nope": 1})


def test_flavor_parse():
    assert ProtocolFlavor.parse(" AX256 ") is ProtocolFlavor.AX256
    with pytest.raises(ValueError, match="unknown protocol flavor"):
        ProtocolFlavor.parse("11n")
