import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import aggthru
from aggthru import OverheadConfig, ProtocolConfig
from aggthru.cli import main
from aggthru.params import load_override_file
from aggthru.report import SweepGrid, run_sweep

GOLDEN = Path(__file__).parent / "data" / "sweep_default.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_json(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--flavor", "ac64", "--mcs", "9", "--ber", "0", "--msdu-len", "1500"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["plan"] == {"x": 64, "y_base": 7, "n_extra": 0}
    assert payload["throughput_mbps"] == pytest.approx(2759.045, abs=0.01)
    assert payload["airtime"]["ppdu_time_us"] == pytest.approx(1800.0)


def test_optimize_infeasible_in_band(capsys, tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("ppdu_time_limit = 50\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "optimize", "--flavor", "ac64", "--mcs", "0", "--ber", "0", "--msdu-len", "64",
        "--config", str(cfg),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert "no transmission" in payload["error"]


def test_config_override_changes_overheads(capsys, tmp_path):
    cfg = tmp_path / "ovh.cfg"
    cfg.write_text("sifs = 26\n", encoding="utf-8")
    _, base_out, _ = run_cli(
        capsys, "optimize", "--flavor", "ac64", "--mcs", "9", "--ber", "0", "--msdu-len", "1500"
    )
    _, out, _ = run_cli(
        capsys,
        "optimize", "--flavor", "ac64", "--mcs", "9", "--ber", "0", "--msdu-len", "1500",
        "--config", str(cfg),
    )
    base = json.loads(base_out)
    bumped = json.loads(out)
    delta = bumped["airtime"]["cycle_time_us"] - base["airtime"]["cycle_time_us"]
    assert delta == pytest.approx(10.0, abs=1e-9)


def test_xopt_example(capsys):
    code, out, _ = run_cli(capsys, "xopt", "--ber", "1e-5", "--rate", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["x_opt"] == pytest.approx(967.8, abs=0.1)
    assert payload["coefficient_per_mbps"] == pytest.approx(0.9678, abs=5e-5)


def test_xopt_rejects_zero_ber(capsys):
    code, _, err = run_cli(capsys, "xopt", "--ber", "0", "--rate", "1000")
    assert code == 1
    assert "crossover --reliable" in err


@pytest.mark.parametrize("rate", ["-5", "0", "nan", "inf", "-inf"])
def test_xopt_rejects_a_rate_that_is_not_finite_and_positive(capsys, rate):
    code, out, err = run_cli(capsys, "xopt", "--ber", "1e-5", f"--rate={rate}")
    assert code == 1
    assert out == ""
    assert err.startswith("aggthru: error: --rate must be finite and > 0")
    assert err.count("\n") == 1


def test_crossover_reliable(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--reliable", "--msdu-len", "1500")
    assert code == 0
    payload = json.loads(out)
    assert payload["discrete_mbps"] == pytest.approx(1021.0, abs=1.0)
    assert payload["continuous_mbps"] == pytest.approx(1099.0, abs=1.0)
    assert payload["mcs_crossover"] == 3


def test_crossover_lossy(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--ber", "1e-7")
    assert code == 0
    payload = json.loads(out)
    assert payload["rate_threshold_mbps"] == pytest.approx(645.0, abs=1.0)
    assert payload["mcs_crossover"] == 2


TINY_BER_MESSAGE = (
    "optimal MPDUs per Mbps must be finite and > 0, got inf: "
    "per-MPDU overhead, ppdu_time_limit - preamble or bit error rate out of range"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("crossover", "--reliable", "--msdu-len", "0"), "msdu_len must be >= 1 byte"),
        (("crossover", "--reliable", "--msdu-len", "-4"), "msdu_len must be >= 1 byte"),
        # 4/(a*b) overflows at a BER this tiny; no setting was changed
        (("xopt", "--ber", "1e-320", "--rate", "1"), TINY_BER_MESSAGE),
        (("crossover", "--ber", "1e-320"), TINY_BER_MESSAGE),
    ],
)
def test_out_of_range_count_is_a_one_line_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"aggthru: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", "--flavor", "ax256", "--mcs", "1", "--ber", "0", "--msdu-len", "64", "--config", "missing.cfg"),
        ("sweep", "--out", "missing/rows.csv"),
    ],
)
def test_missing_path_is_a_one_line_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"aggthru: error: [Errno 2] No such file or directory: '{argv[-1]}'\n"


@pytest.mark.parametrize(
    "target,argv",
    [
        ("optimize_exact", ("optimize", "--flavor", "ax256", "--mcs", "11", "--ber", "1e-6", "--msdu-len", "64")),
        ("simulate_throughput", ("validate", "--cycles", "1000000000")),
    ],
)
@pytest.mark.parametrize(
    "message,shown",
    [
        ("Unable to allocate 351. MiB for an array with shape (46000000,)",
         "Unable to allocate 351. MiB for an array with shape (46000000,)"),
        ("", "no detail"),
    ],
)
def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch, message, shown, target, argv):
    # huge limits can make the search exhaust memory, and a huge cycle count
    # the Monte Carlo run; stand in for that without allocating
    import aggthru.cli

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(aggthru.cli, target, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"aggthru: error: out of memory ({shown})\n"


def test_crossover_needs_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "crossover")
    assert code == 1
    assert "exactly one" in err
    code, _, _ = run_cli(capsys, "crossover", "--ber", "1e-7", "--reliable")
    assert code == 1


def test_crossover_takes_msdu_len_only_with_reliable(capsys):
    # the lossy-channel crossover does not depend on the MSDU size
    code, out, err = run_cli(capsys, "crossover", "--ber", "1e-7", "--msdu-len", "1500")
    assert (code, out) == (1, "")
    assert err.startswith("aggthru: error: --msdu-len applies only to --reliable")
    assert err.count("\n") == 1
    _, default, _ = run_cli(capsys, "crossover", "--reliable")
    _, explicit, _ = run_cli(capsys, "crossover", "--reliable", "--msdu-len", "1500")
    assert default == explicit


@pytest.mark.parametrize(
    "override,field",
    [
        ("symbol_time = 0", "symbol_time"),
        ("mcs_rates = -5, 10", "mcs_rates"),
        ("ppdu_time_limit = nan", "ppdu_time_limit"),
        ("backoff = inf", "backoff"),
        ("guard_interval = 3.2", "guard_interval"),
        ("spatial_streams = 2", "spatial_streams"),
        ("mcs_rates = 100, x", "mcs_rates"),
        ("max_mpdus = 64\nmax_mpdus = 8", "line 2: duplicate key max_mpdus"),
        ("max_psdu_bytes = -5", "max_psdu_bytes must be finite and >= 1"),
        ("max_psdu_bytes = 0", "max_psdu_bytes must be finite and >= 1"),
        ("mcs_rates = ,", "mcs_rates must not be empty"),
    ],
)
def test_bad_override_is_a_one_line_error(capsys, tmp_path, override, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(override + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "optimize", "--flavor", "ax256", "--mcs", "1", "--ber", "1e-6", "--msdu-len", "64",
        "--config", str(cfg),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("aggthru: error: ") and field in err
    assert err.count("\n") == 1


SETTINGS = [f.name for cls in (ProtocolConfig, OverheadConfig) for f in fields(cls) if f.name != "flavor"]


@pytest.mark.parametrize("value", ["-5", "inf", "-inf", "nan"])
@pytest.mark.parametrize("key", SETTINGS)
def test_every_negative_or_non_finite_number_is_a_one_line_error(capsys, tmp_path, key, value):
    # one case per declared field, so a field no check covers fails here
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "optimize", "--flavor", "ac64", "--mcs", "9", "--ber", "0", "--msdu-len", "1500",
        "--config", str(cfg),
    )
    assert (code, out) == (1, "")
    assert err.startswith("aggthru: error: ") and key in err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")   # a numpy warning before the answer fails the case
@pytest.mark.parametrize(
    "override,field",
    [
        ("symbol_time = 1e-320", "ppdu_time_limit"),   # more symbols than a double holds
        ("ppdu_time_limit = 1e308", "ppdu_time_limit"),
        ("preamble = 1e308", None),                    # no PSDU fits: in-band infeasible
        ("mcs_rates = 1e308", "mcs_rates"),
        ("ppdu_time_limit = 1e30", None),              # the frame and MPDU caps bound the PSDU
        ("aifs = 1e308\nbackoff = 1e308", "aifs"),
        ("symbol_time = 1e-300", "symbol_time"),       # more than 2**63 symbols
        ("ppdu_time_limit = 1e30\nmax_mpdus = 1e10\nmax_mpdu_bytes = 1e12", "ppdu_time_limit"),
        ("preamble = 1e20\nmcs_rates = 1e-320", None),  # the tail bits alone take forever
    ],
)
def test_huge_and_tiny_overrides_answer_or_fail_in_one_line(capsys, tmp_path, override, field):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(override + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "optimize", "--flavor", "ax256", "--mcs", "0", "--ber", "1e-6", "--msdu-len", "64",
        "--config", str(cfg),
    )
    if field is None:
        assert (code, err) == (0, "")
        json.loads(out)
    else:
        assert (code, out) == (1, "")
        assert err.startswith("aggthru: error: ") and field in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override,argv,message",
    [
        # the overhead is compared with the largest double before it is converted
        ("mac_header = 1e308", ("xopt", "--ber", "1e-5", "--rate", "1000"), "per-MPDU overhead must be finite"),
        ("mac_header = 1e308", ("crossover", "--ber", "1e-6"), "per-MPDU overhead must be finite"),
        # the square root rounds to 1, so the optimum would be -0.0 MPDUs
        ("fcs = 1e30", ("xopt", "--ber", "1e-5", "--rate", "1000"), "optimal MPDUs per Mbps must be finite and > 0"),
        ("fcs = 1e30", ("crossover", "--ber", "1e-6"), "optimal MPDUs per Mbps must be finite and > 0"),
    ],
)
def test_huge_per_mpdu_overhead_is_a_one_line_error(capsys, tmp_path, override, argv, message):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(override + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"aggthru: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override,argv",
    [
        # the coefficient is finite, but times the rate it is not
        ("ppdu_time_limit = 1e308", ("xopt", "--ber", "1e-5", "--rate", "100000")),
        (None, ("xopt", "--ber", "0.5", "--rate", "1e308")),
    ],
)
def test_overflowing_x_opt_is_a_one_line_error(capsys, tmp_path, override, argv):
    if override is not None:
        cfg = tmp_path / "xopt.cfg"
        cfg.write_text(override + "\n", encoding="utf-8")
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("aggthru: error: --rate ")
    assert "optimal MPDUs per Mbps overflows a double" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("xopt", "--ber", "1e-5", "--rate", "1000"),
        ("crossover", "--ber", "1e-7"),
    ],
)
def test_no_per_mpdu_overhead_is_a_one_line_error(capsys, tmp_path, argv):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("mpdu_delimiter = 0\nmac_header = 0\nfcs = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("aggthru: error: per-MPDU overhead must be finite and > 0")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "override,argv,message",
    [
        # no time is left after the preamble, or less than none
        ("ppdu_time_limit = 64.8", ("crossover", "--reliable"), "ppdu_time_limit - preamble must be > 0 us"),
        ("ppdu_time_limit = 60", ("crossover", "--reliable"), "ppdu_time_limit - preamble must be > 0 us"),
        ("max_mpdu_bytes = 1e306", ("crossover", "--reliable"),
         "crossover rate overflows a double: max_mpdu_bytes / (ppdu_time_limit - preamble)"),
        # a positive but subnormal coefficient: 64 frames over it is no double
        ("preamble = 0\nppdu_time_limit = 1e-310", ("crossover", "--ber", "1e-5"),
         "crossover rate overflows a double"),
        (None, ("crossover", "--ber", "-1"), "bit error rate must lie in (0, 1), got -1.0"),
        (None, ("crossover", "--ber", "0"), "bit error rate must lie in (0, 1), got 0.0"),
    ],
)
def test_out_of_range_crossover_is_a_one_line_error(capsys, tmp_path, override, argv, message):
    if override is not None:
        cfg = tmp_path / "crossover.cfg"
        cfg.write_text(override + "\n", encoding="utf-8")
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"aggthru: error: {message}")
    assert err.count("\n") == 1


CLOSED_FORM_COMMANDS = (
    ("xopt", "--ber", "1e-5", "--rate", "4803"),
    ("crossover", "--ber", "1e-6"),
    ("crossover", "--reliable"),
)
CLOSED_FORM_KEYS = (
    "ppdu_time_limit", "preamble", "max_mpdu_bytes", "mac_header", "symbol_time", "aifs", "backoff", "sifs",
)
# from the smallest subnormal to 1e308; an integer setting takes the whole
# numbers among the floats and every drawn integer
OVERRIDE_VALUES = st.one_of(st.floats(min_value=0.0, max_value=1e308), st.integers(min_value=0, max_value=10**6))


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


# ``optimize`` is left out: with huge limits its search time and memory still
# grow with the limits, so one example could take seconds or gigabytes
@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.dictionaries(st.sampled_from(CLOSED_FORM_KEYS), OVERRIDE_VALUES))
@example({"ppdu_time_limit": 64.8})   # the ax preamble: no time left
@example({"ppdu_time_limit": 60})     # less than no time
@example({"max_mpdu_bytes": 1e306})   # a crossover rate too large for a double
def test_closed_form_commands_answer_or_fail_in_one_line(capsys, tmp_path, overrides):
    cfg = tmp_path / "drawn.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in overrides.items()), encoding="utf-8")
    for argv in CLOSED_FORM_COMMANDS:
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        if code == 0:
            assert err == ""
            payload = json.loads(out, parse_constant=_refuse_constant)
            # rates, counts and coefficients are never negative
            assert all(value is None or value >= 0 for value in payload.values()), payload
        else:
            assert (code, out) == (1, "")
            assert err.startswith("aggthru: error: ") and err.count("\n") == 1
            assert "JSON compliant" not in err   # the error names a setting, not the encoder


def test_fractional_integer_override_is_a_one_line_error(capsys, tmp_path):
    cfg = tmp_path / "frac.cfg"
    cfg.write_text("max_mpdus = 2.7\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "optimize", "--flavor", "ax256", "--mcs", "1", "--ber", "1e-6", "--msdu-len", "64",
        "--config", str(cfg),
    )
    assert code == 1
    assert out == ""
    assert err == "aggthru: error: invalid value for max_mpdus: '2.7'\n"


def test_optimizer_respects_the_aligned_mpdu_byte_cap(capsys, tmp_path):
    # a 35-byte per-MPDU overhead pads to 36, so the cap fits four 772-byte
    # MSDUs, not five; the answer must be a plan the limit checks accept
    cfg = tmp_path / "header27.cfg"
    cfg.write_text("mac_header = 27\nmax_mpdu_bytes = 3895\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "optimize", "--flavor", "ax64", "--mcs", "11", "--ber", "0", "--msdu-len", "758",
        "--config", str(cfg),
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["plan"] == {"x": 63, "y_base": 3, "n_extra": 61}


def test_huge_mpdu_byte_cap_evaluates_quickly(capsys, tmp_path):
    # the per-y tables stop at the MSDU count the PPDU time budget can carry
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("max_mpdu_bytes = 1e12\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys,
        "optimize", "--flavor", "ax256", "--mcs", "1", "--ber", "1e-6", "--msdu-len", "64",
        "--config", str(cfg),
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--flavor", "bogus", "--mcs", "0", "--ber", "0", "--msdu-len", "64"])
    assert exc.value.code == 1


def test_sweep_workers_is_a_usage_error(capsys):
    # the sweep runs in one process and takes no worker count
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--workers", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_sweep_grid_file_and_json(capsys, tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("bers = 0, 1e-5\nmsdu_lens = 1500\nflavors = ac64\n", encoding="utf-8")
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(
        capsys, "sweep", "--grid-file", str(grid), "--out", str(out_path), "--format", "json"
    )
    assert code == 0
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(data) == 20
    assert {d["ber"] for d in data} == {0.0, 1e-5}


@pytest.mark.parametrize(
    "text,message",
    [
        ("bers = 1e-5, x", "invalid value for bers: ' x'"),
        ("msdu_lens = 64.5", "invalid value for msdu_lens: '64.5'"),
        ("bers = 0\nbers = 1e-5", "line 2: duplicate key bers"),
        ("bers =", "bers must not be empty"),
        ("msdu_lens =", "msdu_lens must not be empty"),
        ("flavors =", "flavors must not be empty"),
        ("bers = 0, 0\nflavors = ac64, ac64\nmsdu_lens = 1500", "flavors must not repeat a value"),
        ("bers = 0, 1e-5, 0.0", "bers must not repeat a value"),
        ("flavors = ac64, AC64", "flavors must not repeat a value"),
        ("msdu_lens = 1500, 64, 1500.0", "msdu_lens must not repeat a value"),
        ("foo = 1", "unknown grid key: foo"),
        ("bers = 1e-6\nfoo = 2\nbar = 3", "unknown grid key: foo"),   # the first bad line
        ("bers = x\nfoo = 1", "invalid value for bers: 'x'"),
    ],
)
def test_bad_grid_file_is_a_one_line_error(capsys, tmp_path, text, message):
    grid = tmp_path / "grid.cfg"
    grid.write_text(text + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--grid-file", str(grid))
    assert (code, out, err) == (1, "", f"aggthru: error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [("optimize", "--flavor", "ac64", "--mcs", "9", "--ber", "0", "--msdu-len", "1500"), ("sweep",)],
)
def test_closed_stdout_is_not_an_error(argv):
    # a reader that stops reading (``| head``) gets no error line, traceback or shutdown message
    env = dict(os.environ, PYTHONPATH=str(Path(aggthru.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "aggthru", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_two_ber_sweep_equals_optimize_on_subnormal_throughputs(capsys, tmp_path):
    # at BER 0.1 an MPDU of one 827-byte MSDU arrives with a subnormal
    # probability: the sweep searches both BERs at once and must still find
    # each optimum
    grid = tmp_path / "grid.cfg"
    grid.write_text("flavors = ac64\nbers = 0, 0.1\nmsdu_lens = 827\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "sweep", "--grid-file", str(grid), "--format", "json")
    assert code == 0
    lossy = [row for row in json.loads(out) if row["ber"] == 0.1]
    assert len(lossy) == 10
    for row in lossy:
        code, out, _ = run_cli(
            capsys, "optimize", "--flavor", "ac64", "--mcs", str(row["mcs"]), "--ber", "0.1", "--msdu-len", "827"
        )
        alone = json.loads(out)
        assert code == 0
        assert {key: row[key] for key in alone["plan"]} == alone["plan"]
        assert row["throughput_mbps"] == alone["throughput_mbps"]


def test_sweep_infeasible_only_exits_two(capsys, tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("bers = 0\nmsdu_lens = 1500\nflavors = ac64\n", encoding="utf-8")
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("ppdu_time_limit = 50\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "sweep", "--grid-file", str(grid), "--config", str(cfg)
    )
    assert code == 2
    assert "no feasible point" in err
    assert len(out.splitlines()) == 11  # header + flagged zero rows


def test_sweep_matches_golden(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "sweep", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == GOLDEN.read_bytes()


def test_validate_reports_deviation(capsys, tmp_path):
    grid = tmp_path / "grid.cfg"
    # validate always runs the default grid; keep runtime in check via cycles
    code, out, _ = run_cli(capsys, "validate", "--cycles", "2000", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 408
    assert payload["max_relative_deviation"] < 0.02


def test_validate_without_a_feasible_point_exits_two(capsys, tmp_path):
    # no transmission fits 50 us: nothing was checked, which is no pass
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("ppdu_time_limit = 50\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--cycles", "10", "--config", str(cfg))
    assert code == 2
    assert err == "sweep produced no feasible point\n"
    assert json.loads(out)["points"] == 0


def test_validate_takes_plans_that_lose_every_mpdu(capsys, tmp_path):
    # a 9.5 MB MAC header never arrives at BER 1e-5: those plans are feasible
    # with a throughput of 0, and have no relative deviation
    cfg = tmp_path / "lost.cfg"
    cfg.write_text(
        "mac_header = 9500000\nmax_mpdu_bytes = 10000000\nppdu_time_limit = 20000\nmax_psdu_bytes = none\n",
        encoding="utf-8",
    )
    rows = run_sweep(SweepGrid(), load_override_file(cfg))
    assert any(row.feasible and row.throughput_mbps == 0.0 for row in rows)
    code, out, err = run_cli(capsys, "validate", "--cycles", "1000", "--config", str(cfg))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["points"] == sum(row.feasible for row in rows)
    assert all(math.isfinite(payload[key]) for key in ("max_relative_deviation", "max_z_score"))


@pytest.mark.parametrize(
    "argv,flag",
    [(("--seed", "-1"), "--seed"), (("--cycles", "0"), "--cycles"), (("--cycles", "-5"), "--cycles")],
)
def test_validate_refuses_a_negative_seed_or_no_cycles_before_the_sweep(capsys, monkeypatch, argv, flag):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(aggthru.cli, "run_sweep", no_sweep)
    code, out, err = run_cli(capsys, "validate", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"aggthru: error: {flag}")
    assert err.count("\n") == 1
