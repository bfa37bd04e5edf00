"""Command-line front end: optimize, sweep, xopt, crossover, validate.

Exit codes: 0 success, 1 usage or configuration error, out of memory or a
closed stdout (silent), 2 a sweep produced no feasible point.  Infeasible
single scenarios are reported in-band as JSON, not as process failures.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .approx import (
    crossover_mcs,
    crossover_rate_reliable,
    smallest_mcs_at_least,
    x_opt_coefficient,
)
from .exact import NoFeasiblePlanError, optimize_exact, simulate_throughput
from .geometry import AggregationPlan
from .params import ProtocolFlavor, Scenario, _coerce_list, load_override_file, resolve_config
from .report import SweepGrid, rows_to_csv, rows_to_json, run_sweep


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for
    # infeasible-only sweeps, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _print_json(payload) -> None:
    # NaN and infinities are not standard JSON: refuse them with a ValueError
    print(json.dumps(payload, indent=2, allow_nan=False), flush=True)


def _result_payload(scenario, res) -> dict:
    return {
        "flavor": scenario.flavor.value,
        "mcs": scenario.mcs,
        "ber": scenario.ber,
        "msdu_len": scenario.msdu_len,
        "feasible": True,
        "throughput_mbps": res.throughput,
        "goodput_bits_expected": res.goodput_bits_expected,
        "plan": {
            "x": res.plan.x,
            "y_base": res.plan.y_base,
            "n_extra": res.plan.n_extra,
        },
        "airtime": {
            "psdu_bits": res.airtime.psdu_bits,
            "symbols": res.airtime.symbols,
            "data_time_us": res.airtime.data_time,
            "ppdu_time_us": res.airtime.ppdu_time,
            "cycle_time_us": res.airtime.cycle_time,
        },
    }


def _cmd_optimize(args, overrides) -> int:
    flavor = ProtocolFlavor.parse(args.flavor)
    config, overhead = resolve_config(flavor, overrides)
    scenario = Scenario(flavor=flavor, mcs=args.mcs, ber=args.ber, msdu_len=args.msdu_len)
    try:
        res = optimize_exact(scenario, config, overhead)
    except NoFeasiblePlanError as exc:
        _print_json({"feasible": False, "error": str(exc)})
        return 0
    _print_json(_result_payload(scenario, res))
    return 0


def _parse_grid_file(path) -> SweepGrid:
    kwargs = {}
    for key, value in load_override_file(path).items():
        if key == "flavors":
            kwargs[key] = tuple(ProtocolFlavor.parse(v) for v in value.split(",") if v.strip())
        elif key == "bers":
            kwargs[key] = _coerce_list(key, value, float)
        elif key == "msdu_lens":
            kwargs[key] = _coerce_list(key, value, int)
        else:
            raise ValueError(f"unknown grid key: {key}")
    return SweepGrid(**kwargs)


def _cmd_sweep(args, overrides) -> int:
    grid = _parse_grid_file(args.grid_file) if args.grid_file else SweepGrid()
    rows = run_sweep(grid, overrides)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(str(exc)) from None
    else:
        print(text, end="", flush=True)
    if not any(row.feasible for row in rows):
        print("sweep produced no feasible point", file=sys.stderr)
        return 2
    return 0


def _cmd_xopt(args, overrides) -> int:
    config, overhead = resolve_config(ProtocolFlavor.AX256, overrides)
    om_bytes = overhead.mpdu_overhead_bytes
    coefficient = x_opt_coefficient(
        args.ber, 8 * om_bytes, config.ppdu_time_limit, config.preamble
    )
    x_opt = coefficient * args.rate
    if not math.isfinite(x_opt):
        raise ValueError(
            f"--rate {args.rate:g} Mbps times {coefficient:g} optimal MPDUs per Mbps overflows a double"
        )
    _print_json(
        {
            "ber": args.ber,
            "rate_mbps": args.rate,
            "om_bytes": om_bytes,
            "x_opt": x_opt,
            "coefficient_per_mbps": coefficient,
        }
    )
    return 0


def _cmd_crossover(args, overrides) -> int:
    config, overhead = resolve_config(ProtocolFlavor.AX256, overrides)
    if args.reliable:
        msdu_len = 1500 if args.msdu_len is None else args.msdu_len
        rates = crossover_rate_reliable(msdu_len, overhead, config)
        payload = {
            "msdu_len": msdu_len,
            "discrete_mbps": rates.discrete,
            "continuous_mbps": rates.continuous,
            "mcs_crossover": smallest_mcs_at_least(config, rates.continuous),
        }
    else:
        report = crossover_mcs(args.ber, overhead, config)
        payload = {
            "ber": report.ber,
            "x_opt_coefficient": report.x_opt_coefficient,
            "rate_threshold_mbps": report.rate_threshold,
            "mcs_crossover": report.mcs_crossover,
        }
    _print_json(payload)
    return 0


def _cmd_validate(args, overrides) -> int:
    grid = SweepGrid()
    rows = run_sweep(grid, overrides)
    resolved = {flavor: resolve_config(flavor, overrides) for flavor in grid.flavors}
    max_rel = max_z = 0.0
    checked = 0
    for index, row in enumerate(rows):
        if not row.feasible:
            continue
        scenario = Scenario(row.flavor, row.mcs, row.ber, row.msdu_len)
        plan = AggregationPlan(row.x, row.y_base, row.n_extra)
        sim = simulate_throughput(
            plan, scenario, *resolved[row.flavor], cycles=args.cycles, seed=args.seed + index
        )
        # the row holds throughput_exact of its plan: the search scores its plan the same way
        dev = abs(sim.throughput - row.throughput_mbps)
        # a plan that loses every MPDU has no relative deviation; its z-score still counts
        if row.throughput_mbps > 0:
            max_rel = max(max_rel, dev / row.throughput_mbps)
        if sim.std_error > 0:
            max_z = max(max_z, dev / sim.std_error)
        checked += 1
    _print_json(
        {
            "cycles": args.cycles,
            "seed": args.seed,
            "points": checked,
            "max_relative_deviation": max_rel,
            "max_z_score": max_z,
        }
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process and shared."""
    parser = _Parser(prog="aggthru", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="best aggregation plan for one scenario")
    p_opt.add_argument("--flavor", required=True, choices=[f.value for f in ProtocolFlavor])
    p_opt.add_argument("--mcs", required=True, type=int)
    p_opt.add_argument("--ber", required=True, type=float)
    p_opt.add_argument("--msdu-len", required=True, type=int)
    p_opt.add_argument("--config", help="key=value overrides file")
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="optimize a whole grid and emit a table")
    p_sweep.add_argument("--grid-file", help="key=value file: bers, msdu_lens, flavors")
    p_sweep.add_argument("--out", help="output path (default: stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--config", help="key=value overrides file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_xopt = sub.add_parser("xopt", help="closed-form optimal MPDU count")
    p_xopt.add_argument("--ber", required=True, type=float)
    p_xopt.add_argument("--rate", required=True, type=float, help="PHY rate [Mbps]")
    p_xopt.add_argument("--config", help="key=value overrides file")
    p_xopt.set_defaults(func=_cmd_xopt)

    p_cross = sub.add_parser("crossover", help="where a 256-frame window beats 64")
    p_cross.add_argument("--ber", type=float, help="positive bit error rate")
    p_cross.add_argument("--reliable", action="store_true", help="error-free channel analysis")
    p_cross.add_argument("--msdu-len", type=int, help="MSDU payload for --reliable [bytes] (default: 1500)")
    p_cross.add_argument("--config", help="key=value overrides file")
    p_cross.set_defaults(func=_cmd_crossover)

    p_val = sub.add_parser("validate", help="Monte Carlo check of the analytic model")
    p_val.add_argument("--cycles", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--config", help="key=value overrides file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def _check_args(args) -> None:
    """Checks argparse cannot express; a violation is a configuration error."""
    if args.command == "crossover":
        if args.reliable == (args.ber is not None):
            raise ValueError("give exactly one of --ber or --reliable")
        if args.ber is not None and args.msdu_len is not None:
            raise ValueError("--msdu-len applies only to --reliable; the --ber analysis does not depend on it")
    elif args.command == "xopt" and not 0.0 < args.rate < math.inf:
        raise ValueError(f"--rate must be finite and > 0 [Mbps], got {args.rate}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        overrides = load_override_file(args.config) if args.config else None
        return args.func(args, overrides)
    except ValueError as exc:
        print(f"aggthru: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:   # the reader left (``| head``): say nothing, now or at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError as exc:
        # the optimizer's work grows with the limits and validate's with --cycles;
        # huge ones can exhaust memory
        detail = str(exc).splitlines()[0] if str(exc) else "no detail"
        print(f"aggthru: error: out of memory ({detail})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
