"""SHA-256 digests of the model's outputs, per checkout, each in a fresh process.

    python scripts/output_digest.py                  # this checkout
    python scripts/output_digest.py BEFORE AFTER     # exit status 1 if any digest differs

A change that must keep every plan and throughput bit for bit shows it here
as equal digests.  Each checkout is digested in a new Python process that
imports ``aggthru`` from that checkout's ``src`` directory (the runner of
``kernel_timeit.py``), so both sides run the same code from this file.  The
families are:

- ``sweep.rounded`` and ``sweep.unrounded``: the ``repr`` of the rows of the
  default sweep, with and without whole OFDM symbols;
- ``lifted_window``: the plan and throughput of the 36 ax256 optima of
  acceptance criterion 6 (L=64, a window of 1e6 frames);
- ``cli``: the exit code and JSON of ``xopt`` and ``crossover`` at each BER
  of ``BERS`` and of ``crossover --reliable`` at each size of ``MSDU_LENS``;
- ``optimize``: the exit code and JSON of ``optimize`` at each of
  ``OPTIMIZE_CASES``, some with an override file of ``OVERRIDE_FILES``;
- ``sweep.json``: the exit code and output of ``sweep --format json``;
- ``validate``: the exit code and JSON of ``validate --cycles 2000``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import kernel_timeit

BERS = ("1e-7", "1e-6", "1e-5")
MSDU_LENS = ("64", "512", "1500")
XOPT_RATE = "4803"   # ax MCS 11 [Mbps]

# override files, written to a scratch directory the child runs the CLI in
OVERRIDE_FILES = {
    # at ac64 MCS 9 the wide window fills the 1048575-byte PSDU cap; without it, the time limit
    "wide.cfg": "max_mpdus = 256\n",
    "wide_no_psdu_cap.cfg": "max_mpdus = 256\nmax_psdu_bytes = none\n",
    "tight.cfg": "ppdu_time_limit = 50\n",   # no transmission fits: in-band infeasible
}
# (flavor, MCS, BER, MSDU size, override file or None)
OPTIMIZE_CASES = (
    ("ac64", "9", "0", "1500", None),
    ("ac64", "9", "0", "1500", "wide.cfg"),
    ("ac64", "9", "0", "1500", "wide_no_psdu_cap.cfg"),
    ("ax64", "5", "1e-5", "512", None),
    ("ax256", "11", "1e-6", "64", None),
    ("ac64", "0", "0", "64", "tight.cfg"),
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _child() -> dict:
    """One digest per family, for the ``aggthru`` on ``sys.path``."""
    import contextlib
    import io
    import os
    import tempfile
    from dataclasses import replace

    from aggthru import ProtocolFlavor, Scenario, cli, default_config, optimize_exact
    from aggthru.report import SweepGrid, run_sweep

    ax256 = default_config(ProtocolFlavor.AX256)
    lifted = replace(ax256, max_mpdus=10**6, back64_duration=ax256.back_duration)
    optima = []
    for ber in map(float, BERS):
        for mcs in range(len(ax256.mcs_rates)):
            res = optimize_exact(Scenario(ProtocolFlavor.AX256, mcs, ber, 64), lifted)
            optima.append((res.plan.x, res.plan.y_base, res.plan.n_extra, res.throughput))

    def outputs(commands) -> list:
        out = []
        for argv in commands:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli.main(list(argv))
            out.append((argv, code, text.getvalue()))
        return out

    commands = [("xopt", "--ber", ber, "--rate", XOPT_RATE) for ber in BERS]
    commands += [("crossover", "--ber", ber) for ber in BERS]
    commands += [("crossover", "--reliable", "--msdu-len", size) for size in MSDU_LENS]
    optimize = []
    for flavor, mcs, ber, size, config in OPTIMIZE_CASES:
        argv = ("optimize", "--flavor", flavor, "--mcs", mcs, "--ber", ber, "--msdu-len", size)
        optimize.append(argv + (("--config", config) if config else ()))

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        # relative config paths keep the digested argv the same on every run
        os.chdir(scratch)
        try:
            for name, text in OVERRIDE_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            optimize_outputs = outputs(optimize)
        finally:
            os.chdir(home)

    return {
        "sweep.rounded": _digest(run_sweep(SweepGrid())),
        "sweep.unrounded": _digest(run_sweep(SweepGrid(), round_symbols=False)),
        "lifted_window": _digest(optima),
        "cli": _digest(outputs(commands)),
        "optimize": _digest(optimize_outputs),
        "sweep.json": _digest(outputs([("sweep", "--format", "json")])),
        "validate": _digest(outputs([("validate", "--cycles", "2000")])),
    }


def main(argv=None) -> int:
    script = Path(__file__).resolve()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="default: this checkout")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child()))
        return 0
    checkouts = args.checkouts or [script.parent.parent]
    digests = []
    for checkout in checkouts:
        digests.append(kernel_timeit._run_child(script, checkout))
        print(f"{checkout} ({kernel_timeit._git_sha(checkout)})")
        for family, value in digests[-1].items():
            print(f"  {family:16} {value}")
    differ = [family for family in digests[0] if any(d[family] != digests[0][family] for d in digests)]
    if differ:
        print(f"differ: {', '.join(differ)}")
        return 1
    if len(checkouts) > 1:
        print("all digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
