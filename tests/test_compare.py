"""``scripts/compare.py``: the checkout state and the call counts it records."""
import importlib.util
import subprocess
from dataclasses import replace
from functools import partial
from pathlib import Path

from aggthru import (
    AggregationPlan,
    ProtocolFlavor,
    Scenario,
    default_config,
    optimize_exact,
    optimize_exact_batch,
    throughput_exact,
)
from aggthru.params import DEFAULT_OVERHEAD

_SPEC = importlib.util.spec_from_file_location("compare", Path(__file__).resolve().parent.parent / "scripts" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


AX256 = default_config(ProtocolFlavor.AX256)
AC64 = default_config(ProtocolFlavor.AC64)
# a small grid of searches; the last one has no feasible plan
GRID = [
    (Scenario(ProtocolFlavor.AX256, 11, 1e-6, 64), AX256),
    (Scenario(ProtocolFlavor.AX256, 3, 0.0, 1500), AX256),
    (Scenario(ProtocolFlavor.AC64, 9, 1e-5, 512), AC64),
    (Scenario(ProtocolFlavor.AC64, 0, 0.0, 64), replace(AC64, ppdu_time_limit=50.0)),
]


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com",
         "-c", "commit.gpgsign=false", *args],
        check=True, capture_output=True,
    )


def test_dirty_marks_uncommitted_edits_to_tracked_files(tmp_path):
    _git(tmp_path, "init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "one")
    assert compare._git_dirty(tmp_path) is False
    (tmp_path / "untracked.txt").write_text("ignored\n")
    assert compare._git_dirty(tmp_path) is False
    tracked.write_text("two\n")
    assert compare._git_dirty(tmp_path) is True


def test_dirty_is_none_outside_a_git_checkout(tmp_path):
    assert compare._git_dirty(tmp_path) is None


def test_call_counts_are_the_same_on_every_run():
    def counts():
        return [compare._calls(optimize_exact, scenario, config, DEFAULT_OVERHEAD) for scenario, config in GRID]

    first = counts()
    assert all(isinstance(n, int) and n > 0 for n in first)
    assert counts() == first


def test_candidate_counts_are_the_same_on_every_run():
    def counts():
        return [compare._candidates(optimize_exact, scenario, config) for scenario, config in GRID]

    first = counts()
    assert all(isinstance(n, int) and n > 0 for n in first[:-1])
    assert first[-1] == 0   # no plan fits, so nothing is scored
    assert counts() == first
    # the kernel scores one plan, not an array of candidates
    assert compare._candidates(throughput_exact, AggregationPlan(4, 2), *GRID[0]) == 0


def test_stage_counts_are_the_same_on_every_run_and_sum_to_the_totals():
    def batch(round_symbols):
        scenarios = [replace(GRID[2][0], ber=ber) for ber in (0.0, 1e-5)]
        return compare._stage_candidates(partial(optimize_exact_batch, round_symbols=round_symbols), scenarios, AC64)

    def counts():
        searches = [compare._stage_candidates(optimize_exact, scenario, config) for scenario, config in GRID]
        return searches + [batch(True), batch(False)]

    first = counts()
    assert counts() == first
    assert all(list(stages) == list(compare.STAGES) for stages in first)
    assert [sum(stages.values()) for stages in first[:len(GRID)]] == [
        compare._candidates(optimize_exact, scenario, config) for scenario, config in GRID
    ]
    # a search of one channel is not seeded; the default window binds, so every x has a cap
    assert [stages["seed"] for stages in first[:len(GRID)]] == [0] * len(GRID)
    assert first[0]["caps"] == AX256.max_mpdus
    rounded, unrounded = first[-2:]
    assert rounded["seed"] > 0 and rounded["symbols"] > 0
    assert unrounded["symbols"] == 0 and unrounded["caps"] == rounded["caps"]


def test_src_lines_counts_the_package_source():
    lines = compare._src_lines(Path(__file__).resolve().parent.parent)
    assert isinstance(lines, int) and lines > 0


def test_kernel_call_counts_are_the_same_on_every_run():
    first = compare._kernel_calls()
    assert set(first) == {"throughput_exact.feasible.calls", "throughput_exact.infeasible.calls"}
    assert all(isinstance(n, int) and n > 0 for n in first.values())
    assert compare._kernel_calls() == first
