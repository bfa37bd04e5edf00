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


def test_a_call_over_every_mcs_scores_the_candidates_of_each_mcs_alone():
    # Rates: one call over every MCS scores, stage by stage, what one call per
    # MCS scores; its seed is one Link.scores call for all the MCSs
    def stages(mcss, round_symbols):
        scenarios = [Scenario(ProtocolFlavor.AC64, mcs, ber, 512) for mcs in mcss for ber in (0.0, 1e-5)]
        return compare._stage_candidates(partial(optimize_exact_batch, round_symbols=round_symbols), scenarios, AC64)

    for round_symbols in (True, False):
        together = stages(range(10), round_symbols)
        alone = [stages([mcs], round_symbols) for mcs in range(10)]
        assert together == {stage: sum(each[stage] for each in alone) for stage in compare.STAGES}
        assert together["seed"] > 0 and together["caps"] > 0


def test_src_lines_counts_the_package_source():
    lines = compare._src_lines(Path(__file__).resolve().parent.parent)
    assert isinstance(lines, int) and lines > 0


def test_kernel_call_counts_are_the_same_on_every_run():
    first = compare._kernel_calls()
    assert set(first) == {"throughput_exact.feasible.calls", "throughput_exact.infeasible.calls"}
    assert all(isinstance(n, int) and n > 0 for n in first.values())
    assert compare._kernel_calls() == first


def test_the_lifted_byte_search_is_recorded_like_the_huge_window():
    assert {"huge_bytes_1e5.s", "huge_bytes_1e5.peak_alloc_mb"} <= set(compare.UNITS)
    scenario, config = compare._huge("huge_bytes_1e5")
    assert (config.max_mpdu_bytes, config.max_mpdus, config.ppdu_time_limit) == (10**12, AX256.max_mpdus, 1e5)
    stages = compare._stage_candidates(optimize_exact, scenario, config)
    assert list(stages) == list(compare.STAGES) and stages["caps"] == AX256.max_mpdus
    assert compare._stage_candidates(optimize_exact, scenario, config) == stages


def test_the_sweep_writers_are_recorded_on_one_default_sweep():
    writers = compare._writers()
    assert set(writers) == {"sweep.csv_ms", "sweep.json_ms"} and all(compare.UNITS[name] == "ms" for name in writers)
    assert all(0.0 < ms < 1e3 for ms in writers.values())


def test_time_checks_count_the_settles_of_bit_cap():
    # the sweep's channels share their geometry's link, so four BERs settle
    # bit_cap as often as one; the count is the same on every run
    from aggthru.report import SweepGrid, run_sweep

    def time_checks(bers):
        grid = SweepGrid(flavors=(ProtocolFlavor.AX256,), bers=bers, msdu_lens=(64, 1500))
        return compare._calls_of(compare._profile(run_sweep, grid), "geometry.within_time_limit")

    one = time_checks((0.0,))
    assert isinstance(one, int) and one > 0
    assert time_checks((0.0, 1e-7, 1e-6, 1e-5)) == one
    assert time_checks((0.0,)) == one


def test_sweep_counts_one_search_call_and_one_v_table_per_ber_per_flavor_and_size():
    # the sweep makes one search call per flavor and MSDU size, which builds
    # one v row per BER for all its MCSs; the counts are the same on every run
    from aggthru.report import SweepGrid, run_sweep

    def counts():
        grid = SweepGrid(flavors=(ProtocolFlavor.AC64, ProtocolFlavor.AX256), bers=(0.0, 1e-6, 1e-5),
                         msdu_lens=(64, 1500))
        profile = compare._profile(run_sweep, grid)
        return [compare._calls_of(profile, name) for name in ("exact.optimize_exact_batch", "geometry.v_table")]

    assert counts() == [4, 12]
    assert counts() == [4, 12]


def test_call_counts_keep_the_count_of_every_dataclass_init():
    # pstats keys functions by file, line and name, so the generated
    # __init__ of two dataclasses merge into one entry, which keeps one count
    import pstats

    def build():
        Scenario(ProtocolFlavor.AX256, 11, 1e-6, 64)
        replace(AX256, max_mpdus=8)

    profile = compare._profile(build)
    inits = [e for e in profile.getstats() if not isinstance(e.code, str) and e.code.co_name == "__init__"]
    assert [e.callcount for e in inits] == [1, 1]
    assert compare._calls_of(profile) == sum(e.callcount for e in profile.getstats())
    assert compare._calls_of(profile) == pstats.Stats(profile).total_calls + 1
