"""Tests of the benchmark itself: seeded generators and result checkers.

Each checker must accept a correct result and flag a corrupted one.
"""
import json
import random
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from aggthru import exact, geometry, params  # noqa: E402
from spans import Tracer  # noqa: E402


def test_scenario_mix_requests_are_seeded():
    a = workloads.scenario_mix_requests(7)
    assert a == workloads.scenario_mix_requests(7)
    assert a != workloads.scenario_mix_requests(8)
    assert len(a) == workloads.N_REQUESTS
    assert {r.flavor for r in a} == set(workloads.FLAVORS)
    assert any(r.ber == 0.0 for r in a) and any(r.ber > 0.0 for r in a)
    assert any(r.msdu_len % 4 for r in a)
    assert all(30 <= r.msdu_len <= 2304 for r in a)


def test_plan_eval_points_are_seeded():
    a = workloads.plan_eval_points(3)
    assert len(a) == 408
    assert a == workloads.plan_eval_points(3)
    assert [p.mc_seed for p in a] != [p.mc_seed for p in workloads.plan_eval_points(4)]


def test_grid_sweep_check_flags_a_changed_row(tmp_path):
    work = workloads.GridSweep(0, tmp_path)
    golden = workloads.GOLDEN_CSV.read_text(encoding="utf-8")
    assert work.check([golden]) == (408, 0)
    lines = golden.split("\n")
    lines[5] = lines[5].replace(lines[5].split(",")[8], "1.0")
    assert work.check(["\n".join(lines)]) == (408, 1)
    assert work.check([golden[:-1]]) == (408, 1)


def _answer(request, tmp_path):
    path = tmp_path / "override.txt"
    path.write_text(request.override_text, encoding="utf-8")
    return workloads.run_cli(request.argv(path))


REQUEST = workloads.Request(
    params.ProtocolFlavor.AX64, 5, 1e-6, 701,
    "ppdu_time_limit = 2000.0\nmax_mpdu_bytes = 7991\nmax_mpdus = 40\n",
)


def test_scenario_mix_check_accepts_the_optimizer(tmp_path):
    code, text = _answer(REQUEST, tmp_path)
    assert workloads.check_answer(REQUEST, code, text, random.Random(0))
    for request in workloads.scenario_mix_requests(11, n=30):
        code, text = _answer(request, tmp_path)
        assert workloads.check_answer(request, code, text, random.Random(1)), request


def test_scenario_mix_check_flags_a_dominated_plan(tmp_path):
    code, text = _answer(REQUEST, tmp_path)
    answer = json.loads(text)
    config, overhead = workloads._resolve(REQUEST)
    scenario = params.Scenario(REQUEST.flavor, REQUEST.mcs, REQUEST.ber, REQUEST.msdu_len)
    small = exact.throughput_exact(geometry.AggregationPlan(1, 1, 0), scenario, config, overhead)
    answer["plan"] = {"x": 1, "y_base": 1, "n_extra": 0}
    answer["throughput_mbps"] = small.throughput
    assert not workloads.check_answer(REQUEST, 0, json.dumps(answer), random.Random(0))


def test_scenario_mix_check_flags_wrong_throughput_and_false_infeasible(tmp_path):
    code, text = _answer(REQUEST, tmp_path)
    answer = json.loads(text)
    answer["throughput_mbps"] *= 1.001
    assert not workloads.check_answer(REQUEST, 0, json.dumps(answer), random.Random(0))
    infeasible = json.dumps({"feasible": False, "error": "scenario admits no transmission"})
    assert not workloads.check_answer(REQUEST, 0, infeasible, random.Random(0))
    assert not workloads.check_answer(REQUEST, 1, text, random.Random(0))
    del answer["plan"]
    assert not workloads.check_answer(REQUEST, 0, json.dumps(answer), random.Random(0))
    assert not workloads.check_answer(REQUEST, 0, "[]", random.Random(0))


def test_scenario_mix_check_confirms_a_true_infeasible(tmp_path):
    request = workloads.Request(
        params.ProtocolFlavor.AX256, 0, 0.0, 2000,
        "ppdu_time_limit = 80.0\nmax_mpdu_bytes = 3895\nmax_mpdus = 8\n",
    )
    code, text = _answer(request, tmp_path)
    assert json.loads(text)["feasible"] is False
    assert workloads.check_answer(request, code, text, random.Random(0))


@pytest.fixture(scope="module")
def lossy_point():
    points = workloads.plan_eval_points(0)
    return next(p for p in points if p.scenario.ber == 1e-5 and p.scenario.flavor.value == "ax64")


def test_plan_eval_check_flags_a_shifted_monte_carlo_mean(lossy_point):
    thr, curve, mc = workloads.evaluate_point(lossy_point)
    sigma = workloads.mc_sigma(lossy_point)
    assert sigma > 0
    assert workloads.check_point(lossy_point, (thr, curve, mc), sigma)
    for shift in (-10, 10):   # the run's own |z| stays below 5
        shifted = mc + shift * sigma
        assert not workloads.check_point(lossy_point, (thr, curve, shifted), sigma)


def test_plan_eval_check_flags_a_wrong_kernel_or_curve(lossy_point):
    thr, curve, mc = workloads.evaluate_point(lossy_point)
    sigma = workloads.mc_sigma(lossy_point)
    assert not workloads.check_point(lossy_point, (thr * 1.0001, curve, mc), sigma)
    beaten = list(curve)
    beaten[0] = thr * 1.01
    assert not workloads.check_point(lossy_point, (thr, beaten, mc), sigma)
    holed = list(curve)
    holed[0] = None
    assert not workloads.check_point(lossy_point, (thr, holed, mc), sigma)


def test_tracer_records_spans_and_self_time():
    mod = types.ModuleType("toy")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return mod.inner(n) + mod.inner(n)

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.install([mod], {inner: ("toy.inner", None, False), outer: ("toy.outer", lambda a, k: a[0], True)})
    assert mod.outer(1000) == 2 * sum(range(1000))
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer

    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name"]]
    assert names == ["toy.outer", "toy.inner", "toy.inner"]
    assert list(cols["parent"]) == [-1, 0, 0]
    assert cols["tag"][0] == 1000
    assert cols["self"][0] == pytest.approx(cols["dur"][0] - cols["dur"][1:].sum())
    assert tracer.recorded_calls["toy.outer"] == [((1000,), {})]
