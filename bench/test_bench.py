"""Tests of the benchmark itself: generator, output checks, runner, span accounting."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import check  # noqa: E402


def test_hostile_generator_is_deterministic_per_seed():
    first = [t.describe() for t in workloads.hostile_tasks(7)]
    assert first == [t.describe() for t in workloads.hostile_tasks(7)]
    assert first != [t.describe() for t in workloads.hostile_tasks(8)]
    exits = {t["kind"]: t["expect_exit"] for t in first}
    assert exits == {
        "near_one": 0, "negative": 0, "huge_coeff": 0, "large": 0,
        "dep_quadratic": 2, "dep_cubic": 2, "short_dec2": 3, "short_dec3": 3,
        "tie_near_one": 3, "tie_negative": 3,
    }
    shuffled = workloads.tasks_for("hostile_xi", 7)
    assert sorted(t.kind for t in shuffled) == sorted(exits)


def _ring_task(kind):
    return next(t for t in workloads.ring_tasks(0) if t.kind == kind)


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    task = _ring_task("family_ell1")
    base = tmp_path_factory.mktemp("bench")
    return (task, run.run_task(task, base / "plain", trace=False),
            run.run_task(task, base / "traced", trace=True))


def test_checker_accepts_real_output_and_flags_a_corrupted_digest(family):
    task, plain, _traced = family
    assert check(task, plain) is None
    payload = json.loads(plain.files["family.json"])
    payload["element"] = payload["element"].replace("1", "3", 1)
    corrupted = replace(plain, files={"family.json": json.dumps(payload).encode()})
    assert "digest" in check(task, corrupted)


def test_checker_flags_a_wrong_exit_code(family):
    task, plain, _traced = family
    assert "exit 1" in check(task, replace(plain, result={**plain.result, "exit": 1}))
    dependent = next(t for t in workloads.hostile_tasks(0) if t.kind == "dep_cubic")
    assert "expected 2" in check(dependent, replace(plain, result={"exit": 0}))


def test_runner_kills_and_flags_a_timeout(tmp_path):
    task = _ring_task("family_ell4")
    out = run.run_task(task, tmp_path / "t", trace=False, timeout=0.05)
    assert out.timed_out and out.result is None
    assert "timed out" in check(task, out)


def test_dimension_check_uses_its_own_tau():
    assert [workloads.tau(ell) for ell in range(7)] == [1, 1, 2, 3, 4, 5, 7]
    task = _ring_task("r_table")
    task = replace(task, expect={"R": 2, "S": 0})
    rows = [f"R_{ell}: dims k=0..{ell + 2}: "
            f"{[max(0, workloads.tau(ell) - workloads.tau(k - 1)) for k in range(ell + 3)]}  [PASS]"
            for ell in range(3)]
    rows += ["S_0: dims k=0..2: [1, 0, 0]  [PASS]", "all dimension cells PASS"]
    good = run.Outcome("r_table", False, 1.0, False, 0, "\n".join(rows) + "\n", result={"exit": 0})
    assert check(task, good) is None
    bad = replace(good, stdout=good.stdout.replace("[2, 1, 1, 0, 0]", "[2, 2, 1, 0, 0]"))
    assert "R_2" in check(task, bad)


def test_traced_run_matches_plain_and_reaches_the_ring_layer(family):
    task, plain, traced = family
    assert check(task, traced) is None
    assert traced.digest() == plain.digest()
    layers = run.task_layers(traced.result)
    assert layers["ring.rho_calls"] > 0 and layers["linalg.insert_calls"] > 0
    assert layers["realctx.decide_calls"] == 0
    assert layers["_covered_s"] <= traced.result["run_s"] * 1.01


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_and_busy_time_on_a_synthetic_span_tree():
    # a [0,10] contains b [1,4] (which contains the x-layer span c [2,3])
    # and the set-up span d [5,9]
    full = [(1, "x.a", 0.0, 10.0, None), (2, "y.b", 1.0, 4.0, 1),
            (3, "x.c", 2.0, 3.0, 2), (4, spans.CONTEXT_SPAN, 5.0, 9.0, 1)]
    events = [("enter", "x.a", 0.0), ("enter", "y.b", 1.0), ("enter", "x.c", 2.0),
              ("exit", None, 3.0), ("exit", None, 4.0), ("enter", spans.CONTEXT_SPAN, 5.0),
              ("exit", None, 9.0), ("exit", None, 10.0)]
    tracer = spans.Tracer(clock=FakeClock(t for _op, _n, t in events))
    for op, name, _t in events:
        tracer.enter(name) if op == "enter" else tracer.exit()
    reference = spans.self_times(full)
    assert reference == {"x.a": 3.0, "y.b": 2.0, "x.c": 1.0, spans.CONTEXT_SPAN: 4.0}
    for name, self_s in reference.items():
        assert tracer.totals(name)[2] == self_s
    assert tracer.agg[("x.c", "y.b")] == [1, 1.0, 1.0]
    # x is busy over a once (c nests inside it) minus the set-up span
    assert dict(tracer.busy) == {"x": 6.0, "y": 3.0}


def test_coverage_leaves_out_entry_self_time_and_set_up():
    # entry span [0,10] with 1 s self time, a 2 s context and a 7 s layer
    # span below it; a context opened outside any span counts nowhere
    trace = {"spans": [["lab.run_experiment", None, 1, 10.0, 1.0],
                       [spans.CONTEXT_SPAN, "lab.run_experiment", 1, 2.0, 2.0],
                       ["minimal.scan", "lab.run_experiment", 1, 7.0, 7.0],
                       [spans.CONTEXT_SPAN, None, 1, 3.0, 3.0]],
             "busy": {}, "counters": {}}
    assert run.task_layers({"run_s": 8.0, "trace": trace})["_covered_s"] == 7.0


def test_overhead_pairs_repetitions_of_a_kind_from_the_same_pass():
    def out(kind, traced, run_s, speed=1.0):
        return run.Outcome(kind, traced, run_s, False, 0, result={"run_s": run_s, "speed": speed})

    traced = [out("a", True, 2.2), out("b", True, 2.0, speed=0.5), out("a", True, 2.0)]
    plain = [out("a", False, 2.0), out("b", False, 1.0), out("a", False, 2.0),
             out("b", False, 9.0)]  # the run ended before b's second traced run
    assert run.overhead_ratios(traced, plain) == pytest.approx([1.1, 1.0, 1.0])


def test_worker_samples_its_own_speed(family):
    _task, plain, traced = family
    for out in (plain, traced):
        assert out.result["speed_samples"] > 0 and out.result["speed"] > 0


def test_end_to_end_times_are_scaled_by_each_task_speed():
    def out(kind, speed, wall_s):
        return run.Outcome(kind, False, wall_s, False, 0, result={
            "setup_s": 1.0, "run_s": wall_s - 1.0, "cpu_s": wall_s - 1.0,
            "peak_rss_mb": 50.0, "speed": speed})

    # the host ran the second repetition of a at half speed: same work, same figure
    outcomes = [out("a", 1.0, 3.0), out("a", 0.5, 5.0), out("a", 1.0, 3.0), out("b", 2.0, 1.5)]
    scaled = run.end_to_end(outcomes)
    assert scaled == pytest.approx({"setup_s": 3.0, "run_s": 3.0, "cpu_s": 3.0,
                                    "worst_task_s": 3.0, "peak_rss_mb": 50.0})
    raw = run.end_to_end(outcomes, scaled=False)
    assert raw["run_s"] == pytest.approx(2.0 + 0.5) and raw["worst_task_s"] == 3.0
