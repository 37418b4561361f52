"""Tests of the benchmark itself, on n=m=p=T=2 instances that solve in ms."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run as bench_run  # noqa: E402

TINY = harness.Workload("tiny", n=2, rho=0.5, samples=2, rollouts=200)


def tiny_run(trace: bool, **changes):
    w = harness.Workload(**{**TINY.__dict__, **changes})
    return harness.run(w, seed=0, seconds=1e-3, trace=trace, setup_repeats=1)


@pytest.fixture(scope="module")
def untraced():
    return tiny_run(trace=False)


@pytest.fixture(scope="module")
def traced():
    return tiny_run(trace=True)


def declared(kind: str) -> dict:
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("kind, fixture", [("end_to_end", "untraced"), ("per_layer", "traced")])
def test_every_metric_prints_with_its_unit(kind, fixture, request):
    result, r = request.getfixturevalue(fixture)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        bench_run.report(result, r)
    lines = out.getvalue().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    units = declared(kind)
    assert {name: m["unit"] for name, m in last["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_layer_self_times_are_nonnegative(traced):
    _, r = traced
    kids = harness.child_index(r.tracer.spans)
    assert all(harness.self_time(kids, s) >= 0.0 for s in r.tracer.spans)
    # the solver's own time: its span minus the replay its hook ran
    assert all(harness.self_time(kids, s["solve"]) > 0.0 for s in r.traced_solves)


def test_replayed_phases_fit_in_the_solve_span(traced):
    _, r = traced
    kids = harness.child_index(r.tracer.spans)
    assert r.traced_solves
    for s in r.traced_solves:
        assert 0.0 < harness.replayed_time(kids, s) <= harness.duration(s["solve"])
        # one replay per iteration, one oracle call per block and iteration
        assert len(kids[s["solve"]["id"]]) == s["iterations"]
        assert len(s["bisections"]) == s["iterations"] * (2 * TINY.n + 1)


def test_counts_repeat_exactly():
    first, _ = tiny_run(trace=True)
    second, _ = tiny_run(trace=True)
    for name in ("solver.iterations", "ambiguity.oracle_calls", "io.bundle_bytes"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_truncated_solve_counts_as_failure():
    result, r = tiny_run(trace=False, rho=2.0, max_iter=2)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert any(f.startswith("solve instance") for f in r.failures)
    traced_result, _ = tiny_run(trace=True, rho=2.0, max_iter=2)
    assert traced_result["metrics"]["cli.fail_ratio"]["value"] > 0.0


def test_reference_outside_the_bracket_is_reported(tmp_path):
    system, amb, meta = harness.generate_instance(2, 2, 2, 2, 0, 0.5)
    instance = tmp_path / "inst.json"
    harness.dio.write_instance(str(instance), system, amb, generator=meta)
    wall, code, _ = harness.cli_call(harness.solve_args(TINY, instance, tmp_path / "b"))
    assert code == 0
    f = harness.dio.read_worst_case(str(tmp_path / "b" / "worst_case.json"))[1]["f_value"]
    assert harness.check_bundle(instance, tmp_path / "b", {"f": f, "gap": 0.0}) == []
    problems = harness.check_bundle(instance, tmp_path / "b", {"f": f + 1.0, "gap": 1e-6})
    assert len(problems) == 1 and "bracket" in problems[0]
