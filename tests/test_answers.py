"""Tests of tools/answers.py, the same-answers manifest, on an n=m=p=T=2 instance."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import answers  # noqa: E402
import harness  # noqa: E402  (on the path through answers)

TINY = harness.Workload("tiny", n=2, rho=0.5, samples=2, rollouts=200)
COMMANDS = ("generate", "solve", "verify", "evaluate")


def test_one_instance_gives_the_same_answers_twice(tmp_path):
    runs = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        runs.append(answers.instance_answers(ROOT / "src", work, TINY, 0))
    assert answers.differences(*runs) == []
    first = runs[0]
    assert [first[c]["exit"] for c in COMMANDS] == [0, 0, 0, 0]
    assert set(first["generate"]["files"]) == {"inst.json"}
    assert set(first["solve"]["files"]) == {
        "bundle/controller.json", "bundle/trace.csv", "bundle/worst_case.json"
    }
    assert first["verify"]["files"] == first["evaluate"]["files"] == {}
    assert first["iterations"] >= 1 and first["final_gap"] <= harness.TOL


def test_trace_is_hashed_without_its_timing_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, ms in ((a, "1.5"), (b, "2.5")):
        d.mkdir()
        (d / "trace.csv").write_text(f"iter,f_value,surrogate_gap,elapsed_ms\n0,1,0.5,{ms}\n")
    assert answers._file_sha(a / "trace.csv") == answers._file_sha(b / "trace.csv")
    (b / "trace.csv").write_text("iter,f_value,surrogate_gap,elapsed_ms\n0,1,0.25,1.5\n")
    assert answers._file_sha(a / "trace.csv") != answers._file_sha(b / "trace.csv")


def test_diff_lists_each_moved_entry():
    old = {"instances": {"tiny/0": {"f_value": 1.0, "solve": {"exit": 0}}}}
    new = {"instances": {"tiny/0": {"f_value": 1.5, "solve": {"exit": 2}}, "tiny/1": {}}}
    assert answers.differences(old, new) == [
        "instances.tiny/0.f_value: 1.0 -> 1.5 (+5.000e-01)",
        "instances.tiny/0.solve.exit: 0 -> 2",
        "instances.tiny/1: only in the new manifest",
    ]
    assert answers.differences(old, old) == []
