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
        runs.append(answers.instance_answers(ROOT / "src", work, TINY, 0, (2,) * 4))
    assert answers.differences(*runs) == []
    first = runs[0]
    assert [first[c]["exit"] for c in COMMANDS] == [0, 0, 0, 0]
    assert set(first["generate"]["files"]) == {"inst.json"}
    assert set(first["solve"]["files"]) == {
        "bundle/controller.json", "bundle/trace.csv", "bundle/worst_case.json"
    }
    assert first["verify"]["files"] == first["evaluate"]["files"] == {}
    assert first["solve"]["stdout"][-1] == "result bundle written to bundle\n"
    assert first["verify"]["stderr"] == []
    assert first["iterations"] >= 1 and first["final_gap"] <= harness.TOL


def test_the_manifest_holds_the_benchmark_and_the_rectangular_instances():
    listed = list(answers.instances())
    keys = [key for key, *_ in listed]
    assert len(keys) == len(set(keys)) == 24 + 6
    square = [(w.n,) * 4 == dims for key, w, _, dims in listed if not key.startswith("rect-")]
    assert square == [True] * 24
    rect = [(key, dims) for key, _, _, dims in listed if key.startswith("rect-")]
    assert rect == [
        ("rect-3x2x4x3/0", (3, 2, 4, 3)), ("rect-3x2x4x3/1", (3, 2, 4, 3)),
        ("rect-4x3x2x1/0", (4, 3, 2, 1)), ("rect-4x3x2x1/1", (4, 3, 2, 1)),
        ("rect-2x1x3x5/0", (2, 1, 3, 5)), ("rect-2x1x3x5/1", (2, 1, 3, 5)),
    ]


def test_a_rectangular_instance_is_generated_at_its_own_dims(tmp_path):
    w = dict((key, w) for key, w, _, _ in answers.instances())["rect-4x3x2x1/1"]
    got = answers.instance_answers(ROOT / "src", tmp_path, w, 1, (4, 3, 2, 1))
    assert [got[c]["exit"] for c in COMMANDS] == [0, 0, 0, 0]
    doc = answers.json.loads((tmp_path / "inst.json").read_text())
    assert doc["dims"] == {"n": 4, "m": 3, "p": 2, "T": 1}
    assert doc["ambiguity"]["rho_x0"] == 0.5


def test_trace_is_hashed_without_its_timing_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, ms in ((a, "1.5"), (b, "2.5")):
        d.mkdir()
        (d / "trace.csv").write_text(f"iter,f_value,surrogate_gap,elapsed_ms\n0,1,0.5,{ms}\n")
    assert answers._file_sha(a / "trace.csv") == answers._file_sha(b / "trace.csv")
    (b / "trace.csv").write_text("iter,f_value,surrogate_gap,elapsed_ms\n0,1,0.25,1.5\n")
    assert answers._file_sha(a / "trace.csv") != answers._file_sha(b / "trace.csv")


def test_diff_checks_each_moved_f_against_its_certified_bracket():
    reference = {"tiny": {"0": {"f": 10.0, "gap": 0.5}, "1": {"f": 10.0, "gap": 0.5}}}
    solved = {"f_value": 10.0, "final_gap": 0.25, "delta": 0.5}
    old = {"instances": {f"tiny/{seed}": solved for seed in (0, 1, 2, 3)}}
    new = {
        "instances": {
            "tiny/0": {**solved, "f_value": 10.75},  # width max(0.5, 0.25) / 0.5 = 1
            "tiny/1": {**solved, "f_value": 8.25, "final_gap": 0.75},  # width 1.5
            "tiny/2": {**solved, "f_value": 11.0},  # no reference entry
            "tiny/3": solved,  # f did not move
        }
    }
    assert answers.brackets(old, new, reference) == [
        ("instances.tiny/0.f_value: 10.75 lies inside its bracket 10.0 +/- 1.000e+00", True),
        ("instances.tiny/1.f_value: 8.25 lies OUTSIDE its bracket 10.0 +/- 1.500e+00", False),
        ("instances.tiny/2.f_value: 11.0 has no certified bracket to lie in", None),
    ]
    assert answers.brackets(old, old, reference) == []


def test_diff_exit_code_tells_an_f_outside_its_bracket(tmp_path, capsys):
    # the benchmark's own reference: an f moved by 1 at solve-large seed 0
    # lies far outside its bracket, one moved by 1e-6 inside it
    ref = answers.json.loads(answers.REFERENCE.read_text())["solve-large"]["0"]
    entry = {"f_value": ref["f"], "final_gap": ref["gap"], "delta": 0.95}
    paths = []
    for name, shift in (("old", 0.0), ("near", 1e-6), ("far", 1.0)):
        path = tmp_path / f"{name}.json"
        moved = {**entry, "f_value": ref["f"] + shift}
        path.write_text(answers.json.dumps({"instances": {"solve-large/0": moved}}))
        paths.append(str(path))
    old, near, far = paths
    assert answers.main(["diff", old, old]) == 0
    assert answers.main(["diff", old, near]) == 1
    assert answers.main(["diff", old, far]) == 2
    assert "1 f value(s) outside their certified bracket" in capsys.readouterr().out


def test_diff_lists_each_moved_entry():
    old = {"instances": {"tiny/0": {"f_value": 1.0, "solve": {"exit": 0}}}}
    new = {"instances": {"tiny/0": {"f_value": 1.5, "solve": {"exit": 2}}, "tiny/1": {}}}
    assert answers.differences(old, new) == [
        "instances.tiny/0.f_value: 1.0 -> 1.5 (+5.000e-01)",
        "instances.tiny/0.solve.exit: 0 -> 2",
        "instances.tiny/1: only in the new manifest",
    ]
    assert answers.differences(old, old) == []


def test_diff_prints_each_printed_line_that_moved():
    # stdout is kept as its lines, so a moved digit shows in the line that holds it
    old = {"instances": {"tiny/0": {"verify": {"stdout": ["a\n", "f=1.25\n"], "stderr": []}}}}
    new = {"instances": {"tiny/0": {"verify": {"stdout": ["a\n", "f=1.26\n", "b\n"], "stderr": []}}}}
    assert answers.differences(old, new) == [
        "instances.tiny/0.verify.stdout.1: 'f=1.25\\n' -> 'f=1.26\\n'",
        "instances.tiny/0.verify.stdout.2: only in the new manifest",
    ]
