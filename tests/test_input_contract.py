"""The input contract, fuzzed: every leaf of a 2x1x2, T=2 instance and its
result bundle is replaced by a bad value, or dropped, and ``solve``,
``verify`` and ``evaluate`` run in process on the result.

Whatever the mutation, the command exits 0, 2, 3 or 4 and nothing escapes
``main``; no RuntimeWarning is raised (warnings are errors here); exit 0
never follows a non-finite printed number; and an exit-3 message names a
file and a field or block.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drlqg.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_VERIFY_FAILED, main

FILES = {
    "instance": "inst.json", "worst case": "b/worst_case.json", "controller": "b/controller.json"
}
DROP = object()
VARIANTS = [float("nan"), -1, 0, 1e300, [], "x", None, [[1]], True, {}, DROP]

# a field ('system.A[0][0][0]', config.tol), a block or stage matrix (X0,
# W[1], K[0], U_output), a recursion's stage, a radius, a trace line or a flag
_FIELD_OR_BLOCK = re.compile(
    r"field '|config\.\w+|\bX0\b|\b[A-Z]\w*\[\d+\]|U_output|stage \d+|rho_\w+|line \d+|--\w+"
)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, warnings raised as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """The directory of a solved instance, and each file's document and leaf paths."""
    root = tmp_path_factory.mktemp("contract")
    inst = root / "inst.json"
    size = ["--n=2", "--m=1", "--p=2", "--T=2"]
    assert _run(["generate", *size, "--seed=0", "--rho=0.5", f"--out={inst}"])[0] == EXIT_OK
    assert _run(["solve", str(inst), "--out", str(root / "b"), "--tol", "1e-4"])[0] == EXIT_OK
    docs = {target: json.loads((root / name).read_text()) for target, name in FILES.items()}
    return root, {target: (doc, list(_leaves(doc))) for target, doc in docs.items()}


def _commands(work: Path, target: str):
    inst, bundle = work / "inst.json", work / "b"
    if target == "instance":
        yield ["solve", str(inst), "--out", str(work / "out"), "--tol", "1e-4"]
    yield ["verify", str(inst), str(bundle), "--samples", "2"]
    yield [
        "evaluate", str(inst), str(bundle / "controller.json"), str(bundle / "worst_case.json"),
        "--rollouts", "50",
    ]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    target=st.sampled_from(sorted(FILES)),
    leaf=st.integers(min_value=0),
    value=st.sampled_from(VARIANTS),
)
def test_a_bad_leaf_keeps_the_input_contract(solved, target, leaf, value):
    root, docs = solved
    doc, paths = docs[target]
    path = paths[leaf % len(paths)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(root, work, dirs_exist_ok=True)
        (work / FILES[target]).write_text(json.dumps(_mutated(doc, path, value)))
        for argv in _commands(work, target):
            code, out, err = _run(argv)
            what = f"{argv[0]} with {target} {path} = {value!r}: {out}{err}"
            assert code in (0, 2, 3, 4), what
            if code == EXIT_OK:
                assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), what
            if code == EXIT_BAD_INPUT:
                assert str(work) in err, what
                assert _FIELD_OR_BLOCK.search(err), what


@pytest.mark.parametrize("field", ["f_value", "final_gap", "converged", "iterations"])
def test_a_changed_run_record_never_verifies(tmp_path, solved, field):
    # verify checks each of these against the trace or the recomputation,
    # so any other value is bad input (exit 3) or a finding (exit 4)
    root, docs = solved
    doc = docs["worst case"][0]
    for i, value in enumerate(VARIANTS):
        if value is not DROP and json.dumps(value) == json.dumps(doc[field]):
            continue
        work = tmp_path / str(i)
        shutil.copytree(root, work)
        (work / FILES["worst case"]).write_text(json.dumps(_mutated(doc, (field,), value)))
        code, out, err = _run(["verify", str(work / "inst.json"), str(work / "b"), "--samples=2"])
        assert code in (EXIT_BAD_INPUT, EXIT_VERIFY_FAILED), f"{field} = {value!r}: {out}{err}"


def test_a_failed_computation_names_its_input_files(tmp_path, solved):
    # 1e300 in A reads as a valid instance, and then overflows the Riccati
    # recursion: the error's second line names the files it was computed from
    root, docs = solved
    doc = _mutated(docs["instance"][0], ("system", "A", 0, 0, 0), 1e300)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    bundle = root / "b"
    code, out, err = _run(["solve", str(huge), "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == f"error: Riccati recursion overflows at stage 0\nerror: computed from {huge}\n"
    code, out, err = _run(["verify", str(huge), str(bundle), "--samples", "2"])
    assert code == EXIT_BAD_INPUT
    assert err.splitlines()[1] == f"error: computed from {huge}, {bundle}"
    # a fault found on reading is named by the reader alone, on one line
    doc = _mutated(docs["instance"][0], ("system", "A", 0, 0, 0), "x")
    huge.write_text(json.dumps(doc))
    code, _, err = _run(["solve", str(huge), "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_INPUT
    assert err == (
        f"error: {huge}: field 'system.A' is not a numeric array: "
        "could not convert string to float: 'x'\n"
    )
