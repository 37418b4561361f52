"""The streaming JSON encoder against ``json.dumps(..., indent=1)``."""

import io as _io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drlqg import FWConfig, FWIteration, RobustSolution, assemble_controller, generate_instance
from drlqg import io
from drlqg.cli import EXIT_OK, main
from drlqg.stacked import unroll_controller


def _plain(obj):
    """``obj`` with numpy arrays and scalars replaced by their ``tolist()``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _encoded(obj) -> str:
    buf = _io.StringIO()
    io._encode(buf, obj)
    return buf.getvalue()


def _assert_like_json(obj):
    assert _encoded(obj) == json.dumps(_plain(obj), indent=1)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1.7976931348623157e308, 0.1, -2.5]

CASES = [
    np.zeros(0),
    np.zeros((0, 3)),
    np.zeros((3, 0)),
    np.arange(24.0).reshape(2, 3, 4),
    np.array(2.5),
    np.array(-0.0),
    np.float64(0.1),
    np.int64(7),
    np.bool_(True),
    np.array(EDGE_FLOATS),
    np.array([[1.0, math.nan, 0.0], [math.inf, -math.inf, 0.0]]),
    np.array([0.0, 0.0, math.nan, 0.0, 0.0]),
    np.zeros((2, 4)),
    np.array([1.0, 0.0, -0.0]),
    np.array([1.0, -0.0, 0.0, 0.0]),
    np.array([-0.0, -0.0]),
    np.tril(np.arange(1.0, 26.0).reshape(5, 5)),
    np.arange(6).reshape(2, 3),  # an integer array
    np.array([True, False]),
    np.array([0.1, 0.2], dtype=np.float32),
    [1, -2, 3**40, True, False, None],
    {"a": {}, "b": [], "c": [[], {}], "d": {"e": [{}]}},
    {},
    [],
    {"naïve ✓": "ünïcødé   \"quoted\" \\ \n", "": "", "k": "\x00"},
    (1.5, [2.5, (3.5,)]),
    {"nested": [np.eye(2), {"m": np.zeros((1, 2)), "f": 1e16}], "n": None},
    math.nan,
    -math.inf,
    "text",
    42,
]


@pytest.mark.parametrize("obj", CASES, ids=lambda obj: type(obj).__name__)
def test_encoder_matches_json_on_edge_cases(obj):
    _assert_like_json(obj)


def test_encoder_rejects_non_string_keys():
    with pytest.raises(TypeError, match="keys must be str"):
        _encoded({1: 2.0})


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    # most entries signed zeros, so trailing zero runs and -0.0 are common
    elements=st.one_of(st.just(0.0), st.just(-0.0), _floats),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=6), _arrays
)
_docs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_encoder_matches_json_on_random_documents(doc):
    _assert_like_json(doc)


def test_cli_files_read_back_to_the_same_text(tmp_path):
    inst = tmp_path / "inst.json"
    args = ["--n", "2", "--m", "1", "--p", "3", "--T", "2", "--seed", "4", "--rho", "0.3"]
    assert main(["generate", *args, "--out", str(inst)]) == EXIT_OK
    assert main(["solve", str(inst), "--out", str(tmp_path / "res")]) == EXIT_OK
    paths = [inst, tmp_path / "res" / "worst_case.json", tmp_path / "res" / "controller.json"]
    for path in paths:
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=1) + "\n" == text


def test_bundle_write_streams_in_bounded_memory(tmp_path):
    sys, amb, _ = generate_instance(20, 20, 20, 20, seed=0, rho=0.5)
    sol = RobustSolution(
        worst_case=amb.nominal,
        controller=assemble_controller(sys, amb.nominal),
        trace=(FWIteration(k=0, f_value=1.0, surrogate_gap=0.5, wall_time=0.1),),
        final_gap=0.5,
        f_value=1.0,
        converged=False,
        config=FWConfig(),
    )
    gain = unroll_controller(sys, sol.controller).U
    tracemalloc.start()
    try:
        io.write_result_bundle(str(tmp_path), sol, gain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "controller.json").stat().st_size
    assert size > 3_000_000
    # the whole text, or the nested list of every float, would be several MB
    assert peak < size / 4
