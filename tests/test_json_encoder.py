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


_M = np.array([[1.5, -0.0], [0.1, 0.0]])

# sibling arrays in a list or tuple: runs of bitwise-equal ones reuse the
# text of the first, so every case pairs a repeat with a near miss
SIBLINGS = {
    "run": [_M, _M.copy(), _M.copy(), np.eye(2)],
    "tuple run": (_M, _M, _M),
    "signed zero": [np.zeros((2, 2)), -np.zeros((2, 2)), np.zeros((2, 2))],
    "signed zero row": [np.array([0.0, 1.0]), np.array([-0.0, 1.0])],
    "nan and inf": [
        np.array([[math.nan, math.inf], [-math.inf, 0.0]]),
        np.array([[math.nan, math.inf], [-math.inf, 0.0]]),
        np.array([[math.nan, -math.inf], [math.inf, 0.0]]),
    ],
    "same bytes, other shape": [np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((3, 2))],
    "repeat after another": [_M, np.eye(2), _M, _M],
    "rows": [np.array([0.5, 0.0]), np.array([0.5, 0.0]), np.array([0.0, 0.5])],
    "between other items": [_M, 1.5, _M, None, [_M, _M], _M],
    "empty": [np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((2, 0))],
    "nested stages": {"A": [_M] * 3, "Q": [[_M, _M], [_M]]},
}


@pytest.mark.parametrize("doc", SIBLINGS.values(), ids=SIBLINGS)
def test_encoder_matches_json_on_sibling_arrays(doc):
    _assert_like_json(doc)


def test_encoder_formats_a_run_of_equal_matrices_once(monkeypatch):
    rows = []
    real = io._row
    monkeypatch.setattr(io, "_row", lambda fh, row, sep: rows.append(row) or real(fh, row, sep))
    _encoded({"A": [_M, _M.copy(), _M.copy()], "B": [_M, -_M, _M]})
    # A: the first matrix's two rows; B: each matrix differs from the one before
    assert len(rows) == 2 + 3 * 2


def _symmetric(d, seed=0):
    a = np.random.default_rng(seed).standard_normal((d, d))
    return a + a.T


def _one_ulp_off(a):
    out = a.copy()
    out[0, -1] = np.nextafter(out[0, -1], math.inf)
    return out


def _with(a, i, j, value):
    out = a.copy()
    out[i, j] = value
    return out


_S = _symmetric(4)
_Z = np.array([[1.0, 0.0, -0.0], [0.0, 2.0, 0.0], [-0.0, 0.0, 3.0]])

# square matrices that are finite and bitwise symmetric are written from one
# repr of their upper triangle; every near miss takes the row by row path
SYMMETRIC = {
    "1x1": np.array([[0.1]]),
    "1x1 -0.0": np.array([[-0.0]]),
    "d x d": _symmetric(5),
    "20 x 20": _symmetric(20, seed=1),
    "identity": np.eye(6),
    "edge floats": sum(np.diag(EDGE_FLOATS[: len(EDGE_FLOATS) - abs(k)], k) for k in (-1, 0, 1)),
    "one ulp off symmetric": _one_ulp_off(_S),
    "signed zero mirror pairs": _Z,
    "signed zero mismatch": _with(_Z, 0, 1, -0.0),
    "nan on the diagonal": _with(_S, 1, 1, math.nan),
    "inf on the diagonal": _with(_S, 2, 2, -math.inf),
    "nan off the diagonal": _with(_with(_S, 0, 3, math.nan), 3, 0, math.nan),
    "inf off the diagonal": _with(_with(_S, 1, 2, math.inf), 2, 1, math.inf),
    "a column view": np.asfortranarray(_S),
    "in a run of equal siblings": [_S, _S.copy(), _one_ulp_off(_S), _S, _Z, _Z.copy()],
    "nested": {"X0": _S, "W": (_S, _S), "V": [[_Z]], "rect": np.ones((2, 3))},
}


@pytest.mark.parametrize("doc", SYMMETRIC.values(), ids=SYMMETRIC)
def test_encoder_matches_json_on_symmetric_matrices(doc):
    _assert_like_json(doc)


def test_encoder_formats_each_upper_triangle_entry_once(monkeypatch):
    formatted = []
    real = io._reprs
    monkeypatch.setattr(io, "_reprs", lambda values: formatted.append(values.size) or real(values))
    for d in (1, 2, 5, 20):
        formatted.clear()
        _encoded([_symmetric(d), _symmetric(d)])  # the run reuses the first text
        assert formatted == [d * (d + 1) // 2]
    formatted.clear()
    _encoded(_one_ulp_off(_S))  # not symmetric: one repr per row
    assert formatted == [4, 4, 4, 4]


# the upper triangle mirrored, bit for bit, then one entry maybe replaced
_symmetric_arrays = st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        hnp.arrays(np.float64, (d, d), elements=st.one_of(st.just(0.0), st.just(-0.0), _floats)),
        st.none() | st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), _floats),
    )
)


@settings(max_examples=200, deadline=None)
@given(_symmetric_arrays)
def test_encoder_matches_json_on_random_symmetric_matrices(case):
    a, change = case
    a = np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)
    if change is not None:
        a[change[0], change[1]] = change[2]
    _assert_like_json(a)
    _assert_like_json([a, a.copy(), -a])


_NAN, _INF = math.nan, math.inf

# non-square, and square but not symmetric: the row by row path, whose
# trailing +0.0 runs and finite verdict come from one pass per matrix
MATRICES = {
    "+0.0 runs": np.array([[1.5, 0.0, 0.0], [0.1, 2.0, 0.0]]),
    "-0.0 runs": np.array([[1.5, -0.0, -0.0], [0.1, 2.0, -0.0]]),
    "-0.0 before +0.0": np.array([[1.0, -0.0, 0.0, 0.0], [1.0, 0.0, -0.0, 0.0]]),
    "all-zero rows": np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.0] * 3]),
    "all zero": np.zeros((2, 5)),
    "all -0.0": -np.zeros((3, 2)),
    "square, all-zero rows": np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    "square lower triangle, -0.0 above": -np.tril(np.arange(1.0, 17.0).reshape(4, 4)),
    "one column": np.array([[0.0], [1.5], [-0.0], [0.0]]),
    "one column of -0.0": -np.zeros((3, 1)),
    "one row": np.array([[0.25, 0.0, 0.0, 0.0]]),
    "nan in a zero run": np.array([[1.0, 0.0, _NAN, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]]),
    "inf in a zero run": np.array([[0.0, _INF, 0.0], [-_INF, 0.0, 0.0]]),
    "nan ends a row": np.array([[0.0, 0.0, _NAN], [2.0, 0.0, 0.0]]),
    "nan in one column": np.array([[0.0], [_NAN], [0.0]]),
    "square, inf in a zero run": np.array([[1.0, 0.0, 0.0], [2.0, -_INF, 0.0], [3.0, 0.0, 0.0]]),
    "causal gain": np.kron(np.tril(np.ones((3, 3))), np.arange(1.0, 7.0).reshape(2, 3)),
}
MATRICES["K and L"] = [MATRICES["+0.0 runs"], MATRICES["-0.0 runs"], MATRICES["-0.0 runs"].copy()]
MATRICES["list with non-finite"] = [
    MATRICES["nan in a zero run"], MATRICES["one column"], MATRICES["inf in a zero run"],
]
MATRICES["stages"] = {
    "K": [MATRICES["one column"]] * 2, "L": [MATRICES["all-zero rows"], np.eye(2)]
}


@pytest.mark.parametrize("doc", MATRICES.values(), ids=MATRICES)
def test_encoder_matches_json_on_matrices_written_row_by_row(doc):
    _assert_like_json(doc)


# mostly signed zeros, so zero runs, all-zero rows and -0.0 are common
_zero_rich = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.5, -2.0, _NAN, _INF]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_zero_rich, min_size=1, max_size=3))
def test_encoder_matches_json_on_random_zero_rich_matrices(mats):
    _assert_like_json(mats[0])
    _assert_like_json(mats)


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


# runs of one to three equal arrays, each a copy, so only the bits are shared
_runs = st.lists(st.tuples(_arrays, st.integers(1, 3)), max_size=5).map(
    lambda runs: [a.copy() for a, k in runs for _ in range(k)]
)


@settings(max_examples=200, deadline=None)
@given(_runs)
def test_encoder_matches_json_on_random_sibling_runs(doc):
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
