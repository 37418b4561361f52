import json
import os

import numpy as np
import pytest

from drlqg import (
    AmbiguitySpec,
    CovarianceProfile,
    FWConfig,
    FWIteration,
    TimeVaryingSystem,
    banded_system,
    generate_instance,
    solve,
)
from drlqg import io
from drlqg.instances import RNG_NAME, random_covariance

from helpers import random_profile, random_system, scalar_ones


# -------------------------------------------------------------- instances


def test_banded_system_structure():
    sys = banded_system(3, 2, 3, 4)
    expect = 0.1 * (np.eye(3) + np.eye(3, k=1))
    for t in range(4):
        assert np.array_equal(sys.A[t], expect)
        assert np.array_equal(sys.B[t], np.eye(3, 2))
        assert np.array_equal(sys.C[t], np.eye(3))
        assert np.array_equal(sys.R[t], np.eye(2))
    for q in sys.Q:
        assert np.array_equal(q, np.eye(3))


def test_banded_system_scalar_reduction():
    sys = banded_system(1, 1, 1, 2)
    assert sys.A[0][0, 0] == 0.1


def test_random_covariance_spectrum_in_unit_band():
    rng = np.random.default_rng(70)
    for _ in range(20):
        block = random_covariance(4, rng)
        eigs = np.linalg.eigvalsh(block)
        assert np.all(eigs >= 1.0 - 1e-9)
        assert np.all(eigs <= 2.0 + 1e-9)
        assert np.array_equal(block, block.T)


def test_generate_instance_is_seed_deterministic():
    a_sys, a_amb, a_meta = generate_instance(3, 2, 2, 3, seed=11, rho=0.2)
    b_sys, b_amb, _ = generate_instance(3, 2, 2, 3, seed=11, rho=0.2)
    c_sys, c_amb, _ = generate_instance(3, 2, 2, 3, seed=12, rho=0.2)
    assert np.array_equal(a_amb.nominal.X0, b_amb.nominal.X0)
    for t in range(3):
        assert np.array_equal(a_amb.nominal.W[t], b_amb.nominal.W[t])
        assert np.array_equal(a_amb.nominal.V[t], b_amb.nominal.V[t])
    assert not np.array_equal(a_amb.nominal.X0, c_amb.nominal.X0)
    assert a_meta["rng"] == RNG_NAME
    assert a_meta["seed"] == 11


def test_generate_instance_validates_arguments():
    with pytest.raises(ValueError):
        generate_instance(0, 1, 1, 1, seed=0)
    with pytest.raises(ValueError):
        generate_instance(1, 1, 1, 1, seed=0, rho=-0.5)


# ------------------------------------------------------------ file formats


def test_instance_file_round_trip(tmp_path):
    for seed in range(10):
        sys, amb, meta = generate_instance(2, 2, 2, 3, seed=seed, rho=0.15)
        path = tmp_path / f"inst{seed}.json"
        io.write_instance(str(path), sys, amb, generator=meta)
        sys2, amb2, meta2 = io.read_instance(str(path))
        for t in range(sys.T):
            assert np.array_equal(sys.A[t], sys2.A[t])
            assert np.array_equal(sys.B[t], sys2.B[t])
            assert np.array_equal(sys.C[t], sys2.C[t])
            assert np.array_equal(sys.R[t], sys2.R[t])
            assert np.array_equal(amb.nominal.W[t], amb2.nominal.W[t])
            assert np.array_equal(amb.nominal.V[t], amb2.nominal.V[t])
        for t in range(sys.T + 1):
            assert np.array_equal(sys.Q[t], sys2.Q[t])
        assert np.array_equal(amb.nominal.X0, amb2.nominal.X0)
        assert amb.rho_x0 == amb2.rho_x0
        assert amb.rho_w == amb2.rho_w
        assert meta2 == meta


def test_time_varying_instance_with_a_repeated_stage_round_trips_bit_exact(tmp_path):
    # stage 2 equals stage 0 but not stage 1, which differs from stage 0 by
    # the sign of one zero in A
    rng = np.random.default_rng(5)
    base, nominal = random_system(rng, 2, 3, 2, 3), random_profile(rng, 2, 2, 3)

    def repeat(stages):
        return (stages[0], stages[1], stages[0].copy(), *stages[3:])

    A0 = base.A[0].copy()
    A0[0, 1] = 0.0
    A1 = A0.copy()
    A1[0, 1] = -0.0
    sys = TimeVaryingSystem(
        A=(A0, A1, A0.copy()),
        **{k: repeat(getattr(base, k)) for k in ("B", "C", "Q", "R")},
    )
    cov = CovarianceProfile(X0=nominal.X0, W=repeat(nominal.W), V=repeat(nominal.V))
    amb = AmbiguitySpec(nominal=cov, rho_x0=0.1, rho_w=(0.2,) * 3, rho_v=(0.3,) * 3)
    path = tmp_path / "inst.json"
    io.write_instance(str(path), sys, amb)
    sys2, amb2, _ = io.read_instance(str(path))
    pairs = [(getattr(sys, k), getattr(sys2, k)) for k in ("A", "B", "C", "Q", "R")]
    pairs += [(cov.blocks, amb2.nominal.blocks)]
    for before, after in pairs:
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.signbit(sys2.A[1][0, 1]) and not np.signbit(sys2.A[2][0, 1])


def test_instance_file_reports_missing_fields(tmp_path):
    sys, amb, _ = generate_instance(1, 1, 1, 1, seed=0)
    path = tmp_path / "inst.json"
    io.write_instance(str(path), sys, amb)
    doc = json.loads(path.read_text())
    del doc["ambiguity"]["rho_x0"]
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError, match="ambiguity.rho_x0"):
        io.read_instance(str(path))


def test_instance_file_rejects_dim_mismatch(tmp_path):
    sys, amb, _ = generate_instance(2, 2, 2, 2, seed=0)
    path = tmp_path / "inst.json"
    io.write_instance(str(path), sys, amb)
    doc = json.loads(path.read_text())
    doc["dims"]["n"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError, match="dims"):
        io.read_instance(str(path))


@pytest.mark.parametrize(
    "section, field, value",
    [("system", "A", 5.0), ("system", "Q", [1.0, 2.0]), ("nominal", "W", [[1.0]])],
)
def test_instance_stage_lists_must_hold_matrices(tmp_path, section, field, value):
    sys, amb, _ = generate_instance(1, 1, 1, 2, seed=0)
    path = tmp_path / "inst.json"
    io.write_instance(str(path), sys, amb)
    doc = json.loads(path.read_text())
    node = doc["system"] if section == "system" else doc["ambiguity"]["nominal"]
    node[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError, match=rf"'\S*{field}' is not a list of matrices"):
        io.read_instance(str(path))


def test_instance_file_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(io.FormatError, match="line"):
        io.read_instance(str(path))


def test_trace_round_trip_and_header(tmp_path):
    trace = (
        FWIteration(k=0, f_value=2.7182818284590452, surrogate_gap=1.0 / 3.0, wall_time=0.001),
        FWIteration(k=1, f_value=-1.5e-7, surrogate_gap=0.0, wall_time=0.25),
    )
    path = tmp_path / "trace.csv"
    io.write_trace_csv(str(path), trace)
    text = path.read_text().splitlines()
    assert text[0] == "iter,f_value,surrogate_gap,elapsed_ms"
    back = io.read_trace_csv(str(path))
    for orig, rt in zip(trace, back):
        assert rt.k == orig.k
        assert rt.f_value == orig.f_value  # 17 significant digits round-trip
        assert rt.surrogate_gap == orig.surrogate_gap
        assert abs(rt.wall_time - orig.wall_time) <= 1e-12 * max(1.0, orig.wall_time)


def test_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iter,f,gap,ms\n0,1.0,0.5,3\n")
    with pytest.raises(io.FormatError, match="header"):
        io.read_trace_csv(str(path))


def test_trace_rejects_malformed_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iter,f_value,surrogate_gap,elapsed_ms\n0,1.0,oops,3\n")
    with pytest.raises(io.FormatError, match="line 2"):
        io.read_trace_csv(str(path))


@pytest.mark.parametrize("row", ["1,1.0,0.5", "1,1.0,0.5,3,7"], ids=["3-fields", "5-fields"])
def test_trace_rejects_rows_without_four_fields(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"iter,f_value,surrogate_gap,elapsed_ms\n0,2.0,1.0,1\n{row}\n")
    with pytest.raises(io.FormatError) as info:
        io.read_trace_csv(str(path))
    fields = row.count(",") + 1
    assert str(info.value) == f"{path}: line 3: expected 4 fields, got {fields}"


@pytest.mark.parametrize("column", ["f_value", "surrogate_gap", "elapsed_ms"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_trace_rejects_non_finite_numbers(tmp_path, column, value):
    row = {"f_value": "1.0", "surrogate_gap": "0.5", "elapsed_ms": "3"}
    row[column] = value
    path = tmp_path / "trace.csv"
    path.write_text(
        "iter,f_value,surrogate_gap,elapsed_ms\n0,2.0,1.0,1\n"
        f"1,{row['f_value']},{row['surrogate_gap']},{row['elapsed_ms']}\n"
    )
    with pytest.raises(io.FormatError) as info:
        io.read_trace_csv(str(path))
    assert str(info.value).startswith(f"{path}: line 3: column '{column}' is not finite")


def test_result_bundle_round_trip(tmp_path):
    from drlqg import AmbiguitySpec, unroll_kalman

    sys, cov = scalar_ones()
    amb = AmbiguitySpec(nominal=cov, rho_x0=0.1, rho_w=(0.1,), rho_v=(0.1,))
    sol = solve(sys, amb, FWConfig(tol=1e-4))
    gain = unroll_kalman(sys, sol.worst_case)
    out = tmp_path / "bundle"
    io.write_result_bundle(str(out), sol, gain.U)

    cov2, meta = io.read_worst_case(str(out / "worst_case.json"))
    assert np.array_equal(cov2.X0, sol.worst_case.X0)
    assert np.array_equal(cov2.W[0], sol.worst_case.W[0])
    assert np.array_equal(cov2.V[0], sol.worst_case.V[0])
    assert meta["f_value"] == sol.f_value
    assert meta["final_gap"] == sol.final_gap
    assert meta["converged"] == sol.converged
    assert meta["config"].tol == sol.config.tol

    K, L, U = io.read_controller(str(out / "controller.json"))
    assert np.array_equal(K[0], sol.controller.K[0])
    assert np.array_equal(L[0], sol.controller.L[0])
    assert np.array_equal(U, gain.U)

    trace = io.read_trace_csv(str(out / "trace.csv"))
    assert [r.k for r in trace] == [r.k for r in sol.trace]
    assert [r.f_value for r in trace] == [r.f_value for r in sol.trace]
    assert [r.surrogate_gap for r in trace] == [r.surrogate_gap for r in sol.trace]


def _line_bundle(tmp_path):
    from drlqg import unroll_kalman

    sys, amb, _ = generate_instance(2, 2, 2, 2, seed=3, rho=0.3)
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    out = tmp_path / "bundle"
    io.write_result_bundle(str(out), sol, unroll_kalman(sys, sol.worst_case).U)
    return out / "worst_case.json", sol


def test_result_bundle_records_step_rule(tmp_path):
    path, sol = _line_bundle(tmp_path)
    assert json.loads(path.read_text())["config"]["step"] == "line"
    _, meta = io.read_worst_case(str(path))
    assert meta["config"] == sol.config


def test_result_bundle_without_step_reads_as_open_loop(tmp_path):
    # bundles written before the step rule was recorded still read
    path, sol = _line_bundle(tmp_path)
    doc = json.loads(path.read_text())
    del doc["config"]["step"]
    path.write_text(json.dumps(doc))
    _, meta = io.read_worst_case(str(path))
    assert meta["config"].step == "open-loop"
    assert meta["config"].tol == sol.config.tol


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("step", "bogus", "config.step"),
        ("step", None, "config.step"),
        ("delta", 1.5, "config.delta"),
        ("max_iter", 1.5, "config.max_iter"),
        ("tol", "0.001", "config.tol"),
    ],
)
def test_worst_case_with_bad_config_names_file_and_field(tmp_path, field, value, message):
    path, _ = _line_bundle(tmp_path)
    doc = json.loads(path.read_text())
    doc["config"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError, match=message) as info:
        io.read_worst_case(str(path))
    assert str(path) in str(info.value)


DROP = object()


@pytest.mark.parametrize(
    "value, message",
    [
        ("x", "field 'iterations' must be an integer, got \"x\""),
        (None, "field 'iterations' must be an integer, got null"),
        (1e300, "field 'iterations' must be an integer, got 1e+300"),
        (True, "field 'iterations' must be an integer, got true"),
        (DROP, "missing field 'iterations'"),
    ],
    ids=["string", "null", "float", "boolean", "dropped"],
)
def test_worst_case_with_bad_iterations_names_file_and_field(tmp_path, value, message):
    path, _ = _line_bundle(tmp_path)
    doc = json.loads(path.read_text())
    if value is DROP:
        del doc["iterations"]
    else:
        doc["iterations"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError) as info:
        io.read_worst_case(str(path))
    assert str(info.value) == f"{path}: {message}"


def _set(doc, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        doc = doc[part]
    doc[leaf] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("ambiguity.rho_x0", [1.0], "'ambiguity.rho_x0' must be a number, got [1.0]"),
        ("ambiguity.rho_w", 0.1, "'ambiguity.rho_w' must be a list of numbers"),
        ("ambiguity.rho_v", [0.1, "0.1"], "'ambiguity.rho_v[1]' must be a number, got \"0.1\""),
        ("dims.n", None, "'dims.n' must be an integer, got null"),
        ("dims.T", 2.0, "'dims.T' must be an integer, got 2.0"),
        ("f_value", [1.0, 2.0], "'f_value' must be a number, got [1.0, 2.0]"),
        ("final_gap", True, "'final_gap' must be a number, got true"),
        ("converged", "false", "'converged' must be a boolean, got \"false\""),
        ("f_value", float("nan"), "'f_value' must be finite, got NaN"),
        ("f_value", float("-inf"), "'f_value' must be finite, got -Infinity"),
        ("final_gap", float("inf"), "'final_gap' must be finite, got Infinity"),
        ("final_gap", float("nan"), "'final_gap' must be finite, got NaN"),
        ("config.tol", float("inf"), "'config.tol' must be finite, got Infinity"),
    ],
    ids=[
        "rho_x0", "rho_w", "rho_v-entry", "dims.n", "dims.T", "f_value", "final_gap", "converged",
        "f_value-nan", "f_value-neg-inf", "final_gap-inf", "final_gap-nan", "config.tol-inf",
    ],
)
def test_malformed_scalar_fields_name_file_and_field(tmp_path, path, value, message):
    if path.split(".")[0] in ("ambiguity", "dims"):
        sys, amb, _ = generate_instance(1, 1, 1, 2, seed=0)
        file = tmp_path / "inst.json"
        io.write_instance(str(file), sys, amb)
        read = io.read_instance
    else:
        file, _ = _line_bundle(tmp_path)
        read = io.read_worst_case
    doc = json.loads(file.read_text())
    _set(doc, path, value)
    file.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError) as info:
        read(str(file))
    assert str(info.value) == f"{file}: field {message}"


def test_writes_leave_no_temp_files(tmp_path):
    sys, amb, meta = generate_instance(1, 1, 1, 1, seed=1)
    io.write_instance(str(tmp_path / "inst.json"), sys, amb, generator=meta)
    assert sorted(os.listdir(tmp_path)) == ["inst.json"]


def test_encoder_error_keeps_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    io.write_json_atomic(str(path), {"a": 1})
    before = path.read_bytes()
    # the array streams out before the non-str key stops the encoder
    with pytest.raises(TypeError, match="keys must be str, not int"):
        io.write_json_atomic(str(path), {"a": np.ones((50, 50)), 1: 2})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["doc.json"]


def test_worst_case_format_is_checked(tmp_path):
    path = tmp_path / "wc.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(io.FormatError, match="format"):
        io.read_worst_case(str(path))


def _documents(tmp_path):
    """An instance and a result bundle of it: (reader, path) for each document."""
    sys, amb, _ = generate_instance(1, 1, 1, 2, seed=0)
    inst = tmp_path / "inst.json"
    io.write_instance(str(inst), sys, amb)
    worst, _ = _line_bundle(tmp_path)
    return [
        (io.read_instance, inst),
        (io.read_worst_case, worst),
        (io.read_controller, worst.parent / "controller.json"),
    ]


@pytest.mark.parametrize(
    "value, shown", [(True, "true"), ("0.1", '"0.1"')], ids=["boolean", "numeric-string"]
)
@pytest.mark.parametrize(
    "document, field, index",
    [
        (0, "system.A", (0, 0, 0)),
        (0, "ambiguity.nominal.W", (1, 0, 0)),
        (2, "K", (1, 0, 0)),
        (2, "U_output", (1, 0)),
    ],
    ids=["system.A", "nominal.W", "K", "U_output"],
)
def test_matrix_leaves_must_be_numbers(tmp_path, value, shown, document, field, index):
    # numpy would read true as 1.0 and "0.1" as 0.1
    read, path = _documents(tmp_path)[document]
    doc = json.loads(path.read_text())
    node = io._get(doc, field)
    for i in index[:-1]:
        node = node[i]
    node[index[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError) as info:
        read(str(path))
    leaf = field + "".join(f"[{i}]" for i in index)
    assert str(info.value) == f"{path}: field '{leaf}' must be a number, got {shown}"


def test_matrix_leaf_too_large_for_a_float_is_named(tmp_path):
    read, path = _documents(tmp_path)[0]
    doc = json.loads(path.read_text())
    doc["system"]["A"][0][0][0] = 10**400  # an integer literal no float holds
    path.write_text(json.dumps(doc))
    with pytest.raises(io.FormatError, match="field 'system.A' is not a numeric array"):
        read(str(path))


@pytest.mark.parametrize(
    "version, message",
    [
        (99, "field 'version' must be 1, got 99"),
        (None, "field 'version' must be an integer, got null"),
        (1.0, "field 'version' must be an integer, got 1.0"),
        ("1", "field 'version' must be an integer, got \"1\""),
        ("missing", "missing field 'version'"),
    ],
    ids=["future", "null", "float", "string", "missing"],
)
def test_every_document_checks_its_version(tmp_path, version, message):
    for read, path in _documents(tmp_path):
        doc = json.loads(path.read_text())
        if version == "missing":
            del doc["version"]
        else:
            doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError) as info:
            read(str(path))
        assert str(info.value) == f"{path}: {message}"
