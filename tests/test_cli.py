import json
import os
import subprocess
import sys as _sys
import warnings
from pathlib import Path

import numpy as np

import pytest

import drlqg
from drlqg import FWConfig, assemble_controller, lqg_value, solve
from drlqg import io, lqg
from drlqg.cli import EXIT_BAD_INPUT, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VERIFY_FAILED, main


def _generate(tmp_path, name="inst.json", n=1, m=1, p=1, T=1, seed=0, rho=0.1):
    path = tmp_path / name
    rc = main(
        [
            "generate",
            "--n", str(n), "--m", str(m), "--p", str(p), "--T", str(T),
            "--seed", str(seed), "--rho", str(rho),
            "--out", str(path),
        ]
    )
    assert rc == EXIT_OK
    return path


def test_generate_same_seed_is_byte_identical(tmp_path):
    a = _generate(tmp_path, "a.json", n=2, m=2, p=2, T=3, seed=9)
    b = _generate(tmp_path, "b.json", n=2, m=2, p=2, T=3, seed=9)
    assert a.read_bytes() == b.read_bytes()
    c = _generate(tmp_path, "c.json", n=2, m=2, p=2, T=3, seed=10)
    assert a.read_bytes() != c.read_bytes()


def test_solve_zero_radius_single_iteration(tmp_path):
    inst = _generate(tmp_path, rho=0.0, n=2, m=1, p=2, T=2, seed=3)
    rc = main(["solve", str(inst), "--out", str(tmp_path / "res")])
    assert rc == EXIT_OK
    rows = (tmp_path / "res" / "trace.csv").read_text().splitlines()
    assert len(rows) == 2  # header + the single converged iteration
    assert rows[1].split(",")[2] == "0"  # surrogate gap is exactly zero
    sys, amb, _ = io.read_instance(str(inst))
    K, L, _ = io.read_controller(str(tmp_path / "res" / "controller.json"))
    nominal = assemble_controller(sys, amb.nominal)
    for t in range(sys.T):
        assert np.allclose(K[t], nominal.K[t], atol=1e-15)
        assert np.allclose(L[t], nominal.L[t], atol=1e-15)


def test_solve_verify_evaluate_workflow(tmp_path, capsys):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=0, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    assert main(["verify", str(inst), str(res), "--samples", "25"]) == EXIT_OK
    rc = main(
        [
            "evaluate",
            str(inst),
            str(res / "controller.json"),
            str(res / "worst_case.json"),
            "--rollouts", "20000",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "exact cost" in out and "monte carlo mean" in out


def test_evaluate_zero_radius_exact_matches_value(tmp_path, capsys):
    inst = _generate(tmp_path, rho=0.0, n=2, m=2, p=2, T=2, seed=5)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    rc = main(
        [
            "evaluate",
            str(inst),
            str(res / "controller.json"),
            str(res / "worst_case.json"),
            "--rollouts", "5000",
        ]
    )
    assert rc == EXIT_OK
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("exact cost")][0]
    exact = float(line.split(":")[1])
    sys, amb, _ = io.read_instance(str(inst))
    assert abs(exact - lqg_value(sys, amb.nominal)) <= 1e-8 * max(1.0, exact)


def test_truncated_solve_exits_2_and_fails_verify(tmp_path):
    inst = _generate(tmp_path, n=3, m=3, p=3, T=4, seed=7, rho=0.5)
    res = tmp_path / "res"
    rc = main(
        ["solve", str(inst), "--out", str(res), "--tol", "1e-4", "--max-iter", "2"]
    )
    assert rc == EXIT_NOT_CONVERGED
    rc = main(["verify", str(inst), str(res), "--samples", "10", "--seed", "1"])
    assert rc == EXIT_VERIFY_FAILED


def test_solve_uses_line_search(tmp_path):
    inst = _generate(tmp_path, n=2, m=3, p=1, T=3, seed=6, rho=0.5)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res), "--tol", "1e-4"]) == EXIT_OK
    _, meta = io.read_worst_case(str(res / "worst_case.json"))
    assert meta["config"].step == "line"
    sys, amb, _ = io.read_instance(str(inst))
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    trace = io.read_trace_csv(str(res / "trace.csv"))
    assert [(r.k, r.f_value, r.surrogate_gap) for r in trace] == [
        (r.k, r.f_value, r.surrogate_gap) for r in sol.trace
    ]
    assert main(["verify", str(inst), str(res), "--samples", "10"]) == EXIT_OK


def test_verify_names_bad_step_rule_in_bundle(tmp_path, capsys):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=2, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    path = res / "worst_case.json"
    doc = json.loads(path.read_text())
    doc["config"]["step"] = "bogus"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and "config.step" in err


def test_missing_instance_is_bad_input(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT


def test_malformed_instance_is_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT


def test_verify_detects_tampered_value(tmp_path):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=2, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    wc_path = res / "worst_case.json"
    doc = json.loads(wc_path.read_text())
    doc["f_value"] = doc["f_value"] * 1.05
    wc_path.write_text(json.dumps(doc))
    assert main(["verify", str(inst), str(res), "--samples", "5"]) == EXIT_VERIFY_FAILED


def test_verify_detects_tampered_gain(tmp_path):
    inst = _generate(tmp_path, n=2, m=1, p=2, T=2, seed=4, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    ctrl_path = res / "controller.json"
    doc = json.loads(ctrl_path.read_text())
    doc["K"][0][0][0] += 1e-3
    ctrl_path.write_text(json.dumps(doc))
    assert main(["verify", str(inst), str(res), "--samples", "5"]) == EXIT_VERIFY_FAILED


@pytest.mark.parametrize(
    "edit, finding",
    [
        (
            {"final_gap": 5.0},
            "converged=True disagrees with final gap 5.000e+00 against tol 1.000e-04",
        ),
        ({"converged": False}, "converged=False disagrees with final gap"),
    ],
    ids=["final-gap", "converged"],
)
def test_verify_checks_the_bundle_metadata(tmp_path, capsys, edit, finding):
    inst = _generate(tmp_path, n=3, m=3, p=3, T=3, seed=0, rho=0.5)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res), "--tol", "1e-4"]) == EXIT_OK
    path = res / "worst_case.json"
    doc = json.loads(path.read_text())
    doc.update(edit)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert f"  - {finding}" in out
    # the value and the gap are those of the trace's first minimum-gap row
    trace_finding = "final gap and value do not match the minimum-gap trace row"
    assert (trace_finding in out) == ("final_gap" in edit)


def test_verify_checks_the_value_against_the_trace(tmp_path, capsys):
    inst = _generate(tmp_path, n=3, m=3, p=3, T=3, seed=0, rho=0.5)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res), "--tol", "1e-4"]) == EXIT_OK
    path = res / "trace.csv"
    lines = path.read_text().splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) * (1 + 1e-12))  # inside verify's 1e-8 value tolerance
    lines[-1] = ",".join(last)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "  - final gap and value do not match the minimum-gap trace row (iter " in out


@pytest.mark.parametrize("rho", ["1e20", "1e-300"])
def test_solve_names_a_radius_out_of_double_range(tmp_path, capsys, rho):
    # far outside the scale of its block, a radius leaves the oracle no
    # finite dual bracket or an overflowing maximizer; no warning escapes
    inst = _generate(tmp_path, n=3, m=2, p=2, T=2, seed=0, rho=float(rho))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(inst), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: gradient block 0: radius ")
    assert "out of the range that double precision resolves" in err
    assert not (tmp_path / "o").exists()


def test_verify_against_balls_out_of_double_range_is_bad_input(tmp_path, capsys):
    inst = _generate(tmp_path, n=3, m=2, p=2, T=2, seed=0, rho=1e10)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    huge = _generate(tmp_path, "huge.json", n=3, m=2, p=2, T=2, seed=0, rho=1e20)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(huge), str(res), "--samples", "0"]) == EXIT_BAD_INPUT
    assert "out of the range that double precision resolves" in capsys.readouterr().err


def test_evaluate_rejects_fewer_than_two_rollouts(tmp_path, capsys):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=0, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    for count in ("1", "0"):
        rc = main(
            [
                "evaluate",
                str(inst),
                str(res / "controller.json"),
                str(res / "worst_case.json"),
                "--rollouts", count,
            ]
        )
        assert rc == EXIT_BAD_INPUT
        assert "--rollouts" in capsys.readouterr().err


def test_evaluate_names_rollouts_too_many_to_hold(tmp_path, capsys):
    # 2**50 costs are 8 PiB, beyond any user address space, so the
    # allocation fails at once whatever the overcommit setting
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=0, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    capsys.readouterr()
    rc = main(
        [
            "evaluate",
            str(inst),
            str(res / "controller.json"),
            str(res / "worst_case.json"),
            "--rollouts", str(2**50),
        ]
    )
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --rollouts 1125899906842624 needs more memory")


def test_solve_rejects_singular_nonzero_center(tmp_path, capsys):
    inst = _generate(tmp_path, n=2, m=2, p=2, T=2, seed=1)
    doc = json.loads(inst.read_text())
    doc["ambiguity"]["nominal"]["W"][1] = [[1.0, 0.0], [0.0, 0.0]]
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", str(inst), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    assert "nominal W[1] is singular but nonzero" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_rejects_negative_samples(tmp_path, capsys):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=0, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    assert main(["verify", str(inst), str(res), "--samples", "-3"]) == EXIT_BAD_INPUT
    assert "--samples" in capsys.readouterr().err
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_OK


@pytest.mark.parametrize(
    "extra",
    [["--tol", "abc"], ["--bogus-flag"], ["--max-iter", "1.5"], ["--max-iter"]],
)
def test_usage_errors_are_bad_input(tmp_path, capsys, extra):
    inst = _generate(tmp_path)
    capsys.readouterr()
    rc = main(["solve", str(inst), "--out", str(tmp_path / "o"), *extra])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error:" in err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == EXIT_OK
    assert "--max-iter" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_solve_rejects_non_finite_tol(tmp_path, capsys, tol):
    # a bundle recording tol=Infinity would be rejected by verify
    inst = _generate(tmp_path)
    capsys.readouterr()
    rc = main(["solve", str(inst), "--out", str(tmp_path / "o"), "--tol", tol])
    assert rc == EXIT_BAD_INPUT
    assert f"tol must be positive and finite, got {tol}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_write_error_names_the_target_file(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    rc = main(["generate", "--n", "1", "--m", "1", "--p", "1", "--T", "1", "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".tmp-" not in err


@pytest.mark.parametrize("command", ["generate", "verify", "evaluate"])
def test_negative_seed_names_the_flag(tmp_path, capsys, command):
    inst, res = _solved(tmp_path)
    argv = {
        "generate": ["generate", "--n", "1", "--m", "1", "--p", "1", "--T", "1",
                     "--out", str(tmp_path / "g.json")],
        "verify": ["verify", str(inst), str(res)],
        "evaluate": ["evaluate", str(inst), str(res / "controller.json"),
                     str(res / "worst_case.json")],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == EXIT_BAD_INPUT
    assert "error: --seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_zero_center_instance_solves_and_audits(tmp_path, capsys):
    # a zero nominal X0 or W[t] is PSD, so its ball is legal
    inst = _generate(tmp_path, n=2, m=1, p=2, T=2, seed=6, rho=0.3)
    doc = json.loads(inst.read_text())
    doc["ambiguity"]["nominal"]["X0"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["ambiguity"]["nominal"]["W"][1] = [[0.0, 0.0], [0.0, 0.0]]
    inst.write_text(json.dumps(doc))
    res = tmp_path / "res"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
        for argv in _audits(inst, res):
            assert main(argv) == EXIT_OK
    cov, _ = io.read_worst_case(str(res / "worst_case.json"))
    for block in (cov.X0, cov.W[1]):
        # the ball around zero is {Z >= 0 : tr Z <= rho^2}; nature leaves the center
        assert 0.0 < np.trace(block) <= 0.3**2 + 1e-12


def test_generate_rejects_infinite_radius(tmp_path, capsys):
    out = tmp_path / "inst.json"
    rc = main(["generate", "--n", "1", "--m", "1", "--p", "1", "--T", "1", "--rho", "inf",
               "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    assert "rho must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_names_infinite_radius_in_instance(tmp_path, capsys):
    inst = _generate(tmp_path, n=2, m=2, p=2, T=4, seed=1)
    doc = json.loads(inst.read_text())
    doc["ambiguity"]["rho_w"][3] = float("inf")  # written as the token Infinity
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", str(inst), "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_INPUT
    assert "rho_w[3] must be finite" in capsys.readouterr().err


def test_solve_names_malformed_scalar_in_instance(tmp_path, capsys):
    inst = _generate(tmp_path)
    doc = json.loads(inst.read_text())
    doc["ambiguity"]["rho_x0"] = [1.0]
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", str(inst), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{inst}: field 'ambiguity.rho_x0' must be a number, got [1.0]" in err
    assert not (tmp_path / "o").exists()


def test_solve_names_future_version_in_instance(tmp_path, capsys):
    inst = _generate(tmp_path)
    doc = json.loads(inst.read_text())
    doc["version"] = 99
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", str(inst), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    assert f"{inst}: field 'version' must be 1, got 99" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "column, value",
    [
        ("surrogate_gap", "nan"),
        ("surrogate_gap", "inf"),
        ("surrogate_gap", "-inf"),
        ("f_value", "-inf"),
        ("elapsed_ms", "inf"),
    ],
)
def test_verify_rejects_non_finite_trace_value(tmp_path, capsys, column, value):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=2, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    path = res / "trace.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    last[header.index(column)] = value
    lines[-1] = ",".join(last)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{path}: line {len(lines)}: column '{column}' is not finite" in err


def test_verify_names_a_trace_without_iterations(tmp_path, capsys):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=2, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    path = res / "trace.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")  # the header alone
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "  - trace.csv holds no iterations\n" in out
    assert "strictly increasing" not in out


@pytest.mark.parametrize("field, value", [("f_value", "NaN"), ("final_gap", "Infinity")])
def test_verify_rejects_non_finite_value_in_bundle(tmp_path, capsys, field, value):
    inst = _generate(tmp_path, n=2, m=2, p=2, T=2, seed=2, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    path = res / "worst_case.json"
    doc = json.loads(path.read_text())
    doc[field] = float(value.lower())
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{path}: field '{field}' must be finite, got {value}" in err


def _count_calls(monkeypatch, func):
    """Count the calls of ``func`` through every drlqg module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    for name, module in list(_sys.modules.items()):
        if name.split(".")[0] == "drlqg":
            for attr, obj in list(vars(module).items()):
                if obj is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_solve_and_verify_run_each_recursion_only_where_needed(tmp_path, monkeypatch):
    inst = _generate(tmp_path, n=3, m=2, p=2, T=4, seed=1, rho=0.5)
    res = tmp_path / "res"
    riccati = _count_calls(monkeypatch, lqg.riccati_backward)
    kalman = _count_calls(monkeypatch, lqg._kalman_forward_raw)
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    assert len(riccati) == 1  # the gains of the Frank-Wolfe loop are the controller's
    riccati.clear()
    kalman.clear()
    assert main(["verify", str(inst), str(res), "--samples", "5"]) == EXIT_OK
    assert len(riccati) == 1 and len(kalman) == 1  # one audit, inside saddle_check


def _solved(tmp_path, **dims):
    inst = _generate(tmp_path, **dims)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    return inst, res


def _audits(inst, res):
    yield ["verify", str(inst), str(res), "--samples", "5"]
    yield [
        "evaluate", str(inst), str(res / "controller.json"), str(res / "worst_case.json"),
        "--rollouts", "100",
    ]


@pytest.mark.parametrize(
    "field, edit, message",
    [
        ("K", lambda K: K[:-1], "K: expected 3 matrices, got 2"),
        ("K", lambda K: 5.0, "field 'K' is not a list of matrices (shape ())"),
        ("L", lambda L: [[r[:1] for r in mat] for mat in L], "L[0]: expected shape (2, 2), got"),
        ("U_output", lambda U: U[:-1], "U_output: expected shape (3, 6), got (2, 6)"),
        ("U_output", lambda U: [r[:-1] + [1.0] for r in U], "U_output: block (0,2) above the"),
    ],
    ids=["K-stages", "K-scalar", "L-shape", "U-shape", "U-not-causal"],
)
def test_malformed_controller_names_file_and_field(tmp_path, capsys, field, edit, message):
    inst, res = _solved(tmp_path, n=2, m=1, p=2, T=3, seed=4)
    path = res / "controller.json"
    doc = json.loads(path.read_text())
    doc[field] = edit(doc[field])
    path.write_text(json.dumps(doc))
    for args in _audits(inst, res):
        capsys.readouterr()
        assert main(args) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and message in err


def test_bundle_of_another_instance_names_the_mismatch(tmp_path, capsys):
    _, res = _solved(tmp_path, n=2, m=1, p=2, T=3, seed=4)
    other = _generate(tmp_path, "other.json", n=3, m=1, p=2, T=2, seed=5)
    for args in _audits(other, res):
        capsys.readouterr()
        assert main(args) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert str(res / "worst_case.json") in err
        assert "(n=2, p=2, T=3) does not match system (n=3, p=2, T=2)" in err


_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not available")


sys.meta_path.insert(0, NoScipy())
from drlqg.cli import main

inst, res = sys.argv[1] + "/inst.json", sys.argv[1] + "/res"
dims = ["--n", "2", "--m", "2", "--p", "2", "--T", "2"]
codes = [
    main(["generate", *dims, "--out", inst]),
    main(["solve", inst, "--out", res]),
    main(["verify", inst, res, "--samples", "5"]),
    main(["evaluate", inst, res + "/controller.json", res + "/worst_case.json",
          "--rollouts", "1000"]),
]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only dependency: every command must run where scipy cannot be imported
    src = str(Path(drlqg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [_sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
