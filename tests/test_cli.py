import json
import os
import re
import subprocess
import sys as _sys
import warnings
from pathlib import Path

import numpy as np

import pytest

import drlqg
from drlqg import FWConfig, assemble_controller, lqg_value, solve
from drlqg import cli, io, lqg
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


def test_verify_compares_gains_at_their_own_scale(tmp_path, capsys):
    # With every A[t] scaled by 1e-9, max|K| is about 5e-11: zeroed K and
    # U_output lie within an absolute 1e-8 of the recomputed gains, but not
    # within 1e-8 of their largest entry.
    inst = _generate(tmp_path, n=3, m=2, p=3, T=4, seed=2, rho=0.5)
    doc = json.loads(inst.read_text())
    doc["system"]["A"] = [[[1e-9 * x for x in row] for row in A] for A in doc["system"]["A"]]
    inst.write_text(json.dumps(doc))
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res), "--tol", "1e-6"]) == EXIT_OK
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_OK
    ctrl_path = res / "controller.json"
    ctrl = json.loads(ctrl_path.read_text())
    assert 0.0 < np.max(np.abs(ctrl["K"])) < 1e-9
    ctrl["K"] = np.zeros_like(ctrl["K"]).tolist()
    ctrl["U_output"] = np.zeros_like(ctrl["U_output"]).tolist()
    ctrl_path.write_text(json.dumps(ctrl))
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_VERIFY_FAILED
    assert "stored feedback gain K[0] does not match recomputation" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, finding",
    [
        (
            {"final_gap": 5.0},
            "converged=True disagrees with final gap 5.000e+00 against tol 1.000e-04",
        ),
        ({"converged": False}, "converged=False disagrees with final gap"),
        ({"iterations": 99}, "worst_case.json iterations 99 disagrees with the "),
    ],
    ids=["final-gap", "converged", "iterations"],
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


def _renumbered(path, first):
    lines = path.read_text().splitlines()
    rows = [f"{first + i},{line.split(',', 1)[1]}" for i, line in enumerate(lines[1:])]
    path.write_text("\n".join([lines[0], *rows]) + "\n")


def _max_iter(path, value):
    doc = json.loads(path.read_text())
    doc["config"]["max_iter"] = value
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name, edit, finding",
    [
        ("trace.csv", lambda path: _renumbered(path, 7), "trace rows are not numbered 0..2"),
        ("worst_case.json", lambda path: _max_iter(path, 2), "3 trace rows exceed max_iter 2"),
    ],
    ids=["shifted-iter", "max-iter"],
)
def test_verify_checks_the_trace_against_the_run_record(tmp_path, capsys, name, edit, finding):
    inst = _generate(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    assert len((res / "trace.csv").read_text().splitlines()) == 4  # the header and 3 rows
    edit(res / name)
    capsys.readouterr()
    assert main(["verify", str(inst), str(res), "--samples", "5"]) == EXIT_VERIFY_FAILED
    assert capsys.readouterr().out.endswith(f"(1 finding(s)):\n  - {finding}\n")


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
    assert err.startswith("error: gradient block X0: radius ")
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


def test_verify_names_the_block_and_sample_of_an_unresolved_radius(tmp_path, capsys):
    # every Q zero makes every gradient zero, so solve passes the radius 1e20
    # of W[1]; the first nature sample's oracle cannot resolve it
    inst = _generate(tmp_path, n=2, m=2, p=2, T=3, seed=0, rho=0.5)
    doc = json.loads(inst.read_text())
    doc["system"]["Q"] = [[[0.0] * len(row) for row in q] for q in doc["system"]["Q"]]
    doc["ambiguity"]["rho_w"] = [0.5, 1e20, 0.5]
    inst.write_text(json.dumps(doc))
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(inst), str(res), "--samples", "5"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: gradient block W[1] of nature sample 0: radius 1.000e+20 ")


@pytest.mark.parametrize(
    "name, path",
    [("controller.json", ("K", 0, 0, 0)), ("worst_case.json", ("covariance", "X0", 0, 0))],
    ids=["K", "X0"],
)
def test_evaluate_fails_on_a_non_finite_estimate(tmp_path, capsys, name, path):
    # a finite 1e300 overflows the rollouts; no RuntimeWarning may escape
    # (the suite runs with warnings as errors) and no agreement is claimed
    inst, res = _solved(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    doc = json.loads((res / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 1e300
    (res / name).write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(
        [
            "evaluate", str(inst), str(res / "controller.json"), str(res / "worst_case.json"),
            "--rollouts", "50",
        ]
    )
    assert rc == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "NON-FINITE ESTIMATE: " in out and "monte carlo" in out.splitlines()[-1]
    assert "agreement" not in out


def test_evaluate_reports_a_disagreement(tmp_path, capsys):
    # a causal U_output that is not the Kalman controller's: the exact cost
    # is that of U_output, the rollouts run the stored K and L
    inst, res = _solved(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    path = res / "controller.json"
    doc = json.loads(path.read_text())
    doc["U_output"][0][0] += 5.0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(
        [
            "evaluate", str(inst), str(path), str(res / "worst_case.json"),
            "--rollouts", "2000",
        ]
    )
    assert rc == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "DISAGREEMENT: |mean - exact| = " in out
    assert not any(line.startswith("agreement") for line in out.splitlines())


def test_evaluate_prices_the_stored_output_gain_without_converting_it(
    tmp_path, capsys, monkeypatch
):
    # U_output is priced as it is stored: no noise-free twin and no stacked D
    inst, res = _solved(tmp_path, n=3, m=2, p=4, T=3, seed=0, rho=0.5)
    args = [
        "evaluate", str(inst), str(res / "controller.json"), str(res / "worst_case.json"),
        "--rollouts", "2000",
    ]
    capsys.readouterr()
    assert main(args) == EXIT_OK
    expected = capsys.readouterr().out

    def refused(*args):
        raise AssertionError("evaluate converted a gain")

    monkeypatch.setattr("drlqg.stacked._twin", refused)
    monkeypatch.setattr("drlqg.cli.build_stacked", refused, raising=False)
    assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    assert out == expected and len(out.splitlines()) == 3


def _no_non_finite_number(text):
    return not re.search(r"\b(inf|nan)\b", text, re.IGNORECASE)


@pytest.mark.parametrize(
    "field, message",
    [("A", "error: Riccati recursion overflows at stage 0\n"), ("Q", "error: gradient block X0: ")],
    ids=["A", "Q"],
)
def test_an_overflowing_system_is_bad_input(tmp_path, capsys, field, message):
    # 1e300 in A overflows the Riccati recursion; in Q it makes a gradient
    # whose radius double precision cannot resolve; no warning escapes
    inst, res = _solved(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    doc = json.loads(inst.read_text())
    doc["system"][field][0][0][0] = 1e300
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    for args in (
        ["solve", str(huge), "--out", str(tmp_path / "o")],
        ["verify", str(huge), str(res), "--samples", "5"],
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert err.startswith(message)
        assert _no_non_finite_number(out + err)


@pytest.mark.parametrize(
    "path, value, message",
    [
        # the oracle's bisection cannot close the bracket of a 1e300 center
        (("ambiguity", "nominal", "V", 0, 0, 0), 1e300, "error: gradient block V[0]: bisection "),
        # C S C' + V at stage 1 loses its definiteness to roundoff
        (
            ("ambiguity", "nominal", "W", 0, 0, 0),
            1e300,
            "error: Kalman recursion fails at stage 1: C[1] Sigma_pred[1] C[1]' + V[1] "
            "is not positive definite\n",
        ),
        # A + A' of these overflows, so symmetrize halves them first
        (
            ("ambiguity", "nominal", "X0", 0, 0),
            1.7e308,
            "error: Kalman recursion overflows at stage 0\n",
        ),
        (("system", "Q", 0, 0, 0), 1.7e308, "error: Riccati recursion overflows at stage 0\n"),
    ],
    ids=["V 1e300", "W 1e300", "X0 1.7e308", "Q 1.7e308"],
)
def test_a_huge_finite_entry_is_bad_input_named_at_its_source(
    tmp_path, capsys, path, value, message
):
    inst = _generate(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    doc = json.loads(inst.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(huge), "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert err.startswith(message)
    assert out == ""


def test_verify_reports_an_overflowing_bound_in_finite_terms(tmp_path, capsys):
    # 1e300 in the worst-case X0 overflows the controller-side bound, which
    # once printed "cost -inf undercuts f by inf" after two RuntimeWarnings
    inst, res = _solved(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    path = res / "worst_case.json"
    doc = json.loads(path.read_text())
    doc["covariance"]["X0"][0][0] = 1e300
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(inst), str(res), "--samples", "5"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "  - controller-side violation (first-order): the certified bound overflows\n" in out
    assert _no_non_finite_number(out)


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


def test_the_cached_parser_parses_each_call_afresh(monkeypatch):
    # main builds its parser once per process: a parse must leave nothing
    # that the next call sees, whether another command or the same one
    # without its options
    seen = []
    for command in ("evaluate", "verify"):
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: seen.append(vars(args)) or EXIT_OK)
    files = ["i.json", "c.json", "w.json"]
    assert main(["evaluate", *files, "--rollouts", "7", "--seed", "3"]) == EXIT_OK
    assert main(["verify", "i.json", "r"]) == EXIT_OK
    assert main(["evaluate", *files]) == EXIT_OK
    evaluate = dict(command="evaluate", instance="i.json", controller="c.json", covariance="w.json")
    assert seen == [
        {**evaluate, "rollouts": 7, "seed": 3},
        {"command": "verify", "instance": "i.json", "result_dir": "r", "samples": 100, "seed": 0},
        {**evaluate, "rollouts": 100000, "seed": 0},
    ]
    assert cli._build_parser() is cli._build_parser()


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


def _failing_temp_rename(monkeypatch):
    """Make every rename of a new temporary file fail with EACCES; putting an
    old file back (from a ``-old-`` name) still works."""
    for fn in ("rename", "replace"):
        real = getattr(os, fn)

        def fail(src, dst, *args, _real=real, **kwargs):
            name = os.path.basename(src)
            if name.startswith(".tmp-") and "-old-" not in name:
                raise PermissionError(13, "Permission denied", src)
            return _real(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, fn, fail)


def test_failed_rename_puts_the_old_file_back(tmp_path, capsys, monkeypatch):
    out = _generate(tmp_path, name="g.json", seed=1)
    before = out.read_bytes()
    capsys.readouterr()
    _failing_temp_rename(monkeypatch)
    rc = main(["generate", "--n", "1", "--m", "1", "--p", "1", "--T", "1", "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"Permission denied: '{out}'" in err
    assert ".tmp-" not in err
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["g.json"]


def test_generate_onto_a_directory_leaves_it_alone(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    rc = main(["generate", "--n", "1", "--m", "1", "--p", "1", "--T", "1", "--out", str(out)])
    assert rc == EXIT_BAD_INPUT
    assert f"Is a directory: '{out}'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["d"]
    assert os.listdir(out) == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept\n"


def test_solve_rejects_a_boolean_matrix_entry(tmp_path, capsys):
    # numpy would read true as 1.0 and solve another plant
    inst = _generate(tmp_path, n=2, m=1, p=2, T=2, seed=0, rho=0.5)
    doc = json.loads(inst.read_text())
    doc["system"]["A"][0][0][0] = True
    inst.write_text(json.dumps(doc))
    assert main(["solve", str(inst), "--out", str(tmp_path / "res")]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"error: {inst}: field 'system.A[0][0][0]' must be a number, got true" in err
    assert not (tmp_path / "res").exists()


def test_solve_ends_on_a_refused_line_search_step(tmp_path, capsys):
    # With radii of 1e6 the line search refuses its step at some iteration,
    # and the iterate cannot move after that: the run ends there, not
    # converged, with the minimum-gap iterate it would keep up to the cap.
    inst = _generate(tmp_path, n=3, m=2, p=4, T=1, seed=1, rho=0.5)
    doc = json.loads(inst.read_text())
    doc["ambiguity"].update(rho_x0=1e6, rho_w=[1e6], rho_v=[1e6])
    inst.write_text(json.dumps(doc))
    res = tmp_path / "res"
    capsys.readouterr()
    rc = main(["solve", str(inst), "--out", str(res), "--tol", "1e-6"])
    assert rc == EXIT_NOT_CONVERGED
    assert "f=2.025333911e+12 gap=4.771e+06" in capsys.readouterr().out
    rows = (res / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) < 1000
    assert json.loads((res / "worst_case.json").read_text())["iterations"] == len(rows)


def test_solve_out_onto_a_file_fails_before_solving(tmp_path, capsys, monkeypatch):
    inst = _generate(tmp_path)
    out = tmp_path / "taken"
    out.write_text("kept\n")

    def never(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(drlqg.cli, "solve", never)
    assert main(["solve", str(inst), "--out", str(out)]) == EXIT_BAD_INPUT
    assert f"error: --out {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_solve_out_under_a_file_fails_before_solving(tmp_path, capsys, monkeypatch):
    inst = _generate(tmp_path)
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")

    def never(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(drlqg.cli, "solve", never)
    out = blocker / "sub" / "deeper"
    assert main(["solve", str(inst), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"error: --out {out} cannot be made: {blocker} is not a directory" in err
    assert blocker.read_text() == "kept\n"
    assert main(["solve", str(inst), "--out", ""]) == EXIT_BAD_INPUT
    assert "error: --out must name a directory" in capsys.readouterr().err


def test_written_files_get_the_umask_mode(tmp_path):
    previous = os.umask(0o022)
    try:
        inst, res = _solved(tmp_path)
    finally:
        os.umask(previous)
    for path in (inst, res / "worst_case.json", res / "controller.json", res / "trace.csv"):
        assert oct(os.stat(path).st_mode & 0o777) == oct(0o644), path


def _trace_columns(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_resolve_renames_onto_free_names_only(tmp_path, monkeypatch):
    inst = _generate(tmp_path, n=2, m=2, p=2, T=2, seed=4, rho=0.3)
    res = tmp_path / "res"
    res.mkdir()
    (res / "notes.txt").write_text("not drlqg's\n")
    calls = []
    for fn in ("rename", "replace"):
        real = getattr(os, fn)

        def spy(src, dst, *args, _real=real, **kwargs):
            calls.append((str(dst), os.path.lexists(dst)))
            return _real(src, dst, *args, **kwargs)

        monkeypatch.setattr(io.os, fn, spy)

    bundles = []
    for _ in range(2):
        assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
        bundles.append(
            ((res / "worst_case.json").read_bytes(), (res / "controller.json").read_bytes(),
             _trace_columns(res / "trace.csv"))
        )
    # three files written fresh, then three moved aside and replaced
    assert len(calls) == 3 + 3 * 2
    assert [dst for dst, existed in calls if existed] == []
    assert bundles[0] == bundles[1]
    assert (res / "notes.txt").read_text() == "not drlqg's\n"
    assert sorted(os.listdir(res)) == ["controller.json", "notes.txt", "trace.csv", "worst_case.json"]
    assert sorted(os.listdir(tmp_path)) == ["inst.json", "res"]


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


def test_solve_names_the_field_and_counts_of_too_few_radii(tmp_path, capsys):
    inst = _generate(tmp_path, n=2, m=2, p=2, T=3, seed=0, rho=0.5)
    doc = json.loads(inst.read_text())
    doc["ambiguity"]["rho_w"] = doc["ambiguity"]["rho_w"][:2]
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", str(inst), "--out", str(tmp_path / "res")]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{inst}: rho_w: expected 3 radii, one per stage, got 2" in err


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
    assert "  - the trace holds no iterations\n" in out
    assert "not numbered" not in out


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


def test_nominal_of_another_horizon_names_the_instance_field(tmp_path, capsys):
    inst, res = _solved(tmp_path, n=2, m=2, p=2, T=3, seed=4)
    doc = json.loads(inst.read_text())
    amb = doc["ambiguity"]
    for key in ("W", "V"):
        amb["nominal"][key] = amb["nominal"][key][:2]
    amb["rho_w"], amb["rho_v"] = amb["rho_w"][:2], amb["rho_v"][:2]
    inst.write_text(json.dumps(doc))
    for args in [["solve", str(inst), "--out", str(tmp_path / "o")], *_audits(inst, res)]:
        capsys.readouterr()
        assert main(args) == EXIT_BAD_INPUT
        assert (
            f"{inst}: field 'ambiguity.nominal': covariance profile (n=2, p=2, T=2) "
            "does not match system (n=2, p=2, T=3)"
        ) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
