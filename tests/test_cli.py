import json

import numpy as np

from drlqg import assemble_controller, lqg_value
from drlqg import io
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
        assert np.allclose(K[t], nominal.riccati.K[t], atol=1e-15)
        assert np.allclose(L[t], nominal.kalman.L[t], atol=1e-15)


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
        ["solve", str(inst), "--out", str(res), "--tol", "1e-4", "--max-iter", "5"]
    )
    assert rc == EXIT_NOT_CONVERGED
    rc = main(["verify", str(inst), str(res), "--samples", "10", "--seed", "1"])
    assert rc == EXIT_VERIFY_FAILED


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


def test_verify_rejects_negative_samples(tmp_path, capsys):
    inst = _generate(tmp_path, n=1, m=1, p=1, T=1, seed=0, rho=0.1)
    res = tmp_path / "res"
    assert main(["solve", str(inst), "--out", str(res)]) == EXIT_OK
    assert main(["verify", str(inst), str(res), "--samples", "-3"]) == EXIT_BAD_INPUT
    assert "--samples" in capsys.readouterr().err
    assert main(["verify", str(inst), str(res), "--samples", "0"]) == EXIT_OK
