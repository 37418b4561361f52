import numpy as np
import pytest

from drlqg import (
    AmbiguitySpec,
    FWConfig,
    assemble_controller,
    generate_instance,
    lqg_value,
    saddle_check,
    solve,
)

from helpers import random_profile, scalar_ones


def _scalar_instance(rho=0.1):
    sys, cov = scalar_ones()
    amb = AmbiguitySpec(nominal=cov, rho_x0=rho, rho_w=(rho,), rho_v=(rho,))
    return sys, amb


def test_config_validation():
    with pytest.raises(ValueError):
        FWConfig(delta=1.0)
    with pytest.raises(ValueError):
        FWConfig(delta=0.0)
    with pytest.raises(ValueError):
        FWConfig(tol=0.0)
    with pytest.raises(ValueError):
        FWConfig(max_iter=0)


def test_zero_radii_recovers_nominal_lqg():
    sys, _ = _scalar_instance()
    amb = AmbiguitySpec(nominal=_scalar_instance()[1].nominal, rho_x0=0.0, rho_w=(0.0,), rho_v=(0.0,))
    sol = solve(sys, amb)
    assert sol.converged
    assert len(sol.trace) == 1
    assert sol.final_gap == 0.0
    assert np.array_equal(sol.worst_case.X0, amb.nominal.X0)
    assert np.array_equal(sol.worst_case.W[0], amb.nominal.W[0])
    assert np.array_equal(sol.worst_case.V[0], amb.nominal.V[0])
    nominal_ctrl = assemble_controller(sys, amb.nominal)
    assert np.array_equal(sol.controller.riccati.K[0], nominal_ctrl.riccati.K[0])
    assert np.array_equal(sol.controller.kalman.L[0], nominal_ctrl.kalman.L[0])


def test_solve_scalar_improves_on_nominal():
    sys, amb = _scalar_instance(rho=0.1)
    sol = solve(sys, amb)
    assert sol.converged
    assert sol.f_value >= lqg_value(sys, amb.nominal) - 1e-12
    assert sol.final_gap <= FWConfig().tol


def test_iterates_stay_feasible_and_gaps_nonnegative():
    sys, amb, _ = generate_instance(2, 2, 2, 3, seed=3, rho=0.3)
    balls = amb.balls()
    seen = []

    def on_iterate(k, cov, gap):
        seen.append(k)
        for ball, block in zip(balls, [cov.X0, *cov.W, *cov.V]):
            assert ball.contains(block, tol=1e-7)

    sol = solve(sys, amb, FWConfig(tol=1e-3), on_iterate=on_iterate)
    assert sol.converged
    assert seen == [rec.k for rec in sol.trace]
    scale = max(1.0, abs(sol.f_value))
    for rec in sol.trace:
        assert rec.surrogate_gap >= -1e-9 * scale


def test_trace_wall_times_nondecreasing():
    sys, amb, _ = generate_instance(2, 2, 2, 2, seed=4, rho=0.2)
    sol = solve(sys, amb)
    times = [rec.wall_time for rec in sol.trace]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_solve_is_deterministic():
    sys, amb, _ = generate_instance(2, 2, 2, 3, seed=5, rho=0.3)
    a = solve(sys, amb)
    b = solve(sys, amb)
    assert [(r.k, r.f_value, r.surrogate_gap) for r in a.trace] == [
        (r.k, r.f_value, r.surrogate_gap) for r in b.trace
    ]
    assert np.array_equal(a.worst_case.X0, b.worst_case.X0)


def test_iteration_cap_returns_best_iterate_flagged():
    sys, amb, _ = generate_instance(2, 2, 2, 3, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-12, max_iter=4))
    assert not sol.converged
    assert len(sol.trace) == 4
    assert sol.final_gap == min(rec.surrogate_gap for rec in sol.trace)
    # the reported value belongs to the min-gap iterate
    k_best = min(sol.trace, key=lambda rec: rec.surrogate_gap).k
    assert sol.f_value == sol.trace[k_best].f_value


def test_solve_rejects_mismatched_ambiguity():
    sys, _ = scalar_ones()
    rng = np.random.default_rng(8)
    amb = AmbiguitySpec(
        nominal=random_profile(rng, 2, 2, 1), rho_x0=0.1, rho_w=(0.1,), rho_v=(0.1,)
    )
    with pytest.raises(ValueError):
        solve(sys, amb)


# ------------------------------------------------------------ saddle audit


def test_saddle_check_passes_on_converged_scalar():
    sys, amb = _scalar_instance(rho=0.1)
    sol = solve(sys, amb)
    report = saddle_check(sys, amb, sol, n_samples=30, seed=0)
    assert report.passed
    assert report.n_samples == 30


def test_saddle_check_flags_truncated_run():
    # Stopping far short of the tolerance leaves nature an exploitable gap;
    # the audit's best-response candidate must expose it.
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4, max_iter=5))
    assert not sol.converged
    report = saddle_check(sys, amb, sol, n_samples=10, seed=1)
    assert len(report.nature_violations) >= 1
    assert not report.passed


def test_saddle_check_zero_radii_trivially_passes():
    sys, _ = scalar_ones()
    amb = AmbiguitySpec(
        nominal=_scalar_instance()[1].nominal, rho_x0=0.0, rho_w=(0.0,), rho_v=(0.0,)
    )
    sol = solve(sys, amb)
    report = saddle_check(sys, amb, sol, n_samples=10, seed=2)
    assert report.passed
