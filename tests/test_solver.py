import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from drlqg import (
    AmbiguitySpec,
    CovarianceProfile,
    FWConfig,
    LinearPurifiedController,
    assemble_controller,
    build_stacked,
    controller_cost_trace,
    generate_instance,
    grad_f,
    lqg_value,
    output_to_purified,
    saddle_check,
    solve,
    unroll_kalman,
)
from drlqg import solver
from drlqg.ambiguity import sample_feasible_blocks
from drlqg.stacked import _first_order_bound

from helpers import random_causal_gain, random_profile, random_system, scalar_ones


def _scalar_instance(rho=0.1):
    sys, cov = scalar_ones()
    amb = AmbiguitySpec(nominal=cov, rho_x0=rho, rho_w=(rho,), rho_v=(rho,))
    return sys, amb


def test_config_validation():
    with pytest.raises(ValueError):
        FWConfig(delta=1.0)
    with pytest.raises(ValueError):
        FWConfig(delta=0.0)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^tol must be positive and finite"):
            FWConfig(tol=tol)
    with pytest.raises(ValueError):
        FWConfig(max_iter=0)
    with pytest.raises(ValueError, match="step"):
        FWConfig(step="bogus")
    assert FWConfig().step == "open-loop"


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
    assert np.array_equal(sol.controller.K[0], nominal_ctrl.K[0])
    assert np.array_equal(sol.controller.L[0], nominal_ctrl.L[0])


@pytest.mark.parametrize("step", ["open-loop", "line"])
def test_solve_controller_is_assembled_at_the_worst_case(step):
    sys, amb, _ = generate_instance(3, 2, 2, 4, seed=8, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4, step=step))
    ref = assemble_controller(sys, sol.worst_case)
    assert len(sol.controller.K) == len(sol.controller.L) == sys.T
    for got, want in zip(sol.controller.K + sol.controller.L, ref.K + ref.L):
        assert np.array_equal(got, want)


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


# ------------------------------------------------------------- line search

LINE_CASES = [  # (n, m, p, T, seed, rho)
    (3, 2, 1, 4, 11, 0.5),
    (2, 3, 4, 1, 12, 1.0),
    (1, 1, 1, 1, 13, 2.0),
    (4, 4, 4, 4, 14, 2.0),
]


@pytest.mark.parametrize("n,m,p,T,seed,rho", LINE_CASES)
def test_line_search_solve(n, m, p, T, seed, rho):
    sys, amb, _ = generate_instance(n, m, p, T, seed=seed, rho=rho)
    balls = amb.balls()
    iterates = []

    def on_iterate(k, cov, gap):
        iterates.append(cov)
        for ball, block in zip(balls, [cov.X0, *cov.W, *cov.V]):
            assert ball.contains(block, tol=1e-7)

    cfg = FWConfig(tol=1e-4, step="line")
    sol = solve(sys, amb, cfg, on_iterate=on_iterate)
    assert sol.converged
    fs = [rec.f_value for rec in sol.trace]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    scale = max(1.0, abs(sol.f_value))
    assert all(rec.surrogate_gap >= -1e-9 * scale for rec in sol.trace)
    # the value carried over from the accepted trial is the iterate's own
    assert fs == [lqg_value(sys, cov) for cov in iterates]

    again = solve(sys, amb, cfg)
    assert [(r.k, r.f_value, r.surrogate_gap) for r in again.trace] == [
        (r.k, r.f_value, r.surrogate_gap) for r in sol.trace
    ]
    assert saddle_check(sys, amb, sol, n_samples=20, seed=0).passed

    ref = solve(sys, amb, FWConfig(tol=1e-4))
    assert ref.converged
    assert len(sol.trace) <= len(ref.trace)
    width = max(sol.final_gap, ref.final_gap) / cfg.delta
    assert abs(sol.f_value - ref.f_value) <= width


def test_line_search_falls_back_to_higher_bracket_end(monkeypatch):
    # With an empty acceptance window every search that leaves alpha = 1
    # runs out of trials and must take the higher end of its last bracket.
    monkeypatch.setattr(solver, "_LINE_CURVATURE", 0.0)
    monkeypatch.setattr(solver, "_LINE_MAX_TRIALS", 3)
    sys, amb, _ = generate_instance(4, 4, 4, 4, seed=14, rho=2.0)
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    assert sol.converged
    fs = [rec.f_value for rec in sol.trace]
    assert all(b > a for a, b in zip(fs, fs[1:]))


def test_line_search_refuses_a_point_that_lowers_f(monkeypatch):
    # Trials valued below the current iterate are refused: the iterate stays
    # put, so the solve repeats its first iteration until the cap.
    evaluate = solver._evaluate
    calls = []

    def lowered(sys, ric, blocks):
        f, grads = evaluate(sys, ric, blocks)
        calls.append(None)
        return (f if len(calls) == 1 else -np.inf), grads

    monkeypatch.setattr(solver, "_evaluate", lowered)
    sys, amb, _ = generate_instance(3, 2, 1, 4, seed=11, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4, max_iter=3, step="line"))
    assert not sol.converged
    first = (sol.trace[0].f_value, sol.trace[0].surrogate_gap)
    assert [(r.k, r.f_value, r.surrogate_gap) for r in sol.trace] == [
        (k, *first) for k in range(3)
    ]
    assert len(calls) > 3


def test_line_search_cap_returns_best_iterate_flagged():
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-12, max_iter=2, step="line"))
    assert not sol.converged
    assert len(sol.trace) == 2
    assert sol.final_gap == min(rec.surrogate_gap for rec in sol.trace)


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


def test_saddle_check_rejects_negative_sample_count():
    sys, amb = _scalar_instance(rho=0.1)
    sol = solve(sys, amb)
    with pytest.raises(ValueError, match="n_samples"):
        saddle_check(sys, amb, sol, n_samples=-1)
    assert saddle_check(sys, amb, sol, n_samples=0).passed


def _tripled(sys, sol):
    """The worst case scaled 3x, out of every ball, with its own value and controller."""
    cov = CovarianceProfile(
        X0=3 * sol.worst_case.X0,
        W=[3 * w for w in sol.worst_case.W],
        V=[3 * v for v in sol.worst_case.V],
    )
    return dataclasses.replace(
        sol,
        worst_case=cov,
        f_value=lqg_value(sys, cov),
        controller=assemble_controller(sys, cov),
    )


def _bumped_filter_gain(sol, t=2):
    L = [l.copy() for l in sol.controller.L]
    L[t][0, 0] += 1e-6
    return dataclasses.replace(sol, controller=dataclasses.replace(sol.controller, L=L))


@pytest.mark.parametrize(
    "tamper, flagged",
    [
        (
            lambda sys, sol: dataclasses.replace(
                sol,
                controller=dataclasses.replace(
                    sol.controller, K=[np.zeros_like(k) for k in sol.controller.K]
                ),
            ),
            [f"stored feedback gain K[{t}] does not match recomputation" for t in range(4)],
        ),
        (
            lambda sys, sol: _bumped_filter_gain(sol),
            ["stored filter gain L[2] does not match recomputation"],
        ),
        (
            lambda sys, sol: dataclasses.replace(sol, f_value=sol.f_value * (1 + 1e-6)),
            ["claimed value"],
        ),
        (
            _tripled,
            [f"worst-case block {name} is outside its ambiguity ball"
             for name in ["X0", *(f"W[{t}]" for t in range(4)), *(f"V[{t}]" for t in range(4))]],
        ),
    ],
    ids=["zero-K", "L-entry", "value", "tripled-worst-case"],
)
def test_saddle_check_flags_what_the_solution_claims(tamper, flagged):
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4))
    assert sol.converged
    assert saddle_check(sys, amb, sol, n_samples=10).claim_violations == ()
    report = saddle_check(sys, amb, tamper(sys, sol), n_samples=10)
    assert not report.passed
    for message in flagged:
        assert any(v.startswith(message) for v in report.claim_violations), message
    assert len(report.claim_violations) == len(flagged)


def test_saddle_check_names_a_controller_that_does_not_fit():
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4))
    short = dataclasses.replace(sol.controller, K=sol.controller.K[:-1])
    with pytest.raises(ValueError, match="K: expected 4 matrices, got 3"):
        saddle_check(sys, amb, dataclasses.replace(sol, controller=short), n_samples=0)


def test_saddle_check_memory_does_not_grow_with_samples():
    # nature samples are priced as they are drawn, one oracle group at a
    # time, so 300 more samples at n = T = 20 (0.13 MiB each if all were
    # held) leave the peak where it was
    sys, amb, _ = generate_instance(20, 20, 20, 20, seed=0, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-2))
    peaks = {}
    for n_samples in (100, 400):
        tracemalloc.start()
        try:
            saddle_check(sys, amb, sol, n_samples=n_samples)
            peaks[n_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] - peaks[100] <= 2 * 2**20


# ------------------------------------------------- exact saddle certificates


def _mixed_radius_instance(rng, n, m, p, T):
    """A random system whose ambiguity set has zero radius on some blocks."""
    sys = random_system(rng, n, m, p, T)
    amb = AmbiguitySpec(
        nominal=random_profile(rng, n, p, T),
        rho_x0=0.0,
        rho_w=tuple(0.4 * (t % 2) for t in range(T)),
        rho_v=tuple(0.3 * ((t + 1) % 2) for t in range(T)),
    )
    return sys, amb


def _profile(blocks, T):
    return CovarianceProfile(X0=blocks[0], W=blocks[1 : 1 + T], V=blocks[1 + T :])


def _purified_kalman(sys, cov, st):
    return output_to_purified(unroll_kalman(sys, cov), st)


def test_envelope_identity_prices_feasible_profiles():
    # The Kalman controller at Z is linear in the noise covariances with
    # weights grad f(Z): the stacked trace formula and the adjoint sweep are
    # two independent routes to the same number.
    rng = np.random.default_rng(41)
    for n, m, p, T in [(3, 2, 1, 4), (2, 3, 4, 1), (1, 1, 1, 1), (4, 1, 2, 3)]:
        sys, amb = _mixed_radius_instance(rng, n, m, p, T)
        balls = amb.balls()
        cov = _profile(sample_feasible_blocks(balls, rng), T)
        st = build_stacked(sys)
        upur = _purified_kalman(sys, cov, st)
        grads = grad_f(sys, cov).flat()
        for _ in range(5):
            blocks = sample_feasible_blocks(balls, rng)
            exact = controller_cost_trace(st, upur, _profile(blocks, T))
            priced = sum(float(np.vdot(g, z)) for g, z in zip(grads, blocks))
            assert abs(priced - exact) <= 1e-12 * abs(exact)


def test_first_order_bound_brackets_the_optimum():
    rng = np.random.default_rng(42)
    for n, m, p, T in [(3, 2, 1, 4), (2, 3, 4, 1), (2, 2, 2, 3)]:
        sys, amb = _mixed_radius_instance(rng, n, m, p, T)
        cov = _profile(sample_feasible_blocks(amb.balls(), rng), T)
        st = build_stacked(sys)
        best = controller_cost_trace(st, _purified_kalman(sys, cov, st), cov)
        for _ in range(3):
            U = random_causal_gain(rng, m, p, T, scale=0.3)
            ctrl = LinearPurifiedController(U=U, q=np.zeros(m * T), m=m, p=p, T=T)
            cost = controller_cost_trace(st, ctrl, cov)
            bound = _first_order_bound(st, U, cov)
            assert bound > 0.0
            assert cost - bound <= best * (1.0 + 1e-12) and best <= cost
