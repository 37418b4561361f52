import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from drlqg import (
    AmbiguitySpec,
    CovarianceProfile,
    FWConfig,
    KalmanController,
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
from drlqg.ambiguity import _sample_feasible, oracle_maximize_blocks
from drlqg.lqg import TimeVaryingSystem, _block_labels, _split
from drlqg.linalg import min_eigval
from drlqg.stacked import _first_order_bound

from helpers import (
    block_diag,
    dense_factors,
    dense_stacked,
    random_causal_gain,
    random_profile,
    random_system,
    scalar_ones,
)
from reference_oracle import reference_sample_feasible


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
    with pytest.raises(ValueError):
        saddle_check(sys, amb, solve(*_scalar_instance()), n_samples=0)
    # an audit against the set of a shorter horizon once paired its 7 balls
    # with the first 7 of the solution's 9 blocks, and passed
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(max_iter=2))
    _, shorter, _ = generate_instance(3, 3, 3, 3, seed=7, rho=0.5)
    with pytest.raises(ValueError, match=r"\(n=3, p=3, T=3\) does not match system"):
        saddle_check(sys, shorter, sol, n_samples=0)


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


def test_solve_makes_one_kalman_pass_per_recorded_point(monkeypatch):
    # the start and each accepted step are evaluated once; no step follows
    # the last recorded iteration, and the controller's L is that of the
    # best iterate's own pass
    raw = solver._kalman_forward_raw
    passes = []

    def counted(sys, blocks):
        passes.append(None)
        return raw(sys, blocks)

    monkeypatch.setattr(solver, "_kalman_forward_raw", counted)
    sys, amb, _ = generate_instance(3, 2, 2, 4, seed=8, rho=0.5)
    for cfg, iterations in [
        (FWConfig(tol=1e-4), None),
        (FWConfig(tol=1e-12, max_iter=5), 5),
        (FWConfig(tol=1e-12, max_iter=1, step="line"), 1),
    ]:
        passes.clear()
        sol = solve(sys, amb, cfg)
        assert sol.converged == (iterations is None)
        if iterations is not None:
            assert len(sol.trace) == iterations
        assert len(passes) == len(sol.trace)
        fresh = raw(sys, sol.worst_case.blocks)
        assert all(np.array_equal(a, b) for a, b in zip(sol.controller.L, fresh.L))


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
    # Trials valued below the current iterate are refused: the iterate would
    # stay put, so the solve ends after its first iteration, not converged.
    evaluate = solver._evaluate
    calls = []

    def lowered(sys, ric, blocks):
        blocks, f, grads, kal = evaluate(sys, ric, blocks)
        calls.append(None)
        return blocks, (f if len(calls) == 1 else -np.inf), grads, kal

    monkeypatch.setattr(solver, "_evaluate", lowered)
    sys, amb, _ = generate_instance(3, 2, 1, 4, seed=11, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4, max_iter=3, step="line"))
    assert not sol.converged
    assert [rec.k for rec in sol.trace] == [0]
    assert (sol.f_value, sol.final_gap) == (sol.trace[0].f_value, sol.trace[0].surrogate_gap)
    assert len(calls) >= 2  # the start and at least one refused trial


def _scripted_line(monkeypatch, f_k):
    """``_line_search`` on one 1 x 1 block with h(a) = f(a D) set by hand, and its trials.

    h(a) = a - a^2 up to a = 0.5 and 0.25 - 0.1 (a - 0.5)^2 beyond: concave,
    h'(0) = 1 and h'(1) = -0.1, so the first secant step lands at 1/1.1,
    past the maximizer, where h' = -0.0818.
    """
    trials = []

    def evaluate(sys, ric, blocks):
        a = float(blocks[0][0, 0])
        trials.append(a)
        if a <= 0.5:
            return blocks, a - a * a, [np.array([[1.0 - 2.0 * a]])], None
        return blocks, 0.25 - 0.1 * (a - 0.5) ** 2, [np.array([[-0.2 * (a - 0.5)]])], None

    monkeypatch.setattr(solver, "_evaluate", evaluate)
    current = ([np.zeros((1, 1))], f_k, [np.array([[1.0]])], None)
    return solver._line_search(None, None, [np.ones((1, 1))], current, 1.0), trials


def test_line_search_accepts_a_trial_just_past_the_maximizer(monkeypatch):
    (blocks, f, _, _), trials = _scripted_line(monkeypatch, 0.0)
    alpha = 1.0 / 1.1
    assert trials == [1.0, alpha]
    assert -0.1 <= -0.2 * (alpha - 0.5) < 0.0  # -0.1 h'(0) <= h'(alpha) < 0
    assert blocks[0][0, 0] == alpha and f == 0.25 - 0.1 * (alpha - 0.5) ** 2


def test_line_search_never_returns_a_window_trial_that_lowers_f(monkeypatch):
    # every trial past a = 0.816 has h' in the window but h below 0.24
    (blocks, f, _, _), trials = _scripted_line(monkeypatch, 0.24)
    assert len(trials) > 2
    assert any(a > 0.5 and 0.25 - 0.1 * (a - 0.5) ** 2 < 0.24 for a in trials)
    assert f >= 0.24 and blocks[0][0, 0] in trials
    # with f_k above the maximum of h no trial qualifies, and the step is refused
    point, trials = _scripted_line(monkeypatch, 1.0)
    assert point is None and len(trials) == solver._LINE_MAX_TRIALS


def test_line_search_evaluations_of_a_seed_0_solve(monkeypatch):
    # The two-sided window takes 17 evaluations here; accepting only
    # 0 <= h'(alpha) <= 0.1 h'(0) took 21.
    evaluate = solver._evaluate
    calls = []

    def counting(sys, ric, blocks):
        calls.append(None)
        return evaluate(sys, ric, blocks)

    monkeypatch.setattr(solver, "_evaluate", counting)
    sys, amb, _ = generate_instance(10, 10, 10, 10, seed=0, rho=2.0)
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    assert sol.converged
    assert len(calls) < 21


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


def test_saddle_check_prices_the_reference_samples_bit_for_bit():
    # on the truncated negative control, every nature finding (label and
    # cost) is the one the per-ball sampler loop gives; the same run claiming
    # a value below half of the samples' costs lets those samples be findings too
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    truncated = solve(sys, amb, FWConfig(tol=1e-4, max_iter=5))
    balls, worst = amb.balls(), truncated.worst_case.blocks
    grads = grad_f(sys, truncated.worst_case).flat()
    best = oracle_maximize_blocks(balls, grads, worst, delta=0.99, labels=_block_labels(sys.T))
    samples = reference_sample_feasible(balls, np.random.default_rng(1), 100)
    costs = [
        (label, sum(float(np.vdot(g, z)) for g, z in zip(grads, blocks)))
        for label, blocks in [("best-response", [r.maximizer for r in best])]
        + [(f"sample-{i}", blocks) for i, blocks in enumerate(samples)]
    ]
    lowered = float(np.median([cost for _, cost in costs])) - 1e-3
    for sol in (truncated, dataclasses.replace(truncated, f_value=lowered)):
        report = saddle_check(sys, amb, sol, n_samples=100, seed=1)
        f, slack = sol.f_value, report.nature_slack
        expect = tuple((lab, cost, cost - f - slack) for lab, cost in costs if cost > f + slack)
        assert expect and report.nature_violations == expect
    assert len(report.nature_violations) > 40


def test_saddle_check_names_the_block_and_sample_of_an_unresolved_radius():
    # with every Q zero all gradients vanish, so the solve never meets the
    # radius 1e20 of W[1]; the nature samples' random directions do
    base, amb, _ = generate_instance(2, 2, 2, 3, seed=0, rho=0.5)
    sys = TimeVaryingSystem(A=base.A, B=base.B, C=base.C, Q=[0.0 * q for q in base.Q], R=base.R)
    amb = AmbiguitySpec(
        nominal=amb.nominal, rho_x0=0.5, rho_w=(0.5, 1e20, 0.5), rho_v=(0.5, 0.5, 0.5)
    )
    sol = solve(sys, amb, FWConfig(tol=1e-4))
    assert sol.converged and sol.f_value == 0.0
    assert saddle_check(sys, amb, sol, n_samples=0).passed
    with pytest.raises(
        ValueError, match=r"^gradient block W\[1\] of nature sample 0: radius 1\.000e\+20 is out"
    ):
        saddle_check(sys, amb, sol, n_samples=5)


def test_saddle_check_takes_the_worst_case_eigenvalues_from_a_read_profile(monkeypatch):
    # a validated worst case, as verify reads it, is not eigensolved again
    # for the membership test; a trusted one, as solve returns it, is
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    read = dataclasses.replace(sol, worst_case=CovarianceProfile(*_split(sol.worst_case.blocks)))
    reports, solved = [], []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: solved.append(None) or real(s))
    for s in (sol, read):
        solved.clear()
        reports.append(saddle_check(sys, amb, s, n_samples=3, seed=0))
        reports.append(len(solved))
    trusted, calls_trusted, validated, calls_validated = reports
    assert trusted == validated and validated.passed
    # trusted: one stacked call per block shape in the membership test (n = p
    # here, so one), and one per V in kalman_forward
    assert calls_trusted - calls_validated == 1 + sys.T


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


_OFF_TRACE = "final gap and value do not match the minimum-gap trace row"


def _bumped_filter_gain(sol, t=2):
    L = [l.copy() for l in sol.controller.L]
    L[t][0, 0] += 1e-6
    return dataclasses.replace(sol, controller=dataclasses.replace(sol.controller, L=L))


def _with_row(sol, k, **fields):
    """``sol`` with the trace row of iteration ``k`` changed by ``fields``."""
    trace = tuple(dataclasses.replace(r, **fields) if r.k == k else r for r in sol.trace)
    return dataclasses.replace(sol, trace=trace)


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
            ["claimed value", _OFF_TRACE],
        ),
        (
            _tripled,
            [f"worst-case block {name} is outside its ambiguity ball"
             for name in ["X0", *(f"W[{t}]" for t in range(4)), *(f"V[{t}]" for t in range(4))]]
            + [_OFF_TRACE],
        ),
        (
            lambda sys, sol: dataclasses.replace(sol, final_gap=5.0),
            ["converged=True disagrees with final gap 5.000e+00 against tol 1.000e-04", _OFF_TRACE],
        ),
        (lambda sys, sol: dataclasses.replace(sol, trace=()), ["the trace holds no iterations"]),
        (
            lambda sys, sol: dataclasses.replace(sol, trace=sol.trace[::-1]),
            ["trace rows are not numbered 0.."],
        ),
        (
            lambda sys, sol: dataclasses.replace(
                sol, trace=tuple(dataclasses.replace(r, k=r.k + 7) for r in sol.trace)
            ),
            ["trace rows are not numbered 0.."],
        ),
        (
            lambda sys, sol: dataclasses.replace(
                sol, config=dataclasses.replace(sol.config, max_iter=39)
            ),
            ["40 trace rows exceed max_iter 39"],
        ),
        (
            lambda sys, sol: _with_row(sol, 1, surrogate_gap=-1e-3),
            ["negative surrogate gap -1.000e-03 at iter 1", f"{_OFF_TRACE} (iter 1)"],
        ),
        (
            # inside the 1e-8 tolerance of the recomputed value
            lambda sys, sol: _with_row(sol, sol.trace[-1].k, f_value=sol.f_value * (1 + 1e-12)),
            [_OFF_TRACE],
        ),
    ],
    ids=[
        "zero-K", "L-entry", "value", "tripled-worst-case",
        "final-gap", "empty-trace", "reversed-trace", "shifted-trace", "max-iter",
        "negative-gap", "value-off-best-row",
    ],
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


def test_saddle_check_names_stored_gains_by_stage_k_before_l():
    # one stacked comparison per gain family, and the messages still come
    # stage by stage, K[t] before L[t]
    sys, amb, _ = generate_instance(3, 3, 3, 4, seed=7, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4))
    K = [k.copy() for k in sol.controller.K]
    L = [l.copy() for l in sol.controller.L]
    for gains, stages in ((K, (1, 3)), (L, (0, 3))):
        for t in stages:
            gains[t][0, -1] -= 1e-6
    report = saddle_check(
        sys, amb, dataclasses.replace(sol, controller=KalmanController(K=K, L=L)), n_samples=0
    )
    assert report.claim_violations == (
        "stored filter gain L[0] does not match recomputation",
        "stored feedback gain K[1] does not match recomputation",
        "stored feedback gain K[3] does not match recomputation",
        "stored filter gain L[3] does not match recomputation",
    )


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


def test_saddle_check_holds_no_n_wide_intermediate():
    # Here U takes 1.28 MB, D and the stage stacks 1.67 MB, and the peak is
    # 8.2 MB; unrolling the output gain and converting it (two frozen copies
    # of U), or a first-order bound that stored Y or Wbig D', would add 1.3 MB
    # or more.
    sys, amb, _ = generate_instance(20, 20, 20, 20, seed=0, rho=0.5)
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    tracemalloc.start()
    try:
        saddle_check(sys, amb, sol, n_samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * (20 * 20) ** 2 * 8  # 7 U.nbytes


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
        cov = _profile(next(_sample_feasible(balls, rng, 1)), T)
        st = build_stacked(sys)
        upur = _purified_kalman(sys, cov, st)
        grads = grad_f(sys, cov).flat()
        for _ in range(5):
            blocks = next(_sample_feasible(balls, rng, 1))
            exact = controller_cost_trace(st, upur, _profile(blocks, T))
            priced = sum(float(np.vdot(g, z)) for g, z in zip(grads, blocks))
            assert abs(priced - exact) <= 1e-12 * abs(exact)


def test_first_order_bound_brackets_the_optimum():
    rng = np.random.default_rng(42)
    for n, m, p, T in [(3, 2, 1, 4), (2, 3, 4, 1), (2, 2, 2, 3)]:
        sys, amb = _mixed_radius_instance(rng, n, m, p, T)
        cov = _profile(next(_sample_feasible(amb.balls(), rng, 1)), T)
        st = build_stacked(sys)
        best = controller_cost_trace(st, _purified_kalman(sys, cov, st), cov)
        for _ in range(3):
            U = random_causal_gain(rng, m, p, T, scale=0.3)
            ctrl = LinearPurifiedController(U=U, q=np.zeros(m * T), m=m, p=p, T=T)
            cost = controller_cost_trace(st, ctrl, cov)
            bound = _first_order_bound(st, U, cov)
            assert bound > 0.0
            assert cost - bound <= best * (1.0 + 1e-12) and best <= cost


def _dense_first_order_bound(sys, U, cov, exact=True):
    """Reference bound: dense S, Sigma_eta and gradient, over lmin(S) * lmin(Sigma_eta)
    or, unless ``exact``, over the stage-wise min_t lmin(R_t) * min_t lmin(V_t)."""
    Qs, Rs, _ = dense_factors(sys)
    G, H, D = dense_stacked(sys)
    Wbig = block_diag(cov.X0, *cov.W)
    S = Rs + H.T @ Qs @ H
    sigma_eta = D @ Wbig @ D.T + block_diag(*cov.V)
    grad = 2.0 * (S @ U @ sigma_eta + H.T @ Qs @ G @ Wbig @ D.T)
    for t in range(sys.T):
        grad[t * sys.m : (t + 1) * sys.m, (t + 1) * sys.p :] = 0.0
    if exact:
        curvature = 4.0 * min_eigval(S) * min_eigval(sigma_eta)
    else:
        curvature = 4.0 * min(map(min_eigval, sys.R)) * min(map(min_eigval, cov.V))
    return float(np.sum(grad**2)) / curvature if curvature > 0.0 else np.inf


@pytest.mark.parametrize(
    "n, m, p, T", [(n, m, p, T) for n, m, p in ((3, 2, 4), (2, 3, 1), (4, 1, 2)) for T in (1, 2, 5)]
)
def test_first_order_bound_against_the_dense_one(n, m, p, T):
    # The stage recursions give the dense gradient, so the default bound is
    # the dense one over the stage-wise curvature; min_t lmin(R_t) *
    # min_t lmin(V_t) bounds lmin(S) * lmin(Sigma_eta) from below, so it can
    # only grow, which keeps the certificate valid; the exact one is the dense one.
    rng = np.random.default_rng(300 + 7 * n + T)
    sys = random_system(rng, n, m, p, T)
    st = build_stacked(sys)
    for _ in range(3):
        cov = random_profile(rng, n, p, T)
        U = random_causal_gain(rng, m, p, T, scale=0.5)
        dense = _dense_first_order_bound(sys, U, cov)
        stagewise = _dense_first_order_bound(sys, U, cov, exact=False)
        assert 0.0 < dense <= stagewise * (1.0 + 1e-12) < np.inf
        assert abs(_first_order_bound(st, U, cov) - stagewise) <= 1e-12 * stagewise
        assert abs(_first_order_bound(st, U, cov, exact=True) - dense) <= 1e-12 * dense


def test_first_order_bound_keeps_only_sigma_eta_u_sigma_eta_and_z():
    # Here U takes 1.28 MB, and Sigma_eta, U Sigma_eta and Z 3.9 MB together;
    # the peak is 4.5 MB.  A stored Y or Wbig D' would add 1.3 MB or more.
    n = 20
    rng = np.random.default_rng(43)
    st = build_stacked(random_system(rng, n, n, n, n))
    cov = random_profile(rng, n, n, n)
    U = random_causal_gain(rng, n, n, n)
    tracemalloc.start()
    try:
        _first_order_bound(st, U, cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * U.nbytes


@pytest.mark.parametrize("r0, v_scale", [(1e-8, 1.0), (1e-12, 1e-8)])
def test_saddle_check_passes_a_badly_scaled_stage(r0, v_scale):
    # A tiny R_0 and tiny V_t shrink min_t lmin(R_t) * min_t lmin(V_t) far
    # below the exact curvature; at (1e-12, 1e-8) the stage-wise bound alone
    # exceeds the controller slack, and the audit must settle on the exact one.
    n = m = p = 3
    T = 6
    rng = np.random.default_rng(5)
    base = random_system(rng, n, m, p, T)
    sys = dataclasses.replace(base, R=(r0 * np.eye(m), *base.R[1:]))
    nominal = random_profile(rng, n, p, T)
    nominal = CovarianceProfile(
        X0=nominal.X0, W=nominal.W, V=tuple(v_scale * v for v in nominal.V)
    )
    amb = AmbiguitySpec(
        nominal=nominal, rho_x0=0.3, rho_w=(0.3,) * T, rho_v=(0.3 * math.sqrt(v_scale),) * T
    )
    sol = solve(sys, amb, FWConfig(tol=1e-4, step="line"))
    report = saddle_check(sys, amb, sol, n_samples=5)
    assert report.passed, report
    st = build_stacked(sys)
    U = output_to_purified(unroll_kalman(sys, sol.worst_case), st).U
    stagewise = _first_order_bound(st, U, sol.worst_case)
    exact = _first_order_bound(st, U, sol.worst_case, exact=True)
    assert exact <= stagewise
    if r0 == 1e-12:  # the stage-wise bound alone would fail this solution
        assert stagewise > report.controller_slack
