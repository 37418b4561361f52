import numpy as np
import pytest
import scipy.linalg

from drlqg import (
    CovarianceProfile,
    KalmanController,
    LinearOutputController,
    LinearPurifiedController,
    TimeVaryingSystem,
    assemble_controller,
    build_stacked,
    controller_cost_trace,
    lqg_value,
    monte_carlo_cost,
    output_to_purified,
    purified_from_rollout,
    purified_to_output,
    simulate,
    unroll_controller,
    unroll_kalman,
)

from helpers import (
    random_causal_gain,
    random_dims,
    random_profile,
    random_system,
    scalar_ones,
)


def _stack_noise(x0, w):
    return np.concatenate([x0, w.ravel()])


# ---------------------------------------------------------- stacked build


def test_build_stacked_single_stage_blocks():
    rng = np.random.default_rng(20)
    sys = random_system(rng, 2, 1, 2, 1)
    st = build_stacked(sys)
    assert np.array_equal(st.G[:2, :2], np.eye(2))
    assert np.array_equal(st.G[2:, :2], sys.A[0])
    assert np.array_equal(st.G[2:, 2:], np.eye(2))
    assert np.array_equal(st.H[:2, :], np.zeros((2, 1)))
    assert np.array_equal(st.H[2:, :], sys.B[0])
    assert np.array_equal(st.Cs[:, :2], sys.C[0])
    assert np.array_equal(st.Cs[:, 2:], np.zeros((2, 2)))
    assert np.array_equal(st.D, st.Cs @ st.G)
    assert np.array_equal(st.Qs, scipy.linalg.block_diag(*sys.Q))
    assert np.array_equal(st.Rs, scipy.linalg.block_diag(*sys.R))


def test_build_stacked_zero_dynamics_gives_identity():
    rng = np.random.default_rng(21)
    sys = random_system(rng, 2, 2, 1, 3)
    frozen = TimeVaryingSystem(
        A=[np.zeros((2, 2))] * 3, B=sys.B, C=sys.C, Q=sys.Q, R=sys.R
    )
    st = build_stacked(frozen)
    assert np.array_equal(st.G, np.eye(8))


def test_stacked_reproduces_simulated_trajectory():
    rng = np.random.default_rng(22)
    for _ in range(5):
        sys = random_system(rng, *random_dims(rng, 3, 4))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        st = build_stacked(sys)
        x0 = rng.standard_normal(sys.n)
        w = rng.standard_normal((sys.T, sys.n))
        v = rng.standard_normal((sys.T, sys.p))
        res = simulate(sys, assemble_controller(sys, cov), x0, w, v)
        stacked_x = st.G @ _stack_noise(x0, w) + st.H @ res.u.ravel()
        assert np.max(np.abs(stacked_x - res.x.ravel())) <= 1e-12


# ------------------------------------------------------------ purification


def test_purified_zero_noise_is_zero():
    sys, cov = scalar_ones()
    res = simulate(sys, assemble_controller(sys, cov), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    eta = purified_from_rollout(sys, res.u, res.y)
    assert np.array_equal(eta, np.zeros((1, 1)))


def test_purified_equals_output_without_control():
    rng = np.random.default_rng(23)
    sys = random_system(rng, 2, 1, 2, 3)
    zero = LinearOutputController(
        U=np.zeros((3, 6)), q=np.zeros(3), m=1, p=2, T=3
    )
    res = simulate(
        sys,
        zero,
        rng.standard_normal(2),
        rng.standard_normal((3, 2)),
        rng.standard_normal((3, 2)),
    )
    eta = purified_from_rollout(sys, res.u, res.y)
    assert np.array_equal(eta, res.y)


def test_purified_observations_are_control_independent():
    # Two different controllers driven by the same noise must see the same
    # purified observations, and both must equal D w + v.
    rng = np.random.default_rng(24)
    for _ in range(5):
        sys = random_system(rng, *random_dims(rng, 3, 4))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        st = build_stacked(sys)
        x0 = rng.standard_normal(sys.n)
        w = rng.standard_normal((sys.T, sys.n))
        v = rng.standard_normal((sys.T, sys.p))
        kalman = assemble_controller(sys, cov)
        other = LinearOutputController(
            U=random_causal_gain(rng, sys.m, sys.p, sys.T, scale=0.3),
            q=rng.standard_normal(sys.m * sys.T),
            m=sys.m,
            p=sys.p,
            T=sys.T,
        )
        etas = []
        for ctrl in (kalman, other):
            res = simulate(sys, ctrl, x0, w, v)
            etas.append(purified_from_rollout(sys, res.u, res.y))
        assert np.max(np.abs(etas[0] - etas[1])) <= 1e-12
        direct = st.D @ _stack_noise(x0, w) + v.ravel()
        assert np.max(np.abs(etas[0].ravel() - direct)) <= 1e-12


# ------------------------------------------------------------ cost formula


def test_cost_trace_zero_controller_open_loop():
    rng = np.random.default_rng(25)
    sys = random_system(rng, 2, 1, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    st = build_stacked(sys)
    ctrl = LinearPurifiedController(U=np.zeros((3, 6)), q=np.zeros(3), m=1, p=2, T=3)
    wbig = scipy.linalg.block_diag(cov.X0, *cov.W)
    expect = float(np.trace(st.G.T @ st.Qs @ st.G @ wbig))
    assert abs(controller_cost_trace(st, ctrl, cov) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_cost_trace_matches_value_on_scalar_instance():
    sys, cov = scalar_ones()
    st = build_stacked(sys)
    upur = output_to_purified(unroll_kalman(sys, cov), st)
    assert abs(controller_cost_trace(st, upur, cov) - 2.75) <= 1e-12


def test_cost_trace_matches_monte_carlo():
    rng = np.random.default_rng(26)
    sys = random_system(rng, 2, 1, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    st = build_stacked(sys)
    ctrl = LinearPurifiedController(
        U=random_causal_gain(rng, 1, 2, 3, scale=0.3),
        q=0.5 * rng.standard_normal(3),
        m=1,
        p=2,
        T=3,
    )
    exact = controller_cost_trace(st, ctrl, cov)
    stats = monte_carlo_cost(sys, ctrl, cov, n_samples=60_000, rng=7)
    assert abs(stats.mean - exact) <= 3.0 * stats.stderr


def test_cost_trace_separation_principle():
    rng = np.random.default_rng(27)
    for _ in range(8):
        sys = random_system(rng, *random_dims(rng, 4, 6))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        st = build_stacked(sys)
        upur = output_to_purified(unroll_kalman(sys, cov), st)
        value = lqg_value(sys, cov)
        cost = controller_cost_trace(st, upur, cov)
        assert abs(cost - value) <= 1e-8 * max(1.0, abs(value))


def test_cost_trace_minimal_at_unrolled_optimum():
    rng = np.random.default_rng(28)
    sys = random_system(rng, 2, 2, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    st = build_stacked(sys)
    upur = output_to_purified(unroll_kalman(sys, cov), st)
    base = controller_cost_trace(st, upur, cov)
    for _ in range(50):
        du = random_causal_gain(rng, 2, 2, 3, scale=rng.uniform(1e-3, 0.5))
        dq = rng.uniform(1e-3, 0.5) * rng.standard_normal(6)
        bumped = LinearPurifiedController(U=upur.U + du, q=upur.q + dq, m=2, p=2, T=3)
        assert controller_cost_trace(st, bumped, cov) >= base - 1e-9 * max(1.0, abs(base))


# -------------------------------------------------------- gain conversion


def test_conversion_zero_gain():
    rng = np.random.default_rng(29)
    sys = random_system(rng, 2, 1, 2, 3)
    st = build_stacked(sys)
    zero = LinearPurifiedController(U=np.zeros((3, 6)), q=np.zeros(3), m=1, p=2, T=3)
    out = purified_to_output(zero, st)
    assert np.array_equal(out.U, np.zeros((3, 6)))
    assert np.array_equal(out.q, np.zeros(3))


def test_conversion_single_stage_is_identity():
    rng = np.random.default_rng(30)
    sys = random_system(rng, 2, 2, 2, 1)
    st = build_stacked(sys)
    U = rng.standard_normal((2, 2))
    ctrl = LinearPurifiedController(U=U, q=rng.standard_normal(2), m=2, p=2, T=1)
    out = purified_to_output(ctrl, st)
    assert np.allclose(out.U, U, atol=1e-14)
    assert np.allclose(out.q, ctrl.q, atol=1e-14)


def test_conversion_round_trips():
    rng = np.random.default_rng(31)
    for _ in range(10):
        sys = random_system(rng, *random_dims(rng, 3, 4))
        st = build_stacked(sys)
        U = random_causal_gain(rng, sys.m, sys.p, sys.T)
        q = rng.standard_normal(sys.m * sys.T)
        pur = LinearPurifiedController(U=U, q=q, m=sys.m, p=sys.p, T=sys.T)
        back = output_to_purified(purified_to_output(pur, st), st)
        scale = max(1.0, np.linalg.norm(U))
        assert np.max(np.abs(back.U - U)) <= 1e-10 * scale
        assert np.max(np.abs(back.q - q)) <= 1e-10 * scale
        out = LinearOutputController(U=U, q=q, m=sys.m, p=sys.p, T=sys.T)
        fwd = purified_to_output(output_to_purified(out, st), st)
        assert np.max(np.abs(fwd.U - U)) <= 1e-10 * scale
        assert np.max(np.abs(fwd.q - q)) <= 1e-10 * scale


def test_conversion_preserves_exact_causal_zeros():
    rng = np.random.default_rng(32)
    sys = random_system(rng, 2, 2, 2, 4)
    st = build_stacked(sys)
    pur = LinearPurifiedController(
        U=random_causal_gain(rng, 2, 2, 4), q=rng.standard_normal(8), m=2, p=2, T=4
    )
    out = purified_to_output(pur, st)  # constructor would reject nonzero upper blocks
    for t in range(4):
        assert np.array_equal(out.U[t * 2 : (t + 1) * 2, (t + 1) * 2 :], np.zeros((2, 8 - (t + 1) * 2)))


def test_causality_is_enforced():
    U = np.zeros((2, 4))
    U[0, 3] = 1e-30  # any nonzero future coupling is rejected
    with pytest.raises(ValueError):
        LinearPurifiedController(U=U, q=np.zeros(2), m=1, p=2, T=2)
    with pytest.raises(ValueError):
        LinearOutputController(U=U, q=np.zeros(2), m=1, p=2, T=2)


# ----------------------------------------------------------------- unroll


def test_unroll_scalar_gain():
    sys, cov = scalar_ones()
    gain = unroll_kalman(sys, cov)
    assert abs(gain.U[0, 0] - (-0.25)) <= 1e-12
    assert np.array_equal(gain.q, np.zeros(1))


def test_unroll_zero_feedback():
    rng = np.random.default_rng(33)
    sys = random_system(rng, 2, 1, 2, 3)
    zero_q = TimeVaryingSystem(A=sys.A, B=sys.B, C=sys.C, Q=[np.zeros((2, 2))] * 4, R=sys.R)
    cov = random_profile(rng, 2, 2, 3)
    gain = unroll_kalman(zero_q, cov)
    assert np.array_equal(gain.U, np.zeros((3, 6)))


def test_unroll_matches_recursive_rollout():
    rng = np.random.default_rng(34)
    for _ in range(5):
        sys = random_system(rng, *random_dims(rng, 3, 5))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        gain = unroll_kalman(sys, cov)
        x0 = rng.standard_normal(sys.n)
        w = rng.standard_normal((sys.T, sys.n))
        v = rng.standard_normal((sys.T, sys.p))
        rec = simulate(sys, assemble_controller(sys, cov), x0, w, v)
        lin = simulate(sys, gain, x0, w, v)
        assert np.max(np.abs(rec.u - lin.u)) <= 1e-10 * max(1.0, np.max(np.abs(rec.u)))


def test_unroll_controller_matches_rollout_of_arbitrary_gains():
    # The unroll uses only the controller's gains, so any (K, L) pair works.
    rng = np.random.default_rng(35)
    for _ in range(5):
        sys = random_system(rng, *random_dims(rng, 3, 5))
        n, m, p, T = sys.n, sys.m, sys.p, sys.T
        ctrl = KalmanController(
            K=tuple(rng.standard_normal((m, n)) for _ in range(T)),
            L=tuple(rng.standard_normal((n, p)) for _ in range(T)),
        )
        gain = unroll_controller(sys, ctrl)
        x0, w, v = rng.standard_normal(n), rng.standard_normal((T, n)), rng.standard_normal((T, p))
        rec = simulate(sys, ctrl, x0, w, v)
        lin = simulate(sys, gain, x0, w, v)
        assert np.max(np.abs(rec.u - lin.u)) <= 1e-10 * max(1.0, np.max(np.abs(rec.u)))


def test_unroll_controller_rejects_gains_that_do_not_fit():
    sys, _ = scalar_ones()
    with pytest.raises(ValueError, match=r"^L: expected 1 matrices, got 2$"):
        unroll_controller(sys, KalmanController(K=(np.eye(1),), L=(np.eye(1),) * 2))
