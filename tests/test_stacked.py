import dataclasses
import tracemalloc

import numpy as np
import pytest

from drlqg import (
    CovarianceProfile,
    FWConfig,
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
    solve,
    unroll_controller,
    unroll_kalman,
)
from drlqg.instances import generate_instance
from drlqg.stacked import _kalman_purified, _plant

from helpers import (
    block_diag,
    dense_factors,
    dense_stacked,
    random_causal_gain,
    random_dims,
    random_profile,
    random_system,
    scalar_ones,
)
from reference_oracle import (
    ReferenceKalmanPolicy,
    reference_controller_cost_trace,
    reference_kalman_purified,
    reference_unroll,
)


def _stack_noise(x0, w):
    return np.concatenate([x0, w.ravel()])


def _stacked_plant(st, u=None, w=None, live=None):
    """G w + H u for column stacks u (mT x k) and w (n(T+1) x k): ``_plant``'s rows, stacked."""
    k = (w if u is None else u).shape[1]
    u = None if u is None else u.reshape(st.T, st.m, k)
    w = None if w is None else w.reshape(st.T + 1, st.n, k)
    return np.vstack(list(_plant(st, k, u, w, live)))


# Rectangular block sizes (n != m != p) catch a per-stage reshape that mixes
# up two of them; every benchmark instance has n = m = p.
RECTANGULAR = [(n, m, p, T) for n, m, p in ((3, 2, 4), (2, 3, 1)) for T in (1, 2, 5)]


def _dense_cost_trace(sys, ctrl, cov):
    """Reference cost: the trace formula with S = Rs + H'Qs H and dense Qs, Rs, Wbig, Vbig."""
    Qs, Rs, _ = dense_factors(sys)
    G, H, D = dense_stacked(sys)
    Wbig = block_diag(cov.X0, *cov.W)
    Vbig = block_diag(*cov.V)
    S = Rs + H.T @ Qs @ H
    UD = ctrl.U @ D
    w_term = UD.T @ S @ UD + 2.0 * G.T @ (Qs @ (H @ UD)) + G.T @ Qs @ G
    val = float(np.trace(w_term @ Wbig))
    val += float(np.trace((ctrl.U.T @ S @ ctrl.U) @ Vbig))
    return val + float(ctrl.q @ S @ ctrl.q)


# ---------------------------------------------------------- stacked build


def test_build_stacked_single_stage_blocks():
    rng = np.random.default_rng(20)
    sys = random_system(rng, 2, 1, 2, 1)
    st = build_stacked(sys)
    G, H = _stacked_plant(st, w=np.eye(4)), _stacked_plant(st, np.eye(1))
    assert np.array_equal(G[:2, :2], np.eye(2))
    assert np.array_equal(G[2:, :2], sys.A[0])
    assert np.array_equal(G[2:, 2:], np.eye(2))
    assert np.array_equal(H[:2, :], np.zeros((2, 1)))
    assert np.array_equal(H[2:, :], sys.B[0])
    assert np.array_equal(st.D, np.hstack([sys.C[0], np.zeros((2, 2))]) @ G)
    for stack, blocks in ((st.Q, sys.Q), (st.R, sys.R), (st.C, sys.C)):
        assert np.array_equal(stack, np.stack(blocks))


@pytest.mark.parametrize("n, m, p, T", RECTANGULAR)
def test_build_stacked_matches_dense_reference(n, m, p, T):
    sys = random_system(np.random.default_rng(100 + 7 * n + T), n, m, p, T)
    st = build_stacked(sys)
    assert (st.n, st.m, st.p, st.T) == (n, m, p, T)
    ref = dense_stacked(sys)[2]
    assert st.D.shape == ref.shape
    assert np.max(np.abs(st.D - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    # the system's own fields and D: no G or H is stored
    plain = [f.name for f in dataclasses.fields(TimeVaryingSystem)]
    assert [f.name for f in dataclasses.fields(st)] == plain + ["D"]
    assert plain == ["A", "B", "C", "Q", "R"]


def test_a_stacked_system_is_the_system_it_was_built_from():
    # build_stacked adds D to the system's own stages, so every function that
    # takes the system gives the same bits on its stacked form
    rng = np.random.default_rng(41)
    n, m, p, T = 3, 2, 4, 3
    sys = random_system(rng, n, m, p, T)
    cov = random_profile(rng, n, p, T)
    st = build_stacked(sys)
    assert isinstance(st, TimeVaryingSystem)
    assert lqg_value(st, cov) == lqg_value(sys, cov)
    kalman = assemble_controller(sys, cov)
    gain = unroll_controller(sys, kalman)
    x0, w, v = rng.standard_normal(n), rng.standard_normal((T, n)), rng.standard_normal((T, p))
    for ctrl in (kalman, gain, output_to_purified(gain, sys)):
        got, want = (simulate(s, ctrl, x0, w, v) for s in (st, sys))
        assert got.cost == want.cost
        for name in ("x", "u", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        got, want = (monte_carlo_cost(s, ctrl, cov, 50, rng=0).costs for s in (st, sys))
        assert got.tobytes() == want.tobytes()
        if ctrl is not kalman:
            assert controller_cost_trace(st, ctrl, cov) == controller_cost_trace(sys, ctrl, cov)


@pytest.mark.parametrize("n, m, p, T", RECTANGULAR)
def test_plant_applies_g_and_h(n, m, p, T):
    rng = np.random.default_rng(150 + 7 * n + T)
    sys = random_system(rng, n, m, p, T)
    st = build_stacked(sys)
    G, H, _ = dense_stacked(sys)
    u = rng.standard_normal((m * T, 3))
    w = rng.standard_normal((n * (T + 1), 3))
    U = random_causal_gain(rng, m, p, T)
    for got, ref in (
        (_stacked_plant(st, u, w), G @ w + H @ u),
        (_stacked_plant(st, u), H @ u),
        (_stacked_plant(st, w=w), G @ w),
        # zero beyond the live columns: H itself, and H U for a causal U
        (_stacked_plant(st, np.eye(m * T), live=(0, m)), H),
        (_stacked_plant(st, U, live=(0, p)), H @ U),
    ):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_build_stacked_zero_dynamics_gives_identity():
    rng = np.random.default_rng(21)
    sys = random_system(rng, 2, 2, 1, 3)
    frozen = TimeVaryingSystem(
        A=[np.zeros((2, 2))] * 3, B=sys.B, C=sys.C, Q=sys.Q, R=sys.R
    )
    st = build_stacked(frozen)
    assert np.array_equal(_stacked_plant(st, w=np.eye(8)), np.eye(8))


def test_build_stacked_allocates_little_beyond_d_and_the_stage_stacks():
    # Here D takes 1.34 MB and the peak is 1.47 MB, since the stage stacks are
    # the system's own; a copy of them (0.33 MB), a stored G or H, a dense Qs,
    # Rs or Cs, or a copy of D would each break the bound.
    sys = random_system(np.random.default_rng(23), 20, 20, 20, 20)
    tracemalloc.start()
    try:
        st = build_stacked(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * st.D.nbytes
    assert all(getattr(st, name) is getattr(sys, name) for name in ("A", "B", "C", "Q", "R"))


def test_cost_trace_holds_the_observation_map_and_one_block_row_per_stage():
    # An output gain on the plain system, as evaluate prices it: the map of y
    # takes 2.63 MB and a block row 0.13 MB, and the peak is 3.42 MB; a dense
    # U D (1.34 MB) or the stored plant state (2.76 MB) would each break the
    # bound, and no D is built.
    n = 20
    rng = np.random.default_rng(24)
    sys = random_system(rng, n, n, n, n)
    cov = random_profile(rng, n, n, n)
    ctrl = LinearOutputController(
        U=random_causal_gain(rng, n, n, n), q=rng.standard_normal(n * n), m=n, p=n, T=n
    )
    row = n * (n * (n + 1) + n * n + 1) * 8  # one block row of (w, v, 1)
    tracemalloc.start()
    try:
        controller_cost_trace(sys, ctrl, cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * row + 8 * row


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
        G, H, _ = dense_stacked(sys)
        noise, u = _stack_noise(x0, w), res.u.ravel()
        for stacked_x in (G @ noise + H @ u, _stacked_plant(st, u[:, None], noise[:, None])[:, 0]):
            assert np.max(np.abs(stacked_x - res.x.ravel())) <= 1e-12


# ------------------------------------------------------------ purification


def test_purified_zero_noise_is_zero():
    sys, cov = scalar_ones()
    res = simulate(sys, assemble_controller(sys, cov), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    eta = purified_from_rollout(sys, res.u, res.y)
    assert np.array_equal(eta, np.zeros((1, 1)))


def test_purified_from_rollout_rejects_a_trajectory_that_does_not_fit():
    # one row too many once came back as an uninitialised last row of eta
    sys, cov = scalar_ones()
    res = simulate(sys, assemble_controller(sys, cov), np.ones(1), np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"^y: expected shape \(1, 1\), got \(2, 1\)$"):
        purified_from_rollout(sys, res.u, np.vstack([res.y, res.y]))
    with pytest.raises(ValueError, match=r"^u: expected shape \(1, 1\), got \(1,\)$"):
        purified_from_rollout(sys, res.u[0], res.y)


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


@pytest.mark.parametrize("n, m, p, T", RECTANGULAR)
def test_a_purified_policy_applies_its_gain_to_the_purified_observations(n, m, p, T):
    # the defining equation u = U eta + q, eta recovered from the rollout
    rng = np.random.default_rng(300 + 7 * n + T)
    sys = random_system(rng, n, m, p, T)
    pur = LinearPurifiedController(
        U=random_causal_gain(rng, m, p, T), q=rng.standard_normal(m * T), m=m, p=p, T=T
    )
    noise = rng.standard_normal(n), rng.standard_normal((T, n)), rng.standard_normal((T, p))
    res = simulate(sys, pur, *noise)
    eta = purified_from_rollout(sys, res.u, res.y)
    expect = pur.U @ eta.ravel() + pur.q
    assert np.max(np.abs(res.u.ravel() - expect)) <= 1e-12 * np.max(np.abs(expect))


# ------------------------------------------------------------ cost formula


def test_cost_trace_zero_controller_open_loop():
    rng = np.random.default_rng(25)
    sys = random_system(rng, 2, 1, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    st = build_stacked(sys)
    ctrl = LinearPurifiedController(U=np.zeros((3, 6)), q=np.zeros(3), m=1, p=2, T=3)
    wbig = block_diag(cov.X0, *cov.W)
    G = dense_stacked(sys)[0]
    expect = float(np.trace(G.T @ block_diag(*sys.Q) @ G @ wbig))
    assert abs(controller_cost_trace(st, ctrl, cov) - expect) <= 1e-12 * max(1.0, abs(expect))


@pytest.mark.parametrize("n, m, p, T", RECTANGULAR)
def test_cost_trace_matches_dense_reference(n, m, p, T):
    rng = np.random.default_rng(200 + 7 * n + T)
    sys = random_system(rng, n, m, p, T)
    st = build_stacked(sys)
    for _ in range(3):
        cov = random_profile(rng, n, p, T)
        ctrl = LinearPurifiedController(
            U=random_causal_gain(rng, m, p, T, scale=0.5),
            q=rng.standard_normal(m * T),
            m=m,
            p=p,
            T=T,
        )
        ref = _dense_cost_trace(sys, ctrl, cov)
        assert abs(controller_cost_trace(st, ctrl, cov) - ref) <= 1e-12 * abs(ref)


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


@pytest.mark.parametrize("T", [1, 6])
def test_conversions_solve_their_defining_equations(T):
    # purified_to_output solves (I + U Cs H) U' = U, output_to_purified
    # solves (I - U Cs H) U' = U; a dense residual checks each direction.
    rng = np.random.default_rng(40 + T)
    m, p = 2, 3
    sys = random_system(rng, 3, m, p, T)
    st = build_stacked(sys)
    U = random_causal_gain(rng, m, p, T)
    q = rng.standard_normal(m * T)
    upper = np.ones_like(U, dtype=bool)
    for t in range(T):
        upper[t * m : (t + 1) * m, : (t + 1) * p] = False
    for convert, cls, sign in (
        (purified_to_output, LinearPurifiedController, 1.0),
        (output_to_purified, LinearOutputController, -1.0),
    ):
        got = convert(cls(U=U, q=q, m=m, p=p, T=T), st)
        M = np.eye(m * T) + sign * U @ dense_factors(sys)[2] @ dense_stacked(sys)[1]
        for x, b in ((got.U, U), (got.q, q)):
            assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.all(got.U[upper] == 0.0)


def _triangular_conversion(sys, U, q, sign):
    """Reference conversion: (U', q') solving (I + sign U Cs H) (U', q') = (U, q) by
    block forward substitution, which reads only the blocks left of the diagonal."""
    m = sys.m
    N = sign * U @ dense_factors(sys)[2] @ dense_stacked(sys)[1]
    X = np.hstack([q[:, None], U])
    for t in range(1, sys.T):
        rows = slice(t * m, (t + 1) * m)
        X[rows] -= N[rows, : t * m] @ X[: t * m]
    return X[:, 1:], X[:, 0]


@pytest.mark.parametrize("n, m, p, T", RECTANGULAR)
def test_conversions_match_the_triangular_solve(n, m, p, T):
    rng = np.random.default_rng(250 + 7 * n + T)
    sys = random_system(rng, n, m, p, T)
    st = build_stacked(sys)
    U = random_causal_gain(rng, m, p, T)
    q = rng.standard_normal(m * T)
    for convert, cls, sign in (
        (purified_to_output, LinearPurifiedController, 1.0),
        (output_to_purified, LinearOutputController, -1.0),
    ):
        got = convert(cls(U=U, q=q, m=m, p=p, T=T), st)
        ref_U, ref_q = _triangular_conversion(sys, U, q, sign)
        assert np.array_equal(got.U == 0.0, ref_U == 0.0)
        for x, ref in ((got.U, ref_U), (got.q, ref_q)):
            assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "convert, given, expected",
    [(purified_to_output, "Output", "Purified"), (output_to_purified, "Purified", "Output")],
    ids=["purified_to_output", "output_to_purified"],
)
def test_a_gain_of_the_other_form_is_rejected(convert, given, expected):
    sys, amb, _ = generate_instance(3, 2, 4, 3, 0, 0.5)
    st = build_stacked(sys)
    gain = unroll_kalman(sys, amb.nominal)
    gain = {"Output": gain, "Purified": output_to_purified(gain, st)}[given]
    message = rf"^expected a Linear{expected}Controller, got a Linear{given}Controller$"
    with pytest.raises(ValueError, match=message):
        convert(gain, st)


def test_cost_trace_names_both_gain_forms_for_a_gain_of_neither():
    sys, amb, _ = generate_instance(3, 2, 4, 3, 0, 0.5)
    ctrl = assemble_controller(sys, amb.nominal)
    message = (
        r"^expected a LinearOutputController or LinearPurifiedController, got a KalmanController$"
    )
    with pytest.raises(ValueError, match=message):
        controller_cost_trace(sys, ctrl, amb.nominal)


@pytest.mark.blas_exact
def test_cost_trace_prices_either_form_as_the_purified_reference():
    # The loop over y against the reference loop over U D.  Rectangular
    # shapes with q != 0, a gain of each form priced on the plain system:
    for n, m, p, T in RECTANGULAR:
        rng = np.random.default_rng(300 + 7 * n + T)
        sys = random_system(rng, n, m, p, T)
        st = build_stacked(sys)
        cov = random_profile(rng, n, p, T)
        for cls in (LinearPurifiedController, LinearOutputController):
            gain = cls(
                U=random_causal_gain(rng, m, p, T, scale=0.5),
                q=rng.standard_normal(m * T),
                m=m,
                p=p,
                T=T,
            )
            pur = gain if cls is LinearPurifiedController else output_to_purified(gain, st)
            ref = reference_controller_cost_trace(st, pur, cov)
            cost = controller_cost_trace(sys, gain, cov)
            assert abs(cost - ref) <= 1e-13 * abs(ref)
            assert controller_cost_trace(st, gain, cov) == cost  # D is not read
    # the stored output gain of a solved instance, under its worst case:
    for n in (10, 20):
        sys, amb, _ = generate_instance(n, n, n, n, 0, 0.5)
        sol = solve(sys, amb, FWConfig(step="line", tol=1e-4))
        gain = unroll_controller(sys, sol.controller)
        st = build_stacked(sys)
        ref = reference_controller_cost_trace(st, output_to_purified(gain, st), sol.worst_case)
        assert abs(controller_cost_trace(sys, gain, sol.worst_case) - ref) <= 1e-13 * abs(ref)
    # An output gain priced as a purified one once gave 18.669341626 here,
    # against the Kalman cost 18.669312692; both forms now price to the latter.
    sys, amb, _ = generate_instance(3, 2, 4, 3, 0, 0.5)
    st = build_stacked(sys)
    gain = unroll_kalman(sys, amb.nominal)
    for form in (gain, output_to_purified(gain, st)):
        assert f"{controller_cost_trace(st, form, amb.nominal):.11g}" == "18.669312692"


@pytest.mark.parametrize(
    "cls, name",
    [(LinearPurifiedController, "purified gain"), (LinearOutputController, "output gain")],
)
@pytest.mark.parametrize("field", ["U", "offset"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_gain_with_a_non_finite_entry_is_rejected(cls, name, field, bad):
    U, q = np.zeros((2, 4)), np.zeros(2)
    if field == "U":
        U[1, 0] = bad
    else:
        q[0] = bad
    with pytest.raises(ValueError, match=rf"^{name}: {field} contains non-finite entries$"):
        cls(U=U, q=q, m=1, p=2, T=2)


@pytest.mark.parametrize("n, m, p, T", RECTANGULAR)
def test_kalman_purified_gain_matches_the_converted_unroll(n, m, p, T):
    # arbitrary gains, not only the Kalman-optimal ones
    rng = np.random.default_rng(250 + 7 * n + T)
    sys = random_system(rng, n, m, p, T)
    st = build_stacked(sys)
    ctrl = KalmanController(
        K=[rng.standard_normal((m, n)) for _ in range(T)],
        L=[rng.standard_normal((n, p)) for _ in range(T)],
    )
    ref = output_to_purified(unroll_controller(sys, ctrl), st).U
    got = _kalman_purified(st, ctrl.K, ctrl.L)
    assert got.shape == ref.shape
    assert np.array_equal(got == 0.0, ref == 0.0)  # the exact zeros above the block diagonal
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.blas_exact
@pytest.mark.parametrize(
    "n, m, p, T", RECTANGULAR + [(10, 10, 10, 10), (20, 20, 20, 20), (50, 50, 50, 20)]
)
def test_filter_loop_reproduces_the_hand_written_recursions(n, m, p, T):
    # U_output is written from the unroll, so its bytes are pinned; the
    # policy steps the same recursion in another order, to roundoff.  A
    # reassociated update, or an unroll on live columns only, kept the
    # smaller cases byte-equal: only the two largest catch them
    sys, amb, _ = generate_instance(n, m, p, T, seed=0, rho=0.5)
    ctrl = solve(sys, amb, FWConfig(tol=1e-4, step="line")).controller
    K, L, st = ctrl.K, ctrl.L, build_stacked(sys)
    pairs = [
        (unroll_controller(sys, ctrl).U, reference_unroll(sys, K, L)),
        (_kalman_purified(st, K, L), reference_kalman_purified(st, K, L)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    class Reference:
        def make_policy(self, sys):
            return ReferenceKalmanPolicy(sys, K, L)

    rng = np.random.default_rng(T)
    x0, w, v = rng.standard_normal(n), rng.standard_normal((T, n)), rng.standard_normal((T, p))
    got, want = (simulate(sys, c, x0, w, v) for c in (ctrl, Reference()))
    assert np.max(np.abs(got.u - want.u)) <= 1e-12 * np.max(np.abs(want.u))
    assert abs(got.cost - want.cost) <= 1e-12 * want.cost
    for lead in ((3,), (2, 3)):  # batched observations
        policies = [c.make_policy(sys) for c in (ctrl, Reference())]
        for t, y in enumerate(rng.standard_normal((T, *lead, p))):
            got, want = (policy.step(t, y) for policy in policies)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


@pytest.mark.parametrize(
    "cls, name",
    [(LinearPurifiedController, "purified gain"), (LinearOutputController, "output gain")],
)
def test_controller_classes_keep_their_fields_repr_and_messages(cls, name):
    ctrl = cls(U=np.zeros((2, 4)), q=np.zeros(2), m=1, p=2, T=2)
    assert repr(ctrl).startswith(f"{cls.__name__}(U=array(")
    assert [f.name for f in dataclasses.fields(ctrl)] == ["U", "q", "m", "p", "T"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctrl.m = 2
    with pytest.raises(ValueError, match=rf"^{name}: expected shape \(2, 4\), got \(2, 3\)$"):
        cls(U=np.zeros((2, 3)), q=np.zeros(2), m=1, p=2, T=2)
    U = np.zeros((2, 4))
    U[0, 2] = 1.0
    with pytest.raises(
        ValueError,
        match=rf"^{name}: block \(0,1\) above the diagonal is nonzero; the gain must be causal$",
    ):
        cls(U=U, q=np.zeros(2), m=1, p=2, T=2)
    with pytest.raises(ValueError, match=r"^offset: expected shape \(2,\), got \(3,\)$"):
        cls(U=np.zeros((2, 4)), q=np.zeros(3), m=1, p=2, T=2)


@pytest.mark.parametrize("cls", [LinearPurifiedController, LinearOutputController])
def test_a_causal_policy_rejects_out_of_order_steps(cls):
    rng = np.random.default_rng(35)
    sys = random_system(rng, 2, 1, 2, 2)
    policy = cls(U=random_causal_gain(rng, 1, 2, 2), q=np.zeros(2), m=1, p=2, T=2).make_policy(sys)
    policy.step(0, np.ones(2))
    with pytest.raises(ValueError, match=r"^policy stepped out of order: expected t=1, got 0$"):
        policy.step(0, np.ones(2))


def test_causality_error_names_the_first_block_in_row_major_order():
    # Element order would name (0,3): row 0 of block row 0 is nonzero only in
    # block 3, row 1 in block 2.
    U = np.zeros((8, 4))
    U[0, 3] = 1.0
    U[1, 2] = 1.0
    U[4, 3] = 1.0
    with pytest.raises(ValueError, match=r"^output gain: block \(0,2\) above the diagonal"):
        LinearOutputController(U=U, q=np.zeros(8), m=2, p=1, T=4)


@pytest.mark.parametrize(
    "cls, name, convert",
    [
        (LinearPurifiedController, "purified gain", purified_to_output),
        (LinearOutputController, "output gain", output_to_purified),
    ],
)
def test_gains_that_do_not_fit_the_system_are_rejected(cls, name, convert):
    rng = np.random.default_rng(34)
    sys = random_system(rng, 2, 1, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    st = build_stacked(sys)
    x0, w, v = np.zeros(2), np.zeros((3, 2)), np.zeros((3, 2))
    for m, p, T in ((1, 2, 4), (2, 2, 3), (1, 1, 3)):
        gain = cls(U=random_causal_gain(rng, m, p, T), q=np.ones(m * T), m=m, p=p, T=T)
        calls = [
            lambda: gain.make_policy(sys),
            lambda: simulate(sys, gain, x0, w, v),
            lambda: monte_carlo_cost(sys, gain, cov, 10, rng=0),
            lambda: convert(gain, st),
            lambda: controller_cost_trace(st, gain, cov),
        ]
        message = rf"^{name} \(m={m}, p={p}, T={T}\) does not match system \(m=1, p=2, T=3\)$"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


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


def test_unroll_controller_names_the_form_it_expects():
    # a gain once raised AttributeError: ... has no attribute 'K'
    sys, _ = scalar_ones()
    gain = LinearOutputController(U=np.eye(1), q=np.zeros(1), m=1, p=1, T=1)
    with pytest.raises(
        ValueError, match=r"^expected a KalmanController, got a LinearOutputController$"
    ):
        unroll_controller(sys, gain)


def test_unroll_controller_rejects_gains_that_do_not_fit():
    sys, _ = scalar_ones()
    with pytest.raises(ValueError, match=r"^L: expected 1 matrices, got 2$"):
        unroll_controller(sys, KalmanController(K=(np.eye(1),), L=(np.eye(1),) * 2))
