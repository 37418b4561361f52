import dataclasses
import gc
import tracemalloc
import weakref

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
    grad_f,
    kalman_forward,
    lqg_value,
    monte_carlo_cost,
    riccati_backward,
    sample_noise,
    simulate,
    solve,
)
from drlqg import lqg
from drlqg.instances import generate_instance
from drlqg.linalg import SingularMatrixError, min_eigval, psd_sqrt

from helpers import (
    random_causal_gain,
    random_dims,
    random_profile,
    random_system,
    scalar_ones,
)
from reference_oracle import reference_roll_closed_loop


# ---------------------------------------------------------------- riccati


def test_riccati_scalar_hand_values():
    sys, _ = scalar_ones()
    ric = riccati_backward(sys)
    assert abs(ric.P[1][0, 0] - 1.0) <= 1e-15
    assert abs(ric.P[0][0, 0] - 1.5) <= 1e-12
    assert abs(ric.K[0][0, 0] - (-0.5)) <= 1e-12


def test_riccati_zero_cost():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 3, 2, 2, 4)
    zero = TimeVaryingSystem(
        A=sys.A, B=sys.B, C=sys.C, Q=[np.zeros((3, 3))] * 5, R=sys.R
    )
    ric = riccati_backward(zero)
    for P in ric.P:
        assert np.array_equal(P, np.zeros((3, 3)))
    for K in ric.K:
        assert np.array_equal(K, np.zeros((2, 3)))


def test_riccati_no_control_reduces_to_lyapunov():
    rng = np.random.default_rng(8)
    sys = random_system(rng, 3, 2, 2, 3)
    nob = TimeVaryingSystem(A=sys.A, B=[np.zeros((3, 2))] * 3, C=sys.C, Q=sys.Q, R=sys.R)
    ric = riccati_backward(nob)
    expect = nob.Q[3]
    for t in reversed(range(3)):
        assert np.allclose(ric.K[t], 0.0, atol=1e-14)
        expect = 0.5 * (expect + expect.T)
        expect = nob.A[t].T @ expect @ nob.A[t] + nob.Q[t]
        assert np.allclose(ric.P[t], expect, atol=1e-12)


def test_riccati_psd_preservation():
    rng = np.random.default_rng(9)
    for _ in range(100):
        sys = random_system(rng, *random_dims(rng, 4, 6))
        ric = riccati_backward(sys)
        for P in ric.P:
            assert min_eigval(P) >= -1e-9 * max(1.0, np.linalg.norm(P))


# ----------------------------------------------------------------- kalman


def test_kalman_scalar_hand_values():
    sys, cov = scalar_ones()
    kal = kalman_forward(sys, cov)
    assert abs(kal.Sigma[0][0, 0] - 0.5) <= 1e-12
    assert abs(kal.L[0][0, 0] - 0.5) <= 1e-12
    assert kal.Sigma_pred[0][0, 0] == 1.0  # the initialization is X0 itself
    assert abs(kal.Sigma_pred[1][0, 0] - 1.5) <= 1e-12


def test_kalman_no_information():
    rng = np.random.default_rng(10)
    sys = random_system(rng, 3, 2, 2, 4)
    blind = TimeVaryingSystem(A=sys.A, B=sys.B, C=[np.zeros((2, 3))] * 4, Q=sys.Q, R=sys.R)
    cov = random_profile(rng, 3, 2, 4)
    kal = kalman_forward(blind, cov)
    for t in range(4):
        assert np.allclose(kal.Sigma[t], kal.Sigma_pred[t], atol=1e-12)
        assert np.allclose(kal.L[t], 0.0, atol=1e-14)


def test_kalman_deterministic_state():
    sys, _ = scalar_ones()
    cov = CovarianceProfile(X0=[[0.0]], W=([[0.0]],), V=([[1.0]],))
    kal = kalman_forward(sys, cov)
    assert kal.Sigma[0][0, 0] == 0.0


def test_kalman_rejects_singular_v_naming_stage():
    rng = np.random.default_rng(11)
    sys = random_system(rng, 2, 1, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    bad = CovarianceProfile(X0=cov.X0, W=cov.W, V=(cov.V[0], np.zeros((2, 2)), cov.V[2]))
    with pytest.raises(SingularMatrixError, match=r"V\[1\]"):
        kalman_forward(sys, bad)


@pytest.mark.parametrize("t", [0, 2])
def test_recursions_name_the_stage_that_overflows(t):
    # one entry of 1e300 in A[t] overflows A' P A, A Sigma A' and the
    # adjoint's A' S A at stage t of each recursion
    rng = np.random.default_rng(2202)
    sys = random_system(rng, 3, 2, 2, 3)
    cov = random_profile(rng, 3, 2, 3)
    A = [np.array(a) for a in sys.A]
    A[t][0, 0] = 1e300
    huge = dataclasses.replace(sys, A=A)
    with pytest.raises(ValueError, match=rf"^Riccati recursion overflows at stage {t}$"):
        riccati_backward(huge)
    with pytest.raises(ValueError, match=rf"^Kalman recursion overflows at stage {t}$"):
        kalman_forward(huge, cov)
    ric, kal = riccati_backward(sys), kalman_forward(sys, cov)
    with pytest.raises(ValueError, match=rf"^adjoint recursion overflows at stage {t}$"):
        grad_f(huge, cov, riccati=ric, kalman=kal)


def test_kalman_recursion_names_the_stage_of_a_failed_factorization():
    # 1e300 in W[0] makes C S C' + V at stage 1 lose its definiteness to
    # roundoff; the factorization's error named neither block nor stage
    rng = np.random.default_rng(2302)
    sys = random_system(rng, 2, 1, 2, 2)
    blocks = list(random_profile(rng, 2, 2, 2).blocks)
    blocks[1] = blocks[1].copy()
    blocks[1][0, 0] = 1e300
    with pytest.raises(
        SingularMatrixError,
        match=r"^Kalman recursion fails at stage 1: C\[1\] Sigma_pred\[1\] C\[1\]' \+ V\[1\] "
        r"is not positive definite$",
    ):
        lqg._kalman_forward_raw(sys, blocks)


def test_riccati_recursion_names_the_stage_of_a_failed_factorization(monkeypatch):
    rng = np.random.default_rng(2303)
    sys = random_system(rng, 2, 1, 2, 3)
    real = lqg._spd_solve
    calls = []

    def fail_at_the_second(s, b):  # the backward sweep's second stage is t = 1
        calls.append(None)
        if len(calls) == 2:
            raise SingularMatrixError("matrix is not positive definite")
        return real(s, b)

    monkeypatch.setattr(lqg, "_spd_solve", fail_at_the_second)
    with pytest.raises(
        SingularMatrixError,
        match=r"^Riccati recursion fails at stage 1: R\[1\] \+ B\[1\]' P\[2\] B\[1\] "
        r"is not positive definite$",
    ):
        riccati_backward(sys)


def test_kalman_gain_matches_filtered_form():
    # L_t is computed as Sigma_{t|t-1} C' M_t^{-1}; it must equal the
    # textbook Sigma_t C' V_t^{-1}.
    rng = np.random.default_rng(13)
    for n, m, p, T in [(3, 2, 1, 4), (2, 1, 4, 3), (4, 3, 2, 1), (1, 2, 3, 2)]:
        sys = random_system(rng, n, m, p, T)
        cov = random_profile(rng, n, p, T)
        kal = kalman_forward(sys, cov)
        for t in range(T):
            direct = np.linalg.solve(cov.V[t], sys.C[t] @ kal.Sigma[t]).T
            assert np.linalg.norm(kal.L[t] - direct) <= 1e-12 * np.linalg.norm(direct)


def test_kalman_information_inequality():
    # Conditioning on an observation never increases the covariance.
    rng = np.random.default_rng(12)
    for _ in range(20):
        sys = random_system(rng, *random_dims(rng, 4, 5))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        kal = kalman_forward(sys, cov)
        for t in range(sys.T):
            diff = kal.Sigma_pred[t] - kal.Sigma[t]
            assert min_eigval(diff) >= -1e-8 * max(1.0, np.linalg.norm(kal.Sigma_pred[t]))


# ------------------------------------------------------------------ value


def test_value_scalar_hand_evaluation():
    sys, cov = scalar_ones()
    assert abs(lqg_value(sys, cov) - 2.75) <= 1e-12


def test_value_zero_cost_instance():
    rng = np.random.default_rng(13)
    sys = random_system(rng, 2, 2, 2, 3)
    zero = TimeVaryingSystem(A=sys.A, B=sys.B, C=sys.C, Q=[np.zeros((2, 2))] * 4, R=sys.R)
    cov = random_profile(rng, 2, 2, 3)
    assert lqg_value(zero, cov) == 0.0


def test_value_monotone_in_process_noise():
    rng = np.random.default_rng(14)
    for _ in range(10):
        sys = random_system(rng, *random_dims(rng, 3, 4))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        base = lqg_value(sys, cov)
        t = int(rng.integers(sys.T))
        bumped = CovarianceProfile(
            X0=cov.X0,
            W=tuple(
                w + 1e-3 * np.eye(sys.n) if s == t else w for s, w in enumerate(cov.W)
            ),
            V=cov.V,
        )
        assert lqg_value(sys, bumped) >= base - 1e-9


def test_value_accepts_precomputed_recursions():
    sys, cov = scalar_ones()
    ric = riccati_backward(sys)
    kal = kalman_forward(sys, cov)
    assert lqg_value(sys, cov, riccati=ric, kalman=kal) == lqg_value(sys, cov)


def test_value_rejects_mismatched_profile():
    sys, _ = scalar_ones()
    cov = CovarianceProfile(X0=np.eye(2), W=(np.eye(2),), V=(np.eye(2),))
    with pytest.raises(ValueError):
        lqg_value(sys, cov)


_I1, _I2 = np.eye(1), np.eye(2)


@pytest.mark.parametrize(
    "X0, W, V, message",
    [
        (np.ones((2, 3)), [_I2] * 3, [_I1] * 3, r"^X0: expected shape \(2, 2\), got \(2, 3\)$"),
        (_I2, [_I2, np.ones((2, 3)), _I2], [_I1] * 3, r"^W\[1\]: expected shape"),
        (_I2, [_I2] * 3, [_I1, _I1, np.ones((1, 2))], r"^V\[2\]: expected shape"),
        (-_I2, [_I2] * 3, [_I1] * 3, r"^X0 must be positive semidefinite"),
        (_I2, [_I2, -_I2, _I2], [_I1] * 3, r"^W\[1\] must be positive semidefinite"),
        (_I2, [_I2] * 3, [_I1, [[np.nan]], _I1], r"^V\[1\] contains non-finite"),
        (_I2, [], [], r"^W and V must be non-empty and of equal length$"),
        (_I2, [_I2] * 2, [_I1], r"^W and V must be non-empty and of equal length$"),
    ],
)
def test_profile_errors_name_the_block(X0, W, V, message):
    with pytest.raises(ValueError, match=message):
        CovarianceProfile(X0=X0, W=W, V=V)


@pytest.mark.parametrize(
    "stages, message",
    [
        (dict(A=[], B=[], C=[], Q=[_I1], R=[]), "horizon must contain at least one stage"),
        (dict(A=[_I1], B=[[1.0]], C=[_I1], Q=[_I1] * 2, R=[_I1]), "B and C must be matrices"),
        (dict(A=[_I1], B=[_I1], C=[[1.0]], Q=[_I1] * 2, R=[_I1]), "B and C must be matrices"),
    ],
    ids=["empty", "1-D B", "1-D C"],
)
def test_system_rejects_stages_it_cannot_size(stages, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimeVaryingSystem(**stages)


def test_block_labels_are_the_profile_messages():
    # each label of _block_labels names its block exactly as the profile does
    T = 3
    for i, label in enumerate(lqg._block_labels(T)):
        blocks = [np.eye(2)] * (T + 1) + [np.eye(1)] * T
        blocks[i] = -blocks[i]
        with pytest.raises(ValueError) as err:
            CovarianceProfile(*lqg._split(blocks))
        assert str(err.value).startswith(f"{label} must be positive semidefinite")


def test_profile_blocks_follow_the_one_order():
    cov = random_profile(np.random.default_rng(22), 3, 2, 2)
    assert cov.blocks == (cov.X0, *cov.W, *cov.V)
    assert lqg._split(cov.blocks) == (cov.X0, cov.W, cov.V)
    trusted = CovarianceProfile._trusted([b.copy() for b in cov.blocks])
    assert len(trusted.blocks) == 5
    assert all(np.array_equal(a, b) for a, b in zip(trusted.blocks, cov.blocks))
    assert (trusted.T, trusted.n, trusted.p) == (2, 3, 2)


def test_profile_keeps_the_smallest_eigenvalue_of_its_psd_check(monkeypatch):
    rng = np.random.default_rng(2304)
    X0, W, V = (a @ a.T + 1e-3 * np.triu(a, 1) for a in rng.standard_normal((3, 3, 3)))
    cov = CovarianceProfile(X0=X0, W=(W,), V=(V,))
    assert cov._lowest == tuple(np.linalg.eigvalsh(b)[0] for b in cov.blocks)
    assert all(type(low) is float for low in cov._lowest)
    assert CovarianceProfile._trusted([b.copy() for b in cov.blocks])._lowest == (None,) * 3
    # kalman_forward's check of V takes the kept value, and solves a trusted V
    sys = random_system(rng, 3, 2, 3, 1)
    solved = []
    real = lqg.min_eigval
    monkeypatch.setattr(lqg, "min_eigval", lambda s: solved.append(None) or real(s))
    kal = kalman_forward(sys, cov)
    assert solved == []
    trusted = kalman_forward(sys, CovarianceProfile._trusted([b.copy() for b in cov.blocks]))
    assert len(solved) == 1
    assert all(np.array_equal(a, b) for a, b in zip(kal.L, trusted.L))


def test_profile_stores_symmetrized_frozen_blocks():
    rng = np.random.default_rng(21)
    X0, W, V = (a @ a.T + 1e-3 * np.triu(a, 1) for a in rng.standard_normal((3, 3, 3)))
    cov = CovarianceProfile(X0=X0, W=(W,), V=(V,))
    for got, raw in ((cov.X0, X0), (cov.W[0], W), (cov.V[0], V)):
        assert np.array_equal(got, 0.5 * (raw + raw.T))
        assert not got.flags.writeable


# ------------------------------------------------------------- controller


def test_controller_scalar_first_input():
    sys, cov = scalar_ones()
    ctrl = assemble_controller(sys, cov)
    policy = ctrl.make_policy(sys)
    u0 = policy.step(0, np.array([1.0]))
    assert abs(u0[0] - (-0.25)) <= 1e-12


def test_controller_blind_system_outputs_zero():
    # With C = 0 the filter gain vanishes, the estimate stays at zero, and
    # so does every input.
    rng = np.random.default_rng(15)
    sys = random_system(rng, 2, 2, 2, 3)
    blind = TimeVaryingSystem(A=sys.A, B=sys.B, C=[np.zeros((2, 2))] * 3, Q=sys.Q, R=sys.R)
    cov = random_profile(rng, 2, 2, 3)
    res = simulate(
        blind,
        assemble_controller(blind, cov),
        rng.standard_normal(2),
        rng.standard_normal((3, 2)),
        rng.standard_normal((3, 2)),
    )
    assert np.array_equal(res.u, np.zeros((3, 2)))


def test_controller_zero_feedback_gain():
    rng = np.random.default_rng(16)
    sys = random_system(rng, 2, 1, 2, 3)
    zero_q = TimeVaryingSystem(A=sys.A, B=sys.B, C=sys.C, Q=[np.zeros((2, 2))] * 4, R=sys.R)
    cov = random_profile(rng, 2, 2, 3)
    res = simulate(
        zero_q,
        assemble_controller(zero_q, cov),
        rng.standard_normal(2),
        rng.standard_normal((3, 2)),
        rng.standard_normal((3, 2)),
    )
    assert np.array_equal(res.u, np.zeros((3, 1)))


def test_controller_is_its_two_gain_sequences():
    rng = np.random.default_rng(17)
    sys = random_system(rng, 3, 2, 1, 4)
    cov = random_profile(rng, 3, 1, 4)
    ctrl = assemble_controller(sys, cov)
    assert [f.name for f in dataclasses.fields(ctrl)] == ["K", "L"]
    assert all(np.array_equal(a, b) for a, b in zip(ctrl.K, riccati_backward(sys).K))
    assert all(np.array_equal(a, b) for a, b in zip(ctrl.L, kalman_forward(sys, cov).L))


_MISFIT_GAINS = [
    ([np.zeros((2, 3))] * 3, [np.zeros((3, 1))] * 4, r"^K: expected 4 matrices, got 3$"),
    ([np.zeros((2, 3))] * 4, [np.zeros((3, 1))] * 5, r"^L: expected 4 matrices, got 5$"),
    ([np.zeros((3, 2))] * 4, [np.zeros((3, 1))] * 4, r"^K\[0\]: expected shape \(2, 3\)"),
    ([np.zeros((2, 3))] * 4, [np.zeros((3, 1))] * 3 + [np.zeros((1, 3))], r"^L\[3\]: "),
]


@pytest.mark.parametrize("K, L, message", _MISFIT_GAINS)
def test_make_policy_rejects_gains_that_do_not_fit(K, L, message):
    sys = random_system(np.random.default_rng(18), 3, 2, 1, 4)
    with pytest.raises(ValueError, match=message):
        KalmanController(K=K, L=L).make_policy(sys)


@pytest.mark.parametrize("K, L, message", _MISFIT_GAINS)
def test_monte_carlo_rejects_gains_that_do_not_fit(K, L, message):
    # the closed-loop rollout checks the gains as make_policy does
    rng = np.random.default_rng(18)
    sys = random_system(rng, 3, 2, 1, 4)
    cov = random_profile(rng, 3, 1, 4)
    with pytest.raises(ValueError, match=message):
        monte_carlo_cost(sys, KalmanController(K=K, L=L), cov, 10, rng=0)


@pytest.mark.parametrize(
    "n, T, message",
    [
        (2, 3, r"\(n=2, p=1, T=3\) does not match system \(n=2, p=1, T=2\)"),
        (3, 2, r"\(n=3, p=1, T=2\) does not match system \(n=2, p=1, T=2\)"),
    ],
    ids=["longer-horizon", "larger-state"],
)
def test_monte_carlo_rejects_a_profile_that_does_not_fit(n, T, message):
    # a longer profile once rolled out on the system's first stages and
    # returned a mean; a larger state failed inside numpy
    rng = np.random.default_rng(19)
    sys = random_system(rng, 2, 2, 1, 2)
    ctrl = assemble_controller(sys, random_profile(rng, 2, 1, 2))
    with pytest.raises(ValueError, match=message):
        monte_carlo_cost(sys, ctrl, random_profile(rng, n, 1, T), 10, rng=0)


def test_policy_rejects_out_of_order_steps():
    sys, cov = scalar_ones()
    policy = assemble_controller(sys, cov).make_policy(sys)
    policy.step(0, np.array([1.0]))
    with pytest.raises(ValueError):
        policy.step(0, np.array([1.0]))


_FORMS = ["kalman", "output", "purified"]


def _controller(kind, rng, n, m, p, T):
    """A controller of form ``kind`` with random gains of sizes (n, m, p, T)."""
    if kind == "kalman":
        K, L = 0.3 * rng.standard_normal((T, m, n)), 0.3 * rng.standard_normal((T, n, p))
        return KalmanController(K=tuple(K), L=tuple(L))
    cls = LinearOutputController if kind == "output" else LinearPurifiedController
    U = random_causal_gain(rng, m, p, T, scale=0.3)
    return cls(U=U, q=rng.standard_normal(m * T), m=m, p=p, T=T)


class PoliciesOnly:
    """A controller that has nothing but the ``make_policy`` of the one it wraps."""

    def __init__(self, ctrl):
        self._ctrl = ctrl

    def make_policy(self, sys):
        return self._ctrl.make_policy(sys)


@pytest.mark.parametrize("kind", _FORMS)
def test_policy_rejects_a_step_past_its_horizon(kind):
    # a Kalman policy raised IndexError here, and a gain's policy numpy's
    # "operands could not be broadcast together"
    rng = np.random.default_rng(36)
    n, m, p, T = 3, 2, 1, 2
    sys = random_system(rng, n, m, p, T)
    policy = _controller(kind, rng, n, m, p, T).make_policy(sys)
    for t in range(T):
        policy.step(t, np.ones(p))
    with pytest.raises(ValueError, match=rf"^policy stepped past its horizon: T={T}, got t={T}$"):
        policy.step(T, np.ones(p))


@pytest.mark.parametrize("kind", _FORMS)
def test_a_stepped_policy_needs_no_cycle_collector(kind):
    # a policy in a reference cycle lives until the cycle collector runs,
    # which once cost simulate about 15 %
    rng = np.random.default_rng(37)
    n, m, p, T = 3, 2, 2, 3
    sys = random_system(rng, n, m, p, T)
    ctrl = _controller(kind, rng, n, m, p, T)
    gc.disable()
    try:
        policy = ctrl.make_policy(sys)
        for t, y in enumerate(rng.standard_normal((T, 4, p))):
            policy.step(t, y)
        freed = weakref.ref(policy)
        del policy
        assert freed() is None
    finally:
        gc.enable()


# -------------------------------------------------------------- simulate


def test_simulate_zero_noise_zero_state():
    sys, cov = scalar_ones()
    res = simulate(sys, assemble_controller(sys, cov), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    assert res.cost == 0.0
    assert np.array_equal(res.x, np.zeros((2, 1)))
    assert np.array_equal(res.u, np.zeros((1, 1)))


def test_simulate_zero_controller_hand_rollout():
    # x0 = 1 with no noise and no control: x1 = 1, J = Q0 + Q1 = 2.
    sys, _ = scalar_ones()
    ctrl = KalmanController(K=(np.zeros((1, 1)),), L=(np.zeros((1, 1)),))
    res = simulate(sys, ctrl, np.ones(1), np.zeros((1, 1)), np.zeros((1, 1)))
    assert abs(res.cost - 2.0) <= 1e-15
    assert np.allclose(res.x, [[1.0], [1.0]], atol=1e-15)


def test_simulate_rejects_wrong_shapes():
    sys, cov = scalar_ones()
    ctrl = assemble_controller(sys, cov)
    with pytest.raises(ValueError):
        simulate(sys, ctrl, np.zeros(2), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        simulate(sys, ctrl, np.zeros(1), np.zeros((2, 1)), np.zeros((1, 1)))


# ------------------------------------------------------------ monte carlo


def test_monte_carlo_matches_exact_value():
    sys, cov = scalar_ones()
    ctrl = assemble_controller(sys, cov)
    stats = monte_carlo_cost(sys, ctrl, cov, n_samples=40_000, rng=0)
    assert abs(stats.mean - 2.75) <= 3.0 * stats.stderr


def test_sample_noise_is_reproducible():
    sys, cov = scalar_ones()
    a = sample_noise(cov, 16, np.random.default_rng(3))
    b = sample_noise(cov, 16, np.random.default_rng(3))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_sample_noise_pins_the_draw_order():
    # one (N, n + T n + T p) draw: the x0 block, then w_0..w_{T-1}, then v_0..v_{T-1}
    n, p, T, N = 3, 2, 4, 7
    cov = random_profile(np.random.default_rng(6), n, p, T)
    x0, w, v = sample_noise(cov, N, np.random.default_rng(9))
    z = np.random.default_rng(9).standard_normal((N, n + T * n + T * p))
    assert np.array_equal(x0, z[:, :n] @ psd_sqrt(cov.X0))
    for t in range(T):
        assert np.array_equal(w[:, t], z[:, n + t * n : n + (t + 1) * n] @ psd_sqrt(cov.W[t]))
        off = n + T * n + t * p
        assert np.array_equal(v[:, t], z[:, off : off + p] @ psd_sqrt(cov.V[t]))


def test_noise_roots_of_the_stage_stacks_are_the_per_block_roots():
    # one psd_sqrt of each stage stack, byte for byte the root of each block:
    # on a rectangular profile with a zero block and on a solved worst case
    rng = np.random.default_rng(14)
    cov = random_profile(rng, 3, 2, 4)
    zero = CovarianceProfile(X0=cov.X0, W=cov.W[:1] + (np.zeros((3, 3)),) + cov.W[2:], V=cov.V)
    sys, amb, _ = generate_instance(3, 2, 4, 3, 0, 0.5)
    worst = solve(sys, amb, FWConfig(step="line", tol=1e-4)).worst_case
    for profile in (zero, worst):
        roots = lqg._noise_roots(profile)
        assert len(roots) == len(profile.blocks)
        for root, block in zip(roots, profile.blocks):
            assert root.tobytes() == psd_sqrt(block).tobytes()


def test_monte_carlo_rejects_fewer_than_two_rollouts():
    sys, cov = scalar_ones()
    ctrl = assemble_controller(sys, cov)
    for n in (1, 0):
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_cost(sys, ctrl, cov, n_samples=n, rng=0)


def _chunk_rows(cov):
    return max(1, lqg._CHUNK_ELEMENTS // (cov.n + cov.T * (cov.n + cov.p)))


# (n, m, p, T, zero X0 and W[0]): T = 1, n != m != p, and zero noise blocks
_MC_DIMS = [(3, 1, 2, 3, False), (2, 3, 1, 1, False), (4, 2, 3, 2, False), (3, 2, 1, 4, True)]


@pytest.mark.parametrize("kind", ["kalman", "purified"])
@pytest.mark.parametrize("rows", [1, 5])
def test_monte_carlo_chunks_match_one_draw(monkeypatch, kind, rows):
    # The Kalman controller rolls out on the closed loop, every other one
    # through simulate's policy path; both must cost each row as simulate
    # does, whatever the chunking.  The dims run in a loop to keep the ids.
    for n, m, p, T, zero_blocks in _MC_DIMS:
        rng = np.random.default_rng(21)
        sys = random_system(rng, n, m, p, T)
        cov = random_profile(rng, n, p, T)
        if zero_blocks:
            cov = CovarianceProfile(X0=np.zeros((n, n)), W=(np.zeros((n, n)),) + cov.W[1:], V=cov.V)
        if kind == "kalman":
            ctrl = assemble_controller(sys, cov)
        else:
            ctrl = LinearPurifiedController(
                U=random_causal_gain(rng, m, p, T, scale=0.3),
                q=rng.standard_normal(m * T),
                m=m, p=p, T=T,
            )
        width = n + T * (n + p)
        # a budget of ``rows`` rows plus a remainder that must not make a row
        monkeypatch.setattr(lqg, "_CHUNK_ELEMENTS", rows * width + width - 1)
        assert _chunk_rows(cov) == rows
        N = 2 * rows + 3  # two chunk boundaries and a ragged tail
        gen = np.random.default_rng(8)
        stats = monte_carlo_cost(sys, ctrl, cov, N, rng=gen)

        x0, w, v = sample_noise(cov, N, np.random.default_rng(8))
        rows_cost = np.array([simulate(sys, ctrl, x0[i], w[i], v[i]).cost for i in range(N)])
        assert stats.costs.shape == (N,)
        assert np.all(np.abs(stats.costs - rows_cost) <= 1e-12 * np.abs(rows_cost))

        one_draw = np.random.default_rng(8)
        one_draw.standard_normal((N, width))
        assert np.array_equal(gen.standard_normal(8), one_draw.standard_normal(8))


@pytest.mark.blas_exact
@pytest.mark.parametrize(
    "n, m, p, T, zero_blocks", _MC_DIMS + [(10, 10, 10, 10, False), (20, 20, 20, 20, False)]
)
def test_closed_loop_roll_matches_the_three_product_reference(n, m, p, T, zero_blocks):
    # one product per stage on [s_t | z_wt | z_v,t+1] against the roll it
    # replaced, on one whole chunk: 624 rows at n = T = 10, 159 at n = T = 20
    rng = np.random.default_rng(12)
    sys = random_system(rng, n, m, p, T)
    cov = random_profile(rng, n, p, T)
    if zero_blocks:
        cov = CovarianceProfile(X0=np.zeros((n, n)), W=(np.zeros((n, n)),) + cov.W[1:], V=cov.V)
    ctrl = assemble_controller(sys, cov)
    roots = lqg._noise_roots(cov)
    z = rng.standard_normal((_chunk_rows(cov), n + T * (n + p)))
    z.flags.writeable = False  # the roll reads the chunk and writes nothing into it
    got = lqg._roll_closed_loop(sys, lqg._closed_loop_maps(sys, ctrl.K, ctrl.L, roots), z)
    want = reference_roll_closed_loop(sys, ctrl.K, ctrl.L, roots, z)
    assert got.shape == want.shape == (len(z),)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_monte_carlo_rolls_out_a_controller_that_only_makes_policies(monkeypatch):
    # anything simulate takes: a controller other than a KalmanController is
    # rolled out by a fresh make_policy policy per chunk on the colored noise,
    # so a wrapper costs bit for bit as the output gain it wraps, and as the
    # Kalman controller's closed loop to roundoff
    rng = np.random.default_rng(9)
    n, m, p, T = 3, 2, 4, 3
    sys = random_system(rng, n, m, p, T)
    cov = random_profile(rng, n, p, T)
    gain = LinearOutputController(
        U=random_causal_gain(rng, m, p, T, scale=0.3), q=rng.standard_normal(m * T), m=m, p=p, T=T
    )
    kalman = assemble_controller(sys, cov)
    monkeypatch.setattr(lqg, "_CHUNK_ELEMENTS", 4 * (n + T * (n + p)))  # chunks of 4 rows

    def costs(ctrl):
        return monte_carlo_cost(sys, ctrl, cov, 10, rng=3).costs

    assert costs(PoliciesOnly(gain)).tobytes() == costs(gain).tobytes()
    want = costs(kalman)
    assert np.all(np.abs(costs(PoliciesOnly(kalman)) - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("kind", _FORMS + ["wrapper"])
def test_monte_carlo_checks_the_controller_before_the_first_draw(kind):
    # a controller whose m does not fit raises and leaves the generator as it was
    rng = np.random.default_rng(38)
    n, m, p, T = 3, 2, 1, 4
    sys = random_system(rng, n, m, p, T)
    cov = random_profile(rng, n, p, T)
    ctrl = _controller("output" if kind == "wrapper" else kind, rng, n, m + 1, p, T)
    if kind == "wrapper":
        ctrl = PoliciesOnly(ctrl)
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError):
        monte_carlo_cost(sys, ctrl, cov, 10, rng=gen)
    assert gen.bit_generator.state == state


def test_monte_carlo_memory_is_bounded():
    rng = np.random.default_rng(4)
    n = T = 10
    sys = random_system(rng, n, n, n, T)
    cov = random_profile(rng, n, n, T)
    ctrl = assemble_controller(sys, cov)
    chunk = _chunk_rows(cov)
    peaks = {}
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            monte_carlo_cost(sys, ctrl, cov, blocks * chunk, rng=0)
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    costs_growth = (16 - 4) * chunk * 8
    assert peaks[16] - peaks[4] <= costs_growth + 2**20


def test_monte_carlo_peak_memory_at_audit_size():
    # 10^5 rollouts at n = T = 10: one 1 MiB chunk of normals, the 0.8 MB of
    # costs and the closed loop's two 0.2 MB row buffers and its priced
    # state, 2.4 MiB, then the costs and np.std's copy of them once the
    # chunk is released
    rng = np.random.default_rng(4)
    n = T = 10
    sys = random_system(rng, n, n, n, T)
    cov = random_profile(rng, n, n, T)
    ctrl = assemble_controller(sys, cov)
    tracemalloc.start()
    try:
        monte_carlo_cost(sys, ctrl, cov, 100_000, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20
