import numpy as np
import pytest

from drlqg import (
    CovarianceProfile,
    TimeVaryingSystem,
    fd_grad,
    grad_f,
    lqg_value,
    riccati_backward,
)
from drlqg.linalg import SingularMatrixError, min_eigval, symmetrize

from helpers import random_dims, random_profile, random_system, scalar_ones


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def _grad_err(g, ref):
    return max(_rel_err(x, y) for x, y in zip(g.flat(), ref.flat()))


# ---------------------------------------------------------- filter-step
# The reverse pass rests on two exact differentials of one filter update
#     Sigma = S - S C' (C S C' + V)^{-1} C S,    Kt = S C' (C S C' + V)^{-1}:
#         dSigma = Kt dV Kt'               (moving V)
#         dSigma = (I - Kt C) dS (I - Kt C)'   (moving S)
# checked here against central differences of an independent one-step
# implementation, away from any package recursion code.


def _filter_step(S, V, C):
    M = C @ S @ C.T + V
    gain = np.linalg.solve(M, C @ S).T
    sig = S - gain @ C @ S
    return 0.5 * (sig + sig.T), gain


def test_filter_step_v_differential():
    rng = np.random.default_rng(40)
    h = 1e-5
    for _ in range(10):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        S = a @ a.T / n + 0.3 * np.eye(n)
        b = rng.standard_normal((p, p))
        V = b @ b.T / p + 0.5 * np.eye(p)
        C = rng.standard_normal((p, n))
        _, gain = _filter_step(S, V, C)
        dV = symmetrize(rng.standard_normal((p, p)))
        hi, _ = _filter_step(S, V + h * dV, C)
        lo, _ = _filter_step(S, V - h * dV, C)
        numeric = (hi - lo) / (2.0 * h)
        assert _rel_err(numeric, gain @ dV @ gain.T) <= 1e-5


def test_filter_step_s_differential():
    rng = np.random.default_rng(41)
    h = 1e-5
    for _ in range(10):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        S = a @ a.T / n + 0.3 * np.eye(n)
        b = rng.standard_normal((p, p))
        V = b @ b.T / p + 0.5 * np.eye(p)
        C = rng.standard_normal((p, n))
        _, gain = _filter_step(S, V, C)
        closed = np.eye(n) - gain @ C
        dS = symmetrize(rng.standard_normal((n, n)))
        hi, _ = _filter_step(S + h * dS, V, C)
        lo, _ = _filter_step(S - h * dS, V, C)
        numeric = (hi - lo) / (2.0 * h)
        assert _rel_err(numeric, closed @ dS @ closed.T) <= 1e-5


# ------------------------------------------------------------- hand values


def test_grad_scalar_hand_values():
    sys, cov = scalar_ones()
    g = grad_f(sys, cov)
    assert abs(g.dW[0][0, 0] - 1.0) <= 1e-12
    assert abs(g.dX0[0, 0] - 1.625) <= 1e-12
    assert abs(g.dV[0][0, 0] - 0.125) <= 1e-12


def test_grad_blind_system_has_zero_v_blocks():
    rng = np.random.default_rng(42)
    sys = random_system(rng, 3, 2, 2, 4)
    blind = TimeVaryingSystem(A=sys.A, B=sys.B, C=[np.zeros((2, 3))] * 4, Q=sys.Q, R=sys.R)
    cov = random_profile(rng, 3, 2, 4)
    g = grad_f(blind, cov)
    for block in g.dV:
        assert np.array_equal(block, np.zeros((2, 2)))


def test_grad_zero_cost_instance():
    rng = np.random.default_rng(43)
    sys = random_system(rng, 2, 2, 2, 3)
    zero = TimeVaryingSystem(A=sys.A, B=sys.B, C=sys.C, Q=[np.zeros((2, 2))] * 4, R=sys.R)
    cov = random_profile(rng, 2, 2, 3)
    for block in grad_f(zero, cov).flat():
        assert np.array_equal(block, np.zeros((2, 2)))
    for block in fd_grad(zero, cov).flat():
        assert np.array_equal(block, np.zeros((2, 2)))


def test_grad_final_process_block_is_terminal_cost_to_go():
    # W_{T-1} enters the value only through tr(P_T Sigma_{T|T-1}).
    rng = np.random.default_rng(44)
    sys = random_system(rng, 3, 2, 2, 4)
    cov = random_profile(rng, 3, 2, 4)
    g = grad_f(sys, cov)
    assert np.array_equal(g.dW[-1], riccati_backward(sys).P[-1])


# -------------------------------------------------------------- fd oracle


def test_grad_matches_fd_on_scalar_instance():
    sys, cov = scalar_ones()
    assert _grad_err(fd_grad(sys, cov, step=1e-5), grad_f(sys, cov)) <= 1e-6


def test_grad_matches_fd_on_random_instances():
    rng = np.random.default_rng(45)
    for _ in range(6):
        sys = random_system(rng, *random_dims(rng, 3, 5))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        assert _grad_err(grad_f(sys, cov), fd_grad(sys, cov, step=1e-5)) <= 1e-4


def test_fd_error_shrinks_quadratically():
    # Central differences are second order: halving the step should cut the
    # truncation error roughly 4x while it still dominates roundoff.
    rng = np.random.default_rng(46)
    sys = random_system(rng, 2, 1, 2, 3)
    cov = random_profile(rng, 2, 2, 3)
    exact = grad_f(sys, cov)
    coarse = _grad_err(fd_grad(sys, cov, step=1e-2), exact)
    fine = _grad_err(fd_grad(sys, cov, step=5e-3), exact)
    assert coarse > 1e-11  # truncation visibly dominates at this step
    assert fine <= coarse / 2.5


def test_grad_blocks_are_symmetric():
    rng = np.random.default_rng(47)
    for _ in range(5):
        sys = random_system(rng, *random_dims(rng, 3, 4))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        for block in grad_f(sys, cov).flat():
            assert np.max(np.abs(block - block.T)) <= 1e-12


def test_grad_blocks_are_psd_up_to_roundoff():
    # f is nondecreasing in every covariance in the PSD order, so its
    # gradient blocks cannot have meaningfully negative eigenvalues.
    rng = np.random.default_rng(48)
    for _ in range(10):
        sys = random_system(rng, *random_dims(rng, 3, 4))
        cov = random_profile(rng, sys.n, sys.p, sys.T)
        for block in grad_f(sys, cov).flat():
            assert min_eigval(block) >= -1e-7 * max(1.0, np.linalg.norm(block))


@pytest.mark.parametrize("zero_blocks", [False, True])
@pytest.mark.parametrize("n, m, p, T", [(3, 2, 1, 4), (2, 3, 4, 2), (4, 1, 2, 3), (1, 2, 3, 5)])
def test_value_is_the_gradient_priced_at_its_own_profile(n, m, p, T, zero_blocks):
    # f is positively homogeneous of degree 1 in (X0, W, V): scaling all noise
    # by c scales the optimal cost by c and leaves the gains alone, so Euler's
    # identity gives f(Z) = sum_i <grad f(Z)_i, Z_i>
    rng = np.random.default_rng(49 + 10 * n + T)
    for _ in range(3):
        sys = random_system(rng, n, m, p, T)
        cov = random_profile(rng, n, p, T)
        if zero_blocks:  # X0 and the even-stage W blocks
            zero = np.zeros((n, n))
            cov = CovarianceProfile(
                X0=zero, W=[zero if t % 2 == 0 else w for t, w in enumerate(cov.W)], V=cov.V
            )
        value = lqg_value(sys, cov)
        priced = sum(float(np.vdot(g, z)) for g, z in zip(grad_f(sys, cov).flat(), cov.blocks))
        assert value > 0.0
        assert abs(priced - value) <= 1e-12 * value


def test_fd_rejects_nonpositive_step():
    sys, cov = scalar_ones()
    with pytest.raises(ValueError):
        fd_grad(sys, cov, step=0.0)


def test_fd_step_reduction_near_pd_boundary():
    # V barely PD: the default step would leave the PD cone, one 10x
    # reduction still fits, so the call must succeed.
    sys, _ = scalar_ones()
    cov = CovarianceProfile(X0=[[1.0]], W=([[1.0]],), V=([[5e-6]],))
    g = fd_grad(sys, cov, step=1e-5)
    assert np.all(np.isfinite(g.dV[0]))
    # Even the reduced step cannot fit inside a 5e-8 margin.
    tight = CovarianceProfile(X0=[[1.0]], W=([[1.0]],), V=([[5e-8]],))
    with pytest.raises(SingularMatrixError):
        fd_grad(sys, tight, step=1e-5)
