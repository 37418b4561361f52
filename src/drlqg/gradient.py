"""Gradients of the optimal LQG cost with respect to the noise covariances.

The value f(X0, W, V) depends on the covariances only through the filter
recursion; the Riccati matrices P_t are independent of them.  Writing
S_t = Sigma_{t|t-1}, M_t = C_t S_t C_t' + V_t and Kt = S_t C_t' M_t^{-1}
(which equals the filter gain L_t = Sigma_t C_t' V_t^{-1}), the filter step
Sigma_t = S_t - Kt C_t S_t has the exact differentials

    dSigma_t = Kt dV_t Kt'                      (V_t direction)
    dSigma_t = (I - Kt C_t) dS_t (I - Kt C_t)'  (S_t direction)

so a single backward sweep of matrix adjoints gives the full gradient.
``fd_grad`` provides an independent central-difference reference built from
symmetric elementary perturbations of one block at a time, in the order and
under the labels of ``CovarianceProfile.blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, _symmetrized, min_eigval
from .lqg import (
    CovarianceProfile,
    KalmanSolution,
    RiccatiSolution,
    TimeVaryingSystem,
    _block_labels,
    _check_dims,
    _frozen,
    _frozen_in_place,
    _kalman_forward_raw,
    _overflow,
    _split,
    _value_from_solutions,
    kalman_forward,
    riccati_backward,
)


@dataclass(frozen=True)
class GradientBlocks:
    """Per-block symmetric gradients, in the order X0, W_0.., V_0.."""

    dX0: np.ndarray
    dW: tuple
    dV: tuple

    def flat(self) -> list[np.ndarray]:
        return [self.dX0, *self.dW, *self.dV]


@np.errstate(over="raise", invalid="raise")
def _grad_from_solutions(
    sys: TimeVaryingSystem, ric: RiccatiSolution, kal: KalmanSolution
) -> tuple[np.ndarray, ...]:
    """Backward adjoint sweep given the two recursions: the 2T+1 frozen
    gradient blocks in ``CovarianceProfile.blocks`` order.

    f = sum_{t<T} tr((Q_t - P_t) Sigma_t) + sum_{t=0..T} tr(P_t S_t) with
    S_0 = X0 and S_{t+1} = A_t Sigma_t A_t' + W_t, so every predicted
    covariance carries a direct adjoint P_t plus, for t < T, the filtered
    contribution propagated through the two differential identities above.
    An overflow raises ``ValueError`` naming the stage.
    """
    T = sys.T
    dW = [None] * T
    dV = [None] * T
    s_adj = ric.P[T]  # adjoint of S_{t+1}, starting at t = T-1
    try:
        for t in reversed(range(T)):
            dW[t] = s_adj
            lam = _symmetrized(sys.Q[t] - ric.P[t] + sys.A[t].T @ s_adj @ sys.A[t])
            gain = kal.L[t]
            dV[t] = _symmetrized(gain.T @ lam @ gain)
            closed = np.eye(sys.n) - gain @ sys.C[t]
            s_adj = _symmetrized(ric.P[t] + closed.T @ lam @ closed)
    except FloatingPointError:
        raise _overflow("adjoint", t) from None
    return _frozen_in_place([s_adj, *dW, *dV])


def grad_f(
    sys: TimeVaryingSystem,
    cov: CovarianceProfile,
    riccati: RiccatiSolution | None = None,
    kalman: KalmanSolution | None = None,
) -> GradientBlocks:
    """Gradient of :func:`drlqg.lqg.lqg_value` in the noise covariances."""
    _check_dims(sys, cov)
    ric = riccati if riccati is not None else riccati_backward(sys)
    kal = kalman if kalman is not None else kalman_forward(sys, cov)
    return GradientBlocks(*_split(_grad_from_solutions(sys, ric, kal)))


def _fd_block(eval_at, base: np.ndarray, step: float) -> np.ndarray:
    """Central differences along symmetric elementary directions.

    Directions are E_ii = e_i e_i' on the diagonal and
    E_ij = (e_i e_j' + e_j e_i') / 2 off it, matching the convention that a
    symmetric gradient matrix g represents df = <g, dZ> for symmetric dZ.
    """
    d = base.shape[0]
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i + 1):
            delta = np.zeros((d, d))
            if i == j:
                delta[i, i] = step
            else:
                delta[i, j] = delta[j, i] = 0.5 * step
            hi = eval_at(base + delta)
            lo = eval_at(base - delta)
            out[i, j] = out[j, i] = (hi - lo) / (2.0 * step)
    return out


def fd_grad(sys: TimeVaryingSystem, cov: CovarianceProfile, step: float = 1e-5) -> GradientBlocks:
    """Finite-difference reference gradient.

    Each V block must stay PD under perturbation; when the margin is smaller
    than the step, the step is reduced once by 10x for that block, and a
    still-insufficient margin is an error.
    """
    _check_dims(sys, cov)
    if step <= 0:
        raise ValueError("step must be positive")
    ric = riccati_backward(sys)
    blocks = cov.blocks
    grads = []
    for i, label in enumerate(_block_labels(sys.T)):

        def value_at(z, i=i):
            kal = _kalman_forward_raw(sys, (*blocks[:i], z, *blocks[i + 1 :]))
            return _value_from_solutions(sys, ric, kal)

        eff = step
        if label.startswith("V"):
            margin = min_eigval(blocks[i])
            if margin <= eff:
                eff = step / 10.0
            if margin <= eff:
                raise SingularMatrixError(
                    f"{label} margin {margin:.3e} too small for finite-difference step"
                )
        grads.append(_frozen(_fd_block(value_at, blocks[i], eff)))
    return GradientBlocks(*_split(grads))
