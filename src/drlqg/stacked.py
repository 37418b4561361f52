"""Stacked (batch) form of the finite-horizon system and linear controllers.

Stacking states x = (x_0..x_T), inputs u = (u_0..u_{T-1}), observations
y = (y_0..y_{T-1}) and noise w = (x_0-noise, w_0..w_{T-1}) gives

    x = G w + H u,        y = Cs x + v = D w + Cs H u + v,

where G is block lower-triangular with blocks G[t,s] = A_{t-1}...A_s
(identity on the diagonal), H is strictly block lower-triangular with blocks
H[t,s] = A_{t-1}...A_{s+1} B_s, Cs places C_t on the block diagonal (the
terminal state is unobserved), and D = Cs G.

A *purified* observation is eta_t = y_t - yhat_t, where yhat comes from a
noise-free twin of the plant driven by the same inputs.  The map from inputs
to eta is control-independent (eta = D w + v), so causal policies u = U eta + q
parameterize the closed loop linearly: the expected quadratic cost of such a
policy is an explicit trace formula in the noise covariances, and the
causal-in-y and causal-in-eta parameterizations are related by triangular
changes of variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import min_eigval
from .lqg import (
    CovarianceProfile,
    KalmanController,
    TimeVaryingSystem,
    _check_gains,
    _frozen,
    assemble_controller,
)


@dataclass(frozen=True)
class StackedSystem:
    """Stacked matrices plus block dimensions for indexing."""

    Qs: np.ndarray  # n(T+1) x n(T+1), block diag(Q_0..Q_T)
    Rs: np.ndarray  # mT x mT, block diag(R_0..R_{T-1})
    Cs: np.ndarray  # pT x n(T+1)
    G: np.ndarray  # n(T+1) x n(T+1)
    H: np.ndarray  # n(T+1) x mT
    D: np.ndarray  # pT x n(T+1), equals Cs @ G
    n: int
    m: int
    p: int
    T: int


def _block_diag(blocks) -> np.ndarray:
    """Place the square ``blocks`` along the diagonal of a zero matrix."""
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim))
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i : i + k, i : i + k] = b
        i += k
    return out


def build_stacked(sys: TimeVaryingSystem) -> StackedSystem:
    """Assemble the stacked matrices from per-stage data."""
    n, m, p, T = sys.n, sys.m, sys.p, sys.T
    N = n * (T + 1)
    G = np.zeros((N, N))
    H = np.zeros((N, m * T))
    for t in range(T + 1):
        G[t * n : (t + 1) * n, t * n : (t + 1) * n] = np.eye(n)
    for t in range(1, T + 1):
        rows = slice(t * n, (t + 1) * n)
        prev = slice((t - 1) * n, t * n)
        for s in range(t):
            G[rows, s * n : (s + 1) * n] = sys.A[t - 1] @ G[prev, s * n : (s + 1) * n]
        H[rows, (t - 1) * m : t * m] = sys.B[t - 1]
        for s in range(t - 1):
            H[rows, s * m : (s + 1) * m] = sys.A[t - 1] @ H[prev, s * m : (s + 1) * m]
    Cs = np.zeros((p * T, N))
    for t in range(T):
        Cs[t * p : (t + 1) * p, t * n : (t + 1) * n] = sys.C[t]
    Qs = _block_diag(sys.Q)
    Rs = _block_diag(sys.R)
    return StackedSystem(
        Qs=_frozen(Qs),
        Rs=_frozen(Rs),
        Cs=_frozen(Cs),
        G=_frozen(G),
        H=_frozen(H),
        D=_frozen(Cs @ G),
        n=n,
        m=m,
        p=p,
        T=T,
    )


def _check_causal(U: np.ndarray, m: int, p: int, T: int, name: str):
    if U.shape != (m * T, p * T):
        raise ValueError(f"{name}: expected shape {(m * T, p * T)}, got {U.shape}")
    for t in range(T):
        for s in range(t + 1, T):
            if np.any(U[t * m : (t + 1) * m, s * p : (s + 1) * p] != 0.0):
                raise ValueError(
                    f"{name}: block ({t},{s}) above the diagonal is nonzero; "
                    "the gain must be causal"
                )


@dataclass(frozen=True)
class _CausalGain:
    """Causal u = U z + q, checked and frozen; subclasses say what z is and set ``_name``."""

    U: np.ndarray
    q: np.ndarray
    m: int
    p: int
    T: int

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        q = np.asarray(self.q, dtype=float)
        _check_causal(U, self.m, self.p, self.T, self._name)
        if q.shape != (self.m * self.T,):
            raise ValueError(f"offset: expected shape {(self.m * self.T,)}, got {q.shape}")
        object.__setattr__(self, "U", _frozen(U))
        object.__setattr__(self, "q", _frozen(q))


@dataclass(frozen=True)
class LinearPurifiedController(_CausalGain):
    """Causal affine policy u = U eta + q over purified observations."""

    _name = "purified gain"

    def make_policy(self, sys: TimeVaryingSystem):
        return _PurifiedPolicy(sys, self)


@dataclass(frozen=True)
class LinearOutputController(_CausalGain):
    """Causal affine policy u = U y + q over raw observations."""

    _name = "output gain"

    def make_policy(self, sys: TimeVaryingSystem):
        return _OutputPolicy(self)


class _OutputPolicy:
    """u_t = q_t + sum_{s<=t} U[t,s] y_s (or eta_s), batched over leading dims."""

    def __init__(self, ctrl: _CausalGain):
        self._ctrl = ctrl
        self._ys = []
        self._t = 0

    def step(self, t: int, y):
        if t != self._t:
            raise ValueError(f"policy stepped out of order: expected t={self._t}, got {t}")
        self._ys.append(y)
        c = self._ctrl
        u = np.broadcast_to(c.q[t * c.m : (t + 1) * c.m], y.shape[:-1] + (c.m,)).copy()
        for s, ys in enumerate(self._ys):
            u += ys @ c.U[t * c.m : (t + 1) * c.m, s * c.p : (s + 1) * c.p].T
        self._t += 1
        return u


class _PurifiedPolicy:
    """Purify on the fly with a noise-free twin, then apply u = U eta + q as an output gain."""

    def __init__(self, sys: TimeVaryingSystem, ctrl: LinearPurifiedController):
        self._sys = sys
        self._gain = _OutputPolicy(ctrl)
        self._xtwin = None

    def step(self, t: int, y):
        sys = self._sys
        if self._xtwin is None:
            self._xtwin = np.zeros(y.shape[:-1] + (sys.n,))
        u = self._gain.step(t, y - self._xtwin @ sys.C[t].T)
        self._xtwin = self._xtwin @ sys.A[t].T + u @ sys.B[t].T
        return u


def purified_from_rollout(sys: TimeVaryingSystem, u, y) -> np.ndarray:
    """Recover eta_t = y_t - yhat_t from a recorded (u, y) trajectory.

    The noise-free twin is driven by the recorded inputs: xhat_0 = 0,
    yhat_t = C_t xhat_t, xhat_{t+1} = A_t xhat_t + B_t u_t.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    T = sys.T
    eta = np.empty_like(y)
    xhat = np.zeros(sys.n)
    for t in range(T):
        eta[t] = y[t] - sys.C[t] @ xhat
        xhat = sys.A[t] @ xhat + sys.B[t] @ u[t]
    return eta


def controller_cost_trace(
    st: StackedSystem, ctrl: LinearPurifiedController, cov: CovarianceProfile
) -> float:
    """Exact expected cost of a purified-feedback policy as a trace formula.

    With S = Rs + H' Qs H, Wbig = diag(X0, W_0..W_{T-1}) and
    Vbig = diag(V_0..V_{T-1}):

        J(U, q) = tr[(D'U'S U D + 2 G'Qs H U D + G'Qs G) Wbig]
                  + tr[(U'S U) Vbig] + q'S q
    """
    if cov.T != st.T or cov.n != st.n or cov.p != st.p:
        raise ValueError("covariance profile does not match the stacked system")
    Wbig = _block_diag((cov.X0, *cov.W))
    Vbig = _block_diag(cov.V)
    S = st.Rs + st.H.T @ st.Qs @ st.H
    UD = ctrl.U @ st.D
    SU = S @ ctrl.U
    w_term = UD.T @ S @ UD + 2.0 * st.G.T @ (st.Qs @ (st.H @ UD)) + st.G.T @ st.Qs @ st.G
    val = float(np.trace(w_term @ Wbig))
    val += float(np.trace((ctrl.U.T @ SU) @ Vbig))
    val += float(ctrl.q @ S @ ctrl.q)
    return val


def _first_order_bound(st: StackedSystem, U: np.ndarray, cov: CovarianceProfile) -> float:
    """Bound b: every causal purified policy costs at least J(U, 0) - b.

    For causal dU, J(U + dU, q) = J(U, 0) + <g, dU> + tr(dU' S dU Sigma_eta)
    + q' S q, with S = Rs + H' Qs H, Sigma_eta = D Wbig D' + Vbig and g the
    causal part of 2 (S U Sigma_eta + H' Qs G Wbig D'), so
    b = |g|_F^2 / (4 lmin(S) lmin(Sigma_eta)) (infinite unless both are > 0).
    """
    Wbig = _block_diag((cov.X0, *cov.W))
    S = st.Rs + st.H.T @ st.Qs @ st.H
    sigma_eta = st.D @ Wbig @ st.D.T + _block_diag(cov.V)
    grad = 2.0 * (S @ U @ sigma_eta + st.H.T @ st.Qs @ st.G @ Wbig @ st.D.T)
    for t in range(st.T):  # keep the causal part: block row t sees eta_0..eta_t
        grad[t * st.m : (t + 1) * st.m, (t + 1) * st.p :] = 0.0
    curvature = 4.0 * min_eigval(S) * min_eigval(sigma_eta)
    return float(np.sum(grad**2)) / curvature if curvature > 0.0 else np.inf


def _unit_lower_solve(N: np.ndarray, B: np.ndarray, m: int, T: int) -> np.ndarray:
    """Solve (I + N) X = B for strictly block lower-triangular N (m x m blocks).

    Block forward substitution: block row t of X is B_t minus N's blocks
    left of the diagonal times the rows already solved.  Only those blocks
    are read, so exact zeros of B above the block diagonal stay exact.
    """
    X = np.array(B, dtype=float)
    for t in range(1, T):
        rows = slice(t * m, (t + 1) * m)
        X[rows] -= N[rows, : t * m] @ X[: t * m]
    return X


def _substitute(ctrl: _CausalGain, st: StackedSystem, sign: float, cls):
    """Solve (I + sign U Cs H) (U', q') = (U, q), sign = +-1.0, into a ``cls`` gain."""
    N = sign * (ctrl.U @ st.Cs @ st.H)
    U = _unit_lower_solve(N, ctrl.U, st.m, st.T)
    q = _unit_lower_solve(N, ctrl.q, st.m, st.T)
    return cls(U=U, q=q, m=st.m, p=st.p, T=st.T)


def purified_to_output(
    ctrl: LinearPurifiedController, st: StackedSystem
) -> LinearOutputController:
    """Convert u = U eta + q into the equivalent u = U' y + q'.

    Substituting eta = y - Cs H u gives (I + U Cs H) u = U y + q; U Cs H is
    strictly block lower-triangular, so the conversion is a forward
    substitution that preserves exact zeros above the block diagonal.
    """
    return _substitute(ctrl, st, 1.0, LinearOutputController)


def output_to_purified(
    ctrl: LinearOutputController, st: StackedSystem
) -> LinearPurifiedController:
    """Invert :func:`purified_to_output`: solve (I - U' Cs H) U = U'."""
    return _substitute(ctrl, st, -1.0, LinearPurifiedController)


def unroll_controller(sys: TimeVaryingSystem, ctrl: KalmanController) -> LinearOutputController:
    """Expand a Kalman controller's gains into an explicit gain over y.

    Maintains Phi_t with xhat_t = Phi_t (y_0..y_{t-1}, y_t, 0..):

        Phi_0 = [L_0, 0, ...]
        Phi_{t+1} = (I - L_{t+1} C_{t+1}) (A_t + B_t K_t) Phi_t + L_{t+1} E_{t+1}

    and emits block row t of the gain as K_t Phi_t.  The offset is zero.
    """
    K, L = _check_gains(sys, ctrl.K, ctrl.L)
    n, m, p, T = sys.n, sys.m, sys.p, sys.T
    U = np.zeros((m * T, p * T))
    phi = np.zeros((n, p * T))
    phi[:, :p] = L[0]
    for t in range(T):
        if t > 0:
            pred = (sys.A[t - 1] + sys.B[t - 1] @ K[t - 1]) @ phi
            phi = pred - L[t] @ (sys.C[t] @ pred)
            phi[:, t * p : (t + 1) * p] += L[t]
        U[t * m : (t + 1) * m, :] = K[t] @ phi
    return LinearOutputController(U=U, q=np.zeros(m * T), m=m, p=p, T=T)


def unroll_kalman(sys: TimeVaryingSystem, cov: CovarianceProfile) -> LinearOutputController:
    """Unrolled gain of the optimal Kalman controller for ``cov``."""
    return unroll_controller(sys, assemble_controller(sys, cov))
