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
changes of variables.  Under u = U eta + q the state is

    x = M w + H U v + H q,        M = G + H U D,

so the cost and its gradient are traces of products with M, H U and U D.
``StackedSystem`` holds G, H and D densely, but of Qs, Rs and Cs only their
stage blocks Q_t, R_t and C_t.  These and the blocks of
Wbig = diag(X0, W_0..W_{T-1}) and Vbig = diag(V_0..V_{T-1}) are applied
stage by stage, as batched per-block products, and a trace tr(A B') is
taken as the elementwise sum of A * B; no block-diagonal factor is ever
formed or multiplied as a dense matrix.  Both rely on the blocks being
symmetric, which ``TimeVaryingSystem`` and ``CovarianceProfile`` guarantee:
tr[Qs M Wbig M'] is the sum of (Qs M) * (M Wbig), for instance.
``StackedSystem`` also keeps the plant's A_t and B_t, on which
``_first_order_bound`` runs its stage recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import min_eigval
from .lqg import (
    CovarianceProfile,
    KalmanController,
    TimeVaryingSystem,
    _check_dims,
    _check_gains,
    _frozen,
    assemble_controller,
)


@dataclass(frozen=True)
class StackedSystem:
    """Dense G, H and D, plus the stage stacks of the plant and of Qs, Rs and Cs.

    ``n``, ``m``, ``p`` and ``T`` are read off the stacks' shapes.
    """

    A: np.ndarray  # (T, n, n): A_0..A_{T-1}
    B: np.ndarray  # (T, n, m): B_0..B_{T-1}
    Q: np.ndarray  # (T+1, n, n): Q_0..Q_T
    R: np.ndarray  # (T, m, m): R_0..R_{T-1}
    C: np.ndarray  # (T, p, n): C_0..C_{T-1}
    G: np.ndarray  # n(T+1) x n(T+1)
    H: np.ndarray  # n(T+1) x mT
    D: np.ndarray  # pT x n(T+1), equals Cs @ G

    @property
    def T(self) -> int:
        return self.R.shape[0]

    @property
    def n(self) -> int:
        return self.Q.shape[1]

    @property
    def m(self) -> int:
        return self.R.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[1]


def _left(blocks: np.ndarray, X: np.ndarray) -> np.ndarray:
    """diag(blocks) @ X, one stage at a time; ``blocks`` is a (k, b, b) stack."""
    k, b, _ = blocks.shape
    return (blocks @ X.reshape(k, b, -1)).reshape(X.shape)


def _right(X: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """X @ diag(blocks), one stage at a time; ``blocks`` is a (k, b, b) stack."""
    k, b, _ = blocks.shape
    r = X.shape[0]
    return (X.reshape(r, k, b).swapaxes(0, 1) @ blocks).swapaxes(0, 1).reshape(r, k * b)


def build_stacked(sys: TimeVaryingSystem) -> StackedSystem:
    """Assemble the stacked matrices from per-stage data."""
    n, m, p, T = sys.n, sys.m, sys.p, sys.T
    N = n * (T + 1)
    G = np.eye(N)
    H = np.zeros((N, m * T))
    for t in range(1, T + 1):
        rows = slice(t * n, (t + 1) * n)
        prev = slice((t - 1) * n, t * n)
        G[rows, : t * n] = sys.A[t - 1] @ G[prev, : t * n]
        H[rows, : (t - 1) * m] = sys.A[t - 1] @ H[prev, : (t - 1) * m]
        H[rows, (t - 1) * m : t * m] = sys.B[t - 1]
    D = np.zeros((p * T, N))
    for t in range(T):
        D[t * p : (t + 1) * p, : (t + 1) * n] = sys.C[t] @ G[t * n : (t + 1) * n, : (t + 1) * n]
    for a in (G, H, D):  # fresh arrays: frozen in place, not copied
        a.flags.writeable = False
    return StackedSystem(
        A=_frozen(sys.A),
        B=_frozen(sys.B),
        Q=_frozen(sys.Q),
        R=_frozen(sys.R),
        C=_frozen(sys.C),
        G=G,
        H=H,
        D=D,
    )


def _check_causal(U: np.ndarray, m: int, p: int, T: int, name: str):
    if U.shape != (m * T, p * T):
        raise ValueError(f"{name}: expected shape {(m * T, p * T)}, got {U.shape}")
    nonzero = np.triu((U != 0.0).reshape(T, m, T, p).any(axis=(1, 3)), 1)
    if nonzero.any():
        t, s = np.argwhere(nonzero)[0]  # the first in row-major order
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


def _check_fits(ctrl: _CausalGain, sys):
    """The one check of a causal gain against a system (or a ``StackedSystem``)."""
    if (ctrl.m, ctrl.p, ctrl.T) != (sys.m, sys.p, sys.T):
        raise ValueError(
            f"{ctrl._name} (m={ctrl.m}, p={ctrl.p}, T={ctrl.T}) does not match "
            f"system (m={sys.m}, p={sys.p}, T={sys.T})"
        )


@dataclass(frozen=True)
class LinearPurifiedController(_CausalGain):
    """Causal affine policy u = U eta + q over purified observations."""

    _name = "purified gain"

    def make_policy(self, sys: TimeVaryingSystem):
        _check_fits(self, sys)
        return _PurifiedPolicy(sys, self)


@dataclass(frozen=True)
class LinearOutputController(_CausalGain):
    """Causal affine policy u = U y + q over raw observations."""

    _name = "output gain"

    def make_policy(self, sys: TimeVaryingSystem):
        _check_fits(self, sys)
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
    yhat_t = C_t xhat_t, xhat_{t+1} = A_t xhat_t + B_t u_t.  ``u`` must have
    shape (T, m) and ``y`` shape (T, p); a misfit raises ``ValueError``.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    T = sys.T
    for name, a, shape in (("u", u, (T, sys.m)), ("y", y, (T, sys.p))):
        if a.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {a.shape}")
    eta = np.empty_like(y)
    xhat = np.zeros(sys.n)
    for t in range(T):
        eta[t] = y[t] - sys.C[t] @ xhat
        xhat = sys.A[t] @ xhat + sys.B[t] @ u[t]
    return eta


def _stage_stacks(cov: CovarianceProfile):
    """(W, V) per-stage stacks of Wbig and Vbig."""
    return np.stack((cov.X0, *cov.W)), np.stack(cov.V)


def controller_cost_trace(
    st: StackedSystem, ctrl: LinearPurifiedController, cov: CovarianceProfile
) -> float:
    """Exact expected cost of a purified-feedback policy as a trace formula.

    With M = G + H U D, Wbig = diag(X0, W_0..W_{T-1}) and
    Vbig = diag(V_0..V_{T-1}):

        J(U, q) = tr[Qs M Wbig M'] + tr[Qs (H U) Vbig (H U)']
                  + tr[Rs (U D) Wbig (U D)'] + tr[Rs U Vbig U']
                  + q'Rs q + (H q)'Qs (H q)

    The block-diagonal Qs, Rs, Wbig and Vbig are applied stage by stage, so
    the only dense products are U D, H (U D) and H U.
    """
    _check_dims(st, cov)
    _check_fits(ctrl, st)
    W, V = _stage_stacks(cov)
    U, q = ctrl.U, ctrl.q
    UD = U @ st.D
    M = st.G + st.H @ UD
    HU = st.H @ U
    Hq = st.H @ q
    val = np.vdot(_left(st.Q, M), _right(M, W))  # tr(A B') as the sum of A * B
    val += np.vdot(_left(st.Q, HU), _right(HU, V))
    val += np.vdot(_left(st.R, UD), _right(UD, W))
    val += np.vdot(_left(st.R, U), _right(U, V))
    val += q @ _left(st.R, q) + Hq @ _left(st.Q, Hq)
    return float(val)


# an overflow is no bound: it gives b = inf, which saddle_check reports as a finding
@np.errstate(over="ignore", invalid="ignore")
def _first_order_bound(
    st: StackedSystem, U: np.ndarray, cov: CovarianceProfile, exact: bool = False
) -> float:
    """Bound b: every causal purified policy costs at least J(U, 0) - b.

    For causal dU, J(U + dU, q) = J(U, 0) + <g, dU> + tr(dU' S dU Sigma_eta)
    + q' S q, with S = Rs + H' Qs H, Sigma_eta = D Wbig D' + Vbig and g the
    causal part of 2 (S U Sigma_eta + H' Qs G Wbig D'), so
    b = |g|_F^2 / (4 lmin(S) lmin(Sigma_eta)) (infinite unless both are > 0).

    g is taken by stage recursions, with no product of size N.  Write D_t for
    block column t of D and Y_t = Cov(x_t, eta) for the state x = G w of the
    plant without input, so that Y_0 = X0 D_0' and
    Y_t = A_{t-1} Y_{t-1} + Wbig_t D_t'; block row t of Sigma_eta is
    C_t Y_t + V_t in its diagonal block.  U Sigma_eta is formed from U's
    causal blocks, and Z_t = Cov(x_t, eta) under u = U eta, block row t of
    H U Sigma_eta + G Wbig D', follows Z_0 = Y_0 and
    Z_t = A_{t-1} Z_{t-1} + B_{t-1} (U Sigma_eta)_{t-1} + Wbig_t D_t'.  Block
    row t of H' Qs Z is B_t' mu_{t+1}, with mu_T = Q_T Z_T and
    mu_r = Q_r Z_r + A_r' mu_{r+1}, and the backward sweep keeps only the
    columns of eta_0..eta_{r-1} of mu_r, which are all the causal part of g
    reads.

    Since S >= Rs and Sigma_eta >= Vbig, the default divides by the smaller
    min_t lmin(R_t) * min_t lmin(V_t), which needs no eigensolve of size N;
    on a badly scaled stage that b can exceed the exact one by many orders
    of magnitude.  ``exact=True`` computes lmin(S), with S dense, and
    lmin(Sigma_eta).  A |g|_F^2 that overflows, or is NaN from an overflow,
    gives an infinite b.
    """
    m, p, T = st.m, st.p, st.T
    W, V = _stage_stacks(cov)
    # Wbig_t D_t' for t = 0..T, each n x pT
    WD = W @ st.D.reshape(p * T, T + 1, -1).transpose(1, 2, 0)
    Y = np.empty_like(WD[:T])
    Y[0] = WD[0]
    for t in range(1, T):
        Y[t] = st.A[t - 1] @ Y[t - 1] + WD[t]
    sigma_eta = (st.C @ Y).reshape(p * T, p * T)
    for t in range(T):
        sigma_eta[t * p : (t + 1) * p, t * p : (t + 1) * p] += V[t]
    USig = np.empty((m * T, p * T))
    for t in range(T):  # block row t of U reads eta_0..eta_t
        rows = slice(t * m, (t + 1) * m)
        USig[rows] = U[rows, : (t + 1) * p] @ sigma_eta[: (t + 1) * p]
    Z = np.empty_like(WD)
    Z[0] = WD[0]
    for t in range(1, T + 1):
        Z[t] = st.A[t - 1] @ Z[t - 1] + st.B[t - 1] @ USig[(t - 1) * m : t * m] + WD[t]
    norm2 = 0.0
    mu = st.Q[T] @ Z[T]
    for t in range(T - 1, -1, -1):  # block row t of g: the columns of eta_0..eta_t
        cols = (t + 1) * p
        grad = 2.0 * (st.R[t] @ USig[t * m : (t + 1) * m, :cols] + st.B[t].T @ mu)
        norm2 += float(np.sum(grad**2))
        mu = st.Q[t] @ Z[t, :, : t * p] + st.A[t].T @ mu[:, : t * p]
    if not np.isfinite(norm2):
        return np.inf
    if exact:
        S = st.H.T @ _left(st.Q, st.H)
        for t in range(st.T):
            S[t * st.m : (t + 1) * st.m, t * st.m : (t + 1) * st.m] += st.R[t]
        curvature = min_eigval(S) * min_eigval(sigma_eta)
    else:
        curvature = float(np.linalg.eigvalsh(st.R)[:, 0].min() * np.linalg.eigvalsh(V)[:, 0].min())
    return norm2 / (4.0 * curvature) if curvature > 0.0 else np.inf


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
    _check_fits(ctrl, st)
    n, m, p, T = st.n, st.m, st.p, st.T
    CsH = (st.C @ st.H[: n * T].reshape(T, n, m * T)).reshape(p * T, m * T)
    N = np.zeros((m * T, m * T))
    for t in range(1, T):  # causal rows: U[t, :t+1] times CsH's blocks left of input t
        rows = slice(t * m, (t + 1) * m)
        N[rows, : t * m] = sign * (ctrl.U[rows, : (t + 1) * p] @ CsH[: (t + 1) * p, : t * m])
    U = _unit_lower_solve(N, ctrl.U, m, T)
    q = _unit_lower_solve(N, ctrl.q, m, T)
    return cls(U=U, q=q, m=m, p=p, T=T)


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
