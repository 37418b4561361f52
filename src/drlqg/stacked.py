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
policy is an explicit trace formula in the noise covariances, and a gain
over y and one over eta are converted into each other by running that twin
on affine maps of the observations.  Under u = U eta + q the state is

    x = M w + H U v + H q,        M = G + H U D,

so the cost and its gradient are traces of products with M, H U and U D.
``_plant`` applies G and H to column stacks by the plant recursion itself,
so neither is stored; ``StackedSystem`` holds D densely, the plant's A_t and
B_t, and of Qs, Rs and Cs only their stage blocks.  These and the blocks of
Wbig = diag(X0, W_0..W_{T-1}) and Vbig = diag(V_0..V_{T-1}) are applied
stage by stage, as batched per-block products, and a trace tr(A B') is
taken as the elementwise sum of A * B; no block-diagonal factor is ever
formed or multiplied as a dense matrix.  Both rely on the blocks being
symmetric, which ``TimeVaryingSystem`` and ``CovarianceProfile`` guarantee:
tr[Qs M Wbig M'] is the sum of (Qs M) * (M Wbig), for instance.
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
    """Dense D, plus the stage stacks of the plant and of Qs, Rs and Cs; ``_plant``
    applies G and H.  ``n``, ``m``, ``p`` and ``T`` are read off the stacks' shapes.
    """

    A: np.ndarray  # (T, n, n): A_0..A_{T-1}
    B: np.ndarray  # (T, n, m): B_0..B_{T-1}
    Q: np.ndarray  # (T+1, n, n): Q_0..Q_T
    R: np.ndarray  # (T, m, m): R_0..R_{T-1}
    C: np.ndarray  # (T, p, n): C_0..C_{T-1}
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
    """Assemble D and the stage stacks from per-stage data."""
    n, p, T = sys.n, sys.p, sys.T
    D = np.zeros((p * T, n * (T + 1)))
    g = np.eye(n)  # block row t of G, its blocks G[t, :t+1] = (A_{t-1}..A_0, .., I)
    for t in range(T):
        if t > 0:
            g = np.hstack((sys.A[t - 1] @ g, np.eye(n)))
        D[t * p : (t + 1) * p, : (t + 1) * n] = sys.C[t] @ g
    D.flags.writeable = False  # a fresh array: frozen in place, not copied
    return StackedSystem(
        A=_frozen(sys.A),
        B=_frozen(sys.B),
        Q=_frozen(sys.Q),
        R=_frozen(sys.R),
        C=_frozen(sys.C),
        D=D,
    )


def _plant(st: StackedSystem, u=None, w=None, live: tuple[int, int] | None = None):
    """G w + H u for column stacks u (mT x k) and w (n(T+1) x k); either may be None.

    Runs x_0 = w_0, x_{t+1} = A_t x_t + B_t u_t + w_{t+1} on all k columns at
    once, so G and H are applied without being formed.  ``live`` = (c0, c)
    says that x_t vanishes beyond its first c0 + t c columns, and u_t and
    w_{t+1} beyond c0 + (t+1) c; only those columns are computed.
    """
    T, k = st.T, (w if u is None else u).shape[1]
    c0, c = live or (k, 0)  # by default every column is live
    x = np.zeros((T + 1, st.n, k))
    u = None if u is None else u.reshape(T, st.m, k)
    if w is not None:
        w = w.reshape(x.shape)
        x[0] = w[0]
    for t in range(T):
        now, nxt = slice(c0 + t * c), slice(c0 + (t + 1) * c)
        x[t + 1, :, now] = st.A[t] @ x[t, :, now]
        if u is not None:
            x[t + 1, :, nxt] += st.B[t] @ u[t, :, nxt]
        if w is not None:
            x[t + 1, :, nxt] += w[t + 1, :, nxt]
    return x.reshape(-1, k)


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


def _check_fits(ctrl: _CausalGain, sys, form: type):
    """The one check of a causal gain used as a ``form`` against a system (or its stacked form)."""
    if not isinstance(ctrl, form):
        raise ValueError(f"expected a {form.__name__}, got a {type(ctrl).__name__}")
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
        _check_fits(self, sys, LinearPurifiedController)
        return _PurifiedPolicy(sys, self)


@dataclass(frozen=True)
class LinearOutputController(_CausalGain):
    """Causal affine policy u = U y + q over raw observations."""

    _name = "output gain"

    def make_policy(self, sys: TimeVaryingSystem):
        _check_fits(self, sys, LinearOutputController)
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

    The block-diagonal Qs, Rs, Wbig and Vbig are applied stage by stage, and
    G and H by the plant recursion, so the only dense product is U D.
    """
    _check_dims(st, cov)
    _check_fits(ctrl, st, LinearPurifiedController)
    W, V = _stage_stacks(cov)
    U, q = ctrl.U, ctrl.q
    UD = U @ st.D
    N = st.n * (st.T + 1)  # M = G I + H UD, HU and Hq in one sweep
    X = _plant(st, np.hstack((UD, U, q[:, None])), np.eye(N, N + U.shape[1] + 1))
    M, HU, Hq = X[:, :N], X[:, N:-1], X[:, -1]
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
    block column t of D and Y = G Wbig D', whose block row t is
    Cov(x_t, eta) for the state x = G w of the plant without input, so that
    block row t of Sigma_eta is C_t Y_t + V_t in its diagonal block.
    U Sigma_eta is formed from U's causal blocks, and Z = H U Sigma_eta +
    G Wbig D', whose block row Z_t is Cov(x_t, eta) under u = U eta.  Both
    are ``_plant`` sweeps over the columns of eta, Y_0 = Z_0 = X0 D_0' and
    Z_t = A_{t-1} Z_{t-1} + B_{t-1} (U Sigma_eta)_{t-1} + Wbig_t D_t'.  Block
    row t of H' Qs Z is B_t' mu_{t+1}, with mu_T = Q_T Z_T and
    mu_r = Q_r Z_r + A_r' mu_{r+1}, and the backward sweep keeps only the
    columns of eta_0..eta_{r-1} of mu_r, which are all the causal part of g
    reads.

    Since S >= Rs and Sigma_eta >= Vbig, the default divides by the smaller
    min_t lmin(R_t) * min_t lmin(V_t), which needs no eigensolve of size N;
    on a badly scaled stage that b can exceed the exact one by many orders
    of magnitude.  ``exact=True`` computes lmin(S), with H formed by
    ``_plant`` and S dense, and lmin(Sigma_eta).  A |g|_F^2 that overflows,
    or is NaN from an overflow, gives an infinite b.
    """
    m, p, T = st.m, st.p, st.T
    W, V = _stage_stacks(cov)
    # Wbig_t D_t' for t = 0..T, stacked as n(T+1) x pT
    WD = (W @ st.D.reshape(p * T, T + 1, -1).transpose(1, 2, 0)).reshape(-1, p * T)
    Y = _plant(st, w=WD).reshape(T + 1, -1, p * T)
    sigma_eta = (st.C @ Y[:T]).reshape(p * T, p * T)
    for t in range(T):
        sigma_eta[t * p : (t + 1) * p, t * p : (t + 1) * p] += V[t]
    USig = np.empty((m * T, p * T))
    for t in range(T):  # block row t of U reads eta_0..eta_t
        rows = slice(t * m, (t + 1) * m)
        USig[rows] = U[rows, : (t + 1) * p] @ sigma_eta[: (t + 1) * p]
    Z = _plant(st, USig, WD).reshape(T + 1, -1, p * T)
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
        H = _plant(st, np.eye(m * T), live=(0, m))
        S = H.T @ _left(st.Q, H)
        for t in range(T):
            S[t * m : (t + 1) * m, t * m : (t + 1) * m] += st.R[t]
        curvature = min_eigval(S) * min_eigval(sigma_eta)
    else:
        curvature = float(np.linalg.eigvalsh(st.R)[:, 0].min() * np.linalg.eigvalsh(V)[:, 0].min())
    return norm2 / (4.0 * curvature) if curvature > 0.0 else np.inf


def _twin(ctrl: _CausalGain, st: StackedSystem, sign: float, cls):
    """``ctrl`` as a ``cls`` gain over the other observations (sign -1.0: eta to y, +1.0: back).

    The noise-free twin of ``_PurifiedPolicy``, run on affine maps of the new
    observations x, as columns (1, x_0, x_1, ..): the gain reads
    z_s = x_s + sign C_s xbar_s, with xbar_0 = 0 and xbar_{s+1} = A_s xbar_s + B_s u_s.
    xbar_t reads only (1, x_0..x_{t-1}), so zeros above the block diagonal stay exact.
    """
    m, p, T = st.m, st.p, st.T
    new = np.hstack((ctrl.q[:, None], ctrl.U))  # block row t: u_t as a map of (1, x_0..x_t)
    sC, cx = sign * st.C, np.zeros((p * T, 1 + p * T))  # block row s of cx: sign C_s xbar_s
    xbar = np.zeros((st.n, 1 + p * T))
    for t in range(T):
        rows, done = slice(t * m, (t + 1) * m), 1 + t * p  # the live columns of xbar_t
        cx[t * p : (t + 1) * p, :done] = sC[t] @ xbar[:, :done]
        new[rows, :done] += ctrl.U[rows, : (t + 1) * p] @ cx[: (t + 1) * p, :done]
        xbar[:, : done + p] = st.A[t] @ xbar[:, : done + p] + st.B[t] @ new[rows, : done + p]
    return cls(U=new[:, 1:], q=new[:, 0], m=m, p=p, T=T)


def purified_to_output(
    ctrl: LinearPurifiedController, st: StackedSystem
) -> LinearOutputController:
    """Convert u = U eta + q into the equivalent u = U' y + q', by eta = y - C xbar
    with xbar the noise-free twin driven by u."""
    _check_fits(ctrl, st, LinearPurifiedController)
    return _twin(ctrl, st, -1.0, LinearOutputController)


def output_to_purified(
    ctrl: LinearOutputController, st: StackedSystem
) -> LinearPurifiedController:
    """Invert :func:`purified_to_output`: substitute y = eta + C xbar."""
    _check_fits(ctrl, st, LinearOutputController)
    return _twin(ctrl, st, 1.0, LinearPurifiedController)


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
