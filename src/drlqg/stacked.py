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
parameterize the closed loop linearly, and a gain over y and one over eta
are converted into each other by running that twin on affine maps of the
observations.  Under u = U eta + q the state is

    x = M w + H U v + H q,        M = G + H U D,

so the cost's gradient in U is a trace of products with M, H U and U D.
The cost itself, an explicit trace formula in the noise covariances, is
priced on the closed loop u = U y + q of the output gain, which reads no D.
``_plant`` is the plant recursion, the one loop here that applies A_t and
B_t to a state: a generator that yields block row x_t of G w + H u, for
column stacks given stage by stage.  It makes D from the identity, it is
every noise-free twin, fed the input rows as they are made, and it is the
closed loop that ``controller_cost_trace`` prices.  Neither G nor H is
stored.  ``lqg._filter`` is the one filter loop, for the Kalman gain over y
and, beside the twin, over eta.
``StackedSystem`` is a ``TimeVaryingSystem`` that also holds D densely, on
the system's own stages; the certificate ``_first_order_bound`` is the one
reader of D, and every other function here takes the plain system.  The
stages of Qs, Rs and Cs and the blocks of Wbig = diag(X0, W_0..W_{T-1}) and
Vbig = diag(V_0..V_{T-1}) are applied stage by stage, as batched per-block
products, and a trace tr(A B') is taken as the elementwise sum of A * B; no
block-diagonal factor is ever formed or multiplied as a dense matrix.  Both
rely on the blocks being symmetric, which ``TimeVaryingSystem`` and
``CovarianceProfile`` guarantee: tr[Q_t M_t Wbig M_t'] is the sum of
(Q_t M_t) * (M_t Wbig), for instance.
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
    _filter,
    _frozen,
    _stage_stacks,
    assemble_controller,
)


@dataclass(frozen=True)
class StackedSystem(TimeVaryingSystem):
    """A system that also holds D densely; ``_plant`` applies G and H."""

    D: np.ndarray  # pT x n(T+1), equals Cs @ G


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
    """``sys`` with D added: block row t of D, C_t x_t with x_t of ``_plant`` on
    the identity, is written in place, and the stages are the very tuples of
    ``sys``, checked and frozen once, neither copied nor checked again."""
    n, p, T = sys.n, sys.p, sys.T
    D = np.zeros((p * T, n * (T + 1)))
    for t, g in zip(range(T), _plant(sys, n * T, live=(n, n))):
        g[:, t * n : (t + 1) * n] = np.eye(n)  # w_t, block column t of the identity
        D[t * p : (t + 1) * p, : (t + 1) * n] = sys.C[t] @ g[:, : (t + 1) * n]
    D.flags.writeable = False  # a fresh array: frozen in place, not copied
    st = object.__new__(StackedSystem)  # not __init__, which would check the stages again
    st.__dict__.update(vars(sys), D=D)
    return st


def _plant(sys: TimeVaryingSystem, k: int, u=None, w=None, live=None):
    """Yield x_0..x_T, the block rows of G w + H u, for k columns at once.

    ``u`` gives the T stage blocks u_t (m x k) and ``w`` the T+1 blocks w_t
    (n x k), each as any iterable (a stack, or a generator that makes them
    on demand); either may be None.  Runs x_0 = w_0,
    x_{t+1} = A_t x_t + B_t u_t + w_{t+1}, so G and H are applied without
    being formed; each x_t is a new array the caller may keep.  u_t is drawn,
    and x_{t+1} made, after x_t is yielded: a generator over the rows a
    caller fills from x_t closes a causal loop, and a caller may add a
    sparse w_t into x_t in place (as ``build_stacked`` does).  ``live`` =
    (c0, c) says that x_t vanishes beyond its first c0 + t c columns, and
    u_t and w_{t+1} beyond c0 + (t+1) c; only those columns are computed.
    """
    c0, c = live or (k, 0)  # by default every column is live
    u = None if u is None else iter(u)
    w = None if w is None else iter(w)
    x = np.zeros((sys.n, k))
    if w is not None:
        x[:] = next(w)
    yield x
    for t in range(sys.T):
        now, nxt = slice(c0 + t * c), slice(c0 + (t + 1) * c)
        x_next = np.empty((sys.n, k))
        np.matmul(sys.A[t], x[:, now], out=x_next[:, now])
        x_next[:, now.stop :] = 0.0
        if u is not None:
            x_next[:, nxt] += sys.B[t] @ next(u)[:, nxt]
        if w is not None:
            x_next[:, nxt] += next(w)[:, nxt]
        x = x_next
        yield x


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
    """Causal u = U z + q, checked and frozen; subclasses say what z is, set ``_name``
    and make the output gain they run as, ``_as_output(sys)``."""

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
        for field, a in (("U", U), ("offset", q)):
            if not np.isfinite(a).all():
                raise ValueError(f"{self._name}: {field} contains non-finite entries")
        object.__setattr__(self, "U", _frozen(U))
        object.__setattr__(self, "q", _frozen(q))

    def make_policy(self, sys: TimeVaryingSystem):
        """The policy of the output gain that ``_as_output`` makes on ``sys``."""
        return _OutputPolicy(self._as_output(sys))

def _check_fits(ctrl: _CausalGain, sys: TimeVaryingSystem, *forms: type):
    """The one check of a causal gain, used as one of ``forms``, against a system."""
    if not isinstance(ctrl, forms):
        expected = " or ".join(form.__name__ for form in forms)
        raise ValueError(f"expected a {expected}, got a {type(ctrl).__name__}")
    if (ctrl.m, ctrl.p, ctrl.T) != (sys.m, sys.p, sys.T):
        raise ValueError(
            f"{ctrl._name} (m={ctrl.m}, p={ctrl.p}, T={ctrl.T}) does not match "
            f"system (m={sys.m}, p={sys.p}, T={sys.T})"
        )


@dataclass(frozen=True)
class LinearPurifiedController(_CausalGain):
    """Causal affine policy u = U eta + q over purified observations."""

    _name = "purified gain"

    def _as_output(self, sys: TimeVaryingSystem) -> LinearOutputController:
        """The equivalent output gain, ``purified_to_output(self, sys)``."""
        return purified_to_output(self, sys)


@dataclass(frozen=True)
class LinearOutputController(_CausalGain):
    """Causal affine policy u = U y + q over raw observations."""

    _name = "output gain"

    def _as_output(self, sys: TimeVaryingSystem) -> LinearOutputController:
        """Itself, once it fits ``sys``."""
        _check_fits(self, sys, LinearOutputController)
        return self


class _OutputPolicy:
    """u_t = q_t + sum_{s<=t} U[t,s] y_s, batched over leading dims."""

    def __init__(self, ctrl: LinearOutputController):
        self._ctrl = ctrl
        self._ys = []
        self._t = 0

    def step(self, t: int, y):
        c = self._ctrl
        if t != self._t:
            raise ValueError(f"policy stepped out of order: expected t={self._t}, got {t}")
        if t == c.T:
            raise ValueError(f"policy stepped past its horizon: T={c.T}, got t={t}")
        self._ys.append(y)
        u = np.broadcast_to(c.q[t * c.m : (t + 1) * c.m], y.shape[:-1] + (c.m,)).copy()
        for s, ys in enumerate(self._ys):
            u += ys @ c.U[t * c.m : (t + 1) * c.m, s * c.p : (s + 1) * c.p].T
        self._t += 1
        return u


def purified_from_rollout(sys: TimeVaryingSystem, u, y) -> np.ndarray:
    """Recover eta_t = y_t - yhat_t from a recorded (u, y) trajectory.

    The noise-free twin is ``_plant`` driven by the recorded inputs:
    xhat_0 = 0, yhat_t = C_t xhat_t, xhat_{t+1} = A_t xhat_t + B_t u_t.
    ``u`` must have shape (T, m) and ``y`` shape (T, p); a misfit raises
    ``ValueError``.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    T = sys.T
    for name, a, shape in (("u", u, (T, sys.m)), ("y", y, (T, sys.p))):
        if a.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {a.shape}")
    eta = np.empty_like(y)
    for t, xhat in zip(range(T), _plant(sys, 1, u[:, :, None])):
        eta[t] = y[t] - sys.C[t] @ xhat[:, 0]
    return eta


def controller_cost_trace(
    sys: TimeVaryingSystem,
    ctrl: LinearOutputController | LinearPurifiedController,
    cov: CovarianceProfile,
) -> float:
    """Exact expected cost of a causal linear policy as a trace formula.

    A purified gain is priced as its output gain, ``purified_to_output``, so
    the closed loop is u = U y + q with y = Cs x + v.  As maps of (w, v, 1),
    block rows x_t and u_t are priced with Sigma = diag(Wbig, Vbig, 1),
    Wbig = diag(X0, W_0..W_{T-1}) and Vbig = diag(V_0..V_{T-1}):

        J(U, q) = sum_t tr[Q_t x_t Sigma x_t'] + sum_t tr[R_t u_t Sigma u_t'].

    ``_plant`` yields x_t and makes x_{t+1} from x_t, u_t and w_{t+1}, block
    column t+1 of the identity; block row t of y, C_t x_t + v_t, is written
    before u_t = q_t + sum_{s<=t} U[t,s] y_s is drawn.  Memory is that map of y,
    pT x (n(T+1) + pT + 1), and one block row per stage.
    """
    _check_dims(sys, cov)
    _check_fits(ctrl, sys, LinearOutputController, LinearPurifiedController)
    ctrl = ctrl._as_output(sys)
    W, V = _stage_stacks(cov)
    U, q = ctrl.U, ctrl.q
    n, m, p, T = sys.n, sys.m, sys.p, sys.T
    N = n * (T + 1)
    k = N + p * T + 1  # the columns of (w, v, 1)
    y = np.empty((p * T, k))

    def priced(F, z):  # tr[F z Sigma z'] as the sum of (F z) * (z Sigma)
        Fz = F @ z
        return (
            np.vdot(Fz[:, :N], _right(z[:, :N], W))
            + np.vdot(Fz[:, N:-1], _right(z[:, N:-1], V))
            + np.vdot(Fz[:, -1], z[:, -1])
        )

    val = 0.0

    def inputs():  # u_0..u_{T-1}, each priced as it is made
        nonlocal val
        for t in range(T):
            rows = slice(t * m, (t + 1) * m)
            u = U[rows, : (t + 1) * p] @ y[: (t + 1) * p]
            u[:, -1] += q[rows]
            val += priced(sys.R[t], u)
            yield u

    noise = (np.eye(n, k, t * n) for t in range(T + 1))  # w_t: block column t of the identity
    for t, x in enumerate(_plant(sys, k, inputs(), noise)):
        val += priced(sys.Q[t], x)
        if t < T:
            y[t * p : (t + 1) * p] = sys.C[t] @ x
            y[t * p : (t + 1) * p, N + t * p : N + (t + 1) * p] += np.eye(p)  # v_t
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
    block row t of Sigma_eta is C_t Y_t + V_t in its diagonal block.  One
    ``_plant`` sweep over the columns of eta makes Y_t from Y_0 = X0 D_0',
    takes block row t of Sigma_eta from it and, with it, block row t of
    U Sigma_eta from U's causal blocks; Y is never stored.  A second sweep
    makes Z = H U Sigma_eta + G Wbig D', whose block row Z_t is
    Cov(x_t, eta) under u = U eta: Z_0 = X0 D_0' and
    Z_t = A_{t-1} Z_{t-1} + B_{t-1} (U Sigma_eta)_{t-1} + Wbig_t D_t'.  Both
    make Wbig_t D_t' as they need it.  Block row t of H' Qs Z is
    B_t' mu_{t+1}, with mu_T = Q_T Z_T and mu_r = Q_r Z_r + A_r' mu_{r+1},
    and the backward sweep keeps only the columns of eta_0..eta_{r-1} of
    mu_r, which are all the causal part of g reads.

    Since S >= Rs and Sigma_eta >= Vbig, the default divides by the smaller
    min_t lmin(R_t) * min_t lmin(V_t), which needs no eigensolve of size N;
    on a badly scaled stage that b can exceed the exact one by many orders
    of magnitude.  ``exact=True`` computes lmin(S), with H stacked from
    ``_plant``'s rows and S dense, and lmin(Sigma_eta).  A |g|_F^2 that
    overflows, or is NaN from an overflow, gives an infinite b.
    """
    n, m, p, T = st.n, st.m, st.p, st.T
    W, V = _stage_stacks(cov)

    def noise():  # Wbig_t D_t' for t = 0..T
        for t in range(T + 1):
            yield W[t] @ st.D[:, t * n : (t + 1) * n].T

    sigma_eta = np.empty((p * T, p * T))
    USig = np.empty((m * T, p * T))
    for t, y in zip(range(T), _plant(st, p * T, w=noise())):  # y = Y_t; Y_T is not needed
        rows, eta_t = slice(t * m, (t + 1) * m), slice(t * p, (t + 1) * p)
        sigma_eta[eta_t] = st.C[t] @ y
        sigma_eta[eta_t, eta_t] += V[t]
        USig[rows] = U[rows, : (t + 1) * p] @ sigma_eta[: (t + 1) * p]  # U reads eta_0..eta_t
    Z = np.empty((T + 1, n, p * T))
    for t, z in enumerate(_plant(st, p * T, USig.reshape(T, m, -1), noise())):
        Z[t] = z
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
        H = np.vstack(list(_plant(st, m * T, np.eye(m * T).reshape(T, m, -1), live=(0, m))))
        S = H.T @ _left(np.stack(st.Q), H)
        for t in range(T):
            S[t * m : (t + 1) * m, t * m : (t + 1) * m] += st.R[t]
        curvature = min_eigval(S) * min_eigval(sigma_eta)
    else:
        curvature = float(np.linalg.eigvalsh(st.R)[:, 0].min() * np.linalg.eigvalsh(V)[:, 0].min())
    return norm2 / (4.0 * curvature) if curvature > 0.0 else np.inf


def _kalman_purified(sys: TimeVaryingSystem, K, L) -> np.ndarray:
    """The purified gain U of the Kalman controller (K, L), built directly.

    Its estimate splits as xhat_t = xbar_t + d_t, xbar the noise-free twin
    (``_plant`` driven by the rows of U as they are filled) and d the filter
    of the noise-driven part, which reads eta alone: ``lqg._filter``, the one
    filter loop, with F_t = A_t and L_t eta_t added as block column t.  As maps of
    eta, block row t of U is K_t (xbar_t + d_t), and both run on the live
    columns eta_0..eta_t only, so the zeros above the block diagonal are exact.
    Equals ``output_to_purified(unroll_controller(sys, (K, L)), sys).U`` up to
    roundoff.
    """
    m, p, T = sys.m, sys.p, sys.T
    U = np.zeros((m * T, p * T))
    inputs = (U[t * m : (t + 1) * m] for t in range(T))  # u_t, read once row t is filled
    twin = _plant(sys, p * T, inputs, live=(0, p))
    for t, xbar, d in zip(range(T), twin, _filter(sys, iter(sys.A), L, p * T, live=(p, p))):
        live = slice((t + 1) * p)
        d[:, t * p : (t + 1) * p] += L[t]
        U[t * m : (t + 1) * m, live] = K[t] @ (xbar[:, live] + d[:, live])
    return U


def _twin(ctrl: _CausalGain, sys: TimeVaryingSystem, sign: float, cls):
    """``ctrl`` as a ``cls`` gain over the other observations (sign -1.0: eta to y, +1.0: back).

    The noise-free twin, ``_plant`` driven by u, run on affine maps of the
    new observations x, as columns (1, x_0, x_1, ..): the gain reads
    z_s = x_s + sign C_s xbar_s, with xbar_0 = 0 and xbar_{s+1} = A_s xbar_s + B_s u_s.
    xbar_t reads only (1, x_0..x_{t-1}), so zeros above the block diagonal stay exact.
    """
    m, p, T = sys.m, sys.p, sys.T
    new = np.hstack((ctrl.q[:, None], ctrl.U))  # block row t: u_t as a map of (1, x_0..x_t)
    cx = np.zeros((p * T, 1 + p * T))  # block row s: sign C_s xbar_s
    inputs = (new[t * m : (t + 1) * m] for t in range(T))  # u_t, read once row t is filled
    for t, xbar in zip(range(T), _plant(sys, 1 + p * T, inputs, live=(1, p))):
        rows, done = slice(t * m, (t + 1) * m), 1 + t * p  # the live columns of xbar_t
        cx[t * p : (t + 1) * p, :done] = sign * sys.C[t] @ xbar[:, :done]
        new[rows, :done] += ctrl.U[rows, : (t + 1) * p] @ cx[: (t + 1) * p, :done]
    return cls(U=new[:, 1:], q=new[:, 0], m=m, p=p, T=T)


def purified_to_output(
    ctrl: LinearPurifiedController, sys: TimeVaryingSystem
) -> LinearOutputController:
    """Convert u = U eta + q into the equivalent u = U' y + q', by eta = y - C xbar
    with xbar the noise-free twin driven by u."""
    _check_fits(ctrl, sys, LinearPurifiedController)
    return _twin(ctrl, sys, -1.0, LinearOutputController)


def output_to_purified(
    ctrl: LinearOutputController, sys: TimeVaryingSystem
) -> LinearPurifiedController:
    """Invert :func:`purified_to_output`: substitute y = eta + C xbar."""
    _check_fits(ctrl, sys, LinearOutputController)
    return _twin(ctrl, sys, 1.0, LinearPurifiedController)


def unroll_controller(sys: TimeVaryingSystem, ctrl: KalmanController) -> LinearOutputController:
    """Expand a Kalman controller's gains into an explicit gain over y.

    ``_filter`` on the closed loop F_t = A_t + B_t K_t, with y_t added as block
    column t of the pT identity, gives Phi_t with xhat_t = Phi_t y, and block
    row t of the gain is K_t Phi_t.  The offset is zero.
    """
    if not isinstance(ctrl, KalmanController):
        raise ValueError(f"expected a KalmanController, got a {type(ctrl).__name__}")
    K, L = _check_gains(sys, ctrl.K, ctrl.L)
    m, p, T = sys.m, sys.p, sys.T
    U = np.zeros((m * T, p * T))
    closed = (a + b @ k for a, b, k in zip(sys.A, sys.B, K))
    for t, phi in enumerate(_filter(sys, closed, L, p * T)):
        phi[:, t * p : (t + 1) * p] += L[t]
        U[t * m : (t + 1) * m, :] = K[t] @ phi
    return LinearOutputController(U=U, q=np.zeros(m * T), m=m, p=p, T=T)


def unroll_kalman(sys: TimeVaryingSystem, cov: CovarianceProfile) -> LinearOutputController:
    """Unrolled gain of the optimal Kalman controller for ``cov``."""
    return unroll_controller(sys, assemble_controller(sys, cov))
