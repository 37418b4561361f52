"""Finite-horizon LQG machinery for time-varying linear systems.

The plant is

    x_{t+1} = A_t x_t + B_t u_t + w_t,      y_t = C_t x_t + v_t,

for t = 0..T-1, with x_0 ~ N(0, X0), w_t ~ N(0, W_t), v_t ~ N(0, V_t) all
independent, and quadratic cost

    J = sum_{t<T} (x_t' Q_t x_t + u_t' R_t u_t) + x_T' Q_T x_T.

This module provides the backward Riccati recursion for the feedback gains,
the forward Kalman recursion for the filter gains (together they are the
optimal output-feedback controller), its exact expected cost, and a causal
simulator for rolling out controllers against sampled (or adversarial) noise.

``monte_carlo_cost`` draws its noise in chunks of 2^18 standard normals.  It
rolls a ``KalmanController`` out as one linear recursion on the closed-loop
state s_t = [x_t, xhat_t], with the noise square roots folded into the
per-stage maps, so the normals are never colored on their own; every other
controller goes through ``simulate``'s causal policy path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PSD_CLAMP_REL,
    SingularMatrixError,
    min_eigval,
    psd_sqrt,
    spd_solve,
    symmetrize,
)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _block(m, shape, label, psd=False, pd=False) -> np.ndarray:
    """``m`` as a frozen float array; a ``psd`` or ``pd`` one is symmetrized first."""
    m = np.asarray(m, dtype=float)
    if m.shape != shape:
        raise ValueError(f"{label}: expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{label} contains non-finite entries")
    if psd or pd:
        m = symmetrize(m)
        lo = min_eigval(m)
        if pd and lo <= 0.0:
            raise ValueError(f"{label} must be positive definite (min eig {lo:.3e})")
        if psd and lo < -PSD_CLAMP_REL * np.linalg.norm(m):
            raise ValueError(f"{label} must be positive semidefinite (min eig {lo:.3e})")
    return _frozen(m)


def _stage_tuple(mats, count, shape, name, psd=False, pd=False) -> tuple[np.ndarray, ...]:
    mats = tuple(mats)
    if len(mats) != count:
        raise ValueError(f"{name}: expected {count} matrices, got {len(mats)}")
    return tuple(_block(m, shape, f"{name}[{t}]", psd, pd) for t, m in enumerate(mats))


@dataclass(frozen=True)
class TimeVaryingSystem:
    """Plant and cost data over a horizon of T stages.

    ``A``, ``B``, ``C`` and ``R`` each hold one matrix per stage t = 0..T-1;
    ``Q`` holds T+1 matrices including the terminal state cost Q_T.  State
    costs must be PSD and input costs strictly PD.
    """

    A: tuple
    B: tuple
    C: tuple
    Q: tuple
    R: tuple

    def __post_init__(self):
        A = tuple(np.asarray(a, dtype=float) for a in self.A)
        if not A:
            raise ValueError("horizon must contain at least one stage")
        n = A[0].shape[0]
        B = tuple(np.asarray(b, dtype=float) for b in self.B)
        C = tuple(np.asarray(c, dtype=float) for c in self.C)
        if B[0].ndim != 2 or C[0].ndim != 2:
            raise ValueError("B and C must be matrices")
        m, p = B[0].shape[1], C[0].shape[0]
        T = len(A)
        object.__setattr__(self, "A", _stage_tuple(A, T, (n, n), "A"))
        object.__setattr__(self, "B", _stage_tuple(B, T, (n, m), "B"))
        object.__setattr__(self, "C", _stage_tuple(C, T, (p, n), "C"))
        object.__setattr__(self, "Q", _stage_tuple(self.Q, T + 1, (n, n), "Q", psd=True))
        object.__setattr__(self, "R", _stage_tuple(self.R, T, (m, m), "R", pd=True))

    @property
    def T(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return self.A[0].shape[0]

    @property
    def m(self) -> int:
        return self.B[0].shape[1]

    @property
    def p(self) -> int:
        return self.C[0].shape[0]


@dataclass(frozen=True)
class CovarianceProfile:
    """A zero-mean Gaussian noise model: X0 plus per-stage W_t and V_t.

    All blocks are symmetrized on construction and must be PSD up to the
    roundoff clamping tolerance.
    """

    X0: np.ndarray
    W: tuple
    V: tuple

    def __post_init__(self):
        W, V = tuple(self.W), tuple(self.V)
        if not W or len(W) != len(V):
            raise ValueError("W and V must be non-empty and of equal length")
        n, p = (np.shape(a)[0] if np.ndim(a) else 0 for a in (self.X0, V[0]))
        object.__setattr__(self, "X0", _block(self.X0, (n, n), "X0", psd=True))
        object.__setattr__(self, "W", _stage_tuple(W, len(W), (n, n), "W", psd=True))
        object.__setattr__(self, "V", _stage_tuple(V, len(V), (p, p), "V", psd=True))

    @classmethod
    def _trusted(cls, blocks, T: int) -> "CovarianceProfile":
        """Wrap blocks X0, W_0.., V_0.. that are already symmetric and PSD.

        Skips the checks of public construction; the caller hands over fresh
        symmetrized arrays, which are frozen in place.  Used for iterates
        the solver builds as convex combinations of feasible blocks.
        """
        for b in blocks:
            b.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "X0", blocks[0])
        object.__setattr__(out, "W", tuple(blocks[1 : 1 + T]))
        object.__setattr__(out, "V", tuple(blocks[1 + T :]))
        return out

    @property
    def T(self) -> int:
        return len(self.W)

    @property
    def n(self) -> int:
        return self.X0.shape[0]

    @property
    def p(self) -> int:
        return self.V[0].shape[0]


@dataclass(frozen=True)
class RiccatiSolution:
    """Cost-to-go matrices P_0..P_T and feedback gains K_0..K_{T-1}."""

    P: tuple
    K: tuple


@dataclass(frozen=True)
class KalmanSolution:
    """Filter covariances and gains from the forward recursion.

    ``Sigma[t]`` is the filtered covariance at stage t; ``Sigma_pred`` holds
    the predicted covariances with ``Sigma_pred[0] == X0`` (the recursion's
    initialization) and ``Sigma_pred[t]`` the one-step-ahead covariance for
    t = 1..T.  ``L[t]`` is the filter gain Sigma_t C_t' V_t^{-1}.
    """

    Sigma: tuple
    Sigma_pred: tuple
    L: tuple


def riccati_backward(sys: TimeVaryingSystem) -> RiccatiSolution:
    """Backward Riccati recursion.

        P_T = Q_T
        K_t = -(R_t + B_t' P_{t+1} B_t)^{-1} B_t' P_{t+1} A_t
        P_t = A_t' P_{t+1} A_t + Q_t - A_t' P_{t+1} B_t (R_t + B_t' P_{t+1} B_t)^{-1} B_t' P_{t+1} A_t

    The inner matrix R_t + B_t' P_{t+1} B_t is PD because R_t is PD and
    P_{t+1} is PSD; a failed factorization raises ``SingularMatrixError``.
    """
    T = sys.T
    P = [None] * (T + 1)
    K = [None] * T
    P[T] = sys.Q[T]
    for t in reversed(range(T)):
        PB = P[t + 1] @ sys.B[t]
        inner = symmetrize(sys.R[t] + sys.B[t].T @ PB)
        lin = PB.T @ sys.A[t]  # B_t' P_{t+1} A_t
        K[t] = -spd_solve(inner, lin)
        P[t] = symmetrize(sys.A[t].T @ P[t + 1] @ sys.A[t] + sys.Q[t] + lin.T @ K[t])
    return RiccatiSolution(P=tuple(_frozen(m) for m in P), K=tuple(_frozen(m) for m in K))


def _kalman_forward_raw(sys: TimeVaryingSystem, X0, W, V) -> KalmanSolution:
    """Forward recursion on raw arrays; the caller guarantees V_t PD."""
    T = sys.T
    Sig = [None] * T
    L = [None] * T
    pred = [None] * (T + 1)
    pred[0] = symmetrize(X0)
    s = pred[0]
    for t in range(T):
        C = sys.C[t]
        m_t = symmetrize(C @ s @ C.T + V[t])
        # Sigma_{t|t-1} C' M^{-1}, which equals the filter gain Sigma_t C' V^{-1}
        L[t] = spd_solve(m_t, C @ s).T
        Sig[t] = symmetrize(s - L[t] @ C @ s)
        s = symmetrize(sys.A[t] @ Sig[t] @ sys.A[t].T + W[t])
        pred[t + 1] = s
    return KalmanSolution(
        Sigma=tuple(_frozen(x) for x in Sig),
        Sigma_pred=tuple(_frozen(x) for x in pred),
        L=tuple(_frozen(x) for x in L),
    )


def kalman_forward(sys: TimeVaryingSystem, cov: CovarianceProfile) -> KalmanSolution:
    """Forward Kalman recursion.

        Sigma_{0|-1} = X0
        Sigma_t = Sigma_{t|t-1} - Sigma_{t|t-1} C_t' (C_t Sigma_{t|t-1} C_t' + V_t)^{-1} C_t Sigma_{t|t-1}
        Sigma_{t+1|t} = A_t Sigma_t A_t' + W_t
        L_t = Sigma_t C_t' V_t^{-1}
    """
    _check_dims(sys, cov)
    for t, v in enumerate(cov.V):
        if min_eigval(v) <= 0.0:
            raise SingularMatrixError(f"observation covariance V[{t}] is not positive definite")
    return _kalman_forward_raw(sys, cov.X0, cov.W, cov.V)


def _check_dims(sys: TimeVaryingSystem, cov: CovarianceProfile):
    if cov.T != sys.T or cov.n != sys.n or cov.p != sys.p:
        raise ValueError(
            f"covariance profile (n={cov.n}, p={cov.p}, T={cov.T}) does not match "
            f"system (n={sys.n}, p={sys.p}, T={sys.T})"
        )


def _value_from_solutions(
    sys: TimeVaryingSystem, ric: RiccatiSolution, kal: KalmanSolution, X0
) -> float:
    """Expected optimal cost from precomputed recursions.

        f = sum_{t<T} tr((Q_t - P_t) Sigma_t)
          + sum_{t=1..T} tr(P_t Sigma_{t|t-1}) + tr(P_0 X0)
    """
    T = sys.T
    f = float(np.trace(ric.P[0] @ X0))
    for t in range(T):
        f += float(np.trace((sys.Q[t] - ric.P[t]) @ kal.Sigma[t]))
        f += float(np.trace(ric.P[t + 1] @ kal.Sigma_pred[t + 1]))
    return f


def lqg_value(
    sys: TimeVaryingSystem,
    cov: CovarianceProfile,
    riccati: RiccatiSolution | None = None,
    kalman: KalmanSolution | None = None,
) -> float:
    """Exact expected cost of the optimal output-feedback controller.

    Precomputed ``riccati``/``kalman`` solutions may be supplied to avoid
    re-running the recursions when evaluating many profiles on one system.
    """
    ric = riccati if riccati is not None else riccati_backward(sys)
    kal = kalman if kalman is not None else kalman_forward(sys, cov)
    return _value_from_solutions(sys, ric, kal, cov.X0)


@dataclass(frozen=True)
class KalmanController:
    """Certainty-equivalence output-feedback controller u_t = K_t xhat_t.

    It is its gains alone: ``K`` holds K_t (m x n) and ``L`` holds L_t
    (n x p), t = 0..T-1.  The state estimate follows

        xhat_0 = L_0 y_0
        xhat_{t+1} = A_t xhat_t + B_t u_t
                     + L_{t+1} (y_{t+1} - C_{t+1} (A_t xhat_t + B_t u_t)).

    Instances are immutable; per-rollout filter state lives in the policy
    object returned by :meth:`make_policy`, which checks the gains on ``sys``.
    """

    K: tuple
    L: tuple

    def make_policy(self, sys: TimeVaryingSystem):
        return _KalmanPolicy(sys, *_check_gains(sys, self.K, self.L))


def _check_gains(sys: TimeVaryingSystem, K, L) -> tuple[tuple, tuple]:
    """K and L as frozen stage tuples; a ValueError names the misfit."""
    K = _stage_tuple(K, sys.T, (sys.m, sys.n), "K")
    return K, _stage_tuple(L, sys.T, (sys.n, sys.p), "L")


class _KalmanPolicy:
    """Stateful causal rollout of a Kalman-filter controller.

    Supports batched observations: ``step(t, y)`` accepts ``y`` of shape
    ``(p,)`` or ``(N, p)`` and returns inputs of matching leading shape.
    """

    def __init__(self, sys, K, L):
        self._sys = sys
        self._K = K
        self._L = L
        self._t = 0
        self._xhat = None
        self._u = None

    def step(self, t: int, y):
        if t != self._t:
            raise ValueError(f"policy stepped out of order: expected t={self._t}, got {t}")
        sys = self._sys
        if t == 0:
            self._xhat = y @ self._L[0].T
        else:
            pred = self._xhat @ sys.A[t - 1].T + self._u @ sys.B[t - 1].T
            self._xhat = pred + (y - pred @ sys.C[t].T) @ self._L[t].T
        self._u = self._xhat @ self._K[t].T
        self._t += 1
        return self._u


def assemble_controller(sys: TimeVaryingSystem, cov: CovarianceProfile) -> KalmanController:
    """Run both recursions and package the optimal controller for ``cov``."""
    return KalmanController(K=riccati_backward(sys).K, L=kalman_forward(sys, cov).L)


@dataclass(frozen=True)
class SimulationResult:
    cost: float
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray


def _quad(x, M):
    """x' M x over the last axis of ``x``."""
    return ((x @ M) * x).sum(-1)


def _roll(sys: TimeVaryingSystem, policy, x0, w, v, keep_trajectory=False):
    """Roll out a policy's cost (and stacked x, u, y with ``keep_trajectory``).

    All arrays may carry one leading batch dimension.
    """
    T = sys.T
    x = x0
    cost = np.zeros(x.shape[:-1])
    xs, us, ys = [x], [], []
    for t in range(T):
        y = x @ sys.C[t].T + v[..., t, :]
        u = policy.step(t, y)
        cost = cost + _quad(x, sys.Q[t]) + _quad(u, sys.R[t])
        x = x @ sys.A[t].T + u @ sys.B[t].T + w[..., t, :]
        if keep_trajectory:
            xs.append(x)
            us.append(u)
            ys.append(y)
    cost = cost + _quad(x, sys.Q[T])
    if not keep_trajectory:
        return cost
    return cost, np.stack(xs, axis=-2), np.stack(us, axis=-2), np.stack(ys, axis=-2)


def simulate(sys: TimeVaryingSystem, controller, x0, w, v) -> SimulationResult:
    """Causal closed-loop rollout for one noise realization.

    ``controller`` is anything exposing ``make_policy(sys)``; the returned
    policy sees y_0..y_t before choosing u_t.
    """
    x0 = np.asarray(x0, dtype=float)
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if x0.shape != (sys.n,) or w.shape != (sys.T, sys.n) or v.shape != (sys.T, sys.p):
        raise ValueError("noise trajectory shapes do not match the system")
    policy = controller.make_policy(sys)
    cost, xs, us, ys = _roll(sys, policy, x0, w, v, keep_trajectory=True)
    return SimulationResult(cost=float(cost), x=xs, u=us, y=ys)


# monte_carlo_cost draws and rolls out this many standard normals (2 MiB of
# float64) at a time, so its memory does not grow with the rollout count
_CHUNK_ELEMENTS = 1 << 18


def _noise_roots(cov: CovarianceProfile) -> list[np.ndarray]:
    """Symmetric PSD square roots of X0, W_0..W_{T-1}, V_0..V_{T-1}, in draw order."""
    return [psd_sqrt(b) for b in (cov.X0, *cov.W, *cov.V)]


def _color(z: np.ndarray, roots, cov: CovarianceProfile):
    """Color standard normals ``z`` of shape ``(rows, n + T n + T p)`` in place.

    The columns are the x0 block, then w_0..w_{T-1}, then v_0..v_{T-1}, and
    each block is multiplied by its square root from ``roots``.  Returns
    views (x0, w, v) of ``z`` of shapes ``(rows, n)``, ``(rows, T, n)`` and
    ``(rows, T, p)``.
    """
    start = 0
    for root in roots:
        stop = start + root.shape[0]
        z[:, start:stop] = z[:, start:stop] @ root
        start = stop
    n, p, T = cov.n, cov.p, cov.T
    rows, off = z.shape[0], n + T * n
    return z[:, :n], z[:, n:off].reshape(rows, T, n), z[:, off:].reshape(rows, T, p)


def _noise_width(cov: CovarianceProfile) -> int:
    return cov.n + cov.T * (cov.n + cov.p)


def sample_noise(cov: CovarianceProfile, n_samples: int, rng: np.random.Generator):
    """Draw noise realizations (x0, w, v) with the pinned draw order.

    A single ``standard_normal`` call of shape ``(n_samples, n + T n + T p)``
    is split into the x0 block, then w_0..w_{T-1}, then v_0..v_{T-1}, and
    colored by the symmetric PSD square roots of the covariance blocks.  The
    three arrays are views of that one draw, so memory is
    O(n_samples (n + T n + T p)); ``monte_carlo_cost`` draws the same stream
    in bounded chunks instead.
    """
    z = rng.standard_normal((n_samples, _noise_width(cov)))
    return _color(z, _noise_roots(cov), cov)


def _closed_loop_maps(sys: TimeVaryingSystem, K, L, roots):
    """The rollout of u_t = K_t xhat_t as maps on s_t = [x_t, xhat_t], rows.

    Returns ``(first, stages)``.  ``first = (X, V)`` starts the loop at
    s_0 = z_x0 X + z_v0 [0, V].  ``stages[t] = (M, W, V)`` holds
    M = [D_t | Phi_t], where D_t = diag(Q_t, K_t' R_t K_t) prices stage t as
    s_t D_t s_t', and the step

        s_{t+1} = s_t Phi_t + z_wt W + z_v,t+1 [0, V].

    With F = [A'; K'B'] (so x_{t+1} = s_t F + w_t), the predicted estimate
    s_t [0; (A + B K)'] and G = C_{t+1}' L_{t+1}',

        Phi_t = [F, F G + [0; (A + B K)'] (I - G)],   W = S_W [I, G],
        V = S_V,t+1 L_{t+1}'.

    The last step keeps only x_T (Phi = F, W = S_W, V = None); the rollout
    adds x_T Q_T x_T'.  The noise square roots ``roots`` of ``_noise_roots``
    are folded in, so the maps take standard normals z.
    """
    n, T = sys.n, sys.T
    s_x0, s_w, s_v = roots[0], roots[1 : T + 1], roots[T + 1 :]
    gain = [c.T @ l.T for c, l in zip(sys.C, L)]
    first = (np.hstack([s_x0, s_x0 @ gain[0]]), s_v[0] @ L[0].T)
    zeros = np.zeros((n, n))
    stages = []
    for t in range(T):
        A, B, k = sys.A[t], sys.B[t], K[t]
        cost = np.block([[sys.Q[t], zeros], [zeros, k.T @ sys.R[t] @ k]])
        F = np.vstack([A.T, k.T @ B.T])
        if t == T - 1:
            stages.append((np.hstack([cost, F]), s_w[t], None))
            break
        g = gain[t + 1]
        pred = np.vstack([zeros, (A + B @ k).T])
        phi = np.hstack([F, F @ g + pred @ (np.eye(n) - g)])
        W = np.hstack([s_w[t], s_w[t] @ g])
        stages.append((np.hstack([cost, phi]), W, s_v[t + 1] @ L[t + 1].T))
    return first, stages


def _roll_closed_loop(sys: TimeVaryingSystem, maps, z):
    """Costs of rollouts on the standard normals ``z`` (``sample_noise`` layout)."""
    n, p, T = sys.n, sys.p, sys.T
    v_off = n + T * n
    (X0, V0), stages = maps
    s = z[:, :n] @ X0
    s[:, n:] += z[:, v_off : v_off + p] @ V0
    cost = np.zeros(z.shape[0])
    for t, (M, W, V) in enumerate(stages):
        sm = s @ M
        cost += np.einsum("ij,ij->i", sm[:, : 2 * n], s)
        s = sm[:, 2 * n :] + z[:, n + t * n : n + (t + 1) * n] @ W
        if V is not None:
            s[:, n:] += z[:, v_off + (t + 1) * p : v_off + (t + 2) * p] @ V
    return cost + _quad(s, sys.Q[T])


@dataclass(frozen=True)
class MonteCarloStats:
    mean: float
    stderr: float
    n_samples: int
    costs: np.ndarray


def monte_carlo_cost(
    sys: TimeVaryingSystem,
    controller,
    cov: CovarianceProfile,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
) -> MonteCarloStats:
    """Estimate the expected closed-loop cost (and its standard error).

    Noise is drawn and rolled out a chunk of max(1, 2^18 // (n + T n + T p))
    rows at a time into one reused buffer, so memory is
    O(chunk (n + T n + T p)), about 2 MiB of normals, plus the ``n_samples``
    floats of ``costs``.  Consecutive ``standard_normal`` blocks of rows are
    one draw of all rows, so the rollouts see exactly the noise of
    ``sample_noise(cov, n_samples, rng)`` and leave ``rng`` in the same
    state: the draw order and the meaning of a seed do not depend on the
    chunking.

    A ``KalmanController``, checked on ``sys`` as ``make_policy`` checks
    it, is rolled out on the closed loop of ``_closed_loop_maps``: per
    stage one product prices the stage and advances s_t = [x_t, xhat_t],
    and two more add the folded-in process and observation noise.  Its
    costs agree with ``simulate``'s to roundoff.  Any other controller is
    rolled out through its ``make_policy`` on the colored noise, exactly as
    ``simulate`` does.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    roots = _noise_roots(cov)
    maps = None
    if isinstance(controller, KalmanController):
        maps = _closed_loop_maps(sys, *_check_gains(sys, controller.K, controller.L), roots)
    width = _noise_width(cov)
    chunk = max(1, _CHUNK_ELEMENTS // width)
    costs = np.empty(n_samples)
    buf = np.empty((min(chunk, n_samples), width))
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        z = buf[: stop - start]
        rng.standard_normal(out=z)
        if maps is not None:
            costs[start:stop] = _roll_closed_loop(sys, maps, z)
        else:
            costs[start:stop] = _roll(sys, controller.make_policy(sys), *_color(z, roots, cov))
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / np.sqrt(n_samples))
    return MonteCarloStats(mean=mean, stderr=stderr, n_samples=n_samples, costs=costs)
