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

``_filter`` is the one loop of the Kalman estimate.  ``monte_carlo_cost``
draws its noise in chunks of 2^17 standard normals.  Any controller but a
``KalmanController`` rolls out a fresh ``make_policy(sys)`` policy per chunk
on the colored noise.  A ``KalmanController`` rolls out as one linear
recursion on s_t = [x_t, xhat_t], with the noise square roots folded into
the per-stage maps, so the normals are never colored on their own.  Each
stage is priced by one product and stepped by one more: the stage's normals
are copied in beside s_t, and [s_t | z_wt | z_v,t+1] times one stacked map
is s_{t+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    NotPSDError,
    SingularMatrixError,
    _checked_eig,
    _spd_solve,
    _symmetrized,
    min_eigval,
    psd_sqrt,
    symmetrize,
)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _frozen_in_place(arrays) -> tuple:
    """``arrays`` as a tuple, each frozen in place: for arrays a recursion has just built."""
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


def _checked(stack: np.ndarray, shape: tuple, rule: str | None, label: str):
    """A (B, *shape) float ``stack`` with finite entries, frozen in place, and
    the smallest eigenvalue of each matrix under ``rule`` (None without one).

    Under ``rule`` "psd" or "pd" the stack is symmetrized first, and one
    eigensolve of the whole stack gives each matrix's eigenvalues: "psd"
    holds each to the PSD rule of ``_checked_eig``, "pd" to a positive
    smallest eigenvalue.  A misfit raises a ValueError that names ``label``.
    """
    if stack.shape[1:] != shape:
        raise ValueError(f"{label}: expected shape {shape}, got {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise ValueError(f"{label} contains non-finite entries")
    lowest = None
    if rule is not None:
        stack = symmetrize(stack)
        if rule == "psd":
            try:
                lowest = _checked_eig(stack, np.linalg.eigvalsh)[:, 0]
            except NotPSDError as exc:  # a plain ValueError that names the field
                raise ValueError(f"{label} must be positive semidefinite ({exc})") from None
        else:
            lowest = np.linalg.eigvalsh(stack)[:, 0]
            if lowest.min() <= 0.0:
                raise ValueError(f"{label} must be positive definite (min eig {lowest.min():.3e})")
    stack.flags.writeable = False
    return stack, lowest


def _stack(mats, shape: tuple, labels, rule: str | None = None):
    """The matrices ``mats``, copied into one new frozen (len(mats), *shape)
    float array and checked in one call of ``_checked``, with their smallest
    eigenvalues under ``rule``.

    If the stack fails, its matrices are checked again one after another,
    so that the ValueError names the first at fault (``labels[j]``) and says
    what a check of matrix 0, then matrix 1, ... would say.
    """
    try:
        return _checked(np.array(mats, dtype=float), shape, rule, "stack")
    except (TypeError, ValueError):
        for label, m in zip(labels, mats):
            _checked(np.asarray(m, dtype=float)[None], shape, rule, label)
        raise


def _stages(mats, count: int, shape: tuple, name: str, rule: str | None = None) -> tuple:
    """``count`` stage matrices ``name[0]``.. as read-only views of one checked stack."""
    mats = tuple(mats)
    if len(mats) != count:
        raise ValueError(f"{name}: expected {count} matrices, got {len(mats)}")
    return tuple(_stack(mats, shape, [f"{name}[{t}]" for t in range(count)], rule)[0])


@dataclass(frozen=True)
class TimeVaryingSystem:
    """Plant and cost data over a horizon of T stages.

    ``A``, ``B``, ``C`` and ``R`` each hold one matrix per stage t = 0..T-1;
    ``Q`` holds T+1 matrices including the terminal state cost Q_T.  State
    costs must be PSD and input costs strictly PD.  Each field is a tuple of
    read-only views of one checked stack; T, n, m and p are read off them.
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
        object.__setattr__(self, "A", _stages(A, T, (n, n), "A"))
        object.__setattr__(self, "B", _stages(B, T, (n, m), "B"))
        object.__setattr__(self, "C", _stages(C, T, (p, n), "C"))
        object.__setattr__(self, "Q", _stages(self.Q, T + 1, (n, n), "Q", "psd"))
        object.__setattr__(self, "R", _stages(self.R, T, (m, m), "R", "pd"))

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


def _block_labels(T: int) -> tuple[str, ...]:
    """X0, W[0]..W[T-1], V[0]..V[T-1]: the block names of ``CovarianceProfile``'s messages."""
    return ("X0", *(f"W[{t}]" for t in range(T)), *(f"V[{t}]" for t in range(T)))


def _split(blocks) -> tuple:
    """(X0, (W_0..), (V_0..)) from 2T+1 blocks in that order; T comes from the length."""
    T = (len(blocks) - 1) // 2
    return blocks[0], tuple(blocks[1 : 1 + T]), tuple(blocks[1 + T :])


@dataclass(frozen=True)
class CovarianceProfile:
    """A zero-mean Gaussian noise model: X0 plus per-stage W_t and V_t.

    All blocks are symmetrized on construction and must be PSD up to the
    roundoff clamping tolerance.  ``_lowest`` keeps the smallest eigenvalue
    that check computed for each block, in ``blocks`` order, so that the
    balls and audits built on the profile do not eigensolve a block again;
    a profile built by ``_trusted`` holds None for each.
    """

    X0: np.ndarray
    W: tuple
    V: tuple
    _lowest: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W, V = tuple(self.W), tuple(self.V)
        if not W or len(W) != len(V):
            raise ValueError("W and V must be non-empty and of equal length")
        n, p = (np.shape(a)[0] if np.ndim(a) else 0 for a in (self.X0, V[0]))
        T = len(W)
        mats, labels = (self.X0, *W, *V), _block_labels(T)
        # one stack per block shape: X0 and W, then V
        stacks = [
            _stack(mats[: T + 1], (n, n), labels[: T + 1], "psd"),
            _stack(mats[T + 1 :], (p, p), labels[T + 1 :], "psd"),
        ]
        blocks = [block for stack, _ in stacks for block in stack]
        for name, value in zip(("X0", "W", "V"), _split(blocks)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_lowest", tuple(np.concatenate([w for _, w in stacks]).tolist()))

    @classmethod
    def _trusted(cls, blocks) -> "CovarianceProfile":
        """Wrap 2T+1 blocks, ordered as ``blocks``, that are already symmetric and PSD.

        Skips the checks of public construction; the caller hands over fresh
        bitwise-symmetric arrays, which are frozen in place.  Used for iterates
        the solver builds as convex combinations of feasible blocks.
        """
        out = object.__new__(cls)
        for name, value in zip(("X0", "W", "V"), _split(_frozen_in_place(blocks))):
            object.__setattr__(out, name, value)
        object.__setattr__(out, "_lowest", (None,) * len(blocks))
        return out

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """X0, W_0..W_{T-1}, V_0..V_{T-1}: the one order of balls, gradients and draws."""
        return (self.X0, *self.W, *self.V)

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


def _overflow(recursion: str, t: int) -> ValueError:
    """The error of a recursion whose stage ``t`` overflowed (or made a NaN of an overflow).

    Each recursion runs under one ``np.errstate(over="raise", invalid="raise")``
    per call, so the first such value stops it at the stage that made it.
    """
    return ValueError(f"{recursion} recursion overflows at stage {t}")


def _not_pd(recursion: str, t: int, matrix: str) -> SingularMatrixError:
    """The error of a recursion whose stage ``t`` factors a ``matrix`` that is not PD."""
    return SingularMatrixError(
        f"{recursion} recursion fails at stage {t}: {matrix} is not positive definite"
    )


@np.errstate(over="raise", invalid="raise")
def riccati_backward(sys: TimeVaryingSystem) -> RiccatiSolution:
    """Backward Riccati recursion.

        P_T = Q_T
        K_t = -(R_t + B_t' P_{t+1} B_t)^{-1} B_t' P_{t+1} A_t
        P_t = A_t' P_{t+1} A_t + Q_t - A_t' P_{t+1} B_t (R_t + B_t' P_{t+1} B_t)^{-1} B_t' P_{t+1} A_t

    The inner matrix R_t + B_t' P_{t+1} B_t is PD because R_t is PD and
    P_{t+1} is PSD; a failed factorization raises ``SingularMatrixError``
    and an overflow ``ValueError``, each naming the stage.
    """
    T = sys.T
    P = [None] * (T + 1)
    K = [None] * T
    P[T] = sys.Q[T]
    try:
        for t in reversed(range(T)):
            PB = P[t + 1] @ sys.B[t]
            inner = _symmetrized(sys.R[t] + sys.B[t].T @ PB)
            lin = PB.T @ sys.A[t]  # B_t' P_{t+1} A_t
            K[t] = -_spd_solve(inner, lin)
            P[t] = _symmetrized(sys.A[t].T @ P[t + 1] @ sys.A[t] + sys.Q[t] + lin.T @ K[t])
    except FloatingPointError:
        raise _overflow("Riccati", t) from None
    except SingularMatrixError:
        raise _not_pd("Riccati", t, f"R[{t}] + B[{t}]' P[{t + 1}] B[{t}]") from None
    return RiccatiSolution(P=_frozen_in_place(P), K=_frozen_in_place(K))


@np.errstate(over="raise", invalid="raise")
def _kalman_forward_raw(sys: TimeVaryingSystem, blocks) -> KalmanSolution:
    """Forward recursion on the raw 2T+1 ``blocks``, which start it as given.

    The caller guarantees X0 bitwise symmetric and V_t PD.  An overflow
    raises ``ValueError`` and a failed factorization ``SingularMatrixError``,
    each naming the stage.
    """
    X0, W, V = _split(blocks)
    T = sys.T
    Sig = [None] * T
    L = [None] * T
    pred = [None] * (T + 1)
    pred[0] = s = X0
    try:
        for t in range(T):
            C = sys.C[t]
            cs = C @ s
            m_t = _symmetrized(cs @ C.T + V[t])
            # Sigma_{t|t-1} C' M^{-1}, which equals the filter gain Sigma_t C' V^{-1}
            L[t] = _spd_solve(m_t, cs).T
            Sig[t] = _symmetrized(s - L[t] @ C @ s)
            s = _symmetrized(sys.A[t] @ Sig[t] @ sys.A[t].T + W[t])
            pred[t + 1] = s
    except FloatingPointError:
        raise _overflow("Kalman", t) from None
    except SingularMatrixError:
        raise _not_pd("Kalman", t, f"C[{t}] Sigma_pred[{t}] C[{t}]' + V[{t}]") from None
    return KalmanSolution(
        Sigma=_frozen_in_place(Sig), Sigma_pred=_frozen_in_place(pred), L=_frozen_in_place(L)
    )


def kalman_forward(sys: TimeVaryingSystem, cov: CovarianceProfile) -> KalmanSolution:
    """Forward Kalman recursion.

        Sigma_{0|-1} = X0
        Sigma_t = Sigma_{t|t-1} - Sigma_{t|t-1} C_t' (C_t Sigma_{t|t-1} C_t' + V_t)^{-1} C_t Sigma_{t|t-1}
        Sigma_{t+1|t} = A_t Sigma_t A_t' + W_t
        L_t = Sigma_t C_t' V_t^{-1}
    """
    _check_dims(sys, cov)
    for t, (v, lowest) in enumerate(zip(cov.V, cov._lowest[1 + cov.T :])):
        if (min_eigval(v) if lowest is None else lowest) <= 0.0:
            raise SingularMatrixError(f"observation covariance V[{t}] is not positive definite")
    return _kalman_forward_raw(sys, cov.blocks)


def _check_dims(sys: TimeVaryingSystem, cov: CovarianceProfile):
    """The one check of a profile against a system."""
    if cov.T != sys.T or cov.n != sys.n or cov.p != sys.p:
        raise ValueError(
            f"covariance profile (n={cov.n}, p={cov.p}, T={cov.T}) does not match "
            f"system (n={sys.n}, p={sys.p}, T={sys.T})"
        )


def _value_from_solutions(
    sys: TimeVaryingSystem, ric: RiccatiSolution, kal: KalmanSolution
) -> float:
    """Expected optimal cost from precomputed recursions.

        f = sum_{t<T} tr((Q_t - P_t) Sigma_t) + sum_{t=0..T} tr(P_t Sigma_{t|t-1})

    Sigma_{0|-1} is X0 itself.
    """
    T = sys.T
    f = float(np.trace(ric.P[0] @ kal.Sigma_pred[0]))
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
    return _value_from_solutions(sys, ric, kal)


@dataclass(frozen=True)
class KalmanController:
    """Certainty-equivalence output-feedback controller u_t = K_t xhat_t.

    It is its gains alone: ``K`` holds K_t (m x n) and ``L`` holds L_t
    (n x p), t = 0..T-1.  The state estimate follows

        xhat_0 = L_0 y_0
        xhat_{t+1} = A_t xhat_t + B_t u_t
                     + L_{t+1} (y_{t+1} - C_{t+1} (A_t xhat_t + B_t u_t)).

    ``_filter`` is its one loop; the filter state of a rollout lives in the
    policy that :meth:`make_policy` returns, which checks the gains on ``sys``.
    """

    K: tuple
    L: tuple

    def make_policy(self, sys: TimeVaryingSystem):
        return _KalmanPolicy(sys, *_check_gains(sys, self.K, self.L))


def _check_gains(sys: TimeVaryingSystem, K, L) -> tuple[tuple, tuple]:
    """K and L as frozen stage tuples; a ValueError names the misfit."""
    K = _stages(K, sys.T, (sys.m, sys.n), "K")
    return K, _stages(L, sys.T, (sys.n, sys.p), "L")


def _filter(sys, F, L, k: int, live=None):
    """Yield the Kalman estimates xhat_0..xhat_{T-1} of k columns without their
    measurement terms, P_t - L_t C_t P_t, in one array updated in place:
    P_0 = 0 and P_t = F_{t-1} xhat_{t-1}, where xhat_{t-1} is the array as the
    caller left it.

    The iterator ``F`` gives F_0, F_1, .. (A_t + B_t K_t closes the loop
    u_t = K_t xhat_t).  The caller adds L_t y_t into each yielded array, where
    y_t is nonzero, to make xhat_t = P_t + L_t (y_t - C_t P_t), as ``_plant``'s
    callers add a sparse w_t.  ``live`` = (c0, c) computes only the first
    c0 + t c columns, where xhat_t lives.
    """
    xhat = np.zeros((sys.n, k))
    yield xhat
    for t in range(1, sys.T):
        x = xhat if live is None else xhat[:, : live[0] + (t - 1) * live[1]]  # the live columns
        pred = next(F) @ x
        np.subtract(pred, L[t] @ (sys.C[t] @ pred), out=x)
        yield xhat


class _KalmanPolicy:
    """Causal rollout of a Kalman controller: ``_filter`` on the closed loop
    F_t = A_t + B_t K_t, as ``unroll_controller`` runs it, one column per
    observation, with L_t y_t added to each estimate.  ``step(t, y)`` takes
    ``y`` of shape ``(p,)`` or ``(..., p)`` and returns inputs of matching
    leading shape; step 0 makes the filter, once the column count is known."""

    def __init__(self, sys, K, L):
        self._sys, self._K, self._L, self._t = sys, K, L, 0

    def step(self, t: int, y):
        if t != self._t:
            raise ValueError(f"policy stepped out of order: expected t={self._t}, got {t}")
        if t == len(self._K):
            raise ValueError(f"policy stepped past its horizon: T={len(self._K)}, got t={t}")
        obs = y[:, None] if y.ndim == 1 else y.reshape(-1, y.shape[-1]).T
        if t == 0:
            sys = self._sys
            closed = (a + b @ k for a, b, k in zip(sys.A, sys.B, self._K))
            self._xhat = _filter(sys, closed, self._L, obs.shape[1])
        xhat = next(self._xhat)
        xhat += self._L[t] @ obs
        u = self._K[t] @ xhat
        self._t += 1
        return u[:, 0] if y.ndim == 1 else u.T.reshape(y.shape[:-1] + (len(u),))


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


# monte_carlo_cost draws and rolls out this many standard normals (1 MiB of
# float64) at a time, so its memory does not grow with the rollout count: at
# n=T=10, 10^5 rollouts peak at 2.4 MiB under tracemalloc, the chunk beside
# the 0.8 MB of costs.  A chunk of 2^16 rolled 2000 rollouts at n=T=20 out
# about 5 % slower, and with the one-product step of _roll_closed_loop a chunk
# of 2^18 is slower too: medians of 50.9 and 55.6 ms against 44.9 and 52.8 ms
# in two sets of 15 alternating runs, 2^17 faster in 11 and 14 of them (2-core
# Xeon VM, OpenBLAS 0.3.31).
_CHUNK_ELEMENTS = 1 << 17


def _stage_stacks(cov: CovarianceProfile):
    """(W, V): the stage stacks (X0, W_0..W_{T-1}) of Wbig and (V_0..V_{T-1}) of Vbig."""
    return np.stack((cov.X0, *cov.W)), np.stack(cov.V)


def _noise_roots(cov: CovarianceProfile) -> list[np.ndarray]:
    """Symmetric PSD square roots of ``cov.blocks``, which is the draw order:
    one ``psd_sqrt`` of each stage stack."""
    return [root for stack in _stage_stacks(cov) for root in psd_sqrt(stack)]


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
    s_0 = z_x0 X + z_v0 [0, V].  ``stages[t] = (D, S)`` holds
    D_t = diag(Q_t, K_t' R_t K_t), which prices stage t as s_t D_t s_t', and
    the step, one product of s_t and the stage's normals:

        s_{t+1} = [s_t | z_wt | z_v,t+1] S_t,   S_t = [Phi_t; W_t; [0 | V_t]].

    With F = [A'; K'B'] (so x_{t+1} = s_t F + w_t), the predicted estimate
    s_t [0; (A + B K)'] and G = C_{t+1}' L_{t+1}',

        Phi_t = [F, F G + [0; (A + B K)'] (I - G)],   W_t = S_W [I, G],
        V_t = S_V,t+1 L_{t+1}'.

    S_t is (3n + p) x 2n.  The last step keeps only x_T = [s | z_w] S with
    S = [F; S_W], 3n x n; the rollout adds x_T Q_T x_T'.  The noise square
    roots ``roots`` of ``_noise_roots`` are folded in, so the maps take
    standard normals z.
    """
    n, p, T = sys.n, sys.p, sys.T
    s_x0, s_w, s_v = _split(roots)
    gain = [c.T @ l.T for c, l in zip(sys.C, L)]
    first = (np.hstack([s_x0, s_x0 @ gain[0]]), s_v[0] @ L[0].T)
    stages = []
    for t in range(T):
        A, B, k = sys.A[t], sys.B[t], K[t]
        D = np.zeros((2 * n, 2 * n))
        D[:n, :n], D[n:, n:] = sys.Q[t], k.T @ sys.R[t] @ k
        F = np.vstack([A.T, k.T @ B.T])
        if t == T - 1:
            stages.append((D, np.vstack([F, s_w[t]])))
            break
        g = gain[t + 1]
        S = np.zeros((3 * n + p, 2 * n))
        S[: 2 * n, :n] = F  # Phi_t
        S[: 2 * n, n:] = F @ g
        S[n : 2 * n, n:] += (A + B @ k).T @ (np.eye(n) - g)
        S[2 * n : 3 * n, :n] = s_w[t]  # W_t
        S[2 * n : 3 * n, n:] = s_w[t] @ g
        S[3 * n :, n:] = s_v[t + 1] @ L[t + 1].T  # [0 | V_t]
        stages.append((D, S))
    return first, stages


def _roll_closed_loop(sys: TimeVaryingSystem, maps, z):
    """Costs of rollouts on the standard normals ``z`` (``sample_noise`` layout).

    Each row of a buffer holds [s_t | z_wt | z_v,t+1]: the stage's normals
    are copied in beside s_t, and one product writes s_{t+1} into the state
    columns of a second buffer, which then takes the first one's place.
    """
    n, p, T = sys.n, sys.p, sys.T
    v_off = n + T * n
    (X0, V0), stages = maps
    cur, nxt = np.empty((2, z.shape[0], 3 * n + p))
    np.matmul(z[:, :n], X0, out=cur[:, : 2 * n])
    cur[:, n : 2 * n] += z[:, v_off : v_off + p] @ V0
    cost = np.zeros(z.shape[0])
    for t, (D, S) in enumerate(stages):
        s = cur[:, : 2 * n]
        cost += np.einsum("ij,ij->i", s @ D, s)
        cur[:, 2 * n : 3 * n] = z[:, n + t * n : n + (t + 1) * n]
        if t == T - 1:
            break
        cur[:, 3 * n :] = z[:, v_off + (t + 1) * p : v_off + (t + 2) * p]
        np.matmul(cur, S, out=nxt[:, : 2 * n])
        cur, nxt = nxt, cur
    return cost + _quad(cur[:, : 3 * n] @ S, sys.Q[T])


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

    Noise is drawn and rolled out a chunk of max(1, 2^17 // (n + T n + T p))
    rows at a time into one reused buffer, so memory is
    O(chunk (n + T n + T p)), about 1 MiB of normals, plus the ``n_samples``
    floats of ``costs``; the buffer is released before the mean and standard
    error, whose pass copies the costs once.  Consecutive ``standard_normal``
    blocks of rows are one draw of all rows, so the rollouts see exactly the
    noise of ``sample_noise(cov, n_samples, rng)`` and leave ``rng`` in the
    same state: the draw order and the meaning of a seed do not depend on
    the chunking.

    ``cov`` must fit ``sys``.  ``controller`` is anything ``simulate``
    takes.  A ``KalmanController`` is rolled out on the closed loop of
    ``_closed_loop_maps``, made once, whose costs agree with ``simulate``'s
    to roundoff.  Any other controller rolls out a fresh ``make_policy(sys)``
    policy per chunk on the colored noise, exactly as ``simulate`` does; one
    ``make_policy(sys)`` call before the first draw lets a controller that
    does not fit ``sys`` raise before ``rng`` moves.
    """
    _check_dims(sys, cov)
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    roots = _noise_roots(cov)
    if isinstance(controller, KalmanController):
        maps = _closed_loop_maps(sys, *_check_gains(sys, controller.K, controller.L), roots)
        rollout = lambda z: _roll_closed_loop(sys, maps, z)
    else:
        controller.make_policy(sys)  # a misfit raises here, before the first draw
        rollout = lambda z: _roll(sys, controller.make_policy(sys), *_color(z, roots, cov))
    width = _noise_width(cov)
    chunk = max(1, _CHUNK_ELEMENTS // width)
    costs = np.empty(n_samples)
    buf = np.empty((min(chunk, n_samples), width))
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        z = buf[: stop - start]
        rng.standard_normal(out=z)
        costs[start:stop] = rollout(z)
    del buf, z  # not held through np.std's copy of the costs
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / np.sqrt(n_samples))
    return MonteCarloStats(mean=mean, stderr=stderr, n_samples=n_samples, costs=costs)
