"""Per-block reference implementations kept only for equivalence tests.

``reference_oracle`` is the scalar bisection the batched oracle replaced: one
Python loop per block that builds the full candidate matrix at every trial
gamma that passes the feasibility test.  ``reference_solve`` is the
Frank-Wolfe loop that calls it once per block.  Both follow exactly the rules
documented in ``drlqg.ambiguity`` and ``drlqg.solver``; the batched code must
reproduce their iteration counts, accepted gammas and trajectories.

``reference_sample_feasible`` is the per-ball sampler loop the per-shape
stacks of ``drlqg.ambiguity`` replaced; the stacked code must reproduce its bits.

``reference_gelbrich_distance`` and ``reference_contains`` are the one-pair
Gelbrich distance, with the trace of a formed square root of the cross term,
and the one-ball membership test that the stacked membership replaced; the
stacked code must reproduce their verdicts and, to roundoff, their distances.

``reference_unroll``, ``reference_kalman_purified`` and ``ReferenceKalmanPolicy``
are the three hand-written Kalman estimate recursions that ``drlqg.lqg._filter``
replaced: the unroll's Phi loop, the purified gain's d loop and the policy's
step.  The two gains must be reproduced bit for bit, signed zeros included,
and the policy's inputs to roundoff.

``reference_roll_closed_loop`` is the Monte-Carlo chunk rollout of a Kalman
controller that ``drlqg.lqg._roll_closed_loop`` replaced: three products per
stage, one that prices the stage and advances the state and two that add the
process and the observation noise.  The one-product step must reproduce its
costs to roundoff.

``reference_controller_cost_trace`` is the exact cost of a purified gain by
the loop ``drlqg.stacked.controller_cost_trace`` ran before it read the
observations: block row t of u = U D w + U v + q from U's causal blocks
times D.  The loop over y must price both gain forms as it did, to roundoff.
"""

import math

import numpy as np

from drlqg import CovarianceProfile, OracleResult, oracle_maximize_blocks
from drlqg import ambiguity
from drlqg.ambiguity import OracleError
from drlqg.gradient import _grad_from_solutions
from drlqg.linalg import min_eigval, psd_eig, psd_sqrt, symmetrize
from drlqg.lqg import (
    _quad,
    _split,
    _stage_stacks,
    _value_from_solutions,
    kalman_forward,
    riccati_backward,
)
from drlqg.stacked import _plant, _right

MAX_BISECT = 200


def reference_oracle(ball, gradient, reference, delta=0.95) -> OracleResult:
    zhat = ball.center
    rho = float(ball.radius)
    ref = symmetrize(reference)
    if rho == 0.0:
        return OracleResult(maximizer=zhat.copy(), gamma=math.nan, gap_contribution=0.0, iterations=0)
    lam, vec = psd_eig(gradient)
    lam1 = lam[-1]
    if lam1 <= 0.0:
        return OracleResult(maximizer=ref, gamma=math.nan, gap_contribution=0.0, iterations=0)
    gam_clamped = symmetrize((vec * lam) @ vec.T)
    p1 = vec[:, -1]
    zdiag = np.diag(vec.T @ zhat @ vec).copy()
    ref_ip = float(np.sum(gam_clamped * ref))

    lo = lam1 * (1.0 + math.sqrt(max(float(p1 @ zhat @ p1), 0.0)) / rho)
    hi = lam1 * (1.0 + math.sqrt(max(float(np.trace(zhat)), 0.0)) / rho)

    def dual(gamma):
        scale = gamma / (gamma - lam)
        phi = gamma * (rho**2 + float(np.sum((scale - 1.0) * zdiag))) - ref_ip
        dphi = rho**2 - float(np.sum((lam * zdiag * lam) / (gamma - lam) ** 2))
        return phi, dphi

    def candidate(gamma):
        mult = (vec * (gamma / (gamma - lam))) @ vec.T
        L = symmetrize(mult @ zhat @ mult)
        return L, float(np.sum(gam_clamped * L)) - ref_ip

    for it in range(1, MAX_BISECT + 1):
        if hi - lo <= 1e-12 * max(1.0, hi):
            L, gap = candidate(hi)
            if gap < 0.0:
                return OracleResult(maximizer=ref, gamma=hi, gap_contribution=0.0, iterations=it)
            return OracleResult(maximizer=L, gamma=hi, gap_contribution=gap, iterations=it)
        gamma = 0.5 * (lo + hi)
        phi, dphi = dual(gamma)
        if dphi > 0.0:
            L, gap = candidate(gamma)
            if gap >= delta * phi:
                return OracleResult(maximizer=L, gamma=gamma, gap_contribution=gap, iterations=it)
            hi = gamma
        else:
            lo = gamma
    raise OracleError(f"bisection did not meet the exit test in {MAX_BISECT} iterations")


def reference_solve(sys, amb, delta=0.95, tol=1e-3, max_iter=1000):
    """Open-loop Frank-Wolfe with one reference oracle call per block.

    Returns the (k, f_value, surrogate_gap) trace.
    """
    balls = amb.balls()
    ric = riccati_backward(sys)
    cov = amb.nominal
    trace = []
    for k in range(max_iter):
        kal = kalman_forward(sys, cov)
        f_k = _value_from_solutions(sys, ric, kal)
        grads = _grad_from_solutions(sys, ric, kal)
        refs = [cov.X0, *cov.W, *cov.V]
        results = [reference_oracle(b, g, z, delta) for b, g, z in zip(balls, grads, refs)]
        gap = sum(r.gap_contribution for r in results)
        trace.append((k, f_k, gap))
        if gap <= tol:
            break
        alpha = 2.0 / (2.0 + k)
        blocks = [symmetrize(z + alpha * (r.maximizer - z)) for z, r in zip(refs, results)]
        cov = CovarianceProfile(X0=blocks[0], W=blocks[1 : 1 + sys.T], V=blocks[1 + sys.T :])
    return trace


def reference_sample_feasible(balls, rng, count):
    """Per ball: the direction normals, one uniform, and a sample built alone.

    One ``oracle_maximize_blocks`` call per group of profiles, the groups
    sized by ``drlqg.ambiguity._SAMPLE_ELEMENTS`` as the stacked sampler's are.
    """
    moving = [i for i, ball in enumerate(balls) if ball.radius != 0.0]
    chosen = [balls[i] for i in moving]
    group = max(1, ambiguity._SAMPLE_ELEMENTS // max(1, sum(b.dim**2 for b in chosen)))
    for start in range(0, count, group):
        size = min(group, count - start)
        directions, weights = [], []
        for _ in range(size):
            for ball in chosen:
                a = rng.standard_normal((ball.dim, ball.dim))
                directions.append(symmetrize(a @ a.T))
                weights.append(rng.uniform())
        extremes = oracle_maximize_blocks(
            chosen * size, directions, [b.center for b in chosen] * size, delta=0.9
        )
        picks = iter(zip(chosen * size, extremes, weights))
        for _ in range(size):
            blocks = [ball.center.copy() for ball in balls]
            for i, (ball, res, u) in zip(moving, picks):
                blocks[i] = symmetrize(ball.center + u * (res.maximizer - ball.center))
            yield blocks


def reference_gelbrich_distance(s1, s2) -> float:
    s1, s2 = symmetrize(s1), symmetrize(s2)
    if np.array_equal(s1, s2):
        psd_eig(s1)  # the PSD rule still applies
        return 0.0
    root2 = psd_sqrt(s2)
    cross = psd_sqrt(root2 @ s1 @ root2)
    return math.sqrt(max(float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross)), 0.0))


def reference_contains(ball, z, tol, lowest=None) -> bool:
    z = symmetrize(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("matrix contains non-finite entries")
    if (min_eigval(z) if lowest is None else lowest) < ball.floor - tol:
        return False
    return reference_gelbrich_distance(z, ball.center) <= ball.radius + tol


def reference_unroll(sys, K, L) -> np.ndarray:
    """The gain over y of the Kalman controller (K, L), by its Phi recursion."""
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
    return U


def reference_kalman_purified(st, K, L) -> np.ndarray:
    """The purified gain of (K, L): the noise-free twin plus the d recursion on eta."""
    n, m, p, T = st.n, st.m, st.p, st.T
    U = np.zeros((m * T, p * T))
    d = np.zeros((n, p * T))
    d[:, :p] = L[0]
    inputs = (U[t * m : (t + 1) * m] for t in range(T))  # u_t, read once row t is filled
    for t, xbar in zip(range(T), _plant(st, p * T, inputs, live=(0, p))):
        live = slice((t + 1) * p)
        if t > 0:
            prev = slice(t * p)
            ad = st.A[t - 1] @ d[:, prev]
            d[:, prev] = ad - L[t] @ (st.C[t] @ ad)
            d[:, t * p : (t + 1) * p] = L[t]
        U[t * m : (t + 1) * m, live] = K[t] @ (xbar[:, live] + d[:, live])
    return U


class ReferenceKalmanPolicy:
    """The Kalman policy stepped on rows: xhat_t from the predicted A xhat + B u."""

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


def reference_roll_closed_loop(sys, K, L, roots, z) -> np.ndarray:
    """Costs of u_t = K_t xhat_t on the standard normals ``z`` (``sample_noise``
    layout), rolled on s_t = [x_t, xhat_t] with the noise roots ``roots``
    folded into the maps:

        cost_t = s_t D_t s_t',   s_{t+1} = s_t Phi_t + z_wt W_t + z_v,t+1 [0, V_t],

    with s_t [D_t | Phi_t] in one product, and x_T = s_{T-1} F + z_w,T-1 S_W.
    """
    n, p, T = sys.n, sys.p, sys.T
    s_x0, s_w, s_v = _split(roots)
    gain = [c.T @ l.T for c, l in zip(sys.C, L)]
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

    v_off = n + T * n
    s = z[:, :n] @ np.hstack([s_x0, s_x0 @ gain[0]])
    s[:, n:] += z[:, v_off : v_off + p] @ (s_v[0] @ L[0].T)
    total = np.zeros(z.shape[0])
    for t, (M, W, V) in enumerate(stages):
        sm = s @ M
        total += np.einsum("ij,ij->i", sm[:, : 2 * n], s)
        s = sm[:, 2 * n :] + z[:, n + t * n : n + (t + 1) * n] @ W
        if V is not None:
            s[:, n:] += z[:, v_off + (t + 1) * p : v_off + (t + 2) * p] @ V
    return total + _quad(s, sys.Q[T])


def reference_controller_cost_trace(st, ctrl, cov) -> float:
    """Exact cost of a purified gain on a ``StackedSystem``: as maps of (w, v, 1),
    x_t from ``_plant`` and u_t = [(U D)_t | U_t | q_t], each priced as

        tr[F z Sigma z'],   Sigma = diag(X0, W_0.., V_0.., 1).
    """
    W, V = _stage_stacks(cov)
    U, q = ctrl.U, ctrl.q
    n, m, p, T = st.n, st.m, st.p, st.T
    N = n * (T + 1)
    k = N + p * T + 1

    def priced(F, z):
        Fz = F @ z
        return (
            np.vdot(Fz[:, :N], _right(z[:, :N], W))
            + np.vdot(Fz[:, N:-1], _right(z[:, N:-1], V))
            + np.vdot(Fz[:, -1], z[:, -1])
        )

    val = 0.0

    def inputs():
        nonlocal val
        for t in range(T):
            rows, seen = slice(t * m, (t + 1) * m), (t + 1) * p
            u = np.zeros((m, k))
            u[:, : (t + 1) * n] = U[rows, :seen] @ st.D[:seen, : (t + 1) * n]
            u[:, N:-1] = U[rows]
            u[:, -1] = q[rows]
            val += priced(st.R[t], u)
            yield u

    noise = (np.eye(n, k, t * n) for t in range(T + 1))
    for t, x in enumerate(_plant(st, k, inputs(), noise)):
        val += priced(st.Q[t], x)
    return float(val)
