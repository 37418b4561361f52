"""Per-block reference implementations kept only for equivalence tests.

``reference_oracle`` is the scalar bisection the batched oracle replaced: one
Python loop per block that builds the full candidate matrix at every trial
gamma that passes the feasibility test.  ``reference_solve`` is the
Frank-Wolfe loop that calls it once per block.  Both follow exactly the rules
documented in ``drlqg.ambiguity`` and ``drlqg.solver``; the batched code must
reproduce their iteration counts, accepted gammas and trajectories.
"""

import math

import numpy as np

from drlqg import CovarianceProfile, OracleResult
from drlqg.ambiguity import OracleError
from drlqg.gradient import _grad_from_solutions
from drlqg.linalg import psd_eig, symmetrize
from drlqg.lqg import _value_from_solutions, kalman_forward, riccati_backward

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
        f_k = _value_from_solutions(sys, ric, kal, cov.X0)
        grads = _grad_from_solutions(sys, ric, kal).flat()
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
