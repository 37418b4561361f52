"""Frank-Wolfe solver for the worst-case noise model and its verifier.

The inner maximization  max f(X0, W, V)  over the product of floored
Gelbrich balls is concave, so a Frank-Wolfe scheme applies: at each iterate
compute the gradient blocks, solve the linearization over all 2T+1 balls
with one batched oracle call (one vectorized bisection per block shape, see
``drlqg.ambiguity``), sum the per-block surrogate gaps into g_k in the fixed
block order X0, W_0.., V_0.., stop once g_k falls below the tolerance, and
otherwise move with the open-loop step 2/(2+k).  Iterates are convex
combinations of feasible blocks (so V_t stays PD), and are used without
re-validation.  The returned controller is the Kalman controller assembled
at the worst-case profile; by the separation structure it is a best
response, which makes the pair a saddle point.

``saddle_check`` audits a claimed solution from both sides with exact
certificates: no feasible noise profile (including an adversarially
constructed best response) may beat the claimed value by more than the
convergence slack, and a first-order bound shows that no causal controller
does better against the worst case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySpec, oracle_maximize_blocks, sample_feasible_blocks
from .gradient import grad_f, _grad_from_solutions
from .lqg import (
    CovarianceProfile,
    KalmanController,
    TimeVaryingSystem,
    _kalman_forward_raw,
    _value_from_solutions,
    assemble_controller,
    riccati_backward,
)
from .linalg import symmetrize
from .stacked import _first_order_bound, build_stacked, output_to_purified, unroll_kalman


@dataclass(frozen=True)
class FWConfig:
    """Solver knobs.

    ``tol`` is an absolute threshold on the summed surrogate gap and
    ``delta`` the per-block oracle accuracy.
    """

    delta: float = 0.95
    tol: float = 1e-3
    max_iter: int = 1000

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class FWIteration:
    k: int
    f_value: float
    surrogate_gap: float
    wall_time: float


@dataclass(frozen=True)
class RobustSolution:
    worst_case: CovarianceProfile
    controller: KalmanController
    trace: tuple
    final_gap: float
    f_value: float
    converged: bool
    config: FWConfig


def _blocks(cov: CovarianceProfile) -> list[np.ndarray]:
    return [cov.X0, *cov.W, *cov.V]


def solve(
    sys: TimeVaryingSystem,
    amb: AmbiguitySpec,
    config: FWConfig | None = None,
    on_iterate=None,
) -> RobustSolution:
    """Find the least-favorable noise profile and its optimal controller.

    Starts from the nominal profile.  When the gap tolerance is not reached
    within ``max_iter`` iterations the iterate with the smallest recorded
    gap is returned, flagged ``converged=False``.  ``on_iterate(k, cov, gap)``
    is invoked once per iteration (used by audits and tests).
    """
    cfg = config if config is not None else FWConfig()
    if amb.nominal.T != sys.T or amb.nominal.n != sys.n or amb.nominal.p != sys.p:
        raise ValueError("ambiguity set does not match the system dimensions")
    balls = amb.balls()
    ric = riccati_backward(sys)
    cov = amb.nominal
    trace = []
    best = None  # (gap, f, cov)
    converged = False
    start = time.perf_counter()
    for k in range(cfg.max_iter):
        kal = _kalman_forward_raw(sys, cov.X0, cov.W, cov.V)
        f_k = _value_from_solutions(sys, ric, kal, cov.X0)
        grads = _grad_from_solutions(sys, ric, kal).flat()
        refs = _blocks(cov)
        results = oracle_maximize_blocks(balls, grads, refs, delta=cfg.delta)
        gap = sum(r.gap_contribution for r in results)  # fixed block order
        trace.append(
            FWIteration(k=k, f_value=f_k, surrogate_gap=gap, wall_time=time.perf_counter() - start)
        )
        if on_iterate is not None:
            on_iterate(k, cov, gap)
        if best is None or gap < best[0]:
            best = (gap, f_k, cov)
        if gap <= cfg.tol:
            converged = True
            break
        alpha = 2.0 / (2.0 + k)
        stepped = [symmetrize(z + alpha * (r.maximizer - z)) for z, r in zip(refs, results)]
        cov = CovarianceProfile._trusted(stepped, sys.T)
    final_gap, f_value, worst = best
    return RobustSolution(
        worst_case=worst,
        controller=assemble_controller(sys, worst),
        trace=tuple(trace),
        final_gap=final_gap,
        f_value=f_value,
        converged=converged,
        config=cfg,
    )


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of the two-sided saddle audit.

    ``nature_violations`` lists (label, cost, excess) for feasible noise
    profiles that beat the claimed value by more than ``nature_slack``;
    ``controller_violations`` holds ("first-order", cost, shortfall) when
    the certified lower bound on a causal controller's cost at the worst
    case undercuts it.  ``n_samples`` counts the random nature samples.
    """

    f_value: float
    nature_slack: float
    controller_slack: float
    nature_violations: tuple
    controller_violations: tuple
    n_samples: int

    @property
    def passed(self) -> bool:
        return not self.nature_violations and not self.controller_violations


def _price(grads: list[np.ndarray], blocks: list[np.ndarray]) -> float:
    """Cost of the fixed Kalman controller whose value has gradient ``grads``."""
    return sum(float(np.vdot(g, z)) for g, z in zip(grads, blocks))


def saddle_check(
    sys: TimeVaryingSystem,
    amb: AmbiguitySpec,
    sol: RobustSolution,
    n_samples: int = 100,
    seed: int = 0,
) -> SaddleReport:
    """Audit a solution as an approximate saddle point, both sides exactly.

    Nature side: the cost of the Kalman controller at the worst case Z* is
    linear in the covariances with weights grad f(Z*) (the envelope
    identity), so it costs sum_i <grad f(Z*)_i, Z_i> on a profile Z.  On
    nature's oracle best response and on ``n_samples`` random feasible
    profiles it may not exceed f* by more than max(10 * tol, 1e-6 * scale),
    the slack implied by the convergence tolerance the run claims.  (A
    truncated run's best response exceeds that slack, which is what makes
    this a usable negative control.)

    Controller side: no causal policy may cost less than f* - 1e-9 * scale
    at Z*, as certified by ``drlqg.stacked._first_order_bound`` at the
    purified Kalman gain -- the best response is an exact minimizer, so
    only numerics may move it.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    rng = np.random.default_rng(seed)
    f_star = sol.f_value
    scale = max(1.0, abs(f_star))
    nature_slack = max(10.0 * sol.config.tol, 1e-6 * scale)
    controller_slack = 1e-9 * scale
    balls = amb.balls()

    nature_violations = []
    grads = grad_f(sys, sol.worst_case).flat()
    best_response = oracle_maximize_blocks(balls, grads, _blocks(sol.worst_case), delta=0.99)
    candidates = [("best-response", [r.maximizer for r in best_response])]
    for i in range(n_samples):
        candidates.append((f"sample-{i}", sample_feasible_blocks(balls, rng)))
    for label, blocks in candidates:
        cost = _price(grads, blocks)
        if cost > f_star + nature_slack:
            nature_violations.append((label, cost, cost - f_star - nature_slack))

    st = build_stacked(sys)
    upur = output_to_purified(unroll_kalman(sys, sol.worst_case), st)
    bound = _first_order_bound(st, upur.U, sol.worst_case)
    lowest = _price(grads, _blocks(sol.worst_case)) - bound  # J(U*) - bound
    controller_violations = []
    if lowest < f_star - controller_slack:
        controller_violations.append(("first-order", lowest, f_star - lowest))

    return SaddleReport(
        f_value=f_star,
        nature_slack=nature_slack,
        controller_slack=controller_slack,
        nature_violations=tuple(nature_violations),
        controller_violations=tuple(controller_violations),
        n_samples=n_samples,
    )
