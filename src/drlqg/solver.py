"""Frank-Wolfe solver for the worst-case noise model and its verifier.

The inner maximization  max f(X0, W, V)  over the product of floored
Gelbrich balls is concave, so a Frank-Wolfe scheme applies: at each iterate
compute the gradient blocks, solve the linearization over all 2T+1 balls
with one batched oracle call (one vectorized bisection per block shape, see
``drlqg.ambiguity``), sum the per-block surrogate gaps into g_k in the fixed
block order X0, W_0.., V_0.., stop once g_k falls below the tolerance, and
otherwise move from Z_k towards the oracle's maximizers L_k along
D_k = L_k - Z_k with a step alpha in [0, 1].  Iterates are convex
combinations of feasible blocks (so V_t stays PD), and are used without
re-validation.

Two step rules are available (``FWConfig.step``).  "open-loop" is the
paper's alpha_k = 2/(2+k).  "line" maximizes h(alpha) = f(Z_k + alpha D_k)
exactly: f is a minimum over controllers of functions linear in the
covariances, hence concave, so h'(alpha) = sum_i <grad f(Z_k + alpha D_k)_i,
D_i> is nonincreasing and h'(0) is the surrogate gap g_k.  The search tries
alpha = 1 first and keeps it when h'(1) >= 0; otherwise it runs an Illinois
regula falsi on h' over the bracket [0, 1] and accepts the first trial with
0 <= h'(alpha) <= 0.1 h'(0); if the trials run out it takes the higher end
of the last bracket.  Every trial costs one Kalman forward pass and one adjoint
sweep, and the accepted trial's value and gradient are those of the next
iterate, so they are not computed twice.  By concavity h(alpha) >= h(0)
wherever h'(alpha) >= 0; a point that lowers f all the same (by roundoff)
is refused and the iterate stays put (the solve then repeats that
iteration until the cap), so f_k never decreases.  The surrogate-gap
certificate does not depend on the step rule.

The returned controller pairs the solve's Riccati gains with the Kalman
gains of the worst-case profile; by the separation structure it is a best
response, which makes the pair a saddle point.

``saddle_check`` audits everything a claimed solution states, from one
Riccati and one Kalman sweep at its worst case.  Every worst-case block must
lie in its ball, and the claimed value and controller gains must equal the
recomputed ones.  Both sides of the saddle point are then checked with exact
certificates: no feasible noise profile (including an adversarially
constructed best response) may beat the claimed value by more than the
convergence slack, and a first-order bound shows that no causal controller
does better against the worst case.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySpec, _sample_feasible, oracle_maximize_blocks
from .gradient import grad_f, _grad_from_solutions
from .lqg import (
    CovarianceProfile,
    KalmanController,
    TimeVaryingSystem,
    _check_gains,
    _kalman_forward_raw,
    _value_from_solutions,
    kalman_forward,
    riccati_backward,
)
from .linalg import symmetrize
from .stacked import _first_order_bound, build_stacked, output_to_purified, unroll_controller


STEP_RULES = ("open-loop", "line")
# The line search accepts a trial alpha once 0 <= h'(alpha) <= _LINE_CURVATURE
# * h'(0), and gives up its bracket after _LINE_MAX_TRIALS trials.
_LINE_CURVATURE = 0.1
_LINE_MAX_TRIALS = 20


@dataclass(frozen=True)
class FWConfig:
    """Solver knobs.

    ``tol`` is an absolute threshold on the summed surrogate gap and
    ``delta`` the per-block oracle accuracy.  ``step`` is the step rule:
    "open-loop" (the paper's 2/(2+k), the default) or "line" (an exact line
    search along the Frank-Wolfe direction, which needs far fewer
    iterations; see the module docstring).
    """

    delta: float = 0.95
    tol: float = 1e-3
    max_iter: int = 1000
    step: str = "open-loop"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.step not in STEP_RULES:
            raise ValueError(f"step must be one of {', '.join(STEP_RULES)}, got {self.step!r}")


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


def _price(grads: list[np.ndarray], blocks: list[np.ndarray]) -> float:
    """Cost of the fixed Kalman controller whose value has gradient ``grads``."""
    return sum(float(np.vdot(g, z)) for g, z in zip(grads, blocks))


def _evaluate(sys: TimeVaryingSystem, ric, blocks: list[np.ndarray]):
    """(f, gradient blocks) at the profile with blocks X0, W_0.., V_0.."""
    T = sys.T
    X0, W, V = blocks[0], blocks[1 : 1 + T], blocks[1 + T :]
    kal = _kalman_forward_raw(sys, X0, W, V)
    return _value_from_solutions(sys, ric, kal, X0), _grad_from_solutions(sys, ric, kal).flat()


def _move(refs: list[np.ndarray], direction: list[np.ndarray], alpha: float) -> list[np.ndarray]:
    return [symmetrize(z + alpha * d) for z, d in zip(refs, direction)]


def _line_search(sys, ric, direction, current, slope0):
    """Maximize h(alpha) = f(Z + alpha D) on [0, 1]; see the module docstring.

    ``current`` is (blocks, f, grads) at Z and ``slope0`` is h'(0), the
    surrogate gap.  Returns (blocks, f, grads) of the first trial in the
    acceptance window, else, once the trials run out, of the higher end of
    the last bracket (its left end has h' >= 0, so f >= f_k by concavity).
    A point that lowers f all the same, by roundoff, is refused and
    ``current`` is returned.
    """
    refs, f_k, _ = current

    def trial(alpha):
        blocks = _move(refs, direction, alpha)
        f, grads = _evaluate(sys, ric, blocks)
        return (blocks, f, grads), _price(grads, direction)

    point, slope = trial(1.0)
    if slope < 0.0:  # else h increases on all of [0, 1]
        left, lo, h_lo = current, 0.0, slope0
        right, hi, h_hi = point, 1.0, slope
        side = 0  # which end moved last: -1 lo, +1 hi
        for _ in range(_LINE_MAX_TRIALS - 1):
            alpha = (lo * h_hi - hi * h_lo) / (h_hi - h_lo)
            point, slope = trial(alpha)
            if 0.0 <= slope <= _LINE_CURVATURE * slope0:
                break
            if slope > 0.0:
                left, lo, h_lo = point, alpha, slope
                if side == -1:
                    h_hi *= 0.5  # Illinois: damp the end that stayed put
                side = -1
            else:
                right, hi, h_hi = point, alpha, slope
                if side == 1:
                    h_lo *= 0.5
                side = 1
        else:  # the trials ran out: take the higher end of the last bracket
            point = max(left, right, key=lambda end: end[1])
    return point if point[1] >= f_k else current


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
    evaluated = None  # (f, grads) at cov when the line search produced them
    trace = []
    best = None  # (gap, f, cov)
    converged = False
    start = time.perf_counter()
    for k in range(cfg.max_iter):
        refs = _blocks(cov)
        f_k, grads = evaluated if evaluated is not None else _evaluate(sys, ric, refs)
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
        direction = [r.maximizer - z for z, r in zip(refs, results)]
        if cfg.step == "line":
            stepped, f_next, grads_next = _line_search(
                sys, ric, direction, (refs, f_k, grads), gap
            )
            evaluated = (f_next, grads_next)
        else:
            stepped = _move(refs, direction, 2.0 / (2.0 + k))
        cov = CovarianceProfile._trusted(stepped, sys.T)
    final_gap, f_value, worst = best
    kal = _kalman_forward_raw(sys, worst.X0, worst.W, worst.V)
    return RobustSolution(
        worst_case=worst,
        controller=KalmanController(K=ric.K, L=kal.L),
        trace=tuple(trace),
        final_gap=final_gap,
        f_value=f_value,
        converged=converged,
        config=cfg,
    )


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of the saddle audit of everything a ``RobustSolution`` claims.

    ``claim_violations`` lists messages for what the recursions at the
    worst case do not confirm: a block outside its ball (tol 1e-7), a
    ``f_value`` off the recomputed value (1e-8 relative), or a gain K[t] or
    L[t] of ``controller`` off the recomputed Riccati or Kalman gain (1e-8
    absolute).  ``nature_violations`` lists (label, cost, excess) for
    feasible noise profiles that beat the claimed value by more than
    ``nature_slack``; ``controller_violations`` holds ("first-order", cost,
    shortfall) when the certified lower bound on a causal controller's cost
    at the worst case undercuts it.  ``n_samples`` counts the random nature
    samples.
    """

    f_value: float
    nature_slack: float
    controller_slack: float
    claim_violations: tuple
    nature_violations: tuple
    controller_violations: tuple
    n_samples: int

    @property
    def passed(self) -> bool:
        return not (self.claim_violations or self.nature_violations or self.controller_violations)


def saddle_check(
    sys: TimeVaryingSystem,
    amb: AmbiguitySpec,
    sol: RobustSolution,
    n_samples: int = 100,
    seed: int = 0,
) -> SaddleReport:
    """Audit a solution's claims and its saddle point, from one Riccati and one Kalman sweep.

    Claims: every block of ``sol.worst_case`` lies in its ball, and
    ``sol.f_value`` and the gains of ``sol.controller`` equal the value and
    the gains the two recursions give at that worst case.

    Nature side: the cost of the Kalman controller at the worst case Z* is
    linear in the covariances with weights grad f(Z*) (the envelope
    identity), so it costs sum_i <grad f(Z*)_i, Z_i> on a profile Z.  On
    nature's oracle best response and on ``n_samples`` random feasible
    profiles, priced as they are drawn, one group at a time, it may not
    exceed f* by more than max(10 * tol, 1e-6 * scale), the slack implied by
    the convergence tolerance the run claims.  (A truncated run's best
    response exceeds that slack, which makes this a usable negative control.)

    Controller side: no causal policy may cost less than f* - 1e-9 * scale
    at Z*, as certified by ``drlqg.stacked._first_order_bound`` at the
    purified Kalman gain recomputed at Z* -- the best response is an exact
    minimizer, so only numerics may move it.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    rng = np.random.default_rng(seed)
    f_star = sol.f_value
    scale = max(1.0, abs(f_star))
    nature_slack = max(10.0 * sol.config.tol, 1e-6 * scale)
    controller_slack = 1e-9 * scale
    balls = amb.balls()
    worst = _blocks(sol.worst_case)
    K, L = _check_gains(sys, sol.controller.K, sol.controller.L)

    names = ["X0", *(f"W[{t}]" for t in range(sys.T)), *(f"V[{t}]" for t in range(sys.T))]
    claim_violations = [
        f"worst-case block {name} is outside its ambiguity ball"
        for name, ball, block in zip(names, balls, worst)
        if not ball.contains(block, tol=1e-7)
    ]
    ric = riccati_backward(sys)
    kal = kalman_forward(sys, sol.worst_case)
    f_check = _value_from_solutions(sys, ric, kal, sol.worst_case.X0)
    if abs(f_check - f_star) > 1e-8 * max(1.0, abs(f_check)):
        claim_violations.append(
            f"claimed value {f_star:.12g} does not match recomputation {f_check:.12g}"
        )
    for t in range(sys.T):
        if np.max(np.abs(ric.K[t] - K[t])) > 1e-8:
            claim_violations.append(f"stored feedback gain K[{t}] does not match recomputation")
        if np.max(np.abs(kal.L[t] - L[t])) > 1e-8:
            claim_violations.append(f"stored filter gain L[{t}] does not match recomputation")

    nature_violations = []
    grads = grad_f(sys, sol.worst_case, riccati=ric, kalman=kal).flat()
    best_response = oracle_maximize_blocks(balls, grads, worst, delta=0.99)
    candidates = itertools.chain(
        [("best-response", [r.maximizer for r in best_response])],
        ((f"sample-{i}", b) for i, b in enumerate(_sample_feasible(balls, rng, n_samples))),
    )
    for label, blocks in candidates:
        cost = _price(grads, blocks)
        if cost > f_star + nature_slack:
            nature_violations.append((label, cost, cost - f_star - nature_slack))

    st = build_stacked(sys)
    upur = output_to_purified(unroll_controller(sys, KalmanController(K=ric.K, L=kal.L)), st)
    bound = _first_order_bound(st, upur.U, sol.worst_case)
    lowest = _price(grads, worst) - bound  # J(U*) - bound
    controller_violations = []
    if lowest < f_star - controller_slack:
        controller_violations.append(("first-order", lowest, f_star - lowest))

    return SaddleReport(
        f_value=f_star,
        nature_slack=nature_slack,
        controller_slack=controller_slack,
        claim_violations=tuple(claim_violations),
        nature_violations=tuple(nature_violations),
        controller_violations=tuple(controller_violations),
        n_samples=n_samples,
    )
