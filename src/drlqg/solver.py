"""Frank-Wolfe solver for the worst-case noise model and its verifier.

The inner maximization  max f(X0, W, V)  over the product of floored
Gelbrich balls is concave, so a Frank-Wolfe scheme applies: at each iterate
compute the gradient blocks, solve the linearization over all 2T+1 balls
with one batched oracle call (one vectorized bisection per block shape, see
``drlqg.ambiguity``), sum the per-block surrogate gaps into g_k, stop once
g_k falls below the tolerance, and otherwise move from Z_k towards the
oracle's maximizers L_k along D_k = L_k - Z_k with a step alpha in [0, 1].
Blocks, balls and gradients follow ``CovarianceProfile.blocks``, and oracle
errors name a block by its ``lqg._block_labels`` label.  Iterates are convex
combinations of feasible blocks (so V_t stays PD) and of the oracle's bitwise
symmetric maximizers, used without re-validation or symmetry repair.  Each
point is evaluated once (``_evaluate``): one Kalman forward pass and one
adjoint sweep give its f, gradient blocks and Kalman solution.

Two step rules are available (``FWConfig.step``).  "open-loop" is the
paper's alpha_k = 2/(2+k).  "line" maximizes h(alpha) = f(Z_k + alpha D_k)
exactly: f is a minimum over controllers of functions linear in the
covariances, hence concave, so h'(alpha) = sum_i <grad f(Z_k + alpha D_k)_i,
D_i> is nonincreasing and h'(0) is the surrogate gap g_k.  The search tries
alpha = 1 first and keeps it when h'(1) >= 0; otherwise it runs an Illinois
regula falsi on h' over the bracket [0, 1] and accepts the first trial in
the two-sided window |h'(alpha)| <= 0.1 h'(0) with h(alpha) >= h(0), so a
trial just past the maximizer is as good as one just short of it; a trial
outside the window replaces the bracket end on its side of the root, and if
the trials run out the search takes the higher end of the last bracket.
Every trial is one evaluation, and the accepted trial is the next point.
By concavity h(alpha) >= h(0) wherever h'(alpha) >= 0; a point that lowers
f all the same (by roundoff) is refused, as is a search that ends on Z_k
itself, so f_k never decreases.  From Z_k every later iteration would
repeat this one, so the run ends there, not converged.  The surrogate-gap
certificate does not depend on the step rule.

The returned controller pairs the solve's Riccati gains with the Kalman
gains of the worst case's own evaluation; by the separation structure it
is a best response, which makes the pair a saddle point.

``saddle_check`` audits everything a claimed solution states, from one
Riccati and one Kalman sweep at its worst case.  The run's trace, flag and
final gap must agree, every worst-case block must lie in its ball, and the
claimed value and controller gains must equal the recomputed ones.  Both
sides of the saddle point are then checked with exact certificates: no
feasible noise profile (including an adversarially constructed best
response) may beat the claimed value by more than the convergence slack,
and a first-order bound shows that no causal controller does better
against the worst case.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .ambiguity import (
    AmbiguitySpec,
    _contains_blocks,
    _sample_feasible,
    oracle_maximize_blocks,
)
from .gradient import _grad_from_solutions
from .lqg import (
    CovarianceProfile,
    KalmanController,
    TimeVaryingSystem,
    _block_labels,
    _check_dims,
    _check_gains,
    _kalman_forward_raw,
    _value_from_solutions,
    kalman_forward,
    riccati_backward,
)
from .stacked import _first_order_bound, build_stacked, output_to_purified, unroll_controller


STEP_RULES = ("open-loop", "line")
# The line search accepts a trial alpha once |h'(alpha)| <= _LINE_CURVATURE
# * h'(0) and h(alpha) >= h(0), and gives up its bracket after
# _LINE_MAX_TRIALS trials.
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


def _price(grads: list[np.ndarray], blocks: list[np.ndarray]) -> float:
    """Cost of the fixed Kalman controller whose value has gradient ``grads``."""
    return sum(float(np.vdot(g, z)) for g, z in zip(grads, blocks))


def _evaluate(sys: TimeVaryingSystem, ric, blocks):
    """The point at ``blocks``: (blocks, f, gradient blocks, Kalman solution)."""
    kal = _kalman_forward_raw(sys, blocks)
    return blocks, _value_from_solutions(sys, ric, kal), _grad_from_solutions(sys, ric, kal), kal


def _move(refs, direction, alpha: float) -> list[np.ndarray]:
    return [z + alpha * d for z, d in zip(refs, direction)]


def _line_search(sys, ric, direction, base, slope0):
    """Maximize h(alpha) = f(Z + alpha D) on [0, 1]; see the module docstring.

    ``base`` is the point at Z (see ``_evaluate``) and ``slope0`` is h'(0),
    the surrogate gap.  Returns the point of the first trial in the
    acceptance window, else, once the trials run out, of the higher end of
    the last bracket (its left end has h' >= 0, so f >= f_k by concavity).
    Returns None, a refusal, when that end is Z itself or, by roundoff,
    lowers f all the same.
    """
    refs, f_k = base[:2]

    def trial(alpha):
        trial_point = _evaluate(sys, ric, _move(refs, direction, alpha))
        return trial_point, _price(trial_point[2], direction)

    point, slope = trial(1.0)
    if slope < 0.0:  # else h increases on all of [0, 1]
        left, lo, h_lo = None, 0.0, slope0  # None: the left end is Z
        right, hi, h_hi = point, 1.0, slope
        side = 0  # which end moved last: -1 lo, +1 hi
        for _ in range(_LINE_MAX_TRIALS - 1):
            alpha = (lo * h_hi - hi * h_lo) / (h_hi - h_lo)
            point, slope = trial(alpha)
            if abs(slope) <= _LINE_CURVATURE * slope0 and point[1] >= f_k:
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
        else:  # the trials ran out: take the higher end of the last bracket, left on a tie
            point = left if (f_k if left is None else left[1]) >= right[1] else right
    return point if point is not None and point[1] >= f_k else None


def solve(
    sys: TimeVaryingSystem,
    amb: AmbiguitySpec,
    config: FWConfig | None = None,
    on_iterate=None,
) -> RobustSolution:
    """Find the least-favorable noise profile and its optimal controller.

    Starts from the nominal profile.  When the gap tolerance is not reached
    within ``max_iter`` iterations, or the line search refuses its step, the
    iterate with the smallest recorded gap is returned, flagged
    ``converged=False``.  ``on_iterate(k, cov, gap)`` is invoked once per
    iteration (used by audits and tests).
    """
    cfg = config if config is not None else FWConfig()
    _check_dims(sys, amb.nominal)
    balls = amb.balls()
    labels = _block_labels(sys.T)
    ric = riccati_backward(sys)
    cov = amb.nominal
    point = _evaluate(sys, ric, cov.blocks)
    trace = []
    best = None  # (gap, cov, point)
    start = time.perf_counter()
    for k in range(cfg.max_iter):
        refs, f_k, grads, _ = point
        results = oracle_maximize_blocks(balls, grads, refs, delta=cfg.delta, labels=labels)
        gap = sum(r.gap_contribution for r in results)  # fixed block order
        trace.append(
            FWIteration(k=k, f_value=f_k, surrogate_gap=gap, wall_time=time.perf_counter() - start)
        )
        if on_iterate is not None:
            on_iterate(k, cov, gap)
        if best is None or gap < best[0]:
            best = (gap, cov, point)
        converged = gap <= cfg.tol
        if converged or k == cfg.max_iter - 1:  # no step that no iteration would record
            break
        direction = [r.maximizer - z for z, r in zip(refs, results)]
        if cfg.step == "line":
            point = _line_search(sys, ric, direction, point, gap)
            if point is None:  # stays put: every later iteration would repeat this one
                break
        else:
            point = _evaluate(sys, ric, _move(refs, direction, 2.0 / (2.0 + k)))
        cov = CovarianceProfile._trusted(point[0])
    final_gap, worst, (_, f_value, _, kal) = best
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

    ``claim_violations`` lists messages, first for a run record that does
    not hold together (see ``saddle_check``; a negative gap counts below
    ``-controller_slack``), then for what the recursions at the worst case
    do not confirm: a block outside its ball (tol 1e-7), a
    ``f_value`` off the recomputed value (1e-8 relative), or a gain K[t] or
    L[t] of ``controller`` off the recomputed Riccati or Kalman gain (1e-8
    absolute).  ``nature_violations`` lists (label, cost, excess) for
    feasible noise profiles that beat the claimed value by more than
    ``nature_slack``; ``controller_violations`` holds ("first-order", cost,
    shortfall) when the certified lower bound on a causal controller's cost
    at the worst case undercuts it, with a cost of -inf when the bound
    overflows.  ``n_samples`` counts the random nature samples.
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

    Claims: ``sol.trace`` holds n rows, 1 <= n <= ``sol.config.max_iter``,
    numbered k = 0..n-1, with no gap below -1e-9 * scale (scale = max(1,
    |f*|)); ``sol.converged`` equals ``sol.final_gap <= sol.config.tol``;
    ``(sol.final_gap, sol.f_value)`` are those of the trace's first
    minimum-gap row, as ``solve`` keeps them.  Every block of
    ``sol.worst_case`` lies in its ball, and ``sol.f_value`` and the gains
    of ``sol.controller`` equal the value and the gains the two recursions
    give at that worst case.

    Nature side: the cost of the Kalman controller at the worst case Z* is
    linear in the covariances with weights grad f(Z*) (the envelope
    identity), so it costs sum_i <grad f(Z*)_i, Z_i> on a profile Z.  On
    nature's oracle best response and on ``n_samples`` random feasible
    profiles, it may not exceed f* by more than max(10 * tol, 1e-6 * scale),
    the slack implied by the convergence tolerance the run claims.  (A
    truncated run's best response exceeds that slack, which makes this a
    usable negative control.)
    The samples are drawn, solved and built one group at a time, in one
    stack per block shape (``ambiguity._sample_feasible``), and each is
    priced before the next group is drawn; an oracle error in a sample names
    the block and the sample.

    Controller side: no causal policy may cost less than f* - 1e-9 * scale
    at Z*, as certified by ``drlqg.stacked._first_order_bound`` at the
    purified Kalman gain recomputed at Z* -- the best response is an exact
    minimizer, so only numerics may move it.  The bound's cheap stage-wise
    curvature is replaced by the exact one before a violation is reported.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    _check_dims(sys, amb.nominal)
    rng = np.random.default_rng(seed)
    f_star = sol.f_value
    scale = max(1.0, abs(f_star))
    nature_slack = max(10.0 * sol.config.tol, 1e-6 * scale)
    controller_slack = 1e-9 * scale
    balls = amb.balls()
    labels = _block_labels(sys.T)
    K, L = _check_gains(sys, sol.controller.K, sol.controller.L)
    ric = riccati_backward(sys)
    kal = kalman_forward(sys, sol.worst_case)
    worst = sol.worst_case.blocks

    claim_violations = []
    if not sol.trace:
        claim_violations.append("the trace holds no iterations")
    elif [rec.k for rec in sol.trace] != list(range(len(sol.trace))):
        claim_violations.append(f"trace rows are not numbered 0..{len(sol.trace) - 1}")
    if len(sol.trace) > sol.config.max_iter:
        claim_violations.append(f"{len(sol.trace)} trace rows exceed max_iter {sol.config.max_iter}")
    claim_violations.extend(
        f"negative surrogate gap {rec.surrogate_gap:.3e} at iter {rec.k}"
        for rec in sol.trace
        if rec.surrogate_gap < -controller_slack
    )
    if sol.converged != (sol.final_gap <= sol.config.tol):
        claim_violations.append(
            f"converged={sol.converged} disagrees with final gap "
            f"{sol.final_gap:.3e} against tol {sol.config.tol:.3e}"
        )
    if sol.trace:
        best = min(sol.trace, key=lambda rec: rec.surrogate_gap)  # the first, as solve keeps
        if (best.surrogate_gap, best.f_value) != (sol.final_gap, f_star):
            claim_violations.append(
                f"final gap and value do not match the minimum-gap trace row (iter {best.k})"
            )
    inside = _contains_blocks(balls, worst, 1e-7, sol.worst_case._lowest, labels)
    claim_violations.extend(
        f"worst-case block {label} is outside its ambiguity ball"
        for label, ok in zip(labels, inside)
        if not ok
    )
    f_check = _value_from_solutions(sys, ric, kal)
    if abs(f_check - f_star) > 1e-8 * max(1.0, abs(f_check)):
        claim_violations.append(
            f"claimed value {f_star:.12g} does not match recomputation {f_check:.12g}"
        )
    k_off = np.abs(np.stack(ric.K) - np.stack(K)).max(axis=(1, 2)) > 1e-8
    l_off = np.abs(np.stack(kal.L) - np.stack(L)).max(axis=(1, 2)) > 1e-8
    for t in range(sys.T):
        if k_off[t]:
            claim_violations.append(f"stored feedback gain K[{t}] does not match recomputation")
        if l_off[t]:
            claim_violations.append(f"stored filter gain L[{t}] does not match recomputation")

    nature_violations = []
    grads = _grad_from_solutions(sys, ric, kal)
    best_response = oracle_maximize_blocks(balls, grads, worst, delta=0.99, labels=labels)
    candidates = itertools.chain(
        [("best-response", [r.maximizer for r in best_response])],
        (
            (f"sample-{i}", b)
            for i, b in enumerate(_sample_feasible(balls, rng, n_samples, labels=labels))
        ),
    )
    for label, blocks in candidates:
        cost = _price(grads, blocks)
        if cost > f_star + nature_slack:
            nature_violations.append((label, cost, cost - f_star - nature_slack))

    st = build_stacked(sys)
    upur = output_to_purified(unroll_controller(sys, KalmanController(K=ric.K, L=kal.L)), st)
    # J(U*) = sum_i <grad f(Z*)_i, Z*_i> = f(Z*) by Euler's identity, since f
    # is positively homogeneous of degree 1 in the covariances
    lowest = f_check - _first_order_bound(st, upur.U, sol.worst_case)
    if lowest < f_star - controller_slack:  # only the exact curvature may fail a solution
        lowest = f_check - _first_order_bound(st, upur.U, sol.worst_case, exact=True)
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
