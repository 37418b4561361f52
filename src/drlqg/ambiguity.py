"""Gelbrich ambiguity sets and the linear-maximization oracle over them.

The Gelbrich distance between PSD matrices is

    G(S1, S2) = sqrt( tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}) ),

the 2-Wasserstein distance between the centered Gaussians they define.  An
ambiguity ball around a nominal Zhat keeps, in addition, every member above
the spectral floor lambda_min(Zhat) I; the floor never cuts off a maximizer
because the objective gradients handed to the oracle are PSD.

``oracle_maximize_blocks`` solves  max <Gamma, L - Z>  over each floored
ball to a relative accuracy ``delta`` by bisection on the scalar dual
variable gamma.  For gamma > lambda_max(Gamma) the candidate

    L(gamma) = M Zhat M,   M = gamma (gamma I - Gamma)^{-1},

has squared distance psi(gamma) = <Zhat, Gamma^2 (gamma I - Gamma)^{-2}>
from the center, the dual function is

    phi(gamma) = gamma (rho^2 + <gamma (gamma I - Gamma)^{-1} - I, Zhat>) - <Z, Gamma>,

and phi'(gamma) = rho^2 - psi(gamma), so the sign of the analytic derivative
tells simultaneously which way to move and whether L(gamma) is feasible.
With Gamma = P diag(lam) P' and zhat_i the diagonal of P' Zhat P, all three
quantities are O(d) sums in that eigenbasis; in particular the candidate's
gap is  <Gamma, L(gamma)> - <Gamma, Z> = sum_i lam_i s_i^2 zhat_i - <Gamma, Z>
with s_i = gamma / (gamma - lam_i), so no candidate matrix is formed while
bisecting.  The loop accepts once phi'(gamma) > 0 and the gap is at least
delta * phi(gamma) (weak duality makes phi an upper bound on the primal
maximum); if the bracket collapses to its common limit first -- which
happens immediately in the scalar case, where both bracket ends coincide
with the exact dual solution -- the right endpoint is accepted, staying on
the feasible side.  The maximizer M Zhat M is built once, at the accepted
gamma.

All blocks of one shape are solved together: one batched eigendecomposition
of the stacked gradients, then one lockstep bisection over all of them in
which every block keeps its own bracket, and a block's bracket freezes once
it meets its exit test, so each block accepts the gamma a separate call
would.  ``oracle_maximize`` is the single-block call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PSD_CLAMP_REL, NotPSDError, min_eigval, psd_eig, psd_sqrt, symmetrize
from .lqg import CovarianceProfile, _frozen

_MAX_BISECT = 200


class OracleError(RuntimeError):
    """Bisection failed to terminate within the iteration cap."""


def gelbrich_distance(s1, s2) -> float:
    """Gelbrich distance between two PSD matrices."""
    s1 = symmetrize(s1)
    s2 = symmetrize(s2)
    if np.array_equal(s1, s2):
        # the trace expression cancels catastrophically near coincidence;
        # the exact case is known
        psd_eig(s1)
        return 0.0
    root2 = psd_sqrt(s2)
    cross = psd_sqrt(root2 @ s1 @ root2)
    arg = float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return math.sqrt(max(arg, 0.0))


@dataclass(frozen=True)
class GelbrichBall:
    """Floored Gelbrich ball {Z : G(Z, center) <= radius, Z >= floor * I}.

    The floor is the smallest eigenvalue of the center; it is computed on
    construction and is not an argument.  The oracle's optimality guarantee
    assumes a PD center.
    """

    center: np.ndarray
    radius: float
    floor: float = field(init=False)

    def __post_init__(self):
        center = symmetrize(self.center)
        psd_eig(center)  # raises if genuinely indefinite
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")
        object.__setattr__(self, "center", _frozen(center))
        object.__setattr__(self, "floor", min_eigval(center))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, z, tol: float = 1e-9) -> bool:
        z = symmetrize(z)
        if min_eigval(z) < self.floor - tol:
            return False
        return gelbrich_distance(z, self.center) <= self.radius + tol


@dataclass(frozen=True)
class AmbiguitySpec:
    """Per-block balls around a nominal noise model.

    Radii follow the block order X0, W_0..W_{T-1}, V_0..V_{T-1} and must be
    finite and nonnegative; the nominal observation covariances must be PD so
    the filter stays well posed on the whole feasible set.
    """

    nominal: CovarianceProfile
    rho_x0: float
    rho_w: tuple
    rho_v: tuple

    def __post_init__(self):
        rho_w = tuple(float(r) for r in self.rho_w)
        rho_v = tuple(float(r) for r in self.rho_v)
        if len(rho_w) != self.nominal.T or len(rho_v) != self.nominal.T:
            raise ValueError("per-stage radius counts must match the horizon")
        for name, r in [("rho_x0", self.rho_x0)] + [
            (f"rho_w[{t}]", r) for t, r in enumerate(rho_w)
        ] + [(f"rho_v[{t}]", r) for t, r in enumerate(rho_v)]:
            if not (r >= 0.0 and math.isfinite(r)):
                raise ValueError(f"{name} must be finite and nonnegative, got {r}")
        for t, v in enumerate(self.nominal.V):
            if min_eigval(v) <= 0.0:
                raise ValueError(f"nominal V[{t}] must be positive definite")
        object.__setattr__(self, "rho_x0", float(self.rho_x0))
        object.__setattr__(self, "rho_w", rho_w)
        object.__setattr__(self, "rho_v", rho_v)

    def balls(self) -> tuple[GelbrichBall, ...]:
        """Balls in the fixed block order X0, W_0.., V_0.."""
        out = [GelbrichBall(center=self.nominal.X0, radius=self.rho_x0)]
        out += [
            GelbrichBall(center=w, radius=r) for w, r in zip(self.nominal.W, self.rho_w)
        ]
        out += [
            GelbrichBall(center=v, radius=r) for v, r in zip(self.nominal.V, self.rho_v)
        ]
        return tuple(out)


@dataclass(frozen=True)
class OracleResult:
    maximizer: np.ndarray
    gamma: float
    gap_contribution: float
    iterations: int


def _symmetrize_stack(a: np.ndarray) -> np.ndarray:
    """``symmetrize`` for each matrix of a (B,d,d) stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _diag_in_basis(vec: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Diagonals of vec' M vec for stacks (B,d,d): the M's in each eigenbasis."""
    return np.sum(vec * (m @ vec), axis=-2)


def _oracle_stack(centers, radii, gradients, references, delta, labels):
    """Batched bisection over a (B,d,d) stack of same-shape blocks.

    Returns (maximizers, gammas, gaps, iterations) as arrays over B; see
    ``oracle_maximize_blocks`` for the contract.  The blocks bisect in
    lockstep over full-length arrays: an ``active`` mask marks the blocks
    still bisecting, and a block that meets an exit test leaves the mask,
    keeping its accepted gamma, its iteration count and a frozen bracket.
    The dual, its derivative and the primal gap are O(d) per block in the
    gradient's eigenbasis, and the maximizers are built once, after the loop.
    """
    B = len(radii)
    maximizers = _symmetrize_stack(np.asarray(references, dtype=float))
    gammas = np.full(B, math.nan)
    gaps = np.zeros(B)
    iterations = np.zeros(B, dtype=int)
    flat = radii == 0.0
    maximizers[flat] = centers[flat]
    live = np.flatnonzero(~flat)
    if live.size == 0:
        return maximizers, gammas, gaps, iterations

    grads = _symmetrize_stack(np.asarray(gradients, dtype=float)[live])
    for j in np.flatnonzero(~np.all(np.isfinite(grads), axis=(1, 2))):
        raise ValueError(f"gradient block {labels[live[j]]} contains non-finite entries")
    lam, vec = np.linalg.eigh(grads)  # ascending eigenvalues
    floor = -PSD_CLAMP_REL * np.linalg.norm(grads, axis=(1, 2))
    for j in np.flatnonzero(lam[:, 0] < floor):
        raise NotPSDError(
            f"gradient block {labels[live[j]]}: minimum eigenvalue {lam[j, 0]:.6e} "
            f"is below the PSD tolerance {floor[j]:.6e}"
        )
    lam = np.clip(lam, 0.0, None)
    keep = lam[:, -1] > 0.0  # a zero gradient keeps the reference, gap 0
    live, lam, vec = live[keep], lam[keep], vec[keep]
    if live.size == 0:
        return maximizers, gammas, gaps, iterations

    zhat = centers[live]
    rho = radii[live]
    zdiag = _diag_in_basis(vec, zhat)
    ref_ip = np.sum(lam * _diag_in_basis(vec, maximizers[live]), axis=1)
    lamz = lam * zdiag
    lam1 = lam[:, -1]
    # zdiag[:, -1] is p1' Zhat p1 for the top eigenvector p1
    lo = lam1 * (1.0 + np.sqrt(np.maximum(zdiag[:, -1], 0.0)) / rho)
    hi = lam1 * (1.0 + np.sqrt(np.maximum(np.trace(zhat, axis1=1, axis2=2), 0.0)) / rho)

    gamma = np.empty(live.size)
    iters = np.zeros(live.size, dtype=int)
    collapsed = np.zeros(live.size, dtype=bool)
    active = np.ones(live.size, dtype=bool)
    lamz2, rho2 = lamz * lam, rho**2
    for it in range(1, _MAX_BISECT + 1):
        # Bracket exhausted: hi stays on the feasible side (phi' >= 0), and
        # in the scalar case the initial bracket is already the root.
        out = active & (hi - lo <= 1e-12 * np.maximum(1.0, hi))
        gamma[out], iters[out], collapsed[out] = hi[out], it, True
        active &= ~out
        if not active.any():
            break
        g = 0.5 * (lo + hi)
        inv = 1.0 / (g[:, None] - lam)
        inv2 = inv * inv
        # phi(g) = g (rho^2 + sum_i lam_i z_i / (g - lam_i)) - <Gamma, Z>,
        # phi'(g) = rho^2 - psi(g), and the gap of L(g) is
        # g^2 sum_i lam_i z_i / (g - lam_i)^2 - <Gamma, Z>.
        phi = g * (rho2 + np.add.reduce(lamz * inv, axis=1)) - ref_ip
        dphi = rho2 - np.add.reduce(lamz2 * inv2, axis=1)
        gap = g * g * np.add.reduce(lamz * inv2, axis=1) - ref_ip
        feasible = dphi > 0.0
        out = active & feasible & (gap >= delta * phi)
        gamma[out], iters[out] = g[out], it
        active &= ~out
        if not active.any():
            break
        lo = np.where(active & ~feasible, g, lo)
        hi = np.where(active & feasible, g, hi)
    else:
        j = np.flatnonzero(active)[0]
        raise OracleError(
            f"gradient block {labels[live[j]]}: bisection did not meet the exit test "
            f"in {_MAX_BISECT} iterations; final bracket [{lo[j]:.17g}, {hi[j]:.17g}]"
        )

    # One build per block, at its accepted gamma: L = M Zhat M with
    # M = gamma (gamma I - Gamma)^{-1}.
    inv = 1.0 / (gamma[:, None] - lam)
    gap = gamma * gamma * np.add.reduce(lamz * inv * inv, axis=1) - ref_ip
    mult = (vec * (gamma[:, None] * inv)[:, None, :]) @ vec.swapaxes(-1, -2)
    cand = mult @ zhat @ mult
    # a collapsed bracket whose candidate loses to the reference keeps the reference
    won = ~(collapsed & (gap < 0.0))
    maximizers[live[won]] = _symmetrize_stack(cand[won])
    gaps[live[won]] = gap[won]
    gammas[live], iterations[live] = gamma, iters
    return maximizers, gammas, gaps, iterations


def oracle_maximize_blocks(
    balls, gradients, references, delta: float = 0.95
) -> list[OracleResult]:
    """delta-approximate maximizers of <gradient, L - reference>, one per ball.

    The blocks are solved together: one batched bisection per block shape,
    with a per-block active mask, so every block accepts the same gamma a
    separate call would.  Each ``gradient`` must be symmetric and PSD up to
    roundoff (tiny negative eigenvalues are clamped; genuinely indefinite or
    non-finite input raises, naming the block's index in ``balls``).  Every
    returned ``gap_contribution`` is at least ``delta`` times the block's
    true maximum and never meaningfully negative.  Degenerate blocks
    short-circuit with zero gap and NaN gamma: a zero radius returns the
    center and a zero (clamped) gradient returns the reference.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    groups: dict[int, list[int]] = {}
    for i, ball in enumerate(balls):
        groups.setdefault(ball.dim, []).append(i)
    out = [None] * len(balls)
    for idx in groups.values():
        maximizers, gammas, gaps, iterations = _oracle_stack(
            np.stack([balls[i].center for i in idx]),
            np.array([float(balls[i].radius) for i in idx]),
            np.stack([gradients[i] for i in idx]),
            np.stack([references[i] for i in idx]),
            delta,
            idx,
        )
        for j, i in enumerate(idx):
            out[i] = OracleResult(
                maximizer=maximizers[j],
                gamma=float(gammas[j]),
                gap_contribution=float(gaps[j]),
                iterations=int(iterations[j]),
            )
    return out


def oracle_maximize(
    ball: GelbrichBall, gradient, reference, delta: float = 0.95
) -> OracleResult:
    """``oracle_maximize_blocks`` for a single block."""
    return oracle_maximize_blocks((ball,), (gradient,), (reference,), delta)[0]


def sample_feasible_blocks(balls, rng: np.random.Generator) -> list[np.ndarray]:
    """Draw a random feasible member of each ball.

    For each ball in order, draws the normals of a random PSD direction and
    then a uniform u; the sample is the point a fraction u of the way from
    the center to the oracle maximizer along that direction, which is
    feasible by convexity of the floored ball.  Zero-radius balls return
    their center and draw nothing.  The draws come in the order that one
    ``sample_feasible`` call per ball would make, and the oracle draws
    nothing, so a seed yields the same samples either way.
    """
    moving, directions, weights = [], [], []
    for i, ball in enumerate(balls):
        if ball.radius == 0.0:
            continue
        a = rng.standard_normal((ball.dim, ball.dim))
        moving.append(i)
        directions.append(symmetrize(a @ a.T))
        weights.append(rng.uniform())
    out = [ball.center.copy() for ball in balls]
    chosen = [balls[i] for i in moving]
    extremes = oracle_maximize_blocks(
        chosen, directions, [b.center for b in chosen], delta=0.9
    )
    for i, ball, res, u in zip(moving, chosen, extremes, weights):
        out[i] = symmetrize(ball.center + u * (res.maximizer - ball.center))
    return out


def sample_feasible(ball: GelbrichBall, rng: np.random.Generator) -> np.ndarray:
    """``sample_feasible_blocks`` for a single ball."""
    return sample_feasible_blocks((ball,), rng)[0]
