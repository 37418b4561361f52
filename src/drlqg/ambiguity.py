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

Three kinds of block take a closed form instead of bisecting: a zero radius
keeps the center, a zero gradient keeps the reference, and a zero center
gives s s' with s = rho p1.  A fourth is the isotropic gradient Gamma = c I
of a block with d >= 2 (the last stage's process noise, whose gradient is
Q_T): psi(gamma) = c^2 tr(Zhat) / (gamma - c)^2 has its root exactly at the
bracket's upper end, so the bisection could only end by collapsing there,
and gamma is taken at that end with no bisection, under the collapsed
bracket's rules.  Every branch returns a bitwise-symmetric maximizer, so
their convex combinations with the symmetric centers, Frank-Wolfe iterates
and nature samples, need no symmetry repair.

All blocks of one shape are solved together: one batched eigendecomposition
of the stacked gradients, then one lockstep bisection over all of them in
which every block keeps its own bracket, and a block's bracket freezes once
it meets its exit test, so each block accepts the gamma a separate call
would.  ``oracle_maximize_blocks`` packs the results of that per-shape
path, ``_oracle_stack``, and ``oracle_maximize`` is its single-block call.
The random feasible profiles of ``_sample_feasible`` take the same path
with their directions drawn into per-shape stacks.

Membership is batched the same way: ``_gelbrich_stack`` tests a stack of
same-shape blocks against their floors and takes their distances with one
eigensolve of the centers and one of the cross terms, ``_contains_blocks``
calls it once per block shape, and ``GelbrichBall.contains`` and
``gelbrich_distance`` are its one-block calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import min_eigval, symmetrize
from .linalg import _checked_eig, _symmetrized
from .lqg import CovarianceProfile, _block_labels, _frozen

_MAX_BISECT = 200


class OracleError(ValueError):
    """Bisection failed to terminate within the iteration cap.

    A block whose bracket the bisection cannot close within ``_MAX_BISECT``
    halvings is input out of the range double precision resolves, the fault
    ``_unresolved`` reports for the same block; so it is a ``ValueError``.
    """


def gelbrich_distance(s1, s2) -> float:
    """Gelbrich distance between two PSD matrices: ``_gelbrich_stack`` of one block."""
    _check_shapes("block", (s1,), (np.shape(s2),))
    return float(_gelbrich_stack(np.asarray(s1, dtype=float)[None], symmetrize(s2)[None])[0])


def _check_shapes(kind: str, blocks, shapes, labels=None):
    """Name the first block whose shape is not ``shapes[i]`` by ``labels[i]``, else by i."""
    for i, (block, shape) in enumerate(zip(blocks, shapes)):
        if (got := np.shape(block)) != shape:
            label = i if labels is None else labels[i]
            raise ValueError(f"{kind} {label}: shape {got} does not match its center's {shape}")


def _gelbrich_stack(blocks, centers, floors=None, lowest=None, name=lambda j: None):
    """Gelbrich distance of each block of a (B,d,d) stack from its center.

    ``centers`` is a (B,d,d) stack of symmetric matrices.  The blocks are
    symmetrized once and must be finite, else ``ValueError`` "matrix contains
    non-finite entries" (LAPACK can report finite eigenvalues for a NaN on
    the diagonal).  With ``floors``, a block whose smallest eigenvalue lies
    below its floor gets distance inf and is solved no further: the floor
    test of a membership.  That eigenvalue is ``lowest[j]`` where it is not
    NaN (a validated profile's, from its PSD check), and one stacked
    ``eigvalsh`` gives the others.  A block bitwise equal to its center lies
    at distance 0 exactly, since the trace expression cancels
    catastrophically near coincidence.  One stacked ``eigh`` of the centers
    gives their roots R, and one stacked ``eigvalsh`` of the cross terms
    R Z R gives tr (R Z R)^{1/2} as the sum of the roots of its eigenvalues;
    both pass ``_checked_eig``'s PSD rule (the centers all of them, so a
    coinciding block is checked too), whose errors name block j as
    ``name(j)``.
    """
    z = symmetrize(blocks)
    if not np.isfinite(z).all():
        raise ValueError("matrix contains non-finite entries")
    dist = np.full(len(z), np.inf)
    kept = np.arange(len(z))
    if floors is not None:
        low = np.array(lowest, dtype=float)
        unknown = np.isnan(low)
        if unknown.any():
            low[unknown] = np.linalg.eigvalsh(z[unknown])[:, 0]
        kept = np.flatnonzero(~(low < floors))
    if kept.size == 0:
        return dist
    w, v = _checked_eig(centers[kept], np.linalg.eigh, lambda j: name(kept[j]))
    same = (z[kept] == centers[kept]).all(axis=(1, 2))
    dist[kept[same]] = 0.0
    live, w, v = kept[~same], w[~same], v[~same]
    if live.size == 0:
        return dist
    roots = _symmetrized((v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.swapaxes(-1, -2))
    cross = _checked_eig(
        _symmetrized(roots @ z[live] @ roots), np.linalg.eigvalsh, lambda j: name(live[j])
    )
    arg = (
        np.trace(z[live], axis1=1, axis2=2)
        + np.trace(centers[live], axis1=1, axis2=2)
        - 2.0 * np.sqrt(np.clip(cross, 0.0, None)).sum(axis=1)
    )
    dist[live] = np.sqrt(np.maximum(arg, 0.0))
    return dist


def _contains_blocks(balls, blocks, tol: float, lowest, labels=None) -> list[bool]:
    """Whether each block lies in its ball, within ``tol``: one
    ``_gelbrich_stack`` call per block shape.

    ``lowest[i]`` is block i's smallest eigenvalue, or None where it is not
    known (see ``CovarianceProfile._lowest``).  A block is out when that
    eigenvalue is below the ball's floor less ``tol``, and otherwise when
    its distance from the center exceeds the radius plus ``tol``.  Shape
    and PSD errors name block i by ``labels[i]``; without labels a shape
    error names it by i.
    """
    _check_shapes("block", blocks, [ball.center.shape for ball in balls], labels)
    labels = (None,) * len(balls) if labels is None else labels
    out = [None] * len(balls)
    for idx in _by_shape(balls).values():
        dist = _gelbrich_stack(
            np.stack([blocks[i] for i in idx]),
            np.stack([balls[i].center for i in idx]),
            np.array([balls[i].floor for i in idx]) - tol,
            [math.nan if lowest[i] is None else lowest[i] for i in idx],
            lambda j: labels[idx[j]],
        )
        for j, i in enumerate(idx):
            out[i] = bool(dist[j] <= balls[i].radius + tol)
    return out


def _by_shape(balls) -> dict[int, list[int]]:
    """Indices of ``balls`` grouped by block dimension, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, ball in enumerate(balls):
        groups.setdefault(ball.dim, []).append(i)
    return groups


@dataclass(frozen=True)
class GelbrichBall:
    """Floored Gelbrich ball {Z : G(Z, center) <= radius, Z >= floor * I}.

    The floor, the smallest eigenvalue of the center, is computed once on
    construction, where the center also passes ``psd_eig``'s PSD rule; it is
    not an argument.  An ``AmbiguitySpec`` builds every ball with
    ``_of_block`` instead, from its nominal profile's blocks.
    The oracle's optimality guarantee assumes a PD center or a zero one.
    """

    center: np.ndarray
    radius: float
    floor: float = field(init=False)

    def __post_init__(self):
        center = symmetrize(self.center)
        floor = float(_checked_eig(center, np.linalg.eigvalsh)[0])
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")
        object.__setattr__(self, "center", _frozen(center))
        object.__setattr__(self, "floor", floor)

    @classmethod
    def _of_block(cls, center: np.ndarray, radius: float, floor: float) -> "GelbrichBall":
        """The ball around a ``CovarianceProfile`` block, frozen, bitwise
        symmetric and PSD, whose smallest eigenvalue is ``floor``, with a
        radius the caller has checked.  Public construction would eigensolve
        the same array to the same floor; here it is not solved again.
        """
        out = object.__new__(cls)
        for name, value in (("center", center), ("radius", radius), ("floor", floor)):
            object.__setattr__(out, name, value)
        return out

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, z, tol: float = 1e-9) -> bool:
        """Whether ``z`` lies in the ball within ``tol``: ``_contains_blocks`` of one block."""
        return _contains_blocks((self,), (z,), tol, (None,))[0]


@dataclass(frozen=True)
class AmbiguitySpec:
    """Per-block balls around a nominal noise model.

    Radii follow the block order X0, W_0..W_{T-1}, V_0..V_{T-1} and must be
    finite and nonnegative; the nominal observation covariances must be PD so
    the filter stays well posed on the whole feasible set.  A nominal X0 or
    W_t with a positive radius must be PD or zero, the centers for which the
    oracle's optimality guarantee holds.  The balls share the nominal's
    frozen blocks and take their floors from its PSD check; for a nominal
    built by ``CovarianceProfile._trusted``, which made none, each floor is
    the block's ``min_eigval``.
    """

    nominal: CovarianceProfile
    rho_x0: float
    rho_w: tuple
    rho_v: tuple
    _balls: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nom = self.nominal
        rho_w = tuple(float(r) for r in self.rho_w)
        rho_v = tuple(float(r) for r in self.rho_v)
        for name, radii in (("rho_w", rho_w), ("rho_v", rho_v)):
            if len(radii) != nom.T:
                raise ValueError(f"{name}: expected {nom.T} radii, one per stage, got {len(radii)}")
        radii = (self.rho_x0, *rho_w, *rho_v)
        balls = []
        for label, center, r, lowest in zip(_block_labels(nom.T), nom.blocks, radii, nom._lowest):
            if not (r >= 0.0 and math.isfinite(r)):  # rho_x0, rho_w[t] or rho_v[t]
                raise ValueError(f"rho_{label.lower()} must be finite and nonnegative, got {r}")
            # a profile built by _trusted kept no eigenvalue of its blocks
            floor = min_eigval(center) if lowest is None else lowest
            ball = GelbrichBall._of_block(center, float(r), floor)
            if label.startswith("V") and ball.floor <= 0.0:
                raise ValueError(f"nominal {label} must be positive definite")
            # the oracle's bisection is exact only for PD or zero centers: a
            # singular, nonzero X0 or W_t can report a zero gap where the ball gains
            if ball.floor <= 0.0 and ball.radius != 0.0 and ball.center.any():
                raise ValueError(
                    f"nominal {label} is singular but nonzero (min eig {ball.floor:.3e}); "
                    "with a positive radius it must be positive definite or zero"
                )
            balls.append(ball)
        object.__setattr__(self, "rho_x0", float(self.rho_x0))
        object.__setattr__(self, "rho_w", rho_w)
        object.__setattr__(self, "rho_v", rho_v)
        object.__setattr__(self, "_balls", tuple(balls))

    def balls(self) -> tuple[GelbrichBall, ...]:
        """The balls in the fixed block order X0, W_0.., V_0.., built on construction."""
        return self._balls


@dataclass(frozen=True)
class OracleResult:
    maximizer: np.ndarray
    gamma: float
    gap_contribution: float
    iterations: int


def _diag_in_basis(vec: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Diagonals of vec' M vec for stacks (B,d,d): the M's in each eigenbasis."""
    return np.sum(vec * (m @ vec), axis=-2)


def _unresolved(label, radius, detail) -> ValueError:
    return ValueError(
        f"gradient block {label}: radius {radius:.3e} is out of the range that double "
        f"precision resolves for this block ({detail})"
    )


# floating-point exceptions surface through the finite check, not as warnings
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _oracle_stack(centers, radii, gradients, references, delta, name):
    """The oracle on a (B,d,d) stack of same-shape blocks, as arrays over B.

    Returns (maximizers, gammas, gaps, iterations) with the contract of
    ``oracle_maximize_blocks``; ``name(j)`` is the label error messages give
    block j, called only to raise.  The blocks bisect in lockstep over
    full-length arrays: an ``active`` mask marks the blocks still bisecting,
    and a block that meets an exit test leaves the mask, keeping its
    accepted gamma, its iteration count and a frozen bracket.  The dual, its
    derivative and the primal gap are O(d) per block in the gradient's
    eigenbasis, and the maximizers are built once, after the loop.  A radius
    so large or so small against the block's scale that the bracket does not
    sit finitely above lambda_max, or that makes a maximizer or gap overflow,
    raises ``ValueError`` naming the block.
    """
    B = len(radii)
    maximizers = _symmetrized(np.asarray(references, dtype=float))
    gammas = np.full(B, math.nan)
    gaps = np.zeros(B)
    iterations = np.zeros(B, dtype=int)
    flat = radii == 0.0
    maximizers[flat] = centers[flat]
    live = np.flatnonzero(~flat)
    if live.size == 0:  # every block keeps its center, which its ball has checked
        return maximizers, gammas, gaps, iterations

    grads = _symmetrized(np.asarray(gradients, dtype=float)[live])
    lam, vec = _checked_eig(  # ascending eigenvalues
        grads, np.linalg.eigh, lambda j: f"gradient block {name(live[j])}"
    )
    lam = np.clip(lam, 0.0, None)
    keep = lam[:, -1] > 0.0  # a zero gradient keeps the reference, gap 0
    live, lam, vec = live[keep], lam[keep], vec[keep]
    ref_ip = np.sum(lam * _diag_in_basis(vec, maximizers[live]), axis=1)
    # A zero center makes the ball {L >= 0 : tr L <= rho^2}, whose maximizer
    # is s s' with s = rho p1, bitwise symmetric; the bracket would sit at lambda_max.
    zero = ~centers[live].any(axis=(1, 2))
    if zero.any():
        gap = radii[live[zero]] ** 2 * lam[zero, -1] - ref_ip[zero]
        won = gap > 0.0  # else the reference is kept, with gap 0
        idx, top, gap = live[zero][won], vec[zero, :, -1][won], gap[won]
        s = radii[idx][:, None] * top
        maximizers[idx] = s[:, :, None] * s[:, None, :]
        gaps[idx] = gap
        live, lam, vec, ref_ip = live[~zero], lam[~zero], vec[~zero], ref_ip[~zero]

    zhat = centers[live]
    rho = radii[live]
    zdiag = _diag_in_basis(vec, zhat)
    lamz = lam * zdiag
    lam1 = lam[:, -1]
    # zdiag[:, -1] is p1' Zhat p1 for the top eigenvector p1
    lo = lam1 * (1.0 + np.sqrt(np.maximum(zdiag[:, -1], 0.0)) / rho)
    hi = lam1 * (1.0 + np.sqrt(np.maximum(np.trace(zhat, axis1=1, axis2=2), 0.0)) / rho)
    for j in np.flatnonzero(~(np.isfinite(hi) & (hi > lam1))):
        raise _unresolved(
            name(live[j]), rho[j], f"dual bracket ends at {hi[j]:.17g}, lambda_max {lam1[j]:.17g}"
        )

    gamma = np.empty(live.size)
    iters = np.zeros(live.size, dtype=int)
    # An isotropic Gamma = c I has its dual root at hi itself, where the
    # bisection would end only once its bracket collapsed: take hi unbisected.
    collapsed = (lam[:, 0] == lam1) & (lo < hi)
    gamma[collapsed] = hi[collapsed]
    active = ~collapsed
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
            f"gradient block {name(live[j])}: bisection did not meet the exit test "
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
    maximizers[live[won]] = _symmetrized(cand[won])
    gaps[live[won]] = gap[won]
    gammas[live], iterations[live] = gamma, iters
    for j in np.flatnonzero(~(np.isfinite(gaps) & np.isfinite(maximizers).all(axis=(1, 2)))):
        raise _unresolved(name(j), radii[j], "its maximizer or gap overflows")
    return maximizers, gammas, gaps, iterations


def oracle_maximize_blocks(
    balls, gradients, references, delta: float = 0.95, labels=None
) -> list[OracleResult]:
    """delta-approximate maximizers of <gradient, L - reference>, one per ball.

    The blocks are solved together: one ``_oracle_stack`` call per block
    shape, a batched bisection with a per-block active mask, so every block
    accepts the same gamma a separate call would.  Each ``gradient`` must be
    symmetric and PSD up to roundoff (tiny negative eigenvalues are clamped;
    genuinely indefinite or non-finite input raises, naming the block by its
    entry in ``labels``, or else its index in ``balls``).  Every
    returned ``gap_contribution`` is at least ``delta`` times the block's
    true maximum and never meaningfully negative.  Degenerate blocks
    short-circuit with NaN gamma and no bisection: a zero radius returns the
    center and a zero (clamped) gradient returns the reference, both with
    zero gap, and a zero center returns the exact maximizer s s', s = rho p1
    (p1 the gradient's top eigenvector), or the reference if that gains
    nothing.  An isotropic gradient c I of a block with d >= 2 takes gamma at
    the upper end of its dual bracket, where the bisection would collapse,
    with 0 iterations; its candidate, like a collapsed bracket's, keeps the
    reference when it loses to it.  No maximizer or gap is ever non-finite:
    a radius out of the range double precision resolves for its block
    raises ``ValueError`` naming the block, and so do a gradient or a
    reference whose shape is not its ball's (with both shapes) and differing
    counts of the three sequences.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    counts = (len(balls), len(gradients), len(references))
    if len(set(counts)) > 1:
        raise ValueError("{} balls, {} gradients and {} references do not pair up".format(*counts))
    labels = range(len(balls)) if labels is None else labels
    for kind, blocks in (("gradient block", gradients), ("reference block", references)):
        _check_shapes(kind, blocks, [ball.center.shape for ball in balls], labels)
    out = [None] * len(balls)
    for idx in _by_shape(balls).values():
        maximizers, gammas, gaps, iterations = _oracle_stack(
            np.stack([balls[i].center for i in idx]),
            np.array([float(balls[i].radius) for i in idx]),
            np.stack([gradients[i] for i in idx]),
            np.stack([references[i] for i in idx]),
            delta,
            lambda j: labels[idx[j]],
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


# _sample_feasible solves the profiles of one oracle call together up to this
# many matrix entries per stacked block array (512 KiB of float64); larger
# stacks only add memory and lockstep bisections
_SAMPLE_ELEMENTS = 1 << 16


def _sample_feasible(
    balls, rng: np.random.Generator, count: int, labels=None
) -> Iterator[list]:
    """Yield ``count`` random feasible profiles: one member of each ball per profile.

    Profile by profile and, within a profile, ball by ball, the draws are
    the normals of a random PSD direction A A', then a uniform u.  The
    profiles come in groups of at most ``_SAMPLE_ELEMENTS`` block entries (at
    least one profile), and each group is worked in one stack per block
    shape: the normals are drawn into their slots of the stack, the
    directions are one batched product, one ``_oracle_stack`` call finds the
    extreme point of each ball along its direction, and each sample lies a
    fraction u of the way from the center to it, which is feasible by
    convexity of the floored ball.  Zero-radius balls yield their (read-only)
    center and draw nothing; the other blocks are views into the group's
    stacks.  The oracle draws nothing and solves each block as a separate
    call would, so the profiles equal, bit for bit, those of ``count``
    consecutive one-profile calls.  A group is drawn only once the profiles
    before it have been taken, so one group is held at a time.  Oracle
    errors name the block by its entry in ``labels`` (else its index in
    ``balls``) and the sample by its index, as in "W[1] of nature sample 0".
    """
    labels = range(len(balls)) if labels is None else labels
    moving = [i for i, ball in enumerate(balls) if ball.radius != 0.0]
    shapes = {  # the moving balls by block dimension
        d: [moving[j] for j in ix] for d, ix in _by_shape([balls[i] for i in moving]).items()
    }
    group = max(1, _SAMPLE_ELEMENTS // max(1, sum(balls[i].dim**2 for i in moving)))
    centers = {d: np.stack([balls[i].center for i in idx]) for d, idx in shapes.items()}
    radii = {d: np.array([float(balls[i].radius) for i in idx]) for d, idx in shapes.items()}
    for start in range(0, count, group):
        size = min(group, count - start)
        normals = {d: np.empty((size, len(idx), d, d)) for d, idx in shapes.items()}
        weights = {d: np.empty((size, len(idx))) for d, idx in shapes.items()}
        slot = {i: (normals[d], weights[d], k) for d, ix in shapes.items() for k, i in enumerate(ix)}
        slots = [slot[i] for i in moving]  # in the draw order
        for s in range(size):
            for a, u, k in slots:
                rng.standard_normal(out=a[s, k])
                u[s, k] = rng.random()  # the draw and the value of rng.uniform()
        samples = {}
        for d, idx in shapes.items():
            a = normals[d].reshape(-1, d, d)  # row s * len(idx) + k: sample s, ball idx[k]
            tiled = np.broadcast_to(centers[d], normals[d].shape).reshape(-1, d, d)
            extremes = _oracle_stack(
                tiled,
                np.tile(radii[d], size),
                a @ a.swapaxes(-1, -2),
                tiled,
                0.9,
                lambda j: f"{labels[idx[j % len(idx)]]} of nature sample "
                f"{start + j // len(idx)}",
            )[0].reshape(normals[d].shape)
            samples[d] = centers[d] + weights[d][:, :, None, None] * (extremes - centers[d])
        for s in range(size):
            blocks = [ball.center for ball in balls]
            for d, idx in shapes.items():
                for k, i in enumerate(idx):
                    blocks[i] = samples[d][s, k]
            yield blocks


def sample_feasible(ball: GelbrichBall, rng: np.random.Generator) -> np.ndarray:
    """Draw a random feasible member of ``ball`` as a new array (see ``_sample_feasible``)."""
    return next(_sample_feasible((ball,), rng, 1))[0].copy()
