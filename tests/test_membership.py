"""The stacked Gelbrich membership test against the per-block reference."""

import math

import numpy as np
import pytest

from drlqg import AmbiguitySpec, CovarianceProfile, GelbrichBall, gelbrich_distance
from drlqg.ambiguity import _contains_blocks, _gelbrich_stack, _sample_feasible
from drlqg.linalg import NotPSDError
from drlqg.lqg import _block_labels, _split

from helpers import random_profile, random_psd, random_spd
from reference_oracle import reference_contains, reference_gelbrich_distance

# what block i of a test profile is, by i % 6
CASES = ("center", "just outside", "just inside", "below the floor", "sample", "far")


def _scaled(center, distance):
    """k^2 * center, at Gelbrich distance |k - 1| sqrt(tr C) = ``distance`` from ``center``."""
    k = 1.0 + distance / math.sqrt(np.trace(center))
    return k * k * center


def _below_floor(center):
    """``center`` with its smallest eigenvalue lowered by 0.01: a few thousandths
    from it in Gelbrich distance, but below the floor."""
    w, v = np.linalg.eigh(center)
    return center - 0.01 * np.outer(v[:, 0], v[:, 0])


def _spec(rng, n, p, T):
    """Balls of both shapes, the radius of W[0] zero."""
    return AmbiguitySpec(
        nominal=random_profile(rng, n, p, T),
        rho_x0=0.3,
        rho_w=(0.0, *(0.3,) * (T - 1)),
        rho_v=(0.2,) * T,
    )


def _blocks(rng, balls):
    sample = next(_sample_feasible(balls, rng, 1))
    blocks = []
    for i, ball in enumerate(balls):
        c, r = ball.center, ball.radius
        blocks.append(
            {
                "center": c.copy(),
                "just outside": _scaled(c, r * (1.0 + 1e-4)),
                "just inside": _scaled(c, r * (1.0 - 1e-4)),
                "below the floor": _below_floor(c),
                "sample": sample[i],
                "far": random_spd(rng, ball.dim, 2.0),
            }[CASES[i % len(CASES)]]
        )
    return blocks


@pytest.mark.parametrize("n, p, T", [(3, 2, 3), (2, 1, 1), (1, 3, 2), (2, 4, 4)])
@pytest.mark.parametrize("tol", [1e-9, 1e-7])
def test_stacked_membership_matches_the_reference(n, p, T, tol):
    rng = np.random.default_rng(1000 * n + 100 * p + T)
    balls = _spec(rng, n, p, T).balls()
    blocks = _blocks(rng, balls)
    labels = _block_labels(T)
    expected = [reference_contains(b, z, tol) for b, z in zip(balls, blocks)]
    for i, (ball, inside) in enumerate(zip(balls, expected)):
        case = CASES[i % len(CASES)]
        if case == "center" or (case in ("just inside", "sample") and ball.radius > 0.0):
            assert inside, (labels[i], case)
        if case in ("just outside", "below the floor", "far") and ball.radius > 0.0:
            assert not inside, (labels[i], case)
        if case == "below the floor":  # out by the floor test alone
            assert reference_gelbrich_distance(blocks[i], ball.center) < ball.radius
    # the eigenvalues a validated profile kept, or none
    lowest = CovarianceProfile(*_split(blocks))._lowest
    assert _contains_blocks(balls, blocks, tol, lowest, labels) == expected
    assert _contains_blocks(balls, blocks, tol, (None,) * len(balls)) == expected
    assert [b.contains(z, tol) for b, z in zip(balls, blocks)] == expected


@pytest.mark.parametrize("n, p, T", [(3, 2, 3), (2, 1, 1)])
def test_stacked_distances_match_the_reference(n, p, T):
    rng = np.random.default_rng(77 + n + T)
    balls = _spec(rng, n, p, T).balls()
    blocks = _blocks(rng, balls)
    for d in {b.dim for b in balls}:
        idx = [i for i, b in enumerate(balls) if b.dim == d]
        got = _gelbrich_stack(
            np.stack([blocks[i] for i in idx]), np.stack([balls[i].center for i in idx])
        )
        for j, i in enumerate(idx):
            ref = reference_gelbrich_distance(blocks[i], balls[i].center)
            assert abs(got[j] - ref) <= 1e-12 * max(1.0, ref)
            if CASES[i % len(CASES)] == "center":
                assert got[j] == 0.0
    for _ in range(10):
        d = int(rng.integers(1, 5))
        s1, s2 = random_psd(rng, d), random_spd(rng, d)
        ref = reference_gelbrich_distance(s1, s2)
        assert abs(gelbrich_distance(s1, s2) - ref) <= 1e-12 * max(1.0, ref)


def test_zero_radius_ball_holds_its_center_alone():
    rng = np.random.default_rng(3)
    center = random_spd(rng, 3)
    ball = GelbrichBall(center=center, radius=0.0)
    assert _contains_blocks((ball,) * 2, (center, _scaled(center, 1e-3)), 1e-7, (None, None)) == [
        True,
        False,
    ]


@pytest.mark.parametrize("lowest", ["given", None])
def test_non_finite_block_keeps_its_message(lowest):
    rng = np.random.default_rng(5)
    balls = _spec(rng, 3, 2, 2).balls()
    blocks = [b.center.copy() for b in balls]
    blocks[3][0, 1] = blocks[3][1, 0] = math.nan  # V[0]
    known = [b.floor for b in balls] if lowest else [None] * len(balls)
    with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
        _contains_blocks(balls, blocks, 1e-7, known, _block_labels(2))


def test_indefinite_block_raises_naming_its_label():
    # a tolerance of 10 lets the indefinite V[1] past the floor test, and its
    # cross term root V root is indefinite with it
    rng = np.random.default_rng(6)
    balls = _spec(rng, 3, 2, 2).balls()
    blocks = [b.center.copy() for b in balls]
    blocks[4] = blocks[4] - (balls[4].floor + 0.5) * np.eye(2)
    with pytest.raises(NotPSDError, match=r"^V\[1\]: minimum eigenvalue -"):
        _contains_blocks(balls, blocks, 10.0, [None] * len(balls), _block_labels(2))
    with pytest.raises(NotPSDError, match=r"^minimum eigenvalue -"):
        balls[4].contains(blocks[4], tol=10.0)
