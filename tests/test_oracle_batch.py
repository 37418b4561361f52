"""The batched oracle against the per-block scalar bisection it replaced."""

import math

import numpy as np
import pytest

from drlqg import (
    AmbiguitySpec,
    CovarianceProfile,
    FWConfig,
    GelbrichBall,
    generate_instance,
    oracle_maximize,
    oracle_maximize_blocks,
    sample_feasible,
    sample_feasible_blocks,
    solve,
)
from drlqg.linalg import NotPSDError, symmetrize

from helpers import random_profile, random_psd, random_spd, random_system
from reference_oracle import reference_oracle, reference_solve


def _rotation(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def _special_blocks(rng, n, p):
    """(ball, gradient, reference) triples for every degenerate path."""
    out = []
    # 1x1 blocks: the initial bracket is already collapsed
    out.append((GelbrichBall(center=[[1.3]], radius=0.4), [[2.0]], [[1.3]]))
    # ... and a reference above the ball's top point: the candidate loses
    out.append((GelbrichBall(center=[[1.0]], radius=0.1), [[0.7]], [[2.0]]))
    center = random_spd(rng, n)
    out.append((GelbrichBall(center=center, radius=0.0), random_psd(rng, n), center))
    out.append((GelbrichBall(center=center, radius=0.5), np.zeros((n, n)), center + 0.1 * np.eye(n)))
    u = rng.standard_normal((n, 1))
    out.append((GelbrichBall(center=center, radius=0.7), u @ u.T, center))  # rank one
    q = _rotation(rng, p)
    top = np.array([3.0] * 2 + [1.0] * (p - 2))
    out.append(
        (GelbrichBall(center=random_spd(rng, p), radius=0.3), (q * top) @ q.T, random_spd(rng, p))
    )
    return out


def _random_blocks(rng, n, p, count):
    out = []
    for _ in range(count):
        d = n if rng.uniform() < 0.5 else p
        ball = GelbrichBall(center=random_spd(rng, d), radius=rng.uniform(0.05, 2.0))
        grad = random_psd(rng, d) * rng.uniform(0.1, 10.0)
        ref = ball.center if rng.uniform() < 0.5 else ball.center + 0.1 * random_psd(rng, d)
        out.append((ball, grad, ref))
    return out


def _assert_same(res, ref, ball, grad):
    assert res.iterations == ref.iterations
    if math.isnan(ref.gamma):
        assert math.isnan(res.gamma)
    else:
        assert abs(res.gamma - ref.gamma) <= 1e-12 * abs(ref.gamma)
    scale = max(1.0, float(np.linalg.norm(grad) * np.linalg.norm(ball.center)))
    assert abs(res.gap_contribution - ref.gap_contribution) <= 1e-10 * scale
    size = max(1.0, float(np.linalg.norm(ref.maximizer)))
    assert np.max(np.abs(res.maximizer - ref.maximizer)) <= 1e-10 * size


@pytest.mark.parametrize("seed", range(6))
def test_batch_matches_scalar_bisection_on_mixed_blocks(seed):
    rng = np.random.default_rng(300 + seed)
    n, p = 2 + seed % 3, 5 - seed % 3  # n != p for every seed
    triples = _random_blocks(rng, n, p, 12) + _special_blocks(rng, n, p)
    order = rng.permutation(len(triples))
    triples = [triples[i] for i in order]
    balls, grads, refs = zip(*triples)
    for delta in (0.5, 0.95):
        results = oracle_maximize_blocks(balls, grads, refs, delta=delta)
        for (ball, grad, ref), res in zip(triples, results):
            _assert_same(res, reference_oracle(ball, grad, ref, delta), ball, grad)


def test_single_block_call_matches_scalar_bisection():
    rng = np.random.default_rng(310)
    for ball, grad, ref in _random_blocks(rng, 3, 4, 10) + _special_blocks(rng, 3, 4):
        _assert_same(oracle_maximize(ball, grad, ref), reference_oracle(ball, grad, ref), ball, grad)


def test_indefinite_gradient_in_batch_names_the_block():
    rng = np.random.default_rng(311)
    balls = [GelbrichBall(center=random_spd(rng, d), radius=0.5) for d in (2, 3, 2, 3)]
    grads = [random_psd(rng, b.dim) for b in balls]
    grads[3] = np.diag([1.0, 0.5, -1.0])
    with pytest.raises(NotPSDError, match="gradient block 3"):
        oracle_maximize_blocks(balls, grads, [b.center for b in balls])


def test_indefinite_gradient_of_zero_radius_block_is_not_inspected():
    # A zero radius short-circuits before the gradient is decomposed.
    ball = GelbrichBall(center=np.eye(2), radius=0.0)
    res = oracle_maximize_blocks([ball], [np.diag([1.0, -1.0])], [ball.center])[0]
    assert np.array_equal(res.maximizer, ball.center)


def test_sample_feasible_blocks_keeps_the_per_ball_draw_order():
    # Per ball: the direction normals, then the uniform; zero radii draw nothing.
    rng = np.random.default_rng(312)
    balls = [
        GelbrichBall(center=random_spd(rng, d), radius=r)
        for d, r in [(2, 0.4), (3, 0.0), (1, 0.2), (3, 0.8), (2, 0.0)]
    ]
    batched = sample_feasible_blocks(balls, np.random.default_rng(7))
    gen = np.random.default_rng(7)
    for ball, z in zip(balls, batched):
        if ball.radius == 0.0:
            assert np.array_equal(z, ball.center)
            continue
        a = gen.standard_normal((ball.dim, ball.dim))
        extreme = reference_oracle(ball, symmetrize(a @ a.T), ball.center, 0.9).maximizer
        expect = symmetrize(ball.center + gen.uniform() * (extreme - ball.center))
        assert np.max(np.abs(z - expect)) <= 1e-10 * max(1.0, float(np.linalg.norm(expect)))
    single = sample_feasible(balls[0], np.random.default_rng(7))
    assert np.max(np.abs(single - batched[0])) <= 1e-12 * float(np.linalg.norm(single))


def test_solve_trace_matches_per_block_reference_solver():
    rng = np.random.default_rng(313)
    n, m, p, T = 3, 2, 2, 4
    sys = random_system(rng, n, m, p, T)
    amb = AmbiguitySpec(
        nominal=random_profile(rng, n, p, T), rho_x0=0.4, rho_w=(0.3, 0.0, 0.5, 0.2),
        rho_v=(0.2,) * T,
    )
    sol = solve(sys, amb, FWConfig(tol=1e-4))
    expect = reference_solve(sys, amb, tol=1e-4)  # 89 iterations
    assert [r.k for r in sol.trace] == [k for k, _, _ in expect]
    scale = max(1.0, abs(sol.f_value))
    for rec, (_, f, gap) in zip(sol.trace, expect):
        assert abs(rec.f_value - f) <= 1e-10 * scale
        assert abs(rec.surrogate_gap - gap) <= 1e-10 * scale


def test_solver_iterates_are_frozen_symmetric_profiles():
    sys, amb, _ = generate_instance(3, 2, 2, 3, seed=9, rho=0.4)
    seen = []

    def on_iterate(k, cov, gap):
        assert isinstance(cov, CovarianceProfile)
        for block in [cov.X0, *cov.W, *cov.V]:
            assert not block.flags.writeable
            assert np.array_equal(block, block.T)
        seen.append(k)

    solve(sys, amb, FWConfig(max_iter=5), on_iterate=on_iterate)
    assert len(seen) >= 2
    # public construction still validates every block
    bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="X0"):
        CovarianceProfile(X0=bad, W=amb.nominal.W, V=amb.nominal.V)
