"""The batched oracle against the per-block scalar bisection it replaced."""

import math
import re

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
from drlqg import ambiguity
from drlqg.ambiguity import OracleError
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
    # all of the center's mass on the gradient's top eigenvector: the initial
    # bracket of an n x n block is already collapsed, while its shape's other
    # blocks keep bisecting
    mass = np.diag([1.0] + [0.0] * (n - 1))
    out.append((GelbrichBall(center=mass, radius=0.5), np.diag([2.0] + [0.5] * (n - 1)), mass))
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


def test_zero_center_blocks_take_the_closed_form_in_a_mixed_batch():
    # The ball around a zero center is {L >= 0 : tr L <= rho^2}; its maximizer
    # is rho^2 p1 p1' with gap rho^2 lambda_max - <Gamma, reference>.
    rng = np.random.default_rng(337)
    n, p = 3, 2
    zero_blocks = []
    for d in (n, p, n):
        grad = random_psd(rng, d) * rng.uniform(0.5, 5.0)
        zero_blocks.append((GelbrichBall(center=np.zeros((d, d)), radius=0.6), grad, np.zeros((d, d))))
    # a reference beyond the ball's reach is kept, with gap 0
    big = 10.0 * np.eye(p)
    zero_blocks.append((GelbrichBall(center=np.zeros((p, p)), radius=0.6), random_psd(rng, p), big))
    triples = _random_blocks(rng, n, p, 8) + _special_blocks(rng, n, p) + zero_blocks
    order = rng.permutation(len(triples))
    triples = [triples[i] for i in order]
    balls, grads, refs = zip(*triples)
    results = oracle_maximize_blocks(balls, grads, refs, delta=0.95)
    checked = 0
    for (ball, grad, ref), res in zip(triples, results):
        if np.any(ball.center):
            _assert_same(res, reference_oracle(ball, grad, ref, 0.95), ball, grad)
            continue
        lam, vec = np.linalg.eigh(grad)
        gain = 0.6**2 * lam[-1] - float(np.sum(grad * ref))
        assert math.isnan(res.gamma) and res.iterations == 0
        if gain > 0.0:
            top = vec[:, -1:]
            assert np.allclose(res.maximizer, 0.6**2 * top @ top.T, rtol=0, atol=1e-14)
            assert abs(res.gap_contribution - gain) <= 1e-12 * max(1.0, abs(gain))
            assert ball.contains(res.maximizer)
        else:
            assert np.array_equal(res.maximizer, ref) and res.gap_contribution == 0.0
        checked += 1
    assert checked == len(zero_blocks)


def test_bisection_cap_names_the_first_block_still_bisecting(monkeypatch):
    rng = np.random.default_rng(336)
    triples = _random_blocks(rng, 2, 4, 12) + _special_blocks(rng, 2, 4)
    triples = [triples[i] for i in rng.permutation(len(triples))]
    balls, grads, refs = zip(*triples)
    # Shapes are solved in order of first appearance; in the first shape with
    # a block that needs more than 2 bisections, the lowest such index fails.
    groups = {}
    for i, ball in enumerate(balls):
        groups.setdefault(ball.dim, []).append(i)
    slow = [reference_oracle(*triple).iterations > 2 for triple in triples]
    first = next(i for idx in groups.values() for i in idx if slow[i])
    group = groups[balls[first].dim]
    assert group.index(first) > 0 and any(slow[i] for i in group if i > first)
    monkeypatch.setattr(ambiguity, "_MAX_BISECT", 2)
    with pytest.raises(OracleError) as info:
        oracle_maximize_blocks(balls, grads, refs)
    found = re.fullmatch(
        r"gradient block (\d+): bisection did not meet the exit test in 2 iterations; "
        r"final bracket \[(\S+), (\S+)\]",
        str(info.value),
    )
    assert found and int(found[1]) == first
    lo, hi = float(found[2]), float(found[3])
    assert np.linalg.eigvalsh(grads[first])[-1] < lo < hi < math.inf


def test_indefinite_gradient_in_batch_names_the_block():
    rng = np.random.default_rng(311)
    balls = [GelbrichBall(center=random_spd(rng, d), radius=0.5) for d in (2, 3, 2, 3)]
    grads = [random_psd(rng, b.dim) for b in balls]
    grads[3] = np.diag([1.0, 0.5, -1.0])
    with pytest.raises(NotPSDError, match="gradient block 3"):
        oracle_maximize_blocks(balls, grads, [b.center for b in balls])


@pytest.mark.parametrize(
    "radius, zero_center",
    [(1e20, False), (1e-300, False), (1e200, True)],
    ids=["bracket-on-lambda-max", "gamma-squared-overflows", "zero-center-overflows"],
)
def test_radius_out_of_double_range_names_the_block(radius, zero_center):
    # Such a radius once returned NaN maximizers and infinite gaps, with
    # RuntimeWarnings; pytest turns any escaping warning into an error.
    rng = np.random.default_rng(313)
    balls = [GelbrichBall(center=random_spd(rng, 3), radius=0.5) for _ in range(3)]
    center = np.zeros((3, 3)) if zero_center else random_spd(rng, 3)
    balls[2] = GelbrichBall(center=center, radius=radius)
    grads = [random_psd(rng, 3) + np.eye(3) for _ in balls]
    with pytest.raises(ValueError, match="gradient block 2: radius .* out of the range"):
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


@pytest.mark.parametrize("group", ["all", "one", "two"])
@pytest.mark.parametrize("count", [1, 3])
def test_batched_samples_equal_sequential_calls(monkeypatch, count, group):
    # saddle_check prices its nature samples in groups, one oracle call per
    # group; the samples and the generator state must be those of one call
    # per sample, whatever the group size
    rng = np.random.default_rng(314)
    balls = [
        GelbrichBall(center=random_spd(rng, d), radius=r)
        for d, r in [(2, 0.4), (3, 0.0), (1, 0.2), (3, 0.8), (2, 0.0)]
    ] + [GelbrichBall(center=np.zeros((2, 2)), radius=0.3)]
    entries = sum(b.dim**2 for b in balls if b.radius != 0.0)
    budget = {"all": ambiguity._SAMPLE_ELEMENTS, "one": entries + 1, "two": 2 * entries}[group]
    monkeypatch.setattr(ambiguity, "_SAMPLE_ELEMENTS", budget)
    batched_rng, sequential_rng = np.random.default_rng(9), np.random.default_rng(9)
    batched = list(ambiguity._sample_feasible(balls, batched_rng, count))
    sequential = [sample_feasible_blocks(balls, sequential_rng) for _ in range(count)]
    assert len(batched) == count
    for got, expect in zip(batched, sequential):
        assert len(got) == len(balls)
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)
    assert batched_rng.bit_generator.state == sequential_rng.bit_generator.state


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
