import math

import numpy as np
import pytest

from drlqg import (
    AmbiguitySpec,
    CovarianceProfile,
    GelbrichBall,
    gelbrich_distance,
    oracle_maximize,
    sample_feasible,
)
from drlqg.linalg import NotPSDError, min_eigval, psd_eig

from helpers import random_profile, random_psd, random_spd


# ---------------------------------------------------------------- distance


def test_distance_coincident_is_zero():
    # the squared distance cancels to ~1e-13, so the root sits near sqrt(eps)
    rng = np.random.default_rng(50)
    for _ in range(5):
        s = random_psd(rng, 4)
        assert gelbrich_distance(s, s) <= 1e-6


def test_distance_scalar_formula():
    rng = np.random.default_rng(51)
    for _ in range(20):
        a, b = rng.uniform(0.01, 5.0, size=2)
        expect = abs(math.sqrt(a) - math.sqrt(b))
        assert abs(gelbrich_distance([[a]], [[b]]) - expect) <= 1e-10


def test_distance_commuting_diagonals():
    d = gelbrich_distance(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    assert abs(d - math.sqrt(2.0)) <= 1e-10


def test_distance_is_symmetric():
    rng = np.random.default_rng(52)
    for _ in range(10):
        s1, s2 = random_psd(rng, 3), random_psd(rng, 3)
        assert abs(gelbrich_distance(s1, s2) - gelbrich_distance(s2, s1)) <= 1e-9


def test_distance_rejects_indefinite():
    with pytest.raises(NotPSDError):
        gelbrich_distance(np.diag([1.0, -1.0]), np.eye(2))


# -------------------------------------------------------------------- ball


def test_ball_contains_center():
    rng = np.random.default_rng(53)
    center = random_spd(rng, 3)
    assert GelbrichBall(center=center, radius=0.0).contains(center)
    assert GelbrichBall(center=center, radius=2.0).contains(center)


def test_ball_scalar_membership():
    ball = GelbrichBall(center=[[1.0]], radius=1.0)
    assert ball.contains([[4.0]])  # distance exactly 1
    assert not ball.contains([[4.5]])  # distance ~1.121
    assert not ball.contains([[0.9]])  # inside the sphere but below the floor


def test_ball_floor_is_min_eigenvalue():
    rng = np.random.default_rng(54)
    center = random_spd(rng, 4)
    ball = GelbrichBall(center=center, radius=0.5)
    assert abs(ball.floor - np.linalg.eigvalsh(center)[0]) <= 1e-10


def test_ball_floor_is_not_an_argument():
    with pytest.raises(TypeError):
        GelbrichBall(center=np.eye(2), radius=0.5, floor=5.0)


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        GelbrichBall(center=np.eye(2), radius=-0.1)


def test_ball_rejects_infinite_radius():
    # an infinite radius would make the oracle return a NaN maximizer
    with pytest.raises(ValueError, match="finite"):
        GelbrichBall(center=np.eye(2), radius=math.inf)


def test_ball_checks_its_center_as_psd_eig_does():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(NotPSDError) as expect:
        psd_eig(bad)
    with pytest.raises(NotPSDError) as got:
        GelbrichBall(center=bad, radius=0.5)
    assert str(got.value) == str(expect.value)
    for entry in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
            GelbrichBall(center=[[entry, 0.0], [0.0, 1.0]], radius=0.5)


def test_ball_membership_rejects_non_finite_entries():
    # LAPACK's eigvalsh gives finite eigenvalues for a NaN on the diagonal, so
    # the floor test alone would answer False instead of raising
    ball = GelbrichBall(center=np.eye(2), radius=0.5)
    for entry in (math.nan, math.inf):
        for z in ([[entry, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, entry]], [[1.0, entry], [entry, 1.0]]):
            with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
                ball.contains(z)


def test_spec_builds_its_balls_once():
    rng = np.random.default_rng(57)
    nominal = random_profile(rng, 3, 2, 2)
    spec = AmbiguitySpec(nominal=nominal, rho_x0=0.2, rho_w=(0.0, 0.3), rho_v=(0.1, 0.4))
    balls = spec.balls()
    assert balls is spec.balls()
    blocks = [nominal.X0, *nominal.W, *nominal.V]
    assert [b.radius for b in balls] == [0.2, 0.0, 0.3, 0.1, 0.4]
    assert len(balls) == len(blocks)
    for ball, block in zip(balls, blocks):
        assert ball.center.tobytes() == block.tobytes()
        assert ball.floor == min_eigval(ball.center)


def test_spec_takes_each_floor_from_its_nominal_psd_check(monkeypatch):
    # the nominal's PSD check eigensolves each block once; the balls reuse
    # that eigenvalue, the bits of eigvalsh on the same array, and share the block
    rng = np.random.default_rng(2305)
    nominal = random_profile(rng, 4, 3, 3)
    radii = dict(rho_x0=0.2, rho_w=(0.1, 0.0, 0.3), rho_v=(0.1, 0.2, 0.4))
    solved = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: solved.append(None) or real(s))
    spec = AmbiguitySpec(nominal=nominal, **radii)
    assert solved == []
    for ball, block in zip(spec.balls(), nominal.blocks):
        assert ball.center is block
        assert ball.floor == real(block)[0]
        assert type(ball.floor) is float
    # a nominal that was not validated gets balls that solve their own floors
    trusted = CovarianceProfile._trusted([b.copy() for b in nominal.blocks])
    again = AmbiguitySpec(nominal=trusted, **radii)
    assert len(solved) == len(nominal.blocks)
    assert [b.floor for b in again.balls()] == [b.floor for b in spec.balls()]


def test_bare_ball_still_checks_its_own_center():
    with pytest.raises(NotPSDError, match="below the PSD tolerance"):
        GelbrichBall(center=np.diag([2.0, -1e-3]), radius=0.5)
    ball = GelbrichBall(center=[[2.0, 1.0], [0.0, 2.0]], radius=0.5)
    assert ball.floor == np.linalg.eigvalsh([[2.0, 0.5], [0.5, 2.0]])[0]


def test_spec_validates_inputs():
    rng = np.random.default_rng(55)
    nominal = random_profile(rng, 2, 2, 3)
    spec = AmbiguitySpec(nominal=nominal, rho_x0=0.1, rho_w=(0.1,) * 3, rho_v=(0.1,) * 3)
    assert len(spec.balls()) == 7  # X0, W_0..W_2, V_0..V_2
    with pytest.raises(ValueError):
        AmbiguitySpec(nominal=nominal, rho_x0=-0.1, rho_w=(0.1,) * 3, rho_v=(0.1,) * 3)
    with pytest.raises(ValueError):
        AmbiguitySpec(nominal=nominal, rho_x0=0.1, rho_w=(0.1,) * 2, rho_v=(0.1,) * 3)
    pd_less = type(nominal)(
        X0=nominal.X0, W=nominal.W, V=(np.zeros((2, 2)),) + nominal.V[1:]
    )
    with pytest.raises(ValueError):
        AmbiguitySpec(nominal=pd_less, rho_x0=0.1, rho_w=(0.1,) * 3, rho_v=(0.1,) * 3)


def test_spec_rejects_non_finite_radii_naming_the_field():
    rng = np.random.default_rng(56)
    nominal = random_profile(rng, 2, 2, 4)
    ok = (0.1,) * 4
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"rho_x0 must be finite"):
            AmbiguitySpec(nominal=nominal, rho_x0=bad, rho_w=ok, rho_v=ok)
        with pytest.raises(ValueError, match=r"rho_w\[3\] must be finite"):
            AmbiguitySpec(nominal=nominal, rho_x0=0.1, rho_w=(0.1, 0.1, 0.1, bad), rho_v=ok)
        with pytest.raises(ValueError, match=r"rho_v\[0\] must be finite"):
            AmbiguitySpec(nominal=nominal, rho_x0=0.1, rho_w=ok, rho_v=(bad, 0.1, 0.1, 0.1))


@pytest.mark.parametrize("field", ["rho_w", "rho_v"])
@pytest.mark.parametrize("count", [2, 4])
def test_spec_names_the_field_and_counts_of_a_radius_count_mismatch(field, count):
    nominal = random_profile(np.random.default_rng(57), 2, 2, 3)
    radii = {"rho_w": (0.1,) * 3, "rho_v": (0.1,) * 3, field: (0.1,) * count}
    message = rf"^{field}: expected 3 radii, one per stage, got {count}$"
    with pytest.raises(ValueError, match=message):
        AmbiguitySpec(nominal=nominal, rho_x0=0.1, **radii)


def test_spec_rejects_singular_nonzero_center_with_a_radius():
    # diag(1, 0) at radius 0.5: the oracle reports gap 0 against diag(0, 1),
    # though diag(1, 0.25) lies in the ball and gains 0.25
    singular = np.diag([1.0, 0.0])
    nominal = CovarianceProfile(X0=singular, W=(np.eye(2), singular), V=(np.eye(1),) * 2)
    with pytest.raises(ValueError, match=r"nominal X0 is singular but nonzero"):
        AmbiguitySpec(nominal=nominal, rho_x0=0.5, rho_w=(0.1, 0.0), rho_v=(0.1, 0.1))
    with pytest.raises(ValueError, match=r"nominal W\[1\] is singular but nonzero"):
        AmbiguitySpec(nominal=nominal, rho_x0=0.0, rho_w=(0.1, 0.5), rho_v=(0.1, 0.1))
    # a zero radius keeps the block fixed, and zero and PD centers stay valid
    AmbiguitySpec(nominal=nominal, rho_x0=0.0, rho_w=(0.1, 0.0), rho_v=(0.1, 0.1))
    zero = CovarianceProfile(
        X0=np.zeros((2, 2)), W=(np.eye(2), np.zeros((2, 2))), V=(np.eye(1),) * 2
    )
    AmbiguitySpec(nominal=zero, rho_x0=0.5, rho_w=(0.5, 0.5), rho_v=(0.1, 0.1))


# ------------------------------------------------------------------ oracle


def test_oracle_scalar_closed_form_instance():
    # center 1, radius 1, gradient 1, reference 1: the dual equation
    # (gamma - 1)^2 = 1 gives gamma = 2, maximizer 4, gap 3.
    res = oracle_maximize(GelbrichBall(center=[[1.0]], radius=1.0), [[1.0]], [[1.0]])
    assert abs(res.gamma - 2.0) <= 1e-9
    assert abs(res.maximizer[0, 0] - 4.0) <= 1e-9
    assert abs(res.gap_contribution - 3.0) <= 1e-9


def test_oracle_scalar_maximizer_ignores_gradient_scale():
    # In one dimension the maximizer is the ball's top point (sqrt(zhat)+rho)^2
    # for every positive gradient.
    rng = np.random.default_rng(56)
    for _ in range(10):
        zhat = rng.uniform(0.1, 4.0)
        rho = rng.uniform(0.05, 2.0)
        c = rng.uniform(0.01, 10.0)
        res = oracle_maximize(
            GelbrichBall(center=[[zhat]], radius=rho), [[c]], [[zhat]]
        )
        expect = (math.sqrt(zhat) + rho) ** 2
        assert abs(res.maximizer[0, 0] - expect) <= 1e-8 * max(1.0, expect)


def test_oracle_zero_gradient_returns_reference():
    ball = GelbrichBall(center=np.eye(2), radius=0.5)
    ref = 1.2 * np.eye(2)
    res = oracle_maximize(ball, np.zeros((2, 2)), ref)
    assert np.array_equal(res.maximizer, ref)
    assert res.gap_contribution == 0.0


def test_oracle_zero_radius_returns_center():
    ball = GelbrichBall(center=np.diag([1.0, 2.0]), radius=0.0)
    res = oracle_maximize(ball, np.eye(2), ball.center)
    assert np.array_equal(res.maximizer, ball.center)
    assert res.gap_contribution == 0.0


def test_oracle_rejects_indefinite_gradient():
    ball = GelbrichBall(center=np.eye(2), radius=0.5)
    with pytest.raises(NotPSDError):
        oracle_maximize(ball, np.diag([1.0, -1.0]), ball.center)


def test_oracle_rejects_bad_delta():
    ball = GelbrichBall(center=np.eye(2), radius=0.5)
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            oracle_maximize(ball, np.eye(2), ball.center, delta=delta)


def test_oracle_maximizer_is_feasible():
    rng = np.random.default_rng(57)
    for _ in range(30):
        dim = int(rng.integers(1, 7))
        ball = GelbrichBall(center=random_spd(rng, dim), radius=rng.uniform(0.05, 1.5))
        grad = random_psd(rng, dim)
        res = oracle_maximize(ball, grad, ball.center)
        assert ball.contains(res.maximizer, tol=1e-8)
        assert res.iterations <= 200
        scale = np.linalg.norm(grad) * np.linalg.norm(ball.center)
        assert res.gap_contribution >= -1e-9 * max(1.0, scale)


def test_oracle_dual_derivative_positive_at_exit():
    # Recomputed from scratch: phi'(gamma) = rho^2 - <Zhat, G^2 (gI - G)^-2>,
    # which must be positive at the accepted gamma (feasible side of the root).
    rng = np.random.default_rng(58)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        center = random_spd(rng, dim)
        rho = rng.uniform(0.1, 1.0)
        grad = random_psd(rng, dim) + 0.05 * np.eye(dim)
        res = oracle_maximize(GelbrichBall(center=center, radius=rho), grad, center)
        lam, vec = np.linalg.eigh(0.5 * (grad + grad.T))
        zrot = np.diag(vec.T @ center @ vec)
        dphi = rho**2 - float(np.sum(lam**2 * zrot / (res.gamma - lam) ** 2))
        assert dphi >= -1e-9


def test_oracle_dual_is_convex_beyond_top_eigenvalue():
    rng = np.random.default_rng(59)
    center = random_spd(rng, 3)
    grad = random_psd(rng, 3) + 0.1 * np.eye(3)
    rho = 0.4
    ref = center
    lam, vec = np.linalg.eigh(grad)
    zrot = np.diag(vec.T @ center @ vec)
    ref_ip = float(np.sum(grad * ref))

    def phi(g):
        scale = g / (g - lam)
        return g * (rho**2 + float(np.sum((scale - 1.0) * zrot))) - ref_ip

    gammas = np.linspace(lam[-1] * 1.05, lam[-1] * 6.0, 100)
    vals = np.array([phi(g) for g in gammas])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-8 * np.max(np.abs(vals)))


def test_oracle_scalar_beats_delta_times_grid():
    rng = np.random.default_rng(60)
    for _ in range(10):
        zhat = rng.uniform(0.2, 3.0)
        rho = rng.uniform(0.05, 1.5)
        c = rng.uniform(0.1, 5.0)
        top = (math.sqrt(zhat) + rho) ** 2
        ref = rng.uniform(zhat, top)
        res = oracle_maximize(
            GelbrichBall(center=[[zhat]], radius=rho), [[c]], [[ref]], delta=0.95
        )
        grid = np.linspace(zhat, top, 10_000)
        best = float(np.max(c * (grid - ref)))
        assert res.gap_contribution >= 0.95 * best - 1e-12


def test_sample_feasible_stays_in_ball():
    rng = np.random.default_rng(61)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        ball = GelbrichBall(center=random_spd(rng, dim), radius=rng.uniform(0.0, 1.0))
        z = sample_feasible(ball, rng)
        assert ball.contains(z, tol=1e-8)


def test_sample_feasible_zero_radius_returns_center():
    ball = GelbrichBall(center=np.diag([2.0, 3.0]), radius=0.0)
    assert np.array_equal(sample_feasible(ball, np.random.default_rng(0)), ball.center)


@pytest.mark.parametrize("radius", [0.0, 0.5])
def test_sample_feasible_returns_a_new_writable_array(radius):
    # the stacked sampler yields views and read-only centers; the public call
    # hands back an array of its own, so updating it in place is safe
    ball = GelbrichBall(center=np.diag([2.0, 3.0]), radius=radius)
    z = sample_feasible(ball, np.random.default_rng(0))
    assert z.base is None and z.flags.writeable
    z += 1.0
    assert np.array_equal(ball.center, np.diag([2.0, 3.0]))
