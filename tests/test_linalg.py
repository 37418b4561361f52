import numpy as np
import pytest

from drlqg import CovarianceProfile, GelbrichBall, TimeVaryingSystem, oracle_maximize
from drlqg.linalg import (
    NotPSDError,
    SingularMatrixError,
    _spd_solve,
    min_eigval,
    psd_eig,
    psd_sqrt,
    symmetrize,
)

from helpers import random_psd, random_spd


def test_symmetrize_averages():
    out = symmetrize([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(out, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


# The test_sym_eig_* tests check the symmetric eigendecomposition, psd_eig.


def test_sym_eig_identity():
    w, v = psd_eig(np.eye(3))
    assert np.allclose(w, 1.0, atol=1e-14)
    assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)


def test_sym_eig_diagonal_ascending():
    w, _ = psd_eig(np.diag([4.0, 1.0]))
    assert np.allclose(w, [1.0, 4.0], atol=1e-14)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_psd(rng, 5)
        w, v = psd_eig(s)
        scale = max(1.0, np.linalg.norm(s))
        assert np.linalg.norm((v * w) @ v.T - s) <= 1e-10 * scale
        assert np.linalg.norm(v.T @ v - np.eye(5)) <= 1e-10


def test_sym_eig_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        psd_eig([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        psd_eig([[np.inf, 0.0], [0.0, 1.0]])


def test_non_finite_input_is_named_before_the_eigensolve():
    # LAPACK does not converge on an all-NaN 3x3, which once surfaced as a
    # LinAlgError "Eigenvalues did not converge"
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
        psd_eig(bad)
    with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
        GelbrichBall(center=bad, radius=0.5)


def _psd_verdicts(m):
    """Whether each site that applies the PSD rule accepts ``m``."""
    d = m.shape[0]
    eye = np.eye(d)
    sites = {
        "psd_eig": lambda: psd_eig(m),
        "GelbrichBall": lambda: GelbrichBall(center=m, radius=0.5),
        "CovarianceProfile": lambda: CovarianceProfile(X0=m, W=[eye], V=[np.eye(1)]),
        "TimeVaryingSystem": lambda: TimeVaryingSystem(
            A=[eye], B=[np.ones((d, 1))], C=[np.ones((1, d))], Q=[m, eye], R=[np.eye(1)]
        ),
        "oracle_maximize": lambda: oracle_maximize(GelbrichBall(center=eye, radius=0.5), m, eye),
    }
    verdicts = {}
    for name, site in sites.items():
        try:
            site()
        except ValueError as exc:  # the oracle's radius-range error is another rule
            verdicts[name] = not isinstance(exc, NotPSDError) and "semidefinite" not in str(exc)
        else:
            verdicts[name] = True
    return verdicts


_INDEFINITE = np.diag([1.0, -1.0])
_FACTOR = np.random.default_rng(2201).standard_normal((4, 2))
_RANK_TWO = _FACTOR @ _FACTOR.T


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300])
@pytest.mark.parametrize("m", [_INDEFINITE, _RANK_TWO], ids=["indefinite", "rank-2-psd"])
def test_psd_rule_gives_the_same_verdict_at_every_scale(m, c):
    # the tolerance is relative to ||S||_F, whose unscaled sum of squares
    # once overflowed above about 1e154 and underflowed below about 1e-154
    at_one = _psd_verdicts(m)
    assert set(at_one.values()) == {m is _RANK_TWO}
    assert _psd_verdicts(c * m) == at_one


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        s = a @ a.T
        r = psd_sqrt(s)
        assert min_eigval(r) >= -1e-10 * np.linalg.norm(r)
        assert np.linalg.norm(r @ r - s) <= 1e-9 * max(1.0, np.linalg.norm(s))


def test_psd_sqrt_clamps_roundoff_negatives():
    s = np.diag([1.0, -1e-13])
    r = psd_sqrt(s)
    assert r[1, 1] == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_commutes_with_input():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = random_psd(rng, 5)
        r = psd_sqrt(s)
        scale = max(1.0, np.linalg.norm(s)) ** 2
        assert np.linalg.norm(r @ s - s @ r) <= 1e-8 * scale


def test_spd_solve_identity():
    b = np.arange(6.0).reshape(3, 2)
    assert np.allclose(_spd_solve(np.eye(3), b), b, atol=1e-14)


def test_spd_solve_diagonal():
    out = _spd_solve(np.diag([2.0, 4.0]), np.eye(2))
    assert np.allclose(out, np.diag([0.5, 0.25]), atol=1e-14)


def test_spd_solve_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_spd(rng, 5)
        b = rng.standard_normal((5, 3))
        x = _spd_solve(s, b)
        assert np.linalg.norm(s @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))


def test_spd_solve_self_gives_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_spd(rng, 4)
        assert np.linalg.norm(_spd_solve(s, s) - np.eye(4)) <= 1e-9


def test_spd_solve_rejects_singular_and_indefinite():
    with pytest.raises(SingularMatrixError):
        _spd_solve(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularMatrixError):
        _spd_solve(np.diag([1.0, -1.0]), np.eye(2))


def test_spd_solve_rejects_nonfinite():
    with pytest.raises(ValueError):
        _spd_solve(np.eye(2), np.array([[np.nan], [0.0]]))
