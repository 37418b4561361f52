"""Stage stacks: each stack of a system, profile or gain sequence is checked
in one call, with the messages and the bits of a check of one block after
another."""

import numpy as np
import pytest

from drlqg import CovarianceProfile, KalmanController, TimeVaryingSystem, generate_instance
from drlqg.lqg import _check_gains

from helpers import random_profile, random_system

_NAN = np.array([[1.0, np.nan], [0.0, 1.0]])


def _replaced(stages: dict, faults: dict) -> dict:
    """``stages`` with each block named in ``faults`` ("A1" is A[1]) replaced."""
    out = dict(stages)
    for key, block in faults.items():
        if key == "X0":
            out["X0"] = block
            continue
        name, t = key[0], int(key[1:])
        out[name] = [*out[name][:t], block, *out[name][t + 1 :]]
    return out


def _system(**faults):
    """A T=3 plant with n=2, m=1, p=2 and the given stages replaced."""
    stages = {
        "A": [np.eye(2)] * 3,
        "B": [np.ones((2, 1))] * 3,
        "C": [np.eye(2)] * 3,
        "Q": [np.eye(2)] * 4,
        "R": [np.eye(1)] * 3,
    }
    return TimeVaryingSystem(**_replaced(stages, faults))


def _profile(p=2, **faults):
    stages = {"X0": np.eye(2), "W": [np.eye(2)] * 3, "V": [np.eye(p)] * 3}
    return CovarianceProfile(**_replaced(stages, faults))


def _gains(**faults):
    gains = _replaced({"K": [np.zeros((1, 2))] * 3, "L": [np.zeros((2, 2))] * 3}, faults)
    KalmanController(**gains).make_policy(_system())


_PSD = "must be positive semidefinite (minimum eigenvalue"

# two faults each, in two stages; every message is the one a check of one
# block after another gives, word for word
FAULTS = {
    "shape, then non-finite": (
        lambda: _system(A1=np.ones((2, 3)), A2=_NAN),
        "A[1]: expected shape (2, 2), got (2, 3)",
    ),
    "non-finite, then shape": (
        lambda: _system(A1=_NAN, A2=np.ones((2, 3))),
        "A[1] contains non-finite entries",
    ),
    "B before C": (
        lambda: _system(B2=np.ones((2, 2)), C0=_NAN),
        "B[2]: expected shape (2, 1), got (2, 2)",
    ),
    "non-PSD Q, then shape": (
        lambda: _system(Q0=-np.eye(2), Q2=np.ones((3, 3))),
        f"Q[0] {_PSD} -1.000000e+00 is below the PSD tolerance -1.414214e-09)",
    ),
    "non-finite Q before non-PSD Q": (
        lambda: _system(Q1=_NAN, Q2=-np.eye(2)),
        "Q[1] contains non-finite entries",
    ),
    "two non-PD R": (
        lambda: _system(R1=np.zeros((1, 1)), R2=-np.eye(1)),
        "R[1] must be positive definite (min eig 0.000e+00)",
    ),
    "non-PSD Q before non-PD R": (
        lambda: _system(R0=np.zeros((1, 1)), Q3=np.diag([1.0, -0.5])),
        f"Q[3] {_PSD} -5.000000e-01 is below the PSD tolerance -1.118034e-09)",
    ),
    "non-PD R before misshapen R": (
        lambda: _system(R2=2.0, R0=-np.eye(1)),
        "R[0] must be positive definite (min eig -1.000e+00)",
    ),
    "non-PSD W, then V shape": (
        lambda: _profile(W1=np.diag([2.0, -1e-3]), V0=np.ones((2, 3))),
        f"W[1] {_PSD} -1.000000e-03 is below the PSD tolerance -2.000000e-09)",
    ),
    "X0 before non-finite V": (
        lambda: _profile(X0=-np.eye(2), V1=_NAN),
        f"X0 {_PSD} -1.000000e+00 is below the PSD tolerance -1.414214e-09)",
    ),
    "non-PSD V, then non-finite V (p != n)": (
        lambda: _profile(p=3, V0=-np.eye(3), V2=np.full((3, 3), np.inf)),
        f"V[0] {_PSD} -1.000000e+00 is below the PSD tolerance -1.732051e-09)",
    ),
    "non-finite W, then W shape": (
        lambda: _profile(W0=_NAN, W2=np.eye(3)),
        "W[0] contains non-finite entries",
    ),
    "V shape (p != n)": (
        lambda: _profile(p=1, V1=np.eye(2), W2=-np.eye(2)),
        f"W[2] {_PSD} -1.000000e+00 is below the PSD tolerance -1.414214e-09)",
    ),
    "two misshapen gains": (
        lambda: _gains(K1=np.zeros((2, 2)), L0=np.zeros((2, 1))),
        "K[1]: expected shape (1, 2), got (2, 2)",
    ),
    "gain shape before non-finite gain": (
        lambda: _gains(K0=np.zeros((2, 1)), K2=np.full((1, 2), np.nan)),
        "K[0]: expected shape (1, 2), got (2, 1)",
    ),
    "L shape before non-finite L": (
        lambda: _gains(L2=_NAN, L1=np.zeros((1, 2))),
        "L[1]: expected shape (2, 2), got (1, 2)",
    ),
}


@pytest.mark.parametrize("make, message", FAULTS.values(), ids=FAULTS)
def test_the_first_fault_of_a_stack_is_named_word_for_word(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_a_block_numpy_cannot_convert_raises_numpys_error_in_its_turn():
    with pytest.raises(ValueError, match="could not convert string to float"):
        _system(Q2="x", Q3=-np.eye(2))
    with pytest.raises(ValueError, match=r"^Q\[0\] must be positive semidefinite"):
        _system(Q2="x", Q0=-np.eye(2))


@pytest.mark.parametrize("n, p, T", [(10, 10, 10), (20, 20, 20), (3, 5, 4), (4, 1, 2)])
def test_lowest_is_bitwise_the_eigvalsh_of_each_block(n, p, T):
    if n == p:
        _, amb, _ = generate_instance(n, n, n, T, seed=0, rho=0.5)
        cov = amb.nominal
    else:
        cov = random_profile(np.random.default_rng(n + p + T), n, p, T, jitter=1e-3)
        cov = CovarianceProfile(X0=cov.X0, W=cov.W, V=cov.V)
    assert len(cov._lowest) == 2 * T + 1
    for block, lowest in zip(cov.blocks, cov._lowest):
        assert type(lowest) is float
        assert np.float64(lowest).tobytes() == np.linalg.eigvalsh(block)[0].tobytes()


def test_every_stored_stage_is_read_only_and_owns_no_caller_memory():
    rng = np.random.default_rng(2405)
    given = random_system(rng, 3, 2, 4, 3)
    system = {name: [np.array(a) for a in getattr(given, name)] for name in "ABCQR"}
    prof = random_profile(rng, 3, 4, 3)
    # V as one (T, p, p) array, as a reader holds a stage list
    profile = {"X0": np.array(prof.X0), "W": [np.array(w) for w in prof.W], "V": np.array(prof.V)}
    gains = {"K": [rng.standard_normal((2, 3)) for _ in range(3)]}
    gains["L"] = np.array([rng.standard_normal((3, 4)) for _ in range(3)])
    sys = TimeVaryingSystem(**system)
    cov = CovarianceProfile(**profile)
    K, L = _check_gains(sys, gains["K"], gains["L"])
    stored = [*(getattr(sys, name) for name in "ABCQR"), (cov.X0,), cov.W, cov.V, K, L]
    callers = [profile["X0"], profile["V"], gains["L"], *profile["W"], *gains["K"]]
    callers += [a for stages in system.values() for a in stages]
    for a in (a for stages in stored for a in stages):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, c) for c in callers)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
