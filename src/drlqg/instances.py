"""Reproducible benchmark instance generation.

The plant family is a banded chain: A_t = 0.1 * (ones on the main and first
superdiagonal), with B_t, C_t and all cost matrices set to identity.  Nominal
covariance blocks are drawn by sampling a uniform [0, 1) matrix M (row-major
fill), taking the eigenvectors of M + M', and recombining them with fresh
eigenvalues drawn uniformly from [1, 2] -- well-conditioned PD matrices with
random orientation.

All randomness comes from ``numpy.random.Generator`` seeded with PCG64, and
blocks are drawn in the fixed order X0, W_0..W_{T-1}, V_0..V_{T-1}, so a seed
pins the instance for a given LAPACK build.
"""

from __future__ import annotations

import math

import numpy as np

from .ambiguity import AmbiguitySpec
from .linalg import symmetrize
from .lqg import CovarianceProfile, TimeVaryingSystem

RNG_NAME = "numpy-pcg64"


def banded_system(n: int, m: int, p: int, T: int) -> TimeVaryingSystem:
    """The stage-invariant banded plant with identity costs."""
    a = 0.1 * (np.eye(n) + np.eye(n, k=1))
    b = np.eye(n, m)
    c = np.eye(p, n)
    return TimeVaryingSystem(
        A=[a] * T, B=[b] * T, C=[c] * T, Q=[np.eye(n)] * (T + 1), R=[np.eye(m)] * T
    )


def random_covariance(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One nominal block: random eigenbasis, eigenvalues uniform in [1, 2]."""
    m = rng.random((dim, dim))
    _, basis = np.linalg.eigh(m + m.T)
    eigs = rng.uniform(1.0, 2.0, size=dim)
    return symmetrize((basis * eigs) @ basis.T)


def sample_nominal_profile(n: int, p: int, T: int, rng: np.random.Generator) -> CovarianceProfile:
    """Draw nominal blocks in the fixed order X0, W_0.., V_0.."""
    x0 = random_covariance(n, rng)
    w = [random_covariance(n, rng) for _ in range(T)]
    v = [random_covariance(p, rng) for _ in range(T)]
    return CovarianceProfile(X0=x0, W=tuple(w), V=tuple(v))


def generate_instance(
    n: int, m: int, p: int, T: int, seed: int, rho: float = 0.1
) -> tuple[TimeVaryingSystem, AmbiguitySpec, dict]:
    """Build a seeded benchmark instance with a common radius on all blocks."""
    if min(n, m, p, T) < 1:
        raise ValueError("all dimensions and the horizon must be positive")
    if not (rho >= 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")
    sys = banded_system(n, m, p, T)
    rng = np.random.default_rng(seed)
    nominal = sample_nominal_profile(n, p, T, rng)
    amb = AmbiguitySpec(nominal=nominal, rho_x0=rho, rho_w=(rho,) * T, rho_v=(rho,) * T)
    meta = {"name": "banded", "seed": int(seed), "rho": float(rho), "rng": RNG_NAME}
    return sys, amb, meta
