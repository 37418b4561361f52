"""Seeded builders for randomized test instances."""

import numpy as np

from drlqg import CovarianceProfile, TimeVaryingSystem


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T / dim


def random_spd(rng, dim, jitter=0.5):
    return random_psd(rng, dim) + jitter * np.eye(dim)


def random_system(rng, n, m, p, T):
    """A generic well-posed instance: stable-ish A, PSD Q, PD R."""
    A = [0.9 * rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(T)]
    B = [rng.standard_normal((n, m)) for _ in range(T)]
    C = [rng.standard_normal((p, n)) for _ in range(T)]
    Q = [random_psd(rng, n) for _ in range(T + 1)]
    R = [random_spd(rng, m) for _ in range(T)]
    return TimeVaryingSystem(A=A, B=B, C=C, Q=Q, R=R)


def random_profile(rng, n, p, T, jitter=0.5):
    """Noise covariances with PD blocks (V must stay PD for the filter)."""
    return CovarianceProfile(
        X0=random_spd(rng, n, jitter),
        W=tuple(random_spd(rng, n, jitter) for _ in range(T)),
        V=tuple(random_spd(rng, p, jitter) for _ in range(T)),
    )


def random_dims(rng, dmax, tmax):
    n, m, p = (int(rng.integers(1, dmax + 1)) for _ in range(3))
    return n, m, p, int(rng.integers(1, tmax + 1))


def scalar_ones():
    """The all-ones scalar T=1 instance used for every hand-checked value."""
    sys = TimeVaryingSystem(
        A=[[[1.0]]], B=[[[1.0]]], C=[[[1.0]]], Q=[[[1.0]], [[1.0]]], R=[[[1.0]]]
    )
    cov = CovarianceProfile(X0=[[1.0]], W=([[1.0]],), V=([[1.0]],))
    return sys, cov


def random_causal_gain(rng, m, p, T, scale=1.0):
    """A block lower-triangular gain with random entries in the causal part."""
    U = np.zeros((m * T, p * T))
    for t in range(T):
        U[t * m : (t + 1) * m, : (t + 1) * p] = scale * rng.standard_normal((m, (t + 1) * p))
    return U


def block_diag(*blocks):
    """Block-diagonal matrix of ``blocks``, assembled with ``np.block``."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    return np.block(
        [
            [b if i == j else np.zeros((b.shape[0], c.shape[1])) for j, c in enumerate(blocks)]
            for i, b in enumerate(blocks)
        ]
    )
