"""Dense symmetric/PSD matrix kernels with an explicit roundoff policy.

Every public routine symmetrizes its input up front, and ``psd_sqrt``
re-symmetrizes its result, so tiny asymmetries cannot accumulate through
long matrix recursions.  The recursions themselves symmetrize what they
build with the unchecked ``_symmetrized`` and solve with ``_spd_solve``, the
one SPD solve, which takes its matrix as already symmetric.
``_checked_eig`` holds the one PSD rule, which ``psd_eig``, the Gelbrich
balls, the PSD blocks of systems and noise profiles and the oracle's
gradients all go through: a matrix is PSD up to roundoff when its entries are
finite and its smallest eigenvalue is at least ``-PSD_CLAMP_REL`` times its
Frobenius norm, a norm computed so that the verdict is the same at every
scale.  ``psd_eig`` is the one eigendecomposition: eigenvalues that are
negative only at roundoff level are clamped to zero; anything more negative
raises :class:`NotPSDError`.  Its eigenvectors carry no sign convention,
because every consumer forms ``V diag(f(w)) V'``, in which negating a column
cancels exactly.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue floor below which a "PSD" matrix is considered broken.
PSD_CLAMP_REL = 1e-9


class NotPSDError(ValueError):
    """An eigenvalue sits below the PSD clamping tolerance."""


class SingularMatrixError(ValueError):
    """A matrix is singular (or indefinite) where positive definiteness is required."""


def symmetrize(a) -> np.ndarray:
    """Return ``(A + A^T) / 2`` as a float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``symmetrize`` of a square float array, or of each matrix of a (B,d,d) stack, unchecked."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def psd_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with roundoff-level negative eigenvalues clamped to 0.

    Returns ``(w, v)`` with eigenvalues ``w`` in ascending order and
    orthonormal eigenvectors in the columns of ``v``.  Eigenvalues in
    ``[-PSD_CLAMP_REL * ||S||_F, 0)`` are set to zero.  A smaller eigenvalue
    means the matrix is genuinely indefinite and raises :class:`NotPSDError`.
    """
    w, v = _checked_eig(symmetrize(s), np.linalg.eigh)
    return np.clip(w, 0.0, None), v


def _checked_eig(s: np.ndarray, eig, label=None):
    """``eig(s)`` (``np.linalg.eigh`` or ``eigvalsh``) of a symmetric ``s``,
    or of a (B, d, d) stack of them, that passes the one PSD rule.

    Non-finite entries raise ``ValueError`` before the eigensolve, on which
    LAPACK may fail to converge.  A smallest eigenvalue below
    ``-PSD_CLAMP_REL * ||S||_F`` raises :class:`NotPSDError`.  ``label(j)``
    names matrix j of a stack at the head of either message.
    """
    stack = s.reshape(-1, *s.shape[-2:])
    name = label or (lambda j: None)
    if not np.isfinite(stack).all():
        j = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))[0]
        raise ValueError(f"{name(j) or 'matrix'} contains non-finite entries")
    out = eig(s)
    w = out[0] if isinstance(out, tuple) else out
    lowest = w.reshape(-1, w.shape[-1])[:, 0]
    if lowest.min() >= 0.0:  # the floor is at most 0
        return out
    floor = _psd_floor(stack)
    for j in np.flatnonzero(lowest < floor):
        head = f"{name(j)}: " if name(j) else ""
        raise NotPSDError(
            f"{head}minimum eigenvalue {lowest[j]:.6e} is below the PSD tolerance {floor[j]:.6e}"
        )
    return out


def _psd_floor(stack: np.ndarray) -> np.ndarray:
    """``-PSD_CLAMP_REL * ||S||_F`` of each matrix of a (B, d, d) stack.

    The norm is taken of S / max|S| and scaled back after the factor, as
    LAPACK's ``dnrm2`` scales, so that it neither overflows nor underflows
    for any finite S.
    """
    unit = np.abs(stack).max(axis=(1, 2), initial=0.0)
    unit[unit == 0.0] = 1.0
    scaled = stack / unit[:, None, None]
    return -PSD_CLAMP_REL * np.sqrt(np.einsum("bij,bij->b", scaled, scaled)) * unit


def psd_sqrt(s) -> np.ndarray:
    """Symmetric PSD square root ``S^(1/2)`` via eigendecomposition."""
    w, v = psd_eig(s)
    return symmetrize((v * np.sqrt(w)) @ v.T)


def _spd_solve(s: np.ndarray, b) -> np.ndarray:
    """Solve ``S X = B`` for a symmetric positive definite float matrix ``S``.

    ``s`` is taken as symmetric, as the recursions build it.  A Cholesky
    factorization tests positive definiteness and raises
    :class:`SingularMatrixError` when it fails, i.e. when ``S`` is singular
    or indefinite; the solve itself is an LU solve of ``S``.
    """
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(b))):
        raise ValueError("solve input contains non-finite entries")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from None
    return np.linalg.solve(s, b)


def min_eigval(s) -> float:
    """Smallest eigenvalue of the symmetrized input."""
    return float(np.linalg.eigvalsh(symmetrize(s))[0])
