"""Dense symmetric/PSD matrix kernels with an explicit roundoff policy.

Every routine symmetrizes its input up front, and ``psd_sqrt`` re-symmetrizes
its result, so tiny asymmetries cannot accumulate through long matrix
recursions.  ``psd_eig`` is the one eigendecomposition: eigenvalues that are
negative only at roundoff level -- within ``PSD_CLAMP_REL`` times the
Frobenius norm of the matrix -- are clamped to zero; anything more negative
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


def psd_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with roundoff-level negative eigenvalues clamped to 0.

    Returns ``(w, v)`` with eigenvalues ``w`` in ascending order and
    orthonormal eigenvectors in the columns of ``v``.  Eigenvalues in
    ``[-PSD_CLAMP_REL * ||S||_F, 0)`` are set to zero.  A smaller eigenvalue
    means the matrix is genuinely indefinite and raises :class:`NotPSDError`.
    """
    s = symmetrize(s)
    w, v = np.linalg.eigh(s)
    _check_psd(s, w[0])
    return np.clip(w, 0.0, None), v


def _check_psd(s: np.ndarray, lowest: float):
    """``psd_eig``'s checks of the symmetric ``s``, given its smallest eigenvalue."""
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix contains non-finite entries")
    floor = -PSD_CLAMP_REL * np.linalg.norm(s)
    if lowest < floor:
        raise NotPSDError(
            f"minimum eigenvalue {lowest:.6e} is below the PSD tolerance {floor:.6e}"
        )


def psd_sqrt(s) -> np.ndarray:
    """Symmetric PSD square root ``S^(1/2)`` via eigendecomposition."""
    w, v = psd_eig(s)
    return symmetrize((v * np.sqrt(w)) @ v.T)


def spd_solve(s, b) -> np.ndarray:
    """Solve ``S X = B`` for symmetric positive definite ``S``.

    A Cholesky factorization tests positive definiteness and raises
    :class:`SingularMatrixError` when it fails, i.e. when ``S`` is singular
    or indefinite; the solve itself is an LU solve of the symmetrized ``S``.
    """
    s = symmetrize(s)
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
