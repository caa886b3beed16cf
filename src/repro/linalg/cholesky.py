"""Cholesky factorization and SPD inversion — the related-work method of
Bientinesi, Gunter, van de Geijn [3] (Section 3).

The paper notes that for symmetric positive definite matrices, inversion via
the Cholesky factor "shows good performance and scalability, but does not
work for general matrices".  This single-node implementation provides the
specialized baseline: ``A = L L^T``, ``A^-1 = L^-T L^-1``, at roughly half
the arithmetic of LU-based inversion on SPD inputs.
"""

from __future__ import annotations

import numpy as np

from .triangular import blocked_back_substitute, blocked_forward_substitute, invert_lower


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when the input has a non-positive pivot (not SPD)."""


def cholesky_decompose(a: np.ndarray, *, check_symmetry: bool = True) -> np.ndarray:
    """The lower Cholesky factor ``L`` with ``A = L L^T``.

    Column-by-column elimination (the right-looking variant), vectorized per
    column; no pivoting is needed for SPD inputs — the property that makes
    the specialized algorithm simpler than LU.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"Cholesky needs a square matrix, got {a.shape}")
    if check_symmetry and not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    lower = np.tril(a).astype(np.float64)
    for j in range(n):
        if j:
            lower[j:, j] -= lower[j:, :j] @ lower[j, :j]
        pivot = lower[j, j]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(
                f"non-positive pivot {pivot:.3e} at column {j}"
            )
        lower[j:, j] /= np.sqrt(pivot)
    return lower


def cholesky_invert(a: np.ndarray) -> np.ndarray:
    """SPD inversion through the Cholesky factor: ``A^-1 = L^-T L^-1``."""
    lower = cholesky_decompose(a)
    linv = invert_lower(lower)
    return linv.T @ linv


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for SPD ``A`` (two blocked triangular solves; the
    row loops of :mod:`repro.linalg.triangular` are the tests' reference
    only)."""
    lower = cholesky_decompose(a)
    y = blocked_forward_substitute(lower, np.asarray(b, dtype=np.float64))
    return blocked_back_substitute(lower.T, y)


def cholesky_flop_count(n: int) -> float:
    """Multiplications of the factorization: n^3/6 — half of LU, the
    specialization's arithmetic advantage."""
    return float(n) ** 3 / 6.0
