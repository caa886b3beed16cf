"""LU decomposition with partial pivoting — Algorithm 1 of the paper.

This is the single-node kernel the pipeline runs on the master for blocks of
order <= nb.  The result packs both factors: the strict lower triangle holds
``L`` (unit diagonal implied) and the upper triangle holds ``U``, exactly the
storage convention Algorithm 1 describes.  The pivoting permutation is
returned as the compact row array ``S`` with ``(PA)_i = A_{S[i]}`` so that
``P A = L U``.

Compiled: where numpy's LAPACK is ``scipy-openblas`` (its Linux wheels),
the factorization is LAPACK's unblocked ``dgetf2``
(:mod:`._openblas`), which is Algorithm 1 itself — the pivot is the first
largest ``|element|`` of the column at and below the diagonal, then the row
swap, the multiplier scaling and the rank-1 update.  Not the blocked
``dgetrf``: its recursive panels sum in an order that costs accuracy on
ill-conditioned leaves (docs/performance.md, "The leaf LU is compiled").

Panelled NumPy where that symbol is absent, and for ``pivot=False``: the
rank-1 step reaches only the columns of the current ``_PANEL``-wide panel;
everything to the right of a finished panel receives that panel's updates at
once, as one unit-lower solve ``U12 = L11^-1 A12`` and one GEMM
``A22 -= L21 U12`` (right-looking).

Either way each column's pivot search sees the same values as in the paper's
listing up to summation order, so ``perm`` is Algorithm 1's, and the
operation count is the same n^3/3 multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _openblas, permutation
from .triangular import _forward_in_place, blocked_back_substitute, blocked_forward_substitute

# Columns eliminated by rank-1 updates before one GEMM folds them into the
# trailing matrix.
_PANEL = 32


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when no usable pivot exists (matrix is singular to working
    precision)."""


@dataclass
class LUResult:
    """Outcome of one LU factorization.

    ``lu`` packs both factors (unit-lower + upper); ``perm`` is the compact
    pivot array ``S``.  ``lower()``/``upper()`` materialize the factors.
    """

    lu: np.ndarray
    perm: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    def lower(self) -> np.ndarray:
        l = np.tril(self.lu, k=-1)
        np.fill_diagonal(l, 1.0)
        return l

    def upper(self) -> np.ndarray:
        return np.triu(self.lu)

    def flops(self) -> float:
        """Multiplication count of the factorization (~n^3/3, Table 1)."""
        n = float(self.n)
        return n**3 / 3.0


def lu_decompose(
    a: np.ndarray,
    *,
    pivot: bool = True,
    pivot_tol: float = 0.0,
) -> LUResult:
    """Factor ``a`` so that ``P a = L U`` (Algorithm 1).

    Parameters
    ----------
    a:
        Square matrix; not modified (a float64 copy is factored).
    pivot:
        Partial pivoting on (the paper always pivots; ``False`` is provided
        for tests demonstrating why pivoting matters).
    pivot_tol:
        Pivots with absolute value <= this are treated as zero; finite and
        >= 0.

    Raises
    ------
    SingularMatrixError
        If the best available pivot in some column is (near-)zero, NaN or
        infinite.
    ValueError
        If ``a`` is not square or ``pivot_tol`` is negative or not finite.
    """
    if not 0.0 <= pivot_tol < np.inf:  # also catches NaN
        raise ValueError(f"pivot_tol must be finite and >= 0, got {pivot_tol!r}")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"LU needs a square matrix, got shape {a.shape}")
    if pivot and _openblas.DGETF2 is not None:
        return _compiled(a, pivot_tol)
    return _panelled(a, pivot, pivot_tol)


def _bad_pivot(i: int, pivot_val: float, pivot_tol: float) -> SingularMatrixError:
    kind = "zero" if abs(pivot_val) <= pivot_tol else "non-finite"
    return SingularMatrixError(f"{kind} pivot at step {i} (|pivot|={abs(pivot_val):.3e})")


def _compiled(a: np.ndarray, pivot_tol: float) -> LUResult:
    """``dgetf2`` on a Fortran-order copy; ``U``'s diagonal holds the pivots
    in step order, so the first bad one is the step the loop stops at."""
    lu_f, ipiv = _openblas.getf2(a)
    lu = np.ascontiguousarray(lu_f)
    d = np.abs(lu.diagonal())
    bad = np.flatnonzero(~((d > pivot_tol) & (d < np.inf)))  # NaN fails both
    if bad.size:
        i = int(bad[0])
        raise _bad_pivot(i, lu[i, i], pivot_tol)
    # ipiv's 1-based sequential swaps -> the compact S.
    perm = list(range(a.shape[0]))
    for i, j in enumerate(ipiv.tolist()):
        j -= 1
        perm[i], perm[j] = perm[j], perm[i]
    return LUResult(lu=lu, perm=np.array(perm, dtype=np.int64))


def _panelled(a: np.ndarray, pivot: bool, pivot_tol: float) -> LUResult:
    n = a.shape[0]
    lu = a.copy()
    perm = permutation.identity(n)
    every_column = np.zeros(n, dtype=np.int64)

    for j0 in range(0, n, _PANEL):
        j1 = min(j0 + _PANEL, n)
        for i in range(j0, j1):
            if pivot:
                # Algorithm 1 line 3: pick the max |element| in column i, rows i..n.
                j = i + int(np.argmax(np.abs(lu[i:, i])))
                if j != i:
                    row = lu[i].copy()
                    lu[i] = lu[j]
                    lu[j] = row
                    perm[i], perm[j] = perm[j], perm[i]
            pivot_val = lu[i, i]
            if not pivot_tol < abs(pivot_val) < np.inf:  # also catches NaN
                raise _bad_pivot(i, pivot_val, pivot_tol)
            # Lines 6-8: scale the multipliers.
            lu[i + 1 :, i] /= pivot_val
            # Lines 9-13: the rank-1 update, on the panel's own columns only.
            lu[i + 1 :, i + 1 : j1] -= lu[i + 1 :, i : i + 1] * lu[i, i + 1 : j1]
        if j1 < n:
            # The columns right of the panel get its j1 - j0 updates at once:
            # U12 = L11^-1 A12, then A22 -= L21 U12.
            _forward_in_place(lu[j0:j1, j0:j1], lu[j0:j1, j1:], every_column[j1:], True)
            lu[j1:, j1:] -= lu[j1:, j0:j1] @ lu[j0:j1, j1:]

    return LUResult(lu=lu, perm=perm)


def lu_reconstruct(result: LUResult) -> np.ndarray:
    """Recompute ``P A`` from the factors (testing aid): returns ``L @ U``."""
    return result.lower() @ result.upper()


def solve_lu(result: LUResult, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given ``P A = L U``: blocked forward then back
    substitution applied to ``P b`` (the row loops of
    :mod:`repro.linalg.triangular` are the tests' reference only)."""
    pb = permutation.apply_rows(result.perm, np.asarray(b, dtype=np.float64))
    y = blocked_forward_substitute(result.lu, pb, unit_diagonal=True)
    return blocked_back_substitute(result.lu, y)


def lu_flop_count(n: int) -> float:
    """Multiplications used by LU on an order-n matrix (Table 1: n^3/3)."""
    return float(n) ** 3 / 3.0
