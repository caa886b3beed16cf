"""Triangular inversion and substitution — Equation 4 of the paper.

The inverse of a lower triangular matrix is computed row by row:

    [L^-1]_ii = 1 / [L]_ii
    [L^-1]_ij = -(1/[L]_ii) * sum_{k=j}^{i-1} [L]_ik [L^-1]_kj   (i > j)

A column of the inverse depends only on earlier rows of the *same* column, so
columns are independent — this is what Section 4.3 parallelizes across
mappers.  :func:`invert_lower_columns` computes an arbitrary column subset,
which is exactly a map task's share; :func:`invert_lower` is the full-matrix
convenience built on the same kernel.

The arithmetic inside one task is scheduled for BLAS-3.  Equation 4 is
forward substitution on ``L X = I[:, columns]``, and there is one blocked
recursion for forward substitution in this module, :func:`_solve_lower`:
split ``L = [[L11, 0], [L21, L22]]``, solve the top half, fold it into the
bottom half with one GEMM, solve the bottom half; only diagonal blocks of
``_LEAF`` rows run the row loop above (:func:`forward_substitute`).  Column
*c* of ``L^-1`` is zero above row *c*, so with the columns in ascending
order every step works on a leading slice of ``X`` and the zeros are never
multiplied.  :func:`blocked_forward_substitute` is the same recursion with
every column active from row 0.  The mappers' column sets, the flop count
they report (Table 2) and the result up to roundoff are those of the row
loop.

Upper-triangular inversion reuses the lower kernel on the transpose
(Section 6.3: the implementation always stores ``U`` transposed), so
``U^-1 = (invert_lower(U^T))^T``.
"""

from __future__ import annotations

import numpy as np


class TriangularShapeError(ValueError):
    """Raised when an input is not (numerically) triangular."""


def _check_square(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise TriangularShapeError(f"{what} must be square, got shape {m.shape}")
    return m


def is_lower_triangular(m: np.ndarray, tol: float = 0.0) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(np.triu(m, k=1)) <= tol))


def is_upper_triangular(m: np.ndarray, tol: float = 0.0) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(np.tril(m, k=-1)) <= tol))


def _check_invertible_diagonal(diag: np.ndarray) -> None:
    if np.any(diag == 0.0):
        idx = int(np.argmax(diag == 0.0))
        raise np.linalg.LinAlgError(f"triangular matrix singular: zero diagonal at {idx}")


def _rhs_matrix(b: np.ndarray, n: int, what: str) -> tuple[np.ndarray, bool]:
    """Private float64 ``n x k`` copy of a right-hand side (and whether it
    was a vector)."""
    x = np.array(b, dtype=np.float64)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    if x.shape[0] != n:
        raise ValueError(f"rhs has {x.shape[0]} rows, {what} is {n}x{n}")
    return x, one_d


# -- substitution -------------------------------------------------------------


def forward_substitute(
    l: np.ndarray, b: np.ndarray, *, unit_diagonal: bool = False
) -> np.ndarray:
    """Solve ``L y = b`` for lower-triangular ``L`` (b may have many columns)."""
    l = _check_square(l, "L")
    n = l.shape[0]
    y, one_d = _rhs_matrix(b, n, "L")
    if not unit_diagonal:
        _check_invertible_diagonal(np.diag(l))
    for i in range(n):
        if i:
            y[i] -= l[i, :i] @ y[:i]
        if not unit_diagonal:
            y[i] /= l[i, i]
    return y[:, 0] if one_d else y


def back_substitute(u: np.ndarray, b: np.ndarray, *, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``."""
    u = _check_square(u, "U")
    n = u.shape[0]
    x, one_d = _rhs_matrix(b, n, "U")
    if not unit_diagonal:
        _check_invertible_diagonal(np.diag(u))
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= u[i, i + 1 :] @ x[i + 1 :]
        if not unit_diagonal:
            x[i] /= u[i, i]
    return x[:, 0] if one_d else x


# -- blocked (BLAS-3) substitution ---------------------------------------------

# Diagonal blocks of at most this many rows are solved by the row loop.
_LEAF = 64


def _solve_lower(
    l: np.ndarray,
    x: np.ndarray,
    lo: int,
    hi: int,
    starts: np.ndarray,
    unit_diagonal: bool,
    block: int,
) -> None:
    """Overwrite rows ``lo:hi`` of ``x`` with those of the solution of
    ``L X = B``, given rows ``:lo`` already solved and folded into ``lo:hi``.

    ``starts`` is ascending; column *t* of ``B`` is zero above row
    ``starts[t]``, so the solution is too, and at row block ``lo:hi`` only the
    leading ``searchsorted(starts, hi)`` columns are touched.  The recursion
    is on ``L = [[L11, 0], [L21, L22]]``: solve L11, one GEMM ``X2 -= L21 X1``
    over the columns already started above ``mid``, solve L22 — depth first,
    so the working set is one half-block (Cosme et al.).  A module-level
    function on purpose: a self-recursive closure is a reference cycle that
    keeps ``l`` and ``x`` alive until the cyclic collector runs.
    """
    if hi - lo <= block:
        k = int(np.searchsorted(starts, hi))
        x[lo:hi, :k] = forward_substitute(
            l[lo:hi, lo:hi], x[lo:hi, :k], unit_diagonal=unit_diagonal
        )
        return
    mid = (lo + hi) // 2
    _solve_lower(l, x, lo, mid, starts, unit_diagonal, block)
    k = int(np.searchsorted(starts, mid))
    x[mid:hi, :k] -= l[mid:hi, lo:mid] @ x[lo:mid, :k]
    _solve_lower(l, x, mid, hi, starts, unit_diagonal, block)


def _solve_upper(
    u: np.ndarray, x: np.ndarray, lo: int, hi: int, unit_diagonal: bool, block: int
) -> None:
    """Mirror of :func:`_solve_lower` for ``U X = B``, every column active:
    solve U22, ``X1 -= U12 X2``, solve U11."""
    if hi - lo <= block:
        x[lo:hi] = back_substitute(u[lo:hi, lo:hi], x[lo:hi], unit_diagonal=unit_diagonal)
        return
    mid = (lo + hi) // 2
    _solve_upper(u, x, mid, hi, unit_diagonal, block)
    x[lo:mid] -= u[lo:mid, mid:hi] @ x[mid:hi]
    _solve_upper(u, x, lo, mid, unit_diagonal, block)


def blocked_forward_substitute(
    l: np.ndarray,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    block: int = _LEAF,
) -> np.ndarray:
    """Recursive blocked solve of ``L Y = B``.

    The row-by-row kernel issues O(n) small BLAS-1/2 calls; this variant
    recurses on ``L = [[L11, 0], [L21, L22]]`` — solve L11, one big GEMM
    update, solve L22 — turning most of the work into matrix-matrix products
    (the cache-friendly formulation the HPC guides recommend).  Identical
    arithmetic up to roundoff.  It is :func:`_solve_lower` with every column
    active from row 0; :func:`invert_lower_columns` is the same recursion on
    the identity's columns.
    """
    l = _check_square(l, "L")
    n = l.shape[0]
    y, one_d = _rhs_matrix(b, n, "L")
    _solve_lower(l, y, 0, n, np.zeros(y.shape[1], dtype=np.int64), unit_diagonal, block)
    return y[:, 0] if one_d else y


def blocked_back_substitute(
    u: np.ndarray,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    block: int = _LEAF,
) -> np.ndarray:
    """Recursive blocked solve of ``U X = B`` (mirror of the forward case)."""
    u = _check_square(u, "U")
    n = u.shape[0]
    x, one_d = _rhs_matrix(b, n, "U")
    _solve_upper(u, x, 0, n, unit_diagonal, block)
    return x[:, 0] if one_d else x


# -- inversion (Equation 4) ----------------------------------------------------


def invert_lower_columns(l: np.ndarray, columns: np.ndarray | list[int]) -> np.ndarray:
    """Columns ``columns`` of ``L^-1`` via Equation 4.

    Returns an ``n x len(columns)`` array; column *t* of the result is column
    ``columns[t]`` of the inverse.  This is the unit of work of one mapper in
    the final inversion job (Section 5.4 assigns each mapper a strided set of
    columns for load balance).

    Solved as ``L X = I[:, columns]`` by :func:`_solve_lower`: column *c* of
    ``L^-1`` is zero above row *c*, so with the columns in ascending order
    each row block works on a leading slice of ``X`` only, the off-diagonal
    work is one GEMM per level, and Equation 4's row loop runs on the
    ``_LEAF``-row diagonal blocks.  ``columns`` may be unsorted, repeated or
    empty; ``l`` is only read.
    """
    l = _check_square(l, "L")
    cols = np.asarray(columns, dtype=np.int64)
    n = l.shape[0]
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError("column index out of range")
    _check_invertible_diagonal(np.diag(l))
    order = np.argsort(cols, kind="stable")
    starts = cols[order]
    x = np.zeros((n, cols.size))
    x[starts, np.arange(cols.size)] = 1.0  # identity restricted to the columns
    _solve_lower(l, x, 0, n, starts, False, _LEAF)
    if np.array_equal(starts, cols):  # a mapper's share is already ascending
        return x
    out = np.empty_like(x)
    out[:, order] = x
    return out


def invert_lower(l: np.ndarray) -> np.ndarray:
    """Full ``L^-1`` (Equation 4 over all columns)."""
    n = _check_square(l, "L").shape[0]
    return invert_lower_columns(l, np.arange(n))


def invert_upper(u: np.ndarray) -> np.ndarray:
    """``U^-1`` computed through the transposed-lower kernel (Section 6.3:
    the pipeline stores ``U^T`` and inverts it as a lower triangular matrix)."""
    u = _check_square(u, "U")
    return invert_lower(u.T).T


def invert_upper_rows(u: np.ndarray, rows: np.ndarray | list[int]) -> np.ndarray:
    """Rows ``rows`` of ``U^-1`` — one mapper's share in the final job.

    Row *i* of ``U^-1`` is column *i* of ``(U^T)^-1``; computed via the
    column kernel on the transpose and returned as ``len(rows) x n``.
    """
    u = _check_square(u, "U")
    return invert_lower_columns(u.T, rows).T


def triangular_inverse_flop_count(n: int) -> float:
    """Multiplications for inverting one order-n triangular factor (~n^3/6);
    the pair plus the final product totals 2/3 n^3 as in Table 2."""
    return float(n) ** 3 / 6.0
