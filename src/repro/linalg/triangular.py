"""Triangular inversion and substitution — Equation 4 of the paper.

The inverse of a lower triangular matrix is computed row by row:

    [L^-1]_ii = 1 / [L]_ii
    [L^-1]_ij = -(1/[L]_ii) * sum_{k=j}^{i-1} [L]_ik [L^-1]_kj   (i > j)

A column of the inverse depends only on earlier rows of the *same* column, so
columns are independent — this is what Section 4.3 parallelizes across
mappers.  :func:`invert_lower_columns` computes an arbitrary column subset,
which is exactly a map task's share; :func:`invert_lower` is the full-matrix
convenience built on the same kernel.

What is verbatim and what is blocked.  Verbatim: Equation 4 itself is
:func:`forward_substitute` applied to the identity's columns, one row at a
time — kept as the reference the tests compare against and called from no
``src/`` path — and the mappers' column sets and the flop count they report
(Table 2) are the paper's.  Blocked: the arithmetic inside one task is
scheduled for BLAS-3.  Equation 4 is forward substitution on
``L X = I[:, columns]``, and there is one blocked recursion for forward
substitution in this module, :func:`_solve_lower`: split
``L = [[L11, 0], [L21, L22]]`` on a grid of ``_LEAF``-row blocks, solve the
top half, fold it into the bottom half with one GEMM, solve the bottom half.
A single ``_LEAF``-row diagonal block is solved by GEMMs too
(:func:`_leaf_solve`): the inverses of *all* diagonal blocks of a factor are
computed once per kernel call as one stack (:func:`_leaf_blocks` — Equation 4
on 1x1 blocks, then the 2x2 block-inverse identity at half-widths 1, 2, 4,
..., batched over the stack), so no Python loop runs over rows.  Column *c*
of ``L^-1`` is zero above row *c*, so with the columns in ascending order
every step works on a leading slice of ``X`` and the zeros are never
multiplied.  :func:`blocked_forward_substitute` is the same recursion with
every column active from row 0.  The result is that of the row loop up to
roundoff.

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
    """Solve ``L y = b`` for lower-triangular ``L`` (b may have many columns).

    Equation 4's row loop, one GEMV per row: the reference the tests hold the
    blocked kernels to.  No ``src/`` path calls it."""
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
    """Solve ``U x = b`` for upper-triangular ``U`` (row loop; like
    :func:`forward_substitute`, the tests' reference only)."""
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

# Rows of the diagonal blocks solved by GEMMs with their inverse instead of
# being split further; chosen from the measured accuracy/speed table in
# docs/performance.md ("The leaves"), not a tuning knob.
_LEAF = 32


def _leaf_blocks(l: np.ndarray, block: int, unit_diagonal: bool) -> tuple[np.ndarray, int]:
    """The diagonal blocks of lower-triangular ``l`` and their inverses as one
    ``(2, m, p, p)`` array (``[0]`` the blocks, ``[1]`` the inverses), and the
    rows per block: ``block``, or all of a factor smaller than that, which
    does not pay for a full block.  Every check runs before any arithmetic.

    Only the lower triangle of ``l`` is read; ``unit_diagonal`` overrides its
    diagonal.  ``p`` is the power of two at or above the block width, and all
    padding is the identity, its own inverse.  Equation 4 on 1x1 blocks is a
    reciprocal; from there ``[[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]]`` doubles the width of every finished inverse of the stack at once
    (two batched ``matmul`` per level, ``log2 p`` levels), in place: at
    half-width ``h`` the ``C`` corners still hold ``l``.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    if not unit_diagonal:
        _check_invertible_diagonal(np.diag(l))
    n = l.shape[0]
    leaf = max(min(block, n), 1)
    p = 1 << (leaf - 1).bit_length()
    m = -(-n // leaf)
    pair = np.zeros((2, m, p, p))
    diag = np.einsum("aii->ai", pair[0])
    diag[...] = 1.0
    for i, lo in enumerate(range(0, n, leaf)):
        hi = min(lo + leaf, n)
        pair[0, i, : hi - lo, : hi - lo] = l[lo:hi, lo:hi]
    if unit_diagonal:
        diag[...] = 1.0
    pair[:] = np.tril(pair[0])
    inv = pair[1]
    np.einsum("aii->ai", inv)[...] = 1.0 / diag
    h = 1
    while h < p:
        q = p // (2 * h)
        # writable (m, q, 2h, 2h) view of the 2h-wide diagonal blocks
        blocks = np.einsum("aibic->aibc", inv.reshape(m, q, 2 * h, q, 2 * h))
        a, c, d = blocks[..., :h, :h], blocks[..., h:, :h], blocks[..., h:, h:]
        c[...] = -(d @ c @ a)
        h *= 2
    return pair, leaf


def _leaf_solve(tri: np.ndarray, inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tri^-1 b`` for one leaf block: a GEMM with the inverse, then one
    step of iterative refinement against the block itself.  ``inv @ b`` alone
    leaves a residual that grows with the block's condition number; the
    correction brings it back to substitution's (docs/performance.md)."""
    y = inv @ b
    y += inv @ (b - tri @ y)
    return y


def _solve_lower(
    l: np.ndarray,
    x: np.ndarray,
    leaves: np.ndarray,
    leaf: int,
    b0: int,
    b1: int,
    starts: np.ndarray,
) -> None:
    """Overwrite leaf blocks ``b0:b1`` of ``x`` (rows ``b0 * leaf`` up to
    ``b1 * leaf``) with those of the solution of ``L X = B``, given the rows
    above already solved and folded in.

    ``starts`` is ascending; column *t* of ``B`` is zero above row
    ``starts[t]``, so the solution is too, and at rows ``lo:hi`` only the
    leading ``searchsorted(starts, hi)`` columns are touched.  The recursion
    is on ``L = [[L11, 0], [L21, L22]]``, split on the leaf grid: solve L11,
    one GEMM ``X2 -= L21 X1`` over the columns already started above ``mid``,
    solve L22 — depth first, so the working set is one half-block (Cosme et
    al.).  A single leaf is :func:`_leaf_solve` with block ``b0`` of
    ``leaves`` (:func:`_leaf_blocks`).  A module-level function on purpose: a
    self-recursive closure is a reference cycle that keeps ``l`` and ``x``
    alive until the cyclic collector runs.
    """
    lo, hi = b0 * leaf, min(b1 * leaf, l.shape[0])
    if b1 - b0 == 1:
        k = int(np.searchsorted(starts, hi))
        tri, inv = leaves[:, b0, : hi - lo, : hi - lo]
        x[lo:hi, :k] = _leaf_solve(tri, inv, x[lo:hi, :k])
        return
    bm = (b0 + b1) // 2
    mid = bm * leaf
    _solve_lower(l, x, leaves, leaf, b0, bm, starts)
    k = int(np.searchsorted(starts, mid))
    x[mid:hi, :k] -= l[mid:hi, lo:mid] @ x[lo:mid, :k]
    _solve_lower(l, x, leaves, leaf, bm, b1, starts)


def _solve_upper(
    u: np.ndarray, x: np.ndarray, leaves: np.ndarray, leaf: int, b0: int, b1: int
) -> None:
    """Mirror of :func:`_solve_lower` for ``U X = B``, every column active:
    solve U22, ``X1 -= U12 X2``, solve U11.  ``leaves`` are those of ``U^T``,
    so a leaf applies them transposed."""
    lo, hi = b0 * leaf, min(b1 * leaf, u.shape[0])
    if b1 - b0 == 1:
        tri, inv = leaves[:, b0, : hi - lo, : hi - lo]
        x[lo:hi] = _leaf_solve(tri.T, inv.T, x[lo:hi])
        return
    bm = (b0 + b1) // 2
    mid = bm * leaf
    _solve_upper(u, x, leaves, leaf, bm, b1)
    x[lo:mid] -= u[lo:mid, mid:hi] @ x[mid:hi]
    _solve_upper(u, x, leaves, leaf, b0, bm)


def _forward_in_place(
    l: np.ndarray, x: np.ndarray, starts: np.ndarray, unit_diagonal: bool, block: int = _LEAF
) -> None:
    """Overwrite ``x`` with the solution of ``L X = x`` (``starts`` as in
    :func:`_solve_lower`)."""
    leaves, leaf = _leaf_blocks(l, block, unit_diagonal)
    if len(x):
        _solve_lower(l, x, leaves, leaf, 0, leaves.shape[1], starts)


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
    update, solve L22 — and solves a ``block``-row diagonal block by GEMMs
    with its inverse (:func:`_leaf_solve`), so all of the work is
    matrix-matrix products.  Same solution up to roundoff.  It is
    :func:`_solve_lower` with every column active from row 0;
    :func:`invert_lower_columns` is the same recursion on the identity's
    columns.  Only the lower triangle of ``l`` is read.
    """
    l = _check_square(l, "L")
    y, one_d = _rhs_matrix(b, l.shape[0], "L")
    _forward_in_place(l, y, np.zeros(y.shape[1], dtype=np.int64), unit_diagonal, block)
    return y[:, 0] if one_d else y


def blocked_back_substitute(
    u: np.ndarray,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    block: int = _LEAF,
) -> np.ndarray:
    """Recursive blocked solve of ``U X = B`` (mirror of the forward case;
    only the upper triangle of ``u`` is read)."""
    u = _check_square(u, "U")
    x, one_d = _rhs_matrix(b, u.shape[0], "U")
    leaves, leaf = _leaf_blocks(u.T, block, unit_diagonal)
    if len(x):
        _solve_upper(u, x, leaves, leaf, 0, leaves.shape[1])
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
    work is one GEMM per level, and the ``_LEAF``-row diagonal blocks are
    solved by :func:`_leaf_solve`.  ``columns`` may be unsorted, repeated or
    empty; ``l`` is only read.
    """
    l = _check_square(l, "L")
    cols = np.asarray(columns, dtype=np.int64)
    n = l.shape[0]
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError("column index out of range")
    order = np.argsort(cols, kind="stable")
    starts = cols[order]
    x = np.zeros((n, cols.size))
    x[starts, np.arange(cols.size)] = 1.0  # identity restricted to the columns
    _forward_in_place(l, x, starts, False)
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
