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
substitution in this module, :func:`_forward_in_place`: split
``L = [[L11, 0], [L21, L22]]``, solve the top half, fold it into the bottom
half with GEMMs, solve the bottom half.  ``L`` is a dense array or a
:class:`Triangle`, the tree of a factor's stored pieces (Section 6.1: the
pipeline never combines them): a tree node splits where the plan split it,
and its ``L21`` is folded in one GEMM per stored chunk with the row
permutation ``P2`` applied to the product rows; a dense block splits on a
grid of ``_LEAF``-row blocks.  A node of at most ``_LEAF`` rows is one leaf,
solved in place on its rows of ``X`` by one BLAS ``dtrsm`` call from the
OpenBLAS numpy already loads (:mod:`._openblas`), so no Python loop runs
over rows.  Where numpy's BLAS exports no ``dtrsm`` (Accelerate, MKL), the
leaves are solved by GEMMs instead (:func:`_leaf_solve`): the inverses of
*all* diagonal blocks of a factor are computed once per kernel call as one
stack (:func:`_leaf_blocks` — Equation 4 on 1x1 blocks, then the 2x2
block-inverse identity at half-widths 1, 2, 4, ..., batched over the
stack).  :class:`_Leaves` is the one place the two leaf kernels differ, and
it checks the factor's diagonal before either runs.  Column *c* of ``L^-1``
is zero above row *c*, so with the columns in ascending order every step
works on a leading slice of ``X`` and the zeros are never multiplied.
:func:`blocked_forward_substitute` is the same recursion with every column
active from row 0.  The result is that of the row loop up to roundoff.

Upper-triangular inversion reuses the lower kernel on the transpose
(Section 6.3: the implementation always stores ``U`` transposed), so
``U^-1 = (invert_lower(U^T))^T``.
"""

from __future__ import annotations

import numpy as np

from . import _openblas


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
    """Raise ``LinAlgError`` naming the first entry of ``diag`` (a factor's
    whole diagonal) that is zero or not finite.  The one check of every
    kernel here, run before any arithmetic: ``dtrsm`` checks nothing, and an
    infinite or NaN diagonal would otherwise come back as NaNs."""
    if diag.all() and np.isfinite(diag).all():
        return
    i = int(np.argmax((diag == 0.0) | ~np.isfinite(diag)))
    kind = "zero" if diag[i] == 0.0 else "non-finite"
    raise np.linalg.LinAlgError(f"triangular matrix singular: {kind} diagonal at {i}")


def _rhs_matrix(b: np.ndarray, n: int, what: str) -> tuple[np.ndarray, bool]:
    """Private row-major float64 ``n x k`` copy of a right-hand side (and
    whether it was a vector).  Row-major whatever ``b`` is: every blocked
    update then reads and writes whole rows of it, not strided columns."""
    x = np.array(b, dtype=np.float64, order="C")
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

# Rows of the diagonal blocks solved as one leaf instead of being split
# further, by either leaf kernel; chosen from the measured accuracy/speed
# table in docs/performance.md ("The triangular leaves are compiled"), not a
# tuning knob.
_LEAF = 64


class Triangle:
    """A triangular matrix held as the tree of its stored pieces.

    ``[[T1, 0], [T21, T2]]`` (``lower``) or ``[[T1, T12], [0, T2]]``, split
    after ``n1`` rows: the diagonal children ``child1`` / ``child2`` are
    dense arrays or trees themselves, and the off-diagonal block is kept as
    the ``chunks`` it is stored in — ``(lo, hi, piece)`` holds its rows
    ``lo:hi`` (``lower``) or its columns ``lo:hi`` of the stacked pieces.
    With ``perm``, row ``i`` (column ``i``) of the block is row ``perm[i]``
    of the stacked pieces: ``T21 = P2 L2'`` of Section 5.3, where ``P2``
    is applied as the block is used.  The pieces are only read, so they may
    be read-only views of decoded files.  A dense array is the one-leaf tree.
    """

    __slots__ = ("shape", "n1", "child1", "child2", "chunks", "perm", "lower")

    def __init__(
        self,
        n1: int,
        child1: "np.ndarray | Triangle",
        child2: "np.ndarray | Triangle",
        chunks: tuple,
        perm: np.ndarray | None = None,
        *,
        lower: bool = True,
    ) -> None:
        n = n1 + child2.shape[0]
        self.shape = (n, n)
        self.n1 = n1
        self.child1 = child1
        self.child2 = child2
        self.chunks = chunks
        self.perm = perm
        self.lower = lower

    @property
    def T(self) -> "Triangle":
        """The transpose, as a tree of the same pieces (transposed views)."""
        return Triangle(
            self.n1,
            self.child1.T,
            self.child2.T,
            tuple([(lo, hi, piece.T) for lo, hi, piece in self.chunks]),
            self.perm,
            lower=not self.lower,
        )

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The assembled matrix, written into ``out`` (a writable ``n x n``
        array) when given, else into a fresh array."""
        n1 = self.n1
        if out is None:
            out = np.empty(self.shape)
        for child, dest in ((self.child1, out[:n1, :n1]), (self.child2, out[n1:, n1:])):
            if type(child) is Triangle:
                child.dense(dest)
            else:
                dest[...] = child
        off = out[n1:, :n1] if self.lower else out[:n1, n1:].T
        (out[:n1, n1:] if self.lower else out[n1:, :n1])[...] = 0.0
        stacked = off if self.perm is None else np.empty(off.shape)
        for lo, hi, piece in self.chunks:
            stacked[lo:hi] = piece if self.lower else piece.T
        if self.perm is not None:
            off[...] = stacked[self.perm]
        return out


def _lower_operand(l) -> "np.ndarray | Triangle":
    if type(l) is Triangle:
        if not l.lower:
            raise TriangularShapeError("an upper Triangle is solved through its transpose")
        return l
    return _check_square(l, "L")


def _walk(l, origin: int, block: int, steps: list, diag: list) -> None:
    """Append the steps of solving with lower ``l`` (rows ``origin`` on of
    the whole) to ``steps``, in the order the depth-first recursion takes
    them, and the diagonal blocks its leaf steps solve to ``diag``.

    At a tree node of more than ``block`` rows: child 1, one update with
    the node's stored chunks and ``P2``, child 2.  A node of at most ``block`` rows is assembled and
    solved as one leaf; a dense block is split on its own ``block``-row grid
    (:func:`_walk_dense`).  A module-level function on purpose: a
    self-recursive closure is a reference cycle that keeps the operand alive
    until the cyclic collector runs.
    """
    if type(l) is Triangle:
        if l.shape[0] > block:
            mid = origin + l.n1
            _walk(l.child1, origin, block, steps, diag)
            steps.append((origin, mid, origin + l.shape[0], l.chunks, l.perm))
            _walk(l.child2, mid, block, steps, diag)
            return
        l = l.dense()
    if len(l):
        _walk_dense(l, origin, block, 0, -(-len(l) // block), steps, diag)


def _walk_dense(
    l: np.ndarray, origin: int, leaf: int, b0: int, b1: int, steps: list, diag: list
) -> None:
    """:func:`_walk` on leaf blocks ``b0:b1`` of a dense ``l``: split
    ``[[L11, 0], [L21, L22]]`` on the leaf grid, solve L11, one GEMM
    ``X2 -= L21 X1``, solve L22."""
    lo, hi = b0 * leaf, min(b1 * leaf, len(l))
    if b1 - b0 == 1:
        steps.append((origin + lo, origin + hi))
        diag.append((origin + lo, l[lo:hi, lo:hi]))
        return
    bm = (b0 + b1) // 2
    mid = bm * leaf
    _walk_dense(l, origin, leaf, b0, bm, steps, diag)
    steps.append((origin + lo, origin + mid, origin + hi, ((0, hi - mid, l[mid:hi, lo:mid]),), None))
    _walk_dense(l, origin, leaf, bm, b1, steps, diag)


def _leaf_blocks(diag: list, unit_diagonal: bool) -> np.ndarray:
    """The fallback leaf kernel's stack: the diagonal blocks ``diag``
    (``(row, block)`` pairs, lower triangular) and their inverses as one
    ``(2, m, p, p)`` array (``[0]`` the blocks, ``[1]`` the inverses).

    Only the lower triangle of each block is read; ``unit_diagonal``
    overrides its diagonal.  ``p`` is the power of two at or above the
    widest block, and all padding is the identity, its own inverse.
    Equation 4 on 1x1 blocks is a reciprocal; from there ``[[A, 0], [C,
    D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]`` doubles the width of every
    finished inverse of the stack at once (two batched ``matmul`` per level,
    ``log2 p`` levels), in place: at half-width ``h`` the ``C`` corners
    still hold the blocks.
    """
    m = len(diag)
    p = 1 << (max([len(b) for _, b in diag], default=1) - 1).bit_length()
    pair = np.zeros((2, m, p, p))
    diagonal = np.einsum("aii->ai", pair[0])
    diagonal[...] = 1.0
    for i, (_, b) in enumerate(diag):
        pair[0, i, : len(b), : len(b)] = b
    if unit_diagonal:
        diagonal[...] = 1.0
    pair[:] = np.tril(pair[0])
    inv = pair[1]
    np.einsum("aii->ai", inv)[...] = 1.0 / diagonal
    h = 1
    while h < p:
        q = p // (2 * h)
        # writable (m, q, 2h, 2h) view of the 2h-wide diagonal blocks
        blocks = np.einsum("aibic->aibc", inv.reshape(m, q, 2 * h, q, 2 * h))
        a, c, d = blocks[..., :h, :h], blocks[..., h:, :h], blocks[..., h:, h:]
        c[...] = -(d @ c @ a)
        h *= 2
    return pair


def _leaf_solve(tri: np.ndarray, inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tri^-1 b`` for one leaf block of the fallback kernel: a GEMM with
    the inverse, then one step of iterative refinement against the block
    itself.  ``inv @ b`` alone leaves a residual that grows with the block's
    condition number; the correction brings it back to substitution's
    (docs/performance.md)."""
    y = inv @ b
    y += inv @ (b - tri @ y)
    return y


class _Leaves:
    """The leaf step of one kernel call.

    ``diag`` holds the ``(row, block)`` diagonal blocks the recursion
    solves as leaves, lower triangular, in order and together covering the
    factor's rows from 0.  On construction the factor's diagonal is checked
    (:func:`_check_invertible_diagonal`, skipped for ``unit_diagonal``)
    before any arithmetic, and the leaf kernel is chosen: one in-place
    ``dtrsm`` per leaf where numpy's OpenBLAS exports it
    (:mod:`._openblas`), else the :func:`_leaf_blocks` stack and
    :func:`_leaf_solve`.  This is the only place the two kernels differ.
    """

    __slots__ = ("diag", "unit_diagonal", "stack")

    def __init__(self, diag: list, unit_diagonal: bool) -> None:
        if diag and not unit_diagonal:
            _check_invertible_diagonal(np.concatenate([b.diagonal() for _, b in diag]))
        self.diag = diag
        self.unit_diagonal = unit_diagonal
        self.stack = None if _openblas.DTRSM is not None else _leaf_blocks(diag, unit_diagonal)

    def solve(self, i: int, b: np.ndarray, transpose: bool = False) -> None:
        """Overwrite ``b`` with ``L^-1 b`` (with ``transpose``, ``L^-T b``),
        ``L`` leaf ``i``."""
        if self.stack is None:
            _openblas.trsm(self.diag[i][1], b, self.unit_diagonal, transpose)
            return
        tri, inv = self.stack[:, i, : len(b), : len(b)]
        b[...] = _leaf_solve(tri.T, inv.T, b) if transpose else _leaf_solve(tri, inv, b)


def _solve_upper(
    u: np.ndarray, x: np.ndarray, leaves: _Leaves, leaf: int, b0: int, b1: int
) -> None:
    """Overwrite leaf blocks ``b0:b1`` of ``x`` with those of the solution of
    ``U X = B``, every column active: solve U22, ``X1 -= U12 X2``, solve
    U11.  ``leaves`` are those of ``U^T``, so a leaf applies them transposed."""
    lo, hi = b0 * leaf, min(b1 * leaf, u.shape[0])
    if b1 - b0 == 1:
        leaves.solve(b0, x[lo:hi], transpose=True)
        return
    bm = (b0 + b1) // 2
    mid = bm * leaf
    _solve_upper(u, x, leaves, leaf, bm, b1)
    x[lo:mid] -= u[lo:mid, mid:hi] @ x[mid:hi]
    _solve_upper(u, x, leaves, leaf, b0, bm)


def _forward_in_place(
    l: np.ndarray | Triangle,
    x: np.ndarray,
    starts: np.ndarray,
    unit_diagonal: bool,
    block: int = _LEAF,
) -> None:
    """Overwrite ``x`` with the solution of ``L X = x``, ``L`` dense or a
    lower :class:`Triangle`.

    ``starts`` is ascending; column *t* of ``x`` is zero above row
    ``starts[t]``, so the solution is too, and a step ending at row ``hi``
    touches only the leading ``searchsorted(starts, hi)`` columns.  The
    steps are :func:`_walk`'s: a leaf is the :class:`_Leaves` step on its
    rows of ``x`` (one ``dtrsm``); an update is one GEMM per chunk of the
    off-diagonal block, ``X2 -= P2 (chunk X1)`` — depth first, so the
    working set is one half-block (Cosme et al.).
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    steps: list = []
    diag: list = []
    _walk(l, 0, block, steps, diag)
    leaves = _Leaves(diag, unit_diagonal)
    i = 0
    for step in steps:
        if len(step) == 2:
            lo, hi = step
            leaves.solve(i, x[lo:hi, : int(np.searchsorted(starts, hi))])
            i += 1
        else:
            lo, mid, hi, chunks, perm = step
            k = int(np.searchsorted(starts, mid))
            x1 = x[lo:mid, :k]
            if perm is None:
                for a, b, piece in chunks:
                    x[mid + a : mid + b, :k] -= piece @ x1
            else:
                products = np.empty((hi - mid, k))
                for a, b, piece in chunks:
                    np.matmul(piece, x1, out=products[a:b])
                x[mid:hi, :k] -= products[perm]


def blocked_forward_substitute(
    l: np.ndarray | Triangle,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    block: int = _LEAF,
) -> np.ndarray:
    """Recursive blocked solve of ``L Y = B``, ``L`` dense or a lower
    :class:`Triangle`.

    The row-by-row kernel issues O(n) small BLAS-1/2 calls; this variant
    recurses on ``L = [[L11, 0], [L21, L22]]`` — solve L11, one GEMM update
    per stored chunk of L21, solve L22 — and solves a ``block``-row diagonal
    block with one ``dtrsm`` (:class:`_Leaves`), so all of the work is
    BLAS-3.  Same solution up to roundoff.  It is
    :func:`_forward_in_place` with every column active from row 0;
    :func:`invert_lower_columns` is the same recursion on the identity's
    columns.  Only the lower triangle of ``l`` is read.
    """
    l = _lower_operand(l)
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
    if block < 1:
        raise ValueError("block must be >= 1")
    n = len(u)
    leaf = max(min(block, n), 1)
    lower = u.T
    diag = [(lo, lower[lo : lo + leaf, lo : lo + leaf]) for lo in range(0, n, leaf)]
    if n:
        _solve_upper(u, x, _Leaves(diag, unit_diagonal), leaf, 0, len(diag))
    return x[:, 0] if one_d else x


# -- inversion (Equation 4) ----------------------------------------------------


def invert_lower_columns(l: np.ndarray | Triangle, columns: np.ndarray | list[int]) -> np.ndarray:
    """Columns ``columns`` of ``L^-1`` via Equation 4.

    Returns an ``n x len(columns)`` array; column *t* of the result is column
    ``columns[t]`` of the inverse.  This is the unit of work of one mapper in
    the final inversion job (Section 5.4 assigns each mapper a strided set of
    columns for load balance).

    Solved as ``L X = I[:, columns]`` by :func:`_forward_in_place`: column
    *c* of ``L^-1`` is zero above row *c*, so with the columns in ascending
    order each row block works on a leading slice of ``X`` only, the
    off-diagonal work is one GEMM per stored chunk per level, and each
    ``_LEAF``-row diagonal block is one :class:`_Leaves` step.  ``l``
    is dense or a lower :class:`Triangle`, and is only read; ``columns`` may
    be unsorted, repeated or empty.
    """
    l = _lower_operand(l)
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


def invert_upper_rows(u: np.ndarray | Triangle, rows: np.ndarray | list[int]) -> np.ndarray:
    """Rows ``rows`` of ``U^-1`` — one mapper's share in the final job.

    Row *i* of ``U^-1`` is column *i* of ``(U^T)^-1``; computed via the
    column kernel on the transpose (of the dense ``u`` or of an upper
    :class:`Triangle`) and returned as ``len(rows) x n``.
    """
    if type(u) is not Triangle:
        u = _check_square(u, "U")
    return invert_lower_columns(u.T, rows).T


def triangular_inverse_flop_count(n: int) -> float:
    """Multiplications for inverting one order-n triangular factor (~n^3/6);
    the pair plus the final product totals 2/3 n^3 as in Table 2."""
    return float(n) ** 3 / 6.0
