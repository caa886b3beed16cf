"""Tile LU decomposition — the related-work algorithm of Agullo et al. [1]
(Section 3), single-node.

The paper contrasts its recursive split with the *tile* formulation that
"splits the matrix into square submatrices and updates these submatrices
one-by-one".  Implementing it provides (a) an independent blocked
factorization to cross-check the recursive scheme against and (b) the tiled
task structure (GETRF -> TRSM row/column -> GEMM trailing updates) whose
dependency graph is what shared-memory runtimes like QUARK [9] schedule.

Pivoting note: like the paper's block method, tile LU as implemented here
pivots only *within* the diagonal tile (the incremental-pivoting variant of
the tile algorithm), so its numerical domain matches the pipeline's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import permutation
from .blockwrap import contiguous_ranges
from .lu import LUResult, SingularMatrixError, lu_decompose
from .triangular import blocked_forward_substitute


@dataclass
class TileTaskCount:
    """How many kernel tasks of each type the factorization executed — the
    quantity runtime schedulers reason about."""

    getrf: int = 0
    trsm: int = 0
    gemm: int = 0

    @property
    def total(self) -> int:
        return self.getrf + self.trsm + self.gemm


def tile_lu(a: np.ndarray, tile: int = 32) -> tuple[LUResult, TileTaskCount]:
    """Factor ``P A = L U`` tile-by-tile.

    For each diagonal step k: GETRF on tile (k,k) with local pivoting
    (applied across the tile row), TRSM to the tile row of U and tile column
    of L, then GEMM updates on the trailing tiles.  The TRSMs are the
    blocked solves of :mod:`repro.linalg.triangular` (its row loops are the
    tests' reference only).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"tile LU needs a square matrix, got {a.shape}")
    if tile < 1:
        raise ValueError("tile must be >= 1")
    n = a.shape[0]
    lu = a.copy()
    perm = permutation.identity(n)
    ranges = contiguous_ranges(n, max(-(-n // tile), 1))
    counts = TileTaskCount()

    for k, (k1, k2) in enumerate(ranges):
        if k2 <= k1:
            continue
        # GETRF on the diagonal tile, pivoting within the tile's rows but
        # applying the swaps across the whole matrix width.
        diag = lu_decompose(lu[k1:k2, k1:k2])
        counts.getrf += 1
        local_perm = diag.perm
        swap = np.arange(n, dtype=np.int64)
        swap[k1:k2] = k1 + local_perm
        lu[k1:k2, :] = lu[k1 + local_perm, :]
        perm[k1:k2] = perm[k1 + local_perm]
        lu[k1:k2, k1:k2] = diag.lu
        l_kk = diag.lower()
        u_kk = diag.upper()
        if np.any(np.diag(u_kk) == 0.0):
            raise SingularMatrixError(f"singular diagonal tile at step {k}")

        # TRSM row: U[k, j] = L_kk^-1 A[k, j].
        for j1, j2 in ranges[k + 1 :]:
            if j2 <= j1:
                continue
            lu[k1:k2, j1:j2] = blocked_forward_substitute(
                l_kk, lu[k1:k2, j1:j2], unit_diagonal=True
            )
            counts.trsm += 1
        # TRSM column: L[i, k] = A[i, k] U_kk^-1.
        for i1, i2 in ranges[k + 1 :]:
            if i2 <= i1:
                continue
            lu[i1:i2, k1:k2] = blocked_forward_substitute(u_kk.T, lu[i1:i2, k1:k2].T).T
            counts.trsm += 1
        # GEMM trailing updates.
        for i1, i2 in ranges[k + 1 :]:
            for j1, j2 in ranges[k + 1 :]:
                if i2 <= i1 or j2 <= j1:
                    continue
                lu[i1:i2, j1:j2] -= lu[i1:i2, k1:k2] @ lu[k1:k2, j1:j2]
                counts.gemm += 1

    return LUResult(lu=lu, perm=perm), counts


def tile_task_counts(n: int, tile: int) -> TileTaskCount:
    """Closed-form task counts for an order-n matrix: with t = ceil(n/tile)
    tiles per side, GETRF = t, TRSM = t(t-1), GEMM = t(t-1)(2t-1)/6."""
    t = max(-(-n // tile), 1)
    return TileTaskCount(
        getrf=t,
        trsm=t * (t - 1),
        gemm=sum(k * k for k in range(t)),
    )
