"""Recursive assembly of the distributed L, U, and P factors.

With the separate-files optimization (Section 6.1), a decomposed block's
factors are never combined on disk: the lower factor of an internal node is

    L = [[ L1,       0  ],
         [ P2 L2',   L3 ]]

with ``L1``/``L3`` recursively assembled from the children and ``L2'`` read
from the node's ``L2/L.<j>`` part files; the row permutation ``P2`` is applied
*as the data is read* ("L2 is constructed only as it is read from HDFS",
Section 5.3).  Analogously ``U = [[U1, U2], [0, U3]]`` and
``P = augment(P1, P2)``.

When the optimization is off, the master combines each internal node's
factors into ``<dir>/OUT/{l.bin, u.bin|ut.bin, p.bin}`` after its subtree
finishes; readers hit those files first, so the same functions serve both
modes (and leaves, whose factors the master writes in the same layout).
"""

from __future__ import annotations

import numpy as np

from ..dfs import formats
from ..linalg import permutation
from ..linalg.lu import LUResult
from .layout import Layout, NodeLayout
from .plan import PlanNode
from .regions import MatrixReader


class FactorReader(MatrixReader):
    """Protocol extension: factor assembly also needs existence checks and
    raw byte reads (for permutation files)."""

    def exists(self, path: str) -> bool: ...

    def read_bytes(self, path: str) -> bytes: ...


def perm_to_bytes(perm: np.ndarray) -> bytes:
    return np.ascontiguousarray(perm, dtype=np.int64).tobytes()


def perm_from_bytes(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.int64).copy()


def write_leaf_factors(
    writer,
    layout_node: NodeLayout,
    lu: LUResult,
    *,
    transpose_u: bool,
) -> None:
    """Persist a master-decomposed block's factors (leaf layout).

    ``writer`` needs ``write_bytes(path, data)``; the unit-diagonal L is
    stored explicitly, U is stored transposed when the Section 6.3
    optimization is on.
    """
    lower = lu.lower()
    upper = lu.upper()
    writer.write_bytes(layout_node.l_path, formats.encode_matrix(lower))
    stored_u = upper.T if transpose_u else upper
    writer.write_bytes(layout_node.u_path, formats.encode_matrix(stored_u))
    writer.write_bytes(layout_node.p_path, perm_to_bytes(lu.perm))


def read_lower(layout: Layout, node: PlanNode, reader, out=None) -> np.ndarray:
    """Assemble the full lower factor of ``node`` (unit diagonal explicit).

    The recursion writes every level straight into one destination: ``out``
    (a ``node.n x node.n`` writable array) when given, else a fresh array —
    or, for a factor stored as a single file, the decoded read-only view.
    ``P2`` comes out of the ``L3`` walk, so each permutation file under the
    right subtree is read once, not once per level.
    """
    return _lower(layout, node, reader, out, with_perm=False)[0]


def read_lower_and_perm(
    layout: Layout, node: PlanNode, reader, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`read_lower` and :func:`read_perm` of ``node`` in one walk, every
    permutation file under it read once."""
    return _lower(layout, node, reader, out, with_perm=True)


def _lower(layout: Layout, node: PlanNode, reader, out, *, with_perm: bool):
    """``(L, P)`` of ``node``; ``P`` is ``None`` unless ``with_perm``."""
    nl = layout.of(node)
    if reader.exists(nl.l_path):
        # Via the reader's matrix method (not raw bytes) so a decoded-block
        # cache on the DFS serves repeated factor reads from memory.
        lower = reader.read_matrix(nl.l_path)
        if out is not None:
            out[...] = lower
            lower = out
        return lower, read_perm(layout, node, reader) if with_perm else None
    if node.is_leaf:
        raise FileNotFoundError(f"leaf factors missing: {nl.l_path}")
    n1 = node.n1
    if out is None:
        out = np.empty((node.n, node.n))
    _, p1 = _lower(layout, node.child1, reader, out[:n1, :n1], with_perm=with_perm)
    l2 = nl.l2.read(reader)
    _, p2 = _lower(layout, node.child2, reader, out[n1:, n1:], with_perm=True)
    out[n1:, :n1] = permutation.apply_rows(p2, l2)
    out[:n1, n1:] = 0.0
    return out, permutation.augment(p1, p2) if with_perm else None


def read_upper(layout: Layout, node: PlanNode, reader, out=None) -> np.ndarray:
    """Assemble the full upper factor of ``node`` (``out`` as in
    :func:`read_lower`)."""
    nl = layout.of(node)
    if reader.exists(nl.u_path):
        stored = reader.read_matrix(nl.u_path)
        if layout.config.transpose_u:
            stored = stored.T
        if out is None:
            return stored
        out[...] = stored
        return out
    if node.is_leaf:
        raise FileNotFoundError(f"leaf factors missing: {nl.u_path}")
    n1 = node.n1
    if out is None:
        out = np.empty((node.n, node.n))
    read_upper(layout, node.child1, reader, out[:n1, :n1])
    nl.u2.read(reader, out[:n1, n1:])
    read_upper(layout, node.child2, reader, out[n1:, n1:])
    out[n1:, :n1] = 0.0
    return out


def read_perm(layout: Layout, node: PlanNode, reader) -> np.ndarray:
    """Assemble the full pivot permutation of ``node`` (compact array S)."""
    nl = layout.of(node)
    if reader.exists(nl.p_path):
        return perm_from_bytes(reader.read_bytes(nl.p_path))
    if node.is_leaf:
        raise FileNotFoundError(f"leaf factors missing: {nl.p_path}")
    return permutation.augment(
        read_perm(layout, node.child1, reader),
        read_perm(layout, node.child2, reader),
    )


def combine_factors(layout: Layout, node: PlanNode, reader, writer) -> int:
    """The *unoptimized* Section 6.1 path: serially combine an internal
    node's factor pieces into single files on the master.

    Returns the number of bytes written (the combine's serial I/O).
    """
    nl = layout.of(node)
    lower, perm = read_lower_and_perm(layout, node, reader)
    upper = read_upper(layout, node, reader)
    l_data = formats.encode_matrix(lower)
    stored_u = upper.T if layout.config.transpose_u else upper
    u_data = formats.encode_matrix(stored_u)
    p_data = perm_to_bytes(perm)
    writer.write_bytes(nl.l_path, l_data)
    writer.write_bytes(nl.u_path, u_data)
    writer.write_bytes(nl.p_path, p_data)
    return len(l_data) + len(u_data) + len(p_data)
