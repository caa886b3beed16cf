"""Reading the distributed L, U, and P factors as their stored pieces.

With the separate-files optimization (Section 6.1), a decomposed block's
factors are never combined on disk: the lower factor of an internal node is

    L = [[ L1,       0  ],
         [ P2 L2',   L3 ]]

with ``L1``/``L3`` the children's factors and ``L2'`` the node's
``L2/L.<j>`` part files.  The readers return that tree
(:class:`repro.linalg.triangular.Triangle`) with the parts as decoded views
and ``P2`` alongside, and the triangular kernels solve against it piece by
piece, applying ``P2`` to the rows of each product ("L2 is constructed only
as it is read from HDFS", Section 5.3) — no task builds the dense factor.
Analogously ``U = [[U1, U2], [0, U3]]`` and ``P = augment(P1, P2)``.
:func:`assemble` builds the dense matrix for the callers that return or
write one.

When the optimization is off, the master combines each internal node's
factors after its subtree finishes into ``<dir>/OUT/{l.bin, u.bin|ut.bin,
p.bin}``, the files a leaf's factors are written to as well.  Which of the
two forms a node's factors take is fixed by the configuration
(:attr:`~repro.inversion.layout.NodeLayout.single_files`), so the readers
never ask the DFS; a missing file raises the DFS's own error when read.
:func:`lower_read_paths` and its siblings list the files each walk reads,
for the static model (:mod:`repro.analysis.model`).
"""

from __future__ import annotations

import numpy as np

from ..dfs import formats
from ..linalg import permutation
from ..linalg.lu import LUResult
from ..linalg.triangular import Triangle
from .layout import Layout, NodeLayout
from .plan import PlanNode


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


def read_lower(layout: Layout, node: PlanNode, reader) -> np.ndarray | Triangle:
    """The lower factor of ``node`` (unit diagonal explicit) as the tree of
    its stored pieces, every file read once.

    A factor stored as a single file — a leaf, or a combined node — is its
    decoded read-only view.  Otherwise a :class:`Triangle` of ``L1``, the
    ``L2'`` chunk views and ``L3``, with ``P2`` the permutation of the right
    subtree, applied by whoever uses the block.  ``P2`` comes out of the
    ``L3`` walk, so each permutation file under the right subtree is read
    once, not once per level.  :func:`assemble` makes it dense.
    """
    return _lower(layout, node, reader, with_perm=False)[0]


def read_lower_and_perm(layout: Layout, node: PlanNode, reader) -> tuple:
    """:func:`read_lower` and :func:`read_perm` of ``node`` in one walk, every
    permutation file under it read once."""
    return _lower(layout, node, reader, with_perm=True)


def _lower(layout: Layout, node: PlanNode, reader, *, with_perm: bool, pieces: bool = False):
    """``(L, P)`` of ``node``; ``P`` is ``None`` unless ``with_perm``.  With
    ``pieces`` the node itself is read as its pieces even where its factors
    are single files (:func:`combine_factors`, before it writes them)."""
    nl = layout.of(node)
    if nl.single_files and not pieces:
        # Via the reader's matrix method (not raw bytes) so a decoded-block
        # cache on the DFS serves repeated factor reads from memory.
        lower = reader.read_matrix(nl.l_path)
        return lower, read_perm(layout, node, reader) if with_perm else None
    l1, p1 = _lower(layout, node.child1, reader, with_perm=with_perm)
    chunks = tuple([(b.r1, b.r1 + b.rows, b.read_part(reader)) for b in nl.l2.blocks])
    l3, p2 = _lower(layout, node.child2, reader, with_perm=True)
    lower = Triangle(node.n1, l1, l3, chunks, p2)
    return lower, permutation.augment(p1, p2) if with_perm else None


def read_upper(layout: Layout, node: PlanNode, reader) -> np.ndarray | Triangle:
    """The upper factor of ``node`` as the tree of its stored pieces
    (:func:`read_lower`'s; the ``U2`` chunks are column chunks, and views of
    the stored transposes under Section 6.3)."""
    nl = layout.of(node)
    if nl.single_files:
        stored = reader.read_matrix(nl.u_path)
        return stored.T if layout.config.transpose_u else stored
    return _upper_pieces(layout, node, reader)


def _upper_pieces(layout: Layout, node: PlanNode, reader) -> Triangle:
    """The upper factor of an internal ``node`` as its pieces, whatever
    form its own files take (:func:`combine_factors`, before it writes them)."""
    nl = layout.of(node)
    u1 = read_upper(layout, node.child1, reader)
    chunks = tuple([(b.c1, b.c1 + b.cols, b.read_part(reader)) for b in nl.u2.blocks])
    return Triangle(node.n1, u1, read_upper(layout, node.child2, reader), chunks, lower=False)


def assemble(factor: np.ndarray | Triangle) -> np.ndarray:
    """A factor read by :func:`read_lower` / :func:`read_upper` as one dense
    matrix, for the callers that return or write it whole (``lu()`` and
    :func:`combine_factors`); a single stored file is its read-only view."""
    return factor.dense() if type(factor) is Triangle else factor


def read_perm(layout: Layout, node: PlanNode, reader) -> np.ndarray:
    """Assemble the full pivot permutation of ``node`` (compact array S)."""
    nl = layout.of(node)
    if nl.single_files:
        return perm_from_bytes(reader.read_bytes(nl.p_path))
    return permutation.augment(
        read_perm(layout, node.child1, reader),
        read_perm(layout, node.child2, reader),
    )


def combine_factors(layout: Layout, node: PlanNode, reader, writer) -> int:
    """The *unoptimized* Section 6.1 path: serially combine an internal
    node's factor pieces into single files on the master.

    The node's own files do not exist yet, so it is read as its pieces: its
    children's (combined) factors and its ``L2``/``U2`` parts.  Returns the
    number of bytes written (the combine's serial I/O).
    """
    nl = layout.of(node)
    lower, perm = _lower(layout, node, reader, with_perm=True, pieces=True)
    lower = assemble(lower)
    upper = assemble(_upper_pieces(layout, node, reader))
    l_data = formats.encode_matrix(lower)
    stored_u = upper.T if layout.config.transpose_u else upper
    u_data = formats.encode_matrix(stored_u)
    p_data = perm_to_bytes(perm)
    writer.write_bytes(nl.l_path, l_data)
    writer.write_bytes(nl.u_path, u_data)
    writer.write_bytes(nl.p_path, p_data)
    return len(l_data) + len(u_data) + len(p_data)


# -- the files each walk reads (the static model's read sets) ----------------


def lower_read_paths(layout: Layout, node: PlanNode) -> set[str]:
    """Every path :func:`read_lower` touches: the files of the pieces a
    kernel walks — each child's, the node's ``L2'`` chunks, and the right
    subtree's permutations for ``P2`` — each once."""
    nl = layout.of(node)
    if nl.single_files:
        return {nl.l_path}
    return (
        lower_read_paths(layout, node.child1)
        | set(nl.l2.file_paths())
        | perm_read_paths(layout, node.child2)
        | lower_read_paths(layout, node.child2)
    )


def upper_read_paths(layout: Layout, node: PlanNode) -> set[str]:
    """Every path :func:`read_upper` touches: each child's files and the
    node's ``U2`` chunks, each once."""
    nl = layout.of(node)
    if nl.single_files:
        return {nl.u_path}
    return (
        upper_read_paths(layout, node.child1)
        | set(nl.u2.file_paths())
        | upper_read_paths(layout, node.child2)
    )


def perm_read_paths(layout: Layout, node: PlanNode) -> set[str]:
    """Every path :func:`read_perm` touches (and :func:`read_lower_and_perm`
    adds to :func:`lower_read_paths`)."""
    nl = layout.of(node)
    if nl.single_files:
        return {nl.p_path}
    return perm_read_paths(layout, node.child1) | perm_read_paths(layout, node.child2)


def factor_read_paths(layout: Layout, node: PlanNode) -> set[str]:
    """Union of the L, U, and P read sets of ``node``."""
    return (
        lower_read_paths(layout, node)
        | upper_read_paths(layout, node)
        | perm_read_paths(layout, node)
    )
