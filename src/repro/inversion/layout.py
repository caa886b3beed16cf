"""Deterministic DFS layout of every file the pipeline touches (Figure 4).

Given ``(n, nb, m0, optimization flags)`` the entire directory structure —
which mapper writes which file, which worker reads which files — is computed
up front, exactly as the paper precomputes its pipeline.  Because the layout
is a pure function of the configuration, mappers, reducers, and the master
all derive the same file map with no synchronization (Section 5.2: "no two
mappers write data into the same file ... synchronization on file writes is
never required").

Naming follows Figure 4:

* internal input-node directories hold ``A2/A.<i>.<jc>``, ``A3/A.<i>``,
  ``A4/A.<i>.<jc>`` written by the partition job;
* leaf input-node directories hold the block's rows as ``A.<i>``;
* every internal node's job writes ``L2/L.<j>``, ``U2/U.<j>`` and the Schur
  complement ``OUT/A.<j1>.<j2>``;
* factors of a decomposed block live at ``<dir>/OUT/{l.bin, u.bin|ut.bin,
  p.bin}`` — written by the master for leaves, and by the combining step for
  internal nodes when the separate-files optimization is disabled.  Which of
  the two a node's factors are — those single files, or the tree of its
  children's factors and its own ``L2``/``U2`` parts — is
  :attr:`NodeLayout.single_files`, fixed by the configuration like the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..linalg.blockwrap import contiguous_ranges
from .config import InversionConfig
from .plan import InversionPlan, PlanNode
from .regions import BlockRef, Region


def factor_paths(node_dir: str, *, transpose_u: bool) -> tuple[str, str, str]:
    """(L, U, perm) file paths for a decomposed block's combined factors."""
    u_name = "ut.bin" if transpose_u else "u.bin"
    return (
        f"{node_dir}/OUT/l.bin",
        f"{node_dir}/OUT/{u_name}",
        f"{node_dir}/OUT/p.bin",
    )


def _chunk_files(
    dir_prefix: str,
    row_ranges: list[tuple[int, int, int]],
    col_ranges: list[tuple[int, int, int]] | None,
    region_rows: int,
    region_cols: int,
    *,
    transposed: bool = False,
    stem: str = "A",
) -> Region:
    """Build a region tiled by ``<stem>.<i>[.<jc>]`` chunk files.

    ``row_ranges`` / ``col_ranges`` are ``(index, start, stop)`` in region
    coordinates; a ``None`` col_ranges means full-width single-index files.
    """
    refs: list[BlockRef] = []
    for i, r1, r2 in row_ranges:
        if r2 <= r1:
            continue
        if col_ranges is None:
            path = f"{dir_prefix}/{stem}.{i}"
            fr, fc = (r2 - r1, region_cols) if not transposed else (region_cols, r2 - r1)
            refs.append(
                BlockRef(
                    path=path,
                    r1=r1,
                    c1=0,
                    rows=r2 - r1,
                    cols=region_cols,
                    file_rows=fr,
                    file_cols=fc,
                    transposed=transposed,
                )
            )
            continue
        for jc, c1, c2 in col_ranges:
            if c2 <= c1:
                continue
            path = f"{dir_prefix}/{stem}.{i}.{jc}"
            fr, fc = (r2 - r1, c2 - c1) if not transposed else (c2 - c1, r2 - r1)
            refs.append(
                BlockRef(
                    path=path,
                    r1=r1,
                    c1=c1,
                    rows=r2 - r1,
                    cols=c2 - c1,
                    file_rows=fr,
                    file_cols=fc,
                    transposed=transposed,
                )
            )
    return Region(region_rows, region_cols, tuple(refs))


def _share(n: int, parts: int, part: int, wrap: bool) -> range:
    """Indices of ``0..n`` owned by ``part`` of ``parts``: strided under block
    wrap (Section 5.4), a contiguous range otherwise."""
    if wrap:
        return range(part, n, parts)
    return range(*contiguous_ranges(n, parts)[part])


class SchurCell(NamedTuple):
    """What one LU reducer reads and writes: its rows of ``L2'``, columns of
    ``U2`` and cell of ``A4``, and the ``OUT`` file of ``B = A4 - L2' U2``
    it computes from them."""

    path: str
    l2: Region
    u2: Region
    a4: Region


class LUTaskRegions(NamedTuple):
    """What each task of one node's LU job reads, cut from the node's
    regions (Section 5.2's recorded indices): L-side mapper j's rows of
    ``A3``, U-side mapper j's columns of ``A2`` and reducer p's cell;
    ``None`` where a share is empty."""

    a3_rows: tuple[Region | None, ...]
    a2_cols: tuple[Region | None, ...]
    cells: tuple[SchurCell | None, ...]


@dataclass
class NodeLayout:
    """Everything one plan node's tasks need to locate their data."""

    node: PlanNode
    # Inputs of this node's LU job (internal nodes only).
    a2: Region | None = None
    a3: Region | None = None
    a4: Region | None = None
    # Where this node's full matrix can be read (leaves; schur internals keep
    # it for sub-slicing).
    matrix: Region | None = None
    # Outputs of this node's LU job (internal nodes only).
    l2: Region | None = None
    u2: Region | None = None
    out: Region | None = None
    # Combined/leaf factor files.
    l_path: str = ""
    u_path: str = ""
    p_path: str = ""
    # Whether the node's factors are read from those three files: always for
    # a leaf (the master writes them), and for an internal node when the
    # Section 6.1 separate-files optimization is off (its combine step
    # writes them).  Otherwise they are read as the tree of their pieces.
    single_files: bool = True


class Layout:
    """Layout of the whole pipeline, indexed by node directory."""

    def __init__(self, plan: InversionPlan, config: InversionConfig, total_n: int) -> None:
        self.plan = plan
        self.config = config
        self.total_n = total_n
        self.by_dir: dict[str, NodeLayout] = {}
        self._build(plan.tree, source=None)
        # Node directory -> its LU job's task regions, cut on first use.
        self._lu_regions: dict[str, LUTaskRegions] = {}
        # The final job's shares (Section 5.4): the columns of L^-1 each
        # L-side mapper computes, the rows of U^-1 each U-side mapper does,
        # and each reducer's (rows of U^-1, columns of L^-1).
        n, wrap = plan.tree.n, config.block_wrap
        mhalf, uhalf = config.mhalf, config.m0 - config.mhalf
        self.l_shares = tuple(_share(n, mhalf, j, wrap) for j in range(mhalf))
        self.u_shares = tuple(_share(n, uhalf, i, wrap) for i in range(uhalf))
        if wrap:
            f1, f2 = config.grid
            self.reducer_shares = tuple(
                (_share(n, f1, j1, True), _share(n, f2, j2, True))
                for j1, j2 in (divmod(p, f2) for p in range(config.m0))
            )
        else:
            self.reducer_shares = tuple(
                (_share(n, config.m0, p, False), range(n)) for p in range(config.m0)
            )

    # -- chunk helpers --------------------------------------------------------

    def mapper_row_ranges(self) -> list[tuple[int, int]]:
        """Global row share of each partition mapper (Section 5.2: worker j
        reads rows n*j/m0 .. n*(j+1)/m0)."""
        return contiguous_ranges(self.total_n, self.config.m0)

    def _intersect_mappers(self, row0: int, rows: int) -> list[tuple[int, int, int]]:
        """Partition-mapper chunks intersected with global rows
        ``[row0, row0+rows)``, returned as node-local ``(mapper, start, stop)``."""
        out: list[tuple[int, int, int]] = []
        for i, (g1, g2) in enumerate(self.mapper_row_ranges()):
            o1, o2 = max(g1, row0), min(g2, row0 + rows)
            if o1 < o2:
                out.append((i, o1 - row0, o2 - row0))
        return out

    @staticmethod
    def _indexed(ranges: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
        return [(i, a, b) for i, (a, b) in enumerate(ranges)]

    # -- construction ----------------------------------------------------------

    def _build(self, node: PlanNode, source: Region | None) -> None:
        cfg = self.config
        nl = NodeLayout(node=node)
        nl.l_path, nl.u_path, nl.p_path = factor_paths(
            node.dir, transpose_u=cfg.transpose_u
        )
        nl.single_files = node.is_leaf or not cfg.separate_files
        self.by_dir[node.dir] = nl

        if node.is_leaf:
            if node.kind == "input":
                nl.matrix = _chunk_files(
                    node.dir,
                    self._intersect_mappers(node.row0, node.n),
                    None,
                    node.n,
                    node.n,
                )
            else:
                nl.matrix = source
            return

        n1, n2 = node.n1, node.n2
        if node.kind == "input":
            # Materialized by the partition job (Algorithm 3).
            nl.a2 = _chunk_files(
                f"{node.dir}/A2",
                self._intersect_mappers(node.row0, n1),
                self._indexed(contiguous_ranges(n2, cfg.mhalf)),
                n1,
                n2,
            )
            nl.a3 = _chunk_files(
                f"{node.dir}/A3",
                self._intersect_mappers(node.row0 + n1, n2),
                None,
                n2,
                n1,
            )
            f1, f2 = cfg.grid
            nl.a4 = _chunk_files(
                f"{node.dir}/A4",
                self._intersect_mappers(node.row0 + n1, n2),
                self._indexed(contiguous_ranges(n2, f2)),
                n2,
                n2,
            )
        else:
            # Logical partitioning of the Schur complement (index-only).
            if source is None:
                raise ValueError(f"schur node {node.dir} has no source region")
            nl.matrix = source
            nl.a2 = source.sub(0, n1, n1, node.n)
            nl.a3 = source.sub(n1, node.n, 0, n1)
            nl.a4 = source.sub(n1, node.n, n1, node.n)

        # This node's job outputs.
        # L2' rows as written by the mappers (unpermuted; read_lower applies P2).
        nl.l2 = _chunk_files(
            f"{node.dir}/L2",
            [(j, a, b) for j, (a, b) in enumerate(contiguous_ranges(n2, cfg.mhalf))],
            None,
            n2,
            n1,
            stem="L",
        )
        # U2 is stored in column chunks; with the Section 6.3 optimization the
        # files hold the transposed chunk.
        u_refs: list[BlockRef] = []
        for j, (c1, c2) in enumerate(contiguous_ranges(n2, cfg.mhalf)):
            if c2 <= c1:
                continue
            fr, fc = (n1, c2 - c1) if not cfg.transpose_u else (c2 - c1, n1)
            u_refs.append(
                BlockRef(
                    path=f"{node.dir}/U2/U.{j}",
                    r1=0,
                    c1=c1,
                    rows=n1,
                    cols=c2 - c1,
                    file_rows=n1,
                    file_cols=c2 - c1,
                    transposed=cfg.transpose_u,
                )
            )
        nl.u2 = Region(n1, n2, tuple(u_refs))

        if cfg.block_wrap:
            f1, f2 = cfg.grid
            out_refs: list[BlockRef] = []
            for j1, (r1, r2) in enumerate(contiguous_ranges(n2, f1)):
                for j2, (c1, c2) in enumerate(contiguous_ranges(n2, f2)):
                    if r2 <= r1 or c2 <= c1:
                        continue
                    out_refs.append(
                        BlockRef(
                            path=f"{node.dir}/OUT/A.{j1}.{j2}",
                            r1=r1,
                            c1=c1,
                            rows=r2 - r1,
                            cols=c2 - c1,
                            file_rows=r2 - r1,
                            file_cols=c2 - c1,
                        )
                    )
            nl.out = Region(n2, n2, tuple(out_refs))
        else:
            nl.out = _chunk_files(
                f"{node.dir}/OUT",
                [
                    (j, a, b)
                    for j, (a, b) in enumerate(contiguous_ranges(n2, cfg.m0))
                ],
                None,
                n2,
                n2,
            )

        child1_source = None
        if node.kind == "schur":
            child1_source = nl.matrix.sub(0, n1, 0, n1)
        self._build(node.child1, child1_source)
        self._build(node.child2, nl.out)

    def lu_regions(self, node: PlanNode) -> LUTaskRegions:
        """The regions each task of internal ``node``'s LU job reads.

        Cut once per layout, on first use: the pre-flight keeps one layout
        per ``(n, config)``, so every later run reads the same regions,
        whose tiling :meth:`Region.read` has then checked already.  A
        pickled layout (a process-pool job's conf) leaves them out and its
        copy cuts the one node its job runs on."""
        regions = self._lu_regions.get(node.dir)
        if regions is None:
            # Two tasks on two threads may both cut; setdefault keeps one.
            regions = self._lu_regions.setdefault(node.dir, self._cut_lu_regions(node))
        return regions

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_lu_regions": {}}

    def _cut_lu_regions(self, node: PlanNode) -> LUTaskRegions:
        cfg = self.config
        nl = self.of(node)
        n1, n2 = node.n1, node.n2
        assert nl.a2 is not None and nl.a3 is not None and nl.a4 is not None
        assert nl.l2 is not None and nl.u2 is not None
        chunks = contiguous_ranges(n2, cfg.mhalf)
        a3_rows = tuple(
            nl.a3.sub(r1, r2, 0, n1) if r2 > r1 else None for r1, r2 in chunks
        )
        a2_cols = tuple(
            nl.a2.sub(0, n1, c1, c2) if c2 > c1 else None for c1, c2 in chunks
        )
        # Reducer p's cell of B = A4 - L2' U2: its block-wrap grid cell
        # (Section 6.2), or under the ablation its row slab, which reads
        # all of U2.
        cells: list[SchurCell | None] = []
        if cfg.block_wrap:
            f1, f2 = cfg.grid
            row_ranges, col_ranges = contiguous_ranges(n2, f1), contiguous_ranges(n2, f2)
            for p in range(cfg.m0):
                j1, j2 = divmod(p, f2)
                (r1, r2), (c1, c2) = row_ranges[j1], col_ranges[j2]
                cells.append(
                    SchurCell(
                        f"{node.dir}/OUT/A.{j1}.{j2}",
                        nl.l2.sub(r1, r2, 0, n1),
                        nl.u2.sub(0, n1, c1, c2),
                        nl.a4.sub(r1, r2, c1, c2),
                    )
                    if r2 > r1 and c2 > c1
                    else None
                )
        else:
            for p, (r1, r2) in enumerate(contiguous_ranges(n2, cfg.m0)):
                cells.append(
                    SchurCell(
                        f"{node.dir}/OUT/A.{p}",
                        nl.l2.sub(r1, r2, 0, n1),
                        nl.u2,
                        nl.a4.sub(r1, r2, 0, n2),
                    )
                    if r2 > r1
                    else None
                )
        return LUTaskRegions(a3_rows, a2_cols, tuple(cells))

    # -- accessors --------------------------------------------------------------

    def of(self, node: PlanNode) -> NodeLayout:
        return self.by_dir[node.dir]

    def inv_l_path(self, j: int) -> str:
        """Final job: mapper j's strided columns of L^-1, as their nonzero
        panels (:mod:`repro.inversion.invert_job`)."""
        return f"{self.plan.root}/INV/L.{j}"

    def inv_u_path(self, j: int) -> str:
        """Final job: mapper (mhalf + j)'s strided rows of U^-1, as their
        nonzero panels."""
        return f"{self.plan.root}/INV/U.{j}"

    def final_path(self, p: int) -> str:
        """Final job: reducer p's block of U^-1 L^-1."""
        return f"{self.plan.root}/FINAL/A.{p}"

    @property
    def input_path(self) -> str:
        return f"{self.plan.root}/a.bin"

    def map_input_path(self, j: int) -> str:
        """Section 5.1 control file carrying worker id j."""
        return f"{self.plan.root}/MapInput/A.{j}"
