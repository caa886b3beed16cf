"""The recursion plan: block tree, depths, and job counts.

Section 5 stresses that "the number of partitioning steps (i.e., the depth of
recursion) can be precomputed at the start", making the whole workflow a
*predefined* pipeline of MapReduce jobs.  This module is that precomputation:

* ``depth(n, nb) = ceil(log2(n / nb))`` — recursion depth ``d``;
* LU jobs = ``2^d - 1`` (each internal tree node contributes one job);
* total pipeline jobs = ``2^d + 1`` (partition + LU jobs + final inversion),
  which reproduces Table 3's "Number of Jobs" column exactly
  (M1: 9, M2: 17, M3: 17, M4: 33, M5: 9);
* intermediate-file count ``N(d) = 2^d + (m0/2)(2^d - 1)`` (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def depth(n: int, nb: int) -> int:
    """Recursion depth ``d = ceil(log2(n / nb))`` (0 when n <= nb).

    Computed in exact integer arithmetic: ``ceil(log2(n/nb)) ==
    ceil(log2(ceil(n/nb)))``, and the latter is a bit-length.
    """
    if n < 1 or nb < 1:
        raise ValueError("n and nb must be >= 1")
    if n <= nb:
        return 0
    blocks = -(-n // nb)  # ceil(n / nb)
    return (blocks - 1).bit_length()


def lu_job_count(n: int, nb: int) -> int:
    """MapReduce jobs in the LU stage: ``2^d - 1``."""
    return 2 ** depth(n, nb) - 1


def total_job_count(n: int, nb: int) -> int:
    """All pipeline jobs: one partition job + LU jobs + one inversion job.

    For n <= nb the matrix is inverted on the master; the pipeline still
    runs the final inversion job (column-parallel triangular inversion), and
    no partition job is needed, giving 1.
    """
    d = depth(n, nb)
    if d == 0:
        return 1
    return 2**d + 1


def intermediate_file_count(n: int, nb: int, m0: int) -> int:
    """Section 6.1's ``N(d) = 2^d + (m0/2)(2^d - 1)`` separate factor files.

    (Each of the ``2^d`` leaves stores one factor file; each of the
    ``2^d - 1`` internal nodes stores ``m0/2`` L2-or-U2 part files.)
    """
    d = depth(n, nb)
    return 2**d + (m0 // 2) * (2**d - 1)


def is_full_tree(n: int, nb: int) -> bool:
    """True when the recursion tree is *full* — every branch reaches depth
    ``d`` — so the closed-form job counts are exact.  Holds iff the smallest
    block one level above the leaves still exceeds nb."""
    d = depth(n, nb)
    if d == 0:
        return True
    return n // 2 ** (d - 1) > nb


def split_order(n: int) -> tuple[int, int]:
    """Split an order-n block into (n1, n2) halves; the paper halves at n/2
    (Figure 1).  For odd n the extra row goes to the top-left block so the
    recursion depth matches ``depth()``."""
    n1 = (n + 1) // 2
    return n1, n - n1


@dataclass
class PlanNode:
    """One node of the precomputed recursion tree.

    ``dir`` is the node's DFS directory (Figure 4: children live under
    ``dir/A1`` and ``dir/OUT``); ``row0`` is the node's first row in the
    *original* matrix (used by the partition job); ``kind`` says whether the
    node's input is a slice of the original matrix ("input") or a Schur
    complement produced by the parent's job ("schur").
    """

    dir: str
    n: int
    row0: int
    kind: str  # "input" | "schur"
    n1: int = 0
    n2: int = 0
    child1: "PlanNode | None" = None
    child2: "PlanNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.child1 is None

    def leaves(self) -> list["PlanNode"]:
        if self.is_leaf:
            return [self]
        return self.child1.leaves() + self.child2.leaves()

    def preorder(self) -> list["PlanNode"]:
        """This node and every descendant, each before its children and the
        ``child1`` subtree before the ``child2`` one."""
        found: list[PlanNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            found.append(node)
            if node.child1 is not None and node.child2 is not None:
                stack += (node.child2, node.child1)
        return found

    def internal_nodes(self) -> list["PlanNode"]:
        """Internal nodes in job execution order (child1 subtree, this node,
        child2 subtree) — the order the pipeline launches LU jobs."""
        if self.is_leaf:
            return []
        return (
            self.child1.internal_nodes() + [self] + self.child2.internal_nodes()
        )

    def input_nodes(self) -> list["PlanNode"]:
        out = [self] if self.kind == "input" else []
        if not self.is_leaf:
            out += self.child1.input_nodes() + self.child2.input_nodes()
        return out


def build_tree(n: int, nb: int, root_dir: str = "/Root") -> PlanNode:
    """Precompute the full recursion tree for an order-n inversion."""
    return _build(root_dir.rstrip("/"), n, 0, "input", nb)


def _build(dir_: str, size: int, row0: int, kind: str, nb: int) -> PlanNode:
    # Module level, not a nested function: a closure that calls itself is a
    # reference cycle through its own cell.
    node = PlanNode(dir=dir_, n=size, row0=row0, kind=kind)
    if size <= nb:
        return node
    n1, n2 = split_order(size)
    node.n1, node.n2 = n1, n2
    node.child1 = _build(f"{dir_}/A1", n1, row0, kind, nb)
    # The second child factors the Schur complement, which the parent's
    # job writes under dir/OUT (Figure 4).
    node.child2 = _build(f"{dir_}/OUT", n2, row0 + n1, "schur", nb)
    return node


@dataclass
class InversionPlan:
    """The precomputed pipeline for one matrix order."""

    n: int
    nb: int
    m0: int
    root: str = "/Root"
    tree: PlanNode = field(init=False)

    def __post_init__(self) -> None:
        self.tree = build_tree(self.n, self.nb, self.root)

    @property
    def depth(self) -> int:
        return depth(self.n, self.nb)

    @property
    def num_lu_jobs(self) -> int:
        return len(self.tree.internal_nodes())

    @property
    def num_jobs(self) -> int:
        """Total MapReduce jobs the pipeline will launch."""
        if self.tree.is_leaf:
            return 1
        return 1 + self.num_lu_jobs + 1

    def describe(self) -> str:
        """ASCII rendering of the recursion tree with block sizes, kinds,
        and the pipeline summary — a quick sanity view of what a
        configuration will do before running it."""
        lines = [
            f"InversionPlan: n={self.n}, nb={self.nb}, m0={self.m0}, "
            f"depth={self.depth}, jobs={self.num_jobs}"
        ]

        def walk(node: PlanNode, prefix: str, label: str) -> None:
            shape = "leaf (master LU)" if node.is_leaf else "internal (1 MR job)"
            lines.append(
                f"{prefix}{label}{node.dir}  [{node.n}x{node.n}, {node.kind}, {shape}]"
            )
            if not node.is_leaf:
                walk(node.child1, prefix + "  ", "A1: ")
                walk(node.child2, prefix + "  ", "B:  ")

        walk(self.tree, "", "")
        return "\n".join(lines)

    def job_schedule(self) -> list[str]:
        """The predefined pipeline, as job names in launch order (Figure 2):
        "the number of jobs in the pipeline and the data movement between
        the jobs can be precisely determined before the start of the
        computation".  The driver's executed job sequence matches this
        exactly (asserted in the tests)."""
        if self.tree.is_leaf:
            return ["invert-final"]
        return (
            ["partition"]
            + [f"lu:{node.dir}" for node in self.tree.internal_nodes()]
            + ["invert-final"]
        )

    def validate(self) -> None:
        """Internal consistency checks.

        The closed-form ``2^d - 1`` counts the *full* recursion tree; when n
        is "not a power of 2 and not divisible by nb" (the paper's caveat)
        some branches bottom out early, so the tree count is a lower bound of
        the closed form and exactly equal for aligned orders
        (:func:`is_full_tree`).
        """
        closed_form = lu_job_count(self.n, self.nb)
        assert self.num_lu_jobs <= closed_form, (self.num_lu_jobs, closed_form)
        if is_full_tree(self.n, self.nb):
            assert self.num_lu_jobs == closed_form
            assert self.num_jobs == total_job_count(self.n, self.nb)
        for leaf in self.tree.leaves():
            assert leaf.n <= self.nb
        sizes = sum(leaf.n for leaf in self.tree.leaves())
        assert sizes == self.n
