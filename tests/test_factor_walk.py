"""The triangular kernels solve against a factor's stored pieces.

``read_lower`` / ``read_upper`` return the tree of a factor's files (the
children, the ``L2'`` / ``U2`` chunk views, ``P2``) and the kernels walk it:
one GEMM per stored chunk, ``P2`` applied to the product rows.  Differential
check against the same kernels on the dense assembly of that tree, at every
node of finished runs over the edge geometries: bit-equal wherever the walk
splits where the dense recursion does (the plan's splits on its 32-row
grid), and within ``eps * cond * max|ref|`` elsewhere.  The reads of one
walk are exactly the model's read set of the node, each file once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import InversionConfig
from repro.dfs import DFS
from repro.inversion import MatrixInverter
from repro.inversion.driver import MasterIO
from repro.inversion.factors import (
    assemble,
    lower_read_paths,
    perm_read_paths,
    read_lower,
    read_lower_and_perm,
    read_upper,
    upper_read_paths,
)
from repro.inversion.layout import Layout
from repro.linalg import triangular
from repro.linalg.triangular import (
    Triangle,
    blocked_forward_substitute,
    invert_lower_columns,
    invert_upper_rows,
)
from repro.workloads import diagonally_dominant

#: ``(n, nb)`` of ``tests/test_edge_geometries.py``, and one deeper shape
#: whose every split falls on the kernel's 32-row grid.
GEOMETRIES = [(64, 4), (16, 1), (12, 4), (40, 10), (37, 10), (53, 7), (17, 16), (48, 4), (256, 32)]
M0S = (2, 4, 6, 8)


@pytest.fixture(
    scope="module",
    params=[
        (n, nb, m0, transpose_u, separate_files)
        for n, nb in GEOMETRIES
        for m0 in M0S
        for transpose_u in (True, False)
        for separate_files in (True, False)
    ],
    ids=lambda p: "n={}-nb={}-m0={}-ut={}-sep={}".format(*p),
)
def finished_run(request):
    """A whole inversion and a snapshot DFS holding every file as it was
    published (the run retires the factors at its final commit)."""
    n, nb, m0, transpose_u, separate_files = request.param
    # Real pivots, so P2 moves rows; nb=1 leaves cannot pivot at all.
    a = diagonally_dominant(n, seed=n) if nb == 1 else np.random.default_rng(n).standard_normal((n, n))
    cfg = InversionConfig(nb=nb, m0=m0, transpose_u=transpose_u, separate_files=separate_files)
    dfs, snapshot = DFS(), DFS()

    def copy(paths):
        for path in paths:
            snapshot.write_bytes(path, dfs.read_bytes(path))

    dfs.publish_listeners.append(copy)
    with MatrixInverter(cfg, dfs=dfs) as inverter:
        result = inverter.invert(a)
    assert np.allclose(result.inverse @ a, np.eye(n), atol=1e-7)
    yield Layout(result.plan, cfg, n), snapshot


class _LoggingReader:
    """The master's reader over the snapshot, the path of every call logged
    (an existence probe would show as an extra path)."""

    def __init__(self, dfs):
        self._io = MasterIO(dfs)
        self.paths = []

    def __getattr__(self, name):
        method = getattr(self._io, name)

        def logged(path, *args):
            self.paths.append(path)
            return method(path, *args)

        return logged

    def take(self):
        paths, self.paths = self.paths, []
        return paths


@pytest.fixture(params=[True, False], ids=["cache", "nocache"])
def reader(request, finished_run):
    _, snapshot = finished_run
    if request.param:
        snapshot.attach_cache(64 << 20)
    else:
        snapshot.detach_cache()
    return _LoggingReader(snapshot)


def _nodes(layout):
    tree = layout.plan.tree
    return tree.internal_nodes() + tree.leaves()


def _steps(l):
    """The walk's leaf ``(lo, hi)`` and update ``(lo, mid, hi)`` steps."""
    steps, diag = [], []
    triangular._walk(l, 0, triangular._LEAF, steps, diag)
    return [step[:3] for step in steps]


def _assert_same(got, want, tri, bit_equal):
    """Bit-equal when the walks split alike, else within the blocked
    kernels' error bound ``eps * cond_1(tri) * max|want|``."""
    assert got.shape == want.shape
    if bit_equal:
        assert np.array_equal(got, want)
    else:
        bound = np.finfo(float).eps * np.linalg.cond(tri, 1) * np.abs(want).max()
        assert np.abs(got - want).max() <= bound


def test_each_walk_reads_the_model_read_set_once(finished_run, reader):
    layout, _ = finished_run
    for node in _nodes(layout):
        read_lower(layout, node, reader)
        paths = reader.take()
        assert sorted(paths) == sorted(lower_read_paths(layout, node))
        read_upper(layout, node, reader)
        paths = reader.take()
        assert sorted(paths) == sorted(upper_read_paths(layout, node))
        read_lower_and_perm(layout, node, reader)
        paths = reader.take()
        model = lower_read_paths(layout, node) | perm_read_paths(layout, node)
        assert sorted(paths) == sorted(model)


def test_kernels_on_the_pieces_match_the_dense_assembly(finished_run, reader):
    layout, _ = finished_run
    rng = np.random.default_rng(0)
    for node in _nodes(layout):
        lower = read_lower(layout, node, reader)
        upper = read_upper(layout, node, reader)
        if layout.config.separate_files and not node.is_leaf:
            assert type(lower) is Triangle and type(upper) is Triangle
        l_dense, u_dense = assemble(lower), assemble(upper)
        n = node.n
        lower_alike = _steps(lower) == _steps(l_dense)
        upper_alike = _steps(upper.T) == _steps(u_dense.T)
        # the final mappers' shares: every column, and a strided half
        for share in (np.arange(n), np.arange(n % 2, n, 2)):
            _assert_same(
                invert_lower_columns(lower, share),
                invert_lower_columns(l_dense, share),
                l_dense,
                lower_alike,
            )
            _assert_same(
                invert_upper_rows(upper, share),
                invert_upper_rows(u_dense, share),
                u_dense,
                upper_alike,
            )
        # the LU-job mappers' solves, on a row-major and a column-major rhs
        b = rng.standard_normal((n, 5))
        for rhs in (b, np.asfortranarray(b)):
            _assert_same(
                blocked_forward_substitute(lower, rhs, unit_diagonal=True),
                blocked_forward_substitute(l_dense, rhs, unit_diagonal=True),
                l_dense,
                lower_alike,
            )
            _assert_same(
                blocked_forward_substitute(upper.T, rhs),
                blocked_forward_substitute(u_dense.T, rhs),
                u_dense,
                upper_alike,
            )
        reader.take()


def test_a_grid_aligned_tree_walks_like_its_dense_form():
    """The bit-equal branch covers real trees: a tree split at 128, 64 and
    32 rows takes the dense recursion's steps, chunk GEMMs aside."""
    node = np.tril(np.ones((32, 32)))
    for n1 in (32, 64, 128):
        node = Triangle(n1, node, node, ((0, n1, np.zeros((n1, n1))),), np.arange(n1))
    assert node.shape == (256, 256)
    assert _steps(node) == _steps(node.dense())
