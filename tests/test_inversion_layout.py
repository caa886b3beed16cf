"""Layout and factor-assembly internals."""

from dataclasses import replace

import numpy as np
import pytest

from repro import InversionConfig
from repro.dfs import DFS
from repro.inversion import MatrixInverter
from repro.inversion.factors import (
    assemble,
    perm_from_bytes,
    perm_to_bytes,
    read_lower,
    read_lower_and_perm,
    read_perm,
    read_upper,
)
from repro.dfs.formats import decode_matrix, encode_matrix
from repro.inversion.invert_job import (
    _PANEL,
    InvertReducer,
    _gather_cols,
    _gather_rows,
    _pack,
    _packed_shape,
    _panels,
    _triangular_product,
    reducer_indices,
)
from repro.inversion.layout import Layout, factor_paths
from repro.inversion.plan import InversionPlan
from repro.inversion.regions import Region
from repro.linalg.blockwrap import contiguous_ranges
from repro.linalg import is_lower_triangular, is_upper_triangular, permutation
from repro.linalg.triangular import Triangle

from conftest import random_invertible


def make_layout(n=64, nb=16, m0=4, **flags):
    cfg = InversionConfig(nb=nb, m0=m0, **flags)
    plan = InversionPlan(n=n, nb=nb, m0=m0, root=cfg.root)
    return Layout(plan, cfg, n)


class TestLayoutStructure:
    def test_all_nodes_present(self):
        layout = make_layout()
        plan_dirs = set()

        def walk(node):
            plan_dirs.add(node.dir)
            if not node.is_leaf:
                walk(node.child1)
                walk(node.child2)

        walk(layout.plan.tree)
        assert plan_dirs == set(layout.by_dir)

    def test_internal_input_node_regions_cover(self):
        layout = make_layout()
        root = layout.plan.tree
        nl = layout.of(root)
        assert nl.a2.covered() and nl.a3.covered() and nl.a4.covered()
        assert nl.a2.rows == root.n1 and nl.a2.cols == root.n2
        assert nl.a3.rows == root.n2 and nl.a3.cols == root.n1

    def test_schur_node_regions_are_views_of_parent_out(self):
        layout = make_layout()
        root = layout.plan.tree
        schur = root.child2
        out_paths = set(layout.of(root).out.file_paths())
        nl = layout.of(schur)
        for region in (nl.a2, nl.a3, nl.a4):
            assert set(region.file_paths()) <= out_paths

    def test_mapper_row_ranges_cover_matrix(self):
        layout = make_layout(n=100, m0=6)
        ranges = layout.mapper_row_ranges()
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        assert len(ranges) == 6

    def test_out_region_block_wrap_grid(self):
        layout = make_layout(m0=8)  # f1=4, f2=2
        nl = layout.of(layout.plan.tree)
        assert nl.out.covered()
        # Grid naming A.<j1>.<j2>.
        assert any(p.endswith("/OUT/A.0.0") for p in nl.out.file_paths())

    def test_out_region_naive_slabs(self):
        layout = make_layout(block_wrap=False, m0=4)
        nl = layout.of(layout.plan.tree)
        assert nl.out.covered()
        assert any(p.endswith("/OUT/A.0") for p in nl.out.file_paths())

    def test_u2_transposed_flag_follows_config(self):
        on = make_layout(transpose_u=True)
        off = make_layout(transpose_u=False)
        assert all(b.transposed for b in on.of(on.plan.tree).u2.blocks)
        assert not any(b.transposed for b in off.of(off.plan.tree).u2.blocks)

    def test_factor_paths_transpose_naming(self):
        l, u, p = factor_paths("/Root", transpose_u=True)
        assert u.endswith("ut.bin")
        _, u2, _ = factor_paths("/Root", transpose_u=False)
        assert u2.endswith("u.bin")

    def test_leaf_matrix_region(self):
        layout = make_layout(n=64, nb=16)
        leaf = layout.plan.tree.leaves()[0]
        nl = layout.of(leaf)
        assert nl.matrix.covered()
        assert nl.matrix.rows == leaf.n

    def test_intermediate_file_count_matches_formula(self):
        """Section 6.1's N(d) formula counts the L-side part files plus the
        leaf factor files; the layout produces exactly m0/2 L2 files per
        internal node and one l.bin per leaf."""
        from repro.inversion.plan import intermediate_file_count

        layout = make_layout(n=256, nb=16, m0=8)
        tree = layout.plan.tree
        l_files = sum(
            len(layout.of(node).l2.file_paths()) for node in tree.internal_nodes()
        )
        leaf_files = len(tree.leaves())
        assert l_files + leaf_files == intermediate_file_count(256, 16, 8)


class TestFactorAssembly:
    @pytest.fixture
    def run(self, rng):
        cfg = InversionConfig(nb=16, m0=4)
        inverter = MatrixInverter(cfg)
        runtime = inverter.runtime
        a = random_invertible(rng, 72)
        factors = inverter.lu(a)
        layout = factors.plan, factors

        # Build a reader over the runtime's DFS.
        class Reader:
            def read_bytes(self, path):
                return runtime.dfs.read_bytes(path)

            def read_matrix(self, path):
                from repro.dfs import formats

                return formats.read_matrix(runtime.dfs, path)

            def read_rows(self, path, r1, r2):
                from repro.dfs import formats

                return formats.read_rows(runtime.dfs, path, r1, r2)

        inv_layout = Layout(factors.plan, cfg, 72)
        yield a, factors, inv_layout, Reader()
        inverter.close()

    def test_assembled_factors_triangular(self, run):
        a, factors, layout, reader = run
        lower = assemble(read_lower(layout, layout.plan.tree, reader))
        upper = assemble(read_upper(layout, layout.plan.tree, reader))
        assert is_lower_triangular(lower)
        assert is_upper_triangular(upper)
        assert np.allclose(np.diag(lower), 1.0)

    def test_assembled_perm_valid(self, run):
        a, factors, layout, reader = run
        perm = read_perm(layout, layout.plan.tree, reader)
        assert permutation.is_permutation(perm)

    def test_assembly_matches_driver_output(self, run):
        a, factors, layout, reader = run
        assert np.array_equal(
            assemble(read_lower(layout, layout.plan.tree, reader)), factors.lower
        )
        assert np.array_equal(
            assemble(read_upper(layout, layout.plan.tree, reader)), factors.upper
        )

    def test_each_perm_file_is_read_once_per_assembly(self, run):
        """Depth 3: ``P2`` of every level comes out of the ``L3`` walk, so
        the right spine's permutation files are not re-read per level."""
        from repro.inversion.factors import lower_read_paths

        a, factors, layout, reader = run
        tree = layout.plan.tree
        assert layout.plan.depth == 3
        perm_reads = []
        read_bytes = reader.read_bytes

        def logged(path):
            perm_reads.append(path)
            return read_bytes(path)

        reader.read_bytes = logged
        lower, perm = read_lower_and_perm(layout, tree, reader)
        leaves = tree.leaves()
        assert sorted(perm_reads) == sorted(layout.of(leaf).p_path for leaf in leaves)
        assert np.array_equal(assemble(lower), factors.lower)
        assert np.array_equal(perm, factors.perm)
        del perm_reads[:]
        read_lower(layout, tree, reader)  # the perms of every right subtree
        assert len(perm_reads) == len(set(perm_reads))
        assert set(perm_reads) == lower_read_paths(layout, tree) & {
            layout.of(leaf).p_path for leaf in leaves
        }

    def test_missing_leaf_factors_raise(self):
        layout = make_layout(n=8, nb=16)  # single leaf

        class Empty:
            def read_matrix(self, path):
                raise FileNotFoundError(path)

        with pytest.raises(FileNotFoundError):
            read_lower(layout, layout.plan.tree, Empty())


class TestPermCodec:
    def test_roundtrip(self, rng):
        p = rng.permutation(17)
        assert np.array_equal(perm_from_bytes(perm_to_bytes(p)), p)

    def test_empty(self):
        assert perm_from_bytes(perm_to_bytes(np.array([], dtype=np.int64))).size == 0


class _FakeTaskContext:
    """Just enough ``TaskContext`` for the final job's reducer: files are
    decoded read-only, as the DFS hands them out, and reads are logged."""

    def __init__(self):
        self.files, self.reads, self.written = {}, [], {}

    def read_matrix(self, path):
        self.reads.append(path)
        return decode_matrix(self.files[path])

    def write_bytes(self, path, data):
        self.written[path] = decode_matrix(data)

    def report_flops(self, flops):
        pass


def _mask_gather_rows(ctx, layout, rows, n):
    """The boolean-mask gather the strided slices replaced (reference)."""
    cfg = layout.config
    uhalf = cfg.m0 - cfg.mhalf
    out = np.empty((rows.size, n))
    if cfg.block_wrap:
        for i in sorted({int(r) % uhalf for r in rows}):
            data = ctx.read_matrix(layout.inv_u_path(i))
            mask = rows % uhalf == i
            out[mask] = data[rows[mask] // uhalf]
    else:
        for i, (r1, r2) in enumerate(contiguous_ranges(n, uhalf)):
            sel = (rows >= r1) & (rows < r2)
            if not np.any(sel):
                continue
            data = ctx.read_matrix(layout.inv_u_path(i))
            out[sel] = data[rows[sel] - r1]
    return out


def _mask_gather_cols(ctx, layout, cols, n):
    cfg = layout.config
    out = np.empty((n, cols.size))
    if cfg.block_wrap:
        for j in sorted({int(c) % cfg.mhalf for c in cols}):
            data = ctx.read_matrix(layout.inv_l_path(j))
            mask = cols % cfg.mhalf == j
            out[:, mask] = data[:, cols[mask] // cfg.mhalf]
    else:
        for j, (c1, c2) in enumerate(contiguous_ranges(n, cfg.mhalf)):
            sel = (cols >= c1) & (cols < c2)
            if not np.any(sel):
                continue
            data = ctx.read_matrix(layout.inv_l_path(j))
            out[:, sel] = data[:, cols[sel] - c1]
    return out


class TestFinalJobGathers:
    """The reducers' strided-slice gathers against the mask-based ones.  With
    block wrap a reducer's stride (``f1`` rows, ``f2`` columns) meets the
    mappers' (``m0/2``) in every way: equal (m0=4; rows at m0=6, 8), dividing
    it (m0=16; columns at m0=8, 12), divided by it (m0=2) and neither (2 vs 3
    columns at m0=6, 4 vs 6 rows at m0=12).  Every order here is at most one
    panel, where a packed share is the dense one (``TestPackedShares`` covers
    longer ones)."""

    @pytest.fixture(
        params=[
            (m0, wrap, n)
            for m0 in (2, 4, 6, 8, 12, 16)
            for wrap in (True, False)
            for n in (m0 - 1, 37, 64)
        ],
        ids=lambda p: f"m0={p[0]}-wrap={p[1]}-n={p[2]}",
    )
    def final_job(self, request, rng):
        m0, wrap, n = request.param
        layout = make_layout(n=n, nb=64, m0=m0, block_wrap=wrap)
        # triangular, as the mappers write them: the reducer skips the zeros
        uinv, linv = np.triu(rng.standard_normal((n, n))), np.tril(rng.standard_normal((n, n)))
        ctx = _FakeTaskContext()
        for i in range(m0 - layout.config.mhalf):
            ctx.files[layout.inv_u_path(i)] = encode_matrix(uinv[layout.u_shares[i]])
        for j in range(layout.config.mhalf):
            ctx.files[layout.inv_l_path(j)] = encode_matrix(linv[:, layout.l_shares[j]])
        return layout, n, ctx, uinv, linv

    def test_same_arrays_from_the_same_reads(self, final_job):
        layout, n, ctx, uinv, linv = final_job
        for p in range(layout.config.m0):
            (rows, cols), (row_idx, col_idx) = (
                layout.reducer_shares[p],
                reducer_indices(layout, p),
            )
            assert list(rows) == list(row_idx) and list(cols) == list(col_idx)
            if not rows or not cols:
                continue
            for new, old, want, idx, full in (
                (_gather_rows, _mask_gather_rows, rows, row_idx, uinv[row_idx]),
                (_gather_cols, _mask_gather_cols, cols, col_idx, linv[:, col_idx]),
            ):
                ctx.reads.clear()
                got = new(ctx, layout, want, n)
                new_reads = list(ctx.reads)
                ctx.reads.clear()
                assert np.array_equal(got, old(ctx, layout, idx, n))
                assert np.array_equal(got, full)
                assert new_reads == ctx.reads
                # Either a private array or, zero-copy, one decoded file.
                assert got.flags.writeable == got.flags.owndata
                assert got.flags.owndata or len(new_reads) == 1

    def test_reducer_never_writes_to_a_decoded_view(self, final_job):
        """Every file the fake hands out is read-only, so a reducer that
        wrote into a zero-copy gather would raise here."""
        layout, n, ctx, uinv, linv = final_job
        reducer = InvertReducer(layout)
        for p in range(layout.config.m0):
            reducer.reduce(ctx, p, iter(()))
            rows, cols = reducer_indices(layout, p)
            if rows.size and cols.size:
                block = ctx.written[layout.final_path(p)]
                assert np.allclose(block, uinv[rows] @ linv[:, cols], rtol=1e-12, atol=1e-12)
            else:
                assert layout.final_path(p) not in ctx.written

    def test_m0_4_share_is_the_decoded_file(self):
        layout = make_layout(n=64, nb=64, m0=4)
        ctx = _FakeTaskContext()
        for i in range(2):
            ctx.files[layout.inv_u_path(i)] = encode_matrix(np.ones((32, 64)))
        got = _gather_rows(ctx, layout, range(1, 64, 2), 64)
        assert not got.flags.writeable and not got.flags.owndata
        assert ctx.reads == [layout.inv_u_path(1)]


def _panel_multiplications(rows, cols, n):
    """Brute force: every inner index ``k`` is multiplied against the rows and
    columns that start before the end of ``k``'s panel."""
    total = 0
    for k in range(n):
        end = min((k // _PANEL + 1) * _PANEL, n)
        total += sum(r < end for r in rows) * sum(c < end for c in cols)
    return total


def _dense_triangular_product(u_rows, rows, l_cols, cols):
    """The product over dense shares — ``u_rows`` is ``len(rows) x n``,
    ``l_cols`` is ``n x len(cols)`` — as it was before the shares were
    stored packed (reference)."""
    n = u_rows.shape[1]
    block = np.zeros((len(rows), len(cols)))
    mults = 0
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        nr = len(range(rows.start, min(rows.stop, k1), rows.step))
        nc = len(range(cols.start, min(cols.stop, k1), cols.step))
        if nr and nc:
            block[:nr, :nc] += u_rows[:nr, k0:k1] @ l_cols[k0:k1, :nc]
            mults += nr * nc * (k1 - k0)
    return block, mults


def _packed(share_rows, share, n, *, columns):
    """``_pack`` into a NaN-filled array: any entry it leaves unwritten shows."""
    panels = _panels(share, n)
    out = np.full(_packed_shape(panels, columns), np.nan)
    _pack(share_rows, panels, out, columns=columns)
    return out


def _packed_width(share, n):
    """Brute force: per panel, every index of ``share`` below its end."""
    return sum(sum(s < min(k0 + _PANEL, n) for s in share) for k0 in range(0, n, _PANEL))


def _unpack(packed, share, n, *, columns):
    """The dense ``len(share) x n`` share back from its packed form: each
    panel's block in place, zero wherever no panel holds the entry.  A
    short last panel's padding must be zeros."""
    src = packed.T if columns else packed
    dense = np.zeros((len(share), n))
    at = 0
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        count = sum(s < k1 for s in share)
        dense[:count, k0:k1] = src[at : at + count, : k1 - k0]
        assert not src[at : at + count, k1 - k0 :].any()
        at += count
    assert at == src.shape[0]
    return dense


def _triangular_factors(rng, n):
    """A ``U^-1``-shaped and an ``L^-1``-shaped matrix: the mappers' output
    is triangular, and the packed shares keep only where it can be nonzero."""
    return np.triu(rng.standard_normal((n, n))), np.tril(rng.standard_normal((n, n)))


def _packed_final_job(layout, n, rng):
    """A fake reducer context holding every mapper's packed ``INV`` file."""
    uinv, linv = _triangular_factors(rng, n)
    ctx = _FakeTaskContext()
    for i in range(layout.config.m0 - layout.config.mhalf):
        rows = layout.u_shares[i]
        ctx.files[layout.inv_u_path(i)] = encode_matrix(_packed(uinv[rows], rows, n, columns=False))
    for j in range(layout.config.mhalf):
        cols = layout.l_shares[j]
        ctx.files[layout.inv_l_path(j)] = encode_matrix(
            _packed(linv[:, cols].T, cols, n, columns=True)
        )
    return layout, n, ctx, uinv, linv


class TestPackedShares:
    """``_pack`` and ``_gather`` are pure copies: every share, packed by a
    mapper or gathered by a reducer, unpacks to the dense share bit for bit.
    The orders sit below, at, and off a multiple of ``_PANEL``; at m0=8 with
    block wrap a reducer's columns (stride 2) straddle two L files (stride
    4), and at m0=6 its rows (stride 3) meet the U files' (stride 3) while
    its columns (stride 2) meet the L files' (stride 3) in neither way."""

    @pytest.fixture(
        params=[
            (m0, wrap, n)
            for m0 in (2, 4, 6, 8)
            for wrap in (True, False)
            for n in (7, 64, 130, 200)
        ],
        ids=lambda p: f"m0={p[0]}-wrap={p[1]}-n={p[2]}",
    )
    def packed_job(self, request, rng):
        m0, wrap, n = request.param
        return _packed_final_job(make_layout(n=n, nb=64, m0=m0, block_wrap=wrap), n, rng)

    def test_mapper_shares_round_trip(self, packed_job):
        layout, n, ctx, uinv, linv = packed_job
        cfg = layout.config
        sides = [
            (layout.inv_u_path(i), layout.u_shares[i], uinv, False)
            for i in range(cfg.m0 - cfg.mhalf)
        ] + [
            (layout.inv_l_path(j), layout.l_shares[j], linv.T, True)
            for j in range(cfg.mhalf)
        ]
        for path, share, rows_of, columns in sides:
            packed = decode_matrix(ctx.files[path])
            assert np.array_equal(_unpack(packed, share, n, columns=columns), rows_of[share])
            height, width = min(_PANEL, n), _packed_width(share, n)
            assert packed.shape == ((height, width) if columns else (width, height))
            # The file is its panel count, and nothing else.
            assert len(ctx.files[path]) == 16 + 8 * height * width

    def test_reducer_shares_round_trip(self, packed_job):
        layout, n, ctx, uinv, linv = packed_job
        for p in range(layout.config.m0):
            rows, cols = layout.reducer_shares[p]
            if not rows or not cols:
                continue
            for gather, want, rows_of, columns in (
                (_gather_rows, rows, uinv, False),
                (_gather_cols, cols, linv.T, True),
            ):
                got = gather(ctx, layout, want, n)
                assert np.array_equal(got, _packed(rows_of[want], want, n, columns=columns))
                assert np.array_equal(_unpack(got, want, n, columns=columns), rows_of[want])
                # Either a private array or, zero-copy, one decoded file.
                assert got.flags.writeable == got.flags.owndata

    def test_reducer_product_matches_the_dense_shares(self, packed_job):
        layout, n, ctx, uinv, linv = packed_job
        reducer = InvertReducer(layout)
        for p in range(layout.config.m0):
            reducer.reduce(ctx, p, iter(()))
            rows, cols = reducer_indices(layout, p)
            if rows.size and cols.size:
                block = ctx.written[layout.final_path(p)]
                assert np.allclose(block, uinv[rows] @ linv[:, cols], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 130, 200])
    def test_m0_4_operands_are_the_stored_files(self, rng, n):
        """At m0=4 with block wrap every reducer's share is a mapper's, so
        both operands of its product are views of the decoded files."""
        layout, _, ctx, _, _ = _packed_final_job(make_layout(n=n, nb=64, m0=4), n, rng)
        for p in range(4):
            rows, cols = layout.reducer_shares[p]
            for gather, want in ((_gather_rows, rows), (_gather_cols, cols)):
                ctx.reads.clear()
                got = gather(ctx, layout, want, n)
                (path,) = ctx.reads
                assert np.shares_memory(got, decode_matrix(ctx.files[path]))

    @pytest.mark.parametrize("m0", [4, 8])
    def test_stored_files_are_their_panels(self, m0):
        """In a real run every ``INV`` file is ``16 + 8 H W`` bytes: the
        header, then ``H = min(64, n)`` by ``W`` (its panel counts) doubles."""
        from repro.workloads import diagonally_dominant

        n = 200
        cfg = InversionConfig(nb=50, m0=m0)
        layout = make_layout(n=n, nb=50, m0=m0)
        dfs, sizes = DFS(), {}

        def record(paths):
            for path in paths:
                if "/INV/" in path:
                    sizes[path] = len(dfs.read_bytes(path))

        dfs.publish_listeners.append(record)
        with MatrixInverter(cfg, dfs=dfs) as inverter:
            inverter.invert(diagonally_dominant(n, seed=3))
        shares = {layout.inv_l_path(j): layout.l_shares[j] for j in range(m0 // 2)}
        shares.update({layout.inv_u_path(i): layout.u_shares[i] for i in range(m0 // 2)})
        assert sizes == {
            path: 16 + 8 * min(_PANEL, n) * _packed_width(share, n)
            for path, share in shares.items()
        }


class TestTriangularProduct:
    """The reducers' panelled ``U^-1 L^-1`` on packed shares against the
    dense product and against the same panelled product over dense shares,
    and the multiplications it reports against a count of what it
    multiplied."""

    @pytest.mark.parametrize("n", [7, 64, 130])
    @pytest.mark.parametrize("m0", [2, 4, 6, 8])
    @pytest.mark.parametrize("wrap", [True, False], ids=["wrap", "contiguous"])
    def test_every_reducer_share(self, rng, wrap, m0, n):
        layout = make_layout(n=n, nb=64, m0=m0, block_wrap=wrap)
        uinv, linv = _triangular_factors(rng, n)
        exact = issued = 0
        for p in range(m0):
            rows, cols = layout.reducer_shares[p]
            if not rows or not cols:
                continue
            u_rows = uinv[rows.start : rows.stop : rows.step]
            l_cols = linv[:, cols.start : cols.stop : cols.step]
            u_packed = _packed(u_rows, rows, n, columns=False)
            l_packed = _packed(l_cols.T, cols, n, columns=True)
            u_packed.setflags(write=False)
            l_packed.setflags(write=False)
            block = np.full((len(rows), len(cols)), np.nan)
            mults = _triangular_product(u_packed, rows, l_packed, cols, n, block)
            reference, reference_mults = _dense_triangular_product(u_rows, rows, l_cols, cols)
            tol = n * np.finfo(float).eps * np.abs(u_rows).max() * np.abs(l_cols).max()
            assert np.abs(block - u_rows @ l_cols).max() <= tol
            assert np.abs(block - reference).max() <= tol
            assert block.flags.c_contiguous and block.flags.writeable
            assert mults == reference_mults == _panel_multiplications(rows, cols, n)
            exact += sum(n - max(r, c) for r in rows for c in cols)
            issued += mults
        # the shares tile the matrix: Table 2's product term, then panel slack
        assert exact == n * (n + 1) * (2 * n + 1) // 6
        assert exact <= issued <= n**3
        if n > _PANEL:
            assert issued < 0.75 * n**3

    def test_reported_multiplications_same_on_every_backend(self):
        from repro import invert
        from repro.workloads import random_dense

        n, m0 = 130, 4
        a = random_dense(n, seed=4)
        layout = make_layout(n=n, nb=40, m0=m0)
        product = sum(
            _panel_multiplications(*layout.reducer_shares[p], n) for p in range(m0)
        )
        mappers = sum(k * k for k in range(1, n + 1))  # Equation 4, both factors
        for executor in ("serial", "threads", "processes"):
            res = invert(a, InversionConfig(nb=40, m0=m0, executor=executor, num_workers=2))
            (final,) = [j for j in res.record.job_results if j.name == "invert-final"]
            assert sum(t.flops for t in final.traces) == mappers + product


def _ref_region_read(region, reader):
    """The zero-filled, always-copying ``Region.read`` the in-place one
    replaced (reference)."""
    assert region.covered()
    out = np.zeros((region.rows, region.cols))
    for b in region.blocks:
        out[b.r1 : b.r1 + b.rows, b.c1 : b.c1 + b.cols] = b.read_part(reader)
    return out


def _ref_read_lower(layout, node, reader):
    """Level-by-level assembly: one fresh zeroed array per recursion level
    (reference)."""
    nl = layout.of(node)
    if reader.exists(nl.l_path):
        return reader.read_matrix(nl.l_path)
    n1 = node.n1
    lower = np.zeros((node.n, node.n))
    lower[:n1, :n1] = _ref_read_lower(layout, node.child1, reader)
    l2 = _ref_region_read(nl.l2, reader)
    p2 = read_perm(layout, node.child2, reader)
    lower[n1:, :n1] = permutation.apply_rows(p2, l2)
    lower[n1:, n1:] = _ref_read_lower(layout, node.child2, reader)
    return lower


def _ref_read_upper(layout, node, reader):
    nl = layout.of(node)
    if reader.exists(nl.u_path):
        stored = reader.read_matrix(nl.u_path)
        return stored.T if layout.config.transpose_u else stored
    n1 = node.n1
    upper = np.zeros((node.n, node.n))
    upper[:n1, :n1] = _ref_read_upper(layout, node.child1, reader)
    upper[:n1, n1:] = _ref_region_read(nl.u2, reader)
    upper[n1:, n1:] = _ref_read_upper(layout, node.child2, reader)
    return upper


class _LoggingReader:
    """The master's reader (block cache honoured), every call logged."""

    def __init__(self, dfs):
        from repro.inversion.driver import MasterIO

        self._io = MasterIO(dfs)
        self.log = []

    def take_log(self):
        log, self.log = self.log, []
        return log

    def __getattr__(self, name):
        method = getattr(self._io, name)

        def logged(*args):
            self.log.append((name, *args))
            return method(*args)

        return logged


def _reads(log):
    """``(method, path)`` of every read in a :class:`_LoggingReader` log."""
    return [(call[0], call[1]) for call in log if call[0].startswith("read_")]


class TestInPlaceAssembly:
    """The dense assembly of what ``read_lower`` / ``read_upper`` read fills
    one destination, and ``Region.read`` copies each block once.  Against
    the level-by-level references they must give the same arrays; a factor
    reads exactly the files the static model names for it, no permutation
    file twice; a region reads each block once, a whole-file rectangle as
    one ``read_matrix``."""

    #: (n, nb, m0) of ``tests/test_edge_geometries.py``.
    GEOMETRIES = [
        (64, 4, 4),
        (16, 1, 2),
        (12, 4, 16),
        (40, 10, 2),
        (37, 10, 12),
        (53, 7, 6),
        (17, 16, 2),
        (48, 4, 4),
    ]

    @pytest.fixture(
        scope="class",
        params=[
            (geometry, transpose_u, separate_files)
            for geometry in GEOMETRIES
            for transpose_u in (True, False)
            for separate_files in (True, False)
        ],
        ids=lambda p: "n={}-nb={}-m0={}-ut={}-sep={}".format(*p[0], p[1], p[2]),
    )
    def finished_run(self, request):
        """A whole inversion — every task ran against read-only decoded
        views, so one that wrote into a view would have raised here — and a
        snapshot DFS holding every file as it was published: the run retires
        intermediates once their last reader commits, the snapshot keeps
        them all for the readers under test."""
        (n, nb, m0), transpose_u, separate_files = request.param
        from repro.workloads import diagonally_dominant

        a = diagonally_dominant(n, seed=n)
        cfg = InversionConfig(
            nb=nb, m0=m0, transpose_u=transpose_u, separate_files=separate_files
        )
        dfs, snapshot = DFS(), DFS()

        def copy(paths):
            for path in paths:
                snapshot.write_bytes(path, dfs.read_bytes(path))

        dfs.publish_listeners.append(copy)
        with MatrixInverter(cfg, dfs=dfs) as inverter:
            result = inverter.invert(a)
        assert np.allclose(result.inverse @ a, np.eye(n), atol=1e-8)
        assert set(dfs.list_files(cfg.root)) < set(snapshot.list_files(cfg.root))
        yield Layout(result.plan, cfg, n), snapshot

    @pytest.fixture(params=[True, False], ids=["cache", "nocache"])
    def reader(self, request, finished_run):
        layout, snapshot = finished_run
        if request.param:
            snapshot.attach_cache(64 << 20)
        else:
            snapshot.detach_cache()
        return _LoggingReader(snapshot)

    @staticmethod
    def _check(new, ref, reader):
        """Same array as the reference; private and writable, or one decoded
        file's read-only view.  Returns it with the reads ``new`` made."""
        got = new(reader)
        reads = _reads(reader.take_log())
        want = ref(reader)
        reader.take_log()
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        if not got.flags.writeable:
            assert len(reads) == 1
        return got, reads

    @staticmethod
    def _assert_model_reads(reads, expected, perm_paths):
        assert {path for _, path in reads} == expected
        perm_reads = [path for _, path in reads if path in perm_paths]
        assert len(perm_reads) == len(set(perm_reads)), "a permutation file read twice"

    def test_factors_match_the_level_by_level_reference(self, finished_run, reader):
        from repro.inversion.factors import lower_read_paths, perm_read_paths, upper_read_paths

        layout, _ = finished_run
        tree = layout.plan.tree
        nodes = tree.internal_nodes() + tree.leaves()
        perm_paths = {layout.of(node).p_path for node in nodes}
        for node in nodes:
            lower, reads = self._check(
                lambda r: assemble(read_lower(layout, node, r)),
                lambda r: _ref_read_lower(layout, node, r),
                reader,
            )
            self._assert_model_reads(reads, lower_read_paths(layout, node), perm_paths)
            upper, reads = self._check(
                lambda r: assemble(read_upper(layout, node, r)),
                lambda r: _ref_read_upper(layout, node, r),
                reader,
            )
            self._assert_model_reads(reads, upper_read_paths(layout, node), perm_paths)
            assert is_lower_triangular(lower) and is_upper_triangular(upper)

            both, perm = read_lower_and_perm(layout, node, reader)
            reads = _reads(reader.take_log())
            assert np.array_equal(assemble(both), lower)
            assert np.array_equal(perm, read_perm(layout, node, reader))
            reader.take_log()
            self._assert_model_reads(
                reads,
                lower_read_paths(layout, node) | perm_read_paths(layout, node),
                perm_paths,
            )

    def test_regions_match_the_copying_reference(self, finished_run, reader):
        layout, snapshot = finished_run
        regions = [
            region
            for nl in layout.by_dir.values()
            for region in (nl.a2, nl.a3, nl.a4, nl.matrix, nl.l2, nl.u2, nl.out)
            if region is not None
        ]
        # Every region is checked, retired from the run's DFS or not.
        assert all(snapshot.exists(p) for r in regions for p in r.file_paths())
        for region in regions:
            rows, cols = region.rows, region.cols
            for sub in (
                region,
                region.sub(0, rows // 2, 0, cols),
                region.sub(rows // 2, rows, cols // 3, cols),
                region.sub(0, rows, 0, 0),
            ) + tuple(Region(b.rows, b.cols, (replace(b, r1=0, c1=0),)) for b in region.blocks):
                got, reads = self._check(
                    sub.read, lambda r: _ref_region_read(sub, r), reader
                )
                assert sorted(path for _, path in reads) == sorted(b.path for b in sub.blocks)
                for b in sub.blocks:
                    if (b.fr1, b.fc1, b.rows, b.cols) == (0, 0, b.file_rows, b.file_cols):
                        assert reads.count(("read_matrix", b.path)) == 1
                if len(sub.blocks) != 1:
                    assert got.flags.writeable and got.flags.owndata

    def test_out_destination_is_filled_in_place(self, finished_run, reader):
        """A tree of pieces assembles into one destination, its subtrees
        included; a factor stored as one file is its decoded view."""
        layout, _ = finished_run
        tree = layout.plan.tree
        for read, ref in ((read_lower, _ref_read_lower), (read_upper, _ref_read_upper)):
            factor = read(layout, tree, reader)
            if type(factor) is not Triangle:
                assert not factor.flags.writeable
                continue
            # NaN-filled, so a cell the assembly skipped would show.
            frame = np.full((tree.n + 2, tree.n + 2), np.nan)
            out = frame[1:-1, 1:-1]
            assert factor.dense(out) is out
            assert np.array_equal(out, ref(layout, tree, reader))
            assert np.isnan(frame[0]).all() and np.isnan(frame[:, -1]).all()
