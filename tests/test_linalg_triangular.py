"""Triangular inversion (Equation 4) and substitution solvers."""

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.linalg import _openblas, expected_residual_bound, lu_decompose
from repro.linalg.blockwrap import contiguous_ranges, strided_indices
from repro.linalg.verify import identity_residual
from repro.linalg.triangular import (
    _LEAF,
    Triangle,
    TriangularShapeError,
    back_substitute,
    blocked_back_substitute,
    blocked_forward_substitute,
    forward_substitute,
    invert_lower,
    invert_lower_columns,
    invert_upper,
    invert_upper_rows,
    is_lower_triangular,
    is_upper_triangular,
)
from repro.workloads import ill_conditioned, random_dense


def random_lower(rng, n, unit=False):
    l = np.tril(rng.standard_normal((n, n)))
    diag = np.ones(n) if unit else rng.uniform(0.5, 2.0, n) * np.sign(
        rng.standard_normal(n)
    )
    np.fill_diagonal(l, diag)
    return l


@pytest.fixture
def numpy_leaves(monkeypatch):
    """The inverted-block leaves: the leaf kernel where numpy's BLAS
    exports no ``dtrsm``."""
    monkeypatch.setattr(_openblas, "DTRSM", None)


class TestSubstitution:
    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_forward(self, rng, n):
        l = random_lower(rng, n)
        x_true = rng.standard_normal(n)
        assert np.allclose(forward_substitute(l, l @ x_true), x_true)

    def test_forward_unit_diagonal_ignores_diag_values(self, rng):
        l = random_lower(rng, 6, unit=True)
        x_true = rng.standard_normal(6)
        x = forward_substitute(l, l @ x_true, unit_diagonal=True)
        assert np.allclose(x, x_true)

    def test_forward_matrix_rhs(self, rng):
        l = random_lower(rng, 8)
        x_true = rng.standard_normal((8, 4))
        assert np.allclose(forward_substitute(l, l @ x_true), x_true)

    @pytest.mark.parametrize("n", [1, 5, 21])
    def test_back(self, rng, n):
        u = random_lower(rng, n).T
        x_true = rng.standard_normal(n)
        assert np.allclose(back_substitute(u, u @ x_true), x_true)

    def test_back_matrix_rhs(self, rng):
        u = random_lower(rng, 6).T
        x_true = rng.standard_normal((6, 2))
        assert np.allclose(back_substitute(u, u @ x_true), x_true)

    def test_shape_mismatch_rejected(self, rng):
        l = random_lower(rng, 4)
        with pytest.raises(ValueError, match="rows"):
            forward_substitute(l, np.zeros(5))

    def test_singular_diagonal_rejected(self):
        l = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            forward_substitute(l, np.ones(2))


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_inverse(self, rng, n):
        l = random_lower(rng, n)
        linv = invert_lower(l)
        assert np.allclose(l @ linv, np.eye(n), atol=1e-9)

    def test_inverse_is_lower_triangular(self, rng):
        linv = invert_lower(random_lower(rng, 12))
        assert is_lower_triangular(linv, tol=1e-12)

    def test_unit_lower_inverse_unit_diagonal(self, rng):
        l = random_lower(rng, 10, unit=True)
        linv = invert_lower(l)
        assert np.allclose(np.diag(linv), 1.0)

    def test_column_subset_matches_full(self, rng):
        l = random_lower(rng, 15)
        full = invert_lower(l)
        cols = np.array([0, 3, 7, 14])
        sub = invert_lower_columns(l, cols)
        assert np.allclose(sub, full[:, cols])

    def test_strided_columns_cover_matrix(self, rng):
        """Reassembling all mappers' column shares gives the full inverse
        (the final job's map-side decomposition, Section 5.4)."""
        n, parts = 17, 4
        l = random_lower(rng, n)
        full = invert_lower(l)
        assembled = np.zeros_like(full)
        for p in range(parts):
            cols = np.arange(p, n, parts)
            assembled[:, cols] = invert_lower_columns(l, cols)
        assert np.allclose(assembled, full)

    def test_empty_column_set(self, rng):
        out = invert_lower_columns(random_lower(rng, 5), [])
        assert out.shape == (5, 0)

    def test_column_out_of_range(self, rng):
        with pytest.raises(ValueError):
            invert_lower_columns(random_lower(rng, 5), [5])

    def test_singular_rejected(self):
        l = np.tril(np.ones((3, 3)))
        l[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            invert_lower(l)


def _pipeline_lower(kind, n):
    """A lower-triangular operand as the final job sees it: the F-ordered,
    read-only ``U^T`` of a pivoted LU of a ``repro.workloads`` matrix."""
    a = random_dense(n, seed=n) if kind == "random" else ill_conditioned(n, 1e8, seed=n)
    l = lu_decompose(a).upper().T
    l.setflags(write=False)
    return l


def _mapper_shares(n):
    """Every column set a final-job mapper can own: the strided sets of
    Section 5.4 and the contiguous ranges of ``block_wrap=False``."""
    for parts in (1, 2, 3, 4, 8):
        for part in range(parts):
            yield strided_indices(n, parts, part)
        for c1, c2 in contiguous_ranges(n, parts):
            yield np.arange(c1, c2)


class TestBlockedColumnKernel:
    """``invert_lower_columns`` (blocked, zero-skipping) against the
    row-by-row reference ``forward_substitute(l, I[:, cols])``."""

    # Both are backward-stable solves of the same system, so each is within
    # O(eps * cond) of the true columns; they differ by summation order only.
    TOL = 1.0

    @pytest.mark.parametrize("kind", ["random", "graded"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
    def test_matches_row_loop_on_every_mapper_share(self, kind, n):
        l = _pipeline_lower(kind, n)
        eye = np.eye(n)
        bound = self.TOL * np.finfo(float).eps * np.linalg.cond(l, 1)
        full = np.zeros((n, n))
        for cols in _mapper_shares(n):
            got = invert_lower_columns(l, cols)
            want = forward_substitute(l, eye[:, cols])
            assert got.shape == want.shape
            assert got.flags.c_contiguous and got.flags.writeable
            scale = np.abs(want).max() if cols.size else 0.0
            assert np.abs(got - want).max(initial=0.0) <= bound * scale
            full[:, cols] = got
        # Every column was written by some mapper's share; together they invert L.
        assert identity_residual(l, full) <= expected_residual_bound(l)

    def test_structural_zeros_are_exact(self):
        n = 130
        l = _pipeline_lower("random", n)
        cols = np.arange(1, n, 2)
        got = invert_lower_columns(l, cols)
        for t, c in enumerate(cols):
            assert not got[:c, t].any()

    def test_unsorted_duplicated_columns_keep_their_order(self, rng):
        l = random_lower(rng, 90)
        cols = [70, 3, 3, 89, 0, 70, 41]
        got = invert_lower_columns(l, cols)
        assert np.allclose(got, invert_lower(l)[:, cols], rtol=1e-9, atol=1e-12)
        assert np.array_equal(got[:, 1], got[:, 2])

    def test_upper_rows_on_read_only_operand(self, rng):
        u = random_lower(rng, 100).T.copy()
        u.setflags(write=False)
        rows = np.arange(2, 100, 3)
        got = invert_upper_rows(u, rows)
        assert np.allclose(got, back_substitute(u, np.eye(100))[rows], rtol=1e-9, atol=1e-12)

    def test_checks_run_before_any_arithmetic(self, rng):
        l = random_lower(rng, 200)
        l[150, 150] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="150"):
            invert_lower_columns(l, [0])  # column 0 alone never divides by row 150
        l = random_lower(rng, 8)
        for bad in ([-1], [0, 8]):
            with pytest.raises(ValueError, match="out of range"):
                invert_lower_columns(l, bad)


def _packed_factors(kind, n):
    """``LUResult.lu`` of a ``repro.workloads`` matrix, read-only: the
    unit-lower ``L`` with ``U`` above its diagonal — and, transposed, ``U^T``
    with ``L^T`` above its diagonal.  Neither is triangular as stored."""
    a = random_dense(n, seed=n) if kind == "random" else ill_conditioned(n, 1e8, seed=n)
    packed = lu_decompose(a).lu
    packed.setflags(write=False)
    return packed


class TestBlockedSolvesAgainstRowLoop:
    """``blocked_forward_substitute`` / ``blocked_back_substitute`` (inverted
    leaf blocks, GEMMs throughout) against the row loops, over leaf widths
    that are and are not powers of two and orders on both sides of a leaf."""

    # Same reasoning, and the same value, as TestBlockedColumnKernel.TOL
    # (worst observed ratio 0.27).
    TOL = 1.0

    @pytest.mark.parametrize("kind", ["random", "graded"])
    @pytest.mark.parametrize("unit", [False, True], ids=["diag", "unit"])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 63, 64, 65, 129, 300])
    def test_matches_row_loop_for_every_block_width(self, rng, kind, unit, n):
        packed = _packed_factors(kind, n)
        l = packed if unit else packed.T
        tri = np.tril(l)
        if unit:
            np.fill_diagonal(tri, 1.0)
        bound = self.TOL * np.finfo(float).eps * np.linalg.cond(tri, 1)
        b = rng.standard_normal((n, 5))
        want_f = forward_substitute(l, b, unit_diagonal=unit)
        want_b = back_substitute(l.T, b, unit_diagonal=unit)
        for block in (1, 3, 16, 48, 64):
            got = blocked_forward_substitute(l, b, unit_diagonal=unit, block=block)
            assert np.abs(got - want_f).max() <= bound * np.abs(want_f).max()
            got = blocked_back_substitute(l.T, b, unit_diagonal=unit, block=block)
            assert np.abs(got - want_b).max() <= bound * np.abs(want_b).max()
        # the default width, on a vector
        got = blocked_forward_substitute(l, b[:, 0], unit_diagonal=unit)
        assert got.shape == (n,)
        assert np.abs(got - want_f[:, 0]).max() <= bound * np.abs(want_f).max()

    def test_upper_triangle_is_never_read(self, rng):
        l = random_lower(rng, 70)
        junk = l + np.triu(np.full((70, 70), np.nan), k=1)
        b = rng.standard_normal((70, 3))
        assert np.array_equal(
            blocked_forward_substitute(junk, b), blocked_forward_substitute(l, b)
        )
        assert np.array_equal(
            blocked_back_substitute(junk.T, b), blocked_back_substitute(l.T, b)
        )
        assert np.array_equal(
            invert_lower_columns(junk, [0, 40]), invert_lower_columns(l, [0, 40])
        )

    @pytest.mark.parametrize("solve", [blocked_forward_substitute, blocked_back_substitute])
    @pytest.mark.parametrize("block", [0, -1])
    def test_block_below_one_rejected(self, solve, block):
        # was: recursion until RecursionError
        with pytest.raises(ValueError, match="block must be >= 1"):
            solve(np.eye(4), np.ones(4), block=block)

    def test_zero_diagonal_named_in_the_factor_not_the_leaf(self, rng):
        l = random_lower(rng, 100)
        l[70, 70] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="70"):
            blocked_forward_substitute(l, np.ones(100))
        # ... and ignored when the diagonal is implied
        blocked_forward_substitute(l, np.ones(100), unit_diagonal=True)


class TestNonFiniteDiagonal:
    """A NaN or infinite diagonal entry is as singular as a zero one: every
    kernel raises naming it, before any arithmetic, instead of returning
    NaNs."""

    KERNELS = {
        "invert_lower": lambda l: invert_lower(l),
        "invert_upper": lambda l: invert_upper(l.T),
        "invert_lower_columns": lambda l: invert_lower_columns(l, [0]),
        "invert_upper_rows": lambda l: invert_upper_rows(l.T, [0]),
        "blocked_forward": lambda l: blocked_forward_substitute(l, np.ones(len(l))),
        "blocked_back": lambda l: blocked_back_substitute(l.T, np.ones(len(l))),
        "forward": lambda l: forward_substitute(l, np.ones(len(l))),
        "back": lambda l: back_substitute(l.T, np.ones(len(l))),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("n", [20, 150])
    def test_raises_naming_the_entry(self, rng, kernel, bad, n):
        l = random_lower(rng, n)
        l[7, 7] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite diagonal at 7$"):
            self.KERNELS[kernel](l)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_zero_still_named_zero(self, rng, kernel):
        l = random_lower(rng, 100)
        l[90, 90] = 0.0
        l[95, 95] = np.nan  # the first bad entry is the one named
        with pytest.raises(np.linalg.LinAlgError, match="zero diagonal at 90$"):
            self.KERNELS[kernel](l)


class TestLeafEdgeCases:
    """Right-hand sides and operands whose memory layout the leaf kernel
    has to get right: a single column, no column, a ragged last leaf,
    transposed pieces, and a packed LU whose diagonal holds ``U``."""

    @pytest.mark.parametrize("n", [1, _LEAF, 2 * _LEAF + 3])
    def test_one_column_and_no_column(self, rng, n):
        l = random_lower(rng, n)
        b = rng.standard_normal((n, 1))
        want = forward_substitute(l, b)
        bound = np.finfo(float).eps * np.linalg.cond(l, 1) * np.abs(want).max()
        for rhs in (b, b[:, 0], np.asfortranarray(b)):
            got = blocked_forward_substitute(l, rhs)
            assert got.shape == rhs.shape
            assert np.abs(got.reshape(n, 1) - want).max() <= bound
        want = back_substitute(l.T, b)
        got = blocked_back_substitute(l.T, b)
        assert np.abs(got - want).max() <= np.finfo(float).eps * np.linalg.cond(
            l, 1
        ) * np.abs(want).max()
        assert blocked_forward_substitute(l, np.ones((n, 0))).shape == (n, 0)
        assert blocked_back_substitute(l.T, np.ones((n, 0))).shape == (n, 0)
        assert invert_lower_columns(l, []).shape == (n, 0)

    @pytest.mark.parametrize("n", [_LEAF + 1, 3 * _LEAF + 7])
    def test_ragged_last_leaf(self, rng, n):
        l = random_lower(rng, n)
        bound = np.finfo(float).eps * np.linalg.cond(l, 1)
        b = rng.standard_normal((n, 4))
        for got, want in (
            (blocked_forward_substitute(l, b), forward_substitute(l, b)),
            (blocked_back_substitute(l.T, b), back_substitute(l.T, b)),
            (
                invert_lower_columns(l, [n - 1, n - 2, 0]),
                forward_substitute(l, np.eye(n)[:, [n - 1, n - 2, 0]]),
            ),
        ):
            assert np.abs(got - want).max() <= bound * np.abs(want).max()

    def test_transposed_triangle_pieces(self, rng):
        """An upper :class:`Triangle` of C-ordered pieces is solved through
        its transpose, whose leaves are transposed views."""
        n, n1 = 3 * _LEAF + 10, 2 * _LEAF
        u = random_lower(rng, n).T.copy()
        u.setflags(write=False)
        tri = Triangle(
            n1, u[:n1, :n1], u[n1:, n1:], ((0, n - n1, u[:n1, n1:]),), lower=False
        )
        assert np.array_equal(tri.dense(), u)
        rows = np.arange(1, n, 3)
        want = back_substitute(u, np.eye(n))[rows]
        bound = np.finfo(float).eps * np.linalg.cond(u, 1) * np.abs(want).max()
        assert np.abs(invert_upper_rows(tri, rows) - want).max() <= bound
        b = rng.standard_normal((n, 3))
        want = forward_substitute(u.T, b)
        bound = np.finfo(float).eps * np.linalg.cond(u, 1) * np.abs(want).max()
        assert np.abs(blocked_forward_substitute(tri.T, b) - want).max() <= bound

    def test_unit_diagonal_on_packed_lu_never_reads_the_diagonal(self, rng):
        n = 2 * _LEAF + 9
        packed = _packed_factors("random", n)
        b = rng.standard_normal((n, 3))
        junk = packed.copy()
        np.fill_diagonal(junk, np.nan)
        unit = np.tril(packed, -1) + np.eye(n)
        want = forward_substitute(unit, b)
        got = blocked_forward_substitute(packed, b, unit_diagonal=True)
        assert np.abs(got - want).max() <= np.finfo(float).eps * np.linalg.cond(
            unit, 1
        ) * np.abs(want).max()
        assert np.array_equal(blocked_forward_substitute(junk, b, unit_diagonal=True), got)
        # and U^T stored above the diagonal of the transpose is never read
        got = blocked_back_substitute(packed.T, b, unit_diagonal=True)
        assert np.array_equal(blocked_back_substitute(junk.T, b, unit_diagonal=True), got)
        assert np.allclose(unit.T @ got, b)


# The classes that hold the blocked kernels to the row loops, rerun on the
# fallback leaf kernel (the original class names run the compiled one).
@pytest.mark.usefixtures("numpy_leaves")
class TestBlockedColumnKernelNumpyLeaves(TestBlockedColumnKernel):
    pass


@pytest.mark.usefixtures("numpy_leaves")
class TestBlockedSolvesAgainstRowLoopNumpyLeaves(TestBlockedSolvesAgainstRowLoop):
    pass


@pytest.mark.usefixtures("numpy_leaves")
class TestNonFiniteDiagonalNumpyLeaves(TestNonFiniteDiagonal):
    pass


@pytest.mark.usefixtures("numpy_leaves")
class TestLeafEdgeCasesNumpyLeaves(TestLeafEdgeCases):
    pass


class TestCompiledLeaves:
    def test_scipy_openblas_numpy_runs_dtrsm(self, monkeypatch):
        """A numpy that links scipy-openblas must not fall back silently."""
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except TypeError:
            pytest.skip("numpy < 1.26 has no show_config(mode='dicts')")
        if blas != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas}")
        assert _openblas.DTRSM is not None
        real, calls = _openblas.DTRSM, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        l = _pipeline_lower("random", 4 * _LEAF)
        monkeypatch.setattr(_openblas, "DTRSM", counting)
        inverse = invert_lower(l)
        assert len(calls) == 4  # one per leaf
        monkeypatch.undo()
        assert identity_residual(l, inverse) <= expected_residual_bound(l)

    def test_layouts_the_call_cannot_take_are_copied(self, rng):
        """A leaf strided along both axes and a right-hand side whose rows
        are not contiguous go through contiguous copies."""
        if _openblas.DTRSM is None:
            pytest.skip("numpy's BLAS exports no dtrsm")
        big = random_lower(rng, 2 * 40)
        t = big[::2, ::2]
        b = np.asfortranarray(rng.standard_normal((40, 6)))
        want = forward_substitute(t, b)
        _openblas.trsm(t, b)
        assert np.allclose(b, want, rtol=1e-10, atol=1e-12)
        b = np.asfortranarray(rng.standard_normal((40, 6)))
        want = back_substitute(t.T, b)
        _openblas.trsm(t, b, transpose=True)
        assert np.allclose(b, want, rtol=1e-10, atol=1e-12)

    def test_operands_are_validated_before_the_call(self, rng):
        if _openblas.DTRSM is None:
            pytest.skip("numpy's BLAS exports no dtrsm")
        t = random_lower(rng, 8)
        for bad_t, bad_b in (
            (t[:7, :7], np.ones((8, 2))),
            (t.astype(np.float32), np.ones((8, 2))),
            (t, np.ones((8, 2), dtype=np.float32)),
        ):
            with pytest.raises(ValueError, match="float64"):
                _openblas.trsm(bad_t, bad_b)
        b = np.ones((8, 2))
        b.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            _openblas.trsm(t, b)


class TestKernelsHoldNoCycles:
    """A self-recursive nested ``solve`` is a function -> cell -> function
    cycle that pins the operand and the result until the cyclic collector
    runs; the recursions are module-level functions so refcounting frees
    both at once."""

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda l: blocked_forward_substitute(l, np.ones((l.shape[0], 2)), block=16),
            lambda l: blocked_back_substitute(l.T, np.ones((l.shape[0], 2)), block=16),
            lambda l: invert_lower_columns(l, np.arange(0, l.shape[0], 2)),
        ],
        ids=["blocked_forward", "blocked_back", "invert_lower_columns"],
    )
    def test_operand_and_result_freed_by_refcount(self, rng, kernel):
        l = random_lower(rng, 150)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = sys.getrefcount(l)
            out = kernel(l)
            assert sys.getrefcount(l) == before
            gone = weakref.ref(out)
            del out
            assert gone() is None
        finally:
            if was_enabled:
                gc.enable()


class TestUpperInverse:
    @pytest.mark.parametrize("n", [1, 6, 25])
    def test_inverse(self, rng, n):
        u = random_lower(rng, n).T
        uinv = invert_upper(u)
        assert np.allclose(u @ uinv, np.eye(n), atol=1e-9)

    def test_inverse_is_upper_triangular(self, rng):
        uinv = invert_upper(random_lower(rng, 11).T)
        assert is_upper_triangular(uinv, tol=1e-12)

    def test_row_subset_matches_full(self, rng):
        u = random_lower(rng, 13).T
        full = invert_upper(u)
        rows = np.array([1, 4, 12])
        sub = invert_upper_rows(u, rows)
        assert np.allclose(sub, full[rows])

    def test_transpose_relation(self, rng):
        """Section 6.3's identity: U^-1 = (invert_lower(U^T))^T."""
        u = random_lower(rng, 9).T
        assert np.allclose(invert_upper(u), invert_lower(u.T).T)


class TestPredicates:
    def test_is_lower(self):
        assert is_lower_triangular(np.tril(np.ones((4, 4))))
        assert not is_lower_triangular(np.ones((4, 4)))

    def test_is_upper(self):
        assert is_upper_triangular(np.triu(np.ones((4, 4))))
        assert not is_upper_triangular(np.ones((4, 4)))

    def test_tolerance(self):
        m = np.tril(np.ones((3, 3)))
        m[0, 2] = 1e-15
        assert not is_lower_triangular(m)
        assert is_lower_triangular(m, tol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(TriangularShapeError):
            invert_lower(np.zeros((2, 3)))
