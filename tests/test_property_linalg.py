"""Property-based tests for the numerical kernels (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg import (
    back_substitute,
    forward_substitute,
    invert_lower,
    invert_lower_columns,
    lu_decompose,
    permutation,
    solve_lu,
)
from repro.linalg.blockwrap import (
    block_wrap_multiply,
    contiguous_ranges,
    factor_grid,
    grid_block_multiply,
    naive_multiply,
    strided_indices,
)
from repro.linalg.verify import lu_residual

# Well-conditioned random square matrices: bounded entries + diagonal shift.
def square_matrices(max_n=24):
    return st.integers(1, max_n).flatmap(
        lambda n: arrays(
            np.float64,
            (n, n),
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        ).map(lambda a: a + (np.abs(a).sum() + 1.0) * np.eye(n))
    )


class TestLUProperties:
    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_pa_equals_lu(self, a):
        res = lu_decompose(a)
        scale = max(np.abs(a).max(), 1.0)
        assert lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-8 * scale

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_perm_is_valid(self, a):
        res = lu_decompose(a)
        assert permutation.is_permutation(res.perm)

    @given(square_matrices(max_n=16))
    @settings(max_examples=30, deadline=None)
    def test_solve_inverts_matvec(self, a):
        n = a.shape[0]
        x = np.linspace(-1, 1, n)
        res = lu_decompose(a)
        recovered = solve_lu(res, a @ x)
        assert np.allclose(recovered, x, atol=1e-6)

    @given(square_matrices(max_n=16))
    @settings(max_examples=30, deadline=None)
    def test_triangular_substitution_roundtrip(self, a):
        res = lu_decompose(a)
        lower, upper = res.lower(), res.upper()
        n = a.shape[0]
        x = np.ones(n)
        assert np.allclose(forward_substitute(lower, lower @ x), x, atol=1e-7)
        assert np.allclose(back_substitute(upper, upper @ x), x, atol=1e-6)

    @given(square_matrices(max_n=16))
    @settings(max_examples=30, deadline=None)
    def test_lower_inverse_property(self, a):
        lower = lu_decompose(a).lower()
        linv = invert_lower(lower)
        assert np.allclose(lower @ linv, np.eye(a.shape[0]), atol=1e-7)


    @given(square_matrices(max_n=80), st.data())
    @settings(max_examples=40, deadline=None)
    def test_lower_inverse_columns_any_index_list(self, a, data):
        """Column *t* of the result is column ``columns[t]`` of ``L^-1`` for
        any index list — unsorted, repeated or empty."""
        n = a.shape[0]
        lower = lu_decompose(a).upper().T  # the U^T the final job inverts
        cols = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        got = invert_lower_columns(lower, cols)
        want = forward_substitute(lower, np.eye(n)[:, cols])
        assert got.shape == (n, len(cols))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max(initial=0.0))


class TestPermutationProperties:
    @given(st.integers(1, 50), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_invert_is_involution(self, n, rnd):
        s = np.array(rnd.sample(range(n), n))
        assert np.array_equal(permutation.invert(permutation.invert(s)), s)

    @given(st.integers(1, 30), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_row_col_application_consistency(self, n, rnd):
        s = np.array(rnd.sample(range(n), n))
        a = np.arange(float(n * n)).reshape(n, n)
        via_matrix = permutation.to_matrix(s)
        assert np.array_equal(permutation.apply_rows(s, a), via_matrix @ a)
        assert np.array_equal(permutation.apply_columns(s, a), a @ via_matrix)

    @given(
        st.integers(1, 20), st.integers(1, 20), st.randoms(use_true_random=False)
    )
    @settings(max_examples=50, deadline=None)
    def test_augment_preserves_permutation(self, n1, n2, rnd):
        p1 = np.array(rnd.sample(range(n1), n1))
        p2 = np.array(rnd.sample(range(n2), n2))
        assert permutation.is_permutation(permutation.augment(p1, p2))


class TestBlockWrapProperties:
    @given(st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_factor_grid_invariants(self, m0):
        f1, f2 = factor_grid(m0)
        assert f1 * f2 == m0 and f2 <= f1

    @given(st.integers(0, 100), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_contiguous_ranges_partition(self, n, parts):
        ranges = contiguous_ranges(n, parts)
        assert len(ranges) == parts
        covered = [i for a, b in ranges for i in range(a, b)]
        assert covered == list(range(n))

    @given(st.integers(1, 60), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_strided_indices_partition(self, n, parts):
        seen = sorted(
            int(i) for p in range(parts) for i in strided_indices(n, parts, p)
        )
        assert seen == list(range(n))

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 9),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_multiply_schemes_agree(self, rows, inner, cols, m0, rnd):
        rng = np.random.default_rng(rnd.randrange(2**31))
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        expected = a @ b
        for scheme in (naive_multiply, block_wrap_multiply, grid_block_multiply):
            out, stats = scheme(a, b, m0)
            assert np.allclose(out, expected, atol=1e-9)
            assert len(stats.per_node_elements_read) >= 1
