"""Single-node LU decomposition (Algorithm 1)."""

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.linalg import _openblas, lu_decompose, solve_lu
from repro.linalg.lu import SingularMatrixError, lu_flop_count, lu_reconstruct
from repro.linalg import permutation, verify
from repro.workloads import ill_conditioned, needs_cross_block_pivot, random_dense

from conftest import random_invertible


def algorithm1_lu(a):
    """Algorithm 1 as the paper lists it, one rank-1 update of the whole
    trailing matrix per column: the reference for the panelled kernel (and
    for its speed guard in test_gj_mr_and_blocked.py)."""
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    perm = np.arange(n)
    for i in range(n):
        j = i + int(np.argmax(np.abs(lu[i:, i])))
        if j != i:
            lu[[i, j], :] = lu[[j, i], :]
            perm[[i, j]] = perm[[j, i]]
        if lu[i, i] == 0.0:
            raise SingularMatrixError(f"zero pivot at step {i}")
        lu[i + 1 :, i] /= lu[i, i]
        lu[i + 1 :, i + 1 :] -= np.outer(lu[i + 1 :, i], lu[i, i + 1 :])
    return lu, perm


@pytest.fixture
def numpy_kernel(monkeypatch):
    """The panelled NumPy loop: the kernel where numpy's LAPACK exports no
    ``dgetf2``."""
    monkeypatch.setattr(_openblas, "DGETF2", None)


class TestFactorization:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64])
    def test_pa_equals_lu(self, rng, n):
        a = random_invertible(rng, n)
        res = lu_decompose(a)
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-10

    def test_factors_have_right_shape(self, rng):
        a = random_invertible(rng, 8)
        res = lu_decompose(a)
        lower, upper = res.lower(), res.upper()
        assert np.allclose(np.triu(lower, k=1), 0)
        assert np.allclose(np.tril(upper, k=-1), 0)
        assert np.allclose(np.diag(lower), 1.0)

    def test_perm_is_permutation(self, rng):
        a = random_invertible(rng, 20)
        res = lu_decompose(a)
        assert permutation.is_permutation(res.perm)

    def test_input_not_modified(self, rng):
        a = random_invertible(rng, 10)
        copy = a.copy()
        lu_decompose(a)
        assert np.array_equal(a, copy)

    def test_identity_factors_trivially(self):
        res = lu_decompose(np.eye(5))
        assert np.array_equal(res.lower(), np.eye(5))
        assert np.array_equal(res.upper(), np.eye(5))
        assert np.array_equal(res.perm, np.arange(5))

    def test_already_triangular_input(self):
        u = np.triu(np.arange(1.0, 17.0).reshape(4, 4)) + np.eye(4)
        res = lu_decompose(u, pivot=False)
        assert np.allclose(res.upper(), u)

    def test_reconstruct_helper(self, rng):
        a = random_invertible(rng, 6)
        res = lu_decompose(a)
        assert np.allclose(lu_reconstruct(res), permutation.apply_rows(res.perm, a))


class TestPivoting:
    def test_pivoting_selects_column_max(self):
        a = np.array([[1e-12, 1.0], [1.0, 1.0]])
        res = lu_decompose(a)
        assert res.perm[0] == 1  # the big row was swapped up

    def test_pivoting_rescues_zero_leading_element(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = lu_decompose(a)
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) == 0.0

    def test_no_pivot_fails_on_zero_leading_element(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            lu_decompose(a, pivot=False)

    def test_pivoting_improves_accuracy(self, rng):
        """The numerical motivation of Section 4.1."""
        n = 60
        a = random_invertible(rng, n)
        a[0, 0] = 1e-14  # poison the leading pivot
        res_piv = lu_decompose(a, pivot=True)
        res_nopiv = lu_decompose(a, pivot=False)
        err_piv = verify.lu_residual(a, res_piv.lower(), res_piv.upper(), res_piv.perm)
        err_nopiv = verify.lu_residual(
            a, res_nopiv.lower(), res_nopiv.upper(), res_nopiv.perm
        )
        assert err_piv < err_nopiv / 1e3


class TestErrors:
    def test_singular_matrix_detected(self):
        a = np.ones((4, 4))
        with pytest.raises(SingularMatrixError):
            lu_decompose(a)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            lu_decompose(rng.standard_normal((3, 4)))

    def test_pivot_tol_treats_small_as_zero(self):
        a = np.diag([1.0, 1e-20])
        with pytest.raises(SingularMatrixError):
            lu_decompose(a, pivot_tol=1e-12)


    def test_all_ones_fails_at_step_one(self):
        with pytest.raises(SingularMatrixError, match="zero pivot at step 1 "):
            lu_decompose(np.ones((40, 40)))

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, -np.inf])
    def test_pivot_tol_must_be_finite_and_non_negative(self, tol):
        # was: -1 accepted the exact zero pivot of ones((3, 3)) and divided
        # by it; NaN failed every matrix at step 0
        with pytest.raises(ValueError, match="pivot_tol must be finite and >= 0"):
            lu_decompose(np.ones((3, 3)), pivot_tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (5, 7), (39, 39), (20, 35), (39, 0)])
    def test_non_finite_entry_raises_never_returns_nan(self, bad, where):
        # was: NaN factors, silently (NaN) or after a RuntimeWarning (inf)
        a = random_dense(40, seed=1)
        a[where] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            SingularMatrixError, match=r"non-finite pivot at step \d+"
        ):
            lu_decompose(a)


class TestPanelledAgainstAlgorithm1:
    """The panelled right-looking kernel makes Algorithm 1's pivot choices
    and computes its factors, up to the summation order of the GEMM."""

    @pytest.mark.parametrize(
        "gen",
        [
            lambda n: random_dense(n, seed=n),
            lambda n: ill_conditioned(n, 1e8, seed=n),
            needs_cross_block_pivot,
        ],
        ids=["random_dense", "ill_conditioned", "needs_cross_block_pivot"],
    )
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 128, 200])
    def test_same_perm_and_factors(self, gen, n):
        a = gen(n)
        res = lu_decompose(a)
        ref_lu, ref_perm = algorithm1_lu(a)
        assert np.array_equal(res.perm, ref_perm)
        # both are backward stable; the factors themselves move with cond(a)
        drift = np.finfo(float).eps * np.linalg.cond(a, 1) * np.abs(ref_lu).max()
        assert np.abs(res.lu - ref_lu).max() <= drift
        assert verify.lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-10


class TestSolve:
    def test_solve_single_rhs(self, rng):
        a = random_invertible(rng, 12)
        x_true = rng.standard_normal(12)
        res = lu_decompose(a)
        x = solve_lu(res, a @ x_true)
        assert np.allclose(x, x_true)

    def test_solve_multiple_rhs(self, rng):
        a = random_invertible(rng, 10)
        x_true = rng.standard_normal((10, 3))
        res = lu_decompose(a)
        x = solve_lu(res, a @ x_true)
        assert np.allclose(x, x_true)

    def test_solve_spans_several_leaves(self, rng):
        a = random_invertible(rng, 150)
        x_true = rng.standard_normal((150, 2))
        assert np.allclose(solve_lu(lu_decompose(a), a @ x_true), x_true, atol=1e-8)


# The classes above run the compiled kernel where numpy provides it; these
# run the same tests on the NumPy fallback.
@pytest.mark.usefixtures("numpy_kernel")
class TestErrorsNumpyKernel(TestErrors):
    pass


@pytest.mark.usefixtures("numpy_kernel")
class TestPanelledAgainstAlgorithm1NumpyKernel(TestPanelledAgainstAlgorithm1):
    pass


@pytest.mark.usefixtures("numpy_kernel")
class TestSolveNumpyKernel(TestSolve):
    pass


class TestCompiledKernel:
    def test_scipy_openblas_numpy_runs_dgetf2(self, monkeypatch):
        """A numpy that links scipy-openblas must not fall back silently."""
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        except TypeError:
            pytest.skip("numpy < 1.26 has no show_config(mode='dicts')")
        if lapack != "scipy-openblas":
            pytest.skip(f"numpy's LAPACK is {lapack}")
        assert _openblas.DGETF2 is not None
        real, calls = _openblas.DGETF2, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_openblas, "DGETF2", counting)
        a = random_dense(128, seed=3)
        res = lu_decompose(a)
        assert len(calls) == 1
        assert np.array_equal(res.perm, algorithm1_lu(a)[1])
        assert res.lu.flags.c_contiguous
        # and the pipeline's leaves, four of order 16 here
        a = random_dense(64, seed=4)
        assert invert(a, InversionConfig(nb=16, m0=4)).residual(a) < 1e-10
        assert len(calls) == 1 + 4

    def test_pivot_false_runs_the_numpy_loop(self, monkeypatch):
        monkeypatch.setattr(_openblas, "DGETF2", lambda *args: pytest.fail("dgetf2 called"))
        res = lu_decompose(np.array([[2.0, 1.0], [4.0, 3.0]]), pivot=False)
        assert np.array_equal(res.perm, [0, 1])

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_orders(self, n):
        a = np.full((n, n), 3.0)
        res = lu_decompose(a)
        assert np.array_equal(res.lu, a) and res.perm.tolist() == list(range(n))


class TestAccounting:
    def test_flop_count(self):
        assert lu_flop_count(10) == pytest.approx(1000 / 3)

    def test_result_flops_matches_formula(self, rng):
        res = lu_decompose(random_invertible(rng, 9))
        assert res.flops() == lu_flop_count(9)
