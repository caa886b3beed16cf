"""Numerical behaviour across matrix classes: the Section 7.2 claim probed
beyond the paper's random matrices, plus the documented limitation of
block-local pivoting."""

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.linalg import SingularMatrixError, lu_decompose
from repro.linalg.verify import PAPER_RESIDUAL_BOUND, identity_residual
from repro.mapreduce import JobFailedError
from repro.workloads import (
    diagonally_dominant,
    ill_conditioned,
    needs_cross_block_pivot,
    orthogonal,
    random_dense,
    singular_matrix,
    symmetric_positive_definite,
    tridiagonal,
)

CFG = InversionConfig(nb=16, m0=4)


class TestMatrixClasses:
    @pytest.mark.parametrize(
        "gen",
        [
            random_dense,
            diagonally_dominant,
            symmetric_positive_definite,
            orthogonal,
            tridiagonal,
        ],
        ids=lambda g: g.__name__,
    )
    def test_well_behaved_classes_meet_paper_bound(self, gen):
        a = gen(64, seed=9)
        res = invert(a, CFG)
        assert res.residual(a) < PAPER_RESIDUAL_BOUND

    def test_orthogonal_inverse_is_transpose(self):
        q = orthogonal(48, seed=2)
        res = invert(q, CFG)
        assert np.allclose(res.inverse, q.T, atol=1e-10)

    def test_uniform_random_like_paper(self):
        """The paper's exact workload (uniform [0,1) entries) at several
        orders; residual stays far below 1e-5."""
        for n in (32, 64, 128):
            a = random_dense(n, seed=n)
            res = invert(a, InversionConfig(nb=max(n // 4, 8), m0=4))
            assert res.residual(a) < 1e-9


class TestConditioning:
    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_residual_scales_with_condition_number(self, cond):
        """The relative inversion error grows ~ condition x machine epsilon;
        the identity residual stays small because it is measured against A's
        own scale."""
        a = ill_conditioned(48, condition=cond, seed=1)
        res = invert(a, CFG)
        assert res.residual(a) < 1e-6  # still passes the 1e-5 bound

    def test_extreme_conditioning_degrades(self):
        a = ill_conditioned(48, condition=1e14, seed=2)
        res = invert(a, CFG)
        reference = np.linalg.inv(a)
        rel = np.linalg.norm(res.inverse - reference) / np.linalg.norm(reference)
        # Pipeline degrades comparably to LAPACK, not catastrophically worse.
        assert identity_residual(a, res.inverse) < 100 * identity_residual(a, reference) + 1e-4

    def test_block_local_vs_full_pivot_accuracy(self):
        """Block-local pivoting (P = diag(P1, P2)) tracks full partial
        pivoting on random matrices — the reason the paper can restrict
        pivots to diagonal blocks."""
        from repro.linalg import lu_decompose

        a = random_dense(96, seed=3)
        pipeline = invert(a, InversionConfig(nb=24, m0=4))
        assert pipeline.residual(a) < 1e-10


class TestFailureModes:
    def test_singular_matrix_raises_or_fails_residual(self):
        """Exact zero pivots raise; a numerically singular matrix may slip
        through with a tiny pivot (as in LAPACK's GETRF), in which case the
        Section 7.2 residual check is what exposes the garbage result."""
        a = singular_matrix(32, rank_deficiency=1, seed=4)
        try:
            res = invert(a, CFG)
        except (SingularMatrixError, JobFailedError):
            return
        assert res.residual(a) > PAPER_RESIDUAL_BOUND

    def test_exactly_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.ones((32, 32)), CFG)

    @pytest.mark.parametrize(
        "executor, schedule",
        [
            ("serial", "barrier"),
            ("threads", "barrier"),
            ("threads", "dataflow"),
            ("processes", "barrier"),
            ("processes", "dataflow"),
        ],
    )
    def test_singular_leaf_fails_on_its_one_factorization(
        self, monkeypatch, executor, schedule
    ):
        """Leaf LU runs on the driver, not in a task: the first singular leaf
        raises on its only factorization, nothing is retried, and the error
        names the leaf."""
        import repro.inversion.driver as driver

        calls = []

        def counting_lu(block):
            calls.append(block.shape)
            return lu_decompose(block)

        monkeypatch.setattr(driver, "lu_decompose", counting_lu)
        a = random_dense(256, seed=0)
        a[200:] = 0.0
        cfg = InversionConfig(
            nb=16, m0=4, executor=executor, num_workers=2, schedule=schedule
        )
        with pytest.raises(
            SingularMatrixError, match=r"^leaf /Root/\S+ \(global row offset 192\): zero pivot"
        ):
            invert(a, cfg)
        # Leaves are factorized in row order; row 200 is in the 13th.
        assert len(calls) == 200 // 16 + 1

    def test_cross_block_pivot_limitation_documented(self):
        """An invertible matrix whose leading diagonal block is singular
        defeats block-local pivoting (Algorithm 2 cannot pivot rows across
        the block boundary) — the scheme's known limitation."""
        a = needs_cross_block_pivot(32)
        assert np.linalg.matrix_rank(a) == 32
        with pytest.raises(SingularMatrixError):
            invert(a, InversionConfig(nb=8, m0=4))

    def test_same_matrix_fine_when_leaf_covers_it(self):
        """...but if nb >= n the whole matrix is one (fully pivoted) leaf
        and the inversion succeeds — pivot scope is the only difference."""
        a = needs_cross_block_pivot(32)
        res = invert(a, InversionConfig(nb=64, m0=4))
        assert res.residual(a) < 1e-10

    def test_near_singular_leaf_rescued_by_block_pivot(self):
        """A zero in the leading position of a leaf is handled by pivoting
        *within* the block."""
        a = random_dense(64, seed=5) + 0.1 * np.eye(64)
        a[0, 0] = 0.0
        res = invert(a, InversionConfig(nb=16, m0=4))
        assert res.residual(a) < 1e-9
