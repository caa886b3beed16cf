"""Tile LU and Newton-Schulz refinement (a related-work kernel and the
numerical-stability extension)."""

import numpy as np
import pytest

from repro.linalg import (
    lu_decompose,
    newton_schulz_refine,
    tile_lu,
    tile_task_counts,
)
from repro.linalg.verify import lu_residual
from repro.workloads import ill_conditioned

from conftest import random_invertible


class TestTileLU:
    @pytest.mark.parametrize("n, tile", [(16, 4), (30, 7), (64, 16), (10, 32), (33, 8)])
    def test_pa_equals_lu(self, rng, n, tile):
        a = random_invertible(rng, n)
        res, _ = tile_lu(a, tile=tile)
        assert lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-9

    def test_single_tile_equals_plain_lu(self, rng):
        a = random_invertible(rng, 12)
        tiled, counts = tile_lu(a, tile=12)
        plain = lu_decompose(a)
        assert np.allclose(tiled.lu, plain.lu)
        assert np.array_equal(tiled.perm, plain.perm)
        assert counts.getrf == 1 and counts.trsm == 0 and counts.gemm == 0

    def test_task_counts_match_closed_form(self, rng):
        a = random_invertible(rng, 40)
        _, counts = tile_lu(a, tile=10)
        expected = tile_task_counts(40, 10)
        assert counts.getrf == expected.getrf == 4
        assert counts.trsm == expected.trsm == 12
        assert counts.gemm == expected.gemm == 14

    def test_rescues_zero_leading_element(self, rng):
        a = random_invertible(rng, 24)
        a[0, 0] = 0.0
        res, _ = tile_lu(a, tile=6)
        assert lu_residual(a, res.lower(), res.upper(), res.perm) < 1e-9

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            tile_lu(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            tile_lu(np.eye(4), tile=0)


class TestNewtonSchulz:
    def test_polishes_truncated_inverse(self, rng):
        a = random_invertible(rng, 24)
        x0 = np.linalg.inv(a) + 1e-4 * rng.standard_normal((24, 24))
        res = newton_schulz_refine(a, x0)
        assert res.converged
        assert res.final_residual < 1e-12
        assert res.residual_history[0] > res.final_residual

    def test_quadratic_convergence(self, rng):
        a = random_invertible(rng, 16)
        x0 = np.linalg.inv(a) * (1 + 1e-3)
        res = newton_schulz_refine(a, x0, tol=1e-15)
        h = res.residual_history
        # Each step roughly squares the residual until roundoff.
        assert h[1] < h[0] ** 1.5

    def test_exact_inverse_is_fixed_point(self, rng):
        a = random_invertible(rng, 12)
        res = newton_schulz_refine(a, np.linalg.inv(a))
        assert res.iterations <= 1
        assert res.converged

    def test_divergence_detected_not_raised(self, rng):
        a = random_invertible(rng, 10)
        res = newton_schulz_refine(a, np.zeros((10, 10)) + 100.0, max_iterations=5)
        assert not res.converged

    def test_improves_pipeline_result_on_ill_conditioned(self):
        from repro import InversionConfig, invert
        from repro.linalg.verify import identity_residual

        a = ill_conditioned(40, condition=1e10, seed=6)
        raw = invert(a, InversionConfig(nb=10, m0=4)).inverse
        refined = newton_schulz_refine(a, raw).inverse
        assert identity_residual(a, refined) <= identity_residual(a, raw)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            newton_schulz_refine(np.eye(3), np.eye(4))
