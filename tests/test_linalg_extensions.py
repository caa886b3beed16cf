"""Newton-Schulz refinement (the numerical-stability extension)."""

import numpy as np
import pytest

from repro.linalg import newton_schulz_refine
from repro.workloads import ill_conditioned

from conftest import random_invertible


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
