"""Condition estimation and plan description."""

import numpy as np
import pytest

from repro.linalg import (
    condition_estimate,
    estimate_inverse_one_norm,
    expected_residual_bound,
    lu_decompose,
    one_norm,
)
from repro.workloads import hilbert, ill_conditioned, orthogonal

from conftest import random_invertible


class TestOneNorm:
    def test_definition(self):
        a = np.array([[1.0, -4.0], [2.0, 1.0]])
        assert one_norm(a) == 5.0

    def test_identity(self):
        assert one_norm(np.eye(7)) == 1.0


class TestConditionEstimate:
    def test_identity_condition_one(self):
        assert condition_estimate(np.eye(16)) == pytest.approx(1.0)

    def test_orthogonal_well_conditioned(self):
        q = orthogonal(24, seed=1)
        # 1-norm condition of an orthogonal matrix <= n but is O(1)-ish.
        assert condition_estimate(q) < 24

    def test_matches_true_condition_within_small_factor(self, rng):
        a = random_invertible(rng, 30)
        true_cond = one_norm(a) * one_norm(np.linalg.inv(a))
        est = condition_estimate(a)
        assert est <= true_cond * 1.01  # estimator never overshoots much
        assert est > true_cond / 10  # and is within a small factor

    @pytest.mark.parametrize("target", [1e4, 1e8, 1e12])
    def test_tracks_designed_conditioning(self, target):
        a = ill_conditioned(32, condition=target, seed=2)
        est = condition_estimate(a)
        assert target / 100 < est < target * 100

    def test_hilbert_flagged_as_terrible(self):
        assert condition_estimate(hilbert(10)) > 1e10

    def test_reuses_supplied_factors(self, rng):
        a = random_invertible(rng, 20)
        lu = lu_decompose(a)
        assert condition_estimate(a, lu) == condition_estimate(a)

    def test_inverse_norm_estimate_is_lower_bound(self, rng):
        a = random_invertible(rng, 25)
        lu = lu_decompose(a)
        est = estimate_inverse_one_norm(lu)
        assert est <= one_norm(np.linalg.inv(a)) * 1.01

    def test_expected_residual_bound_predicts_section72(self, rng):
        """The estimator explains WHY Section 7.2's 1e-5 bound holds for the
        paper's random matrices: cond * eps is tiny."""
        from repro import InversionConfig, invert
        from repro.workloads import random_dense

        a = random_dense(64, seed=3)
        bound = expected_residual_bound(a)
        res = invert(a, InversionConfig(nb=16, m0=4))
        assert bound < 1e-5
        assert res.residual(a) < max(100 * bound, 1e-12)


class TestPlanDescribe:
    def test_describe_contains_tree(self):
        from repro.inversion import InversionPlan

        plan = InversionPlan(n=256, nb=64, m0=4)
        text = plan.describe()
        assert "n=256" in text and "jobs=5" in text
        assert "/Root/A1" in text and "master LU" in text
        assert text.count("leaf") == len(plan.tree.leaves())

