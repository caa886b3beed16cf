"""End-to-end pipeline tests: inversion, LU, ablations, fault tolerance."""

from dataclasses import replace

import numpy as np
import pytest

from repro import InversionConfig, invert
from repro.inversion import MatrixInverter, total_job_count
from repro.inversion.plan import is_full_tree
from repro.linalg import verify
from repro.dfs import DFS
from repro.mapreduce import FailOnce, TaskKind
from repro.mapreduce.backends import (
    EXECUTORS,
    ProcessPoolBackend,
    SerialExecutor,
    ThreadPoolBackend,
)

from conftest import random_invertible


def _with_entry(a: np.ndarray, row: int, col: int, value: float) -> np.ndarray:
    a = a.copy()
    a[row, col] = value
    return a


class TestCorrectness:
    @pytest.mark.parametrize(
        "n, nb, m0",
        [(30, 8, 4), (64, 16, 4), (65, 16, 4), (100, 13, 8), (128, 32, 16), (48, 48, 4)],
    )
    def test_inverse_matches_numpy(self, rng, n, nb, m0):
        a = random_invertible(rng, n)
        res = invert(a, InversionConfig(nb=nb, m0=m0))
        assert np.allclose(res.inverse, np.linalg.inv(a), atol=1e-8)

    def test_residual_meets_paper_bound(self, rng):
        a = random_invertible(rng, 120)
        res = invert(a, InversionConfig(nb=25, m0=4))
        assert verify.passes_paper_bound(a, res.inverse)

    def test_job_count_matches_formula(self, rng):
        n, nb = 128, 16  # d = 3 => 2^3 + 1 = 9 jobs
        assert is_full_tree(n, nb)
        res = invert(random_invertible(rng, n), InversionConfig(nb=nb, m0=4))
        assert res.num_jobs == total_job_count(n, nb) == 9

    def test_single_leaf_runs_one_job(self, rng):
        res = invert(random_invertible(rng, 20), InversionConfig(nb=64, m0=4))
        assert res.num_jobs == 1

    def test_identity_matrix(self):
        res = invert(np.eye(40), InversionConfig(nb=10, m0=4))
        assert np.allclose(res.inverse, np.eye(40))

    def test_diagonal_matrix(self):
        d = np.diag(np.arange(1.0, 33.0))
        res = invert(d, InversionConfig(nb=8, m0=4))
        assert np.allclose(res.inverse, np.diag(1.0 / np.arange(1.0, 33.0)))

    def test_permutation_heavy_matrix(self, rng):
        """Anti-diagonal-ish matrix exercises pivoting across every block."""
        n = 48
        a = np.fliplr(np.diag(rng.uniform(1, 2, n))) + 0.01 * rng.standard_normal((n, n))
        res = invert(a, InversionConfig(nb=12, m0=4))
        assert res.residual(a) < 1e-8

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            invert(rng.standard_normal((4, 5)))

    @pytest.mark.parametrize(
        "poison, where",
        [
            (lambda a: np.full_like(a, np.nan), (0, 0)),
            (lambda a: np.full_like(a, np.inf), (0, 0)),
            (lambda a: _with_entry(a, 5, 11, np.nan), (5, 11)),
        ],
        ids=["all-nan", "all-inf", "one-nan"],
    )
    def test_non_finite_input_rejected_before_any_write(self, rng, poison, where):
        """A NaN/inf entry used to come back as a silent NaN inverse."""
        a = poison(random_invertible(rng, 16))
        cfg = InversionConfig(nb=4, m0=2)
        with MatrixInverter(cfg) as inverter:
            runtime = inverter.runtime
            pattern = rf"non-finite entry .* at \(row {where[0]}, col {where[1]}\)"
            for call in (inverter.invert, inverter.lu):
                with pytest.raises(ValueError, match=pattern):
                    call(a)
            with pytest.raises(ValueError, match=pattern):
                inverter.solve(a, np.ones(16))
            assert runtime.dfs.list_files("/") == []  # nothing under cfg.root either
            assert runtime.jobs_run() == 0

    def test_finite_input_is_not_touched(self, rng):
        a = random_invertible(rng, 16)
        before = a.copy()
        res = invert(a, InversionConfig(nb=4, m0=2))
        assert np.array_equal(a, before)
        assert res.residual(a) < 1e-9

    def test_singular_matrix_fails_cleanly(self):
        from repro.linalg import SingularMatrixError

        a = np.ones((32, 32))
        with pytest.raises(SingularMatrixError):
            invert(a, InversionConfig(nb=8, m0=4))


class TestAblations:
    @pytest.mark.parametrize(
        "flags",
        [
            dict(block_wrap=False),
            dict(separate_files=False),
            dict(transpose_u=False),
            dict(block_wrap=False, separate_files=False),
            dict(block_wrap=False, separate_files=False, transpose_u=False),
        ],
        ids=lambda f: "+".join(k for k in f),
    )
    def test_ablated_variants_correct(self, rng, flags):
        a = random_invertible(rng, 72)
        res = invert(a, InversionConfig(nb=16, m0=4, **flags))
        assert res.residual(a) < 1e-8

    def test_block_wrap_reads_less(self, rng):
        """Figure 7: block wrap reduces read volume."""
        a = random_invertible(rng, 96)
        on = invert(a, InversionConfig(nb=24, m0=8, block_wrap=True))
        off = invert(a, InversionConfig(nb=24, m0=8, block_wrap=False))
        assert on.io.bytes_read < off.io.bytes_read

    def test_separate_files_avoids_combine_writes(self, rng):
        """Section 6.1: combining adds master-side serial writes."""
        a = random_invertible(rng, 96)
        on = invert(a, InversionConfig(nb=24, m0=4, separate_files=True))
        off = invert(a, InversionConfig(nb=24, m0=4, separate_files=False))
        assert off.io.bytes_written > on.io.bytes_written
        combines = [p for p in off.record.master_phases if p.name.startswith("combine")]
        assert len(combines) == off.plan.num_lu_jobs


class TestRuntimes:
    def test_threaded_runtime_matches_serial(self, rng):
        a = random_invertible(rng, 80)
        cfg = InversionConfig(nb=20, m0=4)
        serial = invert(a, cfg)
        threaded = invert(a, replace(cfg, executor="threads"))
        assert np.allclose(serial.inverse, threaded.inverse)

    def test_reusing_runtime_cleans_previous_root(self, rng):
        cfg = InversionConfig(nb=16, m0=4)
        a1, a2 = random_invertible(rng, 40), random_invertible(rng, 48)
        with MatrixInverter(cfg) as inv:
            r1 = inv.invert(a1)
            r2 = inv.invert(a2)
        assert r1.residual(a1) < 1e-9
        assert r2.residual(a2) < 1e-9

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_config_builds_the_runtime(self, rng, executor):
        """The inverter's runtime honours every argument: the config's
        backend and width, the caller's DFS and the fault policy."""
        backends = {
            "serial": SerialExecutor,
            "threads": ThreadPoolBackend,
            "processes": ProcessPoolBackend,
        }
        dfs = DFS(num_datanodes=3, replication=2)
        cfg = InversionConfig(nb=16, m0=4, executor=executor, num_workers=2)
        policy = FailOnce(job_substring="invert-final", kind=TaskKind.MAP, task_index=1)
        a = random_invertible(rng, 48)
        with MatrixInverter(cfg, dfs=dfs, fault_policy=policy) as inv:
            runtime = inv.runtime
            assert isinstance(runtime._executor, backends[executor])
            assert runtime.num_workers == runtime.node_health.num_nodes == 2
            assert runtime.dfs is dfs
            result = inv.invert(a)
        assert dfs.exists(cfg.root)
        assert sum(j.attempts_failed for j in result.record.job_results) == 1
        assert result.residual(a) < 1e-9

    def test_inverter_context_manager(self, rng):
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            a = random_invertible(rng, 36)
            assert inv.invert(a).residual(a) < 1e-9


class TestFaultTolerance:
    def test_mapper_failure_recovers(self, rng):
        """Section 7.4's scenario: one mapper of the final inversion job
        fails, is rescheduled, and the run still completes correctly."""
        policy = FailOnce(
            job_substring="invert-final", kind=TaskKind.MAP, task_index=1
        )
        a = random_invertible(rng, 64)
        with MatrixInverter(InversionConfig(nb=16, m0=4), fault_policy=policy) as inv:
            res = inv.invert(a)
        assert res.residual(a) < 1e-9
        failed = sum(j.attempts_failed for j in res.record.job_results)
        assert failed == 1

    def test_lu_job_reducer_failure_recovers(self, rng):
        policy = FailOnce(job_substring="lu:", kind=TaskKind.REDUCE, task_index=0)
        a = random_invertible(rng, 64)
        with MatrixInverter(InversionConfig(nb=16, m0=4), fault_policy=policy) as inv:
            res = inv.invert(a)
        assert res.residual(a) < 1e-9


class TestLUOnly:
    def test_distributed_lu_factors(self, rng):
        a = random_invertible(rng, 90)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            f = inv.lu(a)
        assert verify.lu_residual(a, f.lower, f.upper, f.perm) < 1e-9

    def test_factors_are_triangular(self, rng):
        from repro.linalg import is_lower_triangular, is_upper_triangular

        a = random_invertible(rng, 70)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            f = inv.lu(a)
        assert is_lower_triangular(f.lower)
        assert is_upper_triangular(f.upper)
        assert np.allclose(np.diag(f.lower), 1.0)

    def test_lu_matches_single_node(self, rng):
        """Distributed block LU and Algorithm 1 both satisfy PA = LU (the
        factors differ because pivoting is block-local, but both reconstruct
        A exactly)."""
        from repro.linalg import lu_decompose, permutation

        a = random_invertible(rng, 60)
        with MatrixInverter(InversionConfig(nb=20, m0=4)) as inv:
            f = inv.lu(a)
        reconstructed = permutation.apply_rows(
            permutation.invert(f.perm), f.lower @ f.upper
        )
        assert np.allclose(reconstructed, a, atol=1e-10)


class TestRunPathHasNoRowLoops:
    """``forward_substitute`` / ``back_substitute`` are the tests' reference;
    nothing on the pipeline's run path may reach them."""

    @pytest.fixture
    def row_loops_raise(self, monkeypatch):
        import sys

        from repro.linalg import triangular

        def forbidden(*args, **kwargs):
            raise AssertionError("row-loop substitution reached from the run path")

        for loop in (triangular.forward_substitute, triangular.back_substitute):
            for name, module in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for key, value in list(vars(module).items()):
                        if value is loop:
                            monkeypatch.setattr(module, key, forbidden)
        with pytest.raises(AssertionError):
            triangular.forward_substitute(np.eye(2), np.ones(2))

    def test_invert_lu_and_solve_complete(self, rng, row_loops_raise):
        n = 96
        a = random_invertible(rng, n)
        cfg = InversionConfig(nb=24, m0=4)
        assert invert(a, cfg).residual(a) < 1e-9
        with MatrixInverter(cfg) as inverter:
            factors = inverter.lu(a)
            assert verify.lu_residual(a, factors.lower, factors.upper, factors.perm) < 1e-10
            b = rng.standard_normal((n, 3))
            assert np.allclose(a @ inverter.solve(a, b), b, atol=1e-8)


class TestAccountingSurface:
    def test_io_snapshot_populated(self, rng):
        a = random_invertible(rng, 64)
        res = invert(a, InversionConfig(nb=16, m0=4))
        assert res.io.bytes_read > a.nbytes
        assert res.io.bytes_written > a.nbytes

    def test_flops_close_to_theory(self, rng):
        """Reported multiplications: LU contributes n^3/3 (Table 1), the two
        triangular inversions n^3/3 and the final product n^3/3 (Table 2),
        for n^3 total — plus what the product's 64-wide panels multiply of
        the structural zeros, a third again at this order.  A dense product
        (5/3 n^3) fails here."""
        n = 96
        a = random_invertible(rng, n)
        res = invert(a, InversionConfig(nb=24, m0=4))
        assert 0.98 * n**3 <= res.total_flops() <= 1.35 * n**3

    def test_record_contains_all_jobs(self, rng):
        a = random_invertible(rng, 64)
        res = invert(a, InversionConfig(nb=16, m0=4))
        names = [j.name for j in res.record.job_results]
        assert names[0] == "partition"
        assert names[-1] == "invert-final"
        assert all(n.startswith("lu:") for n in names[1:-1])
