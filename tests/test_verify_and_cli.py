"""Distributed verification job and the CLI entry point."""

import numpy as np
import pytest

from repro import InversionConfig
from repro.__main__ import main as cli_main
from repro.inversion import MatrixInverter
from repro.mapreduce import (
    FailOnce,
    JobFailedError,
    MapReduceRuntime,
    RetryPolicy,
    TaskKind,
)

from conftest import random_invertible


class TestDistributedVerification:
    def test_matches_driver_residual(self, rng):
        a = random_invertible(rng, 80)
        with MatrixInverter(InversionConfig(nb=20, m0=4)) as inv:
            result = inv.invert(a)
            distributed = inv.distributed_residual(result)
        assert distributed == pytest.approx(result.residual(a), rel=1e-9)

    def test_runs_as_mapreduce_job(self, rng):
        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            result = inv.invert(a)
            inv.distributed_residual(result)
            names = [j.name for j in result.record.job_results]
        assert names[-1] == "verify-identity"

    def test_detects_corrupted_inverse(self, rng):
        """If a final block file is corrupted on the DFS, the distributed
        check reports a large residual — it reads the DFS state, not the
        driver's in-memory copy."""
        from repro.dfs import formats

        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            result = inv.invert(a)
            path = result.layout.final_path(0)
            block = formats.read_matrix(inv.runtime.dfs, path)
            formats.write_matrix(inv.runtime.dfs, path, block + 1.0)
            assert inv.distributed_residual(result) > 0.5

    @pytest.mark.parametrize("budget", [1, 2])
    def test_verify_job_honours_the_runs_retry(self, rng, budget):
        """The verify job is launched outside the Pipeline; it still gets the
        run's attempt budget because its conf is built complete."""
        a = random_invertible(rng, 48)
        fault = FailOnce(job_substring="verify", kind=TaskKind.MAP, task_index=0)
        cfg = InversionConfig(nb=16, m0=4, retry=RetryPolicy(max_attempts=budget))
        with MatrixInverter(cfg, fault_policy=fault) as inv:
            result = inv.invert(a)
            if budget == 1:
                with pytest.raises(JobFailedError, match="verify-identity"):
                    inv.distributed_residual(result)
            else:
                assert inv.distributed_residual(result) < 1e-9
                assert result.record.job_results[-1].attempts_failed == 1

    def test_verify_job_honours_output_commit_off(self, rng):
        a = random_invertible(rng, 48)
        cfg = InversionConfig(nb=16, m0=4, output_commit=False)
        with MatrixInverter(cfg) as inv:
            result = inv.invert(a)
            dfs = inv.runtime.dfs
            launched = []
            inv.runtime.before_job.append(launched.append)
            before = dfs.stats.snapshot()
            assert inv.distributed_residual(result) < 1e-9
            moved = dfs.stats.snapshot() - before
        assert [c.name for c in launched] == ["verify-identity"]
        assert not launched[0].output_commit
        assert moved.bytes_staged == 0 and moved.files_published == 0
        assert not dfs.namenode.exists("/_tmp", include_pending=True)


class TestCLI:
    def test_invert_command(self, capsys):
        assert cli_main(["invert", "--n", "48", "--nb", "16", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "jobs: 5" in out
        assert "distributed residual" in out

    def test_invert_command_shuts_the_runtime_down_on_failure(self, monkeypatch):
        from repro.linalg.lu import SingularMatrixError

        def singular(self, a):
            raise SingularMatrixError("injected")

        shutdowns = []
        real_shutdown = MapReduceRuntime.shutdown

        def shutdown(self):
            shutdowns.append(self)
            real_shutdown(self)

        monkeypatch.setattr(MatrixInverter, "invert", singular)
        monkeypatch.setattr(MapReduceRuntime, "shutdown", shutdown)
        with pytest.raises(SingularMatrixError):
            cli_main(["invert", "--n", "16", "--nb", "8", "--executor", "threads"])
        assert len(shutdowns) == 1

    def test_table_command(self, capsys):
        assert cli_main(["table", "3"]) == 0
        assert "M4" in capsys.readouterr().out

    def test_figure_command(self, capsys):
        assert cli_main(["figure", "8"]) == 0
        assert "ScaLAPACK" in capsys.readouterr().out.replace("scalapack", "ScaLAPACK")

    def test_unknown_artifact_rejected(self, capsys):
        assert cli_main(["table", "9"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])


class TestCLIDescribe:
    def test_describe_paper_matrix(self, capsys):
        assert cli_main(["describe", "--n", "20480"]) == 0
        out = capsys.readouterr().out
        assert "jobs=9" in out
        assert "job schedule:" in out
        assert out.count("lu:") == 7

    def test_describe_leaf_only(self, capsys):
        assert cli_main(["describe", "--n", "100", "--nb", "128"]) == 0
        out = capsys.readouterr().out
        assert "jobs=1" in out

    def test_section8_artifact(self, capsys):
        """Section 8 is the paper's future work, not a regenerated artifact."""
        assert cli_main(["section", "8"]) == 2
        assert "unknown section '8'" in capsys.readouterr().err

    def test_study_artifact(self, capsys):
        assert cli_main(["study", "launch-overhead"]) == 0
        assert "HaLoop" in capsys.readouterr().out
