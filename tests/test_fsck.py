"""fsck: detection and rollback of commit-protocol debris.

Four debris categories a driver crash can leave behind — orphaned staging
files, unsealed files outside staging, manifests that lie about what was
published, and files a manifest retired that were never deleted — and the
stored blocks no file references, plus the CLI self-check and the auto-fsck
that ``invert(resume=True)`` runs before trusting any on-DFS state.
"""

import json

import pytest

from repro import InversionConfig
from repro.dfs import DFS, CommitLog, fsck, staging_path
from repro.dfs.cli import main as dfs_main
from repro.inversion import MatrixInverter

from conftest import random_invertible


@pytest.fixture
def small(dfs):
    """A healthy published file plus each category of debris."""
    dfs.write_bytes("/Root/keep.bin", b"healthy")
    dfs.stage_bytes(staging_path("attempt-dead", "/Root/lost.bin"), b"orphan")
    dfs.stage_bytes("/Root/torn.bin", b"torn direct write")
    log = CommitLog(dfs, "/Root")
    log.record("job:lying", ["/Root/ghost.bin"])  # lists a file that isn't there
    dfs.write_bytes(log.path("job:broken"), b"{not json")
    return dfs


class TestDetection:
    def test_pristine_tree_is_clean(self, dfs):
        dfs.write_bytes("/Root/a", b"x")
        report = fsck(dfs, repair=False)
        assert report.clean
        assert report.files_checked >= 1

    def test_all_three_categories_detected(self, small):
        report = fsck(small, repair=False)
        kinds = {i.kind for i in report.issues}
        assert kinds == {"orphaned-staging", "unsealed-file", "invalid-manifest"}

    def test_orphaned_staging_path_reported(self, small):
        report = fsck(small, repair=False)
        orphans = [i.path for i in report.issues if i.kind == "orphaned-staging"]
        assert orphans == [staging_path("attempt-dead", "/Root/lost.bin")]

    def test_both_bad_manifests_flagged(self, small):
        report = fsck(small, repair=False)
        bad = [i for i in report.issues if i.kind == "invalid-manifest"]
        assert len(bad) == 2
        details = " ".join(i.detail for i in bad)
        assert "unparseable" in details
        assert "/Root/ghost.bin" in details

    def test_manifest_listing_unsealed_file_is_invalid(self, dfs):
        dfs.stage_bytes("/Root/half.bin", b"pending")  # never sealed
        CommitLog(dfs, "/Root").record("job:x", ["/Root/half.bin"])
        report = fsck(dfs, repair=False)
        assert any(
            i.kind == "invalid-manifest" and "half.bin" in i.detail
            for i in report.issues
        )


class TestOrphanedBlocks:
    """A stored block no file entry references is leaked space: fsck names
    it and repair collects it, as a block report does."""

    def test_leaked_block_found_and_collected(self, dfs):
        dfs.write_bytes("/Root/keep.bin", b"healthy")
        dfs.stage_bytes("/_tmp/t/Root/p.bin", b"pending")  # owned, not leaked
        leaked = dfs.blocks.write_block(b"no file owns me")
        found = fsck(dfs, repair=False)
        assert [(i.kind, i.path) for i in found.issues if i.kind == "orphaned-block"] == [
            ("orphaned-block", str(leaked.block_id))
        ]
        assert dfs.blocks.block_count == 3
        fsck(dfs, repair=True)
        assert fsck(dfs, repair=False).clean
        assert dfs.blocks.block_count == 1
        assert dfs.read_bytes("/Root/keep.bin") == b"healthy"

    def test_overwrites_and_retries_leave_no_orphaned_block(self, dfs):
        dfs.write_bytes("/Root/a", b"v1")
        dfs.write_bytes("/Root/a", b"v2")
        dfs.stage_bytes("/_tmp/t/Root/b", b"try 1")
        dfs.stage_bytes("/_tmp/t/Root/b", b"try 2")
        dfs.publish([("/_tmp/t/Root/b", "/Root/b")], "/_tmp/t")
        assert fsck(dfs, repair=False).clean
        assert dfs.blocks.block_count == 2


class TestRetiredFiles:
    """A step deletes the files it was the last reader of right after its
    manifest lists them as ``retired``."""

    @pytest.fixture
    def retiring(self, dfs):
        log = CommitLog(dfs, "/Root")
        dfs.write_bytes("/Root/x", b"spent")
        log.record("job:writer", ["/Root/x"])
        log.record("job:reader", [], ["/Root/x"])
        return dfs, log

    def test_missing_file_retired_by_a_sound_manifest_is_fine(self, retiring):
        dfs, _ = retiring
        dfs.delete("/Root/x")
        report = fsck(dfs, repair=False)
        assert report.clean, report.format()
        assert report.manifests_checked == 2

    def test_retired_file_left_behind_is_reported_and_deleted(self, retiring):
        dfs, log = retiring
        found = fsck(dfs, repair=False)
        assert [(i.kind, i.path) for i in found.issues] == [("retired-file", "/Root/x")]
        assert dfs.exists("/Root/x")
        repaired = fsck(dfs, repair=True)
        assert all(i.repaired for i in repaired.issues)
        assert not dfs.exists("/Root/x")
        assert log.committed("job:writer") and log.committed("job:reader")
        assert fsck(dfs, repair=False).clean

    def test_retirement_by_an_invalid_manifest_does_not_count(self, retiring):
        dfs, log = retiring
        dfs.delete("/Root/x")
        dfs.delete(log.path("job:reader"))
        log.record("job:reader", ["/Root/ghost"], ["/Root/x"])
        report = fsck(dfs, repair=False)
        # The reader lies, so its retirement is void and the writer's
        # manifest lists a file that is simply gone.
        assert sorted(i.path for i in report.issues) == [
            log.path("job:reader"),
            log.path("job:writer"),
        ]
        assert {i.kind for i in report.issues} == {"invalid-manifest"}


class TestRepair:
    def test_report_only_leaves_debris_in_place(self, small):
        fsck(small, repair=False)
        assert small.namenode.walk_files("/_tmp", include_pending=True)
        assert small.namenode.pending_files("/Root")

    def test_repair_rolls_everything_back(self, small):
        report = fsck(small, repair=True)
        assert all(i.repaired for i in report.issues)
        assert fsck(small, repair=False).clean
        assert small.namenode.pending_files("/") == []
        # Healthy published data survives the rollback.
        assert small.read_bytes("/Root/keep.bin") == b"healthy"

    def test_repair_debits_discard_ledger(self, small):
        staged_before = small.stats.bytes_staged
        discarded_before = small.stats.bytes_discarded
        fsck(small, repair=True)
        # Both pending files' bytes moved to the discarded column.
        assert small.stats.bytes_discarded > discarded_before
        assert small.stats.bytes_staged == staged_before

    def test_invalid_manifests_deleted_so_steps_rerun(self, small):
        fsck(small, repair=True)
        log = CommitLog(small, "/Root")
        assert not log.committed("job:lying")
        assert not log.committed("job:broken")


class TestResumeAutoFsck:
    def test_resume_repairs_before_trusting_manifests(self, rng):
        dfs = DFS(num_datanodes=3, replication=2, block_size=1 << 16, seed=0)
        config = InversionConfig(nb=2, m0=2)
        a = random_invertible(rng, 8)
        inverter = MatrixInverter(config, dfs=dfs)
        first = inverter.invert(a)
        # Simulate crash debris on the completed tree: an orphaned staging
        # file and a manifest lying about a file that was never published.
        dfs.stage_bytes(staging_path("attempt-zombie", "/Root/z.bin"), b"zzz")
        log = CommitLog(dfs, config.root)
        final_manifest = log.published("job:invert-final")
        dfs.delete(log.path("job:invert-final"))
        log.record("job:invert-final", final_manifest + ["/Root/ghost.bin"])
        result = inverter.invert(a, resume=True)
        assert result.residual(a) < 1e-8
        assert abs(result.residual(a) - first.residual(a)) < 1e-8
        report = fsck(dfs, root=config.root, repair=False)
        assert report.clean, report.format()
        # The lying manifest was dropped and the final job re-ran.
        assert log.committed("job:invert-final")
        assert "/Root/ghost.bin" not in log.published("job:invert-final")
        inverter.close()


    def test_crash_between_manifest_and_retirement(self, rng):
        """The driver dies after a step's manifest retired its dead inputs
        and before it deleted them: fsck finds them, resume deletes them and
        skips the step."""
        from repro.analysis import build_model
        from repro.chaos import DriverCrashError

        dfs = DFS(num_datanodes=3, replication=2, block_size=1 << 16, seed=0)
        config = InversionConfig(nb=2, m0=2)
        a = random_invertible(rng, 8)
        model = build_model(8, config)
        step, retired = "lu:/Root/A1", model.retirements()["lu:/Root/A1"]
        delete = dfs.delete

        def crash_at_retirement(*paths, **kwargs):
            # The step's retirements are one batched call: dying at its
            # entry deletes none of them.
            if retired[0] in paths:
                dfs.delete = delete
                raise DriverCrashError(f"crash before deleting {paths}")
            delete(*paths, **kwargs)

        dfs.delete = crash_at_retirement
        inverter = MatrixInverter(config, dfs=dfs)
        with pytest.raises(DriverCrashError):
            inverter.invert(a)
        log = CommitLog(dfs, config.root)
        assert log.committed(f"job:{step}")
        report = fsck(dfs, root=config.root, repair=False)
        assert sorted(i.path for i in report.issues if i.kind == "retired-file") == list(retired)
        launched = len(inverter.runtime.history)
        result = inverter.invert(a, resume=True)
        assert result.residual(a) < 1e-8
        assert step not in [job.name for job in inverter.runtime.history[launched:]]
        assert fsck(dfs, root=config.root, repair=False).clean
        assert not any(dfs.exists(path) for path in retired)
        inverter.close()


class TestCLI:
    def test_self_check_is_green(self, capsys):
        assert dfs_main(["fsck", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_self_check_json(self, capsys):
        assert dfs_main(["fsck", "--self-check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["checks"]) >= 8

    def test_demo_detects_and_repairs_crash_debris(self, capsys):
        assert dfs_main(["fsck", "--crash-at", "6"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out or "clean" in out

    def test_no_repair_reports_without_touching(self, capsys):
        assert dfs_main(["fsck", "--crash-at", "6", "--no-repair"]) == 0
