"""Two-phase output commit: scopes, manifests, ledger conservation, resume.

Covers the protocol pieces in isolation (:class:`CommitScope`,
:class:`CommitLog`) and end to end: a full inversion with the protocol on
leaves a conserved staging ledger and a manifest per step, and a driver
crash between staging a leaf's L and U factors resumes to the right
inverse with nothing torn left behind.
"""

import numpy as np
import pytest

from repro import InversionConfig
from repro.chaos import DriverCrashError
from repro.dfs import (
    DFS,
    STAGING_ROOT,
    CommitLog,
    CommitScope,
    fsck,
    manifest_path,
    mirrored_path,
    staging_dir,
    staging_path,
)
from repro.dfs.commit import COMMIT_DIR
from repro.dfs.fsck import sound_manifests
from repro.inversion import MatrixInverter

from conftest import random_invertible


def small_cluster(seed: int = 0) -> DFS:
    return DFS(num_datanodes=3, replication=2, block_size=1 << 16, seed=seed)


def crash_once_at(dfs: DFS, substring: str) -> None:
    """Arm a one-shot fault hook: crash the driver at the first DFS create
    whose path contains ``substring``.  The hook removes itself before
    raising, so the resumed run's identical write goes through."""

    def hook(op: str, path: str) -> None:
        if op == "create" and substring in path:
            dfs.fault_hooks.remove(hook)
            raise DriverCrashError(f"injected crash at {op} {path}")

    dfs.fault_hooks.append(hook)


class TestCommitScope:
    def test_staged_files_invisible_until_publish(self, dfs):
        scope = CommitScope(dfs, "attempt-1")
        scope.stage_bytes("/Root/out", b"payload")
        assert not dfs.exists("/Root/out")
        staged = staging_path("attempt-1", "/Root/out")
        assert dfs.namenode.exists(staged, include_pending=True)
        published = scope.publish()
        assert published == ["/Root/out"]
        assert dfs.read_bytes("/Root/out") == b"payload"
        # Staging directory is gone — nothing for fsck to roll back.
        assert not dfs.namenode.exists(staging_path("attempt-1", "/"), include_pending=True)

    def test_publish_is_all_or_nothing_across_files(self, dfs):
        scope = CommitScope(dfs, "t")
        scope.stage_bytes("/Root/a", b"a")
        scope.stage_bytes("/Root/b", b"b")
        scope.publish()
        assert dfs.exists("/Root/a") and dfs.exists("/Root/b")

    def test_abort_leaves_final_namespace_untouched(self, dfs):
        scope = CommitScope(dfs, "loser")
        scope.stage_bytes("/Root/out", b"wrong answer")
        scope.abort()
        assert not dfs.exists("/Root/out")
        assert not dfs.namenode.exists(STAGING_ROOT, include_pending=True) or not (
            dfs.namenode.walk_files(STAGING_ROOT, include_pending=True)
        )

    def test_a_writer_stages_into_one_flat_directory(self, dfs):
        """k files under nested final paths add 1 + k index entries below
        ``/_tmp``: the writer's directory and one entry per file, no chain of
        the final paths' directories."""
        finals = ["/Root/A1/A2/L.0", "/Root/A1/OUT/l.bin", "/Root/OUT/ut.bin"]
        dfs.mkdirs(STAGING_ROOT)
        index = dfs.namenode._index
        before = set(index)
        scope = CommitScope(dfs, "attempt-1")
        for final in finals:
            scope.stage_bytes(final, b"x")
        assert set(index) - before == {staging_dir("attempt-1")} | {
            staging_path("attempt-1", final) for final in finals
        }
        # The fault hooks see each staged file under its final path's name.
        assert [mirrored_path(staging_path("attempt-1", f)) for f in finals] == [
            f"{STAGING_ROOT}/attempt-1{f}" for f in finals
        ]
        assert scope.publish() == finals
        final_dirs = {"/Root", "/Root/A1", "/Root/A1/A2", "/Root/A1/OUT", "/Root/OUT"}
        assert set(index) - before == final_dirs | set(finals)

    def test_mirrored_path_leaves_other_paths_alone(self):
        staged = staging_path("manifest-job:lu:%2FRoot", "/Root/_commit/job:lu:%2FRoot.json")
        assert mirrored_path(staged) == (
            "/_tmp/manifest-job:lu:%2FRoot/Root/_commit/job:lu:%2FRoot.json"
        )
        for path in ("/Root/OUT/l.bin", "/_tmp", "/_tmp/t", "/_tmp/t/Root/a", "/_tmp/t/p"):
            assert mirrored_path(path) == path

    def test_publish_replaces_earlier_attempts_output(self, dfs):
        first = CommitScope(dfs, "attempt-1")
        first.stage_bytes("/Root/out", b"v1")
        first.publish()
        second = CommitScope(dfs, "attempt-2")
        second.stage_bytes("/Root/out", b"v2")
        second.publish()
        assert dfs.read_bytes("/Root/out") == b"v2"


class TestCommitLog:
    def test_record_round_trip(self, dfs):
        log = CommitLog(dfs, "/Root")
        assert not log.committed("job:lu:/Root")
        log.record("job:lu:/Root", ["/Root/b", "/Root/a"])
        assert log.committed("job:lu:/Root")
        assert log.published("job:lu:/Root") == ["/Root/a", "/Root/b"]

    def test_manifest_path_quotes_step_names(self):
        path = manifest_path("/Root", "job:lu:/Root/A1")
        assert path.startswith(f"/Root/{COMMIT_DIR}/")
        # Slashes and percent signs cannot leak namespace structure.
        assert "/" not in path.rsplit("/", 1)[1].replace("%2F", "")
        assert manifest_path("/R", "a%b") == f"/R/{COMMIT_DIR}/a%25b.json"

    def test_manifest_write_goes_through_stage_publish(self, dfs):
        log = CommitLog(dfs, "/Root")
        log.record("phase:write-input", ["/Root/in"])
        # The manifest itself is sealed and its staging dir discarded.
        assert dfs.namenode.get_file(log.path("phase:write-input")).sealed
        assert dfs.namenode.pending_files("/") == []

    def test_clear_drops_all_manifests(self, dfs):
        log = CommitLog(dfs, "/Root")
        log.record("job:a", [])
        log.record("job:b", [])
        log.clear()
        assert not log.committed("job:a")
        assert not dfs.exists(f"/Root/{COMMIT_DIR}")


class TestEndToEndProtocol:
    def test_inversion_with_commit_leaves_conserved_ledger(self, rng):
        dfs = small_cluster()
        config = InversionConfig(nb=2, m0=2)
        assert config.output_commit  # protocol is on by default
        a = random_invertible(rng, 8)
        with MatrixInverter(config, dfs=dfs) as inverter:
            result = inverter.invert(a)
        assert result.residual(a) < 1e-8
        stats = dfs.stats
        assert stats.bytes_staged > 0
        # Conservation at quiescence: every staged byte was either published
        # or discarded — nothing leaks out of the ledger.
        assert stats.bytes_staged == stats.bytes_published + stats.bytes_discarded
        # No staging debris, no unsealed files, manifests all valid.
        report = fsck(dfs, root=config.root, repair=False)
        assert report.clean, report.format()

    def test_every_step_has_a_manifest(self, rng):
        dfs = small_cluster()
        config = InversionConfig(nb=2, m0=2)
        a = random_invertible(rng, 8)
        with MatrixInverter(config, dfs=dfs) as inverter:
            inverter.invert(a)
        log = CommitLog(dfs, config.root)
        for job in ("partition", "lu:/Root", "lu:/Root/A1", "lu:/Root/OUT", "invert-final"):
            assert log.committed(f"job:{job}"), job
        assert log.committed("phase:write-input")

    def test_job_results_report_published_paths(self, rng):
        dfs = small_cluster()
        config = InversionConfig(nb=2, m0=2)
        a = random_invertible(rng, 8)
        with MatrixInverter(config, dfs=dfs) as inverter:
            inverter.invert(a)
        assert inverter.runtime.history
        sound, _ = sound_manifests(dfs, config.root)
        retired = {path for _, paths in sound.values() for path in paths}
        assert retired
        for job_result in inverter.runtime.history:
            for path in job_result.published_paths:
                # Still there, or deleted after its last reader committed.
                assert dfs.exists(path) != (path in retired), path
                assert not path.startswith(STAGING_ROOT)

    def test_a_commit_drops_its_staging_dir_inside_its_publish(self, rng):
        """Each publish fires its hook once and, by the time its listeners
        run, has dropped exactly the publishing writer's staging directory:
        no ``/_tmp/attempt-*`` outlives its task commit."""
        dfs = small_cluster()
        events: list[tuple[str, set[str]]] = []

        def tmp_dirs() -> set[str]:
            return set(dfs.list_dir(STAGING_ROOT)) if dfs.is_dir(STAGING_ROOT) else set()

        def hook(op: str, path: str) -> None:
            if op == "publish":
                events.append(("hook", tmp_dirs()))

        dfs.fault_hooks.append(hook)
        dfs.publish_listeners.append(lambda paths: events.append(("sealed", tmp_dirs())))
        with MatrixInverter(InversionConfig(nb=2, m0=2), dfs=dfs) as inverter:
            inverter.invert(random_invertible(rng, 8))
        assert [kind for kind, _ in events] == ["hook", "sealed"] * (len(events) // 2)
        dropped = [before - after for (_, before), (_, after) in zip(events[::2], events[1::2])]
        assert all(len(gone) == 1 for gone in dropped)
        tasks = [tag for gone in dropped for tag in gone if tag.startswith("attempt-")]
        assert tasks and len(set(tasks)) == len(tasks)  # one drop per task commit
        assert not tmp_dirs()

    def test_commit_off_stages_nothing(self, rng):
        dfs = small_cluster()
        config = InversionConfig(nb=2, m0=2, output_commit=False)
        a = random_invertible(rng, 8)
        with MatrixInverter(config, dfs=dfs) as inverter:
            result = inverter.invert(a)
        assert result.residual(a) < 1e-8
        assert dfs.stats.bytes_staged == 0
        assert not dfs.exists(f"{config.root}/{COMMIT_DIR}")


class TestCrashResume:
    def test_crash_between_l_and_u_factors_resumes_clean(self, rng):
        """Satellite regression: kill the driver after a leaf's L factor is
        staged but before its U factor, then resume.  Without manifests a
        resume probing for file existence could mistake the torn leaf for
        done; with the protocol the whole step re-runs."""
        dfs = small_cluster()
        config = InversionConfig(nb=2, m0=2)
        a = random_invertible(rng, 8)
        crash_once_at(dfs, "/OUT/ut.bin")  # L staged first, U next
        inverter = MatrixInverter(config, dfs=dfs)
        with pytest.raises(DriverCrashError):
            inverter.invert(a)
        # The crash left a staged L with no U and no manifest for the step.
        torn = dfs.namenode.walk_files(STAGING_ROOT, include_pending=True)
        assert any(mirrored_path(path).endswith("/OUT/l.bin") for path in torn)
        result = inverter.invert(a, resume=True)
        assert result.residual(a) < 1e-8
        # Resume's fsck rolled the torn attempt back; quiescent state is clean.
        if dfs.namenode.exists(STAGING_ROOT, include_pending=True):
            assert dfs.namenode.walk_files(STAGING_ROOT, include_pending=True) == []
        assert dfs.namenode.pending_files("/") == []
        assert dfs.stats.bytes_staged == (
            dfs.stats.bytes_published + dfs.stats.bytes_discarded
        )
        inverter.close()

    def test_crash_at_publish_resumes_clean(self, rng):
        dfs = small_cluster()
        config = InversionConfig(nb=2, m0=2)
        a = random_invertible(rng, 8)

        remaining = [2]

        def hook(op: str, path: str) -> None:
            if op != "publish":
                return
            if remaining[0] > 0:
                remaining[0] -= 1
                return
            dfs.fault_hooks.remove(hook)
            raise DriverCrashError(f"injected crash at publish {path}")

        dfs.fault_hooks.append(hook)
        inverter = MatrixInverter(config, dfs=dfs)
        with pytest.raises(DriverCrashError):
            inverter.invert(a)
        result = inverter.invert(a, resume=True)
        assert result.residual(a) < 1e-8
        assert fsck(dfs, root=config.root, repair=False).clean
        inverter.close()
