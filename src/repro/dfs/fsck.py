"""Crash-recovery consistency check for the two-phase commit protocol.

After a driver crash the namespace can hold four kinds of debris, all of
them invisible to (or ignorable by) a correct resume but worth deleting so
the commit ledger and the final tree stay clean, and the block store a
fifth:

``orphaned-staging``
    Any file under ``/_tmp`` — by definition uncommitted output whose
    writer died before publish (or a zombie attempt's re-created files).
``unsealed-file``
    A pending file *outside* the staging namespace: a torn direct write.
    Invisible to readers, superseded by the step's re-run.
``invalid-manifest``
    A commit manifest that is unparseable or lists a published path that
    neither exists as a sealed file nor is retired by a sound manifest (a
    step deletes the intermediates it was the last reader of right after
    writing its manifest, which lists them as ``retired``).  The manifest
    is deleted so resume re-runs the step instead of trusting a broken
    commit record.
``retired-file``
    A file a sound manifest retires that still exists: the driver died
    between writing the manifest and deleting the file.  No uncommitted
    step reads it.
``orphaned-block``
    A stored block no file entry, sealed or pending, references: space a
    write or an overwrite leaked.  Repair collects it, as the namenode does
    for a block a datanode's block report lists and no file owns.

:func:`fsck` detects all five; with ``repair=True`` (the default) it also
rolls them back.  ``invert(resume=True)`` runs a repairing fsck before
trusting any on-DFS state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .commit import COMMIT_DIR, STAGING_ROOT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .blocks import BlockInfo
    from .filesystem import DFS


@dataclass
class FsckIssue:
    """One inconsistency: what it is, where, and whether it was rolled back."""

    kind: str
    path: str
    detail: str
    repaired: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Everything one fsck pass found (and possibly repaired)."""

    root: str
    repair: bool
    issues: list[FsckIssue] = field(default_factory=list)
    files_checked: int = 0
    manifests_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "clean": self.clean,
            "files_checked": self.files_checked,
            "manifests_checked": self.manifests_checked,
            "issues": [i.to_dict() for i in self.issues],
        }

    def format(self) -> str:
        lines = [
            f"fsck {self.root}: {self.files_checked} file(s), "
            f"{self.manifests_checked} manifest(s) checked"
        ]
        if self.clean:
            lines.append("  clean — no orphaned staging, unsealed files, "
                         "invalid manifests, retired files or orphaned "
                         "blocks left behind")
        for issue in self.issues:
            action = "repaired" if issue.repaired else "found"
            lines.append(
                f"  [{action}] {issue.kind}: {issue.path} — {issue.detail}"
            )
        return "\n".join(lines)


def fsck(dfs: "DFS", *, root: str = "/Root", repair: bool = True) -> FsckReport:
    """Check (and with ``repair=True`` roll back) commit-protocol debris."""
    report = FsckReport(root=root, repair=repair)
    nn = dfs.namenode

    # 1. Orphaned staging: everything under /_tmp is uncommitted by
    #    definition — one recursive discard rolls all of it back.
    if nn.exists(STAGING_ROOT, include_pending=True):
        for path in nn.walk_files(STAGING_ROOT, include_pending=True):
            report.issues.append(
                FsckIssue(
                    kind="orphaned-staging",
                    path=path,
                    detail="uncommitted staging output (writer never published)",
                    repaired=repair,
                )
            )
        if repair:
            dfs.discard_staging(STAGING_ROOT)

    # 2. Unsealed files outside staging: torn direct writes.
    for path in nn.pending_files("/"):
        if path.startswith(STAGING_ROOT + "/"):
            continue  # already reported above
        report.issues.append(
            FsckIssue(
                kind="unsealed-file",
                path=path,
                detail="pending file outside staging (torn direct write)",
                repaired=repair,
            )
        )
        if repair:
            dfs.discard_staging(path)

    # 3. Manifests whose published files are missing or unsealed.
    report.files_checked = len(nn.walk_files("/"))
    sound, invalid = sound_manifests(dfs, root)
    report.manifests_checked = len(sound) + len(invalid)
    for manifest, problem in invalid.items():
        report.issues.append(
            FsckIssue(
                kind="invalid-manifest",
                path=manifest,
                detail=problem,
                repaired=repair,
            )
        )
        if repair:
            dfs.delete(manifest)

    # 4. Files a sound manifest retires that the crash left in place.
    for manifest, (_, retired) in sound.items():
        for path in retired:
            if not nn.exists(path):
                continue
            report.issues.append(
                FsckIssue(
                    kind="retired-file",
                    path=path,
                    detail=f"retired by {manifest}, never deleted",
                    repaired=repair,
                )
            )
            if repair:
                dfs.delete(path)

    # 5. Stored blocks that no file entry references.
    for info in orphaned_blocks(dfs):
        report.issues.append(
            FsckIssue(
                kind="orphaned-block",
                path=str(info.block_id),
                detail=f"{info.length} B stored, no file references it",
                repaired=repair,
            )
        )
        if repair:
            dfs.blocks.delete_block(info)
    return report


def orphaned_blocks(dfs: "DFS") -> list[BlockInfo]:
    """Stored blocks no file entry, sealed or pending, references."""
    nn = dfs.namenode
    owned = {
        info.block_id
        for path in nn.walk_files("/", include_pending=True)
        for info in nn.get_file(path, include_pending=True).blocks
    }
    return [info for info in dfs.blocks.stored_blocks() if info.block_id not in owned]


def sound_manifests(
    dfs: "DFS", root: str
) -> tuple[dict[str, tuple[list[str], list[str]]], dict[str, str]]:
    """The commit manifests under ``root``: the sound ones with their
    ``(published, retired)`` lists, and the invalid ones with the reason.

    A manifest is sound when it parses and every file it published exists
    sealed or is retired by a sound manifest.  Dropping a manifest withdraws
    its retirements, so soundness is a fixpoint.
    """
    sound: dict[str, tuple[list[str], list[str]]] = {}
    invalid: dict[str, str] = {}
    commit_dir = f"{root}/{COMMIT_DIR}"
    if not dfs.exists(commit_dir):
        return sound, invalid
    for manifest in dfs.list_files(commit_dir):
        try:
            payload = json.loads(dfs.read_bytes(manifest))
            lists = payload["published"], payload.get("retired", [])
            if not all(isinstance(paths, list) for paths in lists):
                raise TypeError("'published' or 'retired' is not a list")
        except Exception as exc:  # noqa: BLE001 - any parse failure invalidates
            invalid[manifest] = f"unparseable manifest ({type(exc).__name__}: {exc})"
        else:
            sound[manifest] = lists
    changed = True
    while changed:
        retired = {path for _, paths in sound.values() for path in paths}
        changed = False
        for manifest, (published, _) in list(sound.items()):
            missing = [
                path
                for path in published
                if path not in retired and not dfs.exists(path)
            ]
            if missing:
                invalid[manifest] = f"lists missing or unsealed file {missing[0]}"
                del sound[manifest]
                changed = True
    return sound, invalid


__all__ = ["FsckIssue", "FsckReport", "fsck", "orphaned_blocks", "sound_manifests"]
