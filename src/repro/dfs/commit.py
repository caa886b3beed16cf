"""Two-phase output commit: staging paths, commit scopes, manifests.

The protocol mirrors Hadoop's ``OutputCommitter``: every writer (a task
attempt or a master phase) stages its files under a private directory in
the ``/_tmp`` namespace as *pending* (invisible) files, and the committer
publishes the winning attempt's files to their final paths with one atomic
multi-file rename (:meth:`repro.dfs.filesystem.DFS.publish`).  A crash at
any point leaves either nothing visible or everything visible — never a
torn prefix.

The staging directory is flat: ``final`` is staged as the single entry
``/_tmp/<tag>/<_quote(final)>``, so staging a file creates no directory
chain and publishing it re-keys one entry out of one directory.  Fault
hooks, which match path substrings, see a staged path in its *mirrored*
spelling ``/_tmp/<tag><final>`` (:func:`mirrored_path`).

Completed steps are recorded in a :class:`CommitLog`: a JSON manifest per
step, written *last*, listing exactly the files the step published and the
files it retired — intermediates it was the last reader of, deleted right
after the manifest is written.  Resume consults manifests instead of
probing for file existence, so a crash between two files of a multi-file
write can never be mistaken for a completed step, and fsck accepts a
published file as missing only when a sound manifest retires it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .filesystem import DFS

#: Root of the staging namespace.  Everything under it is uncommitted by
#: definition; fsck may delete the whole subtree at any quiescent moment.
STAGING_ROOT = "/_tmp"

#: Name of the manifest directory kept under the pipeline root.
COMMIT_DIR = "_commit"


def staging_dir(tag: str) -> str:
    """The private staging directory for one writer (attempt or phase)."""
    return f"{STAGING_ROOT}/{tag}"


def _quote(step: str) -> str:
    """Flatten a step name or a path into a single path component."""
    return step.replace("%", "%25").replace("/", "%2F")


def _unquote(name: str) -> str:
    """Invert :func:`_quote`: every ``%`` there starts a ``%25`` or ``%2F``."""
    return "%".join(part.replace("%2F", "/") for part in name.split("%25"))


def staging_path(tag: str, final_path: str) -> str:
    """Where ``final_path`` is staged while ``tag``'s writer is running: one
    entry of the writer's flat staging directory."""
    return f"{STAGING_ROOT}/{tag}/{_quote(final_path)}"


def mirrored_path(path: str) -> str:
    """``path`` as the DFS fault hooks see it.

    A staged file ``/_tmp/<tag>/<_quote(final)>`` reads as
    ``/_tmp/<tag><final>``, the final path under the writer's directory, so a
    hook matching ``"/OUT/ut.bin"`` fires on the staged create as on the
    publish.  Every other path comes back unchanged.
    """
    if not path.startswith(STAGING_ROOT + "/"):
        return path
    tag, sep, name = path[len(STAGING_ROOT) + 1 :].partition("/")
    if not sep or not name.startswith("%2F") or "/" in name:
        return path  # not one entry of a flat staging directory
    return f"{STAGING_ROOT}/{tag}{_unquote(name)}"


def manifest_path(root: str, step: str) -> str:
    return f"{root}/{COMMIT_DIR}/{_quote(step)}.json"


class CommitScope:
    """One writer's staged output: stage files, then publish or abort.

    The scope never touches final paths until :meth:`publish`, which moves
    every staged file in one atomic namenode operation.  :meth:`abort`
    (or a crashed writer followed by fsck) deletes the staging directory
    and leaves the final namespace untouched.
    """

    def __init__(self, dfs: "DFS", tag: str) -> None:
        self.dfs = dfs
        self.tag = tag
        #: ``(staged_path, final_path)`` in stage order.
        self.staged: list[tuple[str, str]] = []

    def stage_bytes(self, final_path: str, data: bytes) -> None:
        src = staging_path(self.tag, final_path)
        self.dfs.stage_bytes(src, data)
        self.staged.append((src, final_path))

    def publish(self) -> list[str]:
        """Atomically move every staged file to its final path and drop the
        staging directory."""
        self.dfs.publish(list(self.staged), staging_dir(self.tag))
        published = [dst for _, dst in self.staged]
        self.staged.clear()
        return published

    def abort(self) -> None:
        self.staged.clear()
        self.dfs.discard_staging(staging_dir(self.tag))


class CommitLog:
    """Durable step-done markers: one JSON manifest per committed step."""

    def __init__(self, dfs: "DFS", root: str) -> None:
        self.dfs = dfs
        self.root = root

    def path(self, step: str) -> str:
        return manifest_path(self.root, step)

    def record(
        self, step: str, published: list[str], retired: Sequence[str] = ()
    ) -> None:
        """Write the manifest for ``step`` — the step's commit point.

        The manifest itself goes through stage + publish, so a crash while
        writing it leaves no manifest at all and the step simply re-runs.
        ``retired`` are the files the caller deletes once this returns.
        """
        payload = json.dumps(
            {
                "step": step,
                "published": sorted(published),
                "retired": sorted(retired),
            }
        ).encode("utf-8")
        tag = f"manifest-{_quote(step)}"
        path = self.path(step)
        src = staging_path(tag, path)
        self.dfs.stage_bytes(src, payload)
        self.dfs.publish([(src, path)], staging_dir(tag))

    def committed(self, step: str) -> bool:
        return self.dfs.exists(self.path(step))

    def published(self, step: str) -> list[str]:
        """The files ``step``'s manifest lists (empty if not committed)."""
        if not self.committed(step):
            return []
        payload = json.loads(self.dfs.read_bytes(self.path(step)))
        return list(payload.get("published", []))

    def clear(self) -> None:
        """Drop every manifest (a from-scratch run must not trust them)."""
        if self.dfs.exists(f"{self.root}/{COMMIT_DIR}"):
            self.dfs.delete(f"{self.root}/{COMMIT_DIR}", recursive=True)


__all__ = [
    "COMMIT_DIR",
    "STAGING_ROOT",
    "CommitLog",
    "CommitScope",
    "manifest_path",
    "mirrored_path",
    "staging_dir",
    "staging_path",
]
