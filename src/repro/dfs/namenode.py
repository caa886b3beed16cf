"""Namespace management for the DFS substrate.

The namenode keeps the directory tree and, per file, the ordered list of
blocks that make up the file's contents — the same split of responsibilities
as HDFS.  Paths are '/'-separated and rooted at ``/``; the paper's directory
layout (``Root/A1/A3/...``, Figure 4) maps directly onto this tree.

Resolution is one dictionary lookup: the namenode keeps a flat index from
every canonical path to its entry, maintained by the four mutators
(``create_file``, ``mkdirs``, ``delete``, ``rename``/``publish``) under the
namespace lock, so the cost of an operation does not grow with the depth of
the path.  A lookup tries the path as given and normalizes it only on a
miss: every key is canonical, so a hit is the entry the canonical spelling
names.  ``DirEntry.children`` is what a directory *contains* (listing,
recursive delete, the sorted depth-first order of ``walk_files``), not how a
path is found.  Only a directory that is not there costs more than a lookup:
its missing tail is created, one component at a time, from the nearest
existing ancestor down — or that ancestor is named in the error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .blocks import BlockInfo


class DFSError(IOError):
    """Base class for namespace errors."""


class FileNotFound(DFSError):
    pass


class FileAlreadyExists(DFSError):
    pass


class NotADirectory(DFSError):
    pass


class IsADirectory(DFSError):
    pass


class DirectoryNotEmpty(DFSError):
    pass


def normalize(path: str) -> str:
    """Collapse a DFS path to canonical ``/a/b/c`` form.

    An already-canonical string (all ``Layout`` and ``staging_path`` ever
    build) is returned unchanged after a split-free check; the check is
    conservative — ``/a/.b`` takes the slow road and comes back as it was.
    """
    if path[:1] == "/" and path[-1] != "/" and "//" not in path and "/." not in path:
        return path
    return "/" + "/".join(p for p in path.split("/") if p not in ("", "."))


@dataclass
class FileEntry:
    """Metadata for one regular file.

    ``generation`` is a namenode-global monotonic stamp assigned when the
    entry is created.  Overwriting a path creates a *new* entry with a new
    generation, so a generation alone identifies one immutable file content
    — the key the decoded-block cache uses: an overwrite can never be served
    stale, and a renamed file (same entry, same generation) stays cached.
    """

    name: str
    blocks: list[BlockInfo] = field(default_factory=list)
    generation: int = 0
    #: Two-phase commit lifecycle: files created with ``pending=True`` stay
    #: invisible to ``exists``/``get_file``/``walk_files`` until sealed by
    #: :meth:`NameNode.seal` or an atomic :meth:`NameNode.publish` rename.
    sealed: bool = True

    @property
    def length(self) -> int:
        blocks = self.blocks
        if len(blocks) == 1:  # every file under one block: most of them
            return blocks[0].length
        return sum(b.length for b in blocks)


@dataclass
class DirEntry:
    """Metadata for one directory."""

    name: str
    children: dict[str, "FileEntry | DirEntry"] = field(default_factory=dict)


class NameNode:
    """The namespace tree, protected by a single coarse lock.

    A coarse lock is faithful to the real namenode (a single-writer namespace)
    and keeps semantics obvious; metadata operations are tiny compared to the
    block I/O they coordinate.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.root = DirEntry(name="")  # guarded-by: _lock
        #: Canonical path -> entry, for exactly the nodes reachable from
        #: ``root`` (pending files included).
        self._index: dict[str, FileEntry | DirEntry] = {"/": self.root}  # guarded-by: _lock
        self._next_generation = 1  # guarded-by: _lock

    # -- resolution ----------------------------------------------------------

    def _dir(self, path: str, *, create: bool) -> DirEntry:  # requires-lock: _lock
        """The directory at canonical ``path``: an index hit, else its
        missing tail is created from the nearest existing ancestor down
        (``create``) or the component that stops the descent is named."""
        found = self._index.get(path)
        if found is None:
            parent, name = self._parent_dir(path, create=create)
            if not create:
                raise FileNotFound(f"no such directory: {name!r} in {path!r}")
            found = parent.children[name] = self._index[path] = DirEntry(name=name)
        elif not isinstance(found, DirEntry):
            raise NotADirectory(f"{found.name!r} in {path!r} is a file")
        return found

    def _parent_dir(  # requires-lock: _lock
        self, path: str, *, create: bool
    ) -> tuple[DirEntry, str]:
        head, _, name = path.rpartition("/")
        if not name:
            raise DFSError("path refers to the root directory")
        parent = self._index.get(head or "/")
        if not isinstance(parent, DirEntry):  # missing, or a file: the slow road
            parent = self._dir(head or "/", create=create)
        return parent, name

    def _unindex(  # requires-lock: _lock
        self, path: str, node: "FileEntry | DirEntry", removed: list[FileEntry]
    ) -> None:
        """Drop the subtree at ``path`` from the index, collecting its files."""
        del self._index[path]
        if isinstance(node, FileEntry):
            removed.append(node)
            return
        for name, child in node.children.items():
            self._unindex(f"{path}/{name}", child, removed)

    def _reindex(  # requires-lock: _lock
        self, old: str, new: str, node: "FileEntry | DirEntry"
    ) -> None:
        """Re-key the subtree that moved from ``old`` to ``new``."""
        del self._index[old]
        self._index[new] = node
        if isinstance(node, DirEntry):
            for name, child in node.children.items():
                self._reindex(f"{old}/{name}", f"{new}/{name}", child)

    # -- operations ----------------------------------------------------------

    def create_file(
        self,
        path: str,
        blocks: list[BlockInfo] | None = None,
        *,
        overwrite: bool = False,
        pending: bool = False,
    ) -> list[FileEntry]:
        """Place a file made of ``blocks`` at ``path``; returns the entry it
        displaced (for block GC), if any."""
        path = normalize(path)
        with self._lock:
            parent, name = self._parent_dir(path, create=True)
            existing = parent.children.get(name)
            if existing is not None:
                if isinstance(existing, DirEntry):
                    raise IsADirectory(path)
                # An unsealed file never blocks creation: it is invisible
                # debris from an uncommitted writer, and the new entry's
                # fresh generation supersedes it.
                if not overwrite and existing.sealed:
                    raise FileAlreadyExists(path)
            parent.children[name] = self._index[path] = FileEntry(
                name, blocks or [], self._next_generation, not pending
            )
            self._next_generation += 1
            return [] if existing is None else [existing]

    def seal(self, path: str) -> FileEntry:
        """Make a pending file visible (the second phase of a direct write)."""
        with self._lock:
            node = self.get_file(path, include_pending=True)
            node.sealed = True
            return node

    def mkdirs(self, path: str) -> DirEntry:
        path = normalize(path)
        with self._lock:
            return self._dir(path, create=True)

    def get_file(self, path: str, *, include_pending: bool = False) -> FileEntry:
        with self._lock:
            node = self._index.get(path)
            if node is None:
                node = self._index.get(normalize(path))
            if node is None:
                raise FileNotFound(path)
            if isinstance(node, DirEntry):
                raise IsADirectory(path)
            if not node.sealed and not include_pending:
                raise FileNotFound(path)
            return node

    def exists(self, path: str, *, include_pending: bool = False) -> bool:
        with self._lock:
            node = self._index.get(path)
            if node is None:
                node = self._index.get(normalize(path))
            if isinstance(node, FileEntry) and not node.sealed:
                return include_pending
            return node is not None

    def is_dir(self, path: str) -> bool:
        with self._lock:
            node = self._index.get(path)
            if node is None:
                node = self._index.get(normalize(path))
            return isinstance(node, DirEntry)

    def is_file(self, path: str, *, include_pending: bool = False) -> bool:
        with self._lock:
            node = self._index.get(path)
            if node is None:
                node = self._index.get(normalize(path))
            return isinstance(node, FileEntry) and (node.sealed or include_pending)

    def list_dir(self, path: str) -> list[str]:
        with self._lock:
            node = self._index.get(path)
            if node is None:
                node = self._index.get(normalize(path))
            if node is None:
                raise FileNotFound(path)
            if isinstance(node, FileEntry):
                raise NotADirectory(path)
            return sorted(node.children)

    def delete(self, *paths: str, recursive: bool = False) -> list[FileEntry]:
        """Remove every path, or none if one cannot go; returns all file
        entries removed (for block GC)."""
        found: list[tuple[str, DirEntry, str]] = []
        removed: list[FileEntry] = []
        with self._lock:
            for path in dict.fromkeys(map(normalize, paths)):
                parent, name = self._parent_dir(path, create=False)
                node = parent.children.get(name)
                if node is None:
                    raise FileNotFound(path)
                if isinstance(node, DirEntry) and node.children and not recursive:
                    raise DirectoryNotEmpty(path)
                found.append((path, parent, name))
            for path, parent, name in found:
                if path in self._index:  # not inside a subtree already gone
                    self._unindex(path, parent.children.pop(name), removed)
            return removed

    def rename(self, src: str, dst: str, *, overwrite: bool = False) -> list[FileEntry]:
        """Move ``src`` to ``dst``; returns displaced file entries (for GC).

        ``dst`` names the final path, never a containing directory: renaming
        onto an existing directory raises :class:`IsADirectory` (move *into*
        a directory by spelling out ``dir/name``).  An existing file at
        ``dst`` raises :class:`FileAlreadyExists` unless ``overwrite=True``,
        in which case it is atomically replaced and returned for block GC.
        A directory cannot move below itself (:class:`DFSError`).
        """
        src, dst = normalize(src), normalize(dst)
        with self._lock:
            src_parent, src_name = self._parent_dir(src, create=False)
            node = src_parent.children.get(src_name)
            if node is None:
                raise FileNotFound(src)
            if isinstance(node, DirEntry) and dst.startswith(src + "/"):
                raise DFSError(f"cannot move directory {src!r} below itself")
            dst_parent, dst_name = self._parent_dir(dst, create=True)
            displaced: list[FileEntry] = []
            existing = dst_parent.children.get(dst_name)
            if existing is not None and existing is not node:
                if isinstance(existing, DirEntry):
                    raise IsADirectory(dst)
                # Invisible pending files never block a rename, same as create.
                if not overwrite and existing.sealed:
                    raise FileAlreadyExists(dst)
                displaced.append(existing)
            del src_parent.children[src_name]
            node.name = dst_name
            dst_parent.children[dst_name] = node
            self._reindex(src, dst, node)
            return displaced

    def publish(
        self, pairs: list[tuple[str, str]], staging: str
    ) -> tuple[int, list[FileEntry]]:
        """Atomically move-and-seal staged files to their final paths, then
        drop the writer's ``staging`` directory (whatever it still holds is
        an unpublished file).

        All sources are validated before anything moves, then every move
        happens under the one namespace lock — concurrent readers observe
        either none or all of the published files.  A move re-keys one file
        entry: out of its source directory (the writer's flat staging
        directory) and into its destination's, an index hit unless that
        directory is new.  Destinations are overwritten (a re-publish after
        a crash must win over debris).  Returns the bytes moved and the file
        entries displaced or dropped (for block GC).
        """
        pairs = [(normalize(src), normalize(dst)) for src, dst in pairs]
        staging = normalize(staging)
        nbytes = 0
        with self._lock:
            index = self._index
            for src, dst in pairs:
                node = index.get(src)
                if node is None:
                    raise FileNotFound(src)
                if isinstance(node, DirEntry):
                    raise IsADirectory(src)
                if isinstance(index.get(dst), DirEntry):
                    raise IsADirectory(dst)
                nbytes += node.length
            displaced: list[FileEntry] = []
            for src, dst in pairs:
                parent, name = self._parent_dir(dst, create=True)
                existing = parent.children.get(name)
                if isinstance(existing, DirEntry):
                    raise IsADirectory(dst)
                node = index.pop(src, None)
                if node is None:  # named twice: the first pair moved it
                    raise FileNotFound(src)
                head, _, src_name = src.rpartition("/")
                del index[head or "/"].children[src_name]  # type: ignore[union-attr]
                if existing is not None and existing is not node:
                    displaced.append(existing)
                node.name = name
                node.sealed = True  # type: ignore[union-attr]
                parent.children[name] = index[dst] = node
            if staging in index:
                parent, name = self._parent_dir(staging, create=False)
                self._unindex(staging, parent.children.pop(name), displaced)
            return nbytes, displaced

    def _files_under(self, path: str) -> list[tuple[str, FileEntry]]:  # requires-lock: _lock
        """Every ``(path, entry)`` under ``path``, pending included,
        depth-first and sorted within each directory."""
        base = normalize(path)
        node = self._index.get(base)
        if node is None:
            raise FileNotFound(path)
        found: list[tuple[str, FileEntry]] = []
        # An explicit stack, children pushed in reverse so they pop sorted: a
        # self-referencing nested function would be a reference cycle that
        # keeps every walked entry alive until the next full collection.
        stack: list[tuple[str, FileEntry | DirEntry]] = [
            ("" if base == "/" else base, node)
        ]
        while stack:
            prefix, entry = stack.pop()
            if isinstance(entry, FileEntry):
                found.append((prefix, entry))
                continue
            children = entry.children
            stack.extend(
                (f"{prefix}/{name}", children[name]) for name in sorted(children, reverse=True)
            )
        return found

    def walk_files(self, path: str = "/", *, include_pending: bool = False) -> list[str]:
        """All file paths under ``path``, depth-first, sorted within each dir."""
        with self._lock:
            found = self._files_under(path)
            return [p for p, entry in found if entry.sealed or include_pending]

    def pending_files(self, path: str = "/") -> list[str]:
        """All unsealed file paths under ``path`` (fsck's raw material)."""
        with self._lock:
            return [p for p, entry in self._files_under(path) if not entry.sealed]
