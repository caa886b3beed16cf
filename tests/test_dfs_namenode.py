"""Namenode namespace semantics."""

import gc
import weakref
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dfs.blocks import BlockId, BlockInfo
from repro.dfs.namenode import (
    DFSError,
    DirEntry,
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileEntry,
    FileNotFound,
    IsADirectory,
    NameNode,
    NotADirectory,
    normalize,
)


@pytest.fixture
def nn() -> NameNode:
    return NameNode()


class TestNormalize:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("/a/b", "/a/b"),
            ("a/b", "/a/b"),
            ("/a//b/", "/a/b"),
            ("/", "/"),
            ("", "/"),
            ("/a/./b", "/a/b"),
        ],
    )
    def test_forms(self, raw, expected):
        assert normalize(raw) == expected


class TestLookupSpellings:
    """A lookup tries the path as given, then its canonical form: any
    spelling of a path finds the entry the canonical one does."""

    def test_non_canonical_spellings_resolve_to_the_same_entries(self, nn):
        nn.create_file("/Root/a.bin")
        entry = nn.get_file("/Root/a.bin")
        for spelling in ("//Root/./a.bin", "Root/a.bin", "/Root//a.bin"):
            assert nn.get_file(spelling) is entry
            assert nn.exists(spelling) and nn.is_file(spelling)
        for spelling in ("/Root/", "Root", "//Root/."):
            assert nn.is_dir(spelling)
            assert nn.list_dir(spelling) == ["a.bin"]

    def test_a_miss_still_raises(self, nn):
        nn.create_file("/Root/a.bin")
        for spelling in ("/Root/b.bin", "//Root/./b.bin", "Root/b.bin/"):
            with pytest.raises(FileNotFound):
                nn.get_file(spelling)
            assert not nn.exists(spelling)
        with pytest.raises(FileNotFound):
            nn.list_dir("/Nope/")


class TestCreate:
    def test_create_file_makes_parents(self, nn):
        nn.create_file("/Root/A1/A2/file")
        assert nn.is_dir("/Root/A1/A2")
        assert nn.is_file("/Root/A1/A2/file")

    def test_create_duplicate_rejected(self, nn):
        nn.create_file("/f")
        with pytest.raises(FileAlreadyExists):
            nn.create_file("/f")

    def test_overwrite_allowed_when_requested(self, nn):
        assert nn.create_file("/f") == []
        first = nn.get_file("/f")
        displaced = nn.create_file("/f", overwrite=True)
        assert displaced == [first]  # returned for block GC
        assert nn.get_file("/f") is not first

    def test_create_file_holds_the_blocks_it_is_given(self, nn):
        blocks = [BlockInfo(BlockId(7), 5, 0, (0,))]
        nn.create_file("/f", blocks)
        assert nn.get_file("/f").blocks == blocks
        assert nn.get_file("/f").length == 5

    def test_create_over_directory_rejected(self, nn):
        nn.mkdirs("/d")
        with pytest.raises(IsADirectory):
            nn.create_file("/d")

    def test_create_under_file_rejected(self, nn):
        nn.create_file("/f")
        with pytest.raises(NotADirectory):
            nn.create_file("/f/child")


class TestListing:
    def test_list_dir_sorted(self, nn):
        for name in ("b", "a", "c"):
            nn.create_file(f"/d/{name}")
        assert nn.list_dir("/d") == ["a", "b", "c"]

    def test_list_missing_raises(self, nn):
        with pytest.raises(FileNotFound):
            nn.list_dir("/nope")

    def test_list_file_raises(self, nn):
        nn.create_file("/f")
        with pytest.raises(NotADirectory):
            nn.list_dir("/f")

    def test_walk_files_depth_first(self, nn):
        nn.create_file("/r/x")
        nn.create_file("/r/sub/y")
        assert nn.walk_files("/r") == ["/r/sub/y", "/r/x"]

    def test_walking_leaves_no_cycle_that_keeps_entries_alive(self):
        nn = NameNode()
        for path in ("/r/b", "/r/a/z", "/r/a/y", "/s"):
            nn.create_file(path, [BlockInfo(BlockId(1), 1, 0, (0,))])
        entry = weakref.ref(nn.get_file("/r/a/y"))
        gc.collect()
        gc.disable()
        try:
            assert nn.walk_files("/") == ["/r/a/y", "/r/a/z", "/r/b", "/s"]
            del nn
            assert entry() is None
        finally:
            gc.enable()


class TestDelete:
    def test_delete_file(self, nn):
        nn.create_file("/f")
        removed = nn.delete("/f")
        assert len(removed) == 1
        assert not nn.exists("/f")

    def test_delete_nonempty_dir_needs_recursive(self, nn):
        nn.create_file("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            nn.delete("/d")
        removed = nn.delete("/d", recursive=True)
        assert len(removed) == 1

    def test_delete_collects_nested_files(self, nn):
        nn.create_file("/d/a")
        nn.create_file("/d/sub/b")
        removed = nn.delete("/d", recursive=True)
        assert len(removed) == 2

    def test_delete_missing_raises(self, nn):
        with pytest.raises(FileNotFound):
            nn.delete("/missing")


class TestRename:
    def test_rename_file(self, nn):
        nn.create_file("/a")
        nn.rename("/a", "/b/c")
        assert not nn.exists("/a")
        assert nn.is_file("/b/c")

    def test_rename_directory_moves_children(self, nn):
        nn.create_file("/src/f")
        nn.rename("/src", "/dst")
        assert nn.is_file("/dst/f")

    def test_rename_onto_existing_rejected(self, nn):
        nn.create_file("/a")
        nn.create_file("/b")
        with pytest.raises(FileAlreadyExists):
            nn.rename("/a", "/b")

    def test_rename_overwrite_returns_displaced_entry(self, nn):
        nn.create_file("/a")
        nn.create_file("/b")
        old = nn.get_file("/b")
        displaced = nn.rename("/a", "/b", overwrite=True)
        assert displaced == [old]
        assert not nn.exists("/a")
        assert nn.is_file("/b")

    def test_rename_onto_directory_rejected_even_with_overwrite(self, nn):
        nn.create_file("/a")
        nn.mkdirs("/d")
        with pytest.raises(IsADirectory):
            nn.rename("/a", "/d", overwrite=True)
        assert nn.is_file("/a")  # untouched on failure

    def test_rename_onto_pending_file_never_blocks(self, nn):
        nn.create_file("/a")
        nn.create_file("/b", pending=True)
        pending = nn.get_file("/b", include_pending=True)
        displaced = nn.rename("/a", "/b")  # no overwrite needed
        assert displaced == [pending]
        assert nn.is_file("/b")

    def test_renamed_entries_keep_their_generation(self, nn):
        nn.create_file("/a")
        entry = nn.get_file("/a")
        nn.rename("/a", "/b")
        assert nn.get_file("/b").generation == entry.generation

    def test_directory_cannot_move_below_itself(self, nn):
        nn.create_file("/d/f")
        with pytest.raises(DFSError):
            nn.rename("/d", "/d/sub/d")
        assert nn.walk_files("/") == ["/d/f"]  # nothing moved, nothing created
        assert not nn.exists("/d/sub")

    def test_through_a_file_component_is_not_a_directory(self, nn):
        nn.create_file("/f")
        for op in (nn.delete, lambda p: nn.rename(p, "/g"), lambda p: nn.rename("/f", p)):
            with pytest.raises(NotADirectory):
                op("/f/x/y")
        assert not nn.exists("/f/x/y")
        with pytest.raises(FileNotFound):
            nn.get_file("/f/x/y")


class TestPendingLifecycle:
    def test_pending_file_is_invisible_until_sealed(self, nn):
        nn.create_file("/Root/f", pending=True)
        assert not nn.exists("/Root/f")
        assert not nn.is_file("/Root/f")
        with pytest.raises(FileNotFound):
            nn.get_file("/Root/f")
        assert nn.exists("/Root/f", include_pending=True)
        assert nn.walk_files("/") == []
        assert nn.walk_files("/", include_pending=True) == ["/Root/f"]
        nn.seal("/Root/f")
        assert nn.is_file("/Root/f")
        assert nn.walk_files("/") == ["/Root/f"]

    def test_pending_files_lists_only_unsealed(self, nn):
        nn.create_file("/sealed")
        nn.create_file("/torn", pending=True)
        assert nn.pending_files("/") == ["/torn"]

    def test_pending_file_never_blocks_recreation(self, nn):
        # A crashed writer's half-written file must not make the retry fail.
        nn.create_file("/f", pending=True)
        nn.create_file("/f", pending=True)  # no overwrite flag needed
        superseded = nn.get_file("/f", include_pending=True)
        assert nn.create_file("/f") == [superseded]  # returned for block GC
        assert nn.get_file("/f").sealed

    def test_sealed_file_still_requires_overwrite(self, nn):
        nn.create_file("/f")
        with pytest.raises(FileAlreadyExists):
            nn.create_file("/f", pending=True)


class TestPublish:
    def test_publish_moves_and_seals_every_pair(self, nn):
        nn.create_file("/_tmp/t/Root/a", pending=True)
        nn.create_file("/_tmp/t/Root/b", pending=True)
        nn.publish([("/_tmp/t/Root/a", "/Root/a"), ("/_tmp/t/Root/b", "/Root/b")], "/_tmp/t")
        assert nn.is_file("/Root/a") and nn.is_file("/Root/b")
        assert nn.get_file("/Root/a").sealed
        assert nn.pending_files("/Root") == []

    def test_publish_returns_the_bytes_moved_and_drops_the_staging_dir(self, nn):
        block = BlockInfo(BlockId(1), 10, 0, (0,))
        nn.create_file("/_tmp/t/Root/a", [block], pending=True)
        nn.create_file("/_tmp/t/Root/unpublished", [block], pending=True)
        leftover = nn.get_file("/_tmp/t/Root/unpublished", include_pending=True)
        nbytes, displaced = nn.publish([("/_tmp/t/Root/a", "/Root/a")], "/_tmp/t")
        assert nbytes == 10
        assert displaced == [leftover]  # dropped with the staging dir, for GC
        assert not nn.exists("/_tmp/t")
        assert nn.is_file("/Root/a")

    def test_publish_replaces_sealed_destination(self, nn):
        nn.create_file("/Root/a")  # an earlier publish's output
        debris = nn.get_file("/Root/a")
        nn.create_file("/_tmp/t/Root/a", pending=True)
        _, displaced = nn.publish([("/_tmp/t/Root/a", "/Root/a")], "/_tmp/t")
        assert debris in displaced

    def test_publish_validates_all_before_moving_any(self, nn):
        # Second pair is bad (missing source): the first must not move either.
        nn.create_file("/_tmp/t/Root/a", pending=True)
        with pytest.raises(FileNotFound):
            nn.publish([("/_tmp/t/Root/a", "/Root/a"), ("/_tmp/t/Root/b", "/Root/b")], "/_tmp/t")
        assert not nn.exists("/Root/a")
        assert nn.exists("/_tmp/t/Root/a", include_pending=True)

    def test_publish_onto_directory_rejected_atomically(self, nn):
        nn.create_file("/_tmp/t/Root/a", pending=True)
        nn.create_file("/_tmp/t/Root/b", pending=True)
        nn.mkdirs("/Root/b")
        with pytest.raises(IsADirectory):
            nn.publish([("/_tmp/t/Root/a", "/Root/a"), ("/_tmp/t/Root/b", "/Root/b")], "/_tmp/t")
        assert not nn.exists("/Root/a")

    def test_publish_from_a_flat_staging_dir_builds_the_final_dirs(self, nn):
        nn.create_file("/Root/A1/old")  # an existing final directory
        staged = {
            "/_tmp/t/%2FRoot%2FA1%2Fx": "/Root/A1/x",
            "/_tmp/t/%2FRoot%2FOUT%2FA2%2Fy": "/Root/OUT/A2/y",
        }
        for src in staged:
            nn.create_file(src, pending=True)
        assert nn.list_dir("/_tmp/t") == sorted(name.rsplit("/", 1)[1] for name in staged)
        nn.publish(list(staged.items()), "/_tmp/t")
        assert nn.walk_files("/Root") == ["/Root/A1/old", "/Root/A1/x", "/Root/OUT/A2/y"]
        assert nn.list_dir("/_tmp") == []
        for src, dst in staged.items():
            assert not nn.exists(src, include_pending=True)
            entry = nn.get_file(dst)
            assert entry.sealed and entry.name == dst.rsplit("/", 1)[1]

    def test_publish_of_a_file_onto_its_own_path_keeps_it(self, nn):
        nn.create_file("/_tmp/t/x", pending=True)
        entry = nn.get_file("/_tmp/t/x", include_pending=True)
        _, displaced = nn.publish([("/_tmp/t/x", "/_tmp/t/x")], "/_tmp/u")
        assert displaced == [] and nn.get_file("/_tmp/t/x") is entry


# -- the flat index against the tree walk it replaced ---------------------------


def split_join(path: str) -> str:
    """``normalize`` as the seed wrote it: split, filter, join."""
    return "/" + "/".join(p for p in path.split("/") if p not in ("", "."))


class TestNormalizeFastPath:
    @given(st.text(alphabet="/.ab", max_size=12))
    @example("")
    @example("/")
    @example("/a/.")
    @example("a//b/")
    @example("/./")
    @example("/a/.b")
    @example("/a/b.")
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_split_and_join(self, raw):
        assert normalize(raw) == split_join(raw)

    @given(st.text(alphabet="/.ab", max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_canonical_strings_come_back_unchanged(self, raw):
        canonical = normalize(raw)
        assert normalize(canonical) == canonical


class TreeWalkNameNode:
    """The namenode as it resolved paths before the index: every operation
    walks ``root`` one component at a time.  Kept here only, as the reference
    model.  One deliberate difference from the seed: moving a directory below
    itself raises (the seed detached the subtree and leaked it)."""

    def __init__(self) -> None:
        self.root = DirEntry(name="")
        self._next_generation = 1

    @staticmethod
    def _parts(path):
        return [p for p in path.split("/") if p not in ("", ".")]

    def _walk(self, path):
        node = self.root
        for part in self._parts(path):
            if not isinstance(node, DirEntry):
                return None
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _parent_dir(self, path, *, create):
        parts = self._parts(path)
        if not parts:
            raise DFSError("path refers to the root directory")
        node = self.root
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                if not create:
                    raise FileNotFound(path)
                child = node.children[part] = DirEntry(name=part)
            if not isinstance(child, DirEntry):
                raise NotADirectory(path)
            node = child
        return node, parts[-1]

    def create_file(self, path, blocks=None, *, overwrite=False, pending=False):
        parent, name = self._parent_dir(path, create=True)
        existing = parent.children.get(name)
        if existing is not None:
            if isinstance(existing, DirEntry):
                raise IsADirectory(path)
            if not overwrite and existing.sealed:
                raise FileAlreadyExists(path)
        entry = FileEntry(
            name=name, blocks=blocks or [], generation=self._next_generation, sealed=not pending
        )
        self._next_generation += 1
        parent.children[name] = entry
        return [] if existing is None else [existing]

    def seal(self, path):
        node = self.get_file(path, include_pending=True)
        node.sealed = True
        return node

    def mkdirs(self, path):
        node = self.root
        for part in self._parts(path):
            child = node.children.get(part)
            if child is None:
                child = node.children[part] = DirEntry(name=part)
            if not isinstance(child, DirEntry):
                raise NotADirectory(path)
            node = child
        return node

    def get_file(self, path, *, include_pending=False):
        node = self._walk(path)
        if node is None:
            raise FileNotFound(path)
        if isinstance(node, DirEntry):
            raise IsADirectory(path)
        if not node.sealed and not include_pending:
            raise FileNotFound(path)
        return node

    def exists(self, path, *, include_pending=False):
        node = self._walk(path)
        if isinstance(node, FileEntry) and not node.sealed:
            return include_pending
        return node is not None

    def is_dir(self, path):
        return isinstance(self._walk(path), DirEntry)

    def is_file(self, path, *, include_pending=False):
        node = self._walk(path)
        return isinstance(node, FileEntry) and (node.sealed or include_pending)

    def list_dir(self, path):
        node = self._walk(path)
        if node is None:
            raise FileNotFound(path)
        if isinstance(node, FileEntry):
            raise NotADirectory(path)
        return sorted(node.children)

    def delete(self, *paths, recursive=False):
        """All or nothing: every path is checked before any is removed."""
        paths = list(dict.fromkeys(split_join(p) for p in paths))
        for path in paths:
            parent, name = self._parent_dir(path, create=False)
            node = parent.children.get(name)
            if node is None:
                raise FileNotFound(path)
            if isinstance(node, DirEntry) and node.children and not recursive:
                raise DirectoryNotEmpty(path)
        removed = []
        for path in paths:
            if self._walk(path) is not None:  # not inside a subtree already gone
                removed.extend(self._delete_one(path))
        return removed

    def _delete_one(self, path):
        parent, name = self._parent_dir(path, create=False)
        node = parent.children[name]
        del parent.children[name]
        removed = []

        def collect(entry):
            if isinstance(entry, FileEntry):
                removed.append(entry)
            else:
                for child in entry.children.values():
                    collect(child)

        collect(node)
        return removed

    def rename(self, src, dst, *, overwrite=False, seal=False):
        src_parent, src_name = self._parent_dir(src, create=False)
        node = src_parent.children.get(src_name)
        if node is None:
            raise FileNotFound(src)
        if isinstance(node, DirEntry) and split_join(dst).startswith(split_join(src) + "/"):
            raise DFSError("directory below itself")
        dst_parent, dst_name = self._parent_dir(dst, create=True)
        displaced = []
        existing = dst_parent.children.get(dst_name)
        if existing is not None and existing is not node:
            if isinstance(existing, DirEntry):
                raise IsADirectory(dst)
            if not overwrite and existing.sealed:
                raise FileAlreadyExists(dst)
            displaced.append(existing)
        del src_parent.children[src_name]
        node.name = dst_name
        if seal and isinstance(node, FileEntry):
            node.sealed = True
        dst_parent.children[dst_name] = node
        return displaced

    def publish(self, pairs, staging):
        nbytes = 0
        for src, dst in pairs:
            node = self._walk(src)
            if node is None:
                raise FileNotFound(src)
            if isinstance(node, DirEntry):
                raise IsADirectory(src)
            if isinstance(self._walk(dst), DirEntry):
                raise IsADirectory(dst)
            nbytes += node.length
        displaced = []
        for src, dst in pairs:
            displaced.extend(self.rename(src, dst, overwrite=True, seal=True))
        if self._walk(staging) is not None:
            displaced.extend(self._delete_one(split_join(staging)))
        return nbytes, displaced

    def walk_files(self, path="/", *, include_pending=False):
        node = self._walk(path)
        if node is None:
            raise FileNotFound(path)
        result = []

        def recurse(prefix, entry):
            if isinstance(entry, FileEntry):
                if entry.sealed or include_pending:
                    result.append(prefix)
                return
            for name in sorted(entry.children):
                recurse(prefix.rstrip("/") + "/" + name, entry.children[name])

        recurse(split_join(path), node)
        return result

    def pending_files(self, path="/"):
        sealed = set(self.walk_files(path))
        return [p for p in self.walk_files(path, include_pending=True) if p not in sealed]


def describe(value):
    """A result with entry identity taken out, so two namenodes compare."""
    if isinstance(value, FileEntry):
        return ("file", value.name, value.generation, value.sealed)
    if isinstance(value, DirEntry):
        return ("dir", value.name, sorted(value.children))
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    return value


def outcome(call):
    try:
        return ("ok", describe(call()))
    except DFSError as exc:
        return ("raised", type(exc))


def reachable(nn: NameNode) -> dict:
    found = {"/": nn.root}
    stack = [("", nn.root)]
    while stack:
        prefix, node = stack.pop()
        for name, child in node.children.items():
            found[f"{prefix}/{name}"] = child
            if isinstance(child, DirEntry):
                stack.append((f"{prefix}/{name}", child))
    return found


#: Two names, three levels: 14 paths, so sequences collide constantly —
#: files in the way of directories, overwrites, renames onto each other.
CANONICAL = ["/" + "/".join(parts) for k in (1, 2, 3) for parts in product("ab", repeat=k)]
SPELLINGS = [
    lambda p: p,  # three in seven stay canonical
    lambda p: p,
    lambda p: p,
    lambda p: p + "/",
    lambda p: p[1:],
    lambda p: p.replace("/", "//"),
    lambda p: "/." + p,
]
paths = st.one_of(
    st.just("/"),
    st.builds(lambda p, spell: spell(p), st.sampled_from(CANONICAL), st.sampled_from(SPELLINGS)),
)
QUERIES = [
    lambda nn, p: nn.exists(p),
    lambda nn, p: nn.exists(p, include_pending=True),
    lambda nn, p: nn.is_dir(p),
    lambda nn, p: nn.is_file(p),
    lambda nn, p: nn.is_file(p, include_pending=True),
    lambda nn, p: nn.get_file(p),
    lambda nn, p: nn.get_file(p, include_pending=True),
    lambda nn, p: nn.list_dir(p),
    lambda nn, p: nn.walk_files(p),
    lambda nn, p: nn.walk_files(p, include_pending=True),
    lambda nn, p: nn.pending_files(p),
]


class NamespaceMachine(RuleBasedStateMachine):
    """Every mutator, on the indexed namenode and on the tree walk: the same
    results, the same exception types, and an index that is exactly the set
    of paths reachable from the root."""

    def __init__(self) -> None:
        super().__init__()
        self.real = NameNode()
        self.model = TreeWalkNameNode()

    def both(self, op) -> None:
        assert outcome(lambda: op(self.real)) == outcome(lambda: op(self.model))

    @rule(path=paths, overwrite=st.booleans(), pending=st.booleans())
    def create_file(self, path, overwrite, pending):
        self.both(lambda nn: nn.create_file(path, overwrite=overwrite, pending=pending))

    @rule(path=paths)
    def mkdirs(self, path):
        self.both(lambda nn: nn.mkdirs(path))

    @rule(path=paths)
    def seal(self, path):
        self.both(lambda nn: nn.seal(path))

    @rule(path=paths, recursive=st.booleans())
    def delete(self, path, recursive):
        self.both(lambda nn: nn.delete(path, recursive=recursive))

    @rule(batch=st.lists(paths, min_size=1, max_size=3), recursive=st.booleans())
    def delete_many(self, batch, recursive):
        self.both(lambda nn: nn.delete(*batch, recursive=recursive))

    @rule(src=paths, dst=paths, overwrite=st.booleans())
    def rename(self, src, dst, overwrite):
        self.both(lambda nn: nn.rename(src, dst, overwrite=overwrite))

    @rule(
        pairs=st.lists(st.tuples(paths, paths), min_size=1, max_size=3),
        staging=st.sampled_from(CANONICAL),
    )
    def publish(self, pairs, staging):
        self.both(lambda nn: nn.publish(pairs, staging))

    @invariant()
    def index_is_exactly_the_reachable_paths(self):
        index, tree = self.real._index, reachable(self.real)
        assert index.keys() == tree.keys()
        assert all(index[path] is node for path, node in tree.items())

    @invariant()
    def every_query_agrees(self):
        for path in ["/", *CANONICAL]:
            for query in QUERIES:
                assert outcome(lambda: query(self.real, path)) == outcome(
                    lambda: query(self.model, path)
                ), path


NamespaceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestNamespaceAgainstTreeWalk = NamespaceMachine.TestCase
