"""Static concurrency analyzer: guarded-by locksets and lock-order checking.

The threaded engine (JobTracker waves on a thread pool, DFS block store with
per-object locks, thread-safe telemetry) protects shared state with
``threading.Lock``/``RLock`` instances, but nothing *proved* the discipline:
a new call path reading ``BlockStore._blocks`` without the lock, or two
subsystems nesting locks in opposite orders, would only surface as a rare
flaked test.  This module makes the lock contracts machine-checked source
annotations:

``# guarded-by: <lock-attr>``
    on the line assigning a shared attribute (in ``__init__`` or at class
    level, including dataclass fields) declares that every post-construction
    read or write of that attribute must happen while the named sibling lock
    attribute is held;

``# requires-lock: <lock-attr>``
    on a ``def`` line declares a helper that assumes its *caller* holds the
    lock (the ``_locked`` method-name suffix implies the same for classes
    with a single lock): its own accesses are exempt, and every call site is
    checked instead.

The analyzer parses whole modules (no imports executed), builds a per-class
model (locks, guarded attributes, attribute/return types for a light
receiver-type inference), and walks every function body tracking the set of
locks held.  Violations are reported through the shared
:class:`~repro.analysis.findings.Finding` framework:

``CN001``  guarded attribute read without the lock;
``CN002``  guarded attribute written/mutated without the lock;
``CN003``  lock-required helper called without the lock held;
``CN004``  guarded mutable state returned without copying (the reference
           escapes the lock's protection);
``CN005``  lock-order cycle in the whole-package acquisition graph
           (potential deadlock), including same-``Lock`` re-acquisition;
``CN006``  lock held across a blocking call (``Thread.join``,
           ``future.result``, ``Queue.get``, ``time.sleep``, executor
           ``run_all``, DFS block I/O);
``CN007``  ``guarded-by`` names a lock attribute the class never defines;
``CN008``  a callback that escapes to another thread (returned, stored, or
           handed to an executor/Thread) mutates enclosing mutable state
           without holding any lock.

Suppressions reuse the shared mechanism: append
``# lint: ignore[CN006]`` (or a bare ``# lint: ignore``) to the line.

Known limitations (see ``docs/static_analysis.md``): the analysis is
instance-insensitive (all instances of a class share one abstract lock), the
type inference covers only constructor assignments, parameter/return
annotations, and homogeneous containers, and ``acquire``/``release`` pairs
are modelled block-locally — ``with`` statements are the verified idiom.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .findings import Finding
from .source import (
    SEQUENCE_MUTATORS,
    FunctionNode,
    ModuleSource,
    NodeEmitter,
    SourceAnalyzer,
    dotted,
    mutation_sites,
    param_names,
    params,
)

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_REQUIRES_RE = re.compile(r"#\s*requires-lock:\s*([A-Za-z_]\w*)")

#: Constructors recognised as locks, with their kind ("Lock" participates in
#: self-deadlock detection; "RLock"/"Condition" are reentrant).
_LOCK_CTORS = {"Lock": "Lock", "RLock": "RLock", "Condition": "Condition"}

#: Methods whose call mutates the receiver in place: guarded attributes
#: are dicts, sets and lists.
_MUTATORS = SEQUENCE_MUTATORS

#: Copy-making callables: wrapping a guarded attribute in one of these before
#: returning it is the sanctioned escape (CN004 does not fire).
_COPYING_CALLS = frozenset(
    {"list", "dict", "tuple", "set", "frozenset", "sorted", "str", "bytes",
     "len", "sum", "min", "max", "deepcopy", "copy"}
)

#: Method names that block (or can block) the calling thread.
_BLOCKING_METHODS = frozenset(
    {"result", "run_all", "read_block", "write_block", "read_bytes",
     "write_bytes", "read_range", "read_text", "write_text",
     "repair", "wait"}
)

#: Methods exempt from guarded-attribute checks on ``self`` — the object is
#: not yet (or no longer) shared while they run.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__del__"})


def _is_lock_ctor(node: ast.AST) -> str | None:
    """Lock kind when ``node`` is ``threading.Lock()`` / ``RLock()`` /
    ``Condition()`` or a dataclass ``field(default_factory=threading.Lock)``."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted(node.func)
    if name is not None:
        leaf = name.split(".")[-1]
        if leaf in _LOCK_CTORS:
            return _LOCK_CTORS[leaf]
        if leaf == "field":
            for kw in node.keywords:
                if kw.arg == "default_factory":
                    factory = dotted(kw.value)
                    if factory is not None:
                        fleaf = factory.split(".")[-1]
                        if fleaf in _LOCK_CTORS:
                            return _LOCK_CTORS[fleaf]
    return None


_IMMUTABLE_ANNS = frozenset({"int", "float", "bool", "str", "bytes", "None"})


def _is_immutable_value(
    value: ast.AST | None, annotation: ast.AST | None
) -> bool:
    """True when a guarded attribute holds an immutable scalar (per its
    initializer literal or annotation) — sharing the *value* is then safe."""
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.UnaryOp) and isinstance(value.operand, ast.Constant):
        return True
    if annotation is not None:
        names = _ann_identifiers(annotation)
        if names and set(names) <= _IMMUTABLE_ANNS:
            return True
    return False


def _ann_identifiers(node: ast.AST | None) -> list[str]:
    """Candidate class names mentioned by an annotation node (handles string
    forward references, ``Optional[X]``, ``X | None``, ``list[X]``)."""
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.findall(r"[A-Za-z_]\w*", node.value)
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.extend(re.findall(r"[A-Za-z_]\w*", sub.value))
    return names


@dataclass
class ClassModel:
    """Everything the analyzer knows about one class."""

    name: str
    filename: str
    node: ast.ClassDef
    lock_attrs: dict[str, str] = field(default_factory=dict)  # attr -> kind
    guarded: dict[str, str] = field(default_factory=dict)  # attr -> lock attr
    guard_lines: dict[str, int] = field(default_factory=dict)
    #: Guarded attrs whose value is an immutable scalar — returning them
    #: from inside the lock is a valid snapshot, not an escape (no CN004).
    immutable_attrs: set[str] = field(default_factory=set)
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class
    attr_elem_types: dict[str, str] = field(default_factory=dict)
    method_returns: dict[str, str] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    properties: set[str] = field(default_factory=set)
    requires_lock: dict[str, str] = field(default_factory=dict)

    def single_lock(self) -> str | None:
        if len(self.lock_attrs) == 1:
            return next(iter(self.lock_attrs))
        return None


@dataclass(frozen=True)
class LockOrderEdge:
    """``held`` was held while ``acquired`` was (directly or transitively)
    acquired at ``location``."""

    held: str
    acquired: str
    location: str


class ConcurrencyAnalyzer(SourceAnalyzer):
    """Whole-package lockset and lock-order analysis.

    Feed modules with :meth:`add_module` (or :meth:`add_file`), then call
    :meth:`run` for the combined findings.  All modules share one class
    table, so cross-module receiver types (``DFS.blocks`` -> ``BlockStore``)
    and the lock-order graph resolve across file boundaries.
    """

    parse_error_rule = "CN007"

    def __init__(self) -> None:
        super().__init__()
        self.classes: dict[str, ClassModel] = {}
        self.edges: list[LockOrderEdge] = []
        self._lock_kinds: dict[str, str] = {}  # "Class.attr" -> kind
        # (class, method) -> locks directly acquired / callees, for the
        # transitive-acquisition fixpoint behind CN005.
        self._direct_acquires: dict[tuple[str, str], set[str]] = {}
        self._calls: dict[tuple[str, str], set[tuple[str, str]]] = {}
        # Deferred call events: (held locks, callee, location).
        self._call_events: list[tuple[frozenset[str], tuple[str, str], str]] = []

    # -- class model collection ------------------------------------------------

    def _collect_class(self, node: ast.ClassDef, module: ModuleSource) -> None:
        model = ClassModel(name=node.name, filename=module.filename, node=node)
        self.classes[node.name] = model
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._collect_attr_stmt(model, stmt, module, selfless=True)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_method(model, stmt, module)
        for attr, kind in model.lock_attrs.items():
            self._lock_kinds[f"{model.name}.{attr}"] = kind

    def _collect_method(
        self,
        model: ClassModel,
        fn: FunctionNode,
        module: ModuleSource,
    ) -> None:
        for deco in fn.decorator_list:
            deco_name = dotted(deco) or ""
            if deco_name == "property" or deco_name.endswith(".setter"):
                model.properties.add(fn.name)
        model.methods.setdefault(fn.name, fn)
        ret = self._first_match_later(_ann_identifiers(fn.returns))
        if ret is not None:
            model.method_returns[fn.name] = ret
        required = _REQUIRES_RE.search(module.line(fn.lineno))
        if required is not None:
            model.requires_lock[fn.name] = required.group(1)
        elif fn.name.endswith("_locked"):
            model.requires_lock[fn.name] = "?"  # resolved against single_lock
        # ``self.x = ...`` statements anywhere in the method feed the model;
        # guarded-by comments are conventionally in ``__init__``.
        for stmt in ast.walk(fn):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._collect_attr_stmt(
                    model, stmt, module, selfless=False, fn=fn
                )

    def _collect_attr_stmt(
        self,
        model: ClassModel,
        stmt: ast.Assign | ast.AnnAssign,
        module: ModuleSource,
        *,
        selfless: bool,
        fn: FunctionNode | None = None,
    ) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        annotation = stmt.annotation if isinstance(stmt, ast.AnnAssign) else None
        for target in targets:
            attr: str | None = None
            if selfless and isinstance(target, ast.Name):
                attr = target.id
            elif (
                not selfless
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr = target.attr
            if attr is None:
                continue
            guard = _GUARDED_RE.search(module.line(stmt.lineno))
            if guard is not None:
                model.guarded[attr] = guard.group(1)
                model.guard_lines[attr] = stmt.lineno
                if _is_immutable_value(value, annotation):
                    model.immutable_attrs.add(attr)
            kind = _is_lock_ctor(value) if value is not None else None
            if kind is None and annotation is not None:
                ann_names = _ann_identifiers(annotation)
                for name in ann_names:
                    if name in _LOCK_CTORS:
                        kind = _LOCK_CTORS[name]
                        break
            if kind is not None:
                model.lock_attrs[attr] = kind
                continue
            self._collect_attr_type(model, attr, value, annotation, fn)

    def _collect_attr_type(
        self,
        model: ClassModel,
        attr: str,
        value: ast.AST | None,
        annotation: ast.AST | None,
        fn: FunctionNode | None,
    ) -> None:
        """Record ``attr``'s (element) type when statically evident."""
        if annotation is not None:
            names = _ann_identifiers(annotation)
            resolved = self._first_match_later(names)
            if resolved is not None:
                if names and names[0] in ("list", "List", "dict", "Dict",
                                          "tuple", "Tuple", "set", "Set"):
                    model.attr_elem_types.setdefault(attr, resolved)
                else:
                    model.attr_types.setdefault(attr, resolved)
        if value is None:
            return
        if isinstance(value, ast.Call):
            callee = dotted(value.func)
            if callee is not None:
                model.attr_types.setdefault(attr, callee.split(".")[-1])
        elif isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            if isinstance(value.elt, ast.Call):
                callee = dotted(value.elt.func)
                if callee is not None:
                    model.attr_elem_types.setdefault(attr, callee.split(".")[-1])
        elif isinstance(value, (ast.List, ast.Tuple)) and value.elts:
            first = value.elts[0]
            if isinstance(first, ast.Call):
                callee = dotted(first.func)
                if callee is not None:
                    model.attr_elem_types.setdefault(attr, callee.split(".")[-1])
        elif isinstance(value, ast.Name) and fn is not None:
            # ``self.x = param`` with an annotated parameter.
            for arg in params(fn):
                if arg.arg == value.id:
                    resolved = self._first_match_later(
                        _ann_identifiers(arg.annotation)
                    )
                    if resolved is not None:
                        model.attr_types.setdefault(attr, resolved)
                    break

    def _first_match_later(self, names: Iterable[str]) -> str | None:
        """Names are matched against the class table lazily (collection order
        is arbitrary), so raw candidates are stored and filtered on use; this
        helper keeps the first candidate that *could* be a class name."""
        for name in names:
            if name and name[0].isupper():
                return name
        return None

    def _known_class(self, name: str | None) -> ClassModel | None:
        if name is None:
            return None
        return self.classes.get(name)

    # -- analysis --------------------------------------------------------------

    def run(self) -> list[Finding]:
        # The class table spans the package: complete it before any module
        # is analyzed, so receiver types resolve across file boundaries.
        for module in self.modules:
            if module.tree is not None:
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.ClassDef):
                        self._collect_class(node, module)
        return super().run()

    def analyze_module(self, module: ModuleSource) -> None:
        self._check_annotations(module)
        assert module.tree is not None
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                model = self.classes[node.name]
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        _FunctionWalker(self, module, model, stmt).analyze()
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionWalker(self, module, None, node).analyze()

    def finish(self) -> None:
        self._resolve_call_events()
        self._check_lock_order()

    # -- annotation sanity (CN007) ---------------------------------------------

    def _check_annotations(self, module: ModuleSource) -> None:
        for model in self.classes.values():
            if model.filename != module.filename:
                continue
            for attr, lock in model.guarded.items():
                if lock not in model.lock_attrs:
                    self.emit(
                        "CN007",
                        f"{model.name}.{attr} is guarded-by {lock!r} but "
                        f"{model.name} defines no such lock attribute",
                        f"{model.filename}:{model.guard_lines.get(attr, model.node.lineno)}",
                        hint="declare the lock (e.g. self._lock = "
                        "threading.Lock()) or fix the annotation",
                    )

    # -- lock-order graph ------------------------------------------------------

    def record_direct_acquire(self, caller: tuple[str, str], lock: str) -> None:
        self._direct_acquires.setdefault(caller, set()).add(lock)

    def record_call(
        self,
        caller: tuple[str, str],
        callee: tuple[str, str],
        held: frozenset[str],
        location: str,
    ) -> None:
        self._calls.setdefault(caller, set()).add(callee)
        if held:
            self._call_events.append((held, callee, location))

    def record_edge(self, held: str, acquired: str, location: str) -> None:
        self.edges.append(LockOrderEdge(held, acquired, location))

    def _transitive_acquires(self) -> dict[tuple[str, str], set[str]]:
        acquires = {k: set(v) for k, v in self._direct_acquires.items()}
        keys = set(acquires) | set(self._calls)
        for key in keys:
            acquires.setdefault(key, set())
        changed = True
        while changed:
            changed = False
            for caller, callees in self._calls.items():
                bucket = acquires.setdefault(caller, set())
                before = len(bucket)
                for callee in callees:
                    bucket |= acquires.get(callee, set())
                if len(bucket) != before:
                    changed = True
        return acquires

    def _resolve_call_events(self) -> None:
        acquires = self._transitive_acquires()
        for held, callee, location in self._call_events:
            for lock in acquires.get(callee, ()):  # may re-enter own lock
                for h in held:
                    self.record_edge(h, lock, location)

    def _check_lock_order(self) -> None:
        graph: dict[str, set[str]] = {}
        locations: dict[tuple[str, str], str] = {}
        for edge in self.edges:
            if edge.held == edge.acquired:
                # Re-acquisition: deadlock only for non-reentrant locks.
                if self._lock_kinds.get(edge.held) == "Lock":
                    self.emit(
                        "CN005",
                        f"non-reentrant lock {edge.held} can be re-acquired "
                        "while already held (self-deadlock)",
                        edge.location,
                        hint="use an RLock or restructure via a "
                        "*_locked helper",
                    )
                continue
            graph.setdefault(edge.held, set()).add(edge.acquired)
            locations.setdefault((edge.held, edge.acquired), edge.location)
        for cycle in _find_cycles(graph):
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            where = "; ".join(
                f"{a} -> {b} at {locations.get((a, b), '?')}" for a, b in pairs
            )
            self.emit(
                "CN005",
                "lock-order cycle (potential deadlock): "
                + " -> ".join(cycle + [cycle[0]]),
                locations.get(pairs[0], ""),
                hint=f"acquisition sites: {where}; impose a global order "
                "or narrow one critical section",
            )


class _Scope:
    """Per-function naming environment for the light type inference."""

    def __init__(self) -> None:
        self.types: dict[str, str] = {}  # local/param name -> class name
        self.elem_types: dict[str, str] = {}  # container local -> elem class
        self.local_locks: set[str] = set()  # local names bound to Lock()


class _FunctionWalker(NodeEmitter):
    """Walks one function body tracking the lockset and emitting findings."""

    def __init__(
        self,
        analyzer: ConcurrencyAnalyzer,
        module: ModuleSource,
        owner: ClassModel | None,
        fn: FunctionNode,
        *,
        enclosing: "_FunctionWalker | None" = None,
    ) -> None:
        self.analyzer = analyzer
        self.module = module
        self.owner = owner
        self.fn = fn
        self.enclosing = enclosing
        self.scope = _Scope()
        self.lockset: set[str] = set()
        self.key: tuple[str, str] = (
            owner.name if owner is not None else f"<module {module.filename}>",
            fn.name,
        )
        self.filename = module.filename
        self.qualname = f"{owner.name}.{fn.name}" if owner is not None else fn.name
        self.findings = analyzer.findings  # one list: emission order is the report order
        #: nested function name -> (node, mutated enclosing names seen
        #: without a lock); lambdas use a synthetic name.
        self.nested: dict[str, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda] = {}
        self._exempt_self = False
        if owner is not None:
            if fn.name in _CONSTRUCTION_METHODS:
                self._exempt_self = True
            required = owner.requires_lock.get(fn.name)
            if required is not None:
                lock = required if required != "?" else owner.single_lock()
                if lock is not None and lock in owner.lock_attrs:
                    # The caller holds it; assume so for the body.
                    self.lockset.add(f"{owner.name}.{lock}")

    # -- entry ----------------------------------------------------------------

    def analyze(self) -> None:
        self._seed_scope()
        self._walk_stmts(self.fn.body)
        self._analyze_nested()

    def _seed_scope(self) -> None:
        if self.owner is not None:
            self.scope.types["self"] = self.owner.name
        for arg in params(self.fn):
            resolved = self.analyzer._first_match_later(
                _ann_identifiers(arg.annotation)
            )
            if self.analyzer._known_class(resolved) is not None:
                assert resolved is not None
                self.scope.types.setdefault(arg.arg, resolved)
        # Flow-insensitive pre-pass: local constructor calls and lock locals.
        for stmt in ast.walk(self.fn):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if _is_lock_ctor(stmt.value) is not None:
                    self.scope.local_locks.add(target.id)
                    continue
                inferred = self._infer(stmt.value)
                if inferred is not None:
                    self.scope.types.setdefault(target.id, inferred)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if isinstance(stmt.target, ast.Name):
                    elem = self._infer_elem(stmt.iter)
                    if elem is not None:
                        self.scope.types.setdefault(stmt.target.id, elem)

    # -- type inference --------------------------------------------------------

    def _infer(self, node: ast.AST) -> str | None:
        """Class name of ``node``'s value, when statically evident."""
        if isinstance(node, ast.Name):
            return self.scope.types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._infer(node.value)
            model = self.analyzer._known_class(base)
            if model is not None:
                return model.attr_types.get(node.attr)
            return None
        if isinstance(node, ast.Subscript):
            return self._infer_elem(node.value)
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name):
                if self.analyzer._known_class(callee.id) is not None:
                    return callee.id
                return None
            if isinstance(callee, ast.Attribute):
                base = self._infer(callee.value)
                model = self.analyzer._known_class(base)
                if model is not None:
                    return model.method_returns.get(callee.attr)
            return None
        if isinstance(node, ast.BoolOp):
            for value in reversed(node.values):
                inferred = self._infer(value)
                if inferred is not None:
                    return inferred
        return None

    def _infer_elem(self, node: ast.AST) -> str | None:
        """Element class of a container expression."""
        if isinstance(node, ast.Name):
            return self.scope.elem_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._infer(node.value)
            model = self.analyzer._known_class(base)
            if model is not None:
                return model.attr_elem_types.get(node.attr)
        return None

    def _lock_key(self, node: ast.AST) -> str | None:
        """Abstract lock named by a ``with`` item / acquire receiver."""
        if isinstance(node, ast.Name) and node.id in self.scope.local_locks:
            return f"{self.key[0]}.{self.key[1]}.<{node.id}>"
        if self.enclosing is not None and isinstance(node, ast.Name):
            enclosing_key = self.enclosing._lock_key(node)
            if enclosing_key is not None:
                return enclosing_key
        if isinstance(node, ast.Attribute):
            base = self._infer(node.value)
            model = self.analyzer._known_class(base)
            if model is not None and node.attr in model.lock_attrs:
                return f"{model.name}.{node.attr}"
        return None

    # -- statement walk --------------------------------------------------------

    def _walk_stmts(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in stmt.items:
                self._scan_expr(item.context_expr)
                key = self._lock_key(item.context_expr)
                if key is not None:
                    for held in self.lockset:
                        self.analyzer.record_edge(held, key, self.loc(stmt))
                    self.analyzer.record_direct_acquire(self.key, key)
                    acquired.append(key)
            added = [k for k in acquired if k not in self.lockset]
            self.lockset.update(added)
            self._walk_stmts(stmt.body)
            self.lockset.difference_update(added)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            pass  # nested classes: out of scope
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_escape(stmt.value, stmt)
                self._scan_expr(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            else:
                targets = [stmt.target]
            for target in targets:
                self._check_store(target, stmt)
            if stmt.value is not None:
                self._scan_expr(stmt.value)
            if isinstance(stmt, ast.AugAssign):
                # ``x.attr += v`` also reads the attribute; the store check
                # already covers the access, so nothing further.
                pass
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store(target, stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self._check_store(stmt.target, stmt)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._walk_stmts(stmt.body)
            for handler in stmt.handlers:
                self._walk_stmts(handler.body)
            self._walk_stmts(stmt.orelse)
            self._walk_stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._walk_stmt(child)
                elif isinstance(child, ast.expr):
                    self._scan_expr(child)

    # -- expression scanning ---------------------------------------------------

    def _scan_expr(self, expr: ast.expr) -> None:
        # A mutator call (``self.items.append(x)``) is reported once, as a
        # CN002 write; the receiver attribute load it contains must not also
        # surface as a CN001 read of the same defect.  ast.walk is BFS, so a
        # Call is always seen before its receiver chain.
        reported_as_write: set[ast.Attribute] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                self.nested[f"<lambda:{node.lineno}>"] = node
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                    attr = self._guarded_attr_of(func.value)
                    if attr is not None:
                        reported_as_write.add(attr)
                self._check_call(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node not in reported_as_write:
                    self._check_access(node, write=False)

    def _check_store(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt, stmt)
            return
        attr = self._guarded_attr_of(target)
        if attr is not None:
            self._check_access(attr, write=True)
        # Subscript values / slices may themselves read guarded state.
        if isinstance(target, ast.Subscript):
            self._scan_expr(target.slice)

    def _guarded_attr_of(self, node: ast.expr) -> ast.Attribute | None:
        """The attribute being written through ``node`` (strips subscripts)."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node
        return None

    def _check_access(self, node: ast.Attribute, *, write: bool) -> None:
        base = self._infer(node.value)
        model = self.analyzer._known_class(base)
        if model is None:
            return
        # Property access on a typed receiver behaves like a method call for
        # lock-order purposes (the getter may acquire the object's lock).
        if not write and node.attr in model.properties:
            self.analyzer.record_call(
                self.key,
                (model.name, node.attr),
                frozenset(self.lockset),
                self.loc(node),
            )
        guard = model.guarded.get(node.attr)
        if guard is None:
            return
        is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if is_self and self._exempt_self and model is self.owner:
            return
        required = f"{model.name}.{guard}"
        if required in self.lockset:
            return
        rule = "CN002" if write else "CN001"
        action = "written" if write else "read"
        self.emit(
            rule,
            f"{model.name}.{node.attr} {action} without holding {required}",
            node,
            hint=f"wrap the access in `with {'self' if is_self else '<obj>'}."
            f"{guard}:` or route it through a locked accessor",
        )

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        # Mutator methods on guarded attributes are writes.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            attr = self._guarded_attr_of(func.value)
            if attr is not None:
                self._check_access(attr, write=True)
        # acquire()/release() outside ``with``: modelled block-locally.
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            key = self._lock_key(func.value)
            if key is not None:
                if func.attr == "acquire":
                    for held in self.lockset:
                        self.analyzer.record_edge(held, key, self.loc(node))
                    self.analyzer.record_direct_acquire(self.key, key)
                    self.lockset.add(key)
                else:
                    self.lockset.discard(key)
                return
        blocking = self._blocking_desc(node)
        if blocking is not None and self.lockset:
            self.emit(
                "CN006",
                f"holds {', '.join(sorted(self.lockset))} "
                f"across blocking call {blocking}",
                node,
                hint="copy what you need under the lock, release it, then "
                "block",
            )
        callee = self._resolve_callee(func)
        if callee is not None:
            callee_model, method = callee
            self.analyzer.record_call(
                self.key,
                (callee_model.name, method),
                frozenset(self.lockset),
                self.loc(node),
            )
            required = callee_model.requires_lock.get(method)
            if required is not None:
                lock = (
                    required
                    if required != "?"
                    else callee_model.single_lock()
                )
                if lock is not None:
                    required_key = f"{callee_model.name}.{lock}"
                    if required_key not in self.lockset:
                        self.emit(
                            "CN003",
                            f"calls lock-required helper "
                            f"{callee_model.name}.{method} without holding "
                            f"{required_key}",
                            node,
                            hint="acquire the lock first, or call the "
                            "public locked wrapper instead",
                        )

    def _resolve_callee(
        self, func: ast.expr
    ) -> tuple[ClassModel, str] | None:
        if not isinstance(func, ast.Attribute):
            return None
        base = self._infer(func.value)
        model = self.analyzer._known_class(base)
        if model is not None and func.attr in model.methods:
            return model, func.attr
        return None

    def _blocking_desc(self, node: ast.Call) -> str | None:
        func = node.func
        callee = dotted(func)
        if callee in ("time.sleep", "sleep"):
            return f"{callee}()"
        if not isinstance(func, ast.Attribute):
            return None
        name = func.attr
        if name in _BLOCKING_METHODS:
            return f".{name}()"
        receiver = func.value
        receiver_name = ""
        if isinstance(receiver, ast.Name):
            receiver_name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            receiver_name = receiver.attr
        lowered = receiver_name.lower()
        if name == "join" and any(
            tag in lowered for tag in ("thread", "runner", "worker", "proc")
        ):
            return f"{receiver_name}.join()"
        if name == "get" and "queue" in lowered:
            return f"{receiver_name}.get()"
        return None

    # -- escapes (CN004) -------------------------------------------------------

    def _check_escape(self, value: ast.expr, stmt: ast.stmt) -> None:
        if not isinstance(value, ast.Attribute):
            return
        base = self._infer(value.value)
        model = self.analyzer._known_class(base)
        if model is None:
            return
        guard = model.guarded.get(value.attr)
        if guard is None or value.attr in model.immutable_attrs:
            return
        if self.owner is model and self.fn.name in _CONSTRUCTION_METHODS:
            return
        self.emit(
            "CN004",
            f"returns guarded {model.name}.{value.attr} "
            "directly — the reference escapes "
            f"{model.name}.{guard}'s protection",
            stmt,
            hint="return a copy (dict(...)/list(...)) or an immutable "
            "snapshot instead",
        )

    # -- nested functions (CN008 + empty-lockset re-analysis) ------------------

    def _analyze_nested(self) -> None:
        escaping = self._escaping_names()
        for name, node in self.nested.items():
            escapes = name in escaping or isinstance(node, ast.Lambda)
            checker = _NestedChecker(self, node, escapes=escapes)
            checker.run()

    def _escaping_names(self) -> set[str]:
        """Nested-function names that leave the defining function: loaded
        anywhere except as the function position of a direct call."""
        out: set[str] = set()
        call_func_ids = {
            id(call.func)
            for call in ast.walk(self.fn)
            if isinstance(call, ast.Call)
        }
        for node in ast.walk(self.fn):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in self.nested
                and id(node) not in call_func_ids
            ):
                out.add(node.id)
        return out


def _names_stored_under(fn: FunctionNode | ast.Lambda) -> set[str]:
    """``fn``'s parameters plus every name stored anywhere beneath it.
    Nested bodies are included on purpose: CN008 walks a callback's whole
    subtree, so the name sets it compares against must cover it too."""
    return set(param_names(fn)) | {
        sub.id
        for sub in ast.walk(fn)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del))
    }


class _NestedChecker(NodeEmitter):
    """Analyzes a nested function defined inside a method.

    The nested body may run on *another thread* (executor thunk, Thread
    target, callback), so the enclosing lockset does NOT apply: guarded
    attributes are re-checked with an empty lockset, and mutations of
    enclosing-scope state without a lock are CN008 when the function
    escapes.
    """

    def __init__(
        self,
        parent: _FunctionWalker,
        node: FunctionNode | ast.Lambda,
        *,
        escapes: bool,
    ) -> None:
        self.parent = parent
        self.node = node
        self.escapes = escapes
        self.filename = parent.filename
        self.qualname = f"{parent.qualname}.{getattr(node, 'name', '<lambda>')}"
        self.findings = parent.findings

    def run(self) -> None:
        if isinstance(self.node, ast.Lambda):
            if self.escapes:
                self._check_closure_mutations(set())
            return
        walker = _FunctionWalker(
            self.parent.analyzer,
            self.parent.module,
            self.parent.owner,
            self.node,
            enclosing=self.parent,
        )
        # Runs on an arbitrary thread: never inherits the enclosing lockset,
        # and construction-phase exemptions don't apply.
        walker.lockset = set()
        walker._exempt_self = False
        # Share the enclosing type environment for receiver inference.
        walker.scope.types.update(self.parent.scope.types)
        walker._seed_scope()
        if self.escapes:
            self._check_closure_mutations(self._lines_under_local_lock(walker))
        walker._walk_stmts(self.node.body)
        walker._analyze_nested()

    # -- CN008 -----------------------------------------------------------------

    def _check_closure_mutations(self, lock_guarded_lines: set[int]) -> None:
        """Unlocked in-place mutation of a name captured from up the
        enclosing-function chain — a callback may capture state from a
        grandparent scope (executor thunk factories are the common
        double-nesting).  Only the captured container itself counts
        (``out[k] = v``, ``out.append(v)``): ``out[k].append(v)`` mutates a
        per-key element, and a mutation through an attribute goes through an
        object whose own lock discipline CN001/CN002 check."""
        own = _names_stored_under(self.node)
        enclosing: set[str] = set()
        walker: _FunctionWalker | None = self.parent
        while walker is not None:
            enclosing |= _names_stored_under(walker.fn)
            walker = walker.enclosing
        if isinstance(self.node, ast.Lambda):
            what, tail = "lambda", ""
        else:
            what, tail = "callback", " (it may run on another thread)"
        for sub in ast.walk(self.node):
            for mutated, target, _what in mutation_sites(sub, _MUTATORS):
                while not isinstance(sub, ast.Call) and isinstance(
                    target, ast.Subscript
                ):
                    target = target.value
                if (
                    isinstance(target, ast.Name)
                    and mutated not in own
                    and mutated in enclosing
                    and getattr(sub, "lineno", 0) not in lock_guarded_lines
                ):
                    self.emit(
                        "CN008",
                        f"escaping {what} mutates enclosing state "
                        f"{mutated!r} without a lock{tail}",
                        sub,
                        hint="guard the shared structure with a lock, or have "
                        "the callback return the value instead",
                    )

    def _lines_under_local_lock(self, walker: _FunctionWalker) -> set[int]:
        """Line numbers inside ``with <lock>`` blocks of the nested body,
        where the lock resolves via the enclosing scope's lock locals or a
        class lock — those mutations are properly guarded."""
        lines: set[int] = set()
        for sub in ast.walk(self.node):
            if isinstance(sub, (ast.With, ast.AsyncWith)):
                if any(
                    walker._lock_key(item.context_expr) is not None
                    for item in sub.items
                ):
                    for inner in ast.walk(sub):
                        lineno = getattr(inner, "lineno", None)
                        if lineno is not None:
                            lines.add(lineno)
        return lines


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Elementary cycles via DFS over strongly-connected subgraphs; each
    cycle is reported once, rotated to start at its smallest node."""
    cycles: set[tuple[str, ...]] = set()
    nodes = sorted(set(graph) | {n for vs in graph.values() for n in vs})

    def dfs(start: str, current: str, path: list[str], visited: set[str]) -> None:
        for succ in sorted(graph.get(current, ())):
            if succ == start and len(path) > 1:
                smallest = min(range(len(path)), key=lambda i: path[i])
                cycles.add(tuple(path[smallest:] + path[:smallest]))
            elif succ not in visited and succ >= start:
                visited.add(succ)
                dfs(start, succ, path + [succ], visited)
                visited.discard(succ)

    for node in nodes:
        dfs(node, node, [node], {node})
    return [list(c) for c in sorted(cycles)]


# -- public API -------------------------------------------------------------------


#: The engine's threaded modules, relative to the ``repro`` package — the
#: default analysis set for ``python -m repro lint --concurrency`` and the
#: population whose lock discipline ``make lint`` gates on.
THREADED_MODULES: tuple[str, ...] = (
    "mapreduce/master.py",
    "mapreduce/backends.py",
    "mapreduce/counters.py",
    "mapreduce/faults.py",
    "mapreduce/pipeline.py",
    "mapreduce/scheduler.py",
    "dfs/blocks.py",
    "dfs/cache.py",
    "dfs/filesystem.py",
    "dfs/iostats.py",
    "dfs/namenode.py",
    "dfs/health.py",
    "telemetry/spans.py",
    "telemetry/metrics.py",
    "telemetry/exporters.py",
)


def default_threaded_files() -> list[pathlib.Path]:
    """Absolute paths of :data:`THREADED_MODULES` in this installation."""
    root = pathlib.Path(__file__).resolve().parent.parent
    return [root / rel for rel in THREADED_MODULES]


def missing_threaded_modules() -> list[str]:
    """Entries of :data:`THREADED_MODULES` that no longer exist on disk.

    A rename would otherwise silently drop the module from the CN sweep —
    the lint would keep passing while checking less.
    ``scripts/lint_summary.py`` (``make lint``) reports each entry as an
    error under the CN row.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    return [rel for rel in THREADED_MODULES if not (root / rel).is_file()]


def analyze_concurrency_sources(
    sources: Iterable[tuple[str, str]],
) -> list[Finding]:
    """Concurrency findings for ``(text, filename)`` modules analyzed as one
    package (shared class table and lock-order graph)."""
    return ConcurrencyAnalyzer.analyze_sources(sources)


def analyze_concurrency_files(
    paths: Iterable[str | pathlib.Path],
) -> list[Finding]:
    """Concurrency findings for a set of module files."""
    return ConcurrencyAnalyzer.analyze_files(paths)


__all__ = [
    "THREADED_MODULES",
    "ClassModel",
    "ConcurrencyAnalyzer",
    "LockOrderEdge",
    "analyze_concurrency_files",
    "analyze_concurrency_sources",
    "default_threaded_files",
    "missing_threaded_modules",
]
