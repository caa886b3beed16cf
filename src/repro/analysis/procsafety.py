"""Process-safety & ownership analyzer: proving task code can cross a
process boundary.

The engine runs tasks on :class:`SerialExecutor`,
:class:`ThreadPoolBackend`, or :class:`ProcessPoolBackend` (see
``mapreduce/backends.py``).  The process pool (with
``multiprocessing.shared_memory`` block transport) requires every mapper,
reducer, combiner, factory, ``before_job`` hook, and executor thunk to be
safe to *pickle and ship*: no captured locks or threads, no smuggled DFS
handles, no mutation of state that would silently fork into per-process
copies, and no writes to the borrowed read-only views the zero-copy DFS
read path hands out.  This module proves those properties statically, over
the AST, without importing the analyzed code.

Task-boundary code is discovered structurally:

* classes that look like mappers/reducers (``Mapper``/``Reducer`` bases or a
  ``map``/``map_record``/``reduce`` method) — their task methods and
  ``__init__`` captures;
* functions/lambdas passed to ``FnMapper``/``FnReducer``;
* ``mapper_factory``/``reducer_factory``/``combiner_factory`` keywords of
  ``JobConf(...)`` calls (the factory closure itself crosses the boundary);
* hooks registered via ``<runtime>.before_job.append(...)`` (including the
  constructor captures of callable hook objects);
* any function or lambda whose ``def`` line carries a ``# task-boundary``
  comment — the explicit annotation for engine internals such as executor
  thunks, mirroring the concurrency analyzer's annotation conventions.

Rules:

``PS001``  unpicklable object captured in a task closure (threads, open
           files, subprocess handles, generators);
``PS002``  DFS/NameNode/JobTracker/runtime handle captured by value instead
           of received through the sanctioned ``TaskContext`` channel;
``PS003``  module-global state mutated from task code (each process would
           mutate its own copy; accounting silently diverges);
``PS004``  in-place mutation of a borrowed DFS read view obtained without
           ``writable=True`` (aug-assign, slice assignment, ``out=``,
           mutating methods) — tracked interprocedurally through same-module
           helpers, like the concurrency analyzer's ``_locked`` convention;
``PS005``  borrowed view escaping the task scope (returned, stored on
           ``self``, appended to a captured container);
``PS006``  fork-unsafe global RNG use in task code (``random.random``,
           ``np.random.*``) — forked workers inherit identical state;
``PS007``  lock/condition/semaphore primitive crossing a task boundary;
``PS008``  ``multiprocessing.shared_memory`` segment closed or unlinked
           while a ``frombuffer`` view over its buffer is still used
           (checked in *every* function, not just task code — this is the
           lifetime discipline ``ProcessPoolBackend`` itself obeys).

Suppressions reuse the shared mechanism: append ``# lint: ignore[PS004]``
(or a bare ``# lint: ignore``) to the offending line.

Known limitations: helper propagation (PS004) covers module-level functions
of the same module; view aliasing follows names, subscripts, and the common
numpy view attributes/methods but treats unknown method calls as copies;
PS008 reasons in source order within one function.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .findings import Finding
from .source import (
    API_PARAMS,
    CONTAINER_MUTATORS,
    ModuleSource,
    NodeEmitter,
    SourceAnalyzer,
    TaskSite,
    all_param_names,
    bound_names,
    discover_task_sites,
    dotted,
    import_bindings,
    mutation_sites,
    root_name,
    scope_bindings,
    unique,
)

#: Synchronization primitives (PS007).
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Event", "Barrier"}
)

#: Unpicklable captures (PS001): constructor leaf -> description.
_UNPICKLABLE_CTORS = {
    "Thread": "a thread",
    "Timer": "a timer thread",
    "open": "an open file handle",
    "Popen": "a subprocess handle",
    "socket": "a socket",
    "ThreadPoolExecutor": "a thread pool",
    "ProcessPoolExecutor": "a process pool",
}

#: Engine-handle constructors and attribute leaves (PS002).
_HANDLE_CTORS = frozenset(
    {"DFS", "NameNode", "JobTracker", "MapReduceRuntime", "BlockStore",
     "DataNode"}
)
_HANDLE_ATTRS = frozenset({"dfs", "namenode", "jobtracker"})

#: Calls producing borrowed (read-only, storage-backed) views unless
#: ``writable=True`` is passed.
_BORROW_CALLS = frozenset({"read_matrix", "read_rows", "decode_matrix"})
#: Calls returning ``(view, nbytes)`` pairs.
_BORROW_PAIR_CALLS = frozenset({"read_through"})

#: Wrappers that materialize a private copy — the sanctioned way to get a
#: mutable value out of a borrowed view.
_COPYING_CALLS = frozenset(
    {"array", "copy", "deepcopy", "ascontiguousarray", "asfortranarray",
     "vstack", "hstack", "stack", "concatenate", "list", "dict", "tuple",
     "sorted", "bytes", "float", "int"}
)
_COPY_METHODS = frozenset(
    {"copy", "astype", "tolist", "tobytes", "item", "sum", "mean", "min",
     "max", "dot", "trace", "conj", "round", "flatten"}
)
#: Methods/attributes that return another view over the same buffer.
_VIEW_METHODS = frozenset(
    {"reshape", "transpose", "view", "swapaxes", "squeeze", "ravel"}
)
_VIEW_ATTRS = frozenset({"T", "real", "imag", "flat"})

#: In-place mutators: borrowed views are numpy arrays, module globals are
#: containers.
_MUTATORS = CONTAINER_MUTATORS | {
    "fill", "sort", "resize", "itemset", "put", "partition", "setfield",
    "byteswap", "setflags",
}
_ESCAPE_APPENDERS = frozenset({"append", "extend", "add", "insert"})

#: ``random``/``np.random`` leaves that construct *private* generators —
#: these are fork-safe (each task seeds its own) and not PS006.
_PRIVATE_RNG_LEAVES = frozenset(
    {"Random", "SystemRandom", "RandomState", "default_rng", "Generator",
     "SeedSequence", "PCG64", "Philox", "MT19937", "BitGenerator"}
)


def _writable_true(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "writable":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _classify_value(expr: ast.AST | None) -> tuple[str, str] | None:
    """``(rule, description)`` when a value expression names something that
    must not cross a task boundary."""
    if expr is None:
        return None
    if isinstance(expr, ast.GeneratorExp):
        return "PS001", "a generator expression"
    if isinstance(expr, ast.Call):
        name = dotted(expr.func)
        if name is None:
            return None
        leaf = name.split(".")[-1]
        if leaf in _LOCK_CTORS:
            return "PS007", f"a {leaf} primitive"
        if leaf in _UNPICKLABLE_CTORS:
            return "PS001", _UNPICKLABLE_CTORS[leaf]
        if leaf in _HANDLE_CTORS:
            return "PS002", f"a {leaf} handle"
        return None
    if isinstance(expr, ast.Attribute):
        name = dotted(expr)
        if name is not None and name.split(".")[-1] in _HANDLE_ATTRS:
            return "PS002", f"the engine handle {name!r}"
    return None


# -- helper (interprocedural) summaries -------------------------------------------


@dataclass
class _HelperInfo:
    """Borrow/mutation summary of one module-level function."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str]
    returns_borrowed: bool = False
    mutated_params: set[int] = field(default_factory=set)


class _BorrowTracker:
    """Which local names hold borrowed views, and where each came from —
    the flow state the helper scan and the task walker both keep.
    ``helpers`` lets a helper's "returns a borrowed view" summary count."""

    helpers: dict[str, _HelperInfo]
    borrowed: dict[str, str]  # name -> producer description

    def _borrow_desc(self, expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Name):
            return self.borrowed.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return self._borrow_desc(expr.value)
        if isinstance(expr, ast.Attribute):
            if expr.attr in _VIEW_ATTRS:
                return self._borrow_desc(expr.value)
            return None
        if isinstance(expr, ast.Call):
            return self._call_borrow_desc(expr)
        return None

    def _call_borrow_desc(self, call: ast.Call) -> str | None:
        name = dotted(call.func) or ""
        leaf = name.split(".")[-1]
        if leaf in _BORROW_CALLS and not _writable_true(call):
            return f"{name}(...)"
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in self.helpers
            and self.helpers[call.func.id].returns_borrowed
        ):
            return f"{call.func.id}(...) (helper returning a borrowed view)"
        if isinstance(call.func, ast.Attribute) and leaf in _VIEW_METHODS:
            return self._borrow_desc(call.func.value)
        return None

    def _bind_targets(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        desc = self._borrow_desc(value)
        pair = (
            isinstance(value, ast.Call)
            and (dotted(value.func) or "").split(".")[-1] in _BORROW_PAIR_CALLS
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if desc is not None:
                    self.borrowed[target.id] = desc
                else:
                    self.borrowed.pop(target.id, None)
            elif isinstance(target, ast.Tuple) and pair and target.elts:
                first = target.elts[0]
                if isinstance(first, ast.Name):
                    name = dotted(value.func) or "read_through"
                    self.borrowed[first.id] = f"{name}(...)"


class _HelperScan(ast.NodeVisitor, _BorrowTracker):
    """One pass over a helper body: which params it mutates in place and
    whether it returns a borrowed view.  ``helpers`` lets summaries
    propagate (run to a fixed point by the analyzer)."""

    def __init__(self, info: _HelperInfo, helpers: dict[str, _HelperInfo]) -> None:
        self.info = info
        self.helpers = helpers
        self.borrowed = {}
        self.param_index = {p: i for i, p in enumerate(info.params)}
        self.changed = False

    # -- mutation recording ---------------------------------------------------------

    def _record_param_mutation(self, root: str | None) -> None:
        if root is not None and root in self.param_index:
            idx = self.param_index[root]
            if idx not in self.info.mutated_params:
                self.info.mutated_params.add(idx)
                self.changed = True

    def _record_mutations(self, node: ast.AST) -> None:
        for root, _target, _what in mutation_sites(node, _MUTATORS):
            self._record_param_mutation(root)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_mutations(node)
        self._bind_targets(node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutations(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_mutations(node)
        # Param handed to another mutating helper.
        if isinstance(node.func, ast.Name) and node.func.id in self.helpers:
            callee = self.helpers[node.func.id]
            for i, arg in enumerate(node.args):
                if i in callee.mutated_params:
                    self._record_param_mutation(root_name(arg))
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._borrow_desc(node.value) is not None:
            if not self.info.returns_borrowed:
                self.info.returns_borrowed = True
                self.changed = True
        self.generic_visit(node)


# -- the task-body walker ---------------------------------------------------------


class _TaskWalker(ast.NodeVisitor, NodeEmitter, _BorrowTracker):
    """Walk one task-boundary function body, emitting PS findings."""

    def __init__(
        self,
        *,
        qualname: str,
        filename: str,
        bindings: dict[str, ast.AST],
        module_globals: set[str],
        module_imports: set[str],
        helpers: dict[str, _HelperInfo],
        params: list[str],
        local_names: set[str],
        self_name: str | None,
    ) -> None:
        self.qualname = qualname
        self.filename = filename
        self.bindings = bindings
        self.module_globals = module_globals
        self.module_imports = module_imports
        self.helpers = helpers
        self.local_names = local_names | set(params)
        self.self_name = self_name
        self.declared_global: set[str] = set()
        self.borrowed = {}
        self.reported_captures: set[str] = set()
        self.findings: list[Finding] = []

    # -- mutation / escape dispatch --------------------------------------------------

    def _check_mutation(self, root: str, node: ast.AST, what: str) -> None:
        """Report an in-place mutation when its root name is a borrowed view
        or a module global."""
        if root in self.borrowed:
            self.emit(
                "PS004",
                f"{what} mutates borrowed view {root!r} "
                f"(from {self.borrowed[root]})",
                node,
                hint="read with writable=True (private copy) or copy "
                "explicitly before mutating; the zero-copy read path "
                "shares one buffer across tasks",
            )
            return
        if (
            root not in self.local_names
            and root not in API_PARAMS
            and root != self.self_name
            and root in self.module_globals
        ) or root in self.declared_global:
            self.emit(
                "PS003",
                f"{what} mutates module-global {root!r}",
                node,
                hint="each worker process would mutate a private copy; "
                "emit through the context or write to a task-private "
                "DFS path instead",
            )

    def _check_capture(self, name: str, node: ast.AST) -> None:
        if (
            name in self.local_names
            or name in API_PARAMS
            or name == self.self_name
            or name in self.reported_captures
        ):
            return
        classified = _classify_value(self.bindings.get(name))
        if classified is None:
            return
        rule, desc = classified
        self.reported_captures.add(name)
        hints = {
            "PS001": "pass picklable data (paths, seeds, descriptors) and "
            "recreate the resource inside the task",
            "PS002": "tasks must reach storage through their TaskContext "
            "(ctx.read_*/ctx.write_*), which a process backend can rebind",
            "PS007": "synchronization cannot cross a process boundary; "
            "restructure so the lock stays driver-side",
        }
        self.emit(
            rule,
            f"captures {desc} as {name!r} across the task boundary",
            node,
            hint=hints[rule],
        )

    # -- visitors -------------------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_capture(node.id, node)

    def _check_mutations(self, node: ast.AST) -> None:
        for root, _target, what in mutation_sites(node, _MUTATORS):
            self._check_mutation(root, node, what)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for root, target, what in mutation_sites(node, _MUTATORS):
            self._check_mutation(root, node, what)
            if isinstance(target, ast.Attribute) and (
                root == self.self_name or root in ("self", "cls")
            ):
                desc = self._borrow_desc(node.value)
                if desc is not None:
                    self.emit(
                        "PS005",
                        f"stores borrowed view (from {desc}) on "
                        f"{root}.{target.attr}",
                        node,
                        hint="the view outlives the task attempt and "
                        "aliases the shared read buffer; copy first",
                    )
        self._bind_targets(node.targets, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._check_mutations(node)
            self._bind_targets([node.target], node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        self._check_mutations(node)
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self.visit(node.target.value)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            desc = self._borrow_desc(node.value)
            if desc is not None:
                self.emit(
                    "PS005",
                    f"returns borrowed view (from {desc})",
                    node,
                    hint="the caller receives an alias of the shared read "
                    "buffer; copy before returning",
                )
            self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func) or ""
        parts = name.split(".")
        leaf = parts[-1] if parts else ""

        # PS006: module-global RNG.
        if len(parts) >= 2 and leaf not in _PRIVATE_RNG_LEAVES:
            if parts[0] == "random" or "random" in parts[:-1]:
                self.emit(
                    "PS006",
                    f"calls {name}() — the process-wide global RNG",
                    node,
                    hint="forked workers inherit identical RNG state; use a "
                    "private default_rng(seed) derived from the split or "
                    "job params",
                )

        # PS004/PS003: mutating method on, or out= targeting, a borrowed
        # view or a module global.
        self._check_mutations(node)

        if isinstance(node.func, ast.Attribute):
            # PS005: borrowed view appended to a captured container.
            if leaf in _ESCAPE_APPENDERS:
                root = root_name(node.func.value)
                if (
                    root is not None
                    and root not in self.local_names
                    and root not in API_PARAMS
                    and root not in self.module_imports
                ):
                    for arg in node.args:
                        desc = self._borrow_desc(arg)
                        if desc is not None:
                            self.emit(
                                "PS005",
                                f"appends borrowed view (from {desc}) to "
                                f"captured container {root!r}",
                                node,
                                hint="the container outlives the task and "
                                "aliases the shared read buffer; copy first",
                            )

        # PS004: borrowed argument to a same-module mutating helper.
        if isinstance(node.func, ast.Name) and node.func.id in self.helpers:
            callee = self.helpers[node.func.id]
            for i, arg in enumerate(node.args):
                if i in callee.mutated_params:
                    desc = self._borrow_desc(arg)
                    if desc is not None:
                        self.emit(
                            "PS004",
                            f"passes borrowed view (from {desc}) to "
                            f"{node.func.id}(), which mutates parameter "
                            f"{callee.params[i]!r} in place",
                            node,
                            hint="read with writable=True or copy before "
                            "handing the array to an in-place helper",
                        )
        self.generic_visit(node)


# -- PS008: shared_memory lifetime --------------------------------------------------


class _ShmWalker(ast.NodeVisitor, NodeEmitter):
    """Source-order scan of one function for shared_memory lifetime bugs."""

    def __init__(self, qualname: str, filename: str) -> None:
        self.qualname = qualname
        self.filename = filename
        self.shm_vars: set[str] = set()
        self.views: dict[str, str] = {}  # view name -> shm name
        self.closed: dict[str, str] = {}  # shm name -> "close"/"unlink"
        self.reported: set[str] = set()
        self.findings: list[Finding] = []

    def _shm_of(self, expr: ast.AST) -> str | None:
        """Name of the SharedMemory object whose ``.buf`` appears in expr."""
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "buf"
                and isinstance(sub.value, ast.Name)
                and sub.value.id in self.shm_vars
            ):
                return sub.value.id
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        targets = [t for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(value, ast.Call):
            name = dotted(value.func) or ""
            leaf = name.split(".")[-1]
            if leaf == "SharedMemory":
                for t in targets:
                    self.shm_vars.add(t.id)
                    self.closed.pop(t.id, None)
                return
            if leaf in ("frombuffer", "ndarray", "asarray", "memoryview"):
                shm = self._shm_of(value)
                if shm is not None:
                    for t in targets:
                        self.views[t.id] = shm
                    return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("close", "unlink")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.shm_vars
        ):
            self.closed.setdefault(node.func.value.id, node.func.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            if isinstance(node.ctx, ast.Store) and node.id in self.views:
                del self.views[node.id]
            return
        shm = self.views.get(node.id)
        if shm is not None and shm in self.closed and node.id not in self.reported:
            self.reported.add(node.id)
            self.emit(
                "PS008",
                f"uses view {node.id!r} over shared_memory segment "
                f"{shm!r} after {shm}.{self.closed[shm]}()",
                node,
                hint="keep the segment open for the lifetime of every view "
                "over its buffer; copy the data out before close()/unlink()",
            )


# -- the analyzer -----------------------------------------------------------------


class ProcSafetyAnalyzer(SourceAnalyzer):
    """Process-safety analysis over one or more modules (no imports
    executed).  ``add_module``/``add_file`` then ``run``."""

    parse_error_rule = "PS001"

    # -- per-module machinery -------------------------------------------------------

    @staticmethod
    def _helper_summaries(tree: ast.Module) -> dict[str, _HelperInfo]:
        helpers = {
            stmt.name: _HelperInfo(stmt, all_param_names(stmt))
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # Fixed point over helper-calls-helper propagation.
        for _ in range(len(helpers) + 1):
            changed = False
            for info in helpers.values():
                scan = _HelperScan(info, helpers)
                for stmt in info.node.body:
                    scan.visit(stmt)
                changed = changed or scan.changed
            if not changed:
                break
        return helpers

    def _check_hook_captures(self, module: ModuleSource, site: TaskSite) -> None:
        """``x.before_job.append(Hook(arg, ...))``: the constructor
        arguments cross the boundary with the hook object."""
        call = site.node
        assert isinstance(call, ast.Call)
        ctor: ast.AST = call.args[0]
        if isinstance(ctor, ast.Name):
            ctor = site.bindings[ctor.id]
        assert isinstance(ctor, ast.Call)
        for sub in (*ctor.args, *(kw.value for kw in ctor.keywords)):
            expr = sub
            if isinstance(sub, ast.Name):
                expr = site.bindings.get(sub.id, sub)
            classified = _classify_value(expr)
            if classified is not None:
                rule, desc = classified
                self.emit(
                    rule,
                    f"before_job hook {site.qualname}(...) captures "
                    f"{desc} by value",
                    f"{module.filename}:{call.lineno}",
                    hint="hooks ride the job launch path; keep "
                    "engine handles out of their state or keep "
                    "the hook driver-side",
                )

    def _check_init_captures(self, module: ModuleSource, site: TaskSite) -> None:
        """``self.x = <lock/handle/...>`` in a task __init__: the instance
        ships to the worker with that object aboard."""
        init = site.node
        assert isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef))
        local = scope_bindings(init.body)
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                expr: ast.AST = stmt.value
                if isinstance(expr, ast.Name):
                    expr = local.get(expr.id) or site.bindings.get(expr.id, expr)
                classified = _classify_value(expr)
                if classified is not None:
                    rule, desc = classified
                    self.emit(
                        rule,
                        f"{site.qualname}.__init__ stores {desc} on "
                        f"self.{target.attr} — it ships with every task "
                        "instance",
                        f"{module.filename}:{stmt.lineno}",
                        hint="pass picklable descriptors and recreate "
                        "per-attempt state in setup()",
                    )

    def _analyze_task_fn(
        self,
        module: ModuleSource,
        task: TaskSite,
        helpers: dict[str, _HelperInfo],
        module_globals: set[str],
        module_imports: set[str],
    ) -> None:
        node = task.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        params = all_param_names(node)
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        walker = _TaskWalker(
            qualname=task.qualname,
            filename=module.filename,
            bindings=task.bindings,
            module_globals=module_globals,
            module_imports=module_imports,
            helpers=helpers,
            params=params,
            local_names=bound_names(body),
            self_name=task.self_name,
        )
        for stmt in body:
            walker.visit(stmt)
        self.findings.extend(walker.findings)

    # -- running --------------------------------------------------------------------

    def analyze_module(self, module: ModuleSource) -> None:
        tree = module.tree
        assert tree is not None
        helpers = self._helper_summaries(tree)
        module_globals = {
            name
            for name, expr in scope_bindings(tree.body).items()
            if not isinstance(
                expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        module_imports = {
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in import_bindings(node)
        }
        sites = discover_task_sites(module)
        # What ships *with* task objects first, then what runs inside tasks.
        for site in sites:
            if "init" in site.kinds:
                self._check_init_captures(module, site)
            elif "hook-object" in site.kinds:
                self._check_hook_captures(module, site)
        for site in sites:
            if not site.kinds & {"init", "hook-object"}:
                self._analyze_task_fn(
                    module, site, helpers, module_globals, module_imports
                )
        # PS008 runs over every function — the lifetime discipline binds
        # backend/engine code, not just task bodies.
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                shm = _ShmWalker(node.name, module.filename)
                for stmt in node.body:
                    shm.visit(stmt)
                self.findings.extend(shm.findings)

    def run(self) -> list[Finding]:
        """Unsuppressed findings, exact repeats dropped, ordered by
        ``(location, rule)``."""
        return sorted(unique(super().run()), key=lambda f: (f.location, f.rule))


# -- public API -------------------------------------------------------------------


def default_procsafety_files() -> list[pathlib.Path]:
    """Every module of the installed ``repro`` package — the engine sweep
    population for ``python -m repro lint --procsafety``.

    ``__pycache__`` is excluded: an installation can leave stale ``.py``
    artifacts there (editable installs, source-preserving bytecode caches),
    and sweeping them would lint code that no longer exists.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    return sorted(
        p for p in root.rglob("*.py") if "__pycache__" not in p.parts
    )


def analyze_procsafety_sources(
    sources: Iterable[tuple[str, str]],
) -> list[Finding]:
    """Process-safety findings for ``(text, filename)`` modules."""
    return ProcSafetyAnalyzer.analyze_sources(sources)


def analyze_procsafety_files(
    paths: Iterable[str | pathlib.Path],
) -> list[Finding]:
    """Process-safety findings for a set of module files."""
    return ProcSafetyAnalyzer.analyze_files(paths)


__all__ = [
    "ProcSafetyAnalyzer",
    "analyze_procsafety_files",
    "analyze_procsafety_sources",
    "default_procsafety_files",
]
