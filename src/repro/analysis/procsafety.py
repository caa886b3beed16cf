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
  ``map``/``reduce`` method) — their task methods and
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
``PS004``  in-place mutation of a borrowed (zero-copy) DFS read view
           (aug-assign, slice assignment, ``out=``, mutating methods) —
           tracked interprocedurally through same-module helpers, like the
           concurrency analyzer's ``_locked`` convention;
``PS005``  borrowed view escaping the task scope (returned, stored on
           ``self``, appended to a captured container);
``PS006``  fork-unsafe global RNG use in task code (``random.random``,
           ``np.random.*``) — forked workers inherit identical state;
``PS007``  lock/condition/semaphore primitive crossing a task boundary;
``PS008``  ``multiprocessing.shared_memory`` segment closed or unlinked
           while a ``frombuffer`` view over its buffer is still used
           (checked in *every* function, not just task code — this is the
           lifetime discipline ``ProcessPoolBackend`` itself obeys).

PS001/PS002/PS007 captures in task bodies and PS003–PS006 come from the
task-body walker this analyzer shares with the purity checker
(:class:`~repro.analysis.source.TaskWalker`: one walk per task site, one
ownership decision per mutated root); this module adds the ``__init__``
and hook-object captures, PS008, and keeps the walker's ``PS`` findings.

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
from typing import Iterable

from .findings import Finding
from .source import (
    ModuleSource,
    NodeEmitter,
    SourceAnalyzer,
    TaskSite,
    classify_value,
    discover_task_sites,
    dotted,
    scope_bindings,
    unique,
    walk_task_sites,
)

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
            classified = classify_value(expr)
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
                classified = classify_value(expr)
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

    def analyze_module(self, module: ModuleSource) -> None:
        sites = discover_task_sites(module)
        # What ships *with* task objects first, then what runs inside tasks.
        for site in sites:
            if "init" in site.kinds:
                self._check_init_captures(module, site)
            elif "hook-object" in site.kinds:
                self._check_hook_captures(module, site)
        self.findings.extend(walk_task_sites(module, sites, ("PS",)))
        # PS008 runs over every function — the lifetime discipline binds
        # backend/engine code, not just task bodies.
        assert module.tree is not None
        for node in ast.walk(module.tree):
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
