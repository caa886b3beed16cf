"""The source-walking core under the PU/CN/PS analyzers (internal).

:mod:`~repro.analysis.purity`, :mod:`~repro.analysis.concurrency` and
:mod:`~repro.analysis.procsafety` each ask a different question of the same
material — Python source parsed to an AST, never imported.  What they share
lives here, once:

* :class:`ModuleSource` — one parsed module: lines, tree or parse
  error, and the ``# lint: ignore[...]`` line suppression;
* name helpers — :func:`dotted`, :func:`root_name`, :func:`params`,
  :func:`bound_names`, :func:`scope_bindings`, :func:`class_is_task` and the
  task-method / API-parameter / mutator-method tables;
* :func:`mutation_sites` — the in-place mutations one AST node performs
  (attribute/subscript store, augmented assignment, mutator-method call,
  ``out=``).  Each rule family keeps only its ownership question: whose is
  the mutated name?
* :func:`discover_task_sites` — every piece of code that crosses the task
  boundary, with its capture environment;
* :class:`NodeEmitter` and :class:`SourceAnalyzer` — emit-at-a-node for the
  body walkers, and ``add_module`` / ``add_file`` / ``run`` with the
  parse-error and suppression handling for the whole-module analyzers.

Nothing here is exported from :mod:`repro.analysis`.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .findings import Finding

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_BOUNDARY_RE = re.compile(r"#\s*task-boundary\b")

#: Parameter names that are the sanctioned task API, not data inputs.
API_PARAMS = frozenset({"self", "cls", "ctx", "context"})

#: Methods the engine calls on a mapper/reducer, and the subset that runs
#: once per record (``setup``/``cleanup`` legitimately build per-task state).
TASK_METHODS = ("setup", "map", "map_record", "reduce", "cleanup")
RECORD_METHODS = ("map", "map_record", "reduce")

_FACTORY_KEYWORDS = ("mapper_factory", "reducer_factory", "combiner_factory")

#: Container methods that mutate the receiver in place.  Each rule family
#: extends this with the receivers it reasons about (ordered sequences for
#: lock-guarded state, numpy arrays for borrowed views).
CONTAINER_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear",
        "add", "discard", "update", "setdefault", "popitem",
    }
)
SEQUENCE_MUTATORS = CONTAINER_MUTATORS | {"sort", "reverse"}


def line_suppresses(line: str, rule: str) -> bool:
    """True when ``line`` carries ``# lint: ignore`` (bare, or naming
    ``rule``)."""
    match = _IGNORE_RE.search(line)
    if not match:
        return False
    rules = match.group(1)
    if rules is None:
        return True
    return rule in {r.strip().upper() for r in rules.split(",")}


def unique(findings: Iterable[Finding]) -> list[Finding]:
    """Drop exact ``(rule, message, location)`` repeats, keeping order."""
    seen: set[tuple[str, str, str]] = set()
    out: list[Finding] = []
    for f in findings:
        key = (f.rule, f.message, f.location)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


class ModuleSource:
    """One parsed input module (``tree`` is ``None`` when it does not
    parse; ``parse_error`` then says why)."""

    def __init__(self, text: str, filename: str) -> None:
        self.filename = filename
        self.lines = text.splitlines()
        self.tree: ast.Module | None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(text, filename=filename)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = exc

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppresses(self, finding: Finding) -> bool:
        """Honour ``# lint: ignore[...]`` on the finding's source line."""
        _, _, lineno = finding.location.rpartition(":")
        return lineno.isdigit() and line_suppresses(
            self.line(int(lineno)), finding.rule
        )

    def parse_failure(self, rule: str) -> Finding:
        """The finding reported, under ``rule``, for a module that does not
        parse."""
        exc = self.parse_error
        assert exc is not None
        return Finding.of(
            rule,
            f"{self.filename} does not parse: {exc.msg} (line {exc.lineno})",
            location=f"{self.filename}:{exc.lineno or 1}",
        )


# -- names -------------------------------------------------------------------------


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> str | None:
    """Leftmost Name of an attribute/subscript chain (``a`` in ``a.b[0].c``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def params(fn: FunctionNode | ast.Lambda) -> list[ast.arg]:
    """The named parameters of ``fn`` (positional-only, positional, then
    keyword-only; ``*args``/``**kwargs`` are not included)."""
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


def param_names(fn: FunctionNode | ast.Lambda) -> list[str]:
    return [p.arg for p in params(fn)]


def all_param_names(fn: FunctionNode | ast.Lambda) -> list[str]:
    """:func:`param_names` plus the ``*args``/``**kwargs`` names — every
    name the signature binds."""
    names = param_names(fn)
    if fn.args.vararg:
        names.append(fn.args.vararg.arg)
    if fn.args.kwarg:
        names.append(fn.args.kwarg.arg)
    return names


def import_bindings(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


class _AssignedNames(ast.NodeVisitor):
    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)

    def _bind_name(self, node: FunctionNode | ast.ClassDef) -> None:
        self.names.add(node.name)  # binds its name; its body is another scope

    visit_FunctionDef = visit_AsyncFunctionDef = _bind_name

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class _BoundNames(_AssignedNames):
    visit_ClassDef = _AssignedNames._bind_name

    def _bind_imports(self, node: ast.Import | ast.ImportFrom) -> None:
        self.names.update(import_bindings(node))

    visit_Import = visit_ImportFrom = _bind_imports


def _collect(collector: _AssignedNames, body: Iterable[ast.AST]) -> set[str]:
    for stmt in body:
        collector.visit(stmt)
    return collector.names


def assigned_names(body: Iterable[ast.AST]) -> set[str]:
    """Names a function body assigns or deletes, plus nested ``def`` names —
    the purity checker's notion of task-private state.  Imports and class
    names are left out on purpose: mutation through a locally imported
    module (``os.environ.update(...)``) is still shared state."""
    return _collect(_AssignedNames(), body)


def bound_names(body: Iterable[ast.AST]) -> set[str]:
    """Every name a scope binds locally: :func:`assigned_names` plus imports
    and class names — not what nested function/class bodies bind."""
    return _collect(_BoundNames(), body)


def scope_bindings(body: Iterable[ast.stmt]) -> dict[str, ast.AST]:
    """name -> value expression for simple bindings in one scope (used to
    classify what a captured name refers to).  Walks nested statements but
    not nested function/class bodies."""
    bindings: dict[str, ast.AST] = {}

    def scan(stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings[stmt.name] = stmt
                continue
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    bindings[stmt.target.id] = stmt.value
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        bindings[item.optional_vars.id] = item.context_expr
            for child_body in (
                getattr(stmt, "body", None),
                getattr(stmt, "orelse", None),
                getattr(stmt, "finalbody", None),
            ):
                if isinstance(child_body, list):
                    scan(child_body)
            for handler in getattr(stmt, "handlers", []) or []:
                scan(handler.body)

    scan(body)
    return bindings


def class_is_task(node: ast.ClassDef) -> bool:
    """A class that looks like a mapper/reducer: by base-class naming, or by
    defining a per-record task method."""
    base_names = {
        b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
        for b in node.bases
    }
    if any("Mapper" in b or "Reducer" in b for b in base_names):
        return True
    methods = {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return bool(methods & set(RECORD_METHODS))


# -- in-place mutation sites --------------------------------------------------------


def _store_targets(targets: Iterable[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _store_targets(target.elts)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            yield target


def mutation_sites(
    node: ast.AST, mutators: frozenset[str]
) -> Iterator[tuple[str, ast.expr, str]]:
    """The in-place mutations ``node`` itself performs, as ``(root name,
    mutated expression, description)``.

    Covers stores through an attribute or subscript (``x.a = …``,
    ``x[i] = …``, also inside tuple targets), augmented assignment (any
    target: ``x += …`` updates lists and arrays in place), calls of a
    ``mutators`` method (``x.items.append(…)``) and ``out=x`` arguments.
    Sites whose expression has no root name (``f().append(…)``) are
    skipped; nested nodes are the caller's walk.
    """
    sites: list[tuple[ast.expr, str]] = []
    if isinstance(node, ast.Assign):
        sites += [(t, "assignment") for t in _store_targets(node.targets)]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        sites += [(t, "assignment") for t in _store_targets([node.target])]
    elif isinstance(node, ast.AugAssign):
        sites.append((node.target, "augmented assignment"))
    elif isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in mutators:
            sites.append((node.func.value, f"call to .{node.func.attr}()"))
        sites += [
            (kw.value, "out= argument") for kw in node.keywords if kw.arg == "out"
        ]
    for target, what in sites:
        root = root_name(target)
        if root is not None:
            yield root, target, what


# -- task-boundary discovery --------------------------------------------------------


@dataclass
class TaskSite:
    """One piece of code that crosses the task boundary.

    ``kinds`` names the discovery routes that reached it: ``method`` (a task
    class's task method), ``fn`` (passed to ``FnMapper``/``FnReducer``),
    ``factory`` (a ``JobConf`` factory keyword), ``hook`` (registered on
    ``before_job``) and ``boundary`` (``# task-boundary`` on the ``def``
    line) carry the function or lambda that runs inside the task; ``init``
    carries a task class's ``__init__`` (what it stores ships with every
    instance) and ``hook-object`` the ``before_job.append(Hook(...))`` call
    (the constructor arguments ship with the hook).  ``bindings`` is the
    capture environment: what each name visible at the site was bound to.
    """

    node: ast.AST
    qualname: str
    bindings: dict[str, ast.AST]
    kinds: set[str]
    self_name: str | None = None


def discover_task_sites(module: ModuleSource) -> list[TaskSite]:
    """Every task-boundary site of a parsed module, in source order."""
    assert module.tree is not None
    sites: dict[ast.AST, TaskSite] = {}

    def boundary_annotated(node: ast.AST) -> bool:
        return bool(_BOUNDARY_RE.search(module.line(getattr(node, "lineno", 0))))

    def register(
        node: ast.AST,
        qualname: str,
        bindings: dict[str, ast.AST],
        kind: str,
        self_name: str | None = None,
    ) -> None:
        if node in sites:
            sites[node].kinds.add(kind)
        elif kind in ("init", "hook-object") or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            sites[node] = TaskSite(node, qualname, dict(bindings), {kind}, self_name)

    def register_method(
        cls: ast.ClassDef, fn: FunctionNode, bindings: dict[str, ast.AST], label: str
    ) -> None:
        names = all_param_names(fn)
        register(
            fn,
            f"{cls.name}.{fn.name}{label}",
            bindings,
            "hook" if label else "method",
            self_name=names[0] if names else None,
        )

    def task_class(cls: ast.ClassDef, bindings: dict[str, ast.AST]) -> None:
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in TASK_METHODS or stmt.name == "__call__":
                register_method(cls, stmt, bindings, "")
            elif stmt.name == "__init__":
                register(stmt, cls.name, bindings, "init")

    def hook_target(call: ast.Call, bindings: dict[str, ast.AST]) -> None:
        """``x.before_job.append(arg)`` — the hook rides the launch path."""
        if not call.args:
            return
        arg: ast.AST = call.args[0]
        if isinstance(arg, ast.Name):
            arg = bindings.get(arg.id, arg)
        if isinstance(arg, (ast.FunctionDef, ast.AsyncFunctionDef)):
            register(arg, f"{arg.name} (before_job hook)", bindings, "hook")
        elif isinstance(arg, ast.Lambda):
            register(arg, f"<lambda:{arg.lineno}> (before_job hook)", bindings, "hook")
        elif isinstance(arg, ast.Call):
            # Callable hook object: its constructor arguments cross the
            # boundary with it, and so does a same-module class's __call__.
            ctor = dotted(arg.func) or "hook"
            register(call, ctor, bindings, "hook-object")
            cls = bindings.get(ctor.split(".")[0])
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == "__call__"
                    ):
                        register_method(cls, stmt, bindings, " (before_job hook)")

    def call_site(node: ast.Call, bindings: dict[str, ast.AST], qual: str) -> None:
        leaf = (dotted(node.func) or "").split(".")[-1]
        if leaf in ("FnMapper", "FnReducer") and node.args:
            arg: ast.AST = node.args[0]
            if isinstance(arg, ast.Name):
                arg = bindings.get(arg.id, arg)
                label = getattr(arg, "name", None) or dotted(node.args[0]) or "task"
            else:
                label = f"<lambda:{getattr(arg, 'lineno', node.lineno)}>"
            register(arg, f"{qual}{label}", bindings, "fn")
        elif leaf == "JobConf":
            for kw in node.keywords:
                if kw.arg not in _FACTORY_KEYWORDS:
                    continue
                value: ast.AST = kw.value
                if isinstance(value, ast.Name):
                    value = bindings.get(value.id, value)
                label = (
                    getattr(value, "name", None)
                    or f"<lambda:{getattr(value, 'lineno', node.lineno)}>"
                )
                register(value, f"{qual}{label} ({kw.arg})", bindings, "factory")
        elif (
            leaf == "append"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "before_job"
        ):
            hook_target(node, bindings)

    def scan_region(
        stmts: Iterable[ast.stmt], outer: dict[str, ast.AST], qual: str
    ) -> None:
        merged = {**outer, **scope_bindings(stmts)}

        def scan_function(fn: FunctionNode, prefix: str) -> None:
            shadow = dict(merged)
            for p in all_param_names(fn):
                shadow.pop(p, None)
            scan_region(fn.body, shadow, prefix)

        def walk(node: ast.AST) -> None:
            if isinstance(node, ast.ClassDef):
                if class_is_task(node):
                    task_class(node, merged)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        scan_function(stmt, f"{qual}{node.name}.{stmt.name}.")
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if boundary_annotated(node):
                    register(node, f"{qual}{node.name}", merged, "boundary")
                scan_function(node, f"{qual}{node.name}.")
                return
            if isinstance(node, ast.Lambda):
                if boundary_annotated(node):
                    register(
                        node, f"{qual}<lambda:{node.lineno}>", merged, "boundary"
                    )
                # Lambdas registered through other routes are handled
                # there; still scan the body expression for patterns.
                walk(node.body)
                return
            if isinstance(node, ast.Call):
                call_site(node, merged, qual)
            for child in ast.iter_child_nodes(node):
                walk(child)

        for stmt in stmts:
            walk(stmt)

    scan_region(module.tree.body, {}, "")
    return list(sites.values())


# -- emitting and running -----------------------------------------------------------


class NodeEmitter:
    """Mixin for body walkers: report a finding against an AST node, the
    message prefixed with the walked function's qualified name."""

    filename: str
    qualname: str
    findings: list[Finding]
    #: Added to node line numbers (live functions are parsed out of context).
    line_offset = 0

    def loc(self, node: ast.AST) -> str:
        return f"{self.filename}:{getattr(node, 'lineno', 1) + self.line_offset}"

    def emit(self, rule: str, message: str, node: ast.AST, hint: str = "") -> None:
        self.findings.append(
            Finding.of(
                rule,
                f"{self.qualname}: {message}",
                location=self.loc(node),
                hint=hint,
            )
        )


class SourceAnalyzer:
    """Base of the whole-module analyzers: feed modules with
    :meth:`add_module` / :meth:`add_file`, then :meth:`run`.

    A module that does not parse is reported under the subclass's
    ``parse_error_rule``; findings on a line carrying a matching
    ``# lint: ignore[...]`` are dropped.  Findings keep emission order —
    a subclass that wants another order post-processes :meth:`run`.
    """

    parse_error_rule: str

    def __init__(self) -> None:
        self.modules: list[ModuleSource] = []
        self.findings: list[Finding] = []

    def add_module(self, text: str, filename: str = "<string>") -> None:
        self.modules.append(ModuleSource(text, filename))

    def add_file(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        self.add_module(path.read_text(encoding="utf-8"), str(path))

    def emit(self, rule: str, message: str, location: str, hint: str = "") -> None:
        self.findings.append(Finding.of(rule, message, location=location, hint=hint))

    def analyze_module(self, module: ModuleSource) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Whole-package rules, after the last module."""

    def run(self) -> list[Finding]:
        """Analyze every collected module; returns the unsuppressed findings."""
        for module in self.modules:
            if module.tree is None:
                self.findings.append(module.parse_failure(self.parse_error_rule))
            else:
                self.analyze_module(module)
        self.finish()
        by_file = {m.filename: m for m in self.modules}
        out: list[Finding] = []
        for finding in self.findings:
            module = by_file.get(finding.location.rpartition(":")[0])
            if module is None or not module.suppresses(finding):
                out.append(finding)
        return out

    @classmethod
    def analyze_sources(cls, sources: Iterable[tuple[str, str]]) -> list[Finding]:
        """Findings for ``(text, filename)`` modules analyzed together."""
        analyzer = cls()
        for text, filename in sources:
            analyzer.add_module(text, filename)
        return analyzer.run()

    @classmethod
    def analyze_files(cls, paths: Iterable[str | pathlib.Path]) -> list[Finding]:
        """Findings for a set of module files analyzed together."""
        analyzer = cls()
        for path in paths:
            analyzer.add_file(path)
        return analyzer.run()
