"""The source-walking core under the PU/CN/PS analyzers (internal).

:mod:`~repro.analysis.purity`, :mod:`~repro.analysis.concurrency` and
:mod:`~repro.analysis.procsafety` each ask a different question of the same
material — Python source parsed to an AST, never imported.  What they share
lives here, once:

* :class:`ModuleSource` — one parsed module: lines, tree or parse
  error, and the ``# lint: ignore[...]`` line suppression;
* name helpers — :func:`dotted`, :func:`root_name`, :func:`params`,
  :func:`scope_names`, :func:`scope_bindings`, :func:`class_is_task` and the
  task-method / API-parameter / mutator-method tables;
* :func:`mutation_sites` — the in-place mutations one AST node performs
  (attribute/subscript store, augmented assignment, mutator-method call,
  ``out=``);
* :func:`discover_task_sites` — every piece of code that crosses the task
  boundary, with its capture environment;
* :class:`TaskWalker` — the one walk of a task body.  It decides once who
  owns each mutated root (:meth:`TaskWalker.owner`) and emits both the
  purity (``PU``) and the process-safety (``PS``) body findings;
  :func:`walk_task_sites` runs it once per site of a module.  The
  concurrency analyzer keeps its own walker: it carries a lockset through
  ``with`` scopes, a question neither PU nor PS asks;
* :class:`NodeEmitter` and :class:`SourceAnalyzer` — emit-at-a-node for the
  body walkers, and ``add_module`` / ``add_file`` / ``run`` with the
  parse-error and suppression handling for the whole-module analyzers.

Nothing here is exported from :mod:`repro.analysis`.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

from .findings import Finding

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_BOUNDARY_RE = re.compile(r"#\s*task-boundary\b")

#: Parameter names that are the sanctioned task API, not data inputs.
API_PARAMS = frozenset({"self", "cls", "ctx", "context"})

#: Methods the engine calls on a mapper/reducer, and the subset that runs
#: once per record (``setup``/``cleanup`` legitimately build per-task state).
TASK_METHODS = ("setup", "map", "reduce", "cleanup")
RECORD_METHODS = ("map", "reduce")

_FACTORY_KEYWORDS = ("mapper_factory", "reducer_factory", "combiner_factory")

#: Container methods that mutate the receiver in place.  The lockset
#: analyzer adds the ordered-sequence ones; :data:`MUTATORS` (the task-body
#: walker's) adds the numpy in-place methods too.
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


class _ScopeNames(ast.NodeVisitor):
    """One pass over a scope's statements: what it assigns and what else it
    binds (imports, classes).  Nested function, lambda and class bodies are
    other scopes."""

    def __init__(self) -> None:
        self.assigned: set[str] = set()
        self.other: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.assigned.add(node.id)

    def _bind_def(self, node: FunctionNode) -> None:
        self.assigned.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.other.add(node.name)

    def _bind_imports(self, node: ast.Import | ast.ImportFrom) -> None:
        self.other.update(import_bindings(node))

    visit_FunctionDef = visit_AsyncFunctionDef = _bind_def
    visit_Import = visit_ImportFrom = _bind_imports

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def scope_names(body: Iterable[ast.AST]) -> tuple[set[str], set[str]]:
    """``(assigned, bound)`` for one scope.  ``assigned``: the names it
    stores or deletes, plus nested ``def`` names — the roots
    :meth:`TaskWalker.owner` calls local.  Imports and class names are left
    out on purpose: mutation through a locally imported module
    (``os.environ.update(...)``) is still shared state.  ``bound``: every
    name the scope binds, those too."""
    names = _ScopeNames()
    for stmt in body:
        names.visit(stmt)
    return names.assigned, names.assigned | names.other


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


# -- the task-body walker (PU and PS) -----------------------------------------------

#: Method names whose call mutates the receiver in place: containers of
#: records or shared state, and numpy blocks (task inputs, borrowed views).
MUTATORS = SEQUENCE_MUTATORS | {
    "fill", "itemset", "resize", "put", "setfield", "byteswap", "setflags",
}

#: Exact dotted calls that are nondeterministic (PU002).
_NONDET_EXACT = frozenset(
    {
        "os.urandom", "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "uuid.uuid1", "uuid.uuid4",
    }
)

#: Bare names (``from x import y`` style) that are nondeterministic.
_NONDET_BARE = frozenset(
    {
        "urandom", "uuid1", "uuid4", "getrandbits", "randbytes",
        "token_bytes", "token_hex", "perf_counter", "monotonic",
    }
)

#: ``random``/``np.random`` leaves that construct *private* generators —
#: fork-safe (each task seeds its own), so not PS006.
_PRIVATE_RNG_LEAVES = frozenset(
    {"Random", "SystemRandom", "RandomState", "default_rng", "Generator",
     "SeedSequence", "PCG64", "Philox", "MT19937", "BitGenerator"}
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
#: ``writable=True`` is passed, and those returning ``(view, nbytes)``.
_BORROW_CALLS = frozenset({"read_matrix", "read_rows", "decode_matrix"})
_BORROW_PAIR_CALLS = frozenset({"read_through"})

#: Methods/attributes that return another view over the same buffer.
_VIEW_METHODS = frozenset(
    {"reshape", "transpose", "view", "swapaxes", "squeeze", "ravel"}
)
_VIEW_ATTRS = frozenset({"T", "real", "imag", "flat"})
_ESCAPE_APPENDERS = frozenset({"append", "extend", "add", "insert"})

_CAPTURE_HINTS = {
    "PS001": "pass picklable data (paths, seeds, descriptors) and "
    "recreate the resource inside the task",
    "PS002": "tasks must reach storage through their TaskContext "
    "(ctx.read_*/ctx.write_*), which a process backend can rebind",
    "PS007": "synchronization cannot cross a process boundary; "
    "restructure so the lock stays driver-side",
}


def _nondet_call(call: ast.Call) -> str | None:
    """PU002: a description when ``call`` is nondeterministic."""
    name = dotted(call.func)
    if name is None:
        return None
    parts = name.split(".")
    leaf = parts[-1]
    if leaf == "default_rng" or leaf == "Generator":
        if not call.args and not call.keywords:
            return f"{name}() without a seed"
        return None
    if leaf == "seed":
        return None  # explicit seeding is the fix, not the defect
    if parts[0] in ("random", "secrets"):
        return f"{name}()"
    if "random" in parts[:-1]:  # np.random.*, numpy.random.*
        return f"{name}()"
    if name in _NONDET_EXACT:
        return f"{name}()"
    if len(parts) == 1 and leaf in _NONDET_BARE:
        return f"{leaf}()"
    if len(parts) == 1 and leaf == "time":
        return "time()"
    return None


def _wallclock_or_unseeded(call: ast.Call) -> str | None:
    """PU006 patterns :func:`_nondet_call` does not already cover:
    wall-clock formatting/reads and seedable generator classes constructed
    without arguments (``random.*`` and ``np.random.*`` dotted calls are
    PU002 territory; this catches the bare-import spellings)."""
    name = dotted(call.func)
    if name is None:
        return None
    parts = name.split(".")
    leaf = parts[-1]
    if (
        leaf in ("Random", "RandomState", "SystemRandom")
        and not call.args
        and not call.keywords
    ):
        return f"{name}() without a seed"
    if len(parts) >= 2:
        if leaf in ("now", "utcnow", "today") and parts[-2] in (
            "datetime",
            "date",
        ):
            return f"{name}()"
        if parts[0] == "time" and leaf in (
            "localtime", "gmtime", "ctime", "asctime", "strftime",
        ):
            return f"{name}()"
    return None


def _set_iteration(node: ast.AST) -> str | None:
    """PU007: describe ``node`` when it is a set-valued iterable."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        leaf = name.split(".")[-1] if name else ""
        if leaf in ("set", "frozenset"):
            return f"{leaf}(...)"
    return None


def classify_value(expr: ast.AST | None) -> tuple[str, str] | None:
    """``(rule, description)`` when a value expression names something that
    must not cross a task boundary (PS001/PS002/PS007)."""
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


def _private_copy(producer: str) -> str:
    """PS004's remedy for a view from ``producer`` (``"name(...)"``): a copy,
    or ``writable=True`` where the producing call takes it — only
    ``decode_matrix`` and ``formats.read_rows``, not the ``TaskContext``
    readers."""
    name = producer.split("(")[0]
    parts = name.split(".")
    remedy = "take a private copy (m.copy() or np.array(m))"
    if parts[-1] == "decode_matrix" or (
        parts[-1] == "read_rows" and parts[0] not in API_PARAMS
    ):
        remedy += f" or read with {name}(..., writable=True)"
    return remedy


def _writable_true(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "writable":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


@dataclass
class HelperInfo:
    """Borrow/mutation summary of one module-level function: PS004 follows
    borrowed views into same-module helpers that mutate a parameter."""

    node: FunctionNode
    params: list[str]
    returns_borrowed: bool = False
    mutated_params: set[int] = field(default_factory=set)


class BorrowTracker:
    """Which local names hold borrowed DFS read views, and where each came
    from — the flow state the helper scan and the task walker both keep.
    ``helpers`` lets a helper's "returns a borrowed view" summary count."""

    helpers: dict[str, HelperInfo]
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


class _HelperScan(ast.NodeVisitor, BorrowTracker):
    """One pass over a helper body: which params it mutates in place and
    whether it returns a borrowed view.  ``helpers`` lets summaries
    propagate (run to a fixed point by :func:`helper_summaries`)."""

    def __init__(self, info: HelperInfo, helpers: dict[str, HelperInfo]) -> None:
        self.info = info
        self.helpers = helpers
        self.borrowed = {}
        self.param_index = {p: i for i, p in enumerate(info.params)}
        self.changed = False

    def _record_param_mutation(self, root: str | None) -> None:
        if root is not None and root in self.param_index:
            idx = self.param_index[root]
            if idx not in self.info.mutated_params:
                self.info.mutated_params.add(idx)
                self.changed = True

    def _record_mutations(self, node: ast.AST) -> None:
        for root, _target, _what in mutation_sites(node, MUTATORS):
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


def helper_summaries(tree: ast.Module) -> dict[str, HelperInfo]:
    """:class:`HelperInfo` of every module-level function, run to a fixed
    point over helper-calls-helper propagation."""
    helpers = {
        stmt.name: HelperInfo(stmt, all_param_names(stmt))
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
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


class TaskWalker(ast.NodeVisitor, NodeEmitter, BorrowTracker):
    """One walk of one task body, emitting the purity (``PU``) and the
    process-safety (``PS``) body findings.

    ``qualnames`` maps each family the walk reports to the name its
    messages are prefixed with; a family left out records nothing (the
    live-callable path has no module around it, so no ``PS``).  Who owns a
    mutated root is decided once, by :meth:`owner`; each family reads its
    rule off that answer.

    The families read a statement in different orders and the walk keeps
    both: ``PU`` reports a store before walking the statement's fields in
    order, ``PS`` walks the assigned value first, reports, then binds a
    borrowed view — and never walks the store targets, so ``PU`` alone does
    (:meth:`_visit_only`).
    """

    def __init__(
        self,
        node: FunctionNode | ast.Lambda,
        *,
        filename: str,
        qualnames: dict[str, str],
        line_offset: int = 0,
        check_self_state: bool = False,
        self_name: str | None = None,
        bindings: dict[str, ast.AST] | None = None,
        module_globals: set[str] | None = None,
        module_imports: set[str] | None = None,
        helpers: dict[str, HelperInfo] | None = None,
    ) -> None:
        self.filename = filename
        self.qualnames = qualnames
        self.live = set(qualnames)
        self.line_offset = line_offset
        self.check_self_state = check_self_state  # PU005 in per-record methods
        self.self_name = self_name
        self.bindings = bindings or {}
        self.module_globals = module_globals or set()
        self.module_imports = module_imports or set()
        self.helpers = helpers or {}
        self.body = [node.body] if isinstance(node, ast.Lambda) else node.body
        params = all_param_names(node)
        self.inputs = set(params) - API_PARAMS
        self.assigned, bound = scope_names(self.body)
        self.bound = bound | set(params)
        self.declared_global: set[str] = set()
        self.declared_nonlocal: set[str] = set()
        self.borrowed = {}
        self.reported_captures: set[str] = set()
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        for stmt in self.body:
            self.visit(stmt)
        return self.findings

    def emit(self, rule: str, message: str, node: ast.AST, hint: str = "") -> None:
        family = rule[:2]
        if family in self.live:
            self.findings.append(
                Finding.of(
                    rule,
                    f"{self.qualnames[family]}: {message}",
                    location=self.loc(node),
                    hint=hint,
                )
            )

    def _visit_only(self, family: str, nodes: Iterable[ast.AST]) -> None:
        """Walk ``nodes`` recording ``family``'s findings only."""
        if family not in self.live:
            return
        live, self.live = self.live, {family}
        for node in nodes:
            self.visit(node)
        self.live = live

    # -- ownership ------------------------------------------------------------------

    def owner(self, root: str) -> str:
        """Who owns a mutated root name: ``self``, ``api`` (the task API
        parameters), ``borrowed`` (a DFS read view), ``input`` (a data
        parameter), ``global`` (module state), ``capture`` (an enclosing
        scope, a ``nonlocal`` or an import) or ``local``."""
        if root in ("self", "cls"):
            return "self"
        if root in API_PARAMS:
            return "api"
        if root in self.borrowed:
            return "borrowed"
        if root in self.inputs:
            return "input"
        if root in self.declared_global:
            return "global"
        if root in self.declared_nonlocal:
            return "capture"
        if root in self.assigned:
            return "local"
        if root in self.module_globals and root not in self.bound:
            return "global"
        return "capture"

    def _pu_mutation(self, owner: str, root: str, node: ast.AST, what: str) -> None:
        if owner == "self" and self.check_self_state:
            self.emit(
                "PU005",
                f"{what} mutates instance state ({root}.…)",
                node,
                hint="task instances are rebuilt per attempt; carried "
                "state diverges under retries and speculation",
            )
        elif owner == "input":
            self.emit(
                "PU004",
                f"{what} mutates input argument {root!r}",
                node,
                hint="inputs may be shared with other attempts of the same "
                "task; copy before modifying",
            )
        elif owner in ("global", "capture"):
            self.emit(
                "PU003",
                f"{what} mutates shared state {root!r} captured from an "
                "enclosing scope",
                node,
                hint="emit through the context or write to a task-private "
                "DFS path instead (Section 6.1's separate-files rule)",
            )

    def _ps_mutation(self, owner: str, root: str, node: ast.AST, what: str) -> None:
        if owner == "borrowed":
            self.emit(
                "PS004",
                f"{what} mutates borrowed view {root!r} "
                f"(from {self.borrowed[root]})",
                node,
                hint=f"{_private_copy(self.borrowed[root])} before mutating; "
                "the zero-copy read path shares one buffer across tasks",
            )
        elif owner == "global":
            self.emit(
                "PS003",
                f"{what} mutates module-global {root!r}",
                node,
                hint="each worker process would mutate a private copy; "
                "emit through the context or write to a task-private "
                "DFS path instead",
            )

    def _check_capture(self, name: str, node: ast.AST) -> None:
        if name in self.bound or name in API_PARAMS or name in self.reported_captures:
            return
        classified = classify_value(self.bindings.get(name))
        if classified is not None:
            rule, desc = classified
            self.reported_captures.add(name)
            self.emit(
                rule,
                f"captures {desc} as {name!r} across the task boundary",
                node,
                hint=_CAPTURE_HINTS[rule],
            )

    # -- visitors -------------------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.declared_nonlocal.update(node.names)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and "PS" in self.live:
            self._check_capture(node.id, node)

    def _visit_store(
        self,
        node: ast.Assign | ast.AugAssign | ast.AnnAssign,
        targets: list[ast.expr],
        value: ast.expr | None,
        pu_fields: list[ast.AST],
    ) -> None:
        sites = [
            (root, target, what, self.owner(root))
            for root, target, what in mutation_sites(node, MUTATORS)
        ]
        for root, target, what, owner in sites:
            if not isinstance(target, ast.Name):  # ``x += 1`` rebinds a name
                self._pu_mutation(owner, root, node, what)
        self._check_rebinds(targets, node)
        self._visit_only("PU", pu_fields)
        if value is not None:
            self.visit(value)
        for root, target, what, owner in sites:
            self._ps_mutation(owner, root, node, what)
            if (
                what == "assignment"
                and isinstance(target, ast.Attribute)
                and (owner == "self" or root == self.self_name)
            ):
                desc = self._borrow_desc(value) if value is not None else None
                if desc is not None:
                    self.emit(
                        "PS005",
                        f"stores borrowed view (from {desc}) on "
                        f"{root}.{target.attr}",
                        node,
                        hint="the view outlives the task attempt and "
                        "aliases the shared read buffer; copy first",
                    )

    def _check_rebinds(self, targets: Iterable[ast.AST], node: ast.AST) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_rebinds(target.elts, node)
            elif isinstance(target, ast.Name) and (
                target.id in self.declared_global
                or target.id in self.declared_nonlocal
            ):
                self.emit(
                    "PU003",
                    f"assignment rebinds shared name {target.id!r} "
                    "(global/nonlocal)",
                    node,
                    hint="emit through the context instead of writing "
                    "to enclosing scopes",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._visit_store(node, node.targets, node.value, node.targets)
        self._bind_targets(node.targets, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        targets = [node.target] if node.value is not None else []
        self._visit_store(node, targets, node.value, [node.target, node.annotation])
        if node.value is not None:
            self._bind_targets(targets, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit_store(node, [node.target], node.value, [node.target])
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self._visit_only("PS", [node.target.value])

    def visit_Return(self, node: ast.Return) -> None:
        desc = self._borrow_desc(node.value) if node.value is not None else None
        if desc is not None:
            self.emit(
                "PS005",
                f"returns borrowed view (from {desc})",
                node,
                hint="the caller receives an alias of the shared read "
                "buffer; copy before returning",
            )
        self.generic_visit(node)

    def _check_set_iter(self, iterable: ast.AST, node: ast.AST) -> None:
        desc = _set_iteration(iterable)
        if desc is not None:
            self.emit(
                "PU007",
                f"iterates over {desc} (hash-randomized order)",
                node,
                hint="wrap the iterable in sorted(...) so emitted key order "
                "is identical across attempts",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iter(node.iter, node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        desc = _nondet_call(node)
        if desc is not None:
            self.emit(
                "PU002",
                f"calls {desc}",
                node,
                hint="retried/speculative attempts must produce identical "
                "output; derive randomness from a seed in the split or "
                "job params",
            )
        else:
            clock = _wallclock_or_unseeded(node)
            if clock is not None:
                self.emit(
                    "PU006",
                    f"calls {clock}",
                    node,
                    hint="inject the seed/timestamp through the split or "
                    "job params so a retried attempt replays identically",
                )
        name = dotted(node.func) or ""
        parts = name.split(".")
        leaf = parts[-1]
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
        for root, _target, what in mutation_sites(node, MUTATORS):
            owner = self.owner(root)
            self._pu_mutation(owner, root, node, what)
            self._ps_mutation(owner, root, node, what)
        if isinstance(node.func, ast.Attribute) and leaf in _ESCAPE_APPENDERS:
            # PS005: borrowed view appended to a captured container.
            root = root_name(node.func.value)
            if (
                root is not None
                and self.owner(root) in ("global", "capture")
                and root not in self.module_imports
            ):
                for arg in node.args:
                    view = self._borrow_desc(arg)
                    if view is not None:
                        self.emit(
                            "PS005",
                            f"appends borrowed view (from {view}) to "
                            f"captured container {root!r}",
                            node,
                            hint="the container outlives the task and "
                            "aliases the shared read buffer; copy first",
                        )
        if isinstance(node.func, ast.Name) and node.func.id in self.helpers:
            # PS004: borrowed argument to a same-module mutating helper.
            callee = self.helpers[node.func.id]
            for i, arg in enumerate(node.args):
                if i in callee.mutated_params:
                    view = self._borrow_desc(arg)
                    if view is not None:
                        self.emit(
                            "PS004",
                            f"passes borrowed view (from {view}) to "
                            f"{node.func.id}(), which mutates parameter "
                            f"{callee.params[i]!r} in place",
                            node,
                            hint=f"{_private_copy(view)} before handing "
                            "the array to an in-place helper",
                        )
        self.generic_visit(node)


def walk_task_sites(
    module: ModuleSource, sites: list[TaskSite], families: tuple[str, ...] = ("PU", "PS")
) -> list[Finding]:
    """The body findings of ``families`` for the function sites of
    ``module``, one :class:`TaskWalker` per site.

    ``PS`` walks every function that crosses the task boundary; ``PU`` only
    the per-task entry points — a task class's task methods and the
    functions handed to ``FnMapper``/``FnReducer`` (factories and hooks run
    driver-side for purity's purposes).  Only ``PS`` needs the module
    around a site (globals, imports, helper summaries).
    """
    tree = module.tree
    assert tree is not None
    env: dict = {}
    if "PS" in families:
        env["helpers"] = helper_summaries(tree)
        env["module_globals"] = {
            name
            for name, expr in scope_bindings(tree.body).items()
            if not isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        env["module_imports"] = {
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in import_bindings(node)
        }
    findings: list[Finding] = []
    for site in sites:
        if site.kinds & {"init", "hook-object"}:
            continue
        node = site.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        name = getattr(node, "name", None)
        qualnames = {"PS": site.qualname} if "PS" in families else {}
        if "PU" in families and "method" in site.kinds and name in TASK_METHODS:
            qualnames["PU"] = site.qualname
        elif "PU" in families and "fn" in site.kinds:
            qualnames["PU"] = name or f"<lambda:{node.lineno}>"
        if qualnames:
            walker = TaskWalker(
                node,
                filename=module.filename,
                qualnames=qualnames,
                check_self_state="method" in site.kinds and name in RECORD_METHODS,
                self_name=site.self_name,
                bindings=site.bindings,
                **env,
            )
            findings.extend(walker.run())
    return findings
