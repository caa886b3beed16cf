"""Mapper/reducer purity checker.

The simulated runtime (like Hadoop) re-executes tasks: failed attempts are
retried, speculative copies race the originals, and Section 6.1's
"separate HDFS files, never combined on the master" rule exists precisely
because concurrent workers must not share mutable state.  A map/reduce
callable is therefore only safe if it is *pure up to its declared I/O*: no
mutation of closure or global state, no mutation of its inputs, no
nondeterministic APIs (a retried task must write byte-identical output).

This module inspects task callables ahead of execution, via
``inspect.getsource`` + ``ast`` for live objects and plain ``ast`` for source
files:

``PU001``  source unavailable (builtin / C-implemented callable) — INFO;
``PU002``  nondeterministic API call (``random``, ``time.time``,
           ``os.urandom``, unseeded ``default_rng`` ...);
``PU003``  mutation of closure or global state shared across tasks;
``PU004``  mutation of a task input argument;
``PU005``  instance attribute assigned inside ``map``/``reduce`` — WARNING;
``PU006``  wall-clock reads (``datetime.now``, ``time.localtime`` ...) or a
           seedable generator (``Random()``, ``RandomState()``) constructed
           without an injected seed;
``PU007``  iteration over a set whose order can leak into emitted keys —
           WARNING (hash randomization makes replay order differ between
           attempts; wrap in ``sorted(...)``).

Suppressions: append ``# lint: ignore[PU002]`` (or a bare
``# lint: ignore``) to the offending line.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
from typing import Any, Callable, Iterable

from ..mapreduce.job import FnMapper, FnReducer, JobConf, Mapper, Reducer
from .findings import Finding
from .source import (
    API_PARAMS,
    RECORD_METHODS,
    SEQUENCE_MUTATORS,
    TASK_METHODS,
    FunctionNode,
    ModuleSource,
    NodeEmitter,
    assigned_names,
    discover_task_sites,
    dotted,
    line_suppresses,
    mutation_sites,
    param_names,
    unique,
)

#: Method names whose call mutates the receiver in place: task inputs are
#: containers of records and numpy blocks.
_MUTATORS = SEQUENCE_MUTATORS | {"fill", "itemset", "resize", "put"}

#: Exact dotted calls that are nondeterministic.
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


def _is_nondet_call(call: ast.Call) -> str | None:
    """A human-readable description when ``call`` is nondeterministic."""
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


def _is_wallclock_or_unseeded(call: ast.Call) -> str | None:
    """PU006 patterns :func:`_is_nondet_call` does not already cover:
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


def _set_iteration_desc(node: ast.AST) -> str | None:
    """Describe ``node`` when it is a set-valued iterable (PU007)."""
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


class _TaskBodyVisitor(ast.NodeVisitor, NodeEmitter):
    """Walk one task function body collecting purity findings."""

    def __init__(
        self,
        *,
        qualname: str,
        filename: str,
        line_offset: int,
        input_params: set[str],
        local_names: set[str],
        check_self_state: bool,
    ) -> None:
        self.qualname = qualname
        self.filename = filename
        self.line_offset = line_offset
        self.input_params = input_params
        self.local_names = local_names
        self.check_self_state = check_self_state
        self.declared_shared: set[str] = set()  # global / nonlocal names
        self.findings: list[Finding] = []

    def _classify_root(self, root: str, node: ast.AST, what: str) -> None:
        """Report an in-place mutation according to who owns its root name."""
        if root in ("self", "cls"):
            if self.check_self_state:
                self.emit(
                    "PU005",
                    f"{what} mutates instance state ({root}.…)",
                    node,
                    hint="task instances are rebuilt per attempt; carried "
                    "state diverges under retries and speculation",
                )
            return
        if root in API_PARAMS:
            return
        if root in self.input_params:
            self.emit(
                "PU004",
                f"{what} mutates input argument {root!r}",
                node,
                hint="inputs may be shared with other attempts of the same "
                "task; copy before modifying",
            )
            return
        if root in self.declared_shared or root not in self.local_names:
            self.emit(
                "PU003",
                f"{what} mutates shared state {root!r} captured from an "
                "enclosing scope",
                node,
                hint="emit through the context or write to a task-private "
                "DFS path instead (Section 6.1's separate-files rule)",
            )

    # -- visitors ------------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_shared.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.declared_shared.update(node.names)

    def visit_Call(self, node: ast.Call) -> None:
        desc = _is_nondet_call(node)
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
            clock = _is_wallclock_or_unseeded(node)
            if clock is not None:
                self.emit(
                    "PU006",
                    f"calls {clock}",
                    node,
                    hint="inject the seed/timestamp through the split or "
                    "job params so a retried attempt replays identically",
                )
        for root, _target, what in mutation_sites(node, _MUTATORS):
            self._classify_root(root, node, what)
        self.generic_visit(node)

    def _check_rebinds(self, targets: Iterable[ast.AST], node: ast.AST) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_rebinds(target.elts, node)
            elif isinstance(target, ast.Name) and target.id in self.declared_shared:
                self.emit(
                    "PU003",
                    f"assignment rebinds shared name {target.id!r} "
                    "(global/nonlocal)",
                    node,
                    hint="emit through the context instead of writing "
                    "to enclosing scopes",
                )

    def _visit_store(self, node: ast.stmt, targets: list[ast.expr]) -> None:
        for root, target, what in mutation_sites(node, _MUTATORS):
            if not isinstance(target, ast.Name):  # ``x += 1`` rebinds a name
                self._classify_root(root, node, what)
        self._check_rebinds(targets, node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._visit_store(node, node.targets)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit_store(node, [node.target])

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._visit_store(node, [node.target] if node.value is not None else [])

    def _check_set_iter(self, iterable: ast.AST, node: ast.AST) -> None:
        desc = _set_iteration_desc(iterable)
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


def _body_findings(
    node: FunctionNode | ast.Lambda,
    *,
    qualname: str,
    filename: str,
    line_offset: int = 0,
    check_self_state: bool = False,
) -> list[Finding]:
    """Analyze one function or lambda AST node."""
    names = set(param_names(node))
    body = [node.body] if isinstance(node, ast.Lambda) else node.body
    visitor = _TaskBodyVisitor(
        qualname=qualname,
        filename=filename,
        line_offset=line_offset,
        input_params=names - API_PARAMS,
        local_names=assigned_names(body) | names,
        check_self_state=check_self_state,
    )
    for stmt in body:
        visitor.visit(stmt)
    return visitor.findings


def _suppressed(finding: Finding) -> bool:
    """Honour ``# lint: ignore[...]`` on the finding's source line."""
    if ":" not in finding.location:
        return False
    filename, _, lineno = finding.location.rpartition(":")
    if not lineno.isdigit():
        return False
    line = linecache.getline(filename, int(lineno))
    return line_suppresses(line, finding.rule)


# One analysis per code object: factories recreate task instances per call,
# but the underlying functions (and their findings) are identical.
_CODE_CACHE: dict[Any, tuple[Finding, ...]] = {}


def _analyze_function_obj(
    fn: Callable[..., Any], *, check_self_state: bool
) -> list[Finding]:
    code = getattr(fn, "__code__", None)
    key = (code, check_self_state)
    if code is not None and key in _CODE_CACHE:
        return list(_CODE_CACHE[key])
    qualname = getattr(fn, "__qualname__", repr(fn))
    try:
        source = inspect.getsource(fn)
        filename = inspect.getsourcefile(fn) or "<unknown>"
        _, base_line = inspect.getsourcelines(fn)
    except (OSError, TypeError):
        return [
            Finding.of(
                "PU001",
                f"{qualname}: source unavailable; cannot verify purity",
                location=qualname,
                hint="built-in or C-implemented callables are assumed pure",
            )
        ]
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError:
        return [
            Finding.of(
                "PU001",
                f"{qualname}: source does not parse standalone",
                location=filename,
            )
        ]
    func_node = next(
        (
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if func_node is not None:
        node, line_offset = func_node, base_line - func_node.lineno
    else:
        # A lambda: getsource returns the whole enclosing statement, so pick
        # the lambda node matching the code object's line and arity.
        lambdas = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
        if code is not None and lambdas:
            on_line = [
                n for n in lambdas
                if n.lineno == code.co_firstlineno - base_line + 1
            ]
            lambdas = on_line or lambdas
            by_arity = [
                n for n in lambdas
                if len(n.args.posonlyargs) + len(n.args.args) == code.co_argcount
            ]
            lambdas = by_arity or lambdas
        if not lambdas:
            return [
                Finding.of(
                    "PU001",
                    f"{qualname}: cannot locate the function in its source "
                    "statement; cannot verify purity",
                    location=filename,
                )
            ]
        node, line_offset, check_self_state = lambdas[0], base_line - 1, False
    findings = _body_findings(
        node,
        qualname=qualname,
        filename=filename,
        line_offset=line_offset,
        check_self_state=check_self_state,
    )
    findings = [f for f in findings if not _suppressed(f)]
    if code is not None:
        _CODE_CACHE[key] = tuple(findings)
    return findings


def _overridden_methods(obj: Mapper | Reducer) -> list[tuple[str, Callable[..., Any]]]:
    """(name, function) for task methods the class actually overrides."""
    base = Mapper if isinstance(obj, Mapper) else Reducer
    out: list[tuple[str, Callable[..., Any]]] = []
    for name in TASK_METHODS:
        fn = getattr(type(obj), name, None)
        if fn is None or getattr(base, name, None) is fn:
            continue
        out.append((name, fn))
    return out


def analyze_callable(obj: Any) -> list[Finding]:
    """Purity findings for one task callable.

    Accepts a :class:`Mapper`/:class:`Reducer` instance (every overridden
    task method is analyzed), an :class:`FnMapper`/:class:`FnReducer`
    (the wrapped function is analyzed), or a plain function.
    """
    if isinstance(obj, (FnMapper, FnReducer)):
        return _analyze_function_obj(obj._fn, check_self_state=False)
    if isinstance(obj, (Mapper, Reducer)):
        findings: list[Finding] = []
        for name, fn in _overridden_methods(obj):
            findings.extend(
                _analyze_function_obj(
                    fn,
                    # setup/cleanup legitimately build per-task state.
                    check_self_state=name in RECORD_METHODS,
                )
            )
        return findings
    if callable(obj):
        return _analyze_function_obj(obj, check_self_state=False)
    raise TypeError(f"not a task callable: {obj!r}")


def analyze_job(conf: JobConf) -> list[Finding]:
    """Purity findings for one job's mapper (and reducer, if any)."""
    findings: list[Finding] = []
    for factory in (conf.mapper_factory, conf.reducer_factory):
        if factory is None:
            continue
        try:
            task = factory()
        except Exception as exc:  # pragma: no cover - defensive
            findings.append(
                Finding.of(
                    "PU001",
                    f"job {conf.name!r}: task factory raised {exc!r}; "
                    "cannot analyze",
                    location=conf.name,
                )
            )
            continue
        findings.extend(analyze_callable(task))
    # The same class serves many jobs; drop exact duplicates.
    return unique(findings)


# -- source-file analysis (no imports executed) ---------------------------------


def analyze_source(text: str, filename: str = "<string>") -> list[Finding]:
    """Purity findings for every task callable defined in a source file."""
    return analyze_module(ModuleSource(text, filename))


def analyze_module(module: ModuleSource) -> list[Finding]:
    """Purity findings for every task callable of an already parsed module.

    Analyzes (a) methods of classes that look like mappers/reducers
    (subclass naming or a ``map``/``map_record``/``reduce`` method) and
    (b) functions passed to ``FnMapper``/``FnReducer`` anywhere in the file.
    Driver-side code is deliberately not checked: seeding generators or
    timing on the master is fine — only task bodies must be pure.
    """
    if module.tree is None:
        return [module.parse_failure("PU001")]
    findings: list[Finding] = []
    for site in discover_task_sites(module):
        node = site.node
        if "method" in site.kinds and node.name in TASK_METHODS:
            qualname, check_self_state = site.qualname, node.name in RECORD_METHODS
        elif "fn" in site.kinds:
            qualname = getattr(node, "name", None) or f"<lambda:{node.lineno}>"
            check_self_state = False
        else:
            continue  # factories and hooks run driver-side for purity's purposes
        findings.extend(
            _body_findings(
                node,
                qualname=qualname,
                filename=module.filename,
                check_self_state=check_self_state,
            )
        )
    return [f for f in findings if not module.suppresses(f)]
