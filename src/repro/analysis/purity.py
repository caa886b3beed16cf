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
files.  The body rules are emitted by the task-body walker it shares with
the process-safety analyzer (:class:`~repro.analysis.source.TaskWalker`,
one walk per task site, one ownership decision per mutated root); the
entry points here keep its ``PU`` findings:

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
from typing import Any, Callable

from ..mapreduce.job import FnMapper, FnReducer, JobConf, Mapper, Reducer
from .findings import Finding
from .source import (
    RECORD_METHODS,
    TASK_METHODS,
    ModuleSource,
    TaskWalker,
    discover_task_sites,
    line_suppresses,
    unique,
    walk_task_sites,
)


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
    walker = TaskWalker(
        node,
        filename=filename,
        qualnames={"PU": qualname},
        line_offset=line_offset,
        check_self_state=check_self_state,
    )
    findings = [f for f in walker.run() if not _suppressed(f)]
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
    (subclass naming or a ``map``/``reduce`` method) and
    (b) functions passed to ``FnMapper``/``FnReducer`` anywhere in the file.
    Driver-side code is deliberately not checked: seeding generators or
    timing on the master is fine — only task bodies must be pure.
    """
    if module.tree is None:
        return [module.parse_failure("PU001")]
    findings = walk_task_sites(module, discover_task_sites(module), ("PU",))
    return [f for f in findings if not module.suppresses(f)]
