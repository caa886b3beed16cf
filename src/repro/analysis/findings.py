"""Structured findings emitted by the static analyzers.

Every check reports :class:`Finding` records — rule id, severity, location,
message, and a fix hint — rather than raising on first failure, so a single
pre-flight pass can surface *all* problems in a pipeline (the paper's whole
workflow is predefined, Section 5, so there is no reason to discover defects
one runtime crash at a time).  The rule catalog lives in :data:`RULES`;
``docs/static_analysis.md`` is its human-readable rendering.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class Severity(enum.IntEnum):
    """Ordered severities; ``ERROR`` findings make the pre-flight fail."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class RuleSpec:
    """One catalog entry: stable id, default severity, one-line title."""

    id: str
    severity: Severity
    title: str


#: The rule catalog.  Ids are stable API: tests, suppressions
#: (``--ignore`` / ``# lint: ignore[ID]``), and docs all key on them.
RULES: dict[str, RuleSpec] = {
    spec.id: spec
    for spec in (
        # -- plan / dataflow rules (planlint) --------------------------------
        RuleSpec("PL001", Severity.ERROR,
                 "job count disagrees with the closed form 2^d + 1 (Table 3)"),
        RuleSpec("PL002", Severity.ERROR,
                 "block shapes not conformable across a job boundary"),
        RuleSpec("PL003", Severity.ERROR,
                 "step reads a DFS path no earlier step writes"),
        RuleSpec("PL004", Severity.ERROR,
                 "DFS path written by more than one step (Section 5.2 "
                 "requires single-writer files)"),
        RuleSpec("PL005", Severity.WARNING,
                 "intermediate written but never read (orphan)"),
        RuleSpec("PL006", Severity.ERROR,
                 "U-transposed layout inconsistent with the Section 6.3 flag"),
        RuleSpec("PL007", Severity.ERROR,
                 "block-wrap grid does not factor m0 (f1 * f2 != m0)"),
        RuleSpec("PL008", Severity.WARNING,
                 "separate-factor-file count disagrees with Section 6.1's "
                 "N(d) = 2^d + (m0/2)(2^d - 1)"),
        RuleSpec("PL009", Severity.ERROR,
                 "step touches the /_tmp staging or _commit manifest "
                 "namespace (private to the two-phase output commit)"),
        # -- block-dataflow rules (dataflow) -----------------------------------
        RuleSpec("DF001", Severity.INFO,
                 "false barrier: sibling LU subtrees exchange no direct "
                 "block edges (coupling flows only through the parent job)"),
        RuleSpec("DF002", Severity.ERROR,
                 "cross-stage write-before-read hazard: a stage reads a "
                 "block first written at the same or a later stage"),
        RuleSpec("DF003", Severity.WARNING,
                 "dead block: written, never read by any stage, never "
                 "published through a commit manifest"),
        RuleSpec("DF004", Severity.WARNING,
                 "redundant read: a stage round-trips its own same-stage "
                 "write through the DFS"),
        RuleSpec("DF005", Severity.INFO,
                 "barrier slack: static critical-path length vs the "
                 "barrier schedule's global sync points"),
        RuleSpec("DF006", Severity.ERROR,
                 "cycle in the block dependency DAG (no schedule can "
                 "satisfy it)"),
        RuleSpec("DF007", Severity.ERROR,
                 "generation-order violation: a map phase reads its own "
                 "job's reduce output"),
        RuleSpec("DF008", Severity.ERROR,
                 "observed read edge missing from the static DAG "
                 "(telemetry replay cross-check)"),
        # -- mapper/reducer purity rules (purity) -----------------------------
        RuleSpec("PU001", Severity.INFO,
                 "source unavailable; callable not analyzable"),
        RuleSpec("PU002", Severity.ERROR,
                 "nondeterministic API call in a task body"),
        RuleSpec("PU003", Severity.ERROR,
                 "mutation of closure/global state shared across tasks"),
        RuleSpec("PU004", Severity.ERROR,
                 "mutation of a task input argument"),
        RuleSpec("PU005", Severity.WARNING,
                 "instance attribute assigned inside map/reduce (task-carried "
                 "state breaks replay after a retry)"),
        RuleSpec("PU006", Severity.ERROR,
                 "wall-clock or seedable generator constructed without an "
                 "injected seed inside a task body"),
        RuleSpec("PU007", Severity.WARNING,
                 "iteration over a set whose order can leak into emitted "
                 "keys (hash randomization breaks replay determinism)"),
        # -- concurrency rules (concurrency) ----------------------------------
        RuleSpec("CN001", Severity.ERROR,
                 "read of a guarded-by attribute without holding its lock"),
        RuleSpec("CN002", Severity.ERROR,
                 "write/mutation of a guarded-by attribute without holding "
                 "its lock"),
        RuleSpec("CN003", Severity.ERROR,
                 "lock-required helper called without holding the lock it "
                 "assumes"),
        RuleSpec("CN004", Severity.WARNING,
                 "guarded mutable state escapes its lock scope (returned "
                 "without copying)"),
        RuleSpec("CN005", Severity.ERROR,
                 "lock-order cycle between locks (potential deadlock)"),
        RuleSpec("CN006", Severity.WARNING,
                 "lock held across a blocking call (join/result/sleep/DFS "
                 "I/O)"),
        RuleSpec("CN007", Severity.ERROR,
                 "guarded-by annotation names a lock the class never "
                 "defines"),
        RuleSpec("CN008", Severity.WARNING,
                 "thread-shared closure state mutated without a lock in an "
                 "escaping callback"),
        # -- process-safety / ownership rules (procsafety) ---------------------
        RuleSpec("PS001", Severity.ERROR,
                 "unpicklable object captured in a task closure (thread, "
                 "open file, subprocess, generator)"),
        RuleSpec("PS002", Severity.ERROR,
                 "engine handle (DFS/NameNode/JobTracker/runtime) captured "
                 "by value instead of received via TaskContext"),
        RuleSpec("PS003", Severity.ERROR,
                 "module-global state mutated from task code"),
        RuleSpec("PS004", Severity.ERROR,
                 "in-place mutation of a borrowed (zero-copy) DFS read "
                 "view; mutate a private copy instead"),
        RuleSpec("PS005", Severity.WARNING,
                 "borrowed DFS read view escapes the task scope (returned, "
                 "stored on self, or appended to a captured container)"),
        RuleSpec("PS006", Severity.ERROR,
                 "fork-unsafe global RNG used in task code (forked workers "
                 "inherit identical generator state)"),
        RuleSpec("PS007", Severity.ERROR,
                 "lock/condition primitive crosses a task boundary"),
        RuleSpec("PS008", Severity.ERROR,
                 "shared_memory segment closed/unlinked while a frombuffer "
                 "view is live"),
    )
}


@dataclass(frozen=True)
class Finding:
    """One analyzer result.

    ``location`` is free-form but conventionally ``file:line`` for source
    findings and a step/path description for plan findings.
    """

    rule: str
    message: str
    location: str = ""
    hint: str = ""
    severity: Severity = field(default=Severity.ERROR)

    @staticmethod
    def of(rule: str, message: str, *, location: str = "", hint: str = "") -> "Finding":
        """Build a finding with the rule's catalog severity."""
        spec = RULES[rule]
        return Finding(
            rule=rule,
            message=message,
            location=location,
            hint=hint,
            severity=spec.severity,
        )

    def format(self) -> str:
        loc = f" at {self.location}" if self.location else ""
        hint = f"\n    hint: {self.hint}" if self.hint else ""
        return f"[{self.rule}] {self.severity}: {self.message}{loc}{hint}"


def max_severity(findings: Iterable[Finding]) -> Severity | None:
    """Highest severity present, or ``None`` for an empty set."""
    best: Severity | None = None
    for f in findings:
        if best is None or f.severity > best:
            best = f.severity
    return best


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity >= Severity.ERROR for f in findings)


def filter_ignored(
    findings: Iterable[Finding], ignore: Iterable[str]
) -> list[Finding]:
    """Drop findings whose rule id is in ``ignore``."""
    ignored = {r.strip().upper() for r in ignore if r.strip()}
    return [f for f in findings if f.rule not in ignored]


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, most severe first."""
    if not findings:
        return "no findings"
    ordered = sorted(findings, key=lambda f: (-f.severity, f.rule, f.location))
    counts: dict[Severity, int] = {}
    for f in findings:
        counts[f.severity] = counts.get(f.severity, 0) + 1
    summary = ", ".join(
        f"{counts[s]} {s}" for s in sorted(counts, reverse=True)
    )
    return "\n".join([f.format() for f in ordered] + [f"-- {summary}"])


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (one object per finding, stable keys)."""
    return json.dumps(
        [
            {
                "rule": f.rule,
                "severity": str(f.severity),
                "message": f.message,
                "location": f.location,
                "hint": f.hint,
            }
            for f in findings
        ],
        indent=2,
    )


class PreflightError(RuntimeError):
    """Raised by the driver when the pre-flight linter finds errors."""

    def __init__(self, findings: Sequence[Finding]) -> None:
        self.findings = list(findings)
        errors = [f for f in self.findings if f.severity >= Severity.ERROR]
        super().__init__(
            "pipeline pre-flight failed with "
            f"{len(errors)} error finding(s):\n{render_text(errors)}"
        )
