"""Findings golden: every source analyzer's exact output, pinned.

``tests/golden/analysis_findings.json`` holds the ``render_json`` output of
the PU/CN/PS analyzers over the seeded fixtures, the shipped examples and
experiment drivers, the engine sweeps and the clean pipeline
configurations — rule ids, messages, locations, hints *and order*.  It also
pins the live-callable path (``analyze_callable`` on the procsafety
fixtures' task classes, imported) and the PL/DF rules over seeded
corruptions of one pipeline model.  It was recorded before the analyzers
were moved onto their shared source-walking core; the test regenerates it
and compares byte for byte, so a refactor of the core cannot move a finding
unnoticed.  The three families post-filter differently (PS dedupes and
sorts by ``(location, rule)``, CN keeps emission order, ``analyze_job``
dedupes without sorting) and the golden holds each.

Re-record (only when a rule's behaviour is changed on purpose):
``PYTHONPATH=src python tests/test_analysis_golden.py``
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import pathlib

from repro.analysis import (
    analyze_callable,
    analyze_concurrency_files,
    analyze_concurrency_sources,
    analyze_procsafety_files,
    analyze_procsafety_sources,
    analyze_source,
    build_model,
    default_procsafety_files,
    default_threaded_files,
    lint_dataflow,
    lint_model,
    lint_pipeline,
    lint_source_file,
    render_json,
)
from repro.inversion import InversionConfig
from repro.mapreduce import Mapper, Reducer

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "analysis_findings.json"

#: The clean pipeline configurations (the paper's Section 6 ablations, an
#: uneven order and a single-leaf plan).
CLEAN_PIPELINES = [
    (4096, dict(nb=512)),
    (256, dict(nb=64)),
    (256, dict(nb=64, separate_files=False)),
    (256, dict(nb=64, transpose_u=False)),
    (256, dict(nb=64, block_wrap=False)),
    (250, dict(nb=64, m0=2)),
    (48, dict(nb=64)),
]


#: Procsafety fixtures that are safe to import (``bad_captures.py`` opens a
#: file at import time, so it stays text-only).
LIVE_FIXTURES = ("bad_mutation.py", "bad_rng_shm.py", "good_tasks.py")


def _drop_first_partition_write(model) -> None:
    step = model.find_step("partition[map]")
    step.writes.discard(sorted(step.writes)[0])


def _add_unread_write(model) -> None:
    model.find_step("partition[map]").writes.add("/Root/junk/never_read")


def _move_first_lu_step_to_index_1(model) -> None:
    first = next(i for i, s in enumerate(model.steps) if s.name.startswith("lu:"))
    model.steps.insert(1, model.steps.pop(first))


def _final_reduce_reads_own_write(model) -> None:
    step = model.find_step("invert-final[reduce]")
    step.reads.add(sorted(step.writes)[0])


def _final_reduce_writes_input(model) -> None:
    model.find_step("invert-final[reduce]").writes.add(model.layout.input_path)


#: Seeded corruptions of ``build_model(256, InversionConfig(nb=64))``.
CORRUPTIONS = {
    "drop-first-partition-write": _drop_first_partition_write,
    "add-unread-write": _add_unread_write,
    "move-first-lu-step-to-index-1": _move_first_lu_step_to_index_1,
    "final-reduce-reads-own-write": _final_reduce_reads_own_write,
    "final-reduce-writes-input": _final_reduce_writes_input,
}


def _live_task_classes(name: str) -> list[type]:
    """The Mapper/Reducer classes a fixture defines, imported from its
    repo-relative path (the working directory is the repo root)."""
    spec = importlib.util.spec_from_file_location(f"_golden_{pathlib.Path(name).stem}", name)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, (Mapper, Reducer))
    ]


def _sources(directory: str) -> list[tuple[str, str]]:
    """``(text, repo-relative filename)`` for every module in ``directory``."""
    return [
        (path.read_text(encoding="utf-8"), path.relative_to(ROOT).as_posix())
        for path in sorted((ROOT / directory).glob("*.py"))
    ]


def generate() -> str:
    """The golden document.  Filenames are repo-relative (the working
    directory is moved to the repo root for the file-reading entry points),
    so locations do not depend on where the checkout lives."""
    cases: dict[str, str] = {}
    cn = _sources("tests/fixtures/concurrency")
    ps = _sources("tests/fixtures/procsafety")
    for text, name in cn:
        cases[f"cn:{name}"] = render_json(analyze_concurrency_sources([(text, name)]))
    cases["cn:package"] = render_json(analyze_concurrency_sources(cn))
    for text, name in cn + ps:
        cases[f"ps:{name}"] = render_json(analyze_procsafety_sources([(text, name)]))
    for text, name in cn + ps:
        cases[f"pu:{name}"] = render_json(analyze_source(text, name))
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for directory in ("examples", "src/repro/experiments"):
            for _, name in _sources(directory):
                cases[f"lint:{name}"] = render_json(lint_source_file(name))
        for fixture in LIVE_FIXTURES:
            name = f"tests/fixtures/procsafety/{fixture}"
            for cls in _live_task_classes(name):
                # Uninitialized: only the class's methods are analyzed.
                findings = analyze_callable(cls.__new__(cls))
                cases[f"live:{name}:{cls.__name__}"] = render_json(findings).replace(
                    f"{ROOT.as_posix()}/", ""
                )
    finally:
        os.chdir(cwd)
    cases["cn:engine"] = render_json(analyze_concurrency_files(default_threaded_files()))
    cases["ps:engine"] = render_json(analyze_procsafety_files(default_procsafety_files()))
    for n, kwargs in CLEAN_PIPELINES:
        findings, _model = lint_pipeline(n, InversionConfig(**kwargs))
        label = ",".join(f"{k}={v}" for k, v in kwargs.items())
        cases[f"pipeline:n={n},{label}"] = render_json(findings)
    for label, corrupt in CORRUPTIONS.items():
        model = build_model(256, InversionConfig(nb=64))
        corrupt(model)
        findings = lint_model(model) + lint_dataflow(model)
        cases[f"corrupt:{label}"] = render_json(findings)
    document = {case: json.loads(text) for case, text in cases.items()}
    return json.dumps(document, indent=1) + "\n"


def test_findings_match_the_golden_byte_for_byte():
    assert generate() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(generate(), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
