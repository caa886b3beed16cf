"""Generate docs/api.md from the package's docstrings.

Usage:  python scripts/gen_api_docs.py

Walks the public surface (each subpackage's ``__all__``), extracts the first
docstring paragraph of every exported class/function, and writes a compact
reference.  Regenerate after changing public APIs; the test suite checks the
file is present and in sync at the module-listing level.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro",
    "repro.dfs",
    "repro.mapreduce",
    "repro.linalg",
    "repro.inversion",
    "repro.analysis",
    "repro.chaos",
    "repro.telemetry",
    "repro.mpi",
    "repro.scalapack",
    "repro.baselines",
    "repro.cluster",
    "repro.spark",
    "repro.workloads",
    "repro.experiments",
]


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def render_package(name: str) -> list[str]:
    mod = importlib.import_module(name)
    lines = [f"## `{name}`", "", first_paragraph(mod.__doc__), ""]
    exports = [e for e in getattr(mod, "__all__", []) if not e.startswith("_")]
    if not exports:
        return lines
    lines.append("| export | kind | summary |")
    lines.append("|---|---|---|")
    for export in exports:
        obj = getattr(mod, export)
        if inspect.ismodule(obj):
            kind = "module"
            summary = first_paragraph(obj.__doc__)
        elif inspect.isclass(obj):
            kind = "class"
            summary = first_paragraph(obj.__doc__)
        elif callable(obj):
            kind = f"function `{export}{signature_of(obj)}`"
            summary = first_paragraph(obj.__doc__)
        else:
            kind = "constant"
            summary = repr(obj)[:80]
        summary = summary.replace("|", "\\|")
        if len(summary) > 220:
            summary = summary[:217] + "..."
        lines.append(f"| `{export}` | {kind} | {summary} |")
    lines.append("")
    return lines


def main() -> None:
    out = [
        "# API reference",
        "",
        "Generated by `python scripts/gen_api_docs.py` — do not edit by hand.",
        "",
    ]
    for package in PACKAGES:
        out.extend(render_package(package))
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} lines)")


if __name__ == "__main__":
    sys.exit(main())
