"""``python -m repro experiments`` / ``table`` / ``figure`` / ``section`` /
``study`` — the paper-artifact subcommands."""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Any

#: (kind, which) -> experiments submodule regenerating that artifact.
ARTIFACTS: dict[tuple[str, str], str] = {
    ("table", "1"): "table1",
    ("table", "2"): "table2",
    ("table", "3"): "table3",
    ("figure", "6"): "fig6",
    ("figure", "7"): "fig7",
    ("figure", "8"): "fig8",
    ("section", "7.2"): "sec72",
    ("section", "7.4"): "sec74",
    ("section", "7.5"): "sec75",
    ("study", "launch-overhead"): "launch_overhead",
}


def cmd_experiments(args: argparse.Namespace) -> int:
    from .run_all import main as run_all

    run_all(fast=args.fast)
    return 0


def cmd_artifact(kind: str, args: argparse.Namespace) -> int:
    key = (kind, args.which)
    if key not in ARTIFACTS:
        valid = sorted(w for k, w in ARTIFACTS if k == kind)
        print(f"unknown {kind} {args.which!r}; choose from {valid}", file=sys.stderr)
        return 2
    module = importlib.import_module(f".{ARTIFACTS[key]}", __package__)
    print(module.format_result(module.run()))
    return 0


def register_commands(registry: Any) -> None:
    """Hook for the ``python -m repro`` subcommand registry."""
    registry.add(
        "experiments",
        cmd_experiments,
        help="regenerate every table/figure",
        configure=lambda p: p.add_argument("--fast", action="store_true"),
    )
    for kind in ("table", "figure", "section", "study"):
        registry.add(
            kind,
            lambda a, k=kind: cmd_artifact(k, a),
            help=f"regenerate one {kind}",
            configure=lambda p: p.add_argument("which"),
        )


__all__ = ["ARTIFACTS", "cmd_artifact", "cmd_experiments", "register_commands"]
