"""Command-line entry point.

    python -m repro invert [--n N] [--nb NB] [--m0 M0] [--verify]
    python -m repro describe --n N [--nb NB] [--m0 M0]
    python -m repro lint [paths...] [--n N] [--nb NB] [--m0 M0]
    python -m repro chaos [--seed S] [--schedule NAME] [--json] [--list]
    python -m repro experiments [--fast]
    python -m repro table <1|2|3> / figure <6|7|8> / section <7.2|7.4|7.5>
    python -m repro trace [--n N] [--nb NB] [--jsonl PATH] [--json]

Every subcommand is contributed by its subsystem through the registry in
:mod:`repro.cli` (each exposes a ``register_commands`` hook); this module
only dispatches.
"""

from __future__ import annotations

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
