"""``python -m repro dfs`` — filesystem maintenance tools from the shell.

Currently one subcommand::

    python -m repro dfs fsck               # crash a run mid-write, then fsck
    python -m repro dfs fsck --no-repair   # report debris without rollback
    python -m repro dfs fsck --json        # machine-readable report
    python -m repro dfs fsck --self-check  # seeded-debris detection gate

The simulated DFS lives in process memory, so the default mode builds its
own demonstration cluster: it runs a small inversion, kills the driver at a
write point chosen by ``--crash-at``, and then runs
:func:`repro.dfs.fsck.fsck` over the wreckage — showing exactly what a
resume-time consistency check sees after a real crash.  ``--self-check``
instead seeds one specimen of every debris category fsck claims to detect
(orphaned staging, unsealed files, invalid manifests, retired files left
behind) and asserts each is found, rolled back, and stays gone — the CI gate
``make chaos`` runs.
"""

from __future__ import annotations

import argparse
import json as _json
import sys

import numpy as np

from .commit import manifest_path, staging_path
from .filesystem import DFS
from .fsck import fsck


def _crashed_cluster(seed: int, crash_at: int) -> tuple[DFS, str, int]:
    """A scratch cluster holding the wreckage of a mid-write driver crash."""
    from ..chaos.events import DriverCrashError, arm_crash
    from ..inversion.config import InversionConfig
    from ..inversion.driver import MatrixInverter

    rng = np.random.RandomState(seed)
    n = 8
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    config = InversionConfig(nb=2, m0=2)
    dfs = DFS(num_datanodes=3, replication=2, seed=seed)
    inverter = MatrixInverter(config, dfs=dfs)
    arm_crash(dfs, crash_at)
    try:
        inverter.invert(a)
    except DriverCrashError:
        pass
    finally:
        inverter.close()
    return dfs, config.root, n


def _run_fsck(args: argparse.Namespace) -> int:
    dfs, root, _ = _crashed_cluster(args.seed, args.crash_at)
    report = fsck(dfs, root=root, repair=not args.no_repair)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(
            f"scratch cluster: inversion crashed at write point "
            f"#{args.crash_at} (seed {args.seed})"
        )
        print(report.format())
        if not args.no_repair:
            verify = fsck(dfs, root=root, repair=False)
            print(
                "post-repair audit: "
                + ("clean" if verify.clean else f"{len(verify.issues)} issue(s) left")
            )
    if args.no_repair:
        return 0  # report-only mode: debris is expected, not a failure
    return 0 if fsck(dfs, root=root, repair=False).clean else 1


def _self_check(as_json: bool) -> int:
    """Seed one specimen of each debris category; assert detect + repair."""
    root = "/Root"
    dfs = DFS(num_datanodes=3, replication=2, seed=0)
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        checks.append((label, ok, detail))

    # A healthy published file the debris must not disturb.
    scope_src = staging_path("attempt-good", f"{root}/data/keep.bin")
    dfs.stage_bytes(scope_src, b"k" * 64)
    dfs.publish([(scope_src, f"{root}/data/keep.bin")], "/_tmp/attempt-good")
    clean = fsck(dfs, root=root, repair=False)
    check("pristine cluster -> clean report", clean.clean, clean.format())

    # Category 1: orphaned staging (a crashed attempt's private directory).
    dfs.stage_bytes(staging_path("attempt-dead", f"{root}/data/a.bin"), b"a" * 32)
    # Category 2: an unsealed file outside staging (torn direct write).
    dfs.stage_bytes(f"{root}/data/torn.bin", b"t" * 16)
    # Category 3a: an unparseable manifest.
    dfs.write_bytes(manifest_path(root, "job:broken"), b"not json")
    # Category 3b: a well-formed manifest listing a never-published file.
    dfs.write_bytes(
        manifest_path(root, "job:lying"),
        _json.dumps(
            {"step": "job:lying", "published": [f"{root}/data/ghost.bin"]}
        ).encode(),
    )
    # Category 4: the driver died after a reader's manifest retired two
    # files and before it deleted the second.  The writer's manifest lists
    # both; its missing file is retired, so it stays sound.
    spent, gone = f"{root}/data/spent.bin", f"{root}/data/gone.bin"
    dfs.write_bytes(spent, b"s" * 16)
    for step, published, retired in (
        ("job:writer", [gone, spent], []),
        ("job:reader", [], [gone, spent]),
    ):
        dfs.write_bytes(
            manifest_path(root, step),
            _json.dumps(
                {"step": step, "published": published, "retired": retired}
            ).encode(),
        )

    # Category 5: a stored block no file references (a leaked write).
    dfs.blocks.write_block(b"o" * 8)

    found = fsck(dfs, root=root, repair=False)
    kinds = {i.kind for i in found.issues}
    check(
        "seeded debris -> all five categories detected",
        kinds
        == {
            "orphaned-staging",
            "unsealed-file",
            "invalid-manifest",
            "retired-file",
            "orphaned-block",
        },
        str(sorted(kinds)),
    )
    check(
        "both bad manifests flagged",
        sum(i.kind == "invalid-manifest" for i in found.issues) == 2,
        found.format(),
    )
    check(
        "only the retired file still present is flagged",
        [i.path for i in found.issues if i.kind == "retired-file"] == [spent],
        found.format(),
    )
    check("report-only mode leaves debris", not fsck(
        dfs, root=root, repair=False
    ).clean)

    repaired = fsck(dfs, root=root, repair=True)
    check(
        "repair pass rolls everything back",
        all(i.repaired for i in repaired.issues),
        repaired.format(),
    )
    after = fsck(dfs, root=root, repair=False)
    check("post-repair audit clean", after.clean, after.format())
    check(
        "published data survives repair",
        dfs.exists(f"{root}/data/keep.bin"),
    )
    check(
        "commit dir keeps no invalidated manifests",
        not dfs.exists(manifest_path(root, "job:broken"))
        and not dfs.exists(manifest_path(root, "job:lying")),
    )
    check(
        "retired file deleted, the manifests retiring it kept",
        not dfs.exists(spent)
        and dfs.exists(manifest_path(root, "job:writer"))
        and dfs.exists(manifest_path(root, "job:reader")),
    )

    failures = [(label, detail) for label, ok, detail in checks if not ok]
    if as_json:
        print(
            _json.dumps(
                {
                    "ok": not failures,
                    "checks": [
                        {"label": label, "ok": ok, "detail": detail}
                        for label, ok, detail in checks
                    ],
                },
                indent=2,
            )
        )
    else:
        for label, ok, detail in checks:
            print(f"  {'ok' if ok else 'FAIL'}  {label}")
            if not ok and detail:
                print(f"        {detail}")
        print(
            "fsck self-check "
            + ("OK" if not failures else f"FAILED ({len(failures)} failure(s))")
        )
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro dfs",
        description="DFS maintenance tools for the two-phase output commit: "
        "detect and roll back crash debris (orphaned staging, unsealed "
        "files, invalid commit manifests, retired files left behind)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "fsck",
        help="check a crashed run's namespace for commit-protocol debris "
        "and roll it back",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="scratch-cluster RNG seed"
    )
    p.add_argument(
        "--crash-at",
        type=int,
        default=12,
        metavar="K",
        help="kill the demonstration driver at its K-th DFS write/publish "
        "(default 12: mid LU-job output)",
    )
    p.add_argument(
        "--no-repair",
        action="store_true",
        help="report debris without rolling it back",
    )
    p.add_argument("--json", action="store_true", help="emit JSON report")
    p.add_argument(
        "--self-check",
        action="store_true",
        help="seed every debris category into a scratch cluster and assert "
        "fsck detects and repairs each",
    )
    args = parser.parse_args(argv)
    if args.self_check:
        return _self_check(args.json)
    return _run_fsck(args)


def register_commands(registry) -> None:
    """Hook for the ``python -m repro`` subcommand registry."""
    registry.add_passthrough(
        "dfs",
        main,
        help="DFS maintenance: fsck for crash debris (staging, unsealed "
        "files, manifests); see python -m repro dfs --help",
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
