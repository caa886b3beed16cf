"""``python -m repro invert`` / ``describe`` — the inversion subcommands."""

from __future__ import annotations

import argparse
from typing import Any


def cmd_invert(args: argparse.Namespace) -> int:
    from ..workloads import random_dense
    from .config import InversionConfig
    from .driver import MatrixInverter

    a = random_dense(args.n, seed=args.seed)
    config = InversionConfig(
        nb=args.nb,
        m0=args.m0,
        executor=args.executor,
        num_workers=args.num_workers,
        schedule=args.scheduler,
    )
    # The context manager shuts the runtime down on a failed inversion too
    # (pool workers, shared-memory segments).
    with MatrixInverter(config=config) as inverter:
        result = inverter.invert(a)
        print(f"order {args.n}, nb={args.nb}, m0={args.m0}, "
              f"executor={args.executor}, scheduler={args.scheduler}")
        print(f"jobs: {result.num_jobs}  (depth {result.plan.depth})")
        print(f"driver residual:      {result.residual(a):.3e}")
        if args.verify:
            print(
                f"distributed residual: {inverter.distributed_residual(result):.3e}"
            )
        print(f"DFS read {result.io.bytes_read / 1e6:.1f} MB, "
              f"written {result.io.bytes_written / 1e6:.1f} MB")
    return 0


def configure_invert(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--nb", type=int, default=64)
    parser.add_argument("--m0", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--executor", choices=("serial", "threads", "processes"),
                        default="serial",
                        help="task execution backend (default: serial)")
    parser.add_argument("--num-workers", type=int, default=None,
                        help="worker-pool width (default: m0)")
    parser.add_argument("--scheduler", choices=("barrier", "dataflow"),
                        default="barrier",
                        help="inter-job scheduling mode (default: barrier; "
                        "dataflow launches steps on block availability)")
    parser.add_argument("--verify", action="store_true",
                        help="also run the distributed verification job")


def cmd_describe(args: argparse.Namespace) -> int:
    from .plan import InversionPlan

    plan = InversionPlan(n=args.n, nb=args.nb, m0=args.m0)
    plan.validate()
    print(plan.describe())
    print("\njob schedule:")
    for name in plan.job_schedule():
        print(f"  {name}")
    return 0


def configure_describe(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--nb", type=int, default=3200)
    parser.add_argument("--m0", type=int, default=4)


def register_commands(registry: Any) -> None:
    """Hook for the ``python -m repro`` subcommand registry."""
    registry.add(
        "invert",
        cmd_invert,
        help="invert a random matrix end-to-end",
        configure=configure_invert,
    )
    registry.add(
        "describe",
        cmd_describe,
        help="show the pipeline plan for an (n, nb) configuration",
        configure=configure_describe,
    )


__all__ = ["cmd_describe", "cmd_invert", "register_commands"]
