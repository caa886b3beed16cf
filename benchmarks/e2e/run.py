"""End-to-end benchmark of ``repro.invert``.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one workload, one JSON object on the last line (what BENCHMARK.json runs)
    python3 benchmarks/e2e/run.py [--seed S] [--seconds T] [--smoke] [--out PATH]
        every workload, both modes; prints every metric with its unit and
        writes results/BENCH_e2e.json
    python3 benchmarks/e2e/run.py compare A.json B.json
        per (end-to-end metric, workload): same / better / worse / unresolved

Every measurement runs in a fresh child interpreter (``child.py``) with BLAS
pinned to one thread, so parallelism comes only from the program's own
backends.  End-to-end times are corrected for the host's speed by a
calibration kernel run next to each of them.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
RESULTS = HERE / "results" / "BENCH_e2e.json"

sys.path.insert(0, str(HERE))

from compare import compare_main, quartiles  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: One BLAS thread: the serial workloads are a true single-threaded baseline
#: and pool workers do not oversubscribe the cores (README, "Why BLAS is pinned").
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Fresh interpreters set up per timed run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A whole single-workload run must end within 180 s, hangs included.
SETUP_TIMEOUT_S = 25
CHILD_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: int,
    smoke: bool,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Start ``child.py``, wait for it, return the JSON on its last line."""
    OUT_DIR.mkdir(exist_ok=True)
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--trace-path", str(OUT_DIR / f"trace_{workload}.jsonl"),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]  # fmt: skip
    if smoke:
        argv.append("--smoke")
    if setup_only:
        argv.append("--setup-only")
    # Its own process group, so that a hung child goes together with the
    # pool workers it forked.
    child = subprocess.Popen(
        argv, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(
            timeout=SETUP_TIMEOUT_S if setup_only else CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"child for {workload} timed out") from None
    if child.returncode != 0:
        raise SystemExit(f"child for {workload} exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_timed(workload: str, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """Tracing off: the end-to-end metrics, each with its samples."""
    extra = 0 if smoke else SETUP_SAMPLES - 1
    setups = [
        run_child(workload, seed, 0, trace=0, smoke=smoke, setup_only=True)["setup_s"]
        for _ in range(extra)
    ]
    child = run_child(workload, seed, seconds, trace=0, smoke=smoke)
    samples = dict(child["samples"])
    samples["setup_s"] = setups + [child["setup_s"]]
    samples["peak_rss_mb"] = [child["peak_rss_mb"]]
    return {
        "attempted": child["attempted"],
        "failed": child["failed"],
        "samples": samples,
        "uncorrected": child["uncorrected"],
    }


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """The traced run: every per-layer metric, with its unit."""
    child = run_child(workload, seed, seconds, trace=1, smoke=smoke)
    child["metrics"] = {
        name: {"value": child["metrics"][name], "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    return child


def single_main(args: argparse.Namespace) -> int:
    """One workload; the last line is the benchmark contract's JSON object."""
    if args.trace:
        run = run_traced(args.workload, args.seed, args.seconds, args.smoke)
        metrics = run["metrics"]
    else:
        run = run_timed(args.workload, args.seed, args.seconds, args.smoke)
        samples = run["samples"]
        # no medians to report when every call failed
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
            if samples["invert_wall_s"]
        }
        for name, values in run["uncorrected"].items():
            if values:
                print(f"uncorrected {name}: median {statistics.median(values):.6g} s",
                      file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))  # fmt: skip
    return 0 if run["failed"] == 0 else 1


def host_block() -> dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if hasattr(os, "sched_getaffinity"):
        schedulable, source = len(os.sched_getaffinity(0)), "os.sched_getaffinity(0)"
    else:
        schedulable, source = os.cpu_count() or 1, "os.cpu_count()"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )  # fmt: skip
    return {
        "cpu_count": os.cpu_count(),
        "schedulable_cpus": schedulable,
        "schedulable_cpus_source": source,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_pins": BLAS_PINS,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def summarise(samples: list[float], unit: str) -> dict[str, Any]:
    q1, q3 = quartiles(samples)
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "samples": len(samples),
        "unit": unit,
    }


def full_main(args: argparse.Namespace) -> int:
    doc: dict[str, Any] = {
        "schema": "bench_e2e/1",
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_block(),
        "workloads": {},
        "derived": {},
    }
    failed_any = False
    for workload in WORKLOADS:
        shown = workload.smoke() if args.smoke else workload
        timed = run_timed(workload.name, args.seed, args.seconds, args.smoke)
        traced = run_traced(workload.name, args.seed, args.seconds, args.smoke)
        failed_any |= bool(timed["failed"] or traced["failed"])
        entry = {
            "n": shown.n,
            "config": shown.config,
            "observed": shown.observed,
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "failed_share": timed["failed"] / timed["attempted"],
            "traced_pairs": traced["attempted"] // 2,
            "traced_failed": traced["failed"],
            "counts_repeat": traced["counts_repeat"],
            "racy_counts": list(shown.racy_counts),
            "end_to_end": {
                name: summarise(timed["samples"][name], unit)
                for name, unit in END_TO_END.items()
                if timed["samples"][name]
            },
            # as the clock read them: what the correction started from
            "uncorrected": {
                name: summarise(values, "s")
                for name, values in timed["uncorrected"].items()
                if values
            },
            "per_layer": traced["metrics"],
        }
        doc["workloads"][workload.name] = entry
        print(f"\n== {workload.name}  n={shown.n} {shown.config}"
              f"{' observed' if shown.observed else ''}")
        print(f"   calls attempted {entry['attempted']}, failed {entry['failed']}"
              f" (failed_share {entry['failed_share']:.3f});"
              f" traced pairs {entry['traced_pairs']}")
        for name, row in entry["end_to_end"].items():
            print(f"   {name:<30} {row['median']:>14.6g} {row['unit']:<8}"
                  f" q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['samples']}")
        for name, row in entry["uncorrected"].items():
            print(f"   uncorrected {name:<18} {row['median']:>14.6g} {row['unit']:<8}"
                  f" q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['samples']}")
        for name, row in entry["per_layer"].items():
            print(f"   {name:<30} {row['value']:>14.6g} {row['unit']}")
        if shown.config.get("executor") == "processes":
            print("   (parent's view only: work inside the forked workers shows"
                  " as mapreduce.backend_wait_s)")

    plain = doc["workloads"]["deep_n512_nb16"]["end_to_end"].get("invert_wall_s")
    observed = doc["workloads"]["observed_n512_nb16"]["end_to_end"].get("invert_wall_s")
    if plain and observed:
        ratio = observed["median"] / plain["median"]
        doc["derived"]["telemetry.observe_overhead_ratio"] = {
            "value": ratio,
            "unit": "ratio",
            "base": "deep_n512_nb16.invert_wall_s",
        }
        print(f"\ntelemetry.observe_overhead_ratio {ratio:.4f}"
              " (observed_n512_nb16.invert_wall_s / deep_n512_nb16.invert_wall_s)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    if failed_any:
        print("FAILED: at least one correctness check did not pass", file=sys.stderr)
    return 1 if failed_any else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro source tree at {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quarter order, 2 calls, no time floor")
    parser.add_argument("--out", help=f"default {RESULTS.relative_to(ROOT)}"
                        " (smoke: out/BENCH_e2e_smoke.json)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.out is None:
        args.out = str(OUT_DIR / "BENCH_e2e_smoke.json" if args.smoke else RESULTS)
    return single_main(args) if args.workload else full_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
