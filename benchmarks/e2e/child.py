"""One workload in one fresh interpreter; started by ``run.py``, never by hand.

Set-up (import ``repro``, build the input, one full-size warm-up call), then
either the timed closed loop (``--trace 0``), the traced passes (``--trace 1``)
or nothing (``--setup-only``, a set-up sample).  The last line of standard
output is one JSON object for ``run.py``.

The recording host's speed moves by a third in phases of minutes, so every
end-to-end time is reported at the reference host speed: multiplied by
``CALIB_REF_S`` over the time a fixed calibration kernel took right next to
it (:func:`calibrate`, :func:`at_ref_speed`; README, "Host-speed correction").
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable

import numpy as np

import repro
from spec import BY_NAME, CALL_ROWS, TOTAL_LAYERS, Workload
from tracing import ROWS, LayerTracer, row_table, write_jsonl

#: ``max|I - A A^-1|`` above which an inverse counts as wrong.
RESIDUAL_LIMIT = 1e-8
NUMPY_REF_REPS = 5
#: Fewest timed calls (or plain/traced pairs) of a run, however short.
MIN_REPS = 3
SMOKE_REPS = 2
_RUSAGE_WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)

#: What one calibration kernel run takes on the recording host in its quiet
#: phase.  A fixed scale factor: it makes corrected seconds read like measured
#: ones.
CALIB_REF_S = 0.033
#: Kernel runs per calibration; their median is the calibration.
CALIB_RUNS = 3
_CAL_MATRIX = np.random.default_rng(12345).standard_normal((320, 320))
_CAL_SRC = np.ones(1 << 20)
_CAL_DST = np.zeros(1 << 20)


def calibration_kernel() -> float:
    """Seconds for a fixed piece of work that uses nothing of ``repro``.

    About a third each of LAPACK/BLAS, interpreter and memory-copy work, the
    three things an ``invert`` call spends its time on.
    """
    t0 = time.perf_counter()
    np.linalg.inv(_CAL_MATRIX)
    np.linalg.inv(_CAL_MATRIX)
    table: dict[int, int] = {}
    acc = 0
    for i in range(120_000):
        table[i & 1023] = acc
        acc += i * 3 % 7
    for _ in range(12):
        np.copyto(_CAL_DST, _CAL_SRC)
    return time.perf_counter() - t0


def calibrate() -> float:
    """The host's pace now: median seconds of a few kernel runs (~0.1 s)."""
    return statistics.median(calibration_kernel() for _ in range(CALIB_RUNS))


def at_ref_speed(seconds: float, calib_before: float, calib_after: float) -> float:
    """``seconds`` as they would read with the host at its reference speed."""
    return seconds * CALIB_REF_S / (0.5 * (calib_before + calib_after))


def make_input(workload: Workload, seed: int) -> np.ndarray:
    """Dense standard normal, no diagonal shift: pivoting really swaps rows."""
    return np.random.default_rng(seed).standard_normal((workload.n, workload.n))


def make_call(workload: Workload) -> Callable[[np.ndarray], Any]:
    """The operation under test: one ``repro.invert`` on a fresh runtime."""
    config = repro.InversionConfig(**workload.config)
    if not workload.observed:
        return lambda a: (repro.invert(a, config), 0)

    def observed(a: np.ndarray) -> Any:
        with repro.observe() as obs:
            result = repro.invert(a, config)
        return result, len(obs.spans)

    return observed


def residual(a: np.ndarray, inverse: np.ndarray) -> float:
    return float(np.max(np.abs(np.eye(a.shape[0]) - a @ inverse)))


def cpu_seconds() -> float:
    """Process CPU so far: user + system, self + reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, _RUSAGE_WHO)
    )


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in _RUSAGE_WHO) / 1024.0


def timed_reps(
    call: Callable[[np.ndarray], Any], a: np.ndarray, seconds: float, min_reps: int
) -> dict[str, Any]:
    """Closed loop, one client: call until ``seconds`` have passed.

    A calibration runs between the calls, outside their timing; each call's
    wall and CPU seconds are corrected by the two calibrations around it.

    A call fails when it raises, when its inverse differs by one byte from
    the first good call's, or (judged once, for all identical inverses) when
    that inverse's residual exceeds :data:`RESIDUAL_LIMIT`.
    """
    walls: list[float] = []
    cpus: list[float] = []
    raw_walls: list[float] = []
    calibs: list[float] = []
    attempted = raised = differing = 0
    first: np.ndarray | None = None
    deadline = time.perf_counter() + seconds
    calib = calibrate()
    while attempted < min_reps or time.perf_counter() < deadline:
        attempted += 1
        calib_before = calib
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result, _ = call(a)
        except Exception:  # the loop must go on, and count the failure
            traceback.print_exc()
            raised += 1
            result = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        calib = calibrate()
        if result is None:
            continue
        walls.append(at_ref_speed(wall, calib_before, calib))
        cpus.append(at_ref_speed(cpu, calib_before, calib))
        raw_walls.append(wall)
        calibs.append(calib)
        if first is None:
            first = result.inverse
        elif not np.array_equal(first, result.inverse):
            differing += 1
    failed = raised + differing
    residual_max = residual(a, first) if first is not None else float("inf")
    if residual_max > RESIDUAL_LIMIT:
        failed = attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "residual_max": residual_max,
        "samples": {"invert_wall_s": walls, "invert_cpu_s": cpus},
        "uncorrected": {"invert_wall_s": raw_walls, "calib_s": calibs},
    }


def result_counts(result: Any, telemetry_spans: int) -> dict[str, float]:
    """The exact counts a finished run carries in its ``InversionResult``."""
    record, io = result.record, result.io
    traces = record.all_traces()
    jobs = record.job_results
    return {
        "linalg.flops": result.total_flops(),
        "dfs.bytes_read": io.bytes_read,
        "dfs.bytes_written": io.bytes_written,
        "dfs.read_ops": io.read_ops,
        "dfs.write_ops": io.write_ops,
        "dfs.files_published": io.files_published,
        "mapreduce.jobs": record.num_jobs,
        "mapreduce.tasks": len(traces),
        "mapreduce.attempts_launched": sum(j.attempts_launched for j in jobs),
        "mapreduce.attempts_failed": sum(j.attempts_failed for j in jobs),
        "mapreduce.bytes_shuffled": sum(t.bytes_shuffled for t in traces),
        "telemetry.spans": telemetry_spans,
    }


def result_timings(result: Any) -> dict[str, float]:
    """Seconds the run measured about itself (no wrappers involved)."""
    record, io = result.record, result.io
    task_wall = sum(t.wall_seconds for t in record.all_traces())
    job_wall = sum(j.wall_seconds for j in record.job_results)
    report = result.scheduler_report
    lookups = io.cache_hits + io.cache_misses
    return {
        "dfs.cache_hit_ratio": io.cache_hits / lookups if lookups else 0.0,
        "mapreduce.sched_wait_s": sum(report.waits.values()) if report else 0.0,
        "mapreduce.task_wall_s": task_wall,
        "mapreduce.job_overhead_s": job_wall - task_wall,
        "mapreduce.master_phase_s": sum(p.wall_seconds for p in record.master_phases),
    }


def traced_pass(
    call: Callable[[np.ndarray], Any], a: np.ndarray
) -> tuple[dict[str, float], list, Any]:
    """One call with the wrappers on: layer table, spans and the result."""
    tracer = LayerTracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        result, _ = call(a)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = list(tracer.spans)
    table = row_table(spans)
    out: dict[str, float] = {f"{row}_s": table[row]["self_s"] for row in ROWS}
    out.update({f"{row}_calls": table[row]["calls"] for row in CALL_ROWS})
    for layer in TOTAL_LAYERS:
        out[f"{layer}.total_s"] = sum(
            table[row]["self_s"] for row in ROWS if row.startswith(layer + ".")
        )
    traced = sum(table[row]["self_s"] for row in ROWS)
    out["trace.wall_s"] = wall
    out["trace.untraced_s"] = wall - traced
    return out, spans, result


def traced_run(
    workload: Workload,
    call: Callable[[np.ndarray], Any],
    a: np.ndarray,
    seconds: float,
    min_pairs: int,
    trace_path: str,
) -> dict[str, Any]:
    """Pairs of (plain call, traced call) until ``seconds`` have passed.

    Times are means over the pairs, so the layer rows still sum to the wall
    time; counts must be the same in every call of the run, except the
    workload's ``racy_counts``, which are means too.
    """
    ref_times = []
    for _ in range(NUMPY_REF_REPS):
        t0 = time.perf_counter()
        reference = np.linalg.inv(a)
        ref_times.append(time.perf_counter() - t0)
    del reference

    plain_walls: list[float] = []
    calibs: list[float] = []
    sums: dict[str, float] = {}
    exact: dict[str, float] = {}
    counts_repeat = identical = True
    first: np.ndarray | None = None
    pairs = 0
    deadline = time.perf_counter() + seconds
    while pairs < min_pairs or time.perf_counter() < deadline:
        calibs.append(calibrate())
        t0 = time.perf_counter()
        result, spans_seen = call(a)
        plain_walls.append(time.perf_counter() - t0)
        timings = result_timings(result)
        table, spans, traced_result = traced_pass(call, a)
        counts = result_counts(result, spans_seen)
        racy = {key: counts.pop(key) for key in workload.racy_counts}
        if pairs == 0:
            write_jsonl(spans, trace_path, f"{workload.name}-pass0")
            first = result.inverse
            exact = counts
        counts_repeat &= counts == exact
        identical &= np.array_equal(first, result.inverse)
        identical &= np.array_equal(first, traced_result.inverse)
        for key, value in {**table, **timings, **racy}.items():
            sums[key] = sums.get(key, 0.0) + value
        pairs += 1

    metrics = {key: value / pairs for key, value in sums.items()}
    metrics.update(exact)
    plain = statistics.median(plain_walls)
    wall = metrics["trace.wall_s"]
    metrics["trace.coverage"] = (wall - metrics["trace.untraced_s"]) / wall
    metrics["trace.overhead_ratio"] = wall / plain
    linalg = metrics["linalg.total_s"]
    metrics["linalg.gflops"] = metrics["linalg.flops"] / linalg / 1e9 if linalg else 0.0
    metrics["ref.numpy_inv_s"] = statistics.median(ref_times)
    metrics["ref.x_numpy"] = plain / metrics["ref.numpy_inv_s"]
    metrics["ref.residual_max"] = residual(a, first)
    metrics["ref.calib_s"] = statistics.median(calibs)
    ok = counts_repeat and identical and metrics["ref.residual_max"] <= RESIDUAL_LIMIT
    return {
        "attempted": 2 * pairs,
        "failed": 0 if ok else 2 * pairs,
        "counts_repeat": counts_repeat,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before the spawn")
    parser.add_argument("--trace-path", required=True)
    args = parser.parse_args(argv)

    workload = BY_NAME[args.workload]
    min_reps = MIN_REPS
    if args.smoke:
        workload, min_reps = workload.smoke(), SMOKE_REPS
    a = make_input(workload, args.seed)
    call = make_call(workload)
    call(a)  # warm-up: lazy imports, analyzer caches, BLAS init, first pool
    # The first call's one-time pre-flights leave cyclic garbage (~200 000 AST
    # nodes before a process pool).  Whether the interpreter happens to collect
    # it before the timed calls decided if every forked worker inherited and
    # collected it at exit: 0.85 s or 0.69 s per procs_n1024 call, by checkout.
    gc.collect()
    setup = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    calib = calibrate()
    out: dict[str, Any] = {
        "setup_s": at_ref_speed(setup, calib, calib),
        "setup_uncorrected_s": setup,
    }
    if args.trace and not args.setup_only:
        out.update(
            traced_run(workload, call, a, args.seconds, min_reps, args.trace_path)
        )
    elif not args.setup_only:
        out.update(timed_reps(call, a, args.seconds, min_reps))
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
