"""cProfile (or the memory high-water mark) of one ``repro.invert`` call of
an end-to-end benchmark workload.

Usage:  python scripts/profile_call.py --workload W [--smoke] [--top 25]
        python scripts/profile_call.py --workload W --children [--smoke]
        python scripts/profile_call.py --workload W --memory [--smoke]
        make profile W=deep_n512_nb16
        make profile W=procs_n1024 CHILDREN=1
        make profile-mem W=kernel_n1536

One warm-up call, then one profiled call of the workload exactly as
``benchmarks/e2e/child.py`` makes it (same input generator, same
``InversionConfig``).  Printed: total function calls, self time grouped by
source file (``src/repro/<package>/<file>``; everything else under its
top-level package), the top rows by self time, and under them the profiled
call's DFS ledger in two lines: the read half (read ops, files opened, cache
hits and misses, bytes read) and the write half (files created, write ops,
files deleted, bytes staged, published and discarded).  Under the ledger, the
call's namespace lookups (``DFS.exists`` calls; the driver's one root check
on a serial call), then the call's ``zlib.crc32`` calls (from the profile)
and the bytes the block store checksummed (counted by a stand-in for
``zlib`` in ``repro.dfs.blocks``): both zero on a fault-free call, so a
CRC back on the write or read path shows.  Under it, the matrix writes:
the ``bytes.join`` and ``numpy.ascontiguousarray`` calls made from
``repro/dfs/formats.py`` (0 when every written matrix goes straight into
its payload) and the call's minor page faults (the
``ru_minflt`` delta of this process), the first touches of fresh memory.
Then the call's leaf LU: ``lu_decompose`` calls, their cumulative seconds
(under the profiler's overhead), and which kernel ran them, ``dgetf2`` from
numpy's OpenBLAS or the ``numpy`` fallback loop (``-`` if none ran on the
profiled thread).  Under it, the call's triangular leaves (Equation 4 and
the LU jobs' solves): leaf steps, the cumulative seconds of the steps (and
of the fallback's stack of inverted blocks), and which kernel solved them,
``dtrsm`` from numpy's OpenBLAS or the ``numpy`` inverted-block fallback.

For ``observed_n512_nb16``, whose calls run inside ``repro.observe()``, it
also prints the profiled call's spans by kind and the DFS records folded into
them by op — the read and export records together equal the ledger's read
ops.  Against ``deep_n512_nb16``, its untraced twin, that is the telemetry's
cost.

Call counts and the ledger are deterministic for the serial workloads, so
they are the numbers to compare across revisions; ``tests/test_call_budget.py``
pins the smoke shape of ``deep_n512_nb16``.  This only *imports* the harness's
``spec.py``; nothing under ``benchmarks/e2e/`` is written.

``--children`` also profiles the pool workers of the profiled call (the
process-pool workload): before the pool forks, this script replaces
``repro.mapreduce.backends._worker_main`` with a wrapper that runs the
worker loop under cProfile and dumps one profile per worker to a temporary
directory.  The workers' profiles are printed merged, below the driver's.
It needs the ``fork`` start method (a spawned worker re-imports the
unwrapped loop), and a worker killed mid-attempt leaves no profile.

``--memory`` traces the call with :mod:`tracemalloc` instead and prints its
peak in units of one ``n x n`` float64 matrix (``8 n^2`` bytes), the peak
reached inside each unit (every job's map and reduce phase, the master
phases, the leaf LU phases as one row), the top
allocation sites live at the peak, and what the DFS held at the peak: live
file bytes by file class (each payload once — replicas share it) and the
block cache's views, split into views of a stored payload and private
copies.  After a traced warm-up the call runs twice: the first pass finds
the peak, the second stops at it (the first sample within 0.5 % of it, taken
at every function return) to take the snapshot.  Only this process is
traced, so on the process-pool workload the children's work is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pathlib
import pstats
import re
import resource
import sys
import tempfile
import threading
import tracemalloc
import zlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.dont_write_bytecode = True  # nothing is written under benchmarks/e2e/
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from spec import BY_NAME, Workload  # noqa: E402


def profile_children(out_dir: str) -> None:
    """Make every pool worker forked from now on run its loop under
    cProfile and dump ``worker-<pid>.prof`` into ``out_dir`` as it exits."""
    from repro.mapreduce import backends

    worker_main = backends._worker_main

    def profiled_worker_main(conn, shared_tracker: bool) -> None:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            worker_main(conn, shared_tracker)
        finally:
            profiler.disable()
            profiler.dump_stats(os.path.join(out_dir, f"worker-{os.getpid()}.prof"))

    backends._worker_main = profiled_worker_main


class CrcBytes:
    """Stands in for ``zlib`` in :mod:`repro.dfs.blocks`, summing the bytes
    every ``crc32`` call there covers."""

    def __init__(self) -> None:
        self.nbytes = 0

    def crc32(self, data, value: int = 0) -> int:
        self.nbytes += len(data)
        return zlib.crc32(data, value)


def profile_workload(
    workload: Workload, seed: int = 0, children_dir: str | None = None
) -> tuple[pstats.Stats, repro.dfs.IOSnapshot, repro.Observation | None, int, int]:
    """Warm up once, then profile one call: the profile of that call alone,
    its DFS ledger, for an observed workload its observation, the bytes
    the block store checksummed and the call's minor page faults.  With
    ``children_dir``, that call's pool workers are profiled too."""
    a = np.random.default_rng(seed).standard_normal((workload.n, workload.n))
    config = repro.InversionConfig(**workload.config)

    def call() -> tuple[repro.InversionResult, repro.Observation | None]:
        if workload.observed:
            with repro.observe() as obs:
                return repro.invert(a, config), obs
        return repro.invert(a, config), None

    call()
    if children_dir is not None:
        profile_children(children_dir)
    crc = CrcBytes()
    blocks = repro.dfs.blocks
    blocks.zlib, real_zlib = crc, blocks.zlib  # type: ignore[assignment]
    profiler = cProfile.Profile()
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        profiler.enable()
        result, obs = call()
        profiler.disable()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        blocks.zlib = real_zlib
    return pstats.Stats(profiler), result.io, obs, crc.nbytes, faults


#: The DFS ledger fields printed under the driver's table: a round's reads,
#: then its writes, commits and retirements.
LEDGER = (
    ("read_ops", "files_opened", "cache_hits", "cache_misses", "bytes_read"),
    (
        "files_created", "write_ops", "files_deleted",
        "bytes_staged", "bytes_published", "bytes_discarded",
    ),
)


def print_ledger(
    io, obs: repro.Observation | None, stats: pstats.Stats, crc_bytes: int, faults: int
) -> None:
    """The profiled call's DFS ledger (``InversionResult.io``), its CRC
    work, its matrix-write copies and page faults and, when the call was
    observed, its spans by kind and the DFS records folded into them (plus
    the tracer's root list) by op."""
    for half, names in zip(("reads ", "writes"), LEDGER):
        fields = "  ".join(f"{name} {getattr(io, name):,}" for name in names)
        print(f"DFS ledger of the profiled call, {half}:  {fields}")
    print_namespace_lookups(stats)
    crc_calls = sum(
        ncalls
        for (_, _, name), (_, ncalls, *_) in stats.stats.items()  # type: ignore[attr-defined]
        if name == "<built-in method zlib.crc32>"
    )
    print(f"zlib.crc32 in the profiled call:  calls {crc_calls:,}  bytes {crc_bytes:,}")
    print_matrix_writes(stats, faults)
    print_leaf_lu(stats)
    print_triangular_leaves(stats)
    if obs is None:
        return
    spans: dict[str, int] = defaultdict(int)
    records: dict[str, int] = defaultdict(int)
    for span in obs.spans:
        spans[span.kind.value] += 1
        for op, *_ in span.io:
            records[op] += 1
    for op, *_ in obs.root_io:
        records[op] += 1

    def line(counts: dict[str, int]) -> str:
        return "  ".join(f"{name} {count:,}" for name, count in counts.items())

    print(f"telemetry: {len(obs.spans):,} spans:  {line(spans)}")
    print(f"           {sum(records.values()):,} folded DFS records:  {line(records)}")


def print_namespace_lookups(stats: pstats.Stats) -> None:
    """The call's ``DFS.exists`` calls: questions to the namespace that the
    precomputed layout should already answer."""
    filesystem = os.path.join("repro", "dfs", "filesystem.py")
    calls = sum(
        ncalls
        for (filename, _, name), (_, ncalls, *_) in stats.stats.items()  # type: ignore[attr-defined]
        if name == "exists" and filename.endswith(filesystem)
    )
    print(f"namespace lookups in the profiled call:  DFS.exists {calls:,}")


#: What an encoder copying a finished array calls on its way to a payload.
ENCODE_COPIES = (
    "<method 'join' of 'bytes' objects>",
    "<built-in method numpy.ascontiguousarray>",
)


def print_matrix_writes(stats: pstats.Stats, faults: int) -> None:
    """The ``bytes.join`` / ``numpy.ascontiguousarray`` calls whose caller is
    in ``repro/dfs/formats.py``, and the call's minor page faults."""
    formats = os.path.join("repro", "dfs", "formats.py")
    copies = sum(
        calls[1]
        for (_, _, name), (*_, callers) in stats.stats.items()  # type: ignore[attr-defined]
        if name in ENCODE_COPIES
        for (filename, _, _), calls in callers.items()
        if filename.endswith(formats)
    )
    print(
        f"matrix writes in the profiled call:  join/ascontiguousarray from formats {copies:,}"
        f"  minor page faults {faults:,}"
    )


def print_leaf_lu(stats: pstats.Stats) -> None:
    """The call's ``lu_decompose`` calls, their cumulative seconds, and the
    kernel that ran them: ``dgetf2`` when ``repro.linalg.lu._compiled`` was
    entered, else the NumPy loop; ``-`` when no leaf LU ran on the profiled
    thread (the threads executor's dataflow schedule runs it on its own)."""
    calls, seconds, compiled = 0, 0.0, 0
    for (filename, _, name), (_, ncalls, _, cumtime, _) in stats.stats.items():  # type: ignore[attr-defined]
        if not filename.endswith(os.path.join("repro", "linalg", "lu.py")):
            continue
        if name == "lu_decompose":
            calls += ncalls
            seconds += cumtime
        elif name == "_compiled":
            compiled += ncalls
    kernel = "dgetf2" if compiled else "numpy" if calls else "-"
    print(f"leaf LU in the profiled call:  kernel {kernel}  calls {calls:,}  seconds {seconds:.4f}")


def print_triangular_leaves(stats: pstats.Stats) -> None:
    """The call's triangular leaf steps (``_Leaves.solve`` in
    ``repro.linalg.triangular``), their cumulative seconds plus those of the
    fallback's ``_leaf_blocks`` stacks, and the kernel that solved them:
    ``dtrsm`` when ``repro.linalg._openblas.trsm`` was entered, else the
    inverted-block fallback; ``-`` when no leaf ran on the profiled
    thread."""
    calls, seconds, compiled = 0, 0.0, 0
    for (filename, _, name), (_, ncalls, _, cumtime, _) in stats.stats.items():  # type: ignore[attr-defined]
        if filename.endswith(os.path.join("repro", "linalg", "triangular.py")):
            if name == "solve":
                calls += ncalls
                seconds += cumtime
            elif name == "_leaf_blocks":
                seconds += cumtime
        elif filename.endswith(os.path.join("repro", "linalg", "_openblas.py")) and name == "trsm":
            compiled += ncalls
    kernel = "dtrsm" if compiled else "numpy" if calls else "-"
    print(
        f"triangular leaves in the profiled call:  kernel {kernel}  calls {calls:,}  seconds {seconds:.4f}"
    )


def source_group(filename: str) -> str:
    """``src/repro/<package>/<file>`` for this tree, else a coarse bucket."""
    if filename.startswith(("~", "<")):
        return "<built-in>"
    path = pathlib.Path(filename)
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        pass
    parts = path.parts
    if "site-packages" in parts:
        return parts[parts.index("site-packages") + 1]
    return "<stdlib>"


def self_time_by_file(stats: pstats.Stats) -> dict[str, tuple[float, int]]:
    """Group -> (self seconds, calls)."""
    groups: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.stats.items():  # type: ignore[attr-defined]
        cell = groups[source_group(filename)]
        cell[0] += tottime
        cell[1] += ncalls
    return {name: (cell[0], int(cell[1])) for name, cell in groups.items()}


#: DFS file classes, first match wins: what the pipeline keeps where.
FILE_CLASSES: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("staging /_tmp", re.compile(r"^/_tmp/")),
    ("manifests _commit/", re.compile(r"/_commit/")),
    ("control MapInput/", re.compile(r"/MapInput/")),
    ("input a.bin", re.compile(r"/a\.(bin|txt)$")),
    ("INV/L.*, INV/U.*", re.compile(r"/INV/")),
    ("FINAL/A.*", re.compile(r"/FINAL/")),
    ("Schur OUT/A.*", re.compile(r"/OUT/A\.")),
    ("factors L2/U2, l/u/p.bin", re.compile(r"/[LU]2/|/OUT/(l|u|ut|p)\.bin$")),
    ("partition A2/A3/A4, A.i", re.compile(r"/A[234]/|/A\.\d+$")),
)


def file_class(path: str) -> str:
    for name, pattern in FILE_CLASSES:
        if pattern.search(path):
            return name
    return "other"


def dfs_composition(dfs) -> tuple[dict[str, int], dict[str, int]]:
    """Live DFS bytes by file class, and the block cache's bytes split into
    views of a stored payload and private copies."""
    by_class: dict[str, int] = defaultdict(int)
    payloads: set[int] = set()
    namenode = dfs.namenode
    for path in namenode.walk_files("/", include_pending=True):
        entry = namenode.get_file(path, include_pending=True)
        by_class[file_class(path)] += entry.length
        for info in entry.blocks:
            for node in dfs.blocks.datanodes:
                payload = node.get(info.block_id)
                if payload is not None:
                    payloads.add(id(payload))
    cache = {"views of a stored payload": 0, "private copies": 0}
    if dfs.cache is not None:
        with dfs.cache._lock:
            cached = list(dfs.cache._entries.values())
        for array in cached:
            base = array
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            if isinstance(base, memoryview):
                base = base.obj
            shared = id(base) in payloads
            cache["views of a stored payload" if shared else "private copies"] += array.nbytes
    return dict(by_class), cache


class _PeakProbe:
    """Samples traced memory at every function return; once armed with a
    target, snapshots the heap and the DFS the first time it is reached."""

    def __init__(self, dfs, target: int | None) -> None:
        self.dfs = dfs
        self.target = target
        self.seen = 0
        self.snapshot: tracemalloc.Snapshot | None = None
        self.at_snapshot = 0
        self.composition: tuple[dict[str, int], dict[str, int]] | None = None

    def __call__(self, frame, event, arg) -> None:
        if event not in ("return", "c_return"):
            return
        current = tracemalloc.get_traced_memory()[0]
        if current > self.seen:
            self.seen = current
        if self.target is not None and self.snapshot is None and current >= self.target:
            self.at_snapshot = current
            self.snapshot = tracemalloc.take_snapshot()
            self.composition = dfs_composition(self.dfs)


class _UnitPeaks:
    """The traced peak reached inside each pipeline unit.

    Every map or reduce phase of a job (``<job>[map]``, ``<job>[reduce]``)
    and every master phase resets the tracemalloc peak on entry and files
    it under its name on exit; the leaf LU phases share one row.  What runs
    between units (the shuffle, commits and their deletes, the driver) is
    filed under :attr:`BETWEEN`, so the largest row is the call's peak.
    Units that overlap (the dataflow workload) share their peaks.
    """

    BETWEEN = "(between units)"

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}
        self._undo: list = []

    def _file(self, label: str) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self.peaks[label] = max(self.peaks.get(label, 0), peak)
        tracemalloc.reset_peak()

    def _wrap(self, owner: type, attr: str, label_of) -> None:
        inner = getattr(owner, attr)

        def unit(*args, **kwargs):
            self._file(self.BETWEEN)
            try:
                return inner(*args, **kwargs)
            finally:
                self._file(label_of(*args))

        setattr(owner, attr, unit)
        self._undo.append(lambda: setattr(owner, attr, inner))

    def __enter__(self) -> "_UnitPeaks":
        from repro.mapreduce.master import JobTracker
        from repro.mapreduce.pipeline import Pipeline

        self._wrap(
            JobTracker, "_run_phase", lambda _, conf, kind, *rest: f"{conf.name}[{kind.value}]"
        )
        self._wrap(
            Pipeline,
            "execute_phase",
            lambda _, name, *rest: "master-lu (leaves)" if name.startswith("master-lu:") else name,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._file(self.BETWEEN)
        for undo in self._undo:
            undo()


def memory_profile(
    workload: Workload, seed: int = 0
) -> tuple[int, _PeakProbe, dict[str, int]]:
    """Warm up, then trace two calls: (peak bytes, probe of the second, the
    first's peak per unit)."""
    a = np.random.default_rng(seed).standard_normal((workload.n, workload.n))
    config = repro.InversionConfig(**workload.config)

    def traced_call(target: int | None) -> tuple[_UnitPeaks, _PeakProbe]:
        inverter = repro.MatrixInverter(config)
        probe = _PeakProbe(inverter.runtime.dfs, target)
        tracemalloc.start(8)
        sys.setprofile(probe)
        threading.setprofile(probe)
        try:
            with _UnitPeaks() as units:
                if workload.observed:
                    with repro.observe():
                        inverter.invert(a)
                else:
                    inverter.invert(a)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)  # type: ignore[arg-type]
            tracemalloc.stop()
            inverter.close()
        return units, probe

    traced_call(None)  # warm-up, traced too: the first traced call runs higher
    units, first = traced_call(None)
    _, second = traced_call(int(first.seen * 0.995))
    return max(units.peaks.values()), second, units.peaks


def print_memory(workload: Workload, top: int) -> None:
    peak, probe, unit_peaks = memory_profile(workload)
    unit = 8 * workload.n**2
    print(f"{workload.name}: n={workload.n} {workload.config}")
    print(
        f"tracemalloc peak: {peak / unit:.2f} n^2 ({peak / 2**20:.1f} MiB; "
        f"n^2 = {unit / 2**20:.1f} MiB)\n"
    )
    print(f"{'traced peak inside each unit':<34}{'n^2':>8}")
    between = unit_peaks.pop(_UnitPeaks.BETWEEN, 0)
    for name, nbytes in [*unit_peaks.items(), (_UnitPeaks.BETWEEN, between)]:
        print(f"  {name:<32}{nbytes / unit:>8.2f}")
    print()
    if probe.snapshot is None or probe.composition is None:
        print("the second pass never reached the first pass's peak")
        print("(a threaded run does not repeat; run again, or a serial workload)")
        return
    print(f"snapshot at {probe.at_snapshot / unit:.2f} n^2\n")
    by_class, cache = probe.composition
    print(f"{'live DFS files at the peak':<34}{'n^2':>8}")
    for name, nbytes in sorted(by_class.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<32}{nbytes / unit:>8.2f}")
    print(f"  {'total':<32}{sum(by_class.values()) / unit:>8.2f}")
    print(f"{'block cache at the peak':<34}{'n^2':>8}")
    for name, nbytes in cache.items():
        print(f"  {name:<32}{nbytes / unit:>8.2f}")
    print(f"\ntop {top} allocation sites live at the peak")
    stats = probe.snapshot.filter_traces(
        (tracemalloc.Filter(False, tracemalloc.__file__),)
    ).statistics("lineno")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        print(f"{stat.size / unit:>8.2f} n^2  {source_group(frame.filename)}:{frame.lineno}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--smoke", action="store_true", help="quarter-order shape")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument(
        "--memory", action="store_true", help="tracemalloc peak instead of cProfile"
    )
    parser.add_argument(
        "--children", action="store_true",
        help="also profile the pool workers (merged, below the driver)",
    )
    args = parser.parse_args()
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if args.memory:
        print_memory(workload, min(args.top, 12))
        return 0
    print(f"{workload.name}: n={workload.n} {workload.config}")
    if not args.children:
        stats, io, obs, crc_bytes, faults = profile_workload(workload)
        print_profile("", stats, args.top)
        print_ledger(io, obs, stats, crc_bytes, faults)
        return 0
    with tempfile.TemporaryDirectory() as children_dir:
        driver, io, obs, crc_bytes, faults = profile_workload(
            workload, children_dir=children_dir
        )
        dumps = sorted(pathlib.Path(children_dir).glob("worker-*.prof"))
        print_profile("driver: ", driver, args.top)
        print_ledger(io, obs, driver, crc_bytes, faults)
        if not dumps:
            print("no worker profiles (not a process-pool workload, or no fork)")
            return 1
        print_profile(
            f"workers ({len(dumps)} merged): ",
            pstats.Stats(*(str(d) for d in dumps)),
            args.top,
        )
    return 0


def print_profile(title: str, stats: pstats.Stats, top: int) -> None:
    total_s = stats.total_tt  # type: ignore[attr-defined]
    print(f"{title}total calls: {stats.total_calls}   self time: {total_s:.4f} s\n")  # type: ignore[attr-defined]
    print(f"{'file':<44}{'self_s':>9}{'share':>8}{'calls':>10}")
    by_file = sorted(self_time_by_file(stats).items(), key=lambda kv: -kv[1][0])
    for name, (seconds, calls) in by_file:
        if seconds / total_s >= 0.002:
            print(f"{name:<44}{seconds:>9.4f}{seconds / total_s:>8.1%}{calls:>10}")
    print()
    stats.sort_stats("tottime").print_stats(top)


if __name__ == "__main__":
    raise SystemExit(main())
