"""The toll of a round, pinned: function calls of one deep inversion.

``deep_n512_nb16`` is the benchmark workload whose wall clock is mostly
per-operation overhead (33 jobs, 260 tasks, ~800 DFS reads on a small
matrix), and interpreter function calls are what that overhead is made of.
Its smoke shape (n=128, nb=4, m0=4: the same 33 jobs and the same operation
counts) runs here under cProfile against a stated budget, so a change that
puts the toll back — a path re-resolved per component, a scan per publish, a
successor map rebuilt per node — fails tier-1 instead of waiting for someone
to profile.  ``make profile W=deep_n512_nb16`` shows where the calls are.
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest

from repro import InversionConfig, invert

#: 152 575 calls measured here at the change that plans once per
#: ``(n, config)`` (192 174 at its parent, which rebuilt and re-linted the
#: pipeline model and re-cut every task's regions on every call), plus 10 %
#: headroom.  The count is deterministic for a serial run on one interpreter
#: version; the headroom is for other versions and for honest small
#: additions, not for a second walk.
CALL_BUDGET = 167_833

#: DFS read ops of the smoke shape: one per physical read — a whole-file
#: rectangle is one ``read_matrix``, a permutation file is read once per
#: assembly, and the cache serves repeats.  2 827 before that PR.
READ_OPS = 826

#: DFS write ops of the smoke shape: one per block stored, and every file
#: here is one block, so one per file created.
WRITE_OPS = 455


@pytest.fixture(scope="module")
def profiled_run():
    a = np.random.default_rng(0).standard_normal((128, 128))
    config = InversionConfig(nb=4, m0=4)
    warm = invert(a, config)  # imports, lazy set-up
    profiler = cProfile.Profile()
    profiler.enable()
    result = invert(a, config)
    profiler.disable()
    assert result.record.num_jobs == 33  # the shape the budget was measured on
    np.testing.assert_array_equal(result.inverse, warm.inverse)
    return result, pstats.Stats(profiler).total_calls  # type: ignore[attr-defined]


def test_deep_smoke_shape_stays_under_its_call_budget(profiled_run):
    _, calls = profiled_run
    assert calls <= CALL_BUDGET, (
        f"{calls} function calls for one deep inversion, budget {CALL_BUDGET}: "
        "run `make profile W=deep_n512_nb16` and compare with docs/performance.md"
    )


def test_deep_smoke_shape_reads_are_pinned(profiled_run):
    io = profiled_run[0].io
    assert io.read_ops == READ_OPS
    assert io.files_opened == io.read_ops  # every open is one read op


def test_deep_smoke_shape_writes_are_pinned(profiled_run):
    io = profiled_run[0].io
    assert io.write_ops == io.files_created == WRITE_OPS
    assert io.bytes_staged == io.bytes_published + io.bytes_discarded


def test_deep_smoke_shape_asks_the_namespace_once(monkeypatch):
    """Where every factor lives is fixed by the configuration, so the
    factor readers never probe the DFS: one call's only ``exists`` is the
    driver's check for a previous run's root."""
    from repro.dfs import DFS

    a = np.random.default_rng(0).standard_normal((128, 128))
    probes = []
    exists = DFS.exists

    def counted(dfs, path):
        probes.append(path)
        return exists(dfs, path)

    monkeypatch.setattr(DFS, "exists", counted)
    invert(a, InversionConfig(nb=4, m0=4))
    assert probes == ["/Root"]
