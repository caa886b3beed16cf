"""The toll of a round, pinned: function calls of one deep inversion.

``deep_n512_nb16`` is the benchmark workload whose wall clock is mostly
per-operation overhead (33 jobs, 260 tasks, ~2 800 DFS reads on a small
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

from repro import InversionConfig, invert

#: 314 385 calls measured here at the PR that introduced the flat namespace
#: index (617 071 at its parent), plus 15 % headroom.  The count is
#: deterministic for a serial run on one interpreter version; the headroom is
#: for other versions and for honest small additions, not for a second walk.
CALL_BUDGET = 362_000


def test_deep_smoke_shape_stays_under_its_call_budget():
    a = np.random.default_rng(0).standard_normal((128, 128))
    config = InversionConfig(nb=4, m0=4)
    warm = invert(a, config)  # imports, lazy set-up
    profiler = cProfile.Profile()
    profiler.enable()
    result = invert(a, config)
    profiler.disable()
    assert result.record.num_jobs == 33  # the shape the budget was measured on
    np.testing.assert_array_equal(result.inverse, warm.inverse)
    calls = pstats.Stats(profiler).total_calls  # type: ignore[attr-defined]
    assert calls <= CALL_BUDGET, (
        f"{calls} function calls for one deep inversion, budget {CALL_BUDGET}: "
        "run `make profile W=deep_n512_nb16` and compare with docs/performance.md"
    )
