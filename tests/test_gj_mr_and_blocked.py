"""The blocked triangular solvers and the kernels' speed guards."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.linalg import (
    blocked_back_substitute,
    blocked_forward_substitute,
    back_substitute,
    forward_substitute,
)


class TestBlockedSolvers:
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 200])
    def test_forward_matches_row_kernel(self, rng, n):
        l = np.tril(rng.standard_normal((n, n))) + 2 * np.eye(n)
        b = rng.standard_normal((n, 3))
        assert np.allclose(
            blocked_forward_substitute(l, b, block=16), forward_substitute(l, b)
        )

    @pytest.mark.parametrize("n", [1, 63, 64, 130])
    def test_back_matches_row_kernel(self, rng, n):
        u = np.triu(rng.standard_normal((n, n))) + 2 * np.eye(n)
        b = rng.standard_normal(n)
        assert np.allclose(
            blocked_back_substitute(u, b, block=16), back_substitute(u, b)
        )

    def test_unit_diagonal(self, rng):
        # NB: random unit-lower matrices are exponentially ill-conditioned in
        # n, so compare the two kernels against each other (identical
        # arithmetic), not against the true solution.
        n = 100
        l = np.tril(rng.standard_normal((n, n)), k=-1) + np.eye(n)
        b = rng.standard_normal((n, 2))
        blocked = blocked_forward_substitute(l, b, unit_diagonal=True, block=32)
        rowwise = forward_substitute(l, b, unit_diagonal=True)
        assert np.allclose(blocked, rowwise, rtol=1e-8, atol=1e-8)

    def test_solves_correctly(self, rng):
        n = 150
        l = np.tril(rng.standard_normal((n, n))) + 3 * np.eye(n)
        x_true = rng.standard_normal(n)
        assert np.allclose(
            blocked_forward_substitute(l, l @ x_true), x_true, atol=1e-8
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="rows"):
            blocked_forward_substitute(np.eye(4), np.zeros(5))

    def test_blocked_is_faster_on_many_rhs(self):
        """The BLAS-3 formulation wins on large triangular solves with many
        right-hand sides (the guide's cache argument)."""
        t_row, t_blk = _min_of_4_in_pinned_child(
            """
            n = 400
            l = np.tril(rng.standard_normal((n, n))) + 3 * np.eye(n)
            b = rng.standard_normal((n, n))
            """,
            "forward_substitute(l, b)",
            "blocked_forward_substitute(l, b, block=64)",
        )
        # Generous margin: timing on shared CI boxes is noisy; the blocked
        # kernel should at minimum not be slower.
        assert t_blk < t_row * 1.1

    def test_column_kernel_is_blas3(self):
        """Speed guard for ``invert_lower_columns``: a return to one GEMV per
        row fails here, not in the next benchmark run (measured ~8x at n=1536
        and ~5x at n=1024 on columns ``::2``)."""
        t_row, t_blk = _min_of_4_in_pinned_child(
            """
            n = 768
            l = np.tril(rng.standard_normal((n, n))) + n**0.5 * np.eye(n)
            cols = np.arange(0, n, 2)
            rhs = np.eye(n)[:, cols]
            """,
            "forward_substitute(l, rhs)",
            "invert_lower_columns(l, cols)",
        )
        assert t_blk < 0.5 * t_row

    def test_leaves_are_blas3(self):
        """Speed guard for the leaf step: with 128 right-hand sides at n=512
        the off-diagonal GEMMs are cheap and the leaves decide.  A row loop
        under the recursion measured 0.85x of the plain row loop, inverted
        leaf blocks ~0.5x."""
        t_row, t_blk = _min_of_4_in_pinned_child(
            """
            n = 512
            l = np.tril(rng.standard_normal((n, n))) + n**0.5 * np.eye(n)
            b = rng.standard_normal((n, 128))
            """,
            "forward_substitute(l, b)",
            "blocked_forward_substitute(l, b)",
        )
        assert t_blk < 0.7 * t_row

    def test_column_major_rhs_is_solved_row_major(self, rng):
        """The LU job's ``L2'`` mappers pass ``A3^T``, a column-major view.
        The private copy of the right-hand side is row-major whatever its
        input, so the answer is the C-ordered copy's, and the time too: a
        column-major copy ran every update strided (measured 1.9x at this
        shape, 768 right-hand sides of order 384)."""
        u1 = np.triu(rng.standard_normal((60, 60))) + 8 * np.eye(60)
        a3 = rng.standard_normal((90, 60))
        assert np.array_equal(
            blocked_forward_substitute(u1.T, a3.T),
            blocked_forward_substitute(u1.T, np.ascontiguousarray(a3.T)),
        )
        t_c, t_f = _min_of_4_in_pinned_child(
            """
            u1 = np.triu(rng.standard_normal((384, 384))) + 384**0.5 * np.eye(384)
            a3_t = rng.standard_normal((768, 384)).T
            a3_t_c = np.ascontiguousarray(a3_t)
            """,
            "blocked_forward_substitute(u1.T, a3_t_c)",
            "blocked_forward_substitute(u1.T, a3_t)",
        )
        assert t_f < 1.3 * t_c

    def test_leaf_lu_is_panelled(self):
        """Speed guard for ``lu_decompose``: one rank-1 update of the whole
        trailing matrix per column (Algorithm 1 verbatim) fails here
        (measured ~0.45x at n=192)."""
        t_ref, t_panel = _min_of_4_in_pinned_child(
            "a = rng.standard_normal((192, 192))",
            "algorithm1_lu(a)",
            "lu_decompose(a)",
        )
        assert t_panel < 0.8 * t_ref


def _min_of_4_in_pinned_child(setup: str, *stmts: str) -> list[float]:
    """Best-of-4 seconds for each statement, timed in a fresh interpreter with
    BLAS on one thread, as the benchmark does: on a shared 2-vCPU box a
    threaded GEMM stalls ~10x for minutes while a sibling core is busy (both
    guards failed 3 runs of 3 in such a phase), a GEMV never does."""
    script = "\n".join(
        [
            "import timeit",
            "import numpy as np",
            "from repro.linalg.triangular import (blocked_forward_substitute,"
            " forward_substitute, invert_lower_columns)",
            "from repro.linalg.lu import lu_decompose",
            "from test_linalg_lu import algorithm1_lu",
            "rng = np.random.default_rng(12345)",
            textwrap.dedent(setup),
            *(
                f"print(min(timeit.repeat(lambda: {stmt}, number=1, repeat=4)))"
                for stmt in stmts
            ),
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-800:]
    return [float(tok) for tok in proc.stdout.split()]
