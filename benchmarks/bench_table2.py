"""Table 2 — triangular inversion + final product cost model, regenerated."""

import pytest

from repro.experiments import table2

from conftest import once


def test_table2_inversion_cost(benchmark, harness):
    res = once(benchmark, table2.run, n=256, nb=32, m0=8, harness=harness)
    print()
    print(table2.format_result(res))
    benchmark.extra_info["read_ratio"] = res.read_ratio
    assert 0.5 < res.read_ratio < 2.5
    assert 0.5 < res.write_ratio < 2.5
    # Panelled final product: measured 1.21x the triangular-aware model
    # (2/3 n^3) here; the envelope is that plus 10 %, so a return to the
    # dense product (2.0x) fails.
    assert 1.0 <= res.measured_ours.mults / res.model_ours.mults <= 1.33


def test_table2_scalapack_row(benchmark):
    """ScaLAPACK's inversion traffic is m0 n^2 — the allgather of the packed
    factors, verified against the measured MPI baseline."""
    import numpy as np

    from repro.scalapack import scalapack_invert
    from repro.workloads import random_dense

    n, p = 128, 4
    a = random_dense(n, seed=11)
    res = once(benchmark, scalapack_invert, a, nprocs=p, block=16)
    assert res.residual(a) < 1e-8
    model_bytes = p * n * n * 8
    benchmark.extra_info["traffic_vs_model"] = res.traffic.bytes_sent / model_bytes
    assert model_bytes / 4 < res.traffic.bytes_sent < model_bytes * 4
