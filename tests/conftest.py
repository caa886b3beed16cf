"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.dfs import DFS
from repro.mapreduce import MapReduceRuntime


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def dfs() -> DFS:
    return DFS(num_datanodes=4, replication=3, block_size=1 << 16, seed=7)


@pytest.fixture
def runtime(dfs: DFS) -> MapReduceRuntime:
    rt = MapReduceRuntime(dfs=dfs, num_workers=4, executor="serial")
    yield rt
    rt.shutdown()


@pytest.fixture
def threaded_runtime(dfs: DFS) -> MapReduceRuntime:
    rt = MapReduceRuntime(
        dfs=dfs, num_workers=4, executor="threads"
    )
    yield rt
    rt.shutdown()


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random dense matrix; shifted slightly so tests never hit an unlucky
    near-singular draw."""
    return rng.standard_normal((n, n)) + 0.1 * np.eye(n)


def spec_workloads():
    """The benchmark's workloads (``benchmarks/e2e/spec.py``), imported, not run."""
    e2e = str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e")
    sys.path.insert(0, e2e)
    try:
        import spec
    finally:
        sys.path.remove(e2e)
    return spec.WORKLOADS
