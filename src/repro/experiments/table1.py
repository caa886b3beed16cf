"""Table 1 — time complexity of LU decomposition.

Reproduces the table two ways:

* the **model** columns are the closed forms (ours: write 3/2 n^2, read
  (l+3) n^2, transfer (l+3) n^2, n^3/3 mults; ScaLAPACK: n^2 / n^2 /
  (2/3) m0 n^2 / n^3/3);
* the **measured** columns come from executing the LU stage of the real
  pipeline and summing its task traces — validating that the implementation
  moves the amount of data the paper's analysis says it should (the factor
  files are stored as dense squares rather than packed triangles, so measured
  reads run up to ~2x the packed-triangle model; the bench asserts that
  envelope).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.costmodel import BYTES_PER_ELEMENT, ours_lu_cost, scalapack_lu_cost
from ..inversion import InversionConfig, MatrixInverter
from ..workloads.generators import random_dense
from .report import format_table


@dataclass
class Table1Row:
    algorithm: str
    n: int
    m0: int
    write_elements: float
    read_elements: float
    transfer_elements: float
    mults: float


@dataclass
class Table1Result:
    model_ours: Table1Row
    model_scalapack: Table1Row
    measured_ours: Table1Row

    @property
    def read_ratio(self) -> float:
        """Measured / modeled read volume for our algorithm."""
        return self.measured_ours.read_elements / self.model_ours.read_elements

    @property
    def write_ratio(self) -> float:
        return self.measured_ours.write_elements / self.model_ours.write_elements


def run(n: int = 256, nb: int = 32, m0: int = 8, seed: int = 0) -> Table1Result:
    """Execute the LU stage and compare its I/O against the Table 1 model."""
    a = random_dense(n, seed=seed)
    # Cache off: Table 1 models physical DFS reads.  Commit off: manifest
    # metadata would perturb the paper's byte accounting.
    config = InversionConfig(
        nb=nb, m0=m0, block_cache_bytes=0, output_commit=False, num_workers=4
    )
    with MatrixInverter(config) as inverter:
        factors = inverter.lu(a)

    read_b = write_b = mults = 0.0
    for trace in factors.record.all_traces():
        read_b += trace.bytes_read
        write_b += trace.bytes_written
        mults += trace.flops
    for phase in factors.record.master_phases:
        read_b += phase.bytes_read
        write_b += phase.bytes_written
        mults += phase.flops
    measured = Table1Row(
        algorithm="ours (measured)",
        n=n,
        m0=m0,
        write_elements=write_b / BYTES_PER_ELEMENT,
        read_elements=read_b / BYTES_PER_ELEMENT,
        transfer_elements=read_b / BYTES_PER_ELEMENT,  # HDFS: read == transfer
        mults=mults,
    )
    ours = ours_lu_cost(n, m0)
    scala = scalapack_lu_cost(n, m0)
    return Table1Result(
        model_ours=Table1Row(
            "ours (Table 1)", n, m0, ours.write, ours.read, ours.transfer, ours.mults
        ),
        model_scalapack=Table1Row(
            "ScaLAPACK (Table 1)",
            n,
            m0,
            scala.write,
            scala.read,
            scala.transfer,
            scala.mults,
        ),
        measured_ours=measured,
    )


def format_result(res: Table1Result) -> str:
    rows = [
        [
            r.algorithm,
            r.write_elements,
            r.read_elements,
            r.transfer_elements,
            r.mults,
        ]
        for r in (res.model_ours, res.measured_ours, res.model_scalapack)
    ]
    table = format_table(
        ["Algorithm", "Write (elems)", "Read (elems)", "Transfer (elems)", "Mults"],
        rows,
        title=f"Table 1 — LU decomposition cost (n={res.model_ours.n}, "
        f"m0={res.model_ours.m0})",
    )
    return (
        table
        + f"\nmeasured/model ratios: read {res.read_ratio:.2f}, "
        + f"write {res.write_ratio:.2f}"
    )


if __name__ == "__main__":
    print(format_result(run()))
