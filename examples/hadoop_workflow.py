"""Matrix inversion as one component of a Hadoop data-analysis workflow —
Section 1's deployment argument: "the input matrix to be inverted would be
generated by a MapReduce job and stored in HDFS, and the inverse matrix
produced as output also needs to be stored in HDFS to be consumed by another
MapReduce job".

This example runs that whole story on one cluster (one DFS, one runtime):

  1. a MapReduce job GENERATES observations (synthetic sensor readings);
  2. a second job assembles the regularized covariance ``X^T X + eps I``
     (each mapper's partial Gram matrix, summed by one reducer);
  3. the inversion pipeline inverts it — the precision matrix;
  4. a final MapReduce job CONSUMES the inverse (whitening the observations),
     with a verification job checking the result, all from DFS state.

Run with:  python examples/hadoop_workflow.py
"""

import numpy as np

from repro import InversionConfig
from repro.dfs import formats
from repro.inversion import MatrixInverter
from repro.mapreduce import (
    FnMapper,
    FnReducer,
    JobConf,
    MapReduceRuntime,
    splits_for_workers,
)
from repro.telemetry import HistoryReport

N_SAMPLES, N_FEATURES, M0 = 400, 48, 4


def main() -> None:
    runtime = MapReduceRuntime()
    dfs = runtime.dfs

    # -- stage 1: a MapReduce job generates the data -------------------------
    def generate(ctx, split):
        j = split.payload
        rng = np.random.default_rng(1000 + j)
        rows = N_SAMPLES // M0
        base = rng.standard_normal((rows, N_FEATURES))
        # Correlated features: each reading mixes its neighbours.
        mixed = base + 0.6 * np.roll(base, 1, axis=1)
        ctx.write_bytes(f"/wf/obs/part.{j}", formats.encode_matrix(mixed))

    runtime.run_job(
        JobConf(
            name="generate-observations",
            mapper_factory=lambda: FnMapper(generate),
            splits=splits_for_workers(M0),
        )
    )
    print(f"stage 1: generated {N_SAMPLES}x{N_FEATURES} observations on the DFS")

    # -- stage 2: covariance X^T X = sum_j X_j^T X_j, one MapReduce job --------
    def gram(ctx, split):
        chunk = formats.decode_matrix(ctx.read_bytes(f"/wf/obs/part.{split.payload}"))
        ctx.emit(0, chunk.T @ chunk)

    def regularize(ctx, key, partials):
        cov = sum(partials) + 5.0 * N_SAMPLES * np.eye(N_FEATURES)
        ctx.write_bytes("/wf/cov", formats.encode_matrix(cov))

    runtime.run_job(
        JobConf(
            name="covariance",
            mapper_factory=lambda: FnMapper(gram),
            reducer_factory=lambda: FnReducer(regularize),
            splits=splits_for_workers(M0),
            num_reduce_tasks=1,
        )
    )
    print("stage 2: covariance assembled by one map/reduce job")

    # -- stage 3: the inversion pipeline ----------------------------------------
    cov = formats.read_matrix(dfs, "/wf/cov")
    inverter = MatrixInverter(InversionConfig(nb=12, m0=M0), runtime=runtime)
    result = inverter.invert(cov)
    residual = inverter.distributed_residual(result)
    print(f"stage 3: inverted the covariance in {result.num_jobs} jobs "
          f"(distributed residual {residual:.1e})")

    # -- stage 4: a consumer job whitens the data against the inverse ----------
    formats.write_matrix(dfs, "/wf/precision", result.inverse)

    def whiten(ctx, split):
        j = split.payload
        prec = formats.decode_matrix(ctx.read_bytes("/wf/precision"))
        chunk = formats.decode_matrix(ctx.read_bytes(f"/wf/obs/part.{j}"))
        ctx.write_bytes(f"/wf/white/part.{j}", formats.encode_matrix(chunk @ prec))
        ctx.emit(j, float(np.var(chunk @ prec)))

    runtime.run_job(
        JobConf(
            name="whiten-observations",
            mapper_factory=lambda: FnMapper(whiten),
            splits=splits_for_workers(M0),
        )
    )
    print("stage 4: downstream job consumed the inverse from the DFS")

    print("\n" + HistoryReport.of(runtime.history).format())
    runtime.shutdown()


if __name__ == "__main__":
    main()
