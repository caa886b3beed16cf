"""invert_path (DFS-resident inputs) and history JSON export."""

import json

import numpy as np
import pytest

from repro import InversionConfig
from repro.dfs import DFS, formats
from repro.inversion import MatrixInverter
from repro.telemetry import HistoryReport

from conftest import random_invertible


class TestInvertPath:
    def test_inverts_dfs_resident_matrix(self, rng):
        dfs = DFS()
        a = random_invertible(rng, 64)
        formats.write_matrix(dfs, "/warehouse/matrix.bin", a)
        with MatrixInverter(InversionConfig(nb=16, m0=4), dfs=dfs) as inv:
            result = inv.invert_path("/warehouse/matrix.bin")
        assert result.residual(a) < 1e-9
        # The caller's file is untouched.
        assert np.array_equal(formats.read_matrix(dfs, "/warehouse/matrix.bin"), a)

    def test_output_of_one_job_feeds_inversion(self, rng):
        """The Section 1 workflow: a MapReduce job produces the matrix, the
        pipeline inverts it in place on the same DFS."""
        from repro.mapreduce import FnMapper, JobConf, splits_for_workers

        inv = MatrixInverter(InversionConfig(nb=16, m0=4))
        rt = inv.runtime
        n = 48

        def produce(ctx, split):
            if split.payload == 0:
                rng_local = np.random.default_rng(5)
                m = rng_local.random((n, n)) + 0.5 * np.eye(n)
                ctx.write_bytes("/etl/out.bin", formats.encode_matrix(m))

        rt.run_job(JobConf(name="etl", mapper_factory=lambda: FnMapper(produce),
                           splits=splits_for_workers(2)))
        result = inv.invert_path("/etl/out.bin")
        a = formats.read_matrix(rt.dfs, "/etl/out.bin")
        assert result.residual(a) < 1e-9
        inv.close()

    def test_non_square_rejected(self, rng):
        with MatrixInverter(InversionConfig(nb=8, m0=4)) as inv:
            formats.write_matrix(inv.runtime.dfs, "/m.bin", rng.standard_normal((4, 6)))
            with pytest.raises(ValueError, match="square"):
                inv.invert_path("/m.bin")


class TestHistoryJson:
    def test_report_round_trips_through_json(self, rng):
        a = random_invertible(rng, 48)
        with MatrixInverter(InversionConfig(nb=16, m0=4)) as inv:
            inv.invert(a)
        rt = inv.runtime
        report = HistoryReport.of(rt.history)
        payload = json.dumps([vars(j) for j in report.jobs])
        decoded = json.loads(payload)
        assert len(decoded) == len(rt.history)
        assert decoded[0]["name"] == "partition"
        assert all("bytes_read" in j for j in decoded)
