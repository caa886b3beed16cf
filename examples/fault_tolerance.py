"""Fault tolerance demo — the Section 7.4 scenario in miniature.

A mapper of the final triangular-inversion job is killed on its first
attempt; the JobTracker reschedules it and the run completes with a correct
inverse, exactly the behaviour the paper credits MapReduce for.

Run with:  python examples/fault_tolerance.py
"""

import numpy as np

from repro import InversionConfig, MatrixInverter
from repro.mapreduce import FailOnce, TaskKind
from repro.mapreduce.counters import FAILED_MAPS, LAUNCHED_MAPS, TASK_GROUP


def main() -> None:
    rng = np.random.default_rng(1)
    n = 160
    a = rng.random((n, n))

    policy = FailOnce(
        job_substring="invert-final", kind=TaskKind.MAP, task_index=1
    )
    config = InversionConfig(nb=40, m0=4)
    print("running the pipeline with an injected mapper failure in the "
          "final inversion job...")
    with MatrixInverter(config, fault_policy=policy) as inverter:
        result = inverter.invert(a)

    final = next(j for j in result.record.job_results if j.name == "invert-final")
    launched = final.counters.value(TASK_GROUP, LAUNCHED_MAPS)
    failed = final.counters.value(TASK_GROUP, FAILED_MAPS)
    print(f"\nfinal job: {launched} map attempts launched, {failed} failed, "
          f"retries per task: {final.map_retries}")
    print(f"residual after recovery: {result.residual(a):.3e}")
    assert result.residual(a) < 1e-5
    print("the failed mapper was rescheduled and the inverse is correct ✓")

    # The same failure made permanent kills the job cleanly.
    from repro.mapreduce import FailAlways, JobFailedError

    policy = FailAlways(kind=TaskKind.MAP, task_index=1)
    with MatrixInverter(config, fault_policy=policy) as inverter:
        try:
            inverter.invert(a)
        except JobFailedError as exc:
            print(f"\npermanent failure path: {exc}")


if __name__ == "__main__":
    main()
