"""From-scratch MapReduce engine (the paper's Hadoop substrate).

Implements the full programming model the inversion pipeline targets: mappers
and reducers with contexts, a hash-partitioned sorted shuffle with combiner
support, a JobTracker with retry and a hedged retry of timed-out tasks, fault
injection, Hadoop-style counters, and multi-job pipelines with master-side
phases.
"""

from .counters import Counters
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialExecutor,
    TaskSerializationError,
    TaskTimeoutError,
    ThreadPoolBackend,
    WorkerCrashError,
    make_executor,
)
from .faults import (
    ComposedFaults,
    DelayAttempt,
    FailAlways,
    FailNever,
    FailOnNode,
    FailOnce,
    FailRandomly,
    FaultPolicy,
    InjectedTaskFailure,
    ScriptedFault,
)
from .job import (
    FnMapper,
    FnReducer,
    JobConf,
    Mapper,
    Reducer,
    TaskContext,
    TaskFactory,
    default_partitioner,
    splits_for_workers,
)
from .master import AttemptFailure, JobFailedError, JobTracker, NodeHealth
from .pipeline import MasterPhase, Pipeline, PipelineRecord
from .retry import RetryPolicy
from .runtime import MapReduceRuntime
from .scheduler import (
    DataflowScheduler,
    SchedulerReport,
    SchedulerStallError,
    UnitSpec,
    run_in_order,
)
from .types import (
    InputSplit,
    JobId,
    JobResult,
    TaskAttemptId,
    TaskId,
    TaskKind,
    TaskTrace,
)

__all__ = [
    "AttemptFailure",
    "ComposedFaults",
    "Counters",
    "DataflowScheduler",
    "DelayAttempt",
    "ExecutionBackend",
    "FailAlways",
    "FailNever",
    "FailOnNode",
    "FailOnce",
    "FailRandomly",
    "FaultPolicy",
    "FnMapper",
    "FnReducer",
    "InjectedTaskFailure",
    "InputSplit",
    "JobConf",
    "JobFailedError",
    "JobId",
    "JobResult",
    "JobTracker",
    "Mapper",
    "MapReduceRuntime",
    "MasterPhase",
    "NodeHealth",
    "Pipeline",
    "PipelineRecord",
    "ProcessPoolBackend",
    "Reducer",
    "RetryPolicy",
    "SchedulerReport",
    "SchedulerStallError",
    "ScriptedFault",
    "SerialExecutor",
    "UnitSpec",
    "TaskAttemptId",
    "TaskFactory",
    "TaskSerializationError",
    "TaskTimeoutError",
    "TaskContext",
    "TaskId",
    "TaskKind",
    "TaskTrace",
    "ThreadPoolBackend",
    "WorkerCrashError",
    "default_partitioner",
    "make_executor",
    "run_in_order",
    "splits_for_workers",
]
