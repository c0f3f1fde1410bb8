"""Batched parallel compilation: many targets, one call.

The batch layer turns the one-target-at-a-time QTurbo pipeline into a
throughput engine: build :class:`BatchJob` objects (each self-contained
with its own target and AAIS), hand them to a :class:`BatchCompiler`
with a serial or process executor, and get a deterministic
:class:`BatchResult` back with per-job timing and failure capture.
"""

from repro.batch.compiler import (
    HARD_VERIFY_CAP,
    BatchCompiler,
    compiler_for,
    pass_cache_stats,
    verify_fidelity,
)
from repro.batch.executors import (
    EXECUTOR_NAMES,
    BatchExecutor,
    ProcessBatchExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.batch.jobs import BatchJob, BatchResult, JobOutcome
from repro.batch.retry import (
    RetryPolicy,
    call_with_retry,
    fault_tolerance_stats,
    reset_fault_stats,
)

__all__ = [
    "RetryPolicy",
    "call_with_retry",
    "fault_tolerance_stats",
    "reset_fault_stats",
    "BatchCompiler",
    "HARD_VERIFY_CAP",
    "compiler_for",
    "pass_cache_stats",
    "verify_fidelity",
    "BatchJob",
    "BatchResult",
    "JobOutcome",
    "BatchExecutor",
    "SerialExecutor",
    "ProcessBatchExecutor",
    "resolve_executor",
    "EXECUTOR_NAMES",
]
