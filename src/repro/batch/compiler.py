"""The batched compilation engine.

:class:`BatchCompiler` executes many (target, AAIS) jobs through the
QTurbo pipeline concurrently via a pluggable executor, with per-job
timing, structured aggregation, deterministic ordering, and graceful
per-job failure capture: one infeasible or malformed target never sinks
the batch.

Design notes
------------
* The unit of distribution is one :class:`BatchJob`; the worker function
  :func:`_execute_payload` lives at module level so the process-pool
  backend can pickle it.
* Within a worker process (and therefore for the serial executor,
  which shares this process), compilers are memoized per
  ``(AAIS, options)`` so structurally repeated jobs hit the compiler's
  linear-system cache and the global operator cache.
* Optional verification evolves the target and the compiled schedule and
  records the state fidelity — exercising the operator matrix cache,
  which is how repeated-target batches exhibit cache hit rates > 0.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

from repro.batch.executors import BatchExecutor, resolve_executor
from repro.batch.jobs import BatchJob, BatchResult, JobOutcome
from repro.batch.retry import RetryPolicy, call_with_retry
from repro.core.compiler import QTurboCompiler
from repro.errors import classify_failure
from repro.testing.faults import fault_point

__all__ = [
    "BatchCompiler",
    "HARD_VERIFY_CAP",
    "compiler_for",
    "pass_cache_stats",
    "reset_worker_compilers",
    "verify_fidelity",
]

#: Worker-side memo of compilers, keyed on the content digest of the
#: job's AAIS plus its compiler options.  Content-based (not ``id``)
#: keying matters under the process executor, where every pickled
#: payload unpickles a fresh but equal AAIS object: equal content must
#: reuse one compiler so the linear-system cache can hit across jobs.
_WORKER_COMPILERS: "OrderedDict[tuple, QTurboCompiler]" = OrderedDict()
_WORKER_COMPILERS_LOCK = threading.Lock()
_WORKER_COMPILER_CAP = 16

#: Verification is skipped above this register size regardless of the
#: per-batch (or per-experiment) cap — state vectors grow as 2^N.  The
#: matrix-free evolution backend keeps verification to O(2^N) *vector*
#: memory (no operator matrices), which is what lifts this cap to 20;
#: beyond that even the state pair stops being cheap.
HARD_VERIFY_CAP = 20


def _aais_digest(aais) -> bytes:
    """Content digest of an AAIS via its pickle form.

    Equal pickle bytes imply structurally equal instruction sets, so
    reusing one compiler across them cannot change any result.  Distinct
    contents may never collide (digest of the full serialized state).
    """
    return hashlib.blake2b(
        pickle.dumps(aais, protocol=pickle.HIGHEST_PROTOCOL),
        digest_size=16,
    ).digest()


def reset_worker_compilers() -> None:
    """Drop the in-process compiler memo (benchmark cold-start hygiene)."""
    with _WORKER_COMPILERS_LOCK:
        _WORKER_COMPILERS.clear()
    if _ideal_state_cache is not None:
        _ideal_state_cache.clear()


def compiler_for(job: BatchJob) -> QTurboCompiler:
    """The worker-local memoized compiler for a job's (AAIS, options).

    Structurally equal instruction sets with equal compiler options
    share one :class:`QTurboCompiler` per process, so repeated jobs hit
    its linear-system cache.  This is the same memo the batch engine's
    workers use; the experiment runner calls it directly.
    """
    key = (_aais_digest(job.aais), job.compiler_options)
    with _WORKER_COMPILERS_LOCK:
        compiler = _WORKER_COMPILERS.get(key)
        if compiler is not None:
            _WORKER_COMPILERS.move_to_end(key)
            return compiler
    compiler = QTurboCompiler(job.aais, **job.options)
    with _WORKER_COMPILERS_LOCK:
        _WORKER_COMPILERS[key] = compiler
        while len(_WORKER_COMPILERS) > _WORKER_COMPILER_CAP:
            _WORKER_COMPILERS.popitem(last=False)
    return compiler


def pass_cache_stats() -> dict:
    """Aggregate pass-level cache counters across the worker compilers.

    The batch engine memoizes one :class:`QTurboCompiler` per distinct
    ``(AAIS, options)``; each compiler owns the structural caches its
    pipeline passes read — the ``build_linear_system`` pass's shared
    linear-system LRU and the ``partition`` pass's memo.  This sums
    their hit/miss/eviction counters over every live compiler in this
    process (worker processes of the ``process`` executor keep their
    own memos, which are not visible here).
    """
    with _WORKER_COMPILERS_LOCK:
        compilers = list(_WORKER_COMPILERS.values())
    totals = {
        "compilers": len(compilers),
        "linear_system": {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
            "evictions": 0,
        },
        "partition": {"hits": 0, "misses": 0},
    }
    for compiler in compilers:
        for cache_name, counters in compiler.pass_cache_stats().items():
            bucket = totals[cache_name]
            for key, value in counters.items():
                bucket[key] += value
    return totals


#: Worker-side memo of ideal reference states.  Repeated-target batches
#: verify the same piecewise evolution once per process instead of once
#: per job; the compiled-schedule evolution below additionally rides the
#: simulation fast paths (diagonal segments, dense propagator cache) of
#: :mod:`repro.sim.evolution` for recurring segments.
_IDEAL_STATE_CACHE_SIZE = 64
_ideal_state_cache = None


def _ideal_state_cache_get():
    global _ideal_state_cache
    cache = _ideal_state_cache
    if cache is None:
        from repro.sim.operators import MatrixCache

        # Double-checked under the shared lock: service threads and
        # orphaned deadline watchdogs can race the first verification,
        # and an unguarded assignment would drop one instance's entries.
        with _WORKER_COMPILERS_LOCK:
            if _ideal_state_cache is None:
                _ideal_state_cache = MatrixCache(_IDEAL_STATE_CACHE_SIZE)
            cache = _ideal_state_cache
    return cache


def verify_fidelity(job: BatchJob, result) -> Optional[float]:
    """State fidelity between the target evolution and the compiled pulse.

    The ideal reference state is memoized per process on the target's
    canonical segment key, so repeated-target batches and sweeps pay the
    piecewise evolution once.  Used by batch ``--verify`` and the
    experiment runner's ``verify`` stage alike.
    """
    from repro.sim import (
        evolve_piecewise,
        evolve_schedule,
        ground_state,
        state_fidelity,
    )

    num_qubits = job.aais.num_sites
    initial = ground_state(num_qubits)
    cache = _ideal_state_cache_get()
    key = (
        tuple(
            (segment.hamiltonian.canonical_key(), segment.duration)
            for segment in job.target.segments
        ),
        num_qubits,
    )
    ideal = cache.get(key)
    if ideal is None:
        ideal = evolve_piecewise(initial, job.target, num_qubits)
        cache.put(key, ideal)
    compiled = evolve_schedule(initial, result.schedule)
    return float(state_fidelity(ideal, compiled))


def _execute_payload(
    payload: Tuple[int, BatchJob, bool, int, Optional[RetryPolicy]],
) -> JobOutcome:
    """Run one job (with per-job retry), capturing failure into the outcome.

    Each *attempt* is the full compile (+ optional verification) with no
    state threaded between attempts, so a retried-to-success job is
    bit-identical to a first-try success.  Only transient-classified
    failures retry (see :func:`repro.errors.classify_failure`);
    isolation is still the contract — one malformed job surfaces as a
    failed outcome, never as an exception that sinks the whole pool.map
    and loses every other job's result.
    """
    index, job, verify, verify_max_qubits, policy = payload

    def _attempt():
        fault_point("batch.job")
        compiler = compiler_for(job)
        result = compiler.compile_piecewise(job.target)
        fidelity = None
        verify_skipped = False
        if verify and result.success:
            cap = min(verify_max_qubits, HARD_VERIFY_CAP)
            if job.aais.num_sites <= cap:
                fidelity = verify_fidelity(job, result)
            else:
                verify_skipped = True
        return result, fidelity, verify_skipped

    tick = time.perf_counter()
    outcome = call_with_retry(_attempt, policy, key=job.name)
    if outcome.ok:
        result, fidelity, verify_skipped = outcome.value
        return JobOutcome(
            index=index,
            name=job.name,
            ok=True,
            result=result,
            seconds=time.perf_counter() - tick,
            fidelity=fidelity,
            verify_skipped=verify_skipped,
            attempts=outcome.attempts_used,
        )
    error = outcome.error
    return JobOutcome(
        index=index,
        name=job.name,
        ok=False,
        error=str(error),
        error_type=type(error).__name__,
        seconds=time.perf_counter() - tick,
        attempts=outcome.attempts_used,
        failure_class=outcome.failure_class,
    )


def _failure_outcome(payload, error: BaseException) -> JobOutcome:
    """Stand-in outcome when the executor could not run a job at all.

    Built in the parent process for deadline kills and unrecovered
    crashes; carries the failure class so resumed/inspecting callers can
    tell retryable timeouts from permanent failures.
    """
    index, job = payload[0], payload[1]
    return JobOutcome(
        index=index,
        name=job.name,
        ok=False,
        error=str(error),
        error_type=type(error).__name__,
        failure_class=classify_failure(error),
    )


class BatchCompiler:
    """Compile many jobs concurrently through the QTurbo pipeline.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"process"``, or a
        :class:`repro.batch.executors.BatchExecutor` instance.
    workers:
        Worker count for the process executor (default: a capped CPU count).
    chunksize:
        Jobs per dispatch chunk on the process executor (amortizes
        pickling across a chunk; ignored by the serial backend).
    verify:
        When True, each successful compilation is checked by evolving
        the target and the compiled schedule and recording the state
        fidelity in :attr:`JobOutcome.fidelity`.
    verify_max_qubits:
        Skip verification for registers larger than this (state-vector
        cost is 2^N).
    retry:
        A :class:`repro.batch.retry.RetryPolicy` (or an int — maximum
        *extra* attempts) applied per job: transient-classified
        failures are retried with deterministic seeded backoff; a
        retried-to-success job is bit-identical to a first-try success.
    job_timeout:
        Per-job deadline in seconds.  A job still running at its
        deadline is killed (process executor) or abandoned
        (serial) and recorded as a
        :class:`~repro.errors.JobTimeoutError` outcome.

    Examples
    --------
    >>> from repro.batch import BatchCompiler, BatchJob
    >>> from repro.aais import RydbergAAIS
    >>> from repro.models import ising_chain
    >>> jobs = [
    ...     BatchJob.constant(f"chain-{n}", ising_chain(n), 1.0,
    ...                       RydbergAAIS(n))
    ...     for n in (3, 4, 5)
    ... ]
    >>> batch = BatchCompiler(executor="serial").compile_many(jobs)
    >>> batch.all_succeeded
    True
    """

    def __init__(
        self,
        executor: Union[str, BatchExecutor] = "serial",
        workers: Optional[int] = None,
        verify: bool = False,
        verify_max_qubits: int = 10,
        chunksize: Optional[int] = None,
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
    ):
        self.executor = resolve_executor(
            executor, workers, chunksize, job_timeout
        )
        self.verify = bool(verify)
        self.verify_max_qubits = int(verify_max_qubits)
        if isinstance(retry, int):
            retry = (
                RetryPolicy(max_attempts=retry + 1) if retry > 0 else None
            )
        self.retry = retry

    # ------------------------------------------------------------------
    def compile_many(self, jobs: Sequence[BatchJob]) -> BatchResult:
        """Execute every job; outcomes come back in submission order."""
        payloads = [
            (index, job, self.verify, self.verify_max_qubits, self.retry)
            for index, job in enumerate(jobs)
        ]
        tick = time.perf_counter()
        outcomes: List[JobOutcome] = self.executor.run(
            _execute_payload, payloads, failure_result=_failure_outcome
        )
        total = time.perf_counter() - tick
        retried = [o for o in outcomes if o.attempts > 1]
        fault = {
            "timeouts": self.executor.fault_events["timeouts"],
            "pool_respawns": self.executor.fault_events["pool_respawns"],
            "downgrades": list(self.executor.fault_events["downgrades"]),
            "jobs_retried": len(retried),
            "extra_attempts": sum(o.attempts - 1 for o in retried),
        }
        return BatchResult(
            outcomes=outcomes,
            executor=self.executor.name,
            workers=self.executor.workers,
            total_seconds=total,
            fault=fault,
        )

    def __repr__(self) -> str:
        return (
            f"BatchCompiler(executor={self.executor.name}, "
            f"workers={self.executor.workers}, verify={self.verify})"
        )
