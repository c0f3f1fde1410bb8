"""Pluggable execution backends for batched compilation.

An executor maps a worker function over job payloads and returns the
results **in submission order**, regardless of completion order — the
batch layer's determinism guarantee rests on this.  Two backends:

``serial``
    In-process loop.  No concurrency, no surprises; the reference
    against which the process pool must be bit-identical.
``process``
    :class:`concurrent.futures.ProcessPoolExecutor`.  True parallelism;
    payloads and results cross process boundaries by pickle, so the
    worker function must be a module-level callable.  Jobs are
    submitted in ``chunksize`` groups so large sweeps amortize the
    per-job pickling round-trip; the default chunk splits the payload
    list into roughly four chunks per worker, and ``chunksize=1``
    restores per-job dispatch (best when individual jobs are slow and
    uneven).  Each worker pins every loaded OpenBLAS to one thread.

Fault tolerance
---------------
When the caller provides a ``failure_result`` factory, executors become
resilient instead of fail-fast (see ``docs/robustness.md``):

* **Deadlines** — with ``job_timeout`` set, a job still running at its
  deadline is abandoned (serial: its watchdog thread is orphaned;
  process: the hung worker is killed and the pool respawned) and its
  slot filled by ``failure_result(payload, JobTimeoutError(...))``.
  Timed-out jobs are never re-dispatched within the batch — a resumed
  run retries them, because :class:`~repro.errors.JobTimeoutError` is
  transient.
* **Pool-crash recovery** — a ``BrokenProcessPool`` respawns the pool
  and re-dispatches only the unfinished jobs of the broken chunk.
  After ``max_pool_respawns`` breakages the executor degrades down the
  ladder **process → serial** with a logged downgrade, so a poisoned
  environment still drains the batch.

Without ``failure_result`` the legacy contract holds: any executor-level
failure propagates to the caller unchanged.
"""

from __future__ import annotations

import abc
import logging
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar, Union

from repro.batch.retry import count_fault_event
from repro.blas import pin_blas_threads
from repro.errors import CompilationError, JobTimeoutError

__all__ = [
    "BatchExecutor",
    "SerialExecutor",
    "ProcessBatchExecutor",
    "resolve_executor",
    "EXECUTOR_NAMES",
]

P = TypeVar("P")
R = TypeVar("R")

EXECUTOR_NAMES = ("serial", "process")

logger = logging.getLogger("repro.batch.executors")

#: How often the deadline loops poll in-flight futures (seconds).
_POLL_INTERVAL = 0.02


def default_workers() -> int:
    """A container-friendly default worker count.

    Honors, in order: the ``REPRO_WORKERS`` environment variable, the
    scheduler affinity mask (``os.sched_getaffinity`` — what cgroup CPU
    limits actually grant, unlike the raw ``os.cpu_count``), then the
    CPU count, capped at 8.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        available = os.cpu_count() or 1
    return max(1, min(8, available))


class BatchExecutor(abc.ABC):
    """Maps a function over payloads, preserving submission order.

    ``chunksize`` is accepted by every backend for interface symmetry
    but only changes behavior where dispatch actually crosses a
    serialization boundary (the process pool).  ``job_timeout`` is the
    per-job deadline in seconds (None disables deadlines); it only
    takes effect when :meth:`run` is given a ``failure_result`` factory
    to stand in for the killed job.
    """

    name: str = "abstract"

    #: BrokenProcessPool events tolerated before degrading down the
    #: executor ladder (process → serial).
    max_pool_respawns: int = 2

    def __init__(
        self,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        job_timeout: Optional[float] = None,
    ):
        if workers is not None and workers < 1:
            raise CompilationError(
                f"executor needs at least 1 worker, got {workers}"
            )
        if chunksize is not None and chunksize < 1:
            raise CompilationError(
                f"chunksize must be >= 1, got {chunksize}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise CompilationError(
                f"job_timeout must be positive seconds, got {job_timeout}"
            )
        self.workers = int(workers) if workers else default_workers()
        self.chunksize = int(chunksize) if chunksize else None
        self.job_timeout = float(job_timeout) if job_timeout else None
        # Executor-level fault events of the most recent run (timeouts,
        # pool respawns, downgrades) — the per-batch view of the
        # process-wide ``fault_tolerance_stats()`` counters.
        self._reset_fault_events()

    @abc.abstractmethod
    def run(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        failure_result: Optional[Callable[[P, BaseException], R]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every payload; results in submission order.

        ``failure_result(payload, error)`` builds the stand-in result
        when executor-level machinery (deadline kill, crash recovery)
        cannot obtain a real one; when omitted, such failures propagate.
        """

    def _reset_fault_events(self) -> None:
        self.fault_events = {
            "timeouts": 0,
            "pool_respawns": 0,
            "downgrades": [],
        }

    def _record_timeout(self, payload, failure_result):
        self.fault_events["timeouts"] += 1
        count_fault_event("timeouts")
        error = JobTimeoutError(
            f"job exceeded its {self.job_timeout:g}s deadline and was "
            "abandoned"
        )
        logger.warning("deadline exceeded (%gs); job abandoned", self.job_timeout)
        return failure_result(payload, error)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


def _deadline_map_in_threads(
    executor: BatchExecutor,
    fn: Callable[[P], R],
    payloads: Sequence[P],
    failure_result: Callable[[P, BaseException], R],
    workers: int,
) -> List[R]:
    """Order-preserving thread map with per-job deadlines.

    At most ``workers`` jobs are in flight, so a submitted job starts
    (nearly) immediately and its deadline clock measures execution, not
    queueing.  A job still unfinished at its deadline is abandoned —
    its thread keeps running to completion but nobody waits for it —
    and replaced by ``failure_result``.  The pool is shut down without
    joining so an abandoned hung thread cannot wedge the batch.
    """
    timeout = executor.job_timeout
    results: List[R] = [None] * len(payloads)  # type: ignore[list-item]
    pending = deque(enumerate(payloads))
    inflight = {}  # future -> (index, payload, start_time)
    pool = ThreadPoolExecutor(max_workers=workers)
    pools = [pool]
    try:
        while pending or inflight:
            while pending and len(inflight) < workers:
                index, payload = pending.popleft()
                future = pool.submit(fn, payload)
                inflight[future] = (index, payload, time.perf_counter())
            done, _ = wait(
                set(inflight),
                timeout=_POLL_INTERVAL,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index, payload, _ = inflight.pop(future)
                error = future.exception()
                if error is None:
                    results[index] = future.result()
                else:
                    results[index] = failure_result(payload, error)
            now = time.perf_counter()
            expired = [
                f
                for f, (_, _, start) in inflight.items()
                if now - start > timeout
            ]
            for future in expired:
                index, payload, _ = inflight.pop(future)
                future.cancel()
                results[index] = executor._record_timeout(
                    payload, failure_result
                )
            if expired:
                # The hung thread occupies its pool slot forever, so
                # jobs behind it would queue (and falsely time out).
                # Re-dispatch anything not yet started and move new
                # submissions to a fresh pool; still-running futures
                # finish on the old pool's threads.
                for future, (index, payload, _) in list(inflight.items()):
                    if future.cancel():
                        del inflight[future]
                        pending.appendleft((index, payload))
                pool = ThreadPoolExecutor(max_workers=workers)
                pools.append(pool)
    finally:
        for stale in pools:
            stale.shutdown(wait=False, cancel_futures=True)
    return results


class SerialExecutor(BatchExecutor):
    """Plain in-process loop (workers is reported as 1)."""

    name = "serial"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        job_timeout: Optional[float] = None,
    ):
        super().__init__(1, chunksize, job_timeout)

    def run(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        failure_result: Optional[Callable[[P, BaseException], R]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every payload in order, in this thread.

        With a deadline configured (and a ``failure_result`` to stand in
        for killed jobs), each job runs on a watchdog thread instead so
        a hang cannot wedge the loop.
        """
        self._reset_fault_events()
        if self.job_timeout is None or failure_result is None:
            return [fn(payload) for payload in payloads]
        return _deadline_map_in_threads(
            self, fn, payloads, failure_result, workers=1
        )


class ProcessBatchExecutor(BatchExecutor):
    """Process-pool backend; ``fn`` and payloads must pickle.

    Payloads are shipped to workers in ``chunksize`` groups: one pickle
    round-trip then carries many jobs, which is what keeps wide sweeps
    of fast jobs from spending their wall-clock on serialization.

    With a ``failure_result`` factory the backend is crash-tolerant: a
    broken pool is respawned and only the unfinished jobs re-dispatched
    (safe — jobs are deterministic and artifact writes happen in the
    parent), and after :attr:`max_pool_respawns` breakages the
    remaining jobs degrade to the serial backend.
    """

    name = "process"

    def _pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=pin_blas_threads
        )

    def effective_chunksize(self, num_payloads: int) -> int:
        """The chunk the pool will use for ``num_payloads`` jobs.

        An explicit ``chunksize`` wins; the default splits the batch
        into ~4 chunks per worker — large enough to amortize pickling,
        small enough to keep the pool load-balanced when job costs are
        uneven.
        """
        if self.chunksize is not None:
            return self.chunksize
        return max(1, num_payloads // (self.workers * 4))

    def run(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        failure_result: Optional[Callable[[P, BaseException], R]] = None,
    ) -> List[R]:
        """Map ``fn`` over payloads on a process pool, order-preserving."""
        self._reset_fault_events()
        if not payloads:
            return []
        if failure_result is None:
            with self._pool() as pool:
                return list(
                    pool.map(
                        fn,
                        payloads,
                        chunksize=self.effective_chunksize(len(payloads)),
                    )
                )
        if self.job_timeout is not None:
            return self._run_with_deadline(fn, payloads, failure_result)
        return self._run_crash_tolerant(fn, payloads, failure_result)

    # ------------------------------------------------------------------
    def _degrade(
        self,
        fn: Callable[[P], R],
        remaining: List,
        results: List[R],
        failure_result: Callable[[P, BaseException], R],
    ) -> List[R]:
        """Run the unfinished tail on the serial executor."""
        logger.warning(
            "process pool broke %d times; degrading process -> serial for "
            "the remaining %d job(s)",
            self.fault_events["pool_respawns"],
            len(remaining),
        )
        self.fault_events["downgrades"].append("process->serial")
        count_fault_event("downgrades")
        fallback = SerialExecutor(job_timeout=self.job_timeout)
        tail = fallback.run(
            fn, [payload for _, payload in remaining], failure_result
        )
        self.fault_events["timeouts"] += fallback.fault_events["timeouts"]
        for (index, _), result in zip(remaining, tail):
            results[index] = result
        return results

    def _run_crash_tolerant(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        failure_result: Callable[[P, BaseException], R],
    ) -> List[R]:
        """Chunked ``pool.map`` inside a respawn-on-breakage loop.

        The clean path is identical to the legacy one (one pool, one
        chunked map); recovery only costs anything when a worker dies.
        """
        results: List[R] = [None] * len(payloads)  # type: ignore[list-item]
        remaining = list(enumerate(payloads))
        while remaining:
            received = 0
            try:
                with self._pool() as pool:
                    for result in pool.map(
                        fn,
                        [payload for _, payload in remaining],
                        chunksize=self.effective_chunksize(len(remaining)),
                    ):
                        results[remaining[received][0]] = result
                        received += 1
            except BrokenProcessPool:
                remaining = remaining[received:]
                self.fault_events["pool_respawns"] += 1
                count_fault_event("pool_respawns")
                logger.warning(
                    "process pool broke with %d job(s) unfinished; "
                    "respawning pool (%d/%d)",
                    len(remaining),
                    self.fault_events["pool_respawns"],
                    self.max_pool_respawns,
                )
                if self.fault_events["pool_respawns"] > self.max_pool_respawns:
                    return self._degrade(
                        fn, remaining, results, failure_result
                    )
            else:
                remaining = []
        return results

    def _run_with_deadline(
        self,
        fn: Callable[[P], R],
        payloads: Sequence[P],
        failure_result: Callable[[P, BaseException], R],
    ) -> List[R]:
        """Per-job submission with deadline kills and crash recovery.

        Jobs are submitted one per future (chunking would make a whole
        chunk share one deadline) with at most ``workers`` in flight, so
        the deadline clock starts when the job actually reaches a
        worker.  A job past its deadline means a hung worker: the whole
        pool is terminated, the hung job is replaced by
        ``failure_result`` (classified :class:`~repro.errors.
        JobTimeoutError`), and every *other* in-flight job is
        re-dispatched on a fresh pool.
        """
        results: List[R] = [None] * len(payloads)  # type: ignore[list-item]
        pending = deque(enumerate(payloads))
        inflight = {}  # future -> (index, payload, start_time)
        pool = self._pool()
        try:
            while pending or inflight:
                while pending and len(inflight) < self.workers:
                    index, payload = pending.popleft()
                    future = pool.submit(fn, payload)
                    inflight[future] = (index, payload, time.perf_counter())
                done, _ = wait(
                    set(inflight),
                    timeout=_POLL_INTERVAL,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    index, payload, _ = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        results[index] = future.result()
                    elif isinstance(error, BrokenProcessPool):
                        # The worker died before finishing this job —
                        # re-dispatch it (deterministic, so safe).
                        pending.appendleft((index, payload))
                        broken = True
                    else:
                        results[index] = failure_result(payload, error)
                now = time.perf_counter()
                expired = [
                    future
                    for future, (_, _, start) in inflight.items()
                    if now - start > self.job_timeout
                ]
                if expired:
                    for future in expired:
                        index, payload, _ = inflight.pop(future)
                        results[index] = self._record_timeout(
                            payload, failure_result
                        )
                    broken = True  # the hung worker must die with the pool
                if broken:
                    for index, payload, _ in inflight.values():
                        pending.appendleft((index, payload))
                    inflight.clear()
                    self._kill_pool(pool)
                    self.fault_events["pool_respawns"] += 1
                    count_fault_event("pool_respawns")
                    logger.warning(
                        "process pool respawned (%d/%d); %d job(s) "
                        "re-dispatched",
                        self.fault_events["pool_respawns"],
                        self.max_pool_respawns,
                        len(pending),
                    )
                    if (
                        self.fault_events["pool_respawns"]
                        > self.max_pool_respawns
                    ):
                        return self._degrade(
                            fn, list(pending), results, failure_result
                        )
                    pool = self._pool()
        finally:
            self._kill_pool(pool)
        return results

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate a pool's workers without waiting on hung jobs."""
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError):  # already gone
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass
        deadline = time.perf_counter() + 1.0
        for process in processes:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                process.join(remaining)
            except (OSError, ValueError, AssertionError):
                pass


_EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessBatchExecutor,
}


def resolve_executor(
    spec: Union[str, BatchExecutor],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    job_timeout: Optional[float] = None,
) -> BatchExecutor:
    """Turn an executor name (or pass through an instance) into a backend."""
    if isinstance(spec, BatchExecutor):
        return spec
    try:
        factory = _EXECUTORS[spec]
    except KeyError:
        raise CompilationError(
            f"unknown executor {spec!r}; choose from {EXECUTOR_NAMES}"
        ) from None
    return factory(workers, chunksize, job_timeout)
