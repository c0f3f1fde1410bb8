"""The service's in-process job queue: dedup, batching, lifecycle.

Every request the service accepts becomes a :class:`Job` keyed by its
content digest.  The queue guarantees two properties the stress suite
pins down:

* **Digest dedup** — while a job for digest ``d`` is queued or running,
  any further submission of ``d`` *attaches* to the existing job
  instead of enqueueing a second one; both callers observe the same
  result object.  Combined with the persistent result store (checked
  before the queue), identical requests are compiled at most once per
  store lifetime.
* **Batch coalescing** — the worker drains every job that is pending
  when it wakes (plus a short linger window) into one batch, so
  concurrent compile requests run through
  :meth:`repro.batch.BatchCompiler.compile_many` with
  ``coalesce=True`` — structurally similar compiles execute adjacently
  and share linear systems and worker compilers.

The queue is executor-agnostic: it owns threading and bookkeeping, and
delegates actual work to the ``execute_batch`` callable the service
installs (see :class:`repro.service.app.ServiceState`).
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

__all__ = ["Job", "JobQueue"]

#: Completed jobs kept addressable for ``GET /v1/jobs/<digest>`` after
#: they leave the in-flight table.
_RECENT_CAP = 256


class Job:
    """One unit of service work, addressable by content digest.

    Attributes
    ----------
    kind:
        ``"compile"`` | ``"simulate"`` | ``"run"``.
    digest:
        Content digest of ``(kind, request)`` — the job id.
    request:
        The validated request payload.
    status:
        ``queued`` → ``running`` → ``done`` | ``failed``.
    source:
        How the result was produced: ``executed`` (ran here),
        ``store`` (served from the persistent result store), or
        ``attached`` (deduped onto an in-flight twin).
    """

    def __init__(self, kind: str, digest: str, request: Dict):
        self.kind = kind
        self.digest = digest
        self.request = request
        self.status = "queued"
        self.source = "executed"
        self.result: Optional[Dict] = None
        self.error: Optional[str] = None
        self.created = time.time()
        self.finished_at: Optional[float] = None
        self._event = threading.Event()

    @classmethod
    def completed(cls, kind: str, digest: str, request: Dict,
                  result: Dict, source: str = "store") -> "Job":
        """A job that is already done (e.g. a persistent-store hit)."""
        job = cls(kind, digest, request)
        job.finish(result)
        job.source = source
        return job

    # ------------------------------------------------------------------
    def finish(self, result: Dict) -> None:
        """Mark the job done with ``result`` and wake every waiter."""
        self.result = result
        self.status = "done"
        self.finished_at = time.time()
        self._event.set()

    def fail(self, error: str) -> None:
        """Mark the job failed with ``error`` and wake every waiter."""
        self.error = error
        self.status = "failed"
        self.finished_at = time.time()
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job completes; False on timeout."""
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        """True once the job finished (successfully or not)."""
        return self._event.is_set()

    def describe(self) -> Dict[str, object]:
        """The JSON job descriptor the HTTP API serves."""
        payload: Dict[str, object] = {
            "job_id": self.digest,
            "kind": self.kind,
            "status": self.status,
            "source": self.source,
            "created": self.created,
        }
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def __repr__(self) -> str:
        return f"Job({self.kind}:{self.digest[:8]}, {self.status})"


class JobQueue:
    """Digest-deduplicating batch queue with one worker thread.

    Parameters
    ----------
    execute_batch:
        Callable receiving the drained list of jobs; it must call
        :meth:`Job.finish` or :meth:`Job.fail` on each (any it misses
        are failed by the queue afterwards — a job can never hang).
    linger:
        Seconds the worker waits after the first job of a batch for
        more to arrive, trading a little latency for coalescing.
    batch_max:
        Upper bound on jobs drained into one batch.
    """

    def __init__(
        self,
        execute_batch: Callable[[List[Job]], None],
        linger: float = 0.02,
        batch_max: int = 64,
    ):
        self._execute_batch = execute_batch
        self.linger = float(linger)
        self.batch_max = int(batch_max)
        self._pending: "_queue.Queue[Optional[Job]]" = _queue.Queue()
        self._inflight: Dict[str, Job] = {}
        self._recent: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "attached": 0,
            "executed": 0,
            "failed": 0,
            "batches": 0,
            "max_batch": 0,
        }
        self._running = True
        self._worker = threading.Thread(
            target=self._work, name="repro-serve-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Enqueue ``job``, or attach to an in-flight twin by digest.

        Returns the canonical job for the digest — the caller must wait
        on (and read results from) the returned object, which may not
        be the one passed in.
        """
        with self._lock:
            if not self._running:
                raise RuntimeError("job queue is shut down")
            self._counters["submitted"] += 1
            existing = self._inflight.get(job.digest)
            if existing is not None:  # both callers share one result
                self._counters["attached"] += 1
                return existing
            self._inflight[job.digest] = job
        self._pending.put(job)
        return job

    def get(self, digest: str) -> Optional[Job]:
        """The in-flight or recently completed job for ``digest``."""
        with self._lock:
            return self._inflight.get(digest) or self._recent.get(digest)

    # ------------------------------------------------------------------
    def _drain(self, first: Job) -> List[Job]:
        """One batch: ``first`` plus whatever arrives within the linger."""
        batch = [first]
        deadline = time.monotonic() + self.linger
        while len(batch) < self.batch_max:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    job = self._pending.get(timeout=remaining)
                else:
                    job = self._pending.get_nowait()
            except _queue.Empty:
                break
            if job is None:  # shutdown sentinel — put back for the loop
                self._pending.put(None)
                break
            batch.append(job)
        return batch

    def _work(self) -> None:
        while True:
            job = self._pending.get()
            if job is None:
                return
            batch = self._drain(job)
            for member in batch:
                member.status = "running"
            try:
                self._execute_batch(batch)
            except Exception as error:  # the boundary: no job may hang
                for member in batch:
                    if not member.done:
                        member.fail(f"{type(error).__name__}: {error}")
            finally:
                with self._lock:
                    self._counters["batches"] += 1
                    self._counters["max_batch"] = max(
                        self._counters["max_batch"], len(batch)
                    )
                    for member in batch:
                        if not member.done:
                            member.fail("executor returned without a result")
                        if member.status == "done":
                            self._counters["executed"] += 1
                        else:
                            self._counters["failed"] += 1
                        self._inflight.pop(member.digest, None)
                        self._recent[member.digest] = member
                        while len(self._recent) > _RECENT_CAP:
                            self._recent.popitem(last=False)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Queue counters plus current depth."""
        with self._lock:
            stats: Dict[str, object] = dict(self._counters)
            stats["inflight"] = len(self._inflight)
        return stats

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs, drain the worker, and join it."""
        with self._lock:
            self._running = False
        self._pending.put(None)
        self._worker.join(timeout)

    def __repr__(self) -> str:
        return f"JobQueue(inflight={len(self._inflight)})"
