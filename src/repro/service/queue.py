"""The service's in-process job queue: dedup, FIFO execution, lifecycle.

Every request the service accepts becomes a :class:`Job` keyed by its
content digest.  The queue guarantees two properties the stress suite
pins down:

* **Digest dedup** — while a job for digest ``d`` is queued or running,
  any further submission of ``d`` *attaches* to the existing job
  instead of enqueueing a second one; both callers observe the same
  result object.  Combined with the persistent result store (checked
  before the queue), identical requests are compiled at most once per
  store lifetime.
* **FIFO, one job at a time** — the worker takes the oldest pending
  job, runs it to completion, records it, and takes the next; a job
  never waits for others to arrive.

The queue is executor-agnostic: it owns threading and bookkeeping, and
delegates actual work to the ``execute`` callable the service installs
(see :class:`repro.service.app.ServiceState`).
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

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
    prepared:
        The executable workload built from ``request``; the queue drops
        it once the job has run, so finished jobs kept for lookup do
        not pin their instruction set and target.
    """

    def __init__(self, kind: str, digest: str, request: Dict,
                 prepared: Any = None):
        self.kind = kind
        self.digest = digest
        self.request = request
        self.prepared = prepared
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
    """Digest-deduplicating FIFO queue with one worker thread.

    Parameters
    ----------
    execute:
        Callable receiving one job; it must call :meth:`Job.finish` or
        :meth:`Job.fail` on it (a job it misses is failed by the queue
        afterwards — a job can never hang).
    """

    def __init__(self, execute: Callable[[Job], None]):
        self._execute = execute
        self._pending: "_queue.Queue[Optional[Job]]" = _queue.Queue()
        self._inflight: Dict[str, Job] = {}
        self._recent: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "attached": 0,
            "executed": 0,
            "failed": 0,
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
    def _work(self) -> None:
        while True:
            job = self._pending.get()
            if job is None:
                return
            job.status = "running"
            try:
                self._execute(job)
            except Exception as error:  # the boundary: no job may hang
                if not job.done:
                    job.fail(f"{type(error).__name__}: {error}")
            finally:
                if not job.done:
                    job.fail("executor returned without a result")
                job.prepared = None
                with self._lock:
                    if job.status == "done":
                        self._counters["executed"] += 1
                    else:
                        self._counters["failed"] += 1
                    self._inflight.pop(job.digest, None)
                    self._recent[job.digest] = job
                    while len(self._recent) > _RECENT_CAP:
                        self._recent.popitem(last=False)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Queue counters plus current depth.

        ``batches`` and ``max_batch`` remain for readers of the former
        batching queue: every job runs alone, so they are the number of
        jobs run and 1 once any has run.
        """
        with self._lock:
            stats: Dict[str, object] = dict(self._counters)
            stats["inflight"] = len(self._inflight)
        ran = stats["executed"] + stats["failed"]
        stats["batches"] = ran
        stats["max_batch"] = min(ran, 1)
        return stats

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs, drain the worker, and join it."""
        with self._lock:
            self._running = False
        self._pending.put(None)
        self._worker.join(timeout)

    def __repr__(self) -> str:
        return f"JobQueue(inflight={len(self._inflight)})"
