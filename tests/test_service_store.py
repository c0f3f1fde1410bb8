"""Unit suite for the service layer's storage and queue primitives.

Covers the content-addressed :class:`ResultStore` (digest keys as
integrity checks, atomic writes, GC), the digest-deduplicating
:class:`JobQueue`, and route dispatch error mapping.
"""

import json
import threading

import pytest

from repro.service import Job, JobQueue, ResultStore, job_digest
from repro.service.routes import ServiceError, dispatch


# ----------------------------------------------------------------------
# job_digest
# ----------------------------------------------------------------------
def test_job_digest_is_canonical():
    a = job_digest("compile", {"model": "ising_chain", "qubits": 3})
    b = job_digest("compile", {"qubits": 3, "model": "ising_chain"})
    assert a == b  # key order must not matter
    assert len(a) == 32 and int(a, 16) >= 0


def test_job_digest_separates_kind_and_content():
    request = {"model": "ising_chain", "qubits": 3}
    assert job_digest("compile", request) != job_digest("simulate", request)
    assert job_digest("compile", request) != job_digest(
        "compile", {**request, "qubits": 4}
    )


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------
def test_result_store_round_trip(tmp_path):
    store = ResultStore(tmp_path / "results")
    digest = job_digest("compile", {"model": "x"})
    store.store(digest, {"kind": "compile", "result": {"ok": True}})
    record = store.load(digest)
    assert record["digest"] == digest
    assert record["result"] == {"ok": True}
    assert store.stats()["hits"] == 1


def test_result_store_miss_and_corrupt(tmp_path):
    store = ResultStore(tmp_path / "results")
    digest = job_digest("compile", {"model": "x"})
    assert store.load(digest) is None  # miss

    store.store(digest, {"kind": "compile", "result": {}})
    path = store.path_for(digest)

    # Torn write: truncated JSON reads as a miss, not an exception.
    path.write_text(path.read_text()[: 10])
    assert store.load(digest) is None

    # Wrong content under the right name: embedded digest mismatch.
    path.write_text(json.dumps({"digest": "0" * 32, "result": {}}))
    assert store.load(digest) is None
    assert store.stats()["corrupt"] == 2


def test_result_store_gc_oldest_first(tmp_path):
    store = ResultStore(tmp_path / "results")
    digests = []
    for index in range(4):
        digest = job_digest("compile", {"i": index})
        store.store(digest, {"kind": "compile", "result": {"i": index}})
        # mtime is the GC ordering key; space the records out.
        t = 1_000_000 + index
        import os

        os.utime(store.path_for(digest), (t, t))
        digests.append(digest)
    outcome = store.gc(max_results=2)
    assert outcome["evicted"] == 2 and outcome["kept"] == 2
    assert store.load(digests[0]) is None  # oldest evicted
    assert store.load(digests[3]) is not None  # newest kept
    assert store.disk_stats()["records"] == 2


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------
def test_queue_executes_and_finishes():
    def execute(job):
        job.finish({"result": {"echo": job.request}})

    queue = JobQueue(execute)
    try:
        job = queue.submit(Job("compile", "d1", {"x": 1}))
        assert job.wait(5.0)
        assert job.status == "done"
        assert job.result["result"]["echo"] == {"x": 1}
        assert queue.get("d1") is job  # addressable after completion
    finally:
        queue.close()


def test_queue_dedups_by_digest():
    release = threading.Event()

    def execute(job):
        release.wait(5.0)
        job.finish({"result": {}})

    queue = JobQueue(execute)
    try:
        first = queue.submit(Job("compile", "dup", {"x": 1}))
        second = queue.submit(Job("compile", "dup", {"x": 1}))
        assert second is first  # attached, not re-enqueued
        release.set()
        assert first.wait(5.0)
        stats = queue.stats()
        assert stats["attached"] == 1
        assert stats["executed"] == 1  # compiled exactly once
    finally:
        queue.close()


def test_queue_runs_one_job_at_a_time_in_submission_order():
    ran = []
    gate = threading.Event()

    def execute(job):
        gate.wait(5.0)  # hold the first job until all are queued
        ran.append(job.digest)
        job.finish({"result": {}})

    queue = JobQueue(execute)
    try:
        jobs = [queue.submit(Job("compile", f"d{i}", {"i": i})) for i in range(5)]
        gate.set()
        for job in jobs:
            assert job.wait(5.0)
        assert ran == [f"d{i}" for i in range(5)]  # each alone, FIFO
    finally:
        queue.close()


def test_finished_job_drops_its_workload_but_stays_addressable():
    def execute(job):
        job.finish({"result": {"built": job.prepared}})

    queue = JobQueue(execute)
    try:
        first = queue.submit(Job("compile", "held", {}, prepared="workload"))
        # FIFO: the first job's bookkeeping is done before the next runs.
        assert queue.submit(Job("compile", "next", {})).wait(5.0)
        assert first.result["result"]["built"] == "workload"
        assert first.prepared is None
        assert queue.get("held") is first
    finally:
        queue.close()


def test_queue_failure_boundary():
    def execute(job):
        raise RuntimeError("executor exploded")

    queue = JobQueue(execute)
    try:
        job = queue.submit(Job("compile", "boom", {}))
        assert job.wait(5.0)
        assert job.status == "failed"
        assert "executor exploded" in job.error
    finally:
        queue.close()


def test_queue_fails_forgotten_jobs():
    def execute(job):
        pass  # never calls finish/fail

    queue = JobQueue(execute)
    try:
        job = queue.submit(Job("compile", "lost", {}))
        assert job.wait(5.0)
        assert job.status == "failed"  # the queue backstops it
    finally:
        queue.close()


@pytest.mark.parametrize(
    "flag",
    [
        ["serve", "--executor", "process"],
        ["serve", "--workers", "2"],
        # The retired thread-pool batch backend.
        ["batch", "--model", "ising_chain", "--executor", "thread"],
    ],
)
def test_retired_serve_flags_are_usage_errors(flag):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(flag)
    assert exc.value.code == 2


def test_queue_rejects_after_close():
    queue = JobQueue(lambda job: None)
    queue.close()
    with pytest.raises(RuntimeError):
        queue.submit(Job("compile", "late", {}))


# ----------------------------------------------------------------------
# Route dispatch (no HTTP socket needed)
# ----------------------------------------------------------------------
class _FakeState:
    class config:
        wait_timeout = 1.0

    def health(self):
        return {"status": "ok"}

    def stats(self):
        return {"service": {}}

    def submit(self, kind, request):
        return Job.completed(kind, "deadbeef", request, {"result": {"k": kind}})

    def job_payload(self, digest):
        if digest == "known":
            return {"job_id": digest, "status": "done"}
        return None


def test_dispatch_routes():
    state = _FakeState()
    assert dispatch(state, "GET", "/v1/health", None)[0] == 200
    assert dispatch(state, "GET", "/v1/stats", None)[0] == 200
    status, payload = dispatch(state, "POST", "/v1/compile", {"model": "x"})
    assert status == 200 and payload["result"] == {"k": "compile"}
    assert dispatch(state, "GET", "/v1/jobs/known", None)[0] == 200


def test_dispatch_error_mapping():
    state = _FakeState()
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "POST", "/v1/health", None)
    assert exc.value.status == 405
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "GET", "/v1/jobs/missing", None)
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "GET", "/v1/nope", None)
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "POST", "/v1/compile", {"timeout": -1})
    assert exc.value.status == 400
