"""Concurrency stress suite for the shared service stores.

The guarantees under test are the ones ``docs/service.md`` promises
multi-tenant deployments:

* **No torn reads** — a reader of the result store observes either
  nothing or a complete, digest-valid record, never a partially
  written one, even with writers racing it and ``corrupt`` faults
  injected at the write sites.
* **No duplicate compiles** — N clients hammering one service with
  identical requests produce exactly one execution per unique digest
  (in-flight dedup) and at most one per store lifetime (persistent
  store), with every client observing the same bit-identical schedule.
"""

import concurrent.futures
import threading

import pytest

from repro.service import (
    ReproService,
    ResultStore,
    ServiceClient,
    ServiceConfig,
    job_digest,
)
from repro.testing import FaultRule, inject_faults


@pytest.fixture()
def service(tmp_path):
    with ReproService(
        ServiceConfig(port=0, data_dir=tmp_path / "svc")
    ) as instance:
        yield instance


# ----------------------------------------------------------------------
# Service-level: N threads, identical + distinct digests
# ----------------------------------------------------------------------
def test_hammering_identical_requests_compiles_once(service):
    client = ServiceClient(service.url)
    request = {"model": "ising_chain", "qubits": 3, "time": 1.0}
    threads, replies, errors = 8, [], []

    def worker():
        try:
            replies.append(client.compile(request))
        except Exception as error:  # collected, not swallowed
            errors.append(error)

    # Hold the one compile long enough for every twin to attach to it.
    hold = FaultRule(site="batch.job", action="delay", delay=2.0)
    with inject_faults(hold):
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(120.0)

    assert not errors
    assert len(replies) == threads
    schedules = [reply["result"]["schedule"] for reply in replies]
    assert all(s == schedules[0] for s in schedules)  # bit-identical
    stats = client.stats()
    # Exactly one execution; every other caller attached to it.
    assert stats["queue"]["executed"] == 1
    assert stats["queue"]["attached"] == threads - 1
    assert stats["service"]["store_hits"] == 0


def test_mixed_digests_each_execute_once(service):
    client = ServiceClient(service.url)
    unique, repeats = 4, 3
    requests = [
        {"model": "ising_chain", "qubits": 2 + index, "time": 1.0}
        for index in range(unique)
    ]
    replies = {}
    lock = threading.Lock()

    def worker(request):
        reply = client.compile(request)
        with lock:
            replies.setdefault(
                reply["job"]["job_id"], []
            ).append(reply["result"]["schedule"])

    with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            pool.submit(worker, request)
            for request in requests
            for _ in range(repeats)
        ]
        for future in futures:
            future.result(timeout=300)

    assert len(replies) == unique
    for schedules in replies.values():
        assert len(schedules) == repeats
        assert all(s == schedules[0] for s in schedules)
    stats = client.stats()
    assert stats["queue"]["executed"] == unique  # one compile per digest
    assert stats["results"]["disk"]["records"] == unique


# ----------------------------------------------------------------------
# ResultStore: mixed readers/writers + injected write corruption
# ----------------------------------------------------------------------
def test_result_store_no_torn_reads_under_faults(tmp_path):
    store = ResultStore(tmp_path / "results")
    digests = [job_digest("compile", {"i": index}) for index in range(4)]
    payloads = {
        digest: {"kind": "compile", "request": {"i": index}, "result": {"i": index}}
        for index, digest in enumerate(digests)
    }
    stop = threading.Event()
    violations = []

    def reader():
        while not stop.is_set():
            for index, digest in enumerate(digests):
                record = store.load(digest)
                if record is None:
                    continue  # miss/corrupt degrades to None — fine
                # A served record must be complete and self-consistent.
                if (
                    record.get("digest") != digest
                    or record.get("result") != {"i": index}
                ):
                    violations.append(record)

    def writer():
        while not stop.is_set():
            for digest in digests:
                store.store(digest, payloads[digest])

    # Every ~3rd write is scribbled right after it lands.
    rule = FaultRule(
        site="service.result", action="corrupt", probability=0.3
    )
    with inject_faults(rule, seed=7):
        threads = [threading.Thread(target=reader) for _ in range(3)] + [
            threading.Thread(target=writer) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        stop.wait(1.5)
        stop.set()
        for thread in threads:
            thread.join(10.0)

    assert violations == []
    stats = store.stats()
    assert stats["writes"] > 0 and stats["hits"] > 0
