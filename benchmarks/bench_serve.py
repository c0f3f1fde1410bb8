#!/usr/bin/env python
"""Service benchmark: warm store hits vs cold compiles, over HTTP.

Three measurements, written to ``BENCH_serve.json``:

1. **Cold throughput** — a fresh service (empty data dir) answering a
   sweep of distinct compile requests over a real socket; every
   request executes through the batch pipeline and commits to the
   persistent store.
2. **Warm throughput** — the service is torn down, the in-process
   worker compilers are reset (``reset_worker_compilers``), and a *new*
   service instance is booted on the same data directory.  The same sweep resubmitted is
   answered entirely from the content-addressed result store — this is
   the restart-survives-warm story, and the headline ``speedup`` is
   warm requests/sec over cold.
3. **Dedup under concurrency** — N client threads submitting one
   identical request against a cold store while its compile is held
   for a second; the queue's digest dedup must execute it exactly
   once (its ``seconds`` include the hold).

Every warm schedule is checked bit-identical to its cold counterpart
before any number is reported — a fast-but-wrong cache would fail the
run, not flatter it.

Run:
    python benchmarks/bench_serve.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.batch.compiler import reset_worker_compilers
from repro.service import ReproService, ServiceClient, ServiceConfig
from repro.testing import FaultRule, inject_faults

DEFAULT_OUTPUT = "BENCH_serve.json"


def sweep_requests(quick: bool) -> List[Dict]:
    """Distinct-digest compile requests (a structure-sharing sweep)."""
    models = ["ising_chain", "heisenberg_chain"]
    times = [0.6, 0.8, 1.0, 1.2] if not quick else [0.8, 1.2]
    sizes = [3, 4] if not quick else [3]
    return [
        {"model": model, "qubits": qubits, "time": t, "device": "rydberg-1d"}
        for model in models
        for qubits in sizes
        for t in times
    ]


def drive(url: str, requests: List[Dict]) -> Dict:
    """Submit every request sequentially; returns timings + schedules."""
    client = ServiceClient(url)
    schedules = {}
    tick = time.perf_counter()
    for request in requests:
        reply = client.compile(request)
        assert reply["job"]["status"] == "done", reply
        schedules[reply["job"]["job_id"]] = reply["result"]["schedule"]
    seconds = time.perf_counter() - tick
    return {
        "seconds": seconds,
        "requests_per_sec": len(requests) / seconds,
        "schedules": schedules,
        "sources": client.stats()["service"],
    }


def bench_cold_vs_warm(data_dir: pathlib.Path, quick: bool) -> Dict:
    requests = sweep_requests(quick)

    with ReproService(ServiceConfig(port=0, data_dir=data_dir)) as service:
        cold = drive(service.url, requests)
        cold_stats = ServiceClient(service.url).stats()

    # Emulate a restart: drop every in-process cache, then boot a new
    # instance over the same persistent data directory.
    reset_worker_compilers()
    with ReproService(ServiceConfig(port=0, data_dir=data_dir)) as service:
        warm = drive(service.url, requests)
        warm_stats = ServiceClient(service.url).stats()

    assert warm["schedules"] == cold["schedules"], (
        "warm store served different schedules than the cold compiles"
    )
    assert warm_stats["service"]["store_hits"] == len(requests), (
        "warm phase was not answered entirely from the persistent store"
    )
    return {
        "num_requests": len(requests),
        "cold_seconds": cold["seconds"],
        "cold_requests_per_sec": cold["requests_per_sec"],
        "warm_seconds": warm["seconds"],
        "warm_requests_per_sec": warm["requests_per_sec"],
        "speedup": warm["requests_per_sec"] / cold["requests_per_sec"],
        "bit_identical": True,
        "cold_queue": {"executed": cold_stats["queue"]["executed"]},
        "warm_store_hits": warm_stats["service"]["store_hits"],
    }


def bench_dedup(data_dir: pathlib.Path, threads: int = 8) -> Dict:
    request = {"model": "ising_chain", "qubits": 4, "time": 1.0}
    # Hold the one compile so every thread's request arrives while it
    # is in flight and attaches to it.
    hold = FaultRule(site="batch.job", action="delay", delay=1.0)
    with ReproService(
        ServiceConfig(port=0, data_dir=data_dir)
    ) as service, inject_faults(hold):
        client = ServiceClient(service.url)
        replies = []
        lock = threading.Lock()

        def worker():
            reply = client.compile(request)
            with lock:
                replies.append(reply)

        tick = time.perf_counter()
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        seconds = time.perf_counter() - tick
        stats = client.stats()

    schedules = [reply["result"]["schedule"] for reply in replies]
    assert all(s == schedules[0] for s in schedules)
    return {
        "threads": threads,
        "seconds": seconds,
        "executions": stats["queue"]["executed"],
        "attached": stats["queue"]["attached"],
        "store_hits": stats["service"]["store_hits"],
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweep (CI-sized)"
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON"
    )
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        root = pathlib.Path(tmp)
        cold_vs_warm = bench_cold_vs_warm(root / "restart", args.quick)
        dedup = bench_dedup(root / "dedup")
        payload = {
            "benchmark": "serve",
            "quick": args.quick,
            "cold_vs_warm": cold_vs_warm,
            "dedup": dedup,
            # Cross-benchmark schema contract: every BENCH_*.json carries
            # a per-workload `runs` list (see TestBenchReportSchema).
            "runs": [
                {
                    "workload": "cold_sweep",
                    "requests": cold_vs_warm["num_requests"],
                    "seconds": cold_vs_warm["cold_seconds"],
                    "requests_per_sec": cold_vs_warm["cold_requests_per_sec"],
                },
                {
                    "workload": "warm_sweep",
                    "requests": cold_vs_warm["num_requests"],
                    "seconds": cold_vs_warm["warm_seconds"],
                    "requests_per_sec": cold_vs_warm["warm_requests_per_sec"],
                },
                {
                    "workload": "dedup",
                    "requests": dedup["threads"],
                    "seconds": dedup["seconds"],
                    "executions": dedup["executions"],
                },
            ],
        }

    headline = payload["cold_vs_warm"]
    print(
        f"cold: {headline['cold_requests_per_sec']:.1f} req/s   "
        f"warm: {headline['warm_requests_per_sec']:.1f} req/s   "
        f"speedup: {headline['speedup']:.1f}x   "
        f"(n={headline['num_requests']}, bit-identical)"
    )
    dedup = payload["dedup"]
    print(
        f"dedup: {dedup['threads']} threads -> "
        f"{dedup['executions']} execution(s), "
        f"{dedup['attached']} attached, {dedup['store_hits']} store hit(s)"
    )
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {output}]")
    if headline["speedup"] < 3.0:
        print("WARNING: warm speedup below the 3x acceptance floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
