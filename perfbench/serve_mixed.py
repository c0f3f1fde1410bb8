"""Workload ``serve_mixed``: the service, its stores and delta compiles.

Boots an in-process ``ReproService`` with the default ``ServiceConfig``
(only the port and a fresh data directory set) and sends it, from one
``ServiceClient``, a seeded stream of compile requests over six
(model, qubits) structures on ``rydberg-1d``:

* about 60% repeat a digest already sent: ``ResultStore`` reads;
* the rest carry a new evolution time: the first for a structure is a
  cold commit, later ones re-enter a snapshot as delta compiles, and
  each is written to the store.

It is the only workload that reaches the HTTP layer, the queue, the
result store and snapshot re-entry, and its worker compilers keep warm
structural caches where ``compile_cold`` builds fresh ones.  One caller
in a closed loop: every executed request also waits out the queue's
20 ms linger, which users see too.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import compile_cold
from harness import Segment, closed_loop

NAME = "serve_mixed"
DEVICE = "rydberg-1d"
STRUCTURES = tuple((model, qubits) for model in ("ising_chain", "heisenberg_chain") for qubits in (4, 6, 8))
#: Requests per round, and how many of them carry a new time (~40%).
ROUND_SIZE = 2 * len(STRUCTURES)
NEW_PER_ROUND = 5
#: Deterministic counters are read after this many requests.
MIN_OPS = 120
#: Executed replies recompiled in-process after timing.
RECOMPILE_SAMPLE = 8
#: Warm-up request of set-up; its structure is not in the stream.
WARMUP = {"model": "ising_chain", "qubits": 3, "time": 1.0, "device": DEVICE}


@dataclass(frozen=True)
class Request:
    model: str
    qubits: int
    time: float
    repeat: bool

    def body(self) -> Dict[str, object]:
        return {"model": self.model, "qubits": self.qubits, "time": self.time, "device": DEVICE}


def request_stream(seed: int) -> Iterator[Request]:
    """Endless seeded rounds; each sends every structure twice.

    :data:`NEW_PER_ROUND` slots of a round carry a new evolution time
    (every slot does while a structure has no history yet); the others
    repeat a time already sent for their structure.
    """
    rng = random.Random(seed)
    sent: Dict[tuple, List[float]] = {structure: [] for structure in STRUCTURES}
    while True:
        slots = list(STRUCTURES) * 2
        rng.shuffle(slots)
        fresh = set(rng.sample(range(len(slots)), NEW_PER_ROUND))
        for index, structure in enumerate(slots):
            history = sent[structure]
            if history and index not in fresh:
                yield Request(*structure, rng.choice(history), True)
                continue
            t = round(rng.uniform(0.8, 1.2), 4)
            while t in history:
                t = round(rng.uniform(0.8, 1.2), 4)
            history.append(t)
            yield Request(*structure, t, False)


def canonical(schedule: Dict[str, object]) -> str:
    return json.dumps(schedule, sort_keys=True)


@dataclass
class ServeState:
    service: object
    client: object
    data_dir: Path


class Workload:
    name = NAME
    round_size = ROUND_SIZE

    def __init__(self, seed: int, frozen: Optional[dict], scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> ServeState:
        """Boot a service on a fresh data directory; one warm-up request."""
        from repro.service import ReproService, ServiceClient, ServiceConfig

        self.scratch.mkdir(parents=True, exist_ok=True)
        data_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=self.scratch))
        service = ReproService(ServiceConfig(port=0, data_dir=data_dir)).start()
        state = ServeState(service, ServiceClient(service.url), data_dir)
        try:
            state.client.health()
            reply = state.client.compile(WARMUP)
            if reply["job"]["status"] != "done":
                raise RuntimeError(f"warm-up request failed: {reply['job']}")
        except Exception:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: ServeState) -> None:
        from repro.batch.compiler import reset_worker_compilers
        from repro.core.pipeline.snapshot import reset_snapshot_stores

        state.service.close()
        reset_worker_compilers()
        reset_snapshot_stores()
        shutil.rmtree(state.data_dir, ignore_errors=True)

    def segment(self, state: ServeState, seconds: float, tracer) -> Segment:
        compiled: List[object] = []
        if tracer.enabled:
            inner = state.service.state
            tracer.wrap(inner.results, "load", "store.load")
            tracer.wrap(inner.results, "store", "store.store")
            submit, compile_many = inner.submit, inner.batch.compile_many
            enqueued = [0.0]

            def traced_submit(kind, request):
                with tracer.span("service.submit"):
                    job = submit(kind, request)
                enqueued[0] = time.perf_counter()
                return job

            def traced_compile_many(jobs, **options):
                # One caller: the batch holds the job submitted last, and
                # it sat in the queue (the linger) since then.
                tracer.add("queue.wait", enqueued[0], time.perf_counter())
                with tracer.span("batch.compile_many", jobs=len(jobs)):
                    batch = compile_many(jobs, **options)
                compiled.extend(outcome.result for outcome in batch.outcomes if outcome.ok)
                return batch

            inner.submit = traced_submit
            inner.batch.compile_many = traced_compile_many

        def execute(request: Request) -> Dict[str, object]:
            with tracer.span("service.call"):
                tracer.adopt = tracer.current()
                try:
                    return state.client.compile(request.body())
                finally:
                    tracer.adopt = None

        segment = closed_loop(
            request_stream(self.seed),
            execute,
            seconds,
            MIN_OPS,
            tracer,
            on_prefix=lambda so_far: {"counters": _prefix_counters(state.client.stats(), so_far)},
            op_name=lambda request: "request",
        )
        segment.extra["compiled"] = compiled
        return segment

    def check(self, segment: Segment) -> List[str]:
        """Replies done, repeats bit-identical, a sample recompiled in-process."""
        failures = []
        first: Dict[str, str] = {}
        executed = []
        for index, (request, _, reply) in enumerate(segment.records):
            job = reply.get("job", {})
            result = reply.get("result") or {}
            if job.get("status") != "done" or not result.get("success"):
                failures.append(f"request {index} ({request}) not served: {job}")
                continue
            schedule = canonical(result["schedule"])
            digest = job["job_id"]
            if digest in first:
                if first[digest] != schedule:
                    failures.append(f"request {index} ({request}) differs from the first reply of {digest}")
            else:
                first[digest] = schedule
                executed.append((index, request, schedule))
        rng = random.Random(self.seed)
        for index, request, schedule in rng.sample(executed, min(RECOMPILE_SAMPLE, len(executed))):
            if canonical(recompile(request)) != schedule:
                failures.append(f"request {index} ({request}) differs from an in-process compile")
        return failures

    def end_to_end(self, segment: Segment) -> Dict[str, float]:
        results = [reply["result"] for _, _, reply in segment.records if (reply.get("result") or {}).get("success")]
        return {
            "exec_time_us_mean": sum(r["execution_time_us"] for r in results) / len(results),
            "rel_error_mean": sum(r["relative_error"] for r in results) / len(results),
        }

    def per_layer(self, segment: Segment, tracer) -> Dict[str, float]:
        by_source: Dict[str, List[float]] = {}
        queue_wait: List[float] = []
        by_mode: Dict[str, List[float]] = {}
        for _, seconds, reply in segment.records:
            source = reply["job"]["source"]
            by_source.setdefault(source, []).append(seconds)
            if source == "executed":
                result = reply["result"]
                queue_wait.append(seconds - result["compile_seconds"])
                mode = (result.get("incremental") or {}).get("mode", "cold")
                by_mode.setdefault(mode, []).append(result["compile_seconds"])
        metrics: Dict[str, float] = {
            "service.store_hit.ms": _mean_ms(by_source.get("store", [])),
            "service.executed.ms": _mean_ms(by_source.get("executed", [])),
            "service.queue_wait.ms": _mean_ms(queue_wait),
            "service.hit_ratio": len(by_source.get("store", [])) / len(segment.records),
            "snapshot.delta.compile_ms": _mean_ms(by_mode.get("delta", [])),
            "snapshot.cold.compile_ms": _mean_ms(by_mode.get("cold", [])),
        }
        metrics.update(segment.extra.get("counters", {}))
        spans: Dict[str, List[float]] = {}
        for span in tracer.spans:
            spans.setdefault(span["name"], []).append(span["end"] - span["start"])
        for name in ("store.load", "store.store"):
            metrics[f"{name}.ms"] = _mean_ms(spans.get(name, []))
            metrics[f"{name}.count"] = len(spans.get(name, []))
        metrics["batch.compile_many.ms"] = _mean_ms(spans.get("batch.compile_many", []))
        compiled = segment.extra["compiled"]
        metrics.update(
            compile_cold.core_metrics(
                [result.pass_trace for result in compiled],
                [result.compile_seconds for result in compiled],
            )
        )
        return metrics


def _prefix_counters(stats: Dict[str, object], segment: Segment) -> Dict[str, int]:
    """Queue counters and snapshot modes after the first requests."""
    modes = {"delta": 0, "cold": 0}
    for _, _, reply in segment.records:
        if reply["job"]["source"] == "executed":
            mode = (reply["result"].get("incremental") or {}).get("mode", "cold")
            modes[mode] = modes.get(mode, 0) + 1
    queue = stats["queue"]
    return {
        "queue.batches": queue["batches"],
        "queue.max_batch": queue["max_batch"],
        "queue.attached": queue["attached"],
        "snapshot.delta": modes["delta"],
        "snapshot.cold": modes["cold"],
    }


def recompile(request: Request) -> Dict[str, object]:
    """The schedule a cold in-process compile emits for ``request``."""
    from repro.aais import aais_for_device
    from repro.core import QTurboCompiler
    from repro.models import build_model

    result = QTurboCompiler(aais_for_device(DEVICE, request.qubits)).compile(
        build_model(request.model, request.qubits), request.time
    )
    return json.loads(json.dumps(result.schedule.to_dict()))


def _mean_ms(values: List[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0
