"""Shared machinery of the benchmark: the closed loop, statistics, spans.

Only the standard library is imported at module level (numpy is loaded
by :func:`environment`), so a script can import this module and still
pin the BLAS threads before numpy starts.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: The tail percentile every workload reports when it has enough samples.
TAIL_PCT = 95.0

#: Environment variables pinned to one BLAS/OpenMP thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS/OpenMP thread; only effective before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The percentile the tail metric reports for ``count`` samples.

    :data:`TAIL_PCT` is fixed, so that a run which completes a few more
    or fewer operations does not jump to another percentile.  If the run
    has fewer than ten samples beyond it, the highest percentile of
    :data:`TAIL_LADDER` that does is used instead.
    """
    if count * (1.0 - TAIL_PCT / 100.0) >= 10:
        return TAIL_PCT
    fitting = [p for p in TAIL_LADDER if count * (1.0 - p / 100.0) >= 10]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_by_metric(result_set: Dict[str, object], trace: int = 0) -> Dict[Tuple[str, str], Dict[int, float]]:
    """``{(workload, metric): {seed: value}}`` of one result set's runs."""
    table: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in result_set["runs"]:
        if run["trace"] != trace:
            continue
        for name, entry in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), {})[run["seed"]] = entry["value"]
    return table


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans with parent links, written out when the run ends.

    Spans opened on the calling thread nest through a per-thread stack.
    Spans opened on a thread with an empty stack (the service's handler
    and worker threads) attach to :attr:`adopt`, which the single caller
    sets to its in-flight request span.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.adopt: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        """Record ``name`` around the body; the body may add to ``attrs``."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.adopt
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span_id, parent, name, start, end, attrs)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere, under this thread's current span."""
        parent = self.current()
        self._record(next(self._ids), self.adopt if parent is None else parent, name, start, end, {})

    def _record(self, span_id, parent, name, start, end, attrs) -> None:
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "thread": threading.current_thread().name,
        }
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self.spans.append(record)

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread."""
        stack = self._local.__dict__.get("stack")
        return stack[-1] if stack else None

    def wrap(self, owner: object, method: str, name: str) -> None:
        """Replace ``owner.method`` on the instance with a spanned call."""
        inner = getattr(owner, method)

        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, method, spanned)

    # ------------------------------------------------------------------
    def _children(self) -> Dict[Optional[int], List[Dict[str, object]]]:
        children: Dict[Optional[int], List[Dict[str, object]]] = {}
        for record in self.spans:
            children.setdefault(record["parent"], []).append(record)
        return children

    @staticmethod
    def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
        """Length of ``[start, end]`` covered by the union of ``intervals``."""
        covered = 0.0
        cursor = start
        for low, high in sorted(intervals):
            low, high = max(low, cursor), min(high, end)
            if high > low:
                covered += high - low
                cursor = high
        return covered

    def self_times(self) -> Dict[str, float]:
        """Seconds of each span name not covered by its child spans."""
        children = self._children()
        totals: Dict[str, float] = {}
        for record in self.spans:
            start, end = record["start"], record["end"]
            covered = self._covered(start, end, ((c["start"], c["end"]) for c in children.get(record["id"], ())))
            name = record["name"]
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def layer_coverage(self) -> float:
        """Share of the time of layer spans that the spans inside them cover.

        A layer span is the benchmark's call into a layer: a span
        directly under an ``op:*`` span (``core.compile_piecewise``,
        ``sim.zne``, ``service.call``).  Layer spans with nothing traced
        inside them are leaves and are left out; with no other layer
        spans the result is 1.
        """
        children = self._children()
        ops = {record["id"] for record in self.spans if record["name"].startswith("op:")}
        total = covered = 0.0
        for record in self.spans:
            inner = children.get(record["id"])
            if record["parent"] not in ops or not inner:
                continue
            start, end = record["start"], record["end"]
            total += end - start
            covered += self._covered(start, end, ((c["start"], c["end"]) for c in inner))
        return covered / total if total > 0 else 1.0

    def write_jsonl(self, path: Path, summary: Dict[str, object]) -> None:
        """One JSON line per span, then one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


class NullTracer:
    """The untraced run's stand-in: same interface, records nothing."""

    enabled = False
    adopt = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        yield attrs

    def current(self) -> Optional[int]:
        return None


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """What one timed loop did: per-operation records and wall time.

    ``records`` holds ``(op, seconds, output)`` per operation in order;
    ``extra`` what the workload keeps for its checks and metrics, first
    the counters captured once ``min_ops`` operations had run.
    """

    records: List[Tuple[object, float, object]] = field(default_factory=list)
    elapsed: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)
    #: Completion time of each operation, in seconds from the loop start.
    stamps: List[float] = field(default_factory=list)
    #: Seconds of the host reference product timed after each operation.
    reference: List[float] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        return [seconds for _, seconds, _ in self.records]

    @property
    def host_scale(self) -> float:
        """Factor from this run's host speed to the nominal one (1 without a reference)."""
        if not self.reference:
            return 1.0
        return REFERENCE_NOMINAL_S / statistics.median(self.reference)


#: Side of the complex matrix squared by :class:`HostReference`.
REFERENCE_SIZE = 200
#: The nominal host is the one on which that product takes 1 ms.
REFERENCE_NOMINAL_S = 1e-3


class HostReference:
    """A fixed dense product, timed between operations to gauge the host's speed.

    The shared host running the benchmark swings by a fifth in speed for
    minutes at a time, and the compute-bound workloads slow down with it.
    This product uses none of the code under test, so a change to the
    package cannot move it, while the host's swings move it alike.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        shape = (REFERENCE_SIZE, REFERENCE_SIZE)
        self.matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def __call__(self) -> float:
        tick = time.perf_counter()
        self.matrix @ self.matrix
        return time.perf_counter() - tick


def closed_loop(
    stream: Iterable[object],
    execute: Callable[[object], object],
    seconds: float,
    min_ops: int,
    tracer=None,
    on_prefix: Optional[Callable[[Segment], Dict[str, object]]] = None,
    op_name: Callable[[object], str] = lambda op: "op",
    reference: bool = False,
) -> Segment:
    """One caller: send the next operation only after the last returned.

    Runs until ``seconds`` have passed and at least ``min_ops``
    operations completed.  With a tracer, the loop is one ``run`` span
    and each operation an ``op:<name>`` span under it.  With
    ``reference``, the :class:`HostReference` product is timed after
    each operation; its time is left out of latencies, stamps and
    ``elapsed``, and the loop runs that much longer.
    """
    tracer = tracer or NullTracer()
    segment = Segment()
    host = HostReference() if reference else None
    clock = time.perf_counter
    with tracer.span("run"):
        start = clock()
        paused = 0.0
        for index, op in enumerate(stream):
            with tracer.span(f"op:{op_name(op)}"):
                tick = clock()
                output = execute(op)
                tock = clock()
            segment.records.append((op, tock - tick, output))
            segment.stamps.append(tock - start - paused)
            if host is not None:
                segment.reference.append(host())
                paused += segment.reference[-1]
            if index + 1 == min_ops and on_prefix is not None:
                segment.extra.update(on_prefix(segment))
            if segment.stamps[-1] >= seconds and index + 1 >= min_ops:
                break
        segment.elapsed = clock() - start - paused
    return segment


def windows(segment: Segment, size: int) -> List[Tuple[float, List[float]]]:
    """Consecutive windows of ``size`` operations: ``(seconds, latencies)``.

    Each window is one round of the workload's stratified stream, so
    every window does the same mix of work.  A trailing partial window
    is dropped.
    """
    result = []
    previous = 0.0
    latencies = segment.latencies
    for end in range(size, len(segment.stamps) + 1, size):
        stamp = segment.stamps[end - 1]
        result.append((stamp - previous, latencies[end - size:end]))
        previous = stamp
    return result


def latency_metrics(segment: Segment, window: int) -> Tuple[Dict[str, float], float]:
    """Throughput, median and tail latency of one segment, and the tail's percentile.

    Throughput and median latency are medians over rounds (see
    :func:`windows`), so a few seconds of a slower machine do not move
    them; the tail is taken over every operation of the run.  A segment
    timed against the host reference reports all three at the nominal
    host speed (see :attr:`Segment.host_scale`).
    """
    latencies = segment.latencies
    rounds = windows(segment, window) or [(segment.elapsed, latencies)]
    pct = tail_percentile(len(latencies))
    scale = segment.host_scale
    return {
        "throughput_ops_s": statistics.median(len(lat) / seconds for seconds, lat in rounds) / scale,
        "latency_p50_ms": 1e3 * scale * statistics.median(percentile(lat, 50.0) for _, lat in rounds),
        "latency_tail_ms": 1e3 * scale * percentile(latencies, pct),
    }, pct


def tracing_overhead(untraced: Segment, traced: Segment) -> float:
    """Traced minus untraced time per operation, as a percentage.

    Both segments replay the same seeded stream from fresh state, so
    operation ``i`` of one is operation ``i`` of the other.  The median
    of the paired differences, over the mean untraced operation time,
    keeps one slow outlier on either side from swamping the estimate.
    """
    count = min(len(untraced.records), len(traced.records))
    base = untraced.latencies[:count]
    differences = [t - u for u, t in zip(base, traced.latencies[:count])]
    return 100.0 * statistics.median(differences) / (sum(base) / count)


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` directly, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            packed = git / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(root: Path) -> Dict[str, object]:
    """What a result set needs to be compared with another one."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}".strip()
        blas_config = info.get("openblas configuration")
        if blas_config:
            blas = blas_config
    except (TypeError, KeyError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(root),
    }
