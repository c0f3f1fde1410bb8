"""Workload ``compile_cold``: the compiler layer alone.

Each operation builds the device's instruction set and a fresh
``QTurboCompiler`` and compiles one target, which is what
``repro compile`` does.  The targets cover the compiler's three regimes:

* Ising/Heisenberg chains on ``rydberg-1d``: the bounded ``lsq_linear``
  solve of §4.1, 60-90% of every compile.
* All-to-all Ising on ``heisenberg`` with ``topology=all``: the dense
  ``pinv`` path.
* Ising/Heisenberg chains on nearest-neighbour ``heisenberg``: 1-2 ms
  jobs where fixed per-compile cost dominates.

The seed shuffles each round of the catalogue and draws each job's
evolution time, so every seed compiles the same mix of structures.  No
simulator, store or snapshot work is done.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from harness import NullTracer, Segment, closed_loop

NAME = "compile_cold"
#: Evolution times a job may draw.
TIMES = (0.8, 0.9, 1.0, 1.1, 1.2)
#: ``(model, device, topology, qubits)`` of every structure compiled.
CATALOGUE: Tuple[Tuple[str, str, Optional[str], int], ...] = tuple(
    [(m, "rydberg-1d", None, n) for m in ("ising_chain", "heisenberg_chain") for n in (6, 8, 10, 12)]
    + [("dense_ising", "heisenberg", "all", n) for n in (12, 14, 16, 18)]
    + [(m, "heisenberg", None, n) for m in ("ising_chain", "heisenberg_chain") for n in (8, 12, 16)]
)
#: The smallest structure of each regime, compiled once in set-up.
WARMUPS = (CATALOGUE[0], CATALOGUE[8], CATALOGUE[12])
#: One round compiles every catalogue entry once; the deterministic
#: counters are taken over the first round.
MIN_OPS = len(CATALOGUE)
PASSES = (
    "build_linear_system",
    "partition",
    "time_optimization",
    "fixed_solve",
    "refinement",
    "emit_schedule",
)


@dataclass(frozen=True)
class Job:
    model: str
    device: str
    topology: Optional[str]
    qubits: int
    time: float

    @property
    def key(self) -> str:
        """Catalogue key of the frozen reference values."""
        return f"{self.model}|{self.device}|{self.topology or '-'}|{self.qubits}|{self.time}"


def job_stream(seed: int) -> Iterator[Job]:
    """Endless seeded rounds: each a shuffled pass over the catalogue."""
    rng = random.Random(seed)
    while True:
        round_ = [Job(*entry, time=rng.choice(TIMES)) for entry in CATALOGUE]
        rng.shuffle(round_)
        yield from round_


def dense_ising(n: int, j: float = 0.15, h: float = 0.4):
    """All-to-all Ising with a transverse field."""
    from repro.hamiltonian import Hamiltonian
    from repro.hamiltonian.expression import x, zz

    target = Hamiltonian.zero()
    for a in range(n):
        target = target + h * x(a)
        for b in range(a + 1, n):
            target = target + j * zz(a, b)
    return target


def build_hamiltonian(job: Job):
    from repro.models import build_model

    return dense_ising(job.qubits) if job.model == "dense_ising" else build_model(job.model, job.qubits)


def compile_job(job: Job, target, tracer):
    """One ``repro compile``: instruction set, fresh compiler, compile.

    Returns the result and the seconds the ``compile_piecewise`` call took.
    """
    from repro.aais import aais_for_device
    from repro.core import QTurboCompiler

    options = {"topology": job.topology} if job.topology else None
    with tracer.span("core.new_compiler"):
        compiler = QTurboCompiler(aais_for_device(job.device, job.qubits, options))
    with tracer.span("core.compile_piecewise"):
        tick = time.perf_counter()
        result = compiler.compile_piecewise(target)
        call = time.perf_counter() - tick
        if tracer.enabled:
            # ``pass_trace`` holds durations only; the passes run one
            # after another, so they are laid end to end from the call.
            start = tick
            for record in result.pass_trace:
                end = start + float(record["seconds"])
                tracer.add(f"core.{record['name']}", start, end)
                start = end
    return result, call


@dataclass
class Outcome:
    ok: bool
    relative_error: float
    execution_time: float
    call_seconds: float
    trace: List[Dict[str, object]]


class Workload:
    name = NAME
    round_size = MIN_OPS

    def __init__(self, seed: int, frozen: Dict[str, Dict[str, float]], scratch: Path):
        self.seed = seed
        self.frozen = frozen

    def setup(self) -> Dict[Tuple, object]:
        """Targets for every (structure, time), and one warm-up compile per regime.

        The warm-ups load what each solver path imports lazily; the
        first timed round still meets every structure for the first time.
        """
        from repro.hamiltonian.time_dependent import PiecewiseHamiltonian

        targets = {}
        for entry in CATALOGUE:
            hamiltonian = build_hamiltonian(Job(*entry, time=1.0))
            for t in TIMES:
                targets[Job(*entry, time=t)] = PiecewiseHamiltonian.constant(hamiltonian, t)
        for entry in WARMUPS:
            job = Job(*entry, time=1.0)
            compile_job(job, targets[job], NullTracer())
        return targets

    def teardown(self, state) -> None:
        pass

    def segment(self, targets, seconds: float, tracer) -> Segment:
        def execute(job: Job) -> Outcome:
            result, call = compile_job(job, targets[job], tracer)
            if not result.success:
                return Outcome(False, float("nan"), float("nan"), call, [])
            return Outcome(True, result.relative_error, result.execution_time, call, result.pass_trace)

        return closed_loop(
            job_stream(self.seed),
            execute,
            seconds,
            MIN_OPS,
            tracer,
            op_name=lambda job: "compile",
            reference=True,
        )

    def check(self, segment: Segment) -> List[str]:
        """One message per job that failed or got worse than the frozen seed."""
        failures = []
        for index, (job, _, outcome) in enumerate(segment.records):
            if not outcome.ok:
                failures.append(f"job {index} ({job.key}) failed to compile")
                continue
            ref = self.frozen[job.key]
            for field_name, value in (
                ("relative_error", outcome.relative_error),
                ("execution_time", outcome.execution_time),
            ):
                if value > ref[field_name] + 1e-9 * max(1.0, abs(ref[field_name])):
                    failures.append(f"job {index} ({job.key}) {field_name} {value!r} > frozen {ref[field_name]!r}")
                    break
        return failures

    def end_to_end(self, segment: Segment) -> Dict[str, float]:
        outcomes = [o for _, _, o in segment.records if o.ok]
        return {
            "exec_time_us_mean": sum(o.execution_time for o in outcomes) / len(outcomes),
            "rel_error_mean": sum(o.relative_error for o in outcomes) / len(outcomes),
        }

    def per_layer(self, segment: Segment, tracer) -> Dict[str, float]:
        return core_metrics([o.trace for _, _, o in segment.records], [o.call_seconds for _, _, o in segment.records])


def core_metrics(traces: List[List[Dict[str, object]]], call_seconds: List[float]) -> Dict[str, float]:
    """Per-pass mean times of a run's compiles, plus first-round counts.

    Counts (rows, cols, residual, feasibility iterations) are summed
    over the first :data:`MIN_OPS` compiles only, so they repeat exactly
    between runs of one seed whatever the run length.
    """
    metrics: Dict[str, float] = {}
    if not traces:
        return metrics
    totals = {name: 0.0 for name in PASSES}
    facade = 0.0
    for trace, seconds in zip(traces, call_seconds):
        spent = 0.0
        for record in trace:
            if record["name"] in totals:
                totals[record["name"]] += float(record["seconds"])
            spent += float(record["seconds"])
        facade += seconds - spent
    for name, total in totals.items():
        metrics[f"core.{name}.ms"] = 1e3 * total / len(traces)
    metrics["core.facade.ms"] = 1e3 * facade / len(traces)
    counts = {"rows": 0, "cols": 0, "residual_l1": 0.0, "feasibility_iterations": 0}
    for trace in itertools.islice(traces, MIN_OPS):
        for record in trace:
            diagnostics = record.get("diagnostics", {})
            for key in counts:
                if key in diagnostics:
                    counts[key] += diagnostics[key]
    metrics["core.linear_system.rows"] = counts["rows"]
    metrics["core.linear_system.cols"] = counts["cols"]
    metrics["core.residual_l1.sum"] = counts["residual_l1"]
    metrics["core.feasibility_iterations.sum"] = counts["feasibility_iterations"]
    return metrics

