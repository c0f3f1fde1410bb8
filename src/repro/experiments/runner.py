"""Execute declarative experiments: sweep expansion → jobs → artifacts.

The runner expands a spec's sweep grid into fully-resolved jobs, skips
every job the run directory already holds a complete artifact for
(resume), and dispatches the rest through a :mod:`repro.batch` executor.
Each job runs the whole pipeline for one sweep point — compile (through
the worker-memoized :func:`repro.batch.compiler_for`), optional fidelity
verification, noisy Monte-Carlo simulation on the vectorized block
engine, and ZNE — inside a per-job failure boundary: one infeasible or
crashing point never sinks the sweep.

Job records are plain JSON dictionaries (the artifact format is the
API); see ``docs/experiments.md`` for the record schema.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.batch.compiler import (
    HARD_VERIFY_CAP,
    compiler_for,
    verify_fidelity,
)
from repro.batch.executors import resolve_executor
from repro.batch.jobs import BatchJob
from repro.batch.retry import RetryPolicy, call_with_retry
from repro.errors import RetryExhaustedError, classify_failure
from repro.experiments.spec import (
    ExperimentJob,
    ExperimentSpec,
    expand_sweep,
)
from repro.experiments.store import ArtifactStore
from repro.testing.faults import fault_point

__all__ = ["ExperimentRunner", "RunResult", "run_experiment"]


def _build_workload(spec: ExperimentSpec, job_id: str):
    """Build ``(batch_job, time_independent_target, num_qubits)`` for a spec.

    The time-independent target comes back ``None`` for time-dependent
    models (it only feeds the digital gate-count comparison).
    """
    from repro.aais import aais_for_device
    from repro.hamiltonian import parse_hamiltonian
    from repro.models import build_model, build_time_dependent_model

    model = spec.model
    params = dict(model.params)
    compiler_options = dict(spec.compiler)
    if model.hamiltonian is not None:
        target = parse_hamiltonian(model.hamiltonian)
        num_qubits = max(model.qubits, target.num_qubits())
        aais = aais_for_device(
            spec.device, num_qubits, dict(spec.device_options)
        )
        job = BatchJob.constant(
            job_id, target, spec.time, aais, **compiler_options
        )
        return job, target, num_qubits
    if model.is_time_dependent:
        sweep_target = build_time_dependent_model(
            model.name, model.qubits, duration=spec.time, **params
        )
        num_qubits = model.qubits
        aais = aais_for_device(
            spec.device, num_qubits, dict(spec.device_options)
        )
        job = BatchJob.time_dependent(
            job_id, sweep_target, spec.segments, aais, **compiler_options
        )
        return job, None, num_qubits
    target = build_model(model.name, model.qubits, **params)
    num_qubits = max(model.qubits, target.num_qubits())
    aais = aais_for_device(spec.device, num_qubits, dict(spec.device_options))
    job = BatchJob.constant(
        job_id, target, spec.time, aais, **compiler_options
    )
    return job, target, num_qubits


def _compile_section(result) -> Dict[str, object]:
    """The JSON-serializable summary of one compilation result."""
    section: Dict[str, object] = {
        "success": bool(result.success),
        "summary": result.summary(),
        "compile_seconds": result.compile_seconds,
    }
    if result.success:
        section["execution_time_us"] = result.execution_time
        section["relative_error"] = result.relative_error
        section["num_segments"] = (
            result.schedule.num_segments if result.schedule else 0
        )
    else:
        section["message"] = result.message
    if result.pass_trace:
        section["passes"] = list(result.pass_trace)
        section["stage_timings"] = result.stage_timings.as_dict()
    if result.warnings:
        section["warnings"] = list(result.warnings)
    return section


def _simulation_sections(
    spec: ExperimentSpec, schedule, seed: int
) -> Dict[str, object]:
    """Run the noisy-simulation (+ optional ZNE) stages of one job."""
    from repro.sim import NoisySimulator, aquila_noise

    sim = spec.simulation
    noise = aquila_noise(**dict(sim.noise)) if sim.noise else None
    simulator = NoisySimulator(
        noise=noise,
        noise_samples=sim.noise_samples,
        seed=seed,
    )
    sections: Dict[str, object] = {}
    if spec.zne is not None:
        from repro.mitigation import zne_observables

        zne = zne_observables(
            schedule,
            simulator,
            factors=spec.zne.factors,
            shots=sim.shots,
            periodic=sim.periodic,
        )
        sections["observables"] = {
            key: values[0] for key, values in zne.raw.items()
        }
        sections["zne"] = {
            "factors": list(zne.factors),
            "raw": {key: list(values) for key, values in zne.raw.items()},
            "mitigated": zne.mitigated,
        }
    else:
        sections["observables"] = simulator.observables(
            schedule, shots=sim.shots, periodic=sim.periodic
        )
    return sections


def _digital_section(spec: ExperimentSpec, target) -> Dict[str, object]:
    """Trotter step/gate counts for the digital comparison stage."""
    from repro.digital import gate_counts, trotter_steps_required

    steps = trotter_steps_required(target, spec.time, spec.digital.epsilon)
    counts = gate_counts(target, steps)
    return {
        "epsilon": spec.digital.epsilon,
        "trotter_steps": steps,
        "two_qubit_gates": counts.two_qubit,
        "total_gates": counts.total,
    }


def _baseline_section(spec: ExperimentSpec, job: BatchJob) -> Dict[str, object]:
    """Compile the same workload with the SimuQ-style baseline."""
    from repro.baseline import SimuQStyleCompiler

    baseline = SimuQStyleCompiler(job.aais, seed=spec.baseline.seed)
    result = baseline.compile_piecewise(job.target)
    return _compile_section(result)


def execute_job(
    spec: ExperimentSpec,
    job_id: str = "job0000-adhoc",
    index: int = 0,
    seed: int = 0,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    """Run every stage of one resolved spec and return its job record.

    This is the unit of work the executors distribute; any exception is
    captured into a ``status="error"`` record rather than propagated.
    The two failure statuses split cleanly: ``compile_failed`` means the
    compiler *ran* and deterministically reported an infeasible target
    (complete — never retried), while ``error`` means a stage raised
    (retried now and on resume when the failure class is transient).
    Every attempt rebuilds all stage sections from scratch, so a
    retried-to-success record is bit-identical to a first-try success.
    """
    tick = time.perf_counter()
    record: Dict[str, object] = {
        "job_id": job_id,
        "index": index,
        "seed": seed,
        "spec_hash": spec.spec_hash,
    }

    def _attempt() -> Dict[str, object]:
        fault_point("runner.job")
        sections: Dict[str, object] = {}
        job, flat_target, num_qubits = _build_workload(spec, job_id)
        sections["num_qubits"] = num_qubits
        if spec.digital is not None and flat_target is not None:
            sections["digital"] = _digital_section(spec, flat_target)
        if spec.baseline is not None:
            sections["baseline"] = _baseline_section(spec, job)
        result = compiler_for(job).compile_piecewise(job.target)
        sections["compile"] = _compile_section(result)
        if not result.success or result.schedule is None:
            sections["status"] = "compile_failed"
            return sections
        # Same guard and memoized helper as batch --verify: the hard cap
        # bounds state-vector cost no matter what the spec asks for.
        verify_cap = min(spec.verify_max_qubits, HARD_VERIFY_CAP)
        if spec.verify and num_qubits <= verify_cap:
            sections["fidelity"] = verify_fidelity(job, result)
        if spec.simulation is not None:
            sections.update(
                _simulation_sections(spec, result.schedule, seed)
            )
        sections["status"] = "ok"
        return sections

    outcome = call_with_retry(_attempt, retry, key=job_id)
    if outcome.ok:
        record.update(outcome.value)
    else:  # per-job isolation is the contract
        error = outcome.error
        record["status"] = "error"
        record["error"] = str(error)
        record["error_type"] = type(error).__name__
        record["failure_class"] = outcome.failure_class
        record["error_traceback"] = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        if isinstance(error, RetryExhaustedError):
            record["retry_exhausted"] = True
    if outcome.attempts_used > 1:
        record["attempts"] = outcome.attempts_used
    if outcome.attempts:
        record["failed_attempts"] = list(outcome.attempts)
    record["seconds"] = time.perf_counter() - tick
    return record


def _execute_payload(
    payload: Tuple[int, str, Dict, int, Optional[Dict]],
) -> Dict[str, object]:
    """Module-level worker so the process executor can pickle it."""
    index, job_id, spec_dict, seed, policy_dict = payload
    spec = ExperimentSpec.from_dict(spec_dict)
    retry = RetryPolicy(**policy_dict) if policy_dict else None
    return execute_job(
        spec,
        job_id=job_id,
        index=index,
        seed=seed,
        retry=retry,
    )


def _failure_record(
    payload: Tuple[int, str, Dict, int, Optional[Dict]],
    error: BaseException,
) -> Dict[str, object]:
    """Record for a job the *executor* failed (deadline kill, worker
    crash surviving degradation) — the worker never got to build one."""
    index, job_id, spec_dict, seed = payload[:4]
    return {
        "job_id": job_id,
        "index": index,
        "seed": seed,
        "spec_hash": ExperimentSpec.from_dict(spec_dict).spec_hash,
        "status": "error",
        "error": str(error),
        "error_type": type(error).__name__,
        "failure_class": classify_failure(error),
        "executor_fault": True,
        "seconds": 0.0,
    }


@dataclass
class RunResult:
    """What one :meth:`ExperimentRunner.run` call did.

    Attributes
    ----------
    run_dir:
        The artifact directory of this run.
    records:
        One job record per sweep point, in expansion order (freshly
        executed and resumed ones alike).
    executed / skipped:
        How many jobs ran now vs. were resumed from disk.
    """

    run_dir: Path
    records: List[Dict] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    #: Executor-level fault events of this invocation: ``timeouts``,
    #: ``pool_respawns``, ``downgrades`` (see ``docs/robustness.md``).
    fault: Dict[str, object] = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        """Total number of sweep points."""
        return len(self.records)

    @property
    def num_ok(self) -> int:
        """Jobs that completed every stage successfully."""
        return sum(1 for r in self.records if r.get("status") == "ok")

    @property
    def num_failed(self) -> int:
        """Jobs that failed to compile or raised."""
        return self.num_jobs - self.num_ok

    @property
    def all_ok(self) -> bool:
        """True when every sweep point succeeded."""
        return self.num_failed == 0

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"{self.num_ok}/{self.num_jobs} jobs ok "
            f"({self.executed} executed, {self.skipped} resumed) "
            f"in {self.run_dir}"
        )


class ExperimentRunner:
    """Expand, execute, and persist a declarative experiment.

    Parameters
    ----------
    executor:
        Override the spec's ``execution.executor`` (name or instance).
    workers:
        Override the spec's ``execution.workers``.
    chunksize:
        Override the spec's ``execution.chunksize`` (jobs per
        process-pool dispatch chunk).
    retries:
        Override the spec's ``execution.retries`` — extra attempts per
        job after a transient failure (see ``docs/robustness.md``).
    retry_backoff:
        Override the spec's ``execution.retry_backoff`` base delay.
    job_timeout:
        Override the spec's ``execution.job_timeout`` per-job deadline
        in seconds.
    """

    def __init__(
        self,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        job_timeout: Optional[float] = None,
    ):
        self.executor = executor
        self.workers = workers
        self.chunksize = chunksize
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.job_timeout = job_timeout

    def plan(self, spec: ExperimentSpec) -> List[ExperimentJob]:
        """The deterministic job list the sweep grid expands into."""
        return expand_sweep(spec)

    def run(
        self,
        spec: ExperimentSpec,
        run_dir: Union[str, Path],
        force: bool = False,
    ) -> RunResult:
        """Execute ``spec``, resuming from ``run_dir`` when possible.

        Parameters
        ----------
        spec:
            The experiment to execute.
        run_dir:
            Artifact directory; an existing directory must hold the same
            spec (by content hash) and is resumed — jobs with complete
            artifacts are skipped, jobs that previously raised are
            retried.
        force:
            Wipe a mismatched or partial directory and recompute
            everything.

        Returns
        -------
        RunResult
            All job records in expansion order plus execute/skip counts.
        """
        jobs = self.plan(spec)
        store = ArtifactStore(run_dir)
        store.initialize(spec, jobs, force=force)

        pending = [
            job
            for job in jobs
            if force or not store.is_complete(job.job_id)
        ]
        retries = (
            self.retries
            if self.retries is not None
            else spec.execution.retries
        )
        retry_backoff = (
            self.retry_backoff
            if self.retry_backoff is not None
            else spec.execution.retry_backoff
        )
        job_timeout = (
            self.job_timeout
            if self.job_timeout is not None
            else spec.execution.job_timeout
        )
        policy_dict: Optional[Dict[str, object]] = None
        if retries > 0:
            policy_dict = {
                "max_attempts": retries + 1,
                "backoff": retry_backoff,
            }
        executor = resolve_executor(
            self.executor
            if self.executor is not None
            else spec.execution.executor,
            self.workers
            if self.workers is not None
            else spec.execution.workers,
            self.chunksize
            if self.chunksize is not None
            else spec.execution.chunksize,
            job_timeout=job_timeout,
        )
        payloads = [
            (job.index, job.job_id, job.spec.to_dict(), job.seed,
             policy_dict)
            for job in pending
        ]
        fresh = executor.run(
            _execute_payload, payloads, failure_result=_failure_record
        )
        for record in fresh:
            store.write_job(record)

        by_id = {record["job_id"]: record for record in fresh}
        records = []
        for job in jobs:
            record = by_id.get(job.job_id) or store.read_job(job.job_id)
            records.append(
                record
                if record is not None
                else {"job_id": job.job_id, "index": job.index,
                      "status": "error", "error": "missing artifact"}
            )
        fault = {
            key: value
            for key, value in executor.fault_events.items()
            if value
        }
        return RunResult(
            run_dir=Path(run_dir),
            records=records,
            executed=len(fresh),
            skipped=len(jobs) - len(fresh),
            fault=fault,
        )


def run_experiment(
    spec: ExperimentSpec,
    run_dir: Union[str, Path],
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    force: bool = False,
    retries: Optional[int] = None,
    retry_backoff: Optional[float] = None,
    job_timeout: Optional[float] = None,
) -> RunResult:
    """Convenience wrapper: run ``spec`` into ``run_dir`` in one call."""
    return ExperimentRunner(
        executor=executor,
        workers=workers,
        chunksize=chunksize,
        retries=retries,
        retry_backoff=retry_backoff,
        job_timeout=job_timeout,
    ).run(spec, run_dir, force=force)
