"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``compile``
    Compile a registered model (or a textual Hamiltonian) onto a device
    and print the schedule plus metrics as JSON.  ``--explain`` prints
    the per-pass trace table (wall time, cache hits, diagnostics);
    ``--explain --at-pass NAME`` additionally dumps the intermediate
    compilation state as it stood right after that pass ran (see
    ``docs/compilation.md``); ``--enable-pass``/``--disable-pass``
    toggle pipeline passes (the optional ``schedule_compaction``, or
    the L1 step of ``refinement``).
``models``
    List the registered benchmark models.
``compare``
    Run QTurbo and the SimuQ-style baseline on the same workload and
    print the three Section-7 metrics side by side.
``batch``
    Compile a sweep of jobs (model × sizes × repeats) concurrently
    through :mod:`repro.batch` and report throughput plus cache stats.
``simulate``
    Compile a workload and execute it through the vectorized
    Monte-Carlo noisy simulator (optionally with ZNE mitigation),
    printing observables and simulation-cache statistics.
``cache-stats``
    Print the operator, simulation fast-path, compiler pass-level, and
    fault-tolerance statistics of this process as JSON (most
    informative at the end of a workload — ``simulate``/``batch
    --verify`` include the same report inline).
``run``
    Execute a declarative experiment spec (YAML/JSON) end to end —
    sweep expansion, batched compile + noisy simulation + ZNE, and a
    resumable artifact directory — then print the aggregated report.
``report``
    Re-aggregate an existing run directory into a table / JSON report.
``serve``
    Start the long-running compile/simulate/run HTTP service
    (:mod:`repro.service`) over a persistent shared store — warm
    requests are served from the content-addressed result store and
    cold ones run one at a time in arrival order (see
    ``docs/service.md``).
``submit``
    Submit one workload (or an experiment spec) to a running ``repro
    serve`` instance and print the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.aais import DEVICE_PRESETS, aais_for_device
from repro.baseline import SimuQStyleCompiler
from repro.batch import (
    EXECUTOR_NAMES,
    BatchCompiler,
    BatchJob,
    RetryPolicy,
)
from repro.blas import pin_blas_threads
from repro.core import QTurboCompiler
from repro.hamiltonian import Hamiltonian, parse_hamiltonian
from repro.models import build_model, model_names
from repro.sim.operators import operator_cache_stats
from repro.sim.propagators import simulation_cache_stats

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QTurbo analog quantum simulation compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser("compile", help="compile a target")
    _add_workload_args(compile_cmd)
    compile_cmd.add_argument(
        "--no-refine",
        action="store_true",
        help="disable the Section-6.2 refinement pass",
    )
    compile_cmd.add_argument(
        "--explain",
        action="store_true",
        help="print the per-pass trace table (time, cache, diagnostics)",
    )
    compile_cmd.add_argument(
        "--enable-pass",
        action="append",
        default=[],
        metavar="NAME",
        help="enable an optional pipeline pass (schedule_compaction); "
        "repeatable",
    )
    compile_cmd.add_argument(
        "--disable-pass",
        action="append",
        default=[],
        metavar="NAME",
        help="disable a pipeline pass (e.g. refinement); repeatable",
    )
    compile_cmd.add_argument(
        "--at-pass",
        metavar="NAME",
        help="with --explain: dump the intermediate compilation state "
        "as it stood right after this pass (time-travel diagnostics)",
    )
    compile_cmd.add_argument(
        "--output",
        choices=("summary", "json"),
        default="summary",
        help="print a one-line summary or the full schedule JSON",
    )

    sub.add_parser("models", help="list registered benchmark models")

    compare_cmd = sub.add_parser(
        "compare", help="QTurbo vs SimuQ-style baseline"
    )
    _add_workload_args(compare_cmd)
    compare_cmd.add_argument(
        "--seed", type=int, default=0, help="baseline restart seed"
    )

    batch_cmd = sub.add_parser(
        "batch", help="compile many jobs concurrently"
    )
    _add_workload_args(batch_cmd)
    batch_cmd.add_argument(
        "--sizes",
        help="comma-separated system sizes, e.g. 4,6,8 (overrides -n)",
    )
    batch_cmd.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="duplicate every job this many times (cache exercise)",
    )
    batch_cmd.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default="serial",
        help="execution backend",
    )
    batch_cmd.add_argument(
        "--workers", type=int, default=None, help="pool size"
    )
    batch_cmd.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="jobs per process-pool dispatch chunk (amortizes pickling "
        "on large sweeps; the serial executor ignores it)",
    )
    batch_cmd.add_argument(
        "--verify",
        action="store_true",
        help="simulate each compiled schedule and record state fidelity",
    )
    _add_fault_tolerance_args(batch_cmd)
    batch_cmd.add_argument(
        "--output",
        choices=("summary", "json"),
        default="summary",
        help="print per-job lines or the full batch report as JSON",
    )

    simulate_cmd = sub.add_parser(
        "simulate", help="noisy Monte-Carlo simulation of a compiled pulse"
    )
    _add_workload_args(simulate_cmd)
    simulate_cmd.add_argument(
        "--shots", type=int, default=1000, help="measurement shots"
    )
    simulate_cmd.add_argument(
        "--noise-samples",
        type=int,
        default=20,
        help="quasi-static noise realizations the shots are split across",
    )
    simulate_cmd.add_argument(
        "--seed", type=int, default=0, help="simulator RNG seed"
    )
    simulate_cmd.add_argument(
        "--zne",
        metavar="FACTORS",
        help="comma-separated stretch factors, e.g. 1,1.5,2 — runs "
        "zero-noise extrapolation and reports mitigated observables",
    )
    simulate_cmd.add_argument(
        "--stats",
        action="store_true",
        help="include operator/simulation cache statistics in the output",
    )

    sub.add_parser(
        "cache-stats",
        help="print operator + simulation + compiler cache statistics "
        "as JSON",
    )

    run_cmd = sub.add_parser(
        "run", help="execute a declarative experiment spec (YAML/JSON)"
    )
    run_cmd.add_argument("spec", help="path to the experiment spec file")
    run_cmd.add_argument(
        "--out",
        help="run directory (default: runs/<name>-<spec-hash>)",
    )
    run_cmd.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        help="override the spec's execution.executor",
    )
    run_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the spec's execution.workers",
    )
    run_cmd.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="override the spec's execution.chunksize (jobs per "
        "process-pool dispatch chunk)",
    )
    run_cmd.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the spec and print the expanded job plan only",
    )
    run_cmd.add_argument(
        "--force",
        action="store_true",
        help="recompute everything, overwriting existing artifacts",
    )
    _add_fault_tolerance_args(run_cmd, override=True)
    run_cmd.add_argument(
        "--output",
        choices=("summary", "json"),
        default="summary",
        help="print the report table or the full report JSON",
    )

    report_cmd = sub.add_parser(
        "report", help="aggregate an experiment run directory"
    )
    report_cmd.add_argument(
        "run_dir", help="directory produced by 'repro run'"
    )
    report_cmd.add_argument(
        "--output",
        choices=("summary", "json"),
        default="summary",
        help="print the report table or the full report JSON",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="start the compile/simulate/run HTTP service over a "
        "persistent shared store (see docs/service.md)",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks a free one; the bound URL is printed)",
    )
    serve_cmd.add_argument(
        "--data-dir",
        default=".repro-service",
        metavar="DIR",
        help="persistent service state: results/, runs/",
    )
    serve_cmd.add_argument(
        "--max-results", type=int, default=None,
        help="result-store GC cap: keep at most this many records",
    )
    serve_cmd.add_argument(
        "--max-result-bytes", type=int, default=None,
        help="result-store GC cap: keep at most this many bytes",
    )

    submit_cmd = sub.add_parser(
        "submit",
        help="submit one workload (or an experiment spec) to a running "
        "'repro serve' instance",
    )
    submit_cmd.add_argument(
        "spec",
        nargs="?",
        help="experiment spec (YAML/JSON) to submit as a run job; "
        "omit to submit a single workload via --model/--hamiltonian",
    )
    workload = submit_cmd.add_mutually_exclusive_group()
    workload.add_argument(
        "--model", help=f"registered model name ({', '.join(model_names())})"
    )
    workload.add_argument(
        "--hamiltonian",
        help='textual Hamiltonian, e.g. "Z0*Z1 + X0 + X1"',
    )
    submit_cmd.add_argument(
        "-n", "--qubits", type=int, default=3, help="system size"
    )
    submit_cmd.add_argument(
        "-t", "--time", type=float, default=1.0, help="target time (µs)"
    )
    submit_cmd.add_argument(
        "--device",
        choices=DEVICE_PRESETS,
        default="rydberg-1d",
        help="target device preset",
    )
    submit_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of the running service",
    )
    submit_cmd.add_argument(
        "--simulate",
        action="store_true",
        help="submit as a simulate job (compile + noisy observables)",
    )
    submit_cmd.add_argument(
        "--shots", type=int, default=1000,
        help="measurement shots for --simulate",
    )
    submit_cmd.add_argument(
        "--no-wait",
        action="store_true",
        help="return the job descriptor immediately instead of blocking",
    )
    submit_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="server-side wait budget before a 202 descriptor comes back",
    )
    return parser


def _add_fault_tolerance_args(
    parser: argparse.ArgumentParser, override: bool = False
) -> None:
    """The shared --retries/--job-timeout/--retry-backoff knobs.

    With ``override=True`` (``repro run``) the defaults are None so an
    omitted flag defers to the spec's ``execution`` section; ``repro
    batch`` has no spec and defaults to retries off.
    """
    suffix = " (overrides the spec's execution section)" if override else ""
    parser.add_argument(
        "--retries",
        type=int,
        default=None if override else 0,
        help="extra attempts per job after a transient failure"
        f"{suffix}; see docs/robustness.md",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline; jobs still running at the deadline are "
        f"killed and recorded as JobTimeoutError{suffix}",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=None if override else 0.05,
        metavar="SECONDS",
        help="base delay before the first retry (doubles per further "
        f"retry, with seeded jitter){suffix}",
    )


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--model", help=f"registered model name ({', '.join(model_names())})"
    )
    group.add_argument(
        "--hamiltonian",
        help='textual Hamiltonian, e.g. "Z0*Z1 + X0 + X1"',
    )
    parser.add_argument(
        "-n", "--qubits", type=int, default=3, help="system size"
    )
    parser.add_argument(
        "-t", "--time", type=float, default=1.0, help="target time (µs)"
    )
    parser.add_argument(
        "--device",
        choices=DEVICE_PRESETS,
        default="rydberg-1d",
        help="target device preset",
    )


def _build_target(args: argparse.Namespace) -> Hamiltonian:
    if args.model:
        return build_model(args.model, args.qubits)
    return parse_hamiltonian(args.hamiltonian)


def _build_aais(args: argparse.Namespace, target: Hamiltonian):
    return aais_for_device(
        args.device, max(args.qubits, target.num_qubits())
    )


def _command_compile(args: argparse.Namespace) -> int:
    from repro.core.pipeline import trace_table
    from repro.hamiltonian.time_dependent import PiecewiseHamiltonian

    if args.at_pass and not args.explain:
        raise CLIUsageError("--at-pass requires --explain")
    target = _build_target(args)
    aais = _build_aais(args, target)
    passes = {}
    if args.enable_pass:
        passes["enable"] = list(args.enable_pass)
    if args.disable_pass:
        passes["disable"] = list(args.disable_pass)
    compiler = QTurboCompiler(
        aais,
        refine=not args.no_refine,
        passes=passes or None,
    )
    result = compiler.compile(target, args.time)
    at_pass_state = None
    if args.at_pass and result.success:
        at_pass_state = compiler.explain_at_pass(
            PiecewiseHamiltonian.constant(target, args.time), args.at_pass
        )
    if args.output == "json":
        payload = {
            "success": result.success,
            "summary": result.summary(),
            "execution_time_us": result.execution_time,
            "relative_error": result.relative_error,
            "schedule": result.schedule.to_dict() if result.schedule else None,
            "warnings": result.warnings,
        }
        if args.explain:
            payload["passes"] = result.pass_trace
            payload["stage_timings"] = result.stage_timings.as_dict()
        if at_pass_state is not None:
            payload["at_pass"] = at_pass_state
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.summary())
        if args.explain:
            print(trace_table(result.pass_trace))
        if at_pass_state is not None:
            print(f"state after pass {args.at_pass!r}:")
            print(json.dumps(at_pass_state, indent=2, sort_keys=True))
        for warning in result.warnings:
            print(f"warning: {warning}")
    return 0 if result.success else 1


def _command_models(_args: argparse.Namespace) -> int:
    for name in model_names():
        print(name)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    target = _build_target(args)
    aais = _build_aais(args, target)
    qturbo = QTurboCompiler(aais).compile(target, args.time)
    baseline = SimuQStyleCompiler(aais, seed=args.seed).compile(
        target, args.time
    )
    print(f"qturbo : {qturbo.summary()}")
    print(f"simuq  : {baseline.summary()}")
    if qturbo.success and baseline.success:
        speedup = baseline.compile_seconds / max(
            qturbo.compile_seconds, 1e-9
        )
        print(f"compile speedup: {speedup:.1f}x")
    return 0 if qturbo.success else 1


def _batch_jobs(args: argparse.Namespace) -> List[BatchJob]:
    """Expand the workload arguments into a job list."""
    if args.sizes:
        try:
            sizes = [int(part) for part in args.sizes.split(",") if part]
        except ValueError:
            raise CLIUsageError(
                f"--sizes must be comma-separated integers, got {args.sizes!r}"
            ) from None
        if not sizes:
            raise CLIUsageError("--sizes given but empty")
    else:
        sizes = [args.qubits]
    if args.repeat < 1:
        raise CLIUsageError(f"--repeat must be >= 1, got {args.repeat}")

    # Build each distinct (target, AAIS) pair once and share it across
    # repeats: jobs carrying the *same* AAIS instance let the worker
    # reuse one compiler — and with it the linear-system cache — for
    # every duplicate.
    workloads = []
    for n in sizes:
        if args.model:
            target = build_model(args.model, n)
            stem = f"{args.model}-n{n}"
        else:
            target = parse_hamiltonian(args.hamiltonian)
            stem = f"hamiltonian-n{n}"
        aais = aais_for_device(args.device, max(n, target.num_qubits()))
        workloads.append((stem, target, aais))

    jobs: List[BatchJob] = []
    for round_index in range(args.repeat):
        suffix = f"-r{round_index}" if args.repeat > 1 else ""
        for stem, target, aais in workloads:
            jobs.append(
                BatchJob.constant(f"{stem}{suffix}", target, args.time, aais)
            )
    return jobs


def _command_batch(args: argparse.Namespace) -> int:
    jobs = _batch_jobs(args)
    compiler = BatchCompiler(
        executor=args.executor,
        workers=args.workers,
        verify=args.verify,
        chunksize=args.chunksize,
        retry=RetryPolicy(
            max_attempts=args.retries + 1, backoff=args.retry_backoff
        )
        if args.retries
        else None,
        job_timeout=args.job_timeout,
    )
    batch = compiler.compile_many(jobs)
    cache_stats = operator_cache_stats()
    sim_stats = simulation_cache_stats()
    if args.output == "json":
        payload = batch.as_dict()
        payload["operator_cache"] = cache_stats
        payload["simulation_cache"] = sim_stats
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for outcome in batch.outcomes:
            if outcome.succeeded:
                line = (
                    f"{outcome.name:>24s}  ok    "
                    f"{outcome.seconds * 1e3:8.2f} ms  "
                    f"exec {outcome.result.execution_time:.4g} µs  "
                    f"err {outcome.result.relative_error_percent:.3g}%"
                )
                if outcome.fidelity is not None:
                    line += f"  fidelity {outcome.fidelity:.6f}"
                elif outcome.verify_skipped:
                    line += "  fidelity skipped (register too large)"
            else:
                line = (
                    f"{outcome.name:>24s}  FAIL  "
                    f"{outcome.seconds * 1e3:8.2f} ms  "
                    f"{outcome.failure_reason}"
                )
            print(line)
        print(batch.summary())
        if args.verify:
            ham = cache_stats["hamiltonian"]
            line = (
                f"operator cache: {ham['hits']:.0f} hits / "
                f"{ham['misses']:.0f} misses "
                f"(hit rate {ham['hit_rate']:.1%})"
            )
            if args.executor == "process":
                # Pool workers keep their own per-process caches; the
                # parent's counters only see in-process work.
                line += "  [worker-local caches not included]"
            print(line)
            propagator = sim_stats["propagator"]
            fast = sim_stats["fast_paths"]
            print(
                f"propagator cache: {propagator['hits']:.0f} hits / "
                f"{propagator['misses']:.0f} misses  fast paths: "
                f"diagonal {fast['diagonal']}, propagator "
                f"{fast['propagator']}, dense {fast['dense_build']}, "
                f"matrix-free {fast['matrix_free']}"
            )
    return 0 if batch.all_succeeded else 1


def _command_simulate(args: argparse.Namespace) -> int:
    import time

    from repro.sim import NoisySimulator

    if args.shots < 1:
        raise CLIUsageError(f"--shots must be >= 1, got {args.shots}")
    target = _build_target(args)
    aais = _build_aais(args, target)
    result = QTurboCompiler(aais).compile(target, args.time)
    if not result.success or result.schedule is None:
        print(f"error: compilation failed: {result.summary()}", file=sys.stderr)
        return 1
    simulator = NoisySimulator(
        noise_samples=args.noise_samples,
        seed=args.seed,
    )
    payload = {
        "workload": result.summary(),
        "shots": args.shots,
        "noise_samples": args.noise_samples,
    }
    tick = time.perf_counter()
    if args.zne:
        from repro.mitigation import zne_observables

        try:
            factors = [
                float(part) for part in args.zne.split(",") if part
            ]
        except ValueError:
            raise CLIUsageError(
                f"--zne must be comma-separated floats, got {args.zne!r}"
            ) from None
        zne = zne_observables(
            result.schedule, simulator, factors=factors, shots=args.shots
        )
        payload["zne"] = {
            "factors": list(zne.factors),
            "raw": {k: list(v) for k, v in zne.raw.items()},
            "mitigated": zne.mitigated,
        }
    else:
        payload["observables"] = simulator.observables(
            result.schedule, shots=args.shots
        )
    payload["seconds"] = time.perf_counter() - tick
    total_shots = args.shots * (
        len(payload["zne"]["factors"]) if args.zne else 1
    )
    payload["shots_per_sec"] = total_shots / max(payload["seconds"], 1e-9)
    if args.stats:
        payload["operator_cache"] = operator_cache_stats()
        payload["simulation_cache"] = simulation_cache_stats()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import ExperimentRunner, generate_report, load_spec

    spec = load_spec(args.spec)
    runner = ExperimentRunner(
        executor=args.executor,
        workers=args.workers,
        chunksize=args.chunksize,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        job_timeout=args.job_timeout,
    )
    if args.dry_run:
        jobs = runner.plan(spec)
        print(
            f"spec {spec.name} ({spec.spec_hash}): {len(jobs)} job(s), "
            f"executor={args.executor or spec.execution.executor}"
        )
        for job in jobs:
            overrides = ", ".join(
                f"{path}={value!r}" for path, value in job.overrides
            )
            print(f"  {job.job_id}  seed={job.seed}  {overrides or '(base)'}")
        return 0
    run_dir = Path(args.out) if args.out else (
        Path("runs") / f"{spec.name}-{spec.spec_hash[:8]}"
    )
    result = runner.run(spec, run_dir, force=args.force)
    report = generate_report(run_dir)
    if args.output == "json":
        payload = dict(report.payload)
        payload["executed"] = result.executed
        payload["resumed"] = result.skipped
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.table())
        print(result.summary())
        print(f"report: {run_dir / 'report.json'}")
    return 0 if result.all_ok else 1


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments import generate_report

    report = generate_report(args.run_dir)
    if args.output == "json":
        print(json.dumps(report.payload, indent=2, sort_keys=True))
    else:
        print(report.table())
        print(report.summary())
    return 0 if report.payload["num_ok"] == report.payload["num_jobs"] else 1


def _command_cache_stats(_args: argparse.Namespace) -> int:
    from repro.batch.compiler import pass_cache_stats
    from repro.batch.retry import fault_tolerance_stats

    payload = {
        "operator_cache": operator_cache_stats(),
        "simulation_cache": simulation_cache_stats(),
        "compiler_cache": pass_cache_stats(),
        "fault_tolerance": fault_tolerance_stats(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ReproService, ServiceConfig

    service = ReproService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            data_dir=args.data_dir,
            max_results=args.max_results,
            max_result_bytes=args.max_result_bytes,
        )
    )
    # The e2e harness parses this line for the bound URL — keep the
    # "serving on " prefix stable.
    print(f"serving on {service.url}", flush=True)
    print(f"data dir: {service.state.data_dir}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    provided = [
        name
        for name, value in (
            ("spec", args.spec),
            ("--model", args.model),
            ("--hamiltonian", args.hamiltonian),
        )
        if value
    ]
    if len(provided) != 1:
        raise CLIUsageError(
            "provide exactly one of: a spec path, --model, or "
            f"--hamiltonian (got {provided or 'none'})"
        )
    if args.spec:
        from repro.experiments import load_spec

        kind = "run"
        request = {"spec": load_spec(args.spec).to_dict()}
    else:
        kind = "simulate" if args.simulate else "compile"
        request = {
            "qubits": args.qubits,
            "time": args.time,
            "device": args.device,
        }
        if args.model:
            request["model"] = args.model
        else:
            request["hamiltonian"] = args.hamiltonian
        if args.simulate:
            request["shots"] = args.shots
    client = ServiceClient(args.url)
    payload = client.submit(
        kind, request, wait=not args.no_wait, timeout=args.timeout
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    job = payload.get("job", {})
    return 0 if job.get("status") in ("done", "queued", "running") else 1


class CLIUsageError(Exception):
    """Invalid command-line usage (reported without a traceback)."""


def main(argv: Optional[list] = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        # Multi-threaded BLAS slows the small products compiles and
        # simulations run; a user's own setting wins.
        pin_blas_threads()
    handlers = {
        "compile": _command_compile,
        "models": _command_models,
        "compare": _command_compare,
        "batch": _command_batch,
        "simulate": _command_simulate,
        "cache-stats": _command_cache_stats,
        "run": _command_run,
        "report": _command_report,
        "serve": _command_serve,
        "submit": _command_submit,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, CLIUsageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    sys.exit(main())
