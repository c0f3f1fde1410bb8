"""Compilation-as-a-service: the ``repro serve`` application.

A :class:`ReproService` is a long-running HTTP server (stdlib
``ThreadingHTTPServer`` — one thread per connection, no new
dependencies) in front of a :class:`ServiceState`:

* requests are validated in the handler thread and become digest-keyed
  :class:`~repro.service.queue.Job` objects;
* the persistent :class:`~repro.service.store.ResultStore` is checked
  first — a warm store serves the request without touching the queue,
  across restarts and across tenants;
* misses flow through the :class:`~repro.service.queue.JobQueue`,
  whose worker runs them one at a time in arrival order; compile jobs
  go through :meth:`~repro.batch.BatchCompiler.compile_many`, and jobs
  on the same device share one memoized worker compiler, so repeat
  structures reuse its in-memory linear-system cache and partition
  memo.

The HTTP surface is defined in :mod:`repro.service.routes`; the
wire-level client in :mod:`repro.service.client`; the store layout and
GC policy in ``docs/service.md``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Union

from repro import __version__
from repro.batch.compiler import BatchCompiler
from repro.batch.jobs import BatchJob
from repro.errors import ReproError
from repro.service.queue import Job, JobQueue
from repro.service.routes import ServiceError, dispatch
from repro.service.store import ResultStore, job_digest

__all__ = ["ReproService", "ServiceConfig", "ServiceState"]

#: Request kinds the service accepts (also the route suffixes).
JOB_KINDS = ("compile", "simulate", "run")


@dataclass
class ServiceConfig:
    """Tunables of one service instance.

    Attributes
    ----------
    host / port:
        Bind address; port 0 asks the OS for an ephemeral port (the
        bound port is in :attr:`ReproService.url`).
    data_dir:
        Root of the persistent state: ``results/`` (content-addressed
        job records) and ``runs/`` (experiment-run artifact
        directories).
    wait_timeout:
        Default seconds a synchronous (``wait=true``) request blocks
        before returning 202 with the job descriptor instead.
    max_results / max_result_bytes:
        Result-store GC caps, enforced after every job (None disables
        a cap).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    data_dir: Union[str, Path] = ".repro-service"
    wait_timeout: float = 300.0
    max_results: Optional[int] = None
    max_result_bytes: Optional[int] = None


def _compile_payload(result) -> Dict[str, object]:
    """The JSON result section of one compilation."""
    payload: Dict[str, object] = {
        "success": bool(result.success),
        "summary": result.summary(),
        "compile_seconds": result.compile_seconds,
        "warnings": list(result.warnings),
    }
    if result.success and result.schedule is not None:
        payload["execution_time_us"] = result.execution_time
        payload["relative_error"] = result.relative_error
        payload["num_segments"] = result.schedule.num_segments
        payload["schedule"] = result.schedule.to_dict()
    else:
        payload["message"] = result.message
    return payload


class ServiceState:
    """Everything behind the HTTP surface: stores, queue, execution.

    Parameters
    ----------
    config:
        The service tunables; the data directory is created eagerly so
        a misconfigured path fails at startup, not first request.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.results = ResultStore(self.data_dir / "results")
        self.runs_dir = self.data_dir / "runs"
        self.batch = BatchCompiler()
        self.queue = JobQueue(self._execute)
        self.started = time.time()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "requests": 0,
            "store_hits": 0,
            "bad_requests": 0,
        }

    # ------------------------------------------------------------------
    # Request intake (handler threads)
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """The liveness payload of ``GET /v1/health``."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.started,
            "data_dir": str(self.data_dir),
        }

    def submit(self, kind: str, request: Dict) -> Job:
        """Validate and route one request; returns the canonical job.

        The persistent store is consulted before the queue: a warm
        digest completes immediately (``source="store"``), across
        service restarts.  Invalid requests raise
        :class:`~repro.service.routes.ServiceError` (HTTP 400) before
        anything is enqueued.
        """
        self._count("requests")
        if kind not in JOB_KINDS:
            self._count("bad_requests")
            raise ServiceError(400, f"unknown job kind {kind!r}")
        if not isinstance(request, dict):
            self._count("bad_requests")
            raise ServiceError(400, "request body must be a JSON object")
        request = _canonical_request(kind, request)
        try:
            _check_options(kind, request)
        except ServiceError:
            self._count("bad_requests")
            raise
        digest = job_digest(kind, request)
        stored = self.results.load(digest)
        if stored is not None:
            self._count("store_hits")
            return Job.completed(kind, digest, request, stored)
        try:
            prepared = self._prepare(kind, request, digest)
        except ServiceError:
            self._count("bad_requests")
            raise
        return self.queue.submit(Job(kind, digest, request, prepared))

    def job_payload(self, digest: str) -> Optional[Dict[str, object]]:
        """Descriptor (+ result when done) for ``GET /v1/jobs/<id>``."""
        job = self.queue.get(digest)
        if job is not None:
            payload = job.describe()
            if job.result is not None:
                payload["result"] = job.result.get("result")
            return payload
        stored = self.results.load(digest)
        if stored is None:
            return None
        return {
            "job_id": digest,
            "kind": stored.get("kind"),
            "status": "done",
            "source": "store",
            "result": stored.get("result"),
        }

    def stats(self) -> Dict[str, object]:
        """The ``GET /v1/stats`` payload: service, queue, store layers."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "service": {
                **counters,
                "uptime_seconds": time.time() - self.started,
            },
            "queue": self.queue.stats(),
            "results": self.results.stats(),
        }

    # ------------------------------------------------------------------
    # Request validation / workload building
    # ------------------------------------------------------------------
    def _prepare(self, kind: str, request: Dict, digest: str):
        """Build the executable workload, raising ServiceError on 400s."""
        if kind == "run":
            from repro.experiments.spec import ExperimentSpec

            spec_dict = request.get("spec")
            if not isinstance(spec_dict, dict):
                raise ServiceError(
                    400, "run request needs a 'spec' object (ExperimentSpec)"
                )
            try:
                return ExperimentSpec.from_dict(spec_dict)
            except ReproError as error:
                raise ServiceError(400, f"invalid spec: {error}") from None
        try:
            return self._workload_job(request, digest)
        except ReproError as error:
            raise ServiceError(400, str(error)) from None

    def _workload_job(self, request: Dict, digest: str) -> BatchJob:
        """The :class:`BatchJob` for a compile/simulate workload request."""
        from repro.aais import DEVICE_PRESETS, aais_for_device
        from repro.hamiltonian import parse_hamiltonian
        from repro.models import build_model, model_names

        model = request.get("model")
        hamiltonian = request.get("hamiltonian")
        if (model is None) == (hamiltonian is None):
            raise ServiceError(
                400, "request needs exactly one of 'model' or 'hamiltonian'"
            )
        qubits = request.get("qubits", 3)
        t_target = request.get("time", 1.0)
        device = request.get("device", "rydberg-1d")
        if not isinstance(qubits, int) or qubits < 1:
            raise ServiceError(400, f"'qubits' must be a positive int, got {qubits!r}")
        if not isinstance(t_target, (int, float)) or t_target <= 0:
            raise ServiceError(400, f"'time' must be positive, got {t_target!r}")
        if device not in DEVICE_PRESETS:
            raise ServiceError(
                400,
                f"unknown device {device!r}; choose from {sorted(DEVICE_PRESETS)}",
            )
        if model is not None:
            if model not in model_names():
                raise ServiceError(
                    400,
                    f"unknown model {model!r}; choose from {model_names()}",
                )
            params = request.get("params") or {}
            if not isinstance(params, dict):
                raise ServiceError(400, "'params' must be an object")
            target = build_model(model, qubits, **params)
        else:
            target = parse_hamiltonian(hamiltonian)
        aais = aais_for_device(device, max(qubits, target.num_qubits()))
        options: Dict[str, object] = {}
        if "refine" in request:
            options["refine"] = bool(request["refine"])
        passes = request.get("passes")
        if passes is not None:
            if not isinstance(passes, dict):
                raise ServiceError(
                    400, "'passes' must be an object with enable/disable lists"
                )
            from repro.core.pipeline.registry import normalize_passes_config

            # as_pairs() is the hashable form batch-job keys require
            options["passes"] = normalize_passes_config(passes).as_pairs()
        return BatchJob.constant(digest, target, float(t_target), aais, **options)

    # ------------------------------------------------------------------
    # Execution (queue worker thread)
    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> None:
        """Run one job, then enforce the store caps."""
        execute = {
            "compile": self._execute_compile,
            "simulate": self._execute_simulate,
            "run": self._execute_run,
        }[job.kind]
        try:
            execute(job)  # an escaping error fails the job in the queue
        finally:
            self._maybe_gc()

    def _finish(self, job: Job, result: Dict[str, object]) -> None:
        """Persist one finished job's record and wake its waiters."""
        record = {
            "kind": job.kind,
            "request": job.request,
            "result": result,
        }
        self.results.store(job.digest, record)
        job.finish(self.results.load(job.digest) or {**record, "digest": job.digest})

    def _execute_compile(self, job: Job) -> None:
        """Compile one job with the batch engine's retry and failure capture."""
        outcome = self.batch.compile_many([job.prepared]).outcomes[0]
        if outcome.ok:
            self._finish(job, _compile_payload(outcome.result))
        else:
            job.fail(f"{outcome.error_type}: {outcome.error}")

    def _execute_simulate(self, job: Job) -> None:
        """Compile (through the shared worker compiler) then simulate."""
        from repro.batch.compiler import compiler_for
        from repro.sim import NoisySimulator

        request = job.request
        result = compiler_for(job.prepared).compile_piecewise(
            job.prepared.target
        )
        payload = _compile_payload(result)
        if result.success and result.schedule is not None:
            simulator = NoisySimulator(
                noise_samples=request.get("noise_samples", 20),
                seed=request.get("seed", 0),
            )
            payload["observables"] = simulator.observables(
                result.schedule, shots=request.get("shots", 1000)
            )
            payload["shots"] = request.get("shots", 1000)
        self._finish(job, payload)

    def _execute_run(self, job: Job) -> None:
        """Execute one experiment spec into the service's runs directory."""
        from repro.experiments.report import generate_report
        from repro.experiments.runner import ExperimentRunner

        spec = job.prepared
        run_dir = self.runs_dir / f"{spec.name}-{spec.spec_hash[:8]}"
        runner = ExperimentRunner()
        outcome = runner.run(spec, run_dir)
        report = generate_report(run_dir)
        self._finish(
            job,
            {
                "run_dir": str(run_dir),
                "executed": outcome.executed,
                "resumed": outcome.skipped,
                "report": report.payload,
            },
        )

    def _maybe_gc(self) -> None:
        """Enforce the configured store caps after a job."""
        config = self.config
        if config.max_results is not None or config.max_result_bytes is not None:
            self.results.gc(
                max_results=config.max_results,
                max_bytes=config.max_result_bytes,
            )

    # ------------------------------------------------------------------
    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + 1

    def close(self) -> None:
        """Drain and stop the queue worker."""
        self.queue.close()


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_options(kind: str, request: Dict) -> None:
    """Reject retired keys and simulator options the queue worker could
    not run.  Runs before the result-store lookup, so a stored result
    never answers a request that is now invalid."""
    if kind == "run":
        return
    if "backend" in request:
        raise ServiceError(
            400,
            "'backend' is not a request key: the simulator picks the "
            "evolution path itself",
        )
    if kind != "simulate":
        return
    for key in ("shots", "noise_samples"):
        value = request.get(key, 1)
        if not _is_int(value) or value < 1:
            raise ServiceError(
                400, f"'{key}' must be a positive int, got {value!r}"
            )
    seed = request.get("seed", 0)
    if not _is_int(seed):
        raise ServiceError(400, f"'seed' must be an int, got {seed!r}")


def _canonical_request(kind: str, request: Dict) -> Dict:
    """Strip transport-only fields so equal workloads share a digest."""
    return {
        key: value
        for key, value in sorted(request.items())
        if key not in ("wait", "timeout")
    }


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: JSON in, JSON out, routing via ``dispatch``."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        """Silence the default per-request stderr spam."""

    def _handle(self, method: str) -> None:
        body: Optional[Dict] = None
        if method == "POST":
            try:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._respond(400, {"error": "request body is not valid JSON"})
                return
        try:
            status, payload = dispatch(
                self.server.state, method, self.path, body
            )
        except ServiceError as error:
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # no request may crash the server
            status, payload = 500, {
                "error": f"{type(error).__name__}: {error}"
            }
        self._respond(status, payload)

    def _respond(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        """Serve one GET request."""
        self._handle("GET")

    def do_POST(self) -> None:
        """Serve one POST request."""
        self._handle("POST")


class ReproService:
    """One bound service instance: state + HTTP server.

    Examples
    --------
    >>> service = ReproService(ServiceConfig(port=0, data_dir="/tmp/svc"))
    >>> service.start()                       # background thread
    >>> service.url                           # doctest: +SKIP
    'http://127.0.0.1:43215'
    >>> service.close()
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.state = ServiceState(self.config)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._server.daemon_threads = True
        self._server.state = self.state
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves port 0 to the real one."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproService":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` CLI path)."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop the HTTP server and drain the queue worker."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.state.close()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
