"""End-to-end smoke test: ``repro serve`` as a real subprocess.

Boots the service exactly as a user would (``python -m repro serve``),
drives it with :class:`ServiceClient` over a real socket, and checks
the service's answers against the offline CLI paths: a ``run`` job's
report must carry the same aggregate fields as ``repro run`` on the
same spec, and a warm resubmission must be served from the store
without recompiling.  A serve process killed mid-batch and restarted
on the same data directory must answer every request again, bit for
bit, with no torn record left behind.  This is the test CI runs under
a hard timeout — a wedged queue or a serve process that never binds
fails fast.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.aais import aais_for_device
from repro.core import QTurboCompiler
from repro.models import build_model
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceClientError,
    job_digest,
)
from repro.testing import FaultRule

SPEC = {
    "name": "e2e-smoke",
    "model": {"name": "ising_chain", "qubits": 2},
    "device": "rydberg-1d",
    "time": 1.0,
    "sweep": {"time": [0.8, 1.0]},
    "simulation": {"shots": 100, "noise_samples": 2},
}


def _start_serve(data_dir, *args, env_extra=None):
    """Launch ``repro serve`` on an ephemeral port; returns (proc, url)."""
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env.update(env_extra or {})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--data-dir", str(data_dir),
            *args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if not line.startswith("serving on "):
        proc.kill()
        proc.wait(timeout=15)
        pytest.fail(f"serve did not bind: {line!r} / {proc.stderr.read()!r}")
    return proc, line.split()[-1]


def _stop(proc):
    """Interrupt a serve process; kill it if it does not exit."""
    if proc.poll() is not None:
        return
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)


@pytest.fixture()
def serve_proc(tmp_path):
    """A real ``repro serve`` subprocess bound to an ephemeral port."""
    proc, url = _start_serve(tmp_path / "service")
    try:
        yield proc, url
    finally:
        _stop(proc)


def test_serve_subprocess_end_to_end(serve_proc, tmp_path):
    proc, url = serve_proc
    client = ServiceClient(url)

    health = client.health()
    assert health["status"] == "ok"

    # --- a compile round trip over the real socket -------------------
    compile_request = {"model": "ising_chain", "qubits": 3, "time": 1.0}
    cold = client.compile(compile_request)
    assert cold["job"]["status"] == "done"
    warm = client.compile(compile_request)
    assert warm["job"]["source"] == "store"
    assert warm["result"]["schedule"] == cold["result"]["schedule"]

    # --- a sweep run, answered by the service ------------------------
    served = client.run({"spec": SPEC})
    assert served["job"]["status"] == "done"
    report = served["result"]["report"]
    assert served["result"]["executed"] == report["num_jobs"]

    # --- the same spec through the offline CLI -----------------------
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out_dir = tmp_path / "offline-run"
    offline = subprocess.run(
        [
            sys.executable, "-m", "repro", "run", str(spec_path),
            "--out", str(out_dir), "--output", "json",
        ],
        capture_output=True,
        text=True,
        env=dict(
            os.environ,
            PYTHONPATH=os.path.join(
                os.path.dirname(__file__), "..", "src"
            ),
        ),
    )
    assert offline.returncode == 0, offline.stderr
    offline_report = json.loads(offline.stdout)

    # The service's report must agree with the offline run on every
    # deterministic aggregate (job plan, compile metrics, observables —
    # simulation is seeded, so even those match).
    assert report["num_jobs"] == offline_report["num_jobs"]
    assert report["num_ok"] == offline_report["num_ok"]
    assert report["spec_hash"] == offline_report["spec_hash"]

    def deterministic(aggregates):
        # Wall-clock aggregates (pass timings, compile seconds) vary
        # run to run; everything else must match exactly.
        return {
            key: value
            for key, value in aggregates.items()
            if "seconds" not in key
        }

    assert deterministic(report["aggregates"]) == deterministic(
        offline_report["aggregates"]
    )

    # --- resubmission is a store hit, not a re-run -------------------
    again = client.run({"spec": SPEC})
    assert again["job"]["source"] == "store"
    assert again["result"]["report"] == report

    stats = client.stats()
    assert stats["service"]["store_hits"] >= 2
    assert stats["queue"]["failed"] == 0


def test_serve_rejects_garbage_without_dying(serve_proc):
    proc, url = serve_proc
    client = ServiceClient(url)
    with pytest.raises(ServiceClientError) as exc:
        client.compile({"model": "no-such-model"})
    assert exc.value.status == 400
    with pytest.raises(ServiceClientError) as exc:
        client.job("not-a-digest")
    assert exc.value.status == 404
    # The process survives bad input and keeps serving.
    assert proc.poll() is None
    assert client.health()["status"] == "ok"


@pytest.fixture(scope="module")
def shared_serve(tmp_path_factory):
    """One ``repro serve`` subprocess for the request-validation cases;
    yields ``(proc, url, data_dir)``."""
    data_dir = tmp_path_factory.mktemp("validation")
    proc, url = _start_serve(data_dir)
    try:
        yield proc, url, data_dir
    finally:
        _stop(proc)


@pytest.mark.parametrize(
    "options, named",
    [
        ({"shots": 0}, "shots"),
        ({"shots": "many"}, "shots"),
        ({"noise_samples": 0}, "noise_samples"),
        ({"noise_samples": 2.5}, "noise_samples"),
        ({"seed": "lucky"}, "seed"),
        ({"backend": "magic"}, "backend"),
        ({"backend": "auto"}, "backend"),
    ],
    ids=[
        "shots-zero",
        "shots-not-int",
        "noise-samples-zero",
        "noise-samples-not-int",
        "seed-not-int",
        "backend-magic",
        "backend-auto",
    ],
)
def test_simulate_options_rejected_at_submit(shared_serve, options, named):
    """Simulator options are checked in the handler thread: a 400 naming
    the key, nothing enqueued, no compile."""
    proc, url, _ = shared_serve
    client = ServiceClient(url)
    request = {"model": "ising_chain", "qubits": 2, "time": 1.0, **options}
    with pytest.raises(ServiceClientError) as exc:
        client.simulate(request)
    assert exc.value.status == 400
    assert named in str(exc.value)
    stats = client.stats()
    assert stats["queue"]["submitted"] == 0
    assert proc.poll() is None


def test_compile_rejects_backend_key(shared_serve):
    _, url, _ = shared_serve
    with pytest.raises(ServiceClientError) as exc:
        ServiceClient(url).compile(
            {"model": "ising_chain", "qubits": 2, "backend": "dense"}
        )
    assert exc.value.status == 400
    assert "backend" in str(exc.value)


def test_stored_result_does_not_answer_a_retired_key(shared_serve):
    """A store written while ``backend`` was a request key may hold a
    result for such a request; the key is rejected before the lookup."""
    _, url, data_dir = shared_serve
    store = ResultStore(data_dir / "results")
    retired = {"model": "ising_chain", "qubits": 2, "time": 0.7,
               "backend": "dense"}
    valid = {"model": "ising_chain", "qubits": 2, "time": 0.7}
    for request in (retired, valid):
        store.store(
            job_digest("simulate", request),
            {"kind": "simulate", "request": request, "result": {"seeded": 1}},
        )
    client = ServiceClient(url)
    # The seeded record is well formed: the valid twin is served from it.
    answer = client.simulate(valid)
    assert (answer["job"]["source"], answer["result"]) == ("store", {"seeded": 1})
    with pytest.raises(ServiceClientError) as exc:
        client.simulate(retired)
    assert exc.value.status == 400
    assert "backend" in str(exc.value)
    assert client.stats()["service"]["store_hits"] == 1


#: Distinct compile requests of the crash-restart test.
CRASH_REQUESTS = [
    {"model": "ising_chain", "qubits": 3, "time": 0.9, "device": "rydberg-1d"},
    {"model": "ising_chain", "qubits": 3, "time": 1.1, "device": "rydberg-1d"},
    {"model": "heisenberg_chain", "qubits": 3, "time": 1.0, "device": "rydberg-1d"},
    {"model": "ising_chain", "qubits": 4, "time": 1.0, "device": "rydberg-1d"},
]


def _cold_schedule(request):
    """The schedule a fresh in-process compiler emits, JSON round-tripped."""
    target = build_model(request["model"], request["qubits"])
    aais = aais_for_device(request["device"], request["qubits"])
    result = QTurboCompiler(aais).compile(target, request["time"])
    assert result.success
    return json.loads(json.dumps(result.schedule.to_dict()))


def test_kill_mid_batch_then_restart_answers_every_digest(tmp_path):
    data_dir = tmp_path / "service"
    results_dir = data_dir / "results"
    # The first record to land holds the worker for a minute, with the
    # other three requests still queued behind it.
    plan = tmp_path / "plan.json"
    rule = FaultRule(site="service.result", action="delay", delay=60.0)
    plan.write_text(json.dumps({"rules": [dataclasses.asdict(rule)]}))
    proc, url = _start_serve(
        data_dir, env_extra={"REPRO_FAULT_PLAN": str(plan)}
    )
    try:
        client = ServiceClient(url, timeout=30.0)
        for request in CRASH_REQUESTS:
            reply = client.compile(request, wait=False)
            assert reply["job"]["status"] in ("queued", "running")
        deadline = time.monotonic() + 30.0
        while not any(results_dir.rglob("*.json")):
            assert time.monotonic() < deadline, "no record landed"
            time.sleep(0.05)
        assert proc.poll() is None
    finally:
        proc.kill()  # SIGKILL: no drain, no cleanup
        proc.wait(timeout=15)
    landed = {path.stem for path in results_dir.rglob("*.json")}
    assert 1 <= len(landed) < len(CRASH_REQUESTS)

    proc, url = _start_serve(data_dir)
    try:
        client = ServiceClient(url, timeout=120.0)
        replies = [client.compile(request) for request in CRASH_REQUESTS]
    finally:
        _stop(proc)
    sources = {}
    for request, reply in zip(CRASH_REQUESTS, replies):
        assert reply["job"]["status"] == "done", reply["job"]
        assert reply["result"]["schedule"] == _cold_schedule(request)
        sources[reply["job"]["job_id"]] = reply["job"]["source"]
    assert len(sources) == len(CRASH_REQUESTS)
    assert {d for d, s in sources.items() if s == "store"} == landed

    files = [path for path in results_dir.rglob("*") if path.is_file()]
    assert len(files) == len(CRASH_REQUESTS)
    for path in files:
        record = json.loads(path.read_text())
        assert record["digest"] == path.stem
        assert record["result"]["success"]
