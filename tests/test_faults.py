"""Fault-tolerance suite: taxonomy, retry, deadlines, crash recovery.

Every test drives real library code through the deterministic
fault-injection harness (:mod:`repro.testing.faults`) — seeded rules at
named sites, never monkeypatched internals — so the behaviors proven
here (bit-identical retries, pool respawn, the degradation ladder,
resume-after-crash) are the ones production runs get.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.batch import (
    BatchCompiler,
    BatchJob,
    RetryPolicy,
    call_with_retry,
    fault_tolerance_stats,
)
from repro.batch.executors import (
    ProcessBatchExecutor,
    SerialExecutor,
    default_workers,
)
from repro.cli import main as cli_main
from repro.errors import (
    CompilationError,
    JobTimeoutError,
    RetryExhaustedError,
    TransientError,
    WorkerCrashError,
    classify_failure,
)
from repro.experiments import (
    ArtifactStore,
    ExperimentSpec,
    generate_report,
    run_experiment,
)
from repro.models import ising_chain
from repro.testing import FAULT_SITES, FaultRule, inject_faults


def _spec(**extra):
    data = {
        "name": "faults",
        "model": {"name": "ising_chain", "qubits": 2},
        "device": "rydberg-1d",
        "time": 1.0,
    }
    data.update(extra)
    return ExperimentSpec.from_dict(data)


def _aais(n):
    from repro.aais import RydbergAAIS

    return RydbergAAIS(n)


def _jobs(count=2):
    return [
        BatchJob.constant(f"chain-{n}", ising_chain(n), 1.0, _aais(n))
        for n in range(3, 3 + count)
    ]


# Module-level workers so the process pool can pickle them ------------------


def _square_at_site(value):
    """Touches the batch.job fault site, then squares."""
    from repro.testing.faults import fault_point

    try:
        fault_point("batch.job")
    except WorkerCrashError:
        return ("crashed", value)
    return value * value


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _fail_tuple(payload, error):
    return ("fail", type(error).__name__, payload)


def _run_in_child(spec_dict, run_dir):
    """run_experiment inside a killable child process (crash test)."""
    spec = ExperimentSpec.from_dict(spec_dict)
    run_experiment(spec, run_dir)


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "error, expected",
        [
            (TransientError("x"), "transient"),
            (JobTimeoutError("x"), "transient"),
            (OSError("x"), "transient"),
            (MemoryError(), "transient"),
            (WorkerCrashError("x"), "crash"),
            (RetryExhaustedError("x"), "permanent"),
            (ValueError("x"), "permanent"),
            (CompilationError("x"), "permanent"),
        ],
    )
    def test_classes(self, error, expected):
        assert classify_failure(error) == expected

    def test_broken_process_pool_is_crash(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(BrokenProcessPool("x")) == "crash"


# ---------------------------------------------------------------------------
# RetryPolicy + call_with_retry
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.1, seed=7)
        assert policy.delay("a", 1) == policy.delay("a", 1)
        assert policy.delay("a", 1) != policy.delay("b", 1)
        assert policy.delay("a", 1) != policy.delay("a", 2)

    def test_backoff_grows_and_stays_in_jitter_band(self):
        policy = RetryPolicy(
            max_attempts=4, backoff=0.1, backoff_factor=2.0, jitter=0.1
        )
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4)):
            delay = policy.delay("k", attempt)
            assert base * 0.9 <= delay <= base * 1.1

    def test_invalid_policy_rejected(self):
        with pytest.raises(CompilationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CompilationError):
            RetryPolicy(max_attempts=2, backoff=-1.0)

    def test_transient_retried_to_success(self):
        calls = []

        def attempt():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("flaky")
            return "done"

        outcome = call_with_retry(
            attempt,
            RetryPolicy(max_attempts=3, backoff=0.0),
            key="k",
            sleep=lambda _: None,
        )
        assert outcome.ok and outcome.value == "done"
        assert outcome.attempts_used == 3
        assert [a["failure_class"] for a in outcome.attempts] == [
            "transient",
            "transient",
        ]

    def test_permanent_failure_not_retried(self):
        def attempt():
            raise ValueError("broken input")

        outcome = call_with_retry(
            attempt, RetryPolicy(max_attempts=5, backoff=0.0), key="k"
        )
        assert not outcome.ok
        assert outcome.attempts_used == 1
        assert outcome.failure_class == "permanent"

    def test_exhausted_transient_wraps_last_error(self):
        def attempt():
            raise TransientError("always")

        outcome = call_with_retry(
            attempt,
            RetryPolicy(max_attempts=3, backoff=0.0),
            key="j1",
            sleep=lambda _: None,
        )
        assert isinstance(outcome.error, RetryExhaustedError)
        assert outcome.error.attempts == 3
        assert isinstance(outcome.error.__cause__, TransientError)
        # The exhausted wrapper remembers the underlying class was
        # transient, so resume treats the job as retryable.
        assert outcome.failure_class == "transient"


# ---------------------------------------------------------------------------
# Batch layer under injected faults
# ---------------------------------------------------------------------------


class TestBatchRetry:
    def test_transient_fault_retried_to_bitidentical_success(self):
        jobs = _jobs(2)
        reference = BatchCompiler(executor="serial").compile_many(jobs)
        with inject_faults(
            FaultRule(site="batch.job", at=(0,))
        ) as plan:
            retried = BatchCompiler(
                executor="serial",
                retry=RetryPolicy(max_attempts=2, backoff=0.0),
            ).compile_many(jobs)
        assert plan.fired.get("batch.job") == 1
        assert retried.all_succeeded
        assert retried.outcomes[0].attempts == 2
        assert retried.fault["jobs_retried"] == 1
        for a, b in zip(reference.outcomes, retried.outcomes):
            assert a.result.execution_time == b.result.execution_time
            assert a.result.relative_error == b.result.relative_error
            for sa, sb in zip(a.result.segments, b.result.segments):
                assert sa.duration == sb.duration
                assert sa.values == sb.values

    def test_retry_exhausted_recorded_with_class(self):
        jobs = _jobs(1)
        with inject_faults(
            FaultRule(site="batch.job", at=tuple(range(10)))
        ):
            batch = BatchCompiler(
                executor="serial",
                retry=RetryPolicy(max_attempts=3, backoff=0.0),
            ).compile_many(jobs)
        outcome = batch.outcomes[0]
        assert not outcome.ok
        assert outcome.error_type == "RetryExhaustedError"
        assert outcome.attempts == 3
        assert outcome.failure_class == "transient"

    def test_permanent_fault_not_retried(self):
        jobs = _jobs(1)
        with inject_faults(
            FaultRule(site="batch.job", error="ValueError", at=(0, 1, 2))
        ):
            batch = BatchCompiler(
                executor="serial",
                retry=RetryPolicy(max_attempts=3, backoff=0.0),
            ).compile_many(jobs)
        outcome = batch.outcomes[0]
        assert not outcome.ok
        assert outcome.error_type == "ValueError"
        assert outcome.attempts == 1
        assert outcome.failure_class == "permanent"

    def test_retries_disabled_by_default(self):
        jobs = _jobs(1)
        with inject_faults(FaultRule(site="batch.job", at=(0,))):
            batch = BatchCompiler(executor="serial").compile_many(jobs)
        outcome = batch.outcomes[0]
        assert not outcome.ok and outcome.attempts == 1


# ---------------------------------------------------------------------------
# Deadlines and crash recovery at the executor level
# ---------------------------------------------------------------------------


class TestDeadlines:
    @pytest.mark.parametrize("executor_cls", [SerialExecutor])
    def test_hung_job_killed_at_deadline(self, executor_cls):
        executor = executor_cls(workers=2, job_timeout=0.2)
        results = executor.run(
            _sleepy, [0.01, 30.0, 0.01], failure_result=_fail_tuple
        )
        assert results[0] == 0.01 and results[2] == 0.01
        assert results[1][:2] == ("fail", "JobTimeoutError")
        assert executor.fault_events["timeouts"] == 1

    def test_process_hung_job_killed_and_pool_respawned(self):
        executor = ProcessBatchExecutor(workers=2, job_timeout=0.5)
        results = executor.run(
            _sleepy, [0.01, 30.0, 0.01], failure_result=_fail_tuple
        )
        assert results[0] == 0.01 and results[2] == 0.01
        assert results[1][:2] == ("fail", "JobTimeoutError")
        assert executor.fault_events["timeouts"] == 1
        assert executor.fault_events["pool_respawns"] >= 1

    def test_without_failure_result_deadline_is_inert(self):
        executor = SerialExecutor(job_timeout=0.05)
        assert executor.run(_sleepy, [0.1]) == [0.1]

    def test_invalid_timeout_rejected(self):
        with pytest.raises(CompilationError):
            SerialExecutor(job_timeout=0.0)


class TestCrashRecovery:
    def test_worker_kill_respawns_pool_and_batch_completes(self):
        executor = ProcessBatchExecutor(workers=2, chunksize=1)
        with inject_faults(
            FaultRule(site="batch.job", action="kill")
        ):
            results = executor.run(
                _square_at_site, list(range(8)), failure_result=_fail_tuple
            )
        assert results == [v * v for v in range(8)]
        assert executor.fault_events["pool_respawns"] >= 1
        assert not executor.fault_events["downgrades"]

    def test_repeated_crashes_degrade_process_to_serial(self):
        executor = ProcessBatchExecutor(workers=2, chunksize=1)
        with inject_faults(
            FaultRule(site="batch.job", action="kill", once=False)
        ):
            results = executor.run(
                _square_at_site, list(range(8)), failure_result=_fail_tuple
            )
        assert executor.fault_events["downgrades"] == ["process->serial"]
        assert (
            executor.fault_events["pool_respawns"]
            == executor.max_pool_respawns + 1
        )
        crashed = [r for r in results if isinstance(r, tuple)]
        squares = [r for r in results if not isinstance(r, tuple)]
        # The serial rung sees the kill rule as an in-process
        # WorkerCrashError exactly once; every other job completes.
        assert len(crashed) <= 1
        assert all(isinstance(r, int) for r in squares)

    def test_crash_without_failure_result_propagates(self):
        from concurrent.futures.process import BrokenProcessPool

        executor = ProcessBatchExecutor(workers=2, chunksize=1)
        with inject_faults(FaultRule(site="batch.job", action="kill")):
            with pytest.raises(BrokenProcessPool):
                executor.run(_square_at_site, list(range(4)))


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_invalid_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        assert default_workers() >= 1
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        assert default_workers() >= 1


# ---------------------------------------------------------------------------
# Experiment runner + artifact store
# ---------------------------------------------------------------------------


class TestRunnerFaults:
    def test_runner_retries_to_identical_record(self, tmp_path):
        spec = _spec(simulation={"shots": 40, "noise_samples": 2})
        clean = run_experiment(spec, tmp_path / "clean")
        with inject_faults(FaultRule(site="runner.job", at=(0,))):
            faulty = run_experiment(
                spec, tmp_path / "faulty", retries=2, retry_backoff=0.0
            )
        record = faulty.records[0]
        assert record["status"] == "ok"
        assert record["attempts"] == 2
        assert record["failed_attempts"][0]["error_type"] == "TransientError"
        reference = clean.records[0]
        assert record["observables"] == reference["observables"]
        assert (
            record["compile"]["execution_time_us"]
            == reference["compile"]["execution_time_us"]
        )

    def test_permanent_error_records_traceback_and_is_complete(
        self, tmp_path
    ):
        spec = _spec()
        with inject_faults(
            FaultRule(
                site="runner.job", error="ValueError", at=(0, 1, 2, 3)
            )
        ):
            result = run_experiment(spec, tmp_path / "run", retries=2)
        record = result.records[0]
        assert record["status"] == "error"
        assert record["error_type"] == "ValueError"
        assert record["failure_class"] == "permanent"
        assert "ValueError" in record["error_traceback"]
        assert "attempt" not in record or record.get("attempts", 1) == 1
        # Permanent failures are complete: resume does not rerun them.
        resumed = run_experiment(spec, tmp_path / "run")
        assert resumed.executed == 0 and resumed.skipped == 1

    def test_exhausted_retries_are_retried_on_resume(self, tmp_path):
        spec = _spec()
        with inject_faults(
            FaultRule(site="runner.job", at=tuple(range(8)))
        ):
            result = run_experiment(
                spec, tmp_path / "run", retries=1, retry_backoff=0.0
            )
        record = result.records[0]
        assert record["status"] == "error"
        assert record["error_type"] == "RetryExhaustedError"
        assert record["retry_exhausted"] is True
        assert record["failure_class"] == "transient"
        resumed = run_experiment(spec, tmp_path / "run")
        assert resumed.executed == 1
        assert resumed.records[0]["status"] == "ok"

    def test_spec_execution_knobs_round_trip(self):
        spec = _spec(
            execution={
                "executor": "serial",
                "retries": 2,
                "retry_backoff": 0.1,
                "job_timeout": 5.0,
            }
        )
        assert spec.execution.retries == 2
        assert spec.execution.job_timeout == 5.0
        section = spec.to_dict()["execution"]
        assert section == {
            "executor": "serial",
            "retries": 2,
            "retry_backoff": 0.1,
            "job_timeout": 5.0,
        }

    def test_default_knobs_keep_spec_hash_stable(self):
        bare = _spec(execution={"executor": "serial"})
        explicit = _spec(
            execution={
                "executor": "serial",
                "retries": 0,
                "retry_backoff": 0.05,
            }
        )
        assert bare.spec_hash == explicit.spec_hash
        assert "retries" not in bare.to_dict()["execution"]

    def test_invalid_knobs_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            _spec(execution={"executor": "serial", "retries": -1})
        with pytest.raises(ExperimentError):
            _spec(execution={"executor": "serial", "job_timeout": 0})


class TestArtifactStoreFaults:
    def test_torn_job_record_is_incomplete_and_retried(self, tmp_path):
        spec = _spec()
        result = run_experiment(spec, tmp_path / "run")
        store = ArtifactStore(tmp_path / "run")
        job_id = result.records[0]["job_id"]
        path = store.job_path(job_id)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert store.read_job(job_id) is None
        assert not store.is_complete(job_id)
        rerun = run_experiment(spec, tmp_path / "run")
        assert rerun.executed == 1
        assert rerun.records[0]["status"] == "ok"

    def test_writes_leave_no_temp_files(self, tmp_path):
        spec = _spec()
        run_experiment(spec, tmp_path / "run")
        generate_report(tmp_path / "run")
        leftovers = list((tmp_path / "run").rglob("*.tmp"))
        assert leftovers == []

    def test_injected_corruption_detected_as_incomplete(self, tmp_path):
        spec = _spec()
        with inject_faults(
            FaultRule(site="store.write_job", action="corrupt", at=(0,))
        ):
            run_experiment(spec, tmp_path / "run")
        store = ArtifactStore(tmp_path / "run")
        manifest = store.read_manifest()
        job_id = manifest["jobs"][0]["job_id"]
        assert store.read_job(job_id) is None
        assert not store.is_complete(job_id)


class TestResumeAfterCrash:
    def test_killed_mid_sweep_then_resumed_matches_uninterrupted(
        self, tmp_path
    ):
        spec_dict = {
            "name": "crashy",
            "model": {"name": "ising_chain", "qubits": 2},
            "device": "rydberg-1d",
            "time": 1.0,
            "simulation": {"shots": 40, "noise_samples": 2, "seed": 3},
            "sweep": {"time": [0.5, 1.0, 1.5]},
        }
        spec = ExperimentSpec.from_dict(spec_dict)
        clean_dir = tmp_path / "clean"
        crash_dir = tmp_path / "crash"
        clean = run_experiment(spec, clean_dir)
        assert clean.all_ok and clean.executed == 3

        # Child process runs the sweep; the plan corrupts the first job
        # record (torn write) and hard-kills the process right after the
        # second record lands — job 3 never reaches disk.
        ctx = multiprocessing.get_context("fork")
        with inject_faults(
            FaultRule(site="store.write_job", action="corrupt", at=(0,)),
            FaultRule(site="store.write_job", action="kill", at=(1,)),
        ):
            child = ctx.Process(
                target=_run_in_child, args=(spec_dict, str(crash_dir))
            )
            child.start()
            child.join(timeout=120)
        assert child.exitcode == 86  # killed by the injected fault

        store = ArtifactStore(crash_dir)
        manifest = store.read_manifest()
        job_ids = [entry["job_id"] for entry in manifest["jobs"]]
        assert not store.is_complete(job_ids[0])  # torn
        assert store.is_complete(job_ids[1])  # landed before the kill
        assert not store.is_complete(job_ids[2])  # never written

        resumed = run_experiment(spec, crash_dir)
        assert resumed.all_ok
        assert resumed.executed == 2 and resumed.skipped == 1

        # The resumed run's report matches the uninterrupted run on
        # every deterministic field.
        clean_report = generate_report(clean_dir).payload
        crash_report = generate_report(crash_dir).payload
        assert crash_report["statuses"] == clean_report["statuses"]
        for a, b in zip(clean_report["jobs"], crash_report["jobs"]):
            assert a["job_id"] == b["job_id"]
            assert a["status"] == b["status"]
            assert a["observables"] == b["observables"]
            assert (
                a["compile"]["execution_time_us"]
                == b["compile"]["execution_time_us"]
            )


# ---------------------------------------------------------------------------
# Harness + CLI plumbing
# ---------------------------------------------------------------------------


class TestHarness:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="nope")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="batch.job", action="explode")

    def test_sites_are_documented_constants(self):
        assert "batch.job" in FAULT_SITES
        assert len(set(FAULT_SITES)) == len(FAULT_SITES)

    def test_nested_plans_rejected(self):
        with inject_faults(FaultRule(site="batch.job")):
            with pytest.raises(RuntimeError, match="already installed"):
                with inject_faults(FaultRule(site="sim.run")):
                    pass

    def test_plan_env_round_trip(self):
        from repro.testing.faults import _ENV_KEY

        with inject_faults(FaultRule(site="batch.job", at=(5,))):
            plan_path = os.environ[_ENV_KEY]
            payload = json.loads(open(plan_path, encoding="utf-8").read())
            assert payload["rules"][0]["site"] == "batch.job"
        assert _ENV_KEY not in os.environ

    def test_probability_rules_are_seeded(self):
        from repro.testing.faults import FaultPlan

        rule = FaultRule(site="sim.run", probability=0.5)
        fires = [
            FaultPlan(rules=(rule,), seed=11)._should_fire(rule, index)
            for index in range(32)
        ]
        again = [
            FaultPlan(rules=(rule,), seed=11)._should_fire(rule, index)
            for index in range(32)
        ]
        assert fires == again
        assert any(fires) and not all(fires)


class TestCLI:
    def test_cache_stats_reports_fault_counters(self, capsys):
        assert cli_main(["cache-stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fault_tolerance" in payload
        assert set(payload["fault_tolerance"]) >= {
            "retries",
            "retry_exhausted",
            "timeouts",
            "pool_respawns",
            "downgrades",
        }

    def test_run_accepts_fault_tolerance_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "cli-faults",
                    "model": {"name": "ising_chain", "qubits": 2},
                    "device": "rydberg-1d",
                    "time": 1.0,
                }
            )
        )
        code = cli_main(
            [
                "run",
                str(spec_path),
                "--out",
                str(tmp_path / "run"),
                "--retries",
                "1",
                "--retry-backoff",
                "0.0",
                "--job-timeout",
                "300",
            ]
        )
        assert code == 0

    def test_batch_retries_through_cli(self, capsys):
        code = cli_main(
            [
                "batch",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--retries",
                "1",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_succeeded"] == payload["num_jobs"]

    def test_counters_visible_after_retries(self):
        from repro.batch import reset_fault_stats

        reset_fault_stats()
        with inject_faults(FaultRule(site="batch.job", at=(0,))):
            BatchCompiler(
                executor="serial",
                retry=RetryPolicy(max_attempts=2, backoff=0.0),
            ).compile_many(_jobs(1))
        stats = fault_tolerance_stats()
        assert stats["retries"] == 1
        assert stats["retry_successes"] == 1
