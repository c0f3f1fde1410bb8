"""Batch compilation engine: equality across executors, failure
isolation, deterministic ordering, and result aggregation."""

import json

import pytest

from repro.aais import RydbergAAIS
from repro.batch import (
    EXECUTOR_NAMES,
    BatchCompiler,
    BatchJob,
    SerialExecutor,
    resolve_executor,
)
from repro.devices import RydbergSpec
from repro.devices.base import TrapGeometry
from repro.errors import CompilationError
from repro.models import ising_chain, kitaev_chain


def chain_spec(n: int) -> RydbergSpec:
    return RydbergSpec(
        name="test-batch",
        delta_max=20.0,
        omega_max=2.5,
        geometry=TrapGeometry(
            extent=max(75.0, 9.0 * n), min_spacing=4.0, dimension=1
        ),
        max_time=4.0,
    )


def chain_aais(n: int) -> RydbergAAIS:
    return RydbergAAIS(n, spec=chain_spec(n))


def _square(value: int) -> int:
    """Module-level worker so the process pool can pickle it."""
    return value * value


def _blas_functions(verb: str) -> list:
    """The ``verb`` ("get"/"set") thread-count functions of every loaded
    OpenBLAS (numpy's ILP64 build and scipy's)."""
    from repro.blas import loaded_openblas

    names = [
        f"scipy_openblas_{verb}_num_threads64_",
        f"scipy_openblas_{verb}_num_threads",
    ]
    return [
        getattr(library, name)
        for library in loaded_openblas()
        for name in names
        if hasattr(library, name)
    ]


def _blas_threads(_=None) -> list:
    """Module-level worker: this process's OpenBLAS thread counts."""
    return [get() for get in _blas_functions("get")]


@pytest.fixture(scope="module")
def fig3_jobs():
    """A small slice of the Fig-3 Rydberg workloads."""
    jobs = []
    for n in (3, 4, 5):
        jobs.append(
            BatchJob.constant(
                f"ising_chain-{n}", ising_chain(n), 1.0, chain_aais(n)
            )
        )
    jobs.append(
        BatchJob.constant("kitaev-4", kitaev_chain(4), 1.0, chain_aais(4))
    )
    return jobs


def assert_outcomes_identical(reference, other):
    """Per-job results must match bit for bit (timings excluded)."""
    assert [o.name for o in reference] == [o.name for o in other]
    for a, b in zip(reference, other):
        assert a.index == b.index
        assert a.ok == b.ok
        assert a.succeeded == b.succeeded
        if not a.succeeded:
            assert a.error_type == b.error_type
            continue
        ra, rb = a.result, b.result
        assert ra.execution_time == rb.execution_time
        assert ra.relative_error == rb.relative_error
        assert len(ra.segments) == len(rb.segments)
        for sa, sb in zip(ra.segments, rb.segments):
            assert sa.duration == sb.duration
            assert sa.values == sb.values
            assert sa.achieved_alphas == sb.achieved_alphas


class TestExecutorEquality:
    def test_serial_reference_succeeds(self, fig3_jobs):
        batch = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        assert batch.all_succeeded
        assert batch.num_jobs == len(fig3_jobs)

    @pytest.mark.parametrize("executor", ["process"])
    def test_pool_matches_serial_bit_identical(self, fig3_jobs, executor):
        serial = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        pooled = BatchCompiler(
            executor=executor, workers=2
        ).compile_many(fig3_jobs)
        assert_outcomes_identical(serial.outcomes, pooled.outcomes)

    def test_serial_is_deterministic_across_runs(self, fig3_jobs):
        first = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        second = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        assert_outcomes_identical(first.outcomes, second.outcomes)


class TestFailureIsolation:
    def _jobs_with_failure(self):
        # A target touching more qubits than the AAIS has sites raises
        # CompilationError inside the worker.
        return [
            BatchJob.constant(
                "good-3", ising_chain(3), 1.0, chain_aais(3)
            ),
            BatchJob.constant(
                "bad", ising_chain(6), 1.0, chain_aais(3)
            ),
            BatchJob.constant(
                "good-4", ising_chain(4), 1.0, chain_aais(4)
            ),
        ]

    @pytest.mark.parametrize("executor", list(EXECUTOR_NAMES))
    def test_one_bad_job_does_not_sink_the_batch(self, executor):
        batch = BatchCompiler(executor=executor, workers=2).compile_many(
            self._jobs_with_failure()
        )
        assert batch.num_jobs == 3
        assert batch.num_succeeded == 2
        bad = batch.outcome("bad")
        assert not bad.ok
        assert bad.error_type == "CompilationError"
        assert "6 qubits" in bad.error
        assert batch.outcome("good-3").succeeded
        assert batch.outcome("good-4").succeeded

    def test_non_repro_exception_is_captured_too(self):
        # A malformed job (plain Hamiltonian smuggled in as the target)
        # raises AttributeError inside the worker; isolation must hold
        # for arbitrary exceptions, not just ReproError.
        bad = BatchJob(
            name="malformed",
            target=ising_chain(3),  # not a PiecewiseHamiltonian
            aais=chain_aais(3),
        )
        good = BatchJob.constant(
            "good", ising_chain(3), 1.0, chain_aais(3)
        )
        batch = BatchCompiler(executor="serial").compile_many([bad, good])
        assert batch.num_succeeded == 1
        assert not batch.outcome("malformed").ok
        assert batch.outcome("malformed").error_type == "AttributeError"
        assert batch.outcome("good").succeeded

    def test_failure_outcome_keeps_submission_order(self):
        batch = BatchCompiler(executor="serial").compile_many(
            self._jobs_with_failure()
        )
        assert [o.name for o in batch.outcomes] == ["good-3", "bad", "good-4"]
        assert [o.index for o in batch.outcomes] == [0, 1, 2]


class TestVerification:
    def test_fidelity_recorded_and_high(self):
        jobs = [
            BatchJob.constant(
                "chain-3", ising_chain(3), 1.0, chain_aais(3)
            )
        ]
        batch = BatchCompiler(executor="serial", verify=True).compile_many(
            jobs
        )
        fidelity = batch.outcomes[0].fidelity
        assert fidelity is not None
        assert fidelity > 0.99

    def test_verification_skipped_above_cap(self):
        jobs = [
            BatchJob.constant(
                "chain-4", ising_chain(4), 1.0, chain_aais(4)
            )
        ]
        batch = BatchCompiler(
            executor="serial", verify=True, verify_max_qubits=3
        ).compile_many(jobs)
        assert batch.outcomes[0].succeeded
        assert batch.outcomes[0].fidelity is None
        assert batch.outcomes[0].verify_skipped is True
        assert batch.outcomes[0].as_dict()["verify_skipped"] is True

    def test_no_verify_requested_is_not_marked_skipped(self):
        jobs = [
            BatchJob.constant(
                "chain-3", ising_chain(3), 1.0, chain_aais(3)
            )
        ]
        batch = BatchCompiler(executor="serial").compile_many(jobs)
        assert batch.outcomes[0].verify_skipped is False


class TestAggregation:
    def test_as_dict_is_json_serializable(self, fig3_jobs):
        batch = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        payload = json.loads(json.dumps(batch.as_dict()))
        assert payload["num_jobs"] == len(fig3_jobs)
        assert len(payload["jobs"]) == len(fig3_jobs)
        assert payload["jobs"][0]["succeeded"] is True

    def test_summary_mentions_executor(self, fig3_jobs):
        batch = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        assert "serial" in batch.summary()
        assert batch.jobs_per_second > 0

    def test_unknown_job_name_raises(self, fig3_jobs):
        batch = BatchCompiler(executor="serial").compile_many(fig3_jobs)
        with pytest.raises(KeyError):
            batch.outcome("nope")

    def test_empty_batch(self):
        batch = BatchCompiler(executor="serial").compile_many([])
        assert batch.num_jobs == 0
        assert batch.all_succeeded
        assert batch.jobs_per_second >= 0


class TestExecutorResolution:
    def test_unknown_name_raises(self):
        # "thread" is the retired thread-pool backend.
        for name in ("gpu", "thread"):
            with pytest.raises(CompilationError):
                resolve_executor(name)

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_bad_worker_count_raises(self):
        with pytest.raises(CompilationError):
            resolve_executor("process", workers=0)

    def test_serial_reports_one_worker(self):
        assert SerialExecutor(workers=7).workers == 1


class TestChunkedDispatch:
    def test_chunksize_validated(self):
        from repro.batch.executors import ProcessBatchExecutor

        with pytest.raises(CompilationError):
            ProcessBatchExecutor(chunksize=0)
        with pytest.raises(CompilationError):
            resolve_executor("process", chunksize=-2)

    def test_explicit_chunksize_wins(self):
        from repro.batch.executors import ProcessBatchExecutor

        executor = ProcessBatchExecutor(workers=2, chunksize=5)
        assert executor.effective_chunksize(100) == 5

    def test_default_chunksize_scales_with_batch(self):
        from repro.batch.executors import ProcessBatchExecutor

        executor = ProcessBatchExecutor(workers=2)
        # ~4 chunks per worker, never below one job per chunk.
        assert executor.effective_chunksize(80) == 10
        assert executor.effective_chunksize(3) == 1

    def test_resolve_executor_threads_chunksize_through(self):
        executor = resolve_executor("process", workers=2, chunksize=3)
        assert executor.chunksize == 3

    def test_chunked_process_run_preserves_order(self):
        from repro.batch.executors import ProcessBatchExecutor

        executor = ProcessBatchExecutor(workers=2, chunksize=4)
        results = executor.run(_square, list(range(10)))
        assert results == [i * i for i in range(10)]

    def test_batch_compiler_accepts_chunksize(self, fig3_jobs):
        compiler = BatchCompiler(
            executor="process", workers=2, chunksize=2
        )
        assert compiler.executor.chunksize == 2
        batch = compiler.compile_many(fig3_jobs)
        assert batch.all_succeeded


class TestWorkerBlasThreads:
    @pytest.mark.parametrize("mode", ["plain", "crash_tolerant", "deadline"])
    def test_pool_workers_run_one_blas_thread(self, mode):
        """Every pool site pins its workers to one OpenBLAS thread, even
        when the forking parent runs two."""
        from repro.batch.executors import ProcessBatchExecutor

        saved = _blas_threads()
        if not saved:
            pytest.skip("no OpenBLAS loaded")
        for set_threads in _blas_functions("set"):
            set_threads(2)
        try:
            assert set(_blas_threads()) == {2}
            executor = ProcessBatchExecutor(
                workers=2, job_timeout=60.0 if mode == "deadline" else None
            )
            failure = None if mode == "plain" else (lambda _, error: error)
            reports = executor.run(_blas_threads, [0, 1, 2, 3], failure)
        finally:
            for set_threads, count in zip(_blas_functions("set"), saved):
                set_threads(count)
        assert _blas_threads() == saved
        assert all(report and set(report) == {1} for report in reports)

    @pytest.mark.parametrize("user_setting", [None, "2"])
    def test_cli_pins_blas_unless_the_user_set_it(
        self, monkeypatch, capsys, user_setting
    ):
        """``repro`` pins its own process to one OpenBLAS thread at
        start; an ``OPENBLAS_NUM_THREADS`` the user exported wins."""
        from repro.cli import main

        saved = _blas_threads()
        if not saved:
            pytest.skip("no OpenBLAS loaded")
        if user_setting is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_setting)
        for set_threads in _blas_functions("set"):
            set_threads(2)
        try:
            assert main(["models"]) == 0
            threads = _blas_threads()
        finally:
            for set_threads, count in zip(_blas_functions("set"), saved):
                set_threads(count)
        capsys.readouterr()
        assert set(threads) == ({1} if user_setting is None else {2})


class TestWorkerCompilerReuse:
    def test_equal_content_aais_share_one_digest(self):
        import pickle

        from repro.batch.compiler import _aais_digest

        original = chain_aais(4)
        clone = pickle.loads(pickle.dumps(original))  # process-pool path
        assert clone is not original
        assert _aais_digest(original) == _aais_digest(clone)
        assert _aais_digest(original) != _aais_digest(chain_aais(5))

    def test_reset_clears_memo(self):
        from repro.batch.compiler import (
            _WORKER_COMPILERS,
            reset_worker_compilers,
        )

        BatchCompiler(executor="serial").compile_many(
            [BatchJob.constant("c", ising_chain(3), 1.0, chain_aais(3))]
        )
        assert len(_WORKER_COMPILERS) > 0
        reset_worker_compilers()
        assert len(_WORKER_COMPILERS) == 0


class TestJobConstruction:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(CompilationError):
            BatchJob.constant("bad", ising_chain(3), 0.0, chain_aais(3))

    def test_compiler_options_forwarded(self):
        job = BatchJob.constant(
            "opts", ising_chain(3), 1.0, chain_aais(3), refine=False
        )
        assert job.options == {"refine": False}
        batch = BatchCompiler(executor="serial").compile_many([job])
        assert batch.outcomes[0].succeeded
        assert batch.outcomes[0].result.refinement_applied is False
