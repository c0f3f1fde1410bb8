"""Tests for the declarative experiment layer (spec → runner → report)."""

import json

import pytest

from repro.aais import aais_for_device
from repro.errors import ExperimentError
from repro.experiments import (
    ArtifactStore,
    ExperimentRunner,
    ExperimentSpec,
    expand_sweep,
    generate_report,
    load_spec,
    run_experiment,
)
from repro.cli import main as cli_main

BASE_SPEC = {
    "name": "unit",
    "model": {"name": "ising_chain", "qubits": 2},
    "device": "rydberg-1d",
    "time": 1.0,
}


def _spec(**extra):
    data = json.loads(json.dumps(BASE_SPEC))
    data.update(extra)
    return ExperimentSpec.from_dict(data)


def _sim_section(shots=60, noise_samples=3, seed=5):
    return {"shots": shots, "noise_samples": noise_samples, "seed": seed}


# ----------------------------------------------------------------------
# Spec loading / validation
# ----------------------------------------------------------------------


class TestSpecValidation:
    def test_minimal_spec_defaults(self):
        spec = _spec()
        assert spec.name == "unit"
        assert spec.device == "rydberg-1d"
        assert spec.segments == 1
        assert spec.simulation is None
        assert spec.num_jobs == 1

    def test_simulation_backend_validated_and_round_trips(self):
        spec = _spec(simulation=dict(_sim_section(), backend="matrix_free"))
        assert spec.simulation.backend == "matrix_free"
        assert spec.simulation.to_dict()["backend"] == "matrix_free"
        with pytest.raises(ExperimentError):
            _spec(simulation=dict(_sim_section(), backend="gpu"))

    def test_default_backend_keeps_spec_hash_stable(self):
        """Omitting the default backend must not perturb existing runs."""
        plain = _spec(simulation=_sim_section())
        explicit = _spec(simulation=dict(_sim_section(), backend="auto"))
        assert plain.spec_hash == explicit.spec_hash
        assert "backend" not in plain.simulation.to_dict()

    def test_backend_is_sweepable(self):
        spec = _spec(
            simulation=_sim_section(),
            sweep={"simulation.backend": ["dense", "matrix_free"]},
        )
        jobs = expand_sweep(spec)
        assert [job.spec.simulation.backend for job in jobs] == [
            "dense",
            "matrix_free",
        ]

    @pytest.mark.parametrize(
        "section, sweep, field",
        [
            ({"backend": "sparse"}, None, "simulation.backend"),
            ({"vectorized": False}, None, "vectorized"),
            ({}, {"simulation.vectorized": [True, False]}, "vectorized"),
        ],
        ids=["backend-sparse", "vectorized", "sweep-vectorized"],
    )
    def test_retired_simulation_inputs_rejected(self, section, sweep, field):
        """The sparse backend and the legacy-loop flag fail loudly."""
        extra = {"sweep": sweep} if sweep else {}
        with pytest.raises(ExperimentError, match=field):
            _spec(simulation=dict(_sim_section(), **section), **extra)

    def test_execution_chunksize_validated(self):
        spec = _spec(execution={"executor": "process", "chunksize": 4})
        assert spec.execution.chunksize == 4
        assert spec.execution.to_dict()["chunksize"] == 4
        with pytest.raises(ExperimentError):
            _spec(execution={"executor": "process", "chunksize": 0})

    def test_round_trip_via_json(self, tmp_path):
        spec = _spec(
            simulation=_sim_section(),
            zne={"factors": [1.0, 1.5]},
            sweep={"model.qubits": [2, 3]},
            compiler={"refine": False},
            description="round trip",
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = load_spec(path)
        assert loaded == spec
        assert loaded.spec_hash == spec.spec_hash

    def test_round_trip_via_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        spec = _spec(simulation=_sim_section(), sweep={"time": [0.5, 1.0]})
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(spec.to_dict()))
        loaded = load_spec(path)
        assert loaded == spec
        assert loaded.spec_hash == spec.spec_hash

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ExperimentError, match="unknown key"):
            _spec(bogus=1)

    def test_unknown_model_rejected(self):
        with pytest.raises(ExperimentError, match="unknown model"):
            ExperimentSpec.from_dict(
                {"name": "x", "model": {"name": "nope", "qubits": 2}}
            )

    def test_model_requires_exactly_one_source(self):
        with pytest.raises(ExperimentError, match="exactly one"):
            ExperimentSpec.from_dict(
                {
                    "name": "x",
                    "model": {
                        "name": "ising_chain",
                        "hamiltonian": "Z0*Z1",
                    },
                }
            )

    def test_zne_requires_simulation(self):
        with pytest.raises(ExperimentError, match="requires a 'simulation'"):
            _spec(zne={"factors": [1.0, 1.5]})

    def test_segments_require_time_dependent_model(self):
        with pytest.raises(ExperimentError, match="time-dependent"):
            _spec(segments=4)

    def test_bad_sweep_path_rejected(self):
        with pytest.raises(ExperimentError, match="not sweepable"):
            _spec(sweep={"model.name": ["ising_chain", "kitaev"]})

    def test_bad_sweep_value_fails_at_load_time(self):
        with pytest.raises(ExperimentError):
            _spec(sweep={"model.qubits": [2, -1]})

    def test_zne_factor_validation(self):
        with pytest.raises(ExperimentError, match=">= 1"):
            _spec(simulation=_sim_section(), zne={"factors": [0.5, 1.0]})
        with pytest.raises(ExperimentError, match="distinct"):
            _spec(simulation=_sim_section(), zne={"factors": [1.0, 1.0]})
        with pytest.raises(ExperimentError, match="start with 1.0"):
            _spec(simulation=_sim_section(), zne={"factors": [1.25, 1.5]})

    def test_non_numeric_fields_raise_experiment_error(self):
        with pytest.raises(ExperimentError, match="time must be a number"):
            _spec(time="fast")
        with pytest.raises(ExperimentError, match="simulation.seed"):
            _spec(simulation={"seed": "xyz"})
        with pytest.raises(ExperimentError, match="digital.epsilon"):
            _spec(digital={"epsilon": "tiny"})

    def test_missing_file_is_experiment_error(self, tmp_path):
        with pytest.raises(ExperimentError, match="not found"):
            load_spec(tmp_path / "nope.yaml")

    def test_spec_hash_changes_with_content(self):
        assert _spec().spec_hash != _spec(time=2.0).spec_hash


class TestCompilerPassesSection:
    def test_passes_section_canonicalized_and_hashable(self):
        spec = _spec(
            compiler={"passes": {"enable": ["term_fusion"]}}
        )
        assert dict(spec.compiler)["passes"] == (
            ("enable", ("term_fusion",)),
        )
        hash(spec.compiler)  # must stay usable as a batch-job cache key

    def test_passes_round_trips_through_to_dict(self):
        spec = _spec(
            compiler={
                "passes": {
                    "enable": ["term_fusion", "schedule_compaction"],
                    "disable": ["refinement"],
                }
            }
        )
        data = spec.to_dict()
        assert data["compiler"]["passes"] == {
            "enable": ["term_fusion", "schedule_compaction"],
            "disable": ["refinement"],
        }
        again = ExperimentSpec.from_dict(data)
        assert again.spec_hash == spec.spec_hash

    def test_default_passes_config_is_dropped(self):
        spec = _spec(compiler={"passes": {}, "refine": True})
        assert "passes" not in dict(spec.compiler)
        assert spec.spec_hash == _spec(compiler={"refine": True}).spec_hash

    def test_unknown_pass_fails_at_load_time(self):
        with pytest.raises(ExperimentError, match="unknown compiler pass"):
            _spec(compiler={"passes": {"enable": ["bogus"]}})

    def test_bad_order_fails_at_load_time(self):
        with pytest.raises(ExperimentError, match="must run before"):
            _spec(
                compiler={
                    "passes": {
                        "order": [
                            "emit_schedule",
                            "build_linear_system",
                            "partition",
                            "time_optimization",
                            "fixed_solve",
                            "refinement",
                        ]
                    }
                }
            )

    def test_passes_flow_into_job_records(self, tmp_path):
        spec = _spec(
            compiler={"passes": {"enable": ["term_fusion"]}},
            device="heisenberg",
        )
        result = run_experiment(spec, tmp_path / "run")
        assert result.all_ok
        record = result.records[0]
        names = [e["name"] for e in record["compile"]["passes"]]
        assert names[0] == "term_fusion"
        assert "stage_timings" in record["compile"]
        report = generate_report(tmp_path / "run")
        assert "mean_pass_seconds" in report.payload["aggregates"]


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------


class TestSweepExpansion:
    def test_grid_is_cartesian_product_in_sorted_path_order(self):
        spec = _spec(
            simulation=_sim_section(seed=10),
            sweep={"time": [0.5, 1.0], "model.qubits": [2, 3, 4]},
        )
        jobs = expand_sweep(spec)
        assert len(jobs) == 6 == spec.num_jobs
        # 'model.qubits' sorts before 'time': qubits is the outer axis.
        combos = [dict(job.overrides) for job in jobs]
        assert combos[0] == {"model.qubits": 2, "time": 0.5}
        assert combos[1] == {"model.qubits": 2, "time": 1.0}
        assert combos[2] == {"model.qubits": 3, "time": 0.5}

    def test_expansion_is_deterministic(self):
        spec = _spec(
            simulation=_sim_section(seed=3),
            sweep={"model.qubits": [2, 3], "simulation.shots": [10, 20]},
        )
        first = expand_sweep(spec)
        second = expand_sweep(spec)
        assert [j.job_id for j in first] == [j.job_id for j in second]
        assert [j.seed for j in first] == [j.seed for j in second]
        assert [j.seed for j in first] == [3, 4, 5, 6]

    def test_swept_seed_values_are_used_verbatim(self):
        spec = _spec(
            simulation=_sim_section(seed=0),
            sweep={"simulation.seed": [100, 200]},
        )
        jobs = expand_sweep(spec)
        assert [j.seed for j in jobs] == [100, 200]
        assert [j.spec.simulation.seed for j in jobs] == [100, 200]

    def test_job_ids_embed_distinct_digests(self):
        jobs = expand_sweep(_spec(sweep={"model.qubits": [2, 3]}))
        digests = {job.job_id.split("-", 1)[1] for job in jobs}
        assert len(digests) == 2

    def test_resolved_spec_has_no_sweep(self):
        jobs = expand_sweep(_spec(sweep={"model.qubits": [2, 3]}))
        assert all(job.spec.sweep == () for job in jobs)
        assert [job.spec.model.qubits for job in jobs] == [2, 3]

    def test_list_valued_axis(self):
        spec = _spec(
            simulation=_sim_section(),
            zne={"factors": [1.0, 1.5]},
            sweep={"zne.factors": [[1.0, 1.5], [1.0, 1.5, 2.0]]},
        )
        jobs = expand_sweep(spec)
        assert [job.spec.zne.factors for job in jobs] == [
            (1.0, 1.5),
            (1.0, 1.5, 2.0),
        ]


# ----------------------------------------------------------------------
# Runner + artifact store
# ----------------------------------------------------------------------


class TestRunnerResume:
    def test_run_executes_and_reports(self, tmp_path):
        spec = _spec(
            simulation=_sim_section(),
            zne={"factors": [1.0, 1.5]},
            verify=True,
            sweep={"model.qubits": [2, 3]},
        )
        result = run_experiment(spec, tmp_path / "run")
        assert result.all_ok
        assert result.executed == 2 and result.skipped == 0
        record = result.records[0]
        assert record["status"] == "ok"
        assert record["compile"]["success"]
        assert 0.9 < record["fidelity"] <= 1.0 + 1e-9
        assert set(record["observables"]) == {"z_avg", "zz_avg"}
        assert record["zne"]["factors"] == [1.0, 1.5]
        report = generate_report(tmp_path / "run")
        assert report.payload["num_ok"] == 2
        assert (tmp_path / "run" / "report.json").is_file()
        assert "mean_relative_error" in report.payload["aggregates"]

    def test_resume_skips_completed_jobs(self, tmp_path):
        spec = _spec(
            simulation=_sim_section(), sweep={"model.qubits": [2, 3]}
        )
        first = run_experiment(spec, tmp_path / "run")
        assert first.executed == 2
        second = run_experiment(spec, tmp_path / "run")
        assert second.executed == 0 and second.skipped == 2
        # Resumed records are byte-identical to the first run's.
        assert [r["job_id"] for r in second.records] == [
            r["job_id"] for r in first.records
        ]

    def test_resume_retries_errored_jobs(self, tmp_path):
        spec = _spec(simulation=_sim_section())
        result = run_experiment(spec, tmp_path / "run")
        store = ArtifactStore(tmp_path / "run")
        record = store.read_job(result.records[0]["job_id"])
        record["status"] = "error"
        store.write_job(record)
        rerun = run_experiment(spec, tmp_path / "run")
        assert rerun.executed == 1
        assert rerun.records[0]["status"] == "ok"

    def test_mismatched_spec_rejected_without_force(self, tmp_path):
        run_experiment(_spec(), tmp_path / "run")
        other = _spec(time=2.0)
        with pytest.raises(ExperimentError, match="different experiment"):
            run_experiment(other, tmp_path / "run")
        forced = run_experiment(other, tmp_path / "run", force=True)
        assert forced.executed == 1

    def test_infeasible_job_is_isolated(self, tmp_path):
        # A qubits sweep where one point exceeds the trap extent:
        # that point fails, the other still completes.
        spec = ExperimentSpec.from_dict(
            {
                "name": "isolated",
                "model": {"name": "ising_chain", "qubits": 2},
                "device": "rydberg-1d",
                "device_options": {"extent": 12.0},
                "time": 1.0,
                "sweep": {"model.qubits": [2, 9]},
            }
        )
        result = run_experiment(spec, tmp_path / "run")
        statuses = [r["status"] for r in result.records]
        assert statuses[0] == "ok"
        assert statuses[1] in ("compile_failed", "error")
        assert not result.all_ok

    def test_time_dependent_model_spec(self, tmp_path):
        spec = ExperimentSpec.from_dict(
            {
                "name": "mis",
                "model": {"name": "mis_chain", "qubits": 3},
                "device": "rydberg-1d",
                "device_options": {"extent": 120.0},
                "time": 1.0,
                "segments": 2,
                "verify": True,
            }
        )
        result = run_experiment(spec, tmp_path / "run")
        assert result.all_ok
        assert result.records[0]["compile"]["num_segments"] == 2


class TestDeviceOptions:
    def test_aais_for_device_applies_overrides(self):
        aais = aais_for_device(
            "rydberg-1d", 3, {"extent": 200.0, "delta_max": 10.0}
        )
        assert aais.spec.geometry.extent == 200.0
        assert aais.spec.delta_max == 10.0

    def test_unknown_option_rejected(self):
        from repro.errors import AAISError

        with pytest.raises(AAISError, match="device_options"):
            aais_for_device("heisenberg", 3, {"extent": 10.0})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLI:
    def _write_spec(self, tmp_path, **extra):
        data = json.loads(json.dumps(BASE_SPEC))
        data["simulation"] = _sim_section(shots=40, noise_samples=2)
        data["zne"] = {"factors": [1.0, 1.5]}
        data.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return path

    def test_run_smoke_two_qubits(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out_dir)]) == 0
        captured = capsys.readouterr().out
        assert "1/1 jobs ok" in captured
        assert (out_dir / "manifest.json").is_file()
        assert (out_dir / "report.json").is_file()

    def test_run_resumes_on_second_invocation(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["run", str(path), "--out", str(out_dir)]) == 0
        assert "(0 executed, 1 resumed)" in capsys.readouterr().out

    def test_dry_run_prints_plan_without_artifacts(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, sweep={"model.qubits": [2, 3]})
        assert cli_main(["run", str(path), "--dry-run"]) == 0
        captured = capsys.readouterr().out
        assert "2 job(s)" in captured
        assert "model.qubits=2" in captured
        assert not (tmp_path / "runs").exists()

    def test_report_command(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        out_dir = tmp_path / "out"
        cli_main(["run", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        assert cli_main(["report", str(out_dir), "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_jobs"] == payload["num_ok"] == 1

    def test_run_invalid_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad"}))
        assert cli_main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_example_specs_validate(self):
        pytest.importorskip("yaml")
        from pathlib import Path

        spec_dir = Path(__file__).resolve().parent.parent / (
            "examples/experiments"
        )
        specs = sorted(spec_dir.glob("*.yaml"))
        assert len(specs) >= 4
        for path in specs:
            spec = load_spec(path)
            assert spec.num_jobs >= 1
            assert len(ExperimentRunner().plan(spec)) == spec.num_jobs
