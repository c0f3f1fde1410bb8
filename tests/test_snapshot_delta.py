"""Incremental compilation: snapshots, delta detection, and wiring.

Bit-level equivalence of delta-compiled schedules against the frozen
seed compiler lives in ``test_pipeline_equivalence.py``; this module
covers the machinery itself — family digests, the invalidation
contract, the snapshot store's failure modes, cache statistics, and the
batch / experiment-runner / CLI wiring.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.aais import aais_for_device
from repro.batch import BatchCompiler, BatchJob
from repro.batch.compiler import pass_cache_stats, reset_worker_compilers
from repro.cli import main as cli_main
from repro.core import QTurboCompiler
from repro.core.linear_system import GlobalLinearSystem
from repro.core.pipeline import (
    INVALIDATION_INPUTS,
    PASS_INVALIDATION,
    PASS_REGISTRY,
    SnapshotStore,
    coefficient_digest,
    reentry_index,
    reset_snapshot_stores,
    snapshot_cache_stats,
    structure_digest,
    unit_digest,
)
from repro.errors import CompilationError, ExperimentError
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.hamiltonian import Hamiltonian
from repro.hamiltonian.expression import x, zz
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian

QUBITS = 3


def _target(j: float = 0.5, h: float = 0.3, h_last: float = 0.3) -> Hamiltonian:
    """A small Ising chain with independently tunable coefficients."""
    target = j * zz(0, 1) + j * zz(1, 2) + h * x(0) + h * x(1)
    return target + h_last * x(2)


def _piecewise(time: float = 1.0, **coeffs) -> PiecewiseHamiltonian:
    return PiecewiseHamiltonian.constant(_target(**coeffs), time)


def _aais(device: str = "rydberg-1d"):
    return aais_for_device(device, QUBITS)


# ----------------------------------------------------------------------
# Digests and the invalidation contract
# ----------------------------------------------------------------------


class TestDigests:
    def test_equal_targets_share_all_digests(self):
        a, b = _piecewise(), _piecewise()
        assert structure_digest(a) == structure_digest(b)
        assert coefficient_digest(a) == coefficient_digest(b)
        assert unit_digest(a) == unit_digest(b)

    def test_coefficient_change_keeps_structure(self):
        a, b = _piecewise(), _piecewise(j=0.7)
        assert structure_digest(a) == structure_digest(b)
        assert coefficient_digest(a) != coefficient_digest(b)
        assert unit_digest(a) != unit_digest(b)

    def test_duration_change_is_a_coefficient_change(self):
        a, b = _piecewise(1.0), _piecewise(1.3)
        assert structure_digest(a) == structure_digest(b)
        assert coefficient_digest(a) != coefficient_digest(b)

    def test_term_added_changes_structure(self):
        a = _piecewise()
        b = PiecewiseHamiltonian.constant(_target() + 0.1 * zz(0, 2), 1.0)
        assert structure_digest(a) != structure_digest(b)

    def test_sign_flip_to_exactly_zero_changes_structure(self):
        """A coefficient hitting exactly zero drops the term — no
        coefficient-only disguise is possible for vanishing terms."""
        a, b = _piecewise(), _piecewise(h_last=0.0)
        assert structure_digest(a) != structure_digest(b)

    def test_every_registry_pass_declares_invalidation(self):
        assert set(PASS_INVALIDATION) == set(PASS_REGISTRY)
        for name, inputs in PASS_INVALIDATION.items():
            assert set(inputs) <= set(INVALIDATION_INPUTS), name

    def test_structure_only_passes_are_the_documented_ones(self):
        coefficient_free = {
            name
            for name, inputs in PASS_INVALIDATION.items()
            if "coefficients" not in inputs
        }
        assert coefficient_free == {"partition", "term_fusion"}

    def test_reentry_index_default_and_fused_pipelines(self):
        default = QTurboCompiler(_aais())
        assert reentry_index(default._pass_manager.passes) == 0
        fused = QTurboCompiler(
            _aais(), passes={"enable": ["term_fusion"]}
        )
        assert reentry_index(fused._pass_manager.passes) == 1
        assert fused._pass_manager.passes[1].name == "build_linear_system"


# ----------------------------------------------------------------------
# Compiler-level incremental behavior
# ----------------------------------------------------------------------


class TestIncrementalCompiler:
    def test_cold_then_identical_then_delta(self, tmp_path):
        store = str(tmp_path / "snaps")
        cold = QTurboCompiler(_aais(), snapshots=store).compile_piecewise(
            _piecewise()
        )
        assert cold.success and cold.incremental is None

        identical = QTurboCompiler(
            _aais(), snapshots=store
        ).compile_piecewise(_piecewise())
        assert identical.incremental["mode"] == "identical"
        assert identical.schedule.to_dict() == cold.schedule.to_dict()

        delta = QTurboCompiler(_aais(), snapshots=store).compile_piecewise(
            _piecewise(j=0.8)
        )
        assert delta.incremental["mode"] == "delta"
        assert delta.incremental["reentry_pass"] == "build_linear_system"
        reference = QTurboCompiler(_aais()).compile_piecewise(
            _piecewise(j=0.8)
        )
        assert delta.schedule.to_dict() == reference.schedule.to_dict()

    def test_fused_delta_carries_prefix_and_matches_cold(self, tmp_path):
        store = str(tmp_path / "snaps")
        passes = {"enable": ["term_fusion"]}
        donor = QTurboCompiler(
            _aais("heisenberg"), passes=passes, snapshots=store
        ).compile_piecewise(_piecewise())
        assert donor.incremental is None

        delta = QTurboCompiler(
            _aais("heisenberg"), passes=passes, snapshots=store
        ).compile_piecewise(_piecewise(j=0.65))
        assert delta.incremental["mode"] == "delta"
        assert delta.incremental["reentry_index"] == 1
        carried = delta.pass_trace[0]
        assert carried["name"] == "term_fusion"
        assert carried["seconds"] == 0.0
        assert carried["diagnostics"].get("carried") is True

        reference = QTurboCompiler(
            _aais("heisenberg"), passes=passes
        ).compile_piecewise(_piecewise(j=0.65))
        assert delta.schedule.to_dict() == reference.schedule.to_dict()

    def test_structure_change_lands_in_new_family(self, tmp_path):
        store = str(tmp_path / "snaps")
        QTurboCompiler(_aais(), snapshots=store).compile_piecewise(
            _piecewise()
        )
        for variant in (
            PiecewiseHamiltonian.constant(_target() + 0.1 * zz(0, 2), 1.0),
            PiecewiseHamiltonian.constant(0.5 * zz(0, 1) + 0.3 * x(0), 1.0),
            _piecewise(h_last=0.0),
        ):
            result = QTurboCompiler(
                _aais(), snapshots=store
            ).compile_piecewise(variant)
            assert result.success
            assert result.incremental is None  # cold: new family

    def test_compiler_config_change_lands_in_new_family(self, tmp_path):
        store = str(tmp_path / "snaps")
        QTurboCompiler(_aais(), snapshots=store).compile_piecewise(
            _piecewise()
        )
        stale = QTurboCompiler(
            _aais(), refine=False, snapshots=store
        ).compile_piecewise(_piecewise())
        assert stale.incremental is None
        stats = SnapshotStore(str(tmp_path / "snaps")).disk_stats()
        assert stats["families"] == 2

    def test_family_without_block_plan_still_delta_compiles(
        self, tmp_path, monkeypatch
    ):
        """Families written before the block plan carry a dense ``_pinv``.

        The compiler fingerprint holds no code version, so such a family
        is still picked up; its systems must build the plan on first use.
        """

        def pre_block_plan_state(system):
            state = {k: v for k, v in vars(system).items() if k != "_plan"}
            state["_pinv"] = np.linalg.pinv(system.matrix.toarray())
            state["factorization_reuses"] = 0
            return state

        store_dir = tmp_path / "snaps"
        with monkeypatch.context() as patch:
            patch.setattr(
                GlobalLinearSystem, "__getstate__", pre_block_plan_state
            )
            QTurboCompiler(
                _aais("heisenberg"), snapshots=str(store_dir)
            ).compile_piecewise(_piecewise())
        (family,) = [p for p in store_dir.iterdir() if p.is_dir()]
        blob = (family / "shared.pkl").read_bytes()
        assert b"_pinv" in blob and b"_plan" not in blob
        reset_snapshot_stores()

        seeded = pickle.loads(blob)["system"]
        assert seeded._plan is None and not hasattr(seeded, "_pinv")
        delta = QTurboCompiler(
            _aais("heisenberg"), snapshots=str(store_dir)
        ).compile_piecewise(_piecewise(j=0.8))
        assert delta.incremental["mode"] == "delta"
        assert delta.pass_trace[0]["diagnostics"]["solver"] == "blocks"
        cold = QTurboCompiler(_aais("heisenberg")).compile_piecewise(
            _piecewise(j=0.8)
        )
        assert delta.schedule.to_dict() == cold.schedule.to_dict()
        assert delta.relative_error == cold.relative_error

    def test_corrupt_shared_blob_falls_back_cold_and_recommits(
        self, tmp_path
    ):
        store_dir = tmp_path / "snaps"
        QTurboCompiler(
            _aais(), snapshots=str(store_dir)
        ).compile_piecewise(_piecewise())
        (family,) = [p for p in store_dir.iterdir() if p.is_dir()]
        (family / "shared.pkl").write_bytes(b"not a pickle")

        compiler = QTurboCompiler(_aais(), snapshots=str(store_dir))
        result = compiler.compile_piecewise(_piecewise(j=0.8))
        assert result.success and result.incremental is None
        stats = compiler.snapshot_stats()
        assert stats["invalid"] >= 1
        assert stats["commits"] == 1  # the fallback re-committed
        # The re-committed donor serves the next delta normally.
        healed = QTurboCompiler(
            _aais(), snapshots=str(store_dir)
        ).compile_piecewise(_piecewise(j=0.9))
        assert healed.incremental["mode"] == "delta"

    def test_corrupt_unit_blob_falls_back_cold(self, tmp_path):
        store_dir = tmp_path / "snaps"
        passes = {"enable": ["term_fusion"]}
        QTurboCompiler(
            _aais(), passes=passes, snapshots=str(store_dir)
        ).compile_piecewise(_piecewise())
        (family,) = [p for p in store_dir.iterdir() if p.is_dir()]
        (family / "after-00-term_fusion.pkl").write_bytes(b"garbage")

        result = QTurboCompiler(
            _aais(), passes=passes, snapshots=str(store_dir)
        ).compile_piecewise(_piecewise(j=0.8))
        assert result.success and result.incremental is None

    def test_clear_wipes_families(self, tmp_path):
        store_dir = tmp_path / "snaps"
        compiler = QTurboCompiler(_aais(), snapshots=str(store_dir))
        compiler.compile_piecewise(_piecewise())
        store = SnapshotStore(store_dir)
        assert store.disk_stats()["families"] == 1
        store.clear()
        assert store.disk_stats()["families"] == 0
        assert not store_dir.exists()

    def test_snapshot_stats_in_pass_cache_stats(self, tmp_path):
        compiler = QTurboCompiler(
            _aais(), snapshots=str(tmp_path / "snaps")
        )
        compiler.compile_piecewise(_piecewise())
        compiler.compile_piecewise(_piecewise(j=0.8))
        stats = compiler.pass_cache_stats()["snapshot"]
        assert stats["commits"] == 1
        assert stats["hits_delta"] == 1
        assert stats["reentry"] == {"build_linear_system": 1}
        assert stats["disk"]["families"] == 1
        assert QTurboCompiler(_aais()).snapshot_stats() is None

    def test_snapshot_cache_stats_aggregates(self, tmp_path):
        compiler = QTurboCompiler(
            _aais(), snapshots=str(tmp_path / "snaps")
        )
        compiler.compile_piecewise(_piecewise())
        totals = snapshot_cache_stats()
        assert totals["stores"] >= 1
        assert totals["commits"] >= 1
        assert set(totals["disk"]) == {
            "families",
            "degraded",
            "blobs",
            "bytes",
        }


class TestExplainAtPass:
    def test_snapshot_source_for_donor(self, tmp_path):
        compiler = QTurboCompiler(
            _aais(), snapshots=str(tmp_path / "snaps")
        )
        compiler.compile_piecewise(_piecewise())
        state = compiler.explain_at_pass(_piecewise(), "partition")
        assert state["source"] == "snapshot"
        assert state["passes_run"] == ["build_linear_system", "partition"]
        assert state["partition"]["components"] >= 1

    def test_replay_source_without_snapshots(self):
        compiler = QTurboCompiler(_aais())
        state = compiler.explain_at_pass(_piecewise(), "emit_schedule")
        assert state["source"] == "replay"
        assert state["schedule_segments"] == 1
        assert "result" in state

    def test_replay_source_for_non_donor_target(self, tmp_path):
        compiler = QTurboCompiler(
            _aais(), snapshots=str(tmp_path / "snaps")
        )
        compiler.compile_piecewise(_piecewise())
        state = compiler.explain_at_pass(_piecewise(j=0.8), "partition")
        assert state["source"] == "replay"

    def test_unknown_pass_rejected(self):
        compiler = QTurboCompiler(_aais())
        with pytest.raises(CompilationError, match="unknown pass"):
            compiler.explain_at_pass(_piecewise(), "nonesuch")


# ----------------------------------------------------------------------
# Concurrency: process-pool workers sharing one store
# ----------------------------------------------------------------------


class TestConcurrentAccess:
    def test_process_pool_batch_shares_one_store(self, tmp_path):
        store = str(tmp_path / "snaps")
        aais = _aais()
        jobs = [
            BatchJob.constant(
                f"sweep-{k}",
                _target(j=0.4 + 0.1 * k),
                1.0,
                aais,
                snapshots=store,
            )
            for k in range(4)
        ]
        batch = BatchCompiler(executor="process", workers=2).compile_many(
            jobs
        )
        assert batch.all_succeeded
        reference = BatchCompiler(executor="serial").compile_many(
            [
                BatchJob.constant(
                    f"ref-{k}", _target(j=0.4 + 0.1 * k), 1.0, aais
                )
                for k in range(4)
            ]
        )
        for ours, ref in zip(batch.outcomes, reference.outcomes):
            assert (
                ours.result.schedule.to_dict()
                == ref.result.schedule.to_dict()
            )
        # Concurrent same-family commits converge on one valid donor.
        meta_files = list(tmp_path.glob("snaps/*/family.json"))
        assert len(meta_files) == 1
        meta = json.loads(meta_files[0].read_text())
        assert meta["passes"] == [
            "build_linear_system",
            "partition",
            "time_optimization",
            "fixed_solve",
            "refinement",
            "emit_schedule",
        ]
        reset_worker_compilers()

    def test_batch_stats_merge_snapshot_bucket(self, tmp_path):
        reset_worker_compilers()
        store = str(tmp_path / "snaps")
        aais = _aais()
        jobs = [
            BatchJob.constant(
                f"sweep-{k}",
                _target(j=0.4 + 0.1 * k),
                1.0,
                aais,
                snapshots=store,
            )
            for k in range(3)
        ]
        assert BatchCompiler().compile_many(jobs).all_succeeded
        totals = pass_cache_stats()
        assert totals["snapshot"]["commits"] == 1
        assert totals["snapshot"]["hits_delta"] == 2
        assert totals["snapshot"]["reentry"] == {"build_linear_system": 2}
        reset_worker_compilers()


# ----------------------------------------------------------------------
# Experiment-runner wiring
# ----------------------------------------------------------------------

RUN_SPEC = {
    "name": "snap",
    "model": {"name": "ising_chain", "qubits": 2},
    "device": "rydberg-1d",
    "time": 1.0,
    "sweep": {"time": [1.0, 1.3, 1.6]},
}


def _run_spec(**extra):
    data = json.loads(json.dumps(RUN_SPEC))
    data.update(extra)
    return ExperimentSpec.from_dict(data)


class TestRunnerWiring:
    def test_sweep_delta_compiles_automatically(self, tmp_path):
        reset_worker_compilers()
        run_dir = tmp_path / "run"
        result = ExperimentRunner().run(_run_spec(), run_dir)
        assert result.all_ok and result.executed == 3
        assert (run_dir / "snapshots").is_dir()
        modes = [
            record["compile"].get("incremental", {}).get("mode")
            for record in result.records
        ]
        assert modes == [None, "delta", "delta"]
        reset_worker_compilers()

    def test_force_wipes_snapshots_and_recompiles(self, tmp_path):
        reset_worker_compilers()
        run_dir = tmp_path / "run"
        runner = ExperimentRunner()
        runner.run(_run_spec(), run_dir)
        marker = run_dir / "snapshots" / "marker"
        marker.write_text("stale")

        resumed = runner.run(_run_spec(), run_dir)
        assert resumed.executed == 0 and resumed.skipped == 3
        assert marker.exists()  # resume keeps the store

        reset_worker_compilers()
        forced = runner.run(_run_spec(), run_dir, force=True)
        assert forced.executed == 3
        assert not marker.exists()  # --force wiped the store
        assert (run_dir / "snapshots").is_dir()
        reset_worker_compilers()

    def test_runner_snapshots_off(self, tmp_path):
        reset_worker_compilers()
        run_dir = tmp_path / "run"
        result = ExperimentRunner(snapshots=False).run(_run_spec(), run_dir)
        assert result.all_ok
        assert not (run_dir / "snapshots").exists()
        for record in result.records:
            assert "incremental" not in record["compile"]
        reset_worker_compilers()

    def test_spec_snapshots_false_overrides_runner(self, tmp_path):
        reset_worker_compilers()
        run_dir = tmp_path / "run"
        result = ExperimentRunner().run(
            _run_spec(compiler={"snapshots": False}), run_dir
        )
        assert result.all_ok
        for record in result.records:
            assert "incremental" not in record["compile"]
        reset_worker_compilers()

    def test_spec_snapshots_validation(self):
        with pytest.raises(ExperimentError, match="snapshots"):
            _run_spec(compiler={"snapshots": 3})

    def test_spec_snapshots_true_keeps_hash_stable(self):
        assert (
            _run_spec(compiler={"snapshots": True}).spec_hash
            == _run_spec().spec_hash
        )


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestCLI:
    def test_compile_at_pass_json(self, tmp_path, capsys):
        code = cli_main(
            [
                "compile",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--explain",
                "--at-pass",
                "partition",
                "--snapshot-dir",
                str(tmp_path / "snaps"),
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["at_pass"]["source"] == "snapshot"
        assert payload["at_pass"]["pass_index"] == 1

    def test_at_pass_requires_explain(self, capsys):
        code = cli_main(
            ["compile", "--model", "ising_chain", "--at-pass", "partition"]
        )
        assert code == 2
        assert "--at-pass requires --explain" in capsys.readouterr().err

    def test_cache_stats_reports_snapshot_sections(self, tmp_path, capsys):
        store = str(tmp_path / "snaps")
        assert (
            cli_main(
                [
                    "compile",
                    "--model",
                    "ising_chain",
                    "--snapshot-dir",
                    store,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["cache-stats", "--snapshot-dir", store]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "snapshot_cache" in payload
        disk = payload["snapshot_disk"]
        assert disk["families"] == 1 and disk["blobs"] > 0
