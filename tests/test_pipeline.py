"""Tests for the pass-based compiler pipeline (core/pipeline/)."""

from __future__ import annotations

import pytest

from repro.aais import HeisenbergAAIS, RydbergAAIS
from repro.core import QTurboCompiler
from repro.core.pipeline import (
    DEFAULT_PASSES,
    OPTIONAL_PASSES,
    PASS_REGISTRY,
    CompilationUnit,
    CompilerPass,
    PassManager,
    PipelineConfig,
    build_pipeline,
    normalize_passes_config,
    resolve_pass_names,
    trace_table,
)
from repro.devices import paper_example_spec
from repro.errors import CompilationError
from repro.hamiltonian import Hamiltonian, parse_hamiltonian
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian, Segment
from repro.models import ising_chain


class TestPassManagerAndConfig:
    def test_default_pipeline_order(self):
        compiler = QTurboCompiler(HeisenbergAAIS(2))
        assert compiler.pass_names == list(DEFAULT_PASSES)

    def test_registry_covers_default_and_optional(self):
        for name in DEFAULT_PASSES + OPTIONAL_PASSES:
            assert name in PASS_REGISTRY

    def test_enable_inserts_at_canonical_positions(self):
        config = normalize_passes_config({"enable": ["schedule_compaction"]})
        names = resolve_pass_names(config)
        assert names[0] == "build_linear_system"
        assert names[-1] == "emit_schedule"
        assert names[-2] == "schedule_compaction"

    def test_retired_term_fusion_rejected_by_name(self, capsys):
        from repro.cli import main

        for section in ("enable", "disable", "order"):
            with pytest.raises(
                CompilationError,
                match="unknown compiler pass 'term_fusion'; known passes",
            ):
                normalize_passes_config({section: ["term_fusion"]})
        code = main(
            [
                "compile",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--enable-pass",
                "term_fusion",
            ]
        )
        assert code == 2
        assert (
            "unknown compiler pass 'term_fusion'"
            in capsys.readouterr().err
        )

    def test_unknown_pass_rejected(self):
        with pytest.raises(CompilationError, match="unknown compiler pass"):
            normalize_passes_config({"enable": ["no_such_pass"]})

    def test_unknown_key_rejected(self):
        with pytest.raises(CompilationError, match="unknown compiler.passes"):
            normalize_passes_config({"enabled": ["schedule_compaction"]})

    def test_default_pass_cannot_be_enabled(self):
        with pytest.raises(CompilationError, match="default pipeline"):
            normalize_passes_config({"enable": ["partition"]})

    def test_structural_pass_cannot_be_disabled(self):
        with pytest.raises(CompilationError, match="cannot be disabled"):
            normalize_passes_config({"disable": ["emit_schedule"]})

    def test_order_must_be_permutation(self):
        with pytest.raises(CompilationError, match="permutation"):
            normalize_passes_config({"order": ["partition"]})

    def test_order_must_respect_dependencies(self):
        bad = list(DEFAULT_PASSES)
        bad.remove("emit_schedule")
        bad.insert(0, "emit_schedule")
        with pytest.raises(CompilationError, match="must run before"):
            normalize_passes_config({"order": bad})

    def test_legal_reorder_accepted(self):
        # partition only needs the channels, so it may precede the build.
        order = ["partition"] + [
            n for n in DEFAULT_PASSES if n != "partition"
        ]
        config = normalize_passes_config({"order": order})
        assert resolve_pass_names(config) == order
        aais = HeisenbergAAIS(3)
        reordered = QTurboCompiler(aais, passes={"order": order})
        default = QTurboCompiler(aais)
        target = ising_chain(3)
        assert (
            reordered.compile(target, 1.0).schedule.to_dict()
            == default.compile(target, 1.0).schedule.to_dict()
        )

    def test_pair_tuple_form_round_trips(self):
        config = normalize_passes_config({"enable": ["schedule_compaction"]})
        again = normalize_passes_config(config.as_pairs())
        assert again == config
        compiler = QTurboCompiler(
            HeisenbergAAIS(2), passes=config.as_pairs()
        )
        assert compiler.pass_names[-2] == "schedule_compaction"

    def test_prebuilt_pass_manager_accepted(self):
        manager = build_pipeline(PipelineConfig())
        compiler = QTurboCompiler(HeisenbergAAIS(2), passes=manager)
        assert compiler.compile(ising_chain(2), 1.0).success

    def test_pipeline_without_emit_fails_loudly(self):
        manager = PassManager(
            [PASS_REGISTRY["build_linear_system"]()]
        )
        compiler = QTurboCompiler(HeisenbergAAIS(2), passes=manager)
        with pytest.raises(CompilationError, match="without emitting"):
            compiler.compile(ising_chain(2), 1.0)

    def test_missing_prerequisite_reported(self):
        manager = PassManager([PASS_REGISTRY["time_optimization"]()])
        compiler = QTurboCompiler(HeisenbergAAIS(2), passes=manager)
        with pytest.raises(CompilationError, match="pipeline order"):
            compiler.compile(ising_chain(2), 1.0)

    def test_custom_pass_runs_and_records(self):
        seen = {}

        class ProbePass(CompilerPass):
            name = "probe"

            def run(self, unit: CompilationUnit, context):
                seen["segments"] = unit.num_segments
                self.record(probe=True)
                return unit

        names = list(DEFAULT_PASSES)
        passes = [ProbePass()] + [
            build_pipeline(PipelineConfig()).passes[k]
            for k in range(len(names))
        ]
        compiler = QTurboCompiler(
            HeisenbergAAIS(2), passes=PassManager(passes)
        )
        result = compiler.compile(ising_chain(2), 1.0)
        assert seen["segments"] == 1
        assert result.pass_trace[0]["name"] == "probe"
        assert result.pass_trace[0]["diagnostics"] == {"probe": True}


class TestTraceAndTimings:
    def test_pass_trace_populated(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        result = QTurboCompiler(aais).compile(ising_chain(3), 1.0)
        names = [entry["name"] for entry in result.pass_trace]
        assert names == list(DEFAULT_PASSES)
        assert all(entry["seconds"] >= 0 for entry in result.pass_trace)

    def test_stage_timings_cover_all_stages(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        result = QTurboCompiler(aais).compile(ising_chain(3), 1.0)
        timings = result.stage_timings.as_dict()
        assert set(timings) == {
            "linear",
            "partition",
            "time_optimization",
            "local_solve",
            "refinement",
            "emit",
            "total",
        }
        assert timings["emit"] > 0
        assert timings["refinement"] > 0  # the LP ran on this workload
        assert timings["total"] >= sum(
            v for k, v in timings.items() if k != "total"
        )

    def test_failed_compilation_keeps_partial_trace(self):
        aais = RydbergAAIS(2, spec=paper_example_spec())
        compiler = QTurboCompiler(aais, max_feasibility_iters=0)
        # A huge ZZ coupling forces spacing below the hardware minimum.
        result = compiler.compile(parse_hamiltonian("5000*Z0*Z1"), 1.0)
        if not result.success:
            names = [entry["name"] for entry in result.pass_trace]
            assert "build_linear_system" in names

    def test_trace_table_renders(self):
        aais = HeisenbergAAIS(2)
        result = QTurboCompiler(aais).compile(ising_chain(2), 1.0)
        table = trace_table(result.pass_trace)
        for name in DEFAULT_PASSES:
            assert name in table
        assert trace_table([]) == "(no pass trace recorded)"


class TestSystemCacheLRU:
    def test_eviction_counter_and_capacity(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        compiler = QTurboCompiler(aais, system_cache_size=2)
        compiler.compile(parse_hamiltonian("X0"), 1.0)
        compiler.compile(parse_hamiltonian("X1"), 1.0)
        compiler.compile(parse_hamiltonian("Z0"), 1.0)
        stats = compiler.system_cache_stats()
        assert stats["capacity"] == 2
        assert stats["size"] == 2
        assert stats["misses"] == 3
        assert stats["evictions"] == 1

    def test_lru_keeps_recently_used(self):
        aais = RydbergAAIS(3, spec=paper_example_spec())
        compiler = QTurboCompiler(aais, system_cache_size=2)
        compiler.compile(parse_hamiltonian("X0"), 1.0)
        compiler.compile(parse_hamiltonian("X1"), 1.0)
        compiler.compile(parse_hamiltonian("X0"), 2.0)  # refresh X0
        compiler.compile(parse_hamiltonian("Z0"), 1.0)  # evicts X1
        compiler.compile(parse_hamiltonian("X0"), 3.0)  # still cached
        stats = compiler.system_cache_stats()
        assert stats["hits"] == 2
        assert stats["evictions"] == 1

    def test_disabled_cache_reports_zero_capacity(self):
        aais = HeisenbergAAIS(2)
        compiler = QTurboCompiler(aais, system_cache_size=0)
        compiler.compile(ising_chain(2), 1.0)
        stats = compiler.system_cache_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
            "evictions": 0,
        }

    def test_pass_cache_stats_shape(self):
        aais = HeisenbergAAIS(2)
        compiler = QTurboCompiler(aais)
        compiler.compile(ising_chain(2), 1.0)
        compiler.compile(ising_chain(2), 2.0)
        stats = compiler.pass_cache_stats()
        assert stats["linear_system"]["hits"] == 1
        assert stats["partition"] == {"hits": 1, "misses": 1}


class TestScheduleCompactionPass:
    def _piecewise_with_idle(self, n=3):
        drive = ising_chain(n)
        return PiecewiseHamiltonian(
            [
                Segment(0.4, drive),
                Segment(0.3, Hamiltonian.zero()),
                Segment(0.4, drive),
            ]
        )

    def test_idle_segments_dropped_on_dynamic_device(self):
        aais = HeisenbergAAIS(3)
        target = self._piecewise_with_idle()
        plain = QTurboCompiler(aais).compile_piecewise(target)
        compact = QTurboCompiler(
            aais, passes={"enable": ["schedule_compaction"]}
        ).compile_piecewise(target)
        assert plain.schedule.num_segments == 3
        assert compact.schedule.num_segments == 2
        trace = {e["name"]: e for e in compact.pass_trace}
        assert trace["schedule_compaction"]["diagnostics"][
            "segments_dropped"
        ] == 1
        kept = [s for s in plain.segments if any(s.b_target.values())]
        for ours, ref in zip(compact.segments, kept):
            assert ours.duration == ref.duration
            assert ours.values == ref.values

    def test_never_drops_on_always_on_interactions(self):
        # Rydberg Van der Waals physics is always on: no segment is null.
        aais = RydbergAAIS(3, spec=paper_example_spec())
        target = self._piecewise_with_idle()
        compact = QTurboCompiler(
            aais, passes={"enable": ["schedule_compaction"]}
        ).compile_piecewise(target)
        assert compact.schedule.num_segments == 3

    def test_all_idle_program_keeps_one_segment(self):
        aais = HeisenbergAAIS(2)
        target = PiecewiseHamiltonian(
            [Segment(0.5, Hamiltonian.zero())] * 2
        )
        compact = QTurboCompiler(
            aais, passes={"enable": ["schedule_compaction"]}
        ).compile_piecewise(target)
        assert compact.success
        assert compact.schedule.num_segments == 1


class TestBatchPassCacheStats:
    def test_aggregated_over_worker_compilers(self):
        from repro.batch import BatchCompiler, BatchJob, pass_cache_stats
        from repro.batch.compiler import reset_worker_compilers

        reset_worker_compilers()
        aais = HeisenbergAAIS(3)
        jobs = [
            BatchJob.constant(f"job-{k}", ising_chain(3), 1.0, aais)
            for k in range(3)
        ]
        BatchCompiler(executor="serial").compile_many(jobs)
        stats = pass_cache_stats()
        assert stats["compilers"] == 1
        assert stats["linear_system"]["hits"] == 2
        assert stats["linear_system"]["misses"] == 1
        assert stats["partition"]["hits"] == 2
        reset_worker_compilers()


class TestExplainAtPass:
    def test_replay_after_each_default_pass(self):
        compiler = QTurboCompiler(RydbergAAIS(3, spec=paper_example_spec()))
        target = PiecewiseHamiltonian.constant(ising_chain(3), 1.0)
        for index, name in enumerate(DEFAULT_PASSES):
            state = compiler.explain_at_pass(target, name)
            assert state["source"] == "replay"
            assert state["pass_index"] == index
            assert state["passes_run"] == list(DEFAULT_PASSES[: index + 1])
        assert state["schedule_segments"] == 1
        assert "result" in state

    def test_unknown_pass_rejected(self):
        compiler = QTurboCompiler(RydbergAAIS(3, spec=paper_example_spec()))
        target = PiecewiseHamiltonian.constant(ising_chain(3), 1.0)
        with pytest.raises(CompilationError, match="unknown pass"):
            compiler.explain_at_pass(target, "nonesuch")


class TestCLIExplain:
    def test_compile_explain_prints_trace(self, capsys):
        from repro.cli import main

        code = main(
            ["compile", "--model", "ising_chain", "-n", "3", "--explain"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in DEFAULT_PASSES:
            assert name in out

    def test_compile_enable_pass(self, capsys):
        from repro.cli import main

        code = main(
            [
                "compile",
                "--model",
                "heisenberg_chain",
                "-n",
                "3",
                "--device",
                "heisenberg",
                "--explain",
                "--enable-pass",
                "schedule_compaction",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "schedule_compaction" in out

    def test_compile_bad_pass_is_usage_error(self, capsys):
        from repro.cli import main

        code = main(
            [
                "compile",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--enable-pass",
                "bogus",
            ]
        )
        assert code == 2
        assert "unknown compiler pass" in capsys.readouterr().err

    def test_compile_at_pass_json(self, capsys):
        import json

        from repro.cli import main

        code = main(
            [
                "compile",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--explain",
                "--at-pass",
                "partition",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["at_pass"]["source"] == "replay"
        assert payload["at_pass"]["pass_index"] == 1
        assert payload["at_pass"]["partition"]["components"] >= 1

    def test_at_pass_requires_explain(self, capsys):
        from repro.cli import main

        code = main(
            ["compile", "--model", "ising_chain", "--at-pass", "partition"]
        )
        assert code == 2
        assert "--at-pass requires --explain" in capsys.readouterr().err

    def test_cache_stats_includes_compiler_section(self, capsys):
        import json

        from repro.cli import main

        assert main(["cache-stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "compiler_cache" in payload
        assert "linear_system" in payload["compiler_cache"]
