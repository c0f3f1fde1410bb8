"""The QTurbo compiler façade over the pass pipeline (Sections 4–6).

Compilation stages, per Figure 1:

1. **Global linear system** (Section 4.1) — solve for the synthesized
   variables α_c = expression_c × T_sim.
2. **Partition** (Section 4.2) — split channels into localized mixed
   systems (connected components over shared amplitude variables).
3. **Evolution-time optimization** (Section 5.1) — the bottleneck
   component at maximum amplitude sets T_sim.
4. **Runtime-fixed solve** (Section 5.2) — atom positions, with an
   iterative time-stretch loop when hardware spacing constraints bite.
5. **Refinement** (Section 6.2) — re-solve the dynamic synthesized
   variables to absorb the fixed-channel residual (L1 minimization).

Each stage is a :class:`~repro.core.pipeline.manager.CompilerPass` (see
:mod:`repro.core.pipeline.passes`); :class:`QTurboCompiler` owns the
cross-compile structural caches, builds the pipeline its configuration
selects, and wraps the pipeline's output into a
:class:`~repro.core.result.CompilationResult` with per-pass trace and
stage timings.

Time-dependent targets (Section 5.3) compile segment by segment with the
runtime-fixed variables shared: the segment requiring the *smallest*
fixed amplitudes anchors the position solve, and every other segment's
evolution time stretches to compensate.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.aais.base import AAIS
from repro.core.linear_system import GlobalLinearSystem
from repro.core.local_solvers import LocalSolverStrategy, select_strategy
from repro.core.partition import partition_channels
from repro.core.pipeline.delta import (
    compiler_fingerprint,
    describe_unit_state,
    family_name,
    reentry_index,
    structure_digest,
    unit_digest,
)
from repro.core.pipeline.manager import PassManager
from repro.core.pipeline.passes import linear_system_key
from repro.core.pipeline.registry import (
    build_pipeline,
    normalize_passes_config,
)
from repro.core.pipeline.snapshot import SnapshotStore
from repro.core.pipeline.unit import CompilationUnit
from repro.core.result import CompilationResult, StageTimings
from repro.core.time_optimizer import MIN_TIME_FLOOR
from repro.errors import CompilationError, InfeasibleError
from repro.testing.faults import fault_point
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.time_dependent import (
    PiecewiseHamiltonian,
    TimeDependentHamiltonian,
)

__all__ = ["QTurboCompiler"]

#: Stage-timing bucket each pass's wall time is charged to.
_PASS_STAGE = {
    "term_fusion": "linear",
    "build_linear_system": "linear",
    "partition": "partition",
    "time_optimization": "time_optimization",
    "fixed_solve": "local_solve",
    "refinement": "local_solve",  # minus the LP time, charged to refinement
    "schedule_compaction": "emit",
    "emit_schedule": "emit",
}


class QTurboCompiler:
    """Compile target Hamiltonians onto an AAIS.

    Parameters
    ----------
    aais:
        The simulator's instruction set.
    refine:
        Run the Section-6.2 refinement pass (default True).
    t_floor:
        Minimum evolution time per segment (µs).
    feasibility_growth:
        Factor by which the evolution time is stretched when the
        runtime-fixed solve violates hardware constraints.
    max_feasibility_iters:
        Cap on stretch iterations before giving up.
    use_analytic_solvers:
        When False, every local system is solved by the generic bounded
        least-squares fallback instead of the closed-form strategies —
        an ablation knob for measuring what the analytic solvers buy.
    system_cache_size:
        LRU capacity of the shared linear-system cache: the number of
        :class:`GlobalLinearSystem` instances (one per distinct target
        term structure) kept across :meth:`compile` calls.  Repeat
        compilations of structurally identical targets — the common case
        in batch workloads — reuse the assembled matrix and its cached
        block plan; least-recently-used systems are evicted beyond
        the cap (see :meth:`system_cache_stats`).  Set to 0 to disable.
    passes:
        Pipeline configuration: None for the default pipeline, a
        mapping with ``enable``/``disable``/``order`` lists of pass
        names (see :data:`repro.core.pipeline.PASS_REGISTRY`), the
        hashable pair form of such a mapping, or a prebuilt
        :class:`~repro.core.pipeline.manager.PassManager`.
    snapshots:
        Incremental-compilation store: None (default) disables it, a
        directory path (or an existing
        :class:`~repro.core.pipeline.snapshot.SnapshotStore`) enables
        it.  Cold compiles then persist per-pass unit snapshots keyed
        by content digest, and later compiles in the same *family*
        (same compiler knobs + target structure) either return the
        stored result (identical digest) or re-enter the pipeline at
        the first coefficient-sensitive pass with the donor's linear
        system (block plan included) and partition pre-seeded
        (coefficient delta).  Delta results are bit-identical to cold
        compiles; see ``docs/compilation.md``.
    """

    def __init__(
        self,
        aais: AAIS,
        refine: bool = True,
        t_floor: float = MIN_TIME_FLOOR,
        feasibility_growth: float = 1.15,
        max_feasibility_iters: int = 25,
        use_analytic_solvers: bool = True,
        system_cache_size: int = 32,
        passes=None,
        snapshots=None,
    ):
        if feasibility_growth <= 1.0:
            raise CompilationError("feasibility_growth must exceed 1")
        self.aais = aais
        self.refine = refine
        self.t_floor = float(t_floor)
        self.feasibility_growth = float(feasibility_growth)
        self.max_feasibility_iters = int(max_feasibility_iters)
        self.use_analytic_solvers = bool(use_analytic_solvers)
        self.system_cache_size = int(system_cache_size)
        if isinstance(passes, PassManager):
            self.pipeline_config = None
            self._pass_manager = passes
        else:
            self.pipeline_config = normalize_passes_config(passes)
            self._pass_manager = build_pipeline(
                self.pipeline_config, refine=self.refine
            )
        self._system_cache: "OrderedDict[tuple, GlobalLinearSystem]" = (
            OrderedDict()
        )
        self._system_cache_lock = threading.Lock()
        self._system_cache_hits = 0
        self._system_cache_misses = 0
        self._system_cache_evictions = 0
        # Channels never change for a compiler, so the partition and the
        # per-component solver strategies are computed once, lazily.
        self._partition: "List | None" = None
        self._strategies: "List[LocalSolverStrategy] | None" = None
        self._partition_hits = 0
        self._partition_misses = 0
        if snapshots is None or isinstance(snapshots, SnapshotStore):
            self._snapshots: Optional[SnapshotStore] = snapshots
        else:
            self._snapshots = SnapshotStore(Path(snapshots))
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def pass_names(self) -> List[str]:
        """The configured pipeline's pass names, in run order."""
        return self._pass_manager.pass_names

    def compile(
        self, target: Hamiltonian, t_target: float
    ) -> CompilationResult:
        """Compile a time-independent target evolved for ``t_target``."""
        if t_target <= 0:
            raise CompilationError(
                f"target evolution time must be positive, got {t_target}"
            )
        return self.compile_piecewise(
            PiecewiseHamiltonian.constant(target, t_target)
        )

    def compile_time_dependent(
        self, target: TimeDependentHamiltonian, num_segments: int
    ) -> CompilationResult:
        """Discretize and compile a continuously time-dependent target."""
        return self.compile_piecewise(target.discretize(num_segments))

    def compile_piecewise(
        self, target: PiecewiseHamiltonian
    ) -> CompilationResult:
        """Compile a piecewise-constant target (the general entry point).

        Runs the configured pass pipeline over a fresh
        :class:`~repro.core.pipeline.unit.CompilationUnit`; an
        :class:`~repro.errors.InfeasibleError` raised by any pass
        becomes an unsuccessful result carrying the partial pass trace.
        With a snapshot store configured, the compile is served
        incrementally when a usable donor snapshot exists (see the
        ``snapshots`` parameter).
        """
        fault_point("compiler.compile")
        start = time.perf_counter()
        if self._snapshots is not None:
            return self._compile_incremental(target, start)
        unit = CompilationUnit(target=target, aais=self.aais)
        return self._run_pipeline(unit, start)

    # ------------------------------------------------------------------
    # Incremental compilation (snapshot store + delta re-entry)
    # ------------------------------------------------------------------
    def _run_pipeline(self, unit, start, start_at=0, observer=None):
        """Run the pipeline over ``unit`` and finalize the result."""
        try:
            unit = self._pass_manager.run(
                unit, self, start_at=start_at, observer=observer
            )
            result = unit.result
            if result is None:
                raise CompilationError(
                    "pipeline finished without emitting a result — "
                    "does it end with the 'emit_schedule' pass?"
                )
        except InfeasibleError as error:
            result = CompilationResult(success=False, message=str(error))
        result.compile_seconds = time.perf_counter() - start
        result.pass_trace = unit.trace()
        result.stage_timings = self._stage_timings(unit)
        result.stage_timings.total = result.compile_seconds
        return result

    def _family_key(self, target) -> Tuple[str, str]:
        """``(family, unit_digest)`` of a target under this compiler."""
        if self._fingerprint is None:
            self._fingerprint = compiler_fingerprint(self)
        return (
            family_name(self._fingerprint, structure_digest(target)),
            unit_digest(target),
        )

    def _compile_incremental(self, target, start) -> CompilationResult:
        """Dispatch one compile through the snapshot store."""
        family, digest = self._family_key(target)
        kind = self._snapshots.classify(family, digest)
        if kind == "identical":
            result = self._compile_identical(family, start)
            if result is not None:
                return result
        elif kind == "delta":
            result = self._compile_delta(target, start, family)
            if result is not None:
                return result
        return self._compile_cold_commit(target, start, family, digest)

    def _compile_identical(self, family, start) -> Optional[CompilationResult]:
        """Serve an identical-digest hit from the donor's final unit."""
        unit = self._snapshots.load_final_unit(family)
        if unit is None or unit.result is None:
            return None
        result = unit.result
        result.compile_seconds = time.perf_counter() - start
        result.pass_trace = unit.trace()
        result.stage_timings = self._stage_timings(unit)
        result.stage_timings.total = result.compile_seconds
        result.incremental = {"mode": "identical", "family": family}
        return result

    def _compile_delta(self, target, start, family) -> Optional[CompilationResult]:
        """Re-enter the pipeline for a coefficient-only delta.

        Seeds the structural caches from the donor's shared blob, loads
        the donor's unit as it stood just before the re-entry pass (when
        the re-entry is not the first pass), swaps in the new target,
        and runs the remaining passes.  Returns None when any snapshot
        piece is unusable — the caller falls back to a cold compile.
        """
        passes = self._pass_manager.passes
        reentry = reentry_index(passes)
        if reentry >= len(passes):
            return None
        shared = self._snapshots.load_shared(family)
        if shared is None:
            return None
        self._seed_caches(shared)
        if reentry > 0:
            unit = self._snapshots.load_unit_state(family, reentry - 1)
            if unit is None:
                return None
            unit.target = target
            for record in unit.records:
                record.seconds = 0.0
                record.diagnostics["carried"] = True
        else:
            unit = CompilationUnit(target=target, aais=self.aais)
        self._snapshots.record_reentry(passes[reentry].name)
        result = self._run_pipeline(unit, start, start_at=reentry)
        result.incremental = {
            "mode": "delta",
            "family": family,
            "reentry_index": reentry,
            "reentry_pass": passes[reentry].name,
        }
        return result

    def _compile_cold_commit(
        self, target, start, family, digest
    ) -> CompilationResult:
        """Compile cold, snapshotting each pass, and commit the donor."""
        unit = CompilationUnit(target=target, aais=self.aais)
        blobs: List[Tuple[str, bytes]] = []

        def observer(index, compiler_pass, unit):
            blobs.append(
                (
                    compiler_pass.name,
                    pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL),
                )
            )

        result = self._run_pipeline(unit, start, observer=observer)
        if result.success and len(blobs) == len(self._pass_manager.passes):
            shared = {
                "system_key": (linear_system_key(unit), unit.fusion_key),
                "system": unit.system,
                "components": unit.components,
                "strategies": unit.strategies,
            }
            meta = {
                "unit": digest,
                "structure": structure_digest(target),
                "fingerprint": self._fingerprint,
                "passes": self.pass_names,
                "reentry": reentry_index(self._pass_manager.passes),
                "created": time.time(),
            }
            self._snapshots.commit(
                family,
                meta,
                blobs,
                pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL),
            )
        return result

    def _seed_caches(self, shared) -> None:
        """Install a donor's structural state into the in-memory caches."""
        key = shared.get("system_key")
        system = shared.get("system")
        if key is not None and system is not None and self.system_cache_size > 0:
            cache_key = tuple(key)
            with self._system_cache_lock:
                if cache_key not in self._system_cache:
                    self._system_cache[cache_key] = system
        if self._partition is None and shared.get("components") is not None:
            self._strategies = list(shared["strategies"])
            self._partition = list(shared["components"])

    def explain_at_pass(self, target, pass_name: str) -> Dict[str, object]:
        """The compilation unit's state right after one pass — time travel.

        Serves the state from the snapshot store when the exact target
        is snapshotted (source ``"snapshot"``); otherwise replays the
        pipeline in memory and captures the state at the requested pass
        (source ``"replay"``).  Backs ``repro compile --explain
        --at-pass <name>`` and the miscompile-bisection recipe in
        ``docs/compilation.md``.

        Parameters
        ----------
        target:
            The piecewise-constant target to inspect.
        pass_name:
            Registry name of the pass to stop after; must be in this
            compiler's pipeline.

        Returns
        -------
        dict
            JSON-serializable state summary (see
            :func:`~repro.core.pipeline.delta.describe_unit_state`).

        Raises
        ------
        repro.errors.CompilationError
            On an unknown pass name, or when the pipeline fails before
            reaching the requested pass.
        """
        names = self.pass_names
        if pass_name not in names:
            raise CompilationError(
                f"unknown pass {pass_name!r}; this pipeline runs {names}"
            )
        index = names.index(pass_name)
        if self._snapshots is not None:
            family, digest = self._family_key(target)
            meta = self._snapshots.read_meta(family)
            if (
                meta is not None
                and meta.get("unit") == digest
                and meta.get("passes") == names
            ):
                unit = self._snapshots.load_unit_state(family, index)
                if unit is not None:
                    return describe_unit_state(unit, index, source="snapshot")

        captured: Dict[str, CompilationUnit] = {}

        def observer(i, compiler_pass, unit):
            if i == index:
                captured["unit"] = pickle.loads(
                    pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL)
                )

        try:
            self._pass_manager.run(
                CompilationUnit(target=target, aais=self.aais),
                self,
                observer=observer,
            )
        except InfeasibleError:
            pass
        if "unit" not in captured:
            raise CompilationError(
                f"pipeline failed before reaching pass {pass_name!r}; "
                "run with --explain for the partial trace"
            )
        return describe_unit_state(captured["unit"], index, source="replay")

    def snapshot_stats(self) -> Optional[Dict[str, object]]:
        """This compiler's snapshot-store statistics (None when disabled)."""
        if self._snapshots is None:
            return None
        return self._snapshots.stats()

    # ------------------------------------------------------------------
    # Structural caches (the pass-level cache layer)
    # ------------------------------------------------------------------
    def shared_system(
        self, key: tuple, channels, fusion_key=None
    ) -> Tuple[GlobalLinearSystem, bool]:
        """The global linear system for a target term structure.

        Keyed on the deduplicated, sorted term set plus the active
        fusion fingerprint: every target whose segments touch the same
        (fused) Pauli terms shares one system — and with it the
        assembled matrix and its cached block plan.

        Returns
        -------
        tuple
            ``(system, cache_hit)``.
        """
        cache_key = (key, fusion_key)
        if self.system_cache_size <= 0:
            return GlobalLinearSystem(channels, extra_terms=key), False
        with self._system_cache_lock:
            system = self._system_cache.get(cache_key)
            if system is not None:
                self._system_cache.move_to_end(cache_key)
                self._system_cache_hits += 1
                return system, True
            self._system_cache_misses += 1
        system = GlobalLinearSystem(channels, extra_terms=key)
        with self._system_cache_lock:
            self._system_cache[cache_key] = system
            while len(self._system_cache) > self.system_cache_size:
                self._system_cache.popitem(last=False)
                self._system_cache_evictions += 1
        return system, False

    def shared_partition(self) -> Tuple[list, list, bool]:
        """The memoized channel partition and solver strategies.

        Returns
        -------
        tuple
            ``(components, strategies, cache_hit)``.
        """
        # Publish strategies before partition: concurrent readers test
        # _partition, so under the GIL they can never observe it set
        # while _strategies is still None (worst case both threads
        # compute, which is benign — the results are identical).
        if self._partition is None:
            self._partition_misses += 1
            partition = list(partition_channels(self.aais.channels))
            strategies = [self._select_strategy(c) for c in partition]
            self._strategies = strategies
            self._partition = partition
            return self._partition, list(self._strategies), False
        self._partition_hits += 1
        return self._partition, list(self._strategies), True

    def system_cache_stats(self) -> Dict[str, int]:
        """Counters of the cross-compile linear-system LRU cache.

        ``hits``/``misses`` count lookups, ``size`` the systems
        currently held, ``capacity`` the LRU cap, and ``evictions`` how
        many systems the cap has pushed out — nonzero evictions under a
        long sweep mean the cap (``system_cache_size``) is doing its
        job of bounding memory.
        """
        return {
            "hits": self._system_cache_hits,
            "misses": self._system_cache_misses,
            "size": len(self._system_cache),
            "capacity": self.system_cache_size,
            "evictions": self._system_cache_evictions,
        }

    def pass_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters of every pass-level structural cache.

        The ``build_linear_system`` pass is backed by the linear-system
        LRU (see :meth:`system_cache_stats`); the ``partition`` pass by
        the per-compiler partition memo.  With a snapshot store
        configured, a ``snapshot`` bucket carries its statistics too
        (see :meth:`~repro.core.pipeline.snapshot.SnapshotStore.stats`).
        """
        stats = {
            "linear_system": self.system_cache_stats(),
            "partition": {
                "hits": self._partition_hits,
                "misses": self._partition_misses,
            },
        }
        if self._snapshots is not None:
            stats["snapshot"] = self._snapshots.stats()
        return stats

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _select_strategy(self, component) -> LocalSolverStrategy:
        if self.use_analytic_solvers:
            return select_strategy(component)
        from repro.core.local_solvers import GenericStrategy

        return GenericStrategy(component)

    def _stage_timings(self, unit: CompilationUnit) -> StageTimings:
        """Charge per-pass wall times to the paper's stage buckets."""
        timings = StageTimings()
        for record in unit.records:
            stage = _PASS_STAGE.get(record.name)
            if stage is None:
                continue
            seconds = record.seconds
            if record.name == "refinement":
                lp_seconds = min(unit.refinement_seconds, seconds)
                timings.refinement += lp_seconds
                seconds -= lp_seconds
            setattr(timings, stage, getattr(timings, stage) + seconds)
        return timings
