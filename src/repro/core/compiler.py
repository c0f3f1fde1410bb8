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
from typing import Dict, List, Tuple

from repro.aais.base import AAIS
from repro.core.linear_system import GlobalLinearSystem
from repro.core.local_solvers import LocalSolverStrategy, select_strategy
from repro.core.partition import partition_channels
from repro.core.pipeline.manager import PassManager
from repro.core.pipeline.registry import (
    build_pipeline,
    normalize_passes_config,
)
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

__all__ = ["QTurboCompiler", "describe_unit_state"]

#: Stage-timing bucket each pass's wall time is charged to.
_PASS_STAGE = {
    "build_linear_system": "linear",
    "partition": "partition",
    "time_optimization": "time_optimization",
    "fixed_solve": "local_solve",
    "refinement": "local_solve",  # minus the L1 step, charged to refinement
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
        """
        fault_point("compiler.compile")
        start = time.perf_counter()
        unit = CompilationUnit(target=target, aais=self.aais)
        try:
            unit = self._pass_manager.run(unit, self)
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

    def explain_at_pass(self, target, pass_name: str) -> Dict[str, object]:
        """The compilation unit's state right after one pass.

        Replays the pipeline in memory and captures the state at the
        requested pass.  Backs ``repro compile --explain --at-pass
        <name>`` and the miscompile-bisection recipe in
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
            :func:`describe_unit_state`).

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
        return describe_unit_state(captured["unit"], index)

    # ------------------------------------------------------------------
    # Structural caches (the pass-level cache layer)
    # ------------------------------------------------------------------
    def shared_system(
        self, key: tuple, channels
    ) -> Tuple[GlobalLinearSystem, bool]:
        """The global linear system for a target term structure.

        Keyed on the deduplicated, sorted term set: every target whose
        segments touch the same Pauli terms shares one system — and with
        it the assembled matrix and its cached block plan.

        Returns
        -------
        tuple
            ``(system, cache_hit)``.
        """
        if self.system_cache_size <= 0:
            return GlobalLinearSystem(channels, extra_terms=key), False
        with self._system_cache_lock:
            system = self._system_cache.get(key)
            if system is not None:
                self._system_cache.move_to_end(key)
                self._system_cache_hits += 1
                return system, True
            self._system_cache_misses += 1
        system = GlobalLinearSystem(channels, extra_terms=key)
        with self._system_cache_lock:
            self._system_cache[key] = system
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
        the per-compiler partition memo.
        """
        return {
            "linear_system": self.system_cache_stats(),
            "partition": {
                "hits": self._partition_hits,
                "misses": self._partition_misses,
            },
        }

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
                refine_seconds = min(unit.refinement_seconds, seconds)
                timings.refinement += refine_seconds
                seconds -= refine_seconds
            setattr(timings, stage, getattr(timings, stage) + seconds)
        return timings


def describe_unit_state(unit: CompilationUnit, index: int) -> Dict[str, object]:
    """JSON-serializable summary of a unit's state after one pass.

    Backs ``repro compile --explain --at-pass <name>``: renders which
    stage fields the pipeline prefix has populated and their headline
    values, without leaking non-serializable objects (systems, Pauli
    keys) into the CLI output.

    Parameters
    ----------
    unit:
        A :class:`~repro.core.pipeline.unit.CompilationUnit` captured
        right after pass ``index`` ran.
    index:
        Pipeline index of the inspected pass.

    Returns
    -------
    dict
        The state summary (safe for ``json.dumps``).
    """
    state: Dict[str, object] = {
        "pass_index": index,
        "source": "replay",
        "passes_run": [record.name for record in unit.records],
        "segments": unit.num_segments,
    }
    if unit.system is not None:
        rows, cols = unit.system.matrix.shape
        state["linear_system"] = {"rows": rows, "cols": cols}
    if unit.linear_solutions:
        state["linear_residual_l1"] = sum(
            solution.residual_l1 for solution in unit.linear_solutions
        )
    if unit.components:
        state["partition"] = {
            "components": len(unit.components),
            "fixed": len(unit.fixed_strategies),
            "dynamic": len(unit.dynamic_strategies),
        }
    if unit.t_all:
        state["t_all"] = [float(t) for t in unit.t_all]
    if unit.fixed_values:
        state["fixed_values"] = {
            name: float(value) for name, value in sorted(unit.fixed_values.items())
        }
        state["feasibility_iterations"] = unit.feasibility_iterations
    if unit.segment_times:
        state["segment_times"] = [float(t) for t in unit.segment_times]
    if unit.segment_eps2:
        state["eps2_total"] = float(sum(unit.segment_eps2))
        state["refinement_applied"] = unit.refinement_applied
    if unit.schedule is not None:
        state["schedule_segments"] = unit.schedule.num_segments
    if unit.result is not None:
        state["result"] = unit.result.summary()
    if unit.warnings:
        state["warnings"] = list(unit.warnings)
    return state
