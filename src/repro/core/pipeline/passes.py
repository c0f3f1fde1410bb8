"""The QTurbo compilation stages, expressed as pipeline passes.

The default pipeline re-expresses the former monolithic
``QTurboCompiler._compile`` as six passes over a
:class:`~repro.core.pipeline.unit.CompilationUnit`:

========================  ====================================================
pass                      paper stage
========================  ====================================================
``build_linear_system``   global linear system + per-segment solves (§4.1)
``partition``             localized mixed systems (§4.2)
``time_optimization``     bottleneck evolution times (§5.1)
``fixed_solve``           runtime-fixed solve + segment times (§5.2, §5.3)
``refinement``            dynamic re-solve, optional L1 refinement (§6.2)
``emit_schedule``         schedule emission, validation, error budget
========================  ====================================================

Two opt-in optimization passes ride the same seam:

* :class:`TermFusionPass` (``term_fusion``) prunes dynamic-only channel
  groups the target never exercises and merges Pauli-term rows the
  channels drive in exact lockstep — shrinking the linear system for
  dense targets before any solve runs.
* :class:`ScheduleCompactionPass` (``schedule_compaction``) drops
  segments whose realized Hamiltonian is identically zero before the
  schedule is emitted.

Both change the error *accounting* of the result (never the validity of
the emitted schedule), so neither is part of the default pipeline: the
default pipeline is bit-identical to the pre-pipeline compiler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.linear_system import GlobalLinearSystem, l1_norm
from repro.core.local_solvers import LocalSolution, LocalSolverStrategy
from repro.core.pipeline.manager import CompilerPass
from repro.core.pipeline.unit import CompilationUnit
from repro.core.refinement import refine_dynamic_alphas
from repro.core.result import SegmentSolution
from repro.core.time_optimizer import optimize_evolution_time
from repro.errors import CompilationError, InfeasibleError
from repro.hamiltonian.pauli import PauliString, pauli_order_key
from repro.pulse.schedule import PulseSchedule, PulseSegment, is_null_segment

__all__ = [
    "BuildLinearSystemPass",
    "PartitionPass",
    "TimeOptimizationPass",
    "FixedSolvePass",
    "RefinementPass",
    "EmitSchedulePass",
    "TermFusionPass",
    "ScheduleCompactionPass",
    "FusionPlan",
    "linear_system_key",
]

_ZERO = 1e-12


# ----------------------------------------------------------------------
# Stage helpers (ported verbatim from the pre-pipeline compiler)
# ----------------------------------------------------------------------
def _bottleneck_time(
    strategies: Sequence[LocalSolverStrategy],
    alphas: Mapping[str, float],
    t_floor: float,
) -> float:
    """The slowest component's minimum feasible time (§5.1)."""
    if not strategies:
        return t_floor
    outcome = optimize_evolution_time(strategies, alphas, t_floor=t_floor)
    return outcome.t_sim


def _anchor_segment(
    fixed_strategies: Sequence[LocalSolverStrategy],
    linear_solutions: Sequence,
    t_all: Sequence[float],
) -> int:
    """The segment with the smallest required fixed amplitudes (§5.3).

    Per-time amplitudes can be lowered (by stretching a segment's
    evolution time) but never raised, so the positions must realize the
    smallest β set.
    """
    best_index = 0
    best_beta = math.inf
    for index, (solution, t_seg) in enumerate(zip(linear_solutions, t_all)):
        beta = 0.0
        for strategy in fixed_strategies:
            for channel in strategy.component.channels:
                beta = max(beta, abs(solution.alphas[channel.name]) / t_seg)
        if beta < best_beta - _ZERO:
            best_beta = beta
            best_index = index
    return best_index


def _solve_fixed(
    fixed_strategies: Sequence[LocalSolverStrategy],
    alphas: Mapping[str, float],
    t_anchor: float,
    feasibility_growth: float,
    max_feasibility_iters: int,
) -> Tuple[Dict[str, float], Dict[int, LocalSolution], int, List[str]]:
    """Solve fixed components, stretching time until feasible (§5.2)."""
    t_current = t_anchor
    last_solutions: Dict[int, LocalSolution] = {}
    for iteration in range(max_feasibility_iters + 1):
        values: Dict[str, float] = {}
        solutions: Dict[int, LocalSolution] = {}
        feasible = True
        for k, strategy in enumerate(fixed_strategies):
            expressions = {
                channel.name: alphas[channel.name] / t_current
                for channel in strategy.component.channels
            }
            solution = strategy.solve_expressions(expressions)
            solutions[k] = solution
            values.update(solution.values)
            if not solution.feasible:
                feasible = False
        last_solutions = solutions
        if feasible:
            return values, solutions, iteration, []
        t_current *= feasibility_growth
    problems = [
        problem
        for solution in last_solutions.values()
        for problem in solution.problems
    ]
    raise InfeasibleError(
        "runtime-fixed variables violate hardware constraints even "
        f"after {max_feasibility_iters} time stretches: "
        + "; ".join(problems[:5])
    )


def _segment_time(
    fixed_strategies: Sequence[LocalSolverStrategy],
    fixed_solutions: Mapping[int, LocalSolution],
    alphas: Mapping[str, float],
    t_dynamic: float,
    t_floor: float,
) -> float:
    """Final evolution time of a segment.

    With positions frozen, the realized fixed expressions e_c are
    constants; the best-fit time matching e_c·T ≈ α_c is the
    amplitude-weighted least-squares solution, floored by the dynamic
    bottleneck.
    """
    numerator = 0.0
    denominator = 0.0
    for index, _strategy in enumerate(fixed_strategies):
        solution = fixed_solutions[index]
        for name, expr in solution.achieved_expressions.items():
            numerator += expr * alphas[name]
            denominator += expr * expr
    t_fit = numerator / denominator if denominator > _ZERO else 0.0
    return max(t_dynamic, t_fit, t_floor)


def _linear_residual(
    system: GlobalLinearSystem,
    alphas: Mapping[str, float],
    b_target: Mapping[PauliString, float],
) -> float:
    """``||M α − b||₁`` for an arbitrary α assignment."""
    return float(np.abs(system.residual_vector(alphas, b_target)).sum())


def linear_system_key(unit: CompilationUnit) -> Tuple[PauliString, ...]:
    """The shared-system cache key for a unit's target.

    The sorted set of non-identity target terms across every segment,
    mapped through the unit's fusion plan when one is installed — the
    same key :class:`BuildLinearSystemPass` uses to fetch or build the
    :class:`~repro.core.linear_system.GlobalLinearSystem`.
    """
    extra_terms: List[PauliString] = []
    for segment in unit.target.segments:
        extra_terms.extend(segment.hamiltonian.terms)
    terms = {t for t in extra_terms if not t.is_identity}
    key = tuple(sorted(terms, key=pauli_order_key))
    if unit.fusion_plan is not None:
        mapped = {unit.fusion_plan.map_term(t) for t in key}
        key = tuple(sorted(mapped, key=pauli_order_key))
    return key


# ----------------------------------------------------------------------
# Stage passes
# ----------------------------------------------------------------------
class BuildLinearSystemPass(CompilerPass):
    """Stage 1 (§4.1): the global linear system and per-segment solves.

    Checks the target fits the register, assembles (or fetches from the
    compiler's cross-compile cache) the
    :class:`~repro.core.linear_system.GlobalLinearSystem`, builds the
    per-segment right-hand sides ``A_tar × T_tar``, and solves each.
    When a :class:`TermFusionPass` ran earlier, the fused channel views
    and right-hand sides are used instead, and the pruned channels'
    synthesized variables are pinned to zero.

    Targets with the same term structure share the matrix and its block
    plan through the compiler's system cache; only the right-hand sides
    are rebuilt.  Diagnostics name the solve that ran:
    ``solver="lsq_linear"`` for sign-constrained systems, with
    ``bounded_path`` naming how each segment was solved (``unbounded``,
    ``trf_exact`` or ``trf_lsmr``; distinct paths joined by ``+`` in
    segment order), otherwise ``solver="blocks"`` with the plan's
    ``singleton_blocks`` and ``coupled_blocks`` counts.
    """

    name = "build_linear_system"

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Build and solve the global linear system for every segment."""
        target = unit.target
        needed = target.num_qubits()
        if needed > context.aais.num_sites:
            raise CompilationError(
                f"target touches {needed} qubits but the AAIS has only "
                f"{context.aais.num_sites} sites"
            )
        plan = unit.fusion_plan
        key = linear_system_key(unit)
        channels = (
            unit.system_channels
            if unit.system_channels is not None
            else context.aais.channels
        )
        system, hit = context.shared_system(key, channels, unit.fusion_key)
        self.mark_cache(hit)
        unit.system = system

        b_targets = [
            {
                term: coeff * segment.duration
                for term, coeff in segment.hamiltonian.terms.items()
                if not term.is_identity
            }
            for segment in target.segments
        ]
        if plan is not None:
            b_targets = [plan.fuse_b(b) for b in b_targets]
        unit.b_targets = b_targets
        unit.linear_solutions = [system.solve(b) for b in b_targets]
        if plan is not None:
            for solution in unit.linear_solutions:
                for name in plan.pruned_channels:
                    solution.alphas[name] = 0.0

        for solution in unit.linear_solutions:
            for term in solution.unreachable_terms:
                unit.add_warning(
                    f"target term {term} is unreachable on this AAIS"
                )
        rows, cols = system.matrix.shape
        if system.is_bounded:
            paths = dict.fromkeys(
                s.bounded_path for s in unit.linear_solutions
            )
            solve = {"solver": "lsq_linear", "bounded_path": "+".join(paths)}
        else:
            blocks = system.block_plan()
            solve = {
                "solver": "blocks",
                "singleton_blocks": blocks.singleton_blocks,
                "coupled_blocks": blocks.coupled_blocks,
            }
        self.record(
            rows=rows,
            cols=cols,
            segments=len(b_targets),
            residual_l1=sum(
                s.residual_l1 for s in unit.linear_solutions
            ),
            **solve,
        )
        return unit


class PartitionPass(CompilerPass):
    """Stage 2 (§4.2): localized mixed systems and solver strategies.

    The partition depends only on the AAIS channels, so the compiler
    memoizes it across compilations; this pass reads the memo and splits
    the strategies into runtime-fixed and runtime-dynamic groups.
    """

    name = "partition"

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Partition the channels and select per-component solvers."""
        components, strategies, hit = context.shared_partition()
        self.mark_cache(hit)
        unit.components = list(components)
        unit.strategies = list(strategies)
        unit.fixed_strategies = [
            s for s in strategies if s.component.is_fixed
        ]
        unit.dynamic_strategies = [
            s for s in strategies if s.component.is_dynamic
        ]
        self.record(
            components=len(components),
            fixed=len(unit.fixed_strategies),
            dynamic=len(unit.dynamic_strategies),
        )
        return unit


class TimeOptimizationPass(CompilerPass):
    """Stage 3 (§5.1): per-segment bottleneck evolution times.
    """

    name = "time_optimization"

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Compute dynamic-only and all-component bottleneck times."""
        solutions = unit.require("linear_solutions", self.name)
        t_floor = context.t_floor
        unit.t_dynamic = [
            _bottleneck_time(unit.dynamic_strategies, sol.alphas, t_floor)
            for sol in solutions
        ]
        unit.t_all = [
            max(
                t_dyn,
                _bottleneck_time(unit.fixed_strategies, sol.alphas, t_floor),
            )
            for t_dyn, sol in zip(unit.t_dynamic, solutions)
        ]
        self.record(t_bottleneck=max(unit.t_all, default=t_floor))
        return unit


class FixedSolvePass(CompilerPass):
    """Stage 4 (§5.2–5.3): runtime-fixed solve and final segment times.

    Solves atom positions once, anchored at the segment requiring the
    smallest fixed amplitudes, stretching the evolution time until the
    hardware constraints hold; then fixes each segment's final time and
    overwrites the fixed channels' synthesized targets with the values
    those positions actually achieve.
    """

    name = "fixed_solve"

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Solve fixed components and derive per-segment times."""
        solutions = unit.require("linear_solutions", self.name)
        fixed = unit.fixed_strategies
        if fixed:
            anchor = _anchor_segment(fixed, solutions, unit.t_all)
            (
                unit.fixed_values,
                unit.fixed_solutions,
                unit.feasibility_iterations,
                fixed_warnings,
            ) = _solve_fixed(
                fixed,
                solutions[anchor].alphas,
                unit.t_all[anchor],
                context.feasibility_growth,
                context.max_feasibility_iters,
            )
            unit.warnings.extend(fixed_warnings)

        for index in range(unit.num_segments):
            alphas = dict(solutions[index].alphas)
            t_seg = _segment_time(
                fixed,
                unit.fixed_solutions,
                alphas,
                unit.t_dynamic[index],
                context.t_floor,
            )
            for strategy_index, _strategy in enumerate(fixed):
                solution = unit.fixed_solutions[strategy_index]
                for name, expr in solution.achieved_expressions.items():
                    alphas[name] = expr * t_seg
            unit.segment_times.append(t_seg)
            unit.segment_alphas.append(alphas)
        self.record(
            feasibility_iterations=unit.feasibility_iterations,
            t_exec=sum(unit.segment_times),
        )
        return unit


class RefinementPass(CompilerPass):
    """Stage 5 (§6.2): dynamic re-solve with optional L1 refinement.

    For every segment: optionally re-solve the dynamic synthesized
    targets to absorb the fixed-channel residual (the L1 linear
    program), then solve each dynamic component's amplitude variables at
    the segment's final time and accumulate the local ε₂ residuals.

    Parameters
    ----------
    apply_refinement:
        Run the refinement LP (the compiler's ``refine`` knob; the
        dynamic solve itself always runs).
    """

    name = "refinement"

    def __init__(self, apply_refinement: bool = True):
        super().__init__()
        self.apply_refinement = bool(apply_refinement)

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Refine dynamic targets and solve dynamic amplitudes."""
        import time as _time

        system = unit.require("system", self.name)
        refined_any = False
        for index in range(len(unit.segment_times)):
            alphas = unit.segment_alphas[index]
            t_seg = unit.segment_times[index]
            if (
                self.apply_refinement
                and unit.fixed_strategies
                and unit.dynamic_strategies
            ):
                tick = _time.perf_counter()
                dynamic_channels = [
                    c
                    for s in unit.dynamic_strategies
                    for c in s.component.channels
                    if c.name in system.channel_names
                ]
                refined = refine_dynamic_alphas(
                    system,
                    unit.b_targets[index],
                    alphas,
                    dynamic_channels,
                    t_seg,
                )
                unit.refinement_seconds += _time.perf_counter() - tick
                if refined.applied:
                    alphas = refined.alphas
                    unit.segment_alphas[index] = alphas
                    refined_any = True

            dynamic_values: Dict[str, float] = {}
            eps2_segment = 0.0
            for strategy in unit.dynamic_strategies:
                solution = strategy.solve(alphas, t_seg)
                dynamic_values.update(solution.values)
                eps2_segment += solution.alpha_residual_l1(alphas, t_seg)
            unit.segment_dynamic_values.append(dynamic_values)
            unit.segment_eps2.append(eps2_segment)
        unit.refinement_applied = refined_any
        self.record(
            applied=refined_any,
            lp_seconds=unit.refinement_seconds,
            eps2=sum(unit.segment_eps2),
        )
        return unit


class EmitSchedulePass(CompilerPass):
    """Final stage: assemble segment solutions, schedule, and result.

    Evaluates every channel at the solved variable assignment, computes
    the realized coefficient vectors and the ε₁/ε₂ error budget, builds
    the :class:`~repro.pulse.schedule.PulseSchedule`, validates it
    against the hardware constraints, and writes the
    :class:`~repro.core.result.CompilationResult` into the unit.
    """

    name = "emit_schedule"

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Emit the pulse schedule and the compilation result."""
        from repro.core.error_bounds import ErrorBudget
        from repro.core.result import CompilationResult

        system = unit.require("system", self.name)
        channels = context.aais.channels
        eps1_total = 0.0
        for index in range(len(unit.segment_times)):
            t_seg = unit.segment_times[index]
            alphas = unit.segment_alphas[index]
            dynamic_values = unit.segment_dynamic_values[index]
            values = dict(unit.fixed_values)
            values.update(dynamic_values)
            achieved = {
                channel.name: channel.evaluate(values) * t_seg
                for channel in channels
            }
            eps1_total += _linear_residual(
                system, alphas, unit.b_targets[index]
            )
            unit.segments.append(
                SegmentSolution(
                    duration=t_seg,
                    values=values,
                    alpha_targets=alphas,
                    achieved_alphas=achieved,
                    b_target=unit.b_targets[index],
                    b_sim=system.achieved_b(achieved),
                )
            )
            unit.pulse_segments.append(
                PulseSegment(duration=t_seg, dynamic_values=dynamic_values)
            )
        unit.eps1_total = eps1_total
        unit.eps2_total = sum(unit.segment_eps2)

        schedule = PulseSchedule(
            context.aais,
            fixed_values=unit.fixed_values,
            segments=unit.pulse_segments,
        )
        unit.schedule = schedule
        unit.warnings.extend(schedule.validate())

        budget = ErrorBudget(
            matrix_l1_norm=system.matrix_l1_norm(),
            linear_residual=unit.eps1_total,
            local_residuals=[unit.eps2_total],
        )
        unit.result = CompilationResult(
            success=True,
            message="ok",
            segments=unit.segments,
            schedule=schedule,
            num_components=len(unit.components),
            error_budget=budget,
            refinement_applied=unit.refinement_applied,
            feasibility_iterations=unit.feasibility_iterations,
            warnings=list(unit.warnings),
        )
        self.record(
            segments=len(unit.pulse_segments),
            eps1=unit.eps1_total,
            eps2=unit.eps2_total,
        )
        return unit


# ----------------------------------------------------------------------
# Optimization passes (opt-in)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusionPlan:
    """A validated term-fusion rewrite of the linear system.

    Attributes
    ----------
    groups:
        One entry per fused row group:
        ``(representative, ((member, λ), ...), scale)`` where every
        channel drives ``member`` with exactly ``λ`` times its
        coefficient on ``representative`` and
        ``scale = sqrt(Σ λ²)`` preserves the least-squares optimum.
    pruned_channels:
        Names of runtime-dynamic channels whose term–channel component
        contains no targeted term; their synthesized variables are
        pinned to zero instead of solved.
    pruned_terms:
        The reachable-but-untargeted terms those channels drove.
    """

    groups: Tuple[
        Tuple[PauliString, Tuple[Tuple[PauliString, float], ...], float],
        ...,
    ]
    pruned_channels: Tuple[str, ...]
    pruned_terms: Tuple[PauliString, ...]

    @property
    def cache_key(self) -> tuple:
        """Hashable fingerprint for the shared-system cache."""
        return (self.groups, self.pruned_channels)

    @property
    def is_noop(self) -> bool:
        """True when the plan changes nothing."""
        return not self.groups and not self.pruned_channels

    @functools.cached_property
    def _member_index(
        self,
    ) -> Dict[PauliString, Tuple[PauliString, float, float]]:
        """``member → (representative, λ, scale)``, computed once."""
        index: Dict[PauliString, Tuple[PauliString, float, float]] = {}
        for representative, members, scale in self.groups:
            for member, lam in members:
                index[member] = (representative, lam, scale)
        return index

    def map_term(self, term: PauliString) -> PauliString:
        """The row a target term lands on after fusion."""
        mapped = self._member_index.get(term)
        return term if mapped is None else mapped[0]

    def fuse_b(
        self, b_target: Mapping[PauliString, float]
    ) -> Dict[PauliString, float]:
        """Rewrite a right-hand side into the fused row basis.

        A group's fused target is ``Σ λ_k b_k / scale`` — exactly the
        value that makes the reduced least-squares problem share its
        optimum with the original.
        """
        index = self._member_index
        fused: Dict[PauliString, float] = {}
        for term, value in b_target.items():
            mapped = index.get(term)
            if mapped is None:
                fused[term] = fused.get(term, 0.0) + value
            else:
                representative, lam, scale = mapped
                fused[representative] = (
                    fused.get(representative, 0.0) + lam * value / scale
                )
        return fused


class _FusedChannelView:
    """A channel as seen by the fused linear system.

    Delegates identity and bounds to the wrapped channel but rewrites
    :meth:`dynamics_terms` into the fused row basis: group members
    collapse onto the representative with the group's scale applied.
    Only the linear system reads these views — partitioning, local
    solvers, and schedule emission keep the original channels.
    """

    def __init__(self, channel, plan: FusionPlan):
        self._channel = channel
        self._plan = plan
        fused: Dict[PauliString, float] = {}
        member_index = plan._member_index
        for term, coeff in channel.dynamics_terms().items():
            mapped = member_index.get(term)
            if mapped is None:
                fused[term] = fused.get(term, 0.0) + coeff
            else:
                representative, lam, scale = mapped
                # Proportionality: coeff == λ · c_rep, so the fused
                # row's entry is c_rep · scale == coeff · scale / λ.
                fused.setdefault(representative, coeff * scale / lam)
        self._fused_terms = fused

    @property
    def name(self) -> str:
        """The wrapped channel's name (α keys are unchanged)."""
        return self._channel.name

    def dynamics_terms(self) -> Dict[PauliString, float]:
        """The channel's coefficient pattern in the fused row basis."""
        return dict(self._fused_terms)

    def alpha_bounds(self) -> Tuple[float, float]:
        """The wrapped channel's synthesized-variable bounds."""
        return self._channel.alpha_bounds()

    def __repr__(self) -> str:
        return f"_FusedChannelView({self._channel.name})"


class TermFusionPass(CompilerPass):
    """Shrink the linear system before any solve runs (opt-in).

    Two rewrites, both computed from the channel/target structure alone:

    1. **Dead-component pruning** — connected components of the
       term–channel bipartite graph that contain no targeted term and
       only runtime-dynamic channels are removed from the system; their
       synthesized variables are exactly zero at any optimum (zero
       amplitude realizes them, and their rows have zero targets), so
       the reduced solve shares its optimum with the full one.
       Runtime-fixed channels (e.g. Van der Waals interactions) are
       never pruned: their physics is always on.
    2. **Proportional-row fusion** — rows driven in exact lockstep by
       every channel (``row_j = λ · row_i``) are merged into one
       rescaled row with target ``Σ λ_k b_k / √(Σ λ_k²)``, which
       preserves the least-squares optimum.

    The fused system changes how residuals are *attributed* (fused rows
    report a combined residual), so the pass is opt-in rather than part
    of the default pipeline.

    The plan is a pure function of the channels and the *set* of
    targeted terms (built with the same ``> 1e-12`` drop threshold
    Hamiltonian construction applies).

    Parameters
    ----------
    tol:
        Relative tolerance for the proportionality test.
    """

    name = "term_fusion"

    #: Plans are pure functions of (channels, targeted terms); channels
    #: are fixed per compiler, so a small per-pass memo keyed on the
    #: targeted term set makes repeat compilations skip the graph walk.
    _PLAN_CACHE_SIZE = 32

    def __init__(self, tol: float = 1e-9):
        super().__init__()
        self.tol = float(tol)
        self._plan_cache: "Dict[frozenset, Tuple[FusionPlan, tuple]]" = {}

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Compute (or recall) and install the fusion plan for this target."""
        channels = context.aais.channels
        targeted = frozenset(
            term
            for segment in unit.target.segments
            for term, coeff in segment.hamiltonian.terms.items()
            if not term.is_identity and abs(coeff) > _ZERO
        )
        cached = self._plan_cache.get(targeted)
        self.mark_cache(cached is not None)
        if cached is None:
            plan = self._build_plan(channels, targeted)
            fused_channels = tuple(
                _FusedChannelView(c, plan) if plan.groups else c
                for c in channels
                if c.name not in set(plan.pruned_channels)
            )
            cached = (plan, fused_channels)
            if len(self._plan_cache) >= self._PLAN_CACHE_SIZE:
                self._plan_cache.clear()
            self._plan_cache[targeted] = cached
        plan, fused_channels = cached
        self.record(
            pruned_channels=len(plan.pruned_channels),
            pruned_terms=len(plan.pruned_terms),
            fused_groups=len(plan.groups),
            fused_terms=sum(len(members) - 1 for _, members, _ in plan.groups),
        )
        if plan.is_noop:
            return unit
        unit.fusion_plan = plan
        unit.fusion_key = plan.cache_key
        unit.system_channels = fused_channels
        return unit

    # ------------------------------------------------------------------
    def _build_plan(self, channels, targeted) -> FusionPlan:
        """Derive the fusion plan from the channel/target structure."""
        pruned_names, pruned_terms = self._dead_components(
            channels, targeted
        )
        live_channels = [
            c for c in channels if c.name not in pruned_names
        ]
        groups = self._proportional_groups(live_channels, targeted)
        return FusionPlan(
            groups=groups,
            pruned_channels=tuple(sorted(pruned_names)),
            pruned_terms=tuple(sorted(pruned_terms, key=pauli_order_key)),
        )

    # ------------------------------------------------------------------
    def _dead_components(self, channels, targeted):
        """Channel groups the target never exercises (dynamic only)."""
        from repro.core.partition import UnionFind

        forest = UnionFind()
        term_key = {}
        for channel in channels:
            forest.add(channel.name)
            for term in channel.dynamics_terms():
                key = f"term::{term}"
                term_key[key] = term
                forest.add(key)
                forest.union(channel.name, key)
        live_roots = set()
        for channel in channels:
            if channel.is_fixed:
                live_roots.add(forest.find(channel.name))
        for key, term in term_key.items():
            if term in targeted:
                live_roots.add(forest.find(key))
        pruned_names = {
            channel.name
            for channel in channels
            if forest.find(channel.name) not in live_roots
        }
        pruned_terms = {
            term
            for key, term in term_key.items()
            if forest.find(key) not in live_roots
        }
        return pruned_names, pruned_terms

    def _proportional_groups(self, channels, targeted):
        """Group rows the live channels drive in exact lockstep."""
        rows: Dict[PauliString, Dict[int, float]] = {}
        for col, channel in enumerate(channels):
            for term, coeff in channel.dynamics_terms().items():
                rows.setdefault(term, {})[col] = coeff
        for term in targeted:
            rows.setdefault(term, {})

        by_signature: Dict[tuple, List[Tuple[PauliString, float]]] = {}
        for term in sorted(rows, key=pauli_order_key):
            entries = rows[term]
            if not entries:
                continue  # unreachable targeted term: keep its zero row
            support = tuple(sorted(entries))
            pivot = entries[support[0]]
            normalized = tuple(
                (col, self._quantize(entries[col] / pivot))
                for col in support
            )
            by_signature.setdefault((support, normalized), []).append(
                (term, pivot)
            )

        groups = []
        for members in by_signature.values():
            if len(members) < 2:
                continue
            rep_term, rep_pivot = members[0]
            lams = [(term, pivot / rep_pivot) for term, pivot in members]
            scale = math.sqrt(sum(lam * lam for _, lam in lams))
            groups.append((rep_term, tuple(lams), scale))
        return tuple(groups)

    def _quantize(self, ratio: float) -> float:
        """Round a coefficient ratio so equal-within-``tol`` ratios match."""
        if ratio == 0.0:
            return 0.0
        digits = max(1, round(-math.log10(self.tol)))
        magnitude = 10 ** (math.floor(math.log10(abs(ratio))) - digits)
        return round(ratio / magnitude) * magnitude


class ScheduleCompactionPass(CompilerPass):
    """Drop segments whose realized Hamiltonian is identically zero.

    A segment whose every channel evaluates to (numerically) zero
    amplitude — and whose target coefficient vector is itself zero —
    contributes only an identity evolution of length ``t_floor``;
    dropping it preserves the program's unitary while shortening the
    schedule, its validation, and every downstream simulation.  On
    devices with always-on fixed interactions (Rydberg Van der Waals)
    no segment ever qualifies, which is exactly the safe behavior.

    The pass runs after :class:`RefinementPass` (so solved dynamic
    values exist) and before :class:`EmitSchedulePass`.  At least one
    segment is always kept — an all-idle program still needs a
    schedule.

    Parameters
    ----------
    tol:
        Amplitude threshold below which a channel counts as silent.
    """

    name = "schedule_compaction"

    def __init__(self, tol: float = 1e-9):
        super().__init__()
        self.tol = float(tol)

    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Remove null segments from the per-segment solved state."""
        unit.require("segment_times", self.name)
        channels = context.aais.channels
        keep: List[int] = []
        for index in range(len(unit.segment_times)):
            values = dict(unit.fixed_values)
            values.update(unit.segment_dynamic_values[index])
            null = is_null_segment(
                channels, values, tol=self.tol
            ) and l1_norm(unit.b_targets[index]) <= self.tol
            if not null:
                keep.append(index)
        if not keep:
            keep = [0]
        dropped = len(unit.segment_times) - len(keep)
        if dropped:
            for field_name in (
                "segment_times",
                "segment_alphas",
                "segment_dynamic_values",
                "segment_eps2",
                "b_targets",
                "linear_solutions",
                "t_dynamic",
                "t_all",
            ):
                values = getattr(unit, field_name)
                setattr(
                    unit, field_name, [values[i] for i in keep]
                )
        self.record(
            segments_dropped=dropped, segments_kept=len(keep)
        )
        return unit
