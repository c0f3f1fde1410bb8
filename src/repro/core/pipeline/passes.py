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

One opt-in optimization pass rides the same seam:
:class:`ScheduleCompactionPass` (``schedule_compaction``) drops segments
whose realized Hamiltonian is identically zero before the schedule is
emitted.  It changes the error *accounting* of the result (never the
validity of the emitted schedule), so it is not part of the default
pipeline: the default pipeline is bit-identical to the pre-pipeline
compiler.
"""

from __future__ import annotations

import math
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
    "ScheduleCompactionPass",
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

    The sorted set of non-identity target terms across every segment —
    the key :class:`BuildLinearSystemPass` uses to fetch or build the
    :class:`~repro.core.linear_system.GlobalLinearSystem`.
    """
    extra_terms: List[PauliString] = []
    for segment in unit.target.segments:
        extra_terms.extend(segment.hamiltonian.terms)
    terms = {t for t in extra_terms if not t.is_identity}
    return tuple(sorted(terms, key=pauli_order_key))


# ----------------------------------------------------------------------
# Stage passes
# ----------------------------------------------------------------------
class BuildLinearSystemPass(CompilerPass):
    """Stage 1 (§4.1): the global linear system and per-segment solves.

    Checks the target fits the register, assembles (or fetches from the
    compiler's cross-compile cache) the
    :class:`~repro.core.linear_system.GlobalLinearSystem`, builds the
    per-segment right-hand sides ``A_tar × T_tar``, and solves each.

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
        key = linear_system_key(unit)
        system, hit = context.shared_system(key, context.aais.channels)
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
        unit.b_targets = b_targets
        unit.linear_solutions = [system.solve(b) for b in b_targets]

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
    targets to absorb the fixed-channel residual (the L1 minimization
    of :func:`~repro.core.refinement.refine_dynamic_alphas`), then solve
    each dynamic component's amplitude variables at the segment's final
    time and accumulate the local ε₂ residuals.  Diagnostics count, over
    all segments, the components of the dynamic columns solved in
    closed form (``closed_form_components``) and by a linear program
    (``lp_components``), and time the refinement (``refine_seconds``).

    Parameters
    ----------
    apply_refinement:
        Run the refinement (the compiler's ``refine`` knob; the dynamic
        solve itself always runs).
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
        closed_form = lp = 0
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
                closed_form += refined.closed_form_components
                lp += refined.lp_components
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
            closed_form_components=closed_form,
            lp_components=lp,
            refine_seconds=unit.refinement_seconds,
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
