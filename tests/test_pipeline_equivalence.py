"""Default pipeline ≡ the seed (pre-pipeline) compiler, bit for bit.

``_seed_compile`` below is the monolithic ``QTurboCompiler._compile``
exactly as it existed before the pass-pipeline refactor, kept as a
frozen reference implementation over the same primitives
(GlobalLinearSystem, partition_channels, local solvers, refinement).
Every registered model on every device preset must compile to the same
schedules, alphas, positions, and residuals through the default
pipeline — the refactor is a reorganization, not a behavior change.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.aais import aais_for_device
from repro.core import QTurboCompiler
from repro.core.error_bounds import ErrorBudget
from repro.core.linear_system import GlobalLinearSystem
from repro.core.partition import partition_channels
from repro.core.refinement import refine_dynamic_alphas
from repro.core.result import CompilationResult, SegmentSolution
from repro.core.local_solvers import select_strategy
from repro.core.time_optimizer import MIN_TIME_FLOOR, optimize_evolution_time
from repro.errors import InfeasibleError
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.models import build_model, build_time_dependent_model, model_names
from repro.pulse.schedule import PulseSchedule, PulseSegment

_ZERO = 1e-12

DEVICES = ("rydberg", "rydberg-1d", "aquila", "heisenberg")
QUBITS = 3

#: Models whose builders reject the default 3-qubit register.
_MIN_QUBITS = {"ising_cycle_plus": 5}


# ----------------------------------------------------------------------
# The seed compiler, frozen (verbatim port of the pre-refactor monolith)
# ----------------------------------------------------------------------
def _bottleneck_time(strategies, alphas, t_floor):
    if not strategies:
        return t_floor
    return optimize_evolution_time(strategies, alphas, t_floor=t_floor).t_sim


def _anchor_segment(fixed_strategies, linear_solutions, t_all):
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


def _solve_fixed(fixed_strategies, alphas, t_anchor, growth, max_iters):
    t_current = t_anchor
    for _iteration in range(max_iters + 1):
        values, solutions = {}, {}
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
        if feasible:
            return values, solutions, _iteration, []
        t_current *= growth
    raise InfeasibleError("seed reference: fixed solve infeasible")


def _segment_time(fixed_strategies, fixed_solutions, alphas, t_dynamic, t_floor):
    numerator = denominator = 0.0
    for index, _strategy in enumerate(fixed_strategies):
        solution = fixed_solutions[index]
        for name, expr in solution.achieved_expressions.items():
            numerator += expr * alphas[name]
            denominator += expr * expr
    t_fit = numerator / denominator if denominator > _ZERO else 0.0
    return max(t_dynamic, t_fit, t_floor)


def _seed_compile(
    aais,
    target: PiecewiseHamiltonian,
    refine: bool = True,
    t_floor: float = MIN_TIME_FLOOR,
    growth: float = 1.15,
    max_iters: int = 25,
) -> CompilationResult:
    """The pre-pipeline ``QTurboCompiler._compile``, stage by stage."""
    channels = aais.channels

    # Stage 1: global linear solves (one per segment, shared matrix).
    extra_terms = []
    for segment in target.segments:
        extra_terms.extend(segment.hamiltonian.terms)
    key = tuple(sorted({t for t in extra_terms if not t.is_identity}))
    system = GlobalLinearSystem(channels, extra_terms=key)
    b_targets = [
        {
            term: coeff * segment.duration
            for term, coeff in segment.hamiltonian.terms.items()
            if not term.is_identity
        }
        for segment in target.segments
    ]
    linear_solutions = [system.solve(b) for b in b_targets]

    warnings = []
    for solution in linear_solutions:
        for term in solution.unreachable_terms:
            message = f"target term {term} is unreachable on this AAIS"
            if message not in warnings:
                warnings.append(message)

    # Stage 2: partition into localized mixed systems.
    components = list(partition_channels(channels))
    strategies = [select_strategy(c) for c in components]
    fixed_strategies = [s for s in strategies if s.component.is_fixed]
    dynamic_strategies = [s for s in strategies if s.component.is_dynamic]

    # Stage 3: per-segment bottleneck evolution times.
    t_dynamic = [
        _bottleneck_time(dynamic_strategies, sol.alphas, t_floor)
        for sol in linear_solutions
    ]
    t_all = [
        max(t_dyn, _bottleneck_time(fixed_strategies, sol.alphas, t_floor))
        for t_dyn, sol in zip(t_dynamic, linear_solutions)
    ]

    # Stage 4: runtime-fixed solve, shared across segments.
    fixed_values, fixed_solutions = {}, {}
    feasibility_iterations = 0
    if fixed_strategies:
        anchor = _anchor_segment(fixed_strategies, linear_solutions, t_all)
        (
            fixed_values,
            fixed_solutions,
            feasibility_iterations,
            fixed_warnings,
        ) = _solve_fixed(
            fixed_strategies,
            linear_solutions[anchor].alphas,
            t_all[anchor],
            growth,
            max_iters,
        )
        warnings.extend(fixed_warnings)

    # Stage 4b: per-segment final times and dynamic solves.
    segments, pulse_segments = [], []
    eps2_total = eps1_total = 0.0
    refinement_applied = False
    for index, _segment in enumerate(target.segments):
        alphas = dict(linear_solutions[index].alphas)
        t_seg = _segment_time(
            fixed_strategies, fixed_solutions, alphas, t_dynamic[index],
            t_floor,
        )
        for strategy_index, _strategy in enumerate(fixed_strategies):
            solution = fixed_solutions[strategy_index]
            for name, expr in solution.achieved_expressions.items():
                alphas[name] = expr * t_seg

        if refine and fixed_strategies and dynamic_strategies:
            dynamic_channels = [
                c for s in dynamic_strategies for c in s.component.channels
            ]
            refined = refine_dynamic_alphas(
                system, b_targets[index], alphas, dynamic_channels, t_seg
            )
            if refined.applied:
                alphas = refined.alphas
                refinement_applied = True

        dynamic_values = {}
        eps2_segment = 0.0
        for strategy in dynamic_strategies:
            solution = strategy.solve(alphas, t_seg)
            dynamic_values.update(solution.values)
            eps2_segment += solution.alpha_residual_l1(alphas, t_seg)

        values = dict(fixed_values)
        values.update(dynamic_values)
        achieved = {
            channel.name: channel.evaluate(values) * t_seg
            for channel in channels
        }
        eps1_total += float(
            np.abs(system.residual_vector(alphas, b_targets[index])).sum()
        )
        eps2_total += eps2_segment

        segments.append(
            SegmentSolution(
                duration=t_seg,
                values=values,
                alpha_targets=alphas,
                achieved_alphas=achieved,
                b_target=b_targets[index],
                b_sim=system.achieved_b(achieved),
            )
        )
        pulse_segments.append(
            PulseSegment(duration=t_seg, dynamic_values=dynamic_values)
        )

    schedule = PulseSchedule(
        aais, fixed_values=fixed_values, segments=pulse_segments
    )
    warnings.extend(schedule.validate())
    budget = ErrorBudget(
        matrix_l1_norm=system.matrix_l1_norm(),
        linear_residual=eps1_total,
        local_residuals=[eps2_total],
    )
    return CompilationResult(
        success=True,
        message="ok",
        segments=segments,
        schedule=schedule,
        num_components=len(components),
        error_budget=budget,
        refinement_applied=refinement_applied,
        feasibility_iterations=feasibility_iterations,
        warnings=warnings,
    )


# ----------------------------------------------------------------------
# Equivalence checks
# ----------------------------------------------------------------------
def _assert_identical(pipeline: CompilationResult, seed: CompilationResult):
    """Exact (bit-level) equality of everything the compiler decides."""
    assert pipeline.success == seed.success
    assert pipeline.num_components == seed.num_components
    assert pipeline.refinement_applied == seed.refinement_applied
    assert pipeline.feasibility_iterations == seed.feasibility_iterations
    assert pipeline.warnings == seed.warnings
    assert len(pipeline.segments) == len(seed.segments)
    for ours, ref in zip(pipeline.segments, seed.segments):
        assert ours.duration == ref.duration
        assert ours.values == ref.values
        assert ours.alpha_targets == ref.alpha_targets
        assert ours.achieved_alphas == ref.achieved_alphas
        assert ours.b_target == ref.b_target
        assert ours.b_sim == ref.b_sim
    assert pipeline.schedule.fixed_values == seed.schedule.fixed_values
    assert pipeline.schedule.to_dict() == seed.schedule.to_dict()
    assert pipeline.error_budget.bound == seed.error_budget.bound
    assert (
        pipeline.error_budget.linear_residual
        == seed.error_budget.linear_residual
    )


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("model", model_names())
def test_default_pipeline_matches_seed_compiler(model, device):
    qubits = _MIN_QUBITS.get(model, QUBITS)
    target = build_model(model, qubits)
    aais = aais_for_device(device, max(qubits, target.num_qubits()))
    piecewise = PiecewiseHamiltonian.constant(target, 1.0)
    seed = _seed_compile(aais, piecewise)
    pipeline = QTurboCompiler(aais).compile_piecewise(piecewise)
    _assert_identical(pipeline, seed)


@pytest.mark.parametrize("device", ("rydberg-1d", "aquila"))
def test_default_pipeline_matches_seed_time_dependent(device):
    sweep = build_time_dependent_model("mis_chain", QUBITS, duration=1.0)
    aais = aais_for_device(device, QUBITS)
    piecewise = sweep.discretize(3)
    seed = _seed_compile(aais, piecewise)
    pipeline = QTurboCompiler(aais).compile_piecewise(piecewise)
    _assert_identical(pipeline, seed)


def test_no_refine_matches_seed():
    target = build_model("ising_chain", QUBITS)
    aais = aais_for_device("rydberg-1d", QUBITS)
    piecewise = PiecewiseHamiltonian.constant(target, 1.0)
    seed = _seed_compile(aais, piecewise, refine=False)
    pipeline = QTurboCompiler(aais, refine=False).compile_piecewise(piecewise)
    _assert_identical(pipeline, seed)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("model", model_names())
def test_delta_compile_matches_seed_compiler(model, device):
    """A coefficient-only delta on a warm compiler is bit-identical.

    The compile at t=1.0 fills the compiler's linear-system cache and
    partition memo; the point at t=1.3 drives the same nonzero terms
    with other coefficients, so it reuses both — and must still equal
    the frozen seed compiler bit for bit.
    """
    qubits = _MIN_QUBITS.get(model, QUBITS)
    target = build_model(model, qubits)
    aais = aais_for_device(device, max(qubits, target.num_qubits()))
    compiler = QTurboCompiler(aais)
    compiler.compile_piecewise(PiecewiseHamiltonian.constant(target, 1.0))
    point = PiecewiseHamiltonian.constant(target, 1.3)
    delta = compiler.compile_piecewise(point)
    assert [record.get("cache_hit") for record in delta.pass_trace[:2]] == [
        True,
        True,
    ]
    _assert_identical(delta, _seed_compile(aais, point))


# ----------------------------------------------------------------------
# Warm service store ≡ cold in-process compiler
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def warm_service(tmp_path_factory):
    """One in-process service shared by the differential sweep below."""
    from repro.service import ReproService, ServiceClient, ServiceConfig

    data_dir = tmp_path_factory.mktemp("service")
    with ReproService(ServiceConfig(port=0, data_dir=data_dir)) as service:
        yield ServiceClient(service.url)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("model", model_names())
def test_warm_service_schedule_matches_cold_compiler(
    model, device, warm_service
):
    """A schedule served from the persistent store is bit-identical to
    a cold in-process compile of the same workload.

    The first submission executes through the service's worker compiler
    and persists the result; the second must come back from the
    store (``source == "store"``) — and both must equal what a fresh
    ``QTurboCompiler`` produces offline, modulo nothing: JSON float
    serialization round-trips exactly, so the comparison is exact.
    """
    import json as _json

    qubits = _MIN_QUBITS.get(model, QUBITS)
    request = {
        "model": model, "qubits": qubits, "time": 1.0, "device": device
    }
    cold = warm_service.compile(request)
    warm = warm_service.compile(request)
    assert warm["job"]["source"] == "store"
    assert warm["result"]["schedule"] == cold["result"]["schedule"]

    target = build_model(model, qubits)
    aais = aais_for_device(device, max(qubits, target.num_qubits()))
    offline = QTurboCompiler(aais).compile_piecewise(
        PiecewiseHamiltonian.constant(target, 1.0)
    )
    expected = _json.loads(_json.dumps(offline.schedule.to_dict()))
    assert warm["result"]["schedule"] == expected
    assert warm["result"]["execution_time_us"] == offline.execution_time
