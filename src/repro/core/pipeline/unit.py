"""The typed intermediate representation flowing through the pass pipeline.

A :class:`CompilationUnit` carries everything one compilation produces
as it moves from the raw piecewise target to an emitted
:class:`~repro.pulse.schedule.PulseSchedule`: the global linear system
and its per-segment solutions, the channel partition and solver
strategies, the runtime-fixed assignment, the per-segment solved state,
and — crucially — a :class:`PassRecord` per executed pass with
wall-time, cache-hit, and residual diagnostics.  Passes consume and
return the unit; the :class:`~repro.core.pipeline.manager.PassManager`
owns timing and record collection.

The unit is deliberately mutable and permissive (every stage field
defaults to empty): a pass reads the fields earlier passes filled and
writes its own, and :meth:`CompilationUnit.require` turns a missing
prerequisite into a clear pipeline-ordering error instead of an
``AttributeError`` three frames deep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aais.base import AAIS
from repro.core.linear_system import GlobalLinearSystem, LinearSolution
from repro.core.local_solvers import LocalSolution, LocalSolverStrategy
from repro.core.partition import LocalComponent
from repro.core.result import CompilationResult
from repro.errors import CompilationError
from repro.hamiltonian.pauli import PauliString
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.pulse.schedule import PulseSchedule, PulseSegment

__all__ = ["PassRecord", "CompilationUnit"]


@dataclass
class PassRecord:
    """Diagnostics of one executed compiler pass.

    Attributes
    ----------
    name:
        Registry name of the pass (e.g. ``"build_linear_system"``).
    seconds:
        Wall-clock time the pass spent in :meth:`CompilerPass.run`.
    cache_hit:
        Whether the pass was served from a structural cache (None when
        the pass has no cache).
    diagnostics:
        Free-form, JSON-serializable per-pass measurements (matrix
        shape, residuals, feasibility stretches, segments dropped, …).
    """

    name: str
    seconds: float = 0.0
    cache_hit: Optional[bool] = None
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The JSON-serializable form stored in job records."""
        payload: Dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
        }
        if self.cache_hit is not None:
            payload["cache_hit"] = self.cache_hit
        if self.diagnostics:
            payload["diagnostics"] = dict(self.diagnostics)
        return payload


@dataclass
class CompilationUnit:
    """The IR one compilation carries through the pass pipeline.

    Attributes
    ----------
    target:
        The piecewise-constant target Hamiltonian being compiled.
    aais:
        The instruction set compiled onto.
    system:
        The global linear system.
    b_targets:
        Per-segment target coefficient vectors ``A_tar × T_tar``.
    linear_solutions:
        Per-segment global linear solves.
    components / strategies:
        The channel partition and one solver strategy per component.
    fixed_strategies / dynamic_strategies:
        The strategies split by runtime-fixed vs runtime-dynamic.
    t_dynamic / t_all:
        Per-segment bottleneck times (dynamic-only, and including fixed
        components).
    fixed_values / fixed_solutions / feasibility_iterations:
        Output of the runtime-fixed solve shared across segments.
    segment_times / segment_alphas / segment_dynamic_values:
        Per-segment solved state: final evolution time, (refined)
        synthesized-variable targets, and dynamic variable assignment.
    eps1_total / eps2_total:
        Accumulated linear (ε₁) and local (ε₂) residuals of Theorem 1.
    refinement_applied / refinement_seconds:
        Whether any segment's refinement improved the residual, and
        the wall time spent inside :func:`refine_dynamic_alphas`.
    segments / pulse_segments / schedule:
        Emission products.
    warnings:
        Deduplicated human-readable warnings, in discovery order.
    records:
        One :class:`PassRecord` per executed pass, in pipeline order.
    result:
        The final :class:`CompilationResult` (set by the emit pass).
    """

    target: PiecewiseHamiltonian
    aais: AAIS

    # Stage products -- filled in as passes execute.
    system: Optional[GlobalLinearSystem] = None
    b_targets: List[Dict[PauliString, float]] = field(default_factory=list)
    linear_solutions: List[LinearSolution] = field(default_factory=list)
    components: List[LocalComponent] = field(default_factory=list)
    strategies: List[LocalSolverStrategy] = field(default_factory=list)
    fixed_strategies: List[LocalSolverStrategy] = field(default_factory=list)
    dynamic_strategies: List[LocalSolverStrategy] = field(
        default_factory=list
    )
    t_dynamic: List[float] = field(default_factory=list)
    t_all: List[float] = field(default_factory=list)
    fixed_values: Dict[str, float] = field(default_factory=dict)
    fixed_solutions: Dict[int, LocalSolution] = field(default_factory=dict)
    feasibility_iterations: int = 0
    segment_times: List[float] = field(default_factory=list)
    segment_alphas: List[Dict[str, float]] = field(default_factory=list)
    segment_dynamic_values: List[Dict[str, float]] = field(
        default_factory=list
    )
    segment_eps2: List[float] = field(default_factory=list)
    eps1_total: float = 0.0
    eps2_total: float = 0.0
    refinement_applied: bool = False
    refinement_seconds: float = 0.0
    segments: List[object] = field(default_factory=list)
    pulse_segments: List[PulseSegment] = field(default_factory=list)
    schedule: Optional[PulseSchedule] = None
    warnings: List[str] = field(default_factory=list)
    records: List[PassRecord] = field(default_factory=list)
    result: Optional[CompilationResult] = None

    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        """How many piecewise segments the target holds."""
        return len(self.target.segments)

    def add_warning(self, message: str) -> None:
        """Append ``message`` unless an identical warning exists."""
        if message not in self.warnings:
            self.warnings.append(message)

    def require(self, field_name: str, wanted_by: str):
        """The named stage field, or a pipeline-ordering error.

        Parameters
        ----------
        field_name:
            Attribute that an earlier pass should have populated.
        wanted_by:
            Name of the requesting pass, used in the error message.
        """
        value = getattr(self, field_name)
        if value is None or (
            isinstance(value, (list, dict)) and not value
        ):
            raise CompilationError(
                f"pass {wanted_by!r} needs {field_name!r}, which no "
                "earlier pass produced — check the pipeline order"
            )
        return value

    def trace(self) -> List[Dict[str, object]]:
        """The JSON-serializable pass records, in execution order."""
        return [record.as_dict() for record in self.records]
