"""Compilation results and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.error_bounds import ErrorBudget
from repro.core.linear_system import b_difference_l1, l1_norm
from repro.hamiltonian.pauli import PauliString
from repro.pulse.schedule import PulseSchedule

__all__ = ["StageTimings", "SegmentSolution", "CompilationResult"]


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each compiler stage.

    Covers every stage of the pipeline: the linear build/solve,
    partitioning, evolution-time optimization, the local (fixed +
    dynamic) solves, the L1 refinement, and schedule emission
    (``emit``); ``total`` is the end-to-end compile wall time, so
    ``total - sum(stages)`` is pipeline overhead.
    """

    linear: float = 0.0
    partition: float = 0.0
    time_optimization: float = 0.0
    local_solve: float = 0.0
    refinement: float = 0.0
    emit: float = 0.0
    total: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "linear": self.linear,
            "partition": self.partition,
            "time_optimization": self.time_optimization,
            "local_solve": self.local_solve,
            "refinement": self.refinement,
            "emit": self.emit,
            "total": self.total,
        }


@dataclass
class SegmentSolution:
    """Solved data for one target segment.

    Attributes
    ----------
    duration:
        Simulator evolution time of the segment (µs).
    values:
        Full variable assignment (fixed + dynamic) during the segment.
    alpha_targets:
        Synthesized-variable targets from the (possibly refined) linear
        solve, per channel.
    achieved_alphas:
        Synthesized values actually realized: expression × duration.
    b_target:
        Target coefficient vector A_tar × T_tar per Pauli term.
    b_sim:
        Realized coefficient vector A_sim × T_sim per Pauli term.
    """

    duration: float
    values: Dict[str, float]
    alpha_targets: Dict[str, float]
    achieved_alphas: Dict[str, float]
    b_target: Dict[PauliString, float]
    b_sim: Dict[PauliString, float]

    @property
    def error_l1(self) -> float:
        """``||B_sim − B_tar||₁`` for this segment."""
        return b_difference_l1(self.b_sim, self.b_target)

    @property
    def relative_error(self) -> float:
        """Section-7 relative error of this segment (fraction, not %)."""
        denom = l1_norm(self.b_target)
        if denom == 0:
            return 0.0 if self.error_l1 == 0 else float("inf")
        return self.error_l1 / denom


@dataclass
class CompilationResult:
    """Everything a compilation run produced.

    The headline metrics of the paper's evaluation are exposed as
    properties: :attr:`execution_time` (device time, µs),
    :attr:`relative_error` (Section 7 metric, as a fraction), and
    :attr:`compile_seconds` (CPU/wall time of the compiler).
    """

    success: bool
    message: str
    segments: List[SegmentSolution] = field(default_factory=list)
    schedule: Optional[PulseSchedule] = None
    compile_seconds: float = 0.0
    stage_timings: StageTimings = field(default_factory=StageTimings)
    num_components: int = 0
    error_budget: Optional[ErrorBudget] = None
    refinement_applied: bool = False
    feasibility_iterations: int = 0
    warnings: List[str] = field(default_factory=list)
    #: JSON-form per-pass records (name, seconds, cache_hit,
    #: diagnostics) from the pipeline run that produced this result;
    #: render with :func:`repro.core.pipeline.trace_table`.
    pass_trace: List[Dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def execution_time(self) -> float:
        """Total device execution time (µs)."""
        return sum(s.duration for s in self.segments)

    @property
    def error_l1(self) -> float:
        """``Σ_seg ||B_sim − B_tar||₁``."""
        return sum(s.error_l1 for s in self.segments)

    @property
    def target_l1(self) -> float:
        return sum(l1_norm(s.b_target) for s in self.segments)

    @property
    def relative_error(self) -> float:
        """The paper's Program Relative Error, as a fraction.

        ``||B_sim − B_tar||₁ / ||B_tar||₁`` aggregated over segments.
        """
        denom = self.target_l1
        if denom == 0:
            return 0.0 if self.error_l1 == 0 else float("inf")
        return self.error_l1 / denom

    @property
    def relative_error_percent(self) -> float:
        return 100.0 * self.relative_error

    @property
    def error_bound(self) -> Optional[float]:
        """The Theorem-1 bound, when the budget was recorded."""
        if self.error_budget is None:
            return None
        return self.error_budget.bound

    def summary(self) -> str:
        """One-line human-readable result description."""
        if not self.success:
            return f"compilation FAILED: {self.message}"
        return (
            f"compiled in {self.compile_seconds * 1e3:.2f} ms | "
            f"execution {self.execution_time:.4g} µs | "
            f"relative error {self.relative_error_percent:.3g}% | "
            f"{self.num_components} local systems"
        )

    def report(self) -> str:
        """Multi-line diagnostic report (stages, segments, error budget)."""
        lines = [self.summary()]
        if not self.success:
            return "\n".join(lines)
        timings = self.stage_timings
        lines.append(
            "stages (ms): "
            f"linear {timings.linear * 1e3:.2f}, "
            f"partition {timings.partition * 1e3:.2f}, "
            f"time-opt {timings.time_optimization * 1e3:.2f}, "
            f"local {timings.local_solve * 1e3:.2f}, "
            f"refine {timings.refinement * 1e3:.2f}, "
            f"emit {timings.emit * 1e3:.2f}"
        )
        if self.error_budget is not None:
            lines.append(
                f"Theorem-1 bound {self.error_budget.bound:.4g} "
                f"(measured L1 error {self.error_l1:.4g})"
            )
        lines.append(
            f"refinement applied: {self.refinement_applied} | "
            f"feasibility stretches: {self.feasibility_iterations}"
        )
        for index, segment in enumerate(self.segments):
            lines.append(
                f"segment {index}: T = {segment.duration:.4g} µs, "
                f"relative error {100 * segment.relative_error:.3g}%"
            )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CompilationResult({self.summary()})"
