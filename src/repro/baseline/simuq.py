"""The SimuQ-style baseline compiler (Sections 2.2 and 3).

Faithful to the strategy the paper attributes to SimuQ:

* **one global mixed system** over every amplitude variable, the
  evolution time, and one 0/1 indicator per dynamic instruction;
* solved with SciPy least squares via a continuous relaxation of the
  indicators, followed by rounding and a bounded combinatorial
  neighbourhood search over indicator flips;
* **multi-start**: random restarts until the residual passes the
  acceptance tolerance — which can fail (the paper's missing data
  points), and whose cost grows steeply with system size (Table 1);
* the evolution time is a *solver variable*, bounded but not minimized,
  so the compiled pulse is feasible-but-long (the paper's suboptimal
  execution times).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.aais.base import AAIS
from repro.baseline.mixed_system import MixedSystem
from repro.core.result import CompilationResult, SegmentSolution
from repro.errors import CompilationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.pulse.schedule import PulseSchedule, PulseSegment

__all__ = ["SimuQStyleCompiler"]


class SimuQStyleCompiler:
    """Global-mixed-system baseline compiler.

    Parameters
    ----------
    aais:
        The simulator's instruction set.
    seed:
        Seed of the restart randomness ("different solver conditions").
    max_restarts:
        Random restarts before declaring failure.
    tol:
        Acceptance threshold on the *relative* L1 residual.
    branch_flips:
        How many single-indicator flips the rounding repair may explore
        per restart (the combinatorial part of the mixed solve).
    t_max:
        Upper bound handed to the solver for the evolution time;
        defaults to the device's ``max_time`` or a heuristic.
    """

    def __init__(
        self,
        aais: AAIS,
        seed: int = 0,
        max_restarts: int = 8,
        tol: float = 3e-2,
        branch_flips: int = 6,
        t_max: Optional[float] = None,
        t_floor: float = 1e-3,
    ):
        self.aais = aais
        self.seed = int(seed)
        self.max_restarts = int(max_restarts)
        self.tol = float(tol)
        self.branch_flips = int(branch_flips)
        self.t_floor = float(t_floor)
        spec = getattr(aais, "spec", None)
        if t_max is not None:
            self.t_max = float(t_max)
        elif spec is not None and getattr(spec, "max_time", None):
            self.t_max = float(spec.max_time)
        else:
            self.t_max = 100.0

    # ------------------------------------------------------------------
    def compile(
        self, target: Hamiltonian, t_target: float
    ) -> CompilationResult:
        if t_target <= 0:
            raise CompilationError(
                f"target evolution time must be positive, got {t_target}"
            )
        return self.compile_piecewise(
            PiecewiseHamiltonian.constant(target, t_target)
        )

    def compile_piecewise(
        self, target: PiecewiseHamiltonian
    ) -> CompilationResult:
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        segments: List[SegmentSolution] = []
        pulse_segments: List[PulseSegment] = []
        fixed_values: Dict[str, float] = {}
        frozen: Dict[str, float] = {}
        fixed_names = {v.name for v in self.aais.fixed_variables}
        failure: Optional[str] = None

        for index, segment in enumerate(target.segments):
            b_target = {
                term: coeff * segment.duration
                for term, coeff in segment.hamiltonian.terms.items()
                if not term.is_identity
            }
            system = MixedSystem(
                self.aais, with_indicators=True, frozen=frozen
            )
            solved = self._solve_segment(system, b_target, rng)
            if solved is None:
                failure = (
                    f"global mixed solve did not converge on segment {index} "
                    f"after {self.max_restarts} restarts"
                )
                break
            # The schedule has no on/off switch: an instruction whose
            # indicator rounded to 0 must run at amplitude 0, or the
            # device executes a drive that b_sim counts as off.
            x = system.absorb_indicators(solved[0])
            values = system.values_dict(x)
            t_sim = float(x[system.t_index])
            if index == 0:
                fixed_values = {
                    name: values[name] for name in fixed_names
                }
                # Atoms cannot move between segments: freeze positions for
                # the remaining solves (SimuQ does the same).
                frozen = dict(fixed_values)
            dynamic_values = {
                name: value
                for name, value in values.items()
                if name not in fixed_names
            }
            achieved = {
                channel.name: channel.evaluate(values) * t_sim
                for channel in self.aais.channels
            }
            segments.append(
                SegmentSolution(
                    duration=t_sim,
                    values=values,
                    alpha_targets=dict(achieved),
                    achieved_alphas=achieved,
                    b_target=b_target,
                    b_sim=system.achieved_b(x),
                )
            )
            pulse_segments.append(
                PulseSegment(duration=t_sim, dynamic_values=dynamic_values)
            )

        if failure is not None:
            result = CompilationResult(success=False, message=failure)
            result.compile_seconds = time.perf_counter() - start
            return result

        schedule = PulseSchedule(
            self.aais, fixed_values=fixed_values, segments=pulse_segments
        )
        result = CompilationResult(
            success=True,
            message="ok",
            segments=segments,
            schedule=schedule,
            num_components=1,
            warnings=schedule.validate(),
        )
        result.compile_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------
    def _solve_segment(
        self,
        system: MixedSystem,
        b_target: Mapping[PauliString, float],
        rng: np.random.Generator,
    ) -> Optional[Tuple[np.ndarray, float]]:
        b = system.b_vector(b_target)
        norm = float(np.abs(b).sum())
        if norm == 0:
            # Zero target: everything off, shortest pulse.
            x = self._initial_guess(system, rng)
            x[system.t_index] = self.t_floor
            for index in system.indicator_index.values():
                x[index] = 0.0
            for k, variable in enumerate(system.variables):
                if variable.is_dynamic:
                    x[k] = variable.clip(0.0)
            return x, 0.0
        # Uniform row weighting keeps the objective aligned with the L1
        # error metric (zero-target rows must not dominate).
        row_scale = np.full(len(b), max(float(np.max(np.abs(b))), 1e-12))
        lower, upper = system.bounds(self.t_floor, self.t_max, True)

        max_b = float(np.max(np.abs(b)))
        x_scale = np.maximum(np.minimum(upper, 1e3) - np.maximum(lower, -1e3), 1e-3)
        best: Optional[Tuple[np.ndarray, float]] = None
        for restart in range(self.max_restarts):
            # Alternate between a physics-informed chain seed and a
            # uniform scatter (rings and lattices need non-chain basins).
            x0 = self._initial_guess(
                system, rng, max_b, scatter=bool(restart % 2)
            )
            relaxed = least_squares(
                system.residuals,
                x0,
                args=(b, row_scale),
                bounds=(lower, upper),
                x_scale=x_scale,
                max_nfev=120 * system.num_unknowns,
            )
            candidates = [
                self._absorb_and_polish(
                    system, relaxed.x, b, row_scale, lower, upper
                ),
                self._round_and_repair(
                    system, relaxed.x, b, row_scale, lower, upper
                ),
            ]
            for candidate in candidates:
                residual_rel = self._relative_residual(system, candidate, b)
                if best is None or residual_rel < best[1]:
                    best = (candidate, residual_rel)
            if best is not None and best[1] <= self.tol:
                return best
        if best is not None and best[1] <= self.tol:
            return best
        return None

    def _initial_guess(
        self,
        system: MixedSystem,
        rng: np.random.Generator,
        max_b: float,
        scatter: bool = False,
    ) -> np.ndarray:
        """Random restart point.

        The evolution time is drawn first; atom positions are seeded as a
        jittered chain at the Van-der-Waals distance matching the largest
        coefficient target (without such physics-informed seeding the
        d⁻⁶ landscape is almost gradient-free and the global solve rarely
        converges — the very pathology Section 3 describes).
        """
        x = np.empty(system.num_unknowns)
        t_guess = rng.uniform(
            self.t_floor, max(self.t_max, 2 * self.t_floor)
        )
        x[system.t_index] = t_guess

        spec = getattr(self.aais, "spec", None)
        geometry = getattr(spec, "geometry", None)
        spacing = None
        if geometry is not None and max_b > 0:
            prefactor = spec.c6 / 4.0
            spacing = (prefactor * t_guess / max_b) ** (1.0 / 6.0)
            spacing = min(
                max(spacing, geometry.min_spacing), geometry.extent / 2.0
            )
        n_sites = sum(
            1
            for variable in system.variables
            if variable.is_fixed and variable.name.startswith("x_")
        )
        site_counter = 0
        for k, variable in enumerate(system.variables):
            if variable.is_fixed and spacing is not None:
                if scatter:
                    # Uniform scatter over a spacing-scaled window: lets
                    # the solve discover ring/lattice layouts a chain
                    # seed never reaches.
                    window = min(
                        variable.upper,
                        max(3.0, 0.6 * n_sites) * spacing,
                    )
                    x[k] = rng.uniform(0.0, window)
                elif variable.name.startswith("x_"):
                    x[k] = min(
                        site_counter * spacing * rng.uniform(0.8, 1.4),
                        variable.upper,
                    )
                    site_counter += 1
                else:  # y coordinate: jitter around the trap midline
                    x[k] = variable.upper / 2.0 + rng.uniform(-1.0, 1.0)
                x[k] = variable.clip(x[k])
            else:
                lo = max(variable.lower, -1e3)
                hi = min(variable.upper, 1e3)
                x[k] = rng.uniform(lo, hi)
        for index in system.indicator_index.values():
            x[index] = rng.uniform(0.2, 1.0)
        return x

    def _polish_continuous(
        self,
        system: MixedSystem,
        x_seed: np.ndarray,
        b: np.ndarray,
        row_scale: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        """Re-solve the continuous unknowns with indicators frozen."""
        head = system.t_index + 1  # continuous unknowns: variables + T
        tail = x_seed[head:].copy()

        def continuous_residuals(x_head: np.ndarray) -> np.ndarray:
            return system.residuals(
                np.concatenate([x_head, tail]), b, row_scale
            )

        seed = np.clip(x_seed[:head], lower[:head], upper[:head])
        result = least_squares(
            continuous_residuals,
            seed,
            bounds=(lower[:head], upper[:head]),
            max_nfev=80 * system.num_unknowns,
        )
        return np.concatenate([result.x, tail])

    def _absorb_and_polish(
        self,
        system: MixedSystem,
        x_relaxed: np.ndarray,
        b: np.ndarray,
        row_scale: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        """Fold fractional indicators into amplitudes, then polish."""
        absorbed = system.absorb_indicators(x_relaxed)
        head = system.t_index + 1
        absorbed[:head] = np.clip(absorbed[:head], lower[:head], upper[:head])
        return self._polish_continuous(
            system, absorbed, b, row_scale, lower, upper
        )

    def _round_and_repair(
        self,
        system: MixedSystem,
        x_relaxed: np.ndarray,
        b: np.ndarray,
        row_scale: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        """Round indicators to {0, 1}, re-solve, and try nearby flips."""
        indicator_indices = sorted(system.indicator_index.values())

        def polish(x_seed: np.ndarray) -> np.ndarray:
            return self._polish_continuous(
                system, x_seed, b, row_scale, lower, upper
            )

        # The relaxed product s·amplitude is the effective drive, so an
        # indicator only rounds to 0 when it is truly near zero; anything
        # else rounds to 1 and lets the amplitude absorb the factor.
        rounded = x_relaxed.copy()
        for index in indicator_indices:
            rounded[index] = 0.0 if rounded[index] < 0.05 else 1.0
        best = polish(rounded)
        best_res = self._relative_residual(system, best, b)
        if best_res <= self.tol or not indicator_indices:
            return best

        # Bounded combinatorial neighbourhood: flip indicators whose
        # relaxed value was least decisive, one at a time.
        ambiguity = sorted(
            indicator_indices,
            key=lambda idx: abs(x_relaxed[idx] - 0.05),
        )
        for index in ambiguity[: self.branch_flips]:
            trial = rounded.copy()
            trial[index] = 1.0 - trial[index]
            candidate = polish(trial)
            candidate_res = self._relative_residual(system, candidate, b)
            if candidate_res < best_res:
                best, best_res = candidate, candidate_res
                if best_res <= self.tol:
                    break
        return best

    @staticmethod
    def _relative_residual(
        system: MixedSystem, x: np.ndarray, b: np.ndarray
    ) -> float:
        t_sim = x[system.t_index]
        effective = (
            system.expressions(x) * system.indicator_values(x) * t_sim
        )
        residual = system.matrix.dot(effective) - b
        norm = float(np.abs(b).sum())
        if norm == 0:
            return float(np.abs(residual).sum())
        return float(np.abs(residual).sum() / norm)
