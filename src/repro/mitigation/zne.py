"""Zero-noise extrapolation (ZNE) for analog pulse schedules.

The paper cites error-mitigation work for analog simulation (Meher et
al., QCE'24).  The natural analog knob is *pulse stretching*: executing
the same Hamiltonian-time product with amplitudes divided by λ and
duration multiplied by λ leaves the ideal physics invariant while
scaling time-correlated noise, so observables measured at several λ can
be extrapolated back to λ → 0 (the zero-noise limit).

This composes directly with the compiler: QTurbo's bottleneck-optimal
pulse is the λ = 1 point, and stretched replicas are guaranteed valid
because every amplitude only ever *decreases*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.pulse.schedule import PulseSchedule, PulseSegment
from repro.sim.noise import NoisySimulator
from repro.sim.sampling import (
    z_average_from_samples,
    zz_average_from_samples,
)

__all__ = [
    "stretch_schedule",
    "richardson_extrapolate",
    "ZNEResult",
    "zne_observables",
]

#: Variable-name prefixes whose values scale inversely with stretching.
_AMPLITUDE_PREFIXES = ("omega", "delta", "a_")


def stretch_schedule(schedule: PulseSchedule, factor: float) -> PulseSchedule:
    """The same physics executed ``factor``× slower.

    Amplitudes divide by the factor, durations multiply; phases and
    runtime-fixed variables are untouched.  ``factor`` must be ≥ 1 so the
    stretched amplitudes remain within hardware bounds.
    """
    if factor < 1.0:
        raise SimulationError(
            "stretch factor must be >= 1 (amplitudes would exceed "
            f"hardware bounds), got {factor}"
        )
    segments = []
    for segment in schedule.segments:
        values = {}
        for name, value in segment.dynamic_values.items():
            if name.startswith(_AMPLITUDE_PREFIXES):
                values[name] = value / factor
            else:
                values[name] = value
        segments.append(
            PulseSegment(
                duration=segment.duration * factor, dynamic_values=values
            )
        )
    return PulseSchedule(schedule.aais, schedule.fixed_values, segments)


def richardson_extrapolate(
    factors: Sequence[float], values: Sequence[float]
) -> float:
    """Polynomial extrapolation of ``values(λ)`` to λ = 0.

    With k sample points this fits the unique degree-(k−1) polynomial
    and evaluates it at zero — the classic Richardson/ZNE estimator.
    """
    if len(factors) != len(values):
        raise SimulationError("factors and values must have equal length")
    if len(factors) < 2:
        raise SimulationError("extrapolation needs at least two points")
    if len(set(factors)) != len(factors):
        raise SimulationError("stretch factors must be distinct")
    result = 0.0
    for i, (fi, vi) in enumerate(zip(factors, values)):
        weight = 1.0
        for j, fj in enumerate(factors):
            if j != i:
                weight *= fj / (fj - fi)
        result += weight * vi
    return float(result)


@dataclass
class ZNEResult:
    """Mitigated observables together with the raw per-λ measurements."""

    factors: Tuple[float, ...]
    raw: Dict[str, Tuple[float, ...]]
    mitigated: Dict[str, float]

    def improvement_over_unmitigated(
        self, truth: Mapping[str, float]
    ) -> Dict[str, float]:
        """Error reduction of the mitigated vs the λ=1 estimate, per metric."""
        improvements = {}
        for key, mitigated_value in self.mitigated.items():
            raw_error = abs(self.raw[key][0] - truth[key])
            mitigated_error = abs(mitigated_value - truth[key])
            if raw_error == 0:
                improvements[key] = 0.0
            else:
                improvements[key] = 1.0 - mitigated_error / raw_error
        return improvements


def zne_observables(
    schedule: PulseSchedule,
    simulator: NoisySimulator,
    factors: Sequence[float] = (1.0, 1.5, 2.0),
    shots: int = 1000,
    periodic: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> ZNEResult:
    """Measure Z_avg / ZZ_avg at several stretch factors and extrapolate.

    The first factor should be 1.0 (the compiled pulse itself) so
    :meth:`ZNEResult.improvement_over_unmitigated` is meaningful.

    All stretch replicas are built up front and dispatched through
    :meth:`NoisySimulator.run_many`, so each one rides the simulator's
    vectorized block-evolution path (every replica's noise realizations
    evolve as one ``(2^N, k)`` state block, matrix-free at every register
    size, so no operator matrix is ever materialized).
    """
    if not factors:
        raise SimulationError("need at least one stretch factor")
    schedules = [
        schedule if factor == 1.0 else stretch_schedule(schedule, factor)
        for factor in factors
    ]
    samples_per_factor = simulator.run_many(schedules, shots=shots, rng=rng)
    raw: Dict[str, List[float]] = {"z_avg": [], "zz_avg": []}
    for samples in samples_per_factor:
        raw["z_avg"].append(z_average_from_samples(samples))
        raw["zz_avg"].append(
            zz_average_from_samples(samples, periodic=periodic)
        )
    mitigated = {
        key: richardson_extrapolate(list(factors), values)
        for key, values in raw.items()
    }
    return ZNEResult(
        factors=tuple(factors),
        raw={k: tuple(v) for k, v in raw.items()},
        mitigated=mitigated,
    )
