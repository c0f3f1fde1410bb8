"""Noisy execution: the stand-in for QuEra's Aquila device (Figure 6).

DESIGN.md documents this substitution.  The model combines the dominant
error sources of a neutral-atom analog machine, every one of which grows
with the executed pulse length — preserving the paper's central
real-device claim that *shorter compiled pulses suffer less noise*:

* **quasi-static control noise** — per-shot global Rabi-amplitude scale
  error, detuning offset, and atom-position jitter (thermal spread);
  these produce coherent over/under-rotation whose effect accumulates
  with evolution time;
* **relaxation** — each measured qubit decays to the ground state with
  probability ``1 − exp(−T_exec / t1)``;
* **SPAM** — asymmetric readout bit flips (Rydberg-state detection is
  worse than ground-state detection on real hardware).

The Monte-Carlo executor is vectorized end to end.  All noise
realizations are drawn up front with array-shaped RNG calls, as one
``(k,)`` array per perturbed variable and segment.  They evolve together
as a ``(2^N, k)`` state block via :func:`repro.sim.evolution
.evolve_realizations`: per segment, :meth:`repro.aais.base.AAIS
.coefficients` turns the arrays into one ``(k, S)`` coefficient matrix
and the whole block takes one solver call on it (one phase multiply
or one multi-row Chebyshev recurrence), although position jitter makes
every realization's Hamiltonian distinct.  The shots of all
realizations are sampled in one pass over the final block, then
corrupted with a single batched relaxation/readout pass over the
stacked shot array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.pulse.schedule import PulseSchedule
from repro.testing.faults import fault_point
from repro.sim.evolution import evolve_realizations, ground_state
from repro.sim.sampling import (
    apply_readout_error,
    sample_column_bitstrings,
    z_average_from_samples,
    zz_average_from_samples,
)

__all__ = ["NoiseParameters", "aquila_noise", "NoisySimulator"]


@dataclass(frozen=True)
class NoiseParameters:
    """Strengths of the noise channels.

    Attributes
    ----------
    rabi_relative_sigma:
        Std-dev of the per-shot multiplicative Rabi amplitude error.
    detuning_sigma:
        Std-dev of the per-shot additive detuning offset (rad/µs).
    position_sigma:
        Std-dev of per-atom coordinate jitter (µm).
    amplitude_relative_sigma:
        Relative amplitude error for non-Rydberg drives (Heisenberg
        AAIS) — reuses the Rabi value by default.
    t1:
        Relaxation time toward the ground state (µs); None disables.
    p01 / p10:
        Readout flip probabilities (read 1 given 0 / read 0 given 1).
    """

    rabi_relative_sigma: float = 0.02
    detuning_sigma: float = 0.2
    position_sigma: float = 0.1
    amplitude_relative_sigma: float = 0.02
    t1: Optional[float] = 7.0
    p01: float = 0.01
    p10: float = 0.08

    def __post_init__(self) -> None:
        for name in (
            "rabi_relative_sigma",
            "detuning_sigma",
            "position_sigma",
            "amplitude_relative_sigma",
        ):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        if self.t1 is not None and self.t1 <= 0:
            raise SimulationError("t1 must be positive (or None)")
        if not (0 <= self.p01 <= 1 and 0 <= self.p10 <= 1):
            raise SimulationError("readout probabilities must be in [0, 1]")


def aquila_noise(**overrides) -> NoiseParameters:
    """Aquila-flavoured defaults (arXiv:2306.11727 error budget scale)."""
    return NoiseParameters(**overrides)


class NoisySimulator:
    """Monte-Carlo noisy executor for compiled pulse schedules.

    Shots are split across ``noise_samples`` quasi-static noise
    realizations; within a realization the state evolves coherently and
    shots differ only in measurement randomness, matching how slow drifts
    manifest on real hardware.

    Parameters
    ----------
    noise:
        Channel strengths; Aquila-flavoured defaults when None.
    noise_samples:
        Number of quasi-static realizations the shots are split across.
    seed:
        Default RNG seed (used when ``run`` is not handed an explicit
        generator).

    The evolution path is picked per segment by
    :func:`repro.sim.evolution.evolve_realizations`, not by the caller.
    """

    def __init__(
        self,
        noise: NoiseParameters = None,
        noise_samples: int = 20,
        seed: int = 0,
    ):
        if noise_samples < 1:
            raise SimulationError("noise_samples must be >= 1")
        self.noise = noise if noise is not None else aquila_noise()
        self.noise_samples = int(noise_samples)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def _draw_override_batch(
        self,
        schedule: PulseSchedule,
        rng: np.random.Generator,
        count: int,
    ) -> List[Dict[str, np.ndarray]]:
        """``count`` quasi-static realizations, drawn with array calls.

        Every noise knob is drawn as a length-``count`` vector (one RNG
        call per channel instead of one per realization).  Returns, per
        segment, the perturbed variables as ``(count,)`` arrays, the
        input of :func:`repro.sim.evolution.evolve_realizations`.
        """
        noise = self.noise
        rabi_scales = 1.0 + rng.normal(0.0, noise.rabi_relative_sigma, count)
        amp_scales = 1.0 + rng.normal(
            0.0, noise.amplitude_relative_sigma, count
        )
        detuning_shifts = rng.normal(0.0, noise.detuning_sigma, count)
        position_names = [
            name
            for name in schedule.fixed_values
            if name.startswith(("x_", "y_")) and noise.position_sigma > 0
        ]
        jitter = rng.normal(
            0.0, noise.position_sigma, (count, len(position_names))
        )

        static = {
            name: schedule.fixed_values[name] + jitter[:, position]
            for position, name in enumerate(position_names)
        }
        batch: List[Dict[str, np.ndarray]] = []
        for segment in schedule.segments:
            entry = dict(static)
            for name, value in segment.dynamic_values.items():
                if name.startswith("omega"):
                    entry[name] = value * rabi_scales
                elif name.startswith("delta"):
                    entry[name] = value + detuning_shifts
                elif name.startswith("a_"):
                    entry[name] = value * amp_scales
                # phase control (phi) is digital, essentially exact
            batch.append(entry)
        return batch

    def _evolve_realizations(
        self,
        schedule: PulseSchedule,
        overrides: Sequence[Dict[str, np.ndarray]],
        count: int,
    ) -> np.ndarray:
        """Final states of all realizations as a ``(2^N, k)`` block."""
        initial = np.repeat(
            ground_state(schedule.aais.num_sites)[:, None], count, axis=1
        )
        return evolve_realizations(initial, schedule, overrides)

    def _sample_and_corrupt(
        self,
        states: np.ndarray,
        per_group: Sequence[int],
        duration: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Measurement + relaxation + SPAM over all realizations.

        All realizations are sampled in one pass over the block (each
        column keeps its own CDF), then relaxation and readout errors
        are applied once over the stacked ``(shots, N)`` array — three
        RNG calls in all.
        """
        samples = sample_column_bitstrings(states, per_group, rng)
        decay_probability = 0.0
        if self.noise.t1 is not None:
            decay_probability = 1.0 - float(np.exp(-duration / self.noise.t1))
        if decay_probability > 0:
            # Relaxation: excited (bit 1) outcomes decay to ground.
            relax = (samples == 1) & (
                rng.random(samples.shape) < decay_probability
            )
            samples = np.where(relax, 0, samples).astype(np.int8)
        return apply_readout_error(
            samples, self.noise.p01, self.noise.p10, rng=rng
        )

    def run(
        self,
        schedule: PulseSchedule,
        shots: int = 1000,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Noisy bitstring samples, shape ``(shots, num_sites)``."""
        fault_point("sim.run")
        if shots < 1:
            raise SimulationError("shots must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(self.seed)

        groups = min(self.noise_samples, shots)
        per_group = [shots // groups] * groups
        for extra in range(shots % groups):
            per_group[extra] += 1

        overrides = self._draw_override_batch(schedule, rng, groups)
        states = self._evolve_realizations(schedule, overrides, groups)
        return self._sample_and_corrupt(
            states, per_group, schedule.total_duration, rng
        )

    def run_many(
        self,
        schedules: Sequence[PulseSchedule],
        shots: int = 1000,
        rng: Optional[np.random.Generator] = None,
    ) -> List[np.ndarray]:
        """Run several schedules (e.g. ZNE stretch replicas) in order.

        A supplied generator is threaded through every run; with
        ``rng=None`` each schedule starts from a fresh ``seed``-seeded
        generator, matching repeated :meth:`run` calls.
        """
        return [self.run(s, shots=shots, rng=rng) for s in schedules]

    def observables(
        self,
        schedule: PulseSchedule,
        shots: int = 1000,
        periodic: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, float]:
        """Noisy estimates of the Figure-6 metrics."""
        samples = self.run(schedule, shots=shots, rng=rng)
        return {
            "z_avg": z_average_from_samples(samples),
            "zz_avg": zz_average_from_samples(samples, periodic=periodic),
        }
