"""Workload ``simulate_mix``: the simulator and mitigation layers alone.

Set-up compiles Ising-chain schedules on a 1-D Rydberg register at
N = 6, 8, 10 and 12, plus a detuning-only copy of the N = 12 schedule.
Each round of the timed loop makes, in a seeded order, one call of each
kind on each schedule:

* ``noisy_run``: ``NoisySimulator.run`` (Monte-Carlo shots),
* ``ideal_evolve``: ``evolve_schedule`` from the ground state (the
  batch-verification pattern, cached propagators),
* ``zne``: ``zne_observables`` at stretch factors 1, 1.5 and 2.

The seed orders each round and draws each noisy call's simulator seed.
The mix sends state columns down all five evolution fast paths
(diagonal, cached propagator, dense build, sparse Krylov, matrix-free),
so it is where a change to backend selection shows.  Caches are cleared
when the timed loop starts and no compiler work runs inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from harness import Segment, closed_loop

NAME = "simulate_mix"
SIZES = (6, 8, 10, 12)
#: Schedule keys: one per size, plus the detuning-only N = 12 copy.
SCHEDULES = tuple(f"n{n}" for n in SIZES) + ("n12d",)
KINDS = ("noisy_run", "ideal_evolve", "zne")
NOISE_SEEDS = (0, 1, 2, 3)
SHOTS = 400
NOISE_SAMPLES = 8
ZNE_FACTORS = (1.0, 1.5, 2.0)
#: One round makes every (kind, schedule) call once.
MIN_OPS = len(KINDS) * len(SCHEDULES)
#: Largest register the dense reference is built for.
REFERENCE_MAX_QUBITS = 10
FAST_PATHS = ("diagonal", "propagator", "dense_build", "krylov", "matrix_free")


@dataclass(frozen=True)
class Call:
    kind: str
    schedule: str
    noise_seed: int

    @property
    def key(self) -> str:
        """Catalogue key of the frozen reference estimates."""
        return f"{self.kind}|{self.schedule}|{self.noise_seed}"

    @property
    def shots(self) -> int:
        if self.kind == "noisy_run":
            return SHOTS
        if self.kind == "zne":
            return SHOTS * len(ZNE_FACTORS)
        return 0


def call_stream(seed: int) -> Iterator[Call]:
    """Endless seeded rounds of every (kind, schedule) call."""
    rng = random.Random(seed)
    while True:
        round_ = [
            Call(kind, key, rng.choice(NOISE_SEEDS) if kind != "ideal_evolve" else 0)
            for kind in KINDS
            for key in SCHEDULES
        ]
        rng.shuffle(round_)
        yield from round_


def chain_spec(n: int):
    """A 1-D Rydberg trap wide enough for an ``n``-atom chain."""
    from repro.devices import RydbergSpec
    from repro.devices.base import TrapGeometry

    return RydbergSpec(
        name="bench-chain",
        delta_max=20.0,
        omega_max=2.5,
        geometry=TrapGeometry(extent=max(75.0, 9.0 * n), min_spacing=4.0, dimension=1),
        max_time=4.0,
    )


def build_schedules() -> Tuple[Dict[str, object], Dict[str, float]]:
    """Compile the Ising chains and derive the detuning-only copy.

    Also returns each compiled schedule's relative error; the
    detuning-only copy was never compiled and has none.
    """
    from repro.aais import RydbergAAIS
    from repro.core import QTurboCompiler
    from repro.models import ising_chain
    from repro.pulse.schedule import PulseSchedule, PulseSegment

    schedules = {}
    errors = {}
    for n in SIZES:
        result = QTurboCompiler(RydbergAAIS(n, spec=chain_spec(n))).compile(ising_chain(n), 1.0)
        if not result.success:
            raise RuntimeError(f"set-up compile failed at N={n}: {result.message}")
        schedules[f"n{n}"] = result.schedule
        errors[f"n{n}"] = result.relative_error
    base = schedules[f"n{SIZES[-1]}"]
    segments = [
        PulseSegment(
            duration=segment.duration,
            dynamic_values={
                name: 0.0 if name.startswith("omega") else value
                for name, value in segment.dynamic_values.items()
            },
        )
        for segment in base.segments
    ]
    schedules["n12d"] = PulseSchedule(base.aais, base.fixed_values, segments)
    return schedules, errors


def simulate(call: Call, schedules: Dict[str, object], tracer):
    """One call into ``repro.sim`` / ``repro.mitigation``."""
    from repro.mitigation import zne_observables
    from repro.sim import NoisySimulator, evolve_schedule, ground_state

    schedule = schedules[call.schedule]
    n = schedule.aais.num_sites
    with tracer.span(f"sim.{call.kind}", n=n):
        if call.kind == "ideal_evolve":
            return evolve_schedule(ground_state(n), schedule)
        simulator = NoisySimulator(noise_samples=NOISE_SAMPLES, seed=call.noise_seed)
        if tracer.enabled:
            tracer.wrap(simulator, "run", "sim.simulator.run")
        if call.kind == "noisy_run":
            return simulator.run(schedule, shots=SHOTS)
        return zne_observables(schedule, simulator, factors=ZNE_FACTORS, shots=SHOTS).mitigated


def estimates(call: Call, output) -> Dict[str, float]:
    """The observable estimates a noisy or ZNE call produced."""
    if call.kind == "zne":
        return dict(output)
    from repro.sim import z_average_from_samples, zz_average_from_samples

    return {
        "z_avg": z_average_from_samples(output),
        "zz_avg": zz_average_from_samples(output, periodic=True),
    }


# ----------------------------------------------------------------------
# Independent dense reference
# ----------------------------------------------------------------------
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_matrix(hamiltonian, n: int) -> np.ndarray:
    """``sum_s c_s P_s`` built from Kronecker products (qubit 0 leftmost)."""
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    for string, coeff in hamiltonian.terms.items():
        labels = dict(string.ops)
        term = np.ones((1, 1), dtype=complex)
        for qubit in range(n):
            term = np.kron(term, _PAULI[labels.get(qubit, "I")])
        matrix += coeff * term
    return matrix


def reference_state(schedule) -> np.ndarray:
    """Ground state evolved through every segment by eigendecomposition."""
    n = schedule.aais.num_sites
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for index, segment in enumerate(schedule.segments):
        hamiltonian = schedule.aais.hamiltonian(schedule.values_at_segment(index))
        energies, vectors = np.linalg.eigh(dense_matrix(hamiltonian, n))
        state = vectors @ (np.exp(-1j * energies * segment.duration) * (vectors.conj().T @ state))
    return state


class Workload:
    name = NAME
    round_size = MIN_OPS

    def __init__(self, seed: int, frozen: Dict[str, Dict[str, float]], scratch: Path):
        self.seed = seed
        self.frozen = frozen

    def setup(self) -> Tuple[Dict[str, object], Dict[str, float]]:
        return build_schedules()

    def teardown(self, state) -> None:
        pass

    def segment(self, state, seconds: float, tracer) -> Segment:
        from repro.sim import clear_simulation_caches, simulation_cache_stats
        from repro.sim.operators import clear_operator_cache

        schedules, errors = state
        clear_simulation_caches()
        clear_operator_cache()
        segment = closed_loop(
            call_stream(self.seed),
            lambda call: simulate(call, schedules, tracer),
            seconds,
            MIN_OPS,
            tracer,
            on_prefix=lambda so_far: {"columns": dict(simulation_cache_stats()["fast_paths"])},
            op_name=lambda call: call.kind,
            reference=True,
        )
        segment.extra["caches"] = cache_hit_ratios()
        segment.extra["schedules"] = schedules
        segment.extra["errors"] = errors
        return segment

    def check(self, segment: Segment) -> List[str]:
        """Ideal states against the dense reference, estimates against frozen values."""
        failures = []
        schedules = segment.extra["schedules"]
        references = {
            key: reference_state(schedule)
            for key, schedule in schedules.items()
            if schedule.aais.num_sites <= REFERENCE_MAX_QUBITS
        }
        for index, (call, _, output) in enumerate(segment.records):
            if call.kind == "ideal_evolve":
                reference = references.get(call.schedule)
                if reference is None:
                    continue
                fidelity = abs(np.vdot(reference, output)) ** 2
                if not fidelity >= 1.0 - 1e-8:
                    failures.append(f"call {index} ({call.key}) fidelity {fidelity!r}")
                continue
            frozen = self.frozen[call.key]
            got = estimates(call, output)
            if any(not abs(got[name] - frozen[name]) <= 1e-6 for name in frozen):
                failures.append(f"call {index} ({call.key}) estimates {got} != frozen {frozen}")
        return failures

    def end_to_end(self, segment: Segment) -> Dict[str, float]:
        """Execution time and error of the schedules the calls simulated."""
        schedules = segment.extra["schedules"]
        errors = segment.extra["errors"]
        calls = [call for call, _, _ in segment.records]
        compiled = [call for call in calls if call.schedule in errors]
        return {
            "exec_time_us_mean": sum(schedules[c.schedule].total_duration for c in calls) / len(calls),
            "rel_error_mean": sum(errors[c.schedule] for c in compiled) / len(compiled),
        }

    def info(self, segment: Segment) -> Dict[str, float]:
        return {"shots_per_s": shots_per_second(segment)}

    def per_layer(self, segment: Segment, tracer) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        schedules = segment.extra["schedules"]
        by_kind: Dict[str, List[float]] = {}
        for call, seconds, _ in segment.records:
            n = schedules[call.schedule].aais.num_sites
            by_kind.setdefault(f"sim.{call.kind}.ms", []).append(seconds)
            by_kind.setdefault(f"sim.{call.kind}.n{n}.ms", []).append(seconds)
        for name, values in by_kind.items():
            metrics[name] = 1e3 * sum(values) / len(values)
        for path in FAST_PATHS:
            metrics[f"sim.columns.{path}"] = segment.extra["columns"][path]
        metrics.update(segment.extra["caches"])
        metrics["sim.shots_per_s"] = shots_per_second(segment)
        return metrics


def shots_per_second(segment: Segment) -> float:
    return sum(call.shots for call, _, _ in segment.records) / segment.elapsed


def cache_hit_ratios() -> Dict[str, float]:
    """Hit ratios of the propagator, kernel and operator caches."""
    from repro.sim import operator_cache_stats, simulation_cache_stats

    stats = simulation_cache_stats()
    operators = operator_cache_stats().values()
    hits = sum(entry["hits"] for entry in operators)
    lookups = hits + sum(entry["misses"] for entry in operators)
    return {
        "sim.propagator.hit_ratio": stats["propagator"]["hit_rate"],
        "sim.kernel.hit_ratio": stats["kernel"]["kernel"]["hit_rate"],
        "sim.operator_cache.hit_ratio": hits / lookups if lookups else 0.0,
    }

