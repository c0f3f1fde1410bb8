"""Quantum-simulation substrate: operators, evolution, observables, noise."""

from repro.sim.evolution import (
    evolve,
    evolve_block,
    evolve_piecewise,
    evolve_schedule,
    evolve_schedule_block,
    ground_state,
    plus_state,
)
from repro.sim.entanglement import (
    bipartite_entropy,
    partial_trace,
    von_neumann_entropy,
)
from repro.sim.kernels import (
    HamiltonianKernel,
    apply_hamiltonian,
    apply_pauli_string,
    expm_multiply_matrix_free,
    hamiltonian_kernel,
    kernel_cache_stats,
    lanczos_expm_multiply,
)
from repro.sim.noise import NoiseParameters, NoisySimulator, aquila_noise
from repro.sim.observables import (
    expectation,
    magnetization_profile,
    pauli_expectation,
    state_fidelity,
    z_average,
    zz_average,
)
from repro.sim.operators import (
    hamiltonian_matrix,
    number_operator_matrix,
    operator_cache_stats,
    pauli_matrix,
    pauli_string_matrix,
)
from repro.sim.propagators import (
    BACKEND_NAMES,
    clear_simulation_caches,
    configure_simulation_caches,
    select_backend,
    simulation_cache_stats,
)
from repro.sim.sampling import (
    apply_readout_error,
    counts_from_samples,
    sample_bitstrings,
    z_average_from_samples,
    zz_average_from_samples,
)

__all__ = [
    "ground_state",
    "plus_state",
    "evolve",
    "evolve_block",
    "evolve_piecewise",
    "evolve_schedule",
    "evolve_schedule_block",
    "expectation",
    "pauli_expectation",
    "z_average",
    "zz_average",
    "magnetization_profile",
    "state_fidelity",
    "pauli_matrix",
    "pauli_string_matrix",
    "hamiltonian_matrix",
    "number_operator_matrix",
    "operator_cache_stats",
    "simulation_cache_stats",
    "clear_simulation_caches",
    "configure_simulation_caches",
    "BACKEND_NAMES",
    "select_backend",
    "HamiltonianKernel",
    "hamiltonian_kernel",
    "apply_pauli_string",
    "apply_hamiltonian",
    "lanczos_expm_multiply",
    "expm_multiply_matrix_free",
    "kernel_cache_stats",
    "sample_bitstrings",
    "counts_from_samples",
    "apply_readout_error",
    "z_average_from_samples",
    "zz_average_from_samples",
    "NoiseParameters",
    "NoisySimulator",
    "aquila_noise",
    "partial_trace",
    "von_neumann_entropy",
    "bipartite_entropy",
]
