"""Exact state-vector evolution under (piecewise-)constant Hamiltonians.

This plays the role of both QuTiP (the paper's theory curves) and Bloqade
(the pulse-level simulation of compiled schedules): evolve an initial
state under ``exp(−i H t)`` segment by segment.

Every ``evolve*`` entry point accepts a ``(2^N, k)`` **block** of states
whose columns evolve independently (one solver call pushes all columns
at once); :func:`evolve`, :func:`evolve_piecewise` and
:func:`evolve_schedule` also take a single ``(2^N,)`` vector.  All of
them reach one dispatcher, :func:`_evolve_rows`, with the segment as
coefficient rows over a Pauli support: one row shared by every column
for ideal evolution, one row per column for noise realizations.  It
picks the path from the support and the register size:

* all-Z support — an elementwise phase multiply, at any size;
* ideal evolution at N ≤ :data:`~repro.sim.propagators.DENSE_MAX_QUBITS`
  — the dense unitary, memoized in the propagator cache;
* everything else — bit-mask Pauli kernels plus a Chebyshev propagator
  (:mod:`repro.sim.kernels`); no operator is ever materialized, so it
  runs at any register size the state fits.

``backend="dense"`` or ``"matrix_free"`` forces one path (the tests'
reference); the default ``"auto"`` applies the rule above.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.pulse.schedule import PulseSchedule
from repro.sim.kernels import _structure_for, kernel_expm_multiply, row_kernel
from repro.sim.propagators import (
    BACKEND_NAMES,
    DENSE_MAX_QUBITS,
    batched_propagators,
    cached_row_propagator,
    coefficient_rows,
    matrix_free_block_columns,
    record_fast_path,
)

__all__ = [
    "ground_state",
    "plus_state",
    "evolve",
    "evolve_piecewise",
    "evolve_schedule",
    "evolve_realizations",
]


def ground_state(num_qubits: int) -> np.ndarray:
    """``|0…0⟩`` — all atoms in the ground state."""
    if num_qubits < 1:
        raise SimulationError("need at least 1 qubit")
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def plus_state(num_qubits: int) -> np.ndarray:
    """``|+⟩^⊗N`` — uniform superposition."""
    if num_qubits < 1:
        raise SimulationError("need at least 1 qubit")
    dim = 2**num_qubits
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)


def _check_state(state: np.ndarray, num_qubits: int) -> np.ndarray:
    """Coerce to complex and validate a ``(2^N,)`` vector or ``(2^N, k)``
    column block."""
    state = np.asarray(state, dtype=complex)
    if num_qubits < 1:
        raise SimulationError("need at least 1 qubit")
    dim = 2**num_qubits
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise SimulationError(
            f"state has shape {state.shape}, expected (2^{num_qubits},) "
            f"or (2^{num_qubits}, k)"
        )
    return state


def _check_backend(backend: str) -> None:
    if backend not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
        )


def evolve(
    state: np.ndarray,
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    backend: str = "auto",
) -> np.ndarray:
    """``exp(−i H t) |ψ⟩`` for a constant Hamiltonian.

    Parameters
    ----------
    state:
        A ``(2^N,)`` vector or a ``(2^N, k)`` block whose columns evolve
        independently under the same Hamiltonian.
    backend:
        ``"auto"`` picks the path (see the module docstring);
        ``"dense"`` forces the dense propagator (the configurable
        operator cap still refuses absurd dense builds) and
        ``"matrix_free"`` the Pauli-kernel Chebyshev path, at any size.
    """
    _check_backend(backend)
    state = _check_state(state, num_qubits)
    strings, coefficients = coefficient_rows([hamiltonian], num_qubits)
    block = state if state.ndim == 2 else state[:, None]
    out = _evolve_rows(
        block, strings, coefficients, duration, num_qubits, backend, True
    )
    return out if state.ndim == 2 else out[:, 0]


def evolve_piecewise(
    state: np.ndarray,
    target: PiecewiseHamiltonian,
    num_qubits: int,
    backend: str = "auto",
) -> np.ndarray:
    """Chain :func:`evolve` across all segments of a piecewise target.

    Accepts single states and ``(2^N, k)`` blocks alike.
    """
    for segment in target.segments:
        state = evolve(
            state,
            segment.hamiltonian,
            segment.duration,
            num_qubits,
            backend=backend,
        )
    return state


def evolve_schedule(
    state: np.ndarray,
    schedule: PulseSchedule,
    backend: str = "auto",
) -> np.ndarray:
    """Evolve under the simulator Hamiltonian of a compiled schedule.

    ``state`` lives on ``schedule.aais.num_sites`` qubits: a vector or a
    ``(2^N, k)`` column block (all columns see the same schedule).
    """
    num_qubits = schedule.aais.num_sites
    _check_backend(backend)
    state = _check_state(state, num_qubits)
    block = state if state.ndim == 2 else state[:, None]
    out = _evolve_segments(
        block, schedule, [{}] * schedule.num_segments, backend, True
    )
    return out if state.ndim == 2 else out[:, 0]


def evolve_realizations(
    states: np.ndarray,
    schedule: PulseSchedule,
    segment_values: Sequence[Mapping[str, Union[float, np.ndarray]]],
    backend: str = "auto",
) -> np.ndarray:
    """Evolve column ``i`` of ``states`` under realization ``i`` of a
    schedule: the Monte-Carlo hot loop.

    Each segment is visited once.  :meth:`AAIS.coefficients` builds the
    ``(k, S)`` coefficient matrix of all realizations, and the block
    takes one path on it: a phase multiply for an all-Z segment, else
    one Chebyshev recurrence over all columns with a kernel of ``k``
    coefficient rows, inside the union of the rows' spectral bounds
    (column chunks if the memory budget asks for them).  Realizations
    never recur, so nothing is cached and ``auto`` never builds a dense
    ``expm``: for a one-shot Hamiltonian it costs more than the
    recurrence from N = 4 up, and about the same below.  A forced
    ``backend="dense"`` (one batched ``expm`` of the ``k`` dense
    matrices) stays as the tests' differential reference.

    Parameters
    ----------
    states:
        ``(2^N, k)`` block; column ``i`` is realization ``i``.
    segment_values:
        Per segment, variable overrides as ``(k,)`` arrays (or scalars
        shared by every column) on top of the schedule's values.
    """
    num_qubits = schedule.aais.num_sites
    _check_backend(backend)
    states = _check_state(states, num_qubits)
    if states.ndim != 2:
        raise SimulationError(
            f"evolve_realizations needs a (2^{num_qubits}, k) column "
            f"block, got shape {states.shape}"
        )
    if len(segment_values) != schedule.num_segments:
        raise SimulationError(
            f"{len(segment_values)} segment overrides for "
            f"{schedule.num_segments} segments"
        )
    return _evolve_segments(states, schedule, segment_values, backend, False)


def _evolve_segments(
    states: np.ndarray,
    schedule: PulseSchedule,
    segment_values: Sequence[Mapping[str, Union[float, np.ndarray]]],
    backend: str,
    cache: bool,
) -> np.ndarray:
    """Every segment of ``schedule`` through :func:`_evolve_rows`."""
    num_qubits = schedule.aais.num_sites
    strings = tuple(s.canonical_key for s in schedule.aais.term_strings)
    for index, segment in enumerate(schedule.segments):
        values = schedule.values_at_segment(index)
        values.update(segment_values[index])
        states = _evolve_rows(
            states,
            strings,
            schedule.aais.coefficients(values),
            segment.duration,
            num_qubits,
            backend,
            cache,
        )
    return states


def _evolve_rows(
    states: np.ndarray,
    strings: Tuple[Tuple[Tuple[int, str], ...], ...],
    coefficients: np.ndarray,
    duration: float,
    num_qubits: int,
    backend: str,
    cache: bool,
) -> np.ndarray:
    """``exp(−i H t)`` on a ``(2^N, k)`` block, ``H = Σ_s c[s] P_s``.

    ``coefficients`` is one row shared by every column, or ``k`` rows
    (row ``i`` for column ``i``).  ``cache=True`` marks an ideal call,
    whose row may recur: its dense unitary (N ≤ ``DENSE_MAX_QUBITS``)
    or matrix-free kernel is memoized on the row.  Realizations pass
    ``cache=False`` and always run matrix-free under ``auto``.

    The support is the set of strings with a nonzero coefficient in any
    row; :meth:`AAIS.coefficients` has already zeroed entries at or
    below its tolerance, so a segment whose drive is off in every row
    keeps the diagonal path and φ = 0 keeps the kernel real.
    """
    if duration < 0:
        raise SimulationError(f"negative duration {duration}")
    k = states.shape[1]
    if len(coefficients) not in (1, k):
        raise SimulationError(
            f"{len(coefficients)} coefficient rows for {k} state columns"
        )
    support = np.flatnonzero(coefficients.any(axis=0))
    if duration == 0 or not support.size:
        return states.copy()
    strings = tuple(strings[i] for i in support)
    coefficients = coefficients[:, support]
    structure = _structure_for(strings, num_qubits)
    if backend == "auto" and structure.is_diagonal:
        record_fast_path("diagonal", k)
        diagonal = structure.diagonal_rows(coefficients)
        return states * np.exp(-1j * duration * diagonal).T
    dense_cached = cache and num_qubits <= DENSE_MAX_QUBITS
    if backend == "dense" or (backend == "auto" and dense_cached):
        if dense_cached:
            unitary, hit = cached_row_propagator(
                strings, coefficients, duration, num_qubits
            )
            record_fast_path("propagator" if hit else "dense_build", k)
            return unitary @ states
        record_fast_path("dense_build", k)
        unitaries = batched_propagators(
            strings, coefficients, [duration] * len(coefficients), num_qubits
        )
        return np.matmul(unitaries, states.T[:, :, None])[:, :, 0].T
    record_fast_path("matrix_free", k)
    shared = len(coefficients) == 1
    chunk = matrix_free_block_columns(
        num_qubits, hamiltonian_per_column=not shared
    )
    out = np.empty_like(states)
    for start in range(0, k, chunk):
        cols = slice(start, start + chunk)
        kernel = row_kernel(
            strings,
            coefficients if shared else coefficients[cols],
            num_qubits,
            structure,
            cache,
        )
        out[:, cols] = kernel_expm_multiply(kernel, states[:, cols], duration)
    return out
