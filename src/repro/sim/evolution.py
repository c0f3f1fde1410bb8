"""Exact state-vector evolution under (piecewise-)constant Hamiltonians.

This plays the role of both QuTiP (the paper's theory curves) and Bloqade
(the pulse-level simulation of compiled schedules): evolve an initial
state under ``exp(−i H t)`` segment by segment.

Every ``evolve*`` entry point accepts either a single state vector of
shape ``(2^N,)`` or a **block** of ``k`` states as a ``(2^N, k)`` matrix
whose columns evolve independently — one solver call pushes all columns
at once.  Each segment dispatches to one of three **backends**
(``backend: auto|dense|matrix_free``):

* ``dense`` — the 2^N×2^N unitary is built (batched across the
  block's distinct Hamiltonians) and memoized in the propagator cache;
  small registers.  Noise realizations take it only when forced.
* ``matrix_free`` — bit-mask Pauli kernels plus a Chebyshev
  propagator (:mod:`repro.sim.kernels`); no operator is ever
  materialized, so it runs at any register size the state fits.
* ``auto`` — per-segment selection via
  :func:`repro.sim.propagators.select_backend` (Z-only Hamiltonians
  additionally collapse to an elementwise phase multiply at any size).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.pulse.schedule import PulseSchedule
from repro.sim.kernels import (
    HamiltonianKernel,
    _structure_for,
    expm_multiply_matrix_free,
    kernel_expm_multiply,
)
from repro.sim.propagators import (
    BACKEND_NAMES,
    batched_propagators,
    cached_propagator,
    coefficient_rows,
    diagonal_vector,
    matrix_free_block_columns,
    propagator_build_max_qubits,
    record_fast_path,
    select_backend,
    store_propagator,
)

__all__ = [
    "ground_state",
    "plus_state",
    "evolve",
    "evolve_block",
    "evolve_piecewise",
    "evolve_schedule",
    "evolve_schedule_block",
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


def _check_block(states: np.ndarray, num_qubits: int, name: str):
    """:func:`_check_state` for entry points that need a column block."""
    states = _check_state(states, num_qubits)
    if states.ndim != 2:
        raise SimulationError(
            f"{name} needs a (2^{num_qubits}, k) column block, got shape "
            f"{states.shape}"
        )
    return states


def _check_backend(backend: str) -> None:
    if backend not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
        )


def _apply_phase(
    state: np.ndarray, diagonal: np.ndarray, duration: float
) -> np.ndarray:
    phase = np.exp(-1j * duration * diagonal)
    if state.ndim == 1:
        return state * phase
    return state * phase[:, None]


def evolve(
    state: np.ndarray,
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    cache: bool = True,
    backend: str = "auto",
) -> np.ndarray:
    """``exp(−i H t) |ψ⟩`` for a constant Hamiltonian.

    A thin wrapper over :func:`evolve_block` — single vectors and
    single-Hamiltonian blocks share its fast-path dispatch.

    Parameters
    ----------
    state:
        A ``(2^N,)`` vector or a ``(2^N, k)`` block whose columns evolve
        independently under the same Hamiltonian.
    cache:
        ``cache=False`` stores nothing keyed on this Hamiltonian (no
        operator matrix, assembled diagonal, propagator or kernel
        entries) — use it for one-shot Hamiltonians (noise
        realizations) that would otherwise pollute the caches without
        ever being hit.  Fast paths still apply, shared per-string
        basis/sign caches still fill, and an already-cached propagator
        is still used.
    backend:
        ``"auto"`` picks the cheapest path per segment
        (:func:`repro.sim.propagators.select_backend`); ``"dense"``
        forces the dense-propagator path regardless of the size
        thresholds (above ``propagator_max_qubits`` the unitary is
        built but not cached; the configurable operator cap still
        refuses absurd dense builds); ``"matrix_free"`` forces the
        Pauli-kernel Chebyshev path at any size.
    """
    state = _check_state(state, num_qubits)
    if state.ndim == 1:
        out = evolve_block(
            state[:, None],
            [hamiltonian],
            duration,
            num_qubits,
            cache=cache,
            backend=backend,
        )
        return out[:, 0]
    return evolve_block(
        state,
        [hamiltonian] * state.shape[1],
        duration,
        num_qubits,
        cache=cache,
        backend=backend,
    )


def evolve_block(
    states: np.ndarray,
    hamiltonians: Sequence[Hamiltonian],
    durations: Union[float, Sequence[float]],
    num_qubits: int,
    cache: bool = False,
    backend: str = "auto",
) -> np.ndarray:
    """Evolve column ``i`` of ``states`` under ``hamiltonians[i]``.

    The engine groups columns that share a ``(Hamiltonian, duration)``
    pair — one solver call per *distinct* Hamiltonian, not per column —
    then dispatches each group to the selected backend: diagonal phase
    multiply, cached propagator, batched dense ``expm`` (all misses of a
    segment are assembled and exponentiated together), or the
    matrix-free Pauli-kernel Chebyshev propagator.  Only the dense path
    *materializes* an operator and is subject to the operator-layer
    size cap; the diagonal and matrix-free paths scale to any register
    the state itself fits.

    Parameters
    ----------
    states:
        ``(2^N, k)`` complex matrix; column ``i`` is realization ``i``.
    hamiltonians:
        ``k`` Hamiltonians (repeats are fine and encouraged — identical
        entries evolve together).
    durations:
        One shared duration or a length-``k`` sequence.
    cache:
        Whether the per-group operators/propagators/kernels may be
        memoized.  Defaults to False because block callers typically
        evolve one-shot noise realizations.
    backend:
        ``auto|dense|matrix_free`` — see :func:`evolve`.
    """
    _check_backend(backend)
    states = _check_block(states, num_qubits, "evolve_block")
    k = states.shape[1]
    if len(hamiltonians) != k:
        raise SimulationError(
            f"{len(hamiltonians)} Hamiltonians for {k} state columns"
        )
    if np.isscalar(durations):
        duration_list = [float(durations)] * k
    else:
        duration_list = [float(d) for d in durations]
        if len(duration_list) != k:
            raise SimulationError(
                f"{len(duration_list)} durations for {k} state columns"
            )
    for duration in duration_list:
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")

    # Group columns by (canonical Hamiltonian, duration).  The key is
    # memoized per Hamiltonian *object* so a [h] * k block computes it
    # once, not k times.
    groups: "OrderedDict[Tuple, Tuple[Hamiltonian, float, List[int]]]" = (
        OrderedDict()
    )
    key_by_id: Dict[int, Tuple] = {}
    for col, (hamiltonian, duration) in enumerate(
        zip(hamiltonians, duration_list)
    ):
        ham_key = key_by_id.get(id(hamiltonian))
        if ham_key is None:
            ham_key = hamiltonian.canonical_key()
            key_by_id[id(hamiltonian)] = ham_key
        key = (ham_key, duration)
        entry = groups.get(key)
        if entry is None:
            groups[key] = (hamiltonian, duration, [col])
        else:
            entry[2].append(col)

    out = np.empty_like(states)
    dense_pending: List[Tuple[Hamiltonian, float, List[int]]] = []
    for hamiltonian, duration, cols in groups.values():
        block = states[:, cols]
        if duration == 0 or hamiltonian.is_zero:
            out[:, cols] = block
            continue
        choice = (
            select_backend(hamiltonian, num_qubits)
            if backend == "auto"
            else backend
        )
        if choice == "diagonal":
            record_fast_path("diagonal", len(cols))
            diagonal = diagonal_vector(hamiltonian, num_qubits, cache=cache)
            out[:, cols] = _apply_phase(block, diagonal, duration)
            continue
        if choice == "dense":
            # A miss can only be followed by a store when a dense build
            # is allowed AND the caller permits caching; otherwise probe
            # without stats so guaranteed misses (one-shot noise
            # realizations, oversized registers) don't dilute the
            # cache's hit rate.
            buildable = (
                backend == "dense"
                or num_qubits <= propagator_build_max_qubits()
            )
            unitary = cached_propagator(
                hamiltonian,
                duration,
                num_qubits,
                count_stats=buildable and cache,
            )
            if unitary is not None:
                record_fast_path("propagator", len(cols))
                out[:, cols] = unitary @ block
                continue
            if buildable:
                dense_pending.append((hamiltonian, duration, cols))
                continue
            # A miss above the build threshold goes matrix-free.
        record_fast_path("matrix_free", len(cols))
        # Wide blocks go through in column chunks so the propagator
        # working set (several block-sized buffers) honors the same
        # memory budget the matrix-free path plans against.
        chunk = matrix_free_block_columns(num_qubits)
        for start in range(0, len(cols), chunk):
            sub = cols[start : start + chunk]
            out[:, sub] = expm_multiply_matrix_free(
                hamiltonian,
                states[:, sub],
                duration,
                num_qubits,
                cache=cache,
            )

    if dense_pending:
        # All cache misses of the block are assembled in one BLAS call
        # and exponentiated with one batched expm.
        strings, coefficients = coefficient_rows(
            [h for h, _, _ in dense_pending], num_qubits
        )
        unitaries = batched_propagators(
            strings,
            coefficients,
            [t for _, t, _ in dense_pending],
            num_qubits,
        )
        for (hamiltonian, duration, cols), unitary in zip(
            dense_pending, unitaries
        ):
            record_fast_path("dense_build", len(cols))
            if cache:
                store_propagator(hamiltonian, duration, num_qubits, unitary)
            out[:, cols] = unitary @ states[:, cols]
    return out


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
    value_overrides: Optional[Sequence[dict]] = None,
    backend: str = "auto",
) -> np.ndarray:
    """Evolve under the simulator Hamiltonian of a compiled schedule.

    Parameters
    ----------
    state:
        Initial state on ``schedule.aais.num_sites`` qubits — a vector
        or a ``(2^N, k)`` column block (all columns see the same
        schedule).
    schedule:
        The compiled pulse program.
    value_overrides:
        Optional per-segment variable overrides (used by the noise model
        to inject control errors); each entry updates that segment's
        variable assignment before the Hamiltonian is built.
    backend:
        Backend selector forwarded to :func:`evolve`.
    """
    num_qubits = schedule.aais.num_sites
    state = _check_state(state, num_qubits)
    # Overridden (noise-perturbed) Hamiltonians are effectively unique
    # per realization — building them uncached keeps the operator and
    # propagator caches reserved for matrices that can actually recur.
    cache = value_overrides is None
    for index, segment in enumerate(schedule.segments):
        values = schedule.values_at_segment(index)
        if value_overrides is not None:
            values.update(value_overrides[index])
        hamiltonian = schedule.aais.hamiltonian(values)
        state = evolve(
            state,
            hamiltonian,
            segment.duration,
            num_qubits,
            cache=cache,
            backend=backend,
        )
    return state


def evolve_schedule_block(
    states: np.ndarray,
    schedule: PulseSchedule,
    value_overrides: Optional[Sequence[Sequence[dict]]] = None,
    backend: str = "auto",
) -> np.ndarray:
    """Evolve ``k`` noise realizations of one schedule as a column block.

    The list-of-dicts front end of :func:`evolve_realizations`: each
    segment's per-realization override dicts are converted on entry to
    one ``(k,)`` array per overridden variable (a realization that does
    not override a variable keeps the schedule's value), and every
    segment then evolves all columns in one dispatch.

    Parameters
    ----------
    states:
        ``(2^N, k)`` block; column ``i`` is realization ``i``.
    value_overrides:
        Per realization, a per-segment list of variable overrides
        (shape ``k × num_segments``); ``None`` evolves all columns under
        the unperturbed schedule (a plain block :func:`evolve_schedule`).
    """
    num_qubits = schedule.aais.num_sites
    states = _check_block(states, num_qubits, "evolve_schedule_block")
    if value_overrides is None:
        return evolve_schedule(states, schedule, backend=backend)
    k = states.shape[1]
    if len(value_overrides) != k:
        raise SimulationError(
            f"{len(value_overrides)} override lists for {k} state columns"
        )
    segment_values = []
    for index in range(schedule.num_segments):
        base = schedule.values_at_segment(index)
        entries = [overrides[index] for overrides in value_overrides]
        names = {name for entry in entries for name in entry if name in base}
        segment_values.append(
            {
                name: np.array(
                    [entry.get(name, base[name]) for entry in entries],
                    dtype=float,
                )
                for name in names
            }
        )
    return evolve_realizations(states, schedule, segment_values, backend)


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
    takes one path on it:

    * all-Z segments (``auto``): one product of the support's cached
      sign factors gives the ``(k, 2^N)`` diagonals, then one phase
      multiply;
    * otherwise ``matrix_free`` (``auto`` at every register size): one
      Chebyshev recurrence over all columns with a kernel of ``k``
      coefficient rows, inside the union of the rows' spectral bounds
      (column chunks if the memory budget asks for them);
    * ``dense`` only when forced: one batched ``expm`` of the ``k``
      dense matrices, assembled in one BLAS call.  ``auto`` does not
      take it: the ``expm`` of a one-shot Hamiltonian costs more than
      the recurrence from N = 4 up, and about the same below.  It stays
      as the differential reference of the tests.

    The support is the set of strings with a nonzero coefficient in
    any column; :meth:`AAIS.coefficients` has already zeroed entries at
    or below its tolerance, so a segment whose drive is off in every
    realization keeps the diagonal path and φ = 0 keeps the kernel real.

    Parameters
    ----------
    states:
        ``(2^N, k)`` block; column ``i`` is realization ``i``.
    segment_values:
        Per segment, variable overrides as ``(k,)`` arrays (or scalars
        shared by every column) on top of the schedule's values.
    """
    num_qubits = schedule.aais.num_sites
    states = _check_block(states, num_qubits, "evolve_realizations")
    _check_backend(backend)
    if len(segment_values) != schedule.num_segments:
        raise SimulationError(
            f"{len(segment_values)} segment overrides for "
            f"{schedule.num_segments} segments"
        )
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
        )
    return states


def _evolve_rows(
    states: np.ndarray,
    strings: Tuple[Tuple[Tuple[int, str], ...], ...],
    coefficients: np.ndarray,
    duration: float,
    num_qubits: int,
    backend: str,
) -> np.ndarray:
    """``exp(−i H_i t)`` on column ``i``, ``H_i = Σ_s c[i, s] P_s``."""
    k = states.shape[1]
    coefficients = np.broadcast_to(coefficients, (k, len(strings)))
    support = np.flatnonzero(coefficients.any(axis=0))
    if duration == 0 or not support.size:
        return states
    strings = tuple(strings[i] for i in support)
    coefficients = coefficients[:, support]
    structure = _structure_for(strings, num_qubits)
    if backend == "auto" and structure.is_diagonal:
        record_fast_path("diagonal", k)
        diagonal = structure.diagonal_rows(coefficients)
        return states * np.exp(-1j * duration * diagonal).T
    # Realizations never recur, so the propagator cache is not probed.
    if backend == "dense":
        record_fast_path("dense_build", k)
        unitaries = batched_propagators(
            strings, coefficients, [duration] * k, num_qubits
        )
        return np.matmul(unitaries, states.T[:, :, None])[:, :, 0].T
    record_fast_path("matrix_free", k)
    out = np.empty_like(states)
    chunk = matrix_free_block_columns(num_qubits, hamiltonian_per_column=True)
    for start in range(0, k, chunk):
        cols = slice(start, start + chunk)
        kernel = HamiltonianKernel.from_rows(
            strings, coefficients[cols], num_qubits
        )
        out[:, cols] = kernel_expm_multiply(kernel, states[:, cols], duration)
    return out
