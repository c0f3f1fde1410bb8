"""Exact state-vector evolution under (piecewise-)constant Hamiltonians.

This plays the role of both QuTiP (the paper's theory curves) and Bloqade
(the pulse-level simulation of compiled schedules): evolve an initial
state under ``exp(−i H t)`` segment by segment.

Every ``evolve*`` entry point accepts either a single state vector of
shape ``(2^N,)`` or a **block** of ``k`` states as a ``(2^N, k)`` matrix
whose columns evolve independently — one solver call pushes all columns
at once.  Each segment dispatches to one of three **backends**
(``backend: auto|dense|matrix_free``):

* ``dense`` — the 2^N×2^N unitary is built (batched across noise
  realizations) and memoized in the propagator cache; small registers.
* ``matrix_free`` — bit-mask Pauli kernels plus a Hermitian Lanczos
  propagator (:mod:`repro.sim.kernels`); no operator is ever
  materialized, so it runs at any register size the state fits.
* ``auto`` — per-segment selection via
  :func:`repro.sim.propagators.select_backend` (Z-only Hamiltonians
  additionally collapse to an elementwise phase multiply at any size).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.pulse.schedule import PulseSchedule
from repro.sim.kernels import expm_multiply_matrix_free
from repro.sim.propagators import (
    BACKEND_NAMES,
    batched_propagators,
    cached_propagator,
    diagonal_vector,
    matrix_free_block_columns,
    matrix_free_krylov_dim,
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
        Pauli-kernel Lanczos path at any size.
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
    matrix-free Pauli-kernel Lanczos propagator.  Only the dense path
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
    states = _check_state(states, num_qubits)
    if states.ndim != 2:
        raise SimulationError(
            f"evolve_block needs a (2^{num_qubits}, k) column block, got "
            f"shape {states.shape}"
        )
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
                max_krylov=matrix_free_krylov_dim(num_qubits),
            )

    if dense_pending:
        # All cache misses of the block are assembled in one BLAS call
        # and exponentiated with one batched expm.
        unitaries = batched_propagators(
            [h for h, _, _ in dense_pending],
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

    This is the Monte-Carlo hot loop restructured: instead of walking
    the schedule once per realization, each *segment* is visited once
    and all realizations cross it together via :func:`evolve_block`.
    Realizations whose overrides coincide for a segment share a single
    Hamiltonian construction and a single solver call.

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
    states = _check_state(states, num_qubits)
    if states.ndim != 2:
        raise SimulationError(
            f"evolve_schedule_block needs a (2^{num_qubits}, k) column "
            f"block, got shape {states.shape}"
        )
    if value_overrides is None:
        return evolve_schedule(
            states, schedule, backend=backend
        )
    k = states.shape[1]
    if len(value_overrides) != k:
        raise SimulationError(
            f"{len(value_overrides)} override lists for {k} state columns"
        )
    for index, segment in enumerate(schedule.segments):
        base = schedule.values_at_segment(index)
        # Deduplicate Hamiltonian construction across realizations:
        # with some noise channels disabled (or duplicated draws) many
        # columns share the exact same override entry.
        built: Dict[Tuple, Hamiltonian] = {}
        hams: List[Hamiltonian] = []
        for col in range(k):
            entry = value_overrides[col][index]
            key = tuple(sorted(entry.items()))
            hamiltonian = built.get(key)
            if hamiltonian is None:
                values = dict(base)
                values.update(entry)
                hamiltonian = schedule.aais.hamiltonian(values)
                built[key] = hamiltonian
            hams.append(hamiltonian)
        states = evolve_block(
            states,
            hams,
            segment.duration,
            num_qubits,
            cache=False,
            backend=backend,
        )
    return states
