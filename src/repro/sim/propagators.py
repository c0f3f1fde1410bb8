"""Dense propagators and shared settings of the simulation engine.

:func:`repro.sim.evolution._evolve_rows` picks one of three paths per
segment: ``diagonal`` (all-Z support, any size), ``dense`` (ideal
evolution at N ≤ :data:`DENSE_MAX_QUBITS`) and ``matrix_free`` (the
Pauli-kernel Chebyshev propagator of :mod:`repro.sim.kernels`,
everything else).  This module holds the dense half:

* **dense assembly** — the Hamiltonians of one segment are coefficient
  rows over one Pauli support, built in a single BLAS call (coefficient
  matrix × flattened string stack) and exponentiated with one batched
  :func:`scipy.linalg.expm`;
* **propagator cache** — the dense unitary ``exp(−i H t)`` of an ideal
  segment is memoized on ``(support, coefficient row, duration, N)``,
  so a schedule evolved again (repeated verification, batch jobs,
  benchmark loops) costs one matmul per segment.

It also keeps the fast-path column counters, the matrix-free memory
budget and the cache statistics (:func:`simulation_cache_stats`).  All
caches reuse the thread-safe LRU of :class:`repro.sim.operators
.MatrixCache`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.sim.kernels import (
    block_matrix_bytes,
    clear_kernel_caches,
    configure_kernel_caches,
    kernel_cache_stats,
)
from repro.sim.operators import (
    _SINGLE,
    MatrixCache,
    _check_size,
)

__all__ = [
    "DENSE_MAX_QUBITS",
    "dense_stack",
    "coefficient_rows",
    "batched_propagators",
    "cached_row_propagator",
    "matrix_free_block_columns",
    "memory_budget_bytes",
    "BACKEND_NAMES",
    "record_fast_path",
    "simulation_cache_stats",
    "clear_simulation_caches",
    "configure_simulation_caches",
]

#: Default cache capacities (entries).
DEFAULT_PROPAGATOR_CACHE_SIZE = 256
DEFAULT_DENSE_STRING_CACHE_SIZE = 2048

#: Ideal evolution takes the cached dense propagator up to this register
#: size and runs matrix-free above it, where building the ``2^N × 2^N``
#: unitary costs more than the Chebyshev recurrence it would replace.
DENSE_MAX_QUBITS = 7

#: Working-set budget (bytes) of the matrix-free path: it sizes the
#: column chunks of wide blocks.
DEFAULT_MEMORY_BUDGET_BYTES = 512 * 2**20

#: The evolution backends (``auto`` resolves per segment; the other two
#: force one path and serve as the tests' reference).
BACKEND_NAMES = ("auto", "dense", "matrix_free")

_propagator_cache = MatrixCache(DEFAULT_PROPAGATOR_CACHE_SIZE)
_dense_string_cache = MatrixCache(DEFAULT_DENSE_STRING_CACHE_SIZE)

_limits = {"memory_budget_bytes": DEFAULT_MEMORY_BUDGET_BYTES}


class _FastPathCounters:
    """How many state columns went through each evolution path."""

    __slots__ = ("_lock", "_counts")

    # No path records ``krylov`` any more; it stays as a counter that
    # reads 0 because benchmark traces index all five names.
    _NAMES = (
        "diagonal",
        "propagator",
        "dense_build",
        "krylov",
        "matrix_free",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._NAMES}

    def record(self, name: str, columns: int = 1) -> None:
        with self._lock:
            self._counts[name] += int(columns)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for name in self._NAMES:
                self._counts[name] = 0


_counters = _FastPathCounters()


def record_fast_path(name: str, columns: int = 1) -> None:
    """Count ``columns`` state columns evolved through path ``name``."""
    _counters.record(name, columns)


def memory_budget_bytes() -> int:
    """The working-set budget the matrix-free path plans against."""
    return _limits["memory_budget_bytes"]


def matrix_free_block_columns(
    num_qubits: int, hamiltonian_per_column: bool = False
) -> int:
    """Widest column chunk the matrix-free propagators get at once.

    Each column costs about eight block-sized complex buffers: the
    input, the output and the Chebyshev recurrence's five row blocks
    plus a transpose.  Each Hamiltonian of the kernel adds its per-row
    diagonal, the scaled and the doubled diagonal (float64 each), its
    ``2^m × 2^m`` tail matrix and, when ``b = min(m, N − m) > 0``, its
    ``2^b × 2^b`` head matrix.  A shared Hamiltonian pays that once per
    chunk; with ``hamiltonian_per_column`` (noise realizations, one
    coefficient row per column) every column pays it.  Wide blocks are
    propagated in chunks sized to keep the whole working set inside the
    memory budget.
    """
    dim = 1 << num_qubits
    column = 8 * dim * 16
    hamiltonian = 3 * dim * 8 + block_matrix_bytes(num_qubits)
    budget = _limits["memory_budget_bytes"]
    if hamiltonian_per_column:
        return int(max(1, budget // (column + hamiltonian)))
    return int(max(1, (budget - hamiltonian) // column))


def _check_support(hamiltonian: Hamiltonian, num_qubits: int) -> None:
    """Reject strings touching qubits outside the register.

    The sparse operator layer raises this from ``hamiltonian_matrix``;
    the fast paths must enforce the same contract (a silent
    ``range(num_qubits)`` loop would treat out-of-range operators as
    identity and return a wrong state)."""
    for string in hamiltonian.terms:
        if string.max_qubit() >= num_qubits:
            raise SimulationError(
                f"string {string} touches qubit {string.max_qubit()} but "
                f"the register has only {num_qubits} qubits"
            )


# ----------------------------------------------------------------------
# Dense assembly
# ----------------------------------------------------------------------
def _string_dense_flat(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> np.ndarray:
    """Flattened dense matrix of one Pauli string (cached, shared).

    Built as a chain of dense ``np.kron`` products — an order of
    magnitude cheaper than assembling the sparse CSR form just to
    densify it.
    """
    key = (ops, num_qubits)
    cached = _dense_string_cache.get(key)
    if cached is not None:
        return cached
    op_map = dict(ops)
    dense = np.ones((1, 1), dtype=complex)
    for qubit in range(num_qubits):
        dense = np.kron(dense, _SINGLE[op_map.get(qubit, "I")])
    flat = dense.reshape(-1)
    _dense_string_cache.put(key, flat)
    return flat


def coefficient_rows(
    hamiltonians: Sequence[Hamiltonian], num_qubits: int
) -> Tuple[Tuple[Tuple[Tuple[int, str], ...], ...], np.ndarray]:
    """The union support of ``hamiltonians`` and their ``(k, S)``
    coefficient matrix over it (canonical keys, first-seen order)."""
    strings: Dict[Tuple, int] = {}
    for hamiltonian in hamiltonians:
        _check_support(hamiltonian, num_qubits)
        for string in hamiltonian.pauli_strings():
            strings.setdefault(string.canonical_key, len(strings))
    coefficients = np.zeros((len(hamiltonians), len(strings)))
    for row, hamiltonian in enumerate(hamiltonians):
        for string, coeff in hamiltonian.terms.items():
            coefficients[row, strings[string.canonical_key]] = coeff
    return tuple(strings), coefficients


def dense_stack(
    strings: Sequence[Tuple[Tuple[int, str], ...]],
    coefficients: np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """Dense matrices of ``k`` coefficient rows in one BLAS call.

    The Hamiltonians of one batch are rows over one Pauli support that
    differ only in coefficients, so the whole batch is the coefficient
    matrix times a stack of flattened (cached) string matrices:
    ``(k, S) @ (S, d²) → (k, d, d)``.
    """
    _check_size(num_qubits)
    dim = 2**num_qubits
    if not len(strings):
        return np.zeros((len(coefficients), dim, dim), dtype=complex)
    basis = np.stack(
        [_string_dense_flat(ops, num_qubits) for ops in strings]
    )
    return (coefficients @ basis).reshape(len(coefficients), dim, dim)


def batched_propagators(
    strings: Sequence[Tuple[Tuple[int, str], ...]],
    coefficients: np.ndarray,
    durations: Sequence[float],
    num_qubits: int,
) -> np.ndarray:
    """Dense unitaries of ``k`` coefficient rows and durations via one
    batched ``expm``; ``(k, 2^N, 2^N)``."""
    stack = dense_stack(strings, coefficients, num_qubits)
    scales = -1j * np.asarray(durations, dtype=float)
    stack = stack * scales[:, None, None]
    if len(stack) == 1:
        return expm(stack[0])[None]
    return expm(stack)


def cached_row_propagator(
    strings: Tuple[Tuple[Tuple[int, str], ...], ...],
    coefficients: np.ndarray,
    duration: float,
    num_qubits: int,
) -> Tuple[np.ndarray, bool]:
    """The dense unitary of one ``(1, S)`` coefficient row, memoized on
    ``(strings, row, duration, N)``; returns ``(unitary, hit)``."""
    key = (strings, coefficients.tobytes(), float(duration), num_qubits)
    unitary = _propagator_cache.get(key)
    if unitary is not None:
        return unitary, True
    unitary = batched_propagators(
        strings, coefficients, [duration], num_qubits
    )[0]
    _propagator_cache.put(key, unitary)
    return unitary, False


# ----------------------------------------------------------------------
# Statistics / configuration
# ----------------------------------------------------------------------
def simulation_cache_stats() -> Dict[str, object]:
    """Statistics of the simulation fast-path caches and counters.

    ``fast_paths`` counts evolved state *columns* per mechanism:
    ``diagonal`` (phase multiply), ``propagator`` (cached-unitary
    matmul), ``dense_build`` (freshly exponentiated dense batch) and
    ``matrix_free`` (Pauli kernels + Chebyshev); ``krylov`` is retired
    and always 0.  ``kernel`` nests the matrix-free sign /
    structure / kernel cache counters.
    """
    return {
        "propagator": _propagator_cache.stats(),
        "dense_string": _dense_string_cache.stats(),
        "kernel": kernel_cache_stats(),
        "fast_paths": _counters.snapshot(),
        "limits": dict(_limits),
    }


def clear_simulation_caches() -> None:
    """Empty every fast-path cache (kernels included), reset counters."""
    _propagator_cache.clear()
    _dense_string_cache.clear()
    clear_kernel_caches()
    _counters.reset()


def configure_simulation_caches(
    propagator_maxsize: Optional[int] = None,
    dense_string_maxsize: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    sign_maxsize: Optional[int] = None,
    structure_maxsize: Optional[int] = None,
    kernel_maxsize: Optional[int] = None,
) -> None:
    """Resize the fast-path caches (resized caches clear).

    ``memory_budget_bytes`` sizes the matrix-free working set; the
    ``sign``/``structure``/``kernel`` sizes forward to
    :func:`repro.sim.kernels.configure_kernel_caches`.
    """
    global _propagator_cache, _dense_string_cache
    if propagator_maxsize is not None:
        _propagator_cache = MatrixCache(propagator_maxsize)
    if dense_string_maxsize is not None:
        _dense_string_cache = MatrixCache(dense_string_maxsize)
    if memory_budget_bytes is not None:
        if memory_budget_bytes < 1:
            raise SimulationError(
                f"memory budget must be positive, got {memory_budget_bytes}"
            )
        _limits["memory_budget_bytes"] = int(memory_budget_bytes)
    configure_kernel_caches(
        sign_maxsize=sign_maxsize,
        structure_maxsize=structure_maxsize,
        kernel_maxsize=kernel_maxsize,
    )
