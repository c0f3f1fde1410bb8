"""Backend selection and dense fast paths of the simulation engine.

:func:`select_backend` picks one of three evolution backends per
segment: ``diagonal`` (all-Z Hamiltonians, any size), ``dense`` (small
registers) and ``matrix_free`` (the Pauli-kernel Chebyshev propagator of
:mod:`repro.sim.kernels`, everything else).  Three mechanisms make the
first two cheap:

* **diagonal evolution** — a Hamiltonian whose every term is built from
  Z operators (detuning-only Rydberg segments, vdW interactions, Ising
  couplings) is diagonal in the computational basis, so
  ``exp(−i H t) |ψ⟩`` is an elementwise phase multiply.  The diagonal
  vectors are memoized per Hamiltonian.
* **dense batch assembly** — the propagator-cache misses of an ideal
  block on a small register, and noise realizations under a forced
  ``backend="dense"``, are built in a single BLAS call (coefficient
  matrix × flattened string stack) and exponentiated with one batched
  :func:`scipy.linalg.expm`.  ``auto`` sends noise realizations
  matrix-free at every size: the ``expm`` of a one-shot Hamiltonian
  is never reused.
* **propagator cache** — the dense unitary ``exp(−i H t)`` of a
  recurring ``(Hamiltonian, duration)`` pair is memoized, so repeated
  segments across shots, stretch factors, and batch jobs collapse to a
  single matmul.

All caches reuse the thread-safe LRU of :class:`repro.sim.operators
.MatrixCache`; statistics are exposed through
:func:`simulation_cache_stats` next to the operator-cache stats.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.sim.kernels import (
    TAIL_QUBITS,
    _structure_for,
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
    "is_diagonal_hamiltonian",
    "diagonal_vector",
    "dense_hamiltonian",
    "dense_stack",
    "coefficient_rows",
    "propagator",
    "batched_propagators",
    "cached_propagator",
    "store_propagator",
    "propagator_max_qubits",
    "propagator_build_max_qubits",
    "select_backend",
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
DEFAULT_DIAGONAL_CACHE_SIZE = 1024
DEFAULT_DENSE_STRING_CACHE_SIZE = 2048

#: Registers larger than this never take the dense-propagator path:
#: a 2^N × 2^N unitary stops paying for itself around N = 10.
DEFAULT_PROPAGATOR_MAX_QUBITS = 10

#: Dense ``expm`` is only *built* on a cache miss up to this size;
#: above it a miss goes matrix-free and only cache *hits* use the
#: dense path.
DEFAULT_PROPAGATOR_BUILD_MAX_QUBITS = 7

#: Working-set budget (bytes) of the matrix-free path: it sizes the
#: column chunks of wide blocks.
DEFAULT_MEMORY_BUDGET_BYTES = 512 * 2**20

#: The selectable evolution backends (``auto`` resolves per segment).
BACKEND_NAMES = ("auto", "dense", "matrix_free")

_propagator_cache = MatrixCache(DEFAULT_PROPAGATOR_CACHE_SIZE)
_diagonal_cache = MatrixCache(DEFAULT_DIAGONAL_CACHE_SIZE)
_dense_string_cache = MatrixCache(DEFAULT_DENSE_STRING_CACHE_SIZE)

_limits = {
    "propagator_max_qubits": DEFAULT_PROPAGATOR_MAX_QUBITS,
    "propagator_build_max_qubits": DEFAULT_PROPAGATOR_BUILD_MAX_QUBITS,
    "memory_budget_bytes": DEFAULT_MEMORY_BUDGET_BYTES,
}


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


def propagator_max_qubits() -> int:
    """Largest register for which the dense-propagator cache is consulted."""
    return _limits["propagator_max_qubits"]


def propagator_build_max_qubits() -> int:
    """Largest register for which a dense propagator is built on a miss."""
    return _limits["propagator_build_max_qubits"]


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
    diagonal, the scaled and the doubled diagonal (float64 each) and its
    ``2^m × 2^m`` tail matrix.  A shared Hamiltonian pays that once per
    chunk; with ``hamiltonian_per_column`` (noise realizations, one
    coefficient row per column) every column pays it.  Wide blocks are
    propagated in chunks sized to keep the whole working set inside the
    memory budget.
    """
    dim = 1 << num_qubits
    column = 8 * dim * 16
    hamiltonian = 3 * dim * 8 + 16 * 4 ** min(TAIL_QUBITS, num_qubits)
    budget = _limits["memory_budget_bytes"]
    if hamiltonian_per_column:
        return int(max(1, budget // (column + hamiltonian)))
    return int(max(1, (budget - hamiltonian) // column))


def select_backend(hamiltonian: Hamiltonian, num_qubits: int) -> str:
    """Pick the evolution path for one segment.

    * ``diagonal`` — every term is Z-only, at any size (a phase
      multiply);
    * ``dense`` — N ≤ :func:`propagator_max_qubits`; the 2^N×2^N
      unitary is cheap and cacheable;
    * ``matrix_free`` — otherwise: Pauli kernels plus Chebyshev, no
      operator ever materialized.
    """
    if is_diagonal_hamiltonian(hamiltonian):
        return "diagonal"
    if num_qubits <= _limits["propagator_max_qubits"]:
        return "dense"
    return "matrix_free"


# ----------------------------------------------------------------------
# Diagonal fast path
# ----------------------------------------------------------------------
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


def is_diagonal_hamiltonian(hamiltonian: Hamiltonian) -> bool:
    """True when every term is a product of Z operators (or identity)."""
    return all(
        label == "Z"
        for string in hamiltonian.terms
        for _, label in string.canonical_key
    )


def diagonal_vector(
    hamiltonian: Hamiltonian, num_qubits: int, cache: bool = True
) -> np.ndarray:
    """Diagonal of a Z-only Hamiltonian as a real vector.

    The caller must have checked :func:`is_diagonal_hamiltonian`.  With
    ``cache=True`` the assembled vector is memoized on the Hamiltonian's
    canonical key.  The sum over strings is one product with the sign
    factors of the support's cached kernel structure, which recur across
    noise realizations that only perturb coefficients.
    """
    key = (hamiltonian.canonical_key(), num_qubits)
    if cache:
        cached = _diagonal_cache.get(key)
        if cached is not None:
            return cached
    _check_support(hamiltonian, num_qubits)
    strings = hamiltonian.pauli_strings()
    coefficients = np.array([[hamiltonian.coefficient(s) for s in strings]])
    structure = _structure_for(
        tuple(s.canonical_key for s in strings), num_qubits
    )
    diagonal = structure.diagonal_rows(coefficients)
    diagonal = (
        np.zeros(2**num_qubits) if diagonal is None else diagonal[0]
    )
    if cache:
        _diagonal_cache.put(key, diagonal)
    return diagonal


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


def dense_hamiltonian(hamiltonian: Hamiltonian, num_qubits: int) -> np.ndarray:
    """Dense matrix of one Hamiltonian via the shared string stack."""
    return dense_stack(
        *coefficient_rows([hamiltonian], num_qubits), num_qubits
    )[0]


# ----------------------------------------------------------------------
# Propagator cache
# ----------------------------------------------------------------------
def _propagator_key(
    hamiltonian: Hamiltonian, duration: float, num_qubits: int
) -> Tuple:
    return (hamiltonian.canonical_key(), num_qubits, float(duration))


def cached_propagator(
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    count_stats: bool = True,
) -> Optional[np.ndarray]:
    """The memoized dense unitary, or None (registers over the cap never
    probe the cache, so they do not distort its hit rate).

    ``count_stats=False`` probes without touching the hit/miss counters
    — for callers that cannot follow a miss with a store (auto-path
    registers above the build threshold), whose guaranteed misses would
    otherwise dilute the reported hit rate.
    """
    if num_qubits > _limits["propagator_max_qubits"]:
        return None
    key = _propagator_key(hamiltonian, duration, num_qubits)
    if count_stats:
        return _propagator_cache.get(key)
    return _propagator_cache.peek(key)


def store_propagator(
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    unitary: np.ndarray,
) -> None:
    if num_qubits <= _limits["propagator_max_qubits"]:
        _propagator_cache.put(
            _propagator_key(hamiltonian, duration, num_qubits), unitary
        )


def propagator(
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    cache: bool = True,
) -> np.ndarray:
    """The dense unitary ``exp(−i H t)``, memoized when ``cache=True``."""
    if cache:
        cached = cached_propagator(hamiltonian, duration, num_qubits)
        if cached is not None:
            return cached
    unitary = expm(-1j * duration * dense_hamiltonian(hamiltonian, num_qubits))
    if cache:
        store_propagator(hamiltonian, duration, num_qubits, unitary)
    return unitary


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
        "diagonal": _diagonal_cache.stats(),
        "dense_string": _dense_string_cache.stats(),
        "kernel": kernel_cache_stats(),
        "fast_paths": _counters.snapshot(),
        "limits": dict(_limits),
    }


def clear_simulation_caches() -> None:
    """Empty every fast-path cache (kernels included), reset counters."""
    _propagator_cache.clear()
    _diagonal_cache.clear()
    _dense_string_cache.clear()
    clear_kernel_caches()
    _counters.reset()


def configure_simulation_caches(
    propagator_maxsize: Optional[int] = None,
    diagonal_maxsize: Optional[int] = None,
    dense_string_maxsize: Optional[int] = None,
    propagator_max_qubits: Optional[int] = None,
    propagator_build_max_qubits: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    sign_maxsize: Optional[int] = None,
    structure_maxsize: Optional[int] = None,
    kernel_maxsize: Optional[int] = None,
) -> None:
    """Resize the fast-path caches / thresholds (resized caches clear).

    ``memory_budget_bytes`` sizes the matrix-free working set; the
    ``sign``/``structure``/``kernel`` sizes forward to
    :func:`repro.sim.kernels.configure_kernel_caches`.
    """
    global _propagator_cache, _diagonal_cache, _dense_string_cache
    if propagator_maxsize is not None:
        _propagator_cache = MatrixCache(propagator_maxsize)
    if diagonal_maxsize is not None:
        _diagonal_cache = MatrixCache(diagonal_maxsize)
    if dense_string_maxsize is not None:
        _dense_string_cache = MatrixCache(dense_string_maxsize)
    if propagator_max_qubits is not None:
        _limits["propagator_max_qubits"] = int(propagator_max_qubits)
    if propagator_build_max_qubits is not None:
        _limits["propagator_build_max_qubits"] = int(
            propagator_build_max_qubits
        )
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
