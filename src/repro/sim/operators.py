"""Sparse-matrix realizations of Pauli strings and Hamiltonians.

Qubit 0 is the most significant bit of the computational-basis index
(``|q0 q1 … q_{N−1}⟩``), matching the convention of
:mod:`repro.sim.sampling`.  Operators are built as CSR matrices via
Kronecker products of 2×2 factors.

Observables and verification realize Hamiltonians repeatedly, and batch
workloads (:mod:`repro.batch`) compile and verify many structurally
identical targets.  Both Pauli-string and full Hamiltonian matrices are therefore memoized in process-wide LRU caches
keyed on the stable canonical keys of
:meth:`repro.hamiltonian.pauli.PauliString.canonical_key` and
:meth:`repro.hamiltonian.expression.Hamiltonian.canonical_key`.  Cache
statistics are exposed via :func:`operator_cache_stats` so benchmarks
can report hit rates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString

__all__ = [
    "pauli_matrix",
    "pauli_string_matrix",
    "hamiltonian_matrix",
    "number_operator_matrix",
    "MatrixCache",
    "operator_cache_stats",
    "clear_operator_cache",
    "configure_operator_cache",
    "max_operator_qubits",
    "configure_operator_limits",
]

_SINGLE: Dict[str, np.ndarray] = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Default register size above which *materializing* an operator matrix
#: is refused.  The limit is configurable at runtime via
#: :func:`configure_operator_limits`; it only guards the layers that
#: build a matrix — the matrix-free kernels of :mod:`repro.sim.kernels` never
#: build a matrix and are not subject to it.
MAX_QUBITS = 16

_operator_limits = {"max_qubits": MAX_QUBITS}


def max_operator_qubits() -> int:
    """Largest register for which operator matrices may be materialized."""
    return _operator_limits["max_qubits"]


def configure_operator_limits(max_qubits: Optional[int] = None) -> None:
    """Adjust the materialization cap (``None`` leaves it unchanged).

    Raising the cap trades memory for the ability to build explicit
    matrices on larger registers; consider the matrix-free path
    (``backend="matrix_free"`` on the ``evolve*`` functions) before
    doing so — it scales past the cap without ever allocating a
    ``2^N × 2^N`` operator.
    """
    if max_qubits is not None:
        if max_qubits < 1:
            raise SimulationError(
                f"operator qubit cap must be >= 1, got {max_qubits}"
            )
        _operator_limits["max_qubits"] = int(max_qubits)

#: Default cache capacities (entries, not bytes).
DEFAULT_STRING_CACHE_SIZE = 4096
DEFAULT_HAMILTONIAN_CACHE_SIZE = 512


class MatrixCache:
    """A small, thread-safe LRU cache with hit/miss/eviction statistics.

    Values are treated as immutable by the cache; callers that hand
    matrices out of the cache must copy them before exposing them to
    mutation (see :func:`pauli_string_matrix`).  A lock guards every
    lookup/insert because service threads and orphaned deadline
    watchdogs share this cache — an unguarded ``move_to_end`` can race
    a concurrent eviction and raise ``KeyError``.

    Values may be any immutable-by-convention object (sparse matrices,
    dense ndarrays, state vectors); the simulation fast-path caches in
    :mod:`repro.sim.propagators` reuse this class.
    """

    __slots__ = ("maxsize", "_data", "_lock", "hits", "misses", "evictions")

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: object) -> Optional[object]:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }


_string_cache = MatrixCache(DEFAULT_STRING_CACHE_SIZE)
_hamiltonian_cache = MatrixCache(DEFAULT_HAMILTONIAN_CACHE_SIZE)


def operator_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of the process-wide operator caches."""
    return {
        "pauli_string": _string_cache.stats(),
        "hamiltonian": _hamiltonian_cache.stats(),
    }


def clear_operator_cache() -> None:
    """Empty all operator caches and reset their statistics."""
    _string_cache.clear()
    _hamiltonian_cache.clear()


def configure_operator_cache(
    string_maxsize: Optional[int] = None,
    hamiltonian_maxsize: Optional[int] = None,
) -> None:
    """Resize the operator caches (clears the resized cache)."""
    global _string_cache, _hamiltonian_cache
    if string_maxsize is not None:
        _string_cache = MatrixCache(string_maxsize)
    if hamiltonian_maxsize is not None:
        _hamiltonian_cache = MatrixCache(hamiltonian_maxsize)


def pauli_matrix(label: str) -> np.ndarray:
    """The 2×2 matrix of a single-qubit Pauli (or identity)."""
    try:
        return _SINGLE[label].copy()
    except KeyError:
        raise SimulationError(f"unknown Pauli label {label!r}") from None


def _check_size(num_qubits: int) -> None:
    if num_qubits < 1:
        raise SimulationError("operator needs at least 1 qubit")
    cap = _operator_limits["max_qubits"]
    if num_qubits > cap:
        raise SimulationError(
            f"refusing to materialize a 2^{num_qubits}-dimensional "
            f"operator matrix (configurable cap: {cap} qubits). Use the "
            f"matrix-free path instead — the sim.evolve* functions and "
            f"NoisySimulator take it on their own on large registers "
            f"(backend='matrix_free' forces it) and apply Pauli kernels "
            f"without building the matrix; "
            f"or raise the cap explicitly via "
            f"repro.sim.operators.configure_operator_limits(max_qubits=...)"
        )


def _string_matrix(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> sparse.csr_matrix:
    """Cached CSR matrix of a Pauli-ops tuple.  Do not mutate the result."""
    key = (ops, num_qubits)
    cached = _string_cache.get(key)
    if cached is not None:
        return cached
    result = sparse.identity(1, dtype=complex, format="csr")
    op_map = dict(ops)
    for qubit in range(num_qubits):
        factor = _SINGLE[op_map.get(qubit, "I")]
        result = sparse.kron(result, factor, format="csr")
    _string_cache.put(key, result)
    return result


def pauli_string_matrix(
    string: PauliString, num_qubits: int
) -> sparse.csr_matrix:
    """CSR matrix of ``string`` embedded in ``num_qubits`` qubits."""
    _check_size(num_qubits)
    if string.max_qubit() >= num_qubits:
        raise SimulationError(
            f"string {string} touches qubit {string.max_qubit()} but the "
            f"register has only {num_qubits} qubits"
        )
    return _string_matrix(string.canonical_key, num_qubits).copy()


def hamiltonian_matrix(
    hamiltonian: Hamiltonian,
    num_qubits: int,
    copy: bool = True,
    cache: bool = True,
) -> sparse.csr_matrix:
    """CSR matrix ``Σ c_s · P_s`` of a Hamiltonian expression.

    Results are memoized on ``(hamiltonian.canonical_key(), num_qubits)``.
    With ``copy=False`` the cached matrix itself is returned — faster,
    but the caller must not mutate it.  Pass ``cache=False`` for
    one-shot Hamiltonians that will never recur (e.g. randomly
    perturbed noise realizations): they skip the cache entirely instead
    of churning useful entries out of it.
    """
    _check_size(num_qubits)
    key = (hamiltonian.canonical_key(), num_qubits)
    cached = _hamiltonian_cache.get(key) if cache else None
    if cached is None:
        dim = 2**num_qubits
        cached = sparse.csr_matrix((dim, dim), dtype=complex)
        for string, coeff in hamiltonian.terms.items():
            if string.max_qubit() >= num_qubits:
                raise SimulationError(
                    f"string {string} touches qubit {string.max_qubit()} "
                    f"but the register has only {num_qubits} qubits"
                )
            cached = cached + coeff * _string_matrix(
                string.canonical_key, num_qubits
            )
        if cache:
            _hamiltonian_cache.put(key, cached)
    return cached.copy() if copy else cached


def number_operator_matrix(qubit: int, num_qubits: int) -> sparse.csr_matrix:
    """Matrix of the Rydberg occupation ``n̂ = (I − Z)/2`` on one qubit."""
    _check_size(num_qubits)
    identity = sparse.identity(2**num_qubits, dtype=complex, format="csr")
    z = pauli_string_matrix(PauliString.single("Z", qubit), num_qubits)
    return (identity - z) * 0.5
