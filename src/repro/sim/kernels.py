"""Matrix-free Pauli kernels: apply operators without materializing them.

The sparse layer (:mod:`repro.sim.operators`) realizes every Hamiltonian
as a kron-product CSR matrix, which caps practical registers near the
configurable operator limit.  This module exploits the *structure* of a
Pauli string instead: acting with ``P = ⊗ P_q`` on a computational-basis
state only ever permutes basis indices and multiplies signs/phases, so
``P |ψ⟩`` is one XOR-indexed gather plus an elementwise multiply —
``O(2^N)`` work and memory per term, never ``O(4^N)`` and never a matrix.

With qubit 0 as the most significant bit (the convention of
:mod:`repro.sim.operators` and :mod:`repro.sim.sampling`), a string with
X-support ``m_x``, Y-support ``m_y`` and Z-support ``m_z`` (bit masks
over basis indices) acts as::

    (P ψ)[j] = (−i)^{|Y|} · (−1)^{parity(j & (m_z | m_y))} · ψ[j ^ (m_x | m_y)]

A Hamiltonian kernel groups its all-Z terms into one precomputed real
diagonal and splits its off-diagonal terms by support.  With
``m = min(TAIL_QUBITS, N)`` and ``b = min(TAIL_QUBITS, N − m)``:

* *tail* terms act only on the last ``m`` qubits (the least significant
  index bits).  Their weighted sum is one dense ``2^m × 2^m`` matrix,
  applied to a ``(rows, 2^N)`` block as a single GEMM on its
  ``(rows·2^{N−m}, 2^m)`` reshape;
* *head* terms act only on the first ``b`` qubits (the most significant
  bits).  Their sum is a dense ``2^b × 2^b`` matrix applied from the
  left to each row's ``(2^b, 2^{N−b})`` reshape — the same GEMM on the
  transposed view;
* *lead* terms touch a middle qubit or straddle two blocks.  XOR by a
  flip mask reverses the qubit axes inside the mask, so each lead term
  is a strided view-copy of the ``(rows, 2, …, 2)`` tensor, an optional
  sign multiply and one axpy.  Tail flips alone would make those copies
  move contiguous runs of 1–16 elements, and every copy re-reads the
  whole block; each GEMM replaces all of its block's terms with one pass.
  Single-qubit drive terms leave no lead term at N ≤ 10 and two (the
  middle qubits') at N = 12.

When every off-diagonal term has an even number of Y factors, ``H`` is
a real symmetric matrix and the kernel runs in float64: a complex state
column becomes two real rows (Re and Im) and a real one stays one row.

A kernel may also hold ``h`` Hamiltonians on one support, one
coefficient row each (the noise realizations of a schedule segment),
and then evolves column ``i`` of a ``(2^N, h)`` block under row ``i``:
the diagonal is an ``(h, 2^N)`` array built by one product of cached
sign factors, the head and the tail stacked ``(h, 2^b, 2^b)`` and
``(h, 2^m, 2^m)`` GEMMs, and each lead term's view-copy is shared by all
rows, followed by one axpy per row.  Per-mask sign vectors and
per-term-structure layouts (head and tail bases included) are memoized
in process-wide LRUs (:func:`kernel_cache_stats`), so noise realizations that share a Pauli
support but differ in coefficients reuse every index-arithmetic
artifact.

On top of the kernels, one Hermitian propagator replaces
``scipy.sparse.linalg.expm_multiply``: :func:`chebyshev_expm_multiply`,
a Chebyshev polynomial expansion of ``exp(−i H t)`` inside the kernel's
rigorous spectral bounds (exact diagonal range ± the off-diagonal ℓ1
norm).  It has a deterministic ``≈ ρ·t`` matvec count and five row
blocks of working memory; it transposes the ``(2^N, k)`` block once on
entry and once on exit and pushes every column through each recurrence
step.  :func:`kernel_expm_multiply` runs it on every kernel that is
not all-Z.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import blas

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString
from repro.sim.operators import MatrixCache

__all__ = [
    "HamiltonianKernel",
    "row_kernel",
    "apply_pauli_string",
    "apply_hamiltonian",
    "chebyshev_expm_multiply",
    "kernel_expm_multiply",
    "kernel_cache_stats",
    "clear_kernel_caches",
    "configure_kernel_caches",
]

#: Default cache capacities (entries, not bytes).  A sign vector costs
#: ``2^N`` bytes (int8) and a structure holds one per term, so these are
#: deliberately small next to the matrix caches.
DEFAULT_SIGN_CACHE_SIZE = 128
DEFAULT_STRUCTURE_CACHE_SIZE = 16
DEFAULT_KERNEL_CACHE_SIZE = 16

#: Default relative tolerance of the matrix-free propagator.
DEFAULT_EXPM_TOL = 1e-10

#: Width of the two dense blocks.  Off-diagonal terms supported wholly
#: on the last ``m = min(TAIL_QUBITS, N)`` qubits are summed into one
#: dense ``2^m × 2^m`` matrix and applied as a single GEMM; their
#: view-copies would move contiguous runs of only 1–16 elements.  Terms
#: wholly on the first ``b = min(TAIL_QUBITS, N − m)`` qubits form the
#: head block the same way.  With one BLAS thread, m = 5 ran the
#: Chebyshev recurrence 0–15% faster than m = 4 at N = 8–18 (m = 3 and 6
#: were slower), and ``simulate_mix`` read +4.7% (within its spread).
TAIL_QUBITS = 5

#: Multiply-adds per block GEMM call.  OpenBLAS hands larger products to
#: its worker threads, and for these thin ``(M, 2^m) @ (2^m, 2^m)``
#: shapes the hand-off costs more than the product: unpinned on a 2-core
#: VM such a call took 4–8 ms against 30–140 µs on one thread.  The head
#: and tail are therefore applied in chunks of at most this many.
_GEMM_MULTIPLY_ADDS = 1 << 19

#: Bit-mask index arithmetic uses uint32 basis indices.
_MAX_KERNEL_QUBITS = 31

_sign_cache = MatrixCache(DEFAULT_SIGN_CACHE_SIZE)
_structure_cache = MatrixCache(DEFAULT_STRUCTURE_CACHE_SIZE)
_kernel_cache = MatrixCache(DEFAULT_KERNEL_CACHE_SIZE)

#: Shared basis-index arrays (``np.arange(2^N)``), keyed on N.  Tiny
#: entry count — each array is 4·2^N bytes and every term reuses it.
#: Guarded by a lock: service threads and orphaned deadline watchdogs
#: share this module, and an unguarded evict can race a concurrent pop
#: (see MatrixCache).
_index_cache: Dict[int, np.ndarray] = {}
_INDEX_CACHE_CAP = 4
_index_lock = threading.Lock()


def _check_num_qubits(num_qubits: int) -> None:
    if num_qubits < 1:
        raise SimulationError("kernel needs at least 1 qubit")
    if num_qubits > _MAX_KERNEL_QUBITS:
        raise SimulationError(
            f"matrix-free kernels index basis states as uint32 "
            f"(≤ {_MAX_KERNEL_QUBITS} qubits), got {num_qubits}"
        )


def _index(num_qubits: int) -> np.ndarray:
    """The shared ``arange(2^N)`` basis-index array (uint32)."""
    with _index_lock:
        cached = _index_cache.get(num_qubits)
        if cached is None:
            cached = np.arange(1 << num_qubits, dtype=np.uint32)
            while len(_index_cache) >= _INDEX_CACHE_CAP:
                _index_cache.pop(next(iter(_index_cache)))
            _index_cache[num_qubits] = cached
    return cached


def _parity(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint32 entry (0 or 1)."""
    values = values.copy()
    for shift in (16, 8, 4, 2, 1):
        values ^= values >> np.uint32(shift)
    return (values & np.uint32(1)).astype(np.int8)


def _sign_vector(mask: int, num_qubits: int) -> Optional[np.ndarray]:
    """``(−1)^{parity(j & mask)}`` over all basis indices, as int8.

    Returns None for ``mask == 0`` (all ones) so callers can skip the
    multiply entirely.  Cached per ``(mask, N)`` — Z/Y supports recur
    across every noise realization of a schedule segment.
    """
    if mask == 0:
        return None
    key = (mask, num_qubits)
    cached = _sign_cache.get(key)
    if cached is None:
        parity = _parity(_index(num_qubits) & np.uint32(mask))
        cached = (1 - 2 * parity).astype(np.int8)
        _sign_cache.put(key, cached)
    return cached


def _string_masks(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> Tuple[int, int, int]:
    """``(flip_mask, zy_mask, n_y)`` of a canonical Pauli-ops tuple."""
    flip = 0
    zy = 0
    n_y = 0
    for qubit, label in ops:
        if qubit >= num_qubits:
            raise SimulationError(
                f"string {PauliString(dict(ops))} touches qubit {qubit} "
                f"but the register has only {num_qubits} qubits"
            )
        bit = 1 << (num_qubits - 1 - qubit)
        if label == "X":
            flip |= bit
        elif label == "Y":
            flip |= bit
            zy |= bit
            n_y += 1
        else:  # "Z"
            zy |= bit
    return flip, zy, n_y


# ``(−i)^{n_y}`` — the constant phase collected when rewriting
# ``φ(j ^ m)`` in terms of the output index j (see module docstring).
_GAMMA = (1.0, -1.0j, -1.0, 1.0j)


_REVERSED = slice(None, None, -1)
_FULL = slice(None)


def _flip_slices(mask: int, num_qubits: int) -> Tuple[slice, ...]:
    """Per-axis slices realizing ``j → j ^ mask`` on a ``(2,)*N`` view.

    XOR-ing a basis index by ``mask`` reverses exactly the qubit axes
    inside the mask, so the permuted state is a *strided view*.  Copying
    it merges the contiguous trailing axes, which makes it cheap for the
    lead terms; flips on the last qubits leave runs of a few elements,
    which is why those terms go through the tail GEMM instead.
    """
    return tuple(
        _REVERSED if (mask >> (num_qubits - 1 - axis)) & 1 else _FULL
        for axis in range(num_qubits)
    )


def _string_matrix(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> np.ndarray:
    """The dense ``2^N × 2^N`` matrix of a Pauli-ops tuple (small N only).

    Row ``j`` holds ``γ0·(−1)^{parity(j & zy)}`` in column ``j ^ flip``
    — the module-docstring formula read as a matrix.
    """
    flip, zy, n_y = _string_masks(ops, num_qubits)
    index = _index(num_qubits)
    matrix = np.zeros((index.size, index.size), dtype=complex)
    signs = 1 - 2 * _parity(index & np.uint32(zy)).astype(float)
    matrix[index, index ^ np.uint32(flip)] = _GAMMA[n_y % 4] * signs
    return matrix


def _block_qubits(num_qubits: int) -> Tuple[int, int]:
    """``(b, m)``: the head block covers the first ``b`` qubits and the
    tail block the last ``m``; ``b = 0`` while ``N ≤ TAIL_QUBITS``."""
    tail = min(TAIL_QUBITS, num_qubits)
    return min(TAIL_QUBITS, num_qubits - tail), tail


def block_matrix_bytes(num_qubits: int) -> int:
    """Bytes of one Hamiltonian's head and tail matrices (complex128)."""
    head, tail = _block_qubits(num_qubits)
    return 16 * 4**tail + (16 * 4**head if head else 0)


def _block_basis(
    terms: List[Tuple[int, Tuple[Tuple[int, str], ...]]],
    first: int,
    width: int,
    real: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Slots and stacked transposed ``2^w × 2^w`` matrices of the terms
    supported on qubits ``first … first + width − 1`` (None if none)."""
    slots = np.array([slot for slot, _ in terms], dtype=np.intp)
    if not terms:
        return slots, None
    basis = np.array(
        [
            _string_matrix(tuple((q - first, p) for q, p in ops), width).T
            for _, ops in terms
        ]
    )
    return slots, basis.real.copy() if real else basis


def _block_gemm(
    source: np.ndarray, matrices: np.ndarray, target: np.ndarray
) -> None:
    """``target = source @ matrices`` on stacked ``(…, n, w)`` blocks.

    ``matrices`` is ``(h, w, w)`` and broadcasts over the leading axes.
    The ``n`` axis is cut into chunks of at most ``_GEMM_MULTIPLY_ADDS``
    multiply-adds per 2-D product; transposed views of ``source`` and
    ``target`` are fine (NumPy hands them to BLAS with transpose flags).
    """
    width = matrices.shape[-1]
    step = _GEMM_MULTIPLY_ADDS // (width * width)
    for start in range(0, source.shape[-2], step):
        chunk = slice(start, start + step)
        np.matmul(source[..., chunk, :], matrices, out=target[..., chunk, :])


def _stacked_rows(
    coefficients: np.ndarray, slots: np.ndarray, basis: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """The ``(h, 2^w, 2^w)`` block matrices of ``h`` coefficient rows."""
    if basis is None:
        return None
    return np.tensordot(coefficients[:, slots], basis, axes=1)


def _sign_factors(
    masks: List[int], num_qubits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Two small factors of the ``(S, 2^N)`` ±1 sign matrix of Z masks.

    With the basis index split as ``j = (hi << L) | lo`` for ``L = N // 2``
    low bits, ``(−1)^{parity(j & m)} = (−1)^{parity(hi & m_hi)} ·
    (−1)^{parity(lo & m_lo)}``.  Returns ``high`` ``(2^{N−L}, S)`` and
    ``low`` ``(S, 2^L)`` in float64, so a weighted sum of the rows is one
    product ``high @ (c[:, None] · low)`` reshaped to ``2^N``.
    """
    low_bits = num_qubits // 2
    low_mask = (1 << low_bits) - 1
    high_index = np.arange(1 << (num_qubits - low_bits), dtype=np.uint32)
    low_index = np.arange(1 << low_bits, dtype=np.uint32)
    high_masks = np.array([m >> low_bits for m in masks], dtype=np.uint32)
    low_masks = np.array([m & low_mask for m in masks], dtype=np.uint32)
    high = 1.0 - 2.0 * _parity(high_index[:, None] & high_masks[None, :])
    low = 1.0 - 2.0 * _parity(low_masks[:, None] & low_index[None, :])
    return high, low


class _KernelStructure:
    """Coefficient-independent layout of one Pauli-term set.

    All-Z terms sit at coefficient slots ``diagonal_slots``; their sign
    rows are kept as the two factors of :func:`_sign_factors`
    (``diagonal_high``, ``diagonal_low``), ``O(terms · 2^{N/2})``
    memory.  Off-diagonal terms split by support:

    * ``tail_basis`` stacks the transposed ``2^m × 2^m`` matrices of
      the terms supported wholly on the last ``m`` qubits, at
      coefficient slots ``tail_slots``;
    * ``head_basis`` and ``head_slots`` do the same for the terms
      supported wholly on the first ``b = min(m, N − m)`` qubits;
    * ``lead`` holds ``(slot, flip_slices, gamma0, sign_vector)`` for
      the rest; ``flip_slices`` realizes the term's XOR permutation as a
      strided view on the ``(rows, 2, …, 2)`` tensor form of a row block.

    ``real`` is True when every off-diagonal term has an even number of
    Y factors, i.e. ``H`` is a real symmetric matrix; the block bases
    are then stored as float64.  ``slot`` indexes the coefficient rows
    aligned with the sorted string order of
    :meth:`Hamiltonian.pauli_strings`.
    """

    __slots__ = (
        "num_qubits",
        "real",
        "diagonal_slots",
        "diagonal_high",
        "diagonal_low",
        "lead",
        "head_slots",
        "head_basis",
        "tail_slots",
        "tail_basis",
    )

    def __init__(
        self,
        strings: Tuple[Tuple[Tuple[int, str], ...], ...],
        num_qubits: int,
    ):
        self.num_qubits = num_qubits
        head_qubits, tail_qubits = _block_qubits(num_qubits)
        first_tail = num_qubits - tail_qubits
        self.real = True
        diagonal_slots: List[int] = []
        diagonal_masks: List[int] = []
        self.lead: List[
            Tuple[int, Tuple[slice, ...], complex, Optional[np.ndarray]]
        ] = []
        head: List[Tuple[int, Tuple[Tuple[int, str], ...]]] = []
        tail: List[Tuple[int, Tuple[Tuple[int, str], ...]]] = []
        for slot, ops in enumerate(strings):
            flip, zy, n_y = _string_masks(ops, num_qubits)
            if flip == 0:
                diagonal_slots.append(slot)
                diagonal_masks.append(zy)
                continue
            self.real = self.real and n_y % 2 == 0
            if ops[0][0] >= first_tail:
                tail.append((slot, ops))
                continue
            if ops[-1][0] < head_qubits:
                head.append((slot, ops))
                continue
            self.lead.append(
                (
                    slot,
                    (_FULL,) + _flip_slices(flip, num_qubits),
                    _GAMMA[n_y % 4],
                    _sign_vector(zy, num_qubits),
                )
            )
        self.diagonal_slots = np.array(diagonal_slots, dtype=np.intp)
        self.diagonal_high, self.diagonal_low = _sign_factors(
            diagonal_masks, num_qubits
        )
        self.head_slots, self.head_basis = _block_basis(
            head, 0, head_qubits, self.real
        )
        self.tail_slots, self.tail_basis = _block_basis(
            tail, first_tail, tail_qubits, self.real
        )

    @property
    def is_diagonal(self) -> bool:
        """True when every term is all-Z."""
        return (
            not self.lead and self.head_basis is None and self.tail_basis is None
        )

    def diagonal_rows(self, coefficients: np.ndarray) -> Optional[np.ndarray]:
        """The ``(h, 2^N)`` all-Z diagonals of ``h`` coefficient rows.

        One batched product of the sign factors; None when the set has
        no all-Z term.
        """
        if not self.diagonal_slots.size:
            return None
        weights = coefficients[:, self.diagonal_slots]
        scaled = weights[:, :, None] * self.diagonal_low
        diagonal = np.matmul(self.diagonal_high, scaled)
        return diagonal.reshape(len(coefficients), -1)


def _structure_for(
    strings: Tuple[Tuple[Tuple[int, str], ...], ...], num_qubits: int
) -> _KernelStructure:
    """Cached coefficient-independent structure of a string set.

    Always memoized (like the per-string basis caches of the sparse
    layer): noise realizations share one support and must not rebuild
    sign vectors or tail bases per realization.
    """
    key = (strings, num_qubits)
    cached = _structure_cache.get(key)
    if cached is None:
        cached = _KernelStructure(strings, num_qubits)
        _structure_cache.put(key, cached)
    return cached


class HamiltonianKernel:
    """Matrix-free application of ``H = Σ c_s P_s`` to state blocks.

    Parameters
    ----------
    hamiltonian:
        The Pauli-sum Hamiltonian (real coefficients, so the operator is
        Hermitian).
    num_qubits:
        Register size; every string must fit inside it.

    :meth:`from_rows` builds a kernel of ``h`` Hamiltonians on one
    shared support instead, one coefficient row each (noise
    realizations of a segment); column ``i`` of a ``(2^N, h)`` block is
    then evolved under row ``i``.  A Hamiltonian kernel is the ``h = 1``
    case and applies to any number of columns.

    Notes
    -----
    Construction touches only ``O(h · 2^N)`` memory: the ``(h, 2^N)``
    real diagonal of the all-Z part (one product of the structure's
    cached sign factors), one int8 sign vector per lead off-diagonal
    term (shared through the process-wide sign cache) and the
    ``(h, 2^b, 2^b)`` head and ``(h, 2^m, 2^m)`` tail stacks
    (``tensordot`` of the block coefficients with the cached bases).
    The ``4^N`` matrix is never formed.

    Internally every operation works on a row-major ``(rows, 2^N)``
    block: float64 when ``H`` is :attr:`real`, where a complex column
    becomes two rows (Re and Im) and a real one stays one row; complex128
    otherwise.  Row ``r`` belongs to Hamiltonian ``r mod h``.
    """

    __slots__ = (
        "num_qubits",
        "dim",
        "num_terms",
        "num_hamiltonians",
        "real",
        "_axpy",
        "_diagonal",
        "_lead",
        "_head",
        "_tail",
        "_offdiag_l1",
    )

    def __init__(self, hamiltonian: Hamiltonian, num_qubits: int):
        strings = hamiltonian.pauli_strings()
        self._build(
            tuple(s.canonical_key for s in strings),
            np.array([[hamiltonian.coefficient(s) for s in strings]]),
            num_qubits,
        )

    @classmethod
    def from_rows(
        cls,
        strings: Tuple[Tuple[Tuple[int, str], ...], ...],
        coefficients: np.ndarray,
        num_qubits: int,
        structure: Optional[_KernelStructure] = None,
    ) -> "HamiltonianKernel":
        """A kernel of ``h`` Hamiltonians sharing the support ``strings``.

        ``strings`` are canonical Pauli keys in sorted string order and
        ``coefficients`` is ``(h, len(strings))``; zero entries are
        allowed.  ``structure`` is the support's cached
        :class:`_KernelStructure` when the caller already holds it.
        """
        kernel = cls.__new__(cls)
        kernel._build(strings, coefficients, num_qubits, structure)
        return kernel

    def _build(
        self,
        strings: Tuple[Tuple[Tuple[int, str], ...], ...],
        coefficients: np.ndarray,
        num_qubits: int,
        structure: Optional[_KernelStructure] = None,
    ) -> None:
        _check_num_qubits(num_qubits)
        coefficients = np.asarray(coefficients, dtype=float).reshape(
            -1, len(strings)
        )
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits
        self.num_terms = len(strings)
        self.num_hamiltonians = len(coefficients)
        if structure is None:
            structure = _structure_for(tuple(strings), num_qubits)
        self.real = structure.real
        self._axpy = blas.daxpy if self.real else blas.zaxpy
        self._diagonal = structure.diagonal_rows(coefficients)
        # A real kernel has only even Y counts, so every ``gamma0`` is ±1.
        self._lead: List[
            Tuple[Tuple[slice, ...], Tuple[complex, ...], Optional[np.ndarray]]
        ] = [
            (slices, tuple((gamma0 * coefficients[:, slot]).tolist()), sign)
            for slot, slices, gamma0, sign in structure.lead
        ]
        self._head = _stacked_rows(
            coefficients, structure.head_slots, structure.head_basis
        )
        self._tail = _stacked_rows(
            coefficients, structure.tail_slots, structure.tail_basis
        )
        offdiag_slots = [slot for slot, _, _, _ in structure.lead]
        offdiag_slots.extend(structure.head_slots.tolist())
        offdiag_slots.extend(structure.tail_slots.tolist())
        self._offdiag_l1 = np.abs(coefficients[:, offdiag_slots]).sum(axis=1)

    # ------------------------------------------------------------------
    @property
    def is_diagonal(self) -> bool:
        """True when every term is all-Z (the kernel is a diagonal)."""
        return not self._lead and self._head is None and self._tail is None

    def _coerce(self, states: np.ndarray) -> np.ndarray:
        """Validate and return a C-contiguous complex view of ``states``."""
        states = np.ascontiguousarray(states, dtype=complex)
        if states.shape[0] != self.dim:
            raise SimulationError(
                f"state has leading dimension {states.shape[0]}, kernel "
                f"expects 2^{self.num_qubits}"
            )
        h = self.num_hamiltonians
        if h > 1 and states.shape[1:] != (h,):
            raise SimulationError(
                f"a kernel of {h} Hamiltonians needs a "
                f"(2^{self.num_qubits}, {h}) block, got shape {states.shape}"
            )
        return states

    def _grouped(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as ``(groups, h, 2^N)``: row ``r`` meets Hamiltonian
        ``r mod h``, so per-Hamiltonian ``(h, 2^N)`` arrays broadcast."""
        return rows.reshape(-1, self.num_hamiltonians, self.dim)

    def _to_rows(self, states: np.ndarray) -> Tuple[np.ndarray, bool]:
        """A fresh ``(rows, 2^N)`` row block of ``states``.

        Returns ``(rows, split)``.  For a real kernel a block with any
        imaginary part is split into its real rows followed by its
        imaginary rows (``split`` True); a real block stays one row per
        column.  Complex kernels keep one complex row per column.
        """
        block = states.reshape(self.dim, -1).T
        if not self.real:
            return np.array(block, order="C"), False
        if np.any(block.imag):
            columns = block.shape[0]
            rows = np.empty((2 * columns, self.dim))
            rows[:columns] = block.real
            rows[columns:] = block.imag
            return rows, True
        return np.array(block.real, order="C"), False

    def _from_rows(
        self,
        shape: Tuple[int, ...],
        split: bool,
        rows: np.ndarray,
        times_i: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The complex ``shape`` block of ``rows + i·times_i``.

        Both are results of real-linear maps applied to the rows of
        :meth:`_to_rows`; with ``split`` they are lifted back to complex
        columns (``A(a + ib) = Aa + i·Ab``).
        """
        columns = rows.shape[0] // 2 if split else rows.shape[0]
        out = np.empty((columns, self.dim), dtype=complex)
        if not self.real:
            out[...] = rows
            if times_i is not None:
                out += 1j * times_i
        elif split:
            if times_i is None:
                out.real = rows[:columns]
                out.imag = rows[columns:]
            else:
                np.subtract(rows[:columns], times_i[columns:], out=out.real)
                np.add(rows[columns:], times_i[:columns], out=out.imag)
        else:
            out.real = rows
            out.imag = 0.0 if times_i is None else times_i
        return np.ascontiguousarray(out.T).reshape(shape)

    def _offdiag_into(
        self,
        rows: np.ndarray,
        out: np.ndarray,
        scratch: np.ndarray,
        scale: float = 1.0,
    ) -> None:
        """``out += scale · H_offdiag @ rows`` on row blocks.

        ``rows``, ``out`` and ``scratch`` are C-contiguous blocks of
        ``r`` rows of length ``2^N`` (2-D, or grouped by
        :meth:`_grouped`).

        The tail is one stacked GEMM on the ``(groups, h, 2^{N−m}, 2^m)``
        reshape (a single Hamiltonian folds every row into one matrix)
        plus an axpy; the head is the same GEMM on the transposed
        ``(groups, h, 2^b, 2^{N−b})`` reshape, i.e. its matrix applied
        from the left, plus an axpy.  Each lead term is one strided
        view-copy, an optional in-place sign multiply and an axpy per row
        (one axpy over the whole block for a single Hamiltonian).
        ``scratch`` is overwritten.
        """
        flat_out = out.reshape(-1)
        flat_scratch = scratch.reshape(-1)
        h = self.num_hamiltonians
        if self._tail is not None:
            groups = 1 if h == 1 else rows.size // self.dim // h
            shape = (groups, h, -1, self._tail.shape[-1])
            _block_gemm(rows.reshape(shape), self._tail, scratch.reshape(shape))
            self._axpy(flat_scratch, flat_out, a=scale)
        if self._head is not None:
            width = self._head.shape[-1]
            shape = (-1, h, width, self.dim // width)
            _block_gemm(
                rows.reshape(shape).swapaxes(2, 3),
                self._head,
                scratch.reshape(shape).swapaxes(2, 3),
            )
            self._axpy(flat_scratch, flat_out, a=scale)
        if not self._lead:
            return
        shape = (-1,) + (2,) * self.num_qubits
        source = rows.reshape(shape)
        target = scratch.reshape(shape)
        pieces = 1 if h == 1 else rows.size // self.dim
        scratch_rows = scratch.reshape(pieces, -1)
        out_rows = out.reshape(pieces, -1)
        repeats = pieces // h
        for slices, coefficients, sign in self._lead:
            np.copyto(target, source[slices])
            if sign is not None:
                np.multiply(scratch, sign, out=scratch)
            for row, coefficient in enumerate(coefficients * repeats):
                self._axpy(
                    scratch_rows[row], out_rows[row], a=scale * coefficient
                )

    def apply(self, states: np.ndarray) -> np.ndarray:
        """``H @ states`` for a ``(2^N,)`` vector or ``(2^N, k)`` block."""
        states = self._coerce(states)
        rows, split = self._to_rows(states)
        if self._diagonal is not None:
            out = (self._grouped(rows) * self._diagonal).reshape(rows.shape)
        else:
            out = np.zeros_like(rows)
        if not self.is_diagonal:
            self._offdiag_into(rows, out, np.empty_like(rows))
        return self._from_rows(states.shape, split, out)

    def spectral_bounds(self) -> Tuple[float, float]:
        """Rigorous eigenvalue bounds ``[lo, hi]``, over all ``h`` rows.

        The diagonal part is known exactly; the off-diagonal part is a
        sum of unit-norm Pauli strings, so its 2-norm is at most the ℓ1
        norm of its coefficients (Gershgorin-style).  Used by
        propagators to bound step sizes.
        """
        if self._diagonal is not None:
            lo = self._diagonal.min(axis=1)
            hi = self._diagonal.max(axis=1)
        else:
            lo = hi = np.zeros(self.num_hamiltonians)
        return (
            float((lo - self._offdiag_l1).min()),
            float((hi + self._offdiag_l1).max()),
        )


def row_kernel(
    strings: Tuple[Tuple[Tuple[int, str], ...], ...],
    coefficients: np.ndarray,
    num_qubits: int,
    structure: _KernelStructure,
    cache: bool,
) -> HamiltonianKernel:
    """:meth:`HamiltonianKernel.from_rows` on the support's ``structure``,
    memoized on the rows when ``cache`` is True (ideal evolution, whose
    rows recur)."""
    if not cache:
        return HamiltonianKernel.from_rows(
            strings, coefficients, num_qubits, structure
        )
    key = (strings, coefficients.tobytes(), num_qubits)
    kernel = _kernel_cache.get(key)
    if kernel is None:
        kernel = HamiltonianKernel.from_rows(
            strings, coefficients, num_qubits, structure
        )
        _kernel_cache.put(key, kernel)
    return kernel


def apply_pauli_string(
    string: PauliString,
    states: np.ndarray,
    num_qubits: int,
    coeff: complex = 1.0,
) -> np.ndarray:
    """``coeff · P @ states`` via bit-mask index arithmetic (no matrix)."""
    _check_num_qubits(num_qubits)
    states = np.asarray(states, dtype=complex)
    if states.shape[0] != 1 << num_qubits:
        raise SimulationError(
            f"state has leading dimension {states.shape[0]}, expected "
            f"2^{num_qubits}"
        )
    flip, zy, n_y = _string_masks(string.canonical_key, num_qubits)
    gamma = coeff * _GAMMA[n_y % 4]
    sign = _sign_vector(zy, num_qubits)
    column = states.ndim == 1
    if flip:
        out = states[_index(num_qubits) ^ np.uint32(flip)]
    else:
        out = states.copy()
    if sign is not None:
        out = out * (sign if column else sign[:, None])
    return gamma * out


def apply_hamiltonian(
    hamiltonian: Hamiltonian, states: np.ndarray, num_qubits: int
) -> np.ndarray:
    """``H @ states`` through a matrix-free kernel."""
    return HamiltonianKernel(hamiltonian, num_qubits).apply(states)


def _chebyshev_coefficients(
    span: float, tol: float
) -> np.ndarray:
    """Coefficients ``(2−δ_{k0})(−i)^k J_k(span)`` truncated at ``tol``.

    The Bessel magnitudes decay superexponentially once ``k > span``;
    the series is cut when the running tail drops below ``tol``.  The
    cut sits about ``digits · span^{1/3}`` orders past ``span`` (the
    width of the Bessel transition region times the decades to drop),
    so the first length covers it for spans 0.1–200 at tolerances
    1e-6–1e-16, and ``jv`` runs once.
    """
    from scipy.special import jv

    digits = max(-math.log10(tol), 1.0)
    length = int(span + 6 + (digits + 1) * max(span, 1.0) ** (1.0 / 3.0))
    while True:
        orders = np.arange(length)
        bessel = jv(orders, span)
        tails = np.cumsum(np.abs(bessel[::-1]))[::-1]
        cut = np.nonzero(2.0 * tails <= tol)[0]
        if cut.size:
            count = max(2, int(cut[0]))
            break
        length *= 2
        if length > 200_000:  # pragma: no cover — absurd span guard
            count = len(orders)
            break
    coefficients = 2.0 * (-1j) ** (orders[:count] % 4) * bessel[:count]
    coefficients[0] /= 2.0
    return coefficients


def chebyshev_expm_multiply(
    kernel: HamiltonianKernel,
    states: np.ndarray,
    duration: float,
    tol: float = DEFAULT_EXPM_TOL,
) -> np.ndarray:
    """``exp(−i H t) @ states`` by Chebyshev expansion, matrix-free.

    ``H`` is shifted and scaled into ``[−1, 1]`` using the kernel's
    rigorous spectral bounds, then ``exp(−i a x)`` is expanded in
    Chebyshev polynomials with Bessel-function coefficients.  The
    three-term recurrence needs a fixed ``≈ a = ρ·t`` matvecs and pushes
    every column of a ``(2^N, k)`` block through each step at once.

    The recurrence runs on the kernel's row block (transposed once on
    entry and once on exit).  The coefficients ``(−i)^k J_k`` are real
    for even ``k`` and imaginary for odd ``k``, so the terms feed two
    accumulators with real weights and the result is
    ``e^{−i·shift·t}(even + i·odd)`` — for a real ``H`` the whole
    recurrence stays in float64.  A kernel of ``h`` Hamiltonians
    (:meth:`HamiltonianKernel.from_rows`) runs one recurrence inside the
    union of their spectral bounds, each column under its own row.
    """
    if duration < 0:
        raise SimulationError(f"negative duration {duration}")
    states = kernel._coerce(states)
    lo, hi = kernel.spectral_bounds()
    shift = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo)
    span = radius * duration
    if span == 0.0:
        return np.exp(-1j * shift * duration) * states
    coefficients = _chebyshev_coefficients(span, tol)
    inv_radius = 1.0 / radius

    # With D̃ the scaled diagonal of H̃ = (H − shift)/radius, each step
    # T_{k+1} = 2·H̃·T_k − T_{k−1} is written into the T_{k−1} buffer:
    # one multiply and one subtract for the diagonal, then the
    # off-diagonal routine at scale 2/radius.  Five row blocks in all,
    # independent of the step count, plus the per-Hamiltonian diagonals.
    if kernel._diagonal is not None:
        scaled_diagonal = (kernel._diagonal - shift) * inv_radius
    else:
        scaled_diagonal = np.full((1, kernel.dim), -shift * inv_radius)
    twice_diagonal = 2.0 * scaled_diagonal

    rows, split = kernel._to_rows(states)
    previous = kernel._grouped(rows)
    scratch = np.empty_like(previous)
    current = previous * scaled_diagonal
    kernel._offdiag_into(previous, current, scratch, scale=inv_radius)
    even = coefficients[0].real * previous
    odd = coefficients[1].imag * current
    accumulators = (even.reshape(-1), odd.reshape(-1))
    axpy = kernel._axpy
    for order in range(2, len(coefficients)):
        np.multiply(current, twice_diagonal, out=scratch)
        np.subtract(scratch, previous, out=previous)
        kernel._offdiag_into(current, previous, scratch, 2.0 * inv_radius)
        previous, current = current, previous
        coefficient = coefficients[order]
        weight = coefficient.imag if order & 1 else coefficient.real
        axpy(current.reshape(-1), accumulators[order & 1], a=weight)
    out = kernel._from_rows(
        states.shape, split, even.reshape(rows.shape), odd.reshape(rows.shape)
    )
    out *= np.exp(-1j * shift * duration)
    return out


def kernel_expm_multiply(
    kernel: HamiltonianKernel,
    states: np.ndarray,
    duration: float,
    tol: float = DEFAULT_EXPM_TOL,
) -> np.ndarray:
    """``exp(−i H t) @ states`` for a built kernel: all-Z kernels
    collapse to a phase multiply, every other one takes the Chebyshev
    recurrence."""
    if not kernel.is_diagonal:
        return chebyshev_expm_multiply(kernel, states, duration, tol=tol)
    states = kernel._coerce(states)
    if kernel._diagonal is None:
        return states.copy()
    phase = np.exp(-1j * duration * kernel._diagonal)  # (h, 2^N)
    return states * (phase[0] if states.ndim == 1 else phase.T)


# ----------------------------------------------------------------------
# Cache statistics / configuration
# ----------------------------------------------------------------------
def kernel_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of the matrix-free kernel caches."""
    return {
        "sign": _sign_cache.stats(),
        "structure": _structure_cache.stats(),
        "kernel": _kernel_cache.stats(),
    }


def clear_kernel_caches() -> None:
    """Empty the sign/structure/kernel caches and the index memo."""
    _sign_cache.clear()
    _structure_cache.clear()
    _kernel_cache.clear()
    with _index_lock:
        _index_cache.clear()


def configure_kernel_caches(
    sign_maxsize: Optional[int] = None,
    structure_maxsize: Optional[int] = None,
    kernel_maxsize: Optional[int] = None,
) -> None:
    """Resize the kernel caches (resized caches start empty)."""
    global _sign_cache, _structure_cache, _kernel_cache
    if sign_maxsize is not None:
        _sign_cache = MatrixCache(sign_maxsize)
    if structure_maxsize is not None:
        _structure_cache = MatrixCache(structure_maxsize)
    if kernel_maxsize is not None:
        _kernel_cache = MatrixCache(kernel_maxsize)
