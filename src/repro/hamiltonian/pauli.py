"""Sparse Pauli-string algebra.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators
(X, Y, Z) acting on named qubit indices, with identities implied everywhere
else.  This mirrors the notation of the paper: ``Z1 Z2`` means
``Z ⊗ Z ⊗ I ⊗ …`` on qubits 1 and 2.

Pauli strings are immutable and hashable so they can key the coefficient
dictionaries used throughout the compiler (the :math:`B^i` vectors of
Equation (3) are indexed by Pauli strings).

The full group algebra is supported: products of Pauli strings return a
``(phase, PauliString)`` pair, where the phase is one of ``1, -1, 1j, -1j``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Mapping, Tuple

from repro.errors import HamiltonianError

__all__ = ["PauliString", "PAULI_LABELS", "pauli_order_key"]

PAULI_LABELS = ("X", "Y", "Z")

# Single-qubit products: _PRODUCT[(a, b)] = (phase, result) with "I" for the
# identity, covering a·b for a, b ∈ {X, Y, Z}.
_PRODUCT: Dict[Tuple[str, str], Tuple[complex, str]] = {
    ("X", "X"): (1, "I"),
    ("Y", "Y"): (1, "I"),
    ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


def pauli_order_key(
    string: "PauliString",
) -> Tuple[int, Tuple[Tuple[int, str], ...]]:
    """Sort key of the total order of :class:`PauliString`.

    ``sorted(strings, key=pauli_order_key)`` gives exactly the order of
    ``sorted(strings)`` — weight first, then the sorted ops — without a
    Python-level ``__lt__`` call per comparison.
    """
    return (len(string._ops), string._ops)


def _restore_pauli(ops) -> "PauliString":
    """Rebuild a pickled :class:`PauliString` from its sorted ops tuple.

    Bypasses constructor validation (the ops were normalized when the
    string was first built) — unpickling sits on the hot path of
    process-pool dispatch.
    """
    string = PauliString.__new__(PauliString)
    string._ops = ops
    string._hash = hash(ops)
    return string


class PauliString:
    """An immutable product of single-qubit Pauli operators.

    Parameters
    ----------
    ops:
        Mapping from qubit index to one of ``"X"``, ``"Y"``, ``"Z"``.
        Qubits absent from the mapping carry the identity.  An empty
        mapping is the identity string.

    Examples
    --------
    >>> zz = PauliString({0: "Z", 1: "Z"})
    >>> zz.weight
    2
    >>> str(zz)
    'Z0*Z1'
    """

    __slots__ = ("_ops", "_hash")

    def __init__(self, ops: Mapping[int, str] = ()):  # type: ignore[assignment]
        items = dict(ops).items() if ops else ()
        normalized = []
        for qubit, label in items:
            if not isinstance(qubit, int) or qubit < 0:
                raise HamiltonianError(
                    f"qubit index must be a non-negative int, got {qubit!r}"
                )
            if label not in PAULI_LABELS:
                raise HamiltonianError(
                    f"Pauli label must be one of {PAULI_LABELS}, got {label!r}"
                )
            normalized.append((qubit, label))
        normalized.sort()
        self._ops: Tuple[Tuple[int, str], ...] = tuple(normalized)
        self._hash = hash(self._ops)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls) -> "PauliString":
        """The identity string (acts trivially on every qubit)."""
        return cls({})

    @classmethod
    def single(cls, label: str, qubit: int) -> "PauliString":
        """A single Pauli operator, e.g. ``PauliString.single("X", 3)``."""
        return cls({qubit: label})

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a dense label such as ``"ZZI"`` (qubit 0 leftmost).

        ``"I"`` characters are skipped; everything else must be X/Y/Z.
        """
        ops = {}
        for qubit, char in enumerate(label.strip().upper()):
            if char == "I":
                continue
            if char not in PAULI_LABELS:
                raise HamiltonianError(f"invalid Pauli character {char!r} in {label!r}")
            ops[qubit] = char
        return cls(ops)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, str]]) -> "PauliString":
        """Build from ``(qubit, label)`` pairs; duplicate qubits are an error."""
        ops: Dict[int, str] = {}
        for qubit, label in pairs:
            if qubit in ops:
                raise HamiltonianError(f"duplicate qubit {qubit} in Pauli pairs")
            ops[qubit] = label
        return cls(ops)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def ops(self) -> Tuple[Tuple[int, str], ...]:
        """Sorted ``(qubit, label)`` pairs, identities omitted."""
        return self._ops

    @property
    def support(self) -> Tuple[int, ...]:
        """Qubits on which the string acts non-trivially."""
        return tuple(q for q, _ in self._ops)

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return len(self._ops)

    @property
    def is_identity(self) -> bool:
        return not self._ops

    def label_on(self, qubit: int) -> str:
        """The Pauli label acting on ``qubit`` (``"I"`` when untouched)."""
        for q, label in self._ops:
            if q == qubit:
                return label
        return "I"

    def max_qubit(self) -> int:
        """Largest qubit index touched; -1 for the identity."""
        return self._ops[-1][0] if self._ops else -1

    @property
    def canonical_key(self) -> Tuple[Tuple[int, str], ...]:
        """A deterministic, hashable identity for this string.

        Unlike :func:`hash`, the key is stable across processes and
        Python invocations, so it can key shared caches (the operator
        matrix cache) and appear in serialized cache reports.
        """
        return self._ops

    def stable_hash(self) -> str:
        """Process-independent hex digest of :attr:`canonical_key`.

        ``hash()`` of the underlying tuple is salted per interpreter for
        strings; this digest is reproducible everywhere, which matters
        when batch workers in different processes must agree on cache
        identity.
        """
        payload = ";".join(f"{q}:{label}" for q, label in self._ops)
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def multiply(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Group product ``self · other`` as a ``(phase, string)`` pair."""
        if not isinstance(other, PauliString):
            raise TypeError(f"cannot multiply PauliString by {type(other).__name__}")
        ops = dict(self._ops)
        phase: complex = 1
        for qubit, label in other._ops:
            mine = ops.get(qubit)
            if mine is None:
                ops[qubit] = label
                continue
            factor, result = _PRODUCT[(mine, label)]
            phase *= factor
            if result == "I":
                del ops[qubit]
            else:
                ops[qubit] = result
        return phase, PauliString(ops)

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two strings commute as operators.

        Two Pauli strings commute iff they anticommute on an even number
        of shared qubits.
        """
        anticommuting = 0
        other_ops = dict(other._ops)
        for qubit, label in self._ops:
            theirs = other_ops.get(qubit)
            if theirs is not None and theirs != label:
                anticommuting += 1
        return anticommuting % 2 == 0

    def relabeled(self, mapping: Mapping[int, int]) -> "PauliString":
        """Apply a qubit-index permutation (used by the site mapper)."""
        ops = {}
        for qubit, label in self._ops:
            target = mapping.get(qubit, qubit)
            if target in ops:
                raise HamiltonianError(
                    f"mapping sends two qubits onto index {target}"
                )
            ops[target] = label
        return PauliString(ops)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self._ops == other._ops

    def __lt__(self, other: "PauliString") -> bool:
        """Deterministic total order: by weight, then lexicographic ops."""
        if not isinstance(other, PauliString):
            return NotImplemented
        return pauli_order_key(self) < pauli_order_key(other)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle only the ops and recompute ``_hash`` on load: the
        # cached value is salted by this process's PYTHONHASHSEED, so
        # shipping it across a process boundary would hand the receiver
        # a hash inconsistent with locally built equal strings — and it
        # makes pickle bytes (used for content digests) process-
        # dependent.
        return (_restore_pauli, (self._ops,))

    def __mul__(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        return self.multiply(other)

    def __str__(self) -> str:
        if not self._ops:
            return "I"
        return "*".join(f"{label}{qubit}" for qubit, label in self._ops)

    def __repr__(self) -> str:
        return f"PauliString({dict(self._ops)!r})"
