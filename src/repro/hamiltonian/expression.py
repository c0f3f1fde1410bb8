"""Hamiltonian expressions as real linear combinations of Pauli strings.

The compiler works on the coefficient vector of a Hamiltonian in the Pauli
basis (the :math:`A^i` of Equation (2) in the paper).  A
:class:`Hamiltonian` is a thin, immutable-by-convention wrapper around a
``PauliString -> float`` mapping with vector-space operations and the
convenience constructors used by the model library (``x``, ``z``,
``number_op`` for the Rydberg :math:`\\hat n` operator, …).

Coefficients are real: every physical Hamiltonian in the paper is a real
combination of Hermitian Pauli strings.  Complex coefficients are rejected
at construction time to surface sign mistakes early.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.errors import HamiltonianError
from repro.hamiltonian.pauli import PauliString, pauli_order_key

__all__ = [
    "Hamiltonian",
    "x",
    "y",
    "z",
    "zz",
    "xx",
    "yy",
    "number_op",
    "number_number",
]

_DEFAULT_TOL = 1e-12


def _term_order(item: Tuple[PauliString, float]):
    """Sort key of a ``(string, coefficient)`` term: the string's order."""
    return pauli_order_key(item[0])


class Hamiltonian:
    """A real linear combination of Pauli strings.

    Parameters
    ----------
    terms:
        Mapping from :class:`PauliString` to real coefficient.  Terms with
        coefficients below ``tol`` in magnitude are dropped.
    tol:
        Magnitude threshold under which coefficients are treated as zero.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[PauliString, float] = (),  # type: ignore[assignment]
        tol: float = _DEFAULT_TOL,
    ):
        clean: Dict[PauliString, float] = {}
        items = terms.items() if terms else ()
        for string, coeff in items:
            if not isinstance(string, PauliString):
                raise HamiltonianError(
                    f"Hamiltonian keys must be PauliString, got {type(string).__name__}"
                )
            value = _as_real(coeff)
            if abs(value) > tol:
                clean[string] = clean.get(string, 0.0) + value
        self._terms = {s: c for s, c in clean.items() if abs(c) > tol}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "Hamiltonian":
        return cls({})

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[PauliString, float]]
    ) -> "Hamiltonian":
        terms: Dict[PauliString, float] = {}
        for string, coeff in pairs:
            terms[string] = terms.get(string, 0.0) + _as_real(coeff)
        return cls(terms)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def terms(self) -> Dict[PauliString, float]:
        """A copy of the coefficient mapping."""
        return dict(self._terms)

    def coefficient(self, string: PauliString) -> float:
        """Coefficient of ``string`` (0.0 when absent)."""
        return self._terms.get(string, 0.0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def pauli_strings(self) -> Tuple[PauliString, ...]:
        """The Pauli strings present, in deterministic sorted order."""
        return tuple(sorted(self._terms, key=pauli_order_key))

    def num_qubits(self) -> int:
        """Smallest qubit count containing the support (max index + 1)."""
        best = -1
        for string in self._terms:
            best = max(best, string.max_qubit())
        return best + 1

    def support(self) -> Tuple[int, ...]:
        """Sorted union of all qubit indices touched by any term."""
        qubits = set()
        for string in self._terms:
            qubits.update(string.support)
        return tuple(sorted(qubits))

    def without_identity(self) -> "Hamiltonian":
        """Drop the identity term — a global phase, irrelevant to dynamics."""
        return Hamiltonian(
            {s: c for s, c in self._terms.items() if not s.is_identity}
        )

    def l1_norm(self) -> float:
        """Sum of absolute coefficients (the norm of Equation (9))."""
        return sum(abs(c) for c in self._terms.values())

    def max_abs_coefficient(self) -> float:
        """The largest absolute term coefficient (0.0 when empty)."""
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def canonical_key(
        self,
    ) -> Tuple[Tuple[Tuple[Tuple[int, str], ...], float], ...]:
        """A deterministic, hashable identity for this Hamiltonian.

        Terms are listed in the total order of :class:`PauliString`, each
        as ``(string.canonical_key, coefficient)``.  Two Hamiltonians
        built from the same terms in any insertion order share one key,
        which makes it suitable for keying the operator matrix cache.
        """
        return tuple(
            (s.canonical_key, c)
            for s, c in sorted(self._terms.items(), key=_term_order)
        )

    def stable_hash(self) -> str:
        """Process-independent hex digest of :meth:`canonical_key`.

        ``repr`` of the coefficient round-trips floats exactly, so equal
        Hamiltonians digest identically in every interpreter.
        """
        parts = [
            f"{s.stable_hash()}={coeff!r}"
            for s, coeff in sorted(self._terms.items(), key=_term_order)
        ]
        return hashlib.blake2b(
            "&".join(parts).encode(), digest_size=16
        ).hexdigest()

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        terms = dict(self._terms)
        for string, coeff in other._terms.items():
            terms[string] = terms.get(string, 0.0) + coeff
        return Hamiltonian(terms)

    def __sub__(self, other: "Hamiltonian") -> "Hamiltonian":
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        terms = dict(self._terms)
        for string, coeff in other._terms.items():
            terms[string] = terms.get(string, 0.0) - coeff
        return Hamiltonian(terms)

    def __mul__(self, scalar: float) -> "Hamiltonian":
        value = _as_real(scalar)
        return Hamiltonian({s: c * value for s, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Hamiltonian":
        value = _as_real(scalar)
        if value == 0:
            raise ZeroDivisionError("division of Hamiltonian by zero")
        return self * (1.0 / value)

    def __neg__(self) -> "Hamiltonian":
        return self * -1.0

    def __iter__(self) -> Iterator[Tuple[PauliString, float]]:
        return iter(sorted(self._terms.items(), key=_term_order))

    def relabeled(self, mapping: Mapping[int, int]) -> "Hamiltonian":
        """Apply a qubit permutation to every term (site mapping)."""
        return Hamiltonian(
            {s.relabeled(mapping): c for s, c in self._terms.items()}
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def isclose(self, other: "Hamiltonian", tol: float = 1e-9) -> bool:
        """True when every coefficient matches within ``tol``."""
        strings = set(self._terms) | set(other._terms)
        return all(
            math.isclose(
                self.coefficient(s), other.coefficient(s), abs_tol=tol
            )
            for s in strings
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items(), key=_term_order)))

    def __repr__(self) -> str:
        if not self._terms:
            return "Hamiltonian(0)"
        parts = [
            f"{c:+g}*{s}"
            for s, c in sorted(self._terms.items(), key=_term_order)
        ]
        return "Hamiltonian(" + " ".join(parts) + ")"


def _as_real(value: float) -> float:
    """Coerce to float; reject coefficients with an imaginary part."""
    if isinstance(value, complex):
        if abs(value.imag) > 1e-12:
            raise HamiltonianError(
                f"Hamiltonian coefficients must be real, got {value!r}"
            )
        return float(value.real)
    return float(value)


# ----------------------------------------------------------------------
# Convenience single/two-qubit constructors used by the model library
# ----------------------------------------------------------------------
def x(i: int) -> Hamiltonian:
    """Pauli X on qubit ``i``."""
    return Hamiltonian({PauliString.single("X", i): 1.0})


def y(i: int) -> Hamiltonian:
    """Pauli Y on qubit ``i``."""
    return Hamiltonian({PauliString.single("Y", i): 1.0})


def z(i: int) -> Hamiltonian:
    """Pauli Z on qubit ``i``."""
    return Hamiltonian({PauliString.single("Z", i): 1.0})


def zz(i: int, j: int) -> Hamiltonian:
    """ZZ coupling between qubits ``i`` and ``j``."""
    return Hamiltonian({PauliString.from_pairs([(i, "Z"), (j, "Z")]): 1.0})


def xx(i: int, j: int) -> Hamiltonian:
    """XX coupling between qubits ``i`` and ``j``."""
    return Hamiltonian({PauliString.from_pairs([(i, "X"), (j, "X")]): 1.0})


def yy(i: int, j: int) -> Hamiltonian:
    """YY coupling between qubits ``i`` and ``j``."""
    return Hamiltonian({PauliString.from_pairs([(i, "Y"), (j, "Y")]): 1.0})


def number_op(i: int) -> Hamiltonian:
    """Rydberg occupation operator :math:`\\hat n_i = (I - Z_i)/2`."""
    return Hamiltonian(
        {PauliString.identity(): 0.5, PauliString.single("Z", i): -0.5}
    )


def number_number(i: int, j: int) -> Hamiltonian:
    """:math:`\\hat n_i \\hat n_j = (I - Z_i - Z_j + Z_i Z_j)/4`."""
    if i == j:
        raise HamiltonianError("number_number requires two distinct qubits")
    return Hamiltonian(
        {
            PauliString.identity(): 0.25,
            PauliString.single("Z", i): -0.25,
            PauliString.single("Z", j): -0.25,
            PauliString.from_pairs([(i, "Z"), (j, "Z")]): 0.25,
        }
    )
