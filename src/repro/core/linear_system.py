"""Global linear equation system over synthesized variables (Section 4.1).

One column per channel, one row per non-identity Pauli term that either
appears in the target or is reachable by some channel.  The unknowns are
the synthesized variables α_c = expression_c × T_sim, so the system is
linear regardless of how nonlinear the underlying expressions are — this
is the first stage of QTurbo's two-level solve.

Sign information survives into the linear stage: a Van der Waals channel
can only produce α ≥ 0, so the solve uses bounded least squares
(:func:`scipy.optimize.lsq_linear`) whenever any channel is sign-
constrained, and plain least squares otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import lsq_linear

from repro.aais.channels import Channel
from repro.errors import CompilationError
from repro.hamiltonian.pauli import PauliString

__all__ = ["GlobalLinearSystem", "LinearSolution"]


@dataclass
class LinearSolution:
    """Result of one global linear solve.

    Attributes
    ----------
    alphas:
        Synthesized-variable value per channel name.
    residual_l1:
        ``||M α − b||₁`` — the ε₁ of Theorem 1.
    unreachable_terms:
        Target terms no channel can drive (rows that are identically
        zero); their coefficients are unavoidable error.
    """

    alphas: Dict[str, float]
    residual_l1: float
    unreachable_terms: Tuple[PauliString, ...] = ()

    def alpha_vector(self, channel_order: Sequence[str]) -> np.ndarray:
        return np.array([self.alphas[name] for name in channel_order])


@dataclass
class GlobalLinearSystem:
    """The matrix form of Equation (3) over synthesized variables.

    Parameters
    ----------
    channels:
        The AAIS channels (columns), in a deterministic order.
    extra_terms:
        Pauli terms to include as rows even if no channel reaches them
        (the target's terms).  Identity terms are ignored everywhere.
    """

    channels: Sequence[Channel]
    extra_terms: Sequence[PauliString] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.channels:
            raise CompilationError("linear system needs at least one channel")
        rows = set()
        for channel in self.channels:
            rows.update(channel.dynamics_terms())
        # Reachability is a property of the channels alone; freeze it
        # before the target's extra rows are merged in so per-solve
        # unreachability checks need no set rebuild.
        self._reachable = frozenset(rows)
        for term in self.extra_terms:
            if not term.is_identity:
                rows.add(term)
        self.terms: Tuple[PauliString, ...] = tuple(sorted(rows))
        self._term_index = {t: k for k, t in enumerate(self.terms)}
        self.channel_names: Tuple[str, ...] = tuple(
            c.name for c in self.channels
        )
        self.matrix = self._build_matrix()
        self._lower, self._upper = self._build_bounds()
        self._pinv: "np.ndarray | None" = None
        self.factorization_reuses = 0

    # ------------------------------------------------------------------
    def _build_matrix(self) -> sparse.csr_matrix:
        data, row_idx, col_idx = [], [], []
        for col, channel in enumerate(self.channels):
            for term, coeff in channel.dynamics_terms().items():
                data.append(coeff)
                row_idx.append(self._term_index[term])
                col_idx.append(col)
        return sparse.csr_matrix(
            (data, (row_idx, col_idx)),
            shape=(len(self.terms), len(self.channels)),
        )

    def _build_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        lower = np.empty(len(self.channels))
        upper = np.empty(len(self.channels))
        for k, channel in enumerate(self.channels):
            lower[k], upper[k] = channel.alpha_bounds()
        return lower, upper

    @property
    def is_bounded(self) -> bool:
        """True when any channel carries a finite α bound (sign constraint)."""
        return bool(
            np.any(np.isfinite(self._lower)) or np.any(np.isfinite(self._upper))
        )

    def matrix_l1_norm(self) -> float:
        """Induced L1 norm (max absolute column sum) — the ‖M‖₁ of Theorem 1."""
        if self.matrix.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(self.matrix).sum(axis=0)))

    def target_vector(self, b_target: Mapping[PauliString, float]) -> np.ndarray:
        """Dense right-hand side aligned with this system's row order."""
        b = np.zeros(len(self.terms))
        for term, value in b_target.items():
            if term.is_identity:
                continue
            index = self._term_index.get(term)
            if index is not None:
                b[index] = value
        return b

    def unreachable_terms_in(
        self, b_target: Mapping[PauliString, float]
    ) -> Tuple[PauliString, ...]:
        """Target terms outside every channel's reach."""
        reachable = self._reachable
        missing = [
            term
            for term, value in b_target.items()
            if not term.is_identity and abs(value) > 0 and term not in reachable
        ]
        return tuple(sorted(missing))

    # ------------------------------------------------------------------
    def solve(
        self,
        b_target: Mapping[PauliString, float],
        tol: float = 1e-12,
    ) -> LinearSolution:
        """Solve min ‖M α − b‖ under the channels' sign bounds."""
        b = self.target_vector(b_target)
        if self.is_bounded:
            result = lsq_linear(
                self.matrix,
                b,
                bounds=(self._lower, self._upper),
                tol=tol,
                max_iter=500,
            )
            alpha = result.x
        else:
            alpha = self.pseudoinverse() @ b
        alpha = np.where(np.abs(alpha) < 1e-12, 0.0, alpha)
        residual = self.matrix.dot(alpha) - b
        return LinearSolution(
            alphas=dict(zip(self.channel_names, alpha.tolist())),
            residual_l1=float(np.abs(residual).sum()),
            unreachable_terms=self.unreachable_terms_in(b_target),
        )

    def pseudoinverse(self) -> np.ndarray:
        """Moore–Penrose pseudoinverse of the system matrix, cached.

        Piecewise targets solve the same matrix once per segment (and
        batch workloads once per job); factoring once and replaying the
        back-substitution turns the unbounded solve into a single
        matrix–vector product.  ``M⁺ b`` is the minimum-norm least-squares
        solution — exactly what ``lstsq`` would return.
        """
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.matrix.toarray())
        else:
            self.factorization_reuses += 1
        return self._pinv

    def residual_vector(
        self,
        alphas: Mapping[str, float],
        b_target: Mapping[PauliString, float],
    ) -> np.ndarray:
        """``M α − b`` for an arbitrary α assignment (used by refinement)."""
        alpha = np.array([alphas[name] for name in self.channel_names])
        return self.matrix.dot(alpha) - self.target_vector(b_target)

    def achieved_b(self, alphas: Mapping[str, float]) -> Dict[PauliString, float]:
        """The B_sim vector realized by synthesized variables ``alphas``."""
        alpha = np.array([alphas[name] for name in self.channel_names])
        values = self.matrix.dot(alpha)
        return {term: float(value) for term, value in zip(self.terms, values)}

    def columns(self, names: Sequence[str]) -> sparse.csr_matrix:
        """Sub-matrix of the named channels (refinement's M_c / M_r split)."""
        index = {name: k for k, name in enumerate(self.channel_names)}
        cols = []
        for name in names:
            if name not in index:
                raise CompilationError(f"unknown channel {name}")
            cols.append(index[name])
        return self.matrix[:, cols]

    def __repr__(self) -> str:
        rows, cols = self.matrix.shape
        return f"GlobalLinearSystem({rows} terms x {cols} channels)"


def l1_norm(values: Mapping[PauliString, float]) -> float:
    """L1 norm of a Pauli coefficient vector, identity excluded."""
    return sum(
        abs(v) for t, v in values.items() if not t.is_identity
    )


def b_difference_l1(
    b_sim: Mapping[PauliString, float],
    b_target: Mapping[PauliString, float],
) -> float:
    """``||B_sim − B_tar||₁`` over the union of non-identity terms."""
    total = 0.0
    keys = set(b_sim) | set(b_target)
    for term in keys:
        if term.is_identity:
            continue
        total += abs(b_sim.get(term, 0.0) - b_target.get(term, 0.0))
    return total


def _finite(value: float) -> bool:
    return not (math.isinf(value) or math.isnan(value))
