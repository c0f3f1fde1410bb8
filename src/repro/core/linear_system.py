"""Global linear equation system over synthesized variables (Section 4.1).

One column per channel, one row per non-identity Pauli term that either
appears in the target or is reachable by some channel.  The unknowns are
the synthesized variables α_c = expression_c × T_sim, so the system is
linear regardless of how nonlinear the underlying expressions are — this
is the first stage of QTurbo's two-level solve.

Sign information survives into the linear stage: a Van der Waals channel
can only produce α ≥ 0, so the solve uses bounded least squares
(:func:`scipy.optimize.lsq_linear`) whenever any channel is sign-
constrained.  Otherwise it returns the minimum-norm least-squares
solution ``M⁺ b`` through a :class:`BlockPlan`: ``M`` splits into the
connected components of its row–column graph, 1×1 blocks are solved by
one vectorized divide, and only coupled blocks get a pseudoinverse.

A bounded system of at most :data:`DENSE_TRF_MAX_COLUMNS` columns first
tries the block plan's answer, which is optimal whenever it meets every
bound, and otherwise hands ``lsq_linear`` the dense matrix so each TRF
step solves its subproblem exactly instead of by LSMR iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import lsq_linear
from scipy.sparse.csgraph import connected_components

from repro.aais.channels import Channel
from repro.errors import CompilationError
from repro.hamiltonian.pauli import PauliString, pauli_order_key

__all__ = ["BlockPlan", "GlobalLinearSystem", "LinearSolution"]

#: Widest bounded system solved with dense TRF subproblems.  Above it
#: the sparse LSMR subproblems win: on rydberg-1d ``ising_chain`` one
#: solve took 60 vs 68 ms at 250 columns but 97 vs 73 ms at 297 (one
#: BLAS thread, 2-core VM; table in docs/performance.md).
DENSE_TRF_MAX_COLUMNS = 256


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
    bounded_path:
        How a sign-constrained system was solved: ``"unbounded"`` (the
        block plan's answer met every bound), ``"trf_exact"`` (TRF with
        dense subproblems) or ``"trf_lsmr"`` (TRF with LSMR
        subproblems).  ``None`` for an unbounded system.
    """

    alphas: Dict[str, float]
    residual_l1: float
    unreachable_terms: Tuple[PauliString, ...] = ()
    bounded_path: Optional[str] = None

    def alpha_vector(self, channel_order: Sequence[str]) -> np.ndarray:
        return np.array([self.alphas[name] for name in channel_order])


@dataclass(frozen=True)
class BlockPlan:
    """The unbounded solve of a system matrix, split into independent blocks.

    Permuting rows and columns by the connected components of the
    row–column bipartite graph makes ``M`` block diagonal, and the
    pseudoinverse of a block-diagonal matrix is the block diagonal of
    its blocks' pseudoinverses.  So ``M⁺ b`` is assembled block by
    block: a block with one nonzero is a 1×1 divide, every other block
    multiplies by its own small pseudoinverse.  Channels that reach no
    row get 0 (the minimum-norm choice) and rows no channel reaches
    drop out.  Explicitly stored zeros are removed before the graph is
    built, so no block ever divides by one.

    Attributes
    ----------
    num_channels:
        Length of the solution vector (columns of ``M``).
    single_rows, single_cols, single_coeffs:
        Row, column and coefficient of every 1×1 block.
    coupled:
        ``(rows, cols, pinv)`` of every block with two or more nonzeros.
    """

    num_channels: int
    single_rows: np.ndarray
    single_cols: np.ndarray
    single_coeffs: np.ndarray
    coupled: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @classmethod
    def of(cls, matrix: sparse.spmatrix) -> "BlockPlan":
        """Decompose ``matrix`` and factor its coupled blocks."""
        num_rows, num_cols = matrix.shape
        entries = sparse.coo_matrix(matrix, copy=True)
        entries.sum_duplicates()
        entries.eliminate_zeros()
        # Bipartite graph: rows are nodes 0..m-1, columns m..m+n-1.
        graph = sparse.coo_matrix(
            (
                np.ones(entries.nnz),
                (entries.row, num_rows + entries.col),
            ),
            shape=(num_rows + num_cols,) * 2,
        )
        _, labels = connected_components(graph, directed=False)
        entry_labels = labels[entries.row]
        block_nnz = np.bincount(entry_labels, minlength=labels.max() + 1)
        # A component holding exactly one nonzero is one row by one column.
        single = block_nnz[entry_labels] == 1
        row_labels, col_labels = labels[:num_rows], labels[num_rows:]
        csr = entries.tocsr()
        coupled = []
        for label in np.flatnonzero(block_nnz > 1):
            rows = np.flatnonzero(row_labels == label)
            cols = np.flatnonzero(col_labels == label)
            block = csr[rows][:, cols].toarray()
            coupled.append((rows, cols, np.linalg.pinv(block)))
        return cls(
            num_channels=num_cols,
            single_rows=entries.row[single],
            single_cols=entries.col[single],
            single_coeffs=entries.data[single],
            coupled=tuple(coupled),
        )

    @property
    def singleton_blocks(self) -> int:
        return len(self.single_cols)

    @property
    def coupled_blocks(self) -> int:
        return len(self.coupled)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The minimum-norm least-squares solution ``M⁺ b``."""
        alpha = np.zeros(self.num_channels)
        alpha[self.single_cols] = b[self.single_rows] / self.single_coeffs
        for rows, cols, pinv in self.coupled:
            alpha[cols] = pinv @ b[rows]
        return alpha


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
        self.terms: Tuple[PauliString, ...] = tuple(sorted(rows, key=pauli_order_key))
        self._term_index = {t: k for k, t in enumerate(self.terms)}
        self.channel_names: Tuple[str, ...] = tuple(
            c.name for c in self.channels
        )
        self.matrix = self._build_matrix()
        self._lower, self._upper = self._build_bounds()
        self._plan: "BlockPlan | None" = None

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
        return tuple(sorted(missing, key=pauli_order_key))

    # ------------------------------------------------------------------
    def solve(
        self,
        b_target: Mapping[PauliString, float],
        tol: float = 1e-12,
    ) -> LinearSolution:
        """Solve min ‖M α − b‖ under the channels' sign bounds."""
        b = self.target_vector(b_target)
        path = None
        if self.is_bounded:
            alpha, path = self._solve_bounded(b, tol)
        else:
            alpha = self.block_plan().solve(b)
        alpha = np.where(np.abs(alpha) < 1e-12, 0.0, alpha)
        residual = self.matrix.dot(alpha) - b
        return LinearSolution(
            alphas=dict(zip(self.channel_names, alpha.tolist())),
            residual_l1=float(np.abs(residual).sum()),
            unreachable_terms=self.unreachable_terms_in(b_target),
            bounded_path=path,
        )

    def _solve_bounded(self, b: np.ndarray, tol: float) -> Tuple[np.ndarray, str]:
        """Bounded least squares by TRF, returning α and the path taken.

        Kept on TRF although the unbounded optimum usually already meets
        the sign bounds: solving exactly and clipping the roundoff cut
        the L1 residual from 1e-5 to 1e-14, yet raised the final ε on
        every rydberg-1d job by ~5e-9.  TRF stops ~7e-7 inside α ≥ 0 on
        non-neighbour van der Waals channels, and that offset happens to
        match the long-range tail the atom positions produce, which the
        fixed solve does not model.  Dense subproblems reach the same
        fixed point as LSMR ones to ~1e-11, in a fraction of the time.
        """
        bounds = (self._lower, self._upper)
        if self.matrix.shape[1] > DENSE_TRF_MAX_COLUMNS:
            result = lsq_linear(
                self.matrix, b, bounds=bounds, tol=tol, max_iter=500
            )
            return result.x, "trf_lsmr"
        alpha = self.block_plan().solve(b)
        if np.all((alpha >= self._lower) & (alpha <= self._upper)):
            # An unbounded optimum inside the bounds is the bounded one.
            return alpha, "unbounded"
        result = lsq_linear(
            self.matrix.toarray(), b, bounds=bounds, tol=tol, max_iter=500
        )
        return result.x, "trf_exact"

    def block_plan(self) -> BlockPlan:
        """The unbounded solve's block decomposition, built once and cached.

        Piecewise targets solve the same matrix once per segment, and
        the compiler shares one system across compiles of a term
        structure.  Threads that find no plan may each build one; the
        results are identical, and a single attribute store publishes
        each, so a reader sees either no plan or a complete one.
        """
        plan = self._plan
        if plan is None:
            plan = BlockPlan.of(self.matrix)
            self._plan = plan
        return plan

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

    def column_entries(
        self, names: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzeros of the named channels' columns (refinement's ``M_c``).

        Returns ``(rows, cols, coeffs)``, where ``cols`` indexes
        ``names``, read straight off the CSR arrays: building the
        sub-matrix costs several times more on refinement-sized systems.
        """
        index = {name: k for k, name in enumerate(self.channel_names)}
        position = np.full(len(self.channel_names), -1)
        for k, name in enumerate(names):
            if name not in index:
                raise CompilationError(f"unknown channel {name}")
            position[index[name]] = k
        matrix = self.matrix
        rows = np.repeat(np.arange(len(self.terms)), np.diff(matrix.indptr))
        cols = position[matrix.indices]
        keep = (cols >= 0) & (matrix.data != 0)
        return rows[keep], cols[keep], matrix.data[keep]

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
