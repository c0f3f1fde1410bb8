"""Iterative refinement of the dynamic synthesized variables (Section 6.2).

After the runtime-fixed variables are solved, their channels realize
slightly different synthesized values than the linear solve requested
(atom positions cannot make a long-range tail exactly zero).  The paper's
refinement re-solves the *dynamic* synthesized variables to absorb that
residual: split the linear matrix ``M = [M_r | M_c]`` into fixed and
dynamic columns and minimize

.. math::

    \\| M_r\\,\\delta\\alpha_r + M_c\\,\\delta\\alpha_c \\|_1

over δα_c, subject to the dynamic amplitudes staying within hardware
bounds at the already-chosen evolution time.

The L1 objective separates along the connected components of ``M_c``'s
row–column graph; rows no dynamic column touches only add a constant.
A component with one column is ``min_{δ∈[lo,hi]} Σₖ |mₖδ + rₖ|``, a
weighted median of ``−rₖ/mₖ`` (weights ``|mₖ|``) clipped to the box,
solved in closed form.  Only a component whose columns share a row goes
to an exact linear program (HiGHS via :func:`scipy.optimize.linprog`)
over its own rows; no shipped instruction set produces one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from repro.aais.channels import Channel
from repro.core.linear_system import GlobalLinearSystem

__all__ = ["RefinementResult", "refine_dynamic_alphas"]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of one refinement pass.

    Attributes
    ----------
    alphas:
        Updated synthesized-variable targets for the *dynamic* channels
        (fixed channels keep their achieved values).
    residual_l1_before / residual_l1_after:
        ``||M α − b||₁`` using achieved-fixed + dynamic targets, before
        and after the pass.  ``after ≤ before`` up to solver tolerance.
    applied:
        False when the solve failed (or no dynamic channel exists) and
        the original targets were kept.
    closed_form_components / lp_components:
        How many components of ``M_c`` were solved in closed form (one
        column) and by a linear program (columns sharing a row).
    """

    alphas: Dict[str, float]
    residual_l1_before: float
    residual_l1_after: float
    applied: bool
    closed_form_components: int = 0
    lp_components: int = 0


def refine_dynamic_alphas(
    system: GlobalLinearSystem,
    b_target: Mapping,
    current_alphas: Mapping[str, float],
    dynamic_channels: Sequence[Channel],
    t_sim: float,
) -> RefinementResult:
    """One L1 refinement pass over the dynamic synthesized variables.

    Parameters
    ----------
    system:
        The global linear system (provides M and the row order).
    b_target:
        Target coefficient vector (PauliString → value).
    current_alphas:
        Synthesized values per channel: *achieved* values for fixed
        channels, current targets for dynamic channels.
    dynamic_channels:
        The channels whose targets may move.
    t_sim:
        Chosen evolution time; bounds δα so amplitudes stay realizable.
    """
    r = system.residual_vector(current_alphas, b_target)
    residual_before = float(np.abs(r).sum())
    unchanged = RefinementResult(
        alphas=dict(current_alphas),
        residual_l1_before=residual_before,
        residual_l1_after=residual_before,
        applied=False,
    )
    if not dynamic_channels or t_sim <= 0:
        return unchanged

    dynamic_names = [c.name for c in dynamic_channels]
    # δα bounds: α + δ must stay inside [expr_lo·T, expr_hi·T].
    lower = np.empty(len(dynamic_channels))
    upper = np.empty(len(dynamic_channels))
    for k, channel in enumerate(dynamic_channels):
        lo, hi = channel.expression_range()
        alpha = current_alphas[channel.name]
        lower[k] = lo * t_sim - alpha
        upper[k] = hi * t_sim - alpha

    delta, closed_form, lp = _minimize_l1(
        system.column_entries(dynamic_names), r, lower, upper
    )
    counts = dict(closed_form_components=closed_form, lp_components=lp)
    if delta is None:
        return replace(unchanged, **counts)
    updated = dict(current_alphas)
    for name, change in zip(dynamic_names, delta):
        updated[name] = updated[name] + float(change)
    residual_after = float(
        np.abs(system.residual_vector(updated, b_target)).sum()
    )
    if residual_after > residual_before + 1e-9:
        # Numerical safety: never let refinement make things worse.
        return replace(unchanged, **counts)
    return RefinementResult(
        alphas=updated,
        residual_l1_before=residual_before,
        residual_l1_after=residual_after,
        applied=True,
        **counts,
    )


def _minimize_l1(
    entries: Tuple[np.ndarray, np.ndarray, np.ndarray],
    r: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[Optional[np.ndarray], int, int]:
    """``argmin ||M_c δ + r||₁`` over ``lower ≤ δ ≤ upper``, by component.

    ``entries`` are ``M_c``'s nonzeros as ``(rows, cols, coeffs)``.
    Returns ``(δ, closed_form, lp)``: the minimizer (None when a linear
    program failed) and how many components took each path.  Among
    equal minimizers of a one-column component, the one closest to 0 is
    taken.
    """
    rows, cols, coeffs = entries
    num_rows, num_cols = len(r), len(lower)
    if np.any(np.bincount(rows, minlength=num_rows) > 1):
        # Bipartite graph: rows are nodes 0..m-1, columns m..m+n-1.
        graph = sparse.coo_matrix(
            (np.ones(len(rows)), (rows, num_rows + cols)),
            shape=(num_rows + num_cols,) * 2,
        )
        labels = connected_components(graph, directed=False)[1]
        col_labels = labels[num_rows:]
    else:
        # No row is shared, so every column is its own component.
        col_labels = np.arange(num_cols)
    cols_in_label = np.bincount(col_labels)
    lone_col = cols_in_label[col_labels] == 1
    closed_form = int(lone_col.sum())
    coupled = np.flatnonzero(cols_in_label > 1)

    # A column without rows leaves the objective constant.
    delta = np.clip(0.0, lower, upper)
    # A one-row column's median is its one point, -r/m; every column of
    # the shipped devices is one, so they are solved as one array.
    rows_in_col = np.bincount(cols, minlength=num_cols)
    one_row = lone_col[cols] & (rows_in_col[cols] == 1)
    at = cols[one_row]
    delta[at] = np.clip(
        -r[rows[one_row]] / coeffs[one_row], lower[at], upper[at]
    )
    for col in np.flatnonzero(lone_col & (rows_in_col > 1)):
        mine = cols == col
        a, b = _weighted_median_interval(
            -r[rows[mine]] / coeffs[mine], np.abs(coeffs[mine])
        )
        delta[col] = np.clip(
            0.0,
            np.clip(a, lower[col], upper[col]),
            np.clip(b, lower[col], upper[col]),
        )

    for label in coupled:
        block_cols = np.flatnonzero(col_labels == label)
        mine = col_labels[cols] == label
        block_rows, local_rows = np.unique(rows[mine], return_inverse=True)
        local_cols = np.searchsorted(block_cols, cols[mine])
        block = sparse.csc_matrix(
            (coeffs[mine], (local_rows, local_cols)),
            shape=(len(block_rows), len(block_cols)),
        )
        solved = _lp_block(
            block, r[block_rows], lower[block_cols], upper[block_cols]
        )
        if solved is None:
            return None, closed_form, len(coupled)
        delta[block_cols] = solved
    return delta, closed_form, len(coupled)


def _weighted_median_interval(
    points: np.ndarray, weights: np.ndarray
) -> Tuple[float, float]:
    """The interval ``[a, b]`` minimizing ``Σₖ wₖ|δ − pₖ|`` (``w > 0``).

    ``a`` is the first sorted point whose cumulative weight reaches half
    the total, ``b`` the first whose cumulative weight exceeds it; they
    differ only when some prefix holds exactly half the weight.
    """
    order = np.argsort(points)
    points = points[order]
    cumulative = np.cumsum(weights[order])
    half = cumulative[-1] / 2
    a = points[np.searchsorted(cumulative, half, side="left")]
    b = points[np.searchsorted(cumulative, half, side="right")]
    return float(a), float(b)


def _lp_block(
    block: sparse.spmatrix,
    r: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Optional[np.ndarray]:
    """One coupled component's L1 minimum, as an exact linear program.

    HiGHS's default feasibility tolerance (1e-7) lets it stop with δ
    parked on a bound up to 1e-7 away from the optimum, so it runs at
    1e-10.
    """
    n_rows, n_cols = block.shape
    # LP:   min Σ t_k
    # s.t.  B δ − t ≤ −r
    #      −B δ − t ≤  r
    #       lower ≤ δ ≤ upper, t ≥ 0.
    eye = sparse.identity(n_rows, format="csc")
    a_ub = sparse.vstack(
        [sparse.hstack([block, -eye]), sparse.hstack([-block, -eye])],
        format="csc",
    )
    result = linprog(
        np.concatenate([np.zeros(n_cols), np.ones(n_rows)]),
        A_ub=a_ub,
        b_ub=np.concatenate([-r, r]),
        bounds=list(zip(lower, upper)) + [(0.0, None)] * n_rows,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not result.success:
        return None
    return result.x[:n_cols]
