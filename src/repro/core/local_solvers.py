"""Solvers for the localized mixed equation systems (Sections 4.2 and 5).

Each :class:`~repro.core.partition.LocalComponent` is solved by a
*strategy*.  Strategies answer two questions:

* :meth:`LocalSolverStrategy.minimum_time` — the shortest simulator
  evolution time at which the component can realize its synthesized-
  variable targets (the per-instruction times of Section 5.1, whose
  maximum is the bottleneck evolution time);
* :meth:`LocalSolverStrategy.solve` — amplitude-variable values realizing
  the targets at a given evolution time.

Analytic strategies cover the Rydberg and Heisenberg instruction shapes
(the paper's Cases 1 and 2); a generic bounded least-squares fallback
covers everything else, including Case 3 (no time-critical variable).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.aais.channels import (
    Channel,
    RabiCosChannel,
    RabiSinChannel,
    ScaledVariableChannel,
    VanDerWaalsChannel,
    _RabiChannel,
)
from repro.core.partition import LocalComponent
from repro.errors import CompilationError, InfeasibleError

__all__ = [
    "LocalSolution",
    "LocalSolverStrategy",
    "LinearStrategy",
    "RabiStrategy",
    "VanDerWaalsStrategy",
    "GenericStrategy",
    "select_strategy",
]

_ZERO_TOL = 1e-12


@dataclass
class LocalSolution:
    """Solved amplitude variables of one local component.

    Attributes
    ----------
    values:
        Amplitude-variable assignment (within hardware bounds).
    achieved_expressions:
        Realized expression value per channel name.
    problems:
        Human-readable constraint issues (e.g. atom-spacing violations);
        empty when the solution is fully feasible.
    """

    values: Dict[str, float]
    achieved_expressions: Dict[str, float]
    problems: List[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.problems

    def alpha_residual_l1(
        self, alphas: Mapping[str, float], t_sim: float
    ) -> float:
        """``Σ_c |expr_c · T − α_c|`` — the ε₂ of Theorem 1 for this block."""
        return sum(
            abs(expr * t_sim - alphas[name])
            for name, expr in self.achieved_expressions.items()
        )


def _min_time_for_range(
    lo: float, hi: float, alpha: float, tol: float = _ZERO_TOL
) -> float:
    """Shortest T with ``alpha / T`` inside the reachable range [lo, hi].

    Returns 0.0 when the target imposes no constraint and ``inf`` when the
    required sign is unreachable.
    """
    if alpha > tol:
        if hi <= tol:
            return math.inf
        return alpha / hi
    if alpha < -tol:
        if lo >= -tol:
            return math.inf
        return alpha / lo
    return 0.0


class LocalSolverStrategy(abc.ABC):
    """Base class for local mixed-system solvers."""

    def __init__(self, component: LocalComponent):
        self.component = component
        self.channels: Tuple[Channel, ...] = component.channels

    @classmethod
    @abc.abstractmethod
    def matches(cls, component: LocalComponent) -> bool:
        """True when this strategy can solve ``component`` analytically."""

    @abc.abstractmethod
    def minimum_time(self, alphas: Mapping[str, float]) -> float:
        """Shortest simulator time realizing the α targets (may be inf)."""

    @abc.abstractmethod
    def solve(self, alphas: Mapping[str, float], t_sim: float) -> LocalSolution:
        """Solve for amplitude variables at evolution time ``t_sim``."""

    def solve_expressions(
        self, expressions: Mapping[str, float]
    ) -> LocalSolution:
        """Solve for direct expression targets (used for fixed variables).

        Equivalent to :meth:`solve` with ``t_sim = 1`` and α = expression,
        since α / T is the expression target.
        """
        return self.solve(expressions, 1.0)

    def _targets(self, alphas: Mapping[str, float]) -> Dict[str, float]:
        missing = [c.name for c in self.channels if c.name not in alphas]
        if missing:
            raise CompilationError(
                f"missing synthesized-variable targets for {missing}"
            )
        return {c.name: float(alphas[c.name]) for c in self.channels}


class LinearStrategy(LocalSolverStrategy):
    """Scaled single-variable channels sharing one variable (Case 1).

    Covers the Rydberg detuning (one channel per component) and every
    Heisenberg drive, as well as Aquila's *global* detuning where many
    channels share a single Δ (solved in closed-form least squares).
    """

    @classmethod
    def matches(cls, component: LocalComponent) -> bool:
        return len(component.variables) == 1 and all(
            isinstance(c, ScaledVariableChannel) for c in component.channels
        )

    def minimum_time(self, alphas: Mapping[str, float]) -> float:
        targets = self._targets(alphas)
        worst = 0.0
        for channel in self.channels:
            lo, hi = channel.expression_range()
            worst = max(
                worst, _min_time_for_range(lo, hi, targets[channel.name])
            )
        return worst

    def solve(self, alphas: Mapping[str, float], t_sim: float) -> LocalSolution:
        if t_sim <= 0:
            raise CompilationError("evolution time must be positive")
        targets = self._targets(alphas)
        variable = self.component.variables[0]
        # Least squares over the shared variable v:
        #   min_v Σ_c (s_c v − α_c / T)²  ⇒  v = Σ s_c e_c / Σ s_c².
        num = 0.0
        den = 0.0
        for channel in self.channels:
            scale = channel.scale  # type: ignore[attr-defined]
            num += scale * (targets[channel.name] / t_sim)
            den += scale * scale
        value = variable.clip(num / den)
        achieved = {
            c.name: c.evaluate({variable.name: value}) for c in self.channels
        }
        return LocalSolution(
            values={variable.name: value}, achieved_expressions=achieved
        )


class RabiStrategy(LocalSolverStrategy):
    """Cos/sin quadrature pairs sharing (Ω, φ) (Case 2).

    Absorbs the evolution time into the time-critical Ω exactly as the
    paper does: with targets α_x (cos channel) and α_y (sin channel),
    ``Ω·T = hypot(α_x, α_y) / scale`` and ``φ = atan2(−α_y, α_x)``.

    Under a global drive, many per-site quadrature pairs share one (Ω, φ);
    the strategy then fits the least-squares mean of the per-site target
    vectors.
    """

    def __init__(self, component: LocalComponent):
        super().__init__(component)
        first = component.channels[0]
        assert isinstance(first, _RabiChannel)
        self.omega = first.omega
        self.phi = first.phi
        self.scale = first.scale
        # Pair cos/sin channels by the qubit their single Pauli term acts on.
        self._pairs: Dict[int, Dict[str, Channel]] = {}
        for channel in component.channels:
            (term,) = channel.dynamics_terms().keys()
            (site,) = term.support
            slot = "cos" if isinstance(channel, RabiCosChannel) else "sin"
            self._pairs.setdefault(site, {})[slot] = channel

    @classmethod
    def matches(cls, component: LocalComponent) -> bool:
        if not component.channels:
            return False
        if not all(
            isinstance(c, (RabiCosChannel, RabiSinChannel))
            for c in component.channels
        ):
            return False
        first = component.channels[0]
        return all(
            c.omega is first.omega  # type: ignore[attr-defined]
            and c.phi is first.phi  # type: ignore[attr-defined]
            and c.scale == first.scale  # type: ignore[attr-defined]
            for c in component.channels
        )

    def _fit_vector(self, targets: Mapping[str, float]) -> Tuple[float, float]:
        """Least-squares (u, w) = (scale·Ω·cosφ·T, −scale·Ω·sinφ·T)."""
        us, ws = [], []
        for slots in self._pairs.values():
            cos_channel = slots.get("cos")
            sin_channel = slots.get("sin")
            us.append(targets[cos_channel.name] if cos_channel else 0.0)
            ws.append(targets[sin_channel.name] if sin_channel else 0.0)
        return float(np.mean(us)), float(np.mean(ws))

    def minimum_time(self, alphas: Mapping[str, float]) -> float:
        targets = self._targets(alphas)
        peak = self.scale * self.omega.upper
        if peak <= 0:
            magnitudes = [abs(v) for v in targets.values()]
            return math.inf if max(magnitudes, default=0.0) > _ZERO_TOL else 0.0
        u, w = self._fit_vector(targets)
        return math.hypot(u, w) / peak

    def solve(self, alphas: Mapping[str, float], t_sim: float) -> LocalSolution:
        if t_sim <= 0:
            raise CompilationError("evolution time must be positive")
        targets = self._targets(alphas)
        u, w = self._fit_vector(targets)
        magnitude = math.hypot(u, w)
        if magnitude <= _ZERO_TOL:
            omega_value, phi_value = 0.0, 0.0
        else:
            omega_value = self.omega.clip(magnitude / (self.scale * t_sim))
            phi_value = math.atan2(-w, u) % (2 * math.pi)
            phi_value = self.phi.clip(phi_value)
        values = {self.omega.name: omega_value, self.phi.name: phi_value}
        achieved = {c.name: c.evaluate(values) for c in self.channels}
        return LocalSolution(values=values, achieved_expressions=achieved)


class VanDerWaalsStrategy(LocalSolverStrategy):
    """Atom-position solve for Van der Waals components (Section 5.2).

    The expressions are ``prefactor / d_ij⁶`` over 1-D or 2-D coordinates.
    The solve inverts strong targets into desired distances, builds a
    geometric initial layout (sequential in 1-D, Kamada–Kawai in 2-D) and
    polishes with bounded least squares; residuals are normalized per
    channel so that strong couplings dominate weak "should be ≈ 0" pairs.
    """

    #: Targets below this fraction of the strongest target are "far" pairs.
    FAR_FRACTION = 1e-3
    #: Residual-weight floor as a fraction of the strongest target: far
    #: pairs ("should be ≈ 0") get a weight of this scale so their small
    #: unavoidable tails do not distort the strong couplings.
    WEIGHT_FLOOR_FRACTION = 1.0

    def __init__(self, component: LocalComponent):
        super().__init__(component)
        self.vdw_channels: Tuple[VanDerWaalsChannel, ...] = tuple(
            component.channels  # type: ignore[assignment]
        )
        first = self.vdw_channels[0]
        self.dimension = first.dimension
        self.prefactor = first.prefactor
        self.min_distance = first.min_distance
        self.max_distance = first.max_distance
        sites = sorted(
            {c.site_i for c in self.vdw_channels}
            | {c.site_j for c in self.vdw_channels}
        )
        self.sites: Tuple[int, ...] = tuple(sites)
        # Coordinate variables per site, in (x[, y]) order.
        self.site_coords: Dict[int, Tuple] = {}
        for channel in self.vdw_channels:
            half = len(channel.variables) // 2
            self.site_coords.setdefault(
                channel.site_i, channel.variables[:half]
            )
            self.site_coords.setdefault(
                channel.site_j, channel.variables[half:]
            )

    @classmethod
    def matches(cls, component: LocalComponent) -> bool:
        channels = component.channels
        if not channels or not all(
            isinstance(c, VanDerWaalsChannel) for c in channels
        ):
            return False
        first = channels[0]
        return all(
            c.prefactor == first.prefactor  # type: ignore[attr-defined]
            and c.dimension == first.dimension  # type: ignore[attr-defined]
            for c in channels
        )

    # ------------------------------------------------------------------
    def minimum_time(self, alphas: Mapping[str, float]) -> float:
        targets = self._targets(alphas)
        expression_max = self.prefactor / self.min_distance**6
        worst = 0.0
        for name, alpha in targets.items():
            if alpha < -_ZERO_TOL:
                # A Van der Waals interaction is strictly repulsive.
                return math.inf
            worst = max(worst, alpha / expression_max)
        return worst

    def solve(self, alphas: Mapping[str, float], t_sim: float) -> LocalSolution:
        if t_sim <= 0:
            raise CompilationError("evolution time must be positive")
        targets = self._targets(alphas)
        return self.solve_expressions(
            {name: alpha / t_sim for name, alpha in targets.items()}
        )

    def solve_expressions(
        self, expressions: Mapping[str, float]
    ) -> LocalSolution:
        targets = self._targets(expressions)
        strongest = max((abs(v) for v in targets.values()), default=0.0)
        if strongest <= _ZERO_TOL:
            # Nothing to realize: spread atoms as far as possible.
            values = self._spread_layout()
            return self._finish(values)
        threshold = strongest * self.FAR_FRACTION
        desired: Dict[Tuple[int, int], float] = {}
        for channel in self.vdw_channels:
            e = targets[channel.name]
            pair = (channel.site_i, channel.site_j)
            if e > threshold:
                d = channel.distance_for(e)
                desired[pair] = min(
                    max(d, self.min_distance), self.max_distance
                )
            else:
                desired[pair] = self.max_distance
        initial = self._initial_layout(desired)
        values = self._refine(initial, targets, threshold)
        return self._finish(values)

    # ------------------------------------------------------------------
    def _spread_layout(self) -> Dict[str, float]:
        spacing = self.max_distance / max(len(self.sites) - 1, 1)
        extent = self._extent()
        values = {}
        for rank, site in enumerate(self.sites):
            coords = self.site_coords[site]
            values[coords[0].name] = min(rank * spacing, extent)
            if self.dimension == 2:
                values[coords[1].name] = extent / 2.0
        return values

    def _extent(self) -> float:
        # Coordinate bounds are uniform across position variables.
        return self.site_coords[self.sites[0]][0].upper

    def _initial_layout(
        self, desired: Mapping[Tuple[int, int], float]
    ) -> Dict[str, float]:
        """Geometric seed for the position polish."""
        if self.dimension == 1:
            return self._initial_layout_1d(desired)
        return self._initial_layout_2d(desired)

    def _initial_layout_1d(
        self, desired: Mapping[Tuple[int, int], float]
    ) -> Dict[str, float]:
        near = [d for d in desired.values() if d < self.max_distance]
        default_gap = (
            2.0 * max(near) if near else 2.0 * self.min_distance
        )
        position = 0.0
        values = {}
        previous: Optional[int] = None
        for site in self.sites:
            if previous is not None:
                pair = (min(previous, site), max(previous, site))
                gap = desired.get(pair, default_gap)
                if gap >= self.max_distance:
                    gap = default_gap
                position += gap
            values[self.site_coords[site][0].name] = position
            previous = site
        return values

    def _initial_layout_2d(
        self, desired: Mapping[Tuple[int, int], float]
    ) -> Dict[str, float]:
        import networkx as nx

        near_pairs = {
            pair: d for pair, d in desired.items() if d < self.max_distance
        }
        graph = nx.Graph()
        graph.add_nodes_from(self.sites)
        for (i, j), d in near_pairs.items():
            graph.add_edge(i, j, length=d)
        if not near_pairs:
            return self._spread_layout()
        far_length = 2.5 * max(near_pairs.values())
        # Kamada–Kawai embeds the desired-distance metric; unconnected
        # pairs fall back to shortest-path combinations of edge lengths.
        dist: Dict[int, Dict[int, float]] = {
            s: {s: 0.0} for s in self.sites
        }
        paths = dict(
            nx.all_pairs_dijkstra_path_length(graph, weight="length")
        )
        for a in self.sites:
            for b in self.sites:
                if a == b:
                    continue
                dist[a][b] = paths.get(a, {}).get(b, far_length)
        layout = nx.kamada_kawai_layout(graph, dist=dist, scale=1.0)
        coords = np.array([layout[s] for s in self.sites])
        # Rescale so the embedded near-pair distances match the metric.
        embedded = []
        index = {s: k for k, s in enumerate(self.sites)}
        for (i, j), d in near_pairs.items():
            delta = coords[index[i]] - coords[index[j]]
            embedded.append((np.linalg.norm(delta), d))
        ratios = [want / have for have, want in embedded if have > 1e-9]
        if ratios:
            coords *= float(np.median(ratios))
        coords -= coords.min(axis=0)
        values = {}
        for site, point in zip(self.sites, coords):
            names = self.site_coords[site]
            values[names[0].name] = float(point[0])
            values[names[1].name] = float(point[1])
        return values

    def _refine(
        self,
        initial: Mapping[str, float],
        targets: Mapping[str, float],
        threshold: float,
    ) -> Dict[str, float]:
        variable_names = [
            v.name for site in self.sites for v in self.site_coords[site]
        ]
        extent = self._extent()
        x0 = np.array(
            [min(max(initial[name], 0.0), extent) for name in variable_names]
        )
        residuals = self._pair_residuals(variable_names, targets)
        result = least_squares(
            residuals,
            x0,
            bounds=(np.zeros_like(x0), np.full_like(x0, extent)),
            xtol=1e-12,
            ftol=1e-12,
            max_nfev=200 * len(x0),
        )
        solution = result.x
        # The interaction only depends on differences: shift toward the
        # origin to free up trap area.
        for axis in range(self.dimension):
            axis_values = solution[axis :: self.dimension]
            axis_values -= axis_values.min()
        return dict(zip(variable_names, solution.tolist()))

    def _pair_residuals(
        self, variable_names: Sequence[str], targets: Mapping[str, float]
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The position fit's residuals over the coordinate vector.

        Per pair, the weighted miss ``(prefactor / d⁶ − target) / w``
        with ``w = max(|target|, floor)``, then a hinge ``10 · max(0,
        min_distance − d)`` that keeps every solved pair above the
        minimum spacing.  Distances are floored at 1e-3 so coincident
        atoms stay finite.  All pairs are evaluated as arrays at once.
        """
        name_index = {name: k for k, name in enumerate(variable_names)}
        columns = np.array(
            [
                [name_index[v.name] for v in channel.variables]
                for channel in self.vdw_channels
            ]
        )
        target = np.array([targets[c.name] for c in self.vdw_channels])
        magnitude = np.abs(target)
        weights = np.maximum(
            magnitude, self.WEIGHT_FLOOR_FRACTION * magnitude.max()
        )
        half = self.dimension
        first, second = columns[:, :half], columns[:, half:]
        prefactor, min_distance = self.prefactor, self.min_distance
        penalty = 10.0

        def residuals(x: np.ndarray) -> np.ndarray:
            delta = x[first] - x[second]
            if half == 1:
                d = np.abs(delta[:, 0])
            else:
                d = np.hypot(delta[:, 0], delta[:, 1])
            d = np.maximum(d, 1e-3)
            return np.concatenate(
                (
                    (prefactor / d**6 - target) / weights,
                    penalty * np.maximum(0.0, min_distance - d),
                )
            )

        return residuals

    def _finish(self, values: Dict[str, float]) -> LocalSolution:
        achieved: Dict[str, float] = {}
        problems = []
        extent = self._extent()
        for name, value in values.items():
            if value < -1e-9 or value > extent + 1e-9:
                problems.append(
                    f"position {name}={value:.3f} outside [0, {extent:g}]"
                )
        for channel in self.vdw_channels:
            d = channel.distance(values)
            # Evaluate with a floored distance so a degenerate layout is
            # reported as a constraint problem rather than a crash.
            achieved[channel.name] = channel.prefactor / max(d, 1e-3) ** 6
            if d < self.min_distance - 1e-9:
                problems.append(
                    f"atoms {channel.site_i},{channel.site_j} separated by "
                    f"{d:.3f} µm < minimum {self.min_distance:g} µm"
                )
        return LocalSolution(
            values=values, achieved_expressions=achieved, problems=problems
        )


class GenericStrategy(LocalSolverStrategy):
    """Bounded least-squares fallback for arbitrary channel mixtures.

    Also covers the paper's Case 3 (no time-critical variable): the
    minimum time follows from the extreme reachable expression values and
    the solve is a plain numeric fit.
    """

    @classmethod
    def matches(cls, component: LocalComponent) -> bool:
        return True

    def minimum_time(self, alphas: Mapping[str, float]) -> float:
        targets = self._targets(alphas)
        worst = 0.0
        for channel in self.channels:
            lo, hi = channel.expression_range()
            worst = max(
                worst, _min_time_for_range(lo, hi, targets[channel.name])
            )
        return worst

    def solve(self, alphas: Mapping[str, float], t_sim: float) -> LocalSolution:
        if t_sim <= 0:
            raise CompilationError("evolution time must be positive")
        targets = self._targets(alphas)
        variables = list(self.component.variables)
        lower = np.array([max(v.lower, -1e9) for v in variables])
        upper = np.array([min(v.upper, 1e9) for v in variables])
        # Stagger the initial point across each variable's interval:
        # identical midpoints would start Van der Waals components with
        # coincident atoms (a singular, gradient-free configuration).
        n = len(variables)
        x0 = np.empty(n)
        for k, variable in enumerate(variables):
            if math.isinf(variable.span):
                x0[k] = variable.midpoint()
            else:
                fraction = (k + 1) / (n + 1)
                x0[k] = variable.lower + fraction * variable.span
        x0 = np.clip(x0, lower, upper)
        names = [v.name for v in variables]
        scale = max(
            (abs(t) for t in targets.values()), default=1.0
        ) or 1.0

        def safe_evaluate(channel: Channel, values: Dict[str, float]) -> float:
            try:
                return channel.evaluate(values)
            except Exception:
                # Degenerate point (e.g. coincident atoms): a large
                # finite value keeps the solver moving.
                return 1e9

        def residuals(x: np.ndarray) -> np.ndarray:
            values = dict(zip(names, x))
            return np.array(
                [
                    (safe_evaluate(c, values) * t_sim - targets[c.name])
                    / scale
                    for c in self.channels
                ]
            )

        result = least_squares(
            residuals, x0, bounds=(lower, upper), max_nfev=400 * len(x0)
        )
        values = dict(zip(names, result.x.tolist()))
        achieved = {
            c.name: safe_evaluate(c, values) for c in self.channels
        }
        return LocalSolution(values=values, achieved_expressions=achieved)


#: Strategy preference order; the generic fallback always matches.
STRATEGIES: Sequence[type] = (
    LinearStrategy,
    RabiStrategy,
    VanDerWaalsStrategy,
    GenericStrategy,
)


def select_strategy(component: LocalComponent) -> LocalSolverStrategy:
    """Pick the most specific solver able to handle ``component``."""
    for strategy_cls in STRATEGIES:
        if strategy_cls.matches(component):
            return strategy_cls(component)
    raise InfeasibleError(
        f"no strategy matches component {component!r}"
    )  # pragma: no cover — GenericStrategy always matches
