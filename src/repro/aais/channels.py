"""Channels: the synthesized expressions of analog instructions.

A *channel* is one column of the paper's Figure 2: a scalar expression over
a few amplitude variables, together with a constant coefficient pattern
over Pauli terms.  The instruction

.. math::

    \\frac{C_6}{|x_1 - x_2|^6} \\hat n_1 \\hat n_2

contributes one channel whose expression is :math:`C_6 / (4 |x_1-x_2|^6)`
and whose coefficient pattern is ``{I: +1, Z1: -1, Z2: -1, Z1Z2: +1}``;
a Rabi drive contributes two channels (cos and sin) sharing Ω and φ.

The compiler's *synthesized variable* for a channel is
``expression × T_sim`` (Section 4.1).

Every channel class also has an array form of its expression,
:meth:`Channel.batch_evaluator`, which evaluates all channels of that
class at ``k`` variable assignments at once; the simulator uses it to
build the Hamiltonians of many noise realizations in one pass.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.aais.variables import Variable
from repro.errors import AAISError
from repro.hamiltonian.pauli import PauliString

__all__ = [
    "Channel",
    "ScaledVariableChannel",
    "RabiCosChannel",
    "RabiSinChannel",
    "VanDerWaalsChannel",
]

#: Maps a ``(V, k)`` matrix of variable values to ``(n, k)`` expressions.
BatchEvaluator = Callable[[np.ndarray], np.ndarray]


class Channel(abc.ABC):
    """One synthesized expression of an instruction.

    Parameters
    ----------
    name:
        Unique identifier within an AAIS (e.g. ``"vdw_0_1"``).
    variables:
        The amplitude variables the expression depends on.
    terms:
        Constant Pauli-term coefficients multiplied by the expression.
    """

    def __init__(
        self,
        name: str,
        variables: Tuple[Variable, ...],
        terms: Mapping[PauliString, float],
    ):
        if not name:
            raise AAISError("channel name must be non-empty")
        if not variables:
            raise AAISError(f"channel {name}: needs at least one variable")
        if not terms:
            raise AAISError(f"channel {name}: needs at least one Pauli term")
        seen = set()
        for variable in variables:
            if variable.name in seen:
                raise AAISError(
                    f"channel {name}: duplicate variable {variable.name}"
                )
            seen.add(variable.name)
        self.name = name
        self.variables = tuple(variables)
        self.terms: Dict[PauliString, float] = dict(terms)

    # ------------------------------------------------------------------
    @property
    def variable_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def is_fixed(self) -> bool:
        """True when the channel involves any runtime-fixed variable."""
        return any(v.is_fixed for v in self.variables)

    @property
    def is_dynamic(self) -> bool:
        return not self.is_fixed

    def dynamics_terms(self) -> Dict[PauliString, float]:
        """Coefficient pattern with the identity (global phase) removed."""
        return {s: c for s, c in self.terms.items() if not s.is_identity}

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def evaluate(self, values: Mapping[str, float]) -> float:
        """Expression value at the given variable assignment."""

    @abc.abstractmethod
    def expression_range(self) -> Tuple[float, float]:
        """Reachable ``(min, max)`` of the expression under variable bounds."""

    @classmethod
    @abc.abstractmethod
    def batch_evaluator(
        cls, channels: Sequence["Channel"], rows: Mapping[str, int]
    ) -> BatchEvaluator:
        """Array form of :meth:`evaluate` for ``channels`` of this class.

        ``rows`` maps each variable name to its row in a ``(V, k)``
        matrix of values (one column per assignment).  The returned
        function maps such a matrix to the ``(len(channels), k)``
        expression values, computed with the same arithmetic as
        :meth:`evaluate`.
        """

    # ------------------------------------------------------------------
    def alpha_bounds(self) -> Tuple[float, float]:
        """Bounds of the synthesized variable α = expression × T_sim.

        T_sim is positive but otherwise free at linear-solve time, so a
        finite nonzero expression bound maps to an infinite α bound of the
        same sign; only sign constraints survive.
        """
        lo, hi = self.expression_range()
        alpha_lo = 0.0 if lo >= 0 else -math.inf
        alpha_hi = 0.0 if hi <= 0 else math.inf
        return alpha_lo, alpha_hi

    def contribution(self, values: Mapping[str, float]) -> Dict[PauliString, float]:
        """Pauli-term amplitudes this channel contributes at ``values``."""
        scale = self.evaluate(values)
        return {s: c * scale for s, c in self.terms.items()}

    def _require(self, values: Mapping[str, float], name: str) -> float:
        try:
            return float(values[name])
        except KeyError:
            raise AAISError(
                f"channel {self.name}: missing value for variable {name}"
            ) from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ScaledVariableChannel(Channel):
    """Expression ``scale × v`` of a single variable.

    Models the Rydberg detuning channel (``scale = 1/2`` on Δ, pattern
    ``{I: -1/2·2, Z: +1}`` …) and every Heisenberg drive (``scale = 1``).
    """

    def __init__(
        self,
        name: str,
        variable: Variable,
        scale: float,
        terms: Mapping[PauliString, float],
    ):
        if scale == 0:
            raise AAISError(f"channel {name}: zero scale is degenerate")
        super().__init__(name, (variable,), terms)
        self.variable = variable
        self.scale = float(scale)

    def evaluate(self, values: Mapping[str, float]) -> float:
        return self.scale * self._require(values, self.variable.name)

    @classmethod
    def batch_evaluator(cls, channels, rows):
        index = np.array([rows[c.variable.name] for c in channels])
        scale = np.array([[c.scale] for c in channels])
        return lambda matrix: scale * matrix[index]

    def expression_range(self) -> Tuple[float, float]:
        a = self.scale * self.variable.lower
        b = self.scale * self.variable.upper
        return (min(a, b), max(a, b))

    def solve_value(self, expression: float) -> float:
        """Variable value realizing ``expression``, clipped into bounds."""
        return self.variable.clip(expression / self.scale)


class _RabiChannel(Channel):
    """Shared machinery of the cos/sin quadratures of a Rabi drive."""

    def __init__(
        self,
        name: str,
        omega: Variable,
        phi: Variable,
        scale: float,
        terms: Mapping[PauliString, float],
    ):
        if scale <= 0:
            raise AAISError(f"channel {name}: Rabi scale must be positive")
        if omega.lower < 0:
            raise AAISError(
                f"channel {name}: Rabi amplitude lower bound must be >= 0"
            )
        super().__init__(name, (omega, phi), terms)
        self.omega = omega
        self.phi = phi
        self.scale = float(scale)

    def expression_range(self) -> Tuple[float, float]:
        peak = self.scale * self.omega.upper
        return (-peak, peak)

    @staticmethod
    def _batch_parts(channels, rows, sign: float):
        """Row indices of Ω and φ and the signed scale column."""
        omega = np.array([rows[c.omega.name] for c in channels])
        phi = np.array([rows[c.phi.name] for c in channels])
        scale = np.array([[sign * c.scale] for c in channels])
        return omega, phi, scale


class RabiCosChannel(_RabiChannel):
    """Expression ``scale · Ω · cos(φ)`` driving an X term."""

    def evaluate(self, values: Mapping[str, float]) -> float:
        omega = self._require(values, self.omega.name)
        phi = self._require(values, self.phi.name)
        return self.scale * omega * math.cos(phi)

    @classmethod
    def batch_evaluator(cls, channels, rows):
        omega, phi, scale = cls._batch_parts(channels, rows, 1.0)
        return lambda matrix: scale * matrix[omega] * np.cos(matrix[phi])


class RabiSinChannel(_RabiChannel):
    """Expression ``-scale · Ω · sin(φ)`` driving a Y term."""

    def evaluate(self, values: Mapping[str, float]) -> float:
        omega = self._require(values, self.omega.name)
        phi = self._require(values, self.phi.name)
        return -self.scale * omega * math.sin(phi)

    @classmethod
    def batch_evaluator(cls, channels, rows):
        omega, phi, scale = cls._batch_parts(channels, rows, -1.0)
        return lambda matrix: scale * matrix[omega] * np.sin(matrix[phi])


class VanDerWaalsChannel(Channel):
    """Expression ``prefactor / |x_i - x_j|^6`` between two atom positions.

    Positions may be one- or two-dimensional; in two dimensions each site
    contributes an ``x`` and a ``y`` variable and the distance is
    Euclidean.  ``min_distance`` is the hardware minimum atom spacing,
    which caps the reachable interaction strength (and therefore enters
    the Section-5 minimum-time rule).
    """

    def __init__(
        self,
        name: str,
        site_i: int,
        site_j: int,
        position_variables: Tuple[Variable, ...],
        prefactor: float,
        min_distance: float,
        max_distance: float,
        terms: Mapping[PauliString, float],
    ):
        if prefactor <= 0:
            raise AAISError(f"channel {name}: prefactor must be positive")
        if not 0 < min_distance < max_distance:
            raise AAISError(
                f"channel {name}: need 0 < min_distance < max_distance"
            )
        if len(position_variables) not in (2, 4):
            raise AAISError(
                f"channel {name}: expected 2 (1D) or 4 (2D) position "
                f"variables, got {len(position_variables)}"
            )
        super().__init__(name, tuple(position_variables), terms)
        self.site_i = int(site_i)
        self.site_j = int(site_j)
        self.prefactor = float(prefactor)
        self.min_distance = float(min_distance)
        self.max_distance = float(max_distance)

    @property
    def dimension(self) -> int:
        return len(self.variables) // 2

    def distance(self, values: Mapping[str, float]) -> float:
        coords = [self._require(values, v.name) for v in self.variables]
        half = len(coords) // 2
        return math.hypot(
            *(coords[k] - coords[half + k] for k in range(half))
        )

    def evaluate(self, values: Mapping[str, float]) -> float:
        d = self.distance(values)
        if d <= 0:
            raise AAISError(
                f"channel {self.name}: coincident atoms (distance 0)"
            )
        return self.prefactor / d**6

    @classmethod
    def batch_evaluator(cls, channels, rows):
        """All pair expressions at once; channels must share a dimension."""
        half = channels[0].dimension
        index = np.array(
            [[rows[v.name] for v in c.variables] for c in channels]
        )
        prefactor = np.array([[c.prefactor] for c in channels])
        names = [c.name for c in channels]

        def evaluate(matrix: np.ndarray) -> np.ndarray:
            coords = matrix[index]  # (channels, 2·half, k)
            delta = coords[:, :half] - coords[:, half:]
            distance = (
                np.abs(delta[:, 0])
                if half == 1
                else np.hypot(delta[:, 0], delta[:, 1])
            )
            coincident = np.flatnonzero((distance <= 0).any(axis=1))
            if coincident.size:
                raise AAISError(
                    f"channel {names[coincident[0]]}: coincident atoms "
                    f"(distance 0)"
                )
            # float_power rounds like the scalar ``d**6``; power does not.
            return prefactor / np.float_power(distance, 6)

        return evaluate

    def expression_range(self) -> Tuple[float, float]:
        return (
            self.prefactor / self.max_distance**6,
            self.prefactor / self.min_distance**6,
        )

    def distance_for(self, expression: float) -> float:
        """Separation realizing a positive target expression value."""
        if expression <= 0:
            raise AAISError(
                f"channel {self.name}: van der Waals expression must be "
                f"positive, got {expression}"
            )
        return (self.prefactor / expression) ** (1.0 / 6.0)
