"""Abstract Analog Instruction Set (AAIS) containers.

An :class:`Instruction` groups the channels produced by one physical
control (a Rabi drive owns its cos and sin quadratures); an :class:`AAIS`
is the full instruction set of a simulator together with its variables.

:meth:`AAIS.coefficients` realizes the instruction set at ``k``
assignments at once: a ``(k, S)`` coefficient matrix over the fixed
term order :attr:`AAIS.term_strings`, built from one array evaluation
per channel class and one weighted sum over a channels × terms pattern
that is built once per AAIS.  :meth:`AAIS.hamiltonian` is its
``k = 1`` case.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.aais.channels import BatchEvaluator, Channel
from repro.aais.variables import Variable
from repro.errors import AAISError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString, pauli_order_key

__all__ = ["Instruction", "AAIS", "COEFFICIENT_TOL"]

#: Coefficients at or below this magnitude are zeroed, the drop rule of
#: :class:`~repro.hamiltonian.expression.Hamiltonian`.
COEFFICIENT_TOL = 1e-12


class Instruction:
    """A named group of channels sharing a physical control."""

    def __init__(self, name: str, channels: Sequence[Channel]):
        if not name:
            raise AAISError("instruction name must be non-empty")
        if not channels:
            raise AAISError(f"instruction {name}: needs at least one channel")
        self.name = name
        self.channels: Tuple[Channel, ...] = tuple(channels)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """Unique variables across channels, in first-seen order."""
        seen: Dict[str, Variable] = {}
        for channel in self.channels:
            for variable in channel.variables:
                seen.setdefault(variable.name, variable)
        return tuple(seen.values())

    @property
    def is_fixed(self) -> bool:
        return any(channel.is_fixed for channel in self.channels)

    @property
    def is_dynamic(self) -> bool:
        return not self.is_fixed

    def __repr__(self) -> str:
        return f"Instruction({self.name}, {len(self.channels)} channels)"


class _CoefficientLayout:
    """The arrays :meth:`AAIS.coefficients` needs, built once per AAIS.

    ``strings`` is the fixed term order (every string any channel
    drives, identity included, sorted like
    :meth:`Hamiltonian.pauli_strings`); ``rows`` maps variable names to
    rows of the value matrix; ``groups`` pairs the channel positions of
    each channel class with its batch evaluator.  The channels × terms
    pattern is kept as its nonzero entries in channel order
    (``entry_channels``, ``entry_terms``, ``entry_values``), so every
    coefficient is summed over channels in the order
    :meth:`Channel.contribution` sums would take.
    """

    __slots__ = (
        "strings",
        "rows",
        "groups",
        "entry_channels",
        "entry_terms",
        "entry_values",
    )

    def __init__(self, channels: Sequence[Channel], variables: Sequence[str]):
        self.strings: Tuple[PauliString, ...] = tuple(
            sorted(
                {s for channel in channels for s in channel.terms},
                key=pauli_order_key,
            )
        )
        column = {s: i for i, s in enumerate(self.strings)}
        self.rows = {name: i for i, name in enumerate(variables)}
        entries = [
            (position, column[string], coeff)
            for position, channel in enumerate(channels)
            for string, coeff in channel.terms.items()
        ]
        self.entry_channels = np.array([e[0] for e in entries], dtype=np.intp)
        self.entry_terms = np.array([e[1] for e in entries], dtype=np.intp)
        self.entry_values = np.array([e[2] for e in entries], dtype=float)
        # Grouped by class and arity: 1-D and 2-D van der Waals pairs
        # gather different numbers of coordinates.
        positions: Dict[Tuple[type, int], List[int]] = {}
        for position, channel in enumerate(channels):
            key = (type(channel), len(channel.variables))
            positions.setdefault(key, []).append(position)
        self.groups: List[Tuple[np.ndarray, BatchEvaluator]] = [
            (
                np.array(members),
                cls.batch_evaluator([channels[p] for p in members], self.rows),
            )
            for (cls, _), members in positions.items()
        ]


class AAIS:
    """An abstract analog instruction set.

    Parameters
    ----------
    name:
        Human-readable identifier (``"rydberg"``, ``"heisenberg"``).
    num_sites:
        Number of simulator sites (atoms / qubits).
    instructions:
        The available instructions.  Channel names and variable names must
        be unique across the whole set; a variable object shared by
        several channels must be the *same* :class:`Variable` instance.
    """

    def __init__(
        self, name: str, num_sites: int, instructions: Sequence[Instruction]
    ):
        if num_sites < 1:
            raise AAISError(f"AAIS {name}: num_sites must be >= 1")
        if not instructions:
            raise AAISError(f"AAIS {name}: needs at least one instruction")
        self.name = name
        self.num_sites = int(num_sites)
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)

        channels: List[Channel] = []
        channel_names = set()
        variables: Dict[str, Variable] = {}
        for instruction in self.instructions:
            for channel in instruction.channels:
                if channel.name in channel_names:
                    raise AAISError(
                        f"AAIS {name}: duplicate channel {channel.name}"
                    )
                channel_names.add(channel.name)
                channels.append(channel)
                for variable in channel.variables:
                    existing = variables.get(variable.name)
                    if existing is None:
                        variables[variable.name] = variable
                    elif existing != variable:
                        raise AAISError(
                            f"AAIS {name}: conflicting definitions of "
                            f"variable {variable.name}"
                        )
        self._channels: Tuple[Channel, ...] = tuple(channels)
        self._variables: Dict[str, Variable] = variables
        self._layout: "_CoefficientLayout | None" = None

    def __getstate__(self):
        # The coefficient layout holds closures; it is rebuilt on demand.
        state = dict(self.__dict__)
        state["_layout"] = None
        return state

    # ------------------------------------------------------------------
    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All channels in deterministic instruction order."""
        return self._channels

    @property
    def variables(self) -> Dict[str, Variable]:
        """Mapping from variable name to :class:`Variable`."""
        return dict(self._variables)

    def variable(self, name: str) -> Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise AAISError(f"AAIS {self.name}: unknown variable {name}") from None

    def channel(self, name: str) -> Channel:
        for channel in self._channels:
            if channel.name == name:
                return channel
        raise AAISError(f"AAIS {self.name}: unknown channel {name}")

    @property
    def fixed_variables(self) -> Tuple[Variable, ...]:
        return tuple(v for v in self._variables.values() if v.is_fixed)

    @property
    def dynamic_variables(self) -> Tuple[Variable, ...]:
        return tuple(v for v in self._variables.values() if v.is_dynamic)

    # ------------------------------------------------------------------
    def reachable_terms(self) -> Tuple[PauliString, ...]:
        """Sorted non-identity Pauli terms any channel can drive."""
        strings = set()
        for channel in self._channels:
            strings.update(channel.dynamics_terms())
        return tuple(sorted(strings, key=pauli_order_key))

    def _coefficient_layout(self) -> _CoefficientLayout:
        if self._layout is None:
            self._layout = _CoefficientLayout(
                self._channels, tuple(self._variables)
            )
        return self._layout

    @property
    def term_strings(self) -> Tuple[PauliString, ...]:
        """The column order of :meth:`coefficients`."""
        return self._coefficient_layout().strings

    def coefficients(
        self, values: Mapping[str, Union[float, np.ndarray]]
    ) -> np.ndarray:
        """Term coefficients at ``k`` variable assignments, ``(k, S)``.

        Each variable maps to a scalar or a ``(k,)`` array (scalars are
        shared by every assignment); column ``s`` is the coefficient of
        ``term_strings[s]``.  Entries with ``|c| <= COEFFICIENT_TOL``
        are zeroed, so a term absent from a :meth:`hamiltonian` is a
        zero column entry here.
        """
        layout = self._coefficient_layout()
        try:
            raw = [values[name] for name in layout.rows]
        except KeyError as missing:
            raise AAISError(
                f"AAIS {self.name}: missing value for variable {missing}"
            ) from None
        count = max(
            (len(value) for value in raw if getattr(value, "ndim", 0)),
            default=1,
        )
        matrix = np.empty((len(raw), count))
        for row, value in enumerate(raw):
            matrix[row] = value
        expressions = np.empty((len(self._channels), count))
        for positions, evaluate in layout.groups:
            expressions[positions] = evaluate(matrix)
        # One weighted bincount sums every (term, column) bin in entry
        # order, so column i is the same for any k.
        contributions = expressions[layout.entry_channels]
        contributions *= layout.entry_values[:, None]
        bins = layout.entry_terms[:, None] * count + np.arange(count)
        totals = np.bincount(
            bins.ravel(),
            weights=contributions.ravel(),
            minlength=len(layout.strings) * count,
        )
        coefficients = totals.reshape(len(layout.strings), count).T.copy()
        coefficients[np.abs(coefficients) <= COEFFICIENT_TOL] = 0.0
        return coefficients

    def hamiltonian(self, values: Mapping[str, float]) -> Hamiltonian:
        """The simulator Hamiltonian at a full variable assignment.

        The ``k = 1`` case of :meth:`coefficients`.  The identity
        component is kept: it is a global phase with no effect on
        dynamics, but including it keeps this an exact realization of
        the instruction definitions.
        """
        row = self.coefficients(values)[0]
        strings = self.term_strings
        return Hamiltonian(
            {strings[i]: float(row[i]) for i in np.flatnonzero(row)}
        )

    def validate_values(
        self, values: Mapping[str, float], tol: float = 1e-6
    ) -> List[str]:
        """Bound violations at ``values`` as human-readable strings."""
        problems = []
        for variable in self._variables.values():
            if variable.name not in values:
                problems.append(f"missing value for {variable.name}")
                continue
            value = values[variable.name]
            if not variable.contains(value, tol=tol):
                problems.append(
                    f"{variable.name}={value:g} outside "
                    f"[{variable.lower:g}, {variable.upper:g}]"
                )
        return problems

    def __repr__(self) -> str:
        return (
            f"AAIS({self.name}, sites={self.num_sites}, "
            f"instructions={len(self.instructions)}, "
            f"channels={len(self._channels)})"
        )
