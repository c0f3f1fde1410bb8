"""Abstract Analog Instruction Set (AAIS) containers.

An :class:`Instruction` groups the channels produced by one physical
control (a Rabi drive owns its cos and sin quadratures); an :class:`AAIS`
is the full instruction set of a simulator together with its variables.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.aais.channels import Channel
from repro.aais.variables import Variable
from repro.errors import AAISError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString, pauli_order_key

__all__ = ["Instruction", "AAIS"]


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

    def hamiltonian(self, values: Mapping[str, float]) -> Hamiltonian:
        """The simulator Hamiltonian at a full variable assignment.

        The identity component is kept: it is a global phase with no
        effect on dynamics, but including it keeps this an exact
        realization of the instruction definitions.
        """
        terms: Dict[PauliString, float] = {}
        for channel in self._channels:
            for string, coeff in channel.contribution(values).items():
                terms[string] = terms.get(string, 0.0) + coeff
        return Hamiltonian(terms)

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
