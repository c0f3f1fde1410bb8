"""Unit tests for the Rydberg and Heisenberg instruction sets."""


import pytest

from repro.aais import AAIS, HeisenbergAAIS, Instruction, RydbergAAIS
from repro.aais.channels import ScaledVariableChannel, VanDerWaalsChannel
from repro.aais.variables import Variable, VariableKind
from repro.devices import HeisenbergSpec, RydbergSpec, aquila_spec
from repro.devices.base import TrapGeometry
from repro.errors import AAISError
from repro.hamiltonian.pauli import PauliString


class TestRydbergStructure:
    def test_channel_counts(self):
        aais = RydbergAAIS(4)
        # 6 vdW pairs + 4 detunings + 4 rabi instructions (2 channels each)
        assert len(aais.channels) == 6 + 4 + 8

    def test_minimum_two_atoms(self):
        with pytest.raises(AAISError):
            RydbergAAIS(1)

    def test_fixed_and_dynamic_split(self):
        aais = RydbergAAIS(
            3,
            spec=RydbergSpec(
                geometry=TrapGeometry(75.0, 4.0, dimension=1)
            ),
        )
        fixed_names = {v.name for v in aais.fixed_variables}
        assert fixed_names == {"x_0", "x_1", "x_2"}
        dynamic_names = {v.name for v in aais.dynamic_variables}
        assert "delta_0" in dynamic_names
        assert "omega_2" in dynamic_names
        assert "phi_1" in dynamic_names

    def test_2d_positions(self):
        aais = RydbergAAIS(
            3,
            spec=RydbergSpec(geometry=TrapGeometry(75.0, 4.0, dimension=2)),
        )
        names = {v.name for v in aais.fixed_variables}
        assert "y_1" in names
        assert len(names) == 6

    def test_global_drive_shares_variables(self):
        aais = RydbergAAIS(5, spec=aquila_spec())
        dynamic_names = {v.name for v in aais.dynamic_variables}
        assert dynamic_names == {"delta", "omega", "phi"}

    def test_vdw_pattern_matches_paper(self):
        aais = RydbergAAIS(3)
        channel = aais.channel("vdw_0_1")
        assert isinstance(channel, VanDerWaalsChannel)
        terms = channel.terms
        assert terms[PauliString.identity()] == 1.0
        assert terms[PauliString.single("Z", 0)] == -1.0
        assert terms[PauliString.single("Z", 1)] == -1.0
        assert (
            terms[PauliString.from_pairs([(0, "Z"), (1, "Z")])] == 1.0
        )

    def test_detuning_pattern_matches_paper(self):
        aais = RydbergAAIS(3)
        channel = aais.channel("detuning_1")
        assert isinstance(channel, ScaledVariableChannel)
        assert channel.scale == 0.5
        assert channel.terms[PauliString.single("Z", 1)] == 1.0

    def test_hamiltonian_of_assignment(self):
        spec = RydbergSpec(geometry=TrapGeometry(75.0, 4.0, dimension=1))
        aais = RydbergAAIS(2, spec=spec)
        values = {
            "x_0": 0.0,
            "x_1": 10.0,
            "delta_0": 0.0,
            "delta_1": 0.0,
            "omega_0": 2.0,
            "omega_1": 0.0,
            "phi_0": 0.0,
            "phi_1": 0.0,
        }
        h = aais.hamiltonian(values)
        assert h.coefficient(PauliString.single("X", 0)) == pytest.approx(1.0)
        vdw = spec.c6 / 4.0 / 10.0**6
        assert h.coefficient(
            PauliString.from_pairs([(0, "Z"), (1, "Z")])
        ) == pytest.approx(vdw)

    def test_validate_values_flags_violations(self):
        aais = RydbergAAIS(2)
        values = aais.default_positions()
        values.update(
            {
                "delta_0": 1e6,  # out of bounds
                "delta_1": 0.0,
                "omega_0": 0.0,
                "omega_1": 0.0,
                "phi_0": 0.0,
                "phi_1": 0.0,
            }
        )
        problems = aais.validate_values(values)
        assert any("delta_0" in p for p in problems)

    def test_validate_values_flags_missing(self):
        aais = RydbergAAIS(2)
        problems = aais.validate_values({})
        assert problems

    def test_spacing_violations(self):
        spec = RydbergSpec(geometry=TrapGeometry(75.0, 4.0, dimension=1))
        aais = RydbergAAIS(2, spec=spec)
        assert aais.spacing_violations({"x_0": 0.0, "x_1": 1.0})
        assert not aais.spacing_violations({"x_0": 0.0, "x_1": 10.0})

    def test_default_positions_respect_extent(self):
        aais = RydbergAAIS(10)
        values = aais.default_positions()
        extent = aais.spec.geometry.extent
        assert all(0 <= v <= extent for v in values.values())

    def test_positions_accessor(self):
        spec = RydbergSpec(geometry=TrapGeometry(75.0, 4.0, dimension=2))
        aais = RydbergAAIS(2, spec=spec)
        coords = aais.positions(
            {"x_0": 1.0, "y_0": 2.0, "x_1": 3.0, "y_1": 4.0}
        )
        assert coords == [(1.0, 2.0), (3.0, 4.0)]

    def test_pair_distance(self):
        spec = RydbergSpec(geometry=TrapGeometry(75.0, 4.0, dimension=1))
        aais = RydbergAAIS(2, spec=spec)
        assert aais.pair_distance({"x_0": 0.0, "x_1": 5.0}, 0, 1) == 5.0


class TestHeisenbergStructure:
    def test_channel_counts_chain(self):
        aais = HeisenbergAAIS(4, spec=HeisenbergSpec(topology="chain"))
        # 3 Paulis × 4 singles + 3 Paulis × 3 edges
        assert len(aais.channels) == 12 + 9

    def test_channel_counts_cycle(self):
        aais = HeisenbergAAIS(4, spec=HeisenbergSpec(topology="cycle"))
        assert len(aais.channels) == 12 + 12

    def test_channel_counts_all(self):
        aais = HeisenbergAAIS(4, spec=HeisenbergSpec(topology="all"))
        assert len(aais.channels) == 12 + 18

    def test_all_variables_dynamic(self):
        aais = HeisenbergAAIS(3)
        assert not aais.fixed_variables
        assert all(v.time_critical for v in aais.dynamic_variables)

    def test_reachable_terms_include_pairs(self):
        aais = HeisenbergAAIS(3)
        reachable = set(aais.reachable_terms())
        assert PauliString.from_pairs([(0, "X"), (1, "X")]) in reachable
        assert PauliString.single("Y", 2) in reachable

    def test_hamiltonian_assignment(self):
        aais = HeisenbergAAIS(2)
        values = {v.name: 0.0 for v in aais.dynamic_variables}
        values["a_X_0"] = 1.5
        h = aais.hamiltonian(values)
        assert h.coefficient(PauliString.single("X", 0)) == 1.5
        assert h.num_terms == 1


class TestAAISValidation:
    def test_duplicate_channel_names_rejected(self):
        v = Variable("a", VariableKind.DYNAMIC, -1, 1)
        channel = ScaledVariableChannel(
            "c", v, 1.0, {PauliString.single("X", 0): 1.0}
        )
        instr = Instruction("i1", [channel])
        with pytest.raises(AAISError):
            AAIS("bad", 1, [instr, Instruction("i2", [channel])])

    def test_conflicting_variable_definitions_rejected(self):
        v1 = Variable("a", VariableKind.DYNAMIC, -1, 1)
        v2 = Variable("a", VariableKind.DYNAMIC, -2, 2)
        c1 = ScaledVariableChannel(
            "c1", v1, 1.0, {PauliString.single("X", 0): 1.0}
        )
        c2 = ScaledVariableChannel(
            "c2", v2, 1.0, {PauliString.single("Y", 0): 1.0}
        )
        with pytest.raises(AAISError):
            AAIS(
                "bad",
                1,
                [Instruction("i1", [c1]), Instruction("i2", [c2])],
            )

    def test_unknown_lookups_raise(self):
        aais = HeisenbergAAIS(2)
        with pytest.raises(AAISError):
            aais.variable("nope")
        with pytest.raises(AAISError):
            aais.channel("nope")

    def test_instruction_needs_channels(self):
        with pytest.raises(AAISError):
            Instruction("empty", [])

    def test_repr_mentions_counts(self):
        assert "channels" in repr(HeisenbergAAIS(2))


def _random_assignments(aais, rng, k):
    """``k`` random in-bounds assignments as per-variable ``(k,)`` arrays;
    atom coordinates are spread over the trap so no two coincide."""
    values = {}
    for name, variable in aais.variables.items():
        lower = max(variable.lower, -10.0)
        upper = min(variable.upper, 10.0)
        if name.startswith(("x_", "y_")):
            lower, upper = variable.lower, variable.upper
        values[name] = rng.uniform(lower, upper, k)
    return values


def _scalar_channel_sum(aais, values):
    """Per-string sum of every channel's scalar contribution, together
    with the sum of the contributions' magnitudes."""
    total, magnitude = {}, {}
    for channel in aais.channels:
        for string, coeff in channel.contribution(values).items():
            total[string] = total.get(string, 0.0) + coeff
            magnitude[string] = magnitude.get(string, 0.0) + abs(coeff)
    return total, magnitude


class TestCoefficientMatrix:
    """``AAIS.coefficients`` against the scalar channel sum."""

    @pytest.mark.parametrize(
        "device", ["rydberg", "rydberg-1d", "aquila", "heisenberg"]
    )
    @pytest.mark.parametrize("n", [3, 6])
    def test_matches_scalar_channel_sum(self, device, n):
        import numpy as np

        from repro.aais import aais_for_device

        rng = np.random.default_rng(n)
        aais = aais_for_device(device, n)
        k = 5
        values = _random_assignments(aais, rng, k)
        matrix = aais.coefficients(values)
        strings = aais.term_strings
        assert matrix.shape == (k, len(strings))
        for column in range(k):
            point = {name: float(v[column]) for name, v in values.items()}
            total, magnitude = _scalar_channel_sum(aais, point)
            assert set(total) == set(strings)
            for slot, string in enumerate(strings):
                expected = total[string]
                if abs(expected) <= 1e-12:
                    expected = 0.0
                scale = max(magnitude[string], 1e-300)
                assert abs(matrix[column, slot] - expected) <= 1e-14 * scale

    def test_hamiltonian_is_the_single_column_case(self):
        import numpy as np

        aais = RydbergAAIS(4, spec=RydbergSpec(global_drive=True))
        values = aais.default_positions()
        values.update(delta=1.5, omega=0.8, phi=0.0)
        hamiltonian = aais.hamiltonian(values)
        row = aais.coefficients(values)[0]
        # φ = 0 zeroes every Y term, which the Hamiltonian then omits.
        assert all(
            string.label_on(string.support[0]) != "Y"
            for string in hamiltonian.pauli_strings()
            if not string.is_identity
        )
        for slot, string in enumerate(aais.term_strings):
            assert hamiltonian.coefficient(string) == row[slot]
        scalars = dict(values)
        arrays = {name: np.full(3, value) for name, value in values.items()}
        assert np.array_equal(
            aais.coefficients(arrays), np.repeat(row[None], 3, axis=0)
        )
        assert np.array_equal(aais.coefficients(scalars), row[None])

    def test_missing_variable_and_coincident_atoms_rejected(self):
        aais = RydbergAAIS(3)
        values = aais.default_positions()
        with pytest.raises(AAISError, match="missing value"):
            aais.coefficients(values)
        for variable in aais.dynamic_variables:
            values[variable.name] = 0.5
        values["x_1"] = values["x_0"]
        with pytest.raises(AAISError, match="coincident"):
            aais.coefficients(values)

    def test_survives_pickling_after_use(self):
        import pickle

        import numpy as np

        aais = HeisenbergAAIS(3)
        values = {name: 0.25 for name in aais.variables}
        before = aais.coefficients(values)
        clone = pickle.loads(pickle.dumps(aais))
        assert np.array_equal(clone.coefficients(values), before)
