"""Unit tests for the local mixed-system solver strategies (Section 5)."""

import math

import numpy as np
import pytest

from repro.aais import RydbergAAIS, aais_for_device
from repro.core.local_solvers import (
    GenericStrategy,
    LinearStrategy,
    RabiStrategy,
    VanDerWaalsStrategy,
    _min_time_for_range,
    select_strategy,
)
from repro.core.partition import partition_channels
from repro.devices import aquila_spec


@pytest.fixture
def paper_components(paper_aais):
    return partition_channels(paper_aais.channels)


def component_named(components, prefix):
    for component in components:
        if component.channels[0].name.startswith(prefix):
            return component
    raise AssertionError(f"no component starting with {prefix}")


class TestMinTimeForRange:
    def test_positive_target(self):
        assert _min_time_for_range(-1.0, 2.0, 1.0) == 0.5

    def test_negative_target(self):
        assert _min_time_for_range(-2.0, 1.0, -1.0) == 0.5

    def test_zero_target_no_constraint(self):
        assert _min_time_for_range(-1.0, 1.0, 0.0) == 0.0

    def test_unreachable_sign(self):
        assert _min_time_for_range(0.0, 1.0, -1.0) == math.inf
        assert _min_time_for_range(-1.0, 0.0, 1.0) == math.inf


class TestStrategySelection:
    def test_rydberg_assignments(self, paper_components):
        kinds = {
            type(select_strategy(c)).__name__ for c in paper_components
        }
        assert kinds == {
            "LinearStrategy",
            "RabiStrategy",
            "VanDerWaalsStrategy",
        }

    def test_detuning_gets_linear(self, paper_components):
        component = component_named(paper_components, "detuning")
        assert isinstance(select_strategy(component), LinearStrategy)

    def test_rabi_gets_rabi(self, paper_components):
        component = component_named(paper_components, "rabi")
        assert isinstance(select_strategy(component), RabiStrategy)

    def test_vdw_gets_vdw(self, paper_components):
        component = component_named(paper_components, "vdw")
        assert isinstance(select_strategy(component), VanDerWaalsStrategy)


class TestLinearStrategy:
    def test_paper_case1_min_time(self, paper_components):
        # Δ1/2 · T = 1 with Δ_max = 20  →  T = 0.1 µs (Case 1).
        component = component_named(paper_components, "detuning_0")
        strategy = LinearStrategy(component)
        assert strategy.minimum_time({"detuning_0": 1.0}) == pytest.approx(
            0.1
        )

    def test_solve_exact(self, paper_components):
        component = component_named(paper_components, "detuning_0")
        strategy = LinearStrategy(component)
        solution = strategy.solve({"detuning_0": 1.0}, t_sim=0.8)
        assert solution.values["delta_0"] == pytest.approx(2.5)
        assert solution.achieved_expressions["detuning_0"] == pytest.approx(
            1.25
        )

    def test_solve_clips_to_bounds(self, paper_components):
        component = component_named(paper_components, "detuning_0")
        strategy = LinearStrategy(component)
        solution = strategy.solve({"detuning_0": 1000.0}, t_sim=0.1)
        assert solution.values["delta_0"] == pytest.approx(20.0)

    def test_negative_target(self, paper_components):
        component = component_named(paper_components, "detuning_0")
        strategy = LinearStrategy(component)
        solution = strategy.solve({"detuning_0": -1.0}, t_sim=0.8)
        assert solution.values["delta_0"] == pytest.approx(-2.5)

    def test_alpha_residual_zero_when_exact(self, paper_components):
        component = component_named(paper_components, "detuning_0")
        strategy = LinearStrategy(component)
        alphas = {"detuning_0": 1.0}
        solution = strategy.solve(alphas, t_sim=0.8)
        assert solution.alpha_residual_l1(alphas, 0.8) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_requires_positive_time(self, paper_components):
        from repro.errors import CompilationError

        component = component_named(paper_components, "detuning_0")
        with pytest.raises(CompilationError):
            LinearStrategy(component).solve({"detuning_0": 1.0}, t_sim=0.0)


class TestRabiStrategy:
    def test_paper_case2_min_time(self, paper_components):
        # Ω·T = 2 with Ω_max = 2.5  →  T = 0.8 µs (Case 2, Equation (6)).
        component = component_named(paper_components, "rabi_cos_0")
        strategy = RabiStrategy(component)
        t = strategy.minimum_time({"rabi_cos_0": 1.0, "rabi_sin_0": 0.0})
        assert t == pytest.approx(0.8)

    def test_solve_matches_paper(self, paper_components):
        component = component_named(paper_components, "rabi_cos_0")
        strategy = RabiStrategy(component)
        solution = strategy.solve(
            {"rabi_cos_0": 1.0, "rabi_sin_0": 0.0}, t_sim=0.8
        )
        assert solution.values["omega_0"] == pytest.approx(2.5)
        assert solution.values["phi_0"] == pytest.approx(0.0)

    def test_solve_with_y_component(self, paper_components):
        component = component_named(paper_components, "rabi_cos_0")
        strategy = RabiStrategy(component)
        solution = strategy.solve(
            {"rabi_cos_0": 0.0, "rabi_sin_0": 1.0}, t_sim=0.8
        )
        # −(Ω/2) sin φ = 1/0.8 needs sin φ = −1: φ = 3π/2.
        assert solution.values["phi_0"] == pytest.approx(3 * math.pi / 2)
        achieved = solution.achieved_expressions
        assert achieved["rabi_sin_0"] == pytest.approx(1.25)
        assert achieved["rabi_cos_0"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_targets_turn_drive_off(self, paper_components):
        component = component_named(paper_components, "rabi_cos_0")
        strategy = RabiStrategy(component)
        solution = strategy.solve(
            {"rabi_cos_0": 0.0, "rabi_sin_0": 0.0}, t_sim=0.8
        )
        assert solution.values["omega_0"] == 0.0

    def test_global_drive_fits_mean(self):
        aais = RydbergAAIS(3, spec=aquila_spec(omega_max=2.5))
        components = partition_channels(aais.channels)
        rabi = component_named(components, "rabi")
        strategy = RabiStrategy(rabi)
        alphas = {}
        for i in range(3):
            alphas[f"rabi_cos_{i}"] = 1.0
            alphas[f"rabi_sin_{i}"] = 0.0
        solution = strategy.solve(alphas, t_sim=0.8)
        assert solution.values["omega"] == pytest.approx(2.5)
        assert solution.alpha_residual_l1(alphas, 0.8) == pytest.approx(
            0.0, abs=1e-9
        )


class TestVanDerWaalsStrategy:
    def test_min_time_from_spacing(self, paper_components, paper_aais):
        component = component_named(paper_components, "vdw")
        strategy = VanDerWaalsStrategy(component)
        alphas = {"vdw_0_1": 1.0, "vdw_1_2": 1.0, "vdw_0_2": 0.0}
        expression_max = (paper_aais.spec.c6 / 4.0) / 4.0**6
        assert strategy.minimum_time(alphas) == pytest.approx(
            1.0 / expression_max
        )

    def test_negative_target_infeasible(self, paper_components):
        component = component_named(paper_components, "vdw")
        strategy = VanDerWaalsStrategy(component)
        assert math.isinf(
            strategy.minimum_time({"vdw_0_1": -1.0, "vdw_1_2": 0, "vdw_0_2": 0})
        )

    def test_solve_paper_positions(self, paper_components):
        component = component_named(paper_components, "vdw")
        strategy = VanDerWaalsStrategy(component)
        solution = strategy.solve(
            {"vdw_0_1": 1.0, "vdw_1_2": 1.0, "vdw_0_2": 0.0}, t_sim=0.8
        )
        xs = sorted(
            solution.values[f"x_{i}"] for i in range(3)
        )
        gaps = [xs[1] - xs[0], xs[2] - xs[1]]
        assert gaps[0] == pytest.approx(7.46, abs=0.05)
        assert gaps[1] == pytest.approx(7.46, abs=0.05)
        assert solution.feasible

    def test_all_zero_targets_spread_atoms(self, paper_components):
        component = component_named(paper_components, "vdw")
        strategy = VanDerWaalsStrategy(component)
        solution = strategy.solve(
            {"vdw_0_1": 0.0, "vdw_1_2": 0.0, "vdw_0_2": 0.0}, t_sim=1.0
        )
        for expr in solution.achieved_expressions.values():
            assert expr < 1e-4

    def test_infeasible_spacing_reported(self, paper_aais, paper_components):
        component = component_named(paper_components, "vdw")
        strategy = VanDerWaalsStrategy(component)
        # Demand an interaction stronger than the min-spacing cap.
        e_max = (paper_aais.spec.c6 / 4.0) / 4.0**6
        targets = {
            "vdw_0_1": 5 * e_max,
            "vdw_1_2": 5 * e_max,
            "vdw_0_2": 0.0,
        }
        solution = strategy.solve_expressions(targets)
        assert not solution.feasible

    def test_2d_solve(self, planar_spec):
        aais = RydbergAAIS(4, spec=planar_spec)
        components = partition_channels(aais.channels)
        component = component_named(components, "vdw")
        strategy = VanDerWaalsStrategy(component)
        # A 4-cycle: adjacent pairs coupled, diagonals off.
        alphas = {
            "vdw_0_1": 1.0,
            "vdw_1_2": 1.0,
            "vdw_2_3": 1.0,
            "vdw_0_3": 1.0,
            "vdw_0_2": 0.0,
            "vdw_1_3": 0.0,
        }
        solution = strategy.solve(alphas, t_sim=0.8)
        residual = solution.alpha_residual_l1(alphas, 0.8)
        # A square layout leaves unavoidable diagonal tails of
        # 2 × (1.25 / 2³) × 0.8 = 0.25; anything close to that is optimal.
        assert residual < 0.35
        assert solution.feasible


def _reference_pair_residuals(strategy, variable_names, targets, x):
    """The position fit's residuals as the original per-pair loop."""
    name_index = {name: k for k, name in enumerate(variable_names)}
    channel_cols = [
        ([name_index[v.name] for v in c.variables], targets[c.name])
        for c in strategy.vdw_channels
    ]
    strongest = max(abs(t) for _, t in channel_cols)
    weight_floor = strategy.WEIGHT_FLOOR_FRACTION * strongest
    weights = [max(abs(t), weight_floor) for _, t in channel_cols]
    half = strategy.dimension
    out = np.empty(2 * len(channel_cols))
    for k, (cols, target) in enumerate(channel_cols):
        coords = x[cols]
        d = math.hypot(*(coords[m] - coords[half + m] for m in range(half)))
        d = max(d, 1e-3)
        out[k] = (strategy.prefactor / d**6 - target) / weights[k]
        out[len(channel_cols) + k] = 10.0 * max(0.0, strategy.min_distance - d)
    return out


class TestVanDerWaalsResiduals:
    """The array residuals equal the per-pair loop they replaced."""

    @pytest.mark.parametrize("device, dimension", [("rydberg-1d", 1), ("rydberg", 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_array_residuals_match_loop(self, device, dimension, seed):
        aais = aais_for_device(device, 6)
        component = component_named(partition_channels(aais.channels), "vdw")
        strategy = VanDerWaalsStrategy(component)
        assert strategy.dimension == dimension
        names = [
            v.name
            for site in strategy.sites
            for v in strategy.site_coords[site]
        ]
        rng = np.random.default_rng(seed)
        targets = {
            c.name: float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            for c in strategy.vdw_channels
        }
        targets[strategy.vdw_channels[0].name] = 1.5
        residuals = strategy._pair_residuals(names, targets)
        spacing = 1.5 * strategy.min_distance
        for _ in range(20):
            x = rng.uniform(0.0, spacing * len(strategy.sites), len(names))
            # Pairs closer than the minimum spacing (hinge active) and
            # coincident atoms (the 1e-3 distance floor).
            step = rng.uniform(-0.5, 0.5, dimension) * strategy.min_distance
            x[dimension : 2 * dimension] = x[:dimension] + step
            x[-dimension:] = x[-2 * dimension : -dimension]
            reference = _reference_pair_residuals(strategy, names, targets, x)
            actual = residuals(x)
            assert reference[len(reference) // 2 :].max() > 0.0
            np.testing.assert_allclose(actual, reference, rtol=1e-13, atol=0.0)


class TestGenericStrategy:
    def test_case3_no_time_critical_variable(self, paper_components):
        # cos(φ)·T = 1 has minimum T = 1 (paper Case 3); emulate with a
        # generic solve over the rabi component at fixed small Ω bound.
        component = component_named(paper_components, "rabi_cos_1")
        strategy = GenericStrategy(component)
        t = strategy.minimum_time({"rabi_cos_1": 1.0, "rabi_sin_1": 0.0})
        assert t == pytest.approx(0.8)  # bound from Ω_max · scale

    def test_generic_solve_matches_analytic(self, paper_components):
        component = component_named(paper_components, "rabi_cos_1")
        generic = GenericStrategy(component)
        analytic = RabiStrategy(component)
        alphas = {"rabi_cos_1": 0.7, "rabi_sin_1": 0.2}
        g = generic.solve(alphas, t_sim=1.0)
        a = analytic.solve(alphas, t_sim=1.0)
        assert g.alpha_residual_l1(alphas, 1.0) == pytest.approx(
            a.alpha_residual_l1(alphas, 1.0), abs=1e-6
        )

    def test_matches_everything(self, paper_components):
        assert all(
            GenericStrategy.matches(c) for c in paper_components
        )
