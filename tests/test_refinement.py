"""Unit tests for the Section-6.2 refinement pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.aais import DEVICE_PRESETS, aais_for_device
from repro.aais.base import AAIS, Instruction
from repro.aais.channels import ScaledVariableChannel
from repro.aais.variables import Variable, VariableKind
from repro.core import QTurboCompiler
from repro.core.linear_system import GlobalLinearSystem
from repro.core.refinement import _minimize_l1, refine_dynamic_alphas
from repro.errors import HamiltonianError
from repro.hamiltonian.pauli import PauliString
from repro.models import ising_chain
from repro.models.registry import build_model, model_names


@pytest.fixture
def setup(paper_aais):
    target = ising_chain(3)
    system = GlobalLinearSystem(
        paper_aais.channels, extra_terms=tuple(target.terms)
    )
    b_target = {t: c for t, c in target.terms.items() if not t.is_identity}
    solution = system.solve(b_target)
    dynamic_channels = [c for c in paper_aais.channels if c.is_dynamic]
    return paper_aais, system, b_target, solution, dynamic_channels


class TestRefinement:
    def test_paper_worked_example(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        # Emulate Section 6.2: achieved fixed synthesized values are
        # α1 = α2 = 1.001, α3 = 0.020 instead of (1, 1, 0).
        alphas = dict(solution.alphas)
        alphas["vdw_0_1"] = 1.001
        alphas["vdw_1_2"] = 1.001
        alphas["vdw_0_2"] = 0.020
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        assert refined.applied
        # Updated detuning targets: α4 = α6 = 1.021, α5 = 2.002.
        assert refined.alphas["detuning_0"] == pytest.approx(1.021, abs=1e-6)
        assert refined.alphas["detuning_1"] == pytest.approx(2.002, abs=1e-6)
        assert refined.alphas["detuning_2"] == pytest.approx(1.021, abs=1e-6)

    def test_residual_never_increases(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        alphas = dict(solution.alphas)
        alphas["vdw_0_2"] = 0.05  # inject a fixed-channel miss
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        assert refined.residual_l1_after <= refined.residual_l1_before + 1e-9

    def test_zero_residual_stays_zero(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        refined = refine_dynamic_alphas(
            system, b_target, dict(solution.alphas), dynamic_channels, 0.8
        )
        # lsq_linear converges to ~1e-7; refinement must not regress it.
        assert refined.residual_l1_after < 1e-5

    def test_no_dynamic_channels_is_noop(self, setup):
        aais, system, b_target, solution, _ = setup
        refined = refine_dynamic_alphas(
            system, b_target, dict(solution.alphas), [], 0.8
        )
        assert not refined.applied
        assert refined.alphas == solution.alphas

    def test_respects_amplitude_bounds(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        alphas = dict(solution.alphas)
        alphas["vdw_0_1"] = 3.0  # large fixed-channel overshoot
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        if refined.applied:
            for channel in dynamic_channels:
                lo, hi = channel.expression_range()
                alpha = refined.alphas[channel.name]
                assert lo * 0.8 - 1e-6 <= alpha <= hi * 0.8 + 1e-6


def _reference_lp(dense, r, lower, upper):
    """The whole-system L1 linear program the closed form replaced.

    HiGHS's default feasibility tolerance (1e-7) lets it park δ on a
    bound 1e-9 away from the optimum, so the reference runs tighter.
    """
    n_rows, n_cols = dense.shape
    eye = np.eye(n_rows)
    result = linprog(
        np.concatenate([np.zeros(n_cols), np.ones(n_rows)]),
        A_ub=np.block([[dense, -eye], [-dense, -eye]]),
        b_ub=np.concatenate([-r, r]),
        bounds=list(zip(lower, upper)) + [(0.0, None)] * n_rows,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert result.success
    return result.x[:n_cols]


@st.composite
def _private_row_systems(draw):
    """Sparse ``M_c`` where every row belongs to at most one column."""
    num_cols = draw(st.integers(1, 5))
    num_rows = draw(st.integers(1, 9))
    owner = draw(
        st.lists(
            st.integers(-1, num_cols - 1), min_size=num_rows, max_size=num_rows
        )
    )
    magnitude = st.floats(0.1, 10.0)
    sign = st.sampled_from([-1.0, 1.0])
    dense = np.zeros((num_rows, num_cols))
    for row, col in enumerate(owner):
        if col >= 0:
            dense[row, col] = draw(sign) * draw(magnitude)
    r = np.array(
        draw(st.lists(st.floats(-10, 10), min_size=num_rows, max_size=num_rows))
    )
    # Boxes around the current α: some hold 0, some exclude it.
    lower, upper = [], []
    for _ in range(num_cols):
        a, b = sorted(draw(st.lists(st.floats(-10, 10), min_size=2, max_size=2)))
        lower.append(a)
        upper.append(b)
    return dense, r, np.array(lower), np.array(upper)


def _entries(dense):
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols]


def _l1(dense, delta, r):
    return float(np.abs(dense @ delta + r).sum())


class TestClosedForm:
    @given(_private_row_systems())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_whole_system_lp(self, system):
        dense, r, lower, upper = system
        delta, closed_form, lp = _minimize_l1(_entries(dense), r, lower, upper)
        assert (closed_form, lp) == (dense.shape[1], 0)
        assert np.all(lower <= delta) and np.all(delta <= upper)
        reference = _reference_lp(dense, r, lower, upper)
        objective = _l1(dense, delta, r)
        expected = _l1(dense, reference, r)
        assert abs(objective - expected) <= 1e-9 * max(1.0, expected)

    def test_tie_takes_the_minimizer_closest_to_zero(self):
        # Points −1 and +1 with equal weights: every δ ∈ [−1, 1] is optimal.
        dense = np.array([[1.0], [1.0]])
        r = np.array([1.0, -1.0])
        for box, wanted in [((-5, 5), 0.0), ((0.5, 5), 0.5), ((-5, -2), -2.0)]:
            lower, upper = np.array([box[0]]), np.array([box[1]])
            delta, _, _ = _minimize_l1(_entries(dense), r, lower, upper)
            assert delta[0] == wanted

    def test_shared_row_optimum_near_a_bound(self):
        """Two columns share a row, so the LP path runs; the optimum
        δ = 0 sits 5e-8 inside both upper bounds, where HiGHS at its
        default 1e-7 feasibility tolerance stops on the bounds (ℓ1 3e-7)."""
        dense = np.array(
            [[-1.0, -1.0], [-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, -1.0]]
        )
        r = np.zeros(5)
        lower, upper = np.array([-1.0, -1.0]), np.array([5e-8, 5e-8])
        delta, closed_form, lp = _minimize_l1(_entries(dense), r, lower, upper)
        assert (closed_form, lp) == (0, 1)
        reference = _reference_lp(dense, r, lower, upper)
        assert np.abs(delta - reference).max() <= 1e-12
        assert _l1(dense, delta, r) <= _l1(dense, reference, r) + 1e-12

    def test_column_without_rows_stays_nearest_zero(self):
        dense = np.zeros((2, 2))
        r = np.array([1.0, 2.0])
        delta, closed_form, _ = _minimize_l1(
            _entries(dense), r, np.array([-1.0, 0.5]), np.array([1.0, 3.0])
        )
        assert delta.tolist() == [0.0, 0.5]
        assert closed_form == 2


def _shared_row_aais(paper_aais):
    """The worked-example device plus a second detuning drive on Z_0."""
    extra = ScaledVariableChannel(
        name="detuning_b_0",
        variable=Variable(
            name="delta_b_0", kind=VariableKind.DYNAMIC, lower=-20.0, upper=20.0
        ),
        scale=0.5,
        terms={PauliString.single("Z", 0): 1.0},
    )
    return AAIS(
        "shared-row",
        paper_aais.num_sites,
        list(paper_aais.instructions) + [Instruction("detuning_b_0", [extra])],
    )


def _refinement_diagnostics(result):
    (record,) = [r for r in result.pass_trace if r["name"] == "refinement"]
    return record["diagnostics"]


class TestComponentPaths:
    def test_shared_row_takes_the_lp_path(self, paper_aais):
        aais = _shared_row_aais(paper_aais)
        result = QTurboCompiler(aais).compile(ising_chain(3), 1.0)
        assert result.success, result.message
        diagnostics = _refinement_diagnostics(result)
        assert diagnostics["lp_components"] == 1
        # detuning_0 and detuning_b_0 form the coupled component.
        dynamic = [c for c in aais.channels if c.is_dynamic]
        assert diagnostics["closed_form_components"] == len(dynamic) - 2

    def test_shared_row_lp_matches_whole_system_lp(self, setup, paper_aais):
        _, _, b_target, solution, _ = setup
        aais = _shared_row_aais(paper_aais)
        target = ising_chain(3)
        system = GlobalLinearSystem(aais.channels, extra_terms=tuple(target.terms))
        alphas = dict(solution.alphas, detuning_b_0=0.0)
        alphas["vdw_0_2"] = 0.05
        dynamic_channels = [c for c in aais.channels if c.is_dynamic]
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        assert refined.applied and refined.lp_components == 1
        names = [c.name for c in dynamic_channels]
        index = [system.channel_names.index(name) for name in names]
        dense = system.matrix[:, index].toarray()
        r = system.residual_vector(alphas, b_target)
        bounds = np.array(
            [
                [lo * 0.8 - alphas[c.name], hi * 0.8 - alphas[c.name]]
                for c in dynamic_channels
                for lo, hi in [c.expression_range()]
            ]
        )
        reference = _reference_lp(dense, r, bounds[:, 0], bounds[:, 1])
        expected = _l1(dense, reference, r)
        assert refined.residual_l1_after == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("device", DEVICE_PRESETS)
    def test_no_device_preset_takes_the_lp_path(self, device):
        for model in model_names():
            try:
                target = build_model(model, 4)
            except HamiltonianError:
                continue
            result = QTurboCompiler(aais_for_device(device, 4)).compile(
                target, 1.0
            )
            assert _refinement_diagnostics(result)["lp_components"] == 0
