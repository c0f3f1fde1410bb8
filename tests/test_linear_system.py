"""Unit tests for the global linear equation system (Section 4.1)."""

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import lsq_linear

from repro.aais import HeisenbergAAIS, aais_for_device
from repro.aais.channels import ScaledVariableChannel
from repro.aais.variables import Variable, VariableKind
from repro.core import QTurboCompiler
from repro.core.linear_system import (
    DENSE_TRF_MAX_COLUMNS,
    BlockPlan,
    GlobalLinearSystem,
    b_difference_l1,
    l1_norm,
)
from repro.hamiltonian import PauliString
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.models import build_model, ising_chain


@pytest.fixture
def paper_system(paper_aais):
    target = ising_chain(3)
    return (
        GlobalLinearSystem(
            paper_aais.channels, extra_terms=tuple(target.terms)
        ),
        target,
    )


class TestStructure:
    def test_rows_are_union_of_terms(self, paper_system):
        system, _target = paper_system
        terms = set(system.terms)
        # 3 ZZ pairs + 3 Z + 3 X + 3 Y = 12 rows, identity excluded.
        assert len(terms) == 12
        assert PauliString.identity() not in terms

    def test_columns_match_channels(self, paper_aais, paper_system):
        system, _ = paper_system
        assert system.matrix.shape == (12, len(paper_aais.channels))

    def test_matrix_entries_match_paper_signs(self, paper_aais, paper_system):
        system, _ = paper_system
        z1 = PauliString.single("Z", 0)
        row = system.terms.index(z1)
        col_vdw = system.channel_names.index("vdw_0_1")
        col_det = system.channel_names.index("detuning_0")
        dense = system.matrix.toarray()
        assert dense[row, col_vdw] == -1.0
        assert dense[row, col_det] == 1.0

    def test_matrix_l1_norm_is_max_column_sum(self, paper_system):
        system, _ = paper_system
        dense = np.abs(system.matrix.toarray())
        assert system.matrix_l1_norm() == pytest.approx(
            dense.sum(axis=0).max()
        )

    def test_is_bounded_for_rydberg(self, paper_system):
        system, _ = paper_system
        assert system.is_bounded  # van der Waals α ≥ 0

    def test_unbounded_for_heisenberg(self):
        aais = HeisenbergAAIS(3)
        system = GlobalLinearSystem(aais.channels)
        assert not system.is_bounded


class TestSolve:
    def test_paper_alphas(self, paper_system):
        system, target = paper_system
        b = {t: c for t, c in target.terms.items()}
        solution = system.solve(b)
        a = solution.alphas
        # Equation (5)'s solution.
        assert a["vdw_0_1"] == pytest.approx(1.0, abs=1e-6)
        assert a["vdw_1_2"] == pytest.approx(1.0, abs=1e-6)
        assert a["vdw_0_2"] == pytest.approx(0.0, abs=1e-6)
        assert a["detuning_0"] == pytest.approx(1.0, abs=1e-6)
        assert a["detuning_1"] == pytest.approx(2.0, abs=1e-6)
        assert a["detuning_2"] == pytest.approx(1.0, abs=1e-6)
        assert a["rabi_cos_0"] == pytest.approx(1.0, abs=1e-6)
        assert a["rabi_sin_0"] == pytest.approx(0.0, abs=1e-6)
        assert solution.residual_l1 < 1e-6

    def test_scales_with_duration(self, paper_system):
        system, target = paper_system
        b2 = {t: 2 * c for t, c in target.terms.items()}
        solution = system.solve(b2)
        assert solution.alphas["detuning_1"] == pytest.approx(4.0, abs=1e-6)

    def test_negative_vdw_target_clipped_to_bound(self, paper_aais):
        system = GlobalLinearSystem(paper_aais.channels)
        zz = PauliString.from_pairs([(0, "Z"), (1, "Z")])
        solution = system.solve({zz: -1.0})
        # A repulsive interaction cannot produce a negative ZZ weight.
        assert solution.alphas["vdw_0_1"] >= -1e-9
        assert solution.residual_l1 > 0.5

    def test_unreachable_terms_reported(self, paper_aais):
        system = GlobalLinearSystem(
            paper_aais.channels,
            extra_terms=(PauliString.from_pairs([(0, "X"), (1, "X")]),),
        )
        xx = PauliString.from_pairs([(0, "X"), (1, "X")])
        solution = system.solve({xx: 1.0})
        assert xx in solution.unreachable_terms
        assert solution.residual_l1 == pytest.approx(1.0)

    def test_achieved_b_roundtrip(self, paper_system):
        system, target = paper_system
        b = dict(target.terms)
        solution = system.solve(b)
        achieved = system.achieved_b(solution.alphas)
        for term, value in b.items():
            if term.is_identity:
                continue
            assert achieved[term] == pytest.approx(value, abs=1e-6)

    def test_residual_vector_zero_at_solution(self, paper_system):
        system, target = paper_system
        solution = system.solve(dict(target.terms))
        residual = system.residual_vector(solution.alphas, dict(target.terms))
        assert np.abs(residual).max() < 1e-6

    def test_column_entries_match_submatrix(self, paper_system):
        system, _ = paper_system
        names = ["detuning_1", "detuning_0"]
        rows, cols, coeffs = system.column_entries(names)
        dense = np.zeros((len(system.terms), len(names)))
        dense[rows, cols] = coeffs
        index = [system.channel_names.index(name) for name in names]
        np.testing.assert_array_equal(
            dense, system.matrix[:, index].toarray()
        )

    def test_column_entries_unknown_channel(self, paper_system):
        from repro.errors import CompilationError

        system, _ = paper_system
        with pytest.raises(CompilationError):
            system.column_entries(["nope"])

    def test_alpha_vector_ordering(self, paper_system):
        system, target = paper_system
        solution = system.solve(dict(target.terms))
        vec = solution.alpha_vector(system.channel_names)
        assert len(vec) == len(system.channel_names)


def _target_system(device, model, n, options=None):
    """The system and right-hand side a compile of ``model`` would solve."""
    aais = aais_for_device(device, n, options)
    target = build_model(model, n)
    b = {t: c for t, c in target.terms.items() if not t.is_identity}
    return GlobalLinearSystem(aais.channels, extra_terms=tuple(sorted(b))), b


def _rref(rows):
    """The nonzero rows of the reduced row-echelon form of ``rows``,
    lists of ``Fraction`` reduced in exact arithmetic."""
    pending, reduced = [list(row) for row in rows], []
    for col in range(len(pending[0]) if pending else 0):
        pivot = next((row for row in pending if row[col]), None)
        if pivot is None:
            continue
        pending.remove(pivot)
        pivot = [value / pivot[col] for value in pivot]
        pending = [[v - row[col] * p for v, p in zip(row, pivot)] for row in pending]
        reduced = [[v - row[col] * p for v, p in zip(row, pivot)] for row in reduced]
        reduced.append(pivot)
    return reduced


def _min_norm_solve(matrix, b):
    """``(M⁺ b, cond(M))`` with ``M⁺ b`` in exact rational arithmetic.

    Float64 entries are exact rationals.  The reduced echelon rows ``B``
    of ``M`` are a basis of its row space, so ``A = M Bᵀ`` has full
    column rank and ``x = Bᵀ z`` with ``(AᵀA) z = Aᵀ b`` is the
    least-squares solution lying in ``row(M)``: the minimum-norm one.
    ``cond`` is ``σ₁/σ_r`` over the exact rank ``r`` (1 for ``M = 0``).
    """
    exact = [[Fraction(float(value)) for value in row] for row in matrix]
    rhs = [Fraction(float(value)) for value in b]
    basis = _rref(exact)
    rank = len(basis)
    if rank == 0:
        return np.zeros(matrix.shape[1]), 1.0
    a = [[sum(m * q for m, q in zip(row, base)) for base in basis] for row in exact]
    normal = [
        [sum(row[i] * row[j] for row in a) for j in range(rank)]
        + [sum(row[i] * value for row, value in zip(a, rhs))]
        for i in range(rank)
    ]
    z = [row[-1] for row in _rref(normal)]
    x = [sum(z[i] * basis[i][j] for i in range(rank)) for j in range(matrix.shape[1])]
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return np.array([float(value) for value in x]), float(sigma[0] / sigma[rank - 1])


def _relative_gap(alpha, reference):
    return np.linalg.norm(alpha - reference) / max(
        np.linalg.norm(reference), 1e-300
    )


class TestBlockSolve:
    """The unbounded solve is the dense minimum-norm least-squares answer."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=7),
        topology=st.sampled_from([None, "all"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_heisenberg_matches_dense_lstsq(self, n, topology, seed):
        options = {"topology": topology} if topology else None
        system, _ = _target_system("heisenberg", "heisenberg_chain", n, options)
        assert not system.is_bounded
        rng = np.random.default_rng(seed)
        b = rng.uniform(-2.0, 2.0, len(system.terms))
        b[rng.random(len(b)) < 0.3] = 0.0
        solution = system.solve(dict(zip(system.terms, b)))
        alpha = solution.alpha_vector(system.channel_names)
        reference = np.linalg.lstsq(system.matrix.toarray(), b, rcond=None)[0]
        assert _relative_gap(alpha, reference) <= 1e-12
        assert solution.residual_l1 == pytest.approx(
            np.abs(system.matrix @ reference - b).sum(), abs=1e-12
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        density=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(rows=12, cols=11, density=0.25, seed=2846517)  # cond 1.2e8
    def test_random_sparse_matches_pinv(self, rows, cols, density, seed):
        """Against an exact minimum-norm solve, within the forward
        error a backward-stable solve can reach: ``C·cond(M)·ε`` with
        C = 32, never looser than 1e-9 (so 1e-9 up to cond ≈ 1.4e5)."""
        rng = np.random.default_rng(seed)
        matrix = sparse.random(
            rows, cols, density=density, format="csr", random_state=rng,
            data_rvs=lambda k: rng.normal(size=k),
        )
        b = rng.normal(size=rows)
        alpha = BlockPlan.of(matrix).solve(b)
        reference, cond = _min_norm_solve(matrix.toarray(), b)
        bound = max(1e-9, 32 * cond * np.finfo(float).eps)
        assert _relative_gap(alpha, reference) <= bound

    def test_hand_built_blocks(self):
        def channel(name, terms):
            variable = Variable(name, VariableKind.DYNAMIC, -1.0, 1.0)
            return ScaledVariableChannel(name, variable, 1.0, terms)

        x0, y0 = PauliString.single("X", 0), PauliString.single("Y", 0)
        z1, z2 = PauliString.single("Z", 1), PauliString.single("Z", 2)
        x3 = PauliString.single("X", 3)
        system = GlobalLinearSystem(
            [
                channel("a", {x0: 1.0, y0: 2.0}),  # a and b share row X0:
                channel("b", {x0: 1.0}),  # one coupled 2x2 block
                channel("c", {z1: 3.0, z2: 0.0}),  # stored zero on Z2
                channel("d", {PauliString.identity(): 1.0}),  # no rows
            ],
            extra_terms=(x3,),  # no channel reaches X3
        )
        assert 0.0 in system.matrix.data
        plan = system.block_plan()
        assert plan.singleton_blocks == 1
        assert plan.coupled_blocks == 1
        assert np.all(plan.single_coeffs != 0.0)
        assert system.terms[plan.single_rows[0]] == z1
        rows, cols, _ = plan.coupled[0]
        assert {system.terms[r] for r in rows} == {x0, y0}
        assert {system.channel_names[c] for c in cols} == {"a", "b"}

        b = {x0: 1.0, y0: 4.0, z1: 6.0, z2: 5.0, x3: 7.0}
        with np.errstate(divide="raise", invalid="raise"):
            solution = system.solve(b)
        assert solution.alphas["a"] == pytest.approx(2.0, abs=1e-14)
        assert solution.alphas["b"] == pytest.approx(-1.0, abs=1e-14)
        assert solution.alphas["c"] == pytest.approx(2.0, abs=1e-14)
        assert solution.alphas["d"] == 0.0
        assert solution.residual_l1 == pytest.approx(12.0)
        reference = np.linalg.lstsq(
            system.matrix.toarray(), system.target_vector(b), rcond=None
        )[0]
        alpha = solution.alpha_vector(system.channel_names)
        assert _relative_gap(alpha, reference) <= 1e-12

    def test_plan_built_once_and_shared_across_threads(self):
        system, b = _target_system("heisenberg", "ising_chain", 6)
        barrier = threading.Barrier(4)
        plans, alphas = [], []

        def solve():
            barrier.wait()
            plans.append(system.block_plan())
            alphas.append(system.solve(b).alphas)

        threads = [threading.Thread(target=solve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(p.singleton_blocks == len(system.terms) for p in plans)
        assert all(a == alphas[0] for a in alphas)
        assert system.block_plan() is system.block_plan()

    @pytest.mark.parametrize(
        "device, model",
        [
            ("heisenberg", "ising_chain"),
            ("rydberg-1d", "ising_chain"),
        ],
    )
    def test_pass_diagnostics_name_the_solver(self, device, model):
        aais = aais_for_device(device, 4)
        target = PiecewiseHamiltonian.constant(build_model(model, 4), 1.0)
        trace = QTurboCompiler(aais).compile_piecewise(target).pass_trace
        diagnostics = trace[0]["diagnostics"]
        assert trace[0]["name"] == "build_linear_system"
        if device == "heisenberg":
            assert diagnostics["solver"] == "blocks"
            assert diagnostics["singleton_blocks"] == diagnostics["rows"]
            assert diagnostics["coupled_blocks"] == 0
        else:
            assert diagnostics["solver"] == "lsq_linear"
            assert diagnostics["bounded_path"] == "trf_exact"
            assert "singleton_blocks" not in diagnostics


def _reference_lsq_linear(system, b, dense):
    """The bounded solve's ``lsq_linear`` call, on the sparse or dense matrix."""
    matrix = system.matrix.toarray() if dense else system.matrix
    bounds = np.array([c.alpha_bounds() for c in system.channels]).T
    alpha = lsq_linear(
        matrix,
        system.target_vector(b),
        bounds=(bounds[0], bounds[1]),
        tol=1e-12,
        max_iter=500,
    ).x
    return np.where(np.abs(alpha) < 1e-12, 0.0, alpha)


class TestBoundedSolvePinned:
    """Sign-constrained systems keep ``lsq_linear``'s TRF fixed point.

    Up to :data:`DENSE_TRF_MAX_COLUMNS` columns TRF gets the dense
    matrix (exact subproblems) and lands within 1e-9 of the sparse
    (LSMR) call; above it the sparse call runs unchanged.
    """

    @pytest.mark.parametrize(
        "device, model",
        [
            ("rydberg-1d", "ising_chain"),
            ("rydberg-1d", "heisenberg_chain"),
            ("aquila", "ising_chain"),
        ],
    )
    def test_alphas_bit_identical_to_lsq_linear(self, device, model):
        system, b = _target_system(device, model, 6)
        assert system.is_bounded
        assert system.matrix.shape[1] <= DENSE_TRF_MAX_COLUMNS
        solution = system.solve(b)
        assert solution.bounded_path == "trf_exact"
        alpha = solution.alpha_vector(system.channel_names)
        assert np.array_equal(alpha, _reference_lsq_linear(system, b, dense=True))
        sparse_alpha = _reference_lsq_linear(system, b, dense=False)
        assert np.max(np.abs(alpha - sparse_alpha)) <= 1e-9

    def test_above_crossover_keeps_sparse_call(self):
        system, b = _target_system("rydberg-1d", "ising_chain", 22)
        assert system.matrix.shape[1] == 297 > DENSE_TRF_MAX_COLUMNS
        solution = system.solve(b)
        assert solution.bounded_path == "trf_lsmr"
        alpha = solution.alpha_vector(system.channel_names)
        assert np.array_equal(alpha, _reference_lsq_linear(system, b, dense=False))
        assert system._plan is None

    def test_feasible_unbounded_optimum_taken(self, paper_aais):
        system = GlobalLinearSystem(paper_aais.channels)
        zz = PauliString.from_pairs([(0, "Z"), (1, "Z")])
        solution = system.solve({zz: 0.0})
        assert solution.bounded_path == "unbounded"
        assert solution.residual_l1 == 0.0


class TestBoundedOptimality:
    """Bounded α reach the bounded least-squares optimum (a BVLS oracle)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        device=st.sampled_from(["rydberg-1d", "rydberg", "aquila"]),
        n=st.integers(min_value=2, max_value=8),
        density=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_objective_within_bvls_optimum(self, device, n, density, seed):
        system = GlobalLinearSystem(aais_for_device(device, n).channels)
        assert system.is_bounded
        rng = np.random.default_rng(seed)
        b = rng.uniform(-2.0, 2.0, len(system.terms))
        b[rng.random(len(b)) >= density] = 0.0
        solution = system.solve(dict(zip(system.terms, b)))
        alpha = solution.alpha_vector(system.channel_names)
        assert np.all(alpha >= system._lower)
        assert np.all(alpha <= system._upper)
        dense = system.matrix.toarray()
        optimum = lsq_linear(
            dense,
            b,
            bounds=(system._lower, system._upper),
            method="bvls",
            tol=1e-15,
        ).x

        def objective(x):
            return 0.5 * float(np.sum((dense @ x - b) ** 2))

        slack = 1e-8 * max(1.0, float(b @ b))
        assert objective(alpha) <= objective(optimum) + slack


class TestNormHelpers:
    def test_l1_norm_skips_identity(self):
        values = {
            PauliString.identity(): 100.0,
            PauliString.single("X", 0): -2.0,
        }
        assert l1_norm(values) == 2.0

    def test_b_difference(self):
        a = {PauliString.single("X", 0): 1.0}
        b = {PauliString.single("X", 0): 0.25,
             PauliString.single("Z", 1): 0.5}
        assert b_difference_l1(a, b) == pytest.approx(1.25)

    def test_b_difference_identity_ignored(self):
        a = {PauliString.identity(): 5.0}
        assert b_difference_l1(a, {}) == 0.0
