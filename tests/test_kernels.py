"""The matrix-free simulation backend: Pauli kernels, the Lanczos and
Chebyshev propagators, backend auto-selection boundaries, the
configurable operator cap, and propagator-cache eviction.  Evolution
references come from the ``exact_evolve`` fixture, which shares no code
with the engine's backends."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.hamiltonian import Hamiltonian, PauliString
from repro.hamiltonian.expression import x, y, z, zz
from repro.sim import (
    NoisySimulator,
    apply_hamiltonian,
    apply_pauli_string,
    clear_simulation_caches,
    configure_simulation_caches,
    evolve,
    evolve_block,
    expm_multiply_matrix_free,
    hamiltonian_kernel,
    kernel_cache_stats,
    lanczos_expm_multiply,
    select_backend,
    simulation_cache_stats,
)
from repro.sim.kernels import HamiltonianKernel, chebyshev_expm_multiply
from repro.sim.operators import (
    clear_operator_cache,
    configure_operator_limits,
    hamiltonian_matrix,
    max_operator_qubits,
    pauli_string_matrix,
)

ATOL = 1e-10


@pytest.fixture(autouse=True)
def fresh_caches_and_limits():
    """Every test starts and ends with default caches and limits."""
    clear_operator_cache()
    clear_simulation_caches()
    yield
    clear_operator_cache()
    clear_simulation_caches()
    configure_operator_limits(max_qubits=16)
    configure_simulation_caches(
        propagator_maxsize=256,
        propagator_max_qubits=10,
        propagator_build_max_qubits=7,
        memory_budget_bytes=512 * 2**20,
    )


def random_hamiltonian(
    rng: np.random.Generator, num_qubits: int, labels=("X", "Y", "Z")
) -> Hamiltonian:
    """A random few-term Hamiltonian over the given Pauli labels."""
    terms = {}
    for _ in range(int(rng.integers(2, 7))):
        weight = int(rng.integers(1, num_qubits + 1))
        qubits = rng.choice(num_qubits, size=weight, replace=False)
        ops = {int(q): str(rng.choice(labels)) for q in qubits}
        terms[PauliString(ops)] = float(rng.normal())
    return Hamiltonian(terms)


def random_block(rng: np.random.Generator, num_qubits: int, k: int):
    block = rng.standard_normal((2**num_qubits, k)) + 1j * rng.standard_normal(
        (2**num_qubits, k)
    )
    return block / np.linalg.norm(block, axis=0)


class TestPauliApplication:
    @pytest.mark.parametrize("label", ["X", "Y", "Z"])
    def test_single_qubit_strings_match_matrices(self, label):
        rng = np.random.default_rng(0)
        n = 4
        state = random_block(rng, n, 1)[:, 0]
        for qubit in range(n):
            string = PauliString.single(label, qubit)
            expected = pauli_string_matrix(string, n) @ state
            assert np.allclose(
                apply_pauli_string(string, state, n), expected, atol=ATOL
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_strings_match_matrices(self, seed):
        """All term types — X/Y/Z mixtures of every weight — on blocks."""
        rng = np.random.default_rng(seed)
        n = 5
        weight = int(rng.integers(1, n + 1))
        qubits = rng.choice(n, size=weight, replace=False)
        string = PauliString(
            {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
        )
        block = random_block(rng, n, 3)
        expected = pauli_string_matrix(string, n) @ block
        got = apply_pauli_string(string, block, n, coeff=1.5j)
        assert np.allclose(got, 1.5j * expected, atol=ATOL)

    def test_identity_string(self):
        rng = np.random.default_rng(3)
        state = random_block(rng, 3, 1)[:, 0]
        out = apply_pauli_string(PauliString.identity(), state, 3, coeff=2.0)
        assert np.allclose(out, 2.0 * state, atol=ATOL)

    @pytest.mark.parametrize("seed", range(6))
    def test_hamiltonian_apply_matches_sparse(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, 4)
        dense = hamiltonian_matrix(h, n).toarray()
        assert np.allclose(
            apply_hamiltonian(h, block, n), dense @ block, atol=ATOL
        )
        assert np.allclose(
            apply_hamiltonian(h, block[:, 0], n),
            dense @ block[:, 0],
            atol=ATOL,
        )

    def test_out_of_range_qubit_rejected(self):
        rng = np.random.default_rng(4)
        state = random_block(rng, 3, 1)[:, 0]
        with pytest.raises(SimulationError):
            apply_pauli_string(PauliString.single("X", 5), state, 3)
        with pytest.raises(SimulationError):
            apply_hamiltonian(x(0) + y(5), state, 3)
        with pytest.raises(SimulationError):
            evolve(state, x(0) + y(5), 0.5, 3, backend="matrix_free")

    def test_spectral_bounds_contain_spectrum(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            h = random_hamiltonian(np.random.default_rng(seed), 4)
            if h.is_zero:
                continue
            kernel = HamiltonianKernel(h, 4)
            lo, hi = kernel.spectral_bounds()
            eigenvalues = np.linalg.eigvalsh(
                hamiltonian_matrix(h, 4).toarray()
            )
            assert lo <= eigenvalues.min() + 1e-9
            assert hi >= eigenvalues.max() - 1e-9
        del rng

    def test_linear_operator_wrapper(self):
        rng = np.random.default_rng(6)
        h = random_hamiltonian(rng, 3)
        state = random_block(rng, 3, 1)[:, 0]
        operator = HamiltonianKernel(h, 3).as_linear_operator()
        expected = hamiltonian_matrix(h, 3).toarray() @ state
        assert np.allclose(operator.matvec(state), expected, atol=ATOL)
        assert np.allclose(operator.rmatvec(state), expected, atol=ATOL)


class TestMatrixFreePropagators:
    @pytest.mark.parametrize("seed", range(10))
    def test_evolve_matches_dense_and_sparse(self, seed, exact_evolve):
        """Acceptance: the matrix-free and dense backends both match the
        exact reference built from the sparse CSR matrix to ≤1e-10."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, n)
        if h.is_zero:
            return
        duration = float(rng.uniform(0.1, 2.0))
        block = random_block(rng, n, 4)
        reference = exact_evolve(block, h, duration, n)
        mf = evolve(block, h, duration, n, backend="matrix_free")
        dense = evolve(block, h, duration, n, backend="dense")
        assert np.allclose(mf, reference, atol=ATOL)
        assert np.allclose(dense, reference, atol=ATOL)

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("columns", [1, 40])
    def test_auto_agrees_with_reference_at_12_qubits(
        self, columns, cache, exact_evolve
    ):
        """N=12 is past the dense cutoff, so auto evolves matrix-free."""
        rng = np.random.default_rng(60 + columns)
        n = 12
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, columns)
        out = evolve(block, h, 0.7, n, cache=cache)
        assert np.allclose(out, exact_evolve(block, h, 0.7, n), atol=1e-8)
        fast = simulation_cache_stats()["fast_paths"]
        assert fast["matrix_free"] == columns

    @pytest.mark.parametrize("labels", [("Z",), ("X",), ("Y",), ("X", "Z")])
    def test_evolve_matches_per_term_type(self, labels, exact_evolve):
        rng = np.random.default_rng(hash(labels) % 2**32)
        n = 4
        h = random_hamiltonian(rng, n, labels=labels)
        if h.is_zero:
            return
        state = random_block(rng, n, 1)[:, 0]
        mf = evolve(state, h, 0.8, n, backend="matrix_free")
        reference = exact_evolve(state, h, 0.8, n)
        assert np.allclose(mf, reference, atol=ATOL)

    def test_chebyshev_and_lanczos_agree_with_expm(self):
        rng = np.random.default_rng(11)
        n = 5
        h = random_hamiltonian(rng, n)
        kernel = hamiltonian_kernel(h, n)
        block = random_block(rng, n, 2)
        reference = (
            expm(-1j * 1.3 * hamiltonian_matrix(h, n).toarray()) @ block
        )
        assert np.allclose(
            chebyshev_expm_multiply(kernel, block, 1.3), reference, atol=1e-9
        )
        assert np.allclose(
            lanczos_expm_multiply(kernel, block, 1.3), reference, atol=1e-9
        )

    def test_long_duration_large_span(self):
        """Chebyshev kicks in for long phase spans and stays accurate."""
        rng = np.random.default_rng(12)
        n = 4
        h = 10.0 * zz(0, 1) + 8.0 * x(2) + 6.0 * y(3) + 5.0 * z(0)
        state = random_block(rng, n, 1)[:, 0]
        reference = expm(
            -1j * 4.0 * hamiltonian_matrix(h, n).toarray()
        ) @ state
        got = expm_multiply_matrix_free(h, state, 4.0, n)
        assert np.allclose(got, reference, atol=1e-8)

    def test_zero_duration_and_zero_norm(self):
        state = np.zeros(8, dtype=complex)
        out = expm_multiply_matrix_free(zz(0, 1), state, 1.0, 3)
        assert np.allclose(out, state)
        state[0] = 1.0
        out = expm_multiply_matrix_free(zz(0, 1), state, 0.0, 3)
        assert np.allclose(out, state)

    def test_negative_duration_rejected(self):
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        with pytest.raises(SimulationError):
            lanczos_expm_multiply(
                hamiltonian_kernel(zz(0, 1), 3), state, -1.0
            )


class TestBackendSelection:
    """auto: all-Z → diagonal; N ≤ propagator_max_qubits → dense;
    otherwise → matrix_free."""

    def test_diagonal_always_wins(self):
        h = zz(0, 1) + 0.5 * z(2)
        for n in (3, 12, 20):
            assert select_backend(h, n) == "diagonal"

    def test_small_registers_stay_dense(self):
        h = zz(0, 1) + x(0)
        for n in (2, 10):
            assert select_backend(h, n) == "dense"

    def test_one_shot_large_register_goes_matrix_free(self):
        h = zz(0, 1) + x(0)
        for n in (11, 12, 16, 22):
            assert select_backend(h, n) == "matrix_free"

    def test_dense_cutoff_follows_propagator_max_qubits(self):
        h = zz(0, 1) + x(0)
        configure_simulation_caches(propagator_max_qubits=6)
        assert select_backend(h, 6) == "dense"
        assert select_backend(h, 7) == "matrix_free"

    def test_wide_blocks_are_chunked_to_the_budget(self, exact_evolve):
        """A tiny budget forces column-chunked matrix-free propagation
        without changing the result."""
        from repro.sim.propagators import matrix_free_block_columns

        rng = np.random.default_rng(22)
        n, k = 4, 6
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, k)
        reference = exact_evolve(block, h, 0.6, n)
        configure_simulation_caches(memory_budget_bytes=2 * 8 * 2**n * 16)
        assert matrix_free_block_columns(n) == 2  # 3 chunks for k=6
        out = evolve(block, h, 0.6, n, backend="matrix_free")
        assert np.allclose(out, reference, atol=ATOL)

    def test_operator_cap_forces_matrix_free(self):
        h = zz(0, 1) + x(0)
        assert select_backend(h, max_operator_qubits() + 1) == "matrix_free"

    def test_auto_evolution_uses_matrix_free_counter(self):
        rng = np.random.default_rng(21)
        n = 12
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        evolve(state, h, 0.3, n, cache=False)  # auto → matrix_free
        assert simulation_cache_stats()["fast_paths"]["matrix_free"] >= 1

    def test_conflicting_selectors_rejected(self):
        """``backend`` is the only selector; retired names are errors."""
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        with pytest.raises(TypeError):
            evolve(state, zz(0, 1), 0.5, 3, method="krylov")
        for backend in ("gpu", "sparse", "krylov"):
            with pytest.raises(SimulationError):
                evolve(state, x(0), 0.5, 3, backend=backend)


class TestPropagatorCacheEviction:
    def test_block_evolution_at_dense_cutoff_evicts(self, exact_evolve):
        """A tiny propagator cache under block evolution must evict, not
        grow — and keep producing correct states while doing so."""
        configure_simulation_caches(propagator_maxsize=2)
        rng = np.random.default_rng(31)
        n = 3
        hams = [random_hamiltonian(rng, n) for _ in range(5)]
        block = random_block(rng, n, 5)
        out = evolve_block(block, hams, 0.4, n, cache=True)
        stats = simulation_cache_stats()["propagator"]
        assert stats["evictions"] >= 3
        assert stats["size"] <= 2
        for i, h in enumerate(hams):
            reference = exact_evolve(block[:, i], h, 0.4, n)
            assert np.allclose(out[:, i], reference, atol=ATOL)

    def test_eviction_keeps_most_recent_entries_hittable(self):
        configure_simulation_caches(propagator_maxsize=1)
        rng = np.random.default_rng(32)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        evolve(state, h, 0.9, n)
        before = simulation_cache_stats()["propagator"]["hits"]
        evolve(state, h, 0.9, n)
        assert simulation_cache_stats()["propagator"]["hits"] == before + 1


class TestConfigurableOperatorCap:
    def test_error_names_matrix_free_escape_hatch(self):
        with pytest.raises(SimulationError) as error:
            pauli_string_matrix(PauliString.single("X", 0), 30)
        message = str(error.value)
        assert "matrix_free" in message
        assert "configure_operator_limits" in message

    def test_cap_is_configurable(self):
        configure_operator_limits(max_qubits=3)
        with pytest.raises(SimulationError):
            hamiltonian_matrix(zz(0, 1), 4)
        configure_operator_limits(max_qubits=16)
        hamiltonian_matrix(zz(0, 1), 4)

    def test_invalid_cap_rejected(self):
        with pytest.raises(SimulationError):
            configure_operator_limits(max_qubits=0)

    def test_matrix_free_ignores_the_cap(self, exact_evolve):
        configure_operator_limits(max_qubits=3)
        rng = np.random.default_rng(41)
        state = random_block(rng, 4, 1)[:, 0]
        h = zz(0, 1) + x(3)
        out = evolve(state, h, 0.5, 4, backend="matrix_free")
        configure_operator_limits(max_qubits=16)
        reference = exact_evolve(state, h, 0.5, 4)
        assert np.allclose(out, reference, atol=ATOL)


class TestKernelCaches:
    def test_structure_shared_across_coefficient_perturbations(self):
        """Noise-realization pattern: same support, new coefficients."""
        rng = np.random.default_rng(51)
        n = 4
        strings = [PauliString({0: "X"}), PauliString({1: "Z", 2: "Z"})]
        state = random_block(rng, n, 1)[:, 0]
        for _ in range(5):
            h = Hamiltonian(
                {s: float(rng.normal()) for s in strings}
            )
            evolve(state, h, 0.3, n, cache=False, backend="matrix_free")
        stats = kernel_cache_stats()["structure"]
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_cache_false_stores_no_kernel(self):
        rng = np.random.default_rng(52)
        h = random_hamiltonian(rng, 3)
        state = random_block(rng, 3, 1)[:, 0]
        evolve(state, h, 0.4, 3, cache=False, backend="matrix_free")
        assert kernel_cache_stats()["kernel"]["size"] == 0
        evolve(state, h, 0.4, 3, cache=True, backend="matrix_free")
        assert kernel_cache_stats()["kernel"]["size"] == 1

    def test_stats_surface_through_simulation_cache_stats(self):
        stats = simulation_cache_stats()
        assert set(stats["kernel"]) == {"sign", "structure", "kernel"}
        assert "memory_budget_bytes" in stats["limits"]
        assert "matrix_free" in stats["fast_paths"]

    def test_cli_cache_stats_includes_kernels(self, capsys):
        assert cli_main(["cache-stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "kernel" in payload["simulation_cache"]

    def test_invalid_selection_limits_rejected(self):
        with pytest.raises(SimulationError):
            configure_simulation_caches(memory_budget_bytes=0)

    def test_cli_rejects_backend_with_legacy_loop(self, capsys):
        """The legacy loop and its flag are gone: a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                [
                    "simulate",
                    "--model",
                    "ising_chain",
                    "-n",
                    "3",
                    "--shots",
                    "20",
                    "--no-vectorized",
                    "--backend",
                    "matrix_free",
                ]
            )
        assert exit_info.value.code == 2
        assert "--no-vectorized" in capsys.readouterr().err


class TestNoisySimulatorBackend:
    def test_backend_validated(self):
        with pytest.raises(SimulationError):
            NoisySimulator(backend="magic")


class TestBenchReportSchema:
    def test_all_bench_reports_share_schema_fields(self):
        """benchmark / quick / runs are the cross-benchmark contract."""
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        reports = sorted(repo.glob("BENCH_*.json"))
        assert len(reports) >= 4
        for report in reports:
            payload = json.loads(report.read_text())
            for field in ("benchmark", "quick", "runs"):
                assert field in payload, f"{report.name} missing {field}"
            assert isinstance(payload["runs"], list)
            assert payload["runs"]
