"""The vectorized simulation engine: block evolution, the diagonal and
dense-propagator fast paths, the propagator cache, and the vectorized
Monte-Carlo executor.  References come from the ``exact_evolve`` fixture,
which shares no code with the engine's backends."""

import json

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from repro import QTurboCompiler
from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.hamiltonian import Hamiltonian, PauliString
from repro.hamiltonian.expression import number_op, x, z, zz
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.models import ising_chain
from repro.sim import (
    NoisySimulator,
    clear_simulation_caches,
    configure_simulation_caches,
    evolve,
    evolve_block,
    evolve_piecewise,
    evolve_schedule,
    evolve_schedule_block,
    simulation_cache_stats,
)
from repro.sim.operators import clear_operator_cache, hamiltonian_matrix
from repro.sim.propagators import is_diagonal_hamiltonian
from repro.sim.sampling import counts_from_samples, sample_bitstrings

ATOL = 1e-10


@pytest.fixture(autouse=True)
def fresh_simulation_caches():
    """Each test starts and ends with empty, default-configured caches."""
    clear_operator_cache()
    clear_simulation_caches()
    configure_simulation_caches(
        propagator_maxsize=256,
        diagonal_maxsize=1024,
        dense_string_maxsize=2048,
        propagator_max_qubits=10,
        propagator_build_max_qubits=7,
    )
    yield
    clear_operator_cache()
    clear_simulation_caches()
    configure_simulation_caches(
        propagator_maxsize=256,
        diagonal_maxsize=1024,
        dense_string_maxsize=2048,
        propagator_max_qubits=10,
        propagator_build_max_qubits=7,
    )


def random_hamiltonian(
    rng: np.random.Generator, num_qubits: int, diagonal: bool = False
) -> Hamiltonian:
    """A random few-term Hamiltonian (Z-only when ``diagonal``)."""
    labels = ("Z",) if diagonal else ("X", "Y", "Z")
    terms = {}
    for _ in range(rng.integers(2, 6)):
        weight = int(rng.integers(1, num_qubits + 1))
        qubits = rng.choice(num_qubits, size=weight, replace=False)
        ops = {int(q): str(rng.choice(labels)) for q in qubits}
        terms[PauliString(ops)] = float(rng.normal())
    return Hamiltonian(terms)


def random_block(
    rng: np.random.Generator, num_qubits: int, k: int
) -> np.ndarray:
    block = rng.standard_normal((2**num_qubits, k)) + 1j * rng.standard_normal(
        (2**num_qubits, k)
    )
    return block / np.linalg.norm(block, axis=0)


class TestBlockEvolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_block_matches_single_evolutions(self, seed, exact_evolve):
        """Acceptance: (dim, k) block == k independent single evolutions."""
        rng = np.random.default_rng(seed)
        n, k = 4, 5
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, k)
        out = evolve(block, h, 0.7, n)
        singles = np.stack(
            [exact_evolve(block[:, i], h, 0.7, n) for i in range(k)],
            axis=1,
        )
        assert np.allclose(out, singles, atol=ATOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_evolve_block_distinct_hamiltonians(self, seed, exact_evolve):
        rng = np.random.default_rng(100 + seed)
        n, k = 3, 6
        hams = [random_hamiltonian(rng, n) for _ in range(k)]
        durations = rng.uniform(0.1, 1.5, k)
        block = random_block(rng, n, k)
        out = evolve_block(block, hams, durations, n)
        for i in range(k):
            single = exact_evolve(block[:, i], hams[i], durations[i], n)
            assert np.allclose(out[:, i], single, atol=ATOL)

    def test_identical_columns_grouped(self):
        """Columns sharing (H, t) must not trigger per-column solves."""
        rng = np.random.default_rng(1)
        n, k = 3, 8
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, k)
        evolve_block(block, [h] * k, 0.5, n)
        fast = simulation_cache_stats()["fast_paths"]
        # All 8 columns went through one dense build.
        assert fast["dense_build"] == k
        assert fast["matrix_free"] == 0

    def test_zero_duration_and_zero_hamiltonian(self):
        rng = np.random.default_rng(2)
        block = random_block(rng, 3, 2)
        out = evolve_block(
            block, [Hamiltonian.zero(), zz(0, 1)], [0.4, 0.0], 3
        )
        assert np.allclose(out, block, atol=ATOL)

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        block = random_block(rng, 3, 2)
        with pytest.raises(SimulationError):
            evolve_block(block, [zz(0, 1)], 0.5, 3)  # 1 H for 2 columns
        with pytest.raises(SimulationError):
            evolve_block(block, [zz(0, 1), x(0)], [0.5], 3)
        with pytest.raises(SimulationError):
            evolve_block(block, [zz(0, 1), x(0)], -0.5, 3)
        with pytest.raises(SimulationError):
            evolve_block(block[:, 0], [zz(0, 1)], 0.5, 3)  # not a block
        with pytest.raises(SimulationError):
            evolve(block, zz(0, 1), 0.5, 3, backend="magic")


class TestDiagonalFastPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_krylov_on_random_diagonal(self, seed):
        """Against scipy's ``expm_multiply`` on the sparse CSR matrix."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        h = random_hamiltonian(rng, n, diagonal=True)
        state = random_block(rng, n, 1)[:, 0]
        fast = evolve(state, h, 1.3, n)
        matrix = hamiltonian_matrix(h, n, cache=False).tocsc()
        reference = expm_multiply(-1j * 1.3 * matrix, state)
        assert np.allclose(fast, reference, atol=ATOL)
        assert simulation_cache_stats()["fast_paths"]["diagonal"] >= 1

    def test_detection(self):
        assert is_diagonal_hamiltonian(zz(0, 1) + 0.3 * z(2))
        assert is_diagonal_hamiltonian(number_op(0))  # identity + Z
        assert is_diagonal_hamiltonian(Hamiltonian.zero())
        assert not is_diagonal_hamiltonian(zz(0, 1) + 0.1 * x(0))

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_piecewise_schedule(self, seed, exact_evolve):
        """Alternating diagonal / non-diagonal segments, block state."""
        rng = np.random.default_rng(200 + seed)
        n = 4
        segments = []
        for index in range(5):
            segments.append(
                (
                    float(rng.uniform(0.1, 0.8)),
                    random_hamiltonian(rng, n, diagonal=index % 2 == 0),
                )
            )
        target = PiecewiseHamiltonian.from_pairs(segments)
        block = random_block(rng, n, 3)
        out = evolve_piecewise(block, target, n)
        reference = block
        for segment in target.segments:
            reference = exact_evolve(
                reference, segment.hamiltonian, segment.duration, n
            )
        assert np.allclose(out, reference, atol=ATOL)
        assert simulation_cache_stats()["fast_paths"]["diagonal"] > 0


class TestSupportValidation:
    def test_out_of_range_qubit_rejected_on_every_path(self):
        """Fast paths must keep the CSR layer's register-size guard."""
        rng = np.random.default_rng(42)
        state = random_block(rng, 3, 1)[:, 0]
        non_diagonal = x(0) + x(5)
        diagonal = z(0) + z(5)
        for backend in ("auto", "dense", "matrix_free"):
            with pytest.raises(SimulationError):
                evolve(state, non_diagonal, 0.5, 3, backend=backend)
            with pytest.raises(SimulationError):
                evolve(state, diagonal, 0.5, 3, backend=backend)


class TestPropagatorCache:
    def test_repeat_evolution_hits_cache(self, exact_evolve):
        rng = np.random.default_rng(5)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        first = evolve(state, h, 0.9, n)
        second = evolve(state, h, 0.9, n)
        stats = simulation_cache_stats()
        assert stats["propagator"]["hits"] >= 1
        assert stats["fast_paths"]["propagator"] >= 1
        assert np.allclose(first, second, atol=ATOL)
        reference = exact_evolve(state, h, 0.9, n)
        assert np.allclose(first, reference, atol=ATOL)

    def test_distinct_durations_are_distinct_entries(self):
        rng = np.random.default_rng(6)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        evolve(state, h, 0.5, n)
        evolve(state, h, 0.6, n)
        assert simulation_cache_stats()["propagator"]["size"] == 2

    def test_cache_false_does_not_store(self):
        rng = np.random.default_rng(7)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        evolve(state, h, 0.9, n, cache=False)
        assert simulation_cache_stats()["propagator"]["size"] == 0

    def test_block_reads_cache_warmed_by_single(self, exact_evolve):
        rng = np.random.default_rng(8)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        evolve(state, h, 0.4, n)  # warm
        block = random_block(rng, n, 4)
        out = evolve_block(block, [h] * 4, 0.4, n)
        assert simulation_cache_stats()["fast_paths"]["propagator"] >= 4
        for i in range(4):
            reference = exact_evolve(block[:, i], h, 0.4, n)
            assert np.allclose(out[:, i], reference, atol=ATOL)

    def test_build_threshold_zero_falls_back_to_matrix_free(
        self, exact_evolve
    ):
        """A dense-cache miss above the build threshold goes matrix-free."""
        configure_simulation_caches(propagator_build_max_qubits=0)
        rng = np.random.default_rng(9)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        out = evolve(state, h, 0.9, n)
        stats = simulation_cache_stats()
        assert stats["fast_paths"]["matrix_free"] == 1
        assert stats["fast_paths"]["dense_build"] == 0
        assert stats["fast_paths"]["krylov"] == 0
        assert np.allclose(out, exact_evolve(state, h, 0.9, n), atol=ATOL)


def exact_schedule_evolve(exact_evolve, state, schedule, overrides=None):
    """Walk the schedule segment by segment with the exact reference."""
    for index, segment in enumerate(schedule.segments):
        values = schedule.values_at_segment(index)
        if overrides is not None:
            values.update(overrides[index])
        state = exact_evolve(
            state,
            schedule.aais.hamiltonian(values),
            segment.duration,
            schedule.aais.num_sites,
        )
    return state


class TestEvolveScheduleBlock:
    @pytest.fixture
    def schedule(self, paper_aais):
        return QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0).schedule

    def test_unperturbed_block_matches_single(self, schedule, exact_evolve):
        rng = np.random.default_rng(10)
        block = random_block(rng, 3, 4)
        out = evolve_schedule_block(block, schedule)
        for i in range(4):
            single = exact_schedule_evolve(exact_evolve, block[:, i], schedule)
            assert np.allclose(out[:, i], single, atol=ATOL)

    def test_overrides_match_per_column_loop(self, schedule, exact_evolve):
        rng = np.random.default_rng(11)
        k = 5
        block = random_block(rng, 3, k)
        overrides = []
        for _ in range(k):
            shift = float(rng.normal(0.0, 0.3))
            overrides.append(
                [
                    {
                        name: value + shift
                        for name, value in segment.dynamic_values.items()
                        if name.startswith("delta")
                    }
                    for segment in schedule.segments
                ]
            )
        out = evolve_schedule_block(block, schedule, overrides)
        for i in range(k):
            single = evolve_schedule(
                block[:, i], schedule, value_overrides=overrides[i]
            )
            assert np.allclose(out[:, i], single, atol=ATOL)
            reference = exact_schedule_evolve(
                exact_evolve, block[:, i], schedule, overrides[i]
            )
            assert np.allclose(out[:, i], reference, atol=ATOL)

    def test_override_count_mismatch_rejected(self, schedule):
        rng = np.random.default_rng(12)
        block = random_block(rng, 3, 3)
        with pytest.raises(SimulationError):
            evolve_schedule_block(
                block, schedule, [[{}] * schedule.num_segments] * 2
            )


class TestVectorizedNoisySimulator:
    @pytest.fixture
    def schedule(self, paper_aais):
        return QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0).schedule

    def test_run_many_fresh_rng_per_schedule(self, schedule):
        simulator = NoisySimulator(noise_samples=3, seed=1)
        first, second = simulator.run_many(
            [schedule, schedule], shots=60
        )
        # rng=None re-seeds per schedule, matching repeated run() calls.
        assert np.array_equal(first, second)

    def test_run_many_threads_shared_rng(self, schedule):
        simulator = NoisySimulator(noise_samples=3, seed=1)
        rng = np.random.default_rng(9)
        first, second = simulator.run_many(
            [schedule, schedule], shots=60, rng=rng
        )
        assert not np.array_equal(first, second)


class TestSampling:
    def test_counts_match_naive_histogram(self):
        rng = np.random.default_rng(13)
        samples = rng.integers(0, 2, size=(500, 4)).astype(np.int8)
        counts = counts_from_samples(samples)
        naive = {}
        for row in samples:
            key = "".join(str(b) for b in row)
            naive[key] = naive.get(key, 0) + 1
        assert counts == naive

    def test_inverse_transform_skips_zero_probability(self):
        state = np.zeros(8, dtype=complex)
        state[5] = 1.0  # |101⟩
        samples = sample_bitstrings(
            state, 100, rng=np.random.default_rng(0)
        )
        assert np.all(samples == np.array([1, 0, 1], dtype=np.int8))


class TestCLI:
    def test_cache_stats_json(self, capsys):
        assert cli_main(["cache-stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "operator_cache" in payload
        assert "simulation_cache" in payload
        assert "propagator" in payload["simulation_cache"]

    def test_simulate_reports_observables_and_stats(self, capsys):
        code = cli_main(
            [
                "simulate",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--shots",
                "50",
                "--noise-samples",
                "2",
                "--stats",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["observables"]) == {"z_avg", "zz_avg"}
        assert payload["backend"] == "auto"
        assert "simulation_cache" in payload

    def test_simulate_zne(self, capsys):
        code = cli_main(
            [
                "simulate",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--shots",
                "40",
                "--noise-samples",
                "2",
                "--zne",
                "1,1.5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zne"]["factors"] == [1.0, 1.5]
        assert set(payload["zne"]["mitigated"]) == {"z_avg", "zz_avg"}

    def test_simulate_rejects_bad_zne(self, capsys):
        code = cli_main(
            [
                "simulate",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--zne",
                "1,banana",
            ]
        )
        assert code == 2

    def test_simulate_rejects_sparse_backend(self, capsys):
        """The sparse backend is gone: a usage error naming the flag."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                [
                    "simulate",
                    "--model",
                    "ising_chain",
                    "-n",
                    "3",
                    "--backend",
                    "sparse",
                ]
            )
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err
