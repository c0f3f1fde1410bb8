"""The vectorized simulation engine: block evolution, the diagonal and
dense-propagator fast paths, the propagator cache, the N = 7 / 8 dense
boundary, and the vectorized Monte-Carlo executor.  References come from
the ``exact_evolve`` fixture, which shares no code with the engine's
paths."""

import json

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from repro import QTurboCompiler
from repro.cli import main as cli_main
from repro.errors import SimulationError
from repro.hamiltonian import Hamiltonian, PauliString
from repro.hamiltonian.expression import number_op, x, z, zz
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.models import ising_chain
from repro.sim import (
    DENSE_MAX_QUBITS,
    NoisySimulator,
    clear_simulation_caches,
    configure_simulation_caches,
    evolve,
    evolve_piecewise,
    evolve_realizations,
    evolve_schedule,
    kernel_cache_stats,
    simulation_cache_stats,
)
from repro.sim.operators import clear_operator_cache, hamiltonian_matrix
from repro.sim.sampling import counts_from_samples, sample_bitstrings

ATOL = 1e-10


@pytest.fixture(autouse=True)
def fresh_simulation_caches():
    """Each test starts and ends with empty, default-configured caches."""
    clear_operator_cache()
    clear_simulation_caches()
    configure_simulation_caches(
        propagator_maxsize=256, dense_string_maxsize=2048
    )
    yield
    clear_operator_cache()
    clear_simulation_caches()
    configure_simulation_caches(
        propagator_maxsize=256, dense_string_maxsize=2048
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

    def test_shared_hamiltonian_is_one_solve(self):
        """All columns of a block share one dense build, not one each."""
        rng = np.random.default_rng(1)
        n, k = 3, 8
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, k)
        evolve(block, h, 0.5, n)
        fast = simulation_cache_stats()["fast_paths"]
        assert fast["dense_build"] == k
        assert fast["matrix_free"] == 0
        assert simulation_cache_stats()["propagator"]["size"] == 1

    def test_zero_duration_and_zero_hamiltonian(self):
        rng = np.random.default_rng(2)
        block = random_block(rng, 3, 2)
        zero = evolve(block, Hamiltonian.zero(), 0.4, 3)
        instant = evolve(block, zz(0, 1), 0.0, 3)
        assert np.array_equal(zero, block)
        assert np.array_equal(instant, block)
        assert zero is not block and instant is not block
        assert sum(simulation_cache_stats()["fast_paths"].values()) == 0

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        block = random_block(rng, 3, 2)
        with pytest.raises(SimulationError):
            evolve(block, zz(0, 1) + x(0), -0.5, 3)
        with pytest.raises(SimulationError):
            evolve(block[:4], zz(0, 1), 0.5, 3)  # wrong dimension
        with pytest.raises(SimulationError):
            evolve(block[:, :, None], zz(0, 1), 0.5, 3)  # not 1-D or 2-D
        with pytest.raises(SimulationError):
            evolve(block, zz(0, 1), 0.5, 3, backend="magic")

    def test_retired_keywords_rejected(self, paper_aais):
        """``cache`` and ``value_overrides`` are gone: every ideal call
        may memoize, and realizations go through evolve_realizations."""
        schedule = (
            QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0).schedule
        )
        state = random_block(np.random.default_rng(4), 3, 1)[:, 0]
        with pytest.raises(TypeError):
            evolve(state, zz(0, 1), 0.5, 3, cache=False)
        with pytest.raises(TypeError):
            evolve_schedule(state, schedule, value_overrides=None)


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

    @pytest.mark.parametrize(
        "hamiltonian, diagonal",
        [
            (zz(0, 1) + 0.3 * z(2), True),
            (number_op(0), True),  # identity + Z
            (zz(0, 1) + 0.1 * x(0), False),
        ],
    )
    def test_detection(self, hamiltonian, diagonal, exact_evolve):
        state = random_block(np.random.default_rng(7), 3, 1)[:, 0]
        out = evolve(state, hamiltonian, 0.6, 3)
        counted = simulation_cache_stats()["fast_paths"]["diagonal"]
        assert counted == (1 if diagonal else 0)
        reference = exact_evolve(state, hamiltonian, 0.6, 3)
        assert np.allclose(out, reference, atol=ATOL)

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

    def test_realizations_neither_probe_nor_store(self):
        """One-shot realizations leave the propagator and kernel caches
        untouched, so their misses do not dilute the hit rates."""
        schedule = chain_schedule(3, np.random.default_rng(7))
        arrays = draw_realizations(schedule, 4, seed=7)
        evolve_realizations(ground_block(3, 4), schedule, arrays)
        assert simulation_cache_stats()["propagator"]["misses"] == 0
        assert simulation_cache_stats()["propagator"]["size"] == 0
        assert kernel_cache_stats()["kernel"]["misses"] == 0
        assert kernel_cache_stats()["kernel"]["size"] == 0

    def test_block_reads_cache_warmed_by_single(self, exact_evolve):
        rng = np.random.default_rng(8)
        n = 3
        h = random_hamiltonian(rng, n)
        state = random_block(rng, n, 1)[:, 0]
        evolve(state, h, 0.4, n)  # warm
        block = random_block(rng, n, 4)
        out = evolve(block, h, 0.4, n)
        assert simulation_cache_stats()["fast_paths"]["propagator"] >= 4
        for i in range(4):
            reference = exact_evolve(block[:, i], h, 0.4, n)
            assert np.allclose(out[:, i], reference, atol=ATOL)

    def test_ideal_schedule_repeat_hits_cache(self, paper_aais):
        """A schedule evolved again costs one cached matmul per segment."""
        schedule = (
            QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0).schedule
        )
        state = random_block(np.random.default_rng(10), 3, 1)[:, 0]
        first = evolve_schedule(state, schedule)
        built = simulation_cache_stats()["fast_paths"]["dense_build"]
        assert built == schedule.num_segments
        second = evolve_schedule(state, schedule)
        fast = simulation_cache_stats()["fast_paths"]
        assert fast["propagator"] == schedule.num_segments
        assert fast["dense_build"] == built
        assert np.array_equal(first, second)


class TestDenseBoundary:
    """Ideal evolution is dense (memoized) up to N = DENSE_MAX_QUBITS and
    matrix-free above it; an all-Z support is a phase multiply at both
    sizes.  Vector and block inputs against the dense reference."""

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("n", [DENSE_MAX_QUBITS, DENSE_MAX_QUBITS + 1])
    def test_paths_and_counters(self, n, columns, exact_evolve):
        assert DENSE_MAX_QUBITS == 7
        rng = np.random.default_rng(n * 10 + (columns or 1))
        h = random_hamiltonian(rng, n) + 0.4 * x(n - 1)
        block = random_block(rng, n, columns or 1)
        state = block if columns else block[:, 0]
        width = columns or 1
        reference = exact_evolve(state, h, 0.6, n)

        first = evolve(state, h, 0.6, n)
        second = evolve(state, h, 0.6, n)
        assert first.shape == state.shape
        assert np.allclose(first, reference, atol=ATOL)
        assert np.allclose(second, reference, atol=ATOL)
        fast = simulation_cache_stats()["fast_paths"]
        if n <= DENSE_MAX_QUBITS:
            assert fast["dense_build"] == width
            assert fast["propagator"] == width
            assert fast["matrix_free"] == 0
        else:
            assert fast["matrix_free"] == 2 * width
            assert fast["dense_build"] == fast["propagator"] == 0
            assert simulation_cache_stats()["propagator"]["misses"] == 0

        diagonal = zz(0, n - 1) + 0.7 * z(1)
        out = evolve(state, diagonal, 0.6, n)
        assert np.allclose(
            out, exact_evolve(state, diagonal, 0.6, n), atol=ATOL
        )
        assert simulation_cache_stats()["fast_paths"]["diagonal"] == width


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


class TestScheduleEvolution:
    @pytest.fixture
    def schedule(self, paper_aais):
        return QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0).schedule

    def test_unperturbed_block_matches_single(self, schedule, exact_evolve):
        rng = np.random.default_rng(10)
        block = random_block(rng, 3, 4)
        out = evolve_schedule(block, schedule)
        for i in range(4):
            single = exact_schedule_evolve(exact_evolve, block[:, i], schedule)
            assert np.allclose(out[:, i], single, atol=ATOL)

    def test_per_column_shifts_match_reference(self, schedule, exact_evolve):
        rng = np.random.default_rng(11)
        k = 5
        block = random_block(rng, 3, k)
        shifts = rng.normal(0.0, 0.3, k)
        arrays = [
            {
                name: value + shifts
                for name, value in segment.dynamic_values.items()
                if name.startswith("delta")
            }
            for segment in schedule.segments
        ]
        out = evolve_realizations(block, schedule, arrays)
        for i, overrides in enumerate(per_column(arrays, k)):
            reference = exact_schedule_evolve(
                exact_evolve, block[:, i], schedule, overrides
            )
            assert np.allclose(out[:, i], reference, atol=ATOL)

    def test_override_width_mismatch_rejected(self, schedule):
        rng = np.random.default_rng(12)
        block = random_block(rng, 3, 3)
        arrays = [
            {
                name: np.full(2, value)
                for name, value in segment.dynamic_values.items()
            }
            for segment in schedule.segments
        ]
        with pytest.raises(SimulationError):
            evolve_realizations(block, schedule, arrays)
        with pytest.raises(SimulationError):
            evolve_realizations(block[:, 0], schedule, arrays)  # not a block


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
        assert "backend" not in payload
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

    @pytest.mark.parametrize("backend", ["auto", "matrix_free", "sparse"])
    def test_simulate_rejects_backend_flag(self, backend, capsys):
        """The simulator picks the path itself: ``--backend`` is a usage
        error naming the flag, whatever its value."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                [
                    "simulate",
                    "--model",
                    "ising_chain",
                    "-n",
                    "3",
                    "--backend",
                    backend,
                ]
            )
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Noise realizations as one batch
# ----------------------------------------------------------------------
def realization_schedule(aais, rng, fixed, omega=1.2, phi=0.0, segments=3):
    """A three-segment schedule with random detunings/amplitudes."""
    from repro.pulse.schedule import PulseSchedule, PulseSegment

    pulses = []
    for _ in range(segments):
        values = {}
        for variable in aais.dynamic_variables:
            name = variable.name
            if name.startswith("omega"):
                values[name] = omega * float(rng.uniform(0.5, 1.0))
            elif name.startswith("phi"):
                values[name] = phi
            else:  # detunings and Heisenberg amplitudes
                values[name] = float(rng.uniform(-1.5, 1.5))
        pulses.append(
            PulseSegment(
                duration=float(rng.uniform(0.1, 0.3)), dynamic_values=values
            )
        )
    return PulseSchedule(aais, fixed, pulses)


def chain_schedule(n, rng, **kwargs):
    from repro.aais import aais_for_device

    aais = aais_for_device("rydberg-1d", n)
    return realization_schedule(
        aais, rng, aais.default_positions(spacing=6.0), **kwargs
    )


def draw_realizations(schedule, k, seed, **noise):
    """Per-segment ``(k,)`` override arrays from the noise model."""
    from repro.sim import aquila_noise

    simulator = NoisySimulator(noise=aquila_noise(**noise))
    return simulator._draw_override_batch(
        schedule, np.random.default_rng(seed), k
    )


def per_column(arrays, k):
    """The same realizations as per-column lists of override dicts."""
    return [
        [{name: float(v[col]) for name, v in entry.items()} for entry in arrays]
        for col in range(k)
    ]


def reference_realization(schedule, overrides, state):
    """One realization evolved segment by segment from the dense (CSR
    above 10 qubits) matrix of ``aais.hamiltonian(values)`` and scipy;
    it shares no code with the engine's paths."""
    n = schedule.aais.num_sites
    for index, segment in enumerate(schedule.segments):
        values = schedule.values_at_segment(index)
        values.update(overrides[index])
        matrix = hamiltonian_matrix(
            schedule.aais.hamiltonian(values), n, cache=False
        )
        if n <= 10:
            state = expm(-1j * segment.duration * matrix.toarray()) @ state
        else:
            state = expm_multiply(-1j * segment.duration * matrix.tocsc(), state)
    return state


def assert_batch_matches_columns(schedule, arrays, block):
    """Batched evolution == the per-realization reference to 1e-10."""
    k = block.shape[1]
    batched = evolve_realizations(block, schedule, arrays)
    for col, overrides in enumerate(per_column(arrays, k)):
        single = reference_realization(schedule, overrides, block[:, col])
        assert np.abs(batched[:, col] - single).max() <= 1e-10
    return batched


def ground_block(n, k):
    block = np.zeros((2**n, k), dtype=complex)
    block[0] = 1.0
    return block


class TestBatchedRealizations:
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_rydberg_chain_matches_per_column(self, n):
        rng = np.random.default_rng(n)
        schedule = chain_schedule(n, rng)
        k = 5
        arrays = draw_realizations(schedule, k, seed=n)
        evolve_realizations(ground_block(n, k), schedule, arrays)
        paths = simulation_cache_stats()["fast_paths"]
        assert paths["matrix_free"] == k * schedule.num_segments
        assert_batch_matches_columns(schedule, arrays, ground_block(n, k))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_auto_matches_forced_dense_at_small_n(self, n):
        """``auto`` runs small registers matrix-free; the batched dense
        ``expm`` it no longer takes stays the reference."""
        schedule = chain_schedule(n, np.random.default_rng(20 + n))
        k = 5
        arrays = draw_realizations(schedule, k, seed=20 + n)
        block = random_block(np.random.default_rng(n), n, k)
        auto = evolve_realizations(block, schedule, arrays)
        paths = simulation_cache_stats()["fast_paths"]
        assert paths["dense_build"] == 0
        assert paths["matrix_free"] == k * schedule.num_segments
        dense = evolve_realizations(block, schedule, arrays, backend="dense")
        paths = simulation_cache_stats()["fast_paths"]
        assert paths["dense_build"] == k * schedule.num_segments
        assert np.abs(auto - dense).max() <= 1e-10

    def test_complex_phase_matches_forced_dense(self):
        n, k = 5, 4
        schedule = chain_schedule(n, np.random.default_rng(8), phi=0.7)
        arrays = draw_realizations(schedule, k, seed=8)
        block = ground_block(n, k)
        auto = evolve_realizations(block, schedule, arrays)
        assert simulation_cache_stats()["fast_paths"]["dense_build"] == 0
        dense = evolve_realizations(block, schedule, arrays, backend="dense")
        assert np.abs(auto - dense).max() <= 1e-10

    def test_detuning_only_segments_stay_diagonal(self):
        n, k = 8, 4
        schedule = chain_schedule(n, np.random.default_rng(1), omega=0.0)
        arrays = draw_realizations(schedule, k, seed=1)
        # |0…0⟩ is a zero-energy eigenstate of every detuning-only
        # realization, so a random block is the informative input.
        block = random_block(np.random.default_rng(1), n, k)
        evolve_realizations(block, schedule, arrays)
        paths = simulation_cache_stats()["fast_paths"]
        assert paths["diagonal"] == k * schedule.num_segments
        assert paths["matrix_free"] == 0
        assert_batch_matches_columns(schedule, arrays, block)

    def test_nonzero_phase_runs_a_complex_kernel(self):
        from repro.sim.kernels import _structure_for

        n, k = 8, 4
        schedule = chain_schedule(n, np.random.default_rng(2), phi=0.7)
        strings = schedule.hamiltonian_at_segment(0).pauli_strings()
        structure = _structure_for(
            tuple(s.canonical_key for s in strings), n
        )
        assert not structure.real
        arrays = draw_realizations(schedule, k, seed=2)
        assert_batch_matches_columns(schedule, arrays, ground_block(n, k))

    @pytest.mark.parametrize("n", [6, 8])
    def test_2d_rydberg_with_xy_jitter(self, n):
        from repro.aais import aais_for_device

        aais = aais_for_device("rydberg", n)
        fixed = {}
        for site in range(n):
            fixed[f"x_{site}"] = 10.0 + 6.0 * (site % 4)
            fixed[f"y_{site}"] = 10.0 + 6.0 * (site // 4)
        schedule = realization_schedule(aais, np.random.default_rng(n), fixed)
        k = 4
        arrays = draw_realizations(schedule, k, seed=n)
        assert {f"y_{site}" for site in range(n)} <= set(arrays[0])
        assert_batch_matches_columns(schedule, arrays, ground_block(n, k))

    def test_heisenberg_amplitude_scaling(self):
        from repro.aais import HeisenbergAAIS

        n, k = 8, 4
        aais = HeisenbergAAIS(n)
        schedule = realization_schedule(aais, np.random.default_rng(3), {})
        arrays = draw_realizations(
            schedule, k, seed=3, amplitude_relative_sigma=0.1
        )
        assert any(name.startswith("a_") for name in arrays[0])
        assert_batch_matches_columns(schedule, arrays, ground_block(n, k))

    def test_drive_off_in_some_columns_only(self):
        n, k = 8, 6
        schedule = chain_schedule(n, np.random.default_rng(4))
        arrays = draw_realizations(schedule, k, seed=4)
        for entry in arrays:
            for name in entry:
                if name.startswith("omega"):
                    entry[name] = entry[name] * (np.arange(k) % 2)
        assert_batch_matches_columns(schedule, arrays, ground_block(n, k))

    def test_complex_input_block_splits_rows(self):
        n, k = 10, 3
        schedule = chain_schedule(n, np.random.default_rng(5))
        arrays = draw_realizations(schedule, k, seed=5)
        block = random_block(np.random.default_rng(5), n, k)
        assert_batch_matches_columns(schedule, arrays, block)

    def test_budget_chunks_match_unchunked_run(self):
        """A budget of three columns' working set splits k = 7 into
        chunks of 3, 3 and 1 without changing the result."""
        from repro.sim.kernels import TAIL_QUBITS
        from repro.sim.propagators import matrix_free_block_columns

        n, k = 9, 7
        schedule = chain_schedule(n, np.random.default_rng(6))
        arrays = draw_realizations(schedule, k, seed=6)
        block = random_block(np.random.default_rng(6), n, k)
        unchunked = evolve_realizations(block, schedule, arrays)
        dim = 2**n
        # Eight block buffers, three diagonals, the tail and head matrices.
        column = 8 * dim * 16 + 3 * dim * 8 + 16 * 4**TAIL_QUBITS
        column += 16 * 4 ** min(TAIL_QUBITS, n - TAIL_QUBITS)
        try:
            configure_simulation_caches(memory_budget_bytes=3 * column)
            assert matrix_free_block_columns(n, hamiltonian_per_column=True) == 3
            chunked = evolve_realizations(block, schedule, arrays)
        finally:
            configure_simulation_caches(memory_budget_bytes=512 * 2**20)
        assert np.abs(chunked - unchunked).max() <= 1e-10

    def test_override_arrays_must_cover_every_segment(self):
        schedule = chain_schedule(4, np.random.default_rng(7))
        with pytest.raises(SimulationError):
            evolve_realizations(ground_block(4, 2), schedule, [{}])


def legacy_override_draws(noise, schedule, rng, count):
    """Per-realization override dicts, drawn with the RNG calls (and in
    the order) the Monte-Carlo executor makes."""
    rabi = 1.0 + rng.normal(0.0, noise.rabi_relative_sigma, count)
    amp = 1.0 + rng.normal(0.0, noise.amplitude_relative_sigma, count)
    shifts = rng.normal(0.0, noise.detuning_sigma, count)
    names = [
        name
        for name in schedule.fixed_values
        if name.startswith(("x_", "y_")) and noise.position_sigma > 0
    ]
    jitter = rng.normal(0.0, noise.position_sigma, (count, len(names)))
    draws = []
    for realization in range(count):
        static = {
            name: schedule.fixed_values[name] + jitter[realization, p]
            for p, name in enumerate(names)
        }
        overrides = []
        for segment in schedule.segments:
            entry = dict(static)
            for name, value in segment.dynamic_values.items():
                if name.startswith("omega"):
                    entry[name] = value * rabi[realization]
                elif name.startswith("delta"):
                    entry[name] = value + shifts[realization]
                elif name.startswith("a_"):
                    entry[name] = value * amp[realization]
            overrides.append(entry)
        draws.append(overrides)
    return draws


class TestNoisyRunRandomStream:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [8, 12])
    def test_samples_match_per_realization_reference(self, n, seed):
        from repro.sim import ground_state

        schedule = chain_schedule(n, np.random.default_rng(100 + n))
        samples_per_group, groups = 40, 4
        simulator = NoisySimulator(noise_samples=groups, seed=seed)
        samples = simulator.run(schedule, shots=samples_per_group * groups)

        rng = np.random.default_rng(seed)
        draws = legacy_override_draws(simulator.noise, schedule, rng, groups)
        states = np.stack(
            [reference_realization(schedule, d, ground_state(n)) for d in draws],
            axis=1,
        )
        expected = simulator._sample_and_corrupt(
            states, [samples_per_group] * groups, schedule.total_duration, rng
        )
        assert np.array_equal(samples, expected)


def legacy_sample_and_corrupt(noise, states, per_group, duration, rng):
    """One ``sample_bitstrings`` call per realization, then relaxation
    and readout over the stacked shots: the executor's RNG stream."""
    from repro.sim.sampling import apply_readout_error

    samples = np.vstack(
        [
            sample_bitstrings(states[:, group], shots, rng=rng)
            for group, shots in enumerate(per_group)
        ]
    )
    decay = 1.0 - float(np.exp(-duration / noise.t1))
    relax = (samples == 1) & (rng.random(samples.shape) < decay)
    samples = np.where(relax, 0, samples).astype(np.int8)
    return apply_readout_error(samples, noise.p01, noise.p10, rng=rng)


class TestOnePassSampling:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_per_column_sample_bitstrings(self, n):
        from repro.sim.sampling import sample_column_bitstrings

        block = random_block(np.random.default_rng(n), n, 4)
        per_group = [6, 6, 5, 5]  # 22 shots over 4 groups
        got = sample_column_bitstrings(
            block, per_group, np.random.default_rng(n)
        )
        rng = np.random.default_rng(n)
        expected = np.vstack(
            [
                sample_bitstrings(block[:, col], shots, rng=rng)
                for col, shots in enumerate(per_group)
            ]
        )
        assert got.dtype == expected.dtype == np.int8
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_noisy_run_matches_per_realization_sampling(self, n):
        from repro.aais import aais_for_device

        aais = aais_for_device("rydberg-1d", n)
        schedule = realization_schedule(
            aais, np.random.default_rng(n), aais.default_positions(spacing=6.0)
        )
        shots, groups = 103, 4
        simulator = NoisySimulator(noise_samples=groups, seed=n)
        samples = simulator.run(schedule, shots=shots)

        rng = np.random.default_rng(n)
        overrides = simulator._draw_override_batch(schedule, rng, groups)
        states = simulator._evolve_realizations(schedule, overrides, groups)
        expected = legacy_sample_and_corrupt(
            simulator.noise,
            states,
            [26, 26, 26, 25],
            schedule.total_duration,
            rng,
        )
        assert np.array_equal(samples, expected)

    def test_unnormalized_column_raises(self):
        from repro.sim.sampling import sample_column_bitstrings

        block = ground_block(3, 3)
        block[1, 2] = 0.5  # column 2 has norm² 1.25
        with pytest.raises(SimulationError, match="column 2"):
            sample_column_bitstrings(block, [4, 4, 4], np.random.default_rng(0))

    def test_shot_counts_must_cover_every_column(self):
        from repro.sim.sampling import sample_column_bitstrings

        block = ground_block(2, 3)
        with pytest.raises(SimulationError):
            sample_column_bitstrings(block, [4, 4], np.random.default_rng(0))
        with pytest.raises(SimulationError):
            sample_column_bitstrings(block, [4, 0, 4], np.random.default_rng(0))
