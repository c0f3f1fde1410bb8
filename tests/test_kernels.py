"""The matrix-free simulation path: Pauli kernels, the Chebyshev
propagator, automatic path selection, the configurable operator cap,
and propagator-cache eviction.  Evolution references come from the
``exact_evolve`` fixture, which shares no code with the engine's
paths."""

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
    kernel_cache_stats,
    simulation_cache_stats,
)
from repro.sim.kernels import (
    TAIL_QUBITS,
    HamiltonianKernel,
    _chebyshev_coefficients,
    chebyshev_expm_multiply,
    kernel_expm_multiply,
)
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
        propagator_maxsize=256, memory_budget_bytes=512 * 2**20
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


def per_term_apply(h: Hamiltonian, states: np.ndarray, n: int) -> np.ndarray:
    """Reference ``H @ states``: one strided view-copy per Pauli term.

    The pre-GEMM kernel loop, kept as an independent reference: XOR by
    a flip mask reverses the flipped qubit axes of the ``(2,)*N`` view,
    Z/Y factors contribute a parity sign, Y factors a ``(−i)^{n_y}``.
    """
    states = np.asarray(states, dtype=complex)
    extra = states.shape[1:]
    source = states.reshape((2,) * n + extra)
    index = np.arange(2**n)
    out = np.zeros_like(states)
    for string, coeff in h.terms.items():
        slices = []
        parity = np.zeros(2**n, dtype=np.int64)
        n_y = 0
        for qubit in range(n):
            label = string.label_on(qubit)
            flip = label in ("X", "Y")
            slices.append(slice(None, None, -1) if flip else slice(None))
            if label in ("Y", "Z"):
                parity ^= (index >> (n - 1 - qubit)) & 1
            n_y += label == "Y"
        moved = source[tuple(slices)].reshape(states.shape)
        sign = (1 - 2 * parity).reshape((-1,) + (1,) * len(extra))
        out += coeff * (-1j) ** n_y * sign * moved
    return out


def reference_chebyshev(h: Hamiltonian, states, duration, n, tol=1e-14):
    """The Chebyshev recurrence in complex arithmetic on per_term_apply."""
    lo, hi = HamiltonianKernel(h, n).spectral_bounds()
    shift, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coefficients = _chebyshev_coefficients(radius * duration, tol)

    def scaled(v):
        return (per_term_apply(h, v, n) - shift * v) / radius

    previous = np.asarray(states, dtype=complex)
    current = scaled(previous)
    total = coefficients[0] * previous + coefficients[1] * current
    for coefficient in coefficients[2:]:
        previous, current = current, 2.0 * scaled(current) - previous
        total += coefficient * current
    return np.exp(-1j * shift * duration) * total


def _weighted(rng, strings) -> Hamiltonian:
    return Hamiltonian({s: float(rng.uniform(0.3, 1.5)) for s in strings})


def kernel_case(name: str, n: int, rng: np.random.Generator) -> Hamiltonian:
    """Hamiltonians that exercise the lead/tail split and real rows."""
    m = min(TAIL_QUBITS, n)
    singles = [PauliString.single("X", q) for q in range(n)]
    zs = [PauliString.single("Z", q) for q in range(n)]
    if name == "real":  # X fields, Z fields, ZZ bonds, an even-Y pair
        strings = singles + zs
        strings += [PauliString({q: "Z", q + 1: "Z"}) for q in range(n - 1)]
        if n > 1:
            strings.append(PauliString({0: "Y", n - 1: "Y"}))
        return _weighted(rng, strings)
    if name == "complex":  # one Y term makes H complex
        return _weighted(rng, singles + zs + [PauliString.single("Y", n - 1)])
    if name == "straddle":  # XX across the lead/tail boundary
        pair = PauliString({n - m - 1: "X", n - m: "X"})
        tail = PauliString({n - m: "Y", n - 1: "Z"} if m > 1 else {n - 1: "X"})
        return _weighted(rng, [pair, tail, PauliString.single("X", n - 1)] + zs)
    if name in ("head", "head_y"):  # head-only terms and both straddles
        b = min(TAIL_QUBITS, n - m)
        head = [PauliString.single("X", q) for q in range(b)]
        if b > 1:  # an even-Y pair keeps the head matrix real
            head.append(PauliString({0: "Y", b - 1: "Y"}))
        if name == "head_y":  # one Y makes the head matrix complex
            head.append(PauliString({0: "Y"} if b == 1 else {0: "Y", 1: "Z"}))
        straddles = [
            PauliString({b - 1: "X", b: "X"}),  # head/middle (head/tail at N ≤ 10)
            PauliString({0: "Z", n - 1: "X"}),  # head/tail
        ]
        tail = [PauliString.single("X", n - 1)]
        return _weighted(rng, head + straddles + tail + zs)
    if name == "all_z":
        return _weighted(rng, zs + [PauliString({0: "Z", n - 1: "Z"})])
    raise ValueError(name)


def kernel_state(kind: str, n: int, k: int, rng: np.random.Generator):
    block = rng.standard_normal((2**n, k)).astype(complex)
    if kind == "complex":
        block += 1j * rng.standard_normal((2**n, k))
    return block / np.linalg.norm(block, axis=0)


KERNEL_CASES = [
    ("real", 12, "real"),
    ("real", 12, "complex"),  # 2·k rows: the tail GEMM runs in chunks at k=3
    ("real", 10, "complex"),
    ("complex", 9, "complex"),
    ("complex", 8, "real"),
    ("straddle", 9, "complex"),
    ("straddle", 6, "real"),
    ("all_z", 7, "complex"),
    ("real", 1, "complex"),
    ("real", 2, "real"),
    ("complex", 3, "complex"),
    ("real", 3, "complex"),
    ("head", 6, "complex"),  # a one-qubit head
    ("head_y", 6, "real"),
    ("head", 10, "real"),  # no middle: the straddles cross head and tail
    ("head_y", 10, "complex"),
    ("head", 12, "complex"),  # a two-qubit middle
    ("head_y", 12, "real"),
    ("head_y", 15, "complex"),  # 2^(N-b) = 1024 columns: the head GEMM chunks
]


def kernel_rows(case: str, n: int, h: int, rng: np.random.Generator):
    """``h`` Hamiltonians on one support (a zero entry in the last row)."""
    hams = [kernel_case(case, n, rng) for _ in range(h)]
    strings = hams[0].pauli_strings()
    coefficients = np.array([[ham.coefficient(s) for s in strings] for ham in hams])
    coefficients[-1, len(strings) // 2] = 0.0
    rows = [
        Hamiltonian({s: c for s, c in zip(strings, row) if c})
        for row in coefficients
    ]
    keys = tuple(s.canonical_key for s in strings)
    return HamiltonianKernel.from_rows(keys, coefficients, n), rows


ROW_CASES = [
    ("real", 12, "real"),
    ("real", 10, "complex"),  # Re/Im rows against per-Hamiltonian rows
    ("complex", 9, "complex"),
    ("straddle", 9, "complex"),  # lead and tail terms, complex tail
    ("straddle", 6, "real"),
    ("all_z", 7, "complex"),
    ("real", 3, "complex"),
    ("real", 15, "complex"),  # 2^(N-m) = 1024 rows: the tail GEMM chunks
    ("head", 6, "real"),
    ("head_y", 10, "complex"),
    ("head", 12, "complex"),
    ("head_y", 15, "complex"),  # a chunked (h, 2^b, 2^b) head stack
]


class TestRowKernelEquivalence:
    """The GEMM tail, lead view-copies and real-row recurrence against
    the per-term loop and against ``exact_evolve``, to ≤1e-12; kernels
    of h > 1 coefficient rows against h single kernels."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case,n,state_kind", KERNEL_CASES)
    def test_apply_matches_per_term_loop(self, case, n, state_kind, k):
        rng = np.random.default_rng(n * 10 + k)
        h = kernel_case(case, n, rng)
        block = kernel_state(state_kind, n, k, rng)
        kernel = HamiltonianKernel(h, n)
        expected = per_term_apply(h, block, n)
        assert np.abs(kernel.apply(block) - expected).max() <= 1e-12
        assert np.abs(kernel.apply(block[:, 0]) - expected[:, 0]).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("case,n,state_kind", KERNEL_CASES)
    def test_chebyshev_matches_references(
        self, case, n, state_kind, k, exact_evolve
    ):
        rng = np.random.default_rng(n * 10 + k + 1)
        h = kernel_case(case, n, rng)
        block = kernel_state(state_kind, n, k, rng)
        kernel = HamiltonianKernel(h, n)
        got = chebyshev_expm_multiply(kernel, block, 0.7, tol=1e-14)
        assert got.shape == block.shape
        exact = exact_evolve(block, h, 0.7, n)
        assert np.abs(got - exact).max() <= 1e-12
        reference = reference_chebyshev(h, block, 0.7, n)
        assert np.abs(got - reference).max() <= 1e-12

    def test_real_and_complex_kernels_are_classified(self):
        rng = np.random.default_rng(3)
        assert HamiltonianKernel(kernel_case("real", 8, rng), 8).real
        assert HamiltonianKernel(kernel_case("all_z", 8, rng), 8).real
        assert not HamiltonianKernel(kernel_case("complex", 8, rng), 8).real
        # A single Y in the tail makes the GEMM matrix complex.
        assert not HamiltonianKernel(kernel_case("straddle", 8, rng), 8).real

    def test_terms_split_between_lead_and_tail(self):
        """Only terms wholly on the last TAIL_QUBITS qubits join the GEMM."""
        n = 9
        m = min(TAIL_QUBITS, n)
        kernel = HamiltonianKernel(kernel_case("straddle", n, np.random.default_rng(4)), n)
        assert len(kernel._lead) == 1  # the straddling XX
        assert kernel._tail.shape == (1, 2**m, 2**m)  # one Hamiltonian row
        assert kernel._head is None  # no term lies wholly on qubits 0-3

    @pytest.mark.parametrize("n", [6, 10, 12, 15])
    def test_terms_split_between_head_lead_and_tail(self, n):
        """Terms wholly on the first min(m, N − m) qubits join the head
        GEMM; only the two straddles stay view-copy lead terms."""
        m = min(TAIL_QUBITS, n)
        b = min(TAIL_QUBITS, n - m)
        rng = np.random.default_rng(n)
        kernel, _ = kernel_rows("head_y", n, 3, rng)
        assert kernel._head.shape == (3, 2**b, 2**b)
        assert kernel._tail.shape == (3, 2**m, 2**m)
        assert len(kernel._lead) == 2
        assert not kernel.real  # the odd-Y head term

    @pytest.mark.parametrize("n,lead", [(6, 0), (8, 0), (10, 0), (12, 2)])
    def test_drive_keeps_only_middle_terms_as_lead(self, n, lead):
        """A Rydberg-style drive (X and Z fields, ZZ bonds) leaves view
        copies only for the X fields on the middle qubits."""
        strings = [PauliString.single(p, q) for q in range(n) for p in "XZ"]
        strings += [PauliString({q: "Z", q + 1: "Z"}) for q in range(n - 1)]
        kernel = HamiltonianKernel(_weighted(np.random.default_rng(n), strings), n)
        assert len(kernel._lead) == lead

    # h > 1: a kernel of h coefficient rows against h single kernels.
    @pytest.mark.parametrize("case,n,state_kind", ROW_CASES)
    def test_apply_matches_single_kernels(self, case, n, state_kind):
        rng = np.random.default_rng(n * 7)
        h = 3
        kernel, hams = kernel_rows(case, n, h, rng)
        block = kernel_state(state_kind, n, h, rng)
        got = kernel.apply(block)
        for col, ham in enumerate(hams):
            single = HamiltonianKernel(ham, n).apply(block[:, col])
            assert np.abs(got[:, col] - single).max() <= 1e-12
            reference = per_term_apply(ham, block[:, col : col + 1], n)[:, 0]
            assert np.abs(got[:, col] - reference).max() <= 1e-12

    @pytest.mark.parametrize("case,n,state_kind", ROW_CASES)
    def test_chebyshev_matches_single_kernels(
        self, case, n, state_kind, exact_evolve
    ):
        rng = np.random.default_rng(n * 7 + 1)
        h = 3
        kernel, hams = kernel_rows(case, n, h, rng)
        block = kernel_state(state_kind, n, h, rng)
        duration = 0.2 if n > 12 else 0.7
        got = kernel_expm_multiply(kernel, block, duration, tol=1e-14)
        for col, ham in enumerate(hams):
            column = block[:, col : col + 1]
            single = kernel_expm_multiply(
                HamiltonianKernel(ham, n), block[:, col], duration, tol=1e-14
            )
            assert np.abs(got[:, col] - single).max() <= 1e-12
            exact = exact_evolve(column, ham, duration, n)[:, 0]
            assert np.abs(got[:, col] - exact).max() <= 1e-12
            reference = reference_chebyshev(ham, column, duration, n)[:, 0]
            assert np.abs(got[:, col] - reference).max() <= 1e-12

    def test_bounds_are_the_union_of_the_rows(self):
        rng = np.random.default_rng(5)
        kernel, hams = kernel_rows("complex", 6, 4, rng)
        bounds = [HamiltonianKernel(h, 6).spectral_bounds() for h in hams]
        assert kernel.spectral_bounds() == (
            min(lo for lo, _ in bounds),
            max(hi for _, hi in bounds),
        )

    def test_block_width_must_match_the_rows(self):
        kernel, _ = kernel_rows("real", 4, 3, np.random.default_rng(6))
        with pytest.raises(SimulationError):
            kernel.apply(np.ones((16, 2), dtype=complex))
        with pytest.raises(SimulationError):
            kernel.apply(np.ones(16, dtype=complex))

def long_chebyshev_coefficients(span: float, tol: float) -> np.ndarray:
    """The truncated series from a Bessel table four times longer than
    the first guess needs, cut by the same ``2·tail ≤ tol`` rule."""
    from scipy.special import jv

    orders = np.arange(4 * (int(span) + 80))
    bessel = jv(orders, span)
    tails = np.cumsum(np.abs(bessel[::-1]))[::-1]
    count = max(2, int(np.nonzero(2.0 * tails <= tol)[0][0]))
    coefficients = 2.0 * (-1j) ** (orders[:count] % 4) * bessel[:count]
    coefficients[0] /= 2.0
    return coefficients


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    def test_one_bessel_call_covers_the_cut(self, tol, monkeypatch):
        import scipy.special

        calls = []
        jv = scipy.special.jv

        def counting_jv(orders, span):
            calls.append(span)
            return jv(orders, span)

        monkeypatch.setattr(scipy.special, "jv", counting_jv)
        for span in np.geomspace(0.1, 200.0, 40):
            calls.clear()
            got = _chebyshev_coefficients(float(span), tol)
            assert len(calls) == 1
            expected = long_chebyshev_coefficients(float(span), tol)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-15


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

    @pytest.mark.parametrize("columns", [1, 40])
    def test_auto_agrees_with_reference_at_12_qubits(
        self, columns, exact_evolve
    ):
        """N=12 is past the dense cutoff, so auto evolves matrix-free."""
        rng = np.random.default_rng(60 + columns)
        n = 12
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, columns)
        out = evolve(block, h, 0.7, n)
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

    def test_chebyshev_agrees_with_expm(self):
        rng = np.random.default_rng(11)
        n = 5
        h = random_hamiltonian(rng, n)
        kernel = HamiltonianKernel(h, n)
        block = random_block(rng, n, 2)
        reference = (
            expm(-1j * 1.3 * hamiltonian_matrix(h, n).toarray()) @ block
        )
        assert np.allclose(
            chebyshev_expm_multiply(kernel, block, 1.3), reference, atol=1e-9
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
        got = evolve(state, h, 4.0, n, backend="matrix_free")
        assert np.allclose(got, reference, atol=1e-8)

    def test_zero_duration_and_zero_norm(self):
        state = np.zeros(8, dtype=complex)
        out = evolve(state, zz(0, 1) + x(2), 1.0, 3, backend="matrix_free")
        assert np.allclose(out, state)
        state[0] = 1.0
        out = evolve(state, zz(0, 1) + x(2), 0.0, 3, backend="matrix_free")
        assert np.allclose(out, state)

    def test_negative_duration_rejected(self):
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        with pytest.raises(SimulationError):
            chebyshev_expm_multiply(HamiltonianKernel(zz(0, 1), 3), state, -1.0)


def fast_path_after(state, h, n):
    """The one fast path an ideal ``evolve`` of ``state`` counted."""
    clear_simulation_caches()
    evolve(state, h, 0.3, n)
    counted = simulation_cache_stats()["fast_paths"]
    paths = [name for name, columns in counted.items() if columns]
    assert len(paths) == 1
    return paths[0]


class TestPathSelection:
    """auto: all-Z → diagonal; ideal N ≤ DENSE_MAX_QUBITS → dense;
    otherwise → matrix_free."""

    def test_diagonal_always_wins(self):
        h = zz(0, 1) + 0.5 * z(2)
        for n in (3, 12, 20):
            state = np.zeros(2**n, dtype=complex)
            state[0] = 1.0
            assert fast_path_after(state, h, n) == "diagonal"

    def test_small_registers_stay_dense(self):
        h = zz(0, 1) + x(0)
        for n in (2, 7):
            state = random_block(np.random.default_rng(n), n, 1)[:, 0]
            assert fast_path_after(state, h, n) == "dense_build"

    def test_large_registers_go_matrix_free(self):
        h = zz(0, 1) + x(0)
        for n in (8, 10, 12, 16):
            state = random_block(np.random.default_rng(n), n, 1)[:, 0]
            assert fast_path_after(state, h, n) == "matrix_free"

    def test_wide_blocks_are_chunked_to_the_budget(self, exact_evolve):
        """A tiny budget forces column-chunked matrix-free propagation
        without changing the result."""
        from repro.sim.propagators import matrix_free_block_columns

        rng = np.random.default_rng(22)
        n, k = 4, 6
        h = random_hamiltonian(rng, n)
        block = random_block(rng, n, k)
        reference = exact_evolve(block, h, 0.6, n)
        # The shared Hamiltonian's three diagonals and 2^m×2^m tail
        # matrix, then two columns of eight complex block buffers.
        hamiltonian = 3 * 8 * 2**n + 16 * 4 ** min(TAIL_QUBITS, n)
        configure_simulation_caches(
            memory_budget_bytes=hamiltonian + 2 * 8 * 2**n * 16
        )
        assert matrix_free_block_columns(n) == 2  # 3 chunks for k=6
        out = evolve(block, h, 0.6, n, backend="matrix_free")
        assert np.allclose(out, reference, atol=ATOL)

    def test_past_the_operator_cap_runs_matrix_free(self):
        h = zz(0, 1) + x(0)
        n = max_operator_qubits() + 1
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        assert fast_path_after(state, h, n) == "matrix_free"

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
    def test_distinct_hamiltonians_evict(self, exact_evolve):
        """A tiny propagator cache under many distinct Hamiltonians must
        evict, not grow — and keep producing correct states."""
        configure_simulation_caches(propagator_maxsize=2)
        rng = np.random.default_rng(31)
        n = 3
        hams = [random_hamiltonian(rng, n) + x(0) for _ in range(5)]
        block = random_block(rng, n, 5)
        out = [evolve(block[:, i], h, 0.4, n) for i, h in enumerate(hams)]
        stats = simulation_cache_stats()["propagator"]
        assert stats["evictions"] >= 3
        assert stats["size"] <= 2
        for i, h in enumerate(hams):
            reference = exact_evolve(block[:, i], h, 0.4, n)
            assert np.allclose(out[i], reference, atol=ATOL)

    def test_eviction_keeps_most_recent_entries_hittable(self):
        configure_simulation_caches(propagator_maxsize=1)
        rng = np.random.default_rng(32)
        n = 3
        h = random_hamiltonian(rng, n) + x(0)
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
            evolve(state, h, 0.3, n, backend="matrix_free")
        stats = kernel_cache_stats()["structure"]
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_ideal_kernel_is_memoized_on_its_row(self):
        rng = np.random.default_rng(52)
        h = random_hamiltonian(rng, 3) + x(0)
        state = random_block(rng, 3, 1)[:, 0]
        first = evolve(state, h, 0.4, 3, backend="matrix_free")
        second = evolve(state, h, 0.4, 3, backend="matrix_free")
        stats = kernel_cache_stats()["kernel"]
        assert (stats["size"], stats["misses"], stats["hits"]) == (1, 1, 1)
        assert np.array_equal(first, second)
        evolve(state, 2.0 * h, 0.4, 3, backend="matrix_free")
        assert kernel_cache_stats()["kernel"]["size"] == 2

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
    def test_backend_keyword_retired(self):
        """The simulator picks the path itself; ``backend`` is rejected."""
        for backend in ("auto", "matrix_free", "magic"):
            with pytest.raises(TypeError, match="backend"):
                NoisySimulator(backend=backend)


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

