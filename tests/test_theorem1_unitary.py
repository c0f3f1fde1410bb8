"""Theorem 1 checked against the executed unitary.

For each compile the schedule's Hamiltonian is rebuilt from what the
device would run — every AAIS channel's ``evaluate`` at the segment's
variable values times its ``dynamics_terms`` — never from the
compiler's own ``b_sim``.  Identity terms only set a global phase and
are dropped on both sides.  Since ``‖Σₖ δₖPₖ‖₂ ≤ Σₖ|δₖ|`` and errors
add across segments,

    ‖U_sched − U_tar‖₂ ≤ error_l1 ≤ error_bound

must hold on every compile.  A piecewise target (the MIS sweep,
discretized) is checked the same way against ``Π U_tar,i``, the
product of each target segment's exponential.  The first inequality is nearly tight on
this grid (distance / ``error_l1`` reaches 0.99), so the check uses a
relative tolerance of 1e-9, not a loose one.

Random target coefficients on every registered term structure are
checked the same way, and so is the SimuQ-style baseline: it carries no
Theorem-1 budget, but its ``error_l1`` must still bound the distance of
the schedule it emits.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.aais import DEVICE_PRESETS, aais_for_device
from repro.baseline import SimuQStyleCompiler
from repro.core import QTurboCompiler
from repro.errors import HamiltonianError
from repro.hamiltonian.expression import Hamiltonian
from repro.models.mis import mis_chain
from repro.models.registry import build_model, model_names

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

#: Relative slack on both inequalities.
_REL_TOL = 1e-9
#: Absolute slack: when ``error_l1`` is itself round-off (~1e-15), the
#: dense ``expm`` round-off is of the same size.
_ABS_TOL = 1e-12


def _dense(terms, num_qubits: int) -> np.ndarray:
    """``Σ c·P`` over non-identity strings, as a dense matrix."""
    dim = 1 << num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for string, coeff in terms.items():
        if string.is_identity:
            continue
        factors = [_PAULI[string.label_on(q)] for q in range(num_qubits)]
        matrix += coeff * reduce(np.kron, factors)
    return matrix


def _executed_unitary(aais, segments, num_qubits: int) -> np.ndarray:
    """The product of each segment's executed-Hamiltonian exponential."""
    unitary = np.eye(1 << num_qubits, dtype=complex)
    for segment in segments:
        terms = {}
        for channel in aais.channels:
            amplitude = channel.evaluate(segment.values)
            for string, coeff in channel.dynamics_terms().items():
                terms[string] = terms.get(string, 0.0) + amplitude * coeff
        hamiltonian = _dense(terms, num_qubits)
        unitary = expm(-1j * segment.duration * hamiltonian) @ unitary
    return unitary


def _grid():
    """Every (model, n) the registry can build at n = 3–5."""
    cells = []
    for model in model_names():
        for n in (3, 4, 5):
            try:
                build_model(model, n)
            except HamiltonianError:
                continue  # e.g. ising_cycle_plus needs n ≥ 5
            cells.append((model, n))
    return cells


@pytest.mark.parametrize("duration", [0.5, 1.0])
@pytest.mark.parametrize("model,n", _grid())
@pytest.mark.parametrize("device", DEVICE_PRESETS)
def test_executed_unitary_within_theorem1_bound(device, model, n, duration):
    aais = aais_for_device(device, n)
    target = build_model(model, n)
    result = QTurboCompiler(aais).compile(target, duration)
    assert result.success, result.message
    assert len(result.segments) == 1  # a time-independent target

    scheduled = _executed_unitary(aais, result.segments, n)
    wanted = expm(-1j * duration * _dense(target.terms, n))
    distance = np.linalg.norm(scheduled - wanted, 2)

    assert distance <= result.error_l1 * (1 + _REL_TOL) + _ABS_TOL
    assert result.error_l1 <= result.error_bound * (1 + _REL_TOL) + _ABS_TOL


@pytest.mark.parametrize("num_segments", [2, 4])
@pytest.mark.parametrize("duration", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("device", DEVICE_PRESETS)
def test_piecewise_target_within_theorem1_bound(
    device, n, duration, num_segments
):
    """A time-dependent target compiled segment by segment: the executed
    product against ``Π U_tar,i``, one dense ``expm`` per segment of the
    discretization the compiler was handed."""
    aais = aais_for_device(device, n)
    target = mis_chain(n, duration=duration)
    result = QTurboCompiler(aais).compile_time_dependent(target, num_segments)
    assert result.success, result.message

    scheduled = _executed_unitary(aais, result.segments, n)
    wanted = np.eye(1 << n, dtype=complex)
    for segment in target.discretize(num_segments).segments:
        hamiltonian = _dense(segment.hamiltonian.terms, n)
        wanted = expm(-1j * segment.duration * hamiltonian) @ wanted
    distance = np.linalg.norm(scheduled - wanted, 2)

    assert distance <= result.error_l1 * (1 + _REL_TOL) + _ABS_TOL
    assert result.error_l1 <= result.error_bound * (1 + _REL_TOL) + _ABS_TOL


@given(
    device=st.sampled_from(DEVICE_PRESETS),
    cell=st.sampled_from([cell for cell in _grid() if cell[1] <= 4]),
    coefficients=st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16),
    duration=st.floats(0.2, 2.0),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_coefficients_within_theorem1_bound(
    device, cell, coefficients, duration
):
    """A registered term structure with every coefficient drawn at random."""
    model, n = cell
    terms = list(build_model(model, n).terms)
    assert len(terms) <= len(coefficients)
    target = Hamiltonian(dict(zip(terms, coefficients)))
    aais = aais_for_device(device, n)
    result = QTurboCompiler(aais).compile(target, duration)
    assert result.success, result.message

    scheduled = _executed_unitary(aais, result.segments, n)
    wanted = expm(-1j * duration * _dense(target.terms, n))
    distance = np.linalg.norm(scheduled - wanted, 2)

    assert distance <= result.error_l1 * (1 + _REL_TOL) + _ABS_TOL
    assert result.error_l1 <= result.error_bound * (1 + _REL_TOL) + _ABS_TOL


def _baseline_grid():
    """Cells the SimuQ-style solve finishes in well under a second.

    Every Heisenberg cell, and the Rydberg chain models at n ≤ 4; the
    ring models on Rydberg take its multi-start solve tens of seconds.
    """
    rydberg = [
        ("rydberg-1d", model, n)
        for model, n in _grid()
        if model in ("ising_chain", "kitaev", "pxp") and n <= 4
    ]
    return [("heisenberg", model, n) for model, n in _grid()] + rydberg


@pytest.mark.parametrize("duration", [0.5, 1.0])
@pytest.mark.parametrize("device,model,n", _baseline_grid())
def test_baseline_executed_unitary_within_its_error_l1(
    device, model, n, duration
):
    aais = aais_for_device(device, n)
    target = build_model(model, n)
    result = SimuQStyleCompiler(aais).compile(target, duration)
    assert result.success, result.message

    scheduled = _executed_unitary(aais, result.segments, n)
    wanted = expm(-1j * duration * _dense(target.terms, n))
    distance = np.linalg.norm(scheduled - wanted, 2)

    assert distance <= result.error_l1 * (1 + _REL_TOL) + _ABS_TOL
