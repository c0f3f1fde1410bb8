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
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from repro.aais import DEVICE_PRESETS, aais_for_device
from repro.core import QTurboCompiler
from repro.errors import HamiltonianError
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
