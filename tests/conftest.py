"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

# Pin BLAS to one thread before numpy loads: multi-threaded BLAS stalls
# small solves for tens of milliseconds at random, which breaks the
# timing-based scaling tests.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

from repro.aais import HeisenbergAAIS, RydbergAAIS  # noqa: E402
from repro.devices import (  # noqa: E402
    HeisenbergSpec,
    RydbergSpec,
    paper_example_spec,
)
from repro.devices.base import TrapGeometry  # noqa: E402
from repro.sim.operators import hamiltonian_matrix  # noqa: E402

try:
    import pytest_timeout
except ImportError:
    pytest_timeout = None


def pytest_addoption(parser):
    if pytest_timeout is None:
        parser.addini(
            "timeout",
            "per-test hang limit in seconds (faulthandler fallback for a "
            "missing pytest-timeout)",
            default="0",
        )


if pytest_timeout is None:
    _hang_report_fd = None

    def pytest_configure(config):
        # Output capture is suspended here; keep a handle on the real
        # stderr so the hang report is not swallowed by a capture file.
        global _hang_report_fd
        _hang_report_fd = os.dup(sys.stderr.fileno())

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item):
        """Dump every thread's traceback and exit when a test hangs."""
        seconds = float(item.config.getini("timeout"))
        if seconds > 0:
            faulthandler.dump_traceback_later(
                seconds, exit=True, file=_hang_report_fd
            )
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


def _exact_evolve(state, hamiltonian, duration, num_qubits):
    """``exp(−i H t) |ψ⟩`` from the CSR ``hamiltonian_matrix`` and scipy.

    The reference shares no code with the evolution backends: a dense
    ``scipy.linalg.expm`` up to 10 qubits, ``expm_multiply`` above.
    """
    matrix = hamiltonian_matrix(hamiltonian, num_qubits, cache=False)
    if num_qubits <= 10:
        return scipy.linalg.expm(-1j * duration * matrix.toarray()) @ state
    return scipy.sparse.linalg.expm_multiply(
        -1j * duration * matrix.tocsc(), state
    )


@pytest.fixture
def exact_evolve():
    """The engine-independent reference propagator (see ``_exact_evolve``)."""
    return _exact_evolve


@pytest.fixture
def paper_aais():
    """The Section-5 worked-example device: 3 atoms, Δ≤20, Ω≤2.5."""
    return RydbergAAIS(3, spec=paper_example_spec())


@pytest.fixture
def chain_spec():
    """A roomy 1-D Rydberg trap for chain benchmarks."""
    return RydbergSpec(
        name="test-chain",
        delta_max=20.0,
        omega_max=2.5,
        geometry=TrapGeometry(extent=200.0, min_spacing=4.0, dimension=1),
        max_time=4.0,
    )


@pytest.fixture
def planar_spec():
    """A 2-D Rydberg trap for cycle benchmarks."""
    return RydbergSpec(
        name="test-planar",
        delta_max=20.0,
        omega_max=2.5,
        geometry=TrapGeometry(extent=80.0, min_spacing=4.0, dimension=2),
        max_time=4.0,
    )


@pytest.fixture
def heisenberg_aais():
    return HeisenbergAAIS(4, spec=HeisenbergSpec())
