"""Compile results stay no worse than the benchmark's frozen references.

``perfbench/frozen.json`` holds, per ``compile_cold`` job, the relative
error ε and execution time frozen when the benchmark was added.  The
benchmark fails a run whose job got worse than that by more than
``1e-9 · max(1, |frozen|)``; this test applies the same rule to the
``rydberg-1d`` jobs at n = 6 and 8, so a solver change that drifts ε
fails here and not only in the benchmark.
"""

import json
from pathlib import Path

import pytest

from repro.aais import aais_for_device
from repro.core import QTurboCompiler
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
from repro.models import build_model

FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "frozen.json"
TIMES = (0.8, 0.9, 1.0, 1.1, 1.2)


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())["compile_cold"]


@pytest.mark.parametrize("model", ["ising_chain", "heisenberg_chain"])
@pytest.mark.parametrize("n", [6, 8])
def test_rydberg_1d_no_worse_than_frozen(frozen, model, n):
    target = build_model(model, n)
    for time in TIMES:
        compiler = QTurboCompiler(aais_for_device("rydberg-1d", n))
        result = compiler.compile_piecewise(
            PiecewiseHamiltonian.constant(target, time)
        )
        assert result.success
        reference = frozen[f"{model}|rydberg-1d|-|{n}|{time}"]
        for field, value in (
            ("relative_error", result.relative_error),
            ("execution_time", result.execution_time),
        ):
            limit = reference[field] + 1e-9 * max(1.0, abs(reference[field]))
            assert value <= limit, (time, field, value, reference[field])
