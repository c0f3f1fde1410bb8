#!/usr/bin/env python
"""Scale benchmark for the matrix-free simulation backend.

Measures how far the simulation layer reaches past the operator
materialization cap:

* ``agreement`` — dense vs matrix-free evolution on random mixed-Pauli
  workloads at small N; states and observable estimates must agree to
  ≤1e-8 (they land around 1e-12).
* ``evolve`` — single-shot Ising-cycle evolution vs N under the auto
  backend, with wall-clock and Python-allocation peak (tracemalloc,
  which tracks numpy buffers) per point; the full run tops out at a
  2^20-dimensional state inside the configured memory budget.

Writes ``BENCH_scale.json`` (shared schema fields: ``benchmark``,
``quick``, ``runs``) and exits non-zero when a gate fails: dense /
matrix-free agreement ≤ 1e-8, and every evolution (up to N=20 in full
mode) staying inside the memory budget.

Run:
    python benchmarks/bench_scale.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
import tracemalloc
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.hamiltonian import Hamiltonian, PauliString
from repro.models import ising_cycle
from repro.sim import (
    clear_simulation_caches,
    evolve,
    ground_state,
    select_backend,
    simulation_cache_stats,
)
from repro.sim.observables import z_average
from repro.sim.operators import clear_operator_cache
from repro.sim.propagators import memory_budget_bytes

DEFAULT_OUTPUT = "BENCH_scale.json"

AGREEMENT_TOL = 1e-8


def _timed_with_peak(fn):
    """``(result, seconds, peak_bytes)`` of one call, via tracemalloc."""
    tracemalloc.start()
    tick = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - tick
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def _random_hamiltonian(rng: np.random.Generator, n: int) -> Hamiltonian:
    terms = {}
    for _ in range(int(rng.integers(3, 8))):
        weight = int(rng.integers(1, n + 1))
        qubits = rng.choice(n, size=weight, replace=False)
        ops = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
        terms[PauliString(ops)] = float(rng.normal())
    return Hamiltonian(terms)


def bench_agreement(trials: int) -> Dict[str, object]:
    """Dense vs matrix-free equivalence on random workloads."""
    rng = np.random.default_rng(42)
    max_state = 0.0
    max_observable = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 9))
        h = _random_hamiltonian(rng, n)
        if h.is_zero:
            continue
        duration = float(rng.uniform(0.2, 1.5))
        state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state /= np.linalg.norm(state)
        reference, matrix_free = (
            evolve(state, h, duration, n, cache=False, backend=backend)
            for backend in ("dense", "matrix_free")
        )
        max_state = max(
            max_state, float(np.abs(matrix_free - reference).max())
        )
        max_observable = max(
            max_observable,
            abs(z_average(matrix_free) - z_average(reference)),
        )
    return {
        "workload": "agreement",
        "trials": trials,
        "max_state_abs_diff": max_state,
        "max_observable_abs_diff": max_observable,
        "tolerance": AGREEMENT_TOL,
        "ok": max(max_state, max_observable) <= AGREEMENT_TOL,
    }


def bench_evolve(sizes: List[int], duration: float) -> Dict[str, object]:
    """Single-shot Ising-cycle evolution vs N under the auto backend."""
    points = []
    for n in sizes:
        h = ising_cycle(n)
        backend = select_backend(h, n)
        clear_operator_cache()
        clear_simulation_caches()
        state, seconds, peak = _timed_with_peak(
            lambda h=h, n=n: evolve(ground_state(n), h, duration, n)
        )
        points.append(
            {
                "num_qubits": n,
                "terms": h.num_terms,
                "backend": backend,
                "seconds": seconds,
                "peak_alloc_mib": peak / 2**20,
                "norm_error": abs(float(np.linalg.norm(state)) - 1.0),
            }
        )
        print(
            f"  evolve N={n:>2d}: {seconds:7.2f}s  "
            f"peak {peak / 2**20:7.1f} MiB  [{backend}]"
        )
    return {
        "workload": "evolve",
        "duration": duration,
        "points": points,
        "max_qubits": max(sizes),
        "memory_budget_mib": memory_budget_bytes() / 2**20,
        "within_budget": all(
            p["peak_alloc_mib"] <= memory_budget_bytes() / 2**20
            for p in points
        ),
    }


def run_benchmark(
    quick: bool = False, output: str = DEFAULT_OUTPUT
) -> Dict[str, object]:
    """Run both workloads and write the JSON report."""
    agreement_trials = 10 if quick else 40
    evolve_sizes = [8, 10, 12] if quick else [8, 12, 14, 16, 18, 20]

    print("agreement:")
    runs: List[Dict[str, object]] = [bench_agreement(agreement_trials)]
    print(
        f"  max |Δstate| {runs[0]['max_state_abs_diff']:.2e}, "
        f"max |Δobservable| {runs[0]['max_observable_abs_diff']:.2e}"
    )
    print("evolve scaling:")
    runs.append(bench_evolve(evolve_sizes, duration=1.0))

    by_name = {run["workload"]: run for run in runs}
    report: Dict[str, object] = {
        "benchmark": "scale",
        "quick": quick,
        "config": {
            "agreement_trials": agreement_trials,
            "evolve_sizes": evolve_sizes,
            "memory_budget_mib": memory_budget_bytes() / 2**20,
        },
        "runs": runs,
        "agreement_max_abs_diff": max(
            by_name["agreement"]["max_state_abs_diff"],
            by_name["agreement"]["max_observable_abs_diff"],
        ),
        "evolve_max_qubits": by_name["evolve"]["max_qubits"],
        "evolve_within_budget": by_name["evolve"]["within_budget"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "simulation_cache": simulation_cache_stats(),
    }

    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[report written to {path}]")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small registers and fewer shots (CI smoke mode)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick, output=args.output)
    ok = report["agreement_max_abs_diff"] <= AGREEMENT_TOL
    ok = ok and report["evolve_within_budget"]
    print(
        f"agreement {report['agreement_max_abs_diff']:.2e}, "
        f"N={report['evolve_max_qubits']} evolve within budget: "
        f"{report['evolve_within_budget']}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
