#!/usr/bin/env python
"""Batch-compilation throughput benchmark.

Compiles a repeated-target sweep of Rydberg Ising chains through
:class:`repro.batch.BatchCompiler` under every executor backend and
writes a machine-readable report — jobs/sec per executor, speedups over
serial, and the operator-cache hit rate observed on the repeated-target
batch — to ``BENCH_batch.json``.

Run:
    python benchmarks/bench_batch_throughput.py [--quick] [--output PATH]

The serial run doubles as the cache measurement: verification evolves
every compiled schedule in-process, so repeated targets must warm a
cache — the CSC Hamiltonian LRU for large (Krylov-path) registers, the
dense propagator cache (see :mod:`repro.sim.propagators`) for small
ones.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from conftest import chain_rydberg_spec

from repro.aais import RydbergAAIS
from repro.batch import EXECUTOR_NAMES, BatchCompiler, BatchJob
from repro.batch.compiler import reset_worker_compilers
from repro.models import ising_chain
from repro.sim.operators import clear_operator_cache, operator_cache_stats
from repro.sim.propagators import (
    clear_simulation_caches,
    simulation_cache_stats,
)

DEFAULT_OUTPUT = "BENCH_batch.json"


def build_jobs(sizes: List[int], repeat: int) -> List[BatchJob]:
    """A repeated-target batch: every size appears ``repeat`` times."""
    aais_by_size = {
        n: RydbergAAIS(n, spec=chain_rydberg_spec(n)) for n in sizes
    }
    jobs = []
    for round_index in range(repeat):
        for n in sizes:
            jobs.append(
                BatchJob.constant(
                    f"ising_chain-n{n}-r{round_index}",
                    ising_chain(n),
                    1.0,
                    aais_by_size[n],
                )
            )
    return jobs


def run_benchmark(
    quick: bool = False,
    executors: Optional[List[str]] = None,
    workers: Optional[int] = None,
    output: str = DEFAULT_OUTPUT,
) -> Dict[str, object]:
    sizes = [3, 4] if quick else [4, 6, 8, 10]
    repeat = 2 if quick else 3
    executors = list(executors or EXECUTOR_NAMES)
    jobs = build_jobs(sizes, repeat)

    runs = []
    serial_rate = None
    cache_report: Dict[str, object] = {}
    sim_cache_report: Dict[str, object] = {}
    for name in executors:
        # Every executor starts cold: operator + simulation caches AND
        # the in-process compiler memo (with its linear-system caches)
        # are dropped, so jobs/sec compares concurrency, not cache
        # warmth left over from the previous run.  Pooled process
        # workers are fresh anyway.
        clear_operator_cache()
        clear_simulation_caches()
        reset_worker_compilers()
        compiler = BatchCompiler(
            executor=name, workers=workers, verify=True
        )
        tick = time.perf_counter()
        batch = compiler.compile_many(jobs)
        seconds = time.perf_counter() - tick
        rate = len(jobs) / seconds if seconds > 0 else 0.0
        runs.append(
            {
                "executor": name,
                "workers": batch.workers,
                "seconds": seconds,
                "jobs_per_sec": rate,
                "succeeded": batch.num_succeeded,
                "failed": batch.num_failed,
            }
        )
        if name == "serial":
            serial_rate = rate
            # Only the serial run's evolutions all happen in-process,
            # so only its statistics describe the whole batch.
            cache_report = operator_cache_stats()
            sim_cache_report = simulation_cache_stats()
        print(
            f"{name:>8s}: {batch.summary()}"
        )

    speedups = {
        run["executor"]: run["jobs_per_sec"] / serial_rate
        for run in runs
        if serial_rate and run["executor"] != "serial"
    }

    report: Dict[str, object] = {
        "benchmark": "batch_throughput",
        "quick": quick,
        "sizes": sizes,
        "repeat": repeat,
        "num_jobs": len(jobs),
        "unique_targets": len(sizes),
        "runs": runs,
        "speedup_vs_serial": speedups,
        "operator_cache": cache_report,
        "simulation_cache": sim_cache_report,
    }
    if cache_report:
        report["operator_cache_hit_rate"] = cache_report["hamiltonian"][
            "hit_rate"
        ]
    if sim_cache_report:
        report["propagator_cache_hit_rate"] = sim_cache_report[
            "propagator"
        ]["hit_rate"]

    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[report written to {path}]")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes and fewer repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--executors",
        default=",".join(EXECUTOR_NAMES),
        help="comma-separated subset of executors to run",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_benchmark(
        quick=args.quick,
        executors=[e for e in args.executors.split(",") if e],
        workers=args.workers,
        output=args.output,
    )
    failed = sum(run["failed"] for run in report["runs"])
    # Since the vectorized simulation engine, small-register verification
    # evolutions take the dense-propagator path instead of realizing CSR
    # Hamiltonians — repeated targets must warm at least one of the two
    # cache layers.
    hit_rate = max(
        report.get("operator_cache_hit_rate", 0.0),
        report.get("propagator_cache_hit_rate", 0.0),
    )
    print(
        f"verification cache hit rate (hamiltonian/propagator): "
        f"{hit_rate:.1%} ({'OK' if hit_rate > 0 else 'MISSING'})"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
