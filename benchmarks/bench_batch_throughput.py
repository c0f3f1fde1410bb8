#!/usr/bin/env python
"""Batch-compilation throughput benchmark.

Compiles a repeated-target sweep of Rydberg Ising chains through
:class:`repro.batch.BatchCompiler` under every executor backend and
writes a machine-readable report — jobs/sec per executor, speedups over
serial, and the kernel- and propagator-cache hit rates observed on the
repeated-target batch — to ``BENCH_batch.json``.

Run (``BENCH_batch.json`` is taken with the parent's BLAS pinned):
    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_batch_throughput.py --workers 2
    python benchmarks/bench_batch_throughput.py [--quick] [--output PATH]

The serial run doubles as the cache measurement: verification evolves
every compiled schedule in-process, so repeated targets must warm a
cache — the dense propagator cache (see :mod:`repro.sim.propagators`)
for small registers, the matrix-free kernel cache (see
:mod:`repro.sim.kernels`) for larger ones.  The script exits non-zero
when a job fails or when neither cache saw a hit.
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
    sim_cache_report: Dict[str, object] = {}
    for name in executors:
        # Every executor starts cold: the simulation caches AND the
        # in-process compiler memo (with its linear-system caches) are
        # dropped, so jobs/sec compares concurrency, not cache warmth
        # left over from the previous run.  Pooled process workers are
        # fresh anyway.
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
        "simulation_cache": sim_cache_report,
    }
    if sim_cache_report:
        report["kernel_cache_hit_rate"] = sim_cache_report["kernel"][
            "kernel"
        ]["hit_rate"]
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
    # Repeated targets must warm the cache their register size uses:
    # the dense propagator cache up to DENSE_MAX_QUBITS, the matrix-free
    # kernel cache above it.  Only a serial run measures the caches.
    warmed = True
    if "kernel_cache_hit_rate" in report:
        kernel_rate = report["kernel_cache_hit_rate"]
        propagator_rate = report["propagator_cache_hit_rate"]
        warmed = kernel_rate > 0 or propagator_rate > 0
        print(
            f"verification cache hit rate: kernel {kernel_rate:.1%}, "
            f"propagator {propagator_rate:.1%} "
            f"({'OK' if warmed else 'MISSING'})"
        )
    return 1 if failed or not warmed else 0


if __name__ == "__main__":
    sys.exit(main())
