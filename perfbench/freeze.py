#!/usr/bin/env python3
"""Regenerate ``frozen.json``: the reference outputs the oracles compare to.

    python3 perfbench/freeze.py

For every input a workload can draw, whatever the seed, it records the
output of the code checked out now: each ``compile_cold`` job's relative
error and execution time, and each noisy or ZNE call's estimates in
``simulate_mix``.  The values were frozen from the commit that added the
benchmark; regenerate them only on purpose, since the oracles then
compare against the new code.
"""

import json
import sys
from pathlib import Path

from harness import NullTracer, pin_blas_threads

pin_blas_threads()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compile_cold  # noqa: E402
import simulate_mix  # noqa: E402


def freeze_compile_cold():
    frozen = {}
    targets = compile_cold.Workload(0, None, None).setup()
    for entry in compile_cold.CATALOGUE:
        for t in compile_cold.TIMES:
            job = compile_cold.Job(*entry, time=t)
            result, _ = compile_cold.compile_job(job, targets[job], NullTracer())
            if not result.success:
                raise RuntimeError(f"{job.key} failed: {result.message}")
            frozen[job.key] = {
                "relative_error": result.relative_error,
                "execution_time": result.execution_time,
            }
    return frozen


def freeze_simulate_mix():
    schedules, _ = simulate_mix.build_schedules()
    frozen = {}
    for kind in ("noisy_run", "zne"):
        for key in simulate_mix.SCHEDULES:
            for noise_seed in simulate_mix.NOISE_SEEDS:
                call = simulate_mix.Call(kind, key, noise_seed)
                output = simulate_mix.simulate(call, schedules, NullTracer())
                frozen[call.key] = simulate_mix.estimates(call, output)
    return frozen


def main() -> int:
    frozen = {
        "compile_cold": freeze_compile_cold(),
        "simulate_mix": freeze_simulate_mix(),
    }
    path = HERE / "frozen.json"
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
