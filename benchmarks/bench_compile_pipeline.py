#!/usr/bin/env python
"""Compile-pipeline benchmark: pass shares and the compaction win.

Two measurements, written to ``BENCH_compile.json``:

1. **Per-pass time share** of the default pipeline on the paper's
   Rydberg Ising-chain workload — where compile time actually goes
   (aggregated from ``CompilationResult.pass_trace``).
2. **Schedule-compaction win** on an idle-padded piecewise sweep:
   segments whose drives are all zero are dropped before emission.

Run:
    python benchmarks/bench_compile_pipeline.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.aais import aais_for_device
from repro.core import QTurboCompiler
from repro.hamiltonian import Hamiltonian
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian, Segment
from repro.models import ising_chain

DEFAULT_OUTPUT = "BENCH_compile.json"

COMPACTION_PASSES = {"enable": ["schedule_compaction"]}


def _compile_rate(
    compilers: List[QTurboCompiler], targets, seconds_floor: float = 1e-9
) -> Dict[str, float]:
    """Jobs/sec of compiling each target on its paired compiler."""
    tick = time.perf_counter()
    errors = []
    for compiler, target in zip(compilers, targets):
        result = compiler.compile_piecewise(target)
        if not result.success:
            raise RuntimeError(f"benchmark compile failed: {result.message}")
        errors.append(result.relative_error)
    elapsed = max(time.perf_counter() - tick, seconds_floor)
    return {
        "jobs": len(targets),
        "seconds": elapsed,
        "jobs_per_second": len(targets) / elapsed,
        "mean_relative_error": sum(errors) / len(errors),
    }


def measure_pass_share(sizes: List[int], repeat: int) -> Dict[str, object]:
    """Aggregate per-pass seconds over a Rydberg chain workload."""
    totals: Dict[str, float] = {}
    jobs = 0
    tick = time.perf_counter()
    for n in sizes:
        aais = aais_for_device("rydberg-1d", n)
        compiler = QTurboCompiler(aais)
        target = ising_chain(n)
        for k in range(repeat):
            result = compiler.compile(target, 1.0 + 0.1 * k)
            if not result.success:
                raise RuntimeError(result.message)
            for entry in result.pass_trace:
                totals[entry["name"]] = totals.get(
                    entry["name"], 0.0
                ) + float(entry["seconds"])
            jobs += 1
    elapsed = time.perf_counter() - tick
    grand = sum(totals.values()) or 1.0
    return {
        "workload": f"ising_chain on rydberg-1d, sizes={sizes} x{repeat}",
        "jobs": jobs,
        "jobs_per_second": jobs / max(elapsed, 1e-9),
        "pass_seconds": totals,
        "pass_share": {name: s / grand for name, s in totals.items()},
    }


def measure_compaction(
    sizes: List[int], repeat: int, idle_fraction: int = 2
) -> Dict[str, object]:
    """Default vs schedule-compaction throughput on idle-padded sweeps."""
    def padded(n: int) -> PiecewiseHamiltonian:
        drive = ising_chain(n)
        segments = []
        for _ in range(idle_fraction):
            segments.append(Segment(0.4, drive))
            segments.append(Segment(0.2, Hamiltonian.zero()))
        return PiecewiseHamiltonian(segments)

    targets = [padded(n) for n in sizes for _ in range(repeat)]
    report: Dict[str, object] = {
        "workload": (
            f"idle-padded ising_chain on heisenberg, sizes={sizes} "
            f"x{repeat}, {idle_fraction} idle segments each"
        ),
    }
    section = {}
    for label, passes in (
        ("default", None),
        ("compacted", COMPACTION_PASSES),
    ):
        compilers = {
            n: QTurboCompiler(
                aais_for_device("heisenberg", n), passes=passes
            )
            for n in sizes
        }
        paired = [compilers[n] for n in sizes for _ in range(repeat)]
        section[label] = _compile_rate(paired, targets)
    section["speedup"] = (
        section["compacted"]["jobs_per_second"]
        / max(section["default"]["jobs_per_second"], 1e-9)
    )
    report.update(section)

    sample_default = QTurboCompiler(
        aais_for_device("heisenberg", sizes[-1])
    ).compile_piecewise(padded(sizes[-1]))
    sample_compact = QTurboCompiler(
        aais_for_device("heisenberg", sizes[-1]), passes=COMPACTION_PASSES
    ).compile_piecewise(padded(sizes[-1]))
    report["segments_before"] = sample_default.schedule.num_segments
    report["segments_after"] = sample_compact.schedule.num_segments
    return report


def run_benchmark(
    quick: bool = False, output: str = DEFAULT_OUTPUT
) -> Dict[str, object]:
    """Run both measurements and write the JSON report."""
    sizes = [3, 4] if quick else [4, 6, 8]
    repeat = 2 if quick else 5

    report: Dict[str, object] = {
        "benchmark": "compile_pipeline",
        "quick": quick,
        "pass_share": measure_pass_share(sizes, repeat),
        "compaction": measure_compaction(sizes, repeat),
    }
    # Shared BENCH_*.json schema: every report carries the workload
    # sections as a `runs` list next to `benchmark` and `quick`.
    report["runs"] = [
        dict(report[key], workload=key)
        for key in ("pass_share", "compaction")
    ]
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    share = report["pass_share"]["pass_share"]
    top = sorted(share.items(), key=lambda kv: -kv[1])[:3]
    print(f"wrote {path}")
    print(
        "pass share (top 3): "
        + ", ".join(f"{name} {100 * s:.1f}%" for name, s in top)
    )
    compaction = report["compaction"]
    print(
        f"compaction: speedup {compaction['speedup']:.2f}x, segments "
        f"{compaction['segments_before']}→{compaction['segments_after']}"
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke mode")
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="report path"
    )
    args = parser.parse_args()
    run_benchmark(quick=args.quick, output=args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
