#!/usr/bin/env python
"""Compile-pipeline benchmark: pass shares and fusion/compaction wins.

Three measurements, written to ``BENCH_compile.json``:

1. **Per-pass time share** of the default pipeline on the paper's
   Rydberg Ising-chain workload — where compile time actually goes
   (aggregated from ``CompilationResult.pass_trace``).
2. **Term-fusion win** on a dense (all-to-all) Ising sweep: compile
   jobs/sec with the default pipeline vs the pipeline with the
   ``term_fusion`` pass enabled, on a Rydberg register (bounded solve)
   and an all-to-all Heisenberg device (unbounded solve, where fusion
   prunes the Y/Z/XX/YY drive subsystems the target never exercises).
   Reported for cold structural caches (every job re-assembles its
   linear system — the distinct-structure sweep case) and warm ones.
3. **Schedule-compaction win** on an idle-padded piecewise sweep:
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
from repro.hamiltonian.expression import x, zz
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian, Segment
from repro.models import ising_chain

DEFAULT_OUTPUT = "BENCH_compile.json"

FUSION_PASSES = {"enable": ["term_fusion"]}
COMPACTION_PASSES = {"enable": ["schedule_compaction"]}


def dense_ising(n: int, j: float = 0.15, h: float = 0.4) -> Hamiltonian:
    """All-to-all Ising with a transverse field — the dense sweep target."""
    target = Hamiltonian.zero()
    for a in range(n):
        target = target + h * x(a)
        for b in range(a + 1, n):
            target = target + j * zz(a, b)
    return target


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


def measure_fusion(
    device: str,
    device_options: Dict,
    sizes: List[int],
    repeat: int,
) -> Dict[str, object]:
    """Default vs term-fusion throughput on the dense Ising sweep."""
    targets = [
        PiecewiseHamiltonian.constant(dense_ising(n), 1.0)
        for n in sizes
        for _ in range(repeat)
    ]
    report: Dict[str, object] = {
        "workload": f"dense_ising on {device}, sizes={sizes} x{repeat}",
    }
    for cache_mode, cache_size in (("cold", 0), ("warm", 32)):
        section = {}
        for label, passes in (("default", None), ("fused", FUSION_PASSES)):
            compilers = {
                n: QTurboCompiler(
                    aais_for_device(device, n, device_options),
                    system_cache_size=cache_size,
                    passes=passes,
                )
                for n in sizes
            }
            paired = [
                compilers[n] for n in sizes for _ in range(repeat)
            ]
            # One warmup per size so the partition memo (and for the
            # warm mode the system cache) is populated before timing.
            for n in sizes:
                compilers[n].compile_piecewise(
                    PiecewiseHamiltonian.constant(dense_ising(n), 1.0)
                )
            section[label] = _compile_rate(paired, targets)
        section["speedup"] = (
            section["fused"]["jobs_per_second"]
            / max(section["default"]["jobs_per_second"], 1e-9)
        )
        report[cache_mode] = section

    # Structural effect of the pass at the largest size.
    n = sizes[-1]
    fused = QTurboCompiler(
        aais_for_device(device, n, device_options), passes=FUSION_PASSES
    ).compile(dense_ising(n), 1.0)
    plain = QTurboCompiler(
        aais_for_device(device, n, device_options)
    ).compile(dense_ising(n), 1.0)
    trace = {e["name"]: e.get("diagnostics", {}) for e in fused.pass_trace}
    plain_trace = {
        e["name"]: e.get("diagnostics", {}) for e in plain.pass_trace
    }
    report["structure"] = {
        "qubits": n,
        "rows_before": plain_trace["build_linear_system"]["rows"],
        "rows_after": trace["build_linear_system"]["rows"],
        "cols_before": plain_trace["build_linear_system"]["cols"],
        "cols_after": trace["build_linear_system"]["cols"],
        "pruned_channels": trace["term_fusion"]["pruned_channels"],
        "fused_terms": trace["term_fusion"]["fused_terms"],
        "relative_error_delta": abs(
            fused.relative_error - plain.relative_error
        ),
    }
    return report


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
    """Run all three measurements and write the JSON report."""
    sizes = [3, 4] if quick else [4, 6, 8]
    dense_sizes = [3, 4] if quick else [4, 6, 8]
    repeat = 2 if quick else 5

    report: Dict[str, object] = {
        "benchmark": "compile_pipeline",
        "quick": quick,
        "pass_share": measure_pass_share(sizes, repeat),
        "fusion_rydberg": measure_fusion(
            "rydberg", {}, dense_sizes, repeat
        ),
        "fusion_heisenberg_all": measure_fusion(
            "heisenberg", {"topology": "all"}, dense_sizes, repeat
        ),
        "compaction": measure_compaction(sizes, repeat),
    }
    # Shared BENCH_*.json schema: every report carries the workload
    # sections as a `runs` list next to `benchmark` and `quick`.
    report["runs"] = [
        dict(report[key], workload=key)
        for key in (
            "pass_share",
            "fusion_rydberg",
            "fusion_heisenberg_all",
            "compaction",
        )
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
    for key in ("fusion_rydberg", "fusion_heisenberg_all"):
        section = report[key]
        structure = section["structure"]
        print(
            f"{key}: cold speedup {section['cold']['speedup']:.2f}x, "
            f"warm {section['warm']['speedup']:.2f}x "
            f"(rows {structure['rows_before']}→{structure['rows_after']}, "
            f"err delta {structure['relative_error_delta']:.2e})"
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
