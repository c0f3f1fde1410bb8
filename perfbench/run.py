#!/usr/bin/env python3
"""One seeded run of one benchmark workload.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the
repository root.  The run sets the workload up three times, drives it
in a closed loop with one caller for ``--seconds``, checks every output
and sets it up twice more; ``setup_s`` is the median of the five
set-ups.

* ``--trace 0`` prints the end-to-end metrics of an untraced run.
* ``--trace 1`` runs the workload untraced and then traced for half the
  time each, prints the per-layer metrics of the traced half plus the
  tracing overhead, and writes the spans to
  ``.perfbench/traces/<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  Exit status 0 means the run completed
(``correct`` says whether every output checked out).
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import pin_blas_threads

# BLAS and OpenMP read the thread variables once, when numpy loads.
pin_blas_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("compile_cold", "simulate_mix", "serve_mixed")
#: Set-ups before and after the timed loop; ``setup_s`` is their median.
#: Splitting them samples the machine at two moments ``--seconds`` apart.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
#: Layer coverage below this share is flagged (see ``Tracer.layer_coverage``).
MIN_COVERAGE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(section: str):
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def timed_setups(workload, count):
    """Set the workload up ``count`` times; returns the times and the last state."""
    times, state = [], None
    for _ in range(count):
        if state is not None:
            workload.teardown(state)
        tick = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - tick)
    return times, state


def untraced(workload, state, seconds):
    from harness import NullTracer, latency_metrics

    segment = workload.segment(state, seconds, NullTracer())
    failures = workload.check(segment)
    metrics, tail_pct = latency_metrics(segment, workload.round_size)
    metrics.update(workload.end_to_end(segment))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = {"tail_percentile": tail_pct, "tail_samples": len(segment.records)}
    if segment.reference:
        notes["host_reference_ms"] = 1e3 * statistics.median(segment.reference)
        notes["host_scale"] = segment.host_scale
    if hasattr(workload, "info"):
        notes.update(workload.info(segment))
    return len(segment.records), failures, metrics, notes


def coverage_warning(name, coverage):
    """The warning of a traced run whose layer spans leave their time unaccounted."""
    if coverage >= MIN_COVERAGE:
        return None
    return (
        f"warning: {name}: spans inside the layer calls cover {100 * coverage:.1f}% "
        f"of their time (< {100 * MIN_COVERAGE:.0f}%)"
    )


def traced(workload, state, seconds, seed):
    """Untraced then traced halves from fresh state; per-layer metrics of the second."""
    from harness import NullTracer, Tracer, tracing_overhead

    try:
        plain = workload.segment(state, seconds / 2, NullTracer())
    finally:
        workload.teardown(state)
    state = workload.setup()
    tracer = Tracer()
    try:
        spanned = workload.segment(state, seconds / 2, tracer)
    finally:
        workload.teardown(state)
    failures = workload.check(plain) + workload.check(spanned)
    metrics = workload.per_layer(spanned, tracer)
    metrics["trace.overhead_pct"] = tracing_overhead(plain, spanned)
    metrics["trace.layer_coverage"] = tracer.layer_coverage()
    self_ms = {name: 1e3 * s for name, s in sorted(tracer.self_times().items())}
    path = WORK / "traces" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path, {"self_ms": self_ms, "metrics": metrics})
    notes = {"trace_file": str(path.relative_to(ROOT)), "self_ms": self_ms}
    warning = coverage_warning(workload.name, metrics["trace.layer_coverage"])
    if warning:
        print(warning, file=sys.stderr)
    return len(plain.records) + len(spanned.records), failures, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")

    from harness import environment

    module = importlib.import_module(args.workload)
    frozen = json.loads((HERE / "frozen.json").read_text()).get(args.workload)
    workload = module.Workload(args.seed, frozen, WORK / "tmp")
    setup_times, state = timed_setups(workload, SETUPS_BEFORE)
    if args.trace:
        attempted, failures, values, notes = traced(workload, state, args.seconds, args.seed)
        declared = declared_metrics("per_layer")
    else:
        try:
            attempted, failures, values, notes = untraced(workload, state, args.seconds)
        finally:
            workload.teardown(state)
        after, state = timed_setups(workload, SETUPS_AFTER)
        workload.teardown(state)
        values["setup_s"] = statistics.median(setup_times + after)
        declared = declared_metrics("end_to_end")

    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        print(f"error: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 2
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in declared.items()}
    failed = min(len(failures), attempted)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {failed} failed")
    print(f"failed_ratio {failed / attempted:.6g}")
    for name, note in notes.items():
        print(f"{name} {json.dumps(note, sort_keys=True)}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"env": environment(ROOT)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
