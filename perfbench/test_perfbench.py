"""Tests of the benchmark itself, not of the package it measures.

    python3 -m pytest perfbench -q

The short runs drive every workload end to end for half a second (the
loops still complete one full round), so the file takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

import compare  # noqa: E402
import compile_cold  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
import simulate_mix  # noqa: E402

STREAMS = {
    "compile_cold": compile_cold.job_stream,
    "simulate_mix": simulate_mix.call_stream,
    "serve_mixed": serve_mixed.request_stream,
}
#: Per-layer counts that must repeat exactly between runs of one seed.
DETERMINISTIC = [
    m["name"]
    for m in BENCH["per_layer"]
    if m["unit"] == "count" and m["name"].startswith(("sim.columns.", "core.linear_system.", "snapshot."))
]


def run_benchmark(workload, seed, trace, cwd=ROOT, script=HERE / "run.py", seconds="0.5"):
    command = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(completed):
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    def take(seed):
        return list(islice(STREAMS[workload](seed), 200))

    assert take(7) == take(7)
    assert take(7) != take(8)


def test_workload_names_match_benchmark_json():
    assert WORKLOADS == list(run.WORKLOADS) == list(STREAMS)


def test_frozen_values_cover_every_input():
    frozen = json.loads((HERE / "frozen.json").read_text())
    jobs = {compile_cold.Job(*entry, time=t).key for entry in compile_cold.CATALOGUE for t in compile_cold.TIMES}
    calls = {
        simulate_mix.Call(kind, key, seed).key
        for kind in ("noisy_run", "zne")
        for key in simulate_mix.SCHEDULES
        for seed in simulate_mix.NOISE_SEEDS
    }
    assert set(frozen["compile_cold"]) == jobs
    assert set(frozen["simulate_mix"]) == calls


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(BENCH["workloads"]) <= 8
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"} and name.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert BENCH["paths"] == ["perfbench"] and BENCH["command"][1] == "perfbench/run.py"
    assert 1 <= BENCH["run_seconds"] <= 60


# ----------------------------------------------------------------------
# Short end-to-end runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_untraced_run_is_correct(workload):
    result = last_json(run_benchmark(workload, seed=3, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == END_TO_END
    for entry in result["metrics"].values():
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = (last_json(run_benchmark(workload, seed=5, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == PER_LAYER
    counts = {name: first["metrics"][name]["value"] for name in DETERMINISTIC}
    assert counts == {name: second["metrics"][name]["value"] for name in DETERMINISTIC}
    trace = ROOT / ".perfbench" / "traces" / f"{workload}-seed5.jsonl"
    lines = trace.read_text().splitlines()
    assert "summary" in json.loads(lines[-1])
    assert all({"id", "parent", "name", "start", "end"} <= set(json.loads(line)) for line in lines[:-1])


def test_traced_run_exercises_its_layers():
    metrics = {
        workload: last_json(run_benchmark(workload, seed=2, trace=1))["metrics"]
        for workload in WORKLOADS
    }
    assert metrics["compile_cold"]["core.linear_system.rows"]["value"] > 0
    assert metrics["compile_cold"]["sim.columns.krylov"]["value"] == 0
    for path in simulate_mix.FAST_PATHS:
        if path != "propagator":  # first-round propagators are built, not hit
            assert metrics["simulate_mix"][f"sim.columns.{path}"]["value"] > 0
    assert metrics["simulate_mix"]["core.linear_system.rows"]["value"] == 0
    assert metrics["serve_mixed"]["snapshot.delta"]["value"] > 0
    assert metrics["serve_mixed"]["store.store.count"]["value"] > 0
    for workload in WORKLOADS:  # every workload traces inside its layer calls
        assert 0.5 < metrics[workload]["trace.layer_coverage"]["value"] <= 1.0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("compile_cold", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


# ----------------------------------------------------------------------
# Harness pieces
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    tracer = harness.Tracer()
    tracer.spans = [
        {"id": 1, "parent": None, "name": "op", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "a", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "b", "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 3, "name": "c", "start": 3.5, "end": 4.0},
    ]
    assert tracer.self_times() == {"op": 5.0, "a": 3.0, "b": 2.5, "c": 0.5}


def _layer_trace(inner_end):
    """One operation: a leaf layer call, then a layer call whose inner span ends at ``inner_end``."""
    tracer = harness.Tracer()
    tracer.spans = [
        {"id": 1, "parent": None, "name": "op:request", "start": 0.0, "end": 12.0},
        {"id": 2, "parent": 1, "name": "core.new_compiler", "start": 0.0, "end": 2.0},
        {"id": 3, "parent": 1, "name": "service.call", "start": 2.0, "end": 12.0},
        {"id": 4, "parent": 3, "name": "store.load", "start": 2.0, "end": inner_end},
    ]
    return tracer


def test_layer_coverage_warns_on_an_uncovered_gap():
    gap = _layer_trace(inner_end=8.0)
    assert gap.layer_coverage() == 0.6  # the leaf layer call is left out
    assert "60.0%" in run.coverage_warning("serve_mixed", gap.layer_coverage())
    covered = _layer_trace(inner_end=11.8)
    assert covered.layer_coverage() == pytest.approx(0.98)
    assert run.coverage_warning("serve_mixed", covered.layer_coverage()) is None


def test_recorded_span_nests_under_the_current_span():
    tracer = harness.Tracer()
    with tracer.span("core.compile_piecewise"):
        tracer.add("core.partition", 1.0, 2.0)
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    ids = {s["name"]: s["id"] for s in tracer.spans}
    assert parents["core.partition"] == ids["core.compile_piecewise"]


def test_spans_nest_and_adopt_across_threads():
    import threading

    tracer = harness.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.adopt = tracer.current()
            with tracer.span("sibling"):
                pass
            thread = threading.Thread(target=_open_close, args=(tracer, "remote"))
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    ids = {s["name"]: s["id"] for s in tracer.spans}
    assert parents["outer"] is None
    assert parents["inner"] == ids["outer"]
    assert parents["sibling"] == ids["inner"] == parents["remote"]


def _open_close(tracer, name):
    with tracer.span(name):
        pass


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(800) == harness.TAIL_PCT == 95.0
    assert harness.tail_percentile(150) == 90.0
    assert harness.tail_percentile(30) == 50.0


def test_round_metrics_are_medians_over_rounds():
    segment = harness.Segment(
        records=[(None, d, None) for d in (0.5, 0.5, 0.2, 0.3, 0.1, 0.4, 9.0, 1.0)],
        stamps=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 16.0, 26.0],
        elapsed=26.0,
    )
    metrics, pct = harness.latency_metrics(segment, 2)
    assert metrics["throughput_ops_s"] == 1.0
    assert metrics["latency_p50_ms"] == 1e3 * 0.375
    assert pct == 50.0


def test_host_reference_scales_times_to_the_nominal_host():
    segment = harness.Segment(records=[("a", 0.2, None), ("b", 0.4, None)], stamps=[0.2, 0.6], elapsed=0.6)
    plain, _ = harness.latency_metrics(segment, 2)
    segment.reference = [2 * harness.REFERENCE_NOMINAL_S] * 2  # a host half as fast
    scaled, _ = harness.latency_metrics(segment, 2)
    assert scaled["throughput_ops_s"] == pytest.approx(2 * plain["throughput_ops_s"])
    assert scaled["latency_p50_ms"] == pytest.approx(plain["latency_p50_ms"] / 2)
    assert scaled["latency_tail_ms"] == pytest.approx(plain["latency_tail_ms"] / 2)


def test_reference_time_is_left_out_of_the_loop():
    segment = harness.closed_loop(iter(range(5)), lambda op: op, 0.0, 5, reference=True)
    assert len(segment.reference) == 5 and all(s > 0 for s in segment.reference)
    assert segment.elapsed < sum(segment.reference)
    assert segment.stamps[-1] <= segment.elapsed


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1) == "worse"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1) == "better"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, list(parent), "higher", 0.1) == "unchanged"
    assert compare.verdict(parent, [v * 1.004 for v in parent], "higher", 0.1) == "unchanged"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(noisy, [v * 0.98 for v in noisy], "higher", 0.1) == "unresolved"


def test_compare_pairs_runs_by_seed():
    def result_set(values):
        runs = [
            {"workload": "compile_cold", "seed": seed, "trace": 0,
             "result": {"metrics": {"throughput_ops_s": {"value": value, "unit": "1/s"}}}}
            for seed, value in values
        ]
        return {"benchmark": BENCH, "runs": runs}

    # Each change run beats its own seed's parent run, but not every parent run.
    parent = result_set([(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0), (5, 50.0)])
    change = result_set([(5, 50.5), (4, 40.4), (3, 30.3), (2, 20.2), (1, 10.1)])
    rows = compare.compare(parent, change, BENCH)
    assert [(row[0], row[1]) for row in rows] == [("compile_cold", "throughput_ops_s")]
    assert rows[0][-1] == "unresolved"  # the parent's spread is wider than the bound
    tight = result_set([(seed, 100.0 + seed) for seed in range(1, 11)])
    ahead = result_set([(seed, 1.3 * (100.0 + seed)) for seed in range(1, 11)])
    assert compare.compare(tight, ahead, BENCH)[0][-1] == "better"
