#!/usr/bin/env python3
"""Run a parent and a change tree seed by seed and save two result sets.

    python3 perfbench/sweep.py --parent ../parent --change . --out results --seeds 1-10
    python3 perfbench/sweep.py --parent . --change . --out results   # one commit, twice

Each tree is a checkout holding ``perfbench/run.py``.  For every
workload and seed, both trees run once, one process at a time, and the
side that runs first alternates from seed to seed, so a slow stretch of
the host falls on both sides alike.  Every run lasts ``run_seconds``
from this tree's ``BENCHMARK.json``.  The runs are written to
``<out>/parent.json`` and ``<out>/change.json``; each result set holds
every run's final JSON line, the environment fingerprint and the
``BENCHMARK.json`` it was measured under, and ``compare.py`` reads the
pair.  Per side, workload and metric, the median, quartiles and their
spread as a share of the median are printed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import spread, values_by_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIDES = ("parent", "change")


def parse_seeds(text: str):
    """``1-10`` or ``1,4,7`` to a list of ints."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int):
    """One ``run.py`` process of ``tree``; returns ``(result, env)`` from its last lines."""
    command = [
        sys.executable,
        str(tree / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def summarize(label: str, result_set, trace: int) -> None:
    """Print median, quartiles and relative spread per workload and metric."""
    for (workload, name), by_seed in sorted(values_by_metric(result_set, trace).items()):
        q1, median, q3 = spread(list(by_seed.values()))
        share = (q3 - q1) / abs(median) if median else float("nan")
        print(
            f"{label:6s} {workload:13s} {name:34s} median {median:12.6g}  "
            f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {100 * share:6.2f}%"
        )


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--out", required=True, type=Path, help="directory for parent.json and change.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated subset")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    for workload in workloads:
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; choose from {names}")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sets = {side: {"benchmark": bench, "env": None, "runs": []} for side in SIDES}
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                result, env = run_once(trees[side], workload, seed, bench["run_seconds"], args.trace)
                sets[side]["env"] = sets[side]["env"] or env
                sets[side]["runs"].append({"workload": workload, "seed": seed, "trace": args.trace, "result": result})
                status = "ok" if result["correct"] else f"{result['failed']} FAILED"
                print(f"{side} {workload} seed {seed}: {status}", flush=True)
                (args.out / f"{side}.json").write_text(json.dumps(sets[side], indent=1, sort_keys=True) + "\n")
    for side in SIDES:
        summarize(side, sets[side], args.trace)
    return 0 if all(run["result"]["correct"] for side in SIDES for run in sets[side]["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
