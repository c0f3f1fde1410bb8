#!/usr/bin/env python3
"""Compare two result sets (parent and change) under the benchmark's bounds.

    python3 perfbench/compare.py parent.json change.json

Prints one row per workload and end-to-end metric: each side's median
and quartiles, the change of the median, and a verdict.  Runs are paired
by seed, as ``sweep.py`` makes them:

* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``better``: the median improved by more than the parent's own
  quartile spread, and the change wins at least nine tenths of the
  pairs (a tie is no win);
* ``unresolved``: the parent's spread is wider than the bound, so a
  regression within it could not be seen (unless every change run
  beats every parent run, which reads ``better``);
* ``unchanged``: none of the above.

Both result sets must have been measured with the same run length.
Exits 1 if any row is ``worse``.
"""

import argparse
import json
import sys
from pathlib import Path

from harness import spread, values_by_metric

HERE = Path(__file__).resolve().parent


def verdict(parent, change, better: str, bound: float) -> str:
    """The verdict of one workload and metric; ``parent[i]`` pairs with ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_median, p3 = spread(parent)
    _, c_median, _ = spread(change)
    gain = sign * (c_median - p_median) / abs(p_median)
    noise = (p3 - p1) / abs(p_median)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0) / len(parent)
    if gain < -bound:
        return "worse"
    if noise > bound:
        every_run = min(sign * c for c in change) > max(sign * p for p in parent)
        return "better" if every_run else "unresolved"
    if gain > noise and wins >= 0.9:
        return "better"
    return "unchanged"


def compare(parent_set, change_set, bench):
    """Rows of ``(workload, metric, parent stats, change stats, delta, verdict)``."""
    parent = values_by_metric(parent_set)
    change = values_by_metric(change_set)
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            seeds = sorted(set(parent.get(key, {})) & set(change.get(key, {})))
            if not seeds:
                continue
            p = [parent[key][seed] for seed in seeds]
            c = [change[key][seed] for seed in seeds]
            delta = (spread(c)[1] - spread(p)[1]) / abs(spread(p)[1])
            rows.append(
                (workload, metric["name"], spread(p), spread(c), delta,
                 verdict(p, c, metric["better"], metric["bound"]))
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent_set = json.loads(args.parent.read_text())
    change_set = json.loads(args.change.read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lengths = {result_set["benchmark"]["run_seconds"] for result_set in (parent_set, change_set)}
    if len(lengths) != 1:
        parser.error(f"the result sets were measured with different run lengths: {sorted(lengths)}")
    for label, result_set in (("parent", parent_set), ("change", change_set)):
        env = result_set.get("env") or {}
        print(f"{label}: git {env.get('git_sha')} nproc {env.get('nproc')} blas {env.get('blas')}")
    print(f"{'workload':13s} {'metric':18s} {'parent q1/median/q3':>32s}   {'change q1/median/q3':>32s}  {'delta':>8s}  verdict")
    rows = compare(parent_set, change_set, bench)
    for workload, metric, p, c, delta, word in rows:
        print(
            f"{workload:13s} {metric:18s} {p[0]:10.4g} {p[1]:10.4g} {p[2]:10.4g}   "
            f"{c[0]:10.4g} {c[1]:10.4g} {c[2]:10.4g}  {100 * delta:+7.2f}%  {word}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
