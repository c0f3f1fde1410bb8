#!/usr/bin/env python3
"""Compile a fixed Rydberg catalogue and record ε per job; compare two sweeps.

    python tools/eps_sweep.py --out eps.json            # full catalogue
    python tools/eps_sweep.py --out eps.json --quick    # rydberg-1d only
    python tools/eps_sweep.py --compare before.json after.json

The catalogue is {rydberg-1d, rydberg, aquila} × {ising_chain,
ising_cycle, ising_cycle_plus, heisenberg_chain, pxp, kitaev} ×
n ∈ {4, 6, 8, 10} × t ∈ {0.8, 1.0, 1.2}.  Each job compiles with a fresh
``QTurboCompiler``, as ``repro compile`` does, using the ``src`` of the
checkout this script lives in.  The JSON holds, per job, whether it
succeeded, its relative error ε, its execution time and the seconds the
compile took; a job whose target cannot be built or whose compile
raises is recorded as failed with the error message.

``--compare`` pairs two sweeps by job and prints, per device, how many
jobs got worse, better or stayed the same in ε (compared exactly), then
every job that got worse, largest increase first, and every job that
changed between success and failure.  It exits 1 when a job changed
between success and failure or got worse by more than
``1e-9·max(1, |ε|)`` (the rule ``perfbench`` holds ε to), else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

DEVICES = ("rydberg-1d", "rydberg", "aquila")
MODELS = (
    "ising_chain",
    "ising_cycle",
    "ising_cycle_plus",
    "heisenberg_chain",
    "pxp",
    "kitaev",
)
SIZES = (4, 6, 8, 10)
TIMES = (0.8, 1.0, 1.2)


def catalogue(devices):
    """``(device, model, n, t)`` of every job, in a fixed order."""
    return list(itertools.product(devices, MODELS, SIZES, TIMES))


def job_key(device: str, model: str, n: int, t: float) -> str:
    return f"{device}|{model}|{n}|{t}"


def compile_one(device: str, model: str, n: int, t: float) -> dict:
    """One fresh-compiler compile; the record written for the job."""
    from repro.aais import aais_for_device
    from repro.core import QTurboCompiler
    from repro.hamiltonian.time_dependent import PiecewiseHamiltonian
    from repro.models import build_model

    tick = time.perf_counter()
    try:
        target = PiecewiseHamiltonian.constant(build_model(model, n), t)
        compiler = QTurboCompiler(aais_for_device(device, n))
        result = compiler.compile_piecewise(target)
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        return {
            "success": False,
            "relative_error": None,
            "execution_time": None,
            "compile_seconds": time.perf_counter() - tick,
            "error": f"{type(exc).__name__}: {exc}",
        }
    return {
        "success": bool(result.success),
        "relative_error": float(result.relative_error),
        "execution_time": float(result.execution_time),
        "compile_seconds": time.perf_counter() - tick,
        "error": None,
    }


def sweep(devices) -> dict:
    jobs = {}
    for device, model, n, t in catalogue(devices):
        jobs[job_key(device, model, n, t)] = compile_one(device, model, n, t)
    return {"devices": list(devices), "jobs": jobs}


def beyond_tolerance(old: float, new: float) -> bool:
    """True when ε rose by more than ``1e-9·max(1, |old|)``."""
    return new - old > 1e-9 * max(1.0, abs(old))


def compare(before: dict, after: dict) -> int:
    """Print the per-device verdict and every job that got worse or flipped.

    Returns the exit status: 1 when a job flipped between success and
    failure or got worse beyond :func:`beyond_tolerance`, else 0.
    """
    common = [key for key in before["jobs"] if key in after["jobs"]]
    counts = {}
    worse, flipped = [], []
    for key in common:
        a, b = before["jobs"][key], after["jobs"][key]
        device = key.split("|", 1)[0]
        tally = counts.setdefault(device, {"worse": 0, "better": 0, "same": 0, "failed": 0})
        if a["success"] != b["success"]:
            flipped.append((key, a["success"], b["success"]))
            continue
        if not a["success"]:
            tally["failed"] += 1
            continue
        delta = b["relative_error"] - a["relative_error"]
        if delta > 0:
            tally["worse"] += 1
            worse.append((key, a["relative_error"], b["relative_error"], delta))
        elif delta < 0:
            tally["better"] += 1
        else:
            tally["same"] += 1
    failing = [row for row in worse if beyond_tolerance(row[1], row[2])]
    try:
        for device, tally in counts.items():
            print(
                f"{device:12s} worse {tally['worse']:4d}  better {tally['better']:4d}  "
                f"same {tally['same']:4d}  failed in both {tally['failed']:4d}"
            )
        for key, old, new, delta in sorted(worse, key=lambda row: -row[3]):
            label = "WORSE" if beyond_tolerance(old, new) else "worse"
            print(f"{label}   {key:36s} ε {old:.12g} -> {new:.12g} ({delta:+.2e})")
        for key, old, new in flipped:
            print(f"flipped {key:36s} success {old} -> {new}")
        if failing or flipped:
            print(
                f"FAIL: {len(failing)} jobs worse by more than 1e-9·max(1, |ε|) "
                f"(marked WORSE), {len(flipped)} flipped"
            )
        elif worse:
            print(f"ok: {len(worse)} jobs worse, all within 1e-9·max(1, |ε|); none flipped")
        else:
            print("no job got worse or changed between success and failure")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (say, ``head``) stopped early; the verdict stands.
        # Point stdout at /dev/null so the exit-time flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if failing or flipped else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the sweep to this JSON file")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--quick", action="store_true", help="rydberg-1d only")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        return compare(before, after)
    devices = DEVICES[:1] if args.quick else DEVICES
    result = sweep(devices)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    jobs = result["jobs"].values()
    succeeded = sum(job["success"] for job in jobs)
    print(f"{succeeded}/{len(result['jobs'])} jobs compiled; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
