#!/usr/bin/env python3
"""Engine benchmark snapshot of one commit, written to BENCH_<short sha>.json.

    python3 scripts/bench_snapshot.py

Runs ``perfbench/run.py --trace 0`` on every workload that BENCHMARK.json
declares, RUNS times each with seed SEED and BENCHMARK.json's
``run_seconds`` (the workloads take turns, so a slow spell of a shared
host hits them alike), from the root of this checkout.  The file at the
repository root holds:

- per workload, the perfbench stamp of its first run (Python, host,
  commit, source digest);
- per workload, the median and quartiles over runs of every end-to-end
  metric BENCHMARK.json declares;
- per workload, the honest rounds, messages, total bits and widest message
  of every RoundTrace phase, from the run's fingerprint;
- the wall time (raw, not scaled) and outcome counts of one run of the
  tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
  with src/ on PYTHONPATH), made before the benchmark runs.

The sources under src/ and perfbench/ must match the commit, and an
existing snapshot is never overwritten; either refusal exits 2.  A run
that fails the benchmark's correctness gate exits 1 and writes nothing.
The script takes no arguments: ``--help`` prints this text, and any other
argument exits 2 before git or any run starts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASE_FIELDS = ("honest_rounds", "messages", "total_bits", "max_bits")
RUNS = 3
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _spread(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "runs": xs}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def _run(workload: str, seed: int, seconds: float, root: Path = ROOT) -> tuple[dict, dict]:
    """One benchmark run in the checkout at root: its printed result and
    its result file."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run: {workload} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return result, json.loads(out.read_text())


def _tier1() -> dict:
    """Wall time and outcome counts ("passed", "failed", ...) of one tier-1 run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {kind: int(k) for k, kind in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    return {"wall_s": wall, "exit": proc.returncode, **counts}


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args(argv)
    if _git("status", "--porcelain", "--", "src", "perfbench"):
        print("bench_snapshot: src/ or perfbench/ differs from HEAD", file=sys.stderr)
        return 2
    path = ROOT / f"BENCH_{_git('rev-parse', '--short', 'HEAD')}.json"
    if path.exists():
        print(f"bench_snapshot: {path.name} exists; snapshots are never overwritten",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metric_names = [m["name"] for m in spec["end_to_end"]]
    samples = {w: {m: [] for m in metric_names} for w in workloads}
    phases, stamps = {}, {}
    tier1 = _tier1()
    print(f"tier-1: {tier1}", flush=True)
    for i in range(RUNS):
        for w in workloads:
            result, record = _run(w, SEED, seconds)
            if not result["correct"]:
                print(f"bench_snapshot: {w} run {i + 1} failed: {record['failures']}",
                      file=sys.stderr)
                return 1
            stamps.setdefault(w, record["stamp"])
            for m in metric_names:
                samples[w][m].append(result["metrics"][m]["value"])
            phases[w] = [
                {"name": p["name"], **{f: p[f] for f in PHASE_FIELDS}}
                for p in record["fingerprint"]["round_trace"]["phases"]
            ]
            print(f"run {i + 1}/{RUNS} {w}: dist_s "
                  f"{result['metrics']['dist_s']['value']:.3f}", flush=True)

    snapshot = {
        "runs": RUNS,
        "seed": SEED,
        "seconds": seconds,
        "tier1": tier1,
        "workloads": {
            w: {
                "stamp": stamps[w],
                "metrics": {m: _spread(samples[w][m]) for m in metric_names},
                "phases": phases[w],
            }
            for w in workloads
        },
    }
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
