#!/usr/bin/env python3
"""Alternating parent/child runs of the engine benchmark, written to
PAIRS_<parent>_<child>.json.

    python3 scripts/bench_pairs.py PARENT CHILD [--pairs N] [--seed S]
        [--workload NAME[:PAIRS]] ...

Extracts both commits with ``git archive`` into temporary directories (no
network, nothing added to the repository's git state) and runs
``perfbench/run.py --trace 0`` in each, one run per side and pair.  The
side that runs first alternates from pair to pair, and the workloads take
turns pair by pair, so a slow spell of a shared host hits both sides
alike.  Each run lasts BENCHMARK.json's ``run_seconds``.  Without
--workload every workload BENCHMARK.json declares runs --pairs pairs
(default 10, the fewest a gain claim may cite); ``NAME:PAIRS`` sets one
workload's count.

The file at the repository root holds, per workload and for every
end-to-end metric BENCHMARK.json declares:

- each pair's child/parent ratio and whether the child was better,
  worse or equal (by the metric's ``better`` direction);
- each side's median and quartiles over its runs;
- win counts, and the median gap (positive when the child is better)
  against the parent's interquartile range;
- ``same_outputs``: whether every run of both sides wrote the same
  ``fingerprint`` (``outputs_sha256`` and ``round_trace``), that is,
  whether the change left every output and every round count as it was;
- ``same_results``: whether every run of both sides wrote the same
  ``outputs_sha256``, so a change that moves round counts by design can
  still show that its separators and records did not move;

plus the seed, the run length, both commits and both source digests (the
``src_sha256`` of perfbench's stamp).  The name gains ``_seed<S>`` for a
seed other than 1.

The last lines of standard output sum it up per workload: a line with
``same_outputs`` and ``same_results``, then one line per end-to-end
metric with its median child/parent ratio, wins and losses, so a claim
on any of them can be read off the summary.

The sources under src/ and perfbench/ must match HEAD, and an existing
file is never overwritten; either refusal exits 2.  A run that fails the
benchmark's correctness gate exits 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_snapshot import ROOT, _git, _run, _spread

SEED = 1


def _extract(commit: str, into: Path) -> None:
    """The commit's src/, perfbench/ and BENCHMARK.json under into."""
    archive = subprocess.run(
        ["git", "archive", commit, "src", "perfbench", "BENCHMARK.json"],
        cwd=ROOT, capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def _compare(parent: list[float], child: list[float], better: str) -> dict:
    """Per-pair ratios and verdicts, both sides' spread, and the median gap
    against the parent's interquartile range."""
    sign = 1 if better == "higher" else -1
    verdicts = []
    for p, c in zip(parent, child):
        diff = sign * (c - p)
        verdicts.append("better" if diff > 0 else "worse" if diff < 0 else "equal")
    p_spread, c_spread = _spread(parent), _spread(child)
    gap = sign * (c_spread["median"] - p_spread["median"])
    iqr = p_spread["q3"] - p_spread["q1"]
    return {
        "ratios": [c / p for p, c in zip(parent, child)],
        "verdicts": verdicts,
        "wins": verdicts.count("better"),
        "losses": verdicts.count("worse"),
        "parent": p_spread,
        "child": c_spread,
        "median_ratio": c_spread["median"] / p_spread["median"],
        "median_gap": gap,
        "parent_iqr": iqr,
        "gap_exceeds_iqr": gap > iqr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("child")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--workload", action="append", default=[], metavar="NAME[:PAIRS]")
    args = ap.parse_args(argv)

    if _git("status", "--porcelain", "--", "src", "perfbench"):
        print("bench_pairs: src/ or perfbench/ differs from HEAD", file=sys.stderr)
        return 2
    commits = {side: _git("rev-parse", "--short", sha) for side, sha in
               (("parent", args.parent), ("child", args.child))}
    suffix = "" if args.seed == SEED else f"_seed{args.seed}"
    path = ROOT / f"PAIRS_{commits['parent']}_{commits['child']}{suffix}.json"
    if path.exists():
        print(f"bench_pairs: {path.name} exists; it is never overwritten", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    wanted: dict[str, int] = {}
    for item in args.workload or known:
        name, _, count = item.partition(":")
        if name not in known:
            ap.error(f"unknown workload {name!r}; BENCHMARK.json declares {known}")
        wanted[name] = int(count) if count else args.pairs

    samples = {w: {side: {m: [] for m in metrics} for side in commits} for w in wanted}
    fingerprints: dict[str, list[dict]] = {w: [] for w in wanted}
    digests: dict[str, str] = {}
    order: list[list[str]] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {}
        for side, sha in commits.items():
            roots[side] = Path(tmp) / side
            roots[side].mkdir()
            _extract(sha, roots[side])
        for i in range(max(wanted.values())):
            sides = ["parent", "child"] if i % 2 == 0 else ["child", "parent"]
            for w, count in wanted.items():
                if i >= count:
                    continue
                order.append([w, *sides])
                for side in sides:
                    result, record = _run(w, args.seed, seconds, roots[side])
                    if not result["correct"]:
                        print(f"bench_pairs: {side} {w} pair {i + 1} failed: "
                              f"{record['failures']}", file=sys.stderr)
                        return 1
                    digests[side] = record["stamp"]["src_sha256"]
                    fingerprints[w].append(record["fingerprint"])
                    for m in metrics:
                        samples[w][side][m].append(result["metrics"][m]["value"])
                print(f"pair {i + 1}/{count} {w} ({sides[0]} first): dist_s "
                      f"{samples[w]['parent']['dist_s'][-1]:.3f} -> "
                      f"{samples[w]['child']['dist_s'][-1]:.3f}", flush=True)

    report = {
        "parent": {"commit": commits["parent"], "src_sha256": digests["parent"]},
        "child": {"commit": commits["child"], "src_sha256": digests["child"]},
        "seed": args.seed,
        "seconds": seconds,
        "order": order,
        "workloads": {
            w: {
                "pairs": wanted[w],
                "same_outputs": all(fp == fingerprints[w][0] for fp in fingerprints[w]),
                "same_results": len({fp["outputs_sha256"] for fp in fingerprints[w]}) == 1,
                "metrics": {
                    m: _compare(samples[w]["parent"][m], samples[w]["child"][m], better)
                    for m, better in metrics.items()
                },
            }
            for w in wanted
        },
    }
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w, record in report["workloads"].items():
        print(f"{w}: {record['pairs']} pairs, same_outputs {record['same_outputs']}, "
              f"same_results {record['same_results']}")
        for m, cmp in record["metrics"].items():
            print(f"  {m}: median ratio {cmp['median_ratio']:.3f}, "
                  f"won {cmp['wins']} lost {cmp['losses']}")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
