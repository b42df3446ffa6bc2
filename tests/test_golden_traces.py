"""Golden RoundTrace counters of the distributed engine.

Every phase counter and the published interval lengths of a few fixed
runs are pinned in tests/golden/traces.json, so a refactor of the
pipeline, the simulator or a phase program that shifts a single round,
message or bit fails here.  Regenerate the file only when a change sets
out to alter the traces:

    PYTHONPATH=src python3 tests/test_golden_traces.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from planarsep import bfs_tree, dist_compute_separator, dist_multi
from planarsep.dist import part_bfs_trees
from planarsep.generators import (
    cut_chain,
    cycle_chords,
    grid,
    random_triangulation,
    two_level_parts,
)

GOLDEN = Path(__file__).parent / "golden" / "traces.json"


def _single(make, backend="honest"):
    def run():
        g = make()
        _, trace = dist_compute_separator(g, bfs_tree(g, 0), backend=backend)
        return trace

    return run


def _multi(backend="honest"):
    def run():
        g, part_of = two_level_parts(8, 2)
        _, trace = dist_multi(g, part_of, part_bfs_trees(g, part_of), backend=backend)
        return trace

    return run


RUNS = {
    "grid8-honest": _single(lambda: grid(8, 8)),
    "grid8-charged": _single(lambda: grid(8, 8), backend="charged"),
    "c20c5": _single(lambda: cycle_chords(20, 5, seed=2)),
    "cut3x10": _single(lambda: cut_chain(3, 10, seed=1)),
    "tri200": _single(lambda: random_triangulation(200, seed=11)),
    "parts8x2": _multi(),
    "parts8x2-charged": _multi(backend="charged"),
}


def _snapshot(trace) -> dict:
    return {
        "phases": [asdict(p) for p in trace.phases],
        "interval_lengths": list(trace.interval_lengths),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert _snapshot(RUNS[name]()) == golden[name]


if __name__ == "__main__":
    snapshots = {name: _snapshot(run()) for name, run in sorted(RUNS.items())}
    GOLDEN.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n")
