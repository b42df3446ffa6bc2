"""The benchmark's workloads, each built from a seed.

Every workload is treated as a partition: a single-graph workload is one
part holding every vertex.  Each part also carries the input the
sequential engine gets for it: the part's induced sub-embedding,
relabelled in ascending member order (which keeps relative id order and
hence every id-based tie-break), with the part's tree and weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from planarsep.embedding import Dart, EmbeddedPlanarGraph, build_embedding
from planarsep.generators import (
    cycle_chords,
    grid,
    proper_random_weights,
    random_triangulation,
    two_level_parts,
    unit_weights,
)
from planarsep.treecotree import SpanningTree, bfs_tree, tree_from_edges
from planarsep.dist import part_bfs_trees

from spans import Tracer


@dataclass
class PartInput:
    pid: int
    members: list[int]            # global ids; local id i is members[i]
    graph: EmbeddedPlanarGraph    # induced sub-embedding in local ids
    tree: SpanningTree            # the part's tree in local ids
    weights: list[int]


@dataclass
class Instance:
    workload: str
    graph: EmbeddedPlanarGraph
    weights: list[int]
    part_of: Optional[list[int]]  # None: one part, run by dist_compute_separator
    trees: dict[int, SpanningTree]  # global ids, one per part
    parts: list[PartInput]

    @property
    def tree(self) -> SpanningTree:
        return self.trees[0]

    def forest(self) -> SpanningTree:
        """All part trees as one forest (each part root has no parent)."""
        parent: list[Optional[int]] = [None] * self.graph.n
        for t in self.trees.values():
            for v, p in enumerate(t.parent):
                if p is not None:
                    parent[v] = p
        t0 = self.trees[min(self.trees)]
        return SpanningTree(
            root=t0.root, parent=parent, parent_edge=[], depth=[], edges=set()
        )


def _relabelled_part(
    g: EmbeddedPlanarGraph, part_of: list[int], weights: list[int],
    pid: int, members: list[int], tree: SpanningTree,
) -> PartInput:
    to_local = {v: i for i, v in enumerate(members)}
    rot = [
        [Dart(to_local[v], to_local[d.head], d.copy) for d in g.rotation[v]
         if part_of[d.head] == pid]
        for v in members
    ]
    pw = [weights[v] for v in members]
    sub = build_embedding(len(members), rot, pw)
    edges = {(to_local[a], to_local[b], c) for (a, b, c) in tree.edges}
    return PartInput(
        pid=pid, members=members, graph=sub,
        tree=tree_from_edges(sub, edges, to_local[tree.root]), weights=pw,
    )


def _single(name: str, g: EmbeddedPlanarGraph, w: list[int], tracer: Tracer) -> Instance:
    with tracer.span("treecotree.bfs"):
        tree = bfs_tree(g, 0)
    part = PartInput(pid=0, members=list(range(g.n)), graph=g, tree=tree, weights=w)
    return Instance(name, g, w, None, {0: tree}, [part])


def grid_deep(seed: int, smoke: bool, tracer: Tracer) -> Instance:
    side = 12 if smoke else 64
    with tracer.span("generators"):
        g = grid(side, side)
        w = proper_random_weights(g.n, seed)
    return _single("grid-deep", g, w, tracer)


def tri_wide(seed: int, smoke: bool, tracer: Tracer) -> Instance:
    n = 150 if smoke else 5000
    with tracer.span("generators"):
        g = random_triangulation(n, seed)
        w = proper_random_weights(g.n, seed)
    return _single("tri-wide", g, w, tracer)


def ring_long(seed: int, smoke: bool, tracer: Tracer) -> Instance:
    n, chords = (60, 10) if smoke else (600, 100)
    with tracer.span("generators"):
        g = cycle_chords(n, chords, seed)
        w = unit_weights(g.n)
    return _single("ring-long", g, w, tracer)


def parts_16(seed: int, smoke: bool, tracer: Tracer) -> Instance:
    # 16 parts either way; smoke parts are 8x8 so random-proper weights
    # (8..16 per vertex) stay 1/12-proper inside every part
    size = 32 if smoke else 64
    with tracer.span("generators"):
        g, part_of = two_level_parts(size, 4)
        w = proper_random_weights(g.n, seed)
    with tracer.span("treecotree.bfs"):
        trees = part_bfs_trees(g, part_of)
    with tracer.span("generators.parts"):
        members: dict[int, list[int]] = {}
        for v, pid in enumerate(part_of):
            members.setdefault(pid, []).append(v)
        parts = [
            _relabelled_part(g, part_of, w, pid, members[pid], trees[pid])
            for pid in sorted(members)
        ]
    return Instance("parts-16", g, w, part_of, trees, parts)


WORKLOADS: dict[str, Callable[[int, bool, Tracer], Instance]] = {
    "grid-deep": grid_deep,
    "tri-wide": tri_wide,
    "ring-long": ring_long,
    "parts-16": parts_16,
}
