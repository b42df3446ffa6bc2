"""Brute-force oracles: independent routes to the quantities the fast
paths compute.  Everything here is deliberately naive and desk-scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .embedding import Dart, EdgeId, EmbeddedPlanarGraph, FaceId
from .treecotree import SpanningTree, TreeCotreePair, fundamental_cycle


def face_ids(g: EmbeddedPlanarGraph) -> dict[Dart, FaceId]:
    """Every dart's face id: the smallest dart met on a walk with
    g.face_succ, which reads the rotations only."""
    face: dict[Dart, FaceId] = {}
    for d in g.darts():
        if d not in face:
            orbit = [d]
            while (x := g.face_succ(orbit[-1])) != d:
                orbit.append(x)
            face.update(dict.fromkeys(orbit, min(orbit)))
    return face


def enclosed_faces(g: EmbeddedPlanarGraph, cycle_edges: set[EdgeId], faces=None) -> set[FaceId]:
    """Faces separated from the infinite face by the cycle's edge set.

    Flood fill on the dual starting at the infinite face, refusing to
    cross the dual of any cycle edge; the unreached faces are enclosed.
    faces is face_ids(g), computed here when not given.
    """
    faces = faces or face_ids(g)
    blocked = set(cycle_edges)
    reached = {g.infinite_face}
    stack = [g.infinite_face]
    adj: dict[FaceId, list[tuple[EdgeId, FaceId]]] = {f: [] for f in faces.values()}
    for d, f in faces.items():  # each edge from both of its sides
        adj[f].append((d.edge(), faces[d.reverse()]))
    while stack:
        f = stack.pop()
        for e, h in adj[f]:
            if e in blocked or h in reached:
                continue
            reached.add(h)
            stack.append(h)
    return set(adj) - reached


def vertex_sides(
    g: EmbeddedPlanarGraph,
    cycle_vertices: Iterable[int],
    interior: set[FaceId],
    faces=None,
) -> tuple[set[int], set[int]]:
    """Strict-interior and strict-exterior vertex sets for a cycle; faces
    is face_ids(g), computed here when not given."""
    faces = faces or face_ids(g)
    on_cycle = set(cycle_vertices)
    inside, outside = set(), set()
    for v in range(g.n):
        if v in on_cycle:
            continue
        sides = {faces[d] in interior for d in g.rotation[v]}
        assert len(sides) == 1, f"vertex {v} touches both sides off-cycle"
        (inside if sides.pop() else outside).add(v)
    return inside, outside


@dataclass(frozen=True)
class CycleRow:
    edge: EdgeId
    cycle_vertices: tuple[int, ...]
    interior_faces: frozenset[FaceId]
    interior_weight: int   # strict interior, vertex weights
    exterior_weight: int   # strict exterior, vertex weights


def oracle_all_fundamental_cycles(
    g: EmbeddedPlanarGraph,
    tree: SpanningTree,
    weights: Sequence[int] | None = None,
    pair: TreeCotreePair | None = None,
) -> list[CycleRow]:
    """Every non-tree edge's cycle with flood-filled side weights."""
    from .treecotree import cotree

    w = list(weights) if weights is not None else list(g.vertex_weight)
    if pair is None:
        pair = cotree(g, tree)
    faces = face_ids(g)
    rows = []
    for e in sorted(pair.cotree_edges):
        path, cycle_edges = fundamental_cycle(pair, e)
        interior = enclosed_faces(g, cycle_edges, faces)
        inside, outside = vertex_sides(g, path, interior, faces)
        rows.append(
            CycleRow(
                edge=e,
                cycle_vertices=tuple(path),
                interior_faces=frozenset(interior),
                interior_weight=sum(w[v] for v in inside),
                exterior_weight=sum(w[v] for v in outside),
            )
        )
    return rows


def brute_force_articulation_points(g: EmbeddedPlanarGraph) -> set[int]:
    """Cut vertices by deletion and reconnection check; O(n*m), n <= ~500."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    cuts = set()
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        if not rest:
            continue
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != v and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(rest):
            cuts.add(v)
    return cuts
