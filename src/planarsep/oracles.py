"""Brute-force oracles: independent routes to the quantities the fast
paths compute.  Everything here is deliberately naive and desk-scale."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
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


@dataclass(frozen=True)
class ContourDualTree:
    """The dual tree as the contour of T names it, keyed by face id."""

    darts: tuple[Dart, ...]                  # the contour: position p holds darts[p]
    intervals: dict[EdgeId, tuple[int, int]]  # cotree edge -> its darts' positions i < j
    parent: dict[FaceId, FaceId | None]
    parent_edge: dict[FaceId, EdgeId | None]
    depth: dict[FaceId, int]                  # D at every position of the face


def contour_dual_tree(g: EmbeddedPlanarGraph, tree: SpanningTree) -> ContourDualTree:
    """The dual tree read off the contour intervals, after checking the
    claims that make them name faces (AssertionError where one fails).

    The contour of T starts at R, the tree root's first rotation dart; a
    tree dart d is followed by g.face_succ(d), any other dart d by
    g.rot_next(d).  Each cotree edge spans the interval (i, j] between its
    two darts' positions.  Faces come from face_ids, which walks the
    rotations; nothing here reads g.dart_table or g.dart_face.  Claims:

    - the walk meets every dart once before it returns to R;
    - the intervals nest or are disjoint;
    - each face is exactly the positions whose innermost enclosing
      interval is one interval, its own, and R's face is the positions no
      interval encloses;
    - a face's size is its interval's length minus the lengths of its
      child intervals (2m minus the outermost ones at R's face);
    - a face is a dual leaf iff no cotree dart sits at positions i+1..j-1;
    - D(p), the number of intervals holding p, is a +-1 prefix sum: +1
      after an interval's first dart, -1 after its second, so it is the
      same at every position of a face.

    Pairwise and per-position scans: desk scale only.
    """
    faces = face_ids(g)
    start = g.rotation[tree.root][0]
    darts = [start]
    while True:
        d = darts[-1]
        d = g.face_succ(d) if d.edge() in tree.edges else g.rot_next(d)
        if d == start:
            break
        darts.append(d)
    size = 2 * g.m
    assert len(darts) == size, f"the contour returns to R after {len(darts)} of {size} darts"
    pos = {d: p for p, d in enumerate(darts)}
    intervals: dict[EdgeId, tuple[int, int]] = {}
    for p, d in enumerate(darts):
        if d.edge() not in tree.edges and d.edge() not in intervals:
            intervals[d.edge()] = (p, pos[d.reverse()])
    spans = sorted(intervals.items(), key=lambda item: item[1])
    for (e, (i, j)), (h, (k, l)) in combinations(spans, 2):  # i < k
        assert j < k or l < j, f"the intervals of {e} and {h} cross"

    def innermost(p: int, strict_of: EdgeId | None = None) -> EdgeId | None:
        """The shortest interval holding position p (other than strict_of)."""
        holding = [(j - i, e) for e, (i, j) in spans if i < p <= j and e != strict_of]
        return min(holding)[1] if holding else None

    inner = [innermost(p) for p in range(size)]
    face_of: dict[EdgeId | None, FaceId] = {}
    for p, d in enumerate(darts):
        assert face_of.setdefault(inner[p], faces[d]) == faces[d], (
            f"position {p} is on {faces[d]}, not on the face of {inner[p]}"
        )
    assert face_of[None] == faces[start], "R's face is not the unenclosed one"
    assert len(set(face_of.values())) == len(face_of) == len(spans) + 1, (
        "faces and intervals do not match one to one"
    )
    # an interval's parent interval holds its first position after it opens
    outer = {e: innermost(i + 1, e) for e, (i, _) in spans}
    kids: dict[EdgeId | None, list[EdgeId]] = {e: [] for e in face_of}
    for e, up in outer.items():
        kids[up].append(e)
    boundary = Counter(faces.values())
    for e, (i, j) in [(None, (-1, size - 1))] + spans:
        own = (j - i) - sum(intervals[k][1] - intervals[k][0] for k in kids[e])
        assert own == boundary[face_of[e]], f"the face of {e} has {boundary[face_of[e]]} darts"
        cotree_inside = any(darts[q].edge() not in tree.edges for q in range(i + 1, j))
        assert cotree_inside == bool(kids[e]), f"the face of {e} is a leaf iff no cotree dart"
    opened = {i for i, _ in intervals.values()}
    closed = {j for _, j in intervals.values()}
    depth = {}
    level = 0
    for p in range(size):
        holding = sum(1 for i, j in intervals.values() if i < p <= j)
        assert holding == level, f"D({p}) = {holding}, but the prefix sum gives {level}"
        assert depth.setdefault(faces[darts[p]], level) == level, f"D moves on {faces[darts[p]]}"
        level += (p in opened) - (p in closed)
    return ContourDualTree(
        darts=tuple(darts),
        intervals=intervals,
        parent={face_of[e]: None if e is None else face_of[outer[e]] for e in face_of},
        parent_edge={face_of[e]: e for e in face_of},
        depth=depth,
    )
