"""Embedded planar graphs as rotation systems.

A graph is stored combinatorially: for every vertex, the clockwise cyclic
order of its outgoing darts.  Faces are the orbits of the traversal rule

    succ(d) = the dart following reverse(d) in the rotation at head(d)

so every face lies to the left of each of its boundary darts, and each of
the 2m darts belongs to exactly one face boundary.  Face identifiers are
canonical: the lexicographically smallest (tail, head, copy) dart on the
boundary.  That makes ids deterministic and computable from purely local
walks, which the message-passing implementation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    EulerViolation,
    InconsistentRotation,
    NegativeWeight,
    NotConnected,
)


class Dart(NamedTuple):
    """One directed side of an edge.

    copy disambiguates parallel edges introduced by augmentation; input
    graphs are simple and use copy 0 everywhere.  Whether a dart is
    virtual is recorded on the graph (virtual_edges), not in the dart
    identity, so a dart and its reverse always share (copy, virtualness).
    """

    tail: int
    head: int
    copy: int = 0

    def reverse(self) -> "Dart":
        return Dart(self.head, self.tail, self.copy)

    def edge(self) -> "EdgeId":
        a, b = (self.tail, self.head) if self.tail < self.head else (self.head, self.tail)
        return (a, b, self.copy)


EdgeId = tuple[int, int, int]  # (min endpoint, max endpoint, copy)
FaceId = Dart  # canonical boundary dart


@dataclass(frozen=True)
class Face:
    id: FaceId
    boundary: tuple[Dart, ...]  # traversal order; boundary[0] is the canonical dart

    @property
    def size(self) -> int:
        return len(self.boundary)


@dataclass(frozen=True)
class DualEdge:
    primal: EdgeId
    face_a: FaceId  # face of the dart (a -> b)
    face_b: FaceId  # face of the dart (b -> a)

    def is_self_loop(self) -> bool:
        return self.face_a == self.face_b


@dataclass
class EmbeddedPlanarGraph:
    """Immutable rotation-system graph; construct via build_embedding."""

    n: int
    rotation: list[list[Dart]]
    vertex_weight: list[int]
    faces: list[Face] = field(repr=False)
    face_of: dict[Dart, FaceId] = field(repr=False)
    infinite_face: FaceId = None
    virtual_edges: frozenset[EdgeId] = frozenset()

    _rot_pos: dict[Dart, int] = field(default=None, repr=False)
    _face_by_id: dict[FaceId, Face] = field(default=None, repr=False)

    def __post_init__(self):
        if self._rot_pos is None:
            self._rot_pos = {
                d: i for rot in self.rotation for i, d in enumerate(rot)
            }
        if self._face_by_id is None:
            self._face_by_id = {f.id: f for f in self.faces}

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    @property
    def f(self) -> int:
        return len(self.faces)

    def darts(self) -> Iterable[Dart]:
        for rot in self.rotation:
            yield from rot

    def edges(self) -> list[EdgeId]:
        return sorted({d.edge() for d in self.darts()})

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def neighbors(self, v: int) -> list[int]:
        return [d.head for d in self.rotation[v]]

    def face(self, fid: FaceId) -> Face:
        return self._face_by_id[fid]

    # -- rotation / face traversal --------------------------------------

    def rot_next(self, d: Dart) -> Dart:
        rot = self.rotation[d.tail]
        return rot[(self._rot_pos[d] + 1) % len(rot)]

    def face_succ(self, d: Dart) -> Dart:
        return self.rot_next(d.reverse())

    def euler_residual(self) -> int:
        return self.n - self.m + self.f - 2

    def darts_of_edge(self, e: EdgeId) -> tuple[Dart, Dart]:
        a, b, c = e
        return Dart(a, b, c), Dart(b, a, c)

    def dual_endpoints(self, e: EdgeId) -> tuple[FaceId, FaceId]:
        da, db = self.darts_of_edge(e)
        return self.face_of[da], self.face_of[db]


@dataclass(frozen=True)
class EmbeddingReport:
    n: int
    m: int
    f: int
    euler_residual: int
    connected: bool


def _trace_faces(rotation: list[list[Dart]]) -> list[Face]:
    rot_pos = {d: i for rot in rotation for i, d in enumerate(rot)}

    def succ(d: Dart) -> Dart:
        rot = rotation[d.head]
        rev = Dart(d.head, d.tail, d.copy)
        return rot[(rot_pos[rev] + 1) % len(rot)]

    faces = []
    seen: set[Dart] = set()
    for rot in rotation:
        for start in rot:
            if start in seen:
                continue
            boundary = [start]
            seen.add(start)
            d = succ(start)
            while d != start:
                boundary.append(d)
                seen.add(d)
                d = succ(d)
            # rotate the boundary so the canonical (minimum) dart leads
            k = boundary.index(min(boundary))
            boundary = boundary[k:] + boundary[:k]
            faces.append(Face(id=boundary[0], boundary=tuple(boundary)))
    faces.sort(key=lambda f: f.id)
    return faces


def _check_connected(n: int, rotation: list[list[Dart]]) -> bool:
    if n == 0:
        return True
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for d in rotation[v]:
            if not seen[d.head]:
                seen[d.head] = True
                stack.append(d.head)
    return all(seen)


def _default_infinite_face(faces: Sequence[Face]) -> FaceId:
    # largest boundary, ties broken by smallest canonical id
    largest = max(f.size for f in faces)
    return min(f.id for f in faces if f.size == largest)


def build_embedding(
    n: int,
    rotation: Sequence[Sequence[Dart | tuple[int, int] | tuple[int, int, int] | int]],
    weights: Optional[Sequence[int]] = None,
    infinite_face_hint: Optional[Dart] = None,
    virtual_edges: Iterable[EdgeId] = (),
    strict: bool = True,
) -> EmbeddedPlanarGraph:
    """Validate a rotation system and assemble the graph.

    rotation[v] may hold Darts, (head,) ints, or (tail, head[, copy])
    tuples; bare ints are convenient for simple inputs.  With strict=True
    the Euler check is enforced; strict=False admits non-planar rotation
    systems so validate_embedding can report their residual.
    """
    rot: list[list[Dart]] = []
    for v in range(n):
        row = []
        for item in rotation[v]:
            if isinstance(item, Dart):
                d = item
            elif isinstance(item, int):
                d = Dart(v, item, 0)
            elif len(item) == 2:
                d = Dart(v, item[1], 0) if item[0] == v else Dart(v, item[0], 0)
            else:
                d = Dart(*item)
            if d.tail != v:
                raise InconsistentRotation(f"dart {d} listed under vertex {v}")
            if d.head == d.tail:
                raise InconsistentRotation(f"self-loop dart {d}")
            if not (0 <= d.head < n):
                raise InconsistentRotation(f"dart {d} has head outside 0..{n - 1}")
            row.append(d)
        if len(set(row)) != len(row):
            raise InconsistentRotation(f"duplicate dart in rotation of vertex {v}")
        rot.append(row)

    all_darts = {d for row in rot for d in row}
    for d in all_darts:
        if d.reverse() not in all_darts:
            raise InconsistentRotation(f"dart {d} has no reverse")

    if weights is None:
        weights = [1] * n
    weights = list(weights)
    if len(weights) != n:
        raise NegativeWeight(f"expected {n} weights, got {len(weights)}")
    for v, w in enumerate(weights):
        if w < 0:
            raise NegativeWeight(f"vertex {v} has weight {w}")

    if not _check_connected(n, rot):
        raise NotConnected("graph is not connected")

    faces = _trace_faces(rot)
    m = sum(len(r) for r in rot) // 2
    residual = n - m + len(faces) - 2
    if strict and residual != 0:
        raise EulerViolation(f"n - m + f = {n} - {m} + {len(faces)} != 2")

    face_of = {d: f.id for f in faces for d in f.boundary}
    if infinite_face_hint is not None:
        if infinite_face_hint not in face_of:
            raise InconsistentRotation(f"infinite face hint dart {infinite_face_hint} unknown")
        inf = face_of[infinite_face_hint]
    else:
        inf = _default_infinite_face(faces)

    return EmbeddedPlanarGraph(
        n=n,
        rotation=rot,
        vertex_weight=weights,
        faces=faces,
        face_of=face_of,
        infinite_face=inf,
        virtual_edges=frozenset(virtual_edges),
    )


def validate_embedding(g: EmbeddedPlanarGraph) -> EmbeddingReport:
    return EmbeddingReport(
        n=g.n,
        m=g.m,
        f=g.f,
        euler_residual=g.euler_residual(),
        connected=_check_connected(g.n, g.rotation),
    )


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple[FaceId, ...]
    dual_edges: tuple[DualEdge, ...]


def build_dual(g: EmbeddedPlanarGraph) -> DualGraph:
    """One dual edge per primal edge; self-loops exactly at bridges."""
    dual_edges = []
    for e in g.edges():
        fa, fb = g.dual_endpoints(e)
        dual_edges.append(DualEdge(primal=e, face_a=fa, face_b=fb))
    return DualGraph(
        nodes=tuple(f.id for f in g.faces),
        dual_edges=tuple(dual_edges),
    )
