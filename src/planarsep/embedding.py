"""Embedded planar graphs as rotation systems.

A graph is stored combinatorially: for every vertex, the clockwise cyclic
order of its outgoing darts.  Faces are the orbits of the traversal rule

    succ(d) = the dart following reverse(d) in the rotation at head(d)

so every face lies to the left of each of its boundary darts, and each of
the 2m darts belongs to exactly one face boundary.  Face identifiers are
canonical: the lexicographically smallest (tail, head, copy) dart on the
boundary.  That makes ids deterministic and computable from purely local
walks, which the message-passing implementation relies on.

Faces are also numbered once, when the graph is built: face i is
g.faces[i], and g.faces is sorted by id, so number order is id order and a
min, max or tie-break over numbers picks the same face as over ids.
g.dart_face holds every dart's face number in one flat list, in rotation
order (vertex 0's darts first).  The sequential engine runs on these
numbers; a Dart face id is read off g.faces only where a report names a
face.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
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


class DualEdge(NamedTuple):
    primal: EdgeId
    face_a: int  # number of the face of the dart (a -> b)
    face_b: int  # number of the face of the dart (b -> a)

    def is_self_loop(self) -> bool:
        return self.face_a == self.face_b


@dataclass
class EmbeddedPlanarGraph:
    """Immutable rotation-system graph; construct via build_embedding."""

    n: int
    rotation: list[list[Dart]]
    vertex_weight: list[int]
    faces: list[Face] = field(repr=False)  # sorted by id; face i has number i
    face_of: dict[Dart, FaceId] = field(repr=False)
    # face number of every dart, in rotation order (vertex 0's darts first)
    dart_face: list[int] = field(repr=False)
    infinite_face: FaceId = None
    virtual_edges: frozenset[EdgeId] = frozenset()

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    @property
    def f(self) -> int:
        return max(len(self.faces), 1)  # an edgeless graph's plane is one face

    def darts(self) -> Iterable[Dart]:
        for rot in self.rotation:
            yield from rot

    def edges(self) -> list[EdgeId]:
        return sorted({d.edge() for d in self.darts()})

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def neighbors(self, v: int) -> list[int]:
        return [d.head for d in self.rotation[v]]

    def face_number(self, fid: FaceId) -> int:
        """The number of the face with id fid (KeyError if there is none)."""
        i = bisect_left(self.faces, fid, key=attrgetter("id"))
        if i == len(self.faces) or self.faces[i].id != fid:
            raise KeyError(fid)
        return i

    def face(self, fid: FaceId) -> Face:
        return self.faces[self.face_number(fid)]

    # -- rotation / face traversal --------------------------------------

    def rot_next(self, d: Dart) -> Dart:
        rot = self.rotation[d.tail]
        return rot[(rot.index(d) + 1) % len(rot)]

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


def next_copy(rotation_u: Sequence[Dart], v: int) -> int:
    """Copy index of a new u-v edge: one above the copy of every u-v dart."""
    return max((d.copy for d in rotation_u if d.head == v), default=-1) + 1


@dataclass(frozen=True)
class EmbeddingReport:
    n: int
    m: int
    f: int
    euler_residual: int
    connected: bool


def _trace_faces(rotation: list[list[Dart]]) -> tuple[list[Face], list[int]]:
    """The faces sorted by id, and each dart's face number in rotation order.

    Darts are traced by their slot in rotation order.  The slot after x in
    its rotation is succ of reverse(x), so one lookup per dart gives every
    successor; a Dart hashes as its plain tuple, so the reverse needs no Dart.
    """
    darts = [d for rot in rotation for d in rot]
    slot = {d: i for i, d in enumerate(darts)}
    succ = [0] * len(darts)
    first = 0
    for rot in rotation:
        last = first + len(rot) - 1
        for i, (t, h, c) in enumerate(rot, first):
            succ[slot[h, t, c]] = i + 1 if i < last else first
        first = last + 1

    orbit_of = [-1] * len(darts)
    faces = []
    for start in range(len(darts)):
        if orbit_of[start] >= 0:
            continue
        k = len(faces)
        boundary = [darts[start]]
        orbit_of[start] = k
        s = succ[start]
        while s != start:
            boundary.append(darts[s])
            orbit_of[s] = k
            s = succ[s]
        # rotate the boundary so the canonical (minimum) dart leads
        i = boundary.index(min(boundary))
        boundary = boundary[i:] + boundary[:i]
        faces.append(Face(id=boundary[0], boundary=tuple(boundary)))
    by_id = sorted(range(len(faces)), key=lambda k: faces[k].id)
    number = [0] * len(faces)
    for i, k in enumerate(by_id):
        number[k] = i
    return [faces[k] for k in by_id], [number[k] for k in orbit_of]


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

    rotation[v] may hold Darts, bare head ints, pairs holding v and the
    head in either order, or (tail, head, copy) triples; any other item
    raises InconsistentRotation.  Bare ints are convenient for simple
    inputs.  With strict=True the Euler check is enforced; strict=False
    admits non-planar rotation systems so validate_embedding can report
    their residual.
    """
    rot: list[list[Dart]] = []
    for v in range(n):
        row = []
        for item in rotation[v]:
            if isinstance(item, Dart):
                d = item
            elif isinstance(item, int):
                d = Dart(v, item, 0)
            elif len(item) == 2 and v in item:
                d = Dart(v, item[1], 0) if item[0] == v else Dart(v, item[0], 0)
            elif len(item) == 3:
                d = Dart(*item)
            else:
                raise InconsistentRotation(
                    f"rotation item {item!r} of vertex {v} names no dart from {v}"
                )
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

    faces, dart_face = _trace_faces(rot)
    m = sum(len(r) for r in rot) // 2
    nf = max(len(faces), 1)  # faces are dart orbits; an edgeless graph has one
    if strict and n - m + nf != 2:
        raise EulerViolation(f"n - m + f = {n} - {m} + {nf} != 2")

    ids = [f.id for f in faces]
    face_of = dict(zip(chain.from_iterable(rot), map(ids.__getitem__, dart_face)))
    if infinite_face_hint is not None:
        if infinite_face_hint not in face_of:
            raise InconsistentRotation(f"infinite face hint dart {infinite_face_hint} unknown")
        inf = face_of[infinite_face_hint]
    else:
        inf = _default_infinite_face(faces) if faces else None

    return EmbeddedPlanarGraph(
        n=n,
        rotation=rot,
        vertex_weight=weights,
        faces=faces,
        face_of=face_of,
        dart_face=dart_face,
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
    nodes: range  # face numbers
    dual_edges: tuple[DualEdge, ...]


def build_dual(g: EmbeddedPlanarGraph) -> DualGraph:
    """One dual edge per primal edge, in sorted edge order; self-loops
    exactly at bridges.

    Both faces come from g.dart_face, in one pass over the vertices with
    each rotation sorted on its own.  Vertex a's darts to larger heads
    come out in edge order and open a block of dual edges.  A dart
    (b, a, c) with a < b gives face_b of the edge (a, b, c): at b the
    darts to a come by copy, and the vertices come in ascending order, so
    they fill a's block front to back.
    """
    dart_face = g.dart_face
    primal: list[EdgeId] = []
    face_a: list[int] = []
    face_b: list[int] = []
    fill = [0] * g.n  # next face_b slot in each vertex's block
    first = 0
    for v, rot in enumerate(g.rotation):
        fill[v] = len(primal)
        for i in sorted(range(len(rot)), key=rot.__getitem__):
            _, h, c = rot[i]
            if h < v:
                face_b[fill[h]] = dart_face[first + i]
                fill[h] += 1
            else:
                primal.append((v, h, c))
                face_a.append(dart_face[first + i])
                face_b.append(-1)
        first += len(rot)
    # tuple.__new__ builds each DualEdge without NamedTuple's Python-level __new__
    return DualGraph(
        nodes=range(len(g.faces)),
        dual_edges=tuple(map(tuple.__new__, repeat(DualEdge), zip(primal, face_a, face_b))),
    )
