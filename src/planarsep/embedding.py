"""Embedded planar graphs as rotation systems.

A graph is stored combinatorially: for every vertex, the clockwise cyclic
order of its outgoing darts.  Faces are the orbits of the traversal rule

    succ(d) = the dart following reverse(d) in the rotation at head(d)

so every face lies to the left of each of its boundary darts, and each of
the 2m darts belongs to exactly one face boundary.  Face identifiers are
canonical: the lexicographically smallest (tail, head, copy) dart on the
boundary.  That makes ids deterministic and computable from purely local
walks, which the message-passing implementation relies on.

Darts are numbered once, when the graph is built: g.dart_table gives
them ids in (tail, head, copy) order, and both engines work on those ids.
Faces are traced over the ids in ascending order, so they come out sorted
by id: face i is g.faces[i], number order is id order, and a min, max or
tie-break over numbers picks the same face as over ids.  g.dart_face
holds every dart's face number, by dart id.  A Dart face id is read off
g.faces only where a report names a face.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .collector import collector_paused
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
    dart_table: DartTable = field(repr=False, compare=False)  # the rotation's darts, numbered
    dart_face: list[int] = field(repr=False)  # face number of every dart, by dart id
    infinite_face: FaceId = None
    virtual_edges: frozenset[EdgeId] = frozenset()

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.dart_table) // 2

    @property
    def f(self) -> int:
        return max(len(self.faces), 1)  # an edgeless graph's plane is one face

    def darts(self) -> Iterable[Dart]:
        for rot in self.rotation:
            yield from rot

    def edges(self) -> list[EdgeId]:
        return [(a, b, c) for a, b, c in self.dart_table.triple if a < b]  # sorted, as ids are

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


class DartTable:
    """The darts of a rotation system, numbered once.

    rotations[v] lists v's darts, (tail, head, copy) triples with tail v,
    in rotation order.  Ids ascend in (tail, head, copy) order, so int
    order is dart order and v's ids fill the range lo[v]..lo[v+1]-1.  Flat
    lists map an id to its tail, head, triple (the caller's own object),
    reverse dart and rotation successor; rot[v] lists v's ids in rotation
    order, and index maps a triple back to its id.  InconsistentRotation
    unless every dart's reverse is present.  A table restricted to a
    sub-system (restricted) shares every list but rot and succ.
    """

    def __init__(self, rotations: Sequence[Sequence[tuple[int, int, int]]]):
        triple: list[tuple[int, int, int]] = []
        lo = [0]
        for v, rot in enumerate(rotations):
            row = sorted(rot)
            # sorted by tail first: the ends have tail v iff every dart has
            for d in row[:1] + row[-1:]:
                if d[0] != v:
                    raise InconsistentRotation(f"dart {tuple(d)} in the rotation of vertex {v}")
            triple += row
            lo.append(len(triple))
        self.triple = triple
        self.lo = lo
        self.tail = list(map(itemgetter(0), triple))
        self.head = list(map(itemgetter(1), triple))
        self.index = index = dict(zip(triple, range(len(triple))))
        try:
            self.rev = [index[h, t, c] for t, h, c in triple]
        except KeyError as exc:
            raise InconsistentRotation(f"reverse dart {exc.args[0]} is missing") from None
        self._link([tuple(map(index.__getitem__, rot)) for rot in rotations])

    def _link(self, rot: list[tuple[int, ...]]) -> None:
        self.rot = rot
        self.succ = succ = [0] * len(self.triple)
        for ids in rot:
            for a, b in zip(ids, ids[1:] + ids[:1]):
                succ[a] = b

    def restricted(self, rot: list[tuple[int, ...]]) -> "DartTable":
        """The same ids, triples and reverses with rotations rot, each v's
        own ids in rotation order: a sub-system that keeps every dart's
        reverse with it.  Only rot and succ are built; a dart outside rot
        has no successor."""
        sub = copy.copy(self)
        sub._link(rot)
        return sub

    def __len__(self) -> int:
        return len(self.triple)

    def dart(self, d: int) -> Dart:
        """The Dart of id d, for callers outside the engine."""
        return Dart(*self.triple[d])

    def edge(self, d: int) -> EdgeId:
        t, h, c = self.triple[d]
        return (t, h, c) if t < h else (h, t, c)


def _trace_faces(table: DartTable) -> tuple[list[Face], list[int]]:
    """The faces in id order, and each dart's face number by dart id.

    The face successor of id d is succ(rev(d)).  A walk from each id not yet
    on a face, in ascending order, starts at the face's smallest dart, its
    canonical id, so faces need no sort and boundaries no rotation.
    """
    triple = table.triple
    face_succ = list(map(table.succ.__getitem__, table.rev))
    dart_face = [-1] * len(triple)
    faces = []
    for start in range(len(triple)):
        if dart_face[start] < 0:
            dart_face[start] = k = len(faces)
            boundary = [triple[start]]
            s = face_succ[start]
            while s != start:
                dart_face[s] = k
                boundary.append(triple[s])
                s = face_succ[s]
            faces.append(Face(id=boundary[0], boundary=tuple(boundary)))
    return faces, dart_face


def _check_connected(n: int, table: DartTable) -> bool:
    if n == 0:
        return True
    head, lo = table.head, table.lo
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for h in head[lo[v]:lo[v + 1]]:
            if not seen[h]:
                seen[h] = True
                stack.append(h)
    return all(seen)


def require_weights(n: int, weights: Iterable[int]) -> list[int]:
    """weights as a list, checked to hold one non-negative int per vertex
    of an n-vertex graph; NegativeWeight otherwise."""
    weights = list(weights)
    if len(weights) != n:
        raise NegativeWeight(f"expected {n} weights, got {len(weights)}")
    for v, w in enumerate(weights):
        if not isinstance(w, int):
            raise NegativeWeight(f"vertex {v} has weight {w!r}, not an int")
        if w < 0:
            raise NegativeWeight(f"vertex {v} has weight {w}")
    return weights


@collector_paused
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
    their residual.  The cyclic collector is paused for the call
    (collector_paused): the graph holds no reference cycle.
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

    table = DartTable(rot)  # InconsistentRotation unless every reverse is present

    weights = require_weights(n, [1] * n if weights is None else weights)

    if not _check_connected(n, table):
        raise NotConnected("graph is not connected")

    faces, dart_face = _trace_faces(table)
    m = len(table) // 2
    nf = max(len(faces), 1)  # faces are dart orbits; an edgeless graph has one
    if strict and n - m + nf != 2:
        raise EulerViolation(f"n - m + f = {n} - {m} + {nf} != 2")

    if infinite_face_hint is not None:
        if infinite_face_hint not in table.index:
            raise InconsistentRotation(f"infinite face hint dart {infinite_face_hint} unknown")
        inf = faces[dart_face[table.index[infinite_face_hint]]].id
    elif faces:  # the largest boundary; max keeps the first, smallest id, on a tie
        inf = max(faces, key=lambda f: len(f.boundary)).id
    else:
        inf = None

    return EmbeddedPlanarGraph(
        n=n,
        rotation=rot,
        vertex_weight=weights,
        faces=faces,
        dart_table=table,
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
        connected=_check_connected(g.n, g.dart_table),
    )


@dataclass(frozen=True)
class DualGraph:
    nodes: range  # face numbers
    dual_edges: tuple[DualEdge, ...]


def build_dual(g: EmbeddedPlanarGraph) -> DualGraph:
    """One dual edge per primal edge, in sorted edge order; self-loops
    exactly at bridges.

    Dart ids ascend in dart order, so the darts (a, b, c) with a < b come
    in sorted edge order; face_a is the face of the dart, face_b that of
    its reverse.
    """
    dart_face, rev = g.dart_face, g.dart_table.rev
    # tuple.__new__ builds each DualEdge without NamedTuple's Python-level __new__
    return DualGraph(
        nodes=range(len(g.faces)),
        dual_edges=tuple([
            tuple.__new__(DualEdge, ((a, b, c), dart_face[d], dart_face[rev[d]]))
            for d, (a, b, c) in enumerate(g.dart_table.triple) if a < b
        ]),
    )
