"""Seeded instance generators emitting rotation systems directly.

All generators are deterministic functions of their parameters and seed.
The random triangulation grows combinatorially: seeded insertion of each
new vertex into a random internal triangle, followed by seeded edge flips
between internal triangles.  A flip attempt draws two internal triangles
at random and lands only if they share an edge, so few attempts land: at
n=5000 the default lands about 13-16 flips in its 20*n attempts.  The
instances are thus close to random stacked triangulations, shallow from
any root (BFS depth 7 at n=5000).  No coordinates are ever materialized.
"""

from __future__ import annotations

import random

from .embedding import Dart, EmbeddedPlanarGraph, build_embedding
from .errors import BadParams


def grid(rows: int, cols: int, weights=None) -> EmbeddedPlanarGraph:
    """rows x cols grid, row-major ids, clockwise rotations [up,right,down,left]."""
    if rows < 2 or cols < 2:
        raise BadParams("grid needs rows, cols >= 2")
    n = rows * cols

    def vid(r, c):
        return r * cols + c

    rotation = []
    for r in range(rows):
        for c in range(cols):
            v = vid(r, c)
            rot = []
            if r > 0:
                rot.append(Dart(v, vid(r - 1, c)))
            if c < cols - 1:
                rot.append(Dart(v, vid(r, c + 1)))
            if r < rows - 1:
                rot.append(Dart(v, vid(r + 1, c)))
            if c > 0:
                rot.append(Dart(v, vid(r, c - 1)))
            rotation.append(rot)
    return build_embedding(n, rotation, weights)


def cylinder(height: int, width: int, capped: bool = True, weights=None) -> EmbeddedPlanarGraph:
    """Stacked rings of `width` vertices; caps add two apex vertices.

    With caps the hop diameter stays bounded by the height alone, which is
    what the constant-diameter scaling family relies on.
    """
    if height < 1 or width < 3:
        raise BadParams("cylinder needs height >= 1 and width >= 3")
    n = height * width + (2 if capped else 0)
    apex_in = height * width
    apex_out = height * width + 1

    def vid(r, i):
        return r * width + i % width

    rotation = [None] * n
    for r in range(height):
        for i in range(width):
            v = vid(r, i)
            rot = []
            # clockwise when rings are drawn concentric, ring 0 innermost:
            # outward, clockwise ring neighbor, inward, counter-clockwise
            if r < height - 1:
                rot.append(Dart(v, vid(r + 1, i)))
            elif capped:
                rot.append(Dart(v, apex_out))
            rot.append(Dart(v, vid(r, i - 1)))
            if r > 0:
                rot.append(Dart(v, vid(r - 1, i)))
            elif capped:
                rot.append(Dart(v, apex_in))
            rot.append(Dart(v, vid(r, i + 1)))
            rotation[v] = rot
    if capped:
        rotation[apex_in] = [Dart(apex_in, vid(0, -i)) for i in range(width)]
        rotation[apex_out] = [Dart(apex_out, vid(height - 1, i)) for i in range(width)]
    return build_embedding(n, rotation, weights)


class _Triangulation:
    """Mutable rotation-system triangulation used during generation.

    ``internal[i]`` is internal face i as a dart triple (a->b, b->c, c->a);
    ``across[i][k]`` is the index of the internal face across the edge of
    ``internal[i][k]``, or -1 where that edge is on the outer triangle
    [(1->0),(0->2),(2->1)], which is never subdivided.  The triangulation
    stays simple, so two internal faces share at most one edge and a face
    appears at most once in another's ``across``.
    """

    def __init__(self):
        self.rot: list[list[Dart]] = [
            [Dart(0, 1), Dart(0, 2)],
            [Dart(1, 2), Dart(1, 0)],
            [Dart(2, 0), Dart(2, 1)],
        ]
        self.internal: list[tuple[Dart, Dart, Dart]] = [
            (Dart(0, 1), Dart(1, 2), Dart(2, 0))
        ]
        self.across: list[tuple[int, int, int]] = [(-1, -1, -1)]

    def _insert_before(self, v: int, anchor: Dart, new: Dart) -> None:
        self.rot[v].insert(self.rot[v].index(anchor), new)

    def _insert_after(self, v: int, anchor: Dart, new: Dart) -> None:
        self.rot[v].insert(self.rot[v].index(anchor) + 1, new)

    def _repoint(self, face: int, old: int, new: int) -> None:
        """Face `face` now meets `new` across the edge it shared with `old`."""
        if face >= 0:
            a, b, c = self.across[face]
            self.across[face] = (new if a == old else a, new if b == old else b,
                                 new if c == old else c)

    def insert_vertex(self, face_index: int) -> None:
        dab, dbc, dca = self.internal[face_index]
        nab, nbc, nca = self.across[face_index]
        a, b, c = dab.tail, dbc.tail, dca.tail
        x = len(self.rot)
        j1, j2 = len(self.internal), len(self.internal) + 1
        self.rot.append([Dart(x, a), Dart(x, c), Dart(x, b)])
        self._insert_before(a, dab, Dart(a, x))
        self._insert_after(b, dab.reverse(), Dart(b, x))
        self._insert_after(c, dbc.reverse(), Dart(c, x))
        self.internal[face_index] = (dab, Dart(b, x), Dart(x, a))
        self.internal.append((dbc, Dart(c, x), Dart(x, b)))
        self.internal.append((dca, Dart(a, x), Dart(x, c)))
        self.across[face_index] = (nab, j1, j2)
        self.across.append((nbc, j2, face_index))
        self.across.append((nca, face_index, j1))
        self._repoint(nbc, face_index, j1)
        self._repoint(nca, face_index, j2)

    def adjacent(self, p: int, q: int) -> bool:
        return any(d.head == q for d in self.rot[p])

    def flip(self, i1: int, i2: int) -> bool:
        """Flip the edge shared by internal faces i1, i2 if legal."""
        if i2 not in self.across[i1]:
            return False
        # rotate both so f1 = (u->v, v->p, p->u), f2 = (v->u, u->q, q->v)
        k1, k2 = self.across[i1].index(i2), self.across[i2].index(i1)
        f1 = self.internal[i1][k1:] + self.internal[i1][:k1]
        f2 = self.internal[i2][k2:] + self.internal[i2][:k2]
        a1 = self.across[i1][k1:] + self.across[i1][:k1]
        a2 = self.across[i2][k2:] + self.across[i2][:k2]
        u, v = f1[0].tail, f1[0].head
        p, q = f1[1].head, f2[1].head
        if p == q or self.adjacent(p, q):
            return False
        self.rot[u].remove(Dart(u, v))
        self.rot[v].remove(Dart(v, u))
        self._insert_after(p, Dart(p, v), Dart(p, q))
        self._insert_after(q, Dart(q, u), Dart(q, p))
        self.internal[i1] = (Dart(p, u), Dart(u, q), Dart(q, p))
        self.internal[i2] = (Dart(q, v), Dart(v, p), Dart(p, q))
        self.across[i1] = (a1[2], a2[1], i2)
        self.across[i2] = (a2[2], a1[1], i1)
        self._repoint(a2[1], i2, i1)
        self._repoint(a1[1], i1, i2)
        return True


def random_triangulation(n: int, seed: int, flips: int | None = None, weights=None) -> EmbeddedPlanarGraph:
    """Seeded combinatorial triangulation on n vertices (n >= 3).

    Inserts n-3 vertices, each into an internal triangle drawn at random,
    then flips edges: each attempt draws two internal triangles and flips
    their shared edge if they share one and the new edge would not be
    parallel to an existing one.  `flips` (default n) counts landed flips;
    attempts stop at 20*flips even if fewer landed.  Two random triangles
    rarely share an edge, so at n=5000 the default lands 13 flips at seed
    1 and 16 at seed 2, and the result stays close to a random stacked
    triangulation.  Every (n, seed, flips) gives one rotation system.
    """
    if n < 3:
        raise BadParams("triangulation needs n >= 3")
    rng = random.Random(seed)
    tri = _Triangulation()
    for _ in range(n - 3):
        tri.insert_vertex(rng.randrange(len(tri.internal)))
    if flips is None:
        flips = n
    attempts = 0
    done = 0
    while done < flips and attempts < 20 * flips:
        attempts += 1
        i1 = rng.randrange(len(tri.internal))
        i2 = rng.randrange(len(tri.internal))
        if i1 != i2 and tri.flip(i1, i2):
            done += 1
    rotation = tri.rot
    del tri  # its face lists are not needed to embed; free them first
    return build_embedding(n, rotation, weights, infinite_face_hint=Dart(1, 0))


def cycle_chords(n: int, chords: int, seed: int = 0, weights=None) -> EmbeddedPlanarGraph:
    """Cycle 0..n-1 plus `chords` random non-crossing chords drawn inside."""
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    rng = random.Random(seed)
    accepted: list[tuple[int, int]] = []

    def crosses(a, b, c, d):
        return (a < c < b < d) or (c < a < d < b)

    tries = 0
    while len(accepted) < chords and tries < 200 * max(1, chords):
        tries += 1
        i, j = sorted(rng.sample(range(n), 2))
        if j - i < 2 or (i == 0 and j == n - 1):
            continue
        if (i, j) in accepted:
            continue
        if any(crosses(i, j, a, b) for a, b in accepted):
            continue
        accepted.append((i, j))
    if len(accepted) < chords:
        raise BadParams(f"could not place {chords} non-crossing chords on C{n}")

    chord_at: list[list[int]] = [[] for _ in range(n)]
    for a, b in accepted:
        chord_at[a].append(b)
        chord_at[b].append(a)
    rotation = []
    for v in range(n):
        rot = [Dart(v, (v - 1) % n), Dart(v, (v + 1) % n)]
        for u in sorted(chord_at[v], key=lambda u: (u - v) % n):
            rot.append(Dart(v, u))
        rotation.append(rot)
    return build_embedding(n, rotation, weights)


def joined_grids(rows: int, cols: int, weights=None) -> tuple[EmbeddedPlanarGraph, list[int]]:
    """Two grids joined by one bridge edge; parts = the two grids."""
    a = grid(rows, cols)
    n1 = a.n
    rotation = [list(r) for r in a.rotation]
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            rot = []
            if r > 0:
                rot.append(Dart(n1 + v, n1 + v - cols))
            if c < cols - 1:
                rot.append(Dart(n1 + v, n1 + v + 1))
            if r < rows - 1:
                rot.append(Dart(n1 + v, n1 + v + cols))
            if c > 0:
                rot.append(Dart(n1 + v, n1 + v - 1))
            rotation.append(rot)
    # bridge from a's bottom-right corner to b's top-left corner
    corner_a = n1 - 1
    corner_b = n1
    rotation[corner_a].insert(1, Dart(corner_a, corner_b))
    rotation[corner_b].append(Dart(corner_b, corner_a))
    g = build_embedding(2 * n1, rotation, weights)
    return g, [0] * n1 + [1] * n1


def two_level_parts(
    size: int, parts_per_side: int, weights=None
) -> tuple[EmbeddedPlanarGraph, list[int]]:
    """size x size grid split into parts_per_side^2 quadrant blocks."""
    if size % parts_per_side != 0:
        raise BadParams("parts_per_side must divide size")
    g = grid(size, size, weights)
    block = size // parts_per_side
    part_of = []
    for r in range(size):
        for c in range(size):
            part_of.append((r // block) * parts_per_side + (c // block))
    return g, part_of


def pinned_critical_instance() -> tuple[EmbeddedPlanarGraph, set, int, int]:
    """Hand-built instance whose detection lands in the critical case with
    a pinned outcome.

    A 10-cycle (ids 0..9, the critical face) carries a chain "bubble" face
    outside every ring edge, and every ring corner between two bubbles is
    shielded by a two-vertex pocket so the ring face collects the ring
    weights under the minimum-id transfer rule.  The chain over edge (4,5)
    keeps one edge out of the tree, hanging the ring face below the outer
    face there, so the boundary enumerates as 4,3,2,1,0,9,8,7,6,5 and the
    heavy bubbles make the fourth virtual triangle the deepest heavy one.
    The closing virtual edge is then (0, 5).  Both engines root the dual
    tree at the face of the tree root's first dart, so vertex 0's rotation
    is listed from Dart(0, 10): that dart lies on the pocket face at corner
    0, the outer face's dual parent.  Listed from Dart(0, 9), the same
    cyclic rotation would root the dual tree at the ring face itself.

    Returns (graph, tree edge set, expected_u, expected_v).
    """
    # chain 9's last vertex prefers the pocket at corner 0 (its id exceeds
    # the pocket's), so that chain runs three vertices long to compensate
    sizes = {0: 8, 1: 1, 2: 1, 3: 1, 4: 2, 5: 8, 6: 8, 7: 8, 8: 8, 9: 11}
    bubbles: dict[int, list[int]] = {}
    nxt = 10
    for a in range(10):
        bubbles[a] = list(range(nxt, nxt + sizes[a]))
        nxt += sizes[a]
    pockets = {r: (nxt + 2 * r, nxt + 2 * r + 1) for r in range(10)}  # (z1, z2)
    n = nxt + 20

    rotation: list[list[Dart]] = [[] for _ in range(n)]
    tree_edges: set = set()
    for a in range(10):
        r = (a + 1) % 10
        rotation[a] = [
            Dart(a, (a - 1) % 10),
            Dart(a, bubbles[(a - 1) % 10][-1]),
            Dart(a, bubbles[a][0]),
            Dart(a, (a + 1) % 10),
        ]
        ys = bubbles[a]
        chain = [a] + ys + [r]
        for i, y in enumerate(ys):
            prev_v, next_v = chain[i], chain[i + 2]
            rot = [Dart(y, prev_v)]
            if i == 0:
                rot.append(Dart(y, pockets[a][1]))           # z2 of pocket at a
            if i == len(ys) - 1:
                rot.append(Dart(y, pockets[r][0]))           # z1 of pocket at r
            rot.append(Dart(y, next_v))
            rotation[y] = rot
        for x, y in zip(chain, chain[1:]):
            tree_edges.add((min(x, y), max(x, y), 0))
    rotation[0] = rotation[0][2:] + rotation[0][:2]  # from Dart(0, 10): see above
    # the chain over edge (4,5) keeps its middle edge out of the tree
    y1, y2 = bubbles[4]
    tree_edges.discard((min(y1, y2), max(y1, y2), 0))
    for r in range(10):
        z1, z2 = pockets[r]
        ylast = bubbles[(r - 1) % 10][-1]
        yfirst = bubbles[r][0]
        rotation[z1] = [Dart(z1, ylast), Dart(z1, z2)]
        rotation[z2] = [Dart(z2, z1), Dart(z2, yfirst)]
        tree_edges.add((min(ylast, z1), max(ylast, z1), 0))
        tree_edges.add((z1, z2, 0))

    weights = [1] * 10 + [2] * sum(sizes.values()) + [1] * 20
    g = build_embedding(n, rotation, weights)
    return g, tree_edges, 0, 5


def star(leaves: int) -> EmbeddedPlanarGraph:
    if leaves < 1:
        raise BadParams("star needs at least one leaf")
    rotation = [[Dart(0, i) for i in range(1, leaves + 1)]]
    rotation += [[Dart(i, 0)] for i in range(1, leaves + 1)]
    return build_embedding(leaves + 1, rotation)


def path_graph(n: int) -> EmbeddedPlanarGraph:
    if n < 2:
        raise BadParams("path needs n >= 2")
    rotation = []
    for v in range(n):
        rot = []
        if v > 0:
            rot.append(Dart(v, v - 1))
        if v < n - 1:
            rot.append(Dart(v, v + 1))
        rotation.append(rot)
    return build_embedding(n, rotation)


def merge_at_vertex(
    a: EmbeddedPlanarGraph, b: EmbeddedPlanarGraph, va: int = None, vb: int = 0
) -> EmbeddedPlanarGraph:
    """Glue b onto a by identifying b's vertex vb with a's vertex va.

    b lands inside the face of a at the corner behind va's last rotation
    entry, so planarity is preserved and va becomes a cut vertex.
    """
    if va is None:
        va = a.n - 1
    offset = a.n

    def bmap(v):
        return va if v == vb else (offset + v - (1 if v > vb else 0))

    rotation = [list(r) for r in a.rotation]
    for v in range(b.n):
        row = [Dart(bmap(v), bmap(d.head)) for d in b.rotation[v]]
        if v == vb:
            rotation[va].extend(row)
        else:
            rotation.append(row)
    weights = list(a.vertex_weight) + [
        b.vertex_weight[v] for v in range(b.n) if v != vb
    ]
    return build_embedding(a.n + b.n - 1, rotation, weights)


def cut_chain(blobs: int, blob_size: int, seed: int) -> EmbeddedPlanarGraph:
    """A chain of small triangulations glued at shared cut vertices."""
    if blobs < 2 or blob_size < 3:
        raise BadParams("cut_chain needs blobs >= 2, blob_size >= 3")
    g = random_triangulation(blob_size, seed)
    for i in range(1, blobs):
        g = merge_at_vertex(g, random_triangulation(blob_size, seed + i))
    return g


# -- weight schemes ------------------------------------------------------


def unit_weights(n: int) -> list[int]:
    return [1] * n


def proper_random_weights(n: int, seed: int) -> list[int]:
    """Random integer weights guaranteed 1/12-proper (unit for small n)."""
    if n < 24:
        return unit_weights(n)
    rng = random.Random(seed)
    return [rng.randint(8, 16) for _ in range(n)]


def heavy_vertex_weights(n: int, seed: int) -> list[int]:
    """Adversarial scheme: one vertex holds more than 1/12 of the total."""
    rng = random.Random(seed)
    w = [rng.randint(1, 4) for _ in range(n)]
    v = rng.randrange(n)
    w[v] = sum(w) - w[v]
    return w


WEIGHT_SCHEMES = {
    "unit": lambda n, seed: unit_weights(n),
    "random-proper": proper_random_weights,
    "adversarial-heavy-vertex": heavy_vertex_weights,
}
