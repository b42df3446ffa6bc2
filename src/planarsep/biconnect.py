"""Bi-connectivity augmentation with planarity-preserving virtual edges.

biconnect first asks `biconnected`, one lowpoint pass over neighbour ids
(Tarjan 1972), and returns an input without a cut vertex as it is.  Only
an input with a cut vertex gets the edge-keyed block map of `edge_blocks`
and the corner pass below.

At each cut vertex v, consecutive darts in v's rotation that belong to
different blocks span a corner of some face; bridging that corner with an
edge between the two neighbors of v merges the blocks without leaving the
face.  A union-find over blocks skips corners whose blocks were already
merged earlier in the pass, so e.g. two triangles sharing a vertex get a
single virtual edge.

One pass suffices.  Adding edges never creates a cut vertex, so a cut
vertex of the result would be a cut vertex v of the input.  Blocks meet
at v only through v in the block-cut tree, so two blocks at v share a
union-find class only after a link made at v, and each link joins two of
v's neighbours by an edge that avoids v.  Going round v's rotation, every
consecutive pair of neighbours is then linked, equal, or joined through
earlier links at v, so removing v leaves the result connected.  biconnect
still checks the result with `biconnected`.
"""

from __future__ import annotations

from typing import Sequence

from .embedding import Dart, EdgeId, EmbeddedPlanarGraph, build_embedding, next_copy


def biconnected(adj: Sequence[Sequence[int]]) -> bool:
    """True iff the graph with neighbour lists adj (at least one vertex) is
    connected and has no cut vertex: one iterative lowpoint pass from
    vertex 0.

    Edges back to the DFS parent need no skip: they lower low[v] to
    disc[p] at most, which the cut-vertex test low[v] >= disc[p] allows.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    timer = 1
    root_children = 0
    stack = [(0, -1, iter(adj[0]))]  # vertex, DFS parent, neighbours left
    while stack:
        v, p, rest = stack[-1]
        for u in rest:
            if disc[u] == -1:
                disc[u] = low[u] = timer
                timer += 1
                stack.append((u, v, iter(adj[u])))
                break
            if disc[u] < low[v]:
                low[v] = disc[u]
        else:
            stack.pop()
            if p == 0:
                root_children += 1
            elif p != -1:
                if low[v] >= disc[p]:
                    return False  # p separates v's subtree from the root
                if low[v] < low[p]:
                    low[p] = low[v]
    return timer == n and root_children <= 1


def edge_blocks(g: EmbeddedPlanarGraph) -> dict[EdgeId, int]:
    """Assign each edge a biconnected-component index (iterative Tarjan)."""
    disc = [-1] * g.n
    low = [0] * g.n
    block_of: dict[EdgeId, int] = {}
    n_blocks = 0
    timer = 0

    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        estack: list[EdgeId] = []
        frames: list[list] = [[root, None, 0]]  # vertex, parent edge, rotation index
        while frames:
            frame = frames[-1]
            v, pe, i = frame
            if i < len(g.rotation[v]):
                frame[2] += 1
                d = g.rotation[v][i]
                u, e = d.head, d.edge()
                if e == pe:
                    continue
                if disc[u] == -1:
                    estack.append(e)
                    disc[u] = low[u] = timer
                    timer += 1
                    frames.append([u, e, 0])
                elif disc[u] < disc[v]:
                    estack.append(e)
                    low[v] = min(low[v], disc[u])
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        blk = n_blocks
                        n_blocks += 1
                        while estack:
                            e = estack.pop()
                            block_of[e] = blk
                            if e == pe:
                                break
    return block_of


def _cut_vertices(n: int, block_of: dict[EdgeId, int]) -> list[int]:
    """The vertices that lie in more than one block, ascending."""
    blocks_at: list[set[int]] = [set() for _ in range(n)]
    for (a, b, _c), blk in block_of.items():
        blocks_at[a].add(blk)
        blocks_at[b].add(blk)
    return [v for v in range(n) if len(blocks_at[v]) > 1]


def articulation_count(g: EmbeddedPlanarGraph) -> int:
    """Number of cut vertices, from the block decomposition."""
    return len(_cut_vertices(g.n, edge_blocks(g)))


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _augment_once(g: EmbeddedPlanarGraph) -> EmbeddedPlanarGraph | None:
    """One corner pass; returns the augmented graph or None if no cut vertex."""
    block_of = edge_blocks(g)
    cut_vertices = _cut_vertices(g.n, block_of)
    if not cut_vertices:
        return None

    uf = _UnionFind()
    rotation = [list(r) for r in g.rotation]
    virtual = set(g.virtual_edges)
    for v in cut_vertices:
        rot = list(rotation[v])  # may already hold bridges from earlier vertices
        k = len(rot)
        for i in range(k):
            d1, d2 = rot[i], rot[(i + 1) % k]
            b1, b2 = uf.find(block_of[d1.edge()]), uf.find(block_of[d2.edge()])
            if b1 == b2:
                continue
            h1, h2 = d1.head, d2.head
            if h1 == h2:
                # parallel edges to one neighbor are already 2-connected
                continue
            c = next_copy(rotation[h1], h2)  # counts bridges added so far
            d_h2h1 = Dart(h2, h1, c)
            d_h1h2 = Dart(h1, h2, c)
            # corner face runs (h1 -> v), (v -> h2); the bridge cuts it off:
            # at h2 the new dart follows (h2 -> v), at h1 it precedes (h1 -> v)
            rotation[h2].insert(rotation[h2].index(d2.reverse()) + 1, d_h2h1)
            rotation[h1].insert(rotation[h1].index(d1.reverse()), d_h1h2)
            virtual.add(d_h1h2.edge())
            uf.union(b1, b2)
            block_of[d_h1h2.edge()] = uf.find(b1)

    return build_embedding(
        g.n,
        rotation,
        g.vertex_weight,
        infinite_face_hint=None,
        virtual_edges=virtual,
    )


def _neighbour_ids(g: EmbeddedPlanarGraph) -> list[list[int]]:
    """Every vertex's neighbour ids, sliced off the dart table's heads (in
    dart order, not rotation order; the lowpoint answer does not depend on
    the order)."""
    head, lo = g.dart_table.head, g.dart_table.lo
    return [head[lo[v]:lo[v + 1]] for v in range(g.n)]


def biconnect(g: EmbeddedPlanarGraph) -> EmbeddedPlanarGraph:
    """Return g augmented with virtual edges until bi-connected.

    Planarity is preserved (every bridge lives inside one face corner),
    weights are unchanged, and already bi-connected graphs come back as-is.
    """
    if biconnected(_neighbour_ids(g)):
        return g
    out = _augment_once(g)
    if out is None or not biconnected(_neighbour_ids(out)):
        raise AssertionError("corner pass left a cut vertex")
    return out
