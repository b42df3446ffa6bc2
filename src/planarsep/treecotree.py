"""Spanning trees, cotrees, fundamental cycles and cuts, subtree sums.

The tree/cotree pair is the duality engine: T spans the primal graph iff
T* = E \\ T spans the dual, and the fundamental cycle of a non-tree edge
equals the fundamental cut of its dual edge.  The dual tree is rooted at
the face of R, the tree root's first rotation dart, where the contour of
T starts; the message-passing engine roots it there too, with no
election, so both produce identical rooted structures.  Both engines read
T* off that contour (Euler tour; Tarjan and Vishkin 1985): `cotree`
walks it once, with a stack of the cotree intervals open at each
position, and lists the faces in contour pre-order.  Faces are named by
their numbers (see embedding.py), so the dual tree is a set of flat lists
indexed by face number; the dual graph and the cotree edge set are
computed only when read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Hashable, Iterable, Mapping, MutableMapping, NoReturn, Sequence

from .embedding import DualGraph, EdgeId, EmbeddedPlanarGraph, build_dual
from .errors import (
    EdgeInTree,
    EdgeNotInCotree,
    InvalidPartition,
    NoFace,
    NotSpanningTree,
    UnknownRoot,
)


@dataclass
class SpanningTree:
    """A rooted spanning tree.  T is its edges and its root: parent,
    parent_edge and depth are its builder's orientation, which neither
    engine trusts (tree_path checks every step it takes on parent_edge
    against edges; the distributed engine orients T itself)."""

    root: int
    parent: list[int | None]
    parent_edge: list[EdgeId | None]
    depth: list[int]
    edges: set[EdgeId]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return kids

    def height(self) -> int:
        return max(self.depth)


def _bfs_layers(
    g: EmbeddedPlanarGraph, root: int, inside: Sequence[bool] | None = None
) -> list[int]:
    """Hop distance from root, moving only through vertices v with
    inside[v] (every vertex when inside is None); -1 where unreached."""
    head, lo = g.dart_table.head, g.dart_table.lo
    depth = [-1] * g.n
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in head[lo[v]:lo[v + 1]]:
                if depth[u] == -1 and (inside is None or inside[u]):
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    return depth


def _layered_tree(
    g: EmbeddedPlanarGraph, root: int, inside: Sequence[bool] | None = None
) -> SpanningTree:
    """The BFS tree both engines share: every reached vertex hangs from its
    smallest-id neighbour one layer up, over the smallest edge to it (its
    first dart there, as ids ascend by head, then copy)."""
    depth = _bfs_layers(g, root, inside)
    head, lo, edge = g.dart_table.head, g.dart_table.lo, g.dart_table.edge
    parent: list[int | None] = [None] * g.n
    parent_edge: list[EdgeId | None] = [None] * g.n
    edges: set[EdgeId] = set()
    for v in range(g.n):
        if depth[v] > 0:
            d = next(d for d in range(lo[v], lo[v + 1]) if depth[head[d]] == depth[v] - 1)
            parent[v], parent_edge[v] = head[d], edge(d)
            edges.add(parent_edge[v])
    return SpanningTree(root=root, parent=parent, parent_edge=parent_edge, depth=depth, edges=edges)


def bfs_tree(g: EmbeddedPlanarGraph, root: int) -> SpanningTree:
    """BFS layers with the smallest-id parent on ties."""
    if not (0 <= root < g.n):
        raise UnknownRoot(f"root {root} not in 0..{g.n - 1}")
    return _layered_tree(g, root)


def part_members(part_of: Sequence[int]) -> dict[int, list[int]]:
    """The vertices of every part: parts in ascending id, members ascending."""
    parts: dict[int, list[int]] = {}
    for v, pid in enumerate(part_of):
        parts.setdefault(pid, []).append(v)
    return dict(sorted(parts.items()))


def part_bfs_trees(
    g: EmbeddedPlanarGraph, part_of: Sequence[int]
) -> dict[int, SpanningTree]:
    """Per-part BFS trees in global ids, rooted at each part's minimum id.

    A tree lists depth -1 and no parent for the vertices of other parts.
    This is the partition check: InvalidPartition unless part_of names a
    part for each vertex of g and every part induces a connected subgraph.
    """
    if len(part_of) != g.n:
        raise InvalidPartition(f"partition covers {len(part_of)} of {g.n} vertices")
    trees: dict[int, SpanningTree] = {}
    for pid, members in part_members(part_of).items():
        tree = _layered_tree(g, members[0], [p == pid for p in part_of])
        if any(tree.depth[v] == -1 for v in members):
            raise InvalidPartition(f"part {pid} induces a disconnected subgraph")
        trees[pid] = tree
    return trees


def require_part_tree(
    g: EmbeddedPlanarGraph, tree: SpanningTree, members: Sequence[int]
) -> dict[int, EdgeId]:
    """NotSpanningTree unless tree's edges are edges of g that join exactly
    `members` into one tree containing tree.root.  Walks the tree's own
    edges from tree.root, each looked up in g.dart_table, and returns the
    orientation the walk finds: every member but the root maps to its edge
    towards the root.  tree.parent, parent_edge and depth are not read."""
    inside = set(members)
    index = g.dart_table.index
    adj: dict[int, list[tuple[int, EdgeId]]] = {v: [] for v in inside}
    for e in tree.edges:
        a, b, _copy = e
        if a < b and a in inside and b in inside and e in index:  # e is the dart a -> b
            adj[a].append((b, e))
            adj[b].append((a, e))
    up: dict[int, EdgeId] = {}
    reached = {tree.root} & inside
    stack = list(reached)
    while stack:
        for u, e in adj[stack.pop()]:
            if u not in reached:
                reached.add(u)
                up[u] = e
                stack.append(u)
    # connected through its own edges, with no edge to spare
    if reached != inside or len(tree.edges) != len(members) - 1:
        raise NotSpanningTree(f"tree rooted at {tree.root} does not span its part")
    return up


def diameter_estimate(g: EmbeddedPlanarGraph) -> int:
    """Double-sweep eccentricity; exact on the suite's graph families.

    Each sweep continues from the smallest id at the largest depth.
    """

    def sweep(src: int) -> tuple[int, int]:
        depth = _bfs_layers(g, src)
        far_d = max(depth)
        return depth.index(far_d), far_d

    a, _ = sweep(0)
    b, da = sweep(a)
    _, db = sweep(b)
    return max(da, db)


def tree_from_edges(g: EmbeddedPlanarGraph, edges: Iterable[EdgeId], root: int) -> SpanningTree:
    """Root an explicit spanning edge set; raises NotSpanningTree if invalid."""
    edges = set(edges)
    all_edges = set(g.edges())
    if not edges <= all_edges:
        raise NotSpanningTree(f"unknown edges {sorted(edges - all_edges)[:3]}")
    if len(edges) != g.n - 1:
        raise NotSpanningTree(f"{len(edges)} edges cannot span {g.n} vertices")
    adj: list[list[tuple[int, EdgeId]]] = [[] for _ in range(g.n)]
    for (a, b, c) in edges:
        adj[a].append((b, (a, b, c)))
        adj[b].append((a, (a, b, c)))
    parent: list[int | None] = [None] * g.n
    parent_edge: list[EdgeId | None] = [None] * g.n
    depth = [-1] * g.n
    depth[root] = 0
    q = deque([root])
    seen = 1
    while q:
        v = q.popleft()
        for u, e in adj[v]:
            if depth[u] == -1:
                depth[u] = depth[v] + 1
                parent[u] = v
                parent_edge[u] = e
                seen += 1
                q.append(u)
    if seen != g.n:
        raise NotSpanningTree("edge set does not reach every vertex")
    return SpanningTree(root=root, parent=parent, parent_edge=parent_edge, depth=depth, edges=edges)


@dataclass
class TreeCotreePair:
    """T and its cotree T*, the dual tree rooted at the face of R, the tree
    root's first rotation dart.

    The dual_* lists are indexed by face number; the root's parent and
    parent edge are None.  dual_order is the contour pre-order: the root
    first, then the faces as the contour of T enters them, so every face
    comes after its parent and every dual subtree is one contiguous run
    that starts at its root.  `dual` and `cotree_edges` are computed the
    first time they are read (the separator reads neither) and then kept.
    """

    graph: EmbeddedPlanarGraph
    tree: SpanningTree
    dual_root: int
    dual_order: list[int]
    dual_parent: list[int | None]
    dual_parent_edge: list[EdgeId | None]
    dual_depth: list[int]

    @cached_property
    def dual(self) -> DualGraph:
        return build_dual(self.graph)

    @cached_property
    def cotree_edges(self) -> set[EdgeId]:
        # T* spans the dual, so every cotree edge is some face's parent edge
        return {e for e in self.dual_parent_edge if e is not None}

    def path(self, u: int, v: int) -> list[int]:
        """The u-to-v path in T: tree_path, or, where tree.parent_edge does
        not orient T's edges, tree_path on the orientation tree_from_edges
        gives them from the root."""
        return tree_path(self.tree, u, v) or tree_path(
            tree_from_edges(self.graph, self.tree.edges, self.tree.root), u, v
        )


def cotree(g: EmbeddedPlanarGraph, tree: SpanningTree) -> TreeCotreePair:
    """T* = E \\ T, rooted at the face of R (the tree root's first rotation
    dart), with parent pointers, read off one walk of the contour of T.

    The contour (Euler tour) starts at R; a tree dart d is followed by
    succ(rev(d)), any other dart by succ(d), and a position lies on the
    face of its dart.  Every cotree edge spans the interval (i, j] between
    its two darts' positions, and the intervals nest: the first dart of an
    edge opens its interval and lies outside it, the second closes it and
    lies inside.  So a stack of open intervals gives each face its dual
    parent edge (the innermost interval, opened just before the face is
    first met), its parent (the face of that edge's opening dart) and its
    depth (the stack height).

    T is a spanning tree exactly when its n - 1 edges are edges of g and
    the walk returns to R after all 2m darts (Euler's formula on T's own
    embedding).  Only when that fails is the reason looked for:
    NotSpanningTree names the first bridge missing from T in sorted edge
    order, or says that the cotree does not span the dual.  NoFace on an
    edgeless graph, whose dual tree has no node to root.
    """
    if not g.faces:
        raise NoFace("an edgeless graph has no face to root the dual tree at")
    if not 0 <= tree.root < g.n:
        raise NotSpanningTree(f"tree root {tree.root} is not a vertex of the graph")
    table = g.dart_table
    index, rev, triple = table.index, table.rev, table.triple
    face = g.dart_face
    # nxt is the contour successor, in_tree the tree darts by id
    nxt = table.succ[:]
    in_tree = [False] * len(table)
    for e in tree.edges:
        d = index.get(e)
        if d is None or e[0] > e[1]:  # an edge is named by its dart a -> b, a < b
            raise NotSpanningTree("tree is not a spanning tree of the graph")
        r = rev[d]
        in_tree[d] = in_tree[r] = True
        nxt[d], nxt[r] = nxt[r], nxt[d]
    if len(tree.edges) != g.n - 1:
        raise NotSpanningTree("tree is not a spanning tree of the graph")

    n_faces = len(g.faces)
    parent: list[int | None] = [None] * n_faces
    parent_edge: list[EdgeId | None] = [None] * n_faces
    depth = [0] * n_faces
    start = table.rot[tree.root][0]  # R
    order = [face[start]]
    stack: list[int] = []  # opening darts of the open intervals, innermost last
    d = start
    # the walk is a permutation of the darts, so it is back at R by step 2m
    for steps in range(1, len(table) + 1):
        if not in_tree[d]:
            r = rev[d]
            if stack and stack[-1] == r:
                stack.pop()
            else:
                stack.append(d)
                # the face inside the interval is first met at the next position
                f = face[r]
                parent[f] = face[d]
                a, b, c = triple[d]
                parent_edge[f] = (a, b, c) if a < b else (b, a, c)
                depth[f] = len(stack)
                order.append(f)
        d = nxt[d]
        if d == start:
            break
    if steps < len(table):
        _not_spanning(g, in_tree)
    return TreeCotreePair(
        graph=g,
        tree=tree,
        dual_root=order[0],
        dual_order=order,
        dual_parent=parent,
        dual_parent_edge=parent_edge,
        dual_depth=depth,
    )


def _not_spanning(g: EmbeddedPlanarGraph, in_tree: Sequence[bool]) -> NoReturn:
    """Why n - 1 edges of g do not form a spanning tree: a bridge left out
    of T (the first in sorted edge order; a bridge lies in every spanning
    tree, and its dual edge is a self-loop), or else a cycle in T, which
    cuts the cotree apart."""
    face, rev = g.dart_face, g.dart_table.rev
    for d, (a, b, c) in enumerate(g.dart_table.triple):
        if a < b and not in_tree[d] and face[d] == face[rev[d]]:
            raise NotSpanningTree(f"bridge {(a, b, c)} missing from the tree")
    raise NotSpanningTree("cotree does not span the dual graph")


def tree_path(tree: SpanningTree, u: int, v: int) -> list[int] | None:
    """The unique u-to-v path in T along tree.parent_edge: up from u to the
    vertex without one, then up from v to the first vertex on that walk.
    None where parent_edge does not orient T's edges: a step's edge is not
    in tree.edges or does not hold the vertex, a walk runs past n steps,
    or v's walk misses u's.  The path is the same from any root."""
    edges, up = tree.edges, tree.parent_edge

    def walk(x: int, stop) -> list[int] | None:
        out = [x]
        while x not in stop and up[x] is not None:
            e = up[x]
            if e not in edges or x not in e[:2] or len(out) > len(up):
                return None
            x = e[0] + e[1] - x
            out.append(x)
        return out

    above = walk(u, ())
    at = {x: i for i, x in enumerate(above or ())}
    below = walk(v, at)
    if not at or below is None or below[-1] not in at:
        return None
    return above[: at[below[-1]]] + below[::-1]


def path_edges(tree: SpanningTree, path: Sequence[int]) -> list[EdgeId]:
    """The edges of tree.edges between consecutive vertices of path, in path
    order; a tree has at most one edge between two vertices.  KeyError
    where two consecutive vertices share no tree edge."""
    between = {(a, b): (a, b, c) for a, b, c in tree.edges}
    return [between[min(x, y), max(x, y)] for x, y in zip(path, path[1:])]


def fundamental_cycle(pair: TreeCotreePair, e: EdgeId) -> tuple[list[int], set[EdgeId]]:
    """Vertex path between e's endpoints plus the edge set of C(T, e)."""
    if e in pair.tree.edges:
        raise EdgeInTree(f"{e} is a tree edge")
    a, b, _ = e
    path = pair.path(a, b)
    return path, {e, *path_edges(pair.tree, path)}


def fundamental_cut(pair: TreeCotreePair, e_star: EdgeId) -> set[EdgeId]:
    """Primal edges crossing the two components of T* minus e_star."""
    below = interior_faces(pair, e_star)
    cut: set[EdgeId] = set()
    for de in pair.dual.dual_edges:
        if (de.face_a in below) != (de.face_b in below):
            cut.add(de.primal)
    return cut


def interior_faces(pair: TreeCotreePair, e_star: EdgeId) -> set[int]:
    """Numbers of the faces in the dual subtree under e_star's child endpoint."""
    if e_star not in pair.cotree_edges:
        raise EdgeNotInCotree(f"{e_star} is not a cotree edge")
    child = pair.dual_parent_edge.index(e_star)
    below = {child}
    # dual_order lists every face of the subtree after its root
    for f in pair.dual_order[pair.dual_order.index(child) + 1 :]:
        if pair.dual_parent[f] in below:
            below.add(f)
    return below


def top_down(
    children: Mapping[Hashable, Iterable[Hashable]], root: Hashable
) -> tuple[dict[Hashable, Hashable | None], dict[Hashable, int]]:
    """Parent and depth of every node under root, in BFS order."""
    parent: dict[Hashable, Hashable | None] = {root: None}
    depth = {root: 0}
    order = [root]
    for x in order:
        for c in children.get(x, ()):
            parent[c] = x
            depth[c] = depth[x] + 1
            order.append(c)
    return parent, depth


def sum_up(
    order: Sequence[Hashable],
    parent: Mapping[Hashable, Hashable | None],
    sums: MutableMapping[Hashable, int],
) -> MutableMapping[Hashable, int]:
    """Subtree sums in place: sums starts as each node's own value, and one
    pass back over order (the root first, every node after its parent)
    adds each node's sum into its parent's."""
    for x in islice(reversed(order), len(order) - 1):
        sums[parent[x]] += sums[x]
    return sums


def subtree_sums(
    children: Mapping[Hashable, Iterable[Hashable]],
    root: Hashable,
    values: Mapping[Hashable, int],
) -> dict[Hashable, int]:
    """sum(u) over u's subtree, for any tree given as a children map."""
    parent, _ = top_down(children, root)
    return sum_up(list(parent), parent, {x: values[x] for x in parent})


def dual_subtree_sums(pair: TreeCotreePair, face_values: Sequence[int]) -> list[int]:
    """Subtree sums of the dual tree, indexed by face number."""
    return sum_up(pair.dual_order, pair.dual_parent, list(face_values))


def dot_export(pair: TreeCotreePair, path: Iterable[int] = ()) -> str:
    """DOT rendering of the primal graph plus its dual tree, for debugging.

    Vertices of `path` (a separator, typically) are doubled in peripheries
    and its tree edges drawn bold.
    """
    g = pair.graph
    on_path = list(path)
    marked = set(path_edges(pair.tree, on_path))
    out = ["graph treecotree {"]
    for v in range(g.n):
        peri = 2 if v in set(on_path) else 1
        out.append(f'  v{v} [label="{v}", peripheries={peri}];')
    for e in g.edges():
        a, b, c = e
        kind = "separator" if e in marked else (
            "tree" if e in pair.tree.edges else "cotree"
        )
        style = "dashed" if e in g.virtual_edges else (
            "bold" if e in marked else "solid"
        )
        out.append(f'  v{a} -- v{b} [kind="{kind}", style="{style}", copy="{c}"];')
    for i, face in enumerate(g.faces):
        fid = face.id
        out.append(f'  f{i} [label="{fid.tail},{fid.head},{fid.copy}", shape=box];')
    for f, p in enumerate(pair.dual_parent):
        if p is not None:
            out.append(f'  f{f} -- f{p} [kind="dualtree", style="dotted"];')
    out.append("}")
    return "\n".join(out) + "\n"
