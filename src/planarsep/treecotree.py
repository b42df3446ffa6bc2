"""Spanning trees, cotrees, fundamental cycles and cuts, subtree sums.

The tree/cotree pair is the duality engine: T spans the primal graph iff
T* = E \\ T spans the dual, and the fundamental cycle of a non-tree edge
equals the fundamental cut of its dual edge.  The dual tree is rooted at
the face of R, the tree root's first rotation dart, where the contour of
T starts; the message-passing engine roots it there too, with no
election, so both produce identical rooted structures.  Faces are named
by their numbers (see embedding.py), so the dual tree is a set of flat
lists indexed by face number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Mapping, MutableMapping, Sequence

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
) -> None:
    """NotSpanningTree unless tree's edges are edges of g that join exactly
    `members` into one tree containing tree.root.  Walks the tree's own
    edges, each looked up in g.dart_table."""
    inside = set(members)
    index = g.dart_table.index
    adj: dict[int, list[int]] = {v: [] for v in inside}
    for e in tree.edges:
        a, b, _copy = e
        if a < b and a in inside and b in inside and e in index:  # e is the dart a -> b
            adj[a].append(b)
            adj[b].append(a)
    reached = {tree.root} & inside
    stack = list(reached)
    while stack:
        for u in adj[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    # connected through its own edges, with no edge to spare
    if reached != inside or len(tree.edges) != len(members) - 1:
        raise NotSpanningTree(f"tree rooted at {tree.root} does not span its part")


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
    parent edge are None.
    """

    graph: EmbeddedPlanarGraph
    tree: SpanningTree
    cotree_edges: set[EdgeId]
    dual: DualGraph
    dual_root: int
    dual_order: list[int]  # BFS order: the root first, every face after its parent
    dual_parent: list[int | None]
    dual_parent_edge: list[EdgeId | None]
    dual_depth: list[int]


def cotree(g: EmbeddedPlanarGraph, tree: SpanningTree) -> TreeCotreePair:
    """T* = E \\ T, rooted at the face of R (the tree root's first rotation
    dart), with parent pointers.

    Everything is read off the dual's edges, which come in sorted edge
    order: the cotree is the dual edges whose primal is not in T, so the
    adjacency lists (and the first bridge reported) follow that order.
    NoFace on an edgeless graph, whose dual tree has no node to root.
    """
    if not g.faces:
        raise NoFace("an edgeless graph has no face to root the dual tree at")
    dual = build_dual(g)
    tree_edges = tree.edges
    in_tree = 0
    bridge = None
    co_edge: list[EdgeId] = []
    co_ends: list[int] = []  # face_a ^ face_b: either end gives the other
    adj: list[list[int]] = [[] for _ in dual.nodes]  # cotree edge indices
    for e, fa, fb in dual.dual_edges:
        if e in tree_edges:
            in_tree += 1
        elif fa == fb:
            if bridge is None:
                bridge = e
        else:
            adj[fa].append(len(co_edge))
            adj[fb].append(len(co_edge))
            co_edge.append(e)
            co_ends.append(fa ^ fb)
    # primal edges are distinct, so T lies in E iff all |T| edges are met
    if in_tree != len(tree_edges) or len(tree_edges) != g.n - 1:
        raise NotSpanningTree("tree is not a spanning tree of the graph")
    if bridge is not None:
        # a bridge can never be a cotree edge: bridges lie in every
        # spanning tree, so e in T* means the tree was not spanning
        raise NotSpanningTree(f"bridge {bridge} missing from the tree")

    root = g.dart_face[g.dart_table.rot[tree.root][0]]
    parent: list[int | None] = [None] * len(dual.nodes)
    parent_edge: list[EdgeId | None] = [None] * len(dual.nodes)
    depth = [-1] * len(dual.nodes)
    depth[root] = 0
    order = [root]
    for f in order:
        below = depth[f] + 1
        for k in adj[f]:
            h = co_ends[k] ^ f
            if depth[h] < 0:
                depth[h] = below
                parent[h] = f
                parent_edge[h] = co_edge[k]
                order.append(h)
    if len(order) != len(dual.nodes):
        raise NotSpanningTree("cotree does not span the dual graph")
    return TreeCotreePair(
        graph=g,
        tree=tree,
        cotree_edges=set(co_edge),
        dual=dual,
        dual_root=root,
        dual_order=order,
        dual_parent=parent,
        dual_parent_edge=parent_edge,
        dual_depth=depth,
    )


def tree_path(tree: SpanningTree, u: int, v: int) -> list[int]:
    """The unique u-to-v path in the tree, via upward walks to the LCA."""
    pu, pv = [u], [v]
    a, b = u, v
    while tree.depth[a] > tree.depth[b]:
        a = tree.parent[a]
        pu.append(a)
    while tree.depth[b] > tree.depth[a]:
        b = tree.parent[b]
        pv.append(b)
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
        pu.append(a)
        pv.append(b)
    return pu + pv[-2::-1]


def fundamental_cycle(pair: TreeCotreePair, e: EdgeId) -> tuple[list[int], set[EdgeId]]:
    """Vertex path between e's endpoints plus the edge set of C(T, e)."""
    if e in pair.tree.edges:
        raise EdgeInTree(f"{e} is a tree edge")
    a, b, _ = e
    path = tree_path(pair.tree, a, b)
    cycle_edges = {e}
    for x, y in zip(path, path[1:]):
        cycle_edges.add(_tree_edge_between(pair.tree, x, y))
    return path, cycle_edges


def _tree_edge_between(tree: SpanningTree, x: int, y: int) -> EdgeId:
    if tree.parent[x] == y:
        return tree.parent_edge[x]
    if tree.parent[y] == x:
        return tree.parent_edge[y]
    raise AssertionError(f"{x},{y} not adjacent in tree")


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
    # BFS order lists every face of the subtree after its root
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
    path_edges = {
        _tree_edge_between(pair.tree, x, y) for x, y in zip(on_path, on_path[1:])
    }
    out = ["graph treecotree {"]
    for v in range(g.n):
        peri = 2 if v in set(on_path) else 1
        out.append(f'  v{v} [label="{v}", peripheries={peri}];')
    for e in g.edges():
        a, b, c = e
        kind = "separator" if e in path_edges else (
            "tree" if e in pair.tree.edges else "cotree"
        )
        style = "dashed" if e in g.virtual_edges else (
            "bold" if e in path_edges else "solid"
        )
        out.append(f'  v{a} -- v{b} [kind="{kind}", style="{style}", copy="{c}"];')
    for i, face in enumerate(g.faces):
        fid = face.id
        out.append(f'  f{i} [label="{fid.tail},{fid.head},{fid.copy}", shape=box];')
    for f in pair.dual_order[1:]:
        out.append(f'  f{f} -- f{pair.dual_parent[f]} [kind="dualtree", style="dotted"];')
    out.append("}")
    return "\n".join(out) + "\n"
