"""Spanning trees, cotrees, fundamental cycles and cuts, subtree sums.

The tree/cotree pair is the duality engine: T spans the primal graph iff
T* = E \\ T spans the dual, and the fundamental cycle of a non-tree edge
equals the fundamental cut of its dual edge.  The dual tree is always
rooted at the maximum face id, matching the election rule used by the
message-passing engine so both produce identical rooted structures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .embedding import DualGraph, EdgeId, EmbeddedPlanarGraph, FaceId, build_dual
from .errors import (
    EdgeInTree,
    EdgeNotInCotree,
    InvalidPartition,
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
    depth = [-1] * g.n
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for d in g.rotation[v]:
                u = d.head
                if depth[u] == -1 and (inside is None or inside[u]):
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    return depth


def _layered_tree(
    g: EmbeddedPlanarGraph, root: int, inside: Sequence[bool] | None = None
) -> SpanningTree:
    """The BFS tree both engines share: every reached vertex hangs from its
    smallest-id neighbour one layer up, over the smallest edge to it."""
    depth = _bfs_layers(g, root, inside)
    parent: list[int | None] = [None] * g.n
    parent_edge: list[EdgeId | None] = [None] * g.n
    edges: set[EdgeId] = set()
    for v in range(g.n):
        if depth[v] > 0:
            parent[v], parent_edge[v] = min(
                (d.head, d.edge()) for d in g.rotation[v] if depth[d.head] == depth[v] - 1
            )
            edges.add(parent_edge[v])
    return SpanningTree(root=root, parent=parent, parent_edge=parent_edge, depth=depth, edges=edges)


def bfs_tree(g: EmbeddedPlanarGraph, root: int) -> SpanningTree:
    """BFS layers with the smallest-id parent on ties."""
    if not (0 <= root < g.n):
        raise UnknownRoot(f"root {root} not in 0..{g.n - 1}")
    return _layered_tree(g, root)


def part_bfs_trees(
    g: EmbeddedPlanarGraph, part_of: Sequence[int]
) -> dict[int, SpanningTree]:
    """Per-part BFS trees in global ids, rooted at each part's minimum id.

    A tree lists depth -1 and no parent for the vertices of other parts.
    """
    parts: dict[int, list[int]] = {}
    for v, pid in enumerate(part_of):
        parts.setdefault(pid, []).append(v)
    trees: dict[int, SpanningTree] = {}
    for pid, members in sorted(parts.items()):
        tree = _layered_tree(g, members[0], [p == pid for p in part_of])
        if any(tree.depth[v] == -1 for v in members):
            raise InvalidPartition(f"part {pid} induces a disconnected subgraph")
        trees[pid] = tree
    return trees


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
    graph: EmbeddedPlanarGraph
    tree: SpanningTree
    cotree_edges: set[EdgeId]
    dual: DualGraph
    dual_root: FaceId
    dual_parent: dict[FaceId, FaceId | None]
    dual_parent_edge: dict[FaceId, EdgeId | None]
    dual_depth: dict[FaceId, int]
    dual_children: dict[FaceId, list[tuple[EdgeId, FaceId]]] = field(repr=False)


def cotree(g: EmbeddedPlanarGraph, tree: SpanningTree) -> TreeCotreePair:
    """T* = E \\ T, rooted at the maximum face id, with parent pointers."""
    all_edges = set(g.edges())
    if not tree.edges <= all_edges or len(tree.edges) != g.n - 1:
        raise NotSpanningTree("tree is not a spanning tree of the graph")
    co = all_edges - tree.edges
    dual = build_dual(g)

    adj: dict[FaceId, list[tuple[EdgeId, FaceId]]] = {fid: [] for fid in dual.nodes}
    for e in sorted(co):
        fa, fb = g.dual_endpoints(e)
        if fa == fb:
            # a bridge can never be a cotree edge: bridges lie in every
            # spanning tree, so e in T* means the tree was not spanning
            raise NotSpanningTree(f"bridge {e} missing from the tree")
        adj[fa].append((e, fb))
        adj[fb].append((e, fa))

    root = max(dual.nodes)
    parent: dict[FaceId, FaceId | None] = {root: None}
    parent_edge: dict[FaceId, EdgeId | None] = {root: None}
    dual_depth: dict[FaceId, int] = {root: 0}
    children: dict[FaceId, list[tuple[EdgeId, FaceId]]] = {fid: [] for fid in dual.nodes}
    q = deque([root])
    while q:
        f = q.popleft()
        for e, h in adj[f]:
            if h not in parent:
                parent[h] = f
                parent_edge[h] = e
                dual_depth[h] = dual_depth[f] + 1
                children[f].append((e, h))
                q.append(h)
    if len(parent) != len(dual.nodes):
        raise NotSpanningTree("cotree does not span the dual graph")
    for f in children:
        children[f].sort()
    return TreeCotreePair(
        graph=g,
        tree=tree,
        cotree_edges=co,
        dual=dual,
        dual_root=root,
        dual_parent=parent,
        dual_parent_edge=parent_edge,
        dual_depth=dual_depth,
        dual_children=children,
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


def interior_faces(pair: TreeCotreePair, e_star: EdgeId) -> set[FaceId]:
    """Faces in the dual subtree under e_star's child endpoint."""
    if e_star not in pair.cotree_edges:
        raise EdgeNotInCotree(f"{e_star} is not a cotree edge")
    fa, fb = pair.graph.dual_endpoints(e_star)
    child = fa if pair.dual_parent_edge.get(fa) == e_star else fb
    if pair.dual_parent_edge.get(child) != e_star:
        raise EdgeNotInCotree(f"{e_star} is not a dual tree edge")
    below = set()
    stack = [child]
    while stack:
        f = stack.pop()
        below.add(f)
        for _, h in pair.dual_children[f]:
            stack.append(h)
    return below


def subtree_sums(
    children: Mapping[Hashable, Iterable[Hashable]],
    root: Hashable,
    values: Mapping[Hashable, int],
) -> dict[Hashable, int]:
    """sum(u) over u's subtree, iteratively (works for vertex and face trees)."""
    sums: dict[Hashable, int] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            total = values[node]
            for c in children.get(node, ()):
                total += sums[c]
            sums[node] = total
        else:
            stack.append((node, True))
            for c in children.get(node, ()):
                stack.append((c, False))
    return sums


def dual_subtree_sums(pair: TreeCotreePair, face_values: Mapping[FaceId, int]) -> dict[FaceId, int]:
    kids = {f: [h for _, h in pair.dual_children[f]] for f in pair.dual_children}
    return subtree_sums(kids, pair.dual_root, face_values)


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
    for i, fid in enumerate(pair.dual.nodes):
        out.append(f'  f{i} [label="{fid.tail},{fid.head},{fid.copy}", shape=box];')
    index = {fid: i for i, fid in enumerate(pair.dual.nodes)}
    for f, parent in pair.dual_parent.items():
        if parent is not None:
            out.append(f'  f{index[f]} -- f{index[parent]} [kind="dualtree", style="dotted"];')
    out.append("}")
    return "\n".join(out) + "\n"
