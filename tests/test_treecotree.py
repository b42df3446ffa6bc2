import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planarsep import (
    bfs_tree,
    biconnect,
    build_dual,
    build_embedding,
    compute_separator,
    cotree,
    dual_subtree_sums,
    fundamental_cut,
    fundamental_cycle,
    interior_faces,
    subtree_sums,
    tree_from_edges,
)
from planarsep.errors import (
    EdgeInTree,
    EdgeNotInCotree,
    InvalidPartition,
    NoFace,
    NotSpanningTree,
    UnknownRoot,
)
from planarsep.embedding import Dart, DualEdge, DualGraph
from planarsep.generators import (
    cut_chain,
    cycle_chords,
    grid,
    path_graph,
    random_triangulation,
    two_level_parts,
)
from planarsep.harness import generate, standard_suite
from planarsep.oracles import contour_dual_tree, enclosed_faces, face_ids
from planarsep.treecotree import (
    SpanningTree,
    dot_export,
    part_bfs_trees,
    part_members,
    require_part_tree,
    tree_path,
)


def test_bfs_depths_grid(grid4, grid4_tree):
    assert grid4_tree.depth[15] == 6  # Manhattan distance of (3,3)
    assert grid4_tree.depth[0] == 0


def test_bfs_triangle(c3):
    t = bfs_tree(c3, 0)
    assert t.depth == [0, 1, 1]


def test_bfs_on_tree_returns_the_tree():
    g = path_graph(6)
    t = bfs_tree(g, 2)
    assert t.edges == set(g.edges())


def test_bfs_unknown_root(c3):
    with pytest.raises(UnknownRoot):
        bfs_tree(c3, 7)


def test_part_bfs_trees_reject_disconnected_part(grid4):
    part_of = [0] * 16
    part_of[0] = part_of[15] = 1  # opposite corners share a part
    with pytest.raises(InvalidPartition):
        part_bfs_trees(grid4, part_of)


def test_cotree_sizes(grid4, grid4_tree, c3):
    pair = cotree(grid4, grid4_tree)
    assert len(pair.cotree_edges) == 24 - 15 == 9
    assert len(pair.dual.nodes) == 10
    tc3 = bfs_tree(c3, 0)
    assert len(cotree(c3, tc3).cotree_edges) == 1


def test_cotree_rejects_non_spanning(grid4, grid4_tree):
    edges = set(list(grid4_tree.edges)[:-1])
    with pytest.raises(NotSpanningTree):
        tree_from_edges(grid4, edges, 0)


def test_dual_root_is_the_face_of_R(grid4):
    """Whichever vertex roots T, the dual tree is rooted at the face of R,
    the tree root's first rotation dart."""
    faces = face_ids(grid4)
    for root in range(grid4.n):
        pair = cotree(grid4, bfs_tree(grid4, root))
        assert grid4.faces[pair.dual_root].id == faces[grid4.rotation[root][0]]
        assert pair.dual_parent[pair.dual_root] is None


def test_fundamental_cycle_triangle(c3):
    pair = cotree(c3, bfs_tree(c3, 0))
    e = next(iter(pair.cotree_edges))
    path, cyc = fundamental_cycle(pair, e)
    assert set(path) == {0, 1, 2}
    assert cyc == set(c3.edges())


def test_fundamental_cycle_grid_cell(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    path, cyc = fundamental_cycle(pair, (5, 6, 0))
    assert len(path) == 4
    assert set(path) == {5, 1, 2, 6}


def test_cycle_endpoints_are_edge_endpoints(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    for e in sorted(pair.cotree_edges):
        path, _ = fundamental_cycle(pair, e)
        assert {path[0], path[-1]} == {e[0], e[1]}


def test_cycle_of_tree_edge_rejected(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    e = next(iter(grid4_tree.edges))
    with pytest.raises(EdgeInTree):
        fundamental_cycle(pair, e)


def test_cut_of_non_cotree_edge_rejected(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    e = next(iter(grid4_tree.edges))
    with pytest.raises(EdgeNotInCotree):
        fundamental_cut(pair, e)


def test_duality_exhaustive(grid4, grid4_tree, tri60):
    for g in (grid4, tri60):
        t = bfs_tree(g, 0)
        pair = cotree(g, t)
        for e in sorted(pair.cotree_edges):
            _, cyc = fundamental_cycle(pair, e)
            assert cyc == fundamental_cut(pair, e)


def test_interior_faces_c3(c3):
    pair = cotree(c3, bfs_tree(c3, 0))
    e = next(iter(pair.cotree_edges))
    below = interior_faces(pair, e)
    assert below == set(range(len(c3.faces))) - {pair.dual_root}


def test_interior_faces_match_flood_fill_sides(grid4, tri60):
    # the subtree side of a cotree edge is one side of the cycle; it is
    # exactly the enclosed side whenever the infinite face sits above it
    for g in (grid4, tri60):
        pair = cotree(g, bfs_tree(g, 0))
        all_faces = {f.id for f in g.faces}
        for e in sorted(pair.cotree_edges):
            below = {g.faces[i].id for i in interior_faces(pair, e)}
            _, cyc = fundamental_cycle(pair, e)
            enclosed = enclosed_faces(g, cyc)
            if g.infinite_face in below:
                assert below == all_faces - enclosed
            else:
                assert below == enclosed


def test_subtree_sums_path():
    children = {"a": ["b"], "b": ["c"], "c": []}
    sums = subtree_sums(children, "a", {"a": 1, "b": 1, "c": 1})
    assert sums == {"a": 3, "b": 2, "c": 1}


def test_subtree_sums_single():
    assert subtree_sums({}, "x", {"x": 7}) == {"x": 7}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10**6))
def test_subtree_sums_vs_bruteforce(n, seed):
    rng = random.Random(seed)
    parent = {0: None}
    children = {i: [] for i in range(n)}
    for v in range(1, n):
        p = rng.randrange(v)
        parent[v] = p
        children[p].append(v)
    values = {v: rng.randint(0, 9) for v in range(n)}
    sums = subtree_sums(children, 0, values)

    def descendants(v):
        out = [v]
        for c in children[v]:
            out.extend(descendants(c))
        return out

    for v in range(n):
        assert sums[v] == sum(values[u] for u in descendants(v))


def test_dual_subtree_total(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    values = [1] * len(grid4.faces)
    sums = dual_subtree_sums(pair, values)
    assert sums[pair.dual_root] == grid4.f
    assert all(s <= sums[pair.dual_root] for s in sums)


def test_tree_path_endpoints(grid4, grid4_tree):
    p = tree_path(grid4_tree, 12, 3)
    assert p[0] == 12 and p[-1] == 3
    assert len(p) <= 2 * grid4_tree.height() + 1


GOLDEN = Path(__file__).parent / "golden"  # grid4.dot: run this file as a script to rewrite it


def _grid4_dot():
    g = grid(4, 4)
    tree = bfs_tree(g, 0)
    return dot_export(cotree(g, tree), compute_separator(g, tree).path)


def test_dot_export_mentions_kinds(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    dot = dot_export(pair)
    assert 'kind="tree"' in dot and 'kind="cotree"' in dot and "graph" in dot


def test_dot_export_golden_bytes():
    """The dual-tree lines come in face-number order, so the bytes do not
    depend on the order cotree meets the faces in."""
    assert _grid4_dot().encode() == (GOLDEN / "grid4.dot").read_bytes()


# -- build_dual and cotree against the per-edge reference ------------------------
#
# The reference below finds each edge's two faces with oracles.face_ids (a
# walk with g.face_succ that reads neither g.dart_table nor g.dart_face),
# edge by edge in sorted order, numbers them by their place in g.faces, and
# roots the cotree from that in dicts by a BFS; build_dual and cotree must
# give every DualGraph and TreeCotreePair field the same value, children
# compared as sorted lists, and raise NotSpanningTree with the same message.
# cotree lists the faces in contour pre-order, not in the reference's BFS
# order, so dual_order is held to the pre-order property instead.


def _reference_endpoints(g, faces, e):
    number = {f.id: i for i, f in enumerate(g.faces)}
    return tuple(number[faces[d]] for d in g.darts_of_edge(e))


def _reference_dual(g, faces):
    return DualGraph(
        nodes=range(len(g.faces)),
        dual_edges=tuple(
            DualEdge(e, *_reference_endpoints(g, faces, e))
            for e in sorted({d.edge() for d in g.darts()})
        ),
    )


def _reference_cotree(g, tree):
    all_edges = set(g.edges())
    if not tree.edges <= all_edges or len(tree.edges) != g.n - 1:
        raise NotSpanningTree("tree is not a spanning tree of the graph")
    co = all_edges - tree.edges
    faces = face_ids(g)
    dual = _reference_dual(g, faces)
    adj = {fid: [] for fid in dual.nodes}
    for e in sorted(co):
        fa, fb = _reference_endpoints(g, faces, e)
        if fa == fb:
            raise NotSpanningTree(f"bridge {e} missing from the tree")
        adj[fa].append((e, fb))
        adj[fb].append((e, fa))
    number = {f.id: i for i, f in enumerate(g.faces)}
    root = number[faces[g.rotation[tree.root][0]]]  # the face of R
    parent, parent_edge, depth = {root: None}, {root: None}, {root: 0}
    children = {fid: [] for fid in dual.nodes}
    queue = [root]
    for f in queue:
        for e, h in adj[f]:
            if h not in parent:
                parent[h], parent_edge[h], depth[h] = f, e, depth[f] + 1
                children[f].append((e, h))
                queue.append(h)
    if len(parent) != len(dual.nodes):
        raise NotSpanningTree("cotree does not span the dual graph")
    for f in children:
        children[f].sort()
    return co, dual, root, parent, parent_edge, depth, children


def _assert_matches_reference(g, tree):
    dual = build_dual(g)
    ref_co, ref_dual, root, parent, parent_edge, depth, children = _reference_cotree(g, tree)
    assert dual == ref_dual
    assert all(type(de.primal) is tuple for de in dual.dual_edges)
    pair = cotree(g, tree)
    assert pair.graph is g and pair.tree is tree
    assert pair.cotree_edges == ref_co
    assert pair.dual == ref_dual
    assert pair.dual_root == root
    for got, want in (
        (pair.dual_parent, parent),
        (pair.dual_parent_edge, parent_edge),
        (pair.dual_depth, depth),
    ):
        assert got == [want[f] for f in ref_dual.nodes]
    assert all(type(e) is tuple for e in pair.dual_parent_edge if e is not None)
    _assert_contour_preorder(pair)
    got_children = {f: [] for f in ref_dual.nodes}
    for h in pair.dual_order[1:]:
        got_children[pair.dual_parent[h]].append((pair.dual_parent_edge[h], h))
    assert {f: sorted(kids) for f, kids in got_children.items()} == children


def _assert_contour_preorder(pair):
    """dual_order lists every face once, the dual root first, and each
    face's subtree (found from the parent pointers alone) is the one
    contiguous run of dual_order that starts at the face."""
    order, parent = pair.dual_order, pair.dual_parent
    assert sorted(order) == list(range(len(parent)))
    assert order[0] == pair.dual_root and parent[order[0]] is None
    subtree = {f: {f} for f in order}
    for h in order:
        p = parent[h]
        while p is not None:
            subtree[p].add(h)
            p = parent[p]
    for i, f in enumerate(order):
        assert set(order[i : i + len(subtree[f])]) == subtree[f]


def _random_spanning_tree(g, rng):
    """Kruskal over g's edges in random order, rooted at a random vertex."""
    edges = g.edges()
    rng.shuffle(edges)
    comp = list(range(g.n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    chosen = []
    for a, b, c in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            chosen.append((a, b, c))
    return tree_from_edges(g, chosen, rng.randrange(g.n))


def _relabelled_parts(g, part_of):
    """Each part's induced sub-embedding, relabelled in ascending member order."""
    for members in part_members(part_of).values():
        to_local = {v: i for i, v in enumerate(members)}
        rot = [
            [Dart(i, to_local[d.head], d.copy) for d in g.rotation[v] if d.head in to_local]
            for i, v in enumerate(members)
        ]
        yield build_embedding(len(members), rot)


def _reference_graphs():
    yield grid(5, 7)
    yield random_triangulation(80, 3)
    yield cycle_chords(40, 9, 5)
    yield biconnect(cut_chain(3, 8, 11))
    yield from _relabelled_parts(*two_level_parts(8, 2))


@pytest.mark.parametrize("g", list(_reference_graphs()))
def test_dual_and_cotree_match_per_edge_reference(g):
    rng = random.Random(g.n)
    for tree in (bfs_tree(g, 0), bfs_tree(g, g.n - 1), _random_spanning_tree(g, rng)):
        _assert_matches_reference(g, tree)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 90), seed=st.integers(0, 10**6))
def test_dual_and_cotree_match_reference_on_random_trees(n, seed):
    g = random_triangulation(n, seed)
    _assert_matches_reference(g, _random_spanning_tree(g, random.Random(seed)))


@pytest.mark.parametrize("g", list(_reference_graphs()))
def test_dual_parent_lists_every_face_after_its_parent(g):
    rng = random.Random(g.n)
    for tree in (bfs_tree(g, 0), _random_spanning_tree(g, rng)):
        pair = cotree(g, tree)
        order = pair.dual_order
        assert sorted(order) == list(pair.dual.nodes)
        assert order[0] == pair.dual_root and pair.dual_parent[order[0]] is None
        position = {f: i for i, f in enumerate(order)}
        for f in order[1:]:
            assert position[pair.dual_parent[f]] < position[f]
        _assert_contour_preorder(pair)


# -- the contour-interval oracle ---------------------------------------------------
#
# oracles.contour_dual_tree walks the contour of T with g.face_succ and
# g.rot_next, checks that the cotree intervals nest, name the faces, give
# their sizes and leaves, and that D is a +-1 prefix sum; its dual tree
# must be cotree's.


def _assert_cotree_matches_contour(g, tree):
    oracle = contour_dual_tree(g, tree)
    pair = cotree(g, tree)
    ids = [f.id for f in g.faces]
    assert oracle.parent == {
        ids[f]: None if p is None else ids[p] for f, p in enumerate(pair.dual_parent)
    }
    assert oracle.parent_edge == dict(zip(ids, pair.dual_parent_edge))
    assert oracle.depth == dict(zip(ids, pair.dual_depth))
    assert set(oracle.intervals) == pair.cotree_edges


def _single_part_suite_sample():
    """Every fourth single-part suite instance up to 250 vertices, bi-connected."""
    for spec in standard_suite(max_n=250)[::4]:
        g, part_of = generate(spec.generator, spec.params, spec.seed)
        if part_of is None:
            yield pytest.param(biconnect(g), id=spec.name)


@pytest.mark.parametrize("g", list(_single_part_suite_sample()))
def test_contour_intervals_name_the_faces_on_suite_graphs(g):
    for root in (0, g.n // 2, g.n - 1):
        _assert_cotree_matches_contour(g, bfs_tree(g, root))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["grid", "triangulation", "chords", "cut-chain"]),
    size=st.integers(3, 9),
    seed=st.integers(0, 10**6),
)
def test_contour_intervals_name_the_faces_on_random_trees(family, size, seed):
    rng = random.Random(seed)
    if family == "grid":
        g = grid(size, rng.randint(2, 9))
    elif family == "triangulation":
        g = random_triangulation(size * 8, seed)
    elif family == "chords":
        g = cycle_chords(size * 4, rng.randint(0, size * 2), seed)
    else:
        g = biconnect(cut_chain(2 + size % 3, size, seed))
    _assert_cotree_matches_contour(g, _random_spanning_tree(g, rng))


def _bare_tree(edges, root=0):
    """A SpanningTree carrying only an edge set, as cotree reads it."""
    return SpanningTree(root=root, parent=[], parent_edge=[], depth=[], edges=set(edges))


@pytest.mark.parametrize(
    "graph, edges, message",
    [
        # one edge short of spanning
        (grid(3, 3), [(0, 1, 0), (1, 2, 0), (0, 3, 0), (3, 6, 0), (1, 4, 0), (4, 7, 0), (2, 5, 0)],
         "tree is not a spanning tree of the graph"),
        # an edge the graph does not have
        (grid(2, 2), [(0, 1, 0), (0, 2, 0), (1, 2, 0)],
         "tree is not a spanning tree of the graph"),
        # n-1 edges holding a cycle, around a bridge-free graph
        (grid(3, 3), [(0, 1, 0), (0, 3, 0), (1, 4, 0), (3, 4, 0), (2, 5, 0), (5, 8, 0),
                      (6, 7, 0), (7, 8, 0)],
         "cotree does not span the dual graph"),
        # n-1 edges holding the triangle, the pendant bridge left out
        (build_embedding(4, [[1, 2], [2, 0], [0, 1, 3], [2]]),
         [(0, 1, 0), (0, 2, 0), (1, 2, 0)],
         "bridge (2, 3, 0) missing from the tree"),
    ],
)
def test_cotree_rejections_keep_their_messages(graph, edges, message):
    with pytest.raises(NotSpanningTree, match=f"^{re.escape(message)}$"):
        _reference_cotree(graph, _bare_tree(edges))
    with pytest.raises(NotSpanningTree, match=f"^{re.escape(message)}$"):
        cotree(graph, _bare_tree(edges))


def _with_pendant(g):
    """g with one more vertex, hanging from vertex 0 by a bridge."""
    rot = [list(row) for row in g.rotation]
    rot[0].insert(0, Dart(0, g.n, 0))
    rot.append([Dart(g.n, 0, 0)])
    return build_embedding(g.n + 1, rot)


REJECTION_GRAPHS = [
    grid(3, 4),
    grid(4, 4),
    random_triangulation(12, 1),
    random_triangulation(20, 4),
    cycle_chords(14, 3, 2),
    biconnect(cut_chain(2, 5, 3)),
    _with_pendant(grid(3, 3)),
    _with_pendant(random_triangulation(10, 2)),
]


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, len(REJECTION_GRAPHS) - 1),
    seed=st.integers(0, 10**6),
    draw=st.sampled_from(["subset", "tree", "swapped"]),
    flaw=st.sampled_from([None, None, "reversed", "non-edge"]),
)
def test_cotree_rejects_as_the_reference_does(which, seed, draw, flaw):
    """n - 1 edges of g drawn at random (a subset, a spanning tree, or a
    spanning tree with one edge swapped), perhaps with one triple reversed
    or one edge g does not have: cotree raises exactly the reference's
    message, bridges printed as plain tuples, or both accept and agree."""
    g = REJECTION_GRAPHS[which]
    rng = random.Random(seed)
    if draw == "subset":
        edges = rng.sample(g.edges(), g.n - 1)
    else:
        edges = sorted(_random_spanning_tree(g, rng).edges)
        if draw == "swapped":
            edges.remove(rng.choice(edges))
            edges.append(rng.choice(sorted(set(g.edges()) - set(edges))))
    i = rng.randrange(len(edges))
    a, b, c = edges[i]
    if flaw == "reversed":
        edges[i] = (b, a, c)
    elif flaw == "non-edge":
        edges[i] = (a, b, c + 1)
    tree = _bare_tree(edges, rng.randrange(g.n))
    try:
        _reference_cotree(g, tree)
    except NotSpanningTree as exc:
        with pytest.raises(NotSpanningTree, match=f"^{re.escape(str(exc))}$"):
            cotree(g, tree)
    else:
        _assert_matches_reference(g, tree)


def test_one_vertex_graph_has_no_dual_tree():
    g = build_embedding(1, [[]])
    with pytest.raises(NoFace):
        cotree(g, bfs_tree(g, 0))


def _require_part_tree_by_darts(g, tree, members) -> None:
    """The reference check: a search from the root over every dart of g
    whose edge is a tree edge, inside the part."""
    inside = set(members)
    reached = {tree.root} & inside
    stack = list(reached)
    while stack:
        for d in g.rotation[stack.pop()]:
            if d.head in inside and d.head not in reached and d.edge() in tree.edges:
                reached.add(d.head)
                stack.append(d.head)
    if reached != inside or len(tree.edges) != len(members) - 1:
        raise NotSpanningTree(f"tree rooted at {tree.root} does not span its part")


def _verdict(check, g, tree, members) -> bool:
    try:
        check(g, tree, members)
    except NotSpanningTree:
        return False
    return True


PART_TREE_GRAPHS = [two_level_parts(6, 2)] + [
    (g, [0] * g.n) for g in (random_triangulation(25, seed=2), cut_chain(2, 6, seed=1))
]


@settings(max_examples=120, deadline=None)
@given(
    which=st.integers(0, len(PART_TREE_GRAPHS) - 1),
    seed=st.integers(0, 10**6),
    mutations=st.lists(
        st.sampled_from(["bogus", "reversed", "outside", "drop", "extra", "swap", "root"]),
        max_size=3,
    ),
)
def test_require_part_tree_matches_the_dart_search(which, seed, mutations):
    """Walking the tree's own edges accepts and rejects the same trees as
    the search over g's darts: bogus edges, edges leaving the part, a
    wrong edge count, a root outside the part, and edges swapped for
    other edges of the part, which may leave a tree or not."""
    g, part_of = PART_TREE_GRAPHS[which]
    rng = random.Random(seed)
    trees = part_bfs_trees(g, part_of)
    pid = rng.choice(sorted(trees))
    members = part_members(part_of)[pid]
    root, edges = trees[pid].root, set(trees[pid].edges)
    inner = [e for e in g.edges() if part_of[e[0]] == part_of[e[1]] == pid]
    leaving = [e for e in g.edges() if (part_of[e[0]] == pid) != (part_of[e[1]] == pid)]
    for kind in mutations:
        a, b, c = rng.choice(inner)
        if kind == "bogus":
            edges.add((a, b, c + 1 + rng.randrange(3)))
        elif kind == "reversed":
            edges.discard((a, b, c))
            edges.add((b, a, c))
        elif kind == "outside" and leaving:
            edges.discard(rng.choice(sorted(edges)))
            edges.add(rng.choice(leaving))
        elif kind == "drop" and edges:
            edges.discard(rng.choice(sorted(edges)))
        elif kind == "extra":
            edges.add((a, b, c))
        elif kind == "swap" and edges:
            edges.discard(rng.choice(sorted(edges)))
            edges.add((a, b, c))
        elif kind == "root":
            root = rng.choice([v for v in range(-1, g.n + 1) if v not in members])
    tree = replace(trees[pid], root=root, edges=edges)
    assert _verdict(require_part_tree, g, tree, members) == _verdict(
        _require_part_tree_by_darts, g, tree, members
    )
    if not mutations:
        assert _verdict(require_part_tree, g, tree, members)


if __name__ == "__main__":
    (GOLDEN / "grid4.dot").write_bytes(_grid4_dot().encode())
