import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planarsep import (
    bfs_tree,
    biconnect,
    compute_separator,
    cotree,
    find_balanced_or_critical,
    separator_from_balanced,
    separator_from_critical,
    serialize_separator,
    transfer_weights,
    tree_from_edges,
    verify_separator,
)
from planarsep.embedding import build_embedding
from planarsep.errors import DegenerateTotal, NotProper
from planarsep.generators import (
    cut_chain,
    cycle_chords,
    cylinder,
    grid,
    pinned_critical_instance,
    proper_random_weights,
    random_triangulation,
)
from planarsep.separator import find_balanced_or_critical_in_tree
from planarsep.weights import FaceWeighting
from planarsep.treecotree import _tree_edge_between, dual_subtree_sums, subtree_sums

GOLDEN = Path(__file__).parent / "golden"


def test_star_dual_tree_is_critical():
    children = {0: list(range(1, 9))}
    values = {0: 0, **{i: 1 for i in range(1, 9)}}
    kind, node, subtree, depth = find_balanced_or_critical_in_tree(children, 0, values)
    assert kind == "critical" and node == 0 and subtree == 8


def test_path_dual_tree_balanced():
    # subtrees along the path are 4,3,2,1; the node weighing 2 is balanced
    # (2 in [1,3]) and the max-id pick also satisfies the bounds
    children = {0: [1], 1: [2], 2: [3], 3: []}
    values = {i: 1 for i in range(4)}
    kind, node, subtree, _ = find_balanced_or_critical_in_tree(children, 0, values)
    assert kind == "balanced"
    assert 4 <= 4 * subtree <= 12


def test_degenerate_total():
    with pytest.raises(DegenerateTotal):
        find_balanced_or_critical_in_tree({0: []}, 0, {0: 0})


def test_grid_verdict_matches_exhaustive_scan(grid4, grid4_tree):
    pair = cotree(grid4, grid4_tree)
    fw = transfer_weights(grid4)
    verdict = find_balanced_or_critical(pair, fw.face_weight)
    from planarsep.treecotree import dual_subtree_sums

    sums = dual_subtree_sums(pair, fw.face_weight)
    W = sums[pair.dual_root]
    # picks by face id, numbers mapped back through grid4.faces
    ids = [f.id for f in grid4.faces]
    balanced = [ids[f] for f, s in enumerate(sums) if W <= 4 * s <= 3 * W]
    if balanced:
        assert verdict.kind == "balanced" and ids[verdict.face] == max(balanced)
    else:
        heavy = [f for f, s in enumerate(sums) if 4 * s > 3 * W]
        deepest = max(heavy, key=lambda f: (pair.dual_depth[f], ids[f]))
        assert verdict.kind == "critical" and verdict.face == deepest


def test_balanced_case_c4_with_chord():
    # 4-cycle 0-3-2-1 plus chord (0,2); the weights land 2 on each triangle
    g = build_embedding(
        4,
        [[1, 3, 2], [2, 0], [3, 1, 0], [0, 2]],
        weights=[0, 1, 1, 2],
    )
    assert sorted(f.size for f in g.faces) == [3, 3, 4]
    t = bfs_tree(g, 0)
    pair = cotree(g, t)
    fw = transfer_weights(g)
    assert sorted(fw.face_weight) == [0, 2, 2]
    verdict = find_balanced_or_critical(pair, fw.face_weight)
    assert verdict.kind == "balanced"
    res = separator_from_balanced(pair, verdict, fw)
    assert verify_separator(g, g.vertex_weight, res.path).passed
    assert res.interior_weight + res.exterior_weight == 4


def test_grid_separator_verified(grid4, grid4_tree):
    res = compute_separator(grid4, grid4_tree)
    rep = verify_separator(grid4, None, res.path)
    assert rep.passed
    assert max(rep.component_weights, default=0) <= 12


def test_grid_golden_bytes(grid4, grid4_tree):
    res = compute_separator(grid4, grid4_tree)
    expected = (GOLDEN / "grid4.sep").read_bytes()
    assert serialize_separator(res).encode() == expected


def test_leaf_critical_cycle(c12):
    t = bfs_tree(c12, 0)
    res = compute_separator(c12, t)
    assert res.case == "critical-leaf"
    assert set(res.path) == set(range(12))
    assert res.exterior_weight == 0
    assert verify_separator(c12, None, res.path).passed


def test_critical_claims_hold(grid4, grid4_tree):
    res = compute_separator(grid4, grid4_tree)
    assert res.case == "critical-virtual"
    W = res.interior_weight + res.exterior_weight
    for tw in res.diagnostics["triangle_weights"]:
        assert 4 * tw <= W
    s_next = res.diagnostics["s"][res.diagnostics["j"]]
    assert W < 4 * s_next <= 3 * W


def test_virtual_edge_embedding_keeps_euler(grid4, grid4_tree):
    res = compute_separator(grid4, grid4_tree)
    assert res.closing.kind == "virtual"
    gp = biconnect(grid4)
    u, v = res.closing.endpoints
    cp = res.closing.copy
    rotation = [list(r) for r in gp.rotation]
    from planarsep.embedding import Dart

    rotation[u].insert(rotation[u].index(res.closing.insert_before_u), Dart(u, v, cp))
    rotation[v].insert(rotation[v].index(res.closing.insert_before_v), Dart(v, u, cp))
    g2 = build_embedding(gp.n, rotation, gp.vertex_weight,
                         virtual_edges=set(gp.virtual_edges) | {res.closing.edge()})
    assert g2.euler_residual() == 0
    assert g2.m == gp.m + 1
    assert g2.f == gp.f + 1


def test_pinned_critical_instance_outcome():
    g, tree_edges, eu, ev = pinned_critical_instance()
    t = tree_from_edges(g, tree_edges, root=0)
    res = compute_separator(g, t)
    assert res.case == "critical-virtual"
    assert (res.u, res.v) == (eu, ev)
    assert res.diagnostics["j"] == 4
    assert verify_separator(g, None, res.path).passed


def test_not_proper_raises(grid4, grid4_tree):
    w = [1] * 15 + [100]
    with pytest.raises(NotProper):
        compute_separator(grid4, grid4_tree, w)


def test_degenerate_raises(grid4, grid4_tree):
    with pytest.raises(DegenerateTotal):
        compute_separator(grid4, grid4_tree, [0] * 16)


def test_size_bound_large_grid():
    g = grid(64, 64)
    t = bfs_tree(g, 0)
    res = compute_separator(g, t)
    assert len(res.path) <= 2 * t.height() + 1
    assert verify_separator(g, None, res.path).passed


def test_path_is_contiguous_in_tree(grid4, grid4_tree):
    res = compute_separator(grid4, grid4_tree)
    for x, y in zip(res.path, res.path[1:]):
        assert _tree_edge_between(grid4_tree, x, y) in grid4_tree.edges


def test_determinism_bytes(tri60):
    t = bfs_tree(tri60, 0)
    a = serialize_separator(compute_separator(tri60, t))
    b = serialize_separator(compute_separator(tri60, t))
    assert a == b


def test_verify_all_vertices_vacuous(grid4):
    rep = verify_separator(grid4, None, range(16))
    assert rep.passed and rep.component_weights == ()


def test_verify_empty_separator_fails(grid4):
    rep = verify_separator(grid4, None, [])
    assert not rep.passed and rep.max_ratio == 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(13, 120), seed=st.integers(0, 10**6))
def test_random_triangulation_separators(n, seed):
    g = random_triangulation(n, seed)
    t = bfs_tree(g, 0)
    res = compute_separator(g, t)
    assert verify_separator(g, None, res.path).passed
    assert len(res.path) <= 2 * t.height() + 1


@settings(max_examples=15, deadline=None)
@given(blobs=st.integers(2, 4), size=st.integers(6, 14), seed=st.integers(0, 10**5))
def test_cut_chain_separators(blobs, size, seed):
    g = cut_chain(blobs, size, seed)
    if sum(g.vertex_weight) < 12:
        return
    t = bfs_tree(g, 0)
    res = compute_separator(g, t)
    assert verify_separator(g, None, res.path).passed


# -- detection against a brute-force reference --------------------------------
#
# The reference sums every node's weight into each of its ancestors, finds
# depths by walking parent pointers to the root, and picks the max-id
# balanced node, else the deepest heavy node by (depth, id).


def _reference_pick(parent, values):
    sums = dict.fromkeys(parent, 0)
    depth = {}
    for x in parent:
        depth[x] = -1
        y = x
        while y is not None:
            sums[y] += values[x]
            depth[x] += 1
            y = parent[y]
    total = sum(values[x] for x in parent)
    balanced = [x for x in parent if total <= 4 * sums[x] <= 3 * total]
    if balanced:
        pick = max(balanced)
        return "balanced", pick, sums, depth
    heavy = [x for x in parent if 4 * sums[x] > 3 * total]
    return "critical", max(heavy, key=lambda x: (depth[x], x)), sums, depth


def _random_tree_of(g, rng):
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
        if find(a) != find(b):
            comp[find(a)] = find(b)
            chosen.append((a, b, c))
    return tree_from_edges(g, chosen, rng.randrange(g.n))


DETECT_GRAPHS = st.one_of(
    st.builds(grid, st.integers(2, 7), st.integers(2, 7)),
    st.builds(random_triangulation, st.integers(4, 60), st.integers(0, 10**6)),
    st.builds(cycle_chords, st.integers(11, 40), st.integers(0, 8), st.integers(0, 10**6)),
    st.builds(cut_chain, st.integers(2, 4), st.integers(3, 10), st.integers(0, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(g=DETECT_GRAPHS, seed=st.integers(0, 10**6), face_level=st.booleans())
def test_detection_matches_brute_force(g, seed, face_level):
    rng = random.Random(seed)
    gp = biconnect(g)
    pair = cotree(gp, _random_tree_of(g, rng))
    if face_level:
        # arbitrary face weights, zeros included, reach both cases often
        face_weight = [rng.choice([0, 0, 1, 2, 5, 9]) for _ in gp.faces]
    else:
        w = [rng.randint(0, 6) for _ in range(g.n)]
        face_weight = transfer_weights(gp, weights=w).face_weight
    # the reference runs on face ids, so it also checks that the numbered
    # picks are the id-based ones
    ids = [f.id for f in gp.faces]

    def by_id(per_face):
        return {ids[f]: x for f, x in enumerate(per_face)}

    parent = by_id(None if p is None else ids[p] for p in pair.dual_parent)
    kind, pick, sums, depth = _reference_pick(parent, by_id(face_weight))
    assert depth == by_id(pair.dual_depth)
    root = ids[pair.dual_root]
    if sums[root] == 0:
        with pytest.raises(DegenerateTotal):
            find_balanced_or_critical(pair, face_weight)
        return
    verdict = find_balanced_or_critical(pair, face_weight)
    assert (verdict.kind, ids[verdict.face]) == (kind, pick)
    assert verdict.subtree_weight == sums[pick]
    assert verdict.depth == depth[pick]
    assert verdict.total == sums[root]
    assert by_id(verdict.sums) == sums
    assert by_id(dual_subtree_sums(pair, face_weight)) == sums


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 10**6))
def test_tree_detection_matches_brute_force(n, seed):
    rng = random.Random(seed)
    ids = rng.sample(range(10 * n), n)  # ids unrelated to tree order
    parent = {ids[0]: None}
    children = {}
    for i in range(1, n):
        p = ids[rng.randrange(i)]
        parent[ids[i]] = p
        children.setdefault(p, []).append(ids[i])
    values = {x: rng.choice([0, 1, 1, 2, 3, 8]) for x in ids}
    kind, pick, sums, depth = _reference_pick(parent, values)
    assert subtree_sums(children, ids[0], values) == sums
    if sums[ids[0]] == 0:
        with pytest.raises(DegenerateTotal):
            find_balanced_or_critical_in_tree(children, ids[0], values)
        return
    got = find_balanced_or_critical_in_tree(children, ids[0], values)
    assert got == (kind, pick, sums[pick], depth[pick])


# -- the lemma: any incident face per vertex gives a separator -----------------


def _any_choice_separator(g, root, seed, concentrated):
    """The separator built when every vertex hands its weight to the face
    of a random dart of its own; asserts it verifies and returns its case.

    Weights are proper random weights, or, when concentrated and g's
    largest face has 12 vertices or more, 1 on that face's vertices and 0
    elsewhere, with each of them picking a dart on that face, so that one
    face holds the whole weight.
    """
    rng = random.Random(seed)
    lo, dart_face = g.dart_table.lo, g.dart_face
    picks = [rng.randrange(lo[v], lo[v + 1]) for v in range(g.n)]
    w = proper_random_weights(g.n, seed)
    if concentrated:
        big = max(range(len(g.faces)), key=lambda f: g.faces[f].size)
        on_big = {v: [d for d in range(lo[v], lo[v + 1]) if dart_face[d] == big]
                  for v in range(g.n)}
        if sum(1 for ds in on_big.values() if ds) >= 12:
            w = [1 if on_big[v] else 0 for v in range(g.n)]
            picks = [rng.choice(on_big[v]) if on_big[v] else d for v, d in enumerate(picks)]
    chosen = [dart_face[d] for d in picks]
    face_weight = [0] * len(g.faces)
    for v, f in enumerate(chosen):
        face_weight[f] += w[v]
    weighting = FaceWeighting(chosen_face=chosen, face_weight=face_weight, total=sum(w))
    tree = bfs_tree(g, root)
    pair = cotree(g, tree)
    verdict = find_balanced_or_critical(pair, face_weight)
    if verdict.kind == "balanced":
        res = separator_from_balanced(pair, verdict, weighting)
    else:
        res = separator_from_critical(pair, verdict, weighting, w)
    assert verify_separator(g, w, res.path).passed, res.case
    assert len(res.path) <= 2 * tree.height() + 1
    return res.case


LEMMA_GRAPHS = st.one_of(
    st.builds(grid, st.integers(3, 8), st.integers(4, 8)),
    st.builds(random_triangulation, st.integers(12, 80), st.integers(0, 10**6)),
    st.builds(lambda n, k, seed: cycle_chords(n, k % (n // 6 + 1), seed),
              st.integers(12, 60), st.integers(0, 10), st.integers(0, 10**6)),
    st.builds(cylinder, st.integers(2, 5), st.integers(4, 12)),
)


@settings(max_examples=60, deadline=None)
@given(g=LEMMA_GRAPHS, root=st.integers(0, 10**6), seed=st.integers(0, 10**6),
       concentrated=st.booleans())
def test_any_incident_face_choice_gives_a_separator(g, root, seed, concentrated):
    _any_choice_separator(g, root % g.n, seed, concentrated)


def test_any_incident_face_choice_reaches_every_case():
    cases = set()
    graphs = [grid(6, 6), random_triangulation(60, 3), cycle_chords(12, 0),
              cycle_chords(40, 6, 2), cylinder(3, 12)]
    for g in graphs:
        for seed in range(8):
            for concentrated in (False, True):
                cases.add(_any_choice_separator(g, seed % g.n, seed, concentrated))
    assert cases == {"balanced", "critical-virtual", "critical-leaf"}
