import pytest
from hypothesis import given, settings, strategies as st

from planarsep import articulation_count, biconnect, build_embedding, validate_embedding
from planarsep.biconnect import _augment_once, biconnected
from planarsep.generators import (
    cut_chain,
    cycle_chords,
    grid,
    joined_grids,
    path_graph,
    random_triangulation,
    star,
)
from planarsep.oracles import brute_force_articulation_points, face_ids


def two_triangles_shared_vertex():
    # triangles (0,1,2) and (2,3,4) share vertex 2
    rot = [
        [1, 2],
        [2, 0],
        [0, 1, 3, 4],
        [4, 2],
        [2, 3],
    ]
    return build_embedding(5, rot)


def test_biconnected_input_unchanged(grid4):
    out = biconnect(grid4)
    assert not out.virtual_edges
    assert out.rotation == grid4.rotation


def test_two_triangles_one_virtual_edge():
    g = two_triangles_shared_vertex()
    assert articulation_count(g) == 1
    out = biconnect(g)
    assert len(out.virtual_edges) == 1
    assert not brute_force_articulation_points(out)
    assert out.euler_residual() == 0


def test_star_leaves_joined():
    g = star(3)
    out = biconnect(g)
    assert not brute_force_articulation_points(out)
    assert out.euler_residual() == 0
    assert all(a != 0 and b != 0 for a, b, _ in out.virtual_edges)


def test_path_becomes_cycle():
    g = path_graph(3)
    out = biconnect(g)
    assert not brute_force_articulation_points(out)
    assert out.m == 3


def test_weights_preserved():
    g = path_graph(5)
    g.vertex_weight[2] = 9
    out = biconnect(g)
    assert out.vertex_weight == g.vertex_weight


def test_joined_grids():
    g, _ = joined_grids(3, 3)
    out = biconnect(g)
    assert not brute_force_articulation_points(out)
    assert out.euler_residual() == 0


def test_determinism():
    g, _ = joined_grids(3, 4)
    assert biconnect(g).rotation == biconnect(g).rotation


def test_oracle_agrees_with_block_count(grid4):
    g, _ = joined_grids(3, 3)
    assert len(brute_force_articulation_points(g)) == articulation_count(g) == 2
    assert articulation_count(grid4) == len(brute_force_articulation_points(grid4)) == 0


@settings(max_examples=25, deadline=None)
@given(
    blobs=st.integers(2, 5),
    size=st.integers(3, 12),
    seed=st.integers(0, 10**6),
)
def test_cut_chains_become_biconnected(blobs, size, seed):
    g = cut_chain(blobs, size, seed)
    assert brute_force_articulation_points(g)
    out = biconnect(g)
    assert not brute_force_articulation_points(out)
    assert out.euler_residual() == 0
    rep = validate_embedding(out)
    assert rep.connected and rep.euler_residual == 0


# -- biconnect against the corner-pass loop -----------------------------------
#
# biconnect must return an input without a cut vertex as the same object,
# and augment any other exactly as repeated _augment_once passes do; the
# cut-vertex count of edge_blocks (articulation_count) is the reference.


def _reference_biconnect(g):
    current = g
    while (augmented := _augment_once(current)) is not None:
        current = augmented
    return current


def _cut_vertex_cases():
    yield build_embedding(1, [[]])
    yield build_embedding(2, [[1], [0]])
    yield path_graph(2)
    yield path_graph(7)
    yield star(1)
    yield star(5)
    yield two_triangles_shared_vertex()
    yield joined_grids(3, 3)[0]
    yield joined_grids(2, 4)[0]
    yield cut_chain(2, 5, 1)
    yield cut_chain(4, 9, 7)
    yield grid(4, 5)
    yield cycle_chords(9, 3, 2)
    yield random_triangulation(40, 8)
    yield biconnect(cut_chain(3, 6, 4))
    yield build_embedding(3, [[1, (0, 1, 1)], [(1, 0, 1), 0, 2], [1]])


@pytest.mark.parametrize("g", list(_cut_vertex_cases()))
def test_biconnect_matches_corner_passes(g):
    out, ref = biconnect(g), _reference_biconnect(g)
    assert (out is g) == (articulation_count(g) == 0) == (ref is g)
    assert out.rotation == ref.rotation
    assert out.virtual_edges == ref.virtual_edges
    assert out.faces == ref.faces and out.dart_face == ref.dart_face
    assert face_ids(out) == face_ids(ref)
    assert out.infinite_face == ref.infinite_face
    assert out.vertex_weight == ref.vertex_weight


@pytest.mark.parametrize("g", list(_cut_vertex_cases()))
def test_lowpoint_answer_matches_block_map(g):
    assert biconnected([g.neighbors(v) for v in range(g.n)]) == (articulation_count(g) == 0)


def _no_cut_vertex_by_deletion(adj):
    """Connected, and connected after deleting any one vertex (n >= 3)."""

    def reach(skip):
        start = next(v for v in range(len(adj)) if v != skip)
        seen, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()]:
                if u != skip and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(adj) - (skip is not None)

    return reach(None) and (len(adj) < 3 or all(reach(v) for v in range(len(adj))))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    )
)
def test_lowpoint_answer_matches_deletion_on_multigraphs(case):
    # arbitrary, possibly disconnected multigraphs: parallel edges included
    n, pairs = case
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    assert biconnected(adj) == _no_cut_vertex_by_deletion(adj)
