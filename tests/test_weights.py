from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from planarsep import build_embedding, check_proper, cotree, transfer_weights
from planarsep.errors import NoFace
from planarsep.generators import random_triangulation
from planarsep.oracles import enclosed_faces, face_ids, vertex_sides
from planarsep.treecotree import fundamental_cycle


def test_conservation(grid4, tri60):
    for g in (grid4, tri60):
        fw = transfer_weights(g)
        assert sum(fw.face_weight) == sum(g.vertex_weight)
        assert len(fw.face_weight) == len(g.faces)


def test_c3_min_policy(c3):
    fw = transfer_weights(c3)
    weights = sorted(fw.face_weight)
    assert weights == [0, 3]
    assert fw.face_weight[c3.face_number(min(f.id for f in c3.faces))] == 3


def test_each_vertex_contributes_once(grid4):
    fw = transfer_weights(grid4)
    assert len(fw.chosen_face) == grid4.n
    faces = face_ids(grid4)
    for v, f in enumerate(fw.chosen_face):
        assert grid4.faces[f].id in {faces[d] for d in grid4.rotation[v]}


def test_check_proper_examples():
    assert check_proper([1] * 16, Fraction(1, 12)).proper
    v = check_proper([13] + [1] * 11, Fraction(1, 12))
    assert not v.proper
    z = check_proper([0, 0, 0], Fraction(1, 12))
    assert z.proper and z.degenerate


def test_sandwich_on_grid_cells(grid4, grid4_tree):
    # every cell cycle of the grid satisfies w_V(in-) <= w_F(in) <= w_V(in)
    fw = transfer_weights(grid4)
    pair = cotree(grid4, grid4_tree)
    for e in sorted(pair.cotree_edges):
        path, cyc = fundamental_cycle(pair, e)
        interior = enclosed_faces(grid4, cyc)
        inside, _ = vertex_sides(grid4, path, interior)
        w_in_strict = sum(grid4.vertex_weight[v] for v in inside)
        w_in = w_in_strict + sum(grid4.vertex_weight[v] for v in path)
        wf_in = sum(fw.face_weight[grid4.face_number(f)] for f in interior)
        assert w_in_strict <= wf_in <= w_in


@settings(max_examples=20, deadline=None)
@given(n=st.integers(6, 60), seed=st.integers(0, 10**5), policy=st.sampled_from(["min", "max"]))
def test_conservation_property(n, seed, policy):
    g = random_triangulation(n, seed)
    fw = transfer_weights(g, policy=policy)
    assert sum(fw.face_weight) == g.n
    pick = min if policy == "min" else max
    faces = face_ids(g)
    for v, f in enumerate(fw.chosen_face):
        assert g.faces[f].id == pick(faces[d] for d in g.rotation[v])


def test_one_vertex_graph_has_no_face_to_take_its_weight():
    g = build_embedding(1, [[]])
    with pytest.raises(NoFace):
        transfer_weights(g)
