from planarsep import bfs_tree, oracle_all_fundamental_cycles, transfer_weights
from planarsep.embedding import build_embedding
from planarsep.generators import grid, joined_grids
from planarsep.oracles import brute_force_articulation_points


def c4_with_chord():
    return build_embedding(4, [[1, 3, 2], [2, 0], [3, 1, 0], [0, 2]])


def test_c4_chord_complementary_interiors():
    g = c4_with_chord()
    t = bfs_tree(g, 0)
    rows = oracle_all_fundamental_cycles(g, t)
    assert len(rows) == 2
    # the two non-tree edges enclose the two triangles; their interiors
    # cover disjoint face sets
    assert not (rows[0].interior_faces & rows[1].interior_faces)


def test_partition_identity(grid4, grid4_tree):
    W = sum(grid4.vertex_weight)
    for row in oracle_all_fundamental_cycles(grid4, grid4_tree):
        cyc_w = sum(grid4.vertex_weight[v] for v in row.cycle_vertices)
        assert row.interior_weight + cyc_w + row.exterior_weight == W


def test_sandwich_every_row(grid4, grid4_tree):
    fw = transfer_weights(grid4)
    for row in oracle_all_fundamental_cycles(grid4, grid4_tree):
        wf_in = sum(fw.face_weight[grid4.face_number(f)] for f in row.interior_faces)
        cyc_w = sum(grid4.vertex_weight[v] for v in row.cycle_vertices)
        assert row.interior_weight <= wf_in <= row.interior_weight + cyc_w


def test_articulation_brute_force():
    g, _ = joined_grids(3, 3)
    cuts = brute_force_articulation_points(g)
    assert cuts == {8, 9}
    assert not brute_force_articulation_points(grid(3, 3))
