import pytest
from hypothesis import given, settings, strategies as st

from planarsep import validate_embedding
from planarsep.treecotree import diameter_estimate
from planarsep.errors import BadParams
from planarsep.generators import (
    WEIGHT_SCHEMES,
    cycle_chords,
    cylinder,
    grid,
    heavy_vertex_weights,
    joined_grids,
    proper_random_weights,
    random_triangulation,
    two_level_parts,
)


def test_grid_canonical_counts():
    g = grid(4, 4)
    assert (g.n, g.m, g.f) == (16, 24, 10)


def test_cylinder_counts():
    g = cylinder(4, 8)
    assert g.n == 34 and g.euler_residual() == 0
    open_g = cylinder(4, 8, capped=False)
    assert open_g.n == 32
    assert open_g.f == 3 * 8 + 2


def test_cylinder_constant_diameter_family():
    diams = [diameter_estimate(cylinder(4, w)) for w in (8, 16, 32, 64)]
    assert max(diams) == min(diams)  # capped drums: diameter set by height


def test_triangulation_all_triangles():
    g = random_triangulation(500, seed=7)
    assert validate_embedding(g).euler_residual == 0
    assert all(f.size == 3 for f in g.faces)


def test_triangulation_seeded_reproducible():
    assert random_triangulation(80, 3).rotation == random_triangulation(80, 3).rotation


def test_cycle_chords_c12():
    g = cycle_chords(12, 0)
    assert (g.n, g.m, g.f) == (12, 12, 2)


def test_cycle_chords_count():
    g = cycle_chords(30, 7, seed=5)
    assert g.f == 7 + 2


def test_bad_params():
    with pytest.raises(BadParams):
        grid(1, 5)
    with pytest.raises(BadParams):
        cylinder(0, 8)
    with pytest.raises(BadParams):
        random_triangulation(2, 0)
    with pytest.raises(BadParams):
        two_level_parts(9, 2)


def test_two_level_parts_partition():
    g, part_of = two_level_parts(8, 2)
    assert len(part_of) == 64
    assert sorted(set(part_of)) == [0, 1, 2, 3]
    from planarsep.treecotree import part_bfs_trees

    part_bfs_trees(g, part_of)


def test_joined_grids_bridge():
    g, part_of = joined_grids(3, 3)
    assert g.n == 18
    assert part_of.count(0) == part_of.count(1) == 9


def test_weight_schemes():
    from fractions import Fraction

    from planarsep import check_proper

    w = proper_random_weights(64, seed=1)
    assert check_proper(w, Fraction(1, 12)).proper
    h = heavy_vertex_weights(64, seed=1)
    assert not check_proper(h, Fraction(1, 12)).proper
    assert set(WEIGHT_SCHEMES) == {"unit", "random-proper", "adversarial-heavy-vertex"}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(24, 200), seed=st.integers(0, 10**6))
def test_random_proper_weights_property(n, seed):
    from fractions import Fraction

    from planarsep import check_proper

    assert check_proper(proper_random_weights(n, seed), Fraction(1, 12)).proper
