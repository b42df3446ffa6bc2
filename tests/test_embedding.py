import pytest
from hypothesis import given, settings, strategies as st

from planarsep import build_dual, build_embedding, validate_embedding
from planarsep.errors import (
    EulerViolation,
    InconsistentRotation,
    NegativeWeight,
    NotConnected,
)
from planarsep.generators import cycle_chords, random_triangulation


def test_triangle_counts(c3):
    assert (c3.n, c3.m, c3.f) == (3, 3, 2)
    assert all(f.size == 3 for f in c3.faces)


def test_grid_counts(grid4):
    assert (grid4.n, grid4.m, grid4.f) == (16, 24, 10)
    assert grid4.euler_residual() == 0
    sizes = sorted(f.size for f in grid4.faces)
    assert sizes == [4] * 9 + [12]


def test_missing_reverse_rejected():
    with pytest.raises(InconsistentRotation):
        build_embedding(2, [[1], []])


def test_disconnected_rejected():
    with pytest.raises(NotConnected):
        build_embedding(4, [[1], [0], [3], [2]])


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        build_embedding(3, [[1, 2], [2, 0], [0, 1]], weights=[1, -1, 1])


def test_path_single_face(p3):
    # a tree has one face traversing each bridge twice
    assert p3.f == 1
    assert p3.faces[0].size == 4


def test_face_partition_covers_all_darts(grid4):
    darts = [d for f in grid4.faces for d in f.boundary]
    assert len(darts) == 2 * grid4.m
    assert len(set(darts)) == len(darts)


def test_face_traversal_closes(grid4):
    for face in grid4.faces:
        d = face.boundary[0]
        for _ in range(face.size):
            d = grid4.face_succ(d)
        assert d == face.boundary[0]


def test_canonical_id_is_min_boundary_dart(grid4):
    for face in grid4.faces:
        assert face.id == min(face.boundary)
        assert face.boundary[0] == face.id


def test_infinite_face_default_largest(grid4):
    assert grid4.face(grid4.infinite_face).size == 12


def test_dual_of_cycle(c3):
    dual = build_dual(c3)
    assert len(dual.nodes) == 2
    assert len(dual.dual_edges) == 3
    assert all(not de.is_self_loop() for de in dual.dual_edges)


def test_dual_of_path_has_self_loops(p3):
    dual = build_dual(p3)
    assert len(dual.nodes) == 1
    assert len(dual.dual_edges) == 2
    assert all(de.is_self_loop() for de in dual.dual_edges)


def _dual_degree(dual, f):
    """Dual-edge ends at face f, counted from the dual edge list."""
    return sum((de.face_a == f) + (de.face_b == f) for de in dual.dual_edges)


def test_dual_grid_counts(grid4):
    dual = build_dual(grid4)
    assert len(dual.nodes) == 10
    assert len(dual.dual_edges) == 24
    assert _dual_degree(dual, grid4.infinite_face) == 12


def test_dual_degree_equals_boundary_size(grid4, tri60):
    for g in (grid4, tri60):
        dual = build_dual(g)
        for face in g.faces:
            assert _dual_degree(dual, face.id) == face.size


def test_validate_k4_planar_rotation():
    rot = [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]]
    g = build_embedding(4, rot)
    rep = validate_embedding(g)
    assert rep.euler_residual == 0 and rep.connected
    assert (rep.n, rep.m, rep.f) == (4, 6, 4)


def test_validate_k4_nonplanar_rotation():
    # swapping one rotation makes the system non-planar; Euler catches it
    rot = [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 1, 2]]
    with pytest.raises(EulerViolation):
        build_embedding(4, rot)
    g = build_embedding(4, rot, strict=False)
    assert validate_embedding(g).euler_residual != 0


def test_determinism_same_bytes():
    a = random_triangulation(120, seed=9)
    b = random_triangulation(120, seed=9)
    assert a.rotation == b.rotation
    assert [f.id for f in a.faces] == [f.id for f in b.faces]
    assert a.infinite_face == b.infinite_face


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 80))
def test_face_partition_property(seed, n):
    g = random_triangulation(n, seed)
    assert sum(f.size for f in g.faces) == 2 * g.m
    assert g.euler_residual() == 0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 40), chords=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_cycle_chords_euler(n, chords, seed):
    try:
        g = cycle_chords(n, chords, seed)
    except Exception:
        return
    assert g.euler_residual() == 0
    assert g.f == g.m - g.n + 2
