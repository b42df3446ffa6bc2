import pytest

from planarsep import parse_graph, write_graph
from planarsep.errors import BadParams
from planarsep.generators import cycle_chords, grid, random_triangulation


def test_round_trip_bytes(grid4):
    text = write_graph(grid4)
    again = write_graph(parse_graph(text))
    assert again == text


def test_round_trip_weights():
    g = grid(3, 3, weights=[1, 2, 3, 1, 1, 1, 7, 1, 1])
    g2 = parse_graph(write_graph(g))
    assert g2.vertex_weight == g.vertex_weight
    assert g2.rotation == g.rotation
    assert g2.infinite_face == g.infinite_face


def test_round_trip_families():
    for g in (grid(5, 7), random_triangulation(50, 3), cycle_chords(20, 4, 1)):
        text = write_graph(g)
        assert write_graph(parse_graph(text)) == text


def test_header_mismatch_rejected():
    text = "planar 3 5\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\n"
    with pytest.raises(BadParams):
        parse_graph(text)


def test_missing_rotation_rejected():
    with pytest.raises(BadParams):
        parse_graph("planar 2 1\nrot 0 1\n")


def test_unknown_record_rejected():
    with pytest.raises(BadParams):
        parse_graph("planar 1 0\nrot 0\nbogus 1 2\n")


@pytest.mark.parametrize(
    "extra",
    ["rot 7 0", "w 3 2", "w -1 2", "rot 0 2 1", "w 0 3\nw 0 4"],
    ids=["rot-out-of-range", "w-out-of-range", "w-negative-id", "rot-duplicate", "w-duplicate"],
)
def test_bad_record_rejected(extra):
    with pytest.raises(BadParams):
        parse_graph(f"planar 3 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\n{extra}\n")
