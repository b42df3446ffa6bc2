import pytest
from hypothesis import given, settings, strategies as st

from planarsep import build_embedding, parse_graph, write_graph
from planarsep.errors import BadParams, PlanarSepError
from planarsep.generators import cut_chain, cycle_chords, grid, random_triangulation


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


@pytest.mark.parametrize(
    "text, match",
    [
        ("planar 3 3 9\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\n", "takes 2 fields"),
        ("planar 3 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\nw 0 3 4\n", "takes 2 fields"),
        ("planar 3 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 0 1 0\n", "takes 2 fields"),
        ("planar 3 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\nplanar 4 3\n", "repeated 'planar'"),
        ("planar 3 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 0 1\nouter 1 0\n", "repeated 'outer'"),
        ("planar -1 0\n", "n >= 1"),
        ("planar 0 0\n", "n >= 1"),
    ],
    ids=[
        "planar-trailing", "w-trailing", "outer-trailing", "planar-repeated",
        "outer-repeated", "n-negative", "n-zero",
    ],
)
def test_malformed_header_and_records_rejected(text, match):
    with pytest.raises(BadParams, match=match):
        parse_graph(text)


def test_single_vertex_round_trip():
    text = "planar 1 0\nrot 0\n"
    assert write_graph(parse_graph(text)) == text


GRAPHS = st.one_of(
    st.builds(grid, st.integers(2, 4), st.integers(2, 4)),
    st.builds(random_triangulation, st.integers(3, 12), st.integers(0, 10**6)),
    st.builds(cycle_chords, st.integers(8, 12), st.integers(0, 3), st.integers(0, 10**6)),
    st.builds(cut_chain, st.integers(2, 3), st.integers(3, 5), st.integers(0, 10**6)),
)
WEIGHTS = st.one_of(st.integers(0, 3), st.integers(0, 2**70))
TOKENS = st.one_of(
    st.integers(-2, 14).map(str),
    st.sampled_from(["planar", "rot", "w", "outer", "#", "x", "1.5", "", str(2**64)]),
)


@settings(max_examples=150, deadline=None)
@given(g=GRAPHS, data=st.data())
def test_round_trip_and_single_token_mutations(g, data):
    """A written graph parses back to the same text; a text with one token
    replaced, deleted or duplicated raises a typed error or parses to a
    graph that round-trips."""
    w = data.draw(st.lists(WEIGHTS, min_size=g.n, max_size=g.n))
    g = build_embedding(g.n, g.rotation, w, infinite_face_hint=g.infinite_face)
    text = write_graph(g)
    assert write_graph(parse_graph(text)) == text

    lines = [line.split() for line in text.splitlines()]
    i = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(0, len(lines[i]) - 1))
    how = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if how == "replace":
        lines[i][j] = data.draw(TOKENS)
    elif how == "delete":
        del lines[i][j]
    else:
        lines[i].insert(j, lines[i][j])
    mutated = "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    try:
        g2 = parse_graph(mutated)
    except PlanarSepError:
        return
    again = write_graph(g2)
    assert write_graph(parse_graph(again)) == again
