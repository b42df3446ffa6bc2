import copy
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planarsep import (
    articulation_count,
    bfs_tree,
    compute_separator,
    cotree,
    default_bit_budget,
    dist_bfs,
    dist_compute_separator,
    dist_multi,
    sep_records,
    serialize_separator,
    transfer_weights,
    tree_from_edges,
)
from planarsep import congest, dist, treecotree
from planarsep.congest import PhaseTrace, Simulator, VertexProgram, broadcast_root, log2ceil
from planarsep.dist import (
    CASE_BALANCED,
    BfsProgram,
    DistPipeline,
    LocalKnowledge,
    PipelineConfig,
    _part_knowledge,
    part_bfs_trees,
)
from planarsep.embedding import Dart, build_embedding
from planarsep.oracles import face_ids
from planarsep.errors import (
    BadParams,
    BitBudgetExceeded,
    ConflictingRoot,
    DegenerateTotal,
    InvalidPartition,
    NegativeWeight,
    NotProper,
    NotSpanningTree,
    PlanarSepError,
    UnknownRoot,
)
from planarsep.biconnect import _augment_once, biconnect
from planarsep.generators import (
    cycle_chords,
    cut_chain,
    cylinder,
    grid,
    joined_grids,
    merge_at_vertex,
    pinned_critical_instance,
    proper_random_weights,
    random_triangulation,
    two_level_parts,
    wheel,
)
from planarsep.separator import find_balanced_or_critical
from planarsep.treecotree import SpanningTree, dual_subtree_sums, part_members
from planarsep.verify import verify_separator

# Serialized separators and `sep` records of fixed runs, pinned so that a
# change both engines share (result building, closing edges, records)
# cannot drift unnoticed.  Regenerate only when a change sets out to alter
# the results:
#
#     PYTHONPATH=src python3 tests/test_dist.py
GOLDEN_RESULTS = Path(__file__).parent / "golden" / "results.json"


def _result_snapshot(separator: str, records: str) -> dict:
    return {"separator": separator, "records": records}


def _golden(key: str) -> dict:
    return json.loads(GOLDEN_RESULTS.read_text())[key]


def _full_run(g, tree=None, scramble=None):
    """Every vertex's store after run_all on g's own rotations, one part,
    the output and the pipeline's dart table (stores hold dart ids)."""
    tree = tree if tree is not None else bfs_tree(g, 0)
    pipe = DistPipeline(
        g=g,
        part_of=[0] * g.n,
        global_rot={v: tuple(g.rotation[v]) for v in range(g.n)},
        trees={0: tree},
        tree_roots={0: tree.root},
        weights=list(g.vertex_weight),
        config=PipelineConfig(scramble=scramble),
    )
    outputs = pipe.run_all()
    return [pipe.know[v].store for v in range(g.n)], outputs[0], pipe.darts


def _pipeline(g, part_of, trees):
    """The pipeline dist_multi builds: the rotations _part_knowledge
    installs, the given part trees, g's weights."""
    return DistPipeline(
        g=g, part_of=part_of, global_rot=_part_knowledge(g, part_of), trees=trees,
        tree_roots={pid: t.root for pid, t in trees.items()},
        weights=list(g.vertex_weight), config=PipelineConfig(),
    )


def test_pipeline_builds_no_bfs_tree(grid4, monkeypatch):
    """A run builds no BFS tree: the aggregations run on T, and
    dist_multi's partition check builds no trees."""
    t = bfs_tree(grid4, 0)
    g, part_of = two_level_parts(8, 2)
    trees = part_bfs_trees(g, part_of)
    calls = []
    real = treecotree._layered_tree
    monkeypatch.setattr(
        treecotree, "_layered_tree", lambda *a: calls.append(a[1]) or real(*a)
    )
    _, out, _ = _full_run(grid4, t)
    assert out.case == "critical-virtual"
    assert len(calls) <= 1
    assert calls == []
    dist_multi(g, part_of, trees)
    assert calls == []


def test_unknown_backend_is_refused_before_any_work(grid4, monkeypatch):
    """An unknown backend raises BadParams at dist_multi's entry, before
    the partition check, biconnect or any phase."""
    def started(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("part_bfs_trees", "require_proper", "_part_knowledge", "biconnect"):
        monkeypatch.setattr(dist, name, started)
    monkeypatch.setattr(Simulator, "run", started)
    t = bfs_tree(grid4, 0)
    with pytest.raises(BadParams):
        dist_compute_separator(grid4, t, backend="bogus")
    with pytest.raises(BadParams):
        dist_multi(grid4, [0] * 16, {0: t}, backend="bogus")
    with pytest.raises(BadParams):  # a pipeline built directly checks it too
        PipelineConfig(backend="bogus")


def test_dist_bfs_equals_sequential(grid4):
    t = bfs_tree(grid4, 0)
    dt, trace = dist_bfs(grid4, 0)
    assert dt.parent == t.parent
    assert dt.depth == t.depth
    assert dt.edges == t.edges
    assert trace.rounds_executed <= t.height() + 3


def test_dist_bfs_path_rounds():
    from planarsep.generators import path_graph

    g = path_graph(10)
    dt, trace = dist_bfs(g, 0)
    assert dt.depth[9] == 9
    assert trace.rounds_executed <= 9 + 3


def test_conflicting_roots_detected(grid4):
    darts = grid4.dart_table
    know = [
        LocalKnowledge(
            vid=v, weight=grid4.vertex_weight[v], rotation=darts.rot[v],
            parent_dart=None, child_darts=(),
            tree_root=15 if v == 15 else 0,  # vertex 15 believes it is a second root
        )
        for v in range(grid4.n)
    ]
    with pytest.raises(ConflictingRoot):
        Simulator(darts).run(BfsProgram(darts), know, PhaseTrace("bfs"))


def test_pipeline_refuses_a_root_its_tree_does_not_have(grid4):
    """A part's given root must be its tree's root: T is not re-rooted."""
    tree = bfs_tree(grid4, 0)
    with pytest.raises(ConflictingRoot):
        DistPipeline(
            g=grid4, part_of=[0] * grid4.n,
            global_rot={v: tuple(grid4.rotation[v]) for v in range(grid4.n)},
            trees={0: tree}, tree_roots={0: 5},
            weights=list(grid4.vertex_weight), config=PipelineConfig(),
        )


def _same_tree(a, b):
    return (a.root, a.parent, a.parent_edge, a.depth, a.edges) == (
        b.root, b.parent, b.parent_edge, b.depth, b.edges
    )


@pytest.mark.parametrize("copies", [[0, 1], [3, 5]])
def test_dist_bfs_over_parallel_edges(copies):
    """The 4-cycle 0-1-2-3 with edge 1-2 doubled: the root ignores its own
    wave coming back over the second copy, and a parent edge is the
    smallest copy, as bfs_tree picks it, whatever the copy labels."""
    g = _cycle_with_copies(copies, length=4, at=1)
    for root in range(g.n):
        dt, _ = dist_bfs(g, root)
        assert _same_tree(dt, bfs_tree(g, root)), root


@settings(max_examples=30, deadline=None)
@given(
    length=st.integers(3, 20),
    at=st.integers(0, 19),
    labels=st.sets(st.integers(0, 2**40), min_size=1, max_size=6),
    root=st.integers(0, 19),
)
def test_dist_bfs_equals_sequential_with_copy_labels(length, at, labels, root):
    g = _cycle_with_copies(sorted(labels), length, at % length)
    dt, _ = dist_bfs(g, root % length)
    assert _same_tree(dt, bfs_tree(g, root % length))


@pytest.mark.parametrize("root", [-1, 16])
def test_dist_bfs_unknown_root(grid4, root):
    with pytest.raises(UnknownRoot):
        bfs_tree(grid4, root)
    with pytest.raises(UnknownRoot):
        dist_bfs(grid4, root)


def _snake(rows, cols):
    """A Hamiltonian path through grid(rows, cols), row by row."""
    edges = [(r * cols + c, r * cols + c + 1, 0) for r in range(rows) for c in range(cols - 1)]
    for r in range(rows - 1):
        c = cols - 1 if r % 2 == 0 else 0
        edges.append((r * cols + c, (r + 1) * cols + c, 0))
    return edges


def test_tree_root_learns_the_given_tree(grid4):
    """After run_tree_root each vertex's parent dart and child darts are
    exactly the given tree's parent and children(), for a BFS tree, a
    Hamiltonian path rooted mid-way, the BFS trees of a partition and a
    path through copy 1 of a tripled edge; the phase sends nothing, and
    the child darts ascend."""
    g6 = grid(6, 6)
    snake = tree_from_edges(g6, _snake(6, 6), 14)
    assert snake.height() > bfs_tree(g6, 14).height()
    gp, part_of = two_level_parts(8, 2)
    gc = _cycle_with_copies(3)
    on_copy_1 = tree_from_edges(
        gc, [(v, v + 1, 0) for v in range(11) if v not in (3, 10)] + [(10, 11, 1), (0, 11, 0)], 5
    )
    assert on_copy_1.parent_edge[11] == (10, 11, 1)
    for g, part_of, trees in [
        (grid4, [0] * grid4.n, {0: bfs_tree(grid4, 5)}),
        (g6, [0] * g6.n, {0: snake}),
        (gp, part_of, part_bfs_trees(gp, part_of)),
        (gc, [0] * gc.n, {0: on_copy_1}),
    ]:
        pipe = _pipeline(g, part_of, trees)
        pipe.run_tree_root()
        (pt,) = pipe.trace.phases
        assert (pt.name, pt.honest_rounds, pt.messages, pt.charged_rounds) == ("tree_root", 0, 0, 0)
        assert pipe.trace.interval_lengths == [0]
        dart = pipe.darts.dart
        children = {pid: t.children() for pid, t in trees.items()}
        for v, pid in enumerate(part_of):
            tree, know = trees[pid], pipe.know[v]
            pd = know.parent_dart
            if tree.parent[v] is None:
                assert pd is None
            else:
                assert (dart(pd).tail, dart(pd).head) == (v, tree.parent[v])
                assert dart(pd).edge() == tree.parent_edge[v]
            assert [dart(d).head for d in know.child_darts] == children[pid][v]
            assert all(dart(d).tail == v for d in know.child_darts)
            assert list(know.child_darts) == sorted(know.child_darts)


def _darts_in(x):
    """Every Dart among x's keys and values, through dicts, lists, tuples
    and NamedTuples."""
    if isinstance(x, Dart):
        yield x
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _darts_in(k)
            yield from _darts_in(v)
    elif isinstance(x, (list, tuple, set, frozenset)):
        for item in x:
            yield from _darts_in(item)


@pytest.mark.parametrize("name", ["grid4", "parts8x2", "cut3x10"])
def test_no_dart_inside_the_pipeline(name):
    """Inside the engine darts are ids of the pipeline's dart table: after
    the last phase no store holds a Dart, as key or value, at any depth."""
    g, part_of = {
        "grid4": lambda: _one_part(grid(4, 4)),
        "parts8x2": lambda: two_level_parts(8, 2),
        "cut3x10": lambda: _one_part(cut_chain(3, 10, seed=1)),
    }[name]()
    pipe = _pipeline(g, part_of, part_bfs_trees(g, part_of))
    for phase in ("tree_root", "learn_faces", "learn_cotree", "face_weights",
                  "root_election", "dual_sums", "detect", "prefix", "search", "mark"):
        getattr(pipe, "run_" + phase)()
    for know in pipe.know:
        assert list(_darts_in(know.store)) == [], know.vid
        assert list(_darts_in((know.rotation, know.parent_dart, know.child_darts))) == [], know.vid
    assert "path_darts" in pipe.know[0].store


def _cycle_with_copies(copies, length=12, at=10, weights=None):
    """A cycle whose edge at-(at+1) has `copies` parallel copies (the copy
    labels, or that many from 0), nested so that consecutive copies bound a
    2-gon."""
    labels = range(copies) if isinstance(copies, int) else copies
    a, b = at, (at + 1) % length
    rot = [[(v, (v - 1) % length, 0), (v, (v + 1) % length, 0)] for v in range(length)]
    rot[a] = [(a, (a - 1) % length, 0)] + [(a, b, c) for c in labels]
    rot[b] = [(b, a, c) for c in reversed(labels)] + [(b, (b + 1) % length, 0)]
    return build_embedding(length, rot, weights)


@pytest.mark.parametrize("copies", [16, 17, 40])
def test_many_parallel_copies_agree(copies):
    """Many parallel copies still name their darts on the wire: every copy
    is one more dart at its tail, so the name width grows with the degree."""
    g = _cycle_with_copies(copies)
    tree = bfs_tree(g, 0)
    seq = compute_separator(g, tree)
    assert seq.case == "critical-leaf"
    for backend in ("honest", "charged"):
        out, _ = dist_compute_separator(g, tree, backend=backend)
        assert serialize_separator(out.result) == serialize_separator(seq), backend
        assert out.records() == sep_records(g, tree, seq), backend


def _outcome(run):
    """What a call gives: its value, or the type of the typed error it raised."""
    try:
        return run()
    except PlanarSepError as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(3, 30),
    at=st.integers(0, 29),
    labels=st.sets(st.integers(0, 2**70), min_size=1, max_size=8),
    root=st.integers(0, 29),
    data=st.data(),
)
def test_arbitrary_copy_labels_agree(length, at, labels, root, data):
    """Copies at arbitrary, non-consecutive labels, however wide: both
    engines and both backends give the same separator and records, or the
    same typed error.  A dart's name on the wire is its tail and its place
    among its tail's darts (dist.dart_names), so a wide label costs no
    bits."""
    weight = st.integers(8, 16) if length >= 24 else st.just(1)
    weights = data.draw(st.lists(weight, min_size=length, max_size=length))
    g = _cycle_with_copies(sorted(labels), length, at % length, weights)
    tree = bfs_tree(g, root % length)

    def seq():
        res = compute_separator(g, tree)
        return serialize_separator(res), sep_records(g, tree, res)

    def dist(backend):
        out, _ = dist_compute_separator(g, tree, backend=backend)
        return serialize_separator(out.result), out.records()

    expected = _outcome(seq)
    for backend in ("honest", "charged"):
        assert _outcome(lambda: dist(backend)) == expected, backend


def test_learn_faces_matches_canonical_ids(grid4):
    stores, _, darts = _full_run(grid4)
    ids = darts.index
    faces = face_ids(grid4)
    for v in range(grid4.n):
        for d in grid4.rotation[v]:
            assert stores[v]["face"][ids[d]] == ids[faces[d]]
            # the reverse side's face, kept at the reverse dart's tail
            assert stores[d.head]["face"][ids[d.reverse()]] == ids[faces[d.reverse()]]
            assert stores[v]["size"][ids[d]] == grid4.face(faces[d]).size


def test_learn_faces_triangle(c3):
    """Every vertex of a triangle learns both faces.  Only the phases up to
    learn_faces run: unit weights on C3 are not 1/12-proper, so there is no
    separator to ask for."""
    pipe = _pipeline(c3, [0] * 3, {0: bfs_tree(c3, 0)})
    pipe.run_tree_root()
    pipe.run_learn_faces()
    for know in pipe.know:
        assert len(set(know.store["face"].values())) == 2


def test_learn_faces_triangulation_dual_endpoints():
    g = random_triangulation(200, seed=6)
    stores, _, darts = _full_run(g)
    ids = darts.index
    faces = face_ids(g)
    for e in g.edges():
        da, db = g.darts_of_edge(e)
        assert stores[da.tail]["face"][ids[da]] == ids[faces[da]]
        assert stores[db.tail]["face"][ids[db]] == ids[faces[db]]
        for d in (da, db):
            assert stores[d.tail]["size"][ids[d]] == g.face(faces[d]).size


def _ring_walks(rotations):
    """Every face ring, walked over the installed per-vertex rotations: its
    darts in ring order, each followed by the rotation successor of its
    reverse."""
    succ = {a: b for rot in rotations for a, b in zip(rot, rot[1:] + rot[:1])}
    seen, rings = set(), []
    for d in succ:
        if d in seen:
            continue
        ring = [d]
        while (x := succ[ring[-1].reverse()]) != d:
            ring.append(x)
        seen.update(ring)
        rings.append(ring)
    return rings


def _rings(rotations):
    """Face id (minimum dart) and size of every installed dart's ring."""
    face, size = {}, {}
    for ring in _ring_walks(rotations):
        for x in ring:
            face[x], size[x] = min(ring), len(ring)
    return face, size


def _ring_tokens(ring, names, width):
    """The token sends of learn_faces' filtered min rule on one ring of
    Darts with their wire names, round by round, as (token, receiving
    dart) pairs.

    A position's filter starts at min(own name, (head + 1) * width): its
    successor's name, tail head, is below every name whose tail is larger.
    At round 0 a position sends its own name only if its head exceeds its
    tail, i.e. if its name is below (head + 1) * width; later it forwards
    an arriving token below its filter, which then takes the token's value.  A token back at
    its origin stops there."""
    k = len(ring)
    x = [names[d] for d in ring]
    best = [min(x[i], (d.head + 1) * width) for i, d in enumerate(ring)]
    moving = [i for i, d in enumerate(ring) if d.head > d.tail]
    sends = []
    for t in range(1, k + 1):  # round t delivers what round t - 1 sent
        alive = []
        for i in moving:
            j = (i + t) % k
            sends.append((x[i], ring[j]))
            if j != i and x[i] < best[j]:
                best[j] = x[i]
                alive.append(i)
        moving = alive
    return sends


def _learn_faces(g, part_of):
    """learn_faces alone on the rotations dist_multi installs; returns the
    stores, the phase's trace, the installed rotations and the dart table."""
    pipe = _pipeline(g, part_of, part_bfs_trees(g, part_of))
    pipe.run_learn_faces()
    phase, = pipe.trace.phases
    rot = _part_knowledge(g, part_of)
    return [know.store for know in pipe.know], phase, [rot[v] for v in range(g.n)], pipe.darts


def _one_part(g):
    return g, [0] * g.n


FACE_CASES = {
    "grid4": lambda: _one_part(grid(4, 4)),
    "tri200": lambda: _one_part(random_triangulation(200, seed=6)),
    "cut3x10": lambda: _one_part(cut_chain(3, 10, seed=1)),
    "c40c6": lambda: _one_part(cycle_chords(40, 6, seed=1)),
    "parts8x2": lambda: two_level_parts(8, 2),
    "wheel24": lambda: _one_part(wheel(24)),  # the hub's degree sets the name width
}


@pytest.mark.parametrize("name", ["grid4", "parts8x2", "cut3x10"])
def test_dart_names_sort_as_ids_and_decode(name):
    """A dart's name on the wire, tail * width + rank, holds its tail,
    ascends as ids do and decodes back to its id: on g's own table, on g's
    table restricted to several parts and on a table with virtual darts."""
    g, part_of = FACE_CASES[name]()
    darts = _pipeline(g, part_of, part_bfs_trees(g, part_of)).darts
    if name == "parts8x2":
        assert darts is not g.dart_table and darts.index is g.dart_table.index
    if name == "cut3x10":
        assert len(darts) > 2 * g.m
    names, width = dist.dart_names(darts)
    assert width == max(darts.lo[v + 1] - darts.lo[v] for v in range(g.n))
    assert [x // width for x in names] == darts.tail
    assert all(a < b for a, b in zip(names, names[1:]))
    assert [dist.dart_of_name(darts, width, x) for x in names] == list(range(len(darts)))


@pytest.mark.parametrize("name", sorted(FACE_CASES))
def test_learn_faces_match_installed_rings(name):
    """Face id, size and the reverse side's face id (kept at the reverse
    dart's tail) of every installed dart, virtual darts (cut3x10) and
    several parts (parts8x2) included."""
    g, part_of = FACE_CASES[name]()
    stores, _, rotations, darts = _learn_faces(g, part_of)
    ids = darts.index
    face, size = _rings(rotations)
    if name == "cut3x10":
        assert len(face) > 2 * g.m  # the augmentation's virtual darts
    for v, rot in enumerate(rotations):
        assert stores[v]["face"] == {ids[d]: ids[face[d]] for d in rot}
        assert stores[v]["size"] == {ids[d]: size[d] for d in rot}
        assert {ids[d]: stores[d.head]["face"][ids[d.reverse()]] for d in rot} == {
            ids[d]: ids[face[d.reverse()]] for d in rot
        }


@pytest.mark.parametrize("name", sorted(FACE_CASES))
def test_learn_faces_costs(name, monkeypatch):
    """Min-filtered tokens that go only where the ring successor keeps
    them, plus one announcement lap that stops one hop short of the
    minimum.  Every token the program receives is one the ring oracle
    sends, where it sends it, and none reaches a position whose own name is
    smaller; so the phase's messages are the oracle's tokens plus |f| - 1
    announcements per face.  Nothing is dropped, the phase takes 2·max|f|
    rounds, and a face costs at most |f|(|f|+1)/2 tokens plus |f| - 1
    announcements, below the |f|² + |f| of rotating every token around the
    whole face.  The widest frame is a token of the widest name the oracle
    sends, behind a 3-bit tag; the largest name is never sent."""
    g, part_of = FACE_CASES[name]()
    received = []
    step = dist.LearnFacesProgram.step

    def recording_step(self, r, know, st, inbox):
        received.extend(
            (payload[1], self.succ[k]) for k, payload in inbox.items() if payload[0] == dist.T_TOK
        )
        return step(self, r, know, st, inbox)

    monkeypatch.setattr(dist.LearnFacesProgram, "step", recording_step)
    _, phase, rotations, darts = _learn_faces(g, part_of)
    ids = darts.index
    rings = _ring_walks(rotations)
    sizes = [len(ring) for ring in rings]
    names, width = dist.dart_names(darts)
    by_dart = {d: names[ids[d]] for ring in rings for d in ring}
    sends = [s for ring in rings for s in _ring_tokens(ring, by_dart, width)]
    assert sorted(received) == sorted((x, ids[d]) for x, d in sends)
    assert all(x <= names[slot] for x, slot in received)
    assert phase.messages == len(sends) + sum(k - 1 for k in sizes)
    assert phase.max_bits == 3 + max(x for x, _ in sends).bit_length()
    assert max(x for x, _ in sends) < max(by_dart.values())
    assert phase.dropped == 0
    assert phase.honest_rounds == 2 * max(sizes)
    assert phase.messages <= sum(k * (k + 1) // 2 + k - 1 for k in sizes)
    assert phase.messages < sum(k * k + k for k in sizes)


def _part_outputs(outputs):
    return {
        pid: (serialize_separator(out.result), out.records()) for pid, out in outputs.items()
    }


def test_multi_part_pipeline_runs_on_the_graphs_dart_ids(monkeypatch):
    """Parts that keep g's rotations, filtered to the part, run on g's dart
    ids, reverses and index; only rotations and successors are built, and
    every counter and output equals a pipeline's that numbers its own
    darts.  A part with virtual darts keeps a table of its own, and a
    bi-connected single part runs on g's table itself."""
    g, part_of = two_level_parts(8, 2)
    trees = part_bfs_trees(g, part_of)
    shared = _pipeline(g, part_of, trees)
    table = shared.darts
    assert table is not g.dart_table
    assert table.index is g.dart_table.index and table.rev is g.dart_table.rev
    assert sum(map(len, table.rot)) < len(table)  # inter-part darts carry nothing
    shared_out = shared.run_all()
    monkeypatch.setattr(dist, "_shared_table", lambda *a: None)
    own = _pipeline(g, part_of, trees)
    assert len(own.darts) == sum(map(len, own.darts.rot))
    assert _part_outputs(own.run_all()) == _part_outputs(shared_out)
    assert own.trace == shared.trace
    monkeypatch.undo()

    g = cut_chain(3, 10, seed=1)
    assert _pipeline(g, [0] * g.n, {0: bfs_tree(g, 0)}).darts.index is not g.dart_table.index
    g = grid(4, 4)
    assert _pipeline(g, [0] * g.n, {0: bfs_tree(g, 0)}).darts is g.dart_table


def test_scramble_leaves_every_store_equal(grid4):
    base, _, _ = _full_run(grid4)
    again, _, _ = _full_run(grid4, scramble=5)
    assert again == base


def test_learn_cotree_flags(grid4):
    """A dart is a cotree dart iff it is neither the parent dart nor a
    child dart."""
    t = bfs_tree(grid4, 0)
    pipe = _pipeline(grid4, [0] * grid4.n, {0: t})
    for know in pipe.know:
        for d in know.rotation:
            is_cotree = d != know.parent_dart and d not in know.child_darts
            assert is_cotree == (pipe.darts.dart(d).edge() not in t.edges)


def test_face_weights_match_sequential(grid4, tri60):
    for g in (grid4, tri60, cycle_chords(12, 3, seed=1), cylinder(3, 5)):
        stores, _, darts = _full_run(g)
        dart = darts.dart
        seq = transfer_weights(g)
        ids = [f.id for f in g.faces]
        faces = face_ids(g)
        # the corner's face is the chosen face
        assert [faces[dart(st["corner"])] for st in stores] == [ids[f] for f in seq.chosen_face]
        for v, st in enumerate(stores):
            assert dart(st["corner"]) == min(
                d for d in g.rotation[v] if faces[d] == ids[seq.chosen_face[v]]
            )
        # no store holds a face total: a face's weight is its dual
        # subtree's weight minus the subtrees of its dual children
        subtree = {}
        for st in stores:
            for fid, sub in st["subtrees"].items():
                subtree[g.face_number(dart(fid))] = sub.weight
        face_weight = dict(subtree)
        for f, parent in enumerate(cotree(g, bfs_tree(g, 0)).dual_parent):
            if parent is not None:
                face_weight[parent] -= subtree[f]
        assert face_weight == dict(enumerate(seq.face_weight))


def test_face_rings_stay_subquadratic():
    """The weight transfer is local: the face_weights phase sends nothing,
    and outside learn_faces no phase rotates shares around whole faces, so
    messages grow about linearly on a cycle whose outer face is the cycle."""
    counts = []
    for n in (100, 200, 400):
        g = cycle_chords(n, n // 6, seed=1)
        _, trace = dist_compute_separator(g, bfs_tree(g, 0))
        fw, = (p for p in trace.phases if p.name == "face_weights")
        assert (fw.honest_rounds, fw.messages, fw.charged_rounds) == (0, 0, 0)
        counts.append(sum(p.messages for p in trace.phases if p.name != "learn_faces"))
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.5 * small, counts


def test_phase_rounds_within_tree_height():
    """Outside learn_faces no phase walks a face ring: on a cycle whose
    outer face holds every vertex, each takes O(height(T)) honest rounds."""
    for n in (100, 200, 300, 400):
        g = cycle_chords(n, n // 6, seed=1)
        t = bfs_tree(g, 0)
        _, trace = dist_compute_separator(g, t)
        for p in trace.phases:
            if p.name != "learn_faces":
                assert p.honest_rounds <= 6 * (t.height() + 1), (n, p.name, p.honest_rounds)


@pytest.mark.parametrize("make", [
    lambda: grid(12, 12),
    lambda: random_triangulation(300, 2),
    lambda: cycle_chords(120, 20, 1),
    lambda: cycle_chords(12, 0),
], ids=["grid12", "tri300", "cycle120", "c12"])
def test_detect_follows_t(make):
    """Detect's aggregations run on T, whatever its root: one election,
    and a second only in the virtual critical case, each one convergecast
    and one broadcast, 2·height(T)+1 honest rounds; the separator
    serializes as the sequential engine's."""
    g = make()
    for root in (0, g.n // 2):
        t = bfs_tree(g, root)
        out, trace = dist_compute_separator(g, t)
        detect = next(p for p in trace.phases if p.name == "detect")
        calls = 2 if out.result.case == "critical-virtual" else 1
        assert detect.honest_rounds == calls * (2 * t.height() + 1), root
        assert serialize_separator(out.result) == serialize_separator(compute_separator(g, t))


def _check_dual_sums(g, t, stores, darts):
    """Every face's distributed subtree weight, dart count and anchor
    equal the sequential dual tree's, and sit at the endpoints
    the contour pass names.  g is the graph the pipeline runs on: the
    bi-connected one where the input has cut vertices."""
    dart = darts.dart
    pair = cotree(g, t)
    R = g.rotation[t.root][0]  # the dual root's anchor
    seq = dual_subtree_sums(pair, transfer_weights(g).face_weight)
    # the critical election ranks heavy faces by their subtree's dart count
    face_darts = dual_subtree_sums(pair, [f.size for f in g.faces])
    faces = face_ids(g)
    holders = {}
    for v in range(g.n):
        for fid, sub in stores[v]["subtrees"].items():
            fid = dart(fid)
            f = g.face_number(fid)
            holders.setdefault(f, set()).add(v)
            assert sub.weight == seq[f]
            assert sub.darts == face_darts[f]
            assert sub.size == g.face(fid).size
            has_children = sub.darts > sub.size
            assert has_children == (f in pair.dual_parent)
            assert faces[dart(sub.parent_dart)] == fid
            if f == pair.dual_root:
                assert dart(sub.parent_dart) == R
            else:
                assert dart(sub.parent_dart).edge() == pair.dual_parent_edge[f]
    # a face's sums sit at the endpoints of its anchor: its dual parent
    # edge, or R at the dual root
    for f in range(len(g.faces)):
        if f == pair.dual_root:
            assert holders[f] == {R.tail, R.head}
        else:
            assert holders[f] == set(pair.dual_parent_edge[f][:2])


def test_dual_subtree_sums_match_sequential(tri60):
    t = bfs_tree(tri60, 0)
    stores, _, darts = _full_run(tri60, t)
    _check_dual_sums(tri60, t, stores, darts)


def _contour(pipe, root):
    """The contour of T over a one-part pipeline's installed rotations, an
    oracle for ContourProgram: from the tree root's first dart, a tree dart
    d is followed by succ(rev(d)), any other dart d by succ(d)."""
    darts = pipe.darts
    tree = {d for know in pipe.know for d in know.child_darts}
    tree |= {darts.rev[d] for d in tree}
    start = d = darts.rot[root][0]
    contour = []
    while True:
        contour.append(d)
        d = darts.succ[darts.rev[d]] if d in tree else darts.succ[d]
        if d == start:
            return contour


def _check_prefixes(pipe, contour):
    """Every own dart's published weight prefix is the weight marked at
    the contour positions from R, the tree root's first dart, up to and
    including the dart."""
    know = pipe.know
    assert contour[0] == pipe.darts.rot[know[0].tree_root][0]  # R
    marks = {k.store["corner"]: k.weight for k in know}
    prefix, acc = {}, 0
    for d in contour:
        acc += marks.get(d, 0)
        prefix[d] = acc
    for k in know:
        assert k.store["prefix"] == tuple(prefix[d] for d in k.rotation), k.vid


def _run_one_part(g, t):
    """run_all on the rotations dist_compute_separator installs; returns
    the pipeline, its stores and its output, checked against the
    sequential engine's."""
    pipe = _pipeline(g, [0] * g.n, {0: t})
    out = pipe.run_all()[0]
    seq = compute_separator(g, t)
    assert serialize_separator(out.result) == serialize_separator(seq)
    assert out.records() == sep_records(g, t, seq)
    return pipe, [know.store for know in pipe.know]


WRAP_CASES = {
    "grid4": lambda: grid(4, 4),
    "c12c3": lambda: cycle_chords(12, 3, seed=1),
    "tri60s3": lambda: random_triangulation(60, seed=3),
    "cut3x10": lambda: cut_chain(3, 10, seed=1),
}


def test_contour_wraps_at_every_tree_root():
    """Counted from R, the tree root's first dart, the contour wraps at the
    tree root: R sits at position 0, its face is the dual root, and the
    last position's prefix is the total weight, so nothing carries over
    the wrap.  Over every tree root of four graphs the weight prefixes
    count from R, the distributed dual sums equal the sequential ones and
    both engines agree."""
    runs = 0
    for make in WRAP_CASES.values():
        g = make()
        gb = biconnect(g)
        for root in range(g.n):
            t = bfs_tree(g, root)
            pipe, stores = _run_one_part(g, t)
            _check_dual_sums(gb, t, stores, pipe.darts)
            contour = _contour(pipe, root)
            assert len(contour) == stores[0]["total_darts"]
            R = contour[0]
            assert stores[root]["subtrees"][stores[root]["face"][R]].darts == len(contour)
            _check_prefixes(pipe, contour)
            last = contour[-1]
            holder = pipe.know[pipe.darts.tail[last]]
            prefix = holder.store["prefix"][holder.rotation.index(last)]
            assert prefix == stores[0]["total_weight"]
            runs += 1
    assert runs == 116


@pytest.mark.parametrize("make,root", [
    (lambda: random_triangulation(20, seed=1), 11),
    (lambda: cylinder(3, 5), 13),
])
def test_contour_from_the_tree_roots_first_dart(make, root):
    """R is the tree root's first dart, so the contour counted from R is
    the contour counted from the tree root, with no wrap."""
    g = make()
    t = bfs_tree(g, root)
    pipe, stores = _run_one_part(g, t)
    contour = _contour(pipe, root)
    assert contour[0] == pipe.darts.rot[root][0]
    assert stores[root]["subtrees"][stores[root]["face"][contour[0]]].darts == len(contour)
    _check_prefixes(pipe, contour)
    _check_dual_sums(g, t, stores, pipe.darts)


COUNT_CASES = {
    "grid6": lambda: _one_part(grid(6, 6)),
    "tri80": lambda: _one_part(random_triangulation(80, seed=4)),
    "c30c5": lambda: _one_part(cycle_chords(30, 5, seed=1)),
    "cut3x10": lambda: _one_part(cut_chain(3, 10, seed=1)),
    "parts8x2": lambda: two_level_parts(8, 2),
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_dual_sums_message_count(name):
    """Three frames per tree edge (the subtree's sums up, the part's totals
    and the segment's start down) and one each way across every cotree
    edge, in at most 2·height(T)+3 honest rounds.  The dual root needs no
    election: that phase books nothing."""
    g, part_of = COUNT_CASES[name]()
    trees = part_bfs_trees(g, part_of)
    pipe = _pipeline(g, part_of, trees)
    pipe.run_all()
    phase, = (p for p in pipe.trace.phases if p.name == "dual_subtree_sums")
    edges = sum(map(len, pipe.darts.rot)) // 2  # virtual edges (cut3x10) included
    tree_edges = g.n - len(trees)
    assert phase.messages == 3 * tree_edges + 2 * (edges - tree_edges)
    assert phase.honest_rounds <= 2 * max(t.height() for t in trees.values()) + 3
    election, = (p for p in pipe.trace.phases if p.name == "root_election")
    assert (
        election.honest_rounds, election.messages, election.pa_calls, election.charged_rounds
    ) == (0, 0, 0, 0)


def test_phase_rounds_flat_at_constant_diameter():
    """Capped cylinders of height 4 keep their diameter as they widen, so
    no phase's honest rounds may grow by more than a log factor; the dual
    subtree sums take two waves over T and one exchange."""
    rounds, sizes = [], []
    for width in (16, 32, 64, 128, 256):
        g = cylinder(4, width)
        t = bfs_tree(g, 0)
        _, trace = dist_compute_separator(g, t)
        rounds.append({p.name: p.honest_rounds for p in trace.phases})
        sizes.append(g.n)
        assert rounds[-1]["dual_subtree_sums"] <= 2 * t.height() + 3
    log_factor = log2ceil(sizes[-1] + 1) / log2ceil(sizes[0] + 1)
    for name, first in rounds[0].items():
        assert rounds[-1][name] <= first * log_factor, name


def test_detect_matches_sequential(grid4, tri60, c12):
    for g in (grid4, tri60, c12):
        t = bfs_tree(g, 0)
        stores, _, darts = _full_run(g, t)
        kind = "balanced" if stores[0]["case_code"] == CASE_BALANCED else "critical"
        # the face and its weight sit with its subtree sums, at its holders
        # (in a critical-leaf part only they learn the face)
        holder = next(s for s in stores if s["case_face"] in s["subtrees"])
        face = holder["case_face"]
        subtree = holder["subtrees"][face].weight
        pair = cotree(g, t)
        seq = find_balanced_or_critical(pair, transfer_weights(g).face_weight)
        assert (kind, darts.dart(face), subtree) == (
            seq.kind, g.faces[seq.face].id, seq.subtree_weight
        )


ENGINE_CASES = [
    ("grid4", lambda: grid(4, 4), None),
    ("grid8", lambda: grid(8, 8), None),
    ("grid5x9", lambda: grid(5, 9), None),
    ("c12", lambda: cycle_chords(12, 0), None),
    ("c20c5", lambda: cycle_chords(20, 5, seed=2), None),
    ("tri60", lambda: random_triangulation(60, seed=2), None),
    ("tri200", lambda: random_triangulation(200, seed=11), None),
    ("cut3x10", lambda: cut_chain(3, 10, seed=1), None),
    ("grid6w", lambda: grid(6, 6), proper_random_weights(36, 5)),
]


def _roots(g):
    return (0, g.n // 2, g.n - 1)


@pytest.mark.parametrize("name,make,weights", ENGINE_CASES)
def test_engine_equivalence(name, make, weights):
    g = make()
    for root in _roots(g):
        t = bfs_tree(g, root)
        seq = compute_separator(g, t, weights)
        out, trace = dist_compute_separator(g, t, weights)
        assert serialize_separator(out.result) == serialize_separator(seq)
        assert out.records() == sep_records(g, t, seq)
        assert _result_snapshot(
            serialize_separator(seq), sep_records(g, t, seq)
        ) == _golden(f"{name} root {root}")
        assert trace.max_bits_per_edge_per_round <= default_bit_budget(g.n)
        assert verify_separator(g, weights, out.result.path).passed


def test_pinned_critical_both_engines():
    g, tree_edges, eu, ev = pinned_critical_instance()
    t = tree_from_edges(g, tree_edges, root=0)
    seq = compute_separator(g, t)
    out, trace = dist_compute_separator(g, t)
    assert (out.result.u, out.result.v) == (eu, ev) == (seq.u, seq.v)
    assert serialize_separator(out.result) == serialize_separator(seq)
    assert out.result.closing.kind == "virtual"
    _check_claim_wave(g, [0] * g.n, {0: t})
    assert out.records() == sep_records(g, t, seq)
    assert _result_snapshot(
        serialize_separator(seq), sep_records(g, t, seq)
    ) == _golden("pinned-critical")


def test_scramble_leaves_output_unchanged(grid4):
    t = bfs_tree(grid4, 0)
    base, base_trace = dist_compute_separator(grid4, t)
    for scramble in (3, 77):
        again, trace = dist_compute_separator(grid4, t, scramble=scramble)
        assert serialize_separator(again.result) == serialize_separator(base.result)
        assert trace == base_trace


@pytest.mark.parametrize("bits", [60, 100, 200])
def test_huge_weights_same_result_in_both_engines(bits):
    """A frame carries at most two weight sums, so the default budget grows
    with the total weight: weights near 2^bits give the sequential result
    instead of BitBudgetExceeded.  An explicit budget is kept as given."""
    rng = random.Random(bits)
    for g in (grid(6, 6), random_triangulation(60, 3), cycle_chords(30, 5, 1)):
        w = [2**bits + rng.randrange(2 ** (bits - 1)) for _ in range(g.n)]
        t = bfs_tree(g, 0)
        seq = compute_separator(g, t, w)
        out, _ = dist_compute_separator(g, t, w)
        assert serialize_separator(out.result) == serialize_separator(seq)
        assert out.records() == sep_records(g, t, seq)
        with pytest.raises(BitBudgetExceeded):
            dist_compute_separator(g, t, w, bit_budget=default_bit_budget(g.n))


def test_charged_backend_same_output(grid4):
    t = bfs_tree(grid4, 0)
    honest, tr_h = dist_compute_separator(grid4, t, backend="honest")
    charged, tr_c = dist_compute_separator(grid4, t, backend="charged")
    assert serialize_separator(honest.result) == serialize_separator(charged.result)
    assert tr_c.charged_rounds > 0


def _part_graph(g, members, tree):
    """A part's induced sub-embedding, relabelled in ascending member order
    as dist_multi does, with its tree; g itself for a part of every vertex."""
    if len(members) == g.n:
        return g, tree
    to_local = {v: i for i, v in enumerate(members)}
    rot = [
        [Dart(i, to_local[d.head], d.copy) for d in g.rotation[v] if d.head in to_local]
        for i, v in enumerate(members)
    ]
    sub = build_embedding(len(members), rot, [g.vertex_weight[v] for v in members])
    edges = [(to_local[a], to_local[b], c) for a, b, c in tree.edges]
    return sub, tree_from_edges(sub, edges, to_local[tree.root])


def _check_claim_wave(g, part_of, trees):
    """mark_search is one claim convergecast and one endpoint broadcast:
    2·height(T)+1 honest rounds (the tallest part's) and one message each
    way on every tree edge.  mark_prefix is one frame from each ring
    position to its successor: 2 honest rounds.  In a critical-virtual
    part, every ring position t in 2..k-2 holds its sequential boundary
    dart and s_t, and exactly one vertex, the sequential v_{j+1}, found
    itself to be u from its predecessor's heavy bit.  Returns the number
    of critical-virtual parts."""
    pipe = _pipeline(g, part_of, trees)
    outs = pipe.run_all()
    phase = next(p for p in pipe.trace.phases if p.name == "mark_search")
    assert phase.honest_rounds == 2 * max(t.height() for t in trees.values()) + 1
    assert phase.messages == 2 * (g.n - len(trees))
    assert phase.charged_rounds == pipe._unit and phase.probes == 0
    virtual = 0
    for pid, members in part_members(part_of).items():
        if outs[pid].case != "critical-virtual":
            continue
        virtual += 1
        sub, tree = _part_graph(g, members, trees[pid])
        diag = compute_separator(sub, tree).diagnostics
        j, s, vs = diag["j"], diag["s"], diag["scan"].vs
        boundary = [Dart(members[d.tail], members[d.head], d.copy) for d in diag["scan"].boundary]
        stores = {members[i]: pipe.know[members[i]].store for i in range(len(members))}
        assert [x for x, st in stores.items() if st["prefix_u"]] == [members[vs[j]]]
        assert stores[members[vs[j]]]["prefix_s"] == s[j] == outs[pid].result.interior_weight
        for t in range(2, len(vs) - 1):
            assert pipe.darts.dart(stores[members[vs[t - 1]]]["prefix_pos"]) == boundary[t - 1]
            assert stores[members[vs[t - 1]]]["prefix_s"] == s[t - 1]
    prefix = next(p for p in pipe.trace.phases if p.name == "mark_prefix")
    assert prefix.honest_rounds == (2 if virtual else 1)
    return virtual


def test_probe_monotonicity_and_count():
    """The search for j is gone: the claim wave's rounds and messages are
    exact, and the ring positions' heavy bits pick the sequential j.  Under
    a BFS tree the pinned instance's critical face is the dual root, whose
    anchor is its canonical dart; under its pinned tree it is not."""
    pinned, tree_edges, _, _ = pinned_critical_instance()
    for g, tree in (
        (grid(8, 8), None),
        (pinned, tree_from_edges(pinned, tree_edges, root=0)),
        (pinned, bfs_tree(pinned, 0)),
        (cycle_chords(40, 6, seed=1), None),
    ):
        tree = tree or bfs_tree(g, 0)
        assert _check_claim_wave(g, [0] * g.n, {0: tree}) == 1
    g, part_of = two_level_parts(8, 2)
    assert _check_claim_wave(g, part_of, part_bfs_trees(g, part_of)) >= 1


@pytest.mark.parametrize("n", [31, 32, 33])
def test_claims_pack_into_one_int(n):
    """A claim puts v + 1 above n.bit_length() bits and u + 1 below them,
    so the OR of u's and v's claims decodes to (u, v), and a claim names
    one endpoint alone, none at 0 and both in the OR."""
    shift = n.bit_length()
    ends = {0, 1, n - 2, n - 1}
    for u in ends:
        for v in ends - {u}:
            # a critical-leaf face's anchor runs from v to u
            store = {"case_anchor": 0, "case_code": dist.CASE_LEAF}

            def claim(me):
                know = LocalKnowledge(
                    vid=me, weight=0, rotation=(), parent_dart=None, child_darts=(),
                    tree_root=0, store=store,
                )
                return dist._uv_claim(know, [v], [u], shift)

            both = claim(u) | claim(v)
            assert divmod(both, 1 << shift) == (v + 1, u + 1)
            assert dist._one_end(claim(u), shift) and dist._one_end(claim(v), shift)
            assert not dist._one_end(0, shift) and not dist._one_end(both, shift)
            others = set(range(n)) - {u, v}
            assert claim(min(others)) == claim(max(others)) == 0


def test_not_proper_surfaces(grid4):
    t = bfs_tree(grid4, 0)
    with pytest.raises(NotProper):
        dist_compute_separator(grid4, t, [100] + [1] * 15)


def _negative_weights(g, seed):
    """Weights with a few negatives that still pass 1/12-properness."""
    rng = random.Random(seed)
    return [rng.choice([10, 10, 10, -rng.randint(1, 10), 3]) for _ in range(g.n)]


@pytest.mark.parametrize("make,weights", [
    (lambda: grid(8, 8), lambda g: [1] * 64 + [100]),
    (lambda: grid(8, 8), lambda g: [1] * 63),
    (lambda: cycle_chords(50, 8, seed=8), lambda g: _negative_weights(g, 8)),
    (lambda: random_triangulation(60, seed=10), lambda g: _negative_weights(g, 10)),
    (lambda: grid(8, 8), lambda g: [1.5] * 64),
], ids=["long", "short", "negative-c50", "negative-tri60", "float"])
def test_both_engines_check_the_weights_list(make, weights):
    """An override weights list passes the check build_embedding makes, one
    non-negative int per vertex, in both engines and before properness:
    NegativeWeight for a list too long or too short, a negative weight
    (here in totals that are 1/12-proper) or a float."""
    g = make()
    w, t = weights(g), bfs_tree(g, 0)
    with pytest.raises(NegativeWeight):
        compute_separator(g, t, w)
    with pytest.raises(NegativeWeight):
        dist_compute_separator(g, t, w)
    if len(w) == g.n:
        with pytest.raises(NegativeWeight):
            build_embedding(g.n, g.rotation, w)


@pytest.mark.parametrize("weight,error", [(1, NotProper), (0, DegenerateTotal)])
def test_single_vertex_same_error_in_both_engines(weight, error):
    # an edgeless graph has one face, so it embeds; as for n=2, neither
    # engine can separate it
    g = build_embedding(1, [[]], [weight])
    assert (g.n, g.m, g.f, g.euler_residual()) == (1, 0, 1, 0)
    t = bfs_tree(g, 0)
    with pytest.raises(error):
        compute_separator(g, t)
    with pytest.raises(error):
        dist_compute_separator(g, t)


def test_multi_rejects_partition_of_wrong_length(grid4):
    t = bfs_tree(grid4, 0)
    for part_of in ([0] * 15, [0] * 17):
        with pytest.raises(InvalidPartition):
            dist_multi(grid4, part_of, {0: t})


def test_multi_rejects_disconnected_part(grid4):
    part_of = [0] * 16
    part_of[0] = part_of[15] = 1  # opposite corners share a part
    t = bfs_tree(grid4, 0)
    with pytest.raises(InvalidPartition):
        dist_multi(grid4, part_of, {0: t, 1: t})


def test_multi_rejects_trees_for_other_parts():
    g, part_of = joined_grids(4, 4)
    trees = part_bfs_trees(g, part_of)
    with pytest.raises(InvalidPartition):
        dist_multi(g, part_of, {0: trees[0], 2: trees[1]})


def test_tree_not_spanning_its_part_is_typed(grid4):
    t = bfs_tree(grid4, 0)
    t.edges = t.edges - {t.parent_edge[15]}  # vertex 15 hangs from nothing
    with pytest.raises(NotSpanningTree):
        compute_separator(grid4, t)
    with pytest.raises(NotSpanningTree):
        dist_compute_separator(grid4, t)


def test_mark_separator_output_contract(grid4):
    t = bfs_tree(grid4, 0)
    _, out, _ = _full_run(grid4, t)
    res = out.result
    flagged = {v for v, view in out.views.items() if view.p_darts}
    assert flagged == set(res.path)
    assert out.views[res.u].role == "u" and out.views[res.v].role == "v"
    if res.closing.kind == "virtual":
        assert out.views[res.u].peer == res.v
        assert out.views[res.v].peer == res.u
        assert out.views[res.u].insert_before == res.closing.insert_before_u
        assert out.views[res.v].insert_before == res.closing.insert_before_v


def test_multi_two_disjoint_grids():
    g, part_of = joined_grids(4, 4)
    trees = part_bfs_trees(g, part_of)
    outs, trace = dist_multi(g, part_of, trees)
    # each part equals a standalone run on the same subgraph, mapped up
    g0 = grid(4, 4)
    t0 = bfs_tree(g0, 0)
    seq0 = compute_separator(g0, t0)
    assert outs[0].result.path == seq0.path
    assert outs[1].result.path == tuple(v + 16 for v in seq0.path)
    assert outs[0].case == outs[1].case == seq0.case


def test_multi_quadrants_verify():
    g, part_of = two_level_parts(8, 2)
    trees = part_bfs_trees(g, part_of)
    outs, trace = dist_multi(g, part_of, trees)
    assert len(outs) == 4
    members = {pid: [v for v in range(g.n) if part_of[v] == pid] for pid in outs}
    for pid, out in outs.items():
        assert _result_snapshot(
            serialize_separator(out.result), out.records()
        ) == _golden(f"parts8x2 part {pid}")
        # remove everything outside the part plus its separator path
        removed = set(out.result.path) | (set(range(g.n)) - set(members[pid]))
        rep = verify_separator(g, None, removed)
        assert rep.passed
    # shared schedule costs at most the per-phase maximum over parts
    standalone_rounds = []
    for pid in outs:
        sub = grid(4, 4)
        _, tr = dist_compute_separator(sub, bfs_tree(sub, 0))
        standalone_rounds.append(tr.rounds_executed)
    assert trace.rounds_executed <= 2 * max(standalone_rounds) + 40


def test_multi_interval_lengths_published():
    g, part_of = two_level_parts(8, 2)
    trees = part_bfs_trees(g, part_of)
    _, trace = dist_multi(g, part_of, trees)
    assert trace.interval_lengths
    assert sum(trace.interval_lengths) == trace.rounds_executed


# -- random partitions ---------------------------------------------------------
#
# Every other multi-part test runs fixed grid partitions.  Here hypothesis
# draws a generator graph, grows a random connected partition (parts with
# cut vertices, size-1 and size-2 parts among them), a random spanning tree
# and random weights per part.  Each part's dist_multi output must equal,
# byte for byte, the sequential engine's on the part's induced
# sub-embedding, relabelled in ascending member order (_part_graph, as the
# benchmark's workloads build it).  When a part cannot be separated, both
# engines must raise the same typed error.


PARTITION_GRAPHS = st.one_of(
    st.builds(grid, st.integers(4, 10), st.integers(6, 10)),
    st.builds(cylinder, st.integers(3, 5), st.integers(8, 14)),
    st.builds(random_triangulation, st.integers(30, 120), st.integers(0, 10**6)),
    st.builds(cycle_chords, st.integers(30, 80), st.integers(0, 16), st.integers(0, 10**6)),
    st.builds(cut_chain, st.integers(2, 4), st.integers(10, 16), st.integers(0, 10**6)),
)


def _grow_partition(g, rng, parts: int, tiny: int) -> list[int]:
    """Carve `tiny` parts of one or two vertices, then grow `parts` parts
    from random seeds, one random frontier vertex at a time; a vertex the
    growth cannot reach seeds a part of its own.  Every part is connected."""
    part_of = [-1] * g.n
    pid = 0
    for _ in range(tiny):
        free = [v for v in range(g.n) if part_of[v] == -1]
        if len(free) < 2:
            break
        v = rng.choice(free)
        part_of[v] = pid
        if rng.random() < 0.5:
            nbrs = [d.head for d in g.rotation[v] if part_of[d.head] == -1]
            if nbrs:
                part_of[rng.choice(nbrs)] = pid
        pid += 1
    while -1 in part_of:
        free = [v for v in range(g.n) if part_of[v] == -1]
        frontiers = {}
        for v in rng.sample(free, min(parts, len(free))):
            part_of[v] = pid
            frontiers[pid] = [d.head for d in g.rotation[v]]
            pid += 1
        while frontiers:
            p = rng.choice(sorted(frontiers))
            frontier = frontiers[p]
            v = frontier.pop(rng.randrange(len(frontier)))
            if part_of[v] == -1:
                part_of[v] = p
                frontier.extend(d.head for d in g.rotation[v])
            if not frontier:
                del frontiers[p]
        parts = 1
    return part_of


def _random_tree(g, part_of, members, rng):
    """Kruskal over the part's edges in random order, rooted anywhere; in
    global ids, with depth -1 and no parent outside the part."""
    edges = [e for e in g.edges() if part_of[e[0]] == part_of[e[1]] == part_of[members[0]]]
    rng.shuffle(edges)
    comp = {v: v for v in members}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    adj = {v: [] for v in members}
    chosen = set()
    for a, b, c in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            chosen.add((a, b, c))
            adj[a].append((b, (a, b, c)))
            adj[b].append((a, (a, b, c)))
    root = rng.choice(members)
    parent, parent_edge, depth = [None] * g.n, [None] * g.n, [-1] * g.n
    depth[root] = 0
    queue = [root]
    for v in queue:
        for u, e in adj[v]:
            if depth[u] == -1:
                parent[u], parent_edge[u], depth[u] = v, e, depth[v] + 1
                queue.append(u)
    return SpanningTree(root, parent, parent_edge, depth, chosen)


def _globalize(res, members):
    def dart(d):
        return None if d is None else Dart(members[d.tail], members[d.head], d.copy)

    c = res.closing
    closing = replace(
        c,
        endpoints=(members[c.endpoints[0]], members[c.endpoints[1]]),
        insert_before_u=dart(c.insert_before_u),
        insert_before_v=dart(c.insert_before_v),
    )
    return replace(
        res, u=members[res.u], v=members[res.v],
        path=tuple(members[x] for x in res.path), closing=closing,
    )


def _globalize_records(text, members):
    lines = []
    for line in text.splitlines():
        _, x, role, body = line.split(" ")
        if body != "-":
            body = ",".join(
                f"{members[int(a)]}-{members[int(b)]}-{c}"
                for a, b, c in (item.split("-") for item in body.split(","))
            )
        lines.append(f"sep {members[int(x)]} {role} {body}")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(
    g=PARTITION_GRAPHS,
    parts=st.integers(1, 3),
    tiny=st.sampled_from([0, 0, 0, 0, 1, 2]),
    max_weight=st.sampled_from([1, 1, 2]),
    seed=st.integers(0, 10**6),
)
def test_multi_parts_match_sequential_engine(g, parts, tiny, max_weight, seed):
    rng = random.Random(seed)
    part_of = _grow_partition(g, rng, parts, tiny)
    members = {}
    for v, pid in enumerate(part_of):
        members.setdefault(pid, []).append(v)
    trees = {pid: _random_tree(g, part_of, ms, rng) for pid, ms in members.items()}
    # weight 0 included: a lone vertex of weight 0 has a degenerate total
    weights = [rng.randint(0, max_weight) if rng.random() < 0.05 else rng.randint(1, max_weight)
               for _ in range(g.n)]

    expected, errors = {}, {}
    for pid, ms in sorted(members.items()):
        sub, tree = _part_graph(g, ms, trees[pid])
        try:
            res = compute_separator(sub, tree, [weights[v] for v in ms])
        except PlanarSepError as exc:
            errors[pid] = type(exc)
            continue
        expected[pid] = (
            serialize_separator(_globalize(res, ms)),
            _globalize_records(sep_records(sub, tree, res), ms),
        )

    try:
        outputs, _ = dist_multi(g, part_of, trees, weights)
    except PlanarSepError as exc:
        assert errors, f"dist_multi raised {exc!r}, the sequential engine separated every part"
        assert type(exc) in errors.values(), (exc, errors)
        return
    assert not errors, f"dist_multi succeeded, the sequential engine raised {errors}"
    assert sorted(outputs) == sorted(members)
    for pid, out in outputs.items():
        assert (serialize_separator(out.result), out.records()) == expected[pid], pid


def test_balanced_part_sits_out_the_virtual_call(monkeypatch):
    """A triangulation glued at one vertex to a grid: a balanced part next
    to a critical-virtual one.  Detect makes two calls; in the second the
    balanced part sends nothing and learns no fold, and the other part
    sends one frame each way on each of its tree edges.  Each part equals
    the sequential engine on its relabelled part."""
    a = random_triangulation(30, 1)
    g = merge_at_vertex(a, grid(5, 5))
    part_of = [0] * a.n + [1] * (g.n - a.n)
    trees = part_bfs_trees(g, part_of)
    members = part_members(part_of)
    folds = []
    real = Simulator.run

    def recording(sim, program, knowledge, trace, **kwargs):
        before = trace.messages
        states = real(sim, program, knowledge, trace, **kwargs)
        if trace.name == "detect":
            folds.append((program.inputs, states, trace.messages - before))
        return states

    monkeypatch.setattr(Simulator, "run", recording)
    outputs, trace = dist_multi(g, part_of, trees)
    assert [outputs[pid].case for pid in (0, 1)] == ["balanced", "critical-virtual"]
    detect, = (p for p in trace.phases if p.name == "detect")
    assert detect.pa_calls == 2 and len(folds) == 2
    inputs, states, messages = folds[1]
    assert all(inputs[v] is None and states[v] == {"acc": None, "kids": {}} for v in members[0])
    assert all(inputs[v] is not None and "fold" in states[v] for v in members[1])
    assert messages == 2 * (len(members[1]) - 1)
    for pid, ms in members.items():
        sub, tree = _part_graph(g, ms, trees[pid])
        res = compute_separator(sub, tree)
        assert (serialize_separator(outputs[pid].result), outputs[pid].records()) == (
            serialize_separator(_globalize(res, ms)),
            _globalize_records(sep_records(sub, tree, res), ms),
        ), pid


# _part_knowledge against the rebuild path: every part relabelled, built with
# build_embedding, bi-connected by repeated corner passes and mapped back.


def _rebuilt_part_knowledge(g, part_of):
    global_rot = {}
    for pid, members in part_members(part_of).items():
        to_local = {v: i for i, v in enumerate(members)}
        rot = [
            [Dart(i, to_local[d.head], d.copy) for d in g.rotation[v] if part_of[d.head] == pid]
            for i, v in enumerate(members)
        ]
        sub = build_embedding(len(members), rot, [g.vertex_weight[v] for v in members])
        while (augmented := _augment_once(sub)) is not None:
            sub = augmented
        for i, v in enumerate(members):
            global_rot[v] = tuple(Dart(v, members[d.head], d.copy) for d in sub.rotation[i])
    return global_rot


def _part_cut_vertices(g, part_of):
    """articulation_count of every part's relabelled sub-embedding."""
    counts = {}
    for pid, members in part_members(part_of).items():
        sub, _ = _part_graph(g, members, part_bfs_trees(g, part_of)[pid])
        counts[pid] = articulation_count(sub)
    return counts


def test_part_knowledge_matches_rebuild_on_mixed_parts():
    # grid(3, 4): a 3x2 block, a path 10-6-2-3 and the edge 7-11
    g = grid(3, 4)
    part_of = [0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 1, 2]
    assert _part_cut_vertices(g, part_of) == {0: 0, 1: 2, 2: 0}
    assert list(_part_knowledge(g, part_of).items()) == list(
        _rebuilt_part_knowledge(g, part_of).items()
    )


@settings(max_examples=50, deadline=None)
@given(
    g=PARTITION_GRAPHS,
    parts=st.integers(1, 4),
    tiny=st.sampled_from([0, 0, 1, 2]),
    seed=st.integers(0, 10**6),
)
def test_part_knowledge_matches_rebuild_on_random_partitions(g, parts, tiny, seed):
    part_of = _grow_partition(g, random.Random(seed), parts, tiny)
    assert list(_part_knowledge(g, part_of).items()) == list(
        _rebuilt_part_knowledge(g, part_of).items()
    )


# the programs that step only some vertices at round 0
STARTS_PROGRAMS = {"BfsProgram", "ContourProgram", "TreeFold", "_BroadcastProgram"}
STARTS_CASES = {
    "grid6": lambda: _one_part(grid(6, 6)),
    "tri60s3": lambda: _one_part(random_triangulation(60, seed=3)),
    "c30c5": lambda: _one_part(cycle_chords(30, 5, seed=1)),
    "parts8x2": lambda: two_level_parts(8, 2),
}


@pytest.mark.parametrize("scramble", [None, 4])
@pytest.mark.parametrize("name", sorted(STARTS_CASES))
def test_round_0_starters_change_nothing(name, scramble, monkeypatch):
    """Forcing every program's starts to True leaves every simulator run's
    states and trace, every output and the RoundTrace as they are, over
    dist_multi, dist_bfs and broadcast_root."""
    programs = [
        obj for mod in (congest, dist) for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, VertexProgram) and obj is not VertexProgram
    ]
    overriding = [cls for cls in programs if "starts" in vars(cls)]
    assert {cls.__name__ for cls in overriding} == STARTS_PROGRAMS

    runs = []
    real = Simulator.run

    def recording(sim, program, knowledge, trace, **kwargs):
        states = real(sim, program, knowledge, trace, **kwargs)
        runs.append((type(program).__name__, trace.name, copy.deepcopy(states), replace(trace)))
        return states

    monkeypatch.setattr(Simulator, "run", recording)
    g, part_of = STARTS_CASES[name]()

    def everything():
        runs.clear()
        outs, trace = dist_multi(g, part_of, part_bfs_trees(g, part_of), scramble=scramble)
        results = {pid: (serialize_separator(o.result), o.records()) for pid, o in outs.items()}
        tree, bfs_trace = dist_bfs(g, 0, scramble=scramble)
        values = broadcast_root(g, tree, 5, PhaseTrace("bc"), scramble=scramble)
        return list(runs), results, trace, bfs_trace, values

    skipping = everything()
    assert {run[0] for run in skipping[0]} == STARTS_PROGRAMS | {
        "LearnFacesProgram", "PrefixProgram"
    }
    for cls in overriding:
        monkeypatch.setattr(cls, "starts", VertexProgram.starts)
    assert everything() == skipping


def _golden_snapshots() -> dict:
    snaps = {}
    for name, make, weights in ENGINE_CASES:
        g = make()
        for root in _roots(g):
            t = bfs_tree(g, root)
            seq = compute_separator(g, t, weights)
            snaps[f"{name} root {root}"] = _result_snapshot(
                serialize_separator(seq), sep_records(g, t, seq)
            )
    g, tree_edges, _, _ = pinned_critical_instance()
    t = tree_from_edges(g, tree_edges, root=0)
    seq = compute_separator(g, t)
    snaps["pinned-critical"] = _result_snapshot(
        serialize_separator(seq), sep_records(g, t, seq)
    )
    g, part_of = two_level_parts(8, 2)
    outs, _ = dist_multi(g, part_of, part_bfs_trees(g, part_of))
    for pid, out in outs.items():
        snaps[f"parts8x2 part {pid}"] = _result_snapshot(
            serialize_separator(out.result), out.records()
        )
    return snaps


if __name__ == "__main__":
    GOLDEN_RESULTS.write_text(json.dumps(_golden_snapshots(), indent=1, sort_keys=True) + "\n")
