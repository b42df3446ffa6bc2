import json
from pathlib import Path

import pytest

from planarsep import (
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
from planarsep.dist import CASE_BALANCED, DistPipeline, PipelineConfig, part_bfs_trees
from planarsep.errors import ConflictingRoot, NotProper
from planarsep.generators import (
    cycle_chords,
    cut_chain,
    grid,
    joined_grids,
    pinned_critical_instance,
    proper_random_weights,
    random_triangulation,
    two_level_parts,
)
from planarsep.separator import find_balanced_or_critical
from planarsep.treecotree import dual_subtree_sums
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


def _full_run(g, tree=None):
    """Every vertex's store after run_all on g's own rotations, one part."""
    tree = tree if tree is not None else bfs_tree(g, 0)
    pipe = DistPipeline(
        g=g,
        part_of=[0] * g.n,
        global_rot={v: tuple(g.rotation[v]) for v in range(g.n)},
        trees={0: tree},
        tree_roots={0: tree.root},
        weights=list(g.vertex_weight),
        config=PipelineConfig(),
    )
    outputs = pipe.run_all()
    return [pipe.know[v].store for v in range(g.n)], outputs[0]


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
    override = [0] * 16
    override[15] = 15  # vertex 15 believes it is a second root
    with pytest.raises(ConflictingRoot):
        dist_bfs(grid4, 0, roots_override=override)


def test_learn_faces_matches_canonical_ids(grid4):
    stores, _ = _full_run(grid4)
    for v in range(grid4.n):
        for d in grid4.rotation[v]:
            assert stores[v]["face"][d] == grid4.face_of[d]
            assert stores[v]["rev_face"][d] == grid4.face_of[d.reverse()]


def test_learn_faces_triangle(c3):
    stores, _ = _full_run(c3)
    for v in range(3):
        assert len(set(stores[v]["face"].values())) == 2


def test_learn_faces_triangulation_dual_endpoints():
    g = random_triangulation(200, seed=6)
    stores, _ = _full_run(g)
    for e in g.edges():
        da, db = g.darts_of_edge(e)
        assert stores[da.tail]["face"][da] == g.face_of[da]
        assert stores[da.tail]["rev_face"][da] == g.face_of[db]


def test_learn_cotree_flags(grid4):
    t = bfs_tree(grid4, 0)
    stores, _ = _full_run(grid4, t)
    for v in range(grid4.n):
        for d, is_cotree in stores[v]["cotree_flag"].items():
            assert is_cotree == (d.edge() not in t.edges)


def test_face_weights_match_sequential(grid4):
    t = bfs_tree(grid4, 0)
    stores, _ = _full_run(grid4, t)
    seq = transfer_weights(grid4)
    assert [st["chosen"] for st in stores] == seq.chosen_face
    for v in range(grid4.n):
        for fid, w in stores[v]["face_weight"].items():
            assert w == seq.face_weight[fid]


def test_dual_subtree_sums_match_sequential(tri60):
    t = bfs_tree(tri60, 0)
    stores, _ = _full_run(tri60, t)
    pair = cotree(tri60, t)
    seq = dual_subtree_sums(pair, transfer_weights(tri60).face_weight)
    for v in range(tri60.n):
        for fid, (total, has_children) in stores[v]["face_total"].items():
            assert total == seq[fid]
            assert has_children == (len(pair.dual_children[fid]) > 0)
        for d, (depth, pdart) in stores[v]["dual_rooted"].items():
            fid = tri60.face_of[d]
            assert depth == pair.dual_depth[fid]
            if pdart is None:
                assert fid == pair.dual_root
            else:
                assert pdart.edge() == pair.dual_parent_edge[fid]


def test_detect_matches_sequential(grid4, tri60, c12):
    for g in (grid4, tri60, c12):
        t = bfs_tree(g, 0)
        stores, _ = _full_run(g, t)
        kind = "balanced" if stores[0]["case_code"] == CASE_BALANCED else "critical"
        face, subtree = stores[0]["case_face"], stores[0]["case_subtree"]
        pair = cotree(g, t)
        seq = find_balanced_or_critical(pair, transfer_weights(g).face_weight)
        assert (kind, face, subtree) == (seq.kind, seq.face, seq.subtree_weight)


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
    assert trace.probes >= 1
    assert out.records() == sep_records(g, t, seq)
    assert _result_snapshot(
        serialize_separator(seq), sep_records(g, t, seq)
    ) == _golden("pinned-critical")


def test_scramble_leaves_output_unchanged(grid4):
    t = bfs_tree(grid4, 0)
    base, _ = dist_compute_separator(grid4, t)
    for scramble in (3, 77):
        again, _ = dist_compute_separator(grid4, t, scramble=scramble)
        assert serialize_separator(again.result) == serialize_separator(base.result)


def test_charged_backend_same_output(grid4):
    t = bfs_tree(grid4, 0)
    honest, tr_h = dist_compute_separator(grid4, t, backend="honest")
    charged, tr_c = dist_compute_separator(grid4, t, backend="charged")
    assert serialize_separator(honest.result) == serialize_separator(charged.result)
    assert tr_c.charged_rounds > 0


def test_probe_monotonicity_and_count():
    g = grid(8, 8)
    t = bfs_tree(g, 0)
    out, trace = dist_compute_separator(g, t)
    if out.result.case == "critical-virtual":
        k = compute_separator(g, t).diagnostics["scan"].k
        assert 1 <= trace.probes <= k.bit_length() + 1


def test_not_proper_surfaces(grid4):
    t = bfs_tree(grid4, 0)
    with pytest.raises(NotProper):
        dist_compute_separator(grid4, t, [100] + [1] * 15)


def test_mark_separator_output_contract(grid4):
    t = bfs_tree(grid4, 0)
    _, out = _full_run(grid4, t)
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
