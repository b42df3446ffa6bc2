"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Shared heavyweight artifacts (the standard instance suite run through one
or both engines) are computed once per module; every criterion asserts
its stated bound exactly, in integer arithmetic wherever the bound is
exact.
"""

import dataclasses
import random
import time

import pytest

from planarsep import (
    bfs_tree,
    biconnect,
    compute_separator,
    cotree,
    dist_compute_separator,
    serialize_separator,
    transfer_weights,
    tree_from_edges,
)
from planarsep.biconnect import _augment_once
from planarsep.congest import log2ceil
from planarsep.generators import (
    cut_chain,
    joined_grids,
    merge_at_vertex,
    path_graph,
    pinned_critical_instance,
    random_triangulation,
    star,
)
from planarsep.harness import (
    ExperimentSpec,
    generate,
    run_suite,
    scaling_report,
    standard_suite,
)
from planarsep.oracles import (
    brute_force_articulation_points,
    oracle_all_fundamental_cycles,
)
from planarsep.separator import find_balanced_or_critical_in_tree
from planarsep.treecotree import fundamental_cut, fundamental_cycle


def _announce(criterion: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


@pytest.fixture(scope="module")
def sequential_run():
    specs = [
        dataclasses.replace(s, engine="sequential") for s in standard_suite()
    ]
    start = time.monotonic()
    records, summary = run_suite(specs, deep_checks=False)
    elapsed = time.monotonic() - start
    return records, summary, elapsed


@pytest.fixture(scope="module")
def both_engine_run():
    records, summary = run_suite(standard_suite(), deep_checks=False)
    return records, summary


@pytest.fixture(scope="module")
def small_instances():
    """Every suite instance with n <= 200, materialized with its tree."""
    out = []
    for spec in standard_suite():
        g, _ = generate(spec.generator, spec.params, spec.seed)
        if g.n <= 200:
            out.append((spec.name, g, bfs_tree(g, 0)))
    return out


def test_criterion_1_balance_guarantee(sequential_run):
    records, summary, elapsed = sequential_run
    failures = [r["instance"] for r in records if "balance" in r["failures"]]
    enough = summary["instances"] >= 200
    _announce(
        f"1 balance ({summary['instances']} instances, {elapsed:.1f}s)",
        not failures and enough and elapsed < 120.0,
    )


def test_criterion_2_size_guarantee(sequential_run):
    records, _, _ = sequential_run
    bad = [
        r["instance"]
        for r in records
        if r.get("path_len") is not None
        and r["path_len"] > 2 * r["tree_depth"] + 1
    ]
    _announce("2 size |P| <= 2*depth(T)+1", not bad)


def test_criterion_3_cut_cycle_duality(small_instances):
    checked = 0
    ok = True
    for name, g, tree in small_instances:
        pair = cotree(g, tree)
        for e in sorted(pair.cotree_edges):
            _, cyc = fundamental_cycle(pair, e)
            if cyc != fundamental_cut(pair, e):
                ok = False
            checked += 1
    _announce(f"3 duality ({checked} edges exhaustively)", ok and checked > 1000)


def test_criterion_4_weight_sandwich(small_instances):
    checked = 0
    ok = True
    for name, g, tree in small_instances:
        fw = transfer_weights(g)
        for row in oracle_all_fundamental_cycles(g, tree):
            wf_in = sum(fw.face_weight[g.face_number(f)] for f in row.interior_faces)
            cyc_w = sum(g.vertex_weight[v] for v in row.cycle_vertices)
            if not (row.interior_weight <= wf_in <= row.interior_weight + cyc_w):
                ok = False
            checked += 1
    _announce(f"4 sandwich ({checked} cycles)", ok and checked > 1000)


def test_criterion_5_balanced_or_critical_existence(sequential_run):
    rng = random.Random(20260809)
    trials = 10**4
    for _ in range(trials):
        n = rng.randint(16, 60)
        children = {v: [] for v in range(n)}
        for v in range(1, n):
            children[rng.randrange(v)].append(v)
        values = {v: rng.randint(1, 4) for v in range(n)}  # 1/4-proper: W >= 16
        total = sum(values.values())
        kind, node, subtree, _ = find_balanced_or_critical_in_tree(children, 0, values)
        if kind == "balanced":
            assert total <= 4 * subtree <= 3 * total
        else:
            assert 4 * subtree > 3 * total

    # critical-branch claim checks over the graph suite, exact via 4*weight
    records, _, _ = sequential_run
    criticals = 0
    for r in records:
        if r.get("case") != "critical-virtual":
            continue
        g, _ = generate(r["generator"], r["params"], r["seed"])
        from planarsep.generators import WEIGHT_SCHEMES

        w = WEIGHT_SCHEMES[r["weights"]](g.n, 0) if r["weights"] == "unit" else None
        if w is None:
            continue
        res = compute_separator(g, bfs_tree(g, 0), w)
        W = res.interior_weight + res.exterior_weight
        assert all(4 * tw <= W for tw in res.diagnostics["triangle_weights"])
        s_next = res.diagnostics["s"][res.diagnostics["j"]]
        assert W < 4 * s_next <= 3 * W
        criticals += 1
    _announce(f"5 existence (10^4 trees, {criticals} critical-case claim checks)",
              criticals >= 1)


def test_criterion_6_engine_equivalence(both_engine_run):
    records, _ = both_engine_run
    diffs = [
        r["instance"]
        for r in records
        if "engine-equivalence" in r["failures"] or "engine-records" in r["failures"]
    ]
    compared = sum(1 for r in records if "honest_rounds" in r)
    _announce(f"6 engine equivalence ({compared} instances, {len(diffs)} diffs)",
              not diffs and compared >= 200)


def test_criterion_7_round_complexity():
    # the charged backend books the part-wise aggregations without
    # simulating them, so only the honest fit sees detect's rounds
    grid_specs = {
        backend: [
            ExperimentSpec(
                name=f"grid-{s}", generator="grid", params={"rows": s, "cols": s},
                engine="distributed", pa_backend=backend,
            )
            for s in (8, 16, 32, 64)
        ]
        for backend in ("charged", "honest")
    }
    records, _ = run_suite(grid_specs["charged"], deep_checks=False)
    fit = scaling_report(records)
    honest_records, _ = run_suite(grid_specs["honest"], deep_checks=False)
    honest_fit = scaling_report(honest_records)

    cyl_specs = [
        ExperimentSpec(
            name=f"cyl-4x{w}", generator="cylinder",
            params={"height": 4, "width": w},
            engine="distributed", pa_backend="charged",
        )
        for w in (16, 32, 64, 128)
    ]
    cyl_records, _ = run_suite(cyl_specs, deep_checks=False)
    diams = {r["diameter"] for r in cyl_records}
    first, last = cyl_records[0], cyl_records[-1]
    growth = last["charged_rounds"] / first["charged_rounds"]
    polylog_bound = 2 * (log2ceil(last["n"] + 1) / log2ceil(first["n"] + 1)) ** 3
    for r in records + cyl_records:
        print(
            f"  n={r['n']} D={r['diameter']} charged={r['charged_rounds']} "
            f"honest={r['honest_rounds']}"
        )
    _announce(
        f"7 round complexity (grid drift {fit['drift']:.2f}x, honest "
        f"{honest_fit['drift']:.2f}x, constant-D growth {growth:.2f} <= {polylog_bound:.2f})",
        fit["stable"] and honest_fit["stable"] and len(diams) == 1 and growth <= polylog_bound,
    )


def test_criterion_8_bit_budget(both_engine_run):
    records, _ = both_engine_run
    violations = [
        r["instance"]
        for r in records
        if "honest_rounds" in r and r["max_bits"] > r["bit_budget"]
    ]
    _announce("8 bit budget", not violations)


def _criterion_9_instances():
    rng = random.Random(99)
    instances = []
    for seed in range(60):
        instances.append(cut_chain(rng.randint(2, 6), rng.randint(3, 20), seed))
    for k in range(3, 13):
        instances.append(star(k))
    for n in range(3, 13):
        instances.append(path_graph(n * 3))
    for rc in range(2, 12):
        instances.append(joined_grids(rc, rc)[0])
    for seed in range(10):
        a = random_triangulation(rng.randint(4, 40), seed)
        b = path_graph(rng.randint(2, 20))
        instances.append(merge_at_vertex(a, b))
    return instances


def test_criterion_9_biconnectivity_augmentation():
    instances = _criterion_9_instances()
    assert len(instances) >= 100
    checked = 0
    for g in instances:
        assert g.n <= 500
        assert brute_force_articulation_points(g), "instance lacks a cut vertex"
        out = biconnect(g)
        assert not brute_force_articulation_points(out)
        assert out.euler_residual() == 0
        checked += 1
    _announce(f"9 biconnect ({checked} graphs)", checked >= 100)


def test_one_corner_pass_leaves_no_cut_vertex():
    # a second pass over the result of the first finds nothing to link
    for g in _criterion_9_instances():
        assert _augment_once(_augment_once(g)) is None


def test_criterion_10_pinned_critical_case():
    g, tree_edges, eu, ev = pinned_critical_instance()
    tree = tree_from_edges(g, tree_edges, root=0)
    seq = compute_separator(g, tree)
    out, _ = dist_compute_separator(g, tree)
    same = serialize_separator(seq) == serialize_separator(out.result)
    _announce(
        f"10 pinned critical case (edge ({seq.u},{seq.v}), j={seq.diagnostics['j']})",
        same
        and seq.case == "critical-virtual"
        and (seq.u, seq.v) == (eu, ev)
        and seq.diagnostics["j"] == 4,
    )
