"""Differential tests of the two engines on random spanning trees.

Every other equivalence test runs BFS trees (plus one hand-built tree).
Anything the distributed engine derives from the shape of T, such as the
order in which a walk around the tree meets the darts, must hold for any
spanning tree, so these draw trees that BFS never produces: Kruskal over
shuffled edges and randomized depth-first search, rooted anywhere.
"""

import random

from hypothesis import given, settings, strategies as st

from planarsep import (
    compute_separator,
    dist_compute_separator,
    sep_records,
    serialize_separator,
    tree_from_edges,
)
from planarsep.generators import (
    cut_chain,
    cycle_chords,
    cylinder,
    grid,
    proper_random_weights,
    random_triangulation,
)
from planarsep.verify import verify_separator


def _kruskal_edges(g, rng):
    edges = g.edges()
    rng.shuffle(edges)
    comp = list(range(g.n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    chosen = []
    for e in edges:
        a, b = find(e[0]), find(e[1])
        if a != b:
            comp[a] = b
            chosen.append(e)
    return chosen


def _dfs_edges(g, rng, root):
    seen = {root}
    chosen = []
    stack = [root]
    while stack:
        v = stack[-1]
        fresh = [d for d in g.rotation[v] if d.head not in seen]
        if not fresh:
            stack.pop()
            continue
        d = rng.choice(fresh)
        seen.add(d.head)
        chosen.append(d.edge())
        stack.append(d.head)
    return chosen


# every instance has at least 12 vertices, so unit weights stay 1/12-proper
GRAPHS = st.one_of(
    st.builds(grid, st.integers(3, 7), st.integers(4, 7)),
    st.builds(cylinder, st.integers(2, 4), st.integers(5, 9)),
    st.builds(random_triangulation, st.integers(12, 70), st.integers(0, 10**6)),
    st.builds(cycle_chords, st.integers(12, 40), st.integers(0, 8), st.integers(0, 10**6)),
    st.builds(cut_chain, st.integers(2, 4), st.integers(7, 12), st.integers(0, 10**6)),
)


@settings(max_examples=40, deadline=None)
@given(
    g=GRAPHS,
    tree_kind=st.sampled_from(["kruskal", "dfs"]),
    seed=st.integers(0, 10**6),
    scramble=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_engines_agree_on_random_trees(g, tree_kind, seed, scramble):
    rng = random.Random(seed)
    root = rng.randrange(g.n)
    edges = _kruskal_edges(g, rng) if tree_kind == "kruskal" else _dfs_edges(g, rng, root)
    t = tree_from_edges(g, edges, root)
    w = proper_random_weights(g.n, seed)

    seq = compute_separator(g, t, w)
    out, _ = dist_compute_separator(g, t, w, scramble=scramble)
    assert serialize_separator(out.result) == serialize_separator(seq)
    assert out.records() == sep_records(g, t, seq)
    assert verify_separator(g, w, seq.path).passed
    assert len(seq.path) <= 2 * t.height() + 1
