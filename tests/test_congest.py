import random

import pytest
from hypothesis import given, settings, strategies as st

from planarsep import (
    DartTable,
    Partition,
    PhaseTrace,
    Simulator,
    VertexProgram,
    bfs_tree,
    broadcast_root,
    default_bit_budget,
    pa_aggregate,
)
from planarsep import congest
from planarsep.congest import TreeFold, fold, payload_bits, tree_views
from planarsep.dist import DistPipeline, PipelineConfig, _part_knowledge
from planarsep.errors import (
    BadParams,
    BitBudgetExceeded,
    InconsistentRotation,
    InvalidPartition,
    RoundLimitExceeded,
)
from planarsep.generators import grid, random_triangulation, star
from planarsep.treecotree import part_bfs_trees


class FloodProgram(VertexProgram):
    """Token flood from vertex 0; used for lock-step and budget checks."""

    def init(self, know):
        return {"have": know["vid"] == 0, "round_heard": 0 if know["vid"] == 0 else None}

    def step(self, r, know, st, inbox):
        if inbox and st["round_heard"] is None:
            st["round_heard"] = r
            st["have"] = True
        if st["have"]:
            return [(d, (1,)) for d in know["rot"]], True
        return [], False


def flood_knowledge(g):
    """Each vertex's id and its dart ids in rotation order."""
    darts = DartTable(g.rotation)
    return [{"vid": v, "rot": darts.rot[v]} for v in range(g.n)]


def sim(g, **kwargs):
    return Simulator(DartTable(g.rotation), **kwargs)


def test_dart_table_numbers_darts_in_dart_order(grid4):
    """Ids ascend in (tail, head, copy) order, each vertex's in one range;
    rev, succ and rot follow the rotation system."""
    darts = DartTable(grid4.rotation)
    assert len(darts) == 2 * grid4.m
    assert darts.triple == sorted(grid4.darts())
    for v in range(grid4.n):
        ids = darts.rot[v]
        assert [darts.dart(d) for d in ids] == grid4.rotation[v]
        assert sorted(ids) == list(range(darts.lo[v], darts.lo[v + 1]))
        for d in ids:
            dart = darts.dart(d)
            assert (darts.tail[d], darts.head[d]) == (dart.tail, dart.head)
            assert darts.dart(darts.rev[d]) == dart.reverse()
            assert darts.dart(darts.succ[d]) == grid4.rot_next(dart)
            assert darts.index[dart] == d
            assert darts.edge(d) == dart.edge()
    with pytest.raises(InconsistentRotation, match="reverse dart"):
        DartTable([[(0, 1, 0)], []])
    with pytest.raises(InconsistentRotation, match="rotation of vertex 1"):
        DartTable([[(0, 1, 0)], [(0, 1, 0)]])


def test_flood_rounds_match_eccentricity(grid4):
    tr = PhaseTrace("flood")
    states = sim(grid4).run(FloodProgram(), flood_knowledge(grid4), tr)
    assert all(s["have"] for s in states)
    # the far corner hears the token exactly at its hop distance
    assert states[15]["round_heard"] == 6
    assert tr.honest_rounds == 7  # final sends still occupy a round


def test_lock_step_delivery(grid4):
    tr = PhaseTrace("flood")
    states = sim(grid4).run(FloodProgram(), flood_knowledge(grid4), tr)
    t = bfs_tree(grid4, 0)
    for v in range(1, 16):
        assert states[v]["round_heard"] == t.depth[v]


def test_bit_budget_exceeded(grid4):
    class Wide(VertexProgram):
        def init(self, know):
            return {}

        def step(self, r, know, st, inbox):
            if know["vid"] == 0 and r == 0:
                payload = (1 << (8 * 5),)  # 41 bits, budget is 8*ceil(log2 17) = 40
                return [(know["rot"][0], payload)], True
            return [], True

    tr = PhaseTrace("wide")
    with pytest.raises(BitBudgetExceeded):
        sim(grid4).run(Wide(), flood_knowledge(grid4), tr)


def test_round_limit(grid4):
    class Chatter(VertexProgram):
        def init(self, know):
            return {}

        def step(self, r, know, st, inbox):
            return [(know["rot"][0], (1,))], False

    tr = PhaseTrace("chatter")
    with pytest.raises(RoundLimitExceeded):
        sim(grid4).run(Chatter(), flood_knowledge(grid4), tr, max_rounds=5)


def test_round_limit_allows_exactly_max_rounds(grid4):
    """The flood needs 7 rounds: a limit of 7 lets it finish, a limit of 6
    stops it after 6, and the message counts the rounds the trace holds."""
    tr = PhaseTrace("flood")
    sim(grid4).run(FloodProgram(), flood_knowledge(grid4), tr, max_rounds=7)
    assert tr.honest_rounds == 7
    tr = PhaseTrace("flood")
    with pytest.raises(RoundLimitExceeded, match="after 6 rounds") as err:
        sim(grid4).run(FloodProgram(), flood_knowledge(grid4), tr, max_rounds=6)
    assert f"after {tr.honest_rounds} rounds" in str(err.value)


def test_counters_when_a_guard_raises_mid_outbox():
    """Vertex 0 sends three messages at round 0 and the second is too
    wide: the trace counts the first message only."""
    g = star(3)  # vertex 0 has three darts; budget 8 * ceil(log2 5) = 24
    first = (5,)

    class Burst(VertexProgram):
        def step(self, r, know, st, inbox):
            if know["vid"] != 0:
                return [], False
            d1, d2, d3 = know["rot"]
            return [(d1, first), (d2, (1 << 24,)), (d3, (1,))], True

    tr = PhaseTrace("burst")
    with pytest.raises(BitBudgetExceeded):
        sim(g).run(Burst(), flood_knowledge(g), tr)
    assert tr.messages == 1
    assert tr.total_bits == tr.max_bits == payload_bits(first)


class _Steps(VertexProgram):
    """FloodProgram that logs the rounds each vertex steps in."""

    def __init__(self, starter: int):
        self.starter = starter
        self.flood = FloodProgram()

    def init(self, know):
        return {**self.flood.init(know), "steps": []}

    def starts(self, know):
        return know["vid"] == self.starter

    def step(self, r, know, st, inbox):
        st["steps"].append(r)
        return self.flood.step(r, know, st, inbox)


def test_non_starters_first_step_when_a_message_arrives(grid4):
    """Only the flood's source steps at round 0; every other vertex steps
    once, when the token reaches it, and the run counts as before."""
    tr, full = PhaseTrace("flood"), PhaseTrace("flood")
    states = sim(grid4).run(_Steps(0), flood_knowledge(grid4), tr)
    sim(grid4).run(FloodProgram(), flood_knowledge(grid4), full)
    depth = bfs_tree(grid4, 0).depth
    assert [st["steps"] for st in states] == [[depth[v]] for v in range(grid4.n)]
    assert tr == full


def test_non_starter_that_never_hears_deadlocks(grid4):
    """Vertex 0 halts at round 0 without a message; nobody else starts."""

    class Silent(_Steps):
        def step(self, r, know, st, inbox):
            st["steps"].append(r)
            return [], True

    with pytest.raises(AssertionError, match="deadlock at round 1"):
        sim(grid4).run(Silent(0), flood_knowledge(grid4), PhaseTrace("x"))


def test_scramble_determinism(grid4):
    out = []
    for scramble in (None, 1, 42):
        tr = PhaseTrace("flood")
        states = sim(grid4, scramble=scramble).run(FloodProgram(), flood_knowledge(grid4), tr)
        out.append(([s["round_heard"] for s in states], tr.honest_rounds, tr.messages))
    assert out[0] == out[1] == out[2]


def _one_shot(grid4, send):
    """Vertex 0 returns send(its dart table) at round 0; everyone halts at once."""
    darts = DartTable(grid4.rotation)

    class OneShot(VertexProgram):
        def step(self, r, know, st, inbox):
            return (send(darts) if know["vid"] == 0 else []), True

    return OneShot()


def test_send_on_foreign_dart_raises(grid4):
    for send in (
        lambda darts: [(darts.rot[1][0], (1,))],  # a dart of vertex 1
        lambda darts: [(len(darts), (1,))],       # no such channel
        lambda darts: [(-1, (1,))],               # nor this
    ):
        with pytest.raises(AssertionError, match="foreign dart"):
            sim(grid4).run(_one_shot(grid4, send), flood_knowledge(grid4), PhaseTrace("x"))


def test_two_sends_on_one_dart_raise(grid4):
    send = lambda darts: [(darts.rot[0][0], (1,)), (darts.rot[0][0], (2,))]
    with pytest.raises(AssertionError, match="duplicate send"):
        sim(grid4).run(_one_shot(grid4, send), flood_knowledge(grid4), PhaseTrace("x"))


def test_deadlock_raises(grid4):
    class Idle(VertexProgram):
        def step(self, r, know, st, inbox):
            return [], False

    with pytest.raises(AssertionError, match="deadlock at round 1"):
        sim(grid4).run(Idle(), flood_knowledge(grid4), PhaseTrace("x"))


@pytest.mark.parametrize("scramble", [None, 5])
def test_dropped_counts_halted_receivers_and_final_flight(grid4, scramble):
    """Round 0: all send on every dart, all but vertex 0 halt.  Round 1:
    46 messages reach halted vertices, vertex 0 answers its 2 and halts,
    leaving 2 in flight at termination."""

    class Fanout(VertexProgram):
        def step(self, r, know, st, inbox):
            out = [(d, (r + 1,)) for d in know["rot"]]
            if r == 0:
                return out, know["vid"] != 0
            st["heard"] = sorted(inbox.values())
            return out, True

    tr = PhaseTrace("x")
    states = sim(grid4, scramble=scramble).run(Fanout(), flood_knowledge(grid4), tr)
    assert states[0]["heard"] == [(1,), (1,)]
    assert (tr.messages, tr.dropped, tr.honest_rounds) == (50, 48, 2)


def test_wake_steps_next_round_with_empty_inbox(grid4):
    class Sleeper(VertexProgram):
        def step(self, r, know, st, inbox):
            if know["vid"] != 0:
                return [], True
            if r == 0:
                st["_wake"] = True
                return [], False
            st["woken"] = (r, dict(inbox), "_wake" in st)
            return [], True

    tr = PhaseTrace("x")
    states = sim(grid4).run(Sleeper(), flood_knowledge(grid4), tr)
    assert states[0]["woken"] == (1, {}, False)
    assert tr.honest_rounds == 2


def test_bit_accounting_matches_payload_bits(grid4):
    rng = random.Random(3)
    payloads = [
        tuple(rng.choice([0, 0, 1, rng.randint(0, 1 << 30)]) for _ in range(rng.randint(1, 4)))
        for _ in range(grid4.n * 4)
    ]

    class Random(VertexProgram):
        def step(self, r, know, st, inbox):
            v = know["vid"]
            return [(d, payloads[4 * v + i]) for i, d in enumerate(know["rot"])], True

    tr = PhaseTrace("x")
    sim(grid4, bit_budget=200).run(Random(), flood_knowledge(grid4), tr)
    sent = [payloads[4 * v + i] for v in range(grid4.n) for i in range(grid4.degree(v))]
    assert any(0 in p for p in sent)
    assert tr.messages == len(sent)
    assert tr.total_bits == sum(map(payload_bits, sent))
    assert tr.max_bits == max(map(payload_bits, sent))


def test_pa_single_part_sum(grid4):
    tr = PhaseTrace("pa")
    res = pa_aggregate(grid4, Partition((0,) * 16), [1] * 16, "SUM", "honest", tr, diameter=6)
    assert res == [16] * 16
    assert tr.honest_rounds <= 2 * 6 + 2


def test_pa_rows_max(grid4):
    tr = PhaseTrace("pa")
    rows = Partition(tuple(v // 4 for v in range(16)))
    res = pa_aggregate(grid4, rows, list(range(16)), "MAX", "honest", tr, diameter=6)
    assert res == [4 * (v // 4) + 3 for v in range(16)]


def test_pa_charged_same_values(grid4):
    rows = Partition(tuple(v // 4 for v in range(16)))
    tr1, tr2 = PhaseTrace("h"), PhaseTrace("c")
    a = pa_aggregate(grid4, rows, list(range(16)), "MIN", "honest", tr1, diameter=6)
    b = pa_aggregate(grid4, rows, list(range(16)), "MIN", "charged", tr2, diameter=6)
    assert a == b
    assert tr2.honest_rounds == 0
    assert tr2.charged_rounds == 6 * 5 ** 2
    assert tr1.charged_rounds >= tr1.honest_rounds


@pytest.mark.parametrize("backend, scramble", [("honest", None), ("charged", None), ("honest", 7)])
def test_reused_aggregator_matches_fresh_calls(backend, scramble):
    """A pipeline's aggregator folds on T in the pipeline's own simulator;
    with T the parts' BFS trees, its calls equal fresh pa_aggregate calls
    in values and in every PhaseTrace field."""
    g = grid(6, 6)
    part_of = [v // 12 for v in range(g.n)]  # three 2x6 bands
    bands = Partition(tuple(part_of))
    trees = part_bfs_trees(g, part_of)
    budget = default_bit_budget(g.n)
    pipe = DistPipeline(
        g=g, part_of=part_of, global_rot=_part_knowledge(g, part_of), trees=trees,
        tree_roots={pid: t.root for pid, t in trees.items()},
        weights=list(g.vertex_weight),
        config=PipelineConfig(backend=backend, bit_budget=budget, scramble=scramble),
    )
    agg = pipe.aggregate
    assert agg.forest is pipe.know
    assert agg.sim is (pipe.sim if backend == "honest" else None)
    rng = random.Random(2)
    reused, fresh = PhaseTrace("pa"), PhaseTrace("pa")
    for i, op in enumerate(("SUM", "MIN", "MAX", "OR", "AND", "SUM")):
        inputs = [rng.randint(0, 99) for _ in range(g.n)]
        if i == 5:
            inputs = [x << 45 for x in inputs]  # sums wider than the 48-bit budget
        got = agg(inputs, op, reused)
        want = pa_aggregate(
            g, bands, inputs, op, backend, fresh, bit_budget=budget,
            diameter=pipe.diameter, scramble=scramble,
        )
        assert got == want
        assert reused == fresh
    assert reused.pa_calls == 6 and reused.overflow_flags >= 1


def test_pa_unknown_backend_is_bad_params(grid4, monkeypatch):
    """An unknown backend is refused before the partition check runs."""
    def started(*args):
        raise AssertionError("the partition check ran")

    monkeypatch.setattr(congest, "part_bfs_trees", started)
    with pytest.raises(BadParams):
        pa_aggregate(grid4, Partition((0,) * 16), [1] * 16, "SUM", "bogus", PhaseTrace("pa"))


def test_pa_random_partition_matches_fold():
    g = random_triangulation(500, seed=4)
    rng = random.Random(9)
    # grow connected parts by seeded BFS bites
    part_of = [-1] * g.n
    pid = 0
    for start in range(g.n):
        if part_of[start] != -1:
            continue
        size = rng.randint(1, 30)
        frontier = [start]
        taken = 0
        while frontier and taken < size:
            v = frontier.pop(0)
            if part_of[v] != -1:
                continue
            part_of[v] = pid
            taken += 1
            frontier.extend(u for u in g.neighbors(v) if part_of[u] == -1)
        pid += 1
    inputs = [rng.randint(0, 50) for _ in range(g.n)]
    tr = PhaseTrace("pa")
    res = pa_aggregate(g, Partition(tuple(part_of)), inputs, "SUM", "honest", tr, diameter=30)
    parts = {}
    for v, p in enumerate(part_of):
        parts.setdefault(p, []).append(v)
    for p, members in parts.items():
        expected = fold("SUM", [inputs[v] for v in members])
        for v in members:
            assert res[v] == expected


def test_invalid_partition(grid4):
    part = [0] * 16
    part[15] = 1
    part[0] = 1  # vertices 0 and 15 are not adjacent: part 1 disconnected
    with pytest.raises(InvalidPartition):
        part_bfs_trees(grid4, part)
    for wrong_length in ([0] * 15, [0] * 17):
        with pytest.raises(InvalidPartition):
            part_bfs_trees(grid4, wrong_length)


def test_operator_overflow_flagged(grid4):
    tr = PhaseTrace("pa")
    big = [1 << 36] * 16  # sums exceed the 40-bit budget; widened + flagged
    res = pa_aggregate(grid4, Partition((0,) * 16), big, "SUM", "honest", tr, diameter=6)
    assert res[0] == 16 << 36
    assert tr.overflow_flags >= 1


def test_wide_partial_folds_widen_the_budget(grid4):
    # MIN's result fits the 40-bit budget, but its partial folds do not
    inputs = [2**60] * 15 + [1]
    for backend in ("honest", "charged"):
        tr = PhaseTrace("pa")
        res = pa_aggregate(grid4, Partition((0,) * 16), inputs, "MIN", backend, tr, diameter=6)
        assert res == [1] * 16
        assert tr.overflow_flags >= 1


def test_wide_flag_counts_the_frame_as_sent(grid4):
    """A fold of exactly the budget's 40 bits travels in a one-int frame
    of 40 bits and is not flagged; one bit more is."""
    budget = default_bit_budget(grid4.n)
    for backend in ("honest", "charged"):
        for bits, flagged in ((budget, False), (budget + 1, True)):
            tr = PhaseTrace("pa")
            inputs = [0] * 15 + [2 ** (bits - 1)]
            res = pa_aggregate(grid4, Partition((0,) * 16), inputs, "MAX", backend, tr, diameter=6)
            assert res == [2 ** (bits - 1)] * 16
            # the simulator flags each wide frame too
            assert (tr.overflow_flags > 0) == flagged, (backend, bits)
            if backend == "honest":
                assert tr.max_bits == bits


def test_parts_sit_a_call_out():
    """Three 2x6 bands, the middle one sitting out: both backends fold the
    other two alike, the middle band learns None and sends nothing.  A
    call that every part sits out books nothing."""
    g = grid(6, 6)
    bands = Partition(tuple(v // 12 for v in range(g.n)))
    inputs = [None if v // 12 == 1 else v for v in range(g.n)]
    want = [11] * 12 + [None] * 12 + [35] * 12
    traces = {}
    for backend in ("honest", "charged"):
        traces[backend] = tr = PhaseTrace("pa")
        assert pa_aggregate(g, bands, inputs, "MAX", backend, tr, diameter=10) == want
        assert tr.pa_calls == 1
    # one frame each way on each tree edge of the two bands that take the call
    assert traces["honest"].messages == 2 * (11 + 11)
    assert traces["charged"].messages == 0
    assert traces["honest"].charged_rounds == traces["charged"].charged_rounds
    for backend in ("honest", "charged"):
        tr = PhaseTrace("pa")
        assert pa_aggregate(g, bands, [None] * g.n, "MAX", backend, tr) == [None] * g.n
        assert tr == PhaseTrace("pa")
    with pytest.raises(ValueError):
        pa_aggregate(g, bands, [None] + [1] * (g.n - 1), "MAX", "honest", PhaseTrace("pa"))


def test_broadcast_rounds(grid4):
    t = bfs_tree(grid4, 0)
    tr = PhaseTrace("bc")
    vals = broadcast_root(grid4, t, 42, tr)
    assert vals == [42] * 16
    assert tr.honest_rounds <= t.height() + 1


def test_broadcast_single_vertex():
    from planarsep.embedding import build_embedding

    g = build_embedding(2, [[1], [0]])
    t = bfs_tree(g, 0)
    tr = PhaseTrace("bc")
    assert broadcast_root(g, t, 7, tr) == [7, 7]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), op=st.sampled_from(["SUM", "MIN", "MAX", "OR", "AND"]))
def test_pa_operators_property(seed, op):
    g = grid(4, 5)
    rng = random.Random(seed)
    inputs = [rng.randint(0, 31) for _ in range(g.n)]
    cols = Partition(tuple(v % 5 == 0 and 0 or 1 for v in range(g.n)))
    # columns partition is invalid (disconnected); use rows instead
    rows = Partition(tuple(v // 5 for v in range(g.n)))
    tr = PhaseTrace("pa")
    res = pa_aggregate(g, rows, inputs, op, "honest", tr, diameter=7)
    for r in range(4):
        members = list(range(5 * r, 5 * r + 5))
        assert res[5 * r] == fold(op, [inputs[v] for v in members])


def _random_forest(g, rng):
    """Parent pointers of a random spanning forest of g: a search from a
    random root that takes its next vertex from anywhere on the frontier,
    then a random third or less of the vertices cut from their parents."""
    root = rng.randrange(g.n)
    parent = [None] * g.n
    seen = {root}
    frontier = [(root, u) for u in g.neighbors(root)]
    while frontier:
        p, v = frontier.pop(rng.randrange(len(frontier)))
        if v not in seen:
            seen.add(v)
            parent[v] = p
            frontier.extend((v, u) for u in g.neighbors(v))
    for v in rng.sample(range(g.n), rng.randrange(g.n // 3 + 1)):
        parent[v] = None
    return parent


@settings(max_examples=40, deadline=None)
@given(
    g=st.one_of(
        st.builds(grid, st.integers(2, 6), st.integers(2, 6)),
        st.builds(random_triangulation, st.integers(4, 40), st.integers(0, 10**6)),
    ),
    op=st.sampled_from(["SUM", "MAX", "OR"]),
    seed=st.integers(0, 10**6),
    scramble=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_tree_fold_matches_brute_force(g, op, seed, scramble):
    """On a random forest: every vertex's subtree fold, each child's
    partial and its tree's fold are the brute-force folds, with one frame
    up and one down each tree edge."""
    rng = random.Random(seed)
    parent = _random_forest(g, rng)
    inputs = [rng.randrange(1024) for _ in range(g.n)]
    tr = PhaseTrace("fold")
    sim = Simulator(g.dart_table, bit_budget=10**4, scramble=scramble)
    states = sim.run(TreeFold(op, inputs), tree_views(g.dart_table, parent), tr)

    below = [[x] for x in range(g.n)]  # each vertex's subtree, by walks up
    top = list(range(g.n))
    for x in range(g.n):
        a = parent[x]
        while a is not None:
            below[a].append(x)
            top[x], a = a, parent[a]

    def brute(vs):
        return fold(op, [inputs[x] for x in vs])

    head = g.dart_table.head
    for v, st_ in enumerate(states):
        assert st_["acc"] == brute(below[v])
        kids = {head[d]: partial for d, partial in st_["kids"].items()}
        assert kids == {c: brute(below[c]) for c in range(g.n) if parent[c] == v}
        assert st_["fold"] == brute(below[top[v]])
    assert tr.messages == 2 * sum(p is not None for p in parent)
