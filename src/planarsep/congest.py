"""Deterministic synchronous message-passing simulator with bit accounting.

Vertices exchange payloads (tuples of nonnegative ints) along darts in
lock-step rounds; a message sent in round r is readable in round r+1.
Each dart carries at most one payload per round and its encoded size
(sum of bit lengths) must stay within the per-edge budget, default
8 * ceil(log2(n+1)) bits.

A run inits every vertex but steps at round 0 only the vertices whose
program says they start (VertexProgram.starts, every vertex unless the
program overrides it); after round 0 a vertex steps only when a message
reached it or it asked to be woken.  A program overrides starts only
where a non-starter's round-0 step would send nothing and not halt, and
where every non-starter hears a message later; a vertex that never does
ends the run in a deadlock.

Darts are plain ints inside the engine: a DartTable (see embedding.py)
numbers the darts of a rotation system once, in ascending (tail, head,
copy) order, so that comparing ids compares darts.  A program sends on
its own dart ids, and a payload lands in the receiver's inbox under the
receiver's own id of the reverse dart.  pa_aggregate and broadcast
route over g.dart_table, so no call numbers darts of its own.  Dart
objects appear only where callers hand darts in or read them out.

Two part-wise aggregation backends share one PartAggregator: "honest"
folds one int per vertex in a convergecast + broadcast (TreeFold) of
one-int frames on a forest of one tree per part (T in the pipeline) and
counts true rounds;
"charged" computes the folds out-of-band and books D * ceil(log2(n+1))^2
rounds per call (pa_charge), the cost model for the shortcut-based
aggregation the literature provides.  A part may sit a call out: its
vertices send nothing, and a call no part takes books nothing.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .embedding import DartTable, EmbeddedPlanarGraph
from .errors import BadParams, BitBudgetExceeded, RoundLimitExceeded
from .treecotree import part_bfs_trees, part_members

Payload = tuple[int, ...]

# the inbox of every step that has no messages
_NO_INBOX: Mapping[int, Payload] = MappingProxyType({})


def payload_bits(p: Payload) -> int:
    """Encoded size: the sum of bit lengths, a zero counting one bit.  The
    reference for the simulator's inline count."""
    total = 0
    for x in p:
        b = x.bit_length()
        total += b if b else 1
    return total


def default_bit_budget(n: int) -> int:
    return 8 * max(1, n.bit_length())  # bit_length(n) == ceil(log2(n+1))


def log2ceil(n: int) -> int:
    return max(1, (n - 1).bit_length())


def pa_charge(diameter: int, n: int) -> int:
    """Rounds booked for one charged part-wise aggregation: D * ceil(log2(n+1))^2."""
    return diameter * log2ceil(n + 1) ** 2


@dataclass
class PhaseTrace:
    name: str
    honest_rounds: int = 0
    charged_rounds: int = 0
    max_bits: int = 0
    messages: int = 0
    total_bits: int = 0
    pa_calls: int = 0
    probes: int = 0  # always 0 since no phase searches; perfbench/run.py reads it
    overflow_flags: int = 0
    dropped: int = 0

    def line(self) -> str:
        return (
            f"phase {self.name} honest {self.honest_rounds} "
            f"charged {self.charged_rounds} maxbits {self.max_bits}"
        )


@dataclass
class RoundTrace:
    phases: list[PhaseTrace] = field(default_factory=list)
    interval_lengths: list[int] = field(default_factory=list)

    def phase(self, name: str) -> PhaseTrace:
        pt = PhaseTrace(name=name)
        self.phases.append(pt)
        return pt

    @property
    def rounds_executed(self) -> int:
        return sum(p.honest_rounds for p in self.phases)

    @property
    def charged_rounds(self) -> int:
        return sum(p.charged_rounds for p in self.phases)

    @property
    def max_bits_per_edge_per_round(self) -> int:
        return max((p.max_bits for p in self.phases), default=0)

    def export_text(self) -> str:
        lines = [p.line() for p in self.phases]
        if self.interval_lengths:
            lines.append("intervals " + " ".join(map(str, self.interval_lengths)))
        return "\n".join(lines) + "\n"


class VertexProgram:
    """Deterministic per-vertex state machine.

    init builds the mutable state of every vertex from its read-only local
    knowledge; step is called at round 0 where starts(know) holds, and
    after that whenever the inbox is nonempty, and returns (outbox, halt):
    (own dart id, payload) pairs.  The inbox maps the receiving vertex's
    own dart id to the payload that arrived over it; a step without
    messages gets an empty read-only mapping.  A step function must depend
    only on (round, knowledge, state, inbox).

    A program makes no reference cycle: no state, message or output refers
    back to itself, so reference counting frees all a run drops.  The
    engine entry points pause the cyclic collector on that ground
    (collector.collector_paused), and tests/test_collector.py holds every
    run to it.
    """

    def init(self, know) -> dict:
        return {}

    def starts(self, know) -> bool:
        """Whether the vertex steps at round 0; every vertex by default.
        Return False only where that step would send nothing and not
        halt, and where a message reaches the vertex later."""
        return True

    def step(self, round_no: int, know, state: dict, inbox: Mapping[int, Payload]):
        raise NotImplementedError

    # A program may set state["_wake"] = True to be stepped next round even
    # with an empty inbox (e.g. to drain a relay queue); the engine clears
    # the flag after each step.


class Simulator:
    """Lock-step engine over fixed channels; one instance runs many programs.

    Every dart of the table is a channel of its tail.  A payload sent on
    dart d lands in the inbox of head(d), keyed by the receiver's id of
    the reverse dart.  Vertices step in ascending id order, or in the
    order a scramble seed shuffles them into.
    """

    def __init__(
        self,
        darts: DartTable,
        bit_budget: Optional[int] = None,
        scramble: Optional[int] = None,
    ):
        self.darts = darts
        self.n = len(darts.rot)
        self.bit_budget = bit_budget if bit_budget is not None else default_bit_budget(self.n)
        self._order = list(range(self.n))
        self._rank: Optional[dict[int, int]] = None  # None: ascending ids
        if scramble is not None:
            random.Random(scramble).shuffle(self._order)
            self._rank = {v: i for i, v in enumerate(self._order)}

    def run(
        self,
        program: VertexProgram,
        knowledge: Sequence,
        trace: PhaseTrace,
        max_rounds: int = 10**6,
        allow_wide: bool = False,
    ) -> list[dict]:
        states = [program.init(knowledge[v]) for v in range(self.n)]
        step = program.step
        lo, head, rev = self.darts.lo, self.darts.head, self.darts.rev
        budget = self.bit_budget
        bit_length = int.bit_length
        n = self.n
        halted = [False] * n
        unhalted = n
        # this round's and the next round's inboxes by receiver, kept for
        # the whole run; a message sent in round r is written straight into
        # round r+1's inbox, and a round clears the slots it reads
        inboxes: list[Optional[dict[int, Payload]]] = [None] * n
        nxt: list[Optional[dict[int, Payload]]] = [None] * n
        receivers: list[int] = []
        # round 0 steps the starters, later rounds messaged or self-woken vertices
        starts = program.starts
        candidates: list[int] = [v for v in self._order if starts(knowledge[v])]
        rank = self._rank
        round_no = 0
        # counters accumulate locally and reach the trace even when a guard raises
        messages = total_bits = dropped = 0
        max_bits = trace.max_bits
        try:
            while True:
                if unhalted == 0:
                    dropped += sum(len(inboxes[v]) for v in receivers)
                    break
                if round_no >= max_rounds:
                    raise RoundLimitExceeded(
                        f"{trace.name}: {self.n - unhalted}/{self.n} halted "
                        f"after {max_rounds} rounds"
                    )
                nxt_receivers = []
                woken = []
                stepped = False
                for v in candidates:
                    inbox = inboxes[v]
                    inboxes[v] = None
                    if halted[v]:  # every receiver is a candidate
                        if inbox:
                            dropped += len(inbox)
                        continue
                    st = states[v]
                    stepped = True
                    # a candidate without an inbox is a starter or was woken
                    outbox, halt = step(round_no, knowledge[v], st, inbox or _NO_INBOX)
                    if halt:
                        halted[v] = True
                        unhalted -= 1
                    if st.pop("_wake", False):
                        woken.append(v)
                    if not outbox:
                        continue
                    first, end = lo[v], lo[v + 1]
                    for d, p in outbox:
                        if not first <= d < end:
                            raise AssertionError(f"vertex {v} sent on foreign dart {d}")
                        bits = 0  # == payload_bits(p)
                        for x in p:
                            bits += bit_length(x) or 1
                        if bits > budget:
                            if allow_wide:
                                trace.overflow_flags += 1
                            else:
                                raise BitBudgetExceeded(
                                    round_no, self.darts.dart(d), bits, budget
                                )
                        messages += 1
                        total_bits += bits
                        if bits > max_bits:
                            max_bits = bits
                        key = rev[d]
                        recv = head[d]
                        box = nxt[recv]
                        if box is None:
                            nxt[recv] = {key: p}
                            nxt_receivers.append(recv)
                        elif key in box:
                            # one sender may use each dart at most once per round
                            raise AssertionError(f"duplicate send on dart {d}")
                        else:
                            box[key] = p
                if not stepped and not nxt_receivers:
                    raise AssertionError(f"{trace.name}: deadlock at round {round_no}")
                inboxes, nxt = nxt, inboxes
                receivers = nxt_receivers
                # each receiver is listed once; only woken vertices may repeat
                wake = set(receivers).union(woken) if woken else receivers
                candidates = sorted(wake, key=rank.__getitem__) if rank else sorted(wake)
                round_no += 1
                trace.honest_rounds += 1
        finally:
            trace.messages += messages
            trace.total_bits += total_bits
            trace.max_bits = max_bits
            trace.dropped += dropped
        return states


# -- aggregate operators --------------------------------------------------

OPERATORS: dict[str, Callable[[int, int], int]] = {
    "SUM": lambda a, b: a + b,
    "MIN": min,
    "MAX": max,
    "OR": lambda a, b: a | b,
    "AND": lambda a, b: a & b,
}


def fold(op: str, values: Sequence[int]) -> int:
    return reduce(OPERATORS[op], values)


# -- partitions ------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    part_of: tuple[int, ...]


@dataclass(slots=True)
class TreeView:
    """What a vertex knows of a rooted forest: its id, its dart to its
    parent (None at a root) and its darts to its children, ascending.
    Slots, not a NamedTuple: programs read the fields as attributes, and
    slot reads are the fast ones."""

    vid: int
    parent_dart: Optional[int]
    child_darts: tuple[int, ...]


class TreeFold(VertexProgram):
    """Folds every vertex's int up a rooted forest under `op`, then sends
    each root's fold back down: the convergecast and broadcast of one
    part-wise aggregation.

    A vertex reads the TreeView fields of its knowledge.  It keeps the
    fold of its subtree ("acc") and each child's partial by child dart
    ("kids"), and learns its tree's fold ("fold").  A frame is one int,
    (x,): a partial when it arrives over a child dart, the fold when it
    arrives over the parent dart.  A vertex whose input is None sits the
    call out, as its whole tree must: it halts at round 0, sends nothing
    and learns no fold.
    """

    def __init__(self, op: str, inputs: Sequence[Optional[int]]):
        self.f = OPERATORS[op]
        self.inputs = inputs

    def init(self, know) -> dict:
        return {"acc": self.inputs[know.vid], "kids": {}}

    def starts(self, know) -> bool:
        # a leaf, or a vertex sitting the call out; every other vertex
        # waits for its children
        return not know.child_darts or self.inputs[know.vid] is None

    def step(self, r, know, st, inbox):
        if st["acc"] is None:
            return [], True
        up, down = know.parent_dart, know.child_darts
        kids = st["kids"]
        for k, frame in inbox.items():
            if k == up:
                st["fold"] = frame[0]
                return [(d, frame) for d in down], True
            kids[k] = part = frame[0]
            st["acc"] = self.f(st["acc"], part)
        if len(kids) < len(down):
            return [], False
        # the last partial is in: this step is the vertex's only one to send up
        acc = st["acc"]
        msg = (acc,)
        if up is None:
            st["fold"] = acc
            return [(d, msg) for d in down], True
        return [(up, msg)], False


PA_BACKENDS = ("honest", "charged")


def require_backend(backend: str) -> None:
    """BadParams unless backend names a part-wise aggregation backend."""
    if backend not in PA_BACKENDS:
        raise BadParams(f"unknown backend {backend!r}, expected one of {PA_BACKENDS}")


def tree_views(darts: DartTable, parent: Sequence[Optional[int]]) -> list[TreeView]:
    """Every vertex's TreeView of the forest given by parent pointers.  A
    tree edge's channel is the smallest-id dart from the child to the
    parent, and its reverse; children come in ascending id, which is
    ascending dart id."""
    up: list[Optional[int]] = [None] * len(parent)
    down: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p is not None:
            up[v] = d = bisect_left(darts.head, p, darts.lo[v], darts.lo[v + 1])
            down[p].append(darts.rev[d])
    # tuples of ints drop out of the collector's tracking; lists never do
    return list(map(TreeView, range(len(parent)), up, map(tuple, down)))


@dataclass
class PartAggregator:
    """Part-wise aggregation on a forest of one tree per part: each call is
    one aggregation, and every vertex learns the fold of its part's inputs.

    `members` lists each part's vertices (part_members).  `sim` runs
    TreeFold on `forest`, every vertex's TreeView (or any object with its
    fields); the charged backend has no simulator.  A part whose inputs
    are all None sits the call out: its vertices send nothing and learn
    None.  A call books `charge` rounds, or its honest rounds where they
    are more, and flags inputs too wide for `budget`, which then may
    exceed it; a call that no part takes books nothing.
    """

    members: dict[int, list[int]]
    forest: Optional[Sequence]
    sim: Optional[Simulator]
    budget: int
    charge: int

    def __call__(
        self, inputs: Sequence[Optional[int]], operator: str, trace: PhaseTrace
    ) -> list[Optional[int]]:
        if operator not in OPERATORS:
            raise ValueError(f"unknown operator {operator}")
        folds: list[Optional[int]] = [None] * len(inputs)
        widths = []  # the widest value of each part that takes the call
        for pid, members in self.members.items():
            values = [inputs[v] for v in members]
            if None in values:
                if values.count(None) < len(values):
                    raise ValueError(f"part {pid} sits the call out at some members only")
                continue
            part = fold(operator, values)
            for v in members:
                folds[v] = part
            # a MIN or AND convergecast forwards partial folds wider than
            # its result, so the widest input bounds the payload as well
            widths.append(max(part, max(values)))
        if not widths:  # every part sits the call out
            return folds
        trace.pa_calls += 1
        wide = payload_bits((max(widths),)) > self.budget  # the one-int frame as sent
        if wide:
            trace.overflow_flags += 1
        if self.sim is None:
            trace.charged_rounds += self.charge
            return folds
        before = trace.honest_rounds
        states = self.sim.run(TreeFold(operator, inputs), self.forest, trace, allow_wide=wide)
        trace.charged_rounds += max(self.charge, trace.honest_rounds - before)
        results = [st.get("fold") for st in states]
        assert results == folds
        return results


def pa_aggregate(
    g: EmbeddedPlanarGraph,
    partition: Partition,
    inputs: Sequence[int],
    operator: str,
    backend: str,
    trace: PhaseTrace,
    bit_budget: Optional[int] = None,
    diameter: Optional[int] = None,
    scramble: Optional[int] = None,
) -> list[int]:
    """Every vertex learns the fold of its part's inputs; returns the list.
    BadParams for an unknown backend.  The honest backend folds on each
    part's BFS tree (part_bfs_trees, also the partition check)."""
    require_backend(backend)
    trees = part_bfs_trees(g, partition.part_of)
    budget = bit_budget if bit_budget is not None else default_bit_budget(g.n)
    forest = sim = None
    if backend == "honest":
        forest = tree_views(
            g.dart_table, [trees[pid].parent[v] for v, pid in enumerate(partition.part_of)]
        )
        sim = Simulator(g.dart_table, bit_budget=budget, scramble=scramble)
    charge = pa_charge(diameter if diameter is not None else g.n, g.n)
    agg = PartAggregator(part_members(partition.part_of), forest, sim, budget, charge)
    return agg(inputs, operator, trace)


class _BroadcastProgram(VertexProgram):
    """Each root sends the value down its tree; a vertex reads the
    TreeView fields of its knowledge."""

    def __init__(self, value: int):
        self.msg = (value,)

    def starts(self, know) -> bool:
        return know.parent_dart is None  # every other vertex waits for the value

    def step(self, r, know, st, inbox):
        if know.parent_dart is None:  # a root steps once, at round 0
            st["value"] = self.msg[0]
            return [(d, self.msg) for d in know.child_darts], True
        for payload in inbox.values():
            st["value"] = payload[0]
            return [(d, payload) for d in know.child_darts], True
        return [], False  # a vertex with a parent waits until the value arrives


def broadcast_root(
    g: EmbeddedPlanarGraph,
    tree,
    value: int,
    trace: PhaseTrace,
    bit_budget: Optional[int] = None,
    scramble: Optional[int] = None,
) -> list[int]:
    """All vertices learn `value` by flooding down the spanning tree."""
    sim = Simulator(g.dart_table, bit_budget=bit_budget, scramble=scramble)
    states = sim.run(_BroadcastProgram(value), tree_views(g.dart_table, tree.parent), trace)
    return [states[v].get("value") for v in range(g.n)]
