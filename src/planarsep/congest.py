"""Deterministic synchronous message-passing simulator with bit accounting.

Vertices exchange payloads (tuples of nonnegative ints) along darts in
lock-step rounds; a message sent in round r is readable in round r+1.
Each dart carries at most one payload per round and its encoded size
(sum of bit lengths) must stay within the per-edge budget, default
8 * ceil(log2(n+1)) bits.

Two part-wise aggregation backends share one result contract: "honest"
executes a convergecast + broadcast on a BFS tree of every part and
counts true rounds; "charged" computes the folds out-of-band and books
D * ceil(log2(n+1))^2 rounds per call (pa_charge), the cost model for the
shortcut-based aggregation the literature provides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .embedding import Dart, EmbeddedPlanarGraph
from .errors import BitBudgetExceeded, RoundLimitExceeded
from .treecotree import part_bfs_trees, part_members

Payload = tuple[int, ...]


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

    init builds the mutable state from read-only local knowledge; step is
    called at round 0 and whenever the inbox is nonempty, and returns
    (outbox, halt).  The inbox maps the receiving vertex's own dart to the
    payload that arrived over it.  A step function must depend only on
    (round, knowledge, state, inbox).
    """

    def init(self, know) -> dict:
        return {}

    def step(self, round_no: int, know, state: dict, inbox: dict[Dart, Payload]):
        raise NotImplementedError

    # A program may set state["_wake"] = True to be stepped next round even
    # with an empty inbox (e.g. to drain a relay queue); the engine clears
    # the flag after each step.


class Simulator:
    """Lock-step engine over fixed channels; one instance runs many programs.

    channels[v] lists v's own darts.  The routing table of sender v maps
    each of its darts to the receiver's own copy of the reverse dart: the
    key under which the payload lands in the inbox of the receiver, its
    tail.
    """

    def __init__(
        self,
        channels: Sequence[Sequence[Dart]],
        bit_budget: Optional[int] = None,
        scramble: Optional[int] = None,
    ):
        self.n = len(channels)
        own = {d: d for row in channels for d in row}
        self._route: list[dict[Dart, Dart]] = [{} for _ in range(self.n)]
        for d in own:
            rev = d.reverse()
            self._route[d.tail][d] = own.get(rev, rev)
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
        route = self._route
        budget = self.bit_budget
        bit_length = int.bit_length
        halted = [False] * self.n
        unhalted = self.n
        # this round's inboxes by receiver; a message sent in round r is
        # written straight into round r+1's inbox of its receiver
        inboxes: dict[int, dict[Dart, Payload]] = {}
        # only messaged or self-woken vertices step (plus everyone at round 0)
        candidates: list[int] = list(self._order)
        rank = self._rank
        round_no = 0
        # counters accumulate locally and reach the trace even when a guard raises
        messages = total_bits = dropped = 0
        max_bits = trace.max_bits
        try:
            while True:
                if unhalted == 0:
                    dropped += sum(map(len, inboxes.values()))
                    break
                if round_no > max_rounds:
                    raise RoundLimitExceeded(
                        f"{trace.name}: {self.n - unhalted}/{self.n} halted "
                        f"after {max_rounds} rounds"
                    )
                nxt: dict[int, dict[Dart, Payload]] = {}
                woken = []
                stepped = False
                for v in candidates:
                    inbox = inboxes.get(v)
                    if halted[v]:  # every receiver is a candidate
                        if inbox:
                            dropped += len(inbox)
                        continue
                    st = states[v]
                    stepped = True
                    # a candidate without an inbox is at round 0 or was woken
                    outbox, halt = step(round_no, knowledge[v], st, inbox or {})
                    if halt:
                        halted[v] = True
                        unhalted -= 1
                    if st.pop("_wake", False):
                        woken.append(v)
                    table = route[v]
                    for d, p in outbox:
                        key = table.get(d)
                        if key is None:
                            raise AssertionError(f"vertex {v} sent on foreign dart {d}")
                        bits = sum(map(bit_length, p)) + p.count(0)  # == payload_bits(p)
                        if bits > budget:
                            if allow_wide:
                                trace.overflow_flags += 1
                            else:
                                raise BitBudgetExceeded(round_no, d, bits, budget)
                        messages += 1
                        total_bits += bits
                        if bits > max_bits:
                            max_bits = bits
                        recv = key[0]
                        box = nxt.get(recv)
                        if box is None:
                            nxt[recv] = {key: p}
                        elif key in box:
                            # one sender may use each dart at most once per round
                            raise AssertionError(f"duplicate send on dart {d}")
                        else:
                            box[key] = p
                if not stepped and not nxt:
                    raise AssertionError(f"{trace.name}: deadlock at round {round_no}")
                inboxes = nxt
                wake = set(nxt)
                wake.update(woken)
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
    f = OPERATORS[op]
    acc = values[0]
    for x in values[1:]:
        acc = f(acc, x)
    return acc


# -- partitions ------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    part_of: tuple[int, ...]


_UP, _DOWN = 1, 2


class _PAProgram(VertexProgram):
    """Convergecast to each part root, then broadcast the fold back down."""

    def __init__(self, op: str):
        self.op = op

    def init(self, know) -> dict:
        return {"acc": know["input"], "pending": len(know["down"]), "sent": False}

    def step(self, r, know, st, inbox):
        f = OPERATORS[self.op]
        for payload in inbox.values():
            tag, value = payload
            if tag == _UP:
                st["acc"] = f(st["acc"], value)
                st["pending"] -= 1
            else:
                st["result"] = value
                return [(d, (_DOWN, value)) for d in know["down"]], True
        if st["pending"] == 0 and not st["sent"]:
            st["sent"] = True
            if know["up"] is None:
                st["result"] = st["acc"]
                return [(d, (_DOWN, st["acc"])) for d in know["down"]], True
            return [(know["up"], (_UP, st["acc"]))], False
        return [], False


PA_BACKENDS = ("honest", "charged")


class PartAggregator:
    """Part-wise aggregation over one fixed partition of g.

    Built once per partition: the partition check, the per-part BFS trees
    (children in ascending id), the tree darts and, for the honest
    backend, the simulator.  Each call is one aggregation: every vertex
    learns the fold of its part's inputs.
    """

    def __init__(
        self,
        g: EmbeddedPlanarGraph,
        partition: Partition,
        backend: str,
        bit_budget: Optional[int] = None,
        diameter: Optional[int] = None,
        scramble: Optional[int] = None,
    ):
        trees = part_bfs_trees(g, partition.part_of)  # also the partition check
        if backend not in PA_BACKENDS:
            raise ValueError(f"unknown backend {backend}")
        self.part_of = partition.part_of
        self.members = part_members(partition.part_of)
        self.budget = bit_budget if bit_budget is not None else default_bit_budget(g.n)
        self.charge = pa_charge(diameter if diameter is not None else g.n, g.n)
        self.sim: Optional[Simulator] = None
        if backend == "charged":
            return
        parent = [trees[pid].parent[v] for v, pid in enumerate(self.part_of)]
        children: list[list[int]] = [[] for _ in range(g.n)]
        for v, p in enumerate(parent):
            if p is not None:
                children[p].append(v)
        self.know = [
            {
                "up": None if parent[v] is None else Dart(v, parent[v]),
                "down": [Dart(v, c) for c in children[v]],
                "input": None,
            }
            for v in range(g.n)
        ]
        # the waves use tree darts only, so those are the only channels
        self.sim = Simulator(
            [([] if k["up"] is None else [k["up"]]) + k["down"] for k in self.know],
            bit_budget=self.budget, scramble=scramble,
        )

    def __call__(self, inputs: Sequence[int], operator: str, trace: PhaseTrace) -> list[int]:
        if operator not in OPERATORS:
            raise ValueError(f"unknown operator {operator}")
        expected = {
            pid: fold(operator, [inputs[v] for v in members])
            for pid, members in self.members.items()
        }
        folds = [expected[pid] for pid in self.part_of]
        trace.pa_calls += 1
        # a MIN or AND convergecast forwards partial folds wider than its
        # result, so the widest input bounds the payload as well
        widest = max(max(inputs, default=0), max(expected.values(), default=0))
        wide = widest.bit_length() + 4 > self.budget
        if wide:
            trace.overflow_flags += 1
        if self.sim is None:
            trace.charged_rounds += self.charge
            return folds
        for know, x in zip(self.know, inputs):
            know["input"] = x
        before = trace.honest_rounds
        states = self.sim.run(_PAProgram(operator), self.know, trace, allow_wide=wide)
        trace.charged_rounds += max(self.charge, trace.honest_rounds - before)
        results = [st["result"] for st in states]
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
    One call of a PartAggregator built for this call alone."""
    agg = PartAggregator(g, partition, backend, bit_budget, diameter, scramble)
    return agg(inputs, operator, trace)


class _BroadcastProgram(VertexProgram):
    def init(self, know):
        return {}

    def step(self, r, know, st, inbox):
        if r == 0 and know["parent"] is None:
            st["value"] = know["value"]
            return [
                (Dart(know["vid"], c), (know["value"],)) for c in know["children"]
            ], True
        for _, payload in inbox.items():
            st["value"] = payload[0]
            return [
                (Dart(know["vid"], c), (payload[0],)) for c in know["children"]
            ], True
        return [], know["parent"] is None

    # a vertex with a parent keeps waiting until the value arrives


def broadcast_root(
    g: EmbeddedPlanarGraph,
    tree,
    value: int,
    trace: PhaseTrace,
    bit_budget: Optional[int] = None,
    scramble: Optional[int] = None,
) -> list[int]:
    """All vertices learn `value` by flooding down the spanning tree."""
    kids = tree.children()
    know = [
        {"vid": v, "parent": tree.parent[v], "children": kids[v], "value": value}
        for v in range(g.n)
    ]
    sim = Simulator(g.rotation, bit_budget=bit_budget, scramble=scramble)
    states = sim.run(_BroadcastProgram(), know, trace)
    return [states[v].get("value") for v in range(g.n)]
