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
from .errors import (
    BitBudgetExceeded,
    InvalidPartition,
    RoundLimitExceeded,
)
from .treecotree import part_bfs_trees

Payload = tuple[int, ...]


def payload_bits(p: Payload) -> int:
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
    probes: int = 0
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

    @property
    def probes(self) -> int:
        return sum(p.probes for p in self.phases)

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
    # the flag before stepping.


class Simulator:
    def __init__(
        self,
        channels: Sequence[Sequence[Dart]],
        bit_budget: Optional[int] = None,
        scramble: Optional[int] = None,
    ):
        self.channels = [list(c) for c in channels]
        self.n = len(self.channels)
        self.dart_set = {d for row in self.channels for d in row}
        self.bit_budget = bit_budget if bit_budget is not None else default_bit_budget(self.n)
        self._order = list(range(self.n))
        if scramble is not None:
            random.Random(scramble).shuffle(self._order)

    def run(
        self,
        program: VertexProgram,
        knowledge: Sequence,
        trace: PhaseTrace,
        max_rounds: int = 10**6,
        allow_wide: bool = False,
    ) -> list[dict]:
        states = [program.init(knowledge[v]) for v in range(self.n)]
        halted = [False] * self.n
        unhalted = self.n
        inflight: list[tuple[Dart, Payload]] = []
        # only messaged or self-woken vertices step (plus everyone at round 0)
        candidates: list[int] = list(self._order)
        rank = {v: i for i, v in enumerate(self._order)}
        round_no = 0
        while True:
            if unhalted == 0:
                trace.dropped += len(inflight)
                break
            if round_no > max_rounds:
                raise RoundLimitExceeded(
                    f"{trace.name}: {self.n - unhalted}/{self.n} halted after {max_rounds} rounds"
                )
            inboxes: dict[int, dict[Dart, Payload]] = {}
            for d, p in inflight:
                recv = d.head
                if halted[recv]:
                    trace.dropped += 1
                    continue
                inboxes.setdefault(recv, {})[d.reverse()] = p
            inflight = []
            stepped = False
            wake_next: set[int] = set()
            for v in candidates:
                if halted[v]:
                    continue
                inbox = inboxes.get(v)
                if inbox is None and round_no > 0 and not states[v].get("_wake"):
                    continue
                states[v].pop("_wake", None)
                stepped = True
                outbox, halt = program.step(round_no, knowledge[v], states[v], inbox or {})
                if halt:
                    halted[v] = True
                    unhalted -= 1
                if states[v].get("_wake"):
                    wake_next.add(v)
                for d, p in outbox:
                    if d.tail != v or d not in self.dart_set:
                        raise AssertionError(f"vertex {v} sent on foreign dart {d}")
                    bits = payload_bits(p)
                    if bits > self.bit_budget:
                        if allow_wide:
                            trace.overflow_flags += 1
                        else:
                            raise BitBudgetExceeded(round_no, d, bits, self.bit_budget)
                    trace.messages += 1
                    trace.total_bits += bits
                    if bits > trace.max_bits:
                        trace.max_bits = bits
                    inflight.append((d, p))
            if not stepped and not inflight:
                raise AssertionError(f"{trace.name}: deadlock at round {round_no}")
            # one sender may use each dart at most once per round
            seen = set()
            for d, _ in inflight:
                if d in seen:
                    raise AssertionError(f"duplicate send on dart {d}")
                seen.add(d)
            candidates = sorted(
                wake_next.union(d.head for d, _ in inflight), key=rank.__getitem__
            )
            round_no += 1
            trace.honest_rounds += 1
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

    def parts(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, p in enumerate(self.part_of):
            out.setdefault(p, []).append(v)
        return out


def validate_partition(g: EmbeddedPlanarGraph, partition: Partition) -> dict[int, list[int]]:
    if len(partition.part_of) != g.n:
        raise InvalidPartition(f"partition covers {len(partition.part_of)} of {g.n} vertices")
    parts = partition.parts()
    for pid, members in parts.items():
        member_set = set(members)
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in member_set and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != member_set:
            raise InvalidPartition(f"part {pid} induces a disconnected subgraph")
    return parts


_UP, _DOWN = 1, 2


class _PAProgram(VertexProgram):
    """Convergecast to each part root, then broadcast the fold back down."""

    def __init__(self, op: str):
        self.op = op

    def init(self, know) -> dict:
        return {"acc": know["input"], "pending": len(know["children"]), "sent": False}

    def step(self, r, know, st, inbox):
        f = OPERATORS[self.op]
        out = []
        for d, payload in inbox.items():
            tag, value = payload
            if tag == _UP:
                st["acc"] = f(st["acc"], value)
                st["pending"] -= 1
            else:
                st["result"] = value
                out.extend(
                    (Dart(know["vid"], c), (_DOWN, value)) for c in know["children"]
                )
                return out, True
        if st["pending"] == 0 and not st["sent"]:
            st["sent"] = True
            if know["parent"] is None:
                st["result"] = st["acc"]
                out = [
                    (Dart(know["vid"], c), (_DOWN, st["acc"])) for c in know["children"]
                ]
                return out, True
            return [(Dart(know["vid"], know["parent"]), (_UP, st["acc"]))], False
        return out, False


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
    """Every vertex learns the fold of its part's inputs; returns the list."""
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator}")
    parts = validate_partition(g, partition)
    expected = {
        pid: fold(operator, [inputs[v] for v in sorted(members)])
        for pid, members in parts.items()
    }
    budget = bit_budget if bit_budget is not None else default_bit_budget(g.n)
    d_est = diameter if diameter is not None else g.n
    charge = pa_charge(d_est, g.n)
    trace.pa_calls += 1

    wide = any(r.bit_length() + 4 > budget for r in expected.values())
    if wide:
        trace.overflow_flags += 1

    if backend == "charged":
        trace.charged_rounds += charge
        return [expected[partition.part_of[v]] for v in range(g.n)]
    if backend != "honest":
        raise ValueError(f"unknown backend {backend}")

    trees = part_bfs_trees(g, partition.part_of)
    parent = [trees[pid].parent[v] for v, pid in enumerate(partition.part_of)]
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].append(v)
    know = [
        {
            "vid": v,
            "parent": parent[v],
            "children": children[v],
            "input": inputs[v],
        }
        for v in range(g.n)
    ]
    sim = Simulator(g.rotation, bit_budget=budget, scramble=scramble)
    before = trace.honest_rounds
    states = sim.run(_PAProgram(operator), know, trace, allow_wide=wide)
    honest_delta = trace.honest_rounds - before
    trace.charged_rounds += max(charge, honest_delta)
    results = [states[v]["result"] for v in range(g.n)]
    assert results == [expected[partition.part_of[v]] for v in range(g.n)]
    return results


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
