"""The two engines as the benchmark calls them, and the correctness gate.

``run_seq`` and ``run_dist`` call the public entry points.  ``traced_seq``
and ``traced_dist`` rebuild the same calls from the public stage
functions, with a span around each stage; ``Gate`` requires the rebuild
to reproduce the entry points' output and ``RoundTrace`` exactly, so the
spans time the program the entry points run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from planarsep.biconnect import biconnect
from planarsep.congest import (
    Partition,
    PhaseTrace,
    RoundTrace,
    broadcast_root,
    default_bit_budget,
    pa_aggregate,
)
from planarsep.dist import (
    DistPipeline,
    DistSeparatorOutput,
    PipelineConfig,
    _part_knowledge,
    dist_compute_separator,
    dist_multi,
)
from planarsep.embedding import Dart
from planarsep.errors import DegenerateTotal, NotProper
from planarsep.separator import (
    PROPERNESS,
    SeparatorResult,
    compute_separator,
    find_balanced_or_critical,
    sep_records,
    separator_from_balanced,
    separator_from_critical,
    serialize_separator,
)
from planarsep.treecotree import cotree
from planarsep.verify import verify_separator
from planarsep.weights import check_proper, transfer_weights

from spans import Tracer
from workloads import Instance, PartInput

# DistPipeline stage methods in run_all order, with the RoundTrace phase
# each one appends
DIST_PHASES = [
    ("run_tree_root", "tree_root"),
    ("run_learn_faces", "learn_faces"),
    ("run_learn_cotree", "learn_cotree"),
    ("run_face_weights", "face_weights"),
    ("run_root_election", "root_election"),
    ("run_dual_sums", "dual_subtree_sums"),
    ("run_detect", "detect"),
    ("run_prefix", "mark_prefix"),
    ("run_search", "mark_search"),
    ("run_mark", "mark_path"),
]


# -- entry points ---------------------------------------------------------------


def run_seq(inst: Instance) -> list[SeparatorResult]:
    return [compute_separator(p.graph, p.tree, p.weights) for p in inst.parts]


def run_dist(inst: Instance) -> tuple[dict[int, DistSeparatorOutput], RoundTrace]:
    if inst.part_of is None:
        out, trace = dist_compute_separator(inst.graph, inst.tree, inst.weights)
        return {0: out}, trace
    return dist_multi(inst.graph, inst.part_of, inst.trees, inst.weights)


# -- traced rebuilds ------------------------------------------------------------


@dataclass
class SeqStats:
    """Per-part facts the traced sequential run reads off its stages."""

    virtual_edges: int
    dual_nodes: int
    face_k: int                   # critical face length; 0 when balanced


def _require_proper(weights: list[int], what: str) -> None:
    verdict = check_proper(weights, PROPERNESS)
    if verdict.degenerate:
        raise DegenerateTotal(f"{what}: total weight is zero")
    if not verdict.proper:
        raise NotProper(f"{what}: weights are not 1/12-proper")


def traced_seq(part: PartInput, tracer: Tracer) -> tuple[SeparatorResult, SeqStats]:
    """compute_separator, stage by stage."""
    g, w = part.graph, part.weights
    with tracer.span("seq"):
        with tracer.span("weights.proper"):
            _require_proper(w, "instance")
        with tracer.span("biconnect"):
            gp = biconnect(g)
        with tracer.span("treecotree.cotree"):
            pair = cotree(gp, part.tree)
        with tracer.span("weights.transfer"):
            weighting = transfer_weights(gp, policy="min", weights=w)
        with tracer.span("separator.detect"):
            node = find_balanced_or_critical(pair, weighting.face_weight)
        with tracer.span("separator.mark"):
            if node.kind == "balanced":
                res = separator_from_balanced(pair, node, weighting)
            else:
                res = separator_from_critical(pair, node, weighting, w)
    scan = res.diagnostics.get("scan")
    stats = SeqStats(
        virtual_edges=gp.m - g.m,
        dual_nodes=len(pair.dual.nodes),
        face_k=scan.k if scan is not None else 0,
    )
    return res, stats


def traced_dist(
    inst: Instance, tracer: Tracer
) -> tuple[dict[int, DistSeparatorOutput], RoundTrace]:
    """dist_compute_separator / dist_multi: set-up, run_all's stages, assemble."""
    g, w = inst.graph, inst.weights
    with tracer.span("dist"):
        with tracer.span("dist.prep"):
            if inst.part_of is None:
                _require_proper(w, "instance")
                part_of = [0] * g.n
                gp = biconnect(g)
                global_rot = {v: tuple(gp.rotation[v]) for v in range(g.n)}
            else:
                part_of = inst.part_of
                for p in inst.parts:
                    _require_proper(p.weights, f"part {p.pid}")
                global_rot = _part_knowledge(g, part_of)
            pipe = DistPipeline(
                g=g,
                part_of=part_of,
                global_rot=global_rot,
                trees=inst.trees,
                tree_roots={pid: t.root for pid, t in inst.trees.items()},
                weights=list(w),
                config=PipelineConfig(),
            )
            pipe.trace.phase("biconnect").charged_rounds += 2 * pipe._unit
        per_part = None
        for method, phase in DIST_PHASES:
            with tracer.span("dist." + phase):
                ret = getattr(pipe, method)()
            if pipe.trace.phases[-1].name != phase:
                raise RuntimeError(f"{method} appended phase {pipe.trace.phases[-1].name}")
            if method == "run_search":
                per_part = ret
        with tracer.span("dist.assemble"):
            outputs = pipe.assemble(per_part)
    return outputs, pipe.trace


def congest_probe(inst: Instance, tracer: Tracer) -> tuple[PhaseTrace, PhaseTrace]:
    """One honest SUM part-wise aggregation over the workload's partition and
    one broadcast down its tree(s), called directly on the simulator layer."""
    g = inst.graph
    part_of = inst.part_of if inst.part_of is not None else [0] * g.n
    pa = PhaseTrace("pa")
    with tracer.span("congest.pa"):
        sums = pa_aggregate(g, Partition(tuple(part_of)), inst.weights, "SUM", "honest", pa)
    bc = PhaseTrace("broadcast")
    with tracer.span("congest.broadcast"):
        got = broadcast_root(g, inst.forest(), 1, bc)
    totals: dict[int, int] = {}
    for v, pid in enumerate(part_of):
        totals[pid] = totals.get(pid, 0) + inst.weights[v]
    if sums != [totals[pid] for pid in part_of] or got != [1] * g.n:
        raise RuntimeError("congest probe returned a wrong aggregate")
    return pa, bc


# -- correctness gate ----------------------------------------------------------


def _globalize(res: SeparatorResult, members: list[int]) -> SeparatorResult:
    def dart(d: Optional[Dart]) -> Optional[Dart]:
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


def _globalize_records(text: str, members: list[int]) -> str:
    lines = []
    for line in text.splitlines():
        _, x, role, body = line.split(" ")
        if body != "-":
            darts = []
            for item in body.split(","):
                a, b, c = item.split("-")
                darts.append(f"{members[int(a)]}-{members[int(b)]}-{c}")
            body = ",".join(darts)
        lines.append(f"sep {members[int(x)]} {role} {body}")
    return "\n".join(lines) + "\n"


def trace_fingerprint(trace: RoundTrace) -> dict:
    return {
        "phases": [asdict(p) for p in trace.phases],
        "interval_lengths": list(trace.interval_lengths),
    }


@dataclass
class Gate:
    """Checks every engine output against the verified sequential reference.

    The reference is the sequential engine's output on each part: it must
    pass ``verify_separator`` and the ``|P| <= 2*depth(T)+1`` bound.  Every
    later output must equal it byte for byte (serialized separator and, for
    the distributed engine, its ``sep`` records), every distributed trace
    must equal the first one counter for counter and stay within the bit
    budget.  ``attempted`` counts part outputs checked.
    """

    inst: Instance
    serials: dict[int, str] = field(default_factory=dict)
    records: dict[int, str] = field(default_factory=dict)
    part_ok: dict[int, bool] = field(default_factory=dict)
    path_len: dict[int, int] = field(default_factory=dict)
    balance: dict[int, float] = field(default_factory=dict)
    first_trace: Optional[RoundTrace] = None
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.budget = default_bit_budget(self.inst.graph.n)

    def set_reference(self, results: list[SeparatorResult]) -> None:
        for p, res in zip(self.inst.parts, results):
            report = verify_separator(p.graph, p.weights, res.path)
            self.part_ok[p.pid] = (
                report.passed and len(res.path) <= 2 * p.tree.height() + 1
            )
            self.path_len[p.pid] = len(res.path)
            self.balance[p.pid] = float(report.max_ratio)
            self.serials[p.pid] = serialize_separator(_globalize(res, p.members))
            self.records[p.pid] = _globalize_records(
                sep_records(p.graph, p.tree, res), p.members
            )
        self.check_seq(results, "reference")

    def _count(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(why)

    def check_seq(self, results: list[SeparatorResult], label: str) -> None:
        for p, res in zip(self.inst.parts, results):
            same = serialize_separator(_globalize(res, p.members)) == self.serials[p.pid]
            self._count(self.part_ok[p.pid] and same, f"{label}: sequential part {p.pid}")

    def check_dist(
        self, outputs: dict[int, DistSeparatorOutput], trace: RoundTrace, label: str
    ) -> None:
        if self.first_trace is None:
            self.first_trace = trace
        trace_ok = (
            trace == self.first_trace
            and trace.max_bits_per_edge_per_round <= self.budget
        )
        for p in self.inst.parts:
            out = outputs.get(p.pid)
            ok = (
                trace_ok
                and out is not None
                and self.part_ok[p.pid]
                and serialize_separator(out.result) == self.serials[p.pid]
                and out.records() == self.records[p.pid]
            )
            self._count(ok, f"{label}: distributed part {p.pid}")

    def outputs_sha256(self) -> str:
        h = hashlib.sha256()
        for pid in sorted(self.serials):
            h.update(self.serials[pid].encode())
            h.update(self.records[pid].encode())
        return h.hexdigest()
