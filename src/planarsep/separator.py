"""Sequential reference engine for the fundamental-cycle separator.

Pipeline: bi-connect, transfer vertex weights to faces (minimum-id
policy), find a (1/4, 3/4)-balanced or (1/4, 3/4)-critical node in the
rooted dual tree, and mark the tree path whose closing edge realizes the
corresponding fundamental cut.

The critical case never materializes the virtual triangulation.  For a
critical face with boundary v_1..v_k (anchored at the dual-parent edge
(v_1, v_k)), the subtree weight of the t-th virtual triangle equals a
suffix of boundary choice-weights plus the hanging child subtrees:

    s_t = (w_F(f) - sum of choices of v_1..v_t) + (child subtrees at
          boundary edges t..k-1)

s is non-increasing in t, so the deepest triangle with s_t above the 3/4
threshold is a maximum, and its child triangle yields the virtual edge
(v_{j+1}, v_k).  The message-passing engine reads the same quantities
off weight prefixes along the contour of the spanning tree, and v_{j+1} is
the first light ring position after a heavy one; all tie-breaks here are
id-based so both engines agree byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .biconnect import biconnect
from .collector import collector_paused
from .embedding import Dart, EdgeId, EmbeddedPlanarGraph, next_copy
from .errors import DegenerateTotal, NotBiconnected, NotProper
from .treecotree import (
    SpanningTree,
    TreeCotreePair,
    cotree,
    dual_subtree_sums,
    path_edges,
    sum_up,
    top_down,
)
from .weights import FaceWeighting, check_proper, transfer_weights

ALPHA = Fraction(1, 4)
BETA = Fraction(3, 4)
PROPERNESS = Fraction(1, 12)


@dataclass(frozen=True)
class NodeVerdict:
    kind: str                 # "balanced" | "critical"
    face: int                 # face number
    subtree_weight: int
    depth: int
    total: int
    sums: list[int] = field(compare=False, repr=False)  # dual subtree sums by face number


def is_balanced(subtree: int, total: int) -> bool:
    return total <= 4 * subtree <= 3 * total


def exceeds_beta(subtree: int, total: int) -> bool:
    return 4 * subtree > 3 * total


def below_alpha(subtree: int, total: int) -> bool:
    return 4 * subtree < total


def find_balanced_or_critical_in_tree(
    children: Mapping[Hashable, Sequence[Hashable]],
    root: Hashable,
    values: Mapping[Hashable, int],
) -> tuple[str, Hashable, int, int]:
    """Generic rooted-tree detection; returns (kind, node, subtree, depth).

    Balanced pick: maximum node id among balanced nodes.  Critical pick:
    the deepest node whose subtree exceeds 3/4 of the total (unique,
    since two disjoint subtrees cannot both exceed 3/4), ties by id.
    """
    parent, depth = top_down(children, root)
    sums = sum_up(list(parent), parent, {x: values[x] for x in parent})
    return _pick_node(parent, root, parent, sums, depth)


def _pick_node(
    nodes: Iterable[Hashable],
    root: Hashable,
    parent: Mapping[Hashable, Hashable | None],
    sums: Mapping[Hashable, int],
    depth: Mapping[Hashable, int],
) -> tuple[str, Hashable, int, int]:
    """The pick over every node of a tree given by index-able maps (dicts
    keyed by node, or lists indexed by face number)."""
    total = sums[root]
    if total == 0:
        raise DegenerateTotal("total weight is zero")
    balanced = [x for x in nodes if is_balanced(sums[x], total)]
    if balanced:
        pick = max(balanced)
        return "balanced", pick, sums[pick], depth[pick]
    heavy = [x for x in nodes if exceeds_beta(sums[x], total)]
    pick = max(heavy, key=lambda x: (depth[x], x))
    for c in nodes:
        if parent[c] == pick:
            assert below_alpha(sums[c], total), "deepest heavy node has a heavy child"
    return "critical", pick, sums[pick], depth[pick]


def find_balanced_or_critical(pair: TreeCotreePair, face_weight: Sequence[int]) -> NodeVerdict:
    """The verdict on the dual tree, for weights indexed by face number;
    number order is id order, so the picks are the id-based ones."""
    sums = dual_subtree_sums(pair, face_weight)
    kind, face, subtree, depth = _pick_node(
        range(len(pair.dual_parent)), pair.dual_root, pair.dual_parent, sums, pair.dual_depth
    )
    return NodeVerdict(
        kind=kind,
        face=face,
        subtree_weight=subtree,
        depth=depth,
        total=sums[pair.dual_root],
        sums=sums,
    )


@dataclass(frozen=True)
class ClosingEdge:
    kind: str                       # "real" | "virtual"
    endpoints: tuple[int, int]
    copy: int
    insert_before_u: Optional[Dart] = None   # rotation slot at endpoints[0]
    insert_before_v: Optional[Dart] = None   # rotation slot at endpoints[1]

    def edge(self) -> EdgeId:
        a, b = self.endpoints
        lo, hi = (a, b) if a < b else (b, a)
        return (lo, hi, self.copy)


@dataclass(frozen=True)
class SeparatorResult:
    case: str                       # "balanced" | "critical-virtual" | "critical-leaf"
    u: int
    v: int
    path: tuple[int, ...]
    closing: ClosingEdge
    interior_weight: int
    exterior_weight: int
    balance_ratio: Fraction
    diagnostics: dict = field(default_factory=dict, compare=False)


def serialize_separator(res: SeparatorResult) -> str:
    lines = [
        f"case {res.case}",
        f"u {res.u}",
        f"v {res.v}",
        "path " + str(len(res.path)) + " " + " ".join(map(str, res.path)),
    ]
    c = res.closing
    if c.kind == "real":
        a, b, cp = c.edge()
        lines.append(f"closing real {a} {b} {cp}")
    else:
        bu, bv = c.insert_before_u, c.insert_before_v
        lines.append(
            f"closing virtual {c.endpoints[0]} {c.endpoints[1]} {c.copy} "
            f"before-u {bu.tail} {bu.head} {bu.copy} "
            f"before-v {bv.tail} {bv.head} {bv.copy}"
        )
    lines.append(f"interior {res.interior_weight}")
    lines.append(f"exterior {res.exterior_weight}")
    lines.append(f"balance {res.balance_ratio.numerator}/{res.balance_ratio.denominator}")
    return "\n".join(lines) + "\n"


def make_result(
    case: str,
    path: Sequence[int],
    closing: ClosingEdge,
    interior: int,
    total: int,
    diagnostics: Optional[dict] = None,
) -> SeparatorResult:
    """The result contract both engines build through: u and v are the
    closing edge's endpoints, and the exterior and balance follow from the
    interior weight.  A critical leaf face has an empty strict interior, so
    only the exterior side can form components and its share is the bound.
    """
    exterior = total - interior
    worst = exterior if case == "critical-leaf" else max(interior, exterior)
    u, v = closing.endpoints
    return SeparatorResult(
        case=case,
        u=u,
        v=v,
        path=tuple(path),
        closing=closing,
        interior_weight=interior,
        exterior_weight=exterior,
        balance_ratio=Fraction(worst, total),
        diagnostics=diagnostics if diagnostics is not None else {},
    )


def sep_line(x: int, role: str, darts: Sequence[Dart]) -> str:
    """One vertex's `sep` record: its role and its incident path darts."""
    body = ",".join(f"{d.tail}-{d.head}-{d.copy}" for d in darts) or "-"
    return f"sep {x} {role} {body}"


def require_proper(weights: Sequence[int], where: str = "") -> None:
    """Refuse zero totals and weights that are not 1/12-proper; `where`
    prefixes the message (e.g. "part 3: ")."""
    verdict = check_proper(weights, PROPERNESS)
    if verdict.degenerate:
        raise DegenerateTotal(f"{where}total vertex weight is zero")
    if not verdict.proper:
        raise NotProper(
            f"{where}max weight {verdict.max_weight} exceeds {PROPERNESS} "
            f"of total {verdict.total}"
        )


def sep_records(g: EmbeddedPlanarGraph, tree: SpanningTree, res: SeparatorResult) -> str:
    """Per-vertex view of the marked path, one canonical line per vertex.
    Path edges are looked up in tree.edges by their ends."""
    marked = path_edges(tree, res.path)
    on_path = set(res.path)
    lines = []
    for x in range(g.n):
        role = "u" if x == res.u else "v" if x == res.v else "p" if x in on_path else "-"
        darts = sorted(
            Dart(x, b if a == x else a, c)
            for (a, b, c) in marked
            if x in (a, b)
        )
        lines.append(sep_line(x, role, darts))
    return "\n".join(lines) + "\n"


def separator_from_balanced(
    pair: TreeCotreePair,
    verdict: NodeVerdict,
    weighting: FaceWeighting,
) -> SeparatorResult:
    assert verdict.kind == "balanced"
    a, b, cp = pair.dual_parent_edge[verdict.face]
    u, v = (a, b) if a < b else (b, a)
    return make_result(
        "balanced",
        pair.path(u, v),
        ClosingEdge(kind="real", endpoints=(u, v), copy=cp),
        verdict.subtree_weight,
        verdict.total,
    )


@dataclass(frozen=True)
class CriticalScan:
    """Boundary data of a critical face, anchored at its dual-parent edge
    (at R, the tree root's first dart, for the dual root)."""

    face: int                         # face number
    anchor: Dart                      # the (v_k -> v_1) dart on f's boundary
    boundary: tuple[Dart, ...]        # (v_1->v_2), ..., (v_k->v_1)
    vs: tuple[int, ...]               # v_1..v_k
    choice: tuple[int, ...]           # choice[i] = weight v_{i+1} moved to f
    child_sub: tuple[int, ...]        # child subtree at boundary edge (v_i, v_{i+1})
    subtree_f: int

    @property
    def k(self) -> int:
        return len(self.vs)

    def triangle_weights(self) -> list[int]:
        """Redistributed weight of each virtual triangle f_1..f_{k-2}."""
        c = self.choice
        k = self.k
        if k == 3:
            return [c[0] + c[1] + c[2]]
        out = [c[0] + c[1]]
        out.extend(c[t] for t in range(2, k - 2))
        out.append(c[k - 2] + c[k - 1])
        return out

    def triangle_subtrees(self) -> list[int]:
        """s_t = subtree weight of virtual triangle f_t, for t = 1..k-2."""
        k = self.k
        wf = sum(self.choice)
        total_cs = sum(self.child_sub)
        pref_c = [0]
        for c in self.choice:
            pref_c.append(pref_c[-1] + c)
        pref_cs = [0]
        for cs in self.child_sub:
            pref_cs.append(pref_cs[-1] + cs)
        s = [self.subtree_f]
        for t in range(2, k - 1):
            s.append((wf - pref_c[t]) + (total_cs - pref_cs[t - 1]))
        return s


def critical_scan(
    pair: TreeCotreePair,
    verdict: NodeVerdict,
    weighting: FaceWeighting,
    weights: Sequence[int],
) -> CriticalScan:
    g = pair.graph
    f = verdict.face
    face = g.faces[f]
    if f == pair.dual_root:
        anchor = g.rotation[pair.tree.root][0]  # R, the tree root's first dart
    else:
        # a cotree edge is no bridge, so exactly one of its darts bounds f
        da, db = g.darts_of_edge(pair.dual_parent_edge[f])
        anchor = da if da in face.boundary else db
    idx = face.boundary.index(anchor)
    boundary = face.boundary[idx + 1 :] + face.boundary[: idx + 1]
    vs = tuple(d.tail for d in boundary)
    if len(set(vs)) != len(vs):
        raise NotBiconnected(f"face {face.id} boundary repeats a vertex")
    choice = tuple(
        weights[v] if weighting.chosen_face[v] == f else 0 for v in vs
    )
    parent_edge = pair.dual_parent_edge
    child_at = {parent_edge[h]: h for h, p in enumerate(pair.dual_parent) if p == f}
    child_sub = tuple(
        verdict.sums[child_at[e]] if e in child_at else 0
        for e in (d.edge() for d in boundary[:-1])
    )
    return CriticalScan(
        face=f,
        anchor=anchor,
        boundary=boundary,
        vs=vs,
        choice=choice,
        child_sub=child_sub,
        subtree_f=verdict.sums[f],
    )


def separator_from_critical(
    pair: TreeCotreePair,
    verdict: NodeVerdict,
    weighting: FaceWeighting,
    weights: Sequence[int] | None = None,
) -> SeparatorResult:
    assert verdict.kind == "critical"
    g = pair.graph
    w = list(weights) if weights is not None else list(g.vertex_weight)
    W = verdict.total
    scan = critical_scan(pair, verdict, weighting, w)
    k = scan.k

    if scan.face not in pair.dual_parent:
        # leaf critical face: its boundary minus the anchor edge is a tree
        # path and the strict interior of the face is empty
        u, v = scan.vs[0], scan.vs[-1]
        path = pair.path(u, v)
        assert set(path) == set(scan.vs), "leaf face boundary is not the tree path"
        return make_result(
            "critical-leaf",
            path,
            ClosingEdge(kind="real", endpoints=(u, v), copy=scan.anchor.copy),
            verdict.subtree_weight,
            W,
            {"scan": scan},
        )

    s = scan.triangle_subtrees()
    tri_w = scan.triangle_weights()
    assert all(4 * tw <= W for tw in tri_w), "virtual triangle weight above W/4"
    j = max(t for t in range(1, k - 1) if exceeds_beta(s[t - 1], W))
    assert j <= k - 3, "no balanced triangle below the heavy prefix"
    s_next = s[j]  # subtree of f_{j+1}
    assert 4 * s_next > W and 4 * s_next <= 3 * W, "selected triangle not balanced"

    u, v = scan.vs[j], scan.vs[k - 1]
    closing = ClosingEdge(
        kind="virtual",
        endpoints=(u, v),
        copy=next_copy(g.rotation[u], v),
        insert_before_u=scan.boundary[j],
        insert_before_v=scan.anchor,
    )
    return make_result(
        "critical-virtual",
        pair.path(u, v),
        closing,
        s_next,
        W,
        {"scan": scan, "j": j, "s": s, "triangle_weights": tri_w},
    )


@collector_paused
def compute_separator(
    g: EmbeddedPlanarGraph,
    tree: SpanningTree,
    weights: Sequence[int] | None = None,
) -> SeparatorResult:
    """Run the full pipeline on g (bi-connecting first) with tree T.

    The tree must span g; the result path lies in T, hence in g, and is a
    3/4-balanced separator of the original graph.  The cyclic collector is
    paused for the call (collector_paused).
    """
    w = list(weights) if weights is not None else list(g.vertex_weight)
    require_proper(w)
    gp = biconnect(g)
    pair = cotree(gp, tree)
    weighting = transfer_weights(gp, policy="min", weights=w)
    node = find_balanced_or_critical(pair, weighting.face_weight)
    if node.kind == "balanced":
        return separator_from_balanced(pair, node, weighting)
    return separator_from_critical(pair, node, weighting, w)
