"""Message-passing implementation of the separator pipeline.

One driver, dist_multi, runs the pipeline concurrently in every part of a
vertex-disjoint partition; dist_compute_separator is dist_multi with one
part holding every vertex.

Every phase is a vertex program run on the synchronous simulator; the
only channels are the darts of the (per-part, augmented) rotation
systems installed as local knowledge.  Face-level work rides on the fact
that consecutive boundary darts of a face share a vertex, so a face is a
communication ring: a token forwarded from position dart d lands at
head(d), which derives the receiving position locally as the rotation
successor of the arrival dart.

Phase order: root the given tree, learn face ids (token rotation around
each ring), derive cotree flags locally, aggregate face weights, elect
the maximum face id as dual root, root the dual tree and convergecast
subtree sums ring by ring, elect a balanced or critical node, and mark
the path by a subtree sum over the tree with unit inputs at the two
endpoints.  The critical case precomputes boundary prefix sums in one
ring pass and then binary-searches the enclosed weight from the tree
root; the probed quantity is the suffix of boundary choice-weights plus
hanging child subtrees, exactly the sequential engine's formula.

All tie-breaks mirror the sequential engine (minimum-id faces and
parents, maximum-id elections), so results serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .biconnect import biconnect
from .congest import (
    Partition,
    PhaseTrace,
    RoundTrace,
    Simulator,
    VertexProgram,
    default_bit_budget,
    pa_aggregate,
    pa_charge,
)
from .embedding import Dart, EdgeId, EmbeddedPlanarGraph, FaceId, build_embedding
from .errors import ConflictingRoot, DegenerateTotal, NotBiconnected
from .separator import (
    ClosingEdge,
    SeparatorResult,
    exceeds_beta,
    is_balanced,
    make_result,
    next_copy,
    require_proper,
    sep_line,
)
from .treecotree import SpanningTree, diameter_estimate
from .treecotree import part_bfs_trees  # re-exported for callers of planarsep.dist

# message tags, with payload arity (tag excluded)
T_BFS, T_CLAIM, T_DEPTH = 1, 2, 3
T_TOK, T_FACE = 4, 5
T_RB, T_RA, T_CH, T_FW, T_TT = 6, 7, 8, 9, 10
T_IDX, T_IDXT = 11, 12
T_PROBE, T_ANS, T_RES, T_UV = 13, 14, 15, 16
T_UP = 17

_ARITY = {
    T_BFS: 2, T_CLAIM: 1, T_DEPTH: 1,
    T_TOK: 3, T_FACE: 3,
    T_RB: 5, T_RA: 1, T_CH: 1, T_FW: 1, T_TT: 2,
    T_IDX: 3, T_IDXT: 1,
    T_PROBE: 2, T_ANS: 2, T_RES: 2, T_UV: 2,
    T_UP: 1,
}


def pack(*frames: tuple) -> tuple[int, ...]:
    out: list[int] = []
    for f in frames:
        assert len(f) - 1 == _ARITY[f[0]], f
        out.extend(f)
    return tuple(out)


def unpack(payload: tuple[int, ...]):
    i = 0
    while i < len(payload):
        tag = payload[i]
        k = _ARITY[tag]
        yield payload[i : i + 1 + k]
        i += 1 + k


def dart3(d: Dart) -> tuple[int, int, int]:
    return (d.tail, d.head, d.copy)


def enc_face(f: FaceId, n: int) -> int:
    assert f.copy < 16
    return ((f.tail * (n + 1) + f.head) << 4) | f.copy


def dec_face(x: int, n: int) -> FaceId:
    th = x >> 4
    return Dart(th // (n + 1), th % (n + 1), x & 15)


CASE_BALANCED, CASE_LEAF, CASE_VIRTUAL = 1, 2, 3
_CASE_NAMES = {
    CASE_BALANCED: "balanced",
    CASE_LEAF: "critical-leaf",
    CASE_VIRTUAL: "critical-virtual",
}


@dataclass
class LocalKnowledge:
    """Everything a vertex may read; the store grows phase by phase."""

    vid: int
    n: int
    weight: int
    part: int
    rotation: tuple[Dart, ...]
    tree_darts: frozenset[Dart]
    tree_root: int
    store: dict = field(default_factory=dict)

    def __post_init__(self):
        self._pos = {d: i for i, d in enumerate(self.rotation)}

    def rot_next(self, d: Dart) -> Dart:
        return self.rotation[(self._pos[d] + 1) % len(self.rotation)]


# -- tree construction and rooting ------------------------------------------


class BfsProgram(VertexProgram):
    """BFS flood with smallest-id parents; detects conflicting roots."""

    def init(self, know: LocalKnowledge) -> dict:
        return {"depth": None, "parent": None, "children": [], "announce_round": None}

    def step(self, r, know: LocalKnowledge, st, inbox):
        out = []
        announcers = []
        for k, payload in inbox.items():
            for frame in unpack(payload):
                if frame[0] == T_BFS:
                    root_id, d = frame[1], frame[2]
                    if root_id != know.tree_root or know.vid == know.tree_root:
                        raise ConflictingRoot(
                            f"vertex {know.vid} (root {know.tree_root}) heard a wave "
                            f"rooted at {root_id} from {k.head}"
                        )
                    announcers.append((k.head, d))
                elif frame[0] == T_CLAIM:
                    st["children"].append(k.head)
        if r == 0 and know.vid == know.tree_root:
            st["depth"] = 0
            st["announce_round"] = 0
            out = [(d, pack((T_BFS, know.vid, 0))) for d in know.rotation]
        elif announcers and st["depth"] is None:
            d = min(dd for _, dd in announcers)
            st["depth"] = d + 1
            st["parent"] = min(h for h, dd in announcers if dd == d)
            st["announce_round"] = r
            claimed = False
            for ch in know.rotation:
                if ch.head == st["parent"] and not claimed:
                    claimed = True
                    out.append((ch, pack((T_CLAIM, st["depth"]))))
                else:
                    out.append((ch, pack((T_BFS, know.tree_root, st["depth"]))))
        ar = st["announce_round"]
        if ar is not None and r >= ar + 2:
            st["children"].sort()
            return out, True
        if ar is not None:
            st["_wake"] = True
        return out, False


class TreeRootProgram(VertexProgram):
    """Depth flood along tree darts only; parents are forced, no ties."""

    def init(self, know: LocalKnowledge) -> dict:
        return {"depth": None, "parent": None, "parent_dart": None}

    def step(self, r, know: LocalKnowledge, st, inbox):
        tree = sorted(know.tree_darts)
        if r == 0 and know.vid == know.tree_root:
            st["depth"] = 0
            return [(d, pack((T_DEPTH, 0))) for d in tree], True
        for k, payload in inbox.items():
            frame = next(unpack(payload))
            if frame[0] == T_DEPTH and st["depth"] is None:
                st["depth"] = frame[1] + 1
                st["parent"] = k.head
                st["parent_dart"] = k
                out = [(d, pack((T_DEPTH, st["depth"]))) for d in tree if d != k]
                return out, True
        return [], st["depth"] is not None


# -- face discovery ----------------------------------------------------------


class LearnFacesProgram(VertexProgram):
    """Token rotation: every dart's id circles its face once.

    A position is done when its own token returns; the minimum id seen is
    the face id and the return round is the face size.  One extra message
    per edge then exchanges the two sides' face ids.
    """

    def init(self, know: LocalKnowledge) -> dict:
        return {
            "best": {d: d for d in know.rotation},
            "steps": {d: 0 for d in know.rotation},
            "face": {},
            "size": {},
            "rev_face": {},
        }

    def step(self, r, know: LocalKnowledge, st, inbox):
        if r == 0:
            return [(d, pack((T_TOK,) + dart3(d))) for d in know.rotation], False
        out = []
        for k, payload in inbox.items():
            for frame in unpack(payload):
                if frame[0] == T_TOK:
                    t = Dart(frame[1], frame[2], frame[3])
                    slot = know.rot_next(k)
                    st["steps"][slot] += 1
                    if t < st["best"][slot]:
                        st["best"][slot] = t
                    if t == slot:
                        st["face"][slot] = st["best"][slot]
                        st["size"][slot] = st["steps"][slot]
                        out.append((slot, pack((T_FACE,) + dart3(st["best"][slot]))))
                    else:
                        out.append((slot, pack((T_TOK,) + dart3(t))))
                else:
                    st["rev_face"][k] = Dart(frame[1], frame[2], frame[3])
        done = len(st["face"]) == len(know.rotation) and len(st["rev_face"]) == len(
            know.rotation
        )
        return out, done


class FaceWeightsProgram(VertexProgram):
    """Per-corner contributions rotated and summed around each face ring."""

    def init(self, know: LocalKnowledge) -> dict:
        faces = know.store["face"]
        chosen = min(faces.values())
        corner = min(d for d in know.rotation if faces[d] == chosen)
        val = {d: (know.weight if d == corner else 0) for d in know.rotation}
        return {
            "chosen": chosen,
            "acc": dict(val),
            "recv": {d: 0 for d in know.rotation},
            "init": val,
        }

    def step(self, r, know: LocalKnowledge, st, inbox):
        sizes = know.store["size"]
        if r == 0:
            out = [
                (d, pack((T_CH, st["init"][d])))
                for d in know.rotation
                if sizes[d] > 1
            ]
            return out, all(sizes[d] <= 1 for d in know.rotation)
        out = []
        for k, payload in inbox.items():
            frame = next(unpack(payload))
            v = frame[1]
            slot = know.rot_next(k)
            st["acc"][slot] += v
            st["recv"][slot] += 1
            if st["recv"][slot] < sizes[slot] - 1:
                out.append((slot, pack((T_CH, v))))
        done = all(st["recv"][d] >= sizes[d] - 1 for d in know.rotation)
        return out, done


# -- dual tree rooting + subtree sums ----------------------------------------


class DualSumsProgram(VertexProgram):
    """Ring-structured rooting and convergecast over the dual tree.

    Per face, a rooting-and-census token makes one full loop from the
    entry position (the face's side of its dual parent edge; the
    canonical dart for the root face), counting child edges.  A child
    face whose total is known reports it across the shared edge; reports
    relay around the ring to the entry, which finally loops a
    total-and-has-children token and reports its own total upward.
    """

    def init(self, know: LocalKnowledge) -> dict:
        return {
            "tree_edges": {t.edge() for t in know.tree_darts},
            "rooted": {},        # position -> (depth, parent_dart | None)
            "child_edge": {},    # position -> bool
            "child_sum": {},     # position -> subtree weight behind this edge
            "expected": {},      # entry position -> census count (None = pending)
            "got": {},
            "acc": {},
            "queue": {d: [] for d in know.rotation},
            "total": {},         # position -> (total, has_children)
            "ring_done": set(),
        }

    def _child_flag(self, st, pos: Dart, pdart: Dart, depth: int) -> bool:
        if pos.edge() in st["tree_edges"]:
            return False
        return depth == 0 or pos != pdart

    def _start_ring(self, st, entry: Dart, depth: int, emit) -> None:
        flag = self._child_flag(st, entry, entry, depth)
        st["rooted"][entry] = (depth, None if depth == 0 else entry)
        st["child_edge"][entry] = flag
        st["expected"][entry] = None
        st["got"].setdefault(entry, 0)
        st["acc"].setdefault(entry, 0)
        emit(entry, (T_RB, depth, *dart3(entry), int(flag)))
        if flag:
            emit(entry, (T_RA, depth + 1))

    def step(self, r, know: LocalKnowledge, st, inbox):
        faces = know.store["face"]
        wf = know.store["face_weight"]
        root_face = know.store["dual_root"]
        send: dict[Dart, list[tuple]] = {}

        def emit(slot, frame):
            send.setdefault(slot, []).append(frame)

        if r == 0:
            for d in know.rotation:
                if faces[d] == root_face and d == root_face:
                    self._start_ring(st, d, 0, emit)

        for k, payload in inbox.items():
            for frame in unpack(payload):
                tag = frame[0]
                if tag == T_RB:
                    depth, pt, ph, pc, count = frame[1:]
                    pdart = Dart(pt, ph, pc)
                    slot = know.rot_next(k)
                    if slot == pdart:
                        st["expected"][slot] = count  # census complete
                    else:
                        flag = self._child_flag(st, slot, pdart, depth)
                        st["rooted"][slot] = (depth, None if depth == 0 else pdart)
                        st["child_edge"][slot] = flag
                        emit(slot, (T_RB, depth, pt, ph, pc, count + int(flag)))
                        if flag:
                            emit(slot, (T_RA, depth + 1))
                elif tag == T_RA:
                    self._start_ring(st, k, frame[1], emit)
                elif tag == T_CH:
                    st["child_sum"][k] = frame[1]
                    if k in st["expected"]:
                        st["got"][k] += 1
                        st["acc"][k] += frame[1]
                    else:
                        st["queue"][k].append((T_FW, frame[1]))
                        st["_wake"] = True
                elif tag == T_FW:
                    slot = know.rot_next(k)
                    if slot in st["expected"]:
                        st["got"][slot] += 1
                        st["acc"][slot] += frame[1]
                    else:
                        st["queue"][slot].append((T_FW, frame[1]))
                        st["_wake"] = True
                elif tag == T_TT:
                    slot = know.rot_next(k)
                    if slot in st["total"]:
                        st["ring_done"].add(slot)
                    else:
                        st["total"][slot] = (frame[1], frame[2])
                        emit(slot, (T_TT, frame[1], frame[2]))

        # an entry with census done and all children in loops the total
        for entry, expected in st["expected"].items():
            if expected is None or entry in st["total"]:
                continue
            if st["got"][entry] == expected:
                depth, _pdart = st["rooted"][entry]
                total = wf[faces[entry]] + st["acc"][entry]
                has_children = 1 if expected > 0 else 0
                st["total"][entry] = (total, has_children)
                emit(entry, (T_TT, total, has_children))
                if depth > 0:
                    emit(entry, (T_CH, total))

        # drain one queued relay per free position per round
        for pos, q in st["queue"].items():
            if q:
                if pos not in send:
                    send[pos] = [q.pop(0)]
                if q:
                    st["_wake"] = True

        out = [(slot, pack(*frames)) for slot, frames in send.items()]
        done = (
            all(d in st["total"] for d in know.rotation)
            and all(not q for q in st["queue"].values())
            and all(e in st["ring_done"] for e in st["expected"])
        )
        return out, done


# -- critical-case boundary prefixes ------------------------------------------


class PrefixProgram(VertexProgram):
    """One ring pass over the critical face storing position indexes and
    prefix sums of choice-weights and child subtrees, then a totals loop."""

    def init(self, know: LocalKnowledge) -> dict:
        store = know.store
        st = {
            "anchor": None, "idx": None, "pos": None,
            "pc_excl": None, "pc_incl": None, "pcs_excl": None,
            "total_cs": None, "anchor_done": False, "active": False, "k": None,
        }
        if store.get("case_code") != CASE_VIRTUAL:
            return st
        anchor = store["case_anchor"]  # known exactly at the face's corners
        st["active"] = anchor is not None
        if st["active"] and anchor.tail == know.vid:
            st["anchor"] = anchor
        return st

    def _contrib(self, know, pos: Dart) -> tuple[int, int]:
        store = know.store
        choice = know.weight if store["chosen"] == store["case_face"] else 0
        cs = store["child_sum"].get(pos, 0) if store["child_edge"].get(pos) else 0
        return choice, cs

    def step(self, r, know: LocalKnowledge, st, inbox):
        if not st["active"]:
            return [], True
        out = []
        if r == 0:
            if st["anchor"] is not None:
                out.append((st["anchor"], pack((T_IDX, 1, 0, 0))))
            return out, False
        for k, payload in inbox.items():
            for frame in unpack(payload):
                if frame[0] == T_IDX:
                    i, pc, pcs = frame[1], frame[2], frame[3]
                    slot = know.rot_next(k)
                    if slot == st["anchor"]:
                        st["k"] = i          # boundary length
                        st["total_cs"] = pcs  # cs over edges 1..k-1
                        out.append((slot, pack((T_IDXT, pcs))))
                    else:
                        if st["idx"] is not None:
                            raise NotBiconnected(
                                f"vertex {know.vid} appears twice on face "
                                f"{know.store['case_face']}"
                            )
                        choice, cs = self._contrib(know, slot)
                        st["idx"], st["pos"] = i, slot
                        st["pc_excl"], st["pcs_excl"] = pc, pcs
                        st["pc_incl"] = pc + choice
                        out.append((slot, pack((T_IDX, i + 1, pc + choice, pcs + cs))))
                elif frame[0] == T_IDXT:
                    slot = know.rot_next(k)
                    if slot == st["anchor"]:
                        st["anchor_done"] = True
                    else:
                        st["total_cs"] = frame[1]
                        out.append((slot, pack((T_IDXT, frame[1]))))
        if st["anchor"] is not None:
            return out, st["anchor_done"]
        return out, st["total_cs"] is not None


# -- endpoint search and dissemination ----------------------------------------


class SearchProgram(VertexProgram):
    """Binary search from the tree root over boundary indexes, then
    endpoint-id convergecast and broadcast on the tree.

    One probe = one broadcast down the tree plus one max-convergecast up;
    the part coordinator (tree root) bisects on the enclosed weight and
    asserts its monotonicity.  Non-virtual parts skip straight to the
    endpoint phase.  Each wave (probe down, answer up, endpoint claim
    down, claim up, endpoint broadcast) is one routine, shared by the root
    and the frame handlers.
    """

    def init(self, know: LocalKnowledge) -> dict:
        return {
            "seq": -1, "agg": 0, "got": 0, "agg_uv": (0, 0), "uv_got": 0,
            "u": None, "v": None, "done": False,
            "probes": [], "lo": None, "hi": None, "s_hi": None,
            "interior": None, "probe_t": None,
        }

    def _my_answer(self, know, t: int) -> int:
        store = know.store
        if store.get("prefix_idx") == t and store.get("case_code") == CASE_VIRTUAL:
            wf = store["face_weight"][store["case_face"]]
            s_t = (wf - store["prefix_pc_incl"]) + (
                store["prefix_total_cs"] - store["prefix_pcs_excl"]
            )
            return s_t + 1
        return 0

    def _uv_claim(self, know, j: int) -> tuple[int, int]:
        """(u + 1, v + 1) where this vertex is that endpoint, else 0; only
        corners of the chosen face claim.  A balanced face is never the
        dual root, so its anchor is its dual parent dart."""
        store = know.store
        ad = store["case_anchor"]
        if ad is None:
            return 0, 0
        code = store["case_code"]
        if code == CASE_BALANCED:
            u, v = sorted((ad.tail, ad.head))
        elif code == CASE_LEAF:
            u, v = ad.head, ad.tail
        else:
            u = know.vid if store.get("prefix_idx") == j + 1 else None
            v = ad.tail
        me = know.vid
        return (me + 1 if me == u else 0), (me + 1 if me == v else 0)

    # -- waves ------------------------------------------------------------

    def _probe_down(self, know, st, seq: int, t: int, out):
        st["seq"], st["probe_t"] = seq, t
        st["agg"], st["got"] = self._my_answer(know, t), 0
        children = know.store["tree_children"]
        for _c, d in children:
            out.append((d, pack((T_PROBE, seq, t))))
        if not children:
            self._answer_up(know, st, out)

    def _answer_up(self, know, st, out):
        if know.vid == know.tree_root:
            self._bisect(know, st, out)
        else:
            out.append((know.store["tree_parent_dart"], pack((T_ANS, st["seq"], st["agg"]))))

    def _claim_down(self, know, st, seq: int, j: int, out):
        store = know.store
        st["seq"] = seq
        st["agg_uv"], st["uv_got"] = self._uv_claim(know, j), 0
        if store["case_code"] == CASE_VIRTUAL and st["agg_uv"][0]:
            st["slot_u"] = store["prefix_pos"]  # u's rotation slot for the new edge
        children = store["tree_children"]
        for _c, d in children:
            out.append((d, pack((T_RES, seq, j))))
        if not children:
            self._claim_up(know, st, out)

    def _claim_up(self, know, st, out):
        if know.vid == know.tree_root:
            self._broadcast(know, st, *st["agg_uv"], out)
        else:
            out.append((know.store["tree_parent_dart"], pack((T_UV, *st["agg_uv"]))))

    def _broadcast(self, know, st, u: int, v: int, out):
        st["u"], st["v"] = u - 1, v - 1
        for _c, d in know.store["tree_children"]:
            out.append((d, pack((T_UV, u, v))))
        st["done"] = True

    # -- coordinator ------------------------------------------------------

    def _bisect(self, know, st, out):
        """The root's step once a probe's answer is in: narrow [lo, hi],
        then probe the midpoint or start the endpoint claim at j = lo."""
        W = know.store["total_weight"]
        t, s_t = st["probe_t"], st["agg"] - 1
        assert st["agg"] > 0, "probe reached no boundary position"
        st["probes"].append((t, s_t))
        for (t1, s1) in st["probes"]:
            for (t2, s2) in st["probes"]:
                assert not (t1 < t2 and s1 < s2), "enclosed weight not monotone"
        if st["s_hi"] is None and t == st["hi"]:
            assert not exceeds_beta(s_t, W), "last triangle subtree exceeds 3/4"
            st["s_hi"] = s_t
        elif exceeds_beta(s_t, W):
            st["lo"] = t
        else:
            st["hi"], st["s_hi"] = t, s_t
        if st["hi"] - st["lo"] <= 1:
            st["interior"] = st["s_hi"]
            self._claim_down(know, st, st["seq"] + 1, st["lo"], out)
        else:
            self._probe_down(know, st, st["seq"] + 1, (st["lo"] + st["hi"]) // 2, out)

    def step(self, r, know: LocalKnowledge, st, inbox):
        out = []
        store = know.store
        if r == 0 and know.vid == know.tree_root:
            if store.get("case_code") == CASE_VIRTUAL:
                st["lo"], st["hi"] = 1, store["case_k"] - 2
                self._probe_down(know, st, 0, st["hi"], out)
            else:
                self._claim_down(know, st, 0, 0, out)
            return out, st["done"]
        for k, payload in inbox.items():
            for frame in unpack(payload):
                tag = frame[0]
                if tag == T_PROBE:
                    self._probe_down(know, st, frame[1], frame[2], out)
                elif tag == T_ANS:
                    assert frame[1] == st["seq"]
                    st["agg"] = max(st["agg"], frame[2])
                    st["got"] += 1
                    if st["got"] == len(store["tree_children"]):
                        self._answer_up(know, st, out)
                elif tag == T_RES:
                    self._claim_down(know, st, frame[1], frame[2], out)
                elif tag == T_UV and k == store["tree_parent_dart"]:
                    self._broadcast(know, st, frame[1], frame[2], out)
                elif tag == T_UV:
                    cu, cv = st["agg_uv"]
                    st["agg_uv"] = (max(cu, frame[1]), max(cv, frame[2]))
                    st["uv_got"] += 1
                    if st["uv_got"] == len(store["tree_children"]):
                        self._claim_up(know, st, out)
        return out, st["done"]


class MarkProgram(VertexProgram):
    """Subtree sums over the tree with unit inputs at the endpoints.

    A tree edge belongs to the path iff its lower endpoint's sum is
    exactly 1; the LCA (sum 2) is flagged through its path children.
    """

    def init(self, know: LocalKnowledge) -> dict:
        inp = 1 if know.vid in (know.store["sep_u"], know.store["sep_v"]) else 0
        return {"acc": inp, "got": 0, "sum": None, "child_sums": {}}

    def step(self, r, know: LocalKnowledge, st, inbox):
        children = know.store["tree_children"]
        for k, payload in inbox.items():
            frame = next(unpack(payload))
            st["child_sums"][k.head] = frame[1]
            st["acc"] += frame[1]
            st["got"] += 1
        if st["got"] == len(children) and st["sum"] is None:
            st["sum"] = st["acc"]
            pd = know.store["tree_parent_dart"]
            if pd is not None:
                return [(pd, pack((T_UP, st["sum"])))], True
            return [], True
        return [], st["sum"] is not None


# -- per-vertex output and assembly -------------------------------------------


@dataclass
class VertexSeparatorView:
    vid: int
    role: str                      # "u" | "v" | "p" | "-"
    p_darts: tuple[Dart, ...]      # incident path darts (tail == vid)
    peer: Optional[int] = None     # other endpoint id, when closing is virtual
    insert_before: Optional[Dart] = None


@dataclass
class DistSeparatorOutput:
    part: int
    case: str
    result: SeparatorResult
    views: dict[int, VertexSeparatorView]
    probes: int

    def records(self) -> str:
        lines = [sep_line(x, view.role, view.p_darts) for x, view in sorted(self.views.items())]
        return "\n".join(lines) + "\n"


# -- the pipeline --------------------------------------------------------------


@dataclass
class PipelineConfig:
    backend: str = "honest"
    bit_budget: Optional[int] = None
    max_rounds: int = 10**6
    scramble: Optional[int] = None


class DistPipeline:
    """Runs the phase programs over one graph holding one or more parts.

    The communication topology is the union of the per-part augmented
    rotations (virtual darts are channels, simulated with O(1) overhead);
    inter-part edges carry no traffic.  Super-round scheduling is by
    phase: each phase is one simulator run covering all parts, and the
    realized interval lengths are published in the trace.
    """

    def __init__(
        self,
        g: EmbeddedPlanarGraph,
        part_of: Sequence[int],
        global_rot: dict[int, tuple[Dart, ...]],
        trees: dict[int, SpanningTree],
        tree_roots: dict[int, int],
        weights: Sequence[int],
        config: PipelineConfig,
    ):
        self.g = g
        self.part_of = list(part_of)
        self.trees = trees
        self.config = config
        self.n = g.n
        self.budget = (
            config.bit_budget if config.bit_budget is not None else default_bit_budget(g.n)
        )
        self.trace = RoundTrace()
        self.diameter = diameter_estimate(g)
        self._unit = pa_charge(self.diameter, g.n)

        tree_edges = {pid: t.edges for pid, t in trees.items()}
        self.know = []
        for v in range(g.n):
            pid = self.part_of[v]
            self.know.append(
                LocalKnowledge(
                    vid=v,
                    n=g.n,
                    weight=weights[v],
                    part=pid,
                    rotation=global_rot[v],
                    tree_darts=frozenset(
                        d for d in global_rot[v] if d.edge() in tree_edges[pid]
                    ),
                    tree_root=tree_roots[pid],
                )
            )
        self.channels = [self.know[v].rotation for v in range(g.n)]
        self.partition = Partition(tuple(self.part_of))
        self.parts = sorted(set(self.part_of))

    # -- small helpers ------------------------------------------------------

    def _run(self, name: str, program: VertexProgram, charge_units: int = 0) -> list[dict]:
        pt = self.trace.phase(name)
        sim = Simulator(self.channels, bit_budget=self.budget, scramble=self.config.scramble)
        states = sim.run(program, self.know, pt, max_rounds=self.config.max_rounds)
        pt.charged_rounds += charge_units * self._unit
        self.trace.interval_lengths.append(pt.honest_rounds)
        return states

    def _pa(self, name_trace: PhaseTrace, inputs: list[int], op: str) -> list[int]:
        return pa_aggregate(
            self.g,
            self.partition,
            inputs,
            op,
            self.config.backend,
            name_trace,
            bit_budget=self.budget,
            diameter=self.diameter,
            scramble=self.config.scramble,
        )

    def _store(self, key: str, values) -> None:
        for v in range(self.n):
            self.know[v].store[key] = values[v]

    # -- phases --------------------------------------------------------------

    def run_tree_root(self):
        states = self._run("tree_root", TreeRootProgram(), charge_units=1)
        parent_dart = [states[v]["parent_dart"] for v in range(self.n)]
        self._store("tree_parent_dart", parent_dart)
        children = []
        for v in range(self.n):
            kids = sorted(
                (d.head, d)
                for d in self.know[v].tree_darts
                if parent_dart[v] is None or d != parent_dart[v]
            )
            # a tree dart to the parent is not a child edge
            kids = [
                (c, d)
                for c, d in kids
                if parent_dart[c] is not None and parent_dart[c].head == v
            ]
            children.append(kids)
        self._store("tree_children", children)

    def run_learn_faces(self):
        states = self._run("learn_faces", LearnFacesProgram(), charge_units=1)
        for key in ("face", "size", "rev_face"):
            self._store(key, [states[v][key] for v in range(self.n)])

    def run_learn_cotree(self):
        pt = self.trace.phase("learn_cotree")  # purely local: 0 rounds
        self.trace.interval_lengths.append(0)
        flags = []
        for v in range(self.n):
            know = self.know[v]
            tree_edges = {t.edge() for t in know.tree_darts}
            flags.append({d: d.edge() not in tree_edges for d in know.rotation})
        self._store("cotree_flag", flags)

    def run_face_weights(self):
        states = self._run("face_weights", FaceWeightsProgram(), charge_units=1)
        self._store("chosen", [states[v]["chosen"] for v in range(self.n)])
        fw = []
        for v in range(self.n):
            faces = self.know[v].store["face"]
            fw.append({faces[d]: states[v]["acc"][d] for d in self.know[v].rotation})
        self._store("face_weight", fw)

    def run_root_election(self):
        pt = self.trace.phase("root_election")
        inputs = [
            max(enc_face(f, self.n) for f in self.know[v].store["face"].values())
            for v in range(self.n)
        ]
        encs = self._pa(pt, inputs, "MAX")
        self.trace.interval_lengths.append(pt.honest_rounds)
        self._store("dual_root", [dec_face(e, self.n) for e in encs])

    def run_dual_sums(self):
        states = self._run("dual_subtree_sums", DualSumsProgram(), charge_units=2)
        self._store("dual_rooted", [states[v]["rooted"] for v in range(self.n)])
        self._store("child_edge", [states[v]["child_edge"] for v in range(self.n)])
        self._store("child_sum", [states[v]["child_sum"] for v in range(self.n)])
        sums = []
        for v in range(self.n):
            faces = self.know[v].store["face"]
            sums.append(
                {
                    faces[d]: states[v]["total"][d]
                    for d in self.know[v].rotation
                }
            )
        self._store("face_total", sums)

    def run_detect(self):
        pt = self.trace.phase("detect")
        n = self.n
        # W: every root-face corner knows the root subtree total
        w_in = []
        for v in range(n):
            store = self.know[v].store
            root_face = store["dual_root"]
            w_in.append(store["face_total"].get(root_face, (0, 0))[0])
        totals = self._pa(pt, w_in, "MAX")
        self._store("total_weight", totals)
        for pid in self.parts:
            members = [v for v in range(n) if self.part_of[v] == pid]
            if totals[members[0]] == 0:
                raise DegenerateTotal(f"part {pid}: total face weight is zero")

        # balanced election: maximum face id among balanced candidates
        bal_in = []
        for v in range(n):
            store = self.know[v].store
            W = totals[v]
            best = 0
            for f, (s, _hc) in store["face_total"].items():
                if is_balanced(s, W):
                    best = max(best, enc_face(f, n) + 1)
            bal_in.append(best)
        bal = self._pa(pt, bal_in, "MAX")

        # critical election: deepest face with subtree above 3/4, ties by id
        depth_space = enc_face(Dart(n, n, 15), n) + 2
        crit_in = []
        for v in range(n):
            store = self.know[v].store
            W = totals[v]
            best = 0
            if bal[v] == 0:
                for d in self.know[v].rotation:
                    f = store["face"][d]
                    s, _hc = store["face_total"][f]
                    if exceeds_beta(s, W):
                        depth = store["dual_rooted"][d][0]
                        best = max(best, depth * depth_space + enc_face(f, n) + 1)
                crit_in.append(best)
            else:
                crit_in.append(0)
        crit = self._pa(pt, crit_in, "MAX")

        case_code, case_face = [None] * n, [None] * n
        for v in range(n):
            if bal[v] > 0:
                case_face[v] = dec_face(bal[v] - 1, n)
                case_code[v] = CASE_BALANCED
            else:
                assert crit[v] > 0
                case_face[v] = dec_face((crit[v] - 1) % depth_space, n)
                case_code[v] = None  # leaf or virtual: resolved below
        self._store("case_face", case_face)

        # case + boundary length, known to the chosen face's corners
        kbits = (8 * n).bit_length() + 1
        case_in = []
        for v in range(n):
            store = self.know[v].store
            f = case_face[v]
            code_k = 0
            for d in self.know[v].rotation:
                if store["face"][d] == f:
                    s, has_children = store["face_total"][f]
                    if case_code[v] == CASE_BALANCED:
                        code = CASE_BALANCED
                    else:
                        code = CASE_VIRTUAL if has_children else CASE_LEAF
                    code_k = (code << kbits) | store["size"][d]
            case_in.append(code_k)
        case_k = self._pa(pt, case_in, "MAX")
        subtree_in = []
        for v in range(n):
            store = self.know[v].store
            f = case_face[v]
            code_k = case_k[v]
            case_code[v] = code_k >> kbits
            store["case_code"] = case_code[v]
            store["case_k"] = code_k & ((1 << kbits) - 1)
            subtree_in.append(store["face_total"].get(f, (0, 0))[0])
        subtree = self._pa(pt, subtree_in, "MAX")
        self._store("case_subtree", subtree)
        self.trace.interval_lengths.append(pt.honest_rounds)

        # corners of the chosen face publish its anchor locally: the face's
        # side of its dual parent edge, or its canonical dart at the root
        for v in range(n):
            store = self.know[v].store
            f = store["case_face"]
            store["case_anchor"] = None
            for d in self.know[v].rotation:
                if store["face"][d] == f:
                    pdart = store["dual_rooted"][d][1]
                    store["case_anchor"] = pdart if pdart is not None else f

    def run_prefix(self):
        states = self._run("mark_prefix", PrefixProgram(), charge_units=1)
        for v in range(self.n):
            st = states[v]
            store = self.know[v].store
            store["prefix_idx"] = st["idx"]
            store["prefix_pos"] = st["pos"]
            store["prefix_pc_incl"] = st["pc_incl"]
            store["prefix_pcs_excl"] = st["pcs_excl"]
            store["prefix_total_cs"] = st["total_cs"]
            if st["anchor"] is not None and st["k"] is not None:
                assert st["k"] == store["case_k"], "ring length mismatch"

    def run_search(self) -> dict[int, dict]:
        states = self._run("mark_search", SearchProgram(), charge_units=1)
        per_part: dict[int, dict] = {}
        for v in range(self.n):
            if v == self.trees[self.part_of[v]].root:
                per_part[self.part_of[v]] = states[v]
        # parts probe concurrently; the schedule pays for the longest search
        max_probes = 0
        for pid in self.parts:
            root_state = per_part[pid]
            self.trace.phases[-1].probes += len(root_state["probes"])
            max_probes = max(max_probes, len(root_state["probes"]))
        self.trace.phases[-1].charged_rounds += max_probes * self._unit
        # endpoint ids reach every vertex
        for v in range(self.n):
            pid = self.part_of[v]
            root = self.trees[pid].root
            u, w = states[root]["u"], states[root]["v"]
            self.know[v].store["sep_u"] = u
            self.know[v].store["sep_v"] = w
        self._search_states = states
        return per_part

    def run_mark(self):
        states = self._run("mark_path", MarkProgram(), charge_units=1)
        self._mark_states = states

    # -- assembly -------------------------------------------------------------

    def assemble(self, per_part_search: dict[int, dict]) -> dict[int, DistSeparatorOutput]:
        outputs = {}
        for pid in self.parts:
            outputs[pid] = self._assemble_part(pid, per_part_search[pid])
        return outputs

    def _assemble_part(self, pid: int, root_state: dict) -> DistSeparatorOutput:
        members = [v for v in range(self.n) if self.part_of[v] == pid]
        any_store = self.know[members[0]].store
        code = any_store["case_code"]
        u, v = any_store["sep_u"], any_store["sep_v"]

        # path edges from the marking sums
        path_edges = set()
        views = {}
        for x in members:
            st = self._mark_states[x]
            know = self.know[x]
            darts = []
            pd = know.store["tree_parent_dart"]
            if st["sum"] == 1 and pd is not None:
                darts.append(pd)
                path_edges.add(pd.edge())
            for c, d in know.store["tree_children"]:
                if st["child_sums"].get(c) == 1:
                    darts.append(d)
                    path_edges.add(d.edge())
            role = "u" if x == u else "v" if x == v else "p" if darts else "-"
            views[x] = VertexSeparatorView(vid=x, role=role, p_darts=tuple(sorted(darts)))

        # v is a corner of the chosen face in every case, so its store holds
        # the face's anchor
        anchor = self.know[v].store["case_anchor"]
        if code == CASE_VIRTUAL:
            slot_u = self._search_states[u]["slot_u"]
            closing = ClosingEdge(
                kind="virtual",
                endpoints=(u, v),
                copy=next_copy(self.know[u].rotation, v),
                insert_before_u=slot_u,
                insert_before_v=anchor,
            )
            interior = root_state["interior"]
            views[u].peer = v
            views[u].insert_before = slot_u
            views[v].peer = u
            views[v].insert_before = anchor
        else:
            closing = ClosingEdge(kind="real", endpoints=(u, v), copy=anchor.copy)
            interior = any_store["case_subtree"]

        result = make_result(
            _CASE_NAMES[code],
            self._walk_path(u, v, path_edges),
            closing,
            interior,
            any_store["total_weight"],
        )
        return DistSeparatorOutput(
            part=pid,
            case=result.case,
            result=result,
            views=views,
            probes=len(root_state["probes"]),
        )

    def _walk_path(self, u: int, v: int, path_edges: set[EdgeId]) -> list[int]:
        adj: dict[int, list[int]] = {}
        for (a, b, _c) in path_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        path = [u]
        prev = None
        while path[-1] != v:
            nxts = [x for x in adj[path[-1]] if x != prev]
            assert len(nxts) == 1, "marked edges do not form a simple path"
            prev = path[-1]
            path.append(nxts[0])
        return path

    # -- full run ---------------------------------------------------------------

    def run_all(self) -> dict[int, DistSeparatorOutput]:
        self.run_tree_root()
        self.run_learn_faces()
        self.run_learn_cotree()
        self.run_face_weights()
        self.run_root_election()
        self.run_dual_sums()
        self.run_detect()
        self.run_prefix()
        per_part = self.run_search()
        self.run_mark()
        return self.assemble(per_part)


# -- public operations ----------------------------------------------------------


def _part_knowledge(
    g: EmbeddedPlanarGraph, part_of: Sequence[int]
) -> dict[int, tuple[Dart, ...]]:
    """Per-vertex rotations of the per-part augmented subgraphs, global ids.

    Each part's induced sub-embedding is built (locally relabeled in
    ascending member order, which preserves the relative id order and
    hence canonical-dart comparisons), bi-connected, and mapped back.  A
    part holding every vertex induces g itself, so g is bi-connected
    directly, without a rebuild or relabelling.
    """
    parts: dict[int, list[int]] = {}
    for v, pid in enumerate(part_of):
        parts.setdefault(pid, []).append(v)
    global_rot: dict[int, tuple[Dart, ...]] = {}
    for pid, members in sorted(parts.items()):
        if len(members) == g.n:
            gp = biconnect(g)
            global_rot.update((v, tuple(gp.rotation[v])) for v in members)
            continue
        to_local = {v: i for i, v in enumerate(members)}
        to_global = {i: v for v, i in to_local.items()}
        rot = []
        for v in members:
            rot.append(
                [
                    Dart(to_local[v], to_local[d.head], d.copy)
                    for d in g.rotation[v]
                    if part_of[d.head] == pid
                ]
            )
        sub = build_embedding(
            len(members), rot, [g.vertex_weight[v] for v in members]
        )
        sub = biconnect(sub)
        for i, v in enumerate(members):
            global_rot[v] = tuple(
                Dart(v, to_global[d.head], d.copy) for d in sub.rotation[i]
            )
    return global_rot


def dist_compute_separator(
    g: EmbeddedPlanarGraph,
    tree: SpanningTree,
    weights: Optional[Sequence[int]] = None,
    backend: str = "honest",
    bit_budget: Optional[int] = None,
    max_rounds: int = 10**6,
    scramble: Optional[int] = None,
) -> tuple[DistSeparatorOutput, RoundTrace]:
    """End-to-end distributed pipeline on a single graph: dist_multi with
    one part holding every vertex."""
    outputs, trace = dist_multi(
        g, [0] * g.n, {0: tree}, weights, backend=backend, bit_budget=bit_budget,
        max_rounds=max_rounds, scramble=scramble,
    )
    return outputs[0], trace


def dist_multi(
    g: EmbeddedPlanarGraph,
    part_of: Sequence[int],
    trees: dict[int, SpanningTree],
    weights: Optional[Sequence[int]] = None,
    backend: str = "honest",
    bit_budget: Optional[int] = None,
    max_rounds: int = 10**6,
    scramble: Optional[int] = None,
) -> tuple[dict[int, DistSeparatorOutput], RoundTrace]:
    """Concurrent separator runs in every part of a vertex-disjoint partition."""
    w = list(weights) if weights is not None else list(g.vertex_weight)
    parts: dict[int, list[int]] = {}
    for v, pid in enumerate(part_of):
        parts.setdefault(pid, []).append(v)
    for pid, members in sorted(parts.items()):
        require_proper([w[v] for v in members], f"part {pid}: ")
    global_rot = _part_knowledge(g, part_of)
    config = PipelineConfig(
        backend=backend, bit_budget=bit_budget, max_rounds=max_rounds, scramble=scramble,
    )
    pipeline = DistPipeline(
        g=g,
        part_of=part_of,
        global_rot=global_rot,
        trees=trees,
        tree_roots={pid: t.root for pid, t in trees.items()},
        weights=w,
        config=config,
    )
    # installing the augmentation into local knowledge is charged
    pipeline.trace.phase("biconnect").charged_rounds += 2 * pipeline._unit
    outputs = pipeline.run_all()
    return outputs, pipeline.trace


# -- standalone BFS (spec surface) --------------------------------------------------


def dist_bfs(
    g: EmbeddedPlanarGraph,
    root: int,
    bit_budget: Optional[int] = None,
    scramble: Optional[int] = None,
    roots_override: Optional[Sequence[int]] = None,
) -> tuple[SpanningTree, RoundTrace]:
    """BFS tree construction by flooding; equals the sequential bfs_tree."""
    trace = RoundTrace()
    pt = trace.phase("bfs")
    know = [
        LocalKnowledge(
            vid=v, n=g.n, weight=g.vertex_weight[v], part=0,
            rotation=tuple(g.rotation[v]), tree_darts=frozenset(),
            tree_root=(roots_override[v] if roots_override else root),
        )
        for v in range(g.n)
    ]
    sim = Simulator(g.rotation, bit_budget=bit_budget, scramble=scramble)
    states = sim.run(BfsProgram(), know, pt)
    parent = [states[v]["parent"] for v in range(g.n)]
    depth = [states[v]["depth"] for v in range(g.n)]
    parent_edge = [
        None if parent[v] is None else (min(v, parent[v]), max(v, parent[v]), 0)
        for v in range(g.n)
    ]
    edges = {e for e in parent_edge if e is not None}
    return (
        SpanningTree(root=root, parent=parent, parent_edge=parent_edge, depth=depth, edges=edges),
        trace,
    )
