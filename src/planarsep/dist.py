"""Message-passing implementation of the separator pipeline.

One driver, dist_multi, runs the pipeline concurrently in every part of a
vertex-disjoint partition; dist_compute_separator is dist_multi with one
part holding every vertex.

Every phase is a vertex program run on the synchronous simulator; the
only channels are the darts of the (per-part, augmented) rotation
systems installed as local knowledge, numbered in a DartTable: g's own
ids when every part keeps g's rotations filtered to the part, as every
bi-connected part does.  Every program, message key and store entry
names a dart, or a face by its minimum dart, by id; Darts are built
again only for the output.  Frames that name a dart on the wire carry one
int, its name tail * width + rank: the rank is the dart's place among its
tail's darts, width the table's largest degree (dart_names).  Learning
face ids works on face rings: consecutive boundary darts of a face share
a vertex, so a face is a communication ring, and a token forwarded from
position dart d lands at head(d), which derives the receiving position
locally as the rotation successor of the arrival dart.  So d knows that
its successor's name has tail head(d), and sends no token that this
name would filter out.  Everything else runs on T (part-wise
aggregation too) or on single cotree edges or ring hops.

Phase order: T comes rooted, as DistPipeline orients it once from its
edges and root (LocalKnowledge), so the tree_root and learn_cotree
phases are local and empty; learn face ids (min-filtered tokens around
each ring, each sent only if the ring successor keeps it, then one
announcement of the minimum that stops one hop short of it), transfer
each vertex's weight to its minimum face id locally (no face total is
formed), compute every dual subtree's weight and dart
count from prefix sums along the contour of T counted from R, the tree
root's first dart, whose face is the dual root (three frames per tree
edge and one exchange across each cotree edge; no election), elect a
balanced or critical node in one MAX part-wise aggregation on T whose
keys rank every balanced face above every heavy one (only a part whose
critical node has dual children aggregates again, to tell every vertex
the face; every other part sits that call out), claim the endpoints up
T and broadcast them (one OR TreeFold of one-int claims, the program
the honest aggregation runs too), and mark the path locally from the
claims.
In the critical case, every position on the chosen
face's ring first reads its virtual triangle's enclosed weight off its
own contour prefix (the suffix of boundary choice-weights plus hanging
child subtrees, exactly the sequential engine's formula) and sends its
heavy bit one hop along the ring, so the first light position knows
locally that it is the endpoint u.

All tie-breaks mirror the sequential engine (minimum-id faces and
parents, maximum-id elections, the dual root at R's face), so results
serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .biconnect import biconnect, biconnected
from .congest import (
    PartAggregator,
    RoundTrace,
    Simulator,
    TreeFold,
    VertexProgram,
    default_bit_budget,
    pa_charge,
    require_backend,
)
from .collector import collector_paused
from .embedding import (
    Dart, DartTable, EmbeddedPlanarGraph, build_embedding, next_copy, require_weights,
)
from .errors import (
    ConflictingRoot,
    DegenerateTotal,
    InvalidPartition,
    NotBiconnected,
    NotConnected,
    UnknownRoot,
)
from .separator import (
    ClosingEdge,
    SeparatorResult,
    exceeds_beta,
    is_balanced,
    make_result,
    require_proper,
    sep_line,
)
from .treecotree import (
    SpanningTree,
    diameter_estimate,
    part_bfs_trees,  # also re-exported for callers of planarsep.dist
    part_members,
    require_part_tree,
)

# message tags, with payload arity (tag excluded)
T_BFS, T_CLAIM = 1, 2
T_TOK, T_FACE = 4, 5
T_CUT, T_POS, T_SUBD = 6, 9, 10
T_HEAVY = 11
T_TOT = 13

_ARITY = {
    T_BFS: 2, T_CLAIM: 1,
    T_TOK: 1, T_FACE: 1,
    T_CUT: 2, T_POS: 2, T_SUBD: 2,
    T_HEAVY: 1,
    T_TOT: 2,
}


def pack(frame: tuple) -> tuple[int, ...]:
    """A message is one frame: its tag, then exactly the tag's arity."""
    assert len(frame) - 1 == _ARITY[frame[0]], frame
    return tuple(frame)


def dart_names(darts: DartTable) -> tuple[list[int], int]:
    """Each dart id's name on the wire, tail * width + rank, and width.

    The rank is the dart's place among its tail's darts in (head, copy)
    order, d - lo[tail], which the tail gets by sorting its own darts (not
    their rotation order); width is the table's largest degree, one global
    constant.  Names ascend as ids do, in a restricted
    table or one with virtual darts too, so a min-filter or maximum-id
    tie-break over names picks the dart it picks over ids, and a name takes
    O(log n) bits whatever labels a caller gives the copies.  dart_of_name
    is the inverse.
    """
    lo = darts.lo
    width = max(b - a for a, b in zip(lo, lo[1:]))
    return [t * width + d - lo[t] for d, t in enumerate(darts.tail)], width


def dart_of_name(darts: DartTable, width: int, x: int) -> int:
    """The dart id named x (see dart_names)."""
    return darts.lo[x // width] + x % width


CASE_BALANCED, CASE_LEAF, CASE_VIRTUAL = 1, 2, 3
_CASE_NAMES = {
    CASE_BALANCED: "balanced",
    CASE_LEAF: "critical-leaf",
    CASE_VIRTUAL: "critical-virtual",
}


@dataclass(slots=True)
class LocalKnowledge:
    """Everything a vertex may read; the store grows phase by phase.

    Darts are ids of the pipeline's DartTable.  A program reads the table
    only at the vertex's own darts (and at darts named in its messages
    or store), which is what the vertex knows of its rotation.  T comes
    rooted, as dist_bfs leaves it: a vertex knows its parent dart (None at
    the root) and its child darts, ascending, as DistPipeline finds them
    from T's edges and root.  Every other own dart is a cotree dart.  So
    a LocalKnowledge is also the congest.TreeView of T that TreeFold
    reads.
    """

    vid: int
    weight: int
    rotation: tuple[int, ...]       # own dart ids in rotation order
    parent_dart: Optional[int]      # own dart id to the parent on T, None at the root
    child_darts: tuple[int, ...]    # own dart ids to the children on T, ascending
    tree_root: int
    store: dict = field(default_factory=dict)


# -- tree construction -------------------------------------------------------


class BfsProgram(VertexProgram):
    """BFS flood with smallest-id parents over the smallest-id dart, as
    bfs_tree picks them; detects conflicting roots.  The root ignores its
    own wave, which comes back to it over parallel copies."""

    def __init__(self, darts: DartTable):
        self.head = darts.head

    def init(self, know: LocalKnowledge) -> dict:
        return {
            "depth": None, "parent": None, "parent_dart": None, "children": [],
            "announce_round": None,
        }

    def starts(self, know: LocalKnowledge) -> bool:
        return know.vid == know.tree_root  # every other vertex waits for the wave

    def step(self, r, know: LocalKnowledge, st, inbox):
        head = self.head
        out = []
        announcers = []
        for k, frame in inbox.items():
            if frame[0] == T_BFS:
                root_id, d = frame[1], frame[2]
                if root_id != know.tree_root:
                    raise ConflictingRoot(
                        f"vertex {know.vid} (root {know.tree_root}) heard a wave "
                        f"rooted at {root_id} from {head[k]}"
                    )
                announcers.append((d, k))
            elif frame[0] == T_CLAIM:
                st["children"].append(head[k])
        if r == 0 and know.vid == know.tree_root:
            st["depth"] = 0
            st["announce_round"] = 0
            wave = pack((T_BFS, know.vid, 0))
            out = [(d, wave) for d in know.rotation]
        elif announcers and st["depth"] is None:
            # own dart ids ascend by head, then copy: the least id one layer
            # up names the smallest parent and its smallest edge
            d, pd = min(announcers)
            st["depth"] = d + 1
            st["parent"], st["parent_dart"] = head[pd], pd
            st["announce_round"] = r
            wave = pack((T_BFS, know.tree_root, st["depth"]))
            claim = pack((T_CLAIM, st["depth"]))
            out = [(ch, claim if ch == pd else wave) for ch in know.rotation]
        ar = st["announce_round"]
        if ar is not None and r >= ar + 2:
            st["children"].sort()
            return out, True
        if ar is not None:
            st["_wake"] = True
        return out, False


# -- face discovery ----------------------------------------------------------


class LearnFacesProgram(VertexProgram):
    """Face ids by min-filtered tokens (Chang and Roberts, CACM 1979) and
    one announcement lap.

    Tokens are names (dart_names), which order as ids do and rise with the
    tail.  A position d's successor on the face ring sits at head(d), so
    its own name is below (head(d) + 1) * width, and it would drop any
    token whose tail is past head(d): such a token is never sent.  A
    position's filter starts at min(own name, (head + 1) * width).  At
    round 0 a position sends its own name to its successor only if its
    head exceeds its tail, one dart of every edge.  Later it forwards a
    token only if it is below the filter, which then takes the token's
    value, and notes the round; other tokens are dropped.  The face
    minimum passes every filter, and only its token gets back to its
    origin, at round |f|: that position knows the face id and size and
    sends its name on around the ring.  The announcement reaches the
    position i hops on at round |f| + i, and the minimum's token reached
    it at round i, so the difference of the two rounds is the face size.
    The position |f| - 1 hops on is the last to learn: it does not forward
    the announcement, so a face costs |f|(|f|+1)/2 tokens at most plus
    |f| - 1 announcements, in 2|f| rounds.  That worst case still holds,
    less the |f| - 1 tokens into the minimum's position, on a face whose
    names rise along the ring, such as a long cycle's outer face or a
    wheel's rim.  A token never passes the minimum, so it never meets the
    announcement on a dart.  The store keeps face ids as dart ids.
    """

    def __init__(self, darts: DartTable, names: list[int], width: int):
        self.darts, self.succ, self.names, self.width = darts, darts.succ, names, width
        self.head = darts.head
        self.tok = [(T_TOK, x) for x in names]  # a dart's own token
        # above every name with tail v, at most any name with a larger tail
        self.cap = [(T_TOK, (v + 1) * width) for v in range(len(darts.rot))]

    def init(self, know: LocalKnowledge) -> dict:
        tok, head, cap, v = self.tok, self.head, self.cap, know.vid
        return {
            # min(own token, cap[head(d)]): a token passes below the own
            # name, and only with a tail up to head(d)
            "best": {d: tok[d] if (h := head[d]) > v else cap[h] for d in know.rotation},
            "best_round": {},
            "face": {},
            "size": {},
        }

    def step(self, r, know: LocalKnowledge, st, inbox):
        tok = self.tok
        if r == 0:
            head, v = self.head, know.vid
            return [(d, tok[d]) for d in know.rotation if head[d] > v], False
        succ = self.succ
        out = []
        best, best_round, face, size = st["best"], st["best_round"], st["face"], st["size"]
        # every payload is one packed frame, read and forwarded in place;
        # tokens share their tag, so they compare as their darts' ids do
        for k, payload in inbox.items():
            slot = succ[k]
            if payload[0] == T_TOK:
                if payload == tok[slot]:  # once around: slot is the face minimum
                    face[slot] = slot
                    size[slot] = r
                    out.append((slot, pack((T_FACE, self.names[slot]))))
                elif payload < best[slot]:
                    best[slot] = payload
                    best_round[slot] = r
                    out.append((slot, payload))
            else:
                face[slot] = dart_of_name(self.darts, self.width, payload[1])
                size[slot] = r - best_round[slot]
                if best_round[slot] < size[slot] - 1:  # the lap ends before the minimum
                    out.append((slot, payload))
        return out, len(face) == len(know.rotation)


# -- dual subtree sums from the contour of T ---------------------------------


class DualSubtree(NamedTuple):
    """A face's dual subtree, as the endpoints of its dual parent edge learn
    it (the endpoints of R, at the dual root)."""

    weight: int         # face weights summed over the subtree
    darts: int          # boundary darts summed over the subtree
    parent_dart: int    # the anchor: the face's side of its dual parent edge, R at the root
    size: int           # the face's own boundary length
    base: int           # weight prefix where the subtree's interval starts


class ContourProgram(VertexProgram):
    """Dual subtree sums from prefix sums along the contour of T, the Euler
    tour technique of Tarjan and Vishkin (SIAM J. Comput. 1985), started at
    R, the tree root's first dart.

    The contour lists the 2m darts of a part: a tree dart d is followed by
    succ(rev(d)), any other dart d by succ(d).  So every subtree of T owns
    one segment of it: its root's darts in rotation order after the parent
    dart, each child's segment right after the dart to that child, and the
    tree root's segment is the whole contour, from R at position 0.  For a
    cotree edge whose darts sit at positions i < j, positions i+1..j hold
    the darts of the faces on one side of its fundamental cycle, the side
    of the face at j.  That interval never holds R, so it is the dual
    subtree below the edge, and the face at R is the dual root.  With every
    vertex's weight marked at its corner dart (its dart in its chosen
    face), the subtree's weight is a difference of weight prefixes and its
    dart count the length of the interval.

    The fields travel at most two to a frame, three frames per tree edge.
    Up T, every subtree's dart count and weight.  Down T, the part's total
    weight W and contour length M, then every child's first position and
    the weight prefix before it; the tree root starts at (0, 0) one round
    after it sends the totals.  Across each cotree edge goes one frame of
    position and weight prefix, and each endpoint then resolves the edge
    locally.  The dual root's sums sit at both ends of R, like every other
    face's at both ends of its anchor: head(R) is the one vertex that
    receives a child's first position 1 or a cotree frame of position 0.
    Every own dart's weight prefix stays in the store, in rotation order,
    for the critical face's ring positions.
    """

    def __init__(self, darts: DartTable):
        self.succ, self.rev = darts.succ, darts.rev

    def init(self, know: LocalKnowledge) -> dict:
        rot = know.rotation
        pd = know.parent_dart
        k = 0 if pd is None else rot.index(pd) + 1
        return {
            "order": rot[k:] + rot[:k],
            "kids": {},          # child dart -> its subtree's dart count and weight
            "darts": None,       # the subtree's dart count, once its children's are in
            "total_weight": None,
            "total_darts": None,
            "cuts": len(rot) - len(know.child_darts) - (pd is not None),
            "pos": None,         # own dart -> contour position
            "incl": {},          # own dart -> weight marks up to and including it
            "cut": {},           # cotree dart -> T_CUT frame: position and incl of its reverse
            "at_R": None,        # at either end of R: R, its face's dart here, incl[R]
            "subtrees": {},      # face -> DualSubtree, for faces whose parent edge is here
            "prefix": None,      # weight prefix of each own dart, rotation order
        }

    def starts(self, know: LocalKnowledge) -> bool:
        return not know.child_darts  # every other vertex waits for its children

    def _place(self, know, st, first: int, before: int, out) -> None:
        """Positions and weight prefixes of the own darts, sent down T and
        across T*."""
        corner = know.store["corner"]
        kids = st["kids"]
        pos, incl = {}, st["incl"]
        p, acc = first, before
        for d in st["order"]:
            pos[d] = p
            if d == corner:
                acc += know.weight
            incl[d] = acc
            p += 1
            if d in kids:
                out.append((d, pack((T_POS, p, acc))))
                count, weight = kids[d]
                p += count
                acc += weight
            elif d != know.parent_dart:  # neither a child's dart nor the parent's
                out.append((d, pack((T_CUT, pos[d], acc))))
        st["pos"] = pos

    def _totals(self, know, st, total_weight: int, total_darts: int, out) -> None:
        st["total_weight"], st["total_darts"] = total_weight, total_darts
        msg = pack((T_TOT, total_weight, total_darts))
        out.extend((d, msg) for d in know.child_darts)

    def _resolve(self, know, st) -> None:
        """Each cotree edge here: the dual subtree below it (the side whose
        interval (i, j] has j's face) and that subtree's weight, dart count
        and base (the prefix at i); at either end of R, the dual root's."""
        store = know.store
        faces, sizes = store["face"], store["size"]
        pos, incl = st["pos"], st["incl"]
        for d, (_tag, q, q_incl) in st["cut"].items():
            p, p_incl = pos[d], incl[d]
            if q < p:  # d's own face is the child
                st["subtrees"][faces[d]] = DualSubtree(p_incl - q_incl, p - q, d, sizes[d], q_incl)
            else:  # d lies on the parent face; its successor on the child
                child_side = self.succ[d]
                st["subtrees"][faces[child_side]] = DualSubtree(
                    q_incl - p_incl, q - p, self.rev[d], sizes[child_side], p_incl
                )
        if st["at_R"] is not None:  # the dual root: the whole contour, after R up to R
            R, side, base = st["at_R"]
            st["subtrees"][faces[side]] = DualSubtree(
                st["total_weight"], st["total_darts"], R, sizes[side], base
            )
        st["prefix"] = tuple([incl[d] for d in know.rotation])

    def step(self, r, know: LocalKnowledge, st, inbox):
        out = []
        for k, frame in inbox.items():
            tag = frame[0]
            if tag == T_SUBD:
                st["kids"][k] = frame[1:]
            elif tag == T_TOT:
                self._totals(know, st, frame[1], frame[2], out)
            elif tag == T_POS:
                if frame[1] == 1:  # only R, at position 0, sends first position 1
                    st["at_R"] = (self.rev[k], self.succ[k], frame[2])
                self._place(know, st, frame[1], frame[2], out)
            else:
                if frame[1] == 0:  # or, as a cotree dart, position 0
                    st["at_R"] = (self.rev[k], self.succ[k], frame[2])
                st["cut"][k] = frame
        # at most one new frame per dart and round: the subtree's sums, or at
        # the tree root the totals, then the root's own start
        if st["darts"] is None:
            if len(st["kids"]) == len(know.child_darts):
                st["darts"] = len(st["order"]) + sum(c for c, _w in st["kids"].values())
                weight = know.weight + sum(w for _c, w in st["kids"].values())
                if know.vid == know.tree_root:
                    self._totals(know, st, weight, st["darts"], out)
                    st["_wake"] = True  # its start is due next round
                else:
                    out.append((know.parent_dart, pack((T_SUBD, st["darts"], weight))))
        elif st["pos"] is None and know.vid == know.tree_root:
            self._place(know, st, 0, 0, out)
            R = know.rotation[0]
            st["at_R"] = (R, R, st["incl"][R])
        done = st["pos"] is not None and len(st["cut"]) == st["cuts"]
        if done:
            self._resolve(know, st)
        return out, done


# -- critical-case boundary prefixes ------------------------------------------


class PrefixProgram(VertexProgram):
    """The critical face's ring positions, each with its virtual triangle's
    enclosed weight, and one heavy bit to the ring successor.

    A vertex holds at most one dart on the face (two raise
    NotBiconnected), its position.  The contour lists the face's darts in
    ring order from v_1, the head of the anchor, with only the child
    subtrees hanging at earlier boundary edges between them, so position t
    reads s_t, the subtree weight of the t-th virtual triangle, off its own
    weight prefix: the face's base plus its subtree weight, less the prefix
    at its dart.  The anchor is the face's side of its dual parent edge, R
    at the dual root, and both its endpoints hold it.  s_1 is the face's
    own subtree, heavy by its election, and v_k (the anchor's tail) starts
    no triangle.

    At round 0 positions 1..k-1 send whether they are heavy, above 3/4 of
    the part's weight.  s is non-increasing, so the heavy positions are
    1..j and the first light one is u = v_{j+1}, whose s_t is the enclosed
    weight: every position checks monotonicity against its predecessor's
    bit, so j needs no search.
    """

    def __init__(self, darts: DartTable):
        self.darts = darts

    def init(self, know: LocalKnowledge) -> dict:
        store = know.store
        st = {
            "prefix_pos": None, "prefix_s": None, "prefix_u": False, "heavy": None,
            "hears": False,
        }
        if store.get("case_code") != CASE_VIRTUAL:
            return st
        f = store["case_face"]
        faces = store["face"]
        on_face = [i for i, d in enumerate(know.rotation) if faces[d] == f]
        if len(on_face) > 1:
            raise NotBiconnected(
                f"vertex {know.vid} appears twice on face {self.darts.dart(f)}"
            )
        if not on_face:
            return st
        i, = on_face
        st["prefix_pos"] = know.rotation[i]
        anchor = store["case_anchor"]  # held at both of its endpoints
        if anchor is not None and know.vid == self.darts.head[anchor]:
            st["heavy"] = 1
            return st
        st["hears"] = True  # its ring predecessor's heavy bit
        if anchor is None or know.vid != self.darts.tail[anchor]:
            W = store["total_weight"]
            st["prefix_s"] = store["case_base"] - store["prefix"][i]
            st["heavy"] = int(exceeds_beta(st["prefix_s"], W))
        return st

    def step(self, r, know: LocalKnowledge, st, inbox):
        if r == 0:
            heavy = st["heavy"]
            out = [] if heavy is None else [(st["prefix_pos"], pack((T_HEAVY, heavy)))]
            return out, not st["hears"]
        (frame,) = inbox.values()
        if st["heavy"] is not None:  # v_k only listens
            assert frame[1] or not st["heavy"], "enclosed weight not monotone"
            st["prefix_u"] = bool(frame[1] and not st["heavy"])  # the first light position
        return [], True


# -- endpoint claims -------------------------------------------------------------


def _uv_claim(know: LocalKnowledge, tail: Sequence[int], head: Sequence[int], shift: int) -> int:
    """This vertex's claim as one int: (v + 1) << shift where it is v, u + 1
    (below 2**shift, for shift = n.bit_length()) where it is u, else 0; the
    OR of a part's claims holds both.  The endpoints of the chosen face's
    anchor know it; a balanced face is never the dual root, so its anchor
    is its dual parent dart.  In the virtual case, u learned it from its
    predecessor's heavy bit."""
    store = know.store
    ad = store["case_anchor"]
    code = store["case_code"]
    u = v = None
    if code == CASE_VIRTUAL:
        u = know.vid if store["prefix_u"] else None
        v = tail[ad] if ad is not None else None
    elif ad is None:
        return 0
    elif code == CASE_BALANCED:
        u, v = sorted((tail[ad], head[ad]))
    else:
        u, v = head[ad], tail[ad]
    me = know.vid
    return ((me + 1) << shift if me == v else 0) | (me + 1 if me == u else 0)


def _one_end(claim: int, shift: int) -> bool:
    """Whether a claim or an OR of claims names exactly one endpoint."""
    v1, u1 = divmod(claim, 1 << shift)
    return (u1 > 0) != (v1 > 0)


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

    def __post_init__(self):
        require_backend(self.backend)


class DistPipeline:
    """Runs the phase programs over one graph holding one or more parts.

    The communication topology is the union of the per-part augmented
    rotations (virtual darts are channels, simulated with O(1) overhead);
    inter-part edges carry no traffic.  Super-round scheduling is by
    phase: each phase is one simulator run covering all parts, and the
    realized interval lengths are published in the trace.

    global_rot's Darts are numbered in one DartTable (`darts`).  When every
    row is g's rotation filtered to its part, as for every part that
    _part_knowledge keeps as it is, that is g's own table, restricted to the
    parts' rotations; otherwise (virtual darts) the pipeline numbers them
    itself.  Every phase program and store works on those ids, and assemble
    turns them back into Darts.  The part-wise aggregations run on T in
    the same simulator.  tree_roots must name each tree's own root;
    ConflictingRoot otherwise, and NotSpanningTree unless each tree's edges
    span its part (require_part_tree, whose walk orients T), both before
    any phase runs.
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
        for pid, t in trees.items():
            if tree_roots[pid] != t.root:
                raise ConflictingRoot(
                    f"part {pid}: root {tree_roots[pid]} given, its tree is rooted at {t.root}"
                )
        self.members = part_members(part_of)
        # T is its edges and root: the check's walk orients every tree edge
        ups = [require_part_tree(g, trees[pid], ms) for pid, ms in self.members.items()]
        self.g = g
        self.config = config
        self.n = g.n
        # a frame carries at most two weight sums besides O(log n) bits
        self.budget = (
            config.bit_budget if config.bit_budget is not None
            else default_bit_budget(g.n) + 2 * sum(weights).bit_length()
        )
        self.trace = RoundTrace()
        self.diameter = diameter_estimate(g)
        self._unit = pa_charge(self.diameter, g.n)

        rows = [global_rot[v] for v in range(g.n)]
        self.darts = darts = _shared_table(g, part_of, rows) or DartTable(rows)
        self.names, self.width = dart_names(darts)
        # each vertex's parent dart and child darts, from the orientation
        parent_dart: list[Optional[int]] = [None] * g.n
        child_darts: list[list[int]] = [[] for _ in range(g.n)]
        for up in ups:
            for v, (a, b, c) in up.items():
                parent_dart[v] = d = darts.index[v, a + b - v, c]
                child_darts[darts.head[d]].append(darts.rev[d])
        self.know = [
            LocalKnowledge(
                vid=v,
                weight=weights[v],
                rotation=darts.rot[v],
                parent_dart=parent_dart[v],
                child_darts=tuple(sorted(child_darts[v])),
                tree_root=tree_roots[pid],
            )
            for v, pid in enumerate(part_of)
        ]
        self.sim = Simulator(darts, bit_budget=self.budget, scramble=config.scramble)
        self.aggregate = PartAggregator(
            self.members, self.know, None if config.backend == "charged" else self.sim,
            self.budget, self._unit,
        )

    # -- small helpers ------------------------------------------------------

    def _run(
        self, name: str, program: VertexProgram, charge_units: int = 0,
        publish: Sequence[str] = (),
    ) -> list[dict]:
        """One simulator run as phase `name`; copies the state keys in
        `publish` into every vertex's store."""
        pt = self.trace.phase(name)
        states = self.sim.run(program, self.know, pt, max_rounds=self.config.max_rounds)
        pt.charged_rounds += charge_units * self._unit
        self.trace.interval_lengths.append(pt.honest_rounds)
        for know, st in zip(self.know, states):
            for key in publish:
                know.store[key] = st[key]
        return states

    def _local(self, name: str) -> None:
        """Phase `name` computed by every vertex from its own store: 0 rounds."""
        self.trace.phase(name)
        self.trace.interval_lengths.append(0)

    # -- phases --------------------------------------------------------------

    def run_tree_root(self):
        # T comes rooted: each vertex already knows its parent and child
        # darts; the 0-round phase stays because perfbench names it
        self._local("tree_root")

    def run_learn_faces(self):
        self._run(
            "learn_faces", LearnFacesProgram(self.darts, self.names, self.width), charge_units=1,
            publish=("face", "size"),
        )

    def run_learn_cotree(self):
        # a cotree dart is one that is neither the parent dart nor a child
        # dart; the 0-round phase stays because perfbench names it
        self._local("learn_cotree")

    def run_face_weights(self):
        # each vertex hands its weight to its minimum face id, marked at its
        # minimum dart there (its corner); no face total is ever formed
        self._local("face_weights")
        for know in self.know:
            faces = know.store["face"]
            chosen = min(faces.values())
            know.store["corner"] = min(d for d in know.rotation if faces[d] == chosen)

    def run_root_election(self):
        # the dual root is the face at R, which ContourProgram finds without
        # an election; the 0-round phase stays because perfbench names it
        self._local("root_election")

    def run_dual_sums(self):
        self._run(
            "dual_subtree_sums", ContourProgram(self.darts), charge_units=2,
            publish=("subtrees", "total_weight", "total_darts", "prefix"),
        )

    def run_detect(self):
        pt = self.trace.phase("detect")
        stores = [know.store for know in self.know]
        for pid, members in self.members.items():
            if stores[members[0]]["total_weight"] == 0:
                raise DegenerateTotal(f"part {pid}: total face weight is zero")

        darts, names, width = self.darts, self.names, self.width
        space = self.n * width + 1  # above every dart name + 1

        # one MAX election over keys from the holders of each face's
        # subtree sums, with M the part's contour length.  A balanced face
        # keys 2M + 3 + its name.  A heavy face (subtree above 3/4) keys
        # 2(M + 1 - darts) + 1 if it has dual children, else + 0: the heavy
        # faces form a chain down from the dual root along which the
        # subtree's dart count strictly drops, so these ranks are distinct
        # and the deepest heavy face has the largest.  Every balanced key
        # ranks above every heavy key, at most 2M + 1.  Each vertex sends
        # its largest key and remembers whose it is
        best = []
        for store in stores:
            W, M = store["total_weight"], store["total_darts"]
            top = (0, None)
            for f, sub in store["subtrees"].items():
                if is_balanced(sub.weight, W):
                    k = 2 * M + 3 + names[f]
                elif exceeds_beta(sub.weight, W):
                    k = 2 * (M + 1 - sub.darts) + (sub.darts > sub.size)
                else:
                    continue
                if k > top[0]:
                    top = (k, f)
            best.append(top)
        won = self.aggregate([k for k, _f in best], "MAX", pt)

        # every vertex reads the case off the winning key; a balanced key
        # names its face, a heavy one only its face's holders recognise, as
        # their own largest.  They keep its anchor (the face's side of its
        # dual parent edge, or R at the root) next to its subtree sums
        face_in: list[Optional[int]] = [None] * self.n
        for v, (store, (own, own_face)) in enumerate(zip(stores, best)):
            k, M = won[v], store["total_darts"]
            if k > 2 * M + 1:
                code, face = CASE_BALANCED, dart_of_name(darts, width, k - 2 * M - 3)
            else:
                code = CASE_VIRTUAL if k & 1 else CASE_LEAF
                face = own_face if own == k else None
            sub = store["subtrees"].get(face)
            store["case_code"], store["case_face"], store["case_base"] = code, face, 0
            store["case_anchor"] = None if sub is None else sub.parent_dart
            if code == CASE_VIRTUAL:
                face_in[v] = 0 if sub is None else (sub.weight + sub.base) * space + names[face] + 1

        # only a virtual critical part aggregates again: its face's holders
        # tell every vertex the face and where its subtree's interval ends
        # (base plus weight), for the prefix pass; every other part sits out
        told = self.aggregate(face_in, "MAX", pt)
        for store, x in zip(stores, told):
            if x is not None:
                store["case_base"], name = divmod(x, space)
                store["case_face"] = dart_of_name(darts, width, name - 1)
        self.trace.interval_lengths.append(pt.honest_rounds)

    def run_prefix(self):
        self._run(
            "mark_prefix", PrefixProgram(self.darts), charge_units=1,
            publish=("prefix_pos", "prefix_u", "prefix_s"),
        )

    def run_search(self) -> dict[int, tuple[int, int]]:
        """The endpoint claim wave, as phase mark_search: every vertex knows
        its own claim (see _uv_claim), so one TreeFold on T takes the OR
        of the claims up to the tree root and sends both endpoints back
        down.  Each vertex keeps its subtree's fold and its children's
        partials, which mark the path.  Returns each part's endpoints
        (u, v)."""
        tail, head, shift = self.darts.tail, self.darts.head, self.n.bit_length()
        claims = [_uv_claim(know, tail, head, shift) for know in self.know]
        states = self._run("mark_search", TreeFold("OR", claims), charge_units=1)
        ends = {}
        for pid, ms in self.members.items():
            v1, u1 = divmod(states[ms[0]]["fold"], 1 << shift)
            assert u1 and v1, "an endpoint claim is missing"
            ends[pid] = (u1 - 1, v1 - 1)
        for know, st in zip(self.know, states):
            know.store["agg_uv"], know.store["kid_uv"] = st["acc"], st["kids"]
        return ends

    def run_mark(self):
        # a tree edge is on the path iff the subtree below it holds exactly
        # one endpoint, as the claim wave told both of its ends
        self._local("mark_path")
        shift = self.n.bit_length()
        for know in self.know:
            store = know.store
            darts = [d for d in know.child_darts if _one_end(store["kid_uv"][d], shift)]
            if _one_end(store["agg_uv"], shift):  # never at the root, which holds both
                darts.append(know.parent_dart)
            store["path_darts"] = tuple(sorted(darts))

    # -- assembly -------------------------------------------------------------

    def assemble(self, ends: dict[int, tuple[int, int]]) -> dict[int, DistSeparatorOutput]:
        return {pid: self._assemble_part(pid, *ends[pid]) for pid in self.members}

    def _assemble_part(self, pid: int, u: int, v: int) -> DistSeparatorOutput:
        """One part's output, where the dart ids turn back into Darts."""
        dart = self.darts.dart
        members = self.members[pid]
        any_store = self.know[members[0]].store
        code = any_store["case_code"]

        views = {}
        for x in members:
            darts = tuple(map(dart, self.know[x].store["path_darts"]))
            role = "u" if x == u else "v" if x == v else "p" if darts else "-"
            views[x] = VertexSeparatorView(vid=x, role=role, p_darts=darts)

        # v is an endpoint of the chosen face's anchor, so its store holds
        # the anchor and the face's subtree sums (see _uv_claim)
        v_store = self.know[v].store
        anchor = dart(v_store["case_anchor"])
        if code == CASE_VIRTUAL:
            # u found itself on the prefix pass: its ring slot embeds the
            # new edge, and its triangle's subtree is the enclosed weight.
            # Given the monotonicity checks, u = v_{k-1} iff s_{k-2} is heavy
            u_store = self.know[u].store
            slot_u = dart(u_store["prefix_pos"])
            assert slot_u.head != v, "last triangle subtree exceeds 3/4"
            closing = ClosingEdge(
                kind="virtual",
                endpoints=(u, v),
                copy=next_copy(list(map(dart, self.know[u].rotation)), v),
                insert_before_u=slot_u,
                insert_before_v=anchor,
            )
            interior = u_store["prefix_s"]
            views[u].peer = v
            views[u].insert_before = slot_u
            views[v].peer = u
            views[v].insert_before = anchor
        else:
            closing = ClosingEdge(kind="real", endpoints=(u, v), copy=anchor.copy)
            interior = v_store["subtrees"][v_store["case_face"]].weight

        result = make_result(
            _CASE_NAMES[code],
            self._walk_path(u, v, views),
            closing,
            interior,
            any_store["total_weight"],
        )
        return DistSeparatorOutput(
            part=pid,
            case=result.case,
            result=result,
            views=views,
        )

    def _walk_path(self, u: int, v: int, views: dict[int, VertexSeparatorView]) -> list[int]:
        """u to v over the path darts; each path edge shows at both ends."""
        path = [u]
        prev = None
        while path[-1] != v:
            nxts = [d.head for d in views[path[-1]].p_darts if d.head != prev]
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


def _shared_table(
    g: EmbeddedPlanarGraph, part_of: Sequence[int], rows: Sequence[Sequence[Dart]]
) -> Optional[DartTable]:
    """g's dart table restricted to rows, when every row is g's rotation,
    whole or filtered to its vertex's part (no virtual darts), else None."""
    table = g.dart_table
    head, triple = table.head, table.triple
    rot = []
    for v, row in enumerate(rows):
        ids = table.rot[v]
        if len(row) == len(ids):
            if list(row) != g.rotation[v]:
                return None
        else:
            pid = part_of[v]
            ids = tuple([d for d in ids if part_of[head[d]] == pid])
            if list(row) != [triple[d] for d in ids]:
                return None
        rot.append(ids)
    return table if rot == table.rot else table.restricted(rot)


# -- public operations ----------------------------------------------------------


def _part_knowledge(
    g: EmbeddedPlanarGraph, part_of: Sequence[int]
) -> dict[int, tuple[Dart, ...]]:
    """Per-vertex rotations of the per-part augmented subgraphs, global ids.

    A part's rotations are g's, filtered to the part.  A part that is
    already bi-connected (`biconnected` on its local neighbour ids) keeps
    them as they are.  Any other part's induced sub-embedding is built
    (locally relabeled in ascending member order, which preserves the
    relative id order and hence canonical-dart comparisons), bi-connected,
    and mapped back; InvalidPartition where it is not connected.  A part
    holding every vertex induces g itself, so g is bi-connected directly,
    without a rebuild or relabelling.
    """
    global_rot: dict[int, tuple[Dart, ...]] = {}
    for pid, members in part_members(part_of).items():
        if len(members) == g.n:
            gp = biconnect(g)
            global_rot.update((v, tuple(gp.rotation[v])) for v in members)
            continue
        to_local = {v: i for i, v in enumerate(members)}
        rows = [[d for d in g.rotation[v] if part_of[d.head] == pid] for v in members]
        if biconnected([[to_local[d.head] for d in row] for row in rows]):
            global_rot.update((v, tuple(row)) for v, row in zip(members, rows))
            continue
        rot = [[Dart(i, to_local[d.head], d.copy) for d in row] for i, row in enumerate(rows)]
        try:  # the connectivity check comes before any face is traced
            sub = build_embedding(len(members), rot, [g.vertex_weight[v] for v in members])
        except NotConnected:
            raise InvalidPartition(f"part {pid} induces a disconnected subgraph") from None
        sub = biconnect(sub)
        for i, v in enumerate(members):
            global_rot[v] = tuple(
                Dart(v, members[d.head], d.copy) for d in sub.rotation[i]
            )
    return global_rot


@collector_paused
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
    one part holding every vertex.  The cyclic collector is paused for the
    call (collector_paused)."""
    outputs, trace = dist_multi(
        g, [0] * g.n, {0: tree}, weights, backend=backend, bit_budget=bit_budget,
        max_rounds=max_rounds, scramble=scramble,
    )
    return outputs[0], trace


@collector_paused
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
    """Concurrent separator runs in every part of a vertex-disjoint partition.

    Before any phase runs: BadParams for an unknown backend, NegativeWeight
    unless the weights are one non-negative int per vertex,
    InvalidPartition for a bad partition or trees not keyed by its part
    ids, NotSpanningTree for a tree not spanning its part.  The cyclic
    collector is paused for the call (collector_paused).
    """
    config = PipelineConfig(
        backend=backend, bit_budget=bit_budget, max_rounds=max_rounds, scramble=scramble,
    )
    w = require_weights(g.n, weights if weights is not None else g.vertex_weight)
    if len(part_of) != g.n:
        raise InvalidPartition(f"partition covers {len(part_of)} of {g.n} vertices")
    parts = part_members(part_of)
    if sorted(trees) != list(parts):
        raise InvalidPartition(f"trees for parts {sorted(trees)}, partition has {list(parts)}")
    # InvalidPartition for a disconnected part, before its weights are read
    global_rot = _part_knowledge(g, part_of)
    for pid, members in parts.items():
        require_proper([w[v] for v in members], f"part {pid}: ")
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


@collector_paused
def dist_bfs(
    g: EmbeddedPlanarGraph,
    root: int,
    bit_budget: Optional[int] = None,
    scramble: Optional[int] = None,
) -> tuple[SpanningTree, RoundTrace]:
    """BFS tree construction by flooding; equals the sequential bfs_tree.
    The cyclic collector is paused for the call (collector_paused)."""
    if not (0 <= root < g.n):
        raise UnknownRoot(f"root {root} not in 0..{g.n - 1}")
    trace = RoundTrace()
    pt = trace.phase("bfs")
    darts = g.dart_table
    know = [
        LocalKnowledge(
            vid=v, weight=g.vertex_weight[v],
            rotation=darts.rot[v], parent_dart=None, child_darts=(), tree_root=root,
        )
        for v in range(g.n)
    ]
    sim = Simulator(darts, bit_budget=bit_budget, scramble=scramble)
    states = sim.run(BfsProgram(darts), know, pt)
    parent = [st["parent"] for st in states]
    depth = [st["depth"] for st in states]
    parent_edge = [
        None if st["parent_dart"] is None else darts.edge(st["parent_dart"]) for st in states
    ]
    edges = {e for e in parent_edge if e is not None}
    return (
        SpanningTree(root=root, parent=parent, parent_edge=parent_edge, depth=depth, edges=edges),
        trace,
    )
