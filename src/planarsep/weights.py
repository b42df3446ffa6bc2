"""Vertex-to-face weight transfer and properness checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .embedding import EmbeddedPlanarGraph
from .errors import NoFace


@dataclass
class FaceWeighting:
    """Face numbers (see embedding.py) throughout."""

    chosen_face: list[int]             # per vertex
    face_weight: list[int]             # per face
    total: int


def transfer_weights(
    g: EmbeddedPlanarGraph,
    policy: str = "min",
    weights: Optional[Sequence[int]] = None,
) -> FaceWeighting:
    """Each vertex moves its whole weight to one incident face.

    The default policy picks the minimum face id, which is what the
    message-passing engine does as well; conservation w_F(G) = w_V(G)
    holds for any policy.  Number order is id order, so the pick is made
    over the vertex's darts' faces, dart_face[lo[v]:lo[v+1]].  NoFace on
    an edgeless graph, whose vertex lies on no traced face.
    """
    if policy not in ("min", "max"):
        raise ValueError(f"unknown policy {policy!r}")
    if not g.faces:
        raise NoFace("an edgeless graph has no face to carry the weight")
    w = list(weights) if weights is not None else list(g.vertex_weight)
    pick = min if policy == "min" else max
    dart_face, lo = g.dart_face, g.dart_table.lo
    chosen: list[int] = []
    face_weight = [0] * len(g.faces)
    for v in range(g.n):
        f = pick(dart_face[lo[v]:lo[v + 1]])
        chosen.append(f)
        face_weight[f] += w[v]
    return FaceWeighting(chosen_face=chosen, face_weight=face_weight, total=sum(w))


@dataclass(frozen=True)
class ProperVerdict:
    proper: bool
    degenerate: bool
    max_weight: int
    total: int
    alpha: Fraction


def check_proper(weights: Sequence[int], alpha: Fraction) -> ProperVerdict:
    """True iff max weight <= alpha * total, in exact integer arithmetic.

    An all-zero assignment is vacuously proper but flagged degenerate so
    callers can refuse to build separators on it.
    """
    total = sum(weights)
    mx = max(weights, default=0)
    if total == 0:
        return ProperVerdict(True, True, mx, 0, alpha)
    ok = mx * alpha.denominator <= alpha.numerator * total
    return ProperVerdict(ok, False, mx, total, alpha)
