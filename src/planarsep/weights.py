"""Vertex-to-face weight transfer and properness checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .embedding import EmbeddedPlanarGraph, FaceId


@dataclass
class FaceWeighting:
    chosen_face: list[FaceId]          # per vertex
    face_weight: dict[FaceId, int]
    total: int


def transfer_weights(
    g: EmbeddedPlanarGraph,
    policy: str = "min",
    weights: Optional[Sequence[int]] = None,
) -> FaceWeighting:
    """Each vertex moves its whole weight to one incident face.

    The default policy picks the minimum face id, which is what the
    message-passing engine does as well; conservation w_F(G) = w_V(G)
    holds for any policy.
    """
    if policy not in ("min", "max"):
        raise ValueError(f"unknown policy {policy!r}")
    w = list(weights) if weights is not None else list(g.vertex_weight)
    pick = min if policy == "min" else max
    chosen: list[FaceId] = []
    face_weight: dict[FaceId, int] = {f.id: 0 for f in g.faces}
    for v in range(g.n):
        fid = pick(g.face_of[d] for d in g.rotation[v])
        chosen.append(fid)
        face_weight[fid] += w[v]
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
