"""Line-based text format for embedded planar graphs.

    planar <n> <m>
    rot <v> <u1> <u2> ...     one line per vertex, clockwise neighbor order
    w <v> <weight>            only for weights != 1
    outer <tail> <head>       optional infinite-face hint dart

Only simple graphs are serialized (copy indices exist solely for internal
augmentation), so neighbor ids are enough.  The writer is canonical and
write(parse(write(g))) is byte-identical to write(g).
"""

from __future__ import annotations

from .embedding import Dart, EmbeddedPlanarGraph, build_embedding
from .errors import BadParams


# fields after the record name; None for any number (rot lists neighbors)
_FIELDS = {"planar": 2, "rot": None, "w": 2, "outer": 2}


def write_graph(g: EmbeddedPlanarGraph) -> str:
    if g.virtual_edges:
        raise BadParams("refusing to serialize a graph holding virtual edges")
    lines = [f"planar {g.n} {g.m}"]
    for v in range(g.n):
        heads = " ".join(str(d.head) for d in g.rotation[v])
        lines.append(f"rot {v} {heads}".rstrip())
    for v, w in enumerate(g.vertex_weight):
        if w != 1:
            lines.append(f"w {v} {w}")
    inf = g.infinite_face
    if inf is not None:  # None only for the edgeless graph
        lines.append(f"outer {inf.tail} {inf.head}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> EmbeddedPlanarGraph:
    n = None
    m_declared = None
    rotations: dict[int, list[int]] = {}
    weights: dict[int, int] = {}
    outer: Dart | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind not in _FIELDS:
                raise BadParams(f"line {lineno}: unknown record '{kind}'")
            if _FIELDS[kind] is not None and len(parts) != _FIELDS[kind] + 1:
                raise BadParams(f"line {lineno}: '{kind}' takes {_FIELDS[kind]} fields: '{line}'")
            if kind == "planar":
                if n is not None:
                    raise BadParams(f"line {lineno}: repeated 'planar' header")
                n, m_declared = int(parts[1]), int(parts[2])
                if n < 1:
                    raise BadParams(f"line {lineno}: n={n}, need n >= 1")
            elif kind in ("rot", "w"):
                v = int(parts[1])
                records = rotations if kind == "rot" else weights
                if v in records:
                    raise BadParams(f"line {lineno}: duplicate '{kind}' record for vertex {v}")
                records[v] = [int(x) for x in parts[2:]] if kind == "rot" else int(parts[2])
            else:
                if outer is not None:
                    raise BadParams(f"line {lineno}: repeated 'outer' record")
                outer = Dart(int(parts[1]), int(parts[2]), 0)
        except (IndexError, ValueError) as exc:
            raise BadParams(f"line {lineno}: malformed record '{line}'") from exc

    if n is None:
        raise BadParams("missing 'planar' header")
    for v in sorted(rotations.keys() | weights.keys()):
        if not 0 <= v < n:
            raise BadParams(f"record for vertex {v} outside 0..{n - 1}")
    rotation = []
    for v in range(n):
        if v not in rotations:
            raise BadParams(f"missing rotation for vertex {v}")
        rotation.append([Dart(v, u, 0) for u in rotations[v]])
    w = [weights.get(v, 1) for v in range(n)]
    g = build_embedding(n, rotation, w, infinite_face_hint=outer)
    if m_declared is not None and g.m != m_declared:
        raise BadParams(f"header declares m={m_declared}, rotations give m={g.m}")
    return g
