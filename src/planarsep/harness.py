"""Experiment specs, the verification pipeline, and report records.

A spec pins everything (generator, parameters, weight scheme, engines,
backend, seeds), so a report is a pure function of its spec: records are
newline-delimited JSON with sorted keys and no wall-clock content, and
re-running a spec reproduces the bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

from .congest import PA_BACKENDS, default_bit_budget
from .dist import dist_compute_separator
from .embedding import EmbeddedPlanarGraph
from .errors import BadParams, InsufficientData, NotProper
from .generators import (
    WEIGHT_SCHEMES,
    cut_chain,
    cycle_chords,
    cylinder,
    grid,
    joined_grids,
    pinned_critical_instance,
    random_triangulation,
    two_level_parts,
)
from .oracles import oracle_all_fundamental_cycles
from .separator import compute_separator, sep_records, serialize_separator
from .treecotree import bfs_tree, cotree, diameter_estimate, fundamental_cycle, fundamental_cut
from .verify import verify_separator
from .weights import transfer_weights


ENGINES = ("sequential", "distributed", "both")

# every generator's int parameters with their defaults (None: required);
# the CLI gives each name one int flag.  cylinder's bool `capped`
# (default True) is set in a spec only
GENERATOR_PARAMS: dict[str, dict[str, Optional[int]]] = {
    "grid": {"rows": None, "cols": None},
    "cylinder": {"height": None, "width": None},
    "random-triangulation": {"n": None},
    "cycle-chords": {"n": None, "chords": 0},
    "two-level-parts": {"size": None, "parts_per_side": 2},
    "joined-grids": {"rows": None, "cols": None},
    "cut-chain": {"blobs": None, "blob_size": None},
    "pinned-critical": {},
}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    generator: str
    params: dict
    weights: str = "unit"
    weight_seed: int = 0
    engine: str = "both"           # sequential | distributed | both
    pa_backend: str = "honest"
    bit_budget: Optional[int] = None
    max_rounds: int = 10**6
    seed: int = 0

    def __post_init__(self):
        # a wrongly typed field would parse into a different run (a str
        # seed seeds random.Random differently) or fail deep inside one
        for key in ("name", "generator", "weights"):
            if not isinstance(getattr(self, key), str):
                raise BadParams(f"{key} must be a string, got {getattr(self, key)!r}")
        if not isinstance(self.params, dict):
            raise BadParams(f"params must be an object, got {self.params!r}")
        for key in ("seed", "weight_seed"):
            if type(getattr(self, key)) is not int:
                raise BadParams(f"{key} must be an int, got {getattr(self, key)!r}")
        if type(self.max_rounds) is not int or self.max_rounds < 1:
            raise BadParams(f"max_rounds must be a positive int, got {self.max_rounds!r}")
        if self.bit_budget is not None and (
            type(self.bit_budget) is not int or self.bit_budget < 1
        ):
            raise BadParams(
                f"bit_budget must be null or a positive int, got {self.bit_budget!r}"
            )
        if self.engine not in ENGINES:
            raise BadParams(f"unknown engine {self.engine!r}, expected one of {ENGINES}")
        if self.pa_backend not in PA_BACKENDS:
            raise BadParams(
                f"unknown pa_backend {self.pa_backend!r}, expected one of {PA_BACKENDS}"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        """Parse one spec line; BadParams unless it is a JSON spec object."""
        try:
            return ExperimentSpec(**json.loads(text))
        except (json.JSONDecodeError, TypeError) as exc:
            raise BadParams(f"bad experiment spec {text!r}: {exc}") from exc


def generate(kind: str, params: dict, seed: int = 0):
    """Instance dispatcher; returns (graph, partition-or-None).  BadParams
    for an unknown kind, or for a parameter the kind needs that params
    lacks (with no default in GENERATOR_PARAMS) or that is not of its type
    (int sizes, bool flags)."""
    defaults = GENERATOR_PARAMS.get(kind, {})

    def need(key: str, default=None, typ=int):
        value = params.get(key, defaults.get(key, default))
        if value is None:
            raise BadParams(f"generator {kind!r} needs parameter {key!r}")
        if type(value) is not typ:
            wanted = "an int" if typ is int else "a bool"
            raise BadParams(f"generator {kind!r} parameter {key!r} must be {wanted}, got {value!r}")
        return value

    if kind == "grid":
        return grid(need("rows"), need("cols")), None
    if kind == "cylinder":
        return cylinder(need("height"), need("width"), need("capped", True, bool)), None
    if kind == "random-triangulation":
        return random_triangulation(need("n"), seed), None
    if kind == "cycle-chords":
        return cycle_chords(need("n"), need("chords"), seed), None
    if kind == "two-level-parts":
        g, part_of = two_level_parts(need("size"), need("parts_per_side"))
        return g, part_of
    if kind == "joined-grids":
        g, part_of = joined_grids(need("rows"), need("cols"))
        return g, part_of
    if kind == "cut-chain":
        return cut_chain(need("blobs"), need("blob_size"), seed), None
    if kind == "pinned-critical":
        g, _, _, _ = pinned_critical_instance()
        return g, None
    raise BadParams(f"unknown generator kind {kind!r}")


def _instance_weights(spec: ExperimentSpec, g: EmbeddedPlanarGraph) -> list[int]:
    try:
        scheme = WEIGHT_SCHEMES[spec.weights]
    except KeyError:
        raise BadParams(f"unknown weight scheme {spec.weights!r}")
    return scheme(g.n, spec.weight_seed)


def run_experiment(spec: ExperimentSpec, deep_checks: bool = True) -> dict:
    """One instance end to end; returns a JSON-able record."""
    g, _partition = generate(spec.generator, spec.params, spec.seed)
    w = _instance_weights(spec, g)
    tree = bfs_tree(g, 0)
    diameter = diameter_estimate(g)
    record: dict = {
        "instance": spec.name,
        "generator": spec.generator,
        "params": spec.params,
        "weights": spec.weights,
        "seed": spec.seed,
        "n": g.n,
        "m": g.m,
        "f": g.f,
        "diameter": diameter,
        "tree_depth": tree.height(),
        "bit_budget": (
            default_bit_budget(g.n) if spec.bit_budget is None else spec.bit_budget
        ),
        "ok": True,
        "failures": [],
    }

    def fail(reason: str):
        record["ok"] = False
        record["failures"].append(reason)

    seq = dist_out = None
    try:
        if spec.engine in ("sequential", "both"):
            seq = compute_separator(g, tree, w)
        if spec.engine in ("distributed", "both"):
            dist_out, trace = dist_compute_separator(
                g, tree, w, backend=spec.pa_backend, bit_budget=spec.bit_budget,
                max_rounds=spec.max_rounds,
            )
    except NotProper:
        fail("not-proper")
        record["error"] = "NotProper"
        return record

    if dist_out is not None:
        record["honest_rounds"] = trace.rounds_executed
        record["charged_rounds"] = trace.charged_rounds
        record["max_bits"] = trace.max_bits_per_edge_per_round
        if trace.max_bits_per_edge_per_round > record["bit_budget"]:
            fail("bit-budget")

    result = seq if seq is not None else dist_out.result
    record["case"] = result.case
    record["path_len"] = len(result.path)
    record["balance"] = f"{result.balance_ratio.numerator}/{result.balance_ratio.denominator}"

    report = verify_separator(g, w, result.path)
    record["verify_ratio"] = f"{report.max_ratio.numerator}/{report.max_ratio.denominator}"
    if not report.passed:
        fail("balance")
    if len(result.path) > 2 * tree.height() + 1:
        fail("size-bound")
    if seq is not None and dist_out is not None:
        if serialize_separator(seq) != serialize_separator(dist_out.result):
            fail("engine-equivalence")
        if sep_records(g, tree, seq) != dist_out.records():
            fail("engine-records")

    if deep_checks and g.n <= 200:
        pair = cotree(g, tree)
        for e in sorted(pair.cotree_edges):
            _, cyc = fundamental_cycle(pair, e)
            if cyc != fundamental_cut(pair, e):
                fail(f"duality:{e}")
                break
        weighting = transfer_weights(g, weights=w)
        rows = oracle_all_fundamental_cycles(g, tree, w, pair=pair)
        for row in rows:
            wf_in = sum(weighting.face_weight[g.face_number(f)] for f in row.interior_faces)
            cyc_w = sum(w[v] for v in row.cycle_vertices)
            if not (row.interior_weight <= wf_in <= row.interior_weight + cyc_w):
                fail(f"sandwich:{row.edge}")
                break
        record["deep_checks"] = True

    return record


def run_suite(specs: list[ExperimentSpec], deep_checks: bool = True) -> tuple[list[dict], dict]:
    """Run every spec; returns (records, summary with coverage counters)."""
    records = [run_experiment(s, deep_checks=deep_checks) for s in specs]
    coverage = {"balanced": 0, "critical-virtual": 0, "critical-leaf": 0, "not-proper": 0}
    failures = 0
    for r in records:
        if r.get("case"):
            coverage[r["case"]] = coverage.get(r["case"], 0) + 1
        if r.get("error") == "NotProper":
            coverage["not-proper"] += 1
        if not r["ok"]:
            failures += 1
    summary = {
        "summary": True,
        "instances": len(records),
        "failures": failures,
        "coverage": coverage,
    }
    return records, summary


def render_report(records: list[dict], summary: dict) -> str:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


# -- scaling -------------------------------------------------------------------


def scaling_report(records: list[dict]) -> dict:
    """Fit honest_rounds = c * (height(T) + 1) across one family.

    Needs at least four sizes; flags failure when the fitted constant
    drifts by more than 2x (charged rounds, a fixed count of units, cannot).
    """
    rows = [r for r in records if "honest_rounds" in r]
    if len({r["n"] for r in rows}) < 4:
        raise InsufficientData("need at least four sizes of one family")
    fits = []
    for r in sorted(rows, key=lambda r: r["n"]):
        fits.append(
            {
                "n": r["n"],
                "tree_depth": r["tree_depth"],
                "charged_rounds": r["charged_rounds"],
                "honest_rounds": r["honest_rounds"],
                "c": r["honest_rounds"] / (r["tree_depth"] + 1),
            }
        )
    cs = [f["c"] for f in fits]
    ratio = max(cs) / min(cs)
    return {
        "sizes": fits,
        "c_min": min(cs),
        "c_max": max(cs),
        "drift": ratio,
        "stable": ratio < 2.0,
    }


# -- standard suites -------------------------------------------------------------


def standard_suite(max_n: int = 5000) -> list[ExperimentSpec]:
    """The acceptance suite: >= 200 seeded instances across the families."""
    specs: list[ExperimentSpec] = []

    def add(name, generator, params, weights="unit", wseed=0, seed=0):
        specs.append(
            ExperimentSpec(
                name=name, generator=generator, params=params, weights=weights,
                weight_seed=wseed, seed=seed,
            )
        )

    for s in (4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32, 48, 64):
        if s * s > max_n:
            continue
        add(f"grid-{s}", "grid", {"rows": s, "cols": s})
        add(f"grid-{s}-w", "grid", {"rows": s, "cols": s}, weights="random-proper", wseed=s)
    for rows, cols in ((4, 8), (6, 12), (8, 20), (12, 6), (16, 10)):
        if rows * cols <= max_n:
            add(f"grid-{rows}x{cols}", "grid", {"rows": rows, "cols": cols})
    for n in (30, 40, 60, 80, 120, 160, 250, 500, 1000):
        if n > max_n:
            continue
        for seed in ((1, 2, 3, 4, 5, 6) if n <= 160 else (1, 2, 3, 4)):
            add(f"tri-{n}-s{seed}", "random-triangulation", {"n": n}, seed=seed)
        add(f"tri-{n}-w", "random-triangulation", {"n": n}, seed=5,
            weights="random-proper", wseed=n)
    for n in (2000, 5000):
        if n > max_n:
            continue
        add(f"tri-{n}-s1", "random-triangulation", {"n": n}, seed=1)
        add(f"tri-{n}-w", "random-triangulation", {"n": n}, seed=2,
            weights="random-proper", wseed=n)
    for n in (12, 16, 24, 32, 48, 96, 200):
        for chords in (0, max(1, n // 6)):
            for seed in (1, 2, 3, 4, 5):
                add(f"chords-{n}-c{chords}-s{seed}", "cycle-chords",
                    {"n": n, "chords": chords}, seed=seed)
    for h, wdt in ((3, 8), (4, 12), (4, 24), (5, 16), (3, 20), (6, 10)):
        add(f"cyl-{h}x{wdt}", "cylinder", {"height": h, "width": wdt})
    for blobs, size in ((2, 8), (2, 16), (3, 12), (4, 10), (5, 8)):
        for seed in (1, 2, 3, 4, 5, 6):
            add(f"cut-{blobs}x{size}-s{seed}", "cut-chain",
                {"blobs": blobs, "blob_size": size}, seed=seed)
    for rows, cols in ((3, 4), (4, 4), (4, 6)):
        add(f"joined-{rows}x{cols}", "joined-grids", {"rows": rows, "cols": cols})
    add("pinned-critical", "pinned-critical", {})
    return specs
