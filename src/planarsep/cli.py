"""Command-line interface: gen, run, verify, scale.

Exit code 0 iff every requested verification passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .congest import PA_BACKENDS
from .embedding import EmbeddedPlanarGraph
from .errors import BadParams, NotProper, PlanarSepError
from .generators import WEIGHT_SCHEMES
from .graphio import parse_graph, write_graph
from .harness import (
    ENGINES,
    GENERATOR_PARAMS,
    ExperimentSpec,
    _instance_weights,
    generate,
    render_report,
    run_suite,
    scaling_report,
    standard_suite,
)
from .separator import compute_separator, require_proper
from .treecotree import bfs_tree
from .verify import verify_separator

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    """One int flag per generator parameter name in GENERATOR_PARAMS."""
    for name in dict.fromkeys(k for params in GENERATOR_PARAMS.values() for k in params):
        p.add_argument("--" + name.replace("_", "-"), type=int, default=None)


def _kind_spec(args) -> ExperimentSpec:
    """The one instance that gen or run --kind names; --seed seeds both the
    generator and the weights.  BadParams when a required parameter of the
    kind has no flag."""
    if args.kind is None:
        raise BadParams("give --spec, --suite or --kind")
    table = GENERATOR_PARAMS[args.kind]
    params = {k: getattr(args, k) for k in table if getattr(args, k) is not None}
    missing = ["--" + k.replace("_", "-") for k in table if table[k] is None and k not in params]
    if missing:
        raise BadParams(f"--kind {args.kind} needs {' '.join(missing)}")
    return ExperimentSpec(
        name=f"{args.kind}-cli", generator=args.kind, params=params,
        weights=args.weights, weight_seed=args.seed, seed=args.seed,
    )


def cmd_gen(args) -> int:
    spec = _kind_spec(args)
    g, part_of = generate(spec.generator, spec.params, spec.seed)
    if args.parts_out and part_of is None:
        raise BadParams(f"{args.kind} makes no partition for --parts-out")
    if spec.weights != "unit":
        g.vertex_weight = list(_instance_weights(spec, g))
    text = write_graph(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.parts_out:
        Path(args.parts_out).write_text("".join(f"part {v} {p}\n" for v, p in enumerate(part_of)))
    return 0


def cmd_run(args) -> int:
    if args.spec:
        specs = [
            ExperimentSpec.from_json(line)
            for line in Path(args.spec).read_text().splitlines()
            if line.strip()
        ]
    elif args.suite:
        specs = standard_suite(max_n=args.max_n)
    else:
        specs = [_kind_spec(args)]
    # a flag overrides the specs only when it is given
    overrides = {
        key: getattr(args, key)
        for key in ("engine", "pa_backend", "bit_budget", "max_rounds")
        if getattr(args, key) is not None
    }
    specs = [replace(s, **overrides) for s in specs]
    records, summary = run_suite(specs)
    text = render_report(records, summary)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if (args.dot or args.trace_out) and len(specs) == 1 and not args.suite:
        _write_debug_artifacts(specs[0], args)
    return 0 if summary["failures"] == 0 else 1


def _write_debug_artifacts(spec, args) -> None:
    """The DOT rendering and the round trace of the run's one instance,
    with its weights; neither when the weights are not proper, a failure
    the report already records."""
    from .dist import dist_compute_separator
    from .treecotree import cotree, dot_export

    g, _ = generate(spec.generator, spec.params, spec.seed)
    w = _instance_weights(spec, g)
    try:
        require_proper(w)
    except NotProper:
        return
    tree = bfs_tree(g, 0)
    if args.dot:
        res = compute_separator(g, tree, w)
        Path(args.dot).write_text(dot_export(cotree(g, tree), res.path))
    if args.trace_out:
        _, trace = dist_compute_separator(
            g, tree, w, backend=spec.pa_backend, bit_budget=spec.bit_budget,
            max_rounds=spec.max_rounds,
        )
        Path(args.trace_out).write_text(trace.export_text())


def cmd_verify(args) -> int:
    g = parse_graph(Path(args.graph).read_text())
    if args.separator:
        path = _parse_separator_path(Path(args.separator).read_text(), g)
    else:
        tree = bfs_tree(g, args.root)
        path = compute_separator(g, tree).path
    report = verify_separator(g, None, path)
    sys.stdout.write(
        f"total {report.total_weight} components "
        f"{' '.join(map(str, report.component_weights))} "
        f"ratio {report.max_ratio.numerator}/{report.max_ratio.denominator} "
        f"{'PASS' if report.passed else 'FAIL'}\n"
    )
    return 0 if report.passed else 1


def _parse_separator_path(text: str, g: EmbeddedPlanarGraph) -> list[int]:
    """The ids of the `path k x_1 .. x_k` record; BadParams unless it holds
    exactly k distinct vertex ids of g, each joined to the next by an edge."""
    n = g.n
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "path":
            try:
                k, *ids = map(int, parts[1:])
            except ValueError:
                raise BadParams(f"malformed path record {line!r}") from None
            if len(ids) != k:
                raise BadParams(f"path record announces {k} ids and holds {len(ids)}")
            outside = [x for x in ids if not 0 <= x < n]
            if outside:
                raise BadParams(f"path ids {outside} are not vertices of the graph (n={n})")
            if len(set(ids)) != len(ids):
                raise BadParams(f"path record repeats a vertex: {ids}")
            for a, b in zip(ids, ids[1:]):
                if all(d.head != b for d in g.rotation[a]):
                    raise BadParams(f"path ids {a} and {b} share no edge")
            return ids
    raise PlanarSepError("no 'path' record in separator file")


def cmd_scale(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    specs = []
    for s in sizes:
        if args.family == "grid":
            params = {"rows": s, "cols": s}
            kind = "grid"
        else:
            params = {"height": args.height, "width": s}
            kind = "cylinder"
        specs.append(
            ExperimentSpec(
                name=f"{kind}-{s}",
                generator=kind,
                params=params,
                engine="distributed",
                pa_backend=args.pa_backend,
                seed=args.seed,
            )
        )
    records, summary = run_suite(specs, deep_checks=False)
    fit = scaling_report(records)
    out = render_report(records, summary) + json.dumps(fit, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return 0 if (summary["failures"] == 0 and fit["stable"]) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="planarsep")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("kind", choices=sorted(GENERATOR_PARAMS))
    _add_generator_flags(g)
    g.add_argument("--weights", choices=sorted(WEIGHT_SCHEMES), default="unit")
    g.add_argument("--parts-out", type=str, default=None)
    _add_common(g)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run experiments and verification")
    r.add_argument("--kind", choices=sorted(GENERATOR_PARAMS), default=None)
    _add_generator_flags(r)
    r.add_argument("--spec", type=str, default=None, help="NDJSON spec file")
    r.add_argument("--suite", action="store_true", help="run the standard suite")
    r.add_argument("--max-n", type=int, default=5000)
    # unset flags leave each spec's own value (the spec defaults: both,
    # honest, the default budget, 10**6 rounds)
    r.add_argument("--engine", choices=ENGINES, default=None)
    r.add_argument("--pa-backend", choices=PA_BACKENDS, default=None)
    r.add_argument("--bit-budget", type=int, default=None)
    r.add_argument("--max-rounds", type=int, default=None)
    r.add_argument("--dot", type=str, default=None,
                   help="write a DOT rendering of G, T, T* and P (single instance)")
    r.add_argument("--trace-out", type=str, default=None,
                   help="write the per-phase round trace (single instance)")
    r.add_argument("--weights", choices=sorted(WEIGHT_SCHEMES), default="unit")
    _add_common(r)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="verify a separator against a graph file")
    v.add_argument("--graph", required=True)
    v.add_argument("--separator", default=None, help="canonical separator record file")
    v.add_argument("--root", type=int, default=0)
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("scale", help="round-complexity scaling report")
    s.add_argument("--family", choices=["grid", "cylinder"], default="grid")
    s.add_argument("--sizes", default="8,16,32,64")
    s.add_argument("--height", type=int, default=4)
    s.add_argument("--pa-backend", choices=PA_BACKENDS, default="charged")
    _add_common(s)
    s.set_defaults(func=cmd_scale)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PlanarSepError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
