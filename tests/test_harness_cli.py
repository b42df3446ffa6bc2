import json

import pytest

from planarsep import cli
from planarsep.cli import build_parser, main
from planarsep.errors import BadParams, InsufficientData
from planarsep.graphio import parse_graph, write_graph
from planarsep.harness import (
    GENERATOR_PARAMS,
    ExperimentSpec,
    _instance_weights,
    generate,
    render_report,
    run_experiment,
    run_suite,
    scaling_report,
    standard_suite,
)


def test_spec_json_roundtrip():
    spec = ExperimentSpec(
        name="x", generator="grid", params={"rows": 4, "cols": 4}, seed=3
    )
    assert ExperimentSpec.from_json(spec.to_json()) == spec


def test_malformed_spec_is_bad_params(tmp_path, capsys):
    good = json.loads(
        ExperimentSpec(name="x", generator="grid", params={"rows": 4, "cols": 4}).to_json()
    )
    unknown = json.dumps({**good, "colour": "red"})
    missing = json.dumps({k: v for k, v in good.items() if k != "generator"})
    for text in (unknown, missing, "{not json", "[1, 2]"):
        with pytest.raises(BadParams):
            ExperimentSpec.from_json(text)
    spec_file = tmp_path / "specs.ndjson"
    spec_file.write_text(unknown + "\n")
    assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "r.ndjson")]) == 2
    assert "bad experiment spec" in capsys.readouterr().err


def test_spec_line_settings_survive_unset_flags(tmp_path):
    spec = ExperimentSpec(
        name="g4", generator="grid", params={"rows": 4, "cols": 4},
        engine="distributed", pa_backend="charged", bit_budget=64,
    )
    spec_file = tmp_path / "specs.ndjson"
    spec_file.write_text(spec.to_json() + "\n")
    out = tmp_path / "r.ndjson"
    assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["bit_budget"] == 64
    assert rec == run_experiment(spec)
    honest = run_experiment(ExperimentSpec(**{**spec.__dict__, "pa_backend": "honest"}))
    assert rec["honest_rounds"] < honest["honest_rounds"]  # charged PA runs no rounds
    # a flag given on the command line still overrides the spec
    assert main(["run", "--spec", str(spec_file), "--bit-budget", "80", "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["bit_budget"] == 80


def test_spec_missing_generator_param_is_bad_params(tmp_path, capsys):
    cyl = {"height": 3, "width": 5}
    for kind, params, message in [
        ("grid", {"rows": 4}, "needs parameter 'cols'"),
        ("grid", {"rows": "4", "cols": 4}, "parameter 'rows' must be an int"),
        ("cylinder", {**cyl, "capped": "no"}, "parameter 'capped' must be a bool"),
        ("cylinder", {**cyl, "capped": 1}, "parameter 'capped' must be a bool"),
        ("cylinder", {**cyl, "capped": 0}, "parameter 'capped' must be a bool"),
        ("cylinder", {**cyl, "capped": None}, "needs parameter 'capped'"),
    ]:
        with pytest.raises(BadParams, match=message):
            generate(kind, params)
        spec_file = tmp_path / "specs.ndjson"
        spec_file.write_text(json.dumps({"name": "x", "generator": kind, "params": params}) + "\n")
        assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "r.ndjson")]) == 2
        assert message in capsys.readouterr().err


def test_wrongly_typed_spec_fields_are_bad_params(tmp_path, capsys):
    """A field of the wrong type is refused before anything runs: no str
    seed that seeds a different instance, no bool round limit, no
    traceback from a str budget or a list of params."""
    good = {"name": "x", "generator": "grid", "params": {"rows": 4, "cols": 4}}
    for field, value in [
        ("name", 3), ("generator", None), ("weights", 1), ("params", [1, 2]),
        ("seed", "1"), ("seed", 1.0), ("seed", True), ("weight_seed", 1.5),
        ("max_rounds", "50"), ("max_rounds", True), ("max_rounds", 0), ("max_rounds", 2.0),
        ("bit_budget", "40"), ("bit_budget", 0), ("bit_budget", -8), ("bit_budget", False),
    ]:
        text = json.dumps({**good, field: value})
        with pytest.raises(BadParams, match=field):
            ExperimentSpec.from_json(text)
        spec_file = tmp_path / "specs.ndjson"
        spec_file.write_text(text + "\n")
        assert main(["run", "--spec", str(spec_file), "--out", str(tmp_path / "r.ndjson")]) == 2
        assert field in capsys.readouterr().err
    spec = ExperimentSpec(**good, seed=1, weight_seed=2, max_rounds=10**6, bit_budget=64)
    assert run_experiment(spec)["bit_budget"] == 64
    assert run_experiment(ExperimentSpec(**good))["bit_budget"] == 40


@pytest.mark.parametrize("field", ["engine", "pa_backend"])
def test_unknown_engine_or_backend_is_bad_params(field):
    with pytest.raises(BadParams, match=field):
        run_experiment(
            ExperimentSpec(
                name="x", generator="grid", params={"rows": 4, "cols": 4}, **{field: "bogus"}
            )
        )


@pytest.mark.parametrize(
    "argv, needs",
    [(["run", "--kind", "grid"], "--rows --cols"), (["run"], "--kind")],
)
def test_cli_run_without_generator_params_exits_2(argv, needs, capsys):
    assert main(argv) == 2
    assert needs in capsys.readouterr().err


def test_generate_dispatch():
    g, parts = generate("grid", {"rows": 3, "cols": 5})
    assert g.n == 15 and parts is None
    g, parts = generate("two-level-parts", {"size": 8, "parts_per_side": 2})
    assert parts is not None


def test_run_experiment_record_fields():
    spec = ExperimentSpec(name="g4", generator="grid", params={"rows": 4, "cols": 4})
    rec = run_experiment(spec)
    assert rec["ok"] and not rec["failures"]
    assert rec["case"] == "critical-virtual"
    assert rec["n"] == 16 and rec["deep_checks"]
    assert "honest_rounds" in rec and "charged_rounds" in rec


def test_adversarial_weights_surface_not_proper():
    for engine in ("sequential", "distributed", "both"):
        spec = ExperimentSpec(
            name="bad", generator="grid", params={"rows": 4, "cols": 4},
            weights="adversarial-heavy-vertex", engine=engine,
        )
        rec = run_experiment(spec)
        assert rec["error"] == "NotProper" and not rec["ok"]
        assert rec["failures"] == ["not-proper"]
        _, summary = run_suite([spec])
        assert summary["coverage"]["not-proper"] == 1


def test_report_bytes_reproducible():
    specs = [
        ExperimentSpec(name="g5", generator="grid", params={"rows": 5, "cols": 5}),
        ExperimentSpec(name="c12", generator="cycle-chords", params={"n": 12, "chords": 0}),
    ]
    a = render_report(*run_suite(specs))
    b = render_report(*run_suite(specs))
    assert a == b
    lines = a.strip().splitlines()
    assert json.loads(lines[-1])["summary"] is True


def test_suite_covers_every_case():
    specs = [
        ExperimentSpec(name="tri", generator="random-triangulation", params={"n": 60}, seed=2),
        ExperimentSpec(name="g4", generator="grid", params={"rows": 4, "cols": 4}),
        ExperimentSpec(name="c12", generator="cycle-chords", params={"n": 12, "chords": 0}),
    ]
    _, summary = run_suite(specs)
    cov = summary["coverage"]
    assert cov["balanced"] >= 1 and cov["critical-virtual"] >= 1 and cov["critical-leaf"] >= 1


def test_standard_suite_size_and_families():
    suite = standard_suite()
    assert len(suite) >= 200
    kinds = {s.generator for s in suite}
    assert {"grid", "random-triangulation", "cycle-chords", "cut-chain"} <= kinds


def test_scaling_report_fit():
    specs = [
        ExperimentSpec(
            name=f"grid-{s}", generator="grid", params={"rows": s, "cols": s},
            engine="distributed", pa_backend="charged",
        )
        for s in (8, 12, 16, 24)
    ]
    records, _ = run_suite(specs, deep_checks=False)
    fit = scaling_report(records)
    assert fit["stable"] and len(fit["sizes"]) == 4


def test_scaling_insufficient_data():
    spec = ExperimentSpec(
        name="g8", generator="grid", params={"rows": 8, "cols": 8},
        engine="distributed",
    )
    records, _ = run_suite([spec], deep_checks=False)
    with pytest.raises(InsufficientData):
        scaling_report(records)


# -- CLI ---------------------------------------------------------------------


def test_cli_gen_roundtrip(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "grid", "--rows", "4", "--cols", "4", "--out", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 16
    assert write_graph(g) == out.read_text()


def test_cli_gen_parts(tmp_path):
    out = tmp_path / "g.txt"
    parts = tmp_path / "p.txt"
    rc = main([
        "gen", "two-level-parts", "--size", "8", "--parts-per-side", "2",
        "--out", str(out), "--parts-out", str(parts),
    ])
    assert rc == 0
    assert parts.read_text().startswith("part 0 0")


def test_cli_gen_and_run_seed_the_weights_alike(tmp_path, monkeypatch):
    """--seed seeds the weights as well as the generator, in gen and in
    run --kind alike."""
    from planarsep.generators import WEIGHT_SCHEMES

    params = ["--rows", "6", "--cols", "6", "--weights", "random-proper", "--seed", "3"]
    out = tmp_path / "g.txt"
    assert main(["gen", "grid", *params, "--out", str(out)]) == 0
    written = parse_graph(out.read_text()).vertex_weight
    assert written == WEIGHT_SCHEMES["random-proper"](36, 3)
    assert written != WEIGHT_SCHEMES["random-proper"](36, 0)
    specs = []
    monkeypatch.setattr(cli, "run_suite", lambda ss: specs.extend(ss) or run_suite(ss))
    rc = main(["run", "--kind", "grid", *params, "--out", str(tmp_path / "r.ndjson")])
    assert rc == 0
    (spec,) = specs
    g, _ = generate(spec.generator, spec.params, spec.seed)
    assert _instance_weights(spec, g) == written


def test_cli_generator_flags_come_from_the_harness_table(tmp_path):
    """The CLI's int flags are GENERATOR_PARAMS' names, and a parameter
    with a default there may be left out on the command line."""
    names = {k for params in GENERATOR_PARAMS.values() for k in params}
    for command in ("gen", "run"):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        assert names <= {a.dest for a in sub._actions if a.type is int}
    out = tmp_path / "g.txt"
    assert main(["gen", "two-level-parts", "--size", "8", "--out", str(out)]) == 0
    assert parse_graph(out.read_text()).n == generate("two-level-parts", {"size": 8})[0].n
    rc = main(["run", "--kind", "cycle-chords", "--n", "12", "--out", str(tmp_path / "r.ndjson")])
    assert rc == 0


def test_cli_run_single(tmp_path):
    out = tmp_path / "report.ndjson"
    rc = main([
        "run", "--kind", "grid", "--rows", "4", "--cols", "4",
        "--engine", "both", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert json.loads(lines[0])["ok"] is True


def test_cli_run_exit_code_on_not_proper(tmp_path):
    rc = main([
        "run", "--kind", "grid", "--rows", "4", "--cols", "4",
        "--weights", "adversarial-heavy-vertex", "--engine", "sequential",
        "--out", str(tmp_path / "r.ndjson"),
    ])
    assert rc == 1


def test_cli_verify(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    main(["gen", "grid", "--rows", "4", "--cols", "4", "--out", str(gfile)])
    rc = main(["verify", "--graph", str(gfile)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_separator_file(tmp_path, capsys):
    from planarsep import bfs_tree, compute_separator, serialize_separator
    from planarsep.generators import grid as mkgrid

    g = mkgrid(4, 4)
    gfile = tmp_path / "g.txt"
    gfile.write_text(write_graph(g))
    res = compute_separator(g, bfs_tree(g, 0))
    sfile = tmp_path / "sep.txt"
    sfile.write_text(serialize_separator(res))
    assert main(["verify", "--graph", str(gfile), "--separator", str(sfile)]) == 0


@pytest.mark.parametrize("record", [
    "path 2 a b", "path 3 0 1", "path 2 0 99", "path -1", "path",
    "path 3 4 4 4", "path 2 0 8",
])
def test_cli_verify_rejects_malformed_path_record(record, tmp_path, capsys):
    """A path record must hold exactly its announced count of vertex ids,
    forming a simple path of the graph: no repeated id, and an edge between
    consecutive ids.  Each of these would otherwise be judged as if it were
    a separator path."""
    from planarsep.generators import grid as mkgrid

    gfile = tmp_path / "g.txt"
    gfile.write_text(write_graph(mkgrid(3, 3)))
    sfile = tmp_path / "sep.txt"
    sfile.write_text(record + "\n")
    assert main(["verify", "--graph", str(gfile), "--separator", str(sfile)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_debug_artifacts_use_the_run_weights(tmp_path):
    """--trace-out and --dot rerun the instance with its weight scheme, and
    write nothing when the weights are not proper."""
    from planarsep import bfs_tree, compute_separator, cotree
    from planarsep.generators import WEIGHT_SCHEMES
    from planarsep.generators import grid as mkgrid
    from planarsep.treecotree import dot_export

    run = ["run", "--kind", "grid", "--rows", "9", "--cols", "9", "--engine", "distributed"]
    out, trace, dot = tmp_path / "r.ndjson", tmp_path / "t.txt", tmp_path / "g.dot"
    artifacts = ["--out", str(out), "--trace-out", str(trace), "--dot", str(dot)]
    assert main(run + ["--weights", "random-proper"] + artifacts) == 0
    record = json.loads(out.read_text().splitlines()[0])
    widest = max(
        int(line.split()[-1]) for line in trace.read_text().splitlines()
        if line.startswith("phase ")
    )
    assert widest == record["max_bits"]
    g = mkgrid(9, 9)
    tree = bfs_tree(g, 0)
    path = compute_separator(g, tree, WEIGHT_SCHEMES["random-proper"](g.n, 0)).path
    assert dot.read_text() == dot_export(cotree(g, tree), path)
    trace.unlink()
    dot.unlink()
    assert main(run + ["--weights", "adversarial-heavy-vertex"] + artifacts) == 1
    assert not trace.exists() and not dot.exists()


def test_cli_scale(tmp_path):
    out = tmp_path / "scale.ndjson"
    rc = main([
        "scale", "--family", "grid", "--sizes", "8,12,16,24",
        "--pa-backend", "charged", "--out", str(out),
    ])
    assert rc == 0
    last = out.read_text().strip().splitlines()[-1]
    assert json.loads(last)["stable"] is True
