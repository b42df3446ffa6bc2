import json

import pytest

from planarsep.cli import main
from planarsep.errors import InsufficientData
from planarsep.graphio import parse_graph, write_graph
from planarsep.harness import (
    ExperimentSpec,
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


def test_cli_scale(tmp_path):
    out = tmp_path / "scale.ndjson"
    rc = main([
        "scale", "--family", "grid", "--sizes", "8,12,16,24",
        "--pa-backend", "charged", "--out", str(out),
    ])
    assert rc == 0
    last = out.read_text().strip().splitlines()[-1]
    assert json.loads(last)["stable"] is True
