import dataclasses
import json
from importlib import resources

import pytest

from hypertrace import report
from hypertrace.cli import main

FIXTURE = resources.files("hypertrace") / "fixtures" / "p4.graph"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fixture_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert doc["results"]["domination"]["LD"]["exact"]["value"] == 2


def test_analyze_fixture_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE), "--text")
    assert code == 0
    assert "gamma LD: exact=2" in out


def test_vc_subcommand(capsys):
    code, out, _ = run_cli(capsys, "vc", str(FIXTURE))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["vc"]["dimension"]["value"] == 1
    assert "domination" not in doc["results"]


def test_dominate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dominate", str(FIXTURE))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["domination"]["OLD"]["exact"]["value"] == 4


def test_tree_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "tree-check", str(FIXTURE))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]["tree"]["certificates"]) == 5


def tree20(capsys, tmp_path):
    """random_tree(20, seed=3), written by ``gen``: 20 vertices, above the
    trace table's gate, where the subset budget still refuses searches."""
    path = tmp_path / "tree20.graph"
    assert run_cli(capsys, "gen", "tree", "--n", "20", "--seed", "3", "--out", str(path))[0] == 0
    return str(path)


def test_budget_exit_code(capsys, tmp_path):
    # P4 is inside the gate, where nothing is refused: budget 1 is exact.
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE), "--budget-subsets", "1")
    assert code == 0
    assert json.loads(out)["skipped"] == []
    code, out, _ = run_cli(capsys, "analyze", tree20(capsys, tmp_path), "--budget-subsets", "1")
    assert code == 3
    skipped = [s["stage"] for s in json.loads(out)["skipped"]]
    assert skipped == ["trace-k2", "trace-k10", "dt-closed", "gamma-LD", "gamma-ID"]


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing file
    assert exc.value.code == 1


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.graph")
    assert code == 1


def test_malformed_file_exits_1_with_format_error(capsys, tmp_path):
    f = tmp_path / "bad.graph"
    f.write_text("p graph 3 2\n0 1\n")
    code, out, err = run_cli(capsys, "analyze", str(f))
    assert code == 1
    assert out == ""
    assert "hypertrace: format error:" in err


def test_gen_roundtrip(capsys, tmp_path):
    out = tmp_path / "t.graph"
    code, _, _ = run_cli(capsys, "gen", "tree", "--n", "8", "--seed", "5", "--out", str(out))
    assert code == 0
    code, text, _ = run_cli(capsys, "gen", "tree", "--n", "8", "--seed", "5")
    assert out.read_text() == text
    code, out2, _ = run_cli(capsys, "analyze", str(out))
    assert code == 0


def test_out_file_matches_stdout(capsys, tmp_path):
    """``--out`` writes the text stdout gets, final newline included."""
    report = tmp_path / "r.json"
    assert run_cli(capsys, "analyze", str(FIXTURE), "--out", str(report))[0] == 0
    assert report.read_text().endswith("}\n")
    json.loads(report.read_text())
    summary = tmp_path / "r.txt"
    assert run_cli(capsys, "analyze", str(FIXTURE), "--text", "--out", str(summary))[0] == 0
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE), "--text")
    assert code == 0 and summary.read_text() == out


def test_gen_hypergraph(capsys):
    code, out, _ = run_cli(capsys, "gen", "hypergraph", "--n", "5", "--m", "4",
                           "--max-edge-size", "3", "--seed", "2")
    assert code == 0
    assert out.startswith("p hgraph 5 4")


def test_gen_impossible_params(capsys):
    code, _, err = run_cli(capsys, "gen", "hypergraph", "--n", "3", "--m", "8")
    assert code == 1
    assert "distinct nonempty edges" in err


def test_analyze_hypergraph_file(capsys, tmp_path):
    f = tmp_path / "h.hgraph"
    f.write_text("p hgraph 3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "analyze", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["dt"]["value"]["value"] == 2


def test_text_summary_undefined_hypergraph_dt(capsys, tmp_path):
    f = tmp_path / "dup.hgraph"
    f.write_text("p hgraph 2 2\n0\n0\n")
    code, out, _ = run_cli(capsys, "analyze", str(f), "--allow-multi", "--text")
    assert code == 0
    assert "dt: duplicate edges\n" in out


def test_text_summary_infeasible_kind_and_failed_check(capsys, tmp_path, monkeypatch):
    # A triangle with a pendant: vertices 0 and 1 are closed twins, so ID is
    # infeasible.  A VC result above its own cap fails one check.
    f = tmp_path / "twins.graph"
    f.write_text("p graph 4 4\n0 1\n1 2\n0 2\n2 3\n")
    real_vc_exact = report.vc_exact
    monkeypatch.setattr(
        report, "vc_exact", lambda H, **kw: dataclasses.replace(real_vc_exact(H, **kw), dimension=99)
    )
    code, out, _ = run_cli(capsys, "analyze", str(f), "--text")
    assert code == 2
    assert "gamma ID: infeasible (closed twins cannot be told apart)\n" in out
    assert "  FAILED: vc-within-degeneracy-cap\n" in out


def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "500,2000", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("algorithm,n,total_edge_weight,seconds")
    assert len(lines) == 5


def test_bench_deterministic_instance_hashes(capsys):
    _, out1, _ = run_cli(capsys, "bench", "--sizes", "500", "--seed", "7")
    _, out2, _ = run_cli(capsys, "bench", "--sizes", "500", "--seed", "7")
    hashes1 = [line.split(",")[4] for line in out1.strip().splitlines()[1:]]
    hashes2 = [line.split(",")[4] for line in out2.strip().splitlines()[1:]]
    assert hashes1 == hashes2


def test_text_summary_marks_budget_skips(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "analyze", tree20(capsys, tmp_path), "--budget-subsets", "1", "--text")
    assert code == 3
    # LD and ID are feasible on this tree; only their exact searches ran out
    # of budget.  OLD is infeasible (open twins), which no budget changes.
    assert "gamma LD: skipped best-lower-bound=8" in out
    assert "gamma ID: skipped best-lower-bound=10" in out
    assert "gamma OLD: infeasible (open twins cannot be told apart)" in out
    assert "skipped (budget): gamma-LD" in out
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE), "--budget-subsets", "1", "--text")
    assert code == 0
    assert "gamma LD: exact=2" in out and "gamma OLD: exact=4" in out and "skipped" not in out


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--budget-subsets", "-5", "argument --budget-subsets: must be non-negative"),
        # The reduced degeneracy is exact at every size, so the flag is gone.
        ("--exact-limit", "5", "unrecognized arguments: --exact-limit 5"),
    ],
    ids=["--budget-subsets--5", "--exact-limit-5"],
)
def test_negative_limits_are_usage_errors(capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(FIXTURE), flag, value])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
