import json
import random
import sys
from collections import Counter
from math import comb

import pytest

from hypertrace import (
    Budgets,
    Graph,
    build_hypergraph,
    neighborhood_hypergraph,
    restriction,
    run_report,
    validate_report,
)
from hypertrace import degeneracy, trace
from hypertrace.generate import random_gnp, random_hypergraph, random_tree
from hypertrace.transversal import dt_exact, dt_lower_bounds


def test_hypergraph_report(tri):
    report = run_report(tri)
    doc = report.to_dict()
    validate_report(doc)
    assert report.exit_code == 0
    res = doc["results"]
    assert res["degeneracy"]["classic"] == {"value": 2, "exactness": "exact"}
    assert res["vc"]["dimension"]["value"] == 1
    assert res["dt"]["value"]["value"] == 2
    assert all(c["passed"] for c in doc["checks"])


def test_graph_report_p4(p4):
    report = run_report(p4)
    doc = report.to_dict()
    validate_report(doc)
    assert report.exit_code == 0
    dom = doc["results"]["domination"]
    assert dom["LD"]["exact"]["value"] == 2
    assert dom["ID"]["exact"]["value"] == 3
    assert dom["OLD"]["exact"]["value"] == 4
    assert doc["results"]["vc"]["dimension"]["value"] == 1
    assert doc["results"]["dt"]["closed"]["value"]["value"] == 3
    assert doc["results"]["tree"]["bounds"]["LD"]["value"] == 2


def test_report_deterministic_apart_from_timings(p4):
    a = run_report(p4).to_json(include_timings=False)
    b = run_report(p4).to_json(include_timings=False)
    assert a == b
    with_timings = json.loads(run_report(p4).to_json())
    assert "timings" in with_timings


def test_budget_skips_marked(p4):
    # random_tree(20, seed=3) is above the trace table's gate, where the
    # budget refuses searches; P4 is inside it, where nothing is refused.
    assert run_report(p4, budgets=Budgets(subset_budget=1)).skipped == []
    report = run_report(random_tree(20, seed=3), budgets=Budgets(subset_budget=1))
    assert report.exit_code == 3
    assert report.skipped
    doc = report.to_dict()
    validate_report(doc)
    stages = {s["stage"] for s in doc["skipped"]}
    assert any(s.startswith("gamma-") or s.startswith("dt") or s == "vc" for s in stages)
    # Every skip carries the refused search's budget; only T_k knows what it needed.
    for s in doc["skipped"]:
        assert s["budget"] == 1
        assert (s["needed"] is not None) == s["stage"].startswith("trace-k")
    # closed-form bounds survive the skip
    assert doc["results"]["domination"]["LD"]["lower_bounds"]


def test_refused_trace_entry_is_a_skip():
    # C(24, 12) = 2,704,156 subsets exceed the default budget.
    report = run_report(build_hypergraph(24, [[0], [1], [2]]))
    assert report.exit_code == 3
    assert [(s["stage"], s["needed"], s["budget"]) for s in report.skipped] == [
        ("trace-k12", 2_704_156, 2_000_000)
    ]
    entry = next(e for e in report.results["trace"] if e["k"] == 12)
    assert entry["exact"] is None and not entry["caveats"]


def test_a_trace_value_the_bounds_hold_is_reported_at_any_budget():
    # Both sides of G(16, 0.3) are inside the trace table's gate, so every
    # trace entry is exact at budgets 50 and 0, whichever call fills the
    # table first, and equals the default report's.
    G = random_gnp(16, 0.3, seed=1)
    full = run_report(G)
    for budget in (50, 0):
        low = run_report(G, budgets=Budgets(budget))
        assert low.skipped == []
        for low_k, full_k in zip(low.results["trace_closed"], full.results["trace_closed"], strict=True):
            for key in ("exact", "exact_with_empty", "witness"):
                assert low_k[key] == full_k[key] is not None, (budget, low_k["k"], key)


def _inside_the_gate_corpus():
    """Seeded instances whose every side is inside the trace table's gate:
    G(n, p) graphs and trees on 3-18 vertices, and hypergraphs with
    duplicate and empty edges."""
    rng = random.Random(32)
    for _ in range(12):
        yield random_gnp(rng.randint(3, 18), rng.choice((0.2, 0.3, 0.5)), seed=rng.randrange(10**6))
    for _ in range(12):
        yield random_tree(rng.randint(3, 18), seed=rng.randrange(10**6))
    for _ in range(12):
        n = rng.randint(3, 14)
        edges = [frozenset(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(1, 3 * n))]
        edges += rng.sample(edges, min(len(edges), 2)) + [frozenset()] * rng.randint(0, 2)
        yield build_hypergraph(n, edges, allow_multi=True)


def test_nothing_inside_the_gate_is_refused_at_budget_0():
    # Inside the gate the trace table, its closed forms and the subset
    # lattice answer every stage, so budget 0 gives the default report's
    # results and checks, with no skip.
    seen = set()
    for instance in _inside_the_gate_corpus():
        if isinstance(instance, Graph):
            sides = [neighborhood_hypergraph(instance, closed) for closed in (True, False)]
            seen.add("tree" if instance.is_tree else "graph")
        else:
            sides = [instance]
            seen |= {"duplicate" if instance.has_duplicate_edges else "", "empty" if not all(instance.edges) else ""}
        assert all(trace._table_fits(side) for side in sides)
        zero = run_report(instance, budgets=Budgets(0)).to_dict()
        full = run_report(instance).to_dict()
        assert zero["skipped"] == [] == full["skipped"], instance
        assert (zero["results"], zero["checks"]) == (full["results"], full["checks"]), instance
    assert {"tree", "graph", "duplicate", "empty"} <= seen


def test_vc_is_read_off_the_trace_memo_at_any_budget():
    # At budget 3 the trace-k2 entry fills the closed side's trace table
    # before the VC stage, which reads every size from the memo and
    # tests no set.  Nothing inside the gate is refused.
    report = run_report(random_gnp(16, 0.3, seed=1), budgets=Budgets(3))
    vc = report.results["vc"]
    assert (vc["dimension"], vc["witness"], vc["nodes_enumerated"]) == (
        {"value": 3, "exactness": "exact"}, [0, 1, 4], 0)
    assert report.skipped == []


@pytest.mark.parametrize(
    "instance",
    [
        Graph.from_edges(4, [(0, 1)]),  # two isolated vertices
        Graph.from_edges(4, [(0, 1), (0, 2)]),  # one isolated vertex, open twins 1 and 2
        build_hypergraph(3, [[], [], [0]], allow_multi=True),  # two empty edges
    ],
)
def test_an_empty_edge_is_named_before_duplicate_edges(instance):
    # An empty edge is the fault whenever a side has one, even where it
    # also has duplicate edges (two empty edges are duplicates too), so DT
    # and OLD name one fault on a graph's open side.
    res = run_report(instance).results
    if isinstance(instance, Graph):
        assert res["dt"]["open"] == {"undefined": "empty edge (isolated vertex)"}
        assert res["domination"]["OLD"]["infeasible_reason"] == "isolated vertex has an empty open neighborhood"
    else:
        assert res["dt"] == {"undefined": "empty edge"}
        with pytest.raises(ValueError, match="empty edge"):
            dt_exact(instance)
        with pytest.raises(ValueError, match="empty edge"):
            dt_lower_bounds(instance)


def test_report_past_the_exact_count_limit():
    # C(15000, 7500) has about 4,500 digits, more than Python turns into a
    # string.  Past 2^53 a skip gives only the needed count's log2.
    report = run_report(build_hypergraph(15_000, [[v, v + 1] for v in range(14_999)]))
    assert report.exit_code == 3
    doc = json.loads(report.to_json(include_timings=False))
    validate_report(doc)
    skip = next(s for s in doc["skipped"] if s["stage"] == "trace-k7500")
    log2 = comb(15_000, 7_500).bit_length() - 1
    assert skip == {
        "stage": "trace-k7500",
        "reason": "budget",
        "detail": f"C(15000,7500) >= 2^{log2} subsets exceed the budget",
        "needed": None,
        "needed_log2": log2,
        "budget": 2_000_000,
    }


def test_trace_entries_share_one_shape(tri, p4):
    graph_entries = run_report(p4).results["trace_closed"]
    hypergraph_entries = run_report(tri).results["trace"]
    shapes = {frozenset(entry) for entry in graph_entries + hypergraph_entries}
    assert len(shapes) == 1


def test_empty_graph_report():
    report = run_report(Graph.from_edges(0, []))
    doc = report.to_dict()
    validate_report(doc)
    assert report.exit_code == 0
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])
    for entry in doc["results"]["domination"].values():
        assert entry["exact"]["value"] == 0
        assert entry["lower_bounds"] and all(b["ceiled"] <= 0 for b in entry["lower_bounds"])


def test_stage_names(p4):
    # The golden digests omit timings, so they cannot see a renamed stage.
    assert sorted(run_report(p4).timings) == [
        "degeneracy-closed", "degeneracy-open", "domination-bounds",
        "dt-closed", "dt-closed-bounds", "dt-open", "dt-open-bounds",
        "gamma-ID", "gamma-LD", "gamma-OLD", "trace-k1", "trace-k1-bounds", "trace-k2",
        "trace-k2-bounds", "trace-k4", "trace-k4-bounds", "vc",
    ]
    h14 = random_hypergraph(14, 42, max_edge_size=6, seed=3)
    assert sorted(run_report(h14).timings) == [
        "degeneracy", "dt", "dt-bounds", "trace-k1", "trace-k1-bounds", "trace-k14",
        "trace-k14-bounds", "trace-k2", "trace-k2-bounds", "trace-k7", "trace-k7-bounds", "vc",
    ]


def test_subset_of_analyses(tri):
    report = run_report(tri, analyses=("degeneracy", "vc"))
    doc = report.to_dict()
    assert "dt" not in doc["results"]
    assert "vc" in doc["results"]
    with pytest.raises(ValueError):
        run_report(tri, analyses=("nope",))


def test_multi_edge_hypergraph_report():
    H = build_hypergraph(2, [{0}, {0}], allow_multi=True)
    report = run_report(H)
    doc = report.to_dict()
    validate_report(doc)
    assert doc["results"]["dt"] == {"undefined": "duplicate edges"}
    for entry in doc["results"]["trace"]:
        assert entry["lower_bound"] is None
        assert entry["caveats"] == ["lower bound unsupported on multi-edge input"]


def test_report_on_hypergraphs_the_text_format_refuses():
    # The instance hash covers an empty edge and vertex ids other than [0, n),
    # which the text format cannot carry.
    empty = build_hypergraph(3, [set(), {0, 1}, {1, 2}])
    sparse = restriction(build_hypergraph(4, [{0, 1}, {1, 2}, {2, 3}]), {1, 2, 3})
    shifted = build_hypergraph(3, [{0}, {0, 1}, {1, 2}])
    # Shattered with the empty edge as one of their 2^n traces.
    shattered = [build_hypergraph(2, [set(), {0}, {1}, {0, 1}]), build_hypergraph(1, [set(), {0}])]
    hashes = set()
    for H in (empty, sparse, shifted, *shattered):
        report = run_report(H)
        doc = report.to_dict()
        validate_report(doc)
        assert report.exit_code == 0
        hashes.add(doc["instance"]["hash"])
    assert len(hashes) == 5
    assert run_report(empty).to_dict()["results"]["dt"] == {"undefined": "empty edge"}


def test_one_peel_per_side(monkeypatch):
    # Every bound reads the degeneracy memo of its own hypergraph, so a
    # report peels each side once with each peel.
    calls = Counter()
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "hypertrace" and m]
    for name in ("peel_degeneracy", "peel_pseudo_degeneracy"):
        original = getattr(degeneracy, name)

        def counted(H, name=name, original=original):
            calls[name] += 1
            return original(H)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    hypergraph = random_hypergraph(10, 14, seed=3)
    for instance, sides in ((random_gnp(16, 0.3, seed=1), 2), (random_tree(14, seed=2), 2), (hypergraph, 1)):
        calls.clear()
        run_report(instance)
        assert calls == {"peel_degeneracy": sides, "peel_pseudo_degeneracy": sides}


def test_tree_report_has_certificates():
    G = random_tree(12, seed=3)
    report = run_report(G)
    doc = report.to_dict()
    validate_report(doc)
    certs = doc["results"]["tree"]["certificates"]
    assert len(certs) == 5
    assert all(item["passed"] for item in certs)


@pytest.mark.parametrize(
    "build,budget",
    [
        (lambda: random_tree(30, seed=1), 1000),
        (lambda: random_hypergraph(50, 66, max_edge_size=6, seed=37), 30000),
    ],
    ids=["tree30", "h50"],
)
def test_reduced_is_exact_above_eighteen_vertices(build, budget):
    report = run_report(build(), budgets=Budgets(subset_budget=budget))
    text = report.to_json(include_timings=False)
    assert "safe-weakened" not in text
    results = json.loads(text)["results"]
    deg = results["degeneracy"]
    for triple in (deg["closed"], deg["open"]) if "closed" in deg else (deg,):
        assert triple["reduced"] == {"value": triple["classic"]["value"], "exactness": "exact"}
    for item in results.get("tree", {}).get("certificates", ()):
        assert item["exactness"] == "exact" and item["low"] == item["high"]



def test_report_on_thousands_of_vertices():
    # A report always asks for T_n; on a 1,500-vertex path its search makes
    # 1,500 picks, more than Python's default recursion limit of 1,000 frames.
    n = 1500
    report = run_report(build_hypergraph(n, [{i, i + 1} for i in range(n - 1)]))
    doc = report.to_dict()
    validate_report(doc)
    assert all(c["passed"] for c in doc["checks"])
    top = doc["results"]["trace"][-1]
    assert top["k"] == n
    assert top["exact"] == {"value": n - 1, "exactness": "exact"}
    assert top["witness"] == list(range(n))

def test_failed_check_flips_exit_code(p4):
    report = run_report(p4)
    assert report.exit_code == 0
    report.checks.append({"name": "synthetic", "passed": False, "detail": ""})
    assert report.exit_code == 2


def test_bench_vc_suite_marks_skips():
    from hypertrace.bench import run_bench

    # n = 41 and n = 205: the cap sits between them, so the larger row is skipped.
    rows = run_bench(suite="vc", sizes=(400, 2000), seed=1, vc_cap=100)
    by_n = {r.n: r for r in rows if r.algorithm == "vc-exact"}
    assert (by_n[41].status, by_n[41].value) == ("ok", 3)
    assert by_n[205].status == "skipped"


def test_validate_rejects_missing_exactness():
    with pytest.raises(ValueError, match="exactness"):
        validate_report(
            {
                "schema": 2,
                "tool": {"name": "x", "version": "0"},
                "instance": {"kind": "graph", "n": 1, "m": 0, "hash": "h"},
                "results": {"vc": {"value": 3}},
                "checks": [],
                "skipped": [],
            }
        )


def test_validate_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        validate_report(
            {
                "schema": 1,
                "tool": {"name": "x", "version": "0"},
                "instance": {"kind": "graph", "n": 1, "m": 0, "hash": "h"},
                "results": {},
                "checks": [],
                "skipped": [],
            }
        )


def _valid_doc():
    return {
        "schema": 2,
        "tool": {"name": "x", "version": "0"},
        "instance": {"kind": "graph", "n": 1, "m": 0, "hash": "h"},
        "results": {},
        "checks": [],
        "skipped": [],
    }


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.pop("skipped"), "report is missing 'skipped'"),
        (lambda doc: doc["tool"].pop("version"), "tool block must carry name and version"),
        (lambda doc: doc["instance"].pop("hash"), "instance block is missing 'hash'"),
        (
            lambda doc: doc["results"].update(dt={"lower_bounds": [{"name": "b", "j": 1}]}),
            "bound entry without exactness flag",
        ),
        (lambda doc: doc["checks"].append({"name": "c"}), "checks must carry name and passed"),
    ],
    ids=["top-level-key", "tool-block", "instance-key", "bound-exactness", "check-fields"],
)
def test_validate_rejects(edit, message):
    doc = _valid_doc()
    validate_report(doc)
    edit(doc)
    with pytest.raises(ValueError, match=message):
        validate_report(doc)
