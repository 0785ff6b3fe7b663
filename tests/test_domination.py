import random

import pytest

from hypertrace import (
    Graph,
    domination_lower_bounds,
    dt_exact,
    find_twins,
    gamma_exact,
    neighborhood_hypergraph,
    random_gnp,
    random_tree,
    tree_degeneracy_certificates,
    tree_lower_bounds,
    tree_stats,
)
from hypertrace import domination, graphs
from hypertrace import report as report_module
from hypertrace.domination import KINDS, _feasibility
from hypertrace.errors import NotATreeError
from oracles import brute_gamma, scan_feasibility, scan_twin_caveats, scan_twins


def twin_free(G: Graph) -> bool:
    return (
        not find_twins(G, closed=True)
        and not find_twins(G, closed=False)
        and all(G.adj[v] for v in range(G.n))
    )


def test_gamma_p4(p4):
    assert gamma_exact(p4, "LD").exact == 2
    assert gamma_exact(p4, "LD").witness == (0, 2)
    assert gamma_exact(p4, "ID").exact == 3
    assert gamma_exact(p4, "ID").witness == (0, 1, 2)
    assert gamma_exact(p4, "OLD").exact == 4


def test_gamma_star(star):
    assert gamma_exact(star, "LD").exact == 3
    report = gamma_exact(star, "OLD")
    assert not report.feasible
    assert report.infeasible_pair == (1, 2)
    assert report.exact is None


def test_gamma_rejects_unknown_kind(p4):
    with pytest.raises(ValueError):
        gamma_exact(p4, "XX")


def test_gamma_closed_twins_make_id_infeasible():
    K2 = Graph.from_edges(2, [(0, 1)])
    report = gamma_exact(K2, "ID")
    assert not report.feasible
    assert report.infeasible_pair == (0, 1)


def test_gamma_isolated_vertex_makes_old_infeasible():
    G = Graph.from_edges(3, [(0, 1)])
    report = gamma_exact(G, "OLD")
    assert not report.feasible
    assert "isolated" in report.infeasible_reason


def test_gamma_edgeless_ld_is_everything():
    G = Graph.from_edges(3, [])
    report = gamma_exact(G, "LD")
    assert report.exact == 3


def witness_satisfies(G: Graph, kind: str, S) -> bool:
    S = frozenset(S)
    closed = [G.adj[v] | {v} for v in range(G.n)]
    open_ = [G.adj[v] for v in range(G.n)]
    if kind == "LD":
        labels = [open_[x] & S for x in range(G.n) if x not in S]
        return all(labels) and len(set(labels)) == len(labels)
    masks = closed if kind == "ID" else open_
    labels = [masks[x] & S for x in range(G.n)]
    return all(labels) and len(set(labels)) == len(labels)


def test_gamma_matches_bruteforce():
    rng = random.Random(6)
    for _ in range(40):
        G = random_gnp(rng.randint(1, 7), rng.random(), seed=rng.randrange(10**6))
        for kind in ("LD", "ID", "OLD"):
            report = gamma_exact(G, kind)
            expected = brute_gamma(G, kind)
            if report.feasible:
                assert report.exact == expected
                assert witness_satisfies(G, kind, report.witness)
            else:
                assert expected is None


def test_identifying_code_is_distinguishing_transversal_bridge():
    rng = random.Random(44)
    checked = 0
    while checked < 30:
        G = random_gnp(rng.randint(2, 8), rng.random(), seed=rng.randrange(10**6))
        if not twin_free(G):
            continue
        checked += 1
        assert gamma_exact(G, "ID").exact == dt_exact(neighborhood_hypergraph(G, True)).value
        assert gamma_exact(G, "OLD").exact == dt_exact(neighborhood_hypergraph(G, False)).value


def test_gamma_ordering():
    rng = random.Random(2)
    for _ in range(40):
        G = random_gnp(rng.randint(1, 7), rng.random(), seed=rng.randrange(10**6))
        ld = gamma_exact(G, "LD")
        for kind in ("ID", "OLD"):
            other = gamma_exact(G, kind)
            if other.feasible and ld.feasible:
                assert other.exact >= ld.exact


def test_lower_bounds_below_exact():
    rng = random.Random(9)
    for _ in range(25):
        G = random_gnp(rng.randint(1, 7), rng.random(), seed=rng.randrange(10**6))
        bounds = domination_lower_bounds(G)
        for kind in ("LD", "ID", "OLD"):
            kb = bounds[kind]
            report = gamma_exact(G, kind)
            assert kb.feasible == report.feasible
            if report.feasible:
                assert all(b.ceiled <= report.exact for b in kb.entries), (
                    kind,
                    G.adj,
                    [(b.name, b.j, str(b.value)) for b in kb.entries],
                )


def test_lower_bounds_infeasible_caveats(star):
    bounds = domination_lower_bounds(star)
    assert not bounds["OLD"].feasible
    assert bounds["OLD"].infeasible_pair == (1, 2)
    assert bounds["LD"].feasible
    assert any("open twins" in c for c in bounds["LD"].caveats)


def twinned_graph(rng: random.Random) -> Graph:
    """A G(n, p) graph grown by a few isolated vertices and open and closed
    twins of random vertices, relabelled at random."""
    adj = [set(s) for s in random_gnp(rng.randint(1, 8), rng.choice((0.2, 0.4, 0.7)), seed=rng).adj]
    for _ in range(rng.randint(0, 3)):
        v, u = rng.randrange(len(adj)), len(adj)
        kind = rng.choice(("isolated", "open", "closed"))
        adj.append(set() if kind == "isolated" else adj[v] | ({v} if kind == "closed" else set()))
        for w in adj[u]:
            adj[w].add(u)
    label = rng.sample(range(len(adj)), len(adj))
    return Graph.from_edges(len(adj), [(label[u], label[w]) for u in range(len(adj)) for w in adj[u] if u < w])


def test_feasibility_and_caveats_match_the_graph_scan():
    # The sides' empty and duplicate edges must give the reasons, pairs and
    # caveats that scanning the graph for isolated vertices and twins gives.
    rng = random.Random(818)
    reasons = set()
    for _ in range(150):
        G = twinned_graph(rng)
        for closed in (True, False):
            assert find_twins(G, closed) == scan_twins(G, closed)
        bounds = domination_lower_bounds(G)
        caveats = scan_twin_caveats(G)
        for kind in KINDS:
            feasible, reason, pair = expected = scan_feasibility(G, kind)
            assert _feasibility(G, kind) == expected
            outcome = gamma_exact(G, kind)
            assert (outcome.feasible, outcome.infeasible_reason, outcome.infeasible_pair) == expected
            kb = bounds[kind]
            assert (kb.feasible, kb.infeasible_pair) == (feasible, pair)
            assert kb.caveats == (caveats if feasible else (reason, *caveats))
            reasons.add(reason)
    assert len(reasons) == 4, reasons


def test_a_full_graph_report_finds_twins_twice(monkeypatch):
    # The report's twin lists need one call per side; feasibility and the
    # caveats read the sides' empty and duplicate edges instead.
    calls = []

    def counting(G, closed=True):
        calls.append(closed)
        return scan_twins(G, closed)

    for module in (graphs, domination, report_module):
        monkeypatch.setattr(module, "find_twins", counting)
    assert report_module.run_report(random_gnp(16, 0.3, seed=1)).exit_code == 0
    assert sorted(calls) == [False, True]


def test_tree_bounds_p4(p4):
    tb = tree_lower_bounds(p4)
    assert tb.ld == 2
    assert tb.id == 3
    assert tb.old == 3
    assert tb.id_hypothesis_holds


def test_tree_bounds_star(star):
    tb = tree_lower_bounds(star)
    assert tb.ld == 3
    assert tb.id is None
    assert not tb.id_hypothesis_holds
    assert tb.old == 3


def test_tree_bounds_guards():
    with pytest.raises(NotATreeError):
        tree_lower_bounds(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError):
        tree_lower_bounds(Graph.from_edges(3, [(0, 1), (1, 2)]))


def test_tree_bounds_below_exact_on_random_trees():
    rng = random.Random(12)
    for _ in range(25):
        G = random_tree(rng.randint(4, 10), seed=rng.randrange(10**6))
        tb = tree_lower_bounds(G)
        assert tb.ld <= gamma_exact(G, "LD").exact
        id_report = gamma_exact(G, "ID")
        if tb.id is not None and id_report.feasible:
            assert tb.id <= id_report.exact
        old_report = gamma_exact(G, "OLD")
        if old_report.feasible:
            assert tb.old <= old_report.exact


def test_certificates_p4_and_star(p4, star):
    for G in (p4, star):
        certs = tree_degeneracy_certificates(G)
        assert certs.all_passed
        names = [item.name for item in certs.items]
        assert names == [
            "classic-closed",
            "classic-open",
            "reduced-open",
            "pseudo-closed",
            "pseudo-open",
        ]


def test_certificates_wide_star():
    G = Graph.from_edges(11, [(0, i) for i in range(1, 11)])
    assert tree_degeneracy_certificates(G).all_passed


def test_certificates_random_trees_exact_and_envelope():
    rng = random.Random(18)
    for _ in range(10):
        G = random_tree(rng.randint(2, 60), seed=rng.randrange(10**6))
        certs = tree_degeneracy_certificates(G)
        assert certs.all_passed
        values = {item.name: item.value for item in certs.items}
        # Exact at every n: the reduced value is the classic one.
        assert values["reduced-open"] == values["classic-open"]


def test_certificates_reject_non_tree():
    with pytest.raises(NotATreeError):
        tree_degeneracy_certificates(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_canonical_supports_are_supports():
    rng = random.Random(3)
    for _ in range(20):
        G = random_tree(rng.randint(2, 30), seed=rng.randrange(10**6))
        stats = tree_stats(G)
        assert set(stats.canonical_supports) <= set(stats.supports) | set(stats.leaves)
        if G.n >= 4:
            assert set(stats.canonical_supports) <= set(stats.supports)
