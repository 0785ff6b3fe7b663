import random
from itertools import combinations
from math import comb

import pytest

from hypertrace import (
    Budgets,
    Hypergraph,
    build_hypergraph,
    degeneracy_chain_bounds,
    max_degree_bound,
    neighborhood_hypergraph,
    random_gnp,
    reduced_degeneracy,
    restriction,
    run_report,
    sauer_shelah_bound,
    trace_count_lower_bound,
    trace_function_exact,
    vc_exact,
)
from hypertrace import trace
from hypertrace.bench import instance_for_weight
from hypertrace.errors import BudgetExceededError, MultiEdgeError
from hypertrace.generate import random_hypergraph, random_tree
from hypertrace.trace import reaches, walk
from conftest import distinct_edges_hypergraph, random_hypergraph_instances
from oracles import brute_trace_function, counter_reaches, recursive_walk


def random_simple(rng, max_n=8, max_m=14):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges, seen = [], set()
    for _ in range(m):
        e = frozenset(rng.sample(range(n), rng.randint(1, n)))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return build_hypergraph(n, edges)


# Both exact engines, each filling the memo it reads: the default path, which
# sends an instance within the table's gate to ``trace_table``, and the
# branch-and-bound search through its own entry point, whatever the gate says.
ENGINES = {"default": trace_function_exact, "search": trace._search_exact}


def test_exact_triangle(tri):
    assert trace_function_exact(tri, 2) == (3, (0, 1))
    assert trace_function_exact(tri, 1) == (1, (0,))
    assert trace_function_exact(tri, 0) == (0, ())


def test_exact_rejects_bad_k(tri):
    with pytest.raises(ValueError):
        trace_function_exact(tri, 4)
    with pytest.raises(ValueError):
        trace_function_exact(tri, -1)


def test_exact_budget():
    H = build_hypergraph(40, [])
    with pytest.raises(BudgetExceededError):
        trace_function_exact(H, 20, subset_budget=1000)


def test_exact_is_memoised_per_hypergraph():
    H = build_hypergraph(9, [{0, 1}, {1, 2, 3}, {4, 5}, {5, 6, 7, 8}, {0, 8}])
    first = trace_function_exact(H, 4)
    assert H.trace_memo[(4, False)] == first
    assert trace_function_exact(H, 4) == first
    assert trace_function_exact(H, 4, include_empty=True) == brute_trace_function(H, 4, True)


@pytest.mark.parametrize("fill", ["table", "search"])
def test_a_held_value_is_served_at_any_budget(fill):
    # C(12, 6) = 924.  Once T_6 is held, in both modes, a budget below that
    # still gets it, and so does a budget of 0: only a computation is
    # charged.  The table holds it after a T_2 call, the search after its own.
    H = build_hypergraph(12, [{0, 1}, {2, 3, 4}, {5, 11}])
    if fill == "table":
        trace_function_exact(H, 2)
    else:
        for include_empty in (False, True):
            trace._search_exact(H, 6, include_empty)
    for include_empty in (False, True):
        held = H.trace_memo[(6, include_empty)]
        assert held == brute_trace_function(H, 6, include_empty)
        for budget in (923, 0):
            assert trace_function_exact(H, 6, include_empty, subset_budget=budget) == held


def test_exact_witness_is_lexicographically_first():
    # Every pair of singleton edges attains the maximum; the first wins.
    H = build_hypergraph(3, [{0}, {1}, {2}])
    assert trace_function_exact(H, 2) == (2, (0, 1))


class CountingMasks(tuple):
    """A mask tuple that counts how often it is scanned."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_exact_value_and_witness_match_oracle():
    # Multi-edge hypergraphs with empty edges, and neighbourhood hypergraphs
    # whose many distinct edges make the ceiling and the pruning fire.
    rng = random.Random(2007)
    cases = []
    for _ in range(60):
        n = rng.randint(0, 9)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 14))]
        cases.append(build_hypergraph(n, edges, allow_multi=True))
    for _ in range(12):
        G = random_gnp(rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]), seed=rng.randrange(10**9))
        cases += [neighborhood_hypergraph(G, closed=True), neighborhood_hypergraph(G, closed=False)]
    for name, exact in ENGINES.items():
        for H in cases:
            H = Hypergraph(H.vertices, H.edges, H.allow_multi)
            for k in range(H.n + 1):
                for include_empty in (False, True):
                    got = exact(H, k, include_empty)
                    assert got == brute_trace_function(H, k, include_empty), (name, H, k, include_empty)


def test_exact_does_not_depend_on_call_order():
    # The with-empty value is derived from a memoised nonempty one, and the
    # degree cut needs T_{k-1} in the memo, so the same value and witness
    # must come out whatever was asked before: on a fresh hypergraph per
    # (k, include_empty), in ascending order, and in a shuffled order.
    rng = random.Random(4096)
    cases = []
    for _ in range(40):
        n = rng.randint(0, 9)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 14))]
        edges += rng.sample(edges, min(len(edges), 2)) + [frozenset()] * rng.randint(0, 1)
        cases.append(build_hypergraph(n, edges, allow_multi=True))
    for _ in range(10):
        G = random_gnp(rng.randint(1, 11), rng.choice([0.15, 0.3, 0.5]), seed=rng.randrange(10**9))
        cases += [neighborhood_hypergraph(G, closed=True), neighborhood_hypergraph(G, closed=False)]
    for H in cases:
        keys = [(k, include_empty) for k in range(H.n + 1) for include_empty in (False, True)]
        want = {key: brute_trace_function(H, *key) for key in keys}
        for name, exact in ENGINES.items():
            for key in keys:
                fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                assert exact(fresh, *key) == want[key], (name, H.edges, key, "fresh")
            ascending = Hypergraph(H.vertices, H.edges, H.allow_multi)
            for key in keys:
                assert exact(ascending, *key) == want[key], (name, H.edges, key, "ascending")
            shuffled = Hypergraph(H.vertices, H.edges, H.allow_multi)
            rng.shuffle(keys)
            for key in keys:
                assert exact(shuffled, *key) == want[key], (name, H.edges, key, keys)


def test_table_matches_the_search_and_the_oracle():
    # Instances inside the table's gate: n 0-10, m 0-24, empty and duplicate
    # edges, m = 0, and restrictions whose vertex ids are not a dense range.
    # Every k in both modes: the table, the search on a fresh copy and the
    # brute-force oracle give the same value and witness.
    rng = random.Random(2218)
    cases = [build_hypergraph(0, []), build_hypergraph(0, [set()]), build_hypergraph(6, [])]
    for _ in range(150):
        n = rng.randint(0, 10)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 24))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        H = build_hypergraph(n, edges, allow_multi=True)
        cases.append(H)
        if n > 1:
            cases.append(restriction(H, rng.sample(range(n), rng.randint(1, n - 1))))
    assert any(not H.is_dense for H in cases)
    assert any(H.has_duplicate_edges and frozenset() in H.edges for H in cases)
    for H in cases:
        assert trace._table_fits(H)
        table = trace.trace_table(H)
        assert set(table) == {(k, e) for k in range(H.n + 1) for e in (False, True)}
        for (k, include_empty), got in table.items():
            fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
            want = brute_trace_function(H, k, include_empty)
            assert got == trace._search_exact(fresh, k, include_empty) == want, (H.edges, k, include_empty)


def test_one_call_inside_the_gate_fills_the_whole_table(monkeypatch):
    calls = []
    original = trace.reaches
    monkeypatch.setattr(trace, "reaches", lambda *args: calls.append(args) or original(*args))
    H = random_hypergraph(14, 42, max_edge_size=6, seed=3)
    value, witness = trace_function_exact(H, 5)
    assert set(H.trace_memo) == {(k, e) for k in range(H.n + 1) for e in (False, True)}
    assert H.trace_memo[(5, False)] == (value, witness)
    assert not calls
    fresh = random_hypergraph(14, 42, max_edge_size=6, seed=3)
    for k in range(H.n + 1):
        for include_empty in (False, True):
            assert H.trace_memo[(k, include_empty)] == trace._search_exact(fresh, k, include_empty)
    assert calls


def test_instances_just_outside_the_gate_run_the_search(monkeypatch):
    # At n = 18 every edge count up to the cap is inside, and one T_3 call
    # fills the whole table.  One position too many, one distinct edge past
    # the cap, and at n = 9 one distinct edge too many for the pair bound
    # (C(181, 2) <= 32 * 2^9 < C(182, 2)) run the search.
    hypergraph = distinct_edges_hypergraph
    assert not trace._table_fits(hypergraph(12, trace.TABLE_MAX_EDGES + 1))
    assert trace._table_fits(hypergraph(9, 181))
    assert not trace._table_fits(hypergraph(9, 182))
    calls = []
    original = trace.reaches
    monkeypatch.setattr(trace, "reaches", lambda *args: calls.append(args) or original(*args))
    for m in (114, trace.TABLE_MAX_EDGES):
        H = hypergraph(18, m)
        assert trace._table_fits(H)
        calls.clear()
        got = trace_function_exact(H, 3)
        assert not calls and set(H.trace_memo) == {(k, e) for k in range(H.n + 1) for e in (False, True)}, m
        fresh = Hypergraph(H.vertices, H.edges)
        assert got == trace._search_exact(fresh, 3, False)
    for n, m in ((trace.TABLE_MAX_N + 1, 12), (18, trace.TABLE_MAX_EDGES + 1), (9, 182)):
        H = hypergraph(n, m)
        calls.clear()
        got = trace_function_exact(H, 3)
        assert calls and set(H.trace_memo) == {(3, False)}, (n, m)
        fresh = Hypergraph(H.vertices, H.edges)
        assert got == trace._search_exact(fresh, 3, False)


def test_a_report_builds_each_lattice_helper_once_per_n():
    # The per-position bitmaps and the size classes depend only on n.  A
    # full report on a 16-vertex graph reads them for the two sides' trace
    # tables and for LD's first separating set, and builds each once.
    helpers = (trace._missing_bitmaps, trace._size_classes)
    for helper in helpers:
        helper.cache_clear()
    run_report(random_gnp(16, 0.3, seed=1))
    for helper in helpers:
        info = helper.cache_info()
        assert info.hits >= 2 and (info.misses, info.currsize) == (1, 1), helper


def test_the_table_matches_the_search_at_the_gates_edge():
    # 18 vertices with 114 half-density and 256 small edges, inside the
    # gate but too large for the brute-force oracle, so the search on a
    # fresh copy is the reference.
    for H in (distinct_edges_hypergraph(18, 114, half_density=True), distinct_edges_hypergraph(18, 256)):
        assert trace._table_fits(H)
        table = trace.trace_table(H)
        for k in (2, 3, H.n - 2):
            for include_empty in (False, True):
                fresh = Hypergraph(H.vertices, H.edges)
                assert table[(k, include_empty)] == trace._search_exact(fresh, k, include_empty), (k, include_empty)


def test_a_value_not_held_is_refused_and_memoises_nothing():
    # Above the table's gate (19 vertices) a fresh hypergraph holds no T_6,
    # so a budget below C(19, 6) = 27,132 refuses it in both modes, before
    # the search starts.  Inside the gate the table answers at any budget.
    edges = [{0, 1}, {2, 3, 4}, {5, 11}]
    refused = build_hypergraph(19, edges)
    assert not trace._table_fits(refused)
    for include_empty in (False, True):
        with pytest.raises(BudgetExceededError):
            trace_function_exact(refused, 6, include_empty, subset_budget=27_131)
    assert not refused.trace_memo
    inside = build_hypergraph(12, edges)
    assert trace._table_fits(inside)
    for include_empty in (False, True):
        got = trace_function_exact(inside, 6, include_empty, subset_budget=0)
        assert got == brute_trace_function(inside, 6, include_empty)


def test_closed_forms_are_served_at_any_budget():
    # T_0, T_1 and T_n search nothing, so budget 0 gets them, in both modes,
    # above the table's gate too; a size between them still walks there, and
    # budget 0 refuses it.
    H = random_tree(20, seed=3)
    side = neighborhood_hypergraph(H, closed=True)
    assert not trace._table_fits(side)
    for k in (0, 1, side.n):
        for include_empty in (False, True):
            fresh = Hypergraph(side.vertices, side.edges)
            want = trace._closed_form(fresh, k, include_empty)
            assert trace_function_exact(fresh, k, include_empty, subset_budget=0) == want, (k, include_empty)
    for k in (2, side.n // 2):
        with pytest.raises(BudgetExceededError, match=f"C\\(20,{k}\\)"):
            trace_function_exact(side, k, subset_budget=0)
    assert set(side.trace_memo) == set()


def test_closed_forms_match_the_oracle():
    # T_0, T_1 and T_n read off the incidence: multi-edge instances, each
    # also with an empty edge and as a restriction off the dense id range,
    # asked fresh and after the nonempty value is memoised.
    cases = []
    for H in random_hypergraph_instances(50, seed=1983, max_n=8, max_m=12, allow_multi=True):
        with_empty = Hypergraph(H.vertices, H.edges + (frozenset(),), allow_multi=True)
        cases += [H, with_empty, restriction(with_empty, sorted(H.vertices)[1::2])]
    cases += [build_hypergraph(0, []), build_hypergraph(0, [set()]), build_hypergraph(3, [set()])]
    for H in cases:
        for k in sorted({0, 1, H.n} & set(range(H.n + 1))):
            for include_empty in (False, True):
                want = brute_trace_function(H, k, include_empty)
                fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                assert trace_function_exact(fresh, k, include_empty) == want, (H.edges, k)
                primed = Hypergraph(H.vertices, H.edges, H.allow_multi)
                trace_function_exact(primed, k)
                assert trace_function_exact(primed, k, include_empty) == want, (H.edges, k)
                for built in (fresh, primed):
                    assert "edge_masks" not in built.__dict__


def test_report_trace_sizes_build_no_masks_at_scale():
    # A report's k = 1 and k = n entries ask for T_0, T_1 and T_n, whose
    # n-bit masks would take about 2 GB at 1M edge weight; the budget
    # refuses k = 2 and k = n // 2.
    H = instance_for_weight(100_000)
    report = run_report(H, analyses=("trace",))
    entries = {entry["k"]: entry for entry in report.results["trace"]}
    for k in (1, H.n):
        assert entries[k]["exact"] is not None and entries[k]["exact_with_empty"] is not None
    assert [s["stage"] for s in report.skipped] == ["trace-k2", f"trace-k{H.n // 2}"]
    assert "edge_masks" not in H.__dict__
    assert "distinct_masks" not in H.__dict__
    assert trace_function_exact(H, H.n) == (len(H.incidence.edges), H.vertex_list)


@pytest.mark.parametrize(
    "build, k_empty, parent_calls, cut",
    [
        (lambda: random_hypergraph(14, 42, max_edge_size=6, seed=3), 7, 3_100, 0.25),
        (lambda: neighborhood_hypergraph(random_gnp(16, 0.3, seed=1), closed=True), 8, 531, 0.50),
        (lambda: neighborhood_hypergraph(random_tree(16, seed=3), closed=True), 8, 3_899, 0.45),
    ],
    ids=["hypergraph", "gnp-closed", "tree-closed"],
)
def test_trace_search_work_guard(monkeypatch, build, k_empty, parent_calls, cut):
    # A report's T_1..T_8 and one with-empty T_k, asked in that order, on
    # each engine.  The parent counts are those of the search without the
    # node close, the with-empty derivation and the degree cut.  The default
    # path sends these instances to the table, which asks ``reaches`` nothing.
    calls = []
    original = trace.reaches

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trace, "reaches", counted)
    for name, exact in ENGINES.items():
        calls.clear()
        H = build()
        for k in range(1, 9):
            exact(H, k, False)
        exact(H, k_empty, True)
        assert len(calls) <= parent_calls * (1 - cut), (name, len(calls))
        assert calls or name == "default"


def test_search_matches_the_oracle_where_the_full_count_is_sought(monkeypatch):
    # Above the gate (n = 19-22), edges of 1-4 vertices, duplicate and empty
    # edges among them: T_2 and T_3 often reach or seek 2^k - 1 (2^k with
    # the empty trace), where the shattering cut replaces ``reaches``.  Each
    # value is asked on a fresh hypergraph and again in a report's order,
    # where the degree cut and the with-empty reading come in.
    calls = []
    original = trace.shattering_reach
    monkeypatch.setattr(trace, "shattering_reach", lambda *args: calls.append(args) or original(*args))
    rng = random.Random(19)
    outcomes = set()
    for _ in range(12):
        n = rng.randint(19, 22)
        base = random_hypergraph(n, rng.randint(n, 3 * n), max_edge_size=4, seed=rng, allow_multi=True)
        edges = list(base.edges) + rng.sample(base.edges, 2) + [frozenset()] * rng.randint(0, 1)
        H = Hypergraph(base.vertices, tuple(edges), allow_multi=True)
        assert not trace._table_fits(H)
        ordered = Hypergraph(H.vertices, H.edges, allow_multi=True)
        for k in (1, 2, 3):
            for include_empty in (False, True):
                want = brute_trace_function(H, k, include_empty)
                fresh = Hypergraph(H.vertices, H.edges, allow_multi=True)
                assert trace._search_exact(fresh, k, include_empty) == want, (H.edges, k, include_empty)
                assert trace._search_exact(ordered, k, include_empty) == want, (H.edges, k, include_empty)
                if k > 1:
                    outcomes.add(want[0] == (1 << k) - (not include_empty))
    assert calls and outcomes == {False, True}


def test_a_search_for_the_full_count_asks_reaches_little(monkeypatch):
    # h50's nonempty T_3 after T_2 finds 6 after a few triples and then
    # seeks 7 = 2^3 - 1, which only a triple every nonempty subset traces
    # reaches.  Without the shattering cut, ``reaches`` rules out 7 in
    # 460 calls.
    calls = []
    original = trace.reaches
    monkeypatch.setattr(trace, "reaches", lambda *args: calls.append(args) or original(*args))
    H = random_hypergraph(50, 66, max_edge_size=6, seed=37)
    trace_function_exact(H, 2)
    calls.clear()
    assert trace_function_exact(H, 3) == (6, (0, 4, 12))
    assert len(calls) <= 10, len(calls)


def test_exact_stops_at_the_ceiling():
    # T_11 of the closed neighbourhoods of G(22, 0.3) reaches min(22, 2^11 - 1)
    # early; enumerating all C(22, 11) = 705,432 subsets is not needed.
    H = neighborhood_hypergraph(random_gnp(22, 0.3, seed=1), closed=True)
    masks = CountingMasks(H.distinct_masks)
    H.__dict__["distinct_masks"] = masks
    value, witness = trace_function_exact(H, 11)
    assert value == len(masks) == 22
    assert len(witness) == 11
    assert masks.scans <= 64


def test_reaches_is_sound():
    # Masks over 6 positions, reach inside the first 5, so some masks miss
    # reach; 0 and repeated masks are drawn too.  Every prefix smask of every
    # reach, every left and both modes: whenever some completion carries
    # target traces, or separates the masks as rows, the predicate says yes.
    rng = random.Random(2020)
    for _ in range(40):
        masks = [rng.choice([0, rng.randrange(64), rng.randrange(64)]) for _ in range(rng.randint(1, 8))]
        for reach in range(32):
            smask = reach
            while True:
                free = [1 << p for p in range(5) if (reach & ~smask) >> p & 1]
                for left in range(len(free) + 1):
                    completions = [smask | sum(c) for c in combinations(free, left)]
                    for include_empty in (False, True):
                        best = 0
                        for s in completions:
                            traces = {m & s for m in masks}
                            best = max(best, len(traces) - (not include_empty and 0 in traces))
                        for target in range(best + 1):
                            assert reaches(masks, smask, reach, left, include_empty, target), (
                                masks, smask, reach, left, include_empty, target
                            )
                    separated = any(
                        len({m & s for m in masks} - {0}) == len(masks) for s in completions
                    )
                    if separated:
                        assert reaches(masks, smask, reach, left, False, len(masks))
                if smask == 0:
                    break
                smask = (smask - 1) & reach


def test_reaches_drops_the_edges_that_miss_reach():
    # {2} misses reach = {0, 1}, so without the empty trace it counts for
    # none: the best completion, {0, 1}, carries the 2 nonempty traces {0}
    # and {0, 1}.  Kept as a value 0 on reach it would enter the group bound
    # 2 + 1 = 3 and leave target 3 open.
    masks = (0b001, 0b011, 0b100)
    assert not reaches(masks, 0b001, 0b011, 1, False, 3)
    assert reaches(masks, 0b001, 0b011, 1, False, 2)
    assert reaches(masks, 0b001, 0b011, 1, True, 3)


def test_reaches_matches_the_counter_reference():
    """The sorted-run group bound answers as the Counter one does, in both
    modes, including calls where 2^left exceeds the values on reach and
    calls whose group empty on smask holds exactly 2^left values."""
    rng = random.Random(16)
    seen = set()
    for _ in range(20_000):
        n = rng.randint(1, 8)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, 24))]
        reach = rng.randrange(1 << n)
        smask = reach & rng.randrange(1 << n)
        left = rng.randint(0, 4)
        include_empty = rng.random() < 0.5
        target = rng.randint(0, len(masks) + 1)
        got = reaches(masks, smask, reach, left, include_empty, target)
        assert got is counter_reaches(masks, smask, reach, left, include_empty, target), (
            masks, smask, reach, left, include_empty, target
        )
        values = {m & reach for m in masks}
        if not include_empty:
            values.discard(0)
        if 0 < target <= len(values):
            cap = 1 << left
            empty_group = sum(1 for v in values if not v & smask)
            case = "cap > total" if cap > len(values) else "empty group = cap" if empty_group == cap else "other"
            seen.add((include_empty, case))
    assert len(seen) == 6, seen


def test_walk_yields_the_k_sets_no_refused_prefix_leads_to():
    # With every prefix kept, walk is combinations(range(n), k) as masks.
    # With a seeded random keep it yields exactly the k-sets whose picks up
    # to p differ from every refused prefix ending at p, and whose picks
    # before p differ from those of every closed prefix ending at p or whose
    # next pick lies before p, in the same order.  keep is asked only while
    # more than one completion is left, and never again inside a closed
    # node: not about a later sibling of the closed prefix, nor below one.
    rng = random.Random(11)
    for n in range(8):
        for k in range(n + 1):
            every = [sum(1 << p for p in c) for c in combinations(range(n), k)]
            assert list(walk(n, k, lambda *_: True)) == every
            for _ in range(5):
                refused = []
                closed = []

                def keep(prefix, reach, p, left):
                    assert prefix.bit_length() == p + 1
                    assert reach == prefix | ((1 << n) - 1) >> (p + 1) << (p + 1)
                    assert left == k - prefix.bit_count() >= 1
                    assert comb(n - p - 1, left) > 1
                    for shut, q in closed:
                        assert prefix & ((1 << q) - 1) != shut ^ 1 << q, (prefix, shut)
                    draw = rng.random()
                    if draw < 0.3:
                        refused.append((prefix, p))
                        return False
                    if draw < 0.4:
                        closed.append((prefix, p))
                        return None
                    return True

                got = list(walk(n, k, keep))
                want = [
                    s for s in every
                    if not any(s & ((2 << p) - 1) == prefix for prefix, p in refused)
                    and not any(s & ((1 << p) - 1) == prefix ^ 1 << p for prefix, p in closed)
                ]
                assert got == want, (n, k, refused, closed)


def test_walk_matches_the_recursive_reference():
    """With seeded keeps that answer True, False, None or a random submask
    of reach, walk yields what the plain recursive walker does and asks
    keep the same questions in the same order, for every n <= 8 and k."""
    rng = random.Random(17)
    narrowed = []
    for n in range(9):
        for k in range(n + 1):
            for _ in range(50):
                seed = rng.randrange(10**9)
                calls = {}

                def make_keep(name):
                    draws = random.Random(seed)
                    calls[name] = []

                    def keep(prefix, reach, p, left):
                        calls[name].append((prefix, reach, p, left))
                        draw = draws.random()
                        if draw < 0.15:
                            return False
                        if draw < 0.25:
                            return None
                        if draw < 0.5:
                            return True
                        # Each position of reach stays with probability 3/4.
                        mask = reach & ~(draws.randrange(1 << n) & draws.randrange(1 << n))
                        kept_after = mask >> (p + 1)
                        if name == "walk" and kept_after != reach >> (p + 1) and kept_after.bit_count() > left:
                            # A strict narrowing that leaves more than one completion.
                            narrowed.append(mask)
                        return mask

                    return keep

                got = list(walk(n, k, make_keep("walk")))
                want = recursive_walk(n, k, make_keep("reference"))
                assert got == want, (n, k, seed)
                assert calls["walk"] == calls["reference"], (n, k, seed)
    assert len(narrowed) > 500, len(narrowed)


def test_large_k_runs_past_the_recursion_limit():
    # A path on 1,500 vertices: T_n and T_{n-1} search with as many picks as
    # vertices, more than Python's default recursion limit of 1,000 frames.
    n = 1500
    H = build_hypergraph(n, [{i, i + 1} for i in range(n - 1)])
    assert trace_function_exact(H, n) == (n - 1, tuple(range(n)))
    assert trace_function_exact(H, n - 1) == (n - 1, tuple(range(n - 1)))
    assert trace_function_exact(H, n - 1, include_empty=True) == (n - 1, tuple(range(n - 1)))

def test_sauer_shelah_values():
    assert sauer_shelah_bound(1, 2) == 3
    assert sauer_shelah_bound(2, 4) == 11
    assert sauer_shelah_bound(3, 3) == 8
    assert sauer_shelah_bound(0, 5) == 1
    assert sauer_shelah_bound(5, 2) == 4  # d past k saturates at 2^k


def test_sauer_shelah_rejects_negative():
    with pytest.raises(ValueError):
        sauer_shelah_bound(-1, 2)


def test_max_degree_bound_values(tri):
    assert max_degree_bound(tri, 2) == 4
    assert max_degree_bound(tri, 0) == 1
    P4closed = build_hypergraph(4, [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}])
    assert max_degree_bound(P4closed, 2) == 5


def test_max_degree_bound_ignores_multiplicity():
    H1 = build_hypergraph(2, [{0, 1}])
    H2 = build_hypergraph(2, [{0, 1}, {0, 1}], allow_multi=True)
    assert max_degree_bound(H1, 2) == max_degree_bound(H2, 2)


def test_chain_bounds_triangle(tri):
    chain = degeneracy_chain_bounds(tri, 2)
    by_j = {j: v for j, v, _ in chain.entries}
    assert by_j[0] == 4  # reduced * k
    assert chain.reduced_times_k == 4
    exact, _ = trace_function_exact(tri, 2)
    assert all(exact <= v for _, v, _ in chain.entries)
    # j = k keeps only the exact trace value
    assert by_j[2] == exact


def test_chain_bounds_k0(tri):
    chain = degeneracy_chain_bounds(tri, 0)
    assert chain.entries == ((0, 0, "exact-T"),)


def test_chain_uses_power_of_two_when_expensive():
    H = build_hypergraph(30, [frozenset(range(30))])
    chain = degeneracy_chain_bounds(H, 20, j_max=16)
    forms = {j: form for j, _, form in chain.entries}
    assert forms[16] == "power-of-two"
    assert forms[0] == "exact-T"


def test_bounds_admit_exact_t_j_up_to_the_work_limit():
    # The bounds' T_j is exact while C(n, j) times the distinct edge count
    # stays within CHAIN_EXACT_WORK_LIMIT = 10^7: n = 1,000 with 20 edges
    # is admitted for T_2, and one edge more is refused without a memo
    # entry.  T_1 is a closed form, served at either edge count.
    for m, form in ((20, "exact-T"), (21, "power-of-two")):
        H = build_hypergraph(1_000, [[v] for v in range(m)])
        assert (comb(1_000, 2) * m <= trace.CHAIN_EXACT_WORK_LIMIT) == (form == "exact-T")
        assert trace.trace_value(H, 2) == ((2 if form == "exact-T" else 3), form)
        assert ((2, False) in H.trace_memo) == (form == "exact-T")
        assert trace.trace_value(H, 1) == (1, "exact-T")


def test_lower_bound_values(tri):
    assert trace_count_lower_bound(tri, 2) == 3
    assert trace_count_lower_bound(tri, 5) == 3
    single = build_hypergraph(3, [{0, 1, 2}])
    assert trace_count_lower_bound(single, 2) == 1


def test_lower_bound_rejects_multi():
    H = build_hypergraph(2, [{0}, {0}], allow_multi=True)
    with pytest.raises(MultiEdgeError):
        trace_count_lower_bound(H, 1)


def test_lower_bound_rejects_k0(tri):
    with pytest.raises(ValueError):
        trace_count_lower_bound(tri, 0)


def test_randomized_bound_ladder():
    rng = random.Random(99)
    for _ in range(60):
        H = random_simple(rng, max_n=7, max_m=10)
        vc = vc_exact(H).dimension
        for k in range(H.n + 1):
            exact, _ = trace_function_exact(H, k)
            exact_all, _ = trace_function_exact(H, k, include_empty=True)
            assert exact == brute_trace_function(H, k)[0]
            assert exact <= max_degree_bound(H, k)
            assert exact <= sauer_shelah_bound(vc, k)
            assert exact_all <= sauer_shelah_bound(vc, k)
            chain = degeneracy_chain_bounds(H, k)
            assert all(exact <= v for _, v, _ in chain.entries)
            assert exact <= chain.reduced_times_k
            if k >= 1 and H.m:
                lower = trace_count_lower_bound(H, k)
                assert lower <= exact_all
                assert lower - 1 <= exact


def test_monotone_in_k():
    rng = random.Random(5)
    for _ in range(30):
        H = random_simple(rng, max_n=7, max_m=10)
        values = [trace_function_exact(H, k)[0] for k in range(H.n + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_approximation_factor_claim():
    # reduced * k stays within a reduced-degeneracy factor of the lower bound
    # whenever k + 1 does not exceed the edge count.
    rng = random.Random(17)
    for _ in range(40):
        H = random_simple(rng, max_n=7, max_m=10)
        if H.m == 0:
            continue
        triple = reduced_degeneracy(H)
        for k in range(1, H.n + 1):
            if k + 1 <= H.m:
                lower = trace_count_lower_bound(H, k)
                assert triple.reduced * k <= triple.reduced * lower


def _trace_entry(report, k):
    return next(entry for entry in report.results["trace"] if entry["k"] == k)


def test_profile_assembly(tri):
    report = run_report(tri)
    entry = _trace_entry(report, 2)
    assert entry["exact"]["value"] == 3
    assert entry["exact_with_empty"]["value"] == 3
    assert entry["lower_bound"]["value"] == 3
    assert entry["max_degree_bound"]["value"] == 4
    assert not entry["caveats"]
    assert not report.skipped


def test_profile_budget_skip(tri):
    # The triangle is inside the trace table's gate, where nothing is
    # refused; on 20 vertices (17 isolated) it is above it, where budget 1
    # refuses T_2 and T_10 but not the closed forms T_1 and T_20.
    assert run_report(tri, analyses=("trace",), budgets=Budgets(subset_budget=1)).skipped == []
    H = build_hypergraph(20, [{0, 1}, {1, 2}, {0, 2}])
    report = run_report(H, analyses=("trace",), budgets=Budgets(subset_budget=1))
    entry = _trace_entry(report, 2)
    assert entry["exact"] is None and entry["exact_with_empty"] is None and entry["witness"] is None
    assert not entry["caveats"]
    assert entry["max_degree_bound"]["value"] == 4
    assert entry["lower_bound"]["value"] == 3
    assert _trace_entry(report, 1)["exact"]["value"] == 1
    assert _trace_entry(report, 20)["exact"]["value"] == 3
    skips = {s["stage"]: (s["needed"], s["budget"]) for s in report.skipped}
    assert skips == {"trace-k2": (190, 1), "trace-k10": (184_756, 1)}
    assert report.exit_code == 3
