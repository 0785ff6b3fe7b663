import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, islice
from math import ceil, comb, log2

import pytest

from hypertrace import (
    Budgets,
    Hypergraph,
    build_hypergraph,
    dt_exact,
    dt_lower_bounds,
    gamma_exact,
    is_distinguishing_transversal,
    neighborhood_hypergraph,
    run_report,
    transversal,
)
from hypertrace.errors import BudgetExceededError, MultiEdgeError
from hypertrace.generate import random_gnp, random_tree
from hypertrace.hypergraph import bits
from hypertrace import trace
from hypertrace.trace import trace_function_exact
from hypertrace.transversal import _past, _unrank, separating_set
from conftest import distinct_edges_hypergraph
from oracles import brute_dt, many_edge_masks, plain_separating_set

# The separating search's two engines, each given as the gate it puts in
# ``transversal``: the default path, where ``_table_fits`` sends a small
# hypergraph to the subset lattice, and the walker, which ``_search`` then
# runs at every size.  Tests that count the walker's work loop over both,
# since a gated instance would otherwise pass them without walking.  Only
# the walker is budgeted: the lattice gives its witness at every budget.
ENGINES = {"default": trace._table_fits, "walker": lambda H: False}


def _engines(monkeypatch):
    """Yield each engine's name with its gate in place."""
    for name, gate in ENGINES.items():
        monkeypatch.setattr(transversal, "_table_fits", gate)
        yield name


def random_simple(rng, max_n=8, max_m=12, min_m=0):
    n = rng.randint(1, max_n)
    m = rng.randint(min_m, max_m)
    edges, seen = [], set()
    for _ in range(m):
        e = frozenset(rng.sample(range(n), rng.randint(1, n)))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return build_hypergraph(n, edges)


def test_predicate_triangle(tri):
    assert is_distinguishing_transversal(tri, {0, 1})
    assert not is_distinguishing_transversal(tri, {0})
    assert is_distinguishing_transversal(tri, {0, 1, 2})


def test_predicate_single_edge():
    H = build_hypergraph(3, [{0, 1}])
    assert is_distinguishing_transversal(H, {0})
    assert is_distinguishing_transversal(H, {1})
    assert not is_distinguishing_transversal(H, {2})


def test_predicate_rejects_multi():
    H = build_hypergraph(2, [{0}, {0}], allow_multi=True)
    with pytest.raises(MultiEdgeError):
        is_distinguishing_transversal(H, {0})


def test_exact_triangle(tri):
    result = dt_exact(tri)
    assert result.value == 2
    assert result.witness == (0, 1)


def test_exact_p4_closed():
    H = build_hypergraph(4, [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}])
    result = dt_exact(H)
    assert result.value == 3
    assert result.witness == (0, 1, 2)


def test_exact_single_edge():
    H = build_hypergraph(3, [{1, 2}])
    assert dt_exact(H).value == 1


def test_exact_no_edges():
    assert dt_exact(build_hypergraph(3, [])).value == 0


def test_exact_rejects_empty_edge():
    H = build_hypergraph(2, [set(), {0}])
    with pytest.raises(ValueError, match="empty edge"):
        dt_exact(H)


def test_exact_budget(monkeypatch):
    # Inside the trace table's gate budget 0 is exact; the walker refuses.
    H = build_hypergraph(
        16, [frozenset({i, (i + 1) % 16}) for i in range(16)]
    )
    want = dt_exact(Hypergraph(H.vertices, H.edges))
    assert dt_exact(Hypergraph(H.vertices, H.edges), subset_budget=0) == want
    monkeypatch.setattr(transversal, "_table_fits", ENGINES["walker"])
    with pytest.raises(BudgetExceededError):
        dt_exact(H, subset_budget=2)


def test_bounds_triangle_tight(tri):
    bounds = dt_lower_bounds(tri)
    assert max(b.ceiled for b in bounds) == 2 == dt_exact(tri).value
    j0 = [b for b in bounds if b.j == 0 and b.form == "exact-T"][0]
    assert j0.value == Fraction(3, 2)


def test_bounds_p4_closed():
    H = build_hypergraph(4, [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}])
    bounds = dt_lower_bounds(H)
    by = {(b.j, b.form): b.value for b in bounds}
    assert by[(1, "exact-T")] == Fraction(4 - 1, 2) + 1
    assert max(b.ceiled for b in bounds) == 3 == dt_exact(H).value


def test_bootstrap_never_exceeds_certified():
    rng = random.Random(3)
    for _ in range(60):
        H = random_simple(rng, min_m=1)
        bounds = dt_lower_bounds(H, j_max=10)
        value = dt_exact(H).value
        certified = 0
        for b in bounds:
            assert b.j <= max(certified, 0)
            certified = max(certified, b.ceiled)
        assert all(b.ceiled <= value for b in bounds)


def test_exact_t_form_dominates_power_of_two():
    rng = random.Random(41)
    for _ in range(40):
        H = random_simple(rng, min_m=1)
        bounds = dt_lower_bounds(H, j_max=6)
        by_j = {}
        for b in bounds:
            by_j.setdefault(b.j, {})[b.form] = b.value
        for forms in by_j.values():
            if "exact-T" in forms and "power-of-two" in forms:
                assert forms["exact-T"] >= forms["power-of-two"]


def test_information_floor():
    rng = random.Random(10)
    for _ in range(40):
        H = random_simple(rng, min_m=1)
        value = dt_exact(H).value
        assert value >= ceil(log2(H.m + 1))


def test_witness_is_minimum():
    rng = random.Random(23)
    for _ in range(30):
        H = random_simple(rng, max_n=7, min_m=1)
        result = dt_exact(H)
        assert brute_dt(H) == result.value
        assert is_distinguishing_transversal(H, result.witness)
        for smaller in combinations(sorted(H.vertices), result.value - 1):
            assert not is_distinguishing_transversal(H, smaller)


def _plain_outcome(rows, n, budget, selected_exempt):
    try:
        return plain_separating_set(rows, n, budget, selected_exempt)
    except BudgetExceededError:
        return "raise"


def _outcome(H, budget, selected_exempt):
    try:
        return separating_set(H, budget, "parity", selected_exempt)
    except BudgetExceededError as exc:
        assert str(exc) == "parity search budget exceeded" and exc.budget == budget
        return "raise"


def _separating_cases(rng):
    """(hypergraph, selected_exempt) pairs: DT rows of random simple
    hypergraphs, ID and OLD rows of random graphs, and LD exempt rows."""
    for _ in range(120):
        n = rng.randint(1, 11)
        G = random_gnp(n, rng.random(), seed=rng.randrange(10**6))
        yield neighborhood_hypergraph(G, closed=False), True
        for closed in (True, False):
            H = neighborhood_hypergraph(G, closed=closed)
            if not H.has_duplicate_edges and all(H.edges):
                yield H, False
    for _ in range(80):
        n = rng.randint(1, 11)
        edges = {frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 20))}
        yield build_hypergraph(n, sorted(edges, key=sorted)), False


def test_separating_set_matches_plain_enumeration(monkeypatch):
    """On the walker, witness and raise/no-raise equal the unpruned search
    at every budget on a fresh hypergraph.  Through one hypergraph's memo
    they do too until a witness is found, and that witness is served at
    every later budget.  The lattice gives the witness at every budget."""
    for name in _engines(monkeypatch):
        rng = random.Random(5)
        checked = 0
        for H, exempt in _separating_cases(rng):
            witness = plain_separating_set(H.edge_masks, H.n, 10**7, exempt)
            if witness is None:
                continue  # even the full vertex set does not separate
            shared = Hypergraph(H.vertices, H.edges, H.allow_multi)
            held = None
            for budget in (rng.randint(1, 300), 10**7, rng.randint(1, 300), rng.randint(1, 300), 0):
                want = _plain_outcome(H.edge_masks, H.n, budget, exempt) if name == "walker" else witness
                fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                assert _outcome(fresh, budget, exempt) == want, (name, H.edges, exempt, budget)
                got = _outcome(shared, budget, exempt)
                assert got == (want if held is None else held), (name, H.edges, exempt, budget)
                if got != "raise":
                    held = got
                checked += 1
        assert checked > 600, name


def test_separating_set_budget_boundary(monkeypatch):
    """On the walker, at budget rank - 1 the search raises and at budget
    rank it returns the witness, with and without exempt rows: the
    witness's rank, the sets of the sizes walked plus its lexicographic
    index within its size plus 1, must fall exactly where the plain
    enumeration's count does.  The lattice returns it at both, and at 0."""
    for name in _engines(monkeypatch):
        rng = random.Random(13)
        checked = 0
        for H, _ in _separating_cases(rng):
            for exempt in (False, True):
                want = plain_separating_set(H.edge_masks, H.n, 10**7, exempt)
                if want is None:
                    continue
                start = next(
                    s for s in range(H.n + 1)
                    if (1 << s) - 1 >= len(H.edge_masks) - (s if exempt else 0)
                )
                sizes = range(start, len(want))
                rank = sum(comb(H.n, s) for s in sizes) + 1 + next(
                    i for i, c in enumerate(combinations(range(H.n), len(want))) if c == want
                )
                below = "raise" if name == "walker" else want
                for budget in {0, rank - 1}:
                    fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                    assert _outcome(fresh, budget, exempt) == below, (name, H.edges, exempt, budget)
                fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                assert _outcome(fresh, rank, exempt) == want, (name, H.edges, exempt, rank)
                checked += 1
        assert checked > 400, name


def _lattice_cases(rng):
    """(rows, n, selected_exempt) for the subset lattice: LD rows of random
    graphs on 0-12 vertices, edgeless ones and ones with isolated vertices
    or open twins among them, and random rows whose count differs from n
    (at most 2^n - 1 of them), in both modes, first four exempt rows on
    ten positions, and the edge masks of 300 distinct edges on 11
    positions, more than the trace table's gate admits."""
    yield (831, 305, 2, 742), 10, True
    yield many_edge_masks(), 11, False
    yield many_edge_masks(), 11, True
    for _ in range(200):
        n = rng.randint(0, 12)
        G = random_gnp(n, rng.choice([0.0, 0.15 * rng.random(), rng.random()]), seed=rng.randrange(10**6))
        yield neighborhood_hypergraph(G, closed=False).edge_masks, n, True
    for _ in range(150):
        n = rng.randint(1, 10)
        m = min(rng.choice([rng.randint(0, n - 1), rng.randint(n + 1, 2 * n + 4)]), (1 << n) - 1)
        rows = tuple(rng.randrange(1, 1 << n) for _ in range(m))
        for exempt in (False, True):
            yield rows, n, exempt


def _engine_outcome(H, budget, exempt):
    try:
        return transversal._search(H, budget, "lattice", exempt)
    except BudgetExceededError as exc:
        assert str(exc) == "lattice search budget exceeded" and exc.budget == budget
        return "raise"


def test_lattice_matches_the_walker_and_the_oracle(monkeypatch):
    """The subset lattice and the walker return the plain enumeration's
    witness, on LD rows of graphs (edgeless, with isolated vertices, with
    open twins) and on rows more or fewer than the positions, with and
    without exempt rows: the walker at budget rank, raising at rank - 1,
    and the lattice at every budget, 0 and rank - 1 included."""
    rng = random.Random(43)
    checked = 0
    shapes = set()
    for rows, n, exempt in _lattice_cases(rng):
        want = plain_separating_set(rows, n, 10**7, exempt)
        if want is None:
            continue
        if len(rows) != n:
            shapes.add("more rows" if len(rows) > n else "fewer rows")
        elif exempt:
            shapes |= {"edgeless" if n and not any(rows) else "", "isolated" if 0 in rows else ""}
            shapes.add("twins" if len(set(rows)) < n else "")
        rank = _plain_rank(n, rows, want, exempt)
        H = build_hypergraph(n, map(bits, rows), allow_multi=True)
        for lattice in (True, False):
            monkeypatch.setattr(transversal, "_table_fits", lambda H: lattice)
            below = want if lattice else "raise"
            for budget in {0, rank - 1}:
                assert _engine_outcome(H, budget, exempt) == below, (rows, n, exempt, lattice, budget)
            assert _engine_outcome(H, rank, exempt) == want, (rows, n, exempt, lattice)
        checked += 1
    assert checked > 400 and {"edgeless", "isolated", "twins", "more rows", "fewer rows"} <= shapes


def test_engines_agree_at_the_gates_edge(monkeypatch):
    """DT on 18 vertices with 114 half-density and 256 small edges, inside
    the trace table's gate: the walker gives the subset lattice's witness
    at its rank and raises one below it, where the lattice still gives it.
    The brute-force oracle is too slow here."""
    for H in (distinct_edges_hypergraph(18, 114, half_density=True), distinct_edges_hypergraph(18, 256)):
        assert trace._table_fits(H)
        monkeypatch.setattr(transversal, "_table_fits", trace._table_fits)
        witness = transversal._search(H, 0, "parity", False)
        rank = _plain_rank(H.n, H.edge_masks, witness, False)
        for name in _engines(monkeypatch):
            fresh = Hypergraph(H.vertices, H.edges)
            assert _outcome(fresh, rank - 1, False) == ("raise" if name == "walker" else witness), name
            fresh = Hypergraph(H.vertices, H.edges)
            assert _outcome(fresh, rank, False) == witness, name
            assert fresh.separating_memo[False] == witness, name


def test_an_instance_just_outside_the_gate_walks(monkeypatch):
    """LD on 19 vertices, one above the trace table's gate, runs the walker,
    which raises one below the witness's rank; the subset lattice, asked
    anyway, gives the same witness at any budget."""
    lattices = _count_calls(monkeypatch, "first_separating_set")
    walks = _count_calls(monkeypatch, "walk")
    G = random_gnp(19, 0.3, seed=1)
    H = neighborhood_hypergraph(G, closed=False)
    assert not trace._table_fits(H)
    assert gamma_exact(G, "LD").witness == (0, 2, 7, 9, 13, 14)
    assert walks and not lattices
    witness = H.separating_memo[True]
    rank = _plain_rank(H.n, H.edge_masks, witness, True)
    with pytest.raises(BudgetExceededError, match="domination search budget exceeded"):
        transversal._search(H, rank - 1, "domination", True)
    assert transversal._search(H, rank, "domination", True) == witness
    monkeypatch.setattr(transversal, "_table_fits", lambda H: True)
    for budget in (0, rank - 1, rank):
        assert transversal._search(H, budget, "domination", True) == witness


def test_a_budget_the_memo_floor_exhausts_is_not_charged_inside_the_gate(monkeypatch):
    """On random_tree(14, 2) at budget 1,000 the open side's memoised T_k
    start LD at size 6, past C(14, 4) + C(14, 5) = 3,003 sets, which the
    walker would charge in full.  Inside the gate the subset lattice, built
    once, answers LD exactly (7), and a later call is served from the memo."""
    lattices = _count_calls(monkeypatch, "first_separating_set")
    G = random_tree(14, seed=2)
    report = run_report(G, budgets=Budgets(subset_budget=1000))
    assert report.skipped == []
    assert report.results["domination"]["LD"]["exact"]["value"] == 7
    assert len(lattices) == 1
    assert gamma_exact(G, "LD", subset_budget=0).exact == 7
    assert len(lattices) == 1


def test_only_a_usable_trace_witness_becomes_a_mask(monkeypatch):
    """LD reads no memoised trace witness and DT only that of the least k
    with T_k equal to the edge count, so the separating search turns no
    other witness into a mask."""
    G = random_gnp(16, 0.3, seed=1)
    sides = [neighborhood_hypergraph(G, closed) for closed in (True, False)]
    for h in sides:
        trace_function_exact(h, 2)
        h.edge_masks  # built before the count
    masks = []
    original = Hypergraph.mask
    monkeypatch.setattr(Hypergraph, "mask", lambda self, subset: masks.append(subset) or original(self, subset))
    assert gamma_exact(G, "LD").exact == 6 and not masks
    closed = sides[0]
    assert dt_exact(closed).value == 6
    full = [k for (k, empty), (t, _) in closed.trace_memo.items() if not empty and t == closed.m]
    assert len(full) > 1 and masks == [closed.trace_memo[(min(full), False)][1]]


def test_unrank_and_the_order_test_follow_the_lexicographic_order():
    """``_unrank`` gives every k-set of n <= 10 positions at its index in
    ``itertools.combinations``, and for n <= 8 ``_past`` puts each pair of
    one size in that order; no set is past a missing boundary."""
    for n in range(11):
        for k in range(n + 1):
            masks = [sum(1 << p for p in combo) for combo in combinations(range(n), k)]
            assert [_unrank(n, k, i) for i in range(len(masks))] == masks, (n, k)
            if n <= 8:
                for i, a in enumerate(masks):
                    assert not _past(a, None)
                    assert [_past(a, b) for b in masks] == [i >= j for j in range(len(masks))], (n, a)


def _plain_rank(n, rows, want, exempt):
    """The witness's rank in the plain enumeration, counted by itertools."""
    start = next(s for s in range(n + 1) if (1 << s) - 1 >= len(rows) - (s if exempt else 0))
    before = sum(comb(n, s) for s in range(start, len(want)))
    return before + 1 + next(i for i, c in enumerate(combinations(range(n), len(want))) if c == want)


def test_binding_budget_asks_reaches_nothing_past_it(monkeypatch):
    """Under a budget that ends inside a size, every prefix the separating
    search asks ``reaches`` about has its first completion, the prefix plus
    the next positions of reach, ranked within the budget: the walk closes
    the node of any other prefix before asking."""
    asked = []
    original = transversal.reaches

    def recording(needy, prefix, reach, left, include_empty, target):
        asked.append((prefix, reach, left))
        return original(needy, prefix, reach, left, include_empty, target)

    monkeypatch.setattr(transversal, "reaches", recording)
    for name in _engines(monkeypatch):
        rng = random.Random(29)
        checked = calls = 0
        for H, _ in _separating_cases(rng):
            for exempt in (False, True):
                want = plain_separating_set(H.edge_masks, H.n, 10**7, exempt)
                if want is None:
                    continue
                rank = _plain_rank(H.n, H.edge_masks, want, exempt)
                for budget in {rank - 1, rng.randint(1, rank), rng.randint(1, rank)} - {0}:
                    asked.clear()
                    _outcome(Hypergraph(H.vertices, H.edges, H.allow_multi), budget, exempt)
                    for prefix, reach, left in asked:
                        after = bits(reach >> prefix.bit_length() << prefix.bit_length())
                        first = (*bits(prefix), *islice(after, left))
                        assert _plain_rank(H.n, H.edge_masks, first, exempt) <= budget, (
                            name, H.edges, exempt, budget, prefix, left
                        )
                    calls += len(asked)
                    checked += 1
        assert checked > 500 and (calls > 1_000 if name == "walker" else not calls), (name, checked, calls)


def test_an_exact_cut_keeps_the_budget_outcome(monkeypatch):
    """With a reach test that refuses every prefix no completion of which
    separates, the walker raises or returns at budgets rank - 1, rank and
    rank + 1 exactly as the plain enumeration does, with and without
    exempt rows: a sound cut cannot move the budget outcome.  The lattice
    returns the witness at all three."""
    refused = []

    def exact_cut(rows, exempt):
        def cut(needy, prefix, reach, left, include_empty, target):
            for combo in combinations(bits(reach & ~prefix), left):
                smask = prefix | sum(1 << q for q in combo)
                labels = [row & smask for x, row in enumerate(rows) if not (exempt and smask >> x & 1)]
                if all(labels) and len(set(labels)) == len(labels):
                    return True
            refused.append(prefix)
            return False

        return cut

    for name in _engines(monkeypatch):
        rng = random.Random(17)
        checked = 0
        refused.clear()
        for H, _ in _separating_cases(rng):
            for exempt in (False, True):
                want = plain_separating_set(H.edge_masks, H.n, 10**7, exempt)
                if want is None:
                    continue
                rank = _plain_rank(H.n, H.edge_masks, want, exempt)
                monkeypatch.setattr(transversal, "reaches", exact_cut(H.edge_masks, exempt))
                for budget in (rank - 1, rank, rank + 1):
                    fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                    plain = _plain_outcome(H.edge_masks, H.n, budget, exempt) if name == "walker" else want
                    assert _outcome(fresh, budget, exempt) == plain, (name, H.edges, exempt, budget)
                checked += 1
        assert checked > 400 and bool(refused) == (name == "walker"), (name, checked)


def _trace_table(H):
    """Every exact ``T_k`` of ``H``, with and without the empty trace, as
    ``trace_memo`` entries computed on a copy."""
    source = Hypergraph(H.vertices, H.edges, H.allow_multi)
    for k in range(H.n + 1):
        for include_empty in (False, True):
            trace_function_exact(source, k, include_empty)
    return list(source.trace_memo.items())


def test_separating_set_reads_the_trace_memo(monkeypatch):
    """With none, some or all of the exact ``T_k`` memoised, the walker
    returns the plain enumeration's witness at its rank and raises exactly
    where it does, with and without exempt rows: at budgets rank - 1, rank
    and rank + 1, and at a budget that ends inside a size the memo lets it
    skip.  Sizes whose ``T_k`` is below the labels needed are charged in
    full, and a memoised ``T_k = |rows|`` is the witness at size k.  When
    that k is the first size not ruled out, the memo proves DT, and the
    witness is returned at every budget, as the lattice returns its own."""
    for name in _engines(monkeypatch):
        rng = random.Random(31)
        checked = skipped = hits = proven = 0
        for H, _ in _separating_cases(rng):
            table = _trace_table(H)
            for exempt in (False, True):
                want = plain_separating_set(H.edge_masks, H.n, 10**7, exempt)
                if want is None:
                    continue
                rank = _plain_rank(H.n, H.edge_masks, want, exempt)
                needed = [len(H.edge_masks) - (k if exempt else 0) for k in range(H.n + 1)]
                floor = next(s for s in range(H.n + 1) if (1 << s) - 1 >= needed[s])
                plain = {}
                for primed in ([], rng.sample(table, rng.randint(1, len(table))), table):
                    nonempty = {k: t for (k, empty), (t, _) in primed if not empty}
                    start = max([floor, *(k + 1 for k, t in nonempty.items() if t < needed[k])])
                    budgets = [rank - 1, rank, rank + 1]
                    if start > floor:
                        size = rng.randrange(floor, start)
                        before = sum(comb(H.n, s) for s in range(floor, size))
                        budgets.append(before + rng.randint(1, comb(H.n, size)))
                        skipped += 1
                    hits += not exempt and nonempty.get(len(want)) == len(H.edge_masks)
                    at_start = not exempt and nonempty.get(start) == len(H.edge_masks)
                    proven += at_start
                    for budget in budgets:
                        fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                        fresh.trace_memo.update(primed)
                        if name == "walker" and not at_start:
                            if budget not in plain:
                                plain[budget] = _plain_outcome(H.edge_masks, H.n, budget, exempt)
                            expected = plain[budget]
                        else:
                            expected = want
                        outcome = _outcome(fresh, budget, exempt)
                        assert outcome == expected, (name, H.edges, exempt, budget, primed)
                        if outcome != "raise":
                            assert fresh.separating_memo[exempt] == want
                    checked += 1
        # Most hits prove DT; the rest, past the first size not ruled out,
        # stay candidates the walker reaches under the budget.
        assert checked > 1_500 and skipped > 200 and proven > 300 and hits - proven > 10, (
            name, checked, skipped, hits, proven
        )


def test_separating_set_reads_a_trace_memo_filled_meanwhile(monkeypatch):
    """Threads that fill a hypergraph's trace memo while others run the
    separating search on it, at rising budgets up to the witness's rank,
    neither break a search nor move its outcome: the search reads a
    snapshot of the memo, never the live dict.  The lattice gives the
    witness at every budget.  The walker runs LD, whose budget outcome the
    memo never moves; a DT the filled memo proves would be served below
    its rank, so when the fill lands would decide the outcome."""
    rng = random.Random(37)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(120):
            H = random_simple(rng, max_n=10, max_m=20, min_m=8)
            name = ("default", "walker")[i % 2]
            monkeypatch.setattr(transversal, "_table_fits", ENGINES[name])
            want = []
            for exempt in (False, True) if name == "default" else (True,):
                witness = plain_separating_set(H.edge_masks, H.n, 10**7, exempt)
                rank = _plain_rank(H.n, H.edge_masks, witness, exempt)
                below = witness if name == "default" else None
                want += [(exempt, b, below) for b in range(min(rank, 40))]
                want.append((exempt, rank, witness))
            got, errors = [], []
            start = threading.Barrier(4)

            def fill(include_empty):
                for k in range(H.n + 1):
                    trace_function_exact(H, k, include_empty)

            def search(exempt):
                for budget in [b for x, b, _ in want if x == exempt]:
                    try:
                        got.append((exempt, budget, separating_set(H, budget, "stress", exempt)))
                    except BudgetExceededError:
                        got.append((exempt, budget, None))

            def run(job, arg):
                start.wait()
                try:
                    job(arg)
                except Exception as exc:  # a thread's exception would otherwise be lost
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(job, arg))
                for job in (fill, search)
                for arg in (False, True)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            assert sorted(got, key=str) == sorted(want, key=str), H.edges
    finally:
        sys.setswitchinterval(interval)


def test_report_reads_dt_off_the_trace_table(monkeypatch):
    """A graph report memoises the small ``T_k`` on both sides before its
    searches: DT-closed and DT-open then test no set.  On the walker, LD
    walks from the first size whose memoised ``T_k`` leaves enough labels,
    and a fresh closed side, with no trace memo, still tests 76 sets for
    DT; the plain search tested 225 sets for DT and 1,503 for LD here.  On
    the default path both sides are within the gate, so the subset lattice
    answers LD and the fresh DT, and the report neither tests nor walks a
    set."""
    tests = _count_calls(monkeypatch, "_separates")
    walks = _count_calls(monkeypatch, "walk")
    for name in _engines(monkeypatch):
        tests.clear()
        walks.clear()
        G = random_gnp(16, 0.3, seed=1)
        report = run_report(G)
        assert not report.skipped
        assert sum(not exempt for _, _, exempt in tests) == 0
        if name == "default":
            assert not tests and not walks
        else:
            assert sum(exempt for _, _, exempt in tests) == 1_104
            open_side = neighborhood_hypergraph(G, closed=False)
            floor = 1 + max(
                k for (k, empty), (t, _) in open_side.trace_memo.items() if not empty and t < 16 - k
            )
            assert floor == 5 and [size for _, size, _ in walks] == [5, 6]
        tests.clear()
        closed = neighborhood_hypergraph(random_gnp(16, 0.3, seed=1), closed=True)
        assert dt_exact(closed).value == 6 and len(tests) == (76 if name == "walker" else 0)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(transversal, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(transversal, name, counted)
    return calls


def test_pruned_search_tests_few_leaves(monkeypatch):
    """The unpruned search tests 4,561 sets for this closed-neighborhood DT;
    the walker tests fewer than 500, and the subset lattice none."""
    tests = _count_calls(monkeypatch, "_separates")
    for name in _engines(monkeypatch):
        tests.clear()
        H = neighborhood_hypergraph(random_gnp(16, 0.3, seed=1), closed=True)
        assert dt_exact(H).value == 6
        assert len(tests) < 500 and bool(tests) == (name == "walker"), (name, len(tests))


def test_a_refusal_pays_no_work_per_set_tested(monkeypatch):
    """A refused LD search on random_tree(300, 1) walks one size, at
    budget 10^4 and at 10^6, and its budget test makes at most n + 1
    ``comb`` calls per size searched (C(n, size) and one unranked boundary
    set), however many sets it tests: 583 and 874 here."""
    combs = _count_calls(monkeypatch, "comb")
    tests = _count_calls(monkeypatch, "_separates")
    walks = _count_calls(monkeypatch, "walk")
    tested = []
    for budget in (10**4, 10**6):
        for calls in (combs, tests, walks):
            calls.clear()
        with pytest.raises(BudgetExceededError, match="domination search budget exceeded"):
            gamma_exact(random_tree(300, seed=1), "LD", subset_budget=budget)
        assert len(walks) == 1 and len(combs) <= 301, (budget, len(combs))
        tested.append(len(tests))
    assert tested == [583, 874]


def test_report_shares_dt_searches_with_id_and_old(monkeypatch):
    """DT-closed is ID and DT-open is OLD: five results from three searches."""
    searches = _count_calls(monkeypatch, "_search")
    report = run_report(random_gnp(16, 0.3, seed=1), analyses=("dt", "domination"))
    assert not report.skipped
    res = report.results
    assert res["domination"]["ID"]["exact"] == res["dt"]["closed"]["value"]
    assert res["domination"]["OLD"]["exact"] == res["dt"]["open"]["value"]
    assert len(searches) == 3


def test_skip_is_remembered_per_budget(monkeypatch):
    """gamma-ID raises without searching once DT-closed is skipped at the
    same budget, under its own label; a larger budget searches again.  The
    20-vertex tree is above the trace table's gate, so the walker runs."""
    searches = _count_calls(monkeypatch, "_search")
    G = random_tree(20, seed=3)
    closed = neighborhood_hypergraph(G, closed=True)
    assert not trace._table_fits(closed)
    report = run_report(G, budgets=Budgets(subset_budget=1000))
    skipped = {s["stage"]: s["detail"] for s in report.skipped}
    assert skipped["dt-closed"] == "transversal search budget exceeded"
    assert skipped["gamma-ID"] == "domination search budget exceeded"
    assert [args[1] for args in searches if args[0] is closed] == [1000]
    with pytest.raises(BudgetExceededError, match="domination search budget exceeded"):
        gamma_exact(G, "ID", subset_budget=999)
    assert gamma_exact(G, "ID", subset_budget=10**7).exact == dt_exact(closed).value
    assert [args[1] for args in searches if args[0] is closed] == [1000, 10**7]


def test_dt_runs_past_a_low_recursion_limit():
    """80 singleton edges: DT is every vertex, so the last size searched has
    80 picks.  The search keeps no frame per pick, so it finishes under a
    recursion limit a few dozen frames above this test's own depth."""
    H = build_hypergraph(80, [{i} for i in range(80)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        result = dt_exact(H, subset_budget=10**40)
    finally:
        sys.setrecursionlimit(limit)
    assert result.value == 80
    assert result.witness == tuple(range(80))
