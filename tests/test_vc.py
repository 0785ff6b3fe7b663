import random
import tracemalloc
from itertools import combinations

import pytest

from hypertrace import (
    Graph,
    Hypergraph,
    build_hypergraph,
    is_shattered,
    neighborhood_hypergraph,
    random_gnp,
    random_tree,
    restriction,
    run_report,
    trace_function_exact,
    vc_exact,
    vc_upper_bound,
)
from hypertrace import trace, vc
from hypertrace.bench import instance_for_weight
from hypertrace.errors import BudgetExceededError
from hypertrace.generate import random_hypergraph
from oracles import brute_is_shattered, brute_vc, mask_is_shattered, traces_on


def random_hg(rng, max_n=8, max_m=14):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)]
    return build_hypergraph(n, edges, allow_multi=True)


def sparse_hg(rng, i):
    """Vertex ids drawn from range(2n) with duplicate and empty edges, or
    (every third i) a restriction whose ids are not a dense range."""
    n = rng.randint(1, 8)
    if i % 3:
        ids = rng.sample(range(2 * n), n)
        m = rng.randint(0, 14)
        edges = [frozenset(rng.sample(ids, rng.randint(0, n))) for _ in range(m)]
        edges += rng.sample(edges, min(len(edges), 2)) + [frozenset()] * rng.randint(0, 2)
        rng.shuffle(edges)
        return Hypergraph(frozenset(ids), tuple(edges), True)
    base = random_hg(rng, max_n=10)
    return restriction(base, rng.sample(range(base.n), rng.randint(1, base.n)))


def test_shattering_triangle(tri):
    assert is_shattered(tri, {0})
    assert not is_shattered(tri, {0, 1})
    assert is_shattered(tri, set())


def test_empty_set_not_shattered_without_edges():
    H = build_hypergraph(3, [])
    assert not is_shattered(H, set())


def test_shattering_test_answers_large_sets():
    # The test reads only the edges that meet the set, so no size is refused.
    H = build_hypergraph(40, [list(range(40))])
    assert not is_shattered(H, set(range(40)))
    assert not is_shattered(build_hypergraph(40, []), set(range(31)))


def test_is_shattered_matches_the_mask_test_on_repeated_and_empty_edges():
    # Every set of at most four vertices, on dense and sparse ids, with
    # duplicate and empty edges: the incidence test agrees with the n-bit
    # mask test it replaced and with the definition.
    rng = random.Random(31)
    outcomes = set()
    for i in range(120):
        n = rng.randint(1, 8)
        ids = rng.sample(range(2 * n), n) if i % 2 else list(range(n))
        edges = [frozenset(rng.sample(ids, rng.randint(0, n))) for _ in range(rng.randint(0, 14))]
        edges += rng.sample(edges, min(len(edges), 2)) + [frozenset()] * rng.randint(0, 2)
        rng.shuffle(edges)
        H = Hypergraph(frozenset(ids), tuple(edges), True)
        for size in range(min(n, 4) + 1):
            for S in combinations(sorted(ids), size):
                expected = mask_is_shattered(H, S)
                assert is_shattered(H, S) == expected == brute_is_shattered(H, S), (H.edges, S)
                outcomes.add((size, expected))
    assert {(s, b) for s in range(4) for b in (True, False)} <= outcomes, outcomes
    with pytest.raises(ValueError, match="not in the hypergraph"):
        is_shattered(H, {max(ids) + 1})


def test_upper_bound_formula(tri):
    assert vc_upper_bound(tri) == 2
    assert vc_upper_bound(build_hypergraph(2, [{0, 1}])) == 1  # classic degeneracy 1
    k9 = build_hypergraph(9, [{u, v} for u in range(9) for v in range(u)])
    assert vc_upper_bound(k9) == 4  # classic degeneracy 8
    assert vc_upper_bound(build_hypergraph(2, [])) == 0


def test_vc_triangle(tri):
    result = vc_exact(tri)
    assert result.dimension == 1
    assert is_shattered(tri, result.witness)
    assert result.upper_bound_used == 2


def test_vc_power_set_is_two():
    H = build_hypergraph(2, [set(), {0}, {1}, {0, 1}])
    assert vc_exact(H).dimension == 2


def test_vc_edgeless_is_zero():
    assert vc_exact(build_hypergraph(3, [])).dimension == 0


def test_vc_budget():
    H = build_hypergraph(24, [frozenset(range(24)), frozenset(range(12))] +
                         [frozenset({i, (i + 1) % 24, (i + 2) % 24}) for i in range(24)],
                         allow_multi=True)
    with pytest.raises(BudgetExceededError):
        vc_exact(H, node_budget=3)


def closed_vc(G):
    return vc_exact(neighborhood_hypergraph(G, closed=True))


def test_vc_neighborhood_p4(p4):
    assert closed_vc(p4).dimension == 1


def test_vc_neighborhood_star(star):
    result = closed_vc(star)
    assert result.dimension == 2
    assert is_shattered(neighborhood_hypergraph(star, closed=True), result.witness)


def test_vc_wide_star_is_lazy():
    G = Graph.from_edges(1501, [(0, v) for v in range(1, 1501)])
    H = neighborhood_hypergraph(G, closed=True)
    tracemalloc.start()
    try:
        result = vc_exact(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # (0) and (1); then the 1,500 pairs (0, v) before (1, 2).
    assert (result.dimension, result.witness, result.nodes_enumerated) == (2, (1, 2), 1503)
    # Materialising the candidate pairs, as an eager search would, peaks near 110 MB.
    assert peak < 4_000_000


def test_vc_single_vertex_graph():
    G = Graph.from_edges(1, [])
    assert closed_vc(G).dimension == 0


def test_vc_matches_unpruned_enumeration():
    rng = random.Random(31)
    for _ in range(80):
        H = random_hg(rng, max_n=7, max_m=10)
        result = vc_exact(H)
        assert result.dimension == brute_vc(H)
        assert result.dimension <= vc_upper_bound(H)
        if result.witness:
            assert brute_is_shattered(H, result.witness)


def test_vc_within_log_of_edge_count():
    rng = random.Random(13)
    for _ in range(60):
        H = random_hg(rng)
        distinct = len({e for e in H.edges if e})
        d = vc_exact(H).dimension
        if distinct:
            assert (1 << d) <= distinct or d == 0
        else:
            assert d == 0


def test_neighborhood_matches_general():
    rng = random.Random(77)
    for i in range(40):
        G = random_gnp(rng.randint(1, 8), rng.random(), seed=rng.randrange(10**6))
        H = neighborhood_hypergraph(G, closed=True)
        assert vc_exact(H).dimension == brute_vc(H)


def test_vc_witness_is_lexicographically_first():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 7)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 12))]
        H = build_hypergraph(n, edges, allow_multi=True)
        expected = (0, ())
        for size in range(n, -1, -1):
            first = next((c for c in combinations(range(n), size) if brute_is_shattered(H, c)), None)
            if first is not None:
                expected = (size, first)
                break
        result = vc_exact(H)
        assert (result.dimension, result.witness) == expected


def test_tree_neighborhood_vc_at_most_two():
    rng = random.Random(4)
    for _ in range(30):
        G = random_tree(rng.randint(2, 40), seed=rng.randrange(10**6))
        assert closed_vc(G).dimension <= 2


def test_vc_monotone_under_edge_deletion():
    rng = random.Random(8)
    for _ in range(30):
        H = random_hg(rng, max_n=7, max_m=10)
        if H.m == 0:
            continue
        keep = list(H.edges)
        keep.pop(rng.randrange(len(keep)))
        smaller = build_hypergraph(H.n, keep, allow_multi=True)
        assert vc_exact(smaller).dimension <= vc_exact(H).dimension


def test_vc_counts_nodes():
    H = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
    assert vc_exact(H).nodes_enumerated > 0


def test_vc_matches_the_oracle_on_sparse_ids_with_repeated_and_empty_edges():
    # Vertex ids drawn from range(2n) or left by a restriction, duplicate
    # and empty edges: the dimension is the largest size with a shattered
    # set, and the witness is the first such set in sorted-id order.
    rng = random.Random(2024)
    sizes = set()
    for i in range(240):
        H = sparse_hg(rng, i)
        expected = (0, ())
        for d in range(H.n, 0, -1):
            combos = combinations(sorted(H.vertices), d)
            first = next((c for c in combos if brute_is_shattered(H, c)), None)
            if first is not None:
                expected = (d, first)
                break
        assert expected[0] == brute_vc(H)
        result = vc_exact(H)
        assert (result.dimension, result.witness) == expected, H.edges
        sizes.add(expected[0])
    assert sizes >= {0, 1, 2, 3}, sizes


def test_the_shattering_cut_keeps_every_prefix_of_a_full_set():
    # For every k-set that is shattered, or that every nonempty subset
    # traces, and every prefix of it, the cut keeps the prefix and its mask
    # holds the set's later positions.  Sparse ids, duplicate and empty
    # edges.  The cut must also drop some later positions of other sets,
    # or it would keep everything vacuously.
    rng = random.Random(33)
    kept, dropped = set(), 0
    for i in range(240):
        H = sparse_hg(rng, i)
        pos = H.vertex_pos
        for k in range(2, min(H.n, 4) + 1):
            for S in combinations(sorted(H.vertices), k):
                shattered = brute_is_shattered(H, S)
                full = shattered or len(traces_on(H, S)) == (1 << k) - 1
                picks = [pos[v] for v in S]
                for j in range(1, k):
                    prefix = sum(1 << q for q in picks[:j])
                    later = sum(1 << q for q in picks[j:])
                    holds = trace.shattering_reach(H, prefix, picks[j - 1], k - j) & later == later
                    assert holds or not full, (H.edges, S, j)
                    dropped += not holds
                if full:
                    kept.add((k, shattered))
    assert {(2, True), (2, False), (3, True)} <= kept and dropped, kept


def test_vc_work_guard_on_the_10k_weight_bench_instance():
    # Sets tested, not seconds, so the guard reads the same on any host.
    # Testing the distinct k-subsets of every edge in order tests 156,783.
    result = vc_exact(instance_for_weight(10_000, seed=0))
    assert (result.dimension, result.witness) == (3, (0, 191, 782))
    assert result.nodes_enumerated <= 1_000, result.nodes_enumerated


def test_vc_reads_the_trace_table():
    # Once the table holds every T_k, each size is answered from the memo:
    # T_d with the empty trace is 2^d exactly on a shattered d-set, and its
    # witness is the first one, the walker's.  A standalone call on a fresh
    # equal hypergraph walks and fills nothing.
    rng = random.Random(4051)
    checked = 0
    sizes = set()
    for i in range(400):
        H = sparse_hg(rng, i)
        if H.n < 3 or not trace._table_fits(H):
            continue
        fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
        walked = vc_exact(fresh)
        assert not fresh.trace_memo
        trace_function_exact(H, 2)
        result = vc_exact(H)
        assert result.nodes_enumerated == 0, H.edges
        assert (result.dimension, result.witness) == (walked.dimension, walked.witness), H.edges
        assert result.dimension == brute_vc(H)
        sizes.add(result.dimension)
        checked += 1
    assert checked >= 200 and sizes >= {0, 1, 2, 3}, (checked, sizes)


def test_vc_reads_held_values_outside_the_gate():
    # h50 (n = 50) is outside the table's gate.  T_2 with the empty trace
    # is 4 = 2^2, which answers size 2, and the bounds' nonempty T_3 is
    # below 2^3 - 1, which rules out size 3: no set is tested.  A fresh
    # walk tests 34 sets: one vertex, one pair, and the 32 triples the
    # shattering cut leaves in play (116 without it).
    build = lambda: random_hypergraph(50, 66, max_edge_size=6, seed=37)
    walked = vc_exact(build())
    assert walked.nodes_enumerated == 34
    H = build()
    for k in (1, 2):
        for include_empty in (False, True):
            trace_function_exact(H, k, include_empty)
    trace.trace_value(H, 3)
    result = vc_exact(H)
    assert (result.dimension, result.witness, result.nodes_enumerated) == (walked.dimension, walked.witness, 0)
    # A nonempty T_2 of 2^2 - 1 does not rule out size 2: the walk finds
    # {0, 1}, which the empty trace of the edge {2} completes.
    H = build_hypergraph(20, [{0}, {1}, {0, 1}, {2}])
    assert trace_function_exact(H, 2) == (3, (0, 1)) and (2, True) not in H.trace_memo
    result = vc_exact(H)
    assert (result.dimension, result.witness) == (2, (0, 1)) and result.nodes_enumerated


@pytest.mark.parametrize(
    "build",
    [lambda: random_hypergraph(14, 42, max_edge_size=6, seed=3), lambda: random_gnp(16, 0.3, seed=1)],
    ids=["h14", "gnp16"],
)
def test_a_full_report_walks_no_vc_set(monkeypatch, build):
    calls = []
    original = vc.walk

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(vc, "walk", counted)
    report = run_report(build())
    assert report.results["vc"]["nodes_enumerated"] == 0 and not calls
