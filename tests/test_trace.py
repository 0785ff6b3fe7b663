import random

import pytest

from hypertrace import (
    build_hypergraph,
    degeneracy_chain_bounds,
    max_degree_bound,
    neighborhood_hypergraph,
    random_gnp,
    reduced_degeneracy,
    sauer_shelah_bound,
    trace_bound_profile,
    trace_count_lower_bound,
    trace_function_exact,
    vc_exact,
)
from hypertrace.errors import BudgetExceededError, MultiEdgeError
from oracles import brute_trace_function


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


def test_memo_does_not_bypass_the_budget():
    H = build_hypergraph(12, [{0, 1}, {2, 3, 4}, {5, 11}])
    trace_function_exact(H, 6, subset_budget=10**6)
    with pytest.raises(BudgetExceededError):
        trace_function_exact(H, 6, subset_budget=923)  # C(12, 6) = 924


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
    for H in cases:
        for k in range(H.n + 1):
            for include_empty in (False, True):
                got = trace_function_exact(H, k, include_empty=include_empty)
                assert got == brute_trace_function(H, k, include_empty), (H, k, include_empty)


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
    triple = reduced_degeneracy(tri)
    chain = degeneracy_chain_bounds(tri, 2, triple)
    by_j = {j: v for j, v, _ in chain.entries}
    assert by_j[0] == 4  # reduced * k
    assert chain.reduced_times_k == 4
    assert chain.classic_times_k == 4
    exact, _ = trace_function_exact(tri, 2)
    assert all(exact <= v for _, v, _ in chain.entries)
    # j = k keeps only the exact trace value
    assert by_j[2] == exact


def test_chain_bounds_k0(tri):
    chain = degeneracy_chain_bounds(tri, 0, reduced_degeneracy(tri))
    assert chain.entries == ((0, 0, "exact-T"),)


def test_chain_uses_power_of_two_when_expensive():
    H = build_hypergraph(30, [frozenset(range(30))])
    triple = reduced_degeneracy(H, exact_limit=5)
    chain = degeneracy_chain_bounds(H, 20, triple, j_max=16)
    forms = {j: form for j, _, form in chain.entries}
    assert forms[16] == "power-of-two"
    assert forms[0] == "exact-T"


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
        triple = reduced_degeneracy(H)
        vc = vc_exact(H).dimension
        for k in range(H.n + 1):
            exact, _ = trace_function_exact(H, k)
            exact_all, _ = trace_function_exact(H, k, include_empty=True)
            assert exact == brute_trace_function(H, k)[0]
            assert exact <= max_degree_bound(H, k)
            assert exact <= sauer_shelah_bound(vc, k)
            assert exact_all <= sauer_shelah_bound(vc, k)
            chain = degeneracy_chain_bounds(H, k, triple)
            assert all(exact <= v for _, v, _ in chain.entries)
            assert exact <= chain.reduced_times_k <= chain.classic_times_k
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


def test_profile_assembly(tri):
    triple = reduced_degeneracy(tri)
    profile = trace_bound_profile(tri, 2, triple, vc_dimension=1)
    assert profile.exact == 3
    assert profile.exact_with_empty == 3
    assert profile.sauer_shelah == 3
    assert profile.lower == 3
    assert profile.max_degree == 4
    assert not profile.caveats


def test_profile_budget_skip(tri):
    profile = trace_bound_profile(tri, 2, reduced_degeneracy(tri), subset_budget=1)
    assert profile.exact is None
    assert any("budget" in c for c in profile.caveats)
    assert profile.max_degree == 4
