import random

import pytest
from hypothesis import given, settings, strategies as st

from hypertrace import (
    build_hypergraph,
    degeneracy_oracle,
    neighborhood_hypergraph,
    peel_degeneracy,
    peel_pseudo_degeneracy,
    pseudo_degeneracy_oracle,
    random_tree,
    reduced_degeneracy,
    restriction,
)
from hypertrace import degeneracy
from hypertrace.errors import BudgetExceededError
from oracles import min_degree


@st.composite
def hypergraphs(draw, max_n=8, max_m=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = [
        frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        for _ in range(m)
    ]
    return build_hypergraph(n, edges, allow_multi=True)


def test_classic_peel_triangle(tri):
    result = peel_degeneracy(tri)
    assert result.degree_sequence == (2, 2, 1)
    assert result.value == 2
    assert sorted(result.order) == [0, 1, 2]


def test_pseudo_peel_triangle(tri):
    result = peel_pseudo_degeneracy(tri)
    assert result.degree_sequence == (2, 1, 0)
    assert result.value == 2


def test_peel_p4_closed_neighborhoods():
    H = build_hypergraph(4, [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}])
    assert peel_degeneracy(H).value == 2
    assert peel_pseudo_degeneracy(H).value == 2


def test_peel_edgeless():
    H = build_hypergraph(3, [])
    assert peel_degeneracy(H).value == 0
    assert peel_pseudo_degeneracy(H).value == 0
    assert peel_degeneracy(H).degree_sequence == (0, 0, 0)


def test_peel_empty_hypergraph():
    H = build_hypergraph(0, [])
    assert peel_degeneracy(H).value == 0
    assert peel_pseudo_degeneracy(H).order == ()


def test_peel_single_vertex_single_edge():
    H = build_hypergraph(1, [{0}])
    assert peel_pseudo_degeneracy(H).value == 1
    assert peel_degeneracy(H).value == 1


def test_oracle_triangle(tri):
    assert degeneracy_oracle(tri) == 2
    assert pseudo_degeneracy_oracle(tri) == 2


def test_oracle_refuses_large():
    H = build_hypergraph(21, [])
    with pytest.raises(BudgetExceededError):
        degeneracy_oracle(H)
    with pytest.raises(BudgetExceededError):
        pseudo_degeneracy_oracle(H)


def test_reduced_triangle(tri):
    triple = reduced_degeneracy(tri)
    assert triple.reduced_exact
    assert (triple.pseudo, triple.reduced, triple.classic) == (2, 2, 2)


def test_reduced_edgeless():
    triple = reduced_degeneracy(build_hypergraph(4, []))
    assert (triple.pseudo, triple.reduced, triple.classic) == (0, 0, 0)


def test_reduced_envelope_above_limit(tri):
    triple = reduced_degeneracy(tri, exact_limit=2)
    assert not triple.reduced_exact
    assert triple.reduced == (triple.pseudo, triple.classic)
    assert triple.reduced_upper == triple.classic


def test_ties_break_to_lowest_index():
    H = build_hypergraph(4, [{0, 1}, {2, 3}])
    assert peel_degeneracy(H).order[0] == 0
    assert peel_pseudo_degeneracy(H).order[0] == 0


def test_multi_edges_do_not_inflate_degeneracy():
    # Two copies of one edge must peel like a single edge.
    H = build_hypergraph(2, [{0, 1}, {0, 1}], allow_multi=True)
    assert peel_pseudo_degeneracy(H).value == 1
    assert peel_degeneracy(H).value == 1
    triple = reduced_degeneracy(H)
    assert triple.pseudo <= triple.reduced_low <= triple.reduced_high <= triple.classic


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_peels_match_oracles(H):
    assert peel_degeneracy(H).value == degeneracy_oracle(H)
    assert peel_pseudo_degeneracy(H).value == pseudo_degeneracy_oracle(H)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_n=7))
def test_sandwich(H):
    triple = reduced_degeneracy(H)
    assert triple.reduced_exact
    assert triple.pseudo <= triple.reduced_low <= triple.reduced_high <= triple.classic


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.data())
def test_peel_anti_monotonicity(H, data):
    # The first peeled vertex inside any restriction bounds its min degree there.
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(H.vertices)), min_size=1)))
    result = peel_degeneracy(H)
    I = restriction(H, S)
    first = next(v for v in result.order if v in S)
    d_in_I = sum(1 for e in I.edges if first in e)
    step = result.order.index(first)
    assert d_in_I <= result.degree_sequence[step]


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_edge_count_within_n_times_degeneracy(H):
    distinct = len({e for e in H.edges if e})
    assert distinct <= H.n * peel_degeneracy(H).value


def test_peel_degree_sequence_is_min_degree_at_each_step():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        m = rng.randint(0, 10)
        H = build_hypergraph(
            n,
            [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)],
            allow_multi=True,
        )
        result = peel_degeneracy(H)
        remaining = sorted(H.vertices)
        for v, d in zip(result.order, result.degree_sequence):
            R = restriction(H, remaining)
            assert d == sum(1 for e in R.edges if v in e)
            assert d == min_degree(R)
            remaining.remove(v)


def test_reduced_stops_at_the_classic_cap(monkeypatch):
    # On a tree's neighbourhood hypergraphs the classic peel's witness already
    # attains the classic value, so no other subset is pseudo-peeled.
    calls = []
    inner = degeneracy._pseudo_value_of_traces

    def counted(trace_masks, smask):
        calls.append(smask)
        return inner(trace_masks, smask)

    monkeypatch.setattr(degeneracy, "_pseudo_value_of_traces", counted)
    G = random_tree(10, seed=5)
    for closed in (True, False):
        calls.clear()
        triple = reduced_degeneracy(neighborhood_hypergraph(G, closed))
        assert triple.reduced_exact
        assert len(calls) < 10


def test_witness_seeded_exact_path_matches_plain_enumeration():
    # The witness-first search with its classic-cap exit; cross-check it
    # against the same per-subset evaluator run over every subset.
    from hypertrace.degeneracy import _pseudo_value_of_traces, _restriction_trace_masks

    rng = random.Random(5)
    for _ in range(2):
        n = 13
        edges = [frozenset(rng.sample(range(n), rng.randint(1, 4))) for _ in range(20)]
        H = build_hypergraph(n, edges, allow_multi=True)
        fast = reduced_degeneracy(H, exact_limit=14)
        assert fast.reduced_exact
        masks = tuple({em for em in H.edge_masks if em})
        best = 0
        for smask in range(1, 1 << n):
            traces = _restriction_trace_masks(masks, smask)
            if traces:
                best = max(best, _pseudo_value_of_traces(traces, smask))
        assert fast.reduced == best
