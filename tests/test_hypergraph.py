import pytest
from hypothesis import given, settings, strategies as st

from hypertrace import (
    Hypergraph,
    build_hypergraph,
    degree_profile,
    max_degree_bound,
    peel_degeneracy,
    peel_pseudo_degeneracy,
    pseudo_induced,
    restriction,
    run_report,
    serialize_hypergraph,
    trace_family,
)
from oracles import brute_classic_peel, brute_pseudo_peel_order, brute_restriction_edges


@st.composite
def hypergraphs(draw, max_n=7, max_m=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = [
        frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        for _ in range(m)
    ]
    return build_hypergraph(n, edges, allow_multi=True)


def edge_sets(H):
    return sorted(tuple(sorted(e)) for e in H.edges)


def test_build_triangle(tri):
    assert tri.n == 3
    assert tri.m == 3
    assert tri.is_simple


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_hypergraph(2, [{0, 2}])


def test_build_collapses_duplicates_with_warning():
    with pytest.warns(UserWarning, match="collapsed 1 duplicate"):
        H = build_hypergraph(2, [{0}, {0}])
    assert H.m == 1


def test_build_keeps_duplicates_when_multi():
    H = build_hypergraph(2, [{0}, {0}], allow_multi=True)
    assert H.m == 2
    assert H.has_duplicate_edges


def test_build_accepts_explicit_empty_edge():
    H = build_hypergraph(2, [set(), {0}, {1}, {0, 1}])
    assert H.m == 4


def test_restriction_triangle(tri):
    R = restriction(tri, {1, 2})
    assert edge_sets(R) == [(1,), (1, 2), (2,)]
    assert R.vertices == frozenset({1, 2})


def test_restriction_identity_on_simple(tri):
    R = restriction(tri, tri.vertices)
    assert set(R.edges) == set(tri.edges)


def test_restriction_empty_base(tri):
    R = restriction(tri, set())
    assert R.n == 0
    assert R.m == 0


def test_pseudo_induced_triangle(tri):
    P = pseudo_induced(tri, {1, 2})
    assert edge_sets(P) == [(1, 2)]


def test_pseudo_induced_full(tri):
    assert pseudo_induced(tri, tri.vertices).edges == tri.edges


def test_pseudo_induced_p4_closed_neighborhoods():
    H = build_hypergraph(4, [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}])
    P = pseudo_induced(H, {0, 1, 2})
    assert edge_sets(P) == [(0, 1), (0, 1, 2)]


def test_trace_family_counts(tri):
    assert trace_family(tri, {0}).count == 1
    assert trace_family(tri, {0, 1}).count == 3
    assert trace_family(tri, set()).count == 0
    assert trace_family(tri, {0}, include_empty=True).count == 2


def test_degree_profile(tri):
    prof = degree_profile(tri)
    assert prof.degrees == {0: 2, 1: 2, 2: 2}
    assert (prof.min_degree, prof.max_degree) == (2, 2)


def test_degree_profile_p4_closed():
    H = build_hypergraph(4, [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}])
    assert degree_profile(H).degrees == {0: 2, 1: 3, 2: 3, 3: 2}


def test_degree_profile_edgeless():
    H = build_hypergraph(3, [])
    assert degree_profile(H).degrees == {0: 0, 1: 0, 2: 0}
    assert degree_profile(H).max_degree == 0


def test_degree_profile_counts_multiplicity():
    H = build_hypergraph(2, [{0}, {0}], allow_multi=True)
    assert degree_profile(H).degrees[0] == 2


def test_subset_validation(tri):
    with pytest.raises(ValueError, match="not in the hypergraph"):
        restriction(tri, {5})


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.data())
def test_restriction_matches_bruteforce(H, data):
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(H.vertices)), max_size=H.n)))
    R = restriction(H, S)
    assert set(R.edges) == brute_restriction_edges(H, S)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.data())
def test_trace_composition(H, data):
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(H.vertices)), max_size=H.n)))
    S2 = frozenset(data.draw(st.sets(st.sampled_from(sorted(S) or [0]), max_size=len(S)))) & S
    assert set(restriction(restriction(H, S), S2).edges) == set(restriction(H, S2).edges)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.data())
def test_pseudo_edges_inside_restriction(H, data):
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(H.vertices)), max_size=H.n)))
    P = pseudo_induced(H, S)
    R = restriction(H, S)
    assert set(P.edges) - {frozenset()} <= set(R.edges)
    pdeg = degree_profile(P).degrees
    rdeg = degree_profile(R).degrees
    for v in S:
        assert len({e for e in P.edges if v in e}) <= rdeg[v]
    hdeg = degree_profile(H).degrees
    for v in S:
        assert rdeg[v] <= hdeg[v]


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.data())
def test_trace_count_cap(H, data):
    S = frozenset(data.draw(st.sets(st.sampled_from(sorted(H.vertices)), max_size=H.n)))
    fam = trace_family(H, S)
    assert fam.count <= min(H.m, (1 << len(S)) - 1 if S else 0)
    assert all(t and t <= S for t in fam.traces)


def test_negative_ids_are_not_the_dense_range():
    # n - 1 is the last id, but the first is not 0: positions are not ids.
    H = Hypergraph(frozenset({-1, 0, 2}), (frozenset({-1, 0}), frozenset({0, 2}), frozenset({-1})))
    assert not H.is_dense
    classic, pseudo = peel_degeneracy(H), peel_pseudo_degeneracy(H)
    assert (classic.order, classic.degree_sequence) == brute_classic_peel(H)
    assert (pseudo.order, pseudo.degree_sequence) == brute_pseudo_peel_order(H.vertices, H.edges)
    assert max_degree_bound(H, 2) == 4
    with pytest.raises(ValueError):
        serialize_hypergraph(H)
    assert run_report(H).exit_code == 0
