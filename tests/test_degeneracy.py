import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hypertrace import (
    build_hypergraph,
    neighborhood_hypergraph,
    peel_degeneracy,
    peel_pseudo_degeneracy,
    pseudo_induced,
    random_gnp,
    random_tree,
    reduced_degeneracy,
    restriction,
)
from hypertrace import degeneracy
from hypertrace.bench import instance_for_weight
from oracles import (
    brute_classic_peel,
    brute_degeneracy,
    brute_pseudo_degeneracy,
    brute_pseudo_peel,
    brute_pseudo_peel_order,
    brute_reduced,
    brute_restriction_edges,
    heap_peel_degeneracy,
    heap_peel_pseudo_degeneracy,
    min_degree,
    subsets,
)


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
    assert brute_degeneracy(tri) == 2
    assert brute_pseudo_degeneracy(tri) == 2


def test_reduced_triangle(tri):
    triple = reduced_degeneracy(tri)
    assert (triple.pseudo, triple.reduced, triple.classic) == (2, 2, 2)


def test_reduced_edgeless():
    triple = reduced_degeneracy(build_hypergraph(4, []))
    assert (triple.pseudo, triple.reduced, triple.classic) == (0, 0, 0)


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
    assert triple.pseudo <= triple.reduced <= triple.classic


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_peels_match_oracles(H):
    assert peel_degeneracy(H).value == brute_degeneracy(H)
    assert peel_pseudo_degeneracy(H).value == brute_pseudo_degeneracy(H)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_n=7))
def test_sandwich(H):
    triple = reduced_degeneracy(H)
    assert triple.pseudo <= triple.reduced <= triple.classic
    assert triple.reduced == brute_reduced(H)


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


def _peel_test_hypergraphs():
    """Multi-edge hypergraphs with empty edges, then restrictions and pseudo
    induced subhypergraphs of them, whose vertex ids are not [0, n)."""
    rng = random.Random(808)
    out = []
    for _ in range(60):
        n = rng.randint(1, 12)
        m = rng.randint(0, 16)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, min(n, 5)))) for _ in range(m)]
        H = build_hypergraph(n, edges, allow_multi=True)
        S = rng.sample(range(n), rng.randint(1, n))
        out += [H, restriction(H, S), pseudo_induced(H, S)]
    return out


def test_peel_orders_match_frozenset_replay():
    # Order and degree sequence, so the lowest-id tie-break is checked too.
    for H in _peel_test_hypergraphs():
        for result, replay in (
            (peel_degeneracy(H), brute_classic_peel(H)),
            (peel_pseudo_degeneracy(H), brute_pseudo_peel_order(H.vertices, H.edges)),
        ):
            assert (result.order, result.degree_sequence) == replay, (H.vertices, H.edges)
            assert result.value == max(result.degree_sequence, default=0)


@pytest.mark.parametrize("bits", [1, 2])
def test_classic_peel_under_hash_collisions(monkeypatch, bits):
    # With 1- or 2-bit keys nearly every class shares its hash with another,
    # so merges go through the collision chains.
    cases = _peel_test_hypergraphs()
    expected = [peel_degeneracy(H) for H in cases]
    monkeypatch.setattr(degeneracy, "HASH_KEY_BITS", bits)
    for H, want in zip(cases, expected):
        got = peel_degeneracy(H)
        assert got == want
        assert (got.order, got.degree_sequence) == brute_classic_peel(H)


def test_peel_orders_match_golden_digests_at_scale(monkeypatch):
    # sha256 of (order, degree_sequence) of the classic and the pseudo peel
    # on instances too large for the frozenset replays.  The 2-bit keys put
    # about 300 classes in 4 buckets, so chains of dozens of classes form.
    def digest(result):
        return hashlib.sha256(repr((result.order, result.degree_sequence)).encode()).hexdigest()

    H = instance_for_weight(20_000, seed=3)
    assert digest(peel_degeneracy(H)) == "334ac989142619ef676aebfbb2723864f8e311e70ea5441554c36135f80349e1"
    assert digest(peel_pseudo_degeneracy(H)) == "a2a22f6659d4f94e70087655b9753b320d2d4c6bfdd9df9219968062954d8433"
    monkeypatch.setattr(degeneracy, "HASH_KEY_BITS", 2)
    H = instance_for_weight(2_000, seed=3)
    assert digest(peel_degeneracy(H)) == "a79843b19d578254a44e3b09544450fd20172b632586a083bf073d6217d630e3"
    assert digest(peel_pseudo_degeneracy(H)) == "d2a614871c3dc5eb71820a9e104a17f7757a9a6a1c864d7e29c36f45400cadc9"


def _deep_drop_hypergraphs():
    """Sunflowers (two core vertices in every petal) and fans (a vertex v
    whose edges with u shrink onto edges u already has), with noise edges
    that keep the other degrees up.  In both, one removal can drop a
    neighbour two or more levels below the degree it was removed at: the
    pseudo peel deletes every petal with the first core vertex, and the
    classic peel merges several of u's classes when v goes."""
    rng = random.Random(1983)
    out = []
    for _ in range(30):
        n = rng.randint(8, 14)
        a, b, *rest = rng.sample(range(n), n)
        k = rng.randint(2, 5)
        petals = [frozenset({a, b, *rng.sample(rest, rng.randint(1, 2))}) for _ in range(k)]
        fans = [frozenset({a, x}) for x in rest[:k]] + [frozenset({a, b, x}) for x in rest[:k]]
        fans += [frozenset({b, y}) for y in rest[k : 2 * k]]
        for planted in (petals, fans):
            noise = [frozenset(rng.sample(rest, rng.randint(2, 4))) for _ in range(rng.randint(k, 4 * k))]
            out.append(build_hypergraph(n, planted + noise, allow_multi=True))
    return out


def _deep_drops(H, pseudo):
    """Steps of a frozenset replay of the peel at which some remaining
    vertex falls two or more below the degree the step removed at."""
    remaining, alive, drops = set(H.vertices), {e for e in H.edges if e}, 0
    order = (brute_pseudo_peel_order(H.vertices, H.edges) if pseudo else brute_classic_peel(H))[0]
    for v in order:
        edges = alive if pseudo else {e & remaining for e in H.edges} - {frozenset()}
        at = sum(1 for e in edges if v in e)
        remaining.discard(v)
        if pseudo:
            alive = {e for e in alive if v not in e}
            after = alive
        else:
            after = {e & remaining for e in H.edges} - {frozenset()}
        if any(sum(1 for e in after if u in e) <= at - 2 for u in remaining):
            drops += 1
    return drops


def test_bucket_queue_peels_match_the_heap_peels(monkeypatch):
    # Order and degree sequence against the deg * n + position heap on
    # small multi-edge inputs, on inputs where a removal drops a neighbour
    # two levels or more below the current one, on the bench instances,
    # and on two long edges that differ in one vertex.
    deep = _deep_drop_hypergraphs()
    assert sum(_deep_drops(H, pseudo=True) for H in deep) > 0
    assert sum(_deep_drops(H, pseudo=False) for H in deep) > 0
    long_pair = build_hypergraph(3_001, [range(3_000), [*range(2_999), 3_000]])
    cases = _peel_test_hypergraphs() + deep + [long_pair]
    cases += [instance_for_weight(20_000, seed) for seed in (0, 1, 2)]
    for H in cases:
        assert peel_degeneracy(H) == heap_peel_degeneracy(H), H.edges
        assert peel_pseudo_degeneracy(H) == heap_peel_pseudo_degeneracy(H), H.edges
    for bits in (1, 2):
        monkeypatch.setattr(degeneracy, "HASH_KEY_BITS", bits)
        for H in _peel_test_hypergraphs() + deep + [long_pair]:
            assert peel_degeneracy(H) == heap_peel_degeneracy(H), (bits, H.edges)


def test_peels_memory_at_100k_weight():
    H = instance_for_weight(100_000)
    tracemalloc.start()
    try:
        classic = peel_degeneracy(H)
        pseudo = peel_pseudo_degeneracy(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classic.order) == len(pseudo.order) == H.n
    # The shared incidence and the per-class counts.  Per-class trace sets
    # and an incidence built by each peel peaked near 13.6 MB.
    assert peak < 9_000_000


def _assert_reduced_is_classic(H):
    triple = reduced_degeneracy(H)
    assert triple.reduced == triple.classic == brute_degeneracy(H) == brute_reduced(H), H
    assert triple.pseudo <= triple.reduced


def test_reduced_is_classic_on_random_hypergraphs():
    # Multi-edge hypergraphs with empty edges, against a frozenset pseudo peel
    # of every restriction.
    rng = random.Random(2020)
    for _ in range(150):
        n = rng.randint(0, 9)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 14))]
        _assert_reduced_is_classic(build_hypergraph(n, edges, allow_multi=True))


def test_witness_seeded_exact_path_matches_plain_enumeration():
    # The classic peel's residual set at its peak is a witness: pseudo-peeling
    # that restriction attains the reduced value, and a plain enumeration of
    # every restriction finds nothing larger.
    rng = random.Random(5)
    for _ in range(2):
        n = 13
        edges = [frozenset(rng.sample(range(n), rng.randint(1, 4))) for _ in range(20)]
        H = build_hypergraph(n, edges, allow_multi=True)
        triple = reduced_degeneracy(H)
        peel = peel_degeneracy(H)
        peak = peel.degree_sequence.index(peel.value)
        witness = peel.order[peak:]
        assert brute_pseudo_peel(witness, brute_restriction_edges(H, witness)) == triple.reduced
        best = 0
        for S in subsets(H.vertices):
            best = max(best, brute_pseudo_peel(S, brute_restriction_edges(H, S)))
        assert triple.reduced == best


def test_reduced_is_classic_on_neighbourhood_hypergraphs():
    rng = random.Random(13)
    for _ in range(12):
        G = random_gnp(rng.randint(1, 10), rng.choice([0.15, 0.3, 0.5, 0.8]), seed=rng.randrange(10**9))
        T = random_tree(rng.randint(1, 10), seed=rng.randrange(10**9))
        for graph in (G, T):
            for closed in (True, False):
                _assert_reduced_is_classic(neighborhood_hypergraph(graph, closed))
