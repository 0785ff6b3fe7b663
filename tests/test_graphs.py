import pytest

from hypertrace import (
    Graph,
    find_twins,
    neighborhood_hypergraph,
    peel_degeneracy,
    random_gnp,
    tree_stats,
)


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_adjacency_is_symmetric(p4):
    for u in range(p4.n):
        for v in p4.adj[u]:
            assert u in p4.adj[v]
    assert p4.max_degree == 2
    assert p4.edge_count == 3


def test_closed_neighborhoods_p4(p4):
    H = neighborhood_hypergraph(p4, closed=True)
    assert [tuple(sorted(e)) for e in H.edges] == [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)]
    assert H.allow_multi


def test_neighborhood_hypergraph_is_one_object_per_side(p4):
    for closed in (True, False):
        assert neighborhood_hypergraph(p4, closed) is neighborhood_hypergraph(p4, closed)
    assert neighborhood_hypergraph(p4, True) is not neighborhood_hypergraph(p4, False)


def test_open_neighborhoods_k2():
    G = Graph.from_edges(2, [(0, 1)])
    H = neighborhood_hypergraph(G, closed=False)
    assert [tuple(sorted(e)) for e in H.edges] == [(1,), (0,)]


def test_open_neighborhoods_of_isolated_vertices_are_empty():
    G = Graph.from_edges(2, [])
    H = neighborhood_hypergraph(G, closed=False)
    assert all(not e for e in H.edges)
    assert H.has_duplicate_edges
    assert find_twins(G, closed=False) == [(0, 1)]


def test_twins():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert find_twins(star, closed=False) == [(1, 2), (2, 3)]
    assert find_twins(star, closed=True) == []
    K2 = Graph.from_edges(2, [(0, 1)])
    assert find_twins(K2, closed=True) == [(0, 1)]


def test_neighborhood_degeneracy_caps():
    for seed in range(25):
        G = random_gnp(8, 0.4, seed=seed)
        closed = peel_degeneracy(neighborhood_hypergraph(G, closed=True)).value
        open_ = peel_degeneracy(neighborhood_hypergraph(G, closed=False)).value
        assert closed <= G.max_degree + 1
        assert open_ <= G.max_degree


def test_tree_stats_p4(p4):
    stats = tree_stats(p4)
    assert stats.is_tree
    assert stats.leaves == (0, 3)
    assert stats.supports == (1, 2)
    assert stats.canonical_supports == (1, 2)
    assert stats.leaf_count >= stats.support_count


def test_tree_stats_star(star):
    stats = tree_stats(star)
    assert stats.leaves == (1, 2, 3)
    assert stats.supports == (0,)
    assert stats.canonical_supports == (0,)


def test_tree_stats_p2():
    stats = tree_stats(Graph.from_edges(2, [(0, 1)]))
    assert stats.leaves == (0, 1)
    assert stats.supports == (0, 1)
    assert stats.canonical_supports == ()


def test_tree_stats_non_tree():
    C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    stats = tree_stats(C4)
    assert not stats.is_tree
    assert stats.leaves == ()
    assert stats.canonical_supports == ()


def test_is_tree_detection():
    assert Graph.from_edges(1, []).is_tree
    assert not Graph.from_edges(2, []).is_tree
    assert not Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).is_tree
