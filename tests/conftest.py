import random

import pytest

from hypertrace import Graph, build_hypergraph


@pytest.fixture
def tri():
    return build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])


@pytest.fixture
def p4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def random_hypergraph_instances(count, seed, max_n=10, max_m=25, allow_multi=False, min_m=0):
    """Seeded stream of small random hypergraphs for oracle suites."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        m = rng.randint(min_m, max_m)
        edges = []
        for _ in range(m):
            size = rng.randint(1, n)
            edges.append(frozenset(rng.sample(range(n), size)))
        out.append(build_hypergraph(n, edges, allow_multi=True) if allow_multi
                   else build_hypergraph(n, _dedup(edges)))
    return out


def _dedup(edges):
    seen, out = set(), []
    for e in edges:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def distinct_edges_hypergraph(n, m, half_density=False):
    """n vertices and m distinct nonempty edges, seeded by n and m: each
    edge holds 1-4 random vertices, or with ``half_density`` each vertex
    with probability 1/2."""
    rng = random.Random(n * 1000 + m)
    edges = set()
    while len(edges) < m:
        if half_density:
            e = frozenset(v for v in range(n) if rng.random() < 0.5)
        else:
            e = frozenset(rng.sample(range(n), rng.randint(1, 4)))
        if e:
            edges.add(e)
    return build_hypergraph(n, sorted(edges, key=sorted))
