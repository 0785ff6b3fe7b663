"""Simple undirected graphs and their neighborhood hypergraphs."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices [0, n) with set adjacency."""

    n: int
    adj: tuple[frozenset[int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(frozenset(s) for s in nbrs))

    @property
    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    @cached_property
    def is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.is_connected()

    @cached_property
    def neighborhood_cache(self) -> dict[bool, Hypergraph]:
        """Neighborhood hypergraphs built so far, keyed by ``closed``."""
        return {}


def neighborhood_hypergraph(G: Graph, closed: bool = True) -> Hypergraph:
    """Hypergraph whose n edges are the closed (or open) neighborhoods.

    Twin vertices produce duplicate edges, so the result is built with
    the multi-edge flag; use ``find_twins`` to detect and report them.
    Each graph builds each side once and returns that same object later,
    so everything derived from it, such as its trace-function memo, is
    shared by every caller.
    """
    cached = G.neighborhood_cache.get(closed)
    if cached is not None:
        return cached
    vertices = frozenset(range(G.n))
    if closed:
        edges = tuple(G.adj[v] | {v} for v in range(G.n))
    else:
        edges = tuple(G.adj[v] for v in range(G.n))
    return G.neighborhood_cache.setdefault(closed, Hypergraph(vertices, edges, allow_multi=True))


def find_twins(G: Graph, closed: bool = True) -> list[tuple[int, int]]:
    """Pairs of vertices with identical closed (or open) neighborhoods,
    grouped from the edges of the cached neighborhood hypergraph.

    Each equivalence class of size t contributes its t-1 adjacent pairs in
    ascending order, enough to name every collapse.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for v, e in enumerate(neighborhood_hypergraph(G, closed).edges):
        groups.setdefault(e, []).append(v)
    return sorted((a, b) for members in groups.values() for a, b in zip(members, members[1:]))


@dataclass(frozen=True)
class TreeStats:
    """Leaf/support structure of a tree (fields populated for any graph)."""

    n: int
    is_tree: bool
    leaves: tuple[int, ...]
    supports: tuple[int, ...]
    canonical_supports: tuple[int, ...]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def support_count(self) -> int:
        return len(self.supports)


def tree_stats(G: Graph) -> TreeStats:
    """Leaves, support vertices, and canonical supports.

    Leaves are degree-1 vertices; supports are their neighbors.  Canonical
    supports are the leaves of the tree left after deleting every leaf;
    when that deletion leaves a single vertex it is the canonical support,
    and when it empties the tree the set is empty.
    """
    leaves = tuple(v for v in range(G.n) if len(G.adj[v]) == 1)
    leaf_set = set(leaves)
    supports = tuple(sorted({next(iter(G.adj[v])) for v in leaves}))
    canonical: tuple[int, ...] = ()
    if G.is_tree:
        rest = [v for v in range(G.n) if v not in leaf_set]
        if len(rest) == 1:
            canonical = (rest[0],)
        elif rest:
            canonical = tuple(
                v for v in rest if sum(1 for u in G.adj[v] if u not in leaf_set) == 1
            )
    return TreeStats(G.n, G.is_tree, leaves, supports, canonical)
