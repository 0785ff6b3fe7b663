"""Canonical hypergraph values and the trace/restriction operations.

A hypergraph is a finite vertex set together with an ordered family of
edges, each edge a subset of the vertices.  Values are immutable; every
operation returns a new value, so instances are safe to share between
threads.  Derived data (the incidence, masks, the trace-function and
degeneracy memos) is cached on the value; it is a deterministic function of
the value, so a race between threads can only compute an entry twice, never
change it.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Incidence(NamedTuple):
    """Distinct nonempty edges over positions in ``vertex_list``, in
    first-occurrence order, with the ids of the edges at each position.

    ``edges`` holds each edge as a set, for the set algebra of the classic
    peel's merge test and of the shattering test; ``members`` holds the
    same positions as a tuple, for the loops that only visit them.
    """

    edges: tuple[frozenset[int], ...]
    edge_ids: tuple[tuple[int, ...], ...]
    members: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph on an explicit vertex set.

    Freshly built hypergraphs use the dense vertex range [0, n); sub-level
    operations (restriction, pseudo induced subhypergraphs) keep the
    original vertex ids, so the vertex set is stored explicitly.
    """

    vertices: frozenset[int]
    edges: tuple[frozenset[int], ...]
    allow_multi: bool = False

    def __post_init__(self):
        for e in self.edges:
            if not e <= self.vertices:
                bad = sorted(e - self.vertices)
                raise ValueError(f"edge vertex {bad[0]} outside the vertex set")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def has_duplicate_edges(self) -> bool:
        return len(self.distinct_edges) < len(self.edges)

    @property
    def is_simple(self) -> bool:
        return not self.has_duplicate_edges

    @cached_property
    def distinct_edges(self) -> tuple[frozenset[int], ...]:
        """Edges with duplicates collapsed, first occurrence order, empties kept.

        Every computation that cannot see multiplicities (peels, oracles,
        traces, shattering) reads the edges from here.
        """
        return tuple(dict.fromkeys(self.edges))

    @cached_property
    def vertex_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    @property
    def is_dense(self) -> bool:
        """Whether the vertex ids are exactly the range [0, n)."""
        verts = self.vertex_list
        return not verts or (verts[0] == 0 and verts[-1] == len(verts) - 1)

    @cached_property
    def vertex_pos(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertex_list)}

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Edges as bit vectors over positions in ``vertex_list``.

        Only intended for desk-scale enumeration; large instances should
        read the per-vertex edge ids of ``incidence`` instead.  The trace
        values a report asks for at every size, ``T_0``, ``T_1`` and
        ``T_n``, take closed forms on the incidence and build no masks.
        """
        return tuple(map(self.mask, self.edges))

    @cached_property
    def incidence(self) -> Incidence:
        """The one incidence structure of this value, shared by both peels,
        ``max_degree_bound``, the VC search and the closed-form trace values.

        On the dense range [0, n) a position is its vertex id, so the edge
        sets are the distinct nonempty edges themselves, not copies, and
        the member tuples hold the edges' own ints.  Off it, both hold the
        ints of ``vertex_pos``.  Either way no int is made per member.
        """
        n = self.n
        if self.is_dense:
            edges = self.distinct_edges
            if not all(edges):
                edges = tuple(filter(None, edges))
            members = tuple(map(tuple, edges))
        else:
            getpos = self.vertex_pos.__getitem__
            members = tuple([tuple(map(getpos, e)) for e in self.distinct_edges if e])
            edges = tuple(map(frozenset, members))
        lists: list[list[int]] = [[] for _ in range(n)]
        for i, e in enumerate(members):
            for p in e:
                lists[p].append(i)
        return Incidence(edges, tuple(map(tuple, lists)), members)

    @cached_property
    def distinct_masks(self) -> tuple[int, ...]:
        """``distinct_edges`` as bit vectors, in the same order."""
        return tuple(dict.fromkeys(self.edge_masks))

    @cached_property
    def trace_memo(self) -> dict[tuple[int, bool], tuple[int, tuple[int, ...]]]:
        """Exact trace-function results keyed by (k, include_empty), filled by
        ``trace_function_exact``, served by it at any budget and shared by
        every bound on this value."""
        return {}

    @cached_property
    def degeneracy_memo(self) -> list:
        """The ``DegeneracyTriple`` of this value once ``reduced_degeneracy``
        has peeled it (a list of at most one entry), read by every bound."""
        return []

    @cached_property
    def separating_memo(self) -> dict[bool, tuple[int, ...] | int]:
        """``separating_set`` outcomes keyed by ``selected_exempt``: the
        witness positions once found (a tuple), served at any budget, else
        the largest budget the search refused (an int)."""
        return {}

    def normalize_subset(self, subset: Iterable[int]) -> frozenset[int]:
        s = frozenset(subset)
        if not s <= self.vertices:
            bad = sorted(s - self.vertices)
            raise ValueError(f"vertex {bad[0]} not in the hypergraph")
        return s

    def mask(self, subset: Iterable[int]) -> int:
        """``subset`` as a bit vector over positions in ``vertex_list``."""
        pos = self.vertex_pos
        smask = 0
        for v in self.normalize_subset(subset):
            smask |= 1 << pos[v]
        return smask

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m}, multi={self.allow_multi})"


@dataclass(frozen=True)
class TraceFamily:
    """Distinct traces of a hypergraph's edges on a base subset."""

    base: frozenset[int]
    traces: tuple[frozenset[int], ...]
    count: int
    includes_empty: bool = False


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    """Per-vertex edge membership counts with min/max aggregates."""

    degrees: dict[int, int]
    min_degree: int
    max_degree: int


def build_hypergraph(n: int, edges: Iterable[Iterable[int]], allow_multi: bool = False) -> Hypergraph:
    """Validate and build a hypergraph on the dense vertex range [0, n).

    Unless ``allow_multi`` is set, duplicate edges are collapsed and the
    collapse is reported through a ``UserWarning``.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    vertices = frozenset(range(n))
    sets = []
    for e in edges:
        fe = frozenset(e)
        for v in fe:
            if not (0 <= v < n):
                raise ValueError(f"vertex {v} out of range [0, {n})")
        sets.append(fe)
    if not allow_multi:
        deduped = list(dict.fromkeys(sets))
        collapsed = len(sets) - len(deduped)
        if collapsed:
            warnings.warn(f"collapsed {collapsed} duplicate edge(s)", stacklevel=2)
        sets = deduped
    return Hypergraph(vertices, tuple(sets), allow_multi)


def restriction(H: Hypergraph, subset: Iterable[int]) -> Hypergraph:
    """Hypergraph on ``subset`` whose edges are the distinct nonempty traces.

    The trace of an edge e on S is e & S.  Empty traces are dropped and
    duplicates collapse regardless of the multi-edge flag.
    """
    fam = trace_family(H, subset)
    return Hypergraph(fam.base, fam.traces)


def pseudo_induced(H: Hypergraph, subset: Iterable[int]) -> Hypergraph:
    """Hypergraph on ``subset`` keeping exactly the edges fully inside it."""
    s = H.normalize_subset(subset)
    kept = tuple(e for e in H.edges if e <= s)
    return Hypergraph(s, kept, allow_multi=H.allow_multi)


def trace_family(H: Hypergraph, subset: Iterable[int], include_empty: bool = False) -> TraceFamily:
    """Distinct traces of all edges on ``subset``.

    The count excludes the empty trace unless ``include_empty`` is set.
    """
    s = H.normalize_subset(subset)
    traces = dict.fromkeys(e & s for e in H.distinct_edges)
    if not include_empty:
        traces.pop(frozenset(), None)
    return TraceFamily(s, tuple(traces), len(traces), include_empty)


def degree_profile(H: Hypergraph) -> DegreeProfile:
    """Exact edge-membership counts; duplicate edges count with multiplicity."""
    degrees = {v: 0 for v in H.vertices}
    for e in H.edges:
        for v in e:
            degrees[v] += 1
    if degrees:
        return DegreeProfile(degrees, min(degrees.values()), max(degrees.values()))
    return DegreeProfile({}, 0, 0)
