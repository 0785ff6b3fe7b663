"""Shattering tests and exact VC dimension with degeneracy pruning.

A subset S is shattered when every one of its 2^|S| subsets, the empty set
included, occurs as the trace of some edge on S.  The search for the
largest shattered set only needs to look at sizes up to
floor(log2(classic degeneracy)) + 1, which keeps exact computation
polynomial whenever the degeneracy is bounded.  A nonempty shattered set
is its own trace, so it lies inside one edge: only subsets of edges are
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import combinations

from .degeneracy import reduced_degeneracy
from .errors import BudgetExceededError
from .hypergraph import Hypergraph
from .trace import SUBSET_BUDGET_DEFAULT

SHATTER_SIZE_CAP = 30


@dataclass(frozen=True)
class VcResult:
    """Exact VC dimension with its witness and search-effort counters."""

    dimension: int
    witness: tuple[int, ...]
    upper_bound_used: int
    nodes_enumerated: int


def is_shattered(H: Hypergraph, subset) -> bool:
    """True iff every subset of ``subset`` occurs as a trace.

    The empty subset must be realized by an actual edge disjoint from
    ``subset``; it is not granted vacuously.
    """
    smask = H.mask(subset)
    size = smask.bit_count()
    if size > SHATTER_SIZE_CAP:
        raise BudgetExceededError(f"shattering test capped at {SHATTER_SIZE_CAP} vertices")
    # All traces are submasks of S, so S is shattered iff all 2^|S| appear.
    return len({em & smask for em in H.distinct_masks}) == 1 << size


def vc_upper_bound(H: Hypergraph) -> int:
    """Cap floor(log2(classic degeneracy)) + 1 on the VC dimension.

    Returns 0 for an edgeless hypergraph (degeneracy 0) by convention.
    """
    return reduced_degeneracy(H).classic.bit_length()


def _edge_subsets(H: Hypergraph, size: int):
    """Distinct ``size``-subsets of edges, lazily, in lexicographic order."""
    last = None
    for combo in merge(*(combinations(sorted(e), size) for e in H.distinct_edges)):
        if combo != last:
            last = combo
            yield combo


def vc_exact(H: Hypergraph, node_budget: int = SUBSET_BUDGET_DEFAULT) -> VcResult:
    """Exact VC dimension by size-ascending search under the degeneracy cap.

    Subset sizes are tried in ascending order; once no set of a size
    shatters, no larger set can (subsets of shattered sets are shattered),
    so the search exits early.  Within one size the candidates are the
    distinct subsets of edges in lexicographic order, which holds every
    shattered set of that size, so the reported witness is the
    lexicographically first.  ``node_budget`` bounds the candidates tested.
    """
    cap = vc_upper_bound(H)
    dimension = 0
    witness: tuple[int, ...] = ()
    nodes = 0
    for size in range(1, cap + 1):
        found = None
        for combo in _edge_subsets(H, size):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError("shattering-test budget exceeded", budget=node_budget)
            if is_shattered(H, combo):
                found = combo
                break
        if found is None:
            break
        dimension, witness = size, found
    return VcResult(dimension, witness, cap, nodes)
