"""Shattering tests and exact VC dimension with degeneracy pruning.

A subset S is shattered when every one of its 2^|S| subsets, the empty set
included, occurs as the trace of some edge on S.  The search for the
largest shattered set only needs to look at sizes up to
floor(log2(classic degeneracy)) + 1, which keeps exact computation
polynomial whenever the degeneracy is bounded.  Within a size the search
walks the k-sets with ``trace.walk`` and reads the edges through
``H.incidence``, never through n-bit edge masks.  If a k-set shatters,
each of its 2^(k-j) traces that hold j given vertices of it is left by its
own edge, so at least 2^(k-j) distinct edges contain those vertices, and
each other vertex of the set lies in at least 2^(k-j-1) of them.  The
trace search's ``shattering_reach`` applies this co-occurrence rule to
every prefix, for both searches.
Before walking a size d the search reads ``H.trace_memo``: vc(H) is the
largest d with ``T_d = 2^d``, the empty trace included, so a held ``T_d``
answers the size, and a held nonempty ``T_d`` below ``2^d - 1`` rules it
out.  The search never fills the memo itself; a full report has filled it
before its VC stage, and a standalone call walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degeneracy import reduced_degeneracy
from .errors import BudgetExceededError
from .hypergraph import Hypergraph, bits
from .trace import SUBSET_BUDGET_DEFAULT, shattering_reach, walk


@dataclass(frozen=True)
class VcResult:
    """Exact VC dimension with its witness and search-effort counters."""

    dimension: int
    witness: tuple[int, ...]
    upper_bound_used: int
    nodes_enumerated: int


def _shattered(H: Hypergraph, picks: list[int]) -> bool:
    """Whether the positions ``picks`` are shattered, read off ``H.incidence``.

    It counts the traces of the edges that meet the set, plus the empty
    trace iff some distinct edge, an empty one included, misses it.
    """
    edges, edge_ids, _ = H.incidence
    meeting = set().union(*map(edge_ids.__getitem__, picks))
    s = frozenset(picks)
    traces = {edges[e] & s for e in meeting}
    return len(traces) + (len(meeting) < len(H.distinct_edges)) == 1 << len(picks)


def is_shattered(H: Hypergraph, subset) -> bool:
    """True iff every subset of ``subset`` occurs as a trace.

    The empty subset must be realized by an actual edge disjoint from
    ``subset``; it is not granted vacuously.  The test reads only the
    edges that meet ``subset``, so a set of any size is answered.
    """
    s = H.normalize_subset(subset)
    return _shattered(H, [H.vertex_pos[v] for v in s])


def vc_upper_bound(H: Hypergraph) -> int:
    """Cap floor(log2(classic degeneracy)) + 1 on the VC dimension.

    Returns 0 for an edgeless hypergraph (degeneracy 0) by convention.
    """
    return reduced_degeneracy(H).classic.bit_length()


def vc_exact(H: Hypergraph, node_budget: int = SUBSET_BUDGET_DEFAULT) -> VcResult:
    """Exact VC dimension by size-ascending search under the degeneracy cap.

    Subset sizes are tried in ascending order; once no set of a size
    shatters, no larger set can (subsets of shattered sets are shattered),
    so the search exits early.  Within one size it tests the sets ``walk``
    yields in lexicographic order, so the reported witness is the
    lexicographically first.  Its ``keep`` is ``shattering_reach``: it
    refuses a prefix that fewer than ``2^left`` distinct edges contain and
    narrows the prefix's completions to the positions that at least
    ``2^(left-1)`` of those edges hold; neither drops a shattered set.
    ``_shattered`` tests each set, as ``is_shattered`` does.
    A size the trace memo holds is not walked.  A held ``T_d`` with the
    empty trace answers it: only a shattered d-set reaches ``2^d``, and the
    held witness is the lexicographically first d-set that does, the one
    the walk would return; any smaller value ends the search.  Otherwise
    a held nonempty ``T_d`` below ``2^d - 1`` ends it, since a shattered
    d-set carries all ``2^d - 1`` nonempty traces.
    ``nodes_enumerated`` counts only the sets walked, and ``node_budget``
    bounds them, so a memo answer is served at any budget.  The memo is
    read, never filled: a standalone call on a fresh hypergraph walks.
    """
    def keep(prefix: int, reach: int, p: int, left: int) -> int:
        return shattering_reach(H, prefix, p, left)

    cap = vc_upper_bound(H)
    memo = H.trace_memo
    dimension = 0
    witness: tuple[int, ...] = ()
    nodes = 0
    for size in range(1, cap + 1):
        held = memo.get((size, True))
        if held is not None:
            if held[0] < 1 << size:
                break
            dimension, witness = size, held[1]
            continue
        held = memo.get((size, False))
        if held is not None and held[0] < (1 << size) - 1:
            break
        for smask in walk(H.n, size, keep):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError("shattering-test budget exceeded", budget=node_budget)
            picks = list(bits(smask))
            if _shattered(H, picks):
                dimension, witness = size, tuple(H.vertex_list[p] for p in picks)
                break
        else:
            # No set of this size shatters, so no larger one does.
            break
    return VcResult(dimension, witness, cap, nodes)
