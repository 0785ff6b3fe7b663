"""Exact trace function and the upper/lower bounds that frame it.

The trace function at size k is the largest number of distinct nonempty
traces any k-vertex subset can carry.  Four estimates accompany the exact
enumeration: the binomial-sum bound driven by VC dimension, the
max-degree bound, a chain of bounds driven by the degeneracy variants,
and the edge-count lower bound min(|E|, k+1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitset import bits
from .degeneracy import DegeneracyTriple
from .errors import BudgetExceededError, MultiEdgeError
from .hypergraph import Hypergraph

SUBSET_BUDGET_DEFAULT = 2_000_000
# Exact trace values feed the chain bounds only while enumeration stays cheap.
CHAIN_EXACT_WORK_LIMIT = 10_000_000
# Picks bounded by ``_partition_bound``, the last pick never.  Deeper down the
# search walks plain combinations: there a bound costs a few leaf evaluations
# and saves fewer.
_BOUND_DEPTH = 4


def trace_function_exact(
    H: Hypergraph,
    k: int,
    include_empty: bool = False,
    subset_budget: int = SUBSET_BUDGET_DEFAULT,
) -> tuple[int, tuple[int, ...]]:
    """Maximum distinct-trace count over all k-subsets, with one witness.

    Counts nonempty traces unless ``include_empty`` is set.  Ties among
    maximizing subsets break to the lexicographically first witness.  The
    search is a lexicographic depth-first search over vertex positions.  It
    stops at the first k-set whose count reaches the ceiling (the distinct
    edge count, or ``2^k``; without the empty trace, the distinct nonempty
    edge count or ``2^k - 1``), and it skips a prefix of the first
    ``_BOUND_DEPTH`` picks whose ``_partition_bound`` does not beat the best
    count so far.  Only a strictly larger count replaces the witness, so
    neither cut can change it.
    Refuses instances whose C(n, k) exceeds ``subset_budget``, whether or
    not the value is already in ``H.trace_memo``; otherwise each value is
    enumerated once per hypergraph and then served from the memo.
    """
    if not 0 <= k <= H.n:
        raise ValueError(f"k must be in [0, {H.n}]")
    total = comb(H.n, k)
    if total > subset_budget:
        raise BudgetExceededError(
            f"C({H.n},{k}) = {total} subsets exceed the budget", needed=total, budget=subset_budget
        )
    key = (k, include_empty)
    if key in H.trace_memo:
        return H.trace_memo[key]
    masks = H.distinct_masks
    n = H.n
    full = (1 << n) - 1
    singles = [1 << p for p in range(n)]
    if include_empty:
        ceiling = min(len(masks), 1 << k)
    else:
        ceiling = min(len(masks) - (0 in masks), (1 << k) - 1)
    top = min(max(k - 1, 0), _BOUND_DEPTH)
    best = -1
    best_mask = 0

    def search(depth: int, start: int, smask: int) -> bool:
        """Visit, in lexicographic order, the k-sets extending ``smask`` by
        positions from ``start`` on; True once ``best`` reaches the ceiling."""
        nonlocal best, best_mask
        left = k - depth
        if depth == top:
            for combo in combinations(singles[start:], left):
                s = smask + sum(combo)
                traces = {em & s for em in masks}
                count = len(traces) if include_empty else len(traces) - (0 in traces)
                if count > best:
                    best, best_mask = count, s
                    if best >= ceiling:
                        return True
            return False
        for p in range(start, n - left + 1):
            child = smask | singles[p]
            reach = child | (full >> (p + 1) << (p + 1))
            if _partition_bound(masks, child, reach, left - 1, include_empty) <= best:
                continue
            if search(depth + 1, p + 1, child):
                return True
        return False

    search(0, 0, 0)
    verts = H.vertex_list
    result = (best, tuple(verts[p] for p in bits(best_mask)))
    H.trace_memo[key] = result
    return result


def _partition_bound(
    masks: tuple[int, ...], smask: int, reach: int, left: int, include_empty: bool
) -> int:
    """Most traces a k-set can carry that adds ``left`` vertices to ``smask``,
    all taken from ``reach``.

    Edges that agree on ``reach`` end with one trace.  Edges that agree on
    ``smask`` split into at most ``2^left`` traces, one per pattern on the
    added vertices; edges apart on ``smask`` stay apart.  The group with the
    empty trace on ``smask`` yields at most ``2^left - 1`` nonempty traces.
    """
    groups = Counter(em & smask for em in {em & reach for em in masks})
    cap = 1 << left
    bound = sum(min(c, cap) for c in groups.values())
    if not include_empty and groups[0] >= cap:
        bound -= 1
    return bound


def trace_value(H: Hypergraph, j: int) -> tuple[int, str]:
    """``T_j`` for the bounds: exact while cheap, else the 2^j - 1 relaxation.

    Returns (value, form) with form "exact-T" or "power-of-two".  The exact
    value is used while C(n, j) times the distinct edge count stays within
    ``CHAIN_EXACT_WORK_LIMIT``.
    """
    if comb(H.n, j) * max(len(H.distinct_edges), 1) <= CHAIN_EXACT_WORK_LIMIT:
        t, _ = trace_function_exact(H, j, subset_budget=CHAIN_EXACT_WORK_LIMIT)
        return t, "exact-T"
    return (1 << j) - 1, "power-of-two"


def sauer_shelah_bound(d: int, k: int) -> int:
    """Binomial-sum trace bound for VC dimension d at subset size k.

    This classical count includes the empty trace; callers comparing
    against nonempty-only exact values must account for that themselves.
    Python integers are unbounded, so no overflow guard is needed.
    """
    if d < 0 or k < 0:
        raise ValueError("arguments must be non-negative")
    return sum(comb(k, i) for i in range(min(d, k) + 1))


def max_degree_bound(H: Hypergraph, k: int) -> int:
    """Trace bound k*(max_degree+1)/2 + 1, floored.

    Flooring the half-product is sound because trace counts are integers.
    The maximum degree is taken over distinct edges so multi-edge inputs do
    not weaken the bound (trace counts never see multiplicities).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    delta = 0
    counts: dict[int, int] = {}
    for e in H.distinct_edges:
        for v in e:
            counts[v] = counts.get(v, 0) + 1
    if counts:
        delta = max(counts.values())
    return k * (delta + 1) // 2 + 1


@dataclass(frozen=True)
class ChainBounds:
    """Degeneracy-driven trace bounds for one subset size.

    Each entry is (j, bound, form): the bound splits a k-subset into the
    first k-j peel steps, each contributing at most the reduced-degeneracy
    upper estimate, plus all traces on the last j vertices (exact trace
    value when cheap, else 2^j - 1).
    """

    k: int
    entries: tuple[tuple[int, int, str], ...]
    reduced_times_k: int
    classic_times_k: int
    delta_estimate_used: int
    safe_weakened: bool


def degeneracy_chain_bounds(
    H: Hypergraph,
    k: int,
    degeneracy: DegeneracyTriple,
    j_max: int | None = None,
) -> ChainBounds:
    """Evaluate the peel-split trace bounds for every j up to ``j_max``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    upper = degeneracy.reduced_upper
    j_top = k if j_max is None else min(j_max, k)
    entries = []
    for j in range(j_top + 1):
        t_j, form = trace_value(H, j)
        entries.append((j, upper * (k - j) + t_j, form))
    return ChainBounds(
        k=k,
        entries=tuple(entries),
        reduced_times_k=upper * k,
        classic_times_k=degeneracy.classic * k,
        delta_estimate_used=upper,
        safe_weakened=not degeneracy.reduced_exact,
    )


def trace_count_lower_bound(H: Hypergraph, k: int) -> int:
    """Lower bound min(|E|, k+1) on the best trace count of a k-subset.

    Only valid for hypergraphs without duplicate edges, and it bounds the
    trace count that includes the empty trace; the nonempty-only count can
    undershoot it by exactly one.
    """
    if H.has_duplicate_edges:
        raise MultiEdgeError("the min(|E|, k+1) lower bound assumes distinct edges")
    if k < 1:
        raise ValueError("k must be at least 1")
    return min(H.m, k + 1)


@dataclass(frozen=True)
class BoundProfile:
    """Exact trace value for one k next to every bound that frames it."""

    k: int
    exact: int | None
    exact_with_empty: int | None
    witness: tuple[int, ...] | None
    sauer_shelah: int | None
    max_degree: int
    chain: ChainBounds
    lower: int | None
    caveats: tuple[str, ...] = ()


def trace_bound_profile(
    H: Hypergraph,
    k: int,
    degeneracy: DegeneracyTriple,
    vc_dimension: int | None = None,
    j_max: int | None = None,
    subset_budget: int = SUBSET_BUDGET_DEFAULT,
) -> BoundProfile:
    """Assemble the full bound profile for one subset size.

    Exact values are skipped (left None) when enumeration would exceed the
    subset budget; the closed-form bounds are always present.
    """
    caveats: list[str] = []
    exact = exact_all = None
    witness = None
    try:
        exact, witness = trace_function_exact(H, k, subset_budget=subset_budget)
        exact_all, _ = trace_function_exact(H, k, include_empty=True, subset_budget=subset_budget)
    except BudgetExceededError:
        caveats.append("exact trace value skipped (budget)")
    ss = sauer_shelah_bound(vc_dimension, k) if vc_dimension is not None else None
    lower = None
    if k >= 1:
        try:
            lower = trace_count_lower_bound(H, k)
        except MultiEdgeError:
            caveats.append("lower bound unsupported on multi-edge input")
    return BoundProfile(
        k=k,
        exact=exact,
        exact_with_empty=exact_all,
        witness=witness,
        sauer_shelah=ss,
        max_degree=max_degree_bound(H, k),
        chain=degeneracy_chain_bounds(H, k, degeneracy, j_max=j_max),
        lower=lower,
        caveats=tuple(caveats),
    )
