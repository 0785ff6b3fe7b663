"""Min-degree peeling engines for the three degeneracy variants.

Three quantities are computed, all defined through repeated removal of a
minimum-degree vertex:

* classic degeneracy  -- the residual hypergraph after each removal is the
  restriction to the remaining vertices, so traces that became equal merge
  into one edge;
* pseudo degeneracy   -- each removal deletes the vertex together with every
  edge containing it, and surviving edges are never modified;
* reduced degeneracy  -- the largest pseudo degeneracy over all restrictions,
  found by subset enumeration at desk scale.

All three are evaluated on the distinct edges of the input: duplicate edges
say nothing about which vertex subsets can be separated, and keeping them
would break the pseudo <= reduced <= classic ordering on multi-edge inputs
(duplicates inflate pseudo-peel degrees while restrictions collapse them).
Callers that care about multiplicities should consult ``degree_profile``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import xor

from .bitset import bits
from .errors import BudgetExceededError
from .hypergraph import Hypergraph

ORACLE_VERTEX_CAP = 20
EXACT_LIMIT_DEFAULT = 18


@dataclass(frozen=True)
class PeelResult:
    """A vertex elimination order with the degree observed at each removal."""

    order: tuple[int, ...]
    degree_sequence: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class DegeneracyTriple:
    """The three degeneracy variants of one hypergraph.

    ``reduced_low == reduced_high`` iff the reduced value is exact; otherwise
    the pair is the sandwich envelope [pseudo, classic].
    """

    pseudo: int
    classic: int
    reduced_low: int
    reduced_high: int
    reduced_exact: bool

    @property
    def reduced(self) -> int | tuple[int, int]:
        if self.reduced_exact:
            return self.reduced_low
        return (self.reduced_low, self.reduced_high)

    @property
    def reduced_upper(self) -> int:
        """Best available upper estimate of the reduced degeneracy."""
        return self.reduced_high


def peel_degeneracy(H: Hypergraph) -> PeelResult:
    """Classic degeneracy by peeling with trace deduplication.

    At each step the residual hypergraph is the restriction to the remaining
    vertices.  Edges are grouped into classes of equal current trace; a
    vertex's degree is the number of classes containing it.  Removing vertex
    x re-keys only the classes whose trace contains x, merging any class
    whose shrunken trace collides with an existing one.  Ties on minimum
    degree break toward the lowest vertex id, which makes peel orders
    reproducible.
    """
    verts = H.vertex_list
    n = len(verts)
    if n == 0:
        return PeelResult((), (), 0)

    # Dense ids need no position mapping; the distinct edges serve directly.
    dense = verts[-1] == n - 1
    pos = None if dense else H.vertex_pos
    rng = random.Random(0x7E37)
    key = [rng.getrandbits(62) for _ in range(n)]

    # Classes of equal current trace, deduplicated through incremental XOR
    # hashing; a hash hit is confirmed by full set equality before merging.
    # A bucket value is a bare class id, escalated to a list on collision.
    # A dead class is marked by trace[cid] is None.
    getkey = key.__getitem__
    if dense:
        trace: list[set[int] | None] = [set(e) for e in H.distinct_edges if e]
    else:
        trace = [{pos[v] for v in e} for e in H.distinct_edges if e]
    thash = [reduce(xor, map(getkey, t), 0) for t in trace]
    buckets: dict[int, int | list[int]] = {}
    member: list[list[int]] = [[] for _ in range(n)]
    for cid, t in enumerate(trace):
        h = thash[cid]
        slot = buckets.setdefault(h, cid)
        if slot != cid:
            # 62-bit hash collision between distinct initial traces: chain.
            if type(slot) is list:
                slot.append(cid)
            else:
                buckets[h] = [slot, cid]
        for p in t:
            member[p].append(cid)
    deg = [len(lst) for lst in member]

    def matches(slot, t: set[int]) -> bool:
        if type(slot) is list:
            return any(trace[c] == t for c in slot)
        return trace[slot] == t

    # Heap entries are deg * n + vertex: min degree first, lowest id on ties.
    heap = [d * n + p for p, d in enumerate(deg)]
    heapify(heap)
    removed = bytearray(n)
    order: list[int] = []
    seq: list[int] = []
    push = heappush
    count = 0
    while count < n:
        d, v = divmod(heappop(heap), n)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = 1
        count += 1
        order.append(verts[v])
        seq.append(d)
        kv = key[v]
        for cid in member[v]:
            t = trace[cid]
            if t is None:
                continue
            oldh = thash[cid]
            slot = buckets.pop(oldh)
            if type(slot) is list:
                slot.remove(cid)
                if slot:
                    buckets[oldh] = slot[0] if len(slot) == 1 else slot
            t.discard(v)
            if not t:
                trace[cid] = None
                continue
            newh = oldh ^ kv
            occupant = buckets.setdefault(newh, cid)
            if occupant == cid:
                thash[cid] = newh
            elif matches(occupant, t):
                # Two classes now carry the same trace: the survivors lose one.
                trace[cid] = None
                for u in t:
                    du = deg[u] = deg[u] - 1
                    push(heap, du * n + u)
            else:
                # Distinct traces sharing a 62-bit hash: chain them.
                thash[cid] = newh
                if type(occupant) is list:
                    occupant.append(cid)
                else:
                    buckets[newh] = [occupant, cid]
        member[v] = []
    return PeelResult(tuple(order), tuple(seq), max(seq, default=0))


def peel_pseudo_degeneracy(H: Hypergraph) -> PeelResult:
    """Pseudo degeneracy by peeling with edge deletion.

    Each removal drops the chosen minimum-degree vertex together with every
    edge still containing it; remaining edges are untouched.
    """
    verts = H.vertex_list
    n = len(verts)
    if n == 0:
        return PeelResult((), (), 0)

    if verts[-1] == n - 1:
        edges = [list(e) for e in H.distinct_edges]
    else:
        pos = H.vertex_pos
        edges = [[pos[v] for v in e] for e in H.distinct_edges]
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for p in e:
            inc[p].append(i)
    deg = [len(lst) for lst in inc]
    alive = bytearray(b"\x01") * len(edges)

    heap = [d * n + p for p, d in enumerate(deg)]
    heapify(heap)
    removed = bytearray(n)
    order: list[int] = []
    seq: list[int] = []
    push = heappush
    while len(order) < n:
        d, v = divmod(heappop(heap), n)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = 1
        order.append(verts[v])
        seq.append(d)
        for i in inc[v]:
            if alive[i]:
                alive[i] = 0
                for u in edges[i]:
                    if u != v:
                        du = deg[u] = deg[u] - 1
                        push(heap, du * n + u)
    return PeelResult(tuple(order), tuple(seq), max(seq, default=0))


def _pseudo_value_of_traces(trace_masks: list[int], smask: int) -> int:
    """Pseudo-peel value of the hypergraph (bits of smask, trace_masks)."""
    vs = list(bits(smask))
    inc: dict[int, list[int]] = {v: [] for v in vs}
    for i, t in enumerate(trace_masks):
        for v in bits(t):
            inc[v].append(i)
    deg = {v: len(inc[v]) for v in vs}
    alive = [True] * len(trace_masks)
    remaining = set(vs)
    best = 0
    while remaining:
        v = min(remaining, key=lambda u: (deg[u], u))
        if deg[v] > best:
            best = deg[v]
        remaining.discard(v)
        for i in inc[v]:
            if alive[i]:
                alive[i] = False
                for u in bits(trace_masks[i]):
                    if u != v:
                        deg[u] -= 1
    return best


def _restriction_trace_masks(edge_masks: tuple[int, ...], smask: int) -> list[int]:
    seen: set[int] = set()
    out = []
    for em in edge_masks:
        t = em & smask
        if t and t not in seen:
            seen.add(t)
            out.append(t)
    return out


def degeneracy_oracle(H: Hypergraph) -> int:
    """Largest minimum degree over all restrictions, by full enumeration.

    Exponential reference implementation used to validate the peeling
    engines; refuses anything above a hard vertex cap.
    """
    n = H.n
    if n > ORACLE_VERTEX_CAP:
        raise BudgetExceededError(f"oracle capped at {ORACLE_VERTEX_CAP} vertices", needed=n)
    masks = H.distinct_masks
    best = 0
    for smask in range(1, 1 << n):
        traces = {em & smask for em in masks}
        traces.discard(0)
        if len(traces) <= best:
            continue
        union = 0
        for t in traces:
            union |= t
        if union != smask:
            continue  # some vertex of S has degree 0
        mind = min(sum(1 for t in traces if t >> v & 1) for v in bits(smask))
        if mind > best:
            best = mind
    return best


def pseudo_degeneracy_oracle(H: Hypergraph) -> int:
    """Largest minimum degree over all pseudo induced subhypergraphs."""
    n = H.n
    if n > ORACLE_VERTEX_CAP:
        raise BudgetExceededError(f"oracle capped at {ORACLE_VERTEX_CAP} vertices", needed=n)
    masks = [em for em in H.distinct_masks if em]
    best = 0
    for smask in range(1, 1 << n):
        kept = [em for em in masks if em & smask == em]
        if len(kept) <= best:
            continue
        union = 0
        for t in kept:
            union |= t
        if union != smask:
            continue
        mind = min(sum(1 for t in kept if t >> v & 1) for v in bits(smask))
        if mind > best:
            best = mind
    return best


def reduced_degeneracy(H: Hypergraph, exact_limit: int = EXACT_LIMIT_DEFAULT) -> DegeneracyTriple:
    """All three degeneracy variants, with the reduced value exact when feasible.

    The reduced degeneracy is the maximum pseudo-peel value over all
    restrictions.  Up to ``exact_limit`` vertices the enumeration starts
    from the classic peel's witness subset (the residual vertex set at the
    step attaining the classic value) and stops as soon as the running
    maximum reaches the classic degeneracy, which is a sound cap because
    merging traces never lowers a degree below its pseudo counterpart.
    Above ``exact_limit`` the sandwich envelope [pseudo, classic] is
    reported instead.
    """
    classic_peel = peel_degeneracy(H)
    pseudo_peel = peel_pseudo_degeneracy(H)
    classic = classic_peel.value
    pseudo = pseudo_peel.value
    n = H.n
    if n > exact_limit:
        return DegeneracyTriple(pseudo, classic, pseudo, classic, False)
    if n == 0:
        return DegeneracyTriple(0, 0, 0, 0, True)
    masks = H.distinct_masks
    # Witness-first evaluation: the residual set at the peak peel step.
    peak = classic_peel.degree_sequence.index(classic)
    witness = 0
    pos = H.vertex_pos
    for v in classic_peel.order[peak:]:
        witness |= 1 << pos[v]
    best = _pseudo_value_of_traces(_restriction_trace_masks(masks, witness), witness)
    if best < classic:
        for smask in range(1, 1 << n):
            traces = _restriction_trace_masks(masks, smask)
            if len(traces) <= best:
                continue
            val = _pseudo_value_of_traces(traces, smask)
            if val > best:
                best = val
                if best >= classic:
                    break
    return DegeneracyTriple(pseudo, classic, best, best, True)
