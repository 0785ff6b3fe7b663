"""Min-degree peeling engines for the three degeneracy variants.

Three quantities are defined through repeated removal of a minimum-degree
vertex:

* classic degeneracy  -- the residual hypergraph after each removal is the
  restriction to the remaining vertices, so traces that became equal merge
  into one edge;
* pseudo degeneracy   -- each removal deletes the vertex together with every
  edge containing it, and surviving edges are never modified;
* reduced degeneracy  -- the largest pseudo degeneracy over all restrictions.
  It equals the classic degeneracy for every hypergraph (the proof is on
  ``DegeneracyTriple.reduced``), so the two peels compute all three.

All three are evaluated on the distinct edges of the input: duplicate edges
say nothing about which vertex subsets can be separated, and keeping them
would break the pseudo <= reduced <= classic ordering on multi-edge inputs
(duplicates inflate pseudo-peel degrees while restrictions collapse them).
Callers that care about multiplicities should consult ``degree_profile``.

Both peels pick their next vertex from one bucket queue, after Matula and
Beck (1983) and Batagelj and Zaversnik (2003), that keeps ties on the
lowest position, so peel orders are reproducible.  ``heaps[d]`` is a
min-heap of positions: at the start every position is appended to the
level of its degree in ascending order, so each level is already a heap.
A position whose degree falls to ``d`` is appended to ``pending[d]``, an
append-only list, and the current level ``cur`` drops to the lowest degree
any decrement of the step reached.  At level ``cur`` the queue first
pushes into ``heaps[cur]`` each pending entry still live and still at
degree ``cur``, then pops the lowest position, skipping stale entries; an
empty level steps ``cur`` up by one.  Degrees only fall, so no level below
``cur`` holds a live vertex and the pop is the lowest live position of
minimum degree.  The work is linear in the edge weight plus a log-cost push
for each entry that reaches the current level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import xor

from .hypergraph import Hypergraph

# The classic peel hashes a trace as the XOR of per-vertex random keys of
# this width, drawn from one shared source.  Keys of one 30-bit digit keep
# the hash arithmetic on single-digit ints; the collisions this allows are
# chained and resolved exactly.  A class merges only after an exact test, so
# peel results never depend on the keys, and a call need not seed its own
# generator.
HASH_KEY_BITS = 30
_KEY_SOURCE = random.Random(0x7E37)


@dataclass(frozen=True)
class PeelResult:
    """A vertex elimination order with the degree observed at each removal."""

    order: tuple[int, ...]
    degree_sequence: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class DegeneracyTriple:
    """The three degeneracy variants of one hypergraph, from its two peels."""

    pseudo: int
    classic: int

    @property
    def reduced(self) -> int:
        """The largest pseudo-peel value over all restrictions: ``classic``.

        (<=) A pseudo peel removes each vertex at no more than its degree in
        the restriction to the vertices left, and a restriction of a
        restriction is a restriction, so no value exceeds ``classic``.
        (>=) Let S be the classic peel's residual set at its peak: the first
        pseudo step on H|S removes a vertex of degree mindeg(H|S) = classic.
        """
        return self.classic


def _levels(H: Hypergraph, deg: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """The bucket queue's ``heaps`` and empty ``pending`` lists over ``deg``.

    On the dense range a position is its vertex id, so the heaps hold
    ``vertex_list``'s own ints and make none.
    """
    top = max(deg, default=0)
    heaps: list[list[int]] = [[] for _ in range(top + 1)]
    for p, d in zip(H.vertex_list if H.is_dense else range(len(deg)), deg):
        heaps[d].append(p)
    return heaps, [[] for _ in range(top + 1)]


def _take(
    heaps: list[list[int]], pending: list[list[int]], deg: list[int], removed: bytearray, cur: int
) -> tuple[int, int]:
    """The lowest live position of minimum degree and that degree, searched
    from level ``cur`` up: each level first takes in its pending entries
    still live and at its degree, then pops past its stale entries."""
    while True:
        heap = heaps[cur]
        fresh = pending[cur]
        if fresh:
            for u in fresh:
                if deg[u] == cur and not removed[u]:
                    heappush(heap, u)
            fresh.clear()
        while heap:
            v = heappop(heap)
            if deg[v] == cur and not removed[v]:
                return v, cur
        cur += 1


def peel_degeneracy(H: Hypergraph) -> PeelResult:
    """Classic degeneracy by peeling with trace deduplication.

    At each step the residual hypergraph is the restriction to the remaining
    vertices.  Edges are grouped into classes of equal current trace; a
    vertex's degree is the number of classes containing it.  A class's
    current trace is its original edge minus the removed vertices, so a
    class keeps only a live count and an XOR hash of that trace.  Removing
    vertex x re-keys only the classes whose trace contains x, merging any
    class whose shrunken trace collides with an existing one.  Ties on
    minimum degree break toward the lowest vertex id, which makes peel
    orders reproducible.
    """
    verts = H.vertex_list
    n = len(verts)
    edges, edge_ids, members = H.incidence
    draw = _KEY_SOURCE.getrandbits
    key = [draw(HASH_KEY_BITS) for _ in range(n)]

    # A class is alive while live[cid] > 0.  Buckets map a trace hash to a
    # bare class id, escalated to a list on a collision of distinct traces.
    live = list(map(len, members))
    getkey = key.__getitem__
    thash = [reduce(xor, map(getkey, e)) for e in members]
    buckets: dict[int, int | list[int]] = {}
    for cid, h in enumerate(thash):
        slot = buckets.setdefault(h, cid)
        if slot != cid:
            if type(slot) is list:
                slot.append(cid)
            else:
                buckets[h] = [slot, cid]
    deg = list(map(len, edge_ids))
    removed = bytearray(n)

    heaps, pending = _levels(H, deg)
    order: list[int] = []
    seq: list[int] = []
    cur = 0
    for _ in verts:
        v, cur = _take(heaps, pending, deg, removed, cur)
        removed[v] = 1
        order.append(verts[v])
        seq.append(cur)
        kv = key[v]
        for cid in edge_ids[v]:
            c = live[cid]
            if not c:
                continue
            oldh = thash[cid]
            slot = buckets.pop(oldh)
            if type(slot) is list:
                slot.remove(cid)
                if slot:
                    buckets[oldh] = slot
            live[cid] = c = c - 1
            if not c:
                continue
            newh = oldh ^ kv
            occupant = buckets.setdefault(newh, cid)
            # setdefault hands back cid itself when the hash was free.
            if occupant is cid:
                thash[cid] = newh
                continue
            # Two classes carry the same trace when their live counts are
            # equal and every vertex of one original edge outside the other
            # is removed.  A class not yet re-keyed for the vertex just
            # removed still counts it, so it never passes.
            e = edges[cid]
            same = False
            for o in occupant if type(occupant) is list else (occupant,):
                if live[o] == c:
                    for u in e - edges[o]:
                        if not removed[u]:
                            break
                    else:
                        same = True
                        break
            if same:
                # The survivors lose one class.
                live[cid] = 0
                for u in members[cid]:
                    if not removed[u]:
                        du = deg[u] = deg[u] - 1
                        pending[du].append(u)
                        if du < cur:
                            cur = du
            else:
                # Distinct traces sharing a hash: chain them.
                thash[cid] = newh
                if type(occupant) is list:
                    occupant.append(cid)
                else:
                    buckets[newh] = [occupant, cid]
    return PeelResult(tuple(order), tuple(seq), max(seq, default=0))


def peel_pseudo_degeneracy(H: Hypergraph) -> PeelResult:
    """Pseudo degeneracy by peeling with edge deletion.

    Each removal drops the chosen minimum-degree vertex together with every
    edge still containing it; remaining edges are untouched.
    """
    verts = H.vertex_list
    _, edge_ids, members = H.incidence
    deg = list(map(len, edge_ids))
    alive = bytearray(b"\x01") * len(members)

    heaps, pending = _levels(H, deg)
    removed = bytearray(len(verts))
    order: list[int] = []
    seq: list[int] = []
    cur = 0
    for _ in verts:
        v, cur = _take(heaps, pending, deg, removed, cur)
        removed[v] = 1
        order.append(verts[v])
        seq.append(cur)
        for i in edge_ids[v]:
            if alive[i]:
                alive[i] = 0
                for u in members[i]:
                    if u != v:
                        du = deg[u] = deg[u] - 1
                        pending[du].append(u)
                        if du < cur:
                            cur = du
    return PeelResult(tuple(order), tuple(seq), max(seq, default=0))


def reduced_degeneracy(H: Hypergraph) -> DegeneracyTriple:
    """All three degeneracy variants: the two peels, and ``reduced`` is ``classic``.

    The one degeneracy gate: each peel runs once per hypergraph, and the
    triple is kept in ``H.degeneracy_memo`` for every bound on the value.
    """
    memo = H.degeneracy_memo
    if not memo:
        memo.append(DegeneracyTriple(peel_pseudo_degeneracy(H).value, peel_degeneracy(H).value))
    return memo[0]
