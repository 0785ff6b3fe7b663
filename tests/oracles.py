"""Independent brute-force reference implementations.

Everything here works on plain frozensets with itertools enumeration and
never touches the package's bitmask or peeling code paths, so agreement
between the two is meaningful evidence.
"""

import random
import warnings
from collections import Counter
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from math import comb
from operator import xor

from hypertrace import degeneracy
from hypertrace.degeneracy import PeelResult
from hypertrace.errors import BudgetExceededError, FormatError
from hypertrace.graphs import Graph
from hypertrace.hypergraph import Hypergraph
from hypertrace.io import _content_lines, _header


def subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def traces_on(H: Hypergraph, S, include_empty=False):
    S = frozenset(S)
    out = {e & S for e in H.edges}
    if not include_empty:
        out.discard(frozenset())
    return out


def brute_trace_function(H: Hypergraph, k: int, include_empty=False):
    best, witness = -1, ()
    for combo in combinations(sorted(H.vertices), k):
        count = len(traces_on(H, combo, include_empty))
        if count > best:
            best, witness = count, combo
    return max(best, 0), witness


def min_degree(H: Hypergraph) -> int:
    if not H.vertices:
        return 0
    return min(sum(1 for e in H.edges if v in e) for v in H.vertices)


def brute_restriction_edges(H: Hypergraph, S):
    S = frozenset(S)
    return {e & S for e in H.edges if e & S}


def brute_degeneracy(H: Hypergraph) -> int:
    """Classic degeneracy: the largest minimum degree over all restrictions."""
    best = 0
    for S in subsets(H.vertices):
        traces = brute_restriction_edges(H, S)
        if len(traces) > best:
            best = max(best, min(sum(1 for t in traces if v in t) for v in S))
    return best


def brute_pseudo_degeneracy(H: Hypergraph) -> int:
    """Pseudo degeneracy: the largest minimum degree over all pseudo induced
    subhypergraphs, whose edges are the nonempty edges inside S."""
    edges = {e for e in H.edges if e}
    best = 0
    for S in map(frozenset, subsets(H.vertices)):
        kept = [e for e in edges if e <= S]
        if len(kept) > best:
            best = max(best, min(sum(1 for e in kept if v in e) for v in S))
    return best


def brute_pseudo_peel_order(vertices, edges):
    """(order, degree sequence) of the pseudo peel: remove the lowest-id
    vertex of minimum degree with every edge on it."""
    remaining, alive, order, seq = set(vertices), set(edges) - {frozenset()}, [], []
    while remaining:
        v = min(remaining, key=lambda u: (sum(1 for e in alive if u in e), u))
        order.append(v)
        seq.append(sum(1 for e in alive if v in e))
        remaining.discard(v)
        alive = {e for e in alive if v not in e}
    return tuple(order), tuple(seq)


def brute_pseudo_peel(vertices, edges) -> int:
    """Pseudo-peel value: drop a minimum-degree vertex with every edge on it."""
    return max(brute_pseudo_peel_order(vertices, edges)[1], default=0)


def brute_classic_peel(H: Hypergraph):
    """(order, degree sequence) of the classic peel: remove the lowest-id
    vertex of minimum degree in the restriction to the vertices left."""
    remaining, order, seq = set(H.vertices), [], []
    while remaining:
        traces = {e & remaining for e in H.edges} - {frozenset()}
        v = min(remaining, key=lambda u: (sum(1 for t in traces if u in t), u))
        order.append(v)
        seq.append(sum(1 for t in traces if v in t))
        remaining.discard(v)
    return tuple(order), tuple(seq)


def brute_reduced(H: Hypergraph) -> int:
    """Reduced degeneracy: the largest pseudo-peel value over all restrictions."""
    return max(brute_pseudo_peel(S, brute_restriction_edges(H, S)) for S in subsets(H.vertices))


def heap_peel_degeneracy(H: Hypergraph) -> PeelResult:
    """The classic peel on one heap keyed ``deg * n + position``, the
    reference the bucket-queue peel must match in order and degree
    sequence.  It reads the key width from the package at call time, so a
    test that narrows the keys narrows them here too."""
    verts = H.vertex_list
    n = len(verts)
    edges, edge_ids, _ = H.incidence
    draw = degeneracy._KEY_SOURCE.getrandbits
    key = [draw(degeneracy.HASH_KEY_BITS) for _ in range(n)]

    # A class is alive while live[cid] > 0.  Buckets map a trace hash to a
    # bare class id, escalated to a list on a collision of distinct traces.
    live = list(map(len, edges))
    getkey = key.__getitem__
    thash = [reduce(xor, map(getkey, e)) for e in edges]
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

    # Heap entries are deg * n + vertex: min degree first, lowest id on ties.
    heap = [d * n + p for p, d in enumerate(deg)]
    heapify(heap)
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
            if occupant == cid:
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
                for u in e:
                    if not removed[u]:
                        du = deg[u] = deg[u] - 1
                        push(heap, du * n + u)
            else:
                # Distinct traces sharing a hash: chain them.
                thash[cid] = newh
                if type(occupant) is list:
                    occupant.append(cid)
                else:
                    buckets[newh] = [occupant, cid]
    return PeelResult(tuple(order), tuple(seq), max(seq, default=0))


def heap_peel_pseudo_degeneracy(H: Hypergraph) -> PeelResult:
    """The pseudo peel on one heap keyed ``deg * n + position``, the
    reference the bucket-queue peel must match in order and degree
    sequence."""
    verts = H.vertex_list
    n = len(verts)
    edges, edge_ids, _ = H.incidence
    deg = list(map(len, edge_ids))
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
        for i in edge_ids[v]:
            if alive[i]:
                alive[i] = 0
                for u in edges[i]:
                    if u != v:
                        du = deg[u] = deg[u] - 1
                        push(heap, du * n + u)
    return PeelResult(tuple(order), tuple(seq), max(seq, default=0))


def brute_is_shattered(H: Hypergraph, S) -> bool:
    S = frozenset(S)
    realized = {e & S for e in H.edges}
    return all(frozenset(X) in realized for X in subsets(S))


def brute_vc(H: Hypergraph) -> int:
    best = 0
    for S in subsets(H.vertices):
        if brute_is_shattered(H, S):
            best = max(best, len(S))
    return best


def brute_dt(H: Hypergraph):
    assert H.is_simple
    for combo in subsets(H.vertices):
        S = frozenset(combo)
        ts = [e & S for e in H.edges]
        if all(ts) and len(set(ts)) == len(ts):
            return len(S)
    return None


def brute_gamma(G: Graph, kind: str):
    """Minimum LD/ID/OLD size by direct predicate enumeration, or None."""
    closed = [G.adj[v] | {v} for v in range(G.n)]
    open_ = [G.adj[v] for v in range(G.n)]

    def ok(S):
        S = frozenset(S)
        if kind == "LD":
            outside = [x for x in range(G.n) if x not in S]
            labels = [open_[x] & S for x in outside]
            return all(labels) and len(set(labels)) == len(labels)
        masks = closed if kind == "ID" else open_
        labels = [masks[x] & S for x in range(G.n)]
        return all(labels) and len(set(labels)) == len(labels)

    for combo in subsets(range(G.n)):
        if ok(combo):
            return len(combo)
    return None


def counter_reaches(masks, smask, reach, left, include_empty, target):
    """``trace.reaches`` with its groups counted in a ``Counter``, the
    reference the sorted-run version must match on every call."""
    if target <= 0:
        return True
    on_reach = {m & reach for m in masks}
    if not include_empty:
        on_reach.discard(0)
    if len(on_reach) < target:
        return None
    cap = 1 << left
    if cap > len(on_reach):
        return True
    groups = Counter(v & smask for v in on_reach)
    bound = len(on_reach) - sum(c - cap for c in groups.values() if c > cap)
    if not include_empty and groups[0] >= cap:
        bound -= 1
    return bound >= target


def recursive_walk(n, k, keep):
    """``trace.walk`` as a plain recursion, the reference the explicit-stack
    walker must match in the k-sets it yields and in the ``keep`` calls it
    makes.  ``completions`` lists those of ``smask`` by ``left`` picks from
    the positions of ``play``; for each pick it asks ``keep`` only when the
    child has more than one completion, and adds the single one otherwise."""
    out = []

    def completions(smask, play, left):
        positions = [p for p in range(n) if play >> p & 1]
        for i, p in enumerate(positions):
            child = smask | 1 << p
            rest = positions[i + 1:]
            ways = comb(len(rest), left - 1)
            if ways == 1:
                out.append(child | sum(1 << q for q in rest[: left - 1]))
            elif ways > 1:
                rest_mask = sum(1 << q for q in rest)
                kept = keep(child, child | rest_mask, p, left - 1)
                if kept is None:
                    return
                if kept:
                    completions(child, rest_mask if kept is True else rest_mask & kept, left - 1)

    if k:
        completions(0, (1 << n) - 1, k)
    else:
        out.append(0)
    return out


def many_edge_masks():
    """The edge masks of 300 distinct edges on 11 vertices: a distinct
    nonempty mask on vertices 2-10 each, and random bits on 0 and 1.  So
    {2, ..., 10} separates them at the least size, 9 (8 positions give 255
    labels), and for this seed it is the first 9-set that does, the last
    of its size."""
    rng = random.Random(11)
    return tuple(m << 2 | rng.randrange(4) for m in rng.sample(range(1, 1 << 9), 300))


def plain_separating_set(rows, n, budget, selected_exempt=False):
    """The unpruned separating-set search: every k-subset of positions in
    size-ascending lexicographic order, raising once more than ``budget``
    have been examined.  None when even the full position set fails."""
    start = next(
        s for s in range(n + 1) if (1 << s) - 1 >= len(rows) - (s if selected_exempt else 0)
    )
    examined = 0
    for size in range(start, n + 1):
        for combo in combinations(range(n), size):
            examined += 1
            if examined > budget:
                raise BudgetExceededError("plain search budget exceeded", budget=budget)
            chosen = set(combo)
            labels = [
                frozenset(b for b in range(n) if row >> b & 1) & chosen
                for x, row in enumerate(rows)
                if not (selected_exempt and x in chosen)
            ]
            if all(labels) and len(set(labels)) == len(labels):
                return combo
    return None


def line_parse_graph_text(text: str) -> Graph:
    """The line-by-line ``p graph`` parser the bulk parser must match: the
    same value, the first fault with its line, and the duplicate warnings
    in line order."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty input")
    lineno, header = lines[0]
    n, m, base = _header(header, "graph", lineno)
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("edge lines must hold exactly two vertex ids", lineno)
        try:
            u, v = (int(p) - base for p in parts)
        except ValueError:
            raise FormatError("vertex ids must be integers", lineno) from None
        if u == v:
            raise FormatError(f"self-loop at vertex {u + base}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError("vertex id out of range", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.warn(f"line {lineno}: duplicate edge {key}", stacklevel=2)
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def line_parse_hypergraph_text(text: str, allow_multi: bool = False) -> Hypergraph:
    """The line-by-line ``p hgraph`` parser the bulk parser must match."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty input")
    lineno, header = lines[0]
    n, m, base = _header(header, "hgraph", lineno)
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for lineno, line in lines[1:]:
        try:
            members = [int(p) - base for p in line.split()]
        except ValueError:
            raise FormatError("vertex ids must be integers", lineno) from None
        for v in members:
            if not (0 <= v < n):
                raise FormatError(f"vertex id {v + base} out of range", lineno)
        e = frozenset(members)
        if e in seen and not allow_multi:
            warnings.warn(f"line {lineno}: duplicate edge collapsed", stacklevel=2)
            continue
        seen.add(e)
        edges.append(e)
    return Hypergraph(frozenset(range(n)), tuple(edges), allow_multi=allow_multi)


def scan_twins(G: Graph, closed: bool = True):
    """``find_twins`` by rebuilding every neighborhood from the adjacency,
    the reference the grouping of the side's edges must match."""
    groups = {}
    for v in range(G.n):
        key = G.adj[v] | {v} if closed else G.adj[v]
        groups.setdefault(frozenset(key), []).append(v)
    pairs = []
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            pairs.append((a, b))
    return sorted(pairs)


def scan_feasibility(G: Graph, kind: str):
    """(feasible, reason, pair) of a domination kind by scanning the graph,
    the reference the reading off the neighborhood hypergraphs must match."""
    if kind == "ID":
        twins = scan_twins(G, closed=True)
        if twins:
            return False, "closed twins cannot be told apart", twins[0]
    elif kind == "OLD":
        isolated = [v for v in range(G.n) if not G.adj[v]]
        if isolated:
            return False, "isolated vertex has an empty open neighborhood", (isolated[0], isolated[0])
        twins = scan_twins(G, closed=False)
        if twins:
            return False, "open twins cannot be told apart", twins[0]
    return True, None, None


def scan_twin_caveats(G: Graph):
    """The twin caveats ``domination_lower_bounds`` attaches to every kind."""
    caveats = ()
    if scan_twins(G, closed=True):
        caveats += ("closed twins present",)
    if scan_twins(G, closed=False):
        caveats += ("open twins present",)
    return caveats


def mask_is_shattered(H: Hypergraph, subset) -> bool:
    """``is_shattered`` on n-bit edge masks, the reference the incidence
    test must match: all traces are submasks of S, so S is shattered iff
    all 2^|S| appear."""
    smask = H.mask(subset)
    return len({em & smask for em in H.distinct_masks}) == 1 << smask.bit_count()
