"""Exact trace function and the upper/lower bounds that frame it.

The trace function at size k is the largest number of distinct nonempty
traces any k-vertex subset can carry.  Three estimates frame the exact
enumeration in a report's trace entry: the max-degree bound, a chain of
bounds driven by the reduced degeneracy, and the edge-count lower bound
min(|E|, k+1).  The binomial-sum bound driven by VC dimension is
``sauer_shelah_bound``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from math import comb
from operator import eq

from .degeneracy import reduced_degeneracy
from .errors import BudgetExceededError, MultiEdgeError
from .hypergraph import Hypergraph, bits

SUBSET_BUDGET_DEFAULT = 2_000_000
# A refused subset count is written out while a JSON reader that holds
# numbers as doubles reads it exactly; a larger one by its floored log2.
EXACT_COUNT_MAX = 1 << 53
# The bounds' T_j (``trace_value``) are exact while C(n, j) times the distinct
# edge count stays within this limit.
CHAIN_EXACT_WORK_LIMIT = 10_000_000
# Largest j the bootstrapped DT and domination bounds, and a report's chain
# bounds, go up to.
J_MAX = 8
# The trace table's gate (``_table_fits``), three terms, each at a
# measured crossover.  Bitmaps of at most 2^18 bits (32 KB): on the
# neighbourhoods of 19-20-vertex G(n, 0.3) graphs the searches a report
# asks for took 7-23 ms against 16-27 ms on the table.  At most 256
# distinct edges: past it, on random half-density edges, the table lost
# 34x (n = 14, m = 1,024: 108 against 3.2 ms).  The table also takes one
# Python step per pair of distinct edges, so pairs stay within 32 per
# subset.  That sends dense families on at most 9 vertices to the
# searches, which won there (n = 8, m = 200: 0.6 ms for the searches a
# report asks for against 4.5 ms; n = 9, m = 256: 2.3 against 7.4 ms),
# and binds nowhere from n = 10 up, where the table won (n = 10, m = 256:
# 7.8 against 8.7 ms).
TABLE_MAX_N = 18
TABLE_MAX_EDGES = 256
TABLE_MAX_PAIRS_PER_SUBSET = 32


def trace_function_exact(
    H: Hypergraph,
    k: int,
    include_empty: bool = False,
    subset_budget: int = SUBSET_BUDGET_DEFAULT,
) -> tuple[int, tuple[int, ...]]:
    """Maximum distinct-trace count over all k-subsets, with one witness.

    Counts nonempty traces unless ``include_empty`` is set.  Ties among
    maximizing subsets break to the lexicographically first witness.
    Each value is computed once per hypergraph and kept in
    ``H.trace_memo``, which serves it at any ``subset_budget``.  A value
    not held takes one of three paths, and only the last is budgeted:
    sizes 0, 1 and n take closed forms on the incidence and build no
    n-bit mask (``_closed_form``); any other size, on a hypergraph within
    the table's gate (``_table_fits``: n <= 18, at most 256 distinct
    edges, and at most 32 pairs of them per subset), fills the memo with
    every ``T_k`` in both modes from one pass over the 2^n subsets
    (``trace_table``); above the gate, the branch-and-bound search
    ``_search_exact`` finds the one value asked for, and is refused when
    C(n, k) exceeds ``subset_budget``, before it starts, so a refusal
    memoises nothing.  The refusal writes C(n, k) only up to
    ``EXACT_COUNT_MAX``.
    """
    if not 0 <= k <= H.n:
        raise ValueError(f"k must be in [0, {H.n}]")
    memo = H.trace_memo
    key = (k, include_empty)
    if key not in memo:
        if k in (0, 1, H.n):
            memo[key] = _closed_form(H, k, include_empty)
        elif _table_fits(H):
            memo.update(trace_table(H))
        else:
            total = comb(H.n, k)
            if total > subset_budget:
                size = f"= {total}" if total <= EXACT_COUNT_MAX else f">= 2^{total.bit_length() - 1}"
                raise BudgetExceededError(
                    f"C({H.n},{k}) {size} subsets exceed the budget", needed=total, budget=subset_budget
                )
            _search_exact(H, k, include_empty)
    return memo[key]


def _table_fits(H: Hypergraph) -> bool:
    """Whether ``H`` is small enough for ``trace_table``, from n and the
    distinct edge count m alone: ``n <= TABLE_MAX_N``, ``m <=
    TABLE_MAX_EDGES`` and ``C(m, 2) <= TABLE_MAX_PAIRS_PER_SUBSET * 2^n``.
    The pair term binds up to n = 9, the edge cap from n = 10 to 18, and
    the n term above.  The table costs about ``3 n`` operations on
    ``2^n``-bit ints per distinct edge, plus one step per pair of distinct
    edges, whatever k is asked: about 70-120 ms at n = 18, m = 256.  On
    n = 17-18 with up to 256 edges a report took 50-130 ms on it, against
    0.5-4.5 s on the searches.  The separating search's subset lattice
    (``first_separating_set``) reads the same gate but costs less: one
    down-closure over its m + C(m, 2) seeds, not one per edge."""
    n = H.n
    m = len(H.distinct_edges)
    return (
        n <= TABLE_MAX_N
        and m <= TABLE_MAX_EDGES
        and comb(m, 2) <= TABLE_MAX_PAIRS_PER_SUBSET << n
    )


def trace_table(H: Hypergraph) -> dict[tuple[int, bool], tuple[int, tuple[int, ...]]]:
    """Every ``T_k`` of ``H`` in both modes, keyed as ``H.trace_memo`` is,
    with the lexicographically first witness, from one pass of bitmap
    algebra over the subset lattice.

    Subset S of the positions has index ``Σ 2^(n-1-p)`` over its positions
    p, and a bitmap over the indices is one int of ``2^n`` bits.  Between
    two sets of one size, the first in lexicographic order holds the least
    position they differ in, the higher index bit, so the search's tie rule
    picks the highest index of the size class (``_first``).
    Two edges leave S one trace iff S misses their symmetric difference,
    that is, S is a subset of its complement, and an edge leaves S the
    empty trace iff S is a subset of the edge's complement.  So with the
    distinct edges in order, ``D_i``, the subsets on which edge i repeats
    an earlier edge's trace, is the down-closure of the complements of
    ``e_i ^ e_j``, j < i, and ``M``, the subsets on which some edge leaves
    the empty trace, the down-closure of the edges' complements.  A
    bit-sliced counter sums the ``D_i``: S carries ``D - ΣD_i(S)`` traces,
    D being the distinct edge count, and adding ``M`` counts the nonempty
    ones.  For each size k the least count, and the highest index with it,
    are read off the counter's planes from the top down.
    The index map, the per-position bitmaps, the down-closure and the size
    classes are the module's private lattice helpers, which the separating
    search's lattice (``first_separating_set``) shares.  The per-position
    bitmaps and the size classes depend only on n and are built once per
    n; the gate keeps n <= 18, so at most 19 of each are held, about
    2.4 MB if every n occurs.
    """
    n = H.n
    whole = (1 << n) - 1  # the index of the whole position set
    every = (1 << (1 << n)) - 1  # the bitmap of every subset
    planes: list[int] = []

    def add(bitmap: int) -> None:
        # Ripple-carry the 0/1 bitmap into the bit-sliced counter.
        for b, plane in enumerate(planes):
            planes[b], bitmap = plane ^ bitmap, plane & bitmap
            if not bitmap:
                return
        if bitmap:
            planes.append(bitmap)

    edges = [_lattice_index(e, n) for e in H.distinct_masks]
    for i in range(1, len(edges)):
        add(_down([whole ^ edges[i] ^ f for f in edges[:i]], n))
    with_empty = list(planes)
    add(_down([whole ^ e for e in edges], n))
    verts = H.vertex_list
    table = {}
    for include_empty, counter in ((True, with_empty), (False, planes)):
        # clear[b]: the subsets whose count has bit b clear.
        clear = [every ^ plane for plane in counter]
        for k, cands in enumerate(_size_classes(n)):
            least = 0
            for b in reversed(range(len(clear))):
                fewer = cands & clear[b]
                if fewer:
                    cands = fewer
                else:
                    least |= 1 << b
            witness = tuple(verts[p] for p in bits(_first(cands, n)))
            table[(k, include_empty)] = (len(edges) - least, witness)
    return table


def first_separating_set(rows: Sequence[int], n: int, selected_exempt: bool) -> int:
    """The mask of the first set of positions ``0..n-1`` that separates
    ``rows`` as ``transversal.separating_set`` asks, read off the subset
    lattice: the highest index of the least size class that has a set
    outside the down-closure of the failing sets.  The full position set
    must separate.

    With ``r_x`` the index of row x and ``pt(x)`` the index bit of
    position x (0 for x >= n, or without ``selected_exempt``), S fails iff
    some row that S does not exempt gets the empty label, S inside
    ``whole ^ (r_x | pt(x))``, or two such rows get one label, S inside
    ``whole ^ (r_x ^ r_y | pt(x) | pt(y))``.  So the failing sets are one
    down-closure of those indices, over m + C(m, 2) seeds for m rows.
    """
    whole = (1 << n) - 1
    labels = [
        (_lattice_index(row, n), 1 << (n - 1 - x) if selected_exempt and x < n else 0)
        for x, row in enumerate(rows)
    ]
    seeds = [whole ^ (r | pt) for r, pt in labels]
    seeds += [whole ^ (r ^ q | pt | qt) for (r, pt), (q, qt) in combinations(labels, 2)]
    good = ~_down(seeds, n)
    return next(_first(sets & good, n) for sets in _size_classes(n) if sets & good)


def _first(bitmap: int, n: int) -> int:
    """The mask of the lexicographically first set in a nonzero bitmap of
    one size class: the first holds the least position two sets of one
    size differ in, so it has the highest index."""
    return _lattice_index(bitmap.bit_length() - 1, n)


def _lattice_index(mask: int, n: int) -> int:
    """The index of the subset of positions ``0..n-1`` with this mask, and
    back: position p is index bit ``n-1-p``, so the map reverses the low n
    bits and is its own inverse."""
    return int(f"{mask:0{n}b}"[::-1], 2)


@cache
def _missing_bitmaps(n: int) -> tuple[tuple[int, int], ...]:
    """Per position p of ``0..n-1``, its index bit and the bitmap of the
    subsets that miss it."""
    size = 1 << n
    missing = []
    for p in range(n):
        run = 1 << (n - 1 - p)
        bitmap = (1 << run) - 1
        width = run << 1
        while width < size:
            bitmap |= bitmap << width
            width <<= 1
        missing.append((run, bitmap))
    return tuple(missing)


def _down(indices: Iterable[int], n: int) -> int:
    """The bitmap of every subset of the sets of positions ``0..n-1`` with
    these indices: a set that holds p passes each of its subsets without p
    down to it, one shift-and-or per position (``_missing_bitmaps``)."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for x in indices:
        buf[x >> 3] |= 1 << (x & 7)
    bitmap = int.from_bytes(buf, "little")
    for run, missed in _missing_bitmaps(n):
        bitmap |= bitmap >> run & missed
    return bitmap


@cache
def _size_classes(n: int) -> tuple[int, ...]:
    """Per size k of ``0..n``, the bitmap of the indices with k bits set,
    built one index bit at a time."""
    classes = [1]
    for b in range(n):
        classes = [c | d << (1 << b) for c, d in zip([*classes, 0], [0, *classes])]
    return tuple(classes)


def _search_exact(H: Hypergraph, k: int, include_empty: bool) -> tuple[int, tuple[int, ...]]:
    """``trace_function_exact`` without its memo read, budget, closed
    forms and table: the branch-and-bound search alone, memoising the
    result.

    The search counts the k-sets ``walk`` yields and stops at the first whose
    count reaches the ceiling (the distinct edge count, or ``2^k``; without
    the empty trace, the distinct nonempty edge count or ``2^k - 1``).  Its
    cut skips a prefix unless ``reaches`` grants it one trace more than the
    best count so far, and closes the prefix's node when its reach is short.
    Once ``T_{k-1}`` is memoised, a k-set beats ``best`` only if each of its
    vertices lies in at least ``best + 1 - T_{k-1}`` distinct edges (one
    fewer with the empty trace): the traces that miss a vertex are traces
    of the other k - 1, and at most its degree contain it.  So the search
    skips every k-set with a vertex of lower degree: ``keep`` refuses a
    prefix whose last pick is one, closes the node when an earlier pick is
    one or too few later positions are not, and answers with its reach
    stripped of them, so the walk no longer visits them below the prefix.
    Once ``best + 1`` is the full count, ``2^k`` (``2^k - 1`` without the
    empty trace), ``shattering_reach`` replaces ``reaches``: the reach is
    narrowed to the positions it returns, and a prefix with too few left
    is refused, not closed, since a later sibling has other common edges.
    The with-empty value is ``T_k + 1`` with the nonempty witness ``W`` when
    some edge misses ``W``: no k-set has more, and every earlier one has at
    most ``T_k``.  Only a strictly larger count replaces the witness, so no
    cut can change it.
    """
    memo = H.trace_memo
    key = (k, include_empty)
    masks = H.distinct_masks
    if include_empty and (k, False) in memo:
        value, witness = memo[(k, False)]
        wmask = H.mask(witness)
        if any(not em & wmask for em in masks):
            memo[key] = result = (value + 1, witness)
            return result
    # Only a k-set that every one of its subsets but perhaps the empty one
    # traces carries ``full`` traces.
    full = (1 << k) - (not include_empty)
    ceiling = min(len(masks) - (not include_empty and 0 in masks), full)
    best = -1
    best_mask = 0
    # Once T_{k-1} is memoised, ``low`` holds the positions of too low a
    # degree to be in a k-set that beats ``best``, and ``order`` the others,
    # lowest degree last.
    prior = memo.get((k - 1, False))
    degrees = [len(ids) for ids in H.incidence.edge_ids] if prior else []
    order = sorted(range(len(degrees)), key=degrees.__getitem__, reverse=True)
    base = prior[0] + include_empty if prior else 0
    low = 0

    def keep(prefix: int, reach: int, p: int, left: int) -> int | bool | None:
        failing = prefix & low
        if failing:
            # Every later sibling keeps a failing earlier pick.
            return None if failing ^ 1 << p else False
        reach &= ~low
        if (reach >> (p + 1)).bit_count() < left:
            return None
        if best + 1 < full:
            return reaches(masks, prefix, reach, left, include_empty, best + 1) and reach
        # A later sibling has other common edges, so a short mask refuses
        # this prefix alone.
        reach &= shattering_reach(H, prefix, p, left)
        return (reach >> (p + 1)).bit_count() >= left and reach

    for s in walk(H.n, k, keep):
        if s & low:
            continue
        traces = {em & s for em in masks}
        count = len(traces) if include_empty else len(traces) - (0 in traces)
        if count > best:
            best, best_mask = count, s
            if best >= ceiling:
                break
            while order and degrees[order[-1]] < best + 1 - base:
                low |= 1 << order.pop()

    verts = H.vertex_list
    result = (best, tuple(verts[p] for p in bits(best_mask)))
    memo[key] = result
    return result


def _closed_form(H: Hypergraph, k: int, include_empty: bool) -> tuple[int, tuple[int, ...]]:
    """``trace_function_exact`` for k in {0, 1, n}, read off the incidence.

    With D distinct edges (an empty one included) and d(v) of them
    containing v: ``T_n`` is the number of distinct nonempty edges, or D
    with the empty trace, on the one n-set, and ``T_0`` is 0, or 1 when
    D > 0, on the empty set.  A vertex v carries the trace {v} iff
    d(v) > 0 and the empty trace iff d(v) < D, so ``T_1`` is the largest
    such count, at the first vertex that has it.
    """
    verts = H.vertex_list
    distinct = len(H.distinct_edges)
    if k == H.n:
        return (distinct if include_empty else len(H.incidence.edges)), verts
    if k == 0:
        return int(include_empty and distinct > 0), ()
    counts = [(d > 0) + (include_empty and d < distinct) for d in map(len, H.incidence.edge_ids)]
    best = max(counts)
    return best, (verts[counts.index(best)],)


def walk(n: int, k: int, keep: Callable[[int, int, int, int], int | bool | None]) -> Iterator[int]:
    """Yield the masks of the k-sets of positions ``0..n-1``, ``0 <= k <=
    n``, in lexicographic order, skipping the prefixes ``keep`` refuses.

    Each level holds its prefix and the positions still in play after its
    last pick, every position at the root.  After every pick but the last,
    and only while more than one completion is left among the positions in
    play, ``keep(prefix, reach, p, left)`` is asked about the prefix whose
    last pick is ``p``: ``reach`` adds the positions in play after ``p``,
    and ``left`` picks remain.  ``True`` keeps them all in play for the
    prefix's completions, and a mask keeps only its positions among them.
    A false answer refuses the prefix and drops its completions.  ``None``
    closes the prefix's node: the prefix, every later sibling and the
    node's single completion are dropped, and the walk backtracks.  When
    exactly ``left`` positions are in play, they make the single
    completion, which is yielded without asking.
    The picks live on an explicit stack, so the depth does not grow with
    k and any k runs on thousands of positions.
    """
    if not k:
        yield 0
        return
    # Each pick's bit, with the positions in play after it at its level.
    levels: list[tuple[int, int]] = []
    smask = 0
    play = (1 << n) - 1
    while True:
        left = k - len(levels)
        count = play.bit_count()
        if left > 1 and count > left:
            low = play & -play
            play ^= low
            child = smask | low
            kept = keep(child, child | play, low.bit_length() - 1, left - 1)
            if kept is not None:
                if kept:
                    levels.append((low, play))
                    smask = child
                    if kept is not True:
                        play &= kept
                continue
        elif left == 1:
            for q in bits(play):
                yield smask | 1 << q
        elif count == left:
            yield smask | play
        if not levels:
            return
        low, play = levels.pop()
        smask ^= low


def shattering_reach(H: Hypergraph, prefix: int, p: int, left: int) -> int:
    """The mask of the positions after ``p`` that may complete the nonempty
    ``prefix``, whose last pick is ``p``, by ``left`` more positions to a
    set that carries every trace holding the prefix; 0 when too few
    edges hold the prefix for any set to.

    Each of those ``2^left`` traces is left by its own distinct edge that
    holds the prefix, so at least ``2^left`` such edges must exist, and
    each later position of the set lies in the ``2^(left-1)`` of them
    whose traces hold it.  A shattered set carries every such trace, and
    so does a set that carries every nonempty trace, since the prefix is
    nonempty.  Read off ``H.incidence``, the distinct nonempty edges.
    """
    _, edge_ids, members = H.incidence
    common = set(edge_ids[p]).intersection(*map(edge_ids.__getitem__, bits(prefix ^ 1 << p)))
    if len(common) < 1 << left:
        return 0
    need = 1 << (left - 1)
    counts = Counter(chain.from_iterable(map(members.__getitem__, common)))
    return sum(1 << q for q, c in counts.items() if c >= need and q > p)


def reaches(
    masks: Sequence[int], smask: int, reach: int, left: int, include_empty: bool, target: int
) -> bool | None:
    """Whether some completion of ``smask`` by ``left`` positions from
    ``reach`` may carry ``target`` distinct traces of ``masks`` (nonempty
    ones unless ``include_empty``).  A no is certain, a yes may be hopeful.
    The no is ``None`` when ``reach`` itself carries fewer than ``target``
    values: then so does every subset of it, so a caller whose later
    prefixes have smaller reaches and no smaller target may close the node.

    Every trace lies inside ``reach``, so masks that agree there end with
    one trace, and without the empty trace a mask that misses ``reach``
    counts for none.  Masks that agree on ``smask`` split into at most
    ``2^left`` traces, one per pattern on the added positions, masks apart
    on ``smask`` stay apart, and the group that is empty on ``smask``
    yields at most ``2^left - 1`` nonempty traces.  While ``2^left``
    exceeds the number of values on ``reach``, no group meets that cap, so
    the answer is yes at once.  So is it for a ``target`` of 0, which the
    trace search asks before it has counted any k-set: every bound below
    is at least 0.
    """
    on_reach = {m & reach for m in masks}
    if not include_empty:
        on_reach.discard(0)
    if len(on_reach) < target:
        return None
    cap = 1 << left
    if cap > len(on_reach):
        return True
    # Sorted, each group is a run of equal heads, the empty one first, and a
    # run of c heads has max(0, c - cap) heads equal to the head cap places
    # before it.
    heads = sorted([v & smask for v in on_reach])
    bound = len(on_reach) - sum(map(eq, heads, heads[cap:]))
    if not include_empty and not heads[cap - 1]:
        bound -= 1
    return bound >= target


def trace_value(H: Hypergraph, j: int) -> tuple[int, str]:
    """``T_j`` for the bounds: exact while cheap, else the 2^j - 1 relaxation.

    Returns (value, form) with form "exact-T" or "power-of-two".  Above
    the trace table's gate, the search for ``T_j`` is used while C(n, j)
    times the distinct edge count m stays within
    ``CHAIN_EXACT_WORK_LIMIT``: ``trace_function_exact``'s own budget check,
    with the budget ``CHAIN_EXACT_WORK_LIMIT // m``, since for integers
    ``C(n, j) * m <= L`` iff ``C(n, j) <= L // m``.  Its refusal comes
    before the search starts, so a relaxed ``T_j`` memoises nothing.  A
    held value, the closed forms ``T_0``, ``T_1`` and ``T_n``, and any
    ``T_j`` within the gate are exact whatever the limit says.
    """
    budget = CHAIN_EXACT_WORK_LIMIT // max(len(H.distinct_edges), 1)
    try:
        return trace_function_exact(H, j, subset_budget=budget)[0], "exact-T"
    except BudgetExceededError:
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
    not weaken the bound (trace counts never see multiplicities); it is read
    from the shared ``H.incidence``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    delta = max(map(len, H.incidence.edge_ids), default=0)
    return k * (delta + 1) // 2 + 1


@dataclass(frozen=True)
class ChainBounds:
    """Degeneracy-driven trace bounds for one subset size.

    Each entry is (j, bound, form): the bound splits a k-subset into the
    first k-j peel steps, each contributing at most the reduced degeneracy
    of the same hypergraph, plus all traces on the last j vertices (exact
    trace value when cheap, else 2^j - 1).
    """

    k: int
    entries: tuple[tuple[int, int, str], ...]
    reduced_times_k: int


def degeneracy_chain_bounds(H: Hypergraph, k: int, j_max: int | None = None) -> ChainBounds:
    """Evaluate the peel-split trace bounds for every j up to ``j_max``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    delta = reduced_degeneracy(H).reduced
    j_top = k if j_max is None else min(j_max, k)
    entries = []
    for j in range(j_top + 1):
        t_j, form = trace_value(H, j)
        entries.append((j, delta * (k - j) + t_j, form))
    return ChainBounds(k=k, entries=tuple(entries), reduced_times_k=delta * k)


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

