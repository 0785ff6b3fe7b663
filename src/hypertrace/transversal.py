"""Distinguishing transversals: exact search and certified lower bounds.

A distinguishing transversal is a vertex set on which every edge leaves a
nonempty trace and no two edges leave the same trace.  Its minimum size is
bounded below by (|E| - T_j) / reduced_degeneracy + j for any j not
exceeding that minimum, where T_j is the trace function at size j (or its
2^j - 1 relaxation) and both are read from the same hypergraph.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .degeneracy import reduced_degeneracy
from .errors import BudgetExceededError, MultiEdgeError
from .hypergraph import Hypergraph, bits
from .trace import (
    J_MAX,
    SUBSET_BUDGET_DEFAULT,
    _table_fits,
    first_separating_set,
    reaches,
    trace_value,
    walk,
)


@dataclass(frozen=True)
class BoundEntry:
    """One certified lower-bound evaluation, kept as an exact rational."""

    name: str
    j: int
    value: Fraction
    form: str
    delta_estimate_used: int
    flags: tuple[str, ...] = ()

    @property
    def ceiled(self) -> int:
        return ceil(self.value)


@dataclass(frozen=True)
class DtResult:
    """Minimum distinguishing transversal and its lexicographically first witness."""

    value: int
    witness: tuple[int, ...]


def _require_simple(H: Hypergraph) -> None:
    if H.has_duplicate_edges:
        raise MultiEdgeError("duplicate edges can never be distinguished; quantity undefined")


def transversal_fault(H: Hypergraph) -> str | None:
    """Why ``H`` has no distinguishing transversal: "empty edge",
    "duplicate edges", or None when it has one.  Two empty edges are
    duplicates too, so the empty edge is named first."""
    if not all(H.edges):
        return "empty edge"
    return "duplicate edges" if H.has_duplicate_edges else None


def _require_transversal(H: Hypergraph) -> None:
    if transversal_fault(H) == "empty edge":
        raise ValueError("an empty edge admits no transversal")
    _require_simple(H)


def _separates(rows: Sequence[int], smask: int, selected_exempt: bool) -> bool:
    seen: set[int] = set()
    for x, row in enumerate(rows):
        if selected_exempt and smask >> x & 1:
            continue
        t = row & smask
        if t == 0 or t in seen:
            return False
        seen.add(t)
    return True


def separating_set(
    H: Hypergraph, budget: int, search: str, selected_exempt: bool = False
) -> tuple[int, ...]:
    """Lexicographically first minimum set S of positions in ``H`` that
    gives every edge mask (row) a nonempty label ``row & S``, all labels
    distinct.

    The one search behind distinguishing transversals (rows are edge
    masks) and LD, ID and OLD (rows are neighborhood masks indexed by
    vertex).  With ``selected_exempt`` the row of a selected position
    needs no label, which is how LD differs.  Sizes ascend from the floor
    where s positions can give 2^s - 1 labels, and ``_search`` answers on
    one path: each candidate set, whatever its source, passes one rank
    test against the budget.  On a hypergraph within the trace table's
    gate (``trace._table_fits``), one down-closure on the table's subset
    lattice (``trace.first_separating_set``) gives the first separating
    set and no set is tested.  Above it, within a size, the candidates
    are the sets ``walk`` yields in lexicographic order, each tested, and
    the walk's cut skips a prefix when ``reaches`` finds that no
    completion gives the rows ``len(rows)`` distinct nonempty labels.
    With ``selected_exempt`` only the rows that can no longer be selected
    (positions up to the last pick, outside the picks) are asked about.
    The cut is sound, so the witness is still the first minimum set.

    ``_search`` also reads the nonempty ``T_k`` memoised in
    ``H.trace_memo`` (a snapshot of it), since a k-set gives at most
    ``T_k`` rows distinct nonempty labels.  It starts past every size
    whose ``T_k`` is below the labels needed, and without
    ``selected_exempt`` the least memoised k with ``T_k`` equal to
    ``len(rows)`` is the answer: its witness is the first k-set that
    carries that many traces, so DT(H) is the least k with ``T_k = |E|``;
    that witness is a candidate like any other.  Neither changes the
    witness or the budget outcome.  On a hypergraph within the trace
    table's gate, the first ``T_k`` asked for (of size 2 up to n - 1)
    memoises every ``T_k``, so once a report's bounds have asked for one,
    DT, ID and OLD there are memo hits.

    The budget bounds one number, the witness's rank in the plain
    size-ascending enumeration of every candidate: the search raises
    "<search> search budget exceeded" iff that rank exceeds ``budget``,
    whatever its cut skipped.  The rank is only tested, never returned.
    Callers must ensure the full position set qualifies.  The outcome is
    kept in ``H.separating_memo``, either the witness or the largest
    budget refused, and the budget is charged only for a search the call
    would start: a found witness is served at any budget, and a budget no
    larger than one already refused raises without searching again.
    """
    held = H.separating_memo.get(selected_exempt, -1)
    if isinstance(held, tuple):
        return held
    if budget <= held:
        raise BudgetExceededError(f"{search} search budget exceeded", budget=budget)
    try:
        witness = _search(H, budget, search, selected_exempt)
    except BudgetExceededError:
        H.separating_memo[selected_exempt] = budget
        raise
    H.separating_memo[selected_exempt] = witness
    return witness


def _search(H: Hypergraph, budget: int, search: str, selected_exempt: bool) -> tuple[int, ...]:
    """The positions of the separating set of ``H``'s rows (edge masks).
    Its rank in the size-ascending enumeration is ``done``, the sets of
    the sizes before its own, plus its ``_rank`` within its size, plus 1.
    The trace table's gate (``_table_fits``) picks the engine for the
    sizes the memo does not answer: the subset lattice or the walker.

    ``traces`` is a snapshot of the nonempty ``T_k`` memoised in
    ``H.trace_memo``, since another thread may add to it meanwhile.
    ``T_k`` never falls as k grows while the labels needed never rise, so
    every size up to the last k with ``T_k`` below them fails: the search
    starts after it, and ``done`` counts the skipped sizes' sets in full.

    ``found`` maps a size to a separating set found without a walk.
    Without exempt rows, the least k with ``T_k = len(rows)`` gives its
    memoised witness, the first k-set that separates, and only that
    witness becomes a mask: it is at least ``start``, and the search ends
    at its size.  The lattice gives ``first_separating_set``, whose size
    is the least that separates, so it is at least ``start``, and if a
    memo hit has it too, the two sets are one.  The lattice is built only
    when the budget outlasts the skipped sizes and ``start`` is no memo
    hit, so a budget the skipped sizes use up raises before any bitmap is
    built.  Off the lattice, a size with no found set walks, and each set
    the walker yields is tested.

    Every candidate, found or walked, passes one rank test: a set ranked
    below ``room``, the budget left at its size, returns if it separates,
    and the first ranked past it ends the size untested.  So a witness the
    trace memo gives still counts against the budget, as this is the
    search the call starts; only a separating set already found
    (``H.separating_memo``) is served at any budget, by ``separating_set``
    before it calls ``_search``.  The test ranks a set only in the size
    where the budget ends (``room < C(n, size)``), since before it every
    rank is within ``room``.
    Only that rank is budgeted, so the cut needs no accounting: every set
    before it, cut or tested, fails to separate, so that size raises.  In
    that size ``keep`` also closes the node of a prefix whose first
    completion, the prefix plus the ``left`` positions after ``p``, ranks
    past it: every later completion and every later sibling's ranks after.
    A short reach closes the walk's node, which is sound with LD's exempt
    rows too, since a later sibling has a smaller reach and more needy
    rows.
    """
    rows, n = H.edge_masks, H.n

    def keep(prefix: int, reach: int, p: int, left: int) -> bool | None:
        if room < total and _rank(n, prefix | ((1 << left) - 1) << (p + 1)) >= room:
            return None
        if selected_exempt:
            # Only rows at or before p outside the picks keep needing a label.
            needy = [row for x, row in enumerate(rows[: p + 1]) if not prefix >> x & 1]
        else:
            needy = rows
        return reaches(needy, prefix, reach, left, False, len(needy))

    def needed(k: int) -> int:
        # The labels a k-set must give: one per row it may not exempt.
        return len(rows) - (k if selected_exempt else 0)

    traces = {k: tw for (k, empty), tw in tuple(H.trace_memo.items()) if not empty}
    floor = next(s for s in range(n + 1) if (1 << s) - 1 >= needed(s))
    start = max([floor, *(k + 1 for k, (t, _) in traces.items() if t < needed(k))])
    done = sum(comb(n, s) for s in range(floor, start))
    hits = [] if selected_exempt else sorted(k for k, (t, _) in traces.items() if t == len(rows))
    found = {k: H.mask(traces[k][1]) for k in hits[:1]}
    lattice = _table_fits(H)
    if lattice and done < budget and start not in found:
        first = first_separating_set(rows, n, selected_exempt)
        found[first.bit_count()] = first
    for size in range(start, n + 1):
        room = budget - done
        total = comb(n, size)
        if size in found:
            cands = [found[size]]
        else:
            cands = () if lattice else walk(n, size, keep)
        for smask in cands:
            if room < total and _rank(n, smask) >= room:
                break
            if size in found or _separates(rows, smask, selected_exempt):
                return tuple(bits(smask))
        if room < total:
            raise BudgetExceededError(f"{search} search budget exceeded", budget=budget)
        done += total
    raise AssertionError("the full position set must separate every row")


def _rank(n: int, smask: int) -> int:
    """How many sets of positions ``0..n-1`` of the size k of ``smask``
    come before it in lexicographic order: with picks p_0 < ... < p_{k-1}
    and q_i = p_{i-1} + 1 (q_0 = 0), those whose first smaller pick is
    pick i number C(n - q_i, k - i) - C(n - p_i, k - i)."""
    k = smask.bit_count()
    rank = q = 0
    for i, p in enumerate(bits(smask)):
        rank += comb(n - q, k - i) - comb(n - p, k - i)
        q = p + 1
    return rank


def is_distinguishing_transversal(H: Hypergraph, subset) -> bool:
    """True iff all edge traces on ``subset`` are nonempty and pairwise distinct."""
    _require_simple(H)
    return _separates(H.edge_masks, H.mask(subset), selected_exempt=False)


def dt_exact(H: Hypergraph, subset_budget: int = SUBSET_BUDGET_DEFAULT) -> DtResult:
    """Minimum-size distinguishing transversal by size-ascending search.

    The whole vertex set always works for a simple hypergraph without empty
    edges, so ``separating_set`` over the edge masks terminates.  DT(H) is
    the least k with ``T_k(H) = |E|``, so the search starts past the sizes
    whose memoised ``T_k`` falls short and takes the witness of a memoised
    ``T_k = |E|`` without testing a set; on a fresh ``H`` it walks from the
    ``2^k - 1 >= |E|`` floor.  Its outcome is memoised on ``H``, so a later
    search of the same masks (``gamma_exact`` for ID or OLD on a cached
    neighborhood hypergraph) is answered without searching again.  ``subset_budget`` bounds the
    witness's rank in the plain size-ascending order of candidate sets.
    """
    _require_transversal(H)
    if H.m == 0:
        return DtResult(0, ())
    combo = separating_set(H, subset_budget, "transversal")
    return DtResult(len(combo), tuple(H.vertex_list[p] for p in combo))


def bootstrap_entries(entries_at: Callable[[int], list[BoundEntry]], j_max: int) -> list[BoundEntry]:
    """The bound entries for j = 0, 1, ... up to ``j_max``, in that order.

    A bound in j is certified only for j not above the (unknown) answer, so
    j = 0 is always admitted and each further j only once the entries
    certified so far reach it.
    """
    entries: list[BoundEntry] = []
    certified = 0
    j = 0
    while j <= j_max and j <= certified:
        batch = entries_at(j)
        entries += batch
        certified = max([certified, *(b.ceiled for b in batch)])
        j += 1
    return entries


def transversal_bound(count: int, t_j: int, delta: int, j: int) -> Fraction:
    """The lower bound ``(count - T_j) / delta + j`` on a distinguishing
    transversal of ``count`` edges, with ``T_j`` and the reduced degeneracy
    ``delta`` read from one hypergraph: DT on ``H``, and ID and OLD on a
    graph's closed and open neighborhood hypergraphs, where ``count`` is
    the vertex count.  Without edges there is nothing to tell apart and
    ``delta`` is 0, so the bound is 0."""
    return Fraction(count - t_j, delta) + j if count else Fraction(0)


def dt_lower_bounds(H: Hypergraph, j_max: int = J_MAX) -> list[BoundEntry]:
    """Certified lower bounds on the distinguishing transversal number,
    with j bootstrapped by ``bootstrap_entries``."""
    _require_transversal(H)
    m = H.m
    if m == 0:
        return [BoundEntry("dt", 0, Fraction(0), "exact-T", 0)]
    delta = reduced_degeneracy(H).reduced

    def entries_at(j: int) -> list[BoundEntry]:
        t_j, form = trace_value(H, j)
        forms = [(t_j, form)]
        if form != "power-of-two":
            forms.append(((1 << j) - 1, "power-of-two"))
        return [BoundEntry("dt", j, transversal_bound(m, t, delta, j), f, delta) for t, f in forms]

    return bootstrap_entries(entries_at, j_max)
