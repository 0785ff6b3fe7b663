"""Distinguishing transversals: exact search and certified lower bounds.

A distinguishing transversal is a vertex set on which every edge leaves a
nonempty trace and no two edges leave the same trace.  Its minimum size is
bounded below by (|E| - T_j) / reduced_degeneracy + j for any j not
exceeding that minimum, where T_j is the trace function at size j (or its
2^j - 1 relaxation).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil

from .degeneracy import DegeneracyTriple
from .errors import BudgetExceededError, MultiEdgeError
from .hypergraph import Hypergraph
from .trace import SUBSET_BUDGET_DEFAULT, trace_value


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
    """Minimum distinguishing transversal with any bounds computed for it."""

    value: int
    witness: tuple[int, ...]
    lower_bounds: tuple[BoundEntry, ...] = ()

    @property
    def best_lower_bound(self) -> int:
        return max((b.ceiled for b in self.lower_bounds), default=0)


def _require_simple(H: Hypergraph) -> None:
    if H.has_duplicate_edges:
        raise MultiEdgeError("duplicate edges can never be distinguished; quantity undefined")


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
    rows: Sequence[int], n: int, budget: int, search: str, selected_exempt: bool = False
) -> tuple[int, ...]:
    """Lexicographically first minimum set S of positions in [0, n) that
    gives every row a nonempty label ``row & S``, all labels distinct.

    The one search behind distinguishing transversals (rows are edge
    masks) and LD, ID and OLD (rows are neighborhood masks indexed by
    vertex).  With ``selected_exempt`` the row of a selected position
    needs no label, which is how LD differs.  Sizes ascend from the floor
    where s positions can give 2^s - 1 labels.  Callers must ensure the
    full position set qualifies; more than ``budget`` candidates raise
    "<search> search budget exceeded".
    """
    start = next(
        s for s in range(n + 1) if (1 << s) - 1 >= len(rows) - (s if selected_exempt else 0)
    )
    examined = 0
    for size in range(start, n + 1):
        for combo in combinations(range(n), size):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(f"{search} search budget exceeded", budget=budget)
            smask = 0
            for p in combo:
                smask |= 1 << p
            if _separates(rows, smask, selected_exempt):
                return combo
    raise AssertionError("the full position set must separate every row")


def is_distinguishing_transversal(H: Hypergraph, subset) -> bool:
    """True iff all edge traces on ``subset`` are nonempty and pairwise distinct."""
    _require_simple(H)
    s = H.normalize_subset(subset)
    pos = H.vertex_pos
    smask = 0
    for v in s:
        smask |= 1 << pos[v]
    return _separates(H.edge_masks, smask, selected_exempt=False)


def dt_exact(
    H: Hypergraph,
    degeneracy: DegeneracyTriple | None = None,
    j_max: int = 8,
    subset_budget: int = SUBSET_BUDGET_DEFAULT,
) -> DtResult:
    """Minimum-size distinguishing transversal by size-ascending search.

    The whole vertex set always works for a simple hypergraph without empty
    edges, so ``separating_set`` over the edge masks terminates.  When a
    degeneracy triple is supplied the certified lower bounds are attached
    to the result.
    """
    _require_simple(H)
    if any(not e for e in H.edges):
        raise ValueError("an empty edge admits no transversal")
    bounds: tuple[BoundEntry, ...] = ()
    if degeneracy is not None:
        bounds = tuple(dt_lower_bounds(H, degeneracy, j_max=j_max))
    if H.m == 0:
        return DtResult(0, (), bounds)
    combo = separating_set(H.edge_masks, H.n, subset_budget, "transversal")
    return DtResult(len(combo), tuple(H.vertex_list[p] for p in combo), bounds)


def dt_lower_bounds(
    H: Hypergraph,
    degeneracy: DegeneracyTriple,
    j_max: int = 8,
) -> list[BoundEntry]:
    """Certified lower bounds on the distinguishing transversal number.

    The parameter j must not exceed the (unknown) answer, so values of j
    are admitted incrementally: j = 0 is always sound, and each further j
    is used only once the bounds already certified reach it.  Using an
    upper estimate of the reduced degeneracy only enlarges the denominator,
    so substituting the classic degeneracy stays sound and is flagged.
    """
    _require_simple(H)
    if any(not e for e in H.edges):
        raise ValueError("an empty edge admits no transversal")
    m = H.m
    if m == 0:
        return [BoundEntry("dt", 0, Fraction(0), "exact-T", 0)]
    delta = degeneracy.reduced_upper
    flags = () if degeneracy.reduced_exact else ("safe-weakened",)
    entries: list[BoundEntry] = []
    certified = 0
    j = 0
    while j <= j_max and j <= certified:
        t_j, form = trace_value(H, j)
        forms = [(t_j, form)]
        if form != "power-of-two":
            forms.append(((1 << j) - 1, "power-of-two"))
        for t, form in forms:
            value = Fraction(m - t, delta) + j
            entries.append(BoundEntry("dt", j, value, form, delta, flags))
            certified = max(certified, ceil(value))
        j += 1
    return entries
