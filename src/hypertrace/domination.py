"""Exact locating/identifying domination numbers and their lower bounds.

Three parameters are handled, each the minimum size of a vertex set S:

* LD  -- every vertex is dominated (closed neighborhood meets S) and
  vertices outside S have pairwise distinct open traces N(x) & S;
* ID  -- dominating, and all closed traces N[x] & S are pairwise distinct;
* OLD -- every open neighborhood meets S and all open traces are pairwise
  distinct.

ID is exactly a distinguishing transversal of the closed-neighborhood
hypergraph and OLD of the open one, which is what connects the trace
machinery to these graph parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .degeneracy import reduced_degeneracy
from .errors import NotATreeError
from .graphs import Graph, find_twins, neighborhood_hypergraph, tree_stats
from .trace import J_MAX, SUBSET_BUDGET_DEFAULT, trace_value
from .transversal import BoundEntry, bootstrap_entries, separating_set, transversal_bound, transversal_fault

KINDS = ("LD", "ID", "OLD")


@dataclass(frozen=True)
class DominationReport:
    """Outcome of one exact domination computation; every field but
    ``kind`` is None for a search the budget refused."""

    kind: str
    feasible: bool | None
    exact: int | None
    witness: tuple[int, ...] | None
    infeasible_reason: str | None = None
    infeasible_pair: tuple[int, int] | None = None


def _feasibility(G: Graph, kind: str) -> tuple[bool, str | None, tuple[int, int] | None]:
    # ID and OLD are DT on a side, undefined where the side has an empty
    # edge (an isolated vertex, open side only) or duplicate edges (twins),
    # named in ``transversal_fault``'s order.  LD is always feasible.
    closed = kind == "ID"
    H = neighborhood_hypergraph(G, closed)
    fault = None if kind == "LD" else transversal_fault(H)
    if fault == "empty edge":
        v = H.edges.index(frozenset())
        return False, "isolated vertex has an empty open neighborhood", (v, v)
    if fault:
        side = "closed" if closed else "open"
        return False, f"{side} twins cannot be told apart", find_twins(G, closed)[0]
    return True, None, None


def gamma_exact(G: Graph, kind: str, subset_budget: int = SUBSET_BUDGET_DEFAULT) -> DominationReport:
    """Minimum locating-domination parameter of the requested kind.

    Infeasible inputs (closed twins for ID, open twins or isolated
    vertices for OLD) yield a structured report naming a violating pair
    instead of an exact value.  The search (``separating_set``) ascends
    through subset sizes, so the first hit is minimum and the
    lexicographically first witness is reported.  It starts past every
    size k whose ``T_k``, memoised on the neighborhood hypergraph, is below
    the labels a k-set must give (n, or n - k for LD), and for ID and OLD a
    memoised ``T_k = n`` at that start is the answer with its witness.
    Within the trace table's gate, the rest (LD, in a report) is read off
    the table's subset lattice in one down-closure, with no set tested.
    It runs on the cached neighborhood hypergraph and is memoised there:
    ID shares its outcome with ``dt_exact`` on the closed neighborhoods,
    OLD with ``dt_exact`` on the open ones, and a budget that a search of
    the same rows already exceeded raises without searching again.
    ``subset_budget`` bounds only the walk above the gate: the witness's
    rank in the plain size-ascending order of candidate sets, tested
    against one boundary set per size, not by ranking each candidate.  A
    memo answer and the lattice's are given at any budget.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    feasible, reason, pair = _feasibility(G, kind)
    if not feasible:
        return DominationReport(kind, False, None, None, reason, pair)
    H = neighborhood_hypergraph(G, closed=kind == "ID")
    combo = separating_set(H, subset_budget, "domination", selected_exempt=kind == "LD")
    return DominationReport(kind, True, len(combo), combo)


@dataclass(frozen=True)
class KindBounds:
    """Lower bounds for one domination kind, with feasibility caveats."""

    kind: str
    feasible: bool
    entries: tuple[BoundEntry, ...]
    caveats: tuple[str, ...] = ()
    infeasible_pair: tuple[int, int] | None = None


def domination_lower_bounds(G: Graph, j_max: int = J_MAX) -> dict[str, KindBounds]:
    """The neighborhood-hypergraph lower bounds for all three kinds.

    Each bound reads T_j and the reduced degeneracy from one neighborhood
    hypergraph, and j is bootstrapped per kind by ``bootstrap_entries``.
    For OLD the formula pairing the open-hypergraph degeneracy with the
    closed hypergraph's trace value is also evaluated; the weaker (safe)
    of the two readings is reported and a flag records any discrepancy.
    """
    n = G.n
    H, Ho = (neighborhood_hypergraph(G, closed) for closed in (True, False))
    dc, do = (reduced_degeneracy(h).reduced for h in (H, Ho))
    out: dict[str, KindBounds] = {}

    def entries_at(kind: str, j: int) -> list[BoundEntry]:
        tc, fc = trace_value(H, j)
        to, fo = trace_value(Ho, j)
        # Each neighborhood family, restricted to the vertices outside a
        # locating-dominating set, leaves that many distinct nonempty traces
        # on the set; splitting the count with the peel chain certifies
        # (n + delta*j - T_j) / (delta + 1) for either family.  Pairing a
        # family's trace value with the other family's degeneracy is not
        # certified and is therefore never emitted.
        batch = [
            BoundEntry(name, j, Fraction(n + delta * j - t_j, delta + 1), form, delta)
            for name, delta, t_j, form in (("ld-closed-pair", dc, tc, fc), ("ld-open-pair", do, to, fo))
        ]
        if kind == "ID":
            batch.append(BoundEntry("id-transversal", j, transversal_bound(n, tc, dc, j), fc, dc))
        elif kind == "OLD":
            certified_value = transversal_bound(n, to, do, j)
            literal_value = transversal_bound(n, tc, do, j)
            flags = ("formula-discrepancy",) if literal_value != certified_value else ()
            value = min(certified_value, literal_value)
            form = fo if value == certified_value else fc
            batch.append(BoundEntry("old-transversal", j, value, form, do, flags))
        return batch

    sides = (("closed", H), ("open", Ho))
    caveats = tuple(f"{side} twins present" for side, h in sides if h.has_duplicate_edges)
    for kind in KINDS:
        feasible, reason, pair = _feasibility(G, kind)
        if not feasible:
            out[kind] = KindBounds(kind, False, (), (reason, *caveats), pair)
            continue
        entries = bootstrap_entries(lambda j, kind=kind: entries_at(kind, j), j_max)
        out[kind] = KindBounds(kind, True, tuple(entries), caveats)
    return out


@dataclass(frozen=True)
class TreeBounds:
    """The closed-form tree lower bounds, already ceiled."""

    ld: int
    id: int | None
    old: int
    id_hypothesis_holds: bool


def tree_lower_bounds(G: Graph) -> TreeBounds:
    """Leaf-structure lower bounds for trees on at least four vertices.

    The ID bound only applies when every support vertex is adjacent to a
    single leaf; when that hypothesis fails the bound is withheld rather
    than assumed.
    """
    if not G.is_tree:
        raise NotATreeError("tree bounds require a tree")
    if G.n < 4:
        raise ValueError("tree bounds are stated for trees on at least 4 vertices")
    stats = tree_stats(G)
    n, leaf_count, support_count = G.n, stats.leaf_count, stats.support_count
    leaf_set = set(stats.leaves)
    single_leaf = all(
        sum(1 for u in G.adj[s] if u in leaf_set) == 1 for s in stats.supports
    )
    ld = ceil(Fraction(n + 1 + 2 * (leaf_count - support_count), 3))
    id_bound = ceil(Fraction(n + 3, 3)) if single_leaf else None
    old = ceil(Fraction(n + 1, 2))
    return TreeBounds(ld, id_bound, old, single_leaf)


@dataclass(frozen=True)
class CertificateItem:
    name: str
    limit: int
    value: int

    @property
    def passed(self) -> bool:
        return self.value <= self.limit


@dataclass(frozen=True)
class TreeCertificates:
    items: tuple[CertificateItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)


def tree_degeneracy_certificates(G: Graph) -> TreeCertificates:
    """Check the five degeneracy caps that hold for neighborhood hypergraphs of trees.

    Closed: classic <= 3 and pseudo <= 2.  Open: classic <= 2, reduced <= 2,
    pseudo <= 2.  Every value is exact.
    """
    if not G.is_tree:
        raise NotATreeError("certificates require a tree")
    if G.n < 2:
        raise ValueError("certificates are stated for trees on at least 2 vertices")
    H = neighborhood_hypergraph(G, closed=True)
    Ho = neighborhood_hypergraph(G, closed=False)
    dc = reduced_degeneracy(H)
    do = reduced_degeneracy(Ho)
    items = (
        CertificateItem("classic-closed", 3, dc.classic),
        CertificateItem("classic-open", 2, do.classic),
        CertificateItem("reduced-open", 2, do.reduced),
        CertificateItem("pseudo-closed", 2, dc.pseudo),
        CertificateItem("pseudo-open", 2, do.pseudo),
    )
    return TreeCertificates(items)
