"""Output checks that share no code with the program.

Everything here works on plain Python sets built from the benchmark's own
instance description; nothing imports ``hypertrace``.  Each check returns a
list of problems, empty when the output passes.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations


def families(kind: str, n: int, edges) -> dict[str, list[frozenset[int]]]:
    """The hypergraphs a report speaks of: the edges, or both neighbourhoods."""
    if kind == "hgraph":
        return {"edges": [frozenset(e) for e in edges]}
    adj = adjacency(n, edges)
    return {
        "closed": [frozenset(adj[v] | {v}) for v in range(n)],
        "open": [frozenset(adj[v]) for v in range(n)],
    }


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# --- peeling -------------------------------------------------------------


class _Peel:
    """Min-degree peeling state on plain sets, in both removal rules.

    Classic: the residual hypergraph is the restriction to the remaining
    vertices, so traces that become equal merge.  Pseudo: a removed vertex
    takes every edge containing it along.
    """

    def __init__(self, n: int, edges, classic: bool):
        self.classic = classic
        distinct = {frozenset(e) for e in edges if e}
        self.traces = [set(e) for e in distinct]
        self.by_key = {e: i for i, e in enumerate(distinct)}
        self.containing = [set() for _ in range(n)]
        for i, t in enumerate(self.traces):
            for v in t:
                self.containing[v].add(i)
        self.removed = [False] * n
        self.heap = [(len(c), v) for v, c in enumerate(self.containing)]
        heapify(self.heap)

    def degree(self, v: int) -> int:
        return len(self.containing[v])

    def lowest(self) -> tuple[int, int]:
        """(degree, vertex) of the lowest-id minimum-degree remaining vertex."""
        heap = self.heap
        while True:
            d, u = heap[0]
            if self.removed[u] or d != len(self.containing[u]):
                heappop(heap)
                continue
            return d, u

    def remove(self, v: int) -> None:
        self.removed[v] = True
        for i in self.containing[v]:
            t = self.traces[i]
            if self.classic:
                del self.by_key[frozenset(t)]
                t.discard(v)
                key = frozenset(t)
                if t and key not in self.by_key:
                    self.by_key[key] = i
                    continue
            # The class dies: it emptied, merged into an equal trace, or
            # (pseudo rule) left with the removed vertex.
            for u in t:
                if u != v:
                    self.containing[u].discard(i)
                    heappush(self.heap, (len(self.containing[u]), u))
        self.containing[v] = set()


def peel_value(n: int, edges, classic: bool) -> int:
    """Degeneracy by min-degree peeling on plain sets."""
    state = _Peel(n, edges, classic)
    best = 0
    for _ in range(n):
        d, v = state.lowest()
        best = max(best, d)
        state.remove(v)
    return best


def replay_peel(n: int, edges, order, seq, value, classic: bool) -> list[str]:
    """Replay a reported peel order and check every step of it."""
    order, seq = list(order), list(seq)
    if sorted(order) != list(range(n)):
        return ["peel order is not a permutation of the vertices"]
    if len(seq) != n:
        return [f"degree sequence has {len(seq)} entries for {n} vertices"]
    state = _Peel(n, edges, classic)
    for step, v in enumerate(order):
        d, low = state.lowest()
        if state.degree(v) != seq[step]:
            return [f"step {step}: vertex {v} has degree {state.degree(v)}, reported {seq[step]}"]
        if v != low:
            return [f"step {step}: removed {v} (degree {seq[step]}), lowest-id minimum is {low} (degree {d})"]
        state.remove(v)
    if value != max(seq, default=0):
        return [f"value {value} is not the sequence maximum {max(seq, default=0)}"]
    return []


# --- predicates ----------------------------------------------------------


def traces(family, subset, include_empty: bool = False) -> set[frozenset[int]]:
    s = frozenset(subset)
    out = {e & s for e in family}
    if not include_empty:
        out.discard(frozenset())
    return out


def is_shattered(family, subset) -> bool:
    s = sorted(subset)
    realised = traces(family, s, include_empty=True)
    return all(
        frozenset(c) in realised for r in range(len(s) + 1) for c in combinations(s, r)
    )


def is_transversal(family, subset) -> bool:
    """All traces nonempty and pairwise distinct."""
    s = frozenset(subset)
    seen = set()
    for e in family:
        t = e & s
        if not t or t in seen:
            return False
        seen.add(t)
    return True


def is_locating(kind: str, closed, open_, subset) -> bool:
    """The LD / ID / OLD predicate, straight from the definitions."""
    s = frozenset(subset)
    if kind == "LD":
        labels = [open_[x] & s for x in range(len(open_)) if x not in s]
        dominated = all(closed[x] & s for x in range(len(closed)))
        return dominated and len(set(labels)) == len(labels)
    family = closed if kind == "ID" else open_
    return is_transversal(family, s)


# --- report checks -------------------------------------------------------


def exact_count(node) -> int:
    """Result entries flagged ``"exactness": "exact"``."""
    if isinstance(node, dict):
        own = 1 if node.get("exactness") == "exact" else 0
        return own + sum(exact_count(v) for v in node.values())
    if isinstance(node, list):
        return sum(exact_count(v) for v in node)
    return 0


def _val(entry):
    return entry["value"] if isinstance(entry, dict) and "value" in entry else None


class _Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def check_degeneracy(p: _Problems, label: str, block: dict, ref: dict | None) -> None:
    pseudo, classic = _val(block["pseudo"]), _val(block["classic"])
    reduced = block["reduced"]
    low, high = (reduced["value"],) * 2 if "value" in reduced else (reduced["low"], reduced["high"])
    p.expect(pseudo <= low <= high <= classic, f"{label}: pseudo <= reduced <= classic fails")
    if "value" not in reduced:
        p.expect((low, high) == (pseudo, classic), f"{label}: reduced envelope is not [pseudo, classic]")
    if ref is None:
        return
    p.expect(pseudo == ref["pseudo"], f"{label}: pseudo {pseudo} != reference {ref['pseudo']}")
    p.expect(classic == ref["classic"], f"{label}: classic {classic} != reference {ref['classic']}")
    if "value" in reduced and ref.get("reduced") is not None:
        p.expect(low == ref["reduced"], f"{label}: reduced {low} != reference {ref['reduced']}")


def check_trace(p: _Problems, label: str, entries: list, family, ref: dict) -> None:
    for entry in entries:
        k = entry["k"]
        exact = _val(entry["exact"])
        if exact is None:
            continue
        where = f"{label} T_{k}"
        want = ref.get(str(k))
        if want is not None:
            p.expect(exact == want[0], f"{where}: {exact} != reference {want[0]}")
            with_empty = _val(entry.get("exact_with_empty"))
            if with_empty is not None:
                p.expect(with_empty == want[1], f"{where} with empty: {with_empty} != reference {want[1]}")
        witness = entry.get("witness")
        if witness is not None:
            p.expect(len(set(witness)) == k, f"{where}: witness is not a {k}-set")
            p.expect(len(traces(family, witness)) == exact, f"{where}: witness carries another count")
        p.expect(exact <= _val(entry["max_degree_bound"]), f"{where}: above the max-degree bound")
        p.expect(exact <= _val(entry["reduced_times_k"]), f"{where}: above reduced*k")
        for chain in entry.get("chain_bounds", ()):
            p.expect(exact <= chain["value"], f"{where}: above the chain bound at j={chain['j']}")
        lower, with_empty = _val(entry.get("lower_bound")), _val(entry.get("exact_with_empty"))
        if lower is not None and with_empty is not None:
            p.expect(lower <= with_empty, f"{where}: lower bound above the value")


def check_vc(p: _Problems, block: dict, family, ref: int | None) -> None:
    d, witness = _val(block["dimension"]), block["witness"]
    p.expect(len(set(witness)) == d, f"vc: witness {witness} is not a {d}-set")
    p.expect(is_shattered(family, witness), f"vc: witness {witness} is not shattered")
    for e in set(family):
        for c in combinations(sorted(e), d + 1):
            if is_shattered(family, c):
                p.append(f"vc: {list(c)} of size {d + 1} is shattered")
                return
    if ref is not None:
        p.expect(d == ref, f"vc: {d} != reference {ref}")


def check_lower_bounds(p: _Problems, label: str, bounds, exact: int | None) -> None:
    if exact is None:
        return
    for b in bounds:
        p.expect(b["ceiled"] <= exact, f"{label}: bound {b['name']} j={b['j']} exceeds {exact}")


def check_dt(p: _Problems, label: str, block: dict, family, ref: int | None) -> int | None:
    if "undefined" in block:
        p.expect(ref == "undefined", f"{label}: reported undefined, reference {ref}")
        return None
    p.expect(ref != "undefined", f"{label}: reported defined, reference undefined")
    ref = ref if isinstance(ref, int) else None
    value = _val(block.get("value"))
    if value is not None:
        witness = block["witness"]
        p.expect(len(set(witness)) == value, f"{label}: witness is not a {value}-set")
        p.expect(is_transversal(family, witness), f"{label}: witness {witness} does not distinguish")
        if ref is not None:
            p.expect(value == ref, f"{label}: {value} != reference {ref}")
    check_lower_bounds(p, label, block.get("lower_bounds", ()), value if value is not None else ref)
    return value


def check_domination(p: _Problems, block: dict, closed, open_, ref: dict) -> dict:
    exacts = {}
    for kind, entry in block.items():
        want = ref.get(kind, "unknown")
        if entry["feasible"] is False:  # None means the search was skipped
            p.expect(want is None, f"gamma {kind}: reported infeasible, reference {want}")
            continue
        value = _val(entry["exact"])
        exacts[kind] = value
        if value is not None:
            witness = entry["witness"]
            p.expect(len(set(witness)) == value, f"gamma {kind}: witness is not a {value}-set")
            p.expect(
                is_locating(kind, closed, open_, witness), f"gamma {kind}: witness {witness} fails"
            )
            if want != "unknown":
                p.expect(value == want, f"gamma {kind}: {value} != reference {want}")
        known = value if value is not None else (want if isinstance(want, int) else None)
        check_lower_bounds(p, f"gamma {kind}", entry["lower_bounds"], known)
    return exacts


def check_report(doc: dict, kind: str, n: int, edges, ref: dict | None) -> list[str]:
    """Check one analysis report against plain-set recomputation.

    ``ref`` holds the instance's relabelling-invariant reference values
    (from ``refs.json``, or the replayed peel values for peel instances).
    """
    p = _Problems()
    ref = ref or {}
    res = doc["results"]
    fams = families(kind, n, edges)
    p.expect(all(c["passed"] for c in doc["checks"]), "the report lists a failed check")
    deg_refs = ref.get("degeneracy", {})
    if kind == "hgraph":
        check_degeneracy(p, "degeneracy", res["degeneracy"], deg_refs.get("edges"))
    else:
        for side in ("closed", "open"):
            check_degeneracy(p, f"degeneracy {side}", res["degeneracy"][side], deg_refs.get(side))
    family = fams["edges"] if kind == "hgraph" else fams["closed"]
    trace_key = "trace" if kind == "hgraph" else "trace_closed"
    if trace_key in res:
        check_trace(p, trace_key, res[trace_key], family, ref.get("trace", {}))
    if "vc" in res:
        check_vc(p, res["vc"], family, ref.get("vc"))
    dt_values = {}
    if "dt" in res:
        if kind == "hgraph":
            check_dt(p, "dt", res["dt"], fams["edges"], ref.get("dt", {}).get("edges"))
        else:
            for side in ("closed", "open"):
                dt_values[side] = check_dt(
                    p, f"dt {side}", res["dt"][side], fams[side], ref.get("dt", {}).get(side)
                )
    if "domination" in res:
        exacts = check_domination(p, res["domination"], fams["closed"], fams["open"], ref.get("gamma", {}))
        for kind_, side in (("ID", "closed"), ("OLD", "open")):
            a, b = exacts.get(kind_), dt_values.get(side)
            if a is not None and b is not None:
                p.expect(a == b, f"gamma {kind_} {a} != dt {side} {b}")
    if "tree" in res:
        check_tree(p, res, ref.get("gamma", {}))
    return list(p)


def check_tree(p: _Problems, res: dict, gamma_ref: dict) -> None:
    tree = res["tree"]
    deg = res["degeneracy"]
    expected = {
        "classic-closed": (_val(deg["closed"]["classic"]),) * 2,
        "classic-open": (_val(deg["open"]["classic"]),) * 2,
        "pseudo-closed": (_val(deg["closed"]["pseudo"]),) * 2,
        "pseudo-open": (_val(deg["open"]["pseudo"]),) * 2,
    }
    for item in tree.get("certificates", ()):
        p.expect(item["high"] <= item["limit"], f"tree certificate {item['name']} fails")
        if item["name"] in expected:
            p.expect(
                (item["low"], item["high"]) == expected[item["name"]],
                f"tree certificate {item['name']} disagrees with the degeneracy block",
            )
    for kind, bound in (tree.get("bounds") or {}).items():
        if not isinstance(bound, dict):
            continue
        exact = _val((res.get("domination", {}).get(kind) or {}).get("exact"))
        if exact is None and isinstance(gamma_ref.get(kind), int):
            exact = gamma_ref[kind]
        if exact is not None:
            p.expect(bound["value"] <= exact, f"tree bound {kind} exceeds {exact}")
