"""Analysis orchestration and the versioned JSON report.

The report is deterministic apart from its timing block: identical
instance, analyses, and budgets produce byte-identical JSON when timings
are omitted.  Every numeric result carries an exactness flag (``exact`` or
``bound``); the reduced degeneracy is the classic value, so it is exact at
every size.  Every cross-check of a mathematical inequality lands in the
``checks`` list; a failed check means the implementation (not the
mathematics) is wrong and flips the exit code.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import combinations

from . import __version__
from .degeneracy import DegeneracyTriple, reduced_degeneracy
from .domination import (
    KINDS,
    DominationReport,
    domination_lower_bounds,
    gamma_exact,
    tree_degeneracy_certificates,
    tree_lower_bounds,
)
from .errors import BudgetExceededError
from .graphs import Graph, find_twins, neighborhood_hypergraph, tree_stats
from .hypergraph import Hypergraph
from .io import hypergraph_text, serialize_graph
from .trace import (
    EXACT_COUNT_MAX,
    J_MAX,
    SUBSET_BUDGET_DEFAULT,
    degeneracy_chain_bounds,
    max_degree_bound,
    trace_count_lower_bound,
    trace_function_exact,
)
from .transversal import BoundEntry, dt_exact, dt_lower_bounds, transversal_fault
from .vc import is_shattered, vc_exact

ALL_ANALYSES = ("degeneracy", "trace", "vc", "dt", "domination", "tree")


@dataclass(frozen=True)
class Budgets:
    subset_budget: int = SUBSET_BUDGET_DEFAULT


@dataclass
class AnalysisReport:
    instance: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def stage(self, name: str, fn):
        """``fn()``, timed as stage ``name``; a budget overrun is recorded
        as a skip, with the error's ``needed`` and ``budget``, and gives
        ``None``.  A ``needed`` above ``EXACT_COUNT_MAX`` is written as
        null, with its floored log2 as ``needed_log2``."""
        start = time.perf_counter()
        try:
            return fn()
        except BudgetExceededError as exc:
            skip = {
                "stage": name,
                "reason": "budget",
                "detail": str(exc),
                "needed": exc.needed,
                "budget": exc.budget,
            }
            if exc.needed is not None and exc.needed > EXACT_COUNT_MAX:
                skip.update(needed=None, needed_log2=exc.needed.bit_length() - 1)
            self.skipped.append(skip)
            return None
        finally:
            self.timings[name] = time.perf_counter() - start

    def check(self, name: str, passed: bool, detail: str = ""):
        """Record the outcome of one cross-check."""
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def exit_code(self) -> int:
        if any(not c["passed"] for c in self.checks):
            return 2
        if self.skipped:
            return 3
        return 0

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "schema": 2,
            "tool": {"name": "hypertrace", "version": __version__},
            "instance": self.instance,
            "results": self.results,
            "checks": self.checks,
            "skipped": self.skipped,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2)


def exact_value(v: int) -> dict:
    return {"value": v, "exactness": "exact"}


def bound_entry_dict(b: BoundEntry) -> dict:
    return {
        "name": b.name,
        "j": b.j,
        "value": [b.value.numerator, b.value.denominator],
        "ceiled": b.ceiled,
        "form": b.form,
        "delta_estimate_used": b.delta_estimate_used,
        "flags": list(b.flags),
        "exactness": "bound",
    }


def triple_dict(t: DegeneracyTriple) -> dict:
    return {
        "pseudo": exact_value(t.pseudo),
        "classic": exact_value(t.classic),
        "reduced": exact_value(t.reduced),
    }


def validate_report(doc: dict) -> None:
    """Structural schema check; raises ValueError on the first violation."""
    for key in ("schema", "tool", "instance", "results", "checks", "skipped"):
        if key not in doc:
            raise ValueError(f"report is missing '{key}'")
    if doc["schema"] != 2:
        raise ValueError("unknown schema version")
    if set(doc["tool"]) != {"name", "version"}:
        raise ValueError("tool block must carry name and version")
    for key in ("kind", "n", "m", "hash"):
        if key not in doc["instance"]:
            raise ValueError(f"instance block is missing '{key}'")

    def walk(node):
        if isinstance(node, dict):
            scalar_value = isinstance(node.get("value"), (int, float)) and not isinstance(
                node.get("value"), bool
            )
            if scalar_value and "exactness" not in node:
                raise ValueError(f"numeric result without exactness flag: {node}")
            if "name" in node and "j" in node and "exactness" not in node:
                raise ValueError(f"bound entry without exactness flag: {node}")
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc["results"])
    for c in doc["checks"]:
        if not {"name", "passed"} <= set(c):
            raise ValueError("checks must carry name and passed")


def _instance_block(instance, source: str | None) -> dict:
    if isinstance(instance, Graph):
        kind, n, m = "graph", instance.n, instance.edge_count
        text = serialize_graph(instance)
    else:
        kind, n, m = "hypergraph", instance.n, instance.m
        text = hypergraph_text(instance)
    return {
        "kind": kind,
        "n": n,
        "m": m,
        "hash": hashlib.sha256(text.encode()).hexdigest(),
        "source": source,
        "generator": None,
    }


def _bounds_below_exact(r: AnalysisReport, name: str, entries, exact: int):
    bad = [b for b in entries if b.ceiled > exact]
    r.check(name, not bad, f"exact={exact}")


def _analyze(instance, r: AnalysisReport, budgets: Budgets, analyses) -> None:
    """The one analysis pipeline, over the sides of the instance.

    A hypergraph has one side, ``""``.  A graph has two, its closed and
    open neighborhood hypergraphs.  Degeneracy and DT run once per side,
    trace and VC on the first side.  A per-side stage or check is named
    ``name-side`` (just ``name`` on a hypergraph), and per-side result
    blocks are nested by side only for graphs.  The parts that belong to
    one kind of instance run as extras where their checks fall.
    """
    graph = isinstance(instance, Graph)
    if graph:
        sides = {
            "closed": neighborhood_hypergraph(instance, closed=True),
            "open": neighborhood_hypergraph(instance, closed=False),
        }
    else:
        sides = {"": instance}
    first = next(iter(sides))
    H = sides[first]
    res = r.results

    def named(name: str, side: str) -> str:
        return f"{name}-{side}" if side else name

    def nested(block: dict) -> dict:
        return block if graph else block[first]

    if graph:
        res["neighborhoods"] = {
            "closed_twins": [list(p) for p in find_twins(instance, closed=True)],
            "open_twins": [list(p) for p in find_twins(instance, closed=False)],
        }
    triples = {
        side: r.stage(named("degeneracy", side), lambda h=h: reduced_degeneracy(h))
        for side, h in sides.items()
    }
    if "degeneracy" in analyses:
        res["degeneracy"] = nested({side: triple_dict(t) for side, t in triples.items()})
        for side, t in triples.items():
            r.check(named("degeneracy-sandwich", side), t.pseudo <= t.reduced <= t.classic)
        if graph:
            r.check("classic-closed-within-max-degree", triples["closed"].classic <= instance.max_degree + 1)
            r.check("classic-open-within-max-degree", triples["open"].classic <= max(instance.max_degree, 0))

    if "trace" in analyses:
        budget = budgets.subset_budget
        entries = []
        for k in sorted({s for s in (1, 2, H.n // 2, H.n) if s <= H.n}):
            found = r.stage(
                f"trace-k{k}",
                lambda k=k: (
                    trace_function_exact(H, k, subset_budget=budget),
                    trace_function_exact(H, k, include_empty=True, subset_budget=budget),
                ),
            )
            (exact, witness), (with_empty, _) = found or ((None, None), (None, None))
            max_degree, chain = r.stage(
                f"trace-k{k}-bounds",
                lambda k=k: (max_degree_bound(H, k), degeneracy_chain_bounds(H, k, j_max=J_MAX)),
            )
            # min(|E|, k + 1) needs k >= 1 and distinct edges.
            lower = trace_count_lower_bound(H, k) if k and H.is_simple else None
            caveats = ["lower bound unsupported on multi-edge input"] if k and lower is None else []
            entries.append({
                "k": k,
                "exact": exact_value(exact) if found else None,
                "exact_with_empty": exact_value(with_empty) if found else None,
                "witness": list(witness) if found else None,
                "max_degree_bound": {"value": max_degree, "exactness": "bound"},
                "chain_bounds": [
                    {"j": j, "value": v, "form": form, "exactness": "bound"}
                    for j, v, form in chain.entries
                ],
                "reduced_times_k": {"value": chain.reduced_times_k, "exactness": "bound"},
                "lower_bound": {"value": lower, "exactness": "bound"} if lower is not None else None,
                "caveats": caveats,
            })
            if found:
                uppers = (max_degree, chain.reduced_times_k, *(v for _, v, _ in chain.entries))
                r.check(f"trace-upper-bounds-k{k}", exact <= min(uppers))
                if lower is not None:
                    r.check(f"trace-lower-bound-k{k}", lower <= with_empty)
        res["trace_closed" if graph else "trace"] = entries

    if "vc" in analyses:
        vc = r.stage("vc", lambda: vc_exact(H, node_budget=budgets.subset_budget))
        if vc is not None:
            res["vc"] = {
                "dimension": exact_value(vc.dimension),
                "witness": list(vc.witness),
                "upper_bound_used": {"value": vc.upper_bound_used, "exactness": "bound"},
                "nodes_enumerated": vc.nodes_enumerated,
            }
            r.check("vc-within-degeneracy-cap", vc.dimension <= vc.upper_bound_used)
            if not graph:
                # A shattered d-set carries 2^d distinct traces, the empty one included.
                passed = vc.dimension == 0 or (1 << vc.dimension) <= len(H.distinct_edges)
                r.check("vc-within-log-edges", passed)
            elif instance.n <= 12:
                # Against the definition, unpruned: no (d+1)-set of any vertices shatters.
                passed = (not vc.witness or is_shattered(H, vc.witness)) and not any(
                    is_shattered(H, c) for c in combinations(H.vertex_list, vc.dimension + 1)
                )
                r.check("vc-neighborhood-matches-general", passed)

    dts = {}
    if "dt" in analyses:
        glosses = {"empty edge": " (isolated vertex)", "duplicate edges": " (twins)"} if graph else {}
        block = {}
        for side, h in sides.items():
            fault = transversal_fault(h)
            if fault:
                block[side] = {"undefined": fault + glosses.get(fault, "")}
                continue
            name = named("dt", side)
            bounds = r.stage(f"{name}-bounds", lambda h=h: dt_lower_bounds(h))
            dt = r.stage(name, lambda h=h: dt_exact(h, subset_budget=budgets.subset_budget))
            block[side] = {
                "value": exact_value(dt.value) if dt is not None else None,
                "witness": list(dt.witness) if dt is not None else None,
                "lower_bounds": [bound_entry_dict(b) for b in bounds],
            }
            if dt is not None:
                dts[side] = dt.value
                _bounds_below_exact(r, f"{name}-bounds-below-exact", bounds, dt.value)
        res["dt"] = nested(block)

    if graph and "domination" in analyses:
        _domination(instance, r, budgets, dts.get("closed"))
    if graph and "tree" in analyses and instance.is_tree:
        _tree(instance, r)


def _domination(G: Graph, r: AnalysisReport, budgets: Budgets, dt_closed: int | None) -> None:
    kind_bounds = r.stage("domination-bounds", lambda: domination_lower_bounds(G))
    block = {}
    exacts: dict[str, int | None] = {}
    for kind in KINDS:
        # A skipped search reads as a report with nothing known.
        report = r.stage(
            f"gamma-{kind}", lambda k=kind: gamma_exact(G, k, subset_budget=budgets.subset_budget)
        ) or DominationReport(kind, None, None, None)
        kb = kind_bounds[kind]
        block[kind] = {
            "feasible": report.feasible,
            "exact": exact_value(report.exact) if report.exact is not None else None,
            "witness": list(report.witness) if report.witness is not None else None,
            "infeasible_reason": report.infeasible_reason,
            "infeasible_pair": list(report.infeasible_pair) if report.infeasible_pair else None,
            "lower_bounds": [bound_entry_dict(b) for b in kb.entries],
            "caveats": list(kb.caveats),
        }
        exacts[kind] = report.exact
        if report.exact is not None:
            _bounds_below_exact(r, f"gamma-{kind}-bounds-below-exact", kb.entries, report.exact)
    r.results["domination"] = block
    if exacts["LD"] is not None:
        if exacts["ID"] is not None:
            r.check("gamma-id-at-least-ld", exacts["ID"] >= exacts["LD"])
        if exacts["OLD"] is not None:
            r.check("gamma-old-at-least-ld", exacts["OLD"] >= exacts["LD"])
    if exacts["ID"] is not None and dt_closed is not None:
        r.check("id-equals-dt-closed", exacts["ID"] == dt_closed)


def _tree(G: Graph, r: AnalysisReport) -> None:
    res = r.results
    stats = tree_stats(G)
    tree_block = {
        "stats": {
            "leaves": list(stats.leaves),
            "supports": list(stats.supports),
            "canonical_supports": list(stats.canonical_supports),
        }
    }
    if G.n >= 2:
        certs = tree_degeneracy_certificates(G)
        tree_block["certificates"] = [
            {
                "name": item.name,
                "limit": item.limit,
                "low": item.value,
                "high": item.value,
                "exactness": "exact",
                "passed": item.passed,
            }
            for item in certs.items
        ]
        r.check("tree-degeneracy-certificates", certs.all_passed)
    if G.n >= 4:
        tb = tree_lower_bounds(G)
        tree_block["bounds"] = {
            "LD": {"value": tb.ld, "exactness": "bound"},
            "ID": {"value": tb.id, "exactness": "bound"} if tb.id is not None else None,
            "OLD": {"value": tb.old, "exactness": "bound"},
            "id_hypothesis_holds": tb.id_hypothesis_holds,
        }
        dom = res.get("domination", {})
        for kind, bound in (("LD", tb.ld), ("ID", tb.id), ("OLD", tb.old)):
            exact = (dom.get(kind) or {}).get("exact")
            if bound is not None and exact is not None:
                r.check(f"tree-bound-{kind}-below-exact", bound <= exact["value"])
    res["tree"] = tree_block


def run_report(
    instance,
    analyses=None,
    budgets: Budgets | None = None,
    source: str | None = None,
) -> AnalysisReport:
    """Run the requested analyses and assemble the report.

    ``analyses`` is an iterable drawn from ``ALL_ANALYSES``; None means all.
    Budget overruns never abort the run: the affected exact values are
    recorded as skipped and the closed-form bounds still appear.
    """
    budgets = budgets or Budgets()
    selected = tuple(analyses) if analyses is not None else ALL_ANALYSES
    unknown = set(selected) - set(ALL_ANALYSES)
    if unknown:
        raise ValueError(f"unknown analyses: {sorted(unknown)}")
    if not isinstance(instance, (Graph, Hypergraph)):
        raise TypeError("instance must be a Graph or a Hypergraph")
    report = AnalysisReport(instance=_instance_block(instance, source))
    _analyze(instance, report, budgets, selected)
    return report
