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
    domination_lower_bounds,
    gamma_exact,
    tree_degeneracy_certificates,
    tree_lower_bounds,
)
from .errors import BudgetExceededError
from .graphs import Graph, find_twins, neighborhood_hypergraph, tree_stats
from .hypergraph import Hypergraph
from .io import serialize_graph, serialize_hypergraph
from .trace import trace_bound_profile
from .transversal import BoundEntry, dt_exact, dt_lower_bounds
from .vc import VcResult, is_shattered, vc_exact

ALL_ANALYSES = ("degeneracy", "trace", "vc", "dt", "domination", "tree")


@dataclass(frozen=True)
class Budgets:
    subset_budget: int = 2_000_000
    j_max: int = 8
    trace_sizes: tuple[int, ...] | None = None


@dataclass
class AnalysisReport:
    instance: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if any(not c["passed"] for c in self.checks):
            return 2
        if self.skipped:
            return 3
        return 0

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "schema": 1,
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
    if doc["schema"] != 1:
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
            if (scalar_value or "low" in node) and "exactness" not in node:
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


class _Runner:
    def __init__(self, report: AnalysisReport):
        self.report = report

    def stage(self, name: str, fn):
        start = time.perf_counter()
        try:
            return fn()
        except BudgetExceededError as exc:
            self.report.skipped.append({"stage": name, "reason": "budget", "detail": str(exc)})
            return None
        finally:
            self.report.timings[name] = time.perf_counter() - start

    def check(self, name: str, passed: bool, detail: str = ""):
        self.report.checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _instance_block(instance, source: str | None, generator: dict | None) -> dict:
    if isinstance(instance, Graph):
        kind, n, m = "graph", instance.n, instance.edge_count
        text = serialize_graph(instance)
    else:
        kind, n, m = "hypergraph", instance.n, instance.m
        text = serialize_hypergraph(instance)
    return {
        "kind": kind,
        "n": n,
        "m": m,
        "hash": hashlib.sha256(text.encode()).hexdigest(),
        "source": source,
        "generator": generator,
    }


def _trace_sizes(n: int, requested: tuple[int, ...] | None) -> list[int]:
    if requested is not None:
        return sorted({k for k in requested if 0 <= k <= n})
    return sorted({k for k in (1, 2, n // 2, n) if 0 <= k <= n})


def _bounds_below_exact(r: _Runner, name: str, entries, exact: int | None):
    if exact is None:
        return
    bad = [b for b in entries if b.ceiled > exact]
    r.check(name, not bad, f"exact={exact}")


def _vc_section(H: Hypergraph, r: _Runner, budgets: Budgets) -> VcResult | None:
    vc = r.stage("vc", lambda: vc_exact(H, node_budget=budgets.subset_budget))
    if vc is not None:
        r.report.results["vc"] = {
            "dimension": exact_value(vc.dimension),
            "witness": list(vc.witness),
            "upper_bound_used": {"value": vc.upper_bound_used, "exactness": "bound"},
            "nodes_enumerated": vc.nodes_enumerated,
        }
        r.check("vc-within-degeneracy-cap", vc.dimension <= vc.upper_bound_used)
    return vc


def _analyze_hypergraph(H: Hypergraph, r: _Runner, budgets: Budgets, analyses) -> None:
    res = r.report.results
    triple = r.stage("degeneracy", lambda: reduced_degeneracy(H))
    if "degeneracy" in analyses:
        res["degeneracy"] = triple_dict(triple)
        r.check("degeneracy-sandwich", triple.pseudo <= triple.reduced <= triple.classic)

    if "trace" in analyses:
        profiles = []
        for k in _trace_sizes(H.n, budgets.trace_sizes):
            profile = r.stage(
                f"trace-k{k}",
                lambda k=k: trace_bound_profile(
                    H, k, triple, j_max=budgets.j_max, subset_budget=budgets.subset_budget
                ),
            )
            if profile is None:
                continue
            entry = {
                "k": k,
                "exact": exact_value(profile.exact) if profile.exact is not None else None,
                "exact_with_empty": exact_value(profile.exact_with_empty)
                if profile.exact_with_empty is not None
                else None,
                "witness": list(profile.witness) if profile.witness is not None else None,
                "max_degree_bound": {"value": profile.max_degree, "exactness": "bound"},
                "chain_bounds": [
                    {"j": j, "value": v, "form": form, "exactness": "bound"}
                    for j, v, form in profile.chain.entries
                ],
                "reduced_times_k": {"value": profile.chain.reduced_times_k, "exactness": "bound"},
                "classic_times_k": {"value": profile.chain.classic_times_k, "exactness": "bound"},
                "lower_bound": {"value": profile.lower, "exactness": "bound"}
                if profile.lower is not None
                else None,
                "caveats": list(profile.caveats),
            }
            profiles.append(entry)
            if profile.exact is not None:
                ok = (
                    profile.exact <= profile.max_degree
                    and profile.exact <= profile.chain.reduced_times_k
                    and all(profile.exact <= v for _, v, _ in profile.chain.entries)
                )
                r.check(f"trace-upper-bounds-k{k}", ok)
                if profile.lower is not None and profile.exact_with_empty is not None:
                    r.check(f"trace-lower-bound-k{k}", profile.lower <= profile.exact_with_empty)
        res["trace"] = profiles

    if "vc" in analyses:
        vc = _vc_section(H, r, budgets)
        if vc is not None:
            distinct = sum(1 for e in H.distinct_edges if e)
            passed = vc.dimension == 0 if distinct == 0 else (1 << vc.dimension) <= distinct
            r.check("vc-within-log-edges", passed)

    if "dt" in analyses:
        if not H.is_simple:
            res["dt"] = {"undefined": "duplicate edges"}
        elif any(not e for e in H.edges):
            res["dt"] = {"undefined": "empty edge"}
        else:
            bounds = r.stage("dt-bounds", lambda: dt_lower_bounds(H, triple, j_max=budgets.j_max))
            dt = r.stage(
                "dt", lambda: dt_exact(H, subset_budget=budgets.subset_budget)
            )
            res["dt"] = {
                "value": exact_value(dt.value) if dt is not None else None,
                "witness": list(dt.witness) if dt is not None else None,
                "lower_bounds": [bound_entry_dict(b) for b in bounds],
            }
            if dt is not None:
                _bounds_below_exact(r, "dt-bounds-below-exact", bounds, dt.value)


def _analyze_graph(G: Graph, r: _Runner, budgets: Budgets, analyses) -> None:
    res = r.report.results
    H = neighborhood_hypergraph(G, closed=True)
    Ho = neighborhood_hypergraph(G, closed=False)
    res["neighborhoods"] = {
        "closed_twins": [list(p) for p in find_twins(G, closed=True)],
        "open_twins": [list(p) for p in find_twins(G, closed=False)],
    }
    dc = r.stage("degeneracy-closed", lambda: reduced_degeneracy(H))
    do = r.stage("degeneracy-open", lambda: reduced_degeneracy(Ho))
    if "degeneracy" in analyses:
        res["degeneracy"] = {"closed": triple_dict(dc), "open": triple_dict(do)}
        for name, t in (("closed", dc), ("open", do)):
            r.check(f"degeneracy-sandwich-{name}", t.pseudo <= t.reduced <= t.classic)
        r.check("classic-closed-within-max-degree", dc.classic <= G.max_degree + 1)
        r.check("classic-open-within-max-degree", do.classic <= max(G.max_degree, 0))

    if "trace" in analyses:
        profiles = []
        for k in _trace_sizes(G.n, budgets.trace_sizes):
            profile = r.stage(
                f"trace-k{k}",
                lambda k=k: trace_bound_profile(
                    H, k, dc, j_max=budgets.j_max, subset_budget=budgets.subset_budget
                ),
            )
            if profile is None:
                continue
            profiles.append(
                {
                    "k": k,
                    "exact": exact_value(profile.exact) if profile.exact is not None else None,
                    "max_degree_bound": {"value": profile.max_degree, "exactness": "bound"},
                    "reduced_times_k": {"value": profile.chain.reduced_times_k, "exactness": "bound"},
                    "caveats": list(profile.caveats),
                }
            )
            if profile.exact is not None:
                r.check(
                    f"trace-upper-bounds-k{k}",
                    profile.exact <= profile.max_degree
                    and profile.exact <= profile.chain.reduced_times_k,
                )
        res["trace_closed"] = profiles

    if "vc" in analyses:
        vc = _vc_section(H, r, budgets)
        if vc is not None and G.n <= 12:
            # Against the definition, unpruned: no (d+1)-set of any vertices shatters.
            passed = (not vc.witness or is_shattered(H, vc.witness)) and not any(
                is_shattered(H, c) for c in combinations(H.vertex_list, vc.dimension + 1)
            )
            r.check("vc-neighborhood-matches-general", passed)

    dt_closed_value = None
    if "dt" in analyses:
        block = {}
        for label, hyper, triple in (("closed", H, dc), ("open", Ho, do)):
            if not hyper.is_simple:
                block[label] = {"undefined": "duplicate edges (twins)"}
                continue
            if any(not e for e in hyper.edges):
                block[label] = {"undefined": "empty edge (isolated vertex)"}
                continue
            bounds = r.stage(
                f"dt-{label}-bounds",
                lambda h=hyper, t=triple: dt_lower_bounds(h, t, j_max=budgets.j_max),
            )
            dt = r.stage(
                f"dt-{label}", lambda h=hyper: dt_exact(h, subset_budget=budgets.subset_budget)
            )
            block[label] = {
                "value": exact_value(dt.value) if dt is not None else None,
                "witness": list(dt.witness) if dt is not None else None,
                "lower_bounds": [bound_entry_dict(b) for b in bounds],
            }
            if dt is not None:
                if label == "closed":
                    dt_closed_value = dt.value
                _bounds_below_exact(r, f"dt-{label}-bounds-below-exact", bounds, dt.value)
        res["dt"] = block

    if "domination" in analyses:
        kind_bounds = r.stage(
            "domination-bounds",
            lambda: domination_lower_bounds(
                G, j_max=budgets.j_max, closed_degeneracy=dc, open_degeneracy=do
            ),
        )
        block = {}
        exacts: dict[str, int | None] = {}
        for kind in KINDS:
            report = r.stage(
                f"gamma-{kind}", lambda k=kind: gamma_exact(G, k, subset_budget=budgets.subset_budget)
            )
            kb = kind_bounds[kind] if kind_bounds else None
            entry = {
                "feasible": report.feasible if report is not None else None,
                "exact": exact_value(report.exact)
                if report is not None and report.exact is not None
                else None,
                "witness": list(report.witness)
                if report is not None and report.witness is not None
                else None,
                "infeasible_reason": report.infeasible_reason if report is not None else None,
                "infeasible_pair": list(report.infeasible_pair)
                if report is not None and report.infeasible_pair
                else None,
                "lower_bounds": [bound_entry_dict(b) for b in kb.entries] if kb else [],
                "caveats": list(kb.caveats) if kb else [],
            }
            block[kind] = entry
            exacts[kind] = report.exact if report is not None else None
            if report is not None and report.exact is not None and kb is not None:
                _bounds_below_exact(r, f"gamma-{kind}-bounds-below-exact", kb.entries, report.exact)
        res["domination"] = block
        if exacts.get("LD") is not None:
            if exacts.get("ID") is not None:
                r.check("gamma-id-at-least-ld", exacts["ID"] >= exacts["LD"])
            if exacts.get("OLD") is not None:
                r.check("gamma-old-at-least-ld", exacts["OLD"] >= exacts["LD"])
        if exacts.get("ID") is not None and dt_closed_value is not None:
            r.check("id-equals-dt-closed", exacts["ID"] == dt_closed_value)

    if "tree" in analyses and G.is_tree:
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
    generator: dict | None = None,
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
    report = AnalysisReport(instance=_instance_block(instance, source, generator))
    runner = _Runner(report)
    if isinstance(instance, Graph):
        _analyze_graph(instance, runner, budgets, selected)
    elif isinstance(instance, Hypergraph):
        _analyze_hypergraph(instance, runner, budgets, selected)
    else:
        raise TypeError("instance must be a Graph or a Hypergraph")
    return report
