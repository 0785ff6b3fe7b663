"""Acceptance suite: one test per release criterion, one PASS line each.

Every expected value asserted here was either derived by the brute-force
oracles in ``oracles.py`` before being frozen, or is a closed-form bound
evaluated at its stated tolerance.  Run with ``pytest -v -s`` to see the
per-criterion lines.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from importlib import resources

from hypertrace import (
    Graph,
    build_hypergraph,
    degeneracy_chain_bounds,
    degeneracy_oracle,
    dt_exact,
    dt_lower_bounds,
    find_twins,
    gamma_exact,
    max_degree_bound,
    neighborhood_hypergraph,
    parse_graph_text,
    parse_hypergraph_text,
    peel_degeneracy,
    peel_pseudo_degeneracy,
    pseudo_degeneracy_oracle,
    random_gnp,
    random_hypergraph,
    random_tree,
    reduced_degeneracy,
    serialize_graph,
    serialize_hypergraph,
    trace_count_lower_bound,
    trace_function_exact,
    tree_degeneracy_certificates,
    tree_lower_bounds,
    vc_exact,
    vc_upper_bound,
)
from hypertrace.bench import instance_for_weight, run_bench
from oracles import brute_vc


def _report(num: int, name: str, ok: bool, extra: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def _random_hypergraphs(count, seed, max_n, max_m, simple=False, min_m=0):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        m = rng.randint(min_m, max_m)
        edges = []
        seen = set()
        for _ in range(m):
            e = frozenset(rng.sample(range(n), rng.randint(1, n)))
            if simple:
                if e in seen:
                    continue
                seen.add(e)
            edges.append(e)
        out.append(build_hypergraph(n, edges, allow_multi=not simple))
    return out


def test_criterion_1_degeneracy_oracle_equivalence():
    start = time.perf_counter()
    violations = []
    for H in _random_hypergraphs(500, seed=101, max_n=10, max_m=25):
        classic = peel_degeneracy(H).value
        pseudo = peel_pseudo_degeneracy(H).value
        if classic != degeneracy_oracle(H):
            violations.append(("classic", H))
        if pseudo != pseudo_degeneracy_oracle(H):
            violations.append(("pseudo", H))
        triple = reduced_degeneracy(H)  # n <= 10 <= 12: always exact
        if not triple.reduced_exact:
            violations.append(("exactness", H))
        if not (triple.pseudo <= triple.reduced_low <= triple.reduced_high <= triple.classic):
            violations.append(("sandwich", H))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "degeneracy-oracle-equivalence",
        not violations and elapsed < 120.0,
        f"500 instances, {elapsed:.1f}s",
    )


def test_criterion_2_trace_bound_ladder():
    violations = 0
    for H in _random_hypergraphs(500, seed=202, max_n=9, max_m=20, simple=True):
        triple = reduced_degeneracy(H)
        for k in range(H.n + 1):
            exact, _ = trace_function_exact(H, k)
            if exact > triple.reduced * k and k > 0:
                violations += 1
            if exact > triple.classic * k and k > 0:
                violations += 1
            if exact > max_degree_bound(H, k):
                violations += 1
            chain = degeneracy_chain_bounds(H, k, triple)
            if any(exact > v for _, v, _ in chain.entries):
                violations += 1
            if k >= 1 and H.m:
                # The edge-count lower bound counts the empty trace, so it is
                # compared against the trace maximum that includes it; the
                # nonempty-only maximum can undershoot by exactly one.
                lower = trace_count_lower_bound(H, k)
                exact_all, _ = trace_function_exact(H, k, include_empty=True)
                if lower > exact_all:
                    violations += 1
                if lower - 1 > exact:
                    violations += 1
    _report(2, "trace-bound-ladder", violations == 0, "500 instances, all k")


def test_criterion_3_vc_exactness_and_caps():
    bad = 0
    for H in _random_hypergraphs(500, seed=303, max_n=10, max_m=18):
        result = vc_exact(H)
        if result.dimension != brute_vc(H):
            bad += 1
        if result.dimension > vc_upper_bound(H):
            bad += 1
    rng = random.Random(304)
    for _ in range(200):
        G = random_gnp(rng.randint(1, 10), rng.random(), seed=rng.randrange(10**9))
        H = neighborhood_hypergraph(G, closed=True)
        if vc_exact(H).dimension != brute_vc(H):
            bad += 1
    rng = random.Random(305)
    for _ in range(200):
        G = random_tree(rng.randint(2, 50), seed=rng.randrange(10**9))
        if vc_exact(neighborhood_hypergraph(G, closed=True)).dimension > 2:
            bad += 1
    _report(3, "vc-exactness-and-caps", bad == 0, "500 hypergraphs + 200 graphs + 200 trees")


def test_criterion_4_dt_bounds_below_exact():
    bad = 0
    for H in _random_hypergraphs(300, seed=404, max_n=9, max_m=14, simple=True, min_m=1):
        triple = reduced_degeneracy(H)
        bounds = dt_lower_bounds(H, triple, j_max=10)
        value = dt_exact(H).value
        if any(b.ceiled > value for b in bounds):
            bad += 1
    tri = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
    tight = max(b.ceiled for b in dt_lower_bounds(tri, reduced_degeneracy(tri)))
    if tight != 2 or dt_exact(tri).value != 2:
        bad += 1
    _report(4, "dt-bounds-below-exact", bad == 0, "300 instances, tight on the triangle")


def test_criterion_5_domination_bridges():
    rng = random.Random(505)
    checked = 0
    bad = 0
    while checked < 200:
        G = random_gnp(rng.randint(2, 9), rng.random(), seed=rng.randrange(10**9))
        if find_twins(G, True) or find_twins(G, False) or not all(G.adj[v] for v in range(G.n)):
            continue
        checked += 1
        ld = gamma_exact(G, "LD").exact
        id_ = gamma_exact(G, "ID").exact
        old = gamma_exact(G, "OLD").exact
        if id_ != dt_exact(neighborhood_hypergraph(G, closed=True)).value:
            bad += 1
        if old != dt_exact(neighborhood_hypergraph(G, closed=False)).value:
            bad += 1
        if id_ < ld or old < ld:
            bad += 1
    _report(5, "domination-bridges", bad == 0, "200 twin-free graphs")


def test_criterion_6_tree_certificates_and_bounds():
    bad = 0
    rng = random.Random(606)
    for _ in range(500):
        G = random_tree(rng.randint(4, 200), seed=rng.randrange(10**9))
        certs = tree_degeneracy_certificates(G, exact_limit=18)
        if not certs.all_passed:
            bad += 1
        reduced = next(i for i in certs.items if i.name == "reduced-open")
        if G.n <= 18 and not reduced.exact:
            bad += 1
    rng = random.Random(607)
    for _ in range(300):
        G = random_tree(rng.randint(4, 12), seed=rng.randrange(10**9))
        tb = tree_lower_bounds(G)
        if tb.ld > gamma_exact(G, "LD").exact:
            bad += 1
        id_report = gamma_exact(G, "ID")
        if tb.id is not None and id_report.feasible and tb.id > id_report.exact:
            bad += 1
        old_report = gamma_exact(G, "OLD")
        if old_report.feasible and tb.old > old_report.exact:
            bad += 1
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    if not (tree_lower_bounds(p4).ld == 2 == gamma_exact(p4, "LD").exact):
        bad += 1
    if not (tree_lower_bounds(star).ld == 3 == gamma_exact(star, "LD").exact):
        bad += 1
    _report(6, "tree-certificates-and-bounds", bad == 0, "500 certificate trees + 300 bound trees")


def test_criterion_7_performance():
    H = instance_for_weight(10**6, seed=42)
    weight = sum(len(e) for e in H.edges)
    assert weight >= 10**6 * 0.95
    t0 = time.perf_counter()
    peel_degeneracy(H)
    classic_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    peel_pseudo_degeneracy(H)
    pseudo_s = time.perf_counter() - t0
    rows = run_bench(suite="peel", sizes=(10_000, 100_000, 1_000_000), seed=7)
    slopes = {}
    for alg in ("peel-classic", "peel-pseudo"):
        pts = [
            (math.log(r.total_edge_weight), math.log(max(r.seconds, 1e-9)))
            for r in rows
            if r.algorithm == alg
        ]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        slopes[alg] = sum((x - mx) * (y - my) for x, y in pts) / sum(
            (x - mx) ** 2 for x, _ in pts
        )
    ok = classic_s < 5.0 and pseudo_s < 5.0 and all(s < 2.0 for s in slopes.values())
    _report(
        7,
        "peel-performance",
        ok,
        f"classic {classic_s:.2f}s, pseudo {pseudo_s:.2f}s, slopes "
        + ", ".join(f"{a}={s:.2f}" for a, s in slopes.items()),
    )


def test_criterion_8_cli_and_round_trip():
    bad = 0
    rng = random.Random(808)
    for i in range(1000):
        kind = i % 3
        if kind == 0:
            G = random_tree(rng.randint(1, 30), seed=rng.randrange(10**9))
            if parse_graph_text(serialize_graph(G)) != G:
                bad += 1
        elif kind == 1:
            G = random_gnp(rng.randint(1, 10), rng.random(), seed=rng.randrange(10**9))
            if parse_graph_text(serialize_graph(G)) != G:
                bad += 1
        else:
            n = rng.randint(2, 8)
            H = random_hypergraph(n, rng.randint(0, n), rng.randint(1, n), seed=rng.randrange(10**9))
            if parse_hypergraph_text(serialize_hypergraph(H)) != H:
                bad += 1
    fixture = resources.files("hypertrace") / "fixtures" / "p4.graph"
    # The child imports the package this test imported, whatever put it on sys.path.
    proc = subprocess.run(
        [sys.executable, "-m", "hypertrace", "analyze", str(fixture)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    doc = json.loads(proc.stdout) if proc.returncode == 0 else {}
    expected = {
        ("domination", "LD"): 2,
        ("domination", "ID"): 3,
        ("domination", "OLD"): 4,
    }
    values_ok = proc.returncode == 0
    for (section, kind), value in expected.items():
        values_ok = values_ok and doc["results"][section][kind]["exact"]["value"] == value
    values_ok = values_ok and doc["results"]["vc"]["dimension"]["value"] == 1
    values_ok = values_ok and doc["results"]["dt"]["closed"]["value"]["value"] == 3
    _report(
        8,
        "cli-round-trip-and-fixture",
        bad == 0 and values_ok,
        f"1000 round-trips, analyze exit {proc.returncode}",
    )
