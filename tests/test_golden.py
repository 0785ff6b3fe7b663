"""Golden digests of whole reports on a small fixed corpus.

Each digest is the sha256 of ``to_json(include_timings=False)``, so a
refactor that changes any result, bound, witness, check or skip detail by
one byte fails here.  The corpus covers graphs, a tree whose trace entry's
T_k is served from the memo at a budget below C(n, k), with budget skips
on DT-closed, LD and ID, and plain hypergraphs with T_k and DT skips, and
runs in about a second.
"""

import hashlib

import pytest

from hypertrace import Budgets, run_report
from hypertrace.generate import random_gnp, random_hypergraph, random_tree

CORPUS = {
    "gnp16": (lambda: random_gnp(16, 0.3, seed=1), None),
    "gnp15": (lambda: random_gnp(15, 0.35, seed=2), None),
    "tree10": (lambda: random_tree(10, seed=5), None),
    "tree14": (lambda: random_tree(14, seed=2), 1000),
    "h14": (lambda: random_hypergraph(14, 42, max_edge_size=6, seed=3), None),
    "h50": (lambda: random_hypergraph(50, 66, max_edge_size=6, seed=37), 30000),
}

DIGESTS = {
    "p4": "44e9ba51019aedabe84e5f20b0be629bfd666134303ed0fc2f9260d462aa4c8b",
    "gnp16": "56e0988462d1932d55a6f9bfe2110a46ec79b88a764e688023b63e3aa5cb4012",
    "gnp15": "d83de281235a6fa835a45956cc62b4113972d3ec27a6473203b1880adcda03a0",
    "tree10": "bb770f1b21386ab8185d2265e17abd958518bfca230bfd174f97e9c773efeea2",
    "tree14": "d122d5152a7945f3fe229bf24175480b59dcf3fb4ca44f8e62772bb3df8fbf68",
    "h14": "e4546bf07678b9e32e91fac66cb624e724b37a98a102a846bad0f9ac0a599fd0",
    "h50": "18a7b60423cc3eee4333f8e49826a3177758718fd7b79315a1638c71093879a1",
}

SKIPPED = {
    "tree14": ["dt-closed", "gamma-LD", "gamma-ID"],
    "h50": ["trace-k25", "dt"],
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_json(include_timings=False).encode()).hexdigest()


def test_golden_p4(p4):
    assert _digest(run_report(p4)) == DIGESTS["p4"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_report(name):
    build, budget = CORPUS[name]
    report = run_report(build(), budgets=Budgets(subset_budget=budget) if budget else None)
    assert [s["stage"] for s in report.skipped] == SKIPPED.get(name, [])
    assert _digest(report) == DIGESTS[name]
