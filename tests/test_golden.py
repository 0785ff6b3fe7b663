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
    "p4": "b36d49cc00ea0f89cfa5a4c82c5cd6b38e020bd9872c01c0c9ed1b7c1648ae34",
    "gnp16": "b55d7e2b3606b48eaa0c6af9dd0f2f82ff4e5ed8b0c9d218c3127eeeb14ac78e",
    "gnp15": "d7185a8b705e8bbc5e40a2fdf493c73689d04defafb105cbe3f23882393d573f",
    "tree10": "2bfc0cf6f4fbd8986776f6bce356eb5ee99546851d8baab1e1a7709e637b37f1",
    "tree14": "260e072ca887ea8836d2639785ae70e44729bb444feaa66b8be6caa4516dfc21",
    "h14": "671d14de041c7d4c71bde46c6585006ae5a5318057c3b36d721ec5b48befe195",
    "h50": "61518eec0dcd4848e8789d08b5e4408df21168b13bc01631692dff2ab9c6e52f",
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
