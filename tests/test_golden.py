"""Golden digests of whole reports on a small fixed corpus.

Each digest is the sha256 of ``to_json(include_timings=False)``, so a
refactor that changes any result, bound, witness, check or skip detail by
one byte fails here.  The corpus covers graphs, trees with budget skips on
DT-closed, LD and ID, and plain hypergraphs with a DT skip, and runs in
about a second.
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
    "p4": "419bd01a22b1902a393cda3ab3143e5b19201dc45938ab225cec97c95bfa0d51",
    "gnp16": "c2b696b1d223c3c3138a320ac2011c51610dd6452e9bc6db30ae7b97f7f84934",
    "gnp15": "5d20f4277e8f5e1ab34e4e2096675b752de8a245f6735b4a45c98a988ea78f88",
    "tree10": "35cdf8686805524af43bf69f7a2c027650ddf2ce49b90d2f4a1c6bb5c489de29",
    "tree14": "d5b8fbfd5a17b65321c00092d06ed8fcae725130b4c40335cb4c905fd99645f4",
    "h14": "fe513294f6e14275f4e8bb93edc5721e299d2df05ce78991a35db9008611e835",
    "h50": "643bf735c06b9131fc88095a112e2348d0b9e566e9edbe9287a0ab0e3c9ef374",
}

SKIPPED = {
    "tree14": ["dt-closed", "gamma-LD", "gamma-ID"],
    "h50": ["dt"],
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
