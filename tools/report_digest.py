"""Print one sha256 over the reports of a fixed, seeded corpus.

    PYTHONPATH=src python3 tools/report_digest.py [--each]

Run it at two commits: a refactor that keeps every report byte-identical
prints the same digest at both.  ``tests/test_report_digest.py`` pins the
line, so a change that alters a report updates it there and says why.
With ``--each`` a line per report comes first: its corpus index, its
subset budget, its exit code and the first 16 hex digits of its own
sha256.  Diffing that output from two commits names the reports a change
touched.
The corpus is 162 instances, each analysed at subset budgets 50, 2,000
and the default: G(n, p) graphs, random trees, hypergraphs that are
plain, multi-edge, carry empty edges, or are restrictions whose vertex
ids are not a dense range, a path on 1,500 vertices, and the
10k-edge-weight instance of ``hypertrace.bench`` (1,025 vertices,
duplicate edges kept), so a fault that shows only on a large instance
changes the digest or crashes the run.  Each
report adds ``to_json(include_timings=False)`` and its exit code to the
hash.  Before its reports, every instance the text format can carry (a
graph, or a hypergraph on a dense vertex range without empty edges) must
parse back from its serialized text to an equal value, so a parser change
that alters a value stops the run.  Uses only the standard library and
``hypertrace``.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import warnings
from collections.abc import Callable

from hypertrace import (
    Budgets,
    Graph,
    Hypergraph,
    build_hypergraph,
    parse_graph_text,
    parse_hypergraph_text,
    random_gnp,
    random_hypergraph,
    random_tree,
    restriction,
    run_report,
    serialize_graph,
    serialize_hypergraph,
)
from hypertrace.bench import instance_for_weight

BUDGETS = (Budgets(50), Budgets(2_000), Budgets())


def _hypergraphs(seed: int):
    """Four hypergraphs from one seed: plain, multi-edge, with empty edges,
    and a restriction of the plain one to a random half of its vertices."""
    rng = random.Random(seed)
    n = rng.randint(6, 13)
    plain = random_hypergraph(n, rng.randint(n, 3 * n), max_edge_size=4, seed=rng)
    multi = random_hypergraph(n, rng.randint(n, 2 * n), max_edge_size=3, seed=rng, allow_multi=True)
    edges = list(multi.edges) + [frozenset()] * rng.randint(1, 2)
    rng.shuffle(edges)
    empty = Hypergraph(multi.vertices, tuple(edges), allow_multi=True)
    half = rng.sample(range(n), n // 2 + 1)
    return [plain, multi, empty, restriction(plain, half)]


def corpus():
    """The 162 instances, in a fixed order."""
    for seed in range(40):
        rng = random.Random(1000 + seed)
        yield random_gnp(rng.randint(8, 18), rng.choice((0.2, 0.3, 0.5)), seed=rng)
    for seed in range(32):
        yield random_tree(3 + seed % 18, seed=2000 + seed)
    for seed in range(22):
        yield from _hypergraphs(3000 + seed)
    yield build_hypergraph(1500, [[i, i + 1] for i in range(1499)])
    yield instance_for_weight(10_000, seed=0)


def check_round_trip(instance) -> None:
    """Raise unless ``instance`` parses back from its text, where the text
    format can carry it."""
    if isinstance(instance, Graph):
        back = parse_graph_text(serialize_graph(instance))
    elif instance.is_dense and all(instance.edges):
        text = serialize_hypergraph(instance)
        back = parse_hypergraph_text(text, allow_multi=instance.allow_multi)
    else:
        return
    if back != instance:
        raise AssertionError(f"{instance!r} does not parse back from its text")


def digest_line(each: Callable[[str], object] | None = None) -> str:
    """The sha256 over the corpus's reports and their count, the line
    ``main`` prints.  ``each``, if given, is called with one line per
    report, as ``--each`` prints it."""
    digest = hashlib.sha256()
    reports = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index, instance in enumerate(corpus()):
            check_round_trip(instance)
            for budgets in BUDGETS:
                report = run_report(instance, budgets=budgets)
                text = report.to_json(include_timings=False)
                digest.update(text.encode())
                digest.update(f"\nexit {report.exit_code}\n".encode())
                reports += 1
                if each is not None:
                    short = hashlib.sha256(text.encode()).hexdigest()[:16]
                    each(f"{index} {budgets.subset_budget} exit {report.exit_code} {short}")
    return f"{digest.hexdigest()}  {reports} reports"


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the report digest of the fixed corpus.")
    parser.add_argument("--each", action="store_true", help="first print one line per report")
    print(digest_line(print if parser.parse_args().each else None))


if __name__ == "__main__":
    main()
