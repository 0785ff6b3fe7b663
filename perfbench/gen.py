"""Seeded instance generator for the benchmark, independent of the program.

Uses only the standard library's ``random``.  Every instance is written in
the documented ``p graph`` / ``p hgraph`` text format, so the program sees
nothing but that text and a change to ``hypertrace.generate`` cannot change
the benchmark's inputs.

Two kinds of inputs are made:

* peel instances, drawn afresh from the run seed (at a million edge weight
  their peel cost is steady from one draw to the next);
* analysis instances, each a fixed base structure drawn from a fixed base
  seed and then given a random vertex relabelling and edge order drawn from
  the run seed.  Every exact value the program reports is invariant under
  relabelling, so the stored brute-force references in ``refs.json`` hold
  for every run seed, while witnesses and search orders change with it.
"""

from __future__ import annotations

import random

PEEL_MAX_EDGE = 12
PEEL_MEAN_EDGE = (1 + PEEL_MAX_EDGE) / 2

# name -> (kind, parameters, base seed).  Sizes and seeds are documented in
# README.md; refs.json holds the brute-force values of these structures.
BASES = {
    "g16": ("gnp", {"n": 16, "p": 0.3}, 1),
    "g16b": ("gnp", {"n": 16, "p": 0.3}, 11),
    "g15": ("gnp", {"n": 15, "p": 0.35}, 2),
    "t14": ("tree", {"n": 14}, 2),
    "t16": ("tree", {"n": 16}, 3),
    "h14": ("hgraph", {"n": 14, "m": 42, "max_size": 6}, 3),
    "h14b": ("hgraph", {"n": 14, "m": 42, "max_size": 6}, 13),
    "h13": ("hgraph", {"n": 13, "m": 40, "max_size": 6}, 5),
    "h50": ("hgraph", {"n": 50, "m": 66, "max_size": 6}, 37),
    "probe": ("tree", {"n": 10}, 5),
    "hprobe": ("hgraph", {"n": 9, "m": 16, "max_size": 4}, 6),  # self-tests only
}


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree, decoded from a random Pruefer code."""
    if n < 2:
        return []
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] = 0
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def hyper_edges(
    rng: random.Random, n: int, m: int, max_size: int, distinct: bool
) -> list[tuple[int, ...]]:
    """m edges, each of a size uniform in [1, max_size] on distinct vertices."""
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(n), rng.randint(1, max_size))))
        if distinct and e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return edges


def graph_text(n: int, edges) -> str:
    lines = [f"p graph {n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def hgraph_text(n: int, edges) -> str:
    lines = [f"p hgraph {n} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def base_structure(name: str):
    """(kind, n, edges) of a base analysis instance, before relabelling."""
    kind, params, seed = BASES[name]
    rng = random.Random(seed)
    n = params["n"]
    if kind == "gnp":
        return "graph", n, gnp_edges(rng, n, params["p"])
    if kind == "tree":
        return "graph", n, tree_edges(rng, n)
    return "hgraph", n, hyper_edges(rng, n, params["m"], params["max_size"], distinct=True)


def relabelled(name: str, seed: int):
    """(kind, n, edges) of a base instance under the seed's relabelling.

    Vertex ids are permuted, edge lines shuffled and the members of each
    line listed in a shuffled order too.
    """
    kind, n, edges = base_structure(name)
    rng = random.Random(f"{name}/{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for e in edges:
        members = [perm[v] for v in e]
        rng.shuffle(members)
        out.append(tuple(members))
    rng.shuffle(out)
    return kind, n, out


def instance_text(kind: str, n: int, edges) -> str:
    return graph_text(n, edges) if kind == "graph" else hgraph_text(n, edges)


def peel_instance(weight: int, seed: int):
    """Random hypergraph of about ``weight`` total edge weight, duplicates kept.

    Edge sizes are uniform in [1, 12] and n is about 2m/3, as in the
    program's own peel bench.
    """
    m = max(round(weight / PEEL_MEAN_EDGE), 1)
    n = max(2 * m // 3, PEEL_MAX_EDGE + 1)
    rng = random.Random(f"peel/{weight}/{seed}")
    return n, hyper_edges(rng, n, m, PEEL_MAX_EDGE, distinct=False)
