"""Timing harness for the peeling engines and the exact searches.

Rows report the instance size as the total edge weight (the sum of edge
cardinalities), which is the quantity the peel engines are supposed to be
near-linear in.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from .degeneracy import peel_degeneracy, peel_pseudo_degeneracy
from .errors import BudgetExceededError
from .generate import random_hypergraph
from .hypergraph import Hypergraph
from .io import serialize_hypergraph
from .vc import vc_exact

BENCH_EDGE_SIZE = 12


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    n: int
    total_edge_weight: int
    seconds: float
    instance_hash: str
    status: str = "ok"
    value: int | None = None


def instance_for_weight(total_weight: int, seed=0, edge_size: int = BENCH_EDGE_SIZE):
    """Random hypergraph whose edge cardinalities sum to ~total_weight."""
    mean_size = (1 + edge_size) / 2
    m = max(round(total_weight / mean_size), 1)
    n = max(2 * m // 3, edge_size + 1)
    return random_hypergraph(n, m, max_edge_size=edge_size, seed=seed, allow_multi=True)


def run_bench(suite: str = "peel", sizes=(10_000, 100_000, 1_000_000), seed=0, vc_cap: int = 2_000) -> list[BenchRow]:
    rows: list[BenchRow] = []
    for size in sizes:
        H = instance_for_weight(size, seed=seed)
        weight = sum(len(e) for e in H.edges)
        digest = hashlib.sha256(serialize_hypergraph(H).encode()).hexdigest()[:16]
        if suite in ("peel", "all"):
            for name, fn in (
                ("peel-classic", peel_degeneracy),
                ("peel-pseudo", peel_pseudo_degeneracy),
            ):
                # A fresh value, so each row includes building the incidence
                # that the two peels would otherwise share.
                fresh = Hypergraph(H.vertices, H.edges, H.allow_multi)
                start = time.perf_counter()
                result = fn(fresh)
                rows.append(
                    BenchRow(name, H.n, weight, time.perf_counter() - start, digest, "ok", result.value)
                )
        if suite in ("vc", "all"):
            if H.n > vc_cap:
                rows.append(BenchRow("vc-exact", H.n, weight, 0.0, digest, "skipped"))
            else:
                start = time.perf_counter()
                try:
                    result = vc_exact(H)
                    rows.append(
                        BenchRow(
                            "vc-exact", H.n, weight, time.perf_counter() - start, digest, "ok", result.dimension
                        )
                    )
                except BudgetExceededError:
                    rows.append(
                        BenchRow("vc-exact", H.n, weight, time.perf_counter() - start, digest, "skipped")
                    )
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["algorithm,n,total_edge_weight,seconds,instance_hash,status,value"]
    for row in rows:
        value = "" if row.value is None else row.value
        lines.append(
            f"{row.algorithm},{row.n},{row.total_edge_weight},{row.seconds:.6f},{row.instance_hash},{row.status},{value}"
        )
    return "\n".join(lines) + "\n"
