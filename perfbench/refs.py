"""Regenerate refs.json: brute-force values of the base analysis instances.

    python3 perfbench/refs.py [name ...]

Every value is computed by exhaustive search on plain sets, apart from the
program, on the base structure of each analysis instance (before any run
seed relabels it).  All of them are invariant under relabelling, so one
reference serves every seed.  A search that would pass ``SEARCH_CAP``
subsets stops there (or, for a trace value, is not started); its value is
recorded as "unknown", or left out, and the benchmark falls back to witness
and bound checks for it.  Takes under a minute on one core.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from math import comb
from pathlib import Path

from checks import families, is_locating, is_shattered, is_transversal, peel_value, traces
from gen import BASES, base_structure

SEARCH_CAP = 3_000_000
BRUTE_DEGENERACY_MAX_N = 20
REDUCED_EXACT_MAX_N = 18  # the program's default exact limit for reduced degeneracy
OUT = Path(__file__).with_name("refs.json")


def _min_degree(family, vertices) -> int:
    return min(sum(1 for t in family if v in t) for v in vertices)


def brute_degeneracy(vertices, family, classic: bool) -> int:
    """Largest minimum degree over all restrictions (classic) or all pseudo
    induced subhypergraphs, by enumerating every vertex subset."""
    best = 0
    distinct = {e for e in family if e}
    for r in range(1, len(vertices) + 1):
        for combo in combinations(vertices, r):
            s = frozenset(combo)
            if classic:
                sub = {e & s for e in distinct} - {frozenset()}
            else:
                sub = {e for e in distinct if e <= s}
            if len(sub) > best and frozenset().union(*sub) == s:
                best = max(best, _min_degree(sub, s))
    return best


def brute_reduced(n: int, family) -> int:
    """Largest pseudo degeneracy over all restrictions, each restriction's
    pseudo degeneracy taken by the plain-set peel (checked against
    ``brute_degeneracy`` above)."""
    best = 0
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            s = frozenset(combo)
            sub = {e & s for e in family} - {frozenset()}
            if len(sub) > best:
                best = max(best, peel_value(n, sub, classic=False))
    return best


def degeneracy_refs(n: int, family) -> dict:
    out = {"pseudo": peel_value(n, family, False), "classic": peel_value(n, family, True), "reduced": None}
    if n <= BRUTE_DEGENERACY_MAX_N:
        for name, classic in (("pseudo", False), ("classic", True)):
            brute = brute_degeneracy(range(n), family, classic)
            if brute != out[name]:
                raise SystemExit(f"plain-set peel {out[name]} != brute force {brute} ({name})")
    if n <= REDUCED_EXACT_MAX_N:
        out["reduced"] = brute_reduced(n, family)
    return out


def trace_refs(n: int, family) -> dict:
    out = {}
    for k in sorted({1, 2, n // 2, n}):
        if comb(n, k) > SEARCH_CAP:
            continue
        best = best_all = 0
        for combo in combinations(range(n), k):
            found = traces(family, combo, include_empty=True)
            best_all = max(best_all, len(found))
            best = max(best, len(found - {frozenset()}))
        out[str(k)] = [best, best_all]
    return out


def vc_ref(family) -> int:
    """Largest shattered set; any shattered nonempty set lies inside an edge."""
    best = 0
    for size in range(1, max((len(e) for e in family), default=0) + 1):
        candidates = {c for e in family for c in combinations(sorted(e), size)}
        if not any(is_shattered(family, c) for c in candidates):
            break
        best = size
    return best


def smallest(n: int, predicate):
    """Size of the smallest vertex set passing ``predicate``; "unknown" when
    the search would pass ``SEARCH_CAP``, None when no set passes."""
    examined = 0
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            examined += 1
            if examined > SEARCH_CAP:
                return "unknown"
            if predicate(combo):
                return r
    return None


def dt_ref(n: int, family):
    if len(set(family)) < len(family) or not all(family):
        return "undefined"
    return smallest(n, lambda s: is_transversal(family, s))


def instance_refs(name: str) -> dict:
    kind, n, edges = base_structure(name)
    fams = families(kind, n, edges)
    main = fams["edges"] if kind == "hgraph" else fams["closed"]
    out = {
        "degeneracy": {side: degeneracy_refs(n, fam) for side, fam in fams.items()},
        "trace": trace_refs(n, main),
        "vc": vc_ref(main),
        "dt": {side: dt_ref(n, fam) for side, fam in fams.items()},
    }
    if kind == "graph":
        closed, open_ = fams["closed"], fams["open"]
        gamma = {}
        for k in ("LD", "ID", "OLD"):
            if k == "ID" and len(set(closed)) < n:
                gamma[k] = None
            elif k == "OLD" and (len(set(open_)) < n or not all(open_)):
                gamma[k] = None
            else:
                gamma[k] = smallest(n, lambda s, k=k: is_locating(k, closed, open_, s))
        out["gamma"] = gamma
    return out


def main() -> int:
    if len(sys.argv) == 1:
        OUT.unlink(missing_ok=True)  # a full regeneration drops retired instances
    for name in sys.argv[1:] or list(BASES):
        values = instance_refs(name)
        print(name, json.dumps(values), flush=True)
        refs = json.loads(OUT.read_text()) if OUT.exists() else {}
        refs[name] = values
        OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
