"""Self-tests for the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one small round through the real worker and confirms that its outputs
pass.  Then it forges them, one forgery at a time, and requires each to be
counted as a failed operation and a rejected output:

* every exact value of every report, nudged by +1 and by -1;
* the VC witness, and every DT and domination witness, swapped for a set
  of the same size that does not qualify;
* every peel order, with two neighbouring steps swapped.

Exit code 0 when every forgery is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
from itertools import combinations

from run import ROOT, check_run, run_spec, run_worker, write_inputs

import checks

WORKLOAD = {
    "peel": ["w10k"],
    "headline_peel": "w10k",
    "analyze": [
        ("probe", None, "a", None),
        ("hprobe", None, "b", None),
        ("w10k", ["degeneracy"], "probe", None),
    ],
    "setup_reps": 1,
    "small_peel_reps": 1,
    "analyze_reps": 1,
}


def exact_paths(node, path=()):
    """Paths to every exact-flagged entry that carries a single value."""
    if isinstance(node, dict):
        if node.get("exactness") == "exact" and isinstance(node.get("value"), int):
            yield path
        for key, value in node.items():
            yield from exact_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from exact_paths(value, path + (i,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


def forged_set(n: int, size: int, keep) -> list[int] | None:
    """The first ``size``-set of [0, n) that ``keep`` rejects."""
    for combo in combinations(range(n), size):
        if not keep(combo):
            return list(combo)
    return None


def forgeries(out: dict, inputs: dict):
    """(description, forged worker output) pairs."""
    for name, rep in out["reports"].items():
        for path in exact_paths(rep["doc"]["results"]):
            for delta in (1, -1):
                forged = copy.deepcopy(out)
                at(forged["reports"][name]["doc"]["results"], path)["value"] += delta
                yield f"{name}: {'/'.join(map(str, path))} {delta:+d}", forged

        inst = inputs[name]
        fams = checks.families(inst["kind"], inst["n"], inst["edges"])
        main = fams.get("edges") or fams["closed"]
        results = rep["doc"]["results"]
        witnesses = []
        if "vc" in results:
            witnesses.append((("vc",), lambda s, f=main: checks.is_shattered(f, s)))
        for side, fam in fams.items() if "dt" in results else ():
            dt_path = ("dt",) if side == "edges" else ("dt", side)
            if at(results, dt_path).get("witness"):
                witnesses.append((dt_path, lambda s, f=fam: checks.is_transversal(f, s)))
        for kind, entry in results.get("domination", {}).items():
            if entry["witness"]:
                witnesses.append(
                    (("domination", kind),
                     lambda s, k=kind: checks.is_locating(k, fams["closed"], fams["open"], s))
                )
        for path, keep in witnesses:
            witness = at(results, path)["witness"]
            fake = forged_set(inst["n"], len(witness), keep)
            if fake is None:
                continue
            forged = copy.deepcopy(out)
            at(forged["reports"][name]["doc"]["results"], path)["witness"] = fake
            yield f"{name}: forged {'/'.join(path)} witness {fake}", forged

    for where in ("peel", "small_peel"):
        for key, rec in out[where].items():
            order = rec["order"]
            i = next((i for i in range(len(order) // 2, len(order) - 1) if order[i] != order[i + 1]), None)
            if i is None:
                continue
            forged = copy.deepcopy(out)
            target = forged[where][key]["order"]
            target[i], target[i + 1] = order[i + 1], order[i]
            yield f"{where} {key}: steps {i} and {i + 1} swapped", forged


def main() -> int:
    workdir = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = write_inputs(WORKLOAD, 1, workdir)
        out = run_worker(run_spec(WORKLOAD, inputs, 0, False), workdir)
        if out is None:
            print("selftest: the worker produced no output")
            return 1
        _, failed, problems, rejected = check_run(WORKLOAD, inputs, out)
        if failed or rejected:
            print("selftest: genuine outputs were rejected:", *problems, sep="\n  ")
            return 1
        missed = total = 0
        for label, forged in forgeries(out, inputs):
            total += 1
            _, failed, problems, rejected = check_run(WORKLOAD, inputs, forged)
            if failed == 0 or rejected == 0:
                missed += 1
                print(f"selftest: not caught: {label}")
        print(f"selftest: {total - missed} of {total} forgeries counted as failed operations")
        return 1 if missed or total == 0 else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
