"""Checked, layer-by-layer benchmark of hypertrace.

    python3 perfbench/run.py --workload peel-1m --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the root of a checkout.  For one workload it writes the seeded
inputs as instance text, then runs whole rounds for about ``--seconds``
(always at least one).  The rounds run in a fresh interpreter (worker.py)
that only parses, times and calls the program;
every output is checked here afterwards, outside the timed regions.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

Exit code 0 means a result was printed; 2 means no result could be made
(for example when the program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

WORKER_TIMEOUT_S = 130
# Seconds the worker's calibration loop takes at the reference speed (its
# time on the 2-core host of README.md's figures when that host is not
# slowed by its other tenants).  Timings are reported at this speed.
REFERENCE_CALIBRATION_S = 0.0116
# How much an operation's time grows with the calibration's, t ~ cal^e,
# as measured on this host (README.md, "Calibrated timings"): less for the
# parses and peels of the peel instances, whose hypergraphs of hundreds of
# MB make their time depend more on memory than on the interpreter.
ELASTICITY = 0.8
ELASTICITY_AT_SCALE = 0.6
PEEL_WEIGHTS = {"w10k": 10_000, "w100k": 100_000, "w1m": 1_000_000}

# Each workload: peel instances timed at scale, and the analysis corpus as
# (instance, analyses or None for all, row slot, subset budget or None for
# the program's default).  README.md says why each is there.
WORKLOADS = {
    "peel-1m": {
        "peel": ["w10k", "w100k", "w1m"],
        "headline_peel": "w1m",
        "analyze": [
            ("w100k", ["degeneracy"], "a", None),
            ("w10k", ["degeneracy"], "b", None),
            ("probe", None, "probe", None),
        ],
        "setup_reps": 2,
        "small_peel_reps": 0,
        "analyze_reps": 3,
    },
    "analyze-graph": {
        "peel": [],
        "headline_peel": None,
        "analyze": [
            ("g16", None, "a", None),
            ("g16b", None, "a", None),
            ("g15", None, "a", None),
            ("t14", None, "b", 1_000),
            ("t16", None, "b", 1_000),
            ("probe", None, "probe", None),
        ],
        "setup_reps": 40,
        "small_peel_reps": 20,
        "analyze_reps": 1,
    },
    "analyze-hypergraph": {
        "peel": [],
        "headline_peel": None,
        "analyze": [
            ("h14", None, "a", None),
            ("h14b", None, "a", None),
            ("h13", None, "a", None),
            ("h50", None, "b", 30_000),
            ("probe", None, "probe", None),
        ],
        "setup_reps": 40,
        "small_peel_reps": 20,
        "analyze_reps": 1,
    },
}

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "exact_values": "count",
    "peel_classic_s": "s",
    "peel_pseudo_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> the traced names whose span times, calls or counts it sums
LAYER_TIMES = {
    "io.parse_s": ("parse_graph_text", "parse_hypergraph_text"),
    "hypergraph.build_s": ("build_hypergraph", "neighborhood_hypergraph"),
    "degeneracy.peel_classic_s": ("peel_degeneracy",),
    "degeneracy.peel_pseudo_s": ("peel_pseudo_degeneracy",),
    "degeneracy.reduced_s": ("reduced_degeneracy",),
    "trace.exact_s": ("trace_function_exact",),
    "trace.chain_s": ("degeneracy_chain_bounds",),
    "trace.profile_s": ("trace_bound_profile",),
    "vc.s": ("vc_exact", "vc_neighborhood_exact"),
    "transversal.dt_exact_s": ("dt_exact",),
    "transversal.dt_bounds_s": ("dt_lower_bounds",),
    "domination.gamma_s": ("gamma_exact",),
    "domination.bounds_s": ("domination_lower_bounds",),
    "domination.certificates_s": ("tree_degeneracy_certificates",),
}
LAYER_CALLS = {
    "degeneracy.reduced_calls": ("reduced_degeneracy",),
    "trace.exact_calls": ("trace_function_exact",),
    "transversal.dt_exact_calls": ("dt_exact",),
    "domination.gamma_calls": ("gamma_exact",),
}
LAYER_COUNTS = {
    "trace.exact_subsets": ("trace_function_exact",),
    "vc.nodes": ("vc_exact", "vc_neighborhood_exact"),
    "report.skipped": ("run_report",),
}
SLOTS = ("a", "b", "probe")


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTS)})
    units.update({
        "degeneracy.classic_slope": "ratio",
        "report.self_s": "s",
        "python.gc_s": "s",
        "python.gc_collections": "count",
    })
    units.update({f"report.analyze_s.{slot}": "s" for slot in SLOTS})
    return units


# --- inputs --------------------------------------------------------------


def write_inputs(workload: dict, seed: int, workdir: Path) -> dict:
    """Write every instance of the workload; return name -> description."""
    names = list(workload["peel"]) + [entry[0] for entry in workload["analyze"]]
    out = {}
    for name in dict.fromkeys(names):
        if name in PEEL_WEIGHTS:
            n, edges = gen.peel_instance(PEEL_WEIGHTS[name], seed)
            kind = "hgraph"
        else:
            kind, n, edges = gen.relabelled(name, seed)
        path = workdir / f"{name}.txt"
        path.write_text(gen.instance_text(kind, n, edges))
        out[name] = {"kind": kind, "n": n, "edges": edges, "path": path}
    return out


def run_spec(workload: dict, inputs: dict, seconds: float, trace: bool) -> dict:
    small = {entry[0] for entry in workload["analyze"]} if workload["small_peel_reps"] else set()
    return {
        "trace": trace,
        "seconds": seconds,
        "instances": [
            {
                "name": name,
                "kind": inst["kind"],
                "path": str(inst["path"]),
                "allow_multi": name in PEEL_WEIGHTS,
                "small_peel": name in small,
            }
            for name, inst in inputs.items()
        ],
        "peel": workload["peel"],
        "setup_reps": workload["setup_reps"],
        "small_peel_reps": workload["small_peel_reps"],
        "analyze_reps": workload["analyze_reps"],
        "analyze": [
            {"name": name, "analyses": analyses, "budget": budget}
            for name, analyses, _, budget in workload["analyze"]
        ],
    }


def round_ops(workload: dict, inputs: dict) -> dict[str, int]:
    """Operation name -> attempts in one round."""
    ops: dict[str, int] = {}
    for name in workload["peel"]:
        for rule in ("classic", "pseudo"):
            ops[f"peel {rule} {name}"] = 1
    for name, *_ in workload["analyze"] if workload["small_peel_reps"] else ():
        for i in range(2 if inputs[name]["kind"] == "graph" else 1):
            for rule in ("classic", "pseudo"):
                ops[f"peel {rule} {name}/{i}"] = workload["small_peel_reps"]
    for name, *_ in workload["analyze"]:
        ops[f"analyze {name}"] = workload["analyze_reps"]
    return ops


# --- one run -------------------------------------------------------------


def run_worker(spec: dict, workdir: Path) -> dict | None:
    spec_path = workdir / "spec.json"
    out_path = workdir / "out.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
            cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out_path.exists():
        print(f"perfbench: worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(out_path.read_text())


def check_run(workload: dict, inputs: dict, out: dict) -> tuple[int, int, list, int]:
    """(attempted, failed, problems, rejected): every operation of every
    round, those that failed, what was wrong, and how many outputs the
    benchmark's own checks rejected (a wrong answer, as opposed to a call
    that raised).  An output is checked once; every round reproduced it."""
    ops = round_ops(workload, inputs)
    rounds = len(out["rounds"])
    failed = dict.fromkeys(ops, 0)
    problems = []
    rejected = 0

    def reject(op, bad):
        nonlocal rejected
        rejected += 1
        failed[op] = ops[op] * rounds  # every round gave this same output
        problems.extend(f"{op}: {b}" for b in bad)

    for err in out["errors"]:
        failed[err["op"]] = failed.get(err["op"], 0) + 1
        problems.append(f"{err['op']}: {err['error'].strip().splitlines()[-1]}")

    peel_values: dict[str, dict] = {}
    for key, rec in out["peel"].items():
        rule, name = key.split(":")
        inst = inputs[name]
        bad = checks.replay_peel(inst["n"], inst["edges"], rec["order"], rec["seq"], rec["value"], rule == "classic")
        if bad:
            reject(f"peel {rule} {name}", bad)
        peel_values.setdefault(name, {})[rule] = rec["value"]

    for key, rec in out["small_peel"].items():
        rule, name_i = key.split(":")
        name, i = name_i.split("/")
        inst = inputs[name]
        family = list(checks.families(inst["kind"], inst["n"], inst["edges"]).values())[int(i)]
        bad = checks.replay_peel(inst["n"], family, rec["order"], rec["seq"], rec["value"], rule == "classic")
        if bad:
            reject(f"peel {rule} {name_i}", bad)

    refs = json.loads((HERE / "refs.json").read_text())
    for name, *_ in workload["analyze"]:
        rep = out["reports"].get(name)
        if rep is None:
            continue
        inst = inputs[name]
        if name in PEEL_WEIGHTS:
            values = peel_values.get(name, {})
            ref = {"degeneracy": {"edges": {"pseudo": values.get("pseudo"), "classic": values.get("classic")}}}
        else:
            ref = refs[name]
        bad = ["exit code 2: a report check failed"] if rep["exit_code"] == 2 else []
        bad.extend(checks.check_report(rep["doc"], inst["kind"], inst["n"], inst["edges"], ref))
        if bad:
            reject(f"analyze {name}", bad)
    attempted = sum(ops.values()) * rounds
    failed_total = sum(min(count, ops.get(op, 1) * rounds) for op, count in failed.items())
    return attempted, min(failed_total, attempted), problems, rejected


# --- metrics -------------------------------------------------------------


def calibrated(samples: list[list[float]], elasticity: float) -> float:
    """Median over samples of an operation's seconds at the reference
    speed: each time scaled by (reference calibration / its calibration)
    to the power ``elasticity``."""
    if not samples:
        return math.nan
    return median(t * (REFERENCE_CALIBRATION_S / cal) ** elasticity for t, cal in samples)


def end_to_end(workload: dict, out: dict) -> dict[str, float]:
    rounds = out["rounds"]
    setup = calibrated([s for r in rounds for s in r["setup_s"]], ELASTICITY)
    for i, _ in enumerate(workload["peel"]):
        setup += calibrated([r["peel_setup_s"][i] for r in rounds], ELASTICITY_AT_SCALE)
    metrics = {
        "setup_s": setup,
        "analyze_s": sum(calibrated([s for r in rounds for s in r["analyze"].get(name, ())], ELASTICITY)
                         for name, *_ in workload["analyze"]),
        "exact_values": sum(checks.exact_count(r["doc"]["results"]) for r in out["reports"].values()),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    for rule in ("classic", "pseudo"):
        if workload["headline_peel"]:
            key = f"{rule}:{workload['headline_peel']}"
            samples = [r["peel"][key] for r in rounds if key in r["peel"]]
            metrics[f"peel_{rule}_s"] = calibrated(samples, ELASTICITY_AT_SCALE)
        else:
            samples = [s for r in rounds for s in r["small_peel"].get(rule, ())]
            metrics[f"peel_{rule}_s"] = calibrated(samples, ELASTICITY)
    return metrics


def per_layer(workload: dict, inputs: dict, out: dict) -> dict[str, float]:
    """Layer totals of one pass (one set-up, one peel of each hypergraph,
    every analysis), as the median over the run's rounds.  Spans inside a
    repeated phase are weighted by one over its repetitions."""
    trace = out["trace"]
    spans = trace["spans"]
    phase_weight = {
        "bench.setup": 1 / max(workload["setup_reps"], 1),
        "bench.small_peel_classic": 1 / max(workload["small_peel_reps"], 1),
        "bench.small_peel_pseudo": 1 / max(workload["small_peel_reps"], 1),
        "bench.analyze": 1 / max(workload["analyze_reps"], 1),
        "bench.fresh": 0.0,  # untimed parses that hand a timed call a fresh object
    }
    weights, round_of, child_time = [], [], [0.0] * len(spans)
    rounds = 0
    for name, start, end, parent, _ in spans:
        if parent < 0:
            weights.append(1.0)
            round_of.append(rounds if name == "bench.round" else -1)
            rounds += name == "bench.round"
        else:
            weights.append(phase_weight.get(name.split(":")[0], weights[parent]))
            round_of.append(round_of[parent])
            child_time[parent] += end - start

    per_round = []
    for rnd in range(rounds):
        idx = [i for i in range(len(spans)) if round_of[i] == rnd]

        def total(names, field):
            acc = 0.0
            for i in idx:
                name, start, end, _, count = spans[i]
                if name in names:
                    acc += weights[i] * {"time": end - start, "calls": 1, "count": count or 0}[field]
            return acc

        m = {name: total(fns, "time") for name, fns in LAYER_TIMES.items()}
        m.update({name: total(fns, "calls") for name, fns in LAYER_CALLS.items()})
        m.update({name: total(fns, "count") for name, fns in LAYER_COUNTS.items()})
        m["report.self_s"] = sum(
            weights[i] * (spans[i][2] - spans[i][1] - child_time[i]) for i in idx if spans[i][0] == "run_report"
        )
        slot_of = {entry[0]: entry[2] for entry in workload["analyze"]}
        for slot in SLOTS:
            m[f"report.analyze_s.{slot}"] = 0.0
        peel_times = {}
        for i in idx:
            name, start, end = spans[i][:3]
            if name.startswith("bench.analyze:"):
                m[f"report.analyze_s.{slot_of[name.split(':', 1)[1]]}"] += weights[i] * (end - start)
            if name.startswith("bench.peel_classic:"):
                peel_times[name.split(":", 1)[1]] = end - start
        m["degeneracy.classic_slope"] = classic_slope(inputs, peel_times)
        in_round = set(idx)
        gc_events = [(i, sec) for i, sec in trace["gc_by_span"] if i in in_round]
        m["python.gc_s"] = sum(weights[i] * sec for i, sec in gc_events)
        m["python.gc_collections"] = sum(weights[i] for i, _ in gc_events)
        per_round.append(m)
    return {name: median(m[name] for m in per_round) for name in per_round[0]}


def classic_slope(inputs: dict, peel_times: dict) -> float:
    """Log-log slope of classic peel time from 100k to 1M edge weight; 0
    on workloads that do not peel at both sizes."""
    if "w100k" not in peel_times or "w1m" not in peel_times:
        return 0.0
    weight = {k: sum(len(e) for e in inputs[k]["edges"]) for k in ("w100k", "w1m")}
    return math.log(peel_times["w1m"] / peel_times["w100k"]) / math.log(weight["w1m"] / weight["w100k"])


# --- entry points ---------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = write_inputs(workload, seed, workdir)
        out = run_worker(run_spec(workload, inputs, seconds, trace), workdir)
        if out is None:
            return None
        attempted, failed, problems, rejected = check_run(workload, inputs, out)
        for problem in problems:
            print(f"perfbench [{name} seed {seed}] {problem}", file=sys.stderr)
        if trace:
            (ROOT / ".perfbench" / f"trace-{name}.json").write_text(json.dumps(out["trace"]))
            values, units = per_layer(workload, inputs, out), per_layer_units()
        else:
            values, units = end_to_end(workload, out), END_TO_END
        missing = [m for m in units if math.isnan(values[m])]
        if missing:  # every attempt of some timed operation raised
            print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
            return None
        return {
            "correct": rejected == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypertrace" / "__init__.py").is_file():
        print("perfbench: no program sources at src/hypertrace; run from a checkout", file=sys.stderr)
        return 2
    if not args.workload:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; a table, then one JSON line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
