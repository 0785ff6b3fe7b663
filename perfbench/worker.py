"""The timed part of one benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json OUT.json

Reads the spec (instance files, repetitions, run length, traced or not)
and repeats whole rounds of the same operations until the next round would
end more than half a round past the run length (always at least one
round).  A round parses and peels the peel instances, times the set-up of
the analysis corpus, peels the corpus hypergraphs and analyses every
corpus instance.  Timings go to
OUT.json per round; outputs go there once, from the first round, and every
later round must reproduce them.  Checking happens in the parent, outside
every timed region.  An operation (one peel call, one instance analysed)
that raises is recorded under ``errors`` and the run goes on.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

clock = time.perf_counter
PEEL_RULES = (("classic", "peel_degeneracy"), ("pseudo", "peel_pseudo_degeneracy"))
# Each side of a timed operation is calibrated for this share of its time.
CALIBRATION_SHARE = 0.05
# Set-ups and small peels are timed in this many blocks a round, each
# between its own calibrations.
BLOCKS = 4


def calibration_chunk() -> float:
    """Seconds one fixed loop of plain Python work takes right now.

    The loop allocates nothing the collector tracks and runs with the
    collector off, so the garbage an operation leaves behind cannot slow
    it.
    """
    gc.disable()
    t0 = clock()
    acc = 0
    counts: dict[int, int] = {}
    for i in range(60_000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
        acc += (i * i) % 7
        if i & 3 == 0:
            acc ^= len(counts)
    elapsed = clock() - t0
    gc.enable()
    return elapsed


def calibration(span_s: float) -> list[float]:
    """Calibration chunks filling CALIBRATION_SHARE of ``span_s`` (at least
    one).  The host's speed swings by up to twice within seconds, so every
    timed operation is bracketed by calibrations, and run.py scales its
    time by theirs (README.md, "Calibrated timings")."""
    chunks = [calibration_chunk()]
    while sum(chunks) < CALIBRATION_SHARE * span_s:
        chunks.append(calibration_chunk())
    return chunks


def blocks(reps: int) -> list[int]:
    """``reps`` repetitions split into up to BLOCKS near-equal blocks."""
    count = min(reps, BLOCKS)
    return [reps // count + (i < reps % count) for i in range(count)]


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import hypertrace

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    texts = {inst["name"]: Path(inst["path"]).read_text() for inst in spec["instances"]}
    insts = {inst["name"]: inst for inst in spec["instances"]}
    corpus = [entry["name"] for entry in spec["analyze"]]
    out = {"errors": [], "rounds": [], "peel": {}, "small_peel": {}, "reports": {}}

    def parse(name):
        inst = insts[name]
        if inst["kind"] == "graph":
            return hypertrace.parse_graph_text(texts[name])
        return hypertrace.parse_hypergraph_text(texts[name], allow_multi=inst["allow_multi"])

    def hypergraphs(name, obj):
        if insts[name]["kind"] == "graph":
            return [
                hypertrace.neighborhood_hypergraph(obj, closed=True),
                hypertrace.neighborhood_hypergraph(obj, closed=False),
            ]
        return [obj]

    def attempt(op, fn):
        try:
            return fn()
        except Exception:
            out["errors"].append({"op": op, "error": traceback.format_exc(limit=3)})
            return None

    def keep(store, key, op, record):
        """Store the first output of an operation; later ones must match it."""
        if key not in store:
            store[key] = record
        elif record != store[key]:
            out["errors"].append({"op": op, "error": "rounds disagree"})

    def peel_record(result):
        return {"order": list(result.order), "seq": list(result.degree_sequence), "value": result.value}

    last_elapsed: dict[str, float] = {}

    def timed(name, fn):
        """(result, seconds, calibration seconds): fn run in span ``name``
        after a collection, between calibrations whose mean is returned.
        The calibration before it is sized by its time in the last round."""
        gc.collect()
        chunks = calibration(last_elapsed.get(name, 0.0))
        t0 = clock()
        with span(name):
            result = fn()
        elapsed = last_elapsed[name] = clock() - t0
        chunks += calibration(elapsed)
        return result, elapsed, sum(chunks) / len(chunks)

    def one_round() -> dict:
        """Timings of one round; each is [seconds, calibration seconds]."""
        times = {"peel_setup_s": [], "peel": {}, "setup_s": [], "small_peel": {}, "analyze": {}}
        # Peels at scale, each on a freshly parsed hypergraph; the parses
        # are this round's set-up of the peel instances.
        for name in spec["peel"]:
            H, elapsed, cal = timed(
                f"bench.parse:{name}", lambda: attempt(f"peel classic {name}", lambda: parse(name))
            )
            times["peel_setup_s"].append([elapsed, cal])
            if H is None:  # neither peel can run
                out["errors"].append({"op": f"peel pseudo {name}", "error": "parse failed"})
                continue
            for rule, fn in PEEL_RULES:
                op = f"peel {rule} {name}"
                result, elapsed, cal = timed(
                    f"bench.peel_{rule}:{name}", lambda: attempt(op, lambda: getattr(hypertrace, fn)(H))
                )
                if result is not None:
                    times["peel"][f"{rule}:{name}"] = [elapsed, cal]
                    keep(out["peel"], f"{rule}:{name}", op, peel_record(result))
            del H

        # Set-up of the analysis corpus: text to the built graph or
        # hypergraph, neighbourhood hypergraphs included.  Each sample is
        # the mean over one block of repetitions.
        def setups(reps):
            for _ in range(reps):
                with span("bench.setup"):
                    for name in corpus:
                        hypergraphs(name, parse(name))

        for reps in blocks(spec["setup_reps"]):
            _, elapsed, cal = timed("bench.setups", lambda: setups(reps))
            times["setup_s"].append([elapsed / reps, cal])

        # Peels of the corpus hypergraphs, each on a fresh object built
        # beforehand; a sample is again the mean over one block.
        for reps in blocks(spec["small_peel_reps"]):
            with span("bench.fresh"):
                built = [(f"{name}/{i}", H) for _ in range(reps) for name in corpus
                         if insts[name]["small_peel"] for i, H in enumerate(hypergraphs(name, parse(name)))]
            for rule, fn in PEEL_RULES:
                results, elapsed, cal = timed(f"bench.small_peel_{rule}", lambda: [
                    attempt(f"peel {rule} {key}", lambda: getattr(hypertrace, fn)(H)) for key, H in built
                ])
                times["small_peel"].setdefault(rule, []).append([elapsed / reps, cal])
                for (key, _), result in zip(built, results):
                    if result is not None:
                        keep(out["small_peel"], f"{rule}:{key}", f"peel {rule} {key}", peel_record(result))
            del built

        # Full analyses, each on a freshly parsed instance.
        for entry in spec["analyze"]:
            name = entry["name"]
            for _ in range(spec["analyze_reps"]):
                with span("bench.fresh"):
                    obj = parse(name)
                    budgets = hypertrace.Budgets(subset_budget=entry["budget"]) if entry["budget"] else None
                report, elapsed, cal = timed(f"bench.analyze:{name}", lambda: attempt(
                    f"analyze {name}",
                    lambda: hypertrace.run_report(obj, analyses=entry["analyses"], budgets=budgets),
                ))
                if report is not None:
                    times["analyze"].setdefault(name, []).append([elapsed, cal])
                    doc = report.to_dict(include_timings=False)
                    keep(out["reports"], name, f"analyze {name}", {"exit_code": report.exit_code, "doc": doc})
        return times

    started = clock()
    while True:
        round_start = clock()
        with span("bench.round"):
            out["rounds"].append(one_round())
        now = clock()
        # Stop when a next round as long as this one would end more than
        # half a round past the run length, so that on average a run
        # measures for its length.
        if now - started + 0.5 * (now - round_start) > spec["seconds"]:
            break

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.dump()
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
