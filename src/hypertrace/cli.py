"""Command-line front end.

Subcommands: analyze, vc, dt, dominate, tree-check, gen, bench.
Exit codes: 0 success, 1 usage error, 2 a mathematical cross-check failed
(which indicts the implementation, not the mathematics), 3 a stage was
skipped for budget reasons.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import run_bench, rows_to_csv
from .errors import FormatError, HypertraceError
from .generate import generate
from .graphs import Graph
from .io import (
    parse_graph_text,
    parse_hypergraph_text,
    serialize_graph,
    serialize_hypergraph,
    sniff_kind,
)
from .report import ALL_ANALYSES, Budgets, run_report, validate_report
from .trace import SUBSET_BUDGET_DEFAULT


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--budget-subsets", type=_non_negative, default=SUBSET_BUDGET_DEFAULT,
                   help="subset budget of the searches that walk: trace entries' T_k, DT and domination above "
                   "the trace table's gate (n <= 18, at most 256 distinct edges, fewer for n <= 9), and VC; held "
                   "values, closed forms and the table are free; the bounds' T_j use 10^7 // (distinct edges)")
    p.add_argument("--allow-multi", action="store_true",
                   help="keep duplicate hypergraph edges instead of collapsing")
    p.add_argument("--json", dest="as_json", action="store_true", help="emit JSON")
    p.add_argument("--text", dest="as_json", action="store_false", help="emit plain text")
    p.add_argument("--out", type=Path, default=None, help="write output to a file")
    p.set_defaults(as_json=True)


def _load_instance(path: Path, allow_multi: bool):
    text = Path(path).read_text()
    kind = sniff_kind(text)
    if kind == "graph":
        return parse_graph_text(text)
    return parse_hypergraph_text(text, allow_multi=allow_multi)


def _emit(payload: str, out: Path | None):
    """Write ``payload``, ending in one newline, to stdout or to ``out``."""
    if not payload.endswith("\n"):
        payload += "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        out.write_text(payload)


def _report_command(args, analyses) -> int:
    instance = _load_instance(args.file, args.allow_multi)
    budgets = Budgets(subset_budget=args.budget_subsets)
    report = run_report(instance, analyses=analyses, budgets=budgets, source=str(args.file))
    doc = report.to_dict()
    validate_report(doc)
    if args.as_json:
        _emit(report.to_json(), args.out)
    else:
        _emit(_text_summary(doc), args.out)
    return report.exit_code


def _text_summary(doc: dict) -> str:
    lines = [f"instance: {doc['instance']['kind']} n={doc['instance']['n']} m={doc['instance']['m']}"]

    def fmt(value):
        if value is None:
            return "-"
        if isinstance(value, dict) and "value" in value:
            return f"{value['value']} ({value['exactness']})"
        return str(value)

    def sides(block):
        """(label, entry) pairs: a graph's per-side blocks are nested by side."""
        if "closed" in block:
            return [(f" {side}", block[side]) for side in ("closed", "open")]
        return [("", block)]

    results = doc["results"]
    if "degeneracy" in results:
        for side, t in sides(results["degeneracy"]):
            lines.append(
                f"degeneracy{side}: pseudo={fmt(t['pseudo'])} reduced={fmt(t['reduced'])} classic={fmt(t['classic'])}"
            )
    if "vc" in results:
        lines.append(f"vc: {fmt(results['vc']['dimension'])} witness={results['vc']['witness']}")
    if "dt" in results:
        for side, entry in sides(results["dt"]):
            lines.append(f"dt{side}: {fmt(entry['value']) if 'value' in entry else entry['undefined']}")
    if "domination" in results:
        for kind, entry in results["domination"].items():
            best = max((b["ceiled"] for b in entry["lower_bounds"]), default=0)
            if entry["feasible"]:
                lines.append(f"gamma {kind}: exact={fmt(entry['exact'])} best-lower-bound={best}")
            elif entry["feasible"] is None:  # the exact search was skipped on budget
                lines.append(f"gamma {kind}: skipped best-lower-bound={best}")
            else:
                lines.append(f"gamma {kind}: infeasible ({entry['infeasible_reason']})")
    if "tree" in results:
        tree = results["tree"]
        if "certificates" in tree:
            ok = all(item["passed"] for item in tree["certificates"])
            lines.append(f"tree certificates: {'all pass' if ok else 'FAILURE'}")
        if "bounds" in tree:
            lines.append(
                "tree bounds: "
                + " ".join(
                    f"{kind}={fmt(tree['bounds'][kind])}"
                    for kind in ("LD", "ID", "OLD")
                    if tree["bounds"][kind] is not None
                )
            )
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    lines.append(f"checks: {len(doc['checks']) - len(failed)}/{len(doc['checks'])} passed")
    for name in failed:
        lines.append(f"  FAILED: {name}")
    for entry in doc["skipped"]:
        lines.append(f"skipped ({entry['reason']}): {entry['stage']}")
    return "\n".join(lines) + "\n"


def _gen_command(args) -> int:
    params = {
        "n": args.n,
        "p": args.p,
        "m": args.m,
        "max_edge_size": args.max_edge_size,
        "allow_multi": args.allow_multi,
    }
    instance = generate(args.kind, params, seed=args.seed)
    if isinstance(instance, Graph):
        _emit(serialize_graph(instance), args.out)
    else:
        _emit(serialize_hypergraph(instance), args.out)
    return 0


def _bench_command(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    rows = run_bench(suite=args.suite, sizes=sizes, seed=args.seed)
    _emit(rows_to_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypertrace", description="hypergraph trace/degeneracy workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "analyze": ALL_ANALYSES,
        "vc": ("degeneracy", "vc"),
        "dt": ("degeneracy", "dt"),
        "dominate": ("degeneracy", "domination"),
        "tree-check": ("degeneracy", "domination", "tree"),
    }
    for name, analyses in specs.items():
        p = sub.add_parser(name)
        p.add_argument("file", type=Path)
        _add_common(p)
        p.set_defaults(func=lambda args, analyses=analyses: _report_command(args, analyses))

    g = sub.add_parser("gen")
    g.add_argument("kind", choices=("tree", "gnp", "hypergraph"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--max-edge-size", type=int, default=None)
    g.add_argument("--allow-multi", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=Path, default=None)
    g.set_defaults(func=_gen_command)

    b = sub.add_parser("bench")
    b.add_argument("--suite", choices=("peel", "vc", "all"), default="peel")
    b.add_argument("--sizes", default="10000,100000,1000000")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", type=Path, default=None)
    b.set_defaults(func=_bench_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"hypertrace: format error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, HypertraceError, ValueError) as exc:
        print(f"hypertrace: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
