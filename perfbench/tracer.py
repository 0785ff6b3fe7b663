"""Span recorder for the traced run.

The program is never edited.  Instead, each traced public function is
replaced by a recording wrapper in every ``hypertrace`` module that binds
it, which is where the calling modules look it up (``from .trace import
trace_function_exact`` binds the name in ``transversal`` too, so the
wrapper goes there as well).  A traced name that the program no longer
defines is listed under ``absent`` rather than failing the run.

Spans are kept in memory as (name, start, end, parent, count) and written
out when the run ends; ``count`` carries a work count where the layer has
one (subsets for ``trace_function_exact``, nodes for the VC searches,
budget skips for ``run_report``).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
import time
from math import comb

# module -> public names wrapped in it (and wherever else they are bound).
TRACED = {
    "io": ("parse_graph_text", "parse_hypergraph_text"),
    "hypergraph": ("build_hypergraph",),
    "graphs": ("neighborhood_hypergraph",),
    "degeneracy": ("peel_degeneracy", "peel_pseudo_degeneracy", "reduced_degeneracy"),
    "trace": ("trace_function_exact", "degeneracy_chain_bounds", "trace_bound_profile"),
    "vc": ("vc_exact", "vc_neighborhood_exact"),
    "transversal": ("dt_exact", "dt_lower_bounds"),
    "domination": ("gamma_exact", "domination_lower_bounds", "tree_degeneracy_certificates"),
    "report": ("run_report",),
}


def _trace_subsets(args, kwargs, result, exc):
    if exc is not None:
        return 0  # refused on budget before enumerating anything
    H = args[0] if args else kwargs["H"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return comb(H.n, k)


def _vc_nodes(args, kwargs, result, exc):
    if result is not None:
        return result.nodes_enumerated
    return getattr(exc, "budget", None) or 0


def _report_skips(args, kwargs, result, exc):
    return len(result.skipped) if result is not None else 0


COUNTERS = {
    "trace_function_exact": _trace_subsets,
    "vc_exact": _vc_nodes,
    "vc_neighborhood_exact": _vc_nodes,
    "run_report": _report_skips,
}


class Tracer:
    """Records spans around wrapped calls and the benchmark's own regions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, count]
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.gc_by_span: list[tuple[int, float]] = []  # (innermost open span, seconds)
        self.gc_collections = 0
        self._gc_start = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own regions."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, count=None) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = count

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._close(idx, counter(args, kwargs, result, exc) if counter else None)

        return wrapper

    def install(self) -> None:
        """Wrap every traced name wherever a ``hypertrace`` module binds it."""
        import importlib

        importlib.import_module("hypertrace")
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "hypertrace" and m]
        for module_name, names in TRACED.items():
            try:
                home = importlib.import_module(f"hypertrace.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            innermost = self._stack[-1] if self._stack else -1
            self.gc_by_span.append((innermost, time.perf_counter() - self._gc_start))
            self.gc_collections += 1

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "absent": self.absent,
            "gc_by_span": self.gc_by_span,
            "gc_collections": self.gc_collections,
        }

