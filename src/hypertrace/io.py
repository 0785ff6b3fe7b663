"""Text formats for graphs and hypergraphs.

Graphs::

    p graph <n> <m> [base]
    <u> <v>            (m edge lines)

Hypergraphs::

    p hgraph <n> <m> [base]
    <v1> <v2> ...      (m edge lines)

The optional ``base`` header token is 0 (default) or 1 and declares the
indexing of the vertex ids in the file; everything is 0-based internally.
In both formats ``#`` starts a comment that runs to the end of the line,
whole-line or trailing, and blank lines are ignored.
"""

from __future__ import annotations

import warnings
from pathlib import Path

from .errors import FormatError
from .graphs import Graph
from .hypergraph import Hypergraph


def _header(line: str, expected: str, lineno: int | None) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) not in (4, 5) or parts[0] != "p" or parts[1] != expected:
        raise FormatError(f"expected header 'p {expected} <n> <m> [base]'", lineno)
    try:
        n, m = int(parts[2]), int(parts[3])
        base = int(parts[4]) if len(parts) == 5 else 0
    except ValueError:
        raise FormatError("header fields must be integers", lineno) from None
    if n < 0 or m < 0:
        raise FormatError("counts must be non-negative", lineno)
    if base not in (0, 1):
        raise FormatError("base must be 0 or 1", lineno)
    return n, m, base


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _lines(text: str) -> list[str]:
    """The content lines of ``text``, unnumbered: what ``_content_lines``
    yields, but with the whitespace around the tokens left in."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(filter(str.strip, lines))


def parse_graph_text(text: str) -> Graph:
    """Parse the ``p graph`` format.

    The edge lines are read in bulk, and ``Graph.from_edges`` checks the
    arity, self-loops and the id range of all of them at once.  When
    anything fails, or an edge repeats, the text is parsed again line by
    line (``_check_graph``), which warns of each duplicate edge in line
    order and raises a ``FormatError`` at the first faulty line.  The
    bulk path runs only when ``n`` is at most the length of the text, so
    a malformed header cannot make it allocate more than the text holds.
    """
    try:
        lines = _lines(text)
        n, m, base = _header(lines[0], "graph", None)
        if len(lines) - 1 == m and n <= len(text):
            pairs = [tuple(map(int, line.split())) for line in lines[1:]]
            if base:
                pairs = [(u - 1, v - 1) for u, v in pairs]
            G = Graph.from_edges(n, pairs)
            if G.edge_count == m:
                return G
    except (ValueError, FormatError, IndexError):
        pass
    return _check_graph(text)


def _check_graph(text: str) -> Graph:
    """``parse_graph_text`` one line at a time, each check in line order."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty input")
    lineno, header = lines[0]
    n, m, base = _header(header, "graph", lineno)
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("edge lines must hold exactly two vertex ids", lineno)
        try:
            u, v = (int(p) - base for p in parts)
        except ValueError:
            raise FormatError("vertex ids must be integers", lineno) from None
        if u == v:
            raise FormatError(f"self-loop at vertex {u + base}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError("vertex id out of range", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.warn(f"line {lineno}: duplicate edge {key}", stacklevel=3)
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def parse_graph(path) -> Graph:
    return parse_graph_text(Path(path).read_text())


def serialize_graph(G: Graph, base: int = 0) -> str:
    lines = [f"p graph {G.n} {G.edge_count}" + (f" {base}" if base else "")]
    for u, v in G.edges():
        lines.append(f"{u + base} {v + base}")
    return "\n".join(lines) + "\n"


def parse_hypergraph_text(text: str, allow_multi: bool = False) -> Hypergraph:
    """Parse the ``p hgraph`` format.

    The edge lines are read in bulk, and the subset check of
    ``Hypergraph`` is the id range check of all of them at once.  When
    anything fails, or an edge repeats without ``allow_multi``, the text
    is parsed again line by line (``_check_hypergraph``), which collapses
    each duplicate edge with a warning, in line order, and raises a
    ``FormatError`` at the first faulty line.  The bulk path runs only
    when ``n`` is at most the length of the text, so a malformed header
    cannot make it allocate more than the text holds.
    """
    try:
        lines = _lines(text)
        n, m, base = _header(lines[0], "hgraph", None)
        if len(lines) - 1 == m and n <= len(text):
            edges = [frozenset(map(int, line.split())) for line in lines[1:]]
            if base:
                edges = [frozenset([v - 1 for v in e]) for e in edges]
            if allow_multi or len(set(edges)) == m:
                return Hypergraph(frozenset(range(n)), tuple(edges), allow_multi)
    except (ValueError, FormatError, IndexError):
        pass
    return _check_hypergraph(text, allow_multi)


def _check_hypergraph(text: str, allow_multi: bool) -> Hypergraph:
    """``parse_hypergraph_text`` one line at a time, each check in line order."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty input")
    lineno, header = lines[0]
    n, m, base = _header(header, "hgraph", lineno)
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for lineno, line in lines[1:]:
        try:
            members = [int(p) - base for p in line.split()]
        except ValueError:
            raise FormatError("vertex ids must be integers", lineno) from None
        for v in members:
            if not (0 <= v < n):
                raise FormatError(f"vertex id {v + base} out of range", lineno)
        e = frozenset(members)
        if e in seen and not allow_multi:
            warnings.warn(f"line {lineno}: duplicate edge collapsed", stacklevel=3)
            continue
        seen.add(e)
        edges.append(e)
    return Hypergraph(frozenset(range(n)), tuple(edges), allow_multi=allow_multi)


def parse_hypergraph(path, allow_multi: bool = False) -> Hypergraph:
    return parse_hypergraph_text(Path(path).read_text(), allow_multi=allow_multi)


def hypergraph_text(H: Hypergraph, base: int = 0) -> str:
    """The text format of ``H``, extended to the hypergraphs the format
    refuses: a ``v`` line lists the vertex ids when they are not the dense
    range [0, n), and an empty edge is an empty line.  A report hashes this
    text."""
    name = {v: str(v + base) for v in H.vertex_list}.__getitem__
    lines = [f"p hgraph {H.n} {H.m}" + (f" {base}" if base else "")]
    if not H.is_dense:
        lines.append("v " + " ".join(map(name, H.vertex_list)))
    lines += [" ".join(map(name, sorted(e))) for e in H.edges]
    return "\n".join(lines) + "\n"


def serialize_hypergraph(H: Hypergraph, base: int = 0) -> str:
    if not H.is_dense:
        raise ValueError("only hypergraphs on a dense vertex range serialize")
    for e in H.edges:
        if not e:
            raise ValueError("the text format cannot carry empty edges")
    return hypergraph_text(H, base)


def sniff_kind(text: str) -> str:
    """Return 'graph' or 'hgraph' from the header of an instance file."""
    for _, line in _content_lines(text):
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "p" and parts[1] in ("graph", "hgraph"):
            return parts[1]
        break
    raise FormatError("missing 'p graph' or 'p hgraph' header")
