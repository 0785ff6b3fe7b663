import random
import tracemalloc
import warnings

import pytest

from hypertrace import (
    Graph,
    build_hypergraph,
    parse_graph_text,
    parse_hypergraph_text,
    random_gnp,
    random_hypergraph,
    serialize_graph,
    serialize_hypergraph,
)
from hypertrace.errors import FormatError
from hypertrace.io import sniff_kind

from oracles import line_parse_graph_text, line_parse_hypergraph_text


def test_parse_p4():
    text = "# a path\np graph 4 3\n0 1\n1 2\n2 3\n"
    G = parse_graph_text(text)
    assert G == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_parse_one_based():
    text = "p graph 3 2 1\n1 2\n2 3\n"
    assert parse_graph_text(text) == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(FormatError, match="line 3: self-loop"):
        parse_graph_text("p graph 3 2\n0 1\n2 2\n")


def test_parse_warns_on_duplicate_edge():
    with pytest.warns(UserWarning, match="duplicate edge"):
        parse_graph_text("p graph 2 2\n0 1\n1 0\n")


def test_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse_graph_text("p graph x 3\n")
    with pytest.raises(FormatError, match="two vertex ids"):
        parse_graph_text("p graph 3 1\n0 1 2\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_graph_text("p graph 2 1\n0 2\n")
    with pytest.raises(FormatError):
        parse_graph_text("")


def test_parse_edge_count_mismatch():
    with pytest.raises(FormatError, match="expected 2 edge lines"):
        parse_graph_text("p graph 3 2\n0 1\n")


def test_empty_edge_section():
    assert parse_graph_text("p graph 3 0\n").edge_count == 0


def test_parse_hypergraph():
    H = parse_hypergraph_text("p hgraph 3 3\n0 1\n1 2\n0 2\n")
    assert H == build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])


def test_parse_hypergraph_collapses_duplicates():
    with pytest.warns(UserWarning, match="duplicate edge collapsed"):
        H = parse_hypergraph_text("p hgraph 2 2\n0 1\n1 0\n")
    assert H.m == 1


def test_parse_hypergraph_multi_keeps_duplicates():
    H = parse_hypergraph_text("p hgraph 2 2\n0 1\n1 0\n", allow_multi=True)
    assert H.m == 2


def test_parse_hypergraph_out_of_range():
    with pytest.raises(FormatError, match="out of range"):
        parse_hypergraph_text("p hgraph 2 1\n0 2\n")


def test_serialize_rejects_empty_edge():
    H = build_hypergraph(2, [set(), {0}])
    with pytest.raises(ValueError, match="empty edges"):
        serialize_hypergraph(H)


def test_round_trip_graphs():
    for seed in range(30):
        G = random_gnp(seed % 9 + 1, 0.4, seed=seed)
        assert parse_graph_text(serialize_graph(G)) == G
        assert parse_graph_text(serialize_graph(G, base=1)) == G


def test_round_trip_hypergraphs():
    for seed in range(30):
        n = seed % 7 + 2
        H = random_hypergraph(n, seed % n, seed % 4 + 1, seed=seed)
        assert parse_hypergraph_text(serialize_hypergraph(H)) == H
        assert parse_hypergraph_text(serialize_hypergraph(H, base=1)) == H


def test_sniff_kind():
    assert sniff_kind("p graph 2 0\n") == "graph"
    assert sniff_kind("# x\np hgraph 2 0\n") == "hgraph"
    with pytest.raises(FormatError):
        sniff_kind("hello\n")


GRAPH_FAULTS = [
    ("", "empty input"),
    ("# only a comment\n\n   \n", "empty input"),
    ("p hgraph 2 0\n", "line 1: expected header 'p graph <n> <m> [base]'"),
    ("p graph 2\n", "line 1: expected header 'p graph <n> <m> [base]'"),
    ("# c\n\np graph x 1\n0 1\n", "line 3: header fields must be integers"),
    ("p graph -1 0\n", "line 1: counts must be non-negative"),
    ("p graph 2 0 2\n", "line 1: base must be 0 or 1"),
    ("p graph 3 2\n0 1\n", "expected 2 edge lines, found 1"),
    ("p graph 3 1\n0 1\n1 2\n", "expected 1 edge lines, found 2"),
    ("p graph 3 2\n0 1\n1 x\n", "line 3: vertex ids must be integers"),
    ("p graph 3 1\n0 1.0\n", "line 2: vertex ids must be integers"),
    ("p graph 3 1\n0 -1\n", "line 2: vertex id out of range"),
    ("p graph 3 1\n0 3\n", "line 2: vertex id out of range"),
    ("p graph 3 1 1\n0 1\n", "line 2: vertex id out of range"),
    ("p graph 3 1 1\n1 4\n", "line 2: vertex id out of range"),
    ("p graph 3 1\n0 1 2\n", "line 2: edge lines must hold exactly two vertex ids"),
    ("p graph 3 2\n0 1\n2\n", "line 3: edge lines must hold exactly two vertex ids"),
    ("p graph 3 2\n0 1\n2 2\n", "line 3: self-loop at vertex 2"),
    ("p graph 3 1 1\n3 3\n", "line 2: self-loop at vertex 3"),
    ("p graph 3 2\n\n# c\n0 1\n0 9 # bad\n", "line 5: vertex id out of range"),
]

HYPERGRAPH_FAULTS = [
    ("", "empty input"),
    ("# only a comment\n\n   \n", "empty input"),
    ("p graph 2 0\n", "line 1: expected header 'p hgraph <n> <m> [base]'"),
    ("p hgraph 2 0 1 1\n", "line 1: expected header 'p hgraph <n> <m> [base]'"),
    ("# c\n\np hgraph 3 x\n0 1\n", "line 3: header fields must be integers"),
    ("p hgraph 3 -1\n", "line 1: counts must be non-negative"),
    ("p hgraph 2 0 2\n", "line 1: base must be 0 or 1"),
    ("p hgraph 3 2\n0 1\n", "expected 2 edge lines, found 1"),
    ("p hgraph 3 2\n0 1\n1 x 2\n", "line 3: vertex ids must be integers"),
    ("p hgraph 3 1\n0 1.0\n", "line 2: vertex ids must be integers"),
    ("p hgraph 3 1\n0 -1\n", "line 2: vertex id -1 out of range"),
    ("p hgraph 3 1\n0 3 1\n", "line 2: vertex id 3 out of range"),
    ("p hgraph 3 1 1\n1 0\n", "line 2: vertex id 0 out of range"),
    ("p hgraph 3 1 1\n1 4\n", "line 2: vertex id 4 out of range"),
    ("p hgraph 3 2\n\n# c\n0 1\n0 9 # bad\n", "line 5: vertex id 9 out of range"),
]


@pytest.mark.parametrize("text, message", GRAPH_FAULTS)
def test_graph_diagnostics(text, message):
    with pytest.raises(FormatError) as caught:
        parse_graph_text(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("allow_multi", [False, True])
@pytest.mark.parametrize("text, message", HYPERGRAPH_FAULTS)
def test_hypergraph_diagnostics(text, message, allow_multi):
    with pytest.raises(FormatError) as caught:
        parse_hypergraph_text(text, allow_multi=allow_multi)
    assert str(caught.value) == message


def _warned_then_raised(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FormatError) as error:
            parse(text)
    assert all(w.filename == __file__ for w in caught)
    return [str(w.message) for w in caught], str(error.value)


def test_duplicates_before_a_fault_warn_then_raise():
    text = "p graph 4 4\n0 1\n1 0\n2 3 # trailing\n\n3 9\n"
    assert _warned_then_raised(parse_graph_text, text) == (
        ["line 3: duplicate edge (0, 1)"], "line 6: vertex id out of range")
    text = "p hgraph 4 5\n0 1\n1 0\n2 3\n1 0 0\n3 4\n"
    assert _warned_then_raised(parse_hypergraph_text, text) == (
        ["line 3: duplicate edge collapsed", "line 5: duplicate edge collapsed"],
        "line 6: vertex id 4 out of range")


def test_comments_and_blank_lines_are_ignored():
    text = "# head\np graph 3 2 # n m\n\n0 1 # first\n   \n# whole line\n1 2#x\n"
    assert parse_graph_text(text) == Graph.from_edges(3, [(0, 1), (1, 2)])
    text = "p hgraph 3 2 1 # one-based\n\t\n1 2 3 # all\n\n# c\n2\n"
    assert parse_hypergraph_text(text) == build_hypergraph(3, [{0, 1, 2}, {1}])


def test_ids_are_read_as_int_reads_them():
    assert parse_graph_text("p graph 21 2\n07 +2\n2_0 0\n") == Graph.from_edges(
        21, [(7, 2), (20, 0)])
    assert parse_hypergraph_text("p hgraph 21 2\n07 +2 2_0\n0 0 1\n") == build_hypergraph(
        21, [{7, 2, 20}, {0, 1}])


def test_malformed_header_allocates_nothing_of_size_n():
    """A header's n is not trusted before the edge lines are checked: a
    fault on a short text is found without building n vertices."""
    for parse, text, message in [
        (parse_graph_text, "p graph 200000 1\n0 0\n", "line 2: self-loop at vertex 0"),
        (parse_hypergraph_text, "p hgraph 200000 1\n-1\n", "line 2: vertex id -1 out of range"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=message):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


FAULTY_TOKENS = ["x", "1.0", "-1", "0x1", "--1", "", "1 2"]


def _random_text(rng, graph):
    """A random instance text in either format, mostly valid and with
    duplicate edges, with comments, blank lines, ids like ``07`` and one
    fault in about a quarter of the texts."""
    n = rng.choice([0, 1, 2, 3, 5, 8, 12, rng.randint(40, 400)])
    base = rng.choice([0, 0, 1])
    m = rng.randint(0, 12) if n >= 2 else 0
    body = []
    for _ in range(m):
        if body and rng.random() < 0.3:
            tokens = rng.choice(body)[:]
            rng.shuffle(tokens)
        else:
            tokens = [str(v + base) for v in rng.sample(range(n), 2 if graph else rng.randint(1, n))]
        body.append(tokens)
    for tokens in body:
        if rng.random() < 0.05:
            i = rng.randrange(len(tokens))
            tokens[i] = {"0": "+0", "7": "07", "20": "2_0"}.get(tokens[i], tokens[i])
    kind = "graph" if graph else "hgraph"
    header = [kind, str(n), str(m)] + ([str(base)] if base or rng.random() < 0.1 else [])
    if rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            header[rng.randrange(len(header))] = rng.choice(["graph", "hgraph", "-1", "2", "x"])
        elif roll < 0.2:
            header[2] = str(m + rng.choice([-1, 1]))
        elif body:
            tokens = rng.choice(body)
            i = rng.randrange(len(tokens))
            if roll < 0.5:
                tokens[i] = rng.choice(FAULTY_TOKENS)
            elif roll < 0.8:
                tokens[i] = str(rng.choice([n + base, n + 3, base - 1, -1]))
            elif graph:
                tokens[i] = tokens[1 - i] if roll < 0.9 else tokens[i] + " " + tokens[i]
    lines = []
    for tokens in [["p"] + header] + body:
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# comment", "\t# x"]))
        comment = rng.choice([" # c", "#", "  #x # y"]) if rng.random() < 0.1 else ""
        lines.append(rng.choice([" ", "  ", "\t", " \t "]).join(tokens) + comment)
    if rng.random() < 0.005:
        lines = []
    return rng.choice(["\n", "\r\n", "\n", "\x0c"]).join(lines) + rng.choice(["", "\n"])


def _outcome(parse, text, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = parse(text, *args)
        except FormatError as exc:
            value = (type(exc), str(exc))
    return value, [str(w.message) for w in caught]


def test_bulk_parsers_match_the_line_parsers():
    """The bulk parsers agree with the line-by-line references on every
    value, first fault and warning list, on 3,000 seeded texts a format."""
    rng = random.Random(1915)
    kinds = {"value": 0, "warned": 0, "fault": 0}
    for _ in range(3_000):
        text = _random_text(rng, graph=True)
        outcome = _outcome(parse_graph_text, text)
        assert outcome == _outcome(line_parse_graph_text, text), text
        kinds["fault" if isinstance(outcome[0], tuple) else "warned" if outcome[1] else "value"] += 1
        text = _random_text(rng, graph=False)
        for allow_multi in (False, True):
            outcome = _outcome(parse_hypergraph_text, text, allow_multi)
            assert outcome == _outcome(line_parse_hypergraph_text, text, allow_multi), text
            kinds["fault" if isinstance(outcome[0], tuple) else "warned" if outcome[1] else "value"] += 1
    assert min(kinds.values()) > 1_000, kinds


def test_parse_at_scale_with_duplicates():
    """A text of about 100k edge weight with about 1,500 repeated edges:
    kept under ``allow_multi``, else collapsed with one warning per repeat."""
    rng = random.Random(15)
    n = 10_000
    edges = [frozenset(rng.sample(range(n), rng.randint(1, 12))) for _ in range(14_000)]
    edges += [rng.choice(edges) for _ in range(1_400)]
    rng.shuffle(edges)
    text = serialize_hypergraph(build_hypergraph(n, edges, allow_multi=True))
    assert parse_hypergraph_text(text, allow_multi=True) == build_hypergraph(n, edges, allow_multi=True)
    first = {}
    duplicates = [f"line {i + 2}: duplicate edge collapsed"
                  for i, e in enumerate(edges) if first.setdefault(e, i) != i]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        H = parse_hypergraph_text(text)
    assert [str(w.message) for w in caught] == duplicates
    with pytest.warns(UserWarning):
        assert H == build_hypergraph(n, edges)
