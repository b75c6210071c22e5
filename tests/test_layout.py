"""The array-built core against the set-based builder it replaced
(``oracles.reference_build``), the reader on crafted files, and the query-cost
and encapsulation properties the layout exists for."""

from __future__ import annotations

import random
import re
import tracemalloc
from pathlib import Path

import pytest

import oracles
from evograph import EdgeRecord, EvolvingGraph, build_graph, bfs
from evograph.cli import load_edge_list
from evograph.core import read_tsv
from evograph.errors import EmptyGraphError, KeyTypeError, ParseError

# -- builder parity -------------------------------------------------------------

KEY_POOLS = {
    "small ints": list(range(12)),
    "strings": [f"author{i:02d}" for i in range(12)],
    "above 2**63": [2**63 + 7 * i for i in range(12)],
    "negative ints": [-(2**40) + i for i in range(12)],
    "sparse universe": list(range(0, 10**6, 997)),
}


def seeded_records(seed, keys, labels):
    """Records with duplicates, reversed duplicates and self-loops."""
    rng = random.Random(seed)
    recs = []
    for _ in range(rng.randint(1, 60)):
        u, v, t = rng.choice(keys), rng.choice(keys), rng.choice(labels)
        recs.append((u, v, t))
        roll = rng.random()
        if roll < 0.2:
            recs.append((u, v, t))
        elif roll < 0.4:
            recs.append((v, u, t))
        elif roll < 0.5:
            recs.append((u, u, t))
    return recs


def assert_same_graph(g: EvolvingGraph, ref: oracles.ReferenceGraph):
    assert g.nodes == ref.keys
    assert g.time_labels == ref.labels
    assert g.num_static_edges == ref.n_edges
    assert [(e.src, e.dst, e.time) for e in g.edges()] == ref.edges()
    assert [(tn.node, tn.time) for tn in g.active_nodes()] == ref.active_nodes()
    assert g.num_active() == len(ref.active_nodes())
    for key in ref.keys:
        assert g.active_time_labels(key) == ref.active_time_labels(key)


@pytest.mark.parametrize("pool", sorted(KEY_POOLS))
@pytest.mark.parametrize("directed", [True, False])
def test_builder_matches_reference(pool, directed):
    keys = KEY_POOLS[pool]
    labels = [-5, -2, 0, 3, 2**40]
    graphs = []
    for seed in range(40):
        recs = seeded_records(seed, keys, labels)
        g = build_graph(recs, directed=directed)
        ref = oracles.reference_build(recs, directed=directed)
        assert_same_graph(g, ref)
        shuffled = recs[:]
        random.Random(seed).shuffle(shuffled)
        h = build_graph(iter(shuffled), directed=directed)
        assert h == g and hash(h) == hash(g)
        graphs.append((g, ref))
    for (g1, r1), (g2, r2) in zip(graphs, graphs[1:]):
        assert (g1 == g2) == (r1 == r2)


def test_builder_matches_reference_on_derived_graphs():
    for seed in range(30):
        recs = seeded_records(seed, KEY_POOLS["strings"], [1, 2, 3, 4])
        g = build_graph(recs)
        flipped = [(v, u, t) for u, v, t in recs]
        mirrored = [(u, v, -t) for u, v, t in recs]
        assert_same_graph(g.transposed(), oracles.reference_build(flipped))
        assert_same_graph(g.time_mirrored(), oracles.reference_build(mirrored))
        assert_same_graph(g.time_reversed(),
                          oracles.reference_build([(v, u, -t) for u, v, t in recs]))


def test_builder_takes_mixed_record_kinds():
    recs = [EdgeRecord("b", "a", 2), ("a", "b", 1), ["c", "a", 2], ("a", "a", 5)]
    assert_same_graph(build_graph(recs), oracles.reference_build(recs))


@pytest.mark.parametrize("recs, error", [
    ([], EmptyGraphError),
    ([(1, 2, "1")], KeyTypeError),
    ([(1, 2, 1.0)], KeyTypeError),
    ([(1, 2, 1), (1, 2, 1.0)], KeyTypeError),
    ([(1, "a", 1)], KeyTypeError),
    ([(1, 2)], ValueError),
    ([(1, 2, 3), (1, 2, 3, 4)], ValueError),
    ([EdgeRecord(1, 2, 1), (1, 2)], ValueError),
])
def test_builder_raises_like_reference(recs, error):
    with pytest.raises(error):
        oracles.reference_build(recs)
    with pytest.raises(error):
        build_graph(recs)


# -- reader ---------------------------------------------------------------------

# file bytes -> (rows, lines read, comment lines)
GOOD_FILES = {
    "lf": (b"a\tb\t1\nc\td\t2\n", [("a", "b", 1), ("c", "d", 2)], 2, 0),
    "crlf": (b"a\tb\t1\r\nc\td\t2\r\n", [("a", "b", 1), ("c", "d", 2)], 2, 0),
    "lone cr": (b"a\tb\t1\rc\td\t2\r", [("a", "b", 1), ("c", "d", 2)], 2, 0),
    "mixed endings": (b"a\tb\t1\r\n# c\rc\td\t2\n", [("a", "b", 1), ("c", "d", 2)], 3, 1),
    "no final newline": (b"a\tb\t1\nc\td\t2", [("a", "b", 1), ("c", "d", 2)], 2, 0),
    "indented comments": (b"  # one\n\t# two\na\tb\t1\n#three\n", [("a", "b", 1)], 4, 3),
    "blank lines": (b"\n   \n\t\na\tb\t1\n\x0c\n\xe2\x80\x83\n", [("a", "b", 1)], 6, 0),
    "padded fields": (b" a \t  b\t 3 \nc\t d \t+4\n", [("a", "b", 3), ("c", "d", 4)], 2, 0),
    "number-like names": (b"007\t+3\t1\n1_000\t5\t2\n-0\t 8 \t3\n",
                          [("007", "+3", 1), ("1_000", "5", 2), ("-0", "8", 3)], 3, 0),
    "underscored time": (b"a\tb\t1_000\n", [("a", "b", 1000)], 1, 0),
    "hash inside a name": (b"C#\tb\t1\n", [("C#", "b", 1)], 1, 0),
    "comments only": (b"# nothing\n\n", [], 2, 1),
    "empty": (b"", [], 0, 0),
    "bom": (b"\xef\xbb\xbfa\tb\t1\n", [("\ufeffa", "b", 1)], 1, 0),
}

# file bytes -> (ParseError message, line number)
BAD_FILES = {
    "two fields": (b"a\tb\t1\nc\td\n", "expected 3 tab-separated fields, got 2", 2),
    "four fields": (b"# x\na\tb\t1\t\n", "expected 3 tab-separated fields, got 4", 2),
    "one field": (b"\n\nabc\n", "expected 3 tab-separated fields, got 1", 3),
    "empty source": (b"a\tb\t1\n  \tb\t2\n", "empty name", 2),
    "empty target": (b"a\t\t2\n", "empty name", 1),
    "float time": (b"a\tb\t1.5\n", "time is not an integer: '1.5'", 1),
    "word time": (b"a\tb\tx\n", "time is not an integer: 'x'", 1),
    "empty time": (b"a\tb\t\n", "time is not an integer: ''", 1),
    "first of two bad lines": (b"a\tb\t1\na\tb\tx\nc\td\n", "time is not an integer: 'x'", 2),
    "not utf-8": (b"a\tb\t1\n\xff\tb\t2\n", "not UTF-8 text", 2),
    "bad row after crlf lines": (b"a\tb\t1\r\nc\td\t2\r\nc\td\r\n",
                                 "expected 3 tab-separated fields, got 2", 3),
    # both faults: the file is decoded in 8 KiB blocks as it is read, so a bad
    # byte in the bad row's block wins, and one 64 KiB further on does not
    "bad row, then bad byte nearby": (b"a\tb\t1\nc\td\n#\n\xff\tb\t2\n", "not UTF-8 text", 4),
    "bad row, then bad byte far on": (b"a\tb\t1\nc\td\n#" + b"x" * (1 << 16) + b"\n\xff\tb\t2\n",
                                      "expected 3 tab-separated fields, got 2", 2),
}


def write(tmp_path, name, data: bytes) -> Path:
    path = tmp_path / (re.sub(r"\W+", "_", name) + ".tsv")
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("name", sorted(GOOD_FILES))
def test_reader_rows(tmp_path, name):
    data, rows, lines, comments = GOOD_FILES[name]
    assert read_tsv(write(tmp_path, name, data)) == (rows, lines, comments)


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_reader_errors(tmp_path, name):
    data, message, line_no = BAD_FILES[name]
    with pytest.raises(ParseError) as err:
        read_tsv(write(tmp_path, name, data))
    assert str(err.value) == f"line {line_no}: {message}"
    assert err.value.line_no == line_no


@pytest.mark.parametrize("name", ["number-like names", "padded fields", "crlf"])
def test_edge_list_keys_match_reference(tmp_path, name):
    path = write(tmp_path, name, GOOD_FILES[name][0])
    rows, _, _ = read_tsv(path)

    def intable(s):
        try:
            int(s)
            return True
        except ValueError:
            return False

    if all(intable(u) and intable(v) for u, v, _ in rows):
        rows = [(int(u), int(v), t) for u, v, t in rows]
    assert_same_graph(load_edge_list(path), oracles.reference_build(rows))


# -- cost and encapsulation -----------------------------------------------------


def test_bfs_allocates_by_reach_not_universe():
    """2000 node ids x 500 stamps, a handful of edges: a query that reaches
    three temporal nodes must not pay for the universe.  A ``dist`` array
    over every (node, time) cell would take 8 MB here."""
    recs = [(v, v, 0) for v in range(2000)] + [(0, 0, t) for t in range(500)]
    recs += [(1, 2, 0), (2, 3, 0), (5, 6, 250), (6, 5, 499), (1999, 7, 499)]
    g = build_graph(recs)
    assert (g.num_nodes, g.num_times) == (2000, 500)
    tracemalloc.start()
    try:
        rm = bfs(g, (1, 0))
        assert len(rm.entries) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"bfs peaked at {peak} bytes"


def test_modules_read_the_graph_through_its_public_api():
    """No module but ``core`` reads an EvolvingGraph's private slots."""
    private = [s for s in EvolvingGraph.__slots__ if s.startswith("_")]
    pattern = re.compile(r"\.(%s)\b" % "|".join(map(re.escape, private)))
    src = Path(__file__).resolve().parent.parent / "src" / "evograph"
    found = [
        f"{path.name}:{no}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "core.py"
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
