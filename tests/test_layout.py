"""The array-built core against the set-based builder it replaced
(``oracles.reference_build``), the reader on crafted files, and the query-cost
and encapsulation properties the layout exists for."""

from __future__ import annotations

import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from evograph import EdgeRecord, EvolvingGraph, build_graph, bfs
from evograph.cli import load_edge_list
from evograph.core import _scan_lines, read_tsv
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

PREFIXED = [(b"abcdefgh" * 38)[:n] for n in (7, 8, 9, 16, 300)]

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
    "nul in a name": (b"a\x00\tb\t1\na\tb\t2\n", [("a\x00", "b", 1), ("a", "b", 2)], 2, 0),
    # 7 bytes fit one key word, longer names are keyed in chunks of 7
    "names sharing a prefix": (
        b"".join(b"%s\t%s\t1\n" % (u, v) for u, v in zip(PREFIXED, PREFIXED[1:] + PREFIXED[:1])),
        [(u.decode(), v.decode(), 1) for u, v in zip(PREFIXED, PREFIXED[1:] + PREFIXED[:1])], 5, 0),
    "name spelled like a time": (b"7\t8\t7\n", [("7", "8", 7)], 1, 0),
    "one time four ways": (b"a\tb\t1\na\tb\t01\na\tb\t+1\na\tb\t 1 \n", [("a", "b", 1)] * 4, 4, 0),
    "padded and unpadded name": (b" a \tb\t1\na\t b\t2\n", [("a", "b", 1), ("a", "b", 2)], 2, 0),
    # 300 fields, most of 7 bytes: keys too wide to sort beside their index,
    # among them a 7-byte name whose last byte sits where a 6-byte name's
    # size bit does
    "many 7-byte names": (
        b"abcdef\tabcdef\x01\t0\n"
        + b"".join(b"name%03d\tname%03d\t%d\n" % (i, i + 1, i % 3) for i in range(99)),
        [("abcdef", "abcdef\x01", 0)]
        + [(f"name{i:03d}", f"name{i + 1:03d}", i % 3) for i in range(99)], 100, 0),
    # 400 distinct long names, coded above the keys of the 1-byte times
    "many long names": (
        b"".join(b"long name %04d\tx\t%d\n" % (i, i % 3) for i in range(400)),
        [(f"long name {i:04d}", "x", i % 3) for i in range(400)], 400, 0),
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
    table = read_tsv(write(tmp_path, name, data))
    assert (table.rows(), table.lines, table.comments) == (rows, lines, comments)


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_reader_errors(tmp_path, name):
    data, message, line_no = BAD_FILES[name]
    with pytest.raises(ParseError) as err:
        read_tsv(write(tmp_path, name, data))
    assert str(err.value) == f"line {line_no}: {message}"
    assert err.value.line_no == line_no


# pieces of generated files: whitespace that str.strip and str.isspace read
# differently from bytes (form feed, an em space), the BOM, number syntax
# that int() takes or refuses, a NUL, a piece that makes names longer than
# one 7-byte key chunk, and a byte that is never UTF-8
PADS = [b"", b" ", b"\x0c", "\u2003".encode()]
NAME_PIECES = [b"a", b"Zq", b"0", b"7", b"42", b"_", b"+", b"-", b"#", "\ufeff".encode(),
               b"\x00", b"twelve_bytes"]
TIMES = [b"0", b"7", b"+42", b"-3", b"1_000", b"007"]
JUNK = PADS + NAME_PIECES + [b"\t", b"\xff"]
LINE_ENDS = [b"\n", b"\r\n", b"\r", b""]

pad = st.sampled_from(PADS)
junk = st.lists(st.sampled_from(JUNK), max_size=4).map(b"".join)
name = st.tuples(pad, st.lists(st.sampled_from(NAME_PIECES), min_size=1, max_size=3)
                 .map(b"".join), pad).map(b"".join)
time = st.tuples(pad, st.sampled_from(TIMES), pad).map(b"".join)
row = st.tuples(name, name, time).map(b"\t".join)
line = st.one_of(
    row, row, row, row, row, row, row, row,  # mostly well-formed rows, so most files parse
    st.tuples(pad, st.just(b"#"), junk).map(b"".join),  # comment
    st.lists(pad, max_size=2).map(b"".join),  # blank
    st.tuples(junk, junk, junk).map(b"\t".join),
    junk,
)
edge_file = st.lists(st.tuples(line, st.sampled_from(LINE_ENDS)).map(b"".join),
                     min_size=1, max_size=8).map(b"".join)


def outcome(read, path):
    """What a reader makes of a file: its (rows, lines, comments), or its
    ParseError as (message, line number)."""
    try:
        return read(path)
    except ParseError as err:
        return str(err), err.line_no


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=edge_file)
def test_bulk_reader_agrees_with_line_scan(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "generated.tsv"
    path.write_bytes(data)

    def bulk(p):
        table = read_tsv(p)
        return table.rows(), table.lines, table.comments

    assert outcome(bulk, path) == outcome(_scan_lines, path)


def test_reader_cost_follows_file_size(tmp_path, monkeypatch):
    """10**4 short rows and one 64 KiB name: the reader's arrays hold a few
    words per field, so its peak stays within 16 times the file's size.  A
    reader that padded every field to the longest would need 2 GB here.  Two
    rows that share one 1 MiB name take a few sorts, not one per chunk."""
    data = b"".join(b"%d\t%d\t%d\n" % (i % 997, i * 7 % 991, i % 10) for i in range(10_000))
    data += b"x" * (1 << 16) + b"\ty\t1\n"
    path = write(tmp_path, "one long name", data)
    tracemalloc.start()
    try:
        table = read_tsv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.time) == 10_001 and "x" * (1 << 16) in table.names
    assert peak < 16 * len(data), f"read_tsv peaked at {peak} bytes for a {len(data)}-byte file"
    name = b"y" * (1 << 20)
    path = write(tmp_path, "one long name twice", b"%s\tz\t1\n%s\tz\t2\n" % (name, name))
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    assert read_tsv(path).rows() == [(name.decode(), "z", 1), (name.decode(), "z", 2)]
    assert len(sorts) <= 3


@pytest.mark.parametrize("name", sorted(GOOD_FILES))
def test_edge_list_keys_match_reference(tmp_path, name):
    path = write(tmp_path, name, GOOD_FILES[name][0])
    rows = read_tsv(path).rows()
    if not rows:
        with pytest.raises(EmptyGraphError):
            load_edge_list(path)
        return

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
