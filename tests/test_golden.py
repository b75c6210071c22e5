"""Byte-identical outputs, pinned across rewrites of verify, flatten and
the citation queries.

The ``verify`` and ``flatten`` files in ``golden/`` were written by the
set-based expansion and the decoding ``verify`` that the array versions
replaced.  The two seeded inputs are ``evograph generate --nodes 7 --times
4 --edges 16 --seed 3`` and ``evograph generate --nodes 7 --times 4 --edges
14 --seed 5 --undirected``.

The ``bfs`` files were written by the reader that split every row into
Python strings, before the one that codes fields as byte arrays.  Each holds
the output of ``evograph bfs`` from every root active at the first stamp, in
active-id order: for ``directed.tsv``, ``undirected.tsv --undirected`` and
``names.tsv``, whose string names include some longer than 8 bytes, a padded
one and non-ASCII ones.

The citation files were written by the per-leaf forward walks that the
one-pass community report replaced, from every active (author, year) of
``citations.tsv`` (``evograph generate --nodes 15 --times 6 --edges 45
--seed 3``, read as citing, cited, year).  The CLI has no influence
command, so influence and influencers reports are pinned through the
library, entries in report order.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from evograph.citenet import influence_set, influencers_set, load_citations
from evograph.cli import load_edge_list, main

GOLDEN = Path(__file__).parent / "golden"


def _expected(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_verify_random_golden(capsys):
    assert main(["verify", "--random", "20", "--seed", "0"]) == 0
    assert capsys.readouterr().out == _expected("verify_random_20_seed_0.txt")


@pytest.mark.parametrize("name, flags", [
    ("demo", []),
    ("directed", []),
    ("undirected", ["--undirected"]),
])
def test_flatten_golden(capsys, name, flags):
    assert main(["flatten", str(GOLDEN / f"{name}.tsv"), *flags]) == 0
    assert capsys.readouterr().out == _expected(f"flatten_{name}.txt")


@pytest.mark.parametrize("name, flags", [
    ("directed", []),
    ("undirected", ["--undirected"]),
    ("names", []),
])
def test_bfs_golden(capsys, name, flags):
    path = GOLDEN / f"{name}.tsv"
    g = load_edge_list(path, directed=not flags)
    first = g.time_labels[0]
    for tn in g.active_nodes():
        if tn.time == first:
            assert main(["bfs", str(path), "--root", f"{tn.node}@{tn.time}", *flags]) == 0
    assert capsys.readouterr().out == _expected(f"bfs_{name}.txt")


CITATIONS = GOLDEN / "citations.tsv"


def _citation_roots():
    g, _ = load_citations(CITATIONS)
    return g, [(tn.node, tn.time) for tn in g.active_nodes()]


def test_community_jsonl_golden(capsys):
    _, roots = _citation_roots()
    for author, year in roots:
        assert main(["community", str(CITATIONS), "--author", author,
                     "--year", str(year), "--format", "jsonl"]) == 0
    assert capsys.readouterr().out == _expected("community_citations.jsonl")


def influence_text(g, roots) -> str:
    """One line per report: kind, root, then ``author@year=distance`` for
    each entry in report order."""
    lines = []
    for author, year in roots:
        for kind, rep in (("influence", influence_set(g, author, year)),
                          ("influencers", influencers_set(g, author, year))):
            cells = " ".join(f"{a}@{y}={d}" for (a, y), d in rep.entries.items())
            lines.append(f"{kind} {author}@{year}: {cells}")
    return "\n".join(lines) + "\n"


def test_influence_reports_golden():
    assert influence_text(*_citation_roots()) == _expected("influence_citations.txt")
