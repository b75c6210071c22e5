from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from conftest import TOY_CITATIONS
from evograph import citenet
from evograph import (
    EmptyGraphError,
    EvolvingGraph,
    InactiveRootError,
    ParseError,
    bfs,
    build_graph,
)
from evograph.citenet import (
    BACKWARD,
    FORWARD,
    community,
    community_report,
    influence_set,
    influencers_set,
    load_citations,
)
from evograph.core import read_tsv


def toy_graph():
    return build_graph(TOY_CITATIONS)


def write(tmp_path, text, name="net.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------- parsing


def test_parse_toy_file(toy_citation_file):
    table = read_tsv(toy_citation_file)
    assert (table.rows(), table.lines, table.comments) == (TOY_CITATIONS, 8, 1)
    _, summary = load_citations(toy_citation_file)
    assert summary.lines == 8
    assert summary.comments == 1
    assert summary.records == 7


def test_parse_skips_blank_lines(tmp_path):
    p = write(tmp_path, "\nA\tB\t1\n\n  \n# note\nB\tC\t2\n")
    _, summary = load_citations(p)
    assert summary.lines == 6 and summary.comments == 1 and summary.records == 2


def test_parse_wrong_field_count(tmp_path):
    p = write(tmp_path, "A\tB\t1\nA\tB\n")
    with pytest.raises(ParseError, match="line 2.*3 tab-separated"):
        load_citations(p)


def test_parse_bad_year(tmp_path):
    p = write(tmp_path, "# header\nA\tB\tnineteen\n")
    with pytest.raises(ParseError, match="line 2.*time is not an integer"):
        load_citations(p)


def test_parse_empty_name(tmp_path):
    p = write(tmp_path, "A\tB\t1\n \tB\t2\n")
    with pytest.raises(ParseError, match="line 2.*empty name"):
        load_citations(p)


def test_casefold_policy(tmp_path):
    p = write(tmp_path, "Alice\tBOB\t1\nALICE\tCarol\t2\n")
    g, _ = load_citations(p, name_policy="casefold")
    assert [(e.src, e.dst) for e in g.edges()] == [
        ("alice", "bob"), ("alice", "carol"),
    ]
    with pytest.raises(ValueError):
        load_citations(p, name_policy="shouty")


# ---------------------------------------------------------------- loading


def test_load_toy_file(toy_citation_file):
    g, summary = load_citations(toy_citation_file)
    assert g == toy_graph()
    assert summary.edges_kept == 7
    assert summary.authors == 6
    assert summary.years == 3
    assert "7 edges kept" in summary.describe()


def test_load_drops_self_citations_and_duplicates(tmp_path):
    p = write(tmp_path, "A\tB\t1\nA\tA\t1\nA\tB\t1\nB\tC\t2\n")
    g, summary = load_citations(p)
    assert summary.records == 4
    assert summary.self_citations == 1
    assert summary.duplicates == 1
    assert summary.edges_kept == 2
    assert g.num_static_edges == 2
    assert g.is_active("A", 1) and not g.is_active("A", 2)


def test_load_is_order_invariant(tmp_path):
    rows = [f"{a}\t{b}\t{y}" for a, b, y in TOY_CITATIONS]
    g1, _ = load_citations(write(tmp_path, "\n".join(rows) + "\n", "a.tsv"))
    random.Random(5).shuffle(rows)
    g2, _ = load_citations(write(tmp_path, "\n".join(rows) + "\n", "b.tsv"))
    assert g1 == g2


def test_load_empty_file(tmp_path):
    with pytest.raises(EmptyGraphError):
        load_citations(write(tmp_path, "# nothing here\n"))


# ---------------------------------------------------------------- queries


def test_influence_golden():
    r = influence_set(toy_graph(), "A", 1)
    assert r.orientation == FORWARD
    assert r.root_author == "A" and r.root_year == 1
    assert r.entries == {
        ("B", 1): 1,
        ("C", 1): 2, ("D", 2): 2,
        ("C", 2): 3, ("C", 3): 3, ("D", 3): 3,
        ("E", 3): 4,
        ("F", 3): 5,
    }
    assert r.author_set() == {"B", "C", "D", "E", "F"}
    assert r.earliest_years() == {
        "B": (1, 1), "C": (1, 2), "D": (2, 2), "E": (3, 4), "F": (3, 5),
    }


def test_influence_excludes_roots_own_nodes():
    # A is cited again in year 2; neither (A, 1) nor (A, 2) may appear
    r = influence_set(toy_graph(), "A", 1)
    assert "A" not in r.author_set()


def test_influence_respects_time():
    # F's year-2 paper influences C, and through C the year-3 papers;
    # citations from year 3 cannot flow back
    r = influence_set(toy_graph(), "F", 2)
    assert r.author_set() == {"C", "D", "E"}
    assert r.entries[("C", 2)] == 1


def test_influencers_golden():
    r = influencers_set(toy_graph(), "D", 3)
    assert r.orientation == BACKWARD
    assert r.entries == {
        ("F", 3): 1,
        ("E", 3): 2, ("A", 2): 2, ("F", 2): 2,
        ("C", 3): 3, ("A", 1): 3,
        ("C", 2): 4, ("C", 1): 4,
        ("B", 1): 5,
    }
    assert r.author_set() == {"A", "B", "C", "E", "F"}


def test_influencers_only_looks_back():
    r = influencers_set(toy_graph(), "C", 1)
    assert r.author_set() == {"A", "B"}  # the year-2 F citation is later


def test_inactive_root_rejected():
    g = toy_graph()
    with pytest.raises(InactiveRootError):
        influence_set(g, "E", 1)  # E only publishes in year 3
    with pytest.raises(InactiveRootError):
        influencers_set(g, "nobody", 1)
    with pytest.raises(InactiveRootError):
        community(g, "A", 3)


def test_community_golden():
    g = toy_graph()
    assert community(g, "F", 2) == {"C", "D", "E"}
    # the root author can be part of their own community
    assert community(g, "E", 3) == {"B", "C", "D", "E", "F"}
    assert community(g, "A", 1) == {"B", "C", "D", "E", "F"}


def test_community_transposes_once_per_query(monkeypatch):
    # X cites k authors in year 1, so the backward walk from (X, 1) ends in k
    # leaves; the graph is still transposed only once per query
    calls = []
    orig = EvolvingGraph.transposed

    def counting(self):
        calls.append(1)
        return orig(self)

    monkeypatch.setattr(EvolvingGraph, "transposed", counting)
    per_query = []
    for k in (2, 6):
        g = build_graph([("X", f"a{i}", 1) for i in range(k)] + [("Y", "X", 2)])
        leaves = bfs(g.time_reversed().transposed(), ("X", -1)).leaves
        assert len(leaves) == k
        calls.clear()
        assert community(g, "X", 1) == {"X", "Y"}
        per_query.append(len(calls))
    assert per_query == [1, 1]


def test_community_report_walks_back_once(monkeypatch):
    # one backward BFS per report and no forward BFS at all, one call each of
    # transposed and time_mirrored per report and no time reversal, and one
    # array pass per derived graph however many reports ask for it
    calls = {"transposed": 0, "time_reversed": 0, "time_mirrored": 0, "bfs": 0,
             "_derived": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    leaves = bfs(toy_graph().time_mirrored(), ("E", -3)).leaves
    assert len(leaves) > 1
    g = toy_graph()
    for name in ("transposed", "time_reversed", "time_mirrored", "_derived"):
        monkeypatch.setattr(EvolvingGraph, name,
                            counting(name, getattr(EvolvingGraph, name)))
    monkeypatch.setattr(citenet, "bfs", counting("bfs", citenet.bfs))
    rep = community_report(g, "E", 3)
    assert rep.community == {"B", "C", "D", "E", "F"}
    assert calls == {"transposed": 1, "time_reversed": 0, "time_mirrored": 1,
                     "bfs": 1, "_derived": 2}
    assert community_report(g, "F", 2).community == {"C", "D", "E"}
    assert calls == {"transposed": 2, "time_reversed": 0, "time_mirrored": 2,
                     "bfs": 2, "_derived": 2}


def test_community_pass_expands_each_id_at_most_twice(monkeypatch):
    # H cites k authors in year 1 and R cites H in year 2, so the backward
    # walk from (R, 2) ends in the k leaves (a_i, 1), and every leaf reaches
    # H and R.  Each expansion, in bfs and in the community pass, reads its
    # active id's position once to find its time jumps; count those reads.
    k = 6
    g = build_graph([("H", f"a{i}", 1) for i in range(k)] + [("R", "H", 2)])
    assert len(bfs(g.time_mirrored(), ("R", -2)).leaves) == k
    reads: dict = {}
    wrapped: dict = {}

    class CountingPos(tuple):
        def __getitem__(self, a):
            reads[id(self), a] = reads.get((id(self), a), 0) + 1
            return tuple.__getitem__(self, a)

    plain = EvolvingGraph.layout_lists

    def counted(self):
        if id(self) not in wrapped:
            lists = plain.fget(self)
            wrapped[id(self)] = (self, lists._replace(pos=CountingPos(lists.pos)))
        return wrapped[id(self)][1]

    monkeypatch.setattr(EvolvingGraph, "layout_lists", property(counted))
    assert community_report(g, "R", 2).community == {"H", "R"}
    assert max(reads.values()) == 2  # H and R gain a second label once


def test_community_report():
    r = community_report(toy_graph(), "E", 3)
    assert r.orientation == BACKWARD
    assert r.author_set() == {"A", "B", "C", "F"}
    assert r.community == {"B", "C", "D", "E", "F"}


# ------------------------------------------------------------ vs oracles


def test_toy_queries_match_oracles():
    g = toy_graph()
    for tn in g.active_nodes():
        a, y = tn.node, tn.time
        inf = influence_set(g, a, y)
        assert inf.entries == oracles.influence_authors(TOY_CITATIONS, a, y)
        back = influencers_set(g, a, y)
        assert back.entries == oracles.influencer_authors(TOY_CITATIONS, a, y)
        assert community(g, a, y) == oracles.community_authors(TOY_CITATIONS, a, y)


def random_citations(seed):
    rng = np.random.Generator(np.random.PCG64(0xC17E + seed))
    n = int(rng.integers(3, 9))
    years = int(rng.integers(1, 5))
    authors = [f"a{i}" for i in range(n)]
    m = min(int(rng.integers(1, 3 * n)), n * (n - 1) * years)  # distinct rows exist
    rows = set()
    while len(rows) < m:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        rows.add((authors[i], authors[j], int(rng.integers(1, years + 1))))
    return sorted(rows)


def test_random_networks_match_oracles():
    for seed in range(25):
        rows = random_citations(seed)
        g = build_graph(rows)
        for tn in g.active_nodes():
            a, y = tn.node, tn.time
            assert influence_set(g, a, y).entries == oracles.influence_authors(
                rows, a, y
            ), (seed, a, y)
            assert influencers_set(g, a, y).entries == oracles.influencer_authors(
                rows, a, y
            ), (seed, a, y)
            assert community(g, a, y) == oracles.community_authors(rows, a, y), (
                seed, a, y,
            )


def mutual_leaf_authors(rows, author, year) -> bool:
    """True when two leaf authors of the backward walk from (author, year)
    reach each other."""
    back = oracles.expansion_adjacency([(u, v, -t) for u, v, t in rows], True)
    _, leaves = oracles.bfs_with_leaves(back, (author, -year))
    earliest: dict = {}
    for a, y in leaves:
        earliest[a] = min(earliest.get(a, -y), -y)
    reach = {a: {b for b, _ in oracles.influence_authors(rows, a, y)}
             for a, y in earliest.items()}
    return any(b in reach[a] and a in reach[b] for a in reach for b in reach if a != b)


def test_community_matches_per_leaf_walks():
    # one forward pass from each leaf author's earliest leaf, with at most two
    # labels per node, against one walk per leaf, from every active root
    mutual = 0
    for seed in range(300):
        rows = random_citations(1000 + seed)
        g = build_graph(rows)
        for tn in g.active_nodes():
            a, y = tn.node, tn.time
            assert community(g, a, y) == oracles.community_authors(rows, a, y), (
                seed, a, y)
            mutual += mutual_leaf_authors(rows, a, y)
    assert mutual >= 500  # of 2491 roots, 980 have leaf authors that reach each other


def test_influence_and_influencers_are_dual():
    # whoever I influence must list me among their influencers
    for seed in range(12):
        rows = random_citations(100 + seed)
        g = build_graph(rows)
        for tn in g.active_nodes():
            a, y = tn.node, tn.time
            for (b, s) in influence_set(g, a, y).entries:
                assert a in influencers_set(g, b, s).author_set(), (seed, a, y, b, s)
