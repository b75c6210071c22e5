"""The benchmark's tracer still finds every program name it wraps.

``perfbench/spans.py`` swaps wrappers into module and class attributes of
the program for a traced run, so renaming or removing one of those names
makes every traced benchmark run fail.  This test runs one call of each
workload's kind under the tracer, the way ``perfbench/bench.py`` does.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import evograph
from conftest import DEMO_TRIPLES, TOY_CITATIONS
from evograph import algebra, citenet, cli, core, flatten, traversal
from evograph.core import EvolvingGraph
from evograph.traversal import ReachedMap

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402

# (owner, attribute) of every name that spans.instrument wraps
WRAPPED = [
    (cli, "main"), (cli, "load_edge_list"),
    (core, "build_graph"), (cli, "build_graph"), (citenet, "build_graph"),
    (evograph, "build_graph"),
    (EvolvingGraph, "transposed"), (EvolvingGraph, "time_reversed"),
    (traversal, "bfs"), (citenet, "bfs"), (evograph, "bfs"),
    (ReachedMap, "entries"), (ReachedMap, "leaves"),
    (flatten, "expand"), (flatten, "static_bfs"),
    (algebra.BlockMatrix, "__init__"), (algebra, "algebraic_bfs"),
    (algebra, "count_temporal_paths"), (algebra, "nilpotency_index"),
] + [(citenet, fn) for fn in ("load_citations", "influence_set", "influencers_set",
                              "community", "community_report")]


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def write_rows(path, rows):
    path.write_text("".join(f"{a}\t{b}\t{t}\n" for a, b, t in rows), encoding="utf-8")
    return str(path)


def test_traced_calls_record_their_spans_and_restore_the_program(tmp_path):
    graph_file = write_rows(tmp_path / "demo.tsv", DEMO_TRIPLES)
    citation_file = write_rows(tmp_path / "citations.tsv", TOY_CITATIONS)
    before = [current(owner, attr) for owner, attr in WRAPPED]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["bfs", graph_file, "--root", "1@1"]) == 0
        assert out.getvalue().startswith("1@1\t0\n")
        g, _ = citenet.load_citations(citation_file)
        citenet.community_report(g, "E", 3)
        demo = cli.demo_graph()
        roots, bad = cli.verify_graph(demo)
        assert (roots, bad) == (demo.num_active(), [])
        assert algebra.count_temporal_paths(demo, (1, 1), (3, 3), hops=3) == 2
        assert algebra.nilpotency_index(demo) == 4
    assert [current(owner, attr) for owner, attr in WRAPPED] == before

    names = {span["name"] for span in tracer.spans}
    assert names >= {
        "cli.main", "cli.load_edge_list", "traversal.bfs", "traversal.materialize",
        "citenet.load_citations", "citenet.community_report", "core.transposed",
        "flatten.expand", "algebra.BlockMatrix", "algebra.count_temporal_paths",
        "algebra.nilpotency_index",
    }
    assert all(span["end"] is not None for span in tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, queries=1, overhead_s=0.0)
    assert list(metrics) == list(spans.LAYER_UNITS)
    assert metrics["algebra.count_temporal_paths.hops"]["value"] == 3
    assert metrics["cli.load_edge_list.self_s"]["value"] > 0
