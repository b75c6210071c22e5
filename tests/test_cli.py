from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from evograph import EvographError, algebra, flatten, generator, traversal
from evograph.algebra import BlockMatrix
from evograph.cli import demo_graph, geometric_sizes, main, run_bench, verify_graph
from evograph.core import EvolvingGraph, TemporalNode
from evograph.generator import GenSpec, random_graph
from evograph.traversal import ReachedMap
from tests_util import random_spec

DEMO_TSV = "# demo\n1\t2\t1\n1\t3\t2\n2\t3\t3\n"

BFS_FROM_FIRST = "1@1\t0\n2@1\t1\n1@2\t1\n3@2\t2\n2@3\t2\n3@3\t3\n"

FLATTEN_LINES = (
    "1@1\t2@1\tSTATIC\n"
    "1@2\t3@2\tSTATIC\n"
    "2@3\t3@3\tSTATIC\n"
    "1@1\t1@2\tCAUSAL\n"
    "2@1\t2@3\tCAUSAL\n"
    "3@2\t3@3\tCAUSAL\n"
)


@pytest.fixture
def demo_file(tmp_path):
    p = tmp_path / "demo.tsv"
    p.write_text(DEMO_TSV, encoding="utf-8")
    return str(p)


@pytest.fixture
def toy_file(toy_citation_file):
    return str(toy_citation_file)


def test_bfs_from_first(demo_file, capsys):
    assert main(["bfs", demo_file, "--root", "1@1"]) == 0
    assert capsys.readouterr().out == BFS_FROM_FIRST


def test_bfs_mid_root(demo_file, capsys):
    assert main(["bfs", demo_file, "--root", "2@1"]) == 0
    assert capsys.readouterr().out == "2@1\t0\n2@3\t1\n3@3\t2\n"


def test_bfs_inactive_root(demo_file, capsys):
    assert main(["bfs", demo_file, "--root", "3@1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not an active" in captured.err


def test_bfs_string_nodes(tmp_path, capsys):
    p = tmp_path / "s.tsv"
    p.write_text("alpha\tbeta\t1\nbeta\tgamma\t2\n", encoding="utf-8")
    assert main(["bfs", str(p), "--root", "alpha@1"]) == 0
    assert capsys.readouterr().out == "alpha@1\t0\nbeta@1\t1\nbeta@2\t2\ngamma@2\t3\n"


def test_distance(demo_file, capsys):
    assert main(["distance", demo_file, "--from", "1@1", "--to", "3@3"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["distance", demo_file, "--from", "2@3", "--to", "1@1"]) == 0
    assert capsys.readouterr().out == "unreachable\n"


def test_count_paths(demo_file, capsys):
    assert main(["count-paths", demo_file, "--from", "1@1", "--to", "3@3", "--hops", "3"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_flatten_stdout(demo_file, capsys):
    assert main(["flatten", demo_file]) == 0
    assert capsys.readouterr().out == FLATTEN_LINES


def test_flatten_to_file(demo_file, tmp_path, capsys):
    out = tmp_path / "flat.tsv"
    assert main(["flatten", demo_file, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == FLATTEN_LINES


def test_verify_file(demo_file, capsys):
    assert main(["verify", demo_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS") and "6 roots checked" in out


def test_verify_random(capsys):
    assert main(["verify", "--random", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(l.startswith("PASS") for l in lines)


def test_verify_names_a_dropped_entry(monkeypatch, demo_file, capsys):
    real = algebra.algebraic_bfs_many

    def dropping(g, roots):
        maps = real(g, roots)
        entries = dict(maps[0].entries)
        del entries[next(tn for tn in entries if tn.node == 3)]
        maps[0] = ReachedMap(maps[0].root, entries, maps[0].iterations)
        return maps

    monkeypatch.setattr(algebra, "algebraic_bfs_many", dropping)
    assert verify_graph(demo_graph()) == (6, [
        "root (1@1): traversal/algebra disagree at (3@2): distance 2 vs unreached",
        "root (1@1): expansion/algebra disagree at (3@2): distance 2 vs unreached",
    ])
    assert main(["verify", demo_file]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL") and "traversal/algebra disagree at (3@2)" in out


def test_verify_names_a_shifted_distance(monkeypatch):
    real = traversal.bfs

    def shifting(g, root):
        entries = dict(real(g, root).entries)
        last = list(entries)[-1]
        entries[last] += 1
        return ReachedMap(root, entries)

    monkeypatch.setattr(traversal, "bfs", shifting)
    _, bad = verify_graph(demo_graph())
    assert bad[:2] == [
        "root (1@1): traversal/expansion disagree at (3@3): distance 4 vs 3",
        "root (1@1): traversal/algebra disagree at (3@3): distance 4 vs 3",
    ]
    assert not any("expansion/algebra" in msg for msg in bad)


def test_verify_names_a_shifted_expansion_distance(monkeypatch):
    real = flatten.static_distances

    def shifting(x, roots):
        dist = real(x, roots).copy()
        dist[0, dist[0].argmax()] += 1  # the farthest node of the first root
        return dist

    monkeypatch.setattr(flatten, "static_distances", shifting)
    assert verify_graph(demo_graph()) == (6, [
        "root (1@1): traversal/expansion disagree at (3@3): distance 3 vs 4",
        "root (1@1): expansion/algebra disagree at (3@3): distance 4 vs 3",
    ])


def test_verify_decodes_only_the_roots(monkeypatch):
    decoded, built = [], []
    decode, init = EvolvingGraph.temporal_nodes, TemporalNode.__init__

    def counted_decode(self, aids):
        tns = decode(self, aids)
        decoded.append(len(tns))
        return tns

    def counted_init(self, node, time):
        built.append(1)
        init(self, node, time)

    g = random_graph(GenSpec(12, 4, 30, seed=7, directed=False))
    n_active = g.num_active()
    reached = sum(len(traversal.bfs(g, r)) for r in g.active_nodes())
    monkeypatch.setattr(EvolvingGraph, "temporal_nodes", counted_decode)
    monkeypatch.setattr(TemporalNode, "__init__", counted_init)

    assert verify_graph(g) == (n_active, [])
    # one decode, of the roots; each engine then builds its own root
    assert decoded == [n_active]
    assert len(built) <= 3 * n_active < reached

    decoded.clear()
    built.clear()
    x = flatten.expand(g)
    assert decoded == [] and built == []
    assert len(x.static_edges) + len(x.causal_edges) == x.num_edges
    assert decoded == [n_active] and len(built) == n_active


def test_verify_memory_is_bounded_by_the_batch(monkeypatch):
    # small components keep each root's walks short; the matrices of a batch
    # are as wide as the graph all the same
    g = random_graph(GenSpec(3000, 2, 1800, seed=3, directed=False))
    n_active = g.num_active()
    assert n_active >= 2000
    monkeypatch.setattr(algebra, "_BATCH_CELLS", 8 * g.num_nodes * g.num_times)
    tracemalloc.start()
    try:
        result = verify_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (n_active, [])
    square = 4 * n_active * n_active  # one int32 matrix over active ids squared
    assert peak < square / 8, (peak, square)


@pytest.mark.parametrize("roots_per_batch", [None, 4])
def test_verify_runs_one_product_per_level_per_batch(monkeypatch, roots_per_batch):
    calls = {"_spread": 0, "_matvec_blocks": 0}
    for name in calls:
        real = getattr(BlockMatrix, name)

        def counting(self, arg, name=name, real=real):
            calls[name] += 1
            return real(self, arg)

        monkeypatch.setattr(BlockMatrix, name, counting)
    g = random_graph(random_spec(2100, max_nodes=30, max_times=5, density=2.0))
    roots = g.active_nodes()
    assert len(roots) > 8
    width = len(roots)
    if roots_per_batch is not None:
        width = roots_per_batch
        monkeypatch.setattr(algebra, "_BATCH_CELLS",
                            width * g.num_nodes * g.num_times)
    depth = [traversal.bfs(g, r).iterations for r in roots]
    assert verify_graph(g) == (len(roots), [])
    # the deepest root of each batch sets that batch's number of levels
    assert calls["_spread"] == sum(max(depth[i:i + width])
                                   for i in range(0, len(roots), width))
    assert calls["_spread"] < sum(depth)
    assert calls["_matvec_blocks"] == 0


def test_demo_naive_sum(capsys):
    assert main(["demo-naive-sum"]) == 0
    out = capsys.readouterr().out
    assert "src\tdst\tproduct_sum\ttemporal_paths" in out
    assert "1\t3\t1\t2" in out
    assert "undercounted" in out


def test_demo_naive_sum_on_file(toy_file, capsys):
    assert main(["demo-naive-sum", toy_file]) == 0
    assert "product_sum" in capsys.readouterr().out


def test_generate_deterministic(capsys):
    args = ["generate", "--nodes", "5", "--times", "2", "--edges", "6", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    rows = [tuple(map(int, l.split("\t"))) for l in first.splitlines()]
    assert sorted(rows) == [
        (0, 4, 1), (1, 3, 0), (3, 0, 1), (3, 2, 0), (4, 0, 0), (4, 2, 1),
    ]


def test_generate_to_file_roundtrips(tmp_path, capsys):
    out = tmp_path / "gen.tsv"
    assert main(["generate", "--nodes", "6", "--times", "3", "--edges", "10",
                 "--seed", "4", "-o", str(out)]) == 0
    assert main(["bfs", str(out), "--root",
                 out.read_text().splitlines()[0].split("\t")[0] + "@0"]) in (0,)


def test_bench_csv(capsys):
    assert main(["bench", "--nodes", "40", "--times", "3", "--start-edges", "80",
                 "--end-edges", "320", "--steps", "3", "--seed", "1", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "edges,seconds,iterations"
    rows = [l.split(",") for l in lines[1:]]
    assert [int(r[0]) for r in rows] == [80, 160, 320]
    for _, secs, iters in rows:
        assert float(secs) >= 0.0 and int(iters) >= 1


def test_run_bench_times_the_sizes_in_turn(monkeypatch):
    seen = []
    real_bfs = traversal.bfs

    def counting_bfs(g, root):
        seen.append(g.num_static_edges)
        return real_bfs(g, root)

    monkeypatch.setattr(traversal, "bfs", counting_bfs)
    rows = run_bench(30, 2, [40, 60, 80], seed=2, reps=3)
    assert [r[0] for r in rows] == [40, 60, 80]
    # one warm-up round, then three timed rounds over every size
    assert seen == [40, 60, 80] * 4


def test_bench_to_file(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--nodes", "30", "--times", "2", "--start-edges", "40",
                 "--end-edges", "80", "--steps", "2", "--seed", "2", "--reps", "1",
                 "-o", str(out)]) == 0
    assert out.read_text().startswith("edges,seconds,iterations\n")


def test_community_tsv(toy_file, capsys):
    assert main(["community", toy_file, "--author", "A", "--year", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("# 7 edges kept")
    assert captured.out.splitlines() == ["B", "C", "D", "E", "F"]


def test_community_jsonl(toy_file, capsys):
    assert main(["community", toy_file, "--author", "D", "--year", "3",
                 "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = json.loads(lines[-1])
    assert rec["author"] == "D" and rec["year"] == 3
    assert rec["community"] == ["B", "C", "D", "E", "F"]


def test_community_casefold(tmp_path, capsys):
    p = tmp_path / "c.tsv"
    p.write_text("Bob\tALICE\t1\ncarol\tbob\t2\n", encoding="utf-8")
    # the queried name is folded with the same policy as the file
    assert main(["community", str(p), "--author", "Alice", "--year", "1",
                 "--policy", "casefold"]) == 0
    assert capsys.readouterr().out.splitlines() == ["bob", "carol"]


def test_usage_errors_exit_2(demo_file):
    with pytest.raises(SystemExit) as e:
        main(["bfs", demo_file])  # --root is required
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    for argv in (
        ["count-paths", demo_file, "--from", "1@1", "--to", "3@3", "--hops", "-1"],
        ["bench", "--reps", "0"],
        ["verify", "--random", "-1"],
        ["verify", "--random", "0"],
        ["verify", "--random", "1", "--seed", "-5"],
        ["verify", "--undirected"],
        ["verify", "--random", "3", "--undirected"],
        ["verify", demo_file, "--random", "3"],
        ["verify", demo_file, "--seed", "1"],
        ["verify", demo_file, "--random", "3", "--seed", "1"],
        ["generate", "--nodes", "3", "--times", "2", "--edges", "2", "--seed", "-1"],
        ["bench", "--seed", "-1"],
        # bench sizes that would not grow at every step
        ["bench", "--steps", "1"],
        ["bench", "--start-edges", "0"],
        ["bench", "--start-edges", "200", "--end-edges", "200"],
        ["bench", "--start-edges", "300", "--end-edges", "200"],
        ["bench", "--start-edges", "100", "--end-edges", "200", "--steps", "101"],
        ["bench", "--start-edges", "100", "--end-edges", "200", "--steps", "300"],
        ["bench", "--start-edges", "100", "--end-edges", "200", "--steps", "100000000"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv


def test_data_errors_exit_1(tmp_path, capsys, demo_file, toy_file):
    assert main(["bfs", str(tmp_path / "missing.tsv"), "--root", "1@1"]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\t2\n", encoding="utf-8")
    assert main(["bfs", str(bad), "--root", "1@1"]) == 1
    assert "line 1" in capsys.readouterr().err
    assert main(["distance", demo_file, "--from", "1", "--to", "3@3"]) == 1
    assert "@" in capsys.readouterr().err
    assert main(["bfs", str(tmp_path), "--root", "1@1"]) == 1
    assert "error:" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes("1\t2\t1\nJos\u00e9\t2\t2\n".encode("latin-1"))
    assert main(["bfs", str(latin1), "--root", "1@1"]) == 1
    assert "line 2: not UTF-8" in capsys.readouterr().err
    assert main(["community", toy_file, "--author", "E", "--year", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_geometric_sizes():
    assert geometric_sizes(100, 400, 3) == [100, 200, 400]
    sizes = geometric_sizes(10**5, 10**6, 5)
    assert sizes[0] == 10**5 and sizes[-1] == 10**6
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert geometric_sizes(100, 200, 2) == [100, 200]
    assert len(geometric_sizes(1000, 10**6, 60)) == 60
    with pytest.raises(EvographError, match="round to a repeated size, 101"):
        geometric_sizes(100, 200, 101)
    with pytest.raises(EvographError, match="only 101 edge counts"):
        geometric_sizes(100, 200, 10**8)


def test_generate_refuses_a_sample_above_its_limit(capsys):
    # near saturation the sampler would shuffle all 10**10 triple codes
    assert main(["generate", "--nodes", "100000", "--times", "1",
                 "--edges", "5000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sampling 5000000000 edges")
    assert f"the limit is {generator.MAX_SAMPLE_CODES}" in captured.err


def test_bfs_and_community_do_not_load_scipy_sparse(tmp_path):
    # the matrix engines import scipy.sparse on first use; a fresh process
    # that runs bfs and a community report never loads it
    path = tmp_path / "g.tsv"
    path.write_text(DEMO_TSV, encoding="utf-8")
    code = (
        "import sys, evograph.cli as cli\n"
        f"assert cli.main(['bfs', {str(path)!r}, '--root', '1@1']) == 0\n"
        f"assert cli.main(['community', {str(path)!r}, '--author', '1', '--year', '1']) == 0\n"
        "sys.exit('scipy.sparse' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
