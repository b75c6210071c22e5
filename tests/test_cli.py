from __future__ import annotations

import json

import pytest

from evograph.cli import geometric_sizes, main

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


def test_data_errors_exit_1(tmp_path, capsys, demo_file, toy_file):
    assert main(["bfs", str(tmp_path / "missing.tsv"), "--root", "1@1"]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\t2\n", encoding="utf-8")
    assert main(["bfs", str(bad), "--root", "1@1"]) == 1
    assert "line 1" in capsys.readouterr().err
    assert main(["distance", demo_file, "--from", "1", "--to", "3@3"]) == 1
    assert "@" in capsys.readouterr().err
    assert main(["community", toy_file, "--author", "E", "--year", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_geometric_sizes():
    assert geometric_sizes(100, 400, 3) == [100, 200, 400]
    sizes = geometric_sizes(10**5, 10**6, 5)
    assert sizes[0] == 10**5 and sizes[-1] == 10**6
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
