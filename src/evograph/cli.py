"""Command-line interface.

Commands: bfs, distance, count-paths, flatten, verify, demo-naive-sum,
bench, generate, community.  Graph files are tab-separated
``src  dst  time`` rows (``#`` comments allowed); temporal nodes on the
command line are written ``node@time``.  Exit codes: 0 success, 1 data error
or failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from . import algebra, citenet, flatten, generator, traversal
from .core import EvolvingGraph, TemporalNode, build_graph, read_tsv
from .errors import EvographError, ParseError


# -- input helpers -------------------------------------------------------


def load_edge_list(path, directed=True) -> EvolvingGraph:
    """Generic graph file: ``src<TAB>dst<TAB>time`` rows.

    Node fields become ints when every one of them parses as an int,
    otherwise they stay strings.  Time must always be an integer.
    """
    rows, _, _ = read_tsv(path)
    if all(_intable(u) and _intable(v) for u, v, _ in rows):
        rows = [(int(u), int(v), t) for u, v, t in rows]
    return build_graph(rows, directed=directed)


def _intable(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def parse_temporal(token: str, g: EvolvingGraph) -> TemporalNode:
    """``node@time`` -> TemporalNode, matching the graph's key type."""
    if "@" not in token:
        raise ParseError(f"expected node@time, got {token!r}")
    node_s, _, time_s = token.rpartition("@")
    try:
        lab = int(time_s)
    except ValueError:
        raise ParseError(f"time is not an integer in {token!r}") from None
    node = node_s
    if g.nodes and isinstance(g.nodes[0], int):
        try:
            node = int(node_s)
        except ValueError:
            raise ParseError(f"graph nodes are integers, got {node_s!r}") from None
    return TemporalNode(node, lab)


def _out_stream(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


# -- verification --------------------------------------------------------


def verify_graph(g: EvolvingGraph):
    """Cross-check the three traversals from every active root.

    Returns (number of roots checked, list of mismatch descriptions).
    """
    x = flatten.expand(g)
    op = algebra.BlockMatrix(g)
    bad = []
    roots = g.active_nodes()
    for root in roots:
        a = traversal.bfs(g, root)
        b = flatten.static_bfs(x, root)
        c = algebra.algebraic_bfs(op, root)
        if not (a.entries == b.entries == c.entries):
            bad.append(f"root {root}: traversal/expansion/algebra disagree")
    return len(roots), bad


def verify_random(count: int, seed: int, max_nodes: int = 30, max_times: int = 5):
    """Seeded random cross-checks; yields (description, roots, mismatches)."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        nt = int(rng.integers(1, max_times + 1))
        directed = bool(rng.integers(0, 2))
        cap = generator.GenSpec(n, nt, 1, 0, directed).capacity()
        m = int(rng.integers(1, min(cap, 3 * n) + 1))
        spec = generator.GenSpec(n, nt, m, seed=seed + i + 1, directed=directed)
        roots, bad = verify_graph(generator.random_graph(spec))
        kind = "directed" if directed else "undirected"
        yield f"{kind} n={n} t={nt} m={m} seed={spec.seed}", roots, bad


# -- benchmark -------------------------------------------------------------


def geometric_sizes(start: int, end: int, steps: int) -> list[int]:
    if steps < 2 or start <= 0 or end <= start:
        raise EvographError("need steps >= 2 and 0 < start < end")
    ratio = (end / start) ** (1 / (steps - 1))
    sizes = [round(start * ratio**i) for i in range(steps)]
    sizes[-1] = end
    return sizes


def run_bench(n_nodes, n_times, sizes, seed=0, reps=5):
    """Time a full traversal at each edge count of one growth family.

    The graph family shares nodes and time stamps; each step grows the
    previous graph.  Timing is the median of ``reps`` runs after one warm-up,
    on the monotonic clock.  Returns rows of (edges, seconds, iterations).
    """
    g = generator.random_graph(
        generator.GenSpec(n_nodes, n_times, sizes[0], seed=seed)
    )
    rows = []
    for i, target in enumerate(sizes):
        if target < g.num_static_edges:
            raise EvographError("bench sizes must be nondecreasing")
        if target > g.num_static_edges:
            g = generator.grow(g, target - g.num_static_edges, seed=seed + 1000 + i)
        root = g.active_nodes()[0]
        traversal.bfs(g, root)  # warm-up, discarded
        samples = []
        rm = None
        for _ in range(reps):
            t0 = time.perf_counter()
            rm = traversal.bfs(g, root)
            samples.append(time.perf_counter() - t0)
        rows.append((g.num_static_edges, statistics.median(samples), rm.iterations))
    return rows


# -- built-in demo graph ----------------------------------------------------

DEMO_EDGES = [(1, 2, 1), (1, 3, 2), (2, 3, 3)]


def demo_graph() -> EvolvingGraph:
    """Three nodes, three stamps: the smallest graph where the product-sum
    undercount shows up."""
    return build_graph(DEMO_EDGES, directed=True)


# -- command implementations ------------------------------------------------


def _cmd_bfs(args):
    g = load_edge_list(args.file, directed=not args.undirected)
    root = parse_temporal(args.root, g)
    rm = traversal.bfs(g, root)
    for tn, d in rm.entries.items():
        print(f"{tn.node}@{tn.time}\t{d}")
    return 0


def _cmd_distance(args):
    g = load_edge_list(args.file, directed=not args.undirected)
    src = parse_temporal(args.src, g)
    dst = parse_temporal(args.dst, g)
    d = traversal.distance(g, src, dst)
    print("unreachable" if d is None else d)
    return 0


def _cmd_count_paths(args):
    g = load_edge_list(args.file, directed=not args.undirected)
    src = parse_temporal(args.src, g)
    dst = parse_temporal(args.dst, g)
    print(algebra.count_temporal_paths(g, src, dst, args.hops))
    return 0


def _cmd_flatten(args):
    g = load_edge_list(args.file, directed=not args.undirected)
    x = flatten.expand(g)
    out = _out_stream(args.output)
    try:
        flatten.write_edge_list(x, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_verify(args):
    failures = 0
    if args.file:
        g = load_edge_list(args.file, directed=not args.undirected)
        roots, bad = verify_graph(g)
        status = "PASS" if not bad else "FAIL"
        print(f"{status} {args.file}: {roots} roots checked")
        for msg in bad:
            print(f"  {msg}")
        failures += len(bad)
    else:
        for desc, roots, bad in verify_random(args.random, args.seed):
            status = "PASS" if not bad else "FAIL"
            print(f"{status} {desc}: {roots} roots checked")
            for msg in bad:
                print(f"  {msg}")
            failures += len(bad)
    if failures:
        print(f"FAIL: {failures} mismatches", file=sys.stderr)
        return 1
    return 0


def _cmd_demo_naive_sum(args):
    graphs = [("built-in 3-node example", demo_graph())]
    if args.file:
        graphs.append((args.file, load_edge_list(args.file, directed=not args.undirected)))
    for name, g in graphs:
        rep = algebra.naive_sum_report(g)
        print(f"# {name}: matrix-product sum vs. true temporal-path count "
              f"(times {rep.first_label}..{rep.last_label})")
        print("src\tdst\tproduct_sum\ttemporal_paths")
        for src, dst, naive, true in rep.rows:
            print(f"{src}\t{dst}\t{naive}\t{true}")
        for note in rep.notes:
            print(f"# note: {note}")
        n_missed = len(rep.mismatches())
        print(f"# {n_missed} of {len(rep.rows)} entries undercounted")
    return 0


def _cmd_bench(args):
    sizes = geometric_sizes(args.start_edges, args.end_edges, args.steps)
    rows = run_bench(args.nodes, args.times, sizes, seed=args.seed, reps=args.reps)
    out = _out_stream(args.output)
    try:
        out.write("edges,seconds,iterations\n")
        for edges, seconds, iterations in rows:
            out.write(f"{edges},{seconds:.6f},{iterations}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_generate(args):
    spec = generator.GenSpec(
        args.nodes, args.times, args.edges, seed=args.seed,
        directed=not args.undirected,
    )
    g = generator.random_graph(spec)
    out = _out_stream(args.output)
    try:
        for e in g.edges():
            out.write(f"{e.src}\t{e.dst}\t{e.time}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_community(args):
    g, summary = citenet.load_citations(args.file, name_policy=args.policy)
    print(f"# {summary.describe()}", file=sys.stderr)
    author = citenet._normalize(args.author, args.policy)
    rep = citenet.community_report(g, author, args.year)
    members = sorted(rep.community)
    if args.format == "jsonl":
        print(json.dumps({
            "author": author,
            "year": args.year,
            "orientation": rep.orientation,
            "community": members,
        }, sort_keys=True))
    else:
        for m in members:
            print(m)
    return 0


# -- argument parsing --------------------------------------------------------


def _add_graph_args(p):
    p.add_argument("file", help="edge list: src<TAB>dst<TAB>time")
    p.add_argument("--undirected", action="store_true",
                   help="treat edges as undirected")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="evograph",
        description="breadth-first search over evolving graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bfs", help="hop distances from a temporal root")
    _add_graph_args(p)
    p.add_argument("--root", required=True, metavar="NODE@TIME")
    p.set_defaults(func=_cmd_bfs)

    p = sub.add_parser("distance", help="fewest hops between two temporal nodes")
    _add_graph_args(p)
    p.add_argument("--from", dest="src", required=True, metavar="NODE@TIME")
    p.add_argument("--to", dest="dst", required=True, metavar="NODE@TIME")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("count-paths", help="temporal paths with a fixed hop count")
    _add_graph_args(p)
    p.add_argument("--from", dest="src", required=True, metavar="NODE@TIME")
    p.add_argument("--to", dest="dst", required=True, metavar="NODE@TIME")
    p.add_argument("--hops", type=int, required=True)
    p.set_defaults(func=_cmd_count_paths)

    p = sub.add_parser("flatten", help="export the static expansion edge list")
    _add_graph_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("verify",
                       help="cross-check the three traversal implementations")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--random", type=int, default=20, metavar="N",
                   help="number of random graphs when no file is given")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo-naive-sum",
                       help="show where the matrix-product sum undercounts")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=_cmd_demo_naive_sum)

    p = sub.add_parser("bench", help="time full traversals on a growth family")
    p.add_argument("--nodes", type=int, default=10_000)
    p.add_argument("--times", type=int, default=10)
    p.add_argument("--start-edges", type=int, default=100_000)
    p.add_argument("--end-edges", type=int, default=1_000_000)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("generate", help="emit a seeded random graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--times", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("community",
                       help="pooled influence of an author's root influencers")
    p.add_argument("file", help="citations: citing<TAB>cited<TAB>year")
    p.add_argument("--author", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--policy", choices=["exact", "casefold"], default="exact")
    p.add_argument("--format", choices=["tsv", "jsonl"], default="tsv")
    p.set_defaults(func=_cmd_community)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvographError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
