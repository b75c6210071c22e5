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
import sys
import time
from functools import partial
from itertools import combinations

import numpy as np

from . import algebra, citenet, flatten, generator, traversal
from .core import EvolvingGraph, TemporalNode, _build_coded, build_graph, read_tsv
from .errors import EvographError, ParseError


# -- input helpers -------------------------------------------------------


def load_edge_list(path, directed=True) -> EvolvingGraph:
    """Generic graph file: ``src<TAB>dst<TAB>time`` rows.

    Node fields become ints when every one of them parses as an int,
    otherwise they stay strings.  Time must always be an integer.
    """
    table = read_tsv(path)
    names = table.names
    try:
        names = [int(name) for name in names]
    except ValueError:
        pass  # some name is not an integer, so every name stays a string
    return _build_coded(names, table.src, table.dst, table.times, table.time, directed)


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

    Returns (number of roots checked, list of mismatch descriptions).  Each
    description names a pair of engines that disagree from one root and the
    first temporal node, in entry order, where their distances differ.

    Every engine takes a batch of root active ids and returns an int32
    distance matrix over active ids, -1 for unreached
    (``traversal.distances``, ``flatten.static_distances`` and
    ``algebra.algebraic_distances``), so no root and no result is decoded
    into temporal nodes; only the root and the first differing id of a
    mismatch are, for its message.  Roots go in the algebra's batches, so
    each batch holds O(batch width x active ids).
    """
    x = flatten.expand(g)
    op = algebra.BlockMatrix(g)
    n_active = g.num_active()
    width = algebra.batch_width(g)
    bad = []
    for lo in range(0, n_active, width):
        roots = range(lo, min(lo + width, n_active))
        runs = (
            ("traversal", traversal.distances(g, roots)),
            ("expansion", flatten.static_distances(x, roots)),
            ("algebra", algebra.algebraic_distances(op, roots)),
        )
        rows = [run[1] for run in runs]
        agree = ((rows[0] == rows[1]) & (rows[1] == rows[2])).all(axis=1)
        for i in np.flatnonzero(~agree).tolist():
            root = g.temporal_nodes([lo + i])[0]
            for (name1, d1), (name2, d2) in combinations(runs, 2):
                r1, r2 = d1[i], d2[i]
                if not np.array_equal(r1, r2):
                    a = _first_difference(r1, r2)
                    bad.append(f"root {root}: {name1}/{name2} disagree at "
                               f"{g.temporal_nodes([a])[0]}: distance "
                               f"{_shown(r1[a])} vs {_shown(r2[a])}")
    return n_active, bad


def _first_difference(row1, row2) -> int:
    """First active id in the entry order of ``row1``, then of ``row2``,
    whose distance differs between the two rows.  A row's entry order is
    the (distance, active id) order of its reached ids."""
    for row in (row1, row2):
        reached = np.flatnonzero(row >= 0)
        order = reached[np.argsort(row[reached], kind="stable")]
        differs = row1[order] != row2[order]
        if differs.any():
            return int(order[differs.argmax()])
    raise ValueError("the rows agree")


def _shown(d) -> str:
    return "unreached" if d < 0 else str(d)


def verify_random(count: int, seed: int, max_nodes: int = 30, max_times: int = 5):
    """Seeded random cross-checks; yields (description, roots, mismatches)."""
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
    """``steps`` edge counts from ``start`` to ``end``, spaced geometrically
    and rounded.  Raises EvographError unless every count is larger than the
    one before; a request for more counts than the range holds is refused
    before any is computed, and a repeat stops the list where it occurs."""
    if steps < 2 or start <= 0 or end <= start:
        raise EvographError("need steps >= 2 and 0 < start < end")
    if steps > end - start + 1:
        raise EvographError(f"{steps} steps from {start} to {end} must repeat sizes: "
                            f"only {end - start + 1} edge counts lie in that range")
    ratio = (end / start) ** (1 / (steps - 1))
    sizes = [start]
    for i in range(1, steps):
        size = end if i == steps - 1 else round(start * ratio**i)
        if size <= sizes[-1]:
            raise EvographError(f"{steps} steps from {start} to {end} round to a "
                                f"repeated size, {sizes[-1]}")
        sizes.append(size)
    return sizes


def run_bench(n_nodes, n_times, sizes, seed=0, reps=5):
    """Time a full traversal at each edge count of one growth family.

    The graph family shares nodes and time stamps; each step grows the
    previous graph.  After one warm-up traversal of every graph, each of
    ``reps`` rounds times one traversal of every graph in turn, so a drift
    in machine speed during the run reaches all sizes alike.  A size's time
    is the fastest of its rounds, on the monotonic clock, since other work
    on the machine only ever adds time.  Returns rows of (edges, seconds,
    iterations).
    """
    g = generator.random_graph(
        generator.GenSpec(n_nodes, n_times, sizes[0], seed=seed)
    )
    graphs = []
    for i, target in enumerate(sizes):
        if target < g.num_static_edges:
            raise EvographError("bench sizes must be nondecreasing")
        if target > g.num_static_edges:
            g = generator.grow(g, target - g.num_static_edges, seed=seed + 1000 + i)
        graphs.append((g, g.active_nodes()[0]))
    iterations = [traversal.bfs(g, root).iterations for g, root in graphs]  # warm-up
    best = [float("inf")] * len(graphs)
    for _ in range(reps):
        for i, (g, root) in enumerate(graphs):
            t0 = time.perf_counter()
            traversal.bfs(g, root)
            best[i] = min(best[i], time.perf_counter() - t0)
    return [(g.num_static_edges, secs, its)
            for (g, _), secs, its in zip(graphs, best, iterations)]


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
        for desc, roots, bad in verify_random(args.random or 20, args.seed or 0):
            status = "PASS" if not bad else "FAIL"
            print(f"{status} {desc}: {roots} roots checked")
            for msg in bad:
                print(f"  {msg}")
            failures += len(bad)
    if failures:
        print(f"FAIL: {failures} mismatches", file=sys.stderr)
        return 1
    return 0


def _check_verify_args(parser, args):
    """Refuse, as usage errors, the flags ``verify`` would otherwise ignore."""
    if args.file is None and args.undirected:
        parser.error("--undirected needs a FILE: random graphs pick their own direction")
    if args.file is not None and (args.random is not None or args.seed is not None):
        parser.error("--random and --seed make random graphs, so they take no FILE")


def _check_bench_args(parser, args):
    """Refuse, as usage errors, the sizes that would not grow at every step."""
    if args.end_edges <= args.start_edges:
        parser.error("--end-edges must be above --start-edges")
    try:
        geometric_sizes(args.start_edges, args.end_edges, args.steps)
    except EvographError as exc:
        parser.error(f"--steps: {exc}")


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


def _at_least(lo: int):
    """argparse ``type=``: an integer no smaller than ``lo``."""
    def count(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return count


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
    p.add_argument("--hops", type=_at_least(0), required=True)
    p.set_defaults(func=_cmd_count_paths)

    p = sub.add_parser("flatten", help="export the static expansion edge list")
    _add_graph_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("verify",
                       help="cross-check the three traversal implementations")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--undirected", action="store_true",
                   help="treat the file's edges as undirected")
    p.add_argument("--random", type=_at_least(1), default=None, metavar="N",
                   help="number of random graphs when no file is given (default 20)")
    p.add_argument("--seed", type=_at_least(0), default=None,
                   help="seed of the random graphs (default 0)")
    p.set_defaults(func=_cmd_verify, check=partial(_check_verify_args, p))

    p = sub.add_parser("demo-naive-sum",
                       help="show where the matrix-product sum undercounts")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--undirected", action="store_true")
    p.set_defaults(func=_cmd_demo_naive_sum)

    p = sub.add_parser("bench", help="time full traversals on a growth family")
    p.add_argument("--nodes", type=int, default=10_000)
    p.add_argument("--times", type=int, default=10)
    p.add_argument("--start-edges", type=_at_least(1), default=100_000)
    p.add_argument("--end-edges", type=int, default=1_000_000)
    p.add_argument("--steps", type=_at_least(2), default=5)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--reps", type=_at_least(1), default=5)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench, check=partial(_check_bench_args, p))

    p = sub.add_parser("generate", help="emit a seeded random graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--times", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
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
    if "check" in args:
        args.check(args)
    try:
        return args.func(args)
    except (EvographError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
