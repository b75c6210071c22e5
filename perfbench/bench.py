"""One benchmark run of one workload, in a fresh interpreter.

Usually started by ``run.py``; see README.md.  The run generates its inputs
from ``--seed`` into a temporary directory under ``.perfbench/``, sets up
(reads and builds) several times, then runs whole rounds of queries in a
closed loop with one client until ``--seconds`` of query time are spent.
Every answer is checked by ``checks.py`` outside the timed region.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up and the ``evograph bfs`` figure are medians of repeated calls: at
# least this many, and at least this much time in all.
MIN_REPS = 9
MIN_REP_SECONDS = 3.0

# On the shared 2-core VM this benchmark was built on, speed drifts by up to
# a quarter over seconds (a fixed loop of pure Python took 7.6 to 11.8 ms per
# call over one minute).  Every timed call is therefore scaled by
# CALIBRATION_REF_S / (mean time of the calibration loops around it): the
# time it would take on a machine that runs the loop in CALIBRATION_REF_S.
# See ``Run`` for when the loop runs.
CALIBRATION_REF_S = 0.006
CALIBRATE_EVERY_S = 0.05

WORKLOADS = ("edge-growth", "stamp-growth", "citations", "engines")


def import_program():
    """Import evograph from this checkout's ``src/``, and nothing else."""
    if not (SRC / "evograph" / "__init__.py").is_file():
        raise SystemExit(f"no evograph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evograph

    if Path(evograph.__file__).resolve().parent != (SRC / "evograph").resolve():
        raise SystemExit(f"imported evograph from {evograph.__file__}, not {SRC}")


import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from evograph import algebra, citenet, cli, traversal  # noqa: E402
from evograph.errors import EvographError  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def calibration() -> float:
    """Seconds for a fixed piece of interpreter work.

    It allocates and hashes strings and tuples, fills a set and a dict and
    sorts, like the program's parse and build.  In side-by-side tests it
    followed the drift of the citation, engines and CLI queries better than
    a loop of integer dict updates.  The cyclic garbage collector is off
    while it runs, so the loop's time does not depend on the program's heap.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        rows = [(str(i * 7919 % 100_003), i % 1000, i) for i in range(6000)]
        seen = set(rows)
        by_key = {r[0]: r for r in rows}
        sorted(seen)
        del by_key
        return perf_counter() - t0
    finally:
        gc.enable()


def bfs_cli(path: str, root: tuple) -> str:
    """``evograph bfs PATH --root NODE@TIME`` through ``cli.main``: its output."""
    argv = ["bfs", path, "--root", f"{root[0]}@{root[1]}"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise EvographError(f"evograph {' '.join(argv)} exited {rc}")
    return buf.getvalue()


# -- workloads ---------------------------------------------------------------


class Workload:
    """Inputs, set-up, query plan and checks of one workload.

    ``setup`` is what ``setup_s`` times: read the input file(s) and build
    the graph(s).  ``plan_round`` gives the arguments of one round of
    queries; every run attempts whole rounds.  ``query`` is what the latency
    figures time; ``check`` verifies its answer outside the timed region.
    """

    def __init__(self, data: inputs.WorkloadInput, seed: int):
        self.files = data.files
        self.tri = data.triples[0]
        self.seed = seed

    def setup(self):
        self.g = cli.load_edge_list(self.files[0])

    def first_stamp_roots(self, rng) -> list[tuple]:
        """Every root active at the first stamp, as (node key, label), in a
        seeded order.

        On the dense ``edge-growth`` and ``stamp-growth`` graphs such a root
        reaches the whole graph, so every query does the same amount of work
        and the latency median is steady.
        """
        tri = self.tri
        return [(tri.keys[v], tri.labels[0])
                for v in rng.permutation(tri.active_roots(0)).tolist()]

    def plan_round(self, rng):
        return self.first_stamp_roots(rng)[:1]

    def check_cli(self, root, text: str) -> None:
        checks.bfs_certificate(self.tri, root, checks.parse_bfs_output(text, self.tri))


class EdgeGrowth(Workload):
    """Each query is one ``evograph bfs FILE --root R``."""

    def query(self, root):
        return bfs_cli(self.files[0], root)

    check = Workload.check_cli


class StampGrowth(Workload):
    """Each query is one ``bfs`` on the built graph and reads ``entries``."""

    def query(self, root):
        return traversal.bfs(self.g, root).entries

    def check(self, root, entries):
        checks.bfs_certificate(self.tri, root,
                               {(tn.node, tn.time): d for tn, d in entries.items()})


class Citations(Workload):
    """Each query is ``citenet.community_report`` (what ``evograph
    community`` runs) for one active (author, year).

    A query's cost grows with the leaves of its backward traversal, and
    that count is heavy-tailed.  So the active temporal nodes are sorted by
    the oracle's leaf count and cut into ``STRATA`` equal strata, and a
    round draws one seeded root from each: every round then has the
    population's cost profile, and a run's mean does not hang on a few
    draws from the tail.
    """

    STRATA = 10

    def __init__(self, data, seed):
        super().__init__(data, seed)
        tri = self.tri
        self.oracle = checks.CitationOracle(tri)
        nodes = [(int(v), t) for t in range(tri.T) for v in tri.active_roots(t)]
        leaves = [len(self.oracle.influencers(v, t)[1]) for v, t in nodes]
        order = sorted(range(len(nodes)), key=lambda i: (leaves[i], i))
        self.strata = [[nodes[i] for i in part.tolist()]
                       for part in np.array_split(np.array(order), self.STRATA)]

    def plan_round(self, rng):
        tri = self.tri
        return [(tri.keys[v], tri.labels[t])
                for v, t in (part[int(rng.integers(len(part)))] for part in self.strata)]

    def setup(self):
        self.g, _ = citenet.load_citations(self.files[0])

    def query(self, root):
        return citenet.community_report(self.g, root[0], root[1])

    def check(self, root, rep):
        self.oracle.check_report(root[0], root[1], rep)


class Engines(Workload):
    """Each query checks one pair of graphs of the same size.  On both it
    runs ``cli.verify_graph`` (the three engines from every active root);
    on the first, whose slices are acyclic, it also runs
    ``nilpotency_index`` and a few ``count_temporal_paths`` calls with hops
    up to twice the index.  Pairing keeps every query's work alike.  A round
    visits every pair once."""

    def __init__(self, data, seed):
        super().__init__(data, seed)
        rng = inputs.rng_for(seed, 2)
        self.plans = []
        for i, tri in enumerate(data.triples):
            x = checks.Expansion(tri)
            counts = []
            acyclic = i % 2 == 0
            if acyclic:
                longest = x.longest_path()
                if longest is None:
                    raise RuntimeError("an acyclic engines graph has a cycle")
                counts = [self._count_spec(rng, tri, x, longest + 1)
                          for _ in range(inputs.COUNTS_PER_ACYCLIC_GRAPH)]
            self.plans.append((tri, x, acyclic, counts))

    @staticmethod
    def _count_spec(rng, tri, x, index):
        """Seeded (src, dst, hops): dst is reachable from src, and hops runs
        up to twice the nilpotency index, past the point where every count
        is zero."""
        src = x.nodes[int(rng.integers(len(x.nodes)))]
        levels = x.walk_counts(src, 2 * index)
        reach = sorted(set().union(*levels[1:]) or {src})
        dst = reach[int(rng.integers(len(reach)))]
        # the program refuses a product that could leave int64; stay far below
        biggest = max(max(lv.values(), default=0) for lv in levels)
        if biggest > 2 ** 40:
            raise RuntimeError("engines path counts are too large for the check")
        hops = int(rng.integers(1, 2 * index + 1))

        def key(code):
            t, v = divmod(code, tri.n)
            return tri.keys[v], tri.labels[t]

        return key(src), key(dst), hops, (src, dst)

    def setup(self):
        self.graphs = [cli.load_edge_list(f) for f in self.files]

    def plan_round(self, rng):
        return list(range(0, len(self.files), 2))

    def query(self, first):
        out = []
        for i in (first, first + 1):
            g = self.graphs[i]
            _, _, acyclic, counts = self.plans[i]
            roots, bad = cli.verify_graph(g)
            if not acyclic:
                out.append((i, roots, bad, None, []))
                continue
            index = algebra.nilpotency_index(g)
            out.append((i, roots, bad, index, [algebra.count_temporal_paths(g, s, d, h)
                                               for s, d, h, _ in counts]))
        return out

    def check(self, first, out):
        for i, roots, bad, index, counts in out:
            tri, x, acyclic, specs = self.plans[i]
            if bad:
                raise checks.CheckError(f"engines disagree on graph {i}: {bad[0]}")
            if roots != int(tri.active.sum()):
                raise checks.CheckError(f"verify checked {roots} roots, "
                                        f"graph {i} has {int(tri.active.sum())}")
            if acyclic:
                checks.check_nilpotency(x, index)
                for (_, _, hops, (s, d)), c in zip(specs, counts):
                    checks.check_count(x, s, d, hops, c)


KINDS = {"edge-growth": EdgeGrowth, "stamp-growth": StampGrowth,
         "citations": Citations, "engines": Engines}


# -- measurement -------------------------------------------------------------


class Run:
    """Timed calls into the program, with their calibration.

    The calibration loop runs before a call when the last one is older than
    CALIBRATE_EVERY_S, and again after the call on the same condition.  A
    call longer than that is therefore bracketed by its own pair of loops,
    and a run of short calls shares one pair, which keeps the loop's cost
    small next to calls of a few milliseconds.  A call's speed factor is
    the mean of the two loops around it over CALIBRATION_REF_S.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.qrng = inputs.rng_for(seed, 1)
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []
        self.speed: list[float | None] = []
        self._pending: list[int] = []
        self._loop = calibration()
        self._loop_at = perf_counter()

    def _calibrate(self):
        loop = calibration()
        for i in self._pending:
            self.speed[i] = (self._loop + loop) / 2 / CALIBRATION_REF_S
        self._pending.clear()
        self._loop, self._loop_at = loop, perf_counter()

    def _calibrate_if_stale(self):
        if perf_counter() - self._loop_at >= CALIBRATE_EVERY_S:
            self._calibrate()

    def attempt(self, fn, *args):
        """Time one program operation; its answer, or None when it raised.
        The wall time goes to ``self.wall``; see ``calibrated``."""
        self._calibrate_if_stale()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except EvographError as exc:
            self.failed += 1
            print(f"# failed: {exc}", file=sys.stderr)
            out = None
        self.wall.append(perf_counter() - t0)
        self.speed.append(None)
        self._pending.append(len(self.wall) - 1)
        self._calibrate_if_stale()
        return out

    def calibrated(self, start: int) -> list[float]:
        """Calibrated seconds of the calls from index ``start`` on."""
        self._calibrate()
        return [w / s for w, s in zip(self.wall[start:], self.speed[start:])]

    def repeat(self, fn, cases=((),)):
        """Call ``fn(*case)``, cycling over ``cases``, at least MIN_REPS times
        and for MIN_REP_SECONDS of wall-clock time in all.  Returns the
        calibrated latencies and the (case, answer) pairs."""
        answers = []
        start = len(self.wall)
        while len(answers) < MIN_REPS or sum(self.wall[start:]) < MIN_REP_SECONDS:
            case = cases[len(answers) % len(cases)]
            answers.append((case, self.attempt(fn, *case)))
        return self.calibrated(start), answers

    def queries(self, seconds: float, plan=None, tracer=None):
        """Closed loop: whole rounds until ``seconds`` of wall-clock query
        time are spent (or exactly the queries of ``plan``).  Returns (args,
        calibrated latencies)."""
        done = []
        start = len(self.wall)

        def one(arg):
            if tracer is not None:
                tracer.query = len(done)
                with tracer.span("query"):
                    out = self.attempt(self.wl.query, arg)
            else:
                out = self.attempt(self.wl.query, arg)
            done.append(arg)
            if out is not None:
                self.wl.check(arg, out)

        if plan is not None:
            for arg in plan:
                one(arg)
        else:
            while sum(self.wall[start:]) < seconds:
                for arg in self.wl.plan_round(self.qrng):
                    one(arg)
        return done, self.calibrated(start)

    def warm_up(self):
        arg = self.wl.plan_round(inputs.rng_for(self.wl.seed, 3))[0]
        out = self.attempt(self.wl.query, arg)
        if out is not None:
            self.wl.check(arg, out)

    def cli_bfs(self) -> list[float]:
        """``evograph bfs`` on the workload's (first) file, cycling over the
        roots active at its first stamp."""
        roots = self.wl.first_stamp_roots(inputs.rng_for(self.wl.seed, 4))
        times, answers = self.repeat(bfs_cli, [(self.wl.files[0], r) for r in roots])
        for (_, root), out in answers:
            if out is not None:
                self.wl.check_cli(root, out)
        return times


def timing_metrics(setup, lat, cli_times) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cli_bfs_s": {"value": statistics.median(cli_times), "unit": "s"},
        "queries_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "query_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
    }


def measure(wl: Workload, run: Run, seconds: float):
    def phase(fn, *args):
        start = len(run.wall)
        res = fn(*args)
        return res, run.wall[start:]

    (setup, _), setup_wall = phase(run.repeat, wl.setup)
    run.warm_up()
    (_, lat), lat_wall = phase(run.queries, seconds)
    cli_times, cli_wall = phase(run.cli_bfs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = timing_metrics(setup, lat, cli_times)
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    return metrics, {
        "queries": len(lat), "setups": len(setup), "cli_calls": len(cli_times),
        "speed_median": statistics.median(run.speed),
        "wall_clock": timing_metrics(setup_wall, lat_wall, cli_wall),
    }


def measure_traced(wl: Workload, run: Run, seconds: float, trace_path: Path):
    """Untraced queries for half the time, then the same queries traced."""
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        run.attempt(wl.setup)
    run.warm_up()
    plan, plain = run.queries(seconds / 2)
    with spans.instrument(tracer):
        _, traced = run.queries(0, plan=plan, tracer=tracer)
    tracer.write(str(trace_path))
    overhead = sum(traced) - sum(plain)
    return spans.layer_metrics(tracer.spans, len(traced), overhead), {
        "queries": len(traced), "spans": len(tracer.spans),
        "untraced_s": sum(plain), "traced_s": sum(traced)}


# -- environment -------------------------------------------------------------


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "evograph").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        "EVOGRAPH_VERIFY_THREADS": os.environ.get("EVOGRAPH_VERIFY_THREADS", "unset"),
    }


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="write the inputs to .perfbench/inputs/ and print their make-up")
    args = ap.parse_args(argv)

    if args.describe:
        dest = OUT / "inputs" / f"{args.workload}-{args.seed}"
        dest.mkdir(parents=True, exist_ok=True)
        data = inputs.generate(args.workload, args.seed, str(dest))
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "files": [os.path.relpath(f, ROOT) for f in data.files],
                          "makeup": data.makeup()}, indent=1))
        return 0

    OUT.mkdir(exist_ok=True)
    for sub in ("results", "traces"):
        (OUT / sub).mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        data = inputs.generate(args.workload, args.seed, tmp)
        wl = KINDS[args.workload](data, args.seed)
        run = Run(wl, args.seed)
        try:
            if args.trace:
                metrics, counts = measure_traced(wl, run, args.seconds,
                                                 OUT / "traces" / f"{tag}.json")
            else:
                metrics, counts = measure(wl, run, args.seconds)
            correct = True
        except checks.CheckError as exc:
            print(f"# check failed: {exc}", file=sys.stderr)
            metrics, counts, correct = {}, {}, False

    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, counts=counts,
                  inputs=data.makeup(), env=environment())
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("# record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
