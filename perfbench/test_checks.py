"""Each checker accepts the program's answer and rejects a perturbed one.

Run with ``python3 -m pytest perfbench/test_checks.py`` or
``python3 perfbench/test_checks.py``.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from evograph import algebra, build_graph, citenet, traversal  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def small_graph(seed: int, acyclic: bool) -> inputs.Triples:
    return inputs.engine_graph(inputs.rng_for(seed, 9), 12, 5, 10, acyclic)


def program_graph(tri: inputs.Triples):
    return build_graph(list(zip(*(
        [tri.keys[i] for i in tri.src.tolist()],
        [tri.keys[i] for i in tri.dst.tolist()],
        [tri.labels[t] for t in tri.t.tolist()],
    ))))


def queue_bfs(x: checks.Expansion, tri, root) -> dict:
    """Textbook BFS over the explicit expansion, as a second reference."""
    src = tri.time_id()[root[1]] * tri.n + tri.node_id()[root[0]]
    dist = {src: 0}
    q = deque([src])
    while q:
        a = q.popleft()
        for b in x.succ.get(a, ()):
            if b not in dist:
                dist[b] = dist[a] + 1
                q.append(b)
    return {(tri.keys[c % tri.n], tri.labels[c // tri.n]): d for c, d in dist.items()}


def rejects(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


@pytest.mark.parametrize("seed", range(5))
def test_bfs_certificate(seed):
    tri = small_graph(seed, acyclic=False)
    g = program_graph(tri)
    x = checks.Expansion(tri)
    root = (tri.keys[x.nodes[0] % tri.n], tri.labels[x.nodes[0] // tri.n])
    rm = traversal.bfs(g, root)
    dist = {(tn.node, tn.time): d for tn, d in rm.entries.items()}
    assert dist == queue_bfs(x, tri, root)
    checks.bfs_certificate(tri, root, dist)

    far = max(dist, key=dist.get)
    for bad in (
        {**dist, far: dist[far] + 1},                      # one distance too long
        {**dist, far: dist[far] - 1},                      # one distance too short
        {k: d for k, d in dist.items() if k != far},       # one node dropped
        {**dist, root: 1},                                 # root moved off 0
    ):
        rejects(checks.bfs_certificate, tri, root, bad)
    unreached = [(tri.keys[c % tri.n], tri.labels[c // tri.n]) for c in x.nodes]
    unreached = [k for k in unreached if k not in dist]
    if unreached:
        rejects(checks.bfs_certificate, tri, root, {**dist, unreached[0]: 1})
    inactive = next((tri.keys[v], tri.labels[t]) for t in range(tri.T)
                    for v in range(tri.n) if not tri.active[t, v])
    rejects(checks.bfs_certificate, tri, root, {**dist, inactive: 1})


def test_parse_bfs_output_rejects_duplicate_lines():
    tri = small_graph(0, acyclic=False)
    rejects(checks.parse_bfs_output, "1@1\t0\n1@1\t0\n", tri)


def enumerate_paths(x: checks.Expansion, src: int, dst: int, hops: int) -> int:
    if hops == 0:
        return int(src == dst)
    return sum(enumerate_paths(x, y, dst, hops - 1) for y in x.succ.get(src, ()))


@pytest.mark.parametrize("seed", range(3))
def test_path_counts_and_nilpotency(seed):
    tri = small_graph(seed, acyclic=True)
    g = program_graph(tri)
    x = checks.Expansion(tri)
    index = algebra.nilpotency_index(g)
    checks.check_nilpotency(x, index)
    rejects(checks.check_nilpotency, x, index + 1)
    rejects(checks.check_nilpotency, x, None)

    key = lambda c: (tri.keys[c % tri.n], tri.labels[c // tri.n])  # noqa: E731
    src, dst = x.nodes[0], x.nodes[-1]
    for hops in range(1, 2 * index + 1):
        want = enumerate_paths(x, src, dst, hops)
        assert x.count(src, dst, hops) == want
        got = algebra.count_temporal_paths(g, key(src), key(dst), hops)
        checks.check_count(x, src, dst, hops, got)
        rejects(checks.check_count, x, src, dst, hops, got + 1)


def test_nilpotency_of_cyclic_slices():
    tri = inputs.Triples([0, 1], [1], np.array([0, 1]), np.array([1, 0]), np.array([0, 0]))
    x = checks.Expansion(tri)
    assert x.longest_path() is None
    checks.check_nilpotency(x, algebra.nilpotency_index(program_graph(tri)))
    rejects(checks.check_nilpotency, x, 3)


def test_citation_oracle(tmp_path):
    data = inputs.generate("citations", 3, str(tmp_path))
    tri = data.triples[0]
    g, _ = citenet.load_citations(data.files[0])
    oracle = checks.CitationOracle(tri)
    rng = inputs.rng_for(3, 5)
    checked = 0
    for t in range(tri.T):
        v = int(rng.choice(tri.active_roots(t)))
        author, year = tri.keys[v], tri.labels[t]
        rep = citenet.community_report(g, author, year)
        oracle.check_report(author, year, rep)
        if not rep.community or not rep.entries:
            continue
        checked += 1
        member = sorted(rep.community)[0]
        outsider = next(k for k in tri.keys if k not in rep.community)
        entry = sorted(rep.entries)[0]
        for community, entries in (
            (rep.community - {member}, rep.entries),       # one member dropped
            (rep.community | {outsider}, rep.entries),     # one stranger added
            (rep.community, {**rep.entries, entry: rep.entries[entry] + 1}),
        ):
            bad = citenet.InfluenceReport(author, year, rep.orientation,
                                          entries, community)
            rejects(oracle.check_report, author, year, bad)
    assert checked >= 5


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
