"""G2 dynamic tol-PageRank, personalized PageRank, BFS(+parents), SCC —
each against its pinned single-process oracle (tests/oracles.py)."""

import numpy as np
import pandas as pd
import pytest

from graphx_ray.pipelines.graph import Graph
from oracles import (
    bfs_oracle,
    fixture_graphs,
    pagerank_oracle,
    pagerank_tol_oracle,
    ppr_oracle,
    scc_oracle,
)

FIX = fixture_graphs()


def make_graph(name, **kw):
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    return Graph(edges, vdf, num_parts=3, **kw)


def by_vid(tbl) -> pd.DataFrame:
    return tbl.to_pandas().sort_values("vid").reset_index(drop=True)


@pytest.mark.parametrize("name", list(FIX.keys()))
def test_pagerank_tol_matches_oracle(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = by_vid(g.pagerank_tol(1e-3))
    finally:
        g.close()
    want = pagerank_tol_oracle(edges, verts, tol=1e-3).sort_values("vid").reset_index(drop=True)
    assert np.array_equal(got["vid"].to_numpy(), want["vid"].to_numpy())
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-9, atol=1e-12)


def test_pagerank_tol_approaches_static_fixpoint():
    """As tol → 0 the dynamic ranks converge to the static fixpoint."""
    edges, verts = FIX["random_multi"]
    g = make_graph("random_multi")
    try:
        dyn = by_vid(g.pagerank_tol(1e-10))
    finally:
        g.close()
    static = pagerank_oracle(edges, verts, max_iter=200).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(dyn["rank"], static["rank"], rtol=1e-5, atol=1e-6)


def test_pagerank_tol_salted_hub():
    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    g = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        got = by_vid(g.pagerank_tol(1e-4))
    finally:
        g.close()
    want = pagerank_tol_oracle(edges, verts, tol=1e-4).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "random_multi", "parallel_self"])
def test_personalized_pagerank_matches_oracle(name):
    edges, verts = FIX[name]
    source = int(np.asarray(verts)[0])
    g = make_graph(name)
    try:
        got = by_vid(g.personalized_pagerank(source, max_iter=8))
    finally:
        g.close()
    want = ppr_oracle(edges, verts, source, max_iter=8).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "isolated", "random_multi", "star_hub"])
def test_bfs_matches_oracle(name):
    edges, verts = FIX[name]
    source = int(np.asarray(verts)[0])
    g = make_graph(name)
    try:
        got = by_vid(g.bfs(source))
    finally:
        g.close()
    want = bfs_oracle(edges, verts, source)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pagerank_float32_option():
    """pr32 throughput mode: same ranks to ~1e-4 (opt-in; the 1e-6 gate
    stays on the float64 default)."""
    edges, verts = FIX["random_multi"]
    g = make_graph("random_multi")
    try:
        got = by_vid(g.pagerank(max_iter=10, dtype="float32"))
    finally:
        g.close()
    want = pagerank_oracle(edges, verts, max_iter=10).sort_values("vid").reset_index(drop=True)
    assert got["rank"].dtype == np.float32
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-4, atol=1e-4)


def test_scc_cycle_and_dag():
    """A 4-cycle, a 2-cycle, a DAG tail and an isolated vertex."""
    edges = pd.DataFrame(
        {
            "src": [0, 1, 2, 3, 10, 11, 3, 4, 5],
            "dst": [1, 2, 3, 0, 11, 10, 4, 5, 6],
            "w": 1,
        }
    )
    verts = np.array([0, 1, 2, 3, 4, 5, 6, 10, 11, 99])
    g = Graph(edges, pd.DataFrame({"vid": verts}), num_parts=3)
    try:
        got = by_vid(g.strongly_connected_components())
    finally:
        g.close()
    want = scc_oracle(edges, verts)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scc_random_matches_networkx(seed):
    rng = np.random.default_rng(seed)
    n, m = 40, 120
    edges = pd.DataFrame(
        {"src": rng.integers(0, n, m), "dst": rng.integers(0, n, m), "w": 1}
    )
    verts = np.arange(n)
    g = Graph(edges, pd.DataFrame({"vid": verts}), num_parts=3)
    try:
        got = by_vid(g.strongly_connected_components())
    finally:
        g.close()
    want = scc_oracle(edges, verts)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_scc_trim_path_graph_and_equivalence(ray_session):
    """FW-BW-Trim: a 120-vertex path (all singleton SCCs) must resolve in
    a handful of outer rounds (trim peels both ends each superstep)
    instead of one coloring fixpoint per SCC; results equal the
    trim=False path and networkx."""
    import networkx as nx
    import pandas as pd

    from graphx_ray.pipelines.graph import Graph

    n = 120
    edges = pd.DataFrame({"src": np.arange(n - 1), "dst": np.arange(1, n)})
    verts = pd.DataFrame({"vid": np.arange(n, dtype=np.int64)})

    g = Graph(edges, verts, num_parts=3)
    try:
        # trim collapses the whole DAG: generous bound far below n rounds
        got = (
            g.strongly_connected_components(max_rounds=80)
            .to_pandas().sort_values("vid").reset_index(drop=True)
        )
    finally:
        g.close()
    assert (got["component"] == got["vid"]).all()  # every vertex its own SCC

    # equivalence on a mixed graph (cycles + tails), trim on vs off
    rng = np.random.default_rng(4)
    e2 = pd.DataFrame({"src": rng.integers(0, 50, 300), "dst": rng.integers(0, 50, 300)})
    e2 = e2[e2.src != e2.dst].reset_index(drop=True)
    v2 = pd.DataFrame({"vid": np.arange(50, dtype=np.int64)})
    res = {}
    for tr in (True, False):
        g = Graph(e2, v2, num_parts=3)
        try:
            res[tr] = (
                g.strongly_connected_components(trim=tr)
                .to_pandas().sort_values("vid").reset_index(drop=True)
            )
        finally:
            g.close()
    pd.testing.assert_frame_equal(res[True], res[False])


# ------------------------------------------------------------------- HITS


@pytest.mark.parametrize("name", list(FIX.keys()))
def test_hits_matches_oracle(name):
    from oracles import hits_oracle

    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = by_vid(g.hits(max_iter=8))
    finally:
        g.close()
    want = hits_oracle(edges, verts, max_iter=8).sort_values("vid").reset_index(drop=True)
    assert np.array_equal(got["vid"].to_numpy(), want["vid"].to_numpy())
    np.testing.assert_allclose(got["hub"], want["hub"], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got["auth"], want["auth"], rtol=1e-9, atol=1e-12)


def test_hits_salted_hub_and_raw_exact():
    from oracles import hits_oracle

    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    g = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        got = by_vid(g.hits(max_iter=6))
        raw = by_vid(g.hits(max_iter=4, normalize=False))
    finally:
        g.close()
    want = hits_oracle(edges, verts, max_iter=6).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(got["hub"], want["hub"], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got["auth"], want["auth"], rtol=1e-9, atol=1e-12)
    # raw mode: integer-valued scores, BIT-exact (float64 sums of ints < 2^53)
    wraw = hits_oracle(edges, verts, max_iter=4, normalize=False).sort_values("vid").reset_index(drop=True)
    assert np.array_equal(raw["hub"].to_numpy(), wraw["hub"].to_numpy())
    assert np.array_equal(raw["auth"].to_numpy(), wraw["auth"].to_numpy())
    assert (raw["hub"].to_numpy() == raw["hub"].to_numpy().astype(np.int64)).all()


# --------------------------------------------------------- random walks


def _walks_oracle(edges, verts, wpv, length, seed):
    from graphx_ray.ids import mix64

    adj = (
        edges.groupby(["src", "dst"], as_index=False)["w"].sum()
        .sort_values(["src", "dst"], kind="mergesort")
    )
    nbrs = {}
    for s, g in adj.groupby("src"):
        cw = g["w"].to_numpy(np.uint64).cumsum()
        nbrs[s] = (g["dst"].to_numpy(np.int64), cw)
    rows = []
    for v in np.asarray(verts, np.int64):
        for r in range(wpv):
            base = mix64(mix64(np.uint64(seed) ^ np.uint64(v)) ^ np.uint64(r))
            cur = int(v)
            rows.append((int(v), r, 0, cur))
            for t in range(1, length + 1):
                if cur not in nbrs:
                    break
                dsts, cw = nbrs[cur]
                with np.errstate(over="ignore"):
                    h = mix64(base + np.uint64(t))
                idx = np.uint64(h) % np.uint64(cw[-1])
                cur = int(dsts[np.searchsorted(cw, idx, side="right")])
                rows.append((int(v), r, t, cur))
    return pd.DataFrame(rows, columns=["start_vid", "walk", "step", "vid"])


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "random_multi", "parallel_self", "star_hub", "isolated"])
def test_random_walks_match_oracle(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = g.random_walks(walks_per_vertex=2, length=5, seed=11).to_pandas()
    finally:
        g.close()
    want = _walks_oracle(edges, verts, 2, 5, 11)
    key = ["start_vid", "walk", "step", "vid"]
    got = got.sort_values(key).reset_index(drop=True)[key]
    want = want.sort_values(key).reset_index(drop=True)[key]
    pd.testing.assert_frame_equal(got, want)


def test_random_walks_parallelism_invariant():
    edges, verts = FIX["random_multi"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    outs = []
    for P in (1, 4):
        g = Graph(edges, vdf, num_parts=P)
        try:
            df = g.random_walks(walks_per_vertex=1, length=6, seed=3).to_pandas()
        finally:
            g.close()
        outs.append(
            df.sort_values(["start_vid", "walk", "step"]).reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])


# ----------------------------------------------------------------------- MIS


def _mis_oracle(edges, verts, seed, max_rounds=100):
    from graphx_ray.ids import mix64

    canon = set()
    for s, d in zip(edges["src"], edges["dst"]):
        if s != d:
            canon.add((min(s, d), max(s, d)))
    nbrs = {int(v): set() for v in verts}
    for u, v in canon:
        nbrs[u].add(v)
        nbrs[v].add(u)
    status = {int(v): 0 for v in verts}
    for r in range(max_rounds):
        c = mix64(np.uint64(seed) ^ np.uint64(r))
        p = {v: (int(mix64(np.uint64(c) ^ np.uint64(v))) >> 3) + 1
             for v in status if status[v] == 0}
        joined = [
            v for v in p
            if all(p[u] < p[v] for u in nbrs[v] if status[u] == 0)
        ]
        for v in joined:
            status[v] = 1
        for v in joined:
            for u in nbrs[v]:
                if status[u] == 0:
                    status[u] = 2
        if all(s != 0 for s in status.values()):
            break
    return {v: int(s == 1) for v, s in status.items()}


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "random_multi", "star_hub", "isolated", "parallel_self"])
def test_mis_matches_oracle_and_is_valid(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = g.maximal_independent_set(seed=5).to_pandas()
    finally:
        g.close()
    want = _mis_oracle(edges, verts, 5)
    assert dict(zip(got["vid"].astype(int), got["in_mis"].astype(int))) == want
    # independence + maximality against the canonical simple graph
    mis = {v for v, m in want.items() if m}
    canon = set()
    for s, d in zip(edges["src"], edges["dst"]):
        if s != d:
            canon.add((min(s, d), max(s, d)))
    assert not any(u in mis and v in mis for u, v in canon)
    nbrs = {}
    for u, v in canon:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    for v in np.asarray(verts, np.int64):
        v = int(v)
        if v not in mis:
            assert mis & nbrs.get(v, set()), f"{v} could be added — not maximal"


def test_mis_salted_hub():
    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    g = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        got = g.maximal_independent_set(seed=5).to_pandas()
    finally:
        g.close()
    want = _mis_oracle(edges, verts, 5)
    assert dict(zip(got["vid"].astype(int), got["in_mis"].astype(int))) == want
