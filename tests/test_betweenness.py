"""SURVEY.md A.15 Brandes betweenness: exact vs networkx across fixtures
(both scalings), deterministic pivot sampling vs a local Brandes replay,
batching invariance, and exact-integer shortest-path counts."""

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from graphx_ray.ids import mix64
from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()


def _nx_graph(edges, verts):
    G = nx.Graph()
    G.add_nodes_from(int(v) for v in verts)
    G.add_edges_from(
        (int(a), int(b)) for a, b in zip(edges["src"], edges["dst"]) if a != b
    )
    return G


def make_graph(name, **kw):
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    return Graph(edges, vdf, num_parts=3, **kw)


@pytest.mark.parametrize("name", list(FIX.keys()))
@pytest.mark.parametrize("normalized", [False, True])
def test_betweenness_matches_networkx(name, normalized):
    edges, verts = FIX[name]
    G = _nx_graph(edges, verts)
    g = make_graph(name)
    try:
        got = g.betweenness_centrality(
            batch=3, normalized=normalized, as_table=True
        ).to_pandas()
    finally:
        g.close()
    want = nx.betweenness_centrality(G, normalized=normalized)
    gd = dict(zip(got["vid"].astype(int), got["betweenness"]))
    assert set(gd) == set(want)
    for v in want:
        assert abs(gd[v] - want[v]) < 1e-9, (v, gd[v], want[v])


def test_betweenness_batching_invariant_and_dataset_mode():
    edges, verts = FIX["random_multi"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    outs = []
    for parts, batch in ((2, 1), (5, 16)):
        g = Graph(edges, vdf, num_parts=parts)
        try:
            outs.append(
                g.betweenness_centrality(batch=batch)
                .to_pandas()
                .sort_values("vid")
                .reset_index(drop=True)
            )
        finally:
            g.close()
    pd.testing.assert_frame_equal(outs[0], outs[1], atol=1e-12, rtol=0)


def test_betweenness_sampled_pivots_match_local_brandes():
    import networkx.algorithms.centrality.betweenness as nxb

    edges, verts = FIX["random_multi"]
    G = _nx_graph(edges, verts)
    k, seed = 4, 7
    h = mix64(np.uint64(seed) ^ verts.astype(np.uint64))
    piv = [int(x) for x in verts[np.argsort(h, kind="stable")[:k]]]
    g = make_graph("random_multi")
    try:
        got = g.betweenness_centrality(k=k, seed=seed, batch=2, as_table=True).to_pandas()
    finally:
        g.close()
    acc = dict.fromkeys(G, 0.0)
    for s in piv:
        S, P, sigma, _ = nxb._single_source_shortest_path_basic(G, s)
        acc, _ = nxb._accumulate_basic(acc, S, P, sigma, s)
    scale = 0.5 * len(verts) / k
    gd = dict(zip(got["vid"].astype(int), got["betweenness"]))
    for v in acc:
        assert abs(gd[v] - acc[v] * scale) < 1e-9


@pytest.mark.parametrize("name", ["two_cliques_bridge", "random_multi", "isolated"])
def test_path_counts_match_networkx(name):
    edges, verts = FIX[name]
    G = _nx_graph(edges, verts)
    src = int(verts.min())
    g = make_graph(name)
    try:
        got = g.shortest_path_counts(src, as_table=True).to_pandas()
    finally:
        g.close()
    dist = nx.single_source_shortest_path_length(G, src)
    # σ oracle: level-DP over the BFS DAG
    sigma = {src: 1}
    for v in sorted(dist, key=dist.get):
        if v == src:
            continue
        sigma[v] = sum(
            sigma[u] for u in G.neighbors(v) if dist.get(u, -2) == dist[v] - 1
        )
    gd = got.set_index("vid")
    for v in map(int, verts):
        if v in dist:
            assert gd.loc[v, "dist"] == dist[v]
            assert gd.loc[v, "sigma"] == sigma[v]
        else:
            assert gd.loc[v, "dist"] == -1 and gd.loc[v, "sigma"] == 0


def _bc_fixed_replay(G, pivots, scale, max_depth):
    """Pure-python replay of the pinned integer contract:
    δ(v) = σ(v) · Σ_{w succ} (scale + δ(w)) // σ(w), pivot row excluded."""
    acc = {int(v): 0 for v in G}
    for s in pivots:
        dist = {s: 0}
        frontier = [s]
        d = 0
        while frontier and d < max_depth:
            nxt = []
            for u in frontier:
                for w in G.neighbors(u):
                    if w not in dist:
                        dist[w] = d + 1
                        nxt.append(w)
            frontier = nxt
            d += 1
        dmax = max(dist.values())
        sigma = {s: 1}
        for v in sorted(dist, key=dist.get):
            if v == s:
                continue
            sigma[v] = sum(
                sigma[u] for u in G.neighbors(v) if dist.get(u, -2) == dist[v] - 1
            )
        delta = dict.fromkeys(dist, 0)
        for dd in range(dmax, 0, -1):
            for v in dist:
                if dist[v] != dd - 1:
                    continue
                delta[v] = sigma[v] * sum(
                    (scale + delta[w]) // sigma[w]
                    for w in G.neighbors(v)
                    if dist.get(w, -2) == dd
                )
        for v, dv in delta.items():
            if v != s:
                acc[int(v)] += dv
    return acc


@pytest.mark.parametrize("name", ["two_cliques_bridge", "random_multi", "isolated"])
def test_betweenness_fixed_matches_replay(name):
    edges, verts = FIX[name]
    G = _nx_graph(edges, verts)
    pivots = [int(verts.min()), int(verts.max())]
    scale = 10**12
    g = make_graph(name)
    try:
        got = g.betweenness_fixed(
            pivots, max_depth=8, scale=scale, batch=1, as_table=True
        ).to_pandas()
    finally:
        g.close()
    want = _bc_fixed_replay(G, pivots, scale, 8)
    gd = dict(zip(got["vid"].astype(int), got["bc_fixed"].astype(int)))
    assert gd == want


def test_betweenness_fixed_tracks_float_and_batches():
    edges, verts = FIX["random_multi"]
    G = _nx_graph(edges, verts)
    pivots = [int(v) for v in verts]
    scale = 10**12
    outs = []
    for parts, batch in ((2, 3), (4, 16)):
        vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
        g = Graph(edges, vdf, num_parts=parts)
        try:
            outs.append(
                g.betweenness_fixed(pivots, scale=scale, batch=batch)
                .to_pandas().sort_values("vid").reset_index(drop=True)
            )
        finally:
            g.close()
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # all-pivots fixed-point ≈ 2·scale·unnormalized float betweenness
    want = nx.betweenness_centrality(G, normalized=False)
    gd = dict(zip(outs[0]["vid"].astype(int), outs[0]["bc_fixed"].astype(int)))
    n = len(verts)
    for v, bw in want.items():
        approx = gd[v] / (2.0 * scale)
        # each floor loses < 1 per edge message; depth ≤ 8 compounds via σ
        assert abs(approx - bw) <= 1e-3 * n + 1e-9, (v, approx, bw)


def test_salted_hub_brandes_equals_unsalted_and_networkx():
    """star_hub's hub (degree 200) split at salt_threshold=50: the Brandes
    family syncs the hubs' (dist, σ, δ) rows, so betweenness, its
    fixed-point form and the path counts equal the unsalted run and the
    oracles."""
    edges, verts = FIX["star_hub"]
    G = _nx_graph(edges, verts)
    pivots = [0, 1, 200]
    scale = 10**12
    runs = {}
    for salt in (None, 50):
        g = make_graph("star_hub", salt_threshold=salt)
        try:
            assert bool(g._pool("undirected")[1]["hubs"]) == (salt is not None)
            runs[salt] = [
                g.betweenness_centrality(batch=16, as_table=True).to_pandas(),
                g.betweenness_fixed(pivots, scale=scale, batch=2, as_table=True).to_pandas(),
                g.shortest_path_counts(1, as_table=True).to_pandas(),
            ]
        finally:
            g.close()
    for plain, salted in zip(runs[None], runs[50]):
        pd.testing.assert_frame_equal(
            salted.sort_values("vid").reset_index(drop=True),
            plain.sort_values("vid").reset_index(drop=True),
        )
    bc, fixed, counts = runs[50]
    want = nx.betweenness_centrality(G, normalized=False)
    gd = dict(zip(bc["vid"].astype(int), bc["betweenness"]))
    assert set(gd) == set(want)
    for v in want:
        assert abs(gd[v] - want[v]) < 1e-9, (v, gd[v], want[v])
    assert dict(zip(fixed["vid"].astype(int), fixed["bc_fixed"].astype(int))) == (
        _bc_fixed_replay(G, pivots, scale, 8)
    )
    # from leaf 1: the hub at 1 hop, every other leaf at 2 by one path
    c = counts.set_index("vid")
    assert c.loc[1, "dist"] == 0 and c.loc[0, "dist"] == 1
    assert (c.drop([0, 1])["dist"] == 2).all() and (c["sigma"] == 1).all()
