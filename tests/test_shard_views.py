"""Edge views derived inside the shard hosts (state/csr.py ``ShardHost``):
every view of a Graph lives on the same P host actors, only the directed
edges are staged, and each derived view's per-part edges and salted hubs
equal a pandas oracle of flip, symmetrize-with-w and canonical dedup."""

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data as rd

from graphx_ray.ids import part_of
from graphx_ray.pipelines import graph as gm
from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()
P = 3


def view_oracle(edges: pd.DataFrame, view: str) -> pd.DataFrame:
    """The view's directed edge list, computed from the input edges."""
    e = pd.DataFrame({"src": edges["src"].astype(np.int64),
                      "dst": edges["dst"].astype(np.int64),
                      "w": edges["w"].astype(np.float64)})
    flipped = e.rename(columns={"src": "dst", "dst": "src"})
    if view == "directed":
        return e
    if view == "reversed":
        return flipped[["src", "dst", "w"]]
    if view == "undirected_weighted":
        return pd.concat([e, flipped[["src", "dst", "w"]]], ignore_index=True)
    u = np.minimum(e["src"], e["dst"])
    v = np.maximum(e["src"], e["dst"])
    pairs = pd.DataFrame({"u": u, "v": v})[u != v].drop_duplicates()
    return pd.DataFrame({
        "src": np.concatenate([pairs["u"], pairs["v"]]),
        "dst": np.concatenate([pairs["v"], pairs["u"]]),
        "w": np.ones(2 * len(pairs)),
    })


def hubs_oracle(ve: pd.DataFrame, threshold) -> list:
    if threshold is None:
        return []
    deg = ve.groupby("src")["w"].sum()
    return sorted(int(v) for v in deg.index[deg > threshold])


def parts_oracle(ve: pd.DataFrame, hubs: list) -> list:
    """Per part, the edges in storage order: a hub's out-edges live with
    the owner of their destination, every other edge with the owner of
    its source; each part sorted by (dst part, dst, src, w)."""
    src, dst, w = (ve[c].to_numpy() for c in ("src", "dst", "w"))
    part = np.where(np.isin(src, hubs), part_of(dst, P), part_of(src, P))
    out = []
    for p in range(P):
        m = part == p
        s, d, x = src[m], dst[m], w[m]
        order = np.lexsort((x, s, d, part_of(d, P)))
        out.append((s[order], d[order], x[order]))
    return out


CASES = [("parallel_self", None), ("random_multi", None), ("star_hub", None),
         ("star_hub", 50)]


@pytest.mark.parametrize("name,threshold", CASES)
def test_views_match_pandas_oracle(name, threshold):
    edges, verts = FIX[name]
    g = Graph(edges, pd.DataFrame({"vid": verts.astype(np.int64)}),
              num_parts=P, salt_threshold=threshold)
    try:
        for view in ("directed", "reversed", "undirected_weighted", "undirected"):
            actors, man = g._pool(view)
            ve = view_oracle(edges, view)
            hubs = hubs_oracle(ve, threshold)
            assert man["hubs"] == hubs, (view, man["hubs"])
            got = ray.get([a.edges.remote() for a in actors])
            for p, (want, have) in enumerate(zip(parts_oracle(ve, hubs), got)):
                for col, a, b in zip("src dst w".split(), want, have):
                    assert np.array_equal(a, b), (view, p, col)
        if threshold is not None:  # the star's centre is a hub in every view but reversed
            assert g._actors["undirected"][1]["hubs"] == [0]
    finally:
        g.close()


def test_graph_holds_one_host_per_part(monkeypatch):
    """PageRank, CC, LPA and SCC use four views of one Graph: one
    ``stage_graph`` call stages them all, all of them live on the same P
    hosts, and closing parks exactly those."""
    from graphx_ray.state import csr

    staged = []
    stage = csr.stage_graph

    def counted(*args, **kwargs):
        staged.append(args)
        return stage(*args, **kwargs)

    monkeypatch.setattr(csr, "stage_graph", counted)
    edges, verts = FIX["random_multi"]
    gm._IDLE.clear()
    g = Graph(edges, pd.DataFrame({"vid": verts.astype(np.int64)}), num_parts=P)
    try:
        g.pagerank(max_iter=3).to_pandas()
        g.connected_components().to_pandas()
        g.label_propagation(max_iter=2).to_pandas()
        g.strongly_connected_components().to_pandas()
        assert set(g._actors) == {"directed", "undirected", "undirected_weighted", "reversed"}
        assert len(staged) == 1
        held = {id(v.host) for views, _ in g._actors.values() for v in views}
        hosts = list(g._hosts)
        assert held == set(map(id, hosts)) and len(held) == P
    finally:
        g.close()
    assert sorted(map(id, gm._idle_shards())) == sorted(map(id, hosts))


def test_pipelines_reuse_idle_hosts():
    """SVD++ (float and fixed-point) and the truss fixpoint load their
    shards onto idle hosts: back-to-back calls start no new actor."""
    from graphx_ray.pipelines.svdpp import svdpp, svdpp_fixed
    from graphx_ray.stages.structural import trussness

    rng = np.random.default_rng(5)
    ratings = pd.DataFrame({
        "src": rng.integers(0, 30, 300).astype(np.int64),
        "dst": (rng.integers(0, 20, 300) + 1_000).astype(np.int64),
        "r": rng.integers(1, 6, 300).astype(np.float64),
    })
    clique = pd.DataFrame([(u, v, 1) for u in range(6) for v in range(u + 1, 6)],
                          columns=["src", "dst", "w"])

    def calls():
        svdpp(rd.from_pandas(ratings), rank=2, max_iters=1, num_parts=P)[0].to_pandas()
        svdpp_fixed(rd.from_pandas(ratings), rank=2, max_iters=1, num_parts=P).to_pandas()
        return trussness(rd.from_pandas(clique), num_partitions=P).to_pandas()

    gm._IDLE.clear()
    first = calls()
    idle = list(gm._idle_shards())
    assert len(idle) == P
    second = calls()
    assert sorted(map(id, gm._idle_shards())) == sorted(map(id, idle))
    pd.testing.assert_frame_equal(
        first.sort_values(["u", "v"]).reset_index(drop=True),
        second.sort_values(["u", "v"]).reset_index(drop=True),
    )
