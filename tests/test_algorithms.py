import numpy as np
import pandas as pd
import pytest

from graphx_ray.pipelines.graph import Graph
from oracles import cc_oracle, fixture_graphs, lpa_oracle, pagerank_oracle

FIX = fixture_graphs()


def make_graph(name, **kw):
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    return Graph(edges, vdf, num_parts=3, **kw)


def ranks_df(tbl) -> pd.DataFrame:
    return tbl.to_pandas().sort_values("vid").reset_index(drop=True)


@pytest.mark.parametrize("name", list(FIX.keys()))
def test_pagerank_matches_oracle(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = ranks_df(g.pagerank(max_iter=10))
    finally:
        g.close()
    want = pagerank_oracle(edges, verts, max_iter=10).sort_values("vid").reset_index(drop=True)
    assert np.array_equal(got["vid"].to_numpy(), want["vid"].to_numpy())
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("name", list(FIX.keys()))
def test_cc_matches_oracle(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = ranks_df(g.connected_components())
    finally:
        g.close()
    want = cc_oracle(edges, verts)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("name", list(FIX.keys()))
def test_lpa_matches_oracle(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = ranks_df(g.label_propagation(max_iter=4))
    finally:
        g.close()
    want = lpa_oracle(edges, verts, max_iter=4).sort_values("vid").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_salted_hub_split_matches_unsalted():
    """star_hub with a low salt threshold must give identical results."""
    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    g = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        man = g._stage("directed")
        assert man["hubs"] == [0]  # the hub got salted
        pr = ranks_df(g.pagerank(max_iter=8))
        cc = ranks_df(g.connected_components())
    finally:
        g.close()
    want_pr = pagerank_oracle(edges, verts, max_iter=8).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(pr["rank"], want_pr["rank"], rtol=1e-6, atol=1e-6)
    want_cc = cc_oracle(edges, verts)
    pd.testing.assert_frame_equal(cc, want_cc, check_dtype=False)


def test_dangling_and_no_inedge_semantics():
    """A.1 traps: leaves of the star are dangling (rank flows in, none out);
    the hub has no in-edges so it converges to α."""
    edges, verts = FIX["star_hub"]
    g = make_graph("star_hub")
    try:
        got = ranks_df(g.pagerank(max_iter=10))
    finally:
        g.close()
    hub = got[got.vid == 0]["rank"].iloc[0]
    assert abs(hub - 0.15) < 1e-9
    # total mass < N (dangling leak, NO normalization)
    assert got["rank"].sum() < len(verts)


def test_pagerank_tol_early_stop():
    edges, verts = FIX["ring_n"]
    g = make_graph("ring_n")
    try:
        got = ranks_df(g.pagerank(max_iter=100, tol=1e-12))
    finally:
        g.close()
    # ring fixed point: uniform 1.0
    np.testing.assert_allclose(got["rank"], 1.0, atol=1e-9)


def _route_run(name, route, salt) -> dict:
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    lo, hi = int(verts.min()), int(verts.max())
    g = Graph(edges, vdf, num_parts=3, scatter_route=route, salt_threshold=salt)
    try:
        return {
            "pr": ranks_df(g.pagerank(max_iter=8)),
            "cc": ranks_df(g.connected_components()),
            "lpa": ranks_df(g.label_propagation(max_iter=4)),
            "bfs": g.bfs(lo).to_pandas().sort_values("vid").reset_index(drop=True),
            "lpa_seeded": ranks_df(g.label_propagation_seeded([lo, hi], [0, 1], max_iter=4)),
            "ppr": ranks_df(g.personalized_pagerank(lo, max_iter=8)),
            "sp": ranks_df(g.shortest_paths([lo, hi])),
            "sssp": ranks_df(g.sssp_weighted(lo)),
        }
    finally:
        g.close()


# salt_threshold=50 splits star_hub's hub (out-degree 200); the salted runs
# also dispatch one superstep per window, the unsalted ones up to four
@pytest.mark.parametrize(
    "name,salt",
    [("two_cliques_bridge", None), ("star_hub", None),
     ("two_cliques_bridge", 50), ("star_hub", 50)],
    ids=["two_cliques_bridge", "star_hub", "two_cliques_bridge-salted", "star_hub-salted"],
)
def test_per_dest_scatter_route_bit_identical(name, salt):
    """scatter_route='per_dest' (multi-node routing: one object per
    destination, num_returns=P) must produce BIT-identical results to the
    packed single-node default — same partials, same merge order. Salted
    hubs change nothing either: label and distance results stay exact,
    ranks stay within the oracle tolerance."""
    res = {route: _route_run(name, route, salt) for route in ("packed", "per_dest")}
    for k in res["packed"]:
        pd.testing.assert_frame_equal(res["packed"][k], res["per_dest"][k])
    if salt is None:
        return
    plain = _route_run(name, "packed", None)
    for k, want in plain.items():
        got = res["packed"][k]
        if k in ("pr", "ppr"):
            assert np.array_equal(got["vid"], want["vid"])
            np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-6, atol=1e-6)
        else:
            pd.testing.assert_frame_equal(got, want)


def test_per_dest_route_scc_trim_identical():
    """SCC (with the trim phase) also bit-identical across scatter routes."""
    rng = np.random.default_rng(9)
    edges = pd.DataFrame({"src": rng.integers(0, 40, 200), "dst": rng.integers(0, 40, 200)})
    edges = edges[edges.src != edges.dst].reset_index(drop=True)
    verts = pd.DataFrame({"vid": np.arange(40, dtype=np.int64)})
    res = {}
    for route in ("packed", "per_dest"):
        g = Graph(edges, verts, num_parts=3, scatter_route=route)
        try:
            res[route] = (
                g.strongly_connected_components()
                .to_pandas().sort_values("vid").reset_index(drop=True)
            )
        finally:
            g.close()
    pd.testing.assert_frame_equal(res["packed"], res["per_dest"])


def test_dataset_default_no_driver_concat(monkeypatch):
    """Every algorithm's DEFAULT return is a Dataset and the default path
    never assembles an O(V) driver table (VERDICT r3 #2): pa.concat_tables
    is poisoned inside the graph module for the duration; as_table=True
    remains the explicit opt-in."""
    import pyarrow as real_pa
    from ray.data import Dataset

    import graphx_ray.pipelines.graph as gmod

    class NoConcat:
        def __getattr__(self, name):
            if name == "concat_tables":
                raise AssertionError("O(V) driver concat on the default path")
            return getattr(real_pa, name)

    monkeypatch.setattr(gmod, "pa", NoConcat())
    edges, verts = FIX["two_cliques_bridge"]
    src = int(verts.min())
    g = make_graph("two_cliques_bridge")
    try:
        results = {
            "pagerank": g.pagerank(max_iter=2),
            "cc": g.connected_components(),
            "lpa": g.label_propagation(max_iter=2),
            "tol": g.pagerank_tol(1e-2),
            "ppr": g.personalized_pagerank(src, max_iter=2),
            "ppr_multi": g.parallel_personalized_pagerank([src], max_iter=2),
            "pregel": g.pregel(
                init=lambda v: v.astype(np.int64),
                send_msg=lambda v, w, od: v,
                vprog=lambda old, msg, got: np.maximum(old, msg),
                merge="max", halt="all", max_iter=2,
            ),
            "bfs": g.bfs(src, max_iter=3),
            "scc": g.strongly_connected_components(max_rounds=20),
            "aggmsg": g.aggregate_messages(lambda sv, w: sv, agg="min"),
            "sp": g.shortest_paths([src], max_iter=3),
            "sssp": g.sssp_weighted(src, max_iter=3),
        }
    finally:
        g.close()
    nv = len(verts)
    for name, res in results.items():
        assert isinstance(res, Dataset), name
        n = res.count()
        assert 0 < n <= nv, (name, n)
    # opt-in table path still exists for small graphs (un-poison first)
    monkeypatch.setattr(gmod, "pa", real_pa)
    g2 = make_graph("two_cliques_bridge")
    try:
        t = g2.pagerank(max_iter=2, as_table=True)
    finally:
        g2.close()
    assert isinstance(t, real_pa.Table) and t.num_rows == nv
