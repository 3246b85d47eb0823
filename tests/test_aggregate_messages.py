import numpy as np
import pandas as pd
import pytest

from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()


def test_aggregate_messages_sum_matches_weighted_indegree_of_src_vals():
    """msg = src_val * w summed at dst == Σ over in-edges of value(src)·w."""
    edges, verts = FIX["parallel_self"]
    vals = pd.DataFrame({"vid": verts.astype(np.int64), "value": (verts * 10).astype(np.int64)})
    g = Graph(edges, pd.DataFrame({"vid": verts.astype(np.int64)}), num_parts=3)
    try:
        got = (
            g.aggregate_messages(lambda sv, w: sv * w.astype(np.int64), agg="sum",
                                 vertex_values=vals)
            .to_pandas()
            .sort_values("vid")
            .reset_index(drop=True)
        )
    finally:
        g.close()
    want = (
        edges.assign(m=edges["src"] * 10 * edges["w"])
        .groupby("dst")["m"]
        .sum()
        .rename_axis("vid")
        .rename("agg_value")
        .reset_index()
    )
    pd.testing.assert_frame_equal(got, want.astype({"vid": "int64"}), check_dtype=False)


def test_aggregate_messages_min_default_values():
    """default values = vid; min-aggregate at dst = min src vid over in-edges."""
    edges, verts = FIX["two_cliques_bridge"]
    g = Graph(edges, pd.DataFrame({"vid": verts.astype(np.int64)}), num_parts=2)
    try:
        got = (
            g.aggregate_messages(lambda sv, w: sv, agg="min")
            .to_pandas()
            .sort_values("vid")
            .reset_index(drop=True)
        )
    finally:
        g.close()
    want = (
        edges.groupby("dst")["src"].min().rename_axis("vid").rename("agg_value").reset_index()
    )
    pd.testing.assert_frame_equal(got, want.astype("int64"), check_dtype=False)


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "isolated"])
def test_shortest_paths_vs_networkx(name):
    import networkx as nx

    edges, verts = FIX[name]
    gx = nx.Graph()
    gx.add_nodes_from(verts.tolist())
    gx.add_edges_from(
        (int(a), int(b)) for a, b in zip(edges["src"], edges["dst"]) if a != b
    )
    landmarks = [int(verts[0]), int(verts[-1])]
    g = Graph(edges, pd.DataFrame({"vid": verts.astype(np.int64)}), num_parts=3)
    try:
        got = g.shortest_paths(landmarks).to_pandas().sort_values("vid").reset_index(drop=True)
    finally:
        g.close()
    for lm in landmarks:
        dist = nx.single_source_shortest_path_length(gx, lm)
        want = np.array([dist.get(int(v), -1) for v in got["vid"]])
        assert np.array_equal(got[f"dist_{lm}"].to_numpy(), want), f"landmark {lm}"
