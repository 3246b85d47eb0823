"""Double-sweep diameter lower bound vs a networkx replay."""

import numpy as np
import pandas as pd
import pytest

nx = pytest.importorskip("networkx")

from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()


def double_sweep_oracle(edges_df, start=None):
    g = nx.Graph()
    for s, d in zip(edges_df["src"], edges_df["dst"]):
        if s != d:
            g.add_edge(int(s), int(d))
    if start is None:
        start = min(g.nodes)

    def far(src):
        dist = nx.single_source_shortest_path_length(g, src)
        mx = max(dist.values())
        return mx, min(v for v, d in dist.items() if d == mx)

    ecc1, far1 = far(start)
    lb, far2 = far(far1)
    return start, far1, ecc1, far2, lb


def _run(edges_df, **kw):
    g = Graph(edges_df, num_parts=3)
    try:
        t = g.diameter_lower_bound(**kw).to_pandas()
    finally:
        g.close()
    return tuple(int(t.iloc[0][c]) for c in
                 ["start", "far1", "ecc1", "far2", "diameter_lb"])


@pytest.mark.parametrize("name", ["ring_n", "two_cliques_bridge", "star_hub"])
def test_diameter_matches_double_sweep(name, ray_session):
    edges, _ = FIX[name]
    assert _run(edges) == double_sweep_oracle(edges)


def test_diameter_random_graph_and_bound(ray_session):
    rng = np.random.default_rng(29)
    m = 260
    edges = pd.DataFrame(
        {"src": rng.integers(0, 60, m), "dst": rng.integers(0, 60, m), "w": 1}
    )
    got = _run(edges)
    assert got == double_sweep_oracle(edges)
    # lower bound law: diameter_lb ≤ true diameter of the start component
    g = nx.Graph()
    for s, d in zip(edges["src"], edges["dst"]):
        if s != d:
            g.add_edge(int(s), int(d))
    comp = nx.node_connected_component(g, got[0])
    true_d = nx.diameter(g.subgraph(comp))
    assert got[2] <= got[4] <= true_d


def test_diameter_ring_exact(ray_session):
    edges, _ = FIX["ring_n"]
    got = _run(edges)
    assert got[4] == 6  # 12-ring diameter
