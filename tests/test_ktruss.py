"""k-truss vs networkx on random graphs."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from graphx_ray.stages.structural import k_truss


def _rand_edges(seed, n=40, m=220):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    return pd.DataFrame({"src": src, "dst": dst, "w": np.ones(m, np.int64)})


def _canon(df):
    u = np.minimum(df["src"], df["dst"])
    v = np.maximum(df["src"], df["dst"])
    keep = u != v
    return pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()


@pytest.mark.parametrize("seed,k", [(3, 3), (3, 4), (4, 5)])
def test_k_truss_matches_networkx(ray_session, seed, k):
    import networkx as nx

    df = _rand_edges(seed, n=30, m=260)
    g = nx.Graph()
    g.add_edges_from(
        (int(u), int(v)) for u, v in _canon(df).itertuples(index=False)
    )
    want = {
        (min(u, v), max(u, v)) for u, v in nx.k_truss(g, k).edges()
    }
    got = k_truss(rd.from_pandas(df), k, num_partitions=3).to_pandas()
    assert {(int(u), int(v)) for u, v in got.itertuples(index=False)} == want


def test_k_truss_empty_result(ray_session):
    # a tree has no triangles: k=3 truss is empty
    df = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4],
                       "w": np.ones(4, np.int64)})
    got = k_truss(rd.from_pandas(df), 3, num_partitions=2).to_pandas()
    assert len(got) == 0
