"""Fixed-point Katz (``Graph.katz``) vs an exact integer simulation;
float-limit sanity."""

import collections

import numpy as np
import pandas as pd
import pytest

from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()


def katz(edges, *, num_parts, salt_threshold=None, **kw) -> pd.DataFrame:
    """``Graph.katz`` on ``edges``, sorted by vid."""
    g = Graph(edges, num_parts=num_parts, salt_threshold=salt_threshold)
    try:
        return g.katz(**kw).to_pandas().sort_values("vid").reset_index(drop=True)
    finally:
        g.close()


def katz_oracle(edges_df, *, inv_alpha=8, iters=4, beta=1_000_000) -> pd.DataFrame:
    verts = sorted(
        set(int(v) for v in edges_df["src"]) | set(int(v) for v in edges_df["dst"])
    )
    x = {v: beta for v in verts}
    for _ in range(iters):
        s = collections.Counter()
        for u, v, w in zip(edges_df["src"], edges_df["dst"], edges_df["w"]):
            s[int(v)] += int(w) * x[int(u)]
        x = {v: beta + s[v] // inv_alpha for v in verts}
    return pd.DataFrame(
        {"vid": verts, "katz_micro": [x[v] for v in verts]}, dtype=np.int64
    )


@pytest.mark.parametrize(
    "name", ["two_cliques_bridge", "ring_n", "star_hub", "parallel_self", "random_multi"]
)
def test_katz_matches_oracle(name, ray_session):
    edges, _ = FIX[name]
    got = katz(edges, inv_alpha=8, iters=4, num_parts=3)
    pd.testing.assert_frame_equal(got, katz_oracle(edges))


def test_katz_approaches_float_limit(ray_session):
    """On the 12-ring with α = 1/8, the micro-unit iterate is within one
    rounding step per iteration of the float recurrence."""
    edges, _ = FIX["ring_n"]
    iters = 6
    got = katz(edges, inv_alpha=8, iters=iters, num_parts=2)
    xf = np.full(12, 1.0)
    for _ in range(iters):
        nxt = np.full(12, 1.0)
        for u, v in zip(edges["src"], edges["dst"]):
            nxt[int(v)] += xf[int(u)] / 8.0
        xf = nxt
    assert np.allclose(got["katz_micro"].to_numpy() / 1e6, xf, atol=iters * 1e-6)


@pytest.mark.parametrize(
    "name", ["two_cliques_bridge", "ring_n", "star_hub", "parallel_self", "random_multi"]
)
def test_katz_engine_bit_parity(name, ray_session):
    """Graph.katz is bit-identical across partition counts (one shard,
    three) and equal to the exact integer simulation."""
    edges, _ = FIX[name]
    got = katz(edges, inv_alpha=8, iters=4, num_parts=3)
    pd.testing.assert_frame_equal(got, katz(edges, inv_alpha=8, iters=4, num_parts=1))
    pd.testing.assert_frame_equal(got, katz_oracle(edges))


def test_katz_engine_salted_hub_parity(ray_session):
    """Salted hub split must not change the exact integer iterate."""
    from graphx_ray.pipelines.graph import Graph

    edges, _ = FIX["star_hub"]
    # threshold 2 splits the star's hub
    outs = [katz(edges, inv_alpha=8, iters=4, num_parts=3, salt_threshold=thr)
            for thr in (None, 2)]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[1], katz_oracle(edges))
