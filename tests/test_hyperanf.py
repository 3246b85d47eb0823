"""HyperANF vs an exact register-level simulation oracle."""

import collections

import numpy as np
import pandas as pd
import pytest

from graphx_ray.ids import hll_alpha, hll_registers, mix64
from graphx_ray.pipelines.hyperanf import hyperanf
from oracles import fixture_graphs

FIX = fixture_graphs()


def _balls(edges_df, iters):
    adj = collections.defaultdict(set)
    verts = set()
    for s, d in zip(edges_df["src"], edges_df["dst"]):
        s, d = int(s), int(d)
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
        verts.add(s)
        verts.add(d)
    balls = {v: {v} for v in verts}
    out = {0: {v: set(b) for v, b in balls.items()}}
    for t in range(1, iters + 1):
        nxt = {}
        for v in verts:
            s = set(balls[v])
            for u in adj[v]:
                s |= balls[u]
            nxt[v] = s
        balls = nxt
        out[t] = {v: set(b) for v, b in balls.items()}
    return out


def anf_oracle(edges_df, *, p, iters) -> pd.DataFrame:
    """Exact simulation: per (v, t) fold the singleton registers of every
    ball member — identical semantics to register max-exchange."""
    m = 1 << p
    alpha = hll_alpha(m)
    balls = _balls(edges_df, iters)
    rows = []
    for t, per_v in balls.items():
        for v, members in per_v.items():
            mem = np.array(sorted(members), np.uint64)
            reg, rho = hll_registers(mix64(mem), p)
            dense = np.zeros(m, np.int64)
            np.maximum.at(dense, reg, rho)
            s = np.sum(np.power(2.0, -dense.astype(np.float64)))
            est = alpha * m * m / s
            zeros = int((dense == 0).sum())
            if est <= 2.5 * m and zeros:
                est = m * np.log(m / zeros)
            rows.append((v, t, int(np.floor(est + 0.5))))
    return (
        pd.DataFrame(rows, columns=["vid", "t", "ball"])
        .sort_values(["t", "vid"])
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "star_hub"])
def test_hyperanf_matches_simulation(name, ray_session):
    edges, _ = FIX[name]
    got = (
        hyperanf(edges, p=4, iters=2, num_parts=3)
        .to_pandas()
        .sort_values(["t", "vid"])
        .reset_index(drop=True)
    )
    want = anf_oracle(edges, p=4, iters=2)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hyperanf_accuracy_on_ring(ray_session):
    """On the 12-ring the exact ball sizes are 1, 3, 5 at t = 0, 1, 2;
    a p=8 counter on 12 vertices is near-exact (linear-counting regime)."""
    edges, _ = FIX["ring_n"]
    got = hyperanf(edges, p=8, iters=2, num_parts=2).to_pandas()
    for t, exact in [(0, 1), (1, 3), (2, 5)]:
        vals = got[got["t"] == t]["ball"]
        assert len(vals) == 12
        assert (np.abs(vals - exact) <= 1).all(), (t, sorted(vals.unique()))


def _effdiam_ref(edges_df, *, p, iters, q_num=9, q_den=10):
    """Same pinned fold over the exact-simulation ball table."""
    balls = anf_oracle(edges_df, p=p, iters=iters)
    nt = [int(balls[balls["t"] == t]["ball"].sum()) for t in range(iters + 1)]
    ntot = nt[-1]
    for t, n in enumerate(nt):
        if q_den * n >= q_num * ntot:
            if t == 0:
                return 0, ntot
            prev = nt[t - 1]
            return (t - 1) * 1_000_000 + (
                (q_num * ntot - q_den * prev) * 1_000_000
            ) // (q_den * (n - prev)), ntot
    raise AssertionError("no crossing")


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "star_hub"])
def test_effective_diameter_matches_simulation(name, ray_session):
    from graphx_ray.pipelines.hyperanf import effective_diameter

    edges, _ = FIX[name]
    got = effective_diameter(edges, p=4, iters=3, num_parts=3).to_pandas()
    want_d, want_n = _effdiam_ref(edges, p=4, iters=3)
    assert got["eff_diameter_e6"].tolist() == [want_d]
    assert got["n_total"].tolist() == [want_n]


def test_effective_diameter_star_semantics(ray_session):
    """On the star the whole graph is within 2 hops: a p=8 counter is
    near-exact, so d_eff(0.9) lands in (1, 2] micro-units and q=1 gives
    exactly the point where N saturates."""
    from graphx_ray.pipelines.hyperanf import effective_diameter

    edges, _ = FIX["star_hub"]
    got = effective_diameter(edges, p=8, iters=3, num_parts=2).to_pandas()
    d = got.loc[0, "eff_diameter_e6"]
    assert 1_000_000 < d <= 2_000_000
    # q = 1 (q_num == q_den): first t where N(t) == N(iters)
    got1 = effective_diameter(
        edges, p=8, iters=3, q_num=1, q_den=1, num_parts=2
    ).to_pandas()
    assert 1_000_000 < got1.loc[0, "eff_diameter_e6"] <= 2_000_000
    import pytest as _pytest
    with _pytest.raises(ValueError):
        effective_diameter(edges, q_num=3, q_den=2)
