"""SURVEY.md A.13 node2vec biased walks: exact brute-force replay oracle,
p=q=1 ≡ first-order walks bit-identity, parallelism invariance, and the
integer-multiplier overflow guard."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from graphx_ray.ids import mix64
from graphx_ray.pipelines.graph import Graph


def _edges():
    rng = np.random.default_rng(7)
    ne = 400
    src = rng.integers(0, 40, ne).astype(np.int64)
    dst = rng.integers(0, 40, ne).astype(np.int64)
    w = rng.integers(1, 4, ne).astype(np.float64)
    return src, dst, w


def brute_node2vec(src, dst, w, mults, seed, length):
    """Independent per-walk replay of the A.13 spec (pure Python loop)."""
    df = pd.DataFrame({"src": src, "dst": dst, "w": w.astype(np.uint64)})
    agg = df.groupby(["src", "dst"], as_index=False)["w"].sum()
    adj = {}
    for s, grp in agg.groupby("src"):
        grp = grp.sort_values("dst")
        adj[int(s)] = (grp["dst"].to_numpy(np.int64), grp["w"].to_numpy(np.uint64))
    m_ret, m_com, m_far = (np.uint64(x) for x in mults)
    rows = []
    for start in np.unique(np.concatenate([src, dst])):
        start = int(start)
        base = mix64(mix64(np.uint64(seed) ^ np.uint64(start)) ^ np.uint64(0))
        cur, prev = start, None
        rows.append((start, 0, 0, start))
        for t in range(1, length + 1):
            if cur not in adj:
                break
            nd, nw = adj[cur]
            with np.errstate(over="ignore"):
                h = mix64(base + np.uint64(t))
            if prev is None:
                bw = nw
            else:
                pset = set(adj.get(prev, (np.empty(0, np.int64),))[0].tolist())
                mult = np.array(
                    [m_ret if int(x) == prev else (m_com if int(x) in pset else m_far)
                     for x in nd],
                    np.uint64,
                )
                bw = nw * mult
            cum = np.cumsum(bw, dtype=np.uint64)
            idx = h % cum[-1]
            j = int(np.searchsorted(cum, idx, side="right"))
            prev, cur = cur, int(nd[j])
            rows.append((start, 0, t, cur))
    return pd.DataFrame(rows, columns=["start_vid", "walk", "step", "vid"])


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["start_vid", "walk", "step"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def edges_ds():
    src, dst, w = _edges()
    return (src, dst, w), rd.from_arrow(pa.table({"src": src, "dst": dst, "w": w}))


@pytest.mark.parametrize(
    "p,q,mults,seed,length",
    [
        (2, 0.5, (1, 2, 4), 42, 5),          # return-averse, exploratory
        ("1/3", 5, (15, 5, 1), 9, 4),        # return-prone, local
    ],
)
def test_node2vec_matches_brute_oracle(edges_ds, p, q, mults, seed, length):
    (src, dst, w), ds = edges_ds
    g = Graph(ds, num_parts=3)
    try:
        got = _norm(
            g.node2vec_walks(p=p, q=q, length=length, seed=seed, as_table=True)
            .to_pandas()
        )
    finally:
        g.close()
    want = _norm(brute_node2vec(src, dst, w, mults, seed, length))
    pd.testing.assert_frame_equal(got, want)


def test_p1_q1_bit_identical_to_first_order(edges_ds):
    _, ds = edges_ds
    g = Graph(ds, num_parts=3)
    try:
        first = _norm(
            g.random_walks(walks_per_vertex=2, length=6, seed=3, as_table=True)
            .to_pandas()
        )
        n2v = _norm(
            g.node2vec_walks(
                p=1, q=1, walks_per_vertex=2, length=6, seed=3, as_table=True
            ).to_pandas()
        )
    finally:
        g.close()
    pd.testing.assert_frame_equal(first, n2v)


def test_parallelism_invariance_and_dataset_mode(edges_ds):
    (src, dst, w), ds = edges_ds
    g = Graph(ds, num_parts=5)
    try:
        got = _norm(g.node2vec_walks(p=2, q=0.5, length=5, seed=42).to_pandas())
    finally:
        g.close()
    want = _norm(brute_node2vec(src, dst, w, (1, 2, 4), 42, 5))
    pd.testing.assert_frame_equal(got, want)


def test_nonpositive_pq_rejected(edges_ds):
    _, ds = edges_ds
    g = Graph(ds, num_parts=2)
    try:
        with pytest.raises(ValueError, match="positive"):
            g.node2vec_walks(p=0, q=1, length=2, as_table=True)
    finally:
        g.close()


def _walks_df(res):
    return (
        res.to_pandas()
        .sort_values(["start_vid", "walk", "step"])
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("algo", ["random_walks", "node2vec"])
def test_walks_salted_hub_bit_parity(algo, ray_session):
    """Round-5: salted hub splitting no longer refuses walks — the merged
    hub adjacency broadcast reproduces the unsalted draws bit-identically
    (and hub-resident walks spread across shards instead of piling onto
    the hub's owner)."""
    src, dst, w = _edges()
    # add a hot hub so salting actually splits something
    hub_dst = np.arange(1, 31, dtype=np.int64)
    src = np.concatenate([src, np.zeros(30, np.int64)])
    dst = np.concatenate([dst, hub_dst])
    w = np.concatenate([w, np.full(30, 5.0)])
    edges = pd.DataFrame({"src": src, "dst": dst, "w": w})
    outs = []
    for thr in (None, 40):  # threshold 40 splits vertex 0 (sum w > 40)
        g = Graph(edges, num_parts=3, salt_threshold=thr)
        try:
            if algo == "random_walks":
                res = g.random_walks(walks_per_vertex=2, length=6, seed=5)
            else:
                res = g.node2vec_walks(
                    p=2.0, q=0.5, walks_per_vertex=2, length=6, seed=5
                )
            outs.append(_walks_df(res))
        finally:
            g.close()
        if thr == 40:
            assert g._staged["directed"]["hubs"], "salting must have split a hub"
    pd.testing.assert_frame_equal(outs[0], outs[1])
