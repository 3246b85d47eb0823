"""1-WL color refinement (Graph.wl_refine).

Pinned two ways:
- BIT-PARITY with a numpy replay of the exact hash chain (same mix64 /
  golden-ratio constant / wrap-around uint64 sums) on every fixture;
- SEMANTIC equivalence with classical Weisfeiler-Leman refinement
  (sorted-multiset relabeling): the induced vertex partition after r
  rounds must equal the classical partition after r rounds (the hash is
  an injective-up-to-collision encoding of the same refinement tree).

Parallelism invariance (num_parts 1 vs 3) is the order-freeness witness:
the neighbor fold is an unordered wrap-around sum, so shard boundaries
and merge order cannot change a single bit.
"""

import numpy as np
import pandas as pd
import pytest

from graphx_ray.ids import mix64
from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()
WL_C = np.uint64(0x9E3779B97F4A7C15)


def _simple_sym(edges: pd.DataFrame):
    """The engine's undirected variant: u<v dedup, loops dropped, both
    directions."""
    u = np.minimum(edges["src"].to_numpy(), edges["dst"].to_numpy())
    v = np.maximum(edges["src"].to_numpy(), edges["dst"].to_numpy())
    keep = u != v
    pairs = np.unique(np.stack([u[keep], v[keep]], axis=1), axis=0)
    if not len(pairs):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return src, dst


def wl_hash_oracle(edges: pd.DataFrame, verts: np.ndarray, rounds: int) -> pd.DataFrame:
    src, dst = _simple_sym(edges)
    order = np.argsort(verts, kind="stable")
    vs = verts[order]
    si = np.searchsorted(vs, src)
    di = np.searchsorted(vs, dst)
    col = np.ones(len(vs), np.uint64)
    with np.errstate(over="ignore"):
        for _ in range(rounds):
            m = mix64(col)
            s = np.zeros(len(vs), np.uint64)
            np.add.at(s, di, m[si])
            col = mix64(col * WL_C + s)
    return pd.DataFrame({"vid": vs, "color": col.view(np.int64)}).sort_values(
        "vid"
    ).reset_index(drop=True)


def wl_classical_partition(edges: pd.DataFrame, verts: np.ndarray, rounds: int) -> np.ndarray:
    """Textbook WL: color' = relabel((color, sorted multiset of neighbor
    colors)); returns a canonical partition id per vertex (first-seen)."""
    src, dst = _simple_sym(edges)
    vs = np.sort(verts)
    nbrs = {int(v): [] for v in vs}
    for s, d in zip(src, dst):
        nbrs[int(d)].append(int(s))
    col = {int(v): 0 for v in vs}
    for _ in range(rounds):
        sig = {v: (col[v], tuple(sorted(col[u] for u in nbrs[v]))) for v in nbrs}
        relabel: dict = {}
        new = {}
        for v in sorted(nbrs):
            new[v] = relabel.setdefault(sig[v], len(relabel))
        col = new
    return np.array([col[int(v)] for v in vs], np.int64)


def _partition_ids(colors: np.ndarray) -> np.ndarray:
    _, inv = np.unique(colors, return_inverse=True)
    # canonicalize by first occurrence so two partitions compare equal
    first = {}
    out = np.empty(len(colors), np.int64)
    for i, c in enumerate(inv):
        out[i] = first.setdefault(int(c), len(first))
    return out


@pytest.mark.parametrize(
    "name", ["two_cliques_bridge", "ring_n", "star_hub", "isolated", "parallel_self", "random_multi"]
)
def test_wl_bit_parity_and_classical(name):
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": np.sort(verts).astype(np.int64)})
    g = Graph(edges, vdf, num_parts=3)
    try:
        got = (
            g.wl_refine(rounds=3, as_table=True)
            .to_pandas()
            .sort_values("vid")
            .reset_index(drop=True)
        )
    finally:
        g.close()
    want = wl_hash_oracle(edges, verts, rounds=3)
    assert np.array_equal(got["vid"].to_numpy(), want["vid"].to_numpy())
    assert np.array_equal(got["color"].to_numpy(), want["color"].to_numpy())
    # the hash refinement must induce exactly the classical WL partition
    classical = wl_classical_partition(edges, verts, rounds=3)
    assert np.array_equal(_partition_ids(got["color"].to_numpy()), _partition_ids(classical))


def test_wl_parallelism_invariant():
    edges, verts = FIX["random_multi"]
    vdf = pd.DataFrame({"vid": np.sort(verts).astype(np.int64)})
    outs = []
    for parts in (1, 3):
        g = Graph(edges, vdf, num_parts=parts)
        try:
            outs.append(
                g.wl_refine(rounds=4, as_table=True)
                .to_pandas()
                .sort_values("vid")
                .reset_index(drop=True)
            )
        finally:
            g.close()
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_wl_distinguishes_structure():
    """Two 6-cliques joined by a bridge: endpoints of the bridge are the
    only degree-6 vertices — after 1 round they split from the clique
    interior; interiors of BOTH cliques stay mutually identical (WL cannot
    separate isomorphic positions)."""
    edges, verts = FIX["two_cliques_bridge"]
    vdf = pd.DataFrame({"vid": np.sort(verts).astype(np.int64)})
    g = Graph(edges, vdf, num_parts=2)
    try:
        got = (
            g.wl_refine(rounds=2, as_table=True)
            .to_pandas()
            .sort_values("vid")
            .reset_index(drop=True)
        )
    finally:
        g.close()
    col = dict(zip(got["vid"], got["color"]))
    # bridge endpoints 5 and 10 share a color distinct from the interiors
    assert col[5] == col[10]
    interiors = [col[v] for v in (0, 1, 2, 3, 4, 11, 12, 13, 14, 15)]
    assert len(set(interiors)) == 1
    assert interiors[0] != col[5]


def test_wl_rounds_validation():
    edges, verts = FIX["ring_n"]
    vdf = pd.DataFrame({"vid": np.sort(verts).astype(np.int64)})
    g = Graph(edges, vdf, num_parts=1)
    try:
        with pytest.raises(ValueError):
            g.wl_refine(rounds=0)
    finally:
        g.close()
