"""Property-based tests for the round-4 late operators: link prediction,
BPE, and Katz vs brute-force replays on random inputs."""

import collections
import itertools

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphx_ray.functions.bpe import bpe_train
from graphx_ray.pipelines.graph import Graph
from graphx_ray.pipelines.linkpred import link_prediction

edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 3)),
    min_size=1,
    max_size=40,
)
word_lists = st.lists(
    st.text(alphabet="abcx ", min_size=0, max_size=24), min_size=1, max_size=12
)

SET = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@given(edges=edge_lists)
@SET
def test_linkpred_property(edges):
    df = pd.DataFrame(edges, columns=["src", "dst", "w"])
    got = link_prediction(df, num_parts=2).to_pandas()
    adj = collections.defaultdict(set)
    for s, d, _ in edges:
        if s != d:
            adj[s].add(d)
            adj[d].add(s)
    eset = {(min(s, d), max(s, d)) for s, d, _ in edges if s != d}
    cnt = collections.Counter()
    for _, ns in adj.items():
        for a, b in itertools.combinations(sorted(ns), 2):
            cnt[(a, b)] += 1
    want = sorted(
        (a, b, c) for (a, b), c in cnt.items() if (a, b) not in eset
    )
    if got.empty:
        assert want == []
    else:
        assert sorted(map(tuple, got[["a", "b", "cn"]].to_numpy())) == want


@given(words=word_lists)
@SET
def test_bpe_property(words):
    docs = pd.DataFrame(
        {"doc_id": np.arange(len(words), dtype=np.int64), "text": words}
    )
    got = bpe_train(docs, merges=3, num_partitions=2).to_pandas()
    # pure-python Sennrich replay
    wc = collections.Counter(
        w for t in words for w in t.lower().split()
    )
    syms = {w: list(w) for w in wc}
    want = []
    for rank in range(3):
        pc = collections.Counter()
        for w, s in syms.items():
            for a, b in zip(s, s[1:]):
                pc[(a, b)] += wc[w]
        if not pc:
            break
        mx = max(pc.values())
        l, r = min(p for p, c in pc.items() if c == mx)
        want.append((rank, l, r, mx))
        for w, s in syms.items():
            i, ns = 0, []
            while i < len(s):
                if i + 1 < len(s) and s[i] == l and s[i + 1] == r:
                    ns.append(l + r)
                    i += 2
                else:
                    ns.append(s[i])
                    i += 1
            syms[w] = ns
    assert list(map(tuple, got.to_numpy())) == want


@given(edges=edge_lists, inv_alpha=st.sampled_from([4, 8, 16]))
@SET
def test_katz_property(edges, inv_alpha):
    df = pd.DataFrame(edges, columns=["src", "dst", "w"])
    g = Graph(df, num_parts=2)
    try:
        got = g.katz(inv_alpha=inv_alpha, iters=3).to_pandas()
    finally:
        g.close()
    got = got.sort_values("vid").reset_index(drop=True)
    verts = sorted({s for s, _, _ in edges} | {d for _, d, _ in edges})
    x = {v: 1_000_000 for v in verts}
    for _ in range(3):
        s = collections.Counter()
        for u, v, w in edges:
            s[v] += w * x[u]
        x = {v: 1_000_000 + s[v] // inv_alpha for v in verts}
    want = pd.DataFrame({"vid": verts, "katz_micro": [x[v] for v in verts]}, dtype=np.int64)
    pd.testing.assert_frame_equal(got, want)
