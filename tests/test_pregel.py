"""Generic Pregel hook + parallel personalized PageRank.

The pregel surface is verified by DOGFOODING: connected components and
static PageRank re-derived through user callables must equal the built-in
algorithms / pinned oracles; parallel PPR must equal the sequential
personalized variant per source (its pinned contract)."""

import numpy as np
import pandas as pd
import pytest

from graphx_ray.pipelines.graph import Graph
from oracles import cc_oracle, fixture_graphs, pagerank_oracle, ppr_oracle

FIX = fixture_graphs()


def make_graph(name, **kw):
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    return Graph(edges, vdf, num_parts=3, **kw)


def by_vid(tbl) -> pd.DataFrame:
    return tbl.to_pandas().sort_values("vid").reset_index(drop=True)


# ------------------------------------------------------------------ pregel


@pytest.mark.parametrize("name", ["two_cliques_bridge", "ring_n", "isolated", "random_multi"])
def test_pregel_cc_dogfood(name):
    """min-propagation pregel (halt=changed) == connected_components."""
    g = make_graph(name)
    try:
        got = by_vid(
            g.pregel(
                init=lambda vids: vids.astype(np.int64),
                send_msg=lambda v, w, od: v,
                vprog=lambda old, msg, got: np.minimum(old, msg),
                merge="min",
                halt="changed",
                variant="undirected",
                max_iter=50,
            )
        )
    finally:
        g.close()
    edges, verts = FIX[name]
    want = cc_oracle(edges, verts)
    assert np.array_equal(got["vid"].to_numpy(), want["vid"].to_numpy())
    assert np.array_equal(got["value"].to_numpy(), want["component"].to_numpy())


@pytest.mark.parametrize("name", ["parallel_self", "random_multi", "star_hub"])
def test_pregel_static_pagerank_dogfood(name):
    """halt=all pregel with the A.1 update == the pinned PageRank oracle
    (parallel edges, self-loops, dangling vertices included)."""
    g = make_graph(name)
    try:
        got = by_vid(
            g.pregel(
                init=lambda vids: np.ones(len(vids), np.float64),
                send_msg=lambda v, w, od: v / np.maximum(od, 1.0) * w,
                vprog=lambda old, msg, got: 0.15 + 0.85 * msg,
                merge="sum",
                halt="all",
                max_iter=5,
            )
        )
    finally:
        g.close()
    edges, verts = FIX[name]
    want = pagerank_oracle(edges, verts, max_iter=5).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(got["value"], want["rank"], rtol=1e-9, atol=1e-12)


def test_pregel_maxprop_oracle():
    """3 supersteps of max-of-neighbors against a closed-form numpy loop."""
    edges, verts = FIX["random_multi"]
    g = make_graph("random_multi")
    try:
        got = by_vid(
            g.pregel(
                init=lambda vids: vids.astype(np.int64),
                send_msg=lambda v, w, od: v,
                vprog=lambda old, msg, got: np.maximum(old, msg),
                merge="max",
                halt="all",
                max_iter=3,
            )
        )
    finally:
        g.close()
    vs = np.sort(np.asarray(verts))
    idx = {v: i for i, v in enumerate(vs)}
    val = vs.astype(np.int64).copy()
    s = edges["src"].map(idx).to_numpy()
    d = edges["dst"].map(idx).to_numpy()
    for _ in range(3):
        nxt = val.copy()
        for i in range(len(s)):  # tiny graph: per-edge loop is the oracle
            nxt[d[i]] = max(nxt[d[i]], val[s[i]])
        val = nxt
    assert np.array_equal(got["vid"].to_numpy(), vs)
    assert np.array_equal(got["value"].to_numpy(), val)


def test_pregel_initial_msg_applied_before_first_superstep():
    """GraphX semantics: initial_msg goes through vprog at superstep 0."""
    g = make_graph("ring_n")
    try:
        got = by_vid(
            g.pregel(
                init=lambda vids: np.zeros(len(vids), np.float64),
                send_msg=lambda v, w, od: v,
                vprog=lambda old, msg, got: old + msg,
                merge="sum",
                initial_msg=7.0,
                halt="all",
                max_iter=1,
            )
        )
    finally:
        g.close()
    # init 0 → +7 initial msg → one superstep: each ring vertex receives 7
    assert np.allclose(got["value"].to_numpy(), 14.0)


def test_pregel_salted_hub_equivalence():
    """Salted hub split must not change pregel results."""
    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    kw = dict(
        init=lambda vids: vids.astype(np.int64),
        send_msg=lambda v, w, od: v,
        vprog=lambda old, msg, got: np.minimum(old, msg),
        merge="min",
        halt="changed",
        variant="undirected",
        max_iter=50,
    )
    g1 = Graph(edges, vdf, num_parts=3)
    g2 = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        plain = by_vid(g1.pregel(**kw))
        salted = by_vid(g2.pregel(**kw))
    finally:
        g1.close()
        g2.close()
    pd.testing.assert_frame_equal(plain, salted)


def test_pregel_empty_graph_terminates():
    g = make_graph("empty")
    try:
        got = by_vid(
            g.pregel(
                init=lambda vids: vids.astype(np.int64),
                send_msg=lambda v, w, od: v,
                vprog=lambda old, msg, got: np.minimum(old, msg),
                merge="min",
                halt="changed",
                max_iter=50,
            )
        )
    finally:
        g.close()
    assert np.array_equal(got["vid"].to_numpy(), got["value"].to_numpy())


# ---------------------------------------------------------- parallel PPR


@pytest.mark.parametrize("name", ["two_cliques_bridge", "random_multi", "parallel_self"])
def test_parallel_ppr_equals_sequential(name):
    edges, verts = FIX[name]
    sources = [int(np.asarray(verts)[0]), int(np.asarray(verts)[-1])]
    g = make_graph(name)
    try:
        multi = by_vid(g.parallel_personalized_pagerank(sources, max_iter=8))
    finally:
        g.close()
    for k, s in enumerate(sources):
        want = ppr_oracle(edges, verts, s, max_iter=8).sort_values("vid").reset_index(drop=True)
        np.testing.assert_allclose(
            multi[f"rank_{k}"], want["rank"], rtol=1e-9, atol=1e-12,
            err_msg=f"source index {k} (vid {s})",
        )


def test_parallel_ppr_salted_hub():
    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    sources = [0, 1]
    g1 = Graph(edges, vdf, num_parts=3)
    g2 = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        plain = by_vid(g1.parallel_personalized_pagerank(sources, max_iter=6))
        salted = by_vid(g2.parallel_personalized_pagerank(sources, max_iter=6))
    finally:
        g1.close()
        g2.close()
    pd.testing.assert_frame_equal(plain, salted)


def test_pregel_checkpoint_resume_bit_identical(tmp_path):
    """Kill-after-2-supersteps + resume == uninterrupted run, bitwise."""
    edges, verts = FIX["random_multi"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    kw = dict(
        init=lambda vids: np.ones(len(vids), np.float64),
        send_msg=lambda v, w, od: v / np.maximum(od, 1.0) * w,
        vprog=lambda old, msg, got: 0.15 + 0.85 * msg,
        merge="sum",
        halt="all",
    )
    ck = str(tmp_path / "ck")
    g1 = Graph(edges, vdf, num_parts=3)
    try:
        full = by_vid(g1.pregel(**kw, max_iter=6))
    finally:
        g1.close()
    g2 = Graph(edges, vdf, num_parts=3)
    try:
        g2.pregel(**kw, max_iter=2, checkpoint_dir=ck)  # "killed" after 2
    finally:
        g2.close()
    g3 = Graph(edges, vdf, num_parts=3)
    try:
        resumed = by_vid(g3.pregel(**kw, max_iter=6, checkpoint_dir=ck, resume=True))
    finally:
        g3.close()
    # prove the resume actually engaged (didn't silently start fresh):
    # the resumed run's metrics must begin at iteration 2, not 0
    import json as _json
    import os as _os

    its = [
        _json.loads(l)["iteration"]
        for l in open(_os.path.join(g3.workdir, "metrics.jsonl"))
        if '"pregel"' in l
    ]
    assert min(its) == 2 and max(its) == 5, its
    assert np.array_equal(full["vid"].to_numpy(), resumed["vid"].to_numpy())
    assert np.array_equal(
        full["value"].to_numpy().view(np.int64),
        resumed["value"].to_numpy().view(np.int64),
    ), "resume must be BIT-identical"
    # edited callables change the fingerprint → resume starts fresh, not mixed
    g4 = Graph(edges, vdf, num_parts=3)
    try:
        other = by_vid(
            g4.pregel(
                init=lambda vids: np.ones(len(vids), np.float64),
                send_msg=lambda v, w, od: v / np.maximum(od, 1.0) * w,
                vprog=lambda old, msg, got: 0.30 + 0.70 * msg,  # different alpha
                merge="sum",
                halt="all",
                max_iter=1,
                checkpoint_dir=ck,
                resume=True,
            )
        )
    finally:
        g4.close()
    one = by_vid(
        Graph(edges, vdf, num_parts=3).pregel(
            init=lambda vids: np.ones(len(vids), np.float64),
            send_msg=lambda v, w, od: v / np.maximum(od, 1.0) * w,
            vprog=lambda old, msg, got: 0.30 + 0.70 * msg,
            merge="sum",
            halt="all",
            max_iter=1,
        )
    )
    np.testing.assert_allclose(other["value"], one["value"], rtol=0, atol=0)
