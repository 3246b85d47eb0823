"""Results through the object store, and the superstep window on
checkpointed and HITS runs (pipelines/graph.py: ``Graph._result_ds``,
``Graph._supersteps``).

- A Dataset-default result is each shard's table held in the object
  store (``rd.from_arrow_refs``): equal, dtypes included, to the
  ``as_table`` concat and to the ``output_path`` parquet read-back; no
  file lands under the workdir; it survives the host that made it.
- A checkpointed run keeps the 4-superstep window: every checkpoint part
  holds exactly its superstep's state, and resume is bit-identical from
  any manifest, mid-window ones included.
- HITS runs on the superstep loop with one driver barrier per window."""

import json
import os

import networkx as nx
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray

from graphx_ray.pipelines.graph import Graph
from graphx_ray.state import checkpoint as ckpt
from graphx_ray.stages.structural import coreness
from oracles import fixture_graphs

FIX = fixture_graphs()


def by_vid(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("vid").reset_index(drop=True)


def same_bits(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Equal columns, dtypes and bytes, rows matched by vid."""
    a, b = by_vid(a), by_vid(b)
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    for c in a.columns:
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if x.dtype != y.dtype or not np.array_equal(x.view(np.uint8), y.view(np.uint8)):
            return False
    return True


@pytest.fixture(scope="module")
def random_edges():
    rng = np.random.default_rng(5)
    n, m = 400, 2400
    return pd.DataFrame({"src": rng.integers(0, n, m), "dst": rng.integers(0, n, m),
                         "w": rng.integers(1, 4, m)})


def three_ways(run, tmp_path, name: str) -> None:
    """``run(output_path=, as_table=)``'s default, table and parquet
    results are the same frame, dtypes included."""
    default = run().to_pandas()
    table = run(as_table=True).to_pandas()
    written = run(output_path=str(tmp_path / name)).to_pandas()
    assert len(default) > 0
    pd.testing.assert_frame_equal(by_vid(default), by_vid(table))
    pd.testing.assert_frame_equal(by_vid(default), by_vid(written))


def test_default_result_equals_table_and_parquet(random_edges, tmp_path):
    g = Graph(random_edges, num_parts=3)
    try:
        three_ways(lambda **kw: g.pagerank(max_iter=6, **kw), tmp_path, "pr")
        three_ways(lambda **kw: g.connected_components(**kw), tmp_path, "cc")
        three_ways(lambda **kw: g.parallel_personalized_pagerank([0, 7, 9], max_iter=5, **kw),
                   tmp_path, "ppr")
        three_ways(lambda **kw: g.hits(max_iter=5, **kw), tmp_path, "hits")
        assert not os.path.exists(os.path.join(g.workdir, "results"))
    finally:
        g.close()


def test_aggregate_messages_with_empty_parts(tmp_path):
    """Only one of four parts receives a message: the message-less parts
    stay out of every form of the result."""
    edges, verts = FIX["isolated"]
    g = Graph(edges, pd.DataFrame({"vid": verts}), num_parts=4)
    try:
        def run(**kw):
            return g.aggregate_messages(lambda v, w: v * w, agg="sum", **kw)

        default = run().to_pandas()
        table = run(as_table=True).to_pandas()
        written = run(output_path=str(tmp_path / "agg")).to_pandas()
        assert default["vid"].tolist() == [2]
        pd.testing.assert_frame_equal(default, table)
        pd.testing.assert_frame_equal(default, written)
        assert not os.path.exists(os.path.join(g.workdir, "results"))
    finally:
        g.close()


def test_coreness_result_outlives_its_graph(random_edges):
    """coreness closes its Graph before returning; the result is read
    afterwards and equals networkx's core numbers."""
    e = random_edges[random_edges.src != random_edges.dst]
    u, v = np.minimum(e.src, e.dst), np.maximum(e.src, e.dst)
    canon = pd.DataFrame({"src": u, "dst": v}).drop_duplicates().reset_index(drop=True)
    got = by_vid(coreness(ray.data.from_pandas(canon), num_partitions=3).to_pandas())
    want = nx.core_number(nx.Graph(list(zip(canon.src.tolist(), canon.dst.tolist()))))
    assert got["vid"].dtype == np.int64
    assert got["vid"].tolist() == sorted(want)
    assert got["core"].tolist() == [want[k] for k in sorted(want)]


def test_result_survives_a_killed_host():
    """The result's tables belong to the driver, not to the host that
    computed them: killing that host loses nothing. Parts of 60k rows
    (~1 MB) live in the shared-memory store, not inline."""
    from test_shard_pool import wait_dead

    n = 240_000
    edges = pd.DataFrame({"src": np.arange(n), "dst": (np.arange(n) + 1) % n, "w": 1})
    g = Graph(edges, num_parts=4)
    try:
        ds = g.pagerank(max_iter=2)
        victim = g._hosts[0]
        ray.kill(victim)
        wait_dead(victim)
    finally:
        g.close()
    pr = ds.to_pandas()
    assert len(pr) == n
    # a ring: every vertex has one in-edge from a vertex of rank 1
    assert np.allclose(pr["rank"].to_numpy(), 1.0)


# ------------------------------------------------------- windowed checkpoints


def records(workdir: str, algo: str) -> list:
    with open(os.path.join(workdir, "metrics.jsonl")) as f:
        return [r for r in map(json.loads, f) if r["algo"] == algo]


def drop_manifests_after(ck: str, k: int) -> None:
    """A kill after the window's parts landed but before manifests k+1…
    were written."""
    for name in os.listdir(ck):
        if name.startswith("_manifest-") and int(name[10:16]) > k:
            os.remove(os.path.join(ck, name))


@pytest.mark.parametrize("algo,cols", [("pagerank", ["rank"]), ("hits", ["hub", "auth"])])
def test_windowed_checkpoint_resumes_bit_identically(algo, cols, random_edges, tmp_path):
    ck = str(tmp_path / "ck")
    g = Graph(random_edges, num_parts=3, workdir=str(tmp_path / "wd"))
    try:
        run = getattr(g, algo)
        full = run(max_iter=10).to_pandas()
        two = run(max_iter=2).to_pandas()
        run(max_iter=6, checkpoint_dir=ck)
        # a checkpointed run keeps the window: 0-3, then 4-5
        assert [r["window"] for r in records(g.workdir, algo)[-6:]] == [4, 4, 4, 4, 2, 2]
        assert sorted(n for n in os.listdir(ck) if n.startswith("_manifest-")) == [
            f"_manifest-{i:06d}.json" for i in range(6)]
        # each part holds exactly its superstep's state, though superstep
        # k+1 was queued before the barrier
        part1 = pd.concat([pq.read_table(ckpt.part_path(ck, 1, p)).to_pandas()
                           for p in range(3)])
        assert same_bits(part1, two)

        # from the end of a window, then from inside one (manifests 2-5
        # lost to a simulated mid-window kill)
        for keep in (5, 1):
            drop_manifests_after(ck, keep)
            resumed = run(max_iter=10, checkpoint_dir=ck, resume=True).to_pandas()
            assert same_bits(resumed[["vid", *cols]], full[["vid", *cols]]), keep
    finally:
        g.close()


def test_hits_one_barrier_per_window(random_edges, monkeypatch):
    """Unsalted HITS: one ray.get per 4 iterations — the norms and the
    hub merges run on the shards."""
    g = Graph(random_edges, num_parts=3)
    try:
        g.hits(max_iter=1)  # warm: pool built, shards loaded
        calls = []
        real_get = ray.get

        def counting_get(*a, **kw):
            calls.append(1)
            return real_get(*a, **kw)

        monkeypatch.setattr(ray, "get", counting_get)
        counts = []
        for n in (8, 16):
            calls.clear()
            g.hits(max_iter=n)
            counts.append(len(calls))
        monkeypatch.undo()
        assert counts[1] - counts[0] == 2, counts
        assert [r["window"] for r in records(g.workdir, "hits")[-16:]] == [4] * 16
    finally:
        g.close()
