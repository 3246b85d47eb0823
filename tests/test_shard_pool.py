"""Recycled shard hosts (pipelines/graph.py module docstring): a closed
Graph's host actors go to an idle list and the next pool reloads them.
No state may leak from one graph into the next, and dead or stale actors
must never be handed out."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pandas as pd
import pytest
import ray

from graphx_ray.context import cleanup_spills
from graphx_ray.pipelines import graph as gm
from graphx_ray.pipelines.graph import Graph
from graphx_ray.state import csr
from oracles import cc_oracle, fixture_graphs, lpa_oracle, pagerank_oracle

FIX = fixture_graphs()


def vdf(verts) -> pd.DataFrame:
    return pd.DataFrame({"vid": np.asarray(verts).astype(np.int64)})


def by_vid(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("vid").reset_index(drop=True)


def shards(g: Graph) -> list:
    """The Graph's host actors: every view of it lives on them."""
    return list(g._hosts)


def same_bits(a: pd.Series, b: pd.Series) -> bool:
    a, b = a.to_numpy(), b.to_numpy()
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def wait_dead(actor, timeout_s: float = 60.0) -> None:
    """Block until Ray reports ``actor`` dead. ``ray.kill`` travels through
    the GCS while a call goes straight to the actor, so a call made just
    after the kill can still run: retry until the call fails with
    ``RayActorError``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            ray.get(actor.release.remote(), timeout=10)
        except ray.exceptions.RayActorError:
            return
        except ray.exceptions.GetTimeoutError:
            pass
        time.sleep(0.05)
    pytest.fail(f"actor still alive {timeout_s:.0f} s after ray.kill")


def test_reload_and_release_clear_every_attribute(tmp_path):
    """In-process: a host that held a graph's directed view, a derived
    view and a half-built one has, once it loads another partition,
    exactly a fresh host's attributes; release leaves it empty."""
    edges, verts = FIX["parallel_self"]
    g = Graph(edges, vdf(verts), num_parts=2, workdir=str(tmp_path))
    man = csr.stage_graph(g._with_weight(g.edges), g.vertices,
                          str(tmp_path / "directed"), 2)
    h = csr.ShardHost()
    h.load("directed", csr.load_directed, 0, 2, man)
    h.views["directed"].init_value("pr32")  # builds _w32/_outdeg32
    sent = [ray.put(h.send_view("undirected"))]
    h.recv_view("undirected", sent, None)
    h.build_view("undirected", np.empty(0, np.int64), [])
    h.recv_view("reversed", [ray.put(h.send_view("reversed"))], None)
    assert set(h.views) == {"directed", "undirected"} and h._pending

    h.load("directed", csr.load_directed, 1, 2, man, "per_dest")
    fresh = csr.ShardHost()
    fresh.load("directed", csr.load_directed, 1, 2, man, "per_dest")
    assert sorted(vars(h)) == sorted(vars(fresh))
    assert h._pending == {} and list(h.views) == ["directed"]
    s, f = h.views["directed"], fresh.views["directed"]
    assert sorted(vars(s)) == sorted(vars(f))
    assert s.part == 1 and s.route == "per_dest"
    assert np.array_equal(s.owned, f.owned) and np.array_equal(s.w, f.w)
    h.release()
    assert h.views == {} and h._pending == {}


def test_recycled_shards_carry_no_state():
    """Graph A leaves hubs (salt_threshold), the lazy float32 weights and
    SCC state in its shards; Graph B, on other edges and at the same,
    a smaller and a larger P (the last with per_dest routing), must get
    the oracles' answers and bit-for-bit what fresh actors compute."""
    eb, vb = FIX["random_multi"]
    configs = [(3, "packed"), (2, "packed"), (5, "per_dest")]

    fresh = {}
    for P, route in configs:
        gm._IDLE.clear()  # the reference pool starts new actors
        g = Graph(eb, vdf(vb), num_parts=P, scatter_route=route)
        try:
            fresh[P] = (by_vid(g.pagerank(max_iter=10)),
                        by_vid(g.pagerank(max_iter=10, dtype="float32")))
        finally:
            g.close()
    gm._IDLE.clear()

    ea, va = FIX["star_hub"]
    a = Graph(ea, vdf(va), num_parts=3, salt_threshold=50)
    try:
        a.pagerank(max_iter=5, dtype="float32")
        a.strongly_connected_components()
        assert a._staged["hubs"] == [0]
        a_hosts = shards(a)
    finally:
        a.close()

    want_pr = pagerank_oracle(eb, vb, max_iter=10).sort_values("vid").reset_index(drop=True)
    want_cc = cc_oracle(eb, vb)
    want_lpa = lpa_oracle(eb, vb, max_iter=4).sort_values("vid").reset_index(drop=True)
    for P, route in configs:
        g = Graph(eb, vdf(vb), num_parts=P, scatter_route=route)
        try:
            pr64 = by_vid(g.pagerank(max_iter=10))
            pr32 = by_vid(g.pagerank(max_iter=10, dtype="float32"))
            if P == 3:  # the very hosts that held A's _w32 and SCC state
                assert shards(g) == a_hosts
            cc = by_vid(g.connected_components())
            lpa = by_vid(g.label_propagation(max_iter=4))
        finally:
            g.close()
        ref64, ref32 = fresh[P]
        assert same_bits(pr64["rank"], ref64["rank"]), (P, route)
        assert same_bits(pr32["rank"], ref32["rank"]), (P, route)
        np.testing.assert_allclose(pr64["rank"], want_pr["rank"], rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(pr32["rank"], want_pr["rank"], rtol=1e-4, atol=1e-4)
        pd.testing.assert_frame_equal(cc, want_cc, check_dtype=False)
        pd.testing.assert_frame_equal(lpa, want_lpa, check_dtype=False)
    # the list only grows to the most hosts alive at once: B's P=5 hosts,
    # which held all three of its views
    assert len(gm._idle_shards()) == 5


def test_resume_on_recycled_pool_is_bit_identical(tmp_path):
    edges, verts = FIX["random_multi"]
    ck = str(tmp_path / "ck")
    gm._IDLE.clear()

    g1 = Graph(edges, vdf(verts), num_parts=3)
    try:
        full = by_vid(g1.pagerank(max_iter=8))
        first = shards(g1)
    finally:
        g1.close()

    g2 = Graph(edges, vdf(verts), num_parts=3)
    try:
        g2.pagerank(max_iter=4, checkpoint_dir=ck)
        assert shards(g2) == first
    finally:
        g2.close()

    g3 = Graph(edges, vdf(verts), num_parts=3)
    try:
        resumed = by_vid(g3.pagerank(max_iter=8, checkpoint_dir=ck, resume=True))
        assert shards(g3) == first
    finally:
        g3.close()
    assert same_bits(full["rank"], resumed["rank"])


def test_close_drops_a_killed_shard():
    edges, verts = FIX["two_cliques_bridge"]
    g = Graph(edges, vdf(verts), num_parts=3)
    try:
        g.connected_components()
        victim = shards(g)[0]
        ray.kill(victim)
        wait_dead(victim)
    finally:
        g.close()  # must not raise
    assert victim not in gm._idle_shards()

    g2 = Graph(edges, vdf(verts), num_parts=3)
    try:
        cc = by_vid(g2.connected_components())
    finally:
        g2.close()
    pd.testing.assert_frame_equal(cc, cc_oracle(edges, verts), check_dtype=False)


def test_shard_that_died_while_idle_is_replaced():
    edges, verts = FIX["ring_n"]
    g = Graph(edges, vdf(verts), num_parts=3)
    try:
        g.pagerank(max_iter=3)
    finally:
        g.close()
    victim = gm._idle_shards()[0]  # the next pool takes it first
    ray.kill(victim)
    wait_dead(victim)

    g2 = Graph(edges, vdf(verts), num_parts=3)
    try:
        pr = by_vid(g2.pagerank(max_iter=6))
        assert victim not in shards(g2)
    finally:
        g2.close()
    want = pagerank_oracle(edges, verts, max_iter=6).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(pr["rank"], want["rank"], rtol=1e-6, atol=1e-6)


class FakeShard:
    """Stands in for a host actor handle: ``load``/``release`` answer at
    once, and ``holder`` records which thread holds it."""

    def __init__(self, ready):
        self.ready = ready
        self.holder = None
        self.load = self.release = self

    def remote(self, *args):
        return self.ready


def test_idle_list_is_thread_safe():
    """Eight threads take pools from and return them to the idle list,
    with a short switch interval; no actor may be held by two at once."""
    fakes = [FakeShard(ray.put(None)) for _ in range(16)]
    gm._IDLE.clear()
    gm._idle_shards().extend(fakes)
    clashes = []

    def worker():
        me = threading.get_ident()
        g = Graph(FIX["ring_n"][0], num_parts=2, workdir=os.devnull)
        for _ in range(200):
            pool = gm._load_hosts(2, "directed", None)
            for f in pool:
                if f.holder is not None:
                    clashes.append(f)
                f.holder = me
            for f in pool:
                if f.holder != me:
                    clashes.append(f)
                f.holder = None
            g._hosts = pool
            g.close()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not clashes
    assert sorted(map(id, gm._idle_shards())) == sorted(map(id, fakes))
    gm._IDLE.clear()


STALE_SESSION = r"""
import pandas as pd
import ray

from graphx_ray.pipelines import graph as gm


def run():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    cycle = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0], "w": [1, 1, 1]})
    g = gm.Graph(cycle, num_parts=2)
    try:
        ranks = g.pagerank(max_iter=3, as_table=True)["rank"].to_pylist()
        pool = list(g._hosts)
    finally:
        g.close()
    assert gm._idle_shards() == pool
    return pool, ranks


first, r1 = run()
ray.shutdown()
second, r2 = run()
assert not set(first) & set(second), "handed out an actor of an ended session"
assert len(gm._IDLE) == 1
assert r1 == r2 == [1.0, 1.0, 1.0], (r1, r2)
ray.shutdown()
print("STALE-OK")
"""


def test_idle_list_of_an_ended_session_is_not_used():
    """Two Ray sessions in one process; run in a subprocess so the test
    session's own Ray stays untouched."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (repo, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", STALE_SESSION],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert "STALE-OK" in out.stdout


def test_default_workdir_is_a_registered_spill(tmp_path):
    edges, verts = FIX["ring_n"]
    own = Graph(edges, vdf(verts), num_parts=2)
    given = Graph(edges, vdf(verts), num_parts=2, workdir=str(tmp_path / "wd"))
    try:
        for g in (own, given):
            g.pagerank(max_iter=2).to_pandas()
    finally:
        own.close()
        given.close()
    assert os.path.isdir(own.workdir) and os.path.isdir(given.workdir)
    cleanup_spills()
    assert not os.path.exists(own.workdir)
    assert os.path.isdir(given.workdir)  # a caller's workdir is theirs
