"""Checkpoint/resume bit-identity (FIXTURES.md §5, north_rule: resumable
from checkpoint with per-partition lineage + metrics)."""

import json
import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from graphx_ray.pipelines.graph import Graph
from graphx_ray.sources.synth import gen_transcripts_local
from graphx_ray.stages.derive import build_graph


@pytest.fixture(scope="module")
def graph_edges(tmp_path_factory):
    tx = gen_transcripts_local(200, seed=42, n_hours=8)
    verts, edges = build_graph(rd.from_arrow(tx), num_partitions=3)
    return verts.to_pandas()[["vid"]], edges.to_pandas()


def test_pagerank_resume_bit_identical(graph_edges, tmp_path):
    vdf, edf = graph_edges
    ck = str(tmp_path / "ck")

    # uninterrupted run
    g1 = Graph(edf, vdf, num_parts=3)
    full = g1.pagerank(max_iter=8).to_pandas().sort_values("vid").reset_index(drop=True)
    g1.close()

    # interrupted: 4 iterations with checkpoints, then fresh engine resumes
    g2 = Graph(edf, vdf, num_parts=3)
    g2.pagerank(max_iter=4, checkpoint_dir=ck)
    g2.close()
    assert os.path.exists(os.path.join(ck, "_manifest-000003.json"))

    g3 = Graph(edf, vdf, num_parts=3)
    resumed = (
        g3.pagerank(max_iter=8, checkpoint_dir=ck, resume=True)
        .to_pandas()
        .sort_values("vid")
        .reset_index(drop=True)
    )
    g3.close()

    # BIT-identical, not just allclose
    assert np.array_equal(
        full["rank"].to_numpy().view(np.int64), resumed["rank"].to_numpy().view(np.int64)
    )


def test_incomplete_checkpoint_ignored(graph_edges, tmp_path):
    """A manifest without its part files (kill mid-write) must be skipped."""
    vdf, edf = graph_edges
    ck = str(tmp_path / "ck2")
    g = Graph(edf, vdf, num_parts=3)
    g.pagerank(max_iter=3, checkpoint_dir=ck)
    g.close()
    # corrupt newest iteration: delete one part file
    os.remove(os.path.join(ck, "iter=000002", "part-1.parquet"))

    g2 = Graph(edf, vdf, num_parts=3)
    resumed = g2.pagerank(max_iter=3, checkpoint_dir=ck, resume=True)
    g2.close()
    g3 = Graph(edf, vdf, num_parts=3)
    full = g3.pagerank(max_iter=3)
    g3.close()
    a = resumed.to_pandas().sort_values("vid")["rank"].to_numpy()
    b = full.to_pandas().sort_values("vid")["rank"].to_numpy()
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_cc_resume_and_metrics(graph_edges, tmp_path):
    vdf, edf = graph_edges
    ck = str(tmp_path / "ck3")
    wd = str(tmp_path / "wd")
    g = Graph(edf, vdf, num_parts=3, workdir=wd)
    comp = g.connected_components(checkpoint_dir=ck).to_pandas()
    g.close()
    # metrics lineage written per superstep
    lines = [json.loads(l) for l in open(os.path.join(wd, "metrics.jsonl"))]
    assert any(r["algo"] == "cc" for r in lines)
    assert lines[-1]["changed"] == 0
    # resume from the converged checkpoint returns identical labels
    g2 = Graph(edf, vdf, num_parts=3)
    comp2 = g2.connected_components(checkpoint_dir=ck, resume=True).to_pandas()
    g2.close()
    pd.testing.assert_frame_equal(
        comp.sort_values("vid").reset_index(drop=True),
        comp2.sort_values("vid").reset_index(drop=True),
    )


def test_coreness_checkpoint_resume_bit_identical(ray_session, tmp_path):
    """Kill-and-resume for the coreness H-index loop: resuming from a
    mid-run checkpoint yields the identical (int64 — bit-stable) core
    numbers as the uninterrupted run."""
    import ray.data as rd

    from graphx_ray.stages.structural import coreness

    rng = np.random.default_rng(21)
    n = 3000
    edges = pd.DataFrame({"src": rng.integers(0, 400, n), "dst": rng.integers(0, 400, n)})
    edges = edges[edges.src != edges.dst]
    u = np.minimum(edges.src, edges.dst)
    v = np.maximum(edges.src, edges.dst)
    canon = pd.DataFrame({"src": u, "dst": v}).drop_duplicates().reset_index(drop=True)
    ds = rd.from_pandas(canon)

    full = coreness(ds, num_partitions=3).to_pandas().sort_values("vid").reset_index(drop=True)

    ck = str(tmp_path / "core_ck")
    # simulated kill: run only 2 rounds with checkpointing
    partial = coreness(ds, num_partitions=3, max_rounds=2, checkpoint_dir=ck)
    partial.to_pandas()  # consume
    # resume to the fixpoint
    resumed = (
        coreness(ds, num_partitions=3, checkpoint_dir=ck, resume=True)
        .to_pandas().sort_values("vid").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(resumed, full)


def test_hits_resume_bit_identical(graph_edges, tmp_path):
    vdf, edf = graph_edges
    ck = str(tmp_path / "ck_hits")

    g1 = Graph(edf, vdf, num_parts=3)
    full = g1.hits(max_iter=8).to_pandas().sort_values("vid").reset_index(drop=True)
    g1.close()

    g2 = Graph(edf, vdf, num_parts=3)
    g2.hits(max_iter=4, checkpoint_dir=ck)
    g2.close()
    assert os.path.exists(os.path.join(ck, "_manifest-000003.json"))

    g3 = Graph(edf, vdf, num_parts=3)
    resumed = (
        g3.hits(max_iter=8, checkpoint_dir=ck, resume=True)
        .to_pandas()
        .sort_values("vid")
        .reset_index(drop=True)
    )
    g3.close()

    for col in ("hub", "auth"):
        assert np.array_equal(
            full[col].to_numpy().view(np.int64),
            resumed[col].to_numpy().view(np.int64),
        ), col


def test_louvain_resume_bit_identical(tmp_path, ray_session):
    rng = np.random.default_rng(17)
    edf = pd.DataFrame(
        {"src": rng.integers(0, 60, 350), "dst": rng.integers(0, 60, 350)}
    )
    ck = str(tmp_path / "ck_lv")

    g1 = Graph(rd.from_pandas(edf), num_parts=3)
    full = (
        g1.louvain(max_rounds=8, as_table=True)
        .to_pandas().sort_values("vid").reset_index(drop=True)
    )
    g1.close()

    g2 = Graph(rd.from_pandas(edf), num_parts=3)
    g2.louvain(max_rounds=3, checkpoint_dir=ck)
    g2.close()

    g3 = Graph(rd.from_pandas(edf), num_parts=3)
    resumed = (
        g3.louvain(max_rounds=8, checkpoint_dir=ck, resume=True, as_table=True)
        .to_pandas().sort_values("vid").reset_index(drop=True)
    )
    g3.close()
    pd.testing.assert_frame_equal(full, resumed)


def test_matching_resume_bit_identical(tmp_path, ray_session):
    rng = np.random.default_rng(23)
    edf = pd.DataFrame(
        {"src": rng.integers(0, 80, 300), "dst": rng.integers(0, 80, 300)}
    )
    ck = str(tmp_path / "ck_mm")

    g1 = Graph(rd.from_pandas(edf), num_parts=3)
    full = (
        g1.maximal_matching(as_table=True)
        .to_pandas().sort_values("vid").reset_index(drop=True)
    )
    g1.close()

    g2 = Graph(rd.from_pandas(edf), num_parts=3)
    g2.maximal_matching(max_rounds=2, checkpoint_dir=ck)
    g2.close()

    g3 = Graph(rd.from_pandas(edf), num_parts=3)
    resumed = (
        g3.maximal_matching(checkpoint_dir=ck, resume=True, as_table=True)
        .to_pandas().sort_values("vid").reset_index(drop=True)
    )
    g3.close()
    pd.testing.assert_frame_equal(full, resumed)
