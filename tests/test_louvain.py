"""Louvain (SURVEY.md A.16) vs the exact numpy replay of the pinned
synchronous minimum-label semantics (pipelines/louvain.py module doc), plus
the singleton swap-guard, salted-hub bit-parity, parallelism invariance,
and multilevel quality sanity."""

import numpy as np
import pandas as pd
import pytest
import ray

from graphx_ray.pipelines.graph import Graph
from graphx_ray.pipelines.louvain import louvain_multilevel
from oracles import fixture_graphs, louvain_replay, modularity_num

FIX = fixture_graphs()


def _run(edges, *, num_parts=3, weighted=False, salt_threshold=None, rounds=10):
    g = Graph(
        ray.data.from_pandas(edges), num_parts=num_parts, salt_threshold=salt_threshold
    )
    try:
        return (
            g.louvain(max_rounds=rounds, weighted=weighted, as_table=True)
            .to_pandas()
            .sort_values("vid")
            .reset_index(drop=True)
        )
    finally:
        g.close()


@pytest.mark.parametrize(
    "name", ["two_cliques_bridge", "ring_n", "star_hub", "random_multi"]
)
def test_louvain_matches_replay(name, ray_session):
    edges, _ = FIX[name]
    got = _run(edges)
    want = louvain_replay(edges).sort_values("vid").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_louvain_weighted_self_loops(ray_session):
    edges = pd.DataFrame(
        {"src": [1, 1, 2, 3, 3, 5], "dst": [2, 2, 3, 3, 4, 5], "w": [3, 1, 2, 5, 1, 2]}
    )
    got = _run(edges, weighted=True, num_parts=2)
    want = louvain_replay(edges, weighted=True).sort_values("vid").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_louvain_singleton_swap_guard(ray_session):
    """One edge (10, 20): without the guard the two singletons swap labels
    forever; the pinned rule lets only the larger id move, converging to
    community 10 for both in two rounds."""
    edges = pd.DataFrame({"src": [10], "dst": [20]})
    got = _run(edges, num_parts=2)
    assert got["community"].tolist() == [10, 10]
    want = louvain_replay(edges).sort_values("vid").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_louvain_salted_hub_bit_parity(ray_session):
    rows = [(0, i) for i in range(1, 41)]
    rows += [(i, j) for i in range(50, 56) for j in range(i + 1, 56)]
    rows += [(1, 50), (2, 51)]
    edges = pd.DataFrame(rows, columns=["src", "dst"])
    plain = _run(edges, num_parts=4)
    salted = _run(edges, num_parts=4, salt_threshold=10)
    pd.testing.assert_frame_equal(plain, salted)
    want = louvain_replay(edges).sort_values("vid").reset_index(drop=True)
    pd.testing.assert_frame_equal(plain, want, check_dtype=False)


def test_louvain_parallelism_invariant(ray_session):
    edges, _ = FIX["random_multi"]
    outs = [_run(edges, num_parts=p) for p in (1, 3, 5)]
    for o in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], o)


def test_louvain_finds_planted_communities(ray_session):
    edges, _ = FIX["two_cliques_bridge"]
    got = _run(edges)
    lab = got.set_index("vid")["community"]
    a = {lab[v] for v in range(6)}
    b = {lab[v] for v in range(10, 16)}
    assert len(a) == 1 and len(b) == 1 and a != b
    num, den = modularity_num(edges, got)
    assert num / den > 0.35


def test_louvain_multilevel_quality(ray_session):
    rows = []
    for c in range(4):
        base = c * 10
        rows += [(base + i, base + j) for i in range(8) for j in range(i + 1, 8)]
    rows += [(0, 10), (10, 20), (20, 30), (30, 0)]
    edges = pd.DataFrame(rows, columns=["src", "dst"])
    ml = (
        louvain_multilevel(ray.data.from_pandas(edges), levels=3)
        .to_pandas()
        .sort_values("vid")
        .reset_index(drop=True)
    )
    assert len(ml) == 32
    lab1 = louvain_replay(edges)
    n1, d1 = modularity_num(edges, lab1)
    n2, d2 = modularity_num(edges, ml)
    assert n2 / d2 >= n1 / d1  # contraction never degrades the partition
    assert ml["community"].nunique() == 4
