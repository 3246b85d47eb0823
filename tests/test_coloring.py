"""SURVEY.md A.14 iterated-MIS greedy coloring: dict-equal vs an
independent per-color Luby replay, proper-coloring property, full
coverage, parallelism invariance, and the salted-hub path."""

import numpy as np
import pandas as pd
import pytest

from graphx_ray.ids import mix64
from graphx_ray.pipelines.graph import Graph
from oracles import fixture_graphs

FIX = fixture_graphs()


def _canon(edges, verts):
    canon = set()
    for s, d in zip(edges["src"], edges["dst"]):
        if s != d:
            canon.add((min(s, d), max(s, d)))
    nbrs = {int(v): set() for v in verts}
    for u, v in canon:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return canon, nbrs


def coloring_oracle(edges, verts, seed, max_colors=100, max_rounds=100):
    _, nbrs = _canon(edges, verts)
    clr = {int(v): -1 for v in verts}
    for c in range(max_colors):
        unc = [v for v in clr if clr[v] == -1]
        if not unc:
            break
        cc = mix64(np.uint64(seed) ^ np.uint64(c))
        status = {v: 0 for v in unc}
        for r in range(max_rounds):
            rc = int(mix64(np.uint64(cc) ^ np.uint64(r)))
            p = {
                v: (int(mix64(np.uint64(rc) ^ np.uint64(v))) >> 3) + 1
                for v in status
                if status[v] == 0
            }
            joined = [
                v for v in p
                if all(p[u] < p[v] for u in nbrs[v] if status.get(u, -1) == 0)
            ]
            for v in joined:
                status[v] = 1
            for v in joined:
                for u in nbrs[v]:
                    if status.get(u) == 0:
                        status[u] = 2
            if all(s != 0 for s in status.values()):
                break
        for v, s in status.items():
            if s == 1:
                clr[v] = c
    return clr


def make_graph(name, **kw):
    edges, verts = FIX[name]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    return Graph(edges, vdf, num_parts=3, **kw)


@pytest.mark.parametrize("name", list(FIX.keys()))
def test_coloring_matches_oracle_and_is_proper(name):
    edges, verts = FIX[name]
    g = make_graph(name)
    try:
        got = g.greedy_coloring(seed=5).to_pandas()
    finally:
        g.close()
    gd = dict(zip(got["vid"].astype(int), got["color"].astype(int)))
    assert gd == coloring_oracle(edges, verts, 5)
    # every vertex colored, and no edge is monochromatic
    assert all(c >= 0 for c in gd.values())
    canon, _ = _canon(edges, verts)
    assert all(gd[u] != gd[v] for u, v in canon)
    # colors are consecutive from 0
    used = sorted(set(gd.values()))
    assert used == list(range(len(used)))


def test_coloring_parallelism_invariant():
    edges, verts = FIX["random_multi"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    outs = []
    for parts in (2, 5):
        g = Graph(edges, vdf, num_parts=parts)
        try:
            outs.append(
                g.greedy_coloring(seed=11, as_table=True)
                .to_pandas()
                .sort_values("vid")
                .reset_index(drop=True)
            )
        finally:
            g.close()
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_coloring_salted_hub():
    edges, verts = FIX["star_hub"]
    vdf = pd.DataFrame({"vid": verts.astype(np.int64)})
    g = Graph(edges, vdf, num_parts=3, salt_threshold=50)
    try:
        got = g.greedy_coloring(seed=5, as_table=True).to_pandas()
    finally:
        g.close()
    gd = dict(zip(got["vid"].astype(int), got["color"].astype(int)))
    assert gd == coloring_oracle(edges, verts, 5)


def test_coloring_max_colors_warns_and_leaves_minus_one():
    edges, verts = FIX["two_cliques_bridge"]
    g = make_graph("two_cliques_bridge")
    try:
        with pytest.warns(RuntimeWarning, match="uncolored"):
            got = g.greedy_coloring(seed=5, max_colors=1, as_table=True).to_pandas()
    finally:
        g.close()
    assert (got["color"] == -1).any()
    assert set(got["color"]).issubset({-1, 0})


def test_coloring_pinned_round_budget_matches_replay():
    """The driver-gate contract: (max_colors, max_rounds) pinned small —
    per-color MIS may be non-maximal, later colors absorb the remainder;
    the python replay with the same budget is bit-identical and the
    result is still a proper coloring."""
    edges, verts = FIX["random_multi"]
    g = make_graph("random_multi")
    try:
        got = g.greedy_coloring(
            seed=42, max_colors=10, max_rounds=2, as_table=True
        ).to_pandas()
    finally:
        g.close()
    gd = dict(zip(got["vid"].astype(int), got["color"].astype(int)))
    assert gd == coloring_oracle(edges, verts, 42, max_colors=10, max_rounds=2)
    for a, b in zip(edges["src"], edges["dst"]):
        if a != b and gd[int(a)] >= 0:
            assert gd[int(a)] != gd[int(b)]
