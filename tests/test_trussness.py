"""Full truss decomposition (structural.trussness): networkx k-truss
membership parity at every k, parallelism invariance, and the k_truss
consistency law (k-truss edges == edges with trussness ≥ k)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from graphx_ray.stages.structural import k_truss, trussness


def _truss_nx(G):
    nx = pytest.importorskip("networkx")
    G = nx.Graph((u, v) for u, v in G.edges if u != v)
    out = {tuple(sorted(e)): 2 for e in G.edges}
    k = 3
    while True:
        H = nx.k_truss(G, k)
        if H.number_of_edges() == 0:
            break
        for e in H.edges:
            out[tuple(sorted(e))] = k
        k += 1
    return out


def _df(G):
    return pd.DataFrame(
        [(u, v, 1) for u, v in G.edges], columns=["src", "dst", "w"]
    )


def _as_dict(df):
    return {(int(r.u), int(r.v)): int(r.trussness) for r in df.itertuples()}


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_trussness_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    G = nx.gnm_random_graph(28, 110, seed=seed)
    got = _as_dict(trussness(rd.from_pandas(_df(G)), num_partitions=4).to_pandas())
    assert got == _truss_nx(G)


def test_trussness_p_invariance():
    nx = pytest.importorskip("networkx")
    G = nx.gnm_random_graph(35, 160, seed=11)
    df = _df(G)
    eng2 = trussness(rd.from_pandas(df), num_partitions=2).to_pandas()
    eng7 = trussness(rd.from_pandas(df), num_partitions=7).to_pandas()
    a, b = map(_as_dict, (eng2, eng7))
    assert a == b == _truss_nx(G)


def test_trussness_ktruss_consistency():
    nx = pytest.importorskip("networkx")
    G = nx.gnm_random_graph(24, 95, seed=5)
    t = _as_dict(trussness(rd.from_pandas(_df(G)), num_partitions=4).to_pandas())
    for k in (3, 4):
        kt = k_truss(rd.from_pandas(_df(G)), k, num_partitions=4).to_pandas()
        ks = {(int(r.u), int(r.v)) for r in kt.itertuples()}
        assert ks == {e for e, tv in t.items() if tv >= k}


def test_trussness_clique_pendant_and_triangle_free():
    nx = pytest.importorskip("networkx")
    G = nx.complete_graph(6)
    G.add_edge(0, 99)  # pendant edge: trussness 2
    got = _as_dict(trussness(rd.from_pandas(_df(G)), num_partitions=2).to_pandas())
    assert got == _truss_nx(G)
    assert got[(0, 99)] == 2
    assert all(v == 6 for e, v in got.items() if e != (0, 99))
    # triangle-free star: everything 2, all edges present
    star = pd.DataFrame({"src": [0, 0, 0], "dst": [1, 2, 3], "w": [1] * 3})
    res = trussness(rd.from_pandas(star), num_partitions=2).to_pandas()
    assert len(res) == 3 and (res["trussness"] == 2).all()
    # duplicate + self-loop edges collapse before decomposition
    dup = pd.DataFrame(
        {"src": [1, 1, 2, 2, 3, 3], "dst": [2, 2, 3, 2, 1, 1], "w": [1] * 6}
    )
    res = trussness(rd.from_pandas(dup), num_partitions=2).to_pandas()
    got = _as_dict(res)
    assert got == {(1, 2): 3, (2, 3): 3, (1, 3): 3}


def test_trussness_checkpoint_resume_bit_identical(tmp_path):
    """Kill-and-resume for the truss H-index pool: a run killed after 2
    rounds resumes from its checkpoint to the identical (int64 —
    bit-stable) trussness table as the uninterrupted run."""
    import warnings

    nx = pytest.importorskip("networkx")
    G = nx.gnm_random_graph(40, 220, seed=13)
    df = _df(G)

    full = (
        trussness(rd.from_pandas(df), num_partitions=3)
        .to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
    )
    ck = str(tmp_path / "truss_ck")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # exhausted max_rounds
        trussness(
            rd.from_pandas(df), num_partitions=3, max_rounds=2,
            checkpoint_dir=ck,
        ).to_pandas()  # consume: executes the truncated run
    resumed = (
        trussness(rd.from_pandas(df), num_partitions=3, checkpoint_dir=ck,
                  resume=True)
        .to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(resumed, full)
    assert _as_dict(resumed) == _truss_nx(G)
