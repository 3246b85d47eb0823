"""Property-based tests (SURVEY.md §5.3, hypothesis): permutation
invariance, CC label laws, PageRank mass law, repartition round-trips."""

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphx_ray.pipelines.graph import Graph
from oracles import cc_oracle, pagerank_oracle

edge_lists = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25), st.integers(1, 3)),
    min_size=1,
    max_size=60,
)

SET = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def graph_of(edges_df):
    verts = np.unique(np.concatenate([edges_df["src"], edges_df["dst"]]))
    return (
        Graph(edges_df, pd.DataFrame({"vid": verts}), num_parts=3),
        verts,
    )


@given(edges=edge_lists, seed=st.integers(0, 2**16))
@SET
def test_pagerank_permutation_invariant_and_mass_law(edges, seed):
    df = pd.DataFrame(edges, columns=["src", "dst", "w"]).astype("int64")
    rng = np.random.default_rng(seed)
    shuffled = df.sample(frac=1.0, random_state=int(rng.integers(0, 2**31))).reset_index(
        drop=True
    )
    g, verts = graph_of(shuffled)
    try:
        got = g.pagerank(max_iter=6).to_pandas().sort_values("vid").reset_index(drop=True)
    finally:
        g.close()
    want = pagerank_oracle(df, verts, max_iter=6).sort_values("vid").reset_index(drop=True)
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-6, atol=1e-6)
    # mass law: Σr ≤ |V| (dangling mass leaks, never grows)
    assert got["rank"].sum() <= len(verts) + 1e-9
    # vertices with no in-edges sit exactly at α
    no_in = set(verts) - set(df["dst"])
    assert np.allclose(got[got["vid"].isin(no_in)]["rank"], 0.15, atol=1e-12)


@given(edges=edge_lists, seed=st.integers(0, 2**16))
@SET
def test_scc_permutation_invariant_and_label_law(edges, seed):
    from oracles import scc_oracle

    df = pd.DataFrame(edges, columns=["src", "dst", "w"]).astype("int64")
    rng = np.random.default_rng(seed)
    shuffled = df.sample(frac=1.0, random_state=int(rng.integers(0, 2**31))).reset_index(
        drop=True
    )
    g, verts = graph_of(shuffled)
    try:
        got = (
            g.strongly_connected_components()
            .to_pandas()
            .sort_values("vid")
            .reset_index(drop=True)
        )
    finally:
        g.close()
    want = scc_oracle(df, verts)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # law: every SCC label is a member vid and the min of its members
    grp = got.groupby("component")["vid"]
    assert (grp.min() == grp.min().index).all()


@given(edges=edge_lists)
@SET
def test_motif_chain_equals_bruteforce(edges):
    import ray.data as rd

    from graphx_ray.stages.motif import find

    df = pd.DataFrame(edges, columns=["src", "dst", "w"]).astype("int64")
    got = find(rd.from_pandas(df), "(a)-[]->(b); (b)-[]->(c)", num_partitions=3).to_pandas()
    # Ray quirk: to_pandas() of an empty Dataset drops the columns even
    # though ds.schema() is correct — guard the empty case
    got_set = set(map(tuple, got[["a", "b", "c"]].to_numpy())) if len(got) else set()
    pairs = set(zip(df["src"], df["dst"]))
    want = {(a, b, c) for a, b in pairs for b2, c in pairs if b2 == b}
    assert got_set == want


@given(edges=edge_lists)
@SET
def test_cc_label_is_min_of_component(edges):
    df = pd.DataFrame(edges, columns=["src", "dst", "w"]).astype("int64")
    g, verts = graph_of(df)
    try:
        got = g.connected_components().to_pandas().sort_values("vid").reset_index(drop=True)
    finally:
        g.close()
    want = cc_oracle(df, verts)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # law: every component label is a member vid and the min of its members
    grp = got.groupby("component")["vid"]
    assert (grp.min() == grp.min().index).all()
