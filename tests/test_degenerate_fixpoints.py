"""Degenerate inputs through the peel and ball fixpoints: an empty edge
set, one edge, a self-loop-only vertex beside one edge, the star hub and
a 6-clique (every degree equal). Each operator returns its typed schema
with the networkx (or python oracle) answer over the canonical simple
graph: self-loops and parallel edges do not count."""

import networkx as nx
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from graphx_ray.pipelines.hyperanf import (
    BALL_SCHEMA,
    EFFDIAM_SCHEMA,
    HARMONIC_SCHEMA,
    effective_diameter,
    hyperanf,
    hyperball_harmonic,
)
from graphx_ray.stages.structural import (
    DENSEST_SCHEMA,
    TRUSS_SCHEMA,
    densest_subgraph,
    k_core,
    k_truss,
    trussness,
)
from oracles import fixture_graphs
from test_densest import densest_oracle
from test_hyperanf import _effdiam_ref, anf_oracle
from test_trussness import _truss_nx


def _edges(pairs) -> pd.DataFrame:
    a = np.array(pairs, np.int64).reshape(-1, 2)
    return pd.DataFrame({"src": a[:, 0], "dst": a[:, 1], "w": np.ones(len(a), np.int64)})


INPUTS = {
    "empty": _edges([]),
    "one_edge": _edges([(1, 2)]),
    "self_loop_beside_edge": _edges([(0, 0), (1, 2)]),
    "star_hub": fixture_graphs()["star_hub"][0],
    "clique6": _edges([(i, j) for i in range(6) for j in range(i + 1, 6)]),
}


def _simple(df: pd.DataFrame) -> pd.DataFrame:
    """The canonical simple graph's rows: self-loops dropped."""
    return df[df["src"] != df["dst"]].reset_index(drop=True)


def _graph(df: pd.DataFrame):
    return nx.Graph(zip(_simple(df)["src"], _simple(df)["dst"]))


def _kcore_want(df):
    core = nx.k_core(_graph(df), 2)
    return pd.DataFrame(sorted(core.degree()), columns=["vid", "deg"])


def _ktruss_want(df):
    es = {tuple(sorted(e)) for e in nx.k_truss(_graph(df), 3).edges()}
    return pd.DataFrame(sorted(es), columns=["u", "v"])


def _trussness_want(df):
    t = _truss_nx(_graph(df))
    return pd.DataFrame(sorted((u, v, k) for (u, v), k in t.items()),
                        columns=["u", "v", "trussness"])


def _harmonic_want(df):
    b = anf_oracle(_simple(df), p=4, iters=2)
    if not len(b):
        return pd.DataFrame(columns=["vid", "harmonic_2e6"])
    piv = b.pivot(index="vid", columns="t", values="ball")
    h = (piv[1] - piv[0]) * 2_000_000 + (piv[2] - piv[1]) * 1_000_000
    return h.astype(np.int64).rename("harmonic_2e6").reset_index()


def _effdiam_want(df):
    if not len(_simple(df)):
        return pd.DataFrame(columns=["eff_diameter_e6", "n_total"])
    d, n = _effdiam_ref(_simple(df), p=4, iters=2)
    return pd.DataFrame({"eff_diameter_e6": [d], "n_total": [n]})


OPS = {
    "k_core": (lambda ds: k_core(ds, 2, num_partitions=3),
               pa.schema([("vid", pa.int64()), ("deg", pa.int64())]), _kcore_want),
    "k_truss": (lambda ds: k_truss(ds, 3, num_partitions=3),
                pa.schema([("u", pa.int64()), ("v", pa.int64())]), _ktruss_want),
    "trussness": (lambda ds: trussness(ds, num_partitions=3), TRUSS_SCHEMA,
                  _trussness_want),
    "densest_subgraph": (lambda ds: densest_subgraph(ds, num_partitions=3),
                         DENSEST_SCHEMA, densest_oracle),
    "hyperanf": (lambda ds: hyperanf(ds, p=4, iters=2, num_parts=3), BALL_SCHEMA,
                 lambda df: anf_oracle(_simple(df), p=4, iters=2)),
    "hyperball_harmonic": (lambda ds: hyperball_harmonic(ds, p=4, iters=2, num_parts=3),
                           HARMONIC_SCHEMA, _harmonic_want),
    "effective_diameter": (lambda ds: effective_diameter(ds, p=4, iters=2, num_parts=3),
                           EFFDIAM_SCHEMA, _effdiam_want),
}


@pytest.mark.parametrize("name", list(INPUTS))
@pytest.mark.parametrize("op", list(OPS))
def test_degenerate_input(op, name, ray_session):
    run, schema, want_of = OPS[op]
    df = INPUTS[name]
    ds = run(rd.from_pandas(df)).materialize()
    # to_pandas drops an empty Dataset's schema: check it on the blocks
    assert ds.schema().base_schema == schema, ds.schema()
    want = want_of(df)
    got = ds.to_pandas()
    if not len(want):
        assert len(got) == 0
        return
    cols = list(want.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want.sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
