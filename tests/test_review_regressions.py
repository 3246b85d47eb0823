"""Regression tests for the round-2 code-review findings."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def test_verify_jaccard_duplicate_candidate_pairs():
    """A duplicated (a, b) candidate row must not inflate the jaccard."""
    from graphx_ray.functions.dedup import verify_jaccard

    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": [1, 2], "text": ["x y z q r", "a b c d e"]})
    )
    pairs = rd.from_pandas(pd.DataFrame({"a": [1, 1], "b": [2, 2]}))
    out = verify_jaccard(pairs, docs, threshold=0.01, k=3, num_partitions=3).to_pandas()
    assert len(out) == 0  # true jaccard is 0; the old code reported 2.0


def test_partitioned_map_empty_input_output_schema():
    """Empty input without empty_schema: output schema comes from fn."""
    from graphx_ray.stages.derive import partitioned_map

    empty = rd.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    )

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({"out_col": pa.array(np.zeros(t.num_rows, np.int64))})

    got = partitioned_map(empty, ["k"], fn, num_partitions=2)
    assert got.schema().names == ["out_col"]
    assert got.count() == 0


def test_pagerank_float32_resume(tmp_path):
    """Resuming a float32 checkpoint must not crash on the lazy casts."""
    from graphx_ray.pipelines.graph import Graph

    edges = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 0], "w": 1})
    ck = str(tmp_path / "ck")
    g = Graph(edges, pd.DataFrame({"vid": np.arange(4)}), num_parts=2)
    try:
        full = g.pagerank(max_iter=6, dtype="float32", checkpoint_dir=ck).to_pandas()
    finally:
        g.close()
    g2 = Graph(edges, pd.DataFrame({"vid": np.arange(4)}), num_parts=2)
    try:
        resumed = g2.pagerank(
            max_iter=6, dtype="float32", checkpoint_dir=ck, resume=True
        ).to_pandas()
    finally:
        g2.close()
    pd.testing.assert_frame_equal(
        full.sort_values("vid").reset_index(drop=True),
        resumed.sort_values("vid").reset_index(drop=True),
    )
