"""Every consumer of the storage spill (``graphx_ray/state/spill.py``)
turns a 0-row input into a 0-row output with the columns and dtypes it
gives on rows (the schema is read through ``materialize().schema()``:
``to_pandas()`` drops the schema of an empty Dataset), and a spill
refuses part ids outside its range."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from graphx_ray.functions.dedup import verify_jaccard
from graphx_ray.stages.derive import (
    deterministic_shuffle,
    global_rank,
    grouped_reduce,
    partitioned_map,
)
from graphx_ray.stages.motif import bucket_join
from graphx_ray.stages.temporal import asof_join, range_join

KV = pa.table({"id": np.arange(12, dtype=np.int64),
               "k": np.arange(12, dtype=np.int64) % 4,
               "v": np.linspace(0.0, 5.5, 12)})
RIGHT = pa.table({"k": np.arange(6, dtype=np.int64) % 3,
                  "w": np.arange(6, dtype=np.int64) * 10,
                  "ts": np.arange(6, dtype=np.int64) * 7})
EVENTS = pa.table({"key": np.arange(10, dtype=np.int64) % 2,
                   "ts": np.arange(10, dtype=np.int64) * 5,
                   "ev": np.arange(10, dtype=np.int64)})
SPANS = pa.table({"key": np.array([0, 1, 0], np.int64),
                  "s": np.array([0, 10, 20], np.int64),
                  "e": np.array([15, 40, 45], np.int64),
                  "span": np.array([100, 101, 102], np.int64)})
DOCS = pa.table({"doc_id": np.arange(4, dtype=np.int64),
                 "text": ["the same words here and there", "the same words here and there",
                          "other text entirely about graphs", "the same words here or there"]})
PAIRS = pa.table({"a": np.array([0, 0, 1], np.int64), "b": np.array([1, 3, 3], np.int64)})


def _counts():
    """Per-key row counts (nested, so workers get it by value: they cannot
    import a test module)."""

    def counts(tbl: pa.Table) -> pa.Table:
        uniq, cnt = np.unique(tbl["k"].to_numpy(), return_counts=True)
        return pa.table({"k": pa.array(uniq, pa.int64()), "n": pa.array(cnt.astype(np.int64))})

    return counts


CASES = {
    "grouped_reduce": lambda t: grouped_reduce(t(KV), ["k"], sum_col="v", num_partitions=4),
    "partitioned_map": lambda t: partitioned_map(t(KV), ["k"], _counts(), num_partitions=4),
    **{
        f"bucket_join_{how}": (
            lambda t, how=how: bucket_join(t(KV), t(RIGHT), on="k", how=how, num_partitions=4)
        )
        for how in ("inner", "left", "semi", "anti", "outer")
    },
    "global_rank": lambda t: global_rank(t(KV), by="v", tiebreak="id", num_buckets=4),
    "deterministic_shuffle": lambda t: deterministic_shuffle(t(KV), on="id", num_buckets=4),
    "asof_join": lambda t: asof_join(
        t(EVENTS), t(RIGHT.rename_columns(["key", "w", "rts"])), left_key="key",
        right_key="key", left_ts="ts", right_ts="rts", right_cols=["w"], num_partitions=4,
    ),
    "range_join": lambda t: range_join(
        t(EVENTS), t(SPANS), point_key="key", interval_key="key", point_ts="ts",
        start_ts="s", end_ts="e", point_cols=["key", "ts", "ev"], interval_cols=["span"],
        bucket_us=16, num_partitions=4,
    ),
    "verify_jaccard": lambda t: verify_jaccard(t(PAIRS), t(DOCS), threshold=0.3, num_partitions=4),
}


def _schema(ds) -> list:
    sch = ds.materialize().schema()
    return list(zip(sch.names, [str(t) for t in sch.types]))


@pytest.mark.parametrize("case", list(CASES))
def test_empty_input_gives_empty_output_with_the_same_schema(ray_session, case):
    run = CASES[case]
    full = run(rd.from_arrow)
    assert full.count() > 0
    empty = run(lambda tbl: rd.from_arrow(tbl.slice(0, 0)))
    assert empty.count() == 0
    assert _schema(empty) == _schema(full)


def test_spill_rejects_part_ids_outside_its_range(ray_session):
    """A part id ≥ ``num_parts`` would be dropped by every consumer that
    walks ``range(num_parts)`` (CSR hosts, triangle buckets): it raises."""
    from graphx_ray.state.spill import spill

    with pytest.raises(ValueError, match=r"part ids \[5\] outside \[0, 4\)"):
        spill(rd.from_arrow(KV), lambda b: (b, np.full(b.num_rows, 5)), 4)
