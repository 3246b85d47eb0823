"""Keyed-sum microbenchmark for the storage-backed shuffle.

Sums a float column per int64 key three ways on the same Dataset
(``--rows`` rows, about 10 rows per key, ``--blocks`` input blocks):

- Ray's ``groupby("k").sum("v")`` (hash-aggregate operator);
- ``repartition(P, keys=["k"])`` plus a per-block pyarrow ``group_by``
  (in-memory hash shuffle; a key cut across blocks shows as split rows);
- ``derive.grouped_reduce`` (spill through storage, one task per part).

Every run is checked against a numpy reference; the table shows wall
seconds per method (min–max over ``--reps``) and whether the result was
exact. Runs in its own Ray session.

Usage: python scripts/shuffle_bench.py [--rows 200000] [--blocks 8]
       [--reps 3] [--cpus 4] [--parts 4]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=200_000)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--parts", type=int, default=4)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    from graphx_ray.context import ensure_hash_shuffle
    from graphx_ray.stages.derive import grouped_reduce

    rng = np.random.default_rng(7)
    k = rng.integers(0, max(1, args.rows // 10), args.rows).astype(np.int64)
    v = rng.integers(0, 1000, args.rows).astype(np.float64)  # exact float sums
    tbl = pa.table({"k": k, "v": v})
    uniq, inv = np.unique(k, return_inverse=True)
    want = np.bincount(inv, weights=v)

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    ensure_hash_shuffle()

    def dataset():
        step = -(-args.rows // args.blocks)
        return rd.from_arrow([tbl.slice(i * step, step) for i in range(args.blocks)])

    def per_block(t: pa.Table) -> pa.Table:
        return t.group_by("k").aggregate([("v", "sum")]).rename_columns(["k", "v"])

    methods = {
        "Ray `groupby().sum()`": lambda ds: ds.groupby("k").sum("v"),
        f"`repartition({args.parts}, keys=)` + per-block `group_by`": lambda ds: ds.repartition(
            args.parts, keys=["k"]).map_batches(per_block, batch_size=None, batch_format="pyarrow"),
        "`derive.grouped_reduce`": lambda ds: grouped_reduce(
            ds, ["k"], sum_col="v", num_partitions=args.parts),
    }
    print(f"| method | {args.rows / 1e6:g} M rows, s | exact |")
    print("|---|---|---|")
    for name, run in methods.items():
        secs, exact = [], True
        for _ in range(args.reps):
            t0 = time.perf_counter()
            out = pa.concat_tables(ray.get(run(dataset()).to_arrow_refs()))
            secs.append(time.perf_counter() - t0)
            got = out.rename_columns(["k", "v"]).sort_by("k")
            exact &= (got.num_rows == len(uniq)
                      and np.array_equal(got["k"].to_numpy(), uniq)
                      and np.array_equal(got["v"].to_numpy(), want))
        print(f"| {name} | {min(secs):.2f}–{max(secs):.2f} | {'yes' if exact else 'NO'} |")
    ray.shutdown()


if __name__ == "__main__":
    main()
