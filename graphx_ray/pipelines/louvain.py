"""Louvain community detection (SURVEY.md A.16).

The local moves run on the shards (``Graph.louvain``); their pinned
synchronous semantics (Blondel et al. 2008 modularity; the minimum-label
synchronous variant of Lu, Halappanavar & Kalyanaraman 2015, "Parallel
heuristics for scalable community detection") are replayed in numpy by
the test oracle ``louvain_replay`` (tests/oracles.py) and in SQL by the
unrolled oracle in ``__ray_entry__.py``.

This module holds ``louvain_multilevel``, the full Blondel multilevel
loop composed from scale primitives only: per level, engine local moves
to convergence, then community contraction via ``bucket_join`` +
``grouped_reduce`` (self-loops keep the internal weight; symmetric
staging counts them 2w in k), then recurse on the contracted graph and
compose the vid → community mapping back down. No stage materializes the
full graph on the driver.

Pinned per-round semantics (all exact int64, valid while 2m·k_max < 2^63):
vol(C) = Σ_{c(v)=C} k(v); per vertex v with A = c(v) and neighbor
community B: Δ̂(B) = 2m·w(v→B) − k(v)·vol′(B), vol′(B) = vol(B) − k(v)
iff B == A; v adopts argmax_{B≠A} Δ̂(B) (ties → smallest B) iff
Δ̂(B) > Δ̂(A) and not the singleton swap-guard (a singleton community may
join a singleton community only when the target id is smaller).
"""

from __future__ import annotations

import numpy as np

from ray.data import Dataset


def _undirected_weighted(edges: Dataset, weighted: bool) -> Dataset:
    """The level's u≤v weighted edge table (self-loops kept when weighted)."""
    import pyarrow as pa

    from graphx_ray.stages.derive import canonical_edges, grouped_reduce

    if not weighted:
        c = canonical_edges(edges)

        def add_w(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "w", pa.array(np.ones(batch.num_rows, np.int64))
            )

        return c.map_batches(add_w, batch_format="pyarrow", zero_copy_batch=True)

    def canon_keep_loops(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        w = (
            batch["w"].to_numpy().astype(np.int64)
            if "w" in batch.column_names
            else np.ones(len(src), np.int64)
        )
        return pa.table(
            {
                "u": pa.array(np.minimum(src, dst), type=pa.int64()),
                "v": pa.array(np.maximum(src, dst), type=pa.int64()),
                "w": pa.array(w, type=pa.int64()),
            }
        )

    c = edges.map_batches(canon_keep_loops, batch_format="pyarrow", zero_copy_batch=True)
    empty = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("w", pa.int64())]
    )
    return grouped_reduce(c, ["u", "v"], sum_col="w", empty_schema=empty)


def louvain_multilevel(
    edges,
    *,
    levels: int = 3,
    max_rounds: int = 10,
    weighted: bool = False,
    num_parts: int | None = None,
    salt_threshold: int | None = None,
) -> Dataset:
    """Full multilevel Louvain; returns (vid, community) over the ORIGINAL
    vertex ids. Each level's contracted graph is built with bucket joins +
    a keyed storage reduce — community ids are level-(L−1) labels, so the
    contracted vertex universe shrinks monotonically; the loop stops early
    when contraction no longer shrinks the graph."""
    import pyarrow as pa

    from graphx_ray.pipelines.graph import Graph, _as_dataset
    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.motif import bucket_join

    def _n_communities(mp: Dataset) -> int:
        empty = pa.schema([("community", pa.int64())])
        return grouped_reduce(
            mp.select_columns(["community"]), ["community"], empty_schema=empty
        ).count()

    edges = _as_dataset(edges)
    g = Graph(edges, num_parts=num_parts, salt_threshold=salt_threshold)
    mapping = g.louvain(max_rounds=max_rounds, weighted=weighted).materialize()
    cur = _undirected_weighted(edges, weighted).materialize()
    n_comm = _n_communities(mapping)

    for _ in range(1, levels):
        ju = bucket_join(cur, mapping, on="u", right_on="vid", how="inner")
        jv = bucket_join(
            ju.select_columns(["community", "v", "w"]),
            mapping,
            on="v",
            right_on="vid",
            how="inner",
        )

        def contract(batch: pa.Table) -> pa.Table:
            cu = batch["community"].to_numpy()
            cv = batch["community_r"].to_numpy()
            return pa.table(
                {
                    "u": pa.array(np.minimum(cu, cv), type=pa.int64()),
                    "v": pa.array(np.maximum(cu, cv), type=pa.int64()),
                    "w": pa.array(batch["w"].to_numpy().astype(np.int64)),
                }
            )

        empty = pa.schema([("u", pa.int64()), ("v", pa.int64()), ("w", pa.int64())])
        cur = grouped_reduce(
            jv.map_batches(contract, batch_format="pyarrow", zero_copy_batch=True),
            ["u", "v"],
            sum_col="w",
            empty_schema=empty,
        ).materialize()

        def as_directed(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"src": batch["u"], "dst": batch["v"], "w": batch["w"]}
            )

        g2 = Graph(
            cur.map_batches(as_directed, batch_format="pyarrow", zero_copy_batch=True),
            num_parts=num_parts,
            salt_threshold=salt_threshold,
        )
        lab2 = g2.louvain(max_rounds=max_rounds, weighted=True).materialize()
        n2 = _n_communities(lab2)
        if n2 >= n_comm:
            break
        n_comm = n2
        # compose: (vid → c1) ⋈ (c1 → c2) — keyed by the contracted vid
        comp = bucket_join(
            mapping, lab2, on="community", right_on="vid", how="inner"
        )

        def take(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"vid": batch["vid"], "community": batch["community_r"]}
            )

        mapping = comp.map_batches(
            take, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
    return mapping
