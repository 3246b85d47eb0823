"""GraphX ``PartitionStrategy`` parity (EdgePartition1D / EdgePartition2D /
RandomVertexCut / CanonicalRandomVertexCut) as edge-partition assigners.

GraphX partitions EDGES and replicates vertex attributes to every edge
partition touching the vertex; the replication factor (average number of
partitions per vertex) is the shuffle-traffic multiplier of every
superstep. The published bounds (Xin et al., GRADES'13):

- EdgePartition1D (hash src): replication up to P for a hub — the worst
  case the CSR staging counters with salted hub splitting;
- Random/CanonicalRandomVertexCut (hash the pair): a degree-d vertex is
  replicated min(d, P) times — good for low degrees, no hub bound;
- EdgePartition2D (√P × √P grid: column by src hash, row by dst hash):
  every vertex's edges live in one grid row plus one grid column ⇒
  replication ≤ 2·⌈√P⌉ − 1 REGARDLESS of degree — the dense-graph bound.

Hashes are the repo's splitmix64 (pinned, SQL-replayable) rather than
GraphX's literal mixing prime — semantics (the partition SHAPE and its
replication bound), not bit-layout, are the parity target.

The superstep engine's staging (``csr.stage_graph``) keeps its 1D
src-hash + salted-hub contract — CSR gather/scatter REQUIRES a vertex's
out-edges co-resident with its owned slice. These strategies serve the
edge-local workloads (triangle buckets, motif joins, mirrored-vertex
replication planning) and expose the GraphX surface; ``Graph.partition_by``
wires them onto an edge Dataset as a ``part`` column. Writing a cut to
storage goes through ``state/spill.py``, the one spill layout: pass
``assign_partitions`` as the part function of ``spill.spill``.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from graphx_ray.ids import mix64

STRATEGIES = (
    "EdgePartition1D",
    "EdgePartition2D",
    "RandomVertexCut",
    "CanonicalRandomVertexCut",
)

_SALT_SRC = np.uint64(0x9E3779B97F4A7C15)


def assign_partitions(
    src: np.ndarray, dst: np.ndarray, strategy: str, num_parts: int
) -> np.ndarray:
    """Vectorized partition id per edge under the named GraphX strategy."""
    P = np.uint64(num_parts)
    s = np.asarray(src).astype(np.uint64)
    d = np.asarray(dst).astype(np.uint64)
    if strategy == "EdgePartition1D":
        return (mix64(s) % P).astype(np.int32)
    if strategy == "RandomVertexCut":
        return (mix64(mix64(s) ^ d) % P).astype(np.int32)
    if strategy == "CanonicalRandomVertexCut":
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        return (mix64(mix64(lo) ^ hi) % P).astype(np.int32)
    if strategy == "EdgePartition2D":
        # GraphX: ceilSqrt × ceilSqrt grid, col by src, row by dst, then
        # fold back into [0, P) when P is not a perfect square (the same
        # last-column correction the published implementation applies)
        ceil_sqrt = np.uint64(int(math.ceil(math.sqrt(num_parts))))
        col = mix64(s) % ceil_sqrt
        row = mix64(d) % ceil_sqrt
        part = col * ceil_sqrt + row
        return (part % P).astype(np.int32)
    raise ValueError(f"unknown PartitionStrategy {strategy!r}; one of {STRATEGIES}")


def partition_by(
    edges: Dataset, strategy: str, num_parts: int, *, col: str = "part"
) -> Dataset:
    """GraphX ``Graph.partitionBy``: tag every edge with its partition id
    under ``strategy`` (a narrow per-batch transform; ``spill.spill``
    realizes the edge cut on storage)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown PartitionStrategy {strategy!r}; one of {STRATEGIES}")

    def tag(batch: pa.Table) -> pa.Table:
        p = assign_partitions(
            batch["src"].to_numpy(), batch["dst"].to_numpy(), strategy, num_parts
        )
        return batch.append_column(col, pa.array(p, type=pa.int32()))

    return edges.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def replication_factor(edges: Dataset, strategy: str, num_parts: int) -> float:
    """Average number of DISTINCT edge partitions per vertex — the
    vertex-attribute replication (and thus per-superstep mirror traffic)
    a strategy costs. Computed distributed: per-batch (vid, part) partials
    → one keyed storage reduce over distinct pairs → mean count."""
    from graphx_ray.stages.derive import grouped_reduce

    def pairs(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy()
        d = batch["dst"].to_numpy()
        p = assign_partitions(s, d, strategy, num_parts).astype(np.int64)
        vid = np.concatenate([s, d])
        pp = np.concatenate([p, p])
        key = np.stack([vid, pp], axis=1)
        uniq = np.unique(key, axis=0)
        return pa.table(
            {"vid": pa.array(uniq[:, 0], type=pa.int64()),
             "part": pa.array(uniq[:, 1], type=pa.int64())}
        )

    distinct = grouped_reduce(
        edges.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["vid", "part"],
        num_partitions=8,
    )

    def per_vid(batch: pa.Table) -> pa.Table:
        vid = batch["vid"].to_numpy()
        uniq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))}
        )

    counts = grouped_reduce(
        distinct.map_batches(per_vid, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"],
        sum_col="n",
        num_partitions=8,
    )
    # streaming scalar reduce — never materializes the O(V) count table
    # on the driver (Dataset.mean returns None on an empty dataset)
    m = counts.mean("n")
    return float(m) if m is not None else 0.0
