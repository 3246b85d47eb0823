"""End-to-end training-data curation pipeline — the composition a 100 TB
corpus run would use, built entirely from the library's streaming
operators (nothing materializes the corpus):

    read → quality gate → exact dedup → near-dup removal → stats

Near-dup removal has two interchangeable stages:

- ``near_dup="minhash"`` (DEFAULT — the 100 TB path): MinHash banding
  emits candidate pairs (bucketed, never all-pairs), exact shingle-Jaccard
  verifies them distributed, then the engine's own distributed connected
  components clusters the near-dup graph and ONE survivor (the min doc_id)
  is kept per duplicate cluster — the standard corpus-dedup shape
  (candidates → verify → CC → pick representative).
- ``near_dup="exact"``: exact k-word-shingle Jaccard join. A shingle
  shared by s docs emits s²/2 pair rows — quadratic on hot shingles, so
  this is the small-corpus / oracle-replay path ONLY, kept because its
  greedy drop rule is trivially SQL-expressible. Drop rule here is
  greedy-by-id: drop every doc that appears as the LARGER member of any
  qualifying pair.

Every rule is pinned so the whole pipeline is SQL-oracle comparable:

- quality gate: n_words ≥ min_words AND n_punct·10 ≤ max_punct_decile·n_chars
  (integer arithmetic — no float threshold edge);
- exact dedup: keep the smallest doc_id per normalized-text fingerprint;
- output: (doc_id, n_ws_tokens) of kept docs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from graphx_ray.functions.dedup import (
    exact_dedup_rows,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    verify_jaccard,
)
from graphx_ray.functions.text import quality_scores, token_counts
from graphx_ray.stages.derive import anti_join


def curate(
    docs: Dataset,
    *,
    min_words: int = 5,
    max_punct_decile: int = 3,
    near_dup: str = "minhash",
    keep: str = "min_id",
    jaccard_k: int = 3,
    jaccard_threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    num_partitions: int = 8,
    concurrency: int = 4,
    broadcast_limit: int = 20_000_000,
) -> Dataset:
    """(doc_id, n_ws_tokens) of documents that survive the gate + dedups.

    ``keep`` picks the per-cluster survivor rule of the minhash path:
    ``"min_id"`` (the default representative) or ``"best"`` — the member
    with the MOST gate words (n_words DESC, doc_id ASC tie), the
    quality-aware selection a training-data dedup actually wants (keep
    the richest copy, drop the truncated ones)."""
    if near_dup not in ("minhash", "exact"):
        raise ValueError(near_dup)
    if keep not in ("min_id", "best"):
        raise ValueError(keep)
    if keep == "best" and near_dup != "minhash":
        raise ValueError("keep='best' needs the cluster rule (near_dup='minhash')")
    scored = quality_scores(docs, concurrency=concurrency)

    def gate(batch: pa.Table) -> pa.Table:
        nw = batch["n_words"].to_numpy()
        npc = batch["n_punct"].to_numpy()
        nc = batch["n_chars"].to_numpy()
        keep_m = (nw >= min_words) & (npc * 10 <= max_punct_decile * nc)
        return batch.filter(pa.array(keep_m))

    gated = scored.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)

    # surviving rows come straight out of the fingerprint shuffle — no
    # exact_dedup + broadcast semi_join (whose distinct-id ray.put is
    # corpus-cardinality: ~8 GB on the driver at 10^9 docs; VERDICT r3 #1)
    if keep == "best":
        # n_words rides through the (eager) dedup spill, so the survivor
        # scores come from its rows: the corpus is read and scored once
        cols = ["doc_id", "text", "n_words"]
        uniq = exact_dedup_rows(gated.select_columns(cols), columns=cols,
                                num_partitions=num_partitions)
        scores = uniq.select_columns(["doc_id", "n_words"])
    else:
        kept = gated.select_columns(["doc_id", "text"])
        scores = None
        uniq = exact_dedup_rows(kept, num_partitions=num_partitions)

    if near_dup == "minhash":
        drops = _minhash_cc_drops(
            uniq,
            num_perm=num_perm,
            bands=bands,
            k=jaccard_k,
            threshold=jaccard_threshold,
            num_partitions=num_partitions,
            concurrency=concurrency,
            scores=scores,
        )
        final = _anti_auto(uniq, drops, right_on="vid",
                           num_partitions=num_partitions,
                           broadcast_limit=broadcast_limit)
    else:
        pairs = ngram_jaccard_pairs(
            uniq, k=jaccard_k, threshold=jaccard_threshold,
            num_partitions=num_partitions,
        )
        final = _anti_auto(uniq, pairs.select_columns(["b"]), right_on="b",
                           num_partitions=num_partitions,
                           broadcast_limit=broadcast_limit)
    return token_counts(final).select_columns(["doc_id", "n_ws_tokens"])


def _anti_auto(
    uniq: Dataset,
    drops: Dataset,
    *,
    right_on: str,
    num_partitions: int,
    broadcast_limit: int,
) -> Dataset:
    """Anti-join the (duplicate-set-sized) drop ids out of ``uniq``:
    broadcast membership probe while the drop set honors the small-side
    contract, bucketed two-large-sides join past ``broadcast_limit`` rows
    (a poisoned corpus can make the duplicate set corpus-sized)."""
    from graphx_ray.stages.motif import bucket_join

    drops = drops.materialize()  # consumed twice (count + join); dup-set-sized
    if drops.count() <= broadcast_limit:
        return anti_join(uniq, drops, on="doc_id", right_on=right_on,
                         num_partitions=num_partitions)
    return bucket_join(uniq, drops, on="doc_id", right_on=right_on,
                       how="anti", num_partitions=num_partitions)


def _near_dup_components(
    docs: Dataset,
    *,
    num_perm: int,
    bands: int,
    k: int,
    threshold: float,
    num_partitions: int,
    concurrency: int,
    bucket_cap: int = 4096,
) -> Dataset:
    """(vid, component) over near-dup graph members only: MinHash-LSH
    candidates → exact-Jaccard verify → the engine's distributed
    connected components (component = min doc_id of the cluster)."""
    from graphx_ray.pipelines.graph import Graph

    cand = minhash_lsh_pairs(
        docs, num_perm=num_perm, bands=bands, k=k, concurrency=concurrency,
        bucket_cap=bucket_cap,
    )
    ver = verify_jaccard(
        cand, docs, threshold=threshold, k=k, num_partitions=num_partitions
    ).materialize()  # duplicate-PAIRS-sized, bounded; avoids re-running verify
    n_pairs = ver.count()

    def as_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch["a"].cast(pa.int64()),
                "dst": batch["b"].cast(pa.int64()),
                "w": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    edges = ver.map_batches(as_edges, batch_format="pyarrow", zero_copy_batch=True)
    # size the CC pool to the DUP graph, not the corpus: staging + the P²
    # ghost exchange are the fixed cost at small pair counts (~1M pairs
    # per part is comfortably CSR-shard-sized)
    cc_parts = int(min(num_partitions, max(2, n_pairs // 1_000_000 + 2)))
    g = Graph(edges, num_parts=cc_parts)
    try:
        # the graph is duplicate-pairs-sized, tiny relative to the corpus,
        # and stays a stream end to end (no driver table anywhere)
        return g.connected_components()
    finally:
        g.close()


def _minhash_cc_drops(
    uniq: Dataset,
    *,
    num_perm: int,
    bands: int,
    k: int,
    threshold: float,
    num_partitions: int,
    concurrency: int,
    scores: Dataset | None = None,
) -> Dataset:
    """doc_ids to DROP under the cluster rule: MinHash-LSH candidates →
    exact-Jaccard verify → connected components over the verified near-dup
    graph → every member except the min doc_id of its cluster drops.
    With ``scores`` (a (doc_id, n_words) Dataset) the survivor is instead
    the per-cluster argmax score (n_words DESC, doc_id ASC tie) via one
    ``grouped_top_k(k=1)`` over the dup-graph-sized member table.

    Scale: candidates are banded-bucket pairs (no all-pairs blow-up on hot
    shingles), verification is two storage-backed hash joins, clustering
    is the engine's distributed hash-min CC — each stage is bucketed or
    partition-parallel; nothing corpus-sized assembles anywhere."""
    cc = _near_dup_components(
        uniq, num_perm=num_perm, bands=bands, k=k, threshold=threshold,
        num_partitions=num_partitions, concurrency=concurrency,
    )

    if scores is None:
        def drops_only(batch: pa.Table) -> pa.Table:
            mask = pa.compute.not_equal(batch["vid"], batch["component"])
            return pa.table({"vid": batch["vid"].filter(mask)})

        return cc.map_batches(
            drops_only, batch_format="pyarrow", zero_copy_batch=True
        )

    # quality-aware survivor: join scores onto the dup-graph members,
    # grouped_top_k(k=1) picks (n_words DESC, doc_id ASC) per component,
    # everyone else drops — all stages dup-graph-sized
    from graphx_ray.stages.derive import grouped_top_k, semi_join
    from graphx_ray.stages.motif import bucket_join

    def sc_ren(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"svid": batch["doc_id"].cast(pa.int64()),
             "s": batch["n_words"].cast(pa.int64())}
        )

    cc = cc.materialize()  # consumed twice (member join + drop anti-join)
    members = bucket_join(
        cc, scores.map_batches(sc_ren, batch_format="pyarrow", zero_copy_batch=True),
        on="vid", right_on="svid", how="inner", num_partitions=num_partitions,
    )
    winners = grouped_top_k(
        members, ["component"], "s", 1, tie_cols=["vid"],
        num_partitions=num_partitions,
    )
    drops = semi_join(
        cc, winners.select_columns(["vid"]), on="vid", anti=True,
        num_partitions=num_partitions,
    )

    def vid_only(batch: pa.Table) -> pa.Table:
        return pa.table({"vid": batch["vid"].cast(pa.int64())})

    return drops.map_batches(vid_only, batch_format="pyarrow", zero_copy_batch=True)


def duplicate_clusters(
    docs: Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    k: int = 3,
    threshold: float = 0.5,
    num_partitions: int = 8,
    concurrency: int = 4,
    bucket_cap: int = 4096,
) -> Dataset:
    """Standalone near-duplicate CLUSTERING (the corpus-dedup shape,
    reusable outside ``curate``): MinHash-LSH candidates → exact-Jaccard
    verify → distributed connected components → (doc_id, cluster_id)
    for every document that belongs to a near-dup cluster (cluster_id =
    min doc_id of the cluster; singletons are omitted — they trivially
    cluster with themselves)."""
    cc = _near_dup_components(
        docs, num_perm=num_perm, bands=bands, k=k, threshold=threshold,
        num_partitions=num_partitions, concurrency=concurrency,
        bucket_cap=bucket_cap,
    )

    def as_clusters(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["vid"], "cluster_id": batch["component"]})

    return cc.map_batches(as_clusters, batch_format="pyarrow", zero_copy_batch=True)
