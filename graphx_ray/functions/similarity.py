"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: exact cosine top-k of every row against a broadcast
  query matrix — one numpy matmul per batch (``ray.put`` the queries ONCE,
  zero-copy reads in every task).
- ``ivf_topk``: the scale path — k-means-style coarse quantizer (trained on
  a driver-side sample), vectors bucketed by nearest centroid with one hash
  shuffle, queries probe only ``nprobe`` buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from graphx_ray.context import ensure_hash_shuffle
from graphx_ray.state.spill import spill


def _matrix(batch: pa.Table, col: str) -> np.ndarray:
    """(n, d) float64 from a list<float> / tensor-extension column, no row loop."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), np.float64)
    # float64 throughout: scores must be comparable to a SQL double oracle
    if hasattr(arr, "flatten"):  # ListArray / FixedSizeListArray
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(n, -1)
    # Ray's ArrowTensorArray (from_pandas of object-array vectors)
    m = arr.to_numpy(zero_copy_only=False)
    if m.dtype == object:
        m = np.stack(m)
    return np.ascontiguousarray(m, dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-30)


_SCORER_SLOT: list = [None, None]  # (scorer refs key, prepared arrays): one per process


class _RefScorer:
    """Base of the top-k scoring stages, run as tasks. The broadcast arrays
    arrive as ObjectRefs; each worker process fetches and prepares them
    (``_prepare``) once, in a one-slot cache keyed by the refs, so they
    never ship inside a task and another call's arrays replace them
    instead of mixing with them."""

    def __init__(self, refs: tuple, k: int, id_col: str, vec_col: str):
        self.refs = refs
        self.k = k
        self.id_col, self.vec_col = id_col, vec_col

    def _state(self) -> tuple:
        key = (type(self).__name__,) + tuple(r.hex() for r in self.refs)
        if _SCORER_SLOT[0] != key:
            _SCORER_SLOT[:] = [key, self._prepare(*ray.get(list(self.refs)))]
        return _SCORER_SLOT[1]


class TopKScorer(_RefScorer):
    """Task stage: batch × broadcast-queries cosine, per-query running
    top-k merged across batches by a final groupby-free reduction."""

    def __init__(self, q_ref, qid_ref, k: int, id_col: str, vec_col: str):
        super().__init__((q_ref, qid_ref), k, id_col, vec_col)

    @staticmethod
    def _prepare(q, qids) -> tuple:
        return _normalize(q.astype(np.float64)), qids

    def __call__(self, batch: pa.Table) -> pa.Table:
        q, qids = self._state()
        ids = batch[self.id_col].to_numpy()
        m = _normalize(_matrix(batch, self.vec_col))
        if len(ids) == 0 or m.size == 0:
            return pa.table(
                {"query_id": pa.array([], pa.int64()), "nbr_id": pa.array([], pa.int64()),
                 "sim": pa.array([], pa.float64())}
            )
        sims = m @ q.T  # (n_batch, n_queries)
        k = min(self.k, len(ids))
        top = np.argpartition(-sims, k - 1, axis=0)[:k]  # per-query candidates
        nq = sims.shape[1]
        # keep ALL ties at the k-th score: batch-local pruning by sim alone
        # could otherwise drop the candidate the global (sim DESC, nbr_id ASC)
        # rule would keep
        kth = sims[top, np.arange(nq)[None, :]].min(axis=0)
        rows, qcols = np.nonzero(sims >= kth[None, :])
        qcol = qids[qcols]
        ncol = ids[rows]
        scol = sims[rows, qcols]
        return pa.table(
            {
                "query_id": pa.array(qcol, type=pa.int64()),
                "nbr_id": pa.array(ncol, type=pa.int64()),
                "sim": pa.array(scol.astype(np.float64)),
            }
        )


def brute_force_topk(
    vectors: Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
) -> pa.Table:
    """Exact cosine top-k per query. Per-batch partial top-k (combiner),
    final exact top-k on the (tiny) union of partials. ``concurrency``
    caps the number of concurrent scoring tasks."""
    q_ref = ray.put(np.asarray(queries, dtype=np.float64))
    qid_ref = ray.put(np.asarray(query_ids, dtype=np.int64))
    return _final_topk(_score(vectors, TopKScorer(q_ref, qid_ref, k, id_col, vec_col),
                              concurrency), k)


def _score(vectors: Dataset, scorer: _RefScorer, concurrency: int) -> Dataset:
    """Per-batch partial top-ks of ``scorer``, as tasks: a stage holding
    no data reserves no CPU (a half-CPU actor pool of four stalled a
    2-CPU session), and ``concurrency`` caps the tasks."""
    return vectors.map_batches(
        scorer, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency, batch_size=4096,
    )


def _final_topk(partials: Dataset, k: int) -> pa.Table:
    """Distributed exact final top-k over per-batch candidate partials
    (VERDICT r3 #4: the former driver-pandas groupby-head saw
    O(blocks·Q·k) rows; ``grouped_top_k`` is the keyed-shuffle reduce for
    exactly this shape). Only the exact Q·k result — with simrank = rank
    within query by (sim DESC, nbr_id ASC) — materializes on the driver."""
    from graphx_ray.stages.derive import grouped_top_k

    top = grouped_top_k(
        partials, ["query_id"], "sim", k, tie_cols=["nbr_id"], num_partitions=8
    )
    df = top.to_pandas()  # exact result: ≤ Q·k rows
    df = df.sort_values(["query_id", "sim", "nbr_id"], ascending=[True, False, True])
    df = df.reset_index(drop=True)
    df["simrank"] = df.groupby("query_id").cumcount().astype(np.int64)
    return pa.Table.from_pandas(df, preserve_index=False)


def cosine_near_dup_pairs(
    vectors: Dataset,
    *,
    threshold: float = 0.9,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_buckets: int = 8,
) -> Dataset:
    """EXACT embedding-cosine near-duplicate pairs (a < b, sim ≥ threshold).

    2D-bucketed all-pairs: vectors spill hash-partitioned by id into B
    buckets ONCE; one task per bucket pair (i ≤ j) loads the two slices and
    does a single (n/B × n/B) matmul. Work is the honest O(n²·d/B) of an
    exact all-pairs scan, spread over B·(B+1)/2 independent tasks — the
    approximate scale path is ``cosine_near_dup_lsh``."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from graphx_ray.ids import part_of

    B = num_buckets
    buckets = spill(
        vectors,
        lambda b: (b.select([id_col, vec_col]), part_of(b[id_col].to_numpy(), B)),
        B,
    )

    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "sim": pa.array([], pa.float64())}
    )

    def load(bk: int):
        d = buckets.path(bk)
        if d is None:
            return np.empty(0, np.int64), np.empty((0, 0))
        t = pq.read_table(d, columns=[id_col, vec_col])
        ids = t[id_col].to_numpy()
        order = np.argsort(ids)
        m = _normalize(_matrix(t, vec_col))
        return ids[order], m[order]

    def pair_task(batch: pa.Table) -> pa.Table:
        i, j = int(batch["i"][0].as_py()), int(batch["j"][0].as_py())
        ids_i, m_i = load(i)
        if len(ids_i) == 0:
            return empty
        if i == j:
            sims = m_i @ m_i.T
            r, c = np.nonzero(np.triu(sims >= threshold, k=1))
            a = np.minimum(ids_i[r], ids_i[c])
            b = np.maximum(ids_i[r], ids_i[c])
            s = sims[r, c]
        else:
            ids_j, m_j = load(j)
            if len(ids_j) == 0:
                return empty
            sims = m_i @ m_j.T
            r, c = np.nonzero(sims >= threshold)
            a = np.minimum(ids_i[r], ids_j[c])
            b = np.maximum(ids_i[r], ids_j[c])
            s = sims[r, c]
        keep = a != b
        return pa.table(
            {"a": pa.array(a[keep]), "b": pa.array(b[keep]),
             "sim": pa.array(s[keep].astype(np.float64))}
        )

    tasks = [{"i": i, "j": j} for i in range(B) for j in range(i, B)]
    return rd.from_items(tasks).map_batches(
        pair_task, batch_size=1, batch_format="pyarrow"
    )


def cosine_near_dup_lsh(
    vectors: Dataset,
    *,
    threshold: float = 0.9,
    n_planes: int = 16,
    bands: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 23,
    num_partitions: int = 8,
    planes: str = "normal",
) -> Dataset:
    """Approximate near-dup pairs at scale: random-hyperplane LSH (sign
    sketch, banded) proposes candidates, exact cosine verifies inside each
    co-located bucket — no all-pairs, one storage-backed shuffle.

    ``planes="rademacher"`` draws ±1 hyperplanes from splitmix64 bits
    instead of gaussians: the ±sums of raw float32 values are EXACT in
    float64 (24+6 < 53 mantissa bits), so the sign sketch is bit-exactly
    reproducible by the SQL oracle. Same LSH guarantees up to constants."""
    from graphx_ray.stages.derive import partitioned_map

    assert n_planes % bands == 0
    assert planes in ("normal", "rademacher")
    rows = n_planes // bands
    ensure_hash_shuffle(vectors)
    planes_holder: dict = {}

    def sketch(batch: pa.Table) -> pa.Table:
        raw = _matrix(batch, vec_col)
        # sign(dot) is scale-invariant: skip normalization for the exact
        # rademacher path so the ±sums stay exact dyadic rationals
        m = raw if planes == "rademacher" else _normalize(raw)
        if m.size == 0:
            return pa.table(
                {"band": pa.array([], pa.int64()), "bucket": pa.array([], pa.int64()),
                 id_col: pa.array([], pa.int64()), vec_col: batch[vec_col]}
            )
        if "p" not in planes_holder:
            if planes == "rademacher":
                from graphx_ray.ids import mix64

                idx = np.arange(m.shape[1] * n_planes, dtype=np.uint64)
                h = mix64((np.uint64(seed) << np.uint64(32)) + idx)
                planes_holder["p"] = np.where(
                    h >= np.uint64(1 << 63), 1.0, -1.0
                ).reshape(m.shape[1], n_planes)
            else:
                rng = np.random.default_rng(seed)
                planes_holder["p"] = rng.standard_normal((m.shape[1], n_planes))
        bits = (m @ planes_holder["p"]) > 0  # (n, n_planes)
        n = len(bits)
        band_ids = np.repeat(np.arange(bands, dtype=np.int64), n)
        keys = np.empty(bands * n, np.int64)
        for bi in range(bands):
            seg = bits[:, bi * rows : (bi + 1) * rows]
            keys[bi * n : (bi + 1) * n] = seg @ (1 << np.arange(rows, dtype=np.int64))
        return pa.table(
            {
                "band": pa.array(band_ids),
                "bucket": pa.array(keys),
                id_col: pa.array(np.tile(batch[id_col].to_numpy(), bands)),
                vec_col: pa.concat_arrays(
                    [batch[vec_col].combine_chunks()] * bands
                ),
            }
        )

    def verify(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "sim": pa.array([], pa.float64())}
        )
        n = batch.num_rows
        if n == 0:
            return empty
        band = batch["band"].to_numpy()
        bucket = batch["bucket"].to_numpy()
        ids = batch[id_col].to_numpy()
        m = _normalize(_matrix(batch, vec_col))
        order = np.lexsort((ids, bucket, band))
        band, bucket, ids, m = band[order], bucket[order], ids[order], m[order]
        seg = np.empty(n, bool)
        seg[0] = True
        seg[1:] = (band[1:] != band[:-1]) | (bucket[1:] != bucket[:-1])
        starts = np.flatnonzero(seg)
        ends = np.append(starts[1:], n)
        outs = []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            sims = m[s:e] @ m[s:e].T
            r, c = np.nonzero(np.triu(sims >= threshold, k=1))
            if len(r) == 0:
                continue
            a = np.minimum(ids[s + r], ids[s + c])
            b = np.maximum(ids[s + r], ids[s + c])
            keep = a != b
            outs.append(
                pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep]),
                          "sim": pa.array(sims[r, c][keep].astype(np.float64))})
            )
        if not outs:
            return empty
        return pa.concat_tables(outs)

    raw = partitioned_map(
        vectors.select_columns([id_col, vec_col]).map_batches(
            sketch, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["band", "bucket"],
        verify,
        num_partitions=num_partitions,
        empty_schema=pa.schema(
            [pa.field("a", pa.int64()), pa.field("b", pa.int64()),
             pa.field("sim", pa.float64())]
        ),
    )
    # dedupe pairs found in several bands, keeping the verified similarity
    # (max is a no-op across bands — every band computes the same score)
    from graphx_ray.stages.derive import grouped_reduce

    return grouped_reduce(
        raw, ["a", "b"], sum_col="sim", agg="max", num_partitions=num_partitions
    )


def train_centroids(
    vectors: Dataset, *, n_centroids: int = 16, sample: int = 4096,
    vec_col: str = "embedding", iters: int = 10, seed: int = 11,
) -> np.ndarray:
    """Driver-side mini k-means on a bounded sample (Lloyd, cosine space)."""
    frac_tbl = vectors.limit(sample).to_pandas()
    m = _normalize(
        np.stack(frac_tbl[vec_col].map(np.asarray).to_list()).astype(np.float64)
    )
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), min(n_centroids, len(m)), replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            mask = assign == c
            if mask.any():
                cent[c] = m[mask].mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_topk(
    vectors: Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
    centroids: np.ndarray | None = None,
) -> pa.Table:
    """IVF approximate top-k: bucket by nearest centroid (one shuffle),
    search only the ``nprobe`` closest buckets per query. Pass
    ``centroids`` (e.g. from ``lloyd_centroids``) to make the whole
    pipeline deterministic / SQL-replayable; otherwise a driver-side
    sampled k-means trains them."""
    ensure_hash_shuffle(vectors)
    cent = (
        centroids.astype(np.float64)
        if centroids is not None
        else train_centroids(vectors, n_centroids=n_centroids, vec_col=vec_col)
    )
    cent_ref = ray.put(cent)
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_ref = ray.put(probe)
    q_ref = ray.put(q)
    qid_ref = ray.put(np.asarray(query_ids, dtype=np.int64))

    def bucketize(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _normalize(_matrix(batch, vec_col))
        if m.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             vec_col: batch[vec_col],
                             "bucket": pa.array([], pa.int64())})
        b = (m @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table({id_col: batch[id_col], vec_col: batch[vec_col], "bucket": pa.array(b)})

    def search_bucket(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        qids = ray.get(qid_ref)
        pr = ray.get(probe_ref)
        buckets = batch["bucket"].to_numpy()
        ids = batch[id_col].to_numpy()
        m = _normalize(_matrix(batch, vec_col))
        outs = []
        for b in np.unique(buckets):
            qmask = (pr == b).any(axis=1)
            if not qmask.any():
                continue
            vmask = buckets == b
            sims = m[vmask] @ qm[qmask].T
            kk = min(k, int(vmask.sum()))
            top = np.argpartition(-sims, kk - 1, axis=0)[:kk]
            nq = sims.shape[1]
            # ties at the k-th score kept (same rationale as TopKScorer)
            kth = sims[top, np.arange(nq)[None, :]].min(axis=0)
            rows, qcols = np.nonzero(sims >= kth[None, :])
            outs.append(
                pa.table(
                    {
                        "query_id": pa.array(qids[qmask][qcols], type=pa.int64()),
                        "nbr_id": pa.array(ids[vmask][rows], type=pa.int64()),
                        "sim": pa.array(sims[rows, qcols].astype(np.float64)),
                    }
                )
            )
        if not outs:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "nbr_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.concat_tables(outs)

    parts = (
        vectors.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(max(2, concurrency), keys=["bucket"])
        .map_batches(search_bucket, batch_size=None, batch_format="pyarrow", zero_copy_batch=True)
    )
    return _final_topk(parts, k)


def kmeans(
    vectors: Dataset,
    *,
    k: int = 10,
    iters: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Distributed Lloyd k-means over an embedding column → (id, cluster).

    Deterministic end-to-end so a DuckDB oracle can replay it exactly:
    initial centroids are the ``k`` rows with the smallest ids; each of the
    ``iters`` rounds assigns every vector to the nearest centroid by squared
    Euclidean distance (ties → lowest cluster index) and recomputes
    centroids as per-cluster means (empty clusters keep their previous
    centroid). Output is the assignment under the final centroids.

    Scale shape: the driver only ever holds the (k, d) centroid matrix;
    each round is one streaming ``map_batches`` pass emitting k partial
    (count, sum) rows per block, combined driver-side. The dataset is never
    materialized. This is the building block SemDeDup-style curation uses
    to bucket a corpus before per-cluster near-dup removal.
    """
    cent = lloyd_centroids(vectors, k=k, iters=iters, id_col=id_col, vec_col=vec_col)
    final_ref = ray.put(cent)

    def assign_out(batch: pa.Table) -> pa.Table:
        c = ray.get(final_ref)
        m = _matrix(batch, vec_col)
        a = (_assign_nearest(m, c) if m.shape[0] else np.empty(0, np.int64)).astype(np.int64)
        return pa.table({id_col: batch[id_col], "cluster": pa.array(a)})

    return vectors.map_batches(assign_out, batch_format="pyarrow", zero_copy_batch=True)


def _assign_nearest(m, c):
    # full (n, k, d) squared-difference sum: same per-dimension order a
    # SQL SUM((v-c)^2) computes, keeping float drift vs the oracle ~1e-15
    d2 = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)  # argmin takes the FIRST min -> lowest cluster


def lloyd_centroids(
    vectors: Dataset,
    *,
    k: int = 10,
    iters: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """The (k, d) centroid matrix after ``iters`` deterministic Lloyd rounds
    (see ``kmeans`` for the exact rules)."""

    def _seed_partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()), vec_col: batch[vec_col]})
        order = np.argsort(ids, kind="stable")[:k]
        return batch.select([id_col, vec_col]).take(pa.array(np.sort(order)))

    seeds = (
        vectors.map_batches(_seed_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values(id_col)
        .head(k)
    )
    cent = np.stack(seeds[vec_col].map(np.asarray).to_list()).astype(np.float64)
    kk = len(cent)  # k may exceed the row count on tiny inputs

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            m = _matrix(batch, vec_col)
            if m.shape[0] == 0:
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64()),
                                 "vsum": pa.array([], pa.list_(pa.float64()))})
            a = _assign_nearest(m, c)
            cnt = np.bincount(a, minlength=len(c)).astype(np.int64)
            sums = np.zeros_like(c)
            np.add.at(sums, a, m)
            return pa.table({
                "cluster": pa.array(np.arange(len(c), dtype=np.int64)),
                "cnt": pa.array(cnt),
                "vsum": pa.array(list(sums)),
            })

        pdf = vectors.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()  # bounded: k rows per block
        cnt = np.zeros(kk, dtype=np.int64)
        sums = np.zeros_like(cent)
        for cl, n, s in zip(pdf["cluster"], pdf["cnt"], pdf["vsum"]):
            cnt[cl] += n
            sums[cl] += np.asarray(s)
        nz = cnt > 0
        cent = cent.copy()
        cent[nz] = sums[nz] / cnt[nz, None]

    return cent


def pq_codebooks(
    vectors: Dataset,
    *,
    m: int = 4,
    k: int = 8,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """(m, k, d/m) product-quantization codebooks (Jégou et al. 2011):
    the deterministic ``kmeans`` contract applied independently to each
    of the m contiguous dimension slices — seed = the k smallest ids'
    subvectors, per-round argmin squared-L2 assignment (ties → lowest
    index), per-cluster mean update (empty clusters keep their
    centroid) — trained in ONE combined streaming pass per round (m·k
    partial rows per block; the driver only ever holds the (m, k, d/m)
    model)."""

    def _seed_partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()), vec_col: batch[vec_col]})
        order = np.argsort(ids, kind="stable")[:k]
        return batch.select([id_col, vec_col]).take(pa.array(np.sort(order)))

    seeds = (
        vectors.map_batches(_seed_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values(id_col)
        .head(k)
    )
    full = np.stack(seeds[vec_col].map(np.asarray).to_list()).astype(np.float64)
    d = full.shape[1]
    if d % m:
        raise ValueError(f"pq_codebooks: dim {d} not divisible by m={m}")
    dsub = d // m
    kk = len(full)
    # (m, kk, dsub): subspace j's codebook
    cent = full.reshape(kk, m, dsub).transpose(1, 0, 2).copy()

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)  # (m, kk, dsub)
            mm = _matrix(batch, vec_col)
            if mm.shape[0] == 0:
                return pa.table({"sub": pa.array([], pa.int64()),
                                 "cluster": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64()),
                                 "vsum": pa.array([], pa.list_(pa.float64()))})
            sv = mm.reshape(len(mm), m, dsub)
            subs, cls, cnts, sums = [], [], [], []
            for j in range(m):
                a = _assign_nearest(sv[:, j, :], c[j])
                cnt = np.bincount(a, minlength=kk).astype(np.int64)
                s = np.zeros((kk, dsub))
                np.add.at(s, a, sv[:, j, :])
                subs.append(np.full(kk, j, np.int64))
                cls.append(np.arange(kk, dtype=np.int64))
                cnts.append(cnt)
                sums.extend(list(s))
            return pa.table({
                "sub": pa.array(np.concatenate(subs)),
                "cluster": pa.array(np.concatenate(cls)),
                "cnt": pa.array(np.concatenate(cnts)),
                "vsum": pa.array(sums),
            })

        pdf = vectors.map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()  # bounded: m·k rows per block
        cnt = np.zeros((m, kk), dtype=np.int64)
        sums = np.zeros_like(cent)
        for j, cl, n, s in zip(pdf["sub"], pdf["cluster"], pdf["cnt"], pdf["vsum"]):
            cnt[j, cl] += n
            sums[j, cl] += np.asarray(s)
        nz = cnt > 0
        cent = cent.copy()
        cent[nz] = sums[nz] / cnt[nz][:, None]

    return cent


class PqScorer(_RefScorer):
    """Task ADC stage: encode each batch against the broadcast
    codebooks (argmin squared-L2 per subspace, ties → lowest code) and
    score every query by the asymmetric-distance LUT — dist(q, x) =
    Σ_j ||q_j − c_{j,code_j(x)}||², emitted as sim = −dist so the
    shared (sim DESC, nbr_id ASC) top-k reduction ranks ascending
    distance. The LUT is built once per worker process (``_prepare``).

    The LUT is rounded to int64 MICRO-units (floor(d·1e6 + 0.5)) BEFORE
    the m-way sum: PQ has massive EXACT distance ties (only kᵐ distinct
    code tuples), and a float LUT would let DuckDB's unpinned SUM order
    split a tie by one ulp and flip the (dist, nbr_id) rank vs the
    engine — integer sums are order-free and bit-equal on both sides
    (the flake the first full-gate run actually caught)."""

    def __init__(self, cb_ref, q_ref, qid_ref, k: int, id_col: str, vec_col: str):
        super().__init__((cb_ref, q_ref, qid_ref), k, id_col, vec_col)

    @staticmethod
    def _prepare(cb, q, qids) -> tuple:
        q = np.asarray(q, dtype=np.float64)
        m, kk, dsub = cb.shape  # (m, kk, dsub)
        qs = q.reshape(len(q), m, dsub)
        # (nq, m, kk): per-query per-subspace distance to every codeword
        lut = ((qs[:, :, None, :] - cb[None, :, :, :]) ** 2).sum(axis=3)
        return cb, np.floor(lut * PQ_DIST_SCALE + 0.5).astype(np.int64), qids

    def __call__(self, batch: pa.Table) -> pa.Table:
        cb, lut, qids = self._state()
        ids = batch[self.id_col].to_numpy()
        empty = pa.table(
            {"query_id": pa.array([], pa.int64()), "nbr_id": pa.array([], pa.int64()),
             "sim": pa.array([], pa.int64())}
        )
        if len(ids) == 0:
            return empty
        mm = _matrix(batch, self.vec_col)
        m, kk, dsub = cb.shape
        sv = mm.reshape(len(mm), m, dsub)
        dist = np.zeros((len(mm), lut.shape[0]), np.int64)
        for j in range(m):
            code = _assign_nearest(sv[:, j, :], cb[j])
            dist += lut[:, j, code].T  # (n, nq)
        sims = -dist
        k = min(self.k, len(ids))
        top = np.argpartition(-sims, k - 1, axis=0)[:k]
        nq = sims.shape[1]
        kth = sims[top, np.arange(nq)[None, :]].min(axis=0)
        rows, qcols = np.nonzero(sims >= kth[None, :])
        return pa.table(
            {
                "query_id": pa.array(qids[qcols], type=pa.int64()),
                "nbr_id": pa.array(ids[rows], type=pa.int64()),
                "sim": pa.array(sims[rows, qcols].astype(np.int64)),
            }
        )


# ADC micro-unit scale: LUT entries round to floor(d·1e6 + 0.5) int64
# so per-candidate distances are exact integer sums (see PqScorer doc)
PQ_DIST_SCALE = 1_000_000


def pq_topk(
    vectors: Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    m: int = 4,
    n_codes: int = 8,
    iters: int = 2,
    k: int = 10,
    codebooks: np.ndarray | None = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
) -> pa.Table:
    """Product-quantization approximate top-k by asymmetric distance:
    train (or take) (m, n_codes, d/m) codebooks, encode every vector to
    m codes on the fly, score queries via the per-actor LUT — at scale
    the codes are 1 byte each (vs 4–8 per float dim), and a batch scan
    costs O(n·m) lookups instead of O(n·d) multiplies. Rank = distance
    ASC, ties → lowest nbr_id (the shared _final_topk rule on
    sim = −dist)."""
    cb = (
        np.asarray(codebooks, dtype=np.float64)
        if codebooks is not None
        else pq_codebooks(
            vectors, m=m, k=n_codes, iters=iters, id_col=id_col, vec_col=vec_col
        )
    )
    cb_ref = ray.put(cb)
    q_ref = ray.put(np.asarray(queries, dtype=np.float64))
    qid_ref = ray.put(np.asarray(query_ids, dtype=np.int64))
    scorer = PqScorer(cb_ref, q_ref, qid_ref, k, id_col, vec_col)
    return _final_topk(_score(vectors, scorer, concurrency), k)


def _blocked_dup_mask(
    m: np.ndarray, cl: np.ndarray, ids: np.ndarray, threshold: float,
    block: int,
) -> np.ndarray:
    """Rows sorted by (cluster, id); dup[i] ⇔ some LOWER-id same-cluster
    row has cosine ≥ threshold. Column-blocked: peak extra memory is
    n×block floats, never the n×n matrix of the round-4 shape (verdict
    #2) — bit-identical dup decisions (the id/cluster masks are the same
    predicates, evaluated per column block)."""
    n = len(cl)
    dup = np.zeros(n, bool)
    for s in range(0, n, block):
        e = min(s + block, n)
        # cl is sorted: rows before the first row of cl[s]'s run can never
        # share a cluster with this column block — skip them
        lo = int(np.searchsorted(cl, cl[s], side="left"))
        sims = m[lo:e] @ m[s:e].T  # (e-lo, e-s)
        same = cl[lo:e, None] == cl[None, s:e]
        lower = ids[lo:e, None] < ids[None, s:e]
        dup[s:e] = ((sims >= threshold) & same & lower).any(axis=0)
    return dup


def semdedup(
    vectors: Dataset,
    *,
    k: int = 10,
    iters: int = 3,
    threshold: float = 0.3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_partitions: int = 8,
    block_rows: int = 1024,
) -> Dataset:
    """SemDeDup (Abbas et al. 2023): k-means-bucketed semantic dedup.
    Cluster the corpus with deterministic Lloyd (``lloyd_centroids``), then
    inside each cluster drop every vector that has a LOWER-id cluster-mate
    with cosine similarity ≥ ``threshold``. Returns the survivors
    (id, cluster).

    Scale shape: clustering never materializes the dataset (see ``kmeans``);
    the per-cluster all-pairs similarity is quadratic in CLUSTER size only —
    at corpus scale ``k`` grows with n so clusters stay bounded (the paper's
    regime), and each cluster is one co-located ``partitioned_map`` task.
    The in-task comparison is column-blocked (``block_rows``): peak memory
    is rows×block, so a degenerate clustering (near-duplicate corpus, bad
    k) costs time, not an s×s matrix (round-4 verdict #2).
    """
    from graphx_ray.stages.derive import partitioned_map

    cent = lloyd_centroids(vectors, k=k, iters=iters, id_col=id_col, vec_col=vec_col)
    cent_ref = ray.put(cent)

    def tag(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _matrix(batch, vec_col)
        a = (_assign_nearest(m, c) if m.shape[0] else np.empty(0, np.int64)).astype(np.int64)
        return pa.table(
            {id_col: batch[id_col], vec_col: batch[vec_col], "cluster": pa.array(a)}
        )

    tagged = vectors.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)

    def dedup_cluster(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "cluster": pa.array([], pa.int64())}
            )
        ids = batch[id_col].to_numpy()
        cl = batch["cluster"].to_numpy()
        m = _normalize(_matrix(batch, vec_col))
        # rows of ONE partition may span several clusters — order by
        # (cluster, id) and compare only within equal-cluster runs
        order = np.lexsort((ids, cl))
        ids, cl, m = ids[order], cl[order], m[order]
        keep = ~_blocked_dup_mask(m, cl, ids, threshold, int(block_rows))
        return pa.table(
            {id_col: pa.array(ids[keep]), "cluster": pa.array(cl[keep])}
        )

    return partitioned_map(
        tagged,
        ["cluster"],
        dedup_cluster,
        num_partitions=num_partitions,
        empty_schema=pa.schema(
            [pa.field(id_col, pa.int64()), pa.field("cluster", pa.int64())]
        ),
    )


def dim_absmax(
    vectors: Dataset, *, vec_col: str = "embedding", num_partitions: int = 4
) -> np.ndarray:
    """Per-dimension max |x| over the corpus (float32 — the storage
    dtype), via per-batch partial (dim, m) rows and one keyed max-reduce.
    The result is a model-sized D-vector (like k-means centroids), the
    only driver artifact of quantization."""
    from graphx_ray.stages.derive import grouped_reduce

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, vec_col)
        if m.size == 0:
            return pa.table(
                {"dim": pa.array([], pa.int64()), "m": pa.array([], pa.float32())}
            )
        mx = np.abs(m.astype(np.float32)).max(axis=0)
        return pa.table(
            {"dim": pa.array(np.arange(len(mx), dtype=np.int64)),
             "m": pa.array(mx)}
        )

    folded = grouped_reduce(
        vectors.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["dim"], sum_col="m", agg="max", num_partitions=num_partitions,
    ).to_pandas()  # D rows
    if folded.empty:  # empty corpus (to_pandas drops the schema)
        return np.empty(0, np.float32)
    folded = folded.sort_values("dim")
    return folded["m"].to_numpy().astype(np.float32)


def _quantize_i8(m: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Symmetric int8 quantization, the pinned half-up recipe:
    clip(floor(x·scale + 0.5), −127, 127) — float64 multiply, exactly
    what the SQL oracle computes."""
    q = np.floor(m.astype(np.float64) * scale[None, :] + 0.5)
    return np.clip(q, -127, 127).astype(np.int64)


class QuantizedTopKScorer(_RefScorer):
    """Task stage: int8-quantized dot-product top-k. Quantizing to
    int8 cuts index memory 4× vs float32 and makes every score an EXACT
    int64 (Σ|q|² ≤ D·127² ≪ 2⁵³) — scores, ranks, and ties are
    bit-reproducible at any parallelism and in the SQL replay, unlike
    float accumulation. The standard serving-time ANN compression
    (faiss SQ8 shape)."""

    def __init__(self, q_ref, qid_ref, scale_ref, k: int, id_col: str, vec_col: str):
        super().__init__((q_ref, qid_ref, scale_ref), k, id_col, vec_col)

    @staticmethod
    def _prepare(q, qids, scale) -> tuple:
        return _quantize_i8(q.astype(np.float64), scale), qids, scale

    def __call__(self, batch: pa.Table) -> pa.Table:
        q, qids, scale = self._state()
        ids = batch[self.id_col].to_numpy()
        m = _matrix(batch, self.vec_col)
        if len(ids) == 0 or m.size == 0:
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "nbr_id": pa.array([], pa.int64()),
                 "sim": pa.array([], pa.int64())}
            )
        qm = _quantize_i8(m, scale)
        sims = qm @ q.T  # exact int64 (n_batch, n_queries)
        k = min(self.k, len(ids))
        top = np.argpartition(-sims, k - 1, axis=0)[:k]
        nq = sims.shape[1]
        kth = sims[top, np.arange(nq)[None, :]].min(axis=0)
        rows, qcols = np.nonzero(sims >= kth[None, :])
        return pa.table(
            {
                "query_id": pa.array(qids[qcols], type=pa.int64()),
                "nbr_id": pa.array(ids[rows], type=pa.int64()),
                "sim": pa.array(sims[rows, qcols].astype(np.int64)),
            }
        )


def quantized_topk(
    vectors: Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
    scale: np.ndarray | None = None,
) -> pa.Table:
    """Exact top-k by int8-quantized dot product. ``scale`` (the per-dim
    127/max|x| vector) defaults to one streaming pass over ``vectors``;
    pass a precomputed vector to reuse a trained quantizer."""
    if scale is None:
        mx = dim_absmax(vectors, vec_col=vec_col).astype(np.float64)
        with np.errstate(divide="ignore"):
            scale = np.where(mx > 0, 127.0 / mx, 0.0)
    q_ref = ray.put(np.asarray(queries, dtype=np.float64))
    qid_ref = ray.put(np.asarray(query_ids, dtype=np.int64))
    scale_ref = ray.put(np.asarray(scale, dtype=np.float64))
    scorer = QuantizedTopKScorer(q_ref, qid_ref, scale_ref, k, id_col, vec_col)
    return _final_topk(_score(vectors, scorer, concurrency), k)


def knn_graph(
    vectors: Dataset,
    *,
    k: int = 8,
    n_centroids: int = 16,
    nprobe: int = 2,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int = 8,
) -> Dataset:
    """Approximate k-nearest-neighbor GRAPH over an embedding column —
    the precursor of graph-based clustering/dedup: (src, dst, qscore)
    with every vector's top-k neighbors by EXACT int8-quantized dot
    product among the vectors assigned to its ``nprobe`` nearest IVF
    buckets (deterministic Lloyd centroids, the ivf_topk bucket rule:
    argmax raw-centroid dot, ties → lowest index).

    Unlike the query-top-k ops (broadcast query matrix), every row is a
    query here, so probers move BY SHUFFLE: each vector emits one
    member row (its assigned bucket) plus nprobe prober rows, each
    bucket becomes one co-resident ``partitioned_map`` task scoring its
    probers against its members (integer scores — order-free, ties
    pinned by dst), and a final ``grouped_top_k`` folds the per-bucket
    partials. Driver holds only the (n_centroids, d) model + the per-dim
    scale. nprobe = n_centroids degrades gracefully to the exact
    quantized kNN graph."""
    from graphx_ray.stages.derive import grouped_top_k, partitioned_map

    cent = lloyd_centroids(
        vectors, k=n_centroids, iters=iters, id_col=id_col, vec_col=vec_col
    )
    mx = dim_absmax(vectors, vec_col=vec_col).astype(np.float64)
    with np.errstate(divide="ignore"):
        scale = np.where(mx > 0, 127.0 / mx, 0.0)
    cent_ref = ray.put(cent)
    scale_ref = ray.put(scale)
    npb = min(nprobe, len(cent))

    tag_schema = pa.schema(
        [("bucket", pa.int64()), (id_col, pa.int64()),
         ("q", pa.list_(pa.int8())), ("member", pa.bool_())]
    )

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        m = _matrix(batch, vec_col)
        if len(ids) == 0 or m.size == 0:
            return tag_schema.empty_table()
        c = ray.get(cent_ref)
        dots = m.astype(np.float64) @ c.T
        # stable argsort on -dots: ties → lowest centroid index (the
        # ivf argmax convention); probe[0] IS the assigned bucket
        probe = np.argsort(-dots, axis=1, kind="stable")[:, :npb]
        qm = _quantize_i8(m, ray.get(scale_ref)).astype(np.int8)
        parts = []
        for j in range(npb):
            parts.append(pa.table({
                "bucket": pa.array(probe[:, j].astype(np.int64)),
                id_col: pa.array(ids, type=pa.int64()),
                "q": pa.array(list(qm), type=pa.list_(pa.int8())),
                "member": pa.array(np.full(len(ids), j == 0)),
            }, schema=tag_schema))
        return pa.concat_tables(parts)

    pair_schema = pa.schema(
        [("src", pa.int64()), ("dst", pa.int64()), ("qscore", pa.int64())]
    )

    def bucket_knn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pair_schema.empty_table()
        all_ids = tbl[id_col].to_numpy()
        all_member = tbl["member"].to_numpy().astype(bool)
        all_bucket = tbl["bucket"].to_numpy()
        all_q = np.stack(tbl["q"].to_pandas().map(np.asarray).to_list()).astype(np.int64)
        outs = []
        # one hash partition holds MULTIPLE buckets (num_parts < n_centroids
        # or collisions): score each bucket's probers against ITS members
        # only — cross-bucket rows in the same task are not candidates
        for b in np.unique(all_bucket):
            sel = all_bucket == b
            ids = all_ids[sel]
            member = all_member[sel]
            q = all_q[sel]
            mids = ids[member]
            if len(mids) == 0:
                continue
            sims = q @ q[member].T  # exact int64 (n_rows, n_members)
            # self-edge sentinel: min+1, NOT min — np.argpartition(-sims)
            # negates, and -int64.min overflows back to int64.min, which
            # would rank the self edge FIRST instead of last
            self_mask = ids[:, None] == mids[None, :]
            sims[self_mask] = np.iinfo(np.int64).min + 1
            kk = min(k, len(mids))
            top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            kth = sims[np.arange(len(ids))[:, None], top].min(axis=1)
            rows, cols = np.nonzero((sims >= kth[:, None]) & ~self_mask)
            outs.append(pa.table({
                "src": pa.array(ids[rows], type=pa.int64()),
                "dst": pa.array(mids[cols], type=pa.int64()),
                "qscore": pa.array(sims[rows, cols].astype(np.int64)),
            }, schema=pair_schema))
        if not outs:
            return pair_schema.empty_table()
        return pa.concat_tables(outs)

    tagged = vectors.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    pairs = partitioned_map(
        tagged, ["bucket"], bucket_knn,
        num_partitions=num_parts, empty_schema=pair_schema,
    )
    top = grouped_top_k(
        pairs, ["src"], "qscore", k, tie_cols=["dst"], num_partitions=num_parts
    )

    def arrange(batch: pa.Table) -> pa.Table:
        return batch.select(["src", "dst", "qscore"])

    return top.map_batches(arrange, batch_format="pyarrow", zero_copy_batch=True)


class JlProjector:
    """Johnson–Lindenstrauss stage, run as tasks: ±1 sign projection of the
    int8-quantized embedding — the cheap dimension-reduction pass before
    ANN / clustering at scale. The sign matrix is drawn ONCE, in
    ``__init__`` on the driver, and ships inside the instance (d·out_dim
    int64s), from splitmix64 bits (the
    ``cosine_near_dup_lsh(planes="rademacher")`` convention: sign(j, d) =
    +1 iff mix64((seed<<32) + d·out_dim + j) ≥ 2⁶³), and every projection
    is an exact int64 (|proj| ≤ 127·d), so the output is bit-reproducible
    at any parallelism and SQL-replayable."""

    def __init__(self, scale: np.ndarray, out_dim: int, seed: int, id_col: str, vec_col: str):
        from graphx_ray.ids import mix64

        self.scale = np.asarray(scale, np.float64)
        d = len(self.scale)
        idx = np.arange(d * out_dim, dtype=np.uint64)
        h = mix64((np.uint64(seed) << np.uint64(32)) + idx)
        self.S = (
            np.where(h >= np.uint64(1 << 63), 1, -1)
            .reshape(d, out_dim)
            .astype(np.int64)
        )
        self.out_dim = out_dim
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy()
        m = _matrix(batch, self.vec_col)
        if len(ids) == 0 or m.size == 0:
            return pa.table(
                {self.id_col: pa.array([], pa.int64()),
                 "j": pa.array([], pa.int64()),
                 "proj": pa.array([], pa.int64())}
            )
        q = _quantize_i8(m, self.scale)
        p = q @ self.S  # (n, out_dim) exact int64
        n = len(ids)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, self.out_dim)),
                "j": pa.array(np.tile(np.arange(self.out_dim, dtype=np.int64), n)),
                "proj": pa.array(p.ravel().astype(np.int64)),
            }
        )


def jl_project(
    vectors: Dataset,
    *,
    out_dim: int = 16,
    seed: int = 23,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
    scale: np.ndarray | None = None,
) -> Dataset:
    """(id_col, j, proj) exploded JL sign projection — d → ``out_dim``
    exact-int64 features per vector. ``scale`` (127/absmax per dim)
    defaults to one streaming pass; pass a trained vector to reuse it.
    ``concurrency`` caps the number of concurrent tasks."""
    if scale is None:
        mx = dim_absmax(vectors, vec_col=vec_col).astype(np.float64)
        with np.errstate(divide="ignore"):
            scale = np.where(mx > 0, 127.0 / mx, 0.0)
    return vectors.map_batches(
        JlProjector(scale, int(out_dim), int(seed), id_col, vec_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=4096,
    )


JP_SCHEMA = pa.schema([("vec_id", pa.int64()), ("cluster", pa.int64())])


def jarvis_patrick(
    vectors: Dataset,
    *,
    k: int = 5,
    kt: int = 2,
    n_centroids: int = 16,
    nprobe: int = 2,
    iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_parts: int = 8,
) -> Dataset:
    """Jarvis–Patrick shared-nearest-neighbor clustering (IEEE ToC 1973):
    two vectors join the same cluster iff they are MUTUAL k-nearest
    neighbors AND share ≥ ``kt`` of their k out-neighbor lists; clusters
    are the connected components of the surviving edge set (label = the
    min vec_id, the engine's A.2 contract). Vectors in no surviving edge
    cluster alone (cluster = own id). The density-adaptive clustering
    classic — no ε to tune, built entirely from the kNN graph.

    Scale shape: one ``knn_graph`` pass (IVF-bucketed shuffle, exact
    int8 scores), the mutual test as one (dst, src)-keyed semi
    bucket_join of the edge set against itself, the shared count as the
    ssjoin verify device (a-side neighbor expansion + one (b, n) semi
    join + one count reduce), then the CSR hash-min CC engine over the
    kept edges with the full vector universe as explicit vertices."""
    from graphx_ray.pipelines.graph import Graph
    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.motif import bucket_join
    from graphx_ray.stages.structural import _spill_edges

    knn = knn_graph(
        vectors, k=k, n_centroids=n_centroids, nprobe=nprobe, iters=iters,
        id_col=id_col, vec_col=vec_col, num_parts=num_parts,
    )
    edges = _spill_edges(knn.select_columns(["src", "dst"]))

    def swap(batch: pa.Table) -> pa.Table:
        return pa.table({"s2": batch["dst"], "d2": batch["src"]})

    swapped = edges.map_batches(swap, batch_format="pyarrow", zero_copy_batch=True)
    mutual = bucket_join(
        edges, swapped, on=["src", "dst"], right_on=["s2", "d2"],
        how="semi", num_partitions=num_parts,
    )

    def canon(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy()
        d = batch["dst"].to_numpy()
        keep = s < d
        return pa.table(
            {"a": pa.array(s[keep]), "b": pa.array(d[keep])}
        )

    pairs = _spill_edges(
        mutual.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
    )
    # shared-neighbor count: expand by a's out-neighbors, keep rows whose
    # (b, n) is also a knn edge, count per pair
    a_nbrs = edges.map_batches(
        lambda b: pa.table({"a": b["src"], "n": b["dst"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    expanded = bucket_join(pairs, a_nbrs, on="a", num_partitions=num_parts)
    hits = bucket_join(
        expanded, edges, on=["b", "n"], right_on=["src", "dst"],
        how="semi", num_partitions=num_parts,
    )

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"a": batch["a"], "b": batch["b"],
             "s": pa.array(np.ones(batch.num_rows, np.int64))}
        )

    shared = grouped_reduce(
        hits.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["a", "b"], sum_col="s", num_partitions=num_parts,
        empty_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("s", pa.int64())]
        ),
    )

    def kept(batch: pa.Table) -> pa.Table:
        m = batch["s"].to_numpy() >= kt
        return pa.table(
            {"src": pa.array(batch["a"].to_numpy()[m]),
             "dst": pa.array(batch["b"].to_numpy()[m]),
             "w": pa.array(np.ones(int(m.sum()), np.int64))}
        )

    cluster_edges = shared.map_batches(
        kept, batch_format="pyarrow", zero_copy_batch=True
    )
    verts = vectors.map_batches(
        lambda b: pa.table({"vid": b[id_col].cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    g = Graph(cluster_edges, verts, num_parts=num_parts)
    try:
        cc = g.connected_components(as_table=False)
    finally:
        g.close()

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"vec_id": batch["vid"], "cluster": batch["component"]},
            schema=JP_SCHEMA,
        )

    return cc.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


KCENTER_SCHEMA = pa.schema(
    [("rank", pa.int64()), ("vec_id", pa.int64()), ("d2", pa.int64())]
)


def kcenter_select(
    vectors: Dataset,
    *,
    k: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "pa.Table":
    """Greedy farthest-first k-center selection (Gonzalez, TCS 1985) —
    the 2-approximate coreset/facility-location picker behind diversity-
    aware data pruning: start from the smallest vec_id, then k−1 times
    add the point farthest from the chosen set (EXACT int8-quantized
    squared-L2; ties → smallest vec_id; already-chosen ids excluded so a
    degenerate all-equal corpus still yields k distinct rows). Returns a
    k-row table (rank, vec_id, d2) where d2 = the point's distance to
    the chosen set at selection time (the coverage-radius curve; the
    seed row carries the −1 sentinel); an empty corpus gives 0 rows.

    Scale shape: k streaming passes (inherent to Gonzalez), each a
    zero-shuffle map_batches with the ≤ k×D int64 center matrix
    broadcast via ``ray.put``, block-local argmax partials, and a
    ≤ #blocks-row driver fold. Distances are order-free integers, so
    the selection is parallelism-invariant and SQL-replayable."""
    import ray

    mx = dim_absmax(vectors, vec_col=vec_col).astype(np.float64)
    with np.errstate(divide="ignore"):
        scale = np.where(mx > 0, 127.0 / mx, 0.0)
    scale_ref = ray.put(scale)

    # seed: the smallest id and its quantized vector
    def seed_part(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        if len(ids) == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "q": pa.array([], pa.list_(pa.int64()))}
            )
        m = _matrix(batch, vec_col)
        i = int(np.argmin(ids))
        q = _quantize_i8(m[i : i + 1], ray.get(scale_ref))[0]
        return pa.table(
            {id_col: pa.array([int(ids[i])], pa.int64()),
             "q": pa.array([q.tolist()], pa.list_(pa.int64()))}
        )

    cands = vectors.map_batches(
        seed_part, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if cands.empty:  # empty corpus: nothing to select
        return KCENTER_SCHEMA.empty_table()
    cands = cands.sort_values(id_col).iloc[0]
    chosen_ids = [int(cands[id_col])]
    chosen_q = [np.asarray(cands["q"], np.int64)]
    d2s = [-1]

    for _ in range(1, int(k)):
        centers = np.stack(chosen_q)
        centers_ref = ray.put(centers)
        taken = frozenset(chosen_ids)

        def far_part(batch: pa.Table, _taken=taken, _cref=centers_ref) -> pa.Table:
            empty = pa.table(
                {id_col: pa.array([], pa.int64()),
                 "d2": pa.array([], pa.int64()),
                 "q": pa.array([], pa.list_(pa.int64()))}
            )
            ids = batch[id_col].to_numpy()
            if len(ids) == 0:
                return empty
            mask = np.array([int(i) not in _taken for i in ids], bool)
            if not mask.any():
                return empty
            ids = ids[mask]
            m = _matrix(batch, vec_col)[mask]
            q = _quantize_i8(m, ray.get(scale_ref))
            c = ray.get(_cref)
            # exact int64 squared L2 to every center, min over centers
            d2 = (
                (q * q).sum(axis=1)[:, None]
                - 2 * (q @ c.T)
                + (c * c).sum(axis=1)[None, :]
            ).min(axis=1)
            order = np.lexsort((ids, -d2))
            j = order[0]
            return pa.table(
                {id_col: pa.array([int(ids[j])], pa.int64()),
                 "d2": pa.array([int(d2[j])], pa.int64()),
                 "q": pa.array([q[j].tolist()], pa.list_(pa.int64()))}
            )

        part = vectors.map_batches(
            far_part, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        if part.empty:
            break
        part = part.sort_values([id_col]).sort_values(
            ["d2"], ascending=False, kind="stable"
        )
        best = part.iloc[0]
        chosen_ids.append(int(best[id_col]))
        chosen_q.append(np.asarray(best["q"], np.int64))
        d2s.append(int(best["d2"]))

    return pa.table(
        {"rank": pa.array(np.arange(len(chosen_ids), dtype=np.int64)),
         "vec_id": pa.array(np.asarray(chosen_ids, np.int64)),
         "d2": pa.array(np.asarray(d2s, np.int64))},
        schema=KCENTER_SCHEMA,
    )


RECALL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("k_exact", pa.int64()), ("hits", pa.int64())]
)


def recall_at_k(
    approx: Dataset,
    exact: Dataset,
    *,
    query_col: str = "query_id",
    nbr_col: str = "nbr_id",
    num_partitions: int = 8,
) -> Dataset:
    """ANN quality evaluation: per query, how many of the EXACT top-k
    neighbors the approximate index returned — (query_id, k_exact,
    hits), all exact int64; recall@k = hits / k_exact (caller divides).
    The measure-don't-guess op every ANN deployment needs beside its
    index.

    Scale shape: one (query, neighbor)-keyed SEMI bucket_join of the
    exact result against the approximate one + two query-keyed reduces;
    both inputs stream, nothing result-set-sized on the driver."""
    import ray.data as rd

    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.motif import bucket_join
    from graphx_ray.stages.structural import _spill_edges

    if isinstance(approx, pa.Table):
        approx = rd.from_arrow(approx)
    if isinstance(exact, pa.Table):
        exact = rd.from_arrow(exact)

    def proj(batch: pa.Table, q=query_col, n=nbr_col) -> pa.Table:
        return pa.table(
            {"q": batch[q].cast(pa.int64()), "n": batch[n].cast(pa.int64())}
        )

    ex = _spill_edges(
        exact.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True)
    )
    ap = approx.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True)
    hits = bucket_join(
        ex, ap, on=["q", "n"], right_on=["q", "n"], how="semi",
        num_partitions=num_partitions,
    )

    def ones(batch: pa.Table, col: str) -> pa.Table:
        return pa.table(
            {"q": batch["q"], col: pa.array(np.ones(batch.num_rows, np.int64))}
        )

    kex = grouped_reduce(
        ex.map_batches(lambda b: ones(b, "k_exact"),
                       batch_format="pyarrow", zero_copy_batch=True),
        ["q"], sum_col="k_exact", num_partitions=num_partitions,
        empty_schema=pa.schema([("q", pa.int64()), ("k_exact", pa.int64())]),
    )
    nh = grouped_reduce(
        hits.map_batches(lambda b: ones(b, "hits"),
                         batch_format="pyarrow", zero_copy_batch=True),
        ["q"], sum_col="hits", num_partitions=num_partitions,
        empty_schema=pa.schema([("q", pa.int64()), ("hits", pa.int64())]),
    )
    out = bucket_join(kex, nh, on="q", how="left",
                      num_partitions=num_partitions)

    def fin(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        h = pc.fill_null(batch["hits"], 0).combine_chunks().to_numpy()
        return pa.table(
            {"query_id": batch["q"], "k_exact": batch["k_exact"],
             "hits": pa.array(h.astype(np.int64))},
            schema=RECALL_SCHEMA,
        )

    return out.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)
