"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

All follow the partial/combiner discipline: per-batch vectorized sketching
inside ``map_batches``, then ONE small groupby over sketch keys — never an
all-pairs comparison over raw text. Candidate verification and the final
keep/drop decision stay distributed.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

from graphx_ray.context import ensure_hash_shuffle, register_spill
from graphx_ray.functions.text import fingerprint_batch
from graphx_ray.ids import fnv1a64_words

_MERSENNE = (1 << 61) - 1
_P61 = np.uint64(_MERSENNE)
_M31 = np.uint64((1 << 31) - 1)
_M30 = np.uint64((1 << 30) - 1)


def _fold_mersenne(x: np.ndarray) -> np.ndarray:
    """x (< 2⁶⁴) mod 2⁶¹−1, pure uint64: two folds + conditional subtract."""
    x = (x & _P61) + (x >> np.uint64(61))
    x = (x & _P61) + (x >> np.uint64(61))
    return np.where(x >= _P61, x - _P61, x)


# ------------------------------------------------------------------- exact


def exact_dedup(docs: Dataset, *, id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """Keep the smallest id per distinct (normalized) text.

    hash-partition by 64-bit fingerprint + groupby-min — the scalable exact
    dedup (collision probability is the 64-bit birthday bound; SURVEY.md
    §7.4 records the audit/fallback)."""
    from graphx_ray.stages.derive import grouped_reduce

    ensure_hash_shuffle(docs)
    fp = docs.map_batches(
        lambda b: fingerprint_batch(b, text_col=text_col).select(["fingerprint", id_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # storage-backed keyed min (fingerprint cardinality ~ corpus size, so
    # the dedup stays distributed; skips Ray's hash-aggregate fixed cost)
    keep = grouped_reduce(fp, ["fingerprint"], sum_col=id_col, agg="min",
                          num_partitions=16)
    return keep.select_columns([id_col])


def exact_dedup_rows(
    docs: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    columns: list[str] | None = None,
    num_partitions: int = 16,
) -> Dataset:
    """Surviving ROWS of exact dedup — same keep rule as ``exact_dedup``
    (smallest id per distinct normalized text) but the kept rows themselves
    come back, carried through ONE storage-backed hash shuffle keyed by
    fingerprint. No join, and no corpus-cardinality key set ever assembles
    on the driver — this is the path ``curate()`` uses instead of
    ``exact_dedup`` + broadcast ``semi_join`` (whose ``ray.put`` of the
    distinct-id array is ~8 GB at 10⁹ docs).

    ``columns`` limits what is carried through the shuffle (defaults to
    ``[id_col, text_col]``) — at 100 TB the spill is corpus-sized, so carry
    only what downstream needs."""
    from graphx_ray.stages.derive import partitioned_map

    ensure_hash_shuffle(docs)
    cols = list(columns) if columns is not None else [id_col, text_col]
    if id_col not in cols:
        cols = [id_col] + cols

    def fp(batch: pa.Table) -> pa.Table:
        return fingerprint_batch(batch, text_col=text_col).select(
            ["fingerprint"] + cols
        )

    tagged = docs.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)

    def first_per_fingerprint(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.select(cols)
        f = tbl["fingerprint"].to_numpy()
        ids = tbl[id_col].to_numpy()
        order = np.lexsort((ids, f))
        fs = f[order]
        starts = np.ones(len(fs), bool)
        starts[1:] = fs[1:] != fs[:-1]
        # group start in (fingerprint, id) order = the min-id row of each
        # distinct fingerprint; the kept SET is independent of block order
        keep = np.sort(order[starts])
        return tbl.take(pa.array(keep)).select(cols)

    return partitioned_map(
        tagged, ["fingerprint"], first_per_fingerprint,
        num_partitions=num_partitions,
    )


# ----------------------------------------------------------------- shingles


_ROLL_C = np.uint64(0x9E3779B97F4A7C15)


def _shingle_flat(texts: pd.Series, k: int = 3, *, short: str = "join_all") -> tuple[np.ndarray, np.ndarray]:
    """(per-doc distinct-shingle counts, concatenated sorted hashes) —
    fully vectorized: every word is hashed ONCE (SipHash over the exploded
    word array), k-word shingles combine word hashes with an
    order-sensitive rolling mix, and per-doc dedup is one lexsort. No
    per-doc Python, no shingle-string allocation — equal shingles map to
    equal hashes, so intersection/Jaccard semantics are unchanged (64-bit
    collision bound, same as hashing the strings).

    ``short="join_all"``: docs with 1..k-1 words contribute their single
    join-all shingle (hash-combined over all words); ``short="skip"``
    drops them (the exact-ngram rule). Empty docs contribute nothing."""
    from graphx_ray.ids import mix64

    toks = texts.fillna("").str.lower().str.split()
    nwords = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
    n = len(toks)
    total = int(nwords.sum())
    if total == 0:
        return np.zeros(n, np.int64), np.empty(0, np.uint64)
    ex = toks.explode().dropna()
    # FNV-1a64 over codepoints (ids.fnv1a64_words): SQL-reproducible, so
    # the DuckDB oracles can recompute shingle hashes bit-identically
    wh = fnv1a64_words(ex.to_numpy(dtype=object))
    starts = np.concatenate([[0], np.cumsum(nwords)[:-1]])
    doc_of = np.repeat(np.arange(n), nwords)

    # rolling combine over k shifted views; a window is valid when it lies
    # entirely inside one doc
    if total >= k:
        acc = wh[: total - k + 1].copy()
        for j in range(1, k):
            acc = mix64(acc * _ROLL_C ^ wh[j : total - k + 1 + j])
        valid = doc_of[: total - k + 1] == doc_of[k - 1 :]
        sh_doc = doc_of[: total - k + 1][valid]
        sh_hash = acc[valid]
    else:
        sh_doc = np.empty(0, np.int64)
        sh_hash = np.empty(0, np.uint64)

    if short == "join_all":
        # short docs (0 < words < k): one join-all shingle each
        sdocs = np.flatnonzero((nwords > 0) & (nwords < k))
        if len(sdocs):
            acc_s = wh[starts[sdocs]].copy()
            for j in range(1, k - 1):
                has = nwords[sdocs] > j
                idx = starts[sdocs[has]] + j
                acc_s[has] = mix64(acc_s[has] * _ROLL_C ^ wh[idx])
            sh_doc = np.concatenate([sh_doc, sdocs])
            sh_hash = np.concatenate([sh_hash, acc_s])

    if len(sh_doc) == 0:
        return np.zeros(n, np.int64), np.empty(0, np.uint64)
    order = np.lexsort((sh_hash, sh_doc))
    sh_doc, sh_hash = sh_doc[order], sh_hash[order]
    keep = np.empty(len(sh_doc), bool)
    keep[0] = True
    keep[1:] = (sh_doc[1:] != sh_doc[:-1]) | (sh_hash[1:] != sh_hash[:-1])
    sh_doc, sh_hash = sh_doc[keep], sh_hash[keep]
    lens = np.bincount(sh_doc, minlength=n).astype(np.int64)
    return lens, sh_hash


def _shingle_hashes(texts: pd.Series, k: int = 3) -> list[np.ndarray]:
    """Per-doc sorted distinct shingle hashes (list-of-arrays view over the
    flat vectorized representation)."""
    lens, flat = _shingle_flat(texts, k)
    bounds = np.concatenate([[0], np.cumsum(lens)])
    return [flat[bounds[i] : bounds[i + 1]] for i in range(len(lens))]


def _minhash_sig(shingles: list[np.ndarray], num_perm: int, seed: int = 7) -> np.ndarray:
    """(n_docs, num_perm) MinHash signatures via universal hashing
    (a·x+b) mod 2⁶¹−1, computed entirely in uint64: a and x split into
    31-bit limbs, cross products folded with 2⁶¹ ≡ 1 (mod p). Bit-identical
    to Python-bigint modular arithmetic (same a/b stream, same minima) but
    ~100× faster than the object-dtype path it replaces — the docs loop is
    replaced by one ``minimum.reduceat`` over the batch's concatenated
    shingles per permutation."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
    n = len(shingles)
    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    lens = np.fromiter((len(s) for s in shingles), np.int64, n)
    nz = np.flatnonzero(lens)
    if len(nz) == 0:
        return sig
    x = _fold_mersenne(np.concatenate([shingles[i] for i in nz]))
    starts = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
    x1 = x >> np.uint64(31)  # < 2³⁰ after the fold
    x0 = x & _M31
    for p in range(num_perm):
        a1 = a[p] >> np.uint64(31)
        a0 = a[p] & _M31
        # a·x = a1·x1·2⁶² + (a1·x0 + a0·x1)·2³¹ + a0·x0; every term < 2⁶²
        hi = _fold_mersenne(a1 * x1 * np.uint64(2))
        mid = a1 * x0 + a0 * x1
        mid = _fold_mersenne((mid >> np.uint64(30)) + ((mid & _M30) << np.uint64(31)))
        lo = _fold_mersenne(a0 * x0)
        vals = _fold_mersenne(hi + mid + lo + b[p])
        sig[nz, p] = np.minimum.reduceat(vals, starts)
    return sig


class MinHasher:
    """doc → (band_id, band_hash) rows for LSH bucketing."""

    def __init__(self, num_perm: int = 64, bands: int = 16, k: int = 3,
                 id_col: str = "doc_id", text_col: str = "text"):
        assert num_perm % bands == 0
        self.num_perm, self.bands, self.k = num_perm, bands, k
        self.rows = num_perm // bands
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_numpy()
        sig = _minhash_sig(_shingle_hashes(texts, self.k), self.num_perm)
        n = len(ids)
        band_ids = np.tile(np.arange(self.bands, dtype=np.int64), n)
        doc_ids = np.repeat(ids, self.bands)
        bh = np.empty(n * self.bands, dtype=np.uint64)
        for bidx in range(self.bands):
            seg = sig[:, bidx * self.rows : (bidx + 1) * self.rows]
            bh[bidx::self.bands] = pd.util.hash_array(
                np.ascontiguousarray(seg).view([("", np.uint64)] * self.rows).ravel()
            )
        return pa.table(
            {
                "band": pa.array(band_ids),
                "bucket": pa.array(bh.view(np.int64)),
                self.id_col: pa.array(doc_ids),
            }
        )


def minhash_lsh_pairs(
    docs: Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency: int = 4,
    bucket_cap: int = 4096,
) -> Dataset:
    """Candidate near-duplicate pairs (a < b) via MinHash banding.

    shingle → minhash → band → bucket groupby → within-bucket pairs;
    dedup across bands by a final groupby.

    Hot-bucket guard: a (band, bucket) group of s docs emits s(s−1)/2
    pairs — an adversarial flood of identical docs would quadratic-bomb
    the pipeline through ONE bucket. Groups larger than ``bucket_cap``
    emit a STAR instead (every member paired with the group's min id,
    s−1 pairs): downstream exact verification + connected-component
    clustering recovers the full duplicate cluster through transitivity,
    so recall is preserved for the flood case the cap exists for (a
    near-dup of every member is a near-dup of the center). Groups at or
    under the cap keep exact all-pairs enumeration. ``concurrency`` caps
    the concurrent MinHash tasks and sets the shuffle width."""
    ensure_hash_shuffle(docs)
    bucketed = docs.map_batches(
        MinHasher(num_perm, bands, k, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=2048,
    )

    def pairs_of_group(batch: pa.Table) -> pa.Table:
        # one block may hold many (band, bucket) groups after the shuffle
        band = batch["band"].to_numpy()
        bucket = batch["bucket"].to_numpy()
        order = np.lexsort((batch[id_col].to_numpy(), bucket, band))
        band, bucket = band[order], bucket[order]
        ids = batch[id_col].to_numpy()[order]
        n = len(ids)
        if n == 0:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        new = np.empty(n, bool)
        new[0] = True
        np.not_equal(band[1:], band[:-1], out=new[1:])
        nb = np.empty(n, bool)
        nb[0] = True
        np.not_equal(bucket[1:], bucket[:-1], out=nb[1:])
        seg = new | nb
        starts = np.flatnonzero(seg)
        lens = np.diff(np.append(starts, n))
        run_end = np.repeat(starts + lens, lens)
        idx = np.arange(n)
        per = run_end - idx - 1
        big = lens > bucket_cap
        if big.any():
            per[np.repeat(big, lens)] = 0  # hot runs leave the quadratic path
        total = int(per.sum())
        ii = np.repeat(idx, per)
        offs = np.cumsum(per) - per
        jj = ii + 1 + (np.arange(total) - offs[ii])
        a = ids[ii]
        b = ids[jj]
        if big.any():
            # star pairs: (run min id, member) — ids ascend inside a run,
            # so the run's first element is its min
            memb = np.repeat(big, lens)
            center = np.repeat(ids[starts[big]], lens[big] - 1)
            leaves = ids[memb & (idx != np.repeat(starts, lens))]
            a = np.concatenate([a, center])
            b = np.concatenate([b, leaves])
        if len(a) == 0:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keep = lo != hi
        return pa.table({"a": pa.array(lo[keep]), "b": pa.array(hi[keep])})

    from graphx_ray.stages.derive import grouped_reduce, partitioned_map

    raw = partitioned_map(
        bucketed,
        ["band", "bucket"],
        pairs_of_group,
        num_partitions=max(2, concurrency),
        empty_schema=pa.schema([pa.field("a", pa.int64()), pa.field("b", pa.int64())]),
    ).map_batches(
        lambda b: b.append_column("n_bands", pa.array(np.ones(len(b), np.int64))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # cross-band dedup (+ band count) via the storage-backed reduce
    return grouped_reduce(raw, ["a", "b"], sum_col="n_bands", agg="sum",
                          num_partitions=max(2, concurrency))


def _shingle_row_table(batch: pa.Table, k: int, id_col: str, text_col: str) -> pa.Table:
    """(id, h) exploded distinct shingle hashes per doc — the exact
    ``_shingle_hashes`` normalization (docs with <k words contribute their
    join-all shingle; empty docs contribute nothing)."""
    shl = _shingle_hashes(batch[text_col].to_pandas(), k)
    ids = batch[id_col].to_numpy()
    lens = np.fromiter((len(s) for s in shl), np.int64, len(shl))
    out_h = (
        np.concatenate([s for s in shl if len(s)])
        if lens.sum()
        else np.empty(0, np.uint64)
    )
    return pa.table(
        {
            id_col: pa.array(np.repeat(ids, lens), type=pa.int64()),
            "h": pa.array(out_h.view(np.int64)),
        }
    )


def _gather_doc_rows(query_ids, sid_uniq, sid_starts, sid_lens, values):
    """For each query id, gather that doc's co-located rows from ``values``
    (sorted by id). Returns (row_ownership_index, gathered_values, counts);
    ids absent from the local table get count 0."""
    if len(sid_uniq) == 0:
        return (
            np.empty(0, np.int64),
            values[:0],
            np.zeros(len(query_ids), np.int64),
        )
    pos = np.searchsorted(sid_uniq, query_ids)
    pos = np.minimum(pos, len(sid_uniq) - 1)
    found = sid_uniq[pos] == query_ids
    cnt = np.where(found, sid_lens[pos], 0).astype(np.int64)
    total = int(cnt.sum())
    ii = np.repeat(np.arange(len(query_ids)), cnt)
    offs = np.cumsum(cnt) - cnt
    hpos = sid_starts[pos][ii] + (np.arange(total) - offs[ii])
    return ii, values[hpos], cnt


def _sorted_doc_index(tbl: pa.Table, id_col: str):
    """Sort (id, h) rows; return (uniq_ids, run_starts, run_lens, sorted_h)."""
    ids = tbl[id_col].to_numpy()
    h = tbl["h"].to_numpy()
    order = np.lexsort((h, ids))
    ids, h = ids[order], h[order]
    if len(ids) == 0:
        e = np.empty(0, np.int64)
        return e, e, e, e
    new = np.empty(len(ids), bool)
    new[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    lens = np.diff(np.append(starts, len(ids)))
    return ids[starts], starts, lens, h


def verify_jaccard(
    pairs: Dataset, docs: Dataset, *, threshold: float = 0.7, k: int = 3,
    id_col: str = "doc_id", text_col: str = "text", num_partitions: int = 16,
) -> Dataset:
    """Exact shingle-Jaccard verification of candidate pairs — fully
    distributed: no driver-side corpus materialization, no per-pair loop.

    Two storage-backed hash joins (the grouped_reduce spill pattern):
    shingle rows and candidates are spilled hash-partitioned by doc id /
    by ``a``; stage A attaches each candidate's a-side shingles + size and
    re-spills by ``b``; stage B attaches the b-side size and counts
    matching hashes for ALL pairs of its partition with one lexsort over
    the two exploded sides. Requires ``threshold > 0`` (pairs where either
    doc has no shingles score 0 and are dropped)."""
    import tempfile

    import pyarrow.parquet as pq
    import ray.data as rd

    from graphx_ray.ids import part_of

    if threshold <= 0:
        raise ValueError("verify_jaccard requires threshold > 0")
    ensure_hash_shuffle(docs)
    P = num_partitions

    sh_dir = register_spill(tempfile.mkdtemp(prefix="graphx_vj_sh_", dir="/tmp"))
    cand_dir = register_spill(tempfile.mkdtemp(prefix="graphx_vj_cand_", dir="/tmp"))
    mid_dir = register_spill(tempfile.mkdtemp(prefix="graphx_vj_mid_", dir="/tmp"))

    def sh_tag(batch: pa.Table) -> pa.Table:
        t = _shingle_row_table(batch, k, id_col, text_col)
        return t.append_column(
            "_p", pa.array(part_of(t[id_col].to_numpy(), P), type=pa.int32())
        )

    docs.map_batches(sh_tag, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        sh_dir, partition_cols=["_p"]
    )

    def cand_tag(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        return pa.table(
            {
                "a": pa.array(a, type=pa.int64()),
                "b": batch["b"],
                "_p": pa.array(part_of(a, P), type=pa.int32()),
            }
        )

    pairs.map_batches(cand_tag, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        cand_dir, partition_cols=["_p"]
    )

    def stage_a(batch: pa.Table) -> pa.Table:
        p = int(batch["p"][0].as_py())
        cdir = os.path.join(cand_dir, f"_p={p}")
        sdir = os.path.join(sh_dir, f"_p={p}")
        if not os.path.isdir(cdir):
            return pa.table({"emitted": pa.array([0], pa.int64())})
        cand = pq.read_table(cdir, columns=["a", "b"])
        a = cand["a"].to_numpy()
        b = cand["b"].to_numpy()
        if len(a):
            # dedupe candidate pairs: stage B's intersection counting
            # assumes each (pair, hash) row appears at most once per side —
            # a duplicated input pair would inflate jaccard past 1.0
            order = np.lexsort((b, a))
            a, b = a[order], b[order]
            keep = np.empty(len(a), bool)
            keep[0] = True
            keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
            a, b = a[keep], b[keep]
        sid, starts, lens, hs = (
            _sorted_doc_index(pq.read_table(sdir, columns=[id_col, "h"]), id_col)
            if os.path.isdir(sdir)
            else (np.empty(0, np.int64),) * 4
        )
        ii, h_a, na = _gather_doc_rows(a, sid, starts, lens, hs)
        out = pa.table(
            {
                "a": pa.array(a[ii], type=pa.int64()),
                "b": pa.array(b[ii], type=pa.int64()),
                "na": pa.array(na[ii], type=pa.int64()),
                "h": pa.array(h_a, type=pa.int64()),
            }
        )
        # spill keyed by hash(b) for stage B; file name carries the source
        # partition so concurrent writers never collide
        bparts = part_of(out["b"].to_numpy(), P)
        for bp in np.unique(bparts):
            d = os.path.join(mid_dir, f"_p={int(bp)}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(
                out.filter(pa.array(bparts == bp)),
                os.path.join(d, f"from-{p}.parquet"),
            )
        return pa.table({"emitted": pa.array([out.num_rows], pa.int64())})

    rd.from_items([{"p": p} for p in range(P)]).map_batches(
        stage_a, batch_size=1, batch_format="pyarrow"
    ).materialize()  # barrier: stage B reads every stage-A spill

    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "jaccard": pa.array([], pa.float64())}
    )

    def stage_b(batch: pa.Table) -> pa.Table:
        p = int(batch["p"][0].as_py())
        mdir = os.path.join(mid_dir, f"_p={p}")
        sdir = os.path.join(sh_dir, f"_p={p}")
        if not os.path.isdir(mdir):
            return empty
        mid = pq.read_table(mdir)
        if mid.num_rows == 0:
            return empty
        a = mid["a"].to_numpy()
        b = mid["b"].to_numpy()
        na = mid["na"].to_numpy()
        h_a = mid["h"].to_numpy()
        # factorize pairs: one pk per distinct (a, b) in this partition
        order = np.lexsort((h_a, b, a))
        a, b, na, h_a = a[order], b[order], na[order], h_a[order]
        new = np.empty(len(a), bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        pk = np.cumsum(new) - 1
        p_starts = np.flatnonzero(new)
        pa_, pb, pna = a[p_starts], b[p_starts], na[p_starts]
        sid, starts, lens, hs = (
            _sorted_doc_index(pq.read_table(sdir, columns=[id_col, "h"]), id_col)
            if os.path.isdir(sdir)
            else (np.empty(0, np.int64),) * 4
        )
        jj, h_b, nb = _gather_doc_rows(pb, sid, starts, lens, hs)
        # match counting: (pk, h) appears at most once per side; after one
        # lexsort, adjacent duplicates = intersections
        all_pk = np.concatenate([pk, jj])
        all_h = np.concatenate([h_a, h_b])
        mo = np.lexsort((all_h, all_pk))
        spk, shh = all_pk[mo], all_h[mo]
        dup = np.zeros(len(spk), bool)
        if len(spk) > 1:
            dup[1:] = (spk[1:] == spk[:-1]) & (shh[1:] == shh[:-1])
        inter = np.bincount(spk[dup], minlength=len(pa_)).astype(np.float64)
        union = pna + nb - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = jac >= threshold
        return pa.table(
            {
                "a": pa.array(pa_[keep], type=pa.int64()),
                "b": pa.array(pb[keep], type=pa.int64()),
                "jaccard": pa.array(jac[keep], type=pa.float64()),
            }
        )

    return rd.from_items([{"p": p} for p in range(P)]).map_batches(
        stage_b, batch_size=1, batch_format="pyarrow"
    )


NOVELTY_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_shingles", pa.int64()),
     ("novel", pa.int64())]
)


def novelty_stats(
    docs: Dataset,
    *,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """Per-document n-gram NOVELTY: of a doc's distinct k-word shingles,
    how many appear in NO lower-id document — the
    earliest-occurrence-wins attribution behind corpus novelty curves
    and dedup-benefit estimates (each shingle's credit goes to its first
    document under the doc_id total order; later repeats are
    boilerplate). Returns (doc_id, n_shingles, novel) exact int64; the
    caller divides for the novelty rate. Docs with < k words report
    (0, 0) (the exact-ngram skip rule).

    Scale shape: one shingle-keyed MIN reduce finds every shingle's
    owner, one shingle-keyed bucket_join attaches owners back, one
    doc-keyed reduce folds the two counts — all storage-backed, nothing
    corpus-sized on the driver."""
    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.motif import bucket_join

    ensure_hash_shuffle(docs)

    def sh_rows(batch: pa.Table) -> pa.Table:
        lens, flat = _shingle_flat(batch[text_col].to_pandas(), k, short="skip")
        ids = batch[id_col].to_numpy()
        return pa.table(
            {"doc": pa.array(np.repeat(ids, lens), type=pa.int64()),
             "h": pa.array(flat.view(np.int64))}
        )

    rows = docs.map_batches(sh_rows, batch_format="pyarrow", zero_copy_batch=True)

    def owner_part(batch: pa.Table) -> pa.Table:
        return pa.table({"h": batch["h"], "owner": batch["doc"]})

    own = grouped_reduce(
        rows.map_batches(owner_part, batch_format="pyarrow", zero_copy_batch=True),
        ["h"], sum_col="owner", agg="min",
        num_partitions=num_partitions,
        empty_schema=pa.schema([("h", pa.int64()), ("owner", pa.int64())]),
    )
    joined = bucket_join(rows, own, on="h", num_partitions=num_partitions)

    agg_schema = pa.schema(
        [("doc", pa.int64()), ("n_shingles", pa.int64()), ("novel", pa.int64())]
    )

    def fold(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return agg_schema.empty_table()
        doc = batch["doc"].to_numpy()
        nv = (batch["owner"].to_numpy() == doc).astype(np.int64)
        uq, inv = np.unique(doc, return_inverse=True)
        return pa.table(
            {"doc": pa.array(uq),
             "n_shingles": pa.array(np.bincount(inv).astype(np.int64)),
             "novel": pa.array(np.bincount(inv, weights=nv).astype(np.int64))},
            schema=agg_schema,
        )

    agg = grouped_reduce(
        joined.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True),
        ["doc"], agg_cols={"n_shingles": "sum", "novel": "sum"},
        num_partitions=num_partitions, empty_schema=agg_schema,
    )
    universe = docs.select_columns([id_col])
    out = bucket_join(
        universe, agg, on=id_col, right_on="doc", how="left",
        num_partitions=num_partitions,
    )

    def fin(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ns = pc.fill_null(batch["n_shingles"], 0).combine_chunks().to_numpy()
        nv = pc.fill_null(batch["novel"], 0).combine_chunks().to_numpy()
        return pa.table(
            {"doc_id": batch[id_col],
             "n_shingles": pa.array(ns.astype(np.int64)),
             "novel": pa.array(nv.astype(np.int64))},
            schema=NOVELTY_SCHEMA,
        )

    return out.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


SNM_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("gap", pa.int64())]
)


def snm_pairs(
    ds: Dataset,
    *,
    key_col: str,
    window: int,
    id_col: str = "doc_id",
    num_partitions: int = 16,
    zone_size: int | None = None,
) -> Dataset:
    """Sorted-neighborhood blocking (Hernández & Stolfo, SIGMOD 1995):
    candidate pairs = every two rows within ``window`` positions of each
    other under the (key_col, id_col) total order — THE classic
    entity-resolution blocking method; with a similarity fingerprint as
    the key (e.g. simhash) near-duplicates sort adjacently and the pair
    stream is exactly n·(window−1), never quadratic.

    Returns (a, b, gap): a the lower-ranked id, b the higher, gap their
    rank distance ∈ [1, window). Scale shape: one ``global_rank`` pass
    (range spill + prefix sum — positions are DENSE), then one
    zone-keyed ``partitioned_map`` where each task holds a contiguous
    rank range plus a (window−1)-row halo from the next zone (the zone
    border-duplication device), so every pair is emitted exactly once by
    its lower end's zone; pair expansion is ``window−1`` vectorized
    shifts, no per-row python."""
    from graphx_ray.stages.derive import global_rank, partitioned_map

    if window < 2:
        raise ValueError("snm_pairs: window must be ≥ 2")
    w = int(window)
    Z = int(zone_size) if zone_size is not None else max(1024, 64 * w)
    if Z < w:
        raise ValueError("snm_pairs: zone_size must be ≥ window")

    ranked = global_rank(
        ds.select_columns([id_col, key_col]),
        by=key_col, tiebreak=id_col,
        num_buckets=min(num_partitions, 32),
    )

    def zones(batch: pa.Table) -> pa.Table:
        pos = batch["pos"].to_numpy()
        ids = batch[id_col].to_numpy()
        z = pos // Z
        own = pa.table({"z": pa.array(z), "pos": pa.array(pos),
                        "id": pa.array(ids, type=pa.int64()),
                        "halo": pa.array(np.zeros(len(pos), np.int8))})
        hm = (pos % Z < w - 1) & (z > 0)
        if not hm.any():
            return own
        halo = pa.table(
            {"z": pa.array(z[hm] - 1), "pos": pa.array(pos[hm]),
             "id": pa.array(ids[hm], type=pa.int64()),
             "halo": pa.array(np.ones(int(hm.sum()), np.int8))}
        )
        return pa.concat_tables([own, halo])

    zoned = ranked.map_batches(zones, batch_format="pyarrow", zero_copy_batch=True)
    zschema = pa.schema(
        [("z", pa.int64()), ("pos", pa.int64()), ("id", pa.int64()),
         ("halo", pa.int8())]
    )

    def expand(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return SNM_SCHEMA.empty_table()
        # one hash partition holds SEVERAL zone values (the knn_graph
        # split-per-bucket-value rule) — segment by z first; within one
        # zone the pos range is contiguous, so the o-th next row is rank
        # distance o away
        zv = tbl["z"].to_numpy()
        pos0 = tbl["pos"].to_numpy()
        ids0 = tbl["id"].to_numpy()
        halo0 = tbl["halo"].to_numpy()
        order = np.lexsort((pos0, zv))
        zv, pos0, ids0, halo0 = zv[order], pos0[order], ids0[order], halo0[order]
        seg = np.ones(len(zv), bool)
        seg[1:] = zv[1:] != zv[:-1]
        starts = np.flatnonzero(seg)
        ends = np.append(starts[1:], len(zv))
        outs_a, outs_b, outs_g = [], [], []
        for s, t in zip(starts, ends):
            pos, ids, halo = pos0[s:t], ids0[s:t], halo0[s:t]
            n = len(pos)
            for o in range(1, w):
                if n <= o:
                    break
                # halo rows pair only as the HIGHER end (their own zone
                # owns their lower-end pairs)
                lo = slice(0, n - o)
                hi = slice(o, n)
                keep = halo[lo] == 0
                if keep.any():
                    outs_a.append(ids[lo][keep])
                    outs_b.append(ids[hi][keep])
                    outs_g.append(np.full(int(keep.sum()), o, np.int64))
        if not outs_a:
            return SNM_SCHEMA.empty_table()
        return pa.table(
            {"a": pa.array(np.concatenate(outs_a)),
             "b": pa.array(np.concatenate(outs_b)),
             "gap": pa.array(np.concatenate(outs_g))},
            schema=SNM_SCHEMA,
        )

    return partitioned_map(
        zoned, ["z"], expand,
        num_partitions=num_partitions, empty_schema=SNM_SCHEMA,
    )


SSJOIN_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("inter", pa.int64()),
     ("uni", pa.int64()), ("jacc_micro", pa.int64())]
)
_SSJ_PRE_SCHEMA = pa.schema(
    [("h", pa.int64()), ("doc", pa.int64()), ("n", pa.int64())]
)
_SSJ_CAND_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("na", pa.int64()),
     ("nb", pa.int64())]
)


def ssjoin_pairs(
    docs: Dataset,
    *,
    threshold: tuple[int, int] = (7, 10),
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """All-pairs set-similarity join by PREFIX FILTERING (Bayardo,
    Ma & Srikant, WWW 2007 / PPJoin): every unordered document pair
    whose token-SET Jaccard is ≥ threshold (an exact rational num/den —
    the ≥-test is the integer comparison den·|A∩B| ≥ num·|A∪B|, no float
    anywhere). Tokens are the k=1 shingle hashes (``fnv1a64_words``), so
    the whole run replays bit-exactly in SQL.

    The prefix principle: order the vocabulary by ascending document
    frequency (ties by hash — a TOTAL order); a doc of n distinct tokens
    keeps only its first p = n − ceil(t·n) + 1 tokens as candidates-keys.
    Any pair with J ≥ t must share at least one PREFIX token (dropping
    p−1 < n − t·n + 1 tokens cannot empty the ≥ t·n-sized overlap), so
    grouping by prefix token finds every qualifying pair while the
    rarest-first order keeps groups small — the candidate stream is
    orders of magnitude below the all-token quadratic of
    ``ngram_jaccard_pairs``.

    Scale shape: one term-keyed df reduce, one df bucket_join back, one
    doc-keyed ``partitioned_map`` (prefix selection), one token-keyed
    ``partitioned_map`` (pair expansion with the size prefilter
    den·min ≥ num·max), a pair dedup reduce, then the exact verify as
    one a-side token expansion + one (b, h) SEMI bucket_join + one
    count reduce. Nothing corpus-sized touches the driver."""
    from graphx_ray.stages.derive import grouped_reduce, partitioned_map
    from graphx_ray.stages.motif import bucket_join

    t_num, t_den = int(threshold[0]), int(threshold[1])
    if not (0 < t_num <= t_den):
        raise ValueError("ssjoin_pairs: threshold must be a rational in (0, 1]")
    ensure_hash_shuffle(docs)

    def tok_batch(batch: pa.Table) -> pa.Table:
        shl = _shingle_hashes(batch[text_col].to_pandas(), 1)
        ids = batch[id_col].to_numpy()
        lens = np.fromiter((len(s) for s in shl), np.int64, len(shl))
        h = (
            np.concatenate([s for s in shl if len(s)])
            if lens.sum() else np.empty(0, np.uint64)
        )
        return pa.table(
            {
                "doc": pa.array(np.repeat(ids, lens), type=pa.int64()),
                "h": pa.array(h.view(np.int64)),
                "n": pa.array(np.repeat(lens, lens)),
            }
        )

    tok = docs.map_batches(tok_batch, batch_format="pyarrow", zero_copy_batch=True)
    tok_schema = pa.schema(
        [("doc", pa.int64()), ("h", pa.int64()), ("n", pa.int64())]
    )

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"h": batch["h"], "df": pa.array(np.ones(batch.num_rows, np.int64))}
        )

    df = grouped_reduce(
        tok.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["h"], sum_col="df", num_partitions=num_partitions,
    )
    tok_df = bucket_join(tok, df, on="h", num_partitions=num_partitions)

    def prefix(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _SSJ_PRE_SCHEMA.empty_table()
        doc = tbl["doc"].to_numpy()
        h = tbl["h"].to_numpy()
        n = tbl["n"].to_numpy()
        dfv = tbl["df"].to_numpy()
        order = np.lexsort((h, dfv, doc))
        doc, h, n, dfv = doc[order], h[order], n[order], dfv[order]
        new = np.ones(len(doc), bool)
        new[1:] = doc[1:] != doc[:-1]
        rk = np.arange(len(doc)) - np.repeat(
            np.flatnonzero(new), np.diff(np.append(np.flatnonzero(new), len(doc)))
        )
        p = n - (t_num * n + t_den - 1) // t_den + 1
        keep = rk < p
        return pa.table(
            {"h": pa.array(h[keep]), "doc": pa.array(doc[keep]),
             "n": pa.array(n[keep])},
            schema=_SSJ_PRE_SCHEMA,
        )

    pre = partitioned_map(
        tok_df, ["doc"], prefix,
        num_partitions=num_partitions, empty_schema=_SSJ_PRE_SCHEMA,
    )

    def expand(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _SSJ_CAND_SCHEMA.empty_table()
        h = tbl["h"].to_numpy()
        doc = tbl["doc"].to_numpy()
        n = tbl["n"].to_numpy()
        order = np.lexsort((doc, h))
        h, doc, n = h[order], doc[order], n[order]
        new = np.ones(len(h), bool)
        new[1:] = h[1:] != h[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(h)))
        m = len(h)
        goff = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.arange(m) - np.repeat(goff, lens)
        idx = np.repeat(starts, lens) + pos
        reps = np.repeat(lens, lens) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            return _SSJ_CAND_SCHEMA.empty_table()
        a = np.repeat(doc[idx], reps)
        na = np.repeat(n[idx], reps)
        seg = np.repeat(idx + 1, reps)
        off = np.concatenate(([0], np.cumsum(reps)[:-1]))
        within = np.arange(total) - np.repeat(off, reps)
        b = doc[seg + within]
        nb = n[seg + within]
        # doc ids ascending within a token group ⇒ a < b by construction;
        # the length prefilter: J ≤ min/max, so J ≥ t ⇒ den·min ≥ num·max
        keep = t_den * np.minimum(na, nb) >= t_num * np.maximum(na, nb)
        if not keep.any():
            return _SSJ_CAND_SCHEMA.empty_table()
        out = pa.table(
            {"a": pa.array(a[keep]), "b": pa.array(b[keep]),
             "na": pa.array(na[keep]), "nb": pa.array(nb[keep])},
            schema=_SSJ_CAND_SCHEMA,
        )
        # local dedup (same pair under several shared prefix tokens)
        dd = out.to_pandas().drop_duplicates(["a", "b"])
        return pa.Table.from_pandas(dd, preserve_index=False).cast(_SSJ_CAND_SCHEMA)

    cand = partitioned_map(
        pre, ["h"], expand,
        num_partitions=num_partitions, empty_schema=_SSJ_CAND_SCHEMA,
    )
    cand = grouped_reduce(
        cand, ["a", "b"], agg_cols={"na": "max", "nb": "max"},
        num_partitions=num_partitions, empty_schema=_SSJ_CAND_SCHEMA,
    )
    # exact verify: expand each pair by the a-side tokens, keep rows whose
    # (b, h) exists (the intersection), count per pair
    a_tok = tok.map_batches(
        lambda b: pa.table({"a": b["doc"], "h": b["h"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    expanded = bucket_join(cand, a_tok, on="a", num_partitions=num_partitions)
    b_tok = tok.map_batches(
        lambda b: pa.table({"doc": b["doc"], "h": b["h"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    hits = bucket_join(
        expanded, b_tok, on=["b", "h"], right_on=["doc", "h"],
        how="semi", num_partitions=num_partitions,
    )

    def count_ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"a": batch["a"], "b": batch["b"], "na": batch["na"],
             "nb": batch["nb"], "i": pa.array(np.ones(batch.num_rows, np.int64))}
        )

    inter = grouped_reduce(
        hits.map_batches(count_ones, batch_format="pyarrow", zero_copy_batch=True),
        ["a", "b", "na", "nb"], sum_col="i",
        num_partitions=num_partitions,
        empty_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("na", pa.int64()),
             ("nb", pa.int64()), ("i", pa.int64())]
        ),
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return SSJOIN_SCHEMA.empty_table()
        na = batch["na"].to_numpy()
        nb = batch["nb"].to_numpy()
        i = batch["i"].to_numpy()
        uni = na + nb - i
        keep = t_den * i >= t_num * uni
        if not keep.any():
            return SSJOIN_SCHEMA.empty_table()
        i, uni = i[keep], uni[keep]
        jm = (2_000_000 * i + uni) // (2 * uni)
        return pa.table(
            {"a": pa.array(batch["a"].to_numpy()[keep]),
             "b": pa.array(batch["b"].to_numpy()[keep]),
             "inter": pa.array(i), "uni": pa.array(uni),
             "jacc_micro": pa.array(jm)},
            schema=SSJOIN_SCHEMA,
        )

    return inter.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def ngram_jaccard_pairs(
    docs: Dataset,
    *,
    k: int = 3,
    threshold: float = 0.5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 8,
) -> Dataset:
    """EXACT all-pairs k-word-shingle Jaccard ≥ threshold (SQL-oracle
    comparable): docs with ≥ k words; shingles distinct; normalization =
    trim + lower + whitespace split.

    Distributed with NO driver state: each (shingle, doc) row carries the
    doc's set size as a column (functionally dependent on the doc id), so
    intersection counting and the final Jaccard filter are pure keyed
    reductions — no per-doc broadcast, nothing O(n_docs) on the driver.
    A shingle shared by s docs costs s²/2 pair rows — hot-shingle cost is
    the documented bound."""
    ensure_hash_shuffle(docs)

    def shingle_rows(batch: pa.Table) -> pa.Table:
        # vectorized rolling-hash shingles; docs with <k words are skipped
        # (the exact-ngram rule the SQL oracle mirrors)
        lens, flat = _shingle_flat(batch[text_col].to_pandas(), k, short="skip")
        ids = batch[id_col].to_numpy()
        return pa.table(
            {
                "h": pa.array(flat.view(np.int64)),
                id_col: pa.array(np.repeat(ids, lens)),
                "n": pa.array(np.repeat(lens, lens)),
            }
        )

    sh = docs.map_batches(shingle_rows, batch_format="pyarrow", zero_copy_batch=True)

    def pairs(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "na": pa.array([], pa.int64()), "nb": pa.array([], pa.int64()),
             "i": pa.array([], pa.int64())}
        )
        h = batch["h"].to_numpy()
        d = batch[id_col].to_numpy()
        nn = batch["n"].to_numpy()
        order = np.lexsort((d, h))
        h, d, nn = h[order], d[order], nn[order]
        n = len(h)
        if n == 0:
            return empty
        new = np.empty(n, bool)
        new[0] = True
        np.not_equal(h[1:], h[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, n))
        run_end = np.repeat(starts + lens, lens)
        idx = np.arange(n)
        per = run_end - idx - 1
        total = int(per.sum())
        if total == 0:
            return empty
        ii = np.repeat(idx, per)
        offs = np.cumsum(per) - per
        jj = ii + 1 + (np.arange(total) - offs[ii])
        a, b, na, nb = d[ii], d[jj], nn[ii], nn[jj]
        # partition-local combiner: one (a, b, na, nb, i) row per pair
        po = np.lexsort((b, a))
        a, b, na, nb = a[po], b[po], na[po], nb[po]
        first = np.empty(total, bool)
        first[0] = True
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        rs = np.flatnonzero(first)
        cnt = np.diff(np.append(rs, total))
        return pa.table(
            {"a": pa.array(a[rs]), "b": pa.array(b[rs]),
             "na": pa.array(na[rs]), "nb": pa.array(nb[rs]),
             "i": pa.array(cnt.astype(np.int64))}
        )

    from graphx_ray.stages.derive import grouped_reduce, partitioned_map

    raw = partitioned_map(
        sh,
        ["h"],
        pairs,
        num_partitions=num_partitions,
        empty_schema=pa.schema(
            [pa.field("a", pa.int64()), pa.field("b", pa.int64()),
             pa.field("na", pa.int64()), pa.field("nb", pa.int64()),
             pa.field("i", pa.int64())]
        ),
    )
    inter = grouped_reduce(
        raw, ["a", "b", "na", "nb"], sum_col="i", num_partitions=num_partitions
    )

    def jfilter(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        i = batch["i"].to_numpy().astype(np.float64)
        na = batch["na"].to_numpy()
        nb = batch["nb"].to_numpy()
        jac = i / (na + nb - i)
        keep = jac >= threshold
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})

    return inter.map_batches(jfilter, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------------ simhash


class SimHasher:
    """64-bit SimHash over word-unigram hashes; near-dups = small Hamming
    distance. Emits (doc_id, simhash, band keys) for banded blocking."""

    def __init__(self, bands: int = 4, id_col: str = "doc_id", text_col: str = "text"):
        self.bands = bands
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas().fillna("").str.lower().str.split()
        ids = batch[self.id_col].to_numpy()
        n = len(ids)
        sims = np.zeros(n, np.uint64)
        lens = texts.str.len().fillna(0).to_numpy(dtype=np.int64)
        nz = np.flatnonzero(lens)
        if len(nz):
            # one hash call + one reduceat for the whole batch — the per-doc
            # loop this replaces hashed word lists row by row
            allw = np.concatenate([np.asarray(texts.iloc[i], dtype=object) for i in nz])
            h = fnv1a64_words(allw)  # SQL-reproducible word hash (see ids.py)
            bits = (
                (h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
            ).astype(np.int8)
            starts = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
            ones = np.add.reduceat(bits.astype(np.int64), starts, axis=0)
            vote = ones * 2 - lens[nz][:, None]
            powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
            sims[nz] = ((vote > 0) * powers[None, :]).sum(axis=1, dtype=np.uint64)
        out = {self.id_col: pa.array(ids), "simhash": pa.array(sims.view(np.int64))}
        width = 64 // self.bands
        for bidx in range(self.bands):
            seg = (sims >> np.uint64(bidx * width)) & np.uint64((1 << width) - 1)
            out[f"band{bidx}"] = pa.array(seg.view(np.int64))
        return pa.table(out)


def simhash_signatures(docs: Dataset, *, bands: int = 4, concurrency: int = 4,
                       id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """``SimHasher`` rows per document; ``concurrency`` caps the number of
    concurrent tasks."""
    return docs.map_batches(
        SimHasher(bands, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=2048,
    )


def simhash_pairs(docs: Dataset, *, max_hamming: int = 3, bands: int = 4,
                  concurrency: int = 4, id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """Near-dup pairs with Hamming(simhash) ≤ max_hamming via band blocking
    (a pair within distance d < bands shares ≥1 exact band — pigeonhole)."""
    sigs = simhash_signatures(
        docs, bands=bands, concurrency=concurrency, id_col=id_col, text_col=text_col
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        sim = batch["simhash"].to_numpy()
        bcols = [batch[f"band{i}"].to_numpy() for i in range(bands)]
        n = len(ids)
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(bands, dtype=np.int64), n)),
                "bucket": pa.array(np.concatenate(bcols)),
                id_col: pa.array(np.tile(ids, bands)),
                "simhash": pa.array(np.tile(sim, bands)),
            }
        )

    rows = sigs.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True)

    def pairs(batch: pa.Table) -> pa.Table:
        band = batch["band"].to_numpy()
        bucket = batch["bucket"].to_numpy()
        ids = batch[id_col].to_numpy()
        sim = batch["simhash"].to_numpy().view(np.uint64)
        order = np.lexsort((ids, bucket, band))
        band, bucket, ids, sim = band[order], bucket[order], ids[order], sim[order]
        n = len(ids)
        if n == 0:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        seg = np.empty(n, bool)
        seg[0] = True
        seg[1:] = (band[1:] != band[:-1]) | (bucket[1:] != bucket[:-1])
        starts = np.flatnonzero(seg)
        lens = np.diff(np.append(starts, n))
        run_end = np.repeat(starts + lens, lens)
        idx = np.arange(n)
        per = run_end - idx - 1
        total = int(per.sum())
        if total == 0:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        ii = np.repeat(idx, per)
        offs = np.cumsum(per) - per
        jj = ii + 1 + (np.arange(total) - offs[ii])
        x = sim[ii] ^ sim[jj]
        ham = np.zeros(total, np.int64)
        while x.any():
            ham += (x & 1).astype(np.int64)
            x >>= np.uint64(1)
        keep = (ham <= max_hamming) & (ids[ii] != ids[jj])
        a = np.minimum(ids[ii][keep], ids[jj][keep])
        b = np.maximum(ids[ii][keep], ids[jj][keep])
        return pa.table({"a": pa.array(a), "b": pa.array(b), "hamming": pa.array(ham[keep])})

    from graphx_ray.stages.derive import grouped_reduce, partitioned_map

    return grouped_reduce(
        partitioned_map(
            rows,
            ["band", "bucket"],
            pairs,
            num_partitions=max(2, concurrency),
            empty_schema=pa.schema(
                [pa.field("a", pa.int64()), pa.field("b", pa.int64()),
                 pa.field("hamming", pa.int64())]
            ),
        ),
        ["a", "b"],
        sum_col="hamming",
        agg="min",
        num_partitions=max(2, concurrency),
    )


# ------------------------------------------- substring-level exact dedup
# (Lee et al. 2022, "Deduplicating Training Data Makes Language Models
# Better" — the ExactSubstr side: doc-level exact/fuzzy dedup misses long
# substrings repeated ACROSS otherwise-distinct documents. The published
# method is a corpus suffix array; the distributed re-expression below
# keys k-word rolling window hashes through one storage shuffle, which
# finds exactly the duplicated runs of length ≥ k words.)


def duplicated_substring_stats(
    docs: Dataset,
    *,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """Per-doc accounting of duplicated ≥k-word substrings under a PINNED
    integer rule — (doc_id, n_words, n_kept):

    - words: lowercased whitespace split (the corpus-wide shingle rule);
    - every k-word window gets the order-sensitive rolling hash the
      shingle kernel uses (fnv1a64 word hashes, mulmod·xor·splitmix
      combine — SQL-replayable bit-for-bit);
    - a window is DUPLICATED when its hash occurs at ≥2 (doc, pos)
      positions corpus-wide; the lexicographically smallest (doc_id, pos)
      occurrence is canonical and kept, every other occurrence marks its
      k word positions for removal (Lee et al.: keep one copy);
    - n_kept = n_words − |union of removed spans| (equal-length interval
      union: k + Σ min(k, gap) over sorted positions).

    Scale shape: window rows are O(total words); ONE hash-keyed storage
    shuffle finds duplicate groups (no all-pairs, no suffix array in
    memory); one doc-keyed shuffle folds spans per doc. Both shuffles are
    the grouped_reduce spill pattern."""
    from graphx_ray.ids import mix64
    from graphx_ray.stages.derive import partitioned_map

    ensure_hash_shuffle(docs)

    def rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        ids = batch[id_col].to_numpy()
        toks = texts.fillna("").str.lower().str.split()
        nwords = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
        n = len(ids)
        total = int(nwords.sum())
        starts = np.concatenate([[0], np.cumsum(nwords)[:-1]])
        w_doc = np.empty(0, np.int64)
        w_pos = np.empty(0, np.int64)
        w_h = np.empty(0, np.uint64)
        if total >= k:
            ex = toks.explode().dropna()
            wh = fnv1a64_words(ex.to_numpy(dtype=object))
            doc_of = np.repeat(np.arange(n), nwords)
            acc = wh[: total - k + 1].copy()
            for j in range(1, k):
                acc = mix64(acc * _ROLL_C ^ wh[j : total - k + 1 + j])
            valid = doc_of[: total - k + 1] == doc_of[k - 1 :]
            vi = np.flatnonzero(valid)
            di = doc_of[vi]
            w_doc = ids[di]
            w_pos = vi - starts[di]
            w_h = acc[vi]
        # window rows (kind 0) + one base row per doc (kind 1, nw in pos)
        return pa.table(
            {
                id_col: pa.array(np.concatenate([w_doc, ids]), type=pa.int64()),
                "pos": pa.array(np.concatenate([w_pos, nwords]), type=pa.int64()),
                "h": pa.array(
                    np.concatenate([w_h.view(np.int64), np.full(n, -1, np.int64)])
                ),
                "kind": pa.array(
                    np.concatenate([np.zeros(len(w_doc), np.int8), np.ones(n, np.int8)])
                ),
            }
        )

    tagged = docs.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True)
    win = tagged.filter(expr="kind == 0")
    base = tagged.filter(expr="kind == 1")

    dup_schema = pa.schema([pa.field(id_col, pa.int64()), pa.field("pos", pa.int64())])

    def noncanon(tbl: pa.Table) -> pa.Table:
        """All non-canonical occurrences of duplicated hashes in this
        hash partition (equal hashes are co-located)."""
        if tbl.num_rows == 0:
            return dup_schema.empty_table()
        h = tbl["h"].to_numpy()
        d = tbl[id_col].to_numpy()
        p = tbl["pos"].to_numpy()
        order = np.lexsort((p, d, h))
        h, d, p = h[order], d[order], p[order]
        first = np.empty(len(h), bool)
        first[0] = True
        np.not_equal(h[1:], h[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, len(h)))
        # groups of size >= 2: drop the first (canonical) row of each
        in_dup_group = np.repeat(lens >= 2, lens)
        is_first = first
        keep = in_dup_group & ~is_first
        return pa.table({id_col: pa.array(d[keep]), "pos": pa.array(p[keep])},
                        schema=dup_schema)

    removals = partitioned_map(
        win.select_columns([id_col, "pos", "h"]), ["h"], noncanon,
        num_partitions=num_partitions, empty_schema=dup_schema,
    )

    out_schema = pa.schema(
        [pa.field(id_col, pa.int64()), pa.field("n_words", pa.int64()),
         pa.field("n_kept", pa.int64())]
    )

    def fold(tbl: pa.Table) -> pa.Table:
        """Per doc: n_words from the base row, covered = equal-length
        interval union over removal positions."""
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        d = tbl[id_col].to_numpy()
        p = tbl["pos"].to_numpy()
        kind = tbl["kind"].to_numpy()
        order = np.lexsort((p, kind, d))  # base rows (kind 1) after windows
        d, p, kind = d[order], p[order], kind[order]
        first = np.empty(len(d), bool)
        first[0] = True
        np.not_equal(d[1:], d[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, len(d)))
        # n_words: the kind-1 row per doc (exactly one; sorts last in doc)
        ends = starts + lens - 1
        if not bool((kind[ends] == 1).all()):
            raise ValueError("doc missing its base row in substring fold")
        nw = p[ends]
        # removal rows per doc: positions sorted ascending at the run head
        rem_lens = lens - 1
        # covered = k + sum(min(k, diff)) over each doc's sorted positions
        covered = np.zeros(len(starts), np.int64)
        has = rem_lens > 0
        if has.any():
            pos_rows = kind == 0
            # per-doc segments over the window rows only
            dw = d[pos_rows]
            pw = p[pos_rows]
            firstw = np.empty(len(dw), bool)
            if len(dw):
                firstw[0] = True
                np.not_equal(dw[1:], dw[:-1], out=firstw[1:])
                diffs = np.empty(len(pw), np.int64)
                diffs[0] = k
                diffs[1:] = np.minimum(k, pw[1:] - pw[:-1])
                diffs[firstw] = k
                sw = np.flatnonzero(firstw)
                per_doc = np.add.reduceat(diffs, sw)
                # map window-doc runs back to the full doc list
                doc_ids_w = dw[sw]
                idx = np.searchsorted(d[starts], doc_ids_w)
                covered[idx] = per_doc
        return pa.table(
            {
                id_col: pa.array(d[starts]),
                "n_words": pa.array(nw),
                "n_kept": pa.array(nw - covered),
            },
            schema=out_schema,
        )

    def tag_rem(batch: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: batch[id_col], "pos": batch["pos"],
             "kind": pa.array(np.zeros(batch.num_rows, np.int8))}
        )

    def tag_base(batch: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: batch[id_col], "pos": batch["pos"],
             "kind": pa.array(np.ones(batch.num_rows, np.int8))}
        )

    both = removals.map_batches(tag_rem, batch_format="pyarrow", zero_copy_batch=True).union(
        base.map_batches(tag_base, batch_format="pyarrow", zero_copy_batch=True)
    )
    return partitioned_map(
        both, [id_col], fold, num_partitions=num_partitions, empty_schema=out_schema,
    )


def remove_duplicated_substrings(
    docs: Dataset,
    *,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """The CLEANING counterpart of ``duplicated_substring_stats``: returns
    (doc_id, text_clean, n_words, n_kept) where ``text_clean`` is the doc
    with every word removed that the stats rule marks duplicated
    (non-canonical occurrences of corpus-wide ≥k-word runs). Pinned
    reconstruction: tokens = whitespace split of the ORIGINAL text
    (hashing uses their lowercased forms, same as the stats kernel);
    kept tokens re-join with single spaces.

    Same scale shape as the stats op (one hash-keyed shuffle for
    duplicate groups, one doc-keyed shuffle to apply spans) plus the doc
    text riding the second shuffle."""
    from graphx_ray.ids import mix64
    from graphx_ray.stages.derive import partitioned_map

    ensure_hash_shuffle(docs)

    def rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        ids = batch[id_col].to_numpy()
        toks = texts.fillna("").str.lower().str.split()
        nwords = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
        n = len(ids)
        total = int(nwords.sum())
        starts = np.concatenate([[0], np.cumsum(nwords)[:-1]])
        w_doc = np.empty(0, np.int64)
        w_pos = np.empty(0, np.int64)
        w_h = np.empty(0, np.uint64)
        if total >= k:
            ex = toks.explode().dropna()
            wh = fnv1a64_words(ex.to_numpy(dtype=object))
            doc_of = np.repeat(np.arange(n), nwords)
            acc = wh[: total - k + 1].copy()
            for j in range(1, k):
                acc = mix64(acc * _ROLL_C ^ wh[j : total - k + 1 + j])
            valid = doc_of[: total - k + 1] == doc_of[k - 1 :]
            vi = np.flatnonzero(valid)
            di = doc_of[vi]
            w_doc = ids[di]
            w_pos = vi - starts[di]
            w_h = acc[vi]
        texts_str = texts.fillna("").to_numpy(dtype=object)
        return pa.table(
            {
                id_col: pa.array(np.concatenate([w_doc, ids]), type=pa.int64()),
                "pos": pa.array(np.concatenate([w_pos, np.zeros(n, np.int64)])),
                "h": pa.array(
                    np.concatenate([w_h.view(np.int64), np.full(n, -1, np.int64)])
                ),
                "kind": pa.array(
                    np.concatenate([np.zeros(len(w_doc), np.int8), np.ones(n, np.int8)])
                ),
                "text": pa.array(
                    np.concatenate([np.full(len(w_doc), None, object), texts_str]),
                    type=pa.string(),
                ),
            }
        )

    tagged = docs.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True)
    win = tagged.filter(expr="kind == 0").select_columns([id_col, "pos", "h"])
    base = tagged.filter(expr="kind == 1").select_columns([id_col, "text"])

    dup_schema = pa.schema([pa.field(id_col, pa.int64()), pa.field("pos", pa.int64())])

    def noncanon(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return dup_schema.empty_table()
        h = tbl["h"].to_numpy()
        d = tbl[id_col].to_numpy()
        p = tbl["pos"].to_numpy()
        order = np.lexsort((p, d, h))
        h, d, p = h[order], d[order], p[order]
        first = np.empty(len(h), bool)
        first[0] = True
        np.not_equal(h[1:], h[:-1], out=first[1:])
        lens = np.diff(np.append(np.flatnonzero(first), len(h)))
        keep = np.repeat(lens >= 2, lens) & ~first
        return pa.table({id_col: pa.array(d[keep]), "pos": pa.array(p[keep])},
                        schema=dup_schema)

    removals = partitioned_map(
        win, ["h"], noncanon, num_partitions=num_partitions, empty_schema=dup_schema,
    )

    out_schema = pa.schema(
        [pa.field(id_col, pa.int64()), pa.field("text_clean", pa.string()),
         pa.field("n_words", pa.int64()), pa.field("n_kept", pa.int64())]
    )

    def apply_spans(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = tbl.to_pandas()
        texts = df[df["kind"] == 1].set_index(id_col)["text"]
        rem = df[df["kind"] == 0]
        rem_by_doc = {d: g["pos"].to_numpy() for d, g in rem.groupby(id_col)}
        ids_out, clean, nw_out, nk_out = [], [], [], []
        for did, text in texts.items():
            toks = text.split()
            drop = np.zeros(len(toks), bool)
            for p in rem_by_doc.get(did, ()):  # spans [p, p+k)
                drop[int(p): int(p) + k] = True
            kept = [t for t, dr in zip(toks, drop) if not dr]
            ids_out.append(did)
            clean.append(" ".join(kept))
            nw_out.append(len(toks))
            nk_out.append(len(kept))
        return pa.table(
            {id_col: pa.array(ids_out, type=pa.int64()),
             "text_clean": pa.array(clean, type=pa.string()),
             "n_words": pa.array(nw_out, type=pa.int64()),
             "n_kept": pa.array(nk_out, type=pa.int64())},
            schema=out_schema,
        )

    def tag_rem(batch: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: batch[id_col], "pos": batch["pos"],
             "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
             "text": pa.nulls(batch.num_rows, pa.string())}
        )

    def tag_text(batch: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: batch[id_col],
             "pos": pa.array(np.zeros(batch.num_rows, np.int64)),
             "kind": pa.array(np.ones(batch.num_rows, np.int8)),
             "text": batch["text"]}
        )

    both = removals.map_batches(tag_rem, batch_format="pyarrow", zero_copy_batch=True).union(
        base.map_batches(tag_text, batch_format="pyarrow", zero_copy_batch=True)
    )
    return partitioned_map(
        both, [id_col], apply_spans, num_partitions=num_partitions,
        empty_schema=out_schema,
    )


# ------------------------------------------------ corpus-level line dedup


def duplicated_lines(
    docs: Dataset,
    *,
    text_col: str = "text",
    sep: str = "\n",
    min_count: int = 2,
    num_partitions: int = 16,
) -> Dataset:
    """(line, n): corpus-wide frequency of every ``sep``-delimited segment,
    filtered to n ≥ ``min_count`` — CCNet/C4-style boilerplate detection
    (navigation chrome, cookie banners, licence footers repeat verbatim
    across documents). Block-local ``value_counts`` partials + ONE keyed
    storage reduce; never an all-pairs pass."""
    from graphx_ray.stages.derive import grouped_reduce

    def partial(batch: pa.Table) -> pa.Table:
        s = batch[text_col].to_pandas().fillna("")
        if len(s) == 0:
            return pa.table({"line": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        vc = s.str.split(sep).explode().value_counts()
        return pa.table(
            {"line": pa.array(vc.index.to_numpy(object), type=pa.string()),
             "n": pa.array(vc.to_numpy().astype(np.int64))}
        )

    p = docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_reduce(p, ["line"], sum_col="n", num_partitions=num_partitions)
    return agg.filter(expr=f"n >= {min_count}")


_HOT_SLOT: list = [None, None]  # (ObjectRef hex, hash set): one per process


class _LineCleaner:
    """Cleanse stage, run as tasks. The duplicate-line set arrives as an
    ObjectRef and is fetched and hash-indexed once per worker process: a
    one-slot cache keyed by the ref, so the set never ships inside a task
    and another call's set replaces it instead of mixing with it. Per-batch
    work is vectorized pandas."""

    def __init__(self, hot_ref, id_col: str, text_col: str, sep: str):
        self.hot_ref = hot_ref
        self.id_col = id_col
        self.text_col = text_col
        self.sep = sep

    def _hot(self) -> set:
        import ray

        key = self.hot_ref.hex()
        if _HOT_SLOT[0] != key:
            _HOT_SLOT[:] = [key, set(ray.get(self.hot_ref).tolist())]
        return _HOT_SLOT[1]

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch[self.text_col].to_pandas().fillna("")
        split = s.str.split(self.sep)
        n_lines = np.asarray(split.str.len().fillna(0), np.int64)
        ex = split.explode()
        keep = ~ex.isin(self._hot())
        kept = ex[keep]
        joined = kept.groupby(level=0).agg(self.sep.join)
        n_kept = keep.groupby(level=0).sum()
        return pa.table({
            self.id_col: batch[self.id_col],
            "text_clean": pa.array(
                joined.reindex(s.index).fillna("").to_numpy(object), type=pa.string()
            ),
            "n_lines": pa.array(n_lines),
            "n_kept": pa.array(np.asarray(n_kept.reindex(s.index).fillna(0), np.int64)),
        })


def remove_duplicated_lines(
    docs: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = "\n",
    min_count: int = 2,
    num_partitions: int = 16,
    concurrency: int = 4,
    broadcast_limit: int = 20_000_000,
) -> Dataset:
    """CCNet/C4-style boilerplate removal: EVERY occurrence of a segment
    that appears ≥ ``min_count`` times across the corpus is dropped from
    every document (including the first occurrence — the CCNet rule).
    Returns (id, text_clean, n_lines, n_kept) for every input document.

    Two passes: (1) corpus segment counts via keyed storage reduce,
    (2) one streaming cleanse, run as tasks, with the duplicate-segment
    set broadcast once per worker process. The broadcast is
    duplicate-set-sized, NOT corpus-sized; past ``broadcast_limit``
    distinct hot segments the cleanse reroutes
    through the explode → bucketed left-join → per-doc reassembly storage
    path (the same contract enforcement as ``derive.semi_join``)."""
    import ray

    from graphx_ray.stages.derive import _distinct_keys_typed

    hot = duplicated_lines(
        docs, text_col=text_col, sep=sep, min_count=min_count,
        num_partitions=num_partitions,
    )
    hotset = _distinct_keys_typed(hot, "line", limit=broadcast_limit)
    if hotset is None:  # hot set too big to broadcast — take the scale path
        return _remove_lines_bucketed(
            docs, hot, id_col=id_col, text_col=text_col, sep=sep,
            num_partitions=num_partitions,
        )
    return docs.map_batches(
        _LineCleaner(ray.put(hotset), id_col, text_col, sep),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )


def _remove_lines_bucketed(
    docs: Dataset, hot: Dataset, *, id_col: str, text_col: str, sep: str,
    num_partitions: int,
) -> Dataset:
    """Two-large-sides cleanse: explode docs to (id, pos, line) rows,
    bucketed LEFT join against the hot-segment set (null marker = keep —
    a left join so fully-boilerplate documents still reassemble to ''),
    then one whole-partition reassembly task per id bucket."""
    from graphx_ray.stages.derive import partitioned_map
    from graphx_ray.stages.motif import bucket_join

    def explode(batch: pa.Table) -> pa.Table:
        s = batch[text_col].to_pandas().fillna("")
        ids = batch[id_col].to_numpy()
        split = s.str.split(sep)
        lens = np.asarray(split.str.len().fillna(0), np.int64)
        total = int(lens.sum())
        offs = np.cumsum(lens) - lens
        pos = np.arange(total) - np.repeat(offs, lens)
        flat = split.explode().to_numpy(object) if total else np.empty(0, object)
        return pa.table({
            id_col: pa.array(np.repeat(ids, lens)),
            "pos": pa.array(pos),
            "n_lines": pa.array(np.repeat(lens, lens)),
            "line": pa.array(flat, type=pa.string()),
        })

    def mark(batch: pa.Table) -> pa.Table:
        return pa.table({"line": batch["line"],
                         "hot": pa.array(np.ones(batch.num_rows, np.int8))})

    lines = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    hotm = hot.map_batches(mark, batch_format="pyarrow", zero_copy_batch=True)
    joined = bucket_join(lines, hotm, on="line", how="left",
                         num_partitions=num_partitions)

    out_schema = pa.schema([
        pa.field(id_col, pa.int64()), pa.field("text_clean", pa.string()),
        pa.field("n_lines", pa.int64()), pa.field("n_kept", pa.int64()),
    ])

    def reassemble(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = tbl.to_pandas().sort_values([id_col, "pos"], kind="mergesort")
        keep = df["hot"].isna()
        kept = df[keep]
        g = kept.groupby(id_col)
        joined_txt = g["line"].agg(sep.join)
        n_kept = g.size()
        heads = df.drop_duplicates(id_col).set_index(id_col)["n_lines"]
        return pa.table({
            id_col: pa.array(heads.index.to_numpy(np.int64)),
            "text_clean": pa.array(
                joined_txt.reindex(heads.index).fillna("").to_numpy(object),
                type=pa.string(),
            ),
            "n_lines": pa.array(heads.to_numpy(np.int64)),
            "n_kept": pa.array(
                np.asarray(n_kept.reindex(heads.index).fillna(0), np.int64)
            ),
        })

    return partitioned_map(
        joined, [id_col], reassemble, num_partitions=num_partitions,
        empty_schema=out_schema,
    )


# ---------------------------------------------------- winnowing fingerprints


def winnow_fingerprints(
    docs: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    window: int = 4,
) -> Dataset:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, SIGMOD
    2003 — the MOSS algorithm): hash every k-word window, then from each
    run of ``window`` consecutive hashes select the MINIMUM (rightmost on
    ties); the distinct selected hashes are the document's fingerprint
    set, guaranteeing any shared run of ≥ window+k−1 words between two
    documents shares a fingerprint. Docs with < k words (no k-window) get
    none; docs with 1..window−1 windows get the rightmost-min of all of
    them.

    Purely doc-local — ONE ``map_batches``, no shuffle. Returns
    (doc_id, fp) with fp the int64 two's-complement view of the 64-bit
    hash; the word-hash + rolling-mix chain is the SQL-replayable one
    shared with MinHash / ExactSubstr, so a DuckDB oracle recomputes the
    fingerprint set bit-identically."""
    from graphx_ray.ids import mix64

    if k < 1 or window < 1:
        raise ValueError("k and window must be >= 1")
    empty = pa.table(
        {id_col: pa.array([], pa.int64()), "fp": pa.array([], pa.int64())}
    )

    def fps(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        ids = batch[id_col].to_numpy()
        toks = texts.fillna("").str.lower().str.split()
        nwords = toks.str.len().fillna(0).to_numpy(np.int64)
        n = len(ids)
        total = int(nwords.sum())
        if total < k:
            return empty
        ex = toks.explode().dropna()
        wh = fnv1a64_words(ex.to_numpy(dtype=object))
        doc_of = np.repeat(np.arange(n), nwords)
        acc = wh[: total - k + 1].copy()
        for j in range(1, k):
            acc = mix64(acc * _ROLL_C ^ wh[j : total - k + 1 + j])
        valid = doc_of[: total - k + 1] == doc_of[k - 1 :]
        vi = np.flatnonzero(valid)
        if len(vi) == 0:
            return empty
        di = doc_of[vi]  # doc index per shingle, positional order
        sh = acc[vi]
        m = len(sh)
        seg_new = np.empty(m, bool)
        seg_new[0] = True
        seg_new[1:] = di[1:] != di[:-1]
        seg_starts = np.flatnonzero(seg_new)
        seg_lens = np.diff(np.concatenate([seg_starts, [m]]))
        w = window
        picks = []
        if m >= w:
            # full windows: rightmost min via reversed-window argmin
            sw = np.lib.stride_tricks.sliding_window_view(sh, w)
            full = di[: m - w + 1] == di[w - 1 :]
            if full.any():
                idx = (w - 1) - sw[full][:, ::-1].argmin(axis=1)
                picks.append(np.flatnonzero(full) + idx)
        if (seg_lens < w).any():
            # short docs (1..w−1 windows... i.e. < w shingles): ONE
            # whole-doc window, rightmost min of the segment
            seg_min = np.minimum.reduceat(sh, seg_starts)
            rep_min = np.repeat(seg_min, seg_lens)
            pos_masked = np.where(sh == rep_min, np.arange(m), -1)
            rightmost = np.maximum.reduceat(pos_masked, seg_starts)
            picks.append(rightmost[seg_lens < w])
        sel = np.unique(np.concatenate(picks))
        out_di, out_fp = di[sel], sh[sel]
        # fingerprint SET per doc: dedupe equal hashes selected at
        # different positions
        order = np.lexsort((out_fp, out_di))
        out_di, out_fp = out_di[order], out_fp[order]
        keep = np.empty(len(out_di), bool)
        keep[0] = True
        keep[1:] = (out_di[1:] != out_di[:-1]) | (out_fp[1:] != out_fp[:-1])
        return pa.table(
            {
                id_col: pa.array(ids[out_di[keep]], type=pa.int64()),
                "fp": pa.array(out_fp[keep].view(np.int64)),
            }
        )

    return docs.map_batches(fps, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------- benchmark decontamination


def ngram_contamination(
    docs: Dataset,
    benchmark: Dataset,
    *,
    k: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_text_col: str | None = None,
    num_partitions: int = 16,
    broadcast_limit: int = 50_000_000,
) -> Dataset:
    """Benchmark decontamination (the n-gram overlap check every training
    corpus runs against its eval sets): per corpus document, how many of
    its DISTINCT k-word shingles also appear anywhere in ``benchmark``;
    any overlap ⇒ contaminated. Returns (id, n_shingles, n_hits,
    contaminated) for every corpus doc; docs with < k words have no
    shingle and are clean by definition.

    The benchmark shingle set is distinct-reduced and broadcast once
    (eval sets are small by nature — int64 hash array, zero-copy from the
    object store in every task); past ``broadcast_limit`` distinct
    benchmark shingles it reroutes through the bucketed two-large-sides
    semi-join (same enforcement as ``derive.semi_join``). Shingle hashes
    use the shared SQL-replayable word-hash + rolling-mix chain."""
    import ray

    from graphx_ray.stages.derive import _distinct_keys_typed

    bench_text_col = bench_text_col or text_col

    def bpart(batch: pa.Table) -> pa.Table:
        _, flat = _shingle_flat(batch[bench_text_col].to_pandas(), k, short="skip")
        return pa.table({"sh": pa.array(np.unique(flat).view(np.int64))})

    bsh = benchmark.map_batches(bpart, batch_format="pyarrow", zero_copy_batch=True)
    bset = _distinct_keys_typed(bsh, "sh", limit=broadcast_limit)
    out_schema = pa.schema([
        pa.field(id_col, pa.int64()), pa.field("n_shingles", pa.int64()),
        pa.field("n_hits", pa.int64()), pa.field("contaminated", pa.int64()),
    ])
    if bset is None:  # benchmark side too big to broadcast — scale path
        return _contamination_bucketed(
            docs, bsh, k=k, id_col=id_col, text_col=text_col,
            num_partitions=num_partitions, out_schema=out_schema,
        )
    bref = ray.put(bset)  # sorted int64 — zero-copy numpy in every task

    def probe(batch: pa.Table) -> pa.Table:
        b = ray.get(bref)
        lens, flat = _shingle_flat(batch[text_col].to_pandas(), k, short="skip")
        x = flat.view(np.int64)
        if len(b):
            p = np.searchsorted(b, x)
            hit = (p < len(b)) & (b[np.minimum(p, len(b) - 1)] == x)
        else:
            hit = np.zeros(len(x), bool)
        cs = np.concatenate([[0], np.cumsum(hit, dtype=np.int64)])
        bounds = np.concatenate([[0], np.cumsum(lens)])
        n_hits = cs[bounds[1:]] - cs[bounds[:-1]]
        return pa.table({
            id_col: batch[id_col],
            "n_shingles": pa.array(lens),
            "n_hits": pa.array(n_hits),
            "contaminated": pa.array((n_hits > 0).astype(np.int64)),
        }, schema=out_schema)

    return docs.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def _contamination_bucketed(
    docs: Dataset, bsh: Dataset, *, k: int, id_col: str, text_col: str,
    num_partitions: int, out_schema: pa.Schema,
) -> Dataset:
    """(id, sh) corpus rows ⋈semi benchmark shingles through storage, then
    one keyed reduce sums base (n_shingles, 0) and hit (0, 1) rows."""
    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.motif import bucket_join

    def rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        lens, flat = _shingle_flat(batch[text_col].to_pandas(), k, short="skip")
        return pa.table({
            id_col: pa.array(np.concatenate([np.repeat(ids, lens), ids])),
            "sh": pa.array(np.concatenate(
                [flat.view(np.int64), np.zeros(len(ids), np.int64)])),
            "kind": pa.array(np.concatenate(
                [np.ones(int(lens.sum()), np.int8), np.zeros(len(ids), np.int8)])),
            "ns": pa.array(np.concatenate(
                [np.zeros(int(lens.sum()), np.int64), lens])),
        })

    tagged = docs.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True)
    hits = bucket_join(
        tagged.filter(expr="kind == 1"), bsh, on="sh", how="semi",
        num_partitions=num_partitions,
    )

    def as_hit(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({id_col: batch[id_col],
                         "ns": pa.array(np.zeros(n, np.int64)),
                         "nh": pa.array(np.ones(n, np.int64))})

    def as_base(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch[id_col], "ns": batch["ns"],
                         "nh": pa.array(np.zeros(batch.num_rows, np.int64))})

    both = hits.map_batches(as_hit, batch_format="pyarrow", zero_copy_batch=True).union(
        tagged.filter(expr="kind == 0").map_batches(
            as_base, batch_format="pyarrow", zero_copy_batch=True)
    )
    red = grouped_reduce(
        both, [id_col], agg_cols={"ns": "sum", "nh": "sum"},
        num_partitions=num_partitions,
    )

    def fin(batch: pa.Table) -> pa.Table:
        nh = batch["nh"].to_numpy()
        return pa.table({
            id_col: batch[id_col], "n_shingles": batch["ns"],
            "n_hits": pa.array(nh.astype(np.int64)),
            "contaminated": pa.array((nh > 0).astype(np.int64)),
        }, schema=out_schema)

    return red.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def fuzzy_contamination(
    corpus: Dataset,
    benchmark: Dataset,
    *,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency: int = 4,
    num_partitions: int = 16,
) -> Dataset:
    """Cross-corpus FUZZY decontamination (the near-dup complement of
    ``ngram_contamination``, the Lee et al. 2022 "train/test overlap"
    shape): flag corpus docs whose exact k-shingle Jaccard with ANY
    benchmark doc ≥ threshold, found through MinHash-LSH candidates —
    never an all-pairs corpus × benchmark join.

    The corpus tag survives the id-only LSH plumbing via id parity:
    corpus ids → 2·id, benchmark ids → 2·id+1 (requires ids < 2^62 —
    re-key hashed 64-bit ids first). Union → ``minhash_lsh_pairs`` →
    keep opposite-parity candidates → ``verify_jaccard`` (exact,
    distributed) → per corpus doc the single best benchmark match via
    one ``grouped_top_k``. Returns (doc_id, bench_id, jaccard_e6) with
    jaccard_e6 = floor(jaccard·10⁶ + 0.5) — one row per contaminated
    corpus doc."""
    from graphx_ray.stages.derive import grouped_top_k

    def tag(parity: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy().astype(np.int64) * 2 + parity
            return pa.table({id_col: pa.array(ids), text_col: batch[text_col]})

        return f

    u = corpus.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        benchmark.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)
    )
    cand = minhash_lsh_pairs(
        u, num_perm=num_perm, bands=bands, k=k,
        id_col=id_col, text_col=text_col, concurrency=concurrency,
    )

    def cross_only(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        keep = (a & 1) != (b & 1)
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})

    cand = cand.map_batches(cross_only, batch_format="pyarrow", zero_copy_batch=True)
    ver = verify_jaccard(
        cand, u, threshold=threshold, k=k,
        id_col=id_col, text_col=text_col, num_partitions=num_partitions,
    )

    def to_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        j = batch["jaccard"].to_numpy()
        corp = np.where((a & 1) == 0, a, b) >> 1
        ben = np.where((a & 1) == 1, a, b) >> 1
        je6 = np.floor(j * 1_000_000 + 0.5).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(corp, type=pa.int64()),
                "bench_id": pa.array(ben, type=pa.int64()),
                "jaccard_e6": pa.array(je6),
            }
        )

    rows = ver.map_batches(to_rows, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_top_k(
        rows, ["doc_id"], "jaccard_e6", 1,
        tie_cols=["bench_id"], num_partitions=num_partitions,
    )
