"""Distributed BPE tokenizer training (Sennrich, Haddow & Birch 2016).

The byte-pair-encoding learner behind GPT-style tokenizers: start from
per-character symbol sequences of each distinct word, repeatedly count
adjacent symbol pairs (weighted by word frequency), merge the most
frequent pair corpus-wide, repeat. This engine trains on the DISTINCT
word table (the classic formulation: |vocab| rows, not corpus rows — at
100 TB that's ~10⁸ distinct words where the corpus is 10¹²), so every
round is:

- one vectorized pair-extraction pass over the symbol-list column
  (flattened offsets arithmetic, no Python loop over words),
- one keyed storage reduce of (left, right) → count,
- a model-sized argmax on the driver (per-batch top-1 partials — the
  merge TABLE is the model, like k-means centroids),
- one vectorized merge application (greedy left-to-right non-overlap ==
  keep even offsets within each run of consecutive match positions),
  with the word table re-spilled so rounds do not re-execute lineage.

Determinism: ties on the max count break to the lexicographically
smallest (left, right) — pinned, so the merge table is unique and
parallelism-invariant. The full k-round trainer is pytest-pinned against
a pure-python Sennrich replay (a SQL unroll would need per-round list
rewriting — documented deliberate skip, same rationale as greedy
coloring); round 1 (pair counts over raw characters + the chosen first
merge) IS SQL-expressible and ships as the hash-verified driver query.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

MERGE_SCHEMA = pa.schema(
    [("rank", pa.int64()), ("left", pa.string()), ("right", pa.string()),
     ("count", pa.int64())]
)
PAIR_SCHEMA = pa.schema(
    [("l", pa.string()), ("r", pa.string()), ("n", pa.int64())]
)


def _as_ds(docs) -> Dataset:
    if isinstance(docs, Dataset):
        return docs
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame(docs))


def word_counts(
    docs: Dataset, *, text_col: str = "text", num_partitions: int = 8
) -> Dataset:
    """(word, n) over the lowercased whitespace tokens of the corpus."""
    from graphx_ray.stages.derive import grouped_reduce

    docs = _as_ds(docs)

    def partial(batch: pa.Table) -> pa.Table:
        s = batch[text_col].to_pandas().fillna("").str.lower().str.split()
        ex = s.explode().dropna()
        if len(ex) == 0:
            return pa.table(
                {"word": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        vc = ex.value_counts()
        return pa.table(
            {"word": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
             "n": pa.array(vc.to_numpy().astype(np.int64))}
        )

    return grouped_reduce(
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["word"], sum_col="n", num_partitions=num_partitions,
        empty_schema=pa.schema([("word", pa.string()), ("n", pa.int64())]),
    )


def _flat(syms_col: pa.ChunkedArray | pa.Array):
    """Flatten a list<string> column → (values object array, lens)."""
    s = syms_col.to_pandas()
    lens = s.str.len().to_numpy().astype(np.int64)
    vals = np.asarray(s.explode().dropna().to_numpy(), dtype=object)
    return vals, lens


def _pair_counts_batch(batch: pa.Table) -> pa.Table:
    vals, lens = _flat(batch["syms"])
    n = batch["n"].to_numpy()
    if len(vals) < 2:
        return PAIR_SCHEMA.empty_table()
    ends = np.cumsum(lens)
    # adjacent positions i, i+1 inside the same word
    last = np.zeros(len(vals), bool)
    last[ends - 1] = True
    pos = np.flatnonzero(~last)
    if len(pos) == 0:
        return PAIR_SCHEMA.empty_table()
    wt = np.repeat(n, np.maximum(lens - 1, 0))
    left = vals[pos]
    right = vals[pos + 1]
    df = pd.DataFrame({"l": left, "r": right, "n": wt})
    g = df.groupby(["l", "r"], sort=False)["n"].sum().reset_index()
    return pa.table(
        {"l": pa.array(g["l"].to_numpy(dtype=object), pa.string()),
         "r": pa.array(g["r"].to_numpy(dtype=object), pa.string()),
         "n": pa.array(g["n"].to_numpy().astype(np.int64))},
        schema=PAIR_SCHEMA,
    )


def _apply_merge(batch: pa.Table, left: str, right: str) -> pa.Table:
    vals, lens = _flat(batch["syms"])
    n = batch["n"]
    if len(vals) < 2:
        return batch
    ends = np.cumsum(lens)
    last = np.zeros(len(vals), bool)
    if len(vals):
        last[ends - 1] = True
    match = np.zeros(len(vals), bool)
    inner = ~last
    inner_idx = np.flatnonzero(inner)
    if len(inner_idx):
        m = (vals[inner_idx] == left) & (vals[inner_idx + 1] == right)
        match[inner_idx[m]] = True
    q = np.flatnonzero(match)
    if len(q) == 0:
        return batch
    # greedy left-to-right non-overlap: within each run of consecutive
    # match positions keep even offsets
    run_start = np.ones(len(q), bool)
    run_start[1:] = q[1:] != q[:-1] + 1
    starts_idx = np.flatnonzero(run_start)
    runlens = np.diff(np.append(starts_idx, len(q)))
    offset = np.arange(len(q)) - np.repeat(starts_idx, runlens)
    sel = q[offset % 2 == 0]
    vals = vals.copy()
    vals[sel] = left + right
    drop = np.zeros(len(vals), bool)
    drop[sel + 1] = True
    word_of = np.repeat(np.arange(len(lens)), lens)
    merged_per_word = np.bincount(word_of[sel], minlength=len(lens))
    new_lens = lens - merged_per_word
    keep = ~drop
    flat = vals[keep]
    offsets = np.concatenate(([0], np.cumsum(new_lens))).astype(np.int32)
    syms = pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(flat, type=pa.string())
    )
    return pa.table({"word": batch["word"], "n": n, "syms": syms})


def bpe_train(
    docs: Dataset,
    *,
    merges: int = 8,
    text_col: str = "text",
    num_partitions: int = 8,
) -> pa.Table:
    """Learn ``merges`` BPE merges; returns the (rank, left, right,
    count) merge table — the trained tokenizer model."""
    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.structural import _spill_edges

    wc = word_counts(docs, text_col=text_col, num_partitions=num_partitions)

    def to_syms(batch: pa.Table) -> pa.Table:
        words = batch["word"].to_pandas()
        lists = words.map(list)
        lens = lists.str.len().to_numpy().astype(np.int64)
        flat = np.asarray(lists.explode().dropna().to_numpy(), dtype=object)
        offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        syms = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(flat, type=pa.string())
        )
        return pa.table({"word": batch["word"], "n": batch["n"], "syms": syms})

    cur = _spill_edges(
        wc.map_batches(to_syms, batch_format="pyarrow", zero_copy_batch=True)
    )
    out = []
    for rank in range(merges):
        counts = grouped_reduce(
            cur.map_batches(
                _pair_counts_batch, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["l", "r"], sum_col="n", num_partitions=num_partitions,
            empty_schema=PAIR_SCHEMA,
        )

        def top1(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return PAIR_SCHEMA.empty_table()
            df = batch.to_pandas()
            df = df.sort_values(["n", "l", "r"], ascending=[False, True, True])
            return pa.Table.from_pandas(df.head(1), schema=PAIR_SCHEMA,
                                        preserve_index=False)

        partials = counts.map_batches(
            top1, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()  # ≤ one row per partition — model-sized
        if partials.empty:
            break
        partials = partials.sort_values(
            ["n", "l", "r"], ascending=[False, True, True]
        )
        left, right, cnt = partials.iloc[0][["l", "r", "n"]]
        out.append((rank, str(left), str(right), int(cnt)))
        cur = _spill_edges(
            cur.map_batches(
                lambda b, _l=str(left), _r=str(right): _apply_merge(b, _l, _r),
                batch_format="pyarrow", zero_copy_batch=True,
            )
        )
    return pa.table(
        {
            "rank": pa.array([r for r, *_ in out], pa.int64()),
            "left": pa.array([l for _, l, *_ in out], pa.string()),
            "right": pa.array([r for _, _, r, _ in out], pa.string()),
            "count": pa.array([c for *_, c in out], pa.int64()),
        },
        schema=MERGE_SCHEMA,
    )


ENCODE_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_tok", pa.int64())]
)


class BpeEncoder:
    """Encoding stage, run as tasks: apply a trained merge table
    corpus-wide (the stage a training-data pipeline actually runs at
    100 TB). The merge list is built ONCE, in ``__init__`` on the driver,
    and ships inside the instance; ``__call__`` encodes only the batch's
    DISTINCT uncached words (the corpus is Zipfian, so the word cache,
    which lives for one task's batches, absorbs most occurrences) and
    reduces to per-doc token counts.

    Encode semantics (pinned): words are the lowercased whitespace tokens
    (exactly ``word_counts``' tokenization); a word starts as its
    character sequence and merges apply IN RANK ORDER, each exhausted in
    one greedy left-to-right non-overlapping pass — identical to the
    trainer's ``_apply_merge``, and equivalent to the classic
    min-rank-first apply: a pair can only exist after every merge it is
    built from (all lower-ranked), so rank order never misses a later
    occurrence, and one greedy pass cannot recreate its own pair.
    A doc's ``n_tok`` is the sum over its word occurrences; docs with no
    words count 0."""

    _CACHE_CAP = 1 << 17  # words; cleared wholesale when exceeded

    def __init__(self, merges, text_col: str = "text",
                 id_col: str = "doc_id", emit_tokens: bool = False):
        if isinstance(merges, pa.Table):
            merges = list(
                zip(merges["left"].to_pylist(), merges["right"].to_pylist())
            )
        self.merges = [(str(l), str(r)) for l, r in merges]
        self.text_col, self.id_col = text_col, id_col
        self.emit_tokens = emit_tokens
        self._cache: dict[str, tuple] = {}

    def _encode_word(self, word: str) -> tuple:
        syms = list(word)
        for left, right in self.merges:
            if len(syms) < 2:
                break
            out = []
            i = 0
            n = len(syms)
            while i < n:
                if i + 1 < n and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return tuple(syms)

    def _lookup(self, word: str) -> tuple:
        got = self._cache.get(word)
        if got is None:
            if len(self._cache) >= self._CACHE_CAP:
                self._cache.clear()
            got = self._cache[word] = self._encode_word(word)
        return got

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy()
        s = batch[self.text_col].to_pandas().fillna("").str.lower().str.split()
        lens = np.asarray([len(x) for x in s], np.int64)
        flat = np.asarray(s.explode().dropna().to_numpy(), dtype=object)
        uniq, inv = (
            np.unique(flat, return_inverse=True)
            if len(flat)
            else (np.empty(0, object), np.empty(0, np.int64))
        )
        enc = [self._lookup(w) for w in uniq]
        ntok_per_word = np.asarray([len(e) for e in enc], np.int64)
        doc_of = np.repeat(np.arange(len(ids)), lens)
        ntok = np.zeros(len(ids), np.int64)
        if len(flat):
            np.add.at(ntok, doc_of, ntok_per_word[inv])
        cols = {"doc_id": pa.array(ids, type=pa.int64()),
                "n_tok": pa.array(ntok)}
        if self.emit_tokens:
            toks = [[] for _ in ids]
            for d, wi in zip(doc_of, inv):
                toks[d].extend(enc[wi])
            cols["tokens"] = pa.array(toks, type=pa.list_(pa.string()))
        return pa.table(cols)


def bpe_encode(
    docs: Dataset,
    merges,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    emit_tokens: bool = False,
    concurrency: int = 4,
    batch_size: int = 1024,
) -> Dataset:
    """Corpus tokenization with a trained BPE merge table → one row per
    doc: (doc_id, n_tok[, tokens]). Zero shuffle — one task
    ``map_batches`` pass (``concurrency`` caps its concurrent tasks); the
    token-count output is the drop-in ``counts=`` source for
    ``packing.pack_sequences``."""
    docs = _as_ds(docs)
    return docs.map_batches(
        BpeEncoder(merges, text_col, id_col, emit_tokens),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=batch_size,
    )


def bpe_round1_pairs(
    docs: Dataset, *, text_col: str = "text", num_partitions: int = 8
) -> Dataset:
    """Round-1 character-pair counts (the SQL-verifiable slice of the
    trainer): (l, r, n) over adjacent characters of distinct words
    weighted by word frequency."""
    wc = word_counts(docs, text_col=text_col, num_partitions=num_partitions)
    from graphx_ray.stages.derive import grouped_reduce

    def pairs(batch: pa.Table) -> pa.Table:
        words = batch["word"].to_pandas()
        n = batch["n"].to_numpy()
        lens = words.str.len().to_numpy().astype(np.int64)
        flat = np.asarray(
            words.map(list).explode().dropna().to_numpy(), dtype=object
        )
        if len(flat) < 2:
            return PAIR_SCHEMA.empty_table()
        ends = np.cumsum(lens)
        last = np.zeros(len(flat), bool)
        last[ends - 1] = True
        pos = np.flatnonzero(~last)
        if len(pos) == 0:
            return PAIR_SCHEMA.empty_table()
        wt = np.repeat(n, np.maximum(lens - 1, 0))
        df = pd.DataFrame({"l": flat[pos], "r": flat[pos + 1], "n": wt})
        g = df.groupby(["l", "r"], sort=False)["n"].sum().reset_index()
        return pa.table(
            {"l": pa.array(g["l"].to_numpy(dtype=object), pa.string()),
             "r": pa.array(g["r"].to_numpy(dtype=object), pa.string()),
             "n": pa.array(g["n"].to_numpy().astype(np.int64))},
            schema=PAIR_SCHEMA,
        )

    return grouped_reduce(
        wc.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["l", "r"], sum_col="n", num_partitions=num_partitions,
        empty_schema=PAIR_SCHEMA,
    )
