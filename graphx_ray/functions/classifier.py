"""fastText-style hashed-bag-of-words linear document classifier.

The standard web-curation quality filter shape (Joulin et al. 2016;
CCNet/RefinedWeb use exactly this family): each lowercased whitespace
token hashes into one of ``dim`` feature buckets and the document score
is the sum of the bucket weights (with multiplicity). Real deployments
load trained float weights; this engine's built-in model derives an
INTEGER weight table deterministically from a seed (splitmix64 of the
bucket id, mapped to [−8, 8]) so that

- scoring is exact int64 end-to-end (no float leaves the engine),
- the DuckDB oracle replays the whole model bit-identically (FNV-1a-64
  word hash + splitmix weight chain, both already pinned in SQL for the
  dedup oracles), and
- a caller CAN pass their own trained integer weight vector (``weights=``)
  — the scoring kernel is model-agnostic.

Scale shape: stateless per-batch map — the weight LUT (dim int64, a few
KB..MB) is built once per actor in ``__init__``; per batch the token
explode → hash → LUT-gather → per-doc bincount is fully vectorized. No
shuffle at all: this is the cheapest possible stage class.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from graphx_ray.ids import fnv1a64_words, mix64

RESULT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("score", pa.int64()),
        ("n_tokens", pa.int64()),
        ("keep", pa.int64()),
    ]
)


def seeded_weights(dim: int, seed: int) -> np.ndarray:
    """Deterministic int64 weight table in [−8, 8]: splitmix64 of
    (seed·2³² + bucket) mod 17 − 8 — the same draw the SQL oracle
    replays."""
    b = np.arange(dim, dtype=np.uint64)
    h = mix64((np.uint64(seed) << np.uint64(32)) + b)
    return (h % np.uint64(17)).astype(np.int64) - 8


class HashLinearClassifier:
    """Scoring stage, run as tasks: the weight LUT is built once, in
    ``__init__`` on the driver, and ships inside the instance; __call__
    scores one Arrow batch vectorized (explode → FNV hash → gather →
    bincount)."""

    def __init__(
        self,
        *,
        dim: int = 4096,
        seed: int = 17,
        threshold: int = 0,
        text_col: str = "text",
        id_col: str = "doc_id",
        weights: np.ndarray | None = None,
    ):
        if weights is not None:
            w = np.asarray(weights, dtype=np.int64)
            if len(w) != dim:
                raise ValueError(f"weights len {len(w)} != dim {dim}")
            self.w = w
        else:
            self.w = seeded_weights(dim, seed)
        self.dim = np.uint64(dim)
        self.threshold = int(threshold)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return RESULT_SCHEMA.empty_table()
        s = batch[self.text_col].to_pandas().fillna("").str.lower().str.split()
        lens = s.str.len().fillna(0).astype(np.int64).to_numpy()
        score = np.zeros(n, np.int64)
        ex = s.explode()
        live = ex.notna().to_numpy()
        if live.any():
            words = np.asarray(ex.to_numpy()[live], dtype="U")
            docidx = ex.index.to_numpy()[live]
            bucket = (fnv1a64_words(words) % self.dim).astype(np.int64)
            # bincount sums int64 contributions exactly (|Σ| ≪ 2^53)
            score = np.bincount(
                docidx, weights=self.w[bucket], minlength=n
            ).astype(np.int64)
        keep = (score > self.threshold).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch[self.id_col],
                "score": pa.array(score),
                "n_tokens": pa.array(lens),
                "keep": pa.array(keep),
            },
            schema=RESULT_SCHEMA,
        )


def classify(
    docs: Dataset,
    *,
    dim: int = 4096,
    seed: int = 17,
    threshold: int = 0,
    text_col: str = "text",
    id_col: str = "doc_id",
    weights: np.ndarray | None = None,
    concurrency: int = 4,
) -> Dataset:
    """(doc_id, score, n_tokens, keep) per document; ``concurrency`` caps
    the number of concurrent tasks."""
    return docs.map_batches(
        HashLinearClassifier(
            dim=dim, seed=seed, threshold=threshold,
            text_col=text_col, id_col=id_col, weights=weights,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )
