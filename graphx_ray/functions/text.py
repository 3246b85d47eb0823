"""Text-analysis stages for large-scale training-data pipelines.

All stages are vectorized ``map_batches`` transforms (pandas string kernels
/ numpy). Stages with setup (compiled regexes, language profiles) are
callable classes built once on the driver and passed as an INSTANCE, so
Ray Data runs them as tasks: the instance is pickled into each task and
no actor pool is started.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

_TOKEN_RE = r"[A-Za-z0-9]+(?:'[a-z]+)?|[^\sA-Za-z0-9]"
_WS_RE = r"\s+"


def token_count_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Whitespace tokens + a BPE-ish regex token count per document."""
    s = batch[text_col].to_pandas().fillna("")
    ws = s.str.split().str.len().fillna(0).astype(np.int64)
    bpe = s.str.count(_TOKEN_RE).astype(np.int64)
    out = batch.drop_columns([c for c in batch.column_names if c not in ("doc_id",)])
    out = out.append_column("n_ws_tokens", pa.array(ws.to_numpy()))
    out = out.append_column("n_re_tokens", pa.array(bpe.to_numpy()))
    return out


def token_counts(docs: Dataset, *, text_col: str = "text") -> Dataset:
    return docs.map_batches(
        lambda b: token_count_batch(b, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


class QualityScorer:
    """Quality scoring: length / punctuation / stopword / digit ratios and
    a composite keep-score. Regexes compiled once, in ``__init__``."""

    STOP = frozenset(
        "the a an and or of to in is are was were be been it this that for on with as at by".split()
    )

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # ASCII classes so the DuckDB (RE2) oracle computes identical counts
        self.word = re.compile(r"[a-z']+", re.ASCII)
        self.punct = re.compile(r"[^\w\s]", re.ASCII)
        self.digit = re.compile(r"\d", re.ASCII)

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch[self.text_col].to_pandas().fillna("")
        n_chars = s.str.len().to_numpy(dtype=np.int64)
        n_punct = s.str.count(self.punct).to_numpy(dtype=np.int64)
        n_digit = s.str.count(self.digit).to_numpy(dtype=np.int64)
        words = s.str.lower().str.findall(self.word)
        n_words = words.str.len().to_numpy(dtype=np.int64)
        # vectorized stopword count: explode once, isin (C hash probe),
        # sum back per original row — no per-row Python
        ex = words.explode()
        n_stop = (
            ex.isin(self.STOP)
            .groupby(level=0)
            .sum()
            .reindex(s.index, fill_value=0)
            .to_numpy(dtype=np.int64)
        )
        denom = np.maximum(n_chars, 1)
        wdenom = np.maximum(n_words, 1)
        score = (
            (n_words >= 5).astype(np.float64)
            * (1.0 - n_punct / denom)
            * (0.5 + 0.5 * np.minimum(n_stop / wdenom * 4, 1.0))
        )
        cols = {
            "n_chars": n_chars,
            "n_words": n_words,
            "n_punct": n_punct,
            "n_digit": n_digit,
            "n_stop": n_stop,
            "quality": score,
        }
        out = batch
        for k, v in cols.items():
            if k in out.column_names:  # input may already carry e.g. n_chars
                out = out.drop_columns([k])
            out = out.append_column(k, pa.array(v))
        return out


def quality_scores(docs: Dataset, *, concurrency: int = 4) -> Dataset:
    """``QualityScorer`` columns appended to every row; ``concurrency``
    caps the number of concurrent tasks."""
    return docs.map_batches(
        QualityScorer(),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=4096,
    )


class LangId:
    """Character-n-gram language heuristic (en/de/fr/es/other).

    Profiles are tiny hand-built trigram preference lists — a deterministic,
    dependency-free stand-in with the same plumbing a fastText-style model
    stage would use (model built once, vectorized scoring per batch)."""

    PROFILES = {
        "en": [" th", "the", "ing", " an", "and", " of", "ion", " to", "ent", " in"],
        "de": ["der", "ein", "ich", "sch", " de", "und", " un", "che", "die", "en "],
        "fr": [" de", "les", " le", "ion", "que", " qu", "ent", "une", " la", "ais"],
        "es": [" de", " la", "que", " qu", "ión", "los", " el", "ent", "ado", " en"],
    }

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.langs = list(self.PROFILES)

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch[self.text_col].to_pandas().fillna("").str.lower()
        scores = np.zeros((len(s), len(self.langs)))
        for j, lang in enumerate(self.langs):
            for tri in self.PROFILES[lang]:
                scores[:, j] += s.str.count(re.escape(tri)).to_numpy()
        lens = np.maximum(s.str.len().to_numpy(), 1)
        scores = scores / lens[:, None]
        best = scores.argmax(axis=1)
        conf = scores.max(axis=1)
        pred = np.where(conf > 0.005, np.array(self.langs, dtype=object)[best], "other")
        out = batch.append_column("lang_pred", pa.array(pred, type=pa.string()))
        return out.append_column("lang_conf", pa.array(conf))


def lang_id(docs: Dataset, *, concurrency: int = 4) -> Dataset:
    """(lang_pred, lang_conf) appended to every row; ``concurrency`` caps
    the number of concurrent tasks."""
    return docs.map_batches(
        LangId(),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=4096,
    )


def ngram_count_batch(batch: pa.Table, *, n: int, text_col: str = "text") -> pa.Table:
    """Block-local partial n-gram counts (the combiner half of the
    vocabulary build): lowercase whitespace tokens, word n-grams joined by
    a single space, one (ngram, cnt) row per distinct n-gram in the block.
    The explode/shift construction is columnar — no per-document loop."""
    s = batch[text_col].to_pandas().fillna("").str.lower().str.split()
    ex = s.explode().dropna()
    words = ex.to_numpy(dtype=object)
    doc = ex.index.to_numpy()
    L = len(words)
    if L < n:
        return pa.table({"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
    # gram i spans words[i .. i+n-1]; valid iff all n words share a doc
    g = words[: L - n + 1].copy()
    for k in range(1, n):
        g = g + " "
        g = g + words[k : L - n + 1 + k]
    valid = doc[: L - n + 1] == doc[n - 1 :]
    vc = pd.Series(g[valid]).value_counts()
    return pa.table(
        {
            "ngram": pa.array(vc.index.to_numpy(dtype=object), type=pa.string()),
            "cnt": pa.array(vc.to_numpy(dtype=np.int64)),
        }
    )


def top_ngrams(
    docs: Dataset,
    *,
    n: int = 2,
    k: int = 100,
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """Corpus vocabulary: the ``k`` most frequent word n-grams, ordered by
    (count DESC, ngram ASC) — the deterministic tie rule.

    Scale shape: block-local partial counts (combiner) → ONE hash shuffle
    keyed by ngram (storage-backed ``grouped_reduce``) → per-block partial
    top-k under the final ordering rule (sound: each reduce block holds
    complete groups) → small global sort + limit. The full vocabulary
    never assembles in one place; only P·k rows reach the final sort."""
    from graphx_ray.stages.derive import grouped_reduce

    parts = docs.map_batches(
        lambda b: ngram_count_batch(b, n=n, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    agg = grouped_reduce(parts, ["ngram"], sum_col="cnt", num_partitions=num_partitions)

    def blocktop(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["cnt", "ngram"], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        agg.map_batches(blocktop, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["cnt", "ngram"], descending=[True, False])
        .limit(k)
    )


def term_count_batch(batch: pa.Table, *, text_col: str = "text", doc_col: str = "doc_id") -> pa.Table:
    """Per-document term frequencies: (doc_id, term, tf), one row per
    distinct (doc, lowercase whitespace token). A document lives entirely
    in one row, so block-local counting is exact — no cross-batch merge."""
    s = batch[text_col].to_pandas().fillna("").str.lower().str.split()
    ex = s.explode().dropna()
    if not len(ex):
        return pa.table(
            {doc_col: pa.array([], pa.int64()), "term": pa.array([], pa.string()),
             "tf": pa.array([], pa.int64())}
        )
    docids = batch[doc_col].to_numpy()[ex.index.to_numpy()]
    g = (
        pd.DataFrame({doc_col: docids, "term": ex.to_numpy(dtype=object)})
        .groupby([doc_col, "term"], sort=False)
        .size()
        .reset_index(name="tf")
    )
    return pa.table(
        {
            doc_col: pa.array(g[doc_col].to_numpy(), type=pa.int64()),
            "term": pa.array(g["term"].to_numpy(dtype=object), type=pa.string()),
            "tf": pa.array(g["tf"].to_numpy(dtype=np.int64)),
        }
    )


def tfidf_top_terms(
    docs: Dataset,
    *,
    k: int = 5,
    text_col: str = "text",
    doc_col: str = "doc_id",
    n_docs: int | None = None,
    num_partitions: int = 16,
) -> Dataset:
    """Per-document top-k TF-IDF terms: score = tf · ln(N / df), ordered
    (score DESC, term ASC) within a document — the deterministic tie rule.
    Returns (doc_id, term, tf, df, score).

    Scale shape: block-local (doc, term, tf) pairs → document frequency
    by ONE term-keyed storage shuffle (``grouped_reduce``) → df attached
    back by a term-keyed bucket join (two big sides — the vocabulary and
    the pair table both scale with the corpus) → per-document top-k inside
    a doc-keyed ``partitioned_map``. N (corpus size) is the one driver
    scalar."""
    from graphx_ray.stages.derive import grouped_reduce, partitioned_map
    from graphx_ray.stages.motif import bucket_join

    if n_docs is None:
        n_docs = docs.count()
    pairs = docs.map_batches(
        lambda b: term_count_batch(b, text_col=text_col, doc_col=doc_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"term": batch["term"], "df": pa.array(np.ones(batch.num_rows, np.int64))}
        )

    df = grouped_reduce(
        pairs.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["term"],
        sum_col="df",
        num_partitions=num_partitions,
    )
    joined = bucket_join(pairs, df, on="term", num_partitions=num_partitions)
    out_schema = pa.schema(
        [
            pa.field(doc_col, pa.int64()),
            pa.field("term", pa.string()),
            pa.field("tf", pa.int64()),
            pa.field("df", pa.int64()),
            pa.field("score", pa.float64()),
        ]
    )

    def topk(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        d = tbl.to_pandas()
        d["score"] = d["tf"].to_numpy() * np.log(float(n_docs) / d["df"].to_numpy())
        d = d.sort_values([doc_col, "score", "term"], ascending=[True, False, True])
        d = d.groupby(doc_col, sort=False).head(k)
        return pa.Table.from_pandas(
            d[[doc_col, "term", "tf", "df", "score"]], preserve_index=False
        ).cast(out_schema)

    return partitioned_map(
        joined, [doc_col], topk, num_partitions=num_partitions, empty_schema=out_schema
    )


BM25_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("bm25_micro", pa.int64())]
)


def bm25_scores(
    docs: Dataset,
    *,
    query_terms: list[str] | None = None,
    n_query_terms: int = 4,
    text_col: str = "text",
    doc_col: str = "doc_id",
    num_partitions: int = 16,
) -> Dataset:
    """Okapi BM25 document scores (Robertson et al., TREC-3) against a
    query term set — by default the corpus's ``n_query_terms`` most
    frequent terms under the pinned (df DESC, term ASC) order, so the
    whole run is a pure function of the corpus. Exact-integer contract
    (k1 = 6/5, b = 3/4 folded into one rational):

        tfsat_micro = (10^6 · 44·tf·L) // (20·tf·L + 6·L + 18·dl·N)
        idf_bits    = bitlen(2·(N − df) + 1) − bitlen(2·df + 1)
        bm25_micro  = Σ_{q ∈ Q ∩ doc} idf_bits(q) · tfsat_micro(q)

    where N = #docs, L = Σ doc lengths (so dl/avgdl = dl·N/L), and
    idf_bits is the repo's ±1-bit integer log2 of the Robertson idf
    (2(N−df)+1)/(2df+1) — the PMI/lm bitlength device, negative for
    df > N/2 exactly like the real idf. All int64 and order-free, so
    DuckDB replays it hash-exactly (``length(bin(n))`` = the numpy frexp
    exponent; guarded < 2^62). Docs containing no query term are omitted
    (the zero-row contract of degrees/triangles).

    Scale shape: one term-keyed ``grouped_reduce`` for df + one tiny
    global tf sum, a ≤ n_query_terms driver take, then ONE streaming
    zero-shuffle pass over the docs with the (term → df) dict broadcast —
    never a doc×vocab join."""
    from graphx_ray.stages.derive import grouped_reduce

    n_docs = int(docs.count())
    pairs = docs.map_batches(
        lambda b: term_count_batch(b, text_col=text_col, doc_col=doc_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    total_len = int(pairs.sum("tf") or 0)
    if total_len == 0:
        import ray.data as rd

        return rd.from_arrow(BM25_SCHEMA.empty_table())

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"term": batch["term"], "df": pa.array(np.ones(batch.num_rows, np.int64))}
        )

    df_ds = grouped_reduce(
        pairs.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["term"], sum_col="df", num_partitions=num_partitions,
    )
    if query_terms is None:
        def blocktop(batch: pa.Table) -> pa.Table:
            d = batch.to_pandas().sort_values(
                ["df", "term"], ascending=[False, True]
            ).head(n_query_terms)
            return pa.Table.from_pandas(d, preserve_index=False)

        top = (
            df_ds.map_batches(blocktop, batch_format="pyarrow", zero_copy_batch=True)
            .sort(["df", "term"], descending=[True, False])
            .limit(n_query_terms)
            .take_all()
        )
        qdf = {r["term"]: int(r["df"]) for r in top}
    else:
        qset = set(query_terms)

        def keep(batch: pa.Table) -> pa.Table:
            m = np.array([t in qset for t in batch["term"].to_pylist()], bool)
            return batch.filter(pa.array(m))

        top = df_ds.map_batches(
            keep, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        qdf = {r["term"]: int(r["df"]) for r in top}

    def _blen(v: np.ndarray) -> np.ndarray:
        # exact bitlength of positive ints < 2^53 (frexp exponent)
        return np.frexp(v.astype(np.float64))[1].astype(np.int64)

    idf_bits = {
        t: int(_blen(np.array([2 * (n_docs - d) + 1]))[0]
               - _blen(np.array([2 * d + 1]))[0])
        for t, d in qdf.items()
    }
    if 10**6 * 44 * total_len >= (1 << 62) // max(total_len, 1):
        raise OverflowError("bm25_scores: corpus too large for the int64 "
                            "contract; shard the corpus or rescale")

    L, N = total_len, n_docs

    def score(batch: pa.Table) -> pa.Table:
        tc = term_count_batch(batch, text_col=text_col, doc_col=doc_col)
        if tc.num_rows == 0:
            return BM25_SCHEMA.empty_table()
        d = tc.to_pandas()
        dl = d.groupby(doc_col, sort=False)["tf"].transform("sum").to_numpy()
        keep = d["term"].map(idf_bits).notna().to_numpy()
        if not keep.any():
            return BM25_SCHEMA.empty_table()
        d = d[keep]
        dl = dl[keep]
        tf = d["tf"].to_numpy(np.int64)
        ib = d["term"].map(idf_bits).to_numpy(np.int64)
        tfsat = (10**6 * 44 * tf * L) // (20 * tf * L + 6 * L + 18 * dl * N)
        contr = ib * tfsat
        g = pd.DataFrame({doc_col: d[doc_col].to_numpy(), "bm25_micro": contr})
        g = g.groupby(doc_col, sort=False, as_index=False)["bm25_micro"].sum()
        return pa.table(
            {
                "doc_id": pa.array(g[doc_col].to_numpy(), type=pa.int64()),
                "bm25_micro": pa.array(
                    g["bm25_micro"].to_numpy(np.int64), type=pa.int64()
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


TEXTRANK_SCHEMA = pa.schema(
    [("term", pa.string()), ("rank_micro", pa.int64())]
)


def textrank_keywords(
    docs: Dataset,
    *,
    iters: int = 4,
    text_col: str = "text",
    doc_col: str = "doc_id",
    num_partitions: int = 16,
) -> Dataset:
    """TextRank keyword scores (Mihalcea & Tarau, EMNLP 2004): PageRank
    over the corpus-wide word co-occurrence graph (adjacent-word window,
    undirected, weight = co-occurrence count), in the engine's pinned
    fixed-point integer PR variant so the whole run replays bit-exactly
    in SQL:

        r₀ = 10⁶,  r_{t+1}(v) = 150 000 + Σ_{u→v} (85·w·r_t(u))
                                             // (100 · odw(u))

    (α = 0.15, per-edge floor at the sender — the katz/salsa device;
    sums of int64 floors are order-free). Returns (term, rank_micro),
    term = the lexicographically smallest spelling of each fnv word
    hash (collision-pinned the same way on both sides).

    Scale shape: one bigram-type reduce builds the graph (vocabulary²-
    bounded, in practice corpus-bigram-sized), iters ghost-sized CSR
    exchanges, one term-keyed dedup and one vertex-keyed bucket_join to
    re-attach spellings. Driver holds nothing graph-sized."""
    from graphx_ray.functions.lm import _explode_hashes
    from graphx_ray.pipelines.graph import Graph
    from graphx_ray.stages.derive import grouped_reduce, partitioned_map
    from graphx_ray.stages.motif import bucket_join

    pair_schema = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                             ("n", pa.int64())])

    def bigrams(batch: pa.Table) -> pa.Table:
        h, docidx = _explode_hashes(batch, text_col)
        if h is None or len(h) < 2:
            return pair_schema.empty_table()
        same = docidx[1:] == docidx[:-1]
        a = h[:-1][same].view(np.int64)
        b = h[1:][same].view(np.int64)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v
        if not keep.any():
            return pair_schema.empty_table()
        key = np.stack([u[keep], v[keep]], axis=1)
        uniq, cnt = np.unique(key, axis=0, return_counts=True)
        return pa.table(
            {"u": pa.array(uniq[:, 0]), "v": pa.array(uniq[:, 1]),
             "n": pa.array(cnt.astype(np.int64))},
            schema=pair_schema,
        )

    cooc = grouped_reduce(
        docs.map_batches(bigrams, batch_format="pyarrow", zero_copy_batch=True),
        ["u", "v"], sum_col="n",
        num_partitions=num_partitions, empty_schema=pair_schema,
    )

    def sym(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        n = batch["n"].to_numpy()
        return pa.table(
            {"src": pa.array(np.concatenate([u, v])),
             "dst": pa.array(np.concatenate([v, u])),
             "w": pa.array(np.concatenate([n, n]))}
        )

    edges = cooc.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True)

    S = 1_000_000
    base = 150_000  # floor(0.15 · S)

    def init(vids: np.ndarray) -> np.ndarray:
        return np.full(len(vids), S, np.int64)

    def send(src_vals, w, outdeg_src):
        wi = w.astype(np.int64)
        od = outdeg_src.astype(np.int64)
        return (85 * wi * src_vals) // (100 * od)

    def vprog(old, msgs, got):
        return base + msgs

    g = Graph(edges, num_parts=num_partitions)
    try:
        ranks = g.pregel(
            init, send, vprog, merge="sum", halt="all",
            max_iter=int(iters), variant="directed",
        ).rename_columns({"value": "rank_micro"})
    finally:
        g.close()

    def term_rows(batch: pa.Table) -> pa.Table:
        s = batch[text_col].to_pandas().fillna("").str.lower().str.split()
        ex = s.explode().dropna()
        if not len(ex):
            return pa.table(
                {"h": pa.array([], pa.int64()),
                 "term": pa.array([], pa.string())}
            )
        from graphx_ray.ids import fnv1a64_words

        words = np.asarray(ex.to_numpy(), dtype=object)
        d = pd.DataFrame(
            {"h": fnv1a64_words(words).view(np.int64), "term": words}
        ).groupby("h", sort=False)["term"].min().reset_index()
        return pa.table(
            {"h": pa.array(d["h"].to_numpy()),
             "term": pa.array(d["term"].to_numpy(dtype=object), type=pa.string())}
        )

    def pick_min(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.schema([("h", pa.int64()), ("term", pa.string())]).empty_table()
        d = tbl.to_pandas().groupby("h", sort=False)["term"].min().reset_index()
        return pa.table(
            {"h": pa.array(d["h"].to_numpy()),
             "term": pa.array(d["term"].to_numpy(dtype=object), type=pa.string())}
        )

    terms = partitioned_map(
        docs.map_batches(term_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["h"], pick_min, num_partitions=num_partitions,
        empty_schema=pa.schema([("h", pa.int64()), ("term", pa.string())]),
    )
    joined = bucket_join(ranks, terms, on="vid", right_on="h",
                         num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"term": batch["term"], "rank_micro": batch["rank_micro"]},
            schema=TEXTRANK_SCHEMA,
        )

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


class Redactor:
    """PII scrub: email / URL / phone patterns replaced by
    typed placeholders, with per-document match counts. Patterns are
    RE2-compatible (no backrefs/lookaheads) so a DuckDB ``regexp_replace``
    oracle computes byte-identical output; application order is pinned
    (email → url → phone) because replacements can overlap. Regexes
    compile once, in ``__init__``."""

    PATTERNS = (
        ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
        ("url", r"https?://[^\s]+", "<URL>"),
        ("phone", r"\+?\d[\d\- ]{7,}\d", "<PHONE>"),
    )

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.compiled = [(name, re.compile(pat), repl) for name, pat, repl in self.PATTERNS]

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch[self.text_col].to_pandas().fillna("")
        out = batch
        for name, rx, repl in self.compiled:
            n = s.str.count(rx).to_numpy(dtype=np.int64)
            s = s.str.replace(rx, repl, regex=True)
            col = f"n_{name}"
            if col in out.column_names:
                out = out.drop_columns([col])
            out = out.append_column(col, pa.array(n))
        if "redacted" in out.column_names:
            out = out.drop_columns(["redacted"])
        return out.append_column("redacted", pa.array(s.to_numpy(dtype=object), type=pa.string()))


def redact(docs: Dataset, *, text_col: str = "text", concurrency: int = 4) -> Dataset:
    """``Redactor`` columns appended to every row; ``concurrency`` caps the
    number of concurrent tasks."""
    return docs.map_batches(
        Redactor(text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=4096,
    )


def fingerprint_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """64-bit document fingerprint: SipHash of NFKC-ish normalized text
    (lowercase, collapsed whitespace) — the exact-dedup key."""
    s = batch[text_col].to_pandas().fillna("")
    norm = s.str.lower().str.replace(_WS_RE, " ", regex=True).str.strip()
    h = pd.util.hash_array(norm.to_numpy(dtype=object), categorize=False)
    return batch.append_column(
        "fingerprint", pa.array(h.view(np.int64) & 0x7FFFFFFFFFFFFFFF)
    )


def fingerprints(docs: Dataset, *, text_col: str = "text") -> Dataset:
    return docs.map_batches(
        lambda b: fingerprint_batch(b, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def repetition_stats_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals per document (Rae et al. 2021 §A1.1):
    most-frequent-word count, most-frequent-bigram count, and the number of
    word-trigram occurrences whose trigram appears more than once. All
    counts are int64 so the DuckDB oracle hash is float-free; callers derive
    the filter ratios (top_word_cnt / n_words etc.) downstream.

    Tokenization is a literal single-space split (matching SQL
    ``string_split(text, ' ')``), not ``\\s+`` — the two only differ on
    texts with runs of whitespace, where both sides then agree on the empty
    tokens produced."""
    s = batch[text_col].to_pandas().fillna("")
    words = s.str.split(" ")
    n_words = words.str.len().fillna(0).to_numpy(dtype=np.int64)
    ex = words.explode().dropna()
    idx = s.index

    # per-(doc, word) counts — one C-hash groupby, no per-row Python
    wc = ex.groupby([ex.index, ex]).size()
    per_doc = wc.groupby(level=0)
    top_word = per_doc.max().reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
    n_distinct = per_doc.size().reindex(idx, fill_value=0).to_numpy(dtype=np.int64)

    # bigrams/trigrams via within-doc shift on the exploded series
    nxt = ex.groupby(level=0).shift(-1)
    big = (ex + " " + nxt).dropna()
    if len(big):
        top_big = (
            big.groupby([big.index, big]).size().groupby(level=0).max()
            .reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
        )
    else:
        top_big = np.zeros(len(s), dtype=np.int64)
    nxt2 = ex.groupby(level=0).shift(-2)
    tri = (ex + " " + nxt + " " + nxt2).dropna()
    if len(tri):
        tcnt = tri.groupby([tri.index, tri]).size()
        dup_tri = (
            tcnt[tcnt > 1].groupby(level=0).sum()
            .reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
        )
    else:
        dup_tri = np.zeros(len(s), dtype=np.int64)

    out = batch.drop_columns([c for c in batch.column_names if c != "doc_id"])
    for k, v in (
        ("n_words", n_words),
        ("n_distinct_words", n_distinct),
        ("top_word_cnt", top_word),
        ("top_bigram_cnt", top_big),
        ("dup_trigram_occ", dup_tri),
    ):
        out = out.append_column(k, pa.array(v))
    return out


def repetition_stats(docs: Dataset, *, text_col: str = "text") -> Dataset:
    return docs.map_batches(
        lambda b: repetition_stats_batch(b, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def chunk_documents(
    docs: Dataset,
    *,
    chunk_tokens: int = 128,
    stride: int | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Split each document's whitespace-token stream into fixed windows —
    the splitter complement of ``pack_sequences`` (long docs → training
    windows, optionally overlapping): one chunk per start offset
    0, stride, 2·stride, … < n_tok, each ``chunk_tokens`` long (the tail
    window is shorter). Emits (id_col, chunk_id, tok_off, n_tok,
    text_chunk); whitespace inside ``text_chunk`` is normalized to single
    spaces (the token stream is the unit, not the raw bytes — byte-exact
    reconstruction is ``T7``'s job, not this op's). Documents with no
    tokens emit no chunk. Doc-local, ONE map_batches, zero shuffle; the
    only per-chunk python step is the final string join (strings anyway —
    the offsets/lengths are pure numpy)."""
    c = int(chunk_tokens)
    s = c if stride is None else int(stride)
    if not 0 < s <= c:
        raise ValueError(f"need 0 < stride <= chunk_tokens, got {s} > {c}")

    def per_batch(batch: pa.Table) -> pa.Table:
        txt = batch[text_col].to_pandas().fillna("")
        ids = batch[id_col].to_numpy()
        toks = txt.str.split()
        n = toks.str.len().fillna(0).astype(np.int64).to_numpy()
        nch = np.where(n > 0, (np.maximum(n - 1, 0)) // s + 1, 0).astype(np.int64)
        total = int(nch.sum())
        if total == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "chunk_id": pa.array([], pa.int64()),
                 "tok_off": pa.array([], pa.int64()),
                 "n_tok": pa.array([], pa.int64()),
                 "text_chunk": pa.array([], pa.string())}
            )
        doc_rep = np.repeat(np.arange(len(txt)), nch)
        cum = np.concatenate([[0], np.cumsum(nch)])
        j = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], nch)
        off = j * s
        ln = np.minimum(c, n[doc_rep] - off)
        lists = toks.to_numpy()
        body = [
            " ".join(lists[d][o : o + m])
            for d, o, m in zip(doc_rep, off, ln)
        ]
        return pa.table(
            {
                id_col: pa.array(ids[doc_rep]),
                "chunk_id": pa.array(j),
                "tok_off": pa.array(off.astype(np.int64)),
                "n_tok": pa.array(ln.astype(np.int64)),
                "text_chunk": pa.array(body, pa.string()),
            }
        )

    return docs.map_batches(per_batch, batch_format="pyarrow", zero_copy_batch=True)


PMI_SCHEMA = pa.schema(
    [("w1", pa.string()), ("w2", pa.string()), ("n_xy", pa.int64()),
     ("n_x", pa.int64()), ("n_y", pa.int64()), ("pmi_bits", pa.int64())]
)


def pmi_bigrams(
    docs: Dataset,
    *,
    min_count: int = 5,
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """Collocation extraction by pointwise mutual information (Church &
    Hanks, CL 1990): one row per bigram with n_xy ≥ min_count —
    (w1, w2, n_xy, n_x, n_y, pmi_bits). PMI = log₂(p(xy)/(p(x)p(y))) =
    log₂(n_xy·W²/(B·n_x·n_y)) with W = total words, B = total bigrams;
    ``pmi_bits`` is the integer bitlength quantization

        (bitlen(n_xy) + 2·bitlen(W)) − (bitlen(B) + bitlen(n_x) + bitlen(n_y))

    — each bitlength is the exact integer ⌊log₂⌋+1, so the score
    approximates PMI within ±3 bits while staying overflow-free at any
    corpus size (W² would overflow int64 near 10¹⁰ words) and exactly
    order-free: the same contract as ``lm.bigram_surprisal``'s ±1-bit
    surprisal (the SQL oracle recomputes identical bits via
    ``length(bin(n))``). Collocations rank by pmi_bits DESC — the ±3-bit
    quantization is irrelevant to the ranking/filtering use.

    Scale shape: the unigram/bigram tables are two block-combined keyed
    reduces (``ngram_count_batch`` partials); W and B are single-row sums
    over the VOCABULARY-sized aggregates (driver scalars); attaching the
    two unigram counts is two storage-backed bucket joins; the scoring
    map is stateless arithmetic."""
    from graphx_ray.stages.derive import grouped_reduce
    from graphx_ray.stages.motif import bucket_join

    uni = grouped_reduce(
        docs.map_batches(
            lambda b: ngram_count_batch(b, n=1, text_col=text_col),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        ["ngram"], sum_col="cnt", num_partitions=num_partitions,
    )
    bi = grouped_reduce(
        docs.map_batches(
            lambda b: ngram_count_batch(b, n=2, text_col=text_col),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        ["ngram"], sum_col="cnt", num_partitions=num_partitions,
    )
    # corpus scalars: sums over the vocabulary-sized aggregates
    W = int(uni.sum("cnt") or 0)
    B = int(bi.sum("cnt") or 0)
    if B == 0:
        import ray.data as rd

        return rd.from_arrow(PMI_SCHEMA.empty_table())

    def split(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = batch.filter(pc.greater_equal(batch["cnt"], min_count))
        g = keep["ngram"].to_pandas()
        sp = g.str.split(" ", n=1, expand=True) if len(g) else None
        return pa.table(
            {"w1": pa.array(sp[0].to_numpy(dtype=object) if sp is not None else [], pa.string()),
             "w2": pa.array(sp[1].to_numpy(dtype=object) if sp is not None else [], pa.string()),
             "n_xy": keep["cnt"]}
        )

    pairs = bi.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)
    j1 = bucket_join(
        pairs,
        uni.map_batches(
            lambda b: pa.table({"ngram": b["ngram"], "n_x": b["cnt"]}),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        on="w1", right_on="ngram", num_partitions=num_partitions,
    )
    j2 = bucket_join(
        j1,
        uni.map_batches(
            lambda b: pa.table({"ngram": b["ngram"], "n_y": b["cnt"]}),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        on="w2", right_on="ngram", num_partitions=num_partitions,
    )
    wb = int(W).bit_length()
    bb = int(B).bit_length()

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return PMI_SCHEMA.empty_table()
        nxy = batch["n_xy"].to_numpy()
        nx = batch["n_x"].to_numpy()
        ny = batch["n_y"].to_numpy()
        # vectorized bitlength: counts are ≥ 1, so ⌊log₂⌋+1 via the
        # 6-step shift ladder (float log2 is unsafe past 2^53)
        def bl(a: np.ndarray) -> np.ndarray:
            x = a.astype(np.uint64)
            out = np.zeros(len(x), np.int64)
            for s in (32, 16, 8, 4, 2, 1):
                big = x >= (np.uint64(1) << np.uint64(s))
                out[big] += s
                x[big] >>= np.uint64(s)
            return out + 1

        pmi = bl(nxy) + 2 * wb - bb - bl(nx) - bl(ny)
        return pa.table(
            {"w1": batch["w1"], "w2": batch["w2"],
             "n_xy": pa.array(nxy), "n_x": pa.array(nx), "n_y": pa.array(ny),
             "pmi_bits": pa.array(pmi)},
            schema=PMI_SCHEMA,
        )

    return j2.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
