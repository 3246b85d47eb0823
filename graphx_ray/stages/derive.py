"""build-graph: transcripts → vertices + weighted edge table (SURVEY.md §3.1).

Re-expresses the reference's "object-zone linking" derivation (Spark
DataFrame self-joins bounded by a zone column — SURVEY.md §2.2/§2.3, spec
pinned by BASELINE.json north_star since the reference mount was empty) as
Ray Data pipelines:

- reply edges   (T5): consecutive turns within a conversation ⇒
                      actor(role_t) → actor(role_{t+1});
- tool edges    (T6): turn with non-null tool ⇒ conv → tool;
- zone edges    (J1): conversations starting within ``delta`` seconds and in
                      the same or adjacent ``zone_width`` bucket ⇒ canonical
                      conv↔conv pair — the reference's zone-proximity
                      self-join, done with *border duplication* (each conv is
                      emitted into zone and zone+1, pairs are kept only in the
                      group equal to max(zone_a, zone_b), so every pair
                      appears exactly once and no all-pairs join is needed);
- exact dedup   (A5): groupby(src, dst, etype) keeps multiplicity as ``w``
                      (PageRank counts parallel edges — SURVEY.md A.1).

Every hot function is vectorized (numpy / pandas-factorize / pyarrow) over
whole Arrow blocks; per-conversation work never calls Python per group —
conversations are co-located with one hash ``repartition(keys=["conv_id"])``
and processed with one lexsort per block.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset
from ray.data.aggregate import Min

from graphx_ray import schemas
from graphx_ray.context import ensure_hash_shuffle
from graphx_ray.ids import vid_for
from graphx_ray.state.spill import Spill, arrow_schema, hash_parts, per_part, spill, split

_EDGE_EMPTY = schemas.EDGES.empty_table()


def hash_spill(ds: Dataset, keys: list[str], num_partitions: int) -> Spill:
    """Storage-backed hash shuffle keyed by the full key-tuple hash, parts
    above ``spill.TARGET_BYTES`` re-split (``spill.split``) so
    ``num_partitions`` never has to be sized to the input. The front half
    of ``partitioned_map`` and the skew-sliced kernels."""
    return split(
        spill(ds, lambda b: (b, hash_parts(b, keys, num_partitions)), num_partitions),
        keys,
    )


def partitioned_map(
    ds: Dataset,
    keys: list[str],
    fn,
    *,
    num_partitions: int = 32,
    empty_schema: pa.Schema | None = None,
) -> Dataset:
    """Apply ``fn`` to each hash partition's COMPLETE table — the
    invariant-safe replacement for ``repartition(keys=...).map_batches(fn,
    batch_size=None)``.

    Group-local kernels (whole-conversation extraction, window pair
    enumeration, within-bucket LSH pairs) require every row of a key group
    to be co-resident in ONE batch. An in-memory hash shuffle does not
    contract one-block-per-partition (a large partition can split at
    ``target_max_block_size``, silently cutting groups across batches), so
    the shuffle goes THROUGH STORAGE: hive-partitioned parquet spill keyed
    by the full key-tuple hash, then exactly one task per partition
    directory reads it back whole and applies ``fn``. Same pattern (and
    the same deadlock/skew rationale) as ``grouped_reduce``.
    """
    def empty() -> pa.Table:
        if empty_schema is not None:
            return empty_schema.empty_table()
        # fn's OUTPUT schema, from running it on an empty input table —
        # returning the input schema would break downstream stages on
        # exactly (and only) empty inputs
        return fn(arrow_schema(ds).empty_table())

    return per_part(fn, hash_spill(ds, keys, num_partitions), empty=empty)


def grouped_reduce(
    ds: Dataset,
    keys: list[str],
    *,
    sum_col: str | None = None,
    agg: str = "sum",
    agg_cols: dict[str, str] | None = None,
    num_partitions: int = 32,
    empty_schema: pa.Schema | None = None,
    stats_out: dict | None = None,
) -> Dataset:
    """Exact dedup / keyed sum at scale WITHOUT Ray's hash-aggregate:
    hash-repartition by the first key column (equal full keys share it, so
    every duplicate group lands in one block), then one vectorized
    lexsort + reduceat per block. Measured: Ray's HashAggregate on a
    66 M-row 2-int64 key ran >8 min; this path is seconds.

    The shuffle goes THROUGH STORAGE (hive-partitioned parquet spill, one
    reduce task per partition directory) rather than Ray's hash-shuffle
    operator: chaining several in-memory hash shuffles in one DAG deadlocks
    on aggregator-actor admission in small sessions, and the storage path
    is resumable and memory-bounded by construction (the same pattern the
    CSR staging uses). Cost: one eager write of the pre-combined rows.

    Returns one row per distinct key tuple; ``sum_col`` (if given) is
    reduced per group with ``agg`` ∈ {sum, max, min}; ``agg_cols`` maps
    several columns to per-column aggs at once (windowed aggregates need
    count+sum+min+max in one pass); other columns are dropped."""
    if agg_cols is None:
        agg_cols = {sum_col: agg} if sum_col else {}
    acols = list(agg_cols)

    def part(batch: pa.Table):
        cols = {c: batch[c] for c in keys + acols}
        return pa.table(cols), hash_parts(batch, keys, num_partitions)

    s = split(spill(ds, part, num_partitions), keys)
    if stats_out is not None:
        # skew metric (S5): bytes per part — proves the full-tuple hash
        # keeps the spread bounded on Zipf-keyed inputs
        sizes = [s.nbytes(p) for p in s.parts]
        stats_out["partition_bytes"] = sizes
        stats_out["max_partition_bytes"] = max(sizes, default=0)
        stats_out["mean_partition_bytes"] = (sum(sizes) / len(sizes)) if sizes else 0

    def block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out_schema = pa.schema(
            [batch.schema.field(k) for k in keys]
            + [batch.schema.field(c) for c in acols]
        )
        if n == 0:
            return out_schema.empty_table()
        cols = []
        decode = {}
        for k in keys:
            arr = batch[k]
            if pa.types.is_integer(arr.type):
                cols.append(arr.to_numpy())
            else:
                codes, uniq = pd.factorize(arr.to_pandas())
                cols.append(codes)
                decode[k] = uniq
        order = np.lexsort(tuple(reversed(cols)))
        sorted_cols = [c[order] for c in cols]
        new = np.zeros(n, bool)
        new[0] = True
        for c in sorted_cols:  # OR of per-column change flags = group starts
            new[1:] |= c[1:] != c[:-1]
        rs = np.flatnonzero(new)
        data = {}
        for k, c in zip(keys, sorted_cols):
            vals = c[rs]
            data[k] = (
                pa.array(np.asarray(decode[k], dtype=object)[vals], type=batch[k].type)
                if k in decode
                else pa.array(vals, type=batch[k].type)
            )
        for c in acols:
            ufunc = {"sum": np.add, "max": np.maximum, "min": np.minimum}[agg_cols[c]]
            w = batch[c].to_numpy()[order]
            data[c] = pa.array(
                ufunc.reduceat(w, rs).astype(w.dtype), type=batch[c].type
            )
        return pa.table(data, schema=out_schema)

    def empty() -> pa.Table:
        sch = arrow_schema(ds)
        if sch.names:
            return pa.schema([f for f in sch if f.name in keys + acols]).empty_table()
        if empty_schema is not None:
            return pa.schema([empty_schema.field(k) for k in keys + acols]).empty_table()
        return pa.schema([pa.field(k, pa.int64()) for k in keys + acols]).empty_table()

    return per_part(block, s, empty=empty)


def random_sample(ds: Dataset, frac: float, *, on: str, seed: int = 0) -> Dataset:
    """O3 — deterministic Bernoulli sample, invariant to partitioning.

    A row is kept iff ``splitmix64(key(row) ^ splitmix64(seed)) < frac·2⁶⁴``
    where ``key`` is the ``on`` column (int directly, strings hashed). Unlike
    RNG-per-block sampling the decision is a pure per-row function, so the
    sample is identical at any parallelism and on resume — the property the
    checkpointing story needs. One streaming ``map_batches``; no shuffle."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError("frac must be in [0, 1]")
    from graphx_ray.ids import hash_text64, mix64

    thresh = np.uint64(min(int(frac * 2.0**64), (1 << 64) - 1))
    seed_mix = mix64(np.uint64(seed))

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[on]
        if pa.types.is_integer(col.type):
            kv = col.to_numpy().astype(np.uint64)
        else:
            kv = hash_text64(col.to_pandas())
        mask = mix64(kv ^ seed_mix) < thresh
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def hash_split(
    ds: Dataset,
    splits: dict[str, float],
    *,
    on: str,
    seed: int = 0,
    out_col: str = "split",
) -> Dataset:
    """Deterministic train/val/test assignment — the dataset-split stage
    every training pipeline runs before anything else: appends
    ``out_col`` with the split name chosen by the row's key hash against
    cumulative 2⁶⁴-scaled fraction boundaries (the ``random_sample``
    splitmix device). A pure per-row function of (key, seed): identical
    at any parallelism, on resume, and across reruns; rows with the same
    key always land in the same split (leakage-safe when ``on`` is the
    dedup/group key). Fractions must sum to 1 (±1e-9); the last split
    absorbs the 2⁶⁴ rounding remainder so every row is assigned. One
    streaming ``map_batches``, zero shuffle."""
    from graphx_ray.ids import hash_text64, mix64

    names = list(splits)
    fracs = [float(splits[n]) for n in names]
    if len(names) < 2:
        raise ValueError("hash_split: need at least two splits")
    if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError("hash_split: fractions must be ≥ 0 and sum to 1")
    cum = 0
    b_int = []
    for f in fracs:
        cum += int(f * 2.0**64)  # python ints: no premature wrap
        b_int.append(min(cum, (1 << 64) - 1))
    b_int[-1] = (1 << 64) - 1  # the last split absorbs rounding
    b_arr = np.array(b_int, dtype=np.uint64)
    seed_mix = mix64(np.uint64(seed))
    name_arr = np.asarray(names, dtype=object)

    def assign(batch: pa.Table) -> pa.Table:
        col = batch[on]
        if pa.types.is_integer(col.type):
            kv = col.to_numpy().astype(np.uint64)
        else:
            kv = hash_text64(col.to_pandas())
        h = mix64(kv ^ seed_mix)
        idx = np.searchsorted(b_arr, h, side="right")
        np.minimum(idx, len(names) - 1, out=idx)
        return batch.append_column(
            out_col, pa.array(name_arr[idx], type=pa.string())
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def priority_sample(
    ds: Dataset,
    *,
    k: int,
    weight_col: str,
    on: str,
    seed: int = 0,
    num_partitions: int = 8,
) -> Dataset:
    """Weighted k-row sample WITHOUT replacement — priority sampling
    (Duffield, Lund & Thorup, JACM 2007): each row draws priority
    p = u / w with u = splitmix64(key ^ splitmix64(seed)) and the k
    SMALLEST priorities are kept (inclusion probability ≈ min(1, w/τ)
    with τ the (k+1)-th priority — the scheme's unbiased-estimator
    threshold). The quality-weighted corpus-pruning stage: weight by a
    quality score and the kept set tilts toward high-quality docs while
    staying a without-replacement sample.

    Deterministic AND SQL-hash-exact: u→double and the single division
    are both correctly-rounded IEEE ops computed identically by numpy
    and the oracle (no summation, no libm). Returns (key, weight,
    priority), exactly k rows (ties at the boundary broken by key ASC).
    Scale shape: per-batch bottom-k partials folded by one
    ``grouped_top_k`` — ≤ k rows per batch ever shuffle."""
    from graphx_ray.ids import hash_text64, mix64

    if k < 1:
        raise ValueError("k must be ≥ 1")
    seed_mix = mix64(np.uint64(seed))

    def prio(batch: pa.Table) -> pa.Table:
        col = batch[on]
        if pa.types.is_integer(col.type):
            kv = col.to_numpy().astype(np.uint64)
        else:
            kv = hash_text64(col.to_pandas())
        w = batch[weight_col].cast(pa.float64()).to_numpy()
        if len(w) and not (w > 0).all():
            raise ValueError("priority_sample: weights must be > 0")
        u = mix64(kv ^ seed_mix).astype(np.float64)
        p = u / w
        return pa.table({
            "_g": pa.array(np.zeros(batch.num_rows, np.int64)),
            on: batch[on],
            weight_col: batch[weight_col],
            # grouped_top_k ranks DESC: negate so smallest priority wins
            "_negp": pa.array(-p),
            "_p": pa.array(p),
        })

    top = grouped_top_k(
        ds.map_batches(prio, batch_format="pyarrow", zero_copy_batch=True),
        ["_g"], "_negp", k, tie_cols=[on, weight_col, "_p"],
        num_partitions=num_partitions,
    )

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            on: batch[on],
            weight_col: batch[weight_col],
            "priority": batch["_p"],
        })

    return top.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def global_rank(
    ds: Dataset,
    *,
    by: str,
    tiebreak: str,
    descending: bool = False,
    num_buckets: int = 32,
    sample_frac: float = 0.25,
    seed: int = 19,
    pos_col: str = "pos",
) -> Dataset:
    """Distributed ORDER BY with EXACT global positions: appends
    ``pos_col`` = the row's 0-based rank under the (by, tiebreak) total
    order (``descending`` flips ``by`` only; ``tiebreak`` must be a
    unique numeric key — equal (by, tiebreak) rows would tie
    ambiguously). The leaderboard/percentile primitive.

    Scale shape (the deterministic_shuffle device with VALUE ranges
    instead of hash ranges): range boundaries come from a DETERMINISTIC
    splitmix-sampled quantile pass (boundaries affect load balance
    only, NEVER correctness — every row lands in exactly one range and
    ranges are ordered); then one storage-backed range spill, a
    bucket-count prefix sum (driver holds one int per bucket), one
    local sort per bucket. The boundary task holds frac·n sampled
    values — size ``sample_frac`` down as the corpus grows. An
    all-equal ``by`` column degrades to one bucket (the local sort
    still bounds it per task memory, documented skew)."""
    if not 1 <= num_buckets <= 32:
        # grouped_quantiles names columns q{round(q·100)} — beyond 32
        # cut points the names collide; compose with more tasks per
        # bucket instead of more buckets
        raise ValueError("num_buckets must be in [1, 32]")

    # deterministic sampled boundaries (num_buckets − 1 cut points)
    bounds = np.empty(0, np.float64)
    if num_buckets > 1:
        sampled = random_sample(ds, sample_frac, on=tiebreak, seed=seed)

        def vals(batch: pa.Table) -> pa.Table:
            # lossy numpy cast on purpose: boundaries only affect load
            # balance, and Arrow's checked cast rejects int64 keys above
            # 2^53 (e.g. simhash); float64 rounding is monotone so every
            # row still lands in exactly one ordered range
            return pa.table({"k": pa.array(np.zeros(batch.num_rows, np.int64)),
                             "v": pa.array(
                                 batch[by].to_numpy(zero_copy_only=False)
                                 .astype(np.float64))})

        qs = [i / num_buckets for i in range(1, num_buckets)]
        qt = grouped_quantiles(
            sampled.map_batches(vals, batch_format="pyarrow", zero_copy_batch=True),
            ["k"], "v", qs, num_partitions=1,
        ).to_pandas()
        if len(qt):
            names = [f"q{round(q * 100):02d}" for q in qs]
            bounds = np.sort(
                qt[[c for c in dict.fromkeys(names)]].iloc[0]
                .to_numpy().astype(np.float64)
            )

    def part(batch: pa.Table):
        # same lossy-monotone cast as the boundary sample (see vals)
        v = batch[by].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(bounds, v, side="left")
        if descending:
            b = len(bounds) - b  # reverse the range order
        return batch, b

    def order(t: pa.Table) -> np.ndarray:
        # the LOCAL sort decides the exact order — integer keys must not
        # round through float64 (two int64 simhashes < 1 ulp apart would
        # falsely tie and fall to the tiebreak); ~v is the overflow-free
        # descending view of an int64 key
        col = t[by]
        if pa.types.is_integer(col.type):
            v = col.to_numpy(zero_copy_only=False)
            key = ~v if descending else v
        else:
            v = col.cast(pa.float64()).to_numpy()
            key = -v if descending else v
        return np.lexsort((t[tiebreak].to_numpy(), key))

    return _numbered_ranges(ds, part, len(bounds) + 1, order, pos_col)


def deterministic_shuffle(
    ds: Dataset,
    *,
    on: str,
    seed: int = 0,
    num_buckets: int = 64,
    pos_col: str = "pos",
) -> Dataset:
    """Seeded global shuffle — the 'shuffle the corpus before training'
    stage: appends ``pos_col`` with each row's EXACT global position
    under the total order (splitmix64(key ^ splitmix64(seed)), key).
    A pure function of (key, seed): identical at any parallelism and
    across reruns, and a different ``seed`` is a fresh permutation.
    ``on`` must be a unique key (rows tying on (hash, key) are mutually
    interchangeable otherwise).

    Scale shape: NO global sort machinery. Bucket i = the hash's top
    bits (h >> (64−b)) — buckets are contiguous HASH RANGES, so bucket
    order IS global order. One storage-backed range spill
    (hive-partitioned parquet), a bucket-count wave (the driver holds
    ≤ 2^b ints for the prefix sum — same device as pack_sequences),
    then exactly one task per bucket sorts its range locally and adds
    its offset. Uniform hashes balance buckets; size num_buckets so a
    bucket fits a task (100 TB / 2^b)."""
    from graphx_ray.ids import hash_text64, mix64

    if num_buckets < 1:
        raise ValueError("num_buckets must be ≥ 1")
    bits = max(1, int(np.ceil(np.log2(num_buckets))))
    seed_mix = mix64(np.uint64(seed))

    def _hashes(batch: pa.Table) -> np.ndarray:
        col = batch[on]
        if pa.types.is_integer(col.type):
            kv = col.to_numpy().astype(np.uint64)
        else:
            kv = hash_text64(col.to_pandas())
        return mix64(kv ^ seed_mix)

    def part(batch: pa.Table):
        return batch, _hashes(batch) >> np.uint64(64 - bits)

    def order(t: pa.Table) -> np.ndarray:
        key = t[on]
        kv = key.to_numpy() if pa.types.is_integer(key.type) else key.to_pandas()
        return np.lexsort((kv, _hashes(t)))

    return _numbered_ranges(ds, part, 1 << bits, order, pos_col)


def _numbered_ranges(ds: Dataset, part, num_parts: int, order, pos_col: str) -> Dataset:
    """The count-then-emit tail of ``global_rank`` and
    ``deterministic_shuffle``: spill ``ds`` into parts that are ordered
    ranges, prefix-sum the parts' row counts (read from the parquet
    footers on the driver: one int per part), then one task per part
    sorts it by ``order`` and numbers its rows from the part's offset. A
    task finds its part id by running ``part`` on its first row — a pure
    per-row function."""
    s = spill(ds, part, num_parts)
    counts = [s.nrows(p) for p in s.parts]
    offsets = dict(zip(s.parts, np.cumsum([0] + counts[:-1]).tolist()))

    def emit(t: pa.Table) -> pa.Table:
        off = offsets[int(part(t.slice(0, 1))[1][0])]
        t = t.take(pa.array(order(t)))
        return t.append_column(
            pos_col, pa.array(off + np.arange(t.num_rows, dtype=np.int64))
        )

    def empty() -> pa.Table:
        return arrow_schema(ds).append(pa.field(pos_col, pa.int64())).empty_table()

    return per_part(emit, s, empty=empty)


def grouped_quantiles(
    ds: Dataset,
    keys: list[str],
    value_col: str,
    qs: list[float],
    *,
    num_partitions: int = 16,
) -> Dataset:
    """Exact per-group discrete quantiles (percentile_disc semantics,
    pinned: the smallest value whose cumulative fraction ≥ q, i.e. the
    sorted element at ceil(q·n)−1) plus the group count. One storage-
    backed hash shuffle keyed by the group tuple, then one vectorized
    sort + order-statistic pick per partition — groups are co-resident by
    construction (``partitioned_map``), so the statistic is exact, not a
    sketch. Returns (keys..., n_rows, q50, q90, ... columns)."""
    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError("quantiles must be in (0, 1]")

    def qname(q: float) -> str:
        return f"q{round(q * 100):02d}"

    def block(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            # a Dataset Ray cannot type (an empty map output) arrives as a
            # table without columns: its keys default to int64, as in
            # grouped_reduce
            fields = [tbl.schema.field(k) if k in tbl.column_names else pa.field(k, pa.int64())
                      for k in keys] + [pa.field("n_rows", pa.int64())]
            fields += [pa.field(qname(q), pa.float64()) for q in qs]
            return pa.schema(fields).empty_table()
        d = tbl.to_pandas().sort_values(keys + [value_col], kind="mergesort")
        v = d[value_col].to_numpy(dtype=np.float64)
        kcols = [d[k].to_numpy() for k in keys]
        new = np.zeros(n, bool)
        new[0] = True
        for c in kcols:
            new[1:] |= c[1:] != c[:-1]
        rs = np.flatnonzero(new)
        sizes = np.diff(np.append(rs, n))
        data = {k: pa.array(c[rs], type=tbl[k].type) for k, c in zip(keys, kcols)}
        data["n_rows"] = pa.array(sizes.astype(np.int64))
        for q in qs:
            idx = rs + np.maximum(np.ceil(q * sizes).astype(np.int64) - 1, 0)
            data[qname(q)] = pa.array(v[idx])
        return pa.table(data)

    return partitioned_map(
        ds.select_columns(keys + [value_col]),
        keys,
        block,
        num_partitions=num_partitions,
    )


def stratified_sample(
    ds: Dataset,
    frac_by: dict,
    *,
    strata_col: str,
    on: str,
    seed: int = 0,
    default_frac: float = 0.0,
) -> Dataset:
    """Per-stratum deterministic Bernoulli sample: row kept iff
    ``splitmix64(key ^ splitmix64(seed)) < frac(stratum)·2⁶⁴`` — the
    ``random_sample`` decision rule with a stratum-dependent threshold
    (e.g. keep all purchases, 10% of clicks). Same guarantees: pure
    per-row function, identical at any parallelism and on resume; one
    streaming ``map_batches``, no shuffle."""
    for f in list(frac_by.values()) + [default_frac]:
        if not 0.0 <= f <= 1.0:
            raise ValueError("every frac must be in [0, 1]")
    from graphx_ray.ids import hash_text64, mix64

    def thresh(f: float) -> np.uint64:
        return np.uint64(min(int(f * 2.0**64), (1 << 64) - 1))

    tmap = {k: thresh(f) for k, f in frac_by.items()}
    tdef = thresh(default_frac)
    seed_mix = mix64(np.uint64(seed))

    def keep(batch: pa.Table) -> pa.Table:
        col = batch[on]
        if pa.types.is_integer(col.type):
            kv = col.to_numpy().astype(np.uint64)
        else:
            kv = hash_text64(col.to_pandas())
        # factorize + uint64 LUT: a pandas .map would coerce the thresholds
        # through float64, and float(2^64−1) rounds UP to 2^64 — overflowing
        # to 0 on the uint64 cast (i.e. frac=1.0 strata would keep nothing)
        codes, cats = pd.factorize(batch[strata_col].to_pandas())
        lut = np.array([tmap.get(c, tdef) for c in cats], dtype=np.uint64)
        # null strata factorize to code -1; lut[-1] would silently take the
        # LAST stratum's threshold — route them to default_frac instead
        th = (
            np.where(codes >= 0, lut[np.maximum(codes, 0)], tdef)
            if len(cats)
            else np.full(batch.num_rows, tdef, np.uint64)
        )
        mask = mix64(kv ^ seed_mix) < th
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def temperature_sample(
    ds: Dataset,
    *,
    strata_col: str,
    on: str,
    coeff: float,
    temperature: float = 2.0,
    seed: int = 0,
    num_partitions: int = 8,
) -> Dataset:
    """Temperature-based source mixing — the multilingual-LM sampling rule
    (sample source s ∝ (n_s/N)^(1/T)): per-document keep probability
    p_s = min(1, coeff · n_s^(1/T − 1)), so kept counts scale as
    n_s^(1/T) and small sources are up-weighted relative to their share.
    Two passes: one keyed count reduce (the per-stratum count table is the
    only driver artifact, stratum-cardinality like k-means centroids),
    then the ``stratified_sample`` splitmix threshold filter — pure
    per-row decision, parallelism/resume-invariant.

    Determinism note: at the default T = 2 the probability chain is
    coeff/sqrt(n) — IEEE-exact ops (sqrt and division are correctly
    rounded), so a SQL oracle replays thresholds bit-identically. Other
    temperatures go through ``n**(1/T − 1)`` (libm pow), which is
    deterministic within this engine but not pinned across engines."""
    if not coeff >= 0:  # catches negative ints AND NaN, not just floats
        raise ValueError("coeff must be non-negative")

    def cpart(batch: pa.Table) -> pa.Table:
        codes, cats = pd.factorize(batch[strata_col].to_pandas())
        # null strata factorize to -1 (bincount would raise); they fall to
        # stratified_sample's default_frac path, so skip them here
        n = np.bincount(codes[codes >= 0], minlength=len(cats)).astype(np.int64)
        return pa.table({strata_col: pa.array(cats), "c": pa.array(n)})

    counts = grouped_reduce(
        ds.map_batches(cpart, batch_format="pyarrow", zero_copy_batch=True),
        [strata_col], sum_col="c", num_partitions=num_partitions,
    ).to_pandas()  # one row per stratum
    c = counts["c"].to_numpy().astype(np.float64)
    if temperature == 2.0:
        p = np.minimum(1.0, coeff / np.sqrt(c))
    else:
        p = np.minimum(1.0, coeff * np.power(c, 1.0 / temperature - 1.0))
    frac_by = dict(zip(counts[strata_col], p))
    return stratified_sample(
        ds, frac_by, strata_col=strata_col, on=on, seed=seed
    )


def _edges_table(src, dst, etype, w) -> pa.Table:
    return pa.table(
        {
            "src": pa.array(src, type=pa.int64()),
            "dst": pa.array(dst, type=pa.int64()),
            "etype": etype
            if isinstance(etype, (pa.Array, pa.ChunkedArray))
            else pa.array(etype, type=pa.string()),
            "w": pa.array(w, type=pa.int64()),
        },
        schema=schemas.EDGES,
    )


def _partial_dedup(src, dst, etype_code, etypes) -> pa.Table:
    """Block-local combiner: collapse duplicate (src, dst, etype) to weights."""
    if len(src) == 0:
        return _EDGE_EMPTY
    key = np.stack([src, dst, etype_code], axis=1)
    uniq, counts = np.unique(key, axis=0, return_counts=True)
    return _edges_table(
        uniq[:, 0], uniq[:, 1], np.asarray(etypes, dtype=object)[uniq[:, 2]], counts
    )


# ---------------------------------------------------------------- reply/tool


def _reply_tool_block(batch: pa.Table) -> pa.Table:
    """Per-block extraction; the block holds whole conversations."""
    n = batch.num_rows
    if n == 0:
        return _EDGE_EMPTY
    conv_codes, conv_uniq = pd.factorize(batch["conv_id"].to_pandas())
    role_codes, role_uniq = pd.factorize(batch["role"].to_pandas())
    turn = batch["turn_idx"].to_numpy()

    order = np.lexsort((turn, conv_codes))
    c = conv_codes[order]
    t = turn[order]
    r = role_codes[order]

    # reply: adjacent (t, t+1) rows of the same conversation
    adj = (c[:-1] == c[1:]) & (t[:-1] + 1 == t[1:])
    actor_vids = vid_for("actor", role_uniq)
    r_src = actor_vids[r[:-1][adj]]
    r_dst = actor_vids[r[1:][adj]]

    # tool: non-null tool ⇒ conv → tool
    tool_pd = batch["tool"].to_pandas()
    tmask = tool_pd.notna().to_numpy()
    tool_codes, tool_uniq = pd.factorize(tool_pd[tmask])
    conv_vids = vid_for("conv", conv_uniq)
    t_src = conv_vids[conv_codes[tmask]]
    t_dst = (
        vid_for("tool", tool_uniq)[tool_codes] if len(tool_uniq) else np.empty(0, np.int64)
    )

    src = np.concatenate([r_src, t_src])
    dst = np.concatenate([r_dst, t_dst])
    ecode = np.concatenate(
        [np.zeros(len(r_src), np.int64), np.ones(len(t_src), np.int64)]
    )
    return _partial_dedup(src, dst, ecode, ["reply", "tool"])


def reply_tool_edges(transcripts: Dataset, *, num_partitions: int = 32) -> Dataset:
    """reply + tool edges with multiplicity weights. One storage-backed
    shuffle (by conv_id) co-locates whole conversations + one small shuffle
    over pre-combined partials."""
    ds = partitioned_map(
        transcripts.select_columns(["conv_id", "turn_idx", "role", "tool"]),
        ["conv_id"],
        _reply_tool_block,
        num_partitions=num_partitions,
        empty_schema=schemas.EDGES,
    )
    return grouped_reduce(ds, ["src", "dst", "etype"], sum_col="w", num_partitions=num_partitions, empty_schema=schemas.EDGES)


# ---------------------------------------------------------------- conv starts


def _conv_start_partial(batch: pa.Table) -> pa.Table:
    codes, uniq = pd.factorize(batch["conv_id"].to_pandas())
    ts_us = batch["ts"].cast(pa.int64()).to_numpy()
    n = len(uniq)
    mins = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(mins, codes, ts_us)
    return pa.table(
        {"conv_id": pa.array(uniq, type=pa.string()), "ts_us": pa.array(mins, type=pa.int64())}
    )


def conv_starts(transcripts: Dataset) -> Dataset:
    """(conv_id, vid, ts_us=min ts) per conversation — partial min per block,
    then a small groupby over one row per (conv, block)."""
    ensure_hash_shuffle(transcripts)
    partial = transcripts.select_columns(["conv_id", "ts"]).map_batches(
        _conv_start_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    # storage-backed reduce: Ray's hash-aggregate pays ~10 s of fixed
    # aggregator-actor setup per use (BASELINE.md), which used to sit on
    # the flagship build-graph critical path
    agg = grouped_reduce(
        partial, ["conv_id"], sum_col="ts_us", agg="min", num_partitions=16
    )

    def add_vid(batch: pa.Table) -> pa.Table:
        conv = batch["conv_id"].to_pandas()
        return batch.append_column("vid", pa.array(vid_for("conv", conv), type=pa.int64()))

    return agg.map_batches(add_vid, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- zone edges


def _border_duplicate(zone_width_us: int):
    def fn(batch: pa.Table) -> pa.Table:
        ts = batch["ts_us"].to_numpy()
        vid = batch["vid"].to_numpy()
        zone = ts // zone_width_us
        return pa.table(
            {
                "gzone": pa.array(np.concatenate([zone, zone + 1]), type=pa.int64()),
                "zone": pa.array(np.tile(zone, 2), type=pa.int64()),
                "vid": pa.array(np.tile(vid, 2), type=pa.int64()),
                "ts_us": pa.array(np.tile(ts, 2), type=pa.int64()),
            }
        )

    return fn


def _zone_sorted(batch: pa.Table, delta_us: int):
    """Sort a border-duplicated zone table and compute, per row, the count
    of pairs it must EMIT — with the emit-once rule already applied, so no
    candidate pair is ever materialized only to be filtered.

    Within one gzone g the rows split into B = "own" rows (zone == g) and
    A = border copies (zone == g - 1). A pair is emitted in gzone
    max(zone_a, zone_b), i.e. here iff at least one endpoint is in B:
    B×B window pairs and A×B window pairs; A×A pairs belong to gzone g-1.
    Per sorted row i (window = rows j in (i, hi_i), same gzone, Δts ≤ δ):

    - i ∈ B: every j in the window is kept (max zone is g either way);
    - i ∈ A: only j ∈ B are kept — a CONTIGUOUS run of the B-position
      array ``posB``, starting at ``prefB[i+1]`` (the count of B rows at
      sorted positions ≤ i).

    Returns (vid, hi, isB, prefB, posB, cnt) over the sorted order."""
    return _window_sorted(
        batch["gzone"].to_numpy(),
        batch["gzone"].to_numpy(),
        batch["zone"].to_numpy(),
        batch["vid"].to_numpy(),
        batch["ts_us"].to_numpy(),
        delta_us,
    )


def _window_sorted(skey, g, z, pid, ts, delta_us: int):
    """The generic core of ``_zone_sorted``: ``skey`` is the segment key
    (gzone alone, or factorized (group_cols…, gzone) codes); ``g``/``z``
    carry the gzone / original-zone values the emit-once A/B rule needs."""
    order = np.lexsort((pid, ts, skey))
    skey, g, z, pid, ts = skey[order], g[order], z[order], pid[order], ts[order]

    n = len(skey)
    idx = np.arange(n)
    # ts is sorted only WITHIN a segment, so searchsorted must run per
    # segment (few segments per block; each call is vectorized).
    new_seg = np.flatnonzero(skey[1:] != skey[:-1]) + 1
    bounds = np.concatenate([[0], new_seg, [n]])
    hi = np.empty(n, np.int64)
    for s, e in zip(bounds[:-1], bounds[1:]):
        hi[s:e] = s + np.searchsorted(ts[s:e], ts[s:e] + delta_us, side="right")
    isB = z == g
    prefB = np.concatenate([[0], np.cumsum(isB)])
    posB = np.flatnonzero(isB)
    cnt_all = np.maximum(hi - idx - 1, 0)
    cntB = prefB[hi] - prefB[idx + 1]  # B rows strictly after i in window
    cnt = np.where(isB, cnt_all, cntB)
    return pid, hi, isB, prefB, posB, cnt


def _window_expand(pid, hi, isB, prefB, posB, cnt, lo: int, up: int):
    """Materialize the emitted canonical id pairs of sorted rows [lo, up) —
    ONLY kept pairs, each j-run contiguous either in the sorted order
    (B rows) or in ``posB`` (A rows). Returns (u, v) arrays with u ≤ v;
    u == v survivors (identical ids) are dropped."""
    idx = np.arange(lo, up)
    c = cnt[lo:up]
    total = int(c.sum())
    if total == 0:
        z = np.empty(0, pid.dtype)
        return z, z
    a = np.repeat(idx, c)
    offs = np.cumsum(c) - c
    within = np.arange(total) - np.repeat(offs, c)
    aB = isB[a]
    j = np.empty(total, np.int64)
    j[aB] = a[aB] + 1 + within[aB]
    nA = int((~aB).sum())
    if nA:
        j[~aB] = posB[prefB[a[~aB] + 1] + within[~aB]]
    u = np.minimum(pid[a], pid[j])
    v = np.maximum(pid[a], pid[j])
    keep = u != v  # distinct ids that collide (or duplicate id rows)
    return u[keep], v[keep]


def _zone_expand(vid, hi, isB, prefB, posB, cnt, lo: int, up: int) -> pa.Table:
    u, v = _window_expand(vid, hi, isB, prefB, posB, cnt, lo, up)
    if len(u) == 0:
        return _EDGE_EMPTY
    return _edges_table(
        u, v, pa.repeat(pa.scalar("zone", pa.string()), len(u)), np.ones(len(u), np.int64)
    )


def _zone_pairs_block(delta_us: int):
    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EDGE_EMPTY
        vid, hi, isB, prefB, posB, cnt = _zone_sorted(batch, delta_us)
        return _zone_expand(vid, hi, isB, prefB, posB, cnt, 0, len(vid))

    return fn


def zone_edges(
    starts: Dataset,
    *,
    zone_width_s: int = 3600,
    delta_s: int = 900,
    num_partitions: int = 32,
    max_pairs_per_task: int = 4_000_000,
) -> Dataset:
    """Zone-proximity conv↔conv links via border duplication (no self-join).

    Cost is O(Σ |zone|²) bounded by the zone width — same device the
    reference used to bound its sky-zone candidate join. Requires
    delta_s ≤ zone_width_s so adjacent zones suffice.

    Zipf-hot hours make pair output EXTREMELY skewed (one hour of the
    bench graph holds 95% of all pairs), so the expansion is SKEW-SLICED:
    a cheap counting pass per spilled gzone partition (sort + searchsorted,
    no pair materialized) picks row-range slices of ≤ ``max_pairs_per_task``
    emitted pairs each, and the expansion fans out one task per slice —
    a hot zone engages the whole cluster instead of one straggler task.
    The counting pass also applies the emit-once zone rule BEFORE
    expansion (see ``_zone_sorted``), so no discarded candidate pair is
    ever materialized (the old kernel expanded 8× the kept volume)."""
    if delta_s > zone_width_s:
        raise ValueError("delta must be ≤ zone width (adjacent-zone assumption)")
    ensure_hash_shuffle(starts)
    delta_us = delta_s * 1_000_000
    dup = starts.map_batches(
        _border_duplicate(zone_width_s * 1_000_000), batch_format="pyarrow", zero_copy_batch=True
    )
    parts = hash_spill(dup, ["gzone"], num_partitions)

    def emit(u, v) -> pa.Table:
        return _edges_table(
            u, v, pa.repeat(pa.scalar("zone", pa.string()), len(u)),
            np.ones(len(u), np.int64),
        )

    return _skew_sliced_pairs(
        parts, lambda tbl: _zone_sorted(tbl, delta_us), emit,
        max_pairs_per_task=max_pairs_per_task, empty_tbl=_EDGE_EMPTY,
    )


def _skew_sliced_pairs(parts: Spill, sorted_fn, emit_fn, *,
                       max_pairs_per_task: int, empty_tbl: pa.Table) -> Dataset:
    """Two-phase skew-sliced window-pair expansion over spilled partitions.

    Phase A (one cheap task per part directory): sort + count emitted
    pairs per row WITHOUT materializing any pair, cut the row range into
    slices of ≤ ``max_pairs_per_task`` pairs. Phase B (one task per
    slice): re-read the partition (small), recompute the counting pass
    (n log n — trivial next to the expansion it bounds) and expand only
    this slice's rows. A Zipf-hot partition thus engages the whole
    cluster instead of one straggler task, and peak task memory is
    bounded by the slice size, not the partition's pair count. The driver
    holds only the slice descriptors (≤ total_pairs / slice_size)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if not parts.parts:
        return rd.from_arrow(empty_tbl)

    def slices(batch: pa.Table) -> pa.Table:
        d = batch["dir"][0].as_py()
        tbl = pq.read_table(d)
        if tbl.num_rows == 0:
            return pa.table({"dir": pa.array([], pa.string()),
                             "lo": pa.array([], pa.int64()),
                             "up": pa.array([], pa.int64())})
        cnt = sorted_fn(tbl)[5]
        csum = np.cumsum(cnt)
        total = int(csum[-1]) if len(csum) else 0
        nsl = max(1, -(-total // max_pairs_per_task))
        cuts = np.searchsorted(csum, max_pairs_per_task * np.arange(1, nsl), side="left") + 1
        bounds = np.unique(np.concatenate([[0], cuts, [tbl.num_rows]]))
        return pa.table({
            "dir": pa.repeat(pa.scalar(d, pa.string()), len(bounds) - 1),
            "lo": pa.array(bounds[:-1], type=pa.int64()),
            "up": pa.array(bounds[1:], type=pa.int64()),
        })

    desc = (
        rd.from_items([{"dir": parts.path(p)} for p in parts.parts])
        .map_batches(slices, batch_size=1, batch_format="pyarrow")
        .take_all()
    )

    def expand(batch: pa.Table) -> pa.Table:
        d = batch["dir"][0].as_py()
        lo, up = batch["lo"][0].as_py(), batch["up"][0].as_py()
        tbl = pq.read_table(d)
        pid, hi, isB, prefB, posB, cnt = sorted_fn(tbl)
        u, v = _window_expand(pid, hi, isB, prefB, posB, cnt, lo, up)
        if len(u) == 0:
            return empty_tbl
        return emit_fn(u, v)

    return rd.from_items(desc).map_batches(expand, batch_size=1, batch_format="pyarrow")


def proximity_pairs(
    ds: Dataset,
    *,
    id_col: str,
    ts_us_col: str,
    group_cols: list[str] | None = None,
    delta_us: int,
    zone_width_us: int | None = None,
    num_partitions: int = 32,
) -> Dataset:
    """Generic zone-proximity self-join (J1): canonical id pairs (a < b)
    whose rows share ``group_cols`` and lie within ``delta_us`` of each
    other — the reference's bounded candidate join applied to any keyed
    event stream. Same border-duplication + skew-sliced waste-free
    expansion as ``zone_edges``; pairs of identical ids are dropped,
    duplicates collapse via one groupby."""
    ensure_hash_shuffle(ds)
    zw = zone_width_us or max(delta_us, 1)
    if delta_us > zw:
        raise ValueError("delta must be ≤ zone width")
    group_cols = group_cols or []

    def dup(batch: pa.Table) -> pa.Table:
        ts = batch[ts_us_col].to_numpy()
        zone = ts // zw
        cols = {
            "gzone": np.concatenate([zone, zone + 1]),
            "zone": np.tile(zone, 2),
            "_pid": np.tile(batch[id_col].to_numpy(), 2),
            "_pts": np.tile(ts, 2),
        }
        out = {k: pa.array(v) for k, v in cols.items()}
        for g in group_cols:
            col = batch[g]
            out[g] = pa.concat_arrays(
                [col.combine_chunks(), col.combine_chunks()]
            ) if isinstance(col, pa.ChunkedArray) else pa.concat_arrays([col, col])
        return pa.table(out)

    def sorted_fn(batch: pa.Table):
        keys = [batch[g].to_pandas() for g in group_cols]
        skey = (
            pd.factorize(pd.MultiIndex.from_arrays(keys + [batch["gzone"].to_pandas()]))[0]
            if keys
            else batch["gzone"].to_numpy()
        )
        return _window_sorted(
            np.asarray(skey),
            batch["gzone"].to_numpy(),
            batch["zone"].to_numpy(),
            batch["_pid"].to_numpy(),
            batch["_pts"].to_numpy(),
            delta_us,
        )

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    parts = hash_spill(
        ds.map_batches(dup, batch_format="pyarrow", zero_copy_batch=True),
        group_cols + ["gzone"],
        num_partitions,
    )
    raw = _skew_sliced_pairs(
        parts, sorted_fn,
        lambda u, v: pa.table({"a": pa.array(u), "b": pa.array(v)}),
        max_pairs_per_task=4_000_000, empty_tbl=empty,
    )
    return grouped_reduce(raw, ["a", "b"], num_partitions=num_partitions)


def semi_join(ds: Dataset, keys: Dataset, *, on: str, right_on: str | None = None,
              anti: bool = False, num_partitions: int = 8,
              broadcast_limit: int = 50_000_000) -> Dataset:
    """Semi/anti join via broadcast key membership (SURVEY.md J4).

    The key side is reduced to distinct values with block-local partials +
    one groupby, collected once, broadcast via ``ray.put`` and probed with
    a vectorized ``searchsorted`` inside ``map_batches`` — no shuffle of
    the big side. Assumes the DISTINCT key set fits the object store (the
    small-side contract of a semi join).

    The contract is ENFORCED, not assumed: a key side above
    ``broadcast_limit`` rows (a cheap upper bound on the distinct count)
    automatically reroutes through ``motif.bucket_join`` — the
    two-large-sides storage join — so a caller who misjudges cardinality
    gets the scale path instead of an O(keys) driver array (VERDICT r3
    #1). 50 M int64 keys ≈ 400 MB broadcast: about the most a per-node
    object store should carry for a lookup."""
    import ray

    ensure_hash_shuffle(ds)
    kcol = right_on or on
    kset = _distinct_keys_typed(keys, kcol, limit=broadcast_limit)
    if kset is None:  # key side too big to broadcast — take the scale path
        from graphx_ray.stages.motif import bucket_join

        return bucket_join(
            ds, keys.select_columns([kcol]), on=on, right_on=kcol,
            how="anti" if anti else "semi",
            num_partitions=max(num_partitions, 16),
        )
    kref = ray.put(kset)

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        vals = batch[on].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, vals)
        pos = np.minimum(pos, max(len(ks) - 1, 0))
        member = (ks[pos] == vals) if len(ks) else np.zeros(len(vals), bool)
        return batch.filter(pa.array(~member if anti else member))

    return ds.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def anti_join(ds: Dataset, keys: Dataset, *, on: str, right_on: str | None = None,
              num_partitions: int = 8,
              broadcast_limit: int = 50_000_000) -> Dataset:
    return semi_join(ds, keys, on=on, right_on=right_on, anti=True,
                     num_partitions=num_partitions,
                     broadcast_limit=broadcast_limit)


def _distinct_keys_typed(
    ds: Dataset, column: str, *, limit: int | None = None
) -> np.ndarray | None:
    """Distinct values of one column as a sorted numpy array (any dtype).

    Block-local unique partials STREAMED to the driver and deduped
    incrementally: driver memory stays bounded by the running distinct
    set. With ``limit``, returns None as soon as the distinct count
    exceeds it — the caller's signal to reroute to a bucketed join
    instead of broadcasting an oversized key array (VERDICT r3 #1: the
    small-side contract is enforced, not assumed)."""

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[column].to_pandas().dropna().unique()
        return pa.table({column: pa.array(vals, type=batch[column].type)})

    p = ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    chunks: list[np.ndarray] = []
    pending = 0
    for b in p.iter_batches(batch_format="pyarrow"):
        arr = b[column].to_numpy(zero_copy_only=False)
        chunks.append(arr)
        pending += len(arr)
        if pending >= 16_000_000 or (limit is not None and pending > limit):
            chunks = [np.unique(np.concatenate(chunks))]
            pending = len(chunks[0])
            if limit is not None and pending > limit:
                return None
    if not chunks:
        return np.empty(0, np.int64)
    out = np.unique(np.concatenate(chunks)) if len(chunks) > 1 or pending else np.unique(chunks[0])
    if limit is not None and len(out) > limit:
        return None
    return out


# ---------------------------------------------------------------- vertices


def _vertex_table(vids, kind, keys) -> pa.Table:
    return pa.table(
        {
            "vid": pa.array(vids, type=pa.int64()),
            "kind": pa.array(np.full(len(vids), kind, dtype=object), type=pa.string()),
            "key": pa.array(np.asarray(keys, dtype=object), type=pa.string()),
        },
        schema=schemas.VERTICES,
    )


def _distinct_keys(ds: Dataset, column: str) -> Dataset:
    """Distinct non-null values of one column: block-local unique partials,
    then the storage-backed grouped_reduce (keys can be LARGE — conv ids —
    so the dedup must stay distributed; the storage path skips the Ray
    hash-aggregate's fixed aggregator cost)."""

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[column].to_pandas().dropna().unique()
        return pa.table({"key": pa.array(vals, type=pa.string())})

    p = ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_reduce(
        p, ["key"], num_partitions=16,
        empty_schema=pa.schema([pa.field("key", pa.string())]),
    )


def vertices_from(transcripts: Dataset, starts: Dataset) -> Dataset:
    """conv ∪ tool ∪ actor vertex tables (schemas.VERTICES)."""

    def conv_v(batch: pa.Table) -> pa.Table:
        keys = batch["conv_id"].to_pandas()
        return _vertex_table(batch["vid"].to_numpy(), "conv", keys)

    def keyed_v(kind):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch["key"].to_pandas()
            return _vertex_table(vid_for(kind, keys), kind, keys)

        return fn

    convs = starts.map_batches(conv_v, batch_format="pyarrow", zero_copy_batch=True)
    tools = _distinct_keys(transcripts, "tool").map_batches(
        keyed_v("tool"), batch_format="pyarrow", zero_copy_batch=True
    )
    actors = _distinct_keys(transcripts, "role").map_batches(
        keyed_v("actor"), batch_format="pyarrow", zero_copy_batch=True
    )
    return convs.union(tools, actors)


# ---------------------------------------------------------------- top level


def build_graph(
    transcripts: Dataset,
    *,
    zone_width_s: int = 3600,
    delta_s: int = 900,
    num_partitions: int = 32,
    stage_dir: str | None = None,
) -> tuple[Dataset, Dataset]:
    """transcripts → (vertices, edges) per SURVEY.md §3.1.

    ``stage_dir``: when given, the conv-summary table (one row per
    conversation) is staged to Parquet once and re-read by its two
    consumers (zone edges + vertices) instead of re-executing its lineage
    per consumer — the scale-safe reuse (never ``materialize()`` on big
    data, SURVEY.md §4)."""
    starts = conv_starts(transcripts)
    if stage_dir is not None:
        import os
        import shutil

        import ray.data as rd

        sdir = os.path.join(stage_dir, "conv_starts")
        shutil.rmtree(sdir, ignore_errors=True)
        starts.write_parquet(sdir)
        starts = rd.read_parquet(sdir)
    e_rt = reply_tool_edges(transcripts, num_partitions=num_partitions)
    e_zone = zone_edges(
        starts, zone_width_s=zone_width_s, delta_s=delta_s, num_partitions=num_partitions
    )
    edges = e_rt.union(e_zone)
    verts = vertices_from(transcripts, starts)
    return verts, edges


# ------------------------------------------------------- canonical + degrees


def canonical_edges(edges: Dataset) -> Dataset:
    """Undirected simple graph for CC/LPA/TC: u<v, self-loops dropped, deduped."""

    def canon(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        u = np.minimum(src, dst)
        v = np.maximum(src, dst)
        keep = u != v
        return pa.table(
            {"u": pa.array(u[keep], type=pa.int64()), "v": pa.array(v[keep], type=pa.int64())},
            schema=schemas.EDGES_CANONICAL,
        )

    c = edges.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_reduce(c, ["u", "v"], num_partitions=32, empty_schema=schemas.EDGES_CANONICAL)


def degrees(edges: Dataset, *, num_partitions: int = 16) -> Dataset:
    """GraphFrames-style degrees: parallel edges count (Σw); vertices with no
    edges are omitted (SURVEY.md A1 — document for the SQL oracle)."""

    def partial(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        w = batch["w"].to_numpy()
        vid = np.concatenate([src, dst])
        out_w = np.concatenate([w, np.zeros(len(dst), np.int64)])
        in_w = np.concatenate([np.zeros(len(src), np.int64), w])
        # block-local combine
        uniq, inv = np.unique(vid, return_inverse=True)
        o = np.bincount(inv, weights=out_w).astype(np.int64)
        i = np.bincount(inv, weights=in_w).astype(np.int64)
        return pa.table(
            {
                "vid": pa.array(uniq, type=pa.int64()),
                "in_deg": pa.array(i, type=pa.int64()),
                "out_deg": pa.array(o, type=pa.int64()),
            }
        )

    p = edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # storage-backed keyed sum over the partials: Ray's HashAggregate costs
    # ~10 s of fixed aggregator setup regardless of size (see grouped_reduce
    # docstring for the at-scale measurement)
    agg = grouped_reduce(
        p, ["vid"], agg_cols={"in_deg": "sum", "out_deg": "sum"},
        num_partitions=num_partitions,
    )

    def total(batch: pa.Table) -> pa.Table:
        deg = batch["in_deg"].to_numpy() + batch["out_deg"].to_numpy()
        return batch.append_column("deg", pa.array(deg, type=pa.int64()))

    return agg.map_batches(total, batch_format="pyarrow", zero_copy_batch=True)


def grouped_top_k(
    ds: Dataset,
    keys: list[str],
    value_col: str,
    k: int,
    *,
    tie_cols: list[str] | None = None,
    num_partitions: int = 16,
) -> Dataset:
    """Per-group top-k rows by ``value_col`` DESC, ties broken by
    ``tie_cols`` ASC (pinned total order — required for hash-comparable
    results; tie columns must make rows unique within a group).

    Shape: each batch keeps its own per-group top-k FIRST (one lexsort +
    rank per batch — the partial/combiner rule: a group's global top-k is
    a subset of the union of per-batch top-ks), so the keyed storage
    shuffle moves ≤ k rows per (group, batch); the per-partition fold
    re-ranks and cuts exactly."""
    tie_cols = tie_cols or []
    ensure_hash_shuffle(ds)
    cols = keys + [value_col] + tie_cols

    def topk_table(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.select(cols)
        kcodes = [_gpart_codes(tbl[c]) for c in keys]
        ties = [_gpart_codes(tbl[c], ordered=True) for c in tie_cols]
        order = np.lexsort(tuple(reversed(kcodes + [_desc_key(tbl[value_col])] + ties)))
        srt = [c[order] for c in kcodes]
        n = len(order)
        new = np.zeros(n, bool)
        new[0] = True
        for c in srt:
            new[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, lens)
        keep = order[rank < k]
        return tbl.select(cols).take(pa.array(np.sort(keep)))

    partial = ds.map_batches(
        lambda b: topk_table(b), batch_format="pyarrow", zero_copy_batch=True
    )
    return partitioned_map(
        partial, keys, topk_table, num_partitions=num_partitions,
    )


def _desc_key(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Monotone-DECREASING lexsort key for the top-k value column. A bare
    ``-v`` wraps unsigned ints (−0 stays the slot of the largest value) and
    overflows int64.min; NaN floats land wherever lexsort drops them.
    Integers use bitwise NOT (``~v`` = flipped order, never overflows);
    floats pin NaN to −inf (ranked last, ties broken by tie_cols)."""
    v = arr.to_numpy()
    if v.dtype.kind in "iu":
        return ~v
    v = v.astype(np.float64, copy=True)
    v[np.isnan(v)] = -np.inf
    return -v


def _gpart_codes(arr: pa.ChunkedArray | pa.Array, *, ordered: bool = False) -> np.ndarray:
    """Integer lexsort view of a column (value-order-preserving when
    ``ordered`` — tie-break columns need it; group keys only need
    equality)."""
    if pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type):
        return arr.to_numpy()
    return pd.factorize(arr.to_pandas(), sort=ordered)[0]


def in_degrees(edges: Dataset, *, num_partitions: int = 16) -> Dataset:
    """GraphFrames ``inDegrees`` naming parity: (vid, in_deg) for vertices
    with ≥1 incoming edge (projection of ``degrees``)."""
    deg = degrees(edges, num_partitions=num_partitions)

    def f(batch: pa.Table) -> pa.Table:
        keep = batch["in_deg"].to_numpy() > 0
        t = batch.filter(pa.array(keep))
        return pa.table({"vid": t["vid"], "in_deg": t["in_deg"]})

    return deg.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def out_degrees(edges: Dataset, *, num_partitions: int = 16) -> Dataset:
    """GraphFrames ``outDegrees`` naming parity: (vid, out_deg) for
    vertices with ≥1 outgoing edge."""
    deg = degrees(edges, num_partitions=num_partitions)

    def f(batch: pa.Table) -> pa.Table:
        keep = batch["out_deg"].to_numpy() > 0
        t = batch.filter(pa.array(keep))
        return pa.table({"vid": t["vid"], "out_deg": t["out_deg"]})

    return deg.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
