"""Mergeable sketches for large-scale profiling (task addendum: "a novel
sketch" — implemented from the published HyperLogLog construction,
Flajolet et al. 2007, with the standard small-range linear-counting
correction).

HyperLogLog over a Ray Data column:

- each batch hashes its values (splitmix64 over ints, SipHash over
  strings — the repo's standard vectorized hashes) and emits its 2^p
  register maxima as (register, rho) rows — a PARTIAL sketch, mergeable
  by max;
- one storage-backed ``grouped_reduce(max)`` keyed by register merges all
  partials (registers ≪ data: the shuffle moves at most 2^p rows per
  block);
- the driver folds 2^p register values into the estimate — O(2^p) driver
  state, independent of input size.

``grouped_approx_ndv`` is the keyed variant: registers keyed by
(group, register), one reduce, one estimate row per group — the shape a
per-language distinct-token profile needs at 100 TB.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from graphx_ray.ids import hash_text64, hll_alpha, hll_registers, mix64


def _hash_col(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if pa.types.is_integer(col.type):
        return mix64(col.to_numpy().astype(np.uint64))
    import pandas as pd  # noqa: F401

    return hash_text64(col.to_pandas())


def _estimate(regs: np.ndarray, p: int) -> float:
    """Fold a dense 2^p register vector into the HLL estimate (with the
    published linear-counting small-range correction)."""
    m = 1 << p
    est = hll_alpha(m) * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def approx_count_distinct(ds: Dataset, col: str, *, p: int = 14,
                          num_partitions: int = 8) -> float:
    """Approximate distinct count of ``ds[col]`` (relative error ≈
    1.04/√2^p ≈ 0.8% at the default p=14)."""

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"register": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        reg, rho = hll_registers(_hash_col(batch[col]), p)
        order = np.argsort(reg, kind="stable")
        reg, rho = reg[order], rho[order]
        new = np.empty(len(reg), bool)
        new[0] = True
        np.not_equal(reg[1:], reg[:-1], out=new[1:])
        rs = np.flatnonzero(new)
        return pa.table(
            {"register": pa.array(reg[rs]), "rho": pa.array(np.maximum.reduceat(rho, rs))}
        )

    from graphx_ray.stages.derive import grouped_reduce

    merged = grouped_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["register"],
        sum_col="rho",
        agg="max",
        num_partitions=num_partitions,
    ).to_pandas()
    regs = np.zeros(1 << p, np.int64)
    if len(merged):
        regs[merged["register"].to_numpy()] = merged["rho"].to_numpy()
    return _estimate(regs, p)


def grouped_approx_ndv(ds: Dataset, keys: list[str], col: str, *, p: int = 12,
                       num_partitions: int = 8) -> Dataset:
    """Per-group approximate distinct count of ``col``: (keys...,
    approx_ndv: int64). Registers are keyed by (group, register) through
    ONE storage-backed max-reduce; the final fold runs inside a group-
    partitioned map, so no group's registers ever assemble on the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        if batch.num_rows == 0:
            return pa.table(
                {**{k: batch[k] for k in keys},
                 "register": pa.array([], pa.int64()), "rho": pa.array([], pa.int64())}
            )
        reg, rho = hll_registers(_hash_col(batch[col]), p)
        kcols = []
        decode = {}
        for k in keys:
            arr = batch[k]
            if pa.types.is_integer(arr.type):
                kcols.append(arr.to_numpy())
            else:
                codes, uniq = pd.factorize(arr.to_pandas())
                kcols.append(codes)
                decode[k] = uniq
        order = np.lexsort(tuple(reversed(kcols + [reg])))
        reg, rho = reg[order], rho[order]
        kcols = [c[order] for c in kcols]
        new = np.zeros(len(reg), bool)
        new[0] = True
        new[1:] |= reg[1:] != reg[:-1]
        for c in kcols:
            new[1:] |= c[1:] != c[:-1]
        rs = np.flatnonzero(new)
        data = {}
        for k, c in zip(keys, kcols):
            vals = c[rs]
            data[k] = (
                pa.array(np.asarray(decode[k], dtype=object)[vals], type=batch[k].type)
                if k in decode
                else pa.array(vals, type=batch[k].type)
            )
        data["register"] = pa.array(reg[rs])
        data["rho"] = pa.array(np.maximum.reduceat(rho, rs))
        return pa.table(data)

    from graphx_ray.stages.derive import grouped_reduce, partitioned_map

    merged = grouped_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        keys + ["register"],
        sum_col="rho",
        agg="max",
        num_partitions=num_partitions,
    )

    def fold(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        fields = [tbl.schema.field(k) for k in keys] + [pa.field("approx_ndv", pa.int64())]
        out_schema = pa.schema(fields)
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        d = tbl.to_pandas()
        rows = []
        for kv, grp in d.groupby(keys, sort=False):
            kt = kv if isinstance(kv, tuple) else (kv,)
            regs = np.zeros(1 << p, np.int64)
            regs[grp["register"].to_numpy()] = grp["rho"].to_numpy()
            # round half-up (floor(x+0.5)), matching the SQL oracle — the
            # repo-wide pinned recipe; Python round() is banker's rounding
            rows.append((*kt, int(math.floor(_estimate(regs, p) + 0.5))))
        return pa.Table.from_pandas(
            pd.DataFrame(rows, columns=keys + ["approx_ndv"]), preserve_index=False
        ).cast(out_schema)

    return partitioned_map(merged, keys, fold, num_partitions=num_partitions)


def approx_quantiles(
    ds: Dataset,
    keys: list[str],
    value_col: str,
    qs: list[float],
    *,
    frac: float = 0.25,
    on: str | None = None,
    seed: int = 19,
    num_partitions: int = 8,
) -> Dataset:
    """Sample-based approximate per-group quantiles: a DETERMINISTIC
    splitmix64 Bernoulli sample (``derive.random_sample`` — identical at
    any parallelism and on resume) feeds the exact discrete-quantile
    kernel. Error is the binomial order-statistic bound of the sampled
    fraction (≈ 1/√(frac·n) quantile-rank error); the shuffle only ever
    moves frac·|rows|. Fully replayable: both stages are pure functions
    of the data, so a SQL oracle recomputes the identical sample and the
    identical order statistics."""
    from graphx_ray.stages.derive import grouped_quantiles, random_sample

    key_col = on or keys[0]
    sampled = random_sample(ds, frac, on=key_col, seed=seed)
    return grouped_quantiles(
        sampled, keys, value_col, qs, num_partitions=num_partitions
    )


# ----------------------------------------------------------- KLL sketch
# (Karnin, Lang, Liberty 2016 — a mergeable quantile sketch with
# rank-error guarantees; implemented from the published construction
# with DETERMINISTIC even-index compaction, the MRL-style variant, so a
# given insertion sequence always yields the same sketch. Unlike the
# Bernoulli-sample sketch above, memory is O(k·log(n/k)) per group and
# the rank error is bounded by the compaction analysis rather than a
# binomial tail whose frac must shrink with corpus size.)


class KLL:
    """One sketch: ``levels[h]`` holds values of weight 2^h, capacity k
    per level (compacting a full level pushes every other element of the
    sorted buffer up one level). Deterministic: compaction always keeps
    even sorted indices."""

    __slots__ = ("k", "levels")

    def __init__(self, k: int = 256):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]

    def insert(self, vals: np.ndarray, level: int = 0) -> "KLL":
        while len(self.levels) <= level:
            self.levels.append(np.empty(0, np.float64))
        self.levels[level] = np.concatenate(
            [self.levels[level], np.asarray(vals, np.float64)]
        )
        self._compact()
        return self

    def merge(self, other: "KLL") -> "KLL":
        for h, vals in enumerate(other.levels):
            if len(vals):
                self.insert(vals, level=h)
        return self

    def _compact(self) -> None:
        h = 0
        while h < len(self.levels):
            buf = self.levels[h]
            if len(buf) <= self.k:
                h += 1
                continue
            buf = np.sort(buf, kind="stable")
            promote = buf[::2]  # deterministic even-index pick
            self.levels[h] = np.empty(0, np.float64)
            if h + 1 == len(self.levels):
                self.levels.append(np.empty(0, np.float64))
            self.levels[h + 1] = np.concatenate([self.levels[h + 1], promote])
            h += 1

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(level, value) rows — the mergeable wire format."""
        levels = np.concatenate(
            [np.full(len(v), h, np.int64) for h, v in enumerate(self.levels)]
        ) if any(len(v) for v in self.levels) else np.empty(0, np.int64)
        vals = np.concatenate([v for v in self.levels]) if any(
            len(v) for v in self.levels
        ) else np.empty(0, np.float64)
        return levels, vals

    def quantiles(self, qs: list[float]) -> np.ndarray:
        """Weighted discrete quantiles (pinned rule: smallest value whose
        cumulative weight reaches ⌈q·W⌉, q=0 → min)."""
        lv, vals = self.rows()
        if len(vals) == 0:
            return np.full(len(qs), np.nan)
        w = (np.int64(1) << lv).astype(np.float64)
        order = np.argsort(vals, kind="stable")
        vals, w = vals[order], w[order]
        cw = np.cumsum(w)
        total = cw[-1]
        out = np.empty(len(qs), np.float64)
        for i, q in enumerate(qs):
            target = max(np.ceil(q * total), 1.0)
            out[i] = vals[np.searchsorted(cw, target)]
        return out


def kll_quantiles(
    ds: Dataset,
    keys: list[str],
    value_col: str,
    qs: list[float],
    *,
    k: int = 256,
    num_partitions: int = 8,
) -> Dataset:
    """Per-group approximate quantiles via mergeable KLL sketches —
    (keys..., q: float64, value: float64).

    Shape: each batch sketches its groups locally and emits (keys, level,
    value) rows — O(k·log n) per group per batch, NOT the data; ONE
    key-hash storage shuffle co-locates each group's partial sketches; the
    per-group fold merges them level-by-level (ascending level, values
    sorted — a pinned deterministic merge order) and reads the quantiles
    off the weighted sketch. Error: the deterministic-compaction bound
    ~log₂(n/k)/k quantile-rank error (property-tested); the sketch value
    depends on batch boundaries, so the driver check is rows-only — the
    accuracy contract lives in tests/test_sketch.py."""
    import pandas as pd

    from graphx_ray.stages.derive import partitioned_map

    def partial(batch: pa.Table) -> pa.Table:
        cols = {kk: [] for kk in keys}
        lvl_out: list[np.ndarray] = []
        val_out: list[np.ndarray] = []
        if batch.num_rows:
            df = pd.DataFrame(
                {**{kk: batch[kk].to_pandas() for kk in keys},
                 value_col: batch[value_col].to_numpy()}
            )
            for kv, grp in df.groupby(keys, sort=False):
                kt = kv if isinstance(kv, tuple) else (kv,)
                sk = KLL(k).insert(grp[value_col].to_numpy())
                lv, vals = sk.rows()
                for kk, val in zip(keys, kt):
                    cols[kk].append(np.full(len(lv), val, dtype=object))
                lvl_out.append(lv)
                val_out.append(vals)
        data = {}
        for kk in keys:
            typ = batch.schema.field(kk).type
            data[kk] = pa.array(
                np.concatenate(cols[kk]) if cols[kk] else np.empty(0, object), type=typ
            )
        data["level"] = pa.array(
            np.concatenate(lvl_out) if lvl_out else np.empty(0, np.int64)
        )
        data["value"] = pa.array(
            np.concatenate(val_out) if val_out else np.empty(0, np.float64)
        )
        return pa.table(data)

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def fold(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        fields = [tbl.schema.field(kk) for kk in keys] + [
            pa.field("q", pa.float64()), pa.field("value", pa.float64())
        ]
        out_schema = pa.schema(fields)
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = tbl.to_pandas()
        recs = []
        for kv, grp in df.groupby(keys, sort=False):
            kt = kv if isinstance(kv, tuple) else (kv,)
            sk = KLL(k)
            # pinned deterministic merge order: ascending level, values
            # sorted within level — the fold result is independent of the
            # partial sketches' arrival order
            g = grp.sort_values(["level", "value"], kind="stable")
            for lvl, sub in g.groupby("level", sort=True):
                sk.insert(sub["value"].to_numpy(), level=int(lvl))
            vals = sk.quantiles(qs)
            for q, v in zip(qs, vals):
                recs.append((*kt, float(q), float(v)))
        return pa.Table.from_pandas(
            pd.DataFrame(recs, columns=keys + ["q", "value"]), preserve_index=False
        ).cast(out_schema)

    return partitioned_map(rows, keys, fold, num_partitions=num_partitions)


# ------------------------------------------------------- count-min sketch


def count_min(
    ds: Dataset,
    col: str,
    *,
    width: int = 2048,
    depth: int = 4,
    seed: int = 42,
    num_partitions: int = 8,
) -> Dataset:
    """Mergeable count-min sketch (Cormode & Muthukrishnan 2005) over one
    column: depth hash rows of ``width`` counters; cell (d, slot) sums the
    occurrences of every value x with mix64(x ^ mix64(seed ^ d)) % width
    == slot. Partials are block-local bincounts; ONE keyed storage reduce
    merges them (sketch merge = elementwise sum, so the result is
    parallelism-invariant by construction). Returns the NONZERO cells
    (d, slot, n) — the sketch itself, O(depth · width) regardless of input
    size. Point estimates via ``count_min_estimate`` (min over rows,
    always ≥ the true count). String columns hash via hash_text64."""
    from graphx_ray.stages.derive import grouped_reduce

    seeds = mix64(np.uint64(seed) ^ np.arange(depth, dtype=np.uint64))

    def partial(batch: pa.Table) -> pa.Table:
        c = batch[col]
        if pa.types.is_integer(c.type):
            x = c.to_numpy().astype(np.uint64)
        else:
            x = hash_text64(c.to_pandas())
        ds_, slots_, ns_ = [], [], []
        for d in range(depth):
            s = (mix64(x ^ seeds[d]) % np.uint64(width)).astype(np.int64)
            bc = np.bincount(s)
            nz = np.flatnonzero(bc)
            ds_.append(np.full(len(nz), d, np.int64))
            slots_.append(nz.astype(np.int64))
            ns_.append(bc[nz].astype(np.int64))
        return pa.table({
            "d": pa.array(np.concatenate(ds_) if ds_ else np.empty(0, np.int64)),
            "slot": pa.array(np.concatenate(slots_) if slots_ else np.empty(0, np.int64)),
            "n": pa.array(np.concatenate(ns_) if ns_ else np.empty(0, np.int64)),
        })

    p = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_reduce(p, ["d", "slot"], sum_col="n", num_partitions=num_partitions)


def count_min_estimate(
    cells, items, *, width: int = 2048, depth: int = 4, seed: int = 42
) -> np.ndarray:
    """Point-estimate counts for ``items`` from a count-min cells table
    (driver-side — the sketch is O(depth·width), never data-sized)."""
    import pandas as pd

    if isinstance(cells, pa.Table):
        cells = cells.to_pandas()
    grid = np.zeros((depth, width), np.int64)
    grid[cells["d"].to_numpy(), cells["slot"].to_numpy()] = cells["n"].to_numpy()
    items = np.asarray(items)
    x = (
        items.astype(np.uint64)
        if items.dtype.kind in "iu"
        else hash_text64(pd.Series(items))
    )
    seeds = mix64(np.uint64(seed) ^ np.arange(depth, dtype=np.uint64))
    est = np.full(len(x), np.iinfo(np.int64).max, np.int64)
    for d in range(depth):
        s = (mix64(x ^ seeds[d]) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, grid[d, s])
    return est


def _bloom_hashes(x: np.ndarray, *, m_bits: int, k_hashes: int, seed: int):
    """Double-hashing probe positions (Kirsch & Mitzenmacher 2006):
    h_i(x) = (h1 + i·h2) mod m with h1 = mix64(x ^ S1), h2 = mix64(x ^ S2)
    forced odd — k positions per key, SQL-replayable (uint64 wraparound is
    the pinned arithmetic). Returns (len(x)·k,) int64 bit positions."""
    s1 = mix64(np.uint64(seed))
    s2 = mix64(np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15))
    h1 = mix64(x ^ s1)
    h2 = mix64(x ^ s2) | np.uint64(1)
    i = np.arange(k_hashes, dtype=np.uint64)
    pos = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)
    return pos.reshape(-1).astype(np.int64)


def _bloom_key_col(c) -> np.ndarray:
    if pa.types.is_integer(c.type):
        return c.to_numpy().astype(np.uint64)
    return hash_text64(c.to_pandas())


def bloom_build(
    ds: Dataset,
    col: str,
    *,
    m_bits: int = 1 << 20,
    k_hashes: int = 7,
    seed: int = 42,
    num_partitions: int = 8,
) -> Dataset:
    """Mergeable Bloom filter (Bloom 1970) over one column, represented as
    its SET-BIT positions: partials are block-local distinct positions,
    ONE keyed storage reduce dedups them (bitmap OR = set union, so the
    result is parallelism-invariant by construction). O(min(k·ndv, m))
    rows regardless of input size — the scale path for membership /
    decontamination checks where the exact key set would not broadcast
    (a 10⁹-key set at m/n = 16 bits/key is a 2 GB bitmap vs the keys'
    raw TBs). No false negatives; false-positive rate ≈ (1 − e^{−kn/m})^k.
    String columns hash via hash_text64, ints via splitmix64."""
    from graphx_ray.stages.derive import grouped_reduce

    def partial(batch: pa.Table) -> pa.Table:
        x = _bloom_key_col(batch[col])
        pos = np.unique(
            _bloom_hashes(x, m_bits=m_bits, k_hashes=k_hashes, seed=seed)
        )
        return pa.table({"bit": pa.array(pos, type=pa.int64())})

    p = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    empty = pa.schema([("bit", pa.int64())])
    return grouped_reduce(
        p, ["bit"], num_partitions=num_partitions, empty_schema=empty
    )


def bloom_probe(
    ds: Dataset,
    col: str,
    bits,
    *,
    m_bits: int = 1 << 20,
    k_hashes: int = 7,
    seed: int = 42,
) -> Dataset:
    """Membership probe against a built filter: appends ``maybe`` (int64
    0/1 — 1 iff all k probe bits are set; inserted keys always 1, absent
    keys 1 only at the FP rate). ``bits`` is the ``bloom_build`` result
    (Dataset/Table/array of set positions); the packed bitmap (m/8 bytes)
    is built once and broadcast via ``ray.put`` — probing is a zero-
    shuffle map_batches."""
    import ray

    if isinstance(bits, Dataset):
        bits = bits.to_arrow_refs()
        bits = pa.concat_tables([ray.get(r) for r in bits])
    if isinstance(bits, pa.Table):
        bits = bits["bit"].to_numpy()
    bitmap = np.zeros(m_bits, bool)
    bitmap[np.asarray(bits, np.int64)] = True
    packed = np.packbits(bitmap)
    ref = ray.put(packed)

    def probe(batch: pa.Table) -> pa.Table:
        pk = ray.get(ref)  # zero-copy plasma view; indexed packed (MSB-first)
        x = _bloom_key_col(batch[col])
        pos = _bloom_hashes(
            x, m_bits=m_bits, k_hashes=k_hashes, seed=seed
        ).reshape(len(x), k_hashes)
        hit = (pk[pos >> 3] >> (7 - (pos & 7))) & 1
        maybe = hit.all(axis=1).astype(np.int64)
        return batch.append_column("maybe", pa.array(maybe))

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------- KMV (bottom-k)
# distinct-value sketch (Bar-Yossef et al., RANDOM 2002; Beyer et al.,
# SIGMOD 2007 "On synopses for distinct-value estimation"). Unlike HLL
# (register maxima) and KLL (order-dependent compaction), the KMV synopsis
# — the k SMALLEST distinct 64-bit hash values — is a pure ORDER-FREE
# function of the value set: any partial merge order, any parallelism and
# any batch boundary yield bit-identical sketches, so the SQL oracle
# replays the sketch itself (DISTINCT → ROW_NUMBER ≤ k), not just its
# estimate. The estimator is the unbiased (k−1)/U_(k) with U_(k) = h_k/2⁶⁴,
# computed as the exact integer floor((k−1)·2⁶⁴ / h_k); sets with fewer
# than k distinct hashes are counted exactly. KMV also composes: the
# bottom-k of a UNION is computable from the per-set sketches alone, which
# gives distinct-union and Jaccard estimates between corpora without ever
# co-shuffling them (``kmv_set_similarity``).


def _kmv_estimate(hs: np.ndarray, k: int) -> int:
    """Pinned estimate over a sorted ascending distinct-hash array (the
    first ≤ k entries of a sketch): exact count below k, else the integer
    floor((k−1)·2⁶⁴ / h_k) over python bigints (never overflows)."""
    if len(hs) < k:
        return int(len(hs))
    return ((k - 1) << 64) // int(hs[k - 1])


def kmv_sketch(ds: Dataset, col: str, *, k: int = 256,
               num_partitions: int = 8) -> Dataset:
    """The global KMV synopsis of ``ds[col]``: ≤ k rows (h: uint64), the
    k smallest distinct splitmix64/SipHash hashes. Partials cap every
    block at k rows, so the merge input is ≤ k·blocks rows regardless of
    data size; ONE task folds them (the synopsis is single-partition by
    definition — it IS the small side)."""
    from graphx_ray.stages.derive import partitioned_map

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"g": pa.array([], pa.int64()),
                             "h": pa.array([], pa.uint64())})
        hs = np.unique(_hash_col(batch[col]))[:k]
        return pa.table({"g": pa.array(np.zeros(len(hs), np.int64)),
                         "h": pa.array(hs, type=pa.uint64())})

    rows = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def fold(tbl: pa.Table) -> pa.Table:
        hs = np.unique(tbl["h"].to_numpy())[:k]
        return pa.table({"h": pa.array(hs, type=pa.uint64())})

    return partitioned_map(
        rows, ["g"], fold, num_partitions=1,
        empty_schema=pa.schema([("h", pa.uint64())]),
    )


def grouped_kmv_ndv(ds: Dataset, keys: list[str], col: str, *, k: int = 256,
                    num_partitions: int = 8) -> Dataset:
    """Per-group KMV distinct count of ``col``: (keys..., kmv_ndv: int64),
    relative error ≈ 1/√(k−2) (~6% at the default k=256) and EXACT below
    k distinct values. Same shape as ``grouped_approx_ndv``: block-partial
    bottom-k rows keyed by the group → one key-partitioned fold; the
    shuffle moves ≤ k rows per group per block."""
    import pandas as pd

    from graphx_ray.stages.derive import partitioned_map

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {**{kk: batch[kk] for kk in keys}, "h": pa.array([], pa.uint64())}
            )
        h = _hash_col(batch[col])
        kcols = []
        decode = {}
        for kk in keys:
            arr = batch[kk]
            if pa.types.is_integer(arr.type):
                kcols.append(arr.to_numpy())
            else:
                codes, uniq = pd.factorize(arr.to_pandas())
                kcols.append(codes)
                decode[kk] = uniq
        order = np.lexsort(tuple(reversed(kcols + [h])))
        h = h[order]
        kcols = [c[order] for c in kcols]
        newg = np.zeros(len(h), bool)  # group boundary
        newg[0] = True
        for c in kcols:
            newg[1:] |= c[1:] != c[:-1]
        newv = newg.copy()  # distinct (group, hash) boundary
        newv[1:] |= h[1:] != h[:-1]
        # within-group distinct rank < k: positions of distinct values
        # counted from each group's start
        gid = np.cumsum(newg) - 1
        vsel = np.flatnonzero(newv)
        vgid = gid[vsel]
        firstv = np.ones(len(vsel), bool)
        firstv[1:] = vgid[1:] != vgid[:-1]
        rank = np.arange(len(vsel)) - np.repeat(
            np.flatnonzero(firstv), np.diff(np.append(np.flatnonzero(firstv), len(vsel)))
        )
        keep = vsel[rank < k]
        data = {}
        for kk, c in zip(keys, kcols):
            vals = c[keep]
            data[kk] = (
                pa.array(np.asarray(decode[kk], dtype=object)[vals], type=batch[kk].type)
                if kk in decode
                else pa.array(vals, type=batch[kk].type)
            )
        data["h"] = pa.array(h[keep], type=pa.uint64())
        return pa.table(data)

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def fold(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        fields = [tbl.schema.field(kk) for kk in keys] + [
            pa.field("kmv_ndv", pa.int64())
        ]
        out_schema = pa.schema(fields)
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = tbl.to_pandas()
        recs = []
        for kv, grp in df.groupby(keys, sort=False):
            kt = kv if isinstance(kv, tuple) else (kv,)
            hs = np.unique(grp["h"].to_numpy())[:k]
            recs.append((*kt, _kmv_estimate(hs, k)))
        return pa.Table.from_pandas(
            pd.DataFrame(recs, columns=keys + ["kmv_ndv"]), preserve_index=False
        ).cast(out_schema)

    return partitioned_map(rows, keys, fold, num_partitions=num_partitions)


def kmv_set_similarity(
    ds_a: Dataset, ds_b: Dataset, col_a: str, col_b: str | None = None,
    *, k: int = 256, num_partitions: int = 8,
) -> Dataset:
    """Distinct-set overlap of two corpora from their KMV synopses alone —
    one row (n_sample, n_both, union_ndv, jacc_micro). The pinned rule
    (Beyer et al. 2007 §4): S = the min(k, |H_A ∪ H_B|) smallest hashes of
    the union (computable exactly from the two bottom-k sketches, since
    bottom-k(A∪B) ⊆ bottom-k(A) ∪ bottom-k(B) and any h ∈ S that belongs
    to a set is inside that set's own sketch — τ_union ≤ τ_set);
    Jaccard ≈ |S ∩ A ∩ B| / |S| as floor micro-units; union_ndv is the
    KMV estimate over S. Neither corpus is ever co-shuffled with the
    other — the driver folds two ≤ k-row synopses (O(k) state)."""
    import ray.data as rd

    sk_a = kmv_sketch(ds_a, col_a, k=k, num_partitions=num_partitions).to_pandas()
    sk_b = kmv_sketch(ds_b, col_b or col_a, k=k,
                      num_partitions=num_partitions).to_pandas()
    ha = sk_a["h"].to_numpy().astype(np.uint64) if len(sk_a) else np.empty(0, np.uint64)
    hb = sk_b["h"].to_numpy().astype(np.uint64) if len(sk_b) else np.empty(0, np.uint64)
    hu = np.unique(np.concatenate([ha, hb]))[:k]
    n_sample = int(len(hu))
    n_both = int(np.isin(hu, ha).astype(np.int64) @ np.isin(hu, hb).astype(np.int64))
    union_ndv = _kmv_estimate(hu, k)
    jacc_micro = (1_000_000 * n_both) // n_sample if n_sample else 0
    return rd.from_arrow(pa.table(
        {"n_sample": pa.array([n_sample], pa.int64()),
         "n_both": pa.array([n_both], pa.int64()),
         "union_ndv": pa.array([union_ndv], pa.int64()),
         "jacc_micro": pa.array([jacc_micro], pa.int64())}
    ))


def kmv_overlap_matrix(
    ds: Dataset, group_col: str, col: str, *, k: int = 256,
    num_partitions: int = 8, max_groups: int = 4096,
) -> Dataset:
    """Pairwise distinct-set overlap BETWEEN the groups of one table —
    the audience-overlap / source-contamination matrix: for every
    unordered group pair g1 < g2 one row (g1, g2, n_sample, n_both,
    union_ndv, jacc_micro), computed from the per-group KMV synopses
    alone by the same pinned union rule as ``kmv_set_similarity``.

    ``group_col`` must be LOW-cardinality (a source/language/shard tag —
    the output is |G|² rows and the pair fold co-locates all |G|·k
    sketch rows in ONE task; ``max_groups`` guards the quadratic). The
    DATA pass stays fully distributed and k-bounded: block partials cap
    every (group, block) at k rows, one key-partitioned fold reduces
    each group to its ≤ k-row synopsis, and only synopses reach the
    pair task."""
    import pandas as pd

    from graphx_ray.stages.derive import partitioned_map

    sk = _grouped_kmv_rows(ds, group_col, col, k=k,
                           num_partitions=num_partitions)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "g0", pa.array(np.zeros(batch.num_rows, np.int64)))

    sch = ds.schema()  # ray.data Schema: parallel names/types lists
    gtype = dict(zip(sch.names, sch.types))[group_col]
    if not isinstance(gtype, pa.DataType):
        # pandas-backed datasets report numpy/python types; object ⇒ string
        try:
            gtype = pa.from_numpy_dtype(np.dtype(gtype))
        except (TypeError, pa.ArrowNotImplementedError):
            gtype = pa.string()
    out_schema = pa.schema(
        [pa.field("g1", gtype), pa.field("g2", gtype),
         ("n_sample", pa.int64()), ("n_both", pa.int64()),
         ("union_ndv", pa.int64()), ("jacc_micro", pa.int64())]
    )

    def pairs(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = tbl.to_pandas()
        groups = sorted(df[group_col].unique())
        if len(groups) > max_groups:
            raise ValueError(
                f"kmv_overlap_matrix: {len(groups)} groups exceed "
                f"max_groups={max_groups} (the output is |G|² rows)"
            )
        hs = {g: np.sort(sub["h"].to_numpy().astype(np.uint64))
              for g, sub in df.groupby(group_col, sort=False)}
        rows = []
        for i, g1 in enumerate(groups):
            for g2 in groups[i + 1:]:
                ha, hb = hs[g1], hs[g2]
                hu = np.unique(np.concatenate([ha, hb]))[:k]
                n_sample = int(len(hu))
                n_both = int(
                    np.isin(hu, ha).astype(np.int64)
                    @ np.isin(hu, hb).astype(np.int64)
                )
                union_ndv = _kmv_estimate(hu, k)
                jacc = (1_000_000 * n_both) // n_sample if n_sample else 0
                rows.append((g1, g2, n_sample, n_both, union_ndv, jacc))
        return pa.Table.from_pandas(
            pd.DataFrame(rows, columns=["g1", "g2", "n_sample", "n_both",
                                        "union_ndv", "jacc_micro"]),
            preserve_index=False,
        ).cast(out_schema)

    return partitioned_map(
        sk.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
        ["g0"],
        lambda t: pairs(t.drop_columns(["g0"]) if "g0" in t.column_names else t),
        num_partitions=1,
        empty_schema=out_schema,
    )


def _grouped_kmv_rows(ds: Dataset, group_col: str, col: str, *, k: int,
                      num_partitions: int) -> Dataset:
    """Per-group ≤ k-row synopses as (group, h) rows — the wire half of
    ``grouped_kmv_ndv`` without the estimate fold."""
    import pandas as pd

    from graphx_ray.stages.derive import partitioned_map

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {group_col: batch[group_col], "h": pa.array([], pa.uint64())}
            )
        h = _hash_col(batch[col])
        arr = batch[group_col]
        if pa.types.is_integer(arr.type):
            codes, uniq = arr.to_numpy(), None
        else:
            codes, uniq = pd.factorize(arr.to_pandas())
        order = np.lexsort((h, codes))
        h, codes = h[order], codes[order]
        newg = np.ones(len(h), bool)
        newg[1:] = codes[1:] != codes[:-1]
        newv = newg.copy()
        newv[1:] |= h[1:] != h[:-1]
        vsel = np.flatnonzero(newv)
        vgid = (np.cumsum(newg) - 1)[vsel]
        firstv = np.ones(len(vsel), bool)
        firstv[1:] = vgid[1:] != vgid[:-1]
        starts = np.flatnonzero(firstv)
        rank = np.arange(len(vsel)) - np.repeat(
            starts, np.diff(np.append(starts, len(vsel)))
        )
        keep = vsel[rank < k]
        gv = codes[keep]
        data = {
            group_col: (
                pa.array(np.asarray(uniq, dtype=object)[gv],
                         type=batch[group_col].type)
                if uniq is not None
                else pa.array(gv, type=batch[group_col].type)
            ),
            "h": pa.array(h[keep], type=pa.uint64()),
        }
        return pa.table(data)

    rows = ds.select_columns([group_col, col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def fold(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        out_schema = pa.schema(
            [tbl.schema.field(group_col), pa.field("h", pa.uint64())]
        )
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = tbl.to_pandas()
        gs, hh = [], []
        for g, grp in df.groupby(group_col, sort=False):
            hs = np.unique(grp["h"].to_numpy().astype(np.uint64))[:k]
            gs.append(np.full(len(hs), g, dtype=object))
            hh.append(hs)
        return pa.table(
            {group_col: pa.array(np.concatenate(gs),
                                 type=tbl.schema.field(group_col).type),
             "h": pa.array(np.concatenate(hh), type=pa.uint64())},
        )

    return partitioned_map(rows, [group_col], fold,
                           num_partitions=num_partitions)


def heavy_hitters(
    ds: Dataset,
    col: str,
    *,
    k: int = 50,
    num_partitions: int = 8,
) -> Dataset:
    """EXACT φ-heavy hitters (φ = 1/(k+1)) over an unaggregated key
    stream in two passes — the distributed frequent-items pattern
    (Misra & Gries 1982 candidates, made exact with a verify pass):

    Pass 1 (candidates): each block keeps keys whose block-local count c
    clears c·(k+1) > n_block — at most k per block (Σc = n_block), and by
    the averaging argument ANY key with global count > n/(k+1) clears the
    bar in at least one block, so the union over blocks is a SUPERSET of
    the true heavy hitters regardless of how rows are batched. Every
    block also emits ONE total-carrier row (its row count in ``nb``) so
    n_total rides the same pass. One keyed storage reduce merges the
    partials; the merged candidate list is bounded by k × n_blocks and is
    the only driver materialization (the k-means-centroid small-side
    contract), broadcast with ray.put.

    Pass 2 (exact verify): block-local exact counts restricted to the
    broadcast candidates, one keyed reduce, final filter
    cnt·(k+1) > n_total. The output (key, cnt) is EXACT — batch-order and
    parallelism invariant by construction, SQL-replayable as a plain
    GROUP BY ... HAVING. At 100 TB both shuffles move candidate-sized
    tables only; the full key stream is never exchanged."""
    import ray

    from graphx_ray.stages.derive import grouped_reduce

    kk = int(k)
    if kk < 1:
        raise ValueError("k must be >= 1")

    def candidates(batch: pa.Table) -> pa.Table:
        vals = batch[col].to_pandas().dropna()
        nb = len(vals)
        empty = pa.table(
            {col: pa.array([], batch.schema.field(col).type),
             "cnt": pa.array([], pa.int64()),
             "nb": pa.array([], pa.int64())}
        )
        if nb == 0:
            return empty
        vc = vals.value_counts()
        heavy = vc[vc.to_numpy() * (kk + 1) > nb]
        # one total-carrier row per block: cnt 0 (no effect on any term's
        # count), nb = block size (Σ nb across all rows = n_total)
        terms = np.concatenate([heavy.index.to_numpy(), vals.to_numpy()[:1]])
        cnts = np.concatenate([heavy.to_numpy().astype(np.int64), [0]])
        nbs = np.concatenate([np.zeros(len(heavy), np.int64), [nb]])
        return pa.table(
            {col: pa.array(terms, type=batch.schema.field(col).type),
             "cnt": pa.array(cnts),
             "nb": pa.array(nbs)}
        )

    p1 = ds.select_columns([col]).map_batches(
        candidates, batch_format="pyarrow", zero_copy_batch=True
    )
    # the merged candidate table is bounded by k × n_blocks + one carrier
    # per block — driver-side pandas here is the small-side contract (and
    # dodges the empty-block schema-drop gotcha a Dataset.filter would hit)
    merged = grouped_reduce(
        p1, [col], agg_cols={"cnt": "sum", "nb": "sum"},
        num_partitions=num_partitions,
    ).to_pandas()
    n_total = int(merged["nb"].sum()) if "nb" in merged.columns else 0
    cand = (
        merged.loc[merged["cnt"] > 0, col].to_numpy()
        if "cnt" in merged.columns
        else np.empty(0, object)
    )
    if len(cand) == 0 or n_total == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.Table.from_pandas(
                merged.head(0)[[col, "cnt"]]
                if {col, "cnt"} <= set(merged.columns)
                else merged.iloc[:0].assign(**{col: [], "cnt": []})[[col, "cnt"]],
                preserve_index=False,
            )
        )
    cand_set_ref = ray.put(set(cand.tolist()))

    def verify(batch: pa.Table) -> pa.Table:
        cset = ray.get(cand_set_ref)
        vals = batch[col].to_pandas().dropna()
        vals = vals[vals.isin(cset)]
        vc = vals.value_counts()
        return pa.table(
            {col: pa.array(vc.index.to_numpy(), type=batch.schema.field(col).type),
             "cnt": pa.array(vc.to_numpy().astype(np.int64))}
        )

    p2 = ds.select_columns([col]).map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True
    )
    exact = grouped_reduce(p2, [col], sum_col="cnt", num_partitions=num_partitions)
    thr = n_total  # keep iff cnt·(k+1) > n_total, all integer arithmetic

    def keep(batch: pa.Table) -> pa.Table:
        m = batch["cnt"].to_numpy() * (kk + 1) > thr
        return batch.filter(pa.array(m))

    return exact.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
