"""Temporal relational operators: windowed aggregates (tumbling/sliding),
as-of join, interval (range) join — Ray-Data-first (SURVEY.md §2 J/A-series
addendum; reference mount is empty, so semantics are pinned here and by the
SQL oracles in ``__ray_entry__.py``).

Scale design
------------
- ``windowed_aggregate`` pre-aggregates INSIDE each ``map_batches`` call
  (one lexsort + reduceat per batch) before a single storage-backed keyed
  reduce (``derive.grouped_reduce`` with multi-column aggs) — the shuffle
  moves one row per (key, window) per batch, never raw events.
- ``asof_join`` hash-co-partitions both sides by the join key through
  storage (the ``bucket_join`` spill pattern) and resolves each bucket with
  one vectorized merged-sort forward-fill — no per-row Python, no
  driver-side materialization, one shuffle per side.
- ``range_join`` buckets time with border duplication of the INTERVAL side
  only (each interval is copied into every bucket it overlaps; points stay
  single-copy, so every matching pair is emitted exactly once — in the
  point's bucket). Per-(bucket, key) cost is candidate-bounded the same way
  the zone-proximity join is: choose ``bucket_us`` ≈ the typical interval
  length so an interval lands in O(1) buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from graphx_ray.context import ensure_hash_shuffle
from graphx_ray.stages.derive import grouped_reduce
from graphx_ray.state.spill import hash_parts, per_part, spill


def _codes(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Integer view of a column for lexsort GROUP keys (equality only —
    strings factorize in appearance order)."""
    if pa.types.is_integer(arr.type):
        return arr.to_numpy()
    return pd.factorize(arr.to_pandas())[0]


def _ordered_codes(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Integer view that PRESERVES value order (tie-break columns)."""
    if pa.types.is_integer(arr.type):
        return arr.to_numpy()
    return pd.factorize(arr.to_pandas(), sort=True)[0]


# --------------------------------------------------------------- windows


def windowed_aggregate(
    ds: Dataset,
    *,
    ts_us_col: str,
    window_us: int,
    slide_us: int | None = None,
    key_cols: list[str] | None = None,
    value_col: str | None = None,
    num_partitions: int = 32,
) -> Dataset:
    """Tumbling (``slide_us`` None/=window) or sliding windowed aggregate.

    Output: one row per (key tuple, window_start_us) with ``n_rows`` and —
    when ``value_col`` is given — ``sum_/min_/max_<value_col>``. Sliding
    windows require ``window_us % slide_us == 0``; each row then lands in
    exactly ``window_us // slide_us`` windows (repeat-expansion inside the
    batch kernel, combined immediately so the expansion never shuffles)."""
    key_cols = key_cols or []
    slide = slide_us or window_us
    if window_us % slide != 0:
        raise ValueError("window_us must be a multiple of slide_us")
    k = window_us // slide
    ensure_hash_shuffle(ds)

    vname = value_col
    out_fields = [("n_rows", pa.int64())] + (
        [(f"sum_{vname}", pa.float64()), (f"min_{vname}", pa.float64()),
         (f"max_{vname}", pa.float64())] if vname else []
    )

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key_types = {c: batch[c].type for c in key_cols}
        schema = pa.schema(
            [pa.field(c, key_types[c]) for c in key_cols]
            + [pa.field("window_start_us", pa.int64())]
            + [pa.field(f, t) for f, t in out_fields]
        )
        if n == 0:
            return schema.empty_table()
        ts = batch[ts_us_col].to_numpy()
        if k == 1:
            ws = (ts // window_us) * window_us
            idx = np.arange(n)
        else:
            # floor-div window ids j back from each row's slide bucket:
            # every one of the k candidate windows contains the row
            base = ts // slide
            idx = np.repeat(np.arange(n), k)
            ws = (np.repeat(base, k) - np.tile(np.arange(k), n)) * slide
        kcodes = [_codes(batch[c])[idx] for c in key_cols]
        order = np.lexsort(tuple(reversed(kcodes + [ws])))
        srt = [c[order] for c in kcodes] + [ws[order]]
        m = len(ws)
        new = np.zeros(m, bool)
        new[0] = True
        for c in srt:
            new[1:] |= c[1:] != c[:-1]
        rs = np.flatnonzero(new)
        cnt = np.diff(np.concatenate([rs, [m]]))
        data: dict[str, pa.Array] = {}
        oidx = idx[order][rs]  # original-row index of each group head
        for c in key_cols:
            data[c] = batch[c].take(pa.array(oidx, type=pa.int64()))
        data["window_start_us"] = pa.array(srt[-1][rs], type=pa.int64())
        data["n_rows"] = pa.array(cnt.astype(np.int64))
        if vname:
            v = batch[vname].to_numpy().astype(np.float64)[idx][order]
            data[f"sum_{vname}"] = pa.array(np.add.reduceat(v, rs))
            data[f"min_{vname}"] = pa.array(np.minimum.reduceat(v, rs))
            data[f"max_{vname}"] = pa.array(np.maximum.reduceat(v, rs))
        return pa.table(data, schema=schema)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    aggs = {"n_rows": "sum"}
    if vname:
        aggs.update({f"sum_{vname}": "sum", f"min_{vname}": "min", f"max_{vname}": "max"})
    return grouped_reduce(
        partials,
        key_cols + ["window_start_us"],
        agg_cols=aggs,
        num_partitions=num_partitions,
    )


# --------------------------------------------------------------- as-of join


def asof_join(
    left: Dataset,
    right: Dataset,
    *,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    right_cols: list[str],
    tolerance_us: int | None = None,
    num_partitions: int = 32,
) -> Dataset:
    """Backward as-of LEFT join: for every left row, the right row with the
    same key and the LARGEST ``right_ts`` ≤ ``left_ts`` (and, when
    ``tolerance_us`` is given, ``left_ts − right_ts ≤ tolerance_us``).

    Ties on (key, right_ts) resolve deterministically to the row with the
    largest ``right_cols[0]`` (pinned; partition-order independent). Output
    = all left columns + ``right_cols`` (+ ``_r`` suffix on collisions),
    null where no match. One vectorized merged-sort forward-fill per key
    bucket — the classic sort-merge as-of, co-partitioned through storage."""
    P = num_partitions
    rread = list(dict.fromkeys([right_key, right_ts] + right_cols))
    lspill = spill(left, lambda b: (b, hash_parts(b, [left_key], P)), P)
    rspill = spill(right, lambda b: (b.select(rread), hash_parts(b, [right_key], P)), P)

    lsch = left.schema()
    lcols = list(lsch.names)
    rsch = right.schema()
    rtypes = {n: t for n, t in zip(rsch.names, rsch.types)}
    out_names = {rc: (rc if rc not in lcols else rc + "_r") for rc in right_cols}
    out_schema = pa.schema(
        [pa.field(n, t) for n, t in zip(lsch.names, lsch.types)]
        + [pa.field(out_names[rc], rtypes[rc]) for rc in right_cols]
    )
    tb = right_cols[0]

    def bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        nl, nr = lt.num_rows, rt.num_rows
        if nl == 0:
            return out_schema.empty_table()
        data = {n: lt[n] for n in lcols}
        if nr == 0:
            for rc in right_cols:
                data[out_names[rc]] = pa.nulls(nl, type=rtypes[rc])
            return pa.table(data, schema=out_schema)
        # joint key codes so int and string keys share one path
        lk = lt[left_key].to_pandas()
        rk = rt[right_key].to_pandas()
        codes = pd.factorize(pd.concat([rk, lk], ignore_index=True))[0]
        rcode, lcode = codes[:nr], codes[nr:]
        rts = rt[right_ts].to_numpy()
        lts = lt[left_ts].to_numpy()
        order_r = np.lexsort((_ordered_codes(rt[tb]), rts, rcode))
        rcode_s, rts_s = rcode[order_r], rts[order_r]
        # merged sort, right rows (side 0) before left at equal ts → inclusive ≤
        allcode = np.concatenate([rcode_s, lcode])
        allts = np.concatenate([rts_s, lts])
        side = np.concatenate([np.zeros(nr, np.int8), np.ones(nl, np.int8)])
        ridx = np.concatenate([np.arange(nr), np.full(nl, -1)])
        order = np.lexsort((side, allts, allcode))
        filled = np.maximum.accumulate(ridx[order])
        pos = np.empty(nr + nl, np.int64)
        pos[order] = np.arange(nr + nl)
        match = filled[pos[nr:]]  # per left row, in left-file order
        safe = np.maximum(match, 0)
        valid = (match >= 0) & (rcode_s[safe] == lcode)
        if tolerance_us is not None:
            valid &= (lts - rts_s[safe]) <= tolerance_us
        take = pa.array(np.where(valid, safe, -1), type=pa.int64())
        take = pc.if_else(pc.equal(take, -1), pa.nulls(nl, pa.int64()), take)
        for rc in right_cols:
            col = rt[rc].combine_chunks().take(pa.array(order_r, type=pa.int64()))
            data[out_names[rc]] = col.take(take)
        return pa.table(data, schema=out_schema)

    return per_part(bucket, lspill, rspill, empty=out_schema.empty_table())


# --------------------------------------------------------------- range join


def range_join(
    points: Dataset,
    intervals: Dataset,
    *,
    point_key: str,
    interval_key: str,
    point_ts: str,
    start_ts: str,
    end_ts: str,
    point_cols: list[str],
    interval_cols: list[str],
    bucket_us: int,
    num_partitions: int = 32,
) -> Dataset:
    """Interval containment join: one output row per (point, interval) pair
    with equal keys and ``start_ts ≤ point_ts < end_ts`` (half-open).

    Intervals are border-duplicated into every time bucket they overlap;
    points keep their single bucket, so each pair surfaces exactly once.
    Within a (bucket, key) group the kernel counts, per point, the prefix
    of intervals with ``start ≤ ts`` via one merged sort, expands with
    repeat/arange, and filters ``end > ts`` — all vectorized. Output =
    ``point_cols`` + ``interval_cols`` (``_i`` suffix on collisions)."""
    P = num_partitions
    pread = list(dict.fromkeys([point_key, point_ts, "_gb"] + point_cols))
    iread = list(dict.fromkeys([interval_key, start_ts, end_ts, "_gb"] + interval_cols))

    def part_points(batch: pa.Table):
        b = batch.append_column(
            "_gb", pa.array(batch[point_ts].to_numpy() // bucket_us, type=pa.int64())
        )
        return b.select(pread), hash_parts(b, ["_gb", point_key], P)

    def part_intervals(batch: pa.Table):
        s = batch[start_ts].to_numpy()
        e = batch[end_ts].to_numpy()
        live = e > s
        b0 = s // bucket_us
        b1 = (e - 1) // bucket_us  # inclusive last bucket (end exclusive)
        cnt = np.where(live, b1 - b0 + 1, 0)
        rep = np.repeat(np.arange(batch.num_rows), cnt)
        offs = np.cumsum(cnt) - cnt
        gb = b0[rep] + (np.arange(int(cnt.sum())) - offs[rep])
        out = batch.take(pa.array(rep, type=pa.int64())).append_column(
            "_gb", pa.array(gb, type=pa.int64())
        )
        return out.select(iread), hash_parts(out, ["_gb", interval_key], P)

    pspill = spill(points, part_points, P)
    ispill = spill(intervals, part_intervals, P)

    psch = points.schema()
    ptypes = {n: t for n, t in zip(psch.names, psch.types)}
    isch = intervals.schema()
    itypes = {n: t for n, t in zip(isch.names, isch.types)}
    out_names = {ic: (ic if ic not in point_cols else ic + "_i") for ic in interval_cols}
    out_schema = pa.schema(
        [pa.field(c, ptypes[c]) for c in point_cols]
        + [pa.field(out_names[ic], itypes[ic]) for ic in interval_cols]
    )
    def bucket(pt: pa.Table, it: pa.Table) -> pa.Table:
        np_, ni = pt.num_rows, it.num_rows
        if np_ == 0 or ni == 0:
            return out_schema.empty_table()
        # joint (bucket, key) group codes over both sides
        gk = pd.factorize(
            pd.MultiIndex.from_arrays(
                [
                    pd.concat([it["_gb"].to_pandas(), pt["_gb"].to_pandas()], ignore_index=True),
                    pd.concat(
                        [it[interval_key].to_pandas(), pt[point_key].to_pandas()],
                        ignore_index=True,
                    ),
                ]
            )
        )[0]
        icode, pcode = gk[:ni], gk[ni:]
        ist = it[start_ts].to_numpy()
        ien = it[end_ts].to_numpy()
        pts = pt[point_ts].to_numpy()
        order_i = np.lexsort((ist, icode))
        icode_s, ist_s, ien_s = icode[order_i], ist[order_i], ien[order_i]
        # per point: # intervals in its group with start ≤ ts (prefix in the
        # group's start-sorted run) — one merged sort, intervals first at ties
        allcode = np.concatenate([icode_s, pcode])
        allt = np.concatenate([ist_s, pts])
        side = np.concatenate([np.zeros(ni, np.int8), np.ones(np_, np.int8)])
        order = np.lexsort((side, allt, allcode))
        is_int = (side[order] == 0).astype(np.int64)
        cum = np.cumsum(is_int)
        code_o = allcode[order]
        seg_new = np.empty(ni + np_, bool)
        seg_new[0] = True
        np.not_equal(code_o[1:], code_o[:-1], out=seg_new[1:])
        seg_id = np.cumsum(seg_new) - 1
        base = np.concatenate([[0], cum[np.flatnonzero(seg_new)[1:] - 1]])
        cnt_at = cum - base[seg_id]
        pos = np.empty(ni + np_, np.int64)
        pos[order] = np.arange(ni + np_)
        c = cnt_at[pos[ni:]]  # per point, in point-file order
        # group start offset of each code in the interval-sorted array
        inew = np.empty(ni, bool)
        inew[0] = True
        np.not_equal(icode_s[1:], icode_s[:-1], out=inew[1:])
        heads = np.flatnonzero(inew)
        istart_map = np.full(int(gk.max()) + 1, -1, np.int64)
        istart_map[icode_s[heads]] = heads
        total = int(c.sum())
        if total == 0:
            return out_schema.empty_table()
        rep = np.repeat(np.arange(np_), c)
        offs = np.cumsum(c) - c
        j = np.arange(total) - offs[rep]
        ii = istart_map[pcode[rep]] + j
        keep = ien_s[ii] > pts[rep]
        rep, ii = rep[keep], ii[keep]
        data = {}
        for ccol in point_cols:
            data[ccol] = pt[ccol].combine_chunks().take(pa.array(rep, type=pa.int64()))
        gi = order_i[ii]
        for ic in interval_cols:
            data[out_names[ic]] = it[ic].combine_chunks().take(pa.array(gi, type=pa.int64()))
        return pa.table(data, schema=out_schema)

    return per_part(bucket, pspill, ispill, empty=out_schema.empty_table())


def session_window(
    ds: Dataset,
    *,
    ts_us_col: str,
    gap_us: int,
    key_cols: list[str],
    value_col: str | None = None,
    num_partitions: int = 32,
) -> Dataset:
    """Gap-based SESSION windows (the third classic window kind next to
    tumbling/sliding): within each key, consecutive events belong to one
    session while the gap to the previous event is ≤ ``gap_us``; a larger
    gap starts a new session. Output: one row per (key tuple, session)
    with ``session_start_us``, ``session_end_us`` (last event ts),
    ``n_rows`` and — when ``value_col`` is given — ``sum_<value>_e6``
    (value summed as half-up micro-unit int64 on BOTH engine and oracle
    sides, so the sum is order-free and hash-comparable).

    Sessions are gap-defined, so a session can span any number of input
    blocks — the kernel therefore runs inside ``partitioned_map`` (each
    key's COMPLETE history co-resident, the repo's group-local-kernel
    rule), one storage shuffle keyed by the session keys."""
    from graphx_ray.stages.derive import partitioned_map

    ensure_hash_shuffle(ds)
    cols = key_cols + [ts_us_col] + ([value_col] if value_col else [])
    src = ds.select_columns(cols)

    def kernel(tbl: pa.Table) -> pa.Table:
        key_fields = [tbl.schema.field(c) for c in key_cols]
        out_fields = key_fields + [
            pa.field("session_start_us", pa.int64()),
            pa.field("session_end_us", pa.int64()),
            pa.field("n_rows", pa.int64()),
        ]
        if value_col:
            out_fields.append(pa.field(f"sum_{value_col}_e6", pa.int64()))
        schema = pa.schema(out_fields)
        if tbl.num_rows == 0:
            return schema.empty_table()
        ts = tbl[ts_us_col].to_numpy()
        kcodes = [_codes(tbl[c]) for c in key_cols]
        order = np.lexsort(tuple(reversed(kcodes + [ts])))
        tss = ts[order]
        ksrt = [c[order] for c in kcodes]
        n = len(tss)
        newkey = np.zeros(n, bool)
        newkey[0] = True
        for c in ksrt:
            newkey[1:] |= c[1:] != c[:-1]
        gap = np.zeros(n, bool)
        gap[1:] = (tss[1:] - tss[:-1]) > gap_us
        new = newkey | gap
        rs = np.flatnonzero(new)
        cnt = np.diff(np.append(rs, n))
        ends = rs + cnt - 1
        oidx = order[rs]
        data: dict = {}
        for c in key_cols:
            data[c] = tbl[c].take(pa.array(oidx, type=pa.int64()))
        data["session_start_us"] = pa.array(tss[rs], type=pa.int64())
        data["session_end_us"] = pa.array(tss[ends], type=pa.int64())
        data["n_rows"] = pa.array(cnt.astype(np.int64))
        if value_col:
            v = tbl[value_col].to_numpy()[order]
            ve6 = np.floor(v * 1e6 + 0.5).astype(np.int64)  # pinned half-up
            data[f"sum_{value_col}_e6"] = pa.array(np.add.reduceat(ve6, rs))
        return pa.table(data, schema=schema)

    return partitioned_map(src, key_cols, kernel, num_partitions=num_partitions)


# --------------------------------------------------- event transitions


TRANSITION_SCHEMA = pa.schema(
    [
        ("src_type", pa.string()),
        ("dst_type", pa.string()),
        ("n", pa.int64()),
        ("p_micro", pa.int64()),
    ]
)


def event_transitions(
    ds: Dataset,
    *,
    key_col: str,
    ts_us_col: str,
    type_col: str,
    tiebreak_col: str,
    num_partitions: int = 32,
) -> Dataset:
    """First-order Markov transition counts over per-key ordered event
    streams — the clickstream/session-analysis staple: within each key
    (user), order events by ``(ts, tiebreak)`` (the tiebreak column pins a
    TOTAL order so equal timestamps cannot flip a transition between runs)
    and count every consecutive ``(src_type → dst_type)`` pair. Output:
    one row per observed transition with ``n`` (exact count) and
    ``p_micro`` — the row-normalized transition probability in half-up
    micro-units, computed EXACTLY in integers as
    ``(2_000_000·n + tot) // (2·tot)`` (≡ floor(1e6·n/tot + 0.5); valid
    while 2e6·n fits int64, i.e. n per src_type < 4.6·10¹²; the SQL
    oracle mirrors the same recipe in HUGEINT).

    Scale shape: a key's history can span input blocks, so the pair
    kernel runs inside ``partitioned_map`` (complete per-key history
    co-resident — the repo's group-local-kernel rule) with a LOCAL
    lexsort + factorized combine, so the keyed shuffle that follows moves
    one row per distinct (src, dst) per task, never raw events. The
    row-total join is transition-matrix-sized (|types|²) — a second
    storage reduce + one bucket join, nothing event-sized past the first
    stage.
    """
    from graphx_ray.stages.derive import partitioned_map
    from graphx_ray.stages.motif import bucket_join

    ensure_hash_shuffle(ds)
    src = ds.select_columns([key_col, ts_us_col, type_col, tiebreak_col])
    pair_schema = pa.schema(
        [("src_type", pa.string()), ("dst_type", pa.string()), ("n", pa.int64())]
    )

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pair_schema.empty_table()
        key = _codes(tbl[key_col])
        ts = tbl[ts_us_col].to_numpy()
        tie = _ordered_codes(tbl[tiebreak_col])
        types, uniq = pd.factorize(tbl[type_col].to_pandas())
        if (types < 0).any():  # factorize codes nulls as -1
            raise ValueError(f"event_transitions: null values in {type_col!r}")
        order = np.lexsort((tie, ts, key))
        k = key[order]
        t = types[order]
        same = k[1:] == k[:-1]
        if not same.any():
            return pair_schema.empty_table()
        s, d = t[:-1][same], t[1:][same]
        # local combine: one row per distinct (src, dst) leaves the task
        nt = len(uniq)
        flat = s.astype(np.int64) * nt + d
        fu, cnt = np.unique(flat, return_counts=True)
        return pa.table(
            {
                "src_type": pa.array(uniq[(fu // nt)].astype(str)),
                "dst_type": pa.array(uniq[(fu % nt)].astype(str)),
                "n": pa.array(cnt.astype(np.int64)),
            },
            schema=pair_schema,
        )

    pairs = partitioned_map(
        src, [key_col], kernel,
        num_partitions=num_partitions, empty_schema=pair_schema,
    )
    counts = grouped_reduce(
        pairs, ["src_type", "dst_type"], sum_col="n",
        num_partitions=num_partitions, empty_schema=pair_schema,
    )
    totals = grouped_reduce(
        counts.select_columns(["src_type", "n"]).map_batches(
            lambda b: b.rename_columns(["src_type", "tot"]),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        ["src_type"], sum_col="tot", num_partitions=num_partitions,
    )
    joined = bucket_join(
        counts, totals, on="src_type", right_on="src_type",
        num_partitions=num_partitions,
    )

    def score(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return TRANSITION_SCHEMA.empty_table()
        n = b["n"].to_numpy()
        tot = b["tot"].to_numpy()
        pm = (2_000_000 * n + tot) // (2 * tot)
        return pa.table(
            {
                "src_type": b["src_type"],
                "dst_type": b["dst_type"],
                "n": b["n"],
                "p_micro": pa.array(pm.astype(np.int64)),
            },
            schema=TRANSITION_SCHEMA,
        )

    return joined.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------- cohort retention


RETENTION_SCHEMA = pa.schema(
    [
        ("cohort", pa.int64()),
        ("period", pa.int64()),
        ("n_active", pa.int64()),
        ("cohort_size", pa.int64()),
        ("retention_micro", pa.int64()),
    ]
)


def cohort_retention(
    ds: Dataset,
    *,
    key_col: str,
    ts_us_col: str,
    period_us: int,
    num_partitions: int = 32,
) -> Dataset:
    """Classic cohort-retention analysis: each key (user) belongs to the
    cohort of its FIRST event's period (``floor(ts/period)``); for every
    (cohort, relative period k ≥ 0) the output counts the distinct keys of
    that cohort active in that period, the cohort's size, and
    ``retention_micro`` — n_active/cohort_size in half-up micro-units via
    the exact integer recipe ``(2e6·n + size) // (2·size)`` (the k=0 row
    is the cohort size itself, retention 1e6, a built-in sanity anchor).

    Scale shape: one ``partitioned_map`` keyed by the user brings each
    key's COMPLETE history co-resident (the group-local-kernel rule — the
    cohort anchor is a per-key MIN that an in-memory split block would
    corrupt); the kernel emits one row per distinct (key, period) — i.e.
    per (cohort, k) CONTRIBUTION, pre-deduped locally — and the follow-up
    keyed reduce + the cohort-size join both move cohort×period-sized
    tables, never raw events.
    """
    from graphx_ray.stages.derive import partitioned_map
    from graphx_ray.stages.motif import bucket_join

    ensure_hash_shuffle(ds)
    src = ds.select_columns([key_col, ts_us_col])
    contrib_schema = pa.schema(
        [("cohort", pa.int64()), ("period", pa.int64()), ("n_active", pa.int64())]
    )

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return contrib_schema.empty_table()
        key = _codes(tbl[key_col])
        per = tbl[ts_us_col].to_numpy() // period_us
        order = np.lexsort((per, key))
        k, p = key[order], per[order]
        new = np.ones(len(k), bool)
        new[1:] = (k[1:] != k[:-1]) | (p[1:] != p[:-1])
        k, p = k[new], p[new]  # distinct (key, period), period-sorted
        first = np.ones(len(k), bool)
        first[1:] = k[1:] != k[:-1]
        anchor = np.repeat(p[first], np.diff(np.append(np.flatnonzero(first), len(k))))
        return pa.table(
            {
                "cohort": pa.array(anchor, type=pa.int64()),
                "period": pa.array(p - anchor, type=pa.int64()),
                "n_active": pa.array(np.ones(len(k), np.int64)),
            },
            schema=contrib_schema,
        )

    contrib = partitioned_map(
        src, [key_col], kernel,
        num_partitions=num_partitions, empty_schema=contrib_schema,
    )
    counts = grouped_reduce(
        contrib, ["cohort", "period"], sum_col="n_active",
        num_partitions=num_partitions, empty_schema=contrib_schema,
    )
    sizes = grouped_reduce(
        contrib.map_batches(
            lambda b: b.filter(pc.equal(b["period"], 0)).select(
                ["cohort", "n_active"]
            ).rename_columns(["cohort", "cohort_size"]),
            batch_format="pyarrow", zero_copy_batch=True,
        ),
        ["cohort"], sum_col="cohort_size", num_partitions=num_partitions,
    )
    joined = bucket_join(
        counts, sizes, on="cohort", right_on="cohort",
        num_partitions=num_partitions,
    )

    def score(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return RETENTION_SCHEMA.empty_table()
        n = b["n_active"].to_numpy()
        s = b["cohort_size"].to_numpy()
        rm = (2_000_000 * n + s) // (2 * s)
        return pa.table(
            {
                "cohort": b["cohort"],
                "period": b["period"],
                "n_active": b["n_active"],
                "cohort_size": b["cohort_size"],
                "retention_micro": pa.array(rm.astype(np.int64)),
            },
            schema=RETENTION_SCHEMA,
        )

    return joined.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


FUNNEL_SCHEMA = pa.schema(
    [("step", pa.int64()), ("event_type", pa.string()),
     ("n_users", pa.int64()), ("conv_micro", pa.int64())]
)


def funnel_steps(
    ds: Dataset,
    steps: list[str],
    *,
    key_col: str,
    ts_us_col: str,
    type_col: str,
    tiebreak_col: str,
    num_partitions: int = 32,
) -> Dataset:
    """Ordered-funnel analysis — the product-analytics staple: for the
    step sequence ``steps = [s₁, …, s_k]``, a key (user) REACHES step j
    iff its event stream contains s₁ < s₂ < … < s_j as a strictly
    ordered subsequence under the (ts, tiebreak) total order, matched
    GREEDILY (each step takes its key's EARLIEST occurrence after the
    previous step's match — for unwindowed reach, greedy-earliest is
    exhaustive: any witness subsequence can be shifted onto the greedy
    one). Output: one row per step — (step, event_type, n_users,
    conv_micro) with conv_micro = floor(1e6·n_j / n_1) (0 when n_1 = 0),
    the classic conversion-from-entry rate in pinned integer micro-units.

    Scale shape: a key's history co-resides via ``partitioned_map`` (the
    group-local-kernel rule); inside a task the chain is k vectorized
    passes over the (key, rank)-sorted rows — per pass one factorized
    per-key first-match (lexsort + reduceat minimum), never a per-user
    python loop. Each task emits k partial counts; one step-keyed reduce
    and a k-row fold finish — nothing event-sized leaves the first
    stage."""
    from graphx_ray.stages.derive import partitioned_map

    if not steps:
        raise ValueError("funnel_steps: empty step list")
    ensure_hash_shuffle(ds)
    src = ds.select_columns([key_col, ts_us_col, type_col, tiebreak_col])
    part_schema = pa.schema([("step", pa.int64()), ("n", pa.int64())])

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return part_schema.empty_table()
        key = _codes(tbl[key_col])
        ts = tbl[ts_us_col].to_numpy()
        tie = _ordered_codes(tbl[tiebreak_col])
        types = tbl[type_col].to_pandas().to_numpy()
        order = np.lexsort((tie, ts, key))
        k = key[order]
        t = types[order]
        # dense per-key rank under the pinned total order — both sides of
        # the oracle compare ranks only, so the tiebreak column's values
        # never enter the arithmetic
        newk = np.ones(len(k), bool)
        newk[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(newk)
        rank = np.arange(len(k)) - np.repeat(
            starts, np.diff(np.append(starts, len(k)))
        )
        uid = np.cumsum(newk) - 1  # dense user id
        n_users = int(uid[-1]) + 1
        INF = np.iinfo(np.int64).max
        # pos[u] = rank of user u's match for the previous step (-1 start)
        pos = np.full(n_users, -1, np.int64)
        alive = np.ones(n_users, bool)
        counts = []
        for s in steps:
            m = t == s
            su, sr = uid[m], rank[m]
            # earliest occurrence strictly after the user's previous match
            ok = alive[su] & (sr > pos[su])
            su, sr = su[ok], sr[ok]
            best = np.full(n_users, INF, np.int64)
            if len(su):
                # per-user minimum via one lexsort (ufunc.at is an
                # element-wise C loop — too slow for million-row tasks)
                o = np.lexsort((sr, su))
                su2, sr2 = su[o], sr[o]
                first = np.ones(len(su2), bool)
                first[1:] = su2[1:] != su2[:-1]
                best[su2[first]] = sr2[first]
            alive &= best != INF
            pos = np.where(alive, best, pos)
            counts.append(int(alive.sum()))
        return pa.table(
            {"step": pa.array(np.arange(1, len(steps) + 1, dtype=np.int64)),
             "n": pa.array(np.array(counts, np.int64))},
            schema=part_schema,
        )

    parts = partitioned_map(
        src, [key_col], kernel,
        num_partitions=num_partitions, empty_schema=part_schema,
    )
    totals = grouped_reduce(
        parts, ["step"], sum_col="n",
        num_partitions=num_partitions, empty_schema=part_schema,
    )

    def fold(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return FUNNEL_SCHEMA.empty_table()
        d = dict(zip(tbl["step"].to_numpy(), tbl["n"].to_numpy()))
        n1 = int(d.get(1, 0))
        rows = []
        for j, s in enumerate(steps, 1):
            nj = int(d.get(j, 0))
            conv = (1_000_000 * nj) // n1 if n1 > 0 else 0
            rows.append((j, s, nj, conv))
        return pa.table(
            {"step": pa.array([r[0] for r in rows], pa.int64()),
             "event_type": pa.array([r[1] for r in rows], pa.string()),
             "n_users": pa.array([r[2] for r in rows], pa.int64()),
             "conv_micro": pa.array([r[3] for r in rows], pa.int64())},
            schema=FUNNEL_SCHEMA,
        )

    def const(batch: pa.Table) -> pa.Table:
        return batch.append_column("g", pa.array(np.zeros(batch.num_rows, np.int64)))

    from graphx_ray.stages.derive import partitioned_map as pmap

    return pmap(
        totals.map_batches(const, batch_format="pyarrow", zero_copy_batch=True),
        ["g"],
        lambda t: fold(t.drop_columns(["g"]) if "g" in t.column_names else t),
        num_partitions=1,
        empty_schema=FUNNEL_SCHEMA,
    )


def event_gaps(
    ds: Dataset,
    *,
    key_col: str,
    ts_us_col: str,
    tiebreak_col: str,
    type_col: str | None = None,
    num_partitions: int = 32,
) -> Dataset:
    """Per-key inter-event gaps — the telemetry/session staple feeding
    gap-distribution profiles: within each key's stream ordered by the
    (ts, tiebreak) total order, one row per CONSECUTIVE pair with
    ``gap_us`` = ts(next) − ts(prev) ≥ 0; when ``type_col`` is given the
    gap is attributed to the LATER event's type (the "time since last
    activity before X" reading). Keys with < 2 events emit nothing.

    Scale shape: per-key history co-resident via ``partitioned_map``
    (the group-local-kernel rule), one lexsort + shifted diff per task —
    no per-row python; downstream profiles compose (e.g.
    ``derive.grouped_quantiles`` per type)."""
    from graphx_ray.stages.derive import partitioned_map

    ensure_hash_shuffle(ds)
    cols = [key_col, ts_us_col, tiebreak_col] + ([type_col] if type_col else [])
    src = ds.select_columns(cols)
    fields = [("key", pa.int64()), ("gap_us", pa.int64())]
    if type_col:
        fields.insert(1, (type_col, pa.string()))
    out_schema = pa.schema(fields)

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        key = tbl[key_col].to_numpy()
        ts = tbl[ts_us_col].to_numpy()
        tie = _ordered_codes(tbl[tiebreak_col])
        order = np.lexsort((tie, ts, key))
        k = key[order]
        t = ts[order]
        same = k[1:] == k[:-1]
        if not same.any():
            return out_schema.empty_table()
        data = {"key": pa.array(k[1:][same], type=pa.int64())}
        if type_col:
            ty = tbl[type_col].to_pandas().to_numpy()[order]
            data[type_col] = pa.array(ty[1:][same], type=pa.string())
        data["gap_us"] = pa.array((t[1:] - t[:-1])[same].astype(np.int64))
        return pa.table(data, schema=out_schema)

    return partitioned_map(
        src, [key_col], kernel,
        num_partitions=num_partitions, empty_schema=out_schema,
    )
