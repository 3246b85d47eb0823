"""Triangle counting (SURVEY.md G5, contract A.4) — non-iterative path.

Algorithm: degree-ordered DAG orientation + wedge check (the standard
"compact-forward" scheme, equivalent to GraphX's per-edge set-intersection
with halving):

1. canonicalize → simple undirected graph (u<v, no self-loops, deduped);
2. orient every edge a→b by (deg(a), a) < (deg(b), b) — bounds per-vertex
   out-degree by O(√m), so Σ outdeg² (the wedge count) is O(m^1.5) worst
   case and near-linear on power-law graphs;
3. per source-partition, enumerate wedges (b, c) over each a's
   out-neighborhood (vectorized repeat/arange, chunked — a hot block can
   hold 10⁸⁺ wedges) and probe the oriented edge set for (b, c);
4. every confirmed (a, b, c) adds 1 to all three vertices; task-local
   bincounts then one groupby-sum; vertices without triangles get 0.

Distribution discipline (NOTHING graph-sized touches the driver —
round-3 hardening of the round-2 design, which still built the O(V)
degree vector and the zero-filled result in driver pandas):

- degrees are computed by a storage-backed keyed reduce, spilled
  hash-partitioned by vid, and loaded into the OBJECT STORE one part per
  task (the driver holds only DP ObjectRefs and DP part sizes). Every
  orient/wedge task fetches the parts zero-copy from shared memory — on
  a multi-node cluster each node pulls the vertex-sized table once, the
  broadcast-small-side contract (degrees ≪ edges);
- the global vertex index that packs probe keys is part-rank based:
  idx(v) = part_offset[part_of(v)] + rank of v inside its sorted part —
  injective and consistent across tasks with no global sorted array;
- orientation runs inside ``map_batches`` against those parts;
- oriented edges spill ONCE, partitioned by bucket ``idx(a) % B``
  — a pure function of the source vertex, so the same partitioning serves
  the probe index build (one Ray task per bucket sorts its packed keys
  into the object store; the driver holds only ObjectRefs) AND wedge
  enumeration (a vertex's whole out-neighborhood is co-resident in its
  bucket regardless of Ray block splitting);
- wedge work is sliced by wedge COUNT (cheap pre-pass), so dense graphs
  fan out to hundreds of even tasks instead of one straggler per bucket;
- zero-filling (GraphFrames: every vertex gets a count) is a distributed
  union of counts with (vid, 0) rows from the degree spill + the user
  vertex table, reduced by one vertex-sized keyed sum — the result is a
  streaming ``Dataset``, never a driver table.

Packed keys: compact index pairs ``idx_b · nv + idx_c`` fit int64 while
nv < 3·10⁹; beyond that envelope switch the probe to a (b, c) two-column
merge join per bucket (SURVEY.md G5 scale note).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data import Dataset

from graphx_ray.context import ensure_hash_shuffle
from graphx_ray.ids import part_of
from graphx_ray.stages.derive import canonical_edges, grouped_reduce
from graphx_ray.state.spill import Spill, per_part, spill

_EMPTY_TRI = pa.table(
    {"vid": pa.array([], type=pa.int64()), "cnt": pa.array([], type=pa.int64())}
)

WEDGE_CHUNK = 20_000_000
# wedge-index slice per task: dense graphs (10¹⁰⁺ wedges) get hundreds of
# even tasks instead of one straggler per hash partition
TASK_WEDGES = 100_000_000


@ray.remote
def _load_deg_part(part_dir: str | None):
    """One degree partition as (sorted vids, aligned degrees) numpy arrays
    in the object store — the driver keeps only the ObjectRef."""
    if part_dir is None:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t = pq.read_table(part_dir, columns=["vid", "d"])
    vids = t["vid"].to_numpy()
    d = t["d"].to_numpy()
    order = np.argsort(vids)
    return vids[order].copy(), d[order].astype(np.int64)


class _DegParts:
    """Partitioned degree lookup over object-store parts: vid → (global
    part-rank index, degree), vectorized per part."""

    def __init__(self, refs: list, sizes: list[int], DP: int):
        self.refs = refs
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.DP = DP
        self._parts = None

    def parts(self):
        if self._parts is None:
            self._parts = ray.get(self.refs)  # zero-copy shared-memory views
        return self._parts

    def lookup(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        parts = self.parts()
        p = part_of(q, self.DP)
        idx = np.empty(len(q), np.int64)
        dg = np.empty(len(q), np.int64)
        for j in range(self.DP):
            m = p == j
            if not m.any():
                continue
            pv, pdg = parts[j]
            loc = np.searchsorted(pv, q[m])
            idx[m] = self.offsets[j] + loc
            dg[m] = pdg[loc]
        return idx, dg


def _degree_parts(canon: Dataset, DP: int) -> tuple["_DegParts", int, Spill]:
    """Distributed canonical degrees → DP object-store parts. Driver state:
    DP ObjectRefs + DP sizes (ints)."""

    def partial(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uniq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uniq, type=pa.int64()), "d": pa.array(cnt, type=pa.int64())}
        )

    # storage-backed reduce, NOT Ray's in-memory hash-aggregate (~10 s fixed
    # aggregator-actor setup per use — BASELINE.md round-2 note)
    deg = grouped_reduce(
        canon.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"],
        sum_col="d",
        num_partitions=8,
    )

    degs = spill(deg, lambda b: (b, part_of(b["vid"].to_numpy(), DP)), DP)
    refs = [_load_deg_part.remote(degs.path(j)) for j in range(DP)]
    sizes = ray.get([_part_size.remote(r) for r in refs])
    return _DegParts(refs, sizes, DP), int(sum(sizes)), degs


@ray.remote
def _part_size(part) -> int:
    return len(part[0])


@ray.remote
def _build_bucket(bucket_dir: str | None) -> np.ndarray:
    """Sorted packed (idx_b·nv + idx_c) keys of one probe bucket — returned
    into the object store; the driver keeps only the ObjectRef."""
    if bucket_dir is None:
        return np.empty(0, np.int64)
    t = pq.read_table(bucket_dir, columns=["pack"])
    pk = t["pack"].to_numpy().copy()
    pk.sort()
    return pk


def triangle_count(edges, vertices=None, *, num_parts: int = 16) -> Dataset:
    """Per-vertex triangle counts as a streaming Dataset (vid, count) —
    every vertex of the graph (plus ``vertices``, if given) appears,
    zero-count vertices included (GraphFrames contract)."""
    from graphx_ray.pipelines.graph import _as_dataset

    edges = _as_dataset(edges)
    ensure_hash_shuffle(edges)
    canon = canonical_edges(edges)

    DP = max(2, num_parts)
    degp, nv, degs = _degree_parts(canon, DP)
    if nv >= 3_000_000_000:
        raise NotImplementedError(
            "packed int64 probe keys require nv < 3e9; use the two-column "
            "merge-join probe variant (SURVEY.md G5)"
        )
    counts = (
        _oriented_counts(canon, degp, nv, B=DP) if nv else rd.from_arrow(_EMPTY_TRI)
    )
    return _with_zeros(counts, vertices, degs)


def _oriented_counts(canon: Dataset, degp: _DegParts, nv: int, B: int) -> Dataset:
    """(vid, cnt) of triangle members only — the wedge-probe core."""

    # orientation + ONE spill: bucket idx(a) % B is a pure function of
    # the source vertex, so the same partitioning serves BOTH the probe
    # index build (pack column of bucket i) AND wedge enumeration (all of
    # a's out-edges are co-resident in a's bucket) — one pass over canon,
    # one write, no duplicate execution of the canonical dedup.
    def orient(batch: pa.Table):
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        iu, du = degp.lookup(u)
        iv, dw = degp.lookup(v)
        u_first = (du < dw) | ((du == dw) & (u < v))
        ea = np.where(u_first, u, v)
        eb = np.where(u_first, v, u)
        ia = np.where(u_first, iu, iv)
        ib = np.where(u_first, iv, iu)
        return pa.table(
            {
                "a": pa.array(ea, type=pa.int64()),
                "b": pa.array(eb, type=pa.int64()),
                "bi": pa.array(ib, type=pa.int64()),
                "bd": pa.array(np.where(u_first, dw, du), type=pa.int64()),
                "pack": pa.array(ia * nv + ib, type=pa.int64()),
            }
        ), ia % B

    oriented = spill(canon, orient, B)
    bucket_refs = [_build_bucket.remote(oriented.path(i)) for i in range(B)]

    def _load_sorted(d: str):
        """Partition edges grouped by a (orientation-ordered within a) +
        the per-position wedge counts. Degree + index of b are read from
        the spill's own columns — no degree broadcast needed here."""
        t = pq.read_table(d, columns=["a", "b", "bi", "bd"])
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        if len(a) == 0:
            return None
        b_idx = t["bi"].to_numpy()
        db = t["bd"].to_numpy()
        order = np.lexsort((b, db, a))
        a, b, b_idx = a[order], b[order], b_idx[order]
        new = np.empty(len(a), bool)
        new[0] = True
        np.not_equal(a[1:], a[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(a)))
        run_end = np.repeat(starts + lens, lens)
        per = run_end - np.arange(len(a)) - 1
        return a, b, b_idx, per

    @ray.remote
    def _wedge_total(d: str) -> int:
        """Cheap pre-pass: Σ c·(c−1)/2 over this partition's source runs —
        used to slice the wedge work into even tasks."""
        c = np.unique(pq.read_table(d, columns=["a"])["a"].to_numpy(), return_counts=True)[1]
        return int((c * (c - 1) // 2).sum())

    def wedge_task(batch: pa.Table) -> pa.Table:
        """One wedge-index slice [lo, hi) of one partition (element
        granularity: a position belongs to the task owning its first wedge).
        Positions are grouped by probe bucket — every wedge of position p
        probes bucket b_idx[p] % B, so grouping once replaces the former
        per-wedge argsort — and each bucket's sorted pack array is fetched
        zero-copy ONCE per task."""
        d = batch["dir"][0].as_py()
        lo = int(batch["lo"][0].as_py())
        hi = int(batch["hi"][0].as_py())
        loaded = _load_sorted(d)
        if loaded is None:
            return _EMPTY_TRI
        a, b, b_idx, per = loaded
        cum = np.cumsum(per)
        wstart = cum - per
        sel_all = np.flatnonzero((wstart >= lo) & (wstart < hi) & (per > 0))
        if len(sel_all) == 0:
            return _EMPTY_TRI
        pb = (b_idx[sel_all] % B).astype(np.int64)
        # fetch ONLY the probe buckets this slice actually touches — on a
        # multi-node cluster fetching all B buckets would replicate the
        # whole O(E) oriented index on every node (VERDICT r3 #3); a slice
        # usually touches a handful, and the fetch is still zero-copy
        needed = np.unique(pb)
        fetched = ray.get([bucket_refs[int(bid)] for bid in needed])
        acc_ids: list[np.ndarray] = []
        acc_cnt: list[np.ndarray] = []
        for bid, packs in zip(needed, fetched):
            sel = sel_all[pb == bid]
            if len(sel) == 0 or len(packs) == 0:
                continue
            per_s = per[sel]
            cums = np.cumsum(per_s)
            cuts = np.searchsorted(cums, np.arange(WEDGE_CHUNK, int(cums[-1]) + WEDGE_CHUNK, WEDGE_CHUNK))
            cuts = np.unique(np.append(cuts, len(sel) - 1))
            s = 0
            for cut in cuts:
                e = int(cut) + 1
                pos = sel[s:e]
                pc = per_s[s:e]
                tot = int(pc.sum())
                if tot:
                    ii = np.repeat(pos, pc)
                    offs = np.cumsum(pc) - pc
                    jj = ii + 1 + (np.arange(tot) - np.repeat(offs, pc))
                    qk = b_idx[ii] * nv + b_idx[jj]
                    p = np.searchsorted(packs, qk)
                    hit = (p < len(packs)) & (packs[np.minimum(p, len(packs) - 1)] == qk)
                    ids = np.concatenate([a[ii][hit], b[ii][hit], b[jj][hit]])
                    if len(ids):
                        u, c = np.unique(ids, return_counts=True)
                        acc_ids.append(u)
                        acc_cnt.append(c.astype(np.int64))
                s = e
        if not acc_ids:
            return _EMPTY_TRI
        allu = np.concatenate(acc_ids)
        allc = np.concatenate(acc_cnt)
        uniq, inv = np.unique(allu, return_inverse=True)
        c = np.bincount(inv, weights=allc).astype(np.int64)
        return pa.table({"vid": pa.array(uniq, type=pa.int64()), "cnt": pa.array(c)})

    dirs = [oriented.path(p) for p in oriented.parts]
    totals = ray.get([_wedge_total.remote(d) for d in dirs])
    items = []
    for d, tot in zip(dirs, totals):
        for lo in range(0, max(tot, 1), TASK_WEDGES):
            items.append({"dir": d, "lo": lo, "hi": lo + TASK_WEDGES})
    return rd.from_items(items).map_batches(
        wedge_task, batch_size=1, batch_format="pyarrow"
    )


def _with_zeros(counts: Dataset, vertices, degs: Spill) -> Dataset:
    """GraphFrames returns a count for EVERY vertex (0 included) — realized
    as a distributed union of (vid, cnt) partials with (vid, 0) rows from
    the degree spill (every edge endpoint) and the user vertex table
    (duplicates fine: they add 0), reduced by one vertex-sized keyed sum."""
    from graphx_ray.pipelines.graph import _as_dataset

    srcs = [counts]
    if degs.parts:
        srcs.append(per_part(_zero_rows, degs, empty=_EMPTY_TRI))
    if vertices is not None:
        vds = _as_dataset(vertices).select_columns(["vid"])
        srcs.append(
            vds.map_batches(_zero_rows, batch_format="pyarrow", zero_copy_batch=True)
        )
    allrows = srcs[0] if len(srcs) == 1 else srcs[0].union(*srcs[1:])
    out = grouped_reduce(
        allrows, ["vid"], sum_col="cnt", num_partitions=8,
        empty_schema=pa.schema([pa.field("vid", pa.int64()), pa.field("cnt", pa.int64())]),
    )

    def ren(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"vid": batch["vid"], "count": batch["cnt"].cast(pa.int64())}
        )

    return out.map_batches(ren, batch_format="pyarrow", zero_copy_batch=True)


def _zero_rows(batch: pa.Table) -> pa.Table:
    vid = batch["vid"].cast(pa.int64())
    return pa.table(
        {"vid": vid, "cnt": pa.array(np.zeros(batch.num_rows, np.int64))}
    )


def triangle_count_approx(
    edges, vertices=None, *, p_inv: int = 4, seed: int = 13, num_parts: int = 16
) -> Dataset:
    """DOULION-style approximate triangle counting (Tsourakakis et al.
    2009): keep each canonical edge independently with probability
    1/p_inv, count triangles EXACTLY on the sample, scale counts by
    p_inv³. With the published analysis the estimator is unbiased and
    the wedge work drops by ~p_inv³.

    Determinism/verifiability (this engine's additions to the published
    scheme): the edge sample is a splitmix64 THRESHOLD compare over the
    canonical pair hash — parallelism-invariant, resume-stable, and
    SQL-replayable — and the scale factor p_inv³ is an exact integer, so
    the returned (vid, count) estimates are integers a DuckDB oracle
    reproduces bit-for-bit."""
    from graphx_ray.ids import mix64
    from graphx_ray.pipelines.graph import _as_dataset

    edges = _as_dataset(edges)
    salt = mix64(np.uint64(seed))
    threshold = np.uint64((1 << 64) // p_inv)

    def sample(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy().astype(np.uint64)
        dst = batch["dst"].to_numpy().astype(np.uint64)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        h = mix64(mix64(lo ^ salt) ^ hi)
        return batch.filter(pa.array(h < threshold))

    sampled = edges.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)

    # zero-fill universe = the PRE-sample graph's endpoints (ADVICE r3): a
    # vertex whose every incident edge is dropped by the sample must still
    # appear with count 0. Per-batch unique keeps the union stream small;
    # the vertex-sized keyed reduce in _with_zeros absorbs duplicates.
    def endpoints(batch: pa.Table) -> pa.Table:
        vid = np.unique(
            np.concatenate([batch["src"].to_numpy(), batch["dst"].to_numpy()])
        )
        return pa.table({"vid": pa.array(vid, type=pa.int64())})

    universe = edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
    if vertices is not None:
        universe = universe.union(_as_dataset(vertices).select_columns(["vid"]))
    est = triangle_count(sampled, vertices=universe, num_parts=num_parts)
    scale = p_inv ** 3

    def scale_counts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"vid": batch["vid"],
             "count": pa.array(batch["count"].to_numpy() * scale, type=pa.int64())}
        )

    return est.map_batches(scale_counts, batch_format="pyarrow", zero_copy_batch=True)


def clustering_stats(edges, vertices=None, *, num_parts: int = 16) -> Dataset:
    """Per-vertex local-clustering sufficient statistics, EXACT integers:
    (vid, tri, wedges) with tri = triangles through the vertex
    (``triangle_count``) and wedges = d·(d−1)/2 over the SIMPLE-graph
    degree — the caller divides (coefficient = tri / wedges) so no float
    leaves the engine. Degrees ride one keyed storage reduce; the join of
    the two V-sized tables is a bucketed storage join."""
    import pyarrow as pa

    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.stages.derive import canonical_edges, grouped_reduce
    from graphx_ray.stages.motif import bucket_join

    edges = _as_dataset(edges)
    tri = triangle_count(edges, vertices=vertices, num_parts=num_parts)

    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table({"vid": pa.array(uq), "d": pa.array(cnt.astype(np.int64))})

    deg = grouped_reduce(
        canonical_edges(edges).map_batches(
            dpart, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["vid"], sum_col="d", num_partitions=num_parts,
    )
    joined = bucket_join(tri, deg, on="vid", how="left", num_partitions=num_parts)

    def fin(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_pandas().fillna(0).to_numpy(np.int64)
        return pa.table({
            "vid": batch["vid"],
            "tri": pa.array(batch["count"].to_numpy().astype(np.int64)),
            "wedges": pa.array(d * (d - 1) // 2),
        })

    return joined.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)
