"""SVD++ (GraphX ``SVDPlusPlus`` parity — Koren, KDD'08 "Factorization
Meets the Neighborhood") as a bipartite factor-model actor pool.

Semantics follow the published GraphX implementation exactly (same batch
per-iteration gradient aggregation, same clamp / bias / implicit-feedback
formulas, same quirky final state: ``usr2`` keeps the last iteration's
``+Σ updateY`` and items' 4th slot becomes the summed squared error), with
ONE pinned deviation: GraphX initializes factors from an unseeded RNG; we
use a deterministic splitmix64 stream per (vid, slot, dim) so results are
reproducible and testable (documented here and in the pytest oracle).

Distribution: edges (user → item, rating) hash-partition by USER; each of
P actors owns a user slice (with all their edges, CSR-grouped by item
partition) and an item slice (factors q, y, bias). Per iteration:

1. item owners pack (q, y, b_i) ghost rows per requesting user shard —
   one object per owner, refs routed by the driver (the packed-message
   pattern: no per-row ray.put);
2. user shards run phase 1 (Σ y over each user's items → usr2) and
   phase 2 (per-edge error, vectorized einsum) locally, apply user-side
   updates, and return per-item-partition partial gradients, reduceat-
   combined per unique item BEFORE they travel;
3. item owners gather partials in fixed sender order (deterministic
   float sums) and apply.

Nothing graph-sized touches the driver; output is written as partitioned
parquet and handed back as a lazy Dataset.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from graphx_ray.ids import mix64, part_of
from graphx_ray.state.csr import dst_segments

if TYPE_CHECKING:
    # shard hosts import this module for its shard classes: keep Ray Data
    # out of their processes
    from ray.data import Dataset


def u01(vids: np.ndarray, stream: int, col: int, seed: int) -> np.ndarray:
    """Deterministic uniform [0,1) per (vid, stream, col) — the pinned
    replacement for GraphX's unseeded ``Random.nextDouble`` init."""
    salt = mix64(np.uint64((seed * 1_000_003 + stream * 97 + col) & 0xFFFFFFFFFFFFFFFF))
    h = mix64(np.asarray(vids).astype(np.uint64) ^ salt)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def init_factors(vids: np.ndarray, rank: int, stream: int, seed: int) -> np.ndarray:
    """(len(vids), rank) deterministic init matrix."""
    if len(vids) == 0:
        return np.zeros((0, rank), np.float64)
    return np.stack([u01(vids, stream, j, seed) for j in range(rank)], axis=1)


class _SvdppShard:
    """One partition: user slice + its edges (CSR by item part) + item slice."""

    def __init__(self, part: int, num_parts: int, edge_dir: str, rank: int,
                 seed: int, g1: float, g2: float, g6: float, g7: float,
                 min_val: float, max_val: float):
        self.part, self.P, self.f = part, num_parts, rank
        self.seed = seed
        self.g1, self.g2, self.g6, self.g7 = g1, g2, g6, g7
        self.lo, self.hi = min_val, max_val

        edir = os.path.join(edge_dir, f"src_part={part}")
        if os.path.isdir(edir):
            et = pq.read_table(edir, columns=["src", "dst", "r"])
            src = et["src"].to_numpy()
            dst = et["dst"].to_numpy()
            r = et["r"].to_numpy().astype(np.float64)
        else:
            src = dst = np.empty(0, np.int64)
            r = np.empty(0, np.float64)
        dst_part = part_of(dst, self.P)
        # rating joins the sort key: duplicate (u, i) edges land in a fixed
        # order regardless of parquet block order → bit-stable reduceat sums
        order = np.lexsort((r, src, dst, dst_part))
        self.src, self.dst, self.r = src[order], dst[order], r[order]
        self.m = len(self.src)

        self.users = np.unique(self.src)
        self.nu = len(self.users)
        self.src_local = np.searchsorted(self.users, self.src)

        self.seg, self.run_starts, self.uniq_dst, self.edge_uniq_idx = dst_segments(
            dst_part[order], self.dst, self.P
        )

        # user-side degree / rating stats (counts — GraphX norm uses deg)
        self.deg_u = np.bincount(self.src_local, minlength=self.nu).astype(np.float64)
        self.rsum_u = np.zeros(self.nu)
        np.add.at(self.rsum_u, self.src_local, self.r)

        # item side filled by the handshake
        self.items: np.ndarray | None = None
        self.req_locs: list[np.ndarray] = []

    # ------------------------------------------------------------ handshake

    def uniq_dsts(self) -> list:
        return self.uniq_dst

    def register_requests(self, sender_refs: list, j: int) -> int:
        reqs = [lists[j] for lists in ray.get(list(sender_refs))]
        self.items = np.unique(np.concatenate(reqs)) if reqs else np.empty(0, np.int64)
        self.ni = len(self.items)
        self.req_locs = [np.searchsorted(self.items, u) for u in reqs]
        return self.ni

    def degree_partials(self) -> list:
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            rs = self.run_starts[j]
            if e == s:
                out.append((np.empty(0, np.int64), np.empty(0)))
                continue
            bounds = np.concatenate([rs, [e - s]])
            out.append((np.diff(bounds).astype(np.int64), np.add.reduceat(self.r[s:e], rs)))
        return out

    def local_rating_stats(self) -> tuple[float, int]:
        return float(self.r.sum()), int(self.m)

    def init_state(self, sender_refs: list, j: int, mu: float) -> None:
        self.mu = mu
        self.deg_i = np.zeros(self.ni)
        rsum_i = np.zeros(self.ni)
        for i, parts in enumerate(ray.get(list(sender_refs))):
            cnt, rsum = parts[j]
            if len(cnt):
                self.deg_i[self.req_locs[i]] += cnt
                rsum_i[self.req_locs[i]] += rsum
        # GraphX init: bias = vertex mean rating − μ; norm = 1/sqrt(deg)
        self.bu = self.rsum_u / np.maximum(self.deg_u, 1.0) - mu
        self.norm_u = 1.0 / np.sqrt(np.maximum(self.deg_u, 1.0))
        self.bi = rsum_i / np.maximum(self.deg_i, 1.0) - mu
        self.pm = init_factors(self.users, self.f, 0, self.seed)
        self.usr2 = init_factors(self.users, self.f, 1, self.seed)
        self.qm = init_factors(self.items, self.f, 0, self.seed)
        self.ym = init_factors(self.items, self.f, 1, self.seed)
        self.err2_i = np.zeros(self.ni)

    # ------------------------------------------------------------ iteration

    def pack_ghosts(self) -> list:
        return [(self.qm[loc], self.ym[loc], self.bi[loc]) for loc in self.req_locs]

    def _edge_item_arrays(self, ghost_refs: list, myidx: int):
        resolved = ray.get(list(ghost_refs))
        qe = np.empty((self.m, self.f))
        ye = np.empty((self.m, self.f))
        bie = np.empty(self.m)
        for j in range(self.P):
            s, e = self.seg[j]
            if e == s:
                continue
            qg, yg, bg = resolved[j][myidx]
            idx = self.edge_uniq_idx[s:e]
            qe[s:e] = qg[idx]
            ye[s:e] = yg[idx]
            bie[s:e] = bg[idx]
        return qe, ye, bie

    def superstep(self, ghost_refs: list, myidx: int) -> list:
        qe, ye, bie = self._edge_item_arrays(ghost_refs, myidx)
        f, g1, g2, g6, g7 = self.f, self.g1, self.g2, self.g6, self.g7
        # phase 1: usr2 = p + norm · Σ_{i∈N(u)} y_i
        sumy = np.zeros((self.nu, f))
        np.add.at(sumy, self.src_local, ye)
        self.usr2 = self.pm + self.norm_u[:, None] * sumy
        # phase 2 (all updates from iteration-start values)
        u2e = self.usr2[self.src_local]
        pred = self.mu + self.bu[self.src_local] + bie + np.einsum("ij,ij->i", qe, u2e)
        np.clip(pred, self.lo, self.hi, out=pred)
        err = self.r - pred
        eg2 = (err * g2)[:, None]
        upP = qe * eg2 - self.pm[self.src_local] * (g7 * g2)
        upY = qe * (err * self.norm_u[self.src_local] * g2)[:, None] - ye * (g7 * g2)
        upQ = u2e * eg2 - qe * (g7 * g2)
        dbu_e = (err - g6 * self.bu[self.src_local]) * g1
        dbi_e = (err - g6 * bie) * g1
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            rs = self.run_starts[j]
            if e == s:
                out.append((np.zeros((0, f)), np.zeros((0, f)), np.empty(0)))
                continue
            out.append((
                np.add.reduceat(upQ[s:e], rs, axis=0),
                np.add.reduceat(upY[s:e], rs, axis=0),
                np.add.reduceat(dbi_e[s:e], rs),
            ))
        # user-side apply (GraphX: _1 += ΣupdateP, _2 += ΣupdateY, _3 += Σbias)
        dP = np.zeros((self.nu, f))
        np.add.at(dP, self.src_local, upP)
        dY = np.zeros((self.nu, f))
        np.add.at(dY, self.src_local, upY)
        dbu = np.zeros(self.nu)
        np.add.at(dbu, self.src_local, dbu_e)
        self.pm += dP
        self.usr2 += dY
        self.bu += dbu
        return out

    def apply_item_partials(self, partial_refs: list, j: int) -> None:
        for i, parts in enumerate(ray.get(list(partial_refs))):
            uq, uy, ub = parts[j]
            if len(ub):
                loc = self.req_locs[i]
                self.qm[loc] += uq
                self.ym[loc] += uy
                self.bi[loc] += ub

    # ------------------------------------------------------------ finish

    def test_partials(self, ghost_refs: list, myidx: int) -> tuple[list, float]:
        """Final pass (GraphX t3): per-item Σ (r − pred)² with the final
        model; usr2 is used AS STORED (post-update) — pinned quirk."""
        qe, _ye, bie = self._edge_item_arrays(ghost_refs, myidx)
        pred = self.mu + self.bu[self.src_local] + bie + np.einsum(
            "ij,ij->i", qe, self.usr2[self.src_local]
        )
        np.clip(pred, self.lo, self.hi, out=pred)
        err2 = (self.r - pred) ** 2
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            rs = self.run_starts[j]
            out.append(np.add.reduceat(err2[s:e], rs) if e > s else np.empty(0))
        return out, float(err2.sum())

    def apply_err2(self, partial_refs: list, j: int) -> None:
        for i, parts in enumerate(ray.get(list(partial_refs))):
            e2 = parts[0][j]
            if len(e2):
                self.err2_i[self.req_locs[i]] += e2

    def write_output(self, outdir: str) -> int:
        def lists(m: np.ndarray) -> pa.Array:
            return pa.array(list(m), type=pa.list_(pa.float64()))

        ut = pa.table({
            "vid": pa.array(self.users, type=pa.int64()),
            # explicit type: an empty shard's [] would infer null and
            # break the concat schema (seen at sf0.001)
            "kind": pa.array(["user"] * self.nu, type=pa.string()),
            "f1": lists(self.pm), "f2": lists(self.usr2),
            "bias": pa.array(self.bu), "v4": pa.array(self.norm_u),
        })
        it = pa.table({
            "vid": pa.array(self.items, type=pa.int64()),
            "kind": pa.array(["item"] * self.ni, type=pa.string()),
            "f1": lists(self.qm), "f2": lists(self.ym),
            "bias": pa.array(self.bi), "v4": pa.array(self.err2_i),
        })
        t = pa.concat_tables([ut, it])
        pq.write_table(t, os.path.join(outdir, f"part-{self.part}.parquet"))
        return t.num_rows


def _load_ratings(edges, num_parts, workdir, prefix: str, shard_cls, *args):
    """Stage a ratings edge table hash-partitioned by user and load one
    ``shard_cls(part, P, edge_dir, *args)`` per part onto recycled shard
    hosts. Returns (P, workdir, hosts, view handles); the caller parks
    the hosts when done."""
    from graphx_ray.context import ensure_hash_shuffle, register_spill
    from graphx_ray.pipelines.graph import _as_dataset, _default_parts, _load_hosts, _View

    edges = _as_dataset(edges)
    ensure_hash_shuffle(edges)
    P = num_parts or _default_parts()
    wd = workdir or register_spill(tempfile.mkdtemp(prefix=prefix, dir="/tmp"))
    edge_dir = os.path.join(wd, "edges")

    def tag(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        rcol = "r" if "r" in batch.column_names else "w"
        return pa.table({
            "src": pa.array(src, type=pa.int64()),
            "dst": batch["dst"].cast(pa.int64()),
            "r": batch[rcol].cast(pa.float64()),
            "src_part": pa.array(part_of(src, P), type=pa.int32()),
        })

    shutil.rmtree(edge_dir, ignore_errors=True)
    edges.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        edge_dir, partition_cols=["src_part"]
    )
    hosts = _load_hosts(P, "svdpp", shard_cls, P, edge_dir, *args)
    return P, wd, hosts, [_View(h, "svdpp") for h in hosts]


def svdpp(
    edges,
    *,
    rank: int = 8,
    max_iters: int = 5,
    min_val: float = 0.0,
    max_val: float = 5.0,
    gamma1: float = 0.007,
    gamma2: float = 0.007,
    gamma6: float = 0.005,
    gamma7: float = 0.015,
    num_parts: int | None = None,
    seed: int = 42,
    workdir: str | None = None,
) -> tuple[Dataset, float, dict]:
    """GraphX-parity SVD++ over a ratings edge table (src=user, dst=item,
    r=rating; user and item id spaces must be disjoint). Returns
    (vertex Dataset [vid, kind, f1, f2, bias, v4], μ, stats). Users carry
    (p, usr2, b_u, norm); items carry (q, y, b_i, Σ train err²) — the
    exact GraphX return shape."""
    import ray.data as rd

    from graphx_ray.pipelines.graph import _park_hosts

    P, wd, hosts, actors = _load_ratings(
        edges, num_parts, workdir, "graphx_svdpp_", _SvdppShard, rank, seed,
        gamma1, gamma2, gamma6, gamma7, min_val, max_val,
    )
    try:
        ufuts = [a.uniq_dsts.remote() for a in actors]
        ray.get([actors[j].register_requests.remote(ufuts, j) for j in range(P)])
        stats_f = [a.local_rating_stats.remote() for a in actors]
        tot = ray.get(stats_f)
        n_edges = sum(c for _s, c in tot)
        if n_edges == 0:
            raise ValueError("svdpp: empty edge set")
        mu = sum(s for s, _c in tot) / n_edges
        dfuts = [a.degree_partials.remote() for a in actors]
        ray.get([actors[j].init_state.remote(dfuts, j, mu) for j in range(P)])

        for _it in range(max_iters):
            gfuts = [a.pack_ghosts.remote() for a in actors]
            pfuts = [actors[i].superstep.remote(gfuts, i) for i in range(P)]
            ray.get([actors[j].apply_item_partials.remote(pfuts, j) for j in range(P)])

        gfuts = [a.pack_ghosts.remote() for a in actors]
        tfuts = [actors[i].test_partials.remote(gfuts, i) for i in range(P)]
        sse = sum(s for _out, s in ray.get(tfuts))
        ray.get([actors[j].apply_err2.remote(tfuts, j) for j in range(P)])

        outdir = os.path.join(wd, "verts_out")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir, exist_ok=True)
        n_rows = sum(ray.get([a.write_output.remote(outdir) for a in actors]))
        stats = {
            "mu": mu, "n_edges": n_edges, "n_vertices": n_rows,
            "train_rmse": float(np.sqrt(sse / n_edges)),
        }
        return rd.read_parquet(outdir), mu, stats
    finally:
        _park_hosts(hosts)


# ------------------------------------------------- fixed-point variant
# (round-3 VERDICT item: the float variant's SQL unroll is hash-flaky —
# DuckDB's SUM order vs numpy's fixed reduceat order differ in float
# association, and clamp boundaries amplify ulps across iterations. ALL
# arithmetic below is int64 micro-units (S = 10^6) with PINNED floor
# division, so every sum is order-independent and the 2-iteration SQL
# unroll matches bit-for-bit. The only float ops are 1/sqrt(deg) and
# nothing else — IEEE sqrt/divide are correctly rounded, so
# floor(S/sqrt(deg)) is identical in numpy and DuckDB.)

_S = 1_000_000


def u01_e6(vids: np.ndarray, stream: int, col: int, seed: int) -> np.ndarray:
    """Deterministic micro-unit init in [0, S): mix64(vid ^ salt) mod S —
    the integer twin of ``u01`` (SQL replays the same splitmix chain)."""
    salt = mix64(np.uint64((seed * 1_000_003 + stream * 97 + col) & 0xFFFFFFFFFFFFFFFF))
    h = mix64(np.asarray(vids).astype(np.uint64) ^ salt)
    return (h % np.uint64(_S)).astype(np.int64)


class _SvdppFixedShard(_SvdppShard):
    """Integer-arithmetic twin of ``_SvdppShard`` (same CSR layout and
    message plumbing; every formula in micro-units with floor division)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.r_e6 = np.rint(self.r * _S).astype(np.int64)
        self.rsum_u_e6 = np.zeros(self.nu, np.int64)
        np.add.at(self.rsum_u_e6, self.src_local, self.r_e6)
        self.deg_u_i = np.bincount(self.src_local, minlength=self.nu).astype(np.int64)

    def degree_partials(self) -> list:
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            rs = self.run_starts[j]
            if e == s:
                out.append((np.empty(0, np.int64), np.empty(0, np.int64)))
                continue
            bounds = np.concatenate([rs, [e - s]])
            out.append(
                (np.diff(bounds).astype(np.int64), np.add.reduceat(self.r_e6[s:e], rs))
            )
        return out

    def local_rating_stats(self) -> tuple[int, int]:
        return int(self.r_e6.sum()), int(self.m)

    def init_state(self, sender_refs: list, j: int, mu_e6: int) -> None:
        self.mu_e6 = int(mu_e6)
        deg_i = np.zeros(self.ni, np.int64)
        rsum_i = np.zeros(self.ni, np.int64)
        for i, parts in enumerate(ray.get(list(sender_refs))):
            cnt, rsum = parts[j]
            if len(cnt):
                deg_i[self.req_locs[i]] += cnt
                rsum_i[self.req_locs[i]] += rsum
        self.bu = self.rsum_u_e6 // np.maximum(self.deg_u_i, 1) - self.mu_e6
        self.bi = rsum_i // np.maximum(deg_i, 1) - self.mu_e6
        # the single float op: floor(S/sqrt(deg)) — IEEE-identical in SQL
        self.norm_u = np.floor(_S / np.sqrt(np.maximum(self.deg_u_i, 1))).astype(np.int64)
        self.pm = np.stack(
            [u01_e6(self.users, 0, d, self.seed) for d in range(self.f)], axis=1
        ) if self.nu else np.zeros((0, self.f), np.int64)
        self.usr2 = np.stack(
            [u01_e6(self.users, 1, d, self.seed) for d in range(self.f)], axis=1
        ) if self.nu else np.zeros((0, self.f), np.int64)
        self.qm = np.stack(
            [u01_e6(self.items, 0, d, self.seed) for d in range(self.f)], axis=1
        ) if self.ni else np.zeros((0, self.f), np.int64)
        self.ym = np.stack(
            [u01_e6(self.items, 1, d, self.seed) for d in range(self.f)], axis=1
        ) if self.ni else np.zeros((0, self.f), np.int64)
        self.err2_i = np.zeros(self.ni, np.int64)
        self.lo_e6 = int(round(self.lo * _S))
        self.hi_e6 = int(round(self.hi * _S))
        # gammas in micro-units, g7·g2 pre-folded (pinned)
        self.g1_e6 = int(round(self.g1 * _S))
        self.g2_e6 = int(round(self.g2 * _S))
        self.g6_e6 = int(round(self.g6 * _S))
        self.g72_e6 = (int(round(self.g7 * _S)) * self.g2_e6) // _S

    def _edge_item_arrays(self, ghost_refs: list, myidx: int):
        """int64 twin of the parent's per-edge ghost expansion."""
        resolved = ray.get(list(ghost_refs))
        qe = np.empty((self.m, self.f), np.int64)
        ye = np.empty((self.m, self.f), np.int64)
        bie = np.empty(self.m, np.int64)
        for j in range(self.P):
            s, e = self.seg[j]
            if e == s:
                continue
            qg, yg, bg = resolved[j][myidx]
            idx = self.edge_uniq_idx[s:e]
            qe[s:e] = qg[idx]
            ye[s:e] = yg[idx]
            bie[s:e] = bg[idx]
        return qe, ye, bie

    def superstep(self, ghost_refs: list, myidx: int) -> list:
        qe, ye, bie = self._edge_item_arrays(ghost_refs, myidx)
        f = self.f
        sumy = np.zeros((self.nu, f), np.int64)
        np.add.at(sumy, self.src_local, ye)
        self.usr2 = self.pm + (self.norm_u[:, None] * sumy) // _S
        u2e = self.usr2[self.src_local]
        dot = np.einsum("ij,ij->i", qe, u2e) // _S
        pred = self.mu_e6 + self.bu[self.src_local] + bie + dot
        np.clip(pred, self.lo_e6, self.hi_e6, out=pred)
        err = self.r_e6 - pred
        eg2 = (err * self.g2_e6) // _S
        en = (err * self.norm_u[self.src_local]) // _S
        eng2 = (en * self.g2_e6) // _S
        upP = (qe * eg2[:, None]) // _S - (self.pm[self.src_local] * self.g72_e6) // _S
        upY = (qe * eng2[:, None]) // _S - (ye * self.g72_e6) // _S
        upQ = (u2e * eg2[:, None]) // _S - (qe * self.g72_e6) // _S
        dbu_e = ((err - (self.g6_e6 * self.bu[self.src_local]) // _S) * self.g1_e6) // _S
        dbi_e = ((err - (self.g6_e6 * bie) // _S) * self.g1_e6) // _S
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            rs = self.run_starts[j]
            if e == s:
                out.append((np.zeros((0, f), np.int64), np.zeros((0, f), np.int64),
                            np.empty(0, np.int64)))
                continue
            out.append((
                np.add.reduceat(upQ[s:e], rs, axis=0),
                np.add.reduceat(upY[s:e], rs, axis=0),
                np.add.reduceat(dbi_e[s:e], rs),
            ))
        dP = np.zeros((self.nu, f), np.int64)
        np.add.at(dP, self.src_local, upP)
        dY = np.zeros((self.nu, f), np.int64)
        np.add.at(dY, self.src_local, upY)
        dbu = np.zeros(self.nu, np.int64)
        np.add.at(dbu, self.src_local, dbu_e)
        self.pm = self.pm + dP
        self.usr2 = self.usr2 + dY
        self.bu = self.bu + dbu
        return out

    def test_partials(self, ghost_refs: list, myidx: int) -> tuple[list, int]:
        qe, _ye, bie = self._edge_item_arrays(ghost_refs, myidx)
        dot = np.einsum("ij,ij->i", qe, self.usr2[self.src_local]) // _S
        pred = self.mu_e6 + self.bu[self.src_local] + bie + dot
        np.clip(pred, self.lo_e6, self.hi_e6, out=pred)
        err = self.r_e6 - pred
        err2 = (err * err) // _S
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            rs = self.run_starts[j]
            out.append(np.add.reduceat(err2[s:e], rs) if e > s else np.empty(0, np.int64))
        return out, int(err2.sum())

    def write_output(self, outdir: str) -> int:
        cols_u: dict = {
            "vid": pa.array(self.users, type=pa.int64()),
            "kind": pa.array(["user"] * self.nu, type=pa.string()),
            "bias_e6": pa.array(self.bu, type=pa.int64()),
        }
        cols_i: dict = {
            "vid": pa.array(self.items, type=pa.int64()),
            "kind": pa.array(["item"] * self.ni, type=pa.string()),
            "bias_e6": pa.array(self.bi, type=pa.int64()),
        }
        for d in range(self.f):
            cols_u[f"f{d}_e6"] = pa.array(self.pm[:, d], type=pa.int64())
            cols_i[f"f{d}_e6"] = pa.array(self.qm[:, d], type=pa.int64())
        t = pa.concat_tables([pa.table(cols_u), pa.table(cols_i)])
        pq.write_table(t, os.path.join(outdir, f"part-{self.part}.parquet"))
        return t.num_rows


def svdpp_fixed(
    edges,
    *,
    rank: int = 4,
    max_iters: int = 2,
    min_val: float = 0.0,
    max_val: float = 5.0,
    gamma1: float = 0.007,
    gamma2: float = 0.007,
    gamma6: float = 0.005,
    gamma7: float = 0.015,
    num_parts: int | None = None,
    seed: int = 42,
    workdir: str | None = None,
) -> Dataset:
    """Fixed-point SVD++ (int64 micro-units, pinned floor division):
    bit-identical at ANY partitioning — integer sums are order-free — and
    therefore SQL-hash-verifiable, unlike the float GraphX-parity variant.
    Returns (vid, kind, bias_e6, f0_e6..f{rank-1}_e6)."""
    import ray.data as rd

    from graphx_ray.pipelines.graph import _park_hosts

    P, wd, hosts, actors = _load_ratings(
        edges, num_parts, workdir, "graphx_svdppf_", _SvdppFixedShard, rank, seed,
        gamma1, gamma2, gamma6, gamma7, min_val, max_val,
    )
    try:
        ufuts = [a.uniq_dsts.remote() for a in actors]
        ray.get([actors[j].register_requests.remote(ufuts, j) for j in range(P)])
        tot = ray.get([a.local_rating_stats.remote() for a in actors])
        n_edges = sum(c for _s, c in tot)
        if n_edges == 0:
            raise ValueError("svdpp_fixed: empty edge set")
        mu_e6 = sum(s for s, _c in tot) // n_edges  # pinned floor
        dfuts = [a.degree_partials.remote() for a in actors]
        ray.get([actors[j].init_state.remote(dfuts, j, mu_e6) for j in range(P)])
        for _it in range(max_iters):
            gfuts = [a.pack_ghosts.remote() for a in actors]
            pfuts = [actors[i].superstep.remote(gfuts, i) for i in range(P)]
            ray.get([actors[j].apply_item_partials.remote(pfuts, j) for j in range(P)])
        outdir = os.path.join(wd, "verts_out")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir, exist_ok=True)
        sum(ray.get([a.write_output.remote(outdir) for a in actors]))
        return rd.read_parquet(outdir)
    finally:
        _park_hosts(hosts)
