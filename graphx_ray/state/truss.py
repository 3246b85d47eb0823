"""Edge-partitioned truss-decomposition actor pool.

Run as Ray Data storage rounds, truss decomposition pays ~6 full spill
passes of the (3 rows per triangle) incidence table PER ROUND, and the
H-index fixpoint runs for tens of synchronous rounds on dense graphs (68
at the sf0.1 co-occurrence graph) — measured 563 s where the triangle
enumeration itself is ~6 s. This module is the coreness-engine answer
(`state/csr.py` hindex_*): the incidence table is hash-partitioned by
OWNING EDGE once, each shard pins its rows plus a one-time ghost index
for sibling edges owned elsewhere, and a round is one in-memory H-index
pass plus a packed ghost value exchange — the driver routes ONLY
ObjectRefs and changed counts, never an edge vector.

Staging:
- spill (eu, ev, s1u, s1v, s2u, s2v) rows (``state/spill.py``) by
  ``pair_gpart(eu, ev)`` (the repo's full-tuple splitmix hash);
- each shard sorts its rows by (eu, ev) (owned-edge runs), dedups the
  DISTINCT sibling keys it needs per owner shard, and registers them
  with the owner ONCE (`register_exports`) — the owner stores the local
  ids aligned to the requester's order;
- each row's two sibling slots become indices into ONE concatenated
  value layout [own values | ghosts from shard 0 | ghosts from 1 | ...],
  so a round is two vectorized gathers, a min, one lexsort and a
  reduceat — no per-row python.

Per round (`truss_fixpoint` driver loop):
- refs = [a.ghost_vals() for a in actors]  (packed per-requester lists)
- changed = Σ a.step(refs)                 (zero-copy plasma reads)
- stop when changed == 0 — the iteration is monotone non-increasing
  from the support start, so the pointwise fixpoint is exact.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from graphx_ray.ids import mix64

if TYPE_CHECKING:
    from graphx_ray.state.spill import Spill

_INIT = np.uint64(0x9E3779B97F4A7C15)


def pair_gpart(u: np.ndarray, v: np.ndarray, P: int) -> np.ndarray:
    """Owner shard of edge (u, v): the SAME full-tuple splitmix hash as
    ``spill.hash_parts`` over integer key columns (bit-compatible, so the
    staging spill and the actors agree)."""
    kv = mix64(np.full(len(u), _INIT, np.uint64) ^ u.astype(np.uint64))
    kv = mix64(kv ^ v.astype(np.uint64))
    return (kv % np.uint64(P)).astype(np.int32)


def _pair_lookup(ou: np.ndarray, ov: np.ndarray,
                 qu: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """Index of each query pair (qu, qv) inside the LEXSORTED owned pairs
    (ou, ov) — a vectorized two-column searchsorted via merge ranking.
    Every query MUST be present (asserted): a sibling edge of a triangle
    is itself a triangle edge, so its owner always holds it."""
    n, q = len(ou), len(qu)
    allu = np.concatenate([ou, qu])
    allv = np.concatenate([ov, qv])
    tag = np.concatenate([np.zeros(n, np.int8), np.ones(q, np.int8)])
    order = np.lexsort((tag, allv, allu))  # owned precede equal queries
    # rank among owned at each merged position
    owned_rank = np.cumsum(tag[order] == 0) - 1
    pos_in_merged = np.empty(n + q, np.int64)
    pos_in_merged[order] = np.arange(n + q)
    idx = owned_rank[pos_in_merged[n:]]
    if n == 0 or not (
        np.all(idx >= 0)
        and np.array_equal(ou[idx], qu)
        and np.array_equal(ov[idx], qv)
    ):
        missing = 0 if n else q
        raise AssertionError(
            f"sibling edge not found on its owner shard ({missing} owned)"
        )
    return idx


class TrussShard:
    """One edge partition of the truss H-index fixpoint, loaded onto a
    recycled shard host (``csr.ShardHost``) from its part of the
    incidence spill."""

    def __init__(self, part: int, P: int, tedge: Spill):
        self.part = part
        self.P = P
        part_dir = tedge.path(part)
        if part_dir is None:
            t = pa.schema(
                [(c, pa.int64()) for c in
                 ("eu", "ev", "s1u", "s1v", "s2u", "s2v")]
            ).empty_table()
        else:
            t = pq.read_table(
                part_dir, columns=["eu", "ev", "s1u", "s1v", "s2u", "s2v"]
            )
        eu = t["eu"].to_numpy()
        ev = t["ev"].to_numpy()
        s1u = t["s1u"].to_numpy()
        s1v = t["s1v"].to_numpy()
        s2u = t["s2u"].to_numpy()
        s2v = t["s2v"].to_numpy()
        order = np.lexsort((ev, eu))
        eu, ev = eu[order], ev[order]
        self.s1u, self.s1v = s1u[order], s1v[order]
        self.s2u, self.s2v = s2u[order], s2v[order]
        self.m = len(eu)
        new = np.ones(self.m, bool)
        new[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
        self.starts = np.flatnonzero(new)
        self.row_edge = np.cumsum(new) - 1  # local edge id per row
        self.own_u = eu[self.starts]
        self.own_v = ev[self.starts]
        self.n = len(self.starts)
        # t0 = support = rows per owned edge
        self.t = np.diff(np.append(self.starts, self.m)).astype(np.int64)
        # filled by the staging exchange:
        self.export_ids: list[np.ndarray] = [np.empty(0, np.int64)] * P
        self.sib1_idx: np.ndarray | None = None
        self.sib2_idx: np.ndarray | None = None
        self.ghost_lens: list[int] = [0] * P

    # ---------------------------------------------- one-time ghost exchange

    def ghost_requests(self) -> list:
        """Per-owner DISTINCT sibling keys this shard needs: element q is
        (qu, qv) arrays destined to shard q (self included — uniform
        layout keeps the index math branch-free)."""
        su = np.concatenate([self.s1u, self.s2u])
        sv = np.concatenate([self.s1v, self.s2v])
        owner = pair_gpart(su, sv, self.P)
        out = []
        for q in range(self.P):
            if q == self.part:
                # own siblings resolve locally — never through the ghost
                # layout (and must not occupy a block there)
                out.append((np.empty(0, np.int64), np.empty(0, np.int64)))
                continue
            m = owner == q
            qu, qv = su[m], sv[m]
            o = np.lexsort((qv, qu))
            qu, qv = qu[o], qv[o]
            keep = np.ones(len(qu), bool)
            keep[1:] = (qu[1:] != qu[:-1]) | (qv[1:] != qv[:-1])
            out.append((qu[keep], qv[keep]))
        return out

    def register_exports(self, requests: list) -> int:
        """``requests[r]`` = requester r's (qu, qv) arrays owned by THIS
        shard; store the aligned local ids so every round's
        ``ghost_vals`` is one fancy-index."""
        for r, (qu, qv) in enumerate(requests):
            self.export_ids[r] = (
                _pair_lookup(self.own_u, self.own_v, qu, qv)
                if len(qu)
                else np.empty(0, np.int64)
            )
        return self.n

    def build_sibling_index(self, my_requests: list) -> int:
        """Map every row's two sibling keys into the concatenated value
        layout [own t | ghosts from shard 0 | from 1 | ...] — ghosts from
        shard q arrive each round aligned to ``my_requests[q]``'s order,
        so the offsets are fixed for the whole run."""
        offs = np.zeros(self.P + 1, np.int64)
        offs[0] = self.n
        for q in range(self.P):
            # the self block is EMPTY in the per-round layout (own values
            # occupy [0, n)); its request list is empty by construction
            self.ghost_lens[q] = 0 if q == self.part else len(my_requests[q][0])
            offs[q + 1] = offs[q] + self.ghost_lens[q]

        def locate(su: np.ndarray, sv: np.ndarray) -> np.ndarray:
            owner = pair_gpart(su, sv, self.P)
            idx = np.empty(len(su), np.int64)
            for q in range(self.P):
                m = owner == q
                if not m.any():
                    continue
                qu, qv = my_requests[q]
                if q == self.part:
                    idx[m] = _pair_lookup(self.own_u, self.own_v, su[m], sv[m])
                else:
                    idx[m] = offs[q] + _pair_lookup(qu, qv, su[m], sv[m])
            return idx

        self.sib1_idx = locate(self.s1u, self.s1v)
        self.sib2_idx = locate(self.s2u, self.s2v)
        return self.m

    # ------------------------------------------------------------- rounds

    def ghost_vals(self) -> list:
        """Per-requester packed t values (element r aligned to requester
        r's registered key order) — the coreness pull mirror."""
        return [self.t[ids] for ids in self.export_ids]

    def step(self, owner_refs: list, local_sweeps: int = 1) -> int:
        """One global round = up to ``local_sweeps`` Gauss–Seidel H-index
        sweeps over the owned edges against ONE ghost snapshot: the async
        H-index iteration converges to the same unique fixpoint from any
        update schedule as long as values only come from current upper
        bounds (Sariyüce et al. run it fully asynchronously), so re-using
        freshly-lowered LOCAL sibling values within the round is sound.
        The DEFAULT is 1 (plain synchronous): under the full-tuple hash
        partitioning 1−1/P of sibling edges are remote, so extra local
        sweeps mostly re-pay the lexsort without propagating anything
        (measured at sf0.1/P=8: 4 sweeps = 35 s vs 26 s for 1) — raise it
        only with a locality-aware partitioner. The first sweep IS the
        synchronous round, so a zero changed count still certifies the
        global fixpoint. Returns values changed vs the round start."""
        if self.m == 0:
            return 0
        resolved = ray.get(list(owner_refs))
        parts = [self.t]
        for q in range(self.P):
            if q == self.part:
                parts.append(np.empty(0, np.int64))
            else:
                parts.append(np.asarray(resolved[q][self.part], np.int64))
        # own values resolve directly into [0, n) — the self slot stays
        # empty; locate() indexed own siblings below offs[0]
        vals_concat = np.concatenate(parts)
        lens = np.diff(np.append(self.starts, self.m))
        rank = np.arange(self.m) - np.repeat(self.starts, lens) + 1
        t_start = self.t
        for _ in range(max(1, local_sweeps)):
            vals_concat[: self.n] = self.t
            val = np.minimum(
                vals_concat[self.sib1_idx], vals_concat[self.sib2_idx]
            )
            order = np.lexsort((-val, self.row_edge))
            vv = val[order]
            # the lexsort's primary key preserves the edge-run structure,
            # so self.starts/rank apply unchanged
            h = np.maximum.reduceat(np.minimum(rank, vv), self.starts)
            if np.array_equal(h, self.t):
                break
            self.t = h
        return int((self.t != t_start).sum())

    def result_write(self, path: str) -> int:
        """(eu, ev, t) of the owned edges — atomic part dump (tmp +
        rename, the repo checkpoint discipline); int64 state ⇒
        bit-identical resume for free."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t = pa.table(
            {"eu": pa.array(self.own_u, type=pa.int64()),
             "ev": pa.array(self.own_v, type=pa.int64()),
             "t": pa.array(self.t, type=pa.int64())}
        )
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return self.n

    def t_load(self, path: str) -> None:
        """Restore the t vector from a checkpoint part; the spill is
        rebuilt deterministically by the caller, so the owned key arrays
        must match exactly (asserted)."""
        t = pq.read_table(path)
        if not (
            np.array_equal(t["eu"].to_numpy(), self.own_u)
            and np.array_equal(t["ev"].to_numpy(), self.own_v)
        ):
            raise ValueError(f"trussness checkpoint part mismatch at {path}")
        self.t = t["t"].to_numpy().copy()


def truss_fixpoint(tedge: Spill, *, num_partitions: int,
                   max_rounds: int = 200,
                   checkpoint_dir: str | None = None,
                   resume: bool = False):
    """Stage the shard pool over a spill of (eu..s2v) rows partitioned by
    ``pair_gpart(eu, ev)`` and run the H-index loop. Returns
    (Dataset of (eu, ev, t), converged: bool). Driver state per round:
    P ObjectRefs + one int. ``checkpoint_dir`` dumps each round's
    per-part t vectors atomically with a manifest (the coreness
    checkpoint discipline); ``resume=True`` restarts from the latest
    complete round — bit-identical, since the incidence spill is a
    deterministic function of the edge table and t is pure int64."""
    import tempfile

    import ray.data as rd

    from graphx_ray.context import register_spill
    from graphx_ray.pipelines.graph import _load_hosts, _park_hosts, _View
    from graphx_ray.state import checkpoint as ckpt

    P = num_partitions
    hosts = _load_hosts(P, "truss", TrussShard, P, tedge)
    actors = [_View(h, "truss") for h in hosts]
    try:
        requests = ray.get([a.ghost_requests.remote() for a in actors])
        # owner q receives element q of every requester's list
        ray.get([
            a.register_exports.remote([requests[r][q] for r in range(P)])
            for q, a in enumerate(actors)
        ])
        ray.get([
            a.build_sibling_index.remote(requests[r])
            for r, a in enumerate(actors)
        ])
        fp = {"algo": "trussness", "P": P}
        start = 0
        converged = False
        if checkpoint_dir and resume:
            it0 = ckpt.latest_complete(checkpoint_dir, fp)
            if it0 is not None:
                ray.get([
                    a.t_load.remote(ckpt.part_path(checkpoint_dir, it0, p))
                    for p, a in enumerate(actors)
                ])
                start = it0 + 1
                if ckpt.manifest_metrics(checkpoint_dir, it0).get("changed") == 0:
                    converged = True
        for rnd in range(start if not converged else max_rounds, max_rounds):
            refs = [a.ghost_vals.remote() for a in actors]
            changed = sum(ray.get([a.step.remote(refs) for a in actors]))
            if checkpoint_dir:
                rows = ray.get([
                    a.result_write.remote(ckpt.part_path(checkpoint_dir, rnd, p))
                    for p, a in enumerate(actors)
                ])
                ckpt.write_manifest(
                    checkpoint_dir, rnd, fp,
                    {str(p): r for p, r in enumerate(rows)},
                    {"algo": "trussness", "iteration": rnd,
                     "changed": int(changed)},
                )
            if changed == 0:
                converged = True
                break
        out = register_spill(tempfile.mkdtemp(prefix="graphx_trussres_", dir="/tmp"))
        ray.get([
            a.result_write.remote(os.path.join(out, f"part-{p}.parquet"))
            for p, a in enumerate(actors)
        ])
    finally:
        _park_hosts(hosts)
    return rd.read_parquet(out), converged
