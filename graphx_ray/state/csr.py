"""Per-partition CSR adjacency shards — the stateful heart of the engine
(SURVEY.md ST1/ST2, north_star: "map_batches gather-scatter over per-partition
CSR adjacency held in zero-copy Arrow buffers inside a stateful actor pool").

Design (idiomatic Ray, NOT a Spark port):

- ``stage_graph`` is a Ray Data pipeline: a Graph's DIRECTED edges are
  spilled by part ``splitmix64(src) % P`` (``state/spill.py``), vertices
  likewise — resumable, partition-pruned storage that one host actor
  each loads. It runs once per Graph: no other view is staged.
- ``ShardHost`` (one actor per partition, ``num_cpus=0``) holds every
  view of its partition as a ``CsrShard``, by name: ``directed`` from
  the staging, and ``reversed``, ``undirected_weighted`` and
  ``undirected`` (``VIEWS``) derived from it inside the hosts by one
  actor-to-actor exchange — each edge goes to the owner of its new
  source, one packed object per sender, as GraphX derives reverse and
  undirected views partition-locally instead of re-shuffling. Hub
  detection for a derived view is local to the new owners.
- ``CsrShard`` sorts its edge slice ONCE by the total key (dst_part,
  dst, src, w), and precomputes for every destination partition j: the
  segment slice, the per-unique-destination run starts (so scatter is
  one ``np.add.reduceat`` / ``minimum.reduceat`` — a combiner that
  pre-aggregates messages per destination BEFORE the shuffle), and the
  sorted unique destination vids.
- One-time **ghost exchange**: receiver j caches, per sender i, the local
  indices of sender i's unique destinations. After that, a superstep
  message is a bare float64/int64 numpy array aligned to that cached index
  — the minimum possible bytes over the object store.
- **Shared combiners.** Every message-passing kernel is written as
  per-edge values plus a merge: ``_src_vals`` gathers each edge's source
  value (owned sources from the value vector, salted-hub sources from the
  synced replica), ``_by_dst`` is the send-side combiner (one
  ``ufunc.reduceat`` per unique destination, per destination part), and
  ``_combine`` is the receive-side one (senders folded into a
  per-vertex accumulator in ascending order, starting from
  ``_merge_identity``). The reverse pulls (HITS/SALSA hub half-steps,
  matching) expand pulled per-destination values with ``_per_edge``.
  A result part is ``result_table`` (a table method, columns renamed
  here), returned through the object store by default; checkpoint parts
  (``state_table``/``load_state``), ``output_path`` results and walk rows
  are written by ``_write_parquet`` (tmp file + rename).
- The per-superstep "groupby-shuffle of messages by destination-vertex
  partition" is realised through the object store, in one of two routing
  modes (``route`` ctor arg, driven by ``Graph(scatter_route=...)``):

  * ``"packed"`` (single-node default): each sender's scatter returns ONE
    object holding its P per-destination partials (P² tiny ``ray.put``s
    measurably serialize on the plasma lock at P=32), the driver routes
    only the ObjectRefs, and each receiver does one batched zero-copy
    ``ray.get`` and slices its partition.
  * ``"per_dest"`` (the multi-node default): the driver invokes scatters
    with ``num_returns=P`` so Ray stores every destination's partial as
    its OWN object — a receiver pulls ONLY its partition, eliminating the
    P× network amplification of the (pre-aggregated, ghost-sized)
    messages that packed routing costs on a real cluster. The per-object
    store overhead comes back, but through the task-return path (no
    Python-side ``ray.put`` storm), and results are BIT-identical to
    packed routing (same partials, same ascending-sender merge order —
    tested).
- **Salted hub splitting** (SURVEY.md ST3): out-edges of vertices whose
  out-degree exceeds ``salt_threshold`` are spread over all partitions by
  ``hash(dst)``; every shard then holds a replica slice of the hub's
  adjacency plus the hub's (vid → value) lookup, refreshed each superstep
  by the hub sync — every shard merges the owners' ``hub_state`` parts
  itself (``set_hub_state``), and the algorithms' hub partials (HITS and
  SALSA hub sums, matching's best tuples) fold on the shards the same
  way — so scatter stays balanced under power-law skew.
- **Recycled hosts.** A host outlives its graph: ``Graph.close()`` calls
  ``release()`` (every shard dropped) and parks the actor on an idle
  list; the next pool calls ``load(name, factory, ...)``, which drops
  whatever the host held and installs a fresh shard. Shards are never
  reused, only their process — without the ~2.5 s process start and
  module import of a new actor. The SVD++ and truss pipelines load their
  own shard classes onto the same hosts. Only ``close()`` parks hosts:
  an unclosed Graph's hosts die with its handles. An idle host holds
  about 105-110 MB PSS (4-core host).

Determinism: owned vids sorted, edges sorted by the total key (dst_part,
dst, src, w) — a function of the edge multiset, whichever order staging
or the view exchange delivered it in — and senders always merged in
ascending partition order ⇒ identical float summation order every run —
required for bit-identical checkpoint resume.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from graphx_ray.ids import hll_alpha, hll_registers, mix64, part_of

if TYPE_CHECKING:
    # shard actors import this module: keep Ray Data out of their processes
    from ray.data import Dataset

INF64 = np.int64(np.iinfo(np.int64).max)


def _runs(*keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal key tuples in non-empty arrays
    sorted by those keys."""
    new = np.zeros(len(keys[0]), bool)
    new[0] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def dst_segments(dst_part: np.ndarray, dst: np.ndarray, num_parts: int) -> tuple:
    """The CSR message layout of edges sorted by (dst_part, dst, ...):
    per destination part j its (start, end) segment, the start of every
    unique destination's run inside it and those destinations; and for
    every edge the index of its destination among its part's unique
    ones."""
    bounds = np.searchsorted(dst_part, np.arange(num_parts + 1))
    seg = [(int(bounds[j]), int(bounds[j + 1])) for j in range(num_parts)]
    run_starts, uniq_dst = [], []
    edge_uniq_idx = np.empty(len(dst), np.int64)
    for s, e in seg:
        if e == s:
            run_starts.append(np.empty(0, np.int64))
            uniq_dst.append(np.empty(0, np.int64))
            continue
        rs = _runs(dst[s:e])
        run_starts.append(rs)
        uniq_dst.append(dst[s:e][rs])
        new = np.zeros(e - s, np.int64)
        new[rs] = 1
        edge_uniq_idx[s:e] = np.cumsum(new) - 1
    return seg, run_starts, uniq_dst, edge_uniq_idx


def _write_parquet(table: pa.Table, path: str) -> int:
    """Write ``table`` to ``path`` through a tmp file and a rename, so a
    reader (a resume after a kill included) sees the whole file or none
    of it. Returns the row count."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return table.num_rows


# --------------------------------------------------------------------- stage


def stage_graph(
    edges: Dataset,
    vertices: Dataset | None,
    workdir: str,
    num_parts: int,
    *,
    salt_threshold: int | None = None,
) -> dict:
    """Spill hash-partitioned edges and vertices under ``workdir``.

    edges: (src, dst, w [, ...]); vertices: (vid [, ...]) or None to derive
    the universe from edge endpoints. Returns a manifest dict. Only a
    Graph's directed edges are staged: ``ShardHost`` derives every other
    view from them.
    """
    from graphx_ray.context import ensure_hash_shuffle
    from graphx_ray.state.spill import spill

    ensure_hash_shuffle(edges)
    P = num_parts

    hubs: np.ndarray | None = None
    if salt_threshold is not None:
        hubs = _find_hubs(edges, salt_threshold)

    def edge_part(batch: pa.Table):
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        w = batch["w"].to_numpy() if "w" in batch.column_names else np.ones(len(src), np.int64)
        part = part_of(src, P)
        if hubs is not None and len(hubs):
            is_hub = np.isin(src, hubs)
            # spread hub out-edges over ALL partitions by dst hash
            part = np.where(is_hub, part_of(dst, P), part)
        return pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
                "w": pa.array(w, type=pa.int64()),
            }
        ), part

    def vert_part(batch: pa.Table):
        vid = batch["vid"].to_numpy()
        return pa.table({"vid": pa.array(vid, type=pa.int64())}), part_of(vid, P)

    vert_ds = _vertex_universe(edges) if vertices is None else vertices.select_columns(["vid"])
    return {
        "num_parts": P,
        "edges": spill(edges, edge_part, P, out=os.path.join(workdir, "edges")),
        "verts": spill(vert_ds, vert_part, P, out=os.path.join(workdir, "verts")),
        "hubs": np.sort(hubs).tolist() if hubs is not None else [],  # sorted: searchsorted-able
    }


def _vertex_universe(edges: Dataset) -> Dataset:
    """Endpoint vids, block-locally uniqued ONLY — no global dedup shuffle.

    Equal vids hash to the same vertex partition, so cross-block
    duplicates land in one part directory and the shard reader's
    ``np.unique`` finishes the dedup for free. The Ray hash-aggregate this
    replaces was ~10 s of fixed aggregator-actor cost on small graphs —
    the dominant term of every small-graph staging."""

    def partial(batch: pa.Table) -> pa.Table:
        vid = np.unique(
            np.concatenate([batch["src"].to_numpy(), batch["dst"].to_numpy()])
        )
        return pa.table({"vid": pa.array(vid, type=pa.int64())})

    return edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)


def _find_hubs(edges: Dataset, threshold: int) -> np.ndarray:
    """Vertices with out-degree (Σw) above ``threshold`` — assumed few
    (power-law head); collected to the driver and broadcast."""

    def partial(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        w = batch["w"].to_numpy() if "w" in batch.column_names else np.ones(len(src), np.int64)
        uniq, inv = np.unique(src, return_inverse=True)
        deg = np.bincount(inv, weights=w).astype(np.int64)
        # no partial pre-filter: a hub spread thin across many blocks (each
        # partial small) would lose partials from the Sum and be missed
        return pa.table(
            {"vid": pa.array(uniq, type=pa.int64()), "d": pa.array(deg, type=pa.int64())}
        )

    from graphx_ray.stages.derive import grouped_reduce

    agg = grouped_reduce(
        edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"],
        sum_col="d",
        agg="sum",
        num_partitions=16,
    )
    tbl = agg.filter(expr=f"d > {threshold}").to_pandas()
    if len(tbl) == 0 or "vid" not in tbl.columns:  # empty result loses schema
        return np.empty(0, np.int64)
    return tbl["vid"].to_numpy(dtype=np.int64)


# --------------------------------------------------------------------- shard


class CsrShard:
    """One graph partition held in numpy views over Arrow buffers.

    Owns: vertex slice (sorted vids), outgoing edge slice grouped by
    destination partition, current per-vertex value vector(s).
    """

    def __init__(self, part: int, num_parts: int, owned: np.ndarray,
                 src: np.ndarray, dst: np.ndarray, w: np.ndarray,
                 hubs: np.ndarray, route: str = "packed"):
        """``owned``: this part's vids, sorted and unique; (src, dst, w):
        the part's edges in any order; ``hubs``: the salted hub vids,
        sorted."""
        self.part = part
        self.P = num_parts
        # Message routing mode (see module docstring):
        # - "packed" (single-node default): a scatter returns ONE object
        #   holding all P per-destination partials; receivers slice it.
        # - "per_dest" (multi-node default): the driver invokes scatters
        #   with num_returns=P so Ray stores each destination's partial as
        #   its OWN object; a receiver pulls only its partition — no P×
        #   network amplification of the (ghost-sized) messages, at the
        #   cost of P² object-store entries per superstep.
        if route not in ("packed", "per_dest"):
            raise ValueError(route)
        self.route = route
        self.hubs = np.asarray(hubs, dtype=np.int64)
        self.owned = owned
        self.n = len(self.owned)
        w = np.asarray(w, np.float64)

        dst_part = part_of(dst, self.P)
        # primary dst_part, then dst (contiguous runs per destination!),
        # then src and w: a total key, so the storage order is a function
        # of the edge multiset alone — np.lexsort keys are LAST-primary
        order = np.lexsort((w, src, dst, dst_part))
        self.src = src[order]
        self.dst = dst[order]
        self.w = w[order]
        self.m = len(self.src)

        # src side: local index of each edge source. Hub edges may have
        # foreign sources (salted split) — resolved via a hub lookup.
        self.src_is_hub = (
            np.isin(self.src, self.hubs) if len(self.hubs) else np.zeros(self.m, bool)
        )
        own_src = self.src[~self.src_is_hub]
        self.src_local = np.searchsorted(self.owned, own_src)
        if len(own_src) and (
            self.src_local.max(initial=0) >= self.n
            or not np.array_equal(self.owned[self.src_local], own_src)
        ):
            raise ValueError(
                f"part {part}: edge sources missing from vertex universe "
                "(pass the full vertex table or let stage_graph derive it)"
            )
        # positions of hub edges inside the (dst_part, dst)-sorted arrays
        self.hub_pos = np.flatnonzero(self.src_is_hub)
        self.hub_src_idx = (
            np.searchsorted(self.hubs, self.src[self.hub_pos]) if len(self.hubs) else None
        )
        self.own_pos = np.flatnonzero(~self.src_is_hub)

        self.seg, self.run_starts, self.uniq_dst, self.edge_uniq_idx = dst_segments(
            dst_part[order], self.dst, self.P
        )

        # out-degree of OWNED vertices: Σw over out-edges. For salted hubs the
        # shard only sees a slice; every shard sums the P slices into the
        # true hub outdeg (set_hub_outdeg).
        self.outdeg = np.zeros(self.n, np.float64)
        np.add.at(self.outdeg, self.src_local, self.w[self.own_pos])
        self.hub_outdeg_partial = np.zeros(len(self.hubs), np.float64)
        if len(self.hubs):
            np.add.at(self.hub_outdeg_partial, self.hub_src_idx, self.w[self.hub_pos])

        self.ghost_locals: list[np.ndarray] | None = None
        self.val: np.ndarray | None = None  # current vertex vector
        # set_hub_state installs hub_<name> (aligned to self.hubs) for
        # every vector the hub sync ships; hub_val is the usual one
        self.hub_val: np.ndarray | None = None
        self.hub_outdeg: np.ndarray | None = None
        self.lpa_frozen: np.ndarray | None = None  # seeded-LPA clamp

    # ---------------------------------------------------------- init plumbing

    def edges(self) -> tuple:
        """The part's (src, dst, w) in storage order."""
        return self.src, self.dst, self.w

    def uniq_dsts(self) -> list:
        """Scatter side of the one-time ghost index exchange: the unique
        destination vids of every destination part."""
        return self.uniq_dst

    def hub_outdeg_part(self) -> np.ndarray:
        return self.hub_outdeg_partial

    def set_hub_outdeg(self, *partials: np.ndarray) -> None:
        """Sum every part's ``hub_outdeg_part``, in part order: a salted
        hub's out-edges span all parts."""
        self.hub_outdeg = np.sum(partials, axis=0)

    def cache_ghost_locals(self, sender_refs: list, j: int) -> int:
        """Gather side of the ghost index exchange: the local index of
        every sender's unique destinations in this part."""
        arrs = self._my_parts(sender_refs, j)
        self.ghost_locals = []
        for u in arrs:
            loc = np.searchsorted(self.owned, u)
            if len(u) and (
                loc.max(initial=0) >= self.n or not np.array_equal(self.owned[loc], u)
            ):
                raise ValueError(f"part {self.part}: ghost dst not in vertex universe")
            self.ghost_locals.append(loc)
        return len(arrs)

    # ---------------------------------------------------------- value vectors

    def init_value(self, kind: str) -> None:
        self.lpa_frozen = None  # a fresh vector ends any seeded-LPA run
        if kind == "pr":
            self.val = np.ones(self.n, np.float64)
        elif kind == "pr32":
            # float32 rank/message option: halves the bytes/edge of the
            # bandwidth-bound random gather + the per-superstep message
            # traffic. Looser than the 1e-6 correctness gate — opt-in for
            # throughput/scaling runs (BASELINE.md).
            self.val = np.ones(self.n, np.float32)
            if not hasattr(self, "_w32"):
                self._w32 = self.w.astype(np.float32)
                self._outdeg32 = self.outdeg.astype(np.float32)
                self._hub_outdeg32 = None
        elif kind == "vid":
            self.val = self.owned.astype(np.int64).copy()
        elif kind == "zero":
            # topo-layers init: every vertex starts at layer 0
            self.val = np.zeros(self.n, np.int64)
        else:
            raise ValueError(kind)

    def init_dist(self, landmark: int) -> None:
        """Hop-distance init for shortest paths: 0 at the landmark, ∞ else."""
        self.val = np.full(self.n, INF64)
        self.val[self.owned == landmark] = 0

    def hub_state(self, names: list) -> tuple:
        """(hub vids owned here, [each named vector at them]): this shard's
        part of the hub sync."""
        mask = np.isin(self.owned, self.hubs) if len(self.hubs) else np.zeros(self.n, bool)
        return self.owned[mask], [getattr(self, a)[mask] for a in names]

    def set_hub_state(self, names: list, *parts: tuple) -> None:
        """Merge every part's ``hub_state`` by vid and install each vector
        as ``hub_<name>``, aligned to self.hubs (sorted); the dtype (and
        the rows of a 2-D vector) ride along."""
        vids = np.concatenate([p[0] for p in parts])
        order = np.argsort(vids)
        if not np.array_equal(vids[order], self.hubs):
            raise RuntimeError("hub vertices missing from vertex universe")
        for k, a in enumerate(names):
            setattr(self, "hub_" + a, np.concatenate([p[1][k] for p in parts])[order])

    # ---------------------------------------------------- shared combiners

    def _src_vals(self, own: np.ndarray, hub=None, dtype=None) -> np.ndarray:
        """Per-edge source value in storage order: ``own[src]`` for owned
        sources, ``hub[hub_idx]`` (aligned to self.hubs) for salted-hub
        sources. Rows of a 2-D ``own`` ride along."""
        ev = np.empty((self.m,) + own.shape[1:], dtype or own.dtype)
        ev[self.own_pos] = own[self.src_local]
        if len(self.hub_pos):
            ev[self.hub_pos] = np.asarray(hub)[self.hub_src_idx]
        return ev

    def _by_dst(self, ev: np.ndarray, ufunc) -> list:
        """Send-side combiner: per destination part, ``ufunc`` reduces the
        per-edge values (rows of a 2-D ``ev``) over each unique
        destination's run — messages are pre-aggregated before the
        shuffle. Returned as ONE object (the task return value) holding
        all P partials: 1024 individual ``ray.put``s at P=32 serialized on
        the plasma store lock (measured: 0.07 s of compute stretched to
        >1 s of wall)."""
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            out.append(ufunc.reduceat(ev[s:e], self.run_starts[j], axis=0) if e > s else ev[:0])
        return out

    def _my_parts(self, sender_refs: list, j: int) -> list:
        """Batched zero-copy fetch of every sender's scatter output for
        this receiver. "packed": each ref resolves to the sender's full
        P-partial object — slice partition j. "per_dest": the driver
        already routed the per-destination refs — each resolves to this
        receiver's partial directly."""
        resolved = ray.get([r for r in sender_refs])
        if self.route == "per_dest":
            return resolved
        return [lists[j] for lists in resolved]

    _UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}

    @staticmethod
    def _merge_identity(dtype: np.dtype, merge: str):
        if merge == "sum":
            return dtype.type(0)
        if dtype == np.bool_:
            return dtype.type(merge == "min")
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            return dtype.type(info.max if merge == "min" else info.min)
        return dtype.type(np.inf if merge == "min" else -np.inf)

    def _combine(self, parts: list, merge: str, dtype=None) -> np.ndarray:
        """Receive-side combiner: fold every sender's partials (aligned to
        its cached ghost index) into a per-owned-vertex accumulator,
        senders in order 0..P-1 — the fixed float summation order that
        bit-identical resume relies on. Vertices no message reached keep
        the merge identity. The dtype is the messages' own (``dtype``,
        else the empty partials', when none arrived)."""
        ufunc = self._UFUNCS[merge]
        live = [(self.ghost_locals[i], v) for i, v in enumerate(parts) if len(v)]
        dt = np.dtype(live[0][1].dtype if live else dtype if dtype is not None else parts[0].dtype)
        acc = np.full((self.n,) + parts[0].shape[1:], self._merge_identity(dt, merge), dt)
        for loc, vals in live:
            acc[loc] = ufunc(acc[loc], vals)
        return acc

    def _per_edge(self, parts: list, dtype) -> np.ndarray:
        """Reverse-pull expansion: each owner part returned values aligned
        to this part's unique destinations there; spread them over every
        edge of the matching run, in storage order."""
        out = np.empty(self.m, dtype)
        for jj, vals in enumerate(parts):
            s, e = self.seg[jj]
            if e > s:
                out[s:e] = vals[self.edge_uniq_idx[s:e]]
        return out

    # ------------------------------------------------------------- supersteps

    def _edge_vals_pr(self) -> np.ndarray:
        """Per-edge contribution w · r(src)/outdeg(src), in storage order.
        Dtype follows the rank vector (float32 in pr32 mode — every array
        on the hot path stays 4-byte)."""
        f32 = self.val.dtype == np.float32
        if f32 and not hasattr(self, "_w32"):
            # a checkpoint-resume path can restore a float32 vector without
            # going through init_value("pr32") — build the casts lazily
            self._w32 = self.w.astype(np.float32)
            self._outdeg32 = self.outdeg.astype(np.float32)
            self._hub_outdeg32 = None
        w = self._w32 if f32 else self.w
        outdeg = self._outdeg32 if f32 else self.outdeg
        contrib_own = self.val / np.maximum(outdeg, outdeg.dtype.type(1.0))
        hub_contrib = None
        if len(self.hub_pos):
            hub_od = self.hub_outdeg
            if f32:
                if self._hub_outdeg32 is None:
                    self._hub_outdeg32 = np.asarray(self.hub_outdeg, np.float32)
                hub_od = self._hub_outdeg32
            hub_contrib = np.asarray(self.hub_val, self.val.dtype) / np.maximum(hub_od, 1.0)
        return self._src_vals(contrib_own, hub_contrib) * w

    def _edge_vals_label(self) -> np.ndarray:
        return self._src_vals(self.val, self.hub_val, np.int64)

    def scatter_sum(self) -> list:
        """PageRank scatter: per dst-part partial sums of w·r/outdeg,
        aligned to the ghost index."""
        return self._by_dst(self._edge_vals_pr(), np.add)

    def gather_sum(self, sender_refs: list, j: int, alpha: float,
                   sources=None) -> tuple[float, float]:
        """PageRank-family gather r' = reset + (1−α)·Σ msgs; returns (L1
        delta, mass). The reset is α on every vertex (static PageRank),
        or α·1[v = s] for personalized PageRank: ``sources`` is one vid s,
        or a list of them (one rank column each)."""
        acc = self._combine(self._my_parts(sender_refs, j), "sum")
        reset = alpha
        if sources is not None:
            s = np.asarray(sources, np.int64)
            reset = alpha * (self.owned[:, None] == s if s.ndim else self.owned == s)
        new = reset + (1.0 - alpha) * acc
        delta = float(np.abs(new - self.val).sum()) if self.val is not None else float("inf")
        self.val = new
        return delta, float(new.sum())

    # --------------------------------------------------------------- HITS
    # Kleinberg hubs-and-authorities. h lives in self.val (so the salted-hub
    # sync and the generic result plumbing apply unchanged); a lives in
    # self.val_a. The auth half-step is the standard forward scatter; the
    # hub half-step is a REVERSE PULL that transposes the same ghost index:
    # the dst-owner part returns a(v) aligned to each src part's unique-dst
    # list, and the src part expands those across its edge runs.

    def init_hits(self) -> None:
        self.val = np.ones(self.n, np.float64)
        self.val_a = np.ones(self.n, np.float64)

    def scatter_hits_auth(self) -> list:
        """a(v) = Σ_{u→v} w·h(u) partial sums per destination part (no
        outdeg division, unlike PageRank)."""
        h = self._src_vals(self.val, self.hub_val, np.float64)
        return self._by_dst(h * self.w, np.add)

    def gather_hits_auth(self, sender_refs: list, j: int) -> float:
        self.val_a = self._combine(self._my_parts(sender_refs, j), "sum")
        return float(self.val_a.sum())

    def scale_hits_auth(self, normalize: bool, *a_sums: float) -> None:
        """Divide a by its 1-norm, Σ of every part's ``gather_hits_auth``
        sum in part order."""
        norm = float(sum(a_sums)) if normalize else 0.0
        if norm:
            self.val_a = self.val_a / norm

    def scatter_hits_pull(self) -> list:
        """Sender side of the REVERSE half-step: this part owns the a(v)
        values each src part's h-update needs for its ghost destinations —
        return them aligned to each sender's unique-dst list (the forward
        ghost index, transposed)."""
        return [self.val_a[gl] for gl in self.ghost_locals]

    def gather_hits_hub(self, sender_refs: list, j: int):
        """h(u) = Σ_{u→v} w·a(v): expand the pulled unique-dst a-values
        across this part's edge runs and reduce by OWN src. Hub-src
        contributions return as a partial that every shard merges in
        ``finalize_hits_hub`` (a salted hub's out-edges span parts,
        exactly like outdeg at staging)."""
        contrib = self._per_edge(self._my_parts(sender_refs, j), np.float64) * self.w
        h_new = np.zeros(self.n, np.float64)
        np.add.at(h_new, self.src_local, contrib[self.own_pos])
        self._h_pending = h_new
        hub_partial = None
        if len(self.hubs):
            hub_partial = np.zeros(len(self.hubs), np.float64)
            np.add.at(hub_partial, self.hub_src_idx, contrib[self.hub_pos])
        return hub_partial, float(h_new.sum())

    def finalize_hits_hub(self, normalize: bool, *pulled) -> float:
        """Fold every part's ``gather_hits_hub`` output in part order: the
        salted hubs' h-partials merge into their totals, which REPLACE
        the owners' h (every hub edge contribution went through the
        partials); normalize by the 1-norm and report the L1 h-delta."""
        partials = [r[0] for r in pulled if r[0] is not None]
        hub_totals = np.sum(partials, axis=0) if partials else None
        total_h = float(sum(r[1] for r in pulled)) + (
            float(hub_totals.sum()) if hub_totals is not None else 0.0
        )
        norm = total_h if normalize else 0.0
        h = self._h_pending
        if hub_totals is not None and len(self.hubs):
            own_mask = np.isin(self.owned, self.hubs)
            if own_mask.any():
                h[own_mask] = np.asarray(hub_totals)[
                    np.searchsorted(self.hubs, self.owned[own_mask])
                ]
        if norm:
            h = h / norm
        delta = float(np.abs(h - self.val).sum())
        self.val = h
        del self._h_pending
        return delta

    # ------------------------------------------------- deterministic walks
    # Seeded random walks (SURVEY.md A.10). Walk state lives with a shard
    # holding its current vertex's adjacency; each step is one scatter/
    # gather exchange of (start, walk, next_vid) packs — the same message
    # discipline as the rank scatters, with per-walk payload constant in
    # graph size. The next-hop draw is h = mix64(base + t), idx = h mod
    # Σw(u), resolved on the (src, dst)-aggregated adjacency's cumulative
    # weights — every draw is a pure function of (seed, start, walk, t),
    # so a SQL oracle can replay whole walks bit-identically.
    #
    # SALTED HUBS (round-5, lifting the round-4 NotImplementedError): a
    # split hub's out-edges live sliced across all shards, so no single
    # shard can draw its next hop from local CSR state. Every shard merges
    # the per-shard aggregated hub slices ONCE (the adjacency is static)
    # into the full (hub, dst, Σw) arrays and appends them to its
    # local adjacency as extra "slots" (slot = local idx for owned
    # vertices, n + hub_idx for hubs, wk_cur < 0 encodes a hub slot), so
    # ANY shard resolves a hub-resident draw locally. Walks arriving at a
    # hub are spread across shards by the draw hash instead of piling
    # onto the hub's owner — the straggler the salting exists to prevent.
    # Draw order is unchanged (merged slices sort by (hub, dst), exactly
    # the unsalted per-vertex dst-sorted adjacency), so results are
    # bit-identical to an unsalted build (tested).

    def walk_hub_adj_slice(self):
        """This shard's aggregated (hub_idx, dst, Σw) slice of the salted
        hub adjacency. A given (hub, dst) pair lands in exactly one shard
        (dst-hash routing), so the slices together ARE the full
        aggregated adjacency."""
        hi = self.hub_src_idx if len(self.hub_pos) else np.empty(0, np.int64)
        dst = self.dst[self.hub_pos]
        w = self.w[self.hub_pos].astype(np.uint64)
        if not len(hi):
            return (np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.uint64))
        order = np.lexsort((dst, hi))
        hi, dst, w = hi[order], dst[order], w[order]
        rs = _runs(hi, dst)
        return hi[rs], dst[rs], np.add.reduceat(w, rs)

    def set_walk_hub_adj(self, *slices) -> None:
        """Merge every part's ``walk_hub_adj_slice`` into the full hub
        adjacency (hidx, dst, Σw), sorted by (hidx, dst) — call BEFORE
        init_walks."""
        hidx, hdst, hw = (np.concatenate([s[k] for s in slices]) for k in range(3))
        order = np.lexsort((hdst, hidx))
        self._hub_adj = (hidx[order].astype(np.int64), hdst[order].astype(np.int64),
                         hw[order].astype(np.uint64))

    def _walk_slot_of(self, vids: np.ndarray) -> np.ndarray:
        """Global vid → walk slot: owned local idx for ordinary vertices,
        n + hub_idx for salted hubs (a hub IS owned somewhere, but its
        own-adjacency rows are empty — the hub slot carries the merged
        broadcast adjacency). Non-hub vids must be owned here."""
        cur = np.empty(len(vids), np.int64)
        is_hub = (
            np.isin(vids, self.hubs) if len(self.hubs) else np.zeros(len(vids), bool)
        )
        own = ~is_hub
        loc = np.searchsorted(self.owned, vids[own])
        if len(loc) and (
            loc.max(initial=0) >= self.n
            or not np.array_equal(self.owned[loc], vids[own])
        ):
            raise ValueError(f"part {self.part}: walk landed outside vertex universe")
        cur[own] = loc
        if is_hub.any():
            cur[is_hub] = self.n + np.searchsorted(self.hubs, vids[is_hub])
        return cur

    def _walk_vid_of(self, slots: np.ndarray) -> np.ndarray:
        """Walk slot → global vid (inverse of ``_walk_slot_of``)."""
        if not len(self.hubs):
            return self.owned[slots]
        hub = slots >= self.n
        out = np.empty(len(slots), np.int64)
        out[~hub] = self.owned[slots[~hub]]
        out[hub] = self.hubs[slots[hub] - self.n]
        return out

    def init_walks(self, walks_per_vertex: int, seed: int,
                   rows_dir: str | None = None) -> int:
        if len(self.hubs) and getattr(self, "_hub_adj", None) is None:
            raise ValueError(
                "init_walks on a salted graph needs the merged hub adjacency "
                "— set_walk_hub_adj must run first"
            )
        # per-own-vertex adjacency: (src,dst)→Σw, neighbors sorted by dst
        sl = self.src_local
        dst = self.dst[self.own_pos]
        w = self.w[self.own_pos].astype(np.uint64)
        order = np.lexsort((dst, sl))
        sl, dst, w = sl[order], dst[order], w[order]
        if len(sl):
            rs = _runs(sl, dst)
            asl, adst = sl[rs], dst[rs]
            aw = np.add.reduceat(w, rs)
        else:
            asl = np.empty(0, np.int64)
            adst = np.empty(0, np.int64)
            aw = np.empty(0, np.uint64)
        own_bounds = np.searchsorted(asl, np.arange(self.n + 1))
        # combined slot-indexed adjacency: [own rows | broadcast hub rows];
        # slots 0..n-1 are owned vertices, n..n+H-1 the salted hubs
        H = len(self.hubs)
        if H:
            hidx, hdst, hw = self._hub_adj
            hub_bounds = np.searchsorted(hidx, np.arange(H + 1))
            off = len(adst)
            self.adj_dst = np.concatenate([adst, hdst])
            self.adj_w = np.concatenate([aw, hw])
            lo = np.concatenate([own_bounds[:-1], off + hub_bounds[:-1]])
            hi = np.concatenate([own_bounds[1:], off + hub_bounds[1:]])
        else:
            self.adj_dst = adst
            self.adj_w = aw  # per-(src,dst) aggregated weight (node2vec bias)
            lo = own_bounds[:-1]
            hi = own_bounds[1:]
        self.adj_lo = lo
        self.adj_deg = hi - lo
        self.adj_gcw = np.cumsum(self.adj_w, dtype=np.uint64)  # inclusive cumsum
        nslots = self.n + H
        self.adj_base = np.zeros(nslots, np.uint64)
        self.adj_tw = np.zeros(nslots, np.uint64)
        if len(self.adj_w):
            pos = lo > 0
            self.adj_base[pos] = self.adj_gcw[lo[pos] - 1]
            nz = hi > lo
            self.adj_tw[nz] = self.adj_gcw[hi[nz] - 1] - self.adj_base[nz]

        self._wk_seed = np.uint64(seed)
        wpv = walks_per_vertex
        self.wk_start = np.repeat(self.owned, wpv)
        self.wk_walk = np.tile(np.arange(wpv, dtype=np.uint64), self.n)
        self.wk_cur = self._walk_slot_of(self.wk_start)
        # visit rows: streamed to per-(part, step) parquet when rows_dir is
        # given (the scale path — actor memory stays O(active walks), not
        # O(walks × length)); buffered in the actor otherwise (small graphs)
        self._wk_rows_dir = rows_dir
        self._wk_rows = []
        self._wk_emit(
            self.wk_start.copy(),
            self.wk_walk.astype(np.int64),
            np.zeros(len(self.wk_start), np.int64),
            self.wk_start.copy(),
            0,
        )
        return len(self.wk_start)

    def _wk_emit(self, start, walk, step, vids, t: int) -> None:
        if self._wk_rows_dir is None:
            self._wk_rows.append((start, walk, step, vids))
            return
        tbl = pa.table(
            {
                "start_vid": pa.array(start, type=pa.int64()),
                "walk": pa.array(walk, type=pa.int64()),
                "step": pa.array(step, type=pa.int64()),
                "vid": pa.array(vids, type=pa.int64()),
            }
        )
        _write_parquet(tbl, os.path.join(self._wk_rows_dir, f"part-{self.part}-step-{t}.parquet"))

    def _wk_base(self, start: np.ndarray, walk: np.ndarray) -> np.ndarray:
        return mix64(mix64(self._wk_seed ^ start.astype(np.uint64)) ^ walk)

    def walk_scatter(self, t: int) -> list:
        """Advance every live walk one step; pack (start, walk, next) per
        destination part. Walks at out-degree-0 vertices terminate."""
        cur = self.wk_cur
        alive = self.adj_tw[cur] > 0
        start = self.wk_start[alive]
        walk = self.wk_walk[alive]
        cur = cur[alive]
        with np.errstate(over="ignore"):
            h = mix64(self._wk_base(start, walk) + np.uint64(t))
            idx = h % self.adj_tw[cur]
        j = np.searchsorted(self.adj_gcw, self.adj_base[cur] + idx, side="right")
        nxt = self.adj_dst[j]
        dp = part_of(nxt, self.P)
        dp = self._walk_spread_hubs(dp, nxt, h)
        order = np.argsort(dp, kind="stable")
        start, walk, nxt, dp = start[order], walk[order], nxt[order], dp[order]
        bounds = np.searchsorted(dp, np.arange(self.P + 1))
        return [
            (
                start[bounds[p] : bounds[p + 1]],
                walk[bounds[p] : bounds[p + 1]],
                nxt[bounds[p] : bounds[p + 1]],
            )
            for p in range(self.P)
        ]

    def _walk_spread_hubs(self, dp: np.ndarray, nxt: np.ndarray,
                          h: np.ndarray) -> np.ndarray:
        """Walks arriving at a salted hub are routed by the draw hash, not
        by part_of(hub) — every shard holds the broadcast hub adjacency,
        so concentrating hub-resident walks on the owner would recreate
        the straggler. Deterministic in (seed, start, walk, t)."""
        if not len(self.hubs):
            return dp
        hub_next = np.isin(nxt, self.hubs)
        if hub_next.any():
            dp = dp.copy()
            dp[hub_next] = (
                (h[hub_next] >> np.uint64(33)) % np.uint64(self.P)
            ).astype(dp.dtype)
        return dp

    def walk_gather(self, sender_refs: list, j: int, t: int) -> int:
        """Adopt arriving walks (fixed sender merge order), record their
        step-t rows."""
        start, walk, vids = (np.concatenate(c) for c in zip(*self._my_parts(sender_refs, j)))
        loc = self._walk_slot_of(vids)
        self.wk_start, self.wk_walk, self.wk_cur = start, walk, loc
        self._wk_emit(
            start.copy(), walk.astype(np.int64),
            np.full(len(start), t, np.int64), vids.copy(), t,
        )
        return len(vids)

    # --------------------------------------------------- node2vec walks
    # Second-order biased walks (SURVEY.md A.13). Same ownership and
    # message discipline as A.10 first-order walks, with two additions:
    # the per-step pack carries the vertex the walk just left (prev) AND
    # prev's dst-sorted out-neighbor list, so the receiving owner can
    # evaluate the node2vec α(prev, x) bias locally with no extra
    # exchange (payload O(deg(prev)) per walk — the standard distributed
    # node2vec tradeoff). Bias is EXACT integer arithmetic: α ∈
    # {1/p, 1, 1/q} is scaled by p_num·q_num into multipliers
    # (m_ret, m_com, m_far) = (p_den·q_num, p_num·q_num, p_num·q_den),
    # reduced by their gcd; the draw is idx = mix64(base + t) mod
    # Σ(w·m) over candidates sorted by dst. Every hop is a pure function
    # of (seed, start, walk, t) — parallelism-invariant and
    # SQL-replayable. Step 1 has no prev and uses the raw weights, so
    # (m_ret, m_com, m_far) = (1, 1, 1) reproduces A.10 bit-identically.

    def init_n2v_walks(self, walks_per_vertex: int, seed: int, bias,
                       rows_dir: str | None = None) -> int:
        alive = self.init_walks(walks_per_vertex, seed, rows_dir)
        m = np.asarray(bias, np.uint64)
        if len(self.adj_tw) and int(self.adj_tw.max(initial=0)) > (
            (2**64 - 1) // int(m.max())
        ):
            raise ValueError(
                "node2vec: Σw(v) × max bias multiplier overflows uint64 — "
                "use smaller p/q denominators or rescale edge weights"
            )
        self._n2v_m = (np.uint64(m[0]), np.uint64(m[1]), np.uint64(m[2]))
        n = len(self.wk_start)
        self.wk_prev = np.full(n, -1, np.int64)
        self.wk_pn_flat = np.empty(0, np.int64)
        self.wk_pn_off = np.zeros(n + 1, np.int64)
        return alive

    @staticmethod
    def _ragged_positions(lo: np.ndarray, deg: np.ndarray):
        """Flat gather indices for ragged slices [lo_i, lo_i + deg_i)."""
        total = int(deg.sum())
        cs = np.cumsum(deg)
        starts = cs - deg
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts, deg)
            + np.repeat(lo, deg)
        )
        return pos, cs, starts

    def n2v_scatter(self, t: int) -> list:
        """Advance every live node2vec walk one biased step; pack
        (start, walk, next, prev, N(prev)) per destination part."""
        cur = self.wk_cur
        alive = self.adj_tw[cur] > 0
        aidx = np.flatnonzero(alive)
        start = self.wk_start[aidx]
        walk = self.wk_walk[aidx]
        prev = self.wk_prev[aidx]
        cur = cur[aidx]
        with np.errstate(over="ignore"):
            h = mix64(self._wk_base(start, walk) + np.uint64(t))
        lo = self.adj_lo[cur]
        deg = self.adj_deg[cur]
        if t <= 1:
            # no prev yet — raw-weight draw, identical to first-order A.10
            idx = h % self.adj_tw[cur]
            j = np.searchsorted(self.adj_gcw, self.adj_base[cur] + idx, side="right")
            nxt = self.adj_dst[j]
        else:
            # candidates: cur's adjacency slices, flattened with walk ids
            cpos, ccs, cstarts = self._ragged_positions(lo, deg)
            wid = np.repeat(np.arange(len(cur), dtype=np.int64), deg)
            cdst = self.adj_dst[cpos]
            cw = self.adj_w[cpos].astype(np.uint64)
            # prev-neighbor slices of the alive walks (dst-sorted per
            # walk). A hub prev arrives as an EMPTY pack (sentinel — the
            # hub's list would be its full degree per walk); resolve its
            # slice from the broadcast hub adjacency instead, which is
            # equally dst-sorted, via a virtual concat [pn_flat | adj_dst]
            po = self.wk_pn_off
            p_lo = po[aidx]
            pdeg = po[aidx + 1] - po[aidx]
            L = len(self.wk_pn_flat)
            if len(self.hubs):
                prev_hub = np.isin(prev, self.hubs)
                if prev_hub.any():
                    hslot = self.n + np.searchsorted(self.hubs, prev[prev_hub])
                    p_lo = p_lo.copy()
                    pdeg = pdeg.copy()
                    p_lo[prev_hub] = L + self.adj_lo[hslot]
                    pdeg[prev_hub] = self.adj_deg[hslot]
            ppos, _, _ = self._ragged_positions(p_lo, pdeg)
            pn = np.empty(len(ppos), np.int64)
            into = ppos < L
            pn[into] = self.wk_pn_flat[ppos[into]]
            pn[~into] = self.adj_dst[ppos[~into] - L]
            pwid = np.repeat(np.arange(len(cur), dtype=np.int64), pdeg)
            # membership x ∈ N(prev): rank-compress dsts so the (walk,
            # rank) composite fits uint64, then one sorted-array probe
            if len(pn):
                univ = np.unique(np.concatenate([cdst, pn]))
                K = np.uint64(len(univ) + 1)
                ckeys = wid.astype(np.uint64) * K + np.searchsorted(
                    univ, cdst
                ).astype(np.uint64)
                pkeys = pwid.astype(np.uint64) * K + np.searchsorted(
                    univ, pn
                ).astype(np.uint64)
                ins = np.searchsorted(pkeys, ckeys)
                member = np.zeros(len(ckeys), bool)
                inb = ins < len(pkeys)
                member[inb] = pkeys[ins[inb]] == ckeys[inb]
            else:
                member = np.zeros(len(cdst), bool)
            is_ret = cdst == prev[wid]
            m_ret, m_com, m_far = self._n2v_m
            mult = np.where(is_ret, m_ret, np.where(member, m_com, m_far))
            bw = cw * mult
            gcw = np.cumsum(bw, dtype=np.uint64)
            base_w = np.zeros(len(cur), np.uint64)
            nz = cstarts > 0
            base_w[nz] = gcw[cstarts[nz] - 1]
            wtot = gcw[ccs - 1] - base_w
            idx = h % wtot
            jj = np.searchsorted(gcw, base_w + idx, side="right")
            nxt = cdst[jj]
        gcur = self._walk_vid_of(cur)
        dp = part_of(nxt, self.P)
        dp = self._walk_spread_hubs(dp, nxt, h)
        order = np.argsort(dp, kind="stable")
        start, walk, nxt, gcur = start[order], walk[order], nxt[order], gcur[order]
        # hub curs pack an EMPTY prev-neighbor list (sentinel): the
        # receiver resolves N(prev) from its own broadcast hub adjacency
        senddeg = np.where(cur >= self.n, 0, deg) if len(self.hubs) else deg
        lo, senddeg = lo[order], senddeg[order]
        bounds = np.searchsorted(dp[order], np.arange(self.P + 1))
        out = []
        for p in range(self.P):
            s, e = bounds[p], bounds[p + 1]
            pos, _, _ = self._ragged_positions(lo[s:e], senddeg[s:e])
            out.append(
                (
                    start[s:e], walk[s:e], nxt[s:e], gcur[s:e],
                    self.adj_dst[pos], senddeg[s:e],
                )
            )
        return out

    def n2v_gather(self, sender_refs: list, j: int, t: int) -> int:
        """Adopt arriving node2vec walks (fixed sender merge order) with
        their prev vertex and prev-neighbor lists; record step-t rows."""
        start, walk, vids, prev, pn, pdeg = (
            np.concatenate(c) for c in zip(*self._my_parts(sender_refs, j))
        )
        loc = self._walk_slot_of(vids)
        self.wk_start, self.wk_walk, self.wk_cur, self.wk_prev = start, walk, loc, prev
        self.wk_pn_flat = pn
        self.wk_pn_off = np.concatenate(
            [np.zeros(1, np.int64), np.cumsum(pdeg, dtype=np.int64)]
        )
        self._wk_emit(
            start.copy(), walk.astype(np.int64),
            np.full(len(start), t, np.int64), vids.copy(), t,
        )
        return len(vids)

    # ----------------------------------------------- maximal independent set
    # Luby-style deterministic MIS (SURVEY.md A.12): per round r every
    # ACTIVE vertex draws p_r(v) = mix64(mix64(seed ^ r) ^ v); it joins the
    # MIS iff its priority strictly exceeds every active neighbor's (ties ⇒
    # neither joins; fresh priorities next round break them), then MIS
    # neighbors deactivate. Both phases ride the existing label scatter
    # (val staged per phase, max merge), so salted hubs need only the
    # hub sync of val after each staging.

    def init_mis(self) -> None:
        self.mis_status = np.zeros(self.n, np.int8)  # 0 active, 1 MIS, 2 out
        self.val = np.zeros(self.n, np.int64)

    def mis_stage_priority(self, base: int, r: int) -> None:
        """val = (p_r(v) >> 3) + 1 for ACTIVE vertices (strictly positive,
        fits int64), 0 for inactive — max-merge identity. p_r(v) =
        mix64(mix64(base ^ r) ^ v): base is the seed for a plain MIS and
        mix64(seed ^ c) for color c of greedy coloring."""
        round_const = mix64(np.uint64(base) ^ np.uint64(r))
        p = mix64(round_const ^ self.owned.astype(np.uint64))
        v = (p >> np.uint64(3)).astype(np.int64) + 1
        self.val = np.where(self.mis_status == 0, v, 0).astype(np.int64)

    def scatter_max(self) -> list:
        return self._by_dst(self._edge_vals_label(), np.maximum)

    def _gather_max_acc(self, sender_refs: list, j: int) -> np.ndarray:
        # staged values are ≥ 0, so 0 stands for "no message"
        return np.maximum(self._combine(self._my_parts(sender_refs, j), "max"), 0)

    def gather_mis_join(self, sender_refs: list, j: int) -> None:
        acc = self._gather_max_acc(sender_refs, j)
        join = (self.mis_status == 0) & (self.val > acc)
        self.mis_status[join] = 1

    def mis_stage_flag(self) -> None:
        self.val = (self.mis_status == 1).astype(np.int64)

    def gather_mis_out(self, sender_refs: list, j: int) -> tuple:
        """Deactivate MIS neighbors; returns (#in the MIS, #still
        active)."""
        acc = self._gather_max_acc(sender_refs, j)
        out = (self.mis_status == 0) & (acc > 0)
        self.mis_status[out] = 2
        return int((self.mis_status == 1).sum()), int((self.mis_status == 0).sum())

    def result_table_mis(self) -> pa.Table:
        return pa.table(
            {
                "vid": pa.array(self.owned, type=pa.int64()),
                "in_mis": pa.array((self.mis_status == 1).astype(np.int64)),
            }
        )

    # ------------------------------------------------------ graph coloring
    # Iterated-MIS greedy coloring (SURVEY.md A.14): color c's candidates
    # are exactly the still-uncolored vertices; one full Luby MIS over that
    # induced subgraph (colored vertices stage priority 0 — the max-merge
    # identity — so they neither join nor block) gets color c, then the
    # deactivated "out" vertices re-enter for color c+1.

    def init_coloring(self) -> None:
        self.clr = np.full(self.n, -1, np.int64)

    def color_begin(self) -> None:
        """Arm a fresh MIS over the uncolored subgraph."""
        self.mis_status = np.where(self.clr < 0, 0, 2).astype(np.int8)
        self.val = np.zeros(self.n, np.int64)

    def color_assign(self, c: int) -> int:
        """Commit this round's MIS as color ``c``; returns #still uncolored."""
        self.clr[self.mis_status == 1] = c
        return int((self.clr < 0).sum())

    # ------------------------------------------------------- SALSA (A.18)
    # Lempel & Moran 2000: HITS with random-walk (degree) normalization —
    # auth: a(v) = Σ_{u→v} w·h(u)/outdeg(u), hub: h(u) = Σ_{u→v}
    # w·a(v)/indeg(v). Truncated fixed-iteration variant in exact int64
    # micro-units with per-edge floor division (the Katz/PIC recipe):
    # mass is non-increasing, so every value stays < n·scale·w_max
    # (documented bound < 2^63). Auth is the PR-shaped forward scatter;
    # hub is the HITS reverse pull with a static per-edge indeg cache.

    def init_salsa(self, scale: int) -> None:
        self.val = np.full(self.n, scale, np.int64)  # h (synced for salted hubs)
        self.val_sa = np.zeros(self.n, np.int64)  # a
        self.sl_w = np.rint(self.w).astype(np.int64)
        self.sl_od = np.maximum(np.rint(self.outdeg).astype(np.int64), 1)
        self.sl_hub_od = (
            np.maximum(np.rint(np.asarray(self.hub_outdeg)).astype(np.int64), 1)
            if self.hub_outdeg is not None and len(self.hubs)
            else None
        )
        self.sl_ind: np.ndarray | None = None  # indeg of OWNED vertices
        self.sl_edge_ind: np.ndarray | None = None  # static indeg(dst) per edge

    def scatter_salsa_indeg(self) -> list:
        return self._by_dst(self.sl_w, np.add)

    def gather_salsa_indeg(self, sender_refs: list, j: int) -> None:
        self.sl_ind = np.maximum(self._combine(self._my_parts(sender_refs, j), "sum"), 1)

    def pull_salsa_indeg(self) -> list:
        return [self.sl_ind[gl] for gl in self.ghost_locals]

    def cache_salsa_indeg(self, sender_refs: list, j: int) -> None:
        self.sl_edge_ind = self._per_edge(self._my_parts(sender_refs, j), np.int64)

    def scatter_salsa_auth(self) -> list:
        """a-step scatter: per-edge floor(h(u)·w / outdeg(u)), reduceat
        per unique dst."""
        h = self._src_vals(self.val, self.hub_val)
        od = self._src_vals(self.sl_od, self.sl_hub_od)
        return self._by_dst((h * self.sl_w) // od, np.add)

    def gather_salsa_auth(self, sender_refs: list, j: int) -> None:
        self.val_sa = self._combine(self._my_parts(sender_refs, j), "sum")

    def scatter_salsa_pull(self) -> list:
        return [self.val_sa[gl] for gl in self.ghost_locals]

    def gather_salsa_hub(self, sender_refs: list, j: int):
        """h-step: expand pulled a across edge runs, per-edge
        floor(a(v)·w / indeg(v)), reduce by own src; the hub-src partial
        returns for ``finalize_salsa_hub`` (REPLACE, like HITS)."""
        av = self._per_edge(self._my_parts(sender_refs, j), np.int64)
        contrib = (av * self.sl_w) // self.sl_edge_ind
        h_new = np.zeros(self.n, np.int64)
        if self.n:
            np.add.at(h_new, self.src_local, contrib[self.own_pos])
        self._sl_h_pending = h_new
        if len(self.hubs):
            hub_partial = np.zeros(len(self.hubs), np.int64)
            np.add.at(hub_partial, self.hub_src_idx, contrib[self.hub_pos])
            return hub_partial
        return None

    def finalize_salsa_hub(self, *pulled) -> None:
        """Sum every part's ``gather_salsa_hub`` hub partial; the totals
        REPLACE the owners' h (every hub edge went through the
        partials)."""
        partials = [p for p in pulled if p is not None]
        hub_totals = np.sum(partials, axis=0) if partials else None
        h = self._sl_h_pending
        if hub_totals is not None and len(self.hubs) and self.n:
            own_mask = np.isin(self.owned, self.hubs)
            if own_mask.any():
                h[own_mask] = np.asarray(hub_totals)[
                    np.searchsorted(self.hubs, self.owned[own_mask])
                ]
        self.val = h
        del self._sl_h_pending

    # ---------------------------------------------- maximal matching (A.17)
    # Deterministic local-max matching (the Israeli–Itai / Preis family,
    # synchronous variant): per round every ACTIVE edge (neither endpoint
    # matched) draws the globally-unique priority tuple
    # (p, cu, cv) with p = (mix64(mix64(C_r ^ cu) ^ cv) >> 1) + 1 over the
    # canonical pair cu = min(src,dst), cv = max — both endpoint shards
    # compute the SAME tuple — and an edge joins the matching iff its
    # tuple is the lexicographic max among the active incident edges of
    # BOTH endpoints (the round's globally-max active edge always wins,
    # so every round makes progress; expected O(log m) rounds). Two
    # ghost-sized reverse pulls per round (matched flags, best tuples)
    # through the transposed ghost index — the HITS pull machinery.
    # Salted hubs: after each pull, every shard folds all P parts' hub
    # partials (best tuples, then winners), as HITS folds its hub sums.

    def init_matching(self) -> None:
        self.val = np.full(self.n, -1, np.int64)  # partner (−1 = unmatched)
        self.mm_cu = np.minimum(self.src, self.dst)
        self.mm_cv = np.maximum(self.src, self.dst)

    def match_pull_flags(self) -> list:
        """Reverse pull (dst-owner side): matched flags aligned to each
        sender's unique-dst list."""
        f = (self.val >= 0).astype(np.int8)
        return [f[gl] for gl in self.ghost_locals]

    def match_stage_priorities(self, flag_refs: list, j: int, seed: int, r: int):
        """Round r's active-edge priorities (C_r = mix64(seed ^ r)) +
        per-owned-vertex best tuples; returns the hub best partial (None
        on an unsalted view)."""
        round_const = mix64(np.uint64(seed) ^ np.uint64(r))
        dflag = self._per_edge(self._my_parts(flag_refs, j), bool)
        hub_matched = None if self.hub_val is None else self.hub_val >= 0
        sflag = self._src_vals(self.val >= 0, hub_matched)
        active = ~sflag & ~dflag
        p = np.zeros(self.m, np.uint64)
        if active.any():
            cu = self.mm_cu[active].astype(np.uint64)
            cv = self.mm_cv[active].astype(np.uint64)
            p[active] = (mix64(mix64(round_const ^ cu) ^ cv) >> np.uint64(1)) + np.uint64(1)
        self.mm_p = p
        self.mm_active = active

        def best_of(idx: np.ndarray, size: int, pos: np.ndarray):
            bp = np.zeros(size, np.uint64)
            bu = np.full(size, -1, np.int64)
            bv = np.full(size, -1, np.int64)
            if len(pos) == 0 or size == 0:
                return bp, bu, bv
            pe, cue, cve = p[pos], self.mm_cu[pos], self.mm_cv[pos]
            order = np.lexsort((cve, cue, pe, idx))
            io, po, uo, vo = idx[order], pe[order], cue[order], cve[order]
            last = np.ones(len(io), bool)
            if len(io) > 1:
                last[:-1] = io[1:] != io[:-1]
            sel = np.flatnonzero(last)
            bp[io[sel]] = po[sel]
            bu[io[sel]] = uo[sel]
            bv[io[sel]] = vo[sel]
            return bp, bu, bv

        self.mm_best = best_of(self.src_local, self.n, self.own_pos)
        if len(self.hubs):
            return best_of(self.hub_src_idx, len(self.hubs), self.hub_pos)
        return None

    def match_install_hub_best(self, *partials) -> None:
        """Tuple-max fold of every part's hub best partial: every shard
        keeps the merged tuples for src-side checks; the owner overwrites
        its owned-hub local bests so the best pull serves them."""
        if not len(self.hubs):
            return
        hp = np.zeros(len(self.hubs), np.uint64)
        hu = np.full(len(self.hubs), -1, np.int64)
        hv = np.full(len(self.hubs), -1, np.int64)
        for bp, bu, bv in partials:
            better = (bp > hp) | ((bp == hp) & ((bu > hu) | ((bu == hu) & (bv > hv))))
            hp[better], hu[better], hv[better] = bp[better], bu[better], bv[better]
        self.mm_hub_best = (hp, hu, hv)
        if self.n:
            mask = np.isin(self.owned, self.hubs)
            if mask.any():
                idx = np.searchsorted(self.hubs, self.owned[mask])
                self.mm_best[0][mask] = self.mm_hub_best[0][idx]
                self.mm_best[1][mask] = self.mm_hub_best[1][idx]
                self.mm_best[2][mask] = self.mm_hub_best[2][idx]

    def match_pull_best(self) -> list:
        """Reverse pull (dst-owner side): best tuples aligned to each
        sender's unique-dst list."""
        bp, bu, bv = self.mm_best
        return [(bp[gl], bu[gl], bv[gl]) for gl in self.ghost_locals]

    def match_resolve(self, best_refs: list, j: int):
        """Edges winning at both endpoints set partners for owned
        sources; hub-source winners return as (hub_idx, partner)
        partials for ``match_install_hub_partners``."""
        parts = self._my_parts(best_refs, j)
        dbp, dbu, dbv = (self._per_edge([p[k] for p in parts], d)
                         for k, d in enumerate((np.uint64, np.int64, np.int64)))
        hb = getattr(self, "mm_hub_best", (None,) * 3)
        sbp, sbu, sbv = (self._src_vals(self.mm_best[k], hb[k]) for k in range(3))
        win = (
            self.mm_active
            & (self.mm_p == sbp) & (self.mm_cu == sbu) & (self.mm_cv == sbv)
            & (self.mm_p == dbp) & (self.mm_cu == dbu) & (self.mm_cv == dbv)
        )
        own_win = win[self.own_pos]
        if own_win.any():
            wpos = self.own_pos[own_win]
            self.val[self.src_local[own_win]] = self.dst[wpos]
        if len(self.hubs):
            hwin = win[self.hub_pos]
            if hwin.any():
                return (
                    self.hub_src_idx[hwin].astype(np.int64),
                    self.dst[self.hub_pos[hwin]],
                )
        return None

    def match_install_hub_partners(self, *resolved) -> int:
        """Install the partners of the owned hubs that won, from every
        part's ``match_resolve`` partial (winners are disjoint per hub);
        returns this shard's active-edge count."""
        pairs = [p for p in resolved if p is not None]
        if pairs and self.n:
            idx = np.concatenate([p[0] for p in pairs])
            order = np.argsort(idx)
            won = self.hubs[idx[order]]
            mask = np.isin(self.owned, won)
            if mask.any():
                self.val[mask] = np.concatenate([p[1] for p in pairs])[order][
                    np.searchsorted(won, self.owned[mask])]
        return int(self.mm_active.sum())

    # ------------------------------------------------------- Louvain (A.16)
    # Synchronous deterministic Louvain local-move rounds (Blondel et al.
    # 2008; the synchronous minimum-label variant of Lu, Halappanavar &
    # Kalyanaraman 2015). Exact integer scores: with integer edge weights
    # the move criterion Δ̂(B) = 2m·w(v→B) − k(v)·vol′(B) is computed in
    # int64 end-to-end — valid while 2m·k_max < 2^63 (documented bound,
    # same class as the PR fixed-point recipes). Three ghost-/community-
    # sized exchanges per round:
    #   1. vol-up: (community, Σk) partials routed to the community's
    #      owner shard (owner(C) = part_of(C) — communities are vertex
    #      ids, so ownership reuses the vertex hash partitioning);
    #   2. vol-down: each owner replies (C, vol(C)) to exactly the shards
    #      that contributed a partial for C — every shard ends the phase
    #      holding vol for each community with a RESIDENT member — plus,
    #      on a salted view, the volumes of the hubs' communities it owns,
    #      which every shard sums into the hubs' (vol, singleton) state;
    #   3. move: an LPA-shaped edge scatter carrying (label, vol(label),
    #      singleton-flag) per source, pre-aggregated per (dst, label);
    #      the receiver argmaxes Δ̂ with ties → smallest community id and
    #      applies the singleton swap-guard (a singleton may only join
    #      another singleton with a SMALLER id — kills the classic
    #      synchronous two-cycle without blocking moves into real
    #      communities).
    # Self-loop edges (contracted multilevel graphs) are excluded from
    # w(v→·) by zeroing their scatter weight but KEPT in k via outdeg —
    # the undirected_weighted view holds a self-loop twice, so outdeg already
    # carries the standard 2·w_self.

    def init_louvain(self) -> int:
        """Static state and singleton labels; returns Σk over this part
        (its share of 2m)."""
        self.val = self.owned.astype(np.int64).copy()  # community label
        k = self.outdeg.copy()
        if len(self.hubs):
            own_hub = np.isin(self.owned, self.hubs)
            if own_hub.any():
                idx = np.searchsorted(self.hubs, self.owned[own_hub])
                k[own_hub] = np.asarray(self.hub_outdeg)[idx]
        self.lv_k = np.rint(k).astype(np.int64)
        self.lv_vol_ids: np.ndarray | None = None  # resident-community vols
        self.lv_vol: np.ndarray | None = None
        self.lv_hub_vol: np.ndarray | None = None
        self.lv_hub_flag: np.ndarray | None = None
        self.lv_w_eff = np.where(self.src == self.dst, 0, self.w).astype(np.int64)
        return int(self.lv_k.sum())

    def louvain_vol_scatter(self) -> list:
        """Vol-up: per owner-shard partial community volumes (C, Σk)."""
        c, k = self.val, self.lv_k
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        if self.n == 0:
            return [empty] * self.P
        dest = part_of(c, self.P)
        order = np.lexsort((c, dest))
        cs, ks, ds = c[order], k[order], dest[order]
        bounds = np.searchsorted(ds, np.arange(self.P + 1))
        out = []
        for j in range(self.P):
            s, e = int(bounds[j]), int(bounds[j + 1])
            if e == s:
                out.append(empty)
                continue
            cj, kj = cs[s:e], ks[s:e]
            rs = _runs(cj)
            out.append((cj[rs], np.add.reduceat(kj, rs)))
        return out

    def louvain_vol_gather(self, sender_refs: list, j: int) -> None:
        """Vol-up, owner side: sum the partials into the volumes of the
        communities this part owns; keep what each sender asked for."""
        parts = self._my_parts(sender_refs, j)
        self.lv_asked = [p[0] for p in parts]
        c = np.concatenate(self.lv_asked)
        v = np.concatenate([p[1] for p in parts])
        order = np.argsort(c, kind="stable")
        cs, vs = c[order], v[order]
        if len(cs):
            rs = _runs(cs)
            cs, vs = cs[rs], np.add.reduceat(vs, rs)
        self.lv_own_ids, self.lv_own_vol = cs, vs

    def louvain_vol_reply(self) -> list:
        """Vol-down, owner side: (C, vol(C)) for the communities each
        sender asked for, and the volumes of the salted hubs' communities
        owned here (0 for the others)."""
        hub = None
        if len(self.hubs):
            hit = np.isin(self.hub_val, self.lv_own_ids)
            hub = np.zeros(len(self.hubs), np.int64)
            hub[hit] = self.lv_own_vol[np.searchsorted(self.lv_own_ids, self.hub_val[hit])]
        return [(ci, self.lv_own_vol[np.searchsorted(self.lv_own_ids, ci)], hub)
                for ci in self.lv_asked]

    def louvain_vol_absorb(self, sender_refs: list, j: int) -> None:
        """Vol-down, member side: store vol for every resident community.
        Owner reply key sets are disjoint (owner(C) is unique), so a plain
        sort — no duplicate merge — yields the lookup table. The hubs'
        community volumes sum over the owners; a hub is a singleton when
        its community's volume is its own degree."""
        parts = self._my_parts(sender_refs, j)
        cs = np.concatenate([p[0] for p in parts])
        vs = np.concatenate([p[1] for p in parts])
        order = np.argsort(cs, kind="stable")
        self.lv_vol_ids = cs[order]
        self.lv_vol = vs[order]
        if len(self.hubs):
            self.lv_hub_vol = np.sum([p[2] for p in parts], axis=0)
            self.lv_hub_flag = self.lv_hub_vol == np.rint(self.hub_outdeg).astype(np.int64)

    def louvain_move_scatter(self) -> list:
        """Phase 3 scatter: per dst-part runs of (uniq_idx, label, Σw,
        vol(label), singleton(label)) — vol/flag are functions of the
        label, so a plain take at each group start suffices."""
        empty = tuple(np.empty(0, np.int64) for _ in range(4)) + (np.empty(0, bool),)
        if self.m == 0:
            return [empty] * self.P
        lab = self._edge_vals_label()
        myvol = self.lv_vol[np.searchsorted(self.lv_vol_ids, self.val)]
        vol = self._src_vals(myvol, self.lv_hub_vol)
        flg = self._src_vals(myvol == self.lv_k, self.lv_hub_flag)
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            if e == s:
                out.append(empty)
                continue
            uidx = self.edge_uniq_idx[s:e]
            lj, wj, vj, fj = lab[s:e], self.lv_w_eff[s:e], vol[s:e], flg[s:e]
            order = np.lexsort((lj, uidx))
            uo, lo, wo = uidx[order], lj[order], wj[order]
            rs = _runs(uo, lo)
            out.append(
                (uo[rs], lo[rs], np.add.reduceat(wo, rs),
                 vj[order][rs], fj[order][rs])
            )
        return out

    def louvain_move_gather(self, sender_refs: list, j: int, two_m: int) -> int:
        """Phase 3 gather: merge (dst, label) groups across senders, argmax
        Δ̂(B) = 2m·w(v→B) − k·vol′(B) with ties → smallest B, apply the
        singleton swap-guard, update labels synchronously."""
        if self.n == 0:
            return 0
        dsts, labs, ws, vols, flgs = [], [], [], [], []
        for i, (u, l, w, v, f) in enumerate(self._my_parts(sender_refs, j)):
            if len(u):
                dsts.append(self.ghost_locals[i][u])
                labs.append(l)
                ws.append(w)
                vols.append(v)
                flgs.append(f)
        if not dsts:
            return 0
        d = np.concatenate(dsts)
        l = np.concatenate(labs)
        w = np.concatenate(ws)
        v = np.concatenate(vols)
        f = np.concatenate(flgs)
        order = np.lexsort((l, d))
        d, l, w, v, f = d[order], l[order], w[order], v[order], f[order]
        rs = _runs(d, l)
        d, l, v, f = d[rs], l[rs], v[rs], f[rs]
        w = np.add.reduceat(w, rs)

        k = self.lv_k
        pos = np.searchsorted(self.lv_vol_ids, self.val)
        vol_own = self.lv_vol[pos]
        own = self.val[d]
        is_own = l == own
        # stay baseline per vertex: Δ̂(A) with vol′(A) = vol(A) − k
        stay_w = np.zeros(self.n, np.int64)
        stay_w[d[is_own]] = w[is_own]
        stay = two_m * stay_w - k * (vol_own - k)
        # move candidates (B ≠ A)
        cd, cl, cw, cv, cf = d[~is_own], l[~is_own], w[~is_own], v[~is_own], f[~is_own]
        if len(cd) == 0:
            return 0
        sc = two_m * cw - k[cd] * cv
        order2 = np.lexsort((cl, -sc, cd))
        cd2, cl2, sc2, cf2 = cd[order2], cl[order2], sc[order2], cf[order2]
        first = _runs(cd2)
        bd, bl, bs, bf = cd2[first], cl2[first], sc2[first], cf2[first]
        own_b = self.val[bd]
        singleton_v = vol_own[bd] == k[bd]
        guard = singleton_v & bf & (bl > own_b)
        move = (bs > stay[bd]) & ~guard
        moved = int(move.sum())
        if moved:
            self.val[bd[move]] = bl[move]
        return moved

    # --------------------------------------------------- betweenness (Brandes)
    # Batched-pivot Brandes (SURVEY.md A.15) over the canonical undirected
    # simple graph: per pivot batch, a level-synchronous forward phase
    # computes (dist, σ) — σ(v) = Σ σ(u) over frontier in-neighbors, the
    # standard message-sum gather with a (n, B) matrix column per pivot —
    # then the backward phase walks levels deepest-first, each vertex v at
    # level d scattering (1 + δ(v)) / σ(v) and each predecessor u at level
    # d−1 accumulating δ(u) += σ(u) · Σ msgs. Working set per shard is
    # (edges_shard × B) floats per superstep — callers size the batch.
    # Salted hubs: the (dist, σ, δ) rows of the hubs are synced to every
    # shard before each superstep, and the scatters read them there.
    #
    # Fixed-point mode (``betweenness_fixed``, a ``scale``): the pinned
    # integer contract floors at the SENDER so the reduceat pre-combine
    # stays exact and order-free:
    #     δ(v) = σ(v) · Σ_{w: dist(w)=dist(v)+1} floor((S + δ(w)) / σ(w))
    # (the per-edge floor-division device of katz/salsa; all int64, so the
    # SQL oracle replays it bit-exactly with DuckDB's truncating // on
    # non-negative operands). δ ≤ S·(n−1) per pivot — guarded below.

    def owned_count(self) -> int:
        return int(self.n)

    def owned_vids(self) -> np.ndarray:
        return self.owned

    def pivot_candidates(self, k: int, seed: int) -> tuple:
        """This shard's k smallest (mix64(seed ^ vid), vid) pairs — the
        driver merges P·k pairs and keeps the global k (deterministic)."""
        h = mix64(np.uint64(seed) ^ self.owned.astype(np.uint64))
        order = np.argsort(h, kind="stable")[: int(k)]
        return h[order], self.owned[order]

    def init_bc(self, pivots: list, reset: bool = False, scale: int | None = None) -> None:
        """A pivot batch's forward state; ``reset`` starts the running
        centrality over (float, or int64 with a fixed-point ``scale``)."""
        nb = len(pivots)
        self._bc_p = np.asarray(pivots, np.int64)
        self._bc_scale = scale
        self.bc_dist = np.full((self.n, nb), INF64, np.int64)
        self.bc_sigma = np.zeros((self.n, nb), np.float64)
        loc = np.searchsorted(self.owned, self._bc_p)
        for c in range(nb):
            if loc[c] < self.n and self.owned[loc[c]] == self._bc_p[c]:
                self.bc_dist[loc[c], c] = 0
                self.bc_sigma[loc[c], c] = 1.0
        if reset or getattr(self, "bc_acc", None) is None:
            self.bc_acc = np.zeros(self.n, np.float64 if scale is None else np.int64)

    def _bc_send(self, contrib, rows: tuple) -> list:
        """Per dst-part sums of ``contrib(*rows)`` over the edges, the
        rows (shard attributes) read at owned sources and, for salted-hub
        sources, at the synced ``hub_<row>`` copies."""
        own = contrib(*(getattr(self, r) for r in rows))
        hub = contrib(*(getattr(self, "hub_" + r) for r in rows)) if len(self.hub_pos) else None
        return self._by_dst(self._src_vals(own, hub), np.add)

    def scatter_bc_fwd(self, d: int) -> list:
        """Forward σ scatter: frontier (dist == d) vertices send σ."""
        return self._bc_send(lambda dist, sigma: np.where(dist == d, sigma, 0.0),
                             ("bc_dist", "bc_sigma"))

    def gather_bc_fwd(self, sender_refs: list, j: int, d: int) -> int:
        acc = self._combine(self._my_parts(sender_refs, j), "sum")
        new = (self.bc_dist == INF64) & (acc > 0)
        self.bc_dist[new] = d + 1
        self.bc_sigma[new] = acc[new]
        return int(new.sum())

    def _bc_sig(self, sigma: np.ndarray) -> np.ndarray:
        """σ in the backward arithmetic: float, or exact int64."""
        return sigma if self._bc_scale is None else sigma.astype(np.int64)

    def init_bc_delta(self) -> None:
        if self._bc_scale is not None and self.bc_sigma.max(initial=0.0) >= 2.0**53:
            raise OverflowError("path counts exceed the exact float64 range")
        self.bc_delta = np.zeros_like(self._bc_sig(self.bc_sigma))

    def scatter_bc_bwd(self, d: int) -> list:
        """Backward dependency scatter: level-d vertices send (1 + δ) / σ
        along every (undirected) edge — floor((S + δ) / σ) in fixed-point
        mode."""
        def contrib(dist, sigma, delta):
            mask = (dist == d) & (sigma > 0)
            if self._bc_scale is None:
                return np.where(mask, (1.0 + delta) / np.where(mask, sigma, 1.0), 0.0)
            sig = self._bc_sig(sigma)
            return np.where(mask, (self._bc_scale + delta) // np.where(mask, sig, 1), 0)

        return self._bc_send(contrib, ("bc_dist", "bc_sigma", "bc_delta"))

    def gather_bc_bwd(self, sender_refs: list, j: int, d: int) -> None:
        acc = self._combine(self._my_parts(sender_refs, j), "sum")
        sig = self._bc_sig(self.bc_sigma)
        if self._bc_scale is not None and int(acc.max(initial=0)) * int(
            sig.max(initial=0)
        ) >= 1 << 62:
            raise OverflowError("betweenness_fixed: σ·Σfloor term exceeds the int64 guard")
        tgt = self.bc_dist == d - 1
        self.bc_delta[tgt] += (sig * acc)[tgt]

    def finish_bc_batch(self) -> None:
        """Fold this batch's δ into the running centrality (pivots excluded
        from their own column, per Brandes)."""
        add = self.bc_delta
        loc = np.searchsorted(self.owned, self._bc_p)
        for c in range(len(self._bc_p)):
            if loc[c] < self.n and self.owned[loc[c]] == self._bc_p[c]:
                add[loc[c], c] = 0
        self.bc_acc += add.sum(axis=1)
        self.bc_dist = self.bc_sigma = self.bc_delta = None  # free batch state

    def result_table_path_counts(self) -> pa.Table:
        """(vid, dist, sigma) of the single-pivot forward phase — exact
        integers (σ < 2^53 exact in the float64 accumulator; cast checked)."""
        dist = self.bc_dist[:, 0]
        sig = self.bc_sigma[:, 0]
        if sig.max(initial=0.0) >= 2.0**53:
            raise OverflowError("path counts exceed the exact float64 range")
        return pa.table(
            {
                "vid": pa.array(self.owned, type=pa.int64()),
                "dist": pa.array(np.where(dist == INF64, -1, dist)),
                "sigma": pa.array(sig.astype(np.int64)),
            }
        )

    def result_table_bc(self, scale: float) -> pa.Table:
        return pa.table(
            {
                "vid": pa.array(self.owned, type=pa.int64()),
                "betweenness": pa.array(self.bc_acc * float(scale)),
            }
        )

    def walk_rows_table(self) -> pa.Table:
        rows = getattr(self, "_wk_rows", [])
        if not rows:
            return pa.table(
                {"start_vid": pa.array([], pa.int64()), "walk": pa.array([], pa.int64()),
                 "step": pa.array([], pa.int64()), "vid": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "start_vid": pa.array(np.concatenate([r[0] for r in rows]), type=pa.int64()),
                "walk": pa.array(np.concatenate([r[1] for r in rows]), type=pa.int64()),
                "step": pa.array(np.concatenate([r[2] for r in rows]), type=pa.int64()),
                "vid": pa.array(np.concatenate([r[3] for r in rows]), type=pa.int64()),
            }
        )

    def scatter_min(self) -> list:
        return self._by_dst(self._edge_vals_label(), np.minimum)

    def scatter_minplus(self) -> list:
        """Shortest-paths scatter: msg = dist(src) + 1 (∞ stays ∞)."""
        ev = self._edge_vals_label()
        return self._by_dst(np.where(ev == INF64, INF64, ev + 1), np.minimum)

    def _w_rounded(self) -> np.ndarray:
        if not hasattr(self, "_w_int"):
            self._w_int = np.rint(self.w).astype(np.int64)
        return self._w_int

    def scatter_minplus_w(self) -> list:
        """WEIGHTED shortest-paths scatter (Bellman-Ford relaxation):
        msg = dist(src) + w, integer edge weights (∞ stays ∞)."""
        ev = self._edge_vals_label()
        return self._by_dst(np.where(ev == INF64, INF64, ev + self._w_rounded()), np.minimum)

    def gather_min(self, sender_refs: list, j: int) -> int:
        new = np.minimum(self.val, self._combine(self._my_parts(sender_refs, j), "min"))
        changed = int((new != self.val).sum())
        self.val = new
        return changed

    def init_width(self, source: int) -> None:
        """Widest-path init: ∞ 'width' (INF64 sentinel) at the source, −1
        (unreachable) elsewhere."""
        self.val = np.full(self.n, np.int64(-1))
        self.val[self.owned == source] = INF64

    def scatter_maxmin_w(self) -> list:
        """Widest-path (bottleneck / max-min semiring) scatter:
        msg = min(width(src), w) with integer weights; an unreachable
        source value (−1) propagates −1 (no effect under the max gather)."""
        ev = self._edge_vals_label()
        ev = np.where(ev < 0, np.int64(-1), np.minimum(ev, self._w_rounded()))
        return self._by_dst(ev, np.maximum)

    def scatter_maxplus(self) -> list:
        """Longest-path layering scatter (max-plus semiring):
        msg = layer(src) + 1."""
        return self._by_dst(self._edge_vals_label() + 1, np.maximum)

    def gather_max(self, sender_refs: list, j: int) -> int:
        """Monotone max-combine (mirror of gather_min): widest-path widths
        and topo layers only ever improve, so max against the current
        value is the fixpoint iteration for both semirings."""
        new = np.maximum(self.val, self._combine(self._my_parts(sender_refs, j), "max"))
        changed = int((new != self.val).sum())
        self.val = new
        return changed

    def width_table(self) -> pa.Table:
        """(vid, width): the source's ∞ sentinel reports as 0 (width to
        itself, mirroring dist-to-self = 0), unreachable stays −1. No
        non-source vertex can hold INF64 — every message is ≤ max(w)."""
        w = np.where(self.val == INF64, 0, self.val)
        return pa.table(
            {"vid": pa.array(self.owned, type=pa.int64()),
             "width": pa.array(w, type=pa.int64())}
        )

    # -------------------------------------------------- label propagation
    # Synchronous LPA (A.3) and its seeded variant (A.3b: semi-supervised
    # community propagation, the hard-clamp variant of Zhu & Ghahramani
    # 2002). Seeded mode is shard state: ``lpa_seed_init`` sets the
    # ``lpa_frozen`` mask, seed vertices carry FROZEN labels, everyone else
    # starts unlabeled (-1) and adopts the weighted-majority label among
    # its LABELED neighbors — unlabeled neighbors cast no vote. Ties →
    # smallest label, the A.3 pinned rule, in both modes. State lives in
    # self.val (int64), so the ordinary hub sync works unchanged.

    def lpa_seed_init(self, seed_vids: np.ndarray, seed_labels: np.ndarray) -> int:
        """Set the seeded state; ``seed_vids`` must be sorted unique.
        Returns how many seeds this shard owns."""
        self.val = np.full(self.n, -1, np.int64)
        self.lpa_frozen = np.zeros(self.n, bool)
        if self.n == 0 or len(seed_vids) == 0:
            return 0
        idx = np.searchsorted(self.owned, seed_vids)
        ok = (idx < self.n) & (self.owned[np.minimum(idx, self.n - 1)] == seed_vids)
        self.val[idx[ok]] = np.asarray(seed_labels, np.int64)[ok]
        self.lpa_frozen[idx[ok]] = True
        return int(ok.sum())

    def scatter_label_hist(self) -> list:
        """LPA scatter: per dst-part runs of (uniq_idx, label, Σw); in
        seeded mode only LABELED sources (label ≥ 0) vote."""
        lab = self._edge_vals_label()
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            uidx, lj, wj = self.edge_uniq_idx[s:e], lab[s:e], self.w[s:e]
            if self.lpa_frozen is not None:
                keep = lj >= 0
                uidx, lj, wj = uidx[keep], lj[keep], wj[keep]
            if not len(uidx):
                out.append((np.empty(0, np.int64),) * 3)
                continue
            order = np.lexsort((lj, uidx))
            uo, lo, wo = uidx[order], lj[order], wj[order]
            rs = _runs(uo, lo)
            out.append((uo[rs], lo[rs], np.add.reduceat(wo, rs)))
        return out

    def gather_label_hist(self, sender_refs: list, j: int) -> int:
        """Merge the senders' (dst, label, Σw) runs, adopt each vertex's
        argmax label (ties → smallest); seeded mode never updates a
        frozen seed, and voteless vertices keep their label."""
        dsts, labs, cnts = [], [], []
        for i, (u, l, c) in enumerate(self._my_parts(sender_refs, j)):
            if len(u):
                dsts.append(self.ghost_locals[i][u])
                labs.append(l)
                cnts.append(c)
        if not dsts:
            return 0
        d = np.concatenate(dsts)
        l = np.concatenate(labs)
        c = np.concatenate(cnts)
        # merge duplicate (dst, label) pairs across senders
        order = np.lexsort((l, d))
        d, l, c = d[order], l[order], c[order]
        rs = _runs(d, l)
        d, l = d[rs], l[rs]
        c = np.add.reduceat(c, rs)
        # per dst: argmax count, tie → smallest label (pinned rule, SURVEY A.3)
        order2 = np.lexsort((l, -c, d))
        d2, l2 = d[order2], l[order2]
        first = _runs(d2)
        upd_dst, upd_lab = d2[first], l2[first]
        if self.lpa_frozen is not None:
            unfrozen = ~self.lpa_frozen[upd_dst]
            upd_dst, upd_lab = upd_dst[unfrozen], upd_lab[unfrozen]
        new_val = self.val.copy()
        new_val[upd_dst] = upd_lab
        changed = int((new_val != self.val).sum())
        self.val = new_val
        return changed

    # ------------------------------------------- dynamic (tol) PageRank (G2)

    def init_pr_dynamic(self, alpha: float, tol: float) -> None:
        """GraphX ``pageRank(tol)`` Pregel state after the initial message:
        rank = α, Δ = α, every vertex active (assuming α > tol).
        ``pr_msg`` is Δ masked to the active vertices — what they send, and
        what the hub sync ships."""
        self.val = np.full(self.n, alpha, np.float64)
        self.pr_active = np.full(self.n, alpha, np.float64) > tol
        self.pr_msg = np.where(self.pr_active, alpha, 0.0)

    def scatter_pr_delta(self) -> list:
        """Dynamic-PR scatter: only ACTIVE sources send, message =
        Δ(src)·w/outdeg(src). Inactive edges contribute exactly 0, which
        receivers use to distinguish 'no message' (Δ > tol > 0 and w ≥ 1 ⇒
        every real message is strictly positive)."""
        contrib = self.pr_msg / np.maximum(self.outdeg, 1.0)
        hub_contrib = None
        if len(self.hub_pos):
            hub_contrib = self.hub_pr_msg / np.maximum(self.hub_outdeg, 1.0)
        return self._by_dst(self._src_vals(contrib, hub_contrib) * self.w, np.add)

    def gather_pr_delta(self, sender_refs: list, j: int, alpha: float, tol: float) -> int:
        """r += (1−α)·m for receivers; Δ = (1−α)·m; active = received ∧
        Δ > tol (Pregel halt semantics: no message ⇒ no vprog ⇒ inactive).
        Returns the number of active vertices for termination."""
        acc = self._combine(self._my_parts(sender_refs, j), "sum")
        got = acc > 0.0
        delta = np.where(got, (1.0 - alpha) * acc, 0.0)
        self.val = self.val + delta
        self.pr_active = got & (delta > tol)
        self.pr_msg = np.where(self.pr_active, delta, 0.0)
        return int(self.pr_active.sum())

    # -------------------------------------------- personalized PageRank (G1p)
    # Single source: r⁰ = 1[v = s]. Parallel (GraphX
    # ``staticParallelPersonalizedPageRank``): K sources in one pass, rank
    # state = (n, K) matrix, messages = (uniq_dst, K) blocks, semantics
    # pinned to match ``personalized_pagerank`` per source. Both gather
    # through ``gather_sum`` with the source reset.

    def init_ppr(self, source: int) -> None:
        """r⁰ = 1 at the source, 0 elsewhere."""
        self.val = (self.owned == source).astype(np.float64)

    def init_ppr_multi(self, sources: list) -> None:
        """r⁰[:, k] = 1 at sources[k], 0 elsewhere — a (n, K) matrix."""
        srcs = np.asarray(sources, dtype=np.int64)
        self.val = (self.owned[:, None] == srcs[None, :]).astype(np.float64)

    def scatter_sum_multi(self) -> list:
        """(m, K) per-edge contributions w · r(src, ·)/outdeg(src), summed
        per unique destination."""
        contrib = self.val / np.maximum(self.outdeg, 1.0)[:, None]
        hub_contrib = None
        if len(self.hub_pos):
            hub_contrib = np.asarray(self.hub_val) / np.maximum(self.hub_outdeg, 1.0)[:, None]
        return self._by_dst(self._src_vals(contrib, hub_contrib) * self.w[:, None], np.add)

    def ppr_multi_table(self, sources: list) -> pa.Table:
        cols: dict = {"vid": pa.array(self.owned, type=pa.int64())}
        for k in range(len(sources)):
            cols[f"rank_{k}"] = pa.array(self.val[:, k])
        return pa.table(cols)

    # ------------------------------------------------------- generic Pregel
    # (GraphX ``Pregel.apply`` surface, vectorized: user callables operate
    # on whole numpy arrays, never per row. Activeness is pinned to
    # "value changed last superstep" — GraphX expresses the same pruning
    # through triplet-filtered sendMsg; with send_msg seeing only the
    # source side, src-changed is the natural vectorized equivalent.)

    def pregel_init(self, init_fn, initial_msg, vprog) -> None:
        """Vertex values from ``init_fn(owned_vids)``; if ``initial_msg`` is
        given, GraphX semantics apply it through ``vprog`` before the first
        superstep. All vertices start active."""
        vals = np.asarray(init_fn(self.owned))
        if initial_msg is not None:
            msg = np.full(self.n, initial_msg, dtype=vals.dtype)
            vals = np.asarray(vprog(vals, msg, np.ones(self.n, bool)))
        self.val = vals
        self.pregel_changed = np.ones(self.n, bool)

    def scatter_pregel(self, send_msg, merge: str, halt: str) -> list:
        """Per dst-part (merged partials, got flags). ``send_msg(src_vals,
        w, outdeg_src)`` is vectorized over this shard's edge slice;
        inactive edges (halt="changed") contribute the merge identity and
        are excluded from the got flags."""
        if not hasattr(self, "_edge_outdeg"):
            # static per-edge source out-degree for send_msg's third arg
            self._edge_outdeg = self._src_vals(self.outdeg, self.hub_outdeg)
        src_val = self._src_vals(self.val, self.hub_val)
        ev = np.asarray(send_msg(src_val, self.w, self._edge_outdeg))
        act = np.ones(self.m, bool)
        if halt == "changed":
            act = self._src_vals(self.pregel_changed, getattr(self, "hub_pregel_changed", None))
            ev = np.where(act, ev, self._merge_identity(ev.dtype, merge))
        return list(zip(self._by_dst(ev, self._UFUNCS[merge]), self._by_dst(act, np.maximum)))

    def gather_pregel(self, sender_refs: list, j: int, vprog, merge: str, halt: str) -> int:
        """Combine partials, run ``vprog(old, msg, got)`` vectorized.
        halt="changed": commit only where a message arrived (GraphX: vprog
        runs on receivers). halt="all": synchronous full update — commit
        every vertex (static-algorithm mode; msg holds the merge identity
        where nothing arrived). Returns how many values changed."""
        parts = self._my_parts(sender_refs, j)
        acc = self._combine([p[0] for p in parts], merge, self.val.dtype)
        got = self._combine([p[1] for p in parts], "max")
        res = np.asarray(vprog(self.val, acc, got))
        new = np.where(got, res, self.val) if halt == "changed" else res
        changed = new != self.val
        self.pregel_changed = changed
        self.val = new
        return int(changed.sum())

    # --------------------------------------------------- BFS parent pass (G8)

    def scatter_parent(self) -> list:
        """One post-fixpoint pass: per unique dst the lexicographic min of
        (dist(src)+1, src) over this shard's edges — receivers keep the min
        src among senders achieving their own distance."""
        d = self._edge_vals_label()  # dist(src) per edge, storage order
        d = np.where(d == INF64, INF64, d + 1)
        out = []
        for j in range(self.P):
            s, e = self.seg[j]
            if e == s:
                out.append((np.empty(0, np.int64), np.empty(0, np.int64)))
                continue
            uidx = self.edge_uniq_idx[s:e]
            dj = d[s:e]
            sj = self.src[s:e]
            order = np.lexsort((sj, dj, uidx))
            first = order[_runs(uidx[order])]
            out.append((dj[first], sj[first]))
        return out

    def gather_parent(self, sender_refs: list, j: int) -> None:
        """parent(v) = min src whose (dist+1) equals dist(v); source and
        unreachable vertices get -1. Stored in ``self.parent``."""
        best = self._combine(
            [np.where(dd == self.val[self.ghost_locals[i]], ss, INF64)
             for i, (dd, ss) in enumerate(self._my_parts(sender_refs, j))],
            "min",
        )
        # -1 for: no qualifying sender, the source itself (dist 0), and
        # unreachable vertices (dist ∞ — INF senders "match" INF trivially)
        none = (best == INF64) | (self.val == 0) | (self.val == INF64)
        self.parent = np.where(none, -1, best)

    def parent_table(self) -> pa.Table:
        dist = np.where(self.val == INF64, -1, self.val)
        return pa.table(
            {
                "vid": pa.array(self.owned, type=pa.int64()),
                "dist": pa.array(dist, type=pa.int64()),
                "parent": pa.array(self.parent, type=pa.int64()),
            }
        )

    # ------------------------------------------------ strongly connected (G8)

    # SCC state lives on the directed view (labels, the color fixpoint's
    # val); the reversed view gets what its passes need by an in-process
    # copy on the host (``ShardHost.copy``), and hands back the same way.

    def scc_init(self) -> int:
        """Every vertex unassigned (INF label); returns how many."""
        self.scc_label = np.full(self.n, INF64)
        return self.n

    def scc_reset_colors(self) -> None:
        """color = vid for unassigned vertices, INF for assigned (min
        identity — assigned vertices never win a propagation)."""
        self.val = np.where(self.scc_label == INF64, self.owned, INF64)

    def gather_min_unassigned(self, sender_refs: list, j: int) -> int:
        """Hash-min gather that never updates assigned vertices."""
        cand = self._combine(self._my_parts(sender_refs, j), "min")
        unassigned = self.scc_label == INF64
        new = np.where(unassigned, np.minimum(self.val, cand), self.val)
        changed = int((new != self.val).sum())
        self.val = new
        return changed

    def scc_adopt_colors(self) -> None:
        """Reached init on the reversed view, once the directed view's
        labels and colors were copied in as scc_label and scc_color: the
        root r of each color class (color == own vid) starts reached."""
        unassigned = self.scc_label == INF64
        self.scc_reached = unassigned & (self.scc_color == self.owned)
        self.val = np.where(self.scc_reached, self.scc_color, INF64)

    def gather_scc_reach(self, sender_refs: list, j: int) -> int:
        """Backward pass: v becomes reached iff some in-message label equals
        v's OWN color (label-histogram transport — a min-combine would let a
        smaller foreign color mask the matching one)."""
        new_reached = np.zeros(self.n, bool)
        for i, (u, l, _c) in enumerate(self._my_parts(sender_refs, j)):
            if len(u):
                loc = self.ghost_locals[i][u]
                ok = l == self.scc_color[loc]
                new_reached[loc[ok]] = True
        unassigned = self.scc_label == INF64
        adopt = new_reached & unassigned & ~self.scc_reached
        self.scc_reached |= adopt
        self.val = np.where(self.scc_reached, self.scc_color, INF64)
        return int(adopt.sum())

    # --- Trim phase (FW-BW-Trim): a vertex with no unassigned in-neighbor
    # OR no unassigned out-neighbor is a singleton SCC — peeling them
    # repeatedly collapses DAG-like regions in one superstep each instead
    # of a full coloring fixpoint per SCC (the documented worst case).

    def scc_trim_gather(self, sender_refs: list, j: int) -> None:
        """Record which owned vertices received ≥1 message from an
        UNASSIGNED neighbor (senders scatter val = vid|INF via
        scatter_min after scc_reset_colors; INF = assigned/no sender).
        On the directed view this marks has-unassigned-IN-neighbor; on
        the reversed view, has-unassigned-OUT-neighbor."""
        # some message is below INF ⇔ their min is
        self.trim_has = self._combine(self._my_parts(sender_refs, j), "min") != INF64

    def scc_trim_assign(self) -> tuple:
        """Assign label = own vid to every unassigned vertex missing an
        unassigned in-neighbor (``trim_has``) OR out-neighbor
        (``trim_has_out``, the reversed view's flags copied in); returns
        (#assigned, #still unassigned)."""
        unassigned = self.scc_label == INF64
        trim = unassigned & (~self.trim_has | ~self.trim_has_out)
        self.scc_label = np.where(trim, self.owned, self.scc_label)
        return int(trim.sum()), int((self.scc_label == INF64).sum())

    def scc_assign(self) -> int:
        """Commit the reached vertices (the reversed view's flags, copied
        in as scc_reached): label = color, the color fixpoint's val.
        Returns how many vertices stay unassigned."""
        self.scc_label = np.where(self.scc_reached, self.val, self.scc_label)
        return int((self.scc_label == INF64).sum())

    # ------------------------------------------------------ user aggregation

    def set_values_from(self, vids: np.ndarray, vals: np.ndarray) -> None:
        """Adopt user vertex values (vids sorted; picks the owned slice)."""
        idx = np.searchsorted(vids, self.owned)
        if len(self.owned) and not np.array_equal(vids[idx], self.owned):
            raise ValueError("vertex values missing for some owned vids")
        self.val = vals[idx].copy() if len(self.owned) else vals[:0].copy()

    def load_values_partition(self, path: str | None, value_col: str) -> None:
        """Adopt user vertex values from THIS part's hash-partitioned
        parquet slice (None: the part got no rows) — the scale path for
        aggregate_messages: the full vertex table never touches the
        driver."""
        if path is None:
            if self.n:
                raise ValueError(f"vertex values partition {self.part} missing")
            self.val = np.empty(0, np.float64)
            return
        t = pq.read_table(path, columns=["vid", value_col])
        vids = t["vid"].to_numpy()
        vals = t[value_col].to_numpy()
        order = np.argsort(vids)
        self.set_values_from(vids[order], vals[order])

    # --------------------------------------------- shortest-paths accumulation

    def store_dist(self, landmark: int) -> None:
        """Bank the converged distance vector for one landmark (−1 for
        unreachable) — accumulated shard-side so the driver never merges
        per-landmark vertex tables."""
        if not hasattr(self, "_dist_cols"):
            self._dist_cols: dict[int, np.ndarray] = {}
        self._dist_cols[int(landmark)] = np.where(self.val == INF64, -1, self.val)

    def dist_table(self, landmarks: list[int]) -> pa.Table:
        cols: dict = {"vid": pa.array(self.owned, type=pa.int64())}
        for lm in landmarks:
            cols[f"dist_{lm}"] = pa.array(self._dist_cols[int(lm)], type=pa.int64())
        return pa.table(cols)

    def scatter_user(self, edge_msg, agg: str) -> list:
        """One generic scatter: ``edge_msg(src_val, w) -> msg`` per edge,
        pre-aggregated per destination with the ``agg`` ufunc (G7)."""
        ev = np.asarray(edge_msg(self._src_vals(self.val, self.hub_val), self.w))
        return self._by_dst(ev, self._UFUNCS[agg])

    def gather_user(self, sender_refs: list, j: int, agg: str) -> int:
        """Combine partials into (vid, agg_value) for the vertices that
        received ≥1 message (GraphFrames aggregateMessages semantics),
        PARKED in the actor and collected through ``result_table``.
        Returns its row count."""
        parts = self._my_parts(sender_refs, j)
        if not any(len(v) for v in parts):
            self._user_agg = pa.table({"vid": pa.array([], pa.int64()),
                                       "agg_value": pa.array([], pa.float64())})
            return 0
        acc = self._combine(parts, agg)
        got = self._combine([np.ones(len(v), bool) for v in parts], "max")
        self._user_agg = pa.table(
            {"vid": pa.array(self.owned[got]), "agg_value": pa.array(acc[got])}
        )
        return self._user_agg.num_rows

    # ------------------------------------------- coreness H-index fixpoint
    # (Lü et al. 2016: c⁰ = degree; cₜ₊₁(v) = H({cₜ(u) : u ∈ N(v)}).
    # Requires SYMMETRIC, UNSALTED staging: every vertex's full
    # neighborhood must be shard-local, since H is not edge-decomposable.
    # One exchange per round: owners send the c values of every sender's
    # ghost destinations, each part reduces H over its own edges — the
    # per-vertex c vectors never leave the actors.

    def hindex_init(self) -> int:
        """val = c⁰ = degree (Σw over the symmetric out-slice). Returns n."""
        if len(self.hubs):
            raise ValueError("coreness requires unsalted staging "
                             "(hub splitting breaks neighborhood locality)")
        self.val = np.rint(self.outdeg).astype(np.int64)
        return self.n

    def hindex_ghost_vals(self) -> list:
        """Per-REQUESTER c values: element i is aligned to requester i's
        unique-dst slice destined to this part (the cached ghost index
        from the one-time exchange) — the pull mirror of the scatter
        path's push."""
        return [self.val[loc] for loc in self.ghost_locals]

    def hindex_step(self, sender_refs: list, j: int) -> int:
        """One H-index round: expand the owners' c values over this
        part's edges via the unique-dst runs, reduce H per owned source,
        commit. Returns how many c values changed."""
        nc = self._per_edge(self._my_parts(sender_refs, j), np.int64)
        if self.m == 0:
            return 0
        order = np.lexsort((-nc, self.src))
        vi = self.src[order]
        nci = nc[order]
        starts = _runs(vi)
        lens = np.diff(np.append(starts, self.m))
        rank = np.arange(self.m) - np.repeat(starts, lens) + 1
        h = np.maximum.reduceat(np.minimum(rank, nci), starts)
        loc = np.searchsorted(self.owned, vi[starts])
        newc = self.val.copy()
        newc[loc] = h
        changed = int((newc != self.val).sum())
        self.val = newc
        return changed

    # ----------------------------------------------- densest-subgraph peel
    # (Bahmani, Kumar & Vazirani 2012.) ``val`` is the alive flag (1.0 /
    # 0.0, sent along the canonical simple graph and summed by
    # ``scatter_user``); round r's degrees come from one exchange, and
    # every shard folds the P partial (V, 2E) itself, so the peel and
    # the best prefix are decided on the shards, identically everywhere.

    def densest_degrees(self, sender_refs: list, j: int) -> tuple:
        """Round degrees: alive neighbors of every alive vertex. Returns
        this part's (V, 2E) partial: the vertices with degree > 0, and
        their degree sum."""
        acc = self._combine(self._my_parts(sender_refs, j), "sum", np.float64)
        self.ddeg = np.where(self.val > 0, acc, 0).astype(np.int64)
        return int((self.ddeg > 0).sum()), int(self.ddeg.sum())

    def densest_peel(self, factor: int, r: int, *partials: tuple) -> tuple:
        """Round r of the peel with the global V and E = Σdeg/2: every
        vertex with degree > 0 was in round r (``dlast``); those with
        deg·V ≤ factor·E leave, as do the isolated ones. The best prefix
        is the exact rational argmax of E/V, ties → earliest round.
        Round 0 starts ``dlast`` at −1 and the best at none. Returns
        (V, E, best round, vertices dropped here)."""
        if r == 0:
            self.dlast = np.full(self.n, -1, np.int64)
            self.dbest = None
        n_v = sum(p[0] for p in partials)
        n_e = sum(p[1] for p in partials) // 2
        live = self.ddeg > 0
        self.dlast[live] = r
        drop = live & (self.ddeg * n_v <= factor * n_e)
        self.val = np.where(live & ~drop, 1.0, 0.0)
        if n_v and (self.dbest is None or n_e * self.dbest[1] > self.dbest[2] * n_v):
            self.dbest = (r, n_v, n_e)
        best = self.dbest[0] if self.dbest else -1
        return n_v, n_e, best, int(drop.sum())

    # --------------------------------------------------- HyperANF counters

    def hll_fold(self, p: int, t: int) -> int:
        """HyperANF's ball fold at step t: every vertex's 2^p HLL registers
        (``val``, one int64 row per vertex, merged by the
        ``scatter_max``/``gather_max`` exchange) estimate |ball(v, t)|,
        kept as ``floor(est + 0.5)`` in column t of ``balls``. At t = 0
        each counter starts as {v}. The sum runs over the present
        registers (rho > 0) in ascending register order, then adds the
        m − present absent ones (2⁰ each); the linear-counting correction
        covers the small range. Returns Σ ball over the vertices with an
        edge (the neighborhood function N(t) of this part)."""
        m = 1 << p
        if t == 0:
            reg, rho = hll_registers(mix64(self.owned.astype(np.uint64)), p)
            self.val = np.zeros((self.n, m), np.int64)
            self.val[np.arange(self.n), reg] = rho
            self.balls = np.empty((self.n, 0), np.int64)
        present = self.val > 0
        npres = present.sum(axis=1)
        ball = np.empty(self.n, np.int64)
        if self.n:
            starts = np.cumsum(npres) - npres
            s = np.add.reduceat(np.power(2.0, -self.val[present].astype(np.float64)), starts)
            zeros = m - npres
            raw = hll_alpha(m) * m * m / (s + zeros)
            with np.errstate(divide="ignore"):
                lin = m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
            est = np.where((raw <= 2.5 * m) & (zeros > 0), lin, raw)
            ball = np.floor(est + 0.5).astype(np.int64)
        self.balls = np.column_stack([self.balls, ball])
        return int(ball[self.outdeg > 0].sum())

    # ------------------------------------------------ checkpoints and results

    def state_table(self, cols: dict) -> pa.Table:
        """(vid, <column> ...) with each column taken from the shard
        attribute ``cols`` maps it to — a checkpoint part or a result
        part."""
        t = {"vid": pa.array(self.owned, type=pa.int64())}
        for col, attr in cols.items():
            v = getattr(self, attr)
            # a 2-D vector becomes a fixed-size list column, a row per vertex
            t[col] = (pa.array(v) if v.ndim == 1 else
                      pa.FixedSizeListArray.from_arrays(pa.array(v.ravel()), v.shape[1]))
        return pa.table(t)

    def load_state(self, path: str, cols: dict) -> None:
        """Restore the attributes ``cols`` names from a ``state_table``
        checkpoint part; a restored vector ends any seeded-LPA run."""
        t = pq.read_table(path)
        if not np.array_equal(t["vid"].to_numpy(), self.owned):
            raise ValueError(f"checkpoint part mismatch at {path}")
        for col, attr in cols.items():
            setattr(self, attr, t[col].to_numpy().copy())
        self.lpa_frozen = None

    def user_agg_table(self) -> pa.Table:
        return self._user_agg

    def result_table(self, method: str, args: list, rename: list | None = None) -> pa.Table:
        """Table method ``method(*args)`` with its columns renamed: one part
        of an algorithm's result, returned through the object store or
        written by ``write_result``."""
        t = getattr(self, method)(*args)
        return t.rename_columns(rename) if rename else t

    def write_result(self, path: str, method: str, args: list,
                     rename: list | None = None) -> int:
        """Atomic per-part parquet dump of ``result_table`` — every
        checkpoint part, and a result's parts under ``output_path``."""
        return _write_parquet(self.result_table(method, args, rename), path)

    def stats(self) -> dict:
        return {
            "part": self.part,
            "n_vertices": self.n,
            "n_edges": self.m,
            "ghost_out": int(sum(len(u) for u in self.uniq_dst)),
        }


# ---------------------------------------------------------------------- host


def load_directed(part: int, num_parts: int, manifest: dict,
                  route: str = "packed") -> CsrShard:
    """Partition ``part`` of ``stage_graph``'s directed staging as a
    shard."""
    vdir = manifest["verts"].path(part)
    # unique (not just sort): staging writes block-local vid partials
    # without a global dedup shuffle — equal vids co-partition, so the
    # partition-local unique completes the dedup deterministically
    owned = (
        np.unique(pq.read_table(vdir, columns=["vid"])["vid"].to_numpy())
        if vdir is not None
        else np.empty(0, np.int64)
    )
    edir = manifest["edges"].path(part)
    if edir is not None:
        et = pq.read_table(edir, columns=["src", "dst", "w"])
        src, dst, w = (et[c].to_numpy() for c in ("src", "dst", "w"))
    else:
        src = dst = np.empty(0, np.int64)
        w = np.empty(0, np.float64)
    return CsrShard(part, num_parts, owned, src, dst, w,
                    manifest.get("hubs", []), route)


def _reversed(src, dst, w):
    return dst, src, w


def _undirected_weighted(src, dst, w):
    """Both directions of every edge with its weight; a self-loop stays,
    twice."""
    return np.concatenate([src, dst]), np.concatenate([dst, src]), np.tile(w, 2)


def _unique_pairs(src, dst):
    """Distinct (src, dst) pairs, sorted."""
    if not len(src):
        return src, dst
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    rs = _runs(src, dst)
    return src[rs], dst[rs]


def _undirected(src, dst, w):
    """The canonical simple graph: distinct pairs u≠v, both directions,
    w = 1 (input weights and self-loops ignored)."""
    keep = src != dst
    u, v = _unique_pairs(np.minimum(src, dst)[keep], np.maximum(src, dst)[keep])
    return np.concatenate([u, v]), np.concatenate([v, u]), np.ones(2 * len(u))


# every view a host derives from the directed one: directed edges → its edges
VIEWS = {
    "reversed": _reversed,
    "undirected_weighted": _undirected_weighted,
    "undirected": _undirected,
}


def _split(part: np.ndarray, num_parts: int, *cols: np.ndarray) -> list:
    """``cols`` split by ``part``: one tuple of arrays per part."""
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(num_parts + 1))
    cols = [c[order] for c in cols]
    return [tuple(c[bounds[j]:bounds[j + 1]] for c in cols) for j in range(num_parts)]


class ShardHost:
    """One partition's actor, holding every shard object loaded into it by
    name: a Graph's views (``"directed"``, and the views in ``VIEWS`` it
    derives here), or a pipeline's own shard. The driver reaches a shard
    through ``call``; hosts outlive the Graphs that use them
    (pipelines/graph.py, "Recycled hosts").

    Deriving a view is one exchange: every host maps its directed edges
    to the view's edges and sends each to the owner of its new source
    (``send_view``, one packed object per sender); each receiver
    concatenates its input in ascending sender order (``recv_view``).
    The shard then sorts by a total key, so the view's storage order is a
    function of its edge multiset alone. With a salt threshold, the
    receiver knows the view's full out-degree of every vertex it owns:
    its hubs are found locally, and after the driver merges and
    broadcasts them, ``spread_hubs`` moves hub edges to the owner of
    their destination before ``build_view``."""

    def __init__(self):
        self.views: dict = {}
        self._pending: dict = {}

    def load(self, name: str, factory, *args) -> None:
        """Drop whatever this host held and install ``factory(*args)`` as
        ``name``."""
        self.release()
        self.views[name] = factory(*args)

    def release(self) -> None:
        """Drop every shard before the host goes idle."""
        self.views = {}
        self._pending = {}

    def call(self, name: str, method: str, *args):
        return getattr(self.views[name], method)(*args)

    def copy(self, src: str, dst: str, attrs: dict) -> None:
        """Copy shard ``src``'s attributes into shard ``dst`` ({dst
        attribute: src attribute}): two views of one partition own the
        same vids, so per-vertex state moves between them in process."""
        for a, b in attrs.items():
            setattr(self.views[dst], a, np.copy(getattr(self.views[src], b)))

    # ----------------------------------------------------- view derivation

    def send_view(self, view: str) -> list:
        d = self.views["directed"]
        src, dst, w = VIEWS[view](*d.edges())
        return _split(part_of(src, d.P), d.P, src, dst, w)

    def recv_view(self, view: str, sent: list, threshold: int | None) -> np.ndarray:
        """Take this part's slice of every sender's ``send_view`` output;
        return the owned vertices whose out-degree (Σw) in the view
        exceeds ``threshold``, sorted."""
        d = self.views["directed"]
        got = [lists[d.part] for lists in ray.get(sent)]
        src, dst, w = (np.concatenate([g[k] for g in got]) for k in range(3))
        if view == "undirected":  # a pair may arrive from two senders
            src, dst = _unique_pairs(src, dst)
            w = np.ones(len(src))
        self._pending[view] = (src, dst, w)
        if threshold is None or not len(src):
            return np.empty(0, np.int64)
        uniq, inv = np.unique(src, return_inverse=True)
        return uniq[np.bincount(inv, weights=w) > threshold]

    def spread_hubs(self, view: str, hubs: np.ndarray) -> list:
        """Send the view's hub out-edges to the owners of their
        destinations, one packed object; keep the rest."""
        d = self.views["directed"]
        src, dst, w = self._pending[view]
        hub = np.isin(src, hubs)
        self._pending[view] = (src[~hub], dst[~hub], w[~hub])
        return _split(part_of(dst[hub], d.P), d.P, src[hub], dst[hub], w[hub])

    def build_view(self, view: str, hubs: np.ndarray, moved: list) -> int:
        """Install the view's shard from the kept edges plus this part's
        slice of every ``spread_hubs`` output. Returns its edge count."""
        d = self.views["directed"]
        cols = [self._pending.pop(view)]
        cols += [lists[d.part] for lists in ray.get(moved)]
        src, dst, w = (np.concatenate([c[k] for c in cols]) for k in range(3))
        shard = CsrShard(d.part, d.P, d.owned, src, dst, w, hubs, d.route)
        self.views[view] = shard
        return shard.m
