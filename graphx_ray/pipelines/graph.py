"""Graph facade + the superstep drivers of every iterative algorithm
(SURVEY.md §2.8).

Semantics are pinned to the published GraphFrames/GraphX contracts recorded
in SURVEY.md Appendix A (the reference wrapped GraphFrames thinly; its mount
was empty, so Appendix A is the contract the north_rule binds to):

- ``pagerank``: r0=1, r' = α + (1−α)·Σ w·r(u)/outdeg(u); parallel edges
  (weights) count; NO dangling redistribution, NO normalization (A.1).
- ``connected_components``: min-vid label over the canonical undirected
  graph; isolated vertices are singletons (A.2).
- ``label_propagation``: synchronous, undirected influence with parallel-
  edge weight; tie → smallest label (pinned rule, A.3).
- ``triangle_count``: canonical simple graph, per-vertex counts (A.4) —
  non-iterative path in pipelines/triangles.py.

Iterative algorithms run over ``CsrShard`` partitions: scatter
(per-destination-partition pre-aggregated partials) → ref-routed shuffle
through the object store → gather. Every iterative algorithm runs on ONE
loop, ``Graph._supersteps``, and no exchange is dispatched anywhere but
``Graph._superstep``. A superstep is a list of phases — exchanges, and
per-shard calls, some of which fold the previous phase's P results on
every shard (HITS and SALSA sum their norms and hub partials that way,
matching tuple-max-merges its hub bests); a function of the iteration
gives each superstep its own list (the walks, Brandes' levels, matching
and MIS rounds). The loop owns the resume start, the salted-hub sync at
the start of each superstep (every shard merges the owners' hub values
itself, ``_hub_sync``), the dispatch window, one metrics.jsonl record
per superstep, the per-superstep checkpoint (resume replays from the
last complete manifest) and the stop test on the gather results.
Algorithms made of several fixpoints nest ``_supersteps`` calls in a
driver loop, as ``shortest_paths`` loops over landmarks: greedy coloring
runs one MIS per color, SCC its trim, color and reach fixpoints per
round, Brandes a forward and a backward pass per pivot batch.

The window rule: up to 4 supersteps are dispatched per driver barrier
(an actor runs its calls in submission order, so superstep k+1 queues
behind superstep k), unless the call stops on a gather result — that
needs the driver after every superstep, so its window is 1. Salted hubs
keep the window: their sync is two phases of the superstep. A checkpoint
keeps the window too: every shard's part write for superstep k is
queued right after it, and the manifests are written after the barrier,
in order. Results are collected by ``_result_ds``: the shards' result
tables stay in the object store and become a Dataset through
``rd.from_arrow_refs``.

One host per partition. A Graph runs on P ``csr.ShardHost`` actors,
whatever its algorithms use: ``_pool(variant)`` stages the directed edges
once (the first call), loads them into the hosts, and derives the
reversed and undirected views inside the hosts the first time an
algorithm asks for them (csr.py module docstring). It returns P thin
handles (``_View``) bound to (host, view), which the drivers call as
they would actors.

Hosts are recycled. Starting one costs a process plus the import of
``state.csr`` (~2.5 s for a pool of 4 on a 4-core host, against ~0.1 s to
load the shards), so ``close()`` does not kill a pool: it releases every
view and parks the hosts on a module-level idle list, and the next pool
(this or any later Graph, or the SVD++ and truss pipelines) reloads idle
hosts first and starts new ones only for the shortfall. Lifecycle:

- ``close()`` is what makes a pool reusable. A Graph that is never closed
  keeps its hosts until their handles go out of scope; Ray then kills them.
- The idle list only grows to the most hosts alive at once, and each idle
  host costs about 105-110 MB PSS. Hosts found dead are dropped, and the
  list of an ended Ray session is never used.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from graphx_ray.context import register_spill
from graphx_ray.state import checkpoint as ckpt
from graphx_ray.state import csr


def _as_dataset(x) -> Dataset:
    if isinstance(x, Dataset):
        return x
    if isinstance(x, pa.Table):
        return rd.from_arrow(x)
    if isinstance(x, pd.DataFrame):
        return rd.from_pandas(x)
    raise TypeError(f"expected Dataset/Table/DataFrame, got {type(x)}")


def _limit(max_iter: int | None) -> int:
    """A fixpoint loop's superstep budget: unbounded unless pinned."""
    return max_iter if max_iter is not None else 1 << 30


def _changed(res: list) -> dict:
    return {"changed": int(sum(res))}


def _settled(rec: dict) -> bool:
    return rec["changed"] == 0


def _mis_summary(res: list) -> dict:
    return {"in_mis": int(sum(r[0] for r in res)), "active": int(sum(r[1] for r in res))}


def _mis_done(rec: dict) -> bool:
    return rec["active"] == 0


def _get_all(nested: list) -> list:
    """``ray.get`` over a list of ref lists in ONE driver barrier; the
    values come back in the same nesting."""
    flat = iter(ray.get([r for refs in nested for r in refs]))
    return [[next(flat) for _ in refs] for refs in nested]


def _default_parts() -> int:
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(2, min(ncpu, 64))


# num_cpus=0: host actors compute only while no Ray Data tasks are running
# (supersteps are the sole active stage), and a pool that RESERVED P CPUs
# would starve the Ray Data stages that run between supersteps (staging,
# result read-back, a pipeline's own stages) on a busy node (observed
# deadlock). Ray's logical CPUs are admission control, not an OS limit.
_Host = ray.remote(num_cpus=0)(csr.ShardHost)

# Idle host actors of the current Ray session, keyed by (node id, job id):
# a list left over from an earlier session is dropped, never used. Graphs
# and pipelines on several threads share it, so take and return hosts
# under the lock.
_IDLE: dict[tuple, list] = {}
_IDLE_LOCK = threading.Lock()


def _idle_shards() -> list:
    ctx = ray.get_runtime_context()
    key = (ctx.get_node_id(), ctx.get_job_id())
    if key not in _IDLE:
        _IDLE.clear()
        _IDLE[key] = []
    return _IDLE[key]


def _load_hosts(P: int, name: str, factory, *args) -> list:
    """P host actors, host p holding ``factory(p, *args)`` as ``name``:
    idle hosts are reused, and new ones start only for the shortfall (or
    to replace an idle host that died)."""
    with _IDLE_LOCK:
        idle = _idle_shards()
        hosts = idle[:P]
        del idle[:P]
    hosts += [_Host.remote() for _ in range(len(hosts), P)]
    loads = [h.load.remote(name, factory, p, *args) for p, h in enumerate(hosts)]
    for p, ref in enumerate(loads):
        try:
            ray.get(ref)
        except ray.exceptions.RayActorError:
            hosts[p] = _Host.remote()
            ray.get(hosts[p].load.remote(name, factory, p, *args))
    return hosts


def _park_hosts(hosts: list) -> None:
    """Release every shard the hosts hold and put them on the idle list,
    where the next pool reuses them; a host that died is dropped."""
    released = [(h, h.release.remote()) for h in hosts]
    alive = []
    for h, ref in released:
        try:
            ray.get(ref)
        except ray.exceptions.RayActorError:
            continue
        alive.append(h)
    with _IDLE_LOCK:
        _idle_shards().extend(alive)


class _View:
    """Driver handle of one named shard on a host: ``view.m.remote(*a)``
    and ``view.m.options(num_returns=P).remote(*a)`` run ``m`` on that
    shard, so the algorithm drivers call views as they would actors."""

    __slots__ = ("host", "name")

    def __init__(self, host, name: str):
        self.host = host
        self.name = name

    def __getattr__(self, method: str):
        if method.startswith("__"):
            raise AttributeError(method)
        return _ViewCall(self.host.call, (self.name, method))


class _ViewCall:
    __slots__ = ("call", "head")

    def __init__(self, call, head: tuple):
        self.call = call
        self.head = head

    def remote(self, *args):
        return self.call.remote(*self.head, *args)

    def options(self, **kw):
        return _ViewCall(self.call.options(**kw), self.head)


class Graph:
    """A property graph: directed weighted edges (src, dst[, w]) + optional
    vertex table (vid, ...). The GraphFrames-equivalent query surface."""

    def __init__(
        self,
        edges,
        vertices=None,
        *,
        num_parts: int | None = None,
        workdir: str | None = None,
        salt_threshold: int | None = None,
        scatter_route: str | None = None,
    ):
        self.edges = _as_dataset(edges)
        self.vertices = _as_dataset(vertices) if vertices is not None else None
        self.P = num_parts or _default_parts()
        # a workdir of our own is a spill: cleanup_spills()/atexit remove it
        self.workdir = workdir or register_spill(
            tempfile.mkdtemp(prefix="graphx_ray_", dir="/tmp")
        )
        self.salt_threshold = salt_threshold
        # Superstep message routing (csr.py module docstring):
        # "packed" — one scatter object per sender per superstep, receivers
        # slice their partition (optimal single-node: avoids P² tiny store
        # entries serializing on the plasma lock).
        # "per_dest" — scatters run with num_returns=P so each destination's
        # partial is its own object and a receiver pulls ONLY its partition;
        # the multi-node default (no P× pull amplification over the network).
        self.route = scatter_route or "packed"
        if self.route not in ("packed", "per_dest"):
            raise ValueError(self.route)
        self._staged: dict | None = None  # stage_graph's directed manifest
        self._hosts: list | None = None  # P ShardHost actors
        self._actors: dict = {}  # variant -> (view handles, manifest)
        self._rseq = 0  # walk-rows directory counter

    # ------------------------------------------------------------------ infra

    def _pool(self, variant: str):
        """The ``variant`` view of this Graph as P handles, one per host,
        and its manifest. The first call stages the directed edges and
        loads them into P hosts; every other view is derived inside the
        hosts (``csr.ShardHost``), with no further staging pass."""
        if variant in self._actors:
            return self._actors[variant]
        if variant != "directed" and variant not in csr.VIEWS:
            raise ValueError(variant)
        if self._staged is None:
            self._staged = csr.stage_graph(
                self._with_weight(self.edges), self.vertices,
                os.path.join(self.workdir, "directed"), self.P,
                salt_threshold=self.salt_threshold,
            )
        if self._hosts is None:
            self._hosts = _load_hosts(
                self.P, "directed", csr.load_directed, self.P, self._staged, self.route
            )
        man = {**self._staged, "variant": variant}
        if variant != "directed":
            man["hubs"] = self._derive(variant).tolist()
        actors = [_View(h, variant) for h in self._hosts]
        # one-time ghost index exchange: receiver j caches the local
        # indices of every sender's unique destinations; on a salted view
        # every shard then sums the hubs' out-degree partials
        setup = [(("uniq_dsts",), ("cache_ghost_locals",))]
        if man["hubs"]:
            setup += [("hub_outdeg_part",), ("set_hub_outdeg", ...)]
        ray.get(self._superstep(actors, setup))
        self._actors[variant] = (actors, man)
        return actors, man

    def _derive(self, variant: str) -> np.ndarray:
        """Build ``variant``'s shard on every host from the directed ones
        (``csr.ShardHost``); returns the view's salted hubs, sorted."""
        hosts = self._hosts
        sent = [h.send_view.remote(variant) for h in hosts]
        found = ray.get(
            [h.recv_view.remote(variant, sent, self.salt_threshold) for h in hosts]
        )
        hubs = np.sort(np.concatenate(found))  # owners are disjoint
        moved = [h.spread_hubs.remote(variant, hubs) for h in hosts] if len(hubs) else []
        ray.get([h.build_view.remote(variant, hubs, moved) for h in hosts])
        return hubs

    def _wave(self, actors, scatter: tuple, gather: tuple) -> list:
        """Dispatch one exchange: ``scatter`` = (method, *args) on every
        shard, then ``gather`` = (method, *args) on each receiver j with
        its routed refs and j. Returns the gather refs (no barrier).

        "packed": each sender returns ONE object of P partials — every
        receiver gets the same ref list and slices its partition.
        "per_dest": ``num_returns=P`` makes Ray store each partial as its
        own object; receiver j gets refs to exactly its P partials."""
        # with P == 1 Ray returns a bare ObjectRef from num_returns=1 and
        # the [i][j] indexing would break — the two routes are identical
        # there, so fall back to packed (ADVICE r3)
        if self.route == "per_dest" and self.P > 1:
            futs = [
                getattr(a, scatter[0]).options(num_returns=self.P).remote(*scatter[1:])
                for a in actors
            ]
            routed = [[futs[i][j] for i in range(self.P)] for j in range(self.P)]
        else:
            routed = [[getattr(a, scatter[0]).remote(*scatter[1:]) for a in actors]] * self.P
        return [
            getattr(actors[j], gather[0]).remote(routed[j], j, *gather[1:])
            for j in range(self.P)
        ]

    @staticmethod
    def _hub_sync(man, names=("val",)) -> list:
        """The two phases that give every shard the salted hubs' current
        ``names`` vectors (shard attributes) as ``hub_<name>``: each shard
        returns the hubs it owns (``hub_state``), and every shard merges
        all P parts by vid (``set_hub_state``). A hub's out-edges span all
        shards, so every scatter reads the hub's value from its local
        replica. No phases on a view without salted hubs."""
        if not man.get("hubs") or not names:
            return []
        return [("hub_state", list(names)), ("set_hub_state", list(names), ...)]

    def _result_ds(
        self, actors, method: str, *args, output_path: str | None = None,
        as_table: bool = False, rename: list | None = None,
        parts: list[int] | None = None,
    ):
        """An algorithm's result: one table per shard from its
        ``method(*args)``, columns renamed on the shard
        (``CsrShard.result_table``).

        - Default: each table stays in the object store as the return of
          its actor call (an object the driver owns, so it outlives the
          host that made it), wrapped as ``rd.from_arrow_refs``: no part
          files, no read job, nothing O(V) on the driver (VERDICT r3 #2).
        - ``as_table``: the same tables concatenated on the driver — the
          opt-in small-graph path, the ONLY O(V) driver concat.
        - ``output_path``: per-part parquet there, read back lazily.

        ``parts`` restricts which shards contribute (aggregate_messages
        skips message-less parts, whose empty table has a placeholder
        dtype)."""
        idx = parts if parts is not None else range(len(actors))
        if output_path and not as_table:
            # read back ONLY the part files just written — a reused
            # output_path with stale part-*.parquet must not leak in
            paths = [os.path.join(output_path, f"part-{p}.parquet") for p in idx]
            ray.get(
                [
                    actors[p].write_result.remote(path, method, list(args), rename)
                    for path, p in zip(paths, idx)
                ]
            )
            return rd.read_parquet(paths)
        refs = [actors[p].result_table.remote(method, list(args), rename) for p in idx]
        return pa.concat_tables(ray.get(refs)) if as_table else rd.from_arrow_refs(refs)

    def _fingerprint(self, algo: str, params: dict, man: dict) -> dict:
        return {"algo": algo, "params": params, "P": self.P, "variant": man["variant"]}

    def _checkpoint_parts(self, actors, ckpt_dir, it, cols) -> list:
        """Queue superstep ``it``'s checkpoint part on every shard: one
        file holding the (column → shard attribute) ``cols``. Returns the
        row-count refs (no barrier)."""
        return [
            a.write_result.remote(ckpt.part_path(ckpt_dir, it, p), "state_table", [cols])
            for p, a in enumerate(actors)
        ]

    def _checkpoint(self, actors, ckpt_dir, it, fp, cols, metrics,
                    rows: list | None = None) -> None:
        """Superstep ``it``'s checkpoint: its part files (``rows``, the
        per-part row counts of parts already written, or written now),
        then the manifest."""
        if rows is None:
            rows = ray.get(self._checkpoint_parts(actors, ckpt_dir, it, cols))
        ckpt.write_manifest(
            ckpt_dir, it, fp, {str(p): r for p, r in enumerate(rows)}, metrics
        )

    def _resume(self, actors, ckpt_dir, fp, cols) -> int:
        """Load the newest complete checkpoint; return the next iteration."""
        if not ckpt_dir:
            return 0
        it = ckpt.latest_complete(ckpt_dir, fp)
        if it is None:
            return 0
        ray.get(
            [
                a.load_state.remote(ckpt.part_path(ckpt_dir, it, p), cols)
                for p, a in enumerate(actors)
            ]
        )
        return it + 1

    def _record(self, algo: str, it: int, wall: float, fields: dict,
                actors=None, checkpoint: tuple | None = None, window: int = 1) -> dict:
        """One superstep's metrics.jsonl record (``wall_s`` is the average
        over the ``window`` supersteps that shared one driver barrier),
        and its checkpoint when ``checkpoint`` = (dir, fingerprint, cols)
        names a directory."""
        rec = {"algo": algo, "iteration": it, "wall_s": wall, "window": window, **fields}
        ckpt.append_metrics(self.workdir, rec)
        if checkpoint and checkpoint[0]:
            self._checkpoint(actors, checkpoint[0], it, checkpoint[1], checkpoint[2], rec)
        return rec

    def _superstep(self, actors, phases: list) -> list:
        """Dispatch ``phases`` with no barrier. Returns every phase's P
        result refs, phase after phase, in one list.

        - An exchange is (scatter, gather), each (shard method, *args).
        - A call is (method, *args) on every shard; a trailing ``...``
          stands for the previous phase's P result refs, which Ray
          resolves to values on the shard — a fold, such as a sum every
          shard computes for itself.
        - (handles, phase) runs the phase on those handles instead of
          ``actors``: another view of the same hosts, or the hosts."""
        refs, prev = [], []
        for phase in phases:
            on = actors
            if isinstance(phase[0], list):
                on, phase = phase
            if isinstance(phase[0], str):
                args = phase[1:]
                if args and args[-1] is ...:
                    args = args[:-1] + tuple(prev)
                prev = [getattr(a, phase[0]).remote(*args) for a in on]
            else:
                prev = self._wave(on, phase[0], phase[1])
            refs += prev
        return refs

    def _supersteps(
        self, actors, man, algo: str, scatter: tuple = (), gather: tuple = (), *,
        phases=None, max_iter: int, summary, stop=None,
        init: tuple | list | None = None, first: int = 0, checkpoint: tuple | None = None,
        resume: bool = False, hub_state: tuple = ("val",),
    ) -> dict | None:
        """The superstep loop of every algorithm built from exchanges.

        - A superstep runs ``phases``, by default the one exchange
          ``(scatter, gather)``; a function of the iteration gives each
          superstep its own list. A phase is an exchange — (scatter,
          gather), each (shard method, *args); every gather also gets its
          ref list and its part — or a per-shard call; see ``_superstep``.
        - Start: with ``resume``, the newest complete checkpoint of
          ``checkpoint`` = (dir, fingerprint, cols); otherwise iteration
          ``first``, after the ``init`` phases (one call, or a list of
          phases) ran on every shard.
        - On a salted graph every superstep starts with the hub sync of
          the ``hub_state`` vectors (an empty tuple skips it; a driver
          that syncs mid-superstep places ``_hub_sync`` phases itself).
        - ``summary(last phase's results)`` gives the superstep's metrics
          fields; each superstep writes one metrics.jsonl record and,
          with a checkpoint dir, one checkpoint.
        - ``stop(record)`` ends the run early.

        Window rule: actor calls from one submitter run in submission
        order, so superstep k+1 on an actor queues behind superstep k —
        up to 4 supersteps are dispatched per driver barrier. A
        checkpoint part is queued on every shard right after its
        superstep's last phase, so it holds exactly that superstep's
        state; after the barrier the manifests follow in iteration order,
        each once all its parts exist, and a kill mid-window resumes from
        the newest complete one. A stop test needs the driver after every
        superstep: window 1 there. Returns the last record (None when no
        superstep ran)."""
        step = phases if callable(phases) else (lambda it: phases or [(scatter, gather)])
        ckpt_dir, fp, cols = checkpoint or (None, None, None)
        start = self._resume(actors, ckpt_dir, fp, cols) if resume else 0
        if start == 0:
            start = first
            if init:
                ray.get(self._superstep(actors, init if isinstance(init, list) else [init]))
        sync = self._hub_sync(man, hub_state)
        window = 1 if stop else 4
        rec = None
        it = start
        while it < max_iter:
            w = min(window, max_iter - it)
            t0 = time.time()
            steps, rows = [], []
            for k in range(w):
                steps.append(self._superstep(actors, sync + step(it + k)))
                if ckpt_dir:
                    rows.append(self._checkpoint_parts(actors, ckpt_dir, it + k, cols))
            got = _get_all(steps + rows)
            wall = (time.time() - t0) / w
            for k in range(w):
                rec = self._record(algo, it + k, wall, summary(got[k][-len(actors):]),
                                   window=w)
                if ckpt_dir:
                    self._checkpoint(actors, ckpt_dir, it + k, fp, cols, rec, rows=got[w + k])
            it += w
            if stop is not None and stop(rec):
                break
        return rec

    # ------------------------------------------------------------- algorithms

    def pagerank(
        self,
        *,
        alpha: float = 0.15,
        max_iter: int = 20,
        tol: float | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
        dtype: str = "float64",
    ):
        """Static GraphX PageRank (SURVEY.md A.1); ``tol`` adds an early stop
        when the L1 delta falls below it (convergence variant).

        ``dtype="float32"`` halves rank-vector and message bytes (the
        bandwidth-bound hot path) at the cost of ~1e-7 relative precision —
        opt-in for throughput runs; the 1e-6 correctness gate uses the
        float64 default."""
        if dtype not in ("float64", "float32"):
            raise ValueError(dtype)
        actors, man = self._pool("directed")
        # dtype enters the fingerprint only when non-default so float64
        # checkpoints written before the option existed still resume
        params = {"alpha": alpha} if dtype == "float64" else {"alpha": alpha, "dtype": dtype}
        fp = self._fingerprint("pagerank", params, man)
        m_total = sum(s["n_edges"] for s in ray.get([a.stats.remote() for a in actors]))

        def summary(res) -> dict:
            return {"edges": m_total, "l1_delta": float(sum(r[0] for r in res)),
                    "mass": float(sum(r[1] for r in res))}

        cols = {"rank": "val"}
        self._supersteps(
            actors, man, "pagerank", ("scatter_sum",), ("gather_sum", alpha),
            max_iter=max_iter, summary=summary,
            stop=None if tol is None else (lambda rec: rec["l1_delta"] < tol),
            init=("init_value", "pr" if dtype == "float64" else "pr32"),
            checkpoint=(checkpoint_dir, fp, cols), resume=resume,
        )
        return self._result_ds(actors, "state_table", cols, output_path=output_path,
                               as_table=as_table)

    def connected_components(
        self,
        *,
        max_iter: int | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Hash-min label propagation to fixpoint over the canonical
        undirected graph (SURVEY.md A.2: component = min vid)."""
        actors, man = self._pool("undirected")
        cols = {"component": "val"}
        self._supersteps(
            actors, man, "cc", ("scatter_min",), ("gather_min",),
            max_iter=_limit(max_iter), summary=_changed, stop=_settled,
            init=("init_value", "vid"),
            checkpoint=(checkpoint_dir, self._fingerprint("cc", {}, man), cols),
            resume=resume,
        )
        return self._result_ds(actors, "state_table", cols, output_path=output_path,
                               as_table=as_table)

    def label_propagation(
        self,
        *,
        max_iter: int = 5,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Synchronous LPA (SURVEY.md A.3), ties pinned to smallest label."""
        actors, man = self._pool("undirected_weighted")
        cols = {"label": "val"}
        self._supersteps(
            actors, man, "lpa", ("scatter_label_hist",), ("gather_label_hist",),
            max_iter=max_iter, summary=_changed, init=("init_value", "vid"),
            checkpoint=(checkpoint_dir, self._fingerprint("lpa", {}, man), cols),
            resume=resume,
        )
        return self._result_ds(actors, "state_table", cols, output_path=output_path,
                               as_table=as_table)

    def label_propagation_seeded(
        self,
        seed_vids,
        seed_labels,
        *,
        max_iter: int = 5,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Semi-supervised LPA (the hard-clamp variant of Zhu & Ghahramani
        2002): ``seed_vids`` carry FROZEN ``seed_labels`` (≥ 0); every
        other vertex starts unlabeled (−1) and adopts the Σw-majority
        label among its LABELED neighbors each synchronous round (ties →
        smallest label — the A.3 pinned rule; voteless vertices keep
        their label). Runs exactly ``max_iter`` rounds unless a round
        changes nothing (a fixpoint is stable, so the fixed-round SQL
        unroll matches either way). Seeds are a BROADCAST small side
        (driver-held arrays — the J3 contract); seed vids absent from
        the graph are ignored."""
        sv = np.asarray(seed_vids, dtype=np.int64)
        sl = np.asarray(seed_labels, dtype=np.int64)
        if len(sv) != len(sl):
            raise ValueError("seed_vids and seed_labels length mismatch")
        if (sl < 0).any():
            raise ValueError("seed labels must be non-negative")
        order = np.argsort(sv)
        sv, sl = sv[order], sl[order]
        if len(sv) > 1 and (sv[1:] == sv[:-1]).any():
            raise ValueError("duplicate seed vids")
        actors, man = self._pool("undirected_weighted")
        # lpa_seed_init switches the shards' label kernels to seeded mode
        self._supersteps(
            actors, man, "lpa_seeded", ("scatter_label_hist",), ("gather_label_hist",),
            max_iter=max_iter, summary=_changed, stop=_settled,
            init=("lpa_seed_init", sv, sl),
        )
        return self._result_ds(actors, "state_table", {"label": "val"},
                               output_path=output_path, as_table=as_table)

    def pagerank_tol(
        self,
        tol: float,
        *,
        alpha: float = 0.15,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """G2 — dynamic per-vertex PageRank, GraphX ``pageRank(tol)`` Pregel
        semantics: rank⁰ = α, Δ⁰ = α; only vertices with Δ > tol that
        received a message last superstep send Δ(v)·w/outdeg(v); receivers
        apply r += (1−α)·Σ and recompute Δ; terminate when no vertex is
        active. Numerically distinct from the static variant on
        slowly-converging components (SURVEY.md G2)."""
        if tol <= 0:
            raise ValueError("tol must be > 0 (Pregel guard relies on it)")
        actors, man = self._pool("directed")
        self._supersteps(
            actors, man, "pagerank_tol", ("scatter_pr_delta",), ("gather_pr_delta", alpha, tol),
            max_iter=_limit(max_iter), summary=lambda res: {"active": int(sum(res))},
            stop=lambda rec: rec["active"] == 0, init=("init_pr_dynamic", alpha, tol),
            hub_state=("pr_msg",),
        )
        return self._result_ds(actors, "state_table", {"rank": "val"},
                               output_path=output_path, as_table=as_table)

    def personalized_pagerank(
        self,
        source: int,
        *,
        alpha: float = 0.15,
        max_iter: int = 20,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Personalized PageRank: reset mass lands only on ``source``
        (r⁰ = 1[v=s]; r' = α·1[v=s] + (1−α)·Σ w·r(u)/outdeg(u)) — the
        GraphFrames ``pageRank(sourceId=...)`` surface; pinned init
        documented here (SURVEY.md G1p)."""
        actors, man = self._pool("directed")
        self._supersteps(
            actors, man, "ppr", ("scatter_sum",), ("gather_sum", alpha, int(source)),
            max_iter=max_iter, init=("init_ppr", int(source)),
            summary=lambda res: {"l1_delta": float(sum(r[0] for r in res))},
        )
        return self._result_ds(actors, "state_table", {"rank": "val"},
                               output_path=output_path, as_table=as_table)

    def parallel_personalized_pagerank(
        self,
        sources: list[int],
        *,
        alpha: float = 0.15,
        max_iter: int = 20,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """GraphX ``staticParallelPersonalizedPageRank`` surface: K sources
        in ONE superstep loop — rank state is an (n, K) matrix inside each
        shard, messages are (uniq_dst, K) blocks, per-edge work is one
        matrix row broadcast (K× message bytes, same shuffle count as one
        source). Semantics pinned to equal ``personalized_pagerank`` run
        per source (tested). Returns (vid, rank_0..rank_{K-1}), columns in
        ``sources`` order."""
        actors, man = self._pool("directed")
        srcs = [int(s) for s in sources]
        self._supersteps(
            actors, man, "ppr_multi", ("scatter_sum_multi",), ("gather_sum", alpha, srcs),
            max_iter=max_iter, init=("init_ppr_multi", srcs),
            summary=lambda res: {"l1_delta": float(sum(r[0] for r in res)),
                                 "n_sources": len(srcs)},
        )
        return self._result_ds(actors, "ppr_multi_table", srcs, output_path=output_path,
                               as_table=as_table)

    def hits(
        self,
        *,
        max_iter: int = 20,
        normalize: bool = True,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """HITS hubs-and-authorities (Kleinberg, JACM 1999) — link-analysis
        breadth beyond the GraphX/GraphFrames surface (SURVEY.md §2 has no
        reference row; semantics pinned in SURVEY.md Appendix A.9).

        Per iteration: a(v) = Σ_{u→v} w·h(u) then h(u) = Σ_{u→v} w·a(v),
        each half-step 1-norm normalized when ``normalize=True`` (the
        scale-safe default: raw scores grow ~(Σdeg)^k). ``normalize=False``
        keeps raw scores, which are INTEGER-valued for integer weights and
        bit-exact in float64 while < 2^53 — the SQL-replay mode the driver
        oracle uses. The auth half-step is the standard forward
        scatter-gather; the hub half-step pulls a(v) for each src part's
        ghost destinations through the transposed ghost index — per-node
        traffic is ghost-sized in BOTH directions, so the multi-node story
        matches PageRank's. Returns a Dataset of (vid, hub, auth)."""
        actors, man = self._pool("directed")
        # max_iter stays OUT of the fingerprint: a run interrupted at
        # iteration k resumes into a longer run (same rule as pagerank)
        fp = self._fingerprint("hits", {"normalize": normalize}, man)
        cols = {"hub": "val", "auth": "val_a"}
        m_total = sum(s["n_edges"] for s in ray.get([a.stats.remote() for a in actors]))
        # the 1-norms and the salted hubs' h-partials are folded on every
        # shard from all P gather results (csr.CsrShard.scale_hits_auth,
        # finalize_hits_hub), so an iteration needs no driver barrier
        self._supersteps(
            actors, man, "hits", phases=[
                (("scatter_hits_auth",), ("gather_hits_auth",)),
                ("scale_hits_auth", normalize, ...),
                (("scatter_hits_pull",), ("gather_hits_hub",)),
                ("finalize_hits_hub", normalize, ...),
            ],
            max_iter=max_iter, init=("init_hits",),
            summary=lambda res: {"edges": m_total, "l1_delta_h": float(sum(res))},
            checkpoint=(checkpoint_dir, fp, cols), resume=resume,
        )
        return self._result_ds(actors, "state_table", cols, output_path=output_path,
                               as_table=as_table)

    def katz(
        self,
        *,
        inv_alpha: int = 8,
        iters: int = 4,
        beta_micro: int = 1_000_000,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Katz centrality (Katz 1953), fixed-point integer iteration:
        x = β·1 + α·Aᵀx iterated from x⁰ = β·1, so each vertex's score sums
        its in-neighbors' scores damped by α per hop. The arithmetic is
        pinned as in ``svdpp_fixed``: int64 MICRO-unit scores, α =
        1/inv_alpha with an integer inv_alpha, and x' = β + (Σ_in w·x) //
        inv_alpha on non-negative operands (where DuckDB's truncating
        ``//`` equals floor), so every iterate is exact integer state the
        SQL-unroll oracle replays bit-identically. Overflow bound: Σ_in w·x
        per vertex must stay below 2⁶³ (the caller's choice of inv_alpha
        and iters). One ghost-sized exchange per iteration through the
        generic ``pregel`` hook with ``halt="all"`` (synchronous full
        update — no-in-edge vertices take β each round, matching the
        oracle's left-join COALESCE 0). Returns (vid, katz_micro)."""
        inv = int(inv_alpha)
        beta = int(beta_micro)
        if inv <= 0:
            raise ValueError("inv_alpha must be a positive integer")

        def init(vids: np.ndarray) -> np.ndarray:
            return np.full(len(vids), beta, np.int64)

        def send(src_vals, w, outdeg_src):
            # CSR stores w as float64 (exact for count weights < 2^53);
            # the product must stay int64 for the exact-integer contract
            return w.astype(np.int64) * src_vals

        def vprog(old, msgs, got):
            # non-negative operands: numpy // == DuckDB truncating // ==
            # floor (the repo's pinned integer-division recipe)
            return beta + msgs // inv

        out = self.pregel(
            init, send, vprog, merge="sum", halt="all", max_iter=int(iters),
            variant="directed", checkpoint_dir=checkpoint_dir, resume=resume,
            output_path=output_path, as_table=as_table,
        )
        return out.rename_columns(["vid", "katz_micro"])

    # odd golden-ratio constant — the classic Fibonacci-hashing multiplier;
    # any odd constant keeps x -> x*C a bijection mod 2^64
    _WL_C = np.uint64(0x9E3779B97F4A7C15)

    def wl_refine(
        self,
        *,
        rounds: int = 3,
        variant: str = "undirected",
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """1-WL color refinement (Weisfeiler–Leman vertex refinement) —
        the canonical graph-structure fingerprint used for isomorphism
        screening and GNN expressivity analysis (public semantics: Shervashidze
        et al., JMLR 2011, "Weisfeiler-Lehman graph kernels").

        Colors are 64-bit hashes updated synchronously for ``rounds``
        supersteps:

            c⁰(v)   = 1
            c^{i+1}(v) = mix64( c^i(v)·C  +  Σ_{u ∈ N_in(v)} mix64(c^i(u)) )

        with every operation in wrap-around uint64 arithmetic. The
        neighbor fold is an UNORDERED SUM of avalanche-mixed colors — an
        order-free multiset hash, so the result is independent of edge
        storage order, partitioning, and parallelism (and exactly
        replayable in SQL as HUGEINT sums mod 2^64). Two vertices whose
        rooted ``rounds``-hop in-neighborhood trees differ get different
        colors (up to the negligible 64-bit collision probability);
        classical WL stable partitions are reached once colors stop
        splitting. Edge weights are deliberately IGNORED (one message per
        stored edge — simple-graph refinement; parallel edges were already
        collapsed by the canonical edge builders).

        Runs through the generic ``pregel`` hook: one ghost-sized exchange
        per round, ``halt="all"`` (isolated vertices keep hashing their
        own color chain — Σ = 0). Returns (vid, color) with the color
        reinterpreted as int64 two's-complement for Parquet/SQL parity."""
        from graphx_ray.ids import mix64

        r = int(rounds)
        if r < 1:
            raise ValueError("rounds must be >= 1")
        C = self._WL_C

        def init(vids: np.ndarray) -> np.ndarray:
            return np.ones(len(vids), np.uint64)

        def send(src_vals, w, outdeg_src):
            return mix64(src_vals)

        def vprog(old, msgs, got):
            with np.errstate(over="ignore"):
                return mix64(old * C + msgs.astype(np.uint64))

        out = self.pregel(
            init, send, vprog, merge="sum", halt="all", max_iter=r,
            variant=variant, output_path=output_path, as_table=as_table,
        )
        def to_signed(b: pa.Table) -> pa.Table:
            c = b["value"].to_numpy().astype(np.uint64).view(np.int64)
            return pa.table({"vid": b["vid"], "color": pa.array(c)})

        if as_table:
            return to_signed(out)
        return out.map_batches(to_signed, batch_format="pyarrow", zero_copy_batch=True)

    def eigenvector_centrality(
        self,
        *,
        iters: int = 12,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Eigenvector centrality of the UNDIRECTED weighted view (the
        LPA/PIC influence graph) as a fixed-point shifted power iteration,
        exact-integer and SQL-replayable like ``katz``/``pic``:

        - shift = 1 + ceil(max over edges of √(d(u)·d(v))) — the classic
          spectral bound λ₁(A) ≤ max √(d(u)d(v)) (TIGHT on hub graphs,
          where the naive max-degree divisor √n-overshoots λ₁ and decays
          the values to nothing). d = weighted degree of the symmetrized
          list (one keyed reduce + two bucketed degree joins; the driver
          holds two ints).
        - Iterating on (A + I)/shift: the +I shift makes the dominant
          eigenvalue strictly dominant on bipartite graphs too (A
          symmetric ⇒ λ_min ≥ −λ₁ ⇒ λ₁+1 > |λ_min+1|), so the direction
          converges instead of oscillating; λ(A+I) ≤ λ₁+1 ≤ shift keeps
          the iteration non-expanding in ℓ2.
        - x⁰ = scale = 2⁶² // ((D+1)·(⌊√n⌋+2)) with D = max weighted
          degree: ℓ2 non-expansion bounds every entry by scale·√n, so the
          per-vertex gather Σ w·x + x ≤ (D+1)·scale·√n < 2⁶² stays exact
          int64; x' = (Σ_in w·x + x) // shift on non-negative operands
          (floor == truncation, both sides). √ is IEEE double sqrt +
          floor/ceil on both sides — exact below 2⁵² (documented bound).

        Returns (vid, eig_fix) — callers normalize; ranks and ratios are
        what eigenvector centrality means."""
        from graphx_ray.stages.derive import grouped_reduce
        from graphx_ray.stages.motif import bucket_join

        ew = self._with_weight(self.edges)

        def both(batch: pa.Table) -> pa.Table:
            s = batch["src"].to_numpy()
            d = batch["dst"].to_numpy()
            w = batch["w"].to_numpy().astype(np.int64)
            return pa.table(
                {
                    "v": pa.array(np.concatenate([s, d]), type=pa.int64()),
                    "wt": pa.array(np.concatenate([w, w])),
                }
            )

        deg = grouped_reduce(
            ew.map_batches(both, batch_format="pyarrow", zero_copy_batch=True),
            ["v"], sum_col="wt", num_partitions=self.P,
        ).materialize()  # consumed 3×: max, count, degree joins
        big_d = int(deg.max("wt") or 0)
        n_verts = int(deg.count())

        def dren(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"dv": batch["v"].cast(pa.int64()),
                 "dw": batch["wt"].cast(pa.int64())}
            )

        degs = deg.map_batches(dren, batch_format="pyarrow", zero_copy_batch=True)
        j1 = bucket_join(
            ew.select_columns(["src", "dst"]), degs, on="src", right_on="dv",
            how="inner", num_partitions=self.P,
        )

        def r1(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"src": batch["src"], "dst": batch["dst"],
                 "du": batch["dw"].cast(pa.int64())}
            )

        j2 = bucket_join(
            j1.map_batches(r1, batch_format="pyarrow", zero_copy_batch=True),
            degs, on="dst", right_on="dv", how="inner", num_partitions=self.P,
        )

        def edge_bound(batch: pa.Table) -> pa.Table:
            du = batch["du"].to_numpy().astype(np.float64)
            dv = batch["dw"].to_numpy().astype(np.float64)
            if not len(du):
                return pa.table({"b": pa.array([], pa.int64())})
            b = int(np.ceil(np.sqrt(du * dv)).max())
            return pa.table({"b": pa.array([b], pa.int64())})

        bound = int(
            j2.map_batches(
                edge_bound, batch_format="pyarrow", zero_copy_batch=True
            ).max("b")
            or 0
        )
        shift = bound + 1
        scale = (1 << 62) // max(
            (big_d + 1) * (int(np.floor(np.sqrt(float(max(n_verts, 1))))) + 2), 1
        )

        def init(vids: np.ndarray) -> np.ndarray:
            return np.full(len(vids), scale, np.int64)

        def send(src_vals, w, outdeg_src):
            return w.astype(np.int64) * src_vals

        def vprog(old, msgs, got):
            return (msgs + old) // shift

        out = self.pregel(
            init, send, vprog, merge="sum", halt="all", max_iter=int(iters),
            variant="undirected_weighted", output_path=output_path,
            as_table=as_table,
        )
        return out.rename_columns(["vid", "eig_fix"])

    def random_walks(
        self,
        *,
        walks_per_vertex: int = 1,
        length: int = 10,
        seed: int = 42,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Deterministic seeded random walks (SURVEY.md A.10) — the
        embedding-pipeline sampling primitive (DeepWalk/node2vec input).
        ``walks_per_vertex`` walks start at EVERY vertex; step t draws the
        next hop with h = mix64(base + t), idx = h mod Σw(u) over the
        (src,dst)-aggregated adjacency sorted by dst (weight-proportional,
        parallel-edge multiplicity counts); walks terminate at out-degree-0
        vertices. Every draw is a pure function of (seed, start, walk, t),
        so results are parallelism-invariant and SQL-replayable.

        Walk state lives with a shard holding its current vertex's
        adjacency (the owner; for salted hubs, a draw-hash-spread shard —
        every shard holds the merged hub adjacency, see
        ``CsrShard.set_walk_hub_adj``); each step exchanges constant-size
        (start, walk, next) packs — O(active walks) traffic, never
        graph-sized. Returns a Dataset of (start_vid, walk, step, vid)
        rows, one per visited position."""
        return self._walks(
            "random_walks", ("init_walks", walks_per_vertex, seed), "walk_scatter",
            "walk_gather", length, output_path, as_table,
        )

    def node2vec_walks(
        self,
        *,
        p: float = 1.0,
        q: float = 1.0,
        walks_per_vertex: int = 1,
        length: int = 10,
        seed: int = 42,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Second-order node2vec biased walks (SURVEY.md A.13; Grover &
        Leskovec 2016). Step 1 is a raw-weight draw (no prev vertex);
        step t ≥ 2 from v with previous vertex u weights candidate x by
        w(v,x) · α where α = 1/p if x = u (return), 1 if the edge u→x
        exists (common neighbor), else 1/q (exploration). p and q are
        taken as EXACT decimal fractions and folded into integer
        multipliers reduced by their gcd, so every hop is a pure
        integer function of (seed, start, walk, t) — deterministic,
        parallelism-invariant and SQL-replayable. With p = q = 1 the
        multipliers are (1, 1, 1) and the output is bit-identical to
        ``random_walks``.

        Walk state lives with a shard holding its current vertex's
        adjacency (salted hubs: draw-hash-spread over the merged hub
        adjacency, see ``CsrShard.set_walk_hub_adj``); each step exchanges
        (start, walk, next, prev, N(prev)) packs — O(deg(prev)) payload
        per walk, the standard distributed-node2vec tradeoff (no second
        membership-probe exchange). A hub prev ships an EMPTY sentinel
        list instead: the receiver resolves N(prev) from its broadcast
        copy, so hub degree never rides the wire per walk. Returns a
        Dataset of (start_vid, walk, step, vid) rows."""
        import math
        from fractions import Fraction

        fp = Fraction(str(p))
        fq = Fraction(str(q))
        if fp <= 0 or fq <= 0:
            raise ValueError("node2vec_walks: p and q must be positive")
        m_ret = fp.denominator * fq.numerator
        m_com = fp.numerator * fq.numerator
        m_far = fp.numerator * fq.denominator
        g = math.gcd(math.gcd(m_ret, m_com), m_far)
        bias = (m_ret // g, m_com // g, m_far // g)
        return self._walks(
            "node2vec_walks", ("init_n2v_walks", walks_per_vertex, seed, bias),
            "n2v_scatter", "n2v_gather", length, output_path, as_table,
        )

    def _walks(self, algo: str, init: tuple, scatter: str, gather: str, length: int,
               output_path: str | None, as_table: bool):
        """The walk family's driver: ``init`` = (method, *args) seeds the
        walks; superstep t (1..length) runs ``scatter(t)`` and
        ``gather(.., t)`` until no walk is alive."""
        actors, man = self._pool("directed")
        if man["hubs"]:
            # the hub adjacency is static: every shard merges the slices
            # once, so any shard resolves a hub-resident draw
            ray.get(self._superstep(
                actors, [("walk_hub_adj_slice",), ("set_walk_hub_adj", ...)]
            ))
        # Dataset mode streams visit rows to per-(part, step) parquet as the
        # walks advance — actor memory stays O(active walks), never
        # O(walks × length); as_table buffers in-actor (small graphs only).
        rows_dir = None
        if not as_table:
            rows_dir = output_path or os.path.join(
                self.workdir, "results", f"{algo}-{self._rseq}"
            )
            self._rseq += 1
            shutil.rmtree(rows_dir, ignore_errors=True)  # no stale part leak-in
        alive = sum(ray.get([getattr(a, init[0]).remote(*init[1:], rows_dir) for a in actors]))
        self._supersteps(
            actors, man, algo, phases=lambda t: [((scatter, t), (gather, t))],
            first=1, max_iter=length + 1 if alive else 1,
            summary=lambda res: {"active_walks": int(sum(res))},
            stop=lambda rec: rec["active_walks"] == 0, hub_state=(),
        )
        if as_table:
            return self._result_ds(actors, "walk_rows_table", as_table=True)
        return rd.read_parquet(rows_dir)

    def power_iteration_clustering(
        self,
        *,
        k: int = 4,
        iters: int = 3,
        kmeans_iters: int = 2,
        scale_micro: int = 1_000_000,
    ):
        """GraphFrames ``powerIterationClustering`` — exact-integer PIC
        (Lin & Cohen 2010) over the undirected weighted view: ``iters``
        W·D⁻¹ pushes through the pregel hook, then deterministic integer
        1-D Lloyd on the embedding. Pinned semantics + SQL replayability
        in ``pipelines/pic.py``. Returns (vid, pic_micro, cluster)."""
        from graphx_ray.pipelines.pic import _int_kmeans_1d, _pic_embedding

        emb = _pic_embedding(self, iters=iters, scale_micro=scale_micro)
        return _int_kmeans_1d(emb, k=k, iters=kmeans_iters)

    def _mis_round(self, man, base: int):
        """Round r of a deterministic Luby MIS as phases: active vertices
        stage p(v) = mix64(mix64(base ^ r) ^ v) and join iff strictly
        above every active neighbor, then MIS neighbors deactivate. Both
        exchanges ride the max-merge label scatter; the salted hubs'
        staged values are synced before each."""
        sync = self._hub_sync(man)
        return lambda r: [
            ("mis_stage_priority", base, r), *sync,
            (("scatter_max",), ("gather_mis_join",)),
            ("mis_stage_flag",), *sync,
            (("scatter_max",), ("gather_mis_out",)),
        ]

    def maximal_independent_set(
        self,
        *,
        seed: int = 42,
        max_rounds: int = 100,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Deterministic Luby MIS over the canonical undirected simple
        graph (SURVEY.md A.12; self-loops dropped by canonicalization).
        Per round: active vertices draw p_r(v) = mix64(mix64(seed ^ r) ^ v)
        and join the MIS iff strictly above every active neighbor (ties ⇒
        neither joins; next round's fresh priorities break them); MIS
        neighbors deactivate. Two max-merge exchanges per round over the
        existing label scatter — ghost-sized traffic, salted hubs ride the
        ordinary hub sync. O(log n) rounds w.h.p. Returns a Dataset
        of (vid, in_mis ∈ {0,1}) covering the whole vertex universe."""
        actors, man = self._pool("undirected")
        self._supersteps(
            actors, man, "mis", phases=self._mis_round(man, seed), max_iter=max_rounds,
            summary=_mis_summary, stop=_mis_done, init=("init_mis",), hub_state=(),
        )
        return self._result_ds(actors, "result_table_mis", output_path=output_path,
                               as_table=as_table)

    def salsa(
        self,
        *,
        iters: int = 3,
        scale: int = 1_000_000,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """SALSA link analysis (Lempel & Moran, WWW 2000; SURVEY.md A.18)
        — HITS with random-walk normalization, truncated to ``iters``
        iterations from h₀ = scale, in exact int64 micro-units with
        per-edge floor division (SQL-replayable; mass non-increasing, so
        values stay < n·scale·w_max — valid while that is < 2^63).
        Per iteration: auth a(v) = Σ floor(w·h(u)/outdeg(u)) (the
        PR-shaped forward scatter), hub h(u) = Σ floor(w·a(v)/indeg(v))
        (the HITS reverse pull; indeg(dst) cached per edge once at init).
        The salted hubs' h-partials are summed on every shard
        (``finalize_salsa_hub``). Returns (vid, hub, auth)."""
        actors, man = self._pool("directed")  # installs the merged hub outdeg
        self._supersteps(
            actors, man, "salsa", max_iter=iters, summary=lambda res: {},
            # one-time indeg exchange + static per-edge indeg cache
            init=[("init_salsa", scale),
                  (("scatter_salsa_indeg",), ("gather_salsa_indeg",)),
                  (("pull_salsa_indeg",), ("cache_salsa_indeg",))],
            phases=[(("scatter_salsa_auth",), ("gather_salsa_auth",)),
                    (("scatter_salsa_pull",), ("gather_salsa_hub",)),
                    ("finalize_salsa_hub", ...)],
        )
        return self._result_ds(actors, "state_table", {"hub": "val", "auth": "val_sa"},
                               output_path=output_path, as_table=as_table)

    def maximal_matching(
        self,
        *,
        seed: int = 42,
        max_rounds: int = 100,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Deterministic local-max maximal matching (SURVEY.md A.17; the
        Israeli–Itai / Preis family, synchronous) over the canonical
        undirected simple graph. Per round, every active edge draws the
        globally-unique tuple (p, cu, cv) with
        p = (mix64(mix64(C_r ^ cu) ^ cv) >> 1) + 1, C_r = mix64(seed ^ r),
        and joins iff its tuple is the lexicographic max at BOTH
        endpoints; matched vertices deactivate their edges. Two
        ghost-sized reverse pulls per round, each followed by a fold of
        the salted hubs' partials on every shard; the round's
        globally-max active edge always wins, so the loop terminates
        (expected O(log m) rounds). Returns (vid, partner) with
        partner = −1 for unmatched vertices."""
        actors, man = self._pool("undirected")
        # the static edge tuples are rebuilt on every run; resume only
        # restores the partner vector
        ray.get([a.init_matching.remote() for a in actors])
        cols = {"partner": "val"}
        self._supersteps(
            actors, man, "matching", max_iter=max_rounds,
            phases=lambda r: [
                (("match_pull_flags",), ("match_stage_priorities", seed, r)),
                ("match_install_hub_best", ...),
                (("match_pull_best",), ("match_resolve",)),
                ("match_install_hub_partners", ...),
            ],
            summary=lambda res: {"active_edges": int(sum(res))},
            stop=lambda rec: rec["active_edges"] == 0,
            checkpoint=(checkpoint_dir, self._fingerprint("matching", {"seed": seed}, man),
                        cols),
            resume=resume,
        )
        return self._result_ds(actors, "state_table", cols, output_path=output_path,
                               as_table=as_table)

    def louvain(
        self,
        *,
        max_rounds: int = 10,
        weighted: bool = False,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Synchronous deterministic Louvain local-move rounds (SURVEY.md
        A.16; Blondel et al. 2008 modularity, the minimum-label
        synchronous variant of Lu–Halappanavar–Kalyanaraman 2015).

        Unweighted (default): the canonical undirected simple graph —
        parallel edges collapse, self-loops drop, w ≡ 1. ``weighted=True``:
        every directed edge contributes its weight in both directions and
        self-loops stay (they count 2w in k(v), nothing in w(v→·)) — the
        view multilevel contraction feeds back in.

        Per round (all exact int64, valid while 2m·k_max < 2^63):
        vol-up/vol-down community-volume exchanges keyed by owner(C) =
        part_of(C) (vol-down also carries the salted hubs' community
        volumes to every shard), then one LPA-shaped move scatter
        carrying (label, vol(label), singleton-flag). Each vertex argmaxes
        Δ̂(B) = 2m·w(v→B) − k·vol′(B) over neighbor communities, ties →
        smallest B, moves iff Δ̂(B) > Δ̂(stay), with the singleton
        swap-guard: a singleton joins a singleton only when the target id
        is smaller (kills the classic synchronous two-cycle). Stops early
        when a round moves nothing. Returns (vid, community)."""
        variant = "undirected_weighted" if weighted else "undirected"
        actors, man = self._pool(variant)
        # static louvain state (lv_k, w_eff) is rebuilt on every run;
        # resume only restores the label vector (the LPA rule: max_rounds
        # stays OUT of the fingerprint — a run interrupted at round k
        # resumes into a longer run; converged rounds are no-ops, so
        # resuming past convergence is bit-identical)
        two_m = sum(ray.get([a.init_louvain.remote() for a in actors]))
        cols = {"community": "val"}
        self._supersteps(
            actors, man, "louvain", max_iter=max_rounds,
            phases=[(("louvain_vol_scatter",), ("louvain_vol_gather",)),
                    (("louvain_vol_reply",), ("louvain_vol_absorb",)),
                    (("louvain_move_scatter",), ("louvain_move_gather", two_m))],
            summary=lambda res: {"moved": int(sum(res))},
            stop=lambda rec: rec["moved"] == 0,
            checkpoint=(checkpoint_dir,
                        self._fingerprint("louvain", {"weighted": weighted}, man), cols),
            resume=resume,
        )
        return self._result_ds(actors, "state_table", cols, output_path=output_path,
                               as_table=as_table)

    def greedy_coloring(
        self,
        *,
        seed: int = 42,
        max_colors: int = 1024,
        max_rounds: int = 100,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Iterated-MIS greedy graph coloring (SURVEY.md A.14; the
        Luby/Jones–Plassmann family) over the canonical undirected simple
        graph. Color c runs one full deterministic Luby MIS (A.12) over
        the still-uncolored vertices — round r of color c draws priority
        p(v) = mix64(mix64(mix64(seed ^ c) ^ r) ^ v), so every color
        class is a pure function of (seed); colored vertices stage the
        max-merge identity 0 and neither join nor block. Each MIS is
        independent within the uncolored subgraph, hence no edge is
        monochromatic (property-tested); expected O(Δ · log n) rounds
        total. Returns a Dataset of (vid, color) with color ∈ [0,
        #colors used); vertices left uncolored past ``max_colors`` keep
        color −1 under a RuntimeWarning (pathological only: max_colors
        below the graph's iterated-MIS color count)."""
        import warnings

        from graphx_ray.ids import mix64 as _mix

        actors, man = self._pool("undirected")
        ray.get([a.init_coloring.remote() for a in actors])
        remaining = -1
        for c in range(max_colors):
            t0 = time.time()
            self._supersteps(
                actors, man, "coloring_mis",
                phases=self._mis_round(man, int(_mix(np.uint64(seed) ^ np.uint64(c)))),
                max_iter=max_rounds, summary=_mis_summary, stop=_mis_done,
                init=("color_begin",), hub_state=(),
            )
            remaining = sum(ray.get([a.color_assign.remote(c) for a in actors]))
            self._record("greedy_coloring", c, time.time() - t0,
                         {"uncolored": int(remaining)})
            if remaining == 0:
                break
        if remaining != 0:
            warnings.warn(
                f"greedy_coloring: {remaining} vertices uncolored after "
                f"max_colors={max_colors}; they carry color -1",
                RuntimeWarning,
            )
        return self._result_ds(actors, "state_table", {"color": "clr"},
                               output_path=output_path, as_table=as_table)

    def pregel(
        self,
        init,
        send_msg,
        vprog,
        *,
        merge: str = "sum",
        initial_msg=None,
        max_iter: int = 20,
        variant: str = "directed",
        halt: str = "changed",
        checkpoint_dir: str | None = None,
        resume: bool = False,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """The GraphX ``Pregel.apply`` user surface, vectorized:

        - ``init(vids: np.ndarray) -> np.ndarray`` — initial vertex values
          (1-D; dtype picked by the user).
        - ``send_msg(src_vals, w, outdeg_src) -> msgs`` — per-edge messages,
          vectorized over a shard's edge slice (all three args are aligned
          per-edge arrays; outdeg enables PageRank-style normalization).
        - ``vprog(old_vals, msgs, got) -> new_vals`` — vectorized vertex
          program; committed ONLY where ``got`` (GraphX: vprog runs on
          message receivers). ``msgs`` holds the merge identity where no
          message arrived.
        - ``merge`` ∈ {sum, min, max}; partials pre-aggregate per
          destination inside the sender (reduceat combiner) — the merge
          must be a commutative, associative ufunc reduction.
        - ``initial_msg``: GraphX semantics — applied through ``vprog`` to
          every vertex before superstep 1.
        - ``halt="changed"`` (default): a vertex sends iff its value
          changed last superstep; terminate when no value changed. GraphX
          expresses the same pruning via triplet-filtered ``sendMsg``;
          src-changed is the vectorized equivalent (documented deviation).
          ``halt="all"``: every edge sends every superstep, vprog commits
          for EVERY vertex (synchronous full update), terminate at
          ``max_iter`` — the static-algorithm mode (static PageRank is
          exactly expressible: no-in-edge vertices take α each round).

        The built-in algorithms ride the same scatter/gather machinery;
        this hook exposes it for user extensions (tested by re-deriving CC
        and static PageRank through it).

        ``checkpoint_dir``/``resume`` follow the S3 discipline of the
        built-ins: per-superstep (value, changed) part files + manifest,
        bit-identical replay from the newest complete iteration. The
        fingerprint includes a digest of the pickled user callables, so a
        resume against edited callables safely starts fresh instead of
        mixing semantics."""
        if merge not in ("sum", "min", "max"):
            raise ValueError(merge)
        if halt not in ("changed", "all"):
            raise ValueError(halt)
        actors, man = self._pool(variant)
        fp = None
        if checkpoint_dir:
            import hashlib

            from ray import cloudpickle

            digest = hashlib.sha256(
                cloudpickle.dumps((init, send_msg, vprog))
            ).hexdigest()[:16]
            fp = self._fingerprint(
                "pregel",
                {"merge": merge, "halt": halt, "initial_msg": repr(initial_msg),
                 "fns": digest},
                man,
            )
        # the changed mask is superstep state too: it decides who sends next
        state = {"value": "val", "changed": "pregel_changed"}
        self._supersteps(
            actors, man, "pregel", ("scatter_pregel", send_msg, merge, halt),
            ("gather_pregel", vprog, merge, halt), max_iter=max_iter,
            summary=_changed, stop=_settled if halt == "changed" else None,
            init=("pregel_init", init, initial_msg, vprog),
            checkpoint=(checkpoint_dir, fp, state), resume=resume,
            hub_state=tuple(state.values()),
        )
        return self._result_ds(actors, "state_table", {"value": "val"},
                               output_path=output_path, as_table=as_table)

    def collect_neighbor_ids(self, *, direction: str = "out", num_partitions: int = 16):
        # GraphX leftZipJoin behavior when the graph has a vertex table:
        # edge-less vertices appear with an empty neighbor list
        from graphx_ray.stages.structural import collect_neighbor_ids as _cni

        return _cni(self.edges, direction=direction, vertices=self.vertices,
                    num_partitions=num_partitions)

    def bfs_paths(
        self,
        from_expr: str,
        to_expr: str,
        *,
        max_path_length: int = 10,
        num_partitions: int = 16,
    ) -> Dataset:
        """GraphFrames ``bfs(fromExpr, toExpr)``: all shortest directed
        paths between the expression-selected vertex sets — (from, to,
        hops, path) rows; see pipelines/bfs_paths.py for pinned semantics."""
        if self.vertices is None:
            raise ValueError("bfs_paths needs a vertex table to evaluate the expressions")
        from graphx_ray.pipelines.bfs_paths import bfs_paths as _bp

        return _bp(
            self.edges, self.vertices, from_expr, to_expr,
            max_path_length=max_path_length, num_partitions=num_partitions,
        )

    def bfs(self, source: int, *, max_iter: int | None = None,
            output_path: str | None = None, as_table: bool = False):
        """G8 — BFS from ``source`` over the canonical undirected graph:
        (vid, dist, parent). dist = hop count (−1 unreachable); parent =
        the smallest-vid neighbor at dist−1 (−1 for the source and
        unreachable vertices) — computed as one extra lexicographic-min
        superstep after the min-plus fixpoint."""
        actors, man = self._pool("undirected")
        self._supersteps(
            actors, man, "bfs", ("scatter_minplus",), ("gather_min",),
            max_iter=_limit(max_iter), summary=_changed, stop=_settled,
            init=("init_dist", int(source)),
        )
        self._supersteps(
            actors, man, "bfs_parent", ("scatter_parent",), ("gather_parent",),
            max_iter=1, summary=lambda res: {},
        )
        return self._result_ds(actors, "parent_table", output_path=output_path,
                               as_table=as_table)

    def diameter_lower_bound(self, *, start: int | None = None) -> pa.Table:
        """Double-sweep BFS diameter lower bound (Magnien, Latapy & Habib
        2009 — the standard cheap bound, exact on trees): BFS from
        ``start`` (default: the smallest vid), re-BFS from the farthest
        reached vertex; the second eccentricity lower-bounds the
        diameter. Tie pinning: the farthest vertex is the SMALLEST vid at
        maximum distance, so the result is unique and SQL-replayable.

        Returns ONE row (start, far1, ecc1, far2, diameter_lb) — a
        model-sized scalar table; each sweep's argmax folds from
        per-batch partials (≤ one row per block on the driver)."""
        import numpy as np

        def _minvid() -> int:
            def part(batch: pa.Table) -> pa.Table:
                m = min(int(batch["src"].to_numpy().min()),
                        int(batch["dst"].to_numpy().min()))
                return pa.table({"m": pa.array([m], pa.int64())})

            return int(
                self.edges.map_batches(
                    part, batch_format="pyarrow", zero_copy_batch=True
                ).min("m")
            )

        def _farthest(dist_ds) -> tuple[int, int]:
            """(ecc, smallest vid at max finite dist) via block partials."""
            def part(batch: pa.Table) -> pa.Table:
                d = batch["dist"].to_numpy()
                v = batch["vid"].to_numpy()
                ok = d >= 0
                if not ok.any():
                    return pa.table({"d": pa.array([], pa.int64()),
                                     "v": pa.array([], pa.int64())})
                d, v = d[ok], v[ok]
                mx = d.max()
                at = v[d == mx]
                return pa.table({"d": pa.array([int(mx)], pa.int64()),
                                 "v": pa.array([int(at.min())], pa.int64())})

            df = dist_ds.map_batches(
                part, batch_format="pyarrow", zero_copy_batch=True
            ).to_pandas()  # ≤ one row per block
            mx = int(df["d"].max())
            far = int(df.loc[df["d"] == mx, "v"].min())
            return mx, far

        s = int(start) if start is not None else _minvid()
        ecc1, far1 = _farthest(self.bfs(s))
        lb, far2 = _farthest(self.bfs(far1))
        return pa.table(
            {"start": pa.array([s], pa.int64()),
             "far1": pa.array([far1], pa.int64()),
             "ecc1": pa.array([ecc1], pa.int64()),
             "far2": pa.array([far2], pa.int64()),
             "diameter_lb": pa.array([lb], pa.int64())}
        )

    def strongly_connected_components(
        self, *, max_rounds: int | None = None, trim: bool = True,
        output_path: str | None = None, as_table: bool = False,
    ):
        """G8 — SCC by Trim + forward-min coloring + backward same-color
        reach (FW-BW-Trim shape; Orzan-style coloring), labels = min vid
        of each SCC.

        Each outer round: (0) TRIM — repeatedly assign every unassigned
        vertex with no unassigned in-neighbor OR no unassigned
        out-neighbor as its own singleton SCC (one superstep per peel
        round; collapses DAG-like regions that would otherwise each cost
        a full coloring fixpoint — the round-2 documented worst case,
        O(#SCC) coloring fixpoints on a path, is now O(diameter) single
        supersteps); (1) hash-min colors over DIRECTED edges among
        unassigned vertices to fixpoint — color(v) = min unassigned vid
        that reaches v; (2) over REVERSED edges, propagate reach flags from
        each color root r (color==vid) restricted to equal colors —
        reached(v) ⇔ v→*r; (3) assign those SCCs, repeat. Each fixpoint
        is a ``_supersteps`` run. The directed and reversed views of a
        part live on one host, so labels, colors and flags move between
        them by an in-process copy (``csr.ShardHost.copy``) — nothing
        graph-sized touches the driver. The directed view holds the
        labels."""
        fwd, man_f = self._pool("directed")
        rev, man_r = self._pool("reversed")
        rev_sync = [(rev, p) for p in self._hub_sync(man_r)]

        def copy(src: str, dst: str, **attrs) -> tuple:
            return (self._hosts, ("copy", src, dst, attrs))

        # one trim peel: has-unassigned-IN-neighbor over the directed
        # edges, has-unassigned-OUT-neighbor over the reversed ones
        peel = [
            ("scc_reset_colors",), *self._hub_sync(man_f),
            (("scatter_min",), ("scc_trim_gather",)),
            copy("directed", "reversed", scc_label="scc_label"),
            (rev, ("scc_reset_colors",)), *rev_sync,
            (rev, (("scatter_min",), ("scc_trim_gather",))),
            copy("reversed", "directed", trim_has_out="trim_has"),
            ("scc_trim_assign",),
        ]
        remaining = sum(ray.get([a.scc_init.remote() for a in fwd]))
        rounds = 0
        limit = _limit(max_rounds)
        while remaining and rounds < limit:
            if trim:
                remaining = self._supersteps(
                    fwd, man_f, "scc_trim", phases=peel, max_iter=_limit(None),
                    summary=lambda res: {"assigned": int(sum(r[0] for r in res)),
                                         "remaining": int(sum(r[1] for r in res))},
                    stop=lambda rec: rec["assigned"] == 0 or rec["remaining"] == 0,
                    hub_state=(),
                )["remaining"]
                if remaining == 0:
                    break
            # (1) forward color fixpoint
            self._supersteps(
                fwd, man_f, "scc_color", ("scatter_min",), ("gather_min_unassigned",),
                max_iter=_limit(None), summary=_changed, stop=_settled,
                init=("scc_reset_colors",),
            )
            # (2) backward same-color reach fixpoint from each color's root
            self._supersteps(
                rev, man_r, "scc_reach", ("scatter_label_hist",), ("gather_scc_reach",),
                max_iter=_limit(None), summary=_changed, stop=_settled,
                init=[copy("directed", "reversed", scc_label="scc_label", scc_color="val"),
                      ("scc_adopt_colors",)],
            )
            # (3) assign the reached vertices
            remaining = sum(ray.get(self._superstep(fwd, [
                copy("reversed", "directed", scc_reached="scc_reached"), ("scc_assign",),
            ]))[-self.P:])
            rounds += 1
        return self._result_ds(fwd, "state_table", {"component": "scc_label"},
                               output_path=output_path, as_table=as_table)

    def aggregate_messages(
        self,
        edge_msg,
        *,
        agg: str = "sum",
        vertex_values=None,
        variant: str = "directed",
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """G7 — the GraphFrames ``aggregateMessages`` user hook: run ONE
        superstep where every edge sends ``edge_msg(src_value, weight)`` to
        its destination and messages combine with ``agg`` ∈ {sum, min, max}.
        Returns (vid, agg_value) for vertices that received ≥1 message.

        ``vertex_values``: optional (vid, value) table/DataFrame; defaults
        to value = vid. The built-in algorithms run on this same scatter/
        gather machinery — this surface exposes it for user extensions
        (e.g. shortest-path steps = min-aggregate of dist + w)."""
        actors, man = self._pool(variant)
        if vertex_values is None:
            ray.get([a.init_value.remote("vid") for a in actors])
        else:
            # hash-partitioned staging (the stage_graph pattern): each shard
            # loads only its slice — the vertex table never touches the driver
            from graphx_ray.ids import part_of
            from graphx_ray.state.spill import spill

            vds = _as_dataset(vertex_values)
            value_col = next(c for c in vds.schema().names if c != "vid")
            P = self.P
            vals = spill(
                vds,
                lambda b: (b.select(["vid", value_col]), part_of(b["vid"].to_numpy(), P)),
                P, out=os.path.join(self.workdir, f"uservals_{variant}"),
            )
            ray.get([a.load_values_partition.remote(vals.path(p), value_col)
                     for p, a in enumerate(actors)])
        rec = self._supersteps(
            actors, man, "aggregate_messages", ("scatter_user", edge_msg, agg),
            ("gather_user", agg), max_iter=1,
            summary=lambda res: {"received": [int(c) for c in res]},
        )
        # results park in the actors; only non-empty parts are collected
        # (an empty gather_user table carries a placeholder dtype that
        # would clash in the result's schema) — unless ALL are empty
        parts = [p for p, c in enumerate(rec["received"]) if c] or [0]
        return self._result_ds(actors, "user_agg_table", output_path=output_path,
                               as_table=as_table, parts=parts)

    def shortest_paths(
        self,
        landmarks: list[int],
        *,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """G8 — hop distances to each landmark over the canonical undirected
        graph (min-plus supersteps to fixpoint; unreachable = -1). Semantics
        documented here rather than inherited: GraphX's lib.ShortestPaths
        follows reversed edges; we pin the undirected-hop contract and test
        it against networkx.

        Landmark distance columns accumulate INSIDE the shard actors (one
        banked vector per landmark); the driver never merges per-landmark
        vertex tables. With ``output_path`` the result is written as
        per-part parquet and read back lazily."""
        actors, man = self._pool("undirected")
        lms = [int(lm) for lm in landmarks]
        for lm in lms:
            self._supersteps(
                actors, man, "shortest_paths", ("scatter_minplus",), ("gather_min",),
                max_iter=_limit(max_iter), summary=_changed, stop=_settled,
                init=("init_dist", lm),
            )
            ray.get([a.store_dist.remote(lm) for a in actors])
        return self._result_ds(actors, "dist_table", lms, output_path=output_path,
                               as_table=as_table)

    _BC_ROWS = ("bc_dist", "bc_sigma")

    def _path_counts(self, actors, man, algo: str, pivots: list, first: bool,
                     limit: int, scale: int | None = None) -> int:
        """Brandes' forward phase for one pivot batch: level-synchronous
        BFS where superstep d extends the frontier from level d to d + 1
        and a newly reached vertex's σ sums its frontier in-neighbors' σ
        (the salted hubs' rows synced first). Returns the depth reached
        (≤ ``limit``)."""
        rec = self._supersteps(
            actors, man, algo, phases=lambda d: [(("scatter_bc_fwd", d), ("gather_bc_fwd", d))],
            max_iter=limit, summary=lambda res: {"reached": int(sum(res))},
            stop=lambda rec: rec["reached"] == 0,
            init=("init_bc", pivots, first, scale), hub_state=self._BC_ROWS,
        )
        return 0 if rec is None else rec["iteration"] + (rec["reached"] > 0)

    def _brandes(self, actors, man, pivots: list, batch: int, limit: int,
                 scale: int | None = None) -> None:
        """Brandes dependency accumulation over ``pivots``, ``batch``
        columns at a time, into every shard's ``bc_acc``: the forward
        phase, then the backward phase from the deepest level up —
        superstep k scatters level depth − k. ``scale`` selects the
        exact-integer arithmetic of ``betweenness_fixed``."""
        for i in range(0, len(pivots), batch):
            depth = self._path_counts(actors, man, "betweenness_fwd",
                                      pivots[i:i + batch], i == 0, limit, scale)
            self._supersteps(
                actors, man, "betweenness_bwd",
                phases=lambda k: [(("scatter_bc_bwd", depth - k), ("gather_bc_bwd", depth - k))],
                max_iter=depth, summary=lambda res: {}, init=("init_bc_delta",),
                hub_state=self._BC_ROWS + ("bc_delta",),
            )
            ray.get([a.finish_bc_batch.remote() for a in actors])

    def betweenness_centrality(
        self,
        *,
        k: int | None = None,
        sources: list[int] | None = None,
        seed: int = 42,
        batch: int = 4,
        normalized: bool = False,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Brandes betweenness centrality (SURVEY.md A.15) over the
        canonical undirected simple graph — exact when every vertex is a
        pivot (the default; O(V·E), small graphs only), pivot-sampled
        when ``k`` is given (Brandes–Pich; pivots are the k vertices with
        the smallest mix64(seed ^ vid), so the sample is deterministic
        and parallelism-invariant), or user-pinned via ``sources``.
        Scaling matches networkx.betweenness_centrality: ×1/2 undirected
        (×1/((n−1)(n−2)) when ``normalized``), ×n/k for sampled pivots.

        Pivots run in batches of ``batch`` columns; each superstep's
        working set is (shard edges × batch) float64 — size ``batch`` to
        the node. Forward: level-synchronous σ counting (message-sum over
        the frontier). Backward: dependency accumulation deepest level
        first. Salted hubs sync their (dist, σ, δ) rows before every
        superstep."""
        actors, man = self._pool("undirected")
        n_total = sum(ray.get([a.owned_count.remote() for a in actors]))
        if sources is not None:
            piv = [int(s) for s in sources]
            sampled = False
        elif k is not None and k < n_total:
            pairs = ray.get([a.pivot_candidates.remote(k, seed) for a in actors])
            h = np.concatenate([p[0] for p in pairs])
            v = np.concatenate([p[1] for p in pairs])
            piv = [int(x) for x in v[np.argsort(h, kind="stable")[:k]]]
            sampled = True
        else:
            # exact mode: every vertex is a pivot (driver holds the id
            # list — exact betweenness is O(V·E), small graphs only)
            owned = ray.get([a.owned_vids.remote() for a in actors])
            piv = sorted(int(x) for arr in owned for x in arr)
            sampled = False
        self._brandes(actors, man, piv, batch, _limit(max_iter))
        if normalized:
            scale = 1.0 / ((n_total - 1) * (n_total - 2)) if n_total > 2 else 0.0
        else:
            scale = 0.5
        if sampled:
            scale *= n_total / len(piv)
        return self._result_ds(actors, "result_table_bc", scale, output_path=output_path,
                               as_table=as_table)

    def betweenness_fixed(
        self,
        sources: list[int],
        *,
        max_depth: int = 8,
        scale: int = 10**12,
        batch: int = 4,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Fixed-point INTEGER Brandes dependency accumulation (the
        svdpp_fixed pattern applied to A.15): per pivot, the forward σ
        phase is the exact-integer BFS of ``shortest_path_counts`` capped
        at ``max_depth`` levels, and the backward phase accumulates

            δ(v) = σ(v) · Σ_{w succ} floor((scale + δ(w)) / σ(w))

        with the floor division at the SENDER (katz/salsa's per-edge
        device) so every message is an order-free int64 sum and the whole
        run replays bit-exactly in SQL. Returns (vid, bc_fixed) where
        bc_fixed = Σ over pivots of δ (a pivot's own row excluded, per
        Brandes); bc_fixed / (2·scale) ≈ the unnormalized undirected
        betweenness restricted to the given pivots. ``max_depth`` pins
        the contract exactly like sssp's max_iter. Runs the same Brandes
        driver as ``betweenness_centrality``."""
        actors, man = self._pool("undirected")
        self._brandes(actors, man, [int(s) for s in sources], batch, max_depth, int(scale))
        return self._result_ds(actors, "state_table", {"bc_fixed": "bc_acc"},
                               output_path=output_path, as_table=as_table)

    def shortest_path_counts(
        self,
        source: int,
        *,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Single-source shortest-path COUNTS over the canonical
        undirected simple graph — the exact-integer forward phase of
        Brandes (SURVEY.md A.15): level-synchronous BFS where a newly
        reached vertex's σ is the sum of its frontier in-neighbors' σ.
        Returns (vid, dist, sigma); unreached vertices carry (−1, 0).
        σ is exact while < 2^53 (guarded)."""
        actors, man = self._pool("undirected")
        self._path_counts(actors, man, "path_counts", [int(source)], True, _limit(max_iter))
        return self._result_ds(actors, "result_table_path_counts",
                               output_path=output_path, as_table=as_table)

    def sssp_weighted(
        self,
        source: int,
        *,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Weighted single-source shortest paths over the UNDIRECTED
        weighted graph (each directed edge contributes both directions
        with its integer weight; parallel edges take the min naturally):
        min-plus Bellman-Ford supersteps to fixpoint (or exactly
        ``max_iter`` rounds when given — the pinned contract the SQL
        oracle unrolls). Returns (vid, dist), −1 unreachable. Weights
        must be non-negative integers (rounded from ``w``)."""
        actors, man = self._pool("undirected_weighted")
        self._supersteps(
            actors, man, "sssp_weighted", ("scatter_minplus_w",), ("gather_min",),
            max_iter=_limit(max_iter), summary=_changed, stop=_settled,
            init=("init_dist", int(source)),
        )
        ray.get([a.store_dist.remote(int(source)) for a in actors])
        return self._result_ds(actors, "dist_table", [int(source)], output_path=output_path,
                               as_table=as_table, rename=["vid", "dist"])

    def widest_path(
        self,
        source: int,
        *,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Widest (bottleneck) path over the UNDIRECTED weighted graph:
        max-min supersteps — msg = min(width(src), w), gather = max —
        to fixpoint (or exactly ``max_iter`` rounds when given, the
        pinned contract the SQL oracle unrolls; a reached fixpoint is
        stable). Returns (vid, width): the maximum over paths of the
        minimum edge weight along the path; 0 at the source (mirroring
        dist-to-self = 0), −1 unreachable. Weights must be positive
        integers (rounded from ``w``)."""
        actors, man = self._pool("undirected_weighted")
        self._supersteps(
            actors, man, "widest_path", ("scatter_maxmin_w",), ("gather_max",),
            max_iter=_limit(max_iter), summary=_changed, stop=_settled,
            init=("init_width", int(source)),
        )
        return self._result_ds(actors, "width_table", output_path=output_path,
                               as_table=as_table)

    def topo_layers(
        self,
        *,
        max_iter: int | None = None,
        output_path: str | None = None,
        as_table: bool = False,
    ):
        """Topological layering of the DIRECTED graph: layer(v) = length
        of the longest directed path ending at v (the Kahn peel round in
        which v's in-degree reaches zero), computed by max-plus
        supersteps from all-zeros — msg = layer(src) + 1, gather = max.
        Runs to fixpoint, guarded by |V| rounds: a vertex on (or
        reachable from) a directed cycle never stabilizes, so exceeding
        the guard raises ``ValueError`` — topo_layers doubles as a
        distributed cycle detector. ``max_iter`` pins an exact round
        count instead (the SQL-unroll contract; iterates are
        deterministic even pre-fixpoint). Returns (vid, layer)."""
        actors, man = self._pool("directed")
        limit = max_iter
        if limit is None:
            # cycle guard: longest simple path < |V|, so a DAG's fixpoint
            # lands within n rounds; one shard-stats wave, no vertex data
            limit = sum(
                s["n_vertices"] for s in ray.get([a.stats.remote() for a in actors])
            ) + 1
        rec = self._supersteps(
            actors, man, "topo_layers", ("scatter_maxplus",), ("gather_max",),
            max_iter=limit, summary=_changed, stop=_settled, init=("init_value", "zero"),
        )
        if max_iter is None and rec["changed"]:
            raise ValueError(
                "topo_layers: no fixpoint within |V| rounds — the graph "
                "has a directed cycle (pass max_iter to pin rounds instead)"
            )
        return self._result_ds(actors, "state_table", {"layer": "val"},
                               output_path=output_path, as_table=as_table)

    def approx_distances(
        self,
        landmarks: list[int],
        query_vids: list[int],
        *,
        output_path: str | None = None,
    ) -> Dataset:
        """Landmark distance oracle (Thorup–Zwick / Potamias et al.
        shape): d̂(u, v) = min over landmarks ℓ of d(u, ℓ) + d(ℓ, v) —
        an upper bound on the true hop distance (exact whenever some
        shortest path passes a landmark; d̂(u, u) = 2·d(u, nearest ℓ),
        the standard oracle artifact). Returns (u, v, est) for EVERY
        vertex u × each of the (small) ``query_vids``; −1 when u and v
        share no reachable landmark.

        Scale shape: |L| BFS supersteps through the CSR pool (the
        shortest_paths machinery, landmark columns accumulated
        shard-side), then the |Q|×|L| query rows — model-sized —
        broadcast into one streaming map_batches; pairwise estimates
        never shuffle."""
        lms = [int(x) for x in landmarks]
        qv = sorted(int(x) for x in query_vids)
        sp = self.shortest_paths(lms)
        cols = [f"dist_{l}" for l in lms]

        import pyarrow.compute as pc

        qset = pa.array(np.asarray(qv, dtype=np.int64))

        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["vid"], value_set=qset))

        qrows = (
            sp.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
            .to_pandas()
            .sort_values("vid")
        )  # |Q| rows — the broadcast side
        qd = qrows[cols].to_numpy().astype(np.int64)  # (|Q|, |L|)
        qids = qrows["vid"].to_numpy().astype(np.int64)
        qd_ref = ray.put(qd)
        qid_ref = ray.put(qids)

        def estimate(batch: pa.Table) -> pa.Table:
            qdm = ray.get(qd_ref)  # (|Q|, |L|)
            qi = ray.get(qid_ref)
            u = batch["vid"].to_numpy()
            du = np.stack([batch[c].to_numpy() for c in cols], axis=1).astype(np.int64)
            # -1 (unreachable) must not win the min: lift to +inf-ish
            BIG = np.int64(1) << 60
            du_ = np.where(du < 0, BIG, du)  # (n, L)
            qd_ = np.where(qdm < 0, BIG, qdm)  # (Q, L)
            est = (du_[:, None, :] + qd_[None, :, :]).min(axis=2)  # (n, Q)
            est = np.where(est >= BIG, np.int64(-1), est)
            n, q = est.shape
            return pa.table({
                "u": pa.array(np.repeat(u, q), type=pa.int64()),
                "v": pa.array(np.tile(qi, n), type=pa.int64()),
                "est": pa.array(est.reshape(-1)),
            })

        return sp.map_batches(
            estimate, batch_format="pyarrow", zero_copy_batch=True
        )

    def condensation(
        self,
        *,
        max_rounds: int | None = None,
        num_partitions: int = 16,
    ) -> Dataset:
        """Condensation DAG of the directed graph: every SCC contracted
        to its min-vid label (the ``strongly_connected_components``
        contract); returns edges (src, dst, w) between DISTINCT
        components, w = Σ of the original edge weights between the two
        (1 per edge when unweighted), intra-component edges dropped.
        The condensation of any directed graph is acyclic, so composing
        with ``topo_layers`` on the result gives the DAG-layer
        decomposition of a cyclic graph without tripping the cycle
        guard. Scale shape: the SCC supersteps + two bucket joins of
        the edge table against the label table + one keyed reduce —
        the louvain-contraction pattern."""
        from graphx_ray.stages.derive import grouped_reduce
        from graphx_ray.stages.motif import bucket_join

        labels = self.strongly_connected_components(max_rounds=max_rounds)
        ju = bucket_join(
            self._with_weight(self.edges), labels,
            on="src", right_on="vid", num_partitions=num_partitions,
        )

        def project(batch: pa.Table) -> pa.Table:
            # explicit projection: Dataset.select_columns can report the
            # UN-projected schema on tiny upstream plans (observed on a
            # 1-row join at sf0.001), and bucket_join reads its left
            # spill with schema()-derived columns
            return batch.select(["component", "dst", "w"])

        jv = bucket_join(
            ju.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
            labels,
            on="dst", right_on="vid", num_partitions=num_partitions,
        )

        def contract(batch: pa.Table) -> pa.Table:
            cu = batch["component"].to_numpy()
            cv = batch["component_r"].to_numpy()
            w = batch["w"].to_numpy().astype(np.int64)
            keep = cu != cv
            return pa.table(
                {
                    "src": pa.array(cu[keep], type=pa.int64()),
                    "dst": pa.array(cv[keep], type=pa.int64()),
                    "w": pa.array(w[keep]),
                }
            )

        c = jv.map_batches(contract, batch_format="pyarrow", zero_copy_batch=True)
        return grouped_reduce(
            c, ["src", "dst"], sum_col="w",
            num_partitions=num_partitions,
            empty_schema=pa.schema(
                [("src", pa.int64()), ("dst", pa.int64()), ("w", pa.int64())]
            ),
        )

    def degrees(self) -> Dataset:
        from graphx_ray.stages.derive import degrees as _deg

        return _deg(self._with_weight(self.edges))

    def triangle_count(self):
        from graphx_ray.pipelines.triangles import triangle_count as _tc

        return _tc(self.edges, vertices=self.vertices, num_parts=self.P)

    @staticmethod
    def _with_weight(ds: Dataset) -> Dataset:
        def ensure_w(batch: pa.Table) -> pa.Table:
            if "w" in batch.column_names:
                return batch
            return batch.append_column("w", pa.array(np.ones(batch.num_rows, np.int64)))

        return ds.map_batches(ensure_w, batch_format="pyarrow", zero_copy_batch=True)

    def close(self) -> None:
        """Release every view and park the hosts on the idle list, where
        the next pool reuses them; a host that died is dropped."""
        self._actors.clear()
        if self._hosts is not None:
            _park_hosts(self._hosts)
            self._hosts = None


def partition_by(edges, strategy: str, num_parts: int, *, col: str = "part"):
    """Module-level GraphX ``partitionBy`` passthrough (state/partition.py)."""
    from graphx_ray.state.partition import partition_by as _pb

    return _pb(_as_dataset(edges), strategy, num_parts, col=col)
