"""GraphX/GraphFrames structural operators over edge/vertex Datasets.

Public-surface parity with GraphX ``Graph.{reverse, subgraph, mask,
groupEdges, outerJoinVertices, mapTriplets}`` and GraphFrames
``filterVertices / filterEdges / dropIsolatedVertices``, expressed
Ray-Data-first:

- narrow transforms (reverse, predicate filters) are per-batch Arrow
  kernels / pushed-down ``Dataset.filter(expr=)`` — no shuffle;
- endpoint-membership restriction (subgraph's vpred, dropIsolated, mask)
  is a broadcast semi-join (SURVEY.md J4) when the surviving key set is
  small, or the storage-backed bucket join (J5) when both sides are big;
- attribute attachment (outerJoinVertices, triplets) rides bucket_join,
  which hash-co-partitions both sides through storage — the two-big-sides
  path that holds at 100 TB.

Edge tables are (src, dst[, w, ...]) int64; vertex tables carry ``vid``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd
from ray.data import Dataset

from graphx_ray.stages.derive import grouped_reduce, semi_join
from graphx_ray.stages.motif import bucket_join


def reverse_edges(edges: Dataset) -> Dataset:
    """GraphX ``Graph.reverse``: flip every edge's direction (weights and
    extra columns ride along)."""

    def flip(batch: pa.Table) -> pa.Table:
        cols = {n: batch[n] for n in batch.column_names}
        cols["src"], cols["dst"] = batch["dst"], batch["src"]
        return pa.table(cols)

    return edges.map_batches(flip, batch_format="pyarrow", zero_copy_batch=True)


def filter_edges(edges: Dataset, epred: str) -> Dataset:
    """GraphFrames ``filterEdges``: keep edges satisfying the expression
    (Arrow-pushdown predicate, e.g. ``"w >= 2"``)."""
    return edges.filter(expr=epred)


def filter_vertices(vertices: Dataset, vpred: str) -> Dataset:
    """GraphFrames ``filterVertices`` (vertex side only; pair with
    ``subgraph`` to restrict edges to surviving endpoints)."""
    return vertices.filter(expr=vpred)


def subgraph(
    edges: Dataset,
    vertices: Dataset | None = None,
    *,
    epred: str | None = None,
    vpred: str | None = None,
    vid_col: str = "vid",
    large_vertex_side: bool = False,
    num_partitions: int = 8,
) -> tuple[Dataset | None, Dataset]:
    """GraphX ``Graph.subgraph(epred, vpred)``: keep vertices satisfying
    ``vpred`` and edges satisfying ``epred`` whose BOTH endpoints survive.

    Returns (kept_vertices, kept_edges); kept_vertices is None when no
    vertex table was given. ``large_vertex_side=True`` routes the
    endpoint restriction through the storage-backed bucket join instead
    of the broadcast semi-join (use when the surviving vertex set does
    not comfortably fit the object store)."""
    if epred is not None:
        edges = edges.filter(expr=epred)
    kept_v = None
    if vertices is not None:
        kept_v = vertices.filter(expr=vpred) if vpred is not None else vertices
        if vpred is not None:
            keys = kept_v.select_columns([vid_col])
            if large_vertex_side:
                edges = bucket_join(edges, keys, on="src", right_on=vid_col,
                                    how="semi", num_partitions=num_partitions)
                edges = bucket_join(edges, keys, on="dst", right_on=vid_col,
                                    how="semi", num_partitions=num_partitions)
            else:
                edges = semi_join(edges, keys, on="src", right_on=vid_col,
                                  num_partitions=num_partitions)
                edges = semi_join(edges, keys, on="dst", right_on=vid_col,
                                  num_partitions=num_partitions)
    return kept_v, edges


def drop_isolated_vertices(
    vertices: Dataset, edges: Dataset, *, vid_col: str = "vid",
    num_partitions: int = 8,
) -> Dataset:
    """GraphFrames ``dropIsolatedVertices``: keep vertices that appear as
    an endpoint of at least one edge."""

    def endpoints(batch: pa.Table) -> pa.Table:
        ids = np.unique(
            np.concatenate([batch["src"].to_numpy(), batch["dst"].to_numpy()])
        )
        return pa.table({vid_col: pa.array(ids, type=pa.int64())})

    eps = edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
    return semi_join(vertices, eps, on=vid_col, right_on=vid_col,
                     num_partitions=num_partitions)


def mask(edges: Dataset, other: Dataset, *, num_partitions: int = 16) -> Dataset:
    """GraphX ``Graph.mask``: restrict to edges also present (by src, dst)
    in ``other`` — a bucketed semi-join, both sides may be large."""
    return bucket_join(edges, other.select_columns(["src", "dst"]),
                       on=["src", "dst"], how="semi",
                       num_partitions=num_partitions)


def group_edges(
    edges: Dataset, *, agg: str = "sum", w_col: str = "w",
    num_partitions: int = 32,
) -> Dataset:
    """GraphX ``Graph.groupEdges(merge)``: merge parallel edges, combining
    weights with ``agg`` ∈ {sum, min, max} (the storage-backed
    grouped_reduce — one hash shuffle, vectorized reduceat per block)."""
    return grouped_reduce(edges, ["src", "dst"], sum_col=w_col, agg=agg,
                          num_partitions=num_partitions)


def outer_join_vertices(
    vertices: Dataset, attrs: Dataset, *, on: str = "vid",
    right_on: str | None = None, num_partitions: int = 16,
) -> Dataset:
    """GraphX ``Graph.outerJoinVertices``: every vertex keeps its row;
    attribute columns from ``attrs`` attach where present, null where the
    attr table has no row (int64 attrs stay int64-with-nulls)."""
    return bucket_join(vertices, attrs, on=on, right_on=right_on or on,
                       how="left", num_partitions=num_partitions)


def triplets(
    edges: Dataset, vertices: Dataset, *, vid_col: str = "vid",
    num_partitions: int = 16, broadcast: bool = False,
) -> Dataset:
    """GraphX ``Graph.triplets`` / the input of ``mapTriplets``: each edge
    row joined with its source and destination vertex attributes
    (columns prefixed ``src_`` / ``dst_``), inner-join semantics (edges
    with an absent endpoint drop).

    ``broadcast=False``: two bucketed inner joins hash-partitioned by
    endpoint — the two-big-sides path. ``broadcast=True``: the vertex
    attr table is ``ray.put`` once and probed per batch with searchsorted
    (SURVEY.md J3) — the right path when attrs ≪ edges (degrees, labels),
    saving two storage shuffles."""
    vcols = [c for c in vertices.schema().names if c != vid_col]
    if broadcast:
        import ray

        vdf = vertices.to_pandas()  # small-side contract of a broadcast join
        order = np.argsort(vdf[vid_col].to_numpy(), kind="stable")
        vids = vdf[vid_col].to_numpy()[order]
        attr_ref = ray.put((vids, {c: vdf[c].to_numpy()[order] for c in vcols}))

        def attach(batch: pa.Table) -> pa.Table:
            svids, attrs = ray.get(attr_ref)  # plasma shared memory, zero-copy
            n = len(batch)
            keep = np.ones(n, bool)
            pos = {}
            for side in ("src", "dst"):
                e = batch[side].to_numpy()
                if len(svids):
                    p = np.minimum(np.searchsorted(svids, e), len(svids) - 1)
                    keep &= svids[p] == e
                else:
                    p = np.zeros(n, np.int64)
                    keep[:] = False
                pos[side] = p
            ke = np.flatnonzero(keep)
            take = pa.array(ke)
            cols = {m: batch[m].take(take) for m in batch.column_names}
            for side, pre in (("src", "src_"), ("dst", "dst_")):
                p = pos[side][ke]
                for c in vcols:
                    cols[pre + c] = pa.array(attrs[c][p])
            return pa.table(cols)

        return edges.map_batches(attach, batch_format="pyarrow", zero_copy_batch=True)

    def renamed(prefix: str) -> Dataset:
        def ren(batch: pa.Table) -> pa.Table:
            cols = {vid_col: batch[vid_col]}
            for c in vcols:
                cols[prefix + c] = batch[c]
            return pa.table(cols)

        return vertices.map_batches(ren, batch_format="pyarrow", zero_copy_batch=True)

    out = bucket_join(edges, renamed("src_"), on="src", right_on=vid_col,
                      how="inner", num_partitions=num_partitions)
    return bucket_join(out, renamed("dst_"), on="dst", right_on=vid_col,
                       how="inner", num_partitions=num_partitions)


def collect_neighbor_ids(
    edges: Dataset,
    *,
    direction: str = "out",
    vertices: Dataset | None = None,
    vid_col: str = "vid",
    num_partitions: int = 16,
) -> Dataset:
    """GraphX ``collectNeighborIds(edgeDirection)``: one row per vertex
    with the sorted list of its neighbor ids — (vid, neighbors:
    list<int64>). Pinned semantics: parallel edges keep duplicate
    neighbor entries (GraphX concatenates per-edge messages), the list is
    sorted ascending for determinism; ``direction`` ∈ {out, in, both}
    ("both" = in ∪ out with multiplicity).

    Without ``vertices``, vertices with no edge in the requested direction
    are omitted (same rule as degrees) — a PINNED DEVIATION from GraphX,
    whose collectNeighborIds leftZipJoins back to the full vertex set.
    Pass ``vertices`` (a table with ``vid_col``) to get the exact GraphX
    result: edge-less vertices appear with an empty list.

    Scale shape: one storage-backed hash shuffle keyed by vid
    (``partitioned_map``), then one lexsort + run-boundary ListArray build
    per partition — no per-group Python, no driver materialization."""
    from graphx_ray.stages.derive import partitioned_map

    if direction not in ("out", "in", "both"):
        raise ValueError(direction)

    def prep(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        if direction == "out":
            vid, nbr = src, dst
        elif direction == "in":
            vid, nbr = dst, src
        else:
            vid = np.concatenate([src, dst])
            nbr = np.concatenate([dst, src])
        return pa.table(
            {"vid": pa.array(vid, type=pa.int64()),
             "nbr": pa.array(nbr, type=pa.int64()),
             "real": pa.array(np.ones(len(vid), bool))}
        )

    rows = edges.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    if vertices is not None:
        # sentinel row per vertex: guarantees every vertex emits a (possibly
        # empty) list — the GraphX leftZipJoin behavior
        def vrow(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                {"vid": batch[vid_col].cast(pa.int64()),
                 "nbr": pa.array(np.zeros(n, np.int64)),
                 "real": pa.array(np.zeros(n, bool))}
            )

        rows = rows.union(
            vertices.map_batches(vrow, batch_format="pyarrow", zero_copy_batch=True)
        )

    out_schema = pa.schema(
        [pa.field("vid", pa.int64()), pa.field("neighbors", pa.list_(pa.int64()))]
    )

    def build(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        vid = tbl["vid"].to_numpy()
        nbr = tbl["nbr"].to_numpy()
        real = tbl["real"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nbr, vid))
        vid, nbr, real = vid[order], nbr[order], real[order]
        new = np.empty(len(vid), bool)
        new[0] = True
        np.not_equal(vid[1:], vid[:-1], out=new[1:])
        rs = np.flatnonzero(new)
        # per-vid REAL counts: sentinel rows contribute list slots of 0
        real_cnt = np.add.reduceat(real.astype(np.int64), rs)
        offsets = np.concatenate([[0], np.cumsum(real_cnt)]).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(nbr[real], type=pa.int64())
        )
        return pa.table({"vid": pa.array(vid[rs]), "neighbors": lists}, schema=out_schema)

    return partitioned_map(
        rows,
        ["vid"],
        build,
        num_partitions=num_partitions,
        empty_schema=out_schema,
    )


def map_triplets(
    edges: Dataset, vertices: Dataset, fn, *, vid_col: str = "vid",
    num_partitions: int = 16,
) -> Dataset:
    """GraphX ``Graph.mapTriplets(fn)``: ``fn`` is a per-batch Arrow
    kernel over the triplet table (edge columns + src_*/dst_* attrs)."""
    return triplets(edges, vertices, vid_col=vid_col,
                    num_partitions=num_partitions).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def k_core(
    edges: Dataset,
    k: int,
    *,
    num_partitions: int = 16,
    max_rounds: int = 64,
) -> Dataset:
    """k-core (fixed k) of the canonical simple graph: (vid, deg) of every
    vertex whose core number is ≥ k, with its degree INSIDE the core (all
    ≥ k). Self-loops, parallel edges and weights do not count.

    ``coreness`` plus one exchange on the same shards: every vertex
    counts its neighbors of core number ≥ k. A vertex is in the k-core
    iff that count is ≥ k (with k such neighbors it joins their core), so
    the count is both the in-core degree and the membership test."""
    from graphx_ray.pipelines.graph import Graph, _changed

    if k < 1:
        raise ValueError(f"k_core needs k ≥ 1, got {k}")

    def send(src_core, w, outdeg):
        return (src_core >= k).astype(np.int64)

    def take(old, msgs, got):
        return msgs

    def inside(part: pa.Table) -> pa.Table:
        return part.filter(pa.array(part["deg"].to_numpy() >= k))

    g = Graph(edges, num_parts=num_partitions)
    try:
        actors, man = _core_numbers(g, max_rounds)
        g._supersteps(
            actors, man, "k_core", ("scatter_pregel", send, "sum", "all"),
            ("gather_pregel", take, "sum", "all"), max_iter=1, summary=_changed,
        )
        return g._result_ds(actors, "state_table", {"deg": "val"}, finish=inside)
    finally:
        g.close()


def _spill_edges(ds: Dataset) -> Dataset:
    """Write an edge Dataset to scratch parquet and re-read it — resets
    lazy lineage so iterative filters don't re-execute the whole chain."""
    import tempfile

    from graphx_ray.context import register_spill

    d = tempfile.mkdtemp(prefix="graphx_kcore_spill_")
    register_spill(d)
    ds.write_parquet(d)
    return rd.read_parquet(d)


def map_vertices(vertices: Dataset, fn, *, batch_format: str = "pyarrow") -> Dataset:
    """GraphX ``Graph.mapVertices`` naming parity: ``fn`` is a per-batch
    table→table transform (vectorized — never a per-row callable)."""
    return vertices.map_batches(fn, batch_format=batch_format, zero_copy_batch=True)


def map_edges(edges: Dataset, fn, *, batch_format: str = "pyarrow") -> Dataset:
    """GraphX ``Graph.mapEdges`` naming parity (same per-batch contract)."""
    return edges.map_batches(fn, batch_format=batch_format, zero_copy_batch=True)


def remove_self_edges(edges: Dataset) -> Dataset:
    """GraphFrames ``convertToCanonicalEdges`` companion: drop src == dst."""

    def f(batch: pa.Table) -> pa.Table:
        keep = batch["src"].to_numpy() != batch["dst"].to_numpy()
        return batch.filter(pa.array(keep))

    return edges.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def convert_to_canonical_edges(edges: Dataset) -> Dataset:
    """GraphFrames ``convertToCanonicalEdges``: orient each edge src ≤ dst
    (endpoints swapped in place; other columns ride along; no dedup —
    pair with ``group_edges`` to merge parallels)."""

    def f(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        cols = {n: batch[n] for n in batch.column_names}
        cols["src"] = pa.array(lo, type=pa.int64())
        cols["dst"] = pa.array(hi, type=pa.int64())
        return pa.table(cols)

    return edges.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def pick_random_vertex(edges: Dataset, *, seed: int = 5) -> int:
    """GraphX ``GraphOps.pickRandomVertex``, made deterministic: the vertex
    whose splitmix64(vid ^ mix(seed)) is minimal — a seeded uniform pick
    computable as a per-block partial min (one small driver reduce, no
    shuffle, parallelism-invariant)."""
    from graphx_ray.ids import mix64

    salt = mix64(np.uint64(seed))

    def partial(batch: pa.Table) -> pa.Table:
        vids = np.unique(
            np.concatenate([batch["src"].to_numpy(), batch["dst"].to_numpy()])
        )
        if len(vids) == 0:
            return pa.table({"vid": pa.array([], pa.int64()),
                             "h": pa.array([], pa.uint64())})
        h = mix64(vids.astype(np.uint64) ^ salt)
        i = int(np.lexsort((vids, h))[0])  # min h, ties → min vid
        return pa.table({"vid": pa.array([int(vids[i])], pa.int64()),
                         "h": pa.array([h[i]], pa.uint64())})

    p = edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    if p.empty:
        raise ValueError("pick_random_vertex on an empty edge set")
    p = p.sort_values(["h", "vid"]).reset_index(drop=True)
    return int(p["vid"][0])


def _core_numbers(g, max_rounds: int, checkpoint_dir: str | None = None,
                  resume: bool = False):
    """Run the H-index fixpoint on ``g``'s undirected view; every shard
    then holds its vertices' core numbers as ``val``. Returns the view's
    handles and manifest."""
    from graphx_ray.pipelines.graph import _changed, _settled
    from graphx_ray.state import checkpoint as ckpt

    actors, man = g._pool("undirected")
    fp = {"algo": "coreness", "P": g.P}
    rec = g._supersteps(
        actors, man, "coreness", ("hindex_ghost_vals",), ("hindex_step",),
        max_iter=max_rounds, summary=_changed, stop=_settled, init=("hindex_init",),
        checkpoint=(checkpoint_dir, fp, {"core": "val"}), resume=resume,
    )
    if rec is None and resume and checkpoint_dir:
        # resumed at max_rounds: the checkpoint says whether it converged
        it = ckpt.latest_complete(checkpoint_dir, fp)
        rec = ckpt.manifest_metrics(checkpoint_dir, it) if it is not None else None
    if rec is None or rec.get("changed") != 0:
        import warnings

        warnings.warn(
            f"coreness exhausted max_rounds={max_rounds} before the "
            "H-index fixpoint — returned core numbers are upper bounds, "
            "not exact; raise max_rounds",
            RuntimeWarning,
            stacklevel=3,
        )
    return actors, man


def coreness(
    edges: Dataset,
    *,
    num_partitions: int = 16,
    max_rounds: int = 100,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> Dataset:
    """Core number of every vertex via the H-index fixpoint (Lü et al.
    2016): c₀ = degree; cₜ₊₁(v) = H({cₜ(u) : u ∈ N(v)}); converges to the
    k-core decomposition's core numbers exactly.

    Shape (round-3 de-drivered): the graph's undirected view on the
    shard hosts (one hash-partitioned spill, the view exchange and the
    one-time ghost index exchange, same machinery as PageRank), and one
    ``Graph._supersteps`` run: per-vertex c vectors live in
    partition-aligned actor state, and each round is one exchange in
    which every shard sends the c values its peers' neighborhoods need
    (the pull mirror of the scatter ghost exchange) and each peer reduces
    H over its edges — the driver routes ONLY ObjectRefs and per-shard
    changed counts (the round-2 design pulled one (v, c) row per vertex
    to the driver every round). It reads the canonical simple graph (the
    ``undirected`` view: self-loops and parallel edges do not count);
    staging is unsalted — H is not edge-decomposable, so a vertex's full
    neighborhood must stay shard-local."""
    from graphx_ray.pipelines.graph import Graph

    g = Graph(edges, num_parts=num_partitions)
    try:
        actors, _ = _core_numbers(g, max_rounds, checkpoint_dir, resume)
        # the (vid, coreness) parts stay in the object store, owned by
        # this driver, so they outlive g.close(); the result never
        # assembles on the driver (Graph._result_ds)
        res = g._result_ds(actors, "state_table", {"core": "val"})
    finally:
        g.close()
    return res


def join_vertices(
    vertices: Dataset,
    attrs: Dataset,
    update_fn=None,
    *,
    on: str = "vid",
    right_on: str | None = None,
    num_partitions: int = 16,
) -> Dataset:
    """GraphX ``GraphOps.joinVertices(table)(mapFunc)``: update vertex
    attributes from ``attrs`` where a row matches; vertices WITHOUT a
    match keep their ORIGINAL attributes unchanged (the contract that
    distinguishes this from ``outerJoinVertices``, whose mapper sees a
    None). ``update_fn`` is a per-batch Arrow kernel over the joined
    table (left columns + right columns, ``_r``-suffixed on collision,
    null where unmatched) returning the updated vertex table; the default
    coalesces each right column into the same-named left column."""
    rkey = right_on or on
    joined = bucket_join(vertices, attrs, on=on, right_on=rkey,
                         how="left", num_partitions=num_partitions)
    lcols = list(vertices.schema().names)
    rcols = [c for c in attrs.schema().names if c != rkey]

    if update_fn is None:
        def update_fn(batch: pa.Table) -> pa.Table:  # noqa: F811 (pinned default)
            import pyarrow.compute as pc

            cols = {}
            for c in lcols:
                newname = c + "_r" if (c in rcols and c in lcols) else None
                if c in rcols:
                    # collision: pandas-merge suffix rule puts the right
                    # side at c_r; unmatched rows are null -> keep old
                    new = batch[newname] if newname in batch.column_names else batch[c]
                    cols[c] = pc.coalesce(new.cast(batch[c].type), batch[c])
                else:
                    cols[c] = batch[c]
            return pa.table(cols)

    return joined.map_batches(update_fn, batch_format="pyarrow", zero_copy_batch=True)


def collect_edges(
    edges: Dataset,
    *,
    direction: str = "out",
    num_partitions: int = 16,
) -> Dataset:
    """GraphX ``GraphOps.collectEdges(edgeDirection)``: one row per vertex
    with the list of its incident edges as (src, dst, w) structs —
    (vid, edges: list<struct>). ``direction`` ∈ {out, in, both} ("both" =
    each edge appears under both endpoints). Lists are sorted by
    (src, dst) for determinism; vertices with no edge in the requested
    direction are omitted (same pinned rule as degrees /
    collect_neighbor_ids without a vertex table).

    Shape: one vid-keyed storage shuffle (``partitioned_map``), then one
    lexsort + run-boundary List<Struct> build per partition."""
    from graphx_ray.stages.derive import partitioned_map

    if direction not in ("out", "in", "both"):
        raise ValueError(direction)

    def prep(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        w = (
            batch["w"].to_numpy()
            if "w" in batch.column_names
            else np.ones(len(src), np.int64)
        )
        if direction == "out":
            vid = src
        elif direction == "in":
            vid = dst
        else:
            vid = np.concatenate([src, dst])
            src = np.tile(src, 2)
            dst = np.tile(dst, 2)
            w = np.tile(w, 2)
        return pa.table(
            {
                "vid": pa.array(vid, type=pa.int64()),
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
                "w": pa.array(w.astype(np.int64)),
            }
        )

    struct_t = pa.struct(
        [pa.field("src", pa.int64()), pa.field("dst", pa.int64()), pa.field("w", pa.int64())]
    )
    out_schema = pa.schema(
        [pa.field("vid", pa.int64()), pa.field("edges", pa.list_(struct_t))]
    )

    def build(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        vid = tbl["vid"].to_numpy()
        src = tbl["src"].to_numpy()
        dst = tbl["dst"].to_numpy()
        w = tbl["w"].to_numpy()
        order = np.lexsort((w, dst, src, vid))
        vid, src, dst, w = vid[order], src[order], dst[order], w[order]
        new = np.empty(len(vid), bool)
        new[0] = True
        np.not_equal(vid[1:], vid[:-1], out=new[1:])
        rs = np.flatnonzero(new)
        offsets = np.append(rs, len(vid)).astype(np.int32)
        structs = pa.StructArray.from_arrays(
            [pa.array(src, type=pa.int64()), pa.array(dst, type=pa.int64()),
             pa.array(w, type=pa.int64())],
            fields=list(struct_t),
        )
        lists = pa.ListArray.from_arrays(pa.array(offsets), structs)
        return pa.table({"vid": pa.array(vid[rs]), "edges": lists}, schema=out_schema)

    return partitioned_map(
        edges.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"],
        build,
        num_partitions=num_partitions,
        empty_schema=out_schema,
    )


def collect_neighbors(
    edges: Dataset,
    vertices: Dataset,
    *,
    direction: str = "out",
    vid_col: str = "vid",
    num_partitions: int = 16,
) -> Dataset:
    """GraphX ``GraphOps.collectNeighbors(edgeDirection)``: one row per
    vertex with the list of (neighbor id, neighbor attributes) structs —
    (vid, neighbors: list<struct<nbr, ...attr cols>>). Neighbor attrs come
    from ``vertices``; neighbors missing an attr row drop (inner-join
    semantics, matching triplets). Lists sorted by nbr; parallel edges
    keep duplicates; vertices with no edge in the requested direction are
    omitted (same pinned rule as collect_neighbor_ids without a vertex
    table).

    Shape: one bucketed join attaching the neighbor-side attrs + one
    vid-keyed storage shuffle for the list build — both storage-backed."""
    from graphx_ray.stages.derive import partitioned_map

    if direction not in ("out", "in", "both"):
        raise ValueError(direction)
    attr_cols = [c for c in vertices.schema().names if c != vid_col]

    def prep(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        if direction == "out":
            vid, nbr = src, dst
        elif direction == "in":
            vid, nbr = dst, src
        else:
            vid = np.concatenate([src, dst])
            nbr = np.concatenate([dst, src])
        return pa.table(
            {"vid_": pa.array(vid, type=pa.int64()),
             "nbr": pa.array(nbr, type=pa.int64())}
        )

    pairs = edges.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    joined = bucket_join(pairs, vertices, on="nbr", right_on=vid_col,
                         how="inner", num_partitions=num_partitions)

    def build(tbl: pa.Table) -> pa.Table:
        struct_t = pa.struct(
            [pa.field("nbr", pa.int64())]
            + [tbl.schema.field(c) for c in attr_cols]
        )
        out_schema = pa.schema(
            [pa.field("vid", pa.int64()), pa.field("neighbors", pa.list_(struct_t))]
        )
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        vid = tbl["vid_"].to_numpy()
        nbr = tbl["nbr"].to_numpy()
        order = np.lexsort((nbr, vid))
        take = pa.array(order)
        vid, nbr = vid[order], nbr[order]
        new = np.empty(len(vid), bool)
        new[0] = True
        np.not_equal(vid[1:], vid[:-1], out=new[1:])
        rs = np.flatnonzero(new)
        offsets = np.append(rs, len(vid)).astype(np.int32)
        structs = pa.StructArray.from_arrays(
            [pa.array(nbr, type=pa.int64())]
            + [tbl[c].take(take).combine_chunks() for c in attr_cols],
            fields=list(struct_t),
        )
        lists = pa.ListArray.from_arrays(pa.array(offsets), structs)
        return pa.table({"vid": pa.array(vid[rs]), "neighbors": lists},
                        schema=out_schema)

    first_struct = pa.struct([pa.field("nbr", pa.int64())])
    return partitioned_map(
        joined, ["vid_"], build, num_partitions=num_partitions,
        empty_schema=pa.schema(
            [pa.field("vid", pa.int64()), pa.field("neighbors", pa.list_(first_struct))]
        ),
    )


# ------------------------------------------------------------------ k-truss


def canonical_triangles(canon: Dataset, *, num_partitions: int = 16) -> Dataset:
    """Every triangle of a CANONICAL (u<v, deduped) edge set, one row
    (a, x, y) per triangle with x < y the closing edge and ``a`` the wedge
    apex (a < x by the orientation below is NOT guaranteed — a is the
    DAG-lowest endpoint, which may sit anywhere in vid order). Enumeration
    is degree-DAG-oriented (each edge points from lower (degree, vid) to
    higher), so per-vertex wedge work is bounded by the oriented
    out-degree — the arboricity bound that keeps Zipf hubs from exploding,
    same device as pipelines/triangles. Wedge→closing-edge verification
    and the degree attachment are storage-backed bucket joins (two large
    sides, no broadcast)."""
    from graphx_ray.stages.derive import partitioned_map

    # degrees over the canonical set (both endpoints)
    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table({"vid": pa.array(uq), "d": pa.array(cnt.astype(np.int64))})

    deg = grouped_reduce(
        canon.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="d", num_partitions=num_partitions,
    )
    # attach both endpoint degrees (storage joins), then orient
    eu = bucket_join(canon, deg, on="u", right_on="vid",
                     num_partitions=num_partitions)
    ev = bucket_join(eu, deg.map_batches(
        lambda b: pa.table({"vid": b["vid"], "dv": b["d"]}),
        batch_format="pyarrow", zero_copy_batch=True),
        on="v", right_on="vid", num_partitions=num_partitions)

    def orient(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        du = batch["d"].to_numpy()
        dv = batch["dv"].to_numpy()
        fwd = (du < dv) | ((du == dv) & (u < v))
        src = np.where(fwd, u, v)
        dst = np.where(fwd, v, u)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    oriented = ev.map_batches(orient, batch_format="pyarrow", zero_copy_batch=True)

    # wedges: per oriented source, all out-neighbor pairs (x < y numeric)
    def wedges(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"x": pa.array([], pa.int64()), "y": pa.array([], pa.int64()),
                          "a": pa.array([], pa.int64())})
        if tbl.num_rows == 0:
            return empty
        src = tbl["src"].to_numpy()
        dst = tbl["dst"].to_numpy()
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        n = len(src)
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = src[1:] != src[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [n]]))
        cnt = lens * (lens - 1) // 2  # pairs per source
        total = int(cnt.sum())
        if total == 0:
            return empty
        # expand pairs (i, j), i<j within each source's neighbor run
        segs = np.repeat(np.arange(len(starts)), cnt)
        # local pair index within segment → (i, j) via triangular unrank:
        # pairs enumerate i-major; prefix(i) = i·L − i − i(i−1)/2 pairs
        # precede row i. Float unrank (exact well past any oriented
        # out-degree) + an integer correction step for boundary safety.
        off = np.cumsum(cnt) - cnt
        t = np.arange(total) - off[segs]
        L = lens[segs]
        i = np.floor(((2 * L - 1) - np.sqrt((2 * L - 1) ** 2 - 8 * t)) / 2).astype(np.int64)
        prefix = lambda r: r * L - r - (r * (r - 1)) // 2
        i = np.where(prefix(i + 1) <= t, i + 1, i)
        i = np.where(prefix(i) > t, i - 1, i)
        j = t - prefix(i) + i + 1
        gi = starts[segs] + i
        gj = starts[segs] + j
        x = dst[gi]
        y = dst[gj]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        return pa.table({"x": pa.array(lo), "y": pa.array(hi),
                         "a": pa.array(src[gi])})

    w = partitioned_map(
        oriented, ["src"], wedges, num_partitions=num_partitions,
        empty_schema=pa.schema([pa.field("x", pa.int64()), pa.field("y", pa.int64()),
                                pa.field("a", pa.int64())]),
    )
    # close the wedge: (x, y) must be a canonical edge
    return bucket_join(w, canon, on=["x", "y"], right_on=["u", "v"],
                       how="semi", num_partitions=num_partitions)


def k_truss(
    edges: Dataset,
    k: int,
    *,
    num_partitions: int = 16,
    max_rounds: int = 100,
) -> Dataset:
    """k-truss: the maximal subgraph of the canonical simple graph in which
    every edge lies in ≥ k−2 triangles (SURVEY.md A.11), matching
    networkx.k_truss's edge set. Returns the surviving canonical (u, v)
    edges: the edges whose ``trussness`` is ≥ k."""
    t = trussness(edges, num_partitions=num_partitions, max_rounds=max_rounds).materialize()
    if not t.count():  # a map over empty blocks would drop the schema
        return rd.from_arrow(TRUSS_SCHEMA.empty_table().select(["u", "v"]))

    def keep(batch: pa.Table) -> pa.Table:
        m = pa.array(batch["trussness"].to_numpy() >= k)
        return batch.select(["u", "v"]).filter(m)

    return t.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


TRUSS_SCHEMA = pa.schema(
    [("u", pa.int64()), ("v", pa.int64()), ("trussness", pa.int64())]
)


def trussness(
    edges: Dataset,
    *,
    num_partitions: int = 16,
    max_rounds: int = 200,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> Dataset:
    """FULL truss decomposition: (u, v, trussness) for every canonical
    simple edge (self-loops and parallel edges do not count),
    trussness(e) = the largest k with e in the k-truss (every edge is
    trivially in the 2-truss, so the minimum is 2) — matching
    networkx.k_truss membership at every k (tested).

    Computed WITHOUT nested peeling via the local H-index fixpoint of
    truss decomposition (Sariyüce, Seshadhri & Pinar, VLDB 2018 local
    nucleus decomposition; the edge analog of the Lü et al. vertex
    H-index that ``coreness`` uses): t₀(e) = support(e); per round each
    triangle {e, f, g} offers e the value min(t(f), t(g)), and
    t(e) ← H-index of e's offered values; the fixpoint is trussness − 2.
    Monotone non-increasing from the support start, so convergence is
    detected by the changed count alone.

    Triangles are enumerated ONCE (``canonical_triangles``, DAG-oriented)
    and spilled by owning edge; the rounds run in the
    ``state/truss.TrussShard`` actor pool — each shard pins its edge
    partition's triangle rows plus a one-time ghost index, and a round is
    an in-memory H-index pass + a packed ghost value exchange (ObjectRefs
    and changed counts are all the driver routes) — measured 68 rounds in
    ~7 s at sf0.1."""
    from graphx_ray.stages.derive import canonical_edges
    from graphx_ray.state.spill import hash_parts, spill
    from graphx_ray.state.truss import truss_fixpoint

    sch = edges.schema()
    can = (canonical_edges(edges) if "src" in (sch.names or []) else edges).materialize()
    if not can.count():
        return rd.from_arrow(TRUSS_SCHEMA.empty_table())
    tri = canonical_triangles(can, num_partitions=num_partitions)

    # explode each triangle into its 3 (edge, sibling1, sibling2) rows —
    # spilled once by owning edge; the shards pin them for every round
    def explode(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        x = batch["x"].to_numpy()
        y = batch["y"].to_numpy()
        e1u, e1v = np.minimum(a, x), np.maximum(a, x)
        e2u, e2v = np.minimum(a, y), np.maximum(a, y)
        e3u, e3v = x, y
        eu = np.concatenate([e1u, e2u, e3u])
        ev = np.concatenate([e1v, e2v, e3v])
        s1u = np.concatenate([e2u, e1u, e1u])
        s1v = np.concatenate([e2v, e1v, e1v])
        s2u = np.concatenate([e3u, e3u, e2u])
        s2v = np.concatenate([e3v, e3v, e2v])
        return pa.table(
            {"eu": pa.array(eu, type=pa.int64()), "ev": pa.array(ev, type=pa.int64()),
             "s1u": pa.array(s1u, type=pa.int64()), "s1v": pa.array(s1v, type=pa.int64()),
             "s2u": pa.array(s2u, type=pa.int64()), "s2v": pa.array(s2v, type=pa.int64())}
        )

    tedge = spill(
        tri.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        lambda b: (b, hash_parts(b, ["eu", "ev"], num_partitions)),
        num_partitions,
    )
    if not tedge.parts:  # no triangle: every edge is only in the 2-truss
        def two(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"u": batch["u"], "v": batch["v"],
                 "trussness": pa.array(np.full(batch.num_rows, 2, np.int64))},
                schema=TRUSS_SCHEMA,
            )

        return can.map_batches(two, batch_format="pyarrow", zero_copy_batch=True)

    t, converged = truss_fixpoint(
        tedge, num_partitions=num_partitions, max_rounds=max_rounds,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    if not converged:
        import warnings

        warnings.warn(
            f"trussness exhausted max_rounds={max_rounds} before the "
            "H-index fixpoint — returned values are upper bounds, not "
            "exact; raise max_rounds",
            RuntimeWarning,
            stacklevel=2,
        )
    # canonical edges LEFT JOIN the fixpoint values; an edge in no
    # triangle has t = 0
    j = bucket_join(can, t, on=["u", "v"], right_on=["eu", "ev"],
                    how="left", num_partitions=num_partitions)

    def fin(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tv = pc.fill_null(batch["t"], 0).combine_chunks().to_numpy()
        return pa.table(
            {"u": batch["u"], "v": batch["v"],
             "trussness": pa.array(tv.astype(np.int64) + 2)},
            schema=TRUSS_SCHEMA,
        )

    return j.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


DENSEST_SCHEMA = pa.schema(
    [("vid", pa.int64()), ("last_round", pa.int64()), ("in_best", pa.int64())]
)


def densest_subgraph(
    edges: Dataset,
    *,
    factor: int = 4,
    max_rounds: int = 32,
    num_partitions: int = 16,
) -> Dataset:
    """Densest-subgraph 2(1+ε)-approximation by parallel greedy peel
    (Bahmani, Kumar & Vazirani, VLDB 2012) of the canonical simple graph
    (self-loops and parallel edges do not count): each round drops EVERY
    vertex whose degree·V ≤ factor·E (factor = 2(1+ε); the default 4 is
    ε = 1, approximation ratio 4, round count ≤ log₂V + 1 by the
    published lemma — the integer cross-multiplied threshold keeps the
    compare exact, valid while deg·V < 2⁶³). The density-maximising
    prefix over the peel rounds is the answer.

    Returns (vid, last_round, in_best) per ORIGINAL endpoint: last_round
    = the last round in which the vertex was still an edge endpoint
    (vertices isolated by others' removal leave implicitly), in_best = 1
    iff the vertex belongs to the densest recorded prefix S_r* (exact
    rational argmax of E_r/V_r, ties → earliest round).

    One ``Graph._supersteps`` round per peel round on the undirected
    view: the alive flags go to the neighbors in one exchange
    (``densest_degrees``), and every shard folds the P partial (V, 2E)
    and peels its own vertices (``densest_peel``). The run stops at the
    first round with no vertex left or none dropped; only its last
    (V, E, best round) record reaches the driver."""
    from graphx_ray.pipelines.graph import Graph

    if max_rounds < 1:
        raise ValueError(f"densest_subgraph needs max_rounds ≥ 1, got {max_rounds}")

    def alive(src_alive, w):
        return src_alive

    def summary(res: list) -> dict:
        n_v, n_e, best, _ = res[0]  # every shard folded the same totals
        return {"V": n_v, "E": n_e, "best_round": best,
                "dropped": int(sum(r[3] for r in res))}

    g = Graph(edges, num_parts=num_partitions)
    try:
        actors, man = g._pool("undirected")
        rec = g._supersteps(
            actors, man, "densest_subgraph",
            phases=lambda r: [(("scatter_user", alive, "sum"), ("densest_degrees",)),
                              ("densest_peel", factor, r, ...)],
            max_iter=max_rounds, summary=summary,
            stop=lambda rec: rec["V"] == 0 or rec["dropped"] == 0,
            init=("init_value", "pr"),
        )
        best_r = rec["best_round"]

        def fin(part: pa.Table) -> pa.Table:
            lr = part["last_round"].to_numpy()
            keep = lr >= 0
            return pa.table(
                {"vid": part["vid"].filter(pa.array(keep)), "last_round": lr[keep],
                 "in_best": (lr[keep] >= best_r).astype(np.int64)},
                schema=DENSEST_SCHEMA,
            )

        return g._result_ds(actors, "state_table", {"last_round": "dlast"}, finish=fin)
    finally:
        g.close()


ASSORT_SCHEMA = pa.schema(
    [("m2", pa.int64()), ("sx", pa.int64()),
     ("sxx", pa.int64()), ("sxy", pa.int64())]
)


def degree_assortativity_stats(
    edges: Dataset, *, num_partitions: int = 16
) -> Dataset:
    """Degree-assortativity sufficient statistics (Newman 2002), EXACT
    int64: over both orientations of every simple undirected edge with
    endpoint degrees (x, y) = (deg u, deg v), one row (m2, sx, sxx, sxy)
    with m2 = 2E, sx = Σx (= Σy by symmetry), sxx = Σx², sxy = Σxy. The
    caller divides: r = (m2·sxy − sx²) / (m2·sxx − sx²) — no float leaves
    the engine (same contract as ``clustering_stats``). Valid while
    Σ deg² < 2⁶³.

    Shape: one keyed degree reduce, one bucketed degree join per endpoint
    role, block-local partial sums folded by one single-row reduce."""
    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.stages.derive import canonical_edges, grouped_reduce
    from graphx_ray.stages.motif import bucket_join

    can = canonical_edges(_as_dataset(edges))

    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uq, type=pa.int64()),
             "d": pa.array(cnt.astype(np.int64))}
        )

    deg = grouped_reduce(
        can.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="d", num_partitions=num_partitions,
    )

    def both(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        return pa.table(
            {"a": pa.array(np.concatenate([u, v]), type=pa.int64()),
             "b": pa.array(np.concatenate([v, u]), type=pa.int64())}
        )

    pairs = can.map_batches(both, batch_format="pyarrow", zero_copy_batch=True)
    j1 = bucket_join(pairs, deg, on="a", right_on="vid",
                     num_partitions=num_partitions)
    j2 = bucket_join(j1, deg, on="b", right_on="vid",
                     num_partitions=num_partitions)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m2": pa.array([], pa.int64()),
                 "sx": pa.array([], pa.int64()), "sxx": pa.array([], pa.int64()),
                 "sxy": pa.array([], pa.int64())}
            )
        x = batch["d"].to_numpy()
        y = batch["d_r"].to_numpy()
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "m2": pa.array([batch.num_rows], pa.int64()),
             "sx": pa.array([int(x.sum())], pa.int64()),
             "sxx": pa.array([int((x * x).sum())], pa.int64()),
             "sxy": pa.array([int((x * y).sum())], pa.int64())}
        )

    folded = grouped_reduce(
        j2.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], agg_cols={"m2": "sum", "sx": "sum", "sxx": "sum", "sxy": "sum"},
        num_partitions=1,
    )
    return folded.map_batches(
        lambda b: b.select(["m2", "sx", "sxx", "sxy"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# ------------------------------------------------- global graph statistics
# (reciprocity / transitivity / power-law tail — the single-row profiling
# stats a link-graph health check runs next to assortativity. All three
# share the contract of ``degree_assortativity_stats``: exact int64
# sufficient statistics leave the engine, any division is pinned integer
# floor division, and every stage is block-partial → one keyed reduce —
# nothing data-sized ever assembles on the driver.)


def reciprocity_stats(edges: Dataset, *, num_partitions: int = 16) -> Dataset:
    """One row (n_directed, n_reciprocal, reciprocity_micro) over the
    DIRECTED simple graph (duplicates collapsed, self-loops dropped):
    the conventional r = L↔/L of Garlaschelli & Loffredo (PRL 2004) —
    the fraction of directed edges whose reverse edge also exists —
    in exact integer micro-units floor(1e6·L↔/L).

    Shape: one (src,dst) dedup reduce → canonical-pair flag fold (flag 1 =
    u<v direction, 2 = v<u; a pair summing to 3 has both) → block-partial
    counts → single-row reduce. Two keyed storage shuffles total, both
    over the deduplicated edge set."""
    from graphx_ray.pipelines.graph import _as_dataset

    ds = _as_dataset(edges)

    def dpart(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        keep = src != dst
        src, dst = src[keep], dst[keep]
        key = np.stack([src, dst], axis=1)
        uniq = np.unique(key, axis=0)
        return pa.table(
            {"src": pa.array(uniq[:, 0], type=pa.int64()),
             "dst": pa.array(uniq[:, 1], type=pa.int64())}
        )

    dd = grouped_reduce(
        ds.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["src", "dst"], num_partitions=num_partitions,
        empty_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
    )

    def canon_flag(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        f = np.where(src < dst, np.int64(1), np.int64(2))
        return pa.table(
            {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64()),
             "f": pa.array(f)}
        )

    # directed pairs are distinct, so each (a,b) group sums its distinct
    # direction flags: 1 or 2 = one direction only, 3 = reciprocal pair
    flags = grouped_reduce(
        dd.map_batches(canon_flag, batch_format="pyarrow", zero_copy_batch=True),
        ["a", "b"], sum_col="f", num_partitions=num_partitions,
        empty_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()), ("f", pa.int64())]),
    )

    def partial(batch: pa.Table) -> pa.Table:
        f = batch["f"].to_numpy()
        both = int((f == 3).sum())
        one = int(batch.num_rows) - both
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "nd": pa.array([one + 2 * both], pa.int64()),
             "nr": pa.array([2 * both], pa.int64())}
        )

    folded = grouped_reduce(
        flags.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], agg_cols={"nd": "sum", "nr": "sum"}, num_partitions=1,
        empty_schema=pa.schema([("k", pa.int64()), ("nd", pa.int64()), ("nr", pa.int64())]),
    )

    def fin(batch: pa.Table) -> pa.Table:
        nd = batch["nd"].to_numpy()
        nr = batch["nr"].to_numpy()
        # positive operands: numpy // == DuckDB // == floor (pinned recipe)
        rm = np.where(nd > 0, (1_000_000 * nr) // np.maximum(nd, 1), np.int64(0))
        return pa.table(
            {"n_directed": pa.array(nd), "n_reciprocal": pa.array(nr),
             "reciprocity_micro": pa.array(rm)}
        )

    return folded.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def transitivity_stats(edges: Dataset, *, num_partitions: int = 16) -> Dataset:
    """One row (wedges, closed, transitivity_micro): the global clustering
    coefficient C = 3·triangles / wedges (Newman 2003 §III.B "fraction of
    transitive triples") over the undirected simple graph, micro-units via
    integer floor division. ``closed`` is Σ_v triangles(v) = 3·triangles
    (each triangle closes the wedge at all three of its vertices) and
    ``wedges`` = Σ_v d(v)(d(v)−1)/2 — both exact int64 (valid while
    Σ d² < 2⁶³, the ``degree_assortativity_stats`` bound).

    Shape: the triangle pipeline's own stages (orientation + probe-bucket
    wedge fetch) plus one degree reduce; the two single-row folds meet in
    a trivial join."""
    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.pipelines.triangles import triangle_count
    from graphx_ray.stages.derive import canonical_edges

    ds = _as_dataset(edges)
    can = canonical_edges(ds)

    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uq, type=pa.int64()),
             "d": pa.array(cnt.astype(np.int64))}
        )

    deg = grouped_reduce(
        can.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="d", num_partitions=num_partitions,
    )

    def wpart(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy()
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "wedges": pa.array([int((d * (d - 1) // 2).sum())], pa.int64())}
        )

    wed = grouped_reduce(
        deg.map_batches(wpart, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], sum_col="wedges", num_partitions=1,
        empty_schema=pa.schema([("k", pa.int64()), ("wedges", pa.int64())]),
    )

    tri = triangle_count(ds, num_parts=num_partitions)

    def tpart(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "closed": pa.array([int(batch["count"].to_numpy().sum())], pa.int64())}
        )

    clo = grouped_reduce(
        tri.map_batches(tpart, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], sum_col="closed", num_partitions=1,
        empty_schema=pa.schema([("k", pa.int64()), ("closed", pa.int64())]),
    )

    j = bucket_join(wed, clo, on="k", right_on="k", num_partitions=1)

    def fin(batch: pa.Table) -> pa.Table:
        w = batch["wedges"].to_numpy()
        c = batch["closed"].to_numpy()
        tm = np.where(w > 0, (1_000_000 * c) // np.maximum(w, 1), np.int64(0))
        return pa.table(
            {"wedges": pa.array(w), "closed": pa.array(c),
             "transitivity_micro": pa.array(tm)}
        )

    return j.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def rich_club_stats(
    edges: Dataset, ks: list[int], *, num_partitions: int = 16
) -> Dataset:
    """Rich-club coefficients (Zhou & Mondragón 2004; Colizza et al.
    2006 uncorrected φ): for each degree threshold k in ``ks``, one row
    (k, n_k, e_k, phi_micro) over the undirected simple graph — n_k =
    vertices with degree > k, e_k = edges with BOTH endpoints' degree
    > k, φ(k) = 2·e_k / (n_k·(n_k−1)) in exact micro-units
    floor(2e6·e_k / (n_k(n_k−1))); 0 when n_k < 2. Exact int64
    throughout (valid while 2e6·e_k < 2⁶³).

    Shape: one degree reduce; the degree histogram folds n_k for ALL
    thresholds in one block-partial pass, and the two endpoint-degree
    attachments (the assortativity joins) fold e_k the same way — the
    threshold sweep never rescans the graph."""
    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.stages.derive import canonical_edges, grouped_reduce

    if not ks:
        raise ValueError("rich_club_stats: empty threshold list")
    ks = [int(k) for k in ks]
    can = canonical_edges(_as_dataset(edges))

    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uq, type=pa.int64()),
             "d": pa.array(cnt.astype(np.int64))}
        )

    deg = grouped_reduce(
        can.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="d", num_partitions=num_partitions,
    )
    karr = np.array(ks, np.int64)

    def npart(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy()
        nk = (d[:, None] > karr[None, :]).sum(axis=0).astype(np.int64)
        return pa.table({"k": pa.array(karr), "n_k": pa.array(nk)})

    nks = grouped_reduce(
        deg.map_batches(npart, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], sum_col="n_k", num_partitions=1,
        empty_schema=pa.schema([("k", pa.int64()), ("n_k", pa.int64())]),
    )

    eu = bucket_join(can, deg, on="u", right_on="vid",
                     num_partitions=num_partitions)
    ev = bucket_join(eu, deg.map_batches(
        lambda b: pa.table({"vid": b["vid"], "dv": b["d"]}),
        batch_format="pyarrow", zero_copy_batch=True),
        on="v", right_on="vid", num_partitions=num_partitions)

    def epart(batch: pa.Table) -> pa.Table:
        lo = np.minimum(batch["d"].to_numpy(), batch["dv"].to_numpy())
        ek = (lo[:, None] > karr[None, :]).sum(axis=0).astype(np.int64)
        return pa.table({"k": pa.array(karr), "e_k": pa.array(ek)})

    eks = grouped_reduce(
        ev.map_batches(epart, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], sum_col="e_k", num_partitions=1,
        empty_schema=pa.schema([("k", pa.int64()), ("e_k", pa.int64())]),
    )
    j = bucket_join(nks, eks, on="k", right_on="k", num_partitions=1)

    def fin(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy()
        nk = batch["n_k"].to_numpy()
        ek = batch["e_k"].to_numpy()
        den = nk * (nk - 1)
        phi = np.where(den > 0, (2_000_000 * ek) // np.maximum(den, 1),
                       np.int64(0))
        order = np.argsort(k)
        return pa.table(
            {"k": pa.array(k[order]), "n_k": pa.array(nk[order]),
             "e_k": pa.array(ek[order]), "phi_micro": pa.array(phi[order])}
        )

    return j.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def degree_gini_stats(edges: Dataset, *, num_partitions: int = 16) -> Dataset:
    """Degree-concentration (Lorenz/Gini) statistics — one row
    (n_vertices, sum_deg, s1, gini_micro) over the undirected simple
    degree sequence, where s1 = Σᵢ i·d₍ᵢ₎ over the ASCENDING-sorted
    degrees (1-based ranks) and G = (2·s1 − (n+1)·Σd) / (n·Σd), the
    classic sorted-rank identity — in exact integer micro-units
    floor(1e6·G) via python bigints (no int64 overflow at any scale).

    No distributed rank is needed: Σᵢ i·d₍ᵢ₎ is invariant under
    permuting equal values, so the DEGREE HISTOGRAM (vocabulary-sized —
    distinct degree values, not vertices) carries the whole computation:
    a run of c copies of degree d occupying ranks off+1..off+c
    contributes d·(c·off + c(c+1)/2). One degree reduce → one histogram
    reduce → one tiny sorted fold. The emitted s1 column is int64 —
    valid while n·Σd < 2⁶³ (the assortativity-style bound; the Arrow
    cast raises loudly rather than wrapping past it)."""
    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.stages.derive import canonical_edges, grouped_reduce, partitioned_map

    can = canonical_edges(_as_dataset(edges))

    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uq, type=pa.int64()),
             "d": pa.array(cnt.astype(np.int64))}
        )

    deg = grouped_reduce(
        can.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="d", num_partitions=num_partitions,
    )

    def hpart(batch: pa.Table) -> pa.Table:
        uq, cnt = np.unique(batch["d"].to_numpy(), return_counts=True)
        return pa.table(
            {"d": pa.array(uq), "c": pa.array(cnt.astype(np.int64))}
        )

    hist = grouped_reduce(
        deg.map_batches(hpart, batch_format="pyarrow", zero_copy_batch=True),
        ["d"], sum_col="c", num_partitions=1,
        empty_schema=pa.schema([("d", pa.int64()), ("c", pa.int64())]),
    )
    out_schema = pa.schema(
        [("n_vertices", pa.int64()), ("sum_deg", pa.int64()),
         ("s1", pa.int64()), ("gini_micro", pa.int64())]
    )

    def fold(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {"n_vertices": pa.array([0], pa.int64()),
                 "sum_deg": pa.array([0], pa.int64()),
                 "s1": pa.array([0], pa.int64()),
                 "gini_micro": pa.array([0], pa.int64())},
                schema=out_schema,
            )
        d = tbl["d"].to_numpy()
        c = tbl["c"].to_numpy()
        order = np.argsort(d)
        d, c = d[order], c[order]
        n = int(c.sum())
        s0 = int((d * c).sum())
        off = np.concatenate(([0], np.cumsum(c)[:-1]))
        s1 = sum(
            int(dd) * (int(cc) * int(oo) + (int(cc) * (int(cc) + 1)) // 2)
            for dd, cc, oo in zip(d, c, off)
        )
        g = (1_000_000 * (2 * s1 - (n + 1) * s0)) // (n * s0) if n > 0 and s0 > 0 else 0
        return pa.table(
            {"n_vertices": pa.array([n], pa.int64()),
             "sum_deg": pa.array([s0], pa.int64()),
             "s1": pa.array([s1], pa.int64()),
             "gini_micro": pa.array([g], pa.int64())},
            schema=out_schema,
        )

    def const(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "g0", pa.array(np.zeros(batch.num_rows, np.int64)))

    return partitioned_map(
        hist.map_batches(const, batch_format="pyarrow", zero_copy_batch=True),
        ["g0"],
        lambda t: fold(t.drop_columns(["g0"]) if "g0" in t.column_names else t),
        num_partitions=1,
        empty_schema=out_schema,
    )


def log_micro(d: int) -> int:
    """floor(1e6·ln d) for an integer d ≥ 1, computed with python
    ``math.log`` — the same LUT contract as ``linkpred.aa_weight_micro``:
    the SQL oracle embeds these SAME python-computed constants as literal
    VALUES rows, so engine and oracle share identical integers by
    construction and no libm/SIMD last-ulp difference can flake a hash
    (numpy's vectorized log is NOT guaranteed bit-equal to libm)."""
    import math

    return int(1_000_000 * math.log(d))


def powerlaw_alpha_stats(
    edges: Dataset, *, d_min: int = 2, num_partitions: int = 16
) -> Dataset:
    """One row (n_tail, sum_log_micro, alpha_micro): the continuous
    maximum-likelihood power-law exponent (Hill estimator; Clauset,
    Shalizi & Newman, SIAM Rev 2009 eq. 3.1) over the undirected simple
    degree sequence, α = 1 + n / Σ ln(d_i/d_min) restricted to degrees
    ≥ d_min, in exact integers: per-degree ln via the ``log_micro`` LUT
    (python-log constants shared with the SQL oracle), the final division
    as floor over non-negative python bigints (no int64 overflow at any
    n). alpha_micro = 0 when the tail is empty or every tail degree
    equals d_min (α diverges).

    Shape: one degree reduce → block-partial (n, Σ log LUT) rows over
    LUT-sized distinct degrees per block → single-row reduce."""
    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.stages.derive import canonical_edges

    can = canonical_edges(_as_dataset(edges))

    def dpart(batch: pa.Table) -> pa.Table:
        vid = np.concatenate([batch["u"].to_numpy(), batch["v"].to_numpy()])
        uq, cnt = np.unique(vid, return_counts=True)
        return pa.table(
            {"vid": pa.array(uq, type=pa.int64()),
             "d": pa.array(cnt.astype(np.int64))}
        )

    deg = grouped_reduce(
        can.map_batches(dpart, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="d", num_partitions=num_partitions,
    )
    lmin = log_micro(d_min)

    def partial(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy()
        d = d[d >= d_min]
        uls, cnt = np.unique(d, return_counts=True)
        # python-log LUT over the block's DISTINCT degrees (LUT-sized,
        # never vertex-sized)
        ws = np.array([log_micro(int(x)) - lmin for x in uls], np.int64)
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "n_tail": pa.array([int(cnt.sum())], pa.int64()),
             "sum_log_micro": pa.array([int((ws * cnt).sum())], pa.int64())}
        )

    folded = grouped_reduce(
        deg.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], agg_cols={"n_tail": "sum", "sum_log_micro": "sum"},
        num_partitions=1,
        empty_schema=pa.schema(
            [("k", pa.int64()), ("n_tail", pa.int64()), ("sum_log_micro", pa.int64())]
        ),
    )

    def fin(batch: pa.Table) -> pa.Table:
        n = [int(x) for x in batch["n_tail"].to_numpy()]
        s = [int(x) for x in batch["sum_log_micro"].to_numpy()]
        # α_micro = 1e6 + floor(n·1e12 / Σlog) — python bigints, so the
        # n·1e12 product can never overflow int64 before the division
        alpha = [
            (1_000_000 + (ni * 1_000_000_000_000) // si) if si > 0 else 0
            for ni, si in zip(n, s)
        ]
        return pa.table(
            {"n_tail": pa.array(n, type=pa.int64()),
             "sum_log_micro": pa.array(s, type=pa.int64()),
             "alpha_micro": pa.array(alpha, type=pa.int64())}
        )

    return folded.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


PARTITION_QUALITY_SCHEMA = pa.schema(
    [("community", pa.int64()), ("n", pa.int64()), ("vol", pa.int64()),
     ("in2", pa.int64()), ("cut", pa.int64()), ("cond_micro", pa.int64())]
)


def partition_quality(edges, labels, *, num_partitions: int = 16) -> Dataset:
    """Per-community quality metrics of a vertex labeling (the Louvain /
    LPA / PIC evaluation row) over the canonical simple graph of
    ``edges``: distinct unordered pairs u≠v, each counted once — input
    weights, parallel edges and self-loops do not count. For each
    community C of the labels —

        n    = |C| (labeled vertices, edge-less ones included)
        vol  = Σ_{v∈C} deg(v), deg = number of distinct neighbours
        in2  = 2·(pairs inside C)    (so in2 + cut = vol exactly)
        cut  = pairs leaving C
        cond_micro = half-up micro conductance cut / min(vol, 2m − vol)
                     (−1 when the min is 0: C is everything or isolated)

    Every column is an exact int64, so modularity folds from the rows
    alone: Q = Σ_C (in2·2m − vol²) / (2m)² with 2m = Σ_C vol — the
    assortativity-style sufficient-statistics contract, no float leaves
    the engine. It is the modularity of unweighted Louvain's view
    (``Graph.louvain()``), not of ``weighted=True``'s.

    Scale shape: one canonical-edge pass, two label bucket_joins onto
    the edge table (both corpus-sized), one weighted-degree reduce +
    one label join, then two community-keyed reduces and one final
    community-keyed join — nothing community- or vertex-sized on the
    driver except the single scalar 2m."""
    from graphx_ray.pipelines.graph import _as_dataset
    from graphx_ray.stages.derive import canonical_edges

    can = _spill_edges(canonical_edges(_as_dataset(edges)))
    lab = _as_dataset(labels)

    e1 = bucket_join(can, lab, on="u", right_on="vid",
                     num_partitions=num_partitions)
    e2 = bucket_join(e1, lab, on="v", right_on="vid",
                     num_partitions=num_partitions)
    # columns: u, v, w, community (of u), community_r (of v)

    edge_part_schema = pa.schema(
        [("community", pa.int64()), ("in2", pa.int64()), ("cut", pa.int64())]
    )

    def edge_fold(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return edge_part_schema.empty_table()
        cu = batch["community"].to_numpy()
        cv = batch["community_r"].to_numpy()
        intra = cu == cv
        cs, i2s, cts = [], [], []
        if intra.any():
            k = int(intra.sum())
            cs.append(cu[intra]); i2s.append(np.full(k, 2, np.int64))
            cts.append(np.zeros(k, np.int64))
        inter = ~intra
        if inter.any():
            k = int(inter.sum())
            z = np.zeros(k, np.int64)
            o = np.ones(k, np.int64)
            cs.append(cu[inter]); i2s.append(z); cts.append(o)
            cs.append(cv[inter]); i2s.append(z); cts.append(o)
        return pa.table(
            {"community": pa.array(np.concatenate(cs), type=pa.int64()),
             "in2": pa.array(np.concatenate(i2s)),
             "cut": pa.array(np.concatenate(cts))},
            schema=edge_part_schema,
        )

    epart = grouped_reduce(
        e2.map_batches(edge_fold, batch_format="pyarrow", zero_copy_batch=True),
        ["community"], agg_cols={"in2": "sum", "cut": "sum"},
        num_partitions=num_partitions, empty_schema=edge_part_schema,
    )

    def degs(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy()
        v = batch["v"].to_numpy()
        o = np.ones(batch.num_rows, np.int64)
        return pa.table(
            {"vid": pa.array(np.concatenate([u, v]), type=pa.int64()),
             "dw": pa.array(np.concatenate([o, o]))}
        )

    degw = grouped_reduce(
        can.map_batches(degs, batch_format="pyarrow", zero_copy_batch=True),
        ["vid"], sum_col="dw", num_partitions=num_partitions,
        empty_schema=pa.schema([("vid", pa.int64()), ("dw", pa.int64())]),
    )
    vl = bucket_join(lab, degw, on="vid", how="left",
                     num_partitions=num_partitions)

    vol_schema = pa.schema(
        [("community", pa.int64()), ("n", pa.int64()), ("vol", pa.int64())]
    )

    def vol_fold(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return vol_schema.empty_table()
        import pyarrow.compute as pc

        dw = pc.fill_null(batch["dw"], 0).combine_chunks().to_numpy()
        return pa.table(
            {"community": batch["community"],
             "n": pa.array(np.ones(batch.num_rows, np.int64)),
             "vol": pa.array(dw.astype(np.int64))},
            schema=vol_schema,
        )

    vols = grouped_reduce(
        vl.map_batches(vol_fold, batch_format="pyarrow", zero_copy_batch=True),
        ["community"], agg_cols={"n": "sum", "vol": "sum"},
        num_partitions=num_partitions, empty_schema=vol_schema,
    )
    m2 = int(vols.sum("vol") or 0)  # 2m — the one driver scalar

    joined = bucket_join(vols, epart, on="community", how="left",
                         num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return PARTITION_QUALITY_SCHEMA.empty_table()
        import pyarrow.compute as pc

        in2 = pc.fill_null(batch["in2"], 0).combine_chunks().to_numpy()
        cut = pc.fill_null(batch["cut"], 0).combine_chunks().to_numpy()
        vol = batch["vol"].to_numpy()
        mn = np.minimum(vol, m2 - vol)
        cond = np.where(
            mn > 0, (2_000_000 * cut + np.maximum(mn, 1)) // (2 * np.maximum(mn, 1)),
            -1,
        )
        return pa.table(
            {"community": batch["community"], "n": batch["n"],
             "vol": pa.array(vol),
             "in2": pa.array(in2.astype(np.int64)),
             "cut": pa.array(cut.astype(np.int64)),
             "cond_micro": pa.array(cond.astype(np.int64))},
            schema=PARTITION_QUALITY_SCHEMA,
        )

    return joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
