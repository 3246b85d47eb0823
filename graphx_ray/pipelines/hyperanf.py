"""HyperANF: per-vertex neighborhood function via HLL register exchange.

The approximate-neighborhood-function algorithm of Boldi, Rosa & Vigna
(WWW 2011; the ANF idea is Palmer, Gibbons & Faloutsos, KDD 2002): give
every vertex a HyperLogLog counter initialized to {v}; at step t each
counter absorbs (register-wise MAX) its neighbors' counters, after which
counter v estimates |ball(v, t)| — the number of vertices within
distance t. Folding the per-vertex estimates gives the graph's
neighborhood function / effective-diameter curve, THE published way to
measure distance distributions on web-scale graphs (it replaced exact
BFS-from-every-vertex, which is O(V·E)).

Engine shape: one ``Graph._supersteps`` run on the shard hosts' undirected
view (the canonical simple graph), nothing driver-sized:

- a vertex's counter is a row of 2^p int64 registers (rho, 0 = absent)
  of a 2-D vertex value — splitmix64 hash, bit-length rho, so the
  DuckDB oracle replays the registers bit-identically;
- one step is the ``scatter_max``/``gather_max`` exchange every max
  fixpoint uses: register rows are pre-merged per destination before the
  shuffle, and the elementwise max is order-free;
- after each step every shard folds its counters into ball sizes
  (``CsrShard.hll_fold``) with the published dense estimator +
  linear-counting small-range correction (the absent-register trick:
  each of the m − n_present empty registers contributes 2⁰ = 1 to the
  denominator); ball sizes are ``floor(est + 0.5)`` int64 — the repo's
  pinned half-up recipe, shared with ``approx_ndv_events``;
- the shards return one (vid, deg, balls) row per vertex, the iters + 1
  ball sizes as a list; ``hyperanf`` unrolls it to (vid, t, ball), and
  the harmonic and effective-diameter folds read it directly. The
  vertices are the endpoints of canonical u ≠ v edges (deg > 0): a
  vertex with only self-loops is in the shard universe, not the output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

BALL_SCHEMA = pa.schema(
    [("vid", pa.int64()), ("t", pa.int64()), ("ball", pa.int64())]
)


def _ball_rows(edges, p: int, iters: int, num_parts: int, finish) -> Dataset:
    """``finish`` of each shard's (vid, deg, balls) table, a row per
    vertex of the shard universe: deg its canonical degree, balls its
    iters + 1 ball sizes, t = 0..iters."""
    from graphx_ray.pipelines.graph import Graph

    def n_t(res: list) -> dict:
        return {"n_t": int(sum(res))}

    g = Graph(edges, num_parts=num_parts)
    try:
        actors, man = g._pool("undirected")
        g._supersteps(
            actors, man, "hyperanf",
            phases=lambda it: [(("scatter_max",), ("gather_max",)), ("hll_fold", p, it + 1)],
            max_iter=iters, summary=n_t, init=("hll_fold", p, 0),
        )
        return g._result_ds(actors, "state_table", {"deg": "outdeg", "balls": "balls"},
                            finish=finish)
    finally:
        g.close()


def _balls(part: pa.Table) -> tuple:
    """The rows of vertices with an edge: (vid, 2-D ball matrix)."""
    keep = pa.array(part["deg"].to_numpy() > 0)
    balls = part["balls"].filter(keep).combine_chunks()
    b = balls.flatten().to_numpy().reshape(-1, balls.type.list_size)
    return part["vid"].filter(keep), b


def hyperanf(
    edges, *, p: int = 4, iters: int = 3, num_parts: int = 16
) -> Dataset:
    """(vid, t, ball) for t = 0..iters over the undirected simple graph:
    ball(v, t) ≈ |{u : dist(u, v) ≤ t}| from a 2^p-register HLL."""

    def unroll(part: pa.Table) -> pa.Table:
        vid, b = _balls(part)
        n, k = b.shape
        return pa.table(
            {"vid": pa.array(np.repeat(vid.to_numpy(), k)),
             "t": pa.array(np.tile(np.arange(k, dtype=np.int64), n)),
             "ball": pa.array(b.ravel())},
            schema=BALL_SCHEMA,
        )

    return _ball_rows(edges, p, iters, num_parts, unroll)


HARMONIC_SCHEMA = pa.schema(
    [("vid", pa.int64()), ("harmonic_2e6", pa.int64())]
)


def hyperball_harmonic(
    edges, *, p: int = 4, iters: int = 2, num_parts: int = 16
) -> Dataset:
    """HyperBall harmonic-centrality estimate (Boldi & Vigna, WWW 2014 —
    the published use of these counters): harmonic(v) = Σ_t (|ball(v,t)|
    − |ball(v,t−1)|)/t, reported in 2·10⁶-units so every weight
    2_000_000/t is an EXACT integer for t ≤ 2 (and any divisor of 2·10⁶)
    — the whole score is integer arithmetic over the ball table, so sums
    are order-free and the SQL oracle replays bit-identically; no float
    division ever happens. Caller divides by 2e6.

    A per-row fold of the shards' ball rows (each vertex's iters + 1
    ball sizes are one row) — no shuffle."""
    for t in range(1, iters + 1):
        if 2_000_000 % t:
            raise ValueError(
                f"t={t} does not divide 2e6 — weights would not be exact"
            )
    wt = np.array([2_000_000 // t for t in range(1, iters + 1)], np.int64)

    def fold(part: pa.Table) -> pa.Table:
        vid, b = _balls(part)
        return pa.table(
            {"vid": vid, "harmonic_2e6": pa.array((np.diff(b, axis=1) * wt).sum(axis=1))},
            schema=HARMONIC_SCHEMA,
        )

    return _ball_rows(edges, p, iters, num_parts, fold)


EFFDIAM_SCHEMA = pa.schema(
    [("eff_diameter_e6", pa.int64()), ("n_total", pa.int64())]
)


def effective_diameter(
    edges, *, p: int = 4, iters: int = 4, q_num: int = 9, q_den: int = 10,
    num_parts: int = 16,
) -> Dataset:
    """Effective diameter at quantile q = q_num/q_den from the HyperANF
    neighborhood function (Boldi-Rosa-Vigna 2011 / Palmer et al. ANF):
    the interpolated smallest t with N(t) ≥ q·N(iters), where
    N(t) = Σ_v |ball(v, t)|.

    Exact-integer contract: the global N(t) fold is an int64 sum of the
    (already integer) ball sizes — order-free; the crossing test
    is ``q_den·N(t) ≥ q_num·N(iters)`` (no float quantile); the linear
    interpolation is reported in micro-units via non-negative floor
    division, so the single output row replays bit-identically in SQL.
    The driver folds one iters+1 partial per shard — never anything
    corpus-sized. ``iters`` should be ≥ the graph's effective diameter
    for the quantile to mean anything; the saturating N(t) makes an
    undersized ``iters`` visible (n_total stops growing)."""
    import ray.data as rd

    if not 0 < q_num <= q_den:
        raise ValueError((q_num, q_den))

    def partial(part: pa.Table) -> pa.Table:
        _, b = _balls(part)
        return pa.table({"rows": [len(b)], "n": [b.sum(axis=0).tolist()]})

    # N(t) = Σ_v ball(v, t): one partial row per shard, summed here
    parts = _ball_rows(edges, p, iters, num_parts, partial).take_all()
    if not sum(r["rows"] for r in parts):
        return rd.from_arrow(EFFDIAM_SCHEMA.empty_table())
    nt = np.sum([r["n"] for r in parts], axis=0, dtype=np.int64).tolist()
    ntot = nt[-1]
    d_e6 = 0
    for t, n in enumerate(nt):
        if q_den * n >= q_num * ntot:
            if t > 0:
                prev = nt[t - 1]
                # crossing ⇒ prev < q·ntot ≤ n: both operands non-negative,
                # python // == SQL // (truncation == floor)
                d_e6 = t * 1_000_000 - 1_000_000 + (
                    (q_num * ntot - q_den * prev) * 1_000_000
                ) // (q_den * (n - prev))
            break
    return rd.from_arrow(
        pa.table(
            {"eff_diameter_e6": pa.array([d_e6], pa.int64()),
             "n_total": pa.array([ntot], pa.int64())},
            schema=EFFDIAM_SCHEMA,
        )
    )
