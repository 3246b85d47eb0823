"""Reference answers that do not use graphx_ray.

The graph oracles are vectorised numpy versions of the rules in
``tests/oracles.py`` (SURVEY.md Appendix A): the Python-loop LPA and the
networkx CC there are too slow at a million edges. Edge-derivation checks
run in DuckDB over the generated transcripts. The curation check is the
gate's own SQL oracle (``__ray_entry__.oracle_sql()``) run in DuckDB.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------- edges


def edge_totals_sql(transcripts: pa.Table, *, zone_width_s: int, delta_s: int) -> dict:
    """{etype: (rows, total weight)} that build_graph must produce.

    reply: one edge per adjacent turn pair, keyed by (role_t, role_t+1);
    tool: one edge per (conversation, tool), weighted by tool turns;
    zone: one unit edge per conversation pair whose start times are at most
    ``delta_s`` apart (``delta_s`` <= ``zone_width_s``, so adjacent zones
    cover every pair)."""
    if delta_s > zone_width_s:
        raise ValueError("delta_s must not exceed zone_width_s")
    con = duckdb.connect()
    con.register("tx", transcripts)
    delta_us = delta_s * 1_000_000
    q = f"""
    WITH adj AS (
        SELECT a.role AS r0, b.role AS r1
        FROM tx a JOIN tx b ON a.conv_id = b.conv_id AND b.turn_idx = a.turn_idx + 1
    ),
    starts AS (SELECT conv_id, MIN(epoch_us(ts)) AS t FROM tx GROUP BY conv_id),
    zone AS (
        SELECT COUNT(*) AS n FROM starts a JOIN starts b
          ON b.t >= a.t AND b.t <= a.t + {delta_us}
         AND (b.t > a.t OR b.conv_id > a.conv_id)
    )
    SELECT 'reply' AS etype, COUNT(DISTINCT (r0, r1)) AS rows, COUNT(*) AS w FROM adj
    UNION ALL
    SELECT 'tool', COUNT(DISTINCT (conv_id, tool)), COUNT(*) FROM tx WHERE tool IS NOT NULL
    UNION ALL
    SELECT 'zone', n, n FROM zone
    """
    return {e: (int(r), int(w)) for e, r, w in con.execute(q).fetchall()}


def edge_totals_of(edges: pa.Table) -> dict:
    con = duckdb.connect()
    con.register("e", edges)
    rows = con.execute(
        "SELECT etype, COUNT(*), SUM(w) FROM e GROUP BY etype"
    ).fetchall()
    return {e: (int(r), int(w)) for e, r, w in rows}


def edge_fingerprint(src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> str:
    """Order-independent 64-bit fingerprint of an edge multiset."""
    with np.errstate(over="ignore"):
        x = (
            src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ dst.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
            ^ w.astype(np.uint64) * np.uint64(0x94D049BB133111EB)
        )
        x ^= x >> np.uint64(31)
        x *= np.uint64(0xD6E8FEB86659FD93)
        x ^= x >> np.uint64(32)
        return f"{int(np.sum(x, dtype=np.uint64)):016x}-{len(src)}"


# ---------------------------------------------------------------- graphs


def _indexed(src: np.ndarray, dst: np.ndarray):
    vids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    return vids, inv[: len(src)], inv[len(src):]


def pagerank(src, dst, w, *, alpha: float = 0.15, max_iter: int = 20) -> pd.DataFrame:
    """A.1: r0 = 1; r' = alpha + (1 - alpha) * sum w * r(u) / outdeg(u)."""
    vids, s, d = _indexed(src, dst)
    n = len(vids)
    wf = w.astype(np.float64)
    outdeg = np.bincount(s, weights=wf, minlength=n)
    r = np.ones(n)
    for _ in range(max_iter):
        contrib = np.where(outdeg > 0, r / np.maximum(outdeg, 1.0), 0.0)
        r = alpha + (1 - alpha) * np.bincount(d, weights=contrib[s] * wf, minlength=n)
    return pd.DataFrame({"vid": vids, "rank": r})


def hits(src, dst, w, *, max_iter: int = 20) -> pd.DataFrame:
    """A.9 with 1-norm normalisation of each half-step."""
    vids, s, d = _indexed(src, dst)
    n = len(vids)
    wf = w.astype(np.float64)
    h = np.ones(n)
    a = np.ones(n)
    for _ in range(max_iter):
        a = np.bincount(d, weights=wf * h[s], minlength=n)
        if a.sum():
            a = a / a.sum()
        h = np.bincount(s, weights=wf * a[d], minlength=n)
        if h.sum():
            h = h / h.sum()
    return pd.DataFrame({"vid": vids, "hub": h, "auth": a})


def connected_components(src, dst) -> pd.DataFrame:
    """A.2 over the canonical undirected graph (self-loops dropped):
    component = min vid. Hash-min with pointer jumping over sorted ids."""
    keep = src != dst
    vids, s, d = _indexed(src[keep], dst[keep])
    lab = np.arange(len(vids))
    while True:
        m = np.minimum(lab[s], lab[d])
        new = lab.copy()
        np.minimum.at(new, s, m)
        np.minimum.at(new, d, m)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            break
        lab = new
    return pd.DataFrame({"vid": vids, "component": vids[lab]})


def label_propagation(src, dst, w, *, max_iter: int = 5) -> pd.DataFrame:
    """A.3: synchronous; each edge sends both ways with its weight; a vertex
    takes the label of largest total weight, ties to the smallest label;
    no messages keeps the label."""
    vids, s, d = _indexed(src, dst)
    n = len(vids)
    recv = np.concatenate([d, s])
    ww = np.concatenate([w, w]).astype(np.int64)
    lab = np.arange(n)  # label as an index into vids (order-preserving)
    for _ in range(max_iter):
        sent = np.concatenate([lab[s], lab[d]])
        order = np.lexsort((sent, recv))
        r, l, x = recv[order], sent[order], ww[order]
        first = np.concatenate([[True], (r[1:] != r[:-1]) | (l[1:] != l[:-1])])
        starts = np.flatnonzero(first)
        gr, gl = r[starts], l[starts]
        gw = np.add.reduceat(x, starts)
        best = np.lexsort((gl, -gw, gr))
        pick = best[np.concatenate([[True], gr[best][1:] != gr[best][:-1]])]
        new = lab.copy()
        new[gr[pick]] = gl[pick]
        lab = new
    return pd.DataFrame({"vid": vids, "label": vids[lab]})


# ---------------------------------------------------------------- curation


def curation_sql(documents: pa.Table) -> pd.DataFrame:
    """(doc_id, n_ws_tokens) from the gate's own SQL oracle over a
    ``documents`` view of the corpus."""
    import __ray_entry__

    sql = __ray_entry__.oracle_sql()["curation_minhash_documents"]
    con = duckdb.connect()
    con.register("documents", documents)
    return con.execute(sql).df().sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------- compare


def mismatch(got: pd.DataFrame, want: pd.DataFrame, cols: list[str], *,
             rtol: float = 0.0, atol: float = 0.0) -> str | None:
    """None when ``got`` equals ``want`` on the same vids (floats within
    rtol/atol, everything else exact); otherwise a one-line reason."""
    key = want.columns[0]
    g = got.sort_values(key).reset_index(drop=True)
    if len(g) != len(want) or not np.array_equal(g[key].to_numpy(), want[key].to_numpy()):
        return f"{key} set differs: got {len(g)} rows, want {len(want)}"
    for c in cols:
        a, b = g[c].to_numpy(), want[c].to_numpy()
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            bad = ~np.isclose(a.astype(np.float64), b.astype(np.float64), rtol=rtol, atol=atol)
        else:
            bad = a != b
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return f"{c}: {int(bad.sum())} rows differ, first {key}={want[key][i]} got {a[i]} want {b[i]}"
    return None
