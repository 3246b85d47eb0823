"""Closed-form single-process oracles for the algorithm contracts
(SURVEY.md Appendix A) — implemented verbatim from the spec text."""

from __future__ import annotations

import numpy as np
import pandas as pd


def _index(vertices: np.ndarray):
    vs = np.sort(np.unique(vertices))
    return vs, {v: i for i, v in enumerate(vs)}


def pagerank_oracle(edges: pd.DataFrame, vertices, alpha=0.15, max_iter=20) -> pd.DataFrame:
    """A.1: r0=1; r' = α + (1−α)·Σ w·r(u)/outdeg(u); no dangling fix, no
    normalization; parallel edges (weights) count."""
    vs, idx = _index(np.asarray(vertices))
    n = len(vs)
    src = edges["src"].map(idx).to_numpy()
    dst = edges["dst"].map(idx).to_numpy()
    w = edges["w"].to_numpy().astype(np.float64) if "w" in edges else np.ones(len(src))
    outdeg = np.zeros(n)
    np.add.at(outdeg, src, w)
    r = np.ones(n)
    for _ in range(max_iter):
        contrib = np.where(outdeg > 0, r / np.maximum(outdeg, 1.0), 0.0)
        acc = np.zeros(n)
        np.add.at(acc, dst, contrib[src] * w)
        r = alpha + (1 - alpha) * acc
    return pd.DataFrame({"vid": vs, "rank": r})


def hits_oracle(edges: pd.DataFrame, vertices, max_iter=20, normalize=True) -> pd.DataFrame:
    """A.9: h0 = a0 = 1; per iteration a(v) = Σ_{u→v} w·h(u) then
    h(u) = Σ_{u→v} w·a(v), each half-step divided by its 1-norm when
    ``normalize`` (skipped when the norm is 0 — empty edge sets)."""
    vs, idx = _index(np.asarray(vertices))
    n = len(vs)
    src = edges["src"].map(idx).to_numpy()
    dst = edges["dst"].map(idx).to_numpy()
    w = edges["w"].to_numpy().astype(np.float64) if "w" in edges else np.ones(len(src))
    h = np.ones(n)
    a = np.ones(n)
    for _ in range(max_iter):
        a = np.zeros(n)
        np.add.at(a, dst, w * h[src])
        s = a.sum()
        if normalize and s:
            a = a / s
        h = np.zeros(n)
        np.add.at(h, src, w * a[dst])
        s = h.sum()
        if normalize and s:
            h = h / s
    return pd.DataFrame({"vid": vs, "hub": h, "auth": a})


def cc_oracle(edges: pd.DataFrame, vertices) -> pd.DataFrame:
    """A.2: component = min vid of the component; canonical undirected."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(np.asarray(vertices).tolist())
    g.add_edges_from(
        (int(a), int(b))
        for a, b in zip(edges["src"], edges["dst"])
        if int(a) != int(b)
    )
    out = {}
    for comp in nx.connected_components(g):
        m = min(comp)
        for v in comp:
            out[v] = m
    df = pd.DataFrame({"vid": list(out.keys()), "component": list(out.values())})
    return df.astype({"vid": "int64", "component": "int64"}).sort_values("vid").reset_index(drop=True)


def lpa_oracle(edges: pd.DataFrame, vertices, max_iter=5) -> pd.DataFrame:
    """A.3: synchronous; each directed edge contributes both directions with
    its weight; no messages ⇒ keep; tie → smallest label."""
    vs, idx = _index(np.asarray(vertices))
    n = len(vs)
    src = edges["src"].map(idx).to_numpy()
    dst = edges["dst"].map(idx).to_numpy()
    w = edges["w"].to_numpy().astype(np.float64) if "w" in edges else np.ones(len(src))
    labels = vs.astype(np.int64).copy()
    for _ in range(max_iter):
        hist: list[dict] = [dict() for _ in range(n)]
        for s, d, ww in zip(src, dst, w):
            hist[d][labels[s]] = hist[d].get(labels[s], 0.0) + ww
            hist[s][labels[d]] = hist[s].get(labels[d], 0.0) + ww
        new = labels.copy()
        for v in range(n):
            if hist[v]:
                best = max(hist[v].items(), key=lambda kv: (kv[1], -kv[0]))
                new[v] = best[0]
        labels = new
    return pd.DataFrame({"vid": vs, "label": labels})


def triangles_oracle(edges: pd.DataFrame, vertices) -> pd.DataFrame:
    """A.4: per-vertex triangle count on the canonical simple graph."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(np.asarray(vertices).tolist())
    g.add_edges_from(
        (int(a), int(b))
        for a, b in zip(edges["src"], edges["dst"])
        if int(a) != int(b)
    )
    tri = nx.triangles(g)
    df = pd.DataFrame({"vid": list(tri.keys()), "count": list(tri.values())})
    return df.astype({"vid": "int64", "count": "int64"}).sort_values("vid").reset_index(drop=True)


def pagerank_tol_oracle(edges: pd.DataFrame, vertices, alpha=0.15, tol=1e-3,
                        max_iter=1 << 30) -> pd.DataFrame:
    """G2 dynamic (GraphX ``pageRank(tol)`` Pregel): r⁰=α, Δ⁰=α; active =
    received-a-message ∧ Δ > tol; msgs = Δ(u)·w/outdeg(u); receivers apply
    r += (1−α)·Σ, Δ = (1−α)·Σ; stop when nobody is active."""
    vs, idx = _index(np.asarray(vertices))
    n = len(vs)
    src = edges["src"].map(idx).to_numpy()
    dst = edges["dst"].map(idx).to_numpy()
    w = edges["w"].to_numpy().astype(np.float64) if "w" in edges else np.ones(len(src))
    outdeg = np.zeros(n)
    np.add.at(outdeg, src, w)
    r = np.full(n, alpha)
    delta = np.full(n, alpha)
    active = delta > tol
    it = 0
    while active.any() and it < max_iter:
        contrib = np.where(active, delta, 0.0) / np.maximum(outdeg, 1.0)
        acc = np.zeros(n)
        np.add.at(acc, dst, contrib[src] * w)
        got = acc > 0
        inc = (1 - alpha) * acc
        r = r + np.where(got, inc, 0.0)
        delta = np.where(got, inc, 0.0)
        active = got & (delta > tol)
        it += 1
    return pd.DataFrame({"vid": vs, "rank": r})


def ppr_oracle(edges: pd.DataFrame, vertices, source: int, alpha=0.15,
               max_iter=20) -> pd.DataFrame:
    """Personalized PageRank (pinned G1p): r⁰=1[v=s];
    r' = α·1[v=s] + (1−α)·Σ w·r(u)/outdeg(u)."""
    vs, idx = _index(np.asarray(vertices))
    n = len(vs)
    src = edges["src"].map(idx).to_numpy()
    dst = edges["dst"].map(idx).to_numpy()
    w = edges["w"].to_numpy().astype(np.float64) if "w" in edges else np.ones(len(src))
    outdeg = np.zeros(n)
    np.add.at(outdeg, src, w)
    r = (vs == source).astype(np.float64)
    reset = np.where(vs == source, alpha, 0.0)
    for _ in range(max_iter):
        contrib = r / np.maximum(outdeg, 1.0)
        acc = np.zeros(n)
        np.add.at(acc, dst, contrib[src] * w)
        r = reset + (1 - alpha) * acc
    return pd.DataFrame({"vid": vs, "rank": r})


def bfs_oracle(edges: pd.DataFrame, vertices, source: int) -> pd.DataFrame:
    """BFS hop distances over the canonical undirected graph + parent =
    min-vid neighbor at dist−1 (−1 for source/unreachable)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(int(v) for v in np.asarray(vertices))
    g.add_edges_from(
        (int(a), int(b)) for a, b in zip(edges["src"], edges["dst"]) if int(a) != int(b)
    )
    dist = nx.single_source_shortest_path_length(g, int(source))
    rows = []
    for v in g.nodes:
        d = dist.get(v, -1)
        if d <= 0:
            p = -1
        else:
            p = min(u for u in g.neighbors(v) if dist.get(u, -1) == d - 1)
        rows.append((v, d, p))
    return (
        pd.DataFrame(rows, columns=["vid", "dist", "parent"])
        .astype("int64")
        .sort_values("vid")
        .reset_index(drop=True)
    )


def scc_oracle(edges: pd.DataFrame, vertices) -> pd.DataFrame:
    """SCC labels = min vid of each strongly connected component (directed;
    parallel edges/weights irrelevant)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(int(v) for v in np.asarray(vertices))
    g.add_edges_from((int(a), int(b)) for a, b in zip(edges["src"], edges["dst"]))
    out = {}
    for comp in nx.strongly_connected_components(g):
        m = min(comp)
        for v in comp:
            out[v] = m
    return (
        pd.DataFrame({"vid": list(out.keys()), "component": list(out.values())})
        .astype("int64")
        .sort_values("vid")
        .reset_index(drop=True)
    )


# ------------------------------------------------------------------ Louvain
# ``Graph.louvain``'s pinned synchronous minimum-label local moves
# (pipelines/louvain.py module doc), replayed in numpy.


def _view(edges: pd.DataFrame, weighted: bool):
    """The pinned undirected view as symmetric rows (matching symmetric
    staging, which writes each input row in both directions — self-loops
    therefore appear twice and contribute 2w to k)."""
    src = edges["src"].to_numpy().astype(np.int64)
    dst = edges["dst"].to_numpy().astype(np.int64)
    if weighted:
        w = (
            edges["w"].to_numpy().astype(np.int64)
            if "w" in edges.columns
            else np.ones(len(src), np.int64)
        )
    else:
        u = np.minimum(src, dst)
        v = np.maximum(src, dst)
        keep = u != v
        pairs = np.unique(np.stack([u[keep], v[keep]], axis=1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
        w = np.ones(len(src), np.int64)
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    ww = np.tile(w, 2)
    return s, d, ww


def louvain_replay(
    edges: pd.DataFrame, *, max_rounds: int = 10, weighted: bool = False
) -> pd.DataFrame:
    """Reference replay of ``Graph.louvain``; returns (vid, community)."""
    s, d, w = _view(edges, weighted)
    vids = np.unique(np.concatenate([s, d]))
    n = len(vids)
    si = np.searchsorted(vids, s)
    di = np.searchsorted(vids, d)
    k = np.zeros(n, np.int64)
    np.add.at(k, si, w)
    two_m = int(k.sum())
    w_eff = np.where(si == di, 0, w)  # self-loops: in k, not in w(v→·)
    lab = vids.copy()

    for _ in range(max_rounds):
        vol = np.zeros(n, np.int64)
        # vol indexed by community POSITION in vids (labels are vids)
        lab_pos = np.searchsorted(vids, lab)
        np.add.at(vol, lab_pos, k)
        size = np.bincount(lab_pos, minlength=n)
        # per-edge candidate rows: (dst, label(src), w_eff)
        cl = lab[si]
        cl_pos = lab_pos[si]
        own = lab[di]
        # aggregate w per (dst, cand label)
        order = np.lexsort((cl, di))
        dd, ll, wwv = di[order], cl[order], w_eff[order]
        llp = cl_pos[order]
        newg = np.ones(len(dd), bool)
        if len(dd) > 1:
            newg[1:] = (dd[1:] != dd[:-1]) | (ll[1:] != ll[:-1])
        rs = np.flatnonzero(newg)
        gd, gl, glp = dd[rs], ll[rs], llp[rs]
        gw = np.add.reduceat(wwv, rs) if len(rs) else np.empty(0, np.int64)
        gvol = vol[glp]
        gsing = size[glp] == 1
        gown = lab[gd]
        is_own = gl == gown
        stay_w = np.zeros(n, np.int64)
        stay_w[gd[is_own]] = gw[is_own]
        vol_own = vol[lab_pos]
        stay = two_m * stay_w - k * (vol_own - k)
        cd, clb, cw = gd[~is_own], gl[~is_own], gw[~is_own]
        cv, cf = gvol[~is_own], gsing[~is_own]
        if len(cd) == 0:
            break
        sc = two_m * cw - k[cd] * cv
        o2 = np.lexsort((clb, -sc, cd))
        cd2, cl2, sc2, cf2 = cd[o2], clb[o2], sc[o2], cf[o2]
        first = np.ones(len(cd2), bool)
        if len(cd2) > 1:
            first[1:] = cd2[1:] != cd2[:-1]
        bd, bl, bs, bf = cd2[first], cl2[first], sc2[first], cf2[first]
        own_b = lab[bd]
        guard = (vol_own[bd] == k[bd]) & bf & (bl > own_b)
        move = (bs > stay[bd]) & ~guard
        if not move.any():
            break
        lab[bd[move]] = bl[move]
    return pd.DataFrame({"vid": vids, "community": lab})


def modularity_num(edges: pd.DataFrame, labels: pd.DataFrame, *, weighted: bool = False):
    """Exact modularity as (numerator, (2m)²): Q = num / (2m)² with
    num = Σ_C [2m·e_C − vol_C²], e_C = Σ symmetric-edge weight inside C
    (self-loops counted twice, as staged)."""
    s, d, w = _view(edges, weighted)
    vids = np.unique(np.concatenate([s, d]))
    lab = (
        labels.set_index("vid")["community"]
        .reindex(vids)
        .to_numpy()
        .astype(np.int64)
    )
    si = np.searchsorted(vids, s)
    di = np.searchsorted(vids, d)
    k = np.zeros(len(vids), np.int64)
    np.add.at(k, si, w)
    two_m = int(k.sum())
    comms, pos = np.unique(lab, return_inverse=True)
    vol = np.zeros(len(comms), np.int64)
    np.add.at(vol, pos, k)
    inside = lab[si] == lab[di]
    e = np.zeros(len(comms), np.int64)
    np.add.at(e, pos[si[inside]], w[inside])
    num = int((two_m * e.astype(object) - vol.astype(object) ** 2).sum())
    return num, two_m * two_m


# ------------------------------------------------------- adversarial fixtures


def fixture_graphs() -> dict[str, tuple[pd.DataFrame, np.ndarray]]:
    """(edges df (src,dst,w), vertex universe) per FIXTURES.md §3."""
    rng = np.random.default_rng(42)
    out = {}

    hub_leaves = np.arange(1, 201)
    out["star_hub"] = (
        pd.DataFrame({"src": np.zeros(200, np.int64), "dst": hub_leaves, "w": 1}),
        np.arange(0, 201),
    )

    k6a = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    k6b = [(i + 10, j + 10) for i, j in k6a]
    bridge = [(5, 10)]
    e = pd.DataFrame(k6a + k6b + bridge, columns=["src", "dst"])
    e["w"] = 1
    out["two_cliques_bridge"] = (e, np.concatenate([np.arange(6), np.arange(10, 16)]))

    ring = pd.DataFrame({"src": np.arange(12), "dst": (np.arange(12) + 1) % 12, "w": 1})
    out["ring_n"] = (ring, np.arange(12))

    out["isolated"] = (
        pd.DataFrame({"src": [1], "dst": [2], "w": [1]}),
        np.array([1, 2, 50, 60, 70]),
    )

    par = pd.DataFrame(
        {
            "src": [0, 0, 0, 1, 2, 3, 3],
            "dst": [1, 1, 0, 2, 0, 3, 1],
            "w": [2, 1, 1, 3, 1, 2, 1],
        }
    )
    out["parallel_self"] = (par, np.arange(4))

    out["empty"] = (
        pd.DataFrame({"src": np.empty(0, np.int64), "dst": np.empty(0, np.int64), "w": np.empty(0, np.int64)}),
        np.array([7, 8, 9]),
    )

    n = 60
    m = 150
    re = pd.DataFrame(
        {
            "src": rng.integers(0, n, m),
            "dst": rng.integers(0, n, m),
            "w": rng.integers(1, 4, m),
        }
    )
    out["random_multi"] = (re, np.arange(n))
    return out
