"""int8-quantized ANN vs exact integer oracle; recall sanity."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from graphx_ray.functions.similarity import quantized_topk


def _mk(n=300, d=12, seed=5):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": [v for v in vecs]})
    return vecs, ids, df


def quant_oracle(vecs, ids, q, qids, k):
    mx = np.abs(vecs.astype(np.float32)).max(axis=0).astype(np.float64)
    scale = np.where(mx > 0, 127.0 / mx, 0.0)

    def qz(m):
        return np.clip(
            np.floor(m.astype(np.float64) * scale[None, :] + 0.5), -127, 127
        ).astype(np.int64)

    sims = qz(vecs) @ qz(q).T
    rows = []
    for j, qid in enumerate(qids):
        order = np.lexsort((ids, -sims[:, j]))[:k]
        for r, i in enumerate(order):
            rows.append((int(qid), int(ids[i]), int(sims[i, j]), r))
    return pd.DataFrame(rows, columns=["query_id", "nbr_id", "sim", "simrank"])


def test_quantized_topk_matches_oracle(ray_session):
    vecs, ids, df = _mk()
    q, qids = vecs[:4], ids[:4]
    got = (
        quantized_topk(rd.from_pandas(df).repartition(5), q, qids, k=7, concurrency=2)
        .to_pandas()[["query_id", "nbr_id", "sim", "simrank"]]
        .sort_values(["query_id", "simrank"])
        .reset_index(drop=True)
    )
    want = quant_oracle(vecs, ids, q, qids, 7)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_quantized_zero_dim_and_parallelism(ray_session):
    vecs, ids, df = _mk(n=120, d=6, seed=9)
    vecs[:, 2] = 0.0  # dead dimension: scale 0, quantizes to 0 everywhere
    df = pd.DataFrame({"vec_id": ids, "embedding": [v for v in vecs]})
    q, qids = vecs[:3], ids[:3]
    a = quantized_topk(rd.from_pandas(df).repartition(1), q, qids, k=5).to_pandas()
    b = quantized_topk(rd.from_pandas(df).repartition(9), q, qids, k=5).to_pandas()
    cols = ["query_id", "nbr_id", "sim", "simrank"]
    pd.testing.assert_frame_equal(
        a[cols].sort_values(["query_id", "simrank"]).reset_index(drop=True),
        b[cols].sort_values(["query_id", "simrank"]).reset_index(drop=True),
    )


def test_quantized_recall_vs_float_dot(ray_session):
    """int8 quantization keeps ≥ 0.7 top-10 recall vs the exact float
    dot-product ranking it approximates (the 4×-compression tradeoff)."""
    vecs, ids, df = _mk(n=400, d=16, seed=11)
    q, qids = vecs[:5], ids[:5]
    ds = rd.from_pandas(df).repartition(4)
    quant = quantized_topk(ds, q, qids, k=10).to_pandas()
    sims = vecs.astype(np.float64) @ q.astype(np.float64).T
    rec = []
    for j, qid in enumerate(qids):
        e = set(ids[np.argsort(-sims[:, j])[:10]])
        g = set(quant[quant["query_id"] == qid]["nbr_id"])
        rec.append(len(e & g) / len(e))
    assert np.mean(rec) >= 0.7, rec


def test_jl_project_matches_replay_and_preserves_norms(ray_session):
    """JL sign projection: exact replay (same splitmix planes + quantize
    recipe) + the JL property (projected squared norms track d·||q||²)."""
    from graphx_ray.functions.similarity import jl_project
    from graphx_ray.ids import mix64

    vecs, ids, df = _mk(n=250, d=24, seed=11)
    # spread the row norms (chi²(24) alone is too concentrated for the
    # norm-preservation correlation to be meaningful)
    rng = np.random.default_rng(3)
    vecs = (vecs * rng.uniform(0.2, 5.0, size=(len(vecs), 1))).astype(np.float32)
    df = pd.DataFrame({"vec_id": ids, "embedding": [v for v in vecs]})
    out_dim, seed = 12, 23
    got = (
        jl_project(rd.from_pandas(df).repartition(5), out_dim=out_dim,
                   seed=seed, concurrency=2)
        .to_pandas().sort_values(["vec_id", "j"]).reset_index(drop=True)
    )
    # replay
    mx = np.abs(vecs.astype(np.float32)).max(axis=0).astype(np.float64)
    scale = np.where(mx > 0, 127.0 / mx, 0.0)
    q = np.clip(np.floor(vecs.astype(np.float64) * scale[None, :] + 0.5),
                -127, 127).astype(np.int64)
    idx = np.arange(24 * out_dim, dtype=np.uint64)
    h = mix64((np.uint64(seed) << np.uint64(32)) + idx)
    S = np.where(h >= np.uint64(1 << 63), 1, -1).reshape(24, out_dim).astype(np.int64)
    want = q @ S
    got_m = got["proj"].to_numpy().reshape(len(ids), out_dim)
    assert np.array_equal(got_m, want)
    # parallelism invariance
    got2 = (
        jl_project(rd.from_pandas(df).repartition(1), out_dim=out_dim,
                   seed=seed, concurrency=1)
        .to_pandas().sort_values(["vec_id", "j"]).reset_index(drop=True)
    )
    assert got.equals(got2)
    # JL norm preservation: corr(||Px||², out_dim·||q||²) high
    pn = (got_m.astype(np.float64) ** 2).sum(axis=1)
    qn = out_dim * (q.astype(np.float64) ** 2).sum(axis=1)
    corr = np.corrcoef(pn, qn)[0, 1]
    assert corr > 0.7, corr


def _pq_replay(vecs, m, k, iters):
    """Independent numpy replay of the PQ training contract."""
    n, d = vecs.shape
    dsub = d // m
    sv = vecs.reshape(n, m, dsub)
    cent = vecs[:k].reshape(min(k, n), m, dsub).transpose(1, 0, 2).copy()
    for _ in range(iters):
        new = cent.copy()
        for j in range(m):
            d2 = ((sv[:, j, None, :] - cent[j][None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            for c in range(cent.shape[1]):
                mask = a == c
                if mask.any():
                    new[j, c] = sv[mask, j, :].mean(axis=0)
        cent = new
    return cent


def _pq_rank_replay(vecs, ids, cent, q, qids, topk):
    m, kk, dsub = cent.shape
    sv = vecs.reshape(len(vecs), m, dsub)
    codes = np.stack(
        [((sv[:, j, None, :] - cent[j][None]) ** 2).sum(axis=2).argmin(axis=1)
         for j in range(m)], axis=1)
    qs = q.reshape(len(q), m, dsub)
    lut = ((qs[:, :, None, :] - cent[None]) ** 2).sum(axis=3)
    # the pinned contract: LUT rounds to int64 micro-units BEFORE the
    # m-way sum (order-free integer distances on engine and SQL alike)
    lut = np.floor(lut * 1_000_000 + 0.5).astype(np.int64)
    out = {}
    for qi in range(len(q)):
        dist = lut[qi, np.arange(m)[None, :], codes].sum(axis=1)
        order = np.lexsort((ids, dist))[:topk]
        out[qids[qi]] = list(ids[order])
    return out


@pytest.mark.parametrize("nblocks", [1, 3])
def test_pq_matches_numpy_replay(ray_session, nblocks):
    from graphx_ray.functions.similarity import pq_codebooks, pq_topk

    rng = np.random.default_rng(5)
    n, d, m, k, iters, topk = 300, 16, 4, 6, 2, 5
    vecs = rng.normal(size=(n, d))
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_pandas(
        pd.DataFrame({"vec_id": ids, "embedding": list(vecs)})
    ).repartition(nblocks)
    q, qids = vecs[:3], ids[:3]

    cb = pq_codebooks(ds, m=m, k=k, iters=iters)
    want_cb = _pq_replay(vecs, m, k, iters)
    assert np.allclose(cb, want_cb, atol=1e-9)

    got = pq_topk(ds, q, qids, m=m, n_codes=k, iters=iters, k=topk).to_pandas()
    want = _pq_rank_replay(vecs, ids, want_cb, q, qids, topk)
    for qid, grp in got.groupby("query_id"):
        grp = grp.sort_values("simrank")
        assert list(grp["nbr_id"].head(topk)) == want[qid]


def test_pq_lossless_on_codeword_vectors(ray_session):
    """Vectors drawn exactly from k per-subspace codewords quantize with
    zero error, so PQ ranks equal exact squared-L2 ranks."""
    from graphx_ray.functions.similarity import pq_topk

    rng = np.random.default_rng(9)
    m, dsub, k = 2, 4, 4
    words = rng.normal(size=(m, k, dsub))
    picks = rng.integers(0, k, size=(120, m))
    vecs = np.concatenate(
        [words[j, picks[:, j], :] for j in range(m)], axis=1
    )
    ids = np.arange(120, dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"vec_id": ids, "embedding": list(vecs)}))
    q, qids = vecs[:2], ids[:2]
    # pass the TRUE codebooks: every vector quantizes with zero error, so
    # the ADC distances equal exact squared-L2 (trained codebooks need
    # not recover the planted words from the first-k seeding)
    got = pq_topk(ds, q, qids, codebooks=words, k=6).to_pandas()
    for qi, qid in enumerate(qids):
        dist = ((vecs - q[qi][None]) ** 2).sum(axis=1)
        grp = got[got.query_id == qid].sort_values("simrank")
        got_d = dist[grp["nbr_id"].to_numpy()]
        # micro-unit rounding may reorder sub-1e-6 gaps by id — tolerate
        assert np.all(np.diff(got_d) >= -1e-6)
        assert grp["nbr_id"].iloc[0] == qid  # self is its own nearest


def _quantize_ref(vecs):
    mx = np.abs(vecs.astype(np.float32)).max(axis=0).astype(np.float64)
    scale = np.where(mx > 0, 127.0 / mx, 0.0)
    q = np.floor(vecs.astype(np.float64) * scale[None, :] + 0.5)
    return np.clip(q, -127, 127).astype(np.int64)


def _knn_replay(vecs, ids, cent, k, nprobe):
    """Independent replay of the knn_graph contract."""
    dots = vecs.astype(np.float64) @ cent.T
    probe = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
    assigned = probe[:, 0]
    q = _quantize_ref(vecs)
    out = set()
    for i in range(len(ids)):
        cand = np.flatnonzero(np.isin(assigned, probe[i]) & (ids != ids[i]))
        if len(cand) == 0:
            continue
        sc = q[cand] @ q[i]
        order = np.lexsort((ids[cand], -sc))[:k]
        for j in order:
            out.add((int(ids[i]), int(ids[cand[j]]), int(sc[j])))
    return out


@pytest.mark.parametrize("nblocks,nprobe", [(1, 2), (4, 2), (2, 16)])
def test_knn_graph_matches_replay(ray_session, nblocks, nprobe):
    from graphx_ray.functions.similarity import knn_graph, lloyd_centroids

    rng = np.random.default_rng(31)
    n, d = 200, 12
    vecs = rng.normal(size=(n, d))
    ids = rng.permutation(n).astype(np.int64) * 3  # non-contiguous ids
    ds = rd.from_pandas(
        pd.DataFrame({"vec_id": ids, "embedding": list(vecs)})
    ).repartition(nblocks)
    got = knn_graph(ds, k=4, n_centroids=16, nprobe=nprobe, iters=2).to_pandas()
    cent = lloyd_centroids(ds, k=16, iters=2)
    want = _knn_replay(vecs, ids, cent, 4, min(nprobe, 16))
    got_set = set(map(tuple, got[["src", "dst", "qscore"]].to_records(index=False)))
    assert got_set == want
    # every vector with >=1 candidate got at most k rows (exact fold)
    counts = got.groupby("src").size()
    assert counts.max() <= 4


def test_knn_graph_full_probe_is_exact(ray_session):
    """nprobe = n_centroids probes everything: the graph equals the exact
    quantized kNN graph (brute force over all non-self pairs)."""
    from graphx_ray.functions.similarity import knn_graph

    rng = np.random.default_rng(33)
    n, d = 80, 8
    vecs = rng.normal(size=(n, d))
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"vec_id": ids, "embedding": list(vecs)}))
    got = knn_graph(ds, k=3, n_centroids=4, nprobe=4, iters=1).to_pandas()
    q = _quantize_ref(vecs)
    sims = q @ q.T
    for i in range(n):
        cand = np.flatnonzero(ids != ids[i])
        order = cand[np.lexsort((ids[cand], -sims[i, cand]))[:3]]
        want = {(int(ids[j]), int(sims[i, j])) for j in order}
        grp = got[got.src == i]
        assert {(int(r.dst), int(r.qscore)) for r in grp.itertuples()} == want


def _jp_replay(knn_set, all_ids, kt):
    """Independent JP replay over a (src, dst) kNN edge set."""
    out_nbrs = {}
    for s, d, _ in knn_set:
        out_nbrs.setdefault(s, set()).add(d)
    parent = {int(i): int(i) for i in all_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in out_nbrs:
        for b in out_nbrs[a]:
            if b in out_nbrs and a in out_nbrs[b] and a < b:
                if len(out_nbrs[a] & out_nbrs[b]) >= kt:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    # min-label closure
    return {i: find(int(i)) for i in all_ids}


def test_jarvis_patrick_matches_replay(ray_session):
    from graphx_ray.functions.similarity import (
        jarvis_patrick,
        knn_graph,
    )

    rng = np.random.default_rng(47)
    n, d = 180, 10
    # two planted blobs + noise: JP should keep blob members together
    vecs = np.concatenate([
        rng.normal(0, 0.05, size=(60, d)) + 1.0,
        rng.normal(0, 0.05, size=(60, d)) - 1.0,
        rng.normal(0, 1.0, size=(60, d)),
    ])
    ids = np.arange(n, dtype=np.int64) * 7
    ds = rd.from_pandas(pd.DataFrame({"vec_id": ids, "embedding": list(vecs)}))
    knn = knn_graph(ds, k=5, n_centroids=8, nprobe=2, iters=2).to_pandas()
    knn_set = set(map(tuple, knn[["src", "dst", "qscore"]].to_records(index=False)))
    want = _jp_replay(knn_set, ids, kt=2)
    outs = [
        jarvis_patrick(ds.repartition(p), k=5, kt=2, n_centroids=8,
                       nprobe=2, iters=2, num_parts=q)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
        for p, q in ((1, 4), (5, 8))
    ]
    gd = dict(zip(outs[0]["vec_id"].astype(int), outs[0]["cluster"].astype(int)))
    assert gd == want
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_kcenter_matches_replay_and_2approx(ray_session):
    from graphx_ray.functions.similarity import kcenter_select

    rng = np.random.default_rng(13)
    n, d, k = 150, 8, 6
    vecs = rng.normal(size=(n, d))
    ids = rng.permutation(n).astype(np.int64) * 11
    ds = rd.from_pandas(pd.DataFrame({"vec_id": ids, "embedding": list(vecs)}))

    # independent replay of the pinned integer contract
    mx = np.abs(vecs.astype(np.float32)).max(axis=0).astype(np.float64)
    scale = np.where(mx > 0, 127.0 / mx, 0.0)
    q = np.clip(np.floor(vecs * scale[None] + 0.5), -127, 127).astype(np.int64)
    chosen = [int(ids.min())]
    d2s = [-1]
    idx = {int(i): j for j, i in enumerate(ids)}
    for _ in range(1, k):
        cq = q[[idx[c] for c in chosen]]
        dist = ((q[:, None, :] - cq[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        mask = np.array([int(i) not in set(chosen) for i in ids])
        cand = np.flatnonzero(mask)
        j = cand[np.lexsort((ids[cand], -dist[cand]))[0]]
        chosen.append(int(ids[j]))
        d2s.append(int(dist[j]))
    for parts in (1, 5):
        got = kcenter_select(ds.repartition(parts), k=k).to_pandas()
        assert got["vec_id"].tolist() == chosen
        assert got["d2"].tolist() == d2s
    # Gonzalez 2-approx sanity: the final radius never exceeds the last pick
    cq = q[[idx[c] for c in chosen]]
    radius = ((q[:, None, :] - cq[None, :, :]) ** 2).sum(axis=2).min(axis=1).max()
    assert radius <= d2s[-1]


def test_kcenter_all_equal_yields_distinct_ids(ray_session):
    from graphx_ray.functions.similarity import kcenter_select

    ds = rd.from_pandas(pd.DataFrame(
        {"vec_id": np.arange(10, dtype=np.int64),
         "embedding": [np.ones(4)] * 10}
    ))
    got = kcenter_select(ds, k=4).to_pandas()
    assert got["vec_id"].tolist() == [0, 1, 2, 3]
    assert (got["d2"].to_numpy()[1:] == 0).all()


def test_kcenter_empty_corpus_returns_empty_table(ray_session):
    from graphx_ray.functions.similarity import KCENTER_SCHEMA, kcenter_select

    ds = rd.from_pandas(pd.DataFrame(
        {"vec_id": np.arange(3, dtype=np.int64), "embedding": [np.ones(4)] * 3}
    )).filter(lambda r: r["vec_id"] < 0)
    got = kcenter_select(ds, k=3)
    assert got.num_rows == 0
    assert got.schema.equals(KCENTER_SCHEMA)


def test_recall_at_k_exact_and_planted(ray_session):
    from graphx_ray.functions.similarity import recall_at_k

    exact = pd.DataFrame(
        {"query_id": [1, 1, 1, 2, 2, 3],
         "nbr_id": [10, 11, 12, 20, 21, 30]}
    )
    approx = pd.DataFrame(
        {"query_id": [1, 1, 1, 2, 2, 3],
         "nbr_id": [10, 11, 99, 98, 97, 96]}
    )
    got = (
        recall_at_k(rd.from_pandas(approx), rd.from_pandas(exact),
                    num_partitions=3)
        .to_pandas().sort_values("query_id").reset_index(drop=True)
    )
    assert got.to_records(index=False).tolist() == [
        (1, 3, 2), (2, 2, 0), (3, 1, 0)
    ]
    # identical inputs: perfect recall
    perfect = (
        recall_at_k(rd.from_pandas(exact), rd.from_pandas(exact))
        .to_pandas()
    )
    assert (perfect["hits"] == perfect["k_exact"]).all()
