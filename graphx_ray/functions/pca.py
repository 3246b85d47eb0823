"""Distributed PCA over an embedding column — exact-integer recipe.

Top principal component of the (scaled) covariance via power iteration,
with every distributed reduction an exact integer sum, so the result is
bit-reproducible at any parallelism and SQL-replayable (the repo-wide
oracle contract):

1. per-dim max |x| (``dim_absmax``) gives the int8 quantizer scale
   127/absmax — the exact ``ann_quantized_topk`` recipe (all-zero dims
   get scale 0, i.e. they quantize to 0 and drop out of the component);
2. ONE streaming pass emits per-batch int64 partials of the Gram upper
   triangle Σ qᵢ·qⱼ, the per-dim sums Σ qᵢ and the row count, folded by
   ``grouped_reduce`` — order-free integer sums over a d(d+3)/2+1-row
   keyed table, never a corpus-sized collect;
3. driver-side power iteration on the d×d integer matrix
   M = n·G − s·sᵀ (= n²·covariance — same eigenvectors, no division)
   in arbitrary-precision python ints:
   ``v ← floor(M·v · 2^shift / max|M·v|)`` for ``iters`` rounds from
   the all-ones start. M is PSD, so the iteration converges to the top
   eigenvector without sign oscillation; ints never overflow (python);
4. one broadcast ``map_batches``: proj = Σⱼ qⱼ·vⱼ per row — exact
   int64 (|proj| ≤ 127·d·2^shift, ≈ 2³³ at d=64, shift=20).

The driver holds only the d×d+d model — nothing corpus-sized. Gram
partials stay exact while 127²·n < 2⁶³ (n ≲ 5.7·10¹⁴ rows). At 100 TB
the streaming pass is the only corpus-wide work: one read + one tiny
keyed reduce; the projection pass is embarrassingly parallel, with the
two d-vectors of the model shipped inside each task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from graphx_ray.functions.similarity import _matrix, _quantize_i8, dim_absmax


def _pca_scale(vectors: Dataset, *, vec_col: str, num_partitions: int) -> np.ndarray:
    """127/absmax per dim, 0 for all-zero dims (the quantized_topk guard)."""
    mx = dim_absmax(vectors, vec_col=vec_col, num_partitions=num_partitions).astype(
        np.float64
    )
    with np.errstate(divide="ignore"):
        return np.where(mx > 0, 127.0 / mx, 0.0)


def pca_model(
    vectors: Dataset,
    *,
    vec_col: str = "embedding",
    iters: int = 6,
    shift_bits: int = 20,
    num_partitions: int = 4,
    scale: np.ndarray | None = None,
) -> dict:
    """Fit the top-principal-component model: one absmax pass (unless a
    precomputed quantizer ``scale`` is given), one Gram-partial pass, a
    driver-side integer power iteration. Returns
    ``{"scale": f64[d], "v": int64[d], "n": int, "gram": int[d][d]}``
    (``gram`` = python-int M rows, kept for tests/replay)."""
    from graphx_ray.stages.derive import grouped_reduce

    if scale is None:
        scale = _pca_scale(vectors, vec_col=vec_col, num_partitions=num_partitions)
    scale_ref = ray.put(np.asarray(scale, dtype=np.float64))
    d = len(scale)
    iu, ju = np.triu_indices(d)

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, vec_col)
        if m.size == 0:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "j": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                }
            )
        q = _quantize_i8(m, ray.get(scale_ref))
        g = q.T @ q  # (d, d) int64, exact: 127²·batch_n ≪ 2⁶³
        s = q.sum(axis=0)
        i = np.concatenate([iu, np.arange(d, dtype=np.int64), [d]])
        j = np.concatenate([ju, np.full(d, d, dtype=np.int64), [d]])
        v = np.concatenate([g[iu, ju], s, [len(q)]])
        return pa.table(
            {
                "i": pa.array(i.astype(np.int64)),
                "j": pa.array(j.astype(np.int64)),
                "v": pa.array(v.astype(np.int64)),
            }
        )

    folded = grouped_reduce(
        vectors.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["i", "j"],
        sum_col="v",
        num_partitions=num_partitions,
    ).to_pandas()

    gram = [[0] * d for _ in range(d)]
    sums = [0] * d
    n = 0
    for i, j, v in zip(folded["i"], folded["j"], folded["v"]):
        i, j, v = int(i), int(j), int(v)
        if i == d and j == d:
            n = v
        elif j == d:
            sums[i] = v
        else:
            gram[i][j] = v
            gram[j][i] = v

    # M = n·G − s·sᵀ (n² × covariance) in python ints — never overflows
    M = [[n * gram[i][j] - sums[i] * sums[j] for j in range(d)] for i in range(d)]
    v = [1] * d
    for _ in range(iters):
        w = [sum(M[i][j] * v[j] for j in range(d)) for i in range(d)]
        mx = max(abs(x) for x in w)
        if mx == 0:
            v = [0] * d
            break
        # python // floors (matches the SQL positive-mod floor macro)
        v = [(x << shift_bits) // mx for x in w]
    return {"scale": np.asarray(scale, np.float64), "v": np.asarray(v, np.int64),
            "n": n, "gram": M}


class PcaProjector:
    """Projection stage, run as tasks: quantize the batch with the model's
    scale and emit the exact-int64 dot with its component. The model is two
    d-vectors, so it ships inside the instance."""

    def __init__(self, scale: np.ndarray, v: np.ndarray, id_col: str, vec_col: str):
        self.scale = np.asarray(scale, np.float64)
        self.v = np.asarray(v).astype(np.int64)
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col]
        m = _matrix(batch, self.vec_col)
        if m.size == 0:
            return pa.table(
                {self.id_col: pa.array([], pa.int64()),
                 "proj": pa.array([], pa.int64())}
            )
        q = _quantize_i8(m, self.scale)
        proj = q @ self.v  # exact: |proj| ≤ 127·d·2^shift ≪ 2⁶³
        return pa.table({self.id_col: ids, "proj": pa.array(proj.astype(np.int64))})


def pca_project(
    vectors: Dataset,
    model: dict,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int = 4,
) -> Dataset:
    """Project every row onto the fitted component: (id_col, proj).
    ``concurrency`` caps the number of concurrent tasks."""
    return vectors.map_batches(
        PcaProjector(model["scale"], model["v"], id_col, vec_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        batch_size=4096,
    )


def pca_power(
    vectors: Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    iters: int = 6,
    shift_bits: int = 20,
    num_partitions: int = 4,
    concurrency: int = 4,
) -> Dataset:
    """Fit + project in one call: Dataset of (id_col, proj int64)."""
    model = pca_model(
        vectors,
        vec_col=vec_col,
        iters=iters,
        shift_bits=shift_bits,
        num_partitions=num_partitions,
    )
    return pca_project(
        vectors, model, id_col=id_col, vec_col=vec_col, concurrency=concurrency
    )
