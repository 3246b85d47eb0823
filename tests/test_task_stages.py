"""Stateless text and dedup stages run as Ray Data tasks. Each library
stage must return exactly what its class returns when called in-process on
the same table, two parameter sets in one session must not mix, and
``curate`` must finish in a 1-CPU Ray session."""

import os
import signal
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from graphx_ray.functions.bpe import BpeEncoder, bpe_encode
from graphx_ray.functions.classifier import HashLinearClassifier, classify
from graphx_ray.functions.dedup import (
    MinHasher,
    SimHasher,
    _LineCleaner,
    duplicated_lines,
    minhash_lsh_pairs,
    remove_duplicated_lines,
    simhash_signatures,
)
from graphx_ray.functions.pca import PcaProjector, pca_project
from graphx_ray.functions.similarity import JlProjector, jl_project
from graphx_ray.functions.text import LangId, QualityScorer, Redactor, lang_id, quality_scores, redact
from graphx_ray.pipelines.curation import curate
from graphx_ray.stages.derive import _distinct_keys_typed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_VOCAB = (
    "the a and of to in is it for on with as graph engine data ray vertex edge "
    "rank shard batch table stream block task actor value label message "
    "der die und ein ich schiff les une que est los el ado ción bien "
    "alpha beta gamma delta omega sigma kappa lambda theta"
).split()
_PII = ("mail a.b-c@example.com now", "see https://ex.org/p?q=1 too",
        "call +1 555-123-4567 today", "n 42 and 7.5")


def corpus(n: int = 300, seed: int = 11) -> pa.Table:
    """Originals, re-spaced exact copies, one-word-swapped near copies,
    short and punctuation-heavy docs, some carrying PII; shuffled ids."""
    rng = np.random.default_rng(seed)
    texts: list[str] = []
    for i in range(n):
        kind = i % 10
        if kind == 7 and texts:
            texts.append("  " + texts[int(rng.integers(len(texts)))].upper() + " ")
        elif kind == 8 and texts:
            words = texts[int(rng.integers(len(texts)))].split()
            words[int(rng.integers(len(words)))] = str(rng.choice(_VOCAB))
            texts.append(" ".join(words))
        elif kind == 9:
            texts.append(str(rng.choice(["short one", "!!! ??? ... ;;; *** %%% @@@"])))
        else:
            words = list(rng.choice(_VOCAB, int(rng.integers(6, 30))))
            if rng.random() < 0.3:
                words.append(str(rng.choice(_PII)))
            texts.append(" ".join(words))
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    return pa.table({"doc_id": ids, "text": texts})


def as_ds(tbl: pa.Table, blocks: int = 4):
    step = -(-tbl.num_rows // blocks)
    return rd.from_arrow([tbl.slice(i * step, step) for i in range(blocks)])


def collect(ds, keys: list[str]) -> pa.Table:
    tbl = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return tbl.sort_by([(k, "ascending") for k in keys]).combine_chunks()


def in_process(fn, tbl: pa.Table, keys: list[str]) -> pa.Table:
    return fn(tbl).sort_by([(k, "ascending") for k in keys]).combine_chunks()


def lsh_pairs_in_process(rows: pa.Table) -> pa.Table:
    """(a, b, n_bands) from MinHasher's band rows: every pair sharing a
    (band, bucket), counted over bands."""
    df = rows.to_pandas()
    m = df.merge(df, on=["band", "bucket"])
    m = m[m["doc_id_x"] < m["doc_id_y"]]
    out = (m.groupby(["doc_id_x", "doc_id_y"]).size().reset_index()
           .set_axis(["a", "b", "n_bands"], axis=1).astype(np.int64))
    return pa.Table.from_pandas(out, preserve_index=False)


def test_text_stages_equal_their_class_in_process(ray_session):
    tbl = corpus()
    tbl = tbl.append_column("body", pa.array([" ".join(t.split()[::-1]) for t in tbl["text"].to_pylist()]))
    ds = as_ds(tbl)
    stages = [(quality_scores, QualityScorer()), (lang_id, LangId()), (redact, Redactor()),
              (lambda d: redact(d, text_col="body"), Redactor("body"))]
    for i, (stage, cls) in enumerate(stages):
        got = collect(stage(ds), ["doc_id"])
        assert got.equals(in_process(cls, tbl, ["doc_id"])), i
    assert 0 < pc.sum(got["n_email"]).as_py() < tbl.num_rows


def vectors(n: int = 300, d: int = 12, seed: int = 5) -> pa.Table:
    m = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
    return pa.table({"vec_id": np.arange(n, dtype=np.int64),
                     "embedding": pa.FixedSizeListArray.from_arrays(pa.array(m.ravel()), d)})


def _two_setting_cases() -> dict:
    """Per stage: its input, sort keys and two (library call, in-process
    class) settings that must give different outputs."""
    vecs, docs = vectors(), corpus()
    s1, s2 = np.full(12, 127 / 4.0), np.linspace(5.0, 40.0, 12)
    v1, v2 = np.arange(12, dtype=np.int64) - 6, np.ones(12, np.int64)
    m1, m2 = [("t", "h"), ("th", "e"), ("a", "n")], [("e", "r"), ("a", "t"), ("at", "a")]
    return {
        "minhash_lsh_pairs": (docs, ["a", "b"], [
            (lambda ds: minhash_lsh_pairs(ds, bands=16),
             lambda t: lsh_pairs_in_process(MinHasher(64, 16, 3)(t))),
            (lambda ds: minhash_lsh_pairs(ds, bands=8),
             lambda t: lsh_pairs_in_process(MinHasher(64, 8, 3)(t))),
        ]),
        "simhash_signatures": (docs, ["doc_id"], [
            (lambda ds: simhash_signatures(ds, bands=4), SimHasher(4)),
            (lambda ds: simhash_signatures(ds, bands=2), SimHasher(2)),
        ]),
        "pca_project": (vecs, ["vec_id"], [
            (lambda ds: pca_project(ds, {"scale": s1, "v": v1}),
             PcaProjector(s1, v1, "vec_id", "embedding")),
            (lambda ds: pca_project(ds, {"scale": s2, "v": v2}),
             PcaProjector(s2, v2, "vec_id", "embedding")),
        ]),
        "jl_project": (vecs, ["vec_id", "j"], [
            (lambda ds: jl_project(ds, out_dim=16, seed=23, scale=s1),
             JlProjector(s1, 16, 23, "vec_id", "embedding")),
            (lambda ds: jl_project(ds, out_dim=8, seed=5, scale=s2),
             JlProjector(s2, 8, 5, "vec_id", "embedding")),
        ]),
        "bpe_encode": (docs, ["doc_id"], [
            (lambda ds: bpe_encode(ds, m1), BpeEncoder(m1)),
            (lambda ds: bpe_encode(ds, m2, emit_tokens=True), BpeEncoder(m2, emit_tokens=True)),
        ]),
        "classify": (docs, ["doc_id"], [
            (lambda ds: classify(ds), HashLinearClassifier()),
            (lambda ds: classify(ds, dim=256, seed=5, threshold=-3),
             HashLinearClassifier(dim=256, seed=5, threshold=-3)),
        ]),
    }


@pytest.mark.parametrize("stage", list(_two_setting_cases()))
def test_two_settings_in_one_session(ray_session, stage):
    tbl, keys, settings = _two_setting_cases()[stage]
    ds = as_ds(tbl)
    outs = [run(ds).materialize() for run, _ in settings]
    got = [collect(out, keys) for out in outs]
    for (_, cls), g in zip(settings, got):
        assert g.equals(in_process(cls, tbl, keys))
    assert not got[0].equals(got[1])


def line_docs(n: int = 300, seed: int = 9) -> pa.Table:
    rng = np.random.default_rng(seed)
    pool = [f"line {i} " + "lorem ipsum " * (i % 4) for i in range(60)]
    texts = ["\n".join(rng.choice(pool, int(rng.integers(1, 8)))) for _ in range(n)]
    return pa.table({"doc_id": np.arange(n, dtype=np.int64), "text": texts})


def test_line_cleaner_sets_never_mix_in_one_session(ray_session):
    """Each worker keeps one hot-line set, keyed by its ObjectRef: two
    calls with different sets, consumed in turn and again, each match the
    class called in-process with their own set."""
    tbl = line_docs()
    ds = as_ds(tbl)
    calls = {c: remove_duplicated_lines(ds, min_count=c) for c in (2, 40)}
    for c in (2, 40, 2):
        hot = _distinct_keys_typed(duplicated_lines(ds, min_count=c), "line")
        want = in_process(_LineCleaner(ray.put(hot), "doc_id", "text", "\n"), tbl, ["doc_id"])
        got = collect(calls[c], ["doc_id"])
        assert got.equals(want), c
    assert not collect(calls[2], ["doc_id"]).equals(collect(calls[40], ["doc_id"]))


ONE_CPU_CURATE = r"""
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from graphx_ray.pipelines.curation import curate

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
out = curate(rd.read_parquet(sys.argv[1]), num_partitions=4).to_pandas()
pq.write_table(pa.Table.from_pandas(out, preserve_index=False), sys.argv[2])
ray.shutdown()
print("ONE-CPU-OK")
"""


def test_curate_completes_in_a_one_cpu_session(ray_session, tmp_path):
    """Half-CPU actor pools could not all start on one CPU, so ``curate``
    hung there; task stages need no reservation beyond the running task."""
    docs = tmp_path / "docs"
    docs.mkdir()
    tbl = corpus()
    for i in range(2):
        pq.write_table(tbl.slice(i * 150, 150), docs / f"p{i}.parquet")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_CURATE, str(docs), str(tmp_path / "out.parquet")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child's Ray processes too
        proc.communicate()
        pytest.fail("curate did not finish within 120 s in a 1-CPU Ray session")
    assert proc.returncode == 0, err[-3000:]
    assert "ONE-CPU-OK" in out

    got = pd.read_parquet(tmp_path / "out.parquet").sort_values("doc_id").reset_index(drop=True)
    want = (curate(rd.read_parquet(str(docs)), num_partitions=4).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want)


def test_curate_best_scores_the_corpus_once(ray_session, tmp_path, monkeypatch):
    """``keep="best"`` takes its survivor scores from the exact-dedup
    output: ``QualityScorer`` sees each input batch once, as in a single
    pass of ``quality_scores`` over the corpus."""
    import graphx_ray.functions.text as text

    calls = tmp_path / "calls"
    calls.mkdir()

    class Counting(QualityScorer):
        def __call__(self, batch):
            import uuid

            (calls / uuid.uuid4().hex).touch()
            return super().__call__(batch)

    monkeypatch.setattr(text, "QualityScorer", Counting)
    tbl = corpus()
    quality_scores(as_ds(tbl)).materialize()
    one_pass = len(list(calls.iterdir()))
    assert one_pass > 0
    for f in calls.iterdir():
        f.unlink()

    out = curate(as_ds(tbl), keep="best", num_partitions=4).to_pandas()
    assert len(out) > 0
    assert len(list(calls.iterdir())) == one_pass
