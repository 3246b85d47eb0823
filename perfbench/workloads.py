"""The three closed-loop workloads: one client submits one job and waits.

Each workload owns its inputs (``prepare``: generated from the seed and
cached with their oracle answers), a warm-up (``setup``), the timed job
(``job``), its output check (``check``) and a traced variant of the job
(``traced_job``) that forces every lazy Dataset at a layer boundary and
records one span per public call.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import harness
import inputs
import oracles

NUM_PARTS = 4
ZONE_WIDTH_S = 3600
DELTA_S = 60
PR_COLD_ITERS = 12
PR_ITERS = 30
HITS_ITERS = 20
LPA_ITERS = 5
CKPT_SPLIT = 15
TOL = {"rtol": 1e-6, "atol": 1e-6}

# sizes of the default runs and of the smoke test
SIZES = {
    "build_rank": {"full": {"n_convs": 20_000}, "smoke": {"n_convs": 600}},
    "iterate": {"full": {"n_convs": 12_000}, "smoke": {"n_convs": 600}},
    "curate": {"full": {"n_docs": 1_000}, "smoke": {"n_docs": 300}},
}


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cached(cache_dir: str, build) -> dict:
    """Run ``build(tmp_dir) -> info`` once per cache key; later calls read
    the recorded info. The rename makes a half-built entry invisible."""
    done = os.path.join(cache_dir, "info.json")
    if not os.path.exists(done):
        tmp = _fresh(cache_dir + ".tmp")
        info = build(tmp)
        with open(os.path.join(tmp, "info.json"), "w") as f:
            json.dump(info, f)
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.replace(tmp, cache_dir)
    with open(done) as f:
        return json.load(f)


def _spill_bytes() -> int:
    """Bytes under every spill directory graphx_ray has registered."""
    from graphx_ray import context

    return sum(harness.du(d) for d in getattr(context, "_SPILL_DIRS", []))


def graph_layer_spans(tracer) -> None:
    """Spans on the layers Graph reaches internally."""
    from graphx_ray.pipelines.graph import Graph
    from graphx_ray.state import csr

    tracer.patch(csr, "stage_graph", "state.csr.stage")
    tracer.patch(Graph, "_pool", "state.csr.load")
    tracer.patch(Graph, "_result_ds", "pipelines.graph.collect")
    tracer.patch(Graph, "_checkpoint", "state.checkpoint.write")
    tracer.patch(Graph, "_resume", "state.checkpoint.resume")


def _metrics_records(workdir: str, algo: str, skip: int = 0) -> list[dict]:
    path = os.path.join(workdir, "metrics.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        recs = [json.loads(line) for line in f.readlines()[skip:]]
    return [r for r in recs if r.get("algo") == algo]


def _metrics_len(workdir: str) -> int:
    path = os.path.join(workdir, "metrics.jsonl")
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        return sum(1 for _ in f)


def _staged_bytes(workdir: str) -> int:
    return sum(harness.du(os.path.join(workdir, v))
               for v in ("directed", "undirected", "undirected_weighted"))


# per-layer times every traced job reports: metric -> (span name, divisor)
GRAPH_TIMES = {
    "state.csr.stage_s": ("state.csr.stage", 1),
    "state.csr.load_s": ("state.csr.load", 1),
    "pipelines.graph.collect_s": ("pipelines.graph.collect", 1),
}


class Workload:
    """``traced_job(tracer)`` returns (output, counts, times): counts are
    per-layer metrics measured directly, times map a per-layer metric to
    (span name, divisor) over the job's summed self times."""

    name = ""
    SETUP_LAYERS: tuple[str, ...] = ()  # per-layer metrics taken from the traced setup
    MODULES: tuple[str, ...] = ()  # what the job imports
    MIN_JOBS = 3  # jobs a run times at least, so that its median has three samples

    def __init__(self, seed: int, scale: str, cache_root: str, run_dir: str):
        self.seed = seed
        self.size = SIZES[self.name][scale]
        self.cache_root = cache_root
        self.run_dir = run_dir
        self.jobs = 0

    def setup(self) -> None:
        """Start a worker process on every CPU and import the job's modules
        there and in the driver, so the first timed job does neither. A
        workload whose jobs share state overrides this to build it."""
        harness.warm_workers(self.MODULES)

    def job_dir(self, tag: str) -> str:
        return _fresh(os.path.join(self.run_dir, f"{tag}-{self.jobs}"))

    def after_job(self, keep: tuple[str, ...] = ()) -> None:
        """Drop the job's spills and files once its output is checked."""
        from graphx_ray import context

        context.cleanup_spills()
        for p in os.listdir(self.run_dir):
            if p not in keep:
                shutil.rmtree(os.path.join(self.run_dir, p), ignore_errors=True)

    def close(self) -> None:
        pass


# ==================================================================== build_rank


class BuildRank(Workload):
    """transcripts -> build_graph -> edges parquet -> fresh Graph ->
    pagerank(12) -> consume: the flagship on the cold path."""

    name = "build_rank"
    MODULES = ("graphx_ray.stages.derive", "graphx_ray.pipelines.graph")

    def prepare(self) -> dict:
        n = self.size["n_convs"]
        key = os.path.join(self.cache_root, f"build_rank-s{self.seed}-c{n}")

        def build(tmp: str) -> dict:
            tx = inputs.transcripts(self.seed, n)
            info = {"checksum": inputs.write(tx, os.path.join(tmp, "tx")),
                    "rows": tx.num_rows,
                    "edge_totals": oracles.edge_totals_sql(
                        tx, zone_width_s=ZONE_WIDTH_S, delta_s=DELTA_S)}
            os.makedirs(os.path.join(tmp, "pagerank"))
            return info

        self.cache = key
        self.info = _cached(key, build)
        return self.info

    def job(self):
        import ray.data as rd

        from graphx_ray.pipelines.graph import Graph
        from graphx_ray.stages.derive import build_graph

        edges_dir = os.path.join(self.job_dir("job"), "edges")
        t0 = time.perf_counter()
        _, edges = build_graph(rd.read_parquet(os.path.join(self.cache, "tx")),
                               zone_width_s=ZONE_WIDTH_S,
                               delta_s=DELTA_S, num_partitions=NUM_PARTS)
        edges.write_parquet(edges_dir)
        t1 = time.perf_counter()
        g = Graph(rd.read_parquet(edges_dir), num_parts=NUM_PARTS,
                  workdir=os.path.join(self.run_dir, f"job-{self.jobs}", "wd"))
        try:
            ranks = g.pagerank(max_iter=PR_COLD_ITERS).to_pandas()
        finally:
            g.close()
        t2 = time.perf_counter()
        return (edges_dir, ranks), {"build_graph_s": t1 - t0, "rank_cold_s": t2 - t1}

    def check(self, out) -> str | None:
        edges_dir, ranks = out
        edges = pq.read_table(edges_dir)
        got = oracles.edge_totals_of(edges)
        want = {k: tuple(v) for k, v in self.info["edge_totals"].items()}
        if got != want:
            return f"edge totals {got} != {want}"
        s, d, w = (edges[c].to_numpy() for c in ("src", "dst", "w"))
        fp = oracles.edge_fingerprint(s, d, w)
        path = os.path.join(self.cache, "pagerank", f"{fp}.parquet")
        if os.path.exists(path):
            want_pr = pd.read_parquet(path)
        else:
            want_pr = oracles.pagerank(s, d, w, max_iter=PR_COLD_ITERS)
            want_pr.to_parquet(path)
        return oracles.mismatch(ranks, want_pr, ["rank"], **TOL)

    def traced_job(self, tracer):
        import ray.data as rd

        from graphx_ray.pipelines.graph import Graph
        from graphx_ray.stages import derive

        jd = self.job_dir("trace")
        edges_dir = os.path.join(jd, "edges")
        tx = rd.read_parquet(os.path.join(self.cache, "tx"))
        with tracer.span("stages.derive.conv_starts"):
            starts = derive.conv_starts(tx).materialize()
        with tracer.span("stages.derive.reply_tool_edges"):
            e_rt = derive.reply_tool_edges(tx, num_partitions=NUM_PARTS).materialize()
        with tracer.span("stages.derive.zone_edges"):
            e_zone = derive.zone_edges(starts, zone_width_s=ZONE_WIDTH_S, delta_s=DELTA_S,
                                       num_partitions=NUM_PARTS).materialize()
        spill = _spill_bytes()
        with tracer.span("stages.derive.write_edges"):
            e_rt.union(e_zone).write_parquet(edges_dir)
        wd = os.path.join(jd, "wd")
        g = Graph(rd.read_parquet(edges_dir), num_parts=NUM_PARTS, workdir=wd)
        try:
            with tracer.span("pipelines.graph.pagerank"):
                ds = g.pagerank(max_iter=PR_COLD_ITERS)
            with tracer.span("pipelines.graph.collect"):
                ranks = ds.to_pandas()
        finally:
            g.close()
        counts = {
            "stages.derive.edge_rows": pq.read_table(edges_dir, columns=["w"]).num_rows,
            "stages.derive.spill_bytes": spill,
            "state.csr.staged_bytes": _staged_bytes(wd),
        }
        times = {
            "stages.derive.conv_starts_s": ("stages.derive.conv_starts", 1),
            "stages.derive.reply_tool_edges_s": ("stages.derive.reply_tool_edges", 1),
            "stages.derive.zone_edges_s": ("stages.derive.zone_edges", 1),
            "pipelines.graph.pagerank_superstep_s": ("pipelines.graph.pagerank", PR_COLD_ITERS),
            **GRAPH_TIMES,
        }
        return (edges_dir, ranks), counts, times


# ==================================================================== iterate


class Iterate(Workload):
    """Warm graph; pagerank(30), hits(20), CC, LPA(5), then a checkpointed
    pagerank(15) and its resumed continuation to 30."""

    name = "iterate"
    # the job runs on a warm graph: CSR staging and load happen in setup
    SETUP_LAYERS = ("state.csr.stage_s", "state.csr.load_s", "state.csr.staged_bytes")

    def prepare(self) -> dict:
        n = self.size["n_convs"]
        key = os.path.join(self.cache_root, f"iterate-s{self.seed}-c{n}")

        def build(tmp: str) -> dict:
            tx = inputs.transcripts(self.seed, n)
            edges = inputs.graph_edges(tx, delta_s=DELTA_S)
            info = {"checksum": inputs.write(edges, os.path.join(tmp, "edges")),
                    "edges": edges.num_rows}
            s, d, w = (edges[c].to_numpy() for c in ("src", "dst", "w"))
            oracles.pagerank(s, d, w, max_iter=PR_ITERS).to_parquet(f"{tmp}/pr.parquet")
            oracles.hits(s, d, w, max_iter=HITS_ITERS).to_parquet(f"{tmp}/hits.parquet")
            oracles.connected_components(s, d).to_parquet(f"{tmp}/cc.parquet")
            oracles.label_propagation(s, d, w, max_iter=LPA_ITERS).to_parquet(
                f"{tmp}/lpa.parquet")
            return info

        self.cache = key
        self.info = _cached(key, build)
        self.graph = None
        return self.info

    def setup(self) -> None:
        import ray.data as rd

        from graphx_ray.pipelines.graph import Graph

        self.close()
        self.wd = _fresh(os.path.join(self.run_dir, "graph"))
        self.graph = Graph(rd.read_parquet(os.path.join(self.cache, "edges")),
                           num_parts=NUM_PARTS, workdir=self.wd)
        self.graph.pagerank(max_iter=1).to_pandas()
        self.graph.connected_components(max_iter=1).to_pandas()
        self.graph.label_propagation(max_iter=1).to_pandas()
        return {"state.csr.staged_bytes": _staged_bytes(self.wd)}

    def close(self) -> None:
        if self.graph is not None:
            self.graph.close()
            self.graph = None

    def _run(self, tracer=None):
        import contextlib

        g = self.graph
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        ckpt = os.path.join(self.job_dir("ckpt"), "ck")
        out, m = {}, {}

        def call(name, fn):
            t0 = time.perf_counter()
            with span(f"pipelines.graph.{name}"):
                ds = fn()
            with span("pipelines.graph.collect"):
                df = ds.to_pandas()
            return df, time.perf_counter() - t0

        out["pr"], pr_s = call("pagerank", lambda: g.pagerank(max_iter=PR_ITERS))
        out["hits"], _ = call("hits", lambda: g.hits(max_iter=HITS_ITERS))
        out["cc"], _ = call("connected_components", g.connected_components)
        out["lpa"], lpa_s = call("label_propagation",
                                 lambda: g.label_propagation(max_iter=LPA_ITERS))
        call("pagerank_ckpt", lambda: g.pagerank(max_iter=CKPT_SPLIT, checkpoint_dir=ckpt))
        out["resumed"], _ = call("pagerank_resume", lambda: g.pagerank(
            max_iter=PR_ITERS, checkpoint_dir=ckpt, resume=True))
        m["pagerank_edges_per_s"] = self.info["edges"] * PR_ITERS / pr_s
        m["lpa_s"] = lpa_s
        return out, m, ckpt

    def job(self):
        out, m, _ = self._run()
        return out, m

    def check(self, out) -> str | None:
        c = self.cache
        for key, want, cols, tol in (
            ("pr", f"{c}/pr.parquet", ["rank"], TOL),
            ("hits", f"{c}/hits.parquet", ["hub", "auth"], {"rtol": 1e-6, "atol": 1e-12}),
            ("cc", f"{c}/cc.parquet", ["component"], {}),
            ("lpa", f"{c}/lpa.parquet", ["label"], {}),
        ):
            bad = oracles.mismatch(out[key], pd.read_parquet(want), cols, **tol)
            if bad:
                return f"{key}: {bad}"
        a = out["pr"].sort_values("vid")
        b = out["resumed"].sort_values("vid")
        if not (np.array_equal(a["vid"].to_numpy(), b["vid"].to_numpy())
                and np.array_equal(a["rank"].to_numpy(), b["rank"].to_numpy())):
            return "resumed pagerank is not bit-identical to the uninterrupted run"
        return None

    def after_job(self, keep: tuple[str, ...] = ("graph",)) -> None:
        shutil.rmtree(os.path.join(self.wd, "results"), ignore_errors=True)
        super().after_job(keep)

    def traced_job(self, tracer):
        skip = _metrics_len(self.wd)
        out, _, ckpt = self._run(tracer)
        lpa = _metrics_records(self.wd, "lpa", skip)
        counts = {
            "pipelines.graph.cc_supersteps": len(_metrics_records(self.wd, "cc", skip)),
            "pipelines.graph.lpa_first_superstep_s": lpa[0]["wall_s"] if lpa else 0.0,
            "state.checkpoint.bytes": harness.du(ckpt),
        }
        times = {
            "pipelines.graph.pagerank_superstep_s": ("pipelines.graph.pagerank", PR_ITERS),
            "pipelines.graph.hits_superstep_s": ("pipelines.graph.hits", HITS_ITERS),
            "pipelines.graph.cc_s": ("pipelines.graph.connected_components", 1),
            "state.checkpoint.superstep_overhead_s": (
                "state.checkpoint.write", max(tracer.count("state.checkpoint.write"), 1)),
            "state.checkpoint.resume_s": ("state.checkpoint.resume", 1),
            **GRAPH_TIMES,
        }
        return out, counts, times


# ==================================================================== curate


def _gate(batch: pa.Table) -> pa.Table:
    """curate()'s default quality gate: n_words >= 5 and punctuation at
    most 30 % of characters."""
    nw = batch["n_words"].to_numpy()
    npc = batch["n_punct"].to_numpy()
    nc = batch["n_chars"].to_numpy()
    return batch.filter(pa.array((nw >= 5) & (npc * 10 <= 3 * nc)))


def _as_edges(batch: pa.Table) -> pa.Table:
    return pa.table({"src": batch["a"].cast(pa.int64()), "dst": batch["b"].cast(pa.int64()),
                     "w": pa.array(np.ones(batch.num_rows, np.int64))})


def _drops_only(batch: pa.Table) -> pa.Table:
    mask = pa.compute.not_equal(batch["vid"], batch["component"])
    return pa.table({"vid": batch["vid"].filter(mask)})


class Curate(Workload):
    """documents -> pipelines.curation.curate() -> consume."""

    name = "curate"
    MODULES = ("graphx_ray.pipelines.curation", "graphx_ray.pipelines.graph")
    MIN_JOBS = 4  # its job times spread the most, and the first job is cold

    def prepare(self) -> dict:
        n = self.size["n_docs"]
        key = os.path.join(self.cache_root, f"curate-s{self.seed}-d{n}")

        def build(tmp: str) -> dict:
            docs = inputs.documents(self.seed, n)
            info = {"checksum": inputs.write(docs, os.path.join(tmp, "docs")),
                    "rows": docs.num_rows}
            oracles.curation_sql(docs).to_parquet(os.path.join(tmp, "oracle.parquet"))
            return info

        self.cache = key
        self.info = _cached(key, build)
        return self.info

    def job(self):
        import ray.data as rd

        from graphx_ray.pipelines.curation import curate

        out = curate(rd.read_parquet(os.path.join(self.cache, "docs")),
                     num_partitions=NUM_PARTS).to_pandas()
        return out, {}

    def check(self, out) -> str | None:
        want = pd.read_parquet(os.path.join(self.cache, "oracle.parquet"))
        return oracles.mismatch(out, want, ["n_ws_tokens"])

    def traced_job(self, tracer):
        """The stages curate() composes (minhash path, min-id survivor),
        called one by one with the same arguments."""
        import inspect

        import ray.data as rd

        from graphx_ray.functions import dedup, text
        from graphx_ray.pipelines.curation import curate
        from graphx_ray.pipelines.graph import Graph
        from graphx_ray.stages import derive

        actors = inspect.signature(curate).parameters["concurrency"].default
        docs = rd.read_parquet(os.path.join(self.cache, "docs"))
        with tracer.span("functions.text.quality_scores"):
            scored = text.quality_scores(docs, concurrency=actors).materialize()
        # the gate is a lazy filter; it runs inside the exact-dedup span
        kept = scored.map_batches(_gate, batch_format="pyarrow",
                                  zero_copy_batch=True).select_columns(["doc_id", "text"])
        with tracer.span("functions.dedup.exact_dedup_rows"):
            uniq = dedup.exact_dedup_rows(kept, num_partitions=NUM_PARTS).materialize()
        with tracer.span("functions.dedup.minhash_lsh_pairs"):
            cand = dedup.minhash_lsh_pairs(uniq, num_perm=64, bands=16, k=3,
                                           concurrency=actors).materialize()
        with tracer.span("functions.dedup.verify_jaccard"):
            ver = dedup.verify_jaccard(cand, uniq, threshold=0.5, k=3,
                                       num_partitions=NUM_PARTS).materialize()
        n_cand, n_ver = cand.count(), ver.count()
        cc_parts = int(min(NUM_PARTS, max(2, n_ver // 1_000_000 + 2)))
        wd = os.path.join(self.job_dir("trace"), "wd")
        g = Graph(ver.map_batches(_as_edges, batch_format="pyarrow", zero_copy_batch=True),
                  num_parts=cc_parts, workdir=wd)
        try:
            with tracer.span("pipelines.graph.connected_components"):
                cc = g.connected_components()
            with tracer.span("pipelines.graph.collect"):
                drops = cc.map_batches(_drops_only, batch_format="pyarrow",
                                       zero_copy_batch=True).materialize()
        finally:
            g.close()
        with tracer.span("stages.derive.anti_join"):
            final = derive.anti_join(uniq, drops, on="doc_id", right_on="vid",
                                     num_partitions=NUM_PARTS).materialize()
        with tracer.span("functions.text.token_counts"):
            out = text.token_counts(final).select_columns(["doc_id", "n_ws_tokens"]).to_pandas()
        counts = {
            "functions.dedup.candidate_pairs": n_cand,
            "functions.dedup.verified_pairs": n_ver,
            "functions.dedup.verify_yield": n_ver / n_cand if n_cand else 0.0,
            "stages.derive.spill_bytes": _spill_bytes(),
            "pipelines.graph.cc_supersteps": len(_metrics_records(wd, "cc")),
            "state.csr.staged_bytes": _staged_bytes(wd),
        }
        times = {
            name + "_s": (name, 1) for name in (
                "functions.text.quality_scores", "functions.text.token_counts",
                "functions.dedup.exact_dedup_rows", "functions.dedup.minhash_lsh_pairs",
                "functions.dedup.verify_jaccard", "stages.derive.anti_join")
        }
        times["pipelines.graph.cc_s"] = ("pipelines.graph.connected_components", 1)
        times.update(GRAPH_TIMES)
        return out, counts, times


WORKLOADS = {w.name: w for w in (BuildRank, Iterate, Curate)}
