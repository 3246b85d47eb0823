#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, with its output checks; plus the vectorised graph oracles against
``tests/oracles.py`` on small random graphs. Run from the repository root:

    python3 perfbench/smoke.py

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def check_oracles() -> None:
    import numpy as np
    import pandas as pd

    import importlib.util

    sys.path[:0] = [HERE, REPO]
    import inputs
    import oracles as fast

    spec = importlib.util.spec_from_file_location(
        "reference_oracles", os.path.join(REPO, "tests", "oracles.py"))
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 120))
        src = rng.integers(0, n, m).astype(np.int64) * 11 + 7
        dst = rng.integers(0, n, m).astype(np.int64) * 11 + 7
        w = rng.integers(1, 4, m).astype(np.int64)
        edges = pd.DataFrame({"src": src, "dst": dst, "w": w})
        verts = np.unique(np.concatenate([src, dst]))
        pairs = [
            (fast.pagerank(src, dst, w, max_iter=12), ref.pagerank_oracle(edges, verts, max_iter=12), ["rank"], 1e-12),
            (fast.hits(src, dst, w), ref.hits_oracle(edges, verts), ["hub", "auth"], 1e-12),
            (fast.label_propagation(src, dst, w), ref.lpa_oracle(edges, verts), ["label"], 0),
        ]
        nonloop = src != dst
        if nonloop.any():
            cc_verts = np.unique(np.concatenate([src[nonloop], dst[nonloop]]))
            pairs.append((fast.connected_components(src, dst),
                          ref.cc_oracle(edges[nonloop], cc_verts), ["component"], 0))
        for got, want, cols, tol in pairs:
            bad = fast.mismatch(got, want.sort_values("vid").reset_index(drop=True),
                                   cols, rtol=tol, atol=tol)
            assert bad is None, f"trial {trial}: {bad}"
    # the two independent edge derivations agree on every total
    tx = inputs.transcripts(3, 500)
    sql = fast.edge_totals_sql(tx, zone_width_s=3600, delta_s=60)
    own = fast.edge_totals_of(inputs.graph_edges(tx, delta_s=60))
    assert sql == own, (sql, own)
    print("oracles ok")


def check_workloads() -> None:
    for workload in ("build_rank", "iterate", "curate"):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            p = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=300)
            assert p.returncode == 0, f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr[-3000:]}"
            lines = p.stdout.strip().splitlines()
            result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, details["errors"]
            with open(os.path.join(REPO, "BENCHMARK.json")) as f:
                spec = json.load(f)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            assert set(result["metrics"]) == want, set(result["metrics"]) ^ want
            if trace:
                assert result["metrics"]["trace.coverage"]["value"] >= 0.95, result["metrics"]
            print(f"{workload} trace={trace} ok: {result['attempted']} jobs, "
                  f"job_s {details['job_s']['median']:.2f}")


if __name__ == "__main__":
    check_oracles()
    check_workloads()
    print("smoke ok")
