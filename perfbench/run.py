#!/usr/bin/env python3
"""graphx_ray benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload {build_rank,iterate,curate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The run generates (or reuses) the seed's
inputs and oracle answers, starts one 4-CPU Ray session, warms up, then
submits one job at a time for ``--seconds`` seconds and checks every output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics. The last line of
standard output is the result object; the line before it carries the
details (percentiles, sample counts, workload metrics, host facts). See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
DEADLINE_S = 170.0  # the whole run, from start to result line
OP_TIMEOUT_S = 90.0
CACHE_KEEP = 72
TRACES_KEEP = 24

class Timeout(Exception):
    pass


def call_with_timeout(fn, timeout_s: float):
    """Run ``fn`` on a daemon thread; raise Timeout if it does not return
    in time (the thread is abandoned; the caller then stops Ray)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - reported as a failed op
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(timeout_s, 0.0))
    if t.is_alive():
        raise Timeout(f"no result after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def trim_cache(cache_root: str) -> None:
    entries = [os.path.join(cache_root, e) for e in os.listdir(cache_root)]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)


def write_spans(root: str, name: str, spans: list[dict]) -> str:
    """Write a trace run's spans as JSON lines under .perfbench/traces/,
    keeping the newest TRACES_KEEP files."""
    out_dir = os.path.join(root, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-{os.getpid()}.jsonl")
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    old = sorted((os.path.join(out_dir, e) for e in os.listdir(out_dir)),
                 key=os.path.getmtime, reverse=True)
    for p in old[TRACES_KEEP:]:
        os.remove(p)
    return os.path.relpath(path, REPO)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    t_start = time.perf_counter()

    sys.path.insert(0, REPO)
    try:
        import graphx_ray  # noqa: F401
        import __ray_entry__  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the program is not importable from {REPO}: {e}", file=sys.stderr)
        return 2

    import harness
    import workloads
    from spans import Tracer

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise Timeout("run deadline reached")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(DEADLINE_S))

    root = os.path.join(REPO, ".perfbench")
    cache_root = os.path.join(root, "cache")
    run_dir = os.path.join(root, "runs", str(os.getpid()))
    os.makedirs(cache_root, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    trim_cache(cache_root)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, cache_root, run_dir)
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    jobs: list[dict] = []
    layer_samples: list[dict] = []
    spans: list[dict] = []
    errors: list[str] = []
    tmp_before = harness.tmp_entries()
    ray_dir = harness.ray_temp_dir(root)
    sampler = None
    ray_started = False
    setup_s = None
    init_s = None
    try:
        details["inputs"] = wl.prepare()
        details["host"] = harness.host_facts()
        details["host"]["gather_eps"] = harness.gather_eps()

        sampler = harness.MemSampler()
        init_s = harness.start_ray(ray_dir, REPO)
        ray_started = True
        t0 = time.perf_counter()
        if args.trace:
            setup_tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-setup")
            workloads.graph_layer_spans(setup_tracer)
        try:
            with (setup_tracer.span("setup") if args.trace else contextlib.nullcontext()) as root_span:
                setup_counts = call_with_timeout(
                    wl.setup, DEADLINE_S - (time.perf_counter() - t_start) - 10) or {}
        finally:
            if args.trace:
                setup_tracer.unpatch()
        setup_s = init_s + time.perf_counter() - t0
        if args.trace:
            spans.extend(setup_tracer.spans)
            selfs = setup_tracer.self_times(root_span)
            setup_layers = {k: selfs.get(span, 0.0) / div
                            for k, (span, div) in workloads.GRAPH_TIMES.items()}
            setup_layers.update(setup_counts)

        t_loop = time.perf_counter()
        traced_next = False
        # a trace run needs one job of each kind
        min_jobs = 2 if args.trace else wl.MIN_JOBS
        while len(jobs) < min_jobs or time.perf_counter() - t_loop < args.seconds:
            left = DEADLINE_S - (time.perf_counter() - t_start) - 15
            if len(jobs) >= min_jobs and left < 1.5 * max(j["job_s"] for j in jobs):
                break  # the next job would not finish before the deadline
            traced = bool(args.trace) and traced_next
            wl.jobs += 1
            rec = {"traced": traced}
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")

                    def run_traced():
                        workloads.graph_layer_spans(tracer)
                        try:
                            with tracer.span("job") as root_span:
                                out, counts, times = wl.traced_job(tracer)
                        finally:
                            tracer.unpatch()
                        return out, counts, times, root_span

                    out, counts, times, root_span = call_with_timeout(
                        run_traced, min(OP_TIMEOUT_S, left))
                    rec["job_s"] = time.perf_counter() - t0
                    selfs = tracer.self_times(root_span)
                    layers = {k: selfs.get(span, 0.0) / div for k, (span, div) in times.items()}
                    layers.update(counts)
                    layers["trace.coverage"] = 1.0 - selfs.get("job", 0.0) / rec["job_s"]
                    spans.extend(tracer.spans)
                    layer_samples.append(layers)
                else:
                    out, m = call_with_timeout(wl.job, min(OP_TIMEOUT_S, left))
                    rec["job_s"] = time.perf_counter() - t0
                    rec.update(m)
                with sampler.paused():
                    bad = wl.check(out)
                if bad:
                    rec["error"] = f"wrong output: {bad}"
            except Timeout as e:
                rec["job_s"] = time.perf_counter() - t0
                rec["error"] = f"timeout: {e}"
                jobs.append(rec)
                break  # the session may be wedged; stop submitting
            except Exception as e:  # noqa: BLE001 - a failed operation
                rec["job_s"] = time.perf_counter() - t0
                rec["error"] = f"{type(e).__name__}: {e}"
                traceback.print_exc(file=sys.stderr)
            jobs.append(rec)
            wl.after_job()
            traced_next = not traced_next
    except Exception as e:  # noqa: BLE001 - set-up failed: no result line
        errors.append(f"{type(e).__name__}: {e}")
        traceback.print_exc(file=sys.stderr)
    finally:
        signal.alarm(0)
        peak_mb = sampler.stop() if sampler else None
        try:
            wl.close()
        except Exception:  # noqa: BLE001 - the session may already be gone
            pass
        if ray_started:
            harness.stop_ray()
        harness.kill_tree()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        tmp_left = harness.sweep_tmp(tmp_before)

    if errors or not jobs:
        print(f"perfbench: run failed: {errors}", file=sys.stderr)
        return 1

    untraced = [j for j in jobs if not j["traced"]]
    done = [j for j in untraced if "error" not in j or j["error"].startswith("wrong")]
    times = [j["job_s"] for j in (done or untraced)]
    failed = sum("error" in j for j in jobs)
    details.update({
        "ops_attempted": len(jobs),
        "ops_failed": failed,
        "ops_failed_share": failed / len(jobs),
        "errors": [j["error"] for j in jobs if "error" in j],
        "job_s": harness.percentile_summary(times),
        "job_times_s": [round(j["job_s"], 4) for j in jobs],
        "tmp_left_bytes": tmp_left,
        "ray_init_s": init_s,
    })
    for key in sorted({k for j in done for k in j} - {"traced", "job_s", "error"}):
        details[key] = harness.percentile_summary([j[key] for j in done if key in j])

    if args.trace:
        traced_times = [j["job_s"] for j in jobs if j["traced"] and "error" not in j]
        layers = {k: 0.0 for k in per_layer}
        for k in per_layer:
            vals = [s[k] for s in layer_samples if k in s]
            if vals:
                layers[k] = statistics.median(vals)
        for k in wl.SETUP_LAYERS:
            layers[k] = setup_layers.get(k, 0.0)
        layers["ray.init_s"] = init_s
        layers["context.tmp_left_bytes"] = tmp_left
        layers["host.gather_eps"] = details["host"]["gather_eps"]
        if traced_times:
            layers["trace.job_s"] = statistics.median(traced_times)
            layers["trace.overhead_s"] = layers["trace.job_s"] - statistics.median(times)
        metrics = {k: {"value": float(layers[k]), "unit": u} for k, u in per_layer.items()}
        details["spans_file"] = write_spans(root, f"{args.workload}-s{args.seed}", spans)
    else:
        values = {"job_s": statistics.median(times), "setup_s": setup_s, "peak_mem_mb": peak_mb}
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in end_to_end.items()}

    print(json.dumps({"details": details}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
