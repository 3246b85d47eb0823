"""Run plumbing: the Ray session, memory sampling, /tmp hygiene, host facts
and summary statistics. Nothing here knows about a workload."""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import signal
import statistics
import tempfile
import threading
import time

import numpy as np

NUM_CPUS = 4
OBJECT_STORE_BYTES = 768 << 20
TMP_GLOB = "/tmp/graphx_*"


# ---------------------------------------------------------------- stats


def percentile_summary(values: list[float]) -> dict:
    """Median, the highest percentile that still has at least ten samples
    above it (None below 11 samples), and the sample count."""
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n,
           "pct": None, "pct_value": None}
    if n >= 11:
        p = int(100 * (n - 10) / n)
        out["pct"] = p
        out["pct_value"] = float(np.percentile(values, p))
    return out


# ---------------------------------------------------------------- disk


def du(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def tmp_entries() -> set[str]:
    return set(glob.glob(TMP_GLOB))


def sweep_tmp(before: set[str]) -> int:
    """Delete the /tmp/graphx_* entries created since ``before``; return
    their size in bytes."""
    left = sorted(tmp_entries() - before)
    size = sum(du(p) for p in left)
    for p in left:
        if os.path.isdir(p):
            shutil.rmtree(p, ignore_errors=True)
        else:
            try:
                os.remove(p)
            except OSError:
                pass
    return size


# ---------------------------------------------------------------- processes


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kids.setdefault(int(fields[1]), []).append(int(stat.split("/")[2]))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemSampler:
    """Peak summed PSS of this process and every descendant (the Ray head
    processes and workers), sampled by a separate process so the main
    interpreter is not interrupted. PSS splits each shared page among its
    mappers, so object-store pages count once in the sum."""

    def __init__(self, interval_s: float = 1.0):
        import subprocess
        import sys

        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid()), str(interval_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def pause(self) -> None:
        """Stop sampling; returns once the sampler has acknowledged, so no
        sample is taken after this call."""
        self._proc.stdin.write("p")
        self._proc.stdin.flush()
        self._proc.stdout.readline()

    def resume(self) -> None:
        self._proc.stdin.write("r")
        self._proc.stdin.flush()

    @contextlib.contextmanager
    def paused(self):
        """Keep the benchmark's own work (output checks, oracles) out of
        the peak."""
        self.pause()
        try:
            yield
        finally:
            self.resume()

    def stop(self) -> float:
        """Peak in MB over the sampled time."""
        out, _ = self._proc.communicate("", timeout=30)
        return int(out.strip() or 0) / 1024.0


def _sample_until_stdin_closes(root: int, interval_s: float) -> None:
    """Sample every ``interval_s`` until stdin closes; ``p`` on stdin
    pauses (acknowledged with a line on stdout), ``r`` resumes."""
    import select
    import sys

    me, peak, paused = os.getpid(), 0, False
    while True:
        if not paused:
            pids = [root] + [p for p in descendants(root) if p != me]
            peak = max(peak, sum(_pss_kb(p) for p in pids))
        ready, _, _ = select.select([sys.stdin], [], [], None if paused else interval_s)
        if ready:
            cmd = sys.stdin.read(1)
            if not cmd:
                break
            paused = cmd == "p"
            if paused:
                print("paused", flush=True)
    print(peak, flush=True)


def kill_tree(timeout_s: float = 10.0) -> None:
    """SIGTERM, then SIGKILL, every descendant; wait until all are gone."""
    me = os.getpid()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = descendants(me)
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, sig)
            except OSError:
                pass
        end = time.time() + timeout_s
        while time.time() < end and descendants(me):
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.1)


# ---------------------------------------------------------------- ray


def ray_temp_dir(root: str) -> str:
    """Ray's session directory: inside the benchmark root when the path is
    short enough for Ray's Unix sockets (about 107 bytes with the session
    suffix), otherwise a fresh /tmp directory. The caller removes it."""
    want = os.path.join(root, "ray")
    if len(want) <= 40:
        os.makedirs(want, exist_ok=True)
        return want
    return tempfile.mkdtemp(prefix="perfbench-ray-")


def start_ray(temp_dir: str, repo_root: str) -> float:
    """Start a fresh 4-CPU Ray session; return its start time in seconds."""
    import ray
    import ray.data as rd

    here = os.path.dirname(os.path.abspath(__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join([repo_root, here, os.environ.get("PYTHONPATH", "")])
    t0 = time.perf_counter()
    ray.init(
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
    )
    rd.DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t0


def warm_workers(modules: tuple[str, ...]) -> None:
    """Import ``modules`` in the driver and in one worker process per CPU."""
    import importlib

    import ray

    @ray.remote(num_cpus=1)
    def load(names):
        for name in names:
            importlib.import_module(name)
        time.sleep(1.0)  # hold the CPU, so that the other tasks start their own workers

    for name in modules:
        importlib.import_module(name)
    ray.get([load.remote(modules) for _ in range(NUM_CPUS)])


def stop_ray(timeout_s: float = 30.0) -> None:
    import ray

    t = threading.Thread(target=ray.shutdown, daemon=True)
    t.start()
    t.join(timeout_s)
    kill_tree()


# ---------------------------------------------------------------- host


def gather_eps(n: int = 1 << 22, m: int = 1 << 22, reps: int = 5) -> float:
    """Random float64 gathers per second on one process: the bare kernel
    under every superstep, the in-run hardware control."""
    rng = np.random.default_rng(0)
    x = rng.random(n)
    idx = rng.integers(0, n, m)
    out = np.empty(m)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.take(x, idx, out=out)
        times.append(time.perf_counter() - t0)
    return m / statistics.median(times)


def host_facts() -> dict:
    import pyarrow
    import ray

    return {
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": np.__version__,
    }


if __name__ == "__main__":
    import sys

    _sample_until_stdin_closes(int(sys.argv[1]), float(sys.argv[2]))
