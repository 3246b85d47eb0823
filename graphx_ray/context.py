"""Ray Data execution configuration for graphx_ray pipelines.

Key-based ``repartition(keys=...)`` (the engine's explicit hash
partitioning) requires ``DataContext.shuffle_strategy = HASH_SHUFFLE`` in
Ray 2.49. ``ensure_hash_shuffle()`` flips the current DataContext once; it
is called by every pipeline entry point so drivers (tests, bench,
``__ray_entry__``) don't need to know. Never touches ray.init.
"""

from __future__ import annotations

from ray.data import DataContext
from ray.data.context import ShuffleStrategy


def _tune(ctx) -> None:
    import ray

    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    # Default hash-shuffle parallelism is 200 (64 aggregator actors) — sized
    # for a real cluster. Cap it to the CPUs actually present so a groupby on
    # a small node doesn't drown in aggregator actors (observed: 58 s for a
    # 6-row groupby at 4 CPUs with the defaults).
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    par = max(2, min(ncpu, 64))
    ctx.default_hash_shuffle_parallelism = par
    ctx.max_hash_shuffle_aggregators = par
    # read_op_min_num_blocks=200 splinters small/medium inputs into hundreds
    # of tiny blocks → a worker-process storm per map stage. 2 blocks/CPU
    # keeps the pipeline saturated without the churn.
    ctx.read_op_min_num_blocks = 2 * par
    ctx.min_parallelism = 2 * par
    # NOTE: deep DAGs chaining several hash-shuffle operators can deadlock
    # on aggregator-actor admission in small sessions; the engine therefore
    # keeps at most ~2 hash shuffles per execution and runs its big keyed
    # reductions through storage (derive.grouped_reduce) instead.


def ensure_hash_shuffle(ds=None) -> None:
    """Enable hash shuffling on the current context and, when given, on an
    already-created Dataset (a Dataset captures its DataContext at creation,
    so flipping the global after the fact is not enough)."""
    ctx = DataContext.get_current()
    if ctx.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE:
        _tune(ctx)
    if ds is not None and ds.context.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE:
        _tune(ds.context)


def quiet() -> None:
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


# ------------------------------------------------------------- spill hygiene

_SPILL_DIRS: list[str] = []
_ATEXIT_REGISTERED = False


def register_spill(path: str) -> str:
    """Track a storage-shuffle spill directory for end-of-process cleanup.

    Every storage shuffle writes through ``state/spill.spill``, which
    registers its /tmp directory here; plain workdirs (a Graph's default
    one, SVD++'s, the motif, k-core and truss round directories) register
    directly. Spills are read lazily by downstream tasks, so they
    cannot be deleted eagerly; they ARE safe to delete when the process
    exits. Long-running drivers can call ``cleanup_spills()`` between
    pipelines once results are consumed."""
    global _ATEXIT_REGISTERED
    _SPILL_DIRS.append(path)
    if not _ATEXIT_REGISTERED:
        import atexit

        atexit.register(cleanup_spills)
        _ATEXIT_REGISTERED = True
    return path


def cleanup_spills() -> int:
    """Best-effort removal of every registered spill dir; returns #removed."""
    import shutil

    n = 0
    while _SPILL_DIRS:
        d = _SPILL_DIRS.pop()
        try:
            shutil.rmtree(d, ignore_errors=True)
            n += 1
        except OSError:
            pass
    return n
