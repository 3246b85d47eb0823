"""Storage-backed hash partitioning: the engine's one spill layout.

The engine replaces Spark's shuffles with spills through storage: the
zone self-join, exact dedup, the bucketed joins, the rank and shuffle
ranges and the CSR staging all write a Dataset as hive-partitioned
parquet, one directory per part id, and read each part back whole in one
task. An in-memory ``repartition(keys=)`` cannot replace this: it does
not promise one block per partition, and a split block silently cuts a
key group in two.

- ``spill(ds, part, num_parts)`` writes the parts; ``part(batch)``
  returns the table to write and its int32 part ids.
- ``per_part(fn, *spills, empty=…)`` runs one Ray Data task per part
  over one or more co-partitioned spills.
- Consumers inside actors or remote tasks (CSR hosts, the SVD++ and
  truss shards, the triangle buckets) read a part through
  ``Spill.path(p)``.
- ``split`` re-spills parts above ``TARGET_BYTES`` with a salted key
  hash. Only a keyed spill that one consumer reads alone may be split:
  the sides of a join must keep equal part ids.

The layout's sharp edges are kept here:
- the hive column is ``_gpart``. ``ray.data.read_parquet`` skips
  ``_``-prefixed directories, so a spill root is never read that way;
  ``pq.read_table`` on a part directory does not see the column;
- spill directory names hold no ``=``: ``read_parquet`` would parse such
  a name into a phantom column;
- a part that got no rows has no directory, and a spill of an empty
  Dataset has no parts. ``per_part`` then returns the caller's ``empty``
  table, whose schema the caller states: Ray Data drops the schema of an
  empty Dataset.

Ray Data is imported inside the functions only: shard hosts unpickle
``Spill`` handles and must not import it.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa

# one task reads a whole part: parts above this many bytes are re-split
TARGET_BYTES = 2 << 30
_COL = "_gpart"


class Spill:
    """Handle of a written spill: part id → directory, in numeric order."""

    def __init__(self, dirs: dict[int, str]):
        self.parts = sorted(dirs)
        self._dirs = dirs

    def path(self, p: int) -> str | None:
        """Directory of part ``p``, or None when it got no rows."""
        return self._dirs.get(p)

    def _files(self, p: int) -> list[str]:
        return sorted(glob.glob(os.path.join(self._dirs[p], "*.parquet")))

    def nbytes(self, p: int) -> int:
        return sum(os.path.getsize(f) for f in self._files(p))

    def nrows(self, p: int) -> int:
        import pyarrow.parquet as pq

        return sum(pq.read_metadata(f).num_rows for f in self._files(p))

    def schema(self) -> pa.Schema:
        """The written schema, from one file footer; no columns when the
        spill has no parts."""
        import pyarrow.parquet as pq

        if not self.parts:
            return pa.schema([])
        return pq.read_schema(self._files(self.parts[0])[0])


def hash_parts(batch: pa.Table, keys: list[str], num_parts: int, salt: int = 0) -> np.ndarray:
    """Part id from the FULL key tuple (per-column hashes mixed):
    partitioning by one key alone sends a hub first-key's whole group set
    to a single part — the skew these spills exist to kill.

    ``salt`` re-mixes the tuple hash so ``split`` gets an INDEPENDENT
    distribution per level (a plain second modulus of the same hash is
    constant inside a first-level part); salt=0 is bit-identical to the
    historical ids (``truss.pair_gpart`` relies on that)."""
    from graphx_ray.ids import hash_text64, mix64

    init = np.uint64(0x9E3779B97F4A7C15)
    if salt:
        init ^= mix64(np.uint64(salt))
    kv = np.full(batch.num_rows, init, dtype=np.uint64)
    for k in keys:
        col = batch[k]
        if pa.types.is_integer(col.type):
            v = col.to_numpy().astype(np.uint64)
        else:
            v = hash_text64(col.to_pandas())
        kv = mix64(kv ^ v)
    return (kv % np.uint64(num_parts)).astype(np.int32)


def spill(ds, part, num_parts: int, *, out: str | None = None) -> Spill:
    """Write ``ds`` hive-partitioned by ``part(batch) -> (table, ids)``,
    ids in [0, ``num_parts``), under a fresh registered /tmp directory, or
    under ``out`` (cleared first: ``write_parquet`` appends to an existing
    directory)."""
    import shutil
    import tempfile

    from graphx_ray.context import ensure_hash_shuffle, register_spill

    ensure_hash_shuffle(ds)
    if out is None:
        out = register_spill(tempfile.mkdtemp(prefix="graphx_spill_", dir="/tmp"))
    else:
        shutil.rmtree(out, ignore_errors=True)

    def tag(batch: pa.Table) -> pa.Table:
        t, ids = part(batch)
        return t.append_column(_COL, pa.array(ids, type=pa.int32()))

    ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        out, partition_cols=[_COL]
    )
    dirs = {int(d.rsplit("=", 1)[1]): d for d in glob.glob(os.path.join(out, f"{_COL}=*"))}
    # consumers that walk range(num_parts) would silently drop such a part
    bad = sorted(p for p in dirs if not 0 <= p < num_parts)
    if bad:
        raise ValueError(f"spill part ids {bad} outside [0, {num_parts})")
    return Spill(dirs)


def split(s: Spill, keys: list[str]) -> Spill:
    """Re-spill every part above ``TARGET_BYTES`` into ~bytes/target
    sub-parts with a salted ``keys`` hash, so one task per part stays
    memory-bounded whatever ``num_parts`` the caller chose. Key groups
    stay whole (equal keys ⇒ equal sub-part). A single hot key cannot
    split (its salted hash is one value): such a part is kept whole, and
    3 salt levels bound pathological skew. The result's parts are
    numbered in order; it must not be co-partitioned with another spill."""
    import ray.data as rd

    out: list[str] = []

    def walk(d: str, nbytes: int, lvl: int) -> None:
        if nbytes <= TARGET_BYTES or lvl > 3:
            out.append(d)
            return
        n = int(min(256, max(2, -(-nbytes // TARGET_BYTES))))
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        sub = spill(
            rd.read_parquet(files, partitioning=None),
            lambda b: (b, hash_parts(b, keys, n, salt=lvl)), n,
        )
        if len(sub.parts) <= 1:  # one hot key: a salted re-hash cannot split it
            out.append(sub.path(sub.parts[0]) if sub.parts else d)
            return
        for p in sub.parts:
            walk(sub.path(p), sub.nbytes(p), lvl + 1)

    for p in s.parts:
        walk(s.path(p), s.nbytes(p), 1)
    return Spill(dict(enumerate(out)))


def arrow_schema(ds) -> pa.Schema:
    """``ds``'s schema as Arrow types (pandas-backed Datasets report
    numpy/Python types); no columns when Ray cannot infer it, as for an
    empty Dataset a map never produced a block for."""
    sch = ds.schema()
    if sch is None or not sch.names:
        return pa.schema([])
    return pa.schema([
        pa.field(n, t if isinstance(t, pa.DataType) else pa.from_numpy_dtype(t))
        for n, t in zip(sch.names, sch.types)
    ])


def per_part(fn, *spills: Spill, empty):
    """One Ray Data task per part present in any of ``spills``, running
    ``fn(*tables)`` on that part's table of each spill — an empty table
    with the spill's schema where the part is missing. When no part
    exists anywhere, the result is ``empty``: a table, or a function
    returning one (so its schema is only worked out when needed)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    parts = sorted(set().union(*(s.parts for s in spills)))
    if not parts:
        return rd.from_arrow(empty() if callable(empty) else empty)
    paths = [[s.path(p) for s in spills] for p in parts]
    blanks = [
        s.schema().empty_table() if any(ps[i] is None for ps in paths) else None
        for i, s in enumerate(spills)
    ]

    def run(batch: pa.Table) -> pa.Table:
        ps = paths[batch["i"][0].as_py()]
        return fn(*(pq.read_table(d) if d else b for d, b in zip(ps, blanks)))

    return rd.from_items([{"i": i} for i in range(len(parts))]).map_batches(
        run, batch_size=1, batch_format="pyarrow"
    )
