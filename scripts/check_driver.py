"""Emulate the driver's correctness harness locally: run every queries()
entry against its oracle_sql() via DuckDB (row count + sorted-column value
compare). Usage:  PYTHONPATH=. python scripts/check_driver.py [sf_dir] [name ...]

``--chunk N`` (first arg) runs the queries in subprocess chunks of N with
a FRESH Ray session each — a very long single session (~2400 executed
Datasets) can hit the upstream raylet race `Tried to complete task that
was not pending` and die mid-run; chunking bounds the blast radius (see
CLAUDE.md sharp edges).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def to_df(x) -> pd.DataFrame:
    import pyarrow as pa
    from ray.data import Dataset

    if isinstance(x, Dataset):
        df = x.to_pandas()
        if df.shape[1] == 0 and len(df) == 0:
            # ray.data drops the schema of an EMPTY Dataset on to_pandas
            # (CLAUDE.md sharp edge) — rebuild the columns so an empty
            # engine result compares against an empty oracle by NAME
            sch = x.schema()
            if sch is not None and sch.names:
                return pd.DataFrame(columns=list(sch.names))
        return df
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _chunked(argv: list[str]) -> int:
    import subprocess

    n = int(argv[0])
    rest = argv[1:]
    sf_dir = rest[0] if rest else "/root/testdata/sf0.01"
    import __ray_entry__ as entrymod

    names = list(entrymod.queries())
    rc = 0
    for i in range(0, len(names), n):
        cmd = [sys.executable, os.path.abspath(__file__), sf_dir, *names[i:i + n]]
        rc |= subprocess.call(cmd)
    return rc


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--chunk":
        return _chunked(sys.argv[2:])
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = norm(to_df(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only, {len(got)} rows ({dt:.1f}s)")
            continue
        want = norm(con.sql(oracles[name]).df())
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(want.columns)}")
            failures += 1
            continue
        if len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} != {len(want)} ({dt:.1f}s)")
            failures += 1
            continue
        bad = None
        for c in got.columns:
            a, b = got[c].to_numpy(), want[c].to_numpy()
            # the correctness harness hashes dtypes too: an int-kind column
            # against a float-kind one fails there even when all values match
            if {a.dtype.kind in "iub", b.dtype.kind in "iub"} == {True, False} and (
                "f" in (a.dtype.kind, b.dtype.kind)
            ):
                bad = f"{c} dtype {a.dtype} != oracle {b.dtype}"
                break
            eq = np.array_equal(a, b) if a.dtype.kind in "iub" and b.dtype.kind in "iub" else (
                np.allclose(pd.to_numeric(got[c]), pd.to_numeric(want[c]))
                if a.dtype.kind in "if" or b.dtype.kind in "if"
                else (a == b).all()
            )
            if not eq:
                bad = f"{c} differs"
                break
        if bad:
            print(f"FAIL {name}: column {bad} ({dt:.1f}s)")
            failures += 1
        else:
            print(f"ok   {name}: {len(got)} rows match oracle ({dt:.1f}s)")
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sys.exit(main())
