"""Motif finding (GraphFrames ``find``) + the generic two-large-sides join
it runs on (SURVEY.md §2.3 J-series; G8 motif was a stretch goal).

``bucket_join`` is the bucketed shuffle join the semi-join docstring
promises for the two-big-sides case: both inputs spill hash-partitioned
by the join key through storage (same pattern and rationale as
``derive.grouped_reduce`` — deadlock-free, memory-bounded, skew-resistant
via the full-tuple hash), then one task per bucket performs a vectorized
pandas merge (a C hash join) of the two co-located slices.

``find`` evaluates conjunctive edge patterns ``"(a)-[]->(b); (b)-[]->(c)"``
GraphFrames-style by folding bucket joins over the pattern's edges:

- a term whose endpoints are both new binds a fresh edge table;
- a term with one bound endpoint extends matches by one hop (join on the
  bound variable);
- a term with both endpoints bound filters matches by edge existence
  (semi join against the deduped edge set);
- a ``!(a)-[]->(b)`` term negates (anti join).

Distinctness is NOT imposed between different variables (GraphFrames
semantics); the result has one column per named vertex variable and one
row per distinct binding.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

from graphx_ray.context import ensure_hash_shuffle, register_spill
from graphx_ray.stages.derive import grouped_reduce
from graphx_ray.state.spill import hash_parts, per_part, spill

_TERM = re.compile(r"^(!?)\((\w+)\)-\[\w*\]->\((\w+)\)$")


def bucket_join(
    left: Dataset,
    right: Dataset,
    *,
    on: list[str] | str,
    right_on: list[str] | str | None = None,
    how: str = "inner",
    num_partitions: int = 16,
) -> Dataset:
    """Distributed join of two LARGE datasets by hash co-partitioning
    through storage; ``how`` ∈ {inner, left, semi, anti, outer}.
    Column name collisions (other than the join keys) get an ``_r``
    suffix from the right side; ``left`` emits nulls for unmatched right
    columns; ``outer`` (full outer) additionally keeps unmatched RIGHT
    rows — their keys coalesce into the left key columns and their left
    attributes are null."""
    lkeys = [on] if isinstance(on, str) else list(on)
    rkeys = (
        [right_on] if isinstance(right_on, str) else list(right_on)
    ) if right_on is not None else lkeys
    if how not in ("inner", "left", "semi", "anti", "outer"):
        raise ValueError(how)
    if how == "outer":
        # outer renames the right keys onto the left key names before the
        # merge — a right NON-key column shadowing a left key would break
        # the coalesce
        shadow = (set(right.schema().names) - set(
            [right_on] if isinstance(right_on, str) else list(right_on or (
                [on] if isinstance(on, str) else list(on)))
        )) & set([on] if isinstance(on, str) else list(on))
        if shadow:
            raise ValueError(
                f"outer join: right non-key column(s) {sorted(shadow)} "
                "shadow the left key names; rename them first"
            )
    P = num_partitions
    lspill = spill(left, lambda b: (b, hash_parts(b, lkeys, P)), P)
    rspill = spill(right, lambda b: (b, hash_parts(b, rkeys, P)), P)

    lsch = left.schema()
    lcols = list(lsch.names)
    out_schema = pa.schema([pa.field(n, t) for n, t in zip(lsch.names, lsch.types)])
    rsch = right.schema()
    if how in ("inner", "left", "outer"):
        # non-key right columns join the output; collisions get "_r" —
        # exactly the names pandas merge(suffixes=("", "_r")) produces
        for n, t in zip(rsch.names, rsch.types):
            if n not in rkeys:
                out_schema = out_schema.append(
                    pa.field(n if n not in lcols else n + "_r", t)
                )

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        have_l = lt.num_rows > 0
        have_r = rt.num_rows > 0
        if how == "outer":
            import pandas as pd

            ldf = (
                lt.select(lcols).to_pandas()
                if have_l
                else pd.DataFrame({n: pd.Series(dtype=object) for n in lcols})
            )
            rnames = [c for c in rsch.names]
            rdf = (
                rt.select(rnames).to_pandas()
                if have_r
                else pd.DataFrame({n: pd.Series(dtype=object) for n in rnames})
            )
            # rename the right keys onto the left key names so pandas
            # emits ONE coalesced key column per key (right-only rows
            # carry their keys instead of nulls)
            rdf = rdf.rename(columns=dict(zip(rkeys, lkeys)))
            m = ldf.merge(rdf, on=lkeys, how="outer",
                          suffixes=("", "_r"))
            arrs = [pa.Array.from_pandas(m[name], type=out_schema.field(name).type)
                    for name in out_schema.names]
            return pa.Table.from_arrays(arrs, schema=out_schema)
        if not have_l or (how == "inner" and not have_r) or (how == "semi" and not have_r):
            return out_schema.empty_table()
        ldf = lt.select(lcols).to_pandas()
        if how in ("anti", "left") and not have_r:
            if how == "left":  # all-null right columns, schema-typed
                arrs = [pa.Array.from_pandas(ldf[n], type=out_schema.field(n).type)
                        if n in ldf.columns else pa.nulls(len(ldf), out_schema.field(n).type)
                        for n in out_schema.names]
                return pa.Table.from_arrays(arrs, schema=out_schema)
            return pa.Table.from_pandas(ldf, schema=out_schema, preserve_index=False)
        rcols = rkeys if how in ("semi", "anti") else [c for c in rsch.names]
        rdf = rt.select(rcols).to_pandas()
        if how in ("semi", "anti"):
            rdf = rdf.drop_duplicates(subset=rkeys)
            m = ldf.merge(
                rdf, left_on=lkeys, right_on=rkeys, how="left", indicator=True
            )
            keep = m["_merge"] == ("both" if how == "semi" else "left_only")
            out = m.loc[keep, lcols]
            return pa.Table.from_pandas(out, schema=out_schema, preserve_index=False)
        m = ldf.merge(
            rdf, left_on=lkeys, right_on=rkeys,
            how="inner" if how == "inner" else "left", suffixes=("", "_r"),
        )
        # per-column typed conversion: a left join's unmatched int64 attrs
        # become float64+NaN in pandas — from_pandas with the schema type
        # restores int64-with-nulls instead of corrupting the schema
        arrs = [pa.Array.from_pandas(m[name], type=out_schema.field(name).type)
                for name in out_schema.names]
        return pa.Table.from_arrays(arrs, schema=out_schema)

    return per_part(join_bucket, lspill, rspill, empty=out_schema.empty_table())


def _parse_pattern(pattern: str) -> list[tuple[bool, str, str]]:
    terms = []
    for raw in pattern.split(";"):
        t = raw.strip()
        if not t:
            continue
        m = _TERM.match(t)
        if not m:
            raise ValueError(f"unparseable motif term: {t!r}")
        terms.append((m.group(1) == "!", m.group(2), m.group(3)))
    if not terms:
        raise ValueError("empty motif pattern")
    return terms


def find(
    edges: Dataset,
    pattern: str,
    *,
    vertices: Dataset | None = None,
    vertex_attrs: list[str] | None = None,
    num_partitions: int = 16,
) -> Dataset:
    """GraphFrames-style motif search over a directed edge table
    (src, dst[, ...]): returns one int64 column per named vertex variable,
    one row per DISTINCT binding. Positive terms must keep the pattern
    connected (a term introducing two unbound variables after the first is
    a cross product and is rejected); negated terms require both endpoints
    bound.

    ``vertices`` (a (vid, attrs...) table) projects each named variable's
    vertex attributes into the result as ``{var}_{attr}`` columns — the
    flat-schema equivalent of GraphFrames' struct columns, so post-find
    vertex conditions are one ``.filter(expr="a_zone == 3")`` away.
    ``vertex_attrs`` restricts which attribute columns project (default:
    every non-vid column). Each projection is one bucketed left join per
    variable — binding-set-sized, never corpus-sized."""
    ensure_hash_shuffle(edges)

    # dedupe the directed pair set ONCE and stage it — every pattern term
    # reuses it (parallel edges must not multiply matches)
    import tempfile

    import ray.data as rd

    canon_dir = register_spill(tempfile.mkdtemp(prefix="graphx_motif_", dir="/tmp"))
    grouped_reduce(
        edges.select_columns(["src", "dst"]), ["src", "dst"], num_partitions=num_partitions
    ).write_parquet(canon_dir)

    def as_pair(a: str, b: str) -> Dataset:
        def f(batch: pa.Table) -> pa.Table:
            if a == b:  # self-loop term (x)-[]->(x): one column, src == dst
                import pyarrow.compute as pc

                keep = batch.filter(pc.equal(batch["src"], batch["dst"]))
                return pa.table({a: keep["src"]})
            return pa.table({a: batch["src"], b: batch["dst"]})

        return rd.read_parquet(canon_dir).map_batches(
            f, batch_format="pyarrow", zero_copy_batch=True
        )

    terms = _parse_pattern(pattern)
    positives = [t for t in terms if not t[0]]
    negatives = [t for t in terms if t[0]]
    if not positives:
        raise ValueError("motif needs at least one positive term")

    neg, a0, b0 = positives[0]
    matches = as_pair(a0, b0)
    bound = {a0, b0}
    pending = positives[1:]
    while pending:
        progressed = False
        for i, (_n, a, b) in enumerate(pending):
            in_a, in_b = a in bound, b in bound
            if not (in_a or in_b):
                continue
            if in_a and in_b:
                matches = bucket_join(
                    matches, as_pair(a, b),
                    on=[a] if a == b else [a, b], how="semi",
                    num_partitions=num_partitions,
                )
            else:
                key = a if in_a else b
                matches = bucket_join(
                    matches, as_pair(a, b), on=key, how="inner",
                    num_partitions=num_partitions,
                )
                bound.add(b if in_a else a)
            pending.pop(i)
            progressed = True
            break
        if not progressed:
            raise ValueError(
                "disconnected motif pattern (a term would form a cross product)"
            )
    for _n, a, b in negatives:
        if a not in bound or b not in bound:
            raise ValueError("negated motif terms need both endpoints bound")
        matches = bucket_join(
            matches, as_pair(a, b), on=[a] if a == b else [a, b], how="anti",
            num_partitions=num_partitions,
        )
    var_cols = sorted(bound)
    out = grouped_reduce(
        matches.select_columns(var_cols), var_cols, num_partitions=num_partitions
    )
    if vertices is None:
        return out

    vsch = vertices.schema()
    attrs = vertex_attrs or [n for n in vsch.names if n != "vid"]
    for var in var_cols:

        def ren(batch: pa.Table, _v=var, _a=attrs) -> pa.Table:
            return pa.table(
                {_v: batch["vid"].cast(pa.int64()),
                 **{f"{_v}_{c}": batch[c] for c in _a}}
            )

        out = bucket_join(
            out,
            vertices.map_batches(ren, batch_format="pyarrow", zero_copy_batch=True),
            on=var, how="left", num_partitions=num_partitions,
        )
    return out
