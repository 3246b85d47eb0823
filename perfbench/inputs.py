"""Seeded input generators owned by the benchmark.

The program under test only ever sees the Parquet these functions write, so
a change to graphx_ray cannot change a workload. The transcript generator
copies the shape of ``graphx_ray.sources.synth`` (Zipf-skewed start hours,
Poisson turn counts, alternating roles with system/tool inserts, a tool on a
quarter of the turns); the corpus generator plants exact duplicates, near
duplicates and low-quality documents at fixed rates.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

TRANSCRIPTS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)
DOCUMENTS = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

EPOCH_US = 1_767_225_600 * 1_000_000  # 2026-01-01T00:00:00Z
HOUR_US = 3_600_000_000
ROLES = np.array(["user", "assistant", "system", "tool"], dtype=object)
TOOLS = np.array(
    ["search", "python", "browser", "sql", "shell", "calc", "files", "mail"], dtype=object
)


def _vocab(n: int = 3000) -> np.ndarray:
    """Fixed lowercase vocabulary of consonant-vowel words (seed independent)."""
    rng = np.random.default_rng(0)
    cons = np.array(list("bcdfghjklmnprstvwz"))
    vows = np.array(list("aeiou"))
    words: set[str] = set()
    while len(words) < n:
        k = int(rng.integers(1, 4))
        words.add("".join(c + v for c, v in zip(rng.choice(cons, k), rng.choice(vows, k))))
    return np.array(sorted(words), dtype=object)


VOCAB = _vocab()


def _write_parts(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), os.path.join(out_dir, f"part-{i:02d}.parquet"))


def checksum(table: pa.Table) -> str:
    """sha256 over the table's columns in row order (independent of file layout)."""
    h = hashlib.sha256()
    for name in table.column_names:
        col = table[name].combine_chunks()
        h.update(name.encode())
        for buf in col.buffers():
            if buf is not None:
                h.update(buf)
    return h.hexdigest()[:16]


def transcripts(seed: int, n_convs: int, *, n_hours: int = 2000) -> pa.Table:
    """Multi-turn conversation transcripts, one row per turn."""
    rng = np.random.default_rng([seed, 1])
    n_turns = np.clip(2 + rng.poisson(6, n_convs), 2, 40)
    total = int(n_turns.sum())
    starts = np.cumsum(n_turns) - n_turns
    conv_of = np.repeat(np.arange(n_convs), n_turns)
    turn = (np.arange(total) - np.repeat(starts, n_turns)).astype(np.int32)
    conv_ids = np.array([f"c{seed:04d}-{i:08d}" for i in range(n_convs)], dtype=object)

    role_code = turn % 2
    inserts = rng.random(total) < 0.10
    role_code[inserts] = 2 + rng.integers(0, 2, int(inserts.sum()))
    tool = np.full(total, None, dtype=object)
    has_tool = rng.random(total) < 0.25
    tool[has_tool] = TOOLS[rng.integers(0, len(TOOLS), int(has_tool.sum()))]

    hour = (rng.zipf(1.5, n_convs) - 1) % n_hours
    start_us = EPOCH_US + hour.astype(np.int64) * HOUR_US + rng.integers(0, HOUR_US, n_convs)
    gaps = rng.integers(1_000_000, 60_000_000, total)
    csum = np.cumsum(gaps)
    within = csum - np.repeat(csum[starts] - gaps[starts], n_turns)
    ts = start_us[conv_of] + within

    words = VOCAB[rng.integers(0, 400, (total, 3))]
    text = [f"{a} {b} {c}" for a, b, c in words]
    return pa.table(
        {
            "conv_id": conv_ids[conv_of],
            "turn_idx": turn,
            "role": ROLES[role_code],
            "text": text,
            "tool": tool,
            "ts": pa.array(ts, type=pa.timestamp("us")),
        },
        schema=TRANSCRIPTS,
    )


def documents(seed: int, n_docs: int) -> pa.Table:
    """A corpus with planted duplicates: 75 % originals, 8 % exact copies
    (re-cased and re-spaced, so only normalized dedup catches them), 10 %
    near copies with ~8 % of words swapped, 7 % low quality (too short or
    punctuation-heavy). doc_ids are a seeded permutation, so survivors are
    not simply the originals."""
    rng = np.random.default_rng([seed, 2])
    n_exact = int(n_docs * 0.08)
    n_near = int(n_docs * 0.10)
    n_low = int(n_docs * 0.07)
    n_orig = n_docs - n_exact - n_near - n_low
    zipf_p = 1.0 / (np.arange(len(VOCAB)) + 10.0)
    zipf_p /= zipf_p.sum()

    def sentence(n: int) -> list[str]:
        return list(VOCAB[rng.choice(len(VOCAB), n, p=zipf_p)])

    origs = []
    for _ in range(n_orig):
        ws = sentence(int(12 + rng.poisson(14)))
        origs.append(ws)
    texts = []
    for ws in origs:
        cut = int(rng.integers(4, len(ws)))
        texts.append(" ".join(ws[:cut]) + ", " + " ".join(ws[cut:]) + ".")
    for src in rng.integers(0, n_orig, n_exact):
        t = texts[src]
        texts.append("  " + t[0].upper() + t[1:].replace(" ", "  \n", 1) + " ")
    for src in rng.integers(0, n_orig, n_near):
        ws = list(origs[src])
        k = max(1, int(round(0.08 * len(ws))))
        pos = rng.choice(len(ws), k, replace=False)
        for p, w in zip(pos, sentence(k)):
            ws[p] = w
        texts.append(" ".join(ws) + ".")
    for i in range(n_low):
        if i % 2:
            texts.append(" ".join(sentence(int(rng.integers(1, 5)))))
        else:
            texts.append(" !?!?!? ".join(sentence(6)) + " ?!?!")
    doc_ids = rng.permutation(n_docs).astype(np.int64) * 7 + 3
    order = np.argsort(doc_ids)
    return pa.table(
        {"doc_id": doc_ids[order], "text": np.array(texts, dtype=object)[order]},
        schema=DOCUMENTS,
    )


def _vids(kind: int, idx: np.ndarray) -> np.ndarray:
    """Distinct non-negative int64 ids: splitmix64 of (kind, index)."""
    with np.errstate(over="ignore"):
        x = (np.uint64(kind) << np.uint64(40)) + idx.astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(1)).astype(np.int64)


def graph_edges(tx: pa.Table, *, delta_s: int) -> pa.Table:
    """The weighted edge list build_graph derives from ``tx`` (reply, tool and
    zone edges; SURVEY.md 3.1), computed here with the benchmark's own vertex
    ids, so a workload on it does not depend on the program's graph build."""
    df = tx.select(["conv_id", "turn_idx", "role", "tool", "ts"]).to_pandas()
    conv, conv_keys = pd.factorize(df["conv_id"])
    role, _ = pd.factorize(df["role"], sort=True)
    order = np.lexsort((df["turn_idx"].to_numpy(), conv))
    c, r = conv[order], role[order]
    adj = c[:-1] == c[1:]
    reply = pd.DataFrame({"src": _vids(1, r[:-1][adj]), "dst": _vids(1, r[1:][adj])})
    has_tool = df["tool"].notna().to_numpy()
    tool_code, _ = pd.factorize(df["tool"][has_tool], sort=True)
    tool = pd.DataFrame({"src": _vids(0, conv[has_tool]), "dst": _vids(2, tool_code)})
    weighted = [
        e.groupby(["src", "dst"]).size().rename("w").reset_index().assign(etype=name)
        for name, e in (("reply", reply), ("tool", tool))
    ]
    ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    start = np.full(len(conv_keys), np.iinfo(np.int64).max)
    np.minimum.at(start, conv, ts)
    o = np.argsort(start, kind="stable")
    t = start[o]
    hi = np.searchsorted(t, t + delta_s * 1_000_000, side="right")
    cnt = hi - np.arange(len(t)) - 1
    a = np.repeat(np.arange(len(t)), cnt)
    b = a + 1 + (np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt))
    u, v = _vids(0, o[a]), _vids(0, o[b])
    zone = pd.DataFrame(
        {"src": np.minimum(u, v), "dst": np.maximum(u, v), "w": 1, "etype": "zone"}
    )
    out = pd.concat(weighted + [zone], ignore_index=True)
    return pa.table(
        {
            "src": out["src"].astype(np.int64),
            "dst": out["dst"].astype(np.int64),
            "etype": out["etype"].astype(str),
            "w": out["w"].astype(np.int64),
        }
    )


def write(table: pa.Table, out_dir: str, n_files: int = 4) -> str:
    _write_parts(table, out_dir, n_files)
    return checksum(table)
