"""Deterministic vectorized 64-bit ids and partition assignment (SURVEY.md T3).

GraphFrames' ConnectedComponents internally re-indexes vertex ids to longs;
we instead derive int64 vids directly as a keyed hash of the natural key
``"{kind}:{key}"`` so the mapping is stateless, reproducible across runs
(checkpoint/resume bit-identity requires it) and shuffle-free.

Hash choice: pandas' SipHash-1-3 (``pd.util.hash_array`` with the fixed
default key) — C-vectorized over object arrays, stable across processes.
Collision risk is the 64-bit birthday bound; ``collision_audit`` (one
groupby pass) guards small/medium scales, and SURVEY.md §7.4 records the
dictionary-mapping fallback for extreme scales.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_SIGN_MASK = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def hash_text64(values) -> np.ndarray:
    """Vectorized deterministic 64-bit hash of a string array → uint64."""
    arr = pd.array(values) if not isinstance(values, (pd.Series, pd.arrays.StringArray)) else values
    ser = pd.Series(arr, copy=False).astype(object)
    return pd.util.hash_array(ser.to_numpy(), categorize=False)


def vid_for(kind: str, keys) -> np.ndarray:
    """int64 vertex ids for natural keys of one kind.

    Non-negative (sign bit cleared) so ids survive round-trips through
    SQL engines and partition math without sign surprises.
    """
    ser = pd.Series(keys).astype(str)
    full = (kind + ":") + ser
    h = pd.util.hash_array(full.to_numpy(dtype=object), categorize=False)
    return (h & _SIGN_MASK).astype(np.int64)


def mix64(vals) -> np.ndarray:
    """splitmix64 finalizer — vectorized uint64 avalanche mix. The uint64
    multiplies wrap around BY DESIGN; errstate silences the (harmless but
    log-flooding) RuntimeWarning numpy raises for scalar inputs."""
    with np.errstate(over="ignore"):
        x = np.asarray(vals).astype(np.uint64)
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
        return x


def hll_alpha(m: int) -> float:
    """Bias-correction constant of the published HLL estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_registers(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rho) per value: register = top p bits, rho = 1 +
    leading zeros of the remaining 64−p bits (capped at 64−p+1)."""
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail with 1s
    # leading zeros of `rest` via float64 exponent is unsafe past 2^53 —
    # use a bit-length loop over the 64-bit lanes (6 vectorized steps)
    lz = np.zeros(len(h), np.uint64)
    x = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += np.uint64(shift)
        x[mask] = x[mask] << np.uint64(shift)
    rho = lz.astype(np.int64) + 1
    np.minimum(rho, 64 - p + 1, out=rho)
    return reg, rho


_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def fnv1a64_words(words: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a-64 over the CODEPOINTS of each string → uint64.

    Chosen for the dedup shingle/SimHash word hash because it is exactly
    reproducible in ANSI SQL (`ord(substr(w,i,1))` + HUGEINT mulmod 2⁶⁴),
    so the DuckDB correctness oracles can recompute signatures
    bit-identically. Codepoints (not UTF-8 bytes) because SQL `ord` is
    codepoint-based; equal strings hash equal either way.

    Vectorization: one fixed-width UCS4 matrix over the whole batch, then
    a loop over CHAR POSITIONS (bounded by the longest word) — each step a
    masked uint64 xor+multiply over all words at once; no per-word Python.
    """
    n = len(words)
    if n == 0:
        return np.empty(0, np.uint64)
    u = np.asarray(words, dtype="U")  # common-width UCS4, zero-padded
    width = u.dtype.itemsize // 4
    h = np.full(n, _FNV_OFFSET, np.uint64)
    if width == 0:
        return h
    mat = u.view(np.uint32).reshape(n, width)
    for j in range(width):
        c = mat[:, j].astype(np.uint64)
        live = c != 0  # past end of shorter words: no-op
        if not live.any():
            break
        h[live] = (h[live] ^ c[live]) * _FNV_PRIME
    return h


def part_of(vids, num_parts: int) -> np.ndarray:
    """Partition id for each vid: splitmix64 finalizer then mod P.

    vids may already be hashes (transcript graphs) or small natural ints
    (testdata graphs); the finalizer makes both spread evenly.
    """
    return (mix64(vids) % np.uint64(num_parts)).astype(np.int32)


def collision_audit(vids: np.ndarray, keys) -> None:
    """Assert the vid mapping is injective over this key set (SURVEY.md T3)."""
    df = pd.DataFrame({"vid": vids, "key": pd.Series(keys).astype(str)})
    n_keys = df.groupby("vid", sort=False)["key"].nunique()
    bad = n_keys[n_keys > 1]
    if len(bad):
        raise RuntimeError(f"vid hash collision for vids {bad.index.tolist()[:5]}")
