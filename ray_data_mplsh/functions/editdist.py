"""Vectorized byte-level Levenshtein distance for PAIR BATCHES.

The classic DP has a horizontal dependency (D[i][j-1] + 1) that blocks
per-row vectorization. It has a closed form: with

    c[0] = i,  c[j] = min(D[i-1][j-1] + cost_j, D[i-1][j] + 1)   (j >= 1)

every horizontal chain contributes +1 per step, so

    D[i][j] = min_{l <= j} (c[l] + (j - l)) = (cummin of (c - j))[j] + j

— one cumulative minimum per row. The kernel therefore runs ONE python
loop over rows (max short-side length) with every step vectorized over
(pairs x columns); there is no per-pair python work.

With ``max_dist`` set, pairs are EARLY-ABANDONED: min_j D[i][j] is a
valid lower bound on the final distance (every edit path crosses row i
and D is non-decreasing along paths), so once it exceeds ``max_dist``
the pair's true distance can't come back under and it is dropped from
the working set (result = max_dist + 1 sentinel). Random non-dup pairs
cross the bound within a few dozen rows, which is where the speedup
comes from; true near-dups run the full DP and stay exact.

Byte-level == character-level for ASCII text (Arrow strings are UTF-8;
a multi-byte codepoint counts one edit per byte — documented caveat,
and the fixture corpora are pure ASCII).
"""

from __future__ import annotations

import numpy as np

_PRUNE_EVERY = 16


def levenshtein_pairs(offs: np.ndarray, data: np.ndarray,
                      ai: np.ndarray, bi: np.ndarray,
                      chunk: int = 2048,
                      max_dist: int | None = None) -> np.ndarray:
    """Distances for pairs (ai[p], bi[p]) over packed utf-8 strings
    (``offs`` int64 len n+1 / ``data`` uint8 — the `utf8_flat` layout).
    Chunked so the working set stays ~chunk x max_len int32. With
    ``max_dist``, results above it are reported as ``max_dist + 1``."""
    ai = np.asarray(ai, np.int64)
    bi = np.asarray(bi, np.int64)
    out = np.empty(len(ai), np.int64)
    for s in range(0, len(ai), chunk):
        e = min(s + chunk, len(ai))
        out[s:e] = _chunk(offs, data, ai[s:e], bi[s:e], max_dist)
    return out


def _chunk(offs: np.ndarray, data: np.ndarray, ai: np.ndarray,
           bi: np.ndarray, max_dist: int | None) -> np.ndarray:
    lens = np.diff(offs)
    P = len(ai)
    if P == 0:
        return np.empty(0, np.int64)
    # loop over the SHORTER side of each pair (the metric is symmetric)
    sw = lens[ai] > lens[bi]
    ai, bi = np.where(sw, bi, ai), np.where(sw, ai, bi)
    la = lens[ai].astype(np.int64)
    lb = lens[bi].astype(np.int64)
    res = np.empty(P, np.int64)
    skip = la == 0            # empty short side: dist = lb, no DP rows
    res[skip] = lb[skip]
    if max_dist is not None:
        # dist >= |la - lb|: these pairs never need the DP
        far = lb - la > max_dist
        res[far] = max_dist + 1
        skip = skip | far
    live0 = np.flatnonzero(~skip)
    if len(live0) == 0:
        return res
    Lb = int(lb[live0].max())
    hi = max(len(data) - 1, 0)
    # working set, compacted as pairs finish or get pruned
    live = live0
    la_w, lb_w = la[live], lb[live]
    idx = offs[bi[live]][:, None] + np.arange(Lb, dtype=np.int64)[None, :]
    np.clip(idx, 0, hi, out=idx)
    Bm = data[idx]                  # [n, Lb]; cols >= lb are garbage, only
    ar = np.arange(Lb + 1, dtype=np.int32)  # ever read through col lb
    prev = np.tile(ar, (len(live), 1))
    apos = offs[ai[live]]
    i = 0
    while len(live):
        i += 1
        ca = data[np.clip(apos + (i - 1), 0, hi)]
        c = np.empty_like(prev)
        c[:, 0] = i
        np.minimum(prev[:, :-1] + (Bm != ca[:, None]),
                   prev[:, 1:] + 1, out=c[:, 1:])
        c -= ar
        np.minimum.accumulate(c, axis=1, out=c)
        c += ar
        prev = c
        done = la_w == i
        if done.any():
            res[live[done]] = prev[done, lb_w[done]]
        drop = done
        if max_dist is not None and i % _PRUNE_EVERY == 0:
            # row min is a lower bound on the final distance (garbage
            # cols only ever LOWER the min -> pruning stays sound)
            dead = ~done & (prev.min(axis=1) > max_dist)
            if dead.any():
                res[live[dead]] = max_dist + 1
                drop = done | dead
        if drop.any():
            keep = ~drop
            live, la_w, lb_w = live[keep], la_w[keep], lb_w[keep]
            prev, Bm, apos = prev[keep], Bm[keep], apos[keep]
    return res
