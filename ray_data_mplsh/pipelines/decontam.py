"""Benchmark decontamination: drop/flag training documents that contain
any snippet from an evaluation set — the standard pretraining hygiene
pass (capability contract per SURVEY.md §0; no reference source exists
to cite).

Scale shape: the snippet set is small (benchmarks are ~10^4-10^6 short
strings) and the corpus is huge, so the snippet index is broadcast ONCE
(``ray.put``) and every batch runs a vectorized rolling-hash scan over
the zero-copy concatenated Arrow string buffer — O(bytes) per batch per
distinct snippet length, no shuffle, no per-row Python. Candidate hash
hits (rare) are confirmed byte-exact, so the result has NO false
positives and matches SQL ``contains`` semantics bit-exactly
(q_decontaminate oracle). UTF-8 note: snippets start on character
boundaries, and a byte-level match of a valid UTF-8 needle can only
occur at a character boundary, so byte containment == SQL character
containment."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.functions.hashing import (
    mix64, poly_window_hashes, utf8_flat,
)
from ray_data_mplsh.stages.shuffle import cached_get


def _snippet_index(snippets: list[str]):
    """Group snippet bytes by length; per length, a sorted uint64 hash
    array + parallel byte arrays for exact confirmation."""
    by_len: dict[int, list[np.ndarray]] = {}
    for s in snippets:
        b = np.frombuffer(s.encode(), dtype=np.uint8)
        if len(b):
            by_len.setdefault(len(b), []).append(b)
    out = {}
    for length, blist in by_len.items():
        hs = np.array([mix64(poly_window_hashes(
            b.astype(np.uint64), length))[0] for b in blist], np.uint64)
        order = np.argsort(hs)
        out[length] = (hs[order], [blist[i] for i in order])
    return out


def contains_any(ds, snippets: list[str], *, text_col: str = "text",
                 id_col: str = "doc_id", invert: bool = False):
    """Rows of ``ds`` (projected to ``id_col``) whose text contains at
    least one snippet (``invert=True`` keeps the CLEAN rows instead —
    the actual decontamination filter)."""
    import ray

    ref = ray.put(_snippet_index(snippets))

    def scan(t: pa.Table) -> pa.Table:
        index = cached_get(ref)
        offs, data = utf8_flat(t[text_col])
        n = t.num_rows
        hit_doc = np.zeros(n, dtype=bool)
        u = data.astype(np.uint64)
        for length, (hs, blist) in index.items():
            if len(data) < length:
                continue
            g = mix64(poly_window_hashes(u, length))
            starts = np.arange(len(g), dtype=np.int64)
            doc = np.searchsorted(offs, starts, side="right") - 1
            valid = starts + length <= offs[doc + 1]
            i = np.clip(np.searchsorted(hs, g), 0, len(hs) - 1)
            cand = valid & (hs[i] == g)
            for p in np.flatnonzero(cand):
                d = doc[p]
                if hit_doc[d]:
                    continue
                # walk the FULL run of snippets sharing this 64-bit hash
                # (searchsorted is leftmost): two distinct same-length
                # snippets colliding on the hash must each be byte-checked,
                # or a real containment could be silently missed
                j = i[p]
                while j < len(hs) and hs[j] == g[p]:
                    if np.array_equal(data[p:p + length], blist[j]):
                        hit_doc[d] = True
                        break
                    j += 1
        keep = ~hit_doc if invert else hit_doc
        return t.select([id_col]).filter(pa.array(keep))

    return ds.map_batches(scan, batch_format="pyarrow")
