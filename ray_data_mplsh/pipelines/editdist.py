"""Blocked all-pairs edit-distance near-dup detection.

The third near-dup signal family next to shingle-Jaccard and embedding
cosine: byte-level Levenshtein over SHORT documents, with deterministic
blocking so the pair set is SQL-replayable. Blocking key is
``(lang, n_chars // bucket)`` restricted to ``n_chars <= max_len``; pairs
straddling a bucket boundary are never compared — a documented recall
tradeoff replicated EXACTLY in the DuckDB oracle, so the result is
bit-exact, not approximate.

Scale plan (SURVEY Appendix B): one block-keyed partition exchange ships
only the short-doc subset (id, lang, n_chars, text). Within a partition
blocks are re-grouped by EXACT (lang, bucket) values — the uint64 block
hash only co-locates (repo rule; see stages/pairs.py). Block size is
bounded by the corpus's short-doc density per (lang, len-bucket); hot
blocks can reuse the bucket_cap/star treatment of the minhash pair stage
if a real corpus needs it. The O(len^2) DP cost is capped by
``max_len`` and fully vectorized across pairs (functions/editdist.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray_data_mplsh.functions.editdist import levenshtein_pairs
from ray_data_mplsh.functions.hashing import hash_str_array, utf8_flat
from ray_data_mplsh.stages.shuffle import default_partitions, partition_apply

_MIX = np.uint64(0x9E3779B97F4A7C15)


def edit_distance_pairs(ds, *, max_len: int = 250, bucket: int = 64,
                        max_dist: int = 60, num_partitions: int | None = None):
    """All (a_id < b_id, dist) pairs with byte-Levenshtein <= ``max_dist``
    among docs with ``n_chars <= max_len``, compared only within the same
    ``(lang, n_chars // bucket)`` block."""
    P = num_partitions or default_partitions()

    def keyed(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["n_chars"], max_len))
        nc = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        bid = (nc // bucket).astype(np.uint64)
        bk = hash_str_array(t["lang"]) ^ ((bid + np.uint64(1)) * _MIX)
        return t.append_column("block_h", pa.array(bk, pa.uint64()))

    cand_schema = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64()),
                             ("text_a", pa.string()),
                             ("text_b", pa.string())])

    def per_part(part: pa.Table) -> pa.Table:
        empty = cand_schema.empty_table()
        if part.num_rows < 2:
            return empty
        did = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nc = part["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        lang = np.asarray(part["lang"].to_pylist(), dtype=object)
        offs, data = utf8_flat(part["text"])
        # exact block regrouping: the hash key only co-located rows
        _, linv = np.unique(lang, return_inverse=True)
        comp = linv.astype(np.int64) * np.int64(1 << 32) + nc // bucket
        order = np.lexsort((did, comp))
        co = comp[order]
        starts = np.flatnonzero(np.concatenate(([True], co[1:] != co[:-1])))
        ends = np.append(starts[1:], len(co))
        ai_l, bi_l = [], []
        for s, e in zip(starts, ends):     # loop over BLOCKS, not rows
            n = e - s
            if n < 2:
                continue
            ii, jj = np.triu_indices(n, 1)
            ai_l.append(order[s + ii])
            bi_l.append(order[s + jj])
        if not ai_l:
            return empty
        ai = np.concatenate(ai_l)
        bi = np.concatenate(bi_l)
        # rows are doc_id-sorted within each block, so did[ai] < did[bi]
        blen = np.diff(offs)
        keep = np.abs(blen[ai] - blen[bi]) <= max_dist  # dist >= |la-lb|
        ai, bi = ai[keep], bi[keep]
        if len(ai) == 0:
            return empty
        text = part["text"].combine_chunks()
        return pa.table({"a_id": pa.array(did[ai], pa.int64()),
                         "b_id": pa.array(did[bi], pa.int64()),
                         "text_a": text.take(pa.array(ai)),
                         "text_b": text.take(pa.array(bi))})

    def score(t: pa.Table) -> pa.Table:
        n = t.num_rows
        offs_a, data_a = utf8_flat(t["text_a"])
        offs_b, data_b = utf8_flat(t["text_b"])
        offs = np.concatenate((offs_a, offs_a[-1] + offs_b[1:]))
        data = np.concatenate((data_a, data_b))
        d = levenshtein_pairs(offs, data, np.arange(n, dtype=np.int64),
                              n + np.arange(n, dtype=np.int64),
                              max_dist=max_dist)
        m = d <= max_dist
        out = t.select(["a_id", "b_id"]).filter(pa.array(m))
        return out.append_column("dist", pa.array(d[m], pa.int64()))

    # pair GENERATION needs block co-location (one exchange), but pair
    # SCORING is embarrassingly parallel and O(len^2)-heavy, so candidates
    # are rebalanced across the pool and scored in small batches — block
    # skew (one hot lang x len-bucket) would otherwise serialize the DP
    # on a handful of tasks (measured 3x wall at bench scale).
    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    cands = partition_apply(keyed_ds, "block_h", per_part, P)
    return cands.repartition(P).map_batches(score, batch_format="pyarrow",
                                            batch_size=2048)
