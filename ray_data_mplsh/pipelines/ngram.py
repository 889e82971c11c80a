"""Exact n-gram (k-word-shingle) Jaccard — the dedup-family member that
verifies candidate pairs against TRUE shingle sets instead of the MinHash
signature estimate (SURVEY.md §2.4 op 18 exact variant).

The sets attach to pairs through ``shuffle.pair_apply`` — the operator
behind S6 verify — gated on ``cfg.broadcast_max_docs`` like every other
small-side lookup in this engine: at or under it the per-doc shingle sets
are broadcast once; above it the variable-length sets ride the pair-keyed
two-hop exchange with no driver materialization and no size cap.

Both plans share one vectorized Jaccard kernel: per batch of pairs, the
two sides' elements are tagged with their pair index and lexsorted once;
adjacent duplicates within a pair count the intersection (sets are unique
per doc), so there is NO per-pair Python loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.extract import word_hashes
from ray_data_mplsh.functions.hashing import (
    hash_str_array, rolling_shingle_hashes,
)

PAIR_JACCARD_SCHEMA = pa.schema([
    ("a", pa.uint64()), ("b", pa.uint64()), ("jaccard", pa.float64())])


def shingle_sets_batch(batch: pa.Table, k: int) -> list[np.ndarray]:
    """Sorted unique shingle-hash array per doc in the batch."""
    wh, offs = word_hashes(batch["text"], hash_str_array)
    sh, soffs = rolling_shingle_hashes(wh, offs, k)
    return [np.unique(sh[soffs[i]:soffs[i + 1]])
            for i in range(len(soffs) - 1)]


def pair_intersect_kernel(vals_a: np.ndarray, lens_a: np.ndarray,
                          vals_b: np.ndarray, lens_b: np.ndarray
                          ) -> np.ndarray:
    """Exact intersection SIZE for n pairs of UNIQUE-element sets, no
    Python loop: tag every element with its pair index, lexsort
    (pair, value) once, count adjacent equal (pair, value) rows — each is
    one intersection element (uniqueness within a side makes runs length
    <= 2)."""
    n = len(lens_a)
    if n == 0:
        return np.empty(0, np.int64)
    tag = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), lens_a),
                          np.repeat(np.arange(n, dtype=np.int64), lens_b)])
    v = np.concatenate([vals_a, vals_b])
    o = np.lexsort((v, tag))
    st, sv = tag[o], v[o]
    if len(st) == 0:
        return np.zeros(n, np.int64)
    dup = (st[1:] == st[:-1]) & (sv[1:] == sv[:-1])
    return np.bincount(st[1:][dup], minlength=n)


def pair_jaccard_kernel(vals_a: np.ndarray, lens_a: np.ndarray,
                        vals_b: np.ndarray, lens_b: np.ndarray
                        ) -> np.ndarray:
    """Exact Jaccard for n pairs of UNIQUE-element sets (see
    pair_intersect_kernel for the one-lexsort mechanics)."""
    if len(lens_a) == 0:
        return np.empty(0, np.float64)
    inter = pair_intersect_kernel(vals_a, lens_a, vals_b, lens_b)
    union = lens_a + lens_b - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def _sets_stage(docs, cfg: MPLSHConfig):
    """docs (doc_id, text) -> Dataset (doc_id, shingles list<uint64>)."""

    def to_sets(batch: pa.Table) -> pa.Table:
        sets = shingle_sets_batch(batch, cfg.k_shingle)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        flat = (np.concatenate(sets) if sets
                else np.empty(0, np.uint64)).astype(np.uint64)
        offs = np.zeros(len(sets) + 1, np.int64)
        if sets:
            np.cumsum([len(s) for s in sets], out=offs[1:])
        return pa.table({
            "doc_id": pa.array(ids, pa.uint64()),
            "shingles": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()).cast(pa.int32()),
                pa.array(flat, pa.uint64())),
        })

    return docs.select_columns(["doc_id", "text"]) \
        .map_batches(to_sets, batch_format="pyarrow")


def _list_parts(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a list<uint64> column as numpy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.zeros(1, np.int64), np.empty(0, np.uint64)
    return (col.offsets.to_numpy(zero_copy_only=False).astype(np.int64),
            col.values.to_numpy(zero_copy_only=False).astype(np.uint64))


def _sets_kernel_args(sets_a, sets_b) -> tuple:
    """(vals_a, lens_a, vals_b, lens_b) of two list<uint64> arrays — the
    argument layout of pair_jaccard_kernel / pair_intersect_kernel."""
    return tuple(f(s).to_numpy(zero_copy_only=False)
                 for s in (sets_a, sets_b)
                 for f in (pc.list_flatten, pc.list_value_length))


def _jaccard_kernel(min_jaccard: float):
    """pair_apply kernel over (a, b, sets_a, sets_b): exact set Jaccard,
    pairs below ``min_jaccard`` dropped."""

    def kernel(a, b, sets_a, sets_b) -> pa.Table:
        jac = pair_jaccard_kernel(*_sets_kernel_args(sets_a, sets_b))
        keep = jac >= min_jaccard
        return pa.Table.from_arrays([
            pa.array(a[keep], pa.uint64()),
            pa.array(b[keep], pa.uint64()),
            pa.array(jac[keep], pa.float64()),
        ], schema=PAIR_JACCARD_SCHEMA)

    return kernel


def exact_jaccard_pairs(pairs, docs, cfg: MPLSHConfig, *,
                        min_jaccard: float = 0.0, num_partitions: int = 0,
                        sets_tbl=None):
    """(a, b) candidate pairs (each at most once) + docs (doc_id, text) ->
    (a, b, jaccard) with the exact shingle-set Jaccard, keeping pairs
    >= min_jaccard. No doc cap: above ``cfg.broadcast_max_docs`` the sets
    ride the pair-keyed exchange instead of a broadcast. A caller that
    already materialized the per-doc sets (ppjoin's df/prefix phase)
    passes them via ``sets_tbl`` to skip the second shingle pass over
    the corpus."""
    from ray_data_mplsh.stages.shuffle import default_partitions, pair_apply

    if sets_tbl is None:
        sets_tbl = _sets_stage(docs, cfg).materialize()
    # Small broadcast batches on purpose: the pair-Jaccard kernel is
    # O(E log E) in flattened set elements, so one coalesced mega-batch
    # serializes the stage into a single task; 8k pairs x ~100 shingles
    # keeps each task ~1M elements and lets the pool run wide.
    return pair_apply(pairs, sets_tbl, "shingles",
                      _jaccard_kernel(min_jaccard),
                      default_partitions(num_partitions),
                      payload_type=pa.list_(pa.uint64()),
                      broadcast=sets_tbl.count() <= cfg.broadcast_max_docs,
                      batch_size=8192)
