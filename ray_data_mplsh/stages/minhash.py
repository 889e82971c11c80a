"""S3: shingle + MinHash signatures (SURVEY.md ops 10-12).

``MinHasher`` is a callable CLASS: the K permutation parameters are built
in ``__init__`` from the seeded PCG64 (never shipped per batch), once per
worker process — ``minhash_stage`` runs plain tasks that memoize one
MinHasher per process; ``__call__`` is a fully vectorized NumPy kernel —
tokenize the whole batch with pandas C string ops, hash words in one
SipHash pass, Horner-roll k-shingles, broadcast-minimize over the K
permutations (BASELINE.json:6 "vectorized NumPy kernel", on tasks rather
than the actor pools it names).

Signatures are ``fixed_size_list<uint64, K>`` so downstream stages view
them zero-copy as an (n, K) NumPy matrix (SURVEY.md §1.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.extract import tokenize_batch
from ray_data_mplsh.functions.hashing import (
    hash_str_array, make_perm_params, minhash_signatures, poly_str_hashes,
    rolling_shingle_hashes,
)
from ray_data_mplsh.stages.shuffle import task_local


def sig_matrix(batch: pa.Table, col: str = "sig") -> np.ndarray:
    """Zero-copy (n, K) uint64 view of a fixed_size_list signature column."""
    arr = batch[col]
    K = arr.type.list_size
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 0:
            return np.empty((0, K), np.uint64)
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty((0, K), np.uint64)
    flat = arr.values.to_numpy(zero_copy_only=True)
    return flat.reshape(-1, K)


class MinHasher:
    def __init__(self, cfg: MPLSHConfig):
        self.cfg = cfg
        self.a, self.b = make_perm_params(cfg.num_perm, cfg.seed)
        # "sip" (default) is the fastest C kernel; "poly" is the
        # SQL-replayable Horner+SplitMix64 family (identical signature
        # semantics, lets a DuckDB oracle recompute signatures bit-exactly
        # — see q_minhash_sigs).
        self._word_hash = (poly_str_hashes if cfg.word_hash == "poly"
                           else hash_str_array)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        words, offs = tokenize_batch(batch["text"])
        wh = (self._word_hash(words) if len(words)
              else np.empty(0, np.uint64))
        sh, soffs = rolling_shingle_hashes(wh, offs, cfg.k_shingle)
        sig = minhash_signatures(sh, soffs, self.a, self.b)
        n_sh = np.diff(soffs)
        keep = n_sh > 0  # too short to shingle -> drop (op 7)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)[keep]
        flat = sig[keep].reshape(-1)
        sig_arr = pa.FixedSizeListArray.from_arrays(
            pa.array(flat, pa.uint64()), cfg.num_perm)
        return pa.Table.from_arrays([
            pa.array(ids, pa.uint64()),
            sig_arr,
            pa.array(n_sh[keep], pa.int64()),
        ], names=["doc_id", "sig", "n_shingles"])


def minhash_stage(reps, cfg: MPLSHConfig):
    """reps (doc_id, text, ...) -> sigs (doc_id, sig, n_shingles).

    Plain TASKS with the MinHasher memoized per worker process
    (``shuffle.task_local``) —
    the (a, b) param setup is microseconds, so warm task workers beat a
    fresh actor pool by its spin-up cost (measured ~40% of stage wall on
    a 150k-doc corpus)."""
    cols = reps.select_columns(["doc_id", "text"])
    key = ("minhash", cfg.digest())

    def fn(batch: pa.Table) -> pa.Table:
        return task_local(key, lambda: MinHasher(cfg))(batch)

    return cols.map_batches(fn, batch_format="pyarrow",
                            batch_size=cfg.minhash_batch_size)
