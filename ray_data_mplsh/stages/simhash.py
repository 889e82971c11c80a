"""Optional SimHash mode (SURVEY.md op 13c; [Charikar02]; north_rule lists
"MinHash/SimHash").

64-bit SimHash over shingle hashes; banding = four 16-bit blocks (any pair
at Hamming distance <= 3 shares an exact block); multi-probe = flip the
lowest-|margin| bits, ordered by the score-ordered perturbation sequencer
(functions/perturb.py) — here, unlike the MinHash mode, per-bit margins
give NON-degenerate scores, so this is the faithful continuous-space
realization of [MPLSH §4.3]'s query-directed probing.

The stage shapes mirror the MinHash mode, on the same operators: a
plain-task map_batches for signatures + margins, materialized once and
counted; a stateless block/probe key emitter as the ``prep`` of
``pairs.bucket_pairs`` (S5's bucket pairing); and the Hamming check as a
``shuffle.pair_apply`` kernel (S6's verify step), which attaches each
end's 64-bit signature by broadcast or by the doc-keyed exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.extract import word_hashes
from ray_data_mplsh.functions.hashing import mix64, poly_str_hashes, \
    rolling_shingle_hashes
from ray_data_mplsh.stages.bands import BAND_SCHEMA
from ray_data_mplsh.stages.docs import DOCS_BATCH_ROWS
from ray_data_mplsh.stages.pairs import bucket_pairs
from ray_data_mplsh.stages.shuffle import pair_apply, task_local

N_BLOCKS = 4
BLOCK_BITS = 16

SIG_SCHEMA = pa.schema([("doc_id", pa.uint64()), ("simhash", pa.uint64()),
                        ("margins", pa.list_(pa.int64(), 64))])


def simhash_with_margins(shingles: np.ndarray, offsets: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(sig uint64 per doc, margins (ndocs, 64) int64).

    margin[b] = |#shingles with bit b set - #without| — how far bit b is
    from flipping; the multi-probe score of flipping it.
    """
    ndocs = len(offsets) - 1
    sig = np.zeros(ndocs, dtype=np.uint64)
    margins = np.zeros((ndocs, 64), dtype=np.int64)
    if len(shingles) == 0:
        return sig, margins
    bits = np.unpackbits(shingles.view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little").astype(np.int64)
    counts = np.diff(offsets)
    nonempty = counts > 0
    starts = offsets[:-1][nonempty]
    ones = np.add.reduceat(bits, starts, axis=0)  # (n_nonempty, 64)
    tot = counts[nonempty][:, None]
    votes = 2 * ones - tot
    bitvals = (votes > 0).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    sig[nonempty] = (bitvals * weights[None, :]).sum(axis=1, dtype=np.uint64)
    margins[nonempty] = np.abs(votes)
    return sig, margins


class SimHasher:
    """Signing stage: doc -> (sig, per-bit margins). Run as plain tasks,
    one instance memoized per worker process (``shuffle.task_local``)."""

    def __init__(self, cfg: MPLSHConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        # poly_str_hashes (not SipHash): SimHash's output bits ARE the
        # hash bits, so the word hash must be SQL-replayable for the
        # q_simhash_pairs oracle to recompute the signatures
        wh, offs = word_hashes(batch["text"], poly_str_hashes)
        sh, soffs = rolling_shingle_hashes(wh, offs, self.cfg.k_shingle)
        sig, margins = simhash_with_margins(sh, soffs)
        keep = np.diff(soffs) > 0
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        m_arr = pa.FixedSizeListArray.from_arrays(
            pa.array(margins[keep].reshape(-1), pa.int64()), 64)
        return pa.Table.from_arrays([
            pa.array(ids[keep], pa.uint64()),
            pa.array(sig[keep], pa.uint64()),
            m_arr,
        ], schema=SIG_SCHEMA)


def _block_of(sig: np.ndarray, blk: int) -> np.ndarray:
    return (sig >> np.uint64(blk * BLOCK_BITS)) & np.uint64(0xFFFF)


def make_simhash_band_emitter(cfg: MPLSHConfig):
    """(doc_id, simhash, margins) -> (doc_id, band_hash) rows: the exact
    block keys + multi-probe keys from score-ordered bit flips. The block
    (and the flipped block) is folded into the key, so keys only collide
    within one block."""
    T = cfg.probes

    def emit(batch: pa.Table) -> pa.Table:
        sig = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        marg = batch["margins"].combine_chunks()
        mm = marg.values.to_numpy(zero_copy_only=False).reshape(-1, 64) \
            if len(marg) else np.empty((0, 64), np.int64)
        out_id, out_hash = [], []
        n = len(sig)
        # exact keys, vectorized
        for blk in range(N_BLOCKS):
            key = mix64(_block_of(sig, blk) + np.uint64(blk << 32))
            out_id.append(ids)
            out_hash.append(key)
        # probe keys: per doc, flip the T cheapest single bits (score-ordered
        # perturbation sets restricted to singletons = bits by margin)
        if T > 0 and n:
            cheap = np.argsort(mm, axis=1, kind="stable")[:, :T]  # (n, T)
            for t in range(T):
                bit = cheap[:, t].astype(np.uint64)
                flipped = sig ^ (np.uint64(1) << bit)
                blk = (bit // np.uint64(BLOCK_BITS)).astype(np.uint64)
                key = mix64(((flipped >> (blk * np.uint64(BLOCK_BITS)))
                             & np.uint64(0xFFFF)) + (blk << np.uint64(32)))
                out_id.append(ids)
                out_hash.append(key)
        return pa.Table.from_arrays([
            pa.array(np.concatenate(out_id), pa.uint64()),
            pa.array(np.concatenate(out_hash), pa.uint64()),
        ], schema=BAND_SCHEMA)

    return emit


def _hamming_kernel(max_hamming: int):
    """pair_apply kernel over (a, b, simhash_a, simhash_b): the pairs at
    Hamming distance <= ``max_hamming``, with that distance."""
    def kernel(a, b, sig_a, sig_b) -> pa.Table:
        ham = _popcount64(sig_a.to_numpy(zero_copy_only=False) ^
                          sig_b.to_numpy(zero_copy_only=False))
        keep = ham <= max_hamming
        return pa.table({"a": pa.array(a[keep], pa.uint64()),
                         "b": pa.array(b[keep], pa.uint64()),
                         "hamming": pa.array(ham[keep], pa.int64())})
    return kernel


def simhash_pairs(docs, cfg: MPLSHConfig, num_partitions: int,
                  max_hamming: int = 3):
    """docs (doc_id, text) -> pairs (a, b, hamming) with hamming <= cap.

    Signatures are materialized once and counted; that count sizes both
    gates: ``bucket_pairs`` over the N_BLOCKS + probes keys per doc
    (``cfg.local_state_max_rows``), and the signature attach of the
    Hamming check (broadcast up to ``cfg.broadcast_max_docs``)."""
    key = ("simhash", cfg.digest())

    def sign(batch: pa.Table) -> pa.Table:
        return task_local(key, lambda: SimHasher(cfg))(batch)

    sigs = docs.select_columns(["doc_id", "text"]).map_batches(
        sign, batch_format="pyarrow", batch_size=DOCS_BATCH_ROWS) \
        .materialize()
    n = sigs.count()
    pairs = bucket_pairs(
        sigs, "band_hash", cfg.bucket_cap, num_partitions,
        n_rows=n * (N_BLOCKS + cfg.probes),
        local_max_rows=cfg.local_state_max_rows, schema=SIG_SCHEMA,
        prep=make_simhash_band_emitter(cfg))
    return pair_apply(pairs, sigs, "simhash", _hamming_kernel(max_hamming),
                      num_partitions, payload_type=pa.uint64(),
                      broadcast=n <= cfg.broadcast_max_docs,
                      batch_size=65536)


def _popcount64(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
