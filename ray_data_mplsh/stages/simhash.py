"""Optional SimHash mode (SURVEY.md op 13c; [Charikar02]; north_rule lists
"MinHash/SimHash").

64-bit SimHash over shingle hashes; banding = four 16-bit blocks (any pair
at Hamming distance <= 3 shares an exact block); multi-probe = flip the
lowest-|margin| bits, ordered by the score-ordered perturbation sequencer
(functions/perturb.py) — here, unlike the MinHash mode, per-bit margins
give NON-degenerate scores, so this is the faithful continuous-space
realization of [MPLSH §4.3]'s query-directed probing.

The stage shapes mirror the MinHash mode: a plain-task map_batches for
signatures + margins, a stateless band/probe emitter, the same
coarse-partitioned pair shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.extract import word_hashes
from ray_data_mplsh.functions.hashing import mix64, poly_str_hashes, \
    rolling_shingle_hashes
from ray_data_mplsh.functions.perturb import perturbation_sets
from ray_data_mplsh.stages.pairs import dedup_pairs
from ray_data_mplsh.stages.shuffle import (
    group_runs, partition_apply, task_local,
)

N_BLOCKS = 4
BLOCK_BITS = 16


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
        ], names=["doc_id", "simhash", "margins"])


def _block_of(sig: np.ndarray, blk: int) -> np.ndarray:
    return (sig >> np.uint64(blk * BLOCK_BITS)) & np.uint64(0xFFFF)


def make_simhash_band_emitter(cfg: MPLSHConfig):
    """Exact block keys + multi-probe keys from score-ordered bit flips."""
    T = cfg.probes

    def emit(batch: pa.Table) -> pa.Table:
        sig = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        marg = batch["margins"].combine_chunks()
        mm = marg.values.to_numpy(zero_copy_only=False).reshape(-1, 64) \
            if len(marg) else np.empty((0, 64), np.int64)
        out_id, out_band, out_hash, out_rank = [], [], [], []
        n = len(sig)
        # exact keys, vectorized
        for blk in range(N_BLOCKS):
            key = mix64(_block_of(sig, blk) + np.uint64(blk << 32))
            out_id.append(ids)
            out_band.append(np.full(n, blk, np.int32))
            out_hash.append(key)
            out_rank.append(np.zeros(n, np.int8))
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
                out_band.append(blk.astype(np.int32))
                out_hash.append(key)
                out_rank.append(np.full(n, t + 1, np.int8))
        return pa.Table.from_arrays([
            pa.array(np.concatenate(out_id), pa.uint64()),
            pa.array(np.concatenate(out_band), pa.int32()),
            pa.array(np.concatenate(out_hash), pa.uint64()),
            pa.array(np.concatenate(out_rank), pa.int8()),
        ], names=["doc_id", "band_id", "band_hash", "probe_rank"])

    return emit


def simhash_pairs(docs, cfg: MPLSHConfig, num_partitions: int,
                  max_hamming: int = 3):
    """docs (doc_id, text) -> pairs (a, b, hamming) with hamming <= cap.

    Verification ships the 64-bit sigs through the same pair shuffle (they
    ride along as columns — no join needed at 8 bytes per side).
    """
    key = ("simhash", cfg.digest())

    def sign(batch: pa.Table) -> pa.Table:
        return task_local(key, lambda: SimHasher(cfg))(batch)

    sigs = docs.select_columns(["doc_id", "text"]).map_batches(
        sign, batch_format="pyarrow", batch_size=cfg.minhash_batch_size)

    def attach_pairs(part: pa.Table) -> pa.Table:
        bh = part["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        sg = part["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order, starts = group_runs(bh)
        sid, ssg = ids[order], sg[order]
        out_a, out_b, out_ha, out_hb = [], [], [], []
        sizes = np.diff(starts)
        for ri in np.flatnonzero(sizes >= 2):
            s, e = starts[ri], starts[ri + 1]
            run_ids, run_sigs = sid[s:e], ssg[s:e]
            o = np.argsort(run_ids, kind="stable")
            run_ids, run_sigs = run_ids[o], run_sigs[o]
            keep = np.concatenate(([True], run_ids[1:] != run_ids[:-1]))
            run_ids, run_sigs = run_ids[keep], run_sigs[keep]
            g = len(run_ids)
            if g < 2:
                continue
            if g <= cfg.bucket_cap:
                i, j = np.triu_indices(g, k=1)
            else:
                i = np.zeros(g - 1, dtype=np.int64)
                j = np.arange(1, g)
            out_a.append(run_ids[i])
            out_b.append(run_ids[j])
            out_ha.append(run_sigs[i])
            out_hb.append(run_sigs[j])
        if not out_a:
            e = np.empty(0, np.uint64)
            return pa.table({"a": pa.array(e, pa.uint64()),
                             "b": pa.array(e, pa.uint64()),
                             "hamming": pa.array(np.empty(0, np.int64))})
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        ham = _popcount64(np.concatenate(out_ha) ^ np.concatenate(out_hb))
        keep = ham <= max_hamming
        return pa.table({"a": pa.array(a[keep], pa.uint64()),
                         "b": pa.array(b[keep], pa.uint64()),
                         "hamming": pa.array(ham[keep].astype(np.int64))})

    # bands re-emitted WITH the 8-byte simhash column riding along — no
    # join needed to verify Hamming distance inside the pair shuffle
    bands_with_sig = sigs.map_batches(
        _emit_with_sig(cfg), batch_format="pyarrow")
    pairs = partition_apply(bands_with_sig, "band_hash", attach_pairs,
                            num_partitions)
    return dedup_pairs(pairs, num_partitions)


def _emit_with_sig(cfg: MPLSHConfig):
    base = make_simhash_band_emitter(cfg)

    def emit(batch: pa.Table) -> pa.Table:
        t = base(batch)
        # rows per doc = N_BLOCKS * (1 + probes) in doc-major order? The base
        # emitter is band-major; rebuild the simhash column by doc lookup.
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        sig = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids, kind="stable")
        sids, ssig = ids[order], sig[order]
        tids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.searchsorted(sids, tids)
        return t.append_column("simhash", pa.array(ssig[pos], pa.uint64()))

    return emit


def _popcount64(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
