"""S8-S9: cluster assignment, canonical pick, suffix-array substring pass
(SURVEY.md ops 20-24).

Small-side lookups (component labels, canonical ids, span intervals) are
gathered with ``shuffle.gather_columns``, broadcast once via ``ray.put``
and resolved inside ``map_batches`` with ``np.searchsorted`` — they are
orders of magnitude smaller than the corpus (only docs participating in
dup clusters appear). Pair-text attachment for the substring pass is
``shuffle.pair_apply`` — the operator behind S6 — with a suffix-array
span kernel (``_pair_spans``).

Substring semantics ([Lee22 §3], span removal): any span >= substr_len
bytes that also occurs in an earlier (smaller doc_id) canonical doc is cut
from the later doc's ``final_text``; the doc is dropped (is_canonical
False) only when >90% of its bytes were duplicated spans or the remainder
is shorter than min_chars. Candidates come from winnowing fingerprints
(guarantee: any shared span >= winnow_k + winnow_w - 1 = substr_len shares
a fingerprint), paired per fp bucket by ``shuffle.local_or_exchange``
(``_fp_pairs``, shared with the incremental pass) as S5 pairs its bands.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import (
    utf8_flat, winnow_fingerprints_batch,
)
from ray_data_mplsh.functions.suffix import (
    cross_match_intervals, merge_intervals_grouped, remove_intervals,
)
from ray_data_mplsh.stages.pairs import _emit_pairs_fn, dedup_pairs
from ray_data_mplsh.stages.shuffle import (
    cached_get, gather_columns, gather_kv, group_runs, local_or_exchange,
    lookup_u64, pair_apply, sized_partitions,
)


def assign_and_mark(docs_with_rep, labels, cfg: MPLSHConfig):
    """Fused ops 19b+20: add ``cluster_id`` AND ``is_canonical`` in a SINGLE
    pass over the corpus.

    The per-cluster minimum doc_id is computed from the SLIM (doc_id,
    rep_id) projection only — per-batch partial minima (combiner pattern:
    pre-aggregate inside map_batches, SURVEY.md §4.3) merged driver-side —
    so the wide text columns move exactly once, in the final annotate pass.
    Partial-minima volume is bounded by the cluster count (itself bounded
    by the verified-pair doc count), the same small-side bound that gates
    every broadcast in this engine."""
    import ray

    lref = ray.put(gather_kv(labels, "doc_id", "cluster_id"))

    def partial_min(batch: pa.Table) -> pa.Table:
        keys, vals = cached_get(lref)
        rep = batch["rep_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        did = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        cid = lookup_u64(keys, vals, rep, default=rep)
        order, starts = group_runs(cid)
        mins = np.minimum.reduceat(did[order], starts[:-1]) \
            if len(cid) else np.empty(0, np.uint64)
        return pa.Table.from_arrays([
            pa.array(cid[order][starts[:-1]] if len(cid) else cid,
                     pa.uint64()),
            pa.array(mins, pa.uint64()),
        ], names=["cluster_id", "canonical_id"])

    k, v = gather_columns(
        docs_with_rep.select_columns(["doc_id", "rep_id"])
        .map_batches(partial_min, batch_format="pyarrow"),
        "cluster_id", "canonical_id")
    o = np.lexsort((v, k))
    k, v = k[o], v[o]
    first = np.ones(len(k), bool)
    first[1:] = k[1:] != k[:-1]
    cref = ray.put((k[first], v[first]))  # per-cluster global min, by k

    def annotate(batch: pa.Table) -> pa.Table:
        lk, lv = cached_get(lref)
        ck, cv = cached_get(cref)
        rep = batch["rep_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        did = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        cid = lookup_u64(lk, lv, rep, default=rep)
        canon = lookup_u64(ck, cv, cid, default=cid)
        out = batch.append_column("cluster_id", pa.array(cid, pa.uint64()))
        return out.append_column("is_canonical",
                                 pa.array(did == canon, pa.bool_()))

    return docs_with_rep.map_batches(annotate, batch_format="pyarrow")


# ------------------------- substring pass (op 24) -------------------------

# large-corpus gate for bundling the exchange-feeding emitters (see
# substring_stage / bands.band_stage): bundling wins only when the
# exchange's block x partition object count dominates; small corpora
# pipeline better unbundled. Module-level so tests can lower them and
# pin bundled == unbundled bit-equality on a fixture-sized corpus.
BUNDLE_MIN_DOCS = 32768
BUNDLE_MIN_BYTES = 32 << 20


def _fingerprint_emitter(cfg: MPLSHConfig):
    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        offs, data = utf8_flat(batch["text"])
        fp, di = winnow_fingerprints_batch(offs, data,
                                           cfg.winnow_k, cfg.winnow_w)
        return pa.Table.from_arrays([pa.array(fp, pa.uint64()),
                                     pa.array(ids[di], pa.uint64())],
                                    names=["fp", "doc_id"])
    return fn


def _span_kernel(substr_len: int):
    """pair_apply kernel over (x, y, text_x, text_y): byte intervals of
    the LARGER doc_id covered by >= substr_len spans of the other —
    suffix-array verification per pair. The (a, b) provenance rides
    along so a checkpointed span can later be reused per pair
    (incremental substring); the merge pass only reads doc_id/start/end."""

    def kernel(a, b, text_a, text_b) -> pa.Table:
        out_a, out_b, out_s, out_e = [], [], [], []
        for x, y, tx, ty in zip(a, b, text_a.to_pylist(),
                                text_b.to_pylist()):
            # spans are always removed from the LARGER doc_id (deterministic)
            if x > y:
                x, y, tx, ty = y, x, ty, tx
            for s, e in cross_match_intervals(tx, ty, substr_len):
                out_a.append(x)
                out_b.append(y)
                out_s.append(s)
                out_e.append(e)
        ya = np.array(out_b, dtype=np.uint64)
        return pa.Table.from_arrays([
            pa.array(np.array(out_a, dtype=np.uint64), pa.uint64()),
            pa.array(ya, pa.uint64()),
            pa.array(ya, pa.uint64()),
            pa.array(out_s, pa.int64()),
            pa.array(out_e, pa.int64()),
        ], names=["a", "b", "doc_id", "start", "end"])

    return kernel


def _pair_spans(pairs, canon, n_canon: int, canon_bytes: int,
                cfg: MPLSHConfig, num_partitions: int):
    """Candidate pairs + canonical (doc_id, text) -> per-pair span rows
    (a, b, doc_id, start, end): the span pass of both the from-scratch and
    the incremental substring paths. Texts are broadcast when the
    canonical set is small by doc count AND by bytes (the payload is TEXT,
    so 100k short docs and 100k long docs are very different broadcasts),
    otherwise they ride pair_apply's pair-keyed exchange — no driver
    materialization at any corpus size."""
    broadcast = n_canon <= cfg.broadcast_max_docs and \
        canon_bytes <= cfg.substr_broadcast_max_bytes
    return pair_apply(pairs, canon, "text", _span_kernel(cfg.substr_len),
                      num_partitions, payload_type=pa.string(),
                      broadcast=broadcast, batch_size=512)


def _canon_stats(marked) -> tuple:
    """(canonical (doc_id, text) Dataset, n_canon, canon_bytes) of a marked
    corpus — the data-sized inputs of every substring-pass gate, read off
    the materialized canonical set's block metadata with no further job:
    canon_bytes is its Arrow size (the UTF-8 text plus 12 B/doc of id and
    offset)."""
    canon = marked.filter(expr="is_canonical == True") \
        .select_columns(["doc_id", "text"]).materialize()
    return canon, canon.count(), canon.size_bytes()


def _fp_rows(n_canon: int, canon_bytes: int, cfg: MPLSHConfig) -> int:
    """Winnow fingerprint rows of a canonical set, estimated from the
    winnowing density 2/(w + 1) per text byte (Schleimer et al., SIGMOD
    2003), at least one per doc: the size that picks the pairing plan and
    its exchange width."""
    return max(n_canon, 2 * canon_bytes // (cfg.winnow_w + 1))


def _fp_pairs(fps, n_fps: int, cfg: MPLSHConfig, num_partitions: int):
    """Winnow (fp, doc_id) rows -> unique candidate pairs: the bucket
    pairing of both the from-scratch and the incremental substring pass.
    ``local_or_exchange`` groups the fp buckets — one driver numpy pass
    for a driver-sized set, else the fp-keyed exchange; bit-equal,
    because each fp bucket is wholly in one call either way and
    _pairs_of_runs is order-independent (runs re-sorted, star anchored at
    the min id; pinned by tests/test_suffix.py) — and ``dedup_pairs``
    merges the pairs several buckets found."""
    pairs = local_or_exchange(
        fps, "fp", _emit_pairs_fn("fp", cfg.substr_bucket_cap),
        num_partitions, n_rows=n_fps,
        local_max_rows=cfg.local_state_max_rows,
        schema=pa.schema([("fp", pa.uint64()), ("doc_id", pa.uint64())]))
    return dedup_pairs(pairs, num_partitions,
                       local_max_rows=cfg.local_state_max_rows)


def _fingerprints(docs, n_canon: int, canon_bytes: int, cfg: MPLSHConfig):
    """(doc_id, text) -> winnow (fp, doc_id) rows. LARGE corpora only:
    bundle the emitter's input so its OUTPUT blocks are few and big —
    upstream stages leave the corpus in ~rows/256 slivers, and a
    sort-exchange pays one shuffle object per (block x partition); 256
    blocks x 64 partitions measured 2-3x slower than 64 x 64 on the
    150k-doc scaling fixture (16cpu leg 71.3s -> 47.5s). Sized by BYTES
    (~32 MB of text per bundle — docs vary 100x in length); small corpora
    keep the unbundled plan, whose many tiny tasks pipeline better when
    the whole stage is fixed-overhead-bound. The gate is a pure function
    of the (canonical-set) data, never the cluster — the scaling-bench
    invariant."""
    if n_canon >= BUNDLE_MIN_DOCS and canon_bytes >= BUNDLE_MIN_BYTES:
        avg_doc = max(1, canon_bytes // max(n_canon, 1))
        fp_bs = int(min(8192, max(512, BUNDLE_MIN_BYTES // avg_doc)))
        return docs.map_batches(_fingerprint_emitter(cfg),
                                batch_format="pyarrow", batch_size=fp_bs)
    return docs.map_batches(_fingerprint_emitter(cfg),
                            batch_format="pyarrow")


def substring_stage(dedup_out, cfg: MPLSHConfig, num_partitions: int):
    """canonical docs -> final_text rewrites (op 24). Returns dedup_out with
    ``final_text`` (null for non-canonical docs) and updated is_canonical.
    Pair texts attach through ``_pair_spans`` (broadcast or pair-keyed
    exchange, byte-identical — pinned by tests/test_pipeline_e2e.py)."""
    # dedup_out (the marked corpus) feeds three consumers: the fingerprint
    # pass, the pair-text attach and the final rewrite. Materialize once
    # so the upstream chain doesn't re-execute per consumer.
    dedup_out = dedup_out.materialize()
    canon, n_canon, canon_bytes = _canon_stats(dedup_out)
    n_fps = _fp_rows(n_canon, canon_bytes, cfg)
    pe = sized_partitions(n_fps, num_partitions)
    fps = _fingerprints(canon, n_canon, canon_bytes, cfg)
    # with checkpointing on, persist the substring internals too: the
    # fingerprints and per-pair spans are pure functions of (text, cfg),
    # so an incremental run can reuse them verbatim (incremental.py) and
    # a resumed run skips the fingerprint scan
    if cfg.ckpt_dir:
        from ray_data_mplsh.state.checkpoint import read_stage_or_compute
        _fps_lazy = fps
        fps = read_stage_or_compute(cfg, "substr_fps", lambda: _fps_lazy)
    pairs = _fp_pairs(fps, n_fps, cfg, pe)
    if cfg.ckpt_dir:
        from ray_data_mplsh.state.checkpoint import read_stage_or_compute
        _pairs_lazy = pairs
        pairs = read_stage_or_compute(cfg, "substr_pairs",
                                      lambda: _pairs_lazy)

    spans = _pair_spans(pairs, canon, n_canon, canon_bytes, cfg,
                       num_partitions)
    if cfg.ckpt_dir:
        from ray_data_mplsh.state.checkpoint import read_stage_or_compute
        _spans_lazy = spans
        spans = read_stage_or_compute(cfg, "substr_spans",
                                      lambda: _spans_lazy)

    return _apply_spans(dedup_out, spans, cfg)


def _apply_spans(dedup_out, spans, cfg: MPLSHConfig):
    """Merge the span intervals per doc and rewrite ``final_text`` over the
    (already materialized) marked corpus — the shared tail of the
    from-scratch and incremental substring paths."""
    import ray

    # merge intervals per doc, collect to the driver (docs carrying dup
    # spans only — orders of magnitude smaller than the corpus; the
    # broadcast payload is 4 parallel numpy arrays, zero-copy on read) —
    # vectorized: one lexsort over all interval rows, per-doc slices merged
    d, s0, e0 = gather_columns(spans, "doc_id", "start", "end",
                               types=(pa.uint64(), pa.int64(), pa.int64()))
    o = np.lexsort((s0, d))
    # vectorized per-doc interval merge (bit-equal to the scalar
    # merge_intervals per doc — fuzz-pinned): no Python loop over
    # dup-span docs on the driver
    run_doc, span_s, span_e = merge_intervals_grouped(d[o], s0[o], e0[o])
    run_first = np.ones(len(run_doc), bool)
    run_first[1:] = run_doc[1:] != run_doc[:-1]
    starts = np.flatnonzero(run_first)
    sref = ray.put((run_doc[starts].astype(np.uint64),
                    np.append(starts, len(run_doc)).astype(np.int64),
                    span_s, span_e))

    def rewriter(batch: pa.Table) -> pa.Table:
        return _rewrite_batch(batch, cached_get(sref), cfg)

    def _rewrite_batch(batch: pa.Table, sm, cfg) -> pa.Table:
        sp_ids, sp_offs, sp_s, sp_e = sm
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        canon_f = batch["is_canonical"].to_numpy(zero_copy_only=False)
        # vectorized span lookup: row -> slice into the interval arrays
        pos = np.clip(np.searchsorted(sp_ids, ids), 0,
                      max(len(sp_ids) - 1, 0))
        has_spans = (sp_ids[pos] == ids) if len(sp_ids) \
            else np.zeros(len(ids), bool)
        texts = batch["text"].to_pylist()
        finals, keep_canon = [], []
        for i, (is_c, text) in enumerate(zip(canon_f, texts)):
            if not is_c:
                finals.append(None)
                keep_canon.append(False)
                continue
            if not has_spans[i]:
                finals.append(text)
                keep_canon.append(True)
                continue
            lo, hi = sp_offs[pos[i]], sp_offs[pos[i] + 1]
            iv = list(zip(sp_s[lo:hi].tolist(), sp_e[lo:hi].tolist()))
            new_text = remove_intervals(text, iv)
            covered = int(np.sum(sp_e[lo:hi] - sp_s[lo:hi]))
            if covered > 0.9 * len(text) or len(new_text) < cfg.min_chars:
                finals.append(None)
                keep_canon.append(False)
            else:
                finals.append(new_text)
                keep_canon.append(True)
        out = batch.drop_columns(["is_canonical"])
        out = out.append_column("is_canonical", pa.array(keep_canon, pa.bool_()))
        return out.append_column("final_text", pa.array(finals, pa.string()))

    return dedup_out.map_batches(rewriter, batch_format="pyarrow")
