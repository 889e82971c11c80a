"""S8-S9: cluster assignment, canonical pick, substring span pass
(SURVEY.md ops 20-24).

Small-side lookups (component labels, canonical overrides, span
intervals) are gathered with ``shuffle.gather_columns``, broadcast once
via ``ray.put`` and resolved inside ``map_batches`` with
``np.searchsorted`` — they are orders of magnitude smaller than the
corpus (only docs participating in dup clusters appear).

Substring semantics ([Lee22 §3], span removal): any span >= substr_len
bytes that also occurs in an earlier (smaller doc_id) canonical doc is cut
from the later doc's ``final_text``; the doc is dropped (is_canonical
False) only when >90% of its bytes were duplicated spans or the remainder
is shorter than min_chars. One map over the marked corpus keeps the
canonical docs and attaches their winnow anchors (every selected
(fingerprint, byte position)); its output is the one materialized S9
input. Candidates come from the per-doc unique fingerprints (guarantee:
any shared span >= winnow_k + winnow_w - 1 = substr_len shares a
fingerprint), paired per fp bucket by ``shuffle.local_or_exchange``
(``_fp_pairs``, shared with the incremental pass) as S5 pairs its bands.
Each pair's spans come from ``shuffle.pair_apply`` — the operator behind
S6 — with the anchor kernel ``suffix.anchor_match_intervals`` (bytes
compared next to aligned anchors only).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import (
    first_of_runs, utf8_flat, winnow_anchors_batch,
)
from ray_data_mplsh.functions.suffix import (
    anchor_match_intervals, merge_intervals_grouped, remove_intervals,
)
from ray_data_mplsh.stages.pairs import _emit_pairs_fn, dedup_pairs
from ray_data_mplsh.stages.shuffle import (
    cached_get, gather_columns, gather_kv, group_runs, local_or_exchange,
    lookup_u64, pair_apply, sized_partitions,
)


def assign_and_mark(docs_with_rep, labels, cfg: MPLSHConfig, *,
                    adopted: tuple | None = None):
    """Ops 19b+20: add ``cluster_id`` and ``is_canonical`` in one map
    over the corpus, with no pass of its own.

    ``cluster_id`` is the S7 label of the doc's representative (its own
    id for an unclustered rep). The canonical doc of a cluster is its
    smallest member, and that is ``cluster_id`` itself: S2 makes each
    rep the minimum doc_id of its exact-text group, and S7 labels a
    component of reps with its minimum id, so ``is_canonical`` is
    ``doc_id == cluster_id``. An incremental fold breaks the first
    premise for its adopted docs: a new doc that joins a base rep's
    exact-text group keeps that rep, whatever its own id (and a fold's
    saved state keeps such docs for the next fold). ``adopted`` passes
    the docs that may undercut their rep as (doc_ids, rep_ids) arrays —
    bounded by the adoptions, not the corpus — and each cluster where
    one undercuts ``cluster_id`` gets its minimum as the canonical id
    instead."""
    import ray

    lk, lv = gather_kv(labels, "doc_id", "cluster_id")
    ck = cv = np.empty(0, np.uint64)
    if adopted is not None and len(adopted[0]):
        did, rep = adopted
        cid = lookup_u64(lk, lv, rep, default=rep)
        order, starts = group_runs(cid)
        mins = np.minimum.reduceat(did[order], starts[:-1])
        ck = cid[order][starts[:-1]]
        low = mins < ck
        ck, cv = ck[low], mins[low]       # sorted: group_runs order
    ref = ray.put((lk, lv, ck, cv))

    def annotate(batch: pa.Table) -> pa.Table:
        lk_, lv_, ck_, cv_ = cached_get(ref)
        rep = batch["rep_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        did = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        cid = lookup_u64(lk_, lv_, rep, default=rep)
        canon = lookup_u64(ck_, cv_, cid, default=cid)
        out = batch.append_column("cluster_id", pa.array(cid, pa.uint64()))
        return out.append_column("is_canonical",
                                 pa.array(did == canon, pa.bool_()))

    return docs_with_rep.map_batches(annotate, batch_format="pyarrow")


# ------------------------- substring pass (op 24) -------------------------

# large-corpus gate for bundling the exchange-feeding emitters (see
# _bundle_batch_size / bands.band_stage): bundling wins only when the
# exchange's block x partition object count dominates; small corpora
# pipeline better unbundled. Module-level so tests can lower them and
# pin bundled == unbundled bit-equality on a fixture-sized corpus.
BUNDLE_MIN_DOCS = 32768
BUNDLE_MIN_BYTES = 32 << 20

# a canonical doc with its winnow anchors: the payload of the span pass
ANCHORED = pa.struct([("text", pa.string()),
                      ("fp", pa.list_(pa.uint64())),
                      ("pos", pa.list_(pa.int64()))])


def _anchor_emitter(cfg: MPLSHConfig):
    """(doc_id, text) -> (doc_id, anchored): each doc's text with its
    winnow anchors, sorted by (fp, position)."""
    def fn(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks()
        if text.type != pa.string():
            text = text.cast(pa.string())
        offs, data = utf8_flat(text)
        fp, pos, di = winnow_anchors_batch(offs, data,
                                           cfg.winnow_k, cfg.winnow_w)
        lo = np.zeros(len(text) + 1, np.int32)
        np.cumsum(np.bincount(di, minlength=len(text)), out=lo[1:])
        lo = pa.array(lo, pa.int32())
        return pa.table({
            "doc_id": pa.array(batch["doc_id"].to_numpy(
                zero_copy_only=False).astype(np.uint64), pa.uint64()),
            "anchored": pa.StructArray.from_arrays([
                text,
                pa.ListArray.from_arrays(lo, pa.array(fp, pa.uint64())),
                pa.ListArray.from_arrays(lo, pa.array(pos, pa.int64())),
            ], fields=list(ANCHORED))})
    return fn


def _list_np(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets into values, values) of a list array as numpy."""
    return (arr.offsets.to_numpy().astype(np.int64),
            arr.values.to_numpy(zero_copy_only=False))


def _unique_fps(t: pa.Table) -> pa.Table:
    """(doc_id, anchored) -> the per-doc unique (fp, doc_id) rows, the
    pairing input (and the ``substr_fps`` checkpoint)."""
    _, fpl, _ = t["anchored"].combine_chunks().flatten()
    fo, fv = _list_np(fpl)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    doc = np.repeat(np.arange(len(ids)), np.diff(fo))
    fp = fv[fo[0]:fo[-1]]
    keep = first_of_runs(doc, fp)
    return pa.table({"fp": pa.array(fp[keep], pa.uint64()),
                     "doc_id": pa.array(ids[doc[keep]], pa.uint64())})


def _fingerprint_emitter(cfg: MPLSHConfig):
    """(doc_id, text) -> per-doc unique winnow (fp, doc_id) rows."""
    emit = _anchor_emitter(cfg)
    return lambda batch: _unique_fps(emit(batch))


def _span_kernel(cfg: MPLSHConfig):
    """pair_apply kernel over (x, y, anchored_x, anchored_y): byte
    intervals of the LARGER doc_id covered by >= substr_len spans of the
    other, from the two docs' anchors (``anchor_match_intervals``). The
    (a, b) provenance rides along so a checkpointed span can later be
    reused per pair (incremental substring); the merge pass only reads
    doc_id/start/end."""
    L, k, w = cfg.substr_len, cfg.winnow_k, cfg.winnow_w

    def unpack(pay: pa.Array):
        text, fpl, posl = pay.flatten()
        to, td = utf8_flat(text)
        return to, td, _list_np(fpl), _list_np(posl)

    def kernel(a, b, pay_a, pay_b) -> pa.Table:
        (ta, da, (fo_a, fv_a), (po_a, pv_a)), \
            (tb, db, (fo_b, fv_b), (po_b, pv_b)) = unpack(pay_a), unpack(pay_b)
        out_a, out_b, out_s, out_e = [], [], [], []
        for i in range(len(a)):
            src = (da[ta[i]:ta[i + 1]], fv_a[fo_a[i]:fo_a[i + 1]],
                   pv_a[po_a[i]:po_a[i + 1]])
            dst = (db[tb[i]:tb[i + 1]], fv_b[fo_b[i]:fo_b[i + 1]],
                   pv_b[po_b[i]:po_b[i + 1]])
            x, y = int(a[i]), int(b[i])
            # spans are always removed from the LARGER doc_id (deterministic)
            if x > y:
                x, y, src, dst = y, x, dst, src
            for s, e in anchor_match_intervals(src[0], dst[0], src[1],
                                               src[2], dst[1], dst[2],
                                               L, k, w):
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


def _pair_spans(pairs, side, n_canon: int, canon_bytes: int,
                cfg: MPLSHConfig, num_partitions: int):
    """Candidate pairs + anchored canonical docs (doc_id, anchored) ->
    per-pair span rows (a, b, doc_id, start, end): the span pass of both
    the from-scratch and the incremental substring paths. The side is
    broadcast when the canonical set is small by doc count AND by bytes
    (the payload is TEXT, so 100k short docs and 100k long docs are very
    different broadcasts), otherwise it rides pair_apply's pair-keyed
    exchange — no driver materialization at any corpus size."""
    broadcast = n_canon <= cfg.broadcast_max_docs and \
        canon_bytes <= cfg.substr_broadcast_max_bytes
    return pair_apply(pairs, side, "anchored", _span_kernel(cfg),
                      num_partitions, payload_type=ANCHORED,
                      broadcast=broadcast, batch_size=512)


def _canon_stats(marked) -> tuple:
    """(canonical (doc_id, text) Dataset, n_canon, canon_bytes) of a marked
    corpus, read off the materialized canonical set's block metadata with
    no further job: canon_bytes is its Arrow size (the UTF-8 text plus
    12 B/doc of id and offset). The incremental fold's gates."""
    canon = marked.filter(expr="is_canonical == True") \
        .select_columns(["doc_id", "text"]).materialize()
    return canon, canon.count(), canon.size_bytes()


def _fp_rows(n_canon: int, text_bytes: int, cfg: MPLSHConfig) -> int:
    """Winnow fingerprint rows of a canonical set, estimated from the
    winnowing density 2/(w + 1) per text byte (Schleimer et al., SIGMOD
    2003), at least one per doc: the size that picks the pairing plan and
    its exchange width."""
    return max(n_canon, 2 * text_bytes // (cfg.winnow_w + 1))


def _fp_pairs(fps, n_fps: int, cfg: MPLSHConfig, num_partitions: int, *,
              anchored: bool = False, bundle: int | None = None):
    """Winnow (fp, doc_id) rows -> unique candidate pairs: the bucket
    pairing of both the from-scratch and the incremental substring pass.
    With ``anchored``, ``fps`` holds anchored docs (doc_id, anchored)
    instead, whose per-doc unique fps ``_unique_fps`` derives inside the
    operator (``bundle`` docs per call on the exchange). ``local_or_exchange`` groups the fp buckets — one
    driver numpy pass for a driver-sized set, else the fp-keyed exchange;
    bit-equal, because each fp bucket is wholly in one call either way
    and _pairs_of_runs is order-independent (runs re-sorted, star
    anchored at the min id; pinned by tests/test_suffix.py) — and
    ``dedup_pairs`` merges the pairs several buckets found."""
    pairs = local_or_exchange(
        fps, "fp", _emit_pairs_fn("fp", cfg.substr_bucket_cap),
        num_partitions, n_rows=n_fps,
        local_max_rows=cfg.local_state_max_rows,
        schema=pa.schema([("doc_id", pa.uint64()), ("anchored", ANCHORED)]
                         if anchored else
                         [("fp", pa.uint64()), ("doc_id", pa.uint64())]),
        prep=_unique_fps if anchored else None, batch_size=bundle)
    return dedup_pairs(pairs, num_partitions,
                       local_max_rows=cfg.local_state_max_rows)


def _bundle_batch_size(n_canon: int, text_bytes: int) -> int | None:
    """Batch size of the fingerprint emitter that feeds the pairing
    exchange. LARGE corpora only: bundle the emitter's input so its
    OUTPUT blocks are few and big — upstream stages leave the corpus in
    ~rows/256 slivers, and a sort-exchange pays one shuffle object per
    (block x partition); 256 blocks x 64 partitions measured 2-3x slower
    than 64 x 64 on the 150k-doc scaling fixture (16cpu leg 71.3s ->
    47.5s). Sized by BYTES (~32 MB of text per bundle — docs vary 100x
    in length); small corpora keep the unbundled plan (None: one call
    per block), whose many tiny tasks pipeline better when the whole
    stage is fixed-overhead-bound. The gate is a pure function of the
    (canonical-set) data, never the cluster — the scaling-bench
    invariant."""
    if n_canon >= BUNDLE_MIN_DOCS and text_bytes >= BUNDLE_MIN_BYTES:
        avg_doc = max(1, text_bytes // max(n_canon, 1))
        return int(min(8192, max(512, BUNDLE_MIN_BYTES // avg_doc)))
    return None


def substring_stage(dedup_out, cfg: MPLSHConfig, num_partitions: int):
    """canonical docs -> final_text rewrites (op 24). Returns dedup_out with
    ``final_text`` (null for non-canonical docs) and updated is_canonical.

    Two passes over the corpus: one map keeps the canonical docs with
    their anchors (materialized: the pairing input and the span payload),
    and the final rewrite. Every gate reads its size off that output's
    metadata: per text byte it holds 1 B of text plus 2/(w + 1) anchors
    of 16 B (uint64 fp, int64 position), so its Arrow size S holds about
    S (w + 1) / (w + 33) text bytes. The pair payload attaches by
    broadcast or pair-keyed exchange, byte-identical (pinned by
    tests/test_pipeline_e2e.py)."""
    canon = dedup_out.filter(expr="is_canonical == True").map_batches(
        _anchor_emitter(cfg), batch_format="pyarrow").materialize()
    n_canon, canon_bytes = canon.count(), canon.size_bytes()
    w = cfg.winnow_w
    text_bytes = canon_bytes * (w + 1) // (w + 33)
    n_fps = _fp_rows(n_canon, text_bytes, cfg)
    pe = sized_partitions(n_fps, num_partitions)
    bundle = _bundle_batch_size(n_canon, text_bytes)
    # with checkpointing on, persist the substring internals too: the
    # fingerprints and per-pair spans are pure functions of (text, cfg),
    # so an incremental run can reuse them verbatim (incremental.py)
    if cfg.ckpt_dir:
        from ray_data_mplsh.state.checkpoint import read_stage_or_compute
        fps = read_stage_or_compute(
            cfg, "substr_fps", lambda: canon.map_batches(
                _unique_fps, batch_format="pyarrow", batch_size=bundle))
        pairs_lazy = _fp_pairs(fps, n_fps, cfg, pe)
        pairs = read_stage_or_compute(cfg, "substr_pairs",
                                      lambda: pairs_lazy)
    else:
        pairs = _fp_pairs(canon, n_fps, cfg, pe, anchored=True,
                          bundle=bundle)

    spans = _pair_spans(pairs, canon, n_canon, canon_bytes, cfg,
                        num_partitions)
    if cfg.ckpt_dir:
        _spans_lazy = spans
        spans = read_stage_or_compute(cfg, "substr_spans",
                                      lambda: _spans_lazy)

    return _apply_spans(dedup_out, spans, cfg)


def _apply_spans(dedup_out, spans, cfg: MPLSHConfig):
    """Merge the span intervals per doc and rewrite ``final_text`` in one
    map over the marked corpus — the shared tail of the from-scratch and
    incremental substring paths."""
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
