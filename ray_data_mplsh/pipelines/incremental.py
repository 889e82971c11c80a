"""Incremental dedup: fold a NEW crawl shard into a previously
checkpointed run WITHOUT recomputing the base corpus's signatures
(SURVEY.md ops 3-4 extended; the "dedup tomorrow's crawl against
yesterday's state" entry point).

What is reused from the base run's checkpoints (``<ckpt_dir>/<base_run_id>``):

* ``docs``  — the hashed, rep-assigned base corpus (no re-extraction);
* ``sigs``  — the base MinHash signatures (the expensive stage, skipped);
* ``verified`` — base-internal verified pairs (no base-base re-verify).

What is recomputed: band keys for base signatures (pure hashing over the
(n, K) sig matrix — orders of magnitude cheaper than minhashing, and
recomputing beats checkpointing the x(bands*probes) key expansion), and
the candidate-pair shuffle over the joint key set, filtered to pairs
touching at least one new doc before verification.

Equivalence contract (tests/test_incremental.py): the incremental result
partitions the joint corpus into exactly the same duplicate clusters,
with the same canonical picks, as a from-scratch run over base + new.
Cluster LABELS can differ only in the adopted-rep case (a new doc whose
text byte-equals a base doc joins the BASE representative's group
regardless of id order, so the base signature is reused verbatim);
partitions and canonicals — both defined by member doc_id sets — are
identical, which is what the test asserts.

Scale notes: the adoption map (text-hash overlaps between shards) and the
new-rep id filter are broadcast small sides — both are bounded by the NEW
shard's size, never the base corpus's.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.pipelines.dedup import DedupResult, _only_reps
from ray_data_mplsh.stages.bands import band_stage
from ray_data_mplsh.stages.cc import connected_components
from ray_data_mplsh.stages.docs import docs_stage
from ray_data_mplsh.stages.exact import exact_dedup_stage
from ray_data_mplsh.stages.minhash import minhash_stage
from ray_data_mplsh.stages.output import assign_and_mark, substring_stage
from ray_data_mplsh.stages.pairs import pairs_stage
from ray_data_mplsh.stages.shuffle import (
    cached_get, default_partitions, gather_columns, gather_kv, group_runs,
    isin_sorted, lookup_u64, partition_apply,
)
from ray_data_mplsh.stages.verify import verify_stage
from ray_data_mplsh.state.checkpoint import (
    _stage_dir, manifest_valid, write_stage,
)


def _save_ckpt(ds, save_cfg: MPLSHConfig, stage: str, t0: float):
    """Persist a fold stage under the save_as run id (always overwrite —
    the caller guarantees the target run id is fresh) and hand back the
    checkpoint read so downstream consumers share the written bytes."""
    import ray.data as rd

    write_stage(ds, save_cfg, stage, time.monotonic() - t0)
    return rd.read_parquet(_stage_dir(save_cfg, stage))


def _stage_rows(base_cfg: MPLSHConfig, stage: str) -> int:
    import json
    import os

    with open(os.path.join(_stage_dir(base_cfg, stage), "_SUCCESS")) as f:
        return int(json.load(f)["row_count"])


def _base_stage_schema(stage: str, cfg: MPLSHConfig) -> pa.schema:
    """Declared checkpoint schemas (SURVEY.md §1.2) for the typed-empty
    fallback below."""
    from ray_data_mplsh.stages.docs import DOCS_SCHEMA

    if stage == "docs":
        return pa.schema(list(DOCS_SCHEMA)
                         + [pa.field("text_hash", pa.uint64()),
                            pa.field("rep_id", pa.uint64())])
    if stage == "sigs":
        return pa.schema([("doc_id", pa.uint64()),
                          ("sig", pa.list_(pa.uint64(), cfg.num_perm)),
                          ("n_shingles", pa.int64())])
    assert stage == "verified", stage
    return pa.schema([("a", pa.uint64()), ("b", pa.uint64()),
                      ("jaccard", pa.float64())])


def _base_stage_ds(base_cfg: MPLSHConfig, cfg: MPLSHConfig, stage: str,
                   columns: list | None = None):
    """``read_parquet`` of a base checkpoint with a TYPED empty fallback:
    Ray writes schemaless parquet for an empty Dataset, so a zero-row
    base stage (the first-crawl-ever fold: everything lands in the new
    shard) can't be re-read by schema inference — rebuild it from the
    declared stage schema instead."""
    import ray.data as rd

    if _stage_rows(base_cfg, stage) == 0:
        t = _base_stage_schema(stage, cfg).empty_table()
        if columns:
            t = t.select(columns)
        return rd.from_arrow(t)
    d = _stage_dir(base_cfg, stage)
    return rd.read_parquet(d, columns=columns) if columns \
        else rd.read_parquet(d)


def _adoption_map(new_reps_slim, base_reps_slim, num_partitions: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(new_rep_id -> base_rep_id) for text hashes present in BOTH shards:
    one text_hash-keyed exchange; the result is bounded by the overlap."""

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "text_hash": t["text_hash"],
                "doc_id": t["doc_id"],
                "side": pa.array(
                    np.full(t.num_rows, side, np.int8), pa.int8()),
            })
        return fn

    u = new_reps_slim.map_batches(tag(0), batch_format="pyarrow") \
        .union(base_reps_slim.map_batches(tag(1), batch_format="pyarrow"))

    def emit(part: pa.Table) -> pa.Table:
        th = part["text_hash"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        side = part["side"].to_numpy(zero_copy_only=False)
        if not len(th):
            e = pa.array([], pa.uint64())
            return pa.table({"new_rep": e, "base_rep": e})
        order, starts = group_runs(th)
        sid, sside = ids[order], side[order]
        # vectorized per-group reduce: min base id per text_hash run
        # (non-base rows masked to u64::MAX), then every new-side row in
        # a run that has a base member adopts that min
        gidx = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        isb = sside == 1
        sentinel = np.uint64(0xFFFFFFFFFFFFFFFF)
        minb = np.minimum.reduceat(np.where(isb, sid, sentinel),
                                   starts[:-1])
        m = ~isb & (minb[gidx] != sentinel)
        return pa.table({
            "new_rep": pa.array(sid[m], pa.uint64()),
            "base_rep": pa.array(minb[gidx[m]], pa.uint64()),
        })

    return gather_kv(partition_apply(u, "text_hash", emit, num_partitions),
                     "new_rep", "base_rep")


def _adoption_map_broadcast(new_tbl: pa.Table, base_reps_slim
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Small-new-shard adoption path: broadcast the new reps' text-hash
    SET (8 bytes/rep), scan the slim base projection once, and build the
    (new_rep -> base_rep) map driver-side — no exchange. Output is
    identical to ``_adoption_map``: every new rep whose text_hash also
    occurs in the base maps to the MIN base doc_id carrying that hash."""
    import ray

    nh = new_tbl["text_hash"].to_numpy(zero_copy_only=False) \
        .astype(np.uint64)
    nid = new_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    o = np.argsort(nh, kind="stable")
    nh_s, nid_s = nh[o], nid[o]
    href = ray.put(np.unique(nh_s))

    def probe(t: pa.Table) -> pa.Table:
        hs = cached_get(href)
        th = t["text_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        m = isin_sorted(hs, th)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"text_hash": pa.array(th[m], pa.uint64()),
                         "doc_id": pa.array(did[m], pa.uint64())})

    hk, hv = gather_columns(
        base_reps_slim.map_batches(probe, batch_format="pyarrow"),
        "text_hash", "doc_id")
    if not len(hk):
        return hk, hv
    oo = np.lexsort((hv, hk))
    hk, hv = hk[oo], hv[oo]
    first = np.concatenate(([True], hk[1:] != hk[:-1]))
    hk, hv = hk[first], hv[first]          # min base id per shared hash
    m = isin_sorted(hk, nh_s)
    k = nid_s[m]
    v = hv[np.searchsorted(hk, nh_s[m])]
    so = np.argsort(k)
    return k[so], v[so]


def _below_rep(t: pa.Table) -> pa.Table:
    """(doc_id, rep_id) rows of docs with a smaller id than their rep."""
    did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    rep = t["rep_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    m = did < rep
    return pa.table({"doc_id": pa.array(did[m], pa.uint64()),
                     "rep_id": pa.array(rep[m], pa.uint64())})


def _delta_ids_nospans(marked, new_ids: np.ndarray,
                       cap: int = 4_000_000) -> np.ndarray | None:
    """Delta doc set when the substring pass is OFF: the new shard plus
    every member of a cluster containing a new doc (cluster_id /
    is_canonical can only change there). ``None`` when the member set
    overflows the driver cap (pathological giant clusters)."""
    import ray

    from ray_data_mplsh.stages.shuffle import gather_capped

    marked = marked.materialize()
    nref = ray.put(np.sort(new_ids.astype(np.uint64)))

    def new_clusters(t: pa.Table) -> pa.Table:
        nid = cached_get(nref)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cid = t["cluster_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return pa.table({"cluster_id":
                         pa.array(np.unique(cid[isin_sorted(nid, did)]),
                                  pa.uint64())})

    cht = gather_capped(
        marked.select_columns(["doc_id", "cluster_id"])
        .map_batches(new_clusters, batch_format="pyarrow"),
        cap, pa.schema([("cluster_id", pa.uint64())]))
    if cht is None:
        return None
    chref = ray.put(np.unique(
        cht["cluster_id"].to_numpy(zero_copy_only=False)
        .astype(np.uint64)))

    def members(t: pa.Table) -> pa.Table:
        ch_ = cached_get(chref)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cid = t["cluster_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return pa.table({"doc_id":
                         pa.array(did[isin_sorted(ch_, cid)],
                                  pa.uint64())})

    cm = gather_capped(
        marked.select_columns(["doc_id", "cluster_id"])
        .map_batches(members, batch_format="pyarrow"),
        cap, pa.schema([("doc_id", pa.uint64())]))
    if cm is None:
        return None
    return np.unique(np.concatenate([
        np.sort(new_ids.astype(np.uint64)),
        cm["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)]))


def _substring_incremental(marked, cfg: MPLSHConfig, P: int,
                           base_cfg: MPLSHConfig, new_ids: np.ndarray,
                           counters: dict, delta: bool = False,
                           save_cfg: MPLSHConfig | None = None):
    """Substring pass with base-run reuse (the incremental S9).

    The winnow fingerprints and the per-pair span intervals are pure
    functions of (doc text, cfg) — independent of the corpus around them
    — so the base run's ``substr_fps`` / ``substr_pairs`` /
    ``substr_spans`` checkpoints can be reused verbatim:

    * joint fingerprints = base fps minus REVOKED docs (base docs that
      lost canonical status because a new doc with a smaller id joined /
      merged their cluster — only possible inside clusters touching a
      new doc, so the revoked set is new-shard-bounded), plus fps of the
      new shard's canonical docs. Since pick_canonical is argmin over
      members, a base doc canonical in the joint run was necessarily
      canonical in the base run, so this union reproduces the
      from-scratch fingerprint multiset EXACTLY.
    * candidate pairs are recomputed over the joint fps (the bucket
      pairing depends on whole-bucket content, so per-bucket reuse would
      not be exact — but the pairing exchange is cheap); each joint pair
      then either reuses the base span rows (pair processed by the base
      run) or goes through fresh attach+extract.

    Returns the final output Dataset, or ``None`` when the base run has
    no substring checkpoints / a driver-side set overflows its cap —
    the caller then falls back to the plain joint ``substring_stage``.
    Bit-equality with the from-scratch pass is pinned by
    tests/test_incremental.py."""
    import ray
    import ray.data as rd

    from ray_data_mplsh.stages import output as _out
    from ray_data_mplsh.stages.shuffle import gather_capped, sized_partitions

    for st in ("substr_fps", "substr_pairs", "substr_spans"):
        if not manifest_valid(base_cfg, st):
            return None
    if _stage_rows(base_cfg, "substr_fps") == 0:
        # empty base (first-crawl fold): the zero-row checkpoints are
        # schemaless on disk; the joint recompute fallback is correct
        # and costs only the new shard's own fingerprint scan
        return None
    spans_dir = _stage_dir(base_cfg, "substr_spans")
    base_spans = rd.read_parquet(spans_dir)
    sschema = base_spans.schema()
    if sschema is not None and "a" not in sschema.names:
        return None     # pre-provenance checkpoint layout: not reusable

    CAP = 4_000_000
    marked = marked.materialize()
    nref = ray.put(np.sort(new_ids.astype(np.uint64)))

    # 1. clusters touching a new doc (new-shard-bounded)
    def new_clusters(t: pa.Table) -> pa.Table:
        nid = cached_get(nref)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cid = t["cluster_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return pa.table({"cluster_id":
                         pa.array(np.unique(cid[isin_sorted(nid, did)]),
                                  pa.uint64())})

    cht = gather_capped(
        marked.select_columns(["doc_id", "cluster_id"])
        .map_batches(new_clusters, batch_format="pyarrow"),
        CAP, pa.schema([("cluster_id", pa.uint64())]))
    if cht is None:
        return None
    chref = ray.put(np.unique(
        cht["cluster_id"].to_numpy(zero_copy_only=False)
        .astype(np.uint64)))

    # 2. revoked = base docs in changed clusters, not joint-canonical
    def revoked_rows(t: pa.Table) -> pa.Table:
        ch_ = cached_get(chref)
        nid = cached_get(nref)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cid = t["cluster_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        can = t["is_canonical"].to_numpy(zero_copy_only=False)
        m = isin_sorted(ch_, cid) & ~can & ~isin_sorted(nid, did)
        return pa.table({"doc_id": pa.array(did[m], pa.uint64())})

    rvt = gather_capped(
        marked.select_columns(["doc_id", "cluster_id", "is_canonical"])
        .map_batches(revoked_rows, batch_format="pyarrow"),
        CAP, pa.schema([("doc_id", pa.uint64())]))
    if rvt is None:
        return None
    revoked = np.sort(rvt["doc_id"].to_numpy(zero_copy_only=False)
                      .astype(np.uint64))
    counters["n_substr_revoked"] = int(len(revoked))
    rvref = ray.put(revoked)

    # 3. joint fps = (base fps minus revoked) + fps(new canonical docs)
    def keep_fps(t: pa.Table) -> pa.Table:
        rv_ = cached_get(rvref)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.filter(pa.array(~isin_sorted(rv_, did)))

    base_fps = rd.read_parquet(_stage_dir(base_cfg, "substr_fps")) \
        .map_batches(keep_fps, batch_format="pyarrow",
                     batch_size=1 << 20)   # whole-block filter, no shred

    def keep_ids(ref):
        def fn(t: pa.Table) -> pa.Table:
            did = t["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            return t.filter(pa.array(isin_sorted(cached_get(ref), did)))
        return fn

    # joint canon stats: the data-sized gates of the pairing and the span
    # attach (canon_bytes: text plus 12 B/doc)
    canon, n_canon, canon_bytes = _out._canon_stats(marked)
    n_fps = _out._fp_rows(n_canon, canon_bytes, cfg)
    pe = sized_partitions(n_fps, P)

    # the emitter feeds the pairing exchange, so its bundling gate keys
    # on the JOINT canon stats — the exchange is joint-sized however
    # small the new shard is, and the new canonical docs inherit the
    # whole corpus's sliver block structure.
    fps_new = canon.map_batches(keep_ids(nref), batch_format="pyarrow") \
        .map_batches(_out._fingerprint_emitter(cfg), batch_format="pyarrow",
                     batch_size=_out._bundle_batch_size(n_canon,
                                                        canon_bytes))
    fps = base_fps.union(fps_new)
    ts = time.monotonic()
    if save_cfg is not None:
        # chainable fold: the joint fingerprint multiset IS what a
        # from-scratch run checkpoints as substr_fps, so persisting it
        # under the save_as run id lets the NEXT shard's fold reuse it
        fps = _save_ckpt(fps, save_cfg, "substr_fps", ts)

    # 4. pairing over the joint fps (identical multiset -> identical pair
    # set): the from-scratch pass's own pairing step
    pairs = _out._fp_pairs(fps, n_fps, cfg, pe)
    if save_cfg is not None:
        pairs = _save_ckpt(pairs, save_cfg, "substr_pairs", ts)

    # 5. split joint pairs on base membership (the (a, b) key routes;
    # identity is the exact (a, b) within the partition, so routing-hash
    # collisions are harmless)
    def tag_pairs(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "a": pc.cast(t["a"], pa.uint64()),
                "b": pc.cast(t["b"], pa.uint64()),
                "side": pa.array(np.full(t.num_rows, side, np.int8),
                                 pa.int8()),
            })
        return fn

    base_pairs = rd.read_parquet(_stage_dir(base_cfg, "substr_pairs"))
    u = pairs.map_batches(tag_pairs(0), batch_format="pyarrow").union(
        base_pairs.select_columns(["a", "b"])
        .map_batches(tag_pairs(1), batch_format="pyarrow"))

    def split(part: pa.Table) -> pa.Table:
        """kind 0 = fresh joint pair, 1 = joint pair reusing base spans,
        2 = VANISHED base pair (absent from the joint pairing — bucket
        content changed; its base spans must not survive)."""
        a = part["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = part["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        side = part["side"].to_numpy(zero_copy_only=False)
        if not len(a):
            e = pa.array([], pa.uint64())
            return pa.table({"a": e, "b": e,
                             "kind": pa.array([], pa.int8())})
        o = np.lexsort((side, b, a))
        sa, sb, ss = a[o], b[o], side[o]
        grp = np.concatenate(([True], (sa[1:] != sa[:-1]) |
                              (sb[1:] != sb[:-1])))
        gidx = np.cumsum(grp) - 1
        ng = int(gidx[-1]) + 1
        has_base = np.zeros(ng, bool)
        np.logical_or.at(has_base, gidx, ss == 1)
        has_joint = np.zeros(ng, bool)
        np.logical_or.at(has_joint, gidx, ss == 0)
        jm = ss == 0
        vm = (ss == 1) & ~has_joint[gidx]   # base pairs with no joint twin
        kind = np.where(has_base[gidx[jm]], np.int8(1), np.int8(0))
        return pa.table({
            "a": pa.array(np.concatenate([sa[jm], sa[vm]]), pa.uint64()),
            "b": pa.array(np.concatenate([sb[jm], sb[vm]]), pa.uint64()),
            "kind": pa.array(np.concatenate(
                [kind, np.full(int(vm.sum()), 2, np.int8)]), pa.int8())})

    tagged = partition_apply(u, ("a", "b"), split, pe).materialize()
    fresh = tagged.filter(expr="kind == 0").select_columns(["a", "b"]) \
        .materialize()
    reused_pairs = tagged.filter(expr="kind == 1") \
        .select_columns(["a", "b"])
    counters["n_substr_pairs_reused"] = reused_pairs.count()
    counters["n_substr_pairs_fresh"] = fresh.count()
    counters["n_substr_pairs"] = counters["n_substr_pairs_reused"] + \
        counters["n_substr_pairs_fresh"]
    counters["n_substr_pairs_vanished"] = \
        tagged.count() - counters["n_substr_pairs"]

    # 6. reused spans: base span rows semi-joined on the reused pairs
    def tag_req(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "a": pc.cast(t["a"], pa.uint64()),
            "b": pc.cast(t["b"], pa.uint64()),
            "doc_id": pa.array(np.zeros(n, np.uint64), pa.uint64()),
            "start": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "end": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "side": pa.array(np.zeros(n, np.int8), pa.int8())})

    def tag_span(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pc.cast(t["a"], pa.uint64()),
            "b": pc.cast(t["b"], pa.uint64()),
            "doc_id": pc.cast(t["doc_id"], pa.uint64()),
            "start": pc.cast(t["start"], pa.int64()),
            "end": pc.cast(t["end"], pa.int64()),
            "side": pa.array(np.ones(t.num_rows, np.int8), pa.int8())})

    u2 = reused_pairs.map_batches(tag_req, batch_format="pyarrow").union(
        base_spans.map_batches(tag_span, batch_format="pyarrow"))

    def pick(part: pa.Table) -> pa.Table:
        a = part["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = part["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        side = part["side"].to_numpy(zero_copy_only=False)
        if not len(a):
            e = pa.array([], pa.uint64())
            z = pa.array([], pa.int64())
            return pa.table({"a": e, "b": e, "doc_id": e,
                             "start": z, "end": z})
        o = np.lexsort((side, b, a))
        sa, sb, ss = a[o], b[o], side[o]
        grp = np.concatenate(([True], (sa[1:] != sa[:-1]) |
                              (sb[1:] != sb[:-1])))
        gidx = np.cumsum(grp) - 1
        has_req = np.zeros(int(gidx[-1]) + 1, bool)
        np.logical_or.at(has_req, gidx, ss == 0)
        keep = pa.array((ss == 1) & has_req[gidx])
        kept = part.take(pa.array(o)).filter(keep)
        return kept.select(["a", "b", "doc_id", "start", "end"])

    reused_spans = partition_apply(u2, ("a", "b"), pick, pe)

    # 7. fresh spans through the standard attach gates, with anchors
    # computed for the fresh pairs' docs only (the base spans of reused
    # pairs need none)
    fref = ray.put(np.unique(np.concatenate(gather_columns(fresh, "a",
                                                           "b"))))
    side = canon.map_batches(keep_ids(fref), batch_format="pyarrow") \
        .map_batches(_out._anchor_emitter(cfg), batch_format="pyarrow")
    fresh_spans = _out._pair_spans(fresh, side, n_canon, canon_bytes, cfg,
                                   P)
    spans = reused_spans.union(fresh_spans)
    if save_cfg is not None:
        spans = _save_ckpt(spans, save_cfg, "substr_spans", ts)

    target = marked
    if delta:
        # DELTA output: only docs whose output row can differ from the
        # base run's — new docs, members of clusters touching a new doc
        # (cluster_id / canonical flips live there), and the span-bearing
        # endpoint max(a, b) of every fresh or vanished pair (their span
        # set changed). Everything else keeps its base dedup_out row
        # verbatim, so a 100 TB archive is never rewritten for a daily
        # shard. Falls back to the joint output when a driver-side set
        # overflows its cap (pathological giant clusters).
        def changed_members(t: pa.Table) -> pa.Table:
            ch_ = cached_get(chref)
            cid = t["cluster_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            did = t["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            return pa.table({"doc_id":
                             pa.array(did[isin_sorted(ch_, cid)],
                                      pa.uint64())})

        cm = gather_capped(
            marked.select_columns(["doc_id", "cluster_id"])
            .map_batches(changed_members, batch_format="pyarrow"),
            CAP, pa.schema([("doc_id", pa.uint64())]))

        def span_endpoints(t: pa.Table) -> pa.Table:
            k = t["kind"].to_numpy(zero_copy_only=False)
            m = k != 1
            a = t["a"].to_numpy(zero_copy_only=False).astype(np.uint64)[m]
            b = t["b"].to_numpy(zero_copy_only=False).astype(np.uint64)[m]
            return pa.table({"doc_id":
                             pa.array(np.maximum(a, b), pa.uint64())})

        ep = gather_capped(
            tagged.map_batches(span_endpoints, batch_format="pyarrow"),
            CAP, pa.schema([("doc_id", pa.uint64())]))
        if cm is None or ep is None:
            counters["output_mode"] = "joint_overflow"
        else:
            dset = np.unique(np.concatenate([
                np.sort(new_ids.astype(np.uint64)),
                cm["doc_id"].to_numpy(zero_copy_only=False)
                .astype(np.uint64),
                ep["doc_id"].to_numpy(zero_copy_only=False)
                .astype(np.uint64)]))
            counters["n_delta_docs"] = int(len(dset))
            counters["output_mode"] = "delta"
            dref = ray.put(dset)

            def keep_delta(t: pa.Table) -> pa.Table:
                d_ = cached_get(dref)
                did = t["doc_id"].to_numpy(zero_copy_only=False) \
                    .astype(np.uint64)
                return t.filter(pa.array(isin_sorted(d_, did)))

            target = marked.map_batches(keep_delta,
                                        batch_format="pyarrow")
    return _out._apply_spans(target, spans, cfg)


def run_dedup_incremental(new_pages, cfg: MPLSHConfig, *, base_run_id: str,
                          extract: bool = True, url_col: str = "url",
                          text_col: str = "text", lang_col: str = "lang",
                          skip_substring: bool = False,
                          output: str = "joint",
                          save_as: str | None = None) -> DedupResult:
    """Dedup ``new_pages`` against the checkpointed state of
    ``base_run_id`` (same ``cfg.ckpt_dir``, same semantic config — the
    manifest digests are verified).

    ``output``: ``"joint"`` (default) emits the whole joint corpus, the
    same rows a from-scratch run would. ``"delta"`` emits ONLY the rows
    that can differ from the base run's ``dedup_out`` — the new shard,
    members of clusters a new doc touched, and docs whose duplicated-span
    set changed — so the archive's output is never rewritten; every
    doc_id absent from the delta keeps its base row verbatim
    (pinned by tests/test_incremental.py). Delta mode requires the base
    substring checkpoints when the substring pass is enabled (the
    vanished-pair set is unknowable without them); it degrades to joint
    output (``counters["output_mode"]``) rather than failing.

    ``save_as``: persist the fold's JOINT state (docs, sigs, verified,
    and — when the substring pass runs — substr_fps / substr_pairs /
    substr_spans) under ``<ckpt_dir>/<save_as>/`` with the standard
    stage names and schemas, so a LATER shard can fold onto this fold
    (``base_run_id=save_as``) exactly as it would onto a from-scratch
    run: day-1 -> day-2 -> day-3 chains without ever re-signing the
    archive. The write is a joint-state compaction (O(corpus) parquet,
    the same price the base run paid for its own checkpoints); pair
    delta-mode daily folds against one saved state and ``save_as``
    compactions at whatever cadence the archive's churn warrants. The
    target run id must be FRESH — an existing ``<ckpt_dir>/<save_as>``
    directory is refused rather than silently reused, because a stale
    manifest with a matching config digest would alias a different
    corpus's state."""
    import ray
    import ray.data as rd

    if not cfg.ckpt_dir:
        raise ValueError("incremental dedup requires cfg.ckpt_dir")
    save_cfg = None
    if save_as is not None:
        if save_as == base_run_id:
            raise ValueError(
                "save_as must differ from base_run_id: overwriting the "
                "base state while lazily reading it is undefined")
        import os
        sdir = os.path.join(cfg.ckpt_dir, save_as)
        if os.path.isdir(sdir) and os.listdir(sdir):
            raise ValueError(
                f"save_as run id '{save_as}' already exists under "
                f"{cfg.ckpt_dir!r}; pick a fresh id (stale state with a "
                f"matching digest would alias a different corpus)")
        save_cfg = dataclasses.replace(cfg, run_id=save_as)
    base_cfg = dataclasses.replace(cfg, run_id=base_run_id)
    for st in ("docs", "sigs", "verified"):
        if not manifest_valid(base_cfg, st):
            raise ValueError(
                f"base run '{base_run_id}' has no valid '{st}' checkpoint "
                f"for config digest {cfg.digest()}")

    P = default_partitions(cfg.num_partitions)
    counters: dict = {"num_partitions": P, "base_run_id": base_run_id,
                      "base_resumed": True}
    t0 = time.monotonic()

    base_docs = _base_stage_ds(base_cfg, cfg, "docs")
    base_sigs = _base_stage_ds(base_cfg, cfg, "sigs")
    base_verified = _base_stage_ds(base_cfg, cfg, "verified")

    def lap(name: str, _t=[t0]) -> None:
        now = time.monotonic()
        counters[f"t_{name}"] = round(now - _t[0], 3)
        _t[0] = now

    # S1-S2 on the new shard only
    new_docs = exact_dedup_stage(
        docs_stage(new_pages, cfg, extract=extract, url_col=url_col,
                   text_col=text_col, lang_col=lang_col), cfg, P)
    new_docs = new_docs.materialize()
    lap("new_docs")

    # exact-text adoption: a new doc whose text byte-equals a base doc
    # joins the base rep's group (so its signature is never recomputed)
    new_reps_slim = new_docs.map_batches(_only_reps, batch_format="pyarrow") \
        .select_columns(["doc_id", "text_hash"])
    # slim re-read of the base docs checkpoint: the adoption exchange only
    # needs 3 int columns, so don't drag the base TEXT through the scan
    # (the full-width base_docs read above is reserved for the final
    # output union, where text is genuinely needed)
    base_reps_slim = _base_stage_ds(
        base_cfg, cfg, "docs",
        columns=["doc_id", "rep_id", "text_hash"]) \
        .map_batches(_only_reps, batch_format="pyarrow") \
        .select_columns(["doc_id", "text_hash"])
    # daily-crawl fast path: when the NEW shard's rep set fits the
    # broadcast gate, resolve adoption with one probe scan of the base
    # slim projection instead of a text_hash-keyed exchange (the shard is
    # the small side by construction; the exchange path remains for
    # shard-sized-like-the-archive folds)
    from ray_data_mplsh.stages.shuffle import gather_capped
    new_reps_tbl = gather_capped(
        new_reps_slim, cfg.broadcast_max_docs,
        pa.schema([("doc_id", pa.uint64()), ("text_hash", pa.uint64())]))
    if new_reps_tbl is not None:
        ak, av = _adoption_map_broadcast(new_reps_tbl, base_reps_slim)
        counters["adoption_path"] = "broadcast"
    else:
        ak, av = _adoption_map(new_reps_slim, base_reps_slim, P)
        counters["adoption_path"] = "exchange"
    lap("adoption_map")
    counters["n_adopted_reps"] = int(len(ak))
    aref = ray.put((ak, av))

    def adopt(batch: pa.Table) -> pa.Table:
        keys, vals = cached_get(aref)
        rep = batch["rep_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        rep2 = lookup_u64(keys, vals, rep, default=rep)
        return batch.drop_columns(["rep_id"]).append_column(
            "rep_id", pa.array(rep2, pa.uint64()))

    # adopted docs keep their base rep whatever their own id, so they are
    # the only docs that can undercut their cluster's id (assign_and_mark):
    # this shard's, and — when the base is itself a saved fold — the ones
    # earlier folds adopted, found by a slim scan of the base docs
    nd, nr = gather_columns(new_docs, "doc_id", "rep_id")
    m = isin_sorted(ak, nr)
    bd, br = gather_columns(
        _base_stage_ds(base_cfg, cfg, "docs", columns=["doc_id", "rep_id"])
        .map_batches(_below_rep, batch_format="pyarrow"), "doc_id", "rep_id")
    adopted = (np.concatenate([nd[m], bd]),
               np.concatenate([lookup_u64(ak, av, nr[m], default=nr[m]),
                               br]))
    new_docs = new_docs.map_batches(adopt, batch_format="pyarrow") \
        .materialize()
    lap("adopt")

    # S3 on NEW reps only (adopted groups have a base rep -> excluded)
    reps_new = new_docs.map_batches(_only_reps, batch_format="pyarrow")
    sigs_new = minhash_stage(reps_new, cfg).materialize()
    counters["n_new_sigs"] = sigs_new.count()
    lap("new_sigs")
    sigs = base_sigs.union(sigs_new).materialize()
    n_docs = sigs.count()
    counters["n_docs_sig"] = n_docs
    lap("sig_union")

    # S4-S5 over the JOINT key set (base band keys are re-hashed from the
    # checkpointed sigs — cheap), then drop pairs not touching a new doc:
    # base-base pairs are already in the base 'verified' checkpoint
    nref = ray.put(np.sort(gather_columns(
        sigs_new.select_columns(["doc_id"]), "doc_id")[0]))

    def keep_new(batch: pa.Table) -> pa.Table:
        nid = cached_get(nref)
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if not len(nid):
            return batch.slice(0, 0)
        ina = nid[np.clip(np.searchsorted(nid, a), 0, len(nid) - 1)] == a
        inb = nid[np.clip(np.searchsorted(nid, b), 0, len(nid) - 1)] == b
        return batch.filter(pa.array(ina | inb))

    pairs = pairs_stage(band_stage(sigs, cfg), cfg, P) \
        .map_batches(keep_new, batch_format="pyarrow")

    # S6 on the new-touching pairs only
    verified_new = verify_stage(pairs, sigs, cfg, P, n_docs).materialize()
    counters["n_verified_new"] = verified_new.count()
    lap("pairs_verify")
    verified = base_verified.union(verified_new).materialize()
    counters["n_verified"] = verified.count()
    lap("verified_union")

    # S7-S9 over the joint corpus
    docs_all = base_docs.union(new_docs)
    if save_cfg is not None:
        # chainable fold: persist the joint docs/sigs/verified under the
        # save_as run id (standard stage names/schemas — the next fold's
        # manifest checks and readers can't tell it from a from-scratch
        # run). sigs/verified are materialized already; docs executes the
        # union once and the output path below reads the written bytes.
        docs_all = _save_ckpt(docs_all, save_cfg, "docs", t0)
        _save_ckpt(sigs, save_cfg, "sigs", t0)
        _save_ckpt(verified, save_cfg, "verified", t0)
        counters["saved_as"] = save_as
        lap("save_state")
    if counters["n_verified"] == 0:
        labels = rd.from_arrow(pa.Table.from_arrays(
            [pa.array([], pa.uint64()), pa.array([], pa.uint64())],
            names=["doc_id", "cluster_id"]))
    else:
        labels = connected_components(verified, cfg, P,
                                      n_edges=counters["n_verified"])
    lap("cc")
    marked = assign_and_mark(docs_all, labels, cfg, adopted=adopted)
    lap("mark")
    if output not in ("joint", "delta"):
        raise ValueError(f"output must be 'joint' or 'delta', got "
                         f"{output!r}")
    counters.setdefault("output_mode", "joint")
    # the full NEW-shard id set (reps and exact dups alike: an adopted
    # dup can shrink a base cluster's min id and so flip its canonical
    # pick) — new-shard-bounded, the same driver bound the keep_new
    # filter above already accepts
    all_new = np.sort(gather_columns(new_docs.select_columns(["doc_id"]),
                                     "doc_id")[0])

    if skip_substring:
        def add_final(batch: pa.Table) -> pa.Table:
            ft = pc.if_else(batch["is_canonical"], batch["text"],
                            pa.scalar(None, pa.string()))
            return batch.append_column("final_text", ft)

        target = marked
        if output == "delta":
            # no span effects without the substring pass: the delta is
            # the new shard plus members of clusters it touched
            dset = _delta_ids_nospans(marked, all_new)
            if dset is None:
                counters["output_mode"] = "joint_overflow"
            else:
                counters["output_mode"] = "delta"
                counters["n_delta_docs"] = int(len(dset))
                dref = ray.put(dset)

                def keep_delta(t: pa.Table) -> pa.Table:
                    d_ = cached_get(dref)
                    did = t["doc_id"].to_numpy(zero_copy_only=False) \
                        .astype(np.uint64)
                    return t.filter(pa.array(isin_sorted(d_, did)))

                target = marked.map_batches(keep_delta,
                                            batch_format="pyarrow")
        out = target.map_batches(add_final, batch_format="pyarrow")
    else:
        out = _substring_incremental(marked, cfg, P, base_cfg, all_new,
                                     counters, delta=(output == "delta"),
                                     save_cfg=save_cfg)
        counters["substr_incremental"] = out is not None
        if out is None:     # no base substring checkpoints: joint pass
            if output == "delta":
                counters["output_mode"] = "joint_fallback"
            # with save_as the joint pass checkpoints its fps/pairs/spans
            # under the save_as run id, keeping the saved state complete
            # for the next fold in the chain
            out = substring_stage(marked, save_cfg or cfg, P)

    lap("label_mark_substring_lazy")
    counters["wall_s"] = time.monotonic() - t0
    return DedupResult(docs=docs_all, sigs=sigs, pairs=pairs,
                       verified=verified, labels=labels, dedup_out=out,
                       counters=counters)
