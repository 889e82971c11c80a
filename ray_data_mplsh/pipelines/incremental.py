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
recomputing beats checkpointing the x(bands*probes) key expansion), the
candidate-pair shuffle over the joint key set, filtered to pairs
touching at least one new doc before verification, and S7-S9 over the
joint corpus. S9 is ``stages/output.substring_stage``'s own pass: reusing
the base run's ``substr_*`` checkpoints instead measured slower than
recomputing them (a 95/5 fold of 4,000 pages on 1 CPU: 5.14 s against
3.95 s), because the reuse needs more corpus passes than it saves. The
only S9 checkpoint a fold reads is ``substr_pairs``, which a delta fold
diffs its joint pairs against.

Equivalence contract (tests/test_incremental.py): the incremental result
partitions the joint corpus into exactly the same duplicate clusters,
with the same canonical picks, as a from-scratch run over base + new.
Cluster LABELS can differ only in the adopted-rep case (a new doc whose
text byte-equals a base doc joins the BASE representative's group
regardless of id order, so the base signature is reused verbatim);
partitions and canonicals — both defined by member doc_id sets — are
identical, which is what the test asserts.

Scale notes: the adoption map (text-hash overlaps between shards), the
new-rep id filter and the delta's cluster set are bounded by the NEW
shard's size, never the base corpus's.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.pipelines.dedup import DedupResult, _only_reps
from ray_data_mplsh.stages.cc import connected_components
from ray_data_mplsh.stages.docs import docs_stage
from ray_data_mplsh.stages.exact import exact_dedup_stage
from ray_data_mplsh.stages.minhash import minhash_stage
from ray_data_mplsh.stages.output import (
    _apply_spans, _substring_spans, assign_and_mark, final_text_unchanged,
)
from ray_data_mplsh.stages.pairs import PAIRS_SCHEMA, candidate_pairs
from ray_data_mplsh.stages.shuffle import (
    cached_get, default_partitions, gather_capped, gather_columns, gather_kv,
    group_runs, isin_sorted, local_or_exchange, lookup_u64, partition_apply,
)
from ray_data_mplsh.stages.verify import verify_stage
from ray_data_mplsh.state.checkpoint import (
    _stage_dir, manifest_valid, write_stage,
)

# driver cap on the span-changed doc set of a delta fold: past it the
# fold emits the joint output instead
DELTA_MAX_DOCS = 4_000_000


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
    if stage == "substr_pairs":
        return PAIRS_SCHEMA
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


def _base_probe(new_ids: np.ndarray, new_hashes: np.ndarray, base_slim
                ) -> tuple[np.ndarray, ...]:
    """One scan of the base docs' slim (doc_id, rep_id, text_hash)
    projection with the new reps' text-hash SET broadcast (8 bytes/rep),
    for the small-shard fold. Returns the adoption map as sorted
    (new_rep, base_rep) arrays — identical to ``_adoption_map``'s: every
    new rep whose text_hash also occurs in the base maps to the MIN base
    doc_id carrying that hash — and the (doc_id, rep_id) arrays of the
    base docs below their rep (``_below_rep``)."""
    import ray

    o = np.argsort(new_hashes, kind="stable")
    nh_s, nid_s = new_hashes[o], new_ids[o]
    href = ray.put(np.unique(nh_s))

    def probe(t: pa.Table) -> pa.Table:
        did, rep, th = (t[c].to_numpy(zero_copy_only=False).astype(np.uint64)
                        for c in ("doc_id", "rep_id", "text_hash"))
        m = (did < rep) | ((did == rep) & isin_sorted(cached_get(href), th))
        return t.filter(pa.array(m))

    bd, br, bh = gather_columns(
        base_slim.map_batches(probe, batch_format="pyarrow"),
        "doc_id", "rep_id", "text_hash")
    below = bd < br
    hk, hv = bh[~below], bd[~below]
    oo = np.lexsort((hv, hk))
    hk, hv = hk[oo], hv[oo]
    first = np.ones(len(hk), bool)
    first[1:] = hk[1:] != hk[:-1]
    hk, hv = hk[first], hv[first]          # min base id per shared hash
    m = isin_sorted(hk, nh_s)
    k = nid_s[m]
    v = hv[np.searchsorted(hk, nh_s[m])]
    so = np.argsort(k)
    return k[so], v[so], bd[below], br[below]


def _below_rep(t: pa.Table) -> pa.Table:
    """(doc_id, rep_id) rows of docs with a smaller id than their rep."""
    did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    rep = t["rep_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    m = did < rep
    return pa.table({"doc_id": pa.array(did[m], pa.uint64()),
                     "rep_id": pa.array(rep[m], pa.uint64())})


def _one_sided_max(t: pa.Table) -> pa.Table:
    """(a, b) rows of two unique pair sets -> max(a, b) of every pair only
    one of them holds (a pair both hold arrives twice)."""
    a = t["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
    b = t["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
    o = np.lexsort((b, a))
    a, b = a[o], b[o]
    twin = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    one = np.ones(len(a), bool)
    one[1:] &= ~twin
    one[:-1] &= ~twin
    return pa.table({"doc_id": pa.array(np.maximum(a, b)[one], pa.uint64())})


def _span_changed_docs(pairs, n_pairs: int, base_cfg: MPLSHConfig,
                       cfg: MPLSHConfig, P: int) -> np.ndarray | None:
    """Sorted ids of the docs whose span set a fold changed: max(a, b),
    the doc a pair's spans are cut from, of every pair in exactly one of
    the joint S9 pairs and the base run's ``substr_pairs``. A pair's spans
    are a function of its two texts, so a pair in both keeps them. None
    when the set overflows ``DELTA_MAX_DOCS``."""
    one_sided = local_or_exchange(
        pairs.union(_base_stage_ds(base_cfg, cfg, "substr_pairs")),
        ("a", "b"), _one_sided_max, P,
        n_rows=n_pairs + _stage_rows(base_cfg, "substr_pairs"),
        local_max_rows=cfg.local_state_max_rows, schema=PAIRS_SCHEMA)
    t = gather_capped(one_sided, DELTA_MAX_DOCS,
                      pa.schema([("doc_id", pa.uint64())]))
    return None if t is None else np.unique(t["doc_id"].to_numpy())


def _keep_delta(marked, labels, new_reps: np.ndarray, docs: np.ndarray):
    """The delta rows of a fold's marked corpus: every member of a cluster
    a new doc is in (cluster_id and is_canonical can change only there)
    and the sorted ``docs``. A new doc's cluster is its rep's S7 label, as
    ``assign_and_mark`` sets it, so the cluster set is built on the driver
    from the shard's reps and the filter rides the output map."""
    import ray

    lk, lv = gather_kv(labels, "doc_id", "cluster_id")
    ref = ray.put((np.unique(lookup_u64(lk, lv, new_reps, default=new_reps)),
                   docs))

    def keep(t: pa.Table) -> pa.Table:
        clusters, docs_ = cached_get(ref)
        cid = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.filter(pa.array(isin_sorted(clusters, cid) |
                                 isin_sorted(docs_, did)))

    return marked.map_batches(keep, batch_format="pyarrow")


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
    (pinned by tests/test_incremental.py). With the substring pass on, a
    doc's span set changed iff one of its pairs joined or left the S9 pair
    set, which delta mode finds against the base run's ``substr_pairs``
    checkpoint. It degrades to joint output (``counters["output_mode"]``)
    rather than failing: ``"joint_fallback"`` when the base kept no
    ``substr_pairs``, ``"joint_overflow"`` when the changed set outgrows
    the driver.

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
    corpus's state. A fold writes no other checkpoint."""
    import ray

    if output not in ("joint", "delta"):
        raise ValueError(f"output must be 'joint' or 'delta', got "
                         f"{output!r}")
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
                      "base_resumed": True, "output_mode": output}
    t0 = time.monotonic()

    base_docs = _base_stage_ds(base_cfg, cfg, "docs")
    base_sigs = _base_stage_ds(base_cfg, cfg, "sigs")
    base_verified = _base_stage_ds(base_cfg, cfg, "verified")

    def lap(name: str, _t=[t0]) -> None:
        now = time.monotonic()
        counters[f"t_{name}"] = round(now - _t[0], 3)
        _t[0] = now

    # S1-S2 on the new shard only; its slim columns on the driver (the
    # shard-sized bound every driver set of the fold keeps)
    new_docs = exact_dedup_stage(
        docs_stage(new_pages, cfg, extract=extract, url_col=url_col,
                   text_col=text_col, lang_col=lang_col), cfg, P)
    new_docs = new_docs.materialize()
    nd, nr, nh = gather_columns(new_docs, "doc_id", "rep_id", "text_hash")
    lap("new_docs")

    # exact-text adoption: a new doc whose text byte-equals a base doc
    # joins the base rep's group (so its signature is never recomputed).
    # The base docs are read as a slim projection — no TEXT (the
    # full-width base_docs read above is reserved for the output union).
    # It also yields the docs earlier folds adopted (see `adopted` below).
    base_slim = _base_stage_ds(base_cfg, cfg, "docs",
                               columns=["doc_id", "rep_id", "text_hash"])
    is_rep = nd == nr
    if is_rep.sum() <= cfg.broadcast_max_docs:
        # daily-crawl fast path: one probe scan of the base projection
        ak, av, bd, br = _base_probe(nd[is_rep], nh[is_rep], base_slim)
        counters["adoption_path"] = "broadcast"
    else:
        # a shard sized like the archive: a text_hash-keyed exchange, and
        # a second scan for the below-rep docs
        def reps(ds):
            return ds.map_batches(_only_reps, batch_format="pyarrow") \
                .select_columns(["doc_id", "text_hash"])

        ak, av = _adoption_map(reps(new_docs), reps(base_slim), P)
        bd, br = gather_columns(
            base_slim.map_batches(_below_rep, batch_format="pyarrow"),
            "doc_id", "rep_id")
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
    # earlier folds adopted, found by the slim scan above
    m = isin_sorted(ak, nr)
    nr = lookup_u64(ak, av, nr, default=nr)     # the shard's adopted reps
    adopted = (np.concatenate([nd[m], bd]), np.concatenate([nr[m], br]))
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
    # checkpointed sigs — cheap), then drop pairs not touching a new rep:
    # base-base pairs are already in the base 'verified' checkpoint
    nref = ray.put(np.sort(nd[nd == nr]))

    def keep_new(batch: pa.Table) -> pa.Table:
        nid = cached_get(nref)
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.filter(pa.array(isin_sorted(nid, a) |
                                     isin_sorted(nid, b)))

    pairs = candidate_pairs(sigs, cfg, P, n_docs, counters) \
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
    labels = connected_components(verified, cfg, P,
                                  n_edges=counters["n_verified"]) \
        .materialize()
    lap("cc")
    marked = assign_and_mark(docs_all, labels, cfg, adopted=adopted)
    lap("mark")

    changed = np.empty(0, np.uint64)     # docs whose span set changed
    if not skip_substring:
        # the one S9 pass over the joint corpus; its checkpoints are
        # written under save_as only, to keep the saved state complete
        # for the next fold in the chain
        s9_pairs, spans = _substring_spans(
            marked, save_cfg or dataclasses.replace(cfg, ckpt_dir=""), P)
        counters["n_substr_pairs_fresh"] = n_pairs = s9_pairs.count()
        counters["n_substr_pairs_reused"] = 0
        if output == "delta":
            if not manifest_valid(base_cfg, "substr_pairs"):
                counters["output_mode"] = "joint_fallback"
            else:
                changed = _span_changed_docs(s9_pairs, n_pairs, base_cfg,
                                             cfg, P)
                if changed is None:
                    counters["output_mode"] = "joint_overflow"

    target = marked
    if counters["output_mode"] == "delta":
        target = _keep_delta(marked, labels, nr, changed)
    out = final_text_unchanged(target) if skip_substring \
        else _apply_spans(target, spans, cfg)

    lap("label_mark_substring_lazy")
    counters["wall_s"] = time.monotonic() - t0
    return DedupResult(docs=docs_all, sigs=sigs, pairs=pairs,
                       verified=verified, labels=labels, dedup_out=out,
                       counters=counters)
