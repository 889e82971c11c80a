"""S2: exact dedup — hash-partition + per-group min (SURVEY.md op 23).

Adds ``text_hash`` in a vectorized pass, then groups equal hashes with
``shuffle.local_or_exchange`` (one driver numpy pass for a driver-sized
corpus, else one coarse-partitioned shuffle); inside each group run a
NumPy sort makes the min doc_id the representative ([Lee22 §2] pre-pass;
kills bucket skew from identical pages before MinHash).

Output = input schema + ``rep_id``: representatives have
``rep_id == doc_id``; exact-dup members carry their representative's id
(consumed at S8 to give every member its cluster).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import hash_str_array
from ray_data_mplsh.stages.shuffle import (
    cached_get, gather_kv, group_runs, local_or_exchange, lookup_u64,
    partition_apply, sized_partitions,
)


def add_text_hash(batch: pa.Table) -> pa.Table:
    th = hash_str_array(batch["text"])
    return batch.append_column("text_hash", pa.array(th, pa.uint64()))


def _assign_reps(part: pa.Table) -> pa.Table:
    th = part["text_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order, starts = group_runs(th)
    sorted_ids = ids[order]
    rep = np.empty(len(ids), dtype=np.uint64)
    # per-run min via minimum.reduceat over the sorted view
    if len(ids):
        run_min = np.minimum.reduceat(sorted_ids, starts[:-1])
        sizes = np.diff(starts)
        rep[order] = np.repeat(run_min, sizes)
    return part.append_column("rep_id", pa.array(rep, pa.uint64()))


def _rep_member_pairs(part: pa.Table) -> pa.Table:
    """(doc_id, rep_id) rows for DUP MEMBERS ONLY (rep != doc) — the
    broadcast-side payload of the hybrid path."""
    th = part["text_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order, starts = group_runs(th)
    sorted_ids = ids[order]
    if len(ids) == 0:
        e = np.empty(0, np.uint64)
        return pa.Table.from_arrays([pa.array(e, pa.uint64()),
                                     pa.array(e, pa.uint64())],
                                    names=["doc_id", "rep_id"])
    run_min = np.minimum.reduceat(sorted_ids, starts[:-1])
    rep = np.repeat(run_min, np.diff(starts))
    member = sorted_ids != rep
    return pa.Table.from_arrays([
        pa.array(sorted_ids[member], pa.uint64()),
        pa.array(rep[member], pa.uint64()),
    ], names=["doc_id", "rep_id"])


def exact_dedup_stage(docs, cfg: MPLSHConfig, num_partitions: int):
    """docs -> docs + (text_hash, rep_id).

    Hybrid: the dup-member map comes from the SLIM (doc_id, text_hash)
    projection only, through ``local_or_exchange`` (one driver pass under
    ``cfg.local_state_max_rows`` docs, else a text_hash-keyed exchange of
    the projection);
    when it fits ``cfg.broadcast_max_docs`` it is broadcast and rep_id is
    annotated map-side, so the wide text column never crosses the wire.
    Above the threshold, the full sorted-shuffle path co-locates equal
    hashes (the 10^12-doc route, where the member map itself is too big
    for one node)."""
    import ray

    hashed = docs.map_batches(add_text_hash,
                              batch_format="pyarrow").materialize()
    # hashed is materialized, so count() is metadata — both the hybrid
    # split and the exchange width key off the real corpus size
    n_corpus = hashed.count()
    pe = sized_partitions(n_corpus, num_partitions)
    # the local branch gathers a driver-sized corpus whole (a materialized
    # Dataset reads without a job); above the substring pass's text bound
    # it is projected first, in a job, so its text never reaches the driver
    src = hashed if hashed.size_bytes() <= cfg.substr_broadcast_max_bytes \
        else hashed.select_columns(["doc_id", "text_hash"])
    members = local_or_exchange(
        src, "text_hash", _rep_member_pairs, pe, n_rows=n_corpus,
        local_max_rows=cfg.local_state_max_rows,
        schema=pa.schema([("doc_id", pa.uint64()),
                          ("text_hash", pa.uint64())])).materialize()
    if members.count() > cfg.broadcast_max_docs:
        return partition_apply(hashed, "text_hash", _assign_reps, pe)
    ref = ray.put(gather_kv(members, "doc_id", "rep_id"))

    def annotate(batch: pa.Table) -> pa.Table:
        keys, vals = cached_get(ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        rep = lookup_u64(keys, vals, ids, default=ids)
        return batch.append_column("rep_id", pa.array(rep, pa.uint64()))

    return hashed.map_batches(annotate, batch_format="pyarrow")
