"""S5: bucket grouping -> candidate pairs, with hot-bucket handling
(SURVEY.md ops 14-16; BASELINE.json:6 "groupby-aggregate shuffle keyed on
(band_id, band_hash) with explicit salting for hot-bucket skew").

One coarse-partitioned shuffle on ``band_hash`` (the hash already
namespaces band_id + probe mask, so it IS the (band_id, band_hash) key).
Inside a partition, a NumPy sort groups buckets:

* bucket size <= bucket_cap: all C(g,2) pairs (size-2 runs — the vast
  majority — fully vectorized; bigger runs via triu_indices);
* bucket size  > bucket_cap: STAR pairing (every member <-> min doc_id),
  which preserves union-find connectivity at O(g) pairs and bounds any
  single bucket's fan-out (SURVEY.md op 15 straggler bound);
* with cfg.salt_shards > 1 the shuffle key is salted by doc_id, splitting
  every bucket across shards; connectivity across shards is restored by
  star-linking the per-shard minima through a second, tiny shuffle keyed
  on the unsalted band_hash.

Recall caveat (documented bound, not a bug): star pairing (hot buckets
over ``bucket_cap``, and all cross-shard links when ``salt_shards > 1``)
preserves connectivity only THROUGH the anchor edges, and those edges
must still pass the est-Jaccard verification gate. An anchor that is not
similar enough to a member can split a component that member-member edges
would have held together. This matches the single-process oracle for the
unsalted case (the oracle stars identically), but salted cross-shard star
links have no oracle analogue: connectivity there is conditional on
anchor edges surviving verification. The alternative — exempting star
links from the Jaccard gate — would trade this recall loss for precision
loss (unverified transitive merges); the recall gate (§2.5 op 29, >=0.99
on the fixture) is the guard that the configured cap/salt settings keep
the loss negligible.

``dedup_pairs`` then deduplicates pairs found via multiple bands/probes
(op 16) with ``shuffle.local_or_exchange`` on the (a, b) key: one driver
pass for a driver-sized pair set, else a second shuffle — the same pair
always lands in one partition, so a per-partition unique is globally
exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.stages.shuffle import (
    group_runs, local_or_exchange, partition_apply,
)

PAIRS_SCHEMA = pa.schema([("a", pa.uint64()), ("b", pa.uint64())])


def _pairs_of_runs(ids: np.ndarray, starts: np.ndarray, cap: int,
                   star_only: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a<b) for each run of a sorted-by-key id array."""
    sizes = np.diff(starts)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    # size-2 runs, vectorized in one shot
    two = np.flatnonzero(sizes == 2)
    if len(two):
        x = ids[starts[two]]
        y = ids[starts[two] + 1]
        out_a.append(np.minimum(x, y))
        out_b.append(np.maximum(x, y))
    # larger runs
    for ri in np.flatnonzero(sizes > 2):
        run = np.sort(ids[starts[ri]:starts[ri + 1]])
        g = len(run)
        if g <= cap and not star_only:
            i, j = np.triu_indices(g, k=1)
            out_a.append(run[i])
            out_b.append(run[j])
        else:  # star: anchor = min id
            out_a.append(np.full(g - 1, run[0], dtype=np.uint64))
            out_b.append(run[1:])
    if not out_a:
        e = np.empty(0, dtype=np.uint64)
        return e, e
    return np.concatenate(out_a), np.concatenate(out_b)


def unique_pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row indices of the first occurrence of each distinct (a, b), in
    (a, b) order — an exact lexsort, not a hashed key (a key collision
    would DROP a distinct pair)."""
    o = np.lexsort((b, a))
    if len(o) == 0:
        return o
    sa, sb = a[o], b[o]
    return o[np.concatenate(([True], (sa[1:] != sa[:-1]) |
                             (sb[1:] != sb[:-1])))]


def _emit_pairs_fn(key_col: str, cap: int):
    """Per partition: group rows by ``key_col`` (S5 ``band_hash``, S9
    winnow ``fp``) and emit each bucket's pairs, locally deduped (cheap;
    the global dedup happens in dedup_pairs)."""
    def fn(part: pa.Table) -> pa.Table:
        key = part[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order, starts = group_runs(key)
        a, b = _pairs_of_runs(ids[order], starts, cap)
        keep = a != b
        a, b = a[keep], b[keep]
        u = unique_pair_rows(a, b)
        return pa.Table.from_arrays([pa.array(a[u], pa.uint64()),
                                     pa.array(b[u], pa.uint64())],
                                    schema=PAIRS_SCHEMA)
    return fn


def _shard_minima_fn(part: pa.Table) -> pa.Table:
    """Per (band_hash) bucket: link all shard minima to the global minimum."""
    bh = part["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order, starts = group_runs(bh)
    a, b = _pairs_of_runs(ids[order], starts, cap=0, star_only=True)
    keep = a != b
    return pa.Table.from_arrays([pa.array(a[keep], pa.uint64()),
                                 pa.array(b[keep], pa.uint64())],
                                schema=PAIRS_SCHEMA)


def _add_salt(cfg: MPLSHConfig):
    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        salt = (ids % np.uint64(cfg.salt_shards)).astype(np.uint64)
        return batch.append_column("salt", pa.array(salt, pa.uint64()))
    return fn


def _shard_min_emit(part: pa.Table) -> pa.Table:
    """Within a salted partition: one row per (band_hash) run carrying the
    run's min doc_id — the shard's representative for cross-shard linking."""
    bh = part["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order, starts = group_runs(bh)
    sizes = np.diff(starts)
    sel = sizes >= 1
    run_min = np.minimum.reduceat(ids[order], starts[:-1]) if len(ids) else \
        np.empty(0, np.uint64)
    return pa.Table.from_arrays([
        pa.array(bh[order][starts[:-1]][sel], pa.uint64()),
        pa.array(run_min[sel], pa.uint64()),
    ], names=["band_hash", "doc_id"])


def pairs_stage(band_keys, cfg: MPLSHConfig, num_partitions: int):
    """band_keys (doc_id, band_hash) -> pairs (a, b)."""
    emit = _emit_pairs_fn("band_hash", cfg.bucket_cap)
    if cfg.salt_shards > 1:
        salted = band_keys.map_batches(_add_salt(cfg), batch_format="pyarrow")
        within = partition_apply(salted, "band_hash", emit,
                                 num_partitions, salt_col="salt")
        minima = partition_apply(salted, "band_hash", _shard_min_emit,
                                 num_partitions, salt_col="salt")
        cross = partition_apply(minima, "band_hash", _shard_minima_fn,
                                num_partitions)
        pairs = within.union(cross)
    else:
        pairs = partition_apply(band_keys, "band_hash", emit,
                                num_partitions)
    return dedup_pairs(pairs, num_partitions,
                       local_max_rows=cfg.local_state_max_rows)


def _unique_pairs(part: pa.Table) -> pa.Table:
    # exact (a, b) dedup — the pair key only routes (hash collisions
    # there merely co-locate; deduping BY hash could drop a distinct pair)
    a = part["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
    b = part["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
    return part.take(pa.array(unique_pair_rows(a, b)))


def dedup_pairs(pairs, num_partitions: int, *, local_max_rows: int = 0):
    """Global pair dedup (op 16) keyed on the (a, b) pair. With
    ``local_max_rows`` > 0 the pair set is materialized and goes through
    ``local_or_exchange``: if its count fits, one driver-side pass — a
    shuffle on a few-MB pair list costs more in fixed latency than it
    buys (hybrid split, cfg.local_state_max_rows) — else the (a, b)
    exchange. ``local_max_rows=0`` always exchanges with every column
    riding along, first row per pair: the route of web-scale pair
    volumes, of the forced-exchange tests and of the producers with
    extra pair columns (simhash, embedding cosine)."""
    if local_max_rows <= 0:
        return partition_apply(pairs, ("a", "b"), _unique_pairs,
                               num_partitions)
    pairs = pairs.materialize()
    return local_or_exchange(pairs, ("a", "b"), _unique_pairs,
                             num_partitions, n_rows=pairs.count(),
                             local_max_rows=local_max_rows,
                             schema=PAIRS_SCHEMA)
