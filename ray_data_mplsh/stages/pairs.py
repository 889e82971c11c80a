"""S5: bucket grouping -> candidate pairs, with hot-bucket handling
(SURVEY.md ops 14-16; BASELINE.json:6 "groupby-aggregate shuffle keyed on
(band_id, band_hash) with explicit salting for hot-bucket skew").

One coarse-partitioned shuffle on ``band_hash`` (the hash already
namespaces band_id + probe mask, so it IS the (band_id, band_hash) key).
Inside a partition, a NumPy sort groups buckets, and ``_pairs_of_runs``
pairs all of them in one vectorized pass (no Python loop per bucket —
with T probes a doc has b(1+T) keys, so bucket pairing runs per key):

* bucket size <= bucket_cap: all C(g,2) pairs, each as (min, max), so
  the order of ids inside a bucket does not matter;
* bucket size  > bucket_cap: STAR pairing (every member <-> min doc_id),
  which preserves union-find connectivity at O(g) pairs and bounds any
  single bucket's fan-out (SURVEY.md op 15 straggler bound);
* with cfg.salt_shards > 1 every bucket is split by doc_id into shards:
  the pairing runs on a salted key, one exact (band_hash, doc_id % S)
  bucket each, and connectivity across shards is restored by a second
  pairing that star-links the per-shard minima on the unsalted band_hash.

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

``bucket_pairs`` is that whole step — keyed rows -> unique (a, b) pairs —
as the one operator every LSH key stream composes: S4-S5 band keys
(``candidate_pairs``), S9 winnow fingerprints (``output._fp_pairs``,
``q_substring_candidates``) and the SimHash block/probe keys
(``simhash.simhash_pairs``). When the keyed rows fit
``cfg.local_state_max_rows`` they are emitted and bucketed in one driver
pass (``prep`` derives them from the materialized input), with no
exchange; else the key exchange, then ``dedup_pairs``.

``candidate_pairs`` is S4-S5 as the pipelines run them: ``bucket_pairs``
over the n_docs x bands x (1 + probes) key stream, salted or not;
``pairs_stage`` runs the same plan over emitted band keys.

The emitters that feed a pairing exchange are bundled for large corpora
only (``emit_batch_size`` for band keys, ``_bundle_batch_size`` for
winnow fingerprints; both gated by ``BUNDLE_MIN_DOCS``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import mix64
from ray_data_mplsh.stages.bands import BAND_SCHEMA, make_band_emitter
from ray_data_mplsh.stages.shuffle import (
    group_runs, local_or_exchange, partition_apply, runs_local,
)

PAIRS_SCHEMA = pa.schema([("a", pa.uint64()), ("b", pa.uint64())])
SALTED = "salted_hash"

# large-corpus gate for bundling the emitters that feed a pairing
# exchange (emit_batch_size, _bundle_batch_size): there, bundling wins
# only when the exchange's block x partition object count dominates, and
# small corpora pipeline better unbundled. This is about those emitters
# only: the corpus passes are bundled at every size by S1
# (docs.DOCS_BATCH_ROWS), since on 1 CPU 31 reader-sized tasks paid
# 0.48-0.50 s for 0.16 s of S1+S2 work and 0.42 s for 0.08 s of rewrite.
# Module-level so tests can lower them and pin bundled == unbundled
# bit-equality on a fixture-sized corpus.
BUNDLE_MIN_DOCS = 32768
BUNDLE_MIN_BYTES = 32 << 20


def emit_batch_size(n_docs: int | None) -> int | None:
    """The band emitter's ``batch_size``. When the caller knows ``n_docs``
    (run_dedup does — it counts the materialized signatures) and the
    corpus is large (>= ``BUNDLE_MIN_DOCS``), the emitter's input is
    bundled into ~64 data-sized blocks: the key stream feeds a
    sort-exchange that pays one shuffle object per (block x partition),
    and 256 x 64 objects measured 2-3x slower than 64 x 64 on the
    150k-doc scaling fixture. Below the gate (None) the exchange reads
    the signature blocks as S3 wrote them, one per S3 task of >= 1,024
    rows (``docs.DOCS_BATCH_ROWS``), and the local branch of
    ``bucket_pairs`` reads them on the driver with no exchange at all.
    The bundle size is a pure function of the data (never the cluster),
    keeping the physical plan identical across cluster sizes — the
    scaling-bench invariant. Sig rows are fixed-width (~num_perm x 8B),
    so an 8192-row cap bounds any bundle at a few MB."""
    if n_docs and n_docs >= BUNDLE_MIN_DOCS:
        return int(min(8192, max(512, n_docs // 64)))
    return None


def _bundle_batch_size(n_canon: int, text_bytes: int) -> int | None:
    """Batch size of the S9 fingerprint emitter that feeds the pairing
    exchange. LARGE corpora only: bundle the emitter's input so its
    OUTPUT blocks are few and big — at scale the canonical blocks hold
    far fewer rows than a bundle, and a sort-exchange pays one shuffle
    object per (block x partition); 256 blocks x 64 partitions measured
    2-3x slower than 64 x 64 on the 150k-doc scaling fixture (16cpu leg
    71.3s -> 47.5s). Sized by BYTES (~32 MB of text per bundle — docs
    vary 100x in length); small canonical sets keep the unbundled plan
    (None: one call per block) into the exchange. Their blocks follow
    S1's grid of >= 1,024-row tasks (docs.DOCS_BATCH_ROWS), not the
    reader's slivers, so this gate does not set a small corpus's
    per-task cost. The gate is a pure function of the (canonical-set)
    data, never the cluster — the scaling-bench invariant."""
    if n_canon >= BUNDLE_MIN_DOCS and text_bytes >= BUNDLE_MIN_BYTES:
        avg_doc = max(1, text_bytes // max(n_canon, 1))
        return int(min(8192, max(512, BUNDLE_MIN_BYTES // avg_doc)))
    return None


def _pairs_of_runs(ids: np.ndarray, starts: np.ndarray, cap: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a < b) of the runs ``ids[starts[i]:starts[i + 1]]`` of a
    grouped id array, each run in any order: all C(g, 2) pairs of a run
    of g <= ``cap`` ids, and for a bigger run (every run if ``cap`` is 0)
    its min id paired with each other id. Self-pairs (a repeated id) are
    dropped; a pair two runs find is kept twice. No Python loop over
    runs: the clique pairs come in one ``np.repeat`` shot, the star
    anchors from one ``np.minimum.reduceat``."""
    sizes = np.diff(starts)
    multi = sizes >= 2                    # a singleton run pairs nothing
    ids, sizes = ids[np.repeat(multi, sizes)], sizes[multi]
    is_star = sizes > cap
    on_star = np.repeat(is_star, sizes)
    # clique runs: element p of a run of g pairs with the g-1-p after it
    cids, cg = ids[~on_star], sizes[~is_star]
    after = np.repeat(cg, cg) - 1 - _pos_in_runs(cg)
    ia = np.repeat(np.arange(len(cids)), after)
    ib = ia + 1 + _pos_in_runs(after)
    x, y = cids[ia], cids[ib]
    # star runs: every member against the run's min id
    sids, sg = ids[on_star], sizes[is_star]
    anchor = np.repeat(np.minimum.reduceat(sids, np.cumsum(sg) - sg), sg) \
        if len(sids) else sids
    a = np.concatenate([np.minimum(x, y), anchor])
    b = np.concatenate([np.maximum(x, y), sids])
    keep = a != b
    return a[keep], b[keep]


def _pos_in_runs(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., g-1 for each run size g, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes,
                                              sizes)


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
    winnow ``fp``, SimHash ``band_hash``) and emit each bucket's pairs,
    locally deduped (cheap; the global dedup happens in dedup_pairs)."""
    def fn(part: pa.Table) -> pa.Table:
        key = part[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order, starts = group_runs(key, stable=False)
        a, b = _pairs_of_runs(ids[order], starts, cap)
        u = unique_pair_rows(a, b)
        return pa.Table.from_arrays([pa.array(a[u], pa.uint64()),
                                     pa.array(b[u], pa.uint64())],
                                    schema=PAIRS_SCHEMA)
    return fn


def bucket_pairs(ds, key: str, cap: int, num_partitions: int, *,
                 n_rows: int, local_max_rows: int, schema: pa.Schema,
                 prep=None, batch_size: int | None = None):
    """Keyed (``key``, doc_id) rows -> unique candidate pairs (a, b): every
    bucket of equal ``key`` paired by ``_emit_pairs_fn`` (all pairs up to
    ``cap`` members, a star at the min id above), on
    ``shuffle.local_or_exchange`` with its ``n_rows`` / ``local_max_rows``
    gate, ``schema`` projection and map-side ``prep`` (``batch_size``
    rows per call on the exchange). Bit-equal on both branches, because
    each bucket is wholly in one call either way and _pairs_of_runs is
    order-independent (each pair emitted as (min, max); pinned by
    tests/test_pairs.py). The local pass sees every bucket, so its own
    unique is the global one; the exchange's pairs go through
    ``dedup_pairs`` to merge those several partitions found."""
    pairs = local_or_exchange(
        ds, key, _emit_pairs_fn(key, cap), num_partitions, n_rows=n_rows,
        local_max_rows=local_max_rows, schema=schema, prep=prep,
        batch_size=batch_size)
    if runs_local(n_rows, local_max_rows):
        return pairs
    return dedup_pairs(pairs, num_partitions, local_max_rows=local_max_rows)


def _salted(shards: int, prep):
    """``prep``'s band keys plus ``salted_hash``, the key of the exact
    (band_hash, doc_id % ``shards``) bucket: one-to-one in band_hash per
    shard, so two shards meet only on a 64-bit coincidence."""
    def fn(t: pa.Table) -> pa.Table:
        t = prep(t) if prep is not None else t
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bh = t["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        salted = bh ^ mix64(ids % np.uint64(shards))
        return t.append_column(SALTED, pa.array(salted, pa.uint64()))
    return fn


def _shard_minima(part: pa.Table) -> pa.Table:
    """Per salted bucket, its band_hash and min doc_id: the shard's anchor
    for the cross-shard star."""
    key = part[SALTED].to_numpy(zero_copy_only=False).astype(np.uint64)
    bh = part["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order, starts = group_runs(key, stable=False)
    first = starts[:-1]
    lo = np.minimum.reduceat(ids[order], first) if len(ids) else ids
    return pa.Table.from_arrays([pa.array(lo, pa.uint64()),
                                 pa.array(bh[order][first], pa.uint64())],
                                schema=BAND_SCHEMA)


def _band_pairs(ds, cfg: MPLSHConfig, num_partitions: int, n_keys: int, *,
                schema: pa.Schema, prep=None, batch_size: int | None = None):
    """S5 over the ``n_keys`` band keys ``prep`` derives from ``ds``: one
    ``bucket_pairs`` on band_hash. Salted, that runs on the salted key,
    and a cap-0 ``bucket_pairs`` on band_hash star-links the shard
    minima. Within-shard pairs join docs of one shard and cross-shard
    pairs docs of two, so their union is unique. Every bucket is exact
    and every step takes the branch ``n_keys`` chooses: the pairs
    depend only on (data, cfg)."""
    salted = cfg.salt_shards > 1
    kw = dict(n_rows=n_keys, local_max_rows=cfg.local_state_max_rows,
              schema=schema, batch_size=batch_size,
              prep=_salted(cfg.salt_shards, prep) if salted else prep)
    pairs = bucket_pairs(ds, SALTED if salted else "band_hash",
                         cfg.bucket_cap, num_partitions, **kw)
    if not salted:
        return pairs
    minima = local_or_exchange(ds, SALTED, _shard_minima, num_partitions,
                               **kw)
    kw.update(schema=BAND_SCHEMA, prep=None, batch_size=None)
    return pairs.union(bucket_pairs(minima, "band_hash", 0, num_partitions,
                                    **kw))


def candidate_pairs(sigs, cfg: MPLSHConfig, num_partitions: int,
                    n_docs: int, counters: dict | None = None):
    """Materialized sigs (doc_id, sig) of ``n_docs`` rows -> deduped
    candidate pairs (a, b): S4 and S5 as ``_band_pairs`` over the band
    keys, which the band emitter derives from the signatures (on the
    exchange map-side, bundled by ``emit_batch_size``).
    ``counters["pairs_path"]`` records the branch that ran."""
    n_keys = n_docs * cfg.bands * (1 + cfg.probes)
    if counters is not None:
        counters["pairs_path"] = "local" if runs_local(
            n_keys, cfg.local_state_max_rows) else "exchange"
    schema = pa.schema([("doc_id", pa.uint64()),
                        ("sig", pa.list_(pa.uint64(), cfg.num_perm))])
    return _band_pairs(sigs, cfg, num_partitions, n_keys, schema=schema,
                       prep=make_band_emitter(cfg),
                       batch_size=emit_batch_size(n_docs))


def pairs_stage(band_keys, cfg: MPLSHConfig, num_partitions: int):
    """band_keys (doc_id, band_hash) -> pairs (a, b): S5 alone, the plan of
    ``candidate_pairs`` over the materialized keys."""
    band_keys = band_keys.materialize()
    return _band_pairs(band_keys, cfg, num_partitions, band_keys.count(),
                       schema=BAND_SCHEMA)


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
    extra pair columns (embedding cosine)."""
    if local_max_rows <= 0:
        return partition_apply(pairs, ("a", "b"), _unique_pairs,
                               num_partitions)
    pairs = pairs.materialize()
    return local_or_exchange(pairs, ("a", "b"), _unique_pairs,
                             num_partitions, n_rows=pairs.count(),
                             local_max_rows=local_max_rows,
                             schema=PAIRS_SCHEMA)
