"""The engine's shuffle primitive: coarse key-partitioned apply.

Why not ``groupby(fine_key).map_groups(fn)`` directly?  At web scale the
band-key table has ~one group per row (most LSH buckets are singletons);
Ray invokes the ``map_groups`` callback once per group, so a 10^9-bucket
table would pay 10^9 Python calls. Instead we group by a COARSE partition
key — ``hash(fine_key) % P`` with P ≈ 2x cluster CPUs — which gives one
Python call per partition, and the callback does the fine-grained grouping
itself with C-level NumPy sorts (SURVEY.md §4.3 "partitioning").

This is still one genuine all-to-all exchange per call (Ray's sort-based
shuffle on the partition column), it just right-sizes the Python-boundary
granularity. Rows with equal fine keys always land in the same partition,
so per-partition dedup/grouping is globally correct.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

from ray_data_mplsh.functions.hashing import mix64


def default_partitions(requested: int = 0) -> int:
    if requested > 0:
        return requested
    try:
        import ray
        if ray.is_initialized():
            return max(2 * int(ray.cluster_resources().get("CPU", 8)), 16)
    except Exception:
        pass
    return 16


_GET_CACHE: dict = {}


def cached_get(ref):
    """Per-worker-process memoized ``ray.get``: broadcast payloads (numpy
    arrays / Arrow tables) deserialize zero-copy, and the cache makes the
    per-task cost of re-resolving a ref ~zero, so cheap broadcast-lookup
    stages can be plain TASK functions (reusing warm workers) instead of
    actor pools (which pay a fresh pool spin-up per stage). Actor pools
    stay reserved for genuinely expensive per-actor setup (SURVEY.md §2.3).
    """
    import ray

    try:
        return _GET_CACHE[ref]
    except KeyError:
        val = ray.get(ref)
        if len(_GET_CACHE) > 16:
            _GET_CACHE.clear()
        _GET_CACHE[ref] = val
        return val


_TASK_CACHE: dict = {}


def task_local(key, make: Callable[[], object]):
    """Per-worker-process memo of a plain-task stage's setup (a
    MinHasher's permutation params, a scanner's pattern registry): built
    by ``make()`` on first use in a process, reused by every later task
    there — the task-shaped replacement of an actor pool's ``__init__``,
    which holds no CPU between batches, so it cannot starve the upstream
    read on a small cluster."""
    try:
        return _TASK_CACHE[key]
    except KeyError:
        return _TASK_CACHE.setdefault(key, make())


def _u64(t: pa.Table, col: str) -> np.ndarray:
    return t[col].to_numpy(zero_copy_only=False).astype(np.uint64)


def _route_hash(batch: pa.Table, key) -> np.ndarray:
    """mix64 routing hash of ``key``: one column, or a tuple of columns
    folded as ``mix64(c1) ^ mix64(c2) ...`` (an (a, b) pair key)."""
    if isinstance(key, str):
        return mix64(_u64(batch, key))
    h = np.zeros(batch.num_rows, np.uint64)
    for c in key:
        h ^= mix64(_u64(batch, c))
    return mix64(h)


def partition_on(ds, key, num_partitions: int, *,
                 salt_col: str | None = None):
    """Add a ``_part`` column = hash(key) % P, ``key`` being one column or
    a tuple of columns. With ``salt_col``, the salt is folded in, sharding
    hot keys across partitions (hot-bucket salting, SURVEY.md op 15);
    callers must then link shards explicitly."""

    def add_part(batch: pa.Table) -> pa.Table:
        h = _route_hash(batch, key)
        if salt_col is not None:
            h = mix64(h ^ mix64(_u64(batch, salt_col)))
        part = (h % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("_part", pa.array(part, pa.int32()))

    return ds.map_batches(add_part, batch_format="pyarrow")


def partition_apply(ds, key, fn: Callable[[pa.Table], pa.Table],
                    num_partitions: int, *, salt_col: str | None = None):
    """Shuffle ``ds`` so all rows with equal ``key`` (a column, or a tuple
    of columns) are in one partition, then apply ``fn`` once per partition
    (fn sees a pa.Table WITHOUT the ``_part`` helper column and must do its
    own within-partition grouping)."""

    def per_part(part: pa.Table) -> pa.Table:
        return fn(part.drop_columns(["_part"]))

    parted = partition_on(ds, key, num_partitions, salt_col=salt_col)
    return parted.groupby("_part").map_groups(per_part, batch_format="pyarrow")


def runs_local(n_rows: int, local_max_rows: int) -> bool:
    """The hybrid gate of ``local_or_exchange``: ``n_rows`` fit the
    driver-side budget, and ``local_max_rows=0`` always exchanges."""
    return 0 < local_max_rows and n_rows <= local_max_rows


def local_or_exchange(ds, key, fn: Callable[[pa.Table], pa.Table],
                      num_partitions: int, *, n_rows: int,
                      local_max_rows: int, schema: pa.Schema,
                      prep: Callable[[pa.Table], pa.Table] | None = None,
                      batch_size: int | None = None):
    """The engine's hybrid split: run a partition-local ``fn`` (one that
    groups by ``key`` inside its input, as every ``partition_apply`` fn
    does) ONCE on the driver over all of ``ds`` when its ``n_rows`` fit
    ``local_max_rows`` — a sort-shuffle has ~1s fixed latency, a few-MB
    state is one numpy pass — else per partition through
    ``partition_apply``. Both give the same rows, since every key group
    lies wholly in one call either way. ``n_rows`` is a size the caller
    already holds (an exact count or a data-derived estimate), so the
    choice launches no job; ``local_max_rows=0`` always exchanges (the
    forced-path switch).

    ``ds`` is projected to ``schema``'s columns here: on the driver by
    the local gather (which casts every batch to ``schema``, so an empty
    or differently-typed input still arrives well-formed, and a
    materialized ``ds`` is read without a job), as a Project op on the
    exchange. ``prep``, when given, maps those rows to ``fn``'s input
    (e.g. anchor lists to (fp, doc_id) rows) — on the driver over the
    gathered table, map-side (``batch_size`` rows per call, None = one
    call per block) before the exchange — so rows derived from a
    materialized Dataset cost no job of their own on the local branch."""
    if runs_local(n_rows, local_max_rows):
        t = gather_table(ds, schema)
        return from_arrow_blocks(fn(prep(t) if prep else t),
                                 target_rows=2048)
    ds = ds.select_columns(schema.names)
    if prep is not None:
        ds = ds.map_batches(prep, batch_format="pyarrow",
                            batch_size=batch_size)
    return partition_apply(ds, key, fn, num_partitions)


def pair_apply(pairs, side, col: str, kernel, num_partitions: int, *,
               payload_type: pa.DataType, broadcast: bool, batch_size: int):
    """The verify step of an LSH similarity join, shared by S6 verify, the
    S9 substring span pass and exact n-gram Jaccard: run
    ``kernel(a, b, col_a, col_b) -> pa.Table`` over the (a, b) rows of
    ``pairs``, where ``col_a`` / ``col_b`` are each end's ``side[col]``
    payload (Arrow arrays of ``payload_type``, looked up by ``doc_id``)
    and ``a`` / ``b`` are uint64 numpy arrays. A pair with an end absent
    from ``side`` never reaches the kernel. Every side row's payload is
    cast to ``payload_type``, so sides unioned from differently-typed
    sources (a checkpoint read and a fresh stage) attach uniformly.

    Precondition: each (a, b) appears in ``pairs`` at most once — the
    exchange plan keeps a pair only with exactly one row per end (a
    repeated pair is dropped), while the broadcast plan would run it
    twice.

    * ``broadcast``: ``side`` is gathered on the driver and put in the
      object store ONCE as (sorted ids, permutation, payload) — the
      permutation indirects lookups, so the payload is never reordered on
      the driver; each task reads it with ``cached_get``, resolves both
      ends with searchsorted and runs the kernel in the same
      ``map_batches`` (``batch_size`` pairs per call).
    * exchange (no driver materialization, no size cap): one request row
      per pair end (null payload) meets the side rows in a doc-keyed
      attach; attached ends are then routed by the (a, b) pair key — a
      routing hash only: pair identity is the exact (a, b), so a hash
      collision merely co-locates — and the combine runs the kernel once
      per partition.
    """
    def payload(t: pa.Table) -> pa.Array:
        arr = t[col].combine_chunks()
        return arr if arr.type == payload_type else arr.cast(payload_type)

    if broadcast:
        import ray

        t = gather_table(side, pa.schema([("doc_id", pa.uint64()),
                                          (col, payload_type)]))
        ids = _u64(t, "doc_id")
        perm = np.argsort(ids, kind="stable")
        ref = ray.put((ids[perm], perm, t[col].combine_chunks()))

        def lookup(batch: pa.Table) -> pa.Table:
            sids, sperm, pay = cached_get(ref)
            a, b = _u64(batch, "a"), _u64(batch, "b")
            last = max(len(sids) - 1, 0)
            ia = np.clip(np.searchsorted(sids, a), 0, last)
            ib = np.clip(np.searchsorted(sids, b), 0, last)
            ok = (sids[ia] == a) & (sids[ib] == b) if len(sids) \
                else np.zeros(len(a), bool)
            return kernel(a[ok], b[ok], pay.take(pa.array(sperm[ia[ok]])),
                          pay.take(pa.array(sperm[ib[ok]])))

        return pairs.map_batches(lookup, batch_format="pyarrow",
                                 batch_size=batch_size)

    names = ["key", "a", "b", "side", "payload"]

    def requests(t: pa.Table) -> pa.Table:
        a, b = _u64(t, "a"), _u64(t, "b")
        n = len(a)
        return pa.Table.from_arrays([
            pa.array(np.concatenate([a, b]), pa.uint64()),
            pa.array(np.concatenate([a, a]), pa.uint64()),
            pa.array(np.concatenate([b, b]), pa.uint64()),
            pa.array(np.repeat(np.array([0, 1], np.int8), n), pa.int8()),
            pa.nulls(2 * n, payload_type),
        ], names=names)

    def side_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        z = pa.array(np.zeros(n, np.uint64), pa.uint64())
        return pa.Table.from_arrays([
            pa.array(_u64(t, "doc_id"), pa.uint64()), z, z,
            pa.array(np.full(n, 2, np.int8), pa.int8()), payload(t),
        ], names=names)

    def attach(part: pa.Table) -> pa.Table:
        key = _u64(part, "key")
        is_side = part["side"].to_numpy(zero_copy_only=False) == 2
        skeys = key[is_side]
        order = np.argsort(skeys, kind="stable")
        skeys = skeys[order]
        pay = part["payload"].filter(pa.array(is_side)).combine_chunks() \
            .take(pa.array(order))
        reqs = part.filter(pa.array(~is_side))
        q = key[~is_side]
        i = np.clip(np.searchsorted(skeys, q), 0, max(len(skeys) - 1, 0))
        hit = (skeys[i] == q) if len(skeys) else np.zeros(len(q), bool)
        reqs = reqs.filter(pa.array(hit))
        return pa.table({"a": reqs["a"], "b": reqs["b"],
                         "side": reqs["side"],
                         "payload": pay.take(pa.array(i[hit]))})

    def combine(part: pa.Table) -> pa.Table:
        side_ = part["side"].to_numpy(zero_copy_only=False)
        a, b = _u64(part, "a"), _u64(part, "b")
        order = np.lexsort((side_, b, a))
        sa, sb, ss = a[order], b[order], side_[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1]))))
        starts = np.concatenate([starts, [len(sa)]])
        full = starts[:-1][np.diff(starts) == 2]   # two rows for this (a, b)
        full = full[(ss[full] == 0) & (ss[full + 1] == 1)]  # one per end
        i0, i1 = order[full], order[full + 1]
        pay = part["payload"].combine_chunks()
        return kernel(a[i0], b[i0], pay.take(pa.array(i0)),
                      pay.take(pa.array(i1)))

    u = pairs.map_batches(requests, batch_format="pyarrow").union(
        side.map_batches(side_rows, batch_format="pyarrow"))
    att = partition_apply(u, "key", attach, num_partitions)
    return partition_apply(att, ("a", "b"), combine, num_partitions)


def lookup_u64(sorted_keys: np.ndarray, vals: np.ndarray, q: np.ndarray,
               default: np.ndarray) -> np.ndarray:
    """Vectorized sorted-array lookup with per-row default."""
    if len(sorted_keys) == 0:
        return default
    i = np.clip(np.searchsorted(sorted_keys, q), 0, len(sorted_keys) - 1)
    hit = sorted_keys[i] == q
    out = default.copy()
    out[hit] = vals[i[hit]]
    return out


def isin_sorted(sorted_arr: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized membership test against a sorted array."""
    if len(sorted_arr) == 0:
        return np.zeros(len(q), dtype=bool)
    i = np.clip(np.searchsorted(sorted_arr, q), 0, len(sorted_arr) - 1)
    return sorted_arr[i] == q


def sized_partitions(n_rows: int, num_partitions: int, *,
                     rows_per_part: int = 65536, floor: int = 8) -> int:
    """Adaptive exchange width for a KNOWN input size: a partition_apply
    costs one shuffle object per (block x partition), so a 64-wide
    exchange over a few thousand rows is almost pure overhead. Small
    inputs drop to ``floor`` partitions; the width grows with the data
    (one partition per ``rows_per_part`` rows) and caps at the
    configured ``num_partitions`` so web-scale inputs keep the full
    plan. The count stays a pure function of the data size — not the
    cluster — so the physical plan is identical across cluster sizes
    (the scaling-bench invariant)."""
    lo = max(1, min(floor, num_partitions))
    return int(min(num_partitions, max(lo, n_rows // rows_per_part)))


def gather_capped(ds, max_rows: int, schema: pa.Schema) -> pa.Table | None:
    """Stream a Dataset to ONE driver-side Arrow table, or ``None`` once
    more than ``max_rows`` rows have arrived — the broadcast-overflow
    gate: callers broadcast the table when it comes back, and flip to a
    keyed-exchange plan when it is ``None`` (the side was not
    driver-sized; the partial gather is discarded and the side's plan
    re-executes inside the exchange). Past the cap the stream is read to
    its end, keeping no more batches: an abandoned execution's task
    cancels can race the tasks' replies and abort the driver (Ray
    2.49.2)."""
    parts, rows = [], 0
    for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        rows += b.num_rows
        if rows <= max_rows:
            parts.append(b)
    if rows > max_rows:
        return None
    if not parts:
        return schema.empty_table()
    return pa.concat_tables(parts).cast(schema)


def gather_table(ds, schema: pa.Schema) -> pa.Table:
    """All of ``ds`` on the driver as ONE Arrow table of ``schema``'s
    columns, every batch cast to ``schema`` — so an empty Dataset, or one
    unioned from differently-typed sources (a checkpoint read and a fresh
    stage), still gathers well-formed. A materialized ``ds`` is read
    without launching a job."""
    parts = [t.select(schema.names).cast(schema, safe=False) for t in
             ds.iter_batches(batch_size=None, batch_format="pyarrow")]
    return pa.concat_tables(parts) if parts else schema.empty_table()


def gather_columns(ds, *cols: str, types: tuple = ()) -> list[np.ndarray]:
    """The driver gather of every local and broadcast plan: ``ds``'s
    ``cols`` as numpy arrays — uint64 unless ``types`` gives each column's
    Arrow type."""
    t = gather_table(ds, pa.schema(list(zip(
        cols, types or [pa.uint64()] * len(cols)))))
    return [t[c].to_numpy() for c in cols]


def gather_kv(ds, key_col: str, val_col: str) -> tuple:
    """Collect a (key, value) Dataset to sorted parallel uint64 arrays —
    the broadcast-side payload for map-side lookups."""
    k, v = gather_columns(ds, key_col, val_col)
    o = np.argsort(k)
    return k[o], v[o]


def broadcast_join(left, right: pa.Table, *, left_on: str, right_on: str,
                   join_type: str = "inner"):
    """Map-side join against a SMALL right table: ``ray.put`` once, every
    task reads the shared object-store copy zero-copy and runs a C++ hash
    join per batch (SURVEY.md §4.3 "broadcast small sides with ray.put").
    Use only when ``right`` fits comfortably in worker heaps; the shuffle
    path (``Dataset.join``) is the large-side fallback."""
    import ray

    ref = ray.put(right)

    def bj(batch: pa.Table) -> pa.Table:
        rt = ray.get(ref)
        return batch.join(rt, keys=[left_on], right_keys=[right_on],
                          join_type=join_type)

    return left.map_batches(bj, batch_format="pyarrow")


def from_arrow_blocks(table: pa.Table, target_rows: int = 4096):
    """``ray.data.from_arrow`` with the table pre-sliced into multiple
    blocks. A single-block Dataset executes downstream map_batches as ONE
    task regardless of batch_size — any driver-built table feeding a
    parallel stage must be split first. The result is materialized (its
    blocks are already in the object store), so a later driver gather of
    it launches no job."""
    import ray.data

    n = table.num_rows
    if n > target_rows:
        table = [table.slice(i, target_rows)
                 for i in range(0, n, target_rows)]
    return ray.data.from_arrow(table).materialize()


def gather_slices(offs: np.ndarray, vals: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gather of list-array slices for the given rows:
    (flat values in row order, per-row lengths). No Python loop."""
    starts = offs[rows].astype(np.int64)
    lens = (offs[rows + 1].astype(np.int64) - starts)
    cum = np.concatenate(([0], np.cumsum(lens)))
    idx = np.arange(cum[-1], dtype=np.int64) \
        - np.repeat(cum[:-1], lens) + np.repeat(starts, lens)
    return vals[idx], lens


def group_runs(keys: np.ndarray, *, stable: bool = True
               ) -> tuple[np.ndarray, np.ndarray]:
    """(order, run_starts) for grouping a partition by a uint64 key array:
    ``order`` sorts the rows; ``run_starts`` indexes group starts in the
    sorted view (terminated by len). The sort is stable, so rows keep
    their input order within a run (first-wins callers rely on it);
    ``stable=False`` takes NumPy's faster default sort, for callers whose
    result does not depend on the order inside a run."""
    order = np.argsort(keys, kind="stable" if stable else None)
    sk = keys[order]
    if len(sk) == 0:
        return order, np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
    return order, np.concatenate([starts, [len(sk)]]).astype(np.int64)
