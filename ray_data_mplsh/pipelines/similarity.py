"""Similarity search over embedding columns (training-data ops).

The reference's actual workload — approximate k-NN over d-dim float
vectors [MPLSH §2] — realized Ray-Data-first over the testdata
``embeddings`` table (vec_id:int64, embedding:list<float>, label:int32):

* ``knn_bruteforce``: exact cosine top-k — the query matrix is broadcast
  once via ``ray.put``; every batch does one NumPy matmul against it; the
  per-batch partial top-k rows are merged by a DISTRIBUTED query-keyed
  exchange (``_merge_topk``), so the driver only ever sees the final
  k * n_queries rows.
* ``knn_lsh``: the scale path — random-hyperplane LSH (SimHash for
  vectors, [Charikar02]) with MULTI-PROBE probing: query buckets plus the
  lowest-|margin| bit-flip buckets, score-ordered per [MPLSH §4.3] via
  functions/perturb.py. Candidates are exact-scored; recall vs brute
  force is tested on the fixture.

Also: ``embedding_near_dup`` — embedding-cosine near-duplicate pairs via
the same hyperplane bucketing, the vector-space member of the dedup
family (exact / MinHash / SimHash / n-gram / embedding).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray_data_mplsh.functions.hashing import mix64
from ray_data_mplsh.functions.perturb import perturbation_sets
from ray_data_mplsh.stages.shuffle import (
    cached_get, gather_slices, group_runs, partition_apply,
)


def _topk_per_query(q: np.ndarray, v: np.ndarray, c: np.ndarray, k: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-batch top-k trim: keep the k best-scoring candidates per query
    so the driver merge stays O(batches * k * nq) regardless of how many
    candidates a batch produced. Vectorized (one lexsort + rank-in-run)."""
    if len(q) == 0:
        return q, v, c
    o = np.lexsort((v, -c, q))
    qs, vs = q[o], v[o]
    # drop exact (q, v) duplicates (same candidate via several LSH tables;
    # their cosines are identical so duplicates are adjacent in this order)
    uniq = np.concatenate(([True], (qs[1:] != qs[:-1]) |
                           (vs[1:] != vs[:-1])))
    o, qs = o[uniq], qs[uniq]
    new = np.concatenate(([True], qs[1:] != qs[:-1]))
    starts = np.flatnonzero(new)
    run_id = np.cumsum(new) - 1
    rank = np.arange(len(qs)) - starts[run_id]
    sel = o[rank < k]
    return q[sel], v[sel], c[sel]


_KNN_SCHEMA = pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()),
                         ("cosine", pa.float64())])


def _knn_table(q: np.ndarray, v: np.ndarray, c: np.ndarray) -> pa.Table:
    return pa.Table.from_arrays([
        pa.array(np.asarray(q, np.int64), pa.int64()),
        pa.array(np.asarray(v, np.int64), pa.int64()),
        pa.array(np.asarray(c, np.float64), pa.float64())],
        schema=_KNN_SCHEMA)


def _merge_topk(cand, k: int, n_queries: int) -> pa.Table:
    """Distributed final top-k merge over per-batch partials.

    ONE query_id-keyed exchange reduces the O(#batches * k * nq) partial
    rows to <= k rows per query INSIDE the cluster; the driver collects
    only the final k*nq rows. (Replaces the former driver-side pandas
    gather, which at 100 TB — millions of batches — would have collected
    hundreds of millions of candidate rows on one node.) Exact (q, v)
    duplicates (the same candidate via several LSH tables / probe lists)
    are dropped inside the exchange: a pair's rows all carry the same
    query_id, so they meet in one partition."""
    from ray_data_mplsh.stages.shuffle import (
        default_partitions, partition_apply,
    )

    # at most n_queries partitions are non-empty — don't pay for more
    P = max(min(default_partitions(0), max(n_queries, 1)), 1)

    def reduce_part(part: pa.Table) -> pa.Table:
        q = part["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = part["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = part["cosine"].to_numpy(zero_copy_only=False)
        return _knn_table(*_topk_per_query(q, v, c, k))

    merged = partition_apply(cand, "query_id", reduce_part, P)
    parts = [b for b in merged.iter_batches(batch_size=65536,
                                            batch_format="pyarrow")]
    if not parts:
        return _KNN_SCHEMA.empty_table()
    out = pa.concat_tables(parts)
    q = out["query_id"].to_numpy(zero_copy_only=False)
    v = out["vec_id"].to_numpy(zero_copy_only=False)
    c = out["cosine"].to_numpy(zero_copy_only=False)
    o = np.lexsort((v, -c, q))
    return out.take(pa.array(o))


def _emb_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty((0, 0), np.float32)
    if pa.types.is_fixed_size_list(arr.type):
        d = arr.type.list_size
        return arr.values.to_numpy(zero_copy_only=False).reshape(-1, d)
    # list<float>: offsets must be uniform
    off = arr.offsets.to_numpy(zero_copy_only=False)
    d = int(off[1] - off[0])
    return arr.values.to_numpy(zero_copy_only=False).reshape(-1, d)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _brute_scorer(q_ref, k: int):
    """Plain-task stage: the (ids, normalized query^T) broadcast is read
    with ``cached_get``, one matmul per batch. A task holds no CPU
    between batches, so the upstream read always gets one — an actor pool
    could reserve every CPU of a 1-CPU cluster and stall it."""

    def score(batch: pa.Table) -> pa.Table:
        qids, qt = cached_get(q_ref)              # qt: (d, nq)
        m = _normalize(_emb_matrix(batch).astype(np.float32))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if m.size == 0:
            return _KNN_SCHEMA.empty_table()
        scores = m @ qt                           # (nb, nq)
        kk = min(k, scores.shape[0])
        top = np.argpartition(-scores, kk - 1, axis=0)[:kk]   # (kk, nq)
        nq = scores.shape[1]
        qcol = np.repeat(qids, kk)
        vcol = ids[top.T.reshape(-1)]
        scol = scores[top.T.reshape(-1), np.repeat(np.arange(nq), kk)]
        return pa.table({"query_id": pa.array(qcol, pa.int64()),
                         "vec_id": pa.array(vcol, pa.int64()),
                         "cosine": pa.array(scol.astype(np.float64))})

    return score


def knn_bruteforce(embeddings, query_ids: np.ndarray, queries: np.ndarray,
                   k: int = 10):
    """Exact cosine top-k of each query against the full table.

    Per-batch partial top-k (k rows/query/batch) feeds the distributed
    query-keyed merge (_merge_topk); only the final k*nq rows reach the
    driver. Returns a pyarrow table (query_id, vec_id, cosine)."""
    import ray

    q_ref = ray.put((np.asarray(query_ids, np.int64),
                     _normalize(np.asarray(queries, np.float32)).T))
    partial = embeddings.map_batches(_brute_scorer(q_ref, k),
                                     batch_format="pyarrow", batch_size=4096)
    return _merge_topk(partial, k, len(query_ids))


def _hyperplanes(d: int, n_bits: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((d, n_bits)).astype(np.float32)


_PLANES_CACHE: dict = {}


def _planes_cached(d: int, n_bits: int, n_tables: int, seed: int
                   ) -> np.ndarray:
    """Per-worker memoized (T, d, bits) hyperplane tensor (seeded, so every
    worker regenerates the identical planes)."""
    key = (d, n_bits, n_tables, seed)
    try:
        return _PLANES_CACHE[key]
    except KeyError:
        if len(_PLANES_CACHE) > 8:
            _PLANES_CACHE.clear()
        val = np.stack([_hyperplanes(d, n_bits, seed + t)
                        for t in range(n_tables)])
        _PLANES_CACHE[key] = val
        return val


def _vec_simhash(m: np.ndarray, planes: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(bucket codes uint64, margins (n, n_bits)) for normalized vectors."""
    proj = m @ planes                             # (n, bits)
    bits = (proj > 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(planes.shape[1], dtype=np.uint64)
    code = (bits * weights[None, :]).sum(axis=1, dtype=np.uint64)
    return code, np.abs(proj)


def _vec_code64(raw: np.ndarray, planes64: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(bucket codes uint64, |projection| margins) in FLOAT64 from RAW
    (unnormalized) vectors. sign(e . w) is normalization-invariant, and
    per-query probe ordering only needs margin ORDER (a common 1/||q||
    scale drops out), so raw double dots give identical buckets/probes —
    while being the one quantity a SQL oracle can replay bit-safely:
    float32-normalized projections flip a sign whenever |proj| lands
    inside f32 rounding (~1e-7 — a real event at corpus scale), the
    double window (~1e-15) never fires on real data."""
    proj = raw @ planes64
    bits = (proj > 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(planes64.shape[1], dtype=np.uint64)
    code = (bits * weights[None, :]).sum(axis=1, dtype=np.uint64)
    return code, np.abs(proj)


# knn_lsh defaults — module-level so the SQL oracle builder embeds the
# SAME hyperplane seed / geometry it replays (queries._knn_lsh_sql)
LSH_N_BITS = 12
LSH_N_TABLES = 4
LSH_N_PROBES = 8
LSH_SEED = 0xC0FFEE


def knn_lsh(embeddings, query_ids: np.ndarray, queries: np.ndarray,
            k: int = 10, *, n_bits: int = LSH_N_BITS,
            n_tables: int = LSH_N_TABLES, n_probes: int = LSH_N_PROBES,
            seed: int = LSH_SEED, num_partitions: int = 0):
    """Approximate top-k: hyperplane-LSH bucketing with score-ordered
    multi-probe ([MPLSH §4]: probe the buckets whose perturbed codes have
    the smallest summed margins, generated by Algorithm 1's heap).

    Data side: each vector lands in 1 bucket per table. Query side: the
    exact bucket + (n_probes-1) perturbed buckets per table. Bucket codes
    and probe margins are double-precision dots of the RAW vectors
    (``_vec_code64`` — normalization-invariant, SQL-replayable); the
    candidates are then exact-cosine-scored per batch and merged by the
    distributed query-keyed top-k exchange (_merge_topk).
    """
    import ray

    from ray_data_mplsh.stages.shuffle import default_partitions

    P = default_partitions(num_partitions)
    qm = _normalize(np.asarray(queries, np.float32))
    qraw = np.asarray(queries, np.float64)
    qids = np.asarray(query_ids, np.int64)
    d = qm.shape[1]

    # build the probe plan driver-side (queries are few)
    probe_keys = []   # (table, code) rows per query
    planes = [_hyperplanes(d, n_bits, seed + t) for t in range(n_tables)]
    for t in range(n_tables):
        code, marg = _vec_code64(qraw, planes[t].astype(np.float64))
        for qi in range(len(qids)):
            sets = perturbation_sets(marg[qi], n_probes - 1)
            codes = [code[qi]]
            for s in sets:
                flip = np.uint64(0)
                for b in s:
                    flip |= np.uint64(1) << np.uint64(b)
                codes.append(code[qi] ^ flip)
            for c in codes[:n_probes]:
                probe_keys.append((t, int(c), qi))
    # pack the wanted (table, code) keys into one sorted uint64 array with
    # offsets into a flat query-position list — the prober resolves a whole
    # batch with ONE searchsorted per table, no dict, no per-row loop
    pk = np.array([(t << n_bits) | c for t, c, _ in probe_keys], np.uint64)
    qp = np.array([qi for _, _, qi in probe_keys], np.int64)
    o = np.argsort(pk, kind="stable")
    pk, qp = pk[o], qp[o]
    new = np.concatenate(([True], pk[1:] != pk[:-1])) if len(pk) else \
        np.empty(0, bool)
    uk = pk[new]
    uoffs = np.concatenate(
        [np.flatnonzero(new), [len(pk)]]).astype(np.int64)
    want_ref = ray.put((uk, uoffs, qp))
    planes_ref = ray.put(np.stack(planes).astype(np.float64))  # (T, d, bits)
    q_ref = ray.put((qids, qm))

    # a plain task reading the broadcasts with cached_get (the other
    # broadcast stages' shape): no actor pool holds a CPU the upstream
    # read needs, so a 1-CPU cluster cannot stall
    def probe(batch: pa.Table) -> pa.Table:
        uk, uoffs, qp_ = cached_get(want_ref)
        planes64 = cached_get(planes_ref)
        qids_, qm_ = cached_get(q_ref)
        raw = _emb_matrix(batch).astype(np.float64)
        m = _normalize(raw.astype(np.float32))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_v, out_c = [], [], []
        if m.size and len(uk):
            for t in range(planes64.shape[0]):
                code, _ = _vec_code64(raw, planes64[t])
                key = (np.uint64(t << n_bits) | code)
                pos = np.clip(np.searchsorted(uk, key), 0, len(uk) - 1)
                rows = np.flatnonzero(uk[pos] == key)
                if not len(rows):
                    continue
                qsel, lens = gather_slices(uoffs, qp_, pos[rows])
                row_rep = np.repeat(rows, lens)
                cos = np.einsum("ij,ij->i", m[row_rep],
                                qm_[qsel]).astype(np.float64)
                out_q.append(qids_[qsel])
                out_v.append(ids[row_rep])
                out_c.append(cos)
        if not out_q:
            return _KNN_SCHEMA.empty_table()
        return _knn_table(*_topk_per_query(np.concatenate(out_q),
                                           np.concatenate(out_v),
                                           np.concatenate(out_c), k))

    cand = embeddings.map_batches(probe, batch_format="pyarrow",
                                  batch_size=4096)
    # (q, v) duplicates from several tables dedup inside the keyed merge
    return _merge_topk(cand, k, len(qids))


def knn_ivf(embeddings, query_ids: np.ndarray, queries: np.ndarray,
            k: int = 10, *, n_centroids: int = 32, n_probe: int = 4,
            seed: int = 0xC0FFEE, train_sample: int = 2048):
    """IVF-flat ANN: seeded-sample k-means-lite centroids, inverted lists
    by nearest centroid, queries scan only the ``n_probe`` nearest lists.

    Scale shape: the centroid matrix is tiny and broadcast; assignment is
    one matmul per batch; each batch contributes candidates only for the
    queries probing its vectors' centroids; the exact re-rank runs in the
    distributed query-keyed top-k exchange (_merge_topk).
    """
    import ray

    # train: deterministic sample -> a few Lloyd iterations, all driver-side
    sample = embeddings.random_sample(1.0, seed=seed) \
        .limit(train_sample).to_pandas()
    m0 = _normalize(np.stack([np.asarray(e, np.float32)
                              for e in sample["embedding"]]))
    rng = np.random.Generator(np.random.PCG64(seed))
    cent = m0[rng.choice(len(m0), size=min(n_centroids, len(m0)),
                         replace=False)]
    for _ in range(5):
        assign = np.argmax(m0 @ cent.T, axis=1)
        for c in range(len(cent)):
            mask = assign == c
            if mask.any():
                v = m0[mask].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n

    qm = _normalize(np.asarray(queries, np.float32))
    qids = np.asarray(query_ids, np.int64)
    probes = np.argsort(-(qm @ cent.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    want: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for c in probes[qi]:
            want.setdefault(int(c), []).append(qi)
    ref = ray.put((cent, want, qids, qm))

    def scan(batch: pa.Table) -> pa.Table:
        from ray_data_mplsh.stages.shuffle import cached_get

        cent_, want_, qids_, qm_ = cached_get(ref)
        m = _normalize(_emb_matrix(batch).astype(np.float32))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if m.size == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        assign = np.argmax(m @ cent_.T, axis=1)
        out_q, out_v, out_c = [], [], []
        for c, qis in want_.items():
            mask = assign == c
            if not mask.any():
                continue
            sub, sub_ids = m[mask], ids[mask]
            scores = sub @ qm_[qis].T           # (n_sub, n_qis)
            for j, qi in enumerate(qis):
                out_q.append(np.full(len(sub_ids), qids_[qi], np.int64))
                out_v.append(sub_ids)
                out_c.append(scores[:, j].astype(np.float64))
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        oq, ov, oc = _topk_per_query(np.concatenate(out_q),
                                     np.concatenate(out_v),
                                     np.concatenate(out_c), k)
        return pa.table({"query_id": pa.array(oq),
                         "vec_id": pa.array(ov),
                         "cosine": pa.array(oc)})

    cand = embeddings.map_batches(scan, batch_format="pyarrow",
                                  batch_size=4096)
    return _merge_topk(cand, k, len(qids))


def _near_dup_exact(embeddings, threshold: float) -> pa.Table:
    """Exact small-side cosine threshold self-join: the full normalized
    matrix is broadcast ONCE (n * d floats — the gate guarantees it is
    broadcast-sized), every batch does one float64 matmul against it and
    emits only its (a < b, cos >= threshold) pairs, so each unordered pair
    surfaces exactly once and no shuffle is needed. float64 throughout so
    the threshold compare agrees with a double-precision SQL oracle."""
    import ray

    from ray_data_mplsh.stages.shuffle import cached_get

    ids_l, m_l = [], []
    for b in embeddings.iter_batches(batch_size=8192,
                                     batch_format="pyarrow"):
        ids_l.append(b["vec_id"].to_numpy(zero_copy_only=False)
                     .astype(np.int64))
        m_l.append(_emb_matrix(b).astype(np.float64))
    if not ids_l:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    all_ids = np.concatenate(ids_l)
    allm = np.concatenate(m_l, axis=0)
    n = np.linalg.norm(allm, axis=1, keepdims=True)
    n[n == 0] = 1.0
    allm /= n
    ref = ray.put((all_ids, allm))

    def scan(batch: pa.Table) -> pa.Table:
        gids, gm = cached_get(ref)
        mb = _emb_matrix(batch).astype(np.float64)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if mb.size == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        nb = np.linalg.norm(mb, axis=1, keepdims=True)
        nb[nb == 0] = 1.0
        mb /= nb
        sims = mb @ gm.T                        # (B, n)
        mask = (sims >= threshold) & (ids[:, None] < gids[None, :])
        i, j = np.nonzero(mask)
        return pa.table({"a": pa.array(ids[i], pa.int64()),
                         "b": pa.array(gids[j], pa.int64()),
                         "cosine": pa.array(sims[i, j], pa.float64())})

    parts = [b for b in embeddings.map_batches(
        scan, batch_format="pyarrow", batch_size=4096)
        .iter_batches(batch_size=65536, batch_format="pyarrow")]
    if not parts or sum(t.num_rows for t in parts) == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    out = pa.concat_tables(parts)
    order = pc.sort_indices(
        out, sort_keys=[("a", "ascending"), ("b", "ascending")])
    return out.take(order)


def embedding_near_dup(embeddings, *, threshold: float = 0.95,
                       n_bits: int = 10, n_tables: int = 6,
                       seed: int = 0xC0FFEE, num_partitions: int = 0,
                       bucket_cap: int = 256, exact_max_vecs: int = 20_000):
    """Embedding-cosine near-dup pairs: hyperplane buckets -> within-bucket
    exact cosine -> pairs >= threshold. The vectors ride through the
    shuffle as columns (d floats/row), pairing is vectorized per bucket.

    Hybrid plan like every small-side gate in this engine: at or below
    ``exact_max_vecs`` vectors the EXACT broadcast threshold-join runs
    instead (recall 1.0 by construction, O(n^2 d) flops — cheap at
    broadcast sizes); above it, the LSH-bucketed approximate path (recall
    gated in tests on planted near-dups). ``exact_max_vecs=0`` forces the
    LSH path."""
    from ray_data_mplsh.stages.shuffle import default_partitions

    P = default_partitions(num_partitions)
    if exact_max_vecs > 0 and embeddings.count() <= exact_max_vecs:
        return _near_dup_exact(embeddings, threshold)

    def bucketize(batch: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(batch).astype(np.float32))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if m.size == 0:
            return pa.table({"bucket": pa.array([], pa.uint64()),
                             "vec_id": pa.array([], pa.int64()),
                             "embedding": batch["embedding"]})
        d = m.shape[1]
        # hyperplanes are seeded-deterministic; memoize the stacked (T, d,
        # bits) tensor per worker process so it is generated once per
        # worker, not once per batch (no broadcast needed — regeneration
        # from the seed is exact and cheaper than object-store traffic)
        planes = _planes_cached(d, n_bits, n_tables, seed)
        outs = []
        for t in range(n_tables):
            code, _ = _vec_simhash(m, planes[t])
            outs.append(mix64(code + np.uint64(t << 48)))
        bucket = np.concatenate(outs)
        rep = pa.table({
            "bucket": pa.array(bucket, pa.uint64()),
            "vec_id": pa.array(np.tile(ids, n_tables), pa.int64()),
        })
        emb = batch["embedding"].combine_chunks()
        idx = np.tile(np.arange(len(ids)), n_tables)
        return rep.append_column("embedding", emb.take(pa.array(idx)))

    def pair_bucket(part: pa.Table) -> pa.Table:
        bk = part["bucket"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = part["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize(_emb_matrix(part).astype(np.float32))
        order, starts = group_runs(bk)
        sid, sm = ids[order], m[order]
        out_a, out_b, out_c = [], [], []
        sizes = np.diff(starts)
        for ri in np.flatnonzero((sizes >= 2) & (sizes <= bucket_cap)):
            s, e = starts[ri], starts[ri + 1]
            rid, rm = sid[s:e], sm[s:e]
            o = np.argsort(rid)
            rid, rm = rid[o], rm[o]
            keep = np.concatenate(([True], rid[1:] != rid[:-1]))
            rid, rm = rid[keep], rm[keep]
            if len(rid) < 2:
                continue
            sims = rm @ rm.T
            i, j = np.triu_indices(len(rid), k=1)
            hit = sims[i, j] >= threshold
            out_a.append(rid[i[hit]])
            out_b.append(rid[j[hit]])
            out_c.append(sims[i[hit], j[hit]].astype(np.float64))
        if not out_a:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        return pa.table({"a": pa.array(np.concatenate(out_a), pa.int64()),
                         "b": pa.array(np.concatenate(out_b), pa.int64()),
                         "cosine": pa.array(np.concatenate(out_c))})

    buckets = embeddings.map_batches(bucketize, batch_format="pyarrow")
    pairs = partition_apply(buckets, "bucket", pair_bucket, P)
    # global pair dedup (the same pair surfaces in several tables) runs on
    # the pair-keyed shuffle like every other pair producer — only the
    # final (deduped, thresholded) pair set reaches the driver. dedup_pairs
    # keys on the exact (a, b); the cosine column rides along (identical on
    # every duplicate, so keeping the first row is exact).
    from ray_data_mplsh.stages.pairs import dedup_pairs

    deduped = dedup_pairs(pairs, P, local_max_rows=0)
    parts = [bt for bt in deduped.iter_batches(batch_size=65536,
                                               batch_format="pyarrow")]
    if not parts or sum(t.num_rows for t in parts) == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    out = pa.concat_tables(parts)
    order = pc.sort_indices(
        out, sort_keys=[("a", "ascending"), ("b", "ascending")])
    return out.take(order)
