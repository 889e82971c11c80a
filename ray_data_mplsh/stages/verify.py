"""S6: attach signatures to pairs + exact-Jaccard verification
(SURVEY.md ops 17-18; BASELINE.json:6 "verified by exact Jaccard over
signatures").

The signature attach is ``shuffle.pair_apply`` with an est-Jaccard kernel,
and the plan is chosen by corpus size (SURVEY.md §4.3 "broadcast small
sides with ray.put + lookup inside map_batches instead of a shuffle
join"): at or under ``cfg.broadcast_max_docs`` signatures the (sorted
ids, permutation, sig column) payload is put in the object store once and
resolved per batch with searchsorted; above it the signatures ride the
two-hop pair-keyed exchange — no driver materialization, each signature
shipped once per pair occurrence. (Ray 2.49's native hash-shuffle
``Dataset.join`` was tried as a third plan, but its aggregator actor pool
was observed to stall on small CPU budgets.)

est-Jaccard = mean(sig_a == sig_b) over K; pairs kept when
est >= theta - verify_margin (margin absorbs the K=128 estimator noise so
true-J >= theta pairs survive w.p. ~1; SURVEY.md §A.1).
"""

from __future__ import annotations

import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig

VERIFIED_SCHEMA = pa.schema([
    ("a", pa.uint64()), ("b", pa.uint64()), ("jaccard", pa.float64())])


def _verify_kernel(K: int, theta: float):
    def kernel(a, b, sig_a, sig_b) -> pa.Table:
        mat_a = sig_a.flatten().to_numpy(zero_copy_only=False).reshape(-1, K)
        mat_b = sig_b.flatten().to_numpy(zero_copy_only=False).reshape(-1, K)
        est = (mat_a == mat_b).mean(axis=1)
        keep = est >= theta
        return pa.Table.from_arrays([
            pa.array(a[keep], pa.uint64()),
            pa.array(b[keep], pa.uint64()),
            pa.array(est[keep], pa.float64()),
        ], schema=VERIFIED_SCHEMA)
    return kernel


def verify_stage(pairs, sigs, cfg: MPLSHConfig, num_partitions: int,
                 n_docs: int | None = None):
    """pairs (a, b) + sigs (doc_id, sig) -> verified (a, b, jaccard). The
    sig column is cast to ``fixed_size_list<uint64, num_perm>``: a base
    checkpoint read and a fresh MinHash stage (the incremental fold's
    union) may differ in list field naming."""
    from ray_data_mplsh.stages.shuffle import pair_apply

    broadcast = n_docs is None or n_docs <= cfg.broadcast_max_docs
    return pair_apply(pairs, sigs, "sig",
                      _verify_kernel(cfg.num_perm, cfg.verify_theta),
                      num_partitions,
                      payload_type=pa.list_(pa.uint64(), cfg.num_perm),
                      broadcast=broadcast, batch_size=65536)
