"""S7: distributed union-find — iterative star contraction over Dataset
shuffles (SURVEY.md op 19; [CC-MR] Kiveris et al., SoCC 2014).

The reference's in-RAM component state has no distributed analogue; here
the union-find state IS the edge Dataset itself (SURVEY.md §3.2). Each
round alternates:

* **large-star**: group by node u over bidirectional edges; every neighbor
  v > u is re-pointed at m = min(N(u) ∪ {u});
* **small-star**: orient edges u > v, group by u; u and all its smaller
  neighbors are pointed at m = min(N(u)).

Both are one coarse-partitioned shuffle + pure NumPy segment-min work
(np.minimum.reduceat). Edges converge to a star forest rooted at each
component's min doc_id in O(log n) rounds ([CC-MR Thm 2]); convergence is
detected by an order-insensitive (count, xor-of-hashes) checksum of the
edge set, and each round materializes the (small) edge Dataset to break
lineage growth (SURVEY.md §4.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import mix64
from ray_data_mplsh.stages.shuffle import (
    from_arrow_blocks, gather_columns, group_runs, partition_apply,
)

EDGE_SCHEMA = pa.schema([("u", pa.uint64()), ("v", pa.uint64())])


def _to_edges(batch: pa.Table) -> pa.Table:
    """pairs (a,b) -> bidirectional edge rows (u,v)."""
    a = batch["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
    b = batch["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
    return pa.Table.from_arrays([
        pa.array(np.concatenate([a, b]), pa.uint64()),
        pa.array(np.concatenate([b, a]), pa.uint64()),
    ], schema=EDGE_SCHEMA)


def _bidir(batch: pa.Table) -> pa.Table:
    u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
    v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
    return pa.Table.from_arrays([
        pa.array(np.concatenate([u, v]), pa.uint64()),
        pa.array(np.concatenate([v, u]), pa.uint64()),
    ], schema=EDGE_SCHEMA)


def _orient_max_first(batch: pa.Table) -> pa.Table:
    u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
    v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
    return pa.Table.from_arrays([
        pa.array(np.maximum(u, v), pa.uint64()),
        pa.array(np.minimum(u, v), pa.uint64()),
    ], schema=EDGE_SCHEMA)


def _segment_min(u: np.ndarray, v: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """sorted-by-u view plus per-run m = min(run v's, run u)."""
    order, starts = group_runs(u)
    su, sv = u[order], v[order]
    if len(su) == 0:
        e = np.empty(0, np.uint64)
        return su, sv, e, np.zeros(0, np.int64)
    run_min = np.minimum.reduceat(sv, starts[:-1])
    run_min = np.minimum(run_min, su[starts[:-1]])
    sizes = np.diff(starts)
    return su, sv, np.repeat(run_min, sizes), starts


def _dedup_edges(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = u != v
    u, v = u[keep], v[keep]
    if len(u) == 0:
        return u, v
    # exact (u, v) dedup: a hashed-key collision would silently drop an
    # edge and could split a component
    o = np.lexsort((v, u))
    u, v = u[o], v[o]
    first = np.concatenate(([True], (u[1:] != u[:-1]) | (v[1:] != v[:-1])))
    return u[first], v[first]


def _large_star(part: pa.Table) -> pa.Table:
    """Input: bidirectional edges, partitioned by u. Emit (v, m) for v>u."""
    u = part["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
    v = part["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
    su, sv, m, _ = _segment_min(u, v)
    mask = sv > su
    ou, ov = _dedup_edges(sv[mask], m[mask])
    return pa.Table.from_arrays([pa.array(ou, pa.uint64()),
                                 pa.array(ov, pa.uint64())], schema=EDGE_SCHEMA)


def _small_star(part: pa.Table) -> pa.Table:
    """Input: edges oriented u>v, partitioned by u. Emit (u,m) and (v,m) for
    v in N(u) \\ {m}."""
    u = part["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
    v = part["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
    su, sv, m, starts = _segment_min(u, v)
    if len(su) == 0:
        return pa.Table.from_arrays([pa.array([], pa.uint64()),
                                     pa.array([], pa.uint64())],
                                    schema=EDGE_SCHEMA)
    # (u -> m) once per run
    ru = su[starts[:-1]]
    rm = m[starts[:-1]]
    # (v -> m) for neighbors except m itself
    mask = sv != m
    ou = np.concatenate([ru, sv[mask]])
    ov = np.concatenate([rm, m[mask]])
    ou, ov = _dedup_edges(ou, ov)
    return pa.Table.from_arrays([pa.array(ou, pa.uint64()),
                                 pa.array(ov, pa.uint64())], schema=EDGE_SCHEMA)


def _labels(part: pa.Table) -> pa.Table:
    """Final pass over bidirectional edges: label(u) = min(N(u) ∪ {u})."""
    u = part["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
    v = part["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
    su, sv, m, starts = _segment_min(u, v)
    if len(su) == 0:
        return pa.Table.from_arrays([pa.array([], pa.uint64()),
                                     pa.array([], pa.uint64())],
                                    names=["doc_id", "cluster_id"])
    return pa.Table.from_arrays([
        pa.array(su[starts[:-1]], pa.uint64()),
        pa.array(m[starts[:-1]], pa.uint64()),
    ], names=["doc_id", "cluster_id"])


def _checksum(edges) -> tuple[int, int]:
    def h(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = mix64(u * np.uint64(0x9E3779B97F4A7C15)) ^ mix64(v)
        acc = np.bitwise_xor.reduce(x) if len(x) else np.uint64(0)
        return pa.Table.from_arrays(
            [pa.array([int(acc)], pa.uint64()), pa.array([len(x)], pa.int64())],
            names=["h", "n"])

    parts = edges.map_batches(h, batch_format="pyarrow").take_all()
    acc, n = 0, 0
    for row in parts:
        acc ^= int(row["h"])
        n += int(row["n"])
    return acc, n


def local_cc_labels(a: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized single-node connected components: label(min-id) fixpoint
    via edge relaxation + pointer jumping, O(E log V) NumPy work. The
    driver-side member of the hybrid split (cfg.local_state_max_rows)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    e1, e2 = inv[:len(a)], inv[len(a):]
    lbl = np.arange(len(nodes), dtype=np.int64)
    while True:
        nxt = lbl.copy()
        np.minimum.at(nxt, e1, lbl[e2])
        np.minimum.at(nxt, e2, lbl[e1])
        nxt = nxt[nxt]          # pointer jumping
        if np.array_equal(nxt, lbl):
            break
        lbl = nxt
    return nodes, nodes[lbl]


def connected_components(verified_pairs, cfg: MPLSHConfig,
                         num_partitions: int, *, n_edges: int = -1,
                         force_distributed: bool = False):
    """verified pairs (a, b, ...) -> labels (doc_id, cluster_id) for every
    node incident to an edge (singletons are absent; callers default them
    to their own id).

    Hybrid: when the edge list fits ``cfg.local_state_max_rows`` the
    component map is computed in one vectorized driver kernel — a CC round
    on a few MB of edges costs more in shuffle latency than it gains.
    Above the threshold (the 10^12-doc path), iterative star contraction
    over Dataset shuffles runs as designed ([CC-MR])."""
    if not force_distributed:
        if n_edges < 0:
            n_edges = verified_pairs.count()
        if n_edges <= cfg.local_state_max_rows:
            nodes, lbl = local_cc_labels(
                *gather_columns(verified_pairs, "a", "b"))
            return from_arrow_blocks(pa.Table.from_arrays(
                [pa.array(nodes, pa.uint64()), pa.array(lbl, pa.uint64())],
                names=["doc_id", "cluster_id"]))

    edges = verified_pairs.select_columns(["a", "b"]).map_batches(
        _orient_max_first_pairs, batch_format="pyarrow").materialize()
    prev = None
    for _ in range(cfg.max_cc_rounds):
        bidir = edges.map_batches(_bidir, batch_format="pyarrow")
        after_large = partition_apply(bidir, "u", _large_star, num_partitions)
        oriented = after_large.map_batches(_orient_max_first,
                                           batch_format="pyarrow")
        edges = partition_apply(oriented, "u", _small_star,
                                num_partitions).materialize()
        cs = _checksum(edges)
        if cs == prev:
            break
        prev = cs
    bidir = edges.map_batches(_bidir, batch_format="pyarrow")
    return partition_apply(bidir, "u", _labels, num_partitions)


def _orient_max_first_pairs(batch: pa.Table) -> pa.Table:
    a = batch["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
    b = batch["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
    return pa.Table.from_arrays([
        pa.array(np.maximum(a, b), pa.uint64()),
        pa.array(np.minimum(a, b), pa.uint64()),
    ], schema=EDGE_SCHEMA)
