"""Distributed union-find (star contraction) vs an in-memory DSU
(SURVEY.md §5 item 4)."""

import numpy as np
import pyarrow as pa
import pytest

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.stages.cc import connected_components


def _dsu_components(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    return {n: find(n) for n in parent}


# local_state_max_rows=0 sends every non-empty edge list to star contraction
DISTRIBUTED = MPLSHConfig(local_state_max_rows=0)


def _run_cc(edges, ray_session, cfg=DISTRIBUTED):
    import ray.data as rd

    t = pa.table({
        "a": pa.array([e[0] for e in edges], pa.uint64()),
        "b": pa.array([e[1] for e in edges], pa.uint64()),
        "jaccard": pa.array([1.0] * len(edges), pa.float64()),
    })
    labels = connected_components(rd.from_arrow(t), cfg, num_partitions=4)
    df = labels.to_pandas()
    return dict(zip(df["doc_id"].astype(int), df["cluster_id"].astype(int)))


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (1, 20, 15), (2, 50, 60), (3, 200, 150), (4, 100, 400),
])
def test_star_contraction_matches_dsu(ray_session, seed, n_nodes, n_edges):
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = rng.choice(np.arange(1, 10_000), size=n_nodes, replace=False)
    edges = [(int(nodes[rng.integers(n_nodes)]),
              int(nodes[rng.integers(n_nodes)])) for _ in range(n_edges)]
    edges = [(a, b) for a, b in edges if a != b]
    want = _dsu_components(edges)
    # the distributed star-contraction path (the 10^12-doc route) ...
    got = _run_cc(edges, ray_session)
    assert got == want
    # ... and the driver-side hybrid kernel agree with the reference DSU
    got_local = _run_cc(edges, ray_session, MPLSHConfig())
    assert got_local == want


def test_star_contraction_chain(ray_session):
    """Worst-case O(log n) structure: a long path."""
    edges = [(i, i + 1) for i in range(1, 64)]
    got = _run_cc(edges, ray_session)
    assert set(got.values()) == {1}
    assert len(got) == 64


@pytest.mark.parametrize("local_state_max_rows", [6_000_000, 0])
def test_no_edges_gives_typed_empty_labels(ray_session,
                                           local_state_max_rows):
    """An edgeless graph yields zero typed (uint64) labels whatever the
    local/exchange gate, so callers need no empty-graph branch."""
    import ray.data as rd

    verified = rd.from_arrow(pa.table({
        "a": pa.array([], pa.uint64()), "b": pa.array([], pa.uint64()),
        "jaccard": pa.array([], pa.float64())}))
    cfg = MPLSHConfig(local_state_max_rows=local_state_max_rows)
    labels = connected_components(verified, cfg, num_partitions=4,
                                  n_edges=0)
    assert labels.count() == 0
    assert labels.schema().base_schema == pa.schema(
        [("doc_id", pa.uint64()), ("cluster_id", pa.uint64())])
