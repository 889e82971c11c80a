"""Property-based gates (SURVEY.md §5 item 5): kernel equivalence under
chunking, multi-probe monotonicity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import (
    make_perm_params, minhash_signatures,
)
from ray_data_mplsh.stages.bands import band_probe_keys


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 30))
def test_minhash_chunked_equals_naive(seed, ndocs):
    """The cache-chunked kernel (shingle chunks x perm chunks, empty docs,
    chunk-straddling segments) equals the naive per-doc reference."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a, b = make_perm_params(16, 5)
    counts = rng.integers(0, 3000, ndocs)
    counts[rng.random(ndocs) < 0.3] = 0
    offs = np.zeros(ndocs + 1, np.int64)
    np.cumsum(counts, out=offs[1:])
    sh = rng.integers(0, 2**63, offs[-1], dtype=np.uint64)
    got = minhash_signatures(sh, offs, a, b)
    want = np.full((ndocs, 16), np.iinfo(np.uint64).max, np.uint64)
    for d in range(ndocs):
        s = sh[offs[d]:offs[d + 1]]
        if len(s):
            want[d] = (s[:, None] * a[None, :] + b[None, :]).min(axis=0)
    assert np.array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_multiprobe_collisions_monotone_in_T(seed):
    """Any pair colliding at probe budget T also collides at T' > T: the
    key set of a doc at T is a strict subset of its key set at T'
    ([MPLSH §4] probes only ADD candidate buckets)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sig = rng.integers(0, 2**63, (4, 128), dtype=np.uint64)

    def keys(T):
        cfg = MPLSHConfig(probes=T)
        h = band_probe_keys(sig, cfg)
        per_doc = cfg.bands * (1 + T)
        return [set(h[i * per_doc:(i + 1) * per_doc].tolist())
                for i in range(4)]

    k2, k5, k8 = keys(2), keys(5), keys(8)
    for i in range(4):
        assert k2[i] <= k5[i] <= k8[i]
    # collision monotonicity follows: shared key at T=2 is still shared
    for i in range(4):
        for j in range(i + 1, 4):
            if k2[i] & k2[j]:
                assert k5[i] & k5[j] and k8[i] & k8[j]


def test_identical_docs_always_collide():
    rng = np.random.Generator(np.random.PCG64(0))
    row = rng.integers(0, 2**63, 128, dtype=np.uint64)
    sig = np.vstack([row, row])
    cfg = MPLSHConfig()
    h = band_probe_keys(sig, cfg)
    per_doc = cfg.bands * (1 + cfg.probes)
    assert set(h[:per_doc]) == set(h[per_doc:])
