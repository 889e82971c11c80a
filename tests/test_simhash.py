"""SimHash-mode tests: signature kernel vs a per-doc reference, banding +
multi-probe pair generation vs a brute-force Hamming oracle."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.extract import tokenize_batch
from ray_data_mplsh.functions.hashing import (
    poly_str_hashes, rolling_shingle_hashes,
)
from ray_data_mplsh.stages.simhash import (
    SIG_SCHEMA, SimHasher, _popcount64, make_simhash_band_emitter,
    simhash_pairs, simhash_with_margins,
)


def _ref_simhash(shingles: np.ndarray) -> tuple[int, np.ndarray]:
    """Scalar reference: per-bit majority vote over shingle hashes."""
    votes = np.zeros(64, np.int64)
    for s in shingles.tolist():
        for b in range(64):
            votes[b] += 1 if (s >> b) & 1 else -1
    sig = 0
    for b in range(64):
        if votes[b] > 0:
            sig |= 1 << b
    return sig, np.abs(votes)


def test_simhash_kernel_matches_reference():
    rng = np.random.Generator(np.random.PCG64(3))
    sh = rng.integers(0, 2**63, size=37, dtype=np.uint64)
    offsets = np.array([0, 10, 10, 37], np.int64)  # doc1, empty doc, doc3
    sig, marg = simhash_with_margins(sh, offsets)
    for i, (s, e) in enumerate([(0, 10), (10, 10), (10, 37)]):
        if s == e:
            assert sig[i] == 0
            continue
        ref_sig, ref_marg = _ref_simhash(sh[s:e])
        assert int(sig[i]) == ref_sig
        np.testing.assert_array_equal(marg[i], ref_marg)


def test_popcount64():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.integers(0, 2**63, size=100, dtype=np.uint64)
    expect = np.array([bin(int(v)).count("1") for v in x])
    np.testing.assert_array_equal(_popcount64(x), expect)


def _texts_corpus():
    """Docs with planted near-identical pairs (one word substituted in a
    600-word doc ⇒ SimHash Hamming distance mostly <= 3)."""
    rng = np.random.Generator(np.random.PCG64(11))
    vocab = [f"w{i}" for i in range(80)]
    texts, n = [], 48
    for i in range(n):
        words = [vocab[int(rng.integers(80))] for _ in range(600)]
        texts.append(" ".join(words))
        if i % 4 == 0:  # near-dup: flip one word
            w2 = list(words)
            w2[7] = vocab[0]
            texts.append(" ".join(w2))
    return texts


def _brute_hamming_pairs(texts, cfg, max_hamming):
    batch = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.uint64),
                                         pa.uint64()),
                      "text": pa.array(texts)})
    words, offs = tokenize_batch(batch["text"])
    wh = poly_str_hashes(words)
    sh, soffs = rolling_shingle_hashes(wh, offs, cfg.k_shingle)
    sig, _ = simhash_with_margins(sh, soffs)
    keep = np.diff(soffs) > 0
    sig = sig[keep]
    ids = np.arange(len(texts), dtype=np.uint64)[keep]
    out = set()
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            h = bin(int(sig[i] ^ sig[j])).count("1")
            if h <= max_hamming:
                out.add((int(min(ids[i], ids[j])),
                         int(max(ids[i], ids[j])), h))
    return out


@pytest.mark.parametrize("overrides", [
    {}, {"local_state_max_rows": 0, "broadcast_max_docs": 0},
], ids=["default", "forced_exchange"])
def test_simhash_pairs_match_bruteforce(ray_session, overrides):
    """Both branches of the bucket pairing (driver pass, key exchange)
    and both signature attaches of the Hamming check (broadcast,
    doc-keyed exchange) give the brute-force pair set."""
    import ray.data

    texts = _texts_corpus()
    cfg = MPLSHConfig(min_chars=10, probes=8, **overrides)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.uint64),
                           pa.uint64()),
        "text": pa.array(texts)}))
    got = simhash_pairs(docs, cfg, num_partitions=4,
                        max_hamming=3).to_pandas()
    brute = _brute_hamming_pairs(texts, cfg, 3)
    brute_pairs = {(a, b) for a, b, _ in brute}
    assert brute_pairs, "fixture must plant pairs at hamming <= 3"
    found = ({(int(a), int(b)) for a, b in zip(got.a, got.b)}
             if len(got) else set())
    # precision is exact: every emitted pair passed the same Hamming check
    assert found <= brute_pairs
    # hamming <= 3 with 4 blocks of 16 bits guarantees a shared exact block
    # (pigeonhole) -> recall of block-banding alone is already 1.0 here
    assert found == brute_pairs, (
        f"missing {brute_pairs - found}, extra {found - brute_pairs}")
    # reported hamming values match brute force
    ham = {(int(a), int(b)): int(h)
           for a, b, h in zip(got.a, got.b, got.hamming)}
    for a, b, h in brute:
        assert ham[(a, b)] == h


@pytest.mark.parametrize("probes", range(9))
def test_simhash_emitter_keys_unique_per_doc(probes):
    """No doc emits one band_hash twice, at any probe count: the 4 exact
    block keys live in distinct block namespaces, each probe flips a
    distinct bit (so changes its block's key), and mix64 is a bijection.
    Bucket pairing relies on it — a bucket never holds a doc twice, so
    it needs no per-bucket id dedup. Margins are drawn from a tiny range
    so that the score order is full of ties."""
    rng = np.random.Generator(np.random.PCG64(100 + probes))
    emit = make_simhash_band_emitter(MPLSHConfig(probes=probes))
    for _ in range(20):
        n = int(rng.integers(0, 60))
        sig = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        margins = rng.integers(0, 3, size=(n, 64)).astype(np.int64)
        batch = pa.Table.from_arrays([
            pa.array(np.arange(n, dtype=np.uint64)),
            pa.array(sig),
            pa.FixedSizeListArray.from_arrays(
                pa.array(margins.reshape(-1)), 64),
        ], schema=SIG_SCHEMA)
        out = emit(batch)
        ids = out["doc_id"].to_numpy()
        keys = out["band_hash"].to_numpy()
        assert len(ids) == n * (4 + probes)     # 4 blocks + T flips
        assert len(set(zip(ids.tolist(), keys.tolist()))) == len(ids)
