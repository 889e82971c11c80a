"""Exact n-gram Jaccard: kernel vs brute force, and broadcast == shuffle
path equivalence with the doc cap removed (SURVEY.md op 18 exact variant)."""

import numpy as np
import pyarrow as pa
import pytest

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.pipelines.ngram import (
    exact_jaccard_pairs, pair_jaccard_kernel, shingle_sets_batch,
)


def test_pair_jaccard_kernel_matches_bruteforce():
    rng = np.random.Generator(np.random.PCG64(7))
    sets = [np.unique(rng.integers(0, 50, size=rng.integers(0, 30),
                                   dtype=np.uint64))
            for _ in range(40)]
    ai = rng.integers(0, 40, size=60)
    bi = rng.integers(0, 40, size=60)
    va = np.concatenate([sets[i] for i in ai]) if len(ai) else \
        np.empty(0, np.uint64)
    vb = np.concatenate([sets[i] for i in bi]) if len(bi) else \
        np.empty(0, np.uint64)
    la = np.array([len(sets[i]) for i in ai], np.int64)
    lb = np.array([len(sets[i]) for i in bi], np.int64)
    got = pair_jaccard_kernel(va, la, vb, lb)
    for n, (i, j) in enumerate(zip(ai, bi)):
        inter = len(np.intersect1d(sets[i], sets[j], assume_unique=True))
        union = len(sets[i]) + len(sets[j]) - inter
        want = inter / union if union else 0.0
        assert got[n] == pytest.approx(want, abs=1e-12)


def _docs_and_pairs(ray_session, small_fixture):
    import pyarrow.parquet as pq
    import ray.data as rd

    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    pages = pq.read_table(f"{small_fixture}/pages.parquet")
    ids = np.arange(pages.num_rows, dtype=np.uint64)
    docs_tbl = pa.table({"doc_id": pa.array(ids, pa.uint64()),
                         "text": pages["text"]})
    docs = from_arrow_blocks(docs_tbl, target_rows=16)
    rng = np.random.Generator(np.random.PCG64(3))
    a = rng.integers(0, pages.num_rows, size=200).astype(np.uint64)
    b = rng.integers(0, pages.num_rows, size=200).astype(np.uint64)
    keep = a != b
    a, b = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    o = np.lexsort((b, a))
    a, b = a[o], b[o]
    first = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
    pairs_tbl = pa.table({"a": pa.array(a[first], pa.uint64()),
                          "b": pa.array(b[first], pa.uint64())})
    return docs, from_arrow_blocks(pairs_tbl, target_rows=16), docs_tbl


def test_shuffle_path_equals_broadcast_path(ray_session, small_fixture):
    cfg = MPLSHConfig()
    docs, pairs, docs_tbl = _docs_and_pairs(ray_session, small_fixture)
    bc = exact_jaccard_pairs(pairs, docs, cfg).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    sh = exact_jaccard_pairs(pairs, docs, MPLSHConfig(broadcast_max_docs=0),
                             num_partitions=4).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    assert len(bc) == len(sh) > 0
    assert (bc["a"] == sh["a"]).all() and (bc["b"] == sh["b"]).all()
    assert np.allclose(bc["jaccard"], sh["jaccard"], atol=0)

    # spot-check values against a direct per-pair set computation
    sets = {}
    for i in range(0, docs_tbl.num_rows, 64):
        chunk = docs_tbl.slice(i, 64)
        for did, s in zip(
                chunk["doc_id"].to_numpy(zero_copy_only=False),
                shingle_sets_batch(chunk, cfg.k_shingle)):
            sets[int(did)] = s
    for _, row in bc.head(50).iterrows():
        sa, sb = sets[int(row["a"])], sets[int(row["b"])]
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        want = inter / union if union else 0.0
        assert row["jaccard"] == pytest.approx(want, abs=1e-12)


def test_min_jaccard_filter(ray_session, small_fixture):
    cfg = MPLSHConfig()
    docs, pairs, _ = _docs_and_pairs(ray_session, small_fixture)
    out = exact_jaccard_pairs(pairs, docs, cfg, min_jaccard=0.5).to_pandas()
    assert (out["jaccard"] >= 0.5).all()


@pytest.mark.parametrize("vocab_cap", [4_000_000, 0])
def test_ppjoin_planted_families_complete(ray_session, tmp_path,
                                          vocab_cap):
    """PPJoin completeness on a corpus built to stress the prefix
    filter: near-dup FAMILIES (one base text, members differing by a
    few appended words so pairwise Jaccard straddles the threshold),
    plus random background docs and sub-5-word docs (no shingles).
    The DuckDB equijoin oracle is exact brute force, so any pair the
    prefix filter drops (false negative) or any candidate the verify
    stage mis-scores shows up as a frame mismatch. Every planted
    within-family pair with J >= T must be present. vocab_cap=0 forces
    the keyed-exchange df/prefix fallback (path equivalence)."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from ray_data_mplsh.pipelines.queries import (ORACLE_SQL, _PPJ_T,
                                                  _read, ppjoin_pairs)

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for f in range(6):                       # 6 families x 5 members
        base = [vocab[int(j)] for j in rng.integers(0, 400, 40)]
        for m in range(5):
            extra = [vocab[int(j)] for j in rng.integers(0, 400, 2 * m)]
            texts.append(" ".join(base + extra))
    for _ in range(60):                      # background noise
        k = int(rng.integers(0, 30))
        texts.append(" ".join(vocab[int(j)]
                              for j in rng.integers(0, 400, k)))
    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}), f"{d}/documents.parquet")
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{d}/documents.parquet'")
    got = ppjoin_pairs(
        _read(d, "documents", ["doc_id", "text"]),
        broadcast_max_vocab=vocab_cap).to_pandas()
    want = con.sql(ORACLE_SQL["q_ppjoin_pairs"]).df()
    con.close()
    cols = sorted(want.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    assert list(a.dtypes) == list(b.dtypes)
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    assert len(a) >= 6, "families must produce threshold pairs"
    assert (a["jaccard"] >= _PPJ_T).all()


def test_ppjoin_bucket_guard_raises(ray_session, tmp_path, monkeypatch):
    """The quadratic guard fires loudly instead of silently salting: with
    the bucket cap forced to 1, any prefix token shared by two docs
    overflows and the candidate stage raises."""
    import pyarrow.parquet as pq
    import ray

    import ray_data_mplsh.pipelines.queries as Q

    d = str(tmp_path)
    base = " ".join(f"g{i}" for i in range(12))
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([base, base], pa.string())}),
        f"{d}/documents.parquet")
    monkeypatch.setattr(Q, "_PPJ_MAX_BUCKET", 1)
    with pytest.raises((RuntimeError, ray.exceptions.RayTaskError),
                       match="_PPJ_MAX_BUCKET"):
        Q.QUERIES["q_ppjoin_pairs"](d).materialize()
