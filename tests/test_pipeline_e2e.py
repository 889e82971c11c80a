"""End-to-end distributed pipeline vs the frozen oracle + the recall gate
(SURVEY.md §5 items 1-2, 6; BASELINE.json:14 "matching the reference's
cluster assignments")."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from oracle.mplsh_oracle import canonicalize_url
from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.pipelines.dedup import run_dedup


@pytest.fixture(scope="module")
def pipeline_result(ray_session, small_fixture):
    import ray.data as rd

    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    return run_dedup(pages, MPLSHConfig(), extract=True)


def test_cluster_assignments_match_oracle(pipeline_result, small_oracle):
    out = pipeline_result.dedup_out.to_pandas()
    pipe = dict(zip(out["doc_id"].tolist(), out["cluster_id"].tolist()))
    assert pipe == small_oracle.clusters


def test_verified_pairs_match_oracle(pipeline_result, small_oracle):
    vp = pipeline_result.verified.to_pandas()
    pipe = set(zip(vp["a"].tolist(), vp["b"].tolist()))
    assert pipe == set(small_oracle.verified)
    # and the estimates agree
    est = dict(zip(zip(vp["a"].tolist(), vp["b"].tolist()),
                   vp["jaccard"]))
    for k, v in small_oracle.verified.items():
        assert abs(est[k] - v) < 1e-12


def test_canonical_and_final_text_match_oracle(pipeline_result, small_oracle):
    out = pipeline_result.dedup_out.to_pandas()
    canon = out[out["is_canonical"]]
    assert set(canon["doc_id"].tolist()) == small_oracle.canonical
    ft = dict(zip(canon["doc_id"].tolist(), canon["final_text"]))
    assert ft == small_oracle.dedup_text


def test_recall_gate(pipeline_result, small_fixture):
    """Dup-pair recall >= 0.99 at true Jaccard >= theta (BASELINE.json:2)."""
    out = pipeline_result.dedup_out.to_pandas()
    pairs = pq.read_table(f"{small_fixture}/gt_pairs.parquet")
    url2c = dict(zip(out["url"], out["cluster_id"].tolist()))
    found = missed = 0
    for ua, ub, j in zip(pairs["url_a"].to_pylist(),
                         pairs["url_b"].to_pylist(),
                         pairs["true_jaccard"].to_pylist()):
        if j < 0.8:
            continue
        ca = url2c.get(canonicalize_url(ua))
        cb = url2c.get(canonicalize_url(ub))
        if ca is not None and ca == cb:
            found += 1
        else:
            missed += 1
    recall = found / max(found + missed, 1)
    assert recall >= 0.99, f"recall {recall} ({missed} missed)"


def test_gt_cluster_partition_matches(pipeline_result, small_fixture):
    """Pipeline clusters == planted GT families for high-sim kinds: every
    exact/near_high member shares its base's cluster."""
    out = pipeline_result.dedup_out.to_pandas()
    pairs = pq.read_table(f"{small_fixture}/gt_pairs.parquet")
    url2c = dict(zip(out["url"], out["cluster_id"].tolist()))
    for ua, ub, kind, j in zip(pairs["url_a"].to_pylist(),
                               pairs["url_b"].to_pylist(),
                               pairs["kind"].to_pylist(),
                               pairs["true_jaccard"].to_pylist()):
        if kind == "exact" or (kind == "near_high" and j >= 0.9):
            assert url2c.get(canonicalize_url(ua)) == \
                url2c.get(canonicalize_url(ub)), (ua, ub, kind)


def test_exact_dups_collapsed_before_minhash(pipeline_result):
    docs = pipeline_result.docs.to_pandas()
    n_reps = (docs["doc_id"] == docs["rep_id"]).sum()
    assert pipeline_result.counters["n_docs_sig"] <= n_reps
    assert n_reps < len(docs)  # fixture plants exact dups


def test_canonical_is_cluster_id(pipeline_result):
    """S8 reads the canonical pick off the labels: with S2 reps the
    minimum id of their exact-text group and S7 labels the minimum rep of
    their component, a cluster's smallest member is its cluster_id, so
    is_canonical == (doc_id == cluster_id) before S9 trims anything —
    checked against the per-cluster minimum on a fixture with exact
    dups."""
    from ray_data_mplsh.stages.output import assign_and_mark

    m = assign_and_mark(pipeline_result.docs, pipeline_result.labels,
                        MPLSHConfig()).to_pandas()
    assert (m["doc_id"] != m["rep_id"]).any()       # exact dups present
    smallest = m.groupby("cluster_id")["doc_id"].transform("min")
    assert (m["is_canonical"] == (m["doc_id"] == smallest)).all()
    assert (m["is_canonical"] == (m["doc_id"] == m["cluster_id"])).all()
    assert m.groupby("cluster_id").size().max() > 1


def test_salted_path_equivalent(ray_session, small_fixture, small_oracle):
    """salt_shards > 1 must not change the final cluster map (op 15:
    salting preserves connectivity via cross-shard star linking)."""
    import ray.data as rd

    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    cfg = MPLSHConfig(salt_shards=4)
    res = run_dedup(pages, cfg, extract=True, skip_substring=True)
    out = res.dedup_out.to_pandas()
    pipe = dict(zip(out["doc_id"].tolist(), out["cluster_id"].tolist()))
    assert pipe == small_oracle.clusters


def test_shuffle_verify_path_equivalent(ray_session, small_fixture,
                                        small_oracle):
    """Forcing the shuffle sig-attach path (broadcast threshold 0) gives the
    same verified pairs as the broadcast path."""
    import ray.data as rd

    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    cfg = MPLSHConfig(broadcast_max_docs=0)
    res = run_dedup(pages, cfg, extract=True, skip_substring=True)
    vp = res.verified.to_pandas()
    pipe = set(zip(vp["a"].tolist(), vp["b"].tolist()))
    assert pipe == set(small_oracle.verified)


def test_shuffle_substring_path_equivalent(pipeline_result, ray_session,
                                           small_fixture, small_oracle):
    """Forcing the pair-keyed shuffle text-attach in the substring stage
    (broadcast threshold 0) yields byte-identical final_text to the
    broadcast path — the scale path never materializes canonical texts on
    the driver."""
    import ray.data as rd

    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    cfg = MPLSHConfig(broadcast_max_docs=0)
    res = run_dedup(pages, cfg, extract=True)
    out = res.dedup_out.to_pandas()
    canon = out[out["is_canonical"]]
    ft = dict(zip(canon["doc_id"].tolist(), canon["final_text"]))
    base = pipeline_result.dedup_out.to_pandas()
    base_c = base[base["is_canonical"]]
    base_ft = dict(zip(base_c["doc_id"].tolist(), base_c["final_text"]))
    assert ft == base_ft
    assert ft == small_oracle.dedup_text


def test_substring_byte_gate_forces_shuffle(ray_session, small_fixture,
                                            small_oracle):
    """The BYTE-based substring gate (substr_broadcast_max_bytes=0) routes
    text attach through the shuffle path even when the doc count is under
    broadcast_max_docs — same byte-identical final_text."""
    import ray.data as rd

    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    cfg = MPLSHConfig(substr_broadcast_max_bytes=0)
    res = run_dedup(pages, cfg, extract=True)
    out = res.dedup_out.to_pandas()
    canon = out[out["is_canonical"]]
    ft = dict(zip(canon["doc_id"].tolist(), canon["final_text"]))
    assert ft == small_oracle.dedup_text


def test_local_hybrid_gate_forces_exchanges(ray_session, small_fixture,
                                            small_oracle):
    """local_state_max_rows=0 forces every local-hybrid stage (exact-dedup
    member map, substring fingerprint bucketing, pair dedup) onto its
    distributed exchange path — the web-scale route must stay
    byte-identical to the small-corpus driver-side kernels."""
    import ray.data as rd

    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    cfg = MPLSHConfig(local_state_max_rows=0)
    res = run_dedup(pages, cfg, extract=True)
    out = res.dedup_out.to_pandas()
    canon = out[out["is_canonical"]]
    ft = dict(zip(canon["doc_id"].tolist(), canon["final_text"]))
    assert ft == small_oracle.dedup_text


def _pipeline_vs_oracle_on(table, ray_session):
    """Run both engines in text mode on the same table; assert cluster
    assignments, canonical set and verified pair set all agree."""
    import ray.data as rd

    from oracle import run_oracle

    cfg = MPLSHConfig(min_chars=1)
    want = run_oracle(table, cfg)
    res = run_dedup(rd.from_arrow(table), cfg, extract=False,
                    skip_substring=True)
    out = res.dedup_out.to_pandas()
    pipe = dict(zip(out["doc_id"].tolist(), out["cluster_id"].tolist()))
    assert pipe == want.clusters
    canon = set(out[out["is_canonical"]]["doc_id"].tolist())
    assert canon == want.canonical
    vp = res.verified.to_pandas()
    got_pairs = set(zip(vp["a"], vp["b"])) if "a" in vp else set()
    assert got_pairs == set(want.verified)
    return out, want


def test_all_identical_corpus_collapses_to_one(ray_session):
    """300 byte-identical docs: exact dedup must collapse the whole
    corpus to ONE rep before MinHash (zero signatures to pair), and the
    output must agree with the oracle — the all-duplicates extreme a
    crawler's error page produces at scale."""
    import pyarrow as pa

    text = " ".join("tok%d" % (i % 37) for i in range(60))
    table = pa.table({
        "url": pa.array([f"http://dup.example/{i}" for i in range(300)]),
        "text": pa.array([text] * 300)})
    out, want = _pipeline_vs_oracle_on(table, ray_session)
    assert out["cluster_id"].nunique() == 1
    assert out["is_canonical"].sum() == 1


def test_one_giant_near_dup_family(ray_session):
    """150 docs that are pairwise near-identical (each swaps one word of
    a shared 80-word base): every band bucket holds the whole corpus, so
    the bucket-cap star pairing and the deep star-contraction path run
    for real — and must still match the oracle exactly."""
    import numpy as np
    import pyarrow as pa

    base = ["w%d" % i for i in range(80)]
    rng = np.random.default_rng(7)
    texts = []
    for i in range(150):
        words = list(base)
        words[int(rng.integers(0, 80))] = "swap%d" % i
        texts.append(" ".join(words))
    table = pa.table({
        "url": pa.array([f"http://fam.example/{i}" for i in range(150)]),
        "text": pa.array(texts)})
    out, want = _pipeline_vs_oracle_on(table, ray_session)
    assert out["cluster_id"].nunique() == 1  # one family
    assert len(want.verified) > 0


def test_bundled_emitter_path_equivalent(pipeline_result, ray_session,
                                         small_fixture, monkeypatch):
    """The large-corpus emitter bundling (stages/output.BUNDLE_MIN_DOCS /
    BUNDLE_MIN_BYTES — fingerprint and band-key streams coalesced into
    few big blocks before their sort exchanges) must be invisible to
    results: lower the gate so the fixture corpus takes the bundled
    plan and compare the whole dedup output bit-for-bit against the
    default (unbundled) run. Covers the path the 150k-doc scaling
    fixture exercises but the small pytest corpora otherwise never
    reach."""
    import ray.data as rd

    from ray_data_mplsh.stages import output as So

    monkeypatch.setattr(So, "BUNDLE_MIN_DOCS", 1)
    monkeypatch.setattr(So, "BUNDLE_MIN_BYTES", 1)
    pages = rd.read_parquet(f"{small_fixture}/pages.parquet")
    res = run_dedup(pages, MPLSHConfig(), extract=True)
    cols = ["doc_id", "cluster_id", "is_canonical", "final_text"]
    got = res.dedup_out.to_pandas()[cols] \
        .sort_values("doc_id").reset_index(drop=True)
    want = pipeline_result.dedup_out.to_pandas()[cols] \
        .sort_values("doc_id").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(got, want, check_exact=True)
