"""Similarity-search tests: brute-force exactness, LSH+multi-probe recall,
embedding near-dup precision/recall on planted clusters."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _planted_embeddings(n_base=200, dups_per=3, d=32, seed=5):
    """Base vectors + near-copies (small Gaussian jitter) => known near-dup
    clusters; returns (table, true_pairs set)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = rng.standard_normal((n_base, d)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    vecs, ids, true_pairs = [], [], set()
    vid = 0
    for i in range(n_base):
        members = [vid]
        vecs.append(base[i]); ids.append(vid); vid += 1
        n_dup = dups_per if i % 10 == 0 else 0
        for _ in range(n_dup):
            v = base[i] + 0.02 * rng.standard_normal(d).astype(np.float32)
            vecs.append(v / np.linalg.norm(v)); ids.append(vid)
            members.append(vid); vid += 1
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                true_pairs.add((members[x], members[y]))
    m = np.stack(vecs)
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.reshape(-1), pa.float32()), d),
    })
    return tbl, m, np.asarray(ids), true_pairs


@pytest.fixture(scope="module")
def emb_data(ray_session):
    import ray.data

    tbl, m, ids, true_pairs = _planted_embeddings()
    return ray.data.from_arrow(tbl), tbl, m, ids, true_pairs


def _brute_topk(m, ids, q, k):
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    scores = m @ qn.T
    out = {}
    for j in range(q.shape[0]):
        order = np.lexsort((ids, -scores[:, j]))
        out[j] = [int(ids[i]) for i in order[:k]]
    return out


def test_knn_bruteforce_matches_numpy(emb_data):
    from ray_data_mplsh.pipelines.similarity import knn_bruteforce

    ds, tbl, m, ids, _ = emb_data
    q = m[:5]
    res = knn_bruteforce(ds, np.arange(5), q, k=8).to_pandas()
    expected = _brute_topk(m, ids, q, 8)
    for j in range(5):
        got = res[res.query_id == j].sort_values(
            ["cosine", "vec_id"], ascending=[False, True]).vec_id.tolist()
        assert got == expected[j], f"query {j}"


def test_knn_lsh_recall_vs_bruteforce(emb_data):
    from ray_data_mplsh.pipelines.similarity import knn_lsh

    ds, tbl, m, ids, _ = emb_data
    nq, k = 10, 10
    q = m[:nq]
    exact = _brute_topk(m, ids, q, k)
    res = knn_lsh(ds, np.arange(nq), q, k=k, n_bits=8, n_tables=8,
                  n_probes=24).to_pandas()
    hits = tot = 0
    for j in range(nq):
        got = set(res[res.query_id == j].vec_id.tolist())
        hits += len(got & set(exact[j]))
        tot += k
    assert hits / tot >= 0.8, f"LSH recall {hits/tot:.2f}"


def test_knn_lsh_multiprobe_beats_exact_only(emb_data):
    """More probes -> recall monotonically no worse (the [MPLSH §4] trade)."""
    from ray_data_mplsh.pipelines.similarity import knn_lsh

    ds, tbl, m, ids, _ = emb_data
    nq, k = 8, 10
    q = m[:nq]
    exact = _brute_topk(m, ids, q, k)

    def recall(n_probes):
        res = knn_lsh(ds, np.arange(nq), q, k=k, n_bits=12, n_tables=2,
                      n_probes=n_probes).to_pandas()
        hits = sum(len(set(res[res.query_id == j].vec_id) & set(exact[j]))
                   for j in range(nq))
        return hits / (nq * k)

    r1, r8 = recall(1), recall(8)
    assert r8 >= r1, (r1, r8)


def test_knn_ivf_recall_vs_bruteforce(emb_data):
    from ray_data_mplsh.pipelines.similarity import knn_ivf

    ds, tbl, m, ids, _ = emb_data
    nq, k = 10, 10
    q = m[:nq]
    exact = _brute_topk(m, ids, q, k)
    res = knn_ivf(ds, np.arange(nq), q, k=k, n_centroids=16,
                  n_probe=8).to_pandas()
    hits = sum(len(set(res[res.query_id == j].vec_id) & set(exact[j]))
               for j in range(nq))
    assert hits / (nq * k) >= 0.8, f"IVF recall {hits/(nq*k):.2f}"


def test_embedding_near_dup_exact_path_matches_numpy(emb_data):
    """The small-side EXACT broadcast path (default gate) must return
    precisely the numpy all-pairs >= threshold set, pairs a < b, and be a
    superset of whatever the LSH path finds."""
    from ray_data_mplsh.pipelines.similarity import embedding_near_dup

    ds, tbl, m, ids, _ = emb_data
    thr = 0.95
    res = embedding_near_dup(ds, threshold=thr).to_pandas()
    m64 = m.astype(np.float64)
    m64 /= np.linalg.norm(m64, axis=1, keepdims=True)
    sims = m64 @ m64.T
    i, j = np.triu_indices(len(ids), k=1)
    hit = sims[i, j] >= thr
    want = {(int(ids[a]), int(ids[b])) for a, b in zip(i[hit], j[hit])}
    got = {(int(a), int(b)) for a, b in zip(res.a, res.b)}
    assert got == want
    assert (res.a < res.b).all()
    lsh = embedding_near_dup(ds, threshold=thr, n_bits=8, n_tables=8,
                             exact_max_vecs=0).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(lsh.a, lsh.b)} <= got


def test_merge_topk_equals_pandas_reference(ray_session):
    """The distributed query-keyed top-k merge must be bit-identical to
    the former driver-side pandas gather (drop_duplicates + sort +
    groupby.head(k)) on partials with duplicate (q, v) rows and ties."""
    import pandas as pd
    import ray.data

    from ray_data_mplsh.pipelines.similarity import _merge_topk
    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    rng = np.random.Generator(np.random.PCG64(7))
    nq, k, n = 6, 5, 4000
    q = rng.integers(0, nq, n).astype(np.int64)
    v = rng.integers(0, 300, n).astype(np.int64)
    # quantized cosines force ties; duplicates get IDENTICAL cosine (the
    # real invariant: the same candidate scored in two LSH tables)
    c = np.round(rng.random(300), 2)[v]
    tbl = pa.table({"query_id": pa.array(q), "vec_id": pa.array(v),
                    "cosine": pa.array(c, pa.float64())})
    got = _merge_topk(from_arrow_blocks(tbl, target_rows=256),
                      k, nq).to_pandas()
    want = tbl.to_pandas().drop_duplicates(["query_id", "vec_id"]) \
        .sort_values(["query_id", "cosine", "vec_id"],
                     ascending=[True, False, True]) \
        .groupby("query_id", sort=True).head(k).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


def test_embedding_near_dup_finds_planted(emb_data):
    from ray_data_mplsh.pipelines.similarity import embedding_near_dup

    ds, tbl, m, ids, true_pairs = emb_data
    # exact_max_vecs=0 forces the LSH-bucketed scale path (the default
    # small-side gate would route this broadcast-sized fixture to the
    # exact path, which is separately pinned below)
    res = embedding_near_dup(ds, threshold=0.95, n_bits=8,
                             n_tables=8, exact_max_vecs=0).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(res.a, res.b)}
    # precision: every reported pair really is >= threshold
    pos = {int(v): i for i, v in enumerate(ids)}
    for a, b in found:
        assert float(m[pos[a]] @ m[pos[b]]) >= 0.95 - 1e-6
    # recall vs planted pairs that are actually >= threshold
    truly = {(a, b) for a, b in true_pairs
             if float(m[pos[a]] @ m[pos[b]]) >= 0.96}
    assert truly, "fixture should plant pairs above threshold"
    rec = len(found & truly) / len(truly)
    assert rec >= 0.95, f"near-dup recall {rec:.2f}"


def test_knn_on_one_cpu_cluster_completes(tmp_path):
    """knn_lsh / knn_bruteforce over a parquet read on a 1-CPU Ray (in a
    subprocess, so the session cluster's CPUs do not hide it): their
    scoring stages are plain tasks, so nothing holds the only CPU while
    the upstream read waits for it."""
    import os
    import subprocess
    import sys

    script = """
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

root, path = sys.argv[1], sys.argv[2]
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={"env_vars": {"PYTHONPATH": root}})
rd.DataContext.get_current().enable_progress_bars = False
from ray_data_mplsh.pipelines.similarity import knn_bruteforce, knn_lsh

rng = np.random.Generator(np.random.PCG64(3))
m = rng.standard_normal((600, 16)).astype(np.float32)
pq.write_table(pa.table({
    "vec_id": pa.array(np.arange(600), pa.int64()),
    "embedding": pa.FixedSizeListArray.from_arrays(
        pa.array(m.reshape(-1), pa.float32()), 16)}), path)
ds = rd.read_parquet(path)
a = knn_lsh(ds, np.arange(4), m[:4], k=5)
b = knn_bruteforce(ds, np.arange(4), m[:4], k=5)
print("ROWS", a.num_rows, b.num_rows)
ray.shutdown()
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, root,
         str(tmp_path / "emb.parquet")],
        cwd=root, capture_output=True, text=True, timeout=240,
        env={**os.environ, "PYTHONPATH": root})
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = proc.stdout.split("ROWS")[-1].split()
    # brute force returns k rows per query; LSH at least each query's own
    # vector (an exact hit in its home bucket)
    assert int(rows[0]) >= 4 and int(rows[1]) == 20, proc.stdout


@pytest.mark.parametrize("stage", ["pattern_counts", "simhash", "media"])
def test_task_stages_on_one_cpu_cluster_complete(tmp_path, stage):
    """q_pattern_counts, simhash_pairs and decode_media over a parquet
    read on a 1-CPU Ray (in a subprocess, like the knn test above): their
    per-process setup is memoized in plain tasks, so no actor holds the
    only CPU while the upstream read waits for it."""
    import os
    import subprocess
    import sys

    script = """
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

root, d, stage = sys.argv[1], sys.argv[2], sys.argv[3]
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={"env_vars": {"PYTHONPATH": root}})
rd.DataContext.get_current().enable_progress_bars = False
from ray_data_mplsh.pipelines.queries import q_pattern_counts, q_simhash_pairs
from ray_data_mplsh.stages.multimodal import decode_media, synth_media

rng = np.random.Generator(np.random.PCG64(4))
words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta"]
texts = [" ".join(rng.choice(words, 40)) for _ in range(150)]
texts += texts[:50]                       # exact dups: simhash pairs
pq.write_table(pa.table({"doc_id": pa.array(np.arange(200), pa.int64()),
                         "text": pa.array(texts)}),
               d + "/documents.parquet")
if stage == "pattern_counts":
    n = q_pattern_counts(d).count()
elif stage == "simhash":
    n = q_simhash_pairs(d).count()
else:
    synth_media(30, seed=3).write_parquet(d + "/media")
    n = decode_media(rd.read_parquet(d + "/media")).count()
print("ROWS", n)
ray.shutdown()
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, root, str(tmp_path), stage],
        cwd=root, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": root})
    assert proc.returncode == 0, proc.stderr[-2000:]
    n = int(proc.stdout.split("ROWS")[-1].split()[0])
    assert n == {"pattern_counts": 200, "simhash": 50, "media": 30}[stage]
