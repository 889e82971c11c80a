"""Incremental dedup: folding a new shard into a checkpointed base run
must produce the same duplicate-cluster PARTITION and canonical picks as
a from-scratch joint run (labels may differ only through base-rep
adoption, which is partition-preserving)."""

import dataclasses

import numpy as np
import pyarrow.parquet as pq
import pytest

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.pipelines.dedup import run_dedup
from ray_data_mplsh.pipelines.incremental import run_dedup_incremental


def _partition_and_canon(res):
    out = res.dedup_out.to_pandas()
    groups: dict = {}
    for did, cid in zip(out["doc_id"].tolist(), out["cluster_id"].tolist()):
        groups.setdefault(cid, set()).add(did)
    canon = set(out[out["is_canonical"]]["doc_id"].tolist())
    return {frozenset(v) for v in groups.values()}, canon


def _shards(small_fixture):
    import ray.data as rd

    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    pages = pq.read_table(f"{small_fixture}/pages.parquet")
    n = pages.num_rows
    cut = (2 * n) // 3
    s1 = from_arrow_blocks(pages.slice(0, cut), target_rows=32)
    s2 = from_arrow_blocks(pages.slice(cut), target_rows=32)
    joint = rd.read_parquet(f"{small_fixture}/pages.parquet")
    return s1, s2, joint


def test_incremental_equals_joint(ray_session, small_fixture, tmp_path):
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(s1, cfg, extract=True, skip_substring=True)

    inc_cfg = dataclasses.replace(cfg, run_id="incr")
    inc = run_dedup_incremental(s2, inc_cfg, base_run_id="base",
                                extract=True, skip_substring=True)
    ref = run_dedup(joint, MPLSHConfig(), extract=True, skip_substring=True)

    inc_part, inc_canon = _partition_and_canon(inc)
    ref_part, ref_canon = _partition_and_canon(ref)
    assert inc_part == ref_part
    assert inc_canon == ref_canon
    # the base's expensive signature stage was NOT recomputed: only the
    # new shard's reps were signed
    assert inc.counters["n_new_sigs"] < joint.count()
    assert inc.counters["base_resumed"]


def test_incremental_with_substring_pass(ray_session, small_fixture,
                                         tmp_path):
    """With the substring pass enabled, the incremental run's final_text
    per canonical doc matches the from-scratch joint run byte for byte."""
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(s1, cfg, extract=True, skip_substring=True)
    inc_cfg = dataclasses.replace(cfg, run_id="incr")
    inc = run_dedup_incremental(s2, inc_cfg, base_run_id="base",
                                extract=True, skip_substring=False)
    ref = run_dedup(joint, MPLSHConfig(), extract=True,
                    skip_substring=False)
    inc_out = inc.dedup_out.to_pandas()
    ref_out = ref.dedup_out.to_pandas()
    inc_ft = dict(zip(inc_out[inc_out["is_canonical"]]["doc_id"].tolist(),
                      inc_out[inc_out["is_canonical"]]["final_text"]))
    ref_ft = dict(zip(ref_out[ref_out["is_canonical"]]["doc_id"].tolist(),
                      ref_out[ref_out["is_canonical"]]["final_text"]))
    assert inc_ft == ref_ft


def test_incremental_substring_forced_shuffle(ray_session, small_fixture,
                                              tmp_path):
    """Joint incremental + substring with the BYTE gate forcing the
    shuffle text-attach path (substr_broadcast_max_bytes=0): final_text
    per canonical still matches the from-scratch joint run byte for
    byte — the incremental checkpoints and the scale-path attach
    compose."""
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base",
                      substr_broadcast_max_bytes=0)
    run_dedup(s1, cfg, extract=True, skip_substring=True)
    inc_cfg = dataclasses.replace(cfg, run_id="incr")
    inc = run_dedup_incremental(s2, inc_cfg, base_run_id="base",
                                extract=True, skip_substring=False)
    ref = run_dedup(joint, MPLSHConfig(substr_broadcast_max_bytes=0),
                    extract=True, skip_substring=False)
    inc_out = inc.dedup_out.to_pandas()
    ref_out = ref.dedup_out.to_pandas()
    inc_ft = dict(zip(inc_out[inc_out["is_canonical"]]["doc_id"].tolist(),
                      inc_out[inc_out["is_canonical"]]["final_text"]))
    ref_ft = dict(zip(ref_out[ref_out["is_canonical"]]["doc_id"].tolist(),
                      ref_out[ref_out["is_canonical"]]["final_text"]))
    assert inc_ft == ref_ft


def test_incremental_substring_reuse_forced_shuffle(ray_session,
                                                    small_fixture, tmp_path):
    """Reuse path (base kept its substring checkpoints) with the BYTE gate
    forcing the exchange text attach for the fresh pairs: final_text per
    canonical matches the from-scratch joint run byte for byte."""
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base",
                      substr_broadcast_max_bytes=0)
    run_dedup(s1, cfg, extract=True, skip_substring=False)
    inc_cfg = dataclasses.replace(cfg, run_id="incr")
    inc = run_dedup_incremental(s2, inc_cfg, base_run_id="base",
                                extract=True, skip_substring=False)
    assert inc.counters["substr_incremental"]
    assert inc.counters["n_substr_pairs_fresh"] > 0
    ref = run_dedup(joint, MPLSHConfig(substr_broadcast_max_bytes=0),
                    extract=True, skip_substring=False)
    inc_out = inc.dedup_out.to_pandas()
    ref_out = ref.dedup_out.to_pandas()
    inc_ft = dict(zip(inc_out[inc_out["is_canonical"]]["doc_id"].tolist(),
                      inc_out[inc_out["is_canonical"]]["final_text"]))
    ref_ft = dict(zip(ref_out[ref_out["is_canonical"]]["doc_id"].tolist(),
                      ref_out[ref_out["is_canonical"]]["final_text"]))
    assert inc_ft == ref_ft


def test_incremental_adopted_smaller_id_is_canonical(ray_session,
                                                     small_fixture,
                                                     tmp_path):
    """A new doc whose text equals a canonical base doc's, with a smaller
    id than every base doc: the fold adopts it into the base rep's group
    (the base signature is reused), so it undercuts its cluster's id —
    it must still be the canonical pick, as in the from-scratch run."""
    import pyarrow as pa
    import ray.data as rd

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.docs import canonicalize_urls
    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    pages = pq.read_table(f"{small_fixture}/pages.parquet")
    cut = (2 * pages.num_rows) // 3
    base_pages, new_pages = pages.slice(0, cut), pages.slice(cut)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    base = run_dedup(from_arrow_blocks(base_pages, target_rows=32), cfg,
                     extract=True, skip_substring=True)
    bout = base.dedup_out.to_pandas()
    size = bout.groupby("cluster_id")["doc_id"].transform("size")
    pick = int(bout[bout["is_canonical"] & (size > 1)]["doc_id"].iloc[0])
    urls = [f"http://adopt.example/{i}" for i in range(20000)]
    ids = hash_str_array(canonicalize_urls(pa.array(urls)))
    low = int(np.argmin(ids))
    assert int(ids[low]) < int(bout["doc_id"].min())
    row = base_pages.filter(pa.array(
        hash_str_array(canonicalize_urls(base_pages["url"])) ==
        np.uint64(pick)))
    assert row.num_rows == 1
    row = row.set_column(row.schema.get_field_index("url"), "url",
                         pa.array([urls[low]], row.schema.field("url").type))
    new_pages = pa.concat_tables([new_pages, row])

    inc = run_dedup_incremental(
        from_arrow_blocks(new_pages, target_rows=32),
        dataclasses.replace(cfg, run_id="inc"), base_run_id="base",
        extract=True, skip_substring=True)
    assert inc.counters["n_adopted_reps"] >= 1
    ref = run_dedup(rd.from_arrow(pa.concat_tables([base_pages, new_pages])),
                    MPLSHConfig(), extract=True, skip_substring=True)
    inc_part, inc_canon = _partition_and_canon(inc)
    ref_part, ref_canon = _partition_and_canon(ref)
    assert int(ids[low]) in ref_canon
    assert inc_canon == ref_canon
    assert inc_part == ref_part


def test_incremental_requires_valid_base(ray_session, small_fixture,
                                         tmp_path):
    _, s2, _ = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="incr")
    with pytest.raises(ValueError, match="no valid"):
        run_dedup_incremental(s2, cfg, base_run_id="missing", extract=True)
    with pytest.raises(ValueError, match="ckpt_dir"):
        run_dedup_incremental(s2, MPLSHConfig(), base_run_id="x",
                              extract=True)


def test_incremental_substring_reuse(ray_session, small_fixture, tmp_path):
    """When the base run kept its substring checkpoints (full run, not
    skip_substring), the incremental run takes the REUSE path — base
    fingerprints filtered by the revoked set, base pair-spans semi-joined
    on the re-derived joint pair set — and still matches the from-scratch
    joint run byte for byte, including non-canonical flags."""
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(s1, cfg, extract=True, skip_substring=False)

    inc_cfg = dataclasses.replace(cfg, run_id="incr")
    inc = run_dedup_incremental(s2, inc_cfg, base_run_id="base",
                                extract=True, skip_substring=False)
    assert inc.counters["substr_incremental"], \
        "base substring checkpoints present but reuse path not taken"
    assert "n_substr_revoked" in inc.counters
    # the fixture's cross-shard dups must actually exercise BOTH pair
    # branches: base spans reused verbatim and fresh pairs extracted
    assert inc.counters["n_substr_pairs_reused"] > 0
    assert inc.counters["n_substr_pairs_fresh"] > 0
    ref = run_dedup(joint, MPLSHConfig(), extract=True,
                    skip_substring=False)

    inc_out = inc.dedup_out.to_pandas()
    ref_out = ref.dedup_out.to_pandas()
    for col in ("is_canonical", "final_text", "cluster_id"):
        a = dict(zip(inc_out["doc_id"].tolist(), inc_out[col]))
        b = dict(zip(ref_out["doc_id"].tolist(), ref_out[col]))
        if col == "cluster_id":
            # labels may differ via base-rep adoption; compare partitions
            continue
        assert a == b, col

    inc_part, inc_canon = _partition_and_canon(inc)
    ref_part, ref_canon = _partition_and_canon(ref)
    assert inc_part == ref_part
    assert inc_canon == ref_canon


def _ft(v):
    import pandas as pd
    return None if (v is None or (isinstance(v, float) and pd.isna(v))) \
        else v


def test_incremental_delta_output(ray_session, small_fixture, tmp_path):
    """output='delta' emits exactly the rows that can differ from the
    base run: every delta row matches the from-scratch joint run, every
    joint doc ABSENT from the delta keeps its base dedup_out row
    verbatim (is_canonical + final_text), and the whole new shard is in
    the delta."""
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    base = run_dedup(s1, cfg, extract=True, skip_substring=False)
    inc = run_dedup_incremental(s2, dataclasses.replace(cfg, run_id="i"),
                                base_run_id="base", extract=True,
                                output="delta")
    assert inc.counters["output_mode"] == "delta"
    ref = run_dedup(joint, MPLSHConfig(), extract=True,
                    skip_substring=False)

    delta = inc.dedup_out.to_pandas()
    refd = ref.dedup_out.to_pandas().set_index("doc_id")
    based = base.dedup_out.to_pandas().set_index("doc_id")
    dset = set(delta["doc_id"].tolist())
    assert 0 < len(dset) < len(refd), "delta must be a strict subset"

    for _, r in delta.iterrows():
        rr = refd.loc[r["doc_id"]]
        assert bool(r["is_canonical"]) == bool(rr["is_canonical"])
        assert _ft(r["final_text"]) == _ft(rr["final_text"])
    for did, rr in refd.iterrows():
        if did in dset:
            continue
        assert did in based.index, \
            "non-delta doc must come from the base corpus"
        br = based.loc[did]
        assert bool(br["is_canonical"]) == bool(rr["is_canonical"])
        assert _ft(br["final_text"]) == _ft(rr["final_text"])
    # the whole new shard is in the delta
    base_ids = set(based.index.tolist())
    new_ids = [d for d in refd.index.tolist() if d not in base_ids]
    assert all(d in dset for d in new_ids)


def test_incremental_delta_output_skip_substring(ray_session,
                                                 small_fixture, tmp_path):
    """Delta mode with the substring pass off: the delta is the new
    shard plus changed-cluster members; the same base-row-verbatim
    contract holds."""
    s1, s2, joint = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    base = run_dedup(s1, cfg, extract=True, skip_substring=True)
    inc = run_dedup_incremental(s2, dataclasses.replace(cfg, run_id="i"),
                                base_run_id="base", extract=True,
                                skip_substring=True, output="delta")
    assert inc.counters["output_mode"] == "delta"
    ref = run_dedup(joint, MPLSHConfig(), extract=True,
                    skip_substring=True)

    delta = inc.dedup_out.to_pandas()
    refd = ref.dedup_out.to_pandas().set_index("doc_id")
    based = base.dedup_out.to_pandas().set_index("doc_id")
    dset = set(delta["doc_id"].tolist())
    for _, r in delta.iterrows():
        rr = refd.loc[r["doc_id"]]
        assert bool(r["is_canonical"]) == bool(rr["is_canonical"])
        assert _ft(r["final_text"]) == _ft(rr["final_text"])
    for did, rr in refd.iterrows():
        if did in dset:
            continue
        br = based.loc[did]
        assert bool(br["is_canonical"]) == bool(rr["is_canonical"])
        assert _ft(br["final_text"]) == _ft(rr["final_text"])


def test_incremental_delta_rejects_bad_output(ray_session, small_fixture,
                                              tmp_path):
    s1, s2, _ = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(s1, cfg, extract=True, skip_substring=True)
    with pytest.raises(ValueError, match="output"):
        run_dedup_incremental(s2, dataclasses.replace(cfg, run_id="i"),
                              base_run_id="base", extract=True,
                              output="everything")


def test_incremental_empty_new_shard(ray_session, small_fixture, tmp_path):
    """Folding an EMPTY new shard (no new crawl today) must reproduce the
    base output exactly — and in delta mode emit zero rows."""
    import pyarrow as pa
    import ray.data as rd

    s1, _, _ = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    base = run_dedup(s1, cfg, extract=True, skip_substring=False)

    empty = rd.from_arrow(pa.table({
        "url": pa.array([], pa.string()),
        "html": pa.array([], pa.binary()),
        "lang": pa.array([], pa.string())}))
    inc = run_dedup_incremental(
        empty, dataclasses.replace(cfg, run_id="i"), base_run_id="base",
        extract=True)
    a = inc.dedup_out.to_pandas()
    b = base.dedup_out.to_pandas()
    fa = dict(zip(a["doc_id"].tolist(), map(_ft, a["final_text"])))
    fb = dict(zip(b["doc_id"].tolist(), map(_ft, b["final_text"])))
    assert fa == fb

    incd = run_dedup_incremental(
        empty, dataclasses.replace(cfg, run_id="i2"), base_run_id="base",
        extract=True, output="delta")
    assert incd.counters["output_mode"] == "delta"
    assert incd.dedup_out.count() == 0


def test_incremental_empty_base(ray_session, small_fixture, tmp_path):
    """Folding onto an EMPTY base (the first-crawl-ever case) must equal
    a from-scratch run over the shard alone. An empty Dataset checkpoints
    as schemaless parquet, so this pins the typed-empty fallback in
    _base_stage_ds and the substring-reuse zero-row bailout."""
    import pyarrow as pa
    import ray.data as rd

    _, s2, _ = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    empty = rd.from_arrow(pa.table({
        "url": pa.array([], pa.string()),
        "html": pa.array([], pa.binary()),
        "lang": pa.array([], pa.string())}))
    run_dedup(empty, cfg, extract=True, skip_substring=False)

    inc = run_dedup_incremental(
        s2, dataclasses.replace(cfg, run_id="i"), base_run_id="base",
        extract=True)
    ref = run_dedup(s2, MPLSHConfig(), extract=True)

    inc_part, inc_canon = _partition_and_canon(inc)
    ref_part, ref_canon = _partition_and_canon(ref)
    assert inc_part == ref_part
    assert inc_canon == ref_canon
    a = inc.dedup_out.to_pandas()
    b = ref.dedup_out.to_pandas()
    fa = dict(zip(a["doc_id"].tolist(), map(_ft, a["final_text"])))
    fb = dict(zip(b["doc_id"].tolist(), map(_ft, b["final_text"])))
    assert fa == fb


def _shards3(small_fixture):
    import ray.data as rd

    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    pages = pq.read_table(f"{small_fixture}/pages.parquet")
    n = pages.num_rows
    c1, c2 = n // 3, (2 * n) // 3
    s1 = from_arrow_blocks(pages.slice(0, c1), target_rows=32)
    s2 = from_arrow_blocks(pages.slice(c1, c2 - c1), target_rows=32)
    s3 = from_arrow_blocks(pages.slice(c2), target_rows=32)
    joint = rd.read_parquet(f"{small_fixture}/pages.parquet")
    return s1, s2, s3, joint


def test_incremental_chained_folds(ray_session, small_fixture, tmp_path):
    """Chainable folds (save_as): day-1 base run, day-2 fold saved as
    'fold1', day-3 fold onto 'fold1' — the chained result must match a
    from-scratch run over all three shards byte for byte (final_text per
    doc, canonical picks, cluster partition), the saved state must look
    exactly like a from-scratch checkpoint to the next fold (substring
    REUSE path taken at day 3), and the archive is never re-signed
    (n_new_sigs bounded by each day's shard)."""
    s1, s2, s3, joint = _shards3(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(s1, cfg, extract=True, skip_substring=False)

    f1 = run_dedup_incremental(
        s2, dataclasses.replace(cfg, run_id="i1"), base_run_id="base",
        extract=True, skip_substring=False, save_as="fold1")
    assert f1.counters["saved_as"] == "fold1"
    assert f1.counters["substr_incremental"]

    f2 = run_dedup_incremental(
        s3, dataclasses.replace(cfg, run_id="i2"), base_run_id="fold1",
        extract=True, skip_substring=False)
    # day 3 folds onto the SAVED fold state through the substring reuse
    # path — fold1's substr_fps/pairs/spans were accepted as a base
    assert f2.counters["substr_incremental"]
    assert f2.counters["base_resumed"]

    ref = run_dedup(joint, MPLSHConfig(), extract=True,
                    skip_substring=False)

    inc_out = f2.dedup_out.to_pandas()
    ref_out = ref.dedup_out.to_pandas()
    assert len(inc_out) == len(ref_out)
    for col in ("is_canonical", "final_text"):
        a = dict(zip(inc_out["doc_id"].tolist(),
                     map(_ft, inc_out[col]))) if col == "final_text" \
            else dict(zip(inc_out["doc_id"].tolist(), inc_out[col]))
        b = dict(zip(ref_out["doc_id"].tolist(),
                     map(_ft, ref_out[col]))) if col == "final_text" \
            else dict(zip(ref_out["doc_id"].tolist(), ref_out[col]))
        assert a == b, col
    inc_part, inc_canon = _partition_and_canon(f2)
    ref_part, ref_canon = _partition_and_canon(ref)
    assert inc_part == ref_part
    assert inc_canon == ref_canon
    # each day signed only its own shard, never the archive
    n_joint = len(ref_out)
    assert f1.counters["n_new_sigs"] < n_joint
    assert f2.counters["n_new_sigs"] < n_joint
    assert f2.counters["n_new_sigs"] <= s3.count()


def test_incremental_save_as_guards(ray_session, small_fixture, tmp_path):
    """save_as refuses the base run id and any non-fresh target id."""
    s1, s2, _ = _shards(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(s1, cfg, extract=True, skip_substring=True)
    with pytest.raises(ValueError, match="differ from base_run_id"):
        run_dedup_incremental(s2, dataclasses.replace(cfg, run_id="i"),
                              base_run_id="base", extract=True,
                              save_as="base")
    # a non-empty target directory (e.g. a previous fold's state) is
    # refused rather than silently reused
    stale = tmp_path / "fold0" / "docs"
    stale.mkdir(parents=True)
    (stale / "_SUCCESS").write_text("{}")
    with pytest.raises(ValueError, match="already exists"):
        run_dedup_incremental(s2, dataclasses.replace(cfg, run_id="i"),
                              base_run_id="base", extract=True,
                              save_as="fold0")


def test_incremental_chained_delta_overlay(ray_session, small_fixture,
                                           tmp_path):
    """The full daily-crawl loop: every fold runs output='delta' AND
    save_as (delta rows for the consumer, joint state for tomorrow's
    fold). Overlaying base output <- fold1 delta <- fold2 delta must
    reproduce the from-scratch joint output row for row — the archive's
    rows are never rewritten, yet the overlay is always exact."""
    s1, s2, s3, joint = _shards3(small_fixture)
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    base = run_dedup(s1, cfg, extract=True, skip_substring=False)

    f1 = run_dedup_incremental(
        s2, dataclasses.replace(cfg, run_id="i1"), base_run_id="base",
        extract=True, output="delta", save_as="fold1")
    assert f1.counters["output_mode"] == "delta"
    f2 = run_dedup_incremental(
        s3, dataclasses.replace(cfg, run_id="i2"), base_run_id="fold1",
        extract=True, output="delta")
    assert f2.counters["output_mode"] == "delta"
    assert f2.counters["substr_incremental"]

    ref = run_dedup(joint, MPLSHConfig(), extract=True,
                    skip_substring=False)

    cols = ("is_canonical", "final_text")
    overlay: dict = {}
    for df in (base.dedup_out.to_pandas(), f1.dedup_out.to_pandas(),
               f2.dedup_out.to_pandas()):
        for _, r in df.iterrows():
            overlay[r["doc_id"]] = tuple(
                bool(r[c]) if c == "is_canonical" else _ft(r[c])
                for c in cols)
    ref_out = ref.dedup_out.to_pandas()
    expect = {r["doc_id"]: tuple(
        bool(r[c]) if c == "is_canonical" else _ft(r[c]) for c in cols)
        for _, r in ref_out.iterrows()}
    assert overlay == expect
