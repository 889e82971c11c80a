"""Checkpoint/resume tests (SURVEY.md ops 3-4, M6): a rerun resumes from
valid manifests, produces byte-identical output, and a config change
invalidates stale checkpoints."""

from __future__ import annotations

import os

import pandas as pd
import pytest

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.state.checkpoint import manifest_valid


def _run(fixture_dir: str, ckpt_dir: str, **cfg_kw):
    from ray_data_mplsh.pipelines.dedup import run_dedup
    from ray_data_mplsh.sources import read_pages

    cfg = MPLSHConfig(ckpt_dir=ckpt_dir, run_id="r1", **cfg_kw)
    pages = read_pages(f"{fixture_dir}/pages.parquet", extract=True)
    res = run_dedup(pages, cfg, extract=True)
    out = res.dedup_out.to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    return out, res.counters, cfg


def test_resume_is_byte_identical_and_skips_stages(
        ray_session, small_fixture, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    out1, c1, cfg = _run(small_fixture, ckpt)
    assert not any(k.endswith("_resumed") for k in c1), c1
    # manifests + lineage written for every checkpointed stage, the
    # lineage's per-part rows summing to the manifest's row count
    import json

    import pyarrow.parquet as pq
    for stage in ["docs", "sigs", "pairs", "verified", "labels", "dedup_out"]:
        assert manifest_valid(cfg, stage), stage
        lineage = pq.read_table(
            os.path.join(ckpt, "r1", "lineage", f"{stage}.parquet"))
        with open(os.path.join(ckpt, "r1", stage, "_SUCCESS")) as f:
            manifest = json.load(f)
        assert sum(lineage["rows_out"].to_pylist()) == \
            manifest["row_count"], stage

    out2, c2, _ = _run(small_fixture, ckpt)
    assert c2.get("docs_resumed") and c2.get("sigs_resumed") \
        and c2.get("dedup_out_resumed"), c2
    pd.testing.assert_frame_equal(out1, out2)
    # metrics.json written with the config digest
    with open(os.path.join(ckpt, "r1", "metrics.json")) as f:
        m = json.load(f)
    assert m["config_digest"] == cfg.digest() and "wall_s" in m


def test_partial_resume_after_lost_stage(ray_session, small_fixture,
                                         tmp_path):
    """Kill-mid-run simulation: later-stage checkpoints missing -> only
    those recompute, and the result equals the uninterrupted run."""
    import shutil

    ckpt = str(tmp_path / "ckpt")
    out1, _, cfg = _run(small_fixture, ckpt)
    for stage in ["verified", "labels", "dedup_out"]:
        shutil.rmtree(os.path.join(ckpt, "r1", stage))
    out2, c2, _ = _run(small_fixture, ckpt)
    assert c2.get("sigs_resumed") and not c2.get("verified_resumed")
    pd.testing.assert_frame_equal(out1, out2)


def test_config_change_invalidates(ray_session, small_fixture, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    _, _, cfg = _run(small_fixture, ckpt)
    cfg2 = MPLSHConfig(ckpt_dir=ckpt, run_id="r1", theta=0.7)
    assert cfg2.digest() != cfg.digest()
    assert not manifest_valid(cfg2, "sigs")


def test_manifest_wall_covers_the_write(ray_session, small_fixture, tmp_path,
                                        monkeypatch):
    """A stage's manifest wall times the write, where its lazy plan
    actually runs, not only the plan's construction: with every parquet
    write slowed by 0.3 s, the sigs manifest must record at least that."""
    import json
    import time

    import ray.data

    write = ray.data.Dataset.write_parquet

    def slow_write(self, *args, **kwargs):
        time.sleep(0.3)
        return write(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", slow_write)
    ckpt = str(tmp_path / "ckpt")
    _run(small_fixture, ckpt)
    with open(os.path.join(ckpt, "r1", "sigs", "_SUCCESS")) as f:
        assert json.load(f)["wall_s"] >= 0.3
