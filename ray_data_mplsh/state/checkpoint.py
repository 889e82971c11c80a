"""Resumable Parquet checkpoints with per-partition lineage
(SURVEY.md ops 3-4, 25; BASELINE.json:6 "Parquet checkpoints so any stage
resumes idempotently").

Layout: ``<ckpt_dir>/<run_id>/<stage>/`` holds the stage's Parquet part
files plus a ``_SUCCESS`` JSON manifest recording the config digest, row
count and wall time. ``read_stage_or_compute`` replays a stage from its
checkpoint iff the manifest's digest matches the current config — a config
change invalidates downstream checkpoints automatically, and because every
id in the engine is content-derived (doc_id = hash(url), cluster_id = min
doc_id), a partially re-executed run is byte-identical to a fresh one
(SURVEY.md §2.9).

Lineage: one row per written part file (stage, partition file, rows,
run_id, digest), appended to ``<ckpt_dir>/<run_id>/lineage/`` — the
per-partition audit trail of op 27. A stage's wall is one number for all
its parts, so it lives in the manifest only.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

from ray_data_mplsh.config import MPLSHConfig

LINEAGE_SCHEMA = pa.schema([
    ("stage", pa.string()),
    ("partition_id", pa.int32()),
    ("path", pa.string()),
    ("rows_out", pa.int64()),
    ("run_id", pa.string()),
    ("config_digest", pa.string()),
])


def _stage_dir(cfg: MPLSHConfig, stage: str) -> str:
    return os.path.join(cfg.ckpt_dir, cfg.run_id, stage)


def manifest_valid(cfg: MPLSHConfig, stage: str) -> bool:
    p = os.path.join(_stage_dir(cfg, stage), "_SUCCESS")
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            m = json.load(f)
        return m.get("config_digest") == cfg.digest()
    except (OSError, json.JSONDecodeError):
        return False


def write_stage(ds, cfg: MPLSHConfig, stage: str, wall_s: float):
    """Write a stage Dataset to its checkpoint dir + manifest + lineage.
    ``wall_s`` is the time spent before the call; the write itself — where
    a lazy stage's plan actually executes — is timed here and added, so
    the recorded wall covers the stage's real work."""
    t0 = time.monotonic()
    d = _stage_dir(cfg, stage)
    tmp = d + f".tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    ds.write_parquet(tmp)
    wall_s += time.monotonic() - t0
    # atomic-ish promote: rename into place (rerun-safe)
    if os.path.exists(d):
        import shutil
        shutil.rmtree(d)
    os.rename(tmp, d)
    rows, lineage_rows = 0, []
    for i, name in enumerate(sorted(os.listdir(d))):
        if not name.endswith(".parquet"):
            continue
        n = pq.ParquetFile(os.path.join(d, name)).metadata.num_rows
        rows += n
        lineage_rows.append((stage, i, name, n, cfg.run_id, cfg.digest()))
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        json.dump({"stage": stage, "config_digest": cfg.digest(),
                   "row_count": rows, "wall_s": wall_s,
                   "run_id": cfg.run_id}, f)
    ldir = os.path.join(cfg.ckpt_dir, cfg.run_id, "lineage")
    os.makedirs(ldir, exist_ok=True)
    t = pa.Table.from_arrays(
        [pa.array([r[j] for r in lineage_rows],
                  LINEAGE_SCHEMA.field(j).type)
         for j in range(len(LINEAGE_SCHEMA))],
        schema=LINEAGE_SCHEMA)
    pq.write_table(t, os.path.join(ldir, f"{stage}.parquet"))
    return rows


def read_stage_or_compute(cfg: MPLSHConfig, stage: str,
                          compute: Callable[[], "ray.data.Dataset"],
                          counters: dict | None = None):
    """The resume primitive (op 4). No ckpt_dir configured -> pass-through."""
    import ray.data

    if not cfg.ckpt_dir:
        return compute()
    d = _stage_dir(cfg, stage)
    if manifest_valid(cfg, stage):
        if counters is not None:
            with open(os.path.join(d, "_SUCCESS")) as f:
                counters[f"{stage}_rows"] = json.load(f)["row_count"]
            counters[f"{stage}_resumed"] = True
        return ray.data.read_parquet(d)
    t0 = time.monotonic()
    ds = compute()
    rows = write_stage(ds, cfg, stage, time.monotonic() - t0)
    if counters is not None:
        counters[f"{stage}_rows"] = rows
    return ray.data.read_parquet(d)
