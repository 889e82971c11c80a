"""Pipeline-breaker budget: the number of Ray Data executions one
``run_dedup`` call or incremental fold launches (each costs a fixed
~0.2 s of scheduling on a small cluster, whatever the data size). The
counts below are CEILINGS measured on the small fixture: a change may
lower them (then lower the pin too) but must not raise them silently.
Every gate sizes itself from counts it already holds, so no gate adds a
job of its own. With S9 a call's six are: S1+S2 hashing, S3, S6, the S9
canonical-anchor pass, the S9 span pass and the final rewrite (S2's
member map, S4-S5's key emission and bucketing, S7 and S8 launch none on
a driver-sized corpus)."""

from __future__ import annotations

import dataclasses

import pytest


def _count_executions(monkeypatch) -> list:
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


# executions per call, with dedup_out materialized as a consumer would
@pytest.mark.parametrize("extract,skip_substring,ceiling", [
    (True, False, 6), (True, True, 4), (False, False, 6), (False, True, 4),
])
def test_run_dedup_execution_ceiling(ray_session, small_fixture, monkeypatch,
                                     extract, skip_substring, ceiling):
    import ray.data as rd

    from ray_data_mplsh.config import MPLSHConfig
    from ray_data_mplsh.pipelines.dedup import run_dedup

    cols = None if extract else ["url", "text", "lang"]
    pages = rd.read_parquet(f"{small_fixture}/pages.parquet", columns=cols)
    calls = _count_executions(monkeypatch)
    res = run_dedup(pages, MPLSHConfig(), extract=extract,
                    skip_substring=skip_substring)
    res.dedup_out.materialize()
    assert len(calls) <= ceiling, len(calls)
    assert res.counters["pairs_path"] == "local"


# a fold of the fixture's last third onto a checkpointed base of the first
# two thirds (the base keeps its S9 checkpoints, so a delta fold can diff
# its substring pairs). The joint fold with S9 runs eleven: the new
# shard's S1+S2 hashing and its materialized rep map, the one probe scan of
# the base docs, the adoption map, S3 on the new reps, the signature
# union, S6 (S4-S5 run on the driver), the verified union, and S9's three.
# A delta fold with S9 adds the read of the base substr_pairs; its row
# filter rides the rewrite.
@pytest.mark.parametrize("skip_substring,output,ceiling", [
    (False, "joint", 11), (False, "delta", 12),
    (True, "joint", 9), (True, "delta", 9),
])
def test_fold_execution_ceiling(ray_session, small_fixture, monkeypatch,
                                tmp_path, skip_substring, output, ceiling):
    import pyarrow.parquet as pq

    from ray_data_mplsh.config import MPLSHConfig
    from ray_data_mplsh.pipelines.dedup import run_dedup
    from ray_data_mplsh.pipelines.incremental import run_dedup_incremental
    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    pages = pq.read_table(f"{small_fixture}/pages.parquet")
    cut = (2 * pages.num_rows) // 3
    cfg = MPLSHConfig(ckpt_dir=str(tmp_path), run_id="base")
    run_dedup(from_arrow_blocks(pages.slice(0, cut), target_rows=32), cfg,
              extract=True, skip_substring=False)
    new = from_arrow_blocks(pages.slice(cut), target_rows=32)
    calls = _count_executions(monkeypatch)
    res = run_dedup_incremental(
        new, dataclasses.replace(cfg, run_id="fold"), base_run_id="base",
        extract=True, skip_substring=skip_substring, output=output)
    res.dedup_out.materialize()
    assert res.counters["output_mode"] == output
    assert res.counters["pairs_path"] == "local"
    assert len(calls) <= ceiling, len(calls)
