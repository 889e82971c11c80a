"""Pipeline-breaker budget: the number of Ray Data executions one
``run_dedup`` call launches (each costs a fixed ~0.2 s of scheduling on a
small cluster, whatever the data size). The counts below are CEILINGS
measured on the small fixture: a change may lower them (then lower the
pin too) but must not raise them silently. Every gate sizes itself from
counts it already holds, so no gate adds a job of its own. With S9 the
seven are: S1+S2 hashing, S3, S5, S6, the S9 canonical-anchor pass, the
S9 span pass and the final rewrite (S2's member map, S4-S5's pairing,
S7 and S8 launch none on a driver-sized corpus)."""

from __future__ import annotations

import pytest


# executions per call, with dedup_out materialized as a consumer would
@pytest.mark.parametrize("extract,skip_substring,ceiling", [
    (True, False, 7), (True, True, 5), (False, False, 7), (False, True, 5),
])
def test_run_dedup_execution_ceiling(ray_session, small_fixture, monkeypatch,
                                     extract, skip_substring, ceiling):
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from ray_data_mplsh.config import MPLSHConfig
    from ray_data_mplsh.pipelines.dedup import run_dedup

    cols = None if extract else ["url", "text", "lang"]
    pages = rd.read_parquet(f"{small_fixture}/pages.parquet", columns=cols)
    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    res = run_dedup(pages, MPLSHConfig(), extract=extract,
                    skip_substring=skip_substring)
    res.dedup_out.materialize()
    assert len(calls) <= ceiling, len(calls)
