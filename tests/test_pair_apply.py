"""shuffle.pair_apply: the broadcast and exchange plans are one operator —
same rows for pairs whose ends are missing from the side table, and for
an empty pair set."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.stages.shuffle import from_arrow_blocks, pair_apply

def _run(pairs_tbl: pa.Table, side_tbl: pa.Table, broadcast: bool):
    out = pa.schema([("a", pa.uint64()), ("b", pa.uint64()),
                     ("joined", pa.string())])

    # nested, so Ray workers receive it by value (the tests directory is
    # not importable there)
    def kernel(a, b, text_a, text_b) -> pa.Table:
        joined = [f"{x}|{y}" for x, y in zip(text_a.to_pylist(),
                                             text_b.to_pylist())]
        return pa.Table.from_arrays([pa.array(a, pa.uint64()),
                                     pa.array(b, pa.uint64()),
                                     pa.array(joined, pa.string())],
                                    schema=out)

    rows = pair_apply(from_arrow_blocks(pairs_tbl, target_rows=8),
                      from_arrow_blocks(side_tbl, target_rows=8), "text",
                      kernel, 4, payload_type=pa.string(),
                      broadcast=broadcast, batch_size=16).take_all()
    return sorted((int(r["a"]), int(r["b"]), r["joined"]) for r in rows)


def test_plans_agree_with_absent_ids(ray_session):
    ids = np.arange(0, 40, 2, dtype=np.uint64)      # even ids only
    side = pa.table({"doc_id": pa.array(ids[::-1], pa.uint64()),
                     "text": pa.array([f"t{i}" for i in ids[::-1]])})
    a, b = np.triu_indices(24, k=1)                 # odd ids are absent
    pairs = pa.table({"a": pa.array(a, pa.uint64()),
                      "b": pa.array(b, pa.uint64())})
    bc = _run(pairs, side, broadcast=True)
    ex = _run(pairs, side, broadcast=False)
    assert bc == ex
    want = sorted((int(x), int(y), f"t{x}|t{y}") for x, y in zip(a, b)
                  if x % 2 == 0 and y % 2 == 0)
    assert bc == want


def test_plans_agree_on_empty_pairs(ray_session):
    side = pa.table({"doc_id": pa.array([1, 2, 3], pa.uint64()),
                     "text": pa.array(["x", "y", "z"])})
    empty = pa.table({"a": pa.array([], pa.uint64()),
                      "b": pa.array([], pa.uint64())})
    assert _run(empty, side, broadcast=True) == []
    assert _run(empty, side, broadcast=False) == []
