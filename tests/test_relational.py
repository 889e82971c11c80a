"""Semi/anti join and sessionization: force-path equivalence and
brute-force oracles (the driver's DuckDB gate covers the query twins;
these pin the operator kernels directly, including the shuffle path the
sf0.001 queries never trigger)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.stages.shuffle import from_arrow_blocks


def _mk_tables(seed: int = 5, n_left: int = 3000, n_right: int = 900):
    rng = np.random.Generator(np.random.PCG64(seed))
    left = pa.table({
        "k": pa.array(rng.integers(0, 500, n_left), pa.int64()),
        "payload": pa.array(rng.integers(0, 10**6, n_left), pa.int64()),
        "tag": pa.array([f"t{i % 7}" for i in range(n_left)])})
    right = pa.table({
        "rk": pa.array(rng.integers(250, 750, n_right), pa.int64()),
        "junk": pa.array(rng.standard_normal(n_right))})
    return left, right


def _sorted_df(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_semi_anti_join_both_paths_match_brute(ray_session):
    from ray_data_mplsh.stages.relational import semi_anti_join

    left, right = _mk_tables()
    lds = from_arrow_blocks(left, target_rows=256)
    rds = from_arrow_blocks(right, target_rows=128)
    rset = set(right["rk"].to_pylist())
    mem = np.array([k in rset for k in left["k"].to_pylist()])
    for anti in (False, True):
        want = left.filter(pa.array(~mem if anti else mem)).to_pandas()
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        got_b = _sorted_df(semi_anti_join(
            lds, rds, left_on="k", right_on="rk", anti=anti,
            broadcast_max_keys=10**6))
        got_s = _sorted_df(semi_anti_join(
            lds, rds, left_on="k", right_on="rk", anti=anti,
            broadcast_max_keys=1))  # force the shuffle path
        import pandas as pd
        pd.testing.assert_frame_equal(got_b, want, check_exact=True)
        pd.testing.assert_frame_equal(got_s, want, check_exact=True)


def test_semi_join_empty_right(ray_session):
    from ray_data_mplsh.stages.relational import semi_anti_join

    left, right = _mk_tables()
    lds = from_arrow_blocks(left, target_rows=256)
    empty = from_arrow_blocks(right.slice(0, 0))
    assert semi_anti_join(lds, empty, left_on="k", right_on="rk",
                          anti=False).count() == 0
    assert semi_anti_join(lds, empty, left_on="k", right_on="rk",
                          anti=True).count() == left.num_rows


def test_sessionize_matches_brute(ray_session):
    """Random event stream with heavy ts ties vs a per-user Python brute
    force; any partitioning must agree."""
    from ray_data_mplsh.pipelines.sessions import sessionize

    rng = np.random.Generator(np.random.PCG64(11))
    n = 4000
    gap_us = 30 * 60 * 1_000_000
    user = rng.integers(0, 40, n)
    ts = rng.integers(0, 3 * 86_400, n).astype(np.int64) * 1_000_000
    ts = (ts // 600_000_000) * 600_000_000  # 10-min grid -> many ties
    eid = rng.permutation(n).astype(np.int64)
    cents = rng.integers(-500, 500, n).astype(np.int64)
    t = pa.table({"user_id": pa.array(user, pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us")),
                  "event_id": pa.array(eid, pa.int64()),
                  "cents": pa.array(cents, pa.int64())})

    want = []
    for u in np.unique(user):
        m = user == u
        order = np.lexsort((eid[m], ts[m]))
        uts, uc = ts[m][order], cents[m][order]
        start = 0
        for i in range(1, len(uts) + 1):
            if i == len(uts) or uts[i] - uts[i - 1] > gap_us:
                want.append((int(u), int(uts[start]), i - start,
                             int(uc[start:i].sum())))
                start = i
    want.sort()

    for target_rows in (333, 4000):
        ds = from_arrow_blocks(t, target_rows=target_rows)
        out = sessionize(ds, key_col="user_id", ts_col="ts",
                         order_col="event_id", cents_col="cents",
                         gap_us=gap_us).to_pandas()
        got = sorted(zip(out["user_id"], out["session_start"],
                         out["n_events"], out["cents"]))
        got = [(int(a), int(b), int(c), int(d)) for a, b, c, d in got]
        assert got == want


def test_top_terms_paths_equivalent(ray_session):
    """tf/df top-term: broadcast-vocab fast path == word/doc-keyed
    shuffle path, bit-for-bit."""
    import pandas as pd

    from ray_data_mplsh.pipelines.queries import top_terms

    rng = np.random.Generator(np.random.PCG64(21))
    vocab = np.array([f"w{i}" for i in range(80)], dtype=object)
    docs = [" ".join(rng.choice(vocab, rng.integers(3, 60)))
            for _ in range(600)]
    t = pa.table({"doc_id": pa.array(np.arange(600), pa.int64()),
                  "text": pa.array(docs)})
    ds = from_arrow_blocks(t, target_rows=97)
    fast = _sorted_df(top_terms(ds, broadcast_max_vocab=10**6))
    slow = _sorted_df(top_terms(from_arrow_blocks(t, target_rows=97),
                                broadcast_max_vocab=1))
    pd.testing.assert_frame_equal(fast, slow, check_exact=True)


def test_full_outer_join_matches_duckdb(ray_session):
    """m:n duplicates, partially disjoint key ranges, several partition
    counts — vs DuckDB FULL OUTER JOIN."""
    import duckdb
    import pandas as pd

    from ray_data_mplsh.stages.relational import full_outer_join

    rng = np.random.Generator(np.random.PCG64(9))
    left = pa.table({
        "k": pa.array(rng.integers(0, 60, 400), pa.int64()),
        "lv": pa.array(rng.integers(0, 10**6, 400), pa.int64())})
    right = pa.table({
        "rk": pa.array(rng.integers(30, 90, 250), pa.int64()),
        "rv": pa.array(rng.integers(0, 10**6, 250), pa.int64())})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(
        "SELECT k, lv, rk, rv FROM l FULL OUTER JOIN r ON l.k = r.rk"
    ).df()
    cols = list(want.columns)
    want = want.sort_values(cols).reset_index(drop=True)
    for parts in (1, 7):
        got = full_outer_join(
            from_arrow_blocks(left, target_rows=64),
            from_arrow_blocks(right, target_rows=64),
            left_on="k", right_on="rk", num_partitions=parts
        ).to_pandas()[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)
    con.close()


def test_inner_join_matches_duckdb(ray_session):
    """inner_join = the full_outer expansion minus padding: m:n
    duplicates, partially disjoint key ranges (unmatched rows on both
    sides must be DROPPED), several partition counts — vs DuckDB."""
    import duckdb
    import pandas as pd

    from ray_data_mplsh.stages.relational import inner_join

    rng = np.random.Generator(np.random.PCG64(13))
    left = pa.table({
        "k": pa.array(rng.integers(0, 60, 400), pa.int64()),
        "lv": pa.array(rng.integers(0, 10**6, 400), pa.int64())})
    right = pa.table({
        "rk": pa.array(rng.integers(30, 90, 250), pa.int64()),
        "rv": pa.array(rng.integers(0, 10**6, 250), pa.int64())})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(
        "SELECT k, lv, rk, rv FROM l JOIN r ON l.k = r.rk").df()
    cols = list(want.columns)
    want = want.sort_values(cols).reset_index(drop=True)
    for parts in (1, 7):
        got = inner_join(
            from_arrow_blocks(left, target_rows=64),
            from_arrow_blocks(right, target_rows=64),
            left_on="k", right_on="rk", num_partitions=parts
        ).to_pandas()[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)
    con.close()


def test_full_outer_join_hot_key_salting(ray_session):
    """Forced-salting path: one catastrophically hot key (plus normal
    keys and unmatched rows on both sides) with the threshold lowered so
    its m:n expansion is sharded across salt values — the salted output
    (both join types, several shard counts) must equal DuckDB exactly."""
    import duckdb
    import pandas as pd

    from ray_data_mplsh.stages.relational import full_outer_join, inner_join

    rng = np.random.Generator(np.random.PCG64(21))
    # hot key 7: 600 left x 300 right = 180k >> threshold 10_000;
    # key 9 is left-only, key 10 right-only; keys 0..5 normal m:n
    lk = np.concatenate([np.full(600, 7), rng.integers(0, 6, 200), [9]])
    rk = np.concatenate([np.full(300, 7), rng.integers(0, 6, 120), [10]])
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "lv": pa.array(np.arange(len(lk)), pa.int64())})
    right = pa.table({"rk": pa.array(rk, pa.int64()),
                      "rv": pa.array(np.arange(len(rk)), pa.int64())})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for jt, sql in (("outer", "FULL OUTER JOIN"), ("inner", "JOIN")):
        want = con.sql(
            f"SELECT k, lv, rk, rv FROM l {sql} r ON l.k = r.rk").df()
        cols = list(want.columns)
        want = want.sort_values(cols).reset_index(drop=True)
        fn = full_outer_join if jt == "outer" else inner_join
        for shards in (4, 16):
            got = fn(
                from_arrow_blocks(left, target_rows=64),
                from_arrow_blocks(right, target_rows=64),
                left_on="k", right_on="rk", num_partitions=8,
                hot_key_threshold=10_000, salt_shards=shards
            ).to_pandas()[cols].sort_values(cols).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want, check_exact=True)
    con.close()


def test_full_outer_join_empty_side(ray_session):
    from ray_data_mplsh.stages.relational import full_outer_join

    left = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                     "lv": pa.array([10, 20, 21], pa.int64())})
    right = pa.table({"rk": pa.array([], pa.int64()),
                      "rv": pa.array([], pa.int64())})
    got = full_outer_join(from_arrow_blocks(left),
                          from_arrow_blocks(right),
                          left_on="k", right_on="rk").to_pandas()
    assert len(got) == 3 and got["rv"].isna().all()


def test_keyed_exchange_hot_key_skew(ray_session):
    """Skew robustness: 80% of rows share ONE hot key. The key-routed
    exchanges behind sessionize and full_outer_join must stay correct
    (one partition simply carries the hot group) — vs brute force /
    DuckDB. Documents the explicit-skew contract of the north rule."""
    import duckdb
    import pandas as pd

    from ray_data_mplsh.pipelines.sessions import sessionize
    from ray_data_mplsh.stages.relational import full_outer_join

    rng = np.random.Generator(np.random.PCG64(21))
    n = 20000
    user = np.where(rng.random(n) < 0.8, 7,
                    rng.integers(0, 50, n)).astype(np.int64)
    ts = np.sort(rng.integers(0, 86_400, n)).astype(np.int64) * 1_000_000
    eid = rng.permutation(n).astype(np.int64)
    cents = rng.integers(0, 100, n).astype(np.int64)
    t = pa.table({"user_id": pa.array(user, pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us")),
                  "event_id": pa.array(eid, pa.int64()),
                  "cents": pa.array(cents, pa.int64())})
    out = sessionize(from_arrow_blocks(t, target_rows=1024),
                     key_col="user_id", ts_col="ts", order_col="event_id",
                     cents_col="cents", gap_us=30 * 60 * 1_000_000
                     ).to_pandas()
    assert out.n_events.sum() == n
    assert (out.groupby("user_id").n_events.sum()
            == pd.Series(user).value_counts().sort_index()
            .rename_axis("user_id")).all()

    # full outer with a hot join key on the left, modest right side
    left = pa.table({"k": pa.array(user[:4000], pa.int64()),
                     "lv": pa.array(np.arange(4000), pa.int64())})
    right = pa.table({"rk": pa.array(np.arange(40, 60), pa.int64()),
                      "rv": pa.array(np.arange(20) * 10, pa.int64())})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql("SELECT k, lv, rk, rv FROM l FULL OUTER JOIN r "
                   "ON l.k = r.rk").df()
    cols = list(want.columns)
    want = want.sort_values(cols).reset_index(drop=True)
    got = full_outer_join(from_arrow_blocks(left, target_rows=512),
                          from_arrow_blocks(right, target_rows=8),
                          left_on="k", right_on="rk", num_partitions=6
                          ).to_pandas()[cols].sort_values(cols) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    con.close()


def test_hot_prescan_escalation_and_miss_paths(ray_session, monkeypatch):
    """The streaming hot-key prescan's two non-default regimes stay
    exact: (a) driver_cap=0 forces the escalation to the materialized
    exchange-based count; (b) an absurd min_batch_count makes detection
    miss the hot key entirely — salting is load-balance-only, so the
    unsalted join must still equal DuckDB bit-for-bit."""
    import duckdb
    import pandas as pd

    import ray_data_mplsh.stages.relational as rel

    rng = np.random.Generator(np.random.PCG64(31))
    lk = np.concatenate([np.full(400, 7), rng.integers(0, 6, 150), [9]])
    rk = np.concatenate([np.full(200, 7), rng.integers(0, 6, 90), [10]])
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "lv": pa.array(np.arange(len(lk)), pa.int64())})
    right = pa.table({"rk": pa.array(rk, pa.int64()),
                      "rv": pa.array(np.arange(len(rk)), pa.int64())})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(
        "SELECT k, lv, rk, rv FROM l FULL OUTER JOIN r ON l.k = r.rk").df()
    con.close()
    cols = list(want.columns)
    want = want.sort_values(cols).reset_index(drop=True)

    orig = rel._hot_join_keys
    for kw, expect_hot in (({"driver_cap": 0}, True),
                           ({"min_batch_count": 1 << 30}, False)):
        seen = {}

        def forced(base, key, threshold, _kw=kw, _seen=seen):
            hk, hl, b = orig(base, key, threshold, **_kw)
            _seen["n_hot"] = len(hk)
            return hk, hl, b

        monkeypatch.setattr(rel, "_hot_join_keys", forced)
        got = rel.full_outer_join(
            from_arrow_blocks(left, target_rows=64),
            from_arrow_blocks(right, target_rows=64),
            left_on="k", right_on="rk", num_partitions=8,
            hot_key_threshold=10_000, salt_shards=4
        ).to_pandas()[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        assert (seen["n_hot"] > 0) == expect_hot
    monkeypatch.setattr(rel, "_hot_join_keys", orig)


def test_tpch_broadcast_overflow_fallback(ray_session):
    """q_tpch_q3 / q_tpch_q5 with broadcast_max_rows=0: the filtered
    orders side overflows the driver-gather cap on its first batch and
    the plan flips to the keyed exchange (semi-join + inner_join for Q3,
    map-side supplier attach + inner_join for Q5). Results must equal
    the default broadcast plan bit-for-bit (the driver's DuckDB gate
    already pins the broadcast plan to SQL)."""
    import pandas as pd

    from ray_data_mplsh.pipelines.queries import q_tpch_q3, q_tpch_q5

    sf = "/root/testdata/sf0.001"
    for q in (q_tpch_q3, q_tpch_q5):
        want = q(sf).to_pandas()
        cols = list(want.columns)
        want = want.sort_values(cols).reset_index(drop=True)
        got = q(sf, broadcast_max_rows=0).to_pandas()[cols] \
            .sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_tpch_q7_q8_q9_q10_broadcast_overflow_fallback(ray_session):
    """q_tpch_q7 / q_tpch_q8 / q_tpch_q9 / q_tpch_q10 with
    broadcast_max_rows=0: EVERY capped gather overflows on its first
    batch — the orders maps flip to the keyed inner_join exchange, and
    the dimension sides (q9's part-pattern keys and supplier map, q10's
    customer attach) flip to their semi-join / inner_join exchanges.
    Must equal the all-broadcast plan bit-for-bit; sf0.01 so the
    results are non-empty (sf0.001's filtered windows have no rows)."""
    import pandas as pd

    from ray_data_mplsh.pipelines.queries import (q_tpch_q4, q_tpch_q7,
                                                  q_tpch_q8, q_tpch_q9,
                                                  q_tpch_q10)

    sf = "/root/testdata/sf0.01"
    for q in (q_tpch_q4, q_tpch_q7, q_tpch_q8, q_tpch_q9, q_tpch_q10):
        want = q(sf).to_pandas()
        assert len(want) > 0
        cols = list(want.columns)
        want = want.sort_values(cols).reset_index(drop=True)
        got = q(sf, broadcast_max_rows=0).to_pandas()[cols] \
            .sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_tpch_q2_q11_q12_q20_q21_broadcast_overflow_fallback(ray_session):
    """The round-5 sweep completers (adapted Q2/Q11/Q12/Q20/Q21) with
    broadcast_max_rows=0: every capped dimension gather (in-region /
    one-nation supplier maps, filtered part sets, the order maps)
    overflows on its first batch and flips to its keyed inner_join
    exchange; winner/qualifier attachment flips to broadcast_join
    against the winner-bounded small side. Must equal the all-broadcast
    plan bit-for-bit; sf0.01 so every result is non-empty."""
    import pandas as pd

    from ray_data_mplsh.pipelines.queries import (q_tpch_q2, q_tpch_q11,
                                                  q_tpch_q12, q_tpch_q20,
                                                  q_tpch_q21)

    sf = "/root/testdata/sf0.01"
    for q in (q_tpch_q2, q_tpch_q11, q_tpch_q12, q_tpch_q20, q_tpch_q21):
        want = q(sf).to_pandas()
        assert len(want) > 0, q.__name__
        cols = list(want.columns)
        want = want.sort_values(cols).reset_index(drop=True)
        got = q(sf, broadcast_max_rows=0).to_pandas()[cols] \
            .sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_gather_capped_reads_an_overflowing_stream_to_its_end():
    """Past its cap ``gather_capped`` returns None only after its batch
    stream ends: leaving the loop early drops a running execution, and
    Ray Data then cancels its in-flight tasks. Under the cap it returns
    every row, typed; an empty stream gives the typed empty table."""
    from ray_data_mplsh.stages.shuffle import gather_capped

    schema = pa.schema([("x", pa.int64())])

    class FakeDataset:
        def __init__(self, n_batches):
            self.n_batches, self.read, self.exhausted = n_batches, 0, False

        def iter_batches(self, batch_size, batch_format):
            for i in range(self.n_batches):
                self.read += 1
                yield pa.table({"x": pa.array([i, i], pa.int32())})
            self.exhausted = True

    over = FakeDataset(5)
    assert gather_capped(over, 3, schema) is None
    assert over.exhausted and over.read == 5
    under = FakeDataset(2)
    t = gather_capped(under, 4, schema)
    assert under.exhausted and t.schema == schema
    assert t["x"].to_pylist() == [0, 0, 1, 1]
    assert gather_capped(FakeDataset(0), 0, schema) == schema.empty_table()
