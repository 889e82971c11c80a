"""Driver-oracle query set (SURVEY.md §2.8) + text-analysis operators.

Each ``q_*`` takes ``sf_dir`` and returns a Dataset / pandas / pyarrow
result; the matching ANSI-SQL oracle lives in ORACLE_SQL (run by the
driver via DuckDB on the same Parquet views). Computed columns carry the
SAME names in both so the driver's order-insensitive value-hash matches.

All Ray implementations are Arrow-vectorized map_batches / groupby
pipelines — no driver-side row loops.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import hash_str_array, knuth_hash32
from ray_data_mplsh.stages.shuffle import (
    broadcast_join, cached_get, default_partitions, gather_capped,
    group_runs, partition_apply,
)


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _read_sized(sf_dir: str, table: str, columns=None,
                mb_per_block: int = 32):
    """Read for exchange-feeding stages (sort/groupby/partition_apply
    consumers): block count scales with FILE SIZE (~``mb_per_block``
    compressed MB per block) instead of Ray's default parallelism, floored
    at half the cluster and capped at 4x. Ray's default shatters small
    inputs into ~2-4x-CPU blocks, and every extra block is an extra
    SortMap task + object transfer in the downstream all-to-all — measured
    ~2x wall on the as-of join at bench scale. At real scale the bytes
    term dominates and blocks stay ~32MB, which is the recommended
    object-store block size anyway."""
    import os

    import ray
    import ray.data

    path = f"{sf_dir}/{table}.parquet"
    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    nb = -(-os.path.getsize(path) // (mb_per_block << 20))
    nb = max(min(16, cpus), min(nb, 4 * cpus))
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=int(nb))


# --- op 23: exact dedup (hash-partition + per-group first) ----------------

def q_exact_dedup(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(b: pa.Table) -> pa.Table:
        return b.append_column("text_hash",
                               pa.array(hash_str_array(b["text"]), pa.uint64()))

    def keep_min(part: pa.Table) -> pa.Table:
        th = part["text_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return part.drop_columns(["text_hash"])
        # sort by (hash, id): the first row of each run is the group min
        order = np.lexsort((ids, th))
        sth = th[order]
        starts = np.flatnonzero(np.concatenate(([True], sth[1:] != sth[:-1])))
        return part.take(order[starts]).drop_columns(["text_hash"])

    P = default_partitions()
    return partition_apply(ds.map_batches(add_hash, batch_format="pyarrow"),
                           "text_hash", keep_min, P)


# --- op 6/25: filters and counts ------------------------------------------

def q_lang_counts(sf_dir: str):
    from ray.data.aggregate import Count

    return _read(sf_dir, "documents", ["lang"]) \
        .groupby("lang").aggregate(Count(alias_name="cnt"))


def q_len_filter(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_chars"], 100)),
        batch_format="pyarrow")


def q_top_sources(sf_dir: str):
    from ray.data.aggregate import Count

    agg = _read(sf_dir, "documents", ["source"]) \
        .groupby("source").aggregate(Count(alias_name="cnt"))
    return agg.sort(["cnt", "source"], descending=[True, False]).limit(5)


def q_distinct_langs(sf_dir: str):
    import ray.data

    langs = _read(sf_dir, "documents", ["lang"]).unique("lang")
    return pa.table({"lang": pa.array(sorted(langs or []), pa.string())})


# --- op 12b + aggregates on the events table ------------------------------

def q_events_daily(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read_sized(sf_dir, "events", ["ts", "event_type", "value"])

    # The value column is exact 2-decimal; sum in integer cents so the
    # distributed sum is order-independent, then divide once at the end
    # (identically in ORACLE_SQL) for a bit-exact value-hash.
    def add_day(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return pa.table({"d": pc.strftime(t["ts"], format="%Y-%m-%d"),
                         "event_type": t["event_type"], "cents": cents})

    agg = ds.map_batches(add_day, batch_format="pyarrow") \
        .groupby(["d", "event_type"]) \
        .aggregate(Count(alias_name="cnt"), Sum("cents", alias_name="sc"))
    return agg.map_batches(
        lambda t: t.drop_columns(["sc"]).append_column(
            "sv", pc.divide(pc.cast(t["sc"], pa.float64()), 100.0)),
        batch_format="pyarrow")


def q_events_props(sf_dir: str):
    """JSON field extraction (op 12b): props -> k, avg value per k bucket."""
    from ray.data.aggregate import Count, Mean

    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["props", "value"])

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return pa.table({"k": k, "cents": cents})

    agg = ds.map_batches(extract, batch_format="pyarrow") \
        .groupby("k").aggregate(Count(alias_name="cnt"),
                                Sum("cents", alias_name="sc"))
    # avg = exact integer sum / (100 * count): one float division, identical
    # on the DuckDB side, so bit-exact regardless of summation order.
    return agg.map_batches(
        lambda t: t.drop_columns(["sc"]).append_column(
            "avg_value",
            pc.divide(pc.cast(t["sc"], pa.float64()),
                      pc.multiply(pc.cast(t["cnt"], pa.float64()), 100.0))),
        batch_format="pyarrow")


# --- op 17 machinery: distributed hash join -------------------------------

def q_join_ord_cust(sf_dir: str):
    """Fact-dimension join: customer is the small side, so broadcast it
    (ray.put once, map-side C++ hash join) instead of an all-to-all
    shuffle — the scale-correct plan for a dimension lookup."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    orders = _read_sized(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])

    # Sum in integer cents: a distributed float sum is order-dependent in the
    # low bits, so the value-hash vs the single-process oracle would flap.
    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64())
        return t.drop_columns(["o_totalprice"]).append_column(
            "price_cents", cents)

    j = broadcast_join(orders.map_batches(to_cents, batch_format="pyarrow"),
                       cust, left_on="o_custkey", right_on="c_custkey")
    return j.groupby("c_mktsegment").aggregate(
        Count(alias_name="cnt"), Sum("price_cents", alias_name="s_cents"))


# --- text analysis (training-data ops) ------------------------------------

def q_token_counts(sf_dir: str):
    """Whitespace token counting, vectorized via Arrow split."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(t["text"]),
                                      pattern=r"\s+")
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pc.cast(pc.list_value_length(toks),
                                             pa.int64())})

    return ds.map_batches(count_tokens, batch_format="pyarrow")


def q_quality_scores(sf_dir: str):
    """Quality signals: punctuation chars, alpha chars, mean word length."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def score(t: pa.Table) -> pa.Table:
        text = t["text"]
        punct = pc.cast(pc.utf8_length(pc.replace_substring_regex(
            text, r"[a-zA-Z0-9 ]", "")), pa.int64())
        alpha = pc.cast(pc.utf8_length(pc.replace_substring_regex(
            text, r"[^a-zA-Z]", "")), pa.int64())
        return pa.table({"doc_id": t["doc_id"], "n_chars": t["n_chars"],
                         "punct_chars": punct, "alpha_chars": alpha})

    return ds.map_batches(score, batch_format="pyarrow")


# --- word-frequency analytics (training-data vocab / df ops) --------------
#
# The documents fixture text is single-space separated, so splitting on a
# literal ' ' is byte-exact parity with DuckDB string_split(text, ' ').

def _split_words(texts) -> tuple[np.ndarray, np.ndarray]:
    """texts -> (row_index int64, word object ndarray), split on ' '."""
    s = pd.Series(texts.to_pandas() if isinstance(
        texts, (pa.Array, pa.ChunkedArray)) else texts, dtype="object")
    toks = s.fillna("").str.split(" ")
    nw = toks.str.len().to_numpy(dtype=np.int64)
    row = np.repeat(np.arange(len(s), dtype=np.int64), nw)
    words = toks.explode().to_numpy()
    if len(words) != len(row):  # explode() emits one NaN for an empty list
        words = words[~pd.isna(words)]
    return row, words


def q_word_stats(sf_dir: str):
    """Per-doc word-frequency stats: total / distinct word counts and the
    modal word (ties broken lexicographically) — the repetition-quality
    signal a webtext filter keys on. Per-doc, so embarrassingly parallel:
    one vectorized map_batches, no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        row, words = _split_words(b["text"])
        codes, uniq = pd.factorize(words, sort=True)  # codes in lex order
        order = np.lexsort((codes, row))
        r, c = row[order], codes[order]
        new = np.concatenate(([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1]))) \
            if len(r) else np.empty(0, bool)
        starts = np.flatnonzero(new)
        cnt = np.diff(np.concatenate([starts, [len(r)]]))
        rr, cc = r[starts], c[starts]
        n_words = np.bincount(row, minlength=n).astype(np.int64)
        n_distinct = np.bincount(rr, minlength=n).astype(np.int64)
        # top word per row: first group in (row, -count, lex-code) order
        o2 = np.lexsort((cc, -cnt, rr))
        first = np.flatnonzero(np.concatenate(
            ([True], rr[o2][1:] != rr[o2][:-1]))) if len(o2) else o2
        sel = o2[first]
        top_word = np.full(n, "", dtype=object)
        top_count = np.zeros(n, np.int64)
        top_word[rr[sel]] = uniq[cc[sel]]
        top_count[rr[sel]] = cnt[sel]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "top_word": pa.array(top_word, pa.string()),
            "top_count": pa.array(top_count, pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


def q_doc_freq(sf_dir: str):
    """Corpus document-frequency table (the df half of TF-IDF): for each
    word, how many docs contain it; top 100 by (df DESC, word ASC).
    Combiner-style: per-batch distinct-(doc, word) partial counts shrink
    the exchange to |vocab| rows per block before the groupby sum."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pa.Table) -> pa.Table:
        row, words = _split_words(b["text"])
        codes, uniq = pd.factorize(words, sort=False)
        nu = np.int64(max(len(uniq), 1))
        dk = np.unique(row * nu + codes)  # distinct (doc, word) in batch
        df = np.bincount((dk % nu).astype(np.int64),
                         minlength=len(uniq)).astype(np.int64)
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "partial": pa.array(df, pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("partial", alias_name="df"))
    top = agg.sort(["df", "word"], descending=[True, False]).limit(100)
    return top.map_batches(
        lambda t: pa.table({"word": t["word"],
                            "df": pc.cast(t["df"], pa.int64())}),
        batch_format="pyarrow")


# --- deterministic all-pairs exact Jaccard (oracle-checkable dedup) -------

_APJ_MAX_ID = 256     # subset bound — the pair set is deterministic
_APJ_MIN_J = 0.05


def q_allpair_jaccard(sf_dir: str):
    """Exact k-shingle Jaccard for ALL pairs among docs with doc_id <
    _APJ_MAX_ID — unlike q_ngram_jaccard (whose pair set comes from LSH
    candidate generation), this pair set is deterministic, so DuckDB can
    reproduce it with list_intersect over string shingles. Reuses the
    vectorized pair_jaccard_kernel via exact_jaccard_pairs; the id-list
    collect is bounded by definition (<= _APJ_MAX_ID rows)."""
    from ray_data_mplsh.pipelines.ngram import exact_jaccard_pairs
    from ray_data_mplsh.stages.shuffle import from_arrow_blocks

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], _APJ_MAX_ID)),
        batch_format="pyarrow").materialize()
    ids = np.sort(np.concatenate(
        [b["doc_id"].to_numpy(zero_copy_only=False)
         for b in docs.iter_batches(batch_format="pyarrow")] or
        [np.empty(0, np.int64)]).astype(np.uint64))
    ai, bi = np.triu_indices(len(ids), k=1)
    pairs = from_arrow_blocks(pa.table({
        "a": pa.array(ids[ai], pa.uint64()),
        "b": pa.array(ids[bi], pa.uint64())}))
    res = exact_jaccard_pairs(pairs, docs, MPLSHConfig(),
                              min_jaccard=_APJ_MIN_J)
    return res.map_batches(
        lambda t: pa.table({"a": pc.cast(t["a"], pa.int64()),
                            "b": pc.cast(t["b"], pa.int64()),
                            "jaccard": t["jaccard"]}),
        batch_format="pyarrow")


_APC_MIN_C = 0.1


def q_allpair_containment(sf_dir: str):
    """Broder CONTAINMENT C(a->b) = |Sa n Sb| / |Sa| for the deterministic
    doc_id < 256 pair set — the asymmetric near-dup signal that catches a
    short doc swallowed by a long one (Jaccard misses those). Shingle
    sets are bounded by construction, so pair_apply's broadcast plan
    (ray.put once, searchsorted lookup + the shared one-lexsort intersect
    kernel per batch) is the scale-correct plan for this diagnostic.
    Bit-exact vs the list_intersect oracle."""
    from ray_data_mplsh.pipelines.ngram import (_sets_kernel_args,
                                                _sets_stage,
                                                pair_intersect_kernel)
    from ray_data_mplsh.stages.shuffle import from_arrow_blocks, pair_apply

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], _APJ_MAX_ID)),
        batch_format="pyarrow")
    sets_tbl = _sets_stage(docs, MPLSHConfig()).materialize()
    ids = np.sort(np.concatenate(
        [b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
         for b in sets_tbl.iter_batches(batch_format="pyarrow")] or
        [np.empty(0, np.uint64)]))
    ai, bi = np.triu_indices(len(ids), k=1)
    # both directions: containment is asymmetric
    pairs = from_arrow_blocks(pa.table({
        "a": pa.array(np.concatenate([ids[ai], ids[bi]]), pa.uint64()),
        "b": pa.array(np.concatenate([ids[bi], ids[ai]]), pa.uint64())}))

    def score(a, b, sets_a, sets_b) -> pa.Table:
        va, la, vb, lb = _sets_kernel_args(sets_a, sets_b)
        inter = pair_intersect_kernel(va, la, vb, lb)
        c = inter.astype(np.float64) / np.maximum(la, 1)
        keep = (c >= _APC_MIN_C) & (la > 0)
        return pa.table({
            "a": pa.array(a[keep].astype(np.int64), pa.int64()),
            "b": pa.array(b[keep].astype(np.int64), pa.int64()),
            "containment": pa.array(c[keep], pa.float64())})

    return pair_apply(pairs, sets_tbl, "shingles", score, 0,
                      payload_type=pa.list_(pa.uint64()), broadcast=True,
                      batch_size=4096)


_PPJ_T = 0.5
_PPJ_MAX_BUCKET = 100_000


def _ppj_alpha(t: float, n: np.ndarray) -> np.ndarray:
    """Safe per-set overlap bound for the prefix length: one BELOW the
    textbook ceil(t*n) so that sub-ulp double rounding at thresholds
    like 0.65 (whose double is above the rational) can never shorten a
    prefix past a pair the exact verify would keep — the prefix grows
    by at most one token, the verify stays the decider."""
    return np.maximum(np.ceil(t * n).astype(np.int64) - 1, 1)


def ppjoin_pairs(docs, *, t: float = _PPJ_T,
                 broadcast_max_vocab: int = 4_000_000):
    """Prefix-filtered EXACT set-similarity self-join over the WHOLE
    corpus (Chaudhuri et al. 2006 / Xiao et al. 2008 "PPJoin" minus the
    positional filter): every doc pair with shingle-set Jaccard >=
    _PPJ_T, with zero false negatives by construction — the exact
    complement to the LSH candidate path (q_lsh_verified_pairs), for
    when the dedup bar demands provable completeness. Shares the MPLSH
    shingle contract (k=5 words, per-doc distinct), so the DuckDB
    equijoin oracle replays it bit-exactly.

    The prefix-filter theorem: order every set by GLOBAL token frequency
    ascending (rarest first; ties by token), take each set's first
    ``n - ceil(T*n) + 1`` tokens; any pair with J >= T must (a) share a
    prefix token and (b) satisfy min(na,nb) >= T*max(na,nb). Candidates
    are generated only inside prefix-token buckets, then verified
    exactly — rare tokens make tiny buckets, so candidate count tracks
    the true near-dup mass, not n^2.

    Two physical plans for the df/prefix phase:

    * broadcast (vocab fits ``broadcast_max_vocab``): the df table is a
      combiner-reduced |vocab| groupby gathered once; prefixes are then
      emitted STRAIGHT from the per-doc sets stage with a searchsorted
      df lookup — zero corpus-wide exchanges before the (already
      prefix-sized) candidate stage.
    * keyed-exchange fallback (open vocab): (1) shingle-keyed exchange
      attaches df exactly (all rows of a shingle co-locate), (2)
      doc-keyed exchange re-groups for the per-doc prefix sort. Path
      equivalence is force-tested with the cap at 0.

    Then (3) shingle-keyed exchange over PREFIX rows only: per-bucket
    all-pairs with the size filter, batch-local distinct; (4)
    pair-keyed global distinct; exact verify via exact_jaccard_pairs
    (broadcast sets below cfg.broadcast_max_docs, pair-keyed exchange
    above). Text never rides any exchange. A prefix bucket larger than
    _PPJ_MAX_BUCKET raises loudly (quadratic guard) rather than
    silently salting — a corpus where the RAREST tokens of >100k docs
    coincide needs a threshold retune, not a quiet blow-up."""
    import ray
    from ray.data.aggregate import Sum

    from ray_data_mplsh.pipelines.ngram import (_list_parts, _sets_stage,
                                                exact_jaccard_pairs)
    from ray_data_mplsh.stages.shuffle import (default_partitions, mix64,
                                               partition_apply,
                                               sized_partitions)

    cfg = MPLSHConfig()
    # materialized once, shared by the df/prefix phase AND the verify
    # stage (skips a second shingle pass over the corpus)
    sets = _sets_stage(docs, cfg).materialize()
    P = default_partitions()

    def _prefix_rows(ids, vals, lens, dfv):
        """Prefix rows from per-doc set rows + per-instance df values
        (instances doc-contiguous in `vals`): sort instances by
        (doc, df, sh); the first ``n - ceil(T*n) + 1`` of each doc's
        block are its prefix."""
        row = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
        ns = lens[row]
        o = np.lexsort((vals, dfv, row))
        starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        sr, sv, sn = row[o], vals[o], ns[o]
        pos = np.arange(len(sr), dtype=np.int64) - starts[sr]
        kp = pos < (sn - _ppj_alpha(t, sn) + 1)
        return pa.table({"sh": pa.array(sv[kp], pa.uint64()),
                         "doc": pa.array(ids[sr[kp]], pa.uint64()),
                         "n": pa.array(sn[kp], pa.int64())})

    def df_partial(b: pa.Table) -> pa.Table:
        _, vals = _list_parts(b["shingles"])
        u, c = np.unique(vals, return_counts=True)  # per-doc distinct
        # int64 VIEW for the groupby key: Ray's aggregate mangles
        # uint64 keys above 2^63 (order is irrelevant to a hash key)
        return pa.table({"sh": pa.array(u.view(np.int64), pa.int64()),
                         "c": pa.array(c.astype(np.int64))})

    agg = sets.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("sh").aggregate(Sum("c", alias_name="c"))
    dft = gather_capped(agg, broadcast_max_vocab,
                        pa.schema([("sh", pa.int64()),
                                   ("c", pa.int64())]))

    Pc = P  # candidate/distinct exchange width (data-sized below)
    if dft is not None:
        # prefix rows ~ half the shingle instances: right-size the two
        # downstream exchanges (a 64-wide Sort over 100k rows is almost
        # pure overhead; the width stays a pure function of the data)
        Pc = sized_partitions(int(pc.sum(dft["c"]).as_py() or 0) // 2, P)
        sh_s = dft["sh"].to_numpy(zero_copy_only=False).astype(np.int64) \
            .view(np.uint64)
        df_s = dft["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(sh_s)
        ref = ray.put((sh_s[o], df_s[o]))

        def prefix_map(b: pa.Table) -> pa.Table:
            svoc, sdf = cached_get(ref)
            offs, vals = _list_parts(b["shingles"])
            ids = b["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            lens = np.diff(offs)
            dfv = sdf[np.searchsorted(svoc, vals)] if len(vals) \
                else np.empty(0, np.int64)
            return _prefix_rows(ids, vals, lens, dfv)

        pref = sets.map_batches(prefix_map, batch_format="pyarrow")
    else:
        def flat_rows(b: pa.Table) -> pa.Table:
            offs, vals = _list_parts(b["shingles"])
            ids = b["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            lens = np.diff(offs)
            row = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
            return pa.table({"sh": pa.array(vals, pa.uint64()),
                             "doc": pa.array(ids[row], pa.uint64()),
                             "n": pa.array(lens[row].astype(np.int64))})

        def attach_df(part: pa.Table) -> pa.Table:
            sh = part["sh"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            u, inv = np.unique(sh, return_inverse=True)
            df = np.bincount(inv).astype(np.int64)
            return part.append_column("df", pa.array(df[inv], pa.int64()))

        wdf = partition_apply(sets.map_batches(flat_rows,
                                               batch_format="pyarrow"),
                              "sh", attach_df, P)

        def prefixes(part: pa.Table) -> pa.Table:
            d = part["doc"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            sh = part["sh"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            nn = part["n"].to_numpy(zero_copy_only=False).astype(np.int64)
            dfv = part["df"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            o = np.lexsort((sh, dfv, d))
            ds_, shs, ns = d[o], sh[o], nn[o]
            first = np.concatenate(([True], ds_[1:] != ds_[:-1])) \
                if len(ds_) else np.zeros(0, bool)
            starts = np.flatnonzero(first)
            sizes = np.diff(np.concatenate([starts, [len(ds_)]]))
            pos = np.arange(len(ds_), dtype=np.int64) \
                - np.repeat(starts, sizes)
            plen = ns - _ppj_alpha(t, ns) + 1
            keep = pos < plen
            return pa.table({"sh": pa.array(shs[keep], pa.uint64()),
                             "doc": pa.array(ds_[keep], pa.uint64()),
                             "n": pa.array(ns[keep], pa.int64())})

        pref = partition_apply(wdf, "doc", prefixes, P)

    def bucket_pairs(part: pa.Table) -> pa.Table:
        sh = part["sh"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d = part["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
        nn = part["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((d, sh))
        shs, ds_, ns = sh[o], d[o], nn[o]
        first = np.concatenate(([True], shs[1:] != shs[:-1])) \
            if len(shs) else np.zeros(0, bool)
        starts = np.flatnonzero(first)
        sizes = np.diff(np.concatenate([starts, [len(shs)]]))
        if len(sizes) and sizes.max() > _PPJ_MAX_BUCKET:
            raise RuntimeError(
                f"ppjoin prefix bucket of {int(sizes.max())} docs "
                f"exceeds _PPJ_MAX_BUCKET — retune _PPJ_T or salt")
        # per bucket all (i < j) pairs: each element pairs with its
        # `loc` predecessors in the bucket
        loc = np.arange(len(shs), dtype=np.int64) \
            - np.repeat(starts, sizes)
        tot = int(loc.sum())
        if tot == 0:
            return pa.table({"a": pa.array([], pa.uint64()),
                             "b": pa.array([], pa.uint64()),
                             "pk": pa.array([], pa.uint64())})
        right = np.repeat(np.arange(len(shs), dtype=np.int64), loc)
        within = np.arange(tot, dtype=np.int64) \
            - np.repeat(np.concatenate(([0], np.cumsum(loc)))[:-1], loc)
        left = right - np.repeat(loc, loc) + within
        ra, rb = ds_[left], ds_[right]
        a = np.minimum(ra, rb)
        b = np.maximum(ra, rb)
        na, nb = ns[left], ns[right]
        keep = np.minimum(na, nb) + 1 >= t * np.maximum(na, nb)
        a, b = a[keep], b[keep]
        pair = np.stack([a, b], axis=1)
        pair = np.unique(pair, axis=0) if len(pair) else pair
        a, b = (pair[:, 0], pair[:, 1]) if len(pair) \
            else (np.empty(0, np.uint64), np.empty(0, np.uint64))
        pk = mix64(a) ^ mix64(b ^ np.uint64(0x9E3779B97F4A7C15))
        return pa.table({"a": pa.array(a, pa.uint64()),
                         "b": pa.array(b, pa.uint64()),
                         "pk": pa.array(pk, pa.uint64())})

    cand = partition_apply(pref, "sh", bucket_pairs, Pc)

    def pair_distinct(part: pa.Table) -> pa.Table:
        a = part["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = part["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if len(a):
            pair = np.unique(np.stack([a, b], axis=1), axis=0)
            a, b = pair[:, 0], pair[:, 1]
        return pa.table({"a": pa.array(a, pa.uint64()),
                         "b": pa.array(b, pa.uint64())})

    pairs = partition_apply(cand, "pk", pair_distinct, Pc)
    res = exact_jaccard_pairs(pairs, docs, cfg, min_jaccard=t,
                              sets_tbl=sets)
    return res.map_batches(
        lambda t: pa.table({"a": pc.cast(t["a"], pa.int64()),
                            "b": pc.cast(t["b"], pa.int64()),
                            "jaccard": t["jaccard"]}),
        batch_format="pyarrow")


_PPJ_PAIRS_CACHE: dict = {}


def q_ppjoin_pairs(sf_dir: str):
    """Exact set-similarity self-join over the documents table (see
    ppjoin_pairs). Materialized once per process and shared with
    [[q_ppjoin_clusters]] (the q_incremental_fold memoization pattern):
    the pair set is output-sized — far smaller than the corpus — so
    holding it lets the cluster query reuse the join instead of
    recomputing the whole prefix-filter chain. Parameterized callers
    (other thresholds, forced plans) use ppjoin_pairs directly and
    never touch the cache."""
    if sf_dir not in _PPJ_PAIRS_CACHE:
        _PPJ_PAIRS_CACHE[sf_dir] = ppjoin_pairs(
            _read(sf_dir, "documents", ["doc_id", "text"])).materialize()
    return _PPJ_PAIRS_CACHE[sf_dir]


def q_lsh_recall(sf_dir: str):
    """Candidate-RECALL evaluation of the production LSH chain against
    EXACT ground truth (op 29 recall_metric, made driver-checkable now
    that [[q_ppjoin_pairs]] provides a provably complete pair set):
    truth = the prefix-filtered exact join at verify_theta; found = the
    q_lsh_verified_pairs chain (est >= verify_theta on the pinned
    16-perm config). One row: n_true, n_found, n_hit (= |found ∩
    truth|; found is not a subset — the 16-slot estimate can clear the
    bar while the true Jaccard does not), recall = n_hit/n_true (NULL
    when no true pairs). Scale shape: both pair sets are output-sized;
    the intersection is one a-keyed padded-union exchange with
    per-partition sorted matching, P count partials to the driver."""
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    theta = MPLSHConfig().verify_theta
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    truth = ppjoin_pairs(docs, t=theta)
    found = q_lsh_verified_pairs(sf_dir)
    P = default_partitions()
    _SD = "__recall_side"

    def pad(side: int):
        def f(tb: pa.Table) -> pa.Table:
            return pa.table({
                "a": tb["a"], "b": tb["b"],
                _SD: pa.array(np.full(tb.num_rows, side, np.int8),
                              pa.int8())})
        return f

    both = truth.map_batches(pad(0), batch_format="pyarrow").union(
        found.map_batches(pad(1), batch_format="pyarrow"))

    def hit_partial(part: pa.Table) -> pa.Table:
        a = part["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = part["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        sd = part[_SD].to_numpy(zero_copy_only=False)
        o = np.lexsort((sd, b, a))
        A, B, S = a[o], b[o], sd[o]
        # each side's pairs are distinct, so a truth/found match is one
        # adjacent (a, b) run with sides 0 then 1
        hit = int(((A[1:] == A[:-1]) & (B[1:] == B[:-1])
                   & (S[1:] == 1) & (S[:-1] == 0)).sum()) if len(A) else 0
        return pa.table({
            "h": pa.array([hit], pa.int64()),
            "t": pa.array([int((sd == 0).sum())], pa.int64()),
            "f": pa.array([int((sd == 1).sum())], pa.int64())})

    parts = gather_capped(partition_apply(both, "a", hit_partial, P),
                          1_000_000, pa.schema([("h", pa.int64()),
                                                ("t", pa.int64()),
                                                ("f", pa.int64())]))
    n_hit = int(pc.sum(parts["h"]).as_py() or 0)
    n_true = int(pc.sum(parts["t"]).as_py() or 0)
    n_found = int(pc.sum(parts["f"]).as_py() or 0)
    return pa.table({
        "n_true": pa.array([n_true], pa.int64()),
        "n_found": pa.array([n_found], pa.int64()),
        "n_hit": pa.array([n_hit], pa.int64()),
        "recall": pa.array([n_hit / n_true if n_true else None],
                           pa.float64())})


def q_ppjoin_clusters(sf_dir: str):
    """Exact-COMPLETE near-dup clusters: connected components over the
    [[q_ppjoin_pairs]] edge set, labeled with the component's min
    doc_id. Unlike q_lsh_clusters (whose pair set has probabilistic
    candidate recall), this cluster map is provably complete at _PPJ_T —
    the prefix filter has zero false negatives and verification is
    exact, so a missing edge or split cluster is impossible by
    construction. Composition: the production CC stage (hybrid driver
    kernel below cfg.local_state_max_rows, star contraction above)
    runs unchanged downstream of the ppjoin plan; singletons (docs with
    no qualifying pair) are absent, matching the oracle's edge-incident
    walk."""
    from ray_data_mplsh.stages.cc import connected_components
    from ray_data_mplsh.stages.shuffle import default_partitions

    labels = connected_components(q_ppjoin_pairs(sf_dir), MPLSHConfig(),
                                  default_partitions())
    return labels.map_batches(
        lambda t: pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "cluster_id": pc.cast(t["cluster_id"], pa.int64())}),
        batch_format="pyarrow")


# --- similarity search over embeddings (SURVEY.md: reference's k-NN core) --

_KNN_NQ = 8      # queries = embeddings with vec_id < _KNN_NQ
_KNN_K = 10


def _load_queries(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    t = t.filter(pc.less(t["vec_id"], _KNN_NQ))
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    if t.num_rows == 0:  # empty corpus: no queries, knn_* return empty
        return ids.astype(np.int64), np.empty((0, 0), np.float32)
    emb = t["embedding"].combine_chunks()
    d = len(emb[0])
    q = emb.values.to_numpy(zero_copy_only=False).reshape(-1, d)
    return ids, q


def q_knn_bruteforce(sf_dir: str):
    """Exact cosine top-k: broadcast query matrix, per-batch matmul.
    Output is the top-k id SET per query (cosine dropped: float bits differ
    across summation orders; ties broken by vec_id on both sides)."""
    from ray_data_mplsh.pipelines.similarity import knn_bruteforce

    ids, q = _load_queries(sf_dir)
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    res = knn_bruteforce(emb, ids, q, k=_KNN_K)
    return res.select(["query_id", "vec_id"])


def q_knn_lsh(sf_dir: str):
    """Approximate top-k via hyperplane LSH + score-ordered multi-probe
    ([MPLSH §4]) — ORACLED since r5 by a full SQL replay
    (``_knn_lsh_sql``): the seeded hyperplanes ride the SQL as double
    literals, codes/margins are double dots of the raw vectors (exactly
    the engine's ``_vec_code64``), Algorithm 1's first n_probes-1 heap
    pops are replayed as the n_probes-1 smallest-score non-empty flip
    masks (the heap emits sets in non-decreasing score order, so the
    selected SET is order-free), and the candidate top-k is ranked by
    cosine with vec_id tie-break. Output is the id SET per query (cosine
    dropped — the q_knn_bruteforce float convention); recall vs brute
    force stays gated in pytest (tests/test_similarity.py)."""
    from ray_data_mplsh.pipelines.similarity import knn_lsh

    ids, q = _load_queries(sf_dir)
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_lsh(emb, ids, q, k=_KNN_K).select(["query_id", "vec_id"])


def _knn_lsh_sql() -> str:
    """Multi-probe-LSH SQL replay for q_knn_lsh (the namesake algorithm's
    widest non-dedup signature): embeds the engine's seeded hyperplanes
    (same PCG64 draws, float32 values round-tripped to double literals)
    and replays bucketing, probe selection and candidate ranking over the
    64-dim testdata embeddings (TESTDATA.md schema contract)."""
    from ray_data_mplsh.pipelines.similarity import (
        LSH_N_BITS, LSH_N_PROBES, LSH_N_TABLES, LSH_SEED, _hyperplanes)

    d = 64
    rows = []
    for t in range(LSH_N_TABLES):
        pl = _hyperplanes(d, LSH_N_BITS, LSH_SEED + t).astype(np.float64)
        for b in range(LSH_N_BITS):
            ws = ", ".join(repr(float(x)) for x in pl[:, b])
            rows.append(f"({t}, {b}, [{ws}]::DOUBLE[])")
    n_masks = 1 << LSH_N_BITS
    return (
        "WITH planes(t, b, w) AS (VALUES " + ", ".join(rows) + "), "
        "emb AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e "
        "FROM embeddings), "
        "proj AS (SELECT vec_id, t, b, list_inner_product(e, w) AS ip "
        "FROM emb CROSS JOIN planes), "
        "code AS (SELECT vec_id, t, "
        "CAST(SUM(CASE WHEN ip > 0 THEN (1::BIGINT << b) ELSE 0 END) "
        "AS BIGINT) AS code FROM proj GROUP BY vec_id, t), "
        f"qproj AS (SELECT * FROM proj WHERE vec_id < {_KNN_NQ}), "
        f"qcode AS (SELECT * FROM code WHERE vec_id < {_KNN_NQ}), "
        "masks AS (SELECT CAST(r.range AS BIGINT) AS m "
        f"FROM range(1, {n_masks}) r), "
        "mscore AS (SELECT q.vec_id AS qid, q.t, k.m, SUM(abs(q.ip)) "
        "AS score FROM qproj q JOIN masks k ON ((k.m >> q.b) & 1) = 1 "
        "GROUP BY q.vec_id, q.t, k.m), "
        "msel AS (SELECT qid, t, m FROM (SELECT qid, t, m, ROW_NUMBER() "
        "OVER (PARTITION BY qid, t ORDER BY score ASC, m ASC) AS rk "
        f"FROM mscore) WHERE rk <= {LSH_N_PROBES - 1}), "
        "probes AS (SELECT vec_id AS qid, t, code AS pcode FROM qcode "
        "UNION ALL SELECT s.qid, s.t, xor(qc.code, s.m) FROM msel s "
        "JOIN qcode qc ON qc.vec_id = s.qid AND qc.t = s.t), "
        "cand AS (SELECT DISTINCT p.qid AS query_id, c.vec_id "
        "FROM probes p JOIN code c ON c.t = p.t AND c.code = p.pcode), "
        "sc AS (SELECT cand.query_id, cand.vec_id, "
        "list_cosine_similarity(qe.embedding, de.embedding) AS cos "
        "FROM cand JOIN embeddings qe ON qe.vec_id = cand.query_id "
        "JOIN embeddings de ON de.vec_id = cand.vec_id), "
        "r AS (SELECT query_id, vec_id, ROW_NUMBER() OVER "
        "(PARTITION BY query_id ORDER BY cos DESC, vec_id ASC) AS rk "
        "FROM sc) "
        f"SELECT query_id, vec_id FROM r WHERE rk <= {_KNN_K}"
    )


def q_knn_ivf(sf_dir: str):
    """IVF-flat ANN (the centroid-probing scale path; rows-only — recall
    vs brute force gated in pytest)."""
    from ray_data_mplsh.pipelines.similarity import _KNN_SCHEMA, knn_ivf

    ids, q = _load_queries(sf_dir)
    if not len(ids):  # empty corpus: no queries, and the IVF centroid
        return _KNN_SCHEMA.empty_table()  # sample needs >= 1 vector
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_ivf(emb, ids, q, k=_KNN_K)


_ENDUP_THRESHOLD = 0.45


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine similarity self-join at a data-calibrated
    threshold. The sf fixtures plant no near-identical vectors (max
    pairwise cosine ~0.51), so the driver row runs the engine's EXACT
    broadcast path (embedding_near_dup's small-side gate) at 0.45 — this
    makes the row non-vacuous AND bit-checkable against the
    list_cosine_similarity oracle; the LSH-bucketed scale path of the same
    operator is recall-gated on planted near-dups in
    tests/test_similarity.py. Cosine is dropped from the surface (the
    oracle's float32 kernel rounds differently); the pair SET is exact —
    the nearest pairwise cosine sits >= 1e-4 from the threshold at every
    sf, orders of magnitude beyond the float32/float64 disagreement."""
    from ray_data_mplsh.pipelines.similarity import embedding_near_dup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    t = embedding_near_dup(emb, threshold=_ENDUP_THRESHOLD)
    return t.select(["a", "b"])


def q_embedding_dedup_clusters(sf_dir: str):
    """Semantic-dedup cluster map (the SemDeDup shape, Abbas et al.
    2023, with exact cosine in place of k-means partitioning at
    driver-checkable scale): connected components over the
    [[q_embedding_near_dup]] edge set, each edge-incident vector
    labeled with its component's min vec_id. Reuses the production CC
    stage; the pair set is the exact broadcast threshold-join below
    ``exact_max_vecs`` (bit-checkable) and the LSH-bucketed path above
    (recall-gated in tests), so the cluster map inherits the same
    small-exact / large-approximate contract."""
    import ray.data

    from ray_data_mplsh.stages.cc import connected_components
    from ray_data_mplsh.stages.shuffle import default_partitions

    pairs = q_embedding_near_dup(sf_dir)
    if isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)
    labels = connected_components(pairs, MPLSHConfig(),
                                  default_partitions())
    return labels.map_batches(
        lambda t: pa.table({
            "vec_id": pc.cast(t["doc_id"], pa.int64()),
            "cluster_id": pc.cast(t["cluster_id"], pa.int64())}),
        batch_format="pyarrow")


# --- language ID (n-gram/marker heuristic with exact SQL parity) -----------

_LANG_MARKERS = {
    "en": r"\b(the|join|scan)\b",
    "de": r"\b(merge|window|stream)\b",
    "fr": r"\b(sort|shuffle|batch)\b",
    "es": r"\b(hash|spill|cache)\b",
    "pt": r"\b(agg|filter|limit)\b",
}


def q_lang_id(sf_dir: str):
    """Marker-count language ID: score = #marker matches per language,
    pred = argmax (ties -> lexicographically smallest lang). The identical
    rule runs in ORACLE_SQL, so parity is exact; real-corpus accuracy is a
    property of the marker lists, not of this plumbing."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    langs = sorted(_LANG_MARKERS)

    def predict(t: pa.Table) -> pa.Table:
        scores = np.stack([
            pc.count_substring_regex(t["text"], _LANG_MARKERS[lg])
              .to_numpy(zero_copy_only=False).astype(np.int64)
            for lg in langs], axis=1)
        best = np.argmax(scores, axis=1)  # first max = lexicographic tie-break
        pred = np.array(langs, dtype=object)[best]
        return pa.table({"doc_id": t["doc_id"],
                         "pred_lang": pa.array(pred, pa.string())})

    return ds.map_batches(predict, batch_format="pyarrow")


def _tri_windows(nt) -> tuple[np.ndarray, np.ndarray]:
    """(int64 trigram keys over every 3-byte window, int64 windows-per-doc)
    of a normalized [a-z0-9 ] string column — zero-copy over the Arrow
    byte buffer (ASCII after normalization, so byte windows == char
    windows; key = b0*65536 + b1*256 + b2, the base-256 code of
    ``substr(n, i, 3)``)."""
    from ray_data_mplsh.functions.hashing import utf8_flat

    offs, data = utf8_flat(nt)
    lens = np.diff(offs)
    m = np.maximum(lens - 2, 0).astype(np.int64)
    total = int(m.sum())
    if total == 0:
        return np.empty(0, np.int64), m
    mc = np.concatenate(([np.int64(0)], np.cumsum(m)))
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(mc[:-1], m) + np.repeat(offs[:-1], m))
    d = data.astype(np.int64)
    keys = d[idx] * 65536 + d[idx + 1] * 256 + d[idx + 2]
    return keys, m


_LM_SCHEMA_COLS = ("doc_id", "n_tri", "sum_cnt", "n_distinct")


def q_lm_score(sf_dir: str):
    """CCNet-style LM quality scoring (the Wenzek et al. 2020 shape —
    the model-based quality gate between heuristic filters and dedup):
    train a character-trigram language model on the corpus, score every
    doc against it, and bucket docs into head/middle/tail terciles by
    mean trigram probability. Normalization is the q_normalized_dedup
    twin (lower + strip non-[a-zA-Z0-9 ]).

    Exact-parity design: the hashed row carries INTEGER sufficient
    statistics (window count, summed model counts, distinct trigrams);
    the tercile orders docs by the double ratio sum_cnt/n_tri (IEEE
    division is correctly rounded, so numpy and DuckDB produce the
    identical double) DESC with doc_id tie-break, replaying DuckDB's
    NTILE fill rule. Log-space perplexity itself is a client-side map
    over the emitted rationals — libm log is not bit-portable across
    engines, so it stays out of the hashed row.

    Scale shape: the train pass is batch-local np.unique partials into a
    37^3-bounded groupby then a broadcast (the model is <= 50,653 rows by
    construction — the alphabet after normalization); the score pass is a
    zero-shuffle broadcast-probe map; the global tercile needs only the
    value-count CDF of the ratio (the q_global_rank_len pattern) plus the
    doc ids of the <= 2 boundary-ratio tie groups. The CDF/tie gathers
    are capped; a corpus whose distinct-ratio count outgrows the cap
    flips to a range-partitioned rank exchange (asserted loudly, not
    silently truncated). Docs with fewer than 3 normalized chars have no
    trigram instances and are excluded (the SQL inner join drops them)."""
    return lm_score_ds(_read(sf_dir, "documents", ["doc_id", "text"]))


def lm_score_ds(ds):
    """q_lm_score over an arbitrary (doc_id, text) Dataset — factored
    out so compositions (q_ccnet_pipeline) can train + score + tercile
    a FILTERED subcorpus with the identical kernel."""
    import ray
    from ray.data.aggregate import Sum

    def norm_col(t: pa.Table):
        return pc.utf8_lower(pc.replace_substring_regex(
            t["text"], pattern="[^a-zA-Z0-9 ]", replacement=""))

    def count_partial(t: pa.Table) -> pa.Table:
        keys, _ = _tri_windows(norm_col(t))
        u, c = np.unique(keys, return_counts=True)
        return pa.table({"tri": pa.array(u, pa.int64()),
                         "cnt": pa.array(c.astype(np.int64))})

    empty = pa.table({c: pa.array([], pa.int64())
                      for c in (*_LM_SCHEMA_COLS, "bucket")})
    agg = ds.map_batches(count_partial, batch_format="pyarrow") \
        .groupby("tri").aggregate(Sum("cnt", alias_name="cnt"))
    mt = gather_capped(agg, 60_000, pa.schema([("tri", pa.int64()),
                                               ("cnt", pa.int64())]))
    assert mt is not None, "trigram vocab exceeded 37^3 — impossible"
    if mt.num_rows == 0:
        return empty
    tri_v = mt["tri"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt_v = mt["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(tri_v)
    model = ray.put((tri_v[o], cnt_v[o]))

    def score(t: pa.Table) -> pa.Table:
        tv, cv = cached_get(model)
        keys, m = _tri_windows(norm_col(t))
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = len(ids)
        sum_cnt = np.zeros(nd, np.int64)
        n_dist = np.zeros(nd, np.int64)
        if len(keys):
            c = cv[np.searchsorted(tv, keys)]
            mc = np.concatenate(([np.int64(0)], np.cumsum(m)))
            nz = np.flatnonzero(m)
            # reduceat over the non-empty segment starts: zero-length
            # segments are excluded, so consecutive starts delimit
            # exactly one doc's windows
            sum_cnt[nz] = np.add.reduceat(c, mc[nz])
            # distinct trigrams per doc: keys fit in 24 bits (3 bytes),
            # so (doc, key) packs into one int64 — a single np.sort
            # replaces the 2-key lexsort (~2x on the corpus-sized pass)
            seg = np.repeat(np.arange(nd, dtype=np.int64), m)
            packed = np.sort((seg << 24) | keys)
            first = np.concatenate(([True], packed[1:] != packed[:-1]))
            n_dist = np.bincount(packed[first] >> 24,
                                 minlength=nd).astype(np.int64)
        keep = m > 0
        r = sum_cnt[keep] / m[keep]          # IEEE-exact double division
        return pa.table({
            "doc_id": pa.array(ids[keep]),
            "n_tri": pa.array(m[keep]),
            "sum_cnt": pa.array(sum_cnt[keep]),
            "n_distinct": pa.array(n_dist[keep]),
            "r": pa.array(r, pa.float64())})

    # doc-level stats (5 fixed-width cols/doc) materialize once so the
    # CDF, the tie gather and the final bucket map don't re-run the text
    # scan — at 100 TB this is the per-doc metadata table, not the corpus
    stats = ds.map_batches(score, batch_format="pyarrow").materialize()

    def rvc(t: pa.Table) -> pa.Table:
        rb = t["r"].to_numpy(zero_copy_only=False).view(np.uint64)
        u, c = np.unique(rb, return_counts=True)
        return pa.table({"rb": pa.array(u, pa.uint64()),
                         "c": pa.array(c.astype(np.int64))})

    rag = stats.map_batches(rvc, batch_format="pyarrow") \
        .groupby("rb").aggregate(Sum("c", alias_name="c"))
    ct = gather_capped(rag, 4_000_000,
                       pa.schema([("rb", pa.uint64()), ("c", pa.int64())]))
    assert ct is not None, \
        "lm_score ratio CDF outgrew the driver cap — flip to a " \
        "range-partitioned rank exchange"
    if ct.num_rows == 0:
        return empty
    rv = ct["rb"].to_numpy(zero_copy_only=False).astype(np.uint64) \
        .view(np.float64)
    cc = ct["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(-rv)                      # DESC; values are distinct
    rv, cc = rv[o], cc[o]
    below = np.concatenate(([0], np.cumsum(cc)))[:-1]
    n = int(cc.sum())
    base, rem = divmod(n, 3)
    cut1 = base + (1 if rem > 0 else 0)
    cut2 = cut1 + base + (1 if rem > 1 else 0)
    straddle = []                            # ratio values split by a cut
    for cut in (cut1, cut2):
        j = int(np.searchsorted(below, cut, side="right")) - 1
        if 0 <= j < len(rv) and below[j] < cut < below[j] + cc[j]:
            straddle.append(rv[j])
    tie_ids: dict[int, np.ndarray] = {}
    if straddle:
        sbits = np.unique(np.asarray(straddle, np.float64).view(np.uint64))

        def tie_filter(t: pa.Table) -> pa.Table:
            mk = np.isin(t["r"].to_numpy(zero_copy_only=False)
                         .view(np.uint64), sbits)
            return t.select(["doc_id", "r"]).filter(pa.array(mk))

        bt = gather_capped(
            stats.map_batches(tie_filter, batch_format="pyarrow"),
            2_000_000, pa.schema([("doc_id", pa.int64()),
                                  ("r", pa.float64())]))
        assert bt is not None, \
            "lm_score tercile-boundary tie group outgrew the driver cap"
        bids = bt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bbits = bt["r"].to_numpy(zero_copy_only=False).view(np.uint64)
        for xb in sbits:
            tie_ids[int(xb)] = np.sort(bids[bbits == xb])
    rva = rv[::-1].copy()                    # ascending for searchsorted
    bel_a = below[::-1].copy()
    bref = ray.put((rva, bel_a, cut1, cut2, tie_ids))

    def bucket(t: pa.Table) -> pa.Table:
        rva_, bel_, c1, c2, ties = cached_get(bref)
        rr = t["r"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        rank = bel_[np.searchsorted(rva_, rr)].copy()
        for xb, gids in ties.items():
            mk = rr.view(np.uint64) == np.uint64(xb)
            if mk.any():    # rank within the tie group is by doc_id ASC
                rank[mk] += np.searchsorted(gids, ids[mk])
        tile = (1 + (rank >= c1).astype(np.int64)
                + (rank >= c2).astype(np.int64))
        return pa.table({**{c: t[c] for c in _LM_SCHEMA_COLS},
                         "bucket": pa.array(tile)})

    return stats.map_batches(bucket, batch_format="pyarrow")


_DSIR_TARGET = ("src0", "src1")


def q_dsir_weights(sf_dir: str):
    """DSIR-flavored importance scoring (Xie et al. 2023, "Data
    Selection via Importance Resampling" — the domain-matching signal a
    mixture pipeline computes before resampling raw webtext toward a
    target domain): per doc, integer sufficient statistics of its word
    features under a TARGET unigram model (docs from _DSIR_TARGET
    sources) and the RAW corpus model, plus the IEEE-exact ratio
    ``w = sum_tgt / sum_raw``. Counts are instance counts (DSIR uses
    term frequencies, not document frequencies); the true DSIR weight
    is a log-product over these same models — libm log is not
    bit-portable across engines, so the hashed row carries the integer
    sums and the correctly-rounded double ratio, and any monotone
    client-side transform is exact on top of them.

    Scale shape: ONE corpus scan trains BOTH models (per-batch
    (word, raw_cnt, tgt_cnt) partials — the q_doc_freq combiner with a
    target-row mask — into one |vocab|-bounded groupby broadcast once);
    the scoring pass is a zero-shuffle map probing the joint model with
    one pd.Index lookup. The vocab gather is capped and asserts loudly —
    open-vocab webtext at 100 TB flips to DSIR's own fix (hash the
    feature space into 2^17 buckets before counting; same plan, bounded
    by construction) rather than silently truncating."""
    import ray
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def word_partials(t: pa.Table) -> pa.Table:
        row, words = _split_words(t["text"])
        codes, uniq = pd.factorize(words, sort=False)
        is_tgt = pc.is_in(t["source"],
                          value_set=pa.array(list(_DSIR_TARGET))) \
            .to_numpy(zero_copy_only=False)
        c_raw = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        c_tgt = np.bincount(codes[is_tgt[row]],
                            minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "w": pa.array(uniq, pa.string()),
            "c_raw": pa.array(c_raw), "c_tgt": pa.array(c_tgt)})

    agg = docs.map_batches(word_partials, batch_format="pyarrow") \
        .groupby("w").aggregate(Sum("c_raw", alias_name="c_raw"),
                                Sum("c_tgt", alias_name="c_tgt"))
    mt = gather_capped(agg, 4_000_000,
                       pa.schema([("w", pa.string()),
                                  ("c_raw", pa.int64()),
                                  ("c_tgt", pa.int64())]))
    assert mt is not None, \
        "dsir vocab outgrew the driver cap — hash the feature " \
        "space into buckets (the DSIR scale mode)"
    ref = ray.put((
        pd.Index(np.asarray(mt["w"].to_pylist(), dtype=object)),
        mt["c_raw"].to_numpy(zero_copy_only=False).astype(np.int64),
        mt["c_tgt"].to_numpy(zero_copy_only=False).astype(np.int64)))

    def score(t: pa.Table) -> pa.Table:
        ri, rc, tc = cached_get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(t["text"])
        rh = ri.get_indexer(words)  # joint model covers every word
        # int64 np.add.at, not bincount(weights=): the sums must stay
        # integer-exact past float64's 2^53 at corpus scale
        sum_tgt = np.zeros(len(ids), np.int64)
        sum_raw = np.zeros(len(ids), np.int64)
        np.add.at(sum_tgt, row, tc[rh])
        np.add.at(sum_raw, row, rc[rh])
        n_tok = np.bincount(row, minlength=len(ids)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids),
            "n_tok": pa.array(n_tok),
            "sum_tgt": pa.array(sum_tgt),
            "sum_raw": pa.array(sum_raw),
            "w": pa.array(sum_tgt / np.maximum(sum_raw, 1), pa.float64())})

    return docs.map_batches(score, batch_format="pyarrow")


# --- dedup family variants -------------------------------------------------

def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (op 13c): 64-bit signature, 16-bit block
    banding, score-ordered bit-flip multi-probe. DuckDB-oracled END TO
    END: the word hash is poly_str_hashes (Horner + SplitMix64 — both
    replayable with HUGEINT split-multiplies), so the oracle recomputes
    the full signature (word hashes -> 5-word shingle hashes -> per-bit
    majority votes -> 4x16-bit blocks) in SQL and brute-forces all pairs
    at Hamming <= 3 with bit_count(xor). Recall is 1.0 BY CONSTRUCTION
    (pigeonhole: 3 differing bits cannot touch all 4 blocks, so every
    qualifying pair shares an exact block key), hence candidate
    generation == brute force and the row is bit-exact, not rows-only.
    Also gated against a brute-force Hamming oracle in
    tests/test_simhash.py."""
    from ray_data_mplsh.stages.simhash import simhash_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cfg = MPLSHConfig(min_chars=10)
    pairs = simhash_pairs(docs, cfg, default_partitions())
    return pairs.map_batches(
        lambda t: pa.table({"a": pc.cast(t["a"], pa.int64()),
                            "b": pc.cast(t["b"], pa.int64()),
                            "hamming": t["hamming"]}),
        batch_format="pyarrow")


def q_minhash_sigs(sf_dir: str):
    """The flagship MinHash signature kernel (op 12), driver-hash-checked:
    runs the PRODUCTION ``MinHasher`` stage (tokenize -> word hash ->
    rolling 5-word shingle Horner+mix64 -> per-permutation affine min)
    with ``word_hash="poly"`` — the SQL-replayable Horner+SplitMix64
    token family — and K=16 permutations, then explodes each signature
    into (doc_id, perm, mh_hi, mh_lo) rows. The DuckDB oracle recomputes
    every signature slot from scratch (word poly-hashes -> shingle
    hashes -> min over ``a_j*s + b_j mod 2^64`` with the same frozen
    PCG64 permutation constants embedded as VALUES), so the row is
    bit-exact, pinning rolling_shingle_hashes, make_perm_params and
    minhash_signatures end to end. Same normalized-ASCII fixture
    precondition as q_simhash_pairs (tokenize == string_split there).
    The 64-bit values ship as two int64 halves for dtype-stable driver
    hashing."""
    from ray_data_mplsh.stages.minhash import minhash_stage, sig_matrix

    cfg = MPLSHConfig(num_perm=_MINHASH_SIGS_K, bands=4, rows_per_band=4,
                      probes=4, word_hash="poly")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sigs = minhash_stage(docs, cfg)

    def explode(t: pa.Table) -> pa.Table:
        m = sig_matrix(t)                      # (n, K) uint64, zero-copy
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n, K = m.shape
        flat = m.reshape(-1)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, K), pa.int64()),
            "perm": pa.array(np.tile(np.arange(K, dtype=np.int64), n),
                             pa.int64()),
            "mh_hi": pa.array((flat >> np.uint64(32)).astype(np.int64),
                              pa.int64()),
            "mh_lo": pa.array((flat & np.uint64(0xFFFFFFFF)).astype(
                np.int64), pa.int64()),
        })

    return sigs.map_batches(explode, batch_format="pyarrow")


_MINHASH_SIGS_K = 16


def q_band_keys(sf_dir: str):
    """LSH band + multi-probe key emission (op 13), driver-hash-checked:
    the production band emitter (``make_band_emitter``, the map
    ``band_stage`` runs; ``BandProbeEmitter`` semantics — b=4
    bands of r=4 signature slots, probe rank 0 = exact key, ranks 1..4 =
    the 1-mask perturbation keys of [MPLSH §4.4] with MASK_SENTINEL in
    slot t-1, all namespaced via the Horner prefix ``band*(r+1)+t``) over
    the same poly-hashed K=16 signatures q_minhash_sigs pins. The DuckDB
    oracle replays the whole chain (signatures -> per-band slot lists ->
    masked Horner + SplitMix64), so every emitted (doc, band, probe) key
    is bit-exact — together with q_minhash_sigs this puts a driver
    signature on the flagship path through candidate-key generation."""
    from ray_data_mplsh.stages.bands import make_band_emitter
    from ray_data_mplsh.stages.minhash import minhash_stage

    cfg = MPLSHConfig(num_perm=_MINHASH_SIGS_K, bands=4, rows_per_band=4,
                      probes=4, word_hash="poly")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    emit = make_band_emitter(cfg)
    nt = 1 + cfg.probes

    def keys_of(sigs: pa.Table) -> pa.Table:
        # the emitter's rows carry no (band, probe) columns; a signature
        # batch holds whole docs, so each doc's b*(1+T) keys are one
        # doc-major run and the labels follow from the run position
        t = emit(sigs)
        bh = t["band_hash"].to_numpy(zero_copy_only=False)
        n = sigs.num_rows
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "band_id": pa.array(np.tile(np.repeat(
                np.arange(cfg.bands, dtype=np.int64), nt), n), pa.int64()),
            "probe_rank": pa.array(np.tile(
                np.arange(nt, dtype=np.int64), cfg.bands * n), pa.int64()),
            "bh_hi": pa.array((bh >> np.uint64(32)).astype(np.int64),
                              pa.int64()),
            "bh_lo": pa.array((bh & np.uint64(0xFFFFFFFF)).astype(np.int64),
                              pa.int64()),
        })

    return minhash_stage(docs, cfg).map_batches(keys_of,
                                                batch_format="pyarrow")


_LSHV_CACHE: dict = {}


def q_lsh_verified_pairs(sf_dir: str):
    """The production S3-S6 LSH chain end-to-end (ops 12-18), driver-
    hash-checked: ``minhash_stage`` -> ``band_stage`` (exact + multi-
    probe keys) -> ``pairs_stage`` (equal-key buckets, all-pairs at or
    under bucket_cap, star pairing above it, global pair dedup) ->
    ``verify_stage`` (signature-slot agreement est >= verify_theta),
    under the SQL-replayable config q_minhash_sigs/q_band_keys pin
    (word_hash="poly", K=16, b=4, r=4, probes=4). The DuckDB oracle
    (_LSH_PAIRS_SQL) replays the whole chain from raw text, so every
    surviving (a, b, est) row is bit-exact — est is an exact dyadic
    n/16 on both sides. Together with q_minhash_sigs / q_band_keys /
    q_fingerprints this puts driver signatures on the full flagship
    candidate-generation + verification path.

    Materialized once per process and shared with its downstream
    consumers ([[q_lsh_clusters]], [[q_lsh_recall]] — the
    q_ppjoin_pairs memoization pattern): the verified pair set is
    output-sized, so holding it lets the cluster and recall queries
    reuse the chain instead of recomputing sigs -> bands -> pairs ->
    verify."""
    if sf_dir in _LSHV_CACHE:
        return _LSHV_CACHE[sf_dir]
    from ray_data_mplsh.stages.bands import band_stage
    from ray_data_mplsh.stages.minhash import minhash_stage
    from ray_data_mplsh.stages.pairs import pairs_stage
    from ray_data_mplsh.stages.shuffle import default_partitions
    from ray_data_mplsh.stages.verify import verify_stage

    cfg = MPLSHConfig(num_perm=_MINHASH_SIGS_K, bands=4, rows_per_band=4,
                      probes=4, word_hash="poly")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    P = default_partitions(cfg.num_partitions)
    sigs = minhash_stage(docs, cfg).materialize()
    n_docs = sigs.count()
    pairs = pairs_stage(band_stage(sigs, cfg), cfg, P)
    ver = verify_stage(pairs, sigs, cfg, P, n_docs)

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pc.cast(t["a"], pa.int64()),
            "b": pc.cast(t["b"], pa.int64()),
            "jaccard": t["jaccard"],
        })

    _LSHV_CACHE[sf_dir] = ver.map_batches(
        fmt, batch_format="pyarrow").materialize()
    return _LSHV_CACHE[sf_dir]


def q_substring_candidates(sf_dir: str):
    """The substring pass's candidate generation (op 24 front half),
    driver-hash-checked: the production ``_fingerprint_emitter`` (batch
    winnow kernel) -> fp-keyed bucket pairing (``_emit_pairs_fn``: all
    C(g,2) pairs at or under substr_bucket_cap, star above) -> global
    pair dedup, replayed end-to-end by ``_SUBSTR_PAIRS_SQL`` (winnow
    CTEs + the equal-fp self-join with the cap/star rule). Same ASCII
    precondition as q_fingerprints."""
    from ray_data_mplsh.stages.output import _fingerprint_emitter
    from ray_data_mplsh.stages.pairs import _emit_pairs_fn, dedup_pairs
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    cfg = MPLSHConfig()
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    P = default_partitions(cfg.num_partitions)
    fps = docs.map_batches(_fingerprint_emitter(cfg),
                           batch_format="pyarrow")
    pairs = partition_apply(fps, "fp",
                            _emit_pairs_fn("fp", cfg.substr_bucket_cap), P)
    pairs = dedup_pairs(pairs, P, local_max_rows=cfg.local_state_max_rows)

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t["a"], pa.int64()),
                         "b": pc.cast(t["b"], pa.int64())})

    return pairs.map_batches(fmt, batch_format="pyarrow")


def q_lsh_clusters(sf_dir: str):
    """Connected components (op 19) over the q_lsh_verified_pairs edge
    set, driver-hash-checked: the production ``connected_components``
    (hybrid driver kernel / star contraction) labels every edge-incident
    doc with its component's min doc_id. The DuckDB oracle
    (_LSH_CLUSTERS_SQL) replays the whole chain from raw text and runs
    recursive label propagation over the symmetric edges — with this,
    every kernel of the flagship dedup path S3-S7 carries a driver
    signature (sigs, band/probe keys, bucket pairing, verify, CC).
    Consumes the [[q_lsh_verified_pairs]] memoized pair set (doc ids
    are non-negative, so the int64 view clusters identically), so the
    sigs -> bands -> pairs -> verify chain runs once per process across
    the three LSH-chain queries."""
    from ray_data_mplsh.stages.cc import connected_components
    from ray_data_mplsh.stages.shuffle import default_partitions

    cfg = MPLSHConfig(num_perm=_MINHASH_SIGS_K, bands=4, rows_per_band=4,
                      probes=4, word_hash="poly")
    P = default_partitions(cfg.num_partitions)
    labels = connected_components(q_lsh_verified_pairs(sf_dir), cfg, P)

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "cluster_id": pc.cast(t["cluster_id"], pa.int64()),
        })

    return labels.map_batches(fmt, batch_format="pyarrow")


_NGJ_MIN_J = 0.8


def q_ngram_jaccard(sf_dir: str):
    """n-gram (5-word-shingle) near-dup pairs with the TRUE shingle-set
    Jaccard >= theta (0.8): exact-text reps (min doc_id per text, ORIGINAL
    ids — unlike run_dedup, whose url-hash ids no SQL can replay) ->
    MinHash band/probe candidate shuffle -> exact Jaccard scoring of the
    candidates only (never all pairs). DuckDB-oracled: at theta=0.8 the
    16x8-band + multi-probe candidate recall is 1.0 on the sf corpora
    (planted dups sit near J~1, where the per-pair miss probability is
    <1e-7), so {candidates with exact J >= theta} == {ALL pairs with
    J >= theta}, which the oracle computes by brute force with
    list_intersect over string shingles (hashed-set Jaccard == string-set
    Jaccard absent 64-bit collisions, the engine's standing assumption)."""
    from ray_data_mplsh.pipelines.ngram import exact_jaccard_pairs
    from ray_data_mplsh.stages.bands import band_stage
    from ray_data_mplsh.stages.minhash import minhash_stage
    from ray_data_mplsh.stages.pairs import pairs_stage

    cfg = MPLSHConfig()
    P = default_partitions()
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.uint64()),
            "text": t["text"],
            "_th": pa.array(hash_str_array(t["text"]), pa.uint64())})

    def rep_part(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        codes, _ = pd.factorize(part["text"].to_pandas(), sort=False)
        o = np.lexsort((ids, codes))
        first = np.empty(len(o), bool)
        first[:1] = True
        first[1:] = codes[o][1:] != codes[o][:-1]
        return part.take(pa.array(o[first])).drop_columns(["_th"])

    reps = partition_apply(docs.map_batches(keyed, batch_format="pyarrow"),
                           "_th", rep_part, P).materialize()
    sigs = minhash_stage(reps, cfg).materialize()
    pairs = pairs_stage(band_stage(sigs, cfg), cfg, P)
    res = exact_jaccard_pairs(pairs, reps, cfg, min_jaccard=_NGJ_MIN_J)
    return res.map_batches(
        lambda t: pa.table({"a": pc.cast(t["a"], pa.int64()),
                            "b": pc.cast(t["b"], pa.int64()),
                            "jaccard": t["jaccard"]}),
        batch_format="pyarrow")


def q_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (rolling-hash char k-grams,
    [SchleimerEtAl winnowing], op 24 kernel): per doc, the number of
    DISTINCT selected fingerprints from the PRODUCTION batch kernel
    (functions/hashing.winnow_fingerprints_batch — the same kernel the
    flagship S8 substring stage runs), so the driver signature pins the
    hot-path code. Oracled by ``_WINNOW_SQL``: a full DuckDB replay of
    the masked-Horner 30-gram hash + SplitMix64 + window-of-21 minima.
    The rightmost-argmin tie-break needs no SQL twin because the kernel
    dedups per (doc, fp VALUE) and a selected position's hash IS its
    window's min — the distinct selected set equals the distinct
    window-min set regardless of which position a tie selects."""
    from ray_data_mplsh.functions.hashing import (utf8_flat,
                                                  winnow_fingerprints_batch)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cfg = MPLSHConfig()

    def fp(t: pa.Table) -> pa.Table:
        offs, data = utf8_flat(t["text"])
        _, di = winnow_fingerprints_batch(offs, data,
                                          cfg.winnow_k, cfg.winnow_w)
        counts = np.bincount(di, minlength=t.num_rows)
        return pa.table({"doc_id": t["doc_id"],
                         "n_fingerprints": pa.array(counts, pa.int64())})

    return ds.map_batches(fp, batch_format="pyarrow")


_BPE_PATTERN = (r"'(?:[sdmt]|ll|ve|re)| ?[\pL]+| ?[\pN]+"
                r"| ?[^\s\pL\pN]+|\s+")


def q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style wide aggregate: combiner-friendly groupby over the
    biggest fact table, money summed in exact integer cents."""
    from ray.data.aggregate import Count, Sum

    ds = _read_sized(sf_dir, "lineitem",
                     ["l_returnflag", "l_linestatus", "l_quantity",
                      "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
            "price_cents": pc.cast(pc.round(
                pc.multiply(t["l_extendedprice"], 100)), pa.int64()),
        })

    return ds.map_batches(prep, batch_format="pyarrow") \
        .groupby(["l_returnflag", "l_linestatus"]) \
        .aggregate(Count(alias_name="cnt"),
                   Sum("qty", alias_name="sum_qty"),
                   Sum("price_cents", alias_name="sum_price_cents"))


def q_region_nation(sf_dir: str):
    """Two-level broadcast join over tiny dimension tables (region ->
    nation -> customer count)."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    cust = _read(sf_dir, "customer", ["c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_regionkey", "n_name"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    dim = nation.join(region, keys=["n_regionkey"],
                      right_keys=["r_regionkey"])
    j = broadcast_join(cust, dim, left_on="c_nationkey",
                       right_on="n_nationkey")
    return j.groupby(["r_name", "n_name"]).aggregate(
        Count(alias_name="cnt"))


def q_bpe_token_counts(sf_dir: str):
    """GPT-2-style pre-tokenizer token counting: the same RE2 pattern runs
    in pyarrow and DuckDB, so parity is exact."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(t["text"], _BPE_PATTERN)
        return pa.table({"doc_id": t["doc_id"],
                         "n_bpe_tokens": pc.cast(n, pa.int64())})

    return ds.map_batches(count, batch_format="pyarrow")


def q_asof_event_order(sf_dir: str):
    """As-of join (custom operator): for every event, the user's most
    recent order at or before the event time, MAX(o_orderkey) on
    orderdate ties — the tie rule the asof_join kernel enforces natively
    (right rows lexsorted with val ascending, so the fill takes the max),
    matching the DuckDB oracle's pre-aggregated ASOF. No Ray Aggregate on
    the right side: the kernel's in-partition sort subsumes it (a
    measured 5.7s all-to-all saved at bench scale; the dedup it provided
    only matters when (key, ts) duplicates dominate shuffle volume)."""
    from ray_data_mplsh.pipelines.asof import asof_join

    events = _read_sized(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = _read_sized(sf_dir, "orders",
                         ["o_custkey", "o_orderdate", "o_orderkey"])
    out = asof_join(events, orders,
                    left_key="user_id", left_ts="ts", left_id="event_id",
                    right_key="o_custkey", right_ts="o_orderdate",
                    right_val="o_orderkey",
                    num_partitions=default_partitions())
    return out.map_batches(
        lambda t: t.rename_columns(["event_id", "o_orderkey"]),
        batch_format="pyarrow")


def q_range_join_events(sf_dir: str):
    """Temporal range join (custom operator): per event, the count of the
    SAME user's events in the trailing 7 days (inclusive of self; lower
    bound exclusive — ``ts2 > ts - 7d AND ts2 <= ts``)."""
    from ray_data_mplsh.pipelines.asof import range_join_count

    left = _read_sized(sf_dir, "events", ["event_id", "ts", "user_id"])
    right = _read_sized(sf_dir, "events", ["ts", "user_id"])
    out = range_join_count(
        left, right, left_key="user_id", left_ts="ts",
        left_id="event_id", right_key="user_id", right_ts="ts",
        window_us=7 * 86400 * 10**6,
        num_partitions=default_partitions())
    return out.map_batches(
        lambda t: t.rename_columns(["event_id", "n_events_7d"]),
        batch_format="pyarrow")


def q_events_sliding(sf_dir: str):
    """3-day sliding-window aggregate (windows end on days that have
    events): composed as a flat-map row->windows expansion + groupby —
    the windowed-aggregate pattern Ray Data lacks natively. Counts and
    exact integer-cent sums match the DuckDB range-join oracle."""
    from ray.data.aggregate import Count, Sum

    ds = _read_sized(sf_dir, "events", ["ts", "event_type", "value"])

    # the (small) set of distinct event days, broadcast for label filtering
    import pyarrow.parquet as pq

    tall = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"])
    days = np.unique(tall["ts"].cast(pa.date32()).to_numpy(
        zero_copy_only=False)).astype("datetime64[D]")
    days_i = np.sort(days.astype(np.int64))

    def expand(t: pa.Table) -> pa.Table:
        d = t["ts"].cast(pa.date32()).to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        outs_d, outs_e, outs_c = [], [], []
        for off in range(3):     # windows ending at d, d+1, d+2 cover row
            lbl = d + off
            keep = np.isin(lbl, days_i)
            outs_d.append(lbl[keep])
            outs_e.append(et[keep])
            outs_c.append(cents[keep])
        lbl = np.concatenate(outs_d)
        return pa.table({
            "wd": pa.array(lbl.astype("datetime64[D]"), pa.date32()),
            "event_type": pa.array(np.concatenate(outs_e)),
            "cents": pa.array(np.concatenate(outs_c), pa.int64()),
        })

    agg = ds.map_batches(expand, batch_format="pyarrow") \
        .groupby(["wd", "event_type"]) \
        .aggregate(Count(alias_name="cnt"), Sum("cents", alias_name="sc"))

    def finish(t: pa.Table) -> pa.Table:
        # date32 -> timestamp[us]: DuckDB's .df() renders DATE as
        # datetime64[us], and date32 would surface as pandas object —
        # matching the oracle dtype keeps the driver compare exact
        t = t.set_column(t.schema.get_field_index("wd"), "wd",
                         pc.cast(t["wd"], pa.timestamp("us")))
        return t.drop_columns(["sc"]).append_column(
            "sv", pc.divide(pc.cast(t["sc"], pa.float64()), 100.0))

    return agg.map_batches(finish, batch_format="pyarrow")


def q_sample(sf_dir: str):
    """Deterministic 1-in-20 sample (op 32) via a multiplicative hash both
    engines compute identically (high word of Knuth-constant product, see
    knuth_hash32) — bit-exact vs the DuckDB oracle, unlike RNG sampling
    whose stream is engine-specific. The hash is uniform enough for QA
    sampling and needs no broadcast state."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def pick(t: pa.Table) -> pa.Table:
        h = knuth_hash32(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return t.filter(pa.array(h % np.uint64(20) == 0))

    return ds.map_batches(pick, batch_format="pyarrow")


def q_quantiles(sf_dir: str):
    """Distributed EXACT percentiles of document length (op: quantile
    sketch family, the pretraining length/quality-gate primitive):
    value-count combiner + one tiny groupby — matches DuckDB
    quantile_disc bit-exactly (same ceil(q*n)-1 rank rule)."""
    from ray_data_mplsh.pipelines.sketch import exact_quantiles

    ds = _read(sf_dir, "documents", ["n_chars"])
    return exact_quantiles(ds, "n_chars", [0.25, 0.5, 0.75, 0.9, 0.99])


def q_top_docs_per_lang(sf_dir: str):
    """Grouped top-k (op 31, grouped variant): the 3 longest docs per
    language, ties broken by doc_id ASC — one lang-keyed partition
    exchange, vectorized rank-in-run per partition, bit-exact vs
    ROW_NUMBER() OVER in DuckDB."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import partition_apply

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "lang_h", pa.array(hash_str_array(t["lang"]), pa.uint64()))

    def topk(part: pa.Table) -> pa.Table:
        lang = np.asarray(part["lang"].to_pylist(), dtype=object)
        nc = part["n_chars"].to_numpy(zero_copy_only=False)
        did = part["doc_id"].to_numpy(zero_copy_only=False)
        _, inv = np.unique(lang, return_inverse=True)
        o = np.lexsort((did, -nc, inv))
        gi = inv[o]
        new = np.concatenate(([True], gi[1:] != gi[:-1]))
        starts = np.flatnonzero(new)
        run_id = np.cumsum(new) - 1
        rank = np.arange(len(gi)) - starts[run_id]
        sel = o[rank < 3]
        return part.take(pa.array(np.sort(sel))).drop_columns(["lang_h"])

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    return partition_apply(keyed_ds, "lang_h", topk, default_partitions())


def q_kmv_distinct(sf_dir: str):
    """KMV approximate COUNT(DISTINCT source): combiner-style sketch, no
    shuffle; one (column, estimate) row. DuckDB-oracled via the sketch's
    own exactness regime: with fewer than k=1024 distinct values the
    merged sketch holds every distinct hash and kmv_estimate returns the
    EXACT distinct count, so the oracle is plain COUNT(DISTINCT) — the sf
    corpora have 20 sources. (The estimator tail, kept >= k, stays
    error-bound gated in tests/test_sketch.py.)"""
    from ray_data_mplsh.pipelines.sketch import approx_distinct

    ds = _read(sf_dir, "documents", ["source"])
    est = approx_distinct(ds, "source", k=1024)
    return pa.table({"column": pa.array(["source"]),
                     "estimate": pa.array([float(est)], pa.float64())})


def q_heavy_hitters(sf_dir: str):
    """Misra-Gries approximate top-5 sources with lower-bound counts —
    the unbounded-cardinality path next to the exact q_top_sources.
    DuckDB-oracled via the sketch's exactness regime: _mg_merge only
    decrements when a summary exceeds its 64 counters, so with <= 64
    distinct keys (the sf corpora have 20 sources) every per-batch
    summary and the final merge are exact sums and the 'lower bounds'
    ARE the true counts — the oracle is the exact GROUP BY top-5. (The
    decrement path stays guarantee-gated on a Zipf stream in
    tests/test_sketch.py.)"""
    from ray_data_mplsh.pipelines.sketch import approx_top_k

    ds = _read(sf_dir, "documents", ["source"])
    return approx_top_k(ds, "source", k=5, counters=64)


def q_heavy_hitters_exact(sf_dir: str):
    """Sketch-pruned EXACT top-5 sources: Misra-Gries finds candidates,
    a second streaming pass recounts only those candidates; the MG error
    bound proves the result equals the full GROUP BY (bit-exact oracle)
    without ever shuffling the column."""
    from ray_data_mplsh.pipelines.sketch import heavy_hitters_exact

    ds = _read(sf_dir, "documents", ["source"])
    return heavy_hitters_exact(ds, "source", k=5, counters=64)


def q_kmv_doc_ids(sf_dir: str):
    """KMV approximate COUNT(DISTINCT doc_id) via the SplitMix64 mixer —
    the estimate (not just the row count) is bit-exact vs the oracle,
    which replays mix64 in SQL with HUGEINT split-multiplies mod 2^64 and
    applies the same (k-1)/(kth_min/2^64) estimator."""
    from ray_data_mplsh.pipelines.sketch import approx_distinct_u64

    ds = _read(sf_dir, "documents", ["doc_id"])
    est = approx_distinct_u64(ds, "doc_id", k=256)
    return pa.table({"column": pa.array(["doc_id"]),
                     "estimate": pa.array([float(est)], pa.float64())})


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sample: 2 docs per language, picked by the
    smallest multiplicative hash (ties by doc_id) — the per-group QA
    sample a training-data pipeline draws, bit-exact vs ROW_NUMBER in
    DuckDB with the identical hash expression."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import partition_apply

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "lang_h", pa.array(hash_str_array(t["lang"]), pa.uint64()))

    def pick(part: pa.Table) -> pa.Table:
        lang = np.asarray(part["lang"].to_pylist(), dtype=object)
        did = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = knuth_hash32(did)
        _, inv = np.unique(lang, return_inverse=True)
        o = np.lexsort((did, h, inv))
        gi = inv[o]
        new = np.concatenate(([True], gi[1:] != gi[:-1]))
        starts = np.flatnonzero(new)
        rank = np.arange(len(gi)) - starts[np.cumsum(new) - 1]
        sel = o[rank < 2]
        return part.take(pa.array(np.sort(sel))).drop_columns(["lang_h"])

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    return partition_apply(keyed_ds, "lang_h", pick, default_partitions())


# ------------------------- registry ---------------------------------------

def q_sessionize(sf_dir: str):
    """Gap-rule sessionization (30-min inactivity closes a session): one
    user-keyed exchange + vectorized run detection — bit-exact vs the
    DuckDB lag/window formulation, including (ts, event_id) tie order and
    integer-cent session sums."""
    from ray_data_mplsh.pipelines.sessions import sessionize

    ds = _read_sized(sf_dir, "events",
                     ["user_id", "ts", "event_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return t.drop_columns(["value"]).append_column("cents", cents)

    return sessionize(ds.map_batches(to_cents, batch_format="pyarrow"),
                      key_col="user_id", ts_col="ts", order_col="event_id",
                      cents_col="cents")


def q_semi_join_customers(sf_dir: str):
    """Distributed semi-join: customers with at least one big order
    (totalprice >= 450000) — per-batch distinct-key combiner, broadcast
    key-set probe (shuffle path above the key threshold, force-tested
    equivalent in tests/test_relational.py)."""
    from ray_data_mplsh.stages.relational import semi_anti_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    big = _read_sized(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .filter(expr="o_totalprice >= 450000")
    return semi_anti_join(cust, big, left_on="c_custkey",
                          right_on="o_custkey", anti=False)


def q_anti_join_customers(sf_dir: str):
    """Distributed anti-join (the delete-list / blocklist primitive):
    customers with NO big order, counted per market segment."""
    from ray.data.aggregate import Count

    from ray_data_mplsh.stages.relational import semi_anti_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    big = _read_sized(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .filter(expr="o_totalprice >= 450000")
    j = semi_anti_join(cust, big, left_on="c_custkey",
                       right_on="o_custkey", anti=True)
    return j.groupby("c_mktsegment").aggregate(Count(alias_name="cnt"))


def q_grouped_quantiles(sf_dir: str):
    """Per-language exact p25/p50/p90 document length — the grouped
    quality-gate variant of q_quantiles (value-count combiner keyed on
    (lang, length); driver CDF is O(groups x distinct))."""
    from ray_data_mplsh.pipelines.sketch import grouped_exact_quantiles

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_exact_quantiles(ds, "lang", "n_chars", [0.25, 0.5, 0.9])


def q_grouped_quantiles_cont(sf_dir: str):
    """Per-language CONTINUOUS p25/p50/p90 document length — grouped
    quantile_cont twin (same combiner; DuckDB two-weight interpolation
    replayed per group in float64)."""
    from ray_data_mplsh.pipelines.sketch import grouped_exact_quantiles_cont

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_exact_quantiles_cont(ds, "lang", "n_chars",
                                        [0.25, 0.5, 0.9])


def _bigram_keys(b: pa.Table):
    """(row, packed bigram key int64, vocab object array, nu) for a batch:
    adjacent word pairs within each doc, as exact integer code pairs —
    no hash, so distinct-counts are collision-free."""
    row, words = _split_words(b["text"])
    codes, uniq = pd.factorize(words, sort=False)
    adj = row[1:] == row[:-1]
    nu = np.int64(max(len(uniq), 1))
    key = codes[:-1][adj].astype(np.int64) * nu + codes[1:][adj]
    return row[:-1][adj], key, uniq, nu


def q_bigram_counts(sf_dir: str):
    """Corpus-level word-bigram counts (n-gram LM statistics), top 50 by
    (count DESC, bigram ASC): per-batch packed-code partials shrink the
    exchange to |batch-distinct bigrams| rows before the groupby sum —
    same combiner shape as q_doc_freq."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pa.Table) -> pa.Table:
        _, key, uniq, nu = _bigram_keys(b)
        k, cnt = np.unique(key, return_counts=True)
        bg = np.char.add(np.char.add(
            uniq[(k // nu).astype(np.int64)].astype(str), " "),
            uniq[(k % nu).astype(np.int64)].astype(str))
        return pa.table({"bigram": pa.array(bg),
                         "partial": pa.array(cnt.astype(np.int64),
                                             pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bigram").aggregate(Sum("partial", alias_name="cnt"))
    top = agg.sort(["cnt", "bigram"], descending=[True, False]).limit(50)
    return top.map_batches(
        lambda t: pa.table({"bigram": t["bigram"],
                            "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow")


def q_repetition_scores(sf_dir: str):
    """Per-doc repetition ratio (1 - distinct/total word bigrams) — the
    boilerplate/spam quality gate. Batch-local and exact: bigrams are
    integer code pairs, the ratio is one IEEE divide + subtract, so the
    SQL oracle replays it bit-exactly. Docs with no bigram are omitted
    (matching the SQL GROUP BY over the bigram stream)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r, key, _, _ = _bigram_keys(b)
        n = len(ids)
        nb = np.bincount(r, minlength=n).astype(np.int64)
        order = np.lexsort((key, r))
        rs, ks = r[order], key[order]
        new = np.concatenate(([True], (rs[1:] != rs[:-1]) |
                              (ks[1:] != ks[:-1]))) if len(rs) else \
            np.empty(0, bool)
        nd = np.bincount(rs[np.flatnonzero(new)],
                         minlength=n).astype(np.int64)
        keep = nb > 0
        ratio = 1.0 - nd[keep].astype(np.float64) / nb[keep].astype(
            np.float64)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_bigrams": pa.array(nb[keep], pa.int64()),
            "n_distinct": pa.array(nd[keep], pa.int64()),
            "rep_ratio": pa.array(ratio, pa.float64())})

    return ds.map_batches(stats, batch_format="pyarrow")


_DECON_IDS = [7, 23, 101]      # eval-set stand-in: snippets from these docs


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs containing any 40-char snippet
    drawn from the stand-in eval docs — broadcast snippet index +
    rolling-hash scan with byte-exact confirmation, bit-exact vs SQL
    ``contains``."""
    import pyarrow.parquet as pq

    from ray_data_mplsh.pipelines.decontam import contains_any

    src = pq.read_table(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", _DECON_IDS)])
    snips = [t[50:90] for t in src["text"].to_pylist()
             if t is not None and len(t) >= 90]
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return contains_any(ds, snips)


def top_terms(ds, *, broadcast_max_vocab: int = 2_000_000):
    """Per-doc most-distinctive term by tf/df relevance (the TF-IDF
    ordering with an exactly-replayable score: one IEEE double divide of
    two int64s — identical in numpy and SQL). Ties: score DESC, term ASC.

    Hybrid plan: the df vocabulary is always combiner-reduced (never the
    corpus). When it fits ``broadcast_max_vocab`` it is broadcast once and
    BOTH the df attach and the per-doc top-1 stay batch-local (a doc's
    words never span batches) — zero row-level exchanges. Above the gate,
    tf rows ride one word-keyed exchange (df attach) and one doc-keyed
    exchange (top-1); force-path equivalence is pinned in
    tests/test_relational.py."""
    import ray
    from ray.data.aggregate import Sum

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (cached_get,
                                               default_partitions,
                                               partition_apply)

    # per-batch (doc, word, tf) — exact within a batch because a doc's
    # text never spans batches
    def tf_rows(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(b["text"])
        codes, uniq = pd.factorize(words, sort=False)
        nu = np.int64(max(len(uniq), 1))
        key = row * nu + codes
        dk, tf = np.unique(key, return_counts=True)
        r = (dk // nu).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[r], pa.int64()),
            "word": pa.array(uniq[(dk % nu).astype(np.int64)], pa.string()),
            "tf": pa.array(tf.astype(np.int64), pa.int64()),
            "df": pa.nulls(len(dk), pa.int64()),
            "_side": pa.array(np.zeros(len(dk), np.int8), pa.int8())})

    # df per word: distinct-(doc,word) combiner partials -> groupby sum
    def df_partial(b: pa.Table) -> pa.Table:
        row, words = _split_words(b["text"])
        codes, uniq = pd.factorize(words, sort=False)
        nu = np.int64(max(len(uniq), 1))
        dk = np.unique(row * nu + codes)
        dfc = np.bincount((dk % nu).astype(np.int64),
                          minlength=len(uniq)).astype(np.int64)
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "partial": pa.array(dfc, pa.int64())})

    dfds = ds.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("partial", alias_name="df")) \
        .materialize()

    def local_top1(ids, words, tf, df):
        """(doc_id, term, tf, df, score) top-1 rows for co-located docs."""
        wcodes, _ = pd.factorize(words, sort=True)  # lex order, sortable
        score = tf.astype(np.float64) / df.astype(np.float64)
        order = np.lexsort((wcodes, -score, ids))
        ids_s = ids[order]
        first = np.flatnonzero(np.concatenate(
            ([True], ids_s[1:] != ids_s[:-1]))) if len(ids_s) else ids_s
        sel = order[first]
        return pa.table({
            "doc_id": pa.array(ids[sel], pa.int64()),
            "term": pa.array(words[sel].astype(str)),
            "tf": pa.array(tf[sel], pa.int64()),
            "df": pa.array(df[sel], pa.int64()),
            "score": pa.array(score[sel], pa.float64())})

    if dfds.count() <= broadcast_max_vocab:
        vparts = [pa.table(b) for b in dfds.iter_batches(
            batch_size=65536, batch_format="pyarrow")]
        vt = pa.concat_tables(vparts) if vparts else pa.table(
            {"word": pa.array([], pa.string()),
             "df": pa.array([], pa.int64())})
        ref = ray.put((np.asarray(vt["word"].to_pylist(), dtype=object),
                       vt["df"].to_numpy(zero_copy_only=False)
                       .astype(np.int64)))

        def batch_top1(b: pa.Table) -> pa.Table:
            vwords, vdf = cached_get(ref)
            idx = pd.Index(vwords)
            ids = b["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            row, words = _split_words(b["text"])
            codes, uniq = pd.factorize(words, sort=False)
            nu = np.int64(max(len(uniq), 1))
            dk, tf = np.unique(row * nu + codes, return_counts=True)
            r = (dk // nu).astype(np.int64)
            w = uniq[(dk % nu).astype(np.int64)]
            df = vdf[idx.get_indexer(w)]
            return local_top1(ids[r], w, tf.astype(np.int64), df)

        return ds.map_batches(batch_top1, batch_format="pyarrow")

    def df_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "doc_id": pa.nulls(n, pa.int64()),
            "word": b["word"],
            "tf": pa.nulls(n, pa.int64()),
            "df": pc.cast(b["df"], pa.int64()),
            "_side": pa.array(np.ones(n, np.int8), pa.int8())})

    both = ds.map_batches(tf_rows, batch_format="pyarrow").union(
        dfds.map_batches(df_rows, batch_format="pyarrow"))

    def add_wh(t: pa.Table) -> pa.Table:
        return t.append_column("word_h", pa.array(
            hash_str_array(t["word"]), pa.uint64()))

    # exchange 1 (word-keyed): attach df to tf rows
    def attach_df(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(
            np.asarray(t["word"].to_pylist(), dtype=object), sort=False)
        dfv = np.zeros(codes.max() + 1 if len(codes) else 1, np.int64)
        is_df = side == 1
        dfv[codes[is_df]] = t["df"].to_numpy(zero_copy_only=False)[is_df]
        tfm = ~is_df
        return pa.table({
            "doc_id": t["doc_id"].filter(pa.array(tfm)),
            "word": t["word"].filter(pa.array(tfm)),
            "tf": t["tf"].filter(pa.array(tfm)),
            "df": pa.array(dfv[codes[tfm]], pa.int64())})

    scored = partition_apply(both.map_batches(add_wh,
                                              batch_format="pyarrow"),
                             "word_h", attach_df, default_partitions(0))

    # exchange 2 (doc-keyed): top-1 per doc by (score DESC, word ASC)
    def top1(t: pa.Table) -> pa.Table:
        return local_top1(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            np.asarray(t["word"].to_pylist(), dtype=object),
            t["tf"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["df"].to_numpy(zero_copy_only=False).astype(np.int64))

    return partition_apply(scored, "doc_id", top1, default_partitions(0))


def q_top_terms(sf_dir: str):
    """Per-doc tf/df-relevance top term — see ``top_terms``."""
    return top_terms(_read(sf_dir, "documents", ["doc_id", "text"]))


# --- window / pivot analytics over events ----------------------------------

_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_pivot_events(sf_dir: str):
    """Daily event-type pivot (conditional aggregation): one row per day,
    one count column per event type — the mixture-monitoring rollup.
    Per-batch bincount partials collapse the exchange to |days| rows per
    block before the groupby sum; bit-exact vs COUNT(*) FILTER in SQL."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        d = pc.strftime(t["ts"], format="%Y-%m-%d").to_pandas() \
            .to_numpy(dtype=object)
        codes, days = pd.factorize(d)
        cols: dict = {"d": pa.array(days, pa.string())}
        for name in _EVENT_TYPES:
            # Arrow C++ string equality; counts < 2^53, so the float
            # bincount round-trip is exact
            w = pc.equal(t["event_type"], name) \
                .to_numpy(zero_copy_only=False).astype(np.float64)
            cols["n_" + name] = pa.array(np.bincount(
                codes, weights=w, minlength=len(days)).astype(np.int64))
        return pa.table(cols)

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("d") \
        .aggregate(*[Sum("n_" + n, alias_name="n_" + n)
                     for n in _EVENT_TYPES])
    return agg.map_batches(
        lambda t: pa.table({"d": t["d"], **{
            f"n_{n}": pc.cast(t[f"n_{n}"], pa.int64())
            for n in _EVENT_TYPES}}),
        batch_format="pyarrow")


def q_user_gaps(sf_dir: str):
    """Per-user inter-event-gap stats, the LAG-window primitive: event
    count plus total and max gap in integer microseconds for users with
    >=2 events. One user-keyed exchange; gaps come from one vectorized
    diff over the (user, ts, event_id)-sorted run — bit-exact vs DuckDB
    LAG ... OVER (PARTITION BY user ORDER BY ts, event_id)."""
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read_sized(sf_dir, "events", ["user_id", "ts", "event_id"])

    def gaps(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ts = part["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        eid = part["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        o = np.lexsort((eid, ts, uid))
        u, t_ = uid[o], ts[o]
        same = np.empty(len(u), bool)
        same[:1] = False
        same[1:] = u[1:] == u[:-1]
        gap = np.empty(len(t_), np.int64)
        gap[:1] = 0
        gap[1:] = t_[1:] - t_[:-1]
        uu, inv, cnt = np.unique(u, return_inverse=True,
                                 return_counts=True)
        sum_gap = np.zeros(len(uu), np.int64)
        np.add.at(sum_gap, inv[same], gap[same])
        max_gap = np.zeros(len(uu), np.int64)
        np.maximum.at(max_gap, inv[same], gap[same])
        keep = cnt >= 2
        return pa.table({
            "user_id": pa.array(uu[keep], pa.int64()),
            "n_events": pa.array(cnt[keep].astype(np.int64)),
            "sum_gap_us": pa.array(sum_gap[keep], pa.int64()),
            "max_gap_us": pa.array(max_gap[keep], pa.int64())})

    return partition_apply(ds, "user_id", gaps, default_partitions())


def q_cumulative_daily(sf_dir: str):
    """Running total of events per day (cumulative window aggregate): the
    distributed groupby produces the tiny |days|-row table; the running
    sum over it is a driver-side cumsum on that small result (legit: the
    window is over days, not rows). Bit-exact vs SUM(...) OVER in SQL."""
    from ray.data.aggregate import Count

    ds = _read_sized(sf_dir, "events", ["ts"])
    agg = ds.map_batches(
        lambda t: pa.table({"d": pc.strftime(t["ts"], format="%Y-%m-%d")}),
        batch_format="pyarrow").groupby("d").aggregate(
            Count(alias_name="cnt"))
    pdf = agg.sort("d").to_pandas()
    if pdf.empty:  # empty groupby drops its schema
        return pd.DataFrame({"d": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype="int64"),
                             "cum_cnt": pd.Series([], dtype="int64")})
    pdf["cnt"] = pdf["cnt"].astype("int64")
    pdf["cum_cnt"] = pdf["cnt"].cumsum().astype("int64")
    return pdf


# --- cross-document duplicated n-grams (RefinedWeb-style dup coverage) -----

_XNG_N = 8


def crossdoc_ngrams(ds, n: int = _XNG_N, hash_only: bool = False):
    """Cross-document duplicated n-gram coverage — the 'how much of this
    doc appears elsewhere in the corpus' dedup signal (RefinedWeb/Gopher
    use the fraction of a doc's n-grams seen in other docs): per doc with
    >= n words, the distinct word-n-gram count and how many of those
    grams occur in at least one OTHER document.

    Two physical plans (SURVEY Appendix B.1):

    * ``hash_only=False`` (oracle mode): gram STRINGS are routed by hash
      (one exchange) but grouped exactly within the partition, so hash
      collisions only co-locate; bit-exact vs the SQL list_transform
      oracle. Shuffle volume ~ n x text bytes.
    * ``hash_only=True`` (scale mode): grams never materialize — each
      gram rides as a 128-bit pair (two independent polynomial combines
      of per-word 64-bit hashes), ~24 bytes/gram at any n. Grouping is on
      the full 128-bit key (collision bound 2^-128 per pair, the MinHash
      banding standard). Force-path equality is pinned in
      test_query_oracles.

    Per-(doc, gram) dedup is batch-local in both modes (each doc lives in
    exactly one row)."""
    from ray.data.aggregate import Count, Sum

    from ray_data_mplsh.functions.hashing import hash_str_array, mix64
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    if hash_only:
        P1 = np.uint64(0x9E3779B97F4A7C15)
        P2 = np.uint64(0xC2B2AE3D27D4EB4F)

        def grams_h(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            row, words = _split_words(b["text"])
            if len(row) >= n:
                starts = np.flatnonzero(
                    row[:len(row) - n + 1] == row[n - 1:])
            else:
                starts = np.empty(0, np.int64)
            codes, uniq = pd.factorize(words, sort=False)
            wh1 = hash_str_array(uniq) if len(uniq) \
                else np.empty(0, np.uint64)
            wh2 = mix64(wh1 + np.uint64(0xDEADBEEF)) if len(uniq) \
                else np.empty(0, np.uint64)
            h1 = np.zeros(len(starts), np.uint64)
            h2 = np.zeros(len(starts), np.uint64)
            for i in range(n):
                c = codes[starts + i]
                h1 = h1 * P1 + wh1[c]
                h2 = h2 * P2 + wh2[c]
            df = pd.DataFrame({"doc_id": ids[row[starts]],
                               "h1": h1, "h2": h2}).drop_duplicates()
            return pa.table({
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                "h1": pa.array(df["h1"].to_numpy(np.uint64), pa.uint64()),
                "h2": pa.array(df["h2"].to_numpy(np.uint64), pa.uint64())})

        def mark_h(part: pa.Table) -> pa.Table:
            a = part["h1"].to_numpy(zero_copy_only=False)
            b2 = part["h2"].to_numpy(zero_copy_only=False)
            d = part["doc_id"].to_numpy(zero_copy_only=False)
            o = np.lexsort((b2, a))
            s1, s2 = a[o], b2[o]
            new = np.concatenate(
                ([True], (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1]))) \
                if len(o) else np.empty(0, bool)
            gid = np.cumsum(new) - 1
            cnt = np.bincount(gid) if len(gid) else np.empty(0, np.int64)
            shared = np.empty(len(o), np.int64)
            shared[o] = (cnt[gid] >= 2).astype(np.int64)
            return pa.table({
                "doc_id": pa.array(d, pa.int64()),
                "shared": pa.array(shared)})

        marked = partition_apply(
            ds.map_batches(grams_h, batch_format="pyarrow"),
            "h1", mark_h, default_partitions())
        agg = marked.groupby("doc_id").aggregate(
            Count(alias_name="n_distinct_grams"),
            Sum("shared", alias_name="n_shared"))
        return agg.map_batches(
            lambda t: pa.table({
                "doc_id": t["doc_id"],
                "n_distinct_grams": pc.cast(t["n_distinct_grams"],
                                            pa.int64()),
                "n_shared": pc.cast(t["n_shared"], pa.int64())}),
            batch_format="pyarrow")

    def grams(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(b["text"])
        if len(row) >= n:
            starts = np.flatnonzero(row[:len(row) - n + 1] == row[n - 1:])
        else:
            starts = np.empty(0, np.int64)
        gs = pd.Series(words[starts], dtype=object)
        for i in range(1, n):
            gs = gs + " " + pd.Series(words[starts + i], dtype=object)
        df = pd.DataFrame({
            "doc_id": ids[row[starts]],
            "gram": gs.to_numpy(dtype=object)}).drop_duplicates()
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "gram": pa.array(df["gram"].to_numpy(dtype=object),
                             pa.string())})

    pairs = ds.map_batches(grams, batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "gram_h", pa.array(hash_str_array(t["gram"]), pa.uint64())),
        batch_format="pyarrow")

    def mark(part: pa.Table) -> pa.Table:
        g = part["gram"].to_pandas().to_numpy(dtype=object)
        d = part["doc_id"].to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(g)
        per_gram = np.bincount(codes)
        return pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "shared": pa.array((per_gram[codes] >= 2).astype(np.int64))})

    marked = partition_apply(pairs, "gram_h", mark, default_partitions())
    agg = marked.groupby("doc_id").aggregate(
        Count(alias_name="n_distinct_grams"),
        Sum("shared", alias_name="n_shared"))
    return agg.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "n_distinct_grams": pc.cast(t["n_distinct_grams"], pa.int64()),
            "n_shared": pc.cast(t["n_shared"], pa.int64())}),
        batch_format="pyarrow")


def q_crossdoc_ngrams(sf_dir: str):
    """Oracle-mode cross-doc dup-8-gram coverage (see crossdoc_ngrams)."""
    return crossdoc_ngrams(_read(sf_dir, "documents", ["doc_id", "text"]),
                           n=_XNG_N, hash_only=False)


def _gram_strings(words: np.ndarray, starts: np.ndarray, n: int
                  ) -> np.ndarray:
    """Space-joined n-word gram strings at the given flat start
    positions (vectorized pandas string concat)."""
    gs = pd.Series(words[starts], dtype=object)
    for i in range(1, n):
        gs = gs + " " + pd.Series(words[starts + i], dtype=object)
    return gs.to_numpy(dtype=object)


def _scrub_rebuild(ids: np.ndarray, row: np.ndarray, words: np.ndarray,
                   nw: np.ndarray, bad_starts: np.ndarray, n: int
                   ) -> pa.Table:
    """Rebuild (doc_id, clean_text, n_words, n_removed) after removing
    the n-word spans at flat positions ``bad_starts``: union the covered
    positions, gather survivors into a ListArray, one Arrow binary_join
    per batch — no per-doc Python string work."""
    cov = np.zeros(len(row), bool)
    for i in range(n):
        cov[bad_starts + i] = True
    keep = ~cov
    counts = np.bincount(row[keep], minlength=len(ids)).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    la = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.array(words[keep], pa.string()))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "clean_text": pc.binary_join(la, " "),
        "n_words": pa.array(nw, pa.int64()),
        "n_removed": pa.array(nw - counts, pa.int64())})


def remove_dup_ngrams(ds, n: int = _XNG_N,
                      broadcast_max_grams: int = 4_000_000):
    """C4/RefinedWeb-style duplicated-span SCRUBBING — the rewrite
    counterpart of ``crossdoc_ngrams``: every word covered by an n-gram
    that occurs in >= 2 documents is REMOVED from all docs except the
    gram's MIN-doc_id owner (which keeps every occurrence), and the
    surviving words are re-joined into ``clean_text``. Deterministic and
    order-free (ownership is a global MIN, not first-seen), so a SQL
    twin replays it bit-exactly.

    Two physical plans:

    * broadcast (default): one gram-hash exchange of DISTINCT (doc,
      gram) rows finds the dup grams + owners exactly (hash only
      co-locates; grouping is on the gram string); that table — bounded
      by |dup grams|, tiny next to the corpus — is gathered once, and
      the rewrite pass is map-side only (pd.Index membership probe per
      batch, ListArray + binary_join rebuild).
    * exchange fallback (dup set overflowed ``broadcast_max_grams``):
      ALL gram positions ride the gram-hash exchange; each partition
      resolves dup + owner exactly and emits the non-owner (doc, start)
      cover rows, which meet their documents in a doc-keyed exchange
      (schema-padded union, the full_outer_join trick) where the same
      vectorized rebuild runs per partition. Path equivalence is
      force-tested with ``broadcast_max_grams=0``.

    100 TB note: gram STRINGS cross the exchange (~n x text bytes, the
    crossdoc_ngrams oracle-mode tradeoff); the hash-pair routing of
    crossdoc's ``hash_only`` scale mode applies here identically if the
    exactness budget allows 2^-128 collisions."""
    import ray

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (cached_get,
                                               default_partitions,
                                               partition_apply)

    P = default_partitions()

    def gram_rows(b: pa.Table, distinct: bool) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(b["text"])
        if len(row) >= n:
            starts = np.flatnonzero(row[:len(row) - n + 1] == row[n - 1:])
        else:
            starts = np.empty(0, np.int64)
        g = _gram_strings(words, starts, n)
        d = ids[row[starts]] if len(starts) else np.empty(0, np.int64)
        # per-doc word offset of each gram start (the cover position)
        doc_first = np.zeros(len(ids), np.int64)
        if len(row):
            first_pos = np.concatenate(
                ([0], np.flatnonzero(row[1:] != row[:-1]) + 1))
            doc_first[row[first_pos]] = first_pos
        s_in_doc = starts - doc_first[row[starts]] if len(starts) \
            else starts
        df = pd.DataFrame({"doc_id": d, "gram": g, "start": s_in_doc})
        if distinct:  # a doc never spans batches -> globally distinct
            df = df.drop_duplicates(subset=["doc_id", "gram"])
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "gram": pa.array(df["gram"].to_numpy(dtype=object),
                             pa.string()),
            "start": pa.array(df["start"].to_numpy(np.int64)),
            "gram_h": pa.array(hash_str_array(
                pa.array(df["gram"].to_numpy(dtype=object), pa.string())),
                pa.uint64())})

    def dup_owner(part: pa.Table) -> pa.Table:
        """Exact per-gram doc count + MIN owner within the hash
        partition (rows are distinct (doc, gram))."""
        g = part["gram"].to_pandas().to_numpy(dtype=object)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, uniq = pd.factorize(g, sort=False)
        cnt = np.bincount(codes, minlength=len(uniq))
        own = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(own, codes, d)
        keep = cnt >= 2
        return pa.table({
            "gram": pa.array(uniq[keep], pa.string()),
            "own": pa.array(own[keep], pa.int64())})

    dup = partition_apply(
        ds.map_batches(lambda b: gram_rows(b, True),
                       batch_format="pyarrow"),
        "gram_h", dup_owner, P)
    dup_schema = pa.schema([("gram", pa.string()), ("own", pa.int64())])
    dup_tbl = gather_capped(dup, broadcast_max_grams, dup_schema)

    if dup_tbl is not None:
        ref = ray.put((np.asarray(dup_tbl["gram"].to_pylist(),
                                  dtype=object),
                       dup_tbl["own"].to_numpy(zero_copy_only=False)
                       .astype(np.int64)))

        def scrub(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            row, words = _split_words(b["text"])
            nw = np.bincount(row, minlength=len(ids)).astype(np.int64)
            if len(row) >= n:
                starts = np.flatnonzero(
                    row[:len(row) - n + 1] == row[n - 1:])
            else:
                starts = np.empty(0, np.int64)
            grams, owners = cached_get(ref)
            if len(grams) and len(starts):
                g = _gram_strings(words, starts, n)
                hit = pd.Index(grams).get_indexer(g)
                is_dup = hit >= 0
                bad = is_dup.copy()
                bad[is_dup] = owners[hit[is_dup]] != ids[row[starts]][is_dup]
                bad_starts = starts[bad]
            else:
                bad_starts = np.empty(0, np.int64)
            return _scrub_rebuild(ids, row, words, nw, bad_starts, n)

        return ds.map_batches(scrub, batch_format="pyarrow")

    # --- exchange fallback: dup-gram set is not broadcastable ----------
    allpos = ds.map_batches(lambda b: gram_rows(b, False),
                            batch_format="pyarrow")

    def cover_rows(part: pa.Table) -> pa.Table:
        g = part["gram"].to_pandas().to_numpy(dtype=object)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = part["start"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, uniq = pd.factorize(g, sort=False)
        # dup test must count DISTINCT docs (a within-doc repeat is not
        # corpus duplication)
        pair = pd.DataFrame({"c": codes, "d": d}).drop_duplicates()
        nd = np.bincount(pair["c"].to_numpy(), minlength=len(uniq))
        own = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(own, codes, d)
        bad = (nd[codes] >= 2) & (own[codes] != d)
        return pa.table({"doc_id": pa.array(d[bad], pa.int64()),
                         "start": pa.array(s[bad], pa.int64())})

    cov = partition_apply(allpos, "gram_h", cover_rows, P)

    _SD = "__scrub_side"

    def pad_doc(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()), "text": b["text"],
            "start": pa.nulls(b.num_rows, pa.int64()),
            _SD: pa.array(np.zeros(b.num_rows, np.int8), pa.int8())})

    def pad_cov(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "text": pa.nulls(b.num_rows,
                                                    pa.string()),
            "start": b["start"],
            _SD: pa.array(np.ones(b.num_rows, np.int8), pa.int8())})

    both = ds.map_batches(pad_doc, batch_format="pyarrow").union(
        cov.map_batches(pad_cov, batch_format="pyarrow"))

    def rebuild(part: pa.Table) -> pa.Table:
        side = part[_SD].to_numpy(zero_copy_only=False)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        di = np.flatnonzero(side == 0)
        ids = d[di]
        row, words = _split_words(part["text"].take(pa.array(di)))
        nw = np.bincount(row, minlength=len(ids)).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(nw)))
        ci = np.flatnonzero(side == 1)
        if len(ci) and len(ids):
            cd = d[ci]
            cs = part["start"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)[ci]
            o = np.argsort(ids)
            li = o[np.searchsorted(ids[o], cd)]
            bad_starts = offs[li] + cs
        else:
            bad_starts = np.empty(0, np.int64)
        return _scrub_rebuild(ids, row, words, nw, bad_starts, n)

    return partition_apply(both, "doc_id", rebuild, P)


def q_remove_dup_ngrams(sf_dir: str):
    """Duplicated-span scrubbing over the documents table (see
    remove_dup_ngrams)."""
    return remove_dup_ngrams(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=_XNG_N)


def _split_paras(b: pa.Table):
    """(doc ids, flat paragraph StringArray, para->row int64, 0-based
    idx-in-doc int64, per-doc para counts int64) of the newline split.
    An empty-text doc has exactly ONE empty paragraph — DuckDB's
    ``string_split('', chr(10))`` is ``['']``, same as Arrow's split —
    which competes globally with every other empty paragraph."""
    ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if b.num_rows == 0:
        z = np.empty(0, np.int64)
        return ids, pa.array([], pa.string()), z, z, z
    lst = pc.split_pattern(b["text"], pattern="\n").combine_chunks()
    offs = lst.offsets.to_numpy().astype(np.int64)
    offs = offs - offs[0]
    counts = np.diff(offs)
    row = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
    idx = np.arange(int(counts.sum()), dtype=np.int64) \
        - np.repeat(offs[:-1], counts)
    return ids, lst.flatten(), row, idx, counts


def _rebuild_docs(ids, vals, row, idx, counts, bad_mask) -> pa.Table:
    """Drop the bad paragraph/line instances of a [[_split_paras]] block
    and re-join per doc: (doc_id, text, n_kept, n_removed). Shared by
    [[paragraph_dedup]] (first-wins) and [[boilerplate_lines]]
    (kill-all-copies) — the two cross-doc line-granularity scrubs differ
    only in WHICH instances are bad, never in the reassembly."""
    kept = ~bad_mask
    n_kept = np.bincount(row[kept], minlength=len(ids)) \
        .astype(np.int64)
    offs = pa.array(np.concatenate(
        ([0], np.cumsum(n_kept))).astype(np.int64), pa.int64())
    nl = pa.LargeListArray.from_arrays(
        offs, vals.filter(pa.array(kept)).cast(pa.large_string()))
    txt = pc.binary_join(
        nl, pa.scalar("\n", pa.large_string())).cast(pa.string())
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": txt,
        "n_kept": pa.array(n_kept, pa.int64()),
        "n_removed": pa.array(counts - n_kept, pa.int64())})


def paragraph_dedup(ds, broadcast_max_paras: int = 4_000_000,
                    num_partitions: int = 0):
    """MassiveText-style cross-doc PARAGRAPH dedup (Rae et al. 2021,
    §A.2.3 — exact duplicate paragraphs removed corpus-wide): docs are
    split on newline, a paragraph INSTANCE survives iff it is the
    globally FIRST occurrence of that exact paragraph text in
    (doc_id, position) order, and survivors are re-joined with newline
    into ``text`` alongside ``n_kept``/``n_removed`` counts.
    Deterministic and order-free (the winner is a global lexicographic
    MIN, not first-seen), so a SQL ROW_NUMBER window replays it
    bit-exactly. Every doc has >= 1 paragraph (an empty text is one
    empty paragraph, see [[_split_paras]]), so every doc emits a row.

    Two physical plans (the remove_dup_ngrams pattern):

    * broadcast (default): one para-hash exchange of per-doc-distinct
      ``(para, doc, min_idx, n_inst)`` rows resolves duplicated paras +
      winners exactly (grouping is on the paragraph STRING — the hash
      only routes); the winner table, bounded by |dup paragraphs| and
      tiny next to the corpus, is gathered once and the rewrite pass is
      map-side only (pd.Index probe, ListArray + binary_join rebuild).
    * exchange fallback (winner set overflowed ``broadcast_max_paras``):
      every instance rides the para-hash exchange, partitions emit the
      non-winner (doc, idx) cover rows, and a doc-keyed padded union
      meets them with their documents for the same vectorized rebuild.
      Path equivalence is force-tested with the cap at 0.

    100 TB note: paragraph strings cross the winner exchange once
    (distinct-per-doc, so bounded by corpus bytes); the 128-bit
    hash-pair routing of crossdoc_ngrams' hash_only mode applies
    identically if a 2^-128 collision budget is acceptable."""
    import ray

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (cached_get,
                                               default_partitions,
                                               partition_apply)

    P = default_partitions(num_partitions)

    def para_rows(b: pa.Table, distinct: bool) -> pa.Table:
        ids, vals, row, idx, _ = _split_paras(b)
        g = np.asarray(vals.to_pylist(), dtype=object)
        df = pd.DataFrame({"doc_id": ids[row], "para": g, "idx": idx})
        if distinct:  # a doc never spans batches -> globally per-doc
            agg = df.groupby(["doc_id", "para"], sort=False)["idx"] \
                .agg(["min", "size"]).reset_index()
            df = pd.DataFrame({"doc_id": agg["doc_id"], "para": agg["para"],
                               "min_idx": agg["min"],
                               "n_inst": agg["size"]})
        cols = {"doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                "para": pa.array(df["para"].to_numpy(dtype=object),
                                 pa.string())}
        for c in df.columns:
            if c not in ("doc_id", "para"):
                cols[c] = pa.array(df[c].to_numpy(np.int64))
        cols["para_h"] = pa.array(hash_str_array(cols["para"]), pa.uint64())
        return pa.table(cols)

    def dup_winner(part: pa.Table) -> pa.Table:
        """Exact per-paragraph instance total + lexicographic-min
        (doc, idx) winner within the hash partition (rows are per-doc
        aggregates, so min doc's min_idx IS the global winner)."""
        g = part["para"].to_pandas().to_numpy(dtype=object)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mi = part["min_idx"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ni = part["n_inst"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, uniq = pd.factorize(g, sort=False)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, codes, ni)
        o = np.lexsort((mi, d, codes))
        first = np.concatenate(([True], codes[o][1:] != codes[o][:-1])) \
            if len(o) else np.zeros(0, bool)
        sel = o[first]
        keep = tot[codes[sel]] >= 2
        sel = sel[keep]
        return pa.table({
            "para": pa.array(uniq[codes[sel]], pa.string()),
            "win_doc": pa.array(d[sel], pa.int64()),
            "win_idx": pa.array(mi[sel], pa.int64())})

    dup = partition_apply(
        ds.map_batches(lambda b: para_rows(b, True),
                       batch_format="pyarrow"),
        "para_h", dup_winner, P)
    dup_schema = pa.schema([("para", pa.string()), ("win_doc", pa.int64()),
                            ("win_idx", pa.int64())])
    dup_tbl = gather_capped(dup, broadcast_max_paras, dup_schema)

    rebuild_block = _rebuild_docs

    if dup_tbl is not None:
        ref = ray.put((
            pd.Index(np.asarray(dup_tbl["para"].to_pylist(), dtype=object)),
            dup_tbl["win_doc"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            dup_tbl["win_idx"].to_numpy(zero_copy_only=False)
            .astype(np.int64)))

        def scrub(b: pa.Table) -> pa.Table:
            ids, vals, row, idx, counts = _split_paras(b)
            paras, wd, wi = cached_get(ref)
            if len(paras) and len(row):
                hit = paras.get_indexer(
                    np.asarray(vals.to_pylist(), dtype=object))
                is_dup = hit >= 0
                bad = is_dup.copy()
                bad[is_dup] = (wd[hit[is_dup]] != ids[row[is_dup]]) \
                    | (wi[hit[is_dup]] != idx[is_dup])
            else:
                bad = np.zeros(len(row), bool)
            return rebuild_block(ids, vals, row, idx, counts, bad)

        return ds.map_batches(scrub, batch_format="pyarrow")

    # --- exchange fallback: winner set is not broadcastable ------------
    allpos = ds.map_batches(lambda b: para_rows(b, False),
                            batch_format="pyarrow")

    def cover_rows(part: pa.Table) -> pa.Table:
        g = part["para"].to_pandas().to_numpy(dtype=object)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = part["idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, uniq = pd.factorize(g, sort=False)
        tot = np.bincount(codes, minlength=len(uniq))
        o = np.lexsort((s, d, codes))
        first = np.concatenate(([True], codes[o][1:] != codes[o][:-1])) \
            if len(o) else np.zeros(0, bool)
        wpos = np.zeros(len(uniq), np.int64)
        wpos[codes[o[first]]] = o[first]
        bad = (tot[codes] >= 2) & (np.arange(len(codes)) != wpos[codes])
        return pa.table({"doc_id": pa.array(d[bad], pa.int64()),
                         "idx": pa.array(s[bad], pa.int64())})

    cov = partition_apply(allpos, "para_h", cover_rows, P)

    _SD = "__para_side"

    def pad_doc(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()), "text": b["text"],
            "idx": pa.nulls(b.num_rows, pa.int64()),
            _SD: pa.array(np.zeros(b.num_rows, np.int8), pa.int8())})

    def pad_cov(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "text": pa.nulls(b.num_rows, pa.string()),
            "idx": b["idx"],
            _SD: pa.array(np.ones(b.num_rows, np.int8), pa.int8())})

    both = ds.map_batches(pad_doc, batch_format="pyarrow").union(
        cov.map_batches(pad_cov, batch_format="pyarrow"))

    def rebuild(part: pa.Table) -> pa.Table:
        side = part[_SD].to_numpy(zero_copy_only=False)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        di = np.flatnonzero(side == 0)
        doc_tbl = pa.table({"doc_id": pa.array(d[di], pa.int64()),
                            "text": part["text"].take(pa.array(di))})
        ids, vals, row, idx, counts = _split_paras(doc_tbl)
        bad = np.zeros(len(row), bool)
        ci = np.flatnonzero(side == 1)
        if len(ci) and len(ids):
            cd = d[ci]
            # take the cover rows FIRST: the doc rows' idx is null and
            # would cast NaN -> int64 garbage (unused but warning-noisy)
            cs = part["idx"].take(pa.array(ci)) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            o = np.argsort(ids)
            li = o[np.searchsorted(ids[o], cd)]
            offs = np.concatenate(([0], np.cumsum(counts)))
            bad[offs[li] + cs] = True
        return rebuild_block(ids, vals, row, idx, counts, bad)

    return partition_apply(both, "doc_id", rebuild, P)


def q_paragraph_dedup(sf_dir: str):
    """Cross-doc paragraph dedup over the documents table (see
    paragraph_dedup; on the newline-free driver corpus every doc is one
    paragraph, so this degenerates to exact-text first-wins dedup with
    reassembly — the multi-paragraph semantics are pinned by the fuzz
    corpus in tests/test_textops_fuzz.py)."""
    return paragraph_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def boilerplate_lines(ds, min_docs: int = 2,
                      broadcast_max_lines: int = 4_000_000,
                      num_partitions: int = 0):
    """Cross-doc BOILERPLATE line scrub (the RefinedWeb/CCNet frequency
    heuristic: a line that recurs across documents is chrome — nav bars,
    cookie banners, share buttons — not content): every line whose exact
    text appears in >= ``min_docs`` DISTINCT documents is removed from
    EVERY document, including its first occurrence. The complement of
    [[paragraph_dedup]]'s first-wins rule: dedup keeps one copy of
    repeated content, boilerplate removal keeps none. Output per doc:
    (doc_id, text, n_kept, n_removed), every doc emits a row (empty text
    is one empty line, see [[_split_paras]]).

    Two physical plans (the paragraph_dedup pattern):

    * broadcast (default): one line-hash exchange of per-doc-DISTINCT
      ``(line, 1)`` rows (a per-batch doc-count combiner — docs never
      span batches) resolves corpus-wide distinct-doc counts exactly;
      the boilerplate set, bounded by |lines recurring across docs| and
      tiny next to the corpus, is gathered once and the scrub is
      map-side only (pd.Index probe + [[_rebuild_docs]]).
    * exchange fallback (the set overflowed ``broadcast_max_lines``):
      every line INSTANCE rides the hash exchange, partitions emit the
      boilerplate (doc, idx) cover rows, and a doc-keyed padded union
      meets them with their documents for the same rebuild. Path
      equivalence is force-tested with the cap at 0.

    100 TB note: only per-doc-distinct line strings cross the counting
    exchange (bounded by corpus bytes); grouping inside a partition is
    on the exact STRING — the hash only routes."""
    import ray

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (cached_get,
                                               default_partitions,
                                               partition_apply)

    P = default_partitions(num_partitions)

    def line_rows(b: pa.Table, distinct: bool) -> pa.Table:
        ids, vals, row, idx, _ = _split_paras(b)
        g = np.asarray(vals.to_pylist(), dtype=object)
        df = pd.DataFrame({"doc_id": ids[row], "line": g, "idx": idx})
        if distinct:  # one row per (doc, line): the doc-count combiner
            df = df.drop_duplicates(["doc_id", "line"])[["line"]]
        cols = {"line": pa.array(df["line"].to_numpy(dtype=object),
                                 pa.string())}
        for c in df.columns:
            if c != "line":
                cols[c] = pa.array(df[c].to_numpy(np.int64))
        cols["line_h"] = pa.array(hash_str_array(cols["line"]),
                                  pa.uint64())
        return pa.table(cols)

    def boiler_set(part: pa.Table) -> pa.Table:
        """Lines with >= min_docs distinct docs in the hash partition
        (rows are per-doc distinct, so the row count per exact line
        string IS its corpus-wide distinct-doc count)."""
        g = part["line"].to_pandas().to_numpy(dtype=object)
        codes, uniq = pd.factorize(g, sort=False)
        nd = np.bincount(codes, minlength=len(uniq))
        sel = np.flatnonzero(nd >= min_docs)
        return pa.table({"line": pa.array(uniq[sel], pa.string())})

    boiler = partition_apply(
        ds.map_batches(lambda b: line_rows(b, True),
                       batch_format="pyarrow"),
        "line_h", boiler_set, P)
    boiler_tbl = gather_capped(boiler, broadcast_max_lines,
                               pa.schema([("line", pa.string())]))

    if boiler_tbl is not None:
        ref = ray.put(pd.Index(
            np.asarray(boiler_tbl["line"].to_pylist(), dtype=object)))

        def scrub(b: pa.Table) -> pa.Table:
            ids, vals, row, idx, counts = _split_paras(b)
            lines = cached_get(ref)
            if len(lines) and len(row):
                bad = lines.get_indexer(
                    np.asarray(vals.to_pylist(), dtype=object)) >= 0
            else:
                bad = np.zeros(len(row), bool)
            return _rebuild_docs(ids, vals, row, idx, counts, bad)

        return ds.map_batches(scrub, batch_format="pyarrow")

    # --- exchange fallback: boilerplate set is not broadcastable -------
    allpos = ds.map_batches(lambda b: line_rows(b, False),
                            batch_format="pyarrow")

    def cover_rows(part: pa.Table) -> pa.Table:
        g = part["line"].to_pandas().to_numpy(dtype=object)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = part["idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, uniq = pd.factorize(g, sort=False)
        nd = np.zeros(len(uniq), np.int64)
        if len(codes):
            # distinct-doc count per line: count (line, doc) firsts
            o = np.lexsort((d, codes))
            new_pair = np.concatenate(
                ([True], (codes[o][1:] != codes[o][:-1])
                 | (d[o][1:] != d[o][:-1])))
            np.add.at(nd, codes[o[new_pair]], 1)
        bad = nd[codes] >= min_docs
        return pa.table({"doc_id": pa.array(d[bad], pa.int64()),
                         "idx": pa.array(s[bad], pa.int64())})

    cov = partition_apply(allpos, "line_h", cover_rows, P)

    _SD = "__line_side"

    def pad_doc(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()), "text": b["text"],
            "idx": pa.nulls(b.num_rows, pa.int64()),
            _SD: pa.array(np.zeros(b.num_rows, np.int8), pa.int8())})

    def pad_cov(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "text": pa.nulls(b.num_rows, pa.string()),
            "idx": b["idx"],
            _SD: pa.array(np.ones(b.num_rows, np.int8), pa.int8())})

    both = ds.map_batches(pad_doc, batch_format="pyarrow").union(
        cov.map_batches(pad_cov, batch_format="pyarrow"))

    def rebuild(part: pa.Table) -> pa.Table:
        side = part[_SD].to_numpy(zero_copy_only=False)
        d = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        di = np.flatnonzero(side == 0)
        doc_tbl = pa.table({"doc_id": pa.array(d[di], pa.int64()),
                            "text": part["text"].take(pa.array(di))})
        ids, vals, row, idx, counts = _split_paras(doc_tbl)
        bad = np.zeros(len(row), bool)
        ci = np.flatnonzero(side == 1)
        if len(ci) and len(ids):
            cd = d[ci]
            # cover rows FIRST (doc rows' idx is null; see
            # paragraph_dedup's rebuild for the NaN-cast rationale)
            cs = part["idx"].take(pa.array(ci)) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            o = np.argsort(ids)
            li = o[np.searchsorted(ids[o], cd)]
            offs = np.concatenate(([0], np.cumsum(counts)))
            bad[offs[li] + cs] = True
        return _rebuild_docs(ids, vals, row, idx, counts, bad)

    return partition_apply(both, "doc_id", rebuild, P)


def q_boilerplate_lines(sf_dir: str):
    """Boilerplate-line scrub over the documents table (see
    boilerplate_lines; on the newline-free driver corpus a whole doc is
    one line, so any text shared by >= 2 docs empties ALL its copies —
    the multi-line semantics are pinned by the fuzz corpora in
    tests/test_textops_fuzz.py)."""
    return boilerplate_lines(
        _read(sf_dir, "documents", ["doc_id", "text"]))


# --- data-mixture sampling and prefix blocking ------------------------------

def q_mixture_sample(sf_dir: str):
    """Deterministic data-mixture downsampling: per-source keep rates
    (1/2 for src0-1, 1/4 for src2-3, 1/8 otherwise) applied with the same
    multiplicative hash as q_sample — the mixture-reweighting pass a
    training-data pipeline runs before tokenization. Stateless map, no
    shuffle, bit-exact vs the CASE expression in SQL."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "lang"])

    def pick(t: pa.Table) -> pa.Table:
        h = knuth_hash32(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
        m = np.full(t.num_rows, 8, np.uint64)
        m[pc.is_in(t["source"], value_set=pa.array(["src0", "src1"]))
          .to_numpy(zero_copy_only=False)] = 2
        m[pc.is_in(t["source"], value_set=pa.array(["src2", "src3"]))
          .to_numpy(zero_copy_only=False)] = 4
        return t.filter(pa.array(h % m == 0))

    return ds.map_batches(pick, batch_format="pyarrow")


_TBM_BUDGET = 512   # bites at every sf (smallest per-source total ~1.4k)


def q_token_budget_mixture(sf_dir: str):
    """Token-BUDGET mixture sampling (the LLaMA/Pile-style data-recipe
    step: each source contributes ~_TBM_BUDGET tokens to the epoch, not
    a fixed doc rate): a doc is kept iff ``u * T_s < B << 32`` where u
    is the LOW word of doc_id * 2654435761 (the Weyl sequence — the
    equidistributed-in-[0,2^32) value a THRESHOLD test needs; the
    q_sample HIGH word is ~0.618*id, fine for ``% m`` decisions but
    never exceeding 0.618*max_id, and the low word's low-bit id
    structure is irrelevant here because a threshold compare is decided
    by the top bits), T_s the source's total whitespace-token count and
    B the budget — expected kept tokens per source == min(B, T_s),
    exact-deterministic, and sources under budget keep everything
    (u < 2^32 makes the inequality vacuous). The product overflows
    int64 at corpus scale, so the engine precomputes per-source
    ``thr = (B*2^32 - 1) // T_s`` with Python bigints (u*T < C  <=>
    u <= (C-1)//T) and ships a |sources|-bounded threshold map; the
    oracle replays the raw product in HUGEINT. One token-count scan with batch-local source partials
    -> |sources| groupby -> broadcast -> stateless keep map. n_tok
    rides along so downstream packing needs no re-scan."""
    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def tok_rows(t: pa.Table) -> pa.Table:
        row, _ = _split_words(t["text"])
        n_tok = np.bincount(row, minlength=t.num_rows).astype(np.int64)
        return pa.table({"doc_id": t["doc_id"], "source": t["source"],
                         "n_tok": pa.array(n_tok)})

    toks = ds.map_batches(tok_rows, batch_format="pyarrow").materialize()

    def src_partial(t: pa.Table) -> pa.Table:
        g = t["source"].to_pandas().to_numpy(dtype=object)
        codes, uniq = pd.factorize(g, sort=False)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, codes, t["n_tok"].to_numpy(zero_copy_only=False))
        return pa.table({"source": pa.array(uniq, pa.string()),
                         "ts": pa.array(s)})

    agg = toks.map_batches(src_partial, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("ts", alias_name="ts"))
    st = gather_capped(agg, 1_000_000,
                       pa.schema([("source", pa.string()),
                                  ("ts", pa.int64())]))
    assert st is not None, "source dimension outgrew the driver cap"
    C = (_TBM_BUDGET << 32) - 1
    thr = np.array([C // max(int(t), 1)
                    for t in st["ts"].to_pylist()], np.uint64)
    ref = ray.put((pd.Index(np.asarray(st["source"].to_pylist(),
                                       dtype=object)), thr))

    def keep(t: pa.Table) -> pa.Table:
        si, sthr = cached_get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) & np.uint64(0xFFFFFFFF)
        u = (ids * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        ix = si.get_indexer(t["source"].to_pandas().to_numpy(dtype=object))
        return t.filter(pa.array(u <= sthr[ix]))

    return toks.map_batches(keep, batch_format="pyarrow")


def q_curation_v2(sf_dir: str):
    """The round-5 webtext curation chain as ONE pipeline (session-4
    ops composed, the q_curation_e2e companion): (1)
    [[q_token_budget_mixture]] picks the epoch's docs per source
    budget; (2) the sampled subcorpus is cross-doc
    paragraph-deduplicated ([[q_paragraph_dedup]] — winners decided
    WITHIN the sample: the scrub-after-sampling order means the
    paragraph exchange touches ~B x |sources| tokens at 100 TB, not
    the corpus). The kept-doc semi-join runs the shared
    broadcast-below/exchange-above plan (stages/relational); output is
    the scrubbed text + per-doc kept/removed paragraph counts."""
    from ray_data_mplsh.stages.relational import semi_anti_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    kept = q_token_budget_mixture(sf_dir)
    # the sample is <= B x |sources| tokens BY CONSTRUCTION, so
    # materializing it (instead of re-reading + re-probing the corpus
    # for each of paragraph_dedup's two passes) and running the
    # paragraph exchange narrow are both scale-safe — the widths are a
    # function of the job's budget constant, not the cluster
    sub = semi_anti_join(docs, kept, left_on="doc_id",
                         right_on="doc_id").materialize()
    return paragraph_dedup(sub, num_partitions=8)


def q_prefix_dup_groups(sf_dir: str):
    """Exact-prefix dup blocking (op 23 variant): groups of docs sharing
    the same 40-char text prefix, with group size and representative
    (min doc_id) — the cheap exact blocking pass a web pipeline runs
    before MinHash. Text is ASCII in this corpus, so the codeunit slice
    equals SQL's character substr."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = ds.map_batches(
        lambda t: pa.table({
            "prefix": pc.utf8_slice_codeunits(t["text"], 0, 40),
            "doc_id": t["doc_id"]}),
        batch_format="pyarrow").groupby("prefix").aggregate(
            Count(alias_name="n_docs"), Min("doc_id", alias_name="rep"))
    return agg.map_batches(
        lambda t: pa.table({
            "prefix": t["prefix"],
            "n_docs": pc.cast(t["n_docs"], pa.int64()),
            "rep": pc.cast(t["rep"], pa.int64())}).filter(
                pc.greater_equal(t["n_docs"], 2)),
        batch_format="pyarrow")


# --- rollup, distinct-count, outer join, continuous quantiles --------------

def q_rollup_lang_source(sf_dir: str):
    """GROUP BY ROLLUP(lang, source): leaf counts plus per-lang subtotals
    and the grand total. The distributed groupby reduces the corpus to
    |langs|x|sources| rows; the subtotal rows are derived from that tiny
    result on the driver (legit: the rollup lattice is over group keys,
    not data rows). Bit-exact vs DuckDB ROLLUP."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "source"])
    leaf = ds.groupby(["lang", "source"]).aggregate(
        Count(alias_name="cnt")).to_pandas()
    if leaf.empty:  # empty groupby drops its schema; SQL ROLLUP still
        # emits the grand-total grouping set (one COUNT(*)=0 row)
        leaf = pd.DataFrame({"lang": pd.Series([], dtype=object),
                             "source": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype="int64")})
    leaf["cnt"] = leaf["cnt"].astype("int64")
    per_lang = leaf.groupby("lang", as_index=False)["cnt"].sum()
    per_lang["source"] = None
    total = pd.DataFrame({"lang": [None], "source": [None],
                          "cnt": [leaf["cnt"].sum()]})
    out = pd.concat([leaf, per_lang, total], ignore_index=True)
    out["lang"] = out["lang"].astype(object)
    out["source"] = out["source"].astype(object)
    out["cnt"] = out["cnt"].astype("int64")
    return out[["lang", "source", "cnt"]]


def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event type. Per-batch distinct
    (event_type, user_id) pairs (combiner) -> one user-keyed exchange
    where the global distinct is resolved exactly (a user's rows for a
    type all land in one partition) -> per-type partial counts -> tiny
    groupby sum."""
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read_sized(sf_dir, "events", ["event_type", "user_id"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "event_type": t["event_type"].to_pandas()}).drop_duplicates()
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "event_type": pa.array(df["event_type"].to_numpy(dtype=object),
                                   pa.string())})

    def count_part(part: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": part["user_id"].to_numpy(zero_copy_only=False),
            "event_type": part["event_type"].to_pandas()}).drop_duplicates()
        g = df.groupby("event_type").size()
        return pa.table({
            "event_type": pa.array(g.index.to_numpy(dtype=object),
                                   pa.string()),
            "partial": pa.array(g.to_numpy(np.int64))})

    parts = partition_apply(ds.map_batches(batch_distinct,
                                           batch_format="pyarrow"),
                            "user_id", count_part, default_partitions())
    agg = parts.groupby("event_type").aggregate(
        Sum("partial", alias_name="n_users"))
    return agg.map_batches(
        lambda t: pa.table({"event_type": t["event_type"],
                            "n_users": pc.cast(t["n_users"], pa.int64())}),
        batch_format="pyarrow")


def q_left_join_counts(sf_dir: str):
    """LEFT OUTER join: every customer with their order count and exact
    cents total, zeros for order-less customers. The fact side is
    pre-aggregated per batch (combiner) then globally, so the join input
    is bounded by |customers|; that small side is broadcast (ray.put
    once) into the customer scan — above broadcast size the key-routed
    exchange of stages/relational.semi_anti_join is the fallback plan."""
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.shuffle import broadcast_join

    orders = _read_sized(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        uk, inv = np.unique(ck, return_inverse=True)
        return pa.table({
            "o_custkey": pa.array(uk, pa.int64()),
            "pc_": pa.array(np.bincount(inv).astype(np.int64)),
            "pcents": pa.array(np.bincount(inv, weights=cents.astype(
                np.float64)).astype(np.int64))})

    agg = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(
            Sum("pc_", alias_name="n_orders"),
            Sum("pcents", alias_name="cents"))
    parts = list(agg.iter_batches(batch_size=65536,
                                  batch_format="pyarrow"))
    if parts:
        small = pa.concat_tables(parts)
        small = pa.table({
            "o_custkey": small["o_custkey"],
            "n_orders": pc.cast(small["n_orders"], pa.int64()),
            "cents": pc.cast(small["cents"], pa.int64())})
    else:  # no orders at all: every customer left-joins to zeros
        small = pa.table({"o_custkey": pa.array([], pa.int64()),
                          "n_orders": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = broadcast_join(cust, small, left_on="c_custkey",
                       right_on="o_custkey", join_type="left outer")
    return j.map_batches(
        lambda t: pa.table({
            "c_custkey": t["c_custkey"],
            "c_mktsegment": t["c_mktsegment"],
            "n_orders": pc.coalesce(pc.cast(t["n_orders"], pa.int64()), 0),
            "cents": pc.coalesce(pc.cast(t["cents"], pa.int64()), 0)}),
        batch_format="pyarrow")


def q_quantiles_cont(sf_dir: str):
    """Continuous (interpolated) percentiles of document length — the
    quantile_cont twin of q_quantiles, replaying DuckDB's two-weight
    interpolation in float64."""
    from ray_data_mplsh.pipelines.sketch import exact_quantiles_cont

    ds = _read(sf_dir, "documents", ["n_chars"])
    return exact_quantiles_cont(ds, "n_chars",
                                [0.25, 0.5, 0.75, 0.9, 0.99])


# --- end-to-end curation pipeline (quality -> dedup -> mixture -> tokens) --

def q_curation_e2e(sf_dir: str):
    """Flagship curation chain as ONE streaming pipeline — the composed
    pass a training-data run makes over raw text: (1) quality gate
    (n_chars >= 100 AND alpha ratio >= 0.55), (2) exact dedup keeping the
    min-doc_id representative per text (one text-hash-keyed exchange,
    exact in-partition grouping), (3) deterministic per-source mixture
    downsample (q_mixture_sample rates), (4) whitespace token count.
    Every stage is vectorized Arrow/numpy; the only shuffle is the dedup
    exchange. Bit-exact end-to-end vs the staged SQL CTE."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents",
               ["doc_id", "lang", "source", "text", "n_chars"])

    def gate(t: pa.Table) -> pa.Table:
        alpha = pc.utf8_length(pc.replace_substring_regex(
            t["text"], pattern="[^a-zA-Z]", replacement=""))
        nc = t["n_chars"].to_numpy(zero_copy_only=False)
        keep = pa.array(
            (nc >= 100)
            & (alpha.to_numpy(zero_copy_only=False).astype(np.float64)
               >= 0.55 * nc.astype(np.float64)))
        t = t.filter(keep)
        return t.append_column(
            "_th", pa.array(hash_str_array(t["text"]), pa.uint64()))

    def dedup_part(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, _ = pd.factorize(part["text"].to_pandas(), sort=False)
        o = np.lexsort((ids, codes))
        first = np.empty(len(o), bool)
        first[:1] = True
        first[1:] = codes[o][1:] != codes[o][:-1]
        return part.take(pa.array(o[first])).drop_columns(["_th"])

    def finish(t: pa.Table) -> pa.Table:
        h = knuth_hash32(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
        m = np.full(t.num_rows, 8, np.uint64)
        m[pc.is_in(t["source"], value_set=pa.array(["src0", "src1"]))
          .to_numpy(zero_copy_only=False)] = 2
        m[pc.is_in(t["source"], value_set=pa.array(["src2", "src3"]))
          .to_numpy(zero_copy_only=False)] = 4
        t = t.filter(pa.array(h % m == 0))
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(t["text"]),
                                      pattern=r"\s+")
        return pa.table({
            "doc_id": t["doc_id"], "lang": t["lang"],
            "source": t["source"],
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64())})

    gated = ds.map_batches(gate, batch_format="pyarrow")
    kept = partition_apply(gated, "_th", dedup_part, default_partitions())
    return kept.map_batches(finish, batch_format="pyarrow")


def q_full_outer_cust_supp(sf_dir: str):
    """FULL OUTER m:n join: every (customer, supplier) pair per shared
    nation, plus null-padded rows for nations present on one side only.
    One key-routed exchange of both inputs, vectorized per-partition
    cross-product expansion (stages/relational.full_outer_join)."""
    from ray_data_mplsh.stages.relational import full_outer_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    return full_outer_join(cust, supp, left_on="c_nationkey",
                           right_on="s_nationkey")


# --- ntile window ranking and exact distributed correlation ----------------

def q_ntile_doc_len(sf_dir: str):
    """NTILE(4) window ranking: quartile bucket per doc within its
    language, ordered by (n_chars DESC, doc_id) — the per-group length
    binning a curation pipeline uses for stratified policies. One
    lang-hash-keyed exchange (string langs are grouped exactly within
    the partition); ranks and DuckDB's NTILE fill rule (first n%k tiles
    get the extra row) are computed vectorized per run."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]) \
        .map_batches(
            lambda t: t.append_column(
                "_lh", pa.array(hash_str_array(t["lang"]), pa.uint64())),
            batch_format="pyarrow")
    k = 4

    def tiles(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nc = part["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lang, _ = pd.factorize(part["lang"].to_pandas(), sort=False)
        o = np.lexsort((ids, -nc, lang))
        lg = lang[o]
        new = np.concatenate(([True], lg[1:] != lg[:-1])) \
            if len(o) else np.empty(0, bool)
        run = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        cnt = np.diff(np.concatenate([starts, [len(o)]]))
        rk = np.arange(len(o), dtype=np.int64) - starts[run]
        n, rem = cnt[run] // k, cnt[run] % k
        big = rem * (n + 1)
        tile = np.where(rk < big, rk // np.maximum(n + 1, 1),
                        rem + (rk - big) // np.maximum(n, 1))
        out = np.empty(len(o), np.int64)
        out[o] = tile + 1  # NTILE is 1-based
        return pa.table({"doc_id": part["doc_id"], "lang": part["lang"],
                         "n_chars": part["n_chars"],
                         "tile": pa.array(out)})

    return partition_apply(ds, "_lh",
                           lambda p: tiles(p.drop_columns(["_lh"])),
                           default_partitions())


def q_corr_len_tokens(sf_dir: str):
    """EXACT distributed Pearson correlation of (n_chars, token count)
    per language: per-batch INTEGER moment partials (n, Sx, Sy, Sxx,
    Syy, Sxy — order-independent, so the distributed sum is exact) ->
    tiny groupby -> one float64 formula a/sqrt(b*c) evaluated identically
    in SQL from HUGEINT-cast sums. Magnitudes here stay far under 2^63;
    a 100 TB run promotes the accumulators to decimal128."""
    import math

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(t["text"]),
                                      pattern=r"\s+")
        y = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lang, uniq = pd.factorize(t["lang"].to_pandas(), sort=False)
        nl = len(uniq)

        def bc(v):
            return np.bincount(lang, weights=v.astype(np.float64),
                               minlength=nl).astype(np.int64)

        return pa.table({
            "lang": pa.array(uniq.to_numpy(dtype=object), pa.string()),
            "n": pa.array(np.bincount(lang, minlength=nl)
                          .astype(np.int64)),
            "sx": pa.array(bc(x)), "sy": pa.array(bc(y)),
            "sxx": pa.array(bc(x * x)), "syy": pa.array(bc(y * y)),
            "sxy": pa.array(bc(x * y))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("lang").aggregate(
            *[Sum(c, alias_name=c)
              for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]) \
        .to_pandas()
    out_l, out_n, out_c = [], [], []
    for _, r in agg.iterrows():
        n, sx, sy = int(r.n), int(r.sx), int(r.sy)
        a = n * int(r.sxy) - sx * sy
        den = (n * int(r.sxx) - sx * sx) * (n * int(r.syy) - sy * sy)
        out_l.append(r.lang)
        out_n.append(n)
        # zero variance (n=1 or a constant column): SQL corr() is NULL
        out_c.append(float(a) / math.sqrt(float(den)) if den > 0 else None)
    return pd.DataFrame({"lang": pd.Series(out_l, dtype=object),
                         "n": pd.Series(out_n, dtype="int64"),
                         "corr": pd.Series(out_c, dtype="float64")})


# --- normalization dedup, regression, time-dim profile ---------------------

def q_normalized_dedup(sf_dir: str):
    """Case/punctuation-insensitive exact dedup — the normalization pass
    web pipelines run before near-dup (two docs differing only in case
    or punctuation are the same doc): group by
    lower(strip non-alnum) text, emit the min-doc_id rep and group size.
    One norm-hash-routed exchange; grouping inside the partition is on
    the EXACT normalized string (hash only co-locates)."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pa.Table) -> pa.Table:
        nt = pc.utf8_lower(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z0-9 ]", replacement=""))
        return pa.table({
            "doc_id": b["doc_id"], "norm": nt,
            "_nh": pa.array(hash_str_array(nt), pa.uint64())})

    def keep(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, _ = pd.factorize(part["norm"].to_pandas(), sort=False)
        o = np.lexsort((ids, codes))
        c = codes[o]
        first = np.concatenate(([True], c[1:] != c[:-1])) \
            if len(o) else np.empty(0, bool)
        starts = np.flatnonzero(first)
        cnt = np.diff(np.concatenate([starts, [len(o)]]))
        return pa.table({
            "rep": pa.array(ids[o][starts], pa.int64()),
            "n_docs": pa.array(cnt.astype(np.int64))})

    return partition_apply(ds.map_batches(norm, batch_format="pyarrow"),
                           "_nh", keep, default_partitions())


def q_regression_len_tokens(sf_dir: str):
    """Per-language least-squares fit n_tokens ~ a + b*n_chars from the
    SAME order-independent integer moment partials as q_corr_len_tokens;
    slope and intercept formulas are replayed from HUGEINT sums in the
    oracle, so both doubles are bit-exact."""
    import math

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(t["text"]),
                                      pattern=r"\s+")
        y = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lang, uniq = pd.factorize(t["lang"].to_pandas(), sort=False)
        nl = len(uniq)

        def bc(v):
            return np.bincount(lang, weights=v.astype(np.float64),
                               minlength=nl).astype(np.int64)

        return pa.table({
            "lang": pa.array(uniq.to_numpy(dtype=object), pa.string()),
            "n": pa.array(np.bincount(lang, minlength=nl)
                          .astype(np.int64)),
            "sx": pa.array(bc(x)), "sy": pa.array(bc(y)),
            "sxx": pa.array(bc(x * x)), "sxy": pa.array(bc(x * y))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("lang").aggregate(
            *[Sum(c, alias_name=c)
              for c in ("n", "sx", "sy", "sxx", "sxy")]).to_pandas()
    rows = []
    for _, r in agg.iterrows():
        n, sx, sy = int(r.n), int(r.sx), int(r.sy)
        den = n * int(r.sxx) - sx * sx
        if den == 0:  # n=1 or constant x: SQL's x/0 division is NULL
            rows.append((r.lang, n, None, None))
            continue
        slope = float(n * int(r.sxy) - sx * sy) / float(den)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        rows.append((r.lang, n, slope, intercept))
    return pd.DataFrame(rows, columns=["lang", "n", "slope", "intercept"]) \
        .astype({"lang": object, "n": "int64",
                 "slope": "float64", "intercept": "float64"})


def q_events_hourly(sf_dir: str):
    """Hour-of-day x ISO-day-of-week activity profile with exact cents
    totals — the time-dimension rollup (Arrow temporal kernels per
    batch; combiner shrinks each block to <= 168 rows)."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        hr = pc.hour(t["ts"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dw = pc.day_of_week(t["ts"], count_from_zero=False,
                            week_start=1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        key = dw * 24 + hr
        uk, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "isodow": pa.array(uk // 24, pa.int64()),
            "hour": pa.array(uk % 24, pa.int64()),
            "cnt": pa.array(np.bincount(inv).astype(np.int64)),
            "cents": pa.array(np.bincount(
                inv, weights=cents.astype(np.float64)).astype(np.int64))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["isodow", "hour"]).aggregate(
            Sum("cnt", alias_name="cnt"), Sum("cents", alias_name="cents"))
    return agg.map_batches(
        lambda t: pa.table({
            "isodow": t["isodow"], "hour": t["hour"],
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "cents": pc.cast(t["cents"], pa.int64())}),
        batch_format="pyarrow")


# --- dedup diagnostics and funnel -----------------------------------------

def q_dup_cluster_sizes(sf_dir: str):
    """Exact-dup cluster-size histogram — the dedup diagnostic that says
    how much of the corpus is copies: group docs by exact text (one
    text-hash-routed exchange, exact grouping in partition), then count
    groups per size (tiny second groupby)."""
    from ray.data.aggregate import Count

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_th", pa.array(hash_str_array(b["text"]), pa.uint64()))

    def sizes(part: pa.Table) -> pa.Table:
        codes, _ = pd.factorize(part["text"].to_pandas(), sort=False)
        return pa.table({"size": pa.array(
            np.bincount(codes).astype(np.int64))})

    parts = partition_apply(ds.map_batches(add_hash,
                                           batch_format="pyarrow"),
                            "_th", sizes, default_partitions())
    agg = parts.groupby("size").aggregate(Count(alias_name="n_clusters"))
    return agg.map_batches(
        lambda t: pa.table({
            "size": t["size"],
            "n_clusters": pc.cast(t["n_clusters"], pa.int64())}),
        batch_format="pyarrow")


def q_shingle_stats(sf_dir: str):
    """Per-doc distinct 5-word-shingle count straight from the flagship
    shingle-set builder (stateless map, no shuffle) — pins the S3-input
    kernel to a SQL oracle (hashed-shingle distinct == string distinct
    absent 64-bit collisions, the engine's standing assumption)."""
    from ray_data_mplsh.config import MPLSHConfig
    from ray_data_mplsh.pipelines.ngram import shingle_sets_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    k = MPLSHConfig().k_shingle

    def stats(b: pa.Table) -> pa.Table:
        sets = shingle_sets_batch(b, k)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_shingles": pa.array(
                np.fromiter((len(s) for s in sets), np.int64,
                            len(sets)))})

    return ds.map_batches(stats, batch_format="pyarrow")


def q_funnel_view_purchase(sf_dir: str):
    """Funnel: users whose first 'view' precedes their last 'purchase'.
    Per-batch sentinel min/max partials in integer microseconds
    (combiner) -> one tiny groupby -> filter; no per-user state."""
    from ray.data.aggregate import Max, Min

    ds = _read_sized(sf_dir, "events", ["user_id", "ts", "event_type"])
    HI, LO = np.int64(2**62), np.int64(-2**62)

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        isv = pc.equal(t["event_type"], "view") \
            .to_numpy(zero_copy_only=False)
        isp = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False)
        uu, inv = np.unique(uid, return_inverse=True)
        minv = np.full(len(uu), HI)
        np.minimum.at(minv, inv[isv], ts[isv])
        maxp = np.full(len(uu), LO)
        np.maximum.at(maxp, inv[isp], ts[isp])
        return pa.table({"user_id": pa.array(uu, pa.int64()),
                         "min_view": pa.array(minv, pa.int64()),
                         "max_purchase": pa.array(maxp, pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("user_id").aggregate(
            Min("min_view", alias_name="min_view"),
            Max("max_purchase", alias_name="max_purchase"))
    return agg.map_batches(
        lambda t: pa.table({"user_id": t["user_id"]}).filter(
            pc.less(pc.cast(t["min_view"], pa.int64()),
                    pc.cast(t["max_purchase"], pa.int64()))),
        batch_format="pyarrow")


def q_click_heavy_users(sf_dir: str):
    """Behavioral set comparison: users with strictly more clicks than
    purchases, with both counts. Per-batch per-user bincount partials ->
    tiny groupby sum -> filter; integers end-to-end."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        out = {"user_id": pa.array(uu, pa.int64())}
        for name in ("click", "purchase"):
            w = pc.equal(t["event_type"], name) \
                .to_numpy(zero_copy_only=False).astype(np.float64)
            out["n_" + name] = pa.array(np.bincount(
                inv, weights=w, minlength=len(uu)).astype(np.int64))
        return pa.table(out)

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("user_id").aggregate(
            Sum("n_click", alias_name="n_click"),
            Sum("n_purchase", alias_name="n_purchase"))
    return agg.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"],
            "n_click": pc.cast(t["n_click"], pa.int64()),
            "n_purchase": pc.cast(t["n_purchase"], pa.int64())}).filter(
                pc.greater(pc.cast(t["n_click"], pa.int64()),
                           pc.cast(t["n_purchase"], pa.int64()))),
        batch_format="pyarrow")


def q_mode_event_type(sf_dir: str):
    """Per-group MODE with deterministic tie-break: each user's most
    frequent event_type (ties -> lexicographically smallest type). Batch
    partials count (user, type) pairs with batch-LOCAL type codes (no
    global dictionary needed; strings are re-emitted per partial), one
    two-key groupby merges them, and the per-user argmax is a vectorized
    rank-in-run over a user-keyed exchange — bit-exact vs ROW_NUMBER()."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        types, code = np.unique(et, return_inverse=True)
        k = max(len(types), 1)
        key = uid * np.int64(k) + code.astype(np.int64)
        uk, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "user_id": pa.array(uk // k, pa.int64()),
            "event_type": pa.array(types[(uk % k).astype(np.int64)]),
            "n": pa.array(np.bincount(inv).astype(np.int64))})

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["user_id", "event_type"]).aggregate(
            Sum("n", alias_name="cnt"))

    def pick(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = part["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = np.asarray(part["event_type"].to_pylist(), dtype=object)
        _, ecode = np.unique(et, return_inverse=True)  # lexicographic codes
        o = np.lexsort((ecode, -cnt, uid))
        first = np.concatenate(([True], uid[o][1:] != uid[o][:-1]))
        sel = o[first]
        return pa.table({"user_id": pa.array(uid[sel], pa.int64()),
                         "mode_type": pa.array(et[sel]),
                         "cnt": pa.array(cnt[sel], pa.int64())})

    return partition_apply(counts, "user_id", pick, default_partitions())


def _purchase_error_user_days(sf_dir: str):
    """Shared plan for the set-op queries: distinct (user, day) pairs with
    purchase/error presence flags. The day is carried as an int ordinal so
    the per-batch partial is one composite-int np.unique (no string keys
    in the exchange); strftime renders it only on the tiny final table."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["ts", "user_id", "event_type"])
    US_PER_DAY = np.int64(86_400_000_000)

    def flags(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["purchase", "error"]))
        t = t.filter(keep)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = t["ts"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // US_PER_DAY
        isp = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False).astype(np.float64)
        key = uid * np.int64(1 << 20) + day  # day ordinal < 2^20 (~4800 AD)
        uk, inv = np.unique(key, return_inverse=True)
        np_ = np.bincount(inv, weights=isp, minlength=len(uk))
        ne = np.bincount(inv, weights=1.0 - isp, minlength=len(uk))
        return pa.table({"k": pa.array(uk, pa.int64()),
                         "np_": pa.array(np_.astype(np.int64)),
                         "ne": pa.array(ne.astype(np.int64))})

    agg = ds.map_batches(flags, batch_format="pyarrow") \
        .groupby("k").aggregate(Sum("np_", alias_name="np_"),
                                Sum("ne", alias_name="ne"))

    def render(t: pa.Table, mask) -> pa.Table:
        t = t.filter(mask)
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = pa.array((k % np.int64(1 << 20)) * US_PER_DAY) \
            .cast(pa.timestamp("us"))
        return pa.table({"user_id": pa.array(k >> np.int64(20), pa.int64()),
                         "d": pc.strftime(ts, format="%Y-%m-%d")})

    return agg, render


def q_user_days_purchase_no_error(sf_dir: str):
    """Distributed EXCEPT: distinct (user, day) pairs that saw a purchase
    but no error — presence flags from one int-keyed groupby, no
    pair-vs-pair anti join. Bit-exact vs SQL EXCEPT."""
    agg, render = _purchase_error_user_days(sf_dir)
    return agg.map_batches(
        lambda t: render(t, pc.and_(pc.greater(t["np_"], 0),
                                    pc.equal(t["ne"], 0))),
        batch_format="pyarrow")


def q_user_days_purchase_and_error(sf_dir: str):
    """Distributed INTERSECT: distinct (user, day) pairs with BOTH a
    purchase and an error — same single-exchange presence-flag plan as
    [[q_user_days_purchase_no_error]]. Bit-exact vs SQL INTERSECT."""
    agg, render = _purchase_error_user_days(sf_dir)
    return agg.map_batches(
        lambda t: render(t, pc.and_(pc.greater(t["np_"], 0),
                                    pc.greater(t["ne"], 0))),
        batch_format="pyarrow")


def q_len_histogram(sf_dir: str):
    """Fixed-width histogram of document length (width_bucket family):
    per-batch bincount partials -> one tiny groupby over <=12 bins. The
    exchange carries |bins| rows per batch, never doc rows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        nc = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (nc // 50) * 50
        ub, inv = np.unique(b, return_inverse=True)
        return pa.table({"bin_lo": pa.array(ub, pa.int64()),
                         "cnt": pa.array(np.bincount(inv).astype(np.int64))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bin_lo").aggregate(Sum("cnt", alias_name="cnt"))
    return agg.map_batches(
        lambda t: pa.table({"bin_lo": t["bin_lo"],
                            "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow")


def q_weighted_sample(sf_dir: str):
    """Deterministic WEIGHTED Bernoulli sample: inclusion probability
    proportional to n_chars (p = n_chars/1000), decided by the same
    SQL-replayable multiplicative hash as q_sample — integer compare, so
    bit-exact vs the oracle and reproducible across engines/runs. Pure
    map-side filter: no exchange, no broadcast state."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def pick(t: pa.Table) -> pa.Table:
        h = knuth_hash32(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
        w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.filter(pa.array(h % np.uint64(1000) < w))

    return ds.map_batches(pick, batch_format="pyarrow")


def q_lang_sources_agg(sf_dir: str):
    """Ordered-set string aggregation: per language, the sorted distinct
    sources joined with ','. Per-batch Arrow group_by dedup bounds the
    exchange at |langs|x|sources| rows per batch; the join itself runs
    inside a lang-keyed partition (output rows = |langs|). Bit-exact vs
    string_agg(DISTINCT ... ORDER BY)."""
    ds = _read(sf_dir, "documents", ["lang", "source"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        d = t.group_by(["lang", "source"]).aggregate([])
        return d.append_column(
            "lang_h", pa.array(hash_str_array(d["lang"]), pa.uint64()))

    def agg_part(part: pa.Table) -> pa.Table:
        lang = np.asarray(part["lang"].to_pylist(), dtype=object)
        src = np.asarray(part["source"].to_pylist(), dtype=object)
        ul, linv = np.unique(lang, return_inverse=True)
        o = np.lexsort((src, linv))
        li, s = linv[o], src[o]
        # drop cross-batch duplicate (lang, source) pairs (adjacent now)
        keep = np.concatenate(([True],
                               (li[1:] != li[:-1]) | (s[1:] != s[:-1])))
        li, s = li[keep], s[keep]
        starts = np.flatnonzero(
            np.concatenate(([True], li[1:] != li[:-1])))
        ends = np.append(starts[1:], len(li))
        joined = [",".join(s[a:b]) for a, b in zip(starts, ends)]
        return pa.table({"lang": pa.array(ul[li[starts]]),
                         "sources": pa.array(joined, pa.string())})

    keyed = ds.map_batches(batch_distinct, batch_format="pyarrow")
    return partition_apply(keyed, "lang_h", agg_part, default_partitions())


def q_tpch_q3(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q3 shape (segment-filtered 3-table join, grouped revenue,
    top-10): zero-shuffle join plan — the customer side reduces to a
    sorted key array, the filtered orders side to a small table, both
    ray.put ONCE and probed map-side in the lineitem scan (the fact table
    never leaves its partitions before the |orders|-bounded groupby).
    Revenue is exact: cents x (100 - disc_pct) integer partials, one
    float division replayed in SQL. The orders-side gather is CAPPED at
    ``broadcast_max_rows`` (shuffle.gather_capped): above it, the plan
    flips to the keyed exchange — lineitem is semi-joined to the filtered
    orders keys (stages/relational.semi_anti_join, which applies its own
    broadcast/shuffle flip to the key set), the per-order revenue partials
    ride one |orders|-bounded groupby, and the order attributes attach via
    stages/relational.inner_join (hot-key detection off: both sides are
    unique per orderkey, a 1:1 join cannot have a hot key). Path
    equivalence is force-tested with broadcast_max_rows=0
    (tests/test_relational.py). Tie-break on l_orderkey makes the LIMIT
    set deterministic in both engines."""
    import ray
    from ray.data.aggregate import Sum

    CUT = int(pd.Timestamp("1998-06-01").value // 1000)  # epoch us

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ck = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
                   .select(["c_custkey"]), batch_format="pyarrow")
    # dimension-side gather is CAPPED too (VERDICT r4 #2): the segment's
    # customer slice is SF-proportional (~0.75M rows/SF x 1/5), so at true
    # web scale it is not driver-sized — above the cap the custkey filter
    # flips to the distributed semi-join (which applies its own
    # broadcast/exchange flip to the distinct-key set).
    ck_tbl = gather_capped(ck, broadcast_max_rows,
                           pa.schema([("c_custkey", pa.int64())]))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_orderpriority"])
    o_schema = pa.schema(
        [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
         ("o_orderpriority", pa.string())])

    if ck_tbl is not None:
        ckeys = np.sort(ck_tbl["c_custkey"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
        ckeys_ref = ray.put(ckeys)

        def ofilt(t: pa.Table) -> pa.Table:
            keys = ray.get(ckeys_ref)
            od = t["o_orderdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            oc = t["o_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            m = (od < CUT) & np.isin(oc, keys)
            return t.filter(pa.array(m)).select(
                ["o_orderkey", "o_orderdate", "o_orderpriority"])

        o_ds = orders.map_batches(ofilt, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import semi_anti_join

        def odate(t: pa.Table) -> pa.Table:
            od = t["o_orderdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            return t.filter(pa.array(od < CUT))

        o_ds = semi_anti_join(
            orders.map_batches(odate, batch_format="pyarrow"), ck,
            left_on="o_custkey", right_on="c_custkey",
            broadcast_max_keys=broadcast_max_rows).map_batches(
                lambda t: t.select(["o_orderkey", "o_orderdate",
                                    "o_orderpriority"]),
                batch_format="pyarrow")
    o_tbl = gather_capped(o_ds, broadcast_max_rows, o_schema)

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def lpart(t: pa.Table, okeys_ref=None) -> pa.Table:
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = sd > CUT
        if okeys_ref is not None:
            m &= np.isin(ok, ray.get(okeys_ref))
        ok = ok[m]
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        uo, inv = np.unique(ok, return_inverse=True)
        rev = np.zeros(len(uo), np.int64)
        np.add.at(rev, inv, ep * (100 - dc))  # int64-exact partials
        return pa.table({"l_orderkey": pa.array(uo, pa.int64()),
                         "rev_micro": pa.array(rev)})

    if o_tbl is not None:
        # broadcast plan: filtered orders were driver-sized
        okeys = np.sort(o_tbl["o_orderkey"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
        okeys_ref = ray.put(okeys)
        agg = li.map_batches(
            lambda t: lpart(t, okeys_ref), batch_format="pyarrow") \
            .groupby("l_orderkey").aggregate(Sum("rev_micro",
                                                 alias_name="rev_micro"))
        joined = broadcast_join(agg, o_tbl, left_on="l_orderkey",
                                right_on="o_orderkey")
    else:
        # keyed-exchange fallback: the filtered orders side overflowed
        # the broadcast cap. Materialize it once (object-store-bounded,
        # spillable — NOT driver memory) so the semi-join key pass and
        # the attach join don't re-run the orders scan twice more.
        from ray_data_mplsh.stages.relational import (inner_join,
                                                      semi_anti_join)

        o_big = o_ds.materialize()
        li_f = semi_anti_join(li, o_big, left_on="l_orderkey",
                              right_on="o_orderkey")
        agg = li_f.map_batches(lpart, batch_format="pyarrow") \
            .groupby("l_orderkey").aggregate(Sum("rev_micro",
                                                 alias_name="rev_micro"))
        joined = inner_join(agg, o_big, left_on="l_orderkey",
                            right_on="o_orderkey", hot_key_threshold=0)

    def finish(t: pa.Table) -> pa.Table:
        rev = pc.cast(t["rev_micro"], pa.int64())
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "revenue": pc.divide(pc.cast(rev, pa.float64()), 10000.0),
            "o_orderdate": t["o_orderdate"],
            "o_orderpriority": t["o_orderpriority"]})

    return joined.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "l_orderkey"], descending=[True, False]) \
        .limit(10)


class _PatternScanner:
    """Text-pattern scan stage (registry/setup once per worker process in
    __init__, vectorized work per batch in __call__ — the slot where a
    PII model or a big compiled automaton would live). Counting uses
    Arrow's RE2 kernel, the same engine DuckDB uses, so the counts are
    oracle-exact."""

    PATTERNS = {"n_long_words": "[a-z]{6,}", "n_vowel_runs": "[aeiou]{2,}"}

    def __init__(self):
        self.patterns = dict(self.PATTERNS)  # per-actor registry

    def __call__(self, t: pa.Table) -> pa.Table:
        out = {"doc_id": t["doc_id"]}
        for name, pat in self.patterns.items():
            out[name] = pc.cast(
                pc.count_substring_regex(t["text"], pattern=pat),
                pa.int64())
        return pa.table(out)


def q_pattern_counts(sf_dir: str):
    """Per-doc regex pattern counts — map-side only, no exchange; see
    _PatternScanner. Plain tasks with the scanner memoized per worker
    process (``shuffle.task_local``): an actor pool holds its CPUs
    between batches, and on a 1-CPU cluster its one actor starved the
    upstream read task forever."""
    from ray_data_mplsh.stages.shuffle import task_local

    def scan(t: pa.Table) -> pa.Table:
        return task_local("pattern_scanner", _PatternScanner)(t)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(scan, batch_format="pyarrow")


def q_user_activity_histogram(sf_dir: str):
    """Key-skew profiler: the count-of-counts histogram of events per
    user — the diagnostic that sizes hot keys BEFORE a user-keyed
    exchange. Per-batch per-user partials -> |users|-bounded groupby ->
    |distinct activity levels|-bounded second reduce."""
    from ray.data.aggregate import Count, Sum

    ds = _read_sized(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        return pa.table({"user_id": pa.array(uu, pa.int64()),
                         "n": pa.array(np.bincount(inv).astype(np.int64))})

    per_user = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("user_id").aggregate(Sum("n", alias_name="n_events"))
    agg = per_user.map_batches(
        lambda t: pa.table({"n_events": pc.cast(t["n_events"],
                                                pa.int64())}),
        batch_format="pyarrow") \
        .groupby("n_events").aggregate(Count(alias_name="n_users"))
    return agg.map_batches(
        lambda t: pa.table({"n_events": t["n_events"],
                            "n_users": pc.cast(t["n_users"], pa.int64())}),
        batch_format="pyarrow")


def q_global_rank_len(sf_dir: str):
    """GLOBAL window ranking WITHOUT a global sort: RANK() over all docs
    by n_chars = (# strictly smaller values) + 1, answered from the
    value-count CDF (the q_quantiles combiner) broadcast to a map-side
    searchsorted — one tiny exchange over |distinct lengths| rows, data
    rows never move."""
    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def vc(t: pa.Table) -> pa.Table:
        vals, cnts = np.unique(
            t["n_chars"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"v": pa.array(vals, pa.int64()),
                         "c": pa.array(cnts, pa.int64())})

    agg = ds.map_batches(vc, batch_format="pyarrow") \
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    vs, cs = [], []
    for b in agg.iter_batches(batch_size=65536, batch_format="pyarrow"):
        vs.append(b["v"].to_numpy(zero_copy_only=False).astype(np.int64))
        cs.append(b["c"].to_numpy(zero_copy_only=False).astype(np.int64))
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    c = np.concatenate(cs) if cs else np.empty(0, np.int64)
    o = np.argsort(v, kind="stable")
    v, c = v[o], c[o]
    below = np.concatenate(([0], np.cumsum(c)))[:-1]  # strictly-smaller
    ref = ray.put((v, below))

    def rank(t: pa.Table) -> pa.Table:
        vv, bb = ray.get(ref)
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = bb[np.searchsorted(vv, x)] + 1
        return pa.table({"doc_id": t["doc_id"], "n_chars": t["n_chars"],
                         "rnk": pa.array(r, pa.int64())})

    return ds.map_batches(rank, batch_format="pyarrow")


def q_kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table (iterative
    algorithm family — see pipelines/kmeans.py): returns per-cluster
    sizes. Rows-only (no SQL twin for iterative refinement); pinned
    against a single-process numpy reference in tests/test_kmeans.py."""
    import ray.data

    from ray_data_mplsh.pipelines.kmeans import kmeans

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    n_vecs = ds.count()
    if n_vecs == 0:  # no vectors -> no clusters (init needs k rows)
        return pa.table({"cluster": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    _, _, _, counts = kmeans(ds, k=min(8, n_vecs), iters=5)
    return pa.table({"cluster": pa.array(np.arange(len(counts),
                                                   dtype=np.int64)),
                     "n": pa.array(counts, pa.int64())})


def q_late_shipments(sf_dir: str):
    """TPC-H Q12 shape on two LARGE sides: lineitem INNER JOIN orders via
    the keyed-exchange m:n join (stages/relational.inner_join — the
    honest fact-fact all-to-all, no broadcast), then late-shipment
    (shipdate > orderdate + 365d, exact epoch-us integer compare) counts
    per order priority with batch partials bounding the final exchange
    at |priorities| rows."""
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.relational import inner_join

    YEAR_US = np.int64(365) * 86_400_000_000
    orders = _read_sized(sf_dir, "orders",
                         ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read_sized(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    j = inner_join(li, orders, left_on="l_orderkey",
                   right_on="o_orderkey")

    def partial(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        od = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        late = (sd > od + YEAR_US).astype(np.float64)
        p = np.asarray(t["o_orderpriority"].to_pylist(), dtype=object)
        up, inv = np.unique(p, return_inverse=True)
        return pa.table({
            "o_orderpriority": pa.array(up),
            "late_cnt": pa.array(np.bincount(
                inv, weights=late).astype(np.int64)),
            "cnt": pa.array(np.bincount(inv).astype(np.int64))})

    agg = j.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_orderpriority").aggregate(
            Sum("late_cnt", alias_name="late_cnt"),
            Sum("cnt", alias_name="cnt"))
    return agg.map_batches(
        lambda t: pa.table({"o_orderpriority": t["o_orderpriority"],
                            "late_cnt": pc.cast(t["late_cnt"], pa.int64()),
                            "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow")


def q_profile_events(sf_dir: str):
    """Data-profiling operator: per-column null count + row count over
    the events table in ONE streaming pass — the schema-health report a
    curation pipeline runs before anything else. Per-batch partials are
    |columns| rows; the exchange never carries data rows."""
    from ray.data.aggregate import Sum

    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    ds = _read_sized(sf_dir, "events", cols)

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "col": pa.array(cols, pa.string()),
            "n_null": pa.array([t[c].null_count for c in cols], pa.int64()),
            "cnt": pa.array([t.num_rows] * len(cols), pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("col").aggregate(Sum("n_null", alias_name="n_null"),
                                  Sum("cnt", alias_name="cnt"))
    return agg.map_batches(
        lambda t: pa.table({"col": t["col"],
                            "n_null": pc.cast(t["n_null"], pa.int64()),
                            "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow")


def q_unpivot_event_metrics(sf_dir: str):
    """UNPIVOT/melt: wide numeric columns -> long (metric, v) rows, built
    as two pruned map-side projections composed with Dataset.union — a
    stateless width change, no exchange at any scale."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def proj(col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "event_id": t["event_id"],
                "metric": pa.array([col] * t.num_rows, pa.string()),
                "v": pc.cast(t[col], pa.float64())})
        return fn

    a = ds.map_batches(proj("value"), batch_format="pyarrow")
    b = ds.map_batches(proj("user_id"), batch_format="pyarrow")
    return a.union(b)


def q_dup_rate_by_source(sf_dir: str):
    """Dedup ATTRIBUTION report: per source, how many docs are exact-text
    copies (non-min doc_id in their text group) and the dup rate. One
    text-hash exchange with exact in-partition grouping (same spine as
    q_dup_cluster_sizes); per-partition partials bound the second
    exchange at |sources| rows; the rate is one float division replayed
    identically in SQL."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def add_hash(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_th", pa.array(hash_str_array(b["text"]), pa.uint64()))

    def mark(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "dup_cnt": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        codes, _ = pd.factorize(part["text"].to_pandas(), sort=False)
        did = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gmin = np.full(int(codes.max()) + 1, np.iinfo(np.int64).max,
                       np.int64)
        np.minimum.at(gmin, codes, did)
        is_dup = (did != gmin[codes]).astype(np.float64)
        s = np.asarray(part["source"].to_pylist(), dtype=object)
        us, inv = np.unique(s, return_inverse=True)
        return pa.table({
            "source": pa.array(us),
            "dup_cnt": pa.array(np.bincount(
                inv, weights=is_dup).astype(np.int64)),
            "cnt": pa.array(np.bincount(inv).astype(np.int64))})

    parts = partition_apply(ds.map_batches(add_hash,
                                           batch_format="pyarrow"),
                            "_th", mark, default_partitions())
    agg = parts.groupby("source").aggregate(
        Sum("dup_cnt", alias_name="dup_cnt"), Sum("cnt", alias_name="cnt"))
    return agg.map_batches(
        lambda t: pa.table({
            "source": t["source"],
            "dup_cnt": pc.cast(t["dup_cnt"], pa.int64()),
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "dup_rate": pc.divide(
                pc.cast(t["dup_cnt"], pa.float64()),
                pc.cast(pc.cast(t["cnt"], pa.int64()), pa.float64()))}),
        batch_format="pyarrow")


def q_moving_sum_daily(sf_dir: str):
    """Bounded-frame window aggregate: 3-day ROWS moving sum of event
    value per type. Daily totals reduce distributed (integer cents, like
    q_events_daily); the sliding frame is a cumsum difference inside a
    type-keyed partition — no per-row loop, one exchange after the
    |types|x|days|-bounded daily reduce."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["ts", "event_type", "value"])

    def add_day(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "d": pc.strftime(t["ts"], format="%Y-%m-%d"),
                         "cents": cents})

    daily = ds.map_batches(add_day, batch_format="pyarrow") \
        .groupby(["event_type", "d"]).aggregate(Sum("cents",
                                                    alias_name="cents"))

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column("et_h", pa.array(
            hash_str_array(t["event_type"]), pa.uint64()))

    def window(part: pa.Table) -> pa.Table:
        et = np.asarray(part["event_type"].to_pylist(), dtype=object)
        d = np.asarray(part["d"].to_pylist(), dtype=object)
        cents = part["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, einv = np.unique(et, return_inverse=True)
        o = np.lexsort((d, einv))  # ISO day strings sort chronologically
        ei, cs = einv[o], cents[o]
        cum = np.cumsum(cs)
        starts = np.flatnonzero(np.concatenate(([True], ei[1:] != ei[:-1])))
        run_id = (np.cumsum(np.concatenate(([True],
                                            ei[1:] != ei[:-1]))) - 1)
        pos = np.arange(len(ei)) - starts[run_id]
        back = np.minimum(pos, 2)  # ROWS BETWEEN 2 PRECEDING AND CURRENT:
        lo = np.arange(len(ei)) - back  # clamping at the run start keeps
        mov = cum - np.where(lo > 0, cum[lo - 1], 0)  # frames in-run
        return pa.table({"event_type": pa.array(et[o]),
                         "d": pa.array(d[o]),
                         "mov3": pa.array(mov.astype(np.float64) / 100.0)})

    keyed_ds = daily.map_batches(keyed, batch_format="pyarrow")
    return partition_apply(keyed_ds, "et_h", window, default_partitions())


def q_moving_sum_range(sf_dir: str):
    """TIME-based (RANGE) window frame — distinct semantics from the
    ROWS frame of [[q_moving_sum_daily]]: per type, the sum over days in
    [d-2, d] that EXIST, found by a searchsorted over the run's day
    ordinals (gaps shrink the frame instead of reaching further back).
    Same distributed integer-cents daily reduce; the frame is two
    vectorized searchsorteds per type run."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events", ["ts", "event_type", "value"])
    US_PER_DAY = np.int64(86_400_000_000)

    def add_day(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100)), pa.int64())
        day = t["ts"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // US_PER_DAY
        return pa.table({"event_type": t["event_type"],
                         "day": pa.array(day, pa.int64()),
                         "cents": cents})

    daily = ds.map_batches(add_day, batch_format="pyarrow") \
        .groupby(["event_type", "day"]).aggregate(
            Sum("cents", alias_name="cents"))

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column("et_h", pa.array(
            hash_str_array(t["event_type"]), pa.uint64()))

    def window(part: pa.Table) -> pa.Table:
        et = np.asarray(part["event_type"].to_pylist(), dtype=object)
        day = part["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = part["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, einv = np.unique(et, return_inverse=True)
        o = np.lexsort((day, einv))
        ei, dy, cs = einv[o], day[o], cents[o]
        cum = np.concatenate(([0], np.cumsum(cs)))
        starts = np.flatnonzero(np.concatenate(([True], ei[1:] != ei[:-1])))
        run_id = np.cumsum(np.concatenate(([True],
                                           ei[1:] != ei[:-1]))) - 1
        # frame start: first in-run index with day >= d-2 (days are
        # sorted within a run; offset the searchsorted into the run)
        lo = np.empty(len(ei), np.int64)
        ends = np.append(starts[1:], len(ei))
        for s, e in zip(starts, ends):       # loop over TYPE RUNS
            lo[s:e] = s + np.searchsorted(dy[s:e], dy[s:e] - 2, side="left")
        mov = cum[np.arange(1, len(ei) + 1)] - cum[lo]
        ts = pa.array(dy * np.int64(86_400_000_000)).cast(
            pa.timestamp("us"))
        return pa.table({"event_type": pa.array(et[o]),
                         "d": pc.strftime(ts, format="%Y-%m-%d"),
                         "mov3d": pa.array(mov.astype(np.float64) / 100.0)})

    keyed_ds = daily.map_batches(keyed, batch_format="pyarrow")
    return partition_apply(keyed_ds, "et_h", window, default_partitions())


def _sorted_events_partition(part: pa.Table):
    """(order, uid, run-start mask) for per-user sequences ordered by
    (ts, event_id) — the shared spine of the sequence-analytics ops."""
    uid = part["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = part["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    eid = part["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.lexsort((eid, ts, uid))
    uo = uid[o]
    first = np.concatenate(([True], uo[1:] != uo[:-1]))
    return o, uo, first


def q_event_transitions(sf_dir: str):
    """Markov transition counts: (prev event_type -> next) per-user
    adjacent pairs ordered by (ts, event_id). One user-keyed exchange;
    the shift is vectorized over sorted runs; partial (prev, next, n)
    counts merge in a |types|^2-bounded groupby."""
    from ray.data.aggregate import Sum

    ds = _read_sized(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type"])

    def transitions(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"prev": pa.array([], pa.string()),
                             "next": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        o, _, first = _sorted_events_partition(part)
        et = np.asarray(part["event_type"].to_pylist(), dtype=object)[o]
        types, code = np.unique(et, return_inverse=True)
        k = len(types)
        sel = ~first  # rows that HAVE a previous event in the same run
        pair = code[np.flatnonzero(sel) - 1] * k + code[sel]
        up, inv = np.unique(pair, return_inverse=True)
        return pa.table({"prev": pa.array(types[up // k]),
                         "next": pa.array(types[up % k]),
                         "n": pa.array(np.bincount(inv).astype(np.int64))})

    parts = partition_apply(ds, "user_id", transitions,
                            default_partitions())
    agg = parts.groupby(["prev", "next"]).aggregate(Sum("n",
                                                        alias_name="cnt"))
    return agg.map_batches(
        lambda t: pa.table({"prev": t["prev"], "next": t["next"],
                            "cnt": pc.cast(t["cnt"], pa.int64())}),
        batch_format="pyarrow")


def q_first_event_per_user(sf_dir: str):
    """First-touch attribution: each user's earliest event (ts, then
    event_id tie-break), timestamp carried as integer epoch-us so the
    compare is exact. Same single user-keyed exchange as
    [[q_event_transitions]]."""
    ds = _read_sized(sf_dir, "events",
                     ["event_id", "ts", "user_id", "event_type"])

    def first_touch(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "first_type": pa.array([], pa.string()),
                             "first_us": pa.array([], pa.int64())})
        o, uo, first = _sorted_events_partition(part)
        sel = o[first]
        ts = part["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = np.asarray(part["event_type"].to_pylist(), dtype=object)
        return pa.table({"user_id": pa.array(uo[first], pa.int64()),
                         "first_type": pa.array(et[sel]),
                         "first_us": pa.array(ts[sel], pa.int64())})

    return partition_apply(ds, "user_id", first_touch,
                           default_partitions())


def q_edit_distance_dups(sf_dir: str):
    """Edit-distance near-dup pairs over short docs (blocked all-pairs
    byte Levenshtein — see pipelines/editdist.py for the vectorized DP
    and the blocking contract shared with the oracle)."""
    from ray_data_mplsh.pipelines.editdist import edit_distance_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    return edit_distance_pairs(ds, max_len=250, bucket=64, max_dist=60)


def q_cube_lang_source(sf_dir: str):
    """GROUP BY CUBE(lang, source): the rollup lattice plus the
    source-only margin — same plan as q_rollup_lang_source (distributed
    leaf groupby, |lattice| rows derived driver-side)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "source"])
    leaf = ds.groupby(["lang", "source"]).aggregate(
        Count(alias_name="cnt")).to_pandas()
    if leaf.empty:  # empty groupby drops its schema (see rollup twin)
        leaf = pd.DataFrame({"lang": pd.Series([], dtype=object),
                             "source": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype="int64")})
    leaf["cnt"] = leaf["cnt"].astype("int64")
    per_lang = leaf.groupby("lang", as_index=False)["cnt"].sum()
    per_lang["source"] = None
    per_src = leaf.groupby("source", as_index=False)["cnt"].sum()
    per_src["lang"] = None
    total = pd.DataFrame({"lang": [None], "source": [None],
                          "cnt": [leaf["cnt"].sum()]})
    out = pd.concat([leaf, per_lang, per_src, total], ignore_index=True)
    out["lang"] = out["lang"].astype(object)
    out["source"] = out["source"].astype(object)
    out["cnt"] = out["cnt"].astype("int64")
    return out[["lang", "source", "cnt"]]


def q_mad_len(sf_dir: str):
    """Median absolute deviation of document length (robust spread):
    both medians use DuckDB's interpolating rule, computed from ONE
    value-count CDF (the |x - med| counts are re-derived from the same
    tiny table, no second data pass) — bit-exact vs DuckDB mad()."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        vals, cnts = np.unique(
            t["n_chars"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"v": pa.array(vals),
                         "c": pa.array(cnts, pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    vs, cs = [], []
    for b in agg.iter_batches(batch_size=65536, batch_format="pyarrow"):
        vs.append(b["v"].to_numpy(zero_copy_only=False))
        cs.append(b["c"].to_numpy(zero_copy_only=False))
    if not vs:  # empty input: SQL median()/mad() return one NULL row
        return pd.DataFrame({"median": pd.Series([None], dtype="float64"),
                             "mad": pd.Series([None], dtype="float64")})
    v = np.concatenate(vs).astype(np.float64)
    c = np.concatenate(cs).astype(np.int64)
    o = np.argsort(v, kind="stable")
    v, c = v[o], c[o]

    def median_cont(vv, cc):
        cum = np.cumsum(cc)
        n = int(cum[-1])
        rn = 0.5 * (n - 1)
        lo, hi = int(np.floor(rn)), int(np.ceil(rn))
        vlo = float(vv[int(np.searchsorted(cum, lo + 1))])
        vhi = float(vv[int(np.searchsorted(cum, hi + 1))])
        return vlo if hi == lo else (hi - rn) * vlo + (rn - lo) * vhi

    med = median_cont(v, c)
    dev = np.abs(v - med)
    do = np.argsort(dev, kind="stable")
    mad = median_cont(dev[do], c[do])
    return pd.DataFrame({"median": pd.Series([med], dtype="float64"),
                         "mad": pd.Series([mad], dtype="float64")})


# --- distinct rows, percent_rank, cohort retention -------------------------

def q_events_distinct(sf_dir: str):
    """DISTINCT rows over (user_id, event_type, day) — the event-level
    exact dedup a telemetry pipeline runs before counting. Per-batch
    drop_duplicates combiner, then the multi-key groupby resolves global
    distinct; no raw rows cross the exchange twice."""
    from ray.data.aggregate import Count

    ds = _read_sized(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "event_type": t["event_type"].to_pandas(),
            "d": pc.strftime(t["ts"], format="%Y-%m-%d").to_pandas()})
        df = df.drop_duplicates()
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
            "event_type": pa.array(
                df["event_type"].to_numpy(dtype=object), pa.string()),
            "d": pa.array(df["d"].to_numpy(dtype=object), pa.string())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["user_id", "event_type", "d"]).aggregate(
            Count(alias_name="_c"))
    return agg.map_batches(lambda t: t.drop_columns(["_c"]),
                           batch_format="pyarrow")


def q_percent_rank_len(sf_dir: str):
    """PERCENT_RANK() of document length within its language:
    (rank - 1) / (n - 1) with ties sharing the min rank — computed
    vectorized from the sorted run, one lang-hash exchange; the float
    division replays DuckDB's formula."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]) \
        .map_batches(
            lambda t: t.append_column(
                "_lh", pa.array(hash_str_array(t["lang"]), pa.uint64())),
            batch_format="pyarrow")

    def ranks(part: pa.Table) -> pa.Table:
        part = part.drop_columns(["_lh"])
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nc = part["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lang, _ = pd.factorize(part["lang"].to_pandas(), sort=False)
        o = np.lexsort((ids, nc, lang))
        lg, v = lang[o], nc[o]
        run_new = np.concatenate(([True], lg[1:] != lg[:-1])) \
            if len(o) else np.empty(0, bool)
        starts = np.flatnonzero(run_new)
        run = np.cumsum(run_new) - 1
        cnt = np.diff(np.concatenate([starts, [len(o)]]))
        pos = np.arange(len(o), dtype=np.int64) - starts[run]
        # tie groups share the min 0-based rank within their lang run
        tie_new = run_new | np.concatenate(
            ([True], v[1:] != v[:-1])) if len(o) else run_new
        tie_start_pos = pos[np.maximum.accumulate(
            np.where(tie_new, np.arange(len(o)), 0))]
        denom = np.maximum(cnt[run] - 1, 1)
        pr = tie_start_pos.astype(np.float64) / denom.astype(np.float64)
        pr[cnt[run] == 1] = 0.0
        out = np.empty(len(o), np.float64)
        out[o] = pr
        return pa.table({"doc_id": part["doc_id"], "lang": part["lang"],
                         "n_chars": part["n_chars"],
                         "pr": pa.array(out, pa.float64())})

    return partition_apply(ds, "_lh", ranks, default_partitions())


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users bucketed by their FIRST active day,
    counted on every distinct later activity day. Two combiner-reduced
    aggregates (per-user min day; distinct user-day pairs resolved on one
    user-keyed groupby) and a broadcast of the |users|-bounded cohort
    map — no raw-event join."""
    import ray
    from ray.data.aggregate import Count, Min

    from ray_data_mplsh.stages.shuffle import cached_get

    ds = _read_sized(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = (t["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").astype(np.int64))
        key = uid * np.int64(1 << 20) + day  # days < 2^20 by data range
        uk = np.unique(key)
        return pa.table({
            "user_id": pa.array(uk >> 20, pa.int64()),
            "day": pa.array(uk & ((1 << 20) - 1), pa.int64())})

    pairs = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["user_id", "day"]).aggregate(Count(alias_name="_c")) \
        .materialize()
    cohort = pairs.groupby("user_id").aggregate(
        Min("day", alias_name="cohort_day"))
    cu, cd = [], []
    for b in cohort.iter_batches(batch_size=65536,
                                 batch_format="pyarrow"):
        cu.append(b["user_id"].to_numpy(zero_copy_only=False)
                  .astype(np.int64))
        cd.append(b["cohort_day"].to_numpy(zero_copy_only=False)
                  .astype(np.int64))
    cu = np.concatenate(cu or [np.empty(0, np.int64)])
    cd = np.concatenate(cd or [np.empty(0, np.int64)])
    o = np.argsort(cu)
    ref = ray.put((cu[o], cd[o]))

    from ray.data.aggregate import Sum

    def attach(t: pa.Table) -> pa.Table:
        ku, kd = cached_get(ref)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = t["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.searchsorted(ku, uid)
        co = kd[i]  # every user has a cohort row by construction
        key = co * np.int64(1 << 20) + day
        uk, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "cohort": pa.array(uk >> 20, pa.int64()),
            "day": pa.array(uk & ((1 << 20) - 1), pa.int64()),
            "n_users": pa.array(np.bincount(inv).astype(np.int64))})

    agg = pairs.map_batches(attach, batch_format="pyarrow") \
        .groupby(["cohort", "day"]).aggregate(
            Sum("n_users", alias_name="n_users"))

    def fmt(t: pa.Table) -> pa.Table:
        def day_str(col):
            d = col.to_numpy(zero_copy_only=False).astype(np.int64) \
                .astype("datetime64[D]")
            return pa.array(np.datetime_as_string(d, unit="D"),
                            pa.string())
        return pa.table({
            "cohort_day": day_str(t["cohort"]),
            "activity_day": day_str(t["day"]),
            "n_users": pc.cast(t["n_users"], pa.int64())})

    return agg.map_batches(fmt, batch_format="pyarrow")


def q_tpch_q5(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q5 shape (regional same-nation revenue, 6-table join):
    the whole dimension chain region -> nation -> customer / supplier
    collapses into two broadcast lookup arrays (custkey -> nationkey
    restricted to the region, suppkey -> nationkey), date-filtered
    orders reduce to a sorted (orderkey -> customer-nation) broadcast
    when they fit ``broadcast_max_rows`` (shuffle.gather_capped); above
    it the plan flips to the keyed exchange — lineitem batches attach
    the supplier nation map-side (supplier stays a dimension broadcast)
    and ride stages/relational.inner_join against the filtered-orders
    Dataset on orderkey (hot-key detection off: the orders side is
    unique per key, multiplicity is lineitems-per-order), then the
    same-nation filter and |nations|-bounded partials run post-join.
    Path equivalence is force-tested with broadcast_max_rows=0
    (tests/test_relational.py). On the broadcast plan the lineitem fact
    table never leaves its partitions: each batch looks up both
    nations, keeps same-nation rows, and emits <= |nations|
    integer-cent partials. Revenue is exact (cents x (100 - disc_pct)
    int64 sums); the one float division is replayed in SQL."""
    import ray

    LO = int(pd.Timestamp("1996-01-01").value // 1000)
    HI = int(pd.Timestamp("1997-01-01").value // 1000)
    REGION = "ASIA"

    # region + nation are driver-tiny (5 / 25 rows)
    reg_parts = [b for b in _read(sf_dir, "region",
                                  ["r_regionkey", "r_name"])
                 .iter_batches(batch_size=4096, batch_format="pyarrow")]
    reg = pa.concat_tables(reg_parts) if reg_parts else pa.table(
        {"r_regionkey": pa.array([], pa.int64()),
         "r_name": pa.array([], pa.string())})
    rk = reg.filter(pc.equal(reg["r_name"], REGION))["r_regionkey"] \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    nat_parts = [b for b in _read(sf_dir, "nation",
                                  ["n_nationkey", "n_name", "n_regionkey"])
                 .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nat = pa.concat_tables(nat_parts) if nat_parts else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string()),
         "n_regionkey": pa.array([], pa.int64())})
    in_reg = np.isin(nat["n_regionkey"].to_numpy(zero_copy_only=False)
                     .astype(np.int64), rk)
    nkeys = nat["n_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[in_reg]
    nnames = np.asarray(nat["n_name"].to_pylist(), dtype=object)[in_reg]
    no = np.argsort(nkeys)
    nkeys, nnames = nkeys[no], nnames[no]

    def keyed_lookup(table: str, kcol: str, vcol: str, keep_keys):
        parts_k, parts_v = [], []
        for b in _read(sf_dir, table, [kcol, vcol]).iter_batches(
                batch_size=65536, batch_format="pyarrow"):
            k = b[kcol].to_numpy(zero_copy_only=False).astype(np.int64)
            v = b[vcol].to_numpy(zero_copy_only=False).astype(np.int64)
            if keep_keys is not None:
                m = np.isin(v, keep_keys)
                k, v = k[m], v[m]
            parts_k.append(k)
            parts_v.append(v)
        k = np.concatenate(parts_k) if parts_k else np.empty(0, np.int64)
        v = np.concatenate(parts_v) if parts_v else np.empty(0, np.int64)
        o = np.argsort(k)
        return k[o], v[o]

    ck, cn = keyed_lookup("customer", "c_custkey", "c_nationkey", nkeys)
    sk, sn = keyed_lookup("supplier", "s_suppkey", "s_nationkey", None)
    cref = ray.put((ck, cn))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilt(t: pa.Table) -> pa.Table:
        k, v = cached_get(cref)
        od = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        oc = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = (od >= LO) & (od < HI)
        if len(k):
            i = np.clip(np.searchsorted(k, oc), 0, len(k) - 1)
            m &= k[i] == oc
            cnat = v[i]
        else:
            m &= False
            cnat = np.zeros(len(oc), np.int64)
        return pa.table({
            "ok": t["o_orderkey"].cast(pa.int64()).filter(pa.array(m)),
            "cnat": pa.array(cnat[m], pa.int64())})

    o_ds = orders.map_batches(ofilt, batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("cnat", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_suppkey", "l_extendedprice",
                      "l_discount"])
    _EMPTY = pa.table({"nkey": pa.array([], pa.int64()),
                       "rev_micro": pa.array([], pa.int64())})

    def nation_partial(nk: np.ndarray, micro: np.ndarray) -> pa.Table:
        """|nations|-bounded partial: sum precomputed integer
        cents x (100 - disc_pct) values per nation key."""
        uk, inv = np.unique(nk, return_inverse=True)
        rev = np.zeros(len(uk), np.int64)
        np.add.at(rev, inv, micro)
        return pa.table({"nkey": pa.array(uk, pa.int64()),
                         "rev_micro": pa.array(rev)})

    from ray.data.aggregate import Sum

    if ot is not None:
        okeys = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        onat = ot["cnat"].to_numpy(zero_copy_only=False).astype(np.int64)
        oo = np.argsort(okeys)
        oref = ray.put((okeys[oo], onat[oo], sk, sn))

        def partial(t: pa.Table) -> pa.Table:
            ok, on, skk, snn = cached_get(oref)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            ls = t["l_suppkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            if not len(ok) or not len(skk):
                return _EMPTY
            i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
            m = ok[i] == lo
            j = np.clip(np.searchsorted(skk, ls), 0, len(skk) - 1)
            m &= skk[j] == ls
            # same-nation constraint: supplier nation == customer nation
            m &= snn[j] == on[i]
            nk = on[i][m]
            ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                         pa.int64()).to_numpy(zero_copy_only=False)[m]
            dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                         pa.int64()).to_numpy(zero_copy_only=False)[m]
            return nation_partial(nk, ep * (100 - dc))

        agg = li.map_batches(partial, batch_format="pyarrow") \
            .groupby("nkey").aggregate(Sum("rev_micro",
                                           alias_name="rev_micro"))
    else:
        # keyed-exchange fallback: filtered orders overflowed the
        # broadcast cap. Supplier nation attaches map-side (dimension
        # broadcast); the orderkey join rides the m:n exchange.
        from ray_data_mplsh.stages.relational import inner_join

        sref = ray.put((sk, sn))

        def lmap(t: pa.Table) -> pa.Table:
            skk, snn = cached_get(sref)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            ls = t["l_suppkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            if not len(skk):
                return pa.table({"lok": pa.array([], pa.int64()),
                                 "snat": pa.array([], pa.int64()),
                                 "micro": pa.array([], pa.int64())})
            j = np.clip(np.searchsorted(skk, ls), 0, len(skk) - 1)
            m = skk[j] == ls
            ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                         pa.int64()).to_numpy(zero_copy_only=False)[m]
            dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                         pa.int64()).to_numpy(zero_copy_only=False)[m]
            return pa.table({
                "lok": pa.array(lo[m], pa.int64()),
                "snat": pa.array(snn[j][m], pa.int64()),
                "micro": pa.array(ep * (100 - dc), pa.int64())})

        j = inner_join(li.map_batches(lmap, batch_format="pyarrow"),
                       o_ds, left_on="lok", right_on="ok",
                       hot_key_threshold=0)

        def post(t: pa.Table) -> pa.Table:
            sn_ = t["snat"].to_numpy(zero_copy_only=False).astype(np.int64)
            cn_ = t["cnat"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = sn_ == cn_
            micro = t["micro"].to_numpy(
                zero_copy_only=False).astype(np.int64)[m]
            return nation_partial(cn_[m], micro)

        agg = j.map_batches(post, batch_format="pyarrow") \
            .groupby("nkey").aggregate(Sum("rev_micro",
                                           alias_name="rev_micro"))

    def finish(t: pa.Table) -> pa.Table:
        nk = t["nkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.clip(np.searchsorted(nkeys, nk), 0,
                    max(len(nkeys) - 1, 0))
        hit = nkeys[i] == nk if len(nkeys) else np.zeros(len(nk), bool)
        rev = pc.cast(t["rev_micro"], pa.int64()) \
            .to_numpy(zero_copy_only=False)[hit]
        return pa.table({
            "n_name": pa.array(nnames[i][hit], pa.string()),
            "revenue": pa.array(rev.astype(np.float64) / 10000.0,
                                pa.float64())})

    return agg.map_batches(finish, batch_format="pyarrow") \
        .sort("revenue", descending=True)


def q_canonical_urls(sf_dir: str):
    """Pins the S1 ``canonicalize_urls`` kernel (SURVEY.md op 8 —
    lowercase scheme+host, preserve path case, strip fragment) to a
    DuckDB oracle: the documents table has no url column, so a url is
    DERIVED deterministically from (doc_id, source) with three shapes —
    scheme-less, scheme+host only, scheme+host+path — built by the same
    expression in both engines; the SQL replays the canonicalization
    generically with split_part/lower/substr rather than hand-computed
    expected strings, so a kernel behavior change breaks the match."""
    from ray_data_mplsh.stages.docs import canonicalize_urls

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def build(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = pd.Series(np.asarray(t["source"].to_pylist(), dtype=object))
        ids = pd.Series(did).astype(str)
        m = did % 5
        u0 = src + "/RAW/" + ids + "#F"
        u1 = "HTTPS://" + src.str.upper() + ".NET#Sec"
        u2 = "HTTP://WWW." + src.str.upper() + ".COM/Docs/" + ids + "#frag"
        urls = pd.Series(
            np.where(m == 0, u0, np.where(m == 1, u1, u2)).astype(object))
        cu = canonicalize_urls(urls)  # pa.Array (Arrow-native kernel)
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "curl": cu})

    return ds.map_batches(build, batch_format="pyarrow")


def q_url_dedup(sf_dir: str):
    """Canonical-url-keyed dedup (S1 ops 8+9 composed): derive the same
    3-shape urls as q_canonical_urls, canonicalize, then keep the MIN
    doc_id per canonical url with the doc count — the exact-dedup
    pattern keyed on the canonicalizer's output, so a canonicalization
    change that merges or splits groups breaks the oracle. Per-batch
    (curl, min_id, cnt) combiners bound the exchange at |distinct urls|."""
    from ray.data.aggregate import Min, Sum

    base = q_canonical_urls(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cu = np.asarray(t["curl"].to_pylist(), dtype=object)
        uu, inv = np.unique(cu, return_inverse=True)
        mn = np.full(len(uu), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mn, inv, did)
        return pa.table({
            "curl": pa.array(uu),
            "doc_id": pa.array(mn, pa.int64()),
            "n_docs": pa.array(np.bincount(inv).astype(np.int64))})

    agg = base.map_batches(partial, batch_format="pyarrow") \
        .groupby("curl").aggregate(Min("doc_id", alias_name="doc_id"),
                                   Sum("n_docs", alias_name="n_docs"))
    return agg.map_batches(
        lambda t: pa.table({"curl": t["curl"],
                            "doc_id": pc.cast(t["doc_id"], pa.int64()),
                            "n_docs": pc.cast(t["n_docs"], pa.int64())}),
        batch_format="pyarrow")


def q_parts_by_brand(sf_dir: str):
    """Per-brand part stats (the first query over the ``part`` dimension
    table): count + avg retail price. Exact float parity with DuckDB's
    AVG: prices are exact in cents, so partials carry integer cent sums
    and one double division runs at the end — the same arithmetic the
    SQL replays (SUM(CAST(ROUND(p*100) AS BIGINT)) / 100.0 / COUNT)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["p_retailprice"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        b = np.asarray(t["p_brand"].to_pylist(), dtype=object)
        ub, inv = np.unique(b, return_inverse=True)
        return pa.table({
            "p_brand": pa.array(ub),
            "n_parts": pa.array(np.bincount(inv).astype(np.int64)),
            "cents": pa.array(np.bincount(inv, weights=cents)
                              .astype(np.int64))})

    agg = _read(sf_dir, "part", ["p_brand", "p_retailprice"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("p_brand").aggregate(
            Sum("n_parts", alias_name="n_parts"),
            Sum("cents", alias_name="cents"))

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(t["n_parts"], pa.int64())
        c = pc.cast(t["cents"], pa.int64()).to_numpy(zero_copy_only=False)
        nn = n.to_numpy(zero_copy_only=False)
        return pa.table({
            "p_brand": t["p_brand"], "n_parts": n,
            "avg_price": pa.array(c / 100.0 / nn, pa.float64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: share of lineitem revenue from PROMO-type parts
    in one shipdate window. ``part`` reduces to a broadcast int8
    is-promo flag indexed by partkey (dimension side never shuffles);
    per-batch integer partials (cents x (100 - disc_pct)) make revenue
    exact, and the single promo/total double division is replayed
    verbatim in the SQL oracle."""
    import ray

    LO = int(pd.Timestamp("1997-03-01").value // 1000)
    HI = int(pd.Timestamp("1997-09-01").value // 1000)

    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    pk_parts, fl_parts = [], []
    for b in part.iter_batches(batch_size=65536, batch_format="pyarrow"):
        pk_parts.append(b["p_partkey"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
        fl_parts.append(pc.equal(b["p_type"], "PROMO").to_numpy(
            zero_copy_only=False).astype(np.int8))
    pk = np.concatenate(pk_parts) if pk_parts else np.empty(0, np.int64)
    fl = np.concatenate(fl_parts) if fl_parts else np.empty(0, np.int8)
    o = np.argsort(pk)
    ref = ray.put((pk[o], fl[o]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_partkey", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        keys, promo = cached_get(ref)
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (sd >= LO) & (sd < HI)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[m]
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        rev = ep * (100 - dc)
        i = np.clip(np.searchsorted(keys, lp), 0, max(len(keys) - 1, 0))
        isp = promo[i] * (keys[i] == lp) if len(keys) else \
            np.zeros(len(lp), np.int8)
        return pa.table({
            "promo_micro": pa.array([int(rev[isp.astype(bool)].sum())],
                                    pa.int64()),
            "total_micro": pa.array([int(rev.sum())], pa.int64())})

    parts = [b for b in li.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=65536, batch_format="pyarrow")]
    if parts:
        tot = pa.concat_tables(parts)
        pm = int(pc.sum(tot["promo_micro"]).as_py() or 0)
        tm = int(pc.sum(tot["total_micro"]).as_py() or 0)
    else:  # empty lineitem: zero revenue either way
        pm = tm = 0
    # tm == 0 means no rows matched (SUM over zero rows is NULL in SQL)
    # or an all-zero-revenue window (DuckDB x/0 is NULL) — NULL either way
    return pa.table({"promo_revenue_pct":
                     pa.array([100.0 * pm / tm if tm else None],
                              pa.float64())})


def q_top_parts_revenue(sf_dir: str):
    """Top-10 parts by lineitem revenue with brand/name attached: fact
    partials (|parts in batch|-bounded integer cent sums) -> one
    |parts|-bounded partkey-hash partition_apply finishing the sum with
    a numpy unique-sum per partition (each batch carries ~one distinct
    partkey per row, so the partials barely combine and Ray's sort-based
    groupby paid a high many-small-groups merge cost here — the hash
    exchange + in-partition reduce is ~3x faster) -> broadcast join
    against the dimension table -> global top-k, ties broken on
    p_partkey for a deterministic LIMIT set in both engines."""
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    li = _read_sized(sf_dir, "lineitem",
                     ["l_partkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        uk, inv = np.unique(lp, return_inverse=True)
        rev = np.zeros(len(uk), np.int64)
        np.add.at(rev, inv, ep * (100 - dc))
        return pa.table({"p_partkey": pa.array(uk, pa.int64()),
                         "rev_micro": pa.array(rev)})

    def reduce_part(part: pa.Table) -> pa.Table:
        pk = part["p_partkey"].to_numpy(zero_copy_only=False)
        rv = part["rev_micro"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(pk, return_inverse=True)
        rev = np.zeros(len(uk), np.int64)
        np.add.at(rev, inv, rv)
        return pa.table({"p_partkey": pa.array(uk, pa.int64()),
                         "rev_micro": pa.array(rev, pa.int64())})

    agg = partition_apply(
        li.map_batches(partial, batch_format="pyarrow"),
        "p_partkey", reduce_part, default_partitions())

    part_rows = [b for b in
                 _read(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])
                 .iter_batches(batch_size=65536, batch_format="pyarrow")]
    ptbl = pa.concat_tables(part_rows) if part_rows else pa.table(
        {"p_partkey": pa.array([], pa.int64()),
         "p_name": pa.array([], pa.string()),
         "p_brand": pa.array([], pa.string())})
    joined = broadcast_join(agg, ptbl, left_on="p_partkey",
                            right_on="p_partkey")

    def finish(t: pa.Table) -> pa.Table:
        rev = pc.cast(t["rev_micro"], pa.int64())
        return pa.table({
            "p_partkey": pc.cast(t["p_partkey"], pa.int64()),
            "p_name": t["p_name"], "p_brand": t["p_brand"],
            "revenue": pc.divide(pc.cast(rev, pa.float64()), 10000.0)})

    return joined.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "p_partkey"], descending=[True, False]) \
        .limit(10)


def q_tpch_q10(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q10 shape (returned-item report): one-quarter orders window
    joined to returned lineitems, revenue grouped per CUSTOMER, top-20
    with customer/nation attributes attached. Fast path is zero-shuffle
    except the |custkeys|-bounded groupby: the windowed orders reduce to
    a broadcast sorted (orderkey -> custkey) map probed inside the
    lineitem scan, and customer x nation is a driver-sized dimension
    broadcast for the final attach. BOTH gathers are capped at
    ``broadcast_max_rows`` (VERDICT r4 #2 — a quarter of orders and the
    full customer dimension are SF-proportional, not driver-sized at web
    scale): above the cap the order map flips to a keyed
    stages/relational.inner_join on orderkey and the customer attach to
    the same exchange on custkey (both 1:1, hot-key detection off).
    Path equivalence is force-tested with broadcast_max_rows=0. Revenue
    is exact (cents x (100 - disc_pct) integer partials, one float
    division replayed in SQL); ties break on c_custkey so the LIMIT set
    is deterministic in both engines."""
    import ray
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.relational import inner_join

    LO = int(pd.Timestamp("1996-10-01").value // 1000)  # epoch us
    HI = int(pd.Timestamp("1997-01-01").value // 1000)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def owin(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        m = (od >= LO) & (od < HI)
        return pa.table({
            "ok": t["o_orderkey"].cast(pa.int64()).filter(pa.array(m)),
            "ck": t["o_custkey"].cast(pa.int64()).filter(pa.array(m))})

    o_ds = orders.map_batches(owin, batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("ck", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_extendedprice", "l_discount",
                      "l_returnflag"])

    def li_rev(t: pa.Table):
        """(R-filtered orderkeys, int64 micro revenue) for one batch."""
        m = pc.equal(t["l_returnflag"], "R").to_numpy(zero_copy_only=False)
        lk = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[m]
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        return lk, ep * (100 - dc)

    if ot is not None:
        ok = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        oc = ot["ck"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(ok)
        omap_ref = ray.put((ok[o], oc[o]))

        def partial(t: pa.Table) -> pa.Table:
            okeys, ocust = cached_get(omap_ref)
            lk, micro = li_rev(t)
            if not len(okeys) or not len(lk):
                return pa.table({"c_custkey": pa.array([], pa.int64()),
                                 "rev_micro": pa.array([], pa.int64())})
            j = np.clip(np.searchsorted(okeys, lk), 0, len(okeys) - 1)
            hit = okeys[j] == lk
            ck = ocust[j[hit]]
            uk, inv = np.unique(ck, return_inverse=True)
            rev = np.zeros(len(uk), np.int64)
            np.add.at(rev, inv, micro[hit])  # int64-exact partials
            return pa.table({"c_custkey": pa.array(uk, pa.int64()),
                             "rev_micro": pa.array(rev)})

        custkey_partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        # keyed-exchange fallback: the order window overflowed the cap.
        def lmap(t: pa.Table) -> pa.Table:
            lk, micro = li_rev(t)
            uk, inv = np.unique(lk, return_inverse=True)
            rev = np.zeros(len(uk), np.int64)
            np.add.at(rev, inv, micro)  # per-orderkey batch combiner
            return pa.table({"lok": pa.array(uk, pa.int64()),
                             "rev_micro": pa.array(rev)})

        j = inner_join(li.map_batches(lmap, batch_format="pyarrow"),
                       o_ds, left_on="lok", right_on="ok",
                       hot_key_threshold=0)
        custkey_partials = j.map_batches(
            lambda t: pa.table({
                "c_custkey": pc.cast(t["ck"], pa.int64()),
                "rev_micro": pc.cast(t["rev_micro"], pa.int64())}),
            batch_format="pyarrow")

    agg = custkey_partials.groupby("c_custkey").aggregate(
        Sum("rev_micro", alias_name="rev_micro"))

    # customer x nation attach: nation is spec-constant (25 rows) and
    # always broadcasts; the customer dimension rides map-side under it
    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"])
                .iter_batches(batch_size=65536, batch_format="pyarrow")]
    ntbl = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string())})
    nk = ntbl["n_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    nn = np.asarray(ntbl["n_name"].to_pylist(), dtype=object)
    no = np.argsort(nk)
    nk, nn = nk[no], nn[no]
    nref = ray.put((nk, nn))

    def cmap(t: pa.Table) -> pa.Table:
        k, names = cached_get(nref)
        cn = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(k):
            i = np.clip(np.searchsorted(k, cn), 0, len(k) - 1)
            hit = k[i] == cn  # inner-join: drop orphan nationkeys
        else:
            i = np.zeros(len(cn), np.int64)
            hit = np.zeros(len(cn), dtype=bool)
        return pa.table({
            "c_custkey": t["c_custkey"].cast(pa.int64()).filter(
                pa.array(hit)),
            "c_name": t["c_name"].filter(pa.array(hit)),
            "c_acctbal": t["c_acctbal"].filter(pa.array(hit)),
            "n_name": pa.array(names[i[hit]].astype(object)
                               if len(k) else np.empty(0, object),
                               pa.string())})

    c_ds = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]) \
        .map_batches(cmap, batch_format="pyarrow")
    ctbl = gather_capped(c_ds, broadcast_max_rows, pa.schema(
        [("c_custkey", pa.int64()), ("c_name", pa.string()),
         ("c_acctbal", pa.float64()), ("n_name", pa.string())]))
    if ctbl is not None:
        joined = broadcast_join(agg, ctbl, left_on="c_custkey",
                                right_on="c_custkey")
    else:
        c_big = c_ds.map_batches(
            lambda t: t.rename_columns(["cust_k", "c_name", "c_acctbal",
                                        "n_name"]),
            batch_format="pyarrow")
        joined = inner_join(agg, c_big, left_on="c_custkey",
                            right_on="cust_k", hot_key_threshold=0)

    def finish(t: pa.Table) -> pa.Table:
        rev = pc.cast(t["rev_micro"], pa.int64())
        return pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "c_name": t["c_name"],
            "revenue": pc.divide(pc.cast(rev, pa.float64()), 10000.0),
            "c_acctbal": t["c_acctbal"], "n_name": t["n_name"]})

    return joined.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "c_custkey"], descending=[True, False]) \
        .limit(20)


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume orders): orders whose total lineitem
    quantity exceeds a threshold, with order/customer attributes, top-100
    by o_totalprice. The only exchange is the |orderkeys|-bounded
    quantity reduce: per-batch integer partials first (each batch ships
    one row per distinct orderkey it saw, not one per lineitem), then an
    orderkey-hash partition_apply finishes the sum AND applies the
    HAVING cutoff inside the partition — a numpy unique-sum per
    partition measures ~4x faster than Ray's sort-based groupby at this
    key cardinality (~1 distinct key per 4 rows), and the exchange ships
    2 int64 columns. The survivor set (~1% of orders at the 250 cutoff)
    is driver-sized, so order attributes attach by filtering the orders
    scan against a broadcast sorted key array and the customer name by a
    broadcast dimension join. Quantities are integral in TPC-H, so
    round->int64 sums are exact and replay in SQL; ties break on
    o_orderkey for a deterministic LIMIT set."""
    import ray

    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    THRESH = 250

    li = _read_sized(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        lk = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        uk, inv = np.unique(lk, return_inverse=True)
        s = np.zeros(len(uk), np.int64)
        np.add.at(s, inv, q)
        return pa.table({"o_orderkey": pa.array(uk, pa.int64()),
                         "sum_qty": pa.array(s)})

    def reduce_part(part: pa.Table) -> pa.Table:
        lk = part["o_orderkey"].to_numpy(zero_copy_only=False)
        sq = part["sum_qty"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(lk, return_inverse=True)
        s = np.zeros(len(uk), np.int64)
        np.add.at(s, inv, sq)
        keep = s > THRESH  # HAVING, applied before anything leaves
        return pa.table({"o_orderkey": pa.array(uk[keep], pa.int64()),
                         "sum_qty": pa.array(s[keep], pa.int64())})

    agg = partition_apply(
        li.map_batches(partial, batch_format="pyarrow"),
        "o_orderkey", reduce_part, default_partitions())
    hot_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("sum_qty", pa.int64())])
    hot = gather_capped(agg, 4_000_000, hot_schema)
    # the HAVING survivor set is bounded by design (threshold picks the
    # top ~1% of orders); a >4M-row result means the threshold is wrong
    # for the corpus, not that the plan needs an exchange path.
    assert hot is not None, "q18 survivor set overflowed the broadcast cap"
    hk = np.sort(hot["o_orderkey"].to_numpy(zero_copy_only=False)
                 .astype(np.int64))
    hk_ref = ray.put(hk)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate", "o_totalprice"])

    def ofilt(t: pa.Table) -> pa.Table:
        keys = cached_get(hk_ref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(ok, keys)))

    o_small_rows = [b for b in
                    orders.map_batches(ofilt, batch_format="pyarrow")
                    .iter_batches(batch_size=65536, batch_format="pyarrow")]
    o_small = pa.concat_tables(o_small_rows) if o_small_rows else None
    if o_small is None or o_small.num_rows == 0:
        return pa.table({"c_name": pa.array([], pa.string()),
                         "c_custkey": pa.array([], pa.int64()),
                         "o_orderkey": pa.array([], pa.int64()),
                         "o_orderdate": pa.array([], pa.timestamp("us")),
                         "o_totalprice": pa.array([], pa.float64()),
                         "sum_qty": pa.array([], pa.int64())})
    o_small = o_small.join(hot, keys=["o_orderkey"],
                           right_keys=["o_orderkey"], join_type="inner")

    cust_rows = [b for b in
                 _read(sf_dir, "customer", ["c_custkey", "c_name"])
                 .iter_batches(batch_size=65536, batch_format="pyarrow")]
    ctbl = pa.concat_tables(cust_rows)
    out = o_small.join(ctbl, keys=["o_custkey"], right_keys=["c_custkey"],
                       join_type="inner")
    res = pa.table({
        "c_name": out["c_name"],
        "c_custkey": pc.cast(out["o_custkey"], pa.int64()),
        "o_orderkey": pc.cast(out["o_orderkey"], pa.int64()),
        "o_orderdate": out["o_orderdate"],
        "o_totalprice": out["o_totalprice"],
        "sum_qty": pc.cast(out["sum_qty"], pa.int64())})
    order = pc.sort_indices(res, sort_keys=[("o_totalprice", "descending"),
                                            ("o_orderkey", "ascending")])
    return res.take(order[:100])


def q_pack_sequences(sf_dir: str, cap: int = 2048):
    """Sequence packing for training-data assembly: assign every document
    a (pack_id, pack_offset) slot in a stream of fixed ``cap``-token
    context windows, docs laid out in doc_id order and split across pack
    boundaries (the standard concat-then-chunk pretraining layout). The
    core is a DISTRIBUTED EXCLUSIVE PREFIX SUM over per-doc token
    counts: pass A computes per-RANGE-BUCKET token subtotals map-side
    (one int64 per ~4096-doc bucket reaches the driver — at 10^10 docs
    that is a 2.4M-element cumsum, trivially driver-sized), the driver
    exclusive-cumsums bucket offsets and broadcasts them, and pass B
    finishes the scan inside a bucket-keyed ``map_groups`` (sort the
    group by doc_id, local cumsum, add the bucket's global offset). The
    exchange ships 3 int64 columns per doc — text never moves. Token
    counts reuse the q_token_counts Arrow split kernel so the SQL twin
    (one window SUM) replays the layout bit-exactly."""
    import ray
    from ray.data.aggregate import Sum

    BUCKET_DOCS = 4096

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(t["text"]),
                                      pattern=r"\s+")
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
            "bucket": pa.array(did // BUCKET_DOCS, pa.int64())})

    # 3-int64-column projection, reused by both passes: materialize ONCE
    # so the text scan + tokenize doesn't run twice (spillable object
    # store bytes, 24B/doc — NOT driver memory).
    toks = ds.map_batches(count, batch_format="pyarrow").materialize()

    def bucket_partial(t: pa.Table) -> pa.Table:
        bk = t["bucket"].to_numpy(zero_copy_only=False)
        nt = t["n_tokens"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(bk, return_inverse=True)
        s = np.zeros(len(ub), np.int64)
        np.add.at(s, inv, nt)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "btoks": pa.array(s)})

    bk_parts, bs_parts = [], []
    for b in toks.map_batches(bucket_partial, batch_format="pyarrow") \
            .groupby("bucket").aggregate(Sum("btoks", alias_name="btoks")) \
            .iter_batches(batch_size=65536, batch_format="pyarrow"):
        bk_parts.append(b["bucket"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
        bs_parts.append(b["btoks"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
    bk = np.concatenate(bk_parts) if bk_parts else np.empty(0, np.int64)
    bs = np.concatenate(bs_parts) if bs_parts else np.empty(0, np.int64)
    o = np.argsort(bk)
    bk, bs = bk[o], bs[o]
    off = np.concatenate(([0], np.cumsum(bs)[:-1])) if len(bs) \
        else np.empty(0, np.int64)  # exclusive scan of bucket subtotals
    off_ref = ray.put((bk, off))

    def finish_group(part: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "pack_id": pa.array([], pa.int64()),
                          "pack_offset": pa.array([], pa.int64())})
        if part.num_rows == 0:
            return empty
        keys, offs = cached_get(off_ref)
        if not len(keys):
            return empty
        did = part["doc_id"].to_numpy(zero_copy_only=False)
        nt = part["n_tokens"].to_numpy(zero_copy_only=False)
        o = np.argsort(did)
        did, nt = did[o], nt[o]
        b = int(part["bucket"][0].as_py())
        base = int(offs[np.searchsorted(keys, b)])
        cum = base + np.concatenate(([0], np.cumsum(nt)[:-1]))
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "pack_id": pa.array(cum // cap, pa.int64()),
            "pack_offset": pa.array(cum % cap, pa.int64())})

    return toks.groupby("bucket").map_groups(finish_group,
                                             batch_format="pyarrow")


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6 shape (forecast revenue change): one predicate-pushdown
    scan of lineitem, zero exchanges — every batch reduces to a single
    int64 cent x disc_pct partial and the driver folds the per-batch
    rows. Discount and quantity filters run on ROUNDED integer views
    (disc_pct in [5,7], qty < 24) so the float-literal comparison
    semantics can't diverge between engines; the one float division is
    replayed verbatim in SQL."""
    LO = int(pd.Timestamp("1997-01-01").value // 1000)  # epoch us
    HI = int(pd.Timestamp("1998-01-01").value // 1000)

    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        m = (sd >= LO) & (sd < HI) & (dc >= 5) & (dc <= 7) & (q < 24)
        return pa.table({"rev_micro":
                         pa.array([int((ep[m] * dc[m]).sum())], pa.int64()),
                         "n": pa.array([int(m.sum())], pa.int64())})

    parts = [b for b in li.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=65536, batch_format="pyarrow")]
    folded = pa.concat_tables(parts) if parts else None
    n = int(pc.sum(folded["n"]).as_py() or 0) if folded is not None else 0
    if n == 0:  # SUM over zero rows is NULL in SQL, not 0.0 (ADVICE r4)
        return pa.table({"revenue": pa.array([None], pa.float64())})
    micro = int(pc.sum(folded["rev_micro"]).as_py() or 0)
    return pa.table({"revenue": pa.array([micro / 10000.0], pa.float64())})


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 shape (top supplier): revenue per supplier over one
    quarter, suppliers tied at the maximum joined to their attributes.
    The only exchange is the |suppliers|-bounded groupby over per-batch
    integer cent partials (each batch ships at most one row per distinct
    suppkey it saw); the aggregate is driver-sized by construction, so
    the max + tie filter + dimension attach happen on a gathered table.
    Revenue stays int64-exact until one final float division replayed in
    SQL."""
    from ray.data.aggregate import Sum

    LO = int(pd.Timestamp("1997-01-01").value // 1000)
    HI = int(pd.Timestamp("1997-04-01").value // 1000)

    li = _read_sized(sf_dir, "lineitem",
                     ["l_suppkey", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (sd >= LO) & (sd < HI)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[m]
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        uk, inv = np.unique(sk, return_inverse=True)
        rev = np.zeros(len(uk), np.int64)
        np.add.at(rev, inv, ep * (100 - dc))
        return pa.table({"s_suppkey": pa.array(uk, pa.int64()),
                         "rev_micro": pa.array(rev)})

    agg = li.map_batches(partial, batch_format="pyarrow") \
        .groupby("s_suppkey").aggregate(Sum("rev_micro",
                                            alias_name="rev_micro"))
    schema = pa.schema([("s_suppkey", pa.int64()),
                        ("rev_micro", pa.int64())])
    tot = gather_capped(agg, 4_000_000, schema)
    # per-supplier aggregate is |suppliers|-bounded; overflow means the
    # dimension table itself outgrew the driver, not a plan problem.
    assert tot is not None, "q15 supplier aggregate overflowed the cap"
    if tot.num_rows == 0:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "total_revenue": pa.array([], pa.float64())})
    rev = tot["rev_micro"].to_numpy(zero_copy_only=False)
    top = tot.filter(pa.array(rev == rev.max()))

    # attach names via broadcast_join against the tie set (usually one
    # row) — the supplier table itself is never gathered driver-side
    sj = broadcast_join(_read(sf_dir, "supplier", ["s_suppkey", "s_name"]),
                        pa.table({"tk": top["s_suppkey"]}),
                        left_on="s_suppkey", right_on="tk")
    stbl = gather_capped(sj, 4_000_000, pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string())]))
    assert stbl is not None, "q15 tie-set attach overflowed the cap"
    stbl = stbl.select(["s_suppkey", "s_name"])
    out = top.join(stbl, keys=["s_suppkey"], right_keys=["s_suppkey"],
                   join_type="inner")
    res = pa.table({
        "s_suppkey": pc.cast(out["s_suppkey"], pa.int64()),
        "s_name": out["s_name"],
        "total_revenue": pc.divide(
            pc.cast(out["rev_micro"], pa.float64()), 10000.0)})
    return res.take(pc.sort_indices(res, sort_keys=[("s_suppkey",
                                                     "ascending")]))


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): per-customer
    order counts under a join predicate, histogrammed. Two bounded
    exchanges, no join: per-batch custkey count partials ->
    |customers|-bounded groupby sum -> |distinct activity levels|-bounded
    count-of-counts reduce (the q_user_activity_histogram technique).
    The LEFT-JOIN zero bucket never touches the exchange — it is
    |customers| minus the histogram's mass, both driver scalars."""
    from ray.data.aggregate import Count, Sum

    orders = _read_sized(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.invert(pc.equal(t["o_orderstatus"], "F")) \
            .to_numpy(zero_copy_only=False)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[m]
        uu, inv = np.unique(ck, return_inverse=True)
        return pa.table({"o_custkey": pa.array(uu, pa.int64()),
                         "n": pa.array(np.bincount(inv).astype(np.int64))})

    per_cust = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("n", alias_name="c_count"))
    hist = per_cust.map_batches(
        lambda t: pa.table({"c_count": pc.cast(t["c_count"], pa.int64())}),
        batch_format="pyarrow") \
        .groupby("c_count").aggregate(Count(alias_name="custdist"))
    schema = pa.schema([("c_count", pa.int64()), ("custdist", pa.int64())])
    h = gather_capped(hist.map_batches(
        lambda t: pa.table({"c_count": pc.cast(t["c_count"], pa.int64()),
                            "custdist": pc.cast(t["custdist"],
                                                pa.int64())}),
        batch_format="pyarrow"), 4_000_000, schema)
    assert h is not None, "q13 activity histogram overflowed the cap"
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    n_zero = n_cust - int(pc.sum(h["custdist"]).as_py() or 0)
    # o_custkey ⊆ c_custkey is a schema invariant here; an orphan custkey
    # would add phantom histogram mass and push n_zero negative, silently
    # dropping the zero bucket and diverging from the LEFT-JOIN oracle —
    # surface the RI violation loudly instead (ADVICE r4).
    assert n_zero >= 0, (
        f"q13: orders reference {-n_zero} custkeys absent from customer")
    if n_zero > 0:
        h = pa.concat_tables([h, pa.table(
            {"c_count": pa.array([0], pa.int64()),
             "custdist": pa.array([n_zero], pa.int64())})])
    return h


def q_tpch_q4(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q4 shape (order priority checking), adapted to the shipped
    lineitem schema (no commit/receipt dates): count one quarter's orders
    per priority where EXISTS a lineitem shipped more than 30 days after
    the order date. The quarter's (orderkey -> orderdate_us, priority)
    map broadcasts under ``broadcast_max_rows`` and is probed inside the
    lineitem scan — the EXISTS never joins; above the cap the plan flips
    to a keyed-exchange inner join (force-tested bit-equal). Each batch
    emits the DISTINCT late (orderkey, priority) rows it saw, one
    |window orders|-bounded groupby dedups them globally, and a
    |priorities|-bounded reduce finishes the count."""
    import ray
    from ray.data.aggregate import Count, Sum

    LO = int(pd.Timestamp("1997-01-01").value // 1000)
    HI = int(pd.Timestamp("1997-04-01").value // 1000)
    GRACE_US = 30 * 86400 * 1_000_000

    def ofilt(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        m = pa.array((od >= LO) & (od < HI))
        return pa.table({
            "ok": t["o_orderkey"].cast(pa.int64()).filter(m),
            "od": t["o_orderdate"].cast(pa.int64()).filter(m),
            "o_orderpriority": t["o_orderpriority"].filter(m)})

    o_ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                    "o_orderpriority"]) \
        .map_batches(ofilt, batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("od", pa.int64()),
         ("o_orderpriority", pa.string())]))

    li = _read_sized(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    if ot is not None:
        ok = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        od = ot["od"].to_numpy(zero_copy_only=False).astype(np.int64)
        pr = np.asarray(ot["o_orderpriority"].to_pylist(), dtype=object)
        prios, pcode = np.unique(pr.astype(str), return_inverse=True) \
            if len(pr) else (np.empty(0, "U16"), np.empty(0, np.int64))
        o = np.argsort(ok)
        ref = ray.put((ok[o], od[o], pcode[o].astype(np.int64)))

        def late_keys(t: pa.Table) -> pa.Table:
            okeys, odates, codes = cached_get(ref)
            lk = t["l_orderkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sd = t["l_shipdate"].cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            if not len(okeys):
                return pa.table({"o_orderkey": pa.array([], pa.int64()),
                                 "pc_": pa.array([], pa.int64())})
            j = np.clip(np.searchsorted(okeys, lk), 0, len(okeys) - 1)
            hit = (okeys[j] == lk) & (sd > odates[j] + GRACE_US)
            uk = np.unique(lk[hit])
            return pa.table({
                "o_orderkey": pa.array(uk, pa.int64()),
                "pc_": pa.array(codes[np.searchsorted(okeys, uk)],
                                pa.int64())})

        late = li.map_batches(late_keys, batch_format="pyarrow") \
            .groupby("o_orderkey").aggregate(Count(alias_name="nl"),
                                             Sum("pc_", alias_name="pcs"),
                                             )

        def to_prio(t: pa.Table) -> pa.Table:
            # pc_ is constant per orderkey: sum/count recovers it
            nl = t["nl"].to_numpy(zero_copy_only=False).astype(np.int64)
            pcs = t["pcs"].to_numpy(zero_copy_only=False).astype(np.int64)
            code = pcs // np.maximum(nl, 1)
            cnt = np.bincount(code, minlength=len(prios)).astype(np.int64)
            nz = cnt > 0
            return pa.table({"prio": pa.array(
                prios[np.flatnonzero(nz)].astype(object), pa.string()),
                "n": pa.array(cnt[nz], pa.int64())})

        partials = late.map_batches(to_prio, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        def lslim(t: pa.Table) -> pa.Table:
            return pa.table({
                "lok": t["l_orderkey"].cast(pa.int64()),
                "sd": t["l_shipdate"].cast(pa.int64())})

        j = inner_join(li.map_batches(lslim, batch_format="pyarrow"),
                       o_ds, left_on="lok", right_on="ok",
                       hot_key_threshold=0)

        def late_rows(t: pa.Table) -> pa.Table:
            sd = t["sd"].to_numpy(zero_copy_only=False).astype(np.int64)
            od2 = t["od"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = sd > od2 + GRACE_US
            lk = t["lok"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)[m]
            pr = np.asarray(t["o_orderpriority"].to_pylist(),
                            dtype=object)[m]
            # per-batch distinct (orderkey, priority-of-orderkey)
            uk, ui = np.unique(lk, return_index=True)
            return pa.table({
                "o_orderkey": pa.array(uk, pa.int64()),
                "prio": pa.array(pr[ui], pa.string())})

        late = j.map_batches(late_rows, batch_format="pyarrow") \
            .groupby(["o_orderkey", "prio"]).aggregate(
                Count(alias_name="nl"))

        def to_prio2(t: pa.Table) -> pa.Table:
            pr = np.asarray(t["prio"].to_pylist(), dtype=object)
            u, inv = np.unique(pr.astype(str), return_inverse=True)
            cnt = np.bincount(inv).astype(np.int64)
            return pa.table({"prio": pa.array(u.astype(object),
                                              pa.string()),
                             "n": pa.array(cnt, pa.int64())})

        partials = late.map_batches(to_prio2, batch_format="pyarrow")

    agg = partials.groupby("prio").aggregate(
        Sum("n", alias_name="order_count"))
    h = gather_capped(agg, 1_000_000, pa.schema(
        [("prio", pa.string()), ("order_count", pa.int64())]))
    assert h is not None, "q4 priority histogram overflowed the cap"
    return pa.table({
        "o_orderpriority": h["prio"],
        "order_count": pc.cast(h["order_count"], pa.int64())})


def q_tpch_q17(sf_dir: str, brand: str = "Brand#4"):
    """TPC-H Q17 shape (small-quantity-order revenue): average weekly
    revenue lost to lineitems of one brand's parts whose quantity is
    below 20%% of that part's average. Two fact passes, zero joins: the
    brand's partkeys are a |part|-bounded broadcast; pass 1 reduces per-
    partkey (sum qty, count) integer partials through a |brand parts|-
    bounded groupby into a broadcast threshold table; pass 2 applies the
    strict inequality AS INTEGERS (5 * qty * cnt < sum_qty — the float
    0.2 * avg never materializes, so both engines decide ties
    identically) and folds cent partials. One float division chain
    replays in SQL."""
    import ray
    from ray.data.aggregate import Sum

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    pk_parts = []
    for b in part.iter_batches(batch_size=65536, batch_format="pyarrow"):
        m = pc.equal(b["p_brand"], brand).to_numpy(zero_copy_only=False)
        pk_parts.append(b["p_partkey"].to_numpy(zero_copy_only=False)
                        .astype(np.int64)[m])
    bpk = np.sort(np.concatenate(pk_parts)) if pk_parts else \
        np.empty(0, np.int64)
    bref = ray.put(bpk)

    li = _read_sized(sf_dir, "lineitem",
                     ["l_partkey", "l_quantity", "l_extendedprice"])

    def qty_partial(t: pa.Table) -> pa.Table:
        keys = cached_get(bref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(keys):
            return pa.table({"l_partkey": pa.array([], pa.int64()),
                             "sq": pa.array([], pa.int64()),
                             "cq": pa.array([], pa.int64())})
        i = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
        m = keys[i] == lp
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)[m]
        uk, inv = np.unique(lp[m], return_inverse=True)
        sq = np.zeros(len(uk), np.int64)
        np.add.at(sq, inv, q)
        return pa.table({"l_partkey": pa.array(uk, pa.int64()),
                         "sq": pa.array(sq),
                         "cq": pa.array(np.bincount(inv).astype(np.int64))})

    agg = li.map_batches(qty_partial, batch_format="pyarrow") \
        .groupby("l_partkey").aggregate(Sum("sq", alias_name="sq"),
                                        Sum("cq", alias_name="cq"))
    schema = pa.schema([("l_partkey", pa.int64()), ("sq", pa.int64()),
                        ("cq", pa.int64())])
    th = gather_capped(agg, 4_000_000, schema)
    # bounded by the brand's slice of the part dimension (~4% of |part|)
    assert th is not None, "q17 threshold table overflowed the cap"
    tk = th["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    to = np.argsort(tk)
    tref = ray.put((tk[to],
                    th["sq"].to_numpy(zero_copy_only=False)[to],
                    th["cq"].to_numpy(zero_copy_only=False)[to]))

    li2 = _read(sf_dir, "lineitem",
                ["l_partkey", "l_quantity", "l_extendedprice"])

    def rev_partial(t: pa.Table) -> pa.Table:
        keys, sq, cq = cached_get(tref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(keys):
            return pa.table({"cents": pa.array([0], pa.int64()),
                             "n": pa.array([0], pa.int64())})
        i = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
        m = keys[i] == lp
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        m &= 5 * q * cq[i] < sq[i]
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        return pa.table({"cents": pa.array([int(ep.sum())], pa.int64()),
                         "n": pa.array([int(m.sum())], pa.int64())})

    parts = [b for b in li2.map_batches(rev_partial, batch_format="pyarrow")
             .iter_batches(batch_size=65536, batch_format="pyarrow")]
    folded = pa.concat_tables(parts) if parts else None
    nm = int(pc.sum(folded["n"]).as_py() or 0) if folded is not None else 0
    if nm == 0:  # SUM over zero rows is NULL in SQL (ADVICE r4)
        return pa.table({"avg_yearly": pa.array([None], pa.float64())})
    cents = int(pc.sum(folded["cents"]).as_py() or 0)
    return pa.table({"avg_yearly":
                     pa.array([cents / 100.0 / 7.0], pa.float64())})


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 shape (discounted revenue from disjunctive predicates),
    adapted to the shipped part schema (brand + size bands instead of
    container/shipmode): three (brand, size range, quantity range)
    branches OR-ed together. The part dimension reduces to three sorted
    broadcast partkey arrays — one per branch — so the disjunction is
    three searchsorted probes + integer quantity bands inside the
    lineitem scan; every batch folds to one int64 cent partial and
    nothing shuffles."""
    import ray

    BRANCHES = [("Brand#12", 1, 15, 1, 11),
                ("Brand#23", 1, 20, 10, 20),
                ("Brand#7", 1, 25, 20, 30)]

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    rows = [b for b in part.iter_batches(batch_size=65536,
                                         batch_format="pyarrow")]
    pt = pa.concat_tables(rows) if rows else pa.table(
        {"p_partkey": pa.array([], pa.int64()),
         "p_brand": pa.array([], pa.string()),
         "p_size": pa.array([], pa.int32())})
    pk = pt["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sz = pt["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
    br = np.asarray(pt["p_brand"].to_pylist(), dtype=object)
    sets = []
    for brand, slo, shi, qlo, qhi in BRANCHES:
        m = (br == brand) & (sz >= slo) & (sz <= shi)
        sets.append(np.sort(pk[m]))
    ref = ray.put(sets)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        branch_keys = cached_get(ref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        m = np.zeros(len(lp), dtype=bool)
        for (_, _, _, qlo, qhi), keys in zip(BRANCHES, branch_keys):
            if not len(keys):
                continue
            i = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
            m |= (keys[i] == lp) & (q >= qlo) & (q <= qhi)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)[m]
        return pa.table({"rev_micro":
                         pa.array([int((ep * (100 - dc)).sum())],
                                  pa.int64()),
                         "n": pa.array([int(m.sum())], pa.int64())})

    parts = [b for b in li.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=65536, batch_format="pyarrow")]
    folded = pa.concat_tables(parts) if parts else None
    nm = int(pc.sum(folded["n"]).as_py() or 0) if folded is not None else 0
    if nm == 0:  # SUM over zero rows is NULL in SQL (ADVICE r4)
        return pa.table({"revenue": pa.array([None], pa.float64())})
    micro = int(pc.sum(folded["rev_micro"]).as_py() or 0)
    return pa.table({"revenue": pa.array([micro / 10000.0], pa.float64())})


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape (global sales opportunity), adapted to the shipped
    customer schema (nationkey stands in for the phone country code):
    customers with above-average positive balances and no RECENT orders
    (the corpus assigns every customer at least one order overall, so
    the dormancy window replaces Q22's no-orders-ever test), grouped by
    nation. The average-balance cutoff is decided AS INTEGERS (cents *
    count > sum_cents — no float average exists in either engine); the
    dormancy test rides the existing distributed semi/anti-join
    (distinct-custkey combiner, broadcast below the key cap, keyed
    exchange above); the final groupby is |nations|-bounded bincount
    partials."""
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.relational import semi_anti_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["c_acctbal"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        pos = cents[cents > 0]
        return pa.table({"s": pa.array([int(pos.sum())], pa.int64()),
                         "n": pa.array([len(pos)], pa.int64())})

    parts = [b for b in cust.map_batches(bal_partial,
                                         batch_format="pyarrow")
             .iter_batches(batch_size=65536, batch_format="pyarrow")]
    if parts:
        tot = pa.concat_tables(parts)
        s = int(pc.sum(tot["s"]).as_py() or 0)
        n = int(pc.sum(tot["n"]).as_py() or 0)
    else:
        s = n = 0

    def rich(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["c_acctbal"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(cents * n > s))

    rich_ds = cust.map_batches(rich, batch_format="pyarrow")
    RECENT = int(pd.Timestamp("2000-01-01").value // 1000)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def recent(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return t.filter(pa.array(od >= RECENT)).select(["o_custkey"])

    lonely = semi_anti_join(
        rich_ds, orders.map_batches(recent, batch_format="pyarrow"),
        left_on="c_custkey", right_on="o_custkey", anti=True)

    def nat_partial(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(t["c_acctbal"], 100)),
                        pa.int64()).to_numpy(zero_copy_only=False)
        uk, inv = np.unique(nk, return_inverse=True)
        sc = np.zeros(len(uk), np.int64)
        np.add.at(sc, inv, cents)
        return pa.table({"c_nationkey": pa.array(uk, pa.int64()),
                         "numcust": pa.array(np.bincount(inv)
                                             .astype(np.int64)),
                         "bal_cents": pa.array(sc)})

    agg = lonely.map_batches(nat_partial, batch_format="pyarrow") \
        .groupby("c_nationkey").aggregate(
            Sum("numcust", alias_name="numcust"),
            Sum("bal_cents", alias_name="bal_cents"))
    # |nations|-bounded result: gather so the empty case keeps its schema
    t = gather_capped(agg, 1_000_000, pa.schema(
        [("c_nationkey", pa.int64()), ("numcust", pa.int64()),
         ("bal_cents", pa.int64())]))
    assert t is not None, "q22 nation aggregate overflowed the cap"
    return pa.table({
        "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
        "numcust": pc.cast(t["numcust"], pa.int64()),
        "totacctbal": pc.divide(
            pc.cast(pc.cast(t["bal_cents"], pa.int64()), pa.float64()),
            100.0)})


def q_tpch_q7(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q7 shape (volume shipping between two nations): revenue per
    (supplier nation, customer nation, ship year) for the ordered pairs
    of two fixed nations over a two-year window. Mirrors the q_tpch_q5
    plan: the two nations' customer map, their supplier slice, and the
    restricted (orderkey -> customer nation) map each broadcast only
    under ``broadcast_max_rows``; any side over the cap flips to its
    keyed exchange (customer: inner_join inside the orders scan;
    supplier: inner_join on l_suppkey; orders: inner_join on
    l_orderkey) — force-tested bit-equal at broadcast_max_rows=0.
    Partials are bounded by 2 pair-directions x |years|; revenue is
    int64 cents x (100 - disc_pct), division replayed in SQL."""
    import ray
    from ray.data.aggregate import Sum

    N1, N2 = "NATION_1", "NATION_2"
    LO = int(pd.Timestamp("1996-01-01").value // 1000)
    HI = int(pd.Timestamp("1998-01-01").value // 1000)

    nat_parts = [b for b in _read(sf_dir, "nation",
                                  ["n_nationkey", "n_name"])
                 .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nat = pa.concat_tables(nat_parts) if nat_parts else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string())})
    nk = nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    nn = np.asarray(nat["n_name"].to_pylist(), dtype=object)
    k1 = nk[nn == N1]
    k2 = nk[nn == N2]
    if not len(k1) or not len(k2):
        return pa.table({"supp_nation": pa.array([], pa.string()),
                         "cust_nation": pa.array([], pa.string()),
                         "l_year": pa.array([], pa.int64()),
                         "revenue": pa.array([], pa.float64())})
    k1, k2 = int(k1[0]), int(k2[0])
    name_of = {k1: N1, k2: N2}

    # dimension-side gathers are CAPPED too (VERDICT r4 #2): the two
    # nations' customer map and supplier slice are SF-proportional, so
    # each flips to its keyed exchange above ``broadcast_max_rows``
    # (customer: inner_join inside the orders scan; supplier: inner_join
    # on l_suppkey) — force-tested bit-equal at broadcast_max_rows=0.
    def cmap(t: pa.Table) -> pa.Table:
        v = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = pa.array((v == k1) | (v == k2))
        return pa.table({
            "c_custkey": t["c_custkey"].cast(pa.int64()).filter(m),
            "cnat": t["c_nationkey"].cast(pa.int64()).filter(m)})

    c_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(cmap, batch_format="pyarrow")
    ct = gather_capped(c_ds, broadcast_max_rows, pa.schema(
        [("c_custkey", pa.int64()), ("cnat", pa.int64())]))

    def smap(t: pa.Table) -> pa.Table:
        v = t["s_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = pa.array((v == k1) | (v == k2))
        return pa.table({
            "s_suppkey": t["s_suppkey"].cast(pa.int64()).filter(m),
            "snat": t["s_nationkey"].cast(pa.int64()).filter(m)})

    s_ds = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .map_batches(smap, batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows, pa.schema(
        [("s_suppkey", pa.int64()), ("snat", pa.int64())]))
    if st is not None:
        sk = st["s_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sn = st["snat"].to_numpy(zero_copy_only=False).astype(np.int64)
        so = np.argsort(sk)
        sk, sn = sk[so], sn[so]
        sup_ref = ray.put((sk, sn))
    else:
        sk = sn = sup_ref = None

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    if ct is not None:
        ck = ct["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cn = ct["cnat"].to_numpy(zero_copy_only=False).astype(np.int64)
        co = np.argsort(ck)
        cref = ray.put((ck[co], cn[co]))

        def ofilt(t: pa.Table) -> pa.Table:
            k, v = cached_get(cref)
            oc = t["o_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if len(k):
                i = np.clip(np.searchsorted(k, oc), 0, len(k) - 1)
                m = k[i] == oc
                cnat = v[i]
            else:
                m = np.zeros(len(oc), dtype=bool)
                cnat = np.zeros(len(oc), np.int64)
            return pa.table({
                "ok": t["o_orderkey"].cast(pa.int64()).filter(pa.array(m)),
                "cnat": pa.array(cnat[m], pa.int64())})

        o_ds = orders.map_batches(ofilt, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        j0 = inner_join(orders.map_batches(
            lambda t: pa.table({
                "ok": t["o_orderkey"].cast(pa.int64()),
                "oc": t["o_custkey"].cast(pa.int64())}),
            batch_format="pyarrow"), c_ds,
            left_on="oc", right_on="c_custkey", hot_key_threshold=0)
        o_ds = j0.map_batches(
            lambda t: pa.table({"ok": pc.cast(t["ok"], pa.int64()),
                                "cnat": pc.cast(t["cnat"], pa.int64())}),
            batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("cnat", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_suppkey", "l_shipdate",
                      "l_extendedprice", "l_discount"])
    _EMPTY = pa.table({"snat": pa.array([], pa.int64()),
                       "cnat": pa.array([], pa.int64()),
                       "l_year": pa.array([], pa.int64()),
                       "rev_micro": pa.array([], pa.int64())})

    def pair_partial(snat, cnat, year, micro) -> pa.Table:
        """<= 2 x |years|-bounded partial over (snat, cnat, year)."""
        key = (snat * 2 + (cnat == k2).astype(np.int64)) * 4096 + year
        uk, inv = np.unique(key, return_inverse=True)
        rev = np.zeros(len(uk), np.int64)
        np.add.at(rev, inv, micro)
        return pa.table({
            "snat": pa.array(uk // 4096 // 2, pa.int64()),
            "cnat": pa.array(np.where((uk // 4096) % 2 == 1, k2, k1)
                             .astype(np.int64) if len(uk) else
                             np.empty(0, np.int64), pa.int64()),
            "l_year": pa.array(uk % 4096, pa.int64()),
            "rev_micro": pa.array(rev)})

    def li_common(t: pa.Table):
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (sd >= LO) & (sd < HI)
        snat = None
        if sup_ref is not None:
            sk_, sn_ = cached_get(sup_ref)
            ls = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if len(sk_):
                j = np.clip(np.searchsorted(sk_, ls), 0, len(sk_) - 1)
                m &= sk_[j] == ls
                snat = sn_[j]
            else:
                m &= False
                snat = np.zeros(len(ls), np.int64)
        yr = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return m, snat, yr, ep * (100 - dc)

    if sk is not None and ot is not None:
        okeys = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        onat = ot["cnat"].to_numpy(zero_copy_only=False).astype(np.int64)
        oo = np.argsort(okeys)
        oref = ray.put((okeys[oo], onat[oo]))

        def partial(t: pa.Table) -> pa.Table:
            ok, on = cached_get(oref)
            m, snat, yr, micro = li_common(t)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            if not len(ok):
                return _EMPTY
            i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
            m &= ok[i] == lo
            cnat = on[i]
            # opposite-nation pairs only
            m &= snat != cnat
            return pair_partial(snat[m], cnat[m], yr[m], micro[m])

        joined_partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        # staged plan: each overflowed side rides its own keyed exchange
        from ray_data_mplsh.stages.relational import inner_join

        def lprep(t: pa.Table) -> pa.Table:
            m, snat, yr, micro = li_common(t)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            cols = {"lok": pa.array(lo[m], pa.int64())}
            if sk is None:
                ls = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                cols["ls"] = pa.array(ls[m], pa.int64())
            else:
                cols["snat"] = pa.array(snat[m], pa.int64())
            cols["l_year"] = pa.array(yr[m], pa.int64())
            cols["micro"] = pa.array(micro[m], pa.int64())
            return pa.table(cols)

        ds = li.map_batches(lprep, batch_format="pyarrow")
        if sk is None:
            ds = inner_join(ds, s_ds, left_on="ls",
                            right_on="s_suppkey", hot_key_threshold=0)
            ds = ds.map_batches(
                lambda t: pa.table({
                    "lok": pc.cast(t["lok"], pa.int64()),
                    "snat": pc.cast(t["snat"], pa.int64()),
                    "l_year": pc.cast(t["l_year"], pa.int64()),
                    "micro": pc.cast(t["micro"], pa.int64())}),
                batch_format="pyarrow")

        def post(t: pa.Table) -> pa.Table:
            sn_ = t["snat"].to_numpy(zero_copy_only=False).astype(np.int64)
            cn_ = t["cnat"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = sn_ != cn_
            return pair_partial(
                sn_[m], cn_[m],
                t["l_year"].to_numpy(zero_copy_only=False)
                .astype(np.int64)[m],
                t["micro"].to_numpy(zero_copy_only=False)
                .astype(np.int64)[m])

        if ot is not None:
            okeys = ot["ok"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            onat = ot["cnat"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            oo = np.argsort(okeys)
            oref = ray.put((okeys[oo], onat[oo]))

            def probe_cnat(t: pa.Table) -> pa.Table:
                ok, on = cached_get(oref)
                lo = t["lok"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                if not len(ok):
                    return _EMPTY
                i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
                hit = ok[i] == lo
                return post(pa.table({
                    "snat": t["snat"].filter(pa.array(hit)),
                    "cnat": pa.array(on[i][hit], pa.int64()),
                    "l_year": t["l_year"].filter(pa.array(hit)),
                    "micro": t["micro"].filter(pa.array(hit))}))

            joined_partials = ds.map_batches(probe_cnat,
                                             batch_format="pyarrow")
        else:
            j = inner_join(ds, o_ds, left_on="lok", right_on="ok",
                           hot_key_threshold=0)
            joined_partials = j.map_batches(post, batch_format="pyarrow")

    agg = joined_partials.groupby(["snat", "cnat", "l_year"]) \
        .aggregate(Sum("rev_micro", alias_name="rev_micro"))
    # <= 2 pair-directions x |years| rows: gather so the empty case
    # keeps its schema
    t = gather_capped(agg, 1_000_000, pa.schema(
        [("snat", pa.int64()), ("cnat", pa.int64()),
         ("l_year", pa.int64()), ("rev_micro", pa.int64())]))
    assert t is not None, "q7 pair-year aggregate overflowed the cap"
    sn_ = t["snat"].to_numpy(zero_copy_only=False).astype(np.int64)
    cn_ = t["cnat"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "supp_nation": pa.array([name_of[int(x)] for x in sn_],
                                pa.string()),
        "cust_nation": pa.array([name_of[int(x)] for x in cn_],
                                pa.string()),
        "l_year": pc.cast(t["l_year"], pa.int64()),
        "revenue": pc.divide(
            pc.cast(pc.cast(t["rev_micro"], pa.int64()), pa.float64()),
            10000.0)})


def q_tpch_q8(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q8 shape (national market share): one nation's share of a
    region's revenue for one part type, per order year. All three
    dimension filters (part-type partkeys, suppkey -> is-nation flag,
    region custkeys) and the two-year orders window broadcast only
    under ``broadcast_max_rows``; any side over the cap flips to its
    keyed exchange (part: semi-join on l_partkey; supplier flag:
    inner_join on l_suppkey; custkey filter: semi-join in the orders
    scan; orders: the q5/q7 inner_join on l_orderkey) — force-tested
    bit-equal at broadcast_max_rows=0. Each lineitem batch folds to
    <= |years| (numerator, denominator) int64 cent partials; the one
    share division is replayed in SQL."""
    import ray
    from ray.data.aggregate import Sum

    REGION, PTYPE, NATION = "AMERICA", "ECONOMY", "NATION_5"
    LO = int(pd.Timestamp("1996-01-01").value // 1000)
    HI = int(pd.Timestamp("1998-01-01").value // 1000)

    # region + nation are driver-tiny
    reg_rows = [b for b in _read(sf_dir, "region",
                                 ["r_regionkey", "r_name"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    reg = pa.concat_tables(reg_rows) if reg_rows else pa.table(
        {"r_regionkey": pa.array([], pa.int64()),
         "r_name": pa.array([], pa.string())})
    rk = reg.filter(pc.equal(reg["r_name"], REGION))["r_regionkey"] \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name", "n_regionkey"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nat = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string()),
         "n_regionkey": pa.array([], pa.int64())})
    nk_all = nat["n_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    in_reg = np.isin(nat["n_regionkey"].to_numpy(zero_copy_only=False)
                     .astype(np.int64), rk)
    reg_nkeys = nk_all[in_reg]
    nn = np.asarray(nat["n_name"].to_pylist(), dtype=object)
    target_nk = nk_all[nn == NATION]
    target_nk = int(target_nk[0]) if len(target_nk) else -1

    # dimension-side gathers are CAPPED too (VERDICT r4 #2): each
    # SF-proportional side flips to its keyed exchange above the cap —
    # part to a distributed semi-join on l_partkey, the supplier
    # is-nation flag to an inner_join on l_suppkey, the region custkey
    # filter to a semi-join inside the orders scan.
    p_ds = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda t: pa.table({
            "p_partkey": t["p_partkey"].cast(pa.int64()).filter(
                pc.equal(t["p_type"], PTYPE))}), batch_format="pyarrow")
    pt_ = gather_capped(p_ds, broadcast_max_rows,
                        pa.schema([("p_partkey", pa.int64())]))
    ppk = np.sort(pt_["p_partkey"].to_numpy(zero_copy_only=False)
                  .astype(np.int64)) if pt_ is not None else None

    def smap(t: pa.Table) -> pa.Table:
        isn = (t["s_nationkey"].to_numpy(zero_copy_only=False)
               .astype(np.int64) == target_nk).astype(np.int8)
        return pa.table({"s_suppkey": t["s_suppkey"].cast(pa.int64()),
                         "s_isnat": pa.array(isn, pa.int8())})

    s_ds = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .map_batches(smap, batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows, pa.schema(
        [("s_suppkey", pa.int64()), ("s_isnat", pa.int8())]))
    if st is not None:
        sk = st["s_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sfl = st["s_isnat"].to_numpy(zero_copy_only=False) \
            .astype(np.int8)
        so = np.argsort(sk)
        sk, sfl = sk[so], sfl[so]
    else:
        sk = sfl = None
    dref = ray.put((ppk, sk, sfl))

    # region custkeys (reg_nkeys is nation-bounded, <= 25 — rides the
    # closure; the custkey SET is the SF-proportional side being capped)
    c_ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "c_custkey": t["c_custkey"].cast(pa.int64()).filter(
                pa.array(np.isin(
                    t["c_nationkey"].to_numpy(zero_copy_only=False)
                    .astype(np.int64), reg_nkeys)))}),
            batch_format="pyarrow")
    ct = gather_capped(c_ds, broadcast_max_rows,
                       pa.schema([("c_custkey", pa.int64())]))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    if ct is not None:
        ck = np.sort(ct["c_custkey"].to_numpy(zero_copy_only=False)
                     .astype(np.int64))
        cref = ray.put(ck)

        def ofilt(t: pa.Table) -> pa.Table:
            keys = cached_get(cref)
            od = t["o_orderdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            oc = t["o_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            m = (od >= LO) & (od < HI)
            if len(keys):
                i = np.clip(np.searchsorted(keys, oc), 0, len(keys) - 1)
                m &= keys[i] == oc
            else:
                m &= False
            yr = pc.year(t["o_orderdate"]).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                "ok": t["o_orderkey"].cast(pa.int64()).filter(pa.array(m)),
                "o_year": pa.array(yr[m], pa.int64())})

        o_ds = orders.map_batches(ofilt, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import semi_anti_join

        def odate(t: pa.Table) -> pa.Table:
            od = t["o_orderdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            return t.filter(pa.array((od >= LO) & (od < HI)))

        o_ds = semi_anti_join(
            orders.map_batches(odate, batch_format="pyarrow"), c_ds,
            left_on="o_custkey", right_on="c_custkey",
            broadcast_max_keys=broadcast_max_rows).map_batches(
                lambda t: pa.table({
                    "ok": t["o_orderkey"].cast(pa.int64()),
                    "o_year": pc.cast(pc.year(t["o_orderdate"]),
                                      pa.int64())}),
                batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("o_year", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_partkey", "l_suppkey",
                      "l_extendedprice", "l_discount"])

    def li_common(t: pa.Table):
        """part + supplier attach: mask, is-nation flag (or None when
        the supplier side is on its exchange), cent micros — applies
        whichever probes are broadcast-resident."""
        pk_, sk_, sf_ = cached_get(dref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.ones(len(lp), dtype=bool)
        if pk_ is not None:
            if len(pk_):
                i = np.clip(np.searchsorted(pk_, lp), 0, len(pk_) - 1)
                m &= pk_[i] == lp
            else:
                m &= False
        isn = None
        if sk_ is not None:
            if len(sk_):
                j = np.clip(np.searchsorted(sk_, ls), 0, len(sk_) - 1)
                m &= sk_[j] == ls
                isn = sf_[j].astype(np.int64)
            else:
                m &= False
                isn = np.zeros(len(ls), np.int64)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return m, isn, ep * (100 - dc)

    def year_partial(yr, isn, micro) -> pa.Table:
        uk, inv = np.unique(yr, return_inverse=True)
        den = np.zeros(len(uk), np.int64)
        num = np.zeros(len(uk), np.int64)
        np.add.at(den, inv, micro)
        np.add.at(num, inv, micro * isn)
        return pa.table({"o_year": pa.array(uk, pa.int64()),
                         "num_micro": pa.array(num),
                         "den_micro": pa.array(den)})

    _EMPTY = pa.table({"o_year": pa.array([], pa.int64()),
                       "num_micro": pa.array([], pa.int64()),
                       "den_micro": pa.array([], pa.int64())})

    dims_resident = ppk is not None and sk is not None
    if dims_resident and ot is not None:
        # fully fused fast path: all three probes in ONE map, partials out
        okeys = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        oyr = ot["o_year"].to_numpy(zero_copy_only=False).astype(np.int64)
        oo = np.argsort(okeys)
        oref = ray.put((okeys[oo], oyr[oo]))

        def partial(t: pa.Table) -> pa.Table:
            ok, oy = cached_get(oref)
            m, isn, micro = li_common(t)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            if not len(ok):
                return _EMPTY
            i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
            m &= ok[i] == lo
            return year_partial(oy[i][m], isn[m], micro[m])

        partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        # staged plan: each overflowed side rides its own keyed exchange
        from ray_data_mplsh.stages.relational import (inner_join,
                                                      semi_anti_join)

        def lprep(t: pa.Table) -> pa.Table:
            m, isn, micro = li_common(t)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            cols = {"lok": pa.array(lo[m], pa.int64())}
            if ppk is None:
                lp = t["l_partkey"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                cols["lp"] = pa.array(lp[m], pa.int64())
            if sk is None:
                ls = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                cols["ls"] = pa.array(ls[m], pa.int64())
            else:
                cols["isn"] = pa.array(isn[m], pa.int64())
            cols["micro"] = pa.array(micro[m], pa.int64())
            return pa.table(cols)

        ds = li.map_batches(lprep, batch_format="pyarrow")
        if ppk is None:
            ds = semi_anti_join(ds, p_ds, left_on="lp",
                                right_on="p_partkey",
                                broadcast_max_keys=broadcast_max_rows)
            ds = ds.map_batches(lambda t: t.drop_columns(["lp"]),
                                batch_format="pyarrow")
        if sk is None:
            ds = inner_join(ds, s_ds, left_on="ls",
                            right_on="s_suppkey", hot_key_threshold=0)
            ds = ds.map_batches(
                lambda t: pa.table({
                    "lok": pc.cast(t["lok"], pa.int64()),
                    "isn": pc.cast(t["s_isnat"], pa.int64()),
                    "micro": pc.cast(t["micro"], pa.int64())}),
                batch_format="pyarrow")
        if ot is not None:
            okeys = ot["ok"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            oyr = ot["o_year"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            oo = np.argsort(okeys)
            oref = ray.put((okeys[oo], oyr[oo]))

            def probe_year(t: pa.Table) -> pa.Table:
                ok, oy = cached_get(oref)
                lo = t["lok"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                if not len(ok):
                    return _EMPTY
                i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
                hit = ok[i] == lo
                return year_partial(
                    oy[i][hit],
                    t["isn"].to_numpy(zero_copy_only=False)
                    .astype(np.int64)[hit],
                    t["micro"].to_numpy(zero_copy_only=False)
                    .astype(np.int64)[hit])

            partials = ds.map_batches(probe_year, batch_format="pyarrow")
        else:
            j = inner_join(ds, o_ds, left_on="lok", right_on="ok",
                           hot_key_threshold=0)

            def post(t: pa.Table) -> pa.Table:
                return year_partial(
                    t["o_year"].to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    t["isn"].to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    t["micro"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))

            partials = j.map_batches(post, batch_format="pyarrow")

    agg = partials.groupby("o_year").aggregate(
        Sum("num_micro", alias_name="num_micro"),
        Sum("den_micro", alias_name="den_micro"))
    t = gather_capped(agg, 1_000_000, pa.schema(
        [("o_year", pa.int64()), ("num_micro", pa.int64()),
         ("den_micro", pa.int64())]))
    assert t is not None, "q8 year aggregate overflowed the cap"
    num = t["num_micro"].to_numpy(zero_copy_only=False).astype(np.float64)
    den = t["den_micro"].to_numpy(zero_copy_only=False).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = num / den
    return pa.table({"o_year": pc.cast(t["o_year"], pa.int64()),
                     "mkt_share": pa.array(share, pa.float64())})


def q_tpch_q9(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q9 shape (product-type profit), adapted to the shipped
    schema (no partsupp supplycost, so profit = discounted revenue):
    revenue from parts whose name matches a pattern, grouped by
    supplier nation x order year. Part filter (Arrow match_substring —
    DuckDB's LIKE '%red%' twin), suppkey -> nationkey, and the sorted
    (orderkey -> year) map each broadcast only under
    ``broadcast_max_rows``; any side over the cap flips to its keyed
    exchange (part: distributed semi-join on l_partkey; supplier:
    inner_join on l_suppkey; orders: the q5/q7/q8 inner_join on
    l_orderkey) — at real scale Q9 is always on the exchange path, the
    broadcasts are the small-sf fast path. Partials are |nations| x
    |years|-bounded int64 cents."""
    import ray
    from ray.data.aggregate import Sum

    PATTERN = "red"

    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nat = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string())})
    nkeys = nat["n_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    nnames = np.asarray(nat["n_name"].to_pylist(), dtype=object)
    no = np.argsort(nkeys)
    nkeys, nnames = nkeys[no], nnames[no]

    # dimension-side gathers are CAPPED too (VERDICT r4 #2): the
    # pattern-matched part slice and the supplier map are SF-proportional,
    # so above ``broadcast_max_rows`` each flips to its keyed exchange —
    # part becomes a distributed semi-join on l_partkey, supplier an
    # inner_join on l_suppkey (1:1, hot-key detection off). All flips are
    # force-tested bit-equal with broadcast_max_rows=0.
    p_ds = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda t: pa.table({
            "p_partkey": t["p_partkey"].cast(pa.int64()).filter(
                pc.match_substring(t["p_name"], pattern=PATTERN))}),
        batch_format="pyarrow")
    pt = gather_capped(p_ds, broadcast_max_rows,
                       pa.schema([("p_partkey", pa.int64())]))
    ppk = np.sort(pt["p_partkey"].to_numpy(zero_copy_only=False)
                  .astype(np.int64)) if pt is not None else None

    s_ds = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "s_suppkey": t["s_suppkey"].cast(pa.int64()),
            "s_nationkey": t["s_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows, pa.schema(
        [("s_suppkey", pa.int64()), ("s_nationkey", pa.int64())]))
    if st is not None:
        sk = st["s_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sn = st["s_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        so = np.argsort(sk)
        sk, sn = sk[so], sn[so]
    else:
        sk = sn = None
    dref = ray.put((ppk, sk, sn))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def oyear(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": t["o_orderkey"].cast(pa.int64()),
            "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64())})

    o_ds = orders.map_batches(oyear, batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("o_year", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_partkey", "l_suppkey",
                      "l_extendedprice", "l_discount"])

    def li_common(t: pa.Table):
        """(keep mask, supplier nation or None, int64 micro revenue):
        applies whichever dimension probes are broadcast-resident; the
        exchange stages below cover the overflowed sides."""
        pk_, sk_, sn_ = cached_get(dref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.ones(len(lp), dtype=bool)
        if pk_ is not None:
            if len(pk_):
                i = np.clip(np.searchsorted(pk_, lp), 0, len(pk_) - 1)
                m &= pk_[i] == lp
            else:
                m &= False
        snat = None
        if sk_ is not None:
            if len(sk_):
                j = np.clip(np.searchsorted(sk_, ls), 0, len(sk_) - 1)
                m &= sk_[j] == ls
                snat = sn_[j]
            else:
                m &= False
                snat = np.zeros(len(ls), np.int64)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return m, snat, ep * (100 - dc)

    def ny_partial(snat, yr, micro) -> pa.Table:
        key = snat * 4096 + yr
        uk, inv = np.unique(key, return_inverse=True)
        rev = np.zeros(len(uk), np.int64)
        np.add.at(rev, inv, micro)
        return pa.table({"nkey": pa.array(uk // 4096, pa.int64()),
                         "o_year": pa.array(uk % 4096, pa.int64()),
                         "rev_micro": pa.array(rev)})

    _EMPTY = pa.table({"nkey": pa.array([], pa.int64()),
                       "o_year": pa.array([], pa.int64()),
                       "rev_micro": pa.array([], pa.int64())})

    dims_resident = ppk is not None and sk is not None
    if dims_resident and ot is not None:
        # fully fused fast path: all three probes in ONE map, partials out
        okeys = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        oyr = ot["o_year"].to_numpy(zero_copy_only=False).astype(np.int64)
        oo = np.argsort(okeys)
        oref = ray.put((okeys[oo], oyr[oo]))

        def partial(t: pa.Table) -> pa.Table:
            ok, oy = cached_get(oref)
            m, snat, micro = li_common(t)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            if not len(ok):
                return _EMPTY
            i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
            m &= ok[i] == lo
            return ny_partial(snat[m], oy[i][m], micro[m])

        partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        # staged plan: each overflowed side rides its own keyed exchange;
        # any side that DID fit the cap still probes map-side in lprep.
        from ray_data_mplsh.stages.relational import (inner_join,
                                                      semi_anti_join)

        def lprep(t: pa.Table) -> pa.Table:
            m, snat, micro = li_common(t)
            lo = t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            cols = {"lok": pa.array(lo[m], pa.int64())}
            if ppk is None:
                lp = t["l_partkey"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                cols["lp"] = pa.array(lp[m], pa.int64())
            if sk is None:
                ls = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                cols["ls"] = pa.array(ls[m], pa.int64())
            else:
                cols["snat"] = pa.array(snat[m], pa.int64())
            cols["micro"] = pa.array(micro[m], pa.int64())
            return pa.table(cols)

        ds = li.map_batches(lprep, batch_format="pyarrow")
        if ppk is None:
            ds = semi_anti_join(ds, p_ds, left_on="lp",
                                right_on="p_partkey",
                                broadcast_max_keys=broadcast_max_rows)
            ds = ds.map_batches(lambda t: t.drop_columns(["lp"]),
                                batch_format="pyarrow")
        if sk is None:
            ds = inner_join(ds, s_ds, left_on="ls",
                            right_on="s_suppkey", hot_key_threshold=0)
            ds = ds.map_batches(
                lambda t: pa.table({
                    "lok": pc.cast(t["lok"], pa.int64()),
                    "snat": pc.cast(t["s_nationkey"], pa.int64()),
                    "micro": pc.cast(t["micro"], pa.int64())}),
                batch_format="pyarrow")
        if ot is not None:
            okeys = ot["ok"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            oyr = ot["o_year"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            oo = np.argsort(okeys)
            oref = ray.put((okeys[oo], oyr[oo]))

            def probe_year(t: pa.Table) -> pa.Table:
                ok, oy = cached_get(oref)
                lo = t["lok"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                if not len(ok):
                    return _EMPTY
                i = np.clip(np.searchsorted(ok, lo), 0, len(ok) - 1)
                hit = ok[i] == lo
                return ny_partial(
                    t["snat"].to_numpy(zero_copy_only=False)
                    .astype(np.int64)[hit], oy[i][hit],
                    t["micro"].to_numpy(zero_copy_only=False)
                    .astype(np.int64)[hit])

            partials = ds.map_batches(probe_year, batch_format="pyarrow")
        else:
            j = inner_join(ds, o_ds, left_on="lok", right_on="ok",
                           hot_key_threshold=0)

            def post(t: pa.Table) -> pa.Table:
                return ny_partial(
                    t["snat"].to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    t["o_year"].to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    t["micro"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))

            partials = j.map_batches(post, batch_format="pyarrow")

    agg = partials.groupby(["nkey", "o_year"]).aggregate(
        Sum("rev_micro", alias_name="rev_micro"))
    t = gather_capped(agg, 1_000_000, pa.schema(
        [("nkey", pa.int64()), ("o_year", pa.int64()),
         ("rev_micro", pa.int64())]))
    assert t is not None, "q9 nation-year aggregate overflowed the cap"
    nk_ = t["nkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(nkeys):
        i = np.clip(np.searchsorted(nkeys, nk_), 0, len(nkeys) - 1)
        hit = nkeys[i] == nk_  # inner-join semantics: drop orphan nationkeys
    else:
        i = np.zeros(len(nk_), np.int64)
        hit = np.zeros(len(nk_), dtype=bool)
    names = nnames[i[hit]].astype(object) if len(nkeys) else \
        np.empty(0, object)
    yr = t["o_year"].to_numpy(zero_copy_only=False).astype(np.int64)[hit]
    rev = t["rev_micro"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)[hit] / 10000.0
    return pa.table({
        "nation": pa.array(names, pa.string()),
        "o_year": pa.array(yr, pa.int64()),
        "revenue": pa.array(rev, pa.float64())})


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 shape (supplier count per part attribute), adapted to
    the shipped schema: the partsupp relation is stood in by the
    DISTINCT (l_partkey, l_suppkey) pairs observed in lineitem. Parts of
    one excluded brand are dropped, survivors grouped by (brand, type,
    size) with an exact COUNT(DISTINCT supplier). The part dimension
    reduces to a broadcast partkey -> group-code lookup; each lineitem
    batch emits its DISTINCT (group, suppkey) pairs (a combiner —
    exchange volume is bounded by |groups| x |suppliers|, not rows), one
    pair-keyed groupby dedups globally, and a |groups|-bounded reduce
    counts. Group attributes re-attach from the driver-held code
    table."""
    import ray
    from ray.data.aggregate import Count, Sum

    EXCL = "Brand#4"
    SIZES = np.array([1, 7, 14, 23, 36, 45], np.int64)

    part = _read(sf_dir, "part",
                 ["p_partkey", "p_brand", "p_type", "p_size"])
    rows = [b for b in part.iter_batches(batch_size=65536,
                                         batch_format="pyarrow")]
    pt = pa.concat_tables(rows) if rows else pa.table(
        {"p_partkey": pa.array([], pa.int64()),
         "p_brand": pa.array([], pa.string()),
         "p_type": pa.array([], pa.string()),
         "p_size": pa.array([], pa.int32())})
    br = np.asarray(pt["p_brand"].to_pylist(), dtype=object)
    ty = np.asarray(pt["p_type"].to_pylist(), dtype=object)
    sz = pt["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = (br != EXCL) & np.isin(sz, SIZES)
    pk = pt["p_partkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[keep]
    gkey = pd.factorize(
        pd.Series([f"{b}|{t}|{s}" for b, t, s in
                   zip(br[keep], ty[keep], sz[keep])]), sort=False)
    codes, uniq = gkey
    # driver-held group attribute table, |groups|-sized
    first = pd.Series(np.arange(len(codes))).groupby(codes).min().values
    g_brand = br[keep][first]
    g_type = ty[keep][first]
    g_size = sz[keep][first]
    po = np.argsort(pk)
    ref = ray.put((pk[po], codes[po].astype(np.int64)))

    li = _read_sized(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def pairs(t: pa.Table) -> pa.Table:
        keys, gcode = cached_get(ref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(keys):
            return pa.table({"pair": pa.array([], pa.int64())})
        i = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
        m = keys[i] == lp
        # pack (group, suppkey) into one int64: suppkeys are dense ids
        # (TPC-H: 10k per SF, < 2^32 even at SF 100k) and group codes
        # are |part-attr combos| < 2^31 — guard the packing invariant
        # rather than silently corrupt
        lsm = ls[m]
        assert not len(lsm) or (int(lsm.max()) < (1 << 32)
                                and int(lsm.min()) >= 0), \
            "q16 pair packing needs suppkey in [0, 2^32)"
        pair = np.unique(gcode[i][m] << 32 | lsm)
        return pa.table({"pair": pa.array(pair, pa.int64())})

    dedup = li.map_batches(pairs, batch_format="pyarrow") \
        .groupby("pair").aggregate(Count(alias_name="_n"))

    def per_group(t: pa.Table) -> pa.Table:
        g = t["pair"].to_numpy(zero_copy_only=False) \
            .astype(np.int64) >> 32
        uk, inv = np.unique(g, return_inverse=True)
        return pa.table({"g": pa.array(uk, pa.int64()),
                         "n": pa.array(np.bincount(inv)
                                       .astype(np.int64))})

    agg = dedup.map_batches(per_group, batch_format="pyarrow") \
        .groupby("g").aggregate(Sum("n", alias_name="supplier_cnt"))
    t = gather_capped(agg, 4_000_000, pa.schema(
        [("g", pa.int64()), ("supplier_cnt", pa.int64())]))
    assert t is not None, "q16 group aggregate overflowed the cap"
    g = t["g"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "p_brand": pa.array(g_brand[g].astype(object), pa.string()),
        "p_type": pa.array(g_type[g].astype(object), pa.string()),
        "p_size": pa.array(g_size[g], pa.int64()),
        "supplier_cnt": pc.cast(t["supplier_cnt"], pa.int64())})


def q_gopher_quality(sf_dir: str):
    """Gopher-style document quality rules (Rae et al. 2021, table A1
    subset adapted to the single-spaced corpus): per-doc word count
    bounds, mean-word-length band, alphabetic-word fraction, and
    stopword presence. Stateless one-pass map, no exchange; every rule
    is decided AS INTEGERS (3n <= chars <= 10n, 5*alpha >= 4*n) so no
    float ratio can tie-break differently across engines. Splitting
    keeps empty tokens exactly like DuckDB's string_split, and word
    character mass comes from len(text) - #spaces so multi-space runs
    agree too."""
    STOP = pa.array(["the", "a", "of", "and", "to"], pa.string())

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, pattern=" ")
        nw = pc.list_value_length(words).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_sp = pc.count_substring(text, pattern=" ") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        wchars = pc.utf8_length(text).to_numpy(zero_copy_only=False) \
            .astype(np.int64) - n_sp
        flat = words.flatten()
        seg = np.concatenate(([0], np.cumsum(nw)))[:-1]
        alpha = pc.match_substring_regex(flat, pattern="[a-z]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        stop = pc.is_in(flat, value_set=STOP) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_alpha = np.add.reduceat(alpha, seg) if len(flat) else \
            np.zeros(len(nw), np.int64)
        n_stop = np.add.reduceat(stop, seg) if len(flat) else \
            np.zeros(len(nw), np.int64)
        if len(nw):  # reduceat repeats segments for empty docs
            n_alpha[nw == 0] = 0
            n_stop[nw == 0] = 0
        ok_nwords = (nw >= 50) & (nw <= 100000)
        ok_meanlen = (3 * nw <= wchars) & (wchars <= 10 * nw)
        ok_alpha = 5 * n_alpha >= 4 * nw
        ok_stop = n_stop >= 2
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(nw, pa.int64()),
            "ok_nwords": pa.array(ok_nwords),
            "ok_meanlen": pa.array(ok_meanlen),
            "ok_alpha": pa.array(ok_alpha),
            "ok_stop": pa.array(ok_stop),
            "keep": pa.array(ok_nwords & ok_meanlen & ok_alpha & ok_stop)})

    return ds.map_batches(score, batch_format="pyarrow")


def dedup_tiers(ds, prefix_len: int = 40):
    """Tier-dedup attribution over a (doc_id, text) Dataset: label every
    document with the FIRST dedup tier that would remove it — 'exact'
    (byte-identical to an earlier doc), 'normalized' (case/punctuation-
    insensitive duplicate), 'prefix' (first ``prefix_len`` chars of the
    NORMALIZED text collide — the cheap blocking tier web pipelines run
    before MinHash), else 'unique'. The three group relations are nested
    (exact ⊆ normalized ⊆ norm-prefix), so ONE exchange routed on the
    norm-prefix hash co-locates every member of all three groups and
    classifies with three in-partition factorize/min passes. Min doc_id
    is the canonical rule, matching the flagship and the SQL window
    replay."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    def norm(b: pa.Table) -> pa.Table:
        nt = pc.utf8_lower(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z0-9 ]", replacement=""))
        npfx = pc.utf8_slice_codeunits(nt, start=0, stop=prefix_len)
        return pa.table({
            "doc_id": b["doc_id"], "text": b["text"], "norm": nt,
            "npfx": npfx,
            "_ph": pa.array(hash_str_array(npfx), pa.uint64())})

    def classify(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if not len(ids):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "tier": pa.array([], pa.string())})

        def group_min(codes: np.ndarray) -> np.ndarray:
            rep = np.full(codes.max() + 1, np.iinfo(np.int64).max,
                          np.int64)
            np.minimum.at(rep, codes, ids)
            return rep[codes]

        e_rep = group_min(pd.factorize(part["text"].to_pandas(),
                                       sort=False)[0])
        n_rep = group_min(pd.factorize(part["norm"].to_pandas(),
                                       sort=False)[0])
        p_rep = group_min(pd.factorize(part["npfx"].to_pandas(),
                                       sort=False)[0])
        tier = np.where(
            ids != e_rep, "exact",
            np.where(ids != n_rep, "normalized",
                     np.where(ids != p_rep, "prefix", "unique")))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "tier": pa.array(tier.astype(object),
                                          pa.string())})

    return partition_apply(ds.map_batches(norm, batch_format="pyarrow"),
                           "_ph", classify, default_partitions())


def q_dedup_tiers(sf_dir: str):
    """Tier-dedup attribution report over the documents table (see
    ``dedup_tiers``)."""
    return dedup_tiers(_read(sf_dir, "documents", ["doc_id", "text"]))


_TIERS_CACHE: dict = {}


def q_dedup_tier_report(sf_dir: str):
    """THE theme report — full tier-dedup attribution in the flagship's
    own tier order: label every document with the first dedup tier that
    would remove it, 'exact' (byte-identical), 'normalized' (case/punct-
    insensitive), 'near' (non-canonical member of a MinHash-LSH verified
    cluster — the production S3-S7 chain at the q_lsh_clusters config),
    'prefix' (norm-40-prefix blocking, the cheap tier downstream of the
    flagship), else 'unique'. Engine plan: ONE prefix-hash exchange
    classifies the three nested string tiers (exact ⊆ normalized ⊆
    norm-prefix co-locate); the LSH cluster labels are |clustered
    docs|-bounded (dup docs only, not the corpus) and ride a broadcast
    probed in the final map. The oracle replays the ENTIRE chain —
    signatures, band/probe keys, bucket pairing, Jaccard verify,
    recursive CC — plus the three window partitions, making this the
    widest single driver signature in the registry.

    Materialized once per process and shared (the q_lsh_verified_pairs
    memoization pattern) so downstream consumers — entry()'s tier
    counters, [[q_tier_token_report]] — reuse the chain instead of
    recomputing sigs -> bands -> pairs -> verify -> CC."""
    if sf_dir in _TIERS_CACHE:
        return _TIERS_CACHE[sf_dir]
    import ray

    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.bands import band_stage
    from ray_data_mplsh.stages.cc import connected_components
    from ray_data_mplsh.stages.minhash import minhash_stage
    from ray_data_mplsh.stages.pairs import pairs_stage
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)
    from ray_data_mplsh.stages.verify import verify_stage

    cfg = MPLSHConfig(num_perm=_MINHASH_SIGS_K, bands=4, rows_per_band=4,
                      probes=4, word_hash="poly")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    P = default_partitions(cfg.num_partitions)
    sigs = minhash_stage(docs, cfg).materialize()
    n_docs = sigs.count()
    ver = verify_stage(pairs_stage(band_stage(sigs, cfg), cfg, P), sigs,
                       cfg, P, n_docs)
    labels = connected_components(ver, cfg, P)
    lt = gather_capped(labels, 4_000_000, pa.schema(
        [("doc_id", pa.uint64()), ("cluster_id", pa.uint64())]))
    # bounded by |docs inside near-dup clusters|, not the corpus — the
    # dup fraction of a curated web corpus; a >4M-cluster-member run
    # should consume labels distributed (keyed join) instead of this
    # diagnostic's broadcast.
    assert lt is not None, "tier report cluster labels overflowed the cap"
    lk = lt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lv = lt["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lo = np.argsort(lk)
    lref = ray.put((lk[lo], lv[lo]))

    def norm(b: pa.Table) -> pa.Table:
        nt = pc.utf8_lower(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z0-9 ]", replacement=""))
        npfx = pc.utf8_slice_codeunits(nt, start=0, stop=40)
        return pa.table({
            "doc_id": b["doc_id"], "text": b["text"], "norm": nt,
            "npfx": npfx,
            "_ph": pa.array(hash_str_array(npfx), pa.uint64())})

    def classify(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if not len(ids):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "e": pa.array([], pa.bool_()),
                             "n": pa.array([], pa.bool_()),
                             "p": pa.array([], pa.bool_())})

        def group_min(codes: np.ndarray) -> np.ndarray:
            rep = np.full(codes.max() + 1, np.iinfo(np.int64).max,
                          np.int64)
            np.minimum.at(rep, codes, ids)
            return rep[codes]

        e = ids != group_min(pd.factorize(part["text"].to_pandas(),
                                          sort=False)[0])
        nn_ = ids != group_min(pd.factorize(part["norm"].to_pandas(),
                                            sort=False)[0])
        p = ids != group_min(pd.factorize(part["npfx"].to_pandas(),
                                          sort=False)[0])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "e": pa.array(e), "n": pa.array(nn_),
                         "p": pa.array(p)})

    flags = partition_apply(docs.map_batches(norm,
                                             batch_format="pyarrow"),
                            "_ph", classify, P)

    def tier(t: pa.Table) -> pa.Table:
        lk_, lv_ = cached_get(lref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(lk_):
            i = np.clip(np.searchsorted(lk_, ids), 0, len(lk_) - 1)
            near = (lk_[i] == ids) & (lv_[i] != ids)
        else:
            near = np.zeros(len(ids), dtype=bool)
        e = t["e"].to_numpy(zero_copy_only=False)
        nn_ = t["n"].to_numpy(zero_copy_only=False)
        p = t["p"].to_numpy(zero_copy_only=False)
        lab = np.where(e, "exact",
                       np.where(nn_, "normalized",
                                np.where(near, "near",
                                         np.where(p, "prefix", "unique"))))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "tier": pa.array(lab.astype(object),
                                          pa.string())})

    _TIERS_CACHE[sf_dir] = flags.map_batches(
        tier, batch_format="pyarrow").materialize()
    return _TIERS_CACHE[sf_dir]


# --------- TPC-H shapes 2/11/12/20/21, adapted to the driver schema ---------
# The shipped tables carry no partsupp, l_shipmode, or commit/receipt
# dates (TESTDATA.md), so these five complete the 22-query sweep in
# adapted form: lineitem stands in for partsupp (a part-supplier
# relationship with unit costs/quantities), l_linestatus for l_shipmode,
# and "shipped > 30 days after the order date" for receipt-past-commit
# lateness (the q_tpch_q4 adaptation). Every plan keeps the house rules:
# integer-exact arithmetic until a final division replayed in SQL,
# capped dimension gathers with keyed-exchange flips, and per-batch
# combiners ahead of every groupby.

def q_tpch_q12(sf_dir: str, broadcast_max_rows: int = 4_000_000):
    """TPC-H Q12 shape (shipping mode vs priority): lineitems shipped in
    1997 more than 30 days after their order date, grouped by
    l_linestatus (the shipmode stand-in), counting urgent/high-priority
    orders separately from the rest. The (orderkey -> orderdate,
    priority-class) map broadcasts under ``broadcast_max_rows`` and
    flips to the keyed-exchange inner join above it; partials are
    <= 2 x |linestatus| rows per batch."""
    import ray
    from ray.data.aggregate import Sum

    LO = int(pd.Timestamp("1997-01-01").value // 1000)
    HI = int(pd.Timestamp("1998-01-01").value // 1000)
    GRACE_US = 30 * 86400 * 1_000_000

    def omap(t: pa.Table) -> pa.Table:
        pr = np.asarray(t["o_orderpriority"].to_pylist(), dtype=object)
        hi = np.isin(pr.astype(str), ("1-URGENT", "2-HIGH"))
        return pa.table({"ok": t["o_orderkey"].cast(pa.int64()),
                         "od": t["o_orderdate"].cast(pa.int64()),
                         "hi": pa.array(hi, pa.bool_())})

    o_ds = _read(sf_dir, "orders",
                 ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(omap, batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("od", pa.int64()), ("hi", pa.bool_())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_shipdate", "l_linestatus"])
    _EMPTY = pa.table({"l_linestatus": pa.array([], pa.string()),
                       "hi": pa.array([], pa.bool_()),
                       "n": pa.array([], pa.int64())})

    def combined(ls: np.ndarray, hi: np.ndarray) -> pa.Table:
        """per-batch combiner over (linestatus, priority-class)"""
        if not len(ls):
            return _EMPTY
        lu, lcode = np.unique(ls.astype(str), return_inverse=True)
        key = lcode * 2 + hi.astype(np.int64)
        cnt = np.bincount(key, minlength=2 * len(lu)).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "l_linestatus": pa.array(lu[nz // 2].astype(object),
                                     pa.string()),
            "hi": pa.array((nz % 2) == 1, pa.bool_()),
            "n": pa.array(cnt[nz], pa.int64())})

    if ot is not None:
        ok_ = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        od_ = ot["od"].to_numpy(zero_copy_only=False).astype(np.int64)
        hi_ = ot["hi"].to_numpy(zero_copy_only=False)
        o = np.argsort(ok_)
        oref = ray.put((ok_[o], od_[o], hi_[o]))

        def partial(t: pa.Table) -> pa.Table:
            ok2, od2, hi2 = cached_get(oref)
            sd = t["l_shipdate"].cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            lk = t["l_orderkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            m = (sd >= LO) & (sd < HI)
            if len(ok2):
                j = np.clip(np.searchsorted(ok2, lk), 0, len(ok2) - 1)
                m &= (ok2[j] == lk) & (sd > od2[j] + GRACE_US)
                hv = hi2[j]
            else:
                m &= False
                hv = np.zeros(len(lk), bool)
            ls = np.asarray(t["l_linestatus"].to_pylist(), dtype=object)
            return combined(ls[m], hv[m])

        partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        def lprep(t: pa.Table) -> pa.Table:
            sd = t["l_shipdate"].cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            m = pa.array((sd >= LO) & (sd < HI))
            return pa.table({
                "lok": t["l_orderkey"].cast(pa.int64()).filter(m),
                "sd": pa.array(sd[(sd >= LO) & (sd < HI)], pa.int64()),
                "l_linestatus": t["l_linestatus"].filter(m)})

        j = inner_join(li.map_batches(lprep, batch_format="pyarrow"),
                       o_ds, left_on="lok", right_on="ok",
                       hot_key_threshold=0)

        def post(t: pa.Table) -> pa.Table:
            sd = t["sd"].to_numpy(zero_copy_only=False).astype(np.int64)
            od2 = t["od"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = sd > od2 + GRACE_US
            ls = np.asarray(t["l_linestatus"].to_pylist(), dtype=object)
            hv = t["hi"].to_numpy(zero_copy_only=False)
            return combined(ls[m], hv[m])

        partials = j.map_batches(post, batch_format="pyarrow")

    agg = partials.groupby(["l_linestatus", "hi"]) \
        .aggregate(Sum("n", alias_name="n"))
    h = gather_capped(agg, 1_000_000, pa.schema(
        [("l_linestatus", pa.string()), ("hi", pa.bool_()),
         ("n", pa.int64())]))
    assert h is not None, "q12 linestatus histogram overflowed the cap"
    ls = np.asarray(h["l_linestatus"].to_pylist(), dtype=object)
    hv = h["hi"].to_numpy(zero_copy_only=False)
    n = h["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    lu = np.unique(ls.astype(str))
    high = np.zeros(len(lu), np.int64)
    low = np.zeros(len(lu), np.int64)
    idx = np.searchsorted(lu, ls.astype(str))
    np.add.at(high, idx[hv], n[hv])
    np.add.at(low, idx[~hv], n[~hv])
    return pa.table({
        "l_linestatus": pa.array(lu.astype(object), pa.string()),
        "high_line_count": pa.array(high, pa.int64()),
        "low_line_count": pa.array(low, pa.int64())})


def q_tpch_q21(sf_dir: str, broadcast_max_rows: int = 4_000_000,
               nation: str = "NATION_2"):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for F-status
    orders with more than one distinct supplier where EXACTLY ONE
    supplier shipped late (> 30 days after the order date), count the
    waiting incidents per that sole-late supplier, restricted to one
    nation. The F-order (orderkey -> orderdate) map broadcasts under
    ``broadcast_max_rows`` (keyed-exchange flip above); lineitems reduce
    to distinct (order, supplier, late) triples per batch, one
    orderkey-keyed exchange computes the per-order supplier/late sets,
    and the per-supplier counts are a |suppliers|-bounded groupby."""
    import ray
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.shuffle import default_partitions

    GRACE_US = 30 * 86400 * 1_000_000
    P = default_partitions(0)

    def ofilt(t: pa.Table) -> pa.Table:
        st = np.asarray(t["o_orderstatus"].to_pylist(), dtype=object)
        m = pa.array(st.astype(str) == "F")
        return pa.table({"ok": t["o_orderkey"].cast(pa.int64()).filter(m),
                         "od": t["o_orderdate"].cast(pa.int64()).filter(m)})

    o_ds = _read(sf_dir, "orders",
                 ["o_orderkey", "o_orderdate", "o_orderstatus"]) \
        .map_batches(ofilt, batch_format="pyarrow")
    ot = gather_capped(o_ds, broadcast_max_rows, pa.schema(
        [("ok", pa.int64()), ("od", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_orderkey", "l_suppkey", "l_shipdate"])

    def triples(ok, sk, late) -> pa.Table:
        """distinct (order, supplier, max(late)) combiner for one batch"""
        if not len(ok):
            e = pa.array([], pa.int64())
            return pa.table({"ok": e, "sk": e,
                             "late": pa.array([], pa.int8())})
        lt = late.astype(np.int8)
        o = np.lexsort((-lt, sk, ok))
        so, ss, sl = ok[o], sk[o], lt[o]
        first = np.concatenate(([True], (so[1:] != so[:-1]) |
                                (ss[1:] != ss[:-1])))
        return pa.table({"ok": pa.array(so[first], pa.int64()),
                         "sk": pa.array(ss[first], pa.int64()),
                         "late": pa.array(sl[first], pa.int8())})

    if ot is not None:
        ok_ = ot["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        od_ = ot["od"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(ok_)
        oref = ray.put((ok_[o], od_[o]))

        def emit(t: pa.Table) -> pa.Table:
            ok2, od2 = cached_get(oref)
            lk = t["l_orderkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sd = t["l_shipdate"].cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            if not len(ok2):
                return triples(np.empty(0, np.int64),
                               np.empty(0, np.int64),
                               np.empty(0, np.int64))
            j = np.clip(np.searchsorted(ok2, lk), 0, len(ok2) - 1)
            m = ok2[j] == lk
            late = sd > od2[j] + GRACE_US
            return triples(lk[m], sk[m], late[m])

        trip = li.map_batches(emit, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        def lslim(t: pa.Table) -> pa.Table:
            return pa.table({
                "lok": t["l_orderkey"].cast(pa.int64()),
                "sk": t["l_suppkey"].cast(pa.int64()),
                "sd": t["l_shipdate"].cast(pa.int64())})

        j = inner_join(li.map_batches(lslim, batch_format="pyarrow"),
                       o_ds, left_on="lok", right_on="ok",
                       hot_key_threshold=0)

        def post(t: pa.Table) -> pa.Table:
            lk = t["lok"].to_numpy(zero_copy_only=False).astype(np.int64)
            sk = t["sk"].to_numpy(zero_copy_only=False).astype(np.int64)
            late = t["sd"].to_numpy(zero_copy_only=False).astype(np.int64) \
                > t["od"].to_numpy(zero_copy_only=False) \
                .astype(np.int64) + GRACE_US
            return triples(lk, sk, late)

        trip = j.map_batches(post, batch_format="pyarrow")

    def per_order(part: pa.Table) -> pa.Table:
        ok = part["ok"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = part["sk"].to_numpy(zero_copy_only=False).astype(np.int64)
        lt = part["late"].to_numpy(zero_copy_only=False).astype(np.int8)
        if not len(ok):
            e = pa.array([], pa.int64())
            return pa.table({"sk": e, "n": e})
        # global distinct (ok, sk) with max(late): batches may repeat
        o = np.lexsort((-lt, sk, ok))
        so, ss, sl = ok[o], sk[o], lt[o]
        first = np.concatenate(([True], (so[1:] != so[:-1]) |
                                (ss[1:] != ss[:-1])))
        so, ss, sl = so[first], ss[first], sl[first]
        runs = np.concatenate(([True], so[1:] != so[:-1]))
        starts = np.concatenate((np.flatnonzero(runs), [len(so)]))
        nsupp = np.diff(starts)
        nlate = np.add.reduceat(sl.astype(np.int64), starts[:-1]) \
            if len(so) else np.empty(0, np.int64)
        gidx = np.cumsum(runs) - 1
        lsk = np.zeros(len(nsupp), np.int64)
        lp = np.flatnonzero(sl == 1)
        lsk[gidx[lp]] = ss[lp]     # overwritten junk for >1-late orders
        q = (nsupp > 1) & (nlate == 1)
        win = lsk[q]
        uk, inv = np.unique(win, return_inverse=True)
        cnt = np.zeros(len(uk), np.int64)
        np.add.at(cnt, inv, 1)
        return pa.table({"sk": pa.array(uk, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    waits = partition_apply(trip, "ok", per_order, P) \
        .groupby("sk").aggregate(Sum("n", alias_name="numwait"))
    wt = gather_capped(waits, 4_000_000, pa.schema(
        [("sk", pa.int64()), ("numwait", pa.int64())]))
    assert wt is not None, "q21 per-supplier waits overflowed the cap"

    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nt = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string())})
    nk = nt["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    nn = np.asarray(nt["n_name"].to_pylist(), dtype=object)
    want = np.sort(nk[nn.astype(str) == nation])
    wref = ray.put(want)

    def sfilt(t: pa.Table) -> pa.Table:
        keys = cached_get(wref)
        v = t["s_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = pa.array(np.isin(v, keys))
        return pa.table({
            "s_suppkey": t["s_suppkey"].cast(pa.int64()).filter(m),
            "s_name": t["s_name"].filter(m)})

    s_ds = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_name", "s_nationkey"]) \
        .map_batches(sfilt, batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows, pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string())]))
    if st is None:
        # supplier dimension over the cap: attach via broadcast_join
        # against the |suppliers-with-waits|-bounded winner table
        sj = broadcast_join(s_ds, wt.select(["sk"]),
                            left_on="s_suppkey", right_on="sk")
        st = gather_capped(sj, 4_000_000, pa.schema(
            [("s_suppkey", pa.int64()), ("s_name", pa.string())]))
        assert st is not None, "q21 wait-supplier attach overflowed"
        st = st.select(["s_suppkey", "s_name"])
    out = wt.join(st, keys=["sk"], right_keys=["s_suppkey"],
                  join_type="inner")
    # group by name (names are the output key), then the Q21 ordering
    names = np.asarray(out["s_name"].to_pylist(), dtype=object)
    nwt = out["numwait"].to_numpy(zero_copy_only=False).astype(np.int64)
    un, inv = np.unique(names.astype(str), return_inverse=True)
    tot = np.zeros(len(un), np.int64)
    np.add.at(tot, inv, nwt)
    o = np.lexsort((un, -tot))[:100]
    return pa.table({"s_name": pa.array(un[o].astype(object), pa.string()),
                     "numwait": pa.array(tot[o], pa.int64())})


def q_tpch_q2(sf_dir: str, broadcast_max_rows: int = 4_000_000,
              region: str = "ASIA"):
    """TPC-H Q2 shape (minimum-cost supplier): lineitem stands in for
    partsupp — the unit cost of (part, supplier) is the MINIMUM integer
    cent l_extendedprice the supplier ever shipped that part for. For
    LARGE parts sized 10-20, report the in-region suppliers achieving
    each part's minimum cost. Both dimension maps (in-region suppliers,
    filtered parts) gather capped with keyed-exchange flips; the
    (part, supplier) min is a distributed groupby over per-batch min
    partials and the winners join back against a broadcast per-part
    minimum (|filtered parts|-bounded)."""
    import ray
    from ray.data.aggregate import Min

    # region -> nation keys (tiny fixed tables)
    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name", "n_regionkey"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nt = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string()),
         "n_regionkey": pa.array([], pa.int64())})
    reg_rows = [b for b in _read(sf_dir, "region",
                                 ["r_regionkey", "r_name"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    rt = pa.concat_tables(reg_rows) if reg_rows else pa.table(
        {"r_regionkey": pa.array([], pa.int64()),
         "r_name": pa.array([], pa.string())})
    rk = rt["r_regionkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    rn = np.asarray(rt["r_name"].to_pylist(), dtype=object)
    want_rk = rk[rn.astype(str) == region]
    nrk = nt["n_regionkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    in_reg = np.isin(nrk, want_rk)
    reg_nk = np.sort(nt["n_nationkey"].to_numpy(zero_copy_only=False)
                     .astype(np.int64)[in_reg])
    nk_all = nt["n_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    nn_all = np.asarray(nt["n_name"].to_pylist(), dtype=object)
    nko = np.argsort(nk_all)
    nk_s, nn_s = nk_all[nko], nn_all[nko]
    nkref = ray.put(reg_nk)

    def smap(t: pa.Table) -> pa.Table:
        keys = cached_get(nkref)
        v = t["s_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = pa.array(np.isin(v, keys))
        return pa.table({
            "s_suppkey": t["s_suppkey"].cast(pa.int64()).filter(m),
            "s_nationkey": t["s_nationkey"].cast(pa.int64()).filter(m),
            "s_name": t["s_name"].filter(m),
            "s_acctbal": t["s_acctbal"].cast(pa.float64()).filter(m)})

    s_ds = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey", "s_name", "s_acctbal"]) \
        .map_batches(smap, batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows, pa.schema(
        [("s_suppkey", pa.int64()), ("s_nationkey", pa.int64()),
         ("s_name", pa.string()), ("s_acctbal", pa.float64())]))

    def pmap(t: pa.Table) -> pa.Table:
        ty = np.asarray(t["p_type"].to_pylist(), dtype=object).astype(str)
        sz = t["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = pa.array((ty == "LARGE") & (sz >= 10) & (sz <= 20))
        return pa.table({
            "p_partkey": t["p_partkey"].cast(pa.int64()).filter(m),
            "p_brand": t["p_brand"].filter(m)})

    p_ds = _read(sf_dir, "part", ["p_partkey", "p_type", "p_size",
                                  "p_brand"]) \
        .map_batches(pmap, batch_format="pyarrow")
    pt = gather_capped(p_ds, broadcast_max_rows, pa.schema(
        [("p_partkey", pa.int64()), ("p_brand", pa.string())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_partkey", "l_suppkey", "l_extendedprice"])
    _EMPTY = pa.table({"pk": pa.array([], pa.int64()),
                       "sk": pa.array([], pa.int64()),
                       "mc": pa.array([], pa.int64())})

    def min_partial(pk, sk, cents) -> pa.Table:
        if not len(pk):
            return _EMPTY
        o = np.lexsort((cents, sk, pk))
        sp, ss, sc = pk[o], sk[o], cents[o]
        first = np.concatenate(([True], (sp[1:] != sp[:-1]) |
                                (ss[1:] != ss[:-1])))
        return pa.table({"pk": pa.array(sp[first], pa.int64()),
                         "sk": pa.array(ss[first], pa.int64()),
                         "mc": pa.array(sc[first], pa.int64())})

    if st is not None and pt is not None:
        sks = np.sort(st["s_suppkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        pks = np.sort(pt["p_partkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        dref = ray.put((sks, pks))

        def partial(t: pa.Table) -> pa.Table:
            sks2, pks2 = cached_get(dref)
            pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            sk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cents = pc.cast(pc.round(pc.multiply(
                t["l_extendedprice"], 100)), pa.int64()) \
                .to_numpy(zero_copy_only=False)
            if not len(sks2) or not len(pks2):
                return _EMPTY
            i = np.clip(np.searchsorted(sks2, sk), 0, len(sks2) - 1)
            j = np.clip(np.searchsorted(pks2, pk), 0, len(pks2) - 1)
            m = (sks2[i] == sk) & (pks2[j] == pk)
            return min_partial(pk[m], sk[m], cents[m])

        partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        def lslim(t: pa.Table) -> pa.Table:
            return pa.table({
                "lpk": t["l_partkey"].cast(pa.int64()),
                "lsk": t["l_suppkey"].cast(pa.int64()),
                "mc": pc.cast(pc.round(pc.multiply(
                    t["l_extendedprice"], 100)), pa.int64())})

        j = inner_join(li.map_batches(lslim, batch_format="pyarrow"),
                       p_ds.select_columns(["p_partkey"]),
                       left_on="lpk", right_on="p_partkey",
                       hot_key_threshold=0)
        j = inner_join(j, s_ds.select_columns(["s_suppkey"]),
                       left_on="lsk", right_on="s_suppkey",
                       hot_key_threshold=0)

        def post(t: pa.Table) -> pa.Table:
            return min_partial(
                t["lpk"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["lsk"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["mc"].to_numpy(zero_copy_only=False).astype(np.int64))

        partials = j.map_batches(post, batch_format="pyarrow")

    costs = partials.groupby(["pk", "sk"]) \
        .aggregate(Min("mc", alias_name="mc")).materialize()
    permin = costs.groupby("pk").aggregate(Min("mc", alias_name="m"))
    mt = gather_capped(permin, 4_000_000, pa.schema(
        [("pk", pa.int64()), ("m", pa.int64())]))
    assert mt is not None, "q2 per-part minimum overflowed the cap"
    mpk = mt["pk"].to_numpy(zero_copy_only=False).astype(np.int64)
    mmc = mt["m"].to_numpy(zero_copy_only=False).astype(np.int64)
    mo = np.argsort(mpk)
    mref = ray.put((mpk[mo], mmc[mo]))

    def winners(t: pa.Table) -> pa.Table:
        ks, vs = cached_get(mref)
        pk = t["pk"].to_numpy(zero_copy_only=False).astype(np.int64)
        mc = t["mc"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ks):
            return t.slice(0, 0)
        i = np.searchsorted(ks, pk)    # every pk came from costs
        return t.filter(pa.array(vs[i] == mc))

    wt = gather_capped(
        costs.map_batches(winners, batch_format="pyarrow"),
        4_000_000, pa.schema([("pk", pa.int64()), ("sk", pa.int64()),
                              ("mc", pa.int64())]))
    assert wt is not None, "q2 winner set overflowed the cap"

    # attach supplier / part attributes (winner-bounded small sides)
    if st is None:
        sj = broadcast_join(
            s_ds, pa.table({"sk": wt["sk"]}).combine_chunks()
            .group_by("sk").aggregate([]),
            left_on="s_suppkey", right_on="sk")
        st = gather_capped(sj, 4_000_000, pa.schema(
            [("s_suppkey", pa.int64()), ("s_nationkey", pa.int64()),
             ("s_name", pa.string()), ("s_acctbal", pa.float64())]))
        assert st is not None, "q2 winner supplier attach overflowed"
    if pt is None:
        pj = broadcast_join(
            p_ds, pa.table({"pkk": wt["pk"]}).combine_chunks()
            .group_by("pkk").aggregate([]),
            left_on="p_partkey", right_on="pkk")
        pt = gather_capped(pj, 4_000_000, pa.schema(
            [("p_partkey", pa.int64()), ("p_brand", pa.string())]))
        assert pt is not None, "q2 winner part attach overflowed"
        pt = pt.select(["p_partkey", "p_brand"])

    out = wt.join(st.select(["s_suppkey", "s_nationkey", "s_name",
                             "s_acctbal"]),
                  keys=["sk"], right_keys=["s_suppkey"],
                  join_type="inner")
    out = out.join(pt, keys=["pk"], right_keys=["p_partkey"],
                   join_type="inner")
    snk = out["s_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    i = np.clip(np.searchsorted(nk_s, snk), 0, max(len(nk_s) - 1, 0))
    ok_mask = (nk_s[i] == snk) if len(nk_s) else np.zeros(len(snk), bool)
    out = out.filter(pa.array(ok_mask))
    i = i[ok_mask]
    res = pa.table({
        "s_acctbal": pc.cast(out["s_acctbal"], pa.float64()),
        "s_name": out["s_name"],
        "n_name": pa.array(nn_s[i].astype(object), pa.string()),
        "p_partkey": pc.cast(out["pk"], pa.int64()),
        "p_brand": out["p_brand"],
        "supply_cost": pc.divide(pc.cast(out["mc"], pa.float64()), 100.0)})
    idx = pc.sort_indices(res, sort_keys=[
        ("s_acctbal", "descending"), ("n_name", "ascending"),
        ("s_name", "ascending"), ("p_partkey", "ascending")])
    return res.take(idx.slice(0, 100))


def q_tpch_q11(sf_dir: str, broadcast_max_rows: int = 4_000_000,
               nation: str = "NATION_3"):
    """TPC-H Q11 shape (important stock): per-part inventory value for
    one nation's suppliers — value = integer-micro
    l_extendedprice x (100 - discount) summed over the nation's
    lineitems — keeping parts whose value exceeds TWICE the average
    part value (the fraction-threshold subquery, made scale-free and
    integer-exact: value x |parts| > 2 x total compares arbitrary-
    precision ints driver-side and HUGEINTs in SQL). The per-part
    aggregate is |parts|-bounded; the nation's supplier map gathers
    capped with a keyed-exchange flip."""
    import ray
    from ray.data.aggregate import Sum

    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nt = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string())})
    nk = nt["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    nn = np.asarray(nt["n_name"].to_pylist(), dtype=object)
    want = np.sort(nk[nn.astype(str) == nation])
    wref = ray.put(want)

    def smap(t: pa.Table) -> pa.Table:
        keys = cached_get(wref)
        v = t["s_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = pa.array(np.isin(v, keys))
        return pa.table({"s_suppkey":
                         t["s_suppkey"].cast(pa.int64()).filter(m)})

    s_ds = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .map_batches(smap, batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows,
                       pa.schema([("s_suppkey", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_partkey", "l_suppkey", "l_extendedprice",
                      "l_discount"])
    _EMPTY = pa.table({"pk": pa.array([], pa.int64()),
                       "vm": pa.array([], pa.int64())})

    def val_partial(pk, micro) -> pa.Table:
        if not len(pk):
            return _EMPTY
        uk, inv = np.unique(pk, return_inverse=True)
        v = np.zeros(len(uk), np.int64)
        np.add.at(v, inv, micro)
        return pa.table({"pk": pa.array(uk, pa.int64()),
                         "vm": pa.array(v, pa.int64())})

    def micro_of(t: pa.Table) -> np.ndarray:
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100)),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return ep * (100 - dc)

    if st is not None:
        sks = np.sort(st["s_suppkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        sref = ray.put(sks)

        def partial(t: pa.Table) -> pa.Table:
            sks2 = cached_get(sref)
            sk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if not len(sks2):
                return _EMPTY
            i = np.clip(np.searchsorted(sks2, sk), 0, len(sks2) - 1)
            m = sks2[i] == sk
            return val_partial(pk[m], micro_of(t)[m])

        partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        def lslim(t: pa.Table) -> pa.Table:
            return pa.table({
                "pk": t["l_partkey"].cast(pa.int64()),
                "lsk": t["l_suppkey"].cast(pa.int64()),
                "vm": pa.array(micro_of(t), pa.int64())})

        j = inner_join(li.map_batches(lslim, batch_format="pyarrow"),
                       s_ds, left_on="lsk", right_on="s_suppkey",
                       hot_key_threshold=0)

        def post(t: pa.Table) -> pa.Table:
            return val_partial(
                t["pk"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["vm"].to_numpy(zero_copy_only=False).astype(np.int64))

        partials = j.map_batches(post, batch_format="pyarrow")

    agg = partials.groupby("pk").aggregate(Sum("vm", alias_name="vm"))
    vt = gather_capped(agg, 4_000_000, pa.schema(
        [("pk", pa.int64()), ("vm", pa.int64())]))
    assert vt is not None, "q11 per-part values overflowed the cap"
    pk = vt["pk"].to_numpy(zero_copy_only=False).astype(np.int64)
    vm = vt["vm"].to_numpy(zero_copy_only=False).astype(np.int64)
    # arbitrary-precision threshold: value x |parts| > 2 x total
    total = int(vm.sum(dtype=object)) if len(vm) else 0
    keep = np.array([int(v) * len(vm) > 2 * total for v in vm], bool) \
        if len(vm) else np.zeros(0, bool)
    pk, vm = pk[keep], vm[keep]
    o = np.lexsort((pk, -vm))
    return pa.table({
        "p_partkey": pa.array(pk[o], pa.int64()),
        "part_value": pa.array(vm[o].astype(np.float64) / 10000.0,
                               pa.float64())})


def q_tpch_q20(sf_dir: str, broadcast_max_rows: int = 4_000_000,
               nation: str = "NATION_1", prefix: str = "small"):
    """TPC-H Q20 shape (excess-inventory suppliers): one nation's
    suppliers who, for some part named ``<prefix>...``, shipped MORE
    than half of their all-time volume of that part during 1997 (the
    availqty-vs-half-year-demand comparison re-expressed over the
    lineitem history; integer quantities, no division). Dimension maps
    gather capped with keyed-exchange flips; the (supplier, part)
    quantity aggregate is a distributed groupby over per-batch partials
    and the qualifying-supplier set is |suppliers|-bounded."""
    import ray
    from ray.data.aggregate import Sum

    LO = int(pd.Timestamp("1997-01-01").value // 1000)
    HI = int(pd.Timestamp("1998-01-01").value // 1000)

    nat_rows = [b for b in _read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"])
                .iter_batches(batch_size=4096, batch_format="pyarrow")]
    nt = pa.concat_tables(nat_rows) if nat_rows else pa.table(
        {"n_nationkey": pa.array([], pa.int64()),
         "n_name": pa.array([], pa.string())})
    nk = nt["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    nn = np.asarray(nt["n_name"].to_pylist(), dtype=object)
    want = np.sort(nk[nn.astype(str) == nation])
    wref = ray.put(want)

    def smap(t: pa.Table) -> pa.Table:
        keys = cached_get(wref)
        v = t["s_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = pa.array(np.isin(v, keys))
        return pa.table({
            "s_suppkey": t["s_suppkey"].cast(pa.int64()).filter(m),
            "s_name": t["s_name"].filter(m),
            "s_acctbal": t["s_acctbal"].cast(pa.float64()).filter(m)})

    s_ds = _read(sf_dir, "supplier",
                 ["s_suppkey", "s_nationkey", "s_name", "s_acctbal"]) \
        .map_batches(smap, batch_format="pyarrow")
    st = gather_capped(s_ds, broadcast_max_rows, pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string()),
         ("s_acctbal", pa.float64())]))

    def pmap(t: pa.Table) -> pa.Table:
        names = np.asarray(t["p_name"].to_pylist(), dtype=object)
        m = pa.array(np.char.startswith(names.astype(str), prefix))
        return pa.table({"p_partkey":
                         t["p_partkey"].cast(pa.int64()).filter(m)})

    p_ds = _read(sf_dir, "part", ["p_partkey", "p_name"]) \
        .map_batches(pmap, batch_format="pyarrow")
    pt = gather_capped(p_ds, broadcast_max_rows,
                       pa.schema([("p_partkey", pa.int64())]))

    li = _read_sized(sf_dir, "lineitem",
                     ["l_partkey", "l_suppkey", "l_quantity",
                      "l_shipdate"])
    _EMPTY = pa.table({"sk": pa.array([], pa.int64()),
                       "pk": pa.array([], pa.int64()),
                       "qw": pa.array([], pa.int64()),
                       "qt": pa.array([], pa.int64())})

    def qty_partial(sk, pk, q, inwin) -> pa.Table:
        if not len(sk):
            return _EMPTY
        o = np.lexsort((pk, sk))
        ss, sp = sk[o], pk[o]
        first = np.concatenate(([True], (ss[1:] != ss[:-1]) |
                                (sp[1:] != sp[:-1])))
        gidx = np.cumsum(first) - 1
        ng = int(gidx[-1]) + 1
        qw = np.zeros(ng, np.int64)
        qt = np.zeros(ng, np.int64)
        qo = q[o]
        np.add.at(qt, gidx, qo)
        np.add.at(qw, gidx, np.where(inwin[o], qo, 0))
        return pa.table({"sk": pa.array(ss[first], pa.int64()),
                         "pk": pa.array(sp[first], pa.int64()),
                         "qw": pa.array(qw, pa.int64()),
                         "qt": pa.array(qt, pa.int64())})

    def common(t: pa.Table):
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        sd = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return sk, pk, q, (sd >= LO) & (sd < HI)

    if st is not None and pt is not None:
        sks = np.sort(st["s_suppkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        pks = np.sort(pt["p_partkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        dref = ray.put((sks, pks))

        def partial(t: pa.Table) -> pa.Table:
            sks2, pks2 = cached_get(dref)
            sk, pk, q, inwin = common(t)
            if not len(sks2) or not len(pks2):
                return _EMPTY
            i = np.clip(np.searchsorted(sks2, sk), 0, len(sks2) - 1)
            j = np.clip(np.searchsorted(pks2, pk), 0, len(pks2) - 1)
            m = (sks2[i] == sk) & (pks2[j] == pk)
            return qty_partial(sk[m], pk[m], q[m], inwin[m])

        partials = li.map_batches(partial, batch_format="pyarrow")
    else:
        from ray_data_mplsh.stages.relational import inner_join

        def lslim(t: pa.Table) -> pa.Table:
            sk, pk, q, inwin = common(t)
            return pa.table({
                "lsk": pa.array(sk, pa.int64()),
                "lpk": pa.array(pk, pa.int64()),
                "q": pa.array(q, pa.int64()),
                "inwin": pa.array(inwin, pa.bool_())})

        j = inner_join(li.map_batches(lslim, batch_format="pyarrow"),
                       p_ds, left_on="lpk", right_on="p_partkey",
                       hot_key_threshold=0)
        j = inner_join(j, s_ds.select_columns(["s_suppkey"]),
                       left_on="lsk", right_on="s_suppkey",
                       hot_key_threshold=0)

        def post(t: pa.Table) -> pa.Table:
            return qty_partial(
                t["lsk"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["lpk"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["q"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["inwin"].to_numpy(zero_copy_only=False))

        partials = j.map_batches(post, batch_format="pyarrow")

    agg = partials.groupby(["sk", "pk"]).aggregate(
        Sum("qw", alias_name="qw"), Sum("qt", alias_name="qt"))

    def qualify(t: pa.Table) -> pa.Table:
        qw = t["qw"].to_numpy(zero_copy_only=False).astype(np.int64)
        qt = t["qt"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = 2 * qw > qt
        return pa.table({"sk": pc.cast(t["sk"], pa.int64())
                        .filter(pa.array(m))})

    from ray.data.aggregate import Count
    qual = agg.map_batches(qualify, batch_format="pyarrow") \
        .groupby("sk").aggregate(Count(alias_name="np_"))
    qt_ = gather_capped(qual, 4_000_000,
                        pa.schema([("sk", pa.int64()),
                                   ("np_", pa.int64())]))
    assert qt_ is not None, "q20 qualifying suppliers overflowed the cap"

    if st is None:
        sj = broadcast_join(
            s_ds, pa.table({"sk": qt_["sk"]}).combine_chunks()
            .group_by("sk").aggregate([]),
            left_on="s_suppkey", right_on="sk")
        st = gather_capped(sj, 4_000_000, pa.schema(
            [("s_suppkey", pa.int64()), ("s_name", pa.string()),
             ("s_acctbal", pa.float64())]))
        assert st is not None, "q20 qualifier attach overflowed"
        st = st.select(["s_suppkey", "s_name", "s_acctbal"])
    out = qt_.join(st, keys=["sk"], right_keys=["s_suppkey"],
                   join_type="inner")
    # DISTINCT (s_name, s_acctbal), ordered by name (the SQL twin)
    names = np.asarray(out["s_name"].to_pylist(), dtype=object)
    bal = out["s_acctbal"].to_numpy(zero_copy_only=False)
    o = np.lexsort((bal, names.astype(str)))
    sn, sb = names[o], bal[o]
    first = np.concatenate(([True], (sn[1:] != sn[:-1]) |
                            (sb[1:] != sb[:-1]))) if len(sn) \
        else np.zeros(0, bool)
    return pa.table({
        "s_name": pa.array(sn[first].astype(object), pa.string()),
        "s_acctbal": pa.array(sb[first], pa.float64())})


# --- PII redaction (webtext scrub pre-pass) --------------------------------

_PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_PHONE_RE = r"\+\d{1,3}-\d{3}-\d{4}"
_PII_IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def q_pii_scrub(sf_dir: str):
    """PII redaction over webtext (the CCNet/Dolma-style scrub pre-pass):
    emails, international-format phone numbers and IPv4 literals replaced
    by typed placeholders, with per-doc redaction counts. The documents
    fixture contains no PII, so PII-bearing text is DERIVED
    deterministically from (doc_id, source) by the same expression in
    both engines (the q_canonical_urls technique) and then scrubbed
    GENERICALLY — the SQL replays the scrub with regexp_replace on the
    same derived text, never hand-computed expected strings, so any
    kernel/pattern change breaks the match. Counts are taken on the
    pre-scrub text; replacements apply email -> phone -> ip in both
    engines (later patterns see earlier placeholders identically).
    Stateless per-batch Arrow RE2 kernels (replace_substring_regex /
    count_substring_regex); zero shuffle — scales as a pure map."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def scrub(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = pd.Series(did).astype(str)
        src = pd.Series(np.asarray(t["source"].to_pylist(), dtype=object))
        text = pd.Series(np.asarray(t["text"].to_pylist(), dtype=object))
        t2 = (text + " contact user" + ids + "@" + src + ".com call "
              + "+1-555-" + pd.Series(did % 10000).astype(str).str.zfill(4)
              + " from 10.0." + pd.Series(did % 256).astype(str) + "."
              + pd.Series((did // 256) % 256).astype(str))
        t2a = pa.array(t2.to_numpy(dtype=object), pa.string())
        n_email = pc.count_substring_regex(t2a, pattern=_PII_EMAIL_RE)
        n_phone = pc.count_substring_regex(t2a, pattern=_PII_PHONE_RE)
        n_ip = pc.count_substring_regex(t2a, pattern=_PII_IP_RE)
        clean = pc.replace_substring_regex(
            t2a, pattern=_PII_EMAIL_RE, replacement="<EMAIL>")
        clean = pc.replace_substring_regex(
            clean, pattern=_PII_PHONE_RE, replacement="<PHONE>")
        clean = pc.replace_substring_regex(
            clean, pattern=_PII_IP_RE, replacement="<IP>")
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "clean_text": clean,
            "n_emails": pc.cast(n_email, pa.int64()),
            "n_phones": pc.cast(n_phone, pa.int64()),
            "n_ips": pc.cast(n_ip, pa.int64())})

    return ds.map_batches(scrub, batch_format="pyarrow")


# --- fixed-window token chunking (LM context-window prep) -------------------

def q_chunk_tokens(sf_dir: str, window: int = 32, stride: int = 24):
    """Fixed-size token chunking with overlap (the LM context-window prep
    op): each doc splits into windows of ``window`` whitespace tokens
    starting every ``stride`` tokens (starts 0, S, 2S, ... while
    start < n_tokens), emitting (doc_id, chunk_idx, n_tokens,
    chunk_text). Row-expanding stateless map (~n/stride chunks per doc),
    no shuffle — Ray's block splitting absorbs the expansion exactly as
    it does for the band emitter. Vectorized: flat (row, word) arrays ->
    one repeat/cumsum flat-gather of every chunk's tokens -> a single
    pandas groupby-join (one C-level join per CHUNK, never per-token
    Python). The SQL twin slices the same 1-based word array."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    W, S = int(window), int(stride)

    def chunk(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string())})
        if not len(ids):
            return empty
        row, words = _split_words(b["text"])
        n_tok = np.bincount(row, minlength=len(ids)).astype(np.int64)
        # chunk starts per row: 0, S, 2S, ... < n  (n >= 1 always:
        # ''.split(' ') == [''])
        n_chunks = -(-n_tok // S)
        crow = np.repeat(np.arange(len(ids), dtype=np.int64), n_chunks)
        if not len(crow):
            return empty
        cidx = np.arange(len(crow), dtype=np.int64) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks)
        starts = cidx * S
        lens = np.minimum(starts + W, n_tok[crow]) - starts
        base = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        tot = int(lens.sum())
        chunk_of_tok = np.repeat(np.arange(len(crow), dtype=np.int64),
                                 lens)
        tok_idx = (np.arange(tot, dtype=np.int64)
                   - np.repeat(np.cumsum(lens) - lens, lens)
                   + (base[crow] + starts)[chunk_of_tok])
        joined = pd.Series(words[tok_idx], dtype=object) \
            .groupby(chunk_of_tok).agg(" ".join)
        texts = np.full(len(crow), "", dtype=object)
        texts[joined.index.to_numpy()] = joined.to_numpy(dtype=object)
        return pa.table({
            "doc_id": pa.array(ids[crow], pa.int64()),
            "chunk_idx": pa.array(cidx, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "chunk_text": pa.array(texts, pa.string())})

    return ds.map_batches(chunk, batch_format="pyarrow")


# --- fuzzy decontamination: benchmark n-gram overlap score ------------------

def q_contam_overlap(sf_dir: str):
    """Fuzzy decontamination score (the standard benchmark 13-gram-overlap
    contamination metric, shrunk to 8-grams for the fixture's doc
    lengths): the benchmark set is every doc with doc_id % 37 == 0
    (derived — no external data, the q_decontaminate convention); a
    doc's score is the fraction of its DISTINCT 8-grams occurring in any
    benchmark doc. Plan: benchmark grams are |corpus|/37-proportional
    and distinct-hash-reduced per batch BEFORE the driver gather, then
    broadcast once via ray.put (benchmark sets are small by nature —
    same scale rationale as q_decontaminate's snippet index); every doc
    then scores batch-locally with a searchsorted membership probe —
    zero row-level exchanges. Distinctness and membership are by 64-bit
    gram hash (the q_crossdoc_ngrams collision regime: ~1e-7 at 1e6
    grams). Docs under 8 tokens emit no row in both engines."""
    import ray

    N, MOD = 8, 37
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _doc_grams(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """batch -> (doc_id int64, distinct gram hash uint64) flat pairs
        (per-doc distinct is global distinct: docs never span batches)."""
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(b["text"])
        if len(row) >= N:
            starts = np.flatnonzero(row[:len(row) - N + 1] == row[N - 1:])
        else:
            starts = np.empty(0, np.int64)
        gs = pd.Series(words[starts], dtype=object)
        for i in range(1, N):
            gs = gs + " " + pd.Series(words[starts + i], dtype=object)
        gh = hash_str_array(pa.array(gs.to_numpy(dtype=object),
                                     pa.string())).astype(np.uint64)
        d = ids[row[starts]]
        key = np.stack([d.astype(np.uint64), gh]) if len(d) else \
            np.empty((2, 0), np.uint64)
        _, ui = np.unique(key, axis=1, return_index=True)
        return d[ui], gh[ui]

    def bench_grams(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = pa.array(ids % MOD == 0)
        d, gh = _doc_grams(b.filter(mask))
        return pa.table({"gh": pa.array(np.unique(gh), pa.uint64())})

    bt = gather_capped(ds.map_batches(bench_grams, batch_format="pyarrow"),
                       8_000_000, pa.schema([("gh", pa.uint64())]))
    # bounded by |distinct benchmark grams| (corpus/37-proportional,
    # distinct-reduced per batch); a larger eval suite should flip this
    # to a gram-keyed exchange like q_crossdoc_ngrams' over-cap path
    assert bt is not None, "contam benchmark gram set overflowed the cap"
    bench = np.unique(bt["gh"].to_numpy(zero_copy_only=False)
                      .astype(np.uint64))
    ref = ray.put(bench)

    def score(b: pa.Table) -> pa.Table:
        bset = cached_get(ref)
        d, gh = _doc_grams(b)
        if not len(d):
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_grams": pa.array([], pa.int64()),
                "n_contaminated": pa.array([], pa.int64()),
                "contam_frac": pa.array([], pa.float64())})
        pos = np.searchsorted(bset, gh)
        hit = (pos < len(bset)) & (bset[np.minimum(
            pos, max(len(bset) - 1, 0))] == gh) if len(bset) else \
            np.zeros(len(gh), bool)
        uids, inv = np.unique(d, return_inverse=True)
        n_grams = np.bincount(inv).astype(np.int64)
        n_hit = np.bincount(inv, weights=hit.astype(np.float64)) \
            .astype(np.int64)
        return pa.table({
            "doc_id": pa.array(uids, pa.int64()),
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_contaminated": pa.array(n_hit, pa.int64()),
            "contam_frac": pa.array(
                n_hit.astype(np.float64) / n_grams.astype(np.float64),
                pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


# --- incremental fold under a driver signature ------------------------------

_FOLD_CACHE: dict = {}


def _run_fold(sf_dir: str):
    """Shared base-run + shard-fold at the SQL-replayable config (see
    q_incremental_fold): split documents by doc_id % 5 (base != 4,
    shard == 4), base dedup with checkpoints in a fresh /tmp dir, fold
    the shard. Returns the fold's DedupResult (None for a zero-row
    corpus: empty datasets lose their schema through the pipeline).
    Memoized per sf_dir — the fold is deterministic and its Datasets
    are lazy checkpoint readers, so q_incremental_fold and
    q_fold_provenance share one base+fold per process."""
    if sf_dir in _FOLD_CACHE:
        return _FOLD_CACHE[sf_dir]
    import dataclasses
    import tempfile

    from ray_data_mplsh.pipelines.dedup import run_dedup
    from ray_data_mplsh.pipelines.incremental import run_dedup_incremental

    cfg = MPLSHConfig(num_perm=_MINHASH_SIGS_K, bands=4, rows_per_band=4,
                      probes=4, word_hash="poly", min_chars=0,
                      ckpt_dir=tempfile.mkdtemp(prefix="q_inc_fold_",
                                                dir="/tmp"),
                      run_id="base")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    if docs.count() == 0:
        _FOLD_CACHE[sf_dir] = None
        return None

    def part_fn(shard: bool):
        def f(t: pa.Table) -> pa.Table:
            did = t["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            m = (did % 5 == 4) if shard else (did % 5 != 4)
            return t.filter(pa.array(m))
        return f

    run_dedup(docs.map_batches(part_fn(False), batch_format="pyarrow"),
              cfg, extract=False, url_col="doc_id", text_col="text",
              skip_substring=True)
    res = run_dedup_incremental(
        docs.map_batches(part_fn(True), batch_format="pyarrow"),
        dataclasses.replace(cfg, run_id="fold"), base_run_id="base",
        extract=False, url_col="doc_id", text_col="text",
        skip_substring=True)
    _FOLD_CACHE[sf_dir] = res
    return res


def q_fold_provenance(sf_dir: str):
    """Daily-crawl triage report over the incremental fold (the theme's
    incremental axis): for every SHARD doc, three symmetric facts of the
    joint clustering — exact_dup_of_archive (a base doc shares its exact
    text), dup_of_archive (its joint cluster contains any base doc:
    today's page duplicates the archive, exactly or nearly),
    dup_within_shard (its cluster contains another shard doc: today's
    crawl self-duplicates). Symmetric counts only — no rep/canonical
    convention — so the oracle is three window sums over the same
    reps-collapsed chain replay as q_incremental_fold. Engine: one
    cluster-keyed exchange; exact flags group by rep_id INSIDE the
    cluster partition (text groups are subsets of clusters)."""
    res = _run_fold(sf_dir)
    if res is None:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "exact_dup_of_archive": pa.array([], pa.bool_()),
            "dup_of_archive": pa.array([], pa.bool_()),
            "dup_within_shard": pa.array([], pa.bool_())}))

    P = default_partitions(0)

    def flags(part: pa.Table) -> pa.Table:
        cid = part["cluster_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        rep = part["rep_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        orig = pc.cast(part["url"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        if not len(cid):
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "exact_dup_of_archive": pa.array([], pa.bool_()),
                "dup_of_archive": pa.array([], pa.bool_()),
                "dup_within_shard": pa.array([], pa.bool_())})
        is_base = orig % 5 != 4
        order, starts = group_runs(cid)
        ob, oo, orp = is_base[order], orig[order], rep[order]
        sizes = np.diff(starts)
        grp = np.repeat(np.arange(len(sizes)), sizes)
        n_base_cl = np.bincount(grp, weights=ob)[grp] > 0
        n_shard_cl = np.bincount(grp, weights=~ob)[grp] > 1
        # exact flags: same-text groups inside the cluster partition
        rcodes = pd.factorize(orp, sort=False)[0]
        n_base_txt = np.bincount(rcodes, weights=ob)[rcodes] > 0
        keep = ~ob
        return pa.table({
            "doc_id": pa.array(oo[keep], pa.int64()),
            "exact_dup_of_archive": pa.array(n_base_txt[keep]),
            "dup_of_archive": pa.array(n_base_cl[keep]),
            "dup_within_shard": pa.array(n_shard_cl[keep])})

    return partition_apply(
        res.dedup_out.select_columns(["url", "rep_id", "cluster_id"]),
        "cluster_id", flags, P)


def q_incremental_fold(sf_dir: str):
    """Driver-signed INCREMENTAL dedup (the daily-crawl fold surface,
    pipelines/incremental.py): split the documents table into a base
    corpus (doc_id % 5 != 4) and a new shard (doc_id % 5 == 4), run the
    base dedup WITH checkpoints, fold the shard in via
    ``run_dedup_incremental`` (base signatures re-read, only the shard
    is signed), and emit each doc's JOINT cluster keyed by ORIGINAL ids:
    cluster_rep = min original doc_id over the doc's cluster (exact-dup
    groups merged with verified near components). Fold partition ==
    from-scratch joint partition is the pinned contract
    (tests/test_incremental.py), and the from-scratch partition is
    SQL-replayable at the q_lsh_clusters config over the DISTINCT-TEXT
    reps — so the fold path gets a hash-exact oracle even though the
    engine's internal url-hash ids are not replayable (they are re-keyed
    to min-original-id labels in one cluster-keyed exchange).
    Precondition (documented like the ASCII/collision regimes): the
    oracle star-pairs over-cap buckets around the min ORIGINAL rep id
    while the engine uses its min internal hash id — identical candidate
    structure whenever no bucket exceeds bucket_cap (true at every sf)."""
    res = _run_fold(sf_dir)
    if res is None:   # zero-row corpus: emit the typed result
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "cluster_rep": pa.array([], pa.int64())}))

    P = default_partitions(0)

    def rekey(part: pa.Table) -> pa.Table:
        cid = part["cluster_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        orig = pc.cast(part["url"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        if not len(cid):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "cluster_rep": pa.array([], pa.int64())})
        order, starts = group_runs(cid)
        oo = orig[order]
        mins = np.minimum.reduceat(oo, starts[:-1])
        return pa.table({
            "doc_id": pa.array(oo, pa.int64()),
            "cluster_rep": pa.array(np.repeat(mins, np.diff(starts)),
                                    pa.int64())})

    return partition_apply(
        res.dedup_out.select_columns(["url", "cluster_id"]),
        "cluster_id", rekey, P)


# --- round-5 session-5: soft dedup, split tagging, CDC chunking ------------

def q_soft_dedup_weights(sf_dir: str):
    """SoftDeDup-style per-doc DOWNWEIGHTING (the remove-nothing dedup
    tier: instead of dropping duplicates, training reweights them so a
    text's total sampling mass is one doc's worth): for each doc,
    ``n_copies`` = corpus-wide count of its normalized text (the
    q_normalized_dedup normalization — lower + strip non-alnum) and
    ``weight`` = 1/n_copies. Complements [[q_dedup_tiers]]' hard
    attribution with the soft alternative a data-recipe ablation needs.
    One norm-hash-routed exchange (the q_normalized_dedup shape, but
    emitting every ROW with its group size rather than one rep per
    group); grouping inside the partition is on the exact normalized
    STRING — the hash only routes. Both engines derive the double as
    IEEE 1.0/n, so the weight column is bit-exact vs SQL."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pa.Table) -> pa.Table:
        nt = pc.utf8_lower(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z0-9 ]", replacement=""))
        return pa.table({
            "doc_id": b["doc_id"], "norm": nt,
            "_nh": pa.array(hash_str_array(nt), pa.uint64())})

    def weigh(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, _ = pd.factorize(part["norm"].to_pandas(), sort=False)
        cnt = np.bincount(codes).astype(np.int64) if len(codes) \
            else np.zeros(0, np.int64)
        n = cnt[codes] if len(codes) else np.zeros(0, np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_copies": pa.array(n, pa.int64()),
            "weight": pa.array(1.0 / n if len(n) else
                               np.zeros(0, np.float64), pa.float64())})

    return partition_apply(ds.map_batches(norm, batch_format="pyarrow"),
                           "_nh", weigh, default_partitions())


def q_train_split(sf_dir: str):
    """Deterministic train/valid/test split tagging (98/1/1): the
    held-out-set assignment a pretraining pipeline stamps on every doc
    so eval contamination is structurally impossible — stable under
    re-runs, re-sharding and corpus growth because the label is a pure
    function of doc_id (the q_sample multiplicative hash, mod 100:
    < 98 train, = 98 valid, else test). Stateless map, no shuffle,
    bit-exact vs the HUGEINT CASE replay in SQL."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def tag(t: pa.Table) -> pa.Table:
        h = knuth_hash32(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ) % np.uint64(100)
        split = np.where(h < 98, "train",
                         np.where(h == 98, "valid", "test"))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "lang": t["lang"],
                         "split": pa.array(split, pa.string())})

    return ds.map_batches(tag, batch_format="pyarrow")


_CDC_MOD = 8   # expected chunk length 1/P(boundary) = 8 tokens


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking + chunk-level dedup stats (the
    storage-dedup/RETRO-retrieval primitive at token granularity): a
    chunk boundary falls AFTER token j iff ``poly_hash(token_j) %
    _CDC_MOD == 0`` — boundaries depend only on local content, so a
    shared passage chunks identically in every doc regardless of
    position (the property fixed-stride windows lack, and why CDC finds
    shifted duplicates). Output one row per chunk: (doc_id, chunk_idx,
    n_tokens, n_copies) where n_copies = corpus-wide instance count of
    the chunk's exact text. Every doc emits >= 1 chunk (empty text is
    one empty token, the q_chunk_tokens split contract).

    Plan: stateless chunker map (vectorized rolling split: per-token
    poly hashes, per-doc exclusive boundary cumsum, ListArray +
    binary_join chunk reassembly) -> one chunk-hash exchange; counting
    inside the partition is on the exact chunk STRING (hash only
    routes). 100 TB note: chunk text crosses the exchange once; the
    crossdoc_ngrams hash_only projection applies identically if a
    2^-128 collision budget is acceptable.

    SQL parity boundary (the q_simhash_pairs contract): the oracle
    folds CODEPOINTS where poly_str_hashes folds UTF-8 bytes —
    identical iff the corpus is ASCII, which the fixture contract and
    the dedicated ASCII fuzz corpus (tests/test_textops_fuzz.py)
    guarantee; boundary placement on non-ASCII corpora is still
    deterministic, just not SQL-replayed."""
    from ray_data_mplsh.functions.hashing import (hash_str_array,
                                                  poly_str_hashes)
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    P = default_partitions()
    _EMPTY = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "chunk_idx": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
        "ctext": pa.array([], pa.string()),
        "ch": pa.array([], pa.uint64())})

    def chunk_rows(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(b["text"])
        if len(row) == 0:
            return _EMPTY
        wh = poly_str_hashes(words)
        f = wh % np.uint64(_CDC_MOD) == 0
        # exclusive cumsum of boundary flags, rebased per doc: token j's
        # chunk index = #boundaries among its doc's EARLIER tokens
        ce = np.concatenate(([0], np.cumsum(f)[:-1])).astype(np.int64)
        first = np.concatenate(([True], row[1:] != row[:-1]))
        starts = np.flatnonzero(first)
        counts = np.diff(np.concatenate([starts, [len(row)]]))
        chunk = ce - np.repeat(ce[starts], counts)
        newc = np.concatenate(
            ([True], (row[1:] != row[:-1]) | (chunk[1:] != chunk[:-1])))
        cstarts = np.flatnonzero(newc)
        clens = np.diff(np.concatenate([cstarts, [len(row)]]))
        offs = pa.array(np.concatenate(
            ([0], np.cumsum(clens))).astype(np.int64), pa.int64())
        lst = pa.LargeListArray.from_arrays(
            offs, pa.array(words, pa.large_string()))
        ctext = pc.binary_join(
            lst, pa.scalar(" ", pa.large_string())).cast(pa.string())
        return pa.table({
            "doc_id": pa.array(ids[row[cstarts]], pa.int64()),
            "chunk_idx": pa.array(chunk[cstarts], pa.int64()),
            "n_tokens": pa.array(clens.astype(np.int64)),
            "ctext": ctext,
            "ch": pa.array(hash_str_array(ctext), pa.uint64())})

    def copies(part: pa.Table) -> pa.Table:
        codes, _ = pd.factorize(part["ctext"].to_pandas(), sort=False)
        cnt = np.bincount(codes).astype(np.int64) if len(codes) \
            else np.zeros(0, np.int64)
        n = cnt[codes] if len(codes) else np.zeros(0, np.int64)
        return pa.table({
            "doc_id": part["doc_id"], "chunk_idx": part["chunk_idx"],
            "n_tokens": part["n_tokens"],
            "n_copies": pa.array(n, pa.int64())})

    return partition_apply(
        ds.map_batches(chunk_rows, batch_format="pyarrow"),
        "ch", copies, P)


_OOV_K = 16   # the 31-word fixture vocab makes a 16-word cutoff bite


def q_oov_rate(sf_dir: str):
    """Tokenizer-prep OOV audit: the corpus's top-``_OOV_K`` vocabulary
    by total term frequency (ties: count DESC, word ASC — deterministic
    at the cutoff) and, per doc, the fraction of tokens OUTSIDE it —
    the signal that sizes a vocabulary or flags domain drift before a
    tokenizer retrain. Output (doc_id, n_tok, n_oov, oov_frac); every
    doc has >= 1 token (the split contract), so the ratio is total.

    Plan: per-batch word-count partials (the q_doc_freq combiner shape)
    -> |vocab|-bounded groupby -> DISTRIBUTED sort/limit top-K (the
    vocabulary never rides to the driver — only the K winners do) ->
    K-word broadcast -> zero-shuffle searchsorted scoring scan. Both
    engines sort words as raw UTF-8/codepoints (identical orders) and
    derive oov_frac as one IEEE int64/int64 divide."""
    import ray
    from ray.data.aggregate import Sum

    from ray_data_mplsh.stages.shuffle import cached_get

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def cpart(b: pa.Table) -> pa.Table:
        row, words = _split_words(b["text"])
        codes, uniq = pd.factorize(words, sort=False)
        c = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "c": pa.array(c, pa.int64())})

    top = ds.map_batches(cpart, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("c", alias_name="c")) \
        .sort(["c", "word"], descending=[True, False]) \
        .limit(_OOV_K).to_pandas()
    # empty corpus: the groupby drops its schema, so probe the column
    vocab = np.sort(top["word"].to_numpy(dtype=object).astype(str)) \
        if "word" in top.columns and len(top) else np.empty(0, str)
    ref = ray.put(vocab)

    def scan(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        row, words = _split_words(b["text"])
        v = cached_get(ref)
        n_tok = np.bincount(row, minlength=len(ids)).astype(np.int64)
        if len(row) and len(v):
            w = words.astype(str)
            pos = np.searchsorted(v, w)
            hit = np.zeros(len(w), bool)
            inb = pos < len(v)
            hit[inb] = v[pos[inb]] == w[inb]
            n_oov = np.bincount(row[~hit], minlength=len(ids)) \
                .astype(np.int64)
        else:
            n_oov = n_tok.copy()
        frac = np.divide(n_oov, n_tok, out=np.zeros(len(ids), np.float64),
                         where=n_tok > 0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_tok": pa.array(n_tok, pa.int64()),
                         "n_oov": pa.array(n_oov, pa.int64()),
                         "oov_frac": pa.array(frac, pa.float64())})

    return ds.map_batches(scan, batch_format="pyarrow")


def q_curation_v3(sf_dir: str):
    """Webtext curation chain v3, composing this session's tier-dedup
    additions end-to-end the way a crawl-to-corpus recipe runs them:
    [[boilerplate_lines]] scrub (cross-doc frequent lines removed
    everywhere) -> exact FIRST-WINS dedup on the SCRUBBED text (scrub
    first: two docs differing only in chrome collapse after it) ->
    [[q_train_split]]'s deterministic hash tag -> the train shard only.
    Output (doc_id, text): the curated training corpus.

    Scale shape: the scrub is the boilerplate broadcast plan; the dedup
    is ONE text-hash exchange (text rides it once — it must reach the
    output anyway; grouping inside the partition is on the exact
    STRING); the split tag is stateless. At 100 TB the dedup exchange
    ships (hash, doc_id) pairs with a winner-attach broadcast instead —
    the q_exact_dedup slim-column note applies verbatim."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    P = default_partitions()
    scrubbed = boilerplate_lines(
        _read(sf_dir, "documents", ["doc_id", "text"]))

    def hx(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "text": b["text"],
            "_h": pa.array(hash_str_array(b["text"]), pa.uint64())})

    def rep(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, _ = pd.factorize(part["text"].to_pandas(), sort=False)
        o = np.lexsort((ids, codes))
        c = codes[o]
        first = np.concatenate(([True], c[1:] != c[:-1])) \
            if len(o) else np.empty(0, bool)
        sel = o[first]
        return pa.table({"doc_id": pa.array(ids[sel], pa.int64()),
                         "text": part["text"].take(pa.array(sel))})

    reps = partition_apply(
        scrubbed.map_batches(hx, batch_format="pyarrow"), "_h", rep, P)

    def train_only(t: pa.Table) -> pa.Table:
        h = knuth_hash32(
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ) % np.uint64(100)
        return t.filter(pa.array(h < 98))

    return reps.map_batches(train_only, batch_format="pyarrow")


def q_bloom_dedup(sf_dir: str):
    """Counting-Bloom prefiltered exact dedup (pipelines/bloom.py): a
    mergeable two-bitplane Bloom built from per-block partials lets every
    corpus-unique doc skip the dedup exchange entirely (on web crawls
    that is 60-90 % of rows); only potential dups (true dups + bounded
    false positives) ride the text-hash exchange, where grouping is on
    the exact STRING — so the output is exact at ANY false-positive
    rate and a plain GROUP BY oracle signs it. Output one row per
    distinct text: (doc_id = group-min, n_copies, text)."""
    from ray_data_mplsh.pipelines.bloom import bloom_dedup

    return bloom_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_shard_assign(sf_dir: str):
    """Deterministic output-shard manifest — the resumable-output story
    as a driver-signed query. Every doc routes to shard
    ``knuth_hash32(doc_id) % 16`` (the HIGH product word, so the modulus
    is a real hash, not id-stride sampling); a partitioned
    ``write_parquet`` run uses the same label for its directory layout,
    so a resumed run skips finished shards by diffing this manifest.
    Output one row per shard: (shard_id, n_docs, n_chars_sum,
    min_doc_id, max_doc_id).

    Scale shape: per-batch bincount/min/max partials (<= 16 rows per
    batch, whatever the batch size) ride the only exchange; doc rows
    never move, and the read prunes to two int64 columns."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    S = 16

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        sh = (knuth_hash32(ids.astype(np.uint64))
              % np.uint64(S)).astype(np.int64)
        n = np.bincount(sh, minlength=S)
        csum = np.bincount(sh, weights=nch, minlength=S).astype(np.int64)
        mn = np.full(S, np.iinfo(np.int64).max, np.int64)
        mx = np.full(S, np.iinfo(np.int64).min, np.int64)
        np.minimum.at(mn, sh, ids)
        np.maximum.at(mx, sh, ids)
        hit = n > 0
        return pa.table({
            "shard_id": pa.array(np.flatnonzero(hit).astype(np.int64)),
            "d": pa.array(n[hit].astype(np.int64)),
            "c": pa.array(csum[hit]),
            "mn": pa.array(mn[hit]), "mx": pa.array(mx[hit])})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("shard_id").aggregate(
            Sum("d", alias_name="n_docs"),
            Sum("c", alias_name="n_chars_sum"),
            Min("mn", alias_name="min_doc_id"),
            Max("mx", alias_name="max_doc_id"))


def q_dup_inflation(sf_dir: str):
    """Per-source duplicated-token inflation — the tier-dedup THEME
    turned into a cost report: for each source, how many tokens the
    crawl pays for exact-duplicate copies, and the inflation factor
    total_tokens / kept_tokens a dedup pass recovers (NULL when a
    source keeps zero tokens, matching the SQL CASE). Duplicate =
    doc_id differs from the corpus-wide first (min) doc_id of its
    exact text, detected on the 64-bit text hash exactly as
    q_exact_dedup does (same collision contract).

    Scale shape: ONE slim exchange of (hash, doc_id, source-dict,
    ntok) — text never moves; per-partition first-wins + per-source
    partials collapse to |sources| rows before the tiny groupby."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    P = default_partitions()

    def slim(b: pa.Table) -> pa.Table:
        toks = pc.list_value_length(pc.split_pattern_regex(
            pc.utf8_trim_whitespace(b["text"]), pattern=r"\s+"))
        return pa.table({
            "_h": pa.array(hash_str_array(b["text"]), pa.uint64()),
            "doc_id": b["doc_id"], "source": b["source"],
            "ntok": pc.cast(toks, pa.int64())})

    def per_part(part: pa.Table) -> pa.Table:
        h = part["_h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ntok = part["ntok"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(ids) == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "d": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64()),
                             "dd": pa.array([], pa.int64()),
                             "dt": pa.array([], pa.int64())})
        codes, _ = pd.factorize(h, sort=False)
        gmin = np.full(codes.max() + 1, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(gmin, codes, ids)
        is_dup = ids != gmin[codes]
        scodes, svals = pd.factorize(part["source"].to_pandas(),
                                     sort=False)
        ns = len(svals)
        d = np.bincount(scodes, minlength=ns).astype(np.int64)
        t = np.bincount(scodes, weights=ntok, minlength=ns) \
            .astype(np.int64)
        dd = np.bincount(scodes[is_dup], minlength=ns).astype(np.int64)
        dt = np.bincount(scodes[is_dup], weights=ntok[is_dup],
                         minlength=ns).astype(np.int64)
        return pa.table({"source": pa.array(svals.astype(str)),
                         "d": pa.array(d), "t": pa.array(t),
                         "dd": pa.array(dd), "dt": pa.array(dt)})

    parts = partition_apply(
        ds.map_batches(slim, batch_format="pyarrow"), "_h", per_part, P)
    agg = parts.groupby("source").aggregate(
        Sum("d", alias_name="n_docs"), Sum("t", alias_name="n_tokens"),
        Sum("dd", alias_name="n_dup_docs"),
        Sum("dt", alias_name="dup_tokens"))

    def ratio(b: pa.Table) -> pa.Table:
        tot = b["n_tokens"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        dup = b["dup_tokens"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        kept = tot - dup
        infl = tot / np.where(kept > 0, kept, 1)
        # |sources| rows: a list build is fine, and None (not NaN)
        # matches the SQL CASE's NULL for zero kept tokens
        return b.append_column(
            "inflation", pa.array([float(v) if k > 0 else None
                                   for v, k in zip(infl, kept)],
                                  pa.float64()))

    return agg.map_batches(ratio, batch_format="pyarrow")


def q_dup_flow_matrix(sf_dir: str):
    """Cross-source NEAR-duplicate flow matrix — which sources copy
    from which: for every unordered source pair, the number of
    LSH-verified near-dup pairs with one endpoint in each (self-pairs
    count a source's internal near-dup mass). Consumes the
    [[q_lsh_verified_pairs]] memoized pair set, so the distributed
    S3-S6 chain runs once per process; the matrix fold itself is
    output-bounded: the pair set (output-sized, capped gather like
    q_lsh_clusters' label broadcast) and the pair-incident (doc_id,
    source) rows (<= 2·|pairs|, map-side semi-join against a broadcast
    incident-id set — the corpus never gathers). A >4M-pair run should
    flip the fold to a doc-keyed exchange join instead.

    Oracled by splicing _LSH_PAIRS_SQL whole and joining documents
    twice — LEAST/GREATEST on DuckDB's binary collation matches
    numpy's codepoint minimum on the ASCII source names."""
    import ray

    pairs = q_lsh_verified_pairs(sf_dir)
    pt = gather_capped(pairs, 4_000_000, pa.schema(
        [("a", pa.int64()), ("b", pa.int64()),
         ("jaccard", pa.float64())]))
    assert pt is not None, "flow matrix pair set overflowed the cap"
    a = pt["a"].to_numpy(zero_copy_only=False).astype(np.int64)
    b_ = pt["b"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(a) == 0:
        return pa.table({"source_a": pa.array([], pa.string()),
                         "source_b": pa.array([], pa.string()),
                         "n_pairs": pa.array([], pa.int64())})
    incident = np.unique(np.concatenate([a, b_]))
    iref = ray.put(incident)

    def pick(t: pa.Table) -> pa.Table:
        inc = cached_get(iref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(inc, ids).clip(0, len(inc) - 1)
        return t.filter(pa.array(inc[pos] == ids))

    st = gather_capped(
        _read(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(pick, batch_format="pyarrow"),
        4_000_000, pa.schema([("doc_id", pa.int64()),
                              ("source", pa.string())]))
    assert st is not None, "incident source rows overflowed the cap"
    sk = st["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sv = st["source"].to_numpy(zero_copy_only=False)
    so = np.argsort(sk)
    sk, sv = sk[so], sv[so]
    ia = np.searchsorted(sk, a)
    ib = np.searchsorted(sk, b_)
    # every pair endpoint exists in documents by construction; assert
    # rather than silently attach the nearest source (ADVICE r4 rule)
    assert len(sk) and (sk[ia] == a).all() and (sk[ib] == b_).all()
    sa, sb = sv[ia].astype(str), sv[ib].astype(str)
    swap = sb < sa                       # codepoint order == binary
    lo = np.where(swap, sb, sa)          # collation on ASCII sources
    hi = np.where(swap, sa, sb)
    key = np.char.add(np.char.add(lo, "\x00"), hi)
    _, idx, cnt = np.unique(key, return_index=True, return_counts=True)
    return pa.table({
        "source_a": pa.array(lo[idx], pa.string()),
        "source_b": pa.array(hi[idx], pa.string()),
        "n_pairs": pa.array(cnt.astype(np.int64), pa.int64())})


def q_tier_token_report(sf_dir: str):
    """Executive rollup of the tier-dedup THEME: per dedup tier (exact /
    normalized / near / prefix / unique), how many documents land there
    and how many tokens they carry — i.e. the token budget each dedup
    tier recovers. Consumes the memoized [[q_dedup_tier_report]] labels
    (the full production chain runs once per process) and the
    q_token_counts kernel, joined on doc_id via the distributed
    fact-fact inner join (both sides are corpus-sized; no broadcast),
    then collapsed to <= 5 rows by a combiner-friendly groupby."""
    from ray.data.aggregate import Count, Sum
    from ray_data_mplsh.stages.relational import inner_join

    tiers = q_dedup_tier_report(sf_dir)
    if tiers.count() == 0:      # memoized+materialized: count is free
        return pa.table({"tier": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64()),
                         "n_tokens": pa.array([], pa.int64())})
    tok = q_token_counts(sf_dir).map_batches(
        lambda t: pa.table({"tid": t["doc_id"],
                            "n_tokens": t["n_tokens"]}),
        batch_format="pyarrow")
    j = inner_join(tiers, tok, left_on="doc_id", right_on="tid")
    return j.groupby("tier").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_tokens", alias_name="n_tokens"))


def q_best_of_dup_group(sf_dir: str):
    """Quality-priority canonical pick — "keep the BEST copy, not the
    first crawled": within each normalized-PREFIX dup group (the
    [[q_normalized_dedup]] normalization — lower + strip non-alnum —
    sliced to the q_prefix_dup_groups 40-char blocking key, where
    truncated mirrors and the full article land together) the survivor
    is the doc with the most alpha chars in its ORIGINAL text (the
    q_quality_scores signal — a truncated or boilerplate-stripped
    mirror carries less alpha than the clean original), ties broken by
    min doc_id. NOTE the full-norm-group variant would be vacuous: two
    docs with the SAME whole normalized text have identical [a-zA-Z]
    counts (case folding and punct stripping never change alpha), so
    the quality argmax only bites on a blocking key coarser than the
    full norm — the prefix tier is exactly that. Same one-exchange
    shape as q_normalized_dedup (the prefix hash co-locates, the exact
    prefix decides, the per-row quality signal rides the exchange as
    one extra int64), so retention-priority costs nothing over
    first-wins at scale. ASCII corpus => codeunit slice == SQL substr
    (the q_prefix_dup_groups contract)."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pa.Table) -> pa.Table:
        nt = pc.utf8_slice_codeunits(pc.utf8_lower(
            pc.replace_substring_regex(
                b["text"], pattern="[^a-zA-Z0-9 ]", replacement="")),
            0, 40)
        alpha = pc.cast(pc.utf8_length(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z]", replacement="")), pa.int64())
        return pa.table({
            "doc_id": b["doc_id"], "norm": nt, "alpha": alpha,
            "_nh": pa.array(hash_str_array(nt), pa.uint64())})

    def keep(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        alpha = part["alpha"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, _ = pd.factorize(part["norm"].to_pandas(), sort=False)
        o = np.lexsort((ids, -alpha, codes))
        c = codes[o]
        first = np.concatenate(([True], c[1:] != c[:-1])) \
            if len(o) else np.empty(0, bool)
        starts = np.flatnonzero(first)
        cnt = np.diff(np.concatenate([starts, [len(o)]]))
        return pa.table({
            "keep": pa.array(ids[o][starts], pa.int64()),
            "alpha_chars": pa.array(alpha[o][starts], pa.int64()),
            "n_docs": pa.array(cnt.astype(np.int64))})

    return partition_apply(ds.map_batches(norm, batch_format="pyarrow"),
                           "_nh", keep, default_partitions())


def q_jaccard_histogram(sf_dir: str):
    """Verified-pair similarity distribution — the threshold-tuning
    report an LSH operator reads before moving verify_theta: pairs per
    exact signature-agreement level from the memoized
    [[q_lsh_verified_pairs]] set. Grouping on the float is exact
    because every value is a dyadic n/16 (both engine and oracle
    compute it as slot-agreement/16); the fold is a combiner-friendly
    groupby over an output-sized input, and the S3-S6 chain itself is
    amortized across all four of its registry consumers."""
    from ray.data.aggregate import Count

    pairs = q_lsh_verified_pairs(sf_dir)
    if pairs.count() == 0:      # memoized+materialized: count is free
        return pa.table({"jaccard": pa.array([], pa.float64()),
                         "n_pairs": pa.array([], pa.int64())})
    return pairs.groupby("jaccard").aggregate(
        Count(alias_name="n_pairs"))


def q_bow_dedup(sf_dir: str):
    """Bag-of-words dedup tier — word-order-insensitive exact dedup:
    two docs whose word MULTISETS match are one doc (catches
    shuffled-sentence mirrors and listicle reorders that the exact and
    [[q_normalized_dedup]] tiers miss, while "a a b" vs "a b b" stay
    distinct because counts are preserved). Key = the words of the doc
    sorted lexicographically and rejoined; one key-hash-routed exchange
    (the q_normalized_dedup shape — the hash co-locates, the exact
    rebuilt key decides), min-doc_id rep + group size out. numpy
    codepoint sort == DuckDB list_sort binary collation on the ASCII
    fixture corpus (the house SimHash/q_prefix_dup_groups contract)."""
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bow_key(b: pa.Table) -> pa.Table:
        row, words = _split_words(b["text"])
        codes, _ = pd.factorize(words, sort=True)
        o = np.lexsort((codes, row))
        joined = pd.Series(words[o]).groupby(row[o]).agg(" ".join)
        full = np.full(len(b), "", dtype=object)
        if len(joined):
            full[joined.index.to_numpy()] = joined.to_numpy()
        bow = pa.array(full, pa.string())
        return pa.table({
            "doc_id": b["doc_id"], "bow": bow,
            "_bh": pa.array(hash_str_array(bow), pa.uint64())})

    def keep(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        codes, _ = pd.factorize(part["bow"].to_pandas(), sort=False)
        o = np.lexsort((ids, codes))
        c = codes[o]
        first = np.concatenate(([True], c[1:] != c[:-1])) \
            if len(o) else np.empty(0, bool)
        starts = np.flatnonzero(first)
        cnt = np.diff(np.concatenate([starts, [len(o)]]))
        return pa.table({
            "rep": pa.array(ids[o][starts], pa.int64()),
            "n_docs": pa.array(cnt.astype(np.int64))})

    return partition_apply(
        ds.map_batches(bow_key, batch_format="pyarrow"),
        "_bh", keep, default_partitions())


def q_prefix_dup_flow(sf_dir: str):
    """Directional copy matrix under quality-priority retention — which
    source's docs get DROPPED in favor of which source's best copy: for
    every non-surviving member of a 40-char norm-prefix dup group (the
    [[q_best_of_dup_group]] blocking key AND survivor rule:
    argmax(alpha), ties to min doc_id), one (owner, copier) count where
    owner is the survivor's source and copier the dropped doc's source.
    The DIRECTED complement of the unordered near-tier
    [[q_dup_flow_matrix]] — direction exists here because retention
    distinguishes a canonical, while a verified near-pair has none.
    One prefix-hash exchange (group members co-locate, so the survivor
    resolves partition-locally), per-partition (owner, copier) partial
    counts, then a |sources|^2-row groupby folded on the driver (the
    q_rollup_lang_source rule) — the corpus never leaves its
    partitions."""
    from ray.data.aggregate import Sum
    from ray_data_mplsh.functions.hashing import hash_str_array
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def h(b: pa.Table) -> pa.Table:
        pfx = pc.utf8_slice_codeunits(pc.utf8_lower(
            pc.replace_substring_regex(
                b["text"], pattern="[^a-zA-Z0-9 ]", replacement="")),
            0, 40)
        alpha = pc.cast(pc.utf8_length(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z]", replacement="")), pa.int64())
        return pa.table({
            "doc_id": b["doc_id"], "source": b["source"],
            "pfx": pfx, "alpha": alpha,
            "_ph": pa.array(hash_str_array(pfx), pa.uint64())})

    def flow(part: pa.Table) -> pa.Table:
        empty = pa.table({"owner": pa.array([], pa.string()),
                          "copier": pa.array([], pa.string()),
                          "n_copies": pa.array([], pa.int64())})
        if part.num_rows == 0:
            return empty
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        alpha = part["alpha"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = part["source"].to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(part["pfx"].to_pandas(), sort=False)
        o = np.lexsort((ids, -alpha, codes))
        c, s = codes[o], src[o]
        first = np.concatenate(([True], c[1:] != c[:-1]))
        gidx = np.cumsum(first) - 1
        win_src = s[np.flatnonzero(first)][gidx]
        dropped = ~first
        if not dropped.any():
            return empty
        owner = win_src[dropped].astype(str)
        copier = s[dropped].astype(str)
        key = np.char.add(np.char.add(owner, "\x00"), copier)
        _, idx, cnt = np.unique(key, return_index=True,
                                return_counts=True)
        return pa.table({
            "owner": pa.array(owner[idx], pa.string()),
            "copier": pa.array(copier[idx], pa.string()),
            "n_copies": pa.array(cnt.astype(np.int64), pa.int64())})

    parts = partition_apply(ds.map_batches(h, batch_format="pyarrow"),
                            "_ph", flow, default_partitions())
    agg = parts.groupby(["owner", "copier"]).aggregate(
        Sum("n_copies", alias_name="n_copies")).to_pandas()
    # |sources|^2-bounded driver fold (the q_rollup_lang_source rule:
    # the lattice is over group keys, not data rows); an empty groupby
    # drops its schema, so rebuild the typed frame explicitly
    return pa.table({
        "owner": pa.array(agg.get("owner", pd.Series(dtype=object))
                          .to_numpy(dtype=object), pa.string()),
        "copier": pa.array(agg.get("copier", pd.Series(dtype=object))
                           .to_numpy(dtype=object), pa.string()),
        "n_copies": pa.array(agg.get("n_copies",
                                     pd.Series(dtype="int64"))
                             .to_numpy(dtype="int64"), pa.int64())})


def q_split_leakage(sf_dir: str):
    """Held-out-set contamination audit — the check a pretraining
    pipeline runs before trusting its eval numbers: for every valid /
    test doc (the [[q_train_split]] deterministic 98/1/1 tagging), how
    many TRAIN docs share its normalized text (the q_normalized_dedup
    key). n_train_copies > 0 means the eval doc leaks into training
    verbatim-up-to-case/punct; zero-count rows are emitted too, so the
    report always covers the whole held-out set. One norm-hash exchange
    carrying (doc_id, split, norm) — copies co-locate, so the train
    count per group resolves partition-locally; output is
    held-out-sized (~2% of the corpus), never the corpus."""
    from ray_data_mplsh.functions.hashing import (hash_str_array,
                                                  knuth_hash32)
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pa.Table) -> pa.Table:
        h = knuth_hash32(
            b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ) % np.uint64(100)
        split = np.where(h < 98, "train",
                         np.where(h == 98, "valid", "test"))
        nt = pc.utf8_lower(pc.replace_substring_regex(
            b["text"], pattern="[^a-zA-Z0-9 ]", replacement=""))
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()),
            "split": pa.array(split, pa.string()), "norm": nt,
            "_nh": pa.array(hash_str_array(nt), pa.uint64())})

    def leak(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        split = part["split"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(part["norm"].to_pandas(), sort=False)
        is_train = split == "train"
        n_train = np.bincount(codes[is_train], minlength=len(uniq)) \
            .astype(np.int64)
        held = ~is_train
        return pa.table({
            "doc_id": pa.array(ids[held], pa.int64()),
            "split": pa.array(split[held].astype(object), pa.string()),
            "n_train_copies": pa.array(n_train[codes[held]], pa.int64())})

    return partition_apply(ds.map_batches(norm, batch_format="pyarrow"),
                           "_nh", leak, default_partitions())


def q_lang_confusion(sf_dir: str):
    """Language-ID confusion matrix — the eval a pipeline reads before
    trusting [[q_lang_id]] as a filter: stored lang x predicted lang
    doc counts. Per-batch argmax prediction + (lang, pred) partial
    counts (batch-local combiner), a |langs|^2-bounded groupby, typed
    driver fold guarding the empty-groupby schema loss."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text", "lang"])
    langs = sorted(_LANG_MARKERS)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "pred_lang": pa.array([], pa.string()),
                             "n_docs": pa.array([], pa.int64())})
        scores = np.stack([
            pc.count_substring_regex(t["text"], _LANG_MARKERS[lg])
              .to_numpy(zero_copy_only=False).astype(np.int64)
            for lg in langs], axis=1)
        pred = np.array(langs, dtype=object)[
            np.argmax(scores, axis=1)].astype(str)
        lang = t["lang"].to_numpy(zero_copy_only=False).astype(str)
        key = np.char.add(np.char.add(lang, "\x00"), pred)
        _, idx, cnt = np.unique(key, return_index=True,
                                return_counts=True)
        return pa.table({
            "lang": pa.array(lang[idx].astype(object), pa.string()),
            "pred_lang": pa.array(pred[idx].astype(object), pa.string()),
            "n_docs": pa.array(cnt.astype(np.int64), pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["lang", "pred_lang"]).aggregate(
            Sum("n_docs", alias_name="n_docs")).to_pandas()
    return pa.table({
        "lang": pa.array(agg.get("lang", pd.Series(dtype=object))
                         .to_numpy(dtype=object), pa.string()),
        "pred_lang": pa.array(
            agg.get("pred_lang", pd.Series(dtype=object))
            .to_numpy(dtype=object), pa.string()),
        "n_docs": pa.array(agg.get("n_docs", pd.Series(dtype="int64"))
                           .to_numpy(dtype="int64"), pa.int64())})


def q_ccnet_pipeline(sf_dir: str):
    """The composed CCNet curation chain (Wenzek et al. 2020): language
    gate -> corpus-trained trigram-LM perplexity terciles -> keep head
    + middle, drop tail. The gate keeps docs whose [[q_lang_id]]
    argmax-marker prediction AGREES with the stored lang (the
    confusion-matrix diagonal); the LM model is then trained on and the
    terciles computed over the KEPT subcorpus only (the CCNet order —
    a tail-heavy rejected language must not skew the cuts), via the
    factored [[q_lm_score]] kernel (lm_score_ds). Output: surviving
    (doc_id, bucket in {1, 2}). One stateless gate map + the lm_score
    shape (37^3-bounded model groupby, broadcast probe, capped CDF)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    langs = sorted(_LANG_MARKERS)

    def gate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())})
        scores = np.stack([
            pc.count_substring_regex(t["text"], _LANG_MARKERS[lg])
              .to_numpy(zero_copy_only=False).astype(np.int64)
            for lg in langs], axis=1)
        pred = np.array(langs, dtype=object)[np.argmax(scores, axis=1)]
        lang = t["lang"].to_numpy(zero_copy_only=False).astype(object)
        return t.select(["doc_id", "text"]).filter(pa.array(pred == lang))

    scored = lm_score_ds(ds.map_batches(gate, batch_format="pyarrow"))
    if isinstance(scored, pa.Table):    # empty-corpus typed table
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "bucket": pa.array([], pa.int64())})
    return scored.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "bucket": t["bucket"]}).filter(
            pc.less_equal(t["bucket"], 2)),
        batch_format="pyarrow")


def q_within_doc_line_dedup(sf_dir: str):
    """Within-doc repeated-line scrub — the intra-page cleanup for nav
    menus / footers repeated inside ONE page (the complement of
    [[q_boilerplate_lines]]' cross-doc rule): every line keeps only its
    FIRST occurrence within its own doc; line order is otherwise
    preserved. Purely per-doc, so a stateless vectorized map — zero
    shuffle at any corpus size: flat (row, line) split, first-instance
    mask via one lexsort, per-row rejoin."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def scrub(b: pa.Table) -> pa.Table:
        n = b.num_rows
        s = pd.Series(b["text"].to_pandas(), dtype="object").fillna("")
        lines = s.str.split("\n")
        nl = lines.str.len().to_numpy(dtype=np.int64)
        row = np.repeat(np.arange(n, dtype=np.int64), nl)
        flat = lines.explode().to_numpy()
        if len(flat) != len(row):   # explode() yields NaN for []
            flat = flat[~pd.isna(flat)]
        starts = np.concatenate(([0], np.cumsum(nl)))[:-1]
        idx = np.arange(len(row), dtype=np.int64) - starts[row]
        codes, _ = pd.factorize(flat, sort=False)
        o = np.lexsort((idx, codes, row))
        r, c = row[o], codes[o]
        first = np.concatenate(
            ([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1]))) \
            if len(o) else np.empty(0, bool)
        kept = np.zeros(len(row), bool)
        kept[o[first]] = True
        joined = pd.Series(flat[kept]).groupby(row[kept]).agg("\n".join)
        full = np.full(n, "", dtype=object)
        if len(joined):
            full[joined.index.to_numpy()] = joined.to_numpy()
        return pa.table({"doc_id": b["doc_id"],
                         "text": pa.array(full, pa.string())})

    return ds.map_batches(scrub, batch_format="pyarrow")


def q_best_of_near_cluster(sf_dir: str):
    """Quality-priority retention applied to the NEAR tier — the third
    leg of the retention story (exact tier keeps min doc_id, prefix
    tier [[q_best_of_dup_group]], near tier this): per LSH cluster
    ([[q_lsh_clusters]], which consumes the memoized verified pair
    set), the surviving doc is the member with the most alpha chars,
    ties to min doc_id. Cluster labels are output-sized, so the fold is
    the q_dup_flow_matrix shape: capped label gather + map-side
    semi-join computing alpha ONLY for cluster-incident docs (the
    corpus never gathers), then a driver argmax over |clustered docs|
    rows."""
    import ray

    labels = q_lsh_clusters(sf_dir)
    lt = gather_capped(labels, 4_000_000, pa.schema(
        [("doc_id", pa.int64()), ("cluster_id", pa.int64())]))
    assert lt is not None, "cluster label set overflowed the cap"
    empty = pa.table({"cluster_id": pa.array([], pa.int64()),
                      "keep": pa.array([], pa.int64()),
                      "alpha_chars": pa.array([], pa.int64()),
                      "n_docs": pa.array([], pa.int64())})
    if lt.num_rows == 0:
        return empty
    ids = lt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cl = lt["cluster_id"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    incident = np.unique(ids)
    iref = ray.put(incident)

    def alpha_of(t: pa.Table) -> pa.Table:
        inc = cached_get(iref)
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(inc, did).clip(0, len(inc) - 1)
        t = t.filter(pa.array(inc[pos] == did))
        a = pc.cast(pc.utf8_length(pc.replace_substring_regex(
            t["text"], pattern="[^a-zA-Z]", replacement="")), pa.int64())
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                         "alpha": a})

    at = gather_capped(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(alpha_of, batch_format="pyarrow"),
        4_000_000, pa.schema([("doc_id", pa.int64()),
                              ("alpha", pa.int64())]))
    assert at is not None, "incident alpha rows overflowed the cap"
    ak = at["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    av = at["alpha"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(ak)
    ak, av = ak[o], av[o]
    j = np.searchsorted(ak, ids)
    assert len(ak) and (ak[j] == ids).all()   # labels ⊆ documents
    alpha = av[j]
    o = np.lexsort((ids, -alpha, cl))
    c = cl[o]
    first = np.concatenate(([True], c[1:] != c[:-1]))
    starts = np.flatnonzero(first)
    cnt = np.diff(np.concatenate([starts, [len(o)]]))
    return pa.table({
        "cluster_id": pa.array(c[starts], pa.int64()),
        "keep": pa.array(ids[o][starts], pa.int64()),
        "alpha_chars": pa.array(alpha[o][starts], pa.int64()),
        "n_docs": pa.array(cnt.astype(np.int64), pa.int64())})


def _skyline_2d(ids: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the (minimize x, maximize y) skyline —
    p is dominated iff some q has q.x <= p.x, q.y >= p.y and beats p
    strictly in one dim. Ties (equal x AND y) are mutually
    non-dominating and all kept. Vectorized: per-distinct-x group max
    of y, exclusive prefix max over ascending x, two comparisons.
    ``ids`` is unused for the mask but keeps the signature honest."""
    assert len(ids) == len(x) == len(y)
    if len(x) == 0:
        return np.zeros(0, bool)
    o = np.argsort(x, kind="stable")
    xs, ys = x[o], y[o]
    new_x = np.concatenate(([True], xs[1:] != xs[:-1]))
    gidx = np.cumsum(new_x) - 1                  # 0-based x-group index
    ng = int(gidx[-1]) + 1
    gmax = np.full(ng, np.iinfo(np.int64).min, np.int64)
    np.maximum.at(gmax, gidx, ys)
    prev = np.concatenate(                       # max y over SMALLER x
        ([np.iinfo(np.int64).min], np.maximum.accumulate(gmax)[:-1]))
    dominated = (prev[gidx] >= ys) | (gmax[gidx] > ys)
    keep = np.zeros(len(x), bool)
    keep[o] = ~dominated
    return keep


def q_skyline_docs(sf_dir: str):
    """Skyline (Pareto-frontier) operator — the multi-criteria pick
    relational engines ship that Ray Data lacks: the docs not dominated
    on (MINIMIZE n_tokens, MAXIMIZE n_distinct words) — "most
    vocabulary at fewest tokens", the densest-information frontier a
    curation pass samples from. The dims anti-correlate, so the
    frontier is non-trivial. Distribution relies on the skyline
    algebra: a point dominated within its batch is dominated globally,
    so skyline(corpus) = skyline(union of per-batch partial skylines)
    — a combiner that prunes each batch to ~O(log n) frontier points
    before the capped gather; the final driver pass runs the same
    vectorized kernel over the pruned union."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        row, words = _split_words(b["text"])
        n_tok = np.bincount(row, minlength=len(ids)).astype(np.int64)
        codes, _ = pd.factorize(words, sort=False)
        packed = np.unique((row << 32) | codes.astype(np.int64))
        n_dist = np.bincount(packed >> 32,
                             minlength=len(ids)).astype(np.int64)
        keep = _skyline_2d(ids, n_tok, n_dist)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_tokens": pa.array(n_tok[keep], pa.int64()),
            "n_distinct": pa.array(n_dist[keep], pa.int64())})

    st = gather_capped(
        ds.map_batches(partial, batch_format="pyarrow"), 4_000_000,
        pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                   ("n_distinct", pa.int64())]))
    assert st is not None, "partial-skyline union overflowed the cap"
    ids = st["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    x = st["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
    y = st["n_distinct"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    keep = _skyline_2d(ids, x, y)
    return pa.table({
        "doc_id": pa.array(ids[keep], pa.int64()),
        "n_tokens": pa.array(x[keep], pa.int64()),
        "n_distinct": pa.array(y[keep], pa.int64())})


_RESERVOIR_K = 100


def q_reservoir_sample(sf_dir: str):
    """Exact-k deterministic sample — the fixed-size complement of the
    fraction-based [[q_sample]]: the _RESERVOIR_K docs with the
    smallest (Weyl-hash, doc_id) key, i.e. a distributed bottom-k that
    behaves like a seeded reservoir but is a pure function of doc_id
    (stable under re-runs, re-sharding, and streaming order — the
    property Vitter's algorithm lacks). Per-batch bottom-k combiner
    (argpartition, k rows out per block) -> k x blocks capped gather ->
    k-bounded driver merge. Output carries the key so downstream joins
    can extend the sample deterministically."""
    from ray_data_mplsh.stages.shuffle import gather_capped as _gc

    ds = _read(sf_dir, "documents", ["doc_id"])

    def bottom_k(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        u = ((ids & np.uint64(0xFFFFFFFF)) * np.uint64(2654435761)) \
            & np.uint64(0xFFFFFFFF)
        if len(ids) > _RESERVOIR_K:
            # partition for the k-th smallest h, then keep EVERY row at
            # or below it — h-ties must all survive the combiner so the
            # final doc_id tie-break stays exact
            ui = u.astype(np.int64)
            kth = int(np.partition(ui, _RESERVOIR_K - 1)
                      [_RESERVOIR_K - 1])
            sel = np.flatnonzero(ui <= kth)
            ids, u = ids[sel], u[sel]
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
            "h": pa.array(u.astype(np.int64), pa.int64())})

    st = _gc(ds.map_batches(bottom_k, batch_format="pyarrow"),
             4_000_000, pa.schema([("doc_id", pa.int64()),
                                   ("h", pa.int64())]))
    assert st is not None, "bottom-k partials overflowed the cap"
    ids = st["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = st["h"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.lexsort((ids, h))[:_RESERVOIR_K]
    return pa.table({"doc_id": pa.array(ids[o], pa.int64()),
                     "h": pa.array(h[o], pa.int64())})


def q_hapax_rate(sf_dir: str):
    """Corpus vocabulary health — the hapax-legomenon rate (fraction
    of the vocabulary occurring exactly once): a high rate flags
    OCR/mojibake noise or heavy boilerplate stripping gone wrong; the
    signal corpus linguists read before trusting token statistics.
    Per-batch word INSTANCE-count partials (the q_doc_freq combiner
    with tf instead of df) -> |vocab| groupby -> per-block (n_vocab,
    n_hapax) partials -> blocks-bounded gather -> one row with the
    IEEE-exact rate. SQL NULL semantics on the empty corpus (SUM over
    zero rows is NULL, so n_hapax and the rate are NULL with
    n_vocab = 0)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def tf_partial(b: pa.Table) -> pa.Table:
        _, words = _split_words(b["text"])
        codes, uniq = pd.factorize(words, sort=False)
        tf = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "tf": pa.array(tf, pa.int64())})

    agg = ds.map_batches(tf_partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("tf", alias_name="tf"))

    def vocab_partial(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "nv": pa.array([np.int64(len(tf))], pa.int64()),
            "nh": pa.array([np.int64((tf == 1).sum())], pa.int64())})

    pt = gather_capped(
        agg.map_batches(vocab_partial, batch_format="pyarrow"),
        1_000_000, pa.schema([("nv", pa.int64()), ("nh", pa.int64())]))
    assert pt is not None, "hapax partials overflowed the cap"
    nv = int(pt["nv"].to_numpy(zero_copy_only=False).sum()) \
        if pt.num_rows else 0
    nh = int(pt["nh"].to_numpy(zero_copy_only=False).sum()) \
        if pt.num_rows else 0
    if nv == 0:     # SQL: SUM over zero rows is NULL, as is the rate
        return pa.table({"n_vocab": pa.array([0], pa.int64()),
                         "n_hapax": pa.array([None], pa.int64()),
                         "hapax_rate": pa.array([None], pa.float64())})
    return pa.table({
        "n_vocab": pa.array([nv], pa.int64()),
        "n_hapax": pa.array([nh], pa.int64()),
        "hapax_rate": pa.array([nh / nv], pa.float64())})


QUERIES = {
    "q_exact_dedup": q_exact_dedup,
    "q_lang_counts": q_lang_counts,
    "q_len_filter": q_len_filter,
    "q_top_sources": q_top_sources,
    "q_distinct_langs": q_distinct_langs,
    "q_events_daily": q_events_daily,
    "q_events_props": q_events_props,
    "q_join_ord_cust": q_join_ord_cust,
    "q_token_counts": q_token_counts,
    "q_quality_scores": q_quality_scores,
    "q_word_stats": q_word_stats,
    "q_doc_freq": q_doc_freq,
    "q_allpair_jaccard": q_allpair_jaccard,
    "q_ppjoin_pairs": q_ppjoin_pairs,
    "q_ppjoin_clusters": q_ppjoin_clusters,
    "q_lsh_recall": q_lsh_recall,
    "q_allpair_containment": q_allpair_containment,
    "q_knn_bruteforce": q_knn_bruteforce,
    "q_knn_lsh": q_knn_lsh,
    "q_knn_ivf": q_knn_ivf,
    "q_embedding_near_dup": q_embedding_near_dup,
    "q_embedding_dedup_clusters": q_embedding_dedup_clusters,
    "q_lang_id": q_lang_id,
    "q_lm_score": q_lm_score,
    "q_dsir_weights": q_dsir_weights,
    "q_simhash_pairs": q_simhash_pairs,
    "q_minhash_sigs": q_minhash_sigs,
    "q_band_keys": q_band_keys,
    "q_lsh_verified_pairs": q_lsh_verified_pairs,
    "q_lsh_clusters": q_lsh_clusters,
    "q_substring_candidates": q_substring_candidates,
    "q_ngram_jaccard": q_ngram_jaccard,
    "q_fingerprints": q_fingerprints,
    "q_bpe_token_counts": q_bpe_token_counts,
    "q_lineitem_agg": q_lineitem_agg,
    "q_region_nation": q_region_nation,
    "q_events_sliding": q_events_sliding,
    "q_asof_event_order": q_asof_event_order,
    "q_range_join_events": q_range_join_events,
    "q_sample": q_sample,
    "q_quantiles": q_quantiles,
    "q_top_docs_per_lang": q_top_docs_per_lang,
    "q_stratified_sample": q_stratified_sample,
    "q_kmv_distinct": q_kmv_distinct,
    "q_heavy_hitters": q_heavy_hitters,
    "q_heavy_hitters_exact": q_heavy_hitters_exact,
    "q_kmv_doc_ids": q_kmv_doc_ids,
    "q_decontaminate": q_decontaminate,
    "q_top_terms": q_top_terms,
    "q_bigram_counts": q_bigram_counts,
    "q_repetition_scores": q_repetition_scores,
    "q_sessionize": q_sessionize,
    "q_semi_join_customers": q_semi_join_customers,
    "q_anti_join_customers": q_anti_join_customers,
    "q_grouped_quantiles": q_grouped_quantiles,
    "q_pivot_events": q_pivot_events,
    "q_user_gaps": q_user_gaps,
    "q_cumulative_daily": q_cumulative_daily,
    "q_crossdoc_ngrams": q_crossdoc_ngrams,
    "q_mixture_sample": q_mixture_sample,
    "q_token_budget_mixture": q_token_budget_mixture,
    "q_curation_v2": q_curation_v2,
    "q_prefix_dup_groups": q_prefix_dup_groups,
    "q_rollup_lang_source": q_rollup_lang_source,
    "q_distinct_users": q_distinct_users,
    "q_left_join_counts": q_left_join_counts,
    "q_quantiles_cont": q_quantiles_cont,
    "q_curation_e2e": q_curation_e2e,
    "q_full_outer_cust_supp": q_full_outer_cust_supp,
    "q_grouped_quantiles_cont": q_grouped_quantiles_cont,
    "q_ntile_doc_len": q_ntile_doc_len,
    "q_corr_len_tokens": q_corr_len_tokens,
    "q_normalized_dedup": q_normalized_dedup,
    "q_regression_len_tokens": q_regression_len_tokens,
    "q_events_hourly": q_events_hourly,
    "q_dup_cluster_sizes": q_dup_cluster_sizes,
    "q_shingle_stats": q_shingle_stats,
    "q_funnel_view_purchase": q_funnel_view_purchase,
    "q_events_distinct": q_events_distinct,
    "q_percent_rank_len": q_percent_rank_len,
    "q_cohort_retention": q_cohort_retention,
    "q_cube_lang_source": q_cube_lang_source,
    "q_mad_len": q_mad_len,
    "q_click_heavy_users": q_click_heavy_users,
    "q_mode_event_type": q_mode_event_type,
    "q_user_days_purchase_no_error": q_user_days_purchase_no_error,
    "q_user_days_purchase_and_error": q_user_days_purchase_and_error,
    "q_len_histogram": q_len_histogram,
    "q_weighted_sample": q_weighted_sample,
    "q_lang_sources_agg": q_lang_sources_agg,
    "q_edit_distance_dups": q_edit_distance_dups,
    "q_moving_sum_daily": q_moving_sum_daily,
    "q_event_transitions": q_event_transitions,
    "q_first_event_per_user": q_first_event_per_user,
    "q_tpch_q3": q_tpch_q3,
    "q_late_shipments": q_late_shipments,
    "q_kmeans_embeddings": q_kmeans_embeddings,
    "q_global_rank_len": q_global_rank_len,
    "q_user_activity_histogram": q_user_activity_histogram,
    "q_moving_sum_range": q_moving_sum_range,
    "q_pattern_counts": q_pattern_counts,
    "q_profile_events": q_profile_events,
    "q_unpivot_event_metrics": q_unpivot_event_metrics,
    "q_dup_rate_by_source": q_dup_rate_by_source,
    "q_canonical_urls": q_canonical_urls,
    "q_url_dedup": q_url_dedup,
    "q_tpch_q5": q_tpch_q5,
    "q_parts_by_brand": q_parts_by_brand,
    "q_promo_revenue": q_promo_revenue,
    "q_top_parts_revenue": q_top_parts_revenue,
    "q_tpch_q10": q_tpch_q10,
    "q_tpch_q18": q_tpch_q18,
    "q_tpch_q6": q_tpch_q6,
    "q_tpch_q15": q_tpch_q15,
    "q_tpch_q13": q_tpch_q13,
    "q_tpch_q4": q_tpch_q4,
    "q_tpch_q17": q_tpch_q17,
    "q_tpch_q19": q_tpch_q19,
    "q_tpch_q22": q_tpch_q22,
    "q_tpch_q7": q_tpch_q7,
    "q_gopher_quality": q_gopher_quality,
    "q_dedup_tiers": q_dedup_tiers,
    "q_dedup_tier_report": q_dedup_tier_report,
    "q_tpch_q8": q_tpch_q8,
    "q_tpch_q16": q_tpch_q16,
    "q_tpch_q9": q_tpch_q9,
    "q_tpch_q2": q_tpch_q2,
    "q_tpch_q11": q_tpch_q11,
    "q_tpch_q12": q_tpch_q12,
    "q_tpch_q20": q_tpch_q20,
    "q_tpch_q21": q_tpch_q21,
    "q_pack_sequences": q_pack_sequences,
    "q_remove_dup_ngrams": q_remove_dup_ngrams,
    "q_paragraph_dedup": q_paragraph_dedup,
    "q_pii_scrub": q_pii_scrub,
    "q_chunk_tokens": q_chunk_tokens,
    "q_contam_overlap": q_contam_overlap,
    "q_incremental_fold": q_incremental_fold,
    "q_fold_provenance": q_fold_provenance,
    "q_soft_dedup_weights": q_soft_dedup_weights,
    "q_train_split": q_train_split,
    "q_boilerplate_lines": q_boilerplate_lines,
    "q_cdc_chunks": q_cdc_chunks,
    "q_oov_rate": q_oov_rate,
    "q_curation_v3": q_curation_v3,
    "q_bloom_dedup": q_bloom_dedup,
    "q_shard_assign": q_shard_assign,
    "q_dup_inflation": q_dup_inflation,
    "q_dup_flow_matrix": q_dup_flow_matrix,
    "q_tier_token_report": q_tier_token_report,
    "q_best_of_dup_group": q_best_of_dup_group,
    "q_jaccard_histogram": q_jaccard_histogram,
    "q_bow_dedup": q_bow_dedup,
    "q_prefix_dup_flow": q_prefix_dup_flow,
    "q_split_leakage": q_split_leakage,
    "q_lang_confusion": q_lang_confusion,
    "q_ccnet_pipeline": q_ccnet_pipeline,
    "q_within_doc_line_dedup": q_within_doc_line_dedup,
    "q_best_of_near_cluster": q_best_of_near_cluster,
    "q_skyline_docs": q_skyline_docs,
    "q_reservoir_sample": q_reservoir_sample,
    "q_hapax_rate": q_hapax_rate,
}

# --- SQL replay fragments for hash-bearing oracles -------------------------
# Horner fold step: acc*P + c mod 2^64 with P = 0x9E3779B97F4A7C15 split
# into 32-bit halves so every HUGEINT product stays under 2^97
_HORNER_STEP = (
    "((acc * 2135587861 + ((acc * 2654435769) % 4294967296) * 4294967296) "
    "% 18446744073709551616 + c) % 18446744073709551616")


def _mix64_sql(src: str, incol: str, outcol: str, keep: str) -> str:
    """CTE chain replaying the SplitMix64 finalizer on ``incol`` of ``src``
    (the q_kmv_doc_ids technique, factored for reuse)."""
    return (
        f"m1_{outcol} AS (SELECT {keep}, xor({incol}, {incol} >> 30) "
        f"AS m1 FROM {src}), "
        f"m2_{outcol} AS (SELECT {keep}, (m1 * 484763065 + "
        f"((m1 * 3210233709) % 4294967296) * 4294967296) "
        f"% 18446744073709551616 AS m2 FROM m1_{outcol}), "
        f"m3_{outcol} AS (SELECT {keep}, xor(m2, m2 >> 27) "
        f"AS m3 FROM m2_{outcol}), "
        f"m4_{outcol} AS (SELECT {keep}, (m3 * 321982955 + "
        f"((m3 * 2496678331) % 4294967296) * 4294967296) "
        f"% 18446744073709551616 AS m4 FROM m3_{outcol}), "
        f"m5_{outcol} AS (SELECT {keep}, xor(m4, m4 >> 31) "
        f"AS {outcol} FROM m4_{outcol})")


# full SimHash signature replay: word poly-hashes -> 5-word shingle
# hashes -> per-bit majority votes -> 4x16-bit blocks -> all pairs at
# Hamming <= 3 (recall 1.0 by the pigeonhole block-banding guarantee, so
# this brute force equals the banded candidate generation)
#
# PRECONDITION (parity boundary, tests/test_simhash.py): this replay is
# bit-exact against the engine only on LOWERCASE, SINGLE-SPACED, ASCII
# text — the testdata documents corpus by construction. Two deliberate
# divergences outside that regime: (a) the SQL folds CODEPOINTS
# (unicode(w[i])) where poly_str_hashes folds UTF-8 BYTES — identical
# iff every char is ASCII; (b) the engine tokenizer casefolds and strips
# punctuation where the SQL splits the raw string on single spaces —
# identical iff the text is already normalized. Non-ASCII or punctuated
# corpora need the tokenizer replayed in SQL (regexp_extract_all +
# lower) and byte-level folds (encode()); kept codepoint-level here
# because the fixture contract makes them equivalent and the simpler
# HUGEINT chain is ~3x faster to oracle.
# shared prefix: word poly-hashes -> 5-word shingle hashes, ending at CTE
# m5_sh (columns doc_id, sh) — the exact chain rolling_shingle_hashes runs
# (Horner fold + SplitMix64 at each level); reused by the SimHash AND
# MinHash signature replays below.
_SHINGLE_HASH_CTES = (
    "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "wrows AS (SELECT doc_id, unnest(range(1, len(ws)+1)) AS wpos, "
    "unnest(ws) AS w FROM d WHERE len(ws) >= 5), "
    "h0t AS (SELECT doc_id, wpos, "
    "list_reduce(list_prepend(CAST(0 AS HUGEINT), "
    "list_transform(range(1, length(w)+1), "
    "i -> CAST(unicode(w[i]) AS HUGEINT))), "
    f"(acc, c) -> {_HORNER_STEP}) AS h0 FROM wrows), "
    + _mix64_sql("h0t", "h0", "wh", "doc_id, wpos") + ", "
    "whl AS (SELECT doc_id, list(wh ORDER BY wpos) AS whl "
    "FROM m5_wh GROUP BY doc_id), "
    "g0t AS (SELECT doc_id, unnest(list_transform(range(1, len(whl) - 3), "
    "p -> list_reduce(list_prepend(CAST(0 AS HUGEINT), whl[p:p+4]), "
    f"(acc, c) -> {_HORNER_STEP}))) AS g0 FROM whl), "
    + _mix64_sql("g0t", "g0", "sh", "doc_id"))

_SIMHASH_SQL = (
    _SHINGLE_HASH_CTES + ", "
    "bits AS (SELECT unnest(range(0, 64)) AS bit), "
    "votes AS (SELECT doc_id, bit, SUM(CASE WHEN "
    "(sh // CAST(power(2, bit) AS HUGEINT)) % 2 = 1 THEN 1 ELSE -1 END) "
    "AS v FROM m5_sh CROSS JOIN bits GROUP BY 1, 2), "
    "blocks AS (SELECT doc_id, bit // 16 AS blk, CAST(SUM(CASE WHEN v > 0 "
    "THEN CAST(power(2, bit % 16) AS BIGINT) ELSE 0 END) AS BIGINT) AS bv "
    "FROM votes GROUP BY 1, 2), "
    "sig AS (SELECT doc_id, MAX(CASE WHEN blk = 0 THEN bv END) AS b0, "
    "MAX(CASE WHEN blk = 1 THEN bv END) AS b1, "
    "MAX(CASE WHEN blk = 2 THEN bv END) AS b2, "
    "MAX(CASE WHEN blk = 3 THEN bv END) AS b3 FROM blocks GROUP BY doc_id) "
    "SELECT x.doc_id AS a, y.doc_id AS b, "
    "CAST(bit_count(xor(x.b0, y.b0)) + bit_count(xor(x.b1, y.b1)) + "
    "bit_count(xor(x.b2, y.b2)) + bit_count(xor(x.b3, y.b3)) AS BIGINT) "
    "AS hamming "
    "FROM sig x JOIN sig y ON x.doc_id < y.doc_id "
    "WHERE bit_count(xor(x.b0, y.b0)) + bit_count(xor(x.b1, y.b1)) + "
    "bit_count(xor(x.b2, y.b2)) + bit_count(xor(x.b3, y.b3)) <= 3")

def _minhash_perm_rows(num_perm: int, seed: int) -> str:
    """VALUES rows ``(j, a_hi, a_lo, b)`` of the frozen permutation family —
    the same ``make_perm_params`` draw the engine's MinHasher makes, with
    ``a_j`` split into 32-bit halves so the oracle's ``a_j * sh`` products
    stay inside HUGEINT (each partial < 2^96)."""
    from ray_data_mplsh.functions.hashing import make_perm_params

    a, b = make_perm_params(num_perm, seed)
    return ", ".join(
        f"({j}, {int(a[j]) >> 32}, {int(a[j]) & 0xFFFFFFFF}, "
        f"CAST('{int(b[j])}' AS HUGEINT))" for j in range(num_perm))


# full MinHash signature replay (q_minhash_sigs): the shared word->shingle
# hash chain, then for each of the K frozen permutations min(a_j*sh + b_j
# mod 2^64) per doc — a_j*sh computed as lo-half product + truncated
# hi-half product so every HUGEINT term stays < 2^97. Ends at CTE pv
# (doc_id, j, mh); the band-key replay extends the same chain.
_MINHASH_PV_CTES = (
    _SHINGLE_HASH_CTES + ", "
    "perms(j, a_hi, a_lo, b) AS (VALUES "
    + _minhash_perm_rows(16, MPLSHConfig().seed) + "), "
    "pv AS (SELECT doc_id, j, MIN((sh * a_lo + ((sh * a_hi) "
    "% 4294967296) * 4294967296 + b) % 18446744073709551616) AS mh "
    "FROM m5_sh CROSS JOIN perms GROUP BY 1, 2)")

_MINHASH_SQL = (
    _MINHASH_PV_CTES + " "
    "SELECT doc_id, CAST(j AS BIGINT) AS perm, "
    "CAST(mh // 4294967296 AS BIGINT) AS mh_hi, "
    "CAST(mh % 4294967296 AS BIGINT) AS mh_lo FROM pv")

#: combine_rows' masked-slot sentinel (functions/hashing.MASK_SENTINEL).
_SENTINEL_SQL = "CAST('18369614221190020847' AS HUGEINT)"

# band + multi-probe key replay (q_band_keys, op 13): per doc the K=16
# signature slots in permutation order, split into b=4 bands of r=4; for
# probe rank t=0 the exact band slots, for t in 1..4 slot t-1 replaced by
# the mask sentinel; key = mix64(Horner over the 4 slots seeded with the
# namespace prefix band*(r+1)+t) — exactly stages/bands.band_probe_keys.
_BAND_KEY_CTES = (
    _MINHASH_PV_CTES + ", "
    "sigl AS (SELECT doc_id, list(mh ORDER BY j) AS s FROM pv "
    "GROUP BY doc_id), "
    "bp AS (SELECT unnest(range(0, 4)) AS band), "
    "prb AS (SELECT unnest(range(0, 5)) AS t), "
    "k0t AS (SELECT doc_id, band, t, "
    "list_reduce(list_prepend(CAST(band * 5 + t AS HUGEINT), "
    "list_transform(range(0, 4), i -> CASE WHEN i = t - 1 THEN "
    f"{_SENTINEL_SQL} ELSE s[band * 4 + i + 1] END)), "
    f"(acc, c) -> {_HORNER_STEP}) AS k0 "
    "FROM sigl CROSS JOIN bp CROSS JOIN prb), "
    + _mix64_sql("k0t", "k0", "bh", "doc_id, band, t"))

_BAND_KEYS_SQL = (
    _BAND_KEY_CTES + " "
    "SELECT doc_id, CAST(band AS BIGINT) AS band_id, "
    "CAST(t AS BIGINT) AS probe_rank, "
    "CAST(bh // 4294967296 AS BIGINT) AS bh_hi, "
    "CAST(bh % 4294967296 AS BIGINT) AS bh_lo FROM m5_bh")

# full LSH candidate + verification replay (q_lsh_verified_pairs, ops
# 14-18): buckets are the equal-band_hash groups over EVERY emitted
# (doc, band, probe) key; buckets at or under bucket_cap emit all
# C(g,2) pairs, larger buckets star-pair against the min doc (the
# pairs.py straggler bound), the union is globally deduped, and a pair
# survives when its signature-slot agreement est = |equal slots| / K
# reaches verify_theta. est is an exact dyadic n/16 on both sides, so
# the float compare is bit-exact.
_LSH_PAIRS_CTES = (
    _BAND_KEY_CTES + ", "
    "kb AS (SELECT doc_id, bh FROM m5_bh), "
    f"bs AS (SELECT bh, COUNT(*) AS c, MIN(doc_id) AS mn FROM kb "
    "GROUP BY bh), "
    "cand AS ("
    "SELECT DISTINCT x.doc_id AS a, y.doc_id AS b "
    "FROM kb x JOIN kb y USING (bh) JOIN bs USING (bh) "
    f"WHERE bs.c <= {MPLSHConfig().bucket_cap} AND x.doc_id < y.doc_id "
    "UNION "
    "SELECT DISTINCT bs.mn AS a, kb.doc_id AS b "
    "FROM kb JOIN bs USING (bh) "
    f"WHERE bs.c > {MPLSHConfig().bucket_cap} AND kb.doc_id > bs.mn), "
    "vs AS (SELECT c.a, c.b, "
    "SUM(CASE WHEN pa.mh = pb.mh THEN 1 ELSE 0 END) / 16.0 AS jaccard "
    "FROM cand c JOIN pv pa ON pa.doc_id = c.a "
    "JOIN pv pb ON pb.doc_id = c.b AND pb.j = pa.j GROUP BY 1, 2)")

_LSH_PAIRS_SQL = (
    _LSH_PAIRS_CTES + " "
    "SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, jaccard "
    f"FROM vs WHERE jaccard >= {MPLSHConfig().verify_theta}")

# connected components over the verified pairs (q_lsh_clusters, op 19):
# recursive label propagation — walk(u, lbl) enumerates every node
# reachable from u through the symmetric edge set, so MIN(lbl) per node
# is the component minimum, exactly the engine's cluster_id convention.
# Labels exist only for edge-incident nodes (singletons default to
# their own id downstream), matching connected_components' contract.
assert _LSH_PAIRS_CTES.startswith("WITH ")
_LSH_CLUSTERS_SQL = (
    "WITH RECURSIVE " + _LSH_PAIRS_CTES[len("WITH "):] + ", "
    f"vp AS (SELECT a, b FROM vs "
    f"WHERE jaccard >= {MPLSHConfig().verify_theta}), "
    "ed AS (SELECT a AS u, b AS v FROM vp "
    "UNION ALL SELECT b AS u, a AS v FROM vp), "
    "walk(u, lbl) AS ("
    "SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM ed) "
    "UNION "
    "SELECT ed.u, w.lbl FROM ed JOIN walk w ON w.u = ed.v) "
    "SELECT CAST(u AS BIGINT) AS doc_id, "
    "CAST(MIN(lbl) AS BIGINT) AS cluster_id FROM walk GROUP BY u")

# incremental-fold replay (q_incremental_fold): the SAME chain run over
# the DISTINCT-TEXT reps (rep = min doc_id per text — matching the
# exact-dedup pre-pass the production pipeline runs before minhashing),
# recursive CC over the rep edge set, then every document joins its
# text-rep's component: cluster_rep = the component's min rep id = the
# min ORIGINAL doc_id in the cluster (reps are per-text minima).
# Singleton reps label themselves. The source swap relies on the shingle
# CTE chain reading `documents` exactly once (asserted below).
assert _LSH_PAIRS_CTES.count("FROM documents)") == 1
_INC_FOLD_SQL = (
    "WITH RECURSIVE reps AS (SELECT MIN(doc_id) AS doc_id, text "
    "FROM documents GROUP BY text), "
    + _LSH_PAIRS_CTES[len("WITH "):].replace("FROM documents)",
                                             "FROM reps)", 1) + ", "
    f"vp AS (SELECT a, b FROM vs "
    f"WHERE jaccard >= {MPLSHConfig().verify_theta}), "
    "ed AS (SELECT a AS u, b AS v FROM vp "
    "UNION ALL SELECT b AS u, a AS v FROM vp), "
    "walk(u, lbl) AS ("
    "SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM ed) "
    "UNION "
    "SELECT ed.u, w.lbl FROM ed JOIN walk w ON w.u = ed.v), "
    "cl AS (SELECT u AS doc_id, MIN(lbl) AS cluster_id FROM walk "
    "GROUP BY u) "
    "SELECT d.doc_id, CAST(COALESCE(cl.cluster_id, r.doc_id) AS BIGINT) "
    "AS cluster_rep FROM documents d JOIN reps r USING (text) "
    "LEFT JOIN cl ON r.doc_id = cl.doc_id")

# fold provenance (q_fold_provenance): same reps-collapsed chain, then
# three symmetric window counts over the expanded per-doc view — base
# docs sharing the text, base docs in the joint cluster, shard docs in
# the joint cluster — filtered to shard rows OUTSIDE the windows.
_FOLD_PROV_SQL = (
    _INC_FOLD_SQL[:_INC_FOLD_SQL.rindex("SELECT d.doc_id")]
    + ", lab AS (SELECT d.doc_id, d.text, (d.doc_id % 5 != 4) AS is_base, "
    "COALESCE(cl.cluster_id, r.doc_id) AS cid "
    "FROM documents d JOIN reps r USING (text) "
    "LEFT JOIN cl ON r.doc_id = cl.doc_id), "
    "w AS (SELECT doc_id, is_base, "
    "SUM(CASE WHEN is_base THEN 1 ELSE 0 END) "
    "OVER (PARTITION BY text) > 0 AS exact_dup_of_archive, "
    "SUM(CASE WHEN is_base THEN 1 ELSE 0 END) "
    "OVER (PARTITION BY cid) > 0 AS dup_of_archive, "
    "SUM(CASE WHEN is_base THEN 0 ELSE 1 END) "
    "OVER (PARTITION BY cid) > 1 AS dup_within_shard FROM lab) "
    "SELECT doc_id, exact_dup_of_archive, dup_of_archive, "
    "dup_within_shard FROM w WHERE NOT is_base")

# full tier-dedup attribution (q_dedup_tier_report): the LSH cluster
# replay above + the three nested string-tier window partitions, CASE'd
# in the flagship's tier order (exact -> normalized -> near -> prefix).
_TIER_REPORT_SQL = (
    "WITH RECURSIVE " + _LSH_PAIRS_CTES[len("WITH "):] + ", "
    f"vp AS (SELECT a, b FROM vs "
    f"WHERE jaccard >= {MPLSHConfig().verify_theta}), "
    "ed AS (SELECT a AS u, b AS v FROM vp "
    "UNION ALL SELECT b AS u, a AS v FROM vp), "
    "walk(u, lbl) AS ("
    "SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM ed) "
    "UNION "
    "SELECT ed.u, w.lbl FROM ed JOIN walk w ON w.u = ed.v), "
    "cl AS (SELECT CAST(u AS BIGINT) AS doc_id, "
    "CAST(MIN(lbl) AS BIGINT) AS cluster_id FROM walk GROUP BY u), "
    "nn AS (SELECT doc_id, text, lower(regexp_replace(text, "
    "'[^a-zA-Z0-9 ]', '', 'g')) AS norm FROM documents), "
    "rr AS (SELECT doc_id, "
    "MIN(doc_id) OVER (PARTITION BY text) AS e_rep, "
    "MIN(doc_id) OVER (PARTITION BY norm) AS n_rep, "
    "MIN(doc_id) OVER (PARTITION BY substring(norm, 1, 40)) AS p_rep "
    "FROM nn) "
    "SELECT rr.doc_id, CASE WHEN rr.doc_id <> rr.e_rep THEN 'exact' "
    "WHEN rr.doc_id <> rr.n_rep THEN 'normalized' "
    "WHEN cl.cluster_id IS NOT NULL AND cl.cluster_id <> rr.doc_id "
    "THEN 'near' "
    "WHEN rr.doc_id <> rr.p_rep THEN 'prefix' ELSE 'unique' END AS tier "
    "FROM rr LEFT JOIN cl ON rr.doc_id = cl.doc_id")

# winnowing fingerprint replay (q_fingerprints, op 24): per doc the
# char-30-gram hashes (masked-Horner over codepoints + SplitMix64 — same
# ASCII-corpus precondition as _SIMHASH_SQL: the kernel folds UTF-8
# bytes, the replay folds codepoints, equal iff the text is ASCII, which
# the testdata documents corpus is by construction), then the count of
# DISTINCT window-of-21 minima. No rightmost-argmin twin is needed: the
# engine counts distinct fingerprint VALUES and every window's selected
# value is that window's min, so tie-break position is irrelevant.
# Small docs (1 <= m < 21 grams) select exactly one fingerprint (the
# global argmin); docs shorter than 30 bytes select none.
_WINNOW_CTES = (
    "WITH dd AS (SELECT doc_id, text, length(text) AS n FROM documents), "
    "pr AS (SELECT doc_id, text, unnest(range(1, n - 28)) AS p "
    "FROM dd WHERE n >= 30), "
    "gr AS (SELECT doc_id, p, "
    "substring(text, CAST(p AS INTEGER), 30) AS gram FROM pr), "
    "g0t AS (SELECT doc_id, p, "
    "list_reduce(list_prepend(CAST(0 AS HUGEINT), "
    "list_transform(range(1, 31), "
    "i -> CAST(unicode(gram[i]) AS HUGEINT))), "
    f"(acc, c) -> {_HORNER_STEP}) AS g0 FROM gr), "
    + _mix64_sql("g0t", "g0", "g", "doc_id, p") + ", "
    "ms AS (SELECT doc_id, COUNT(*) AS m FROM m5_g GROUP BY doc_id), "
    "wm AS (SELECT doc_id, p, MIN(g) OVER (PARTITION BY doc_id ORDER BY p "
    "ROWS BETWEEN CURRENT ROW AND 20 FOLLOWING) AS mn FROM m5_g), "
    # per-doc DISTINCT selected fingerprint VALUES (the kernel's output
    # unit): window minima for big docs, the global argmin for small ones
    "fpv AS ("
    "SELECT DISTINCT w.doc_id, w.mn AS fp FROM wm w JOIN ms USING (doc_id) "
    "WHERE ms.m >= 21 AND w.p <= ms.m - 20 "
    "UNION "
    "SELECT g.doc_id, MIN(g.g) AS fp FROM m5_g g JOIN ms USING (doc_id) "
    "WHERE ms.m BETWEEN 1 AND 20 GROUP BY g.doc_id)")

_WINNOW_SQL = (
    _WINNOW_CTES + ", "
    "ac AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c FROM fpv "
    "GROUP BY doc_id) "
    "SELECT d.doc_id, COALESCE(ac.c, CAST(0 AS BIGINT)) AS n_fingerprints "
    "FROM documents d LEFT JOIN ac USING (doc_id)")

# substring-pass candidate pairs (q_substring_candidates, op 24 front
# half): fingerprint buckets are the equal-fp groups over every doc's
# distinct winnow fingerprints; buckets at or under substr_bucket_cap
# emit all C(g,2) pairs, larger buckets star-pair against the min doc,
# and the union is globally deduped — the same _pairs_of_runs rule the
# LSH pairing replay pins, at the substring stage's cap.
_SUBSTR_PAIRS_SQL = (
    _WINNOW_CTES + ", "
    "fb AS (SELECT fp, COUNT(*) AS c, MIN(doc_id) AS mn FROM fpv "
    "GROUP BY fp) "
    "SELECT DISTINCT CAST(x.doc_id AS BIGINT) AS a, "
    "CAST(y.doc_id AS BIGINT) AS b "
    "FROM fpv x JOIN fpv y USING (fp) JOIN fb USING (fp) "
    f"WHERE fb.c <= {MPLSHConfig().substr_bucket_cap} "
    "AND x.doc_id < y.doc_id "
    "UNION "
    "SELECT DISTINCT CAST(fb.mn AS BIGINT) AS a, "
    "CAST(fpv.doc_id AS BIGINT) AS b "
    "FROM fpv JOIN fb USING (fp) "
    f"WHERE fb.c > {MPLSHConfig().substr_bucket_cap} "
    "AND fpv.doc_id > fb.mn")

# argmax-marker language-ID CASE expression (first max = lexicographic
# tie-break), shared by the q_lang_id and q_lang_confusion replays
_LANG_ID_CASE = (
    "CASE GREATEST("
    + ", ".join(f"len(regexp_extract_all(text, '{p}'))"
                for p in (_LANG_MARKERS[lg]
                          for lg in sorted(_LANG_MARKERS))) + ") "
    + " ".join(
        f"WHEN len(regexp_extract_all(text, '{_LANG_MARKERS[lg]}')) "
        f"THEN '{lg}'" for lg in sorted(_LANG_MARKERS))
    + " END")

ORACLE_SQL = {
    "q_simhash_pairs": _SIMHASH_SQL,
    "q_minhash_sigs": _MINHASH_SQL,
    "q_band_keys": _BAND_KEYS_SQL,
    "q_lsh_verified_pairs": _LSH_PAIRS_SQL,
    "q_lsh_clusters": _LSH_CLUSTERS_SQL,
    "q_dedup_tier_report": _TIER_REPORT_SQL,
    "q_incremental_fold": _INC_FOLD_SQL,
    "q_fold_provenance": _FOLD_PROV_SQL,
    "q_substring_candidates": _SUBSTR_PAIRS_SQL,
    "q_fingerprints": _WINNOW_SQL,
    "q_exact_dedup":
        "SELECT MIN(doc_id) AS doc_id, text FROM documents GROUP BY text",
    "q_word_stats":
        "WITH c AS (SELECT doc_id, word, COUNT(*) AS cnt FROM "
        "(SELECT doc_id, unnest(string_split(text, ' ')) AS word "
        "FROM documents) GROUP BY 1, 2), "
        "t AS (SELECT doc_id, word, cnt, ROW_NUMBER() OVER "
        "(PARTITION BY doc_id ORDER BY cnt DESC, word) AS rn FROM c), "
        "s AS (SELECT doc_id, CAST(SUM(cnt) AS BIGINT) AS n_words, "
        "CAST(COUNT(*) AS BIGINT) AS n_distinct FROM c GROUP BY 1) "
        "SELECT s.doc_id, s.n_words, s.n_distinct, t.word AS top_word, "
        "CAST(t.cnt AS BIGINT) AS top_count "
        "FROM s JOIN t ON s.doc_id = t.doc_id WHERE t.rn = 1",
    "q_doc_freq":
        "SELECT word, CAST(COUNT(*) AS BIGINT) AS df FROM "
        "(SELECT DISTINCT doc_id, word FROM (SELECT doc_id, "
        "unnest(string_split(text, ' ')) AS word FROM documents)) "
        "GROUP BY word ORDER BY df DESC, word LIMIT 100",
    "q_allpair_jaccard":
        "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents WHERE doc_id < 256), "
        "sh AS (SELECT doc_id, list_distinct(list_transform("
        "range(1, len(ws) - 3), i -> array_to_string(ws[i:i+4], ' '))) AS s "
        "FROM d WHERE len(ws) >= 5), "
        "j AS (SELECT a.doc_id AS a, b.doc_id AS b, "
        "CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / "
        "(len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS jaccard "
        "FROM sh a JOIN sh b ON a.doc_id < b.doc_id) "
        "SELECT a, b, jaccard FROM j WHERE jaccard >= 0.05",
    "q_ngram_jaccard":
        "WITH r AS (SELECT MIN(doc_id) AS doc_id, text FROM documents "
        "GROUP BY text), "
        "d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM r), "
        "sh AS (SELECT doc_id, list_distinct(list_transform("
        "range(1, len(ws) - 3), i -> array_to_string(ws[i:i+4], ' '))) AS s "
        "FROM d WHERE len(ws) >= 5), "
        "j AS (SELECT a.doc_id AS a, b.doc_id AS b, "
        "CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / "
        "(len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS jaccard "
        "FROM sh a JOIN sh b ON a.doc_id < b.doc_id) "
        f"SELECT a, b, jaccard FROM j WHERE jaccard >= {_NGJ_MIN_J}",
    "q_allpair_containment":
        "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents WHERE doc_id < 256), "
        "sh AS (SELECT doc_id, list_distinct(list_transform("
        "range(1, len(ws) - 3), i -> array_to_string(ws[i:i+4], ' '))) AS s "
        "FROM d WHERE len(ws) >= 5), "
        "j AS (SELECT a.doc_id AS a, b.doc_id AS b, "
        "CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / len(a.s) "
        "AS containment "
        "FROM sh a JOIN sh b ON a.doc_id <> b.doc_id) "
        "SELECT a, b, containment FROM j WHERE containment >= 0.1",
    "q_lang_counts":
        "SELECT lang, COUNT(*) AS cnt FROM documents GROUP BY lang",
    "q_len_filter":
        "SELECT doc_id, n_chars FROM documents WHERE n_chars >= 100",
    "q_top_sources":
        "SELECT source, COUNT(*) AS cnt FROM documents GROUP BY source "
        "ORDER BY cnt DESC, source LIMIT 5",
    "q_distinct_langs":
        "SELECT DISTINCT lang FROM documents",
    "q_events_daily":
        "SELECT strftime(ts, '%Y-%m-%d') AS d, event_type, COUNT(*) AS cnt, "
        "SUM(CAST(ROUND(value * 100) AS BIGINT)) / 100.0 AS sv "
        "FROM events GROUP BY 1, 2",
    "q_events_props":
        "SELECT CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT) "
        "AS k, COUNT(*) AS cnt, "
        "SUM(CAST(ROUND(value * 100) AS BIGINT)) / (COUNT(*) * 100.0) "
        "AS avg_value FROM events GROUP BY 1",
    "q_bpe_token_counts":
        "SELECT doc_id, len(regexp_extract_all(text, "
        "'''(?:[sdmt]|ll|ve|re)| ?[\\pL]+| ?[\\pN]+| ?[^\\s\\pL\\pN]+|\\s+'"
        ")) AS n_bpe_tokens FROM documents",
    "q_lineitem_agg":
        "SELECT l_returnflag, l_linestatus, COUNT(*) AS cnt, "
        "CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
        "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
        "AS sum_price_cents "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus",
    "q_region_nation":
        "SELECT r_name, n_name, COUNT(*) AS cnt "
        "FROM customer JOIN nation ON c_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "GROUP BY r_name, n_name",
    "q_asof_event_order":
        "WITH r AS (SELECT o_custkey, o_orderdate, MAX(o_orderkey) AS ok "
        "FROM orders GROUP BY 1, 2) "
        "SELECT e.event_id, r.ok AS o_orderkey FROM events e "
        "ASOF LEFT JOIN r "
        "ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate",
    "q_range_join_events":
        "SELECT e.event_id, COUNT(e2.ts) AS n_events_7d "
        "FROM events e LEFT JOIN events e2 ON e.user_id = e2.user_id "
        "AND e2.ts > e.ts - INTERVAL 7 DAY AND e2.ts <= e.ts "
        "GROUP BY e.event_id",
    "q_events_sliding":
        "SELECT w.d AS wd, e.event_type, COUNT(*) AS cnt, "
        "SUM(CAST(ROUND(e.value * 100) AS BIGINT)) / 100.0 AS sv "
        "FROM events e JOIN "
        "(SELECT DISTINCT CAST(ts AS DATE) AS d FROM events) w "
        "ON CAST(e.ts AS DATE) BETWEEN w.d - 2 AND w.d "
        "GROUP BY 1, 2",
    "q_join_ord_cust":
        "SELECT c_mktsegment, COUNT(*) AS cnt, "
        "CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
        "AS s_cents "
        "FROM orders JOIN customer ON o_custkey = c_custkey "
        "GROUP BY c_mktsegment",
    "q_token_counts":
        "SELECT doc_id, array_length(string_split_regex(trim(text), '\\s+')) "
        "AS n_tokens FROM documents",
    "q_quality_scores":
        "SELECT doc_id, n_chars, "
        "length(regexp_replace(text, '[a-zA-Z0-9 ]', '', 'g')) AS punct_chars, "
        "length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS alpha_chars "
        "FROM documents",
    "q_knn_bruteforce":
        f"WITH q AS (SELECT vec_id AS query_id, embedding AS qe "
        f"FROM embeddings WHERE vec_id < {_KNN_NQ}), "
        "s AS (SELECT q.query_id, e.vec_id, "
        "list_cosine_similarity(q.qe, e.embedding) AS cos "
        "FROM q CROSS JOIN embeddings e), "
        "r AS (SELECT query_id, vec_id, ROW_NUMBER() OVER "
        "(PARTITION BY query_id ORDER BY cos DESC, vec_id ASC) AS rk FROM s) "
        f"SELECT query_id, vec_id FROM r WHERE rk <= {_KNN_K}",
    "q_embedding_near_dup":
        "SELECT a.vec_id AS a, b.vec_id AS b "
        "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
        "AND list_cosine_similarity(a.embedding, b.embedding) "
        f">= {_ENDUP_THRESHOLD}",
    "q_sample":
        "SELECT doc_id, lang, n_chars FROM documents "
        "WHERE ((doc_id % 4294967296) * 2654435761::HUGEINT) "
        "// 4294967296 % 20 = 0",
    "q_quantiles":
        " UNION ALL ".join(
            f"SELECT {q}::DOUBLE AS q, quantile_disc(n_chars, {q}) "
            f"AS value FROM documents"
            for q in (0.25, 0.5, 0.75, 0.9, 0.99)),
    "q_top_docs_per_lang":
        "SELECT doc_id, lang, n_chars FROM ("
        "SELECT doc_id, lang, n_chars, ROW_NUMBER() OVER "
        "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rk "
        "FROM documents) WHERE rk <= 3",
    "q_stratified_sample":
        "SELECT doc_id, lang FROM ("
        "SELECT doc_id, lang, ROW_NUMBER() OVER (PARTITION BY lang "
        "ORDER BY ((doc_id % 4294967296) * 2654435761::HUGEINT) "
        "// 4294967296, doc_id) AS rk FROM documents) WHERE rk <= 2",
    "q_heavy_hitters_exact":
        "SELECT source AS key, CAST(count(*) AS BIGINT) AS cnt "
        "FROM documents GROUP BY source ORDER BY cnt DESC, key LIMIT 5",
    # exact-regime oracles (see the query docstrings): with 20 distinct
    # sources the MG summary never decrements and the KMV sketch holds
    # every hash, so both sketches return exact answers on these corpora
    "q_heavy_hitters":
        "SELECT source AS key, CAST(count(*) AS BIGINT) AS cnt_lower_bound "
        "FROM documents GROUP BY source "
        "ORDER BY cnt_lower_bound DESC, key LIMIT 5",
    "q_kmv_distinct":
        "SELECT 'source' AS \"column\", "
        "CAST(COUNT(DISTINCT source) AS DOUBLE) AS estimate FROM documents",
    # replay the SplitMix64 finalizer in SQL: HUGEINT split-multiplies
    # (lo32 + hi32*2^32) keep every product under 2^97, mod 2^64 after
    # each step — bit-identical to functions/hashing.py mix64
    "q_kmv_doc_ids":
        "WITH v AS (SELECT DISTINCT doc_id::HUGEINT AS x FROM documents), "
        "s1 AS (SELECT xor(x, x >> 30) AS x FROM v), "
        "s2 AS (SELECT (x * 484763065 + ((x * 3210233709) % 4294967296) "
        "* 4294967296) % 18446744073709551616 AS x FROM s1), "
        "s3 AS (SELECT xor(x, x >> 27) AS x FROM s2), "
        "s4 AS (SELECT (x * 321982955 + ((x * 2496678331) % 4294967296) "
        "* 4294967296) % 18446744073709551616 AS x FROM s3), "
        "s5 AS (SELECT xor(x, x >> 31) AS x FROM s4), "
        "k AS (SELECT x FROM s5 ORDER BY x LIMIT 256) "
        "SELECT 'doc_id' AS \"column\", CASE WHEN count(*) < 256 "
        "THEN count(*)::DOUBLE ELSE 255 / (max(x)::DOUBLE / "
        "18446744073709551616.0) END AS estimate FROM k",
    "q_decontaminate":
        "WITH sn AS (SELECT substring(text, 51, 40) AS s FROM documents "
        "WHERE doc_id IN (7, 23, 101) AND length(text) >= 90) "
        "SELECT DISTINCT doc_id FROM documents d JOIN sn "
        "ON contains(d.text, sn.s)",
    "q_top_terms":
        "WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word "
        "FROM documents), "
        "c AS (SELECT doc_id, word, CAST(COUNT(*) AS BIGINT) AS tf "
        "FROM w GROUP BY 1, 2), "
        "d AS (SELECT word, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df "
        "FROM w GROUP BY 1), "
        "s AS (SELECT c.doc_id, c.word AS term, c.tf, d.df, "
        "CAST(c.tf AS DOUBLE) / CAST(d.df AS DOUBLE) AS score, "
        "ROW_NUMBER() OVER (PARTITION BY c.doc_id ORDER BY "
        "CAST(c.tf AS DOUBLE) / CAST(d.df AS DOUBLE) DESC, c.word) AS rn "
        "FROM c JOIN d ON c.word = d.word) "
        "SELECT doc_id, term, tf, df, score FROM s WHERE rn = 1",
    "q_bigram_counts":
        "WITH l AS (SELECT string_split(text, ' ') AS w FROM documents), "
        "b AS (SELECT unnest(list_transform(range(1, len(w)), "
        "i -> w[i] || ' ' || w[i+1])) AS bigram FROM l) "
        "SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt FROM b "
        "GROUP BY bigram ORDER BY cnt DESC, bigram LIMIT 50",
    "q_repetition_scores":
        "WITH l AS (SELECT doc_id, string_split(text, ' ') AS w "
        "FROM documents), "
        "b AS (SELECT doc_id, unnest(list_transform(range(1, len(w)), "
        "i -> w[i] || ' ' || w[i+1])) AS bg FROM l) "
        "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams, "
        "CAST(COUNT(DISTINCT bg) AS BIGINT) AS n_distinct, "
        "1.0 - CAST(COUNT(DISTINCT bg) AS DOUBLE) / COUNT(*) AS rep_ratio "
        "FROM b GROUP BY doc_id",
    "q_sessionize":
        "WITH e AS (SELECT user_id, ts, event_id, "
        "CAST(round(value * 100) AS BIGINT) AS cents FROM events), "
        "b AS (SELECT user_id, ts, event_id, cents, CASE WHEN "
        "lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w "
        "> INTERVAL '30 minutes' THEN 1 ELSE 0 END AS brk FROM e "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
        "g AS (SELECT user_id, ts, cents, SUM(brk) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS sess FROM b) "
        "SELECT user_id, epoch_us(min(ts)) AS session_start, "
        "CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(SUM(cents) AS BIGINT) AS cents "
        "FROM g GROUP BY user_id, sess",
    "q_semi_join_customers":
        "SELECT c_custkey, c_mktsegment FROM customer c WHERE EXISTS "
        "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
        "AND o.o_totalprice >= 450000)",
    "q_anti_join_customers":
        "SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS cnt "
        "FROM customer c WHERE NOT EXISTS "
        "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
        "AND o.o_totalprice >= 450000) GROUP BY c_mktsegment",
    "q_grouped_quantiles":
        "SELECT lang, CAST(0.25 AS DOUBLE) AS q, "
        "quantile_disc(n_chars, 0.25) AS value FROM documents GROUP BY lang "
        "UNION ALL SELECT lang, CAST(0.5 AS DOUBLE), "
        "quantile_disc(n_chars, 0.5) FROM documents GROUP BY lang "
        "UNION ALL SELECT lang, CAST(0.9 AS DOUBLE), "
        "quantile_disc(n_chars, 0.9) FROM documents GROUP BY lang",
    "q_pivot_events":
        "SELECT strftime(ts, '%Y-%m-%d') AS d, "
        + ", ".join(
            f"CAST(COUNT(*) FILTER (event_type = '{n}') AS BIGINT) "
            f"AS n_{n}" for n in _EVENT_TYPES)
        + " FROM events GROUP BY 1",
    "q_user_gaps":
        "WITH g AS (SELECT user_id, epoch_us(ts) - lag(epoch_us(ts)) "
        "OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap "
        "FROM events) "
        "SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events, "
        "CAST(SUM(gap) AS BIGINT) AS sum_gap_us, "
        "CAST(MAX(gap) AS BIGINT) AS max_gap_us "
        "FROM g GROUP BY user_id HAVING COUNT(*) >= 2",
    "q_cumulative_daily":
        "SELECT d, cnt, CAST(SUM(cnt) OVER (ORDER BY d "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_cnt FROM ("
        "SELECT strftime(ts, '%Y-%m-%d') AS d, "
        "CAST(COUNT(*) AS BIGINT) AS cnt FROM events GROUP BY 1)",
    "q_crossdoc_ngrams":
        "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "g AS (SELECT doc_id, unnest(list_distinct(list_transform("
        f"range(1, len(ws) - {_XNG_N - 2}), "
        f"i -> array_to_string(ws[i:i+{_XNG_N - 1}], ' ')))) AS gram "
        f"FROM d WHERE len(ws) >= {_XNG_N}), "
        "c AS (SELECT gram, COUNT(*) AS n FROM g GROUP BY gram) "
        "SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_distinct_grams, "
        "CAST(SUM(CASE WHEN c.n >= 2 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_shared FROM g JOIN c USING (gram) GROUP BY g.doc_id",
    "q_mixture_sample":
        "SELECT doc_id, source, lang FROM documents WHERE "
        "((doc_id % 4294967296) * 2654435761::HUGEINT) // 4294967296 "
        "% (CASE WHEN source IN ('src0', 'src1') THEN 2 "
        "WHEN source IN ('src2', 'src3') THEN 4 ELSE 8 END) = 0",
    "q_prefix_dup_groups":
        "SELECT substring(text, 1, 40) AS prefix, "
        "CAST(COUNT(*) AS BIGINT) AS n_docs, MIN(doc_id) AS rep "
        "FROM documents GROUP BY 1 HAVING COUNT(*) >= 2",
    "q_rollup_lang_source":
        "SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS cnt "
        "FROM documents GROUP BY ROLLUP(lang, source)",
    "q_distinct_users":
        "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) "
        "AS n_users FROM events GROUP BY event_type",
    "q_left_join_counts":
        "SELECT c.c_custkey, c.c_mktsegment, "
        "CAST(COALESCE(o.cnt, 0) AS BIGINT) AS n_orders, "
        "CAST(COALESCE(o.cents, 0) AS BIGINT) AS cents "
        "FROM customer c LEFT JOIN (SELECT o_custkey, COUNT(*) AS cnt, "
        "SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents "
        "FROM orders GROUP BY 1) o ON c.c_custkey = o.o_custkey",
    "q_quantiles_cont":
        " UNION ALL ".join(
            f"SELECT {q}::DOUBLE AS q, quantile_cont(n_chars, {q}) "
            f"AS value FROM documents"
            for q in (0.25, 0.5, 0.75, 0.9, 0.99)),
    "q_cube_lang_source":
        "SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS cnt "
        "FROM documents GROUP BY CUBE(lang, source)",
    "q_click_heavy_users":
        "SELECT user_id, "
        "CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT) "
        "AS n_click, "
        "CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) "
        "AS n_purchase FROM events GROUP BY user_id "
        "HAVING COUNT(*) FILTER (event_type = 'click') "
        "> COUNT(*) FILTER (event_type = 'purchase')",
    "q_mad_len":
        "SELECT median(n_chars) AS median, mad(n_chars) AS mad "
        "FROM documents",
    "q_mode_event_type":
        "WITH c AS (SELECT user_id, event_type, COUNT(*) AS cnt "
        "FROM events GROUP BY 1, 2) "
        "SELECT user_id, event_type AS mode_type, CAST(cnt AS BIGINT) AS cnt "
        "FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id "
        "ORDER BY cnt DESC, event_type) AS rn FROM c) WHERE rn = 1",
    "q_user_days_purchase_no_error":
        "SELECT user_id, strftime(ts, '%Y-%m-%d') AS d FROM events "
        "WHERE event_type = 'purchase' "
        "EXCEPT SELECT user_id, strftime(ts, '%Y-%m-%d') FROM events "
        "WHERE event_type = 'error'",
    "q_user_days_purchase_and_error":
        "SELECT user_id, strftime(ts, '%Y-%m-%d') AS d FROM events "
        "WHERE event_type = 'purchase' "
        "INTERSECT SELECT user_id, strftime(ts, '%Y-%m-%d') FROM events "
        "WHERE event_type = 'error'",
    "q_len_histogram":
        "SELECT CAST((n_chars // 50) * 50 AS BIGINT) AS bin_lo, "
        "CAST(COUNT(*) AS BIGINT) AS cnt FROM documents GROUP BY bin_lo",
    "q_weighted_sample":
        "SELECT doc_id, lang, n_chars FROM documents "
        "WHERE ((doc_id % 4294967296) * 2654435761::HUGEINT) "
        "// 4294967296 % 1000 < n_chars",
    "q_lang_sources_agg":
        "SELECT lang, string_agg(DISTINCT source, ',' ORDER BY source) "
        "AS sources FROM documents GROUP BY lang",
    "q_edit_distance_dups":
        "SELECT a.doc_id AS a_id, b.doc_id AS b_id, "
        "CAST(levenshtein(a.text, b.text) AS BIGINT) AS dist "
        "FROM documents a JOIN documents b ON a.lang = b.lang "
        "AND (a.n_chars // 64) = (b.n_chars // 64) AND a.doc_id < b.doc_id "
        "WHERE a.n_chars <= 250 AND b.n_chars <= 250 "
        "AND levenshtein(a.text, b.text) <= 60",
    "q_moving_sum_daily":
        "WITH daily AS (SELECT event_type, strftime(ts, '%Y-%m-%d') AS d, "
        "SUM(CAST(round(value * 100) AS BIGINT)) AS cents "
        "FROM events GROUP BY 1, 2) "
        "SELECT event_type, d, "
        "CAST(SUM(cents) OVER (PARTITION BY event_type ORDER BY d "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS DOUBLE) / 100.0 "
        "AS mov3 FROM daily",
    "q_event_transitions":
        "WITH s AS (SELECT user_id, event_type, LAG(event_type) OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS prev FROM events) "
        "SELECT prev, event_type AS next, CAST(COUNT(*) AS BIGINT) AS cnt "
        "FROM s WHERE prev IS NOT NULL GROUP BY 1, 2",
    "q_first_event_per_user":
        "SELECT user_id, event_type AS first_type, "
        "epoch_us(ts) AS first_us FROM (SELECT *, ROW_NUMBER() OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS rn FROM events) "
        "WHERE rn = 1",
    "q_tpch_q3":
        "SELECT l_orderkey, CAST(SUM(CAST(round(l_extendedprice*100) AS "
        "BIGINT) * (100 - CAST(round(l_discount*100) AS BIGINT))) AS "
        "DOUBLE) / 10000.0 AS revenue, o_orderdate, o_orderpriority "
        "FROM customer, orders, lineitem "
        "WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey "
        "AND l_orderkey = o_orderkey "
        "AND o_orderdate < TIMESTAMP '1998-06-01' "
        "AND l_shipdate > TIMESTAMP '1998-06-01' "
        "GROUP BY l_orderkey, o_orderdate, o_orderpriority "
        "ORDER BY revenue DESC, l_orderkey LIMIT 10",
    "q_tpch_q10":
        "SELECT c_custkey, c_name, "
        "CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS DOUBLE) "
        "/ 10000.0 AS revenue, c_acctbal, n_name "
        "FROM customer, orders, lineitem, nation "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND o_orderdate >= TIMESTAMP '1996-10-01' "
        "AND o_orderdate < TIMESTAMP '1997-01-01' "
        "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
        "GROUP BY c_custkey, c_name, c_acctbal, n_name "
        "ORDER BY revenue DESC, c_custkey LIMIT 20",
    "q_tpch_q6":
        "SELECT CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "CAST(round(l_discount*100) AS BIGINT)) AS DOUBLE) / 10000.0 "
        "AS revenue FROM lineitem "
        "WHERE l_shipdate >= TIMESTAMP '1997-01-01' "
        "AND l_shipdate < TIMESTAMP '1998-01-01' "
        "AND CAST(round(l_discount*100) AS BIGINT) BETWEEN 5 AND 7 "
        "AND CAST(round(l_quantity) AS BIGINT) < 24",
    "q_tpch_q15":
        "WITH revenue AS (SELECT l_suppkey, "
        "SUM(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev_micro "
        "FROM lineitem WHERE l_shipdate >= TIMESTAMP '1997-01-01' "
        "AND l_shipdate < TIMESTAMP '1997-04-01' GROUP BY l_suppkey) "
        "SELECT s_suppkey, s_name, "
        "CAST(rev_micro AS DOUBLE) / 10000.0 AS total_revenue "
        "FROM supplier JOIN revenue ON s_suppkey = l_suppkey "
        "WHERE rev_micro = (SELECT MAX(rev_micro) FROM revenue) "
        "ORDER BY s_suppkey",
    "q_tpch_q13":
        "SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist FROM "
        "(SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS c_count "
        "FROM customer LEFT JOIN orders ON c_custkey = o_custkey "
        "AND o_orderstatus <> 'F' GROUP BY c_custkey) "
        "GROUP BY c_count",
    "q_tpch_q4":
        "SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count "
        "FROM orders WHERE o_orderdate >= TIMESTAMP '1997-01-01' "
        "AND o_orderdate < TIMESTAMP '1997-04-01' AND EXISTS ("
        "SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey "
        "AND l_shipdate > o_orderdate + INTERVAL 30 DAY) "
        "GROUP BY o_orderpriority",
    "q_tpch_q17":
        "WITH bp AS (SELECT p_partkey FROM part "
        "WHERE p_brand = 'Brand#4'), "
        "agg AS (SELECT l_partkey AS pk, "
        "SUM(CAST(round(l_quantity) AS BIGINT)) AS sq, "
        "CAST(COUNT(*) AS BIGINT) AS cq FROM lineitem "
        "JOIN bp ON l_partkey = p_partkey GROUP BY l_partkey) "
        "SELECT CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) "
        "AS DOUBLE) / 100.0 / 7.0 AS avg_yearly FROM lineitem "
        "JOIN agg ON l_partkey = pk "
        "WHERE 5 * CAST(round(l_quantity) AS BIGINT) * cq < sq",
    "q_tpch_q19":
        "SELECT CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS DOUBLE) "
        "/ 10000.0 AS revenue FROM lineitem "
        "JOIN part ON l_partkey = p_partkey WHERE "
        "(p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15 "
        "AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 11) "
        "OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 20 "
        "AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 20) "
        "OR (p_brand = 'Brand#7' AND p_size BETWEEN 1 AND 25 "
        "AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 30)",
    "q_tpch_q22":
        "WITH pos AS (SELECT "
        "SUM(CAST(round(c_acctbal*100) AS BIGINT)) AS s, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM customer "
        "WHERE CAST(round(c_acctbal*100) AS BIGINT) > 0) "
        "SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, "
        "CAST(COUNT(*) AS BIGINT) AS numcust, "
        "CAST(SUM(CAST(round(c_acctbal*100) AS BIGINT)) AS DOUBLE) "
        "/ 100.0 AS totacctbal FROM customer, pos "
        "WHERE CAST(round(c_acctbal*100) AS BIGINT) * n > s "
        "AND NOT EXISTS (SELECT 1 FROM orders "
        "WHERE o_custkey = c_custkey "
        "AND o_orderdate >= TIMESTAMP '2000-01-01') "
        "GROUP BY c_nationkey",
    "q_tpch_q7":
        "WITH f AS (SELECT n1.n_name AS supp_nation, "
        "n2.n_name AS cust_nation, "
        "CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year, "
        "CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT)) AS micro "
        "FROM supplier, lineitem, orders, customer, nation n1, nation n2 "
        "WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey "
        "AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
        "AND c_nationkey = n2.n_nationkey "
        "AND ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2') "
        "OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1')) "
        "AND l_shipdate >= TIMESTAMP '1996-01-01' "
        "AND l_shipdate < TIMESTAMP '1998-01-01') "
        "SELECT supp_nation, cust_nation, l_year, "
        "CAST(SUM(micro) AS DOUBLE) / 10000.0 AS revenue FROM f "
        "GROUP BY supp_nation, cust_nation, l_year",
    "q_tpch_q12":
        "SELECT l_linestatus, "
        "CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') "
        "THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count, "
        "CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT','2-HIGH') "
        "THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate >= TIMESTAMP '1997-01-01' "
        "AND l_shipdate < TIMESTAMP '1998-01-01' "
        "AND l_shipdate > o_orderdate + INTERVAL 30 DAY "
        "GROUP BY l_linestatus",
    "q_tpch_q21":
        "WITH lat AS (SELECT l_orderkey AS ok, l_suppkey AS sk, "
        "MAX(CASE WHEN l_shipdate > o_orderdate + INTERVAL 30 DAY "
        "THEN 1 ELSE 0 END) AS late "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE o_orderstatus = 'F' GROUP BY 1, 2), "
        "w AS (SELECT ok, MIN(CASE WHEN late = 1 THEN sk END) AS lsk "
        "FROM lat GROUP BY ok HAVING COUNT(*) > 1 AND SUM(late) = 1) "
        "SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait "
        "FROM w JOIN supplier ON lsk = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "WHERE n_name = 'NATION_2' GROUP BY s_name "
        "ORDER BY numwait DESC, s_name LIMIT 100",
    "q_tpch_q2":
        "WITH rs AS (SELECT s_suppkey, s_acctbal, s_name, n_name "
        "FROM supplier JOIN nation ON s_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "WHERE r_name = 'ASIA'), "
        "fp AS (SELECT p_partkey, p_brand FROM part "
        "WHERE p_type = 'LARGE' AND p_size BETWEEN 10 AND 20), "
        "costs AS (SELECT l_partkey AS pk, l_suppkey AS sk, "
        "MIN(CAST(round(l_extendedprice*100) AS BIGINT)) AS mc "
        "FROM lineitem JOIN fp ON l_partkey = p_partkey "
        "JOIN rs ON l_suppkey = s_suppkey GROUP BY 1, 2), "
        "mn AS (SELECT pk, MIN(mc) AS m FROM costs GROUP BY pk) "
        "SELECT s_acctbal, s_name, n_name, "
        "CAST(c.pk AS BIGINT) AS p_partkey, p_brand, "
        "CAST(c.mc AS DOUBLE) / 100.0 AS supply_cost "
        "FROM costs c JOIN mn ON c.pk = mn.pk AND c.mc = mn.m "
        "JOIN rs ON c.sk = s_suppkey JOIN fp ON c.pk = p_partkey "
        "ORDER BY s_acctbal DESC, n_name, s_name, p_partkey LIMIT 100",
    "q_tpch_q11":
        "WITH ns AS (SELECT s_suppkey FROM supplier "
        "JOIN nation ON s_nationkey = n_nationkey "
        "WHERE n_name = 'NATION_3'), "
        "v AS (SELECT l_partkey AS pk, "
        "SUM(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS vm "
        "FROM lineitem JOIN ns ON l_suppkey = s_suppkey GROUP BY 1) "
        "SELECT CAST(pk AS BIGINT) AS p_partkey, "
        "CAST(vm AS DOUBLE) / 10000.0 AS part_value FROM v "
        "WHERE CAST(vm AS HUGEINT) * (SELECT COUNT(*) FROM v) > "
        "2 * (SELECT SUM(CAST(vm AS HUGEINT)) FROM v) "
        "ORDER BY part_value DESC, p_partkey",
    "q_tpch_q20":
        "WITH ns AS (SELECT s_suppkey, s_name, s_acctbal FROM supplier "
        "JOIN nation ON s_nationkey = n_nationkey "
        "WHERE n_name = 'NATION_1'), "
        "sp AS (SELECT p_partkey FROM part "
        "WHERE p_name LIKE 'small%'), "
        "ag AS (SELECT l_suppkey AS sk, l_partkey AS pk, "
        "SUM(CASE WHEN l_shipdate >= TIMESTAMP '1997-01-01' AND "
        "l_shipdate < TIMESTAMP '1998-01-01' "
        "THEN CAST(round(l_quantity) AS BIGINT) ELSE 0 END) AS qw, "
        "SUM(CAST(round(l_quantity) AS BIGINT)) AS qt "
        "FROM lineitem JOIN ns ON l_suppkey = s_suppkey "
        "JOIN sp ON l_partkey = p_partkey GROUP BY 1, 2) "
        "SELECT DISTINCT s_name, s_acctbal FROM ag "
        "JOIN ns ON sk = s_suppkey WHERE 2 * qw > qt ORDER BY s_name",
    "q_tpch_q9":
        "SELECT n_name AS nation, "
        "CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year, "
        "CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS DOUBLE) "
        "/ 10000.0 AS revenue "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "JOIN orders ON l_orderkey = o_orderkey "
        "WHERE p_name LIKE '%red%' GROUP BY n_name, o_year",
    "q_tpch_q16":
        "SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size, "
        "CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "WHERE p_brand <> 'Brand#4' "
        "AND p_size IN (1, 7, 14, 23, 36, 45) "
        "GROUP BY p_brand, p_type, p_size",
    "q_tpch_q8":
        "WITH f AS (SELECT "
        "CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year, "
        "CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT)) AS micro, "
        "(s_nationkey = (SELECT n_nationkey FROM nation "
        "WHERE n_name = 'NATION_5')) AS is_n "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation n2 ON c_nationkey = n2.n_nationkey "
        "JOIN region ON n2.n_regionkey = r_regionkey "
        "JOIN part ON l_partkey = p_partkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "WHERE r_name = 'AMERICA' AND p_type = 'ECONOMY' "
        "AND o_orderdate >= TIMESTAMP '1996-01-01' "
        "AND o_orderdate < TIMESTAMP '1998-01-01') "
        "SELECT o_year, "
        "CAST(SUM(CASE WHEN is_n THEN micro ELSE 0 END) AS DOUBLE) / "
        "CAST(SUM(micro) AS DOUBLE) AS mkt_share FROM f GROUP BY o_year",
    "q_gopher_quality":
        "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws, "
        "CAST(length(replace(text, ' ', '')) AS BIGINT) AS wchars "
        "FROM documents), "
        "r AS (SELECT doc_id, CAST(len(ws) AS BIGINT) AS n_words, "
        "wchars, CAST(len(list_filter(ws, "
        "w -> regexp_matches(w, '[a-z]'))) AS BIGINT) AS n_alpha, "
        "CAST(len(list_filter(ws, "
        "w -> w IN ('the','a','of','and','to'))) AS BIGINT) AS n_stop "
        "FROM d) "
        "SELECT doc_id, n_words, "
        "(n_words >= 50 AND n_words <= 100000) AS ok_nwords, "
        "(3*n_words <= wchars AND wchars <= 10*n_words) AS ok_meanlen, "
        "(5*n_alpha >= 4*n_words) AS ok_alpha, "
        "(n_stop >= 2) AS ok_stop, "
        "((n_words >= 50 AND n_words <= 100000) AND "
        "(3*n_words <= wchars AND wchars <= 10*n_words) AND "
        "(5*n_alpha >= 4*n_words) AND (n_stop >= 2)) AS keep FROM r",
    "q_dedup_tiers":
        "WITH n AS (SELECT doc_id, text, lower(regexp_replace(text, "
        "'[^a-zA-Z0-9 ]', '', 'g')) AS norm FROM documents), "
        "r AS (SELECT doc_id, "
        "MIN(doc_id) OVER (PARTITION BY text) AS e_rep, "
        "MIN(doc_id) OVER (PARTITION BY norm) AS n_rep, "
        "MIN(doc_id) OVER (PARTITION BY substring(norm, 1, 40)) "
        "AS p_rep FROM n) "
        "SELECT doc_id, CASE WHEN doc_id <> e_rep THEN 'exact' "
        "WHEN doc_id <> n_rep THEN 'normalized' "
        "WHEN doc_id <> p_rep THEN 'prefix' ELSE 'unique' END "
        "AS tier FROM r",
    "q_tpch_q18":
        "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
        "CAST(sum_qty AS BIGINT) AS sum_qty FROM (SELECT l_orderkey, "
        "SUM(CAST(round(l_quantity) AS BIGINT)) AS sum_qty "
        "FROM lineitem GROUP BY l_orderkey HAVING "
        "SUM(CAST(round(l_quantity) AS BIGINT)) > 250) "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 100",
    "q_remove_dup_ngrams":
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws "
        "FROM documents), "
        "pos AS (SELECT doc_id, ws, "
        "UNNEST(generate_series(1, len(ws))) AS p FROM w), "
        "g AS (SELECT doc_id, p AS i, "
        "array_to_string(ws[p:p+7], ' ') AS gram "
        "FROM pos WHERE p <= len(ws) - 7), "
        "d AS (SELECT gram, MIN(doc_id) AS own FROM "
        "(SELECT DISTINCT doc_id, gram FROM g) "
        "GROUP BY gram HAVING COUNT(*) >= 2), "
        "cov AS (SELECT DISTINCT g.doc_id, g.i + j.j AS p "
        "FROM g JOIN d USING (gram), "
        "UNNEST(generate_series(0, 7)) AS j(j) "
        "WHERE g.doc_id <> d.own), "
        "kept AS (SELECT pos.doc_id, pos.p, pos.ws[pos.p] AS word "
        "FROM pos ANTI JOIN cov "
        "ON pos.doc_id = cov.doc_id AND pos.p = cov.p), "
        "agg AS (SELECT doc_id, "
        "string_agg(word, ' ' ORDER BY p) AS clean_text, "
        "CAST(COUNT(*) AS BIGINT) AS n_kept FROM kept GROUP BY doc_id) "
        "SELECT w.doc_id, COALESCE(a.clean_text, '') AS clean_text, "
        "CAST(len(w.ws) AS BIGINT) AS n_words, "
        "CAST(len(w.ws) - COALESCE(a.n_kept, 0) AS BIGINT) AS n_removed "
        "FROM w LEFT JOIN agg a USING (doc_id)",
    "q_pack_sequences":
        "WITH t AS (SELECT doc_id, "
        "CAST(array_length(string_split_regex(trim(text), '\\s+')) "
        "AS BIGINT) AS n_tokens FROM documents), "
        "c AS (SELECT doc_id, n_tokens, "
        "CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS BIGINT) AS cum FROM t) "
        "SELECT doc_id, n_tokens, cum // 2048 AS pack_id, "
        "cum % 2048 AS pack_offset FROM c",
    "q_late_shipments":
        "SELECT o_orderpriority, "
        "CAST(SUM(CASE WHEN l_shipdate > o_orderdate + INTERVAL 365 DAY "
        "THEN 1 ELSE 0 END) AS BIGINT) AS late_cnt, "
        "CAST(COUNT(*) AS BIGINT) AS cnt "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "GROUP BY o_orderpriority",
    "q_profile_events":
        "SELECT col, n_null, cnt FROM ("
        "SELECT 'event_id' AS col, CAST(COUNT(*) - COUNT(event_id) AS "
        "BIGINT) AS n_null, CAST(COUNT(*) AS BIGINT) AS cnt FROM events "
        "UNION ALL SELECT 'ts', CAST(COUNT(*) - COUNT(ts) AS BIGINT), "
        "CAST(COUNT(*) AS BIGINT) FROM events "
        "UNION ALL SELECT 'user_id', CAST(COUNT(*) - COUNT(user_id) AS "
        "BIGINT), CAST(COUNT(*) AS BIGINT) FROM events "
        "UNION ALL SELECT 'event_type', CAST(COUNT(*) - COUNT(event_type) "
        "AS BIGINT), CAST(COUNT(*) AS BIGINT) FROM events "
        "UNION ALL SELECT 'value', CAST(COUNT(*) - COUNT(value) AS "
        "BIGINT), CAST(COUNT(*) AS BIGINT) FROM events "
        "UNION ALL SELECT 'props', CAST(COUNT(*) - COUNT(props) AS "
        "BIGINT), CAST(COUNT(*) AS BIGINT) FROM events)",
    "q_global_rank_len":
        "SELECT doc_id, n_chars, "
        "CAST(RANK() OVER (ORDER BY n_chars) AS BIGINT) AS rnk "
        "FROM documents",
    "q_user_activity_histogram":
        "SELECT n_events, CAST(COUNT(*) AS BIGINT) AS n_users FROM "
        "(SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events "
        "FROM events GROUP BY user_id) GROUP BY n_events",
    "q_moving_sum_range":
        "WITH daily AS (SELECT event_type, CAST(ts AS DATE) AS dd, "
        "SUM(CAST(round(value * 100) AS BIGINT)) AS cents "
        "FROM events GROUP BY 1, 2) "
        "SELECT event_type, strftime(dd, '%Y-%m-%d') AS d, "
        "CAST(SUM(cents) OVER (PARTITION BY event_type ORDER BY dd "
        "RANGE BETWEEN INTERVAL 2 DAY PRECEDING AND CURRENT ROW) "
        "AS DOUBLE) / 100.0 AS mov3d FROM daily",
    "q_pattern_counts":
        "SELECT doc_id, "
        "CAST(len(regexp_extract_all(text, '[a-z]{6,}')) AS BIGINT) "
        "AS n_long_words, "
        "CAST(len(regexp_extract_all(text, '[aeiou]{2,}')) AS BIGINT) "
        "AS n_vowel_runs FROM documents",
    "q_unpivot_event_metrics":
        "SELECT event_id, 'value' AS metric, value AS v FROM events "
        "UNION ALL SELECT event_id, 'user_id' AS metric, "
        "CAST(user_id AS DOUBLE) AS v FROM events",
    "q_dup_rate_by_source":
        "SELECT source, "
        "CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS dup_cnt, CAST(COUNT(*) AS BIGINT) AS cnt, "
        "CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS DOUBLE) "
        "/ COUNT(*) AS dup_rate FROM (SELECT source, ROW_NUMBER() OVER "
        "(PARTITION BY text ORDER BY doc_id) AS rn FROM documents) "
        "GROUP BY source",
    "q_tpch_q5":
        "SELECT n_name, CAST(SUM("
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE) "
        "/ 10000.0 AS revenue "
        "FROM customer, orders, lineitem, supplier, nation, region "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
        "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "AND r_name = 'ASIA' "
        "AND o_orderdate >= TIMESTAMP '1996-01-01' "
        "AND o_orderdate < TIMESTAMP '1997-01-01' "
        "GROUP BY n_name ORDER BY revenue DESC",
    "q_canonical_urls":
        "WITH u AS (SELECT doc_id, CASE "
        "WHEN doc_id % 5 = 0 THEN source || '/RAW/' || "
        "CAST(doc_id AS VARCHAR) || '#F' "
        "WHEN doc_id % 5 = 1 THEN 'HTTPS://' || upper(source) || "
        "'.NET#Sec' "
        "ELSE 'HTTP://WWW.' || upper(source) || '.COM/Docs/' || "
        "CAST(doc_id AS VARCHAR) || '#frag' END AS url FROM documents), "
        "s AS (SELECT doc_id, split_part(url, '#', 1) AS su FROM u), "
        "p AS (SELECT doc_id, su, split_part(su, '://', 2) AS rest "
        "FROM s) "
        "SELECT doc_id, CASE WHEN strpos(su, '://') > 0 THEN "
        "lower(split_part(su, '://', 1)) || '://' || "
        "lower(split_part(rest, '/', 1)) || "
        "CASE WHEN strpos(rest, '/') > 0 THEN "
        "'/' || substr(rest, strpos(rest, '/') + 1) ELSE '' END "
        "ELSE su END AS curl FROM p",
    "q_parts_by_brand":
        "SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n_parts, "
        "CAST(SUM(CAST(round(p_retailprice * 100) AS BIGINT)) AS DOUBLE) "
        "/ 100.0 / COUNT(*) AS avg_price FROM part GROUP BY p_brand",
    "q_promo_revenue":
        "SELECT 100.0 * SUM(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 "
        "END) / SUM(rev) AS promo_revenue_pct FROM ("
        "SELECT p_type, CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "WHERE l_shipdate >= TIMESTAMP '1997-03-01' "
        "AND l_shipdate < TIMESTAMP '1997-09-01')",
    "q_top_parts_revenue":
        "SELECT p_partkey, p_name, p_brand, "
        "CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE) "
        "/ 10000.0 AS revenue "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "GROUP BY p_partkey, p_name, p_brand "
        "ORDER BY revenue DESC, p_partkey LIMIT 10",
    "q_events_distinct":
        "SELECT DISTINCT user_id, event_type, "
        "strftime(ts, '%Y-%m-%d') AS d FROM events",
    "q_percent_rank_len":
        "SELECT doc_id, lang, n_chars, PERCENT_RANK() OVER "
        "(PARTITION BY lang ORDER BY n_chars) AS pr FROM documents",
    "q_cohort_retention":
        "WITH a AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d "
        "FROM events), "
        "f AS (SELECT user_id, MIN(d) AS c FROM a GROUP BY 1) "
        "SELECT strftime(f.c, '%Y-%m-%d') AS cohort_day, "
        "strftime(a.d, '%Y-%m-%d') AS activity_day, "
        "CAST(COUNT(*) AS BIGINT) AS n_users "
        "FROM a JOIN f USING (user_id) GROUP BY 1, 2",
    "q_dup_cluster_sizes":
        "SELECT size, CAST(COUNT(*) AS BIGINT) AS n_clusters FROM "
        "(SELECT CAST(COUNT(*) AS BIGINT) AS size FROM documents "
        "GROUP BY text) GROUP BY size",
    "q_shingle_stats":
        "SELECT doc_id, CAST(len(list_distinct(list_transform("
        "range(1, len(ws) - 3), i -> array_to_string(ws[i:i+4], ' ')))) "
        "AS BIGINT) AS n_shingles FROM "
        "(SELECT doc_id, string_split(text, ' ') AS ws FROM documents)",
    "q_funnel_view_purchase":
        "SELECT user_id FROM events GROUP BY user_id "
        "HAVING min(CASE WHEN event_type = 'view' THEN ts END) "
        "< max(CASE WHEN event_type = 'purchase' THEN ts END)",
    "q_normalized_dedup":
        "SELECT MIN(doc_id) AS rep, CAST(COUNT(*) AS BIGINT) AS n_docs "
        "FROM documents GROUP BY "
        "lower(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g'))",
    "q_regression_len_tokens":
        "WITH t AS (SELECT lang, n_chars::BIGINT AS x, "
        "array_length(string_split_regex(trim(text), '\\s+'))::BIGINT "
        "AS y FROM documents), "
        "s AS (SELECT lang, COUNT(*)::HUGEINT AS n, SUM(x)::HUGEINT AS sx, "
        "SUM(y)::HUGEINT AS sy, SUM(x*x)::HUGEINT AS sxx, "
        "SUM(x*y)::HUGEINT AS sxy FROM t GROUP BY lang), "
        "b AS (SELECT lang, n, sx, sy, "
        "CAST(n*sxy - sx*sy AS DOUBLE) / CAST(n*sxx - sx*sx AS DOUBLE) "
        "AS slope FROM s) "
        "SELECT lang, CAST(n AS BIGINT) AS n, slope, "
        "(CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE)) "
        "/ CAST(n AS DOUBLE) AS intercept FROM b",
    "q_events_hourly":
        "SELECT CAST(isodow(ts) AS BIGINT) AS isodow, "
        "CAST(hour(ts) AS BIGINT) AS hour, COUNT(*) AS cnt, "
        "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS cents "
        "FROM events GROUP BY 1, 2",
    "q_ntile_doc_len":
        "SELECT doc_id, lang, n_chars, NTILE(4) OVER "
        "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS tile "
        "FROM documents",
    "q_corr_len_tokens":
        "WITH t AS (SELECT lang, n_chars::BIGINT AS x, "
        "array_length(string_split_regex(trim(text), '\\s+'))::BIGINT "
        "AS y FROM documents), "
        "s AS (SELECT lang, COUNT(*)::HUGEINT AS n, SUM(x)::HUGEINT AS sx, "
        "SUM(y)::HUGEINT AS sy, SUM(x*x)::HUGEINT AS sxx, "
        "SUM(y*y)::HUGEINT AS syy, SUM(x*y)::HUGEINT AS sxy "
        "FROM t GROUP BY lang) "
        "SELECT lang, CAST(n AS BIGINT) AS n, "
        "CAST(n*sxy - sx*sy AS DOUBLE) / "
        "sqrt(CAST((n*sxx - sx*sx) * (n*syy - sy*sy) AS DOUBLE)) AS corr "
        "FROM s",
    "q_grouped_quantiles_cont":
        "SELECT lang, CAST(0.25 AS DOUBLE) AS q, "
        "quantile_cont(n_chars, 0.25) AS value FROM documents GROUP BY lang "
        "UNION ALL SELECT lang, CAST(0.5 AS DOUBLE), "
        "quantile_cont(n_chars, 0.5) FROM documents GROUP BY lang "
        "UNION ALL SELECT lang, CAST(0.9 AS DOUBLE), "
        "quantile_cont(n_chars, 0.9) FROM documents GROUP BY lang",
    "q_full_outer_cust_supp":
        "SELECT c_custkey, c_nationkey, s_suppkey, s_nationkey "
        "FROM customer FULL OUTER JOIN supplier "
        "ON c_nationkey = s_nationkey",
    "q_curation_e2e":
        "WITH f AS (SELECT doc_id, lang, source, text FROM documents "
        "WHERE n_chars >= 100 AND "
        "length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) "
        ">= 0.55 * n_chars), "
        "d AS (SELECT MIN(doc_id) AS doc_id FROM f GROUP BY text), "
        "k AS (SELECT f.* FROM f JOIN d USING (doc_id)), "
        "m AS (SELECT * FROM k WHERE "
        "((doc_id % 4294967296) * 2654435761::HUGEINT) // 4294967296 "
        "% (CASE WHEN source IN ('src0', 'src1') THEN 2 "
        "WHEN source IN ('src2', 'src3') THEN 4 ELSE 8 END) = 0) "
        "SELECT doc_id, lang, source, "
        "array_length(string_split_regex(trim(text), '\\s+')) AS n_tokens "
        "FROM m",
    "q_lang_id":
        "SELECT doc_id, " + _LANG_ID_CASE + " AS pred_lang "
        "FROM documents",
}

# CCNet-style trigram-LM scoring: the oracle retrains the model and
# rescores every doc from scratch in SQL (trigram unnest -> count ->
# self-join), then replays the tercile with the same double ratio
# ordering + doc_id tie-break the engine uses (see q_lm_score)
ORACLE_SQL["q_lm_score"] = (
    "WITH nt AS (SELECT doc_id, "
    "lower(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g')) AS n "
    "FROM documents), "
    "tri AS (SELECT doc_id, substr(n, CAST(i AS INT), 3) AS t "
    "FROM nt, LATERAL (SELECT unnest(generate_series(1, length(n) - 2)) "
    "AS i) g), "
    "model AS (SELECT t, count(*) AS c FROM tri GROUP BY t), "
    "doc AS (SELECT tri.doc_id, count(*) AS n_tri, "
    "CAST(sum(model.c) AS BIGINT) AS sum_cnt, "
    "count(DISTINCT tri.t) AS n_distinct "
    "FROM tri JOIN model ON tri.t = model.t GROUP BY tri.doc_id) "
    "SELECT doc_id, n_tri, sum_cnt, n_distinct, "
    "CAST(ntile(3) OVER (ORDER BY CAST(sum_cnt AS DOUBLE)/n_tri DESC, "
    "doc_id) AS BIGINT) AS bucket FROM doc")

# token-budget mixture: the oracle recomputes per-source token totals
# and replays the keep inequality h * ts < B * 2^32 directly in HUGEINT
# (the engine compares h against a per-source bigint threshold instead —
# see q_token_budget_mixture)
ORACLE_SQL["q_token_budget_mixture"] = (
    "WITH tk AS (SELECT doc_id, source, "
    "len(string_split(text, ' ')) AS n_tok FROM documents), "
    "s AS (SELECT source, CAST(sum(n_tok) AS HUGEINT) AS ts "
    "FROM tk GROUP BY source) "
    "SELECT tk.doc_id, tk.source, tk.n_tok "
    "FROM tk JOIN s ON tk.source = s.source "
    "WHERE ((tk.doc_id % 4294967296) * 2654435761::HUGEINT "
    "% 4294967296) * s.ts "
    f"< {_TBM_BUDGET} * 4294967296::HUGEINT")

# curation v2: the budget keep-inequality feeding the paragraph window
# chain over the kept subcorpus (see q_curation_v2)
ORACLE_SQL["q_curation_v2"] = (
    "WITH tk AS (SELECT doc_id, source, "
    "len(string_split(text, ' ')) AS n_tok FROM documents), "
    "sb AS (SELECT source, CAST(sum(n_tok) AS HUGEINT) AS ts "
    "FROM tk GROUP BY source), "
    "kept AS (SELECT tk.doc_id FROM tk JOIN sb "
    "ON tk.source = sb.source "
    "WHERE ((tk.doc_id % 4294967296) * 2654435761::HUGEINT "
    f"% 4294967296) * sb.ts < {_TBM_BUDGET} * 4294967296::HUGEINT), "
    "kd AS (SELECT d.doc_id, d.text FROM documents d "
    "JOIN kept USING (doc_id)), "
    "s2 AS (SELECT doc_id, string_split(text, chr(10)) AS ps FROM kd), "
    "p2 AS (SELECT doc_id, unnest(ps) AS para, "
    "generate_subscripts(ps, 1) AS idx FROM s2), "
    "w2 AS (SELECT doc_id, para, idx, row_number() OVER "
    "(PARTITION BY para ORDER BY doc_id, idx) AS rn FROM p2) "
    "SELECT doc_id, coalesce(string_agg(CASE WHEN rn = 1 THEN para END, "
    "chr(10) ORDER BY idx), '') AS text, "
    "count(*) FILTER (WHERE rn = 1) AS n_kept, "
    "count(*) FILTER (WHERE rn > 1) AS n_removed "
    "FROM w2 GROUP BY doc_id")

# DSIR importance stats: both unigram models retrained in SQL (word
# instance counts over target docs / all docs), every doc scored by
# LEFT-joining its tokens to the target model and inner-joining to the
# raw one, with the same integer sums + double ratio (see q_dsir_weights)
ORACLE_SQL["q_dsir_weights"] = (
    "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w "
    "FROM documents), "
    "tgt AS (SELECT w, count(*) AS c FROM tok WHERE doc_id IN "
    "(SELECT doc_id FROM documents WHERE source IN "
    f"{_DSIR_TARGET!r}) GROUP BY w), "
    "raw AS (SELECT w, count(*) AS c FROM tok GROUP BY w), "
    "d AS (SELECT tok.doc_id, count(*) AS n_tok, "
    "CAST(sum(coalesce(tgt.c, 0)) AS BIGINT) AS sum_tgt, "
    "CAST(sum(raw.c) AS BIGINT) AS sum_raw "
    "FROM tok LEFT JOIN tgt ON tok.w = tgt.w "
    "JOIN raw ON tok.w = raw.w GROUP BY tok.doc_id) "
    "SELECT doc_id, n_tok, sum_tgt, sum_raw, "
    "CAST(sum_tgt AS DOUBLE) / sum_raw AS w FROM d")

# PPJoin exact set-similarity self-join: the oracle avoids the n^2
# cross join by equijoining the unnested shingle sets (only pairs
# sharing >= 1 shingle can pass any positive threshold), counting the
# intersection, and filtering on the same integer-ratio double the
# engine's verify kernel computes (see q_ppjoin_pairs)
_PPJ_PAIRS_CTES = (
    "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "sh AS (SELECT doc_id, list_distinct(list_transform("
    "range(1, len(ws) - 3), i -> array_to_string(ws[i:i+4], ' '))) AS s "
    "FROM d WHERE len(ws) >= 5), "
    "t AS (SELECT doc_id, len(s) AS n, unnest(s) AS g FROM sh), "
    "i AS (SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS ix, "
    "any_value(a.n) AS na, any_value(b.n) AS nb "
    "FROM t a JOIN t b ON a.g = b.g AND a.doc_id < b.doc_id "
    "GROUP BY 1, 2)")
ORACLE_SQL["q_ppjoin_pairs"] = (
    _PPJ_PAIRS_CTES +
    " SELECT a, b, CAST(ix AS DOUBLE) / (na + nb - ix) AS jaccard "
    f"FROM i WHERE CAST(ix AS DOUBLE) / (na + nb - ix) >= {_PPJ_T}")

# semantic-dedup clusters: the same recursive walk over the exact
# cosine threshold-join pair set
ORACLE_SQL["q_embedding_dedup_clusters"] = (
    "WITH RECURSIVE p AS (SELECT a.vec_id AS a, b.vec_id AS b "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    "AND list_cosine_similarity(a.embedding, b.embedding) "
    f">= {_ENDUP_THRESHOLD}), "
    "ed AS (SELECT a AS u, b AS v FROM p "
    "UNION ALL SELECT b AS u, a AS v FROM p), "
    "walk(u, lbl) AS ("
    "SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM ed) "
    "UNION "
    "SELECT ed.u, w.lbl FROM ed JOIN walk w ON w.u = ed.v) "
    "SELECT CAST(u AS BIGINT) AS vec_id, "
    "CAST(MIN(lbl) AS BIGINT) AS cluster_id FROM walk GROUP BY u")

# LSH candidate recall vs exact ground truth: both chains spliced into
# one statement — the full LSH replay (documents -> sigs -> bands ->
# buckets -> verify) plus the ppjoin equijoin with its `d` CTE renamed
# to dodge the LSH chain's own `d` (the only name collision)
import re as _re

_PPJ_RENAMED_CTES = _re.sub(r"\bd\b", "pjd", _PPJ_PAIRS_CTES)
_RECALL_THETA = MPLSHConfig().verify_theta
ORACLE_SQL["q_lsh_recall"] = (
    _LSH_PAIRS_CTES + ", " + _PPJ_RENAMED_CTES[len("WITH "):] + ", "
    "tp AS (SELECT a, b FROM i "
    f"WHERE CAST(ix AS DOUBLE) / (na + nb - ix) >= {_RECALL_THETA}), "
    f"fp AS (SELECT a, b FROM vs WHERE jaccard >= {_RECALL_THETA}), "
    "hit AS (SELECT count(*) AS c FROM tp JOIN fp USING (a, b)) "
    "SELECT (SELECT count(*) FROM tp) AS n_true, "
    "(SELECT count(*) FROM fp) AS n_found, "
    "(SELECT c FROM hit) AS n_hit, "
    "CASE WHEN (SELECT count(*) FROM tp) > 0 THEN "
    "CAST((SELECT c FROM hit) AS DOUBLE) / (SELECT count(*) FROM tp) "
    "END AS recall")

# exact-complete clusters: recursive label propagation (the
# q_lsh_clusters walk) over the ppjoin pair set
ORACLE_SQL["q_ppjoin_clusters"] = (
    "WITH RECURSIVE " + _PPJ_PAIRS_CTES[len("WITH "):] + ", "
    "vp AS (SELECT a, b FROM i "
    f"WHERE CAST(ix AS DOUBLE) / (na + nb - ix) >= {_PPJ_T}), "
    "ed AS (SELECT a AS u, b AS v FROM vp "
    "UNION ALL SELECT b AS u, a AS v FROM vp), "
    "walk(u, lbl) AS ("
    "SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM ed) "
    "UNION "
    "SELECT ed.u, w.lbl FROM ed JOIN walk w ON w.u = ed.v) "
    "SELECT CAST(u AS BIGINT) AS doc_id, "
    "CAST(MIN(lbl) AS BIGINT) AS cluster_id FROM walk GROUP BY u")

# MassiveText paragraph dedup: unnest the newline split with ordinals,
# rank every instance globally per paragraph text (ROW_NUMBER over
# (doc_id, idx) = the engine's lexicographic-min winner), re-join the
# rn=1 survivors in position order (see paragraph_dedup)
ORACLE_SQL["q_paragraph_dedup"] = (
    "WITH s AS (SELECT doc_id, string_split(text, chr(10)) AS ps "
    "FROM documents), "
    "p AS (SELECT doc_id, unnest(ps) AS para, "
    "generate_subscripts(ps, 1) AS idx FROM s), "
    "w AS (SELECT doc_id, para, idx, row_number() OVER "
    "(PARTITION BY para ORDER BY doc_id, idx) AS rn FROM p) "
    "SELECT doc_id, coalesce(string_agg(CASE WHEN rn = 1 THEN para END, "
    "chr(10) ORDER BY idx), '') AS text, "
    "count(*) FILTER (WHERE rn = 1) AS n_kept, "
    "count(*) FILTER (WHERE rn > 1) AS n_removed "
    "FROM w GROUP BY doc_id")

# composed oracle: canonical-url dedup replays the q_canonical_urls CTE
ORACLE_SQL["q_url_dedup"] = (
    "WITH c AS (" + ORACLE_SQL["q_canonical_urls"] + ") "
    "SELECT curl, MIN(doc_id) AS doc_id, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs FROM c GROUP BY curl")

# generated oracle: the full multi-probe-LSH replay (hyperplane literals)
ORACLE_SQL["q_knn_lsh"] = _knn_lsh_sql()

# PII scrub: derive the same PII-bearing text, replay the same RE2
# patterns with regexp_replace/regexp_extract_all (counts on the
# pre-scrub text; replacements email -> phone -> ip, as in the engine)
ORACLE_SQL["q_pii_scrub"] = (
    "WITH t2 AS (SELECT doc_id, text || ' contact user' || "
    "CAST(doc_id AS VARCHAR) || '@' || source || '.com call +1-555-' || "
    "lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || ' from 10.0.' || "
    "CAST(doc_id % 256 AS VARCHAR) || '.' || "
    "CAST((doc_id // 256) % 256 AS VARCHAR) AS text2 FROM documents) "
    "SELECT doc_id, "
    f"regexp_replace(regexp_replace(regexp_replace(text2, "
    f"'{_PII_EMAIL_RE}', '<EMAIL>', 'g'), "
    f"'{_PII_PHONE_RE}', '<PHONE>', 'g'), "
    f"'{_PII_IP_RE}', '<IP>', 'g') AS clean_text, "
    f"CAST(len(regexp_extract_all(text2, '{_PII_EMAIL_RE}')) AS BIGINT) "
    "AS n_emails, "
    f"CAST(len(regexp_extract_all(text2, '{_PII_PHONE_RE}')) AS BIGINT) "
    "AS n_phones, "
    f"CAST(len(regexp_extract_all(text2, '{_PII_IP_RE}')) AS BIGINT) "
    "AS n_ips FROM t2")

# token chunking: same starts (0, S, 2S, ... < n) over the same 1-based
# word array; DuckDB list slices clamp at the end like the engine's min()
ORACLE_SQL["q_chunk_tokens"] = (
    "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "c AS (SELECT doc_id, ws, unnest(range(0, len(ws), 24)) AS start "
    "FROM d) "
    "SELECT doc_id, CAST(start // 24 AS BIGINT) AS chunk_idx, "
    "CAST(least(start + 32, len(ws)) - start AS BIGINT) AS n_tokens, "
    "array_to_string(ws[start + 1 : start + 32], ' ') AS chunk_text "
    "FROM c")

# contamination overlap: distinct 8-grams per doc as STRINGS (the engine
# uses 64-bit hashes; equal sets absent collisions — the q_crossdoc
# regime), benchmark = docs with doc_id % 37 == 0
ORACLE_SQL["q_contam_overlap"] = (
    "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "g AS (SELECT doc_id, unnest(list_transform(range(1, len(ws) - 6), "
    "p -> array_to_string(ws[p : p + 7], ' '))) AS gram "
    "FROM d WHERE len(ws) >= 8), "
    "dg AS (SELECT DISTINCT doc_id, gram FROM g), "
    "b AS (SELECT DISTINCT gram FROM dg WHERE doc_id % 37 = 0) "
    "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams, "
    "CAST(SUM(CASE WHEN b.gram IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) "
    "AS n_contaminated, "
    "CAST(SUM(CASE WHEN b.gram IS NOT NULL THEN 1 ELSE 0 END) AS DOUBLE) "
    "/ COUNT(*) AS contam_frac "
    "FROM dg LEFT JOIN b USING (gram) GROUP BY doc_id")

# soft dedup: group size + 1/n over the q_normalized_dedup normalization
ORACLE_SQL["q_soft_dedup_weights"] = (
    "WITH n AS (SELECT doc_id, "
    "lower(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g')) AS nt "
    "FROM documents) "
    "SELECT doc_id, "
    "CAST(COUNT(*) OVER (PARTITION BY nt) AS BIGINT) AS n_copies, "
    "1.0 / COUNT(*) OVER (PARTITION BY nt) AS weight FROM n")

# split tagging: the q_sample HUGEINT multiplicative-hash replay, mod 100
ORACLE_SQL["q_train_split"] = (
    "SELECT doc_id, lang, CASE WHEN h < 98 THEN 'train' "
    "WHEN h = 98 THEN 'valid' ELSE 'test' END AS split FROM ("
    "SELECT doc_id, lang, ((doc_id % 4294967296) * 2654435761::HUGEINT) "
    "// 4294967296 % 100 AS h FROM documents)")

# boilerplate lines: kill EVERY instance of a line present in >= 2
# distinct docs (vs q_paragraph_dedup's first-wins row_number)
ORACLE_SQL["q_boilerplate_lines"] = (
    "WITH s AS (SELECT doc_id, string_split(text, chr(10)) AS ps "
    "FROM documents), "
    "p AS (SELECT doc_id, unnest(ps) AS para, "
    "generate_subscripts(ps, 1) AS idx FROM s), "
    "c AS (SELECT para FROM p GROUP BY para "
    "HAVING COUNT(DISTINCT doc_id) >= 2) "
    "SELECT doc_id, coalesce(string_agg("
    "CASE WHEN c.para IS NULL THEN p.para END, chr(10) ORDER BY idx), "
    "'') AS text, "
    "count(*) FILTER (WHERE c.para IS NULL) AS n_kept, "
    "count(*) FILTER (WHERE c.para IS NOT NULL) AS n_removed "
    "FROM p LEFT JOIN c USING (para) GROUP BY doc_id")

# CDC chunking: per-token poly-hash -> boundary flags -> exclusive
# per-doc cumsum -> chunk reassembly -> instance counts per exact chunk
# text (codepoint-fold parity boundary, same as the SimHash replay)
ORACLE_SQL["q_cdc_chunks"] = (
    "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "w AS (SELECT doc_id, unnest(range(1, len(ws)+1)) AS wpos, "
    "unnest(ws) AS w FROM d), "
    "h0t AS (SELECT doc_id, wpos, w, "
    "list_reduce(list_prepend(CAST(0 AS HUGEINT), "
    "list_transform(range(1, length(w)+1), "
    "i -> CAST(unicode(w[i]) AS HUGEINT))), "
    f"(acc, c) -> {_HORNER_STEP}) AS h0 FROM w), "
    + _mix64_sql("h0t", "h0", "wh", "doc_id, wpos, w") + ", "
    "ck AS (SELECT doc_id, wpos, w, COALESCE(SUM(CASE WHEN "
    f"wh % {_CDC_MOD} = 0 THEN 1 ELSE 0 END) OVER (PARTITION BY doc_id "
    "ORDER BY wpos ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), "
    "0) AS cidx FROM m5_wh), "
    "ch AS (SELECT doc_id, cidx, "
    "string_agg(w, ' ' ORDER BY wpos) AS ctext, "
    "CAST(COUNT(*) AS BIGINT) AS n_tokens FROM ck "
    "GROUP BY doc_id, cidx) "
    "SELECT doc_id, CAST(cidx AS BIGINT) AS chunk_idx, n_tokens, "
    "CAST(COUNT(*) OVER (PARTITION BY ctext) AS BIGINT) AS n_copies "
    "FROM ch")

# OOV rate: top-K vocab by (count DESC, word ASC), per-doc LEFT-JOIN miss
# fraction as one CAST-to-DOUBLE divide
ORACLE_SQL["q_oov_rate"] = (
    "WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws "
    "FROM documents), "
    "w AS (SELECT doc_id, unnest(ws) AS w FROM d), "
    "cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM w GROUP BY w), "
    f"v AS (SELECT w FROM cnt ORDER BY c DESC, w LIMIT {_OOV_K}) "
    "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tok, "
    "CAST(COUNT(*) FILTER (WHERE v.w IS NULL) AS BIGINT) AS n_oov, "
    "CAST(COUNT(*) FILTER (WHERE v.w IS NULL) AS DOUBLE) / COUNT(*) "
    "AS oov_frac FROM w LEFT JOIN v USING (w) GROUP BY doc_id")

# curation v3: the boilerplate CTE spliced whole (nested WITH), then
# first-wins dedup on the scrubbed text and the q_train_split hash gate
ORACLE_SQL["q_curation_v3"] = (
    "WITH bl AS (" + ORACLE_SQL["q_boilerplate_lines"] + "), "
    "r AS (SELECT MIN(doc_id) AS doc_id, text FROM bl GROUP BY text) "
    "SELECT doc_id, text FROM r "
    "WHERE ((doc_id % 4294967296) * 2654435761::HUGEINT) "
    "// 4294967296 % 100 < 98")

# bloom-prefiltered exact dedup: output is exact regardless of the
# Bloom plan, so the oracle is the plain first-wins GROUP BY
ORACLE_SQL["q_bloom_dedup"] = (
    "SELECT MIN(doc_id) AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_copies, "
    "text FROM documents GROUP BY text")

# shard manifest: the knuth_hash32 HIGH-word replay (q_train_split's
# expression) mod 16, then plain grouped aggregates
ORACLE_SQL["q_shard_assign"] = (
    "SELECT CAST(((doc_id % 4294967296) * 2654435761::HUGEINT) "
    "// 4294967296 % 16 AS BIGINT) AS shard_id, "
    "CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(n_chars) AS BIGINT) AS n_chars_sum, "
    "MIN(doc_id) AS min_doc_id, MAX(doc_id) AS max_doc_id "
    "FROM documents GROUP BY 1")

# dup-token inflation: corpus-wide first copy via a window MIN over the
# exact text, token counts via the q_token_counts split expression
ORACLE_SQL["q_dup_inflation"] = (
    "WITH t AS (SELECT doc_id, source, "
    "array_length(string_split_regex(trim(text), '\\s+')) AS ntok, "
    "MIN(doc_id) OVER (PARTITION BY text) AS first_id FROM documents) "
    "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(ntok) AS BIGINT) AS n_tokens, "
    "CAST(SUM(CASE WHEN doc_id <> first_id THEN 1 ELSE 0 END) "
    "AS BIGINT) AS n_dup_docs, "
    "CAST(SUM(CASE WHEN doc_id <> first_id THEN ntok ELSE 0 END) "
    "AS BIGINT) AS dup_tokens, "
    "CASE WHEN SUM(ntok) > SUM(CASE WHEN doc_id <> first_id THEN ntok "
    "ELSE 0 END) THEN CAST(SUM(ntok) AS DOUBLE) / (SUM(ntok) - "
    "SUM(CASE WHEN doc_id <> first_id THEN ntok ELSE 0 END)) END "
    "AS inflation FROM t GROUP BY source")

# near-dup flow matrix: the full LSH chain replay spliced whole, then
# the documents table joined onto both pair endpoints
ORACLE_SQL["q_dup_flow_matrix"] = (
    "WITH v AS (" + _LSH_PAIRS_SQL + ") "
    "SELECT LEAST(da.source, db.source) AS source_a, "
    "GREATEST(da.source, db.source) AS source_b, "
    "CAST(COUNT(*) AS BIGINT) AS n_pairs FROM v "
    "JOIN documents da ON v.a = da.doc_id "
    "JOIN documents db ON v.b = db.doc_id GROUP BY 1, 2")

# tokens per dedup tier: the widest replay in the registry spliced
# whole, joined to the q_token_counts split expression
ORACLE_SQL["q_tier_token_report"] = (
    "WITH tr AS (" + _TIER_REPORT_SQL + ") "
    "SELECT tr.tier, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(array_length(string_split_regex(trim(d.text), '\\s+'))) "
    "AS BIGINT) AS n_tokens "
    "FROM tr JOIN documents d ON tr.doc_id = d.doc_id GROUP BY tr.tier")

# quality-priority canonical pick: the q_normalized_dedup normalization
# sliced to the q_prefix_dup_groups 40-char blocking key, with an
# argmax(alpha, -doc_id) survivor instead of min(doc_id)
ORACLE_SQL["q_best_of_dup_group"] = (
    "WITH n AS (SELECT doc_id, "
    "substr(lower(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g')), "
    "1, 40) AS norm, "
    "CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS BIGINT) "
    "AS alpha FROM documents), "
    "r AS (SELECT doc_id, alpha, "
    "ROW_NUMBER() OVER (PARTITION BY norm "
    "ORDER BY alpha DESC, doc_id) AS rn, "
    "CAST(COUNT(*) OVER (PARTITION BY norm) AS BIGINT) AS n_docs "
    "FROM n) "
    "SELECT doc_id AS keep, alpha AS alpha_chars, n_docs "
    "FROM r WHERE rn = 1")

# verified-pair similarity histogram: the full LSH chain replay spliced
# whole, grouped on the exact dyadic n/16 agreement level
ORACLE_SQL["q_jaccard_histogram"] = (
    "WITH v AS (" + _LSH_PAIRS_SQL + ") "
    "SELECT jaccard, CAST(COUNT(*) AS BIGINT) AS n_pairs "
    "FROM v GROUP BY jaccard")

# bag-of-words dedup: group on the lex-sorted word multiset (binary
# collation == numpy codepoint sort on the ASCII corpus)
ORACLE_SQL["q_bow_dedup"] = (
    "SELECT MIN(doc_id) AS rep, CAST(COUNT(*) AS BIGINT) AS n_docs "
    "FROM documents GROUP BY "
    "array_to_string(list_sort(string_split(text, ' ')), ' ')")

# directional copy matrix under quality-priority retention: the
# q_best_of_dup_group survivor's source -> each dropped doc's source
ORACLE_SQL["q_prefix_dup_flow"] = (
    "WITH n AS (SELECT doc_id, source, "
    "substr(lower(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g')), "
    "1, 40) AS pfx, "
    "length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS alpha "
    "FROM documents), "
    "r AS (SELECT doc_id, source, pfx, "
    "ROW_NUMBER() OVER (PARTITION BY pfx "
    "ORDER BY alpha DESC, doc_id) AS rn FROM n), "
    "w AS (SELECT pfx, source AS owner FROM r WHERE rn = 1) "
    "SELECT w.owner, r.source AS copier, "
    "CAST(COUNT(*) AS BIGINT) AS n_copies "
    "FROM r JOIN w ON r.pfx = w.pfx WHERE r.rn > 1 "
    "GROUP BY w.owner, r.source")

# held-out leakage audit: the q_train_split hash CASE + the
# q_normalized_dedup key, train counts LEFT-joined onto valid/test rows
ORACLE_SQL["q_split_leakage"] = (
    "WITH s AS (SELECT doc_id, "
    "((doc_id % 4294967296) * 2654435761::HUGEINT) // 4294967296 % 100 "
    "AS h, lower(regexp_replace(text, '[^a-zA-Z0-9 ]', '', 'g')) "
    "AS norm FROM documents), "
    "l AS (SELECT doc_id, CASE WHEN h < 98 THEN 'train' "
    "WHEN h = 98 THEN 'valid' ELSE 'test' END AS split, norm FROM s), "
    "t AS (SELECT norm, CAST(COUNT(*) AS BIGINT) AS n FROM l "
    "WHERE split = 'train' GROUP BY norm) "
    "SELECT l.doc_id, l.split, COALESCE(t.n, 0) AS n_train_copies "
    "FROM l LEFT JOIN t USING (norm) WHERE l.split != 'train'")

# language-ID confusion matrix: the shared argmax CASE grouped against
# the stored lang column
ORACLE_SQL["q_lang_confusion"] = (
    "WITH p AS (SELECT lang, " + _LANG_ID_CASE + " AS pred_lang "
    "FROM documents) "
    "SELECT lang, pred_lang, CAST(COUNT(*) AS BIGINT) AS n_docs "
    "FROM p GROUP BY lang, pred_lang")

# composed CCNet chain: the lang-agreement gate as a `kept` view, the
# whole q_lm_score replay spliced via nested WITH over it (it reads its
# source exactly once — asserted), keep terciles 1-2
assert ORACLE_SQL["q_lm_score"].count("FROM documents") == 1
ORACLE_SQL["q_ccnet_pipeline"] = (
    "WITH kept AS (SELECT doc_id, text FROM (SELECT doc_id, text, "
    "lang, " + _LANG_ID_CASE + " AS pred FROM documents) "
    "WHERE pred = lang) "
    "SELECT doc_id, bucket FROM ("
    + ORACLE_SQL["q_lm_score"].replace("FROM documents", "FROM kept", 1)
    + ") WHERE bucket <= 2")

# within-doc line dedup: first instance per (doc, line) via ROW_NUMBER,
# rejoined in original order
ORACLE_SQL["q_within_doc_line_dedup"] = (
    "WITH s AS (SELECT doc_id, string_split(text, chr(10)) AS ps "
    "FROM documents), "
    "p AS (SELECT doc_id, unnest(ps) AS line, "
    "generate_subscripts(ps, 1) AS idx FROM s), "
    "f AS (SELECT doc_id, line, idx, ROW_NUMBER() OVER "
    "(PARTITION BY doc_id, line ORDER BY idx) AS rn FROM p) "
    "SELECT doc_id, COALESCE(string_agg(line, chr(10) ORDER BY idx) "
    "FILTER (WHERE rn = 1), '') AS text FROM f GROUP BY doc_id")

# quality-priority retention on the near tier: the recursive cluster
# replay as a derived table, alpha joined on, argmax per cluster
ORACLE_SQL["q_best_of_near_cluster"] = (
    "WITH a AS (SELECT doc_id, "
    "CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS BIGINT) "
    "AS alpha FROM documents), "
    "r AS (SELECT c.cluster_id, c.doc_id, a.alpha, "
    "ROW_NUMBER() OVER (PARTITION BY c.cluster_id "
    "ORDER BY a.alpha DESC, c.doc_id) AS rn, "
    "CAST(COUNT(*) OVER (PARTITION BY c.cluster_id) AS BIGINT) "
    "AS n_docs FROM (" + _LSH_CLUSTERS_SQL + ") c "
    "JOIN a ON c.doc_id = a.doc_id) "
    "SELECT cluster_id, doc_id AS keep, alpha AS alpha_chars, n_docs "
    "FROM r WHERE rn = 1")

# skyline: textbook NOT-EXISTS dominance on (min n_tokens,
# max n_distinct); equal points are mutually non-dominating
ORACLE_SQL["q_skyline_docs"] = (
    "WITH s AS (SELECT doc_id, "
    "CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens, "
    "CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT) "
    "AS n_distinct FROM documents) "
    "SELECT p.doc_id, p.n_tokens, p.n_distinct FROM s p "
    "WHERE NOT EXISTS (SELECT 1 FROM s q "
    "WHERE q.n_tokens <= p.n_tokens AND q.n_distinct >= p.n_distinct "
    "AND (q.n_tokens < p.n_tokens OR q.n_distinct > p.n_distinct))")

# exact-k deterministic sample: bottom-k on the q_sample Weyl low word
# with the doc_id tie-break
ORACLE_SQL["q_reservoir_sample"] = (
    "SELECT doc_id, CAST((doc_id % 4294967296) * 2654435761::HUGEINT "
    "% 4294967296 AS BIGINT) AS h FROM documents "
    f"ORDER BY h, doc_id LIMIT {_RESERVOIR_K}")

# hapax rate: corpus word instance counts, one aggregate row (NULL
# n_hapax/rate on an empty vocabulary per SUM-over-zero-rows)
ORACLE_SQL["q_hapax_rate"] = (
    "WITH tf AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS tf FROM "
    "(SELECT unnest(string_split(text, ' ')) AS w FROM documents) "
    "GROUP BY w) "
    "SELECT CAST(COUNT(*) AS BIGINT) AS n_vocab, "
    "CAST(SUM(CASE WHEN tf = 1 THEN 1 ELSE 0 END) AS BIGINT) "
    "AS n_hapax, "
    "CAST(SUM(CASE WHEN tf = 1 THEN 1 ELSE 0 END) AS DOUBLE) "
    "/ COUNT(*) AS hapax_rate FROM tf")

# The driver signs correctness rows for only a prefix of this registry
# (50 entries per round), so oracle-bearing queries are ordered FIRST:
# every driver-signed row then carries the strong value-hash check, while
# rows-only entries (pytest-gated by contract) follow. Within the oracled
# block, queries already hash-signed in a past round (the frozen
# CORRECTNESS_r03/r04.json key sets below) rotate to the BACK so each
# round's 50-slot window signs the oracle-bearing queries that have never
# carried a driver signature (VERDICT r4 "Next round" #1: the 17 queries
# added after the r4 prefix was consumed — the TPC-H Q4-Q22 wave,
# q_gopher_quality, q_dedup_tiers, q_dedup_tier_report, q_pack_sequences,
# q_remove_dup_ngrams — plus anything new this round). Never-signed come
# first, then the r3 set (least recently re-signed), then the r4 set.
_SIGNED_R3 = frozenset([
    'q_exact_dedup', 'q_lang_counts', 'q_len_filter', 'q_top_sources',
    'q_distinct_langs', 'q_events_daily', 'q_events_props',
    'q_join_ord_cust', 'q_token_counts', 'q_quality_scores',
    'q_word_stats', 'q_doc_freq', 'q_allpair_jaccard',
    'q_allpair_containment', 'q_knn_bruteforce', 'q_embedding_near_dup',
    'q_lang_id', 'q_simhash_pairs', 'q_ngram_jaccard',
    'q_bpe_token_counts', 'q_lineitem_agg', 'q_region_nation',
    'q_events_sliding', 'q_asof_event_order', 'q_range_join_events',
    'q_sample', 'q_quantiles', 'q_top_docs_per_lang',
    'q_stratified_sample', 'q_kmv_distinct', 'q_heavy_hitters',
    'q_heavy_hitters_exact', 'q_kmv_doc_ids', 'q_decontaminate',
    'q_top_terms', 'q_bigram_counts', 'q_repetition_scores',
    'q_sessionize', 'q_semi_join_customers', 'q_anti_join_customers',
    'q_grouped_quantiles', 'q_pivot_events', 'q_user_gaps',
    'q_cumulative_daily', 'q_crossdoc_ngrams', 'q_mixture_sample',
    'q_prefix_dup_groups', 'q_rollup_lang_source', 'q_distinct_users',
    'q_left_join_counts'])
_SIGNED_R4 = frozenset([
    'q_band_keys', 'q_canonical_urls', 'q_click_heavy_users',
    'q_cohort_retention', 'q_corr_len_tokens', 'q_cube_lang_source',
    'q_curation_e2e', 'q_dup_cluster_sizes', 'q_dup_rate_by_source',
    'q_edit_distance_dups', 'q_event_transitions', 'q_events_distinct',
    'q_events_hourly', 'q_fingerprints', 'q_first_event_per_user',
    'q_full_outer_cust_supp', 'q_funnel_view_purchase',
    'q_global_rank_len', 'q_grouped_quantiles_cont', 'q_lang_sources_agg',
    'q_late_shipments', 'q_len_histogram', 'q_lsh_clusters',
    'q_lsh_verified_pairs', 'q_mad_len', 'q_minhash_sigs',
    'q_mode_event_type', 'q_moving_sum_daily', 'q_moving_sum_range',
    'q_normalized_dedup', 'q_ntile_doc_len', 'q_parts_by_brand',
    'q_pattern_counts', 'q_percent_rank_len', 'q_profile_events',
    'q_promo_revenue', 'q_quantiles_cont', 'q_regression_len_tokens',
    'q_shingle_stats', 'q_substring_candidates', 'q_top_parts_revenue',
    'q_tpch_q10', 'q_tpch_q3', 'q_tpch_q5', 'q_unpivot_event_metrics',
    'q_url_dedup', 'q_user_activity_histogram',
    'q_user_days_purchase_and_error', 'q_user_days_purchase_no_error',
    'q_weighted_sample'])
_SIGNED = _SIGNED_R3 | _SIGNED_R4
QUERIES = {
    **{k: v for k, v in QUERIES.items()
       if k in ORACLE_SQL and k not in _SIGNED},
    **{k: v for k, v in QUERIES.items()
       if k in ORACLE_SQL and k in _SIGNED_R3},
    **{k: v for k, v in QUERIES.items()
       if k in ORACLE_SQL and k in _SIGNED_R4},
    **{k: v for k, v in QUERIES.items() if k not in ORACLE_SQL},
}
