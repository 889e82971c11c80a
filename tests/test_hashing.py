"""Unit tests for the hash kernels (SURVEY.md §5 item 4)."""

import numpy as np
import pytest

from ray_data_mplsh.functions.hashing import (
    combine_rows, hash_bytes_u64, hash_str_array, make_perm_params,
    minhash_signatures, mix64, rolling_shingle_hashes, winnow_fingerprints,
)


def test_mix64_bijective_and_deterministic():
    x = np.arange(1000, dtype=np.uint64)
    y = mix64(x)
    assert len(np.unique(y)) == 1000          # injective on the sample
    assert np.array_equal(y, mix64(x))        # deterministic


def test_hash_str_array_stable_and_typed():
    h1 = hash_str_array(["a", "b", "a"])
    assert h1.dtype == np.uint64
    assert h1[0] == h1[2] and h1[0] != h1[1]
    assert np.array_equal(h1, hash_str_array(["a", "b", "a"]))
    assert hash_bytes_u64(b"x") == hash_bytes_u64(b"x")


def test_combine_rows_order_sensitive():
    m = np.array([[1, 2, 3], [3, 2, 1]], dtype=np.uint64)
    h = combine_rows(m)
    assert h[0] != h[1]
    # prefix namespaces
    assert combine_rows(m, prefix=np.uint64(1))[0] != h[0]


def test_rolling_shingles_respect_doc_boundaries():
    # two docs of 4 words each, k=3 -> 2 shingles per doc, none straddling
    wh = hash_str_array(list("abcdwxyz"))
    offs = np.array([0, 4, 8], dtype=np.int64)
    sh, soffs = rolling_shingle_hashes(wh, offs, 3)
    assert list(soffs) == [0, 2, 4]
    # same shingles computed doc-by-doc
    sh_a, _ = rolling_shingle_hashes(wh[:4], np.array([0, 4]), 3)
    sh_b, _ = rolling_shingle_hashes(wh[4:], np.array([0, 4]), 3)
    assert np.array_equal(sh, np.concatenate([sh_a, sh_b]))


def test_rolling_shingles_short_docs_contribute_nothing():
    wh = hash_str_array(list("abcdef"))
    offs = np.array([0, 2, 6], dtype=np.int64)  # doc0 has 2 words < k=3
    sh, soffs = rolling_shingle_hashes(wh, offs, 3)
    assert list(soffs) == [0, 0, 2]  # doc0: 2 words < k; doc1: 4 words -> 2


def test_minhash_matches_bruteforce():
    a, b = make_perm_params(8, seed=1)
    sh = hash_str_array([f"s{i}" for i in range(20)])
    offs = np.array([0, 12, 20], dtype=np.int64)
    sig = minhash_signatures(sh, offs, a, b)
    for j in range(8):
        vals = sh * a[j] + b[j]  # multiply-shift family, mod 2^64
        assert sig[0, j] == vals[:12].min()
        assert sig[1, j] == vals[12:].min()


def test_minhash_estimates_jaccard():
    """MinHash estimator vs true Jaccard, |err| bounded (Chernoff at K=256)."""
    rng = np.random.Generator(np.random.PCG64(3))
    a, b = make_perm_params(256, seed=2)
    base = rng.integers(0, 1 << 63, 1000, dtype=np.uint64)
    for frac in (0.5, 0.8, 0.95):
        keep = int(1000 * frac)
        other = np.concatenate([base[:keep],
                                rng.integers(0, 1 << 63, 1000 - keep,
                                             dtype=np.uint64)])
        sh = np.concatenate([base, other])
        offs = np.array([0, 1000, 2000], dtype=np.int64)
        sig = minhash_signatures(sh, offs, a, b)
        est = float(np.mean(sig[0] == sig[1]))
        true_j = keep / (2000 - keep)
        assert abs(est - true_j) < 0.09, (frac, est, true_j)


def test_minhash_empty_doc_gets_sentinel_sig():
    a, b = make_perm_params(4, seed=1)
    sig = minhash_signatures(np.empty(0, np.uint64),
                             np.array([0, 0], dtype=np.int64), a, b)
    assert (sig == np.iinfo(np.uint64).max).all()


def test_winnowing_guarantee():
    """Any shared substring of length >= k + w - 1 yields a shared selected
    fingerprint (Schleimer et al. 2003, the winnowing correctness property)."""
    rng = np.random.Generator(np.random.PCG64(5))
    alpha = "abcdefgh"
    mk = lambda n: "".join(rng.choice(list(alpha)) for _ in range(n))
    shared = mk(60)  # >= 40 + 11 - 1 = 50
    a = mk(300) + shared + mk(200)
    b = mk(250) + shared + mk(150)
    fa, _ = winnow_fingerprints(a, 40, 11)
    fb, _ = winnow_fingerprints(b, 40, 11)
    assert set(fa.tolist()) & set(fb.tolist())


def test_winnowing_positions_sorted_unique():
    f, p = winnow_fingerprints("abcdef" * 50, 5, 4)
    assert (np.diff(p) > 0).all()


# --- O(n) kernel rewrites: bit-equality vs the reference formulations ------

def test_poly_window_hashes_equals_horner():
    from ray_data_mplsh.functions.hashing import _POLY_P, poly_window_hashes

    rng = np.random.Generator(np.random.PCG64(11))
    for n, k in [(5, 5), (60, 30), (500, 50), (10000, 30), (257, 9)]:
        b = rng.integers(0, 256, n).astype(np.uint64)
        m = n - k + 1
        acc = np.zeros(m, np.uint64)
        for j in range(k):
            acc = acc * _POLY_P + b[j:m + j]
        assert np.array_equal(poly_window_hashes(b, k), acc), (n, k)


def test_rightmost_window_argmin_equals_sliding_view():
    from ray_data_mplsh.functions.hashing import rightmost_window_argmin

    rng = np.random.Generator(np.random.PCG64(12))
    for n, w in [(21, 21), (40, 21), (500, 21), (1000, 7), (64, 8),
                 (100, 1), (37, 5)]:
        # small alphabet -> plenty of ties to exercise the tie rule
        g = rng.integers(0, 4, n).astype(np.uint64)
        got = rightmost_window_argmin(g, w)
        win = np.lib.stride_tricks.sliding_window_view(g, w)
        rev = np.argmin(win[:, ::-1], axis=1)
        want = np.arange(n - w + 1, dtype=np.int64) + (w - 1 - rev)
        assert np.array_equal(got, want), (n, w)


def test_winnow_batch_equals_per_doc():
    """winnow_fingerprints_batch over a concatenated corpus is bit-equal,
    per doc, to np.unique(winnow_fingerprints(text)[0]) — including docs
    shorter than k (no fps), docs with fewer than w grams (single leftmost
    argmin), boundary-adjacent docs, and heavy hash ties."""
    from ray_data_mplsh.functions.hashing import winnow_fingerprints_batch

    rng = np.random.Generator(np.random.PCG64(21))
    alpha = list("abcd")        # tiny alphabet -> gram-hash ties abound
    for trial in range(20):
        k, w = [(5, 4), (8, 3), (12, 21), (30, 21)][trial % 4]
        n_docs = int(rng.integers(1, 25))
        texts = []
        for _ in range(n_docs):
            n = int(rng.integers(0, 120))
            texts.append("".join(rng.choice(alpha) for _ in range(n)))
        # batch path
        import pyarrow as pa

        from ray_data_mplsh.functions.hashing import utf8_flat
        offs, data = utf8_flat(pa.array(texts, pa.string()))
        fp, di = winnow_fingerprints_batch(offs, data, k, w)
        # per-doc reference
        want_fp, want_di = [], []
        for i, t in enumerate(texts):
            f, _ = winnow_fingerprints(t, k, w)
            f = np.unique(f)
            want_fp.append(f)
            want_di.append(np.full(len(f), i, np.int64))
        wf = np.concatenate(want_fp) if want_fp else np.empty(0, np.uint64)
        wd = np.concatenate(want_di) if want_di else np.empty(0, np.int64)
        assert np.array_equal(di, wd), (trial, k, w)
        assert np.array_equal(fp, wf), (trial, k, w)


def test_winnow_batch_empty_and_unicode():
    import pyarrow as pa

    from ray_data_mplsh.functions.hashing import (
        utf8_flat, winnow_fingerprints_batch,
    )

    offs, data = utf8_flat(pa.array([], pa.string()))
    fp, di = winnow_fingerprints_batch(offs, data, 5, 4)
    assert len(fp) == 0 and len(di) == 0
    # multi-byte utf-8: byte-level grams must match per-doc encode path
    texts = ["héllo wörld çafé crème brûlée" * 3, "日本語のテキスト" * 5]
    offs, data = utf8_flat(pa.array(texts, pa.string()))
    fp, di = winnow_fingerprints_batch(offs, data, 5, 4)
    for i, t in enumerate(texts):
        f = np.unique(winnow_fingerprints(t, 5, 4)[0])
        assert np.array_equal(fp[di == i], f)


def test_utf8_flat_offset_widths():
    """large_string (int64 offsets) and sliced arrays must decode to the
    same (offsets, bytes) as the plain string (int32 offsets) path — an
    int32 read of an int64 buffer returns garbage with no error."""
    import pyarrow as pa

    from ray_data_mplsh.functions.hashing import utf8_flat

    texts = ["ab", "c", "", "défg", "hij" * 40]
    want_off, want_data = utf8_flat(pa.array(texts, pa.string()))
    for typ in (pa.large_string(), pa.string()):
        off, data = utf8_flat(pa.array(texts, typ))
        assert np.array_equal(off, want_off), typ
        assert np.array_equal(data, want_data), typ
        # sliced array: non-zero col.offset path
        off, data = utf8_flat(pa.array(texts, typ).slice(1, 3))
        woff, wdata = utf8_flat(pa.array(texts[1:4], pa.string()))
        assert np.array_equal(off, woff), typ
        assert np.array_equal(data, wdata), typ
    # binary flavors route through the same branches
    boff, bdata = utf8_flat(pa.array([t.encode() for t in texts],
                                     pa.large_binary()))
    assert np.array_equal(boff, want_off)
    assert np.array_equal(bdata, want_data)


def test_poly_str_hashes_long_token_tail_matches_scalar():
    """The _POLY_TOKEN_CAP split (masked passes up to the cap, per-token
    power fold beyond) must equal the plain scalar Horner fold for any
    mix of short and very long tokens — including multi-byte UTF-8."""
    from ray_data_mplsh.functions.hashing import (_POLY_P, mix64,
                                                  poly_str_hashes)

    rng = np.random.Generator(np.random.PCG64(17))
    toks = ["", "a", "hello", "x" * 63, "y" * 64, "z" * 65,
            "q" * 300, "café" * 40,
            "".join(chr(rng.integers(33, 600)) for _ in range(257))]

    def scalar(s: str) -> int:
        acc = 0
        for b in s.encode("utf-8"):
            acc = (acc * int(_POLY_P) + b) % 2**64
        return int(mix64(np.array([acc], dtype=np.uint64))[0])

    got = poly_str_hashes(toks)
    assert [int(x) for x in got] == [scalar(t) for t in toks]


def test_poly_str_hashes_ascii_codepoint_parity_boundary():
    """Pins the _SIMHASH_SQL oracle precondition (queries.py): the SQL
    folds CODEPOINTS while the engine folds UTF-8 BYTES — equal on pure
    ASCII, DIVERGENT on any multi-byte char. If this test ever fails on
    the divergence half, the SQL replay must be revisited."""
    from ray_data_mplsh.functions.hashing import (_POLY_P, mix64,
                                                  poly_str_hashes)

    def codepoint_fold(s: str) -> int:
        acc = 0
        for ch in s:
            acc = (acc * int(_POLY_P) + ord(ch)) % 2**64
        return int(mix64(np.array([acc], dtype=np.uint64))[0])

    ascii_toks = ["hello", "world", "abc123"]
    got = poly_str_hashes(ascii_toks)
    assert [int(x) for x in got] == [codepoint_fold(t) for t in ascii_toks]
    # the boundary: one multi-byte char breaks codepoint parity
    assert int(poly_str_hashes(["café"])[0]) != codepoint_fold("café")


def test_winnow_anchors_match_per_doc_positions(monkeypatch):
    """The S9 anchor kernel selects, per doc, exactly the (fp, position)
    pairs of winnow_fingerprints(text) — batch-concatenated, across the
    2 MB chunking, with docs under k bytes and under w grams."""
    import pyarrow as pa

    from ray_data_mplsh.functions import hashing as H

    rng = np.random.Generator(np.random.PCG64(33))
    alpha = list("abcdé日")
    for trial, (k, w) in enumerate([(5, 4), (8, 3), (30, 21), (1, 1)] * 3):
        texts = ["".join(rng.choice(alpha)
                         for _ in range(int(rng.integers(0, 150))))
                 for _ in range(int(rng.integers(1, 30)))]
        if trial >= 8:
            texts.append("a" * 200)       # one long tie run
        offs, data = H.utf8_flat(pa.array(texts, pa.string()))
        fp, pos, di = H.winnow_anchors_batch(offs, data, k, w)
        assert np.all(np.diff(di) >= 0)
        for i, t in enumerate(texts):
            wf, wp = H.winnow_fingerprints(t, k, w)
            o = np.argsort(pos[di == i], kind="stable")
            assert np.array_equal(pos[di == i][o], wp), (trial, i)
            assert np.array_equal(fp[di == i][o], wf), (trial, i)
    # chunked == one flat pass
    big = ["".join(rng.choice(alpha) for _ in range(3000))
           for _ in range(40)]
    offs, data = H.utf8_flat(pa.array(big, pa.string()))
    flat = H.winnow_anchors_batch(offs, data, 30, 21)
    monkeypatch.setattr(H, "_WINNOW_CHUNK_BYTES", 10_000)
    chunked = H.winnow_anchors_batch(offs, data, 30, 21)
    for x, y in zip(chunked, flat):
        assert np.array_equal(x, y)
