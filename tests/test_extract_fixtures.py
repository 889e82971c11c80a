"""Byte-identical extraction + fixture-generator tests (SURVEY.md §5 items 2-3)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from ray_data_mplsh.fixtures import (
    Plan, gen_gt_tables, gen_pages_batch, gen_pages_table,
)
from ray_data_mplsh.functions.extract import (
    extract_html, tokenize_batch, word_hashes,
)
from ray_data_mplsh.functions.hashing import hash_str_array, poly_str_hashes


def test_extract_strips_script_style_comments_entities():
    html = (b"<html><head><script>var x='<p>junk</p>';</script>"
            b"<style>.a{color:red}</style></head>"
            b"<body><!-- hidden --><p>Hello &amp; goodbye &lt;world&gt;"
            b"  \t\n more</p></body></html>")
    assert extract_html(html) == "Hello & goodbye <world> more"


def test_extract_is_deterministic_and_idempotent_on_plain_text():
    assert extract_html(b"plain  text   here") == "plain text here"
    assert extract_html(b"") == ""


def test_fixture_extraction_byte_identical(small_fixture):
    """The per-url invariant (BASELINE.json:6): extract(html) == text for
    EVERY fixture page, byte for byte."""
    pages = pq.read_table(f"{small_fixture}/pages.parquet")
    for url, html, text in zip(pages["url"].to_pylist(),
                               pages["html"].to_pylist(),
                               pages["text"].to_pylist()):
        assert extract_html(html) == text, url


def test_fixture_deterministic_across_batchings():
    """Row i's bytes are identical whether generated alone or in bulk —
    the property that makes distributed generation and resume safe."""
    full = gen_pages_table(60, seed=7)
    for i in (0, 13, 37, 59):
        row = gen_pages_batch(np.array([i]), 60, 7)
        assert row.equals(full.slice(i, 1))


def test_fixture_plants_expected_structure():
    pairs, clusters = gen_gt_tables(300, seed=7)
    kinds = set(pairs["kind"].to_pylist())
    assert kinds == {"exact", "near_high", "near_band", "substring"}
    jj = np.array(pairs["true_jaccard"].to_pylist())
    kk = np.array(pairs["kind"].to_pylist())
    assert (jj[kk == "exact"] == 1.0).all()
    assert (jj[kk == "near_high"] >= 0.75).all()
    assert ((jj[kk == "near_band"] >= 0.6) & (jj[kk == "near_band"] <= 0.9)).all()
    assert (jj[kk == "substring"] < 0.5).all()
    # hot bases: several exact dups point at the same base
    plan = Plan(300)
    hot = [plan.base_of(i, 7) for i in range(plan.o_exact, plan.o_high)]
    counts = np.unique(hot, return_counts=True)[1]
    assert counts.max() >= 3


def test_tokenize_batch_normalizes():
    flat, offs = tokenize_batch(["Hello, World!", "a<b R&D"])
    assert list(offs) == [0, 2, 6]
    assert list(flat) == ["hello", "world", "a", "b", "r", "d"]


# characters whose casefold, \w or whitespace class trips a naive ASCII
# tokenizer: multi-char casefolds (ß, ﬁ, İ), final sigma, a \w digit that
# is not [0-9] (²), Unicode-only whitespace (\xa0, \u2028) and the ASCII
# control whitespace str.split() honours (\x0b, \x1c-\x1f)
_ASCII_ALPHA = list("aZz09_ .,;-'\t\n\r\x0b\x0c\x00\x1c\x1d\x1e\x1f") + \
    ["Word", "ABC", "x_y", "  "]
_WIDE_ALPHA = ["Straße", "ς", "ﬁ", "İ", "²", "\xa0", "\u2028", "é", "日本",
               "\u0307", "K", "ΣΑΣ"]


def _fuzz_texts(rng, n, p_wide):
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.08:
            out.append(None)
            continue
        if r < 0.14:
            out.append("")
            continue
        alpha = _ASCII_ALPHA + (_WIDE_ALPHA if rng.random() < p_wide
                                else [])
        out.append("".join(rng.choice(alpha)
                           for _ in range(int(rng.integers(1, 40)))))
    return out


def _assert_word_hashes_match(texts, fn):
    words, offs = tokenize_batch(texts)
    want = fn(words) if len(words) else np.empty(0, np.uint64)
    got, got_offs = word_hashes(texts, fn)
    assert got.dtype == np.uint64 and got_offs.dtype == np.int64
    assert np.array_equal(got_offs, offs)
    assert np.array_equal(got, want)
    n = len(texts)
    assert len(got_offs) == n + 1
    if n:
        # the word_hash of each doc alone equals its slice of the batch
        for i in (0, n // 2, n - 1):
            one, _ = word_hashes(texts.slice(i, 1), fn)
            assert np.array_equal(one, got[offs[i]:offs[i + 1]])


@pytest.mark.parametrize("fn", [hash_str_array, poly_str_hashes],
                         ids=["sip", "poly"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_word_hashes_equals_tokenize_then_hash(fn, seed):
    """word_hashes == word_hash(tokenize_batch(texts)[0]) with the same
    doc offsets, bit for bit: mixed batches, all-ASCII and all-non-ASCII
    batches, nulls and empty docs, and every Arrow layout a batch column
    arrives in."""
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    for p_wide in (0.0, 0.5, 1.0):
        texts = _fuzz_texts(rng, 60, p_wide)
        arr = pa.array(texts, pa.string())
        _assert_word_hashes_match(arr, fn)
        _assert_word_hashes_match(arr.slice(7, 40), fn)       # offset > 0
        _assert_word_hashes_match(arr.cast(pa.large_string()), fn)
        chunked = pa.chunked_array([arr.slice(0, 25), arr.slice(25)])
        got, offs = word_hashes(chunked, fn)
        want, want_offs = word_hashes(arr, fn)
        assert np.array_equal(got, want)
        assert np.array_equal(offs, want_offs)


@pytest.mark.parametrize("fn", [hash_str_array, poly_str_hashes],
                         ids=["sip", "poly"])
def test_word_hashes_edge_batches(fn):
    import pyarrow as pa

    for texts in ([], [None], [""], [None, "", None], ["...", "  \t"],
                  ["Straße ﬁne İstanbul x² σς", "ab", "cd"],
                  ["Straße", "ﬁ İ", "x² ς", "\xa0"],         # no ASCII doc
                  ["ab", "cd", "", "ef", None, "gh"],      # runs meet
                  ["a\xa0b c\x0bd e\x1cf\x1fg h\x00i _j_"],
                  ["A" * 300 + " b"]):
        _assert_word_hashes_match(pa.array(texts, pa.string()), fn)
    got, offs = word_hashes(pa.array([], pa.large_string()), fn)
    assert len(got) == 0 and list(offs) == [0]
