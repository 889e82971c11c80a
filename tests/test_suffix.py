"""Suffix-array kernel tests (SURVEY.md op 24)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ray_data_mplsh.functions.suffix import (
    cross_match_intervals, longest_cross_substring, merge_intervals,
    remove_intervals, suffix_array,
)


def _brute_sa(s):
    return sorted(range(len(s)), key=lambda i: s[i:])


@given(st.text(alphabet="abc", min_size=1, max_size=80))
@settings(max_examples=60, deadline=None)
def test_suffix_array_matches_bruteforce(s):
    arr = np.frombuffer(s.encode(), dtype=np.uint8).astype(np.int64)
    assert suffix_array(arr).tolist() == _brute_sa(s)


def _brute_lcs(a, b):
    best = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            best = max(best, k)
    return best


@given(st.text(alphabet="ab", min_size=1, max_size=40),
       st.text(alphabet="ab", min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_lcs_matches_bruteforce(a, b):
    assert longest_cross_substring(a, b) == _brute_lcs(a, b)


def test_cross_match_intervals_exact_coverage():
    a = "xxxx SHARED-SPAN-ONE-IS-LONG-ENOUGH-TO-COUNT yyyy"
    b = "left pad SHARED-SPAN-ONE-IS-LONG-ENOUGH-TO-COUNT right pad"
    iv = cross_match_intervals(a, b, 30)
    assert len(iv) == 1
    s, e = iv[0]
    assert "SHARED-SPAN-ONE-IS-LONG-ENOUGH-TO-COUNT" in b[s:e]


@given(st.text(alphabet="abcd", min_size=5, max_size=60),
       st.text(alphabet="abcd", min_size=5, max_size=60),
       st.integers(min_value=3, max_value=8))
@settings(max_examples=40, deadline=None)
def test_cross_match_intervals_cover_all_long_matches(a, b, L):
    """Every position of b starting a >=L-char substring of a is covered."""
    iv = cross_match_intervals(a, b, L)
    covered = np.zeros(len(b), dtype=bool)
    for s, e in iv:
        covered[s:e] = True
    for p in range(len(b) - L + 1):
        if b[p:p + L] in a:
            assert covered[p:p + L].all(), (a, b, L, p, iv)


def test_merge_and_remove_intervals():
    assert merge_intervals([(5, 9), (1, 3), (2, 6)]) == [(1, 9), ]
    assert remove_intervals("hello cruel world", [(5, 11)]) == "hello world"


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40),
                          st.integers(0, 15)), max_size=120))
@settings(max_examples=60, deadline=None)
def test_merge_intervals_grouped_matches_scalar(rows):
    """The vectorized per-doc merge is bit-equal to merge_intervals run
    per doc — incl. touching intervals, duplicate starts, single-row
    docs, and empty input."""
    from ray_data_mplsh.functions.suffix import merge_intervals_grouped

    d = np.array([r[0] for r in rows], np.uint64)
    s = np.array([r[1] for r in rows], np.int64)
    e = s + np.array([r[2] for r in rows], np.int64)
    o = np.lexsort((s, d))
    rd_, rs, re_ = merge_intervals_grouped(d[o], s[o], e[o])
    want_d, want_s, want_e = [], [], []
    for doc in sorted(set(d.tolist())):
        m = d == doc
        merged = merge_intervals(list(zip(s[m].tolist(), e[m].tolist())))
        for a, b in merged:
            want_d.append(doc)
            want_s.append(a)
            want_e.append(b)
    assert rd_.tolist() == want_d
    assert rs.tolist() == want_s
    assert re_.tolist() == want_e


def _anchored(texts, k, w):
    """(utf-8 bytes, anchor fps, anchor positions) per text, from the
    batch anchor kernel the pipeline runs."""
    import pyarrow as pa

    from ray_data_mplsh.functions.hashing import (
        utf8_flat, winnow_anchors_batch,
    )

    offs, data = utf8_flat(pa.array(texts, pa.string()))
    fp, pos, doc = winnow_anchors_batch(offs, data, k, w)
    return [(np.frombuffer(t.encode(), np.uint8), fp[doc == i],
             pos[doc == i]) for i, t in enumerate(texts)]


def _anchor_spans(a, b, L, k, w):
    from ray_data_mplsh.functions.suffix import anchor_match_intervals

    (ra, fa, pa_), (rb, fb, pb) = _anchored([a, b], k, w)
    return anchor_match_intervals(ra, rb, fa, pa_, fb, pb, L, k, w)


@pytest.mark.parametrize("k,w", [(30, 21), (5, 4), (3, 2), (1, 1)])
def test_anchor_spans_equal_cross_match_fuzz(k, w):
    """The S9 anchor kernel == cross_match_intervals on mutated copies:
    repeated k-grams and tie runs (tiny alphabets, "aaaa..."), multi-byte
    UTF-8, texts shorter than substr_len or than k + w - 1 (in bytes or
    only in characters), matches touching a doc's first or last byte, one
    span shared at several offsets, and substr_len above k + w - 1."""
    rng = np.random.Generator(np.random.PCG64(5))
    alphabets = [list("ab"), list("abcd"), list("héllo wörld日本"),
                 list("abcdefghij ")]
    nonempty = 0
    for trial in range(400):
        alpha = alphabets[trial % 4]
        L = k + w - 1 + (trial % 3 == 1) * int(rng.integers(1, 4))

        def rand(n):
            return "".join(rng.choice(alpha) for _ in range(n))

        def mutate(t):
            t = list(t)
            for _ in range(int(rng.integers(0, 6))):
                i = int(rng.integers(0, len(t) + 1))
                if t and rng.random() < 0.5:
                    del t[min(i, len(t) - 1)]
                else:
                    t.insert(i, str(rng.choice(alpha)))
            return "".join(t)

        base = rand(int(rng.integers(0, 160)))
        a, b = mutate(base), mutate(base)
        if trial % 5 == 0:        # one span at several offsets of b
            b = b + a[: len(a) // 2] + rand(3) + a[: len(a) // 2]
        if trial % 7 == 0:        # match touches both docs' ends
            a, b = base, base[len(base) // 3:]
        if trial % 11 == 0:       # tie runs
            a = "a" * int(rng.integers(0, 3 * L))
            b = "a" * int(rng.integers(0, 3 * L))
        if trial % 13 == 0:       # short: under L bytes, or chars only
            a, b = base[:L - 1], "日" * (L // 2 + 1)
        want = cross_match_intervals(a, b, L)
        nonempty += bool(want)
        assert _anchor_spans(a, b, L, k, w) == want, (trial, a, b, L)
    assert nonempty > 100


def test_anchor_spans_repeated_block_and_edges():
    """A boilerplate block repeated in both docs (the anchor join falls
    back to the window-hash kernel when it outgrows the docs) and a
    shared span that is exactly one doc, first byte to last."""
    block = "the quick brown fox jumps over the lazy dog, again. "
    a = block * 8 + "tail of a"
    b = "head of b " + block * 5
    assert _anchor_spans(a, b, 50, 30, 21) == cross_match_intervals(a, b, 50)
    s = "x" * 3 + block + "y" * 3
    assert _anchor_spans(s, s, 50, 30, 21) == [(0, len(s.encode()))]
    assert _anchor_spans(block, "日本" + block, 50, 30, 21) == \
        cross_match_intervals(block, "日本" + block, 50)
