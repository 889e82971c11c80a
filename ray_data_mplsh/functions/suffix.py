"""Suffix-array kernel for the exact-substring pass (SURVEY.md op 24).

Used by both the oracle and the distributed substring stage to verify
candidate pairs: build a suffix array + Kasai LCP over the two texts'
concatenation and report the longest span shared across the doc boundary
([Lee22 §3] verification step, bounded to a pair, so O((|a|+|b|) log^2)).
"""

from __future__ import annotations

import numpy as np


def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence via prefix doubling (argsort-based,
    O(n log^2 n) with NumPy C-level sorts)."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.asarray(s, dtype=np.int64)
    rank = np.unique(rank, return_inverse=True)[1]
    sa = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        second = np.full(n, -1, dtype=np.int64)
        second[:n - k] = rank[k:]
        order = np.lexsort((second, rank))
        key_first = rank[order]
        key_second = second[order]
        new_rank = np.zeros(n, dtype=np.int64)
        changed = np.ones(n, dtype=bool)
        changed[1:] = (key_first[1:] != key_first[:-1]) | \
                      (key_second[1:] != key_second[:-1])
        new_rank[order] = np.cumsum(changed) - 1
        rank = new_rank
        sa = order
        if rank[sa[-1]] == n - 1:
            break
        k *= 2
    return sa.astype(np.int64)


def _lcp_kasai(s: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """lcp[i] = LCP(suffix sa[i], suffix sa[i+1]); last entry 0."""
    n = len(s)
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    h = 0
    for i in range(n):
        r = rank[i]
        if r == n - 1:
            h = 0
            continue
        j = sa[r + 1]
        while i + h < n and j + h < n and s[i + h] == s[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _concat(a: str, b: str) -> tuple[np.ndarray, int]:
    ab = a.encode("utf-8", errors="replace")
    bb = b.encode("utf-8", errors="replace")
    s = np.concatenate([
        np.frombuffer(ab, dtype=np.uint8).astype(np.int64),
        np.array([256], dtype=np.int64),
        np.frombuffer(bb, dtype=np.uint8).astype(np.int64),
    ])
    return s, len(ab)


def longest_cross_substring(a: str, b: str) -> int:
    """Length of the longest substring shared between a and b, computed over
    the suffix array of ``a + sep + b`` (sep outside both alphabets)."""
    if not a or not b:
        return 0
    s, boundary = _concat(a, b)
    sa = suffix_array(s)
    lcp = _lcp_kasai(s, sa)
    from_a = sa < boundary
    cross = from_a[:-1] != from_a[1:]
    if not cross.any():
        return 0
    return int(lcp[:-1][cross].max())


def _byte_gram_hashes(raw: np.ndarray, k: int) -> np.ndarray:
    """uint64 Horner+mix hash of every length-k byte window — O(n) via the
    shared prefix-sum rolling hash (bit-identical to the k-pass Horner)."""
    from ray_data_mplsh.functions.hashing import mix64, poly_window_hashes

    if len(raw) < k:
        return np.empty(0, np.uint64)
    return mix64(poly_window_hashes(raw.astype(np.uint64), k))


def cross_match_intervals(a: str, b: str, min_len: int) -> list[tuple[int, int]]:
    """Byte intervals of ``b`` covered by substrings of length >= min_len
    that also occur in ``a`` ([Lee22 §3] span detection) — the reference
    of the pipeline's anchor kernel (``anchor_match_intervals``) and the
    oracle's span step.

    A byte of b lies in a shared span of length >= L iff it lies in some
    shared window of length EXACTLY L, so the merged union of matching
    L-windows equals the merged union of maximal shared spans — computed
    here as a sorted-array intersection of 64-bit window hashes (collision
    probability ~2^-64 per window pair; the suffix-array path above remains
    as the exact reference kernel). Fully vectorized: no per-rank Python
    loop, ~100x faster per pair than the SA sweep at web-page sizes.
    """
    if not a or not b or len(b) < min_len:
        return []
    return _window_match_intervals(
        np.frombuffer(a.encode("utf-8", errors="replace"), dtype=np.uint8),
        np.frombuffer(b.encode("utf-8", errors="replace"), dtype=np.uint8),
        min_len)


def _window_match_intervals(ra: np.ndarray, rb: np.ndarray, min_len: int
                            ) -> list[tuple[int, int]]:
    """cross_match_intervals over utf-8 byte arrays."""
    if len(ra) < min_len or len(rb) < min_len:
        return []
    ha = np.sort(_byte_gram_hashes(ra, min_len))
    hb = _byte_gram_hashes(rb, min_len)
    i = np.clip(np.searchsorted(ha, hb), 0, len(ha) - 1)
    ps = np.flatnonzero(ha[i] == hb)
    if len(ps) == 0:
        return []
    # all intervals are [p, p+L): a new merged run starts when the gap > L
    return _merge_runs(ps, ps + min_len)


def _merge_runs(s: np.ndarray, e: np.ndarray) -> list[tuple[int, int]]:
    """Union of intervals [s, e) sorted by s, touching ones merged."""
    if len(s) > 1:
        new = np.concatenate(([True], s[1:] > np.maximum.accumulate(e)[:-1]))
        first = np.flatnonzero(new)
        s, e = s[first], np.maximum.reduceat(e, first)
    return list(zip(s.tolist(), e.tolist()))


def anchor_match_intervals(ra: np.ndarray, rb: np.ndarray,
                           fa: np.ndarray, posa: np.ndarray,
                           fb: np.ndarray, posb: np.ndarray,
                           min_len: int, k: int, w: int
                           ) -> list[tuple[int, int]]:
    """``cross_match_intervals`` of two docs' utf-8 bytes ``ra``/``rb``
    from their winnow anchors ((fp, byte position) pairs, ``fa`` sorted
    ascending), comparing bytes only next to aligned anchors.

    Anchors pin every shared window when ``min_len >= k + w - 1`` (k the
    gram size, w the winnow window): a shared ``min_len`` window holds
    the same first w k-grams in both docs, so winnowing picks the same
    gram at the same offset r < w of the window in each — an anchor pair (qa, qb) with equal fp on the window's
    diagonal d = qb - qa, the window lying inside b's
    [qb - (w-1), qb + min_len). Those neighbourhoods are merged per
    diagonal, b's bytes are compared with a's at offset -d, and every run
    of equal bytes >= min_len is a union of shared windows; conversely
    every shared window lies in one neighbourhood. Byte comparison leaves
    no hash-collision caveat. The linear hash-window kernel of
    ``cross_match_intervals`` runs instead when ``min_len`` is shorter,
    or when repeats make the anchor join larger than a quarter of the
    two docs' bytes (tie runs such as "aaaa...", boilerplate repeated in
    both docs)."""
    la, lb = len(ra), len(rb)
    if la < min_len or lb < min_len or not len(fa) or not len(fb):
        return []
    if lb < 4 * min_len and \
            np.count_nonzero((rb & 0xC0) != 0x80) < min_len:
        return []       # the reference's rule: b under min_len characters
    lo = np.searchsorted(fa, fb, "left")
    cnt = np.searchsorted(fa, fb, "right") - lo
    total = int(cnt.sum())
    if total == 0:
        return []
    if 4 * total > la + lb or min_len < k + w - 1:
        return _window_match_intervals(ra, rb, min_len)
    jb = np.repeat(np.arange(len(fb)), cnt)
    ja = np.arange(total) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    qb = posb[jb]
    d = qb - posa[ja]
    # neighbourhoods in b's coordinates, clipped to both docs (a = b - d)
    s = np.maximum(np.maximum(qb - (w - 1), d), 0)
    e = np.minimum(np.minimum(qb + min_len, lb), la + d)
    ok = e - s >= min_len
    if not ok.any():
        return []
    d, s, e = d[ok], s[ok], e[ok]
    o = np.lexsort((s, d))
    d, s, e = merge_intervals_grouped(d[o], s[o], e[o])
    lens = e - s
    first = np.cumsum(lens) - lens
    bpos = np.arange(int(lens.sum())) + np.repeat(s - first, lens)
    eq = rb[bpos] == ra[bpos - np.repeat(d, lens)]
    # runs of equal bytes, split at neighbourhood borders
    border = np.zeros(len(eq) + 1, bool)
    border[first] = True
    border[-1] = True
    prev = np.concatenate(([False], eq[:-1])) & ~border[:-1]
    nxt = np.concatenate((eq[1:], [False])) & ~border[1:]
    rs = np.flatnonzero(eq & ~prev)
    re_ = np.flatnonzero(eq & ~nxt) + 1
    keep = re_ - rs >= min_len
    if not keep.any():
        return []
    bs, be = bpos[rs[keep]], bpos[re_[keep] - 1] + 1
    o = np.argsort(bs, kind="stable")
    return _merge_runs(bs[o], be[o])


def merge_intervals_grouped(doc: "np.ndarray", s: "np.ndarray",
                            e: "np.ndarray"):
    """Vectorized per-doc ``merge_intervals`` over interval rows SORTED
    by (doc, start): returns (run_doc, run_start, run_end) — one row per
    merged interval, doc-ordered, bit-equal to calling merge_intervals
    per doc (fuzz-pinned in tests/test_suffix.py). A touching interval
    (start == running max end) merges, matching the scalar rule.

    The per-doc exclusive running max of ``end`` uses a rank-offset so
    ONE global cummax never carries across docs (doc ranks are strictly
    increasing, and rank*B jumps dominate any real end value); requires
    ranks * B < 2^62 — callers pass driver- or partition-bounded rows,
    far below that."""
    import numpy as np

    n = len(doc)
    if n == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    doc = np.asarray(doc)
    s = np.asarray(s, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64)
    first = np.concatenate(([True], doc[1:] != doc[:-1]))
    rank = np.cumsum(first) - 1
    B = np.int64(e.max()) + 1
    if int(rank[-1]) * int(B) >= (1 << 62):   # pragma: no cover
        raise ValueError("interval volume exceeds the rank-offset range")
    cme = np.maximum.accumulate(e + rank * B)
    prev_cme = np.empty(n, np.int64)
    prev_cme[0] = -1
    prev_cme[1:] = cme[:-1] - rank[1:] * B   # exclusive; junk at doc starts
    newrun = first | (s > prev_cme)
    starts = np.flatnonzero(newrun)
    run_e = np.maximum.reduceat(e, starts)
    return doc[starts], s[starts], run_e


def merge_intervals(ivals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not ivals:
        return []
    ivals = sorted(ivals)
    out = [list(ivals[0])]
    for s0, e0 in ivals[1:]:
        if s0 <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e0)
        else:
            out.append([s0, e0])
    return [(s0, e0) for s0, e0 in out]


def remove_intervals(text: str, ivals: list[tuple[int, int]]) -> str:
    """Delete byte intervals from text, then collapse whitespace runs."""
    if not ivals:
        return text
    raw = text.encode("utf-8", errors="replace")
    keep, pos = [], 0
    for s0, e0 in ivals:
        keep.append(raw[pos:s0])
        pos = e0
    keep.append(raw[pos:])
    out = b" ".join(k for k in keep)
    import re
    return re.sub(r"[ \t\r\n]+", " ", out.decode("utf-8", errors="replace")).strip()
