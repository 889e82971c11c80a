"""Deterministic 64-bit hash kernels, vectorized (SURVEY.md §2.7).

Design notes
------------
* All hashes are unsigned 64-bit with silent wraparound (NumPy uint64
  semantics).  Determinism is absolute: no wall clock, no global RNG, no
  PYTHONHASHSEED dependence — required for order-free doc ids and
  byte-stable resume (SURVEY.md op 9, §2.9).
* String arrays are hashed via ``pandas.util.hash_array``: SipHash-2-4 of
  the utf-8 bytes with the fixed key ``b"0123456789123456"``, then the
  SplitMix64 finalizer ``mix64`` — a C-speed loop over the array, no
  Python per-row overhead.
* ``mix64`` is the SplitMix64 finalizer (Steele et al., public domain): a
  bijection on uint64, used to whiten combined hashes and to build the
  MinHash permutation family ``perm_j(x) = mix64(a_j * x + b_j mod 2^64)``
  with odd ``a_j`` (an affine bijection composed with a bijective mixer —
  a genuine permutation of the shingle space; SURVEY.md §A.1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

U64 = np.uint64
#: Horner-combination multiplier (odd, from the golden ratio; any odd works).
_POLY_P = U64(0x9E3779B97F4A7C15)
#: Sentinel substituted for a masked band slot in multi-probe keys (op 13).
MASK_SENTINEL = U64(0xFEEDFACECAFEBEEF)
#: poly_str_hashes switches from masked whole-array passes to a per-token
#: power fold above this byte length (covers ~all natural-language tokens).
_POLY_TOKEN_CAP = 64


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer — bijective avalanche mixer on uint64."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> U64(30))) * U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> U64(27))) * U64(0x94D049BB133111EB)
    x = x ^ (x >> U64(31))
    if x.ndim == 0:
        return U64(x)
    return x


def hash_str_array(values) -> np.ndarray:
    """uint64 hash per string. Accepts a pyarrow (Chunked)Array, pandas
    Series, numpy object array, or list of str. A null hashes like the
    string ``"None"`` (pandas stringifies it), not like ``''``."""
    import pyarrow as pa

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_pandas()
    if isinstance(values, pd.Series):
        arr = values.to_numpy(dtype=object)
    else:
        arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False).astype(np.uint64)


def utf8_flat(col) -> tuple[np.ndarray, np.ndarray]:
    """(byte offsets int64 len n+1, concatenated utf-8 bytes uint8) of a
    string column — zero-copy views of the Arrow offset/data buffers
    (Arrow strings ARE utf-8, so this equals per-doc str.encode).

    Offset width is type-dependent: string/binary carry int32 offsets,
    large_string/large_binary int64 — misreading one as the other returns
    garbage offsets with no error, so the branch is explicit and any other
    type (e.g. string_view) is first cast to a plain offset layout."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_string(t) or pa.types.is_binary(t):
        off_dtype = np.int32
    elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        off_dtype = np.int64
    else:
        return utf8_flat(col.cast(pa.large_string()))
    n = len(col)
    bufs = col.buffers()
    if n == 0 or bufs[2] is None:
        return np.zeros(n + 1, np.int64), np.empty(0, np.uint8)
    off = np.frombuffer(bufs[1], dtype=off_dtype)[
        col.offset:col.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)[off[0]:off[-1]]
    return off - off[0], data


def poly_str_hashes(values) -> np.ndarray:
    """SQL-replayable uint64 hash per string: ``mix64(sum_j byte[j] *
    P^(L-1-j) mod 2^64)`` — a Horner fold of the utf-8 bytes with
    ``_POLY_P``, finalized with the SplitMix64 mixer.

    Unlike ``hash_str_array`` (pandas SipHash — not expressible in SQL),
    a DuckDB oracle replays this bit-exactly with HUGEINT split-multiplies
    (P_hi=2654435769, P_lo=2135587861; see the q_simhash_pairs oracle).
    Used by stages whose NUMERIC hash bits an oracle must reproduce (the
    SimHash bit votes); SipHash stays the default elsewhere. Vectorized
    as <= max_len masked Horner passes over the flat byte buffer (tokens
    are short, so this is a handful of whole-array ops). Nulls hash
    like ''."""
    import pyarrow as pa

    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(np.asarray(values, dtype=object), pa.string())
    offs, data = utf8_flat(values)
    lens = np.diff(offs)
    acc = np.zeros(len(lens), np.uint64)
    if len(data):
        u = data.astype(np.uint64)
        starts = offs[:-1]
        # masked passes are whole-array ops, so they run only up to
        # _POLY_TOKEN_CAP bytes: one outlier token (URL / base64 blob
        # surviving punctuation strip) must not make the batch
        # O(n_words x max_len). Longer tokens finish below with a
        # per-token vectorized power fold — same Horner value, cost
        # proportional to the outliers' own bytes.
        cap = min(int(lens.max()), _POLY_TOKEN_CAP)
        for t in range(cap):
            m = lens > t
            am = acc[m]
            np.multiply(am, _POLY_P, out=am)
            np.add(am, u[starts[m] + t], out=am)
            acc[m] = am
        for i in np.flatnonzero(lens > cap):
            s = int(starts[i]) + cap
            n = int(lens[i]) - cap
            seg = u[s:s + n]
            pw = np.full(n, _POLY_P, np.uint64)
            pw[0] = U64(1)
            np.cumprod(pw, out=pw)  # [1, P, P^2, ...] mod 2^64
            # Horner tail: acc*P^n + sum(seg[j] * P^(n-1-j)), all mod
            # 2^64 — kept in 1-element array views (scalar uint64 ops
            # would raise overflow RuntimeWarnings; array ops wrap)
            av = acc[i:i + 1]
            np.multiply(av, pw[n - 1:] * _POLY_P, out=av)
            np.add(av, np.sum(seg * pw[::-1], dtype=np.uint64,
                              keepdims=True), out=av)
    return mix64(acc)


def knuth_hash32(ids: np.ndarray) -> np.ndarray:
    """SQL-replayable 32-bit multiplicative hash of integer ids: the HIGH
    word of (id mod 2^32) * 2654435761 (Fibonacci hashing proper).

    Sampling decisions (``h % m``, ``h % m < w``) must be derived from
    these HIGH bits: the multiplier is odd with K ≡ 1 (mod 8), so the low
    bits of the low product word are the id's own low bits — a power-of-two
    modulus on the low word is systematic id-stride sampling, not hashing.
    DuckDB replay: ``((id % 4294967296) * 2654435761::HUGEINT) //
    4294967296``."""
    ids = np.asarray(ids, dtype=np.uint64)
    return ((ids % U64(2**32)) * U64(2654435761)) >> U64(32)


def hash_bytes_u64(data: bytes) -> int:
    """Single-value deterministic 64-bit hash of a byte string."""
    return int(pd.util.hash_array(np.array([data], dtype=object),
                                  categorize=False)[0])


def combine_rows(mat: np.ndarray, prefix: np.ndarray | int | None = None) -> np.ndarray:
    """Order-sensitive Horner combination along axis 1 of a (n, m) uint64
    matrix, finalized with mix64. ``prefix`` (scalar or length-n) is folded
    in first — used to namespace band ids / probe ranks into band hashes."""
    mat = np.asarray(mat, dtype=np.uint64)
    acc = np.zeros(mat.shape[0], dtype=np.uint64)
    if prefix is not None:
        acc = acc + np.asarray(prefix, dtype=np.uint64)
    for j in range(mat.shape[1]):
        acc = acc * _POLY_P + mat[:, j]
    return mix64(acc)


def rolling_shingle_hashes(word_hashes: np.ndarray, doc_offsets: np.ndarray,
                           k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-word shingle hashes over a flattened word-hash array.

    ``word_hashes``: uint64 array of all words of a batch, docs concatenated.
    ``doc_offsets``: int64 array of doc start offsets (len = ndocs + 1).
    Returns ``(shingles, shingle_offsets)`` where shingles is the flat uint64
    array of per-doc k-shingle hashes (docs with < k words contribute 0
    shingles) and shingle_offsets has len = ndocs + 1.

    Vectorized: one Horner pass of k strided adds over the whole batch, then
    a boolean mask removes window positions that straddle doc boundaries.
    """
    n = len(word_hashes)
    ndocs = len(doc_offsets) - 1
    if n < k:
        return (np.empty(0, dtype=np.uint64),
                np.zeros(ndocs + 1, dtype=np.int64))
    m = n - k + 1  # candidate window positions
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = acc * _POLY_P + word_hashes[j:m + j]
    acc = mix64(acc)

    # A window starting at i is valid iff i+k-1 is in the same doc as i.
    doc_of = np.repeat(np.arange(ndocs, dtype=np.int64),
                       np.diff(doc_offsets))
    valid = doc_of[:m] == doc_of[k - 1:k - 1 + m]
    shingles = acc[valid]
    # per-doc shingle counts: max(0, words_in_doc - k + 1)
    counts = np.maximum(np.diff(doc_offsets) - (k - 1), 0)
    offsets = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return shingles, offsets


def make_perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The frozen signature config (SURVEY.md §A.1): K (a_j, b_j) pairs drawn
    once from PCG64(seed); a_j forced odd so x -> a_j*x + b_j is a bijection
    mod 2^64."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(0, 1 << 63, num_perm, dtype=np.uint64) << U64(1) | U64(1)
    b = rng.integers(0, (1 << 64) - 1, num_perm, dtype=np.uint64)
    return a, b


def minhash_signatures(shingles: np.ndarray, offsets: np.ndarray,
                       a: np.ndarray, b: np.ndarray,
                       perm_chunk: int = 16) -> np.ndarray:
    """(ndocs, K) uint64 MinHash signatures.

    ``sig[d, j] = min over shingles s of doc d of (a_j*s + b_j mod 2^64)``
    — the multiply-shift MinHash family: shingle hashes are already
    avalanche-mixed (``rolling_shingle_hashes`` finalizes with mix64, so s
    is uniform on uint64) and odd ``a_j`` makes each map a bijection, so
    the K affine maps give K decorrelated orderings. No further mixing:
    the kernel is memory-bandwidth-bound at scale (31 actors share one
    memory bus), so it runs exactly three passes per chunk — multiply,
    add, segment-min — with in-place ops and no temporaries. Estimator
    accuracy is gated by tests/test_hashing.py (|est - true J| bounds).

    Docs with zero shingles get all-ones signatures (0xFFFF...), which never
    collide on any band; callers should filter them out (op 7).
    """
    ndocs = len(offsets) - 1
    K = len(a)
    sig = np.full((ndocs, K), np.iinfo(np.uint64).max, dtype=np.uint64)
    n_sh = len(shingles)
    if n_sh == 0 or ndocs == 0:
        return sig
    # chunk over SHINGLES as well as perms: the working buffer stays
    # cache-sized (~8MB) no matter how long the batch's documents are, so
    # a full actor pool doesn't saturate the memory bus
    SH_CHUNK = 65536
    pc_ = min(perm_chunk, K)
    # (perm, shingle) layout: the segment-min reduceat then runs along
    # the CONTIGUOUS axis (measured ~5x faster than axis-0 reduceat on
    # the (shingle, perm) layout, bit-equal)
    vals = np.empty((pc_, min(SH_CHUNK, n_sh)), dtype=np.uint64)
    doc_of_start = np.searchsorted(offsets, np.arange(0, n_sh, SH_CHUNK),
                                   side="right") - 1
    for ci, s0 in enumerate(range(0, n_sh, SH_CHUNK)):
        s1 = min(s0 + SH_CHUNK, n_sh)
        d0 = doc_of_start[ci]
        # segment starts inside this chunk, clipped to the chunk window
        d1 = int(np.searchsorted(offsets, s1, side="left"))
        seg = np.clip(offsets[d0:d1], s0, s1) - s0
        seg_docs = np.arange(d0, d1)
        # equal starts = empty docs; keep the LAST doc of each run (the one
        # the following shingles belong to), empties keep the sentinel
        keep = np.concatenate((seg[1:] > seg[:-1], [True])) \
            if len(seg) > 1 else np.ones(len(seg), bool)
        seg, seg_docs = seg[keep], seg_docs[keep]
        sh = shingles[s0:s1]
        for c0 in range(0, K, pc_):
            c1 = min(c0 + pc_, K)
            v = vals[:c1 - c0, :s1 - s0]
            np.multiply(a[c0:c1, None], sh[None, :], out=v)
            np.add(v, b[c0:c1, None], out=v)
            part = np.minimum.reduceat(v, seg, axis=1)
            # fancy-indexed write-back (an out= target would be a copy)
            sig[seg_docs, c0:c1] = np.minimum(sig[seg_docs, c0:c1],
                                              part.T)
    return sig


# --- O(n) rolling polynomial window hashes ---------------------------------

def _inv_u64(a: np.uint64) -> np.uint64:
    """Multiplicative inverse of an odd a mod 2^64 (Newton iteration).
    Wraparound is the intended mod-2^64 arithmetic; errstate silences the
    numpy scalar overflow warnings it would otherwise emit at import."""
    with np.errstate(over="ignore"):
        x = a
        for _ in range(6):
            x = x * (U64(2) - a * x)
        return x


_POLY_Q = _inv_u64(_POLY_P)          # P is odd -> invertible mod 2^64
_POW_CACHE: dict = {}


def _pows(base: np.uint64, n: int, key: str) -> np.ndarray:
    """Grow-only cached [base^0 .. base^(n-1)] mod 2^64 (per process)."""
    cur = _POW_CACHE.get(key)
    if cur is None or len(cur) < n:
        size = max(n, 2 * len(cur) if cur is not None else n, 4096)
        out = np.empty(size, np.uint64)
        out[0] = U64(1)
        np.cumprod(np.full(size - 1, base, np.uint64), out=out[1:])
        _POW_CACHE[key] = out
        cur = out
    return cur[:n]


def poly_window_hashes(b: np.ndarray, k: int) -> np.ndarray:
    """Horner hash ``sum b[j] P^(k-1-j)`` of EVERY length-k window of the
    uint64 array ``b`` — bit-identical to the k-pass Horner loop but O(n)
    via prefix sums: with Q = P^-1 mod 2^64,
    ``S[i] = sum_{j<i} b[j] Q^j`` gives
    ``window(i) = (S[i+k] - S[i]) * P^(i+k-1)`` (all mod 2^64)."""
    n = len(b)
    if n < k:
        return np.empty(0, np.uint64)
    m = n - k + 1
    if k <= 8:                       # few passes: plain Horner is cheaper
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            acc = acc * _POLY_P + b[j:m + j]
        return acc
    qp = _pows(_POLY_Q, n, "Q")
    pp = _pows(_POLY_P, n + k, "P")
    s = np.empty(n + 1, np.uint64)
    s[0] = U64(0)
    np.cumsum(b * qp, out=s[1:])
    return (s[k:k + m] - s[0:m]) * pp[k - 1:k - 1 + m]


# windows per rightmost_window_argmin chunk: each of the algorithm's ~13
# full-length temporaries stays ~16 MB, under glibc's 32 MB dynamic mmap
# threshold cap, so after the first chunk the allocator serves them from
# the reused heap instead of fresh mmaps — on this box a fresh 57 MB
# array costs ~66 ms of page faults PER temporary (measured), which made
# the old single-shot version fault-bound, not compute-bound
_RWA_CHUNK = 1 << 21


def rightmost_window_argmin(g: np.ndarray, w: int) -> np.ndarray:
    """Absolute index of the RIGHTMOST minimum of every length-w window of
    ``g`` (uint64). O(m) two-block algorithm (block size w: each window is
    a block suffix + the next block's prefix); bit-equal to the
    sliding_window_view reversed-argmin reference (tests fuzz this).
    Large inputs are processed in independent window-start chunks (a
    window starting in [s, e) reads only g[s : e+w-1]) purely to bound
    temporary sizes — results are identical to the single-shot pass."""
    m = len(g)
    nwin = m - w + 1
    if nwin <= 0:
        raise ValueError("need len(g) >= w")
    if w == 1:
        return np.arange(m, dtype=np.int64)
    if nwin > _RWA_CHUNK:
        out = np.empty(nwin, np.int64)
        for s in range(0, nwin, _RWA_CHUNK):
            e = min(s + _RWA_CHUNK, nwin)
            out[s:e] = _rwa_block(g[s:e + w - 1], w)
            out[s:e] += s
        return out
    return _rwa_block(g, w)


def _rwa_block(g: np.ndarray, w: int) -> np.ndarray:
    m = len(g)
    nwin = m - w + 1
    nb = (m + w - 1) // w
    pad = nb * w - m
    vals = np.concatenate(
        [g, np.full(pad, U64(0xFFFFFFFFFFFFFFFF))]).reshape(nb, w)
    col = np.arange(w, dtype=np.int64)
    # prefix rightmost argmin (ties -> later index wins: update on <=)
    pre_min = np.minimum.accumulate(vals, axis=1)
    pre_arg = np.maximum.accumulate(
        np.where(vals <= pre_min, col[None, :], -1), axis=1)
    # suffix rightmost argmin (scanning right-to-left, the existing -- i.e.
    # righter -- candidate wins ties: update on strict <)
    rcum = np.minimum.accumulate(vals[:, ::-1], axis=1)
    upd_r = np.concatenate(
        [np.ones((nb, 1), bool), rcum[:, 1:] < rcum[:, :-1]], axis=1)
    arg_r = np.maximum.accumulate(np.where(upd_r, col[None, :], -1), axis=1)
    # combine via FLAT views of ABSOLUTE indices (each block row's offset
    # q*w added in 2D, so no per-window i % w arrays): window i = q*w + r
    # reads its suffix part at flat index i and its prefix part at flat
    # index j = i+w-1 (row q+1 col r-1 for r>=1; for r==0, j lands on
    # (q, w-1) — the full-block prefix — whose min/argmin equal the
    # full-block suffix at (q, 0), and the <= tie rule then returns the
    # same rightmost argmin, so aligned windows need no special case)
    base = (np.arange(nb, dtype=np.int64) * w)[:, None]
    suf_abs = ((w - 1 - arg_r)[:, ::-1] + base).reshape(-1)
    pre_abs = (pre_arg + base).reshape(-1)
    use_b = pre_min.reshape(-1)[w - 1:w - 1 + nwin] \
        <= rcum[:, ::-1].reshape(-1)[:nwin]
    return np.where(use_b, pre_abs[w - 1:w - 1 + nwin], suf_abs[:nwin])


# --- winnowing fingerprints for the substring pass (op 24; Schleimer et al.,
#     "Winnowing: Local Algorithms for Document Fingerprinting", SIGMOD 2003) ---

# bytes of concatenated text per winnow chunk: keeps every m-sized
# uint64 temporary in the poly/mix/argmin/expansion passes ~16 MB, under
# glibc's dynamic mmap threshold cap, so temporaries are served from the
# reused heap (see _RWA_CHUNK) no matter how large the Arrow batch is
_WINNOW_CHUNK_BYTES = 2_000_000


def winnow_anchors_batch(offs: np.ndarray, data: np.ndarray, k: int, w: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every winnow-selected (fingerprint, byte position) of a whole
    batch — the anchors of the substring pass: ``data`` is the
    concatenated utf-8 bytes of all docs, ``offs`` (int64, len n_docs+1)
    their boundaries. Per doc, the (fp, position) set equals
    ``winnow_fingerprints(text)`` (positions doc-relative). Windows never
    straddle docs, so the batch is processed in doc-aligned chunks of
    ~_WINNOW_CHUNK_BYTES, bit-identical to one flat pass at any chunking.
    Returns (fps uint64, positions int64, doc_index int64) sorted by
    (doc, fp, position)."""
    n_docs = len(offs) - 1
    if len(data) > _WINNOW_CHUNK_BYTES and n_docs > 1:
        parts = []
        d0 = 0
        while d0 < n_docs:
            limit = offs[d0] + _WINNOW_CHUNK_BYTES
            d1 = int(np.searchsorted(offs, limit, side="right")) - 1
            d1 = min(max(d1, d0 + 1), n_docs)
            sub = (offs[d0:d1 + 1] - offs[d0]).astype(np.int64)
            f, p, di = _anchor_chunk(sub, data[offs[d0]:offs[d1]], k, w)
            parts.append((f, p, di + d0))
            d0 = d1
        return tuple(np.concatenate(c) for c in zip(*parts))
    return _anchor_chunk(offs, data, k, w)


def winnow_fingerprints_batch(offs: np.ndarray, data: np.ndarray,
                              k: int, w: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc UNIQUE winnow fingerprints for a whole batch (the
    ``winnow_anchors_batch`` fps with positions dropped): bit-equal per
    doc to ``np.unique(winnow_fingerprints(text)[0])`` (fuzz-pinned in
    tests/test_hashing.py). Returns (fps uint64, doc_index int64) sorted
    by (doc, fp)."""
    fp, _, doc = winnow_anchors_batch(offs, data, k, w)
    keep = first_of_runs(doc, fp)
    return fp[keep], doc[keep]


def first_of_runs(doc: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Mask of the first row of each (doc, fp) run in rows sorted by
    (doc, fp): the per-doc unique fingerprints of an anchor list."""
    keep = np.ones(len(doc), bool)
    keep[1:] = (doc[1:] != doc[:-1]) | (fp[1:] != fp[:-1])
    return keep


def _anchor_chunk(offs: np.ndarray, data: np.ndarray, k: int, w: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One doc-aligned chunk of winnow_anchors_batch. Window minima are
    intrinsic to the window contents — independent of the kernel's
    internal block alignment — so one flat ``poly_window_hashes`` +
    ``rightmost_window_argmin`` over the concatenation, masked to window
    starts that lie fully inside one doc, selects per doc exactly what
    ``winnow_fingerprints(text)`` selects."""
    lens = np.diff(offs)
    e64, e_i = np.empty(0, np.uint64), np.empty(0, np.int64)
    if len(data) < k:
        return e64, e_i, e_i
    g = mix64(poly_window_hashes(data.astype(np.uint64), k))
    m = lens - k + 1                      # grams per doc (may be <= 0)
    gstart = offs[:-1]
    # docs with >= w grams: every length-w gram window wholly inside the
    # doc selects its rightmost minimum. Valid window starts are the runs
    # [gstart, gstart + m - w] of those docs, marked by an edge cumsum
    big = np.flatnonzero(m >= w)
    if len(big):
        sel = rightmost_window_argmin(g, w)
        edge = np.zeros(len(sel) + 1, np.int8)
        edge[gstart[big]] += 1
        edge[gstart[big] + m[big] - w + 1] -= 1
        pos = sel[np.cumsum(edge[:-1], dtype=np.int8) > 0]
        # selections are monotone non-decreasing as the window slides
        # (rightmost tie-break) and never cross a doc boundary, so
        # consecutive dedup IS full per-doc dedup
        if len(pos):
            pos = pos[np.concatenate(([True], pos[1:] != pos[:-1]))]
    else:
        pos = e_i
    # docs with 1 <= m < w: single fingerprint at the LEFTMOST gram argmin
    # (np.argmin semantics of the per-doc reference)
    small = (m >= 1) & (m < w)
    if np.any(small):
        n_docs = len(offs) - 1
        cnt = np.where(small, m, 0).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(cnt)))
        rows = np.repeat(np.arange(n_docs, dtype=np.int64), cnt)
        rel = np.arange(cum[-1], dtype=np.int64) - cum[rows]
        flat = rel + gstart[rows]
        o = np.lexsort((rel, g[flat], rows))
        first = np.flatnonzero(np.concatenate(
            ([True], rows[o][1:] != rows[o][:-1])))
        pos = np.sort(np.concatenate([pos, flat[o][first]]))
    if len(pos) == 0:
        return e64, e_i, e_i
    doc = np.searchsorted(gstart, pos, side="right") - 1
    fp = g[pos]
    o = np.lexsort((fp, doc))     # stable: position order kept per fp
    return fp[o], (pos - gstart[doc])[o], doc[o]


def winnow_fingerprints(text: str, k: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(fingerprints, positions) of a single document's text.

    Character k-gram hashes at every position, then the minimum hash in each
    window of w consecutive k-grams is selected (rightmost minimum). Any
    substring shared between two docs with length >= k + w - 1 is guaranteed
    to contribute at least one identical selected fingerprint to both.
    Vectorized via a (nwin, w) sliding-window view + argmin.
    """
    raw = np.frombuffer(text.encode("utf-8", errors="replace"), dtype=np.uint8)
    n = len(raw)
    if n < k:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    m = n - k + 1
    grams = mix64(poly_window_hashes(raw.astype(np.uint64), k))
    if m < w:
        pos = np.array([int(np.argmin(grams))], dtype=np.int64)
        return grams[pos], pos
    sel = rightmost_window_argmin(grams, w)
    keep = np.ones(len(sel), dtype=bool)
    keep[1:] = sel[1:] != sel[:-1]
    pos = sel[keep]
    return grams[pos], pos
