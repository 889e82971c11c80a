"""Byte-exact HTML -> text extraction (SURVEY.md op 5; FIXTURES.md §3).

The per-url invariant (BASELINE.json:6,15): for every fixture page,
``extract_html(html) == text`` byte-for-byte. The spec is frozen and
deliberately heuristic-free:

  1. decode UTF-8 (errors=replace)
  2. remove <script>...</script>, <style>...</style>, <!-- ... --> blocks
  3. strip all remaining tags
  4. decode exactly these entities: &amp; &lt; &gt; &quot; &#39; &nbsp;
  5. collapse runs of [ \\t\\r\\n] to a single space; strip ends

Also hosts the shingling-view tokenizer (op 10): casefold, punctuation
to space, split on whitespace — applied only for shingling; the ``text``
column itself stays byte-exact. ``word_hashes`` is what S3 runs: one hash
per token from the Arrow buffers, with a byte-table path for pure-ASCII
docs and ``tokenize_batch`` (pandas string ops, Unicode casefold and
word classes) for the rest; each distinct word of a batch is hashed once.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ray_data_mplsh.functions.hashing import utf8_flat

_SCRIPT_RE = re.compile(rb"<script\b.*?</script\s*>", re.IGNORECASE | re.DOTALL)
_STYLE_RE = re.compile(rb"<style\b.*?</style\s*>", re.IGNORECASE | re.DOTALL)
_COMMENT_RE = re.compile(rb"<!--.*?-->", re.DOTALL)
_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile(r"[ \t\r\n]+")

# Fixed entity table — applied in this exact order; &amp; last so that
# literal "&amp;lt;" round-trips as "&lt;" not "<".
_ENTITIES = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
             ("&#39;", "'"), ("&nbsp;", " "), ("&amp;", "&")]


def extract_html(html: bytes) -> str:
    """Extract text from one page per the frozen spec above."""
    html = _SCRIPT_RE.sub(b" ", html)
    html = _STYLE_RE.sub(b" ", html)
    html = _COMMENT_RE.sub(b" ", html)
    s = html.decode("utf-8", errors="replace")
    s = _TAG_RE.sub(" ", s)
    for ent, ch in _ENTITIES:
        s = s.replace(ent, ch)
    return _WS_RE.sub(" ", s).strip()


def extract_batch(htmls) -> pd.Series:
    """Vector wrapper: pyarrow binary array / pandas Series -> text Series.

    The regex passes run per document (documents are independent), but the
    loop body is pure C-level regex work — no per-token Python.
    """
    import pyarrow as pa

    if isinstance(htmls, (pa.Array, pa.ChunkedArray)):
        htmls = htmls.to_pandas()
    return pd.Series([extract_html(h) for h in htmls], dtype="object")


# --- shingling-view normalization (op 10) -------------------------------

_PUNCT_RE = re.compile(r"[^\w\s]+", re.UNICODE)


def tokenize_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """Normalize + tokenize a batch of texts for shingling.

    Returns ``(flat_words, doc_offsets)``: an object ndarray of all tokens
    (docs concatenated) and int64 start offsets (len = ndocs + 1).
    Normalization: casefold, strip punctuation, split on whitespace.
    Runs on pandas' C string kernels.
    """
    import pyarrow as pa

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = texts.to_pandas()
    s = pd.Series(texts, dtype="object").fillna("")
    s = s.str.casefold().str.replace(_PUNCT_RE, " ", regex=True)
    toks = s.str.split()
    counts = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
    offsets = np.zeros(len(s) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=object)
    pos = 0
    for t in toks:
        if t:
            flat[pos:pos + len(t)] = t
            pos += len(t)
    return flat, offsets


# ASCII byte -> shingling view: [0-9a-z_] stay, A-Z fold to a-z (ASCII
# casefold is lower), every other byte becomes a space. On ASCII text
# ``[^\w\s]+`` -> space then ``split()`` keeps exactly the maximal
# [0-9A-Za-z_] runs, so the tokens are the maximal runs of non-space bytes.
_ASCII_WORD_MAP = np.full(256, 0x20, np.uint8)
for _c in b"0123456789_abcdefghijklmnopqrstuvwxyz":
    _ASCII_WORD_MAP[_c] = _c
    if 0x61 <= _c <= 0x7A:
        _ASCII_WORD_MAP[_c - 0x20] = _c


def _ascii_words(arr):
    """``tokenize_batch`` of pure-ASCII docs, without Python objects:
    (tokens as a large_string array, token offsets int64 len n+1)."""
    import pyarrow as pa

    offs, data = utf8_flat(arr)
    m = _ASCII_WORD_MAP[data]
    keep = m != 0x20
    edge = np.diff(keep.view(np.int8), prepend=np.int8(0),
                   append=np.int8(0))
    starts = np.flatnonzero(edge == 1)
    ends = np.flatnonzero(edge == -1)
    # a run that crosses a doc boundary is two tokens (empty docs repeat
    # a boundary offset)
    b = np.unique(offs[1:-1])
    b = b[(b > 0) & (b < len(keep))]
    b = b[keep[b - 1] & keep[b]]
    if len(b):
        starts = np.insert(starts, np.searchsorted(starts, b), b)
        ends = np.insert(ends, np.searchsorted(ends, b), b)
    tok_offs = np.zeros(len(starts) + 1, np.int64)
    np.cumsum(ends - starts, out=tok_offs[1:])
    toks = pa.LargeStringArray.from_buffers(
        len(starts), pa.py_buffer(tok_offs), pa.py_buffer(m[keep]))
    return toks, np.searchsorted(starts, offs).astype(np.int64)


def word_hashes(texts, word_hash) -> tuple[np.ndarray, np.ndarray]:
    """``(word_hash(tokenize_batch(texts)[0]), its doc offsets)``, bit for
    bit, for an Arrow string (Chunked)Array: uint64 hashes of all tokens
    (docs concatenated) and int64 start offsets (len = ndocs + 1).
    ``word_hash`` is a per-string hash (``hash_str_array`` or
    ``poly_str_hashes``).

    Pure-ASCII docs (``pc.string_is_ascii``) are tokenized on their bytes
    by ``_ASCII_WORD_MAP``; the others go through ``tokenize_batch`` and
    the two token streams are merged back into doc order. The tokens are
    then dictionary-encoded in Arrow, so ``word_hash`` runs once per
    distinct word (a 1,024-doc batch has ~370k tokens but ~5k words) and
    its hashes are expanded by the dictionary indices."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.null_count:
        texts = pc.fill_null(texts, "")
    n = len(texts)
    ascii_ = pc.string_is_ascii(texts).to_numpy(zero_copy_only=False)
    if ascii_.all():
        toks, offs = _ascii_words(texts)
    else:
        ia, iu = np.flatnonzero(ascii_), np.flatnonzero(~ascii_)
        ta, oa = _ascii_words(texts.take(ia))
        wu, ou = tokenize_batch(texts.take(iu))
        counts = np.empty(n, np.int64)
        counts[ia], counts[iu] = np.diff(oa), np.diff(ou)
        src = np.empty(n, np.int64)
        src[ia], src[iu] = oa[:-1], len(ta) + ou[:-1]
        offs = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        # token i of doc d sits at src[d] + (i - offs[d]) of ta ++ tu
        idx = np.repeat(src - offs[:-1], counts) + np.arange(offs[-1])
        toks = pa.concat_arrays(
            [ta, pa.array(wu, pa.large_string())]).take(pa.array(idx))
    enc = toks.dictionary_encode()
    wh = np.asarray(word_hash(enc.dictionary), np.uint64)
    return wh[enc.indices.to_numpy()], offs
