"""Deterministic synthetic webtext fixture with planted duplicates.

Implements FIXTURES.md: a ``pages`` table in exactly the input_hint shape
(url, warc_ts, html, text, lang) plus ground-truth sidecars
(``gt_pairs``, ``gt_clusters``). Everything derives from (seed, doc index,
total n) — no wall clock, no global RNG — so any row can be regenerated
independently inside any Ray task at any parallelism level
(BASELINE.json:15 "synthesise it deterministically at small scale").

Planted structure (fractions of n): 60% independent base docs, 10% exact
dups, 15% near-dups at Jaccard [0.85, 0.98], 10% near-dups straddling the
b=16/r=8 LSH threshold at Jaccard [0.70, 0.85] (the rows that force
multi-probe, SURVEY.md §A.2), 5% substring dups (a >=substr_len-char span of
a base doc embedded verbatim in an unrelated doc). 40% of exact dups copy
one of 3 "hot" bases to plant genuinely hot LSH buckets (SURVEY.md op 15),
and whole dup families share a 200-token boilerplate block (20%-ish of
docs) for additional bucket pressure.

HTML is rendered from ``text`` by a fixed template that the frozen extractor
(functions/extract.py) inverts exactly, giving the byte-identical-per-url
invariant (BASELINE.json:6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.functions.hashing import hash_bytes_u64

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])

GT_PAIRS_SCHEMA = pa.schema([
    ("url_a", pa.string()),
    ("url_b", pa.string()),
    ("true_jaccard", pa.float64()),
    ("kind", pa.string()),
])

GT_CLUSTERS_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("gt_cluster_id", pa.int64()),
])

_EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00 in microseconds
_LANGS = ["en"] * 70 + ["fr"] * 10 + ["es"] * 8 + ["de"] * 7 + ["zh"] * 5
_VOCAB_N = 5000
_K_SHINGLE = 5  # the fixture's ground-truth shingle width == config default

_FRAC = {"exact": 0.10, "near_high": 0.15, "near_band": 0.10, "substring": 0.05}
_HOT_BASES = 3          # exact dups concentrate on this many bases
_HOT_FRAC = 0.4         # fraction of exact dups that copy a hot base
_BOILER_EVERY = 5       # base families with base_idx % 5 == 0 get boilerplate
_SHORT_EVERY = 97       # bases with idx % 97 == 0 are very short (filter tests)


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(hash_bytes_u64(
        f"{seed}:{tag}".encode())))


def _vocab() -> list[str]:
    words = [f"w{i}" for i in range(_VOCAB_N)]
    # a few tokens that exercise HTML entity escaping end-to-end
    words[17] = "r&d"
    words[42] = "a<b"
    words[99] = 'q>"z'
    return words


_VOCAB = _vocab()
_BOILER = " ".join(f"b{i % 173}" for i in range(200))


class Plan:
    """Deterministic index layout for a corpus of n docs."""

    def __init__(self, n: int):
        self.n = n
        self.n_exact = int(n * _FRAC["exact"])
        self.n_high = int(n * _FRAC["near_high"])
        self.n_band = int(n * _FRAC["near_band"])
        self.n_sub = int(n * _FRAC["substring"])
        self.n_base = n - self.n_exact - self.n_high - self.n_band - self.n_sub
        # index ranges: [bases][exact][near_high][near_band][substring]
        self.o_exact = self.n_base
        self.o_high = self.o_exact + self.n_exact
        self.o_band = self.o_high + self.n_high
        self.o_sub = self.o_band + self.n_band

    def kind_of(self, i: int) -> str:
        if i < self.o_exact:
            return "base"
        if i < self.o_high:
            return "exact"
        if i < self.o_band:
            return "near_high"
        if i < self.o_sub:
            return "near_band"
        return "substring"

    def base_of(self, i: int, seed: int) -> int:
        """The base doc a derived doc i duplicates. Short bases excluded."""
        kind = self.kind_of(i)
        if kind == "base":
            return i
        if kind == "exact":
            d = i - self.o_exact
            if d < int(self.n_exact * _HOT_FRAC):
                b = 1 + d % _HOT_BASES      # hot bases 1..3 (0 may be short)
                return b
        h = hash_bytes_u64(f"{seed}:basemap:{i}".encode())
        b = int(h % max(self.n_base, 1))
        if b % _SHORT_EVERY == 0:           # never derive from a short base
            b = (b + 1) % max(self.n_base, 1)
        return b


def _base_tokens(seed: int, base_idx: int) -> list[str]:
    rng = _rng(seed, f"base:{base_idx}")
    if base_idx % _SHORT_EVERY == 0:
        n_words = int(rng.integers(2, 8))
    else:
        n_words = int(rng.integers(50, 601))
    # zipf-ish skew over the vocabulary
    idx = (np.asarray(rng.random(n_words)) ** 2.5 * _VOCAB_N).astype(np.int64)
    toks = [_VOCAB[j] for j in idx]
    if (base_idx % _BOILER_EVERY) == 0 and base_idx % _SHORT_EVERY != 0:
        toks = toks + _BOILER.split(" ")
    return toks


def _shingle_set(tokens: list[str]) -> set[tuple[str, ...]]:
    k = _K_SHINGLE
    return {tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def _jaccard_tokens(a: list[str], b: list[str]) -> float:
    sa, sb = _shingle_set(a), _shingle_set(b)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _edit(tokens: list[str], e: int, rng: np.random.Generator) -> list[str]:
    """e token edits (substitute/insert/delete, 60/20/20) at seeded spots."""
    out = list(tokens)
    for _ in range(e):
        if not out:
            break
        op = rng.random()
        p = int(rng.integers(0, len(out)))
        w = _VOCAB[int(rng.random() ** 2.5 * _VOCAB_N)]
        if op < 0.6:
            out[p] = w
        elif op < 0.8:
            out.insert(p, w)
        else:
            del out[p]
    return out


def _derived_tokens(seed: int, i: int, plan: Plan) -> tuple[list[str], int, float]:
    """tokens, base index, and exact 5-shingle Jaccard vs the base."""
    kind = plan.kind_of(i)
    b = plan.base_of(i, seed)
    base = _base_tokens(seed, b)
    if kind == "exact":
        return base, b, 1.0
    rng = _rng(seed, f"edit:{i}")
    if kind == "substring":
        other_rng = _rng(seed, f"subbase:{i}")
        n_words = int(other_rng.integers(80, 400))
        idx = (np.asarray(other_rng.random(n_words)) ** 2.5 * _VOCAB_N
               ).astype(np.int64)
        host = [_VOCAB[j] for j in idx]
        # embed a >=60-char span of the base doc verbatim
        span, clen, s0 = [], 0, int(rng.integers(0, max(len(base) - 25, 1)))
        for t in base[s0:]:
            span.append(t)
            clen += len(t) + 1
            if clen >= 70:
                break
        at = int(rng.integers(0, len(host) + 1))
        toks = host[:at] + span + host[at:]
        return toks, b, _jaccard_tokens(toks, base)
    lo, hi = ((0.85, 0.98) if kind == "near_high" else (0.70, 0.85))
    target = (lo + hi) / 2
    s_est = max(len(base) - _K_SHINGLE + 1, 1)
    e = max(int(round(s_est * (1 - target) / (_K_SHINGLE * (1 + target)))), 1)
    best, best_j, best_d = None, -1.0, 9.9
    for _ in range(24):
        cand = _edit(base, e, _rng(seed, f"edit:{i}:{e}"))
        j = _jaccard_tokens(cand, base)
        d = 0.0 if lo <= j <= hi else min(abs(j - lo), abs(j - hi))
        if d < best_d:
            best, best_j, best_d = cand, j, d
        if d == 0.0:
            break
        e = max(e + (1 if j > hi else -1), 1)
    return best, b, best_j


def doc_tokens(seed: int, i: int, plan: Plan) -> tuple[list[str], int, float, str]:
    """(tokens, base_idx, true_jaccard_vs_base, kind) for doc index i."""
    kind = plan.kind_of(i)
    if kind == "base":
        return _base_tokens(seed, i), i, 1.0, kind
    toks, b, j = _derived_tokens(seed, i, plan)
    return toks, b, j, kind


def _url(i: int) -> str:
    return f"https://site{i % 97}.example/p/{i}"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_html(text: str, seed_hex: str) -> bytes:
    """Fixed template, exactly inverted by functions.extract.extract_html."""
    toks = text.split(" ") if text else []
    parts = []
    for j, t in enumerate(toks):
        if j and j % 12 == 0:
            parts.append("</p>\n<p>")
        elif j:
            parts.append(" ")
        parts.append(_escape(t))
    body = "".join(parts)
    meta = _escape(" ".join(toks[:5]))
    html = (
        "<!doctype html><html><head><title></title>"
        f'<meta name="t" content="{meta}">'
        f'<script>var x="{seed_hex}";</script>'
        "<style>.c{color:#aaa}</style></head>"
        f"<body><!-- c{seed_hex} --><div class=\"m\"><p>{body}</p></div>"
        "</body></html>"
    )
    return html.encode("utf-8")


def gen_pages_batch(indices: np.ndarray, n: int, seed: int) -> pa.Table:
    """pages rows for a batch of doc indices — the map_batches body."""
    plan = Plan(n)
    urls, ts, htmls, texts, langs = [], [], [], [], []
    for i in map(int, indices):
        toks, _, _, _ = doc_tokens(seed, i, plan)
        text = " ".join(toks)
        h = hash_bytes_u64(f"{seed}:page:{i}".encode())
        urls.append(_url(i))
        ts.append(_EPOCH_US + i * 1_000_000)
        htmls.append(render_html(text, f"{h:016x}"))
        texts.append(text)
        langs.append(_LANGS[h % len(_LANGS)])
    return pa.Table.from_arrays([
        pa.array(urls, pa.string()),
        pa.array(ts, pa.timestamp("us")),
        pa.array(htmls, pa.binary()),
        pa.array(texts, pa.string()),
        pa.array(langs, pa.string()),
    ], schema=PAGES_SCHEMA)


def gen_gt_pairs_batch(indices: np.ndarray, n: int, seed: int) -> pa.Table:
    """GT pair rows (derived doc <-> its base) for a batch of indices."""
    plan = Plan(n)
    ua, ub, jj, kk = [], [], [], []
    for i in map(int, indices):
        kind = plan.kind_of(i)
        if kind == "base":
            continue
        _, b, j, kind = doc_tokens(seed, i, plan)
        ua.append(_url(min(b, i)))
        ub.append(_url(max(b, i)))
        jj.append(j)
        kk.append(kind)
    return pa.Table.from_arrays(
        [pa.array(ua), pa.array(ub), pa.array(jj, pa.float64()),
         pa.array(kk)], schema=GT_PAIRS_SCHEMA)


def gen_gt_clusters_batch(indices: np.ndarray, n: int, seed: int) -> pa.Table:
    plan = Plan(n)
    urls, cids = [], []
    for i in map(int, indices):
        kind = plan.kind_of(i)
        if kind in ("base", "substring"):
            cid = i
        else:
            cid = plan.base_of(i, seed)
        urls.append(_url(i))
        cids.append(cid)
    return pa.Table.from_arrays([pa.array(urls), pa.array(cids, pa.int64())],
                                schema=GT_CLUSTERS_SCHEMA)


def gen_pages_table(n: int, seed: int = 7) -> pa.Table:
    """Single-process generation (unit tests / tiny fixtures)."""
    return gen_pages_batch(np.arange(n), n, seed)


def gen_gt_tables(n: int, seed: int = 7) -> tuple[pa.Table, pa.Table]:
    idx = np.arange(n)
    return (gen_gt_pairs_batch(idx, n, seed),
            gen_gt_clusters_batch(idx, n, seed))


def synth_pages(n: int, seed: int = 7, *, parallelism: int = -1):
    """Distributed fixture generation: ray.data.range(n) -> pages rows
    (SURVEY.md op 2). Seeds derive from row ids, never from the clock."""
    import ray.data

    def _gen(batch: pa.Table) -> pa.Table:
        return gen_pages_batch(batch["id"].to_numpy(), n, seed)

    return ray.data.range(n, override_num_blocks=(
        parallelism if parallelism > 0 else None)).map_batches(
        _gen, batch_format="pyarrow", batch_size=512)


def write_fixture_dir(out_dir: str, n: int, seed: int = 7,
                      use_ray: bool = False) -> None:
    """pages.parquet (+ gt sidecars) under out_dir, for tests and bench."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    if use_ray:
        synth_pages(n, seed).write_parquet(os.path.join(out_dir, "pages"))
    else:
        pq.write_table(gen_pages_table(n, seed),
                       os.path.join(out_dir, "pages.parquet"))
    pairs, clusters = gen_gt_tables(n, seed)
    pq.write_table(pairs, os.path.join(out_dir, "gt_pairs.parquet"))
    pq.write_table(clusters, os.path.join(out_dir, "gt_clusters.parquet"))
