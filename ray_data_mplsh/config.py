"""Frozen pipeline configuration (SURVEY.md §A.1, §2.10).

The reference (a single-process C program, SURVEY.md §0.1) exposes its
tunables as CLI args / compile-time constants: ``L`` tables, ``M`` hashes per
table, slot width ``W``, probes ``T`` [MPLSH §2-4]. The graft's equivalents:
``bands`` (~L), ``rows_per_band`` (~M), ``num_perm`` (signature width) and
``probes`` (~T, the multi-probe budget per band).

``digest()`` canonicalizes the config to a stable 16-hex-digit fingerprint;
every checkpoint manifest is keyed by it so a resume never mixes artifacts
from different configs (SURVEY.md §2.1 ops 3-4).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class MPLSHConfig:
    # --- shingling (SURVEY.md op 10-11) ---
    k_shingle: int = 5            # words per shingle [Broder97]
    min_chars: int = 30           # drop docs shorter than this before shingling
    langs: tuple[str, ...] = ()   # keep-list; empty = keep all (op 6)

    # --- MinHash signature (op 12) ---
    num_perm: int = 128           # K minhashes per doc
    seed: int = 0xC0FFEE          # PCG64 seed for the permutation params
    word_hash: str = "sip"        # token hash family: "sip" (pandas
                                  # SipHash-1-3, default) or "poly"
                                  # (poly_str_hashes — SQL-replayable, used
                                  # by oracle-pinned queries)

    # --- LSH banding + multi-probe (op 13; [MPLSH §4]) ---
    bands: int = 16               # b
    rows_per_band: int = 8        # r  (b*r must equal num_perm)
    probes: int = 8               # T: number of 1-mask perturbation keys per band
                                  #    (T <= rows_per_band; 0 disables multi-probe)

    # --- candidate pairing / skew (ops 14-16) ---
    bucket_cap: int = 256         # groups <= cap emit all C(g,2) pairs; larger
                                  # groups emit star pairs (member <-> min id)
    salt_shards: int = 1          # >1: shard every bucket's rows across this many
                                  # partitions and star-link shard minima (op 15)

    # --- verification + clustering (ops 18-19) ---
    theta: float = 0.8            # target similarity of the recall gate
    verify_margin: float = 0.15   # pairs kept when est-Jaccard >= theta - margin
                                  # (margin absorbs K=128 estimator noise so true
                                  #  J>=theta pairs survive with prob ~1; see
                                  #  SURVEY.md §A.1 note)
    max_cc_rounds: int = 50       # hard stop for star-contraction (O(log n) expected)

    # --- substring pass (op 24; [Lee22 §3]) ---
    substr_len: int = 50          # shared-substring length that marks a dup
    substr_bucket_cap: int = 16   # fingerprint buckets above this size are
                                  # star-paired to their min-id anchor: every
                                  # member shares the bucket's k-gram, so the
                                  # anchor contains it too and span extraction
                                  # vs the anchor still finds the shared region
    winnow_k: int = 30            # char-k-gram size for winnowing fingerprints
    winnow_w: int = 21            # winnowing window; guarantees detection of any
                                  # shared span >= winnow_k + winnow_w - 1 = substr_len.
                                  # Density ~2/(w+1) rows/char: w is the lever on
                                  # the fingerprint-shuffle volume (SURVEY.md §4.3)

    # --- physical execution (SURVEY.md §4.3) ---
    num_partitions: int = 0       # 0 = auto (2x cluster CPUs)
    local_state_max_rows: int = 6_000_000
                                  # hybrid execution threshold: reduce-side
                                  # states at most this big (exact-dup member
                                  # maps, fingerprint buckets, pair sets, CC
                                  # edge lists) run as one vectorized
                                  # driver-side kernel instead of a
                                  # distributed shuffle
                                  # (shuffle.local_or_exchange) — a shuffle on
                                  # a tens-of-MB pair list costs more in fixed
                                  # latency than it buys in parallelism (6M
                                  # rows = 96MB driver-side, np.unique in <1s;
                                  # raised from 2M after the 150k-doc bench
                                  # showed its 2.8M winnow pair list just over
                                  # the old cap). The distributed path is the
                                  # >threshold route; 0 forces it everywhere,
                                  # which is how the tests cover it
    broadcast_max_docs: int = 200_000
                                  # small-side lookups (signatures, labels) are
                                  # broadcast via ray.put below this doc count;
                                  # above it the pair-attach stages take
                                  # shuffle.pair_apply's two-hop exchange
    substr_broadcast_max_bytes: int = 1 << 30
                                  # the substring pass broadcasts canonical
                                  # TEXTS (not fixed-width sigs), so its
                                  # broadcast-vs-shuffle gate is also byte-
                                  # based: above this total text volume the
                                  # pair-keyed shuffle attach is used even
                                  # when the doc count is under
                                  # broadcast_max_docs. The default is a
                                  # driver/object-store safety bound; below
                                  # it the one-shot broadcast is measurably
                                  # faster than two text-bearing exchanges
                                  # (single-node bench: 509MB broadcast beat
                                  # the shuffle attach by ~30s per run).
                                  # S2 gathers its corpus whole to the
                                  # driver only under this bound too
    minhash_batch_size: int = 1024

    # --- checkpointing (ops 3-4) ---
    ckpt_dir: str = ""            # "" = no checkpoints
    run_id: str = "run0"

    def __post_init__(self) -> None:
        if self.bands * self.rows_per_band != self.num_perm:
            raise ValueError(
                f"bands*rows_per_band ({self.bands}*{self.rows_per_band}) "
                f"must equal num_perm ({self.num_perm})")
        if not 0 <= self.probes <= self.rows_per_band:
            raise ValueError("probes must be in [0, rows_per_band]")
        if self.word_hash not in ("sip", "poly"):
            raise ValueError("word_hash must be 'sip' or 'poly'")

    @property
    def verify_theta(self) -> float:
        return self.theta - self.verify_margin

    def digest(self) -> str:
        """Stable 16-hex fingerprint of the *semantic* fields (physical knobs
        like batch sizes do not change results and are excluded)."""
        from ray_data_mplsh.functions.hashing import hash_bytes_u64

        sem = {
            k: v for k, v in asdict(self).items()
            if k not in ("num_partitions", "minhash_batch_size",
                         "ckpt_dir", "run_id",
                         "broadcast_max_docs", "local_state_max_rows",
                         "substr_broadcast_max_bytes")
        }
        blob = json.dumps(sem, sort_keys=True, default=list).encode()
        return f"{hash_bytes_u64(blob):016x}"
