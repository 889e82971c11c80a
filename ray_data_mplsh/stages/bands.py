"""S4: LSH band keys + multi-probe perturbation keys (SURVEY.md op 13).

The reference's namesake idea [MPLSH §4] transplanted to banded MinHash
(SURVEY.md §A.2): besides the exact key of each of the b bands, emit T
perturbation keys per band, the t-th computed with slot t-1 replaced by a
sentinel. Two docs collide on a t-masked key iff they agree on the other
r-1 slots of the band — collision probability s^(r-1) instead of s^r —
which lifts dup-pair recall past 0.99 at the same (b, r, K) signature
config without multiplying bands (the paper's probes-for-tables trade,
[MPLSH §1]).

In the discrete MinHash space all 1-mask probes are equiprobable, so
[MPLSH §4.3]'s query-directed score order degenerates to slot order; the
continuous-space score-ordered generator lives in functions/perturb.py and
drives the SimHash mode, where per-bit margins give non-trivial scores.

1 row in -> b*(1+T) rows out. Stateless, vectorized; the emitter is the
``prep`` of S5's ``pairs.bucket_pairs``, so the expansion streams
straight into the S5 shuffle and is never materialized (SURVEY.md §4.3),
or, when the key stream fits ``local_state_max_rows``, is built and
bucketed in one driver pass. ``band_stage`` is the stand-alone S4 map,
for a per-stage trace that materializes the keys and pairs them with
``pairs.pairs_stage``; its batch size comes from the bundling policy next
to the exchange it feeds (``pairs.emit_batch_size``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.functions.hashing import MASK_SENTINEL, combine_rows
from ray_data_mplsh.stages.minhash import sig_matrix

BAND_SCHEMA = pa.schema([
    ("doc_id", pa.uint64()),
    ("band_hash", pa.uint64()),
])


def band_probe_keys(sig: np.ndarray, cfg: MPLSHConfig) -> np.ndarray:
    """band_hash array of length n*b*(1+T) for an (n, K) signature matrix,
    doc-major: per doc, band 0 probes 0..T, then band 1, ... The (band,
    probe) namespace is folded into the hash prefix so keys only collide
    within the same band and mask slot — S5 needs no band_id/probe_rank
    column."""
    n = sig.shape[0]
    r = cfg.rows_per_band
    hashes = np.empty((cfg.bands, 1 + cfg.probes, n), dtype=np.uint64)
    for band in range(cfg.bands):
        slots = sig[:, band * r:(band + 1) * r]
        for t in range(cfg.probes + 1):
            key_slots = slots
            if t > 0:
                key_slots = slots.copy()
                key_slots[:, t - 1] = MASK_SENTINEL
            prefix = np.uint64(band * (r + 1) + t)
            hashes[band, t] = combine_rows(key_slots, prefix=prefix)
    # layout: all keys of doc 0, then doc 1, ... (transpose the doc axis last)
    return hashes.transpose(2, 0, 1).reshape(-1)


def make_band_emitter(cfg: MPLSHConfig):
    per_doc = cfg.bands * (1 + cfg.probes)

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.Table.from_arrays([
            pa.array(np.repeat(ids, per_doc), pa.uint64()),
            pa.array(band_probe_keys(sig_matrix(batch), cfg), pa.uint64()),
        ], schema=BAND_SCHEMA)

    return emit


def band_stage(sigs, cfg: MPLSHConfig, n_docs: int | None = None):
    """Emit (doc_id, band_hash) keys, bundled by the pairing exchange's
    policy (``pairs.emit_batch_size``)."""
    from ray_data_mplsh.stages.pairs import emit_batch_size  # pairs imports us

    return sigs.map_batches(make_band_emitter(cfg), batch_format="pyarrow",
                            batch_size=emit_batch_size(n_docs))
