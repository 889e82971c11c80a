"""The flagship pipeline: S0-S10 near-dup detection + clustering
(SURVEY.md §3.2; BASELINE.json:6 north star).

Streaming by construction: stages are lazy ``Dataset`` transforms; only
the small artifacts (signatures for rebroadcast, verified pairs, the edge
set inside the CC loop) are materialized. The full corpus is never
collected to the driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

from ray_data_mplsh.config import MPLSHConfig
from ray_data_mplsh.stages.cc import connected_components
from ray_data_mplsh.stages.docs import docs_stage
from ray_data_mplsh.stages.exact import exact_dedup_stage
from ray_data_mplsh.stages.minhash import minhash_stage
from ray_data_mplsh.stages.output import (
    assign_and_mark, final_text_unchanged, substring_stage,
)
from ray_data_mplsh.stages.pairs import candidate_pairs
from ray_data_mplsh.stages.shuffle import default_partitions
from ray_data_mplsh.stages.verify import verify_stage
from ray_data_mplsh.state.checkpoint import read_stage_or_compute


@dataclass
class DedupResult:
    docs: "ray.data.Dataset"        # docs + text_hash + rep_id
    sigs: "ray.data.Dataset"        # rep doc_id, sig, n_shingles
    pairs: "ray.data.Dataset"       # candidate pairs (a, b)
    verified: "ray.data.Dataset"    # (a, b, jaccard)
    labels: "ray.data.Dataset"      # (doc_id, cluster_id) for clustered nodes
    dedup_out: "ray.data.Dataset"   # docs + cluster_id + is_canonical + final_text
    counters: dict = field(default_factory=dict)


def _only_reps(batch: pa.Table) -> pa.Table:
    return batch.filter(pc.equal(batch["doc_id"], batch["rep_id"]))


def run_dedup(pages, cfg: MPLSHConfig, *, extract: bool = True,
              url_col: str = "url", text_col: str = "text",
              lang_col: str = "lang", skip_substring: bool = False
              ) -> DedupResult:
    P = default_partitions(cfg.num_partitions)
    counters: dict = {"num_partitions": P}
    t0 = time.monotonic()

    # S1: extract + filter + ids; S2: exact dedup
    # exact_dedup_stage materializes the hashed corpus internally and
    # returns a cheap broadcast-lookup map over it, so no extra
    # materialize barrier is needed for reuse (reps -> sigs, all -> output)
    docs_rep = read_stage_or_compute(
        cfg, "docs",
        lambda: exact_dedup_stage(
            docs_stage(pages, cfg, extract=extract, url_col=url_col,
                       text_col=text_col, lang_col=lang_col), cfg, P),
        counters)
    reps = docs_rep.map_batches(_only_reps, batch_format="pyarrow")

    # S3: MinHash signatures (plain tasks) — the expensive stage, checkpointed
    sigs = read_stage_or_compute(cfg, "sigs",
                                 lambda: minhash_stage(reps, cfg), counters)
    sigs = sigs.materialize()
    n_docs = sigs.count()
    counters["n_docs_sig"] = n_docs

    # S4-S5: band/probe keys -> candidate pairs (never materialized
    # between; one driver pass when the key stream fits)
    pairs = read_stage_or_compute(
        cfg, "pairs",
        lambda: candidate_pairs(sigs, cfg, P, n_docs, counters), counters)

    # S6: Jaccard verification
    verified = read_stage_or_compute(
        cfg, "verified",
        lambda: verify_stage(pairs, sigs, cfg, P, n_docs), counters)
    verified = verified.materialize()
    counters["n_verified"] = verified.count()

    # S7: union-find via star contraction. An edgeless graph's typed empty
    # labels are not checkpointed: Ray writes an empty Dataset as
    # schemaless parquet.
    def _cc():
        return connected_components(verified, cfg, P,
                                    n_edges=counters["n_verified"])

    labels = read_stage_or_compute(cfg, "labels", _cc, counters) \
        if counters["n_verified"] else _cc()

    # S8: cluster assignment + canonical flag (incl. exact-dup members):
    # a lazy map that launches no job — is_canonical is
    # doc_id == cluster_id, see assign_and_mark
    marked = assign_and_mark(docs_rep, labels, cfg)

    # S9: winnow-anchored substring pass over canonical survivors.
    # substring_stage runs eager driver work (anchored canon materialize,
    # span merge), so it is built INSIDE the resume lambda — a run whose
    # dedup_out checkpoint is valid skips S9 entirely.
    def _s9():
        if skip_substring:
            return final_text_unchanged(marked)
        return substring_stage(marked, cfg, P)

    out = read_stage_or_compute(cfg, "dedup_out", _s9, counters)

    counters["wall_s"] = time.monotonic() - t0
    if cfg.ckpt_dir:
        import json
        import os

        run_dir = os.path.join(cfg.ckpt_dir, cfg.run_id)
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "metrics.json"), "w") as f:
            json.dump({"config_digest": cfg.digest(), **counters}, f,
                      indent=1)
    return DedupResult(docs=docs_rep, sigs=sigs, pairs=pairs,
                       verified=verified, labels=labels, dedup_out=out,
                       counters=counters)
