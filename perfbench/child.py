"""The measured process of the benchmark; ``run.py`` starts and watches it.

It builds or reuses the workload's fixture, starts Ray sized by ``nproc``,
calls ``run_dedup`` until ``--seconds`` have passed, checks every output,
and with ``--trace 1`` also times each layer from outside. Progress and the
result go to the ``--events`` file as JSON lines, so the supervisor can
still report a run this process never ends.

Only the standard library is imported at module level: ``run.py`` imports
the workload table and the metric code from here without starting Ray.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".perfbench_cache")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# n is chosen so one call takes about 6-7 s on one CPU and a run fits five
# calls.
WORKLOADS = {
    "pages_full": {"n": 4000, "extract": True, "skip_substring": False},
    "text_probe": {"n": 8000, "extract": False, "skip_substring": True},
}
FOLD_EVERY = 20            # row i is in the new shard iff i % 20 == 19
RECALL_J = 0.8
RECALL_GATE = 0.99
SETUP_REPEATS = 3
# the base checkpoints run_dedup_incremental reads
FOLD_STAGES = ("docs", "sigs", "verified",
               "substr_fps", "substr_pairs", "substr_spans")
OUT_COLS = ["doc_id", "url", "cluster_id", "is_canonical", "final_text"]

E2E_UNITS = {"wall_s": "s", "docs_per_s": "docs/s", "setup_s": "s"}
PER_LAYER_UNITS = {
    "S1_docs.wall_s": "s", "S1_docs.rows_out": "count",
    "S1_docs.bytes_out": "B",
    "S2_exact.wall_s": "s", "S2_exact.reps_out": "count",
    "S3_minhash.wall_s": "s", "S3_minhash.sigs_out": "count",
    "S4_bands.wall_s": "s", "S4_bands.keys_out": "count",
    "S4_bands.bytes_out": "B",
    "S5_pairs.wall_s": "s", "S5_pairs.candidates_out": "count",
    "S6_verify.wall_s": "s", "S6_verify.verified_out": "count",
    "S6_verify.yield": "ratio",
    "S7_cc.wall_s": "s", "S7_cc.labels_out": "count",
    "S8_mark.wall_s": "s",
    "S9_substr.wall_s": "s", "S9_substr.docs_trimmed": "count",
    "ckpt.write_s": "s", "ckpt.bytes_written": "B",
    "ckpt.read_s": "s", "ckpt.rows_read": "count",
    "fold.wall_s": "s", "fold.new_sigs": "count",
    "fold.verified_new": "count", "fold.substr_pairs_fresh": "count",
    "fold.substr_pairs_reused": "count",
    "recall_j80": "ratio",
    "trace.total_s": "s", "trace.overhead_s": "s", "trace.peak_rss_mb": "MB",
}


def e2e_metrics(setup: dict, done: list[dict]) -> dict:
    """End-to-end metrics from the set-up event and the finished calls;
    a timing comes only from calls that passed every check."""
    m = {"setup_s": setup["setup_s"]}
    walls = [d["wall_s"] for d in done if d["ok"]]
    if walls:
        m["wall_s"] = statistics.median(walls)
        m["docs_per_s"] = setup["n_input"] / m["wall_s"]
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in m.items()}


class Events:
    """Append-only JSON-lines log that the supervisor reads while we run."""

    def __init__(self, path: str):
        self._f = open(path, "a", buffering=1)

    def emit(self, ev: str, **kw) -> None:
        # CLOCK_MONOTONIC is shared by the processes of one machine, so
        # the supervisor can compare these stamps with its own clock
        self._f.write(json.dumps({"ev": ev, "t": time.monotonic(), **kw},
                                 default=str) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


def source_digest() -> str:
    """Digest of the engine's sources: cached fixtures and output digests
    are only reused by the code that made them."""
    pkg = os.path.join(ROOT, "ray_data_mplsh")
    paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(pkg)
                   for f in fs if f.endswith(".py"))
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, pkg).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def ensure_fixture(n: int, seed: int, src: str) -> tuple[str, float]:
    """pages + ground truth + the 95/5 split under the cache, keyed by
    (n, seed, sources). Returns the directory and the seconds spent
    generating (0 on a cache hit)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ray_data_mplsh.fixtures import write_fixture_dir

    d = os.path.join(CACHE, "fixtures", f"n{n}-seed{seed}-{src}")
    if os.path.isdir(d):
        return d, 0.0
    t0 = time.perf_counter()
    tmp = f"{d}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write_fixture_dir(tmp, n, seed)
    pages = pq.read_table(os.path.join(tmp, "pages.parquet"))
    new = pa.array(np.arange(pages.num_rows) % FOLD_EVERY == FOLD_EVERY - 1)
    pq.write_table(pages.filter(pc.invert(new)),
                   os.path.join(tmp, "base.parquet"))
    pq.write_table(pages.filter(new), os.path.join(tmp, "new.parquet"))
    os.rename(tmp, d)
    return d, time.perf_counter() - t0


def load_truth(fixture: str) -> list[tuple[str, str]]:
    """Planted pairs at true Jaccard >= 0.8, as canonical url pairs."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ray_data_mplsh.stages.docs import canonicalize_urls

    gt = pq.read_table(os.path.join(fixture, "gt_pairs.parquet"))
    gt = gt.filter(pc.greater_equal(gt["true_jaccard"], RECALL_J))
    return list(zip(canonicalize_urls(gt["url_a"]).to_pylist(),
                    canonicalize_urls(gt["url_b"]).to_pylist()))


def summarize(out, truth: list[tuple[str, str]]) -> dict:
    """Row count, planted-pair recall and a digest of (doc_id, cluster
    partition, is_canonical, final_text). The partition is labelled by its
    smallest doc_id, so two runs that label clusters differently but group
    them the same digest the same."""
    import numpy as np

    ids = out["doc_id"].to_numpy().astype(np.uint64)
    cid = out["cluster_id"].to_numpy().astype(np.uint64)
    canon = out["is_canonical"].to_numpy()
    uniq, inv = np.unique(cid, return_inverse=True)
    mins = np.full(len(uniq), np.iinfo(np.uint64).max, np.uint64)
    np.minimum.at(mins, inv, ids)
    part = mins[inv]
    url2part = dict(zip(out["url"].to_pylist(), part.tolist()))
    hit = sum(1 for a, b in truth
              if url2part.get(a) is not None
              and url2part.get(a) == url2part.get(b))
    o = np.argsort(ids, kind="stable")
    h = hashlib.sha256()
    for arr in (ids[o], part[o], canon[o].astype(np.uint8)):
        h.update(arr.tobytes())
    texts = out["final_text"].to_pylist()
    for i in o.tolist():
        t = None if texts[i] is None else texts[i].encode()
        h.update(b"-" if t is None else b"%d:" % len(t) + t)
    return {"rows": out.num_rows, "digest": h.hexdigest(),
            "recall_j80": hit / len(truth) if truth else 1.0,
            "n_truth": len(truth), "n_canonical": int(canon.sum())}


def collect(ds, cols: list[str]):
    """The dataset's rows on the driver, as one Arrow table."""
    import pyarrow as pa
    import ray

    tables = [t for t in ray.get(ds.select_columns(cols).to_arrow_refs())
              if t.num_rows]
    return pa.concat_tables(tables) if tables else None


class Checker:
    """The checks every call's output must pass. The expected digest is
    cached by (corpus, n, seed, sources) and shared by the runs of a
    checkout, so every run at a seed must reproduce the first one."""

    def __init__(self, corpus: str, n: int, seed: int, src: str,
                 ref_rows: int, truth: list[tuple[str, str]]):
        self.ref_rows, self.truth = ref_rows, truth
        os.makedirs(os.path.join(CACHE, "digests"), exist_ok=True)
        self._path = os.path.join(CACHE, "digests",
                                  f"{corpus}-n{n}-seed{seed}-{src}.json")
        try:
            with open(self._path) as f:
                self.digest = json.load(f)["digest"]
        except FileNotFoundError:
            self.digest = None

    def __call__(self, out) -> tuple[dict, list[str]]:
        s = summarize(out, self.truth)
        errs = []
        if s["rows"] != self.ref_rows:
            errs.append(f"{s['rows']} rows out, {self.ref_rows} survive S1")
        if s["recall_j80"] < RECALL_GATE:
            errs.append(f"recall_j80 {s['recall_j80']:.4f} < {RECALL_GATE}")
        if self.digest is not None and s["digest"] != self.digest:
            errs.append(f"digest {s['digest'][:16]} != expected "
                        f"{self.digest[:16]}")
        if self.digest is None and not errs:
            self.digest = s["digest"]
            tmp = f"{self._path}.tmp{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump({"digest": self.digest}, f)
            os.replace(tmp, self._path)
        return s, errs


def num_cpus() -> int:
    """CPUs as `nproc` counts them, which also honours OMP_NUM_THREADS."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True,
                              check=True).stdout)


def start_ray() -> None:
    import logging

    import ray
    import ray.data

    kw = {}
    tmp = os.path.join(CACHE, "ray")
    # Ray's socket paths add ~70 bytes under the temp dir, and a Unix
    # socket path may not exceed 107: keep Ray's files in the checkout
    # whenever the path allows it
    if len(tmp) <= 36:
        kw["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=num_cpus(),
             object_store_memory=768 << 20, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}}, **kw)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class RssSampler:
    """Peak summed PSS of this process's session (the driver and every Ray
    process it started), read from /proc every 0.25 s. PSS splits shared
    pages among the processes that map them, so the object store counts
    once. Used in the traced run only: sampling slows a timed run on a
    small machine."""

    def __init__(self):
        self.peak_mb = 0.0
        self._sid = os.getsid(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> float:
        kb = 0
        for p in os.listdir("/proc"):
            if not p.isdigit():
                continue
            try:
                if os.getsid(int(p)) != self._sid:
                    continue
                with open(f"/proc/{p}/smaps_rollup") as f:
                    kb += next(int(ln.split()[1]) for ln in f
                               if ln.startswith("Pss:"))
            except (OSError, ValueError, StopIteration):
                continue
        return kb / 1024

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self._sample())
            self._stop.wait(0.25)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Workload:
    """Inputs, set-up and the public entry-point calls of one workload."""

    def __init__(self, name: str, seed: int, src: str):
        self.seed, self.src = seed, src
        self.spec = WORKLOADS[name]
        self.n = self.spec["n"]
        self.ckpt = os.path.join(CACHE, f"ckpt-{os.getpid()}")

    def pages(self, which: str = "pages"):
        import ray.data as rd

        cols = None if self.spec["extract"] else ["url", "text", "lang"]
        return rd.read_parquet(os.path.join(self.fixture,
                                            f"{which}.parquet"), columns=cols)

    def cfg(self, run_id: str | None = None):
        """The default config; with a run_id, checkpointing under it."""
        from ray_data_mplsh.config import MPLSHConfig

        if run_id is None:
            return MPLSHConfig()
        return MPLSHConfig(ckpt_dir=self.ckpt, run_id=run_id)

    def setup(self, events: Events) -> dict:
        """Fixture, truth, Ray and the S1 row reference. setup_s sums the
        median of SETUP_REPEATS fixture loads (generation on a cache miss
        is reported apart, as fixture_gen_s), the Ray start and the S1
        reference, which is also the process's first, cold Ray Data job."""
        import pyarrow.parquet as pq

        from ray_data_mplsh.stages.docs import docs_stage

        self.fixture, gen_s = ensure_fixture(self.n, self.seed, self.src)
        loads = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            truth = load_truth(self.fixture)
            self.n_input = pq.ParquetFile(os.path.join(
                self.fixture, "pages.parquet")).metadata.num_rows
            loads.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        start_ray()
        ray_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_rows = docs_stage(self.pages(), self.cfg(),
                              extract=self.spec["extract"]).count()
        ref_s = time.perf_counter() - t0
        self.check = Checker("pages" if self.spec["extract"] else "text",
                             self.n, self.seed, self.src, ref_rows, truth)
        parts = {"fixture_load_s": statistics.median(loads),
                 "ray_start_s": ray_s, "s1_reference_s": ref_s}
        info = {"setup_s": sum(parts.values()), **parts,
                "fixture_gen_s": gen_s, "n_input": self.n_input,
                "ref_rows": ref_rows, "n_truth": len(truth)}
        events.emit("setup", **info)
        return info

    def call(self):
        """One run_dedup call: the timed unit."""
        from ray_data_mplsh.pipelines.dedup import run_dedup

        return run_dedup(self.pages(), self.cfg(),
                         extract=self.spec["extract"],
                         skip_substring=self.spec["skip_substring"])

    def close(self) -> None:
        shutil.rmtree(self.ckpt, ignore_errors=True)


def timed_runs(wl: Workload, seconds: float, events: Events) -> list[dict]:
    """Call the entry point until `seconds` have passed (at least once).
    wall_s runs from the call until dedup_out is materialized; the checks
    run after the clock stops."""
    done = []
    t_start = time.perf_counter()
    while not done or time.perf_counter() - t_start < seconds:
        rec = {"i": len(done)}
        events.emit("start", i=rec["i"])
        try:
            t0 = time.perf_counter()
            res = wl.call()
            out = res.dedup_out.materialize()
            rec["wall_s"] = time.perf_counter() - t0
            rec["counters"] = res.counters
            s, rec["errors"] = wl.check(collect(out, OUT_COLS))
            rec.update(s)
            del out
        except Exception:
            rec["errors"] = [traceback.format_exc()]
        rec["ok"] = not rec["errors"]
        for e in rec["errors"]:
            print(f"call {rec['i']} failed: {e}", file=sys.stderr)
        events.emit("done", **rec)
        done.append(rec)
    return done


class Tracer:
    """Spans around each call into a layer, kept in memory and written to
    the sidecar at the end; each span's Dataset.stats() goes with it."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.metrics: dict = {}

    def span(self, name: str, fn, metric: str | None = None):
        """Run fn, which returns a materialized Dataset or None, as the
        span `name`; its wall is the metric `metric` (`name`.wall_s)."""
        t0 = time.perf_counter()
        ds = fn()
        t1 = time.perf_counter()
        self.metrics[metric or f"{name}.wall_s"] = t1 - t0
        self.spans.append({"name": name, "parent": "trace",
                           "start": t0 - self.t0, "end": t1 - self.t0,
                           "stats": ds.stats() if ds is not None else ""})
        return ds


def traced_stages(wl: Workload, tr: Tracer):
    """S1-S9 as run_dedup composes them, one public stage call at a time,
    each materialized before the next (a barrier). Returns the output
    table."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ray_data_mplsh.pipelines.dedup import _only_reps
    from ray_data_mplsh.stages.bands import band_stage
    from ray_data_mplsh.stages.cc import connected_components
    from ray_data_mplsh.stages.docs import docs_stage
    from ray_data_mplsh.stages.exact import exact_dedup_stage
    from ray_data_mplsh.stages.minhash import minhash_stage
    from ray_data_mplsh.stages.output import assign_and_mark, substring_stage
    from ray_data_mplsh.stages.pairs import pairs_stage
    from ray_data_mplsh.stages.shuffle import default_partitions
    from ray_data_mplsh.stages.verify import verify_stage

    cfg, m = wl.cfg(), tr.metrics
    P = default_partitions(cfg.num_partitions)
    docs = tr.span("S1_docs", lambda: docs_stage(
        wl.pages(), cfg, extract=wl.spec["extract"]).materialize())
    m["S1_docs.rows_out"] = docs.count()
    m["S1_docs.bytes_out"] = docs.size_bytes()
    docs_rep = tr.span("S2_exact", lambda: exact_dedup_stage(
        docs, cfg, P).materialize())
    reps = docs_rep.map_batches(_only_reps, batch_format="pyarrow") \
        .materialize()
    m["S2_exact.reps_out"] = reps.count()
    sigs = tr.span("S3_minhash",
                   lambda: minhash_stage(reps, cfg).materialize())
    n_docs = m["S3_minhash.sigs_out"] = sigs.count()
    keys = tr.span("S4_bands", lambda: band_stage(
        sigs, cfg, n_docs=n_docs).materialize())
    m["S4_bands.keys_out"] = keys.count()
    m["S4_bands.bytes_out"] = keys.size_bytes()
    pairs = tr.span("S5_pairs",
                    lambda: pairs_stage(keys, cfg, P).materialize())
    m["S5_pairs.candidates_out"] = pairs.count()
    verified = tr.span("S6_verify", lambda: verify_stage(
        pairs, sigs, cfg, P, n_docs).materialize())
    n_ver = m["S6_verify.verified_out"] = verified.count()
    m["S6_verify.yield"] = n_ver / max(m["S5_pairs.candidates_out"], 1)
    if n_ver:
        labels = tr.span("S7_cc", lambda: connected_components(
            verified, cfg, P, n_edges=n_ver).materialize())
    else:       # run_dedup's empty-graph shortcut
        labels = tr.span("S7_cc", lambda: rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.uint64()),
            "cluster_id": pa.array([], pa.uint64())})))
    m["S7_cc.labels_out"] = labels.count()
    marked = tr.span("S8_mark", lambda: assign_and_mark(
        docs_rep, labels, cfg).materialize())
    if wl.spec["skip_substring"]:
        # run_dedup's skip_substring tail: final_text = text for canonicals
        out = collect(marked, OUT_COLS[:-1] + ["text"])
        return out.append_column("final_text", pc.if_else(
            out["is_canonical"], out["text"], pa.scalar(None, pa.string())))
    was = collect(marked, ["doc_id", "is_canonical"])
    was = dict(zip(was["doc_id"].to_pylist(),
                   was["is_canonical"].to_pylist()))
    out = collect(tr.span("S9_substr", lambda: substring_stage(
        marked, cfg, P).materialize()), OUT_COLS + ["text"])
    m["S9_substr.docs_trimmed"] = sum(
        1 for d, t, f in zip(out["doc_id"].to_pylist(),
                             out["text"].to_pylist(),
                             out["final_text"].to_pylist())
        if was[d] and f != t)
    return out


def traced_fold(wl: Workload, tr: Tracer):
    """state/checkpoint and pipelines/incremental from outside, on the 95/5
    split of the same corpus: build the checkpointed 95% base, read the
    base checkpoints the fold reads, write the same data back under a new
    run id, then fold the 5% shard. Returns the fold's output table, which
    must equal the from-scratch output."""
    import ray.data as rd

    from ray_data_mplsh.pipelines.dedup import run_dedup
    from ray_data_mplsh.pipelines.incremental import run_dedup_incremental
    from ray_data_mplsh.state.checkpoint import _stage_dir, write_stage

    m, base = tr.metrics, wl.cfg("base")
    tr.span("ckpt.base_build", lambda: run_dedup(
        wl.pages("base"), base).dedup_out.materialize())
    read = {}

    def read_all():
        for st in FOLD_STAGES:
            read[st] = rd.read_parquet(_stage_dir(base, st)).materialize()

    tr.span("ckpt.read", read_all, "ckpt.read_s")
    m["ckpt.rows_read"] = sum(ds.count() for ds in read.values())
    copy = dataclasses.replace(base, run_id="copy")

    def write_all():
        for st, ds in read.items():
            write_stage(ds, copy, st, 0.0)

    tr.span("ckpt.write", write_all, "ckpt.write_s")
    m["ckpt.bytes_written"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, fs in os.walk(os.path.join(wl.ckpt, "copy")) for f in fs)
    res = {}

    def fold():
        res["r"] = run_dedup_incremental(
            wl.pages("new"), wl.cfg("fold"), base_run_id="base",
            extract=True, output="joint")
        return res["r"].dedup_out.materialize()

    out = tr.span("fold", fold)
    c = res["r"].counters
    m["fold.new_sigs"] = c["n_new_sigs"]
    m["fold.verified_new"] = c["n_verified_new"]
    m["fold.substr_pairs_fresh"] = c["n_substr_pairs_fresh"]
    m["fold.substr_pairs_reused"] = c["n_substr_pairs_reused"]
    return collect(out, OUT_COLS)


def traced_run(wl: Workload, untraced_median: float,
               events: Events) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, whose outputs are checked
    like a timed call's."""
    events.emit("start", i="trace")
    tr = Tracer()
    rec: dict = {"i": "trace", "errors": []}
    try:
        with RssSampler() as rss:
            s, rec["errors"] = wl.check(traced_stages(wl, tr))
            total = sum(v for k, v in tr.metrics.items()
                        if k.startswith("S") and k.endswith(".wall_s"))
            if wl.spec["extract"]:
                _, errs = wl.check(traced_fold(wl, tr))
                rec["errors"] += [f"fold: {e}" for e in errs]
        rec.update(s)
        tr.metrics.update({"recall_j80": s["recall_j80"],
                           "trace.total_s": total,
                           "trace.overhead_s": total - untraced_median,
                           "trace.peak_rss_mb": rss.peak_mb})
    except Exception:
        rec["errors"].append(traceback.format_exc())
    rec["ok"] = not rec["errors"]
    for e in rec["errors"]:
        print(f"traced run failed: {e}", file=sys.stderr)
    events.emit("done", **rec)
    # a layer this workload does not run reports 0
    metrics = {k: {"value": tr.metrics.get(k, 0), "unit": u}
               for k, u in PER_LAYER_UNITS.items()}
    return rec, {"metrics": metrics, "spans": tr.spans}


def window_probe() -> float | None:
    """The repo's single-thread CPU probe (bench.py), logged beside each run
    set as context for a shared machine, never used as a gate; None once
    bench.py is gone."""
    try:
        from bench import _window_probe
    except ImportError:
        return None
    return _window_probe()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--events", required=True)
    ap.add_argument("--sidecar", required=True)
    a = ap.parse_args()
    sys.path.insert(0, ROOT)
    import ray

    events = Events(a.events)
    probes = [window_probe()]
    wl = Workload(a.workload, a.seed, source_digest())
    try:
        info = wl.setup(events)
        done = timed_runs(wl, a.seconds, events)
        probes.append(window_probe())
        side = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
                "num_cpus": num_cpus(), "n": wl.n, "setup": info,
                "runs": done, "window_probe_s": probes}
        runs = list(done)
        if a.trace:
            walls = [d["wall_s"] for d in done if d["ok"]]
            rec, traced = traced_run(
                wl, statistics.median(walls) if walls else 0.0, events)
            runs.append(rec)
            side.update(traced)
            metrics = traced["metrics"]
        else:
            metrics = e2e_metrics(info, done)
        failed = sum(1 for r in runs if not r["ok"])
        result = {"correct": failed == 0, "attempted": len(runs),
                  "failed": failed, "metrics": metrics}
        side["result"] = result
        with open(a.sidecar, "w") as f:
            json.dump(side, f, indent=1, default=str)
        print(f"{a.workload} seed={a.seed} trace={a.trace}: "
              f"{len(runs) - failed}/{len(runs)} calls ok, window probe "
              f"{probes} s, sidecar {os.path.relpath(a.sidecar, ROOT)}",
              file=sys.stderr)
        events.emit("result", result=result)
    finally:
        wl.close()
        events.close()
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
