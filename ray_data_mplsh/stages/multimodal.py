"""Multimodal columns: image/audio/video as opaque ``binary`` columns with
typed metadata, processed by plain-task ``map_batches`` stages.

Since round 4 the decode kernel is REAL for every format decodable
without a codec dependency — BMP / PPM / PNG images (PNG via the stdlib
zlib inflate + numpy scanline unfiltering), baseline JPEG (a from-spec
pure-numpy codec, ``functions/jpegcodec.py``: 4:4:4 / 4:2:0, restart
markers, quality-scaled Annex-K tables), PCM WAV audio, and Y4M
(YUV4MPEG2) video with real frame counting + sampling — all via the
pure-numpy/stdlib codecs in ``functions/mediacodec.py`` (header parse
to pixels/samples/frames, nearest-neighbor resample, content-derived
features). Only formats whose bitstreams genuinely require a codec
library (H.264/MP4, VP9, HEIC...) fall back to the deterministic stub,
and swapping in a codec-backed decoder (PIL / torchaudio / pyav) still
changes no pipeline code: every Ray-side concern — media schema,
per-process one-time setup, small-batch sizing for large payloads, output
layout — is format-independent.

Media table schema (T-media):
    media_id:uint64, media_type:string ('image'|'audio'|'video'),
    payload:binary, width:int32, height:int32, sample_rate:int32

Stages:
    MediaDecoder      payload -> decoded dims + a feature vector
    frame_sampler     video rows -> one row per sampled frame index
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.functions.hashing import hash_bytes_u64, mix64

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.uint64()),
    ("media_type", pa.string()),
    ("payload", pa.binary()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),
])

FEATURE_DIM = 16


def _decode_stub(payload: bytes, media_type: str) -> np.ndarray:
    """Deterministic fallback for CODEC-REQUIRING formats only (H.264 /
    MP4 / VP9...): a FEATURE_DIM float vector derived from the payload
    bytes. BMP/PPM/PNG/JPEG/WAV/Y4M payloads never reach this —
    ``decode_payload`` runs the real pure-numpy/stdlib kernels first.
    Replace with a codec-backed decoder when the libs are present; the
    signature (bytes, type) -> feature vector is the contract.

    Env probe 2026-08-18 (round 4): PIL, cv2, imageio, skimage,
    torchvision and matplotlib are ALL absent from this container, so
    for compressed formats the stub stays load-bearing by environment,
    not by choice — the ImportError guard below flips to the real path
    automatically the first time a codec lib appears."""
    try:  # the codec-backed path, absent in this container
        import PIL.Image  # noqa: F401
        raise NotImplementedError(
            "codec decode not wired; remove the stub when PIL exists")
    except ImportError:
        pass
    h = np.uint64(hash_bytes_u64(payload[:64]))
    seeds = mix64(np.arange(FEATURE_DIM, dtype=np.uint64) + h)
    return (seeds.astype(np.float64) / 2**64).astype(np.float32)


def decode_payload(payload: bytes, media_type: str) -> np.ndarray:
    """Real decode + featurize for the codec-free envelope (BMP/PPM/PNG/
    baseline-JPEG pixels, PCM-WAV samples, Y4M frames —
    functions/mediacodec.py + functions/jpegcodec.py), stub features for
    everything else. Content-derived either way: byte-identical payloads
    map to identical features at any batching."""
    from ray_data_mplsh.functions import mediacodec as mc

    try:
        kind = mc.sniff(payload)
        if kind == "bmp":
            return mc.image_features(mc.decode_bmp(payload), FEATURE_DIM)
        if kind == "ppm":
            return mc.image_features(mc.decode_ppm(payload), FEATURE_DIM)
        if kind == "png":
            # alpha is presentation, not content: features on RGB
            return mc.image_features(mc.decode_png(payload)[..., :3],
                                     FEATURE_DIM)
        if kind == "jpg":
            from ray_data_mplsh.functions.jpegcodec import decode_jpeg
            return mc.image_features(decode_jpeg(payload), FEATURE_DIM)
        if kind == "wav":
            return mc.audio_features(*mc.decode_wav(payload),
                                     dim=FEATURE_DIM)
        if kind == "y4m":
            return mc.video_features(mc.decode_y4m(payload), FEATURE_DIM)
    except ValueError:
        pass  # out-of-envelope variant (e.g. progressive JPEG) -> stub
    return _decode_stub(payload, media_type)


class MediaDecoder:
    """Decode + featurize media payloads.

    Setup (codec init, model load) happens ONCE per worker process here
    in ``__init__`` (``decode_media`` memoizes one decoder per process);
    per-batch work is only the decode loop. Batches must be SMALL
    (payloads are large): pass ``batch_size=decode_batch_size`` at the
    ``map_batches`` call site.
    """

    def __init__(self, feature_dim: int = FEATURE_DIM):
        self.feature_dim = feature_dim
        # real kernels for BMP/PPM/WAV, stub for codec formats; swap
        # point for a codec-backed decoder
        self.decode = decode_payload

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        types = batch["media_type"].to_pylist()
        feats = np.stack([self.decode(p, t)
                          for p, t in zip(payloads, types)]) \
            if payloads else np.empty((0, self.feature_dim), np.float32)
        return pa.table({
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "width": batch["width"],
            "height": batch["height"],
            "feature": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.reshape(-1), pa.float32()),
                self.feature_dim),
        })


def decode_media(media, *, batch_size: int = 32):
    """media Dataset (MEDIA_SCHEMA) -> decoded features. Small batch_size is
    deliberate: batch bytes = batch_size x payload size must fit the worker
    heap (SURVEY.md 'memory-aware'). Plain tasks with the decoder memoized
    per worker process (``shuffle.task_local``): an actor pool holds its
    CPUs between batches, and on a 1-CPU cluster its one actor starved
    the upstream read task forever."""
    from ray_data_mplsh.stages.shuffle import task_local

    def decode(batch: pa.Table) -> pa.Table:
        return task_local("media_decoder", MediaDecoder)(batch)

    return media.map_batches(decode, batch_format="pyarrow",
                             batch_size=batch_size)


def frame_sampler(media, *, every_n: int = 10, max_frames: int = 8):
    """Video rows -> one row per sampled frame index. REAL for Y4M
    payloads: the frame count comes from the container header
    (mediacodec.y4m_info — no pixel decode), and the emitted indices are
    every ``every_n``-th actual frame capped at ``max_frames``. Opaque
    codec-format payloads (H.264/MP4...) keep the synthetic fixed index
    grid — the documented stub behavior, index plumbing only."""
    from ray_data_mplsh.functions import mediacodec as mc

    def sample(batch: pa.Table) -> pa.Table:
        mask = pa.compute.equal(batch["media_type"], "video")
        vids = batch.filter(mask)
        if len(vids) == 0:
            return pa.table({"media_id": pa.array([], pa.uint64()),
                             "frame_idx": pa.array([], pa.int32())})
        ids = vids["media_id"].to_numpy(zero_copy_only=False)
        out_ids, out_idx = [], []
        for mid, p in zip(ids, vids["payload"].to_pylist()):
            if mc.sniff(p) == "y4m":
                try:
                    n_frames = mc.y4m_info(p)[0]
                except ValueError:
                    n_frames = 0
                idx = np.arange(0, n_frames, every_n,
                                dtype=np.int32)[:max_frames]
            else:
                idx = np.arange(max_frames, dtype=np.int32) * every_n
            out_ids.append(np.full(len(idx), mid, np.uint64))
            out_idx.append(idx)
        return pa.table({
            "media_id": pa.array(np.concatenate(out_ids), pa.uint64()),
            "frame_idx": pa.array(np.concatenate(out_idx), pa.int32()),
        })

    return media.map_batches(sample, batch_format="pyarrow")


def resize_media(media, *, max_side: int = 512):
    """Image resize stage: target dims computed vectorized (aspect-ratio
    preserving, longest side clamped to ``max_side``); the pixel
    resample is REAL for the codec-free envelope — BMP/PPM/PNG/baseline-
    JPEG payloads are decoded, nearest-neighbor resampled and re-encoded
    in their original format (JPEG at a fixed quality 90, deterministic)
    — while codec formats keep their bytes (metadata-only resize, the
    documented stub behavior). Non-image rows pass through with their
    original dims."""
    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.functions.jpegcodec import decode_jpeg, encode_jpeg

    def resize(batch: pa.Table) -> pa.Table:
        w = batch["width"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch["height"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        is_img = np.asarray(
            pa.compute.equal(batch["media_type"], "image"))
        long_side = np.maximum(np.maximum(w, h), 1.0)
        scale = np.where(is_img & (long_side > max_side),
                         max_side / long_side, 1.0)
        new_w = np.floor(w * scale).astype(np.int32)
        new_h = np.floor(h * scale).astype(np.int32)
        payloads = batch["payload"].to_pylist()
        encoders = {"bmp": mc.encode_bmp, "ppm": mc.encode_ppm,
                    "png": mc.encode_png,
                    "jpg": lambda im: encode_jpeg(im, quality=90)}
        decoders = {"bmp": mc.decode_bmp, "ppm": mc.decode_ppm,
                    "png": mc.decode_png, "jpg": decode_jpeg}
        for i in np.flatnonzero(scale < 1.0):
            try:
                kind = mc.sniff(payloads[i])
                if kind not in decoders:
                    continue  # codec format: metadata-only resize
                img = decoders[kind](payloads[i])
                small = mc.resize_nearest(img, int(new_w[i]),
                                          int(new_h[i]))
                payloads[i] = encoders[kind](small)
            except ValueError:
                continue  # out-of-envelope variant: bytes unchanged
        return pa.table({
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(new_w),
            "height": pa.array(new_h),
            "sample_rate": batch["sample_rate"],
        })

    return media.map_batches(resize, batch_format="pyarrow")


def _payload_exact_dedup(media, num_partitions: int):
    """Direct path: (media_id, payload) ride a 64-bit-hash-routed
    exchange, grouped on the EXACT payload bytes within the partition
    (the hash only co-locates — pairs.py collision rule); emits
    (media_id, rep_id) with rep = min media_id per payload."""
    import pandas as pd

    from ray_data_mplsh.stages.shuffle import partition_apply

    def add_hash(t: pa.Table) -> pa.Table:
        hs = np.fromiter((hash_bytes_u64(p) for p in t["payload"]
                          .to_pylist()), np.uint64, t.num_rows)
        return pa.table({"media_id": t["media_id"],
                         "payload": t["payload"],
                         "_ph": pa.array(hs, pa.uint64())})

    def dedup_part(part: pa.Table) -> pa.Table:
        ids = part["media_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        codes, _ = pd.factorize(
            np.asarray(part["payload"].to_pylist(), dtype=object))
        rep = np.full(codes.max() + 1 if len(codes) else 0,
                      np.iinfo(np.uint64).max, np.uint64)
        np.minimum.at(rep, codes, ids)
        return pa.table({"media_id": pa.array(ids, pa.uint64()),
                         "rep_id": pa.array(rep[codes], pa.uint64())})

    hashed = media.map_batches(add_hash, batch_format="pyarrow")
    return partition_apply(hashed, "_ph", dedup_part, num_partitions)


def media_exact_dedup(media, *, num_partitions: int = 0,
                      project_hash: bool = True):
    """Exact byte-identical media dedup -> (media_id, rep_id), rep = min
    media_id per payload.

    SCALE PATH (default, SURVEY.md B.1): payloads are huge (MBs) while
    ids+hashes are 24 bytes, so the exchange ships only a PROJECTED
    (media_id, 128-bit payload hash) table. Rows whose 128-bit hash is
    unique in its group are their own reps without their bytes ever
    moving; only multi-member hash groups (the actual dup candidates, a
    tiny fraction of a web corpus) are byte-CONFIRMED: their rows are
    semi-joined back to the media table (hybrid broadcast/shuffle via
    semi_anti_join) and run through the direct byte-grouping exchange, so
    a 128-bit collision can co-locate but never merge distinct payloads.
    ``project_hash=False`` keeps the one-pass direct path (fine when
    payloads are small); both paths are equality-pinned in
    tests/test_multimodal.py."""
    from ray_data_mplsh.stages.relational import semi_anti_join
    from ray_data_mplsh.stages.shuffle import (default_partitions,
                                               partition_apply)

    P = default_partitions(num_partitions)
    if not project_hash:
        return _payload_exact_dedup(media, P)

    def project(t: pa.Table) -> pa.Table:
        ps = t["payload"].to_pylist()
        lo = np.fromiter((hash_bytes_u64(p) for p in ps),
                         np.uint64, len(ps))
        hi = np.fromiter((hash_bytes_u64(b"\x01" + p) for p in ps),
                         np.uint64, len(ps))
        return pa.table({"media_id": t["media_id"],
                         "_hlo": pa.array(lo, pa.uint64()),
                         "_hhi": pa.array(hi, pa.uint64())})

    def classify(part: pa.Table) -> pa.Table:
        ids = part["media_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        lo = part["_hlo"].to_numpy(zero_copy_only=False).astype(np.uint64)
        hi = part["_hhi"].to_numpy(zero_copy_only=False).astype(np.uint64)
        o = np.lexsort((hi, lo))
        slo, shi = lo[o], hi[o]
        new = np.concatenate(([True], (slo[1:] != slo[:-1]) |
                              (shi[1:] != shi[:-1])))
        gid = np.cumsum(new) - 1
        sizes = np.bincount(gid)
        cand = np.empty(len(ids), bool)
        cand[o] = sizes[gid] > 1
        return pa.table({"media_id": pa.array(ids, pa.uint64()),
                         "_cand": pa.array(cand, pa.bool_())})

    marked = partition_apply(media.map_batches(project,
                                               batch_format="pyarrow"),
                             "_hlo", classify, P).materialize()
    singles = marked.map_batches(
        lambda t: pa.table({
            "media_id": (s := t.filter(pa.compute.invert(t["_cand"]))
                         )["media_id"],
            "rep_id": s["media_id"]}),
        batch_format="pyarrow")
    cand_ids = marked.map_batches(
        lambda t: t.filter(t["_cand"]).select(["media_id"]),
        batch_format="pyarrow")
    cand_media = semi_anti_join(
        media.map_batches(lambda t: t.select(["media_id", "payload"]),
                          batch_format="pyarrow"),
        cand_ids, left_on="media_id", right_on="media_id",
        num_partitions=P)
    return singles.union(_payload_exact_dedup(cand_media, P))


def media_near_dup(media, *, threshold: float = 0.999, **kwargs):
    """Feature-cosine near-dup over decoded media: decode_media ->
    feature vectors -> the embedding_near_dup LSH/cosine pipeline.
    media_id (uint64) rides as a bit-preserving int64 view (vec_id);
    callers view-cast pair ids back with ``astype(np.int64)
    .view(np.uint64)``."""
    import pyarrow.compute as pc

    from ray_data_mplsh.pipelines.similarity import embedding_near_dup

    feats = decode_media(media)

    def to_emb(t: pa.Table) -> pa.Table:
        ids = t["media_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64).view(np.int64)
        emb = pc.cast(t["feature"], pa.list_(pa.float32()))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": emb})

    return embedding_near_dup(feats.map_batches(to_emb,
                                                batch_format="pyarrow"),
                              threshold=threshold, **kwargs)


def synth_media(n: int, seed: int = 7, n_distinct: int = 0):
    """Deterministic media fixture with REAL payloads where the codec-free
    envelope allows: by payload id, real 24-bit BMP images (pid % 6 == 0,
    pseudo-random pixels + dims derived from pid), real PCM-16 WAV clips
    (pid % 6 == 1), real 8-bit PNG images (pid % 6 == 2), opaque
    codec-format stand-in bytes (pid % 6 == 3 — the stub path), real
    baseline JPEGs (pid % 6 == 4, smooth deterministic pattern), and real
    Y4M video streams (pid % 6 == 5, 3-8 frames). ``n_distinct > 0``
    plants exact duplicates (payload depends only on ``pid = id %
    n_distinct``, so dup groups stay byte-identical even when their rows
    carry different ``media_type`` labels — decode sniffs magic bytes,
    not the label). Rows with real payloads are labeled by their content
    (image/audio/video); opaque stand-in rows cycle through all three
    labels so every (type, stub) combination exists. Image-payload rows
    carry their true pixel dims in width/height."""
    import ray.data

    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.functions.jpegcodec import encode_jpeg

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pid = ids % np.uint64(n_distinct) if n_distinct else ids
        cycle = ["image", "audio", "video"]
        kind_type = {0: "image", 1: "audio", 2: "image", 4: "image",
                     5: "video"}
        types = [kind_type.get(int(p) % 6, cycle[int(i) % 3])
                 for i, p in zip(ids, pid)]
        payloads = []
        widths = (ids % 1920).astype(np.int32)
        heights = (ids % 1080).astype(np.int32)
        for j, p in enumerate(pid):
            # 1-element array: uint64 wraparound without the numpy
            # scalar-overflow RuntimeWarning (0-d counts as scalar)
            base = mix64(np.array([p], np.uint64)
                         * np.uint64(0x9E3779B97F4A7C15)
                         + np.uint64(seed))[0]
            kind = int(p) % 6
            if kind in (0, 2):  # real BMP / PNG
                w = 20 + (int(p) * 13) % 300
                h = 16 + (int(p) * 7) % 280
                px = (mix64(np.arange(w * h * 3, dtype=np.uint64) + base)
                      % np.uint64(256)).astype(np.uint8).reshape(h, w, 3)
                payloads.append(mc.encode_bmp(px) if kind == 0
                                else mc.encode_png(px))
                widths[j], heights[j] = w, h
            elif kind == 1:  # real PCM-16 WAV
                ns = 200 + (int(p) * 31) % 400
                s = ((mix64(np.arange(ns, dtype=np.uint64) + base)
                      % np.uint64(65536)).astype(np.int64)
                     - 32768).astype(np.int16)
                payloads.append(mc.encode_wav(s, 16000))
            elif kind == 4:  # real baseline JPEG (smooth -> fast encode)
                w = 16 + (int(p) * 11) % 120
                h = 16 + (int(p) * 5) % 112
                bi = int(base)
                ky, kx, off = bi % 7 + 1, (bi >> 8) % 5 + 1, (bi >> 16) % 256
                ramp = (np.add.outer(np.arange(h) * ky, np.arange(w) * kx)
                        + off)
                px = (np.stack([ramp, ramp + 40, ramp + 80], axis=-1)
                      % 256).astype(np.uint8)
                payloads.append(encode_jpeg(px, quality=85,
                                            subsample=int(p) % 2 == 0))
                widths[j], heights[j] = w, h
            elif kind == 5:  # real Y4M video
                t = 3 + int(p) % 6
                w = 8 + (int(p) * 3) % 16
                h = 6 + (int(p) * 5) % 12
                px = (mix64(np.arange(t * h * w * 3, dtype=np.uint64)
                            + base) % np.uint64(256)) \
                    .astype(np.uint8).reshape(t, h, w, 3)
                payloads.append(mc.encode_y4m(px))
                widths[j], heights[j] = w, h
            else:  # opaque bytes: codec-format stand-in (stub path)
                payloads.append(base.tobytes() * 8)
        return pa.table({
            "media_id": pa.array(mix64(ids + np.uint64(seed)), pa.uint64()),
            "media_type": pa.array(types),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "sample_rate": pa.array(
                np.where(pid % 6 == 1, 16000, 0).astype(np.int32),
                pa.int32()),
        })

    return ray.data.range(n).map_batches(gen, batch_format="pyarrow")
