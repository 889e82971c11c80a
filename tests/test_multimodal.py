"""Multimodal plumbing tests: schema contract, deterministic stub decode
across batchings, frame sampling fan-out."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray_data_mplsh.stages.multimodal import (
    FEATURE_DIM, decode_media, frame_sampler, synth_media,
)


def test_decode_schema_and_determinism(ray_session):
    media = synth_media(60, seed=3)
    out = decode_media(media, batch_size=7).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert list(out.columns) == ["media_id", "media_type", "width",
                                 "height", "feature"]
    assert len(out) == 60
    assert all(len(f) == FEATURE_DIM for f in out.feature)
    # different batch size -> identical features (stub is content-derived)
    out2 = decode_media(synth_media(60, seed=3), batch_size=32).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    for f1, f2 in zip(out.feature, out2.feature):
        np.testing.assert_array_equal(np.asarray(f1), np.asarray(f2))


def test_frame_sampler_video_only(ray_session):
    """Y4M-payload videos emit REAL frame indices (count from the
    container header); opaque payloads keep the synthetic index grid."""
    from ray_data_mplsh.functions import mediacodec as mc

    media = synth_media(30, seed=3)
    frames = frame_sampler(media, every_n=5, max_frames=4).to_pandas()
    src = synth_media(30, seed=3).to_pandas()
    expected, n_y4m = [], 0
    for _, r in src.iterrows():
        if r.media_type != "video":
            continue
        if mc.sniff(r.payload) == "y4m":
            n_y4m += 1
            nf = mc.y4m_info(r.payload)[0]
            idx = list(range(0, nf, 5))[:4]
        else:
            idx = [0, 5, 10, 15]
        expected += [(r.media_id, i) for i in idx]
    assert n_y4m >= 2  # the fixture must exercise the real path
    got = sorted(zip(frames.media_id, frames.frame_idx))
    assert got == sorted(expected)


def test_resize_media_dims(ray_session):
    from ray_data_mplsh.stages.multimodal import resize_media

    out = resize_media(synth_media(40, seed=3), max_side=256).to_pandas()
    assert len(out) == 40
    img = out[out.media_type == "image"]
    assert (np.maximum(img.width, img.height) <= 256).all()
    other = out[out.media_type != "image"]
    # non-image rows keep original dims
    src = synth_media(40, seed=3).to_pandas().set_index("media_id")
    for _, r in other.iterrows():
        assert r.width == src.loc[r.media_id].width
        assert r.height == src.loc[r.media_id].height
    # aspect ratio preserved within floor rounding for scaled images
    for _, r in img.iterrows():
        w0, h0 = src.loc[r.media_id].width, src.loc[r.media_id].height
        if max(w0, h0) > 256:
            s = 256 / max(w0, h0)
            assert r.width == int(np.floor(w0 * s))
            assert r.height == int(np.floor(h0 * s))


def test_media_exact_dedup_planted(ray_session):
    from ray_data_mplsh.stages.multimodal import media_exact_dedup

    media = synth_media(90, seed=5, n_distinct=30)
    out = media_exact_dedup(media, num_partitions=5).to_pandas()
    assert len(out) == 90
    # 30 distinct payloads -> 30 reps; every rep is the min id of its group.
    # Groups come from the payload bytes, not the row position: Ray Data
    # does not keep synth_media's row order.
    src = synth_media(90, seed=5, n_distinct=30).to_pandas()
    want = src.groupby("payload")["media_id"].transform("min")
    assert want.nunique() == 30
    got = out.set_index("media_id").rep_id
    src = src.assign(want=want.to_numpy()).set_index("media_id")
    assert (got.loc[src.index] == src.want).all()
    assert out.rep_id.nunique() == 30


def test_media_exact_dedup_projected_equals_direct(ray_session):
    """The hash-projected scale path (ids+128-bit hashes ride the
    exchange, only multi-member hash groups get byte-confirmed) must
    produce the exact same (media_id, rep_id) mapping as the direct
    all-bytes exchange — including when every payload is unique."""
    from ray_data_mplsh.stages.multimodal import media_exact_dedup

    for n, nd in ((80, 25), (40, 40)):  # planted dups / all-unique
        proj = media_exact_dedup(synth_media(n, seed=11, n_distinct=nd),
                                 num_partitions=4, project_hash=True) \
            .to_pandas().sort_values("media_id").reset_index(drop=True)
        direct = media_exact_dedup(synth_media(n, seed=11, n_distinct=nd),
                                   num_partitions=4, project_hash=False) \
            .to_pandas().sort_values("media_id").reset_index(drop=True)
        assert proj.equals(direct), (n, nd)


def test_media_near_dup_finds_planted_pairs(ray_session):
    from ray_data_mplsh.stages.multimodal import media_near_dup

    # identical payloads -> identical stub features -> cosine == 1.
    # Groups come from the payload bytes, not the row position: Ray Data
    # does not keep synth_media's row order.
    media = synth_media(60, seed=9, n_distinct=30)
    pairs = media_near_dup(media, threshold=0.999).to_pandas()
    src = synth_media(60, seed=9, n_distinct=30).to_pandas()
    groups = src.groupby("payload")["media_id"].agg(list)
    assert len(groups) == 30 and (groups.str.len() == 2).all()
    want = {tuple(sorted(np.array(g, np.uint64).view(np.int64).tolist()))
            for g in groups}
    got = {tuple(sorted((a, b))) for a, b in zip(pairs.a.tolist(),
                                                 pairs.b.tolist())}
    assert want <= got


def test_mediacodec_roundtrips():
    """Pure-numpy codecs: encode -> decode is pixel/sample-exact for the
    whole codec-free envelope (BMP incl. row padding, PPM with header
    comments, WAV at 8/16-bit widths and stereo)."""
    from ray_data_mplsh.functions import mediacodec as mc

    rng = np.random.default_rng(5)
    for h, w in ((1, 1), (3, 5), (16, 21), (40, 33)):  # odd strides: pad
        img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        assert mc.sniff(mc.encode_bmp(img)) == "bmp"
        np.testing.assert_array_equal(mc.decode_bmp(mc.encode_bmp(img)),
                                      img)
        assert mc.sniff(mc.encode_ppm(img)) == "ppm"
        np.testing.assert_array_equal(mc.decode_ppm(mc.encode_ppm(img)),
                                      img)
    # PPM header comments are spec-legal
    img = rng.integers(0, 256, (2, 3, 3)).astype(np.uint8)
    ppm = b"P6\n# a comment\n3 2\n# more\n255\n" + img.tobytes()
    np.testing.assert_array_equal(mc.decode_ppm(ppm), img)
    # WAV mono + stereo 16-bit
    mono = rng.integers(-32768, 32767, 300).astype(np.int16)
    s, rate = mc.decode_wav(mc.encode_wav(mono, 16000))
    assert rate == 16000
    np.testing.assert_array_equal(s, mono)
    stereo = rng.integers(-32768, 32767, (200, 2)).astype(np.int16)
    s2, _ = mc.decode_wav(mc.encode_wav(stereo, 8000))
    np.testing.assert_array_equal(s2, stereo)
    # out-of-envelope payloads refuse rather than mis-decode
    for bad in (b"BM" + b"\x00" * 60, b"P6 garbage", b"\x89PNG\r\n"):
        try:
            if mc.sniff(bad) == "bmp":
                mc.decode_bmp(bad)
            elif mc.sniff(bad) == "ppm":
                mc.decode_ppm(bad)
            else:
                assert mc.sniff(bad) is None
                continue
            raise AssertionError(f"decoded garbage: {bad!r}")
        except ValueError:
            pass


def test_decode_payload_real_vs_stub_dispatch():
    """BMP/PPM/WAV payloads take the real kernels (features derived from
    decoded pixels/samples, invariant to how the bytes were produced);
    opaque payloads fall back to the deterministic stub."""
    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.stages.multimodal import (_decode_stub,
                                                  decode_payload)

    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (10, 14, 3)).astype(np.uint8)
    f_bmp = decode_payload(mc.encode_bmp(img), "image")
    f_ppm = decode_payload(mc.encode_ppm(img), "image")
    # same pixels through two different containers -> identical features
    np.testing.assert_array_equal(f_bmp, f_ppm)
    np.testing.assert_array_equal(f_bmp, mc.image_features(img))
    # pixel content actually moves the features
    img2 = img.copy()
    img2[:5] = 255 - img2[:5]
    assert not np.array_equal(decode_payload(mc.encode_bmp(img2), "image"),
                              f_bmp)
    wav = mc.encode_wav(rng.integers(-2000, 2000, 400).astype(np.int16),
                        16000)
    np.testing.assert_array_equal(decode_payload(wav, "audio"),
                                  mc.audio_features(*mc.decode_wav(wav)))
    blob = b"\x00\x01\x02" * 40
    np.testing.assert_array_equal(decode_payload(blob, "video"),
                                  _decode_stub(blob, "video"))


def test_resize_media_resamples_real_pixels(ray_session):
    """Image rows with decodable payloads must come back as real re-encoded
    BMPs whose pixel dims equal the floor-scaled metadata dims, and whose
    pixels equal a direct nearest-neighbor resample of the source."""
    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.stages.multimodal import resize_media

    src = synth_media(40, seed=3).to_pandas().set_index("media_id")
    out = resize_media(synth_media(40, seed=3), max_side=64).to_pandas()
    dec = {"bmp": mc.decode_bmp, "png": mc.decode_png}
    checked = {"bmp": 0, "png": 0}
    for _, r in out.iterrows():
        pay = src.loc[r.media_id].payload
        kind = mc.sniff(pay)
        if kind not in dec or r.media_type != "image":
            continue
        img0 = dec[kind](pay)
        if max(img0.shape[:2]) <= 64:
            continue
        assert mc.sniff(r.payload) == kind  # re-encoded in-container
        got = dec[kind](r.payload)
        assert got.shape == (r.height, r.width, 3)
        np.testing.assert_array_equal(
            got, mc.resize_nearest(img0, int(r.width), int(r.height)))
        checked[kind] += 1
    # the fixture must exercise BOTH real image containers
    assert checked["bmp"] >= 2 and checked["png"] >= 2, checked


def test_png_roundtrip_and_all_filters():
    """PNG: encode -> decode is pixel-exact for RGB and RGBA; the decoder
    reconstructs ALL FIVE scanline filter types (our encoder emits only
    filter 0, so the others are exercised with hand-filtered scanlines
    deflated into a spec-valid PNG); garbage refuses with ValueError."""
    import zlib

    from ray_data_mplsh.functions import mediacodec as mc

    rng = np.random.default_rng(29)
    for c in (3, 4):
        img = rng.integers(0, 256, (11, 17, c)).astype(np.uint8)
        png = mc.encode_png(img)
        assert mc.sniff(png) == "png"
        np.testing.assert_array_equal(mc.decode_png(png), img)
    # hand-filter one image with every filter type (row y uses y % 5)
    img = rng.integers(0, 256, (10, 9, 3)).astype(np.uint8)
    h, w, c = img.shape
    stride = w * c
    flat = img.reshape(h, stride).astype(np.int64)
    raw = bytearray()
    for y in range(h):
        f = y % 5
        cur = flat[y]
        prev = flat[y - 1] if y else np.zeros(stride, np.int64)
        left = np.concatenate([np.zeros(c, np.int64), cur[:-c]])
        upleft = np.concatenate([np.zeros(c, np.int64), prev[:-c]])
        if f == 0:
            filt = cur
        elif f == 1:
            filt = cur - left
        elif f == 2:
            filt = cur - prev
        elif f == 3:
            filt = cur - ((left + prev) >> 1)
        else:
            p = left + prev - upleft
            pa, pb, pc_ = (np.abs(p - left), np.abs(p - prev),
                           np.abs(p - upleft))
            pred = np.where((pa <= pb) & (pa <= pc_), left,
                            np.where(pb <= pc_, prev, upleft))
            filt = cur - pred
        raw.append(f)
        raw.extend((filt % 256).astype(np.uint8).tobytes())
    png = mc._png_assemble(bytes(raw), w, h, 2)
    np.testing.assert_array_equal(mc.decode_png(png), img)
    import struct as st
    hdr = mc._PNG_MAGIC + mc._png_chunk(
        b"IHDR", st.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0))
    # refusals: headerless, truncated, corrupt deflate, wrong-size raw
    for bad in (mc._PNG_MAGIC, mc._PNG_MAGIC + b"\x00" * 20,
                hdr + mc._png_chunk(b"IDAT", b"notdeflate"),
                hdr + mc._png_chunk(b"IDAT", zlib.compress(b"\x00" * 5))):
        try:
            mc.decode_png(bad)
            raise AssertionError("decoded garbage PNG")
        except ValueError:
            pass
    # interlaced and 16-bit refuse
    ihdr8 = st.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)   # interlace=1
    bad1 = mc._PNG_MAGIC + mc._png_chunk(b"IHDR", ihdr8)
    ihdr16 = st.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)  # 16-bit
    bad2 = mc._PNG_MAGIC + mc._png_chunk(b"IHDR", ihdr16)
    for bad in (bad1, bad2):
        try:
            mc.decode_png(bad + mc._png_chunk(
                b"IDAT", zlib.compress(b"\x00" * 14)))
            raise AssertionError("decoded unsupported PNG variant")
        except ValueError:
            pass


def test_png_dispatch_matches_bmp():
    """The same pixels through PNG and BMP containers featurize
    identically (real decode proof for the compressed container), and a
    PNG payload resizes to real re-encoded PNG pixels."""
    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.stages.multimodal import decode_payload

    rng = np.random.default_rng(31)
    img = rng.integers(0, 256, (24, 30, 3)).astype(np.uint8)
    np.testing.assert_array_equal(decode_payload(mc.encode_png(img), "image"),
                                  decode_payload(mc.encode_bmp(img), "image"))
    # RGBA: features computed on RGB (alpha ignored)
    rgba = np.dstack([img, rng.integers(0, 256, (24, 30)).astype(np.uint8)])
    np.testing.assert_array_equal(decode_payload(mc.encode_png(rgba),
                                                 "image"),
                                  mc.image_features(img))
    small = mc.resize_nearest(img, 15, 12)
    np.testing.assert_array_equal(
        mc.decode_png(mc.encode_png(small)), small)


def test_jpeg_roundtrip_all_modes():
    """Baseline JPEG codec: encode -> decode across 4:4:4 / 4:2:0 /
    restart-marker modes stays close to the source on a smooth image
    (lossy, so tolerance not equality); structural properties hold
    (shape, JFIF magic); non-baseline streams refuse with ValueError."""
    from ray_data_mplsh.functions import jpegcodec as jc

    smooth = (128 + 60 * np.sin(np.arange(41)[:, None, None] / 9)
              + 50 * np.cos(np.arange(55)[None, :, None] / 7)
              + np.array([0, 10, 20])).clip(0, 255).astype(np.uint8)
    for kw in ({}, {"subsample": True}, {"restart_interval": 3},
               {"subsample": True, "restart_interval": 2}):
        data = jc.encode_jpeg(smooth, quality=90, **kw)
        assert data[:3] == b"\xFF\xD8\xFF"
        out = jc.decode_jpeg(data)
        assert out.shape == smooth.shape
        err = np.abs(out.astype(int) - smooth.astype(int))
        assert err.max() <= 8 and err.mean() < 2.0, (kw, err.max())
    # flat image at high quality is bit-near-exact
    flat = np.full((24, 24, 3), 130, np.uint8)
    out = jc.decode_jpeg(jc.encode_jpeg(flat, quality=95))
    assert np.abs(out.astype(int) - 130).max() <= 1
    # quality moves the size in the right direction
    noisy = np.random.default_rng(3).integers(0, 256, (32, 32, 3)) \
        .astype(np.uint8)
    assert len(jc.encode_jpeg(noisy, 30)) < len(jc.encode_jpeg(noisy, 95))
    # progressive SOF2 refuses rather than mis-decodes
    good = bytearray(jc.encode_jpeg(flat))
    i = good.find(b"\xFF\xC0")
    prog = bytes(good[:i]) + b"\xFF\xC2" + bytes(good[i + 2:])
    try:
        jc.decode_jpeg(prog)
        raise AssertionError("decoded a progressive JPEG")
    except ValueError:
        pass
    try:
        jc.decode_jpeg(b"\xFF\xD8\xFF\xE0garbage")
        raise AssertionError("decoded garbage")
    except (ValueError, Exception):
        pass


def test_y4m_roundtrip_and_info():
    """Y4M: C444 encode -> decode is near-lossless (YCbCr rounding only);
    y4m_info counts frames without decoding; C420 decodes with nearest
    chroma upsampling; unsupported colorspaces refuse."""
    from ray_data_mplsh.functions import mediacodec as mc

    rng = np.random.default_rng(17)
    frames = rng.integers(0, 256, (5, 10, 14, 3)).astype(np.uint8)
    data = mc.encode_y4m(frames, fps=(30, 1))
    assert mc.sniff(data) == "y4m"
    assert mc.y4m_info(data) == (5, 14, 10)
    out = mc.decode_y4m(data)
    assert out.shape == frames.shape
    assert np.abs(out.astype(int) - frames.astype(int)).max() <= 4
    # C420: hand-built stream, odd dims exercise the ceil-div chroma size
    w, h = 6, 5
    cw, ch = 3, 3
    raw = bytearray(b"YUV4MPEG2 W6 H5 F25:1 Ip A1:1 C420jpeg\n")
    for _ in range(2):
        raw += b"FRAME\n" + bytes([128] * (w * h + 2 * cw * ch))
    assert mc.y4m_info(bytes(raw)) == (2, 6, 5)
    out420 = mc.decode_y4m(bytes(raw))
    assert out420.shape == (2, 5, 6, 3)
    np.testing.assert_array_equal(out420, 128)
    try:
        mc.decode_y4m(b"YUV4MPEG2 W4 H4 F25:1 C411\n" + b"\x00" * 64)
        raise AssertionError("decoded unsupported colorspace")
    except ValueError:
        pass


def test_decode_payload_jpeg_y4m_dispatch():
    """JPEG and Y4M payloads take the REAL kernels: features equal the
    direct decode+featurize, and content moves them."""
    from ray_data_mplsh.functions import jpegcodec as jc
    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.stages.multimodal import decode_payload

    ramp = (np.add.outer(np.arange(24) * 3, np.arange(32) * 2)[..., None]
            + np.array([0, 30, 60])).astype(np.uint8)
    jpg = jc.encode_jpeg(ramp, quality=90)
    np.testing.assert_array_equal(
        decode_payload(jpg, "image"),
        mc.image_features(jc.decode_jpeg(jpg)))
    jpg2 = jc.encode_jpeg(255 - ramp, quality=90)
    assert not np.array_equal(decode_payload(jpg2, "image"),
                              decode_payload(jpg, "image"))
    rng = np.random.default_rng(23)
    vid = mc.encode_y4m(rng.integers(0, 256, (4, 8, 8, 3))
                        .astype(np.uint8))
    np.testing.assert_array_equal(
        decode_payload(vid, "video"),
        mc.video_features(mc.decode_y4m(vid)))


def test_resize_media_jpeg_reencodes(ray_session):
    """JPEG image rows above max_side come back as real re-encoded JPEGs:
    container preserved, decoded dims equal the floor-scaled metadata,
    pixels approximate the nearest-neighbor resample (lossy re-encode)."""
    from ray_data_mplsh.functions import jpegcodec as jc
    from ray_data_mplsh.functions import mediacodec as mc
    from ray_data_mplsh.stages.multimodal import resize_media

    src = synth_media(60, seed=3).to_pandas().set_index("media_id")
    out = resize_media(synth_media(60, seed=3), max_side=48).to_pandas()
    checked = 0
    for _, r in out.iterrows():
        pay = src.loc[r.media_id].payload
        if mc.sniff(pay) != "jpg" or r.media_type != "image":
            continue
        img0 = jc.decode_jpeg(pay)
        if max(img0.shape[:2]) <= 48:
            continue
        assert mc.sniff(r.payload) == "jpg"
        got = jc.decode_jpeg(r.payload)
        assert got.shape == (r.height, r.width, 3)
        want = mc.resize_nearest(img0, int(r.width), int(r.height))
        assert np.abs(got.astype(int) - want.astype(int)).mean() < 12.0
        checked += 1
    assert checked >= 1, "fixture produced no oversize JPEG image rows"


def test_jpeg_fuzz_dims_and_determinism():
    """Property fuzz over awkward dims (1xN, Nx1, non-multiples of 8/16):
    decode(encode(img)) must keep shape/dtype in every mode, encoding is
    deterministic, and flat images survive near-exactly at any geometry
    (the DC-only case is geometry-independent)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ray_data_mplsh.functions import jpegcodec as jc

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(1, 36), w=st.integers(1, 36),
           sub=st.booleans(), rst=st.integers(0, 3),
           val=st.integers(5, 250))
    def check(h, w, sub, rst, val):
        flat = np.full((h, w, 3), val, np.uint8)
        data = jc.encode_jpeg(flat, quality=92, subsample=sub,
                              restart_interval=rst)
        assert data == jc.encode_jpeg(flat, quality=92, subsample=sub,
                                      restart_interval=rst)
        out = jc.decode_jpeg(data)
        assert out.shape == (h, w, 3) and out.dtype == np.uint8
        assert np.abs(out.astype(int) - int(val)).max() <= 2, (h, w, sub)

    check()


def test_jpeg_fuzz_content_roundtrip():
    """Random-content fuzz: decode never crashes, stays in range, and the
    luma channel (protected by the finer Y quant table) tracks the
    source within the coarse-quantization error envelope."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ray_data_mplsh.functions import jpegcodec as jc

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31), h=st.integers(4, 28),
           w=st.integers(4, 28), sub=st.booleans())
    def check(seed, h, w, sub):
        rng = np.random.default_rng(seed)
        # low-pass the noise so the roundtrip error bound is meaningful
        raw = rng.integers(0, 256, (h, w, 3)).astype(np.float64)
        k = np.ones((3, 3)) / 9.0
        sm = raw.copy()
        for c in range(3):
            pad = np.pad(raw[..., c], 1, mode="edge")
            sm[..., c] = sum(pad[i:i + h, j:j + w] * k[i, j]
                             for i in range(3) for j in range(3))
        img = sm.clip(0, 255).astype(np.uint8)
        out = jc.decode_jpeg(jc.encode_jpeg(img, quality=92, subsample=sub))
        assert out.shape == img.shape
        y_in = img.astype(np.float64) @ [0.299, 0.587, 0.114]
        y_out = out.astype(np.float64) @ [0.299, 0.587, 0.114]
        assert np.abs(y_in - y_out).mean() < 6.0, (seed, h, w, sub)

    check()
