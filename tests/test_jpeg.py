"""From-scratch baseline JPEG codec tests (stages/jpegcore.py).

JPEG is lossy, so the roundtrip suite bounds reconstruction error rather
than demanding identity; DC-only inputs (solid blocks) must reconstruct
within rounding. Table-structure tests pin the Annex-K constants to the
properties any valid baseline encoder needs (coverage of every (run,
size) symbol, prefix-code validity) so a transcription typo fails loudly
rather than producing undecodable-elsewhere streams.
"""

import numpy as np
import pytest

from html_parser_ray.stages.jpegcore import (
    _AC_CHROMA_BITS, _AC_CHROMA_VALS, _AC_LUMA_BITS, _AC_LUMA_VALS,
    _DC_CHROMA_BITS, _DC_CHROMA_VALS, _DC_LUMA_BITS, _DC_LUMA_VALS,
    ZIGZAG, decode_jpeg, encode_jpeg_baseline,
)


def _rng(seed=42):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Annex-K table structure (guards transcription of the public constants)

@pytest.mark.parametrize("bits,vals", [
    (_DC_LUMA_BITS, _DC_LUMA_VALS), (_DC_CHROMA_BITS, _DC_CHROMA_VALS),
    (_AC_LUMA_BITS, _AC_LUMA_VALS), (_AC_CHROMA_BITS, _AC_CHROMA_VALS)])
def test_huffman_tables_are_valid_prefix_codes(bits, vals):
    assert sum(bits) == len(vals)
    # Kraft inequality with equality slack: total code space used <= 1
    used = sum(n / (1 << (i + 1)) for i, n in enumerate(bits))
    assert used <= 1.0


def test_dc_tables_cover_all_12_categories():
    assert sorted(_DC_LUMA_VALS) == list(range(12))
    assert sorted(_DC_CHROMA_VALS) == list(range(12))


@pytest.mark.parametrize("vals", [_AC_LUMA_VALS, _AC_CHROMA_VALS])
def test_ac_tables_cover_every_run_size_symbol(vals):
    # a baseline encoder emits: EOB (0x00), ZRL (0xF0), and (run<<4)|size
    # for run 0..15, size 1..10 — exactly 162 symbols, each present once
    need = {0x00, 0xF0} | {(r << 4) | s for r in range(16)
                           for s in range(1, 11)}
    assert sorted(vals) == sorted(need)
    assert len(vals) == 162


def test_zigzag_is_a_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))
    # spec spot pins (T.81 figure A.6)
    assert ZIGZAG[0] == 0 and ZIGZAG[1] == 1 and ZIGZAG[2] == 8
    assert ZIGZAG[63] == 63


# ---------------------------------------------------------------------------
# roundtrip properties

@pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:0"])
def test_solid_color_reconstructs_exactly(subsampling):
    for color in ([0, 0, 0], [255, 255, 255], [120, 64, 200], [17, 99, 180]):
        arr = np.full((24, 40, 3), color, dtype=np.uint8)
        w, h, c, got = decode_jpeg(
            encode_jpeg_baseline(arr, quality=90, subsampling=subsampling))
        assert (w, h, c) == (40, 24, 3)
        assert np.abs(got.astype(int) - arr.astype(int)).max() <= 1


def test_smooth_gradient_low_error():
    x = np.linspace(0, 255, 64).astype(np.uint8)
    arr = np.zeros((64, 64, 3), np.uint8)
    arr[:, :, 0] = x[None, :]
    arr[:, :, 1] = x[:, None]
    arr[:, :, 2] = 128
    w, h, c, got = decode_jpeg(encode_jpeg_baseline(arr, quality=90))
    assert float(np.abs(got.astype(int) - arr.astype(int)).mean()) < 2.0


def test_noise_quality_100_tight_bound():
    # with quality 100 most quant steps are 1: even pure noise must come
    # back within a few levels at 4:4:4
    arr = _rng().integers(0, 256, (37, 53, 3), dtype=np.uint8)
    w, h, c, got = decode_jpeg(encode_jpeg_baseline(arr, quality=100))
    assert (w, h) == (53, 37)
    assert np.abs(got.astype(int) - arr.astype(int)).max() <= 4


@pytest.mark.parametrize("dims", [(8, 8), (1, 1), (7, 5), (16, 24),
                                  (33, 31), (64, 17)])
def test_arbitrary_dims_roundtrip(dims):
    h, w = dims
    arr = _rng(h * 100 + w).integers(0, 256, (h, w, 3), dtype=np.uint8)
    for sub in ("4:4:4", "4:2:0"):
        dw, dh, dc, got = decode_jpeg(
            encode_jpeg_baseline(arr, quality=95, subsampling=sub))
        assert (dw, dh, dc) == (w, h, 3)
        assert got.shape == (h, w, 3)


def test_grayscale_roundtrip_expands_to_rgb():
    g = _rng(7).integers(0, 256, (17, 29), dtype=np.uint8)
    w, h, c, got = decode_jpeg(encode_jpeg_baseline(g, quality=100))
    assert (w, h, c) == (29, 17, 3)
    want = np.repeat(g[:, :, None], 3, axis=2).astype(int)
    assert np.abs(got.astype(int) - want).max() <= 2


def test_restart_intervals_roundtrip():
    arr = _rng(3).integers(0, 256, (40, 56, 3), dtype=np.uint8)
    base = decode_jpeg(encode_jpeg_baseline(arr, quality=95))[3]
    for dri in (1, 2, 5):
        got = decode_jpeg(encode_jpeg_baseline(
            arr, quality=95, restart_interval=dri))[3]
        # restart markers change the container, not the math
        assert np.array_equal(got, base)


def test_encode_is_deterministic():
    arr = _rng(9).integers(0, 256, (20, 20, 3), dtype=np.uint8)
    assert encode_jpeg_baseline(arr, 90) == encode_jpeg_baseline(arr, 90)


def test_quality_monotone_in_size_and_error():
    x = np.linspace(0, 255, 48).astype(np.uint8)
    arr = np.zeros((48, 48, 3), np.uint8)
    arr[:, :, 0] = x[None, :]
    arr[:, :, 1] = x[:, None]
    sizes, errs = [], []
    for q in (25, 50, 90):
        p = encode_jpeg_baseline(arr, quality=q)
        got = decode_jpeg(p)[3]
        sizes.append(len(p))
        errs.append(float(np.abs(got.astype(int) - arr.astype(int)).mean()))
    assert sizes[0] < sizes[2]
    assert errs[0] >= errs[2]


# ---------------------------------------------------------------------------
# error paths (quarantined per row by the calling stage)

def test_rejects_non_jpeg():
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")


def test_rejects_progressive():
    arr = np.zeros((8, 8, 3), np.uint8)
    payload = bytearray(encode_jpeg_baseline(arr))
    idx = payload.find(b"\xff\xc0")
    payload[idx + 1] = 0xC2          # flip SOF0 -> SOF2
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(payload))


def test_rejects_truncated_scan():
    arr = _rng(1).integers(0, 256, (24, 24, 3), dtype=np.uint8)
    payload = encode_jpeg_baseline(arr, quality=95)
    with pytest.raises(ValueError):
        decode_jpeg(payload[:len(payload) // 2])


def test_rejects_missing_sof():
    with pytest.raises(ValueError):
        decode_jpeg(b"\xff\xd8\xff\xd9")


# ---------------------------------------------------------------------------
# stage integration: mixed-format media table decodes end to end

def test_image_feature_stage_decodes_all_three_formats():
    import pyarrow as pa
    from html_parser_ray.stages.extract import DocStage
    from html_parser_ray.stages.multimodal import (
        IMAGE, IMAGE_FEATURES, make_image_payload)
    ids = list(range(12))
    payloads = [make_image_payload(i) for i in ids]
    magics = {p[:2] for p in payloads}
    assert b"\xff\xd8" in magics          # JPEG really in the mix
    assert b"\x89P" in magics             # PNG really in the mix
    tbl = pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "kind": pa.array(["image"] * len(ids), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "source_url": pa.array(["x"] * len(ids), pa.string()),
    })
    out = DocStage(IMAGE_FEATURES, decoder=IMAGE)(tbl)
    assert set(out.column("status").to_pylist()) == {"ok"}
    for mid, w, h, c in zip(out.column("media_id").to_pylist(),
                            out.column("width").to_pylist(),
                            out.column("height").to_pylist(),
                            out.column("channels").to_pylist()):
        assert w == 16 + (mid * 7) % 48
        assert h == 16 + (mid * 13) % 48
        assert c == 3


def test_jpeg_luma_close_to_source_pixels():
    # the lossy decode must still be the SAME image: mean luma within
    # ~1% of the FAKEIMG1 source pixels it was encoded from
    import hashlib
    import struct as _struct
    from html_parser_ray.stages.multimodal import (
        _decode_image, make_image_payload)
    for mid in (1, 7, 13, 25):            # % 3 == 1 -> JPEG form
        assert mid % 3 == 1
        w = 16 + (mid * 7) % 48
        h = 16 + (mid * 13) % 48
        seed = hashlib.blake2b(_struct.pack("<q", mid),
                               digest_size=8).digest()
        n = w * h * 3
        src = np.frombuffer((seed * (n // 8 + 1))[:n],
                            np.uint8).reshape(h, w, 3)
        dw, dh, dc, got = _decode_image(make_image_payload(mid))
        assert (dw, dh) == (w, h)
        assert abs(float(got.mean()) - float(src.mean())) < 3.0


def test_fuzz_malformed_streams_quarantine_cleanly():
    # byte soup behind the JPEG magic and bit-flipped real streams must
    # raise ValueError/NotImplementedError (the stage quarantine
    # contract) — never IndexError/KeyError — and never hang
    import random
    rng = random.Random(99)
    base = encode_jpeg_baseline(
        (np.arange(48 * 48 * 3, dtype=np.int64) % 256)
        .astype(np.uint8).reshape(48, 48, 3), 90)
    for i in range(400):
        if i % 2 == 0:
            payload = b"\xff\xd8" + bytes(
                rng.randrange(256) for _ in range(rng.randrange(4, 400)))
        else:
            b2 = bytearray(base)
            for _ in range(rng.randrange(1, 8)):
                b2[rng.randrange(len(b2))] = rng.randrange(256)
            payload = bytes(b2)
        try:
            decode_jpeg(payload)
        except (ValueError, NotImplementedError):
            pass


def test_huge_declared_dimensions_rejected_before_allocation():
    payload = bytearray(encode_jpeg_baseline(np.zeros((8, 8, 3), np.uint8)))
    idx = payload.find(b"\xff\xc0")
    payload[idx + 5:idx + 9] = (65535).to_bytes(2, "big") * 2  # h, w
    with pytest.raises(ValueError):
        decode_jpeg(bytes(payload))
