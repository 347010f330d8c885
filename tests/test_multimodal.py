"""Multimodal tests: synthetic media table, image decode/feature/resize
projections on DocStage (codec boundary stubbed, Ray plumbing real)."""

import struct

import pyarrow as pa
import pytest

from html_parser_ray.stages.extract import DocStage
from html_parser_ray.stages.multimodal import (
    IMAGE, IMAGE_FEATURES, IMAGE_RESIZE, MEDIA_SCHEMA, make_image_payload,
    media_table, _decode_image,
)

image_features = DocStage(IMAGE_FEATURES, decoder=IMAGE)


def _media(payloads: list[bytes], kind: str) -> pa.Table:
    return pa.table({
        "media_id": pa.array(range(len(payloads)), pa.int64()),
        "kind": pa.array([kind] * len(payloads), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "source_url": pa.array(["x"] * len(payloads), pa.string()),
    })


def test_media_table_schema_and_determinism():
    t1 = media_table(30)
    t2 = media_table(30)
    assert t1.schema == MEDIA_SCHEMA
    assert t1.equals(t2)
    assert set(t1.column("kind").to_pylist()) == {"image"}


def test_image_features_batch():
    tbl = media_table(30)
    out = image_features(tbl)
    assert out.num_rows == tbl.num_rows
    assert set(out.column("status").to_pylist()) == {"ok"}
    for mid, w, h in zip(out.column("media_id").to_pylist(),
                         out.column("width").to_pylist(),
                         out.column("height").to_pylist()):
        assert w == 16 + (mid * 7) % 48
        assert h == 16 + (mid * 13) % 48
    lumas = out.column("mean_luma_bp").to_pylist()
    assert all(0 <= v <= 10_000 for v in lumas)


def test_image_features_determinism_and_phash_stability():
    tbl = media_table(9)
    out1 = image_features(tbl)
    out2 = image_features(tbl)
    assert out1.equals(out2)


def test_image_resize_roundtrip():
    tbl = media_table(9)
    out = DocStage(IMAGE_RESIZE, decoder=IMAGE)(tbl)
    assert set(out.column("status").to_pylist()) == {"ok"}
    for payload in out.column("payload").to_pylist():
        w, h, c, arr = _decode_image(payload)
        assert (w, h) == (16, 16) and arr.shape == (16, 16, c)


def test_unknown_codec_quarantined_not_raised():
    out = image_features(_media([b"\x89PNG\r\n\x1a\nnotreally"], "image"))
    # PNG magic with a torn body is a real decode attempt that fails —
    # quarantined per row as error, never raised
    assert out.column("status").to_pylist() == ["error"]
    assert out.column("error").to_pylist()[0].startswith("ValueError: ")


def test_image_features_task_map(ray_session):
    import ray
    tbl = media_table(60)
    ds = ray.data.from_arrow(tbl)
    out = pa.Table.from_pylist(ds.map_batches(
        image_features, batch_format="pyarrow", batch_size=8).take_all())
    assert out.num_rows == tbl.num_rows
    assert set(out.column("status").to_pylist()) == {"ok"}


@pytest.mark.parametrize("bad,status,error", [
    # a torn header, cut pixel data or degenerate dims raise ValueError
    # in the decoder; foreign bytes raise NotImplementedError
    (b"FAKEIMG1\x01", "error", "ValueError: torn FAKEIMG1 header"),
    (make_image_payload(0)[:12], "error",
     "ValueError: torn FAKEIMG1 header"),
    (make_image_payload(0)[:13 + 10], "error", "ValueError: "),
    (b"FAKEIMG1" + struct.pack("<HHB", 0, 4, 3), "error",
     "ValueError: degenerate image dims"),
    (b"GIF89a??", "codec_unavailable", "NotImplementedError: "),
])
def test_bad_media_payload_is_one_quarantine_row(bad, status, error):
    """A payload that fails to decode gives one quarantine row, and the
    rest of the batch still decodes."""
    rows = image_features(
        _media([bad, make_image_payload(0)], "image")).to_pylist()
    assert rows[0]["media_id"] == 0
    assert rows[0]["status"] == status
    assert rows[0]["error"].startswith(error)
    assert {r["media_id"] for r in rows[1:]} == {1}
    assert {r["status"] for r in rows[1:]} == {"ok"}


# ---------------------------------------------------------------------------
# real-codec bridge: from-scratch PNG decode (no PIL needed)

def _encode_png(arr, color_type: int, row_filters) -> bytes:
    """Test-side PNG encoder: filters each scanline with the given
    filter type (0-4, PNG spec §9) so the decoder's unfilter paths are
    all exercised against ground-truth pixels."""
    import struct
    import zlib

    import numpy as np

    h, w, c = arr.shape
    assert c == {0: 1, 2: 3, 6: 4}[color_type]
    stride = w * c
    flat = arr.reshape(h, stride).astype(np.int32)
    lines = bytearray()
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        raw = flat[y]
        f = row_filters[y % len(row_filters)]
        filt = raw.copy()
        if f == 1:
            for i in range(stride - 1, c - 1, -1):
                filt[i] = (raw[i] - raw[i - c]) & 0xFF
        elif f == 2:
            filt = (raw - prev) & 0xFF
        elif f == 3:
            for i in range(stride):
                left = raw[i - c] if i >= c else 0
                filt[i] = (raw[i] - ((left + prev[i]) >> 1)) & 0xFF
        elif f == 4:
            for i in range(stride):
                a = raw[i - c] if i >= c else 0
                b = prev[i]
                cc = prev[i - c] if i >= c else 0
                p = a + b - cc
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else cc)
                filt[i] = (raw[i] - pred) & 0xFF
        lines.append(f)
        lines += bytes(int(v) for v in filt)
        prev = raw

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(lines)))
            + chunk(b"IEND", b""))


def test_png_decode_roundtrip_all_filters():
    import numpy as np
    from html_parser_ray.stages.multimodal import decode_png
    rng = np.random.default_rng(42)
    arr = rng.integers(0, 256, size=(11, 7, 3), dtype=np.uint8)
    for filters in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4]):
        payload = _encode_png(arr, 2, filters)
        w, h, c, got = decode_png(payload)
        assert (w, h, c) == (7, 11, 3)
        assert np.array_equal(got, arr), f"filters={filters}"


def test_png_decode_gray_and_alpha_normalize_to_rgb():
    import numpy as np
    from html_parser_ray.stages.multimodal import decode_png
    rng = np.random.default_rng(7)
    gray = rng.integers(0, 256, size=(5, 9, 1), dtype=np.uint8)
    w, h, c, got = decode_png(_encode_png(gray, 0, [0, 2]))
    assert (w, h, c) == (9, 5, 3)
    assert np.array_equal(got, np.repeat(gray, 3, axis=2))
    rgba = rng.integers(0, 256, size=(6, 4, 4), dtype=np.uint8)
    w, h, c, got = decode_png(_encode_png(rgba, 6, [4, 1]))
    assert (w, h, c) == (4, 6, 3)
    assert np.array_equal(got, rgba[:, :, :3])


def test_png_decode_rejects_unsupported():
    import pytest
    from html_parser_ray.stages.multimodal import decode_png
    with pytest.raises(ValueError):
        decode_png(b"not a png at all")
    # 16-bit depth is out of the bridge decoder's scope
    import numpy as np
    payload = bytearray(_encode_png(
        np.zeros((2, 2, 3), np.uint8), 2, [0]))
    payload[24] = 16                      # IHDR bit-depth byte
    with pytest.raises(NotImplementedError):
        decode_png(bytes(payload))


def test_image_feature_stage_decodes_real_png(ray_session):
    """The FAKE->real bridge: a genuine PNG payload flows through the
    task map with status=ok and real dimensions — the plumbing is no
    longer the only tested part."""
    import numpy as np
    import pyarrow as pa
    import ray
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, size=(12, 10, 3), dtype=np.uint8)
    tbl = pa.table({
        "media_id": pa.array([0, 1], pa.int64()),
        "kind": pa.array(["image", "image"], pa.string()),
        "payload": pa.array(
            [_encode_png(arr, 2, [0, 1, 2, 3, 4]), b"GIF89a??"],
            pa.binary()),
        "source_url": pa.array(["https://x/a.png", "https://x/b.gif"],
                               pa.string()),
    })
    rows = sorted(ray.data.from_arrow(tbl).map_batches(
        image_features, batch_size=4, batch_format="pyarrow").take_all(),
        key=lambda r: r["media_id"])
    assert rows[0]["status"] == "ok"
    assert (rows[0]["width"], rows[0]["height"]) == (10, 12)
    assert rows[0]["mean_luma_bp"] == int(round(
        float(arr.astype(np.float64).mean()) / 255.0 * 10_000))
    assert rows[1]["status"] == "codec_unavailable"   # GIF needs PIL


def test_png_fuzz_malformed_streams_quarantine_cleanly():
    # byte soup behind the PNG magic and bit-flipped real streams must
    # raise ValueError/NotImplementedError — never zlib.error or
    # struct.error — and the bounded decompress rejects zip bombs
    import random
    import numpy as np
    from html_parser_ray.stages.multimodal import (
        _PNG_MAGIC, decode_png, encode_png)
    rng = random.Random(7)
    base = encode_png((np.arange(32 * 32 * 3, dtype=np.int64) % 256)
                      .astype(np.uint8).reshape(32, 32, 3))
    for i in range(400):
        if i % 2 == 0:
            payload = _PNG_MAGIC + bytes(
                rng.randrange(256) for _ in range(rng.randrange(4, 300)))
        else:
            b2 = bytearray(base)
            for _ in range(rng.randrange(1, 8)):
                b2[rng.randrange(len(b2))] = rng.randrange(256)
            payload = bytes(b2)
        try:
            decode_png(payload)
        except (ValueError, NotImplementedError):
            pass


def test_png_huge_declared_dimensions_rejected():
    import struct
    import zlib
    from html_parser_ray.stages.multimodal import _PNG_MAGIC, decode_png

    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", zlib.crc32(t + d)))

    ihdr = struct.pack(">IIBBBBB", 60000, 60000, 8, 2, 0, 0, 0)
    big = (_PNG_MAGIC + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", zlib.compress(b"\x00" * 1000))
           + chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_png(big)
