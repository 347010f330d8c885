"""Multimodal columns: images as opaque ``binary`` payloads with typed
metadata, decoded and projected by ``DocStage`` task maps.

PNG, baseline JPEG and the deterministic FAKE container format below
decode with built-in decoders. Other formats decode through PIL, gated
behind an import-try, when it is installed, and raise NotImplementedError
otherwise.

FAKE container format (deterministic, self-describing):
  b"FAKEIMG1" + u16 width + u16 height + u8 channels + pixel bytes

Payloads are multi-KB binary cells: batch_size for these stages must be
sized in BYTES not rows — rows x mean payload well under the worker heap
(batch_size 8-16 at ~1 MB images) — exactly the discipline a real 100 TB
image corpus needs.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from .extract import Decoder, Projection

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # image
    ("payload", pa.binary()),
    ("source_url", pa.string()),
])

try:  # real codec path — absent in this container, used when available
    from PIL import Image as _PIL_Image  # noqa: F401
    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


# ---------------------------------------------------------------------------
# deterministic synthetic media (no external data; seeded by id)

def encode_png(arr: "np.ndarray") -> bytes:
    """Minimal deterministic PNG encoder (filter 0, 8-bit RGB) — the
    write half of the PNG bridge, used to synthesize real-format test
    payloads for decode_png."""
    import zlib

    h, w, c = arr.shape
    assert c == 3
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(h))

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (_PNG_MAGIC + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def make_image_payload(media_id: int) -> bytes:
    """Deterministic image payload; the format rotates by id so every
    third image exercises a REAL codec end to end (FAKEIMG1 container /
    baseline JPEG via jpegcore / PNG via the bridge pair), same dims
    formula for all three so dimension oracles hold."""
    width = 16 + (media_id * 7) % 48
    height = 16 + (media_id * 13) % 48
    channels = 3
    n = width * height * channels
    seed = hashlib.blake2b(struct.pack("<q", media_id),
                           digest_size=8).digest()
    reps = n // 8 + 1
    pixels = (seed * reps)[:n]
    form = media_id % 3
    if form == 1:
        from .jpegcore import encode_jpeg_baseline
        arr = np.frombuffer(pixels, np.uint8).reshape(height, width, channels)
        return encode_jpeg_baseline(
            arr, quality=90,
            subsampling="4:2:0" if media_id % 2 == 0 else "4:4:4")
    if form == 2:
        arr = np.frombuffer(pixels, np.uint8).reshape(height, width, channels)
        return encode_png(arr)
    return b"FAKEIMG1" + struct.pack("<HHB", width, height, channels) + pixels


def media_table(n_rows: int) -> pa.Table:
    ids = list(range(n_rows))
    return pa.table({"media_id": pa.array(ids, pa.int64()),
                     "kind": pa.array(["image"] * n_rows, pa.string()),
                     "payload": pa.array([make_image_payload(i) for i in ids],
                                         pa.binary()),
                     "source_url": pa.array(
                         [f"https://example.org/media/{i:08d}.img"
                          for i in ids], pa.string())},
                    schema=MEDIA_SCHEMA)


# ---------------------------------------------------------------------------
# decode kernels (codec boundary — the only partially-stubbed part:
# PNG decodes for real via the from-scratch decoder below and baseline
# JPEG via stages/jpegcore.py; WebP/GIF/… would use PIL when present
# and raise otherwise)

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def _png_unfilter(raw: bytes, height: int, stride: int,
                  bpp: int) -> np.ndarray:
    """Undo PNG per-scanline filtering (spec filters 0-4: None, Sub, Up,
    Average, Paeth — public PNG spec §9). Sequential by construction
    (each row depends on the previous); rows are small, this is the
    bridge path, not the 100-TB hot path."""
    out = np.zeros((height, stride), dtype=np.uint8)
    pos = 0
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(height):
        ftype = raw[pos]
        row = np.frombuffer(raw, np.uint8, stride, pos + 1).astype(np.int32)
        pos += 1 + stride
        if ftype == 1:                          # Sub
            for i in range(bpp, stride):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ftype == 2:                        # Up
            row = (row + prev) & 0xFF
        elif ftype == 3:                        # Average
            for i in range(stride):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ftype == 4:                        # Paeth
            for i in range(stride):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else \
                    (b if pb <= pc else c)
                row[i] = (row[i] + pred) & 0xFF
        elif ftype != 0:
            raise ValueError(f"PNG: bad filter type {ftype}")
        out[y] = row
        prev = row
    return out


def decode_png(payload: bytes) -> tuple[int, int, int, np.ndarray]:
    """Minimal from-scratch PNG decoder (public spec, stdlib zlib):
    8-bit depth, color types 0 (gray), 2 (RGB), 6 (RGBA), no interlace.
    Returns (width, height, 3, HxWx3 uint8) — gray is expanded and
    alpha dropped so the feature stage sees one layout. Written for the
    FAKE→real decode bridge; a production image corpus would swap in a
    turbo codec behind the same signature."""
    import zlib

    if payload[:8] != _PNG_MAGIC:
        raise ValueError("not a PNG")
    pos, idat = 8, []
    width = height = depth = color = interlace = None
    while pos + 8 <= len(payload):
        length = int.from_bytes(payload[pos:pos + 4], "big")
        ctype = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + length]
        pos += 12 + length                       # 4 len + 4 type + 4 crc
        if ctype == b"IHDR":
            if len(data) < 13:
                raise ValueError("PNG: truncated IHDR")
            width, height, depth, color, _comp, _filt, interlace = \
                struct.unpack(">IIBBBBB", data[:13])
        elif ctype == b"IDAT":
            idat.append(data)
        elif ctype == b"IEND":
            break
    if width is None:
        raise ValueError("PNG: missing IHDR")
    if depth != 8 or interlace != 0 or color not in (0, 2, 6):
        raise NotImplementedError(
            f"PNG bridge decoder: unsupported depth={depth} "
            f"color={color} interlace={interlace}")
    if width == 0 or height == 0:
        raise ValueError("degenerate PNG dims")
    if width * height > 64_000_000:     # match the JPEG bridge cap
        raise ValueError("PNG: dimensions exceed bridge-decoder cap")
    channels = {0: 1, 2: 3, 6: 4}[color]
    stride = width * channels
    expected = height * (stride + 1)
    try:
        # bounded decompress: a crafted IDAT must not expand past the
        # declared pixel volume (zip-bomb guard)
        d = zlib.decompressobj()
        raw = d.decompress(b"".join(idat), expected)
    except zlib.error as exc:
        raise ValueError(f"PNG: corrupt IDAT ({exc})") from None
    if len(raw) != expected:
        raise ValueError("PNG: truncated pixel data")
    arr = _png_unfilter(raw, height, stride, channels) \
        .reshape(height, width, channels)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    elif channels == 4:
        arr = arr[:, :, :3]
    return width, height, 3, np.ascontiguousarray(arr)


def _decode_image(payload: bytes) -> tuple[int, int, int, np.ndarray]:
    if payload.startswith(b"FAKEIMG1"):
        if len(payload) < 13:
            raise ValueError(f"torn FAKEIMG1 header: {len(payload)} bytes")
        width, height, channels = struct.unpack_from("<HHB", payload, 8)
        # degenerate dims are a torn/crafted payload: reject them here,
        # as ValueError, since the feature/resize math assumes a
        # non-empty image
        if width <= 0 or height <= 0 or channels <= 0:
            raise ValueError(
                f"degenerate image dims {width}x{height}x{channels}")
        # (np.frombuffer raises ValueError on truncated pixel data)
        pixels = np.frombuffer(payload, dtype=np.uint8, offset=13,
                               count=width * height * channels)
        return width, height, channels, pixels.reshape(height, width, channels)
    if payload.startswith(_PNG_MAGIC):
        return decode_png(payload)               # real decode, no deps
    if payload.startswith(b"\xff\xd8"):          # real decode, no deps
        from .jpegcore import decode_jpeg
        return decode_jpeg(payload)
    if _HAVE_PIL:  # pragma: no cover — no PIL in this container
        import io
        img = _PIL_Image.open(io.BytesIO(payload)).convert("RGB")
        arr = np.asarray(img)
        return img.width, img.height, 3, arr
    raise NotImplementedError(
        "no codec for this image format in this container (PNG and "
        "baseline JPEG decode via the built-in from-scratch decoders; "
        "WebP/GIF/... need PIL)")


# ---------------------------------------------------------------------------
# decoders and projections: run on DocStage as task maps, e.g.
# ``ds.map_batches(DocStage(IMAGE_FEATURES, decoder=IMAGE), ...)``

IMAGE = Decoder("payload", _decode_image)

RESIZE = 16  # IMAGE_RESIZE output width and height


def _image_features(image) -> list[dict]:
    w, h, c, arr = image
    luma = float(arr.astype(np.float64).mean()) / 255.0
    # 64-bit average-hash over an 8x8 downsample (public aHash)
    gray = arr.mean(axis=2)
    ys = np.linspace(0, h - 1, 8).astype(int)
    xs = np.linspace(0, w - 1, 8).astype(int)
    small = gray[np.ix_(ys, xs)]
    bits = (small > small.mean()).flatten()
    phash = 0
    for i, b in enumerate(bits):
        if b:
            phash |= 1 << i
    return [{"width": w, "height": h, "channels": c,
             "mean_luma_bp": int(round(luma * 10_000)),
             "phash": phash & ((1 << 63) - 1)}]


def _image_resize(image) -> list[dict]:
    # nearest-neighbor to RESIZE x RESIZE, re-encoded as FAKEIMG1 (a real
    # deployment swaps the codec call only)
    w, h, c, arr = image
    ys = np.linspace(0, h - 1, RESIZE).astype(int)
    xs = np.linspace(0, w - 1, RESIZE).astype(int)
    small = arr[np.ix_(ys, xs)]
    return [{"payload": b"FAKEIMG1" + struct.pack("<HHB", RESIZE, RESIZE, c)
             + small.tobytes(),
             "width": RESIZE, "height": RESIZE}]


_I = pa.int64()

IMAGE_FEATURES = Projection(pa.schema({
    "width": _I, "height": _I, "channels": _I, "mean_luma_bp": _I,
    "phash": _I,
}), _image_features)
IMAGE_RESIZE = Projection(pa.schema({
    "payload": pa.binary(), "width": _I, "height": _I,
}), _image_resize)
