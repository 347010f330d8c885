"""Byte-stream input: chunked decode + parse/tokenize.

Mirror of the reference's parseStream/tokenizeStream (reference:
src/public/mod.ts:902-936 parseStream; decode loop decodeStreamToText
:774-881; tokenizeStream :886-897; STREAM_ENCODING_PRESCAN_BYTES :103):

- the first 16 KiB are buffered for the encoding prescan (BOM > transport
  label > <meta charset>), then decoding proceeds incrementally;
- ``max_buffered_bytes`` bounds the prescan buffer;
- ``max_input_bytes`` aborts BEFORE pulling further chunks once the
  running total exceeds it (mirrors stream-agent.test.js:115-132);
- the result is identical to ``parse_bytes`` over the concatenated bytes
  (stream-agent.test.js:90-113) — verified by tests.

In the Ray pipeline rows are whole documents, so this operator exists for
API parity; Ray Data's streaming executor provides pipeline-level
streaming instead (SURVEY.md §2.1 S3).
"""

from __future__ import annotations

import codecs
from collections.abc import Iterable

from .api import Budgets, BudgetExceededError, ParseTree, parse_decoded
from .sniff import (PRESCAN_BYTES_DEFAULT, SniffResult, sniff_html_encoding,
                    _CP1252_TRANSLATE, _PY_CODECS, _XUD_TRANSLATE)

_BOMS = {"utf-8": b"\xef\xbb\xbf", "utf-16le": b"\xff\xfe",
         "utf-16be": b"\xfe\xff"}


class _TranslateIncrementalDecoder:
    """Incremental decoder for the WHATWG single-byte paths that have no
    exact Python codec: latin-1 per chunk (stateless) + a translate table
    — byte-for-byte identical to ``sniff.decode_bytes``."""

    def __init__(self, table: dict[int, str]):
        self._table = table

    def decode(self, data: bytes, final: bool = False) -> str:
        return data.decode("latin-1").translate(self._table)


class _ReplacementIncrementalDecoder:
    """WHATWG 'replacement' encoding: the whole (non-empty) stream decodes
    to a single U+FFFD."""

    def __init__(self):
        self._emitted = False

    def decode(self, data: bytes, final: bool = False) -> str:
        if data and not self._emitted:
            self._emitted = True
            return "�"
        return ""


def _incremental_decoder(encoding: str):
    """Incremental decoder matching ``sniff.decode_bytes`` for every
    sniffable WHATWG encoding (the canonical names are NOT all valid
    Python codec names — windows-874, x-user-defined, iso-8859-8-i,
    x-mac-cyrillic, replacement — and several need different tables than
    the eponymous Python codec: windows-1252 C1 bytes, shift_jis→cp932,
    big5→big5hkscs, euc-kr→cp949)."""
    if encoding == "windows-1252":
        return _TranslateIncrementalDecoder(_CP1252_TRANSLATE)
    if encoding == "x-user-defined":
        return _TranslateIncrementalDecoder(_XUD_TRANSLATE)
    if encoding == "replacement":
        return _ReplacementIncrementalDecoder()
    codec = _PY_CODECS.get(encoding)
    if codec is None:
        # unknown label: decode_bytes falls back to windows-1252 semantics
        return _TranslateIncrementalDecoder(_CP1252_TRANSLATE)
    return codecs.getincrementaldecoder(codec)(errors="replace")


def decode_stream_to_text(
    chunks: Iterable[bytes],
    transport_encoding_label: str | None = None,
    budgets: Budgets | None = None,
) -> tuple[str, SniffResult]:
    """Incremental decode with a 16 KiB sniff prescan + budget gates."""
    max_input = budgets.max_input_bytes if budgets else None
    max_buffered = budgets.max_buffered_bytes if budgets else None

    it = iter(chunks)
    prescan = b""
    total = 0
    pending: list[bytes] = []
    exhausted = False
    for chunk in it:
        total += len(chunk)
        if max_input is not None and total > max_input:
            raise BudgetExceededError("maxInputBytes", max_input, total)
        prescan += chunk
        if max_buffered is not None and len(prescan) > max_buffered:
            raise BudgetExceededError("maxBufferedBytes", max_buffered,
                                      len(prescan))
        if len(prescan) >= PRESCAN_BYTES_DEFAULT:
            break
    else:
        exhausted = True

    sniff = sniff_html_encoding(prescan, transport_encoding_label)
    decoder = _incremental_decoder(sniff.encoding)

    # strip the BOM exactly as whole-buffer decode does
    body = prescan
    bom = _BOMS.get(sniff.encoding)
    if sniff.source == "bom" and bom and body.startswith(bom):
        body = body[len(bom):]

    parts = [decoder.decode(body)]
    if not exhausted:
        for chunk in it:
            total += len(chunk)
            if max_input is not None and total > max_input:
                raise BudgetExceededError("maxInputBytes", max_input, total)
            parts.append(decoder.decode(chunk))
    parts.append(decoder.decode(b"", True))
    return "".join(parts), sniff


def parse_stream(
    chunks: Iterable[bytes],
    *,
    transport_encoding_label: str | None = None,
    scripting_enabled: bool = True,
    capture_spans: bool = False,
    budgets: Budgets | None = None,
) -> ParseTree:
    """Chunked-bytes analog of ``parse_bytes`` — identical output."""
    return parse_decoded(
        lambda: decode_stream_to_text(chunks, transport_encoding_label,
                                      budgets),
        scripting_enabled=scripting_enabled, capture_spans=capture_spans,
        budgets=budgets)


def tokenize_stream(
    chunks: Iterable[bytes],
    *,
    transport_encoding_label: str | None = None,
    budgets: Budgets | None = None,
) -> list[dict]:
    """Chunked-bytes analog of the public ``tokenize`` (tokens after full
    decode, like the reference — mod.ts:886-897 buffers before
    tokenizing)."""
    from .tokens import tokenize
    text, _sniff = decode_stream_to_text(chunks, transport_encoding_label,
                                         budgets)
    return tokenize(text)
