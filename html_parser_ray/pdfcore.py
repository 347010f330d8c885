"""Minimal PDF text/layout extraction kernel (digital-born subset).

The north-star pipeline lists "PDF/layout parse" beside HTML boilerplate
stripping. No PDF library ships in this environment, so this module
implements the subset needed for digital-born text PDFs from scratch,
using only the stdlib:

- **Object scan**: ``N G obj … endobj`` pairs located lexically (the
  byte-offset xref table is deliberately not trusted — real-world PDFs
  frequently carry broken xrefs; readers fall back to a scan exactly like
  this one). Stream payloads are delimited by ``stream``/``endstream``
  rather than the /Length entry, which may be an indirect reference.
- **FlateDecode** via ``zlib`` (the overwhelmingly dominant filter for
  content streams), at most ``MAX_INFLATED_BYTES`` per document. Other
  filters (LZW, DCT, …) are out of scope and skipped.
- **Content-stream tokenizer**: literal strings with escape sequences
  and balanced parens, hex strings, arrays, names, numbers, operators.
- **Text extraction**: BT…ET blocks; Tj / TJ / ' / " show operators; the
  text position is tracked through Td, TD, T*, TL and Tm so runs can be
  grouped into lines (same y) and ordered into reading order (top-down,
  left-to-right). String bytes are decoded as UTF-8 with Latin-1
  fallback — correct for this module's own generator and for the common
  WinAnsi ASCII range; CID/Type0 font cmaps are out of scope.

``make_minimal_pdf`` generates deterministic, structurally valid
single-or-multi-page PDFs (correct xref offsets, optional Flate
compression) used by tests and the driver query's oracle wrap.
"""

from __future__ import annotations

import re
import zlib

# ---------------------------------------------------------------------------
# generator

def _esc_pdf_string(s: str) -> bytes:
    out = s.encode("utf-8")
    return (out.replace(b"\\", b"\\\\")
            .replace(b"(", b"\\(")
            .replace(b")", b"\\)"))


def make_minimal_pdf(pages: list[list[str]] | str, *,
                     compress: bool = True, font_size: int = 12,
                     leading: int = 14) -> bytes:
    """Build a valid minimal PDF. ``pages`` is a list of pages, each a
    list of text lines (a bare string becomes one single-line page).
    Deterministic: same input → same bytes."""
    if isinstance(pages, str):
        pages = [[pages]]
    objs: list[bytes] = []  # 1-indexed

    n_pages = len(pages)
    # obj 1: catalog, obj 2: pages, obj 3: font
    # per page i: obj 4+2i = page, obj 5+2i = content
    kids = " ".join(f"{4 + 2 * i} 0 R" for i in range(n_pages))
    objs.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objs.append((f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>"
                 ).encode())
    objs.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    for i, lines in enumerate(pages):
        content = bytearray()
        content += b"BT\n/F1 %d Tf\n%d TL\n72 720 Td\n" % (font_size, leading)
        for j, line in enumerate(lines):
            if j > 0:
                content += b"T*\n"
            content += b"(" + _esc_pdf_string(line) + b") Tj\n"
        content += b"ET"
        payload = bytes(content)
        if compress:
            payload = zlib.compress(payload, 6)
            head = b"<< /Length %d /Filter /FlateDecode >>" % len(payload)
        else:
            head = b"<< /Length %d >>" % len(payload)
        objs.append((f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                     f"/Resources << /Font << /F1 3 0 R >> >> "
                     f"/Contents {5 + 2 * i} 0 R >>").encode())
        objs.append(head + b"\nstream\n" + payload + b"\nendstream")

    buf = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = [0]
    for num, body in enumerate(objs, start=1):
        offsets.append(len(buf))
        buf += b"%d 0 obj\n" % num
        buf += body
        buf += b"\nendobj\n"
    xref_at = len(buf)
    buf += b"xref\n0 %d\n" % (len(objs) + 1)
    buf += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        buf += b"%010d 00000 n \n" % off
    buf += (b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
            % (len(objs) + 1, xref_at))
    return bytes(buf)


# ---------------------------------------------------------------------------
# extractor

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b", re.S)
_STREAM_RE = re.compile(rb"stream\r?\n")
_FLATE_RE = re.compile(rb"/Filter\s*(?:\[\s*)?/FlateDecode")

# the bytes all FlateDecode streams of one document may inflate to, the
# size of DEFAULT_BUDGETS.max_input_bytes: past it the document raises
# ValueError and is quarantined, where a few-MB zip bomb would grow its
# worker by GBs
MAX_INFLATED_BYTES = 64 * 1024 * 1024


def _inflate(data: bytes, budget: int) -> bytes | None:
    """The zlib stream at the start of ``data`` inflated, or None if it is
    corrupt or does not end in ``data``. Inflates 1 MiB at a time, so it
    raises ValueError holding at most 1 MiB more than ``budget``."""
    d = zlib.decompressobj()
    parts = []
    try:
        while not d.eof:
            parts.append(d.decompress(data, 1 << 20))
            budget -= len(parts[-1])
            if budget < 0:
                raise ValueError(f"FlateDecode streams inflate past "
                                 f"{MAX_INFLATED_BYTES} bytes")
            data = d.unconsumed_tail
            if not parts[-1] and not data and not d.eof:
                return None
    except zlib.error:
        return None
    return b"".join(parts)


def _iter_streams(data: bytes):
    """Yield (dict_bytes, decoded_payload) for every stream object.

    The keyword searches make one pass over the document: the next
    ``endobj``, ``stream`` and ``endstream`` found are kept and searched
    for again only once a header lies past them, and a keyword missing
    after one header is missing after every later one, which ends the
    scan. A stream is taken once, by the first header of its object:
    headers that start before that object's ``endobj`` are skipped."""
    inflated = 0
    endobj = payload_end = taken_to = -1
    sm = None
    for m in _OBJ_RE.finditer(data):
        if m.start() < taken_to:
            continue
        start = m.end()
        if endobj < start:
            endobj = data.find(b"endobj", start)
            if endobj < 0:
                return
        if sm is None or sm.start() < start:
            sm = _STREAM_RE.search(data, start)
            if sm is None:
                return
        if sm.end() > endobj:   # no stream inside this object
            continue
        payload_start = sm.end()
        if payload_end < payload_start:
            payload_end = data.find(b"endstream", payload_start)
            if payload_end < 0:
                return
        taken_to = endobj
        head = data[start:sm.start()]
        payload = data[payload_start:payload_end]
        if _FLATE_RE.search(head):
            # the EOL before `endstream` is not part of the stream, but a
            # compressed payload may itself END in \r or \n — stripping by
            # byte value alone corrupts ~1/128 of streams. Try the strip
            # candidates and keep the first that inflates.
            for cand in (payload[:-1] if payload[-1:] in (b"\n", b"\r")
                         else payload,
                         payload[:-2] if payload.endswith(b"\r\n")
                         else payload,
                         payload):
                out = _inflate(cand, MAX_INFLATED_BYTES - inflated)
                if out is not None:
                    payload = out
                    inflated += len(out)
                    break
            else:
                continue
        else:
            if payload.endswith(b"\r\n"):
                payload = payload[:-2]
            elif payload.endswith(b"\n") or payload.endswith(b"\r"):
                payload = payload[:-1]
        yield head, payload


def _decode_text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


_OCTAL = b"01234567"


def _parse_literal_string(data: bytes, i: int) -> tuple[bytes, int]:
    """data[i] == '(' → (string bytes, index past ')')."""
    out = bytearray()
    depth = 1
    i += 1
    n = len(data)
    while i < n and depth:
        c = data[i:i + 1]
        if c == b"\\":
            nxt = data[i + 1:i + 2]
            if nxt == b"n":
                out += b"\n"
            elif nxt == b"r":
                out += b"\r"
            elif nxt == b"t":
                out += b"\t"
            elif nxt == b"b":
                out += b"\b"
            elif nxt == b"f":
                out += b"\f"
            elif nxt in (b"(", b")", b"\\"):
                out += nxt
            elif nxt in (b"\n", b"\r"):  # line continuation
                if nxt == b"\r" and data[i + 2:i + 3] == b"\n":
                    i += 1
            elif nxt and nxt in _OCTAL:
                oct_digits = nxt
                j = i + 2
                while j < n and len(oct_digits) < 3 and data[j:j + 1] in _OCTAL:
                    oct_digits += data[j:j + 1]
                    j += 1
                out.append(int(oct_digits, 8) & 0xFF)
                i = j - 1
                i += 1
                continue
            else:
                out += nxt
            i += 2
            continue
        if c == b"(":
            depth += 1
        elif c == b")":
            depth -= 1
            if depth == 0:
                i += 1
                break
        if depth:
            out += c
        i += 1
    return bytes(out), i


def _parse_hex_string(data: bytes, i: int) -> tuple[bytes, int]:
    end = data.find(b">", i + 1)
    if end < 0:
        end = len(data)
    hexs = re.sub(rb"\s", b"", data[i + 1:end])
    if len(hexs) % 2:
        hexs += b"0"
    try:
        raw = bytes.fromhex(hexs.decode("ascii"))
    except ValueError:
        raw = b""
    return raw, end + 1


_NUM_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")
_NAME_RE = re.compile(rb"/[^\s()<>\[\]{}/%]*")
_OP_RE = re.compile(rb"[A-Za-z'\"][A-Za-z0-9*'\"]*")
_WS_RE = re.compile(rb"[\s\x00]+")


def _tokenize_content(data: bytes):
    """Yield ('str', bytes) | ('num', float) | ('name', bytes) |
    ('op', bytes) | ('[', None) | (']', None)."""
    i, n = 0, len(data)
    while i < n:
        m = _WS_RE.match(data, i)
        if m:
            i = m.end()
            continue
        c = data[i:i + 1]
        if c == b"(":
            s, i = _parse_literal_string(data, i)
            yield ("str", s)
        elif c == b"<":
            if data[i + 1:i + 2] == b"<":  # dict — skip balanced
                depth = 1
                i += 2
                while i < n and depth:
                    if data[i:i + 2] == b"<<":
                        depth += 1
                        i += 2
                    elif data[i:i + 2] == b">>":
                        depth -= 1
                        i += 2
                    else:
                        i += 1
            else:
                s, i = _parse_hex_string(data, i)
                yield ("str", s)
        elif c == b"[":
            yield ("[", None)
            i += 1
        elif c == b"]":
            yield ("]", None)
            i += 1
        elif c == b"/":
            m = _NAME_RE.match(data, i)
            yield ("name", m.group())
            i = m.end()
        elif c == b"%":  # comment to EOL
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
        else:
            m = _NUM_RE.match(data, i)
            if m:
                yield ("num", float(m.group()))
                i = m.end()
                continue
            m = _OP_RE.match(data, i)
            if m:
                yield ("op", m.group())
                i = m.end()
            else:
                i += 1  # unknown byte — skip


def pdf_layout_blocks(data: bytes) -> list[tuple[int, float, float, str]]:
    """PDF bytes → [(stream_index, x, y, run_text), …] in stream order.

    x, y track the text-line position through Td/TD/T*/TL/Tm; each entry
    is one shown run. Reading order is restored by the caller (sort by
    (page, -y, x)) or taken as-is for generator output (already in
    order)."""
    blocks: list[tuple[int, float, float, str]] = []
    for page_no, (_head, payload) in enumerate(_iter_streams(data)):
        if b"BT" not in payload:
            continue
        x = y = 0.0
        leading = 0.0
        stack: list[float] = []
        in_array = False
        array_parts: list[str] = []
        pending: list[str] = []

        def flush_run():
            if pending:
                blocks.append((page_no, x, y, "".join(pending)))
                pending.clear()

        for kind, val in _tokenize_content(payload):
            if kind == "[":
                in_array = True
                array_parts = []
            elif kind == "]":
                in_array = False
            elif kind == "str":
                if in_array:
                    array_parts.append(_decode_text(val))
                else:
                    stack.append(0.0)
                    pending.append(_decode_text(val))
            elif kind == "num":
                stack.append(val)
            elif kind == "op":
                op = val
                if op == b"BT":
                    x = y = 0.0
                    leading = 0.0
                elif op == b"Td":
                    flush_run()
                    if len(stack) >= 2:
                        x += stack[-2]
                        y += stack[-1]
                elif op == b"TD":
                    flush_run()
                    if len(stack) >= 2:
                        leading = -stack[-1]
                        x += stack[-2]
                        y += stack[-1]
                elif op == b"TL":
                    if stack:
                        leading = stack[-1]
                elif op == b"T*":
                    flush_run()
                    y -= leading
                elif op == b"Tm":
                    flush_run()
                    if len(stack) >= 6:
                        x, y = stack[-2], stack[-1]
                elif op == b"Tj":
                    pass  # string already pending
                elif op == b"TJ":
                    pending.append("".join(array_parts))
                    array_parts = []
                elif op in (b"'", b'"'):
                    # move to next line FIRST, then show the string (which
                    # is already sitting at the tail of pending)
                    shown = pending.pop() if pending else ""
                    flush_run()
                    y -= leading
                    pending.append(shown)
                elif op == b"ET":
                    flush_run()
                stack.clear()
        flush_run()
    return blocks


def layout_text(blocks: list[tuple[int, float, float, str]]) -> str:
    """Layout runs → plain text: runs grouped into lines by (stream, y),
    lines top-down, runs left-to-right, streams (≈ pages) separated by
    blank lines."""
    pages: dict[int, dict[float, list[tuple[float, str]]]] = {}
    for page, x, y, run in blocks:
        pages.setdefault(page, {}).setdefault(y, []).append((x, run))
    out_pages: list[str] = []
    for page in sorted(pages):
        lines = []
        for y in sorted(pages[page], reverse=True):
            runs = [r for _x, r in sorted(pages[page][y],
                                          key=lambda t: t[0])]
            lines.append("".join(runs))
        out_pages.append("\n".join(lines))
    return "\n\n".join(out_pages)


def extract_pdf_text(data: bytes) -> str:
    """PDF bytes → plain text (``layout_text`` of its layout runs)."""
    return layout_text(pdf_layout_blocks(data))
