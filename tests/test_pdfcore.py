"""pdfcore kernel + PDF task map tests (north-star PDF/layout parse).

The kernel is a from-scratch stdlib implementation for the digital-born
subset: lexical object scan, FlateDecode, content-stream tokenizer,
BT/ET text positioning (Td/TD/T*/TL/Tm, Tj/TJ/'/\") and reading-order
reconstruction.
"""

import gc
import time
import tracemalloc
import zlib

import pyarrow as pa
import pytest

from html_parser_ray.pdfcore import (MAX_INFLATED_BYTES, extract_pdf_text,
                                     make_minimal_pdf, pdf_layout_blocks)
from html_parser_ray.stages.extract import DocStage
from html_parser_ray.stages.pdf_extract import PDF, PDF_TEXT


def test_roundtrip_single_line():
    assert extract_pdf_text(make_minimal_pdf("Hello PDF world")) == \
        "Hello PDF world"


def test_roundtrip_multiline_multipage_both_codecs():
    pages = [["Line one (with parens)", "Line two \\ backslash",
              "Ünïcödé ok"], ["Second page text"]]
    want = ("Line one (with parens)\nLine two \\ backslash\nÜnïcödé ok"
            "\n\nSecond page text")
    for compress in (True, False):
        assert extract_pdf_text(make_minimal_pdf(
            pages, compress=compress)) == want


def test_roundtrip_empty():
    assert extract_pdf_text(make_minimal_pdf("")) == ""


def test_compressed_payload_ending_in_eol_bytes():
    # find texts whose Flate output ends in \r or \n — stripping the
    # endstream EOL by byte value alone corrupts these (regression: 5/500
    # corpus docs failed before decompress-validated stripping)
    found = 0
    for i in range(500):
        text = f"probe text number {i} " * 3
        content = (b"BT\n/F1 12 Tf\n14 TL\n72 720 Td\n(" +
                   text.encode() + b") Tj\nET")
        if zlib.compress(content, 6)[-1:] in (b"\r", b"\n"):
            found += 1
            assert extract_pdf_text(make_minimal_pdf(text)) == text
    assert found > 0  # the probe corpus must actually hit the edge case


def test_layout_blocks_positions_and_order():
    blocks = pdf_layout_blocks(make_minimal_pdf([["top line", "next line"]]))
    assert [b[3] for b in blocks] == ["top line", "next line"]
    assert blocks[0][2] > blocks[1][2]          # y decreases down the page
    assert blocks[0][1] == blocks[1][1] == 72.0  # left margin


def test_tj_array_and_quote_operators():
    # hand-built content stream: TJ array with kerning numbers, ' operator
    content = (b"BT /F1 12 Tf 14 TL 72 720 Td "
               b"[(Hel) -20 (lo)] TJ (world) ' ET")
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length " +
           str(len(content)).encode() +
           b" >>\nstream\n" + content + b"\nendstream\nendobj\n")
    assert extract_pdf_text(pdf) == "Hello\nworld"


def test_hex_strings_and_escapes():
    content = (b"BT 72 720 Td <48656C6C6F> Tj (\\110\\151\\n) Tj "
               b"(a\\(b\\)c) Tj ET")
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length " +
           str(len(content)).encode() +
           b" >>\nstream\n" + content + b"\nendstream\nendobj\n")
    assert extract_pdf_text(pdf) == "HelloHi\na(b)c"


def test_reading_order_restored_from_tm():
    # runs emitted bottom-up / right-to-left in the stream; extraction
    # must re-sort into top-down, left-to-right reading order
    content = (b"BT 1 0 0 1 200 100 Tm (tail) Tj "
               b"1 0 0 1 72 700 Tm (head ) Tj "
               b"1 0 0 1 120 700 Tm (line) Tj ET")
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length " +
           str(len(content)).encode() +
           b" >>\nstream\n" + content + b"\nendstream\nendobj\n")
    assert extract_pdf_text(pdf) == "head line\ntail"


def test_garbage_and_non_text_streams_skipped():
    assert extract_pdf_text(b"not a pdf at all") == ""
    # image-ish stream without BT is ignored
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Subtype /Image /Length 4 >>\n"
           b"stream\n\x00\x01\x02\x03\nendstream\nendobj\n")
    assert extract_pdf_text(pdf) == ""


def test_flate_bomb_raises_within_the_inflate_cap():
    """One FlateDecode stream of 100 MB of zeros, about 100 KB compressed:
    the decoder raises ValueError once the output passes the per-document
    cap, without holding twice the cap, and DocStage quarantines the
    document as one error row."""
    c = zlib.compressobj(9)
    zeros = bytes(1_000_000)
    body = b"".join(c.compress(zeros) for _ in range(100)) + c.flush()
    bomb = (b"%%PDF-1.4\n1 0 obj\n<< /Length %d /Filter /FlateDecode >>\n"
            b"stream\n" % len(body) + body + b"\nendstream\nendobj\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="inflate past"):
            pdf_layout_blocks(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * MAX_INFLATED_BYTES
    out = DocStage(PDF_TEXT, decoder=PDF)(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "pdf": pa.array([bomb], pa.binary()),
    })).to_pylist()
    assert len(out) == 1
    assert out[0]["status"] == "error"
    assert out[0]["error"].startswith("ValueError: FlateDecode")


# object headers that no endobj or endstream closes: each header used to
# search to the end of the document again. "nested" headers share one
# object's stream, which each of them used to take again, with a head
# spanning every later header; it is taken once, by the first.
_UNCLOSED = {
    "no-endobj": (lambda n: b"1 0 obj\n" * n, []),
    "no-endstream": (lambda n: b"1 0 obj\nstream\n" * n + b"endobj", []),
    "no-stream": (lambda n: b"1 0 obj\n" * n + b"endobj", []),
    "nested": (lambda n: b"1 0 obj\n" * n
               + b"stream\nBT (x) Tj ET\nendstream\nendobj",
               [(0, 0.0, 0.0, "x")]),
}


@pytest.mark.parametrize("shape", sorted(_UNCLOSED))
def test_object_scan_is_linear_in_unclosed_headers(shape):
    """Four times the headers cost at most six times the scan (quadratic
    is sixteen), timed best of three with the cyclic collector paused."""
    body, expected = _UNCLOSED[shape]

    def best_s(n):
        pdf = b"%PDF-1.4\n" + body(n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert pdf_layout_blocks(pdf) == expected
            best = min(best, time.perf_counter() - t0)
        return best

    enabled = gc.isenabled()
    gc.disable()
    try:
        small, large = best_s(5_000), best_s(20_000)
    finally:
        if enabled:
            gc.enable()
    assert large <= 6 * small


def test_pdf_extract_stage(ray_session):
    import ray
    from html_parser_ray.stages.pdf_extract import pdf_extract_pages
    pdfs = [make_minimal_pdf("first doc text"),
            b"%PDF-1.4 truncated garbage",
            make_minimal_pdf([["a", "b"], ["c"]])]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "pdf": pa.array(pdfs, pa.binary()),
    }))
    rows = {r["doc_id"]: r
            for r in pdf_extract_pages(ds, batch_size=2).take_all()}
    assert rows[1]["pdf_text"] == "first doc text"
    assert rows[1]["status"] == "ok"
    assert rows[2]["pdf_text"] == ""    # graceful empty, not error
    assert rows[3]["pdf_text"] == "a\nb\n\nc"
    assert rows[3]["n_runs"] == 3
