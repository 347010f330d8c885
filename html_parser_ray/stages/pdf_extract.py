"""PDF text/layout extraction (north-star "PDF/layout parse" step).

The ``PDF`` decoder and the ``PDF_TEXT`` projection run on ``DocStage``
as a task map over raw pdf bytes, with DocStage's per-row quarantine. The
parsing kernel (object scan, FlateDecode, content-stream tokenizer, BT/ET
text positioning) lives in ``pdfcore.py`` and is implemented from scratch
on the stdlib — no PDF library ships in this environment. Scope:
digital-born text PDFs with Flate or plain content streams; scanned/CID-
font PDFs parse to empty text, not errors.
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfcore import layout_text, pdf_layout_blocks
from .extract import Decoder, DocStage, Projection


def _pdf_text(blocks) -> list[dict]:
    return [{"pdf_text": layout_text(blocks), "n_runs": len(blocks)}]


# a pdf's layout runs, (stream, x, y, text) in stream order
PDF = Decoder("pdf", pdf_layout_blocks)
PDF_TEXT = Projection(
    pa.schema({"pdf_text": pa.string(), "n_runs": pa.int64()}), _pdf_text)


def pdf_extract_pages(ds, *, batch_size: int = 16):
    """Dataset[(…, pdf:binary)] → Dataset[(…, pdf_text, n_runs, status,
    error)], a task map like extract_pages."""
    return ds.map_batches(DocStage(PDF_TEXT, decoder=PDF),
                          batch_format="pyarrow", batch_size=batch_size)
