"""PDF text/layout extraction stage (north-star "PDF/layout parse" step).

A stateful actor-pool ``map_batches`` over zero-copy Arrow batches of raw
pdf bytes, per-row quarantine into a ``status`` column. The parsing kernel
(object scan, FlateDecode, content-stream tokenizer, BT/ET text
positioning) lives in ``pdfcore.py`` and is implemented from scratch on the stdlib — no PDF
library ships in this environment. Scope: digital-born text PDFs with
Flate or plain content streams; scanned/CID-font PDFs quarantine
gracefully (they parse to empty text, not errors).
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfcore import extract_pdf_text, pdf_layout_blocks


class PdfExtractStage:
    """url,pdf → pdf_text + layout counters (one row per row)."""

    def __init__(self) -> None:
        self.docs_parsed = 0
        self.docs_failed = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        pdfs = batch.column("pdf").to_pylist()
        texts: list[str] = []
        n_runs: list[int] = []
        status: list[str] = []
        error: list[str] = []
        for data in pdfs:
            try:
                blocks = pdf_layout_blocks(data)
                pages: dict[int, dict[float, list[tuple[float, str]]]] = {}
                for page, x, y, run in blocks:
                    pages.setdefault(page, {}).setdefault(y, []).append(
                        (x, run))
                out_pages = []
                for page in sorted(pages):
                    lines = []
                    for y in sorted(pages[page], reverse=True):
                        lines.append("".join(
                            r for _x, r in sorted(pages[page][y],
                                                  key=lambda t: t[0])))
                    out_pages.append("\n".join(lines))
                texts.append("\n\n".join(out_pages))
                n_runs.append(len(blocks))
                status.append("ok")
                error.append("")
                self.docs_parsed += 1
            except Exception as exc:  # quarantine, never fail the batch
                texts.append("")
                n_runs.append(0)
                status.append("error")
                error.append(f"{type(exc).__name__}: {exc}"[:500])
                self.docs_failed += 1
        out = {name: batch.column(name)
               for name in batch.column_names if name != "pdf"}
        out["pdf_text"] = pa.array(texts, pa.string())
        out["n_runs"] = pa.array(n_runs, pa.int64())
        out["status"] = pa.array(status, pa.string())
        out["error"] = pa.array(error, pa.string())
        return pa.table(out)


def pdf_extract_pages(ds, *, concurrency=None, batch_size: int = 16,
                      num_cpus: float = 1):
    """Dataset[(…, pdf:binary)] → Dataset[extracted] through a fixed actor
    pool at ~75% of CPUs."""
    if concurrency is None:
        import ray
        n = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
        concurrency = max(2, int(n * 0.75 / max(num_cpus, 1e-9)))
    return ds.map_batches(
        PdfExtractStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )
