"""One parse per document → full visible text AND main content.

A training-data pipeline usually wants both the raw visible text (token
counts, quality features, dedup signatures) and the main-content text (the
corpus itself). Running extract_pages and main_content_pages separately
parses every page twice — at 100 TB that doubles the dominant cost of the
whole pipeline; ``DocStage(VISIBLE_TEXT, MAIN_CONTENT)`` parses once and
reads both projections off the same in-task tree.
"""

from __future__ import annotations

from .extract import MAIN_CONTENT, VISIBLE_TEXT, DocStage


def fused_extract_pages(ds, *, concurrency=None, batch_size: int = 16):
    """Dataset[pages] → Dataset[text + main_text rows]. Runs as a fused
    task map like extract_pages.

    ``concurrency`` is accepted and ignored: existing callers
    (``perfbench`` among them) still pass a pool size, and honouring it as
    a task cap would block fusion with the neighbouring map stages.
    """
    return ds.map_batches(DocStage(VISIBLE_TEXT, MAIN_CONTENT),
                          batch_format="pyarrow", batch_size=batch_size)
