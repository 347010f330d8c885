"""Fused extraction stage: ONE parse per document → full visible text AND
boilerplate-stripped main content.

A training-data pipeline usually wants both the raw visible text (for
token counts, quality features, dedup signatures) and the main-content
text (for the corpus itself). Running ExtractStage and MainContentStage
separately parses every document twice — at 100 TB that doubles the
dominant cost of the whole pipeline. This stage decodes + tokenizes +
tree-builds once and derives both outputs from the same in-task DOM
(the tree never crosses a stage boundary), with the same per-row
quarantine contract as the other stages.
"""

from __future__ import annotations

import pyarrow as pa

from ..htmlcore.api import Budgets, parse_bytes
from ..htmlcore.boilerplate import classify_blocks, segment_blocks
from ..htmlcore.extract import VisibleTextOptions, visible_text

DEFAULT_BUDGETS = Budgets()


class FusedExtractStage:
    """url,html → text (full visibleText) + main_text + block counters."""

    def __init__(self, budgets: Budgets = DEFAULT_BUDGETS,
                 min_words: int = 5, max_link_density_bp: int = 5_000,
                 options: VisibleTextOptions = VisibleTextOptions()):
        self.budgets = budgets
        self.min_words = min_words
        self.max_link_density_bp = max_link_density_bp
        self.options = options

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch.column("html").to_pylist()
        texts: list[str] = []
        mains: list[str] = []
        n_blocks: list[int] = []
        n_content: list[int] = []
        status: list[str] = []
        error: list[str] = []
        for html in htmls:
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                texts.append(visible_text(tree, self.options))
                blocks = classify_blocks(
                    segment_blocks(tree, self.options),
                    min_words=self.min_words,
                    max_link_density_bp=self.max_link_density_bp)
                mains.append("\n\n".join(
                    b.text for b in blocks if b.is_content))
                n_blocks.append(len(blocks))
                n_content.append(sum(1 for b in blocks if b.is_content))
                status.append("ok")
                error.append("")
            except Exception as exc:  # quarantine, never fail the batch
                texts.append("")
                mains.append("")
                n_blocks.append(0)
                n_content.append(0)
                status.append("error")
                error.append(f"{type(exc).__name__}: {exc}"[:500])
        out = {name: batch.column(name)
               for name in batch.column_names if name != "html"}
        out["text"] = pa.array(texts, pa.string())
        out["main_text"] = pa.array(mains, pa.string())
        out["n_blocks"] = pa.array(n_blocks, pa.int64())
        out["n_content_blocks"] = pa.array(n_content, pa.int64())
        out["status"] = pa.array(status, pa.string())
        out["error"] = pa.array(error, pa.string())
        return pa.table(out)


def fused_extract_pages(ds, *, concurrency=None, batch_size: int = 16,
                        num_cpus: float = 1, **stage_kwargs):
    """Dataset[pages] → Dataset[text + main_text rows]. Runs as a fused
    task map like extract_pages.

    ``concurrency`` is accepted and ignored: existing callers
    (``perfbench`` among them) still pass a pool size, and honouring it as
    a task cap would block fusion with the neighbouring map stages.
    """
    return ds.map_batches(
        FusedExtractStage(**stage_kwargs),
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=num_cpus,
    )
