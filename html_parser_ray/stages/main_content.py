"""Main-content extraction stage: pages → boilerplate-stripped text.

Ray shape mirrors ExtractStage (stages/extract.py): a stateless task
``map_batches`` over zero-copy Arrow batches of raw html bytes — decode +
tokenize + tree-build + segment + classify fused in one call so the DOM
never crosses a stage boundary; per-row try/except quarantines bad pages
into a ``status`` column instead of failing the batch. The classification
kernel (text density, link density, tag-path chrome context, heading
promotion, short-block smoothing) lives in ``htmlcore/boilerplate.py``.

No counterpart in the reference repo — it stops at visibleText
(src/internal/text/visible-text.ts); the north-star pipeline adds the
boilerplate classification step on top.
"""

from __future__ import annotations

import pyarrow as pa

from ..htmlcore.api import Budgets, parse_bytes
from ..htmlcore.boilerplate import classify_blocks, segment_blocks
from ..htmlcore.extract import VisibleTextOptions

DEFAULT_BUDGETS = Budgets()


class MainContentStage:
    """url,html → main_text + block counters (one row per row)."""

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
        n_blocks: list[int] = []
        n_content: list[int] = []
        status: list[str] = []
        error: list[str] = []
        for html in htmls:
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                blocks = classify_blocks(
                    segment_blocks(tree, self.options),
                    min_words=self.min_words,
                    max_link_density_bp=self.max_link_density_bp)
                texts.append("\n\n".join(
                    b.text for b in blocks if b.is_content))
                n_blocks.append(len(blocks))
                n_content.append(sum(1 for b in blocks if b.is_content))
                status.append("ok")
                error.append("")
            except Exception as exc:  # quarantine, never fail the batch
                texts.append("")
                n_blocks.append(0)
                n_content.append(0)
                status.append("error")
                error.append(f"{type(exc).__name__}: {exc}"[:500])
        out = {name: batch.column(name)
               for name in batch.column_names if name != "html"}
        out["main_text"] = pa.array(texts, pa.string())
        out["n_blocks"] = pa.array(n_blocks, pa.int64())
        out["n_content_blocks"] = pa.array(n_content, pa.int64())
        out["status"] = pa.array(status, pa.string())
        out["error"] = pa.array(error, pa.string())
        return pa.table(out)


def main_content_pages(ds, *, batch_size: int = 16, num_cpus: float = 1,
                       **stage_kwargs):
    """Dataset[pages] → Dataset[main-content rows]. Runs as a fused task
    map like extract_pages."""
    return ds.map_batches(
        MainContentStage(**stage_kwargs),
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=num_cpus,
    )
