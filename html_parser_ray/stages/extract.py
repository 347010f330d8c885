"""ExtractStage — the fused decode→tokenize→tree→visibleText stage.

Ray-Data-native core operator (SURVEY.md §2.2 M1-M12): a stateless callable
passed as an INSTANCE to ``ds.map_batches(ExtractStage(...),
batch_format="pyarrow")``, so it runs as a plain map task that Ray Data
fuses with the skew split, the url bucketing and the write around it (one
task operator, warm worker processes reused across jobs). Kernel state
(compiled regexes, entity trie, interned tables) is loaded once per worker
at import. ``__call__`` receives one Arrow batch of raw ``html`` bytes per
invocation (zero-copy from the object store UP TO the stage boundary; the
``to_pylist()`` handoff into the Python kernel copies each row's bytes
once — unavoidable for a pure-Python parser, and irrelevant next to the
parse itself, which is the vectorization unit here: one row = one full
HTML parse) and never raises on a bad row — failures become ``status`` /
``error`` columns so one pathological document cannot poison a batch retry
loop at 10^12-doc scale.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..htmlcore.api import parse_bytes, Budgets, BudgetExceededError
from ..htmlcore.extract import (
    visible_text, visible_text_tokens, VisibleTextOptions,
)

# per-row resource guards, generous enough for real pages, tight enough to
# bound worst-case memory/CPU per task (reference budget model:
# src/public/types.ts:31-39; here trips are recorded, not raised)
DEFAULT_BUDGETS = Budgets(max_input_bytes=64 * 1024 * 1024,
                          max_nodes=2_000_000, max_depth=4_096)

OUTPUT_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("lang", pa.string()),
    ("text", pa.string()),
    ("n_chars", pa.int64()),
    ("encoding", pa.string()),
    ("sniff_source", pa.string()),
    ("n_nodes", pa.int64()),
    ("max_depth", pa.int64()),
    ("n_errors", pa.int64()),
    ("quirks_mode", pa.string()),
    ("status", pa.string()),
    ("error", pa.string()),
])


class ExtractStage:
    """url,warc_ts,html,lang → extracted text + parse metrics (one row/row)."""

    def __init__(self, budgets: Budgets = DEFAULT_BUDGETS,
                 options: VisibleTextOptions = VisibleTextOptions(),
                 emit_tokens: bool = False):
        self.budgets = budgets
        self.options = options
        self.emit_tokens = emit_tokens

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        ts = (batch.column("warc_ts").to_pylist()
              if "warc_ts" in batch.column_names else [None] * len(urls))
        langs = (batch.column("lang").to_pylist()
                 if "lang" in batch.column_names else [""] * len(urls))

        texts: list[str] = []
        encodings: list[str] = []
        sources: list[str] = []
        n_nodes: list[int] = []
        max_depth: list[int] = []
        n_errors: list[int] = []
        quirks: list[str] = []
        status: list[str] = []
        error: list[str] = []
        tokens_json: list[str] = []

        for html in htmls:
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                text = visible_text(tree, self.options)
                texts.append(text)
                sniff = tree.encoding  # type: ignore[attr-defined]
                encodings.append(sniff.encoding)
                sources.append(sniff.source)
                n_nodes.append(tree.n_nodes)
                max_depth.append(tree.max_depth)
                n_errors.append(len(tree.errors))
                quirks.append(tree.quirks_mode)
                status.append("ok")
                error.append("")
                if self.emit_tokens:
                    tokens_json.append(json.dumps(
                        visible_text_tokens(tree, self.options),
                        ensure_ascii=False))
            except BudgetExceededError as exc:
                texts.append("")
                encodings.append("")
                sources.append("")
                n_nodes.append(0)
                max_depth.append(0)
                n_errors.append(0)
                quirks.append("")
                status.append("budget_exceeded")
                error.append(str(exc))
                if self.emit_tokens:
                    tokens_json.append("[]")
            except Exception as exc:  # noqa: BLE001 — quarantine, never crash
                texts.append("")
                encodings.append("")
                sources.append("")
                n_nodes.append(0)
                max_depth.append(0)
                n_errors.append(0)
                quirks.append("")
                status.append("error")
                error.append(f"{type(exc).__name__}: {exc}")
                if self.emit_tokens:
                    tokens_json.append("[]")

        cols = {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "lang": pa.array(langs, pa.string()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "encoding": pa.array(encodings, pa.string()),
            "sniff_source": pa.array(sources, pa.string()),
            "n_nodes": pa.array(n_nodes, pa.int64()),
            "max_depth": pa.array(max_depth, pa.int64()),
            "n_errors": pa.array(n_errors, pa.int64()),
            "quirks_mode": pa.array(quirks, pa.string()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(error, pa.string()),
        }
        if self.emit_tokens:
            cols["tokens"] = pa.array(tokens_json, pa.string())
        return pa.table(cols)


def extract_pages(ds, *, batch_size: int = 16, num_cpus: float = 1,
                  emit_tokens: bool = False,
                  budgets: Budgets = DEFAULT_BUDGETS,
                  options: VisibleTextOptions = VisibleTextOptions()):
    """Wire the stage: Dataset[pages] → Dataset[extracted].

    ``batch_size`` is row-count and doubles as the dispatch bundle size:
    pages average tens of KB so 16 rows ≈ ~1 MB of HTML per call —
    fine-grained enough that a 2 MB giant document doesn't straggle a
    whole multi-megabyte bundle at high parallelism (measured: bs=16 beats
    bs=64 by 1.4x at 32 cpus on a skewed corpus). Giant docs are bounded
    by per-row budgets.

    The stage is a task map with no ``concurrency`` cap: Ray Data fuses it
    with the map stages on either side into one task operator and its
    scheduler sizes the parallelism to the free CPUs, so no CPU is
    reserved up front and the read is never starved, even on 1-2 CPUs. A
    task cap would block that fusion. Tasks run with Ray Data's default
    ``max_retries=-1``: a task whose worker dies is re-run.
    """
    return ds.map_batches(
        ExtractStage(budgets=budgets, options=options,
                     emit_tokens=emit_tokens),
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=num_cpus,
    )
