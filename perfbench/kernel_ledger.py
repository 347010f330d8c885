"""Single-thread, in-process kernel ledger over one workload's documents.

Each document is parsed twice, interleaved so that host drift hits both
sides alike:

* untraced: exactly the calls the production stage makes
  (``parse_bytes`` + ``visible_text``, plus the boilerplate projection for
  the main-content workload), timed as a whole per document;
* traced: one span per document with one child span per public htmlcore
  call (decode, tokenize, parse, visible text, boilerplate).

Spans live in memory (``SpanLog``) and are written out once at the end.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import time
from collections import Counter

from html_parser_ray.htmlcore.api import parse, parse_bytes
from html_parser_ray.htmlcore.boilerplate import classify_blocks, segment_blocks
from html_parser_ray.htmlcore.extract import visible_text
from html_parser_ray.htmlcore.sniff import decode_html_bytes
from html_parser_ray.htmlcore.tokens import tokenize
from html_parser_ray.stages.extract import DEFAULT_BUDGETS

DECODE = "htmlcore.sniff.decode_html_bytes"
TOKENIZE = "htmlcore.tokens.tokenize"
PARSE = "htmlcore.api.parse"
VISIBLE_TEXT = "htmlcore.extract.visible_text"
BOILERPLATE = "htmlcore.boilerplate.classify"
LAYERS = (DECODE, TOKENIZE, PARSE, VISIBLE_TEXT, BOILERPLATE)


class SpanLog:
    """In-memory spans: (span_id, parent_id, trace_id, name, start_ns, end_ns)."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, trace_id: str, name: str, start_ns: int, end_ns: int,
            parent: int | None = None, span_id: int | None = None) -> int:
        span_id = self.new_id() if span_id is None else span_id
        self.rows.append((span_id, parent, trace_id, name, start_ns, end_ns))
        return span_id

    def write(self, path) -> None:
        keys = ("span_id", "parent_id", "trace_id", "name", "start_ns",
                "end_ns")
        with open(path, "w", encoding="utf-8") as f:
            for row in self.rows:
                f.write(json.dumps(dict(zip(keys, row))) + "\n")


def main_text(tree) -> tuple[str, int]:
    """The fused stage's boilerplate projection: main text, content blocks."""
    blocks = classify_blocks(segment_blocks(tree))
    content = [b.text for b in blocks if b.is_content]
    return "\n\n".join(content), len(content)


def _p(values: list[int], q: int) -> float:
    """q-th percentile (1..99) of nanosecond values, in milliseconds."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e6


def _untraced(html: bytes, main_content: bool) -> tuple[int, int]:
    """The production calls: (kernel ns, parse_bytes ns)."""
    clock = time.perf_counter_ns
    gc.collect()
    t0 = clock()
    tree = parse_bytes(html, budgets=DEFAULT_BUDGETS)
    t1 = clock()
    visible_text(tree)
    if main_content:
        main_text(tree)
    return clock() - t0, t1 - t0


def _traced(html: bytes, trace_id: str, spans: SpanLog,
            layer_ns: dict[str, int]):
    """One document span with a child span per layer call."""
    clock = time.perf_counter_ns
    gc.collect()
    doc = spans.new_id()
    s = [clock()]
    text, _sniff = decode_html_bytes(html)
    s.append(clock())
    tokens = tokenize(text)
    s.append(clock())
    tree = parse(text, budgets=DEFAULT_BUDGETS)
    s.append(clock())
    visible_text(tree)
    s.append(clock())
    _text, n_content = main_text(tree)
    s.append(clock())
    for name, start, end in zip(LAYERS, s, s[1:]):
        spans.add(trace_id, name, start, end, parent=doc)
        layer_ns[name] += end - start
    end = clock()
    spans.add(trace_id, "htmlcore.kernel.doc", s[0], end, span_id=doc)
    # decode + parse + visible text, then + boilerplate: the production
    # calls without and with the main-content projection
    extract = (s[1] - s[0]) + (s[4] - s[2])
    return (end - s[0], (extract, extract + s[5] - s[4]), tree.n_nodes,
            len(tree.errors), len(tokens), n_content)


def kernel_ledger(htmls: list[bytes], main_content: bool,
                  spans: SpanLog) -> dict:
    """Per-layer times, per-document latency and exact counts.

    ``main_content`` adds the boilerplate projection to the production
    kernel, as the fused stage does; the boilerplate span is recorded on
    every workload either way.
    """
    # Trees hold reference cycles, so the cyclic collector runs inside
    # whichever call happens to cross its threshold.  Collecting before each
    # pass (cheap once the import-time heap is frozen) charges every call
    # for its own garbage only.
    gc.freeze()
    layer_ns = dict.fromkeys(LAYERS, 0)
    prod_ns: list[int] = []          # untraced production kernel per doc
    parse_bytes_ns = 0
    traced_prod_ns = 0               # the same calls, summed from spans
    doc_ns = 0
    counts = Counter()
    for i, html in enumerate(htmls):
        # alternate which pass sees the document first, so first-touch
        # costs fall on both sides alike
        if i % 2:
            traced = _traced(html, f"doc-{i}", spans, layer_ns)
            untraced = _untraced(html, main_content)
        else:
            untraced = _untraced(html, main_content)
            traced = _traced(html, f"doc-{i}", spans, layer_ns)
        doc_total, traced_prod, n_nodes, n_errors, n_tokens, n_content = traced
        prod, pb = untraced
        prod_ns.append(prod)
        parse_bytes_ns += pb
        doc_ns += doc_total
        traced_prod_ns += traced_prod[main_content]

        counts["docs"] += 1
        counts["bytes"] += len(html)
        counts["nodes"] += n_nodes
        counts["parse_errors"] += n_errors
        counts["tokens"] += n_tokens
        counts["content_blocks"] += n_content

    n = len(htmls)
    total_ns = sum(prod_ns)
    per_doc = {f"{name}.ms_per_doc": layer_ns[name] / n / 1e6
               for name in LAYERS}
    return {
        **per_doc,
        "htmlcore.treebuilder.tree.ms_per_doc":
            (layer_ns[PARSE] - layer_ns[TOKENIZE]) / n / 1e6,
        "htmlcore.api.parse_bytes.ms_per_doc": parse_bytes_ns / n / 1e6,
        "htmlcore.kernel.total_s": total_ns / 1e9,
        "htmlcore.kernel.doc_ms_p50": _p(prod_ns, 50),
        "htmlcore.kernel.doc_ms_p99": _p(prod_ns, 99),
        "htmlcore.kernel.mb_per_s": counts["bytes"] / 1e6 / (total_ns / 1e9),
        "htmlcore.kernel.docs_per_s": n / (total_ns / 1e9),
        **{f"htmlcore.count.{k}": counts[k] for k in
           ("docs", "bytes", "nodes", "parse_errors", "tokens",
            "content_blocks")},
        "trace.overhead_share": (traced_prod_ns - total_ns) / total_ns,
        "trace.unattributed_share":
            (doc_ns - sum(layer_ns.values())) / doc_ns,
        "htmlcore.decode_parse_vs_parse_bytes_share":
            (layer_ns[DECODE] + layer_ns[PARSE]) / parse_bytes_ns - 1,
    }
