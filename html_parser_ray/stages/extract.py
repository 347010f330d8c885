"""DocStage — the one per-document stage, and the projections it emits.

Every per-document output of the engine is a *projection*: a plain
function of one decoded document. HTML pages decode to a parsed tree
(visible text, main content, outline, chunks, serialization, the token
stream, links), PDFs to layout runs, and patch inputs to utf-8 text.
``DocStage`` decodes each document once with its ``Decoder``, applies each
projection it was given to the result, and owns the quarantine contract
and the output schema, so a pipeline that needs several outputs decodes
each document once (operator fusion over one scan) and no output can
quarantine differently.

It is a stateless callable passed as an INSTANCE to
``ds.map_batches(DocStage(...), batch_format="pyarrow")``, so it runs as a
plain map task that Ray Data fuses with the skew split, the url bucketing
and the write around it (one task operator, warm worker processes reused
across jobs). The task map asks for no CPU up front, so it finishes on
1-2 CPUs; Ray Data's executor would still hold CPUs back for the read
through its per-operator reservation, which ``read_pages`` turns off on
the datasets it creates (see there). Kernel state (compiled regexes,
entity trie, interned tables) is loaded once per worker at import. ``to_pylist()`` copies each row's html
bytes into the Python kernel once — unavoidable for a pure-Python parser,
and small next to the parse itself, which is the vectorization unit here:
one row = one full HTML parse.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable
from functools import partial
from typing import Any, NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from ..htmlcore.api import parse_bytes, Budgets, BudgetExceededError
from ..htmlcore.boilerplate import main_content_and_counts
from ..htmlcore.extract import (
    chunk, outline, serialize, text_content, visible_text,
    visible_text_tokens_with_provenance,
)
from ..htmlcore.patch import PatchPlanningError, compute_patch

# per-row resource guards, generous enough for real pages, tight enough to
# bound worst-case memory/CPU per task (reference budget model:
# src/public/types.ts:31-39). An input, node or depth trip raises
# BudgetExceededError and quarantines the row as budget_exceeded; only the
# attribute budgets, which these leave unset, are recorded instead.
DEFAULT_BUDGETS = Budgets(max_input_bytes=64 * 1024 * 1024,
                          max_nodes=2_000_000, max_depth=4_096)


class Decoder(NamedTuple):
    """What DocStage reads: the input ``column`` and the function that
    decodes one of its cells into the document every projection reads.
    Other budgets: ``HTML._replace(decode=partial(parse_bytes,
    budgets=...))``."""
    column: str
    decode: Callable[[Any], Any]


# the parsed tree of a page's html bytes, under the budgets
HTML = Decoder("html", partial(parse_bytes, budgets=DEFAULT_BUDGETS))


def _utf8_text(html: str | bytes) -> str:
    return html.decode("utf-8") if isinstance(html, bytes) else html


# the page's html as a string (a binary cell is utf-8 decoded, a string
# cell is taken as is), for projections that parse it themselves
HTML_TEXT = Decoder("html", _utf8_text)


class Projection(NamedTuple):
    """One output read off a decoded document: ``rows(doc, *carried)``
    returns a list of row dicts keyed by the names of ``fields`` (one row
    per document for per-document outputs, one per entry for outline,
    chunk, token and link tables). ``reads`` names the carried
    input columns whose values for the row follow ``doc`` as arguments."""
    fields: pa.Schema
    rows: Callable[..., list[dict]]
    reads: tuple[str, ...] = ()


def _visible_text(tree) -> list[dict]:
    text = visible_text(tree)
    sniff = tree.encoding
    return [{"text": text, "n_chars": len(text), "encoding": sniff.encoding,
             "sniff_source": sniff.source, "n_nodes": tree.n_nodes,
             "max_depth": tree.max_depth, "n_errors": len(tree.errors),
             "quirks_mode": tree.quirks_mode}]


def _main_content(tree) -> list[dict]:
    # boilerplate classification (htmlcore/boilerplate.py) with the
    # kernel's default thresholds
    main_text, n_blocks, n_content = main_content_and_counts(tree)
    return [{"main_text": main_text, "n_blocks": n_blocks,
             "n_content_blocks": n_content}]


def _outline(tree) -> list[dict]:
    return [{"node_id": e["nodeId"], "depth": e["depth"],
             "tag_name": e["tagName"], "text": e["text"]}
            for e in outline(tree)]


def _chunks(tree, max_chars: int = 8192, max_nodes: int = 256) -> list[dict]:
    return [{"chunk_index": c["index"], "node_id": c["nodeId"],
             "content": c["content"], "nodes": c["nodes"]}
            for c in chunk(tree, max_chars, max_nodes)]


def _serialized(tree) -> list[dict]:
    return [{"normalized_html": serialize(tree),
             "text_content": text_content(tree)}]


def _tokens(tree) -> list[dict]:
    return [{"seq": seq, "kind": tok["kind"], "value": tok["value"],
             "source_node_id": tok.get("sourceNodeId", -1),
             "source_role": tok.get("sourceRole", "")}
            for seq, tok in enumerate(
                visible_text_tokens_with_provenance(tree))]


def _patch(html: str, edits: str) -> list[dict]:
    # the reference's Edit shapes keyed by node id, as a JSON list
    # (reference: computePatch mod.ts:2089-2174)
    plan = compute_patch(html, json.loads(edits))
    return [{"plan": json.dumps(plan["steps"]), "result": plan["result"]}]


_S, _I = pa.string(), pa.int64()

VISIBLE_TEXT = Projection(pa.schema({
    "text": _S, "n_chars": _I, "encoding": _S, "sniff_source": _S,
    "n_nodes": _I, "max_depth": _I, "n_errors": _I, "quirks_mode": _S,
}), _visible_text)
MAIN_CONTENT = Projection(pa.schema({
    "main_text": _S, "n_blocks": _I, "n_content_blocks": _I,
}), _main_content)
# heading/section skeleton (SURVEY.md M16)
OUTLINE = Projection(pa.schema({
    "node_id": _I, "depth": _I, "tag_name": _S, "text": _S,
}), _outline)
# size-bounded splits (M17); other limits: CHUNKS._replace(rows=partial(...))
CHUNKS = Projection(pa.schema({
    "chunk_index": _I, "node_id": _I, "content": _S, "nodes": _I,
}), _chunks)
# normalized html + raw textContent (S5/S6, M15)
SERIALIZED = Projection(pa.schema({
    "normalized_html": _S, "text_content": _S,
}), _serialized)
# visible-text token stream with provenance, exploded (M13/M14)
TOKENS = Projection(pa.schema({
    "seq": _I, "kind": _S, "value": _S, "source_node_id": _I,
    "source_role": _S,
}), _tokens)
# span-based patch plan + patched html of the carried ``edits`` (M18/M19);
# compute_patch does its own span-capturing parse, so decode with HTML_TEXT
PATCH = Projection(pa.schema({"plan": _S, "result": _S}), _patch,
                   reads=("edits",))

# what run_extract writes: the columns it reads minus html, then
# VISIBLE_TEXT, then the quarantine columns
OUTPUT_SCHEMA = pa.schema(
    [pa.field("url", _S), pa.field("warc_ts", pa.timestamp("us")),
     pa.field("lang", _S), *VISIBLE_TEXT.fields,
     pa.field("status", _S), pa.field("error", _S)])


# exception → status of the quarantine row, first match wins; anything
# else is "error"
QUARANTINE_STATUS = (
    (BudgetExceededError, "budget_exceeded"),
    (PatchPlanningError, "plan_error"),
)


class DocStage:
    """Decode each document once with ``decoder`` and emit the rows of
    every projection.

    Columns: every input column except the decoder's is carried through,
    then the projections' fields in order (a projection field replaces an
    input column of the same name), then ``status`` and ``error``.

    Rows: a document's rows are the product of its projections' row
    lists, so per-document projections together give one row per
    document, and an ok page with no outline entries gives no outline
    rows.

    Quarantine: a document whose decode or any projection raises gives
    exactly one row, with projection columns ``""`` or ``0``, ``error``
    ``"<ExceptionClass>: <message>"`` cut to 500 characters, and
    ``status`` by the exception:

    ======================  ===================
    exception               status
    ======================  ===================
    BudgetExceededError     budget_exceeded
    PatchPlanningError      plan_error (its payload code in ``error``)
    anything else           error
    ======================  ===================

    One pathological document never fails the batch, which at 10^12
    documents would poison the retry loop. Ok rows have ``status="ok"``
    and ``error=""``.

    Memory: a parsed tree is a reference cycle (``Element.children`` ↔
    ``node.parent``), so reference counting never frees it. The batch runs
    with the cyclic collector paused, which keeps everything it allocates
    in the young generation, and then, if the caller had the collector
    on, one young-generation collection frees all of the batch's dead
    trees, at a cost in proportion to the batch rather than the worker's
    heap. The caller's collector state is restored.
    """

    def __init__(self, *projections: Projection, decoder: Decoder = HTML):
        self.projections = projections
        self.decoder = decoder
        self.fields = [f for p in projections for f in p.fields]
        self.failed_row = {f.name: "" if pa.types.is_string(f.type)
                           or pa.types.is_binary(f.type) else 0
                           for f in self.fields}

    def __call__(self, batch: pa.Table) -> pa.Table:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._project(batch)
        finally:
            if enabled:
                gc.enable()
                # after _project has returned, so the last document's tree,
                # which its frame held, is garbage too
                gc.collect(0)

    def _project(self, batch: pa.Table) -> pa.Table:
        decode = self.decoder.decode
        carried = {name: batch.column(name).to_pylist()
                   for p in self.projections for name in p.reads}
        calls = [(p.rows, [carried[name] for name in p.reads])
                 for p in self.projections]
        row_index: list[int] = []
        rows: list[dict] = []
        status: list[str] = []
        error: list[str] = []
        for i, cell in enumerate(
                batch.column(self.decoder.column).to_pylist()):
            try:
                doc = decode(cell)
                page = [{}]
                for project, args in calls:
                    more = (project(doc, *[col[i] for col in args]) if args
                            else project(doc))
                    page = [{**row, **extra} for row in page for extra in more]
                code, reason = "ok", ""
            except Exception as exc:  # noqa: BLE001 — quarantine, never crash
                page = [self.failed_row]
                code = next((name for cls, name in QUARANTINE_STATUS
                             if isinstance(exc, cls)), "error")
                reason = f"{type(exc).__name__}: {exc}"[:500]
            row_index += [i] * len(page)
            rows += page
            status += [code] * len(page)
            error += [reason] * len(page)

        emitted = {self.decoder.column, "status", "error",
                   *(f.name for f in self.fields)}
        kept = batch.select([name for name in batch.column_names
                             if name not in emitted]).take(row_index)
        out = dict(zip(kept.column_names, kept.columns))
        for f in self.fields:
            out[f.name] = pa.array([row[f.name] for row in rows], f.type)
        out["status"] = pa.array(status, _S)
        out["error"] = pa.array(error, _S)
        return pa.table(out)


def ok_rows(batch: pa.Table) -> pa.Table:
    """The rows of a DocStage output batch whose document did not fail."""
    return batch.filter(pc.equal(batch.column("status"), "ok"))


def extract_pages(ds, *, batch_size: int = 16):
    """Wire the stage: Dataset[pages] → Dataset[DocStage(VISIBLE_TEXT)].

    ``batch_size`` is row-count and doubles as the dispatch bundle size:
    pages average tens of KB so 16 rows ≈ ~1 MB of HTML per call —
    fine-grained enough that a 2 MB giant document doesn't straggle a
    whole multi-megabyte bundle at high parallelism (measured: bs=16 beats
    bs=64 by 1.4x at 32 cpus on a skewed corpus). Giant docs are bounded
    by per-row budgets.

    The stage is a task map with no ``concurrency`` cap: Ray Data fuses it
    with the map stages on either side into one task operator and its
    scheduler sizes the parallelism to the free CPUs, so the map asks
    for no CPU up front and the read is never starved, even on 1-2 CPUs.
    On a dataset from ``read_pages`` the executor's per-operator
    reservation is off too, so the fused operator may run a task on
    every CPU instead of leaving one held back for the read. A task cap
    would block that fusion. Tasks run with Ray Data's default
    ``max_retries=-1``: a task whose worker dies is re-run.
    """
    return ds.map_batches(DocStage(VISIBLE_TEXT),
                          batch_format="pyarrow", batch_size=batch_size)


def main_content_pages(ds, *, batch_size: int = 16):
    """Dataset[pages] → Dataset[DocStage(MAIN_CONTENT)]: boilerplate-
    stripped text (no counterpart in the reference, which stops at
    visibleText). Wired like extract_pages."""
    return ds.map_batches(DocStage(MAIN_CONTENT), batch_format="pyarrow",
                          batch_size=batch_size)
