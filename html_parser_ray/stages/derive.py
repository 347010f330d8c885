"""Derived-output stages: per-page secondary operators over parsed trees.

Each is a `map_batches(Cls(...), batch_format="pyarrow")` task stage that
parses the html column once and emits a child table (SURVEY.md §2.2
M13-M19, S5):

- OutlineStage: one row per heading/section entry (M16)
- ChunkStage:   one row per size-bounded chunk (M17, flat_map-style)
- SerializeStage: normalized html + text_content per page (S5/S6, M15)
- TokensStage:  visible-text token stream with provenance, exploded (M13/M14)
- PatchStage:   (html, edits_json) → (plan_json, result) (M18/M19)

All quarantine per-row failures into a ``status`` column — a pathological
page cannot poison a batch retry at 10^12-doc scale.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..htmlcore.api import parse_bytes, Budgets
from ..htmlcore.extract import (
    chunk as chunk_tree, outline as outline_tree, serialize,
    text_content, visible_text_tokens_with_provenance,
)
from ..htmlcore.patch import PatchPlanningError, compute_patch
from .extract import DEFAULT_BUDGETS


def _htmls(batch: pa.Table):
    return (batch.column("url").to_pylist(),
            batch.column("html").to_pylist())


class OutlineStage:
    """pages → (url, node_id, depth, tag_name, text) heading skeleton."""

    def __init__(self, budgets: Budgets = DEFAULT_BUDGETS):
        self.budgets = budgets

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, htmls = _htmls(batch)
        out = {"url": [], "node_id": [], "depth": [], "tag_name": [],
               "text": []}
        for url, html in zip(urls, htmls):
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                for entry in outline_tree(tree):
                    out["url"].append(url)
                    out["node_id"].append(entry["nodeId"])
                    out["depth"].append(entry["depth"])
                    out["tag_name"].append(entry["tagName"])
                    out["text"].append(entry["text"])
            except Exception:  # noqa: BLE001 — skip quarantined rows
                continue
        return pa.table({
            "url": pa.array(out["url"], pa.string()),
            "node_id": pa.array(out["node_id"], pa.int64()),
            "depth": pa.array(out["depth"], pa.int64()),
            "tag_name": pa.array(out["tag_name"], pa.string()),
            "text": pa.array(out["text"], pa.string()),
        })


class ChunkStage:
    """pages → (url, chunk_index, node_id, content, nodes) bounded splits."""

    def __init__(self, max_chars: int = 8192, max_nodes: int = 256,
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.max_chars = max_chars
        self.max_nodes = max_nodes
        self.budgets = budgets

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, htmls = _htmls(batch)
        out = {"url": [], "chunk_index": [], "node_id": [], "content": [],
               "nodes": []}
        for url, html in zip(urls, htmls):
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                for c in chunk_tree(tree, self.max_chars, self.max_nodes):
                    out["url"].append(url)
                    out["chunk_index"].append(c["index"])
                    out["node_id"].append(c["nodeId"])
                    out["content"].append(c["content"])
                    out["nodes"].append(c["nodes"])
            except Exception:  # noqa: BLE001
                continue
        return pa.table({
            "url": pa.array(out["url"], pa.string()),
            "chunk_index": pa.array(out["chunk_index"], pa.int64()),
            "node_id": pa.array(out["node_id"], pa.int64()),
            "content": pa.array(out["content"], pa.string()),
            "nodes": pa.array(out["nodes"], pa.int64()),
        })


class SerializeStage:
    """pages → (url, normalized_html, text_content, status)."""

    def __init__(self, budgets: Budgets = DEFAULT_BUDGETS):
        self.budgets = budgets

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, htmls = _htmls(batch)
        ser, txt, status = [], [], []
        for html in htmls:
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                ser.append(serialize(tree))
                txt.append(text_content(tree))
                status.append("ok")
            except Exception as exc:  # noqa: BLE001
                ser.append("")
                txt.append("")
                status.append(f"error: {type(exc).__name__}")
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "normalized_html": pa.array(ser, pa.string()),
            "text_content": pa.array(txt, pa.string()),
            "status": pa.array(status, pa.string()),
        })


class TokensStage:
    """pages → (url, seq, kind, value, source_node_id, source_role) exploded
    visible-text token stream with provenance (the "character spans" output
    of the north star)."""

    def __init__(self, budgets: Budgets = DEFAULT_BUDGETS):
        self.budgets = budgets

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, htmls = _htmls(batch)
        out = {"url": [], "seq": [], "kind": [], "value": [],
               "source_node_id": [], "source_role": []}
        for url, html in zip(urls, htmls):
            try:
                tree = parse_bytes(html, budgets=self.budgets)
                tokens = visible_text_tokens_with_provenance(tree)
            except Exception:  # noqa: BLE001
                continue
            for seq, tok in enumerate(tokens):
                out["url"].append(url)
                out["seq"].append(seq)
                out["kind"].append(tok["kind"])
                out["value"].append(tok["value"])
                out["source_node_id"].append(tok.get("sourceNodeId", -1))
                out["source_role"].append(tok.get("sourceRole", ""))
        return pa.table({
            "url": pa.array(out["url"], pa.string()),
            "seq": pa.array(out["seq"], pa.int64()),
            "kind": pa.array(out["kind"], pa.string()),
            "value": pa.array(out["value"], pa.string()),
            "source_node_id": pa.array(out["source_node_id"], pa.int64()),
            "source_role": pa.array(out["source_role"], pa.string()),
        })


class PatchStage:
    """(url, html:string, edits:json-string) → (url, plan, result, status).

    Edits are JSON lists of the reference's Edit shapes keyed by node id
    (reference: computePatch mod.ts:2089-2174)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        edits_col = batch.column("edits").to_pylist()
        plans, results, status = [], [], []
        for html, edits_json in zip(htmls, edits_col):
            if isinstance(html, bytes):
                html = html.decode("utf-8")
            try:
                plan = compute_patch(html, json.loads(edits_json))
                plans.append(json.dumps(plan["steps"]))
                results.append(plan["result"])
                status.append("ok")
            except PatchPlanningError as exc:
                plans.append("")
                results.append("")
                status.append(f"plan_error:{exc.payload['code']}")
            except Exception as exc:  # noqa: BLE001
                plans.append("")
                results.append("")
                status.append(f"error:{type(exc).__name__}")
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "plan": pa.array(plans, pa.string()),
            "result": pa.array(results, pa.string()),
            "status": pa.array(status, pa.string()),
        })


def _task_map(ds, cls, num_cpus: float = 1, batch_size: int = 16, **ctor):
    return ds.map_batches(cls(**ctor), batch_format="pyarrow",
                          batch_size=batch_size, num_cpus=num_cpus)


def outline_pages(ds, **kw):
    return _task_map(ds, OutlineStage, **kw)


def chunk_pages(ds, **kw):
    return _task_map(ds, ChunkStage, **kw)


def serialize_pages(ds, **kw):
    return _task_map(ds, SerializeStage, **kw)


def tokens_pages(ds, **kw):
    return _task_map(ds, TokensStage, **kw)


def patch_pages(ds, **kw):
    return _task_map(ds, PatchStage, **kw)
