"""PatchStage: (html, edits_json) → (plan_json, result) per page (M18/M19).

The per-page derived tables (outline, chunks, serialization, tokens) are
DocStage projections in stages/extract.py. Patch planning is not one: its
input is an html *string* plus an edit list, and ``compute_patch`` does its
own span-capturing parse, so it keeps its own per-row quarantine into the
``status`` column.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..htmlcore.patch import PatchPlanningError, compute_patch


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
