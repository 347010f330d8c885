"""Newline-delimited-JSON source: the other interchange format a
web-corpus pipeline meets in the wild (CC derivative dumps, OpenWebText/
Pile-style releases, labeling-tool exports all ship as *.jsonl[.gz]).

Kept deliberately thin: Ray Data's native ``read_json`` / ``write_json``
already do the right thing at scale (one task per file / per block,
pyarrow's streaming JSON reader, gzip inferred from the extension) — the
value here is the contract wrapper: a pinned column schema so drifting
JSON field types (the classic ndjson failure: one shard where every
``doc_id`` became a string) fail loudly at read time instead of
poisoning a downstream shuffle.

No counterpart in the reference (it parses HTML strings in-process);
this is corpus-ingest plumbing the Ray engine adds.
"""

from __future__ import annotations

import pyarrow as pa


def read_jsonl(paths, *, schema: dict[str, pa.DataType] | None = None,
               **read_kwargs):
    """Directory / file list of .jsonl / .jsonl.gz → Dataset.

    ``schema`` maps column name → pyarrow type; when given, the read is
    followed by a zero-copy-where-possible cast stage that selects
    exactly those columns and casts each to the pinned type (raising on
    lossy drift), so every downstream stage sees one stable schema
    regardless of per-file JSON type inference.
    """
    import ray

    ds = ray.data.read_json(paths, **read_kwargs)
    if schema is None:
        return ds
    target = pa.schema(list(schema.items()))

    def pin(batch: pa.Table) -> pa.Table:
        cols = [batch.column(n).cast(t) for n, t in schema.items()]
        return pa.table(dict(zip(schema.keys(), cols)), schema=target)

    return ds.map_batches(pin, batch_format="pyarrow")
