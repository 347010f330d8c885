"""Driver contract: entry() smoke, queries() vs oracle_sql() (DuckDB).

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ray.init()/ray.shutdown().

The queries cover the engine surface per SURVEY.md §2.11: the HTML
extraction pipeline (wrap documents.text in deterministic escaped HTML →
DocStage(VISIBLE_TEXT) → byte-exact text vs a SQL normalization oracle),
boilerplate classification / main-content extraction, PDF/layout parse,
extraction rollups, derived outputs (outline / serialize / visible-token stream /
chunks / patch planning), dedup family (exact / MinHash-LSH / SimHash /
embedding-cosine / connected-components keep-canonical), similarity
search (brute-force + trained-IVF top-k), text analysis (tokens,
fingerprints, language-ID, quality), the link-graph layer (DOM href
extraction / host edges / integer-exact PageRank), deterministic
sampling, and the curation/sketch/retrieval layers (inverted index,
count-min + Bloom + HLL register sketches, exact grouped count-distinct,
grouped quantiles, group balancing, global rank, kNN self-join, grouped
embedding centroids, JSONL round-trip, Bloom-prefiltered delta dedup).
Every query reads only the documents and embeddings tables, and every one
has a value-checked DuckDB oracle (the simhash queries too: their token
hash is md5-based — md5_number_lower in DuckDB — so the per-bit majority
is SQL-expressible end to end).
Column names match the SQL aliases exactly (the driver sorts columns by
name before hashing values), and aggregate sums are CAST to BIGINT so
DuckDB's HUGEINT does not change the comparison dtype.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import Any

import pyarrow as pa


# --------------------------------------------------------------------------
# shared helpers

def _read(sf_dir: str, table: str, columns=None):
    import ray
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _wrap_batch(batch: pa.Table) -> pa.Table:
    """documents rows → pages-shaped rows (url, warc_ts, html, lang)."""
    import datetime
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    htmls = [
        (f"<html><head><meta charset='utf-8'><title>d</title></head>"
         f"<body><article><h1>Doc {i}</h1><p>{_escape(t)}</p></article>"
         f"</body></html>").encode("utf-8")
        for i, t in zip(ids, texts)
    ]
    ts = [datetime.datetime(2024, 1, 1)] * len(ids)
    return pa.table({
        "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
        "doc_id": pa.array(ids, pa.int64()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "lang": pa.array(langs, pa.string()),
    })


def _extract_batch(batch: pa.Table) -> pa.Table:
    from html_parser_ray.stages.extract import VISIBLE_TEXT, DocStage
    return DocStage(VISIBLE_TEXT)(batch)


def _extracted_docs(sf_dir: str):
    """documents → wrapped pages → DocStage → (doc_id, text_out, ...)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    wrapped = ds.map_batches(_wrap_batch, batch_format="pyarrow")

    def run(batch: pa.Table) -> pa.Table:
        out = _extract_batch(batch)
        return pa.table({
            "doc_id": out.column("doc_id"),
            "lang": out.column("lang"),
            "text_out": out.column("text"),
            "n_chars": out.column("n_chars"),
            "n_nodes": out.column("n_nodes"),
            "n_errors": out.column("n_errors"),
            "status": out.column("status"),
        })

    return wrapped.map_batches(run, batch_format="pyarrow")


# SQL expression equivalent to the visibleText output of the wrap above
_NORM_SQL = "trim(regexp_replace(text, '[ \\t\\n\\f\\r]+', ' ', 'g'))"

# shared unigram-LM CTE chain (lm_score / lm_filter): corpus token
# counts -> whole-bit surprisal per doc; ends WITHOUT a separator so
# callers append either " SELECT ..." or ", more_ctes ..."
_LM_CTE = (
    "WITH t AS (SELECT doc_id, tok FROM (SELECT doc_id, "
    "unnest(regexp_split_to_array(lower(text), "
    "'[ \\t\\n\\r\\f]+')) AS tok FROM documents) "
    "WHERE tok <> ''), "
    "c AS (SELECT tok, count(*) AS cnt FROM t GROUP BY 1), "
    "nt AS (SELECT length(bin(CAST(sum(cnt) AS BIGINT))) - 1 "
    "AS logn FROM c), "
    "s AS (SELECT t.doc_id, count(*) AS n_tokens, "
    "sum((SELECT logn FROM nt) - (length(bin(c.cnt)) - 1)) "
    "AS nll FROM t JOIN c USING (tok) GROUP BY 1)"
)
_TEXT_OUT_SQL = (
    "CASE WHEN " + _NORM_SQL + " = '' THEN 'Doc ' || CAST(doc_id AS VARCHAR) "
    "ELSE 'Doc ' || CAST(doc_id AS VARCHAR) || chr(10) || chr(10) || "
    + _NORM_SQL + " END"
)


def _query_vector() -> list[float]:
    from html_parser_ray.functions.ann import deterministic_query_vector
    return deterministic_query_vector(64, seed=7)


def _vec_literal() -> str:
    return "[" + ", ".join(f"{x!r}" for x in _query_vector()) + "]"


# --------------------------------------------------------------------------
# queries

def q_extract_visible_text(sf_dir: str):
    ds = _extracted_docs(sf_dir)
    return ds.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "text_out": b.column("text_out")}),
        batch_format="pyarrow")


def q_extract_rollup_by_lang(sf_dir: str):
    from ray.data.aggregate import Sum, Count
    ds = _extracted_docs(sf_dir)
    return (ds.groupby("lang")
            .aggregate(Count(alias_name="docs"),
                       Sum("n_chars", alias_name="text_chars")))


def q_exact_dedup(sf_dir: str):
    from html_parser_ray.functions.dedup import exact_dedup
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup(ds)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id")}),
        batch_format="pyarrow")


def q_token_counts(sf_dir: str):
    from html_parser_ray.functions.textstats import token_count_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(token_count_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "n_ws_tokens": b.column("n_ws_tokens")}),
        batch_format="pyarrow")


def q_fingerprints(sf_dir: str):
    from html_parser_ray.functions.textstats import fingerprint_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(fingerprint_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "fingerprint": b.column("fingerprint")}),
        batch_format="pyarrow")


def q_quality_features(sf_dir: str):
    from html_parser_ray.functions.textstats import quality_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(quality_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "n_chars": b.column("n_chars"),
                            "n_ws_tokens": b.column("n_ws_tokens"),
                            "n_lines": b.column("n_lines")}),
        batch_format="pyarrow")


def q_quality_scores(sf_dir: str):
    from html_parser_ray.functions.textstats import quality_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow")


def q_langid(sf_dir: str):
    from html_parser_ray.functions.textstats import langid_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return ds.map_batches(langid_batch, batch_format="pyarrow")


def q_repetition_features(sf_dir: str):
    """Gopher-style repetition quality signals (Rae et al. 2021):
    duplicate-word fraction, top-2/3-gram char fraction, duplicate-3-gram
    char coverage — integer basis points, exact SQL parity."""
    from html_parser_ray.functions.textstats import repetition_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


def q_decontam(sf_dir: str):
    """GPT-3-style benchmark decontamination (Brown et al. 2020 App. C):
    a deterministic 'benchmark' snippet set (every 97th doc's 13-token
    window) is broadcast; each document reports how many of its 13-token
    windows hit the set. Benchmark side = small broadcast, corpus side =
    streaming O(tokens) probes — no shuffle."""
    from html_parser_ray.functions.decontam import (benchmark_snippets,
                                                    decontam_flags)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    snips = benchmark_snippets(ds, every=97, skip=2, n_tokens=13)
    out = decontam_flags(ds, snips, n_tokens=13)
    return out.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "n_hits": b.column("n_hits"),
                            "contaminated": b.column("contaminated")}),
        batch_format="pyarrow")


_NFC_MARKS = ["é", "ö", "Å", "가"]


def _nfc_wrap(batch: pa.Table) -> pa.Table:
    """Deterministic decomposed-Unicode injection per doc (combining
    marks / Hangul jamo chosen by doc_id%4) — the shared input of the
    nfc_normalize query and its DuckDB oracle, which reconstructs the
    same string via chr() arithmetic."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    wrapped = [f"{_NFC_MARKS[i % 4]} {t} {_NFC_MARKS[i % 4]}"
               for i, t in zip(ids, texts)]
    return pa.table({"doc_id": batch.column("doc_id"),
                     "text": pa.array(wrapped, pa.string())})


def q_pack_spans(sf_dir: str):
    """Sequence packing: per-doc token span in the concatenated training
    stream (global exclusive prefix sum via a two-level distributed
    scan; 512-token examples)."""
    from html_parser_ray.functions.packing import pack_spans
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return pack_spans(ds, example_len=512, range_size=64)


def _delta_wrap(batch: pa.Table, n: int) -> pa.Table:
    """Deterministic exact-dup planting for the delta-dedup query, by
    doc_id%10 band: band {0,1,2} repeats every n//2 ids (new-batch docs
    collide with the EXISTING half), band {4,5} pairs consecutive ids
    (within-new dups), everything else unique — both drop paths
    exercised at every scale factor (n//2 is a multiple of 10 in the
    test tables). SQL reconstructs the same text."""
    ids = batch.column("doc_id").to_pylist()
    h = n // 2
    texts = []
    for i in ids:
        b = i % 10
        if b < 3:
            texts.append(f"x-{i % h}")
        elif b in (4, 5):
            texts.append(f"y-{i // 2}")
        else:
            texts.append(f"u-{i}")
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "text": pa.array(texts, pa.string()),
    })


def _delta_split(sf_dir: str):
    """Shared scaffolding for the delta-dedup queries: wrap the corpus
    with the planted-dup scheme and split it into (new batch, existing
    half) — ONE definition so both engine strategies stay bound to the
    same oracle."""
    n = _doc_count(sf_dir)
    h = n // 2
    ds = (_read(sf_dir, "documents", columns=["doc_id"])
          .map_batches(lambda b: _delta_wrap(b, n),
                       batch_format="pyarrow"))

    def split(batch: pa.Table, old: bool) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < h if old else ids >= h))

    existing = ds.map_batches(lambda b: split(b, True),
                              batch_format="pyarrow")
    new = ds.map_batches(lambda b: split(b, False), batch_format="pyarrow")
    return new, existing


def q_delta_dedup(sf_dir: str):
    """Incremental-ingest dedup: the corpus's second half arrives as a
    'new crawl batch' and is deduped against the first half (existing
    corpus) and within itself — (text_hash) markers co-shuffle, payload
    moves once."""
    from html_parser_ray.functions.dedup import delta_exact_dedup
    new, existing = _delta_split(sf_dir)
    return delta_exact_dedup(new, existing)


_DUP_CLOSURE_CTE = (
    # transitive closure over the duplicate relation — shared by
    # dup_clusters / minhash_dedup_best. The relation is the planted
    # dup-suffix chain PLUS exact text equality: at sf0.1 the synthetic
    # generator produces identical short docs by chance (Jaccard 1.0),
    # which the engine correctly pairs — an equality-blind oracle
    # under-counted at that scale (r4 fix)
    "WITH RECURSIVE e AS ("
    "SELECT d.doc_id AS u, o.doc_id AS v FROM documents d "
    "JOIN documents o ON d.doc_id <> o.doc_id AND ("
    "d.text = o.text "
    "OR (LENGTH(o.text) < LENGTH(d.text) "
    " AND o.text = substr(d.text, 1, LENGTH(o.text)) "
    " AND regexp_full_match(substr(d.text, LENGTH(o.text) + 1), "
    "     '( dup)+')) "
    "OR (LENGTH(d.text) < LENGTH(o.text) "
    " AND d.text = substr(o.text, 1, LENGTH(d.text)) "
    " AND regexp_full_match(substr(o.text, LENGTH(d.text) + 1), "
    "     '( dup)+')))), "
    "reach(u, v) AS ("
    "SELECT u, v FROM e "
    "UNION "
    "SELECT r.u, e.v FROM reach r JOIN e ON e.u = r.v)"
)


_C4_WS = re.compile(r"[ \t\n\r\f]+")

# shared C4 CTE chain (c4_clean / curate_pipeline oracles): planted
# seven-line pages -> per-line keep flags -> per-doc aggregates; ends
# WITHOUT a separator so callers append " SELECT ..." or ", more ..."
_C4_CTE = (
    "WITH toks AS (SELECT doc_id, string_split_regex("
    "trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(12)), "
    "'[ \\t\\n\\r\\f]+') AS t FROM documents), "
    "w AS (SELECT doc_id, "
    "'Intro header for doc ' || CAST(doc_id AS VARCHAR) "
    "|| chr(10) || "
    "array_to_string(list_slice(t, 1, 8), ' ') || '.' "
    "|| chr(10) || "
    "'Enable javascript to view this page.' || chr(10) || "
    "'Short one.' || chr(10) || "
    "array_to_string(list_slice(t, 9, 16), ' ') || "
    "' extra words here too?' || chr(10) || "
    "CASE WHEN doc_id % 7 = 0 THEN 'lorem ipsum dolor sit amet.' "
    "ELSE 'Closing statement line number five.' END || chr(10) || "
    "CASE WHEN doc_id % 11 = 0 THEN "
    "'code sample { weird } line.' "
    "ELSE 'Final polite farewell sentence now.' END AS text "
    "FROM toks), "
    "l AS (SELECT doc_id, text, "
    "unnest(string_split(text, chr(10))) AS line, "
    "generate_subscripts(string_split(text, chr(10)), 1) AS i "
    "FROM w), "
    "k AS (SELECT doc_id, text, line, i, "
    "(regexp_matches(line, '[.!?\"]$') "
    "AND len(string_split_regex(trim(line, ' '), '[ ]+')) >= 5 "
    "AND NOT contains(lower(line), 'javascript')) AS keep "
    "FROM l), "
    "agg AS (SELECT doc_id, "
    "COALESCE(string_agg(line, chr(10) ORDER BY i) "
    "FILTER (keep), '') AS clean_text, "
    "count(*) FILTER (keep) AS n_kept, count(*) AS n_total, "
    "any_value(text) AS text FROM k GROUP BY doc_id)"
)


def _c4_wrap(batch: pa.Table) -> pa.Table:
    """Deterministic multi-line page plant for the C4 cleaning query:
    seven lines per doc exercising every rule (no terminal punct, short
    line, javascript line, token-derived kept lines, lorem-ipsum page
    drop on id%7, curly-brace page drop on id%11). SQL rebuilds the
    same text via list_slice + chr(10)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out = []
    for i, t in zip(ids, texts):
        stripped = t.strip(" \t\n\r\f")
        toks = _C4_WS.split(stripped) if stripped else []
        t8 = " ".join(toks[0:8])
        t8b = " ".join(toks[8:16])
        lines = [
            f"Intro header for doc {i}",
            t8 + ".",
            "Enable javascript to view this page.",
            "Short one.",
            t8b + " extra words here too?",
            ("lorem ipsum dolor sit amet." if i % 7 == 0
             else "Closing statement line number five."),
            ("code sample { weird } line." if i % 11 == 0
             else "Final polite farewell sentence now."),
        ]
        out.append("\n".join(lines))
    return pa.table({"doc_id": batch.column("doc_id"),
                     "text": pa.array(out, pa.string())})


def q_c4_clean(sf_dir: str):
    """C4-style line/page cleaning (Raffel et al. 2020 §2.2 rules,
    deterministic variant) over planted multi-line pages — stateless
    streaming pass, exact counters + cleaned text."""
    from html_parser_ray.functions.c4clean import c4_clean
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return c4_clean(ds.map_batches(_c4_wrap, batch_format="pyarrow"))


def q_split_assign(sf_dir: str):
    """Deterministic hash-stable train/val/test split (900/50/50 permille
    thresholds on md5(id:salt) % 1000) — never random_split."""
    from html_parser_ray.functions.sampling import split_assign
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return split_assign(ds, permille=(900, 50, 50), salt="split")


def q_range_partition(sf_dir: str):
    """Quantile-boundary range partitioning of documents by n_chars
    (4 near-equal buckets, no global sort) — boundaries from the exact
    value histogram, assignment via one searchsorted pass."""
    from html_parser_ray.functions.sketches import range_partition
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return range_partition(ds, "n_chars", 4)


def q_curate_pipeline(sf_dir: str):
    """End-to-end curation composition: C4 line/page cleaning → page
    filter → exact dedup (first keeper by id; the planted ' dup' chains
    share their first 16 tokens, so their cleaned pages collapse) →
    deterministic shuffle-shard assignment. Every stage is streaming;
    only hash/id markers shuffle."""
    from html_parser_ray.functions.c4clean import c4_filter
    from html_parser_ray.functions.dedup import delta_exact_dedup
    from html_parser_ray.functions.sampling import shard_assign
    import ray

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cleaned = c4_filter(ds.map_batches(_c4_wrap, batch_format="pyarrow"))
    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    deduped = delta_exact_dedup(cleaned, empty)
    out = shard_assign(deduped, n_shards=16, salt="curate")
    return out.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "shard": b.column("shard"),
                            "shuffle_key": b.column("shuffle_key")}),
        batch_format="pyarrow")


def q_dedup_lines(sf_dir: str):
    """Corpus-global repeated-line removal (C4/RefinedWeb) over the
    planted multi-line pages: shared boilerplate lines survive only in
    the smallest doc_id; only (line-hash, packed-position) rows
    shuffle."""
    from html_parser_ray.functions.spandedup import remove_duplicate_lines
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return remove_duplicate_lines(
        ds.map_batches(_c4_wrap, batch_format="pyarrow"))


def q_hll_registers(sf_dir: str):
    """HyperLogLog distinct-count registers over a planted 137-value
    column — the mergeable approximate-count-distinct primitive.
    Registers are exact integers (md5-derived), so they value-oracle;
    the float estimate is library-side (hll_estimate, pytest-bounded)."""
    from html_parser_ray.functions.sketches import hll_registers
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table({"val": pa.array([f"v-{i % 137}" for i in ids],
                                         pa.string())})

    return hll_registers(ds.map_batches(plant, batch_format="pyarrow"),
                         "val", p=6)


def q_shuffle_shards(sf_dir: str):
    """Deterministic global-shuffle shard assignment for training output
    (hash-keyed pseudo-shuffle; readers sort within shard by
    shuffle_key). Stateless per-row hash — no shuffle in the pipeline
    itself."""
    from html_parser_ray.functions.sampling import shard_assign
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return shard_assign(ds, n_shards=64, salt="shard")


def q_nfc_normalize(sf_dir: str):
    """Unicode NFC canonicalization over the corpus (mixed-normalization
    web text -> one canonical form). Streaming stateless map with an
    is_normalized fast path; parity vs DuckDB nfc_normalize."""
    from html_parser_ray.functions.textstats import nfc_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return (ds.map_batches(_nfc_wrap, batch_format="pyarrow")
            .map_batches(nfc_batch, batch_format="pyarrow"))


def _pii_wrap(batch: pa.Table) -> pa.Table:
    """Deterministic PII planted per doc (doc_id%3 emails, an IPv4 on
    even ids, one phone) — the shared input of the pii_redact query and
    its DuckDB oracle, which reconstructs the same string in SQL."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out = []
    for i, t in zip(ids, texts):
        parts = [t, "Contact:"]
        parts += [f"user{i}@mail{i % 7}.example.com"] * (i % 3)
        if i % 2 == 0:
            parts.append(f"ip 10.{i % 200}.{(i // 7) % 200}.{i % 250}")
        parts.append(f"tel +{1 + i % 9}-{100 + i % 900}-{1000 + i % 9000}")
        out.append(" ".join(parts))
    return pa.table({"doc_id": batch.column("doc_id"),
                     "text": pa.array(out, pa.string())})


def q_pii_redact(sf_dir: str):
    """PII scrub over the planted-PII wrap: email / IPv4 / phone regex
    redaction (RE2-compatible patterns) + per-doc match counts. The
    oracle runs DuckDB's regexp_replace / regexp_extract_all over the
    identical constructed string — a true cross-engine regex
    differential."""
    from html_parser_ray.functions.redact import redact_corpus
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return redact_corpus(ds.map_batches(_pii_wrap, batch_format="pyarrow"))


def _url_wrap(batch: pa.Table) -> pa.Table:
    """Deterministic messy URL per doc (upper-case scheme/host, default
    port, dot-segments, tracking params, unsorted query, fragment) —
    shared input of url_canonical / host_rollup and their oracles."""
    ids = batch.column("doc_id").to_pylist()
    urls = []
    for i in ids:
        k = i % 23
        host = (f"News.Site{k}.CO.UK" if i % 5 == 0
                else f"WWW.Site{k}.COM")
        urls.append(f"HTTP://{host}:80/a/{i}/../b/{i}"
                    f"?utm_source=x&b=2&a=1#frag")
    out = {name: batch.column(name) for name in batch.column_names}
    out["url"] = pa.array(urls, pa.string())
    return pa.table(out)


def q_url_canonical(sf_dir: str):
    from html_parser_ray.functions.urls import canonicalize_batch
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    out = ds.map_batches(_url_wrap, batch_format="pyarrow") \
            .map_batches(canonicalize_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda b: b.select(["doc_id", "canonical_url", "host",
                            "registered_domain"]),
        batch_format="pyarrow")


def q_url_blocklist(sf_dir: str):
    """UT1/RefinedWeb-style URL filtering over the planted messy URLs:
    blocked domain (suffix match on canonical host) or blocked raw-URL
    substring; pinned first-match reason."""
    from html_parser_ray.functions.urls import url_blocklist_flags
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    flagged = url_blocklist_flags(
        ds.map_batches(_url_wrap, batch_format="pyarrow"),
        blocked_domains=["site3.co.uk", "site5.com"],
        blocked_substrings=["/a/7/"])
    return flagged.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "blocked": b.column("blocked"),
                            "reason": b.column("reason")}),
        batch_format="pyarrow")


def q_host_rollup(sf_dir: str):
    from html_parser_ray.functions.urls import host_rollup
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return host_rollup(ds.map_batches(_url_wrap, batch_format="pyarrow"))


def _doc_count(sf_dir: str) -> int:
    import os
    import pyarrow.parquet as pq
    return pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows


def _wrap_links_batch(batch: pa.Table, n: int) -> pa.Table:
    """documents rows → pages whose HTML plants a deterministic link plan
    (one href per resolution form: absolute / scheme-relative /
    root-relative / path-relative), targets derived from doc_id
    arithmetic so the SQL oracle reconstructs the exact link set."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    urls, htmls = [], []
    for i, t in zip(ids, texts):
        t1 = (i * 31) % n
        t2 = (i * 31 + 17) % n
        t3 = (i * 7) % n
        t4 = (i * 13 + 5) % n
        urls.append(f"http://h{i % 50}.example.com/d/{i}")
        htmls.append((
            f"<html><head><meta charset='utf-8'></head><body>"
            f"<nav><a href='http://h{t1 % 50}.example.com/d/{t1}'>a</a> "
            f"<a href='//h{t2 % 50}.example.com/d/{t2}'>b</a></nav>"
            f"<p>{_escape(t)}</p>"
            f"<footer><a href='/d/{t3}'>c</a> "
            f"<a href='{t4}'>d</a></footer>"
            f"</body></html>").encode("utf-8"))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "html": pa.array(htmls, pa.binary()),
    })


def _link_corpus(sf_dir: str):
    from html_parser_ray.functions.linkgraph import extract_links
    n = _doc_count(sf_dir)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    wrapped = ds.map_batches(lambda b: _wrap_links_batch(b, n),
                             batch_format="pyarrow")
    return extract_links(wrapped)


def q_link_graph(sf_dir: str):
    """DOM-based <a href> extraction + resolution over the wrapped corpus:
    (src_url, href, dst_url), 4 links per doc covering every href form;
    a page that fails to parse has no links."""
    from html_parser_ray.stages.extract import ok_rows
    return _link_corpus(sf_dir).map_batches(
        lambda b: ok_rows(b).select(["src_url", "href", "dst_url"]),
        batch_format="pyarrow")


def q_anchor_rollup(sf_dir: str):
    """Anchor-text aggregation: (dst_host, anchor, n_links) — in-link
    anchor term frequency per target host (partial combine, only
    host/anchor/count rows shuffle)."""
    from html_parser_ray.functions.linkgraph import anchor_rollup
    return anchor_rollup(_link_corpus(sf_dir))


def q_host_pagerank(sf_dir: str):
    """Full link-graph pipeline: extract links → host edge weights →
    3 integer-exact PageRank iterations → (host, rank)."""
    from html_parser_ray.functions.linkgraph import host_edges, pagerank
    return pagerank(host_edges(_link_corpus(sf_dir)), iters=3)


def q_lm_score(sf_dir: str):
    from html_parser_ray.functions.lmscore import lm_score
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return lm_score(ds)


def q_grouped_topk(sf_dir: str):
    """Per-group curation top-k: the 5 largest documents per language
    (value desc, id asc tie rule), via bounded per-batch partial top-k
    then a small per-group final."""
    from html_parser_ray.functions.topk import grouped_topk
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return grouped_topk(ds, group_col="lang", value_col="n_chars", k=5)


def q_lm_filter(sf_dir: str):
    """Percentile-threshold quality filter: keep documents whose unigram
    LM surprisal is at or below the corpus median (CCNet-style 'head'
    selection, Wenzek et al. 2020). Two streaming passes — pass 1
    derives the threshold from the exact mean_bits_bp histogram
    (cardinality-bounded), pass 2 recomputes scores and filters; the
    corpus is never materialized."""
    from html_parser_ray.functions.lmscore import (lm_score,
                                                    lm_unigram_model)
    from html_parser_ray.functions.sketches import exact_quantiles
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    model = lm_unigram_model(ds)      # ONE count pass, shared by both
    thr = exact_quantiles(lm_score(ds, model=model), "mean_bits_bp",
                          [5000]).column("value")[0].as_py()

    def keep(batch: pa.Table) -> pa.Table:
        vals = batch.column("mean_bits_bp").to_numpy(zero_copy_only=False)
        out = batch.filter(pa.array(vals <= thr))
        return pa.table({"doc_id": out.column("doc_id"),
                         "mean_bits_bp": out.column("mean_bits_bp")})

    return lm_score(ds, model=model).map_batches(keep,
                                                 batch_format="pyarrow")


def q_bigram_lm(sf_dir: str):
    """Bigram-conditional LM surprisal (integer-exact: first token at
    unigram bits, later tokens at ilog2(cnt(prev)) − ilog2(cnt(prev,w)))
    — the sharper CCNet-style quality signal; two count passes, both
    broadcast tables."""
    from html_parser_ray.functions.lmscore import bigram_lm_score
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_lm_score(ds)


def q_stratified_sample(sf_dir: str):
    from html_parser_ray.functions.sampling import stratified_sample
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return stratified_sample(ds, group_col="lang", n_per_group=20)


def _warc_corpus(sf_dir: str) -> str:
    """Deterministic WARC rendering of the documents table (8 shards by
    doc_id%8, even shards plain / odd shards CC-style per-record gzip
    members), cached under /tmp with a _DONE marker. Test scaffolding for
    the warc_extract query — the PRODUCT path is sources/warc.read_warc
    over real archives."""
    import os
    import pyarrow.parquet as pq
    from html_parser_ray.sources.warc import make_warc

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    out_dir = os.path.join(
        "/tmp/graft_warc",
        os.path.basename(os.path.normpath(sf_dir)))
    done = os.path.join(out_dir, "_DONE")
    # marker = digest of the source parquet bytes: a regenerated table
    # with the same row count must invalidate the cached WARC rendering
    import hashlib
    with open(os.path.join(sf_dir, "documents.parquet"), "rb") as f:
        marker = hashlib.sha256(f.read()).hexdigest()
    if os.path.exists(done) and open(done).read() == marker:
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    shards: list[list] = [[] for _ in range(8)]
    for i, text in zip(t.column("doc_id").to_pylist(),
                       t.column("text").to_pylist()):
        shards[i % 8].append((f"doc://{i}", "2024-01-01T00:00:00Z",
                              text.encode("utf-8")))
    for s, recs in enumerate(shards):
        gz = s % 2 == 1
        name = f"{s:02d}.warc.gz" if gz else f"{s:02d}.warc"
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(make_warc(recs, gzip_members=gz))
    with open(done, "w") as f:
        f.write(marker)
    return out_dir


def q_warc_extract(sf_dir: str):
    """WARC source round-trip: read the rendered archive shards (plain +
    gzip-membered) with sources/warc.read_warc, recover doc_id from the
    target URI and the text from the HTTP payload — identity oracle
    (generator and parser must agree byte-for-byte, like pdf_extract)."""
    from html_parser_ray.sources.warc import read_warc

    warc_dir = _warc_corpus(sf_dir)
    ds = read_warc(warc_dir)

    def to_docs(batch: pa.Table) -> pa.Table:
        ok = pa.compute.equal(batch.column("status"), "ok")
        batch = batch.filter(ok)
        urls = batch.column("url").to_pylist()
        payloads = batch.column("payload").to_pylist()
        return pa.table({
            "doc_id": pa.array([int(u[len("doc://"):]) for u in urls],
                               pa.int64()),
            "text": pa.array([p.decode("utf-8") for p in payloads],
                             pa.string()),
        })

    return ds.map_batches(to_docs, batch_format="pyarrow")


def q_dedup_spans(sf_dir: str):
    """Corpus-global duplicate word-window removal (Lee et al. 2022
    substring dedup, fixed 20-word windows, first occurrence kept).
    The synthetic corpus's `text + ' dup'*k` clones share their leading
    windows, so real cross-doc duplicates exist at every sf."""
    from html_parser_ray.functions.spandedup import remove_duplicate_spans
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return remove_duplicate_spans(ds, window=20)


def q_heavy_hitters(sf_dir: str):
    """Exact top-10 words via the two-phase sketch (Misra-Gries partial
    summaries -> merged candidates -> broadcast exact recount). The
    sketch only PRUNES, so plain SQL word-count top-k is the oracle."""
    from html_parser_ray.functions.sketches import heavy_hitter_words
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return heavy_hitter_words(ds, k=10)


def q_inverted_index(sf_dir: str):
    """Term -> (exact df, capped ascending posting list): one distinct
    (term, doc_id) pair pass + one partition-granular vectorized
    segment reduction; postings cap keeps stop-word rows bounded."""
    from html_parser_ray.functions.invindex import inverted_index
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return inverted_index(ds, postings_cap=16)


def q_cms(sf_dir: str):
    """Count-min sketch registers of corpus word frequencies: per-batch
    partials bounded by depth x width, merged by one small groupby-sum.
    Registers are exact integers (md5-cell hashing on both sides), so
    they value-oracle; the min-over-rows point estimate is library-side
    (cms_estimate, pytest-bounded)."""
    from html_parser_ray.functions.sketches import cms_table
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cms_table(ds, width=1024, depth=4)


def q_bloom(sf_dir: str):
    """Bloom-filter registers over document text values (the membership
    prefilter for incremental dedup): 63-bit int64 words merged by a
    custom bitwise-OR AggregateFn; bit layout md5-exact on both sides."""
    from html_parser_ray.functions.sketches import bloom_build
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bloom_build(ds, column="text", n_words=256, k=4)


def q_group_balance(sf_dir: str):
    """Language-rebalanced corpus: every lang thinned to ~the smallest
    lang's size by an integer-exact hash-rate rule (mn*10000 // cnt).
    Counts pass = in-batch combiner + tiny groupby-sum (one row per
    lang to the driver, bounded by design); keep pass = stateless
    per-row hash filter, payload never shuffles."""
    from html_parser_ray.functions.sampling import group_balance
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return group_balance(ds, group_col="lang")


def q_hll_by_group(sf_dir: str):
    """Per-language HyperLogLog register tables (approximate distinct
    values per group without the exact (group, value) shuffle): partial
    max per (lang, reg) per batch, global groupby-max over register
    rows only. Registers integer-exact -> value-oracled; estimates are
    library-side (hll_estimate per group, pytest-bounded)."""
    from html_parser_ray.functions.sketches import hll_registers_by_group
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "lang": batch.column("lang"),
            "val": pa.array([f"v-{i % 137}" for i in ids], pa.string()),
        })

    return hll_registers_by_group(
        ds.map_batches(plant, batch_format="pyarrow"),
        group_col="lang", col="val", p=6)


def _jsonl_corpus(sf_dir: str) -> str:
    """Deterministic JSONL rendering of the documents table (8 shards by
    doc_id%8, even shards plain / odd shards gzip), cached under /tmp
    with a content-keyed _DONE marker. Test scaffolding for the
    jsonl_roundtrip query — the PRODUCT path is sources/jsonl.read_jsonl
    over real dumps."""
    import gzip
    import hashlib
    import json
    import os
    import pyarrow.parquet as pq

    src = os.path.join(sf_dir, "documents.parquet")
    t = pq.read_table(src)
    out_dir = os.path.join("/tmp/graft_jsonl",
                           os.path.basename(os.path.normpath(sf_dir)))
    done = os.path.join(out_dir, "_DONE")
    with open(src, "rb") as f:
        marker = hashlib.sha256(f.read()).hexdigest()
    if os.path.exists(done) and open(done).read() == marker:
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    rows = t.to_pylist()
    shards: list[list[str]] = [[] for _ in range(8)]
    for r in rows:
        shards[r["doc_id"] % 8].append(
            json.dumps(r, ensure_ascii=False, sort_keys=True))
    for s, lines in enumerate(shards):
        data = ("\n".join(lines) + "\n").encode("utf-8")
        if s % 2 == 1:
            with gzip.open(os.path.join(out_dir, f"s{s}.jsonl.gz"),
                           "wb") as f:
                f.write(data)
        else:
            with open(os.path.join(out_dir, f"s{s}.jsonl"), "wb") as f:
                f.write(data)
    with open(done, "w") as f:
        f.write(marker)
    return out_dir


def q_jsonl_roundtrip(sf_dir: str):
    """JSONL source round-trip: read the rendered ndjson shards (plain +
    gzip) with sources/jsonl.read_jsonl under a pinned schema — identity
    oracle against the documents table (same pattern as warc_extract)."""
    from html_parser_ray.sources.jsonl import read_jsonl

    return read_jsonl(_jsonl_corpus(sf_dir), schema={
        "doc_id": pa.int64(), "text": pa.string(), "lang": pa.string(),
        "source": pa.string(), "n_chars": pa.int64()})


def q_shard_roundtrip(sf_dir: str):
    """Partitioned-Parquet SINK under the oracle gate: write the corpus
    through write_training_shards (one directory per shard, per-block
    partitioning — the resumable output shape), read the shard tree
    back with read_parquet, and reproduce (doc_id, text, shuffle_key,
    shard) — the shard assignment is the shuffle_shards hash rule, so
    the whole write→read loop value-oracles. Every call clears the
    directory and writes it again, so the oracle checks the writer."""
    import os
    import shutil
    from html_parser_ray.functions.sampling import write_training_shards

    out_dir = os.path.join(
        "/tmp/graft_shards",
        os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    write_training_shards(ds, out_dir, n_shards=8, salt="rt")
    import ray
    back = ray.data.read_parquet(out_dir)

    def restore(batch: pa.Table) -> pa.Table:
        # partition_cols come back as a dictionary/string partition
        # column — normalize to int64 for the compare frame
        shard = batch.column("shard")
        if shard.type != pa.int64():
            shard = shard.cast(pa.string()).cast(pa.int64())
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "text": batch.column("text"),
            "shuffle_key": batch.column("shuffle_key").cast(pa.int64()),
            "shard": shard,
        })

    return back.map_batches(restore, batch_format="pyarrow")


def q_profile_table(sf_dir: str):
    """Distributed DESCRIBE over the documents table: per column
    (n_rows, n_nulls, min, max, exact n_distinct). One partial row per
    (batch, column) with order-preserving string-encoded min/max, one
    vectorized finish per column; distinct counts ride the exact pair
    machinery — only (column, md5) pairs shuffle."""
    from html_parser_ray.functions.profile import profile_columns
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "n_chars", "lang", "source"])
    return profile_columns(ds, int_cols=["doc_id", "n_chars"],
                           str_cols=["lang", "source"])


def q_grouped_quantiles(sf_dir: str):
    """Per-language exact n_chars percentiles (the corpus profiling
    report): per-batch (lang, value, n) segment combine -> global
    histogram groupby -> one vectorized cumsum finish per language.
    quantile_disc rank rule in integer arithmetic on both sides."""
    from html_parser_ray.functions.sketches import grouped_quantiles
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    return grouped_quantiles(ds, group_col="lang", col="n_chars",
                             q_bps=[2500, 5000, 7500, 9900])


def q_global_rank(sf_dir: str):
    """Exact corpus-wide rank by (n_chars, doc_id) — the 'take the N
    best' primitive — via a value histogram (one row per distinct
    length) + one bucket-keyed shuffle of (id, value) pairs and a
    vectorized segment reduction per value bucket. No global sort, no
    driver materialization, payload never moves."""
    from html_parser_ray.functions.ranking import global_rank
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return global_rank(ds, col="n_chars")


def q_distinct_by_lang(sf_dir: str):
    """Exact per-language distinct-document count (the precise
    counterpart of hll_by_group): in-batch distinct (lang, md5) pairs ->
    global pair groupby -> tiny per-group sum. Only 32-byte keys
    shuffle."""
    from html_parser_ray.functions.sketches import distinct_count_by_group
    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    return distinct_count_by_group(ds, group_col="lang", col="text")


def q_delta_dedup_bloom(sf_dir: str):
    """delta_dedup through the Bloom-prefiltered path: the NEW batch's
    texts compress to broadcast bit registers and existing markers that
    cannot collide drop at the scan, before the co-shuffle — marker
    volume O(new + collisions), not O(existing). Result is
    bit-identical to delta_dedup (same oracle)."""
    from html_parser_ray.functions.dedup import delta_exact_dedup_bloom
    new, existing = _delta_split(sf_dir)
    return delta_exact_dedup_bloom(new, existing)


def q_quantiles(sf_dir: str):
    """Exact n_chars quantiles via the distributed value histogram;
    rank rule pinned to DuckDB quantile_disc (max(1, ceil(q*n))) in
    exact integer arithmetic on both sides."""
    from html_parser_ray.functions.sketches import exact_quantiles
    ds = _read(sf_dir, "documents", columns=["n_chars"])
    return exact_quantiles(ds, "n_chars", [2500, 5000, 7500, 9000, 9900])


def q_top_terms(sf_dir: str):
    """Most salient term per doc: broadcast-df two-pass TF-IDF surrogate
    (integer score tf * ((N*1000) // df) — log-free, SQL-exact)."""
    from html_parser_ray.functions.tfidf import top_terms
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return top_terms(ds, n_docs=ds.count())


def q_simhash(sf_dir: str):
    from html_parser_ray.functions.dedup import simhash_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(simhash_batch, batch_format="pyarrow")


def q_minhash_neardup_pairs(sf_dir: str):
    """Project to the pair ids: the synthetic corpus plants its near-dups
    as `text + (' dup')+` clones (measured real Jaccard >= 0.90, minhash
    estimate >= 0.92 at sf0.01 — comfortably above the 0.8 threshold, and
    LSH miss probability for J=0.9 at 16 bands x 4 rows is ~3e-8), so the
    expected pair SET is SQL-derivable from the duplicate relation —
    planted suffix chains PLUS exact text equality (chance-identical
    short docs appear at sf0.1 and are true Jaccard-1.0 pairs) — while
    the minhash estimate value itself is not."""
    from html_parser_ray.functions.dedup import minhash_dedup_pairs
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(ds)
    return pairs.map_batches(
        lambda b: pa.table({"doc_a": b.column("doc_a"),
                            "doc_b": b.column("doc_b")}),
        batch_format="pyarrow")


def q_embedding_neardup_pairs(sf_dir: str):
    """The raw tables carry no true near-dups (max pairwise cosine ≈ 0.48),
    so augment with exact-copy rows at vec_id+1_000_000: the near-dup set is
    then exactly {(i, i+1M)} and still exercises the full LSH-bucket →
    within-bucket-verify path end to end."""
    from html_parser_ray.functions.dedup import embedding_neardup_pairs
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def add_copy(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        shifted = pa.table({
            "vec_id": pc.add(batch.column("vec_id"), 1_000_000),
            "embedding": batch.column("embedding"),
        })
        return pa.concat_tables([batch.select(["vec_id", "embedding"]),
                                 shifted])

    aug = ds.map_batches(add_copy, batch_format="pyarrow")
    # defaults: 16-bit random-hyperplane sign-LSH × 4 tables; exact copies
    # share every table's bucket, so recall for the planted set is 1.0
    return embedding_neardup_pairs(aug, threshold=0.95)


def q_embedding_dedup(sf_dir: str):
    """End-to-end embedding near-dedup: hyperplane-LSH pairs on the
    exact-copy-augmented table → connected components → keep min vec_id
    per component. Copies live at vec_id+1M, so the survivors are exactly
    the original vec_ids — SQL-trivial while the full pair/CC/filter
    machinery runs for real."""
    from html_parser_ray.functions.dedup import (dedup_keep_canonical,
                                                 embedding_neardup_pairs)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def add_copy(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        shifted = pa.table({
            "vec_id": pc.add(batch.column("vec_id"), 1_000_000),
            "embedding": batch.column("embedding"),
        })
        return pa.concat_tables([batch.select(["vec_id", "embedding"]),
                                 shifted])

    aug = ds.map_batches(add_copy, batch_format="pyarrow")
    pairs = embedding_neardup_pairs(aug, threshold=0.95)
    pair_ids = pairs.map_batches(
        lambda b: pa.table({"doc_a": b.column("vec_a"),
                            "doc_b": b.column("vec_b")}),
        batch_format="pyarrow")
    kept = dedup_keep_canonical(aug, pair_ids, id_col="vec_id")
    return kept.map_batches(
        lambda b: b.select(["vec_id"]), batch_format="pyarrow")


def q_ann_topk(sf_dir: str):
    from html_parser_ray.functions.ann import brute_force_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return brute_force_topk(ds, _query_vector(), k=10)


def q_knn_join(sf_dir: str):
    """All-vectors top-5 neighbors as an IVF-bucketed co-group join
    (index rows to their cell, query rows exploded to n_probe cells, one
    matmul per cell, hash-partitioned segment-reduction merge). Ranking
    by quantized integer inner product — exact cross-engine; n_probe ==
    n_cells keeps the result exact so the SQL cross-join oracle applies
    while CORRECTNESS exercises the bucketed path."""
    from html_parser_ray.functions.ann import knn_join
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_join(ds, k=5, n_cells=16, n_probe=16)


def q_label_centroids(sf_dir: str):
    """Per-label quantized embedding sums (mergeable group centroids):
    one np.add.reduceat per sorted group segment per batch, global
    groupby([label, dim]).sum over groups x dim partial rows — the
    vectors themselves never shuffle. Integer-exact (quantize_matrix's
    float64-then-round convention = the SQL DOUBLE cast)."""
    from html_parser_ray.functions.ann import grouped_vector_sum
    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    return grouped_vector_sum(ds, group_col="label")


def q_ann_ivf_topk(sf_dir: str):
    """Trained spherical-k-means coarse cells (deterministic sample +
    seed); n_probe == n_cells keeps the result exact, so the brute-force
    SQL oracle applies while CORRECTNESS exercises the trained path."""
    from html_parser_ray.functions.ann import ivf_topk
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(ds, _query_vector(), k=10, n_cells=16, n_probe=16,
                    train=True)


def q_minhash_dedup(sf_dir: str):
    """End-to-end near-dedup: MinHash-LSH pairs → connected components
    (large-star/small-star over the edge list only) → keep the min doc_id
    per component. The corpus's planted dups are `text || (' dup')+` chains
    — every chain member pairs with every other directly, so the surviving
    set is the docs with no smaller suffix-related sibling, which SQL can
    express; transitivity itself (A~B~C with A!~C) is covered by pytest
    with adversarial chain graphs."""
    from html_parser_ray.functions.dedup import (minhash_dedup_pairs,
                                                 dedup_keep_canonical)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(ds)
    kept = dedup_keep_canonical(ds, pairs)
    return kept.map_batches(
        lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def q_dup_clusters(sf_dir: str):
    """Direct value-check of the connected-components labeling: MinHash
    LSH pairs → large-star/small-star CC → (doc_id, component=min
    reachable id) for every doc in the dup graph. The oracle recomputes
    the same labels with a recursive-CTE transitive closure."""
    from html_parser_ray.functions.dedup import (minhash_dedup_pairs,
                                                 connected_components)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(ds)
    return connected_components(pairs, num_partitions=8)


def q_minhash_dedup_best(sf_dir: str):
    """Near-dedup keeping the BEST component member (max n_chars, tie
    min id) — the curation-grade canonical rule; CC labels semi-join
    the compact score table, per-component argmax is a vectorized
    segment reduction."""
    from html_parser_ray.functions.dedup import (dedup_keep_best,
                                                 minhash_dedup_pairs)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    pairs = minhash_dedup_pairs(
        ds.map_batches(lambda b: b.select(["doc_id", "text"]),
                       batch_format="pyarrow"))
    scores = ds.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "score": b.column("n_chars")}),
        batch_format="pyarrow")
    kept = dedup_keep_best(ds, pairs, scores, num_partitions=8)
    return kept.map_batches(lambda b: b.select(["doc_id"]),
                            batch_format="pyarrow")


def q_clean_corpus(sf_dir: str):
    """Flagship training-data cleaning composition: quality gate → exact
    dedup → MinHash near-dedup, one compact feature pass + one payload
    filter pass (pipelines/clean.py). SQL oracle: survivors are
    quality-passing docs with no smaller quality-passing duplicate
    sibling (equal text — chance-identical docs exist at sf0.1 — or the
    planted `(' dup')+` suffix relation, pairwise within a chain)."""
    from html_parser_ray.pipelines.clean import clean_corpus
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    kept = clean_corpus(ds, min_ws_tokens=20)
    return kept.map_batches(
        lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def q_simhash_neardup_pairs(sf_dir: str):
    """Augmented with exact copies at doc_id+1_000_000 (same trick as the
    embedding query): the Hamming<=3 pairs are exactly the copies — the
    odds of two independent ~300-char docs landing within Hamming 3 of each
    other's 64-bit simhash are ~1e-10 per pair."""
    from html_parser_ray.functions.dedup import simhash_neardup_pairs
    import pyarrow.compute as pc
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_copy(batch: pa.Table) -> pa.Table:
        shifted = pa.table({
            "doc_id": pc.add(batch.column("doc_id"), 1_000_000),
            "text": batch.column("text"),
        })
        return pa.concat_tables([batch.select(["doc_id", "text"]), shifted])

    aug = ds.map_batches(add_copy, batch_format="pyarrow")
    return simhash_neardup_pairs(aug, hamming_k=3)


def _wrapped_pages(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return ds.map_batches(_wrap_batch, batch_format="pyarrow")


def _chrome_wrap(batch: pa.Table) -> pa.Table:
    """Deterministic chrome (nav links, header banner, footer) around each
    document's text — the shared input of the main_content / extract_full
    boilerplate-classification queries."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    htmls = [
        ("<html><head><meta charset='utf-8'><title>d</title></head>"
         "<body><nav><a href='/'>Home</a> <a href='/a'>About</a> "
         "<a href='/c'>Contact</a></nav>"
         "<header><div>Site Header Banner</div></header>"
         f"<article><h1>Doc {i}</h1><p>{_escape(t)}</p></article>"
         "<footer><p>Copyright 2024 example.com</p></footer>"
         "</body></html>").encode("utf-8")
        for i, t in zip(ids, texts)
    ]
    return pa.table({
        "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
        "doc_id": pa.array(ids, pa.int64()),
        "html": pa.array(htmls, pa.binary()),
    })


def q_main_content(sf_dir: str):
    """Boilerplate-stripped main content (north-star classification step:
    text density, link density, tag-path chrome context, heading
    promotion, short-block smoothing — htmlcore/boilerplate.py). The wrap
    plants deterministic chrome around the article; the classifier must
    drop all of it and keep h1+p iff the paragraph has >= 5 words, which
    SQL reproduces."""
    from html_parser_ray.stages.extract import main_content_pages

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = main_content_pages(
        ds.map_batches(_chrome_wrap, batch_format="pyarrow"))
    return out.map_batches(
        lambda b: b.select(["doc_id", "main_text", "n_blocks",
                            "n_content_blocks"]),
        batch_format="pyarrow")


def q_extract_full(sf_dir: str):
    """Fused single-parse extraction: full visibleText AND main content
    from ONE decode+tokenize+tree pass per document
    (stages/fused: DocStage(VISIBLE_TEXT, MAIN_CONTENT)). Running the two
    stages separately parses every page twice — the dominant cost at
    100 TB; the fused stage halves it for pipelines that need both
    outputs."""
    from html_parser_ray.stages.fused import fused_extract_pages

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = fused_extract_pages(
        ds.map_batches(_chrome_wrap, batch_format="pyarrow"))
    return out.map_batches(
        lambda b: b.select(["doc_id", "text", "main_text", "n_blocks",
                            "n_content_blocks"]),
        batch_format="pyarrow")


def q_pdf_extract(sf_dir: str):
    """PDF/layout parse (north-star step): wrap each document's text in a
    deterministic digital-born PDF (pdfcore.make_minimal_pdf — valid
    xref, Flate-compressed content stream) and run the from-scratch
    extraction kernel over it as a DocStage task map. Single-line pages
    make the oracle the identity on text; the multi-line / multi-page /
    escape / uncompressed paths are pytest-tested."""
    from html_parser_ray.pdfcore import make_minimal_pdf
    from html_parser_ray.stages.pdf_extract import pdf_extract_pages

    def wrap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "pdf": pa.array([make_minimal_pdf(t) for t in texts],
                            pa.binary()),
        })

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = pdf_extract_pages(ds.map_batches(wrap, batch_format="pyarrow"))
    return out.map_batches(
        lambda b: b.select(["doc_id", "pdf_text"]), batch_format="pyarrow")


def q_outline(sf_dir: str):
    """Parse each wrapped page and emit its heading/section skeleton
    (SURVEY.md M16). Oracle reproduces the deterministic wrap shape."""
    from html_parser_ray.stages.extract import OUTLINE, DocStage

    def run(batch: pa.Table) -> pa.Table:
        return DocStage(OUTLINE)(batch).select(
            ["doc_id", "tag_name", "depth", "text"])

    return _wrapped_pages(sf_dir).map_batches(run, batch_format="pyarrow")


def q_serialize_roundtrip(sf_dir: str):
    """bytes → parse → serialize (S5/S6) + raw textContent (M15)."""
    from html_parser_ray.stages.extract import SERIALIZED, DocStage

    def run(batch: pa.Table) -> pa.Table:
        return DocStage(SERIALIZED)(batch).select(
            ["doc_id", "normalized_html", "text_content"])

    return _wrapped_pages(sf_dir).map_batches(run, batch_format="pyarrow")


def q_visible_tokens(sf_dir: str):
    """Exploded visible-text token stream with provenance (M13/M14) — the
    per-character-span output of the north star. kind/value sequence is
    SQL-checkable for the deterministic wrap; provenance ids are not."""
    from html_parser_ray.stages.extract import TOKENS, DocStage

    def run(batch: pa.Table) -> pa.Table:
        return DocStage(TOKENS)(batch).select(
            ["doc_id", "seq", "kind", "value"])

    return _wrapped_pages(sf_dir).map_batches(run, batch_format="pyarrow")


def q_chunks(sf_dir: str):
    """Size-bounded chunk splits (M17). The deterministic wrap has one
    top-level child, so every page yields exactly one chunk whose node
    count and content length are SQL-derivable."""
    from html_parser_ray.stages.extract import CHUNKS, DocStage

    def run(batch: pa.Table) -> pa.Table:
        out = DocStage(CHUNKS)(batch)
        return pa.table({
            "doc_id": out.column("doc_id"),
            "chunk_index": out.column("chunk_index"),
            "nodes": out.column("nodes"),
            "n_content_chars": pa.array(
                [len(c) for c in out.column("content").to_pylist()],
                pa.int64()),
        })

    return _wrapped_pages(sf_dir).map_batches(run, batch_format="pyarrow")


def q_patch_edit(sf_dir: str):
    """Span-based patch planning (M18/M19): replaceText of the <h1> text
    node per page; the node id is fixed by the deterministic wrap shape, so
    the patched html is SQL-reproducible."""
    from html_parser_ray.stages.extract import PATCH, HTML_TEXT, DocStage
    from html_parser_ray.htmlcore.api import parse
    from html_parser_ray.htmlcore.dom import Text
    from html_parser_ray.htmlcore.extract import walk
    import json as _json

    # same tree shape for every wrapped doc → same id for the h1 text node
    sample = parse("<html><head><meta charset='utf-8'><title>d</title></head>"
                   "<body><article><h1>Doc 0</h1><p>x</p></article>"
                   "</body></html>", capture_spans=True)
    h1_text_id = next(sample.ids[id(n)] for n, _d in walk(sample)
                      if isinstance(n, Text) and n.value == "Doc 0")
    edits = _json.dumps([{"kind": "replaceText", "target": h1_text_id,
                          "value": "EDITED"}])

    def run(batch: pa.Table) -> pa.Table:
        with_edits = batch.append_column(
            "edits", pa.array([edits] * batch.num_rows, pa.string()))
        return DocStage(PATCH, decoder=HTML_TEXT)(with_edits).select(
            ["doc_id", "result", "status"])

    return _wrapped_pages(sf_dir).map_batches(run, batch_format="pyarrow")


def q_deterministic_sample(sf_dir: str):
    """hash(id)%10 holdout sampling — the reference's deterministic
    selection pattern as a Dataset op (never random_sample)."""
    from html_parser_ray.functions.textstats import deterministic_sample_batch
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return ds.map_batches(deterministic_sample_batch, batch_format="pyarrow")


# --------------------------------------------------------------------------
# driver contract

def entry() -> Any:
    """Flagship: sf0.001 documents wrapped into CC-style pages (input_hint
    shape: url, warc_ts, html:binary, lang) → DocStage task map →
    extracted text + parse metrics Dataset. Driver checks rows >= 0."""
    from html_parser_ray.stages.extract import extract_pages
    ds = _read("/root/testdata/sf0.001", "documents",
               columns=["doc_id", "text", "lang"])
    pages = ds.map_batches(_wrap_batch, batch_format="pyarrow")
    return extract_pages(pages)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # The driver value-checks the first 50 entries;
        # test_first_50_query_window_is_pinned pins that window.
        "token_counts": q_token_counts,
        "fingerprints": q_fingerprints,
        "quality_features": q_quality_features,
        "quality_scores": q_quality_scores,
        "langid": q_langid,
        "repetition_features": q_repetition_features,
        "decontam": q_decontam,
        "nfc_normalize": q_nfc_normalize,
        "shuffle_shards": q_shuffle_shards,
        "pack_spans": q_pack_spans,
        "grouped_topk": q_grouped_topk,
        "hll_registers": q_hll_registers,
        "url_blocklist": q_url_blocklist,
        "range_partition": q_range_partition,
        "split_assign": q_split_assign,
        "dedup_lines": q_dedup_lines,
        "pii_redact": q_pii_redact,
        "url_canonical": q_url_canonical,
        "host_rollup": q_host_rollup,
        "stratified_sample": q_stratified_sample,
        "dedup_spans": q_dedup_spans,
        "heavy_hitters": q_heavy_hitters,
        "inverted_index": q_inverted_index,
        "cms_registers": q_cms,
        "bloom_registers": q_bloom,
        "group_balance": q_group_balance,
        "hll_by_group": q_hll_by_group,
        "jsonl_roundtrip": q_jsonl_roundtrip,
        "shard_roundtrip": q_shard_roundtrip,
        "profile_table": q_profile_table,
        "grouped_quantiles": q_grouped_quantiles,
        "global_rank": q_global_rank,
        "host_pagerank": q_host_pagerank,
        "link_graph": q_link_graph,
        "anchor_rollup": q_anchor_rollup,
        "extract_visible_text": q_extract_visible_text,
        "extract_rollup_by_lang": q_extract_rollup_by_lang,
        "extract_full": q_extract_full,
        "main_content": q_main_content,
        "visible_tokens": q_visible_tokens,
        "outline": q_outline,
        "serialize_roundtrip": q_serialize_roundtrip,
        "chunks": q_chunks,
        "patch_edit": q_patch_edit,
        "warc_extract": q_warc_extract,
        "lm_score": q_lm_score,
        "distinct_by_lang": q_distinct_by_lang,
        "delta_dedup_bloom": q_delta_dedup_bloom,
        "quantiles": q_quantiles,
        "top_terms": q_top_terms,
        "knn_join": q_knn_join,
        "label_centroids": q_label_centroids,
        "simhash": q_simhash,
        "simhash_neardup_pairs": q_simhash_neardup_pairs,
        "minhash_neardup_pairs": q_minhash_neardup_pairs,
        "minhash_dedup": q_minhash_dedup,
        "clean_corpus": q_clean_corpus,
        "embedding_neardup_pairs": q_embedding_neardup_pairs,
        "embedding_dedup": q_embedding_dedup,
        "pdf_extract": q_pdf_extract,
        "deterministic_sample": q_deterministic_sample,
        "ann_topk": q_ann_topk,
        "ann_ivf_topk": q_ann_ivf_topk,
        "lm_filter": q_lm_filter,
        "bigram_lm": q_bigram_lm,
        "minhash_dedup_best": q_minhash_dedup_best,
        "dup_clusters": q_dup_clusters,
        "exact_dedup": q_exact_dedup,
        "delta_dedup": q_delta_dedup,
        "curate_pipeline": q_curate_pipeline,
        "c4_clean": q_c4_clean,
    }


# link-plan CTE shared by the link_graph and host_pagerank oracles:
# mirrors _wrap_links_batch's doc_id arithmetic exactly
_LINK_PLAN_SQL = (
    "nn AS (SELECT count(*) AS n FROM documents), "
    "d AS (SELECT doc_id, "
    "'http://h' || CAST(doc_id % 50 AS VARCHAR) || '.example.com/d/' || "
    "CAST(doc_id AS VARCHAR) AS src_url, "
    "'http://h' || CAST(doc_id % 50 AS VARCHAR) || '.example.com' "
    "AS origin, "
    "'h' || CAST(doc_id % 50 AS VARCHAR) || '.example.com' AS src_host, "
    "(doc_id * 31) % (SELECT n FROM nn) AS t1, "
    "(doc_id * 31 + 17) % (SELECT n FROM nn) AS t2, "
    "(doc_id * 7) % (SELECT n FROM nn) AS t3, "
    "(doc_id * 13 + 5) % (SELECT n FROM nn) AS t4 FROM documents)"
)


def _anchor_rollup_sql() -> str:
    """Planted anchors per href form: t1→'a', t2→'b', t3/t4 are
    same-host links with anchors 'c'/'d' (see _wrap_links_batch)."""
    host = "'h' || CAST({} % 50 AS VARCHAR) || '.example.com'"
    return (
        "WITH " + _LINK_PLAN_SQL + ", "
        "l AS ("
        f"SELECT {host.format('t1')} AS dst_host, 'a' AS anchor FROM d "
        f"UNION ALL SELECT {host.format('t2')}, 'b' FROM d "
        "UNION ALL SELECT src_host, 'c' FROM d "
        "UNION ALL SELECT src_host, 'd' FROM d) "
        "SELECT dst_host, anchor, CAST(count(*) AS BIGINT) AS n_links "
        "FROM l GROUP BY 1, 2"
    )


def _link_graph_sql() -> str:
    def dst(t: str) -> str:
        return ("'http://h' || CAST(" + t + " % 50 AS VARCHAR) || "
                "'.example.com/d/' || CAST(" + t + " AS VARCHAR)")
    return (
        "WITH " + _LINK_PLAN_SQL + " "
        f"SELECT src_url, {dst('t1')} AS href, {dst('t1')} AS dst_url "
        "FROM d UNION ALL "
        "SELECT src_url, '//h' || CAST(t2 % 50 AS VARCHAR) || "
        "'.example.com/d/' || CAST(t2 AS VARCHAR) AS href, "
        f"{dst('t2')} AS dst_url FROM d UNION ALL "
        "SELECT src_url, '/d/' || CAST(t3 AS VARCHAR) AS href, "
        "origin || '/d/' || CAST(t3 AS VARCHAR) AS dst_url FROM d "
        "UNION ALL "
        "SELECT src_url, CAST(t4 AS VARCHAR) AS href, "
        "origin || '/d/' || CAST(t4 AS VARCHAR) AS dst_url FROM d"
    )


def _pagerank_sql(iters: int) -> str:
    """Unrolled integer-exact PageRank over the planted host graph —
    the same update rule as functions.linkgraph.pagerank (scale 10^12,
    damping 85/100, dangling mass dropped)."""
    scale = str(10**12)
    host = "'h' || CAST({} % 50 AS VARCHAR) || '.example.com'"
    sql = (
        "WITH " + _LINK_PLAN_SQL + ", "
        "links AS ("
        f"SELECT src_host, {host.format('t1')} AS dst_host FROM d "
        f"UNION ALL SELECT src_host, {host.format('t2')} FROM d "
        "UNION ALL SELECT src_host, src_host FROM d "
        "UNION ALL SELECT src_host, src_host FROM d), "
        "edges AS (SELECT src_host, dst_host, "
        "CAST(count(*) AS BIGINT) AS w FROM links GROUP BY 1, 2), "
        "hosts AS (SELECT DISTINCT host FROM ("
        "SELECT src_host AS host FROM edges "
        "UNION ALL SELECT dst_host FROM edges)), "
        "p AS (SELECT count(*) AS hn FROM hosts), "
        "ow AS (SELECT src_host, CAST(sum(w) AS BIGINT) AS ow "
        "FROM edges GROUP BY 1), "
        f"r0 AS (SELECT host, {scale} // (SELECT hn FROM p) AS rank "
        "FROM hosts)"
    )
    base = f"((15 * ({scale} // (SELECT hn FROM p))) // 100)"
    for k in range(1, iters + 1):
        sql += (
            f", c{k} AS (SELECT e.dst_host AS host, "
            "sum((r.rank * e.w) // o.ow) AS s "
            f"FROM edges e JOIN r{k - 1} r ON r.host = e.src_host "
            "JOIN ow o ON o.src_host = e.src_host GROUP BY 1)"
            f", r{k} AS (SELECT h.host, {base} + "
            f"((85 * COALESCE(c{k}.s, 0)) // 100) AS rank "
            f"FROM hosts h LEFT JOIN c{k} ON c{k}.host = h.host)"
        )
    return (sql + f" SELECT host, CAST(rank AS BIGINT) AS rank "
            f"FROM r{iters}")


def oracle_sql() -> dict[str, str]:
    vec = _vec_literal()
    sqls = {
        "extract_visible_text": (
            f"SELECT doc_id, {_TEXT_OUT_SQL} AS text_out FROM documents"
        ),
        # CAST: DuckDB SUM yields HUGEINT (→ float64 in the compare frame);
        # the engine emits int64 — same values, different hash without it
        "extract_rollup_by_lang": (
            f"SELECT lang, COUNT(*) AS docs, "
            f"CAST(SUM(LENGTH({_TEXT_OUT_SQL})) AS BIGINT) AS text_chars "
            f"FROM documents GROUP BY lang"
        ),
        "exact_dedup": (
            "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "token_counts": (
            "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(string_split_regex(trim(text), '\\s+')) END AS n_ws_tokens "
            "FROM documents"
        ),
        "fingerprints": (
            "SELECT doc_id, md5(lower(trim(regexp_replace(text, "
            "'[ \\t\\n\\f\\r]+', ' ', 'g')))) AS fingerprint FROM documents"
        ),
        "quality_features": (
            "SELECT doc_id, LENGTH(text) AS n_chars, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(string_split_regex(trim(text), '\\s+')) END AS n_ws_tokens, "
            "LENGTH(text) - LENGTH(replace(text, chr(10), '')) + 1 AS n_lines "
            "FROM documents"
        ),
        "ann_topk": (
            f"SELECT vec_id, CAST(round(list_cosine_similarity(embedding, "
            f"{vec}) * 10000) AS BIGINT) AS cosine_bp FROM embeddings "
            f"ORDER BY cosine_bp DESC, vec_id LIMIT 10"
        ),
        "ann_ivf_topk": (
            f"SELECT vec_id, CAST(round(list_cosine_similarity(embedding, "
            f"{vec}) * 10000) AS BIGINT) AS cosine_bp FROM embeddings "
            f"ORDER BY cosine_bp DESC, vec_id LIMIT 10"
        ),
        # label_centroids: generate_subscripts is DuckDB's unnest
        # ordinality (WITH ORDINALITY unimplemented in this build)
        "label_centroids": (
            "WITH x AS (SELECT label, unnest(embedding) AS x, "
            "generate_subscripts(embedding, 1) AS d FROM embeddings) "
            "SELECT CAST(label AS BIGINT) AS label, "
            "CAST(d - 1 AS BIGINT) AS dim, "
            "CAST(sum(CAST(round(CAST(x AS DOUBLE) * 10000) AS BIGINT)) "
            "AS BIGINT) AS sum_q, "
            "CAST(count(*) AS BIGINT) AS n_vecs "
            "FROM x GROUP BY 1, 2"
        ),
        # knn_join: quantized-integer inner product (the DOUBLE cast
        # before *10000 is load-bearing — float32 product rounds .5
        # away; see ann.quantize_matrix)
        "knn_join": (
            "WITH qv AS (SELECT vec_id, list_transform(embedding, "
            "x -> CAST(round(CAST(x AS DOUBLE) * 10000) AS BIGINT)) "
            "AS q FROM embeddings), "
            "p AS (SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id, "
            "CAST(list_inner_product(a.q, b.q) AS BIGINT) AS dot_q "
            "FROM qv a JOIN qv b ON a.vec_id <> b.vec_id), "
            "r AS (SELECT vec_id, neighbor_id, dot_q, row_number() OVER "
            "(PARTITION BY vec_id ORDER BY dot_q DESC, neighbor_id) "
            "AS rn FROM p) "
            "SELECT vec_id, neighbor_id, dot_q FROM r WHERE rn <= 5"
        ),
        # the only pairs >= 0.95 in the augmented set are the exact copies
        # (max real pairwise cosine in the synthetic tables is ~0.48)
        "embedding_neardup_pairs": (
            "SELECT vec_id AS vec_a, vec_id + 1000000 AS vec_b, "
            "10000 AS cosine_bp FROM embeddings"
        ),
        # every copy (vec_id+1M) collapses onto its original
        "embedding_dedup": "SELECT vec_id FROM embeddings",
        # the synthetic corpus's planted near-dups are `text || (' dup')+`
        # clones (incl. one dup-of-dup chain), plus chance-identical docs
        # at sf0.1 — the pair set is the duplicate-relation closure
        # (equality + suffix); see q_minhash_neardup_pairs docstring
        "minhash_neardup_pairs": (
            # duplicate relation = planted suffix chains + exact text
            # equality (chance-identical short docs appear at sf0.1 and
            # are true Jaccard-1.0 pairs — r4 oracle fix)
            "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b "
            "FROM documents a JOIN documents b ON a.doc_id < b.doc_id "
            "WHERE a.text = b.text "
            "OR (LENGTH(a.text) < LENGTH(b.text) "
            " AND a.text = substr(b.text, 1, LENGTH(a.text)) "
            " AND regexp_full_match(substr(b.text, LENGTH(a.text) + 1), "
            "     '( dup)+')) "
            "OR (LENGTH(b.text) < LENGTH(a.text) "
            " AND b.text = substr(a.text, 1, LENGTH(b.text)) "
            " AND regexp_full_match(substr(a.text, LENGTH(b.text) + 1), "
            "     '( dup)+'))"
        ),
        # end-to-end dedup survivors: a doc is dropped iff some SMALLER
        # doc_id is duplicate-related (equal text or suffix chain; chain
        # members are pairwise related, so direct relation == component)
        # dup_clusters: recursive-CTE transitive closure over the same
        # duplicate-relation edge set (equal text or planted suffix
        # chain) the LSH pair stage provably emits
        # (minhash_neardup_pairs hash-matches it); component = min
        # reachable id, exactly the CC contract
        "dup_clusters": (
            _DUP_CLOSURE_CTE +
            " SELECT u AS doc_id, CAST(least(u, min(v)) AS BIGINT) "
            "AS component FROM reach GROUP BY u"
        ),
        # minhash_dedup_best: same closure; keeper = max n_chars then
        # min id per component; survivors = everyone else not in a
        # component
        "minhash_dedup_best": (
            _DUP_CLOSURE_CTE +
            ", comp AS (SELECT u AS doc_id, least(u, min(v)) AS component "
            "FROM reach GROUP BY u), "
            "ranked AS (SELECT c.doc_id, row_number() OVER ("
            "PARTITION BY c.component "
            "ORDER BY d.n_chars DESC, c.doc_id ASC) AS rn "
            "FROM comp c JOIN documents d USING (doc_id)) "
            "SELECT doc_id FROM documents WHERE doc_id NOT IN ("
            "SELECT doc_id FROM ranked WHERE rn > 1)"
        ),
        "minhash_dedup": (
            "SELECT d.doc_id FROM documents d WHERE NOT EXISTS ("
            "SELECT 1 FROM documents o WHERE o.doc_id < d.doc_id AND ("
            "o.text = d.text OR "
            "(LENGTH(o.text) < LENGTH(d.text) "
            " AND o.text = substr(d.text, 1, LENGTH(o.text)) "
            " AND regexp_full_match(substr(d.text, LENGTH(o.text) + 1), "
            "     '( dup)+')) "
            "OR (LENGTH(d.text) < LENGTH(o.text) "
            " AND d.text = substr(o.text, 1, LENGTH(d.text)) "
            " AND regexp_full_match(substr(o.text, LENGTH(d.text) + 1), "
            "     '( dup)+'))))"
        ),
        # cleaning composition: survivors = quality-passing docs with no
        # smaller quality-passing suffix-related sibling (quality
        # arithmetic identical to the quality_scores oracle)
        "clean_corpus": (
            "WITH f AS (SELECT doc_id, text, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(string_split_regex(trim(text), '\\s+')) END AS n_ws, "
            "CASE WHEN LENGTH(text) = 0 THEN 0 ELSE "
            "((LENGTH(text) - LENGTH(regexp_replace(text, '\\p{L}', '', "
            "'g'))) * 20000 + LENGTH(text)) // (2 * LENGTH(text)) END "
            "AS alpha_bp FROM documents), "
            "q AS (SELECT doc_id, text FROM f "
            "WHERE n_ws >= 20 AND alpha_bp >= 5000) "
            "SELECT d.doc_id FROM q d WHERE NOT EXISTS ("
            "SELECT 1 FROM q o WHERE o.doc_id < d.doc_id AND ("
            "o.text = d.text OR "
            "(LENGTH(o.text) < LENGTH(d.text) "
            " AND o.text = substr(d.text, 1, LENGTH(o.text)) "
            " AND regexp_full_match(substr(d.text, LENGTH(o.text) + 1), "
            "     '( dup)+')) OR "
            "(LENGTH(d.text) < LENGTH(o.text) "
            " AND d.text = substr(o.text, 1, LENGTH(d.text)) "
            " AND regexp_full_match(substr(o.text, LENGTH(d.text) + 1), "
            "     '( dup)+'))))"
        ),
        # main_content: the wrap's chrome (nav/header/footer) is always
        # dropped; h1+p survive iff the paragraph has >= 5 words (heading
        # promotion needs a good successor; short p fails smoothing with a
        # bad h1 neighbour). Block count: nav, header div, h1, footer p,
        # + the p iff non-empty.
        "main_content": (
            "WITH c AS (SELECT doc_id, " + _NORM_SQL + " AS norm "
            "FROM documents), "
            "w AS (SELECT doc_id, norm, CASE WHEN norm = '' THEN 0 "
            "ELSE len(string_split(norm, ' ')) END AS words FROM c) "
            "SELECT doc_id, "
            "CASE WHEN words >= 5 THEN 'Doc ' || CAST(doc_id AS VARCHAR) "
            "|| chr(10) || chr(10) || norm ELSE '' END AS main_text, "
            "CAST(CASE WHEN norm = '' THEN 4 ELSE 5 END AS BIGINT) "
            "AS n_blocks, "
            "CAST(CASE WHEN words >= 5 THEN 2 ELSE 0 END AS BIGINT) "
            "AS n_content_blocks FROM w"
        ),
        # extract_full: the fused stage's visible text over the chrome
        # wrap is the five blocks (nav / header / h1 / p / footer) joined
        # with blank lines, the empty-paragraph case collapsing to four;
        # main_text / block counters are identical to main_content's
        "extract_full": (
            "WITH c AS (SELECT doc_id, " + _NORM_SQL + " AS norm "
            "FROM documents), "
            "w AS (SELECT doc_id, norm, CASE WHEN norm = '' THEN 0 "
            "ELSE len(string_split(norm, ' ')) END AS words FROM c) "
            "SELECT doc_id, "
            "'Home About Contact' || chr(10) || chr(10) || "
            "'Site Header Banner' || chr(10) || chr(10) || "
            "'Doc ' || CAST(doc_id AS VARCHAR) || chr(10) || chr(10) || "
            "CASE WHEN norm = '' THEN '' ELSE norm || chr(10) || chr(10) "
            "END || 'Copyright 2024 example.com' AS text, "
            "CASE WHEN words >= 5 THEN 'Doc ' || CAST(doc_id AS VARCHAR) "
            "|| chr(10) || chr(10) || norm ELSE '' END AS main_text, "
            "CAST(CASE WHEN norm = '' THEN 4 ELSE 5 END AS BIGINT) "
            "AS n_blocks, "
            "CAST(CASE WHEN words >= 5 THEN 2 ELSE 0 END AS BIGINT) "
            "AS n_content_blocks FROM w"
        ),
        # pdf round-trip: single-line page → extraction is the identity
        "pdf_extract": "SELECT doc_id, text AS pdf_text FROM documents",
        "outline": (
            "SELECT doc_id, 'article' AS tag_name, 2 AS depth, "
            "substr('Doc ' || CAST(doc_id AS VARCHAR) || text, 1, 200) AS text "
            "FROM documents "
            "UNION ALL "
            "SELECT doc_id, 'h1' AS tag_name, 3 AS depth, "
            "'Doc ' || CAST(doc_id AS VARCHAR) AS text FROM documents"
        ),
        "serialize_roundtrip": (
            "SELECT doc_id, "
            "'<html><head><meta charset=\"utf-8\"><title>d</title></head>"
            "<body><article><h1>Doc ' || CAST(doc_id AS VARCHAR) || "
            "'</h1><p>' || "
            "replace(replace(replace(text, '&', '&amp;'), '<', '&lt;'), "
            "'>', '&gt;') || "
            "'</p></article></body></html>' AS normalized_html, "
            "'dDoc ' || CAST(doc_id AS VARCHAR) || text AS text_content "
            "FROM documents"
        ),
        "visible_tokens": (
            "SELECT doc_id, 0 AS seq, 'text' AS kind, "
            "'Doc ' || CAST(doc_id AS VARCHAR) AS value FROM documents "
            "UNION ALL "
            "SELECT doc_id, 1, 'paragraphBreak', chr(10) || chr(10) "
            f"FROM documents WHERE {_NORM_SQL} <> '' "
            "UNION ALL "
            f"SELECT doc_id, 2, 'text', {_NORM_SQL} "
            f"FROM documents WHERE {_NORM_SQL} <> ''"
        ),
        "chunks": (
            "SELECT doc_id, 0 AS chunk_index, "
            "10 + CASE WHEN text <> '' THEN 1 ELSE 0 END AS nodes, "
            "LENGTH('<html><head><meta charset=\"utf-8\"><title>d</title>"
            "</head><body><article><h1>Doc ' || CAST(doc_id AS VARCHAR) || "
            "'</h1><p>' || "
            "replace(replace(replace(text, '&', '&amp;'), '<', '&lt;'), "
            "'>', '&gt;') || "
            "'</p></article></body></html>') AS n_content_chars "
            "FROM documents"
        ),
        "quality_scores": (
            "SELECT doc_id, "
            "LENGTH(text) AS n_chars, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(string_split_regex(trim(text), '\\s+')) END AS n_ws_tokens, "
            "len(regexp_extract_all(text, "
            "'[A-Za-z]+|[0-9]+|[^\\sA-Za-z0-9]+')) AS n_bpe_tokens, "
            "LENGTH(text) - LENGTH(replace(text, chr(10), '')) + 1 "
            "AS n_lines, "
            "CASE WHEN LENGTH(text) = 0 THEN 0 ELSE "
            "((LENGTH(text) - LENGTH(regexp_replace(text, "
            "'[.,;:!?()\\[\\]{}\"''`]', '', 'g'))) * 20000 + LENGTH(text)) "
            "// (2 * LENGTH(text)) END AS punct_ratio_bp, "
            "CASE WHEN LENGTH(text) = 0 THEN 0 ELSE "
            "((LENGTH(text) - LENGTH(regexp_replace(text, '\\p{L}', '', "
            "'g'))) * 20000 + LENGTH(text)) // (2 * LENGTH(text)) END "
            "AS alpha_ratio_bp, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "(len(list_filter(string_split_regex(trim(text), '\\s+'), "
            "w -> list_contains(['the','a','of','and','to','in','is','it',"
            "'that','for'], lower(w)))) * 20000 + "
            "len(string_split_regex(trim(text), '\\s+'))) // "
            "(2 * len(string_split_regex(trim(text), '\\s+'))) END "
            "AS stopword_ratio_bp "
            "FROM documents"
        ),
        # langid: the full detect_lang heuristic (script-range counts over
        # the first 2000 chars, then first-lang-attaining-max stopword
        # hits) re-expressed in SQL — lang order en,de,fr,es with strict
        # ties-to-earlier matches the Python loop exactly
        "langid": (
            "WITH c AS (SELECT doc_id, lang AS lang_true, "
            "substr(text, 1, 2000) AS t2 FROM documents), "
            "k AS (SELECT doc_id, lang_true, t2, "
            "LENGTH(t2) - LENGTH(regexp_replace(t2, "
            "'[\\x{4E00}-\\x{9FFF}\\x{3040}-\\x{30FF}]', '', 'g')) AS cjk, "
            "LENGTH(t2) - LENGTH(regexp_replace(t2, "
            "'[\\x{0600}-\\x{06FF}]', '', 'g')) AS arabic, "
            "LENGTH(t2) - LENGTH(regexp_replace(t2, "
            "'[\\x{0400}-\\x{04FF}]', '', 'g')) AS cyr, "
            "LENGTH(t2) - LENGTH(regexp_replace(t2, '[A-z]', '', 'g')) "
            "AS latin FROM c), "
            "w AS (SELECT *, cjk + arabic + cyr + latin AS total, "
            "string_split_regex(lower(t2), '\\s+') AS words FROM k), "
            "h AS (SELECT *, "
            "len(list_filter(['the','a','of','and','to','in','is','it',"
            "'that','for'], s -> list_contains(words, s))) AS hits_en, "
            "len(list_filter(['der','die','das','und','ist','ein','nicht',"
            "'mit','den'], s -> list_contains(words, s))) AS hits_de, "
            "len(list_filter(['le','la','les','de','et','un','une','est',"
            "'pour','que'], s -> list_contains(words, s))) AS hits_fr, "
            "len(list_filter(['el','la','los','de','y','un','una','es',"
            "'para','que'], s -> list_contains(words, s))) AS hits_es "
            "FROM w) "
            "SELECT doc_id, "
            "CASE WHEN total = 0 THEN 'und' "
            "WHEN cjk * 4 > total THEN 'zh' "
            "WHEN arabic * 4 > total THEN 'ar' "
            "WHEN cyr * 4 > total THEN 'ru' "
            "WHEN hits_en >= hits_de AND hits_en >= hits_fr "
            "AND hits_en >= hits_es THEN 'en' "
            "WHEN hits_de >= hits_fr AND hits_de >= hits_es THEN 'de' "
            "WHEN hits_fr >= hits_es THEN 'fr' "
            "ELSE 'es' END AS lang_pred, lang_true FROM h"
        ),
        # repetition_features: Gopher repetition signals re-derived via
        # unnest + positional self-joins; tie-break for "top n-gram" is
        # ORDER BY cnt DESC, g ASC = Python's (max count, min string);
        # decontam: same benchmark derivation (every 97th doc's tokens
        # 3..15) and 13-token window probe, in SQL; explicit ASCII
        # whitespace class on both sides
        "decontam": (
            "WITH toks AS (SELECT doc_id, string_split_regex("
            "trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(12)), "
            "'[ \\t\\n\\r\\f]+') AS t FROM documents), "
            "bench AS (SELECT DISTINCT array_to_string("
            "list_slice(t, 3, 15), ' ') AS snippet FROM toks "
            "WHERE doc_id % 97 = 0 AND len(t) >= 15), "
            "wins AS (SELECT doc_id, array_to_string("
            "list_slice(t, g.i, g.i + 12), ' ') AS win "
            "FROM toks, LATERAL (SELECT unnest(generate_series(1, "
            "len(t) - 12)) AS i) g), "
            "hits AS (SELECT w.doc_id, count(*) AS n FROM wins w "
            "JOIN bench b ON w.win = b.snippet GROUP BY 1) "
            "SELECT d.doc_id, CAST(COALESCE(h.n, 0) AS BIGINT) AS n_hits, "
            "CAST(COALESCE(h.n, 0) > 0 AS BIGINT) AS contaminated "
            "FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id"
        ),
        # nfc_normalize: identical decomposed-mark injection via chr()
        # (769=U+0301, 776=U+0308, 778=U+030A, 4352/4449=Hangul jamo),
        # then DuckDB's own Unicode NFC; length() counts codepoints =
        # Python len()
        "nfc_normalize": (
            "WITH w AS (SELECT doc_id, CASE CAST(doc_id % 4 AS INT) "
            "WHEN 0 THEN chr(101) || chr(769) "
            "WHEN 1 THEN chr(111) || chr(776) "
            "WHEN 2 THEN chr(65) || chr(778) "
            "ELSE chr(4352) || chr(4449) END AS m, text FROM documents), "
            "s AS (SELECT doc_id, m || ' ' || text || ' ' || m AS raw "
            "FROM w) "
            "SELECT doc_id, nfc_normalize(raw) AS text_nfc, "
            "CAST(nfc_normalize(raw) <> raw AS BIGINT) AS changed, "
            "CAST(length(nfc_normalize(raw)) AS BIGINT) AS n_chars_nfc "
            "FROM s"
        ),
        # pack_spans: window exclusive prefix sum over doc_id order =
        # the Ray side's two-level distributed scan; token count rule
        # identical to token_counts
        "pack_spans": (
            "WITH t AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 "
            "ELSE len(string_split_regex(trim(text), '\\s+')) END AS n "
            "FROM documents), "
            "o AS (SELECT doc_id, n, COALESCE(SUM(n) OVER ("
            "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "1 PRECEDING), 0) AS off FROM t) "
            "SELECT doc_id, CAST(n AS BIGINT) AS n_tokens, "
            "CAST(off AS BIGINT) AS tok_start, "
            "CAST(off // 512 AS BIGINT) AS example_first, "
            "CAST((off + CASE WHEN n > 0 THEN n - 1 ELSE 0 END) // 512 "
            "AS BIGINT) AS example_last "
            "FROM o"
        ),
        # delta_dedup: same planted text, existing half = doc_id < n//2;
        # keep new rows with no existing match and no smaller new sibling
        "delta_dedup": (
            "WITH nn AS (SELECT count(*) AS n FROM documents), "
            "w AS (SELECT doc_id, CASE "
            "WHEN doc_id % 10 < 3 THEN 'x-' || "
            "CAST(doc_id % (SELECT n // 2 FROM nn) AS VARCHAR) "
            "WHEN doc_id % 10 IN (4, 5) THEN 'y-' || "
            "CAST(doc_id // 2 AS VARCHAR) "
            "ELSE 'u-' || CAST(doc_id AS VARCHAR) END AS text "
            "FROM documents) "
            "SELECT w.doc_id, w.text FROM w, nn "
            "WHERE w.doc_id >= nn.n // 2 "
            "AND NOT EXISTS (SELECT 1 FROM w e, nn "
            "WHERE e.doc_id < nn.n // 2 AND e.text = w.text) "
            "AND NOT EXISTS (SELECT 1 FROM w x, nn "
            "WHERE x.doc_id >= nn.n // 2 AND x.doc_id < w.doc_id "
            "AND x.text = w.text)"
        ),
        # c4_clean: identical seven-line plant rebuilt via list_slice +
        # chr(10); line rule = terminal punct AND >=5 space words AND no
        # 'javascript'; page rule = >=3 kept AND no lorem-ipsum/brace
        "c4_clean": (
            _C4_CTE +
            " SELECT doc_id, clean_text, "
            "CAST(n_kept AS BIGINT) AS n_lines_kept, "
            "CAST(n_total AS BIGINT) AS n_lines_total, "
            "CAST((n_kept >= 3 "
            "AND NOT contains(lower(text), 'lorem ipsum') "
            "AND NOT contains(text, '{')) AS BIGINT) AS page_kept "
            "FROM agg"
        ),
        # split_assign: md5_number_lower % 2^63 is the full masked hash;
        # bucket thresholds on (hash % 1000)
        "split_assign": (
            "SELECT doc_id, CAST(CASE "
            "WHEN (md5_number_lower(CAST(doc_id AS VARCHAR) || ':split') "
            "% 9223372036854775808) % 1000 < 900 THEN 0 "
            "WHEN (md5_number_lower(CAST(doc_id AS VARCHAR) || ':split') "
            "% 9223372036854775808) % 1000 < 950 THEN 1 "
            "ELSE 2 END AS BIGINT) AS split FROM documents"
        ),
        # range_partition: boundaries via the quantiles oracle's rank
        # rule at k/4; bucket = count of boundaries strictly below v
        "range_partition": (
            "WITH s AS (SELECT n_chars, "
            "row_number() OVER (ORDER BY n_chars) AS rn, "
            "count(*) OVER () AS n FROM documents), "
            "b AS (SELECT s.n_chars AS bd FROM s JOIN "
            "(VALUES (2500), (5000), (7500)) AS q(q_bp) "
            "ON s.rn = GREATEST(1, (q.q_bp * s.n + 9999) // 10000)) "
            "SELECT doc_id, n_chars, "
            "CAST((SELECT count(*) FROM b WHERE d.n_chars > b.bd) "
            "AS BIGINT) AS bucket FROM documents d"
        ),
        # curate_pipeline: C4 page filter -> first-keeper exact dedup on
        # the cleaned text -> md5 shard assignment (salt 'curate', 16
        # shards), all composed from the same CTEs the stages oracle
        "curate_pipeline": (
            _C4_CTE +
            ", pages AS (SELECT doc_id, clean_text FROM agg "
            "WHERE n_kept >= 3 "
            "AND NOT contains(lower(text), 'lorem ipsum') "
            "AND NOT contains(text, '{')), "
            "ded AS (SELECT doc_id FROM pages p WHERE NOT EXISTS ("
            "SELECT 1 FROM pages q WHERE q.clean_text = p.clean_text "
            "AND q.doc_id < p.doc_id)) "
            "SELECT doc_id, "
            "CAST((md5_number_lower(CAST(doc_id AS VARCHAR) || ':curate') "
            "% 9223372036854775808) % 16 AS BIGINT) AS shard, "
            "CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || ':curate') "
            "% 9223372036854775808 AS BIGINT) AS shuffle_key "
            "FROM ded"
        ),
        # url_blocklist: same planted url/host plan as url_canonical;
        # rule order pinned (sorted domains, then sorted substrings)
        "url_blocklist": (
            "WITH u AS (SELECT doc_id, "
            "'HTTP://' || CASE WHEN doc_id % 5 = 0 THEN "
            "'News.Site' || CAST(doc_id % 23 AS VARCHAR) || '.CO.UK' "
            "ELSE 'WWW.Site' || CAST(doc_id % 23 AS VARCHAR) || '.COM' "
            "END || ':80/a/' || CAST(doc_id AS VARCHAR) || '/../b/' || "
            "CAST(doc_id AS VARCHAR) || '?utm_source=x&b=2&a=1#frag' "
            "AS url, "
            "CASE WHEN doc_id % 5 = 0 THEN "
            "'news.site' || CAST(doc_id % 23 AS VARCHAR) || '.co.uk' "
            "ELSE 'www.site' || CAST(doc_id % 23 AS VARCHAR) || '.com' "
            "END AS host FROM documents), "
            "r AS (SELECT doc_id, CASE "
            "WHEN host = 'site3.co.uk' OR host LIKE '%.site3.co.uk' "
            "THEN 'domain:site3.co.uk' "
            "WHEN host = 'site5.com' OR host LIKE '%.site5.com' "
            "THEN 'domain:site5.com' "
            "WHEN contains(lower(url), '/a/7/') THEN 'substring:/a/7/' "
            "ELSE '' END AS reason FROM u) "
            "SELECT doc_id, CAST(reason <> '' AS BIGINT) AS blocked, "
            "reason FROM r"
        ),
        # dedup_lines: same planted pages; first occurrence per line
        # text in (doc_id, line_idx) order, docs reassembled
        "dedup_lines": (
            _C4_CTE +
            ", ln AS (SELECT doc_id, "
            "unnest(string_split(text, chr(10))) AS line, "
            "generate_subscripts(string_split(text, chr(10)), 1) AS li "
            "FROM w), "
            "r2 AS (SELECT doc_id, line, li, row_number() OVER ("
            "PARTITION BY line ORDER BY doc_id, li) AS rn FROM ln), "
            "agg2 AS (SELECT doc_id, "
            "COALESCE(string_agg(line, chr(10) ORDER BY li) "
            "FILTER (rn = 1), '') AS text, "
            "count(*) AS n_blocks, "
            "count(*) FILTER (rn > 1) AS n_dropped FROM r2 GROUP BY 1) "
            "SELECT doc_id, text, CAST(n_blocks AS BIGINT) AS n_blocks, "
            "CAST(n_dropped AS BIGINT) AS n_dropped FROM agg2"
        ),
        # hll_registers: same 63-bit md5 hash; p=6 -> 57 low bits;
        # rank = first-1-bit position (1-based) = 58 - bitlength(low),
        # via DuckDB length(bin()) = Python int.bit_length
        "hll_registers": (
            "WITH v AS (SELECT 'v-' || CAST(doc_id % 137 AS VARCHAR) "
            "AS val FROM documents), "
            "h AS (SELECT CAST(md5_number_lower(val) "
            "% 9223372036854775808 AS BIGINT) AS h63 FROM v), "
            "r AS (SELECT h63 // 144115188075855872 AS reg, "
            "h63 % 144115188075855872 AS low FROM h), "
            "k AS (SELECT reg, CASE WHEN low > 0 THEN "
            "57 - (length(bin(CAST(low AS BIGINT))) - 1) "
            "ELSE 58 END AS rank FROM r) "
            "SELECT CAST(reg AS BIGINT) AS reg, "
            "CAST(max(rank) AS BIGINT) AS max_rank FROM k GROUP BY reg"
        ),
        # shuffle_shards: md5_number_lower % 2^63 = the Ray side's
        # masked md5_low64(f"{id}:shard")
        "shuffle_shards": (
            "SELECT doc_id, "
            "CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || ':shard') "
            "% 9223372036854775808 AS BIGINT) AS shuffle_key, "
            "CAST((md5_number_lower(CAST(doc_id AS VARCHAR) || ':shard') "
            "% 9223372036854775808) % 64 AS BIGINT) AS shard "
            "FROM documents"
        ),
        # integer-bp arithmetic matches repetition_counts exactly
        "repetition_features": (
            "WITH c AS (SELECT doc_id, " + _NORM_SQL + " AS norm "
            "FROM documents), "
            "w AS (SELECT doc_id, norm, CASE WHEN norm = '' THEN "
            "CAST([] AS VARCHAR[]) ELSE string_split(norm, ' ') END AS ws "
            "FROM c), "
            "base AS (SELECT doc_id, norm, len(ws) AS n_words, "
            "len(list_distinct(ws)) AS n_uniq FROM w), "
            "t AS (SELECT doc_id, unnest(ws) AS wd, "
            "generate_subscripts(ws, 1) AS i FROM w), "
            "g2 AS (SELECT a.doc_id, a.wd || ' ' || b.wd AS g FROM t a "
            "JOIN t b ON b.doc_id = a.doc_id AND b.i = a.i + 1), "
            "c2 AS (SELECT doc_id, g, count(*) AS cnt FROM g2 "
            "GROUP BY 1, 2), "
            "top2 AS (SELECT doc_id, cnt, g FROM (SELECT doc_id, cnt, g, "
            "row_number() OVER (PARTITION BY doc_id ORDER BY cnt DESC, "
            "g ASC) AS rn FROM c2) WHERE rn = 1), "
            "g3 AS (SELECT a.doc_id, a.i AS s, "
            "a.wd || ' ' || b.wd || ' ' || c3w.wd AS g FROM t a "
            "JOIN t b ON b.doc_id = a.doc_id AND b.i = a.i + 1 "
            "JOIN t c3w ON c3w.doc_id = a.doc_id AND c3w.i = a.i + 2), "
            "c3 AS (SELECT doc_id, g, count(*) AS cnt FROM g3 "
            "GROUP BY 1, 2), "
            "top3 AS (SELECT doc_id, cnt, g FROM (SELECT doc_id, cnt, g, "
            "row_number() OVER (PARTITION BY doc_id ORDER BY cnt DESC, "
            "g ASC) AS rn FROM c3) WHERE rn = 1), "
            "dup3 AS (SELECT DISTINCT g3.doc_id, g3.s FROM g3 "
            "JOIN c3 ON c3.doc_id = g3.doc_id AND c3.g = g3.g "
            "WHERE c3.cnt >= 2), "
            "cov AS (SELECT DISTINCT t.doc_id, t.i FROM t JOIN dup3 d "
            "ON d.doc_id = t.doc_id AND t.i BETWEEN d.s AND d.s + 2), "
            "covc AS (SELECT t.doc_id, SUM(LENGTH(t.wd)) AS cov_chars "
            "FROM t JOIN cov ON cov.doc_id = t.doc_id AND cov.i = t.i "
            "GROUP BY 1) "
            "SELECT b.doc_id, CAST(b.n_words AS BIGINT) AS n_words, "
            "CAST(CASE WHEN b.n_words = 0 THEN 0 ELSE "
            "(b.n_words - b.n_uniq) * 10000 // b.n_words END AS BIGINT) "
            "AS dup_word_frac_bp, "
            "CAST(CASE WHEN b.n_words >= 2 THEN "
            "t2.cnt * LENGTH(t2.g) * 10000 // LENGTH(b.norm) ELSE 0 END "
            "AS BIGINT) AS top2_char_frac_bp, "
            "CAST(CASE WHEN b.n_words >= 3 THEN "
            "t3.cnt * LENGTH(t3.g) * 10000 // LENGTH(b.norm) ELSE 0 END "
            "AS BIGINT) AS top3_char_frac_bp, "
            "CAST(CASE WHEN b.n_words >= 3 AND "
            "LENGTH(b.norm) - (b.n_words - 1) > 0 THEN "
            "COALESCE(cc.cov_chars, 0) * 10000 // "
            "(LENGTH(b.norm) - (b.n_words - 1)) ELSE 0 END AS BIGINT) "
            "AS dup3_char_frac_bp "
            "FROM base b LEFT JOIN top2 t2 USING (doc_id) "
            "LEFT JOIN top3 t3 USING (doc_id) "
            "LEFT JOIN covc cc USING (doc_id)"
        ),
        # pii_redact: reconstruct the planted-PII wrap in SQL, then run
        # DuckDB's RE2 regexp_replace / regexp_extract_all with the SAME
        # patterns in the SAME order (email -> ip -> phone) — a true
        # cross-engine regex differential against Python re
        "pii_redact": (
            "WITH wrapped AS (SELECT doc_id, text || ' Contact:' || "
            "repeat(' user' || CAST(doc_id AS VARCHAR) || '@mail' || "
            "CAST(doc_id % 7 AS VARCHAR) || '.example.com', doc_id % 3) "
            "|| CASE WHEN doc_id % 2 = 0 THEN ' ip 10.' || "
            "CAST(doc_id % 200 AS VARCHAR) || '.' || "
            "CAST((doc_id // 7) % 200 AS VARCHAR) || '.' || "
            "CAST(doc_id % 250 AS VARCHAR) ELSE '' END || "
            "' tel +' || CAST(1 + doc_id % 9 AS VARCHAR) || '-' || "
            "CAST(100 + doc_id % 900 AS VARCHAR) || '-' || "
            "CAST(1000 + doc_id % 9000 AS VARCHAR) AS s FROM documents), "
            "e AS (SELECT doc_id, "
            "regexp_replace(s, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', "
            "'[EMAIL]', 'g') AS s1, "
            "len(regexp_extract_all(s, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) "
            "AS n_emails FROM wrapped), "
            "p AS (SELECT doc_id, n_emails, "
            "regexp_replace(s1, "
            "'\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b', '[IP]', 'g') AS s2, "
            "len(regexp_extract_all(s1, "
            "'\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b')) AS n_ips FROM e) "
            "SELECT doc_id, "
            "regexp_replace(s2, '\\+[0-9]{1,3}(?:-[0-9]{2,4}){2,3}', "
            "'[PHONE]', 'g') AS text, "
            "CAST(n_emails AS BIGINT) AS n_emails, "
            "CAST(n_ips AS BIGINT) AS n_ips, "
            "CAST(len(regexp_extract_all(s2, "
            "'\\+[0-9]{1,3}(?:-[0-9]{2,4}){2,3}')) AS BIGINT) AS n_phones "
            "FROM p"
        ),
        # url_canonical / host_rollup: the canonical form is derivable
        # from doc_id arithmetic (the wrap is generated), so the oracle is
        # SQL string construction vs the Ray-side actual URL parser —
        # scheme/host lowercase, :80 stripped, /a/{i}/../b/{i} resolved to
        # /a/b/{i}, utm_source dropped, query sorted, fragment dropped
        "url_canonical": (
            "WITH h AS (SELECT doc_id, CASE WHEN doc_id % 5 = 0 THEN "
            "'news.site' || CAST(doc_id % 23 AS VARCHAR) || '.co.uk' "
            "ELSE 'www.site' || CAST(doc_id % 23 AS VARCHAR) || '.com' "
            "END AS host, CASE WHEN doc_id % 5 = 0 THEN "
            "'site' || CAST(doc_id % 23 AS VARCHAR) || '.co.uk' "
            "ELSE 'site' || CAST(doc_id % 23 AS VARCHAR) || '.com' "
            "END AS registered_domain FROM documents) "
            "SELECT doc_id, 'http://' || host || '/a/b/' || "
            "CAST(doc_id AS VARCHAR) || '?a=1&b=2' AS canonical_url, "
            "host, registered_domain FROM h"
        ),
        "host_rollup": (
            "SELECT CASE WHEN doc_id % 5 = 0 THEN "
            "'site' || CAST(doc_id % 23 AS VARCHAR) || '.co.uk' "
            "ELSE 'site' || CAST(doc_id % 23 AS VARCHAR) || '.com' END "
            "AS registered_domain, "
            "CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents GROUP BY 1"
        ),
        # link_graph / host_pagerank: the planted link plan is pure
        # doc_id arithmetic (see _wrap_links_batch), so the oracle
        # reconstructs the exact link set in SQL and the value check
        # covers DOM extraction + href resolution (+ the PageRank
        # iterations for host_pagerank, unrolled in exact int arithmetic)
        "link_graph": _link_graph_sql(),
        "anchor_rollup": _anchor_rollup_sql(),
        "host_pagerank": _pagerank_sql(3),
        # lm_score: unigram surprisal in whole bits — ilog2(x) =
        # length(bin(x)) - 1, exact integers end to end (no float log)
        "lm_score": (
            _LM_CTE +
            " SELECT d.doc_id, "
            "CAST(COALESCE(s.n_tokens, 0) AS BIGINT) AS n_tokens, "
            "CAST(COALESCE(s.nll, 0) AS BIGINT) AS nll_bits, "
            "CAST(COALESCE(CASE WHEN s.n_tokens > 0 THEN "
            "(s.nll * 10000) // s.n_tokens ELSE 0 END, 0) AS BIGINT) "
            "AS mean_bits_bp "
            "FROM documents d LEFT JOIN s ON s.doc_id = d.doc_id"
        ),
        # bigram_lm: positions via list_filter + generate_subscripts;
        # conditional bits = GREATEST(0, ilog2(cnt1(prev)) -
        # ilog2(cnt2(prev,w))), ilog2 = length(bin())-1
        "bigram_lm": (
            "WITH tt AS (SELECT doc_id, list_filter(string_split_regex("
            "lower(text), '[ \\t\\n\\r\\f]+'), x -> x <> '') AS ts "
            "FROM documents), "
            "t AS (SELECT doc_id, unnest(ts) AS tok, "
            "generate_subscripts(ts, 1) AS i FROM tt), "
            "c1 AS (SELECT tok, count(*) AS cnt FROM t GROUP BY 1), "
            "nt AS (SELECT length(bin(CAST(sum(cnt) AS BIGINT))) - 1 "
            "AS logn FROM c1), "
            "g2 AS (SELECT a.doc_id, a.tok AS w1, b.tok AS w2 FROM t a "
            "JOIN t b ON b.doc_id = a.doc_id AND b.i = a.i + 1), "
            "c2 AS (SELECT w1, w2, count(*) AS cnt FROM g2 "
            "GROUP BY 1, 2), "
            "fst AS (SELECT doc_id, tok FROM t WHERE i = 1), "
            "fb AS (SELECT f.doc_id, (SELECT logn FROM nt) - "
            "(length(bin(c1.cnt)) - 1) AS bits FROM fst f "
            "JOIN c1 ON c1.tok = f.tok), "
            "bb AS (SELECT g2.doc_id, sum(GREATEST(0, "
            "(length(bin(u.cnt)) - 1) - (length(bin(c2.cnt)) - 1))) "
            "AS bits FROM g2 JOIN c1 u ON u.tok = g2.w1 "
            "JOIN c2 ON c2.w1 = g2.w1 AND c2.w2 = g2.w2 GROUP BY 1), "
            "ntok AS (SELECT doc_id, count(*) AS n FROM t GROUP BY 1) "
            "SELECT d.doc_id, "
            "CAST(COALESCE(ntok.n, 0) AS BIGINT) AS n_tokens, "
            "CAST(COALESCE(fb.bits, 0) + COALESCE(bb.bits, 0) AS BIGINT) "
            "AS nll_bits, "
            "CAST(CASE WHEN COALESCE(ntok.n, 0) > 0 THEN "
            "(COALESCE(fb.bits, 0) + COALESCE(bb.bits, 0)) * 10000 "
            "// ntok.n ELSE 0 END AS BIGINT) AS mean_bits_bp "
            "FROM documents d "
            "LEFT JOIN ntok ON ntok.doc_id = d.doc_id "
            "LEFT JOIN fb ON fb.doc_id = d.doc_id "
            "LEFT JOIN bb ON bb.doc_id = d.doc_id"
        ),
        # grouped_topk: row_number over (value desc, id asc) = the Ray
        # side's pinned tie rule
        "grouped_topk": (
            "SELECT doc_id, lang, n_chars FROM ("
            "SELECT doc_id, lang, n_chars, row_number() OVER ("
            "PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) AS rn "
            "FROM documents) WHERE rn <= 5"
        ),
        # lm_filter: same LM CTE + the quantiles oracle's rank rule
        # (max(1, ceil(q*n)) = quantile_disc) for the median threshold
        "lm_filter": (
            _LM_CTE +
            ", m AS (SELECT d.doc_id, "
            "CAST(COALESCE(CASE WHEN s.n_tokens > 0 THEN "
            "(s.nll * 10000) // s.n_tokens ELSE 0 END, 0) AS BIGINT) "
            "AS mean_bits_bp "
            "FROM documents d LEFT JOIN s ON s.doc_id = d.doc_id), "
            "r AS (SELECT mean_bits_bp, "
            "row_number() OVER (ORDER BY mean_bits_bp) AS rn, "
            "count(*) OVER () AS n FROM m), "
            "th AS (SELECT mean_bits_bp AS thr FROM r "
            "WHERE rn = GREATEST(1, (5000 * n + 9999) // 10000)) "
            "SELECT doc_id, mean_bits_bp FROM m "
            "WHERE mean_bits_bp <= (SELECT thr FROM th)"
        ),
        # stratified_sample: md5_number_lower = the Ray side's
        # _md5_low64_str (lower 8 md5 bytes, little-endian)
        "stratified_sample": (
            "SELECT doc_id, lang FROM ("
            "SELECT doc_id, lang, row_number() OVER ("
            "PARTITION BY lang ORDER BY "
            "md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id) AS rn "
            "FROM documents) WHERE rn <= 20"
        ),
        # warc round-trip: writer and reader must agree byte-for-byte
        "warc_extract": "SELECT doc_id, text FROM documents",
        # dedup_spans: block keying in SQL is by the block TEXT itself
        # (the Ray side keys by blake2b-64 of it — identical grouping
        # absent a 2^-64 collision); first occurrence by (doc_id, bidx)
        # = Ray's min packed id
        "dedup_spans": (
            "WITH c AS (SELECT doc_id, " + _NORM_SQL + " AS norm "
            "FROM documents), "
            "w AS (SELECT doc_id, CASE WHEN norm = '' THEN "
            "CAST([] AS VARCHAR[]) ELSE string_split(norm, ' ') END AS ws "
            "FROM c), "
            "t AS (SELECT doc_id, unnest(ws) AS wd, "
            "generate_subscripts(ws, 1) AS i FROM w), "
            "b AS (SELECT doc_id, (i - 1) // 20 AS bidx, "
            "string_agg(wd, ' ' ORDER BY i) AS btext FROM t "
            "GROUP BY 1, 2), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY btext "
            "ORDER BY doc_id, bidx) AS rn FROM b), "
            "agg AS (SELECT doc_id, string_agg(btext, ' ' ORDER BY bidx) "
            "FILTER (rn = 1) AS text, count(*) AS n_blocks, "
            "count(*) FILTER (rn > 1) AS n_dropped FROM r GROUP BY 1) "
            "SELECT d.doc_id, COALESCE(agg.text, '') AS text, "
            "CAST(COALESCE(agg.n_blocks, 0) AS BIGINT) AS n_blocks, "
            "CAST(COALESCE(agg.n_dropped, 0) AS BIGINT) AS n_dropped "
            "FROM documents d LEFT JOIN agg USING (doc_id)"
        ),
        # heavy_hitters: the sketch phase only prunes candidates and the
        # verify phase is an exact recount, so the result IS the exact
        # word-count top-10 (explicit ASCII token class, both sides)
        "heavy_hitters": (
            "WITH toks AS (SELECT tok FROM (SELECT "
            "unnest(regexp_split_to_array(lower(text), "
            "'[ \\t\\n\\r\\f]+')) AS tok FROM documents) "
            "WHERE tok <> '') "
            "SELECT tok AS word, CAST(count(*) AS BIGINT) AS count "
            "FROM toks GROUP BY 1 "
            "ORDER BY count DESC, word ASC LIMIT 10"
        ),
        # inverted_index: exact df + postings capped at the 16 smallest
        # doc_ids (string_agg skips the NULLed rows past the cap)
        "inverted_index": (
            "WITH tt AS (SELECT doc_id, list_filter(string_split_regex("
            "lower(text), '[ \\t\\n\\r\\f]+'), x -> x <> '') AS ts "
            "FROM documents), "
            "t AS (SELECT DISTINCT doc_id, unnest(ts) AS term FROM tt), "
            "r AS (SELECT term, doc_id, row_number() OVER ("
            "PARTITION BY term ORDER BY doc_id) AS rn FROM t) "
            "SELECT term, CAST(count(*) AS BIGINT) AS df, "
            "string_agg(CASE WHEN rn <= 16 THEN "
            "CAST(doc_id AS VARCHAR) END, ',' ORDER BY doc_id) "
            "AS postings FROM r GROUP BY 1"
        ),
        # cms_registers: cell = md5_number_lower(d:tok) % width — the
        # Ray side's _md5_low64 (lower 8 md5 bytes little-endian)
        "cms_registers": (
            "WITH tt AS (SELECT list_filter(string_split_regex("
            "lower(text), '[ \\t\\n\\r\\f]+'), x -> x <> '') AS ts "
            "FROM documents), "
            "t AS (SELECT unnest(ts) AS tok FROM tt), "
            "c AS (SELECT tok, count(*) AS cnt FROM t GROUP BY 1), "
            "dd AS (SELECT unnest([0, 1, 2, 3]) AS d), "
            "cells AS (SELECT dd.d, CAST(md5_number_lower("
            "concat(dd.d, ':', c.tok)) % 1024 AS BIGINT) AS cell, "
            "c.cnt FROM c CROSS JOIN dd) "
            "SELECT CAST(d AS BIGINT) AS d, cell, "
            "CAST(sum(cnt) AS BIGINT) AS cnt FROM cells GROUP BY 1, 2"
        ),
        # bloom_registers: 63 usable bits per int64 word (bit 63 never
        # set, registers stay positive) — shift stays in BIGINT range
        "bloom_registers": (
            "WITH ks AS (SELECT DISTINCT text FROM documents), "
            "j AS (SELECT unnest([0, 1, 2, 3]) AS j), "
            "h AS (SELECT CAST(md5_number_lower(concat(j.j, ':', "
            "ks.text)) % (256 * 63) AS BIGINT) AS h "
            "FROM ks CROSS JOIN j) "
            "SELECT CAST(h // 63 AS BIGINT) AS word_idx, "
            "bit_or(CAST(1 AS BIGINT) << CAST(h % 63 AS INTEGER)) "
            "AS bits FROM h GROUP BY 1"
        ),
        # group_balance: keep iff hashed-id permyriad <
        # max(1, mn*10000 // cnt) — the GREATEST(1, ...) clamp mirrors
        # the engine (beyond-10^4 skew keeps ~cnt/10^4 rows, never
        # drops a group); same 63-bit masked md5 as split_assign
        "group_balance": (
            "WITH c AS (SELECT lang, count(*) AS cnt FROM documents "
            "GROUP BY 1), m AS (SELECT min(cnt) AS mn FROM c) "
            "SELECT d.doc_id, d.lang FROM documents d, c, m "
            "WHERE d.lang = c.lang AND "
            "CAST((md5_number_lower(concat(d.doc_id, ':balance')) "
            "% 9223372036854775808) % 10000 AS BIGINT) "
            "< GREATEST(1, (m.mn * 10000) // c.cnt)"
        ),
        # hll_by_group: hll_registers' rank rule with a lang key
        "hll_by_group": (
            "WITH v AS (SELECT lang, 'v-' || CAST(doc_id % 137 AS "
            "VARCHAR) AS val FROM documents), "
            "h AS (SELECT lang, CAST(md5_number_lower(val) "
            "% 9223372036854775808 AS BIGINT) AS h63 FROM v), "
            "r AS (SELECT lang, h63 // 144115188075855872 AS reg, "
            "h63 % 144115188075855872 AS low FROM h), "
            "k AS (SELECT lang, reg, CASE WHEN low > 0 THEN "
            "57 - (length(bin(CAST(low AS BIGINT))) - 1) "
            "ELSE 58 END AS rank FROM r) "
            "SELECT lang, CAST(reg AS BIGINT) AS reg, "
            "CAST(max(rank) AS BIGINT) AS max_rank FROM k "
            "GROUP BY 1, 2"
        ),
        # jsonl_roundtrip: identity over the rendered shards
        "jsonl_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        # shard_roundtrip: the write->read loop must reproduce the
        # shuffle_shards hash rule over (doc_id, text)
        "shard_roundtrip": (
            "SELECT doc_id, text, "
            "CAST(md5_number_lower(concat(doc_id, ':rt')) "
            "% 9223372036854775808 AS BIGINT) AS shuffle_key, "
            "CAST((md5_number_lower(concat(doc_id, ':rt')) "
            "% 9223372036854775808) % 8 AS BIGINT) AS shard "
            "FROM documents"
        ),
        # profile_table: CAST min/max to VARCHAR (the engine renders
        # plain value strings); count(DISTINCT) skips NULLs on both sides
        "profile_table": (
            "SELECT 'doc_id' AS column, count(*) AS n_rows, "
            "count(*) - count(doc_id) AS n_nulls, "
            "CAST(min(doc_id) AS VARCHAR) AS min_v, "
            "CAST(max(doc_id) AS VARCHAR) AS max_v, "
            "CAST(count(DISTINCT doc_id) AS BIGINT) AS n_distinct "
            "FROM documents "
            "UNION ALL SELECT 'n_chars', count(*), "
            "count(*) - count(n_chars), CAST(min(n_chars) AS VARCHAR), "
            "CAST(max(n_chars) AS VARCHAR), "
            "CAST(count(DISTINCT n_chars) AS BIGINT) FROM documents "
            "UNION ALL SELECT 'lang', count(*), count(*) - count(lang), "
            "min(lang), max(lang), "
            "CAST(count(DISTINCT lang) AS BIGINT) FROM documents "
            "UNION ALL SELECT 'source', count(*), "
            "count(*) - count(source), min(source), max(source), "
            "CAST(count(DISTINCT source) AS BIGINT) FROM documents"
        ),
        # grouped_quantiles: same quantile_disc rank rule as quantiles,
        # partitioned by lang
        "grouped_quantiles": (
            "WITH s AS (SELECT lang, n_chars, row_number() OVER "
            "(PARTITION BY lang ORDER BY n_chars) AS rn, "
            "count(*) OVER (PARTITION BY lang) AS n FROM documents) "
            "SELECT s.lang, CAST(q.q_bp AS BIGINT) AS q_bp, "
            "CAST(s.n_chars AS BIGINT) AS value FROM s JOIN "
            "(VALUES (2500), (5000), (7500), (9900)) AS q(q_bp) "
            "ON s.rn = GREATEST(1, (q.q_bp * s.n + 9999) // 10000)"
        ),
        # global_rank: exact 0-based (n_chars, doc_id) order position
        "global_rank": (
            "SELECT doc_id, n_chars, CAST(row_number() OVER "
            "(ORDER BY n_chars, doc_id) - 1 AS BIGINT) AS rank "
            "FROM documents"
        ),
        "distinct_by_lang": (
            "SELECT lang, CAST(count(DISTINCT text) AS BIGINT) "
            "AS n_distinct FROM documents GROUP BY 1"
        ),
        # quantiles: rank = max(1, ceil(q_bp*n/10000)) in pure integer
        # arithmetic on both sides (no float quantile call — DuckDB's
        # quantile_disc agrees, probed at n up to 50k, but the integer
        # join removes the cross-engine float hazard entirely)
        "quantiles": (
            "WITH s AS (SELECT n_chars, "
            "row_number() OVER (ORDER BY n_chars) AS rn, "
            "count(*) OVER () AS n FROM documents) "
            "SELECT CAST(q.q_bp AS BIGINT) AS q_bp, "
            "CAST(s.n_chars AS BIGINT) AS value FROM s JOIN "
            "(VALUES (2500), (5000), (7500), (9000), (9900)) AS q(q_bp) "
            "ON s.rn = GREATEST(1, (q.q_bp * s.n + 9999) // 10000)"
        ),
        # top_terms: integer-exact tf-idf surrogate, ties to the
        # lexicographically smaller word on both sides
        "top_terms": (
            "WITH t AS (SELECT doc_id, tok FROM (SELECT doc_id, "
            "unnest(regexp_split_to_array(lower(text), "
            "'[ \\t\\n\\r\\f]+')) AS tok FROM documents) "
            "WHERE tok <> ''), "
            "tf AS (SELECT doc_id, tok, count(*) AS tf FROM t "
            "GROUP BY 1, 2), "
            "df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM t "
            "GROUP BY 1), "
            "nn AS (SELECT count(*) AS n FROM documents), "
            "sc AS (SELECT tf.doc_id, tf.tok, tf.tf, df.df, "
            "tf.tf * ((nn.n * 1000) // df.df) AS score "
            "FROM tf JOIN df USING (tok) CROSS JOIN nn), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, tok ASC) AS rn FROM sc) "
            "SELECT d.doc_id, COALESCE(r.tok, '') AS top_term, "
            "CAST(COALESCE(r.tf, 0) AS BIGINT) AS tf, "
            "CAST(COALESCE(r.df, 0) AS BIGINT) AS df, "
            "CAST(COALESCE(r.score, 0) AS BIGINT) AS score "
            "FROM documents d LEFT JOIN "
            "(SELECT * FROM r WHERE rn = 1) r USING (doc_id)"
        ),
        # simhash: fully SQL-expressible since r3 — token hashes are the
        # lower 8 md5 digest bytes (little-endian), which DuckDB computes
        # natively as md5_number_lower; result bit i is the per-bit
        # majority over tokens, masked to 63 bits (int64 column).
        # Tokenization is the EXPLICIT ASCII class [ \t\n\r\f]+ with empty
        # tokens dropped, matching simhash64 exactly (Python \s / strip()
        # are Unicode-aware, RE2 \s / trim() are not — the explicit class
        # keeps both sides identical on any corpus)
        "simhash": (
            "WITH toks AS (SELECT doc_id, tok FROM (SELECT doc_id, "
            "unnest(regexp_split_to_array(lower(text), '[ \\t\\n\\r\\f]+')) "
            "AS tok FROM documents) WHERE tok <> ''), "
            "bits AS (SELECT doc_id, i.bit, "
            "SUM(CASE WHEN ((md5_number_lower(tok) >> i.bit) & 1) = 1 "
            "THEN 1 ELSE 0 END) AS ones, COUNT(*) AS n "
            "FROM toks CROSS JOIN "
            "(SELECT unnest(generate_series(0, 62)) AS bit) i "
            "GROUP BY doc_id, i.bit), "
            "sh AS (SELECT doc_id, SUM(CASE WHEN 2 * ones > n THEN "
            "(1::BIGINT << bit) ELSE 0 END)::BIGINT AS simhash "
            "FROM bits GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(sh.simhash, 0)::BIGINT AS simhash "
            "FROM documents d LEFT JOIN sh USING (doc_id)"
        ),
        # simhash_neardup_pairs: the banded LSH result EQUALS the exact
        # all-pairs Hamming<=3 set by pigeonhole (4 disjoint 16-bit bands,
        # <=3 differing bits => >=1 band identical), so the oracle is the
        # direct quadratic self-join over the augmented corpus
        "simhash_neardup_pairs": (
            "WITH docs2 AS (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 1000000, text FROM documents), "
            "toks AS (SELECT doc_id, tok FROM (SELECT doc_id, "
            "unnest(regexp_split_to_array(lower(text), '[ \\t\\n\\r\\f]+')) "
            "AS tok FROM docs2) WHERE tok <> ''), "
            "bits AS (SELECT doc_id, i.bit, "
            "SUM(CASE WHEN ((md5_number_lower(tok) >> i.bit) & 1) = 1 "
            "THEN 1 ELSE 0 END) AS ones, COUNT(*) AS n "
            "FROM toks CROSS JOIN "
            "(SELECT unnest(generate_series(0, 62)) AS bit) i "
            "GROUP BY doc_id, i.bit), "
            "sh AS (SELECT doc_id, SUM(CASE WHEN 2 * ones > n THEN "
            "(1::BIGINT << bit) ELSE 0 END)::BIGINT AS simhash "
            "FROM bits GROUP BY doc_id), "
            "all_sh AS (SELECT d.doc_id, COALESCE(sh.simhash, 0)::BIGINT "
            "AS simhash FROM docs2 d LEFT JOIN sh USING (doc_id)) "
            "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming "
            "FROM all_sh a JOIN all_sh b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.simhash, b.simhash)) <= 3"
        ),
        "patch_edit": (
            "SELECT doc_id, "
            "'<html><head><meta charset=''utf-8''><title>d</title></head>"
            "<body><article><h1>EDITED</h1><p>' || "
            "replace(replace(replace(text, '&', '&amp;'), '<', '&lt;'), "
            "'>', '&gt;') || "
            "'</p></article></body></html>' AS result, "
            "'ok' AS status FROM documents"
        ),
        "deterministic_sample": (
            "SELECT doc_id, lang FROM documents WHERE "
            "CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) "
            "AS BIGINT) % 10 = 0"
        ),
        # no rows-only entries remain: since r3 the simhash queries use an
        # md5-based token hash (md5_number_lower in DuckDB), so every
        # query has a value-checked SQL oracle
    }
    # the Bloom-prefiltered delta path is output-identical to the plain
    # delta path by construction — one oracle, two engine strategies
    sqls["delta_dedup_bloom"] = sqls["delta_dedup"]
    return sqls
