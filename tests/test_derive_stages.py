"""Derived-output stage tests: outline/chunk/serialize/tokens/patch
projections over page batches, matching the single-doc kernel per
url."""

import functools
import gc
import json

import pyarrow as pa
import pytest

from html_parser_ray.htmlcore.api import parse_bytes
from html_parser_ray.htmlcore.dom import Element
from html_parser_ray.htmlcore.extract import (
    outline, serialize, text_content, visible_text_tokens_with_provenance,
)
from html_parser_ray.sources.synth import make_table
from html_parser_ray.stages.extract import (
    CHUNKS, HTML, HTML_TEXT, OUTLINE, PATCH, SERIALIZED, TOKENS, VISIBLE_TEXT,
    DocStage,
)


def _pages(n=40, seed=11):
    return make_table(n, seed=seed)


def test_outline_stage_matches_kernel():
    pages = _pages()
    out = DocStage(OUTLINE)(pages)
    per_url: dict[str, list] = {}
    for url, tag in zip(out.column("url").to_pylist(),
                        out.column("tag_name").to_pylist()):
        per_url.setdefault(url, []).append(tag)
    for url, html in zip(pages.column("url").to_pylist(),
                         pages.column("html").to_pylist()):
        expected = [e["tagName"] for e in outline(parse_bytes(html))]
        assert per_url.get(url, []) == expected, url


def test_serialize_stage_matches_kernel():
    pages = _pages()
    out = DocStage(SERIALIZED)(pages)
    for url, html, ser, txt in zip(pages.column("url").to_pylist(),
                                   pages.column("html").to_pylist(),
                                   out.column("normalized_html").to_pylist(),
                                   out.column("text_content").to_pylist()):
        tree = parse_bytes(html)
        assert ser == serialize(tree), url
        assert txt == text_content(tree), url


def test_serialize_roundtrip_stable():
    """parse → serialize → parse normalizes stably (mirror of the
    reference's roundtrip.test.js:12-21, which compares normalized TREES —
    the doctype-with-public-id serialization form is not reparseable by
    design, in the reference too, so string-level comparison excludes it)."""
    from html_parser_ray.htmlcore.api import parse
    from html_parser_ray.htmlcore.normalize import normalize_tree
    pages = _pages()
    out = DocStage(SERIALIZED)(pages)
    for html, ser in zip(pages.column("html").to_pylist(),
                         out.column("normalized_html").to_pylist()):
        tree1 = parse_bytes(html)
        tree2 = parse(ser)
        n1 = "\n".join(l for l in normalize_tree(tree1).splitlines()
                       if not l.startswith("| <!DOCTYPE"))
        n2 = "\n".join(l for l in normalize_tree(tree2).splitlines()
                       if not l.startswith("| <!DOCTYPE"))
        assert n1 == n2
        # simple-doctype documents are string-stable too
        if '"' not in ser.split(">", 1)[0]:
            assert serialize(tree2) == ser


def test_chunk_stage_bounded():
    pages = _pages()
    out = DocStage(CHUNKS._replace(
        rows=functools.partial(CHUNKS.rows, max_chars=2000)))(pages)
    assert out.num_rows >= pages.num_rows  # at least one chunk per page
    assert all(n >= 1 for n in out.column("nodes").to_pylist())


def test_tokens_stage_matches_kernel():
    pages = _pages()
    out = DocStage(TOKENS)(pages)
    per_url: dict[str, list] = {}
    for url, kind, value in zip(out.column("url").to_pylist(),
                                out.column("kind").to_pylist(),
                                out.column("value").to_pylist()):
        per_url.setdefault(url, []).append((kind, value))
    for url, html in zip(pages.column("url").to_pylist(),
                         pages.column("html").to_pylist()):
        expected = [(t["kind"], t["value"])
                    for t in visible_text_tokens_with_provenance(
                        parse_bytes(html))]
        assert per_url.get(url, []) == expected, url


@pytest.mark.parametrize("projection", [OUTLINE, CHUNKS, SERIALIZED,
                                        TOKENS])
def test_derived_tables_count_failed_pages(projection):
    """A page over the depth budget gives exactly one quarantine row in
    every derived table, never zero rows."""
    pages = _pages(4)
    deep = pa.table({
        "url": pa.array(["http://deep.example/"], pa.string()),
        "html": pa.array([b"<body>" + b"<div>" * 5000 + b"x"], pa.binary()),
    })
    batch = pa.concat_tables([pages.select(["url", "html"]), deep])
    out = DocStage(projection)(batch)
    failed = [r for r in out.to_pylist() if r["url"] == "http://deep.example/"]
    assert len(failed) == 1
    assert failed[0]["status"] == "budget_exceeded"
    assert failed[0]["error"].startswith("BudgetExceededError: ")
    assert {failed[0][f.name] for f in projection.fields} <= {"", 0}
    ok = [r for r in out.to_pylist() if r["url"] != "http://deep.example/"]
    assert {r["status"] for r in ok} == {"ok"}
    assert {r["error"] for r in ok} == {""}
    assert out.column_names == ["url", *projection.fields.names,
                                "status", "error"]

    # an exception the contract does not name, NotImplementedError among
    # them, is "error"
    def unimplemented(cell):
        raise NotImplementedError("no decoder for this format")

    out = DocStage(projection, decoder=HTML._replace(decode=unimplemented))(
        deep).to_pylist()
    assert [(r["status"], r["error"]) for r in out] == [
        ("error", "NotImplementedError: no decoder for this format")]


def test_patch_stage_applies_and_quarantines():
    html = '<div><p class="x">one</p></div>'
    from html_parser_ray.htmlcore.api import parse
    from html_parser_ray.htmlcore.dom import Text
    from html_parser_ray.htmlcore.extract import walk
    tree = parse(html, capture_spans=True)
    text_id = next(tree.ids[id(n)] for n, _d in walk(tree)
                   if isinstance(n, Text))
    good = json.dumps([{"kind": "replaceText", "target": text_id,
                        "value": "uno"}])
    bad = json.dumps([{"kind": "removeNode", "target": 424242}])
    # the html column may be string or binary; the binary batch has a
    # third page that is not utf-8, whose decode fails, not the batch
    for html_type, htmls in [
            (pa.string(), [html, html]),
            (pa.binary(), [html.encode(), html.encode(),
                           b"<p>caf\xe9</p>"])]:
        n = len(htmls)
        batch = pa.table({
            "url": pa.array(["a", "b", "c"][:n], pa.string()),
            "html": pa.array(htmls, html_type),
            "edits": pa.array([good, bad, good][:n], pa.string()),
        })
        out = DocStage(PATCH, decoder=HTML_TEXT)(batch)
        assert out.column("result").to_pylist() == \
            ['<div><p class="x">uno</p></div>', "", ""][:n]
        assert out.column("status").to_pylist() == \
            ["ok", "plan_error", "error"][:n]
        error = out.column("error").to_pylist()
        assert error[:2] == ["", "PatchPlanningError: NODE_NOT_FOUND"]
        if n == 3:
            assert error[2].startswith("UnicodeDecodeError: ")


# ---------------------------------------------------------------------------
# DocStage's collector contract: the batch runs with the cyclic collector
# paused and ends with one young-generation pass that frees its trees

def test_doc_stage_restores_the_callers_collector_state():
    was_enabled = gc.isenabled()
    seen: list[int] = []

    def hook(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    batch = make_table(2, seed=5, size_scale=32)
    gc.callbacks.append(hook)
    try:
        gc.enable()
        DocStage(VISIBLE_TEXT)(batch)
        assert gc.isenabled()
        gc.disable()
        seen.clear()
        DocStage(VISIBLE_TEXT)(batch)
        assert not gc.isenabled()
        assert seen == []  # a caller that paused the collector gets no pass
    finally:
        gc.callbacks.remove(hook)
        if was_enabled:
            gc.enable()


def test_doc_stage_batch_ends_in_one_young_collection():
    was_enabled = gc.isenabled()
    batch = make_table(16, seed=5, size_scale=32)
    decoded = [0]

    def counting_decode(cell):
        decoded[0] += 1
        return HTML.decode(cell)

    stage = DocStage(VISIBLE_TEXT, decoder=HTML._replace(
        decode=counting_decode))
    seen: list[tuple[int, int]] = []

    def hook(phase, info):
        if phase == "start":
            seen.append((info["generation"], decoded[0]))

    gc.enable()
    gc.collect()
    kept = [o for o in gc.get_objects() if isinstance(o, Element)]
    before = {id(o) for o in kept}  # held, so no id is reused
    gc.callbacks.append(hook)
    try:
        out = stage(batch)
    finally:
        gc.callbacks.remove(hook)
        if not was_enabled:
            gc.disable()
    assert out.column("status").to_pylist() == ["ok"] * len(batch)
    assert seen == [(0, len(batch))]
    assert not [o for o in gc.get_objects()
                if isinstance(o, Element) and id(o) not in before]
