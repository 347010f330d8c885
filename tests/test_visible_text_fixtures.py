"""Byte-identical parity vs the reference's visible-text fixture corpus.

The reference ships 112 golden cases (input.html → expected.txt +
expected.tokens.json) plus 12 noscript-fallback cases with default/fallback
variants (reference: test/control/visible-text.test.js:38-95). Per the north
rule, extracted text must be byte-identical per url. Trailing newline of the
expected file is stripped, and each case is run twice for determinism
(mirror of visible-text.test.js harness).
"""

import json
import os

import pytest

from html_parser_ray.htmlcore.api import parse
from html_parser_ray.htmlcore.extract import (
    VisibleTextOptions, visible_text, visible_text_tokens,
)

FIXTURES = "/root/reference/test/fixtures/visible-text/v1"
FALLBACK = "/root/reference/test/fixtures/visible-text-fallback/v1"

if not (os.path.isdir(FIXTURES) and os.path.isdir(FALLBACK)):
    pytest.skip("the reference's visible-text fixture corpus is not present "
                "(it ships with the reference checkout, not with this repo)",
                allow_module_level=True)


def _cases(root):
    return sorted(d for d in os.listdir(root) if d.startswith("case-"))


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _expected_text(path):
    raw = _read(path)
    return raw[:-1] if raw.endswith("\n") else raw


@pytest.mark.parametrize("case", _cases(FIXTURES))
def test_visible_text_byte_identical(case):
    root = os.path.join(FIXTURES, case)
    html = _read(os.path.join(root, "input.html"))
    expected = _expected_text(os.path.join(root, "expected.txt"))
    tree = parse(html)
    got1 = visible_text(tree)
    got2 = visible_text(parse(html))
    assert got1 == expected, f"{case}: text mismatch"
    assert got2 == got1, f"{case}: nondeterministic"


@pytest.mark.parametrize("case", _cases(FIXTURES))
def test_visible_text_tokens_match(case):
    root = os.path.join(FIXTURES, case)
    html = _read(os.path.join(root, "input.html"))
    expected = json.loads(_read(os.path.join(root, "expected.tokens.json")))
    got = visible_text_tokens(parse(html))
    assert got == expected, f"{case}: token stream mismatch"


@pytest.mark.parametrize("case", _cases(FALLBACK))
def test_fallback_default_and_fallback_variants(case):
    root = os.path.join(FALLBACK, case)
    html = _read(os.path.join(root, "input.html"))
    exp_default = _expected_text(os.path.join(root, "expected.default.txt"))
    exp_fallback = _expected_text(os.path.join(root, "expected.fallback.txt"))
    exp_tokens = json.loads(
        _read(os.path.join(root, "expected.fallback.tokens.json")))

    got_default = visible_text(parse(html))
    assert got_default == exp_default, f"{case}: default-variant mismatch"

    opts = VisibleTextOptions(include_accessible_name_fallback=True)
    tree = parse(html)
    got_fb = visible_text(tree, opts)
    assert got_fb == exp_fallback, f"{case}: fallback-variant mismatch"
    got_fb_tokens = visible_text_tokens(parse(html), opts)
    assert got_fb_tokens == exp_tokens, f"{case}: fallback tokens mismatch"


def test_corpus_minimum_sizes():
    # reference asserts corpus floor sizes (visible-text.test.js:33-36,65)
    assert len(_cases(FIXTURES)) >= 112
    assert len(_cases(FALLBACK)) >= 12


def test_fixture_corpus_through_ray_pipeline(ray_session):
    """North-rule invariant end-to-end: the reference's fixture corpus as a
    CC-style pages table → DocStage task map → byte-identical text
    per url."""
    import datetime
    import pyarrow as pa
    import ray
    from html_parser_ray.stages.extract import extract_pages

    urls, htmls, expected = [], [], {}
    for case in _cases(FIXTURES):
        root = os.path.join(FIXTURES, case)
        url = f"fixture://{case}"
        urls.append(url)
        # fixture files carry no <meta charset>; a UTF-8 BOM plays the role
        # of the transport-level encoding signal a crawl would have (the
        # reference harness parses already-decoded strings)
        htmls.append(b"\xef\xbb\xbf"
                     + _read(os.path.join(root, "input.html")).encode("utf-8"))
        expected[url] = _expected_text(os.path.join(root, "expected.txt"))
    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([datetime.datetime(2024, 1, 1)] * len(urls),
                            pa.timestamp("us")),
        # no meta charset in fixture files: label transport utf-8 via BOM-free
        # content — wrap bytes so the sniffer defaults correctly
        "html": pa.array(htmls, pa.binary()),
        "lang": pa.array(["en"] * len(urls), pa.string()),
    })
    ds = extract_pages(ray.data.from_arrow(pages),
                       batch_size=16)
    rows = ds.take_all()
    assert len(rows) == len(urls)
    mismatches = [r["url"] for r in rows
                  if r["status"] == "ok" and r["text"] != expected[r["url"]]]
    # fixture inputs are ASCII/UTF-8; windows-1252 default decode is
    # byte-transparent for ASCII — any non-ASCII fixture would need a
    # transport label, so assert everything matched
    assert mismatches == [], mismatches[:5]
    assert all(r["status"] == "ok" for r in rows)
