"""Boilerplate classification kernel + main-content stage tests.

Rules under test (htmlcore/boilerplate.py — jusText/boilerpipe-family
heuristics, no reference counterpart): block segmentation to the nearest
block ancestor, link-density threshold, chrome tag-path context, heading
promotion, short-block smoothing, invisible-subtree skip. The
main-content golden pins the kernel's output on synthetic pages and on long
runs of headings and short blocks; the linear-time test bounds its cost on
those runs by the cost of the parse.
"""

import gc
import hashlib
import json
import pathlib
import time

import pyarrow as pa
import pytest

from html_parser_ray.htmlcore.api import parse, parse_bytes
from html_parser_ray.htmlcore.boilerplate import (classify_blocks,
                                                  main_content_and_counts,
                                                  segment_blocks)
from html_parser_ray.sources.synth import make_table
from html_parser_ray.stages.extract import DEFAULT_BUDGETS

# sha256 per case of the (main_text, n_blocks, n_content_blocks) rows
_GOLDENS = (pathlib.Path(__file__).parent / "fixtures"
            / "main_content_goldens.json")
_LONG = "<p>a long paragraph with plenty of words to be content</p>"
# long runs of headings and short blocks, 16,000 blocks each
_SHAPES = {
    "short_paragraphs": _LONG + "<p>Tiny.</p>" * 16_000 + _LONG,
    "headings": "<h2>Tiny.</h2>" * 16_000 + _LONG,
    # heading runs promoted by the paragraph after them, short runs
    # smoothed between two paragraphs
    "mixed_runs": (_LONG + "<h3>Head.</h3>" * 800 + _LONG
                   + "<p>Tiny.</p>" * 1_200) * 8 + _LONG,
}
_SYNTH = [(seed, scale) for seed in (7, 11, 301, 721, 9001)
         for scale in (1, 32)]


def _case_htmls(case: str) -> list[bytes]:
    """The pages of a golden case: ``synth-<seed>-x<scale>`` or
    ``shape-<name>``."""
    kind, _, arg = case.partition("-")
    if kind == "shape":
        return [_SHAPES[arg].encode()]
    seed, _, scale = arg.partition("-x")
    n_rows = 60 if scale == "1" else 24
    return make_table(n_rows, int(seed),
                      size_scale=int(scale)).column("html").to_pylist()


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(list(row), ensure_ascii=False).encode() + b"\n")
    return h.hexdigest()


def _row(html: bytes):
    return main_content_and_counts(parse_bytes(html, budgets=DEFAULT_BUDGETS))


def _blocks(html):
    return classify_blocks(segment_blocks(parse(html)))


def test_segment_nearest_block_ancestor():
    html = "<div>outer <p>inner words</p> tail</div>"
    blocks = segment_blocks(parse(html))
    by_tag = {b.tag: b.text for b in blocks}
    assert by_tag["p"] == "inner words"
    assert by_tag["div"] == "outer tail"


def test_stray_body_text_gets_body_block():
    blocks = segment_blocks(parse("just some words"))
    assert [b.tag for b in blocks] == ["body"]
    assert blocks[0].text == "just some words"


def test_link_density_drops_menus():
    html = ("<div><a href=1>alpha</a> <a href=2>beta</a></div>"
            "<p>six plain words of real content</p>")
    blocks = _blocks(html)
    got = {b.tag: b.is_content for b in blocks}
    assert got == {"div": False, "p": True}


def test_chrome_context_drops_regardless_of_length():
    html = ("<nav><p>this navigation paragraph has plenty of words in it"
            "</p></nav><p>body paragraph with enough words here too</p>")
    blocks = _blocks(html)
    nav_p = [b for b in blocks if "nav" in b.path][0]
    body_p = [b for b in blocks if "nav" not in b.path and b.tag == "p"][0]
    assert not nav_p.is_content
    assert body_p.is_content


def test_heading_promotion_follows_next_block():
    good = ("<h2>Title</h2><p>a paragraph long enough to be content "
            "for sure</p>")
    bad = "<h2>Title</h2><div><a href=1>one</a> <a href=2>two</a></div>"
    assert [b.is_content for b in _blocks(good)] == [True, True]
    assert [b.is_content for b in _blocks(bad)] == [False, False]


def test_heading_chain_resolves_through_headings():
    html = ("<h1>Top</h1><h2>Sub</h2><p>the real paragraph with plenty "
            "of words follows the headings</p>")
    assert [b.is_content for b in _blocks(html)] == [True, True, True]


def test_short_block_smoothing_between_good_neighbours():
    html = ("<p>first long paragraph with definitely enough words</p>"
            "<p>Tiny.</p>"
            "<p>second long paragraph also with plenty of words here</p>")
    assert [b.is_content for b in _blocks(html)] == [True, True, True]


def test_short_block_not_promoted_at_edges():
    html = "<p>Tiny.</p><p>long paragraph with plenty of words right here</p>"
    assert [b.is_content for b in _blocks(html)] == [False, True]


def test_invisible_subtrees_skipped():
    html = ("<p>visible paragraph with enough words to be content</p>"
            "<div hidden>hidden words</div><script>var x=1;</script>"
            "<style>.a{}</style>")
    blocks = _blocks(html)
    assert [b.tag for b in blocks] == ["p"]


def test_main_content_end_to_end():
    html = ("<nav><a href=/>Home</a> <a href=/x>More</a></nav>"
            "<article><h1>Story</h1><p>the story body has plenty of words "
            "to qualify as content</p></article>"
            "<footer><p>copyright words</p></footer>")
    out = main_content_and_counts(parse(html))[0]
    assert out == ("Story\n\nthe story body has plenty of words to "
                   "qualify as content")


def test_main_content_stage_quarantines_and_counts(ray_session):
    import ray
    from html_parser_ray.stages.extract import main_content_pages
    htmls = [
        b"<p>good page with plenty of words for the classifier</p>",
        b"<nav><a href=/>only nav links</a></nav>",
    ]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array(["u1", "u2"], pa.string()),
        "html": pa.array(htmls, pa.binary()),
    }))
    rows = {r["url"]: r for r in main_content_pages(ds,
                                                    batch_size=2).take_all()}
    assert rows["u1"]["status"] == "ok"
    assert rows["u1"]["n_content_blocks"] == 1
    assert rows["u1"]["main_text"].startswith("good page")
    assert rows["u2"]["main_text"] == ""
    assert rows["u2"]["n_content_blocks"] == 0


@pytest.mark.parametrize("case", [f"synth-{seed}-x{scale}"
                                  for seed, scale in _SYNTH]
                         + [f"shape-{name}" for name in _SHAPES])
def test_main_content_golden(case):
    golden = json.loads(_GOLDENS.read_text())
    assert _digest(_row(html) for html in _case_htmls(case)) == golden[case]


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_classify_is_linear_in_blocks(shape):
    """Segmenting and classifying a page of 16,000 short blocks costs no
    more than parsing it; a classifier that rescans each run of headings
    or short blocks per block takes 2-35x the parse on these pages. Their
    output is pinned by the ``shape-*`` cases of the golden above. Both
    steps run with the cyclic collector paused, as DocStage runs them, so
    a full collection of the parse's garbage is timed in neither."""
    html = _SHAPES[shape].encode()
    parse_s = classify_s = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):  # best of three: a shared host is noisy
            t0 = time.perf_counter()
            tree = parse_bytes(html, budgets=DEFAULT_BUDGETS)
            t1 = time.perf_counter()
            classify_blocks(segment_blocks(tree))
            t2 = time.perf_counter()
            parse_s = min(parse_s, t1 - t0)
            classify_s = min(classify_s, t2 - t1)
    finally:
        if enabled:
            gc.enable()
    assert classify_s <= parse_s
