"""Unit tests for the htmlcore kernel: tokenizer, tree builder, encoding
sniff, budgets, fragments, traversal/serialize/outline/chunk, determinism.

Behavior mirrors the reference suites (test/control/*.test.js); goldens are
authored html5lib-style since the html5lib submodule is empty in this
sandbox (SURVEY.md §5.2).
"""

import pytest

from html_parser_ray.htmlcore.api import (
    Budgets, BudgetExceededError, parse, parse_bytes, parse_fragment,
)
from html_parser_ray.htmlcore.extract import (
    VisibleTextOptions, chunk, find_all_by_attr, find_all_by_tag_name,
    find_by_id, outline, serialize, text_content, visible_text,
    visible_text_tokens, visible_text_tokens_with_provenance, walk,
    walk_elements,
)
from html_parser_ray.htmlcore.normalize import normalize_tree
from html_parser_ray.htmlcore.sniff import sniff_html_encoding


# ---------------------------------------------------------------------------
# encoding sniff (reference: src/internal/encoding/sniff.ts:271-292)

def test_sniff_bom_wins():
    res = sniff_html_encoding(b"\xef\xbb\xbf<html>", "windows-1252")
    assert res.encoding == "utf-8" and res.source == "bom"


def test_sniff_utf16_boms():
    assert sniff_html_encoding(b"\xff\xfe<", None).encoding == "utf-16le"
    assert sniff_html_encoding(b"\xfe\xff<", None).encoding == "utf-16be"


def test_sniff_transport_over_meta():
    data = b"<meta charset='utf-8'>"
    res = sniff_html_encoding(data, "ISO-8859-1")
    # latin1 alias canonicalizes to windows-1252 (sniff.ts:12-18)
    assert res.encoding == "windows-1252" and res.source == "transport"


def test_sniff_meta_prescan():
    res = sniff_html_encoding(b"<html><meta charset=utf-8>", None)
    assert res.encoding == "utf-8" and res.source == "meta"


def test_sniff_meta_in_comment_ignored():
    res = sniff_html_encoding(b"<!-- <meta charset=utf-8> -->", None)
    assert res.encoding == "windows-1252" and res.source == "default"


def test_sniff_meta_utf16_maps_to_utf8():
    # meta-declared utf-16 is treated as utf-8 (sniff.ts:48-77)
    res = sniff_html_encoding(b"<meta charset=utf-16>", None)
    assert res.encoding == "utf-8"


def test_parse_bytes_windows1252_default():
    tree = parse_bytes(b"<p>caf\xe9</p>")
    assert visible_text(tree) == "café"


# ---------------------------------------------------------------------------
# tokenizer behaviors (entities, rawtext, script-escape, cdata)

def test_named_entities_legacy_no_semicolon():
    assert visible_text(parse("<p>&amp x &ampy &notin; &notit;</p>")) == \
        "& x &y ∉ ¬it;"


def test_numeric_charref_windows1252_override():
    # &#x80; maps to U+20AC via windows-1252 override table
    assert visible_text(parse("<p>&#x80;&#151;</p>")) == "€—"


def test_rawtext_and_rcdata():
    tree = parse("<textarea><b>not bold</b></textarea>")
    ta = next(find_all_by_tag_name(tree, "textarea"))
    assert text_content(ta) == "<b>not bold</b>"
    tree2 = parse("<script>if (a < b) {}</script>")
    sc = next(find_all_by_tag_name(tree2, "script"))
    assert text_content(sc) == "if (a < b) {}"


def test_cdata_in_foreign_content():
    tree = parse("<svg><![CDATA[x < y]]></svg>")
    svg = next(find_all_by_tag_name(tree, "svg"))
    assert text_content(svg) == "x < y"


def test_plaintext_swallows_rest():
    tree = parse("<plaintext><b>raw</b>")
    pt = next(find_all_by_tag_name(tree, "plaintext"))
    assert text_content(pt) == "<b>raw</b>"


# ---------------------------------------------------------------------------
# tree construction: the classic hard parts, asserted via the html5lib
# "| "-normalized format (reference: src/internal/tree/normalize.ts:11-52)

def test_adoption_agency_b_p():
    got = normalize_tree(parse("<b>1<p>2</b>3</p>"))
    assert got == "\n".join([
        "| <html>",
        "|   <head>",
        "|   <body>",
        '|     <b>',
        '|       "1"',
        "|     <p>",
        "|       <b>",
        '|         "2"',
        '|       "3"',
    ])


def test_foster_parenting_text_out_of_table():
    got = normalize_tree(parse("<table>foo<tr><td>bar</td></tr></table>"))
    assert '"foo"' in got
    # fostered text precedes the table element
    assert got.index('"foo"') < got.index("<table>")


def test_noahs_ark_clause_caps_formatting_clones():
    # 4th identical <font> must not clone a 4th time (cap 3)
    html = "<font>a<font>b<font>c<font>d<p>x"
    tree = parse(html)
    p = next(find_all_by_tag_name(tree, "p"))
    depth = 0
    node = p
    while node.children and getattr(node.children[0], "name", "") == "font":
        depth += 1
        node = node.children[0]
    assert depth <= 3


def test_quirks_mode_determination():
    assert parse("<html><body>x").quirks_mode == "quirks"
    assert parse("<!DOCTYPE html><body>x").quirks_mode == "no-quirks"
    assert parse(
        '<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN" '
        '"http://www.w3.org/TR/html4/loose.dtd"><body>x'
    ).quirks_mode == "limited-quirks"


def test_foreign_content_integration_points():
    got = normalize_tree(parse("<svg><foreignObject><p>hi</p></foreignObject></svg>"))
    assert "<svg svg>" in got and "<svg foreignObject>" in got and "<p>" in got


def test_template_contents():
    tree = parse("<template><div>t</div></template>")
    assert visible_text(tree) == ""  # template content is not visible
    tpl = list(find_all_by_tag_name(tree, "template"))
    assert len(tpl) == 1


def test_select_option_compatibility_patch():
    # reference post-parse patch wraps lone select/option in <b>
    # (src/internal/tree/build.ts:307-381)
    got = normalize_tree(parse("<select><option>one</option></select>"))
    assert "<select>" in got and "<option>" in got


# ---------------------------------------------------------------------------
# fragments

def test_fragment_parsing_td_context():
    frag = parse_fragment("<td>cell</td>", "tr")
    got = normalize_tree(frag)
    assert "<td>" in got and '"cell"' in got


def test_fragment_rawtext_context():
    frag = parse_fragment("<b>x</b>", "script")
    # script context tokenizes as raw text: single text node, no <b> element
    assert normalize_tree(frag) == '| "<b>x</b>"' 


# ---------------------------------------------------------------------------
# budgets (recorded or raised, never crashed)

def test_budget_max_input_bytes_raises_structured():
    with pytest.raises(BudgetExceededError) as exc_info:
        parse_bytes(b"<p>" + b"x" * 100, budgets=Budgets(max_input_bytes=10))
    assert exc_info.value.payload["budget"] == "maxInputBytes"


def test_budget_max_nodes_raises():
    # reference throws at the public layer once metrics exceed the budget
    # (mod.ts:543-546)
    html = "<p>" + "<span>x</span>" * 50
    with pytest.raises(BudgetExceededError) as exc_info:
        parse(html, budgets=Budgets(max_nodes=10))
    assert exc_info.value.payload["budget"] == "maxNodes"


def _parse_in_div(html, **kw):
    return parse_fragment(html, "div", **kw)


def test_budget_max_nodes_boundary():
    # a tree of exactly max_nodes nodes (the root node included) parses;
    # one node more raises with the tree's node count as actual — for a
    # document and for a fragment
    def page(k):
        return "<span></span>" * k

    for parse_fn in (parse, _parse_in_div):
        limit = parse_fn(page(20)).n_nodes
        assert parse_fn(page(20),
                        budgets=Budgets(max_nodes=limit)).n_nodes == limit
        with pytest.raises(BudgetExceededError) as exc_info:
            parse_fn(page(21), budgets=Budgets(max_nodes=limit))
        assert exc_info.value.payload == {"code": "BUDGET_EXCEEDED",
                                          "budget": "maxNodes",
                                          "limit": limit,
                                          "actual": limit + 1}


def test_budget_max_depth_raises():
    html = "<div>" * 100 + "deep"
    for parse_fn in (parse, _parse_in_div):
        with pytest.raises(BudgetExceededError) as exc_info:
            parse_fn(html, budgets=Budgets(max_depth=10))
        assert exc_info.value.payload["budget"] == "maxDepth"


def test_budget_max_time_ms_enforced():
    # a 0 ms budget always trips (reference enforces maxTimeMs after
    # parse/parseBytes/fragment/stream — mod.ts:545/722/820)
    big = "<p>x</p>" * 20_000  # big enough that elapsed >= 1 ms everywhere
    with pytest.raises(BudgetExceededError) as exc_info:
        parse(big, budgets=Budgets(max_time_ms=0))
    assert exc_info.value.payload["budget"] == "maxTimeMs"
    with pytest.raises(BudgetExceededError):
        parse_bytes(big.encode(), budgets=Budgets(max_time_ms=0))
    with pytest.raises(BudgetExceededError):
        parse_fragment(big, "div", budgets=Budgets(max_time_ms=0))
    from html_parser_ray.htmlcore.stream import parse_stream
    with pytest.raises(BudgetExceededError):
        parse_stream([big.encode()], budgets=Budgets(max_time_ms=0))
    # a generous budget does not trip
    assert parse("<p>x</p>", budgets=Budgets(max_time_ms=60_000)).n_nodes > 0


def test_tree_budget_error_ids_are_bare_whatwg_style():
    # recorded (not raised) tree budgets: ids match the WHATWG pattern so
    # normalization emits them bare, not vendor:-prefixed (ADVICE r01)
    def budget_ids(tree):
        return [e.parse_error_id for e in tree.errors
                if "max-" in e.parse_error_id]

    tree = parse("<div a='1' b='2' c='3'>x</div>",
                 budgets=Budgets(max_attributes_per_element=2))
    ids = [e.parse_error_id for e in tree.errors]
    assert "max-attributes-per-element-exceeded" in ids
    assert not any(i.startswith("vendor:max-") for i in ids)
    # attribute bytes count names and values
    tree = parse("<div title='0123456789'>x</div>",
                 budgets=Budgets(max_attribute_bytes=14))
    assert budget_ids(tree) == ["max-attribute-bytes-exceeded"]
    assert budget_ids(parse("<div title='012345678'>x</div>",
                            budgets=Budgets(max_attribute_bytes=14))) == []
    # the fragment path records them too
    tree = parse_fragment("<a x y z>t</a>", "div",
                          budgets=Budgets(max_attributes_per_element=2))
    assert budget_ids(tree) == ["max-attributes-per-element-exceeded"]
    # nested offenders report in document order, outer element first
    budgets = Budgets(max_attributes_per_element=2, max_attribute_bytes=20)
    many, long = "a b c", "title='" + "x" * 30 + "'"
    tree = parse(f"<div {many}><p {long}>x</p></div>", budgets=budgets)
    assert budget_ids(tree) == ["max-attributes-per-element-exceeded",
                                "max-attribute-bytes-exceeded"]
    tree = parse(f"<div {long}><p {many}>x</p></div>", budgets=budgets)
    assert budget_ids(tree) == ["max-attribute-bytes-exceeded",
                                "max-attributes-per-element-exceeded"]


# ---------------------------------------------------------------------------
# visibleText semantics beyond fixtures

def test_table_rows_tab_separated():
    html = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>"
    # block-tag breaks around each <tr> collapse to a blank line\n    assert visible_text(parse(html)) == "a\tb\n\nc\td"


def test_hidden_subtrees_skipped():
    html = ("<div hidden>no</div><div style='display:none'>no</div>"
            "<div aria-hidden='true'>no</div><p>yes</p>")
    assert visible_text(parse(html)) == "yes"


def test_img_alt_and_button_input():
    html = "<p><img alt='pic'> <input type='submit' value='Go'></p>"
    assert visible_text(parse(html)) == "pic Go"


def test_pre_preserves_whitespace():
    # pre preserves newlines; the whole-output normalization still collapses
    # space runs and strips spaces adjacent to newlines (mod.ts:1130-1141)
    assert visible_text(parse("<pre>a  b\nc</pre>")) == "a b\nc"
    assert visible_text(parse("<div>a\nb</div>")) == "a b"


def test_paragraph_break_collapse():
    html = "<p>one</p><p>two</p><div>three</div>"
    assert visible_text(parse(html)) == "one\n\ntwo\n\nthree"


def test_tokens_roundtrip_text():
    tree = parse("<p>one</p><p>two\tx</p>")
    toks = visible_text_tokens(tree)
    joined = "".join(t["value"] for t in toks)
    assert joined == visible_text(tree)


def test_provenance_tokens_agree_with_plain_tokens():
    tree = parse("<p>hello <b>world</b></p><div>next</div>")
    plain = visible_text_tokens(tree)
    prov = visible_text_tokens_with_provenance(tree)
    # provenance tokens split runs at source-node boundaries; the
    # concatenated text must agree with the plain token stream
    assert "".join(t["value"] for t in prov) == \
        "".join(t["value"] for t in plain)
    assert all("sourceNodeId" in t and "sourceRole" in t for t in prov)


# ---------------------------------------------------------------------------
# traversal / query / serialize / outline / chunk

def test_node_ids_and_find_by_id():
    tree = parse("<p id='x'>hi</p>")
    ids = [tree.ids[id(n)] for n, _d in walk(tree)]
    assert len(ids) == len(set(ids))
    assert find_by_id(tree, ids[0]) is not None


def test_find_all_by_attr():
    tree = parse("<p class='a'>1</p><div class='a'>2</div><span class='b'>3</span>")
    assert len(list(find_all_by_attr(tree, "class", "a"))) == 2
    assert len(list(find_all_by_attr(tree, "class"))) == 3


def test_walk_elements_only_elements():
    tree = parse("<p>text<span>s</span></p>")
    from html_parser_ray.htmlcore.dom import Element
    assert all(isinstance(n, Element) for n, _d in walk_elements(tree))


def test_serialize_roundtrip_stable():
    html = "<p class=x>a &amp; b<br><img src='u'></p>"
    s1 = serialize(parse(html))
    s2 = serialize(parse(s1))
    assert s1 == s2


def test_outline_headings():
    tree = parse("<h1>Top</h1><section><h2>Sub</h2></section>")
    entries = outline(tree)
    tags = [e["tagName"] for e in entries]
    assert "h1" in tags and "h2" in tags and "section" in tags


def test_chunk_bounded():
    # chunk splits TOP-LEVEL children (mod.ts:2210); use a body fragment so
    # there are many top-level nodes
    html = "".join(f"<p>paragraph {i} {'x' * 100}</p>" for i in range(50))
    frag = parse_fragment(html, "body")
    chunks = chunk(frag, max_chars=1000)
    assert len(chunks) > 1
    assert all(len(c["content"]) <= 1200 for c in chunks)  # one node may overflow
    assert [c["index"] for c in chunks] == list(range(len(chunks)))
    assert all("nodeId" in c and "nodes" in c for c in chunks)


def test_chunk_whole_document_single():
    chunks = chunk(parse("<p>tiny</p>"))
    assert len(chunks) == 1


# ---------------------------------------------------------------------------
# determinism + robustness

def test_parse_determinism():
    html = "<b>1<table><tr>x<td>y</td></tr></table><i>z"
    t1, t2 = parse(html), parse(html)
    assert normalize_tree(t1) == normalize_tree(t2)
    assert [e.parse_error_id for e in t1.errors] == \
        [e.parse_error_id for e in t2.errors]


def test_bytes_vs_str_equivalence():
    html = "<p>café — ok</p>"
    t_str = parse(html)
    t_bytes = parse_bytes(html.encode("utf-8"),
                          transport_encoding_label="utf-8")
    assert visible_text(t_str) == visible_text(t_bytes)


def test_chunked_decode_equals_whole_decode():
    # parseStream ≡ parseBytes analog (stream-agent.test.js:90-113):
    # utf-8 multibyte split across chunk boundary must not change output
    html = "<meta charset=utf-8><p>é€中</p>".encode("utf-8")
    whole = visible_text(parse_bytes(html))
    assert whole == "é€中"
    import codecs
    dec = codecs.getincrementaldecoder("utf-8")()
    text = "".join(dec.decode(html[i:i + 3]) for i in range(0, len(html), 3))
    text += dec.decode(b"", True)
    assert visible_text(parse(text)) == whole


@pytest.mark.parametrize("seed", range(0, 600, 25))
def test_seeded_fuzz_no_crash(seed):
    # analog of the reference's 600-doc seeded fuzz (scripts/fuzz/run-fuzz.mjs)
    import random
    rng = random.Random(seed)
    frags = ["<div>", "</div>", "<b>", "<table>", "<tr>", "<td>", "&amp;",
             "&#x41;", "text ", "<!--c-->", "<![CDATA[x]]>", "<svg>", "<math>",
             "</b>", "<p ", "attr='v'>", "<script>", "</script>", " ",
             "<!DOCTYPE html>", "<template>", "<select>", "<option>"]
    html = "".join(rng.choice(frags) for _ in range(rng.randint(5, 80)))
    tree = parse(html)  # must not raise
    visible_text(tree)  # must not raise


# ---------------------------------------------------------------------------
# pinned holdout regressions (reference: holdout-regressions.test.js:7-29)

def test_holdout_frameset_fragment_keeps_frame():
    frag = parse_fragment("</frameset><frame>", "frameset")
    assert normalize_tree(frag) == "| <frame>"


def test_holdout_serializer_dd_vs_dt_end_tag():
    from html_parser_ray.htmlcore.fixture_serializer import (
        serialize_fixture_token_stream as fser)
    assert fser([["EndTag", "dd"]], {}) == ""
    assert fser([["EndTag", "dt"]], {}) == "</dt>"


def test_get_parse_error_spec_ref_reference_parity():
    """Parity with getParseErrorSpecRef (reference src/public/mod.ts:
    274-279): every id — WHATWG, vendor:*, or garbage — maps to the
    WHATWG parse-errors SECTION anchor. The expected URL is pinned here;
    where the reference source is present, the pin is also checked
    against it, so a reference-side change would fail here rather than
    silently diverge."""
    import os
    import re
    from html_parser_ray.htmlcore import (WHATWG_PARSE_ERRORS_SECTION_URL,
                                          get_parse_error_spec_ref)
    url = "https://html.spec.whatwg.org/multipage/parsing.html#parse-errors"
    assert WHATWG_PARSE_ERRORS_SECTION_URL == url
    for pid in ["unexpected-null-character", "eof-in-tag",
                "vendor:unknown", "vendor:weird", "", "UPPER case"]:
        assert get_parse_error_spec_ref(pid) == url
    ref_src = "/root/reference/src/public/mod.ts"
    if not os.path.exists(ref_src):
        return          # no reference checkout: the pinned URL is the gate
    m = re.search(r'WHATWG_PARSE_ERRORS_SECTION_URL = "([^"]+)"',
                  open(ref_src).read())
    assert m, "reference constant moved"
    assert m.group(1) == url


def test_get_parse_error_spec_ref_composes_with_parse_errors():
    """Every parse_error_id a real parse emits resolves to a spec ref
    (the user-facing debugging path: error payload -> spec URL)."""
    from html_parser_ray.htmlcore import get_parse_error_spec_ref, parse
    tree = parse("<html><b><i></b></i>\x00")
    assert tree.errors, "expected parse errors from adoption + NUL"
    for err in tree.errors:
        ref = get_parse_error_spec_ref(err.parse_error_id)
        assert ref.startswith("https://html.spec.whatwg.org/")


def test_deep_document_within_budget_extracts():
    """A 4,000-deep document sits inside the pipeline's 4,096 depth
    budget and must parse AND extract (the reference handles it; with
    CPython's default 1,000-frame recursion limit every walker died at
    ~990 and the row was wrongly quarantined)."""
    from html_parser_ray.htmlcore.api import Budgets, parse
    from html_parser_ray.htmlcore.extract import (outline, serialize,
                                                  text_content,
                                                  visible_text)
    depth = 4_000
    html = "<body>" + "<div>" * depth + "deep text" + "</div>" * depth
    budgets = Budgets(max_nodes=2_000_000, max_depth=4_096)
    tree = parse(html, budgets=budgets)
    assert tree.max_depth == depth + 4  # html>body>div*depth>text
    assert visible_text(tree) == "deep text"
    assert "deep text" in text_content(tree)
    assert serialize(tree).count("<div>") == depth
    assert outline(tree) == []


def test_deep_document_over_budget_raises_budget_error():
    """Deeper than the budget → BudgetExceededError (the quarantine
    signal), NOT a RecursionError from the walkers."""
    import pytest
    from html_parser_ray.htmlcore.api import (BudgetExceededError,
                                              Budgets, parse)
    html = "<body>" + "<i>" * 5_000 + "x"
    with pytest.raises(BudgetExceededError) as ei:
        parse(html, budgets=Budgets(max_depth=4_096))
    assert ei.value.payload["budget"] == "maxDepth"


def test_deep_document_through_extract_stage(ray_session):
    """End-to-end: the document stage emits status=ok with the right text
    for an in-budget deep page, and a budget status for an over-budget
    one — neither poisons the batch."""
    import pyarrow as pa
    from html_parser_ray.stages.extract import VISIBLE_TEXT, DocStage
    deep_ok = ("<body>" + "<div>" * 4000 + "deep text"
               + "</div>" * 4000).encode()
    too_deep = ("<body>" + "<div>" * 5000 + "x").encode()
    batch = pa.table({
        "url": pa.array(["http://a/ok", "http://a/deep"], pa.string()),
        "html": pa.array([deep_ok, too_deep], pa.binary()),
    })
    out = DocStage(VISIBLE_TEXT)(batch)
    rows = {u: (s, t) for u, s, t in zip(out.column("url").to_pylist(),
                                         out.column("status").to_pylist(),
                                         out.column("text").to_pylist())}
    assert rows["http://a/ok"] == ("ok", "deep text")
    assert rows["http://a/deep"][0] != "ok"
    assert "RecursionError" not in (rows["http://a/deep"][1] or "")


# ---------------------------------------------------------------------------
# foreign-content attribute dedup (reference: src/internal/tree/build.ts
# normalizeAttributes:194-236 — first-wins by the ADJUSTED public name;
# dropped attributes carry no span)

def _first_el(tree, *names):
    node = tree
    for n in names:
        node = next(c for c in node.children
                    if getattr(c, "name", None) == n)
    return node


def test_foreign_attr_adjust_collision_first_wins_svg():
    tree = parse("<svg><g xlink:href='1' href='2'>", capture_spans=True)
    g = _first_el(tree, "html", "body", "svg", "g")
    assert g.attrs == [("href", "1")]
    # the survivor keeps its OWN raw source span (of xlink:href='1')
    assert g.attr_spans == [(8, 22)]


def test_foreign_attr_adjust_collision_first_wins_math():
    tree = parse("<math><mi href='2' xlink:href='1'>")
    mi = _first_el(tree, "html", "body", "math", "mi")
    assert mi.attrs == [("href", "2")]


def test_foreign_attr_no_collision_keeps_all():
    tree = parse("<svg xml:lang='a' viewbox='v'>", capture_spans=True)
    svg = _first_el(tree, "html", "body", "svg")
    assert svg.attrs == [("lang", "a"), ("viewBox", "v")]
    assert len(svg.attr_spans) == 2


def test_html_attrs_never_deduped_by_adjustment():
    # tokenizer already dedups raw names; identical raw names never reach
    # the builder, and HTML elements take no adjustment — both survive
    tree = parse("<i xlink:href='1' href='2'>")
    i = _first_el(tree, "html", "body", "i")
    assert i.attrs == [("xlink:href", "1"), ("href", "2")]
