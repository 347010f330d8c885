"""Fresh-seed differential sweep driver (the per-round conformance
protocol, now committed instead of re-written ad hoc each round).

Generates seeded random HTML cases from a mixed grammar spanning every
tree-builder dispatch family (in-body soup, tables/foster parenting,
templates, select/option, formatting + adoption agency, foreign SVG/
MathML content, comments/doctypes/CDATA/bogus markup, entities, case- and
whitespace-mangled tags, EOF-abandoned constructs), runs them through the
reference's vendored parse5 via the node oracles, and diffs against this
engine byte-for-byte on two surfaces:

  - normalized trees  (tools/ref_oracle/oracle.mjs)
  - the public parse-error stream: codes + spans + order
    (tools/ref_oracle/error_oracle.mjs)

Grammar constraints per the documented offset contract (see
htmlcore/api.py parse docstring): no raw \\r, no astral chars.

Usage: python tools/sweep_differential.py [n_tree=6000] [n_error=3000] [seed]
Exits nonzero on any divergence, printing the minimizable case. Exits 0
after printing ``skip: ...`` when node or the reference parser the oracles
load is absent.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from tools.regen_golden_sample import REFERENCE_PARSER  # noqa: E402

ORACLES = os.path.join(REPO, "tools", "ref_oracle")

TAGS = (
    "div p span a b i u em strong small big s strike tt code font center "
    "table tr td th tbody thead tfoot caption colgroup col "
    "select option optgroup datalist "
    "ul ol li dl dt dd h1 h2 h3 h4 h5 h6 "
    "form input button textarea label fieldset legend output "
    "pre listing blockquote address article section nav aside header "
    "footer main figure figcaption details summary dialog "
    "ruby rt rp rb rtc marquee applet object embed param "
    "img br hr wbr area base basefont bgsound keygen source track "
    "meta link title style script noscript template "
    "head body html frameset frame noframes iframe noembed xmp plaintext "
    "svg math mi mo mn ms mtext annotation-xml foreignObject desc "
    "search hgroup menu menuitem dir isindex image nobr"
).split()

FRAGMENT_CONTEXTS = [
    None, None, None, None,            # documents dominate
    "div", "td", "table", "tbody", "tr", "select", "option", "colgroup",
    "caption", "head", "body", "html", "template", "frameset", "svg",
    "math", "p", "noscript", "script",
]

ENTITIES = ["&amp;", "&lt;", "&gt;", "&quot;", "&notin;", "&not", "&ampx",
            "&#65;", "&#x41;", "&#x26;", "&#xD;", "&#0;", "&#x110000;",
            "&#xDEAD;", "&nbsp;", "&fjlig;", "&CounterClockwiseContourIntegral;"]

TEXTS = ["hello", "a b  c", "\n", "  ", "x<y", "1&2", "tail",
         "\t\n\f ", "Ünïcödé", " pad", "0"]


def _mangle_case(rng: random.Random, name: str) -> str:
    if rng.random() < 0.8:
        return name
    return "".join(ch.upper() if rng.random() < 0.5 else ch for ch in name)


def _attrs(rng: random.Random) -> str:
    n = rng.choice((0, 0, 0, 1, 1, 2, 3))
    parts = []
    for _ in range(n):
        name = rng.choice(("id", "class", "href", "data-x", "title",
                           "xlink:href", "xml:lang", "definitionurl",
                           "viewbox", "ID", "Class", "hidden", "style"))
        form = rng.random()
        if form < 0.25:
            parts.append(name)                        # bare
        elif form < 0.5:
            parts.append(f"{name}=v{rng.randrange(10)}")
        elif form < 0.75:
            parts.append(f"{name}='a {rng.randrange(10)}'")
        else:
            parts.append(f'{name}="q{rng.randrange(10)}&amp;"')
    if n and rng.random() < 0.1:
        parts.append(parts[0])                        # duplicate attr
    return (" " + " ".join(parts)) if parts else ""


def _piece(rng: random.Random, errorish: bool) -> str:
    r = rng.random()
    tag = _mangle_case(rng, rng.choice(TAGS))
    if r < 0.40:                                      # start tag
        close = "/>" if rng.random() < 0.08 else ">"
        ws = rng.choice(("", "", " ", "\t", "\n"))
        return f"<{tag}{_attrs(rng)}{ws}{close}"
    if r < 0.62:                                      # end tag
        return f"</{tag}>"
    if r < 0.80:                                      # text / entities
        if rng.random() < 0.3:
            return rng.choice(ENTITIES)
        return rng.choice(TEXTS)
    if r < 0.86:
        return f"<!--{rng.choice(TEXTS)}{rng.choice(('', '-', '--', '--!'))}-->"
    if r < 0.89:
        return rng.choice((
            "<!doctype html>", "<!DOCTYPE HTML>", "<!doctype foo>",
            '<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01//EN">',
            "<!doctype html SYSTEM 'about:legacy-compat'>"))
    if r < 0.92:
        return f"<![CDATA[{rng.choice(TEXTS)}]]>"
    if r < 0.95:
        return rng.choice(("<?php x?>", "<!x>", "</>", "<!>", "<1>"))
    if errorish:                                      # error-dense forms
        return rng.choice((
            f"<{tag} \x01x>", f"<{tag}", f"</{tag}", "<div a=b c",
            "&#xZZ;", "<!-- <!-- -->", f"<{tag} a='x", "\x0b", "\x7f",
            f"<{tag} =v>", f"<{tag} a=\"b\"c>", "<!doctype", "x\x00y"))
    return rng.choice(TEXTS)


def gen_case(rng: random.Random, errorish: bool) -> dict:
    n = rng.randrange(3, 26)
    html = "".join(_piece(rng, errorish) for _ in range(n))
    return {"html": html,
            "fragment": rng.choice(FRAGMENT_CONTEXTS),
            "scripting": rng.random() < 0.5}


def _run_oracle(script: str, cases: list[dict]) -> dict:
    payload = "".join(
        json.dumps({"id": i, **c}, ensure_ascii=False) + "\n"
        for i, c in enumerate(cases))
    proc = subprocess.run(
        ["node", os.path.join(ORACLES, script)],
        input=payload.encode("utf-8"), capture_output=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed: {proc.stderr.decode()[:800]}")
    return {r["id"]: r for r in
            (json.loads(line) for line in
             proc.stdout.decode().splitlines() if line.strip())}


def sweep_trees(n: int, seed: int) -> int:
    from html_parser_ray.htmlcore.api import parse, parse_fragment
    from html_parser_ray.htmlcore.normalize import normalize_tree
    rng = random.Random(f"tree-{seed}")
    cases = [gen_case(rng, errorish=False) for _ in range(n)]
    golden = _run_oracle("oracle.mjs", cases)
    bad = 0
    for i, case in enumerate(cases):
        if case["fragment"]:
            tree = parse_fragment(case["html"], case["fragment"],
                                  scripting_enabled=case["scripting"])
        else:
            tree = parse(case["html"], scripting_enabled=case["scripting"])
        got = normalize_tree(tree)
        want = golden[i]["tree"].rstrip("\n")
        if got != want:
            bad += 1
            if bad <= 3:
                print(f"TREE DIVERGENCE case {i}: {json.dumps(case)}")
    print(f"{'ok  ' if not bad else 'FAIL'} trees: "
          f"{n - bad}/{n} byte-identical (seed {seed})")
    return bad


def sweep_errors(n: int, seed: int) -> int:
    from html_parser_ray.htmlcore.api import parse, parse_fragment
    rng = random.Random(f"err-{seed}")
    cases = [gen_case(rng, errorish=True) for _ in range(n)]
    golden = _run_oracle("error_oracle.mjs", cases)
    bad = 0
    for i, case in enumerate(cases):
        if case["fragment"]:
            tree = parse_fragment(case["html"], case["fragment"],
                                  scripting_enabled=case["scripting"])
        else:
            tree = parse(case["html"], scripting_enabled=case["scripting"])
        ours = [[e.parse_error_id, e.span[0], e.span[1]]
                for e in tree.errors]
        want = [list(row) for row in golden[i]["errors"]]
        if ours != want:
            bad += 1
            if bad <= 3:
                print(f"ERROR-STREAM DIVERGENCE case {i}: "
                      f"{json.dumps(case)}")
                print(f"  ours: {ours[:6]}")
                print(f"  want: {want[:6]}")
    print(f"{'ok  ' if not bad else 'FAIL'} error streams: "
          f"{n - bad}/{n} identical (seed {seed})")
    return bad


def sweep_transitions(n: int, seed: int) -> int:
    from html_parser_ray.htmlcore.api import parse, parse_fragment
    rng = random.Random(f"trans-{seed}")
    cases = [gen_case(rng, errorish=False) for _ in range(n)]
    golden = _run_oracle("transition_oracle.mjs", cases)
    bad = 0
    for i, case in enumerate(cases):
        if case["fragment"]:
            tree = parse_fragment(case["html"], case["fragment"],
                                  scripting_enabled=case["scripting"],
                                  trace=True)
        else:
            tree = parse(case["html"], scripting_enabled=case["scripting"],
                         trace=True)
        ours = [[e["fromMode"], e["toMode"],
                 e["tokenContext"]["type"],
                 e["tokenContext"]["tagName"],
                 e["tokenContext"]["startOffset"],
                 e["tokenContext"]["endOffset"]]
                for e in tree.trace
                if e["kind"] == "insertionModeTransition"]
        want = [list(x) for x in golden[i].get("transitions", [])]
        if ours != want:
            bad += 1
            if bad <= 3:
                print(f"TRANSITION DIVERGENCE case {i}: {json.dumps(case)}")
                for g, w in zip(ours, want):
                    if g != w:
                        print(f"  first diff: ours {g} vs want {w}")
                        break
    tag = "ok  " if not bad else "FAIL"
    print(f"{tag} transitions: {n - bad}/{n} identical (seed {seed})")
    return bad


def main() -> int:
    if shutil.which("node") is None or not os.path.exists(REFERENCE_PARSER):
        print("skip: node or the reference checkout is absent — "
              "differential sweep unavailable in this environment")
        return 0
    n_tree = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
    n_error = int(sys.argv[2]) if len(sys.argv) > 2 else 3000
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 20260819
    n_span = int(sys.argv[4]) if len(sys.argv) > 4 else max(n_error, 1)
    n_trans = int(sys.argv[5]) if len(sys.argv) > 5 else n_span
    bad = (sweep_trees(n_tree, seed) + sweep_errors(n_error, seed)
           + sweep_spans(n_span, seed) + sweep_transitions(n_trans, seed))
    return 1 if bad else 0




def _span_dump(tree) -> tuple[list, list]:
    """Mirror span_oracle.mjs collect(): path-indexed element/text/comment/
    doctype spans (template children via .content) + attr spans."""
    from html_parser_ray.htmlcore.dom import (
        Element, Text, Comment, Doctype)
    spans: list = []
    attrs: list = []

    def walk(node, path):
        kids = (node.template_content
                if getattr(node, "template_content", None) is not None
                else getattr(node, "children", []))
        for idx, child in enumerate(kids):
            p = f"{path}/{idx}"
            if isinstance(child, Element):
                if child.start >= 0:
                    spans.append([p, child.start, child.end])
                    for (name, _v), (a0, a1) in zip(
                            child.attrs, child.attr_spans or []):
                        attrs.append([p, name, a0, a1])
                else:
                    spans.append([p, -1, -1])
                walk(child, p)
            elif isinstance(child, (Text, Comment, Doctype)):
                spans.append([p, child.start, child.end])

    walk(tree.root if hasattr(tree, "root") else tree, "")
    return spans, attrs


def sweep_spans(n: int, seed: int) -> int:
    from html_parser_ray.htmlcore.api import parse, parse_fragment
    rng = random.Random(f"span-{seed}")
    cases = [gen_case(rng, errorish=False) for _ in range(n)]
    golden = _run_oracle("span_oracle.mjs", cases)
    bad = 0
    for i, case in enumerate(cases):
        if case["fragment"]:
            tree = parse_fragment(case["html"], case["fragment"],
                                  scripting_enabled=True,
                                  capture_spans=True)
        else:
            tree = parse(case["html"], scripting_enabled=True,
                         capture_spans=True)
        spans, attrs = _span_dump(tree)
        want_spans = [list(x) for x in golden[i].get("spans", [])]
        want_attrs = [list(x) for x in golden[i].get("attrs", [])]
        # attr spans compare name-blind by (path, start, end): public
        # names are foreign-adjusted, and parse5's loc.attrs keeps RAW
        # pre-adjustment duplicates that the facade (and our public
        # attrs) dedupe — so ours must be a subset of the oracle's rows
        # and never larger than it
        want_set = {(a[0], a[2], a[3]) for a in want_attrs}
        ok_attrs = (len(attrs) <= len(want_attrs)
                    and all((a[0], a[2], a[3]) in want_set for a in attrs))
        if spans != want_spans or not ok_attrs:
            bad += 1
            if bad <= 3:
                print(f"SPAN DIVERGENCE case {i}: {json.dumps(case)}")
                for got_row, want_row in zip(spans, want_spans):
                    if got_row != want_row:
                        print(f"  first span diff: ours {got_row} "
                              f"vs want {want_row}")
                        break
    tag = "ok  " if not bad else "FAIL"
    print(f"{tag} spans: {n - bad}/{n} fully matched (seed {seed})")
    return bad


if __name__ == "__main__":
    sys.exit(main())
