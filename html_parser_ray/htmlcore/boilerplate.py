"""Boilerplate classification: segment a parsed page into text blocks and
score them with the classic density heuristics (text length, link density,
tag-path context) to extract the main content.

Method (deterministic, integer-threshold variant of the jusText /
boilerpipe family — Kohlschütter et al. WSDM'10, Pomikálek 2011, both
public):

1. **Segment**: depth-first walk of the element tree; every text run is
   attributed to its NEAREST block-level ancestor (``BLOCK_TAGS``; the
   body acts as the block for stray inline text). Blocks are emitted in
   document order with their normalized text, the tag path from the root,
   whether that path crosses ``CHROME_TAGS``, and the number of
   characters that sit under an ``<a>`` descendant. Invisible subtrees
   (script/style/template, hidden attributes) are skipped with the same
   rules as visibleText.
2. **Score**:
   - a block whose tag path crosses ``CHROME_TAGS`` (nav / header /
     footer / aside / form / menu) is boilerplate, regardless of length;
   - a block with link density ≥ 1/2 (``2 * link_chars >= chars``) is
     boilerplate (menus, pagination, tag clouds);
   - a heading block (h1–h6) is content iff the next non-heading block
     is content (classic heading-promotion rule);
   - otherwise a block is content iff it has ≥ ``MIN_WORDS`` words;
   - **smoothing**: a short non-heading block squeezed between two
     content blocks is promoted (caption / single-sentence paragraphs).
3. **Emit**: content blocks joined with blank lines.

Cost: linear in the size of the tree. The walk visits each node once,
carries the chrome and link context down instead of re-reading the path,
and reads an element's attributes only when it has any. A block collects
its raw text runs and its text is normalized once, after the walk.
Classification is two passes over the blocks, linear in their number
however long the runs of headings or short blocks are: right to left it
scores each block and resolves heading promotion and each short block's
next non-short neighbour; left to right it smooths the short blocks.

This module is the per-document kernel; the Ray stage wiring is the
``MAIN_CONTENT`` projection of ``DocStage`` in ``stages/extract.py``. No
counterpart exists in the reference repo (it stops at visibleText —
src/internal/text/visible-text.ts); the heuristics follow the published
literature instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dom import HTML_NS, Element, Text
from .extract import DEFAULT_OPTIONS, _collapse_ws, _is_hidden

BLOCK_TAGS = frozenset("""
address article aside blockquote caption dd details dialog dir div dl dt
fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 header hgroup li
main menu nav ol p pre section summary table tbody td tfoot th thead tr ul
body
""".split())

HEADING_TAGS = frozenset(["h1", "h2", "h3", "h4", "h5", "h6"])

# tag-path context that marks page chrome rather than content
CHROME_TAGS = frozenset(["nav", "header", "footer", "aside", "form", "menu"])

_SKIP_TAGS = frozenset(["script", "style", "template", "noscript", "iframe",
                        "object", "embed", "select", "datalist"])

# a non-heading block needs this many words to be content on its own
MIN_WORDS = 5
# link density, in basis points, from which a block is boilerplate
MAX_LINK_DENSITY_BP = 5_000


@dataclass(slots=True)
class Block:
    tag: str                      # block element tag name
    path: tuple[str, ...]         # tag names root → block element
    text: str = ""                # normalized text, set once after the walk
    link_chars: int = 0           # characters of text under an <a>
    in_chrome: bool = False       # path crosses CHROME_TAGS
    is_content: bool = False      # set by classify_blocks


def segment_blocks(root) -> list[Block]:
    """Element tree → document-order text blocks (empty blocks dropped)."""
    order: list[tuple[Block, list[str]]] = []
    path: list[str] = []

    def walk(children: list, cur: Block | None, parts: list[str],
             in_link: bool, in_chrome: bool) -> None:
        for child in children:
            if type(child) is Text:
                # raw values: the block's text is normalized once, below
                value = child.value
                if value and cur is not None:
                    parts.append(value)
                    if in_link:
                        cur.link_chars += len(_collapse_ws(value).strip())
                continue
            if not isinstance(child, Element):
                continue
            inner = child.template_content
            if inner is None:
                inner = child.children
            if not inner:  # no text below it
                continue
            html = child.ns == HTML_NS
            name = child.name.lower() if html else child.name
            if html and name in _SKIP_TAGS:
                continue
            if child.attrs and _is_hidden(child, DEFAULT_OPTIONS):
                continue
            path.append(name)
            chrome = in_chrome or name in CHROME_TAGS
            if html and name in BLOCK_TAGS:
                block = Block(name, tuple(path), "", 0, chrome)
                kid_parts: list[str] = []
                order.append((block, kid_parts))
                walk(inner, block, kid_parts, in_link, chrome)
            else:
                walk(inner, cur, parts, in_link or (html and name == "a"),
                     chrome)
            path.pop()

    walk(getattr(root, "children", []), None, [], False, False)
    blocks: list[Block] = []
    for block, parts in order:
        # collapsing the joined raw runs equals joining the collapsed runs
        # and collapsing again (CR/LF are whitespace to _collapse_ws)
        text = _collapse_ws(" ".join(parts)).strip()
        if text:
            block.text = text
            blocks.append(block)
    return blocks


def classify_blocks(blocks: list[Block]) -> list[Block]:
    """Mark each block's ``is_content`` in place and return the list."""
    # right to left: the scoring rules, heading promotion against the
    # nearest non-heading block after, and, for each short block, whether
    # the nearest non-short block after it is content
    short_right: list[bool | None] = [None] * len(blocks)
    after_good = False   # the nearest non-heading block after is content
    right_good = False   # the nearest non-short block after is content
    for i in range(len(blocks) - 1, -1, -1):
        b = blocks[i]
        chars = len(b.text)
        density_bp = (10_000 if chars == 0
                      else min(10_000, (b.link_chars * 10_000) // chars))
        if b.in_chrome or density_bp >= MAX_LINK_DENSITY_BP:
            good = after_good = False
        elif b.tag in HEADING_TAGS:
            good = after_good
        # words >= MIN_WORDS, splitting off no more than MIN_WORDS words
        elif len(b.text.split(None, MIN_WORDS - 1)) >= MIN_WORDS:
            good = after_good = True
        else:
            after_good = False
            short_right[i] = right_good
            continue
        b.is_content = right_good = good
    # left to right, smoothing: a short block is content iff the nearest
    # non-short blocks on both sides are
    left_good = False
    for b, right in zip(blocks, short_right):
        if right is None:
            left_good = b.is_content
        else:
            b.is_content = left_good and right
    return blocks


def main_content_and_counts(root) -> tuple[str, int, int]:
    """Parsed tree → (main-content text, blocks, content blocks); the text
    is the content blocks joined by blank lines."""
    blocks = classify_blocks(segment_blocks(root))
    content = [b.text for b in blocks if b.is_content]
    return "\n\n".join(content), len(blocks), len(content)
