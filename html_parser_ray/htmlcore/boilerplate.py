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
   and the number of characters that sit under an ``<a>`` descendant.
   Invisible subtrees (script/style/template, hidden attributes) are
   skipped with the same rules as visibleText.
2. **Score**:
   - a block whose tag path crosses ``CHROME_TAGS`` (nav / header /
     footer / aside / form / menu) is boilerplate, regardless of length;
   - a block with link density ≥ 1/2 (``2 * link_chars >= chars``) is
     boilerplate (menus, pagination, tag clouds);
   - a heading block (h1–h6) is content iff the next non-heading block
     is content (classic heading-promotion rule);
   - otherwise a block is content iff it has ≥ ``min_words`` words;
   - **smoothing**: a short non-heading block squeezed between two
     content blocks is promoted (caption / single-sentence paragraphs).
3. **Emit**: content blocks joined with blank lines.

This module is the per-document kernel; the Ray stage wiring is the
``MAIN_CONTENT`` projection of ``DocStage`` in ``stages/extract.py``. No
counterpart exists in the reference repo (it stops at visibleText —
src/internal/text/visible-text.ts); the heuristics follow the published
literature instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dom import HTML_NS, Element, Text
from .extract import (VisibleTextOptions, _collapse_ws, _is_hidden,
                      _normalize_newlines)

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


@dataclass
class Block:
    tag: str                      # block element tag name
    path: tuple[str, ...]         # tag names root → block element
    parts: list[str] = field(default_factory=list)
    link_chars: int = 0
    is_content: bool = False      # set by classify_blocks

    @property
    def text(self) -> str:
        return _collapse_ws(" ".join(p for p in self.parts if p)).strip()

    @property
    def chars(self) -> int:
        return len(self.text)

    @property
    def words(self) -> int:
        t = self.text
        return len(t.split()) if t else 0

    @property
    def link_density_bp(self) -> int:
        c = self.chars
        return 10_000 if c == 0 else min(10_000,
                                         (self.link_chars * 10_000) // c)

    @property
    def in_chrome(self) -> bool:
        return any(p in CHROME_TAGS for p in self.path)


def segment_blocks(root, options: VisibleTextOptions = VisibleTextOptions()
                   ) -> list[Block]:
    """Element tree → document-order text blocks (empty blocks dropped)."""
    blocks: list[Block] = []
    order: list[Block] = []

    def walk(children: list, path: tuple[str, ...], cur: Block | None,
             link_depth: int) -> None:
        for child in children:
            if type(child) is Text:
                value = _collapse_ws(_normalize_newlines(child.value))
                if value and cur is not None:
                    cur.parts.append(value)
                    if link_depth > 0:
                        cur.link_chars += len(value.strip())
                continue
            if not isinstance(child, Element):
                continue
            name = child.name.lower() if child.ns == HTML_NS else child.name
            if child.ns == HTML_NS and name in _SKIP_TAGS:
                continue
            if _is_hidden(child, options):
                continue
            kid_path = path + (name,)
            inner = (child.template_content
                     if child.template_content is not None
                     else child.children)
            if child.ns == HTML_NS and name in BLOCK_TAGS:
                nxt = Block(tag=name, path=kid_path)
                order.append(nxt)
                walk(inner, kid_path, nxt, link_depth)
            else:
                walk(inner, kid_path, cur,
                     link_depth + (1 if (child.ns == HTML_NS
                                         and name == "a") else 0))

    walk(getattr(root, "children", []), (), None, 0)
    for b in order:
        if b.text:
            blocks.append(b)
    return blocks


def classify_blocks(blocks: list[Block], *, min_words: int = 5,
                    max_link_density_bp: int = 5_000) -> list[Block]:
    """Mark each block's ``is_content`` in place and return the list."""
    n = len(blocks)
    # pass 1: context / density / length rules (headings deferred)
    base: list[str] = []  # "good" | "bad" | "heading" | "short"
    for b in blocks:
        if b.in_chrome:
            base.append("bad")
        elif b.link_density_bp >= max_link_density_bp:
            base.append("bad")
        elif b.tag in HEADING_TAGS:
            base.append("heading")
        elif b.words >= min_words:
            base.append("good")
        else:
            base.append("short")
    # pass 2: heading promotion — a heading is good iff the next
    # non-heading block is good (resolved right-to-left so heading runs
    # chain to the first real block after them)
    resolved = list(base)
    for i in range(n - 1, -1, -1):
        if base[i] != "heading":
            continue
        nxt = "bad"
        for j in range(i + 1, n):
            if base[j] != "heading":
                nxt = resolved[j]
                break
        resolved[i] = "good" if nxt == "good" else "bad"
    # pass 3: smoothing — short blocks between two content neighbours
    final = list(resolved)
    for i, cls in enumerate(resolved):
        if cls != "short":
            final[i] = cls
            continue
        prev_good = False
        for j in range(i - 1, -1, -1):
            if resolved[j] == "short":
                continue
            prev_good = resolved[j] == "good"
            break
        nxt_good = False
        for j in range(i + 1, n):
            if resolved[j] == "short":
                continue
            nxt_good = resolved[j] == "good"
            break
        final[i] = "good" if (prev_good and nxt_good) else "bad"
    for b, cls in zip(blocks, final):
        b.is_content = cls == "good"
    return blocks


def main_content(root, *, min_words: int = 5,
                 max_link_density_bp: int = 5_000,
                 options: VisibleTextOptions = VisibleTextOptions()) -> str:
    """Parsed tree → main-content text (content blocks joined by blank
    lines)."""
    blocks = classify_blocks(
        segment_blocks(root, options), min_words=min_words,
        max_link_density_bp=max_link_density_bp)
    return "\n\n".join(b.text for b in blocks if b.is_content)
