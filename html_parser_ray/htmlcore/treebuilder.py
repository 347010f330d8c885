"""WHATWG HTML5 tree construction — from-scratch Python implementation.

Spec: https://html.spec.whatwg.org/multipage/parsing.html#tree-construction
Behavioral parity target: the reference's tree stage
(reference: src/internal/vendor/parse5/parser/index.js — studied for behavior
only; independent implementation driven by the spec's insertion modes).

The builder pulls tokens from ``tokenizer.Tokenizer`` and drives its state
switches (RCDATA/RAWTEXT/script data/PLAINTEXT/CDATA gating) exactly as the
spec's tree-construction dispatcher does.
"""

from __future__ import annotations

from .dom import (
    HTML_NS, SVG_NS, MATHML_NS,
    Document, DocumentFragment, Element, Text, Comment, Doctype,
    SPECIAL_HTML, FORMATTING, IMPLIED_END, IMPLIED_END_THOROUGH, HEADINGS,
    TABLE_CONTEXT, SCOPE_DEFAULT, SCOPE_LIST_ITEM, SCOPE_BUTTON, SCOPE_TABLE,
    SVG_TAG_ADJUST, SVG_ATTR_ADJUST, FOREIGN_ATTR_ADJUST, FOREIGN_BREAKOUT,
    is_special, is_mathml_text_ip, is_html_ip, doctype_quirks,
)
from .tokenizer import (
    Tokenizer, CHARS, START, END, COMMENT, DOCTYPE, EOF,
    DATA, RCDATA, RAWTEXT, SCRIPT_DATA, PLAINTEXT,
)

# insertion modes
INITIAL = "initial"
BEFORE_HTML = "beforeHtml"
BEFORE_HEAD = "beforeHead"
IN_HEAD = "inHead"
IN_HEAD_NOSCRIPT = "inHeadNoscript"
AFTER_HEAD = "afterHead"
IN_BODY = "inBody"
TEXT = "text"
IN_TABLE = "inTable"
IN_TABLE_TEXT = "inTableText"
IN_CAPTION = "inCaption"
IN_COLUMN_GROUP = "inColumnGroup"
IN_TABLE_BODY = "inTableBody"
IN_ROW = "inRow"
IN_CELL = "inCell"
IN_SELECT = "inSelect"
IN_SELECT_IN_TABLE = "inSelectInTable"
IN_TEMPLATE = "inTemplate"
IN_UNDEFINED = "undefined"
AFTER_BODY = "afterBody"
IN_FRAMESET = "inFrameset"
AFTER_FRAMESET = "afterFrameset"
AFTER_AFTER_BODY = "afterAfterBody"
AFTER_AFTER_FRAMESET = "afterAfterFrameset"

_SEGMENTED_MODES = frozenset({
    INITIAL, BEFORE_HTML, BEFORE_HEAD, IN_HEAD, IN_HEAD_NOSCRIPT, AFTER_HEAD,
    IN_COLUMN_GROUP, AFTER_BODY, AFTER_AFTER_BODY, IN_FRAMESET,
    AFTER_FRAMESET, AFTER_AFTER_FRAMESET,
})

_MARKER = object()  # active-formatting-elements marker

import re as _re
# parse5 batches chars into THREE token types (NULL / whitespace /
# character, tokenizer/index.js:433-447); segment the same way so
# flush-time error keys land on the right type-switch boundary
_SEG_RE = _re.compile(r"[\t\n\f ]+|\x00+|[^\t\n\f \x00]+")


_TYPE_WS = "\t\n\f "  # parse5 WHATSPACE token type: SPACE/LF/TAB/FF, NO CR


def _is_type_ws(s: str) -> bool:
    return not s.strip(_TYPE_WS)


_NUL_RUN = _re.compile("\x00+")
_IN_HEAD_START = frozenset(["base", "basefont", "bgsound", "link", "meta",
                            "noframes", "script", "style", "template",
                            "title", "noscript"])

_BLOCK_START = frozenset("""
address article aside blockquote center details dialog dir div dl fieldset
figcaption figure footer header hgroup main menu nav ol p search section
summary ul
""".split())

_BLOCK_END = frozenset("""
address article aside blockquote button center details dialog dir div dl
fieldset figcaption figure footer header hgroup listing main menu nav ol pre
search section summary ul
""".split())


class ParseErrorRec:
    __slots__ = ("code", "start", "end")

    def __init__(self, code: str, start: int | None = None, end: int | None = None):
        self.code = code
        self.start = start
        self.end = end


class TreeBuilder:
    def __init__(self, scripting_enabled: bool = True, capture_spans: bool = False):
        self.scripting_enabled = scripting_enabled
        self.capture_spans = capture_spans
        self.errors: list[ParseErrorRec] = []

    # ------------------------------------------------------------------ setup

    def _init_state(self) -> None:
        self.doc = Document()
        self.stack: list[Element] = []
        self.afe: list = []  # entries: [element, token] or _MARKER
        self.head_el: Element | None = None
        self.form_el: Element | None = None
        self.mode = INITIAL
        self.orig_mode: str | None = None
        self.template_modes: list[str] = []
        self.frameset_ok = True
        self.foster_parenting = False
        self.pending_table_text: list[tuple] = []
        self.fragment_context: Element | None = None
        self.fragment_root: Element | None = None
        self.stopped = False
        self.ignore_next_lf = False
        self._cur_token: tuple | None = None
        self._cur_tag_token: tuple | None = None
        # parse5-reported (public) errors: (code, start, end, detect_key).
        # parse5's parser reports only ~12 tree-level codes (parser/index.js
        # _err call sites); everything else in self.errors is internal.
        self.public_errors: list[tuple[str, int, int, int]] = []
        self._unkeyed: list[int] = []  # public_errors indices awaiting a key
        self._ack_sc = True  # self-closing acknowledged (parse5 ackSelfClosing)
        self._end_tagged: set[int] = set()  # id(el) with explicit end tags
        self.saw_select = False  # lets api skip the select/option patch walk
        self.saw_foreign = False  # sticky; set by _create_element on svg/math

    # ---------------------------------------------------------------- parsing

    def parse(self, html: str) -> Document:
        self._init_state()
        # anchors (entity-boundary bookkeeping) are only consumed when
        # spans are captured — skip the per-append cost otherwise
        tk = Tokenizer(html, capture_offsets=self.capture_spans)
        self.tokenizer = tk
        self._run()
        return self.doc

    def parse_fragment(self, html: str, context: Element) -> DocumentFragment:
        self._init_state()
        self.fragment_context = context
        tk = Tokenizer(html, capture_offsets=self.capture_spans)
        self.tokenizer = tk
        # fragment context arms only the tokenizer STATE — not the
        # appropriate-end-tag name — so '</title>' inside a title fragment
        # stays raw text (matches the reference's fragment behavior)
        name = context.name if context.ns == HTML_NS else ""
        if name in ("title", "textarea"):
            tk.state = RCDATA
        elif name in ("style", "xmp", "iframe", "noembed", "noframes", "noscript"):
            tk.state = RAWTEXT
        elif name == "script":
            tk.state = SCRIPT_DATA
        elif name == "plaintext":
            tk.state = PLAINTEXT
        root = Element("html", HTML_NS)
        self.fragment_root = root
        self.stack.append(root)
        if name == "template":
            self.template_modes.append(IN_TEMPLATE)
        self._reset_insertion_mode()
        # form pointer: nearest form ancestor (context itself in our usage)
        node = context
        while node is not None:
            if isinstance(node, Element) and node.ns == HTML_NS and node.name == "form":
                self.form_el = node
                break
            node = getattr(node, "parent", None)
        self._run()
        frag = DocumentFragment()
        frag.children = list(root.children)
        for child in frag.children:
            child.parent = None
        return frag

    def _run(self) -> None:
        tk = self.tokenizer
        is_fragment = self.fragment_context is not None
        stack = self.stack
        frag_foreign = (is_fragment and self.fragment_context.ns != HTML_NS)
        while not self.stopped:
            # fast path: CDATA is only possible when the adjusted current
            # node is foreign — skip the full check for plain HTML stacks
            if (stack and stack[-1].ns != HTML_NS) or (is_fragment and len(stack) <= 1):
                tk.allow_cdata = self._allow_cdata()
            else:
                tk.allow_cdata = False
            # while ANY foreign element is open (not just the top), a popped
            # end tag can re-enter raw foreign context and re-enable CDATA —
            # tokenizer run-ahead must then be one token at a time. The
            # sticky saw_foreign flag skips the per-round stack scan for
            # HTML-only documents (the overwhelmingly common case).
            tk.single_step = (frag_foreign
                              or (self.saw_foreign
                                  and any(el.ns != HTML_NS for el in stack)))
            done = False
            capture = self.capture_spans
            for token in tk.drain():
                kind = token[0]
                if kind != CHARS:
                    if self._unkeyed or tk.emission_errors:
                        self._flush_pending_public(token, kind)
                    if self.ignore_next_lf:
                        # the skip-next-LF rule applies only to the
                        # immediately following character token
                        self.ignore_next_lf = False
                    if capture and (kind == START or kind == END):
                        # parse5 updates parser.currentToken only in
                        # onStartTag/onEndTag (parser/index.js:899,1022) —
                        # character/comment/doctype/EOF tokens never become
                        # the "closing token" for end-location stamping;
                        # pops during EOF processing (eofInText,
                        # eofInTemplate) stamp from the LAST TAG token, and
                        # the stopParsing EOF extension is applied
                        # explicitly in _stop_parsing
                        self._cur_tag_token = token
                self._cur_token = token
                if kind == START and token[3]:
                    # parse5 onStartTag: report self-closing start tags no
                    # handler acknowledged (void/foreign sites set _ack_sc)
                    self._ack_sc = False
                    self._dispatch(token)
                    if not self._ack_sc:
                        self._perr("non-void-html-element-start-tag-"
                                   "with-trailing-solidus", token)
                else:
                    self._dispatch(token)
                if kind == EOF:
                    done = True
                    break
            if done:
                break

    def _flush_pending_public(self, token: tuple, kind: int) -> None:
        """Key pending character-token parser errors and splice this end
        tag's emission-time tokenizer errors (rare path, see _perr)."""
        tk = self.tokenizer
        k = 2 * tk.n + 1 if kind == EOF else 2 * token[-1] - 1
        if self._unkeyed:
            # parse5 flushes pending character tokens right before
            # EMITTING the next non-char token — parser errors from
            # processing those chars sort after every tokenizer error
            # of this token
            pe = self.public_errors
            for i in self._unkeyed:
                c, s, e, _ = pe[i]
                pe[i] = (c, s, e, k)
            self._unkeyed.clear()
        if kind == END and tk.emission_errors:
            # emission-time tokenizer errors for this end tag: after the
            # chars flush, before the tag's own parser errors
            while (tk.emission_errors
                   and tk.emission_errors[0][1] < token[-1]):
                code, off = tk.emission_errors.pop(0)
                self.public_errors.append((code, off, off, k))

    # ------------------------------------------------------------ small utils

    def _perr(self, code: str, token: tuple, before: bool = False) -> None:
        """parse5 parser._err: public error with the token's span (or
        zero-width at its start when before=True); detect key = token end
        for chronological interleave with tokenizer/input-stream errors."""
        if token[0] == EOF:
            n = self.tokenizer.n
            # EOF-token errors fire after all tokenization: key 2n+1
            self.public_errors.append((code, n, n, 2 * n + 1))
            return
        if token[0] == CHARS:
            # character tokens are flushed lazily (parse5
            # _emitCurrentCharacterToken): at a ws/char type switch the
            # segment loop keys the error at the boundary; otherwise the
            # drain loop keys it at the next non-char token's emission.
            # Until then the key is pending.
            s, e = token[2], token[3]
            self._unkeyed.append(len(self.public_errors))
            self.public_errors.append((code, s, s if before else e, -1))
            return
        s, e = token[-2], token[-1]
        # tag/comment/doctype tokens are processed right after their last
        # char and before the next char is consumed: odd key 2e-1
        self.public_errors.append((code, s, s if before else e, 2 * e - 1))

    def _err(self, code: str, token: tuple | None = None) -> None:
        tok = token or self._cur_token
        if tok is not None and len(tok) >= 3 and tok[0] != EOF:
            if tok[0] == CHARS:
                # CHARS tokens may carry a 5th anchors element — address
                # the span positionally, not from the tail
                self.errors.append(ParseErrorRec(code, tok[2], tok[3]))
            else:
                self.errors.append(ParseErrorRec(code, tok[-2], tok[-1]))
        else:
            self.errors.append(ParseErrorRec(code))

    @property
    def current(self) -> Element:
        if self.stack:
            return self.stack[-1]
        # fully drained stack (namespace-free pop-until with no HTML match,
        # mirroring parse5 popUntilTagNamePopped -> shortenToLength(0)):
        # parse5 attaches to `this.document` (parser/index.js
        # _attachElementToTree `parent ?? this.document`) — for fragments
        # that is the hidden context document, so the node drops out of the
        # fragment output; for documents it lands beside <html>
        return self.doc  # type: ignore[return-value]

    def _adjusted_current(self) -> Element | None:
        if not self.stack:
            return None
        if self.fragment_context is not None and len(self.stack) == 1:
            return self.fragment_context
        return self.stack[-1]

    def _allow_cdata(self) -> bool:
        acn = self._adjusted_current()
        if acn is None or acn.ns == HTML_NS:
            return False
        return not (is_mathml_text_ip(acn) or is_html_ip(acn))

    # ------------------------------------------------------------- tree edits

    def _content_of(self, el: Element):
        if el.template_content is not None:
            return el.template_content
        return el.children

    def _append(self, parent, node) -> None:
        # hot path: Document/DocumentFragment expose a class-level
        # template_content = None, so a plain attribute read covers all
        # parent kinds (only template Elements return a list)
        tc = parent.template_content
        (parent.children if tc is None else tc).append(node)
        node.parent = parent

    def _detach(self, node) -> None:
        p = node.parent
        if p is None:
            return
        kids = self._content_of(p) if isinstance(p, Element) else p.children
        try:
            kids.remove(node)
        except ValueError:
            pass
        node.parent = None

    def _appropriate_place(self, override: Element | None = None):
        """Returns (parent, index|None-for-append)."""
        if override is not None:
            target = override
        else:
            stack = self.stack
            target = stack[-1] if stack else self.current
        if self.foster_parenting and target.ns == HTML_NS and target.name in TABLE_CONTEXT:
            last_template = None
            last_table = None
            t_idx = -1
            for i in range(len(self.stack) - 1, -1, -1):
                el = self.stack[i]
                if last_template is None and el.name == "template" and el.ns == HTML_NS:
                    last_template = (el, i)
                if last_table is None and el.name == "table" and el.ns == HTML_NS:
                    last_table = (el, i)
                if last_template and last_table:
                    break
            if last_template and (not last_table or last_template[1] > last_table[1]):
                return (last_template[0], None)
            if last_table is None:
                return (self.stack[0], None)
            table, ti = last_table
            if table.parent is not None:
                parent = table.parent
                kids = self._content_of(parent) if isinstance(parent, Element) else parent.children
                return (parent, kids.index(table))
            return (self.stack[ti - 1], None)
        return (target, None)

    def _insert_at(self, place, node) -> None:
        parent, index = place
        if index is None:
            self._append(parent, node)
        else:
            tc = parent.template_content
            kids = parent.children if tc is None else tc
            kids.insert(index, node)
            node.parent = parent

    def _insert_text(self, data: str, start: int = -1, end: int = -1) -> None:
        if not data:
            return
        if self.foster_parenting:
            place = self._appropriate_place()
        else:           # inline fast path: append to the current node
            stack = self.stack
            place = (stack[-1] if stack else self.current, None)
        parent, index = place
        tc = parent.template_content
        kids = parent.children if tc is None else tc
        prev = None
        if index is None:
            prev = kids[-1] if kids else None
        elif index > 0:
            prev = kids[index - 1]
        if isinstance(prev, Text):
            prev.value += data
            if self.capture_spans and end >= 0:
                prev.end = end
            return
        self._insert_at(place, Text(data, start if self.capture_spans else -1,
                                    end if self.capture_spans else -1))

    def _create_element(self, token: tuple, ns: str = HTML_NS,
                        adjust: str | None = None) -> Element:
        _, name, attrs, self_closing, start, end = token
        if adjust == "svg":
            name = SVG_TAG_ADJUST.get(name, name)
            out_attrs = []
            spans = [] if self.capture_spans else None
            for a in attrs:
                an = SVG_ATTR_ADJUST.get(a[0], a[0])
                an = FOREIGN_ATTR_ADJUST.get(an, an)
                out_attrs.append((an, a[1]))
                if spans is not None:
                    spans.append((a[2], a[3]))
        elif adjust == "math":
            out_attrs = []
            spans = [] if self.capture_spans else None
            for a in attrs:
                an = "definitionURL" if a[0] == "definitionurl" else a[0]
                an = FOREIGN_ATTR_ADJUST.get(an, an)
                out_attrs.append((an, a[1]))
                if spans is not None:
                    spans.append((a[2], a[3]))
        else:
            out_attrs = [(a[0], a[1]) for a in attrs]
            spans = [(a[2], a[3]) for a in attrs] if self.capture_spans else None
        if adjust is not None and len(out_attrs) > 1:
            # DEDUP parity (build.ts normalizeAttributes:194-236):
            # attributes dedup FIRST-WINS by their ADJUSTED name — the
            # tokenizer already dedups raw names, so this only fires
            # when foreign adjustment collides names (the adjusted
            # public name of xlink:href is the bare local 'href',
            # vendored foreign-content.js:73, which collides with an
            # explicit href= on the same tag). SPAN attachment
            # deliberately diverges from build.ts: its
            # attrs[attr.name] ?? attrs[name] lookup (build.ts:218)
            # keys the ADJUSTED name into parse5's RAW-keyed location
            # map, silently dropping spans for every adjusted foreign
            # attribute (viewBox, xlink:*, ...) and, on collision,
            # attaching the DROPPED attribute's span to the survivor.
            # We keep each surviving attribute's own raw source span
            # (the span-oracle positional contract, verify SKILL §4).
            seen: set[str] = set()
            dd_attrs, dd_spans = [], ([] if spans is not None else None)
            for idx, pair in enumerate(out_attrs):
                if pair[0] in seen:
                    continue
                seen.add(pair[0])
                dd_attrs.append(pair)
                if dd_spans is not None:
                    dd_spans.append(spans[idx])
            out_attrs, spans = dd_attrs, dd_spans
        el = Element(name, ns, out_attrs,
                     start if self.capture_spans else -1,
                     end if self.capture_spans else -1,
                     spans)
        if name == "select":
            self.saw_select = True
        if ns is not HTML_NS:
            # sticky: every foreign element on the stack originates here
            # (AAA clones copy ns from elements created here), so an
            # HTML-only document keeps the _run single-step scan disabled
            self.saw_foreign = True
        return el

    def _insert_element(self, token: tuple, ns: str = HTML_NS,
                        adjust: str | None = None) -> Element:
        el = self._create_element(token, ns, adjust)
        if self.foster_parenting:
            place = self._appropriate_place()
        else:           # inline fast path: append to the current node
            stack = self.stack
            place = (stack[-1] if stack else self.current, None)
        self._insert_at(place, el)
        self.stack.append(el)
        return el

    def _insert_phantom(self, name: str) -> Element:
        el = Element(name, HTML_NS)
        self._insert_at(self._appropriate_place(), el)
        self.stack.append(el)
        return el

    def _pop(self) -> Element:
        el = self.stack.pop()
        if self.capture_spans:
            self._set_end_location(el)
        return el

    @staticmethod
    def _append_pos(token: tuple, d: int) -> int:
        """parse5 append-time preprocessor position of decoded char ``d``
        of a CHARS run (tokenizer getCurrentLocation(0) when the char is
        appended): raw position for plain chars, LAST raw char of the
        reference for entity-decoded chars, and one (or two, for "</")
        past a RAW "<" whose append was deferred until the tag lookahead
        failed (tokenizer/index.js _stateTagOpen/_stateEndTagOpen default
        + EOF arms emit '<'/'</' only after consuming the failing char)."""
        data = token[1]
        start = token[2]
        anchors = token[4] if len(token) > 4 else None

        def pos_of(i: int) -> tuple[int, bool]:
            # (raw position of decoded char i, was it entity-decoded)
            if anchors is None:
                return start + i, False
            j = 0
            while j + 1 < len(anchors) and anchors[j + 1][0] <= i:
                j += 1
            d0, raw_start, raw_last = anchors[j]
            if raw_last >= 0:
                return raw_last, True
            return raw_start + (i - d0), False

        p, ent = pos_of(d)
        if data[d] == "<" and not ent:
            if d + 1 < len(data) and data[d + 1] == "/" \
                    and not pos_of(d + 1)[1]:
                return p + 2
            return p + 1
        return p

    @staticmethod
    def _lf_strip_start(token: tuple, data: str, start: int) -> int:
        """Span start after the skip-next-LF strip (data = rest, non-empty).

        parse5 drops the LF from the front of the leading WHITESPACE
        character token without touching its location (token.chars.substr(1)
        in _processToken) — so while more whitespace follows, the span still
        starts at the stripped LF. Only when the LF was the ENTIRE ws token
        does the next (character-type) token's own creation position take
        over: its append-time location (_append_pos)."""
        if data[0] in _TYPE_WS:
            return start
        return TreeBuilder._append_pos(token, 1)

    def _set_end_location(self, el: Element) -> None:
        tok = self._cur_tag_token
        if el.start < 0 or tok is None:
            return
        if tok[0] == END and tok[1] == el.name:
            el.end = tok[-1]
            self._end_tagged.add(id(el))
        else:
            # _cur_tag_token only ever holds START/END tokens; EOF-time
            # extension happens in _stop_parsing, never here
            el.end = tok[-2] if len(tok) >= 3 else el.end

    def _remove_from_stack(self, el: Element) -> None:
        """parse5 OpenElementStack.remove fires onItemPop → end location is
        recorded for mid-stack removals too (open-element-stack.js:160-172)."""
        if el in self.stack:
            if self.capture_spans:
                self._set_end_location(el)
            self.stack.remove(el)

    def _pop_until_name(self, names) -> None:
        if isinstance(names, str):
            names = (names,)
        while self.stack:
            el = self._pop()
            if el.ns == HTML_NS and el.name in names:
                return

    def _pop_until_element(self, el: Element) -> None:
        while self.stack:
            if self._pop() is el:
                return

    def _generate_implied_end(self, exclude: str | None = None,
                              thorough: bool = False) -> None:
        names = IMPLIED_END_THOROUGH if thorough else IMPLIED_END
        while self.stack:
            cur = self.current
            if cur.ns == HTML_NS and cur.name in names and cur.name != exclude:
                self._pop()
            else:
                return

    # ---------------------------------------------------------------- scopes

    def _has_in_scope(self, name: str, scope=SCOPE_DEFAULT) -> bool:
        html_t, math_t, svg_t = scope
        for el in reversed(self.stack):
            if el.ns == HTML_NS:
                n_ = el.name
                if n_ == name:
                    return True
                if n_ in html_t:
                    return False
            elif el.ns == MATHML_NS:
                if el.name in math_t:
                    return False
            elif el.ns == SVG_NS:
                if el.name in svg_t:
                    return False
        return False

    def _has_heading_in_scope(self) -> bool:
        # any h1-h6 in default scope, in one walk: no heading is a scope
        # terminator, so the first heading or terminator from the top decides
        html_t, math_t, svg_t = SCOPE_DEFAULT
        for el in reversed(self.stack):
            if el.ns == HTML_NS:
                n_ = el.name
                if n_ in HEADINGS:
                    return True
                if n_ in html_t:
                    return False
            elif el.ns == MATHML_NS:
                if el.name in math_t:
                    return False
            elif el.ns == SVG_NS:
                if el.name in svg_t:
                    return False
        return False

    def _has_element_in_scope(self, target: Element, scope=SCOPE_DEFAULT) -> bool:
        html_t, math_t, svg_t = scope
        for el in reversed(self.stack):
            if el is target:
                return True
            if el.ns == HTML_NS and el.name in html_t:
                return False
            if el.ns == MATHML_NS and el.name in math_t:
                return False
            if el.ns == SVG_NS and el.name in svg_t:
                return False
        return False

    def _has_in_select_scope(self, name: str) -> bool:
        for el in reversed(self.stack):
            if el.ns == HTML_NS:
                if el.name == name:
                    return True
                if el.name not in ("optgroup", "option"):
                    return False
            else:
                return False
        return False

    # --------------------------------------------------- formatting elements

    def _afe_push(self, el: Element, token: tuple) -> None:
        # Noah's Ark clause: max 3 matching entries since last marker
        count = 0
        earliest = None
        for i in range(len(self.afe) - 1, -1, -1):
            entry = self.afe[i]
            if entry is _MARKER:
                break
            cand = entry[0]
            if (cand.name == el.name and cand.ns == el.ns
                    and sorted(cand.attrs) == sorted(el.attrs)):
                count += 1
                earliest = i
        if count >= 3 and earliest is not None:
            del self.afe[earliest]
        self.afe.append([el, token])

    def _afe_push_marker(self) -> None:
        self.afe.append(_MARKER)

    def _afe_clear_to_marker(self) -> None:
        while self.afe:
            entry = self.afe.pop()
            if entry is _MARKER:
                return

    def _afe_find(self, name: str):
        for i in range(len(self.afe) - 1, -1, -1):
            entry = self.afe[i]
            if entry is _MARKER:
                return None
            if entry[0].name == name and entry[0].ns == HTML_NS:
                return entry
        return None

    def _afe_remove_element(self, el: Element) -> None:
        for i in range(len(self.afe) - 1, -1, -1):
            entry = self.afe[i]
            if entry is not _MARKER and entry[0] is el:
                del self.afe[i]
                return

    def _reconstruct_afe(self) -> None:
        if not self.afe:
            return
        last = self.afe[-1]
        if last is _MARKER or last[0] in self.stack:
            return
        i = len(self.afe) - 1
        while i > 0:
            i -= 1
            entry = self.afe[i]
            if entry is _MARKER or entry[0] in self.stack:
                i += 1
                break
        while i < len(self.afe):
            entry = self.afe[i]
            el = self._create_element(entry[1])
            self._insert_at(self._appropriate_place(), el)
            self.stack.append(el)
            entry[0] = el
            i += 1

    # ------------------------------------------------------------- mode reset

    def _reset_insertion_mode(self) -> None:
        for i in range(len(self.stack) - 1, -1, -1):
            node = self.stack[i]
            last = i == 0
            if last and self.fragment_context is not None:
                node = self.fragment_context
            # parse5 switches on the tag id with NO namespace check
            # (parser/index.js:566-630) — a <math thead> resets to
            # IN_TABLE_BODY; the WHATWG spec reads as HTML-only but the
            # reference vendors parse5, so its behavior is the parity target
            name = node.name
            if name == "select":
                mode = IN_SELECT
                for j in range(i - 1, 0, -1):
                    anc = self.stack[j]
                    if anc.name == "template":
                        break
                    if anc.name == "table":
                        mode = IN_SELECT_IN_TABLE
                        break
                self.mode = mode
                return
            if name in ("td", "th") and not last:
                self.mode = IN_CELL
                return
            if name == "tr":
                self.mode = IN_ROW
                return
            if name in ("tbody", "thead", "tfoot"):
                self.mode = IN_TABLE_BODY
                return
            if name == "caption":
                self.mode = IN_CAPTION
                return
            if name == "colgroup":
                self.mode = IN_COLUMN_GROUP
                return
            if name == "table":
                self.mode = IN_TABLE
                return
            if name == "template":
                if not self.template_modes:
                    # a FOREIGN element named template (e.g. <math template>)
                    # with no HTML template open: parse5 reads
                    # tmplInsertionModeStack[0] of an empty array and sets
                    # insertionMode=undefined — subsequent HTML-context
                    # tokens silently match no case (foreign-content
                    # dispatch still runs). Mirror with a drop-all mode.
                    self.mode = IN_UNDEFINED
                    return
                self.mode = self.template_modes[-1]
                return
            if name == "head" and not last:
                self.mode = IN_HEAD
                return
            if name == "body":
                self.mode = IN_BODY
                return
            if name == "frameset":
                self.mode = IN_FRAMESET
                return
            if name == "html":
                self.mode = BEFORE_HEAD if self.head_el is None else AFTER_HEAD
                return
            if last:
                self.mode = IN_BODY
                return
        # emptied stack (a namespace-free pop-until drained it, parse5
        # popUntilTagNamePopped → shortenToLength(0)): parse5 falls through
        # to IN_BODY (parser/index.js:629)
        self.mode = IN_BODY

    # ------------------------------------------------------------ dispatcher

    def _dispatch(self, token: tuple) -> None:
        kind = token[0]
        stack = self.stack
        # fast path: current node is plain HTML (and not the fragment root)
        if stack and stack[-1].ns == HTML_NS and (
                len(stack) > 1 or self.fragment_context is None):
            mode = self.mode
            if mode == IN_BODY:   # hottest mode: kind-indexed direct call
                _IN_BODY_KIND[kind](self, token)
            elif kind == CHARS and mode in _SEGMENTED_MODES:
                self._process(token)
            else:
                _MODE_HANDLERS[mode](self, token)
            return
        acn = self._adjusted_current()
        if (acn is None or acn.ns == HTML_NS or kind == EOF):
            self._process(token)
            return
        if is_mathml_text_ip(acn):
            if kind == CHARS or (kind == START and token[1] not in ("mglyph", "malignmark")):
                self._process(token)
                return
        if acn.ns == MATHML_NS and acn.name == "annotation-xml" and kind == START and token[1] == "svg":
            self._process(token)
            return
        if is_html_ip(acn) and kind in (CHARS, START):
            self._process(token)
            return
        self._foreign_content(token)

    def _process(self, token: tuple) -> None:
        if token[0] == CHARS and self.mode in _SEGMENTED_MODES:
            # these modes treat whitespace and non-whitespace character
            # tokens differently, so a mixed run must be processed as
            # alternating maximal same-class segments (the spec operates on
            # single-character tokens; runs are our optimization)
            segs = _SEG_RE.findall(token[1])
            if len(segs) > 1:
                # parse5 sets each ws/non-ws boundary to the preprocessor
                # position of the class-switching char at APPEND time
                # (_append_pos): raw position for plain chars, LAST raw
                # char of the reference for entity-decoded chars, one/two
                # past a deferred raw "<"/"</".
                seg_start = token[2]
                last = len(segs) - 1
                d = 0
                for k, seg in enumerate(segs):
                    d += len(seg)
                    if k == last:
                        seg_end = token[3]
                    else:
                        seg_end = self._append_pos(token, d)
                    self._process((CHARS, seg, seg_start, seg_end))
                    if k != last and self._unkeyed:
                        # parse5 emits the sub-token at the ws/char TYPE
                        # SWITCH: its processing time is the boundary (the
                        # last segment stays pending for the drain loop)
                        pe = self.public_errors
                        for i in self._unkeyed:
                            c, s, e, _ = pe[i]
                            pe[i] = (c, s, e, 2 * seg_end)
                        self._unkeyed.clear()
                    seg_start = seg_end
                return
        handler = _MODE_HANDLERS[self.mode]
        handler(self, token)

    # ------------------------------------------------------- foreign content

    def _foreign_content(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1]
            if "\x00" in data:
                self._err("unexpected-null-character")
                # parse5 batches consecutive NULs into ONE NULL_CHARACTER
                # token and replaces the whole token with a single U+FFFD
                # (nullCharacterInForeignContent, parser/index.js:3249)
                data = _NUL_RUN.sub("�", data)
            start = token[2]
            if self.ignore_next_lf:
                self.ignore_next_lf = False
                if data.startswith("\n"):
                    data = data[1:]
                    if not data:
                        return
                    start = self._lf_strip_start(token, data, start)
            self._insert_text(data, start, token[3])
            if not _is_type_ws(data):
                self.frameset_ok = False
            return
        if kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == START:
            name = token[1]
            font_breaks = name == "font" and any(
                a[0] in ("color", "face", "size") for a in token[2])
            if name in FOREIGN_BREAKOUT or font_breaks:
                self._err("unexpected-html-element-in-foreign-content")
                while self.stack:
                    cur = self.current
                    if (cur.ns == HTML_NS or is_mathml_text_ip(cur) or is_html_ip(cur)):
                        break
                    self._pop()
                self._process(token)
                return
            acn = self._adjusted_current()
            ns = acn.ns
            adjust = "svg" if ns == SVG_NS else ("math" if ns == MATHML_NS else None)
            el = self._create_element(token, ns, adjust)
            self._insert_at(self._appropriate_place(), el)
            self._ack_sc = True  # foreign content always acks self-closing
            if token[3]:  # self-closing
                if self.capture_spans:
                    el.end = token[-1]
            else:
                self.stack.append(el)
            return
        if kind == END:
            name = token[1]
            cur = self.current
            if cur.ns == SVG_NS and name == "script" and cur.name == "script":
                self._pop()
                return
            if name in ("br", "p"):
                # spec: same breakout handling as the start-tag list
                self._err("unexpected-html-element-in-foreign-content")
                while self.stack:
                    c = self.current
                    if c.ns == HTML_NS or is_mathml_text_ip(c) or is_html_ip(c):
                        break
                    self._pop()
                self._process(token)
                return
            if cur.name.lower() != name:
                self._err("end-tag-without-matching-open-element")
            # parse5 loop (endTagInForeignContent): walk i from the top DOWN
            # TO 1 — index 0 (the root) is never examined, so in fragments
            # an unmatched foreign end tag is silently dropped; an HTML-ns
            # element at i>0 reprocesses per HTML rules; a name match pops
            # to that element inclusive
            for i in range(len(self.stack) - 1, 0, -1):
                node = self.stack[i]
                if node.ns == HTML_NS:
                    self._process(token)
                    return
                if node.name.lower() == name:
                    if node.name != name:
                        # parse5 rewrites token.tagName unconditionally to
                        # the element's adjusted (camelCase) name
                        # (endTagInForeignContent, parser/index.js:3302-3305);
                        # spans' _setEndLocation and the trace channel's
                        # currentToken both observe the rewrite
                        renamed = (token[0], node.name) + token[2:]
                        self._cur_token = renamed
                        if self.capture_spans:
                            self._cur_tag_token = renamed
                        if getattr(self, "_cur_tag_token_any", None) \
                                is not None:
                            self._cur_tag_token_any = renamed
                    while len(self.stack) > i:
                        self._pop()
                    return
            return

    # ---------------------------------------------------------- mode: initial

    def _m_initial(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1].lstrip(_TYPE_WS)
            if not data:
                return
            k = len(token[1]) - len(data)
            token = (CHARS, data, token[2] + k, token[3])
        elif kind == COMMENT:
            self._append(self.doc, Comment(token[1], token[2], token[3]))
            return
        elif kind == DOCTYPE:
            _, name, public_id, system_id, force_quirks, start, end = token
            node = Doctype(name or "", public_id, system_id, start, end)
            self._append(self.doc, node)
            if not (name == "html" and public_id is None
                    and (system_id is None
                         or system_id == "about:legacy-compat")):
                self._perr("non-conforming-doctype", token)
            self.doc.quirks_mode = doctype_quirks(name, public_id, system_id, force_quirks)
            self.mode = BEFORE_HTML
            return
        # anything else
        self._err("missing-doctype")
        self._perr("missing-doctype", token, before=True)
        self.doc.quirks_mode = "quirks"
        self.mode = BEFORE_HTML
        self._process(token)

    # ------------------------------------------------------ mode: before html

    def _m_before_html(self, token: tuple) -> None:
        kind = token[0]
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == COMMENT:
            self._append(self.doc, Comment(token[1], token[2], token[3]))
            return
        if kind == CHARS:
            data = token[1].lstrip(_TYPE_WS)
            if not data:
                return
            k = len(token[1]) - len(data)
            token = (CHARS, data, token[2] + k, token[3])
        elif kind == START and token[1] == "html":
            el = self._create_element(token)
            self._append(self.doc, el)
            self.stack.append(el)
            self.mode = BEFORE_HEAD
            return
        elif kind == END and token[1] not in ("head", "body", "html", "br"):
            self._err("unexpected-end-tag")
            return
        el = Element("html", HTML_NS)
        self._append(self.doc, el)
        self.stack.append(el)
        self.mode = BEFORE_HEAD
        self._process(token)

    # ------------------------------------------------------ mode: before head

    def _m_before_head(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1].lstrip(_TYPE_WS)
            if not data:
                return
            k = len(token[1]) - len(data)
            token = (CHARS, data, token[2] + k, token[3])
        elif kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        elif kind == DOCTYPE:
            self._err("unexpected-doctype")
            self._perr("misplaced-doctype", token)
            return
        elif kind == START:
            if token[1] == "html":
                self._m_in_body(token)
                return
            if token[1] == "head":
                self.head_el = self._insert_element(token)
                self.mode = IN_HEAD
                return
        elif kind == END and token[1] not in ("head", "body", "html", "br"):
            self._err("unexpected-end-tag")
            self._perr("end-tag-without-matching-open-element", token)
            return
        self.head_el = self._insert_phantom("head")
        self.mode = IN_HEAD
        self._process(token)

    # --------------------------------------------------------- mode: in head

    def _m_in_head(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1]
            ws_len = len(data) - len(data.lstrip(_TYPE_WS))
            if ws_len:
                self._insert_text(data[:ws_len], token[2], token[3] if ws_len == len(data) else token[2])
            if ws_len == len(data):
                return
            token = (CHARS, data[ws_len:], token[2] + ws_len, token[3])
        elif kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        elif kind == DOCTYPE:
            self._err("unexpected-doctype")
            self._perr("misplaced-doctype", token)
            return
        elif kind == START:
            name = token[1]
            if name == "html":
                self._m_in_body(token)
                return
            if name in ("base", "basefont", "bgsound", "link", "meta"):
                el = self._insert_element(token)
                self.stack.pop()
                self._ack_sc = True
                if self.capture_spans:
                    el.end = token[-1]
                return
            if name == "title":
                self._parse_rawtext(token, RCDATA)
                return
            if name in ("noframes", "style") or (name == "noscript" and self.scripting_enabled):
                self._parse_rawtext(token, RAWTEXT)
                return
            if name == "noscript":
                self._insert_element(token)
                self.mode = IN_HEAD_NOSCRIPT
                return
            if name == "script":
                self._insert_element(token)
                self.tokenizer.state = SCRIPT_DATA
                self.tokenizer.last_start_tag = "script"
                self.orig_mode = self.mode
                self.mode = TEXT
                return
            if name == "template":
                self._insert_element(token)
                self._afe_push_marker()
                self.frameset_ok = False
                self.mode = IN_TEMPLATE
                self.template_modes.append(IN_TEMPLATE)
                return
            if name == "head":
                self._err("duplicate-head")
                self._perr("misplaced-start-tag-for-head-element", token)
                return
        elif kind == END:
            name = token[1]
            if name == "head":
                self._pop()
                self.mode = AFTER_HEAD
                return
            if name == "template":
                if not any(e.name == "template" and e.ns == HTML_NS for e in self.stack):
                    self._err("unexpected-end-tag")
                    self._perr("end-tag-without-matching-open-element", token)
                    return
                self._generate_implied_end(thorough=True)
                if self.current.name != "template":
                    self._err("closing-of-element-with-open-child-elements")
                    self._perr("closing-of-element-with-open-child-elements",
                               token)
                self._pop_until_name("template")
                self._afe_clear_to_marker()
                if self.template_modes:
                    self.template_modes.pop()
                self._reset_insertion_mode()
                return
            if name not in ("body", "html", "br"):
                self._err("unexpected-end-tag")
                self._perr("end-tag-without-matching-open-element", token)
                return
        self._pop()
        self.mode = AFTER_HEAD
        self._process(token)

    # ----------------------------------------------- mode: in head noscript

    def _m_in_head_noscript(self, token: tuple) -> None:
        kind = token[0]
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            self._perr("misplaced-doctype", token)
            return
        if kind == START:
            name = token[1]
            if name == "html":
                self._m_in_body(token)
                return
            if name in ("basefont", "bgsound", "link", "meta", "noframes", "style"):
                self._m_in_head(token)
                return
            if name in ("head", "noscript"):
                self._err("unexpected-start-tag")
                if name == "noscript":
                    self._perr("nested-noscript-in-head", token)
                return
        elif kind == END:
            if token[1] == "noscript":
                self._pop()
                self.mode = IN_HEAD
                return
            if token[1] != "br":
                self._err("unexpected-end-tag")
                self._perr("end-tag-without-matching-open-element", token)
                return
        elif kind == COMMENT:
            self._m_in_head(token)
            return
        elif kind == CHARS:
            data = token[1]
            ws_len = len(data) - len(data.lstrip(_TYPE_WS))
            if ws_len:
                self._insert_text(data[:ws_len], token[2],
                                  token[3] if ws_len == len(data) else token[2])
            if ws_len == len(data):
                return
            token = (CHARS, data[ws_len:], token[2] + ws_len, token[3])
        self._err("unexpected-token-in-head-noscript")
        self._perr("open-elements-left-after-eof" if kind == EOF
                   else "disallowed-content-in-noscript-in-head", token)
        self._pop()
        self.mode = IN_HEAD
        self._process(token)

    # ------------------------------------------------------- mode: after head

    def _m_after_head(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1]
            ws_len = len(data) - len(data.lstrip(_TYPE_WS))
            if ws_len:
                self._insert_text(data[:ws_len], token[2],
                                  token[3] if ws_len == len(data) else token[2])
            if ws_len == len(data):
                return
            token = (CHARS, data[ws_len:], token[2] + ws_len, token[3])
        elif kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        elif kind == DOCTYPE:
            self._err("unexpected-doctype")
            self._perr("misplaced-doctype", token)
            return
        elif kind == START:
            name = token[1]
            if name == "html":
                self._m_in_body(token)
                return
            if name == "body":
                self._insert_element(token)
                self.frameset_ok = False
                self.mode = IN_BODY
                return
            if name == "frameset":
                self._insert_element(token)
                self.mode = IN_FRAMESET
                return
            if name in _IN_HEAD_START and name != "noscript":
                self._err("unexpected-start-tag-out-of-head")
                self._perr("abandoned-head-element-child", token)
                assert self.head_el is not None
                self.stack.append(self.head_el)
                self._m_in_head(token)
                try:
                    self._remove_from_stack(self.head_el)
                except ValueError:
                    pass
                return
            if name == "head":
                self._err("unexpected-start-tag")
                self._perr("misplaced-start-tag-for-head-element", token)
                return
        elif kind == END:
            if token[1] == "template":
                self._m_in_head(token)
                return
            if token[1] not in ("body", "html", "br"):
                self._err("unexpected-end-tag")
                self._perr("end-tag-without-matching-open-element", token)
                return
        self._insert_phantom("body")
        self.mode = IN_BODY
        self._process(token)

    # --------------------------------------------------------- mode: in body

    def _close_p(self) -> None:
        self._generate_implied_end(exclude="p")
        if self.current.name != "p":
            self._err("unclosed-p")
        self._pop_until_name("p")

    def _m_in_body(self, token: tuple) -> None:
        _IN_BODY_KIND[token[0]](self, token)

    def _ib_chars(self, token: tuple) -> None:
        data = token[1]
        start = token[2]
        if self.ignore_next_lf:
            self.ignore_next_lf = False
            if data.startswith("\n"):
                data = data[1:]
                if not data:
                    return
                start = self._lf_strip_start(token, data, start)
        if "\x00" in data:
            self._err("unexpected-null-character")
            data = data.replace("\x00", "")
            if not data:
                return
        self._reconstruct_afe()
        self._insert_text(data, start, token[3])
        if not _is_type_ws(data):
            self.frameset_ok = False

    def _ib_comment(self, token: tuple) -> None:
        self._insert_at(self._appropriate_place(),
                        Comment(token[1], token[2], token[3]))

    def _ib_doctype(self, token: tuple) -> None:
        self._err("unexpected-doctype")

    def _ib_eof(self, token: tuple) -> None:
        if self.template_modes:
            self._m_in_template(token)
            return
        self._stop_parsing()

    # ---- in-body start tags: one handler per tag family, dispatched via
    # the module-level _IN_BODY_START table (built in priority order after
    # the class body — first-match-wins semantics of the former if-chain
    # are preserved by setdefault). A dict lookup replaces the ~8-branch
    # average scan on the hottest path in web-corpus parsing.

    def _in_body_start(self, token: tuple) -> None:
        _IN_BODY_START.get(token[1], _IBS_DEFAULT)(self, token)

    def _ibs_html(self, token: tuple) -> None:
        self._err("non-void-html-element-start-tag-with-trailing-solidus"
                  if token[3] else "unexpected-start-tag")
        if any(e.name == "template" and e.ns == HTML_NS for e in self.stack):
            return
        top = self.stack[0]
        existing = {a[0] for a in top.attrs}
        for a in token[2]:
            if a[0] not in existing:
                top.attrs.append((a[0], a[1]))

    def _ibs_noscript(self, token: tuple) -> None:
        if self.scripting_enabled:
            self._m_in_head(token)
        else:
            self._ibs_default(token)

    def _ibs_body(self, token: tuple) -> None:
        self._err("unexpected-start-tag")
        if (len(self.stack) < 2 or self.stack[1].name != "body"
                or any(e.name == "template" and e.ns == HTML_NS for e in self.stack)):
            return
        self.frameset_ok = False
        body = self.stack[1]
        existing = {a[0] for a in body.attrs}
        for a in token[2]:
            if a[0] not in existing:
                body.attrs.append((a[0], a[1]))

    def _ibs_frameset(self, token: tuple) -> None:
        self._err("unexpected-start-tag")
        if len(self.stack) < 2 or self.stack[1].name != "body":
            return
        if not self.frameset_ok:
            return
        body = self.stack[1]
        self._detach(body)
        del self.stack[1:]
        self._insert_element(token)
        self.mode = IN_FRAMESET

    def _ibs_block(self, token: tuple) -> None:
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        self._insert_element(token)

    def _ibs_heading(self, token: tuple) -> None:
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        if self.current.ns == HTML_NS and self.current.name in HEADINGS:
            self._err("unexpected-start-tag")
            self._pop()
        self._insert_element(token)

    def _ibs_pre_listing(self, token: tuple) -> None:
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        self._insert_element(token)
        self.ignore_next_lf = True
        self.frameset_ok = False

    def _ibs_form(self, token: tuple) -> None:
        if (self.form_el is not None
                and not any(e.name == "template" and e.ns == HTML_NS for e in self.stack)):
            self._err("unexpected-start-tag")
            return
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        el = self._insert_element(token)
        if not any(e.name == "template" and e.ns == HTML_NS for e in self.stack):
            self.form_el = el

    def _ibs_li(self, token: tuple) -> None:
        self.frameset_ok = False
        for i in range(len(self.stack) - 1, -1, -1):
            node = self.stack[i]
            if node.ns == HTML_NS and node.name == "li":
                self._generate_implied_end(exclude="li")
                if self.current.name != "li":
                    self._err("unexpected-start-tag")
                self._pop_until_name("li")
                break
            if is_special(node) and not (
                    node.ns == HTML_NS and node.name in ("address", "div", "p")):
                break
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        self._insert_element(token)

    def _ibs_dd_dt(self, token: tuple) -> None:
        self.frameset_ok = False
        for i in range(len(self.stack) - 1, -1, -1):
            node = self.stack[i]
            if node.ns == HTML_NS and node.name in ("dd", "dt"):
                self._generate_implied_end(exclude=node.name)
                if self.current.name != node.name:
                    self._err("unexpected-start-tag")
                self._pop_until_name(("dd", "dt"))
                break
            if is_special(node) and not (
                    node.ns == HTML_NS and node.name in ("address", "div", "p")):
                break
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        self._insert_element(token)

    def _ibs_plaintext(self, token: tuple) -> None:
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        self._insert_element(token)
        self.tokenizer.state = PLAINTEXT

    def _ibs_button(self, token: tuple) -> None:
        if self._has_in_scope("button"):
            self._err("unexpected-start-tag")
            self._generate_implied_end()
            self._pop_until_name("button")
        self._reconstruct_afe()
        self._insert_element(token)
        self.frameset_ok = False

    def _ibs_a(self, token: tuple) -> None:
        entry = self._afe_find("a")
        if entry is not None:
            self._err("unexpected-start-tag")
            el = entry[0]
            self._adoption_agency(("</>", "a", token[-2], token[-1]))
            if el in [e[0] for e in self.afe if e is not _MARKER]:
                self._afe_remove_element(el)
            self._remove_from_stack(el)
        self._reconstruct_afe()
        el = self._insert_element(token)
        self._afe_push(el, token)

    def _ibs_formatting(self, token: tuple) -> None:
        # b big code em font i s small strike strong tt u (+nobr re-entry)
        self._reconstruct_afe()
        if token[1] == "nobr" and self._has_in_scope("nobr"):
            self._err("unexpected-start-tag")
            self._adoption_agency(("</>", "nobr", token[-2], token[-1]))
            self._reconstruct_afe()
        el = self._insert_element(token)
        self._afe_push(el, token)

    def _ibs_applet(self, token: tuple) -> None:
        self._reconstruct_afe()
        self._insert_element(token)
        self._afe_push_marker()
        self.frameset_ok = False

    def _ibs_table(self, token: tuple) -> None:
        if (self.doc.quirks_mode != "quirks"
                and self._has_in_scope("p", SCOPE_BUTTON)):
            self._close_p()
        self._insert_element(token)
        self.frameset_ok = False
        self.mode = IN_TABLE

    def _ibs_void(self, token: tuple) -> None:
        # area br embed img keygen wbr
        self._reconstruct_afe()
        el = self._insert_element(token)
        self._ack_sc = True
        self.stack.pop()
        if self.capture_spans:
            el.end = token[-1]
        self.frameset_ok = False

    def _ibs_input(self, token: tuple) -> None:
        self._reconstruct_afe()
        el = self._insert_element(token)
        self._ack_sc = True
        self.stack.pop()
        if self.capture_spans:
            el.end = token[-1]
        type_attr = next((a[1] for a in token[2] if a[0] == "type"), None)
        if type_attr is None or type_attr.lower() != "hidden":
            self.frameset_ok = False

    def _ibs_param(self, token: tuple) -> None:
        # param source track
        el = self._insert_element(token)
        self._ack_sc = True
        self.stack.pop()
        if self.capture_spans:
            el.end = token[-1]

    def _ibs_hr(self, token: tuple) -> None:
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        el = self._insert_element(token)
        self._ack_sc = True
        self.stack.pop()
        if self.capture_spans:
            el.end = token[-1]
        self.frameset_ok = False

    def _ibs_image(self, token: tuple) -> None:
        self._err("unexpected-start-tag")
        # parse5 MUTATES the token's tagName to img (startTagImage), so
        # spans' end-location stamping and the trace channel's
        # currentToken observe the rewrite — mirror the foreign end-tag
        # rename (r5 transition sweep)
        renamed = (START, "img") + token[2:]
        self._cur_token = renamed
        if self.capture_spans:
            self._cur_tag_token = renamed
        if getattr(self, "_cur_tag_token_any", None) is not None:
            self._cur_tag_token_any = renamed
        self._in_body_start(renamed)

    def _ibs_textarea(self, token: tuple) -> None:
        self._insert_element(token)
        self.ignore_next_lf = True
        self.tokenizer.state = RCDATA
        self.tokenizer.last_start_tag = "textarea"
        self.orig_mode = self.mode
        self.frameset_ok = False
        self.mode = TEXT

    def _ibs_xmp(self, token: tuple) -> None:
        if self._has_in_scope("p", SCOPE_BUTTON):
            self._close_p()
        self._reconstruct_afe()
        self.frameset_ok = False
        self._parse_rawtext(token, RAWTEXT)

    def _ibs_iframe(self, token: tuple) -> None:
        self.frameset_ok = False
        self._parse_rawtext(token, RAWTEXT)

    def _ibs_noembed(self, token: tuple) -> None:
        self._parse_rawtext(token, RAWTEXT)

    def _ibs_select(self, token: tuple) -> None:
        self._reconstruct_afe()
        self._insert_element(token)
        self.frameset_ok = False
        if self.mode in (IN_TABLE, IN_CAPTION, IN_TABLE_BODY, IN_ROW, IN_CELL):
            self.mode = IN_SELECT_IN_TABLE
        else:
            self.mode = IN_SELECT

    def _ibs_optgroup_option(self, token: tuple) -> None:
        if self.current.ns == HTML_NS and self.current.name == "option":
            self._pop()
        self._reconstruct_afe()
        self._insert_element(token)

    def _ibs_rb_rtc(self, token: tuple) -> None:
        if self._has_in_scope("ruby"):
            self._generate_implied_end()
            if self.current.name != "ruby":
                self._err("unexpected-start-tag")
        self._insert_element(token)

    def _ibs_rp_rt(self, token: tuple) -> None:
        if self._has_in_scope("ruby"):
            self._generate_implied_end(exclude="rtc")
            if self.current.name not in ("rtc", "ruby"):
                self._err("unexpected-start-tag")
        self._insert_element(token)

    def _ibs_math(self, token: tuple) -> None:
        self._reconstruct_afe()
        self._ack_sc = True
        el = self._create_element(token, MATHML_NS, "math")
        self._insert_at(self._appropriate_place(), el)
        if token[3]:
            if self.capture_spans:
                el.end = token[-1]
        else:
            self.stack.append(el)

    def _ibs_svg(self, token: tuple) -> None:
        self._reconstruct_afe()
        self._ack_sc = True
        el = self._create_element(token, SVG_NS, "svg")
        self._insert_at(self._appropriate_place(), el)
        if token[3]:
            if self.capture_spans:
                el.end = token[-1]
        else:
            self.stack.append(el)

    def _ibs_table_err(self, token: tuple) -> None:
        # caption col colgroup frame head tbody td tfoot th thead tr
        self._err("unexpected-start-tag")

    def _ibs_default(self, token: tuple) -> None:
        self._reconstruct_afe()
        self._insert_element(token)

    # ---- in-body end tags (same table treatment) --------------------------

    def _in_body_end(self, token: tuple) -> None:
        _IN_BODY_END.get(token[1], _IBE_DEFAULT)(self, token)

    def _ibe_body(self, token: tuple) -> None:
        if not self._has_in_scope("body"):
            self._err("unexpected-end-tag")
            return
        self.mode = AFTER_BODY
        # parse5 bodyEndTagInBody: only the PROPERLY NESTED body (stack[1])
        # is updated, and _setEndLocation no-ops when the element has no
        # source location (implied <body>)
        if self.capture_spans and len(self.stack) > 1:
            body = self.stack[1]
            if (body.name == "body" and body.ns == HTML_NS
                    and body.start >= 0):
                body.end = token[-1]
                self._end_tagged.add(id(body))

    def _ibe_html(self, token: tuple) -> None:
        if not self._has_in_scope("body"):
            self._err("unexpected-end-tag")
            return
        self.mode = AFTER_BODY
        self._process(token)

    def _ibe_block(self, token: tuple) -> None:
        name = token[1]
        if not self._has_in_scope(name):
            self._err("unexpected-end-tag")
            return
        self._generate_implied_end()
        if self.current.name != name:
            self._err("end-tag-too-early")
        self._pop_until_name(name)

    def _ibe_form(self, token: tuple) -> None:
        if not any(e.name == "template" and e.ns == HTML_NS for e in self.stack):
            node = self.form_el
            self.form_el = None
            if node is None or not self._has_element_in_scope(node):
                self._err("unexpected-end-tag")
                return
            self._generate_implied_end()
            if self.current is not node:
                self._err("end-tag-too-early-ignored")
            self._remove_from_stack(node)
        else:
            if not self._has_in_scope("form"):
                self._err("unexpected-end-tag")
                return
            self._generate_implied_end()
            if self.current.name != "form":
                self._err("end-tag-too-early-ignored")
            self._pop_until_name("form")

    def _ibe_p(self, token: tuple) -> None:
        if not self._has_in_scope("p", SCOPE_BUTTON):
            self._err("unexpected-end-tag")
            self._insert_phantom("p")
        self._close_p()

    def _ibe_li(self, token: tuple) -> None:
        if not self._has_in_scope("li", SCOPE_LIST_ITEM):
            self._err("unexpected-end-tag")
            return
        self._generate_implied_end(exclude="li")
        if self.current.name != "li":
            self._err("end-tag-too-early")
        self._pop_until_name("li")

    def _ibe_dd_dt(self, token: tuple) -> None:
        name = token[1]
        if not self._has_in_scope(name):
            self._err("unexpected-end-tag")
            return
        self._generate_implied_end(exclude=name)
        if self.current.name != name:
            self._err("end-tag-too-early")
        self._pop_until_name(name)

    def _ibe_heading(self, token: tuple) -> None:
        name = token[1]
        if not self._has_heading_in_scope():
            self._err("unexpected-end-tag")
            return
        self._generate_implied_end()
        if self.current.name != name:
            self._err("end-tag-too-early")
        while self.stack:
            el = self._pop()
            if el.ns == HTML_NS and el.name in HEADINGS:
                break

    def _ibe_applet(self, token: tuple) -> None:
        name = token[1]
        if not self._has_in_scope(name):
            self._err("unexpected-end-tag")
            return
        self._generate_implied_end()
        if self.current.name != name:
            self._err("end-tag-too-early")
        self._pop_until_name(name)
        self._afe_clear_to_marker()

    def _ibe_br(self, token: tuple) -> None:
        self._err("unexpected-end-tag-treated-as")
        # parse5 synthesizes the br start token WITHOUT a location (the
        # resulting element has null sourceCodeLocation, like the
        # </p>-synthesized p) — r5 span sweep
        self._in_body_start((START, "br", [], False, -1, -1))

    # --------------------------------------------------- adoption agency

    def _adoption_agency(self, token: tuple) -> None:
        subject = token[1]
        cur = self.current
        if cur.ns == HTML_NS and cur.name == subject:
            # parse5 consults the AFE FIRST (aaObtainFormattingElementEntry):
            # a stale entry (element no longer on the stack, e.g. evicted by
            # an earlier AAA) is removed WITHOUT popping the current node.
            entry = self._afe_find(subject)
            if entry is not None and entry[0] is cur:
                # well-nested common case: fmt element is the current node →
                # first AAA iteration has no furthest block → pop + remove
                self._pop()
                self._afe_remove_element(cur)
                return
            if entry is None:
                # no AFE entry → genericEndTagInBody, which pops the
                # matching current node
                self._in_body_any_other_end(token)
                return
        for _ in range(8):
            entry = self._afe_find(subject)
            if entry is None:
                self._in_body_any_other_end(token)
                return
            fmt_el = entry[0]
            if fmt_el not in self.stack:
                self._err("adoption-agency-1.2")
                self._afe_remove_element(fmt_el)
                return
            # parse5 checks the TAG in scope, not the entry's element
            # (aaObtainFormattingElementEntry: hasInScope(token.tagID))
            if not self._has_in_scope(subject):
                self._err("adoption-agency-4.4")
                return
            if fmt_el is not self.current:
                self._err("adoption-agency-1.3")
            fmt_idx = self.stack.index(fmt_el)
            furthest = None
            for i in range(fmt_idx + 1, len(self.stack)):
                if is_special(self.stack[i]):
                    furthest = self.stack[i]
                    furthest_idx = i
                    break
            if furthest is None:
                while self.stack[-1] is not fmt_el:
                    self._pop()
                self._pop()
                self._afe_remove_element(fmt_el)
                return
            common_ancestor = self.stack[fmt_idx - 1]
            bookmark = self.afe.index(entry)
            node = furthest
            last_node = furthest
            node_idx = furthest_idx
            inner = 0
            while True:
                inner += 1
                node_idx -= 1
                node = self.stack[node_idx]
                if node is fmt_el:
                    break
                node_entry = None
                for e in self.afe:
                    if e is not _MARKER and e[0] is node:
                        node_entry = e
                        break
                if inner > 3 and node_entry is not None:
                    self.afe.remove(node_entry)
                    if self.afe.index(entry) < bookmark:
                        bookmark -= 1
                    node_entry = None
                if node_entry is None:
                    self._remove_from_stack(node)
                    continue
                # parse5 AAA clones carry NO source location
                # (aaRecreateElementFromEntry uses bare createElement)
                clone = Element(node.name, node.ns, list(node.attrs))
                node_entry[0] = clone
                self.stack[self.stack.index(node)] = clone
                node = clone
                if last_node is furthest:
                    bookmark = self.afe.index(node_entry) + 1
                self._detach(last_node)
                self._append(node, last_node)
                last_node = node
            self._detach(last_node)
            if (common_ancestor.ns == HTML_NS
                    and common_ancestor.name in TABLE_CONTEXT):
                saved = self.foster_parenting
                self.foster_parenting = True
                place = self._appropriate_place(common_ancestor)
                self.foster_parenting = saved
                self._insert_at(place, last_node)
            else:
                self._append(common_ancestor, last_node)
            clone = Element(fmt_el.name, fmt_el.ns, list(fmt_el.attrs))
            for child in list(furthest.children):
                self._detach(child)
                self._append(clone, child)
            self._append(furthest, clone)
            self._afe_remove_element(fmt_el)
            idx = min(bookmark, len(self.afe))
            self.afe.insert(idx, [clone, entry[1]])
            self._remove_from_stack(fmt_el)
            self.stack.insert(self.stack.index(furthest) + 1, clone)

    def _in_body_any_other_end(self, token: tuple) -> None:
        name = token[1]
        for i in range(len(self.stack) - 1, -1, -1):
            node = self.stack[i]
            # parse5 matches by tag id with NO namespace filter
            # (genericEndTagInBody, parser/index.js:2287-2304): an
            # </title> end tag closes through to an <svg title>
            if node.name == name:
                self._generate_implied_end(exclude=name)
                if self.current is not node:
                    self._err("unexpected-end-tag")
                self._pop_until_element(node)
                return
            if is_special(node):
                self._err("unexpected-end-tag")
                return

    # ------------------------------------------------------------ mode: text

    def _m_text(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1]
            start = token[2]
            if self.ignore_next_lf:
                self.ignore_next_lf = False
                if data.startswith("\n"):
                    data = data[1:]
                    if not data:
                        return
                    start = self._lf_strip_start(token, data, start)
            self._insert_text(data, start, token[3])
            return
        if kind == EOF:
            self._err("eof-in-element-that-can-contain-only-text")
            self._perr("eof-in-element-that-can-contain-only-text", token)
            # parse5 eofInText pops while currentToken is still the
            # element's own START tag (char tokens in TEXT mode don't
            # update it), so _setEndLocation lands on the not-an-end-tag
            # branch with that tag's startOffset → a ZERO-LENGTH span at
            # the element's start (differential-verified vs the fork)
            el = self.stack.pop()
            if self.capture_spans and el.start >= 0:
                el.end = el.start
            self.mode = self.orig_mode or IN_BODY
            self._process(token)
            return
        # end tag (the only other token possible here)
        self._pop()
        self.mode = self.orig_mode or IN_BODY

    def _parse_rawtext(self, token: tuple, tokenizer_state: str) -> None:
        self._insert_element(token)
        self.tokenizer.state = tokenizer_state
        self.tokenizer.last_start_tag = token[1]
        self.orig_mode = self.mode
        self.mode = TEXT

    # -------------------------------------------------------- mode: in table

    def _m_in_table(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            if self.current.ns == HTML_NS and self.current.name in TABLE_CONTEXT:
                self.pending_table_text = []
                self.orig_mode = self.mode
                self.mode = IN_TABLE_TEXT
                self._process(token)
                return
            self._in_table_anything_else(token)
            return
        if kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == START:
            name = token[1]
            if name == "caption":
                self._clear_stack_to_table_context()
                self._afe_push_marker()
                self._insert_element(token)
                self.mode = IN_CAPTION
                return
            if name == "colgroup":
                self._clear_stack_to_table_context()
                self._insert_element(token)
                self.mode = IN_COLUMN_GROUP
                return
            if name == "col":
                self._clear_stack_to_table_context()
                self._insert_phantom("colgroup")
                self.mode = IN_COLUMN_GROUP
                self._process(token)
                return
            if name in ("tbody", "tfoot", "thead"):
                self._clear_stack_to_table_context()
                self._insert_element(token)
                self.mode = IN_TABLE_BODY
                return
            if name in ("td", "th", "tr"):
                self._clear_stack_to_table_context()
                self._insert_phantom("tbody")
                self.mode = IN_TABLE_BODY
                self._process(token)
                return
            if name == "table":
                self._err("unexpected-start-tag-implies-end-tag")
                if not self._has_in_scope("table", SCOPE_TABLE):
                    return
                self._pop_until_name("table")
                self._reset_insertion_mode()
                self._process(token)
                return
            if name in ("style", "script", "template"):
                self._m_in_head(token)
                return
            if name == "input":
                type_attr = next((a[1] for a in token[2] if a[0] == "type"), None)
                if type_attr is None or type_attr.lower() != "hidden":
                    self._in_table_anything_else(token)
                    return
                self._err("unexpected-hidden-input-in-table")
                el = self._insert_element(token)
                self.stack.pop()
                self._ack_sc = True
                if self.capture_spans:
                    el.end = token[-1]
                return
            if name == "form":
                self._err("unexpected-form-in-table")
                if (self.form_el is not None
                        or any(e.name == "template" and e.ns == HTML_NS for e in self.stack)):
                    return
                el = self._insert_element(token)
                self.form_el = el
                self.stack.pop()
                if self.capture_spans:
                    # parse5 pops via openElements.pop() while currentToken
                    # is still the <form> START token → _setEndLocation's
                    # else branch stamps the token START (zero-width end)
                    el.end = token[-2]
                return
            self._in_table_anything_else(token)
            return
        if kind == END:
            name = token[1]
            if name == "table":
                if not self._has_in_scope("table", SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._pop_until_name("table")
                self._reset_insertion_mode()
                return
            if name in ("body", "caption", "col", "colgroup", "html", "tbody",
                        "td", "tfoot", "th", "thead", "tr"):
                self._err("unexpected-end-tag")
                return
            if name == "template":
                self._m_in_head(token)
                return
            self._in_table_anything_else(token)
            return
        if kind == EOF:
            self._m_in_body(token)

    def _in_table_anything_else(self, token: tuple) -> None:
        self._err("unexpected-token-in-table")
        self.foster_parenting = True
        self._m_in_body(token)
        self.foster_parenting = False

    def _clear_stack_to_table_context(self) -> None:
        while self.stack:
            cur = self.current
            if cur.ns == HTML_NS and cur.name in ("table", "template", "html"):
                return
            self._pop()

    # --------------------------------------------------- mode: in table text

    def _m_in_table_text(self, token: tuple) -> None:
        if token[0] == CHARS:
            data = token[1]
            if "\x00" in data:
                self._err("unexpected-null-character")
                data = data.replace("\x00", "")
            if data:
                self.pending_table_text.append((data, token[2], token[3]))
            return
        pending = self.pending_table_text
        self.pending_table_text = []
        all_ws = all(_is_type_ws(d) for d, _, _ in pending)
        if not all_ws:
            self._err("non-space-in-table-text")
            for d, s, e in pending:
                self.foster_parenting = True
                self._reconstruct_afe()
                self._insert_text(d, s, e)
                self.foster_parenting = False
                if not _is_type_ws(d):
                    self.frameset_ok = False
        else:
            for d, s, e in pending:
                self._insert_text(d, s, e)
        self.mode = self.orig_mode or IN_TABLE
        self._process(token)

    # ------------------------------------------------------ mode: in caption

    def _m_in_caption(self, token: tuple) -> None:
        kind = token[0]
        if kind == START and token[1] in ("caption", "col", "colgroup", "tbody",
                                          "td", "tfoot", "th", "thead", "tr"):
            if not self._has_in_scope("caption", SCOPE_TABLE):
                self._err("unexpected-start-tag")
                return
            self._generate_implied_end()
            if self.current.name != "caption":
                self._err("end-tag-too-early")
            self._pop_until_name("caption")
            self._afe_clear_to_marker()
            self.mode = IN_TABLE
            self._process(token)
            return
        if kind == END:
            name = token[1]
            if name == "caption":
                if not self._has_in_scope("caption", SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._generate_implied_end()
                if self.current.name != "caption":
                    self._err("end-tag-too-early")
                self._pop_until_name("caption")
                self._afe_clear_to_marker()
                self.mode = IN_TABLE
                return
            if name == "table":
                if not self._has_in_scope("caption", SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._generate_implied_end()
                if self.current.name != "caption":
                    self._err("end-tag-too-early")
                self._pop_until_name("caption")
                self._afe_clear_to_marker()
                self.mode = IN_TABLE
                self._process(token)
                return
            if name in ("body", "col", "colgroup", "html", "tbody", "td",
                        "tfoot", "th", "thead", "tr"):
                self._err("unexpected-end-tag")
                return
        self._m_in_body(token)

    # ------------------------------------------------- mode: in column group

    def _m_in_column_group(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1]
            ws_len = len(data) - len(data.lstrip(_TYPE_WS))
            if ws_len:
                self._insert_text(data[:ws_len], token[2],
                                  token[3] if ws_len == len(data) else token[2])
            if ws_len == len(data):
                return
            token = (CHARS, data[ws_len:], token[2] + ws_len, token[3])
        elif kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        elif kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        elif kind == START:
            name = token[1]
            if name == "html":
                self._m_in_body(token)
                return
            if name == "col":
                el = self._insert_element(token)
                self.stack.pop()
                self._ack_sc = True
                if self.capture_spans:
                    el.end = token[-1]
                return
            if name == "template":
                self._m_in_head(token)
                return
        elif kind == END:
            if token[1] == "colgroup":
                if self.current.name != "colgroup":
                    self._err("unexpected-end-tag")
                    return
                self._pop()
                self.mode = IN_TABLE
                return
            if token[1] == "col":
                self._err("unexpected-end-tag")
                return
            if token[1] == "template":
                self._m_in_head(token)
                return
        elif kind == EOF:
            self._m_in_body(token)
            return
        if self.current.name != "colgroup":
            self._err("unexpected-token")
            return
        self._pop()
        self.mode = IN_TABLE
        self._process(token)

    # --------------------------------------------------- mode: in table body

    def _m_in_table_body(self, token: tuple) -> None:
        kind = token[0]
        if kind == START:
            name = token[1]
            if name == "tr":
                self._clear_stack_to_table_body_context()
                self._insert_element(token)
                self.mode = IN_ROW
                return
            if name in ("th", "td"):
                self._err("unexpected-cell-in-table-body")
                self._clear_stack_to_table_body_context()
                self._insert_phantom("tr")
                self.mode = IN_ROW
                self._process(token)
                return
            if name in ("caption", "col", "colgroup", "tbody", "tfoot", "thead"):
                if not (self._has_in_scope("tbody", SCOPE_TABLE)
                        or self._has_in_scope("thead", SCOPE_TABLE)
                        or self._has_in_scope("tfoot", SCOPE_TABLE)):
                    self._err("unexpected-start-tag")
                    return
                self._clear_stack_to_table_body_context()
                self._pop()
                self.mode = IN_TABLE
                self._process(token)
                return
        elif kind == END:
            name = token[1]
            if name in ("tbody", "tfoot", "thead"):
                if not self._has_in_scope(name, SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._clear_stack_to_table_body_context()
                self._pop()
                self.mode = IN_TABLE
                return
            if name == "table":
                if not (self._has_in_scope("tbody", SCOPE_TABLE)
                        or self._has_in_scope("thead", SCOPE_TABLE)
                        or self._has_in_scope("tfoot", SCOPE_TABLE)):
                    self._err("unexpected-end-tag")
                    return
                self._clear_stack_to_table_body_context()
                self._pop()
                self.mode = IN_TABLE
                self._process(token)
                return
            if name in ("body", "caption", "col", "colgroup", "html", "td", "th", "tr"):
                self._err("unexpected-end-tag")
                return
        self._m_in_table(token)

    def _clear_stack_to_table_body_context(self) -> None:
        while self.stack:
            cur = self.current
            if cur.ns == HTML_NS and cur.name in ("tbody", "tfoot", "thead",
                                                  "template", "html"):
                return
            self._pop()

    # --------------------------------------------------------- mode: in row

    def _m_in_row(self, token: tuple) -> None:
        kind = token[0]
        if kind == START:
            name = token[1]
            if name in ("th", "td"):
                self._clear_stack_to_table_row_context()
                self._insert_element(token)
                self.mode = IN_CELL
                self._afe_push_marker()
                return
            if name in ("caption", "col", "colgroup", "tbody", "tfoot",
                        "thead", "tr"):
                if not self._has_in_scope("tr", SCOPE_TABLE):
                    self._err("unexpected-start-tag")
                    return
                self._clear_stack_to_table_row_context()
                self._pop()
                self.mode = IN_TABLE_BODY
                self._process(token)
                return
        elif kind == END:
            name = token[1]
            if name == "tr":
                if not self._has_in_scope("tr", SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._clear_stack_to_table_row_context()
                self._pop()
                self.mode = IN_TABLE_BODY
                return
            if name == "table":
                if not self._has_in_scope("tr", SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._clear_stack_to_table_row_context()
                self._pop()
                self.mode = IN_TABLE_BODY
                self._process(token)
                return
            if name in ("tbody", "tfoot", "thead"):
                # parse5 also proceeds when only a TR is in table scope
                # (endTagInRow: hasInTableScope(tid) || hasInTableScope(TR))
                # — the spec would ignore without the named section open
                if not (self._has_in_scope(name, SCOPE_TABLE)
                        or self._has_in_scope("tr", SCOPE_TABLE)):
                    self._err("unexpected-end-tag")
                    return
                self._clear_stack_to_table_row_context()
                self._pop()
                self.mode = IN_TABLE_BODY
                self._process(token)
                return
            if name in ("body", "caption", "col", "colgroup", "html", "td", "th"):
                self._err("unexpected-end-tag")
                return
        self._m_in_table(token)

    def _clear_stack_to_table_row_context(self) -> None:
        while self.stack:
            cur = self.current
            if cur.ns == HTML_NS and cur.name in ("tr", "template", "html"):
                return
            self._pop()

    # --------------------------------------------------------- mode: in cell

    def _m_in_cell(self, token: tuple) -> None:
        kind = token[0]
        if kind == START and token[1] in ("caption", "col", "colgroup", "tbody",
                                          "td", "tfoot", "th", "thead", "tr"):
            if not (self._has_in_scope("td", SCOPE_TABLE)
                    or self._has_in_scope("th", SCOPE_TABLE)):
                self._err("unexpected-start-tag")
                return
            self._close_cell()
            self._process(token)
            return
        if kind == END:
            name = token[1]
            if name in ("td", "th"):
                if not self._has_in_scope(name, SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._generate_implied_end()
                if self.current.name != name:
                    self._err("end-tag-too-early")
                self._pop_until_name(name)
                self._afe_clear_to_marker()
                self.mode = IN_ROW
                return
            if name in ("body", "caption", "col", "colgroup", "html"):
                self._err("unexpected-end-tag")
                return
            if name in ("table", "tbody", "tfoot", "thead", "tr"):
                if not self._has_in_scope(name, SCOPE_TABLE):
                    self._err("unexpected-end-tag")
                    return
                self._close_cell()
                self._process(token)
                return
        self._m_in_body(token)

    def _close_cell(self) -> None:
        self._generate_implied_end()
        if self.current.name not in ("td", "th"):
            self._err("cell-not-closed")
        while self.stack:
            el = self._pop()
            if el.ns == HTML_NS and el.name in ("td", "th"):
                break
        self._afe_clear_to_marker()
        self.mode = IN_ROW

    # ------------------------------------------------------- mode: in select

    def _m_in_select(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            data = token[1]
            if "\x00" in data:
                self._err("unexpected-null-character")
                data = data.replace("\x00", "")
            self._insert_text(data, token[2], token[3])
            return
        if kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == START:
            name = token[1]
            if name == "html":
                self._m_in_body(token)
                return
            if name == "option":
                if self.current.name == "option":
                    self._pop()
                self._insert_element(token)
                return
            if name == "optgroup":
                if self.current.name == "option":
                    self._pop()
                if self.current.name == "optgroup":
                    self._pop()
                self._insert_element(token)
                return
            if name == "hr":
                if self.current.name == "option":
                    self._pop()
                if self.current.name == "optgroup":
                    self._pop()
                el = self._insert_element(token)
                self.stack.pop()
                self._ack_sc = True
                if self.capture_spans:
                    el.end = token[-1]
                return
            if name == "select":
                self._err("unexpected-select-in-select")
                if self._has_in_select_scope("select"):
                    self._pop_until_name("select")
                    self._reset_insertion_mode()
                return
            if name in ("input", "keygen", "textarea"):
                self._err("unexpected-input-in-select")
                if not self._has_in_select_scope("select"):
                    return
                self._pop_until_name("select")
                self._reset_insertion_mode()
                self._process(token)
                return
            if name in ("script", "template"):
                self._m_in_head(token)
                return
        elif kind == END:
            name = token[1]
            if name == "optgroup":
                if (self.current.name == "option" and len(self.stack) > 1
                        and self.stack[-2].name == "optgroup"):
                    self._pop()
                if self.current.name == "optgroup":
                    self._pop()
                else:
                    self._err("unexpected-end-tag")
                return
            if name == "option":
                if self.current.name == "option":
                    self._pop()
                else:
                    self._err("unexpected-end-tag")
                return
            if name == "select":
                if not self._has_in_select_scope("select"):
                    self._err("unexpected-end-tag")
                    return
                self._pop_until_name("select")
                self._reset_insertion_mode()
                return
            if name == "template":
                self._m_in_head(token)
                return
        elif kind == EOF:
            self._m_in_body(token)
            return
        self._err("unexpected-token-in-select")

    # ---------------------------------------------- mode: in select in table

    def _m_in_select_in_table(self, token: tuple) -> None:
        kind = token[0]
        if kind == START and token[1] in ("caption", "table", "tbody", "tfoot",
                                          "thead", "tr", "td", "th"):
            self._err("unexpected-table-element-in-select")
            self._pop_until_name("select")
            self._reset_insertion_mode()
            self._process(token)
            return
        if kind == END and token[1] in ("caption", "table", "tbody", "tfoot",
                                        "thead", "tr", "td", "th"):
            self._err("unexpected-table-end-tag-in-select")
            if not self._has_in_scope(token[1], SCOPE_TABLE):
                return
            self._pop_until_name("select")
            self._reset_insertion_mode()
            self._process(token)
            return
        self._m_in_select(token)

    # ----------------------------------------------------- mode: in template

    def _m_undefined(self, token: tuple) -> None:
        """parse5's insertionMode=undefined: every HTML-context token falls
        through a JS switch with no matching case — dropped silently."""
        return

    def _m_in_template(self, token: tuple) -> None:
        kind = token[0]
        if kind in (CHARS, COMMENT, DOCTYPE):
            self._m_in_body(token)
            return
        if kind == START:
            name = token[1]
            # parse5's no-mode-change group excludes noscript
            # (startTagInTemplate, parser/index.js) — a noscript start falls
            # to the IN_BODY default and inserts generically when scripting
            # is disabled
            if name in _IN_HEAD_START and name != "noscript":
                self._m_in_head(token)
                return
            if name in ("caption", "colgroup", "tbody", "tfoot", "thead"):
                self.template_modes[-1] = IN_TABLE
                self.mode = IN_TABLE
                self._process(token)
                return
            if name == "col":
                self.template_modes[-1] = IN_COLUMN_GROUP
                self.mode = IN_COLUMN_GROUP
                self._process(token)
                return
            if name == "tr":
                self.template_modes[-1] = IN_TABLE_BODY
                self.mode = IN_TABLE_BODY
                self._process(token)
                return
            if name in ("td", "th"):
                self.template_modes[-1] = IN_ROW
                self.mode = IN_ROW
                self._process(token)
                return
            self.template_modes[-1] = IN_BODY
            self.mode = IN_BODY
            self._process(token)
            return
        if kind == END:
            if token[1] == "template":
                self._m_in_head(token)
            else:
                self._err("unexpected-end-tag")
            return
        if kind == EOF:
            if not any(e.name == "template" and e.ns == HTML_NS for e in self.stack):
                self._stop_parsing()
                return
            self._err("eof-in-template")
            self._pop_until_name("template")
            self._afe_clear_to_marker()
            if self.template_modes:
                self.template_modes.pop()
            self._reset_insertion_mode()
            self._process(token)

    # ------------------------------------------------------ mode: after body

    def _m_after_body(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            if _is_type_ws(token[1]):
                self._m_in_body(token)
                return
            self._err("unexpected-char-after-body")
            self.mode = IN_BODY
            self._process(token)
            return
        if kind == COMMENT:
            html_el = self.stack[0]
            self._append(html_el, Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == END and token[1] == "html":
            if self.fragment_context is not None:
                self._err("unexpected-end-tag")
                return
            self.mode = AFTER_AFTER_BODY
            # parse5 endTagAfterBody: html takes the end-tag END (only if
            # it has a source location); body, if not already end-tagged,
            # takes the end-tag START (else-branch of _setEndLocation)
            if self.capture_spans and self.stack:
                root = self.stack[0]
                if root.start >= 0:
                    root.end = token[-1]
                    self._end_tagged.add(id(root))
                if len(self.stack) > 1:
                    body = self.stack[1]
                    if body.start >= 0 and id(body) not in self._end_tagged:
                        body.end = token[-2]
            return
        if kind == EOF:
            self._stop_parsing()
            return
        self._err("unexpected-token-after-body")
        self.mode = IN_BODY
        self._process(token)

    # ----------------------------------------------------- mode: in frameset

    def _m_in_frameset(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            ws = "".join(c for c in token[1] if c in _TYPE_WS)
            if len(ws) != len(token[1]):
                self._err("unexpected-char-in-frameset")
            if ws:
                self._insert_text(ws, token[2], token[3])
            return
        if kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == START:
            name = token[1]
            if name == "html":
                self._m_in_body(token)
                return
            if name == "frameset":
                self._insert_element(token)
                return
            if name == "frame":
                el = self._insert_element(token)
                self.stack.pop()
                self._ack_sc = True
                if self.capture_spans:
                    el.end = token[-1]
                return
            if name == "noframes":
                self._m_in_head(token)
                return
        elif kind == END:
            if token[1] == "frameset":
                if self.current.name == "html":
                    self._err("unexpected-frameset-end")
                    return
                self._pop()
                if (self.fragment_context is None
                        and self.current.name != "frameset"):
                    self.mode = AFTER_FRAMESET
                return
        elif kind == EOF:
            if self.current.name != "html":
                self._err("eof-in-frameset")
            self._stop_parsing()
            return
        self._err("unexpected-token-in-frameset")

    # -------------------------------------------------- mode: after frameset

    def _m_after_frameset(self, token: tuple) -> None:
        kind = token[0]
        if kind == CHARS:
            ws = "".join(c for c in token[1] if c in _TYPE_WS)
            if len(ws) != len(token[1]):
                self._err("unexpected-char-after-frameset")
            if ws:
                self._insert_text(ws, token[2], token[3])
            return
        if kind == COMMENT:
            self._insert_at(self._appropriate_place(),
                            Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._err("unexpected-doctype")
            return
        if kind == START:
            if token[1] == "html":
                self._m_in_body(token)
                return
            if token[1] == "noframes":
                self._m_in_head(token)
                return
        elif kind == END:
            if token[1] == "html":
                self.mode = AFTER_AFTER_FRAMESET
                return
        elif kind == EOF:
            self._stop_parsing()
            return
        self._err("unexpected-token-after-frameset")

    # ------------------------------------------------ mode: after after body

    def _m_after_after_body(self, token: tuple) -> None:
        kind = token[0]
        if kind == COMMENT:
            self._append(self.doc, Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._m_in_body(token)
            return
        if kind == CHARS:
            if _is_type_ws(token[1]):
                self._m_in_body(token)
                return
            self._err("unexpected-char-after-body")
            self.mode = IN_BODY
            self._process(token)
            return
        if kind == START and token[1] == "html":
            self._m_in_body(token)
            return
        if kind == EOF:
            self._stop_parsing()
            return
        self._err("unexpected-token-after-body")
        self.mode = IN_BODY
        self._process(token)

    # -------------------------------------------- mode: after after frameset

    def _m_after_after_frameset(self, token: tuple) -> None:
        kind = token[0]
        if kind == COMMENT:
            self._append(self.doc, Comment(token[1], token[2], token[3]))
            return
        if kind == DOCTYPE:
            self._m_in_body(token)
            return
        if kind == CHARS:
            ws = "".join(c for c in token[1] if c in _TYPE_WS)
            if len(ws) != len(token[1]):
                self._err("unexpected-char-after-frameset")
            if ws:
                self._m_in_body((CHARS, ws, token[2], token[3]))
            return
        if kind == START and token[1] == "html":
            self._m_in_body(token)
            return
        if kind == START and token[1] == "noframes":
            self._m_in_head(token)
            return
        if kind == EOF:
            self._stop_parsing()
            return
        self._err("unexpected-token-after-frameset")

    # ---------------------------------------------------------- stop parsing

    def _stop_parsing(self) -> None:
        self.stopped = True
        if self.capture_spans:
            # mirror parse5 stopParsing: overwrite end locations for every
            # element still open (implied closes end at EOF), except html /
            # body whose explicit </html> / </body> end tags were recorded
            n = self.tokenizer.n
            target = 0 if self.fragment_context is not None else 2
            for i in range(len(self.stack) - 1, target - 1, -1):
                el = self.stack[i]
                if el.start >= 0:
                    el.end = n
            if self.fragment_context is None and self.stack:
                # parse5 stopParsing: body is extended ONLY when html has a
                # source location and no end tag — an implied <html> leaves
                # both html and the items[1] slot (body or frameset) at
                # their start-tag-derived ends
                html_el = self.stack[0]
                if html_el.start >= 0 and id(html_el) not in self._end_tagged:
                    html_el.end = n
                    if len(self.stack) > 1:
                        body_el = self.stack[1]
                        if (id(body_el) not in self._end_tagged
                                and body_el.start >= 0):
                            body_el.end = n
        self.stack.clear()


_MODE_HANDLERS = {
    INITIAL: TreeBuilder._m_initial,
    BEFORE_HTML: TreeBuilder._m_before_html,
    BEFORE_HEAD: TreeBuilder._m_before_head,
    IN_HEAD: TreeBuilder._m_in_head,
    IN_HEAD_NOSCRIPT: TreeBuilder._m_in_head_noscript,
    AFTER_HEAD: TreeBuilder._m_after_head,
    IN_BODY: TreeBuilder._m_in_body,
    TEXT: TreeBuilder._m_text,
    IN_TABLE: TreeBuilder._m_in_table,
    IN_TABLE_TEXT: TreeBuilder._m_in_table_text,
    IN_CAPTION: TreeBuilder._m_in_caption,
    IN_COLUMN_GROUP: TreeBuilder._m_in_column_group,
    IN_TABLE_BODY: TreeBuilder._m_in_table_body,
    IN_ROW: TreeBuilder._m_in_row,
    IN_CELL: TreeBuilder._m_in_cell,
    IN_SELECT: TreeBuilder._m_in_select,
    IN_SELECT_IN_TABLE: TreeBuilder._m_in_select_in_table,
    IN_TEMPLATE: TreeBuilder._m_in_template,
    IN_UNDEFINED: TreeBuilder._m_undefined,
    AFTER_BODY: TreeBuilder._m_after_body,
    IN_FRAMESET: TreeBuilder._m_in_frameset,
    AFTER_FRAMESET: TreeBuilder._m_after_frameset,
    AFTER_AFTER_BODY: TreeBuilder._m_after_after_body,
    AFTER_AFTER_FRAMESET: TreeBuilder._m_after_after_frameset,
}


# ---------------------------------------------------------------------------
# in-body dispatch tables: built in the PRIORITY ORDER of the former
# if/elif chains — setdefault preserves first-match-wins for names that
# appear in several groups (e.g. "a" beats FORMATTING).

def _build_in_body_tables():
    c = TreeBuilder
    start: dict = {}

    def fill(names, fn):
        for n in names:
            start.setdefault(n, fn)

    fill(("html",), c._ibs_html)
    fill((n for n in _IN_HEAD_START if n != "noscript"), c._m_in_head)
    fill(("noscript",), c._ibs_noscript)
    fill(("body",), c._ibs_body)
    fill(("frameset",), c._ibs_frameset)
    fill(_BLOCK_START, c._ibs_block)
    fill(HEADINGS, c._ibs_heading)
    fill(("pre", "listing"), c._ibs_pre_listing)
    fill(("form",), c._ibs_form)
    fill(("li",), c._ibs_li)
    fill(("dd", "dt"), c._ibs_dd_dt)
    fill(("plaintext",), c._ibs_plaintext)
    fill(("button",), c._ibs_button)
    fill(("a",), c._ibs_a)
    fill(FORMATTING, c._ibs_formatting)
    fill(("applet", "marquee", "object"), c._ibs_applet)
    fill(("table",), c._ibs_table)
    fill(("area", "br", "embed", "img", "keygen", "wbr"), c._ibs_void)
    fill(("input",), c._ibs_input)
    fill(("param", "source", "track"), c._ibs_param)
    fill(("hr",), c._ibs_hr)
    fill(("image",), c._ibs_image)
    fill(("textarea",), c._ibs_textarea)
    fill(("xmp",), c._ibs_xmp)
    fill(("iframe",), c._ibs_iframe)
    fill(("noembed",), c._ibs_noembed)
    fill(("select",), c._ibs_select)
    fill(("optgroup", "option"), c._ibs_optgroup_option)
    fill(("rb", "rtc"), c._ibs_rb_rtc)
    fill(("rp", "rt"), c._ibs_rp_rt)
    fill(("math",), c._ibs_math)
    fill(("svg",), c._ibs_svg)
    fill(("caption", "col", "colgroup", "frame", "head",
          "tbody", "td", "tfoot", "th", "thead", "tr"), c._ibs_table_err)

    end: dict = {}

    def fille(names, fn):
        for n in names:
            end.setdefault(n, fn)

    fille(("template",), c._m_in_head)
    fille(("body",), c._ibe_body)
    fille(("html",), c._ibe_html)
    fille(_BLOCK_END, c._ibe_block)
    fille(("form",), c._ibe_form)
    fille(("p",), c._ibe_p)
    fille(("li",), c._ibe_li)
    fille(("dd", "dt"), c._ibe_dd_dt)
    fille(HEADINGS, c._ibe_heading)
    fille(FORMATTING | {"nobr"}, c._adoption_agency)
    fille(("applet", "marquee", "object"), c._ibe_applet)
    fille(("br",), c._ibe_br)
    return start, end


_IN_BODY_START, _IN_BODY_END = _build_in_body_tables()
_IBS_DEFAULT = TreeBuilder._ibs_default
_IBE_DEFAULT = TreeBuilder._in_body_any_other_end
# kind-indexed (CHARS=0 START=1 END=2 COMMENT=3 DOCTYPE=4 EOF=5)
_IN_BODY_KIND = [TreeBuilder._ib_chars, TreeBuilder._in_body_start,
                 TreeBuilder._in_body_end, TreeBuilder._ib_comment,
                 TreeBuilder._ib_doctype, TreeBuilder._ib_eof]
