"""Public parse API — parity layer over the htmlcore kernel.

Mirrors the reference's public surface (reference: src/public/mod.ts:475-765):
``parse`` / ``parse_bytes`` / ``parse_fragment`` produce a tree whose nodes
carry POST-ORDER NodeIds (children numbered before their parent, document =
id 1 — reference: convertTreeNode, mod.ts:386-439), normalized WHATWG parse
error ids (mod.ts:260-269), metrics, and optional spans.

Spans are code-point offsets into the decoded, newline-normalized text
(the reference uses UTF-16 code-unit offsets; values are identical for
BMP-only input — divergence documented in SURVEY.md §7.4).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from .dom import Element, Text, HTML_NS
from .sniff import decode_html_bytes, SniffResult
from .treebuilder import TreeBuilder
from .tokenizer import normalize_newlines

_WHATWG_ID = re.compile(r"^[a-z0-9]+(?:-[a-z0-9]+)*$")

VOID_ELEMENTS = frozenset([
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
])


class BudgetExceededError(Exception):
    def __init__(self, budget: str, limit: int, actual: int):
        super().__init__(f"Budget exceeded: {budget} limit={limit} actual={actual}")
        self.payload = {"code": "BUDGET_EXCEEDED", "budget": budget,
                        "limit": limit, "actual": actual}


@dataclass(frozen=True)
class Budgets:
    max_input_bytes: int | None = None
    max_buffered_bytes: int | None = None
    max_nodes: int | None = None
    max_depth: int | None = None
    max_attributes_per_element: int | None = None
    max_attribute_bytes: int | None = None
    max_time_ms: int | None = None
    max_trace_events: int | None = None
    max_trace_bytes: int | None = None


@dataclass(frozen=True)
class ParseError:
    code: str            # always "PARSER_ERROR"
    parse_error_id: str  # normalized WHATWG id or "vendor:<raw>"
    message: str
    span: tuple[int, int] | None = None


@dataclass
class ParseTree:
    """Document or fragment result. ``children`` are htmlcore DOM nodes;
    their post-order NodeIds live in ``ids`` (node -> id) and ``by_id``
    (id -> node), both built on first use."""
    kind: str                       # "document" | "fragment"
    id: int                         # NodeId of the root (always 1)
    children: list
    errors: list[ParseError]
    quirks_mode: str
    n_nodes: int                    # total incl. root
    max_depth: int
    context_tag_name: str | None = None
    source_text: str = ""
    _ids: dict[int, int] | None = None       # id(node) -> NodeId (lazy)
    _by_id: dict[int, object] | None = None  # NodeId -> node (lazy)
    trace: list | None = None                # seq-ordered trace events
    encoding: SniffResult | None = None      # set for byte input

    @property
    def ids(self) -> dict[int, int]:
        if self._ids is None:
            self._ids, self._by_id = _assign_id_maps(self.children)
        return self._ids

    @property
    def by_id(self) -> dict[int, object]:
        if self._by_id is None:
            self._ids, self._by_id = _assign_id_maps(self.children)
        return self._by_id

    def node_id(self, node) -> int:
        return self.ids[id(node)]


_RECURSION_HEADROOM = 15_000


def ensure_recursion_headroom() -> None:
    """The tree walkers (extraction, serialization, id maps, select
    patch) recurse one Python frame per DOM level, but CPython's
    default limit (1000) sits far below the 4096-depth budget the
    pipeline admits — without this, any document deeper than ~990
    was quarantined as a RecursionError even though the reference
    parses and extracts it. On CPython ≥3.11 Python-to-Python calls
    do not consume C stack, so raising the limit is safe there; 15k
    covers the 4096 budget with margin for the walkers' per-level
    helper frames and nested fragment re-parses. On older interpreters
    the bump is NOT applied (deep frames there live on the C stack and
    a raised limit trades RecursionError for a possible segfault —
    deep documents quarantine instead, the pre-fix behavior). Note for
    3.12+: interpreter re-entry through C (e.g. a generator driven by
    str.join) has its own C-recursion cap that this cannot raise; the
    deep-document pytest trio is the canary if a walker grows such a
    pattern."""
    import sys
    if sys.version_info < (3, 11):
        return
    if sys.getrecursionlimit() < _RECURSION_HEADROOM:
        sys.setrecursionlimit(_RECURSION_HEADROOM)


def normalize_parse_error_id(raw: str) -> str:
    normalized = raw.strip()
    if not normalized:
        return "vendor:unknown"
    if _WHATWG_ID.match(normalized):
        return normalized
    return f"vendor:{normalized}"


# WHATWG HTML parsing spec, parse-errors section (public URL; the
# reference pins the SECTION anchor for every id rather than per-error
# anchors — parity requires the same, mod.ts:257,274-279)
WHATWG_PARSE_ERRORS_SECTION_URL = (
    "https://html.spec.whatwg.org/multipage/parsing.html#parse-errors")


def get_parse_error_spec_ref(parse_error_id: str) -> str:
    """Spec reference URL for a parse-error id — the debugging hook a
    user follows from an extract `status`/error payload to the WHATWG
    definition. Reference parity: `getParseErrorSpecRef`
    (src/public/mod.ts:274-279) deterministically returns the
    parse-errors SECTION anchor for every id (WHATWG or vendor:*) —
    the spec's per-error anchors are deliberately NOT guessed at, so
    the mapping can never dangle when the spec renames an anchor."""
    _ = parse_error_id
    return WHATWG_PARSE_ERRORS_SECTION_URL


# --------------------------------------------------------------------------
# select/option compatibility patch (reference: src/internal/tree/build.ts:307-381)

def _patch_select_adoption(root) -> None:
    def walk(node) -> None:
        kids = node.children if not isinstance(node, Element) or node.template_content is None \
            else node.template_content
        for child in kids:
            if isinstance(child, Element):
                walk(child)
        if not (isinstance(node, Element) and node.name == "body"):
            return
        children = node.children
        i = 0
        while i < len(children) - 1:
            left, right = children[i], children[i + 1]
            ok = (isinstance(left, Element) and left.name == "select"
                  and isinstance(right, Element) and right.name == "option"
                  and not left.attrs and not right.attrs
                  and len(left.children) == 1
                  and isinstance(left.children[0], Element)
                  and left.children[0].name == "option"
                  and not left.children[0].attrs)
            if not ok:
                i += 1
                continue
            sel_child = left.children[0]
            lw = Element("b", HTML_NS)
            lw.children = [sel_child]
            sel_child.parent = lw
            lw.parent = left
            left.children = [lw]

            detached = [c for c in right.children if isinstance(c, Text)]
            right.children = [c for c in right.children if not isinstance(c, Text)]
            rw = Element("b", HTML_NS)
            rw.children = [right]
            right.parent = rw
            rw.parent = node
            children[i + 1] = rw
            for j, t in enumerate(detached):
                t.parent = node
                children.insert(i + 2 + j, t)
            i += 1

    walk(root)


# --------------------------------------------------------------------------
# NodeId assignment (post-order, reference: convertTreeNode mod.ts:386-439)

def _assign_id_maps(children: list) -> tuple[dict[int, int], dict[int, object]]:
    ids: dict[int, int] = {}
    by_id: dict[int, object] = {}
    counter = [1]  # id 1 taken by root

    def visit(node) -> None:
        if isinstance(node, Element):
            for child in node.children:
                visit(child)
        counter[0] += 1
        ids[id(node)] = counter[0]
        by_id[counter[0]] = node

    for child in children:
        visit(child)
    return ids, by_id


def _compute_metrics(children: list) -> tuple[int, int]:
    # metrics (reference: collectMetrics mod.ts:441-473) — iterative,
    # batched per PARENT: this walk runs on EVERY parse, and pushing one
    # (children, depth) pair per parent beats one tuple per node
    # (count/max are order-insensitive)
    total, max_depth = 1, 1                      # the document node
    stack = [(children, 2)] if children else []
    while stack:
        kids, depth = stack.pop()
        total += len(kids)
        if depth > max_depth:
            max_depth = depth
        child_depth = depth + 1
        for node in kids:
            if isinstance(node, Element) and node.children:
                stack.append((node.children, child_depth))
    return total, max_depth


def _record_attribute_budget_errors(children: list, budgets: Budgets | None,
                                    errors: list[ParseError]) -> None:
    """Attribute budgets are recorded, not raised, one error per offending
    element in document order. The node and depth budgets raise instead,
    from ``_compute_metrics``' counts."""
    max_attrs = budgets.max_attributes_per_element if budgets else None
    max_attr_bytes = budgets.max_attribute_bytes if budgets else None
    if max_attrs is None and max_attr_bytes is None:
        return

    def budget_error(code: str) -> ParseError:
        # codes match the WHATWG id pattern, so normalization emits them
        # bare — like the reference's normalizeParseErrorId (mod.ts:260-269)
        return ParseError("PARSER_ERROR", normalize_parse_error_id(code), code)

    # iterative pre-order (reversed pushes keep document order) — one
    # frame per node blew the recursion limit on deep-but-in-budget trees
    stack = list(reversed(children))
    while stack:
        node = stack.pop()
        if not isinstance(node, Element):
            continue
        if max_attrs is not None and len(node.attrs) > max_attrs:
            errors.append(budget_error("max-attributes-per-element-exceeded"))
        if (max_attr_bytes is not None
                and sum(len(n) + len(v) for n, v in node.attrs)
                > max_attr_bytes):
            errors.append(budget_error("max-attribute-bytes-exceeded"))
        stack.extend(reversed(node.children))


def _enforce(budget: str, limit: int | None, actual: int) -> None:
    if limit is not None and actual > limit:
        raise BudgetExceededError(budget, limit, actual)


def _enforce_time(budgets: Budgets | None, start: float | None) -> None:
    """Soft maxTimeMs check after parsing, matching the reference's
    post-parse elapsed checks (mod.ts:545-546, :722, :820). Wall-clock is
    consulted only when the budget is set, so default pipeline output
    stays deterministic."""
    if budgets is None or budgets.max_time_ms is None or start is None:
        return
    import time
    elapsed_ms = int((time.monotonic() - start) * 1000)
    _enforce("maxTimeMs", budgets.max_time_ms, elapsed_ms)


def _time_budget_start(budgets: Budgets | None) -> float | None:
    if budgets is None or budgets.max_time_ms is None:
        return None
    import time
    return time.monotonic()


_POST_CONSUMPTION_ERRS = frozenset([
    "invalid-first-character-of-tag-name",
    "unexpected-solidus-in-tag",
    "unexpected-character-in-attribute-name",
    "unexpected-character-in-unquoted-attribute-value",
    # doctype-state errors report AT the already-consumed char, so the
    # preprocessor's input-stream error for that char precedes them
    # (r5 sweep: <!doctype\x7f...>); unexpected-null-character likewise
    # fires post-consumption and must keep its chronological slot after
    # missing-whitespace-before-doctype-name at the same offset — NUL is
    # never itself an input-stream error, so rank 2 cannot flip it
    # against one
    "missing-whitespace-before-doctype-name",
    "invalid-character-sequence-after-doctype-name",
    "missing-whitespace-after-doctype-public-keyword",
    "missing-whitespace-after-doctype-system-keyword",
    "missing-quote-before-doctype-public-identifier",
    "missing-quote-before-doctype-system-identifier",
    "unexpected-null-character",
])


def _collect_errors(builder: TreeBuilder, tokenizer_errors) -> list[ParseError]:
    """Reference-parity public error stream.

    The reference surfaces exactly what its vendored parse5 reports via
    onParseError (public/mod.ts:528-534 parseErrorTrace): every
    tokenizer/preprocessor error plus ~12 parser-level codes
    (parser/index.js _err sites, mirrored by TreeBuilder._perr). The
    builder's rich spec-error list (builder.errors) stays internal
    (trace counters, debugging). Streams interleave chronologically:
    tokenizer/input-stream errors at their consumption offset, parser
    errors between the last char of their token and the next char
    (key 2e-1), EOF-token parser errors after all tokenization (2n+1)."""
    from .tokenizer import scan_input_stream_errors
    entries: list[tuple[int, int, int, str, int, int]] = []
    seq = 0
    # ranks at equal key: most tokenizer errors are peek-driven (fire
    # before the char at their offset is consumed) < input-stream errors
    # (consume-driven) < character-token parser errors (flush-driven).
    # A few tokenizer errors report AT an already-consumed char and sort
    # after the input-stream error for it (verified per-site vs parse5).
    for code, offset in tokenizer_errors:
        rank = 2 if code in _POST_CONSUMPTION_ERRS else 0
        entries.append((2 * offset, rank, seq, code, offset, offset))
        seq += 1
    for code, offset in scan_input_stream_errors(builder.tokenizer.html):
        entries.append((2 * offset, 1, seq, code, offset, offset))
        seq += 1
    for code, start, end, key in builder.public_errors:
        entries.append((key, 3, seq, code, start, end))
        seq += 1
    entries.sort(key=lambda t: (t[0], t[1], t[2]))
    return [ParseError("PARSER_ERROR", normalize_parse_error_id(code),
                       code, (s, e))
            for _k, _r, _s2, code, s, e in entries]


def parse(html: str, *, scripting_enabled: bool = True,
          capture_spans: bool = False, budgets: Budgets | None = None,
          trace: bool = False) -> ParseTree:
    """Parse a document (reference parity target: src/public/mod.ts parse).

    OFFSET CONTRACT (deliberate divergence from the reference): all spans
    and error offsets are CODE-POINT offsets into the NEWLINE-NORMALIZED
    input (\\r\\n / \\r -> \\n), i.e. directly usable to slice this Python
    string. The reference, being a JS engine, reports UTF-16 code-unit
    offsets into the raw input — for documents containing \\r\\n or astral
    characters the two conventions differ by the number of collapsed CRs
    / astral chars before the offset. patch.compute_patch maps spans back
    to the original string where byte-accurate editing is required.
    """
    return _parse_tree(html, None, scripting_enabled, capture_spans,
                       budgets, trace)


def parse_bytes(data: bytes, *, transport_encoding_label: str | None = None,
                scripting_enabled: bool = True, capture_spans: bool = False,
                budgets: Budgets | None = None,
                trace: bool = False) -> ParseTree:
    _enforce("maxInputBytes",
             budgets.max_input_bytes if budgets else None, len(data))
    return parse_decoded(
        lambda: decode_html_bytes(data, transport_encoding_label),
        scripting_enabled=scripting_enabled, capture_spans=capture_spans,
        budgets=budgets, trace=trace)


def parse_decoded(decode: Callable[[], tuple[str, SniffResult]], *,
                  scripting_enabled: bool = True,
                  capture_spans: bool = False,
                  budgets: Budgets | None = None,
                  trace: bool = False) -> ParseTree:
    """The step after byte input is read, shared by ``parse_bytes`` and
    ``stream.parse_stream``: ``decode()`` returns the text and its sniff
    result; the text is parsed, ``max_time_ms`` is checked over decode and
    parse together (mod.ts:546/722), and the sniff result is attached as
    ``tree.encoding``."""
    time_start = _time_budget_start(budgets)
    text, sniff = decode()
    tree = parse(text, scripting_enabled=scripting_enabled,
                 capture_spans=capture_spans, budgets=budgets, trace=trace)
    _enforce_time(budgets, time_start)
    tree.encoding = sniff
    if tree.trace is not None:
        # decode trace appended after parse, as the reference does
        # (mod.ts:611-633)
        seq = (tree.trace[-1]["seq"] + 1) if tree.trace else 1
        tree.trace.append({"seq": seq, "kind": "decode", "source": "bytes",
                           "encoding": sniff.encoding,
                           "sniffSource": sniff.source})
    return tree


_CONTEXT_DOCUMENT_HTML = (
    "<!doctype html><html><head><title>x</title></head><body><table><tbody>"
    "<tr><td></td></tr><caption></caption><colgroup></colgroup></table>"
    "<frameset></frameset></body></html>"
)
_CONTEXT_DOCUMENT_FRAMESET = "<!doctype html><html><frameset></frameset></html>"


def _find_element(children, tag: str) -> Element | None:
    for child in children:
        if isinstance(child, Element):
            if child.name == tag:
                return child
            found = _find_element(child.children, tag)
            if found is not None:
                return found
            if child.template_content:
                found = _find_element(child.template_content, tag)
                if found is not None:
                    return found
    return None


def _create_fragment_context(tag: str) -> Element | None:
    tag = tag.strip().lower()
    if not tag:
        return None
    if tag == "frameset":
        doc = TreeBuilder().parse(_CONTEXT_DOCUMENT_FRAMESET)
        return _find_element(doc.children, tag)
    if tag in ("html", "head", "body", "title"):
        doc = TreeBuilder().parse(_CONTEXT_DOCUMENT_HTML)
        return _find_element(doc.children, tag)
    builder = TreeBuilder()
    frag = builder.parse_fragment(f"<{tag}></{tag}>", Element("template", HTML_NS))
    for child in frag.children:
        if isinstance(child, Element) and child.name == tag:
            return child
    return None


def parse_fragment(html: str, context_tag_name: str, *,
                   scripting_enabled: bool = True, capture_spans: bool = False,
                   budgets: Budgets | None = None,
                   trace: bool = False) -> ParseTree:
    normalized_context = context_tag_name.strip().lower()
    if not normalized_context:
        raise ValueError("contextTagName must be a non-empty tag name")
    return _parse_tree(html, normalized_context, scripting_enabled,
                       capture_spans, budgets, trace)


def _parse_tree(html: str, context_tag_name: str | None,
                scripting_enabled: bool, capture_spans: bool,
                budgets: Budgets | None, trace: bool) -> ParseTree:
    """Build, check and return a document (``context_tag_name`` None) or a
    fragment in that context: input and time budgets, the select patch,
    the public error stream, attribute budgets, metrics, the node and
    depth budgets, and the trace epilogue."""
    ensure_recursion_headroom()
    _enforce("maxInputBytes",
             budgets.max_input_bytes if budgets else None, len(html))
    time_start = _time_budget_start(budgets)
    text, _removed = normalize_newlines(html)
    sink = None
    if trace:
        # the reference's fragment path wires the same trace channel as
        # parse (mod.ts:689-712)
        from .trace import TraceSink, TracingTreeBuilder
        sink = TraceSink(budgets.max_trace_events if budgets else None,
                         budgets.max_trace_bytes if budgets else None)
        builder = TracingTreeBuilder(sink,
                                     scripting_enabled=scripting_enabled,
                                     capture_spans=capture_spans)
    else:
        builder = TreeBuilder(scripting_enabled=scripting_enabled,
                              capture_spans=capture_spans)
    if context_tag_name is None:
        root = builder.parse(text)
        kind, quirks_mode = "document", root.quirks_mode
    else:
        context = _create_fragment_context(context_tag_name)
        if context is None:
            context = Element("template", HTML_NS)
        root = builder.parse_fragment(text, context)
        kind, quirks_mode = "fragment", "no-quirks"
    if builder.saw_select:   # patch targets select/option pairs only
        _patch_select_adoption(root)
    errors = _collect_errors(builder, builder.tokenizer.errors)
    _record_attribute_budget_errors(root.children, budgets, errors)
    n_nodes, max_depth = _compute_metrics(root.children)
    _enforce("maxNodes", budgets.max_nodes if budgets else None, n_nodes)
    _enforce("maxDepth", budgets.max_depth if budgets else None, max_depth)
    _enforce_time(budgets, time_start)  # mod.ts:545, :820
    trace_events = None
    if sink is not None:
        sink.push("token", count=getattr(builder, "_token_count", 0))
        for err in errors:
            sink.push("parseError", parseErrorId=err.parse_error_id)
        trace_events = sink.events
    return ParseTree(kind, 1, root.children, errors, quirks_mode, n_nodes,
                     max_depth, context_tag_name, text, trace=trace_events)
