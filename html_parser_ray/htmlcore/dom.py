"""Lightweight DOM for tree construction + public-spec constant tables.

All tables are public WHATWG-spec data (tag categories, scope terminators,
quirks doctype lists, foreign-content adjustments). Behavioral parity target:
the reference's tree stage (reference: src/internal/vendor/parse5/common/html.js,
common/doctype.js, common/foreign-content.js — studied for behavior only).
"""

from __future__ import annotations

HTML_NS = "html"
SVG_NS = "svg"
MATHML_NS = "math"


class Document:
    __slots__ = ("children", "quirks_mode")
    # class-level None: lets insertion hot paths read parent.template_content
    # directly instead of a 3-arg getattr (only Elements carry the slot)
    template_content = None

    def __init__(self) -> None:
        self.children: list = []
        self.quirks_mode = "no-quirks"  # no-quirks | quirks | limited-quirks


class DocumentFragment:
    __slots__ = ("children",)
    template_content = None

    def __init__(self) -> None:
        self.children: list = []


class Element:
    __slots__ = ("name", "ns", "attrs", "children", "parent",
                 "start", "end", "attr_spans", "template_content")

    def __init__(self, name: str, ns: str = HTML_NS,
                 attrs: list[tuple[str, str]] | None = None,
                 start: int = -1, end: int = -1,
                 attr_spans: list[tuple[int, int]] | None = None):
        self.name = name
        self.ns = ns
        self.attrs: list[tuple[str, str]] = attrs if attrs is not None else []
        self.children: list = []
        self.parent = None
        self.start = start
        self.end = end
        self.attr_spans = attr_spans
        self.template_content: list | None = [] if name == "template" and ns == HTML_NS else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.ns}:{self.name} {len(self.children)} kids>"


class Text:
    __slots__ = ("value", "parent", "start", "end")

    def __init__(self, value: str, start: int = -1, end: int = -1):
        self.value = value
        self.parent = None
        self.start = start
        self.end = end


class Comment:
    __slots__ = ("value", "parent", "start", "end")

    def __init__(self, value: str, start: int = -1, end: int = -1):
        self.value = value
        self.parent = None
        self.start = start
        self.end = end


class Doctype:
    __slots__ = ("name", "public_id", "system_id", "parent", "start", "end")

    def __init__(self, name: str, public_id: str | None, system_id: str | None,
                 start: int = -1, end: int = -1):
        self.name = name
        self.public_id = public_id
        self.system_id = system_id
        self.parent = None
        self.start = start
        self.end = end


# ---------------------------------------------------------------------------
# spec tag categories

# NOTE: parse5 added `search` to its block dispatch lists but NOT to
# SPECIAL_ELEMENTS (common/html.js:421) — parity requires the same omission
SPECIAL_HTML = frozenset("""
address applet area article aside base basefont bgsound blockquote body br
button caption center col colgroup dd details dir div dl dt embed fieldset
figcaption figure footer form frame frameset h1 h2 h3 h4 h5 h6 head header
hgroup hr html iframe img input keygen li link listing main marquee menu meta
nav noembed noframes noscript object ol p param plaintext pre script
section select source style summary table tbody td template textarea tfoot th
thead title tr track ul wbr xmp
""".split())

SPECIAL_MATHML = frozenset(["mi", "mo", "mn", "ms", "mtext", "annotation-xml"])
SPECIAL_SVG = frozenset(["foreignObject", "desc", "title"])


def is_special(el: Element) -> bool:
    if el.ns == HTML_NS:
        return el.name in SPECIAL_HTML
    if el.ns == MATHML_NS:
        return el.name in SPECIAL_MATHML
    if el.ns == SVG_NS:
        return el.name in SPECIAL_SVG
    return False


FORMATTING = frozenset(["a", "b", "big", "code", "em", "font", "i", "nobr",
                        "s", "small", "strike", "strong", "tt", "u"])

IMPLIED_END = frozenset(["dd", "dt", "li", "optgroup", "option", "p",
                         "rb", "rp", "rt", "rtc"])
IMPLIED_END_THOROUGH = IMPLIED_END | frozenset(
    ["caption", "colgroup", "tbody", "td", "tfoot", "th", "thead", "tr"])

HEADINGS = frozenset(["h1", "h2", "h3", "h4", "h5", "h6"])

TABLE_CONTEXT = frozenset(["table", "tbody", "tfoot", "thead", "tr"])

# scope terminator sets: (html_names, mathml_names, svg_names)
_SCOPE_BASE_HTML = frozenset(["applet", "caption", "html", "table", "td",
                              "th", "marquee", "object", "template"])
SCOPE_DEFAULT = (_SCOPE_BASE_HTML, SPECIAL_MATHML, SPECIAL_SVG)
SCOPE_LIST_ITEM = (_SCOPE_BASE_HTML | {"ol", "ul"}, SPECIAL_MATHML, SPECIAL_SVG)
SCOPE_BUTTON = (_SCOPE_BASE_HTML | {"button"}, SPECIAL_MATHML, SPECIAL_SVG)
# parse5's hasInTableScope terminates ONLY at table/html — template is NOT
# a table-scope barrier there (open-element-stack.js:250-266), unlike the
# spec list; the clear-back-to-*-context sets DO stop at template
SCOPE_TABLE = (frozenset(["html", "table"]), frozenset(), frozenset())

WS_CHARS = "\t\n\f\r "


# ---------------------------------------------------------------------------
# quirks-mode doctype tables (WHATWG spec lists)

QUIRKS_PUBLIC_EXACT = frozenset([
    "-//w3o//dtd w3 html strict 3.0//en//",
    "-/w3c/dtd html 4.0 transitional/en",
    "html",
])
QUIRKS_SYSTEM_EXACT = frozenset([
    "http://www.ibm.com/data/dtd/v11/ibmxhtml1-transitional.dtd",
])
QUIRKS_PUBLIC_PREFIX = tuple("""
+//silmaril//dtd html pro v0r11 19970101//
-//as//dtd html 3.0 aswedit + extensions//
-//advasoft ltd//dtd html 3.0 aswedit + extensions//
-//ietf//dtd html 2.0 level 1//
-//ietf//dtd html 2.0 level 2//
-//ietf//dtd html 2.0 strict level 1//
-//ietf//dtd html 2.0 strict level 2//
-//ietf//dtd html 2.0 strict//
-//ietf//dtd html 2.0//
-//ietf//dtd html 2.1e//
-//ietf//dtd html 3.0//
-//ietf//dtd html 3.2 final//
-//ietf//dtd html 3.2//
-//ietf//dtd html 3//
-//ietf//dtd html level 0//
-//ietf//dtd html level 1//
-//ietf//dtd html level 2//
-//ietf//dtd html level 3//
-//ietf//dtd html strict level 0//
-//ietf//dtd html strict level 1//
-//ietf//dtd html strict level 2//
-//ietf//dtd html strict level 3//
-//ietf//dtd html strict//
-//ietf//dtd html//
-//metrius//dtd metrius presentational//
-//microsoft//dtd internet explorer 2.0 html strict//
-//microsoft//dtd internet explorer 2.0 html//
-//microsoft//dtd internet explorer 2.0 tables//
-//microsoft//dtd internet explorer 3.0 html strict//
-//microsoft//dtd internet explorer 3.0 html//
-//microsoft//dtd internet explorer 3.0 tables//
-//netscape comm. corp.//dtd html//
-//netscape comm. corp.//dtd strict html//
-//o'reilly and associates//dtd html 2.0//
-//o'reilly and associates//dtd html extended 1.0//
-//o'reilly and associates//dtd html extended relaxed 1.0//
-//sq//dtd html 2.0 hotmetal + extensions//
-//softquad software//dtd hotmetal pro 6.0::19990601::extensions to html 4.0//
-//softquad//dtd hotmetal pro 4.0::19971010::extensions to html 4.0//
-//spyglass//dtd html 2.0 extended//
-//sun microsystems corp.//dtd hotjava html//
-//sun microsystems corp.//dtd hotjava strict html//
-//w3c//dtd html 3 1995-03-24//
-//w3c//dtd html 3.2 draft//
-//w3c//dtd html 3.2 final//
-//w3c//dtd html 3.2//
-//w3c//dtd html 3.2s draft//
-//w3c//dtd html 4.0 frameset//
-//w3c//dtd html 4.0 transitional//
-//w3c//dtd html experimental 19960712//
-//w3c//dtd html experimental 970421//
-//w3c//dtd w3 html//
-//w3o//dtd w3 html 3.0//
-//webtechs//dtd mozilla html 2.0//
-//webtechs//dtd mozilla html//
""".split("\n")[1:-1])
QUIRKS_PUBLIC_PREFIX_NO_SYSTEM = (
    "-//w3c//dtd html 4.01 frameset//",
    "-//w3c//dtd html 4.01 transitional//",
)
LIMITED_QUIRKS_PUBLIC_PREFIX = (
    "-//w3c//dtd xhtml 1.0 frameset//",
    "-//w3c//dtd xhtml 1.0 transitional//",
)


def doctype_quirks(name: str | None, public_id: str | None,
                   system_id: str | None, force_quirks: bool) -> str:
    """Return 'quirks' | 'limited-quirks' | 'no-quirks' per spec."""
    if force_quirks or name != "html":
        return "quirks"
    pub = (public_id or "").lower()
    sys = (system_id or "").lower()
    if public_id is not None:
        if pub in QUIRKS_PUBLIC_EXACT:
            return "quirks"
        if pub.startswith(QUIRKS_PUBLIC_PREFIX):
            return "quirks"
        if system_id is None and pub.startswith(QUIRKS_PUBLIC_PREFIX_NO_SYSTEM):
            return "quirks"
    if system_id is not None and sys in QUIRKS_SYSTEM_EXACT:
        return "quirks"
    if public_id is not None:
        if pub.startswith(LIMITED_QUIRKS_PUBLIC_PREFIX):
            return "limited-quirks"
        if system_id is not None and pub.startswith(QUIRKS_PUBLIC_PREFIX_NO_SYSTEM):
            return "limited-quirks"
    return "no-quirks"


# ---------------------------------------------------------------------------
# foreign-content adjustment tables (WHATWG spec)

SVG_TAG_ADJUST = {t.lower(): t for t in """
altGlyph altGlyphDef altGlyphItem animateColor animateMotion animateTransform
clipPath feBlend feColorMatrix feComponentTransfer feComposite
feConvolveMatrix feDiffuseLighting feDisplacementMap feDistantLight
feDropShadow feFlood feFuncA feFuncB feFuncG feFuncR feGaussianBlur feImage
feMerge feMergeNode feMorphology feOffset fePointLight feSpecularLighting
feSpotLight feTile feTurbulence foreignObject glyphRef linearGradient
radialGradient textPath
""".split()}

SVG_ATTR_ADJUST = {a.lower(): a for a in """
attributeName attributeType baseFrequency baseProfile calcMode clipPathUnits
diffuseConstant edgeMode filterUnits glyphRef gradientTransform gradientUnits
kernelMatrix kernelUnitLength keyPoints keySplines keyTimes lengthAdjust
limitingConeAngle markerHeight markerUnits markerWidth maskContentUnits
maskUnits numOctaves pathLength patternContentUnits patternTransform
patternUnits pointsAtX pointsAtY pointsAtZ preserveAlpha preserveAspectRatio
primitiveUnits refX refY repeatCount repeatDur requiredExtensions
requiredFeatures specularConstant specularExponent spreadMethod startOffset
stdDeviation stitchTiles surfaceScale systemLanguage tableValues targetX
targetY textLength viewBox viewTarget xChannelSelector yChannelSelector
zoomAndPan
""".split()}

# foreign (namespaced) attributes -> the reference facade's public name.
# parse5's adjusted attrs carry (prefix, LOCAL name); the reference's
# formatAttributeName (build.ts:145-152) only emits the "prefix local" form
# when the name still CONTAINS a colon — never true after adjustment — so
# the public name is just the local part (xlink:href -> "href").
FOREIGN_ATTR_ADJUST = {
    "xlink:actuate": "actuate", "xlink:arcrole": "arcrole",
    "xlink:href": "href", "xlink:role": "role",
    "xlink:show": "show", "xlink:title": "title",
    "xlink:type": "type",
    "xml:base": "base", "xml:lang": "lang", "xml:space": "space",
    "xmlns": "xmlns", "xmlns:xlink": "xlink",
}

MATHML_TEXT_INTEGRATION = frozenset(["mi", "mo", "mn", "ms", "mtext"])
SVG_HTML_INTEGRATION = frozenset(["foreignObject", "desc", "title"])

# in-foreign-content breakout start tags (spec list)
FOREIGN_BREAKOUT = frozenset("""
b big blockquote body br center code dd div dl dt em embed h1 h2 h3 h4 h5 h6
head hr i img li listing menu meta nobr ol p pre ruby s small span strong
strike sub sup table tt u ul var
""".split())


def is_mathml_text_ip(el: Element) -> bool:
    return el.ns == MATHML_NS and el.name in MATHML_TEXT_INTEGRATION


def is_html_ip(el: Element) -> bool:
    if el.ns == SVG_NS and el.name in SVG_HTML_INTEGRATION:
        return True
    if el.ns == MATHML_NS and el.name == "annotation-xml":
        for name, value in el.attrs:
            if name == "encoding":
                v = value.lower()
                return v == "text/html" or v == "application/xhtml+xml"
    return False
