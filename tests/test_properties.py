"""Hypothesis property tests over the kernel surfaces.

Complements the golden/differential corpora with generative invariants:
- parse/parse_bytes never raise on arbitrary input (untrusted-input
  contract: budget trips and malformed bytes surface as errors/status,
  not exceptions),
- parse_stream over ANY chunking == parse_bytes over the concatenation
  (including chunk splits inside multi-byte UTF-8 sequences),
- visible_text determinism (same input → same output object-equal),
- PDF generator/extractor round-trip for arbitrary printable text,
- simhash/minhash determinism + locality sanity.
"""

from hypothesis import given, settings, strategies as st

from html_parser_ray.htmlcore.api import parse, parse_bytes
from html_parser_ray.htmlcore.extract import visible_text
from html_parser_ray.htmlcore.stream import parse_stream

_SETTINGS = dict(max_examples=120, deadline=None)

html_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFF),
    max_size=400)
markupish = st.lists(st.sampled_from(
    ["<div>", "</div>", "<p>", "<table>", "<td>", "</table>", "<b>", "</b>",
     "<svg>", "<math>", "<template>", "<!--", "-->", "<!doctype html>",
     "&amp;", "&#x41;", "&bogus;", "<a href='x'>", "</a>", "x y z", " ",
     "<script>", "</script>", "<title>", "</title>", "\x00", "�",
     "<![CDATA[", "]]>", "<", ">", "</", "=\"", "'"]), max_size=25)


@settings(**_SETTINGS)
@given(parts=markupish, tail=html_text)
def test_parse_never_raises_and_is_deterministic(parts, tail):
    html = "".join(parts) + tail
    t1 = parse(html)
    t2 = parse(html)
    assert visible_text(t1) == visible_text(t2)
    assert t1.n_nodes == t2.n_nodes
    assert [e.parse_error_id for e in t1.errors] == \
        [e.parse_error_id for e in t2.errors]


@settings(**_SETTINGS)
@given(data=st.binary(max_size=400))
def test_parse_bytes_never_raises_on_arbitrary_bytes(data):
    tree = parse_bytes(data)
    visible_text(tree)  # must not raise either


@settings(**_SETTINGS)
@given(parts=markupish, tail=html_text,
       cuts=st.lists(st.integers(min_value=0, max_value=800), max_size=8))
def test_stream_equals_bytes_under_any_chunking(parts, tail, cuts):
    data = ("".join(parts) + tail).encode("utf-8")
    bounds = sorted({min(c, len(data)) for c in cuts} | {0, len(data)})
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    whole = visible_text(parse_bytes(data))
    streamed = visible_text(parse_stream(chunks))
    assert streamed == whole


@settings(**_SETTINGS)
@given(lines=st.lists(
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x24F),
            max_size=60),
    min_size=1, max_size=6))
def test_pdf_roundtrip_property(lines):
    from html_parser_ray.pdfcore import extract_pdf_text, make_minimal_pdf
    # collapse: the generator writes one PDF line per entry; empty lines
    # still advance the cursor but show nothing, so drop them from the
    # expectation the same way the line join does
    got = extract_pdf_text(make_minimal_pdf([lines]))
    want = "\n".join(lines)
    # empty trailing/leading lines show as empty runs that produce no
    # block — normalize both sides by dropping empty lines
    assert [l for l in got.split("\n") if l != ""] == \
        [l for l in want.split("\n") if l != ""]


@settings(**_SETTINGS)
@given(text=st.text(max_size=300))
def test_simhash_minhash_deterministic(text):
    from html_parser_ray.functions.dedup import minhash_signature, simhash64
    assert simhash64(text) == simhash64(text)
    assert minhash_signature(text) == minhash_signature(text)
    assert 0 <= simhash64(text) < (1 << 63)


# ---------------------------------------------------------------------------
# round-3 curation-operator invariants

_line_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=60)


@given(st.lists(_line_text, max_size=10))
@settings(**_SETTINGS)
def test_c4_clean_idempotent(lines):
    """Every line c4 keeps still satisfies the line rules, so cleaning
    the cleaned text changes nothing (page rules may differ — compare
    the line layer)."""
    from html_parser_ray.functions.c4clean import c4_clean_doc
    text = "\n".join(lines)
    clean1, n1, _, _ = c4_clean_doc(text)
    clean2, n2, n_total2, _ = c4_clean_doc(clean1)
    if n1 == 0:
        assert clean2 == ""
    else:
        assert clean2 == clean1 and n2 == n1 == n_total2


@given(st.text(alphabet=st.characters(min_codepoint=0x20,
                                      max_codepoint=0x7E), max_size=200),
       st.integers(min_value=1, max_value=6))
@settings(**_SETTINGS)
def test_decontam_self_snippet_always_hits(text, n_tokens):
    """A document always contains its own snippet window."""
    from html_parser_ray.functions.decontam import _tokens, snippet_of
    snip = snippet_of(text, skip=0, n_tokens=n_tokens)
    if snip is not None:
        toks = _tokens(text)
        wins = {" ".join(toks[j:j + n_tokens])
                for j in range(len(toks) - n_tokens + 1)}
        assert snip in wins


@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1,
                max_size=50, unique=True),
       st.integers(min_value=1, max_value=64))
@settings(**_SETTINGS)
def test_shard_assign_pure_and_stable_under_batching(ids, n_shards):
    """Assignment is a pure per-row function: computing it on any batch
    split yields identical (shard, key) per id."""
    import pyarrow as pa
    from html_parser_ray.functions.sampling import shard_assign_batch
    whole = shard_assign_batch(
        pa.table({"doc_id": pa.array(ids, pa.int64())}),
        n_shards=n_shards, salt="s")
    w = {i: (s, k) for i, s, k in zip(whole.column("doc_id").to_pylist(),
                                      whole.column("shard").to_pylist(),
                                      whole.column("shuffle_key").to_pylist())}
    for piece in (ids[: len(ids) // 2], ids[len(ids) // 2:]):
        if not piece:
            continue
        part = shard_assign_batch(
            pa.table({"doc_id": pa.array(piece, pa.int64())}),
            n_shards=n_shards, salt="s")
        for i, s, k in zip(part.column("doc_id").to_pylist(),
                           part.column("shard").to_pylist(),
                           part.column("shuffle_key").to_pylist()):
            assert w[i] == (s, k)
            assert 0 <= s < n_shards and s == k % n_shards


@given(st.text(alphabet=st.sampled_from("abcde"), min_size=1, max_size=12),
       st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")),
                max_size=8))
@settings(**_SETTINGS)
def test_bpe_encode_reconstructs(word, raw_merges):
    """Encoding never loses characters: joined pieces == word + END."""
    from html_parser_ray.functions.bpe import END, bpe_encode
    merges = [tuple(m) for m in raw_merges]
    pieces = bpe_encode(word, merges)
    assert "".join(pieces) == word + END


@settings(max_examples=25, deadline=None)
@given(texts=st.lists(st.text(
    alphabet=st.sampled_from("ab cd"), max_size=30), max_size=8),
    min_count=st.integers(min_value=1, max_value=3))
def test_lm_score_broadcast_equals_joined_property(ray_session, texts,
                                                   min_count):
    """Generative pin of the r4 invariant: the over-limit join path is
    bit-identical to the broadcast path for arbitrary tiny corpora and
    any min_count (incl. all-empty / all-identical docs)."""
    import pyarrow as pa
    import ray
    from html_parser_ray.functions.lmscore import lm_score
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    if tbl.num_rows == 0:
        return
    ds = ray.data.from_arrow(tbl)

    def canon(d):
        return sorted((r["doc_id"], r["n_tokens"], r["nll_bits"],
                       r["mean_bits_bp"]) for r in d.take_all())

    # -1, not 0: an empty model (all-empty docs / everything pruned)
    # has count 0 and '0 > 0' would silently fall back to broadcast
    assert canon(lm_score(ds, min_count=min_count)) == \
        canon(lm_score(ds, min_count=min_count, broadcast_limit=-1,
                       num_partitions=4))


@settings(max_examples=20, deadline=None)
@given(texts=st.lists(st.text(
    alphabet=st.sampled_from("ab cd"), max_size=25), min_size=1,
    max_size=7),
    min_df=st.integers(min_value=1, max_value=3))
def test_top_terms_broadcast_equals_joined_property(ray_session, texts,
                                                    min_df):
    """Generative pin: top_terms' over-limit join path + segment argmax
    is bit-identical to the broadcast path for arbitrary corpora, any
    min_df (incl. all-words-pruned docs → ('', 0, 0, 0))."""
    import pyarrow as pa
    import ray
    from html_parser_ray.functions.tfidf import top_terms
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl)

    def canon(d):
        return sorted((r["doc_id"], r["top_term"], r["tf"], r["df"],
                       r["score"]) for r in d.take_all())

    assert canon(top_terms(ds, len(texts), min_df=min_df)) == \
        canon(top_terms(ds, len(texts), min_df=min_df,
                        broadcast_limit=-1, num_partitions=4))
