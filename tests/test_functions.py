"""Unit tests for the pure per-batch functions (dedup, textstats, ann) —
no Ray needed; batch transforms are plain pa.Table → pa.Table."""

import numpy as np
import pyarrow as pa

from html_parser_ray.functions import ann, dedup, textstats


def _doc_batch(texts, ids=None):
    ids = ids or list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string()),
                     "lang": pa.array(["en"] * len(texts), pa.string())})


# ---------------------------------------------------------------------------
# dedup primitives

def test_minhash_similar_docs_share_bands():
    a = "the quick brown fox jumps over the lazy dog " * 10
    b = a + "extra tail words here"
    c = "completely different content about other topics entirely " * 10
    sig_a = dedup.minhash_signature(a)
    sig_b = dedup.minhash_signature(b)
    sig_c = dedup.minhash_signature(c)
    bands_a = set(dedup.lsh_band_keys(sig_a))
    assert bands_a & set(dedup.lsh_band_keys(sig_b)), "near-dups must collide"
    assert not bands_a & set(dedup.lsh_band_keys(sig_c))


def test_minhash_deterministic():
    t = "some deterministic text for hashing purposes right here"
    assert dedup.minhash_signature(t) == dedup.minhash_signature(t)


def test_simhash_hamming_close_for_near_dups():
    a = "word " * 50 + "alpha beta gamma delta"
    b = "word " * 50 + "alpha beta gamma epsilon"
    c = "unrelated totally distinct vocabulary set here now"
    ha, hb, hc = dedup.simhash64(a), dedup.simhash64(b), dedup.simhash64(c)
    assert bin(ha ^ hb).count("1") < bin(ha ^ hc).count("1")


def test_jaccard_bounds():
    assert dedup.jaccard("a b c d e", "a b c d e") == 1.0
    assert dedup.jaccard("a b c d e", "v w x y z") == 0.0
    assert dedup.jaccard("", "") == 1.0


# ---------------------------------------------------------------------------
# textstats

def test_token_counts():
    assert textstats.ws_token_count("") == 0
    assert textstats.ws_token_count("  one  two\nthree ") == 3
    assert textstats.bpe_ish_token_count("don't stop 123!") == 6


def test_fingerprint_normalization_invariant():
    assert textstats.fingerprint_md5("A  b\tc") == textstats.fingerprint_md5("a b c")
    assert textstats.rolling_fingerprint("A  b\tc same tail words") == \
        textstats.rolling_fingerprint("a b c same tail words")


def test_detect_lang_scripts():
    assert textstats.detect_lang("这是一个中文文档的例子" * 5) == "zh"
    assert textstats.detect_lang("это русский текст пример" * 5) == "ru"
    assert textstats.detect_lang("the cat sat on the mat and it is a test") == "en"
    assert textstats.detect_lang("der hund ist nicht mit den katzen") == "de"
    assert textstats.detect_lang("12345 !!!") == "und"


def test_quality_features_shapes():
    n_chars, n_tok, n_bpe, n_lines, punct, alpha, stop = \
        textstats.quality_features("The cat. And a dog!\nSecond line.")
    assert n_chars > 0 and n_tok == 7 and n_lines == 2
    assert 0 <= punct <= 1 and 0 <= alpha <= 1 and 0 <= stop <= 1


def test_batch_transforms_schema():
    batch = _doc_batch(["hello world", "", "a b c"])
    out = textstats.token_count_batch(batch)
    assert out.column("n_ws_tokens").to_pylist() == [2, 0, 3]
    out = textstats.quality_batch(batch)
    assert out.num_rows == 3
    out = textstats.langid_batch(batch)
    assert out.column_names == ["doc_id", "lang_pred", "lang_true"]
    out = dedup.simhash_batch(batch)
    assert out.num_rows == 3


# ---------------------------------------------------------------------------
# ann primitives

def test_deterministic_query_vector_unit_norm():
    v1 = ann.deterministic_query_vector(64, seed=7)
    v2 = ann.deterministic_query_vector(64, seed=7)
    assert v1 == v2
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-5
    assert ann.deterministic_query_vector(64, seed=8) != v1


# ---------------------------------------------------------------------------
# LSH scale guards: bucket caps + hyperplane bucket cardinality

def test_cap_bucket_truncates_and_logs(caplog):
    import logging
    rows = [(i, b"sig") for i in range(50)]
    with caplog.at_level(logging.WARNING, logger="html_parser_ray.functions.dedup"):
        out = dedup._cap_bucket(rows, 10, "0:deadbeef")
    assert out == rows[:10]
    assert any("capping at 10" in r.message and "40 members dropped" in r.message
               for r in caplog.records)
    # under the cap: untouched, no log
    caplog.clear()
    assert dedup._cap_bucket(rows, 100, "k") == rows
    assert not caplog.records


def test_hyperplane_bucket_cardinality_grows_with_corpus():
    """Unlike the old fixed-low-bit sign scheme (<=2^4 buckets forever),
    hyperplane LSH bucket count scales with corpus size, keeping per-bucket
    O(k^2) verify bounded."""
    rng = np.random.RandomState(7)

    def n_buckets(n):
        vecs = rng.randn(n, 64).astype("float32")
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        keys = dedup.hyperplane_keys(unit, sign_bits=16, n_tables=1)[0]
        return len(set(keys))

    small, large = n_buckets(200), n_buckets(2000)
    assert large > small * 4          # cardinality keeps growing
    assert small > 100                # random vectors spread out immediately


def test_hyperplane_keys_deterministic_and_identical_vectors_collide():
    rng = np.random.RandomState(3)
    vecs = rng.randn(8, 32).astype("float32")
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    k1 = dedup.hyperplane_keys(unit, sign_bits=16, n_tables=4)
    k2 = dedup.hyperplane_keys(unit, sign_bits=16, n_tables=4)
    assert k1 == k2
    dup = np.vstack([unit, unit[:1]])
    k3 = dedup.hyperplane_keys(dup, sign_bits=16, n_tables=4)
    for t in range(4):
        assert k3[t][8] == k3[t][0]   # exact copy shares every table bucket


# ---------------------------------------------------------------------------
# repetition features (Gopher-style, Rae et al. 2021)

def test_repetition_counts_uniform_doc():
    # "a b c d" — all distinct, every 2/3-gram unique
    n, dupw, top2, top3, dup3 = textstats.repetition_counts("a b c d")
    assert n == 4
    assert dupw == 0
    # top 2-gram count 1, len("a b")=3, total chars 7 -> 3*10000//7
    assert top2 == 3 * 10_000 // 7
    assert top3 == 5 * 10_000 // 7
    assert dup3 == 0


def test_repetition_counts_fully_repeated():
    # "x x x x x": dup word frac = 4/5; every 3-gram is "x x x" (cnt 3)
    n, dupw, top2, top3, dup3 = textstats.repetition_counts("x x x x x")
    assert n == 5
    assert dupw == 4 * 10_000 // 5
    assert top2 == 4 * 3 * 10_000 // 9     # "x x" occurs 4x, len 3, text 9
    assert top3 == 3 * 5 * 10_000 // 9
    assert dup3 == 10_000                   # every word covered


def test_repetition_counts_tie_break_lexicographic():
    # "b a b a": 2-grams "b a"(2x? positions 0,2 -> b a, a b, b a) counts:
    # "b a"=2, "a b"=1 -> top is "b a" by count
    _, _, top2, _, _ = textstats.repetition_counts("b a b a")
    assert top2 == 2 * 3 * 10_000 // 7
    # all counts equal -> lexicographically smallest wins ("a b" < "b a")
    _, _, top2e, _, _ = textstats.repetition_counts("a b c a")
    # 2-grams: "a b","b c","c a" all cnt 1 -> "a b" chosen, len 3, total 7
    assert top2e == 3 * 10_000 // 7


def test_repetition_counts_empty_and_whitespace():
    assert textstats.repetition_counts("") == (0, 0, 0, 0, 0)
    assert textstats.repetition_counts("  \t\n ") == (0, 0, 0, 0, 0)
    assert textstats.repetition_counts("one") == (1, 0, 0, 0, 0)


def test_repetition_counts_dup3_partial_coverage():
    # "p q r p q r z": 3-gram "p q r" occurs 2x (positions 0 and 3);
    # covered word idx: 0..2 and 3..5 -> all but "z"
    n, _, _, _, dup3 = textstats.repetition_counts("p q r p q r z")
    assert n == 7
    word_chars = 7  # seven 1-char words
    assert dup3 == 6 * 10_000 // word_chars


# ---------------------------------------------------------------------------
# PII redaction

def test_redact_all_kinds():
    from html_parser_ray.functions import redact as rd
    text = ("mail bob.smith+x@sub.example.co.uk then 192.168.0.1 and "
            "+44-555-0199 done")
    out, ne, ni, np_ = rd.redact(text)
    assert out == "mail [EMAIL] then [IP] and [PHONE] done"
    assert (ne, ni, np_) == (1, 1, 1)


def test_redact_no_pii_is_identity():
    from html_parser_ray.functions import redact as rd
    text = "plain words only no contact info here"
    assert rd.redact(text) == (text, 0, 0, 0)


def test_redact_ip_word_boundary():
    from html_parser_ray.functions import redact as rd
    # version strings like 1.2.3.4.5 still match the first dotted quad
    # (\b boundaries are digit-edge, not dot-edge) — pin the behavior
    out, _, ni, _ = rd.redact("v 10.0.0.1 ok")
    assert out == "v [IP] ok" and ni == 1


def test_redact_batch_schema():
    from html_parser_ray.functions.redact import redact_batch
    batch = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array(["a@b.com x", "clean"], pa.string())})
    out = redact_batch(batch)
    assert out.column_names == ["doc_id", "text", "n_emails", "n_ips",
                                "n_phones"]
    assert out.column("text").to_pylist() == ["[EMAIL] x", "clean"]
    assert out.column("n_emails").to_pylist() == [1, 0]


# ---------------------------------------------------------------------------
# URL canonicalization

def test_canonicalize_url_full():
    from html_parser_ray.functions.urls import canonicalize_url
    canon, host, reg = canonicalize_url(
        "HTTP://WWW.Example.COM:80/a/b/../c/./d?utm_source=x&z=1&a=2#frag")
    assert canon == "http://www.example.com/a/c/d?a=2&z=1"
    assert host == "www.example.com"
    assert reg == "example.com"


def test_canonicalize_url_non_default_port_kept():
    from html_parser_ray.functions.urls import canonicalize_url
    canon, host, reg = canonicalize_url("https://Site.ORG:8443/x")
    assert canon == "https://site.org:8443/x"
    assert host == "site.org:8443"
    assert reg == "site.org"


def test_canonicalize_url_public_suffix_heuristic():
    from html_parser_ray.functions.urls import canonicalize_url
    _, _, reg = canonicalize_url("http://news.bbc.co.uk/page")
    assert reg == "bbc.co.uk"
    _, _, reg2 = canonicalize_url("http://a.b.example.net/")
    assert reg2 == "example.net"


def test_canonicalize_url_dotdot_past_root_and_empty_path():
    from html_parser_ray.functions.urls import canonicalize_url
    canon, _, _ = canonicalize_url("http://h.com/../../x")
    assert canon == "http://h.com/x"
    canon2, _, _ = canonicalize_url("http://h.com")
    assert canon2 == "http://h.com/"


def test_canonicalize_url_tracking_params_dropped():
    from html_parser_ray.functions.urls import canonicalize_url
    canon, _, _ = canonicalize_url(
        "http://h.com/p?gclid=1&utm_campaign=c&keep=1&fbclid=2")
    assert canon == "http://h.com/p?keep=1"


# ---------------------------------------------------------------------------
# sketches: Misra-Gries heavy hitters + exact quantiles

def test_misra_gries_bounds():
    from html_parser_ray.functions.sketches import misra_gries
    import random
    rng = random.Random(7)
    stream = (["hot"] * 500 + ["warm"] * 200
              + [f"w{rng.randrange(400)}" for _ in range(1000)])
    rng.shuffle(stream)
    capacity = 50
    summary = misra_gries(stream, capacity)
    assert len(summary) <= capacity
    true = {}
    for t in stream:
        true[t] = true.get(t, 0) + 1
    err = len(stream) / (capacity + 1)
    for w, wt in summary.items():
        assert wt <= true[w]                       # underestimate
        assert wt >= true[w] - err                 # bounded error
    # a word with frequency > N/(capacity+1) must be present
    assert "hot" in summary and "warm" in summary


def test_misra_gries_capacity_one():
    from html_parser_ray.functions.sketches import misra_gries
    # majority-element special case (Boyer-Moore)
    assert "a" in misra_gries(list("ababa"), 1)


def test_exact_quantiles_matches_numpy_rank(ray_session):
    import ray
    import numpy as np
    from html_parser_ray.functions.sketches import exact_quantiles
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 40, size=997).astype("int64")
    ds = ray.data.from_arrow(pa.table({"n_chars": pa.array(vals)}))
    ds = ds.repartition(7)
    out = exact_quantiles(ds, "n_chars", [0, 2500, 5000, 9000, 10000])
    got = dict(zip(out.column("q_bp").to_pylist(),
                   out.column("value").to_pylist()))
    s = np.sort(vals)
    n = len(s)
    for q_bp, v in got.items():
        rank = max(1, -(-q_bp * n // 10_000))
        assert v == s[rank - 1], (q_bp, v, s[rank - 1])


def test_heavy_hitters_exact_with_tiny_capacity(ray_session):
    # capacity smaller than vocab still yields the EXACT top-k because
    # the verify phase recounts candidates exactly and the true heavy
    # words survive the sketch prune
    import ray
    from html_parser_ray.functions.sketches import heavy_hitter_words
    texts = (["alpha beta alpha"] * 30 + ["gamma delta"] * 10
             + [f"rare{i} beta" for i in range(25)])
    ds = ray.data.from_arrow(pa.table({
        "text": pa.array(texts, pa.string())})).repartition(5)
    out = heavy_hitter_words(ds, k=3, capacity=8)
    words = out.column("word").to_pylist()
    counts = out.column("count").to_pylist()
    assert words[0:2] == ["alpha", "beta"]   # 60, 55
    assert counts[0:2] == [60, 55]
    assert counts == sorted(counts, reverse=True)


def test_top_terms_empty_doc(ray_session):
    import ray
    from html_parser_ray.functions.tfidf import top_terms
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["x x common", "common", "   "], pa.string())}))
    rows = {r["doc_id"]: r for r in top_terms(ds, n_docs=3).take_all()}
    # doc 1: x has tf=2, df=1 -> score 2*3000=6000; common tf=1 df=2 ->1500
    assert rows[1]["top_term"] == "x" and rows[1]["score"] == 6000
    assert rows[2]["top_term"] == "common" and rows[2]["df"] == 2
    assert rows[3]["top_term"] == "" and rows[3]["score"] == 0


def test_redact_ip_ascii_boundary_matches_re2():
    # r3 review fix: \b must be ASCII (re.ASCII) to match DuckDB RE2 —
    # a Unicode letter adjacent to the quad is NOT a word char in RE2,
    # so the IP still redacts on both engines.
    from html_parser_ray.functions import redact as rd
    out, _, ni, _ = rd.redact("see χ10.0.0.1 end")
    assert out == "see χ[IP] end" and ni == 1
    out2, _, ni2, _ = rd.redact("é8.8.8.8")
    assert out2 == "é[IP]" and ni2 == 1


def test_spandedup_pack_guard():
    # r3 review fix: block_idx past the packing limit raises a real
    # error (not an assert stripped by -O) — callers truncate instead.
    import pytest as _pytest
    from html_parser_ray.functions import spandedup as sd
    assert sd._pack(3, 5) == 3 * sd.BLOCK_LIMIT + 5
    with _pytest.raises(ValueError):
        sd._pack(0, sd.BLOCK_LIMIT)


# ---------------------------------------------------------------------------
# unigram LM scoring

def test_lm_score_tiny_corpus(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import lm_score, _ilog2
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a a b", "a c", ""], pa.string()),
    })
    got = {r["doc_id"]: r for r in
           lm_score(ray.data.from_arrow(tbl)).take_all()}
    # counts: a=3, b=1, c=1, N=5 → logN=2; bits(a)=2-1=1, bits(b|c)=2-0=2
    assert _ilog2(5) == 2
    assert got[1]["n_tokens"] == 3 and got[1]["nll_bits"] == 1 + 1 + 2
    assert got[1]["mean_bits_bp"] == 4 * 10_000 // 3
    assert got[2]["nll_bits"] == 1 + 2
    assert got[3] == {"doc_id": 3, "n_tokens": 0, "nll_bits": 0,
                      "mean_bits_bp": 0}


def test_lm_score_min_count_saturates_rare(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import lm_score
    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["x x x x rare", "x x x x"], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    full = {r["doc_id"]: r["nll_bits"] for r in lm_score(ds).take_all()}
    pruned = {r["doc_id"]: r["nll_bits"]
              for r in lm_score(ds, min_count=2).take_all()}
    # 'rare' (cnt=1) is pruned from the broadcast → falls back to cnt=1:
    # identical score; common tokens unaffected
    assert full == pruned


# ---------------------------------------------------------------------------
# stratified sampling

def test_stratified_sample_matches_bruteforce(ray_session):
    import ray
    from html_parser_ray.functions.sampling import (
        _md5_low64_str, stratified_sample)
    n = 200
    tbl = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "lang": pa.array([f"l{i % 3}" for i in range(n)], pa.string()),
    })
    ds = ray.data.from_arrow(tbl).repartition(7)   # force many batches
    got = sorted((r["lang"], r["doc_id"]) for r in stratified_sample(
        ds, group_col="lang", n_per_group=5).take_all())
    want = []
    for g in ("l0", "l1", "l2"):
        members = [i for i in range(n) if f"l{i % 3}" == g]
        members.sort(key=lambda i: (_md5_low64_str(str(i)), i))
        want += [(g, i) for i in members[:5]]
    assert got == sorted(want)
    # deterministic across runs
    again = sorted((r["lang"], r["doc_id"]) for r in stratified_sample(
        ds, group_col="lang", n_per_group=5).take_all())
    assert again == got


def test_stratified_sample_small_groups_keep_all(ray_session):
    import ray
    from html_parser_ray.functions.sampling import stratified_sample
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "lang": pa.array(["a", "a", "b"], pa.string()),
    })
    got = stratified_sample(ray.data.from_arrow(tbl), group_col="lang",
                            n_per_group=10).take_all()
    assert len(got) == 3


# ---------------------------------------------------------------------------
# benchmark decontamination

def test_decontam_planted_cross_doc_hit(ray_session):
    import ray
    from html_parser_ray.functions.decontam import (benchmark_snippets,
                                                    decontam_flags,
                                                    drop_contaminated)
    window = " ".join(f"w{i}" for i in range(13))
    bench_doc = "pre1 pre2 " + window + " tail1 tail2"      # doc_id 0 (0%97==0)
    leaked = "intro words here " + window + " more trailing text goes on"
    clean = " ".join(f"c{i}" for i in range(30))
    short = "too short"
    tbl = pa.table({
        "doc_id": pa.array([0, 5, 6, 7], pa.int64()),
        "text": pa.array([bench_doc, leaked, clean, short], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    snips = benchmark_snippets(ds, every=97, skip=2, n_tokens=13)
    assert snips == [window]
    flagged = {r["doc_id"]: (r["n_hits"], r["contaminated"])
               for r in decontam_flags(ds, snips).take_all()}
    assert flagged[0] == (1, 1)          # benchmark doc self-hit
    assert flagged[5] == (1, 1)          # planted leak detected
    assert flagged[6] == (0, 0)
    assert flagged[7] == (0, 0)
    kept = sorted(r["doc_id"] for r in
                  drop_contaminated(ds, snips).take_all())
    assert kept == [6, 7]
    # flag columns removed on the filtered path
    cols = drop_contaminated(ds, snips).schema().names
    assert "n_hits" not in cols and "contaminated" not in cols


def test_decontam_counts_every_matching_window(ray_session):
    import ray
    from html_parser_ray.functions.decontam import decontam_flags
    window = " ".join(f"w{i}" for i in range(13))
    doubled = window + " gap " + window
    tbl = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "text": pa.array([doubled], pa.string())})
    out = decontam_flags(ray.data.from_arrow(tbl), [window]).take_all()
    assert out[0]["n_hits"] == 2


def test_decontam_empty_benchmark_flags_nothing(ray_session):
    import ray
    from html_parser_ray.functions.decontam import decontam_flags
    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["a b c", ""], pa.string())})
    out = decontam_flags(ray.data.from_arrow(tbl), []).take_all()
    assert all(r["n_hits"] == 0 and r["contaminated"] == 0 for r in out)


def test_decontam_snippet_of_whitespace_classes():
    from html_parser_ray.functions.decontam import snippet_of
    # mixed ASCII whitespace separators collapse exactly like the
    # oracle's string_split_regex('[ \t\n\r\f]+')
    text = "a\tb\nc\rd\fe  f g h i j k l m n o p"
    assert snippet_of(text, skip=2, n_tokens=13) == \
        "c d e f g h i j k l m n o"
    assert snippet_of("one two three", skip=2, n_tokens=13) is None
    assert snippet_of("", skip=2, n_tokens=13) is None


# ---------------------------------------------------------------------------
# NFC normalization

def test_nfc_batch_composes_and_flags():
    import unicodedata
    from html_parser_ray.functions.textstats import nfc_batch
    decomposed = "école"            # e + combining acute
    jamo = "가"                  # Hangul jamo pair -> U+AC00
    already = "plain ascii text"
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([decomposed, jamo, already], pa.string()),
    })
    out = nfc_batch(batch)
    texts = out.column("text_nfc").to_pylist()
    assert texts[0] == "école" and out.column("changed")[0].as_py() == 1
    assert texts[1] == "가" and out.column("changed")[1].as_py() == 1
    assert texts[2] is already or texts[2] == already   # fast path: unchanged
    assert out.column("changed")[2].as_py() == 0
    assert out.column("n_chars_nfc").to_pylist() == [5, 1, len(already)]
    for t in texts:
        assert unicodedata.is_normalized("NFC", t)


def test_nfc_batch_fast_path_identity_object():
    from html_parser_ray.functions.textstats import nfc_batch
    batch = pa.table({"doc_id": pa.array([7], pa.int64()),
                      "text": pa.array(["already normal"], pa.string())})
    out = nfc_batch(batch)
    assert out.column("text_nfc").to_pylist() == ["already normal"]


# ---------------------------------------------------------------------------
# shuffle-shard assignment / training-shard writer

def test_shard_assign_deterministic_and_uniform(ray_session):
    import ray
    from html_parser_ray.functions.sampling import shard_assign
    n = 2000
    tbl = pa.table({"doc_id": pa.array(list(range(n)), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(5)
    rows = shard_assign(ds, n_shards=16, salt="s1").take_all()
    assert len(rows) == n
    by_id = {r["doc_id"]: (r["shard"], r["shuffle_key"]) for r in rows}
    # deterministic across runs
    again = {r["doc_id"]: (r["shard"], r["shuffle_key"])
             for r in shard_assign(ds, n_shards=16, salt="s1").take_all()}
    assert again == by_id
    # different salt reshuffles
    other = {r["doc_id"]: r["shuffle_key"]
             for r in shard_assign(ds, n_shards=16, salt="s2").take_all()}
    assert sum(other[i] != by_id[i][1] for i in range(n)) > n * 0.99
    # roughly uniform occupancy (16 shards x 125 expected)
    from collections import Counter
    occ = Counter(s for s, _ in by_id.values())
    assert len(occ) == 16 and max(occ.values()) < 2.0 * (n / 16)
    # shard = key % n_shards, key fits int64
    for i, (s, k) in by_id.items():
        assert 0 <= k < 2 ** 63 and s == k % 16


def test_write_training_shards_partitioned_resumable(ray_session, tmp_path):
    import os
    import ray
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads
    from html_parser_ray.functions.sampling import write_training_shards
    tbl = pa.table({"doc_id": pa.array(list(range(200)), pa.int64()),
                    "text": pa.array([f"t{i}" for i in range(200)],
                                     pa.string())})
    out = str(tmp_path / "shards")
    write_training_shards(ray.data.from_arrow(tbl), out, n_shards=8,
                          salt="w")
    d = pads.dataset(out, partitioning="hive")
    got = d.to_table()
    assert got.num_rows == 200
    shards = sorted(set(int(s) for s in
                        got.column("shard").to_pylist()))
    assert shards == list(range(8))
    # within-shard sort by shuffle_key yields a deterministic total order
    import pandas as pd
    df = got.to_pandas().astype({"shard": int})
    order1 = df.sort_values(["shard", "shuffle_key"])["doc_id"].tolist()
    assert order1 != sorted(order1)      # actually shuffled
    assert sorted(order1) == list(range(200))
    # one 512-row block of 32 chunks (the shape Ray Data hands a map after
    # a stage of small outputs): each shard file is still one row group
    chunked = pa.concat_tables([
        pa.table({"doc_id": pa.array(range(i, i + 16), pa.int64()),
                  "text": pa.array([f"t{j}" for j in range(i, i + 16)],
                                   pa.string())})
        for i in range(0, 512, 16)])
    assert chunked.column("doc_id").num_chunks == 32
    out2 = str(tmp_path / "shards_chunked")
    write_training_shards(ray.data.from_arrow(chunked), out2, n_shards=8,
                          salt="w")
    files = [os.path.join(root, f) for root, _, fs in os.walk(out2)
             for f in fs if f.endswith(".parquet")]
    assert len(files) == 8
    assert [pq.ParquetFile(f).metadata.num_row_groups
            for f in files] == [1] * 8
    got2 = pads.dataset(out2, partitioning="hive").to_table()
    assert sorted(got2.column("doc_id").to_pylist()) == list(range(512))


# ---------------------------------------------------------------------------
# sequence packing (distributed prefix sum)

def test_pack_spans_matches_bruteforce(ray_session):
    import ray, random
    from html_parser_ray.functions.packing import pack_spans
    from html_parser_ray.functions.textstats import ws_token_count
    rng = random.Random(11)
    # sparse, shuffled id space with empty docs mixed in
    ids = rng.sample(range(0, 5000), 300)
    texts = []
    for i in ids:
        k = rng.randint(0, 9)
        texts.append("" if k == 0 else " ".join(f"t{j}" for j in range(k)))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl).repartition(7)
    got = {r["doc_id"]: r for r in
           pack_spans(ds, example_len=16, range_size=100).take_all()}
    # brute force on the driver
    order = sorted(range(len(ids)), key=lambda j: ids[j])
    off = 0
    for j in order:
        n = ws_token_count(texts[j])
        r = got[ids[j]]
        assert r["n_tokens"] == n
        assert r["tok_start"] == off
        assert r["example_first"] == off // 16
        assert r["example_last"] == (off + max(n - 1, 0)) // 16
        off += n
    assert len(got) == 300


def test_pack_spans_deterministic(ray_session):
    import ray
    from html_parser_ray.functions.packing import pack_spans
    tbl = pa.table({"doc_id": pa.array([5, 1, 9], pa.int64()),
                    "text": pa.array(["a b c", "x", "p q"], pa.string())})
    ds = ray.data.from_arrow(tbl)
    one = sorted(map(tuple, (r.values() for r in
                             pack_spans(ds).take_all())))
    two = sorted(map(tuple, (r.values() for r in
                             pack_spans(ds).take_all())))
    assert one == two
    by_id = {r["doc_id"]: r["tok_start"]
             for r in pack_spans(ds).take_all()}
    assert by_id == {1: 0, 5: 1, 9: 4}


# ---------------------------------------------------------------------------
# grouped top-k

def test_grouped_topk_matches_bruteforce(ray_session):
    import ray, random
    from html_parser_ray.functions.topk import grouped_topk
    rng = random.Random(3)
    n = 400
    tbl = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "g": pa.array([f"g{i % 7}" for i in range(n)], pa.string()),
        "v": pa.array([rng.randint(0, 50) for _ in range(n)], pa.int64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(9)
    got = sorted((r["g"], r["doc_id"]) for r in grouped_topk(
        ds, group_col="g", value_col="v", k=6).take_all())
    vals = tbl.column("v").to_pylist()
    want = []
    for g in {f"g{i}" for i in range(7)}:
        members = [i for i in range(n) if f"g{i % 7}" == g]
        members.sort(key=lambda i: (-vals[i], i))
        want += [(g, i) for i in members[:6]]
    assert got == sorted(want)


def test_grouped_topk_ties_break_by_id(ray_session):
    import ray
    from html_parser_ray.functions.topk import grouped_topk
    tbl = pa.table({
        "doc_id": pa.array([9, 3, 5], pa.int64()),
        "g": pa.array(["x", "x", "x"], pa.string()),
        "v": pa.array([7, 7, 7], pa.int64()),
    })
    got = sorted(r["doc_id"] for r in grouped_topk(
        ray.data.from_arrow(tbl), group_col="g", value_col="v",
        k=2).take_all())
    assert got == [3, 5]


# ---------------------------------------------------------------------------
# incremental (delta) exact dedup

def _delta_fixture():
    existing = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["old one", "old two", "shared text"], pa.string()),
    })
    new = pa.table({
        "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "text": pa.array([
            "shared text",          # exists in corpus -> drop
            "fresh alpha",          # unique -> keep
            "fresh beta",           # first of a new pair -> keep
            "fresh beta",           # within-new dup -> drop
            "old two",              # exists in corpus -> drop
        ], pa.string()),
    })
    return existing, new


def test_delta_exact_dedup_both_drop_paths(ray_session):
    import ray
    from html_parser_ray.functions.dedup import delta_exact_dedup
    existing, new = _delta_fixture()
    out = delta_exact_dedup(ray.data.from_arrow(new),
                            ray.data.from_arrow(existing))
    rows = {r["doc_id"]: r["text"] for r in out.take_all()}
    assert rows == {11: "fresh alpha", 12: "fresh beta"}


def test_delta_exact_dedup_forced_fallback(ray_session):
    import ray
    from html_parser_ray.functions.dedup import delta_exact_dedup
    existing, new = _delta_fixture()
    out = delta_exact_dedup(ray.data.from_arrow(new),
                            ray.data.from_arrow(existing),
                            broadcast_limit=1, num_partitions=4)
    rows = {r["doc_id"]: r["text"] for r in out.take_all()}
    assert rows == {11: "fresh alpha", 12: "fresh beta"}


def test_delta_exact_dedup_empty_existing(ray_session):
    import ray
    from html_parser_ray.functions.dedup import delta_exact_dedup
    _, new = _delta_fixture()
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    out = delta_exact_dedup(ray.data.from_arrow(new),
                            ray.data.from_arrow(empty))
    kept = sorted(r["doc_id"] for r in out.take_all())
    assert kept == [10, 11, 12, 14]     # only the within-new dup drops


# ---------------------------------------------------------------------------
# HyperLogLog sketch

def test_hll_estimate_error_bounds(ray_session):
    import ray
    from html_parser_ray.functions.sketches import hll_estimate, hll_registers
    for true_n in (50, 500, 5000):
        tbl = pa.table({"val": pa.array(
            [f"item-{i % true_n}" for i in range(true_n * 3)], pa.string())})
        regs = hll_registers(ray.data.from_arrow(tbl).repartition(4),
                             "val", p=8)
        parts = [b for b in regs.iter_batches(batch_format="pyarrow")]
        est = hll_estimate(pa.concat_tables(parts), p=8)
        # HLL stderr at p=8 is ~1.04/sqrt(256) = 6.5%; allow 4 sigma
        assert abs(est - true_n) / true_n < 0.26, (true_n, est)


def test_hll_registers_mergeable(ray_session):
    import ray
    from html_parser_ray.functions.sketches import hll_registers
    vals = [f"u-{i}" for i in range(1000)]
    half_a = pa.table({"val": pa.array(vals[:500], pa.string())})
    half_b = pa.table({"val": pa.array(vals[500:], pa.string())})
    whole = pa.table({"val": pa.array(vals, pa.string())})

    def reg_map(t):
        out = {}
        for b in hll_registers(ray.data.from_arrow(t), "val",
                               p=6).iter_batches(batch_format="pyarrow"):
            for r, k in zip(b.column("reg").to_pylist(),
                            b.column("max_rank").to_pylist()):
                out[r] = max(out.get(r, 0), k)
        return out

    a, b, w = reg_map(half_a), reg_map(half_b), reg_map(whole)
    merged = dict(a)
    for r, k in b.items():
        merged[r] = max(merged.get(r, 0), k)
    assert merged == w


def test_hll_rank_rule_matches_bit_length():
    """The vectorized float-log2 rank (with its ±1 integer guard) must
    equal the exact bit_length rule on every hash — this is the delicate
    code path both HLL builders share via _hll_ranks."""
    from html_parser_ray.functions.sketches import _hll_hash63, _hll_ranks
    h = _hll_hash63([f"x{i}" for i in range(5000)])
    low_bits = 57
    got = _hll_ranks(h, low_bits)
    for v, g in zip(h, got):
        low = int(v) & ((1 << low_bits) - 1)
        want = low_bits - low.bit_length() + 1 if low else low_bits + 1
        assert g == want
    # boundary values the float path is most likely to get wrong
    edges = np.array([0, 1, 2, 3, (1 << 56) - 1, 1 << 56,
                      (1 << 57) - 1], dtype=np.int64)
    got_e = _hll_ranks(edges, low_bits)
    for v, g in zip(edges.tolist(), got_e):
        want = low_bits - v.bit_length() + 1 if v else low_bits + 1
        assert g == want


def test_hll_estimate_merges_duplicate_register_rows():
    """Concatenated per-shard register tables carry duplicate reg rows;
    the estimate must combine them by MAX (last-write-wins silently
    undercounts)."""
    from html_parser_ray.functions.sketches import hll_estimate
    hi = pa.table({"reg": pa.array([5], pa.int64()),
                   "max_rank": pa.array([9], pa.int64())})
    lo = pa.table({"reg": pa.array([5], pa.int64()),
                   "max_rank": pa.array([2], pa.int64())})
    merged_ab = hll_estimate(pa.concat_tables([hi, lo]), p=6)
    merged_ba = hll_estimate(pa.concat_tables([lo, hi]), p=6)
    assert merged_ab == merged_ba == hll_estimate(hi, p=6)


def test_url_blocklist_nondefault_port_still_blocked(ray_session):
    import ray
    from html_parser_ray.functions.urls import url_blocklist_flags
    tbl = pa.table({"url": pa.array(
        ["http://spam.example.com:8080/x",
         "http://sub.spam.example.com:8443/y",
         "http://ok.example.com/z"], pa.string())})
    rows = url_blocklist_flags(
        ray.data.from_arrow(tbl), blocked_domains=["spam.example.com"],
        blocked_substrings=[]).take_all()
    assert [r["blocked"] for r in rows] == [1, 1, 0]
    assert rows[0]["reason"] == "domain:spam.example.com"


def test_delta_dedup_custom_id_col(ray_session):
    import ray
    from html_parser_ray.functions.dedup import delta_exact_dedup
    ex = pa.table({"page_id": pa.array([1], pa.int64()),
                   "text": pa.array(["dup"], pa.string())})
    new = pa.table({"page_id": pa.array([10, 11, 12], pa.int64()),
                    "text": pa.array(["dup", "fresh", "fresh"],
                                     pa.string())})
    got = sorted((r["page_id"], r["text"]) for r in delta_exact_dedup(
        ray.data.from_arrow(new), ray.data.from_arrow(ex),
        id_col="page_id").take_all())
    assert got == [(11, "fresh")]


# ---------------------------------------------------------------------------
# C4-style line cleaning

def test_c4_line_rules():
    from html_parser_ray.functions.c4clean import c4_clean_doc
    text = "\n".join([
        "No terminal punctuation here",
        "This line has enough words right here.",
        "Too short.",
        "Please enable JavaScript to continue browsing now.",
        'A quoted line with plenty of words inside it."',
        "Another good line with many fine words!",
    ])
    clean, n_kept, n_total, page_kept = c4_clean_doc(text)
    assert n_total == 6
    assert clean.split("\n") == [
        "This line has enough words right here.",
        'A quoted line with plenty of words inside it."',
        "Another good line with many fine words!",
    ]
    assert n_kept == 3 and page_kept == 1


def test_c4_page_rules():
    from html_parser_ray.functions.c4clean import c4_clean_doc
    good = "\n".join(["One decent line with five words here."] * 3)
    assert c4_clean_doc(good)[3] == 1
    assert c4_clean_doc(good + "\nlorem IPSUM mixed case.")[3] == 0
    assert c4_clean_doc(good + "\nvar x = { a: 1 };")[3] == 0
    two = "\n".join(["One decent line with five words here."] * 2)
    assert c4_clean_doc(two)[3] == 0          # fewer than 3 kept lines


def test_c4_filter_dataset(ray_session):
    import ray
    from html_parser_ray.functions.c4clean import c4_filter
    good = "\n".join(["A perfectly ordinary sentence with words."] * 3)
    bad = good + "\nlorem ipsum dolor."
    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array([good, bad], pa.string())})
    rows = c4_filter(ray.data.from_arrow(tbl)).take_all()
    assert [r["doc_id"] for r in rows] == [1]
    assert rows[0]["text"] == good


# ---------------------------------------------------------------------------
# URL blocklist filtering

def test_url_blocklist_rules(ray_session):
    import ray
    from html_parser_ray.functions.urls import url_blocklist_flags
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "url": pa.array([
            "http://spam.example.com/x",        # exact-domain block
            "http://sub.spam.example.com/y",    # subdomain block
            "http://notspam.example.org/z",     # no match (no dot bound)
            "http://ok.example.org/casino/1",   # substring block
            "http://clean.example.org/fine",    # clean
        ], pa.string()),
    })
    rows = {r["doc_id"]: (r["blocked"], r["reason"]) for r in
            url_blocklist_flags(
                ray.data.from_arrow(tbl),
                blocked_domains=["spam.example.com"],
                blocked_substrings=["casino"]).take_all()}
    assert rows[1] == (1, "domain:spam.example.com")
    assert rows[2] == (1, "domain:spam.example.com")
    assert rows[3] == (0, "")
    assert rows[4] == (1, "substring:casino")
    assert rows[5] == (0, "")


def test_url_blocklist_domain_beats_substring(ray_session):
    import ray
    from html_parser_ray.functions.urls import url_blocklist_flags
    tbl = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "url": pa.array(["http://bad.com/casino"], pa.string())})
    rows = url_blocklist_flags(
        ray.data.from_arrow(tbl), blocked_domains=["bad.com"],
        blocked_substrings=["casino"]).take_all()
    assert rows[0]["reason"] == "domain:bad.com"


# ---------------------------------------------------------------------------
# BPE vocabulary induction

def test_bpe_merges_hand_example():
    from html_parser_ray.functions.bpe import END, bpe_merges
    # classic Sennrich example shape: 'low' x5, 'lower' x2
    counts = pa.table({"word": pa.array(["low", "lower"], pa.string()),
                       "n": pa.array([5, 2], pa.int64())})
    merges = bpe_merges(counts, 3)
    # 'l','o' (7) merges first; then 'lo','w' (7); then 'low','</w>' (5)
    assert merges[0] == ("l", "o")
    assert merges[1] == ("lo", "w")
    assert merges[2] == ("low", END)


def test_bpe_tie_break_lexicographic():
    from html_parser_ray.functions.bpe import bpe_merges
    counts = pa.table({"word": pa.array(["ab", "cd"], pa.string()),
                       "n": pa.array([3, 3], pa.int64())})
    # pairs (a,b), (b,</w>), (c,d), (d,</w>) all weight 3 -> ('a','b')
    assert bpe_merges(counts, 1)[0] == ("a", "b")


def test_bpe_train_deterministic_and_encodes(ray_session):
    import ray
    from html_parser_ray.functions.bpe import END, bpe_encode, bpe_train
    texts = ["the cat sat on the mat", "the cats sat", "a cat on a mat"] * 20
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl).repartition(5)
    m1 = bpe_train(ds, 10)
    m2 = bpe_train(ds, 10)
    assert m1 == m2 and len(m1) == 10
    # a tiny vocab exhausts: requesting more merges stops early
    assert len(bpe_train(ds, 1000)) == 14
    # frequent word 'the' becomes a single token with its end marker
    assert bpe_encode("the", m1) == ["the" + END]
    # unseen word still encodes (falls back to finer pieces)
    pieces = bpe_encode("thematic", m1)
    assert "".join(pieces) == "thematic" + END


# ---------------------------------------------------------------------------
# range partitioning

def test_range_partition_balanced_and_ordered(ray_session):
    import ray, random
    from html_parser_ray.functions.sketches import range_partition
    rng = random.Random(5)
    vals = [rng.randint(0, 10_000) for _ in range(1000)]
    tbl = pa.table({"doc_id": pa.array(range(1000), pa.int64()),
                    "n_chars": pa.array(vals, pa.int64())})
    out = range_partition(ray.data.from_arrow(tbl).repartition(6),
                          "n_chars", 4).take_all()
    assert len(out) == 1000
    by_bucket = {}
    for r in out:
        by_bucket.setdefault(r["bucket"], []).append(r["n_chars"])
    assert sorted(by_bucket) == [0, 1, 2, 3]
    # order property: every value in bucket k <= every value in bucket k+1
    for k in range(3):
        assert max(by_bucket[k]) <= min(by_bucket[k + 1])
    # balance: each bucket within 2x of the ideal quarter
    for k in range(4):
        assert 125 <= len(by_bucket[k]) <= 500


def test_range_partition_skewed_constant_column(ray_session):
    import ray
    from html_parser_ray.functions.sketches import range_partition
    tbl = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                    "n_chars": pa.array([7] * 50, pa.int64())})
    out = range_partition(ray.data.from_arrow(tbl), "n_chars", 4).take_all()
    # all-equal values: boundaries coincide, everything lands in bucket 0
    assert {r["bucket"] for r in out} == {0}


# ---------------------------------------------------------------------------
# compression-ratio quality signal

def test_compression_ratio_orders_text_quality():
    from html_parser_ray.functions.textstats import compression_ratio_batch
    repetitive = "spam spam spam spam " * 100
    prose = ("The committee considered seventeen distinct proposals, "
             "ranging from municipal drainage reform to an entirely "
             "speculative orbital elevator concept. ") * 10
    batch = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array([repetitive, prose, ""], pa.string())})
    out = compression_ratio_batch(batch)
    bp = out.column("compression_bp").to_pylist()
    assert bp[0] < bp[1]                  # repetition compresses harder
    assert bp[2] == 0                     # empty text -> 0, no crash
    assert out.column("n_bytes").to_pylist()[2] == 0
    # deterministic
    again = compression_ratio_batch(batch)
    assert again.column("compression_bp").to_pylist() == bp


# ---------------------------------------------------------------------------
# bigram LM scoring

def test_bigram_lm_tiny_corpus_exact(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import bigram_lm_score
    # corpus: "a b" x3, "a c" x1 -> cnt1: a=4, b=3, c=1; N=8
    # cnt2: (a,b)=3, (a,c)=1
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["a b", "a b", "a b", "a c"], pa.string()),
    })
    rows = {r["doc_id"]: r for r in bigram_lm_score(
        ray.data.from_arrow(tbl)).take_all()}
    # doc 0: first 'a' = ilog2(8)-ilog2(4) = 3-2 = 1;
    #        'b'|'a' = ilog2(4)-ilog2(3) = 2-1 = 1 -> nll 2
    assert rows[0]["nll_bits"] == 2 and rows[0]["n_tokens"] == 2
    assert rows[0]["mean_bits_bp"] == 2 * 10_000 // 2
    # doc 3: first 'a' = 1; 'c'|'a' = ilog2(4)-ilog2(1) = 2 -> nll 3
    assert rows[3]["nll_bits"] == 3
    # the rare continuation scores strictly higher than the common one
    assert rows[3]["mean_bits_bp"] > rows[0]["mean_bits_bp"]


def test_bigram_lm_word_salad_scores_higher_than_prose(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import bigram_lm_score, lm_score
    prose = ["the cat sat on the mat"] * 8
    salad = ["mat the on cat sat the"]       # same words, broken order
    tbl = pa.table({
        "doc_id": pa.array(range(9), pa.int64()),
        "text": pa.array(prose + salad, pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    bi = {r["doc_id"]: r["mean_bits_bp"]
          for r in bigram_lm_score(ds).take_all()}
    uni = {r["doc_id"]: r["mean_bits_bp"] for r in lm_score(ds).take_all()}
    # unigram can't tell them apart (same bag of words)...
    assert uni[8] == uni[0]
    # ...the bigram-conditional score can
    assert bi[8] > bi[0]


def test_bigram_lm_empty_and_single_token(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import bigram_lm_score
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array(["", "solo", "solo solo"],
                                     pa.string())})
    rows = {r["doc_id"]: r for r in bigram_lm_score(
        ray.data.from_arrow(tbl)).take_all()}
    assert rows[0]["n_tokens"] == 0 and rows[0]["nll_bits"] == 0
    assert rows[1]["n_tokens"] == 1          # first-token bits only
    assert rows[2]["n_tokens"] == 2


# ---------------------------------------------------------------------------
# inverted index

def test_inverted_index_df_and_cap(ray_session):
    import ray
    from html_parser_ray.functions.invindex import inverted_index
    tbl = pa.table({
        "doc_id": pa.array([3, 1, 2, 4], pa.int64()),
        "text": pa.array(["the cat", "the dog", "the cat cat", ""],
                         pa.string()),
    })
    rows = {r["term"]: r for r in inverted_index(
        ray.data.from_arrow(tbl), postings_cap=2).take_all()}
    # df counts DOCUMENTS (cat appears twice in doc 2 but df=2)
    assert rows["cat"]["df"] == 2 and rows["cat"]["postings"] == "2,3"
    # cap: 'the' is in docs 1,2,3 -> df exact, postings truncated to 2
    assert rows["the"]["df"] == 3 and rows["the"]["postings"] == "1,2"
    assert rows["dog"]["postings"] == "1"
    # empty doc contributes no terms
    assert all("4" not in r["postings"] for r in rows.values())


def test_inverted_index_partition_invariance(ray_session):
    import ray
    from html_parser_ray.functions.invindex import inverted_index
    tbl = pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array([f"w{i % 7} shared tail{i % 3}" for i in range(20)],
                         pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    a = sorted((r["term"], r["df"], r["postings"])
               for r in inverted_index(ds, num_partitions=2).take_all())
    b = sorted((r["term"], r["df"], r["postings"])
               for r in inverted_index(ds, num_partitions=17).take_all())
    assert a == b
    shared = [x for x in a if x[0] == "shared"][0]
    assert shared[1] == 20


# ---------------------------------------------------------------------------
# count-min sketch

def test_cms_overestimates_and_is_exact_without_collisions(ray_session):
    import ray
    from html_parser_ray.functions.sketches import cms_table, cms_estimate
    texts = ["apple apple banana", "apple cherry", "banana"] * 5
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    reg = pa.Table.from_pylist(
        cms_table(ray.data.from_arrow(tbl), width=2048, depth=4).take_all())
    true = {"apple": 15, "banana": 10, "cherry": 5}
    for w, t in true.items():
        est = cms_estimate(reg, w, width=2048, depth=4)
        assert est >= t                       # never underestimates
        assert est == t                       # 3 words in 2048 cells: exact
    assert cms_estimate(reg, "durian", width=2048, depth=4) == 0


def test_cms_registers_merge_by_addition(ray_session):
    import ray
    from html_parser_ray.functions.sketches import cms_table
    t1 = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array(["x y x"], pa.string())})
    t2 = pa.table({"doc_id": pa.array([1], pa.int64()),
                   "text": pa.array(["y z"], pa.string())})
    whole = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array(["x y x", "y z"], pa.string())})

    def regmap(tbl):
        rows = cms_table(ray.data.from_arrow(tbl), width=64,
                         depth=2).take_all()
        return {(r["d"], r["cell"]): r["cnt"] for r in rows}

    merged: dict = {}
    for part in (regmap(t1), regmap(t2)):
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    assert merged == regmap(whole)


# ---------------------------------------------------------------------------
# Bloom filter

def test_bloom_no_false_negatives_and_bounded_fp(ray_session):
    import ray
    from html_parser_ray.functions.sketches import (bloom_build,
                                                    bloom_might_contain)
    keys = [f"key-{i}" for i in range(200)]
    tbl = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                    "text": pa.array(keys, pa.string())})
    reg = pa.Table.from_pylist(
        bloom_build(ray.data.from_arrow(tbl), column="text",
                    n_words=256, k=4).take_all())
    assert all(bloom_might_contain(reg, k) for k in keys)
    # m=256*63=16128 bits, n=200, k=4 -> theoretical fp ~ 2e-7;
    # allow a generous margin on 1000 probes
    fp = sum(bloom_might_contain(reg, f"absent-{i}") for i in range(1000))
    assert fp <= 2
    # registers stay positive int64 (63-bit convention)
    assert all(r["bits"] > 0 for r in reg.to_pylist())


def test_bloom_registers_merge_by_or(ray_session):
    import ray
    from html_parser_ray.functions.sketches import bloom_build

    def regmap(vals):
        tbl = pa.table({"doc_id": pa.array(range(len(vals)), pa.int64()),
                        "text": pa.array(vals, pa.string())})
        rows = bloom_build(ray.data.from_arrow(tbl), column="text",
                           n_words=16, k=3).take_all()
        return {r["word_idx"]: r["bits"] for r in rows}

    a, b = regmap(["p", "q"]), regmap(["r"])
    merged: dict = dict(a)
    for k, v in b.items():
        merged[k] = merged.get(k, 0) | v
    assert merged == regmap(["p", "q", "r"])


# ---------------------------------------------------------------------------
# group-balanced downsampling

def test_group_balance_thins_to_smallest_group(ray_session):
    import ray
    from html_parser_ray.functions.sampling import group_balance
    # skew: 1000 'en', 200 'fr', 50 'de'
    langs = ["en"] * 1000 + ["fr"] * 200 + ["de"] * 50
    tbl = pa.table({"doc_id": pa.array(range(len(langs)), pa.int64()),
                    "lang": pa.array(langs, pa.string())})
    out = group_balance(ray.data.from_arrow(tbl),
                        group_col="lang").take_all()
    by = {}
    for r in out:
        by.setdefault(r["lang"], []).append(r["doc_id"])
    # smallest group's rate is exactly rate_scale -> kept whole
    assert len(by["de"]) == 50
    # others thinned to ~50 (hash-rate is binomial around mn)
    assert 20 <= len(by["en"]) <= 90
    assert 20 <= len(by["fr"]) <= 90


def test_group_balance_deterministic_and_partition_invariant(ray_session):
    import ray
    from html_parser_ray.functions.sampling import group_balance
    langs = (["en"] * 300 + ["fr"] * 60)
    tbl = pa.table({"doc_id": pa.array(range(len(langs)), pa.int64()),
                    "lang": pa.array(langs, pa.string())})

    def run(nblocks):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        return sorted((r["lang"], r["doc_id"])
                      for r in group_balance(ds, group_col="lang")
                      .take_all())

    assert run(1) == run(7)                   # partitioning-invariant
    # a doc's fate is a pure function of (id, salt, group rates):
    # rerunning yields the identical subset
    assert run(3) == run(3)


def test_group_balance_matches_bruteforce_rule(ray_session):
    import ray
    from html_parser_ray.functions.sampling import (_md5_low64_str,
                                                    group_balance)
    langs = ["a"] * 40 + ["b"] * 10
    tbl = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                    "lang": pa.array(langs, pa.string())})
    rates = {"a": 10 * 10000 // 40, "b": 10000}
    want = sorted(
        (langs[i], i) for i in range(50)
        if (_md5_low64_str(f"{i}:balance") & ((1 << 63) - 1)) % 10000
        < rates[langs[i]])
    got = sorted((r["lang"], r["doc_id"]) for r in group_balance(
        ray.data.from_arrow(tbl), group_col="lang").take_all())
    assert got == want


# ---------------------------------------------------------------------------
# grouped HLL

def test_hll_by_group_equals_per_group_hll(ray_session):
    import ray
    from html_parser_ray.functions.sketches import (hll_registers,
                                                    hll_registers_by_group)
    vals_a = [f"x-{i % 31}" for i in range(300)]
    vals_b = [f"y-{i % 97}" for i in range(300)]
    tbl = pa.table({
        "g": pa.array(["a"] * 300 + ["b"] * 300, pa.string()),
        "val": pa.array(vals_a + vals_b, pa.string()),
    })
    grouped = hll_registers_by_group(
        ray.data.from_arrow(tbl), group_col="g", col="val", p=6).take_all()
    got = {}
    for r in grouped:
        got.setdefault(r["g"], {})[r["reg"]] = r["max_rank"]
    for g, vals in (("a", vals_a), ("b", vals_b)):
        solo = {r["reg"]: r["max_rank"] for r in hll_registers(
            ray.data.from_arrow(pa.table({"val": pa.array(vals)})),
            "val", p=6).take_all()}
        assert got[g] == solo


def test_hll_by_group_estimates_per_group(ray_session):
    import ray
    from html_parser_ray.functions.sketches import (hll_estimate,
                                                    hll_registers_by_group)
    tbl = pa.table({
        "g": pa.array(["a"] * 500 + ["b"] * 500, pa.string()),
        "val": pa.array([f"u-{i % 40}" for i in range(500)]
                        + [f"w-{i}" for i in range(500)], pa.string()),
    })
    rows = hll_registers_by_group(
        ray.data.from_arrow(tbl), group_col="g", col="val", p=6).take_all()
    per = {}
    for r in rows:
        per.setdefault(r["g"], []).append(r)
    for g, true_n in (("a", 40), ("b", 500)):
        reg = pa.Table.from_pylist(
            [{"reg": r["reg"], "max_rank": r["max_rank"]} for r in per[g]])
        est = hll_estimate(reg, p=6)
        assert abs(est - true_n) / true_n < 0.35   # p=6 -> ~13% rse


# ---------------------------------------------------------------------------
# JSONL source

def test_read_jsonl_pins_schema_and_reads_gzip(ray_session, tmp_path):
    import gzip
    import json
    from html_parser_ray.sources.jsonl import read_jsonl
    rows = [{"doc_id": 1, "text": "hello\nworld", "n": 5},
            {"doc_id": 2, "text": "héllo   sep", "n": 7}]
    with open(tmp_path / "a.jsonl", "w") as f:
        f.write(json.dumps(rows[0], ensure_ascii=False) + "\n")
    with gzip.open(tmp_path / "b.jsonl.gz", "wt") as f:
        f.write(json.dumps(rows[1], ensure_ascii=False) + "\n")
    out = sorted(read_jsonl(str(tmp_path), schema={
        "doc_id": pa.int64(), "text": pa.string()}).take_all(),
        key=lambda r: r["doc_id"])
    # schema pinned: the extra 'n' column is dropped, types exact
    assert out == [{"doc_id": 1, "text": "hello\nworld"},
                   {"doc_id": 2, "text": "héllo   sep"}]


def test_read_jsonl_type_drift_fails_loudly(ray_session, tmp_path):
    import json
    import pytest
    from html_parser_ray.sources.jsonl import read_jsonl
    with open(tmp_path / "bad.jsonl", "w") as f:
        f.write(json.dumps({"doc_id": 1.5, "text": "x"}) + "\n")
    with pytest.raises(Exception):
        read_jsonl(str(tmp_path), schema={
            "doc_id": pa.int64(), "text": pa.string()}).take_all()


# ---------------------------------------------------------------------------
# global rank

def test_global_rank_matches_bruteforce(ray_session):
    import ray
    from html_parser_ray.functions.ranking import global_rank
    # ties: many rows share a value; ids deliberately unsorted
    vals = [(i * 7) % 5 for i in range(200)]
    ids = [(i * 131) % 200 for i in range(200)]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "v": pa.array(vals, pa.int64())})
    want = {d: r for r, (v, d) in enumerate(sorted(zip(vals, ids)))}
    for vpb in (1, 2, 256):
        got = {r["doc_id"]: r["rank"] for r in global_rank(
            ray.data.from_arrow(tbl), col="v", id_col="doc_id",
            values_per_bucket=vpb).take_all()}
        assert got == want


def test_global_rank_partition_invariant(ray_session):
    import ray
    from html_parser_ray.functions.ranking import global_rank
    tbl = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                    "v": pa.array([i % 13 for i in range(100)], pa.int64())})

    def run(nblocks):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        return sorted((r["doc_id"], r["rank"])
                      for r in global_rank(ds, col="v").take_all())

    a = run(1)
    assert a == run(9)
    assert [r for _, r in sorted(a, key=lambda x: x[1])] == list(range(100))


# ---------------------------------------------------------------------------
# exact grouped count-distinct

def test_distinct_count_by_group_exact(ray_session):
    import ray
    from html_parser_ray.functions.sketches import distinct_count_by_group
    g = ["a"] * 50 + ["b"] * 30 + ["c"] * 1
    v = [f"t{i % 7}" for i in range(50)] + [f"s{i % 30}" for i in range(30)] \
        + ["only"]
    tbl = pa.table({"lang": pa.array(g, pa.string()),
                    "text": pa.array(v, pa.string())})
    for hv in (True, False):
        got = {r["lang"]: r["n_distinct"] for r in distinct_count_by_group(
            ray.data.from_arrow(tbl).repartition(5), group_col="lang",
            col="text", hash_values=hv).take_all()}
        assert got == {"a": 7, "b": 30, "c": 1}


# ---------------------------------------------------------------------------
# Bloom-prefiltered delta dedup

def _delta_corpus():
    # new batch shares some texts with existing, repeats some within
    ex = pa.table({"doc_id": pa.array(range(0, 50), pa.int64()),
                   "text": pa.array([f"e-{i}" for i in range(50)],
                                    pa.string())})
    new_texts = ([f"e-{i}" for i in range(10)]          # dups vs existing
                 + ["n-rep"] * 3                         # within-new dups
                 + [f"n-{i}" for i in range(20)])        # genuinely new
    new = pa.table({"doc_id": pa.array(range(100, 100 + len(new_texts)),
                                       pa.int64()),
                    "text": pa.array(new_texts, pa.string())})
    return ex, new


def test_delta_dedup_bloom_identical_to_plain(ray_session):
    import ray
    from html_parser_ray.functions.dedup import (delta_exact_dedup,
                                                 delta_exact_dedup_bloom)
    ex, new = _delta_corpus()
    plain = sorted((r["doc_id"], r["text"]) for r in delta_exact_dedup(
        ray.data.from_arrow(new), ray.data.from_arrow(ex)).take_all())
    for n_words in (1, 4096):   # n_words=1: every probe collides ->
        bloom = sorted(          # all rows take the exact path; still exact
            (r["doc_id"], r["text"]) for r in delta_exact_dedup_bloom(
                ray.data.from_arrow(new), ray.data.from_arrow(ex),
                n_words=n_words).take_all())
        assert bloom == plain
    assert plain[0] == (110, "n-rep")     # within-new first occurrence kept
    assert all(not t.startswith("e-") for _, t in plain)


def test_delta_dedup_bloom_filters_existing_side(ray_session):
    """The prefilter drops existing markers that cannot collide: with a
    disjoint existing corpus the Bloom path keeps exactly the within-new
    dedup result (and the existing side contributes nothing)."""
    import ray
    from html_parser_ray.functions.dedup import (delta_exact_dedup,
                                                 delta_exact_dedup_bloom)
    ex = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                   "text": pa.array([f"z-{i}" for i in range(50)],
                                    pa.string())})
    new = pa.table({"doc_id": pa.array([100, 101, 102], pa.int64()),
                    "text": pa.array(["a", "a", "b"], pa.string())})
    got = sorted((r["doc_id"], r["text"]) for r in delta_exact_dedup_bloom(
        ray.data.from_arrow(new), ray.data.from_arrow(ex),
        n_words=4096).take_all())
    assert got == [(100, "a"), (102, "b")]
    want = sorted((r["doc_id"], r["text"]) for r in delta_exact_dedup(
        ray.data.from_arrow(new), ray.data.from_arrow(ex)).take_all())
    assert got == want



# ---------------------------------------------------------------------------
# kNN self-join

def _knn_vectors(n=120, dim=8, seed=7):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, dim)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float32())),
    }), m


def _knn_brute(m, k):
    from html_parser_ray.functions.ann import quantize_matrix
    q = quantize_matrix(m)
    S = q @ q.T
    want = {}
    n = len(q)
    for i in range(n):
        cand = sorted((int(-S[i, j]), j) for j in range(n) if j != i)[:k]
        want[i] = [(j, -d) for d, j in cand]
    return want


def test_knn_join_exact_at_full_probe(ray_session):
    import ray
    from html_parser_ray.functions.ann import knn_join
    tbl, m = _knn_vectors()
    want = _knn_brute(m, k=4)
    for nblocks in (1, 6):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        rows = knn_join(ds, k=4, n_cells=8, n_probe=8).take_all()
        got = {}
        for r in rows:
            got.setdefault(r["vec_id"], []).append(
                (r["neighbor_id"], r["dot_q"]))
        assert {v: sorted(g, key=lambda x: (-x[1], x[0]))
                for v, g in got.items()} == want


def test_knn_join_reduced_probe_recall(ray_session):
    import ray
    from html_parser_ray.functions.ann import knn_join
    tbl, m = _knn_vectors(n=200)
    want = _knn_brute(m, k=3)
    rows = knn_join(ray.data.from_arrow(tbl), k=3, n_cells=8,
                    n_probe=4).take_all()
    got = {}
    for r in rows:
        got.setdefault(r["vec_id"], set()).add(r["neighbor_id"])
    hits = sum(len(got.get(v, set()) & {j for j, _ in nb})
               for v, nb in want.items())
    total = sum(len(nb) for nb in want.values())
    assert hits / total > 0.5     # half the probes, decent recall


def test_knn_join_self_excluded_and_k_capped(ray_session):
    import ray
    from html_parser_ray.functions.ann import knn_join
    tbl, _ = _knn_vectors(n=3)
    rows = knn_join(ray.data.from_arrow(tbl), k=10, n_cells=2,
                    n_probe=2).take_all()
    for r in rows:
        assert r["vec_id"] != r["neighbor_id"]
    by = {}
    for r in rows:
        by.setdefault(r["vec_id"], []).append(r)
    assert all(len(v) == 2 for v in by.values())    # n-1 neighbors max


# ---------------------------------------------------------------------------
# grouped quantiles

def test_grouped_quantiles_matches_bruteforce(ray_session):
    import math
    import ray
    from html_parser_ray.functions.sketches import grouped_quantiles
    g = ["a"] * 101 + ["b"] * 7
    v = [((i * 37) % 50) for i in range(101)] + [9, 1, 1, 5, 7, 3, 2]
    tbl = pa.table({"lang": pa.array(g, pa.string()),
                    "val": pa.array(v, pa.int64())})
    q_bps = [1, 2500, 5000, 7500, 9900, 10000]
    rows = grouped_quantiles(
        ray.data.from_arrow(tbl).repartition(4), group_col="lang",
        col="val", q_bps=q_bps).take_all()
    got = {(r["lang"], r["q_bp"]): r["value"] for r in rows}
    for grp in ("a", "b"):
        s = sorted(val for gg, val in zip(g, v) if gg == grp)
        for q in q_bps:
            rank = max(1, math.ceil(q * len(s) / 10000))
            assert got[(grp, q)] == s[rank - 1], (grp, q)
    assert len(got) == 2 * len(q_bps)


# ---------------------------------------------------------------------------
# grouped vector sums

def test_grouped_vector_sum_matches_bruteforce(ray_session):
    import ray
    from html_parser_ray.functions.ann import (grouped_vector_sum,
                                               quantize_matrix)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(60, 4)).astype(np.float32)
    labels = [i % 3 for i in range(60)]
    tbl = pa.table({
        "label": pa.array(labels, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float32())),
    })
    rows = grouped_vector_sum(
        ray.data.from_arrow(tbl).repartition(5),
        group_col="label").take_all()
    got = {(r["label"], r["dim"]): (r["sum_q"], r["n_vecs"])
           for r in rows}
    q = quantize_matrix(m)
    for lbl in range(3):
        sel = q[np.array(labels) == lbl]
        for d in range(4):
            assert got[(lbl, d)] == (int(sel[:, d].sum()), len(sel))
    assert len(got) == 12


def test_group_balance_extreme_skew_keeps_trace(ray_session):
    """Beyond rate_scale-fold skew the rate clamps to 1 (≈cnt/10⁴ rows
    kept) instead of flooring to 0 and dropping the group."""
    import ray
    from html_parser_ray.functions.sampling import group_balance
    langs = ["en"] * 30000 + ["de"] * 2
    tbl = pa.table({"doc_id": pa.array(range(len(langs)), pa.int64()),
                    "lang": pa.array(langs, pa.string())})
    out = group_balance(ray.data.from_arrow(tbl), group_col="lang",
                        rate_scale=100).take_all()
    by = {}
    for r in out:
        by.setdefault(r["lang"], []).append(r["doc_id"])
    assert len(by["de"]) == 2                 # smallest kept whole
    assert 1 <= len(by.get("en", [])) <= 900  # rate 1/100: ~300, never 0


def test_delta_dedup_bloom_empty_new_batch(ray_session):
    import ray
    from html_parser_ray.functions.dedup import delta_exact_dedup_bloom
    ex = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                   "text": pa.array([f"e-{i}" for i in range(5)],
                                    pa.string())})
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    out = delta_exact_dedup_bloom(ray.data.from_arrow(empty),
                                  ray.data.from_arrow(ex)).take_all()
    assert out == []


def test_distinct_count_by_group_skips_nulls(ray_session):
    import ray
    from html_parser_ray.functions.sketches import distinct_count_by_group
    tbl = pa.table({
        "lang": pa.array(["a", "a", "b", "b"], pa.string()),
        "text": pa.array(["x", None, None, None], pa.string()),
    })
    got = {r["lang"]: r["n_distinct"] for r in distinct_count_by_group(
        ray.data.from_arrow(tbl), group_col="lang", col="text").take_all()}
    # all-NULL group contributes no row (count(DISTINCT)=0 in SQL)
    assert got == {"a": 1}


def test_knn_join_overflow_guard_trips_before_wraparound(ray_session):
    import pytest
    import ray
    from html_parser_ray.functions.ann import knn_join
    # |x| ~ 1e5 quantizes to ~1e9; dot would wrap int64 silently
    big = pa.table({
        "vec_id": pa.array(range(4), pa.int64()),
        "embedding": pa.array([[1e5] * 16] * 4,
                              pa.list_(pa.float32())),
    })
    with pytest.raises(Exception):
        knn_join(ray.data.from_arrow(big), k=2, n_cells=1,
                 n_probe=1).take_all()


# ---------------------------------------------------------------------------
# column profiling

def test_profile_columns_with_nulls_and_negatives(ray_session):
    import ray
    from html_parser_ray.functions.profile import profile_columns
    tbl = pa.table({
        "x": pa.array([-5, None, 3, -5, 100], pa.int64()),
        "s": pa.array(["b", "a", None, "a", "zz"], pa.string()),
    })
    rows = {r["column"]: r for r in profile_columns(
        ray.data.from_arrow(tbl).repartition(3),
        int_cols=["x"], str_cols=["s"]).to_pylist()}
    assert rows["x"]["n_rows"] == 5 and rows["x"]["n_nulls"] == 1
    assert rows["x"]["min_v"] == "-5" and rows["x"]["max_v"] == "100"
    assert rows["x"]["n_distinct"] == 3          # NULL not counted
    assert rows["s"]["min_v"] == "a" and rows["s"]["max_v"] == "zz"
    assert rows["s"]["n_distinct"] == 3 and rows["s"]["n_nulls"] == 1


def test_profile_columns_all_null_column(ray_session):
    import ray
    from html_parser_ray.functions.profile import profile_columns
    tbl = pa.table({"x": pa.array([None, None], pa.int64())})
    rows = profile_columns(ray.data.from_arrow(tbl), int_cols=["x"],
                           str_cols=[]).to_pylist()
    r = rows[0]
    assert (r["n_nulls"], r["min_v"], r["max_v"], r["n_distinct"]) \
        == (2, "", "", 0)


def test_grouped_topk_uint64_and_int64_min(ray_session):
    """numpy negation wraps uint64 and fixes INT64_MIN — the dense-rank
    ordering must rank both dtypes correctly."""
    import ray
    from html_parser_ray.functions.topk import grouped_topk
    u = pa.table({
        "g": pa.array(["a"] * 4, pa.string()),
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "v": pa.array([1, 2 ** 63 + 5, 3, 2 ** 64 - 1], pa.uint64()),
    })
    got = sorted(r["doc_id"] for r in grouped_topk(
        ray.data.from_arrow(u), group_col="g", value_col="v",
        k=2).take_all())
    assert got == [1, 3]                  # the two largest uint64 values
    i = pa.table({
        "g": pa.array(["a"] * 3, pa.string()),
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "v": pa.array([-(2 ** 63), 5, -7], pa.int64()),
    })
    got = sorted(r["doc_id"] for r in grouped_topk(
        ray.data.from_arrow(i), group_col="g", value_col="v",
        k=2).take_all())
    assert got == [1, 2]                  # INT64_MIN ranks LAST


def test_resolve_href_schemes_and_query_urls():
    from html_parser_ray.functions.linkgraph import resolve_href
    base = "http://h1.example.com/d/3"
    assert resolve_href(base, "mailto:jane@example.org") == ""
    assert resolve_href(base, "javascript:void(0)") == ""
    assert resolve_href(base, "tel:+1-212-555-0187") == ""
    assert resolve_href(base, "data:text/plain,x") == ""
    # relative path whose QUERY embeds an absolute URL
    assert resolve_href(base, "/redirect?to=http://x") \
        == "http://h1.example.com/redirect?to=http://x"
    assert resolve_href(base, "HTTPS://other.com/p") == "HTTPS://other.com/p"
    assert resolve_href(base, "//cdn.example.com/a") \
        == "http://cdn.example.com/a"
    assert resolve_href(base, "next") == "http://h1.example.com/d/next"


def test_redact_nanp_phone_form():
    from html_parser_ray.functions.redact import redact
    out, _, _, n = redact("call +1-212-555-0187 or +44-555-0199 now")
    assert n == 2 and "+1-212" not in out and "+44-555" not in out


def test_warc_resyncs_after_corrupt_member():
    import gzip
    from html_parser_ray.sources.warc import make_warc_record, parse_warc
    good1 = gzip.compress(make_warc_record(
        "doc://1", "2024-01-01T00:00:00Z", b"one"))
    good2 = gzip.compress(make_warc_record(
        "doc://2", "2024-01-01T00:00:00Z", b"two"))
    torn = good1[:12] + b"\x00\x00\x00\x00"   # valid magic, corrupt body
    rows = parse_warc(good1 + torn + good2)
    oks = [r for r in rows if r["status"] == "ok"]
    errs = [r for r in rows if r["status"] == "error"]
    # both valid members recovered, the torn one quarantined
    assert sorted(r["url"] for r in oks) == ["doc://1", "doc://2"]
    assert len(errs) >= 1 and "gzip" in errs[0]["error"]


def test_lm_unigram_model_n_total_unaffected_by_pruning(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import lm_unigram_model
    texts = ["common common common common", "rare1 rare2 rare3 rare4"]
    tbl = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(texts, pa.string())})
    m1 = lm_unigram_model(ray.data.from_arrow(tbl), min_count=1)
    m2 = lm_unigram_model(ray.data.from_arrow(tbl), min_count=2)
    assert m1[1] == m2[1]                 # log_n identical under pruning
    assert "rare1" in m1[0] and "rare1" not in m2[0]


def _lm_canon(d):
    rows = sorted(d.take_all(), key=lambda r: r["doc_id"])
    return [(r["doc_id"], r["n_tokens"], r["nll_bits"], r["mean_bits_bp"])
            for r in rows]


_LM_TEXTS = ["the cat sat on the mat", "", "the the the zebra",
             "quick brown fox", "cat cat dog", "a b c d e f g h"]


def test_lm_score_joined_path_bit_identical(ray_session):
    """broadcast_limit=0 forces the partitioned-join fallback; scores
    must be bit-identical to the broadcast path (incl. empty docs)."""
    import ray
    from html_parser_ray.functions.lmscore import lm_score
    tbl = pa.table({"doc_id": pa.array(range(len(_LM_TEXTS)), pa.int64()),
                    "text": pa.array(_LM_TEXTS, pa.string())})
    ds = ray.data.from_arrow(tbl)
    assert _lm_canon(lm_score(ds)) == \
        _lm_canon(lm_score(ds, broadcast_limit=0, num_partitions=4))


def test_lm_unigram_model_over_limit_is_distributed(ray_session):
    """Past broadcast_limit the model payload is a DistributedCounts
    (the vocabulary never reaches the driver) and is reusable across
    lm_score calls — lm_filter's shared-model contract."""
    import ray
    from html_parser_ray.functions.lmscore import (DistributedCounts,
                                                   lm_score,
                                                   lm_unigram_model)
    tbl = pa.table({"doc_id": pa.array(range(len(_LM_TEXTS)), pa.int64()),
                    "text": pa.array(_LM_TEXTS, pa.string())})
    ds = ray.data.from_arrow(tbl)
    model = lm_unigram_model(ds, min_count=2, broadcast_limit=0)
    assert isinstance(model[0], DistributedCounts)
    s1 = _lm_canon(lm_score(ds, model=model, num_partitions=4))
    s2 = _lm_canon(lm_score(ds, model=model, num_partitions=4))  # reuse
    assert s1 == s2 == _lm_canon(lm_score(ds, min_count=2))


def test_bigram_lm_joined_path_bit_identical(ray_session):
    import ray
    from html_parser_ray.functions.lmscore import bigram_lm_score
    tbl = pa.table({"doc_id": pa.array(range(len(_LM_TEXTS)), pa.int64()),
                    "text": pa.array(_LM_TEXTS, pa.string())})
    ds = ray.data.from_arrow(tbl)
    assert _lm_canon(bigram_lm_score(ds)) == \
        _lm_canon(bigram_lm_score(ds, broadcast_limit=0, num_partitions=4))
    # and with the min_count prune applied inside the dataset
    assert _lm_canon(bigram_lm_score(ds, min_count=2)) == \
        _lm_canon(bigram_lm_score(ds, min_count=2, broadcast_limit=0,
                                  num_partitions=4))


def test_top_terms_joined_path_and_min_df(ray_session):
    """Join fallback ≡ broadcast; min_df prunes candidacy (a doc whose
    every word is pruned yields the ('', 0, 0, 0) placeholder)."""
    import ray
    from html_parser_ray.functions.tfidf import top_terms
    texts = _LM_TEXTS + ["zzz zzz unique"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl)

    def canon(d):
        rows = sorted(d.take_all(), key=lambda r: r["doc_id"])
        return [(r["doc_id"], r["top_term"], r["tf"], r["df"], r["score"])
                for r in rows]

    assert canon(top_terms(ds, len(texts))) == \
        canon(top_terms(ds, len(texts), broadcast_limit=0,
                        num_partitions=4))
    b = canon(top_terms(ds, len(texts), min_df=2))
    assert b == canon(top_terms(ds, len(texts), min_df=2,
                                broadcast_limit=0, num_partitions=4))
    assert b[6][1:] == ("", 0, 0, 0)      # all words of doc 6 pruned


def test_lm_filter_flow_with_distributed_model(ray_session):
    """lm_filter's two-pass shape (threshold from pass 1, filter in
    pass 2, ONE shared model) must hold when the model is over the
    broadcast limit: both passes run the join path off the same
    materialized count table and select the same doc set as the
    broadcast flow."""
    import ray
    from html_parser_ray.functions.lmscore import lm_score, lm_unigram_model
    from html_parser_ray.functions.sketches import exact_quantiles
    texts = _LM_TEXTS * 3
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl)

    def kept_ids(model):
        scored = lm_score(ds, model=model, num_partitions=4)
        thr = exact_quantiles(scored, "mean_bits_bp",
                              [5000]).column("value")[0].as_py()
        return sorted(r["doc_id"] for r in scored.take_all()
                      if r["mean_bits_bp"] <= thr)

    assert kept_ids(lm_unigram_model(ds)) == \
        kept_ids(lm_unigram_model(ds, broadcast_limit=0))


def test_bounded_take_all_guard_fails_loud(ray_session):
    """The exact histogram/group collectors must raise (with count and
    remediation) instead of silently OOMing the driver when the
    bounded-cardinality assumption breaks."""
    import pytest
    import ray
    from html_parser_ray.functions.common import bounded_take_all
    tbl = pa.table({"v": pa.array(range(100), pa.int64())})
    ds = ray.data.from_arrow(tbl)
    rows = bounded_take_all(ds, what="test", limit=100)
    assert len(rows) == 100
    with pytest.raises(ValueError, match="bounded-cardinality"):
        bounded_take_all(ds, what="test", limit=99)


def test_lm_and_tfidf_joined_paths_empty_model(ray_session):
    """Empty count/df tables (empty corpus, or pruning removed every
    word) must not crash the joined paths — an empty Dataset loses its
    schema and a join on it fails; the fallback synthesizes the cnt=1 /
    df=0 semantics directly (broadcast-path parity pinned)."""
    import ray
    from html_parser_ray.functions.lmscore import bigram_lm_score, lm_score
    from html_parser_ray.functions.tfidf import top_terms
    tbl = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(["", " "], pa.string())})
    ds = ray.data.from_arrow(tbl)
    assert _lm_canon(lm_score(ds)) == \
        _lm_canon(lm_score(ds, broadcast_limit=-1, num_partitions=4))
    assert _lm_canon(bigram_lm_score(ds)) == \
        _lm_canon(bigram_lm_score(ds, broadcast_limit=-1,
                                  num_partitions=4))
    b = sorted((r["doc_id"], r["top_term"], r["tf"], r["df"], r["score"])
               for r in top_terms(ds, 2).take_all())
    j = sorted((r["doc_id"], r["top_term"], r["tf"], r["df"], r["score"])
               for r in top_terms(ds, 2, broadcast_limit=-1,
                                  num_partitions=4).take_all())
    assert b == j
    # single-token docs: bigram table is empty while unigram is not
    tbl2 = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                     "text": pa.array(["one", "two"], pa.string())})
    ds2 = ray.data.from_arrow(tbl2)
    assert _lm_canon(bigram_lm_score(ds2)) == \
        _lm_canon(bigram_lm_score(ds2, broadcast_limit=-1,
                                  num_partitions=4))
