"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Ray-Data-first shapes:
- exact: hash inside map_batches → groupby(hash) → min doc_id per group
  (the groupby only shuffles (hash, doc_id) pairs, never the text).
- MinHash/LSH: shingle→minhash inside map_batches → explode LSH band keys →
  groupby(band_key) collects candidate buckets → verify candidate pairs with
  n-gram Jaccard. At 100 TB only band keys + ids shuffle.
- SimHash: 64-bit signature per doc, Hamming-adjacent bucket grouping.
- embedding cosine: normalized vectors, bucketed by coarse LSH sign-bits,
  exact cosine verify within buckets.
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct

import numpy as np
import pyarrow as pa

logger = logging.getLogger(__name__)

_WS = re.compile(r"\s+")

# Per-bucket verify is O(k²); real web corpora have mega-buckets (identical
# boilerplate → identical band keys), so every verify stage caps bucket
# membership and LOGS the truncation (no-silent-caps rule). 1,000 members
# bounds a bucket's verify at ~500k comparisons.
DEFAULT_BUCKET_CAP = 1_000


def _cap_bucket(rows: list, cap: int, bucket_key: str) -> list:
    """Deterministically truncate an oversized verify bucket (rows must be
    sorted) and log what was dropped. A bucket this large is near-certain
    mass-duplication; pairs among the retained prefix still link the
    bucket into one dedup component."""
    if cap is None or len(rows) <= cap:
        return rows
    logger.warning(
        "dedup verify bucket %r has %d members; capping at %d "
        "(%d members dropped from pair enumeration)",
        bucket_key, len(rows), cap, len(rows) - cap)
    return rows[:cap]

# 64-bit multiply-shift hash seeds (deterministic, no RNG at run time)
_MASK64 = (1 << 64) - 1
# chunk size for per-document broadcasted hash matrices (minhash seeds ×
# shingles, simhash tokens × 64 bits): bounds worker transients at ~32 MB
# for multi-MB giant documents
_HASH_CHUNK = 65_536
_MASK63 = (1 << 63) - 1
_MINHASH_SEEDS = [((0x9E3779B97F4A7C15 + 0x6C62272E07BB0142 * i) & _MASK64) | 1
                  for i in range(64)]


_SHINGLE_MIX = tuple(np.uint64(((0xC2B2AE3D27D4EB4F * (i + 1)) & _MASK64) | 1)
                     for i in range(8))


def hash_bytes(data: bytes) -> int:
    return struct.unpack("<Q", hashlib.blake2b(data, digest_size=8).digest())[0]


# Per-process word-hash memo: web text is zipfian, so across the batches one
# worker sees, the same words recur millions of times — a dict hit replaces a
# blake2b call + struct.unpack in the inner loop of every minhash / simhash /
# clean query. Bounded (cleared when full) so a pathological vocabulary can't
# grow worker heap without limit. Values are identical to the uncached path
# (same blake2b digest), so signatures/goldens are unchanged.
_WORD_CACHE: dict[str, int] = {}
_WORD_CACHE_MAX = 1 << 20
_blake2b = hashlib.blake2b
_unpack_q = struct.Struct("<Q").unpack


def _memo_hash(words: list[str], cache: dict[str, int], fn) -> np.ndarray:
    if len(cache) > _WORD_CACHE_MAX:
        cache.clear()
    get = cache.get
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = get(w)
        if h is None:
            h = fn(w)
            cache[w] = h
        out[i] = h
    return out


def _hash_words(words: list[str]) -> np.ndarray:
    return _memo_hash(words, _WORD_CACHE, _blake2b_low64)


def _shingle_array(text: str, n: int = 3) -> np.ndarray:
    """word-n-gram shingle hashes, vectorized: one memoized blake2b per
    DISTINCT word (see _WORD_CACHE), then the n-window combined with
    odd-constant multiplies + xor in numpy (deterministic; Python's builtin
    hash() is salted per process so it cannot be used)."""
    words = _WS.split(text.strip().lower())
    if not words or words == [""]:
        return np.array([], dtype=np.uint64)
    wh = _hash_words(words)
    with np.errstate(over="ignore"):   # uint64 wraparound is the hash mix
        if len(wh) < n:
            acc = wh[0] * _SHINGLE_MIX[0]
            for i in range(1, len(wh)):
                acc = acc ^ (wh[i] * _SHINGLE_MIX[i % 8])
            return np.array([acc], dtype=np.uint64)
        acc = wh[:len(wh) - n + 1] * _SHINGLE_MIX[0]
        for i in range(1, n):
            acc = acc ^ (wh[i:len(wh) - n + 1 + i] * _SHINGLE_MIX[i % 8])
        return np.unique(acc)


def _shingles(text: str, n: int = 3) -> set[int]:
    return set(_shingle_array(text, n).tolist())


_SEED_ARR = np.array(_MINHASH_SEEDS, dtype=np.uint64)


def minhash_signature(text: str, num_perm: int = 64, shingle_n: int = 3) -> list[int]:
    sh = _shingle_array(text, shingle_n)
    if len(sh) == 0:
        return [0] * num_perm
    # broadcasted multiply in bounded chunks: the (num_perm, n_shingles)
    # temp for a multi-MB document would be num_perm × 8 B per shingle
    # (~0.5 GB at 10^6 shingles); chunking caps it at ~32 MB while the
    # running np.minimum keeps the result exactly the global row minima
    mins = np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    seeds = _SEED_ARR[:num_perm, None]
    for i in range(0, len(sh), _HASH_CHUNK):
        hashed = seeds * sh[None, i:i + _HASH_CHUNK]
        np.minimum(mins, hashed.min(axis=1), out=mins)
    return mins.tolist()


def lsh_band_keys(sig: list[int], bands: int = 16) -> list[str]:
    rows = len(sig) // bands
    keys = []
    for b in range(bands):
        chunk = sig[b * rows:(b + 1) * rows]
        digest = hashlib.blake2b(
            b"".join(struct.pack("<Q", v) for v in chunk),
            digest_size=8).hexdigest()
        keys.append(f"{b}:{digest}")
    return keys


# simhash token hashes use md5 (lower 8 digest bytes, little-endian) rather
# than blake2b: simhash is a beyond-reference operator whose hash basis we
# own, and md5 is computable inside DuckDB (md5_number_lower), which makes
# the ENTIRE simhash pipeline SQL-oracle-checkable — the r2 verdict's two
# remaining rows-only queries become value-checked. Memoized like
# _WORD_CACHE (zipfian vocab).
from .common import _md5_low64_str as _md5_low64  # noqa: E402


def _blake2b_low64(w: str) -> int:
    return _unpack_q(_blake2b(w.encode(), digest_size=8).digest())[0]


_MD5_CACHE: dict[str, int] = {}


def _hash_tokens_md5(tokens: list[str]) -> np.ndarray:
    return _memo_hash(tokens, _MD5_CACHE, _md5_low64)


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
# simhash tokenization uses an EXPLICIT ASCII whitespace class (not \s):
# Python's \s and str.strip() are Unicode-aware while DuckDB's RE2 \s and
# trim() are ASCII/space-only, which would make the SQL oracle diverge on
# tabs/newlines/NBSP. Both sides now split on exactly [ \t\n\r\f] and drop
# empty tokens, so Python and the DuckDB oracle agree on ANY corpus.
_SIMHASH_WS = re.compile(r"[ \t\n\r\f]+")
# chunk the (tokens × 64) bit matrix so a multi-MB document peaks at ~32 MB
# of transient memory inside the map_batches worker, not 512 B × n_tokens
_SIMHASH_CHUNK = _HASH_CHUNK


def simhash64(text: str) -> int:
    """64-bit simhash with natural bit numbering: result bit i is the
    majority vote of bit i (``(h >> i) & 1``) across the token hashes —
    exactly what ``(md5_number_lower(tok) >> i) & 1`` computes in the
    DuckDB oracle. Masked to 63 bits so the column stays int64."""
    tokens = [t for t in _SIMHASH_WS.split(text.lower()) if t]
    if not tokens:
        return 0
    hs = _hash_tokens_md5(tokens)
    ones = np.zeros(64, dtype=np.int64)
    for i in range(0, len(hs), _SIMHASH_CHUNK):
        chunk = hs[i:i + _SIMHASH_CHUNK]
        ones += ((chunk[:, None] >> _BIT_SHIFTS) & np.uint64(1)).sum(
            axis=0, dtype=np.int64)
    acc = 2 * ones - len(tokens)
    bits = np.flatnonzero(acc > 0)
    out = int(np.sum(np.uint64(1) << bits.astype(np.uint64), dtype=np.uint64))
    return out & ((1 << 63) - 1)


def jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = _shingles(a, n), _shingles(b, n)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    union = len(sa | sb)
    return inter / union if union else 0.0


def _dedup_pairs(pairs_ds, key_a: str, key_b: str, val_col: str | None = None):
    """Collapse the same (a, b) pair surfacing from several LSH bands/tables
    to one row — as an AGGREGATE, not a per-pair ``map_groups``: the verify
    value for a pair is computed from the pair's full signatures/vectors
    (identical in every band it collides in), so ``Min`` reproduces the
    single surviving row while Ray's hash-aggregate pre-combines inside each
    block. At 10^8–10^9 pairs this is numpy segment reduction per block
    instead of one Python call + one tiny pa.Table per pair."""
    from ray.data.aggregate import Count, Min

    if val_col is None:
        agg = pairs_ds.groupby([key_a, key_b]).aggregate(
            Count(alias_name="__nbands"))
        return agg.map_batches(lambda b: b.drop_columns(["__nbands"]),
                               batch_format="pyarrow")
    return pairs_ds.groupby([key_a, key_b]).aggregate(
        Min(val_col, alias_name=val_col))


# ---------------------------------------------------------------------------
# Dataset-level operators

def exact_dedup(ds):
    """documents → one row per distinct normalized text (min doc_id wins).

    Shuffle ships only (text_hash, doc_id) — never the payload.
    """
    from ray.data.aggregate import Min

    def hash_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({
            "text_hash": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts],
                pa.string()),
            "doc_id": batch.column("doc_id"),
        })

    return (ds.map_batches(hash_batch, batch_format="pyarrow")
            .groupby("text_hash")
            .aggregate(Min("doc_id", alias_name="doc_id")))


def minhash_dedup_pairs(ds, *, num_perm: int = 64, bands: int = 16,
                        shingle_n: int = 3, jaccard_threshold: float = 0.8,
                        bucket_cap: int = DEFAULT_BUCKET_CAP):
    """documents → Dataset[(doc_a, doc_b, jaccard_bp)] near-dup pairs.

    Fully distributed, no driver-side loops and no text reshuffle: the
    explode stage computes each doc's minhash ONCE and ships
    (band_key, doc_id, packed 512-byte signature); bucket groups verify
    candidates with the standard MinHash Jaccard estimator (fraction of
    agreeing signature slots — unbiased, stderr ≈ 1/sqrt(num_perm)); a
    final groupby dedups pairs that collide in several bands. At 100 TB
    the shuffle carries bands × 512 B per doc instead of the document
    text, and the verify step needs no second pass over the corpus.
    """
    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_keys: list[str] = []
        out_ids: list[int] = []
        out_sigs: list[bytes] = []
        for doc_id, text in zip(ids, texts):
            sig = minhash_signature(text, num_perm, shingle_n)
            packed = struct.pack(f"<{num_perm}Q", *sig)
            for key in lsh_band_keys(sig, bands):
                out_keys.append(key)
                out_ids.append(doc_id)
                out_sigs.append(packed)
        return pa.table({"band_key": pa.array(out_keys, pa.string()),
                         "doc_id": pa.array(out_ids, pa.int64()),
                         "sig": pa.array(out_sigs, pa.binary())})

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        rows = sorted({(i, s) for i, s in
                       zip(group.column("doc_id").to_pylist(),
                           group.column("sig").to_pylist())})
        rows = _cap_bucket(rows, bucket_cap,
                           group.column("band_key")[0].as_py())
        sigs = [np.frombuffer(s, dtype=np.uint64) for _i, s in rows]
        out_a, out_b, out_j = [], [], []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                est = float((sigs[i] == sigs[j]).mean())
                if est >= jaccard_threshold:
                    out_a.append(rows[i][0])
                    out_b.append(rows[j][0])
                    out_j.append(int(round(est * 10_000)))
        return pa.table({"doc_a": pa.array(out_a, pa.int64()),
                         "doc_b": pa.array(out_b, pa.int64()),
                         "jaccard_bp": pa.array(out_j, pa.int64())})

    pairs = (ds.map_batches(explode, batch_format="pyarrow")
             .groupby("band_key")
             .map_groups(pairs_in_bucket, batch_format="pyarrow"))
    # the same pair can surface from several bands — keep one copy
    return _dedup_pairs(pairs, "doc_a", "doc_b", "jaccard_bp")


def simhash_batch(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_pylist()
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "simhash": pa.array([simhash64(t) for t in texts], pa.int64()),
    })


def simhash_neardup_pairs(ds, *, hamming_k: int = 3, bands: int = 4,
                          bucket_cap: int = DEFAULT_BUCKET_CAP):
    """documents → Dataset[(doc_a, doc_b, hamming)] pairs within Hamming
    distance ``hamming_k`` of each other's 64-bit simhash.

    Scale shape: by pigeonhole, two signatures within Hamming k of each
    other agree exactly on at least one of ``bands`` (> k) disjoint bit
    bands — so explode (band_id, band_bits) keys, groupby, and verify the
    full Hamming distance only within buckets. Only (key, doc_id, sig)
    triples shuffle, never text.
    """
    band_width = 64 // bands

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_key: list[str] = []
        out_id: list[int] = []
        out_sig: list[int] = []
        for doc_id, text in zip(ids, texts):
            sig = simhash64(text)
            for b in range(bands):
                bits = (sig >> (b * band_width)) & ((1 << band_width) - 1)
                out_key.append(f"{b}:{bits:x}")
                out_id.append(doc_id)
                out_sig.append(sig)
        return pa.table({"band_key": pa.array(out_key, pa.string()),
                         "doc_id": pa.array(out_id, pa.int64()),
                         "sig": pa.array(out_sig, pa.int64())})

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        rows = sorted(set(zip(group.column("doc_id").to_pylist(),
                              group.column("sig").to_pylist())))
        rows = _cap_bucket(rows, bucket_cap,
                           group.column("band_key")[0].as_py())
        out_a, out_b, out_h = [], [], []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                h = bin(rows[i][1] ^ rows[j][1]).count("1")
                if h <= hamming_k:
                    out_a.append(rows[i][0])
                    out_b.append(rows[j][0])
                    out_h.append(h)
        return pa.table({"doc_a": pa.array(out_a, pa.int64()),
                         "doc_b": pa.array(out_b, pa.int64()),
                         "hamming": pa.array(out_h, pa.int64())})

    pairs = (ds.map_batches(explode, batch_format="pyarrow")
             .groupby("band_key")
             .map_groups(pairs_in_bucket, batch_format="pyarrow"))
    # a pair can collide in several bands — keep one copy
    return _dedup_pairs(pairs, "doc_a", "doc_b", "hamming")


def hyperplane_keys(unit_vecs: np.ndarray, *, sign_bits: int = 16,
                    n_tables: int = 4, seed: int = 4242) -> list[list[str]]:
    """Random-hyperplane sign-LSH keys: ``n_tables`` independent seeded
    Gaussian projection matrices of ``sign_bits`` hyperplanes each.

    Bucket count scales as min(2^sign_bits, corpus/table) — unlike a
    fixed-component sign scheme, expected bucket OCCUPANCY stays ~n/2^bits
    per table, so within-bucket O(k²) verify stays bounded as the corpus
    grows; multiple tables restore recall (P[all tables miss] =
    (1-cos_collision^bits)^tables). Returns per-table key lists."""
    dim = unit_vecs.shape[1]
    out: list[list[str]] = []
    for t in range(n_tables):
        rng = np.random.default_rng(seed * 1_000 + t)
        planes = rng.standard_normal((sign_bits, dim)).astype(np.float32)
        bits = (unit_vecs @ planes.T) >= 0.0          # (n, sign_bits)
        packed = np.packbits(bits, axis=1)            # (n, ceil(bits/8))
        out.append([f"{t}:" + row.tobytes().hex() for row in packed])
    return out


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vecs / norms


def embedding_neardup_pairs(ds, *, threshold: float = 0.95,
                            sign_bits: int = 16, n_tables: int = 4,
                            bucket_cap: int = DEFAULT_BUCKET_CAP,
                            seed: int = 4242):
    """embeddings → Dataset[(vec_a, vec_b, cosine_bp)] near-dup pairs.

    Scale path: seeded random-hyperplane sign-LSH (``n_tables`` tables ×
    ``sign_bits`` bits — bucket cardinality grows with the corpus, unlike
    a fixed low-bit scheme), exact cosine verify within buckets only,
    bucket membership capped + logged, pair dedup across tables. The
    shuffle ships (bucket, vec_id, embedding) per table — n_tables × the
    vector payload, never all-pairs."""

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # upstream filters can yield zero-row blocks; np.asarray([]) is
            # 1-D and would break _unit_rows/hyperplane_keys
            return pa.table({"bucket": pa.array([], pa.string()),
                             "vec_id": pa.array([], pa.int64()),
                             "embedding": batch.column("embedding")})
        from .ann import list_col_to_matrix
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        vecs = list_col_to_matrix(batch.column("embedding"))
        unit = _unit_rows(vecs)
        per_table = hyperplane_keys(unit, sign_bits=sign_bits,
                                    n_tables=n_tables, seed=seed)
        keys: list[str] = []
        for table_keys in per_table:
            keys.extend(table_keys)
        rep = np.tile(np.arange(len(ids)), n_tables)
        return pa.table({
            "bucket": pa.array(keys, pa.string()),
            "vec_id": pa.array(ids[rep], pa.int64()),
            "embedding": batch.column("embedding").take(pa.array(rep)),
        })

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        rows = sorted(
            {(i, tuple(v)) for i, v in
             zip(group.column("vec_id").to_pylist(),
                 group.column("embedding").to_pylist())})
        rows = _cap_bucket(rows, bucket_cap,
                           group.column("bucket")[0].as_py())
        ids = [r[0] for r in rows]
        vecs = np.asarray([r[1] for r in rows], dtype=np.float32)
        unit = _unit_rows(vecs)
        sims = unit @ unit.T
        n = len(ids)
        iu, ju = np.triu_indices(n, k=1)
        hit = sims[iu, ju] >= threshold
        out_a, out_b, out_s = [], [], []
        for i, j in zip(iu[hit], ju[hit]):
            a, b = sorted((ids[int(i)], ids[int(j)]))
            out_a.append(a)
            out_b.append(b)
            out_s.append(int(round(float(sims[i, j]) * 10_000)))
        return pa.table({"vec_a": pa.array(out_a, pa.int64()),
                         "vec_b": pa.array(out_b, pa.int64()),
                         "cosine_bp": pa.array(out_s, pa.int64())})

    pairs = (ds.map_batches(bucketize, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(pairs_in_bucket, batch_format="pyarrow"))
    # a pair can collide in several tables — keep one copy
    return _dedup_pairs(pairs, "vec_a", "vec_b", "cosine_bp")


# ---------------------------------------------------------------------------
# Connected components + end-to-end keep-canonical dedup
#
# Near-dup PAIRS are only half the operator a training-data pipeline needs:
# duplicates are transitive (A~B, B~C must collapse A,B,C together even when
# A!~C directly), so the drop decision runs on the connected components of
# the pair graph. The component step is the alternating large-star /
# small-star algorithm (Kiveris et al., "Connected Components in MapReduce
# and Beyond", SoCC 2014 — public): O(log n) rounds, each round a
# groupby(node) over the EDGE list only. At 100 TB the edge list holds just
# the near-dup docs (8+8 bytes per pair), orders of magnitude smaller than
# the corpus, and the document payload is never touched until the final
# filter.

def _edge_segments(group: pa.Table) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray]:
    """Sort a partition's edge block by (u, v), drop duplicate edges, and
    return (u, v, segment_starts, per-row segment index) — the shared
    preamble of the vectorized star operations."""
    u = group.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = group.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keep = np.ones(len(u), dtype=bool)
    keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    u, v = u[keep], v[keep]
    new_seg = np.ones(len(u), dtype=bool)
    new_seg[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(new_seg)
    seg_idx = np.cumsum(new_seg) - 1
    return u, v, starts, seg_idx


def _large_star_block(group: pa.Table) -> pa.Table:
    """Vectorized large-star over ALL nodes co-located in one hash
    partition: per node u (a sorted segment), m = min(min(N(u)), u); emit
    (nbr, m) for every neighbor nbr > u. numpy segment reduction — no
    per-node Python call."""
    u, v, starts, seg_idx = _edge_segments(group)
    if len(u) == 0:
        return pa.table({"u": pa.array([], pa.int64()),
                         "v": pa.array([], pa.int64())})
    seg_u = u[starts]
    m = np.minimum(v[starts], seg_u)       # v sorted within segment → v[start] = min(N(u))
    m_row = m[seg_idx]
    mask = v > u
    return pa.table({"u": pa.array(v[mask], pa.int64()),
                     "v": pa.array(m_row[mask], pa.int64())})


def _small_star_block(group: pa.Table) -> pa.Table:
    """Vectorized small-star: per node u, with S = {nbr < u}: if S is
    empty emit nothing; else m = min(S), emit (x, m) for x in S\\{m} and
    (u, m)."""
    u, v, starts, seg_idx = _edge_segments(group)
    if len(u) == 0:
        return pa.table({"u": pa.array([], pa.int64()),
                         "v": pa.array([], pa.int64())})
    seg_u = u[starts]
    first_v = v[starts]                    # min neighbor of the segment
    has_small = first_v < seg_u            # sorted: any small ⇒ first is small & min
    m_row = first_v[seg_idx]
    is_first = np.zeros(len(u), dtype=bool)
    is_first[starts] = True
    emit_small = (v < u) & ~is_first       # S \ {min(S)} (prefix of segment)
    out_u = np.concatenate([v[emit_small], seg_u[has_small]])
    out_v = np.concatenate([m_row[emit_small], first_v[has_small]])
    return pa.table({"u": pa.array(out_u, pa.int64()),
                     "v": pa.array(out_v, pa.int64())})


def _hash_part(ids: np.ndarray, num_parts: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        mix = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((mix >> np.uint64(33)) % np.uint64(num_parts)).astype(np.int64)


def connected_components(pairs_ds, *, src: str = "doc_a", dst: str = "doc_b",
                         max_rounds: int = 16, num_partitions: int = 64):
    """pairs → Dataset[(doc_id, component)] — component = min doc_id
    reachable in the undirected pair graph; one row per node that appears
    in at least one pair.

    Each round is two edge-list shuffles (large-star then small-star);
    convergence is detected with an order-independent edge-set checksum
    (count + xor-sum aggregate), so no driver-side edge materialization
    ever happens. Rounds needed: O(log n) in the worst case, 1–2 for the
    dense clique-like components near-dup detection produces.

    Granularity: the star steps co-locate nodes by ``hash(u) %
    num_partitions`` and run ONE vectorized numpy segment reduction per
    partition — not one Python call per graph node. At 10^8–10^9 nodes the
    per-round Python cost is O(num_partitions), with all per-node work in
    sorted-array kernels; set ``num_partitions`` to a few × cluster cores.
    """
    from ray.data.aggregate import AggregateFn

    def canon(batch: pa.Table) -> pa.Table:
        a = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        return pa.table({"u": pa.array(hi, pa.int64()),
                         "v": pa.array(lo, pa.int64())})

    def both_dirs_part(batch: pa.Table) -> pa.Table:
        # fuse the undirected expansion with the partition-key assignment:
        # one map_batches, then ONE shuffle on the (coarse) partition key
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        uu = np.concatenate([u, v])
        vv = np.concatenate([v, u])
        return pa.table({"u": pa.array(uu, pa.int64()),
                         "v": pa.array(vv, pa.int64()),
                         "part": pa.array(_hash_part(uu, num_partitions),
                                          pa.int64())})

    def _star_round(edges, star_block):
        return (edges.map_batches(both_dirs_part, batch_format="pyarrow")
                .groupby("part")
                .map_groups(star_block, batch_format="pyarrow"))

    def _checksum(edges) -> tuple[int, int]:
        # order-independent fingerprint of the edge MULTISET: count + sum of
        # a per-edge mix mod 2^64. Duplicate edges (the same (v, m) emitted
        # from several groups) are counted, not cancelled — a stable edge
        # SET yields an identical multiset on the very next round (each
        # round is a deterministic function of the set: groups dedup with
        # np.unique), so the signature stabilizes one round after the set
        # does and the loop still terminates.
        def acc_batch(acc, batch: pa.Table):
            u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
            v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                mix = (u * np.uint64(0x9E3779B97F4A7C15)
                       ^ v * np.uint64(0xC2B2AE3D27D4EB4F))
                s = int(mix.sum(dtype=np.uint64)) if len(mix) else 0
            # mask to 63 bits so the aggregate result stays int64-
            # representable (avoids Ray's pickled-object fallback)
            return (acc[0] + len(u), (acc[1] + s) & _MASK63)
        agg = AggregateFn(
            init=lambda _k: (0, 0),
            merge=lambda a, b: (a[0] + b[0], (a[1] + b[1]) & _MASK63),
            name="edge_sig",
            accumulate_block=acc_batch)
        row = edges.aggregate(agg)
        sig = row["edge_sig"]
        return (int(sig[0]), int(sig[1]))

    edges = pairs_ds.map_batches(canon, batch_format="pyarrow").materialize()
    prev_sig = None
    for round_no in range(max_rounds):
        edges = _star_round(edges, _large_star_block)
        edges = _star_round(edges, _small_star_block)
        edges = edges.materialize()   # edge list only — tiny vs the corpus
        sig = _checksum(edges)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        logger.warning(
            "connected_components: no convergence after %d rounds "
            "(pathological chain topology); labels may be non-minimal",
            max_rounds)

    # converged edges are (child, root) stars — emit labels for both ends,
    # dedup with a min aggregate (a root's own row is (root, root))
    def to_labels(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.concatenate([u, v]), pa.int64()),
            "component": pa.array(np.concatenate([v, v]), pa.int64())})

    from ray.data.aggregate import Min
    return (edges.map_batches(to_labels, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Min("component", alias_name="component")))


def _apply_drop(docs_ds, drop_ds, *, id_col: str = "doc_id",
                broadcast_limit: int = 20_000_000,
                num_partitions: int = 4_096):
    return _apply_id_filter(docs_ds, drop_ds, keep=False, id_col=id_col,
                            broadcast_limit=broadcast_limit,
                            num_partitions=num_partitions)


def _apply_id_filter(docs_ds, ids_ds, *, keep: bool,
                     id_col: str = "doc_id",
                     broadcast_limit: int = 20_000_000,
                     num_partitions: int = 4_096):
    """Anti-join (``keep=False``, the classic drop-set filter) or
    semi-join (``keep=True``): filter ``docs_ds`` to rows whose
    ``id_col`` is NOT in / IS in ``ids_ds``. Doc below describes the
    drop form; the keep form inverts the final mask only.

    Anti-join: filter ``docs_ds`` to rows whose ``id_col`` is NOT in
    ``drop_ds`` (a materialized single-column ``doc_id`` Dataset).

    Primary path: the drop ids are collected once, sorted, and broadcast
    via ray.put; the corpus streams through one vectorized searchsorted
    mask — the payload never shuffles. If the drop set exceeds
    ``broadcast_limit`` ids (~8 B each — the default bounds the broadcast
    at ~160 MB), falls back to a hash-partitioned marker anti-join:
    null-padded markers ∪ docs co-shuffle on ``hash(doc_id) %
    num_partitions`` and ONE vectorized sorted-membership filter runs per
    partition — not one Python call per doc_id; payload moves once; logged.

    ``num_partitions`` sizing: each fallback partition materializes
    ~corpus_bytes / num_partitions of PAYLOAD as one in-memory group, so
    size it to keep groups at a few hundred MB. The fallback only engages
    past ``broadcast_limit`` drop ids — a corpus of billions of docs —
    where the 4,096 default puts a 100-TB corpus at ~25 GB/group; raise it
    proportionally for larger runs (it is deliberately NOT the same knob
    as connected_components' edge-list partitioning, whose groups hold
    16-byte edges, not documents).
    """
    import ray

    want = keep                       # row survives iff membership == want
    n_ids = ids_ds.count()

    if n_ids <= broadcast_limit:
        # marker tables are single-column; read by POSITION so callers
        # may name the column after their id_col (crashed on any
        # non-default id_col when this read the name "doc_id")
        set_ids = np.sort(np.concatenate(
            [b.column(0).to_numpy(zero_copy_only=False)
             for b in ids_ds.iter_batches(batch_format="pyarrow")]
            or [np.array([], dtype=np.int64)]))
        set_ref = ray.put(set_ids)

        def flt(batch: pa.Table) -> pa.Table:
            members = ray.get(set_ref)
            if len(members) == 0:
                return (batch.slice(0, 0) if want else batch)
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(members, ids),
                             len(members) - 1)
            hit = members[pos] == ids
            return batch.filter(pa.array(hit if want else ~hit))

        return docs_ds.map_batches(flt, batch_format="pyarrow")

    logger.warning(
        "_apply_id_filter(keep=%s): id set has %d ids "
        "(> broadcast_limit=%d); falling back to partitioned marker "
        "join (one payload shuffle)", want, n_ids, broadcast_limit)
    doc_schema = docs_ds.schema()
    pad_cols = [n for n in doc_schema.names if n != id_col]
    id_type = doc_schema.base_schema.field(id_col).type

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = (batch.column(id_col).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        return (batch
                .append_column("__drop",
                               pa.array(np.zeros(len(batch), dtype=bool)))
                .append_column("__part",
                               pa.array(_hash_part(ids, num_partitions),
                                        pa.int64())))

    def pad_markers(batch: pa.Table) -> pa.Table:
        # markers carry only the id column (read by position — see the
        # broadcast path); union requires identical schemas, so pad the
        # payload columns with (cheap) nulls
        ids = (batch.column(0).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        cols = {id_col: batch.column(0).cast(id_type)}
        for name in pad_cols:
            cols[name] = pa.nulls(
                len(batch), doc_schema.base_schema.field(name).type)
        cols["__drop"] = pa.array(np.ones(len(batch), dtype=bool))
        cols["__part"] = pa.array(_hash_part(ids, num_partitions), pa.int64())
        return pa.table({n: cols[n]
                         for n in list(doc_schema.names) + ["__drop",
                                                            "__part"]})

    union = (docs_ds.map_batches(tag_docs, batch_format="pyarrow")
             .union(ids_ds.map_batches(pad_markers, batch_format="pyarrow")))

    def filter_part(group: pa.Table) -> pa.Table:
        mask_marker = group.column("__drop").to_numpy(zero_copy_only=False)
        part_set = np.unique(
            group.column(id_col).to_numpy(zero_copy_only=False)[mask_marker])
        docs = group.filter(pa.array(~mask_marker))
        if len(part_set):
            ids = docs.column(id_col).to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(part_set, ids),
                             len(part_set) - 1)
            hit = part_set[pos] == ids
            docs = docs.filter(pa.array(hit if want else ~hit))
        elif want:
            docs = docs.slice(0, 0)
        return docs.drop_columns(["__drop", "__part"])

    return union.groupby("__part").map_groups(filter_part,
                                              batch_format="pyarrow")


def dedup_keep_canonical(docs_ds, pairs_ds, *, id_col: str = "doc_id",
                         broadcast_limit: int = 20_000_000,
                         num_partitions: int = 4_096):
    """End-to-end near-dedup: documents + near-dup pairs → the surviving
    rows (per component, the min doc_id wins; docs in no pair survive).

    Scale shape: the drop set (non-canonical members of components) is tiny
    relative to the corpus — only near-dup docs appear in pairs at all — so
    it broadcasts via ``_apply_drop``'s primary path and the corpus streams
    through one vectorized membership filter with NO payload shuffle; past
    ``broadcast_limit`` the partitioned marker anti-join fallback runs
    instead (one payload shuffle, vectorized per partition).
    """
    import pyarrow.compute as pc

    comp = connected_components(pairs_ds)
    # materialize the (small) drop set once — count + the broadcast
    # collect below would otherwise each re-execute the whole
    # components lineage
    drop_ds = comp.map_batches(
        lambda b: b.filter(
            pc.not_equal(b.column("doc_id"), b.column("component"))
        ).select(["doc_id"]),
        batch_format="pyarrow").materialize()
    return _apply_drop(docs_ds, drop_ds, id_col=id_col,
                       broadcast_limit=broadcast_limit,
                       num_partitions=num_partitions)


def delta_exact_dedup(new_ds, existing_ds, *, id_col: str = "doc_id",
                      broadcast_limit: int = 20_000_000,
                      num_partitions: int = 4_096):
    """Incremental-ingest dedup: keep rows of ``new_ds`` whose text is
    (a) absent from the existing corpus and (b) the first occurrence
    (min id) within the new batch — the continuous-crawl ingestion step
    (every recrawl batch is mostly pages the corpus already has).

    Scale shape: the EXISTING corpus streams once as (text_hash) marker
    rows — 32-byte hex strings, never the payload — and co-shuffles with
    the new batch's (text_hash, id) rows on hash(text_hash prefix) %
    ``num_partitions``; ONE vectorized np.unique segment reduction per
    partition emits the drop ids directly (not one Python call per
    distinct text). The final payload filter reuses ``_apply_drop``'s
    bounded-broadcast / partitioned-anti-join machinery: two payload
    passes total for the new batch (hashing + filter), zero for the
    existing corpus.
    """
    SENTINEL = np.int64(1 << 62)

    def new_marks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({
            "text_hash": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts],
                pa.string()),
            "nid": batch.column(id_col).cast(pa.int64()),
            "old": pa.array(np.zeros(len(texts), dtype=np.int64)),
        })

    def old_marks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        return pa.table({
            "text_hash": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts],
                pa.string()),
            "nid": pa.array(np.full(n, SENTINEL, dtype=np.int64)),
            "old": pa.array(np.ones(n, dtype=np.int64)),
        })

    def add_part(batch: pa.Table) -> pa.Table:
        # partition on the hash PREFIX (hex) so equal texts co-locate
        h = batch.column("text_hash").to_pylist()
        pref = np.array([int(x[:15], 16) for x in h], dtype=np.uint64)
        return batch.append_column(
            "part", pa.array(_hash_part(pref, num_partitions), pa.int64()))

    def drops_in_part(group: pa.Table) -> pa.Table:
        """ONE vectorized segment reduction per partition (not one call
        per distinct text): a new row is dropped iff its text group has
        an existing member or a smaller new id."""
        h = np.array(group.column("text_hash").to_pylist(), dtype=object)
        nid = group.column("nid").to_numpy(zero_copy_only=False)
        old = group.column("old").to_numpy(zero_copy_only=False)
        _uniq, inv = np.unique(h, return_inverse=True)
        n_seg = len(_uniq)
        has_old = np.zeros(n_seg, dtype=np.int64)
        np.maximum.at(has_old, inv, old)
        min_new = np.full(n_seg, SENTINEL, dtype=np.int64)
        np.minimum.at(min_new, inv,
                      np.where(old == 1, SENTINEL, nid))
        drop = (old == 0) & ((has_old[inv] == 1) | (nid != min_new[inv]))
        return pa.table({id_col: pa.array(nid[drop], pa.int64())})

    # ONE compact co-shuffle of (hash, id, flag) rows; drop ids fall out
    # of a per-partition vectorized reduction — the payload is read only
    # here (for hashing) and in the final filter pass below
    marks = (new_ds.map_batches(new_marks, batch_format="pyarrow")
             .union(existing_ds.map_batches(old_marks,
                                            batch_format="pyarrow"))
             .map_batches(add_part, batch_format="pyarrow"))
    drop_ids = (marks.groupby("part")
                .map_groups(drops_in_part, batch_format="pyarrow")
                .materialize())
    return _apply_drop(new_ds, drop_ids, id_col=id_col,
                       broadcast_limit=broadcast_limit,
                       num_partitions=num_partitions)


def delta_exact_dedup_bloom(new_ds, existing_ds, *,
                            id_col: str = "doc_id", n_words: int = 4_096,
                            k: int = 4, broadcast_limit: int = 20_000_000,
                            num_partitions: int = 4_096):
    """delta_exact_dedup with a Bloom prefilter on the EXISTING side:
    EXACT result (identical keep set), with the existing corpus's marker
    stream shrunk to ~the collision set before the co-shuffle.

    Why at 100 TB: the ingest batch is the SMALL side; the plain delta
    path still co-shuffles one marker row per EXISTING document on every
    ingest. Here the new batch's texts compress to ``n_words`` int64
    Bloom registers (a bounded driver round-trip over register rows, not
    payload), broadcast to the existing-corpus scan — an existing marker
    whose text misses the filter cannot equal ANY new text (no false
    negatives), so it drops at the scan and never enters the shuffle.
    False positives just pass through to the exact anti-join, so the
    output is bit-identical to delta_exact_dedup. Marker co-shuffle
    volume: O(new + collisions) instead of O(new + existing).
    """
    import ray
    from .sketches import _bloom_positions, bloom_build

    reg_rows = bloom_build(new_ds, column="text", n_words=n_words,
                           k=k).take_all()
    bits = np.zeros(n_words, dtype=np.int64)
    if reg_rows:     # empty new batch → all-zero filter (drops every
        registers = pa.Table.from_pylist(reg_rows)   # existing marker)
        idx = registers.column("word_idx").to_numpy(zero_copy_only=False)
        val = registers.column("bits").to_numpy(zero_copy_only=False)
        bits[idx] = val
    bits_ref = ray.put(bits)

    def might_collide(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        b = ray.get(bits_ref)
        hit = np.empty(batch.num_rows, dtype=bool)
        for i, t in enumerate(batch.column("text").to_pylist()):
            hit[i] = all(
                b[h // 63] >> (h % 63) & 1
                for h in _bloom_positions(t, n_words=n_words, k=k))
        return batch.filter(pa.array(hit))

    filtered_existing = existing_ds.map_batches(might_collide,
                                                batch_format="pyarrow")
    return delta_exact_dedup(new_ds, filtered_existing, id_col=id_col,
                             broadcast_limit=broadcast_limit,
                             num_partitions=num_partitions)


def dedup_keep_best(docs_ds, pairs_ds, scores_ds, *,
                    id_col: str = "doc_id", score_col: str = "score",
                    broadcast_limit: int = 20_000_000,
                    num_partitions: int = 4_096):
    """Near-dedup keeping the BEST member of each duplicate component
    (max ``score_col``, ties to the smaller id) instead of the smallest
    id — the curation-grade canonical rule (among near-identical crawls
    keep the longest / highest-quality capture, not the earliest).

    Scale shape: CC labels (dup docs only) semi-join against the compact
    (id, score) table — below ``broadcast_limit`` dup-graph members the
    marker set broadcasts and the score side streams map-only, so ONLY
    dup members' (id, score) rows enter the tagged-union co-shuffle
    (at 10^12 docs with a few % dup rate that is a ~20-50× shuffle-
    volume cut; an r4 experiment that dropped the semi-join and let
    merge_in_part's in_graph mask do the filtering shuffled the WHOLE
    score table and was reverted — the filter must run before the
    exchange, not after). The per-component argmax is ONE vectorized
    np.unique segment reduction per hash partition
    (delta_exact_dedup's pattern); the payload filter reuses
    ``_apply_drop``. The payload itself moves at most once, and only
    above ``broadcast_limit``."""
    from .joins import semi_join

    comp = connected_components(pairs_ds).materialize()
    comp_ids = comp.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id")}),
        batch_format="pyarrow")
    # scores restricted to dup-graph members (compact small side)
    dup_scores = semi_join(
        scores_ds.map_batches(
            lambda b: pa.table({
                "doc_id": b.column(id_col).cast(pa.int64()),
                "score": b.column(score_col).cast(pa.int64())}),
            batch_format="pyarrow"),
        comp_ids, on="doc_id",
        broadcast_limit=broadcast_limit, num_partitions=num_partitions)

    # attach component to each scored dup doc: tagged union + one
    # compact co-shuffle on doc_id hash, vectorized merge per partition
    NEG = np.int64(-(1 << 62))

    def tag_comp(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "component": batch.column("component"),
            "score": pa.array(np.full(len(ids), NEG), pa.int64()),
            "part": pa.array(_hash_part(ids.astype(np.uint64),
                                        num_partitions), pa.int64()),
        })

    def tag_score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "component": pa.array(np.full(len(ids), NEG), pa.int64()),
            "score": batch.column("score"),
            "part": pa.array(_hash_part(ids.astype(np.uint64),
                                        num_partitions), pa.int64()),
        })

    union = (comp.map_batches(tag_comp, batch_format="pyarrow")
             .union(dup_scores.map_batches(tag_score,
                                           batch_format="pyarrow")))

    def merge_in_part(group: pa.Table) -> pa.Table:
        """Per doc_id-hash partition: merge (id→component) with
        (id→score) rows, re-keyed by COMPONENT hash for the argmax
        stage (a component's members live in different id partitions)."""
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        comps = group.column("component").to_numpy(zero_copy_only=False)
        scores = group.column("score").to_numpy(zero_copy_only=False)
        uid, inv = np.unique(ids, return_inverse=True)
        n = len(uid)
        comp_of = np.full(n, NEG, dtype=np.int64)
        np.maximum.at(comp_of, inv, comps)
        score_of = np.full(n, NEG, dtype=np.int64)
        np.maximum.at(score_of, inv, scores)
        in_graph = comp_of != NEG
        uid, comp_of, score_of = (uid[in_graph], comp_of[in_graph],
                                  score_of[in_graph])
        return pa.table({
            "doc_id": pa.array(uid, pa.int64()),
            "component": pa.array(comp_of, pa.int64()),
            "score": pa.array(score_of, pa.int64()),
            "cpart": pa.array(_hash_part(comp_of.astype(np.uint64),
                                         num_partitions), pa.int64()),
        })

    def argmax_in_part(group: pa.Table) -> pa.Table:
        """Per component-hash partition: ONE segment argmax per
        component (max score, ties to min id); emit non-best dup ids."""
        uid = group.column("doc_id").to_numpy(zero_copy_only=False)
        comp_of = group.column("component").to_numpy(zero_copy_only=False)
        score_of = group.column("score").to_numpy(zero_copy_only=False)
        if not len(uid):
            return pa.table({id_col: pa.array([], pa.int64())})
        ucomp, cinv = np.unique(comp_of, return_inverse=True)
        best_score = np.full(len(ucomp), NEG, dtype=np.int64)
        np.maximum.at(best_score, cinv, score_of)
        is_best_score = score_of == best_score[cinv]
        keep_id = np.full(len(ucomp), np.iinfo(np.int64).max,
                          dtype=np.int64)
        np.minimum.at(keep_id, cinv[is_best_score], uid[is_best_score])
        drop = uid != keep_id[cinv]
        return pa.table({id_col: pa.array(uid[drop], pa.int64())})

    drop_ids = (union.groupby("part")
                .map_groups(merge_in_part, batch_format="pyarrow")
                .groupby("cpart")
                .map_groups(argmax_in_part, batch_format="pyarrow")
                .materialize())
    return _apply_drop(docs_ds, drop_ids, id_col=id_col,
                       broadcast_limit=broadcast_limit,
                       num_partitions=num_partitions)
