"""End-to-end training-corpus cleaning pipeline.

The canonical LLM-data use case this engine exists for: quality gate →
exact dedup → MinHash near-dedup, composed so the PAYLOAD streams through
exactly two passes regardless of corpus size:

1. **Feature pass** (map_batches, payload in → compact rows out): per doc
   one row ``(doc_id, q_ok, md5, sig)`` — quality decision (integer-bp
   thresholds, same arithmetic as quality_batch), exact-dup hash, packed
   512-byte MinHash signature. The side table is ~0.5 KB/doc and is
   materialized for reuse (at real 100-TB scale: ``write_parquet`` it as
   the checkpoint instead, resumable per shard as ``run_extract`` is).
2. **Drop-set derivation** (id-only shuffles): band keys recomputed from
   the stored signature + one extra ``md5:`` bucket so EXACT duplicates
   surface as pairs with estimate 1.0 through the same LSH machinery;
   bucket verify → pair set → connected components → per component every
   non-min doc_id joins the drop set, as do quality failures. Identical
   docs have identical signatures, so folding exact-dup pairs into the
   near-dup component graph keeps the sequential filter-then-dedup
   semantics (the transitive closure is unchanged).
3. **Filter pass** (map_batches over the original dataset): one sorted
   drop-id array broadcast via ray.put, vectorized searchsorted mask —
   the payload moves once and never shuffles.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dedup import (DEFAULT_BUCKET_CAP, _apply_drop, _cap_bucket,
                               _dedup_pairs, connected_components,
                               lsh_band_keys, minhash_signature)
from ..functions.textstats import quality_counts


def _quality_ok(text: str, min_ws_tokens: int, min_alpha_bp: int) -> bool:
    f = quality_counts(text)
    n_chars, n_ws = f[0], f[1]
    alpha_bp = ((f[5] * 20000 + n_chars) // (2 * n_chars)
                if n_chars else 0)
    return n_ws >= min_ws_tokens and alpha_bp >= min_alpha_bp


def clean_features(ds, *, min_ws_tokens: int = 5, min_alpha_bp: int = 5000,
                   num_perm: int = 64, shingle_n: int = 3):
    """documents → compact (doc_id, q_ok, md5, sig) side table."""
    def features(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        q_ok = [_quality_ok(t, min_ws_tokens, min_alpha_bp) for t in texts]
        md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        sigs = [struct.pack(f"<{num_perm}Q",
                            *minhash_signature(t, num_perm, shingle_n))
                for t in texts]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "q_ok": pa.array(q_ok, pa.bool_()),
            "md5": pa.array(md5s, pa.string()),
            "sig": pa.array(sigs, pa.binary()),
        })

    return ds.map_batches(features, batch_format="pyarrow")


def _dedup_pairs_from_features(feat_ds, *, num_perm: int = 64,
                               bands: int = 16,
                               jaccard_threshold: float = 0.8,
                               bucket_cap: int = DEFAULT_BUCKET_CAP):
    """q_ok feature rows → (doc_a, doc_b) pairs covering BOTH exact dups
    (md5 bucket, estimate 1.0) and MinHash near-dups (band buckets)."""
    def explode(batch: pa.Table) -> pa.Table:
        out_key: list[str] = []
        out_id: list[int] = []
        out_sig: list[bytes] = []
        for doc_id, ok, md5, sig in zip(batch.column("doc_id").to_pylist(),
                                        batch.column("q_ok").to_pylist(),
                                        batch.column("md5").to_pylist(),
                                        batch.column("sig").to_pylist()):
            if not ok:
                continue
            values = struct.unpack(f"<{num_perm}Q", sig)
            for key in lsh_band_keys(list(values), bands):
                out_key.append(key)
                out_id.append(doc_id)
                out_sig.append(sig)
            out_key.append(f"md5:{md5}")
            out_id.append(doc_id)
            out_sig.append(sig)
        return pa.table({"bucket": pa.array(out_key, pa.string()),
                         "doc_id": pa.array(out_id, pa.int64()),
                         "sig": pa.array(out_sig, pa.binary())})

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        bucket = group.column("bucket")[0].as_py()
        rows = sorted({(i, s) for i, s in
                       zip(group.column("doc_id").to_pylist(),
                           group.column("sig").to_pylist())})
        rows = _cap_bucket(rows, bucket_cap, bucket)
        exact = bucket.startswith("md5:")
        sigs = [np.frombuffer(s, dtype=np.uint64) for _i, s in rows]
        out_a, out_b = [], []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if exact or float((sigs[i] == sigs[j]).mean()) >= jaccard_threshold:
                    out_a.append(rows[i][0])
                    out_b.append(rows[j][0])
        return pa.table({"doc_a": pa.array(out_a, pa.int64()),
                         "doc_b": pa.array(out_b, pa.int64())})

    pairs = (feat_ds.map_batches(explode, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(pairs_in_bucket, batch_format="pyarrow"))
    return _dedup_pairs(pairs, "doc_a", "doc_b")


def clean_corpus(ds, *, min_ws_tokens: int = 5, min_alpha_bp: int = 5000,
                 jaccard_threshold: float = 0.8, num_perm: int = 64,
                 bands: int = 16, checkpoint_dir: str | None = None,
                 broadcast_limit: int = 20_000_000,
                 num_partitions: int = 4_096,
                 decontam_snippets: list[str] | None = None,
                 decontam_n_tokens: int = 13):
    """documents → surviving rows after quality gate + exact dedup +
    MinHash near-dedup (min doc_id per duplicate component wins), with
    optional benchmark decontamination applied LAST.

    ``decontam_snippets``: when given, contaminated documents (any
    ``decontam_n_tokens``-token window matching a snippet) are dropped
    AFTER dedup — the standard ordering, because benchmark sets change
    more often than the corpus (re-running decontamination must not
    re-run dedup or shift which duplicate is canonical). The snippet set
    is a small broadcast and the check is another per-row pure filter,
    so the payload still moves exactly once.

    The quality decision is per-row pure, so it is applied INLINE in the
    final filter pass (recomputed from the text that pass already touches)
    — quality-failing ids (30–50% of a real web corpus) are NEVER
    collected to the driver. The only id set that moves is the CC drop set
    (non-canonical members of duplicate components, bounded by the
    duplicate subset), routed through ``_apply_drop``'s broadcast path
    with its ``broadcast_limit`` + partitioned-anti-join fallback.

    ``checkpoint_dir``: persist the compact feature table as parquet and
    REUSE it on re-runs (presence of the ``_DONE`` marker skips the
    feature pass entirely) — the resumability path for the expensive scan
    at real scale, where in-memory materialize() would pin ~0.5 KB/doc in
    the object store across the whole run."""
    import ray

    if checkpoint_dir is not None:
        import json
        import os
        marker = os.path.join(checkpoint_dir, "_DONE")
        # the checkpointed features bake in the gate/signature params; a
        # reuse under DIFFERENT params would silently skip dedup for docs
        # whose q_ok flipped (the pair graph only covers checkpoint-time
        # q_ok docs), so the marker records them and a mismatch is an error
        params = {"min_ws_tokens": min_ws_tokens,
                  "min_alpha_bp": min_alpha_bp, "num_perm": num_perm}
        if not os.path.exists(marker):
            clean_features(ds, min_ws_tokens=min_ws_tokens,
                           min_alpha_bp=min_alpha_bp,
                           num_perm=num_perm).write_parquet(checkpoint_dir)
            with open(marker, "w") as f:
                json.dump(params, f)
        else:
            with open(marker) as f:
                content = f.read()
            stored = json.loads(content) if content.startswith("{") else None
            # `stored is None` (legacy/unknown marker) must ALSO refuse:
            # those are exactly the checkpoints whose params are unknown.
            if stored != params:
                raise ValueError(
                    f"clean_corpus checkpoint {checkpoint_dir} was built "
                    f"with params {stored}, current call uses {params}; "
                    "use a fresh checkpoint_dir (reusing it would skip "
                    "dedup for docs whose quality decision changed)")
        feats = ray.data.read_parquet(checkpoint_dir)
    else:
        feats = clean_features(ds, min_ws_tokens=min_ws_tokens,
                               min_alpha_bp=min_alpha_bp,
                               num_perm=num_perm).materialize()

    pairs = _dedup_pairs_from_features(
        feats, num_perm=num_perm, bands=bands,
        jaccard_threshold=jaccard_threshold)
    comp = connected_components(pairs)
    cc_drop = comp.map_batches(
        lambda b: b.filter(
            pc.not_equal(b.column("doc_id"), b.column("component"))
        ).select(["doc_id"]),
        batch_format="pyarrow").materialize()

    def quality_gate(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        mask = np.fromiter(
            (_quality_ok(t, min_ws_tokens, min_alpha_bp) for t in texts),
            dtype=bool, count=len(texts))
        return batch.filter(pa.array(mask))

    gated = ds.map_batches(quality_gate, batch_format="pyarrow")
    # CC pairs are built from q_ok docs only, so cc_drop ⊆ the gated rows:
    # gate-then-drop reproduces the sequential filter→dedup semantics
    kept = _apply_drop(gated, cc_drop, id_col="doc_id",
                       broadcast_limit=broadcast_limit,
                       num_partitions=num_partitions)
    if decontam_snippets:
        from ..functions.decontam import drop_contaminated
        kept = drop_contaminated(kept, decontam_snippets,
                                 n_tokens=decontam_n_tokens)
    return kept