"""Group-stratified deterministic sampling: the balanced-subset step of
training-data curation (equal per-language / per-domain quotas) with a
hash-rank rule instead of randomness, so the sample is reproducible and
SQL-oracle-checkable.

Rule: within each group, rank rows by (md5_low64(id), id) ascending and
keep the ``n_per_group`` smallest. md5_low64 is the lower 8 digest bytes
little-endian — DuckDB's ``md5_number_lower`` — the same cross-engine
hash the simhash operator standardized on.

Scale shape: a per-batch PARTIAL top-n per group inside `map_batches`
(each batch forwards at most n_per_group rows per group it contains —
output bounded by groups-in-batch × n, independent of batch size), then
one small `groupby(group).map_groups` final top-n. The per-group Python
call is fine HERE because group cardinality is small (languages,
domains); this operator is not for high-cardinality keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .common import _md5_low64_str


def _topn_per_group(batch: pa.Table, group_col: str, id_col: str,
                    n: int) -> pa.Table:
    """Keep the n smallest (rank, id) rows per group — vectorized:
    one lexsort + segment mask, no per-group Python."""
    if batch.num_rows == 0:
        return batch
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    groups = np.array(batch.column(group_col).to_pylist(), dtype=object)
    ranks = np.array([_md5_low64_str(str(i)) for i in ids],
                     dtype=np.uint64)
    order = np.lexsort((ids, ranks, groups))
    g_sorted = groups[order]
    new_seg = np.ones(len(order), dtype=bool)
    new_seg[1:] = g_sorted[1:] != g_sorted[:-1]
    seg_id = np.cumsum(new_seg) - 1
    seg_start = np.flatnonzero(new_seg)
    pos_in_seg = np.arange(len(order)) - seg_start[seg_id]
    keep = order[pos_in_seg < n]
    keep.sort()                      # preserve input row order
    return batch.take(pa.array(keep, pa.int64()))


def stratified_sample(ds, *, group_col: str, id_col: str = "doc_id",
                      n_per_group: int):
    """Dataset[...] → the deterministic n-per-group sample (all input
    columns pass through)."""
    partial = ds.map_batches(
        lambda b: _topn_per_group(b, group_col, id_col, n_per_group),
        batch_format="pyarrow")
    return partial.groupby(group_col).map_groups(
        lambda g: _topn_per_group(g, group_col, id_col, n_per_group),
        batch_format="pyarrow")


def shard_assign_batch(batch: pa.Table, *, n_shards: int = 64,
                       salt: str = "shard", id_col: str = "doc_id"
                       ) -> pa.Table:
    """Append (shuffle_key, shard) — the deterministic global-shuffle
    assignment step of training-output writing.

    Training consumers need the corpus in a reproducible pseudo-random
    order decoupled from crawl/ingest order. Rule: shuffle_key =
    md5_low64(f"{id}:{salt}") masked to 63 bits (int64-representable,
    = DuckDB ``md5_number_lower(x) % 2^63``); shard = shuffle_key %
    n_shards. Readers stream shards in shard order and sort WITHIN a
    shard by shuffle_key — a bounded, mergeable sort — giving a total
    order no stage ever has to materialize.

    Embarrassingly parallel (stateless per-row hash, no shuffle); the
    only data movement is the write-side partition-by-shard, which
    write_parquet does per block without an all-to-all.

    The batch comes back as one contiguous record batch: the
    partitioned write puts each chunk's slice of each shard in its own
    row group, so a chunked batch would scatter a shard file into many
    tiny row groups."""
    batch = batch.combine_chunks()
    ids = batch.column(id_col).to_pylist()
    keys = np.array([_md5_low64_str(f"{i}:{salt}") for i in ids],
                    dtype=np.uint64) & np.uint64((1 << 63) - 1)
    shard = (keys % np.uint64(n_shards)).astype(np.int64)
    batch = batch.append_column(
        "shuffle_key", pa.array(keys.astype(np.int64), pa.int64()))
    return batch.append_column("shard", pa.array(shard, pa.int64()))


def shard_assign(ds, *, n_shards: int = 64, salt: str = "shard",
                 id_col: str = "doc_id"):
    """Dataset → Dataset with (shuffle_key, shard) columns appended."""
    return ds.map_batches(
        lambda b: shard_assign_batch(b, n_shards=n_shards, salt=salt,
                                     id_col=id_col),
        batch_format="pyarrow")


def write_training_shards(ds, out_dir: str, *, n_shards: int = 64,
                          salt: str = "shard", id_col: str = "doc_id"):
    """Write the corpus as shard-partitioned Parquet (one directory per
    shard) in deterministic shuffle order.

    Resumable-output shape: each shard directory is independently
    complete, so a failed run reruns only missing shards; no single
    giant file. Partitioning happens per block inside write_parquet —
    no global shuffle. Each write task puts one row group in each shard
    file it writes (``shard_assign_batch`` hands it contiguous
    batches)."""
    shard_assign(ds, n_shards=n_shards, salt=salt,
                 id_col=id_col).write_parquet(
        out_dir, partition_cols=["shard"])


def _partial_group_counts(batch: pa.Table, group_col: str) -> pa.Table:
    """In-batch combiner: (group, partial count) — at most one row per
    group present in the batch leaves the task."""
    if batch.num_rows == 0:
        return pa.table({group_col: pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    groups = np.array(batch.column(group_col).to_pylist(), dtype=object)
    uniq, cnt = np.unique(groups, return_counts=True)
    return pa.table({group_col: pa.array(list(uniq), pa.string()),
                     "n": pa.array(cnt.astype(np.int64), pa.int64())})


def group_balance(ds, *, group_col: str, id_col: str = "doc_id",
                  rate_scale: int = 10000, salt: str = "balance"):
    """Downsample every group to ~the smallest group's size — the
    domain/language REBALANCING step of training-data curation (a
    web crawl is 10^3× skewed toward English/big hosts; training mixes
    want controlled proportions).

    Rule (integer-exact, hash-deterministic): with cnt[g] the exact
    group sizes and mn = min(cnt), keep a row iff
    ``md5_63(f"{id}:{salt}") % rate_scale < max(1, mn*rate_scale//cnt[g])``
    — the smallest group's rate is exactly ``rate_scale`` (kept whole),
    every other group is thinned to ≈mn rows. Groups more than
    rate_scale× larger than the smallest clamp to rate 1 and keep
    ≈cnt/rate_scale rows (never silently dropped); raise ``rate_scale``
    when the skew exceeds it. Re-runs and incremental ingests keep each
    doc's fate (never Dataset.random_sample).

    Scale shape: pass 1 counts groups with an in-batch combiner (one row
    per group per batch) + one tiny groupby-sum; the counts table is
    ONE ROW PER GROUP — this operator is for low-cardinality groups
    (languages, sources, domains buckets), so collecting it to the
    driver and ray.put-ing the rate dict is bounded by design. Pass 2 is
    a stateless per-row hash filter — no shuffle, payload never moves.
    """
    import ray
    from ray.data.aggregate import Sum

    from .common import bounded_take_all
    counts = bounded_take_all(
        ds.map_batches(
            lambda b: _partial_group_counts(b, group_col),
            batch_format="pyarrow")
        .groupby(group_col).aggregate(Sum("n", alias_name="n")),
        what=f"group_balance group counts over '{group_col}'")
    if not counts:
        return ds
    cnt = {r[group_col]: int(r["n"]) for r in counts}
    mn = min(cnt.values())
    # clamp to >= 1: beyond rate_scale-fold skew the exact rate floors
    # to 0 and would DROP the group entirely; at rate 1 the group keeps
    # ~cnt/rate_scale rows instead (> mn — raise rate_scale for tighter
    # balance at extreme skew). SQL oracle mirrors with GREATEST(1, ...)
    rates = {g: max(1, mn * rate_scale // c) for g, c in cnt.items()}
    rates_ref = ray.put(rates)

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        r = ray.get(rates_ref)
        ids = batch.column(id_col).to_pylist()
        groups = batch.column(group_col).to_pylist()
        h = (np.array([_md5_low64_str(f"{i}:{salt}") for i in ids],
                      dtype=np.uint64) & np.uint64((1 << 63) - 1)) \
            % np.uint64(rate_scale)
        thr = np.array([r.get(g, 0) for g in groups], dtype=np.uint64)
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def split_assign_batch(batch: pa.Table, *, permille: tuple[int, int, int]
                       = (980, 10, 10), salt: str = "split",
                       id_col: str = "doc_id") -> pa.Table:
    """Append a deterministic train/val/test ``split`` column (0/1/2)
    by hashed-id permille thresholds — the dataset-split step, hash-
    stable so re-runs and incremental ingests keep every doc's
    assignment (never random_split, which reshuffles on every run).

    Rule: b = (md5_low64(f"{id}:{salt}") & (2^63-1)) % 1000 (the same
    63-bit masked hash as shard_assign = DuckDB md5_number_lower %
    2^63); split 0 when b < permille[0], 1 below permille[0] +
    permille[1], else 2. Thresholds must sum to 1000."""
    if sum(permille) != 1000:
        raise ValueError(f"permille must sum to 1000, got {permille}")
    ids = batch.column(id_col).to_pylist()
    b = (np.array([_md5_low64_str(f"{i}:{salt}") for i in ids],
                  dtype=np.uint64) & np.uint64((1 << 63) - 1)) \
        % np.uint64(1000)
    split = np.where(b < permille[0], 0,
                     np.where(b < permille[0] + permille[1], 1, 2))
    return batch.append_column(
        "split", pa.array(split.astype(np.int64), pa.int64()))


def split_assign(ds, *, permille: tuple[int, int, int] = (980, 10, 10),
                 salt: str = "split", id_col: str = "doc_id"):
    """Dataset → Dataset with the deterministic split column appended."""
    if sum(permille) != 1000:     # fail at plan time, not inside a task
        raise ValueError(f"permille must sum to 1000, got {permille}")
    return ds.map_batches(
        lambda b: split_assign_batch(b, permille=permille, salt=salt,
                                     id_col=id_col),
        batch_format="pyarrow")
