"""Join operators: partitioned hash join (large × large) and semi join
(keep the rows whose key appears on the other side).

Scale policy (ray_guide "Joins and lookups"):
- **Both sides large** → ``hash_join``, Ray Data's hash-partitioned
  ``Dataset.join``; both sides shuffle once on the key across
  ``num_partitions`` aggregators. Size num_partitions to the cluster
  (roughly total CPUs) and salt hot keys upstream if one key dominates.
- **Key membership** → ``semi_join``: the right side shrinks to 8-byte
  keys. Below a bound they are broadcast and the left side streams with
  no shuffle; above it, one co-shuffle of payload and key markers.

The reference has no join operator (single-document parser); the link
graph uses ``hash_join`` and dedup uses ``semi_join``.
"""

from __future__ import annotations

import pyarrow as pa


def hash_join(left, right, *, on: str, right_on: str | None = None,
              join_type: str = "inner", num_partitions: int = 32):
    """Hash-partitioned equi-join of two Datasets on int/string keys.

    ``num_partitions`` sizing (r3 sweep at sf0.1 / 32 cpus, median of 3:
    8 parts 2.4 s, 16 → 3.1 s, 32 → 5.1 s, 64 → 14.6 s): each join
    partition is an aggregator ACTOR with ~constant spin-up cost, so at
    bench scale fewer partitions win and the knee is well below the CPU
    count. Pick roughly ``input_bytes / 1 GB`` capped below cluster cores
    — at 100 TB that's thousands of partitions (the actor cost amortizes);
    at single-node bench scale use 8–16.
    """
    return left.join(right, join_type, num_partitions,
                     on=(on,), right_on=(right_on or on,))


def semi_join(left_ds, right_ds, *, on: str, right_on: str | None = None,
              broadcast_limit: int = 20_000_000,
              num_partitions: int = 4_096):
    """Keep left rows whose ``on`` key appears in ``right_ds`` (EXISTS
    semantics). The right side is reduced to a compact int64 key table
    (8 B/row — never its payload) and routed through the shared
    bounded-broadcast / partitioned-marker machinery (dedup's
    ``_apply_id_filter``): below ``broadcast_limit`` keys the left side
    streams with zero shuffle; above it, one co-shuffle of payload +
    key markers with a vectorized sorted-membership filter per
    partition."""
    from .dedup import _apply_id_filter

    rk = right_on or on

    def keys(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column(rk).cast(pa.int64())})

    key_ds = right_ds.map_batches(keys, batch_format="pyarrow").materialize()
    return _apply_id_filter(left_ds, key_ds, keep=True, id_col=on,
                            broadcast_limit=broadcast_limit,
                            num_partitions=num_partitions)
