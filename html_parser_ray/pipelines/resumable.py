"""Resumable sharded extraction driver.

Splits the input file list into shards, runs the streaming extract pipeline
per shard writing ``out/shard=<id>/``, and records a lineage manifest entry
(docs parsed / failed / quirks / parse errors) on completion. A re-run skips
finished shards — the checkpoint/resume story the north rule requires,
expressed with plain Dataset jobs (no driver-side row loops).
"""

from __future__ import annotations

import os

import pyarrow.compute as pc

from ..state.manifest import RunManifest
from .extract import extract_pipeline, read_pages


def _list_parquet_files(input_path: str) -> list[str]:
    if os.path.isfile(input_path):
        return [input_path]
    out = []
    for root, _dirs, files in os.walk(input_path):
        for name in sorted(files):
            if name.endswith(".parquet"):
                out.append(os.path.join(root, name))
    return sorted(out)


def run_resumable_extract(input_path: str, out_dir: str, *,
                          files_per_shard: int = 16,
                          batch_size: int = 16) -> dict:
    """Returns global counters accumulated across all (old + new) shards."""
    files = _list_parquet_files(input_path)
    shards = [files[i:i + files_per_shard]
              for i in range(0, len(files), files_per_shard)]
    manifest = RunManifest(out_dir)

    for idx, shard_files in enumerate(shards):
        shard_id = f"{idx:05d}"
        if manifest.is_done(shard_id):
            continue
        pages = read_pages(shard_files,
                           columns=["url", "warc_ts", "html", "lang"])
        extracted = extract_pipeline(pages, batch_size=batch_size)
        shard_dir = os.path.join(out_dir, f"shard={shard_id}")
        # a run preempted between write_parquet and mark_done leaves
        # partial files; Ray writes uniquely-named files, so re-running
        # into the same directory would duplicate rows — clear any
        # incomplete shard output before redoing it
        if os.path.isdir(shard_dir):
            import shutil
            shutil.rmtree(shard_dir)
        extracted.write_parquet(shard_dir)

        # lineage counters from the written shard (cheap aggregate re-read)
        import ray
        done = ray.data.read_parquet(shard_dir,
                                     columns=["status", "n_errors", "quirks_mode"])
        stats = done.map_batches(
            lambda b: __import__("pyarrow").table({
                "docs": [b.num_rows],
                "failed": [int(pc.sum(pc.cast(pc.not_equal(b.column("status"), "ok"),
                                              "int64")).as_py() or 0)],
                "parse_errors": [int(pc.sum(b.column("n_errors")).as_py() or 0)],
                "quirks": [int(pc.sum(pc.cast(pc.equal(b.column("quirks_mode"),
                                                       "quirks"), "int64")).as_py() or 0)],
            }), batch_format="pyarrow").sum(
            ["docs", "failed", "parse_errors", "quirks"])
        counters = {"docs": stats["sum(docs)"], "failed": stats["sum(failed)"],
                    "parse_errors": stats["sum(parse_errors)"],
                    "quirks": stats["sum(quirks)"]}
        manifest.mark_done(shard_id, counters)

    return manifest.counters()
