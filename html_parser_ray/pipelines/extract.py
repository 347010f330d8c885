"""End-to-end extraction pipelines (Ray-Data-native, streaming).

The flagship job, ``run_extract``, runs read → skew split →
DocStage(VISIBLE_TEXT) → url bucketing → write_parquet once per shard of
input files, a few shards at a time, with a manifest entry per finished
shard, so re-submitting the same job resumes it.
"""

from __future__ import annotations

import math
import posixpath
from concurrent.futures import ThreadPoolExecutor, as_completed

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyarrow import fs as pafs

from ..stages.extract import extract_pages
from ..state.manifest import RunManifest, resolve_filesystem


def read_pages(sf_dir_or_path, columns: list[str] | None = None,
               filesystem=None):
    """Column-pruned parquet read of the pages table (a path or a list of
    files, on ``filesystem`` when given). The dataset owns a copy of the
    caller's ``DataContext`` with Ray Data's per-operator reservation
    turned off, and every dataset built on it shares that copy."""
    import ray
    ds = ray.data.read_parquet(sf_dir_or_path, columns=columns,
                               filesystem=filesystem)
    # With the reservation on, Ray Data's executor holds half of the CPUs
    # back, split evenly across the plan's operators, so on 4 CPUs the
    # read keeps a CPU that sits idle between its few-ms reads, while the
    # fused extract operator after it does nearly all the work. Task
    # timelines of warm cc_pages jobs on 4 CPUs: 2.3 extract tasks in
    # flight on average over the operator's span with the reservation
    # on, 3.6 with it off. The streaming object-store budget falls from
    # 0.5 to 0.25 of the store with it, so backpressure gets tighter,
    # not looser. read_parquet gave this plan its own copy of the
    # context, so the caller's global DataContext keeps Ray's default.
    ds.context.op_resource_reservation_enabled = False
    return ds


# ---------------------------------------------------------------------------
# url-hash partitioning (north rule): deterministic lineage key

def add_url_bucket(ds, n_buckets: int = 64):
    """Append part = crc32(url) % n_buckets as an int32 column
    (deterministic, shuffle-free) and sort each output batch by it.

    Each output batch is one contiguous record batch sorted by ``part``,
    so the write puts it in one file of one row group in which every
    bucket is a contiguous row range. Ray Data hands the map the stage's
    small outputs concatenated but not merged, and unmerged, each chunk
    would be its own row group (about one row each on small pages). The
    sort is a per-batch ``Table.sort_by`` inside the fused task, not a
    Ray sort, so no exchange enters the plan. The copy is one Ray block,
    which Ray Data splits near its 128 MiB target block size, so 32-bit
    string offsets cannot overflow."""
    import zlib

    def bucketize(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        part = [zlib.crc32(u.encode()) % n_buckets for u in urls]
        # the sort's take also merges the chunks into one record batch
        return batch.append_column(
            "part", pa.array(part, pa.int32())).sort_by("part")

    return ds.map_batches(bucketize, batch_format="pyarrow")


def _shard_filenames(shard_id: str):
    """Names files ``shard-<id>_<write_uuid>_<task>_<block>.parquet``, so
    a redone shard can remove its own files and no other shard's. Ray
    requires the write uuid in the name when it appends to a directory."""
    from ray.data.datasource import FilenameProvider

    class ShardFilenames(FilenameProvider):
        def get_filename_for_block(self, block, write_uuid, task_index,
                                   block_index):
            return (f"shard-{shard_id}_{write_uuid}_{task_index:06}_"
                    f"{block_index:06}.parquet")

    return ShardFilenames()


def write_extracted(extracted_ds, out_dir: str, n_buckets: int = 64,
                    shard_id: str | None = None):
    """Url-bucketed output: ``out_dir/*.parquet``, file names tagged
    ``shard-<shard_id>_`` when a shard id is given.

    Each write task writes one file with one row group, its rows sorted
    by the int32 ``part`` column (``add_url_bucket``), so a job writes at
    most as many files as write tasks. Bucket K is
    ``pq.read_table(out_dir, filters=[("part", "=", K)])``, but that read
    prunes nothing yet: each file's one row group spans every ``part``
    value, so it reads every file in full and filters the rows."""
    ds = add_url_bucket(extracted_ds, n_buckets)
    ds.write_parquet(out_dir,
                     filename_provider=(None if shard_id is None
                                        else _shard_filenames(shard_id)))


# ---------------------------------------------------------------------------
# giant-document skew routing (SURVEY.md §4.2 "Skew"): at high parallelism a
# handful of multi-MB documents straggle whole dispatch bundles. A
# two-branch filter+union re-executes the upstream read per consumer (2×
# scan I/O of a 100-TB corpus to isolate ~0.1% of rows), so the routing is
# a SINGLE pass: one generator stage splits each block, yielding the small
# rows in bulk and every giant row as its own single-row batch. Ray Data
# fuses the split with the extract after it into one task per read block,
# so the split adds no stage and no object-store round trip. Inside that
# task the extract re-bundles the split's output to ``batch_size`` rows, so
# a giant shares a bundle with at most batch_size-1 small rows. Which
# worker parses a giant is set by the input block it arrived in, not by
# the split. Per-row budgets bound the worst case regardless.

GIANT_DOC_BYTES = 1_000_000


def extract_with_skew_routing(pages_ds, *, giant_bytes: int = GIANT_DOC_BYTES,
                              concurrency=None, batch_size: int = 16):
    """pages → extracted rows, giants split into their own batches.

    ``concurrency`` is accepted and ignored: existing callers
    (``perfbench`` among them) still pass a pool size, and honouring it as
    a task cap would block fusion of the split, the extract and the
    stages around them."""

    def split(batch: pa.Table):
        sizes = pc.binary_length(batch.column("html"))
        small_mask = pc.less_equal(sizes, giant_bytes)
        small = batch.filter(small_mask)
        if small.num_rows:
            yield small
        giant = batch.filter(pc.invert(small_mask))
        for i in range(giant.num_rows):   # each giant in its own batch
            yield giant.slice(i, 1)

    routed = pages_ds.map_batches(split, batch_format="pyarrow")
    return extract_pages(routed, batch_size=batch_size)


def _list_parquet_files(filesystem, path: str) -> list[str]:
    """The sorted parquet files under the directory ``path``."""
    return sorted(info.path for info in filesystem.get_file_info(
        pafs.FileSelector(path, recursive=True, allow_not_found=True))
        if info.type == pafs.FileType.File and info.path.endswith(".parquet"))


def _remove_shard_output(filesystem, out_dir: str, shard_ids) -> None:
    """Delete ``out_dir/shard-<id>_*`` for the given shards: what an
    interrupted attempt at them left. Other shards' files stay. An
    ``out_dir`` holding ``part=K/`` directories raises ValueError:
    resuming into it would mix the two layouts."""
    for info in filesystem.get_file_info(
            pafs.FileSelector(out_dir, allow_not_found=True)):
        name = posixpath.basename(info.path)
        if name.startswith("part="):
            raise ValueError(
                f"{out_dir} holds the old part=K/ layout ({name}); "
                "write to a fresh out_dir")
        if (name.startswith("shard-")
                and name[len("shard-"):].split("_", 1)[0] in shard_ids):
            filesystem.delete_file(info.path)


def _record_failed_http_import() -> None:
    """Ray Data imports fsspec's HTTP filesystem to resolve every path.
    Where that fails (fsspec without aiohttp), threads re-running the
    import can see each other's half-run module; recorded once, the
    import fails at once, so shards can be planned from several threads."""
    import sys
    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        sys.modules.setdefault("fsspec.implementations.http", None)


def _shards_in_flight(files_per_shard: int) -> int:
    """Shards run at once: enough files for every cluster CPU plus one
    shard, so one shard's straggler tail overlaps the next one's work."""
    import ray
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else 1
    return 1 + math.ceil(cpus / files_per_shard)


def run_extract(input_path: str, out_dir: str, *, concurrency=None,
                batch_size: int = 16, n_buckets: int = 64,
                files_per_shard: int = 16) -> dict:
    """Flagship job: read → extract (skew-routed) → url-bucketed write,
    streamed as one fused task operator after the read, once per shard of
    ``files_per_shard`` sorted input files. Both paths may be local or
    pyarrow URIs (``file://``, ``s3://``, ``gs://``).

    Re-submitting the same job resumes it: shards with a done manifest
    entry are skipped, and every other shard first loses the files an
    interrupted attempt left (``shard-<id>_*``). A done shard whose
    recorded files differ from the ones it holds now, or that the input no
    longer has, raises ValueError. Pending shards run a few at a time
    (``_shards_in_flight``), and each is marked done when its write ends.
    Doc counts come from the input footers, as DocStage writes one row
    per page, failed pages included. Returns the manifest's counters
    summed over all shards.

    Each write task writes one file, ``out_dir/shard-<id>_*.parquet``,
    of one row group sorted by the int32 ``part`` column
    (``write_extracted``); bucket K is
    ``pq.read_table(out_dir, filters=[("part", "=", K)])``, which today
    reads every file and filters the rows, because each file's one row
    group spans every ``part`` value.

    ``concurrency`` is accepted and ignored: existing callers
    (``perfbench`` among them) still pass a pool size, and honouring it as
    a task cap would block that fusion."""
    in_fs, in_root = resolve_filesystem(input_path)
    if in_fs.get_file_info(in_root).type == pafs.FileType.File:
        files, in_root = [in_root], posixpath.dirname(in_root)
    else:
        files = _list_parquet_files(in_fs, in_root)
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_path}")
    shards = {f"{start // files_per_shard:05d}":
              files[start:start + files_per_shard]
              for start in range(0, len(files), files_per_shard)}
    names = {shard_id: [posixpath.relpath(f, in_root) for f in shard_files]
             for shard_id, shard_files in shards.items()}
    out_fs, out_root = resolve_filesystem(out_dir)
    manifest = RunManifest(out_fs, out_root)
    done = manifest.records()
    for shard_id, record in sorted(done.items()):
        if record.get("files", []) != names.get(shard_id, []):
            raise ValueError(f"shard {shard_id} was done with files "
                             f"{record.get('files', [])} but now holds "
                             f"{names.get(shard_id, [])}")
    pending = [shard_id for shard_id in shards if shard_id not in done]
    _remove_shard_output(out_fs, out_root, set(pending))
    _record_failed_http_import()

    def extract_shard(shard_id: str) -> int:
        pages = read_pages(shards[shard_id],
                           columns=["url", "warc_ts", "html", "lang"],
                           filesystem=in_fs)
        write_extracted(extract_with_skew_routing(pages,
                                                  batch_size=batch_size),
                        out_dir, n_buckets, shard_id=shard_id)
        return sum(pq.read_metadata(f, filesystem=in_fs).num_rows
                   for f in shards[shard_id])

    pool = ThreadPoolExecutor(_shards_in_flight(files_per_shard))
    try:
        running = {pool.submit(extract_shard, shard_id): shard_id
                   for shard_id in pending}
        for future in as_completed(running):
            shard_id = running[future]
            manifest.mark_done(shard_id, {"docs": future.result()},
                               names[shard_id])
    finally:
        # a failed shard stops the shards not yet started; the running
        # ones finish but stay unmarked, to be redone on resume
        pool.shutdown(cancel_futures=True)
    return manifest.counters()


# --------------------------------------------------------------------------
# CLI entry point for `ray job submit` (the production invocation on a
# fixed-size cluster — the north rule's submission path):
#
#   ray job submit --address http://<head>:8265 -- \
#       python -m html_parser_ray.pipelines.extract \
#       /data/pages/ /out/extracted/ --buckets 256
#
# Re-submitting the same command after a preemption resumes the job: it
# skips the shards the output's manifest marks done. This is one of the
# three places allowed to own a Ray session (with bench.py and the test
# fixture); the init is guarded so it also works when submitted into an
# already-initialised driver.

def _main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m html_parser_ray.pipelines.extract",
        description="Streaming HTML extraction: pages parquet -> "
                    "url-hash-bucketed extracted parquet; re-running "
                    "into the same out_dir resumes the job")
    parser.add_argument("input_path", help="pages parquet dir/file")
    parser.add_argument("out_dir", help="output directory")
    parser.add_argument("--buckets", type=int, default=64,
                        help="url-hash buckets, the part column (default 64)")
    parser.add_argument("--batch-size", type=int, default=16)
    args = parser.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init()  # in `ray job submit` this attaches to the cluster
    try:
        run_extract(args.input_path, args.out_dir,
                    batch_size=args.batch_size,
                    n_buckets=args.buckets)
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    import sys
    raise SystemExit(_main(sys.argv[1:]))
