"""Per-partition lineage manifest for checkpoint/resume.

At 100 TB a job WILL be preempted; output must be resumable without
recomputing finished work. The unit of resume is an input shard (a run of
parquet files in the sorted input list, numbered by position). Each
completed shard writes ``<out>/_manifest/shard-<id>.json`` with its input
files and counters; a restarted run skips shards whose entry says done.
The manifest lives on any pyarrow filesystem (local, ``s3://``, ``gs://``).
"""

from __future__ import annotations

import json
import os
import posixpath
import time

from pyarrow import fs as pafs


def resolve_filesystem(path: str) -> tuple[pafs.FileSystem, str]:
    """(pyarrow filesystem, path inside it) for a local path or a URI
    such as ``file://``, ``s3://`` or ``gs://``."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), os.path.abspath(path)


class RunManifest:
    def __init__(self, filesystem: pafs.FileSystem, out_dir: str):
        self.fs = filesystem
        self.dir = posixpath.join(out_dir, "_manifest")
        self.fs.create_dir(self.dir, recursive=True)

    def _path(self, shard_id: str) -> str:
        return posixpath.join(self.dir, f"shard-{shard_id}.json")

    def records(self) -> dict[str, dict]:
        """shard id → the record of every done shard. An unreadable entry
        is not done."""
        records = {}
        for info in self.fs.get_file_info(pafs.FileSelector(self.dir)):
            name = info.base_name
            if not (name.startswith("shard-") and name.endswith(".json")):
                continue
            try:
                with self.fs.open_input_stream(info.path) as f:
                    record = json.loads(f.read())
            except (json.JSONDecodeError, OSError):
                continue
            if record.get("status") == "done":
                records[name[len("shard-"):-len(".json")]] = record
        return records

    def mark_done(self, shard_id: str, counters: dict,
                  files: list[str]) -> None:
        record = {"status": "done", "shard": shard_id,
                  "finished_at": time.time(), "files": files, **counters}
        tmp = self._path(shard_id) + ".tmp"
        with self.fs.open_output_stream(tmp) as f:
            f.write(json.dumps(record).encode())
        self.fs.move(tmp, self._path(shard_id))

    def counters(self) -> dict:
        total: dict[str, float] = {}
        for rec in self.records().values():
            for key, value in rec.items():
                if isinstance(value, (int, float)) and key != "finished_at":
                    total[key] = total.get(key, 0) + value
        return total
