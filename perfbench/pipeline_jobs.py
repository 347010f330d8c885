"""Workloads, the Ray session, the timed jobs and the output check.

Every job goes through the public pipeline functions
(``html_parser_ray.pipelines.extract`` and ``html_parser_ray.stages``); the
benchmark only adds the input files, the layer-isolating jobs (read only,
no-op stage, stage without write) and the check of what was written.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import psutil  # after ray, which ships it in ray/thirdparty_files
from html_parser_ray.htmlcore.api import parse_bytes
from html_parser_ray.htmlcore.extract import visible_text
from html_parser_ray.pipelines.extract import (
    GIANT_DOC_BYTES, extract_with_skew_routing, read_pages, run_extract,
    write_extracted,
)
from html_parser_ray.sources.synth import make_table
from html_parser_ray.stages.extract import DEFAULT_BUDGETS, OUTPUT_SCHEMA
from html_parser_ray.stages.fused import fused_extract_pages

from kernel_ledger import main_text

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORK = REPO / ".perfbench_work"

COLUMNS = ["url", "warc_ts", "html", "lang"]   # what run_extract reads
BATCH_SIZE = 16        # run_extract's default dispatch bundle
N_BUCKETS = 64         # run_extract's default url-hash partitions
N_FILES = 8            # input parquet files per workload
SAMPLE_URLS = 16       # outputs compared with the in-process kernel
JOB_TIMEOUT_S = 60.0   # watchdog per job; jobs here take 2-10 s
RUN_TIMEOUT_S = 140.0  # and per run, which must end within 180 s
OBJECT_STORE_BYTES = 512 * 1024 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    size_scale: int      # sources.synth.make_page size_scale
    main_content: bool   # fused text + main-text stage instead of run_extract


WORKLOADS = {w.name: w for w in (
    Workload("cc_pages", 400, 32, False),
    Workload("tiny_pages", 4000, 1, False),
    Workload("cc_main_content", 400, 32, True),
)}


def ray_cpus() -> int:
    """Affinity cores, capped at 4 and never below 2."""
    return min(4, max(2, len(os.sched_getaffinity(0))))


# --------------------------------------------------------------------------
# inputs


def write_inputs(wl: Workload, seed: int, n_docs: int, path: Path,
                 n_files: int = N_FILES) -> pa.Table:
    """Seeded pages written as ``n_files`` parquet files; returns the table."""
    table = make_table(n_docs, seed=seed, size_scale=wl.size_scale)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    rows = math.ceil(n_docs / n_files)
    for k, start in enumerate(range(0, n_docs, rows)):
        pq.write_table(table.slice(start, rows), path / f"part-{k:05d}.parquet")
    return table


def expected_sample(wl: Workload, pages: pa.Table, seed: int) -> dict:
    """url → the fields the stage must write, from the in-process kernel."""
    n = pages.num_rows
    picks = random.Random(seed).sample(range(n), min(SAMPLE_URLS, n))
    out = {}
    for i in picks:
        url = pages["url"][i].as_py()
        tree = parse_bytes(pages["html"][i].as_py(), budgets=DEFAULT_BUDGETS)
        row = {"text": visible_text(tree), "status": "ok"}
        if wl.main_content:
            row["main_text"], row["n_content_blocks"] = main_text(tree)
        else:
            row.update(n_nodes=tree.n_nodes, n_errors=len(tree.errors),
                       encoding=tree.encoding.encoding)
        out[url] = row
    return out


# --------------------------------------------------------------------------
# the Ray session


def ray_stop() -> None:
    """Stop every Ray process on this host (a leftover session poisons runs)
    and drop the session files kept in the checkout."""
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                    "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120, check=False)
    if _ray_temp_dir():
        shutil.rmtree(_ray_temp_dir(), ignore_errors=True)


def _ray_temp_dir() -> str | None:
    """Session files inside the checkout when the path is short enough.

    Ray puts AF_UNIX sockets about 62 characters below its temp dir, and
    such paths are capped at 107 bytes; past that Ray's default is used.
    """
    path = str(WORK / "ray")
    return path if len(path) <= 42 else None


def start_session(cpus: int) -> str:
    """Local Ray session whose workers import the engine from this checkout;
    returns its session directory, for removal once Ray has stopped.

    The path goes through the inherited environment rather than a
    ``runtime_env``: workers with a job runtime_env cannot reuse the
    prestarted ones, which added about 4 s to every setup here.
    """
    ours = [str(REPO), str(BENCH_DIR)]
    theirs = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        ours + [p for p in theirs if p and p not in ours])
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             log_to_driver=False, logging_level=logging.WARNING,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=_ray_temp_dir())
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ray._private.worker._global_node.get_session_dir_path()


def wait_idle(cpus: int, deadline: float) -> None:
    """Closed loop: the next job starts once the last one released its CPUs.

    Dropping the finished Dataset (gc) is what frees its actor pool.
    """
    gc.collect()
    while ray.available_resources().get("CPU", 0) < cpus:
        if time.monotonic() > deadline:
            raise JobTimeout("CPUs not released before the run's deadline")
        time.sleep(0.02)


class JobTimeout(Exception):
    pass


def guarded(fn, deadline: float) -> tuple[int, int]:
    """Run ``fn`` under a watchdog of JOB_TIMEOUT_S, cut short by the run's
    ``deadline`` (a time.monotonic() value); return its (start_ns, end_ns).

    On expiry the job thread is abandoned and JobTimeout raised: the caller
    counts the job failed and tears the session down, which cancels its
    Ray work.
    """
    box: dict = {}

    def target() -> None:
        t0 = time.perf_counter_ns()
        try:
            fn()
        except BaseException as exc:  # re-raised in the caller's thread
            box["error"] = exc
        box["span"] = (t0, time.perf_counter_ns())

    timeout_s = max(0.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        raise JobTimeout(f"job still running after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["span"]


# --------------------------------------------------------------------------
# process accounting


def _sample() -> tuple[dict[int, float], int]:
    """(pid → CPU seconds, summed RSS bytes) of this process and every
    process it started, Ray's included."""
    me = psutil.Process()
    cpu: dict[int, float] = {}
    rss = 0
    for p in [me] + me.children(recursive=True):
        try:
            with p.oneshot():
                t = p.cpu_times()
                rss += p.memory_info().rss
        except psutil.Error:
            continue
        cpu[p.pid] = t.user + t.system
    return cpu, rss


class ProcessMeter:
    """CPU seconds and peak summed RSS of the session while active.

    A helper thread samples every 200 ms.  Ray workers come and go within
    a job and nothing reaps them into a parent's counters, so each
    process's CPU is its last sample minus its first (zero when it started
    during the job); a process that exits loses at most its last 200 ms.
    Each sample walks every Ray process, so a finer period costs this
    process CPU it would otherwise spend dispatching.
    """

    PERIOD_S = 0.2

    def __init__(self) -> None:
        self.peak_rss = 0
        self._first: dict[int, float] = {}
        self._last: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _take(self) -> None:
        cpu, rss = _sample()
        self._last.update(cpu)
        self.peak_rss = max(self.peak_rss, rss)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._take()

    @property
    def cpu_s(self) -> float:
        return sum(v - self._first.get(pid, 0.0)
                   for pid, v in self._last.items())

    def __enter__(self) -> "ProcessMeter":
        self._first, self.peak_rss = _sample()
        self._last = dict(self._first)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._take()


# --------------------------------------------------------------------------
# jobs


def run_job(wl: Workload, input_dir: Path, out_dir: Path, pool: int) -> None:
    """The production job: read → stage → url-hash partitioned write."""
    if wl.main_content:
        pages = read_pages(str(input_dir), columns=COLUMNS)
        write_extracted(fused_extract_pages(pages, concurrency=pool,
                                            batch_size=BATCH_SIZE),
                        str(out_dir), N_BUCKETS)
    else:
        run_extract(str(input_dir), str(out_dir), concurrency=pool,
                    batch_size=BATCH_SIZE, n_buckets=N_BUCKETS)


def _count_block(batch: pa.Table) -> pa.Table:
    return pa.table({"rows": [batch.num_rows]})


def consume(ds) -> tuple[int, int]:
    """Counting aggregate: (rows, blocks) with nothing written."""
    counts = ds.map_batches(_count_block, batch_format="pyarrow",
                            batch_size=None).take_all()
    return sum(c["rows"] for c in counts), len(counts)


def _split_giants(batch: pa.Table):
    """The skew split of extract_with_skew_routing, for the no-op job."""
    import pyarrow.compute as pc
    small_mask = pc.less_equal(pc.binary_length(batch.column("html")),
                               GIANT_DOC_BYTES)
    small = batch.filter(small_mask)
    if small.num_rows:
        yield small
    giant = batch.filter(pc.invert(small_mask))
    for i in range(giant.num_rows):
        yield giant.slice(i, 1)


class NoopStage:
    """Actor stage that skips the kernel and emits the output schema."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {name: batch.column(name) for name in ("url", "warc_ts", "lang")}
        for field in OUTPUT_SCHEMA:
            if field.name not in cols:
                value = "ok" if field.name == "status" else (
                    "" if pa.types.is_string(field.type) else 0)
                cols[field.name] = pa.array([value] * n, field.type)
        return pa.table(cols)


def layer_jobs(wl: Workload, input_dir: Path, out_dir: Path, pool: int,
               spans, deadline: float) -> dict:
    """The layer-isolating jobs, same input, batch size and pool size.

    Each job is one span in ``spans`` (a kernel_ledger.SpanLog).
    """
    cpus = ray_cpus()
    out: dict = {}

    def read() -> None:
        out["read_rows"], out["pipelines.input_blocks"] = consume(
            read_pages(str(input_dir), columns=COLUMNS))

    def noop() -> None:
        pages = read_pages(str(input_dir), columns=COLUMNS)
        if not wl.main_content:
            pages = pages.map_batches(_split_giants, batch_format="pyarrow")
        staged = pages.map_batches(NoopStage, batch_format="pyarrow",
                                   batch_size=BATCH_SIZE, concurrency=pool)
        write_extracted(staged, str(out_dir), N_BUCKETS)

    def stage() -> None:
        pages = read_pages(str(input_dir), columns=COLUMNS)
        if wl.main_content:
            ds = fused_extract_pages(pages, concurrency=pool,
                                     batch_size=BATCH_SIZE)
        else:
            ds = extract_with_skew_routing(pages, concurrency=pool,
                                           batch_size=BATCH_SIZE)
        out["stage_rows"], _ = consume(ds)

    for name, fn in (("pipelines.read_pages", read),
                     ("pipelines.noop_job", noop), ("stages.extract", stage)):
        wait_idle(cpus, deadline)
        start, end = guarded(fn, deadline)
        spans.add(f"job-{name}", name, start, end)
        out[name + ".s"] = (end - start) / 1e9
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


# --------------------------------------------------------------------------
# output check


@dataclass
class CheckResult:
    failed: int          # docs missing, or written with status != "ok"
    problems: list[str]  # anything that makes the output incorrect
    digest: str
    rows: int
    files: int


def check_output(wl: Workload, out_dir: Path, urls: list[str],
                 expected: dict) -> CheckResult:
    """Order-independent check of one job's partitioned output."""
    problems: list[str] = []
    files = sorted(out_dir.rglob("*.parquet"))
    fields = ["url", "text", "status", "part"] + (
        ["main_text", "n_content_blocks"] if wl.main_content
        else ["n_nodes", "n_errors", "encoding"])
    table = pq.read_table(out_dir, columns=fields)
    rows = table.to_pylist()

    seen: dict[str, dict] = {}
    for row in rows:
        if row["url"] in seen:
            problems.append(f"duplicate url {row['url']}")
        seen[row["url"]] = row
        want = zlib.crc32(row["url"].encode()) % N_BUCKETS
        if int(row["part"]) != want:
            problems.append(f"{row['url']} under part={row['part']}, "
                            f"crc32 gives {want}")
    wanted = set(urls)
    missing = wanted - seen.keys()
    extra = seen.keys() - wanted
    if missing:
        problems.append(f"{len(missing)} input urls missing from the output")
    problems += [f"unexpected url {u}" for u in sorted(extra)[:5]]
    not_ok = sum(1 for u in wanted & seen.keys()
                 if seen[u]["status"] != "ok")
    for url, want_row in expected.items():
        got = seen.get(url)
        if got is None:
            continue          # counted as missing
        for key, value in want_row.items():
            if got[key] != value:
                problems.append(f"{url}: {key} differs from the kernel")

    h = hashlib.sha256()
    for url in sorted(seen):
        row = seen[url]
        h.update("\x1f".join(str(row[k]) for k in fields if k != "part")
                 .encode())
        h.update(b"\x1e")
    return CheckResult(failed=len(missing) + not_ok, problems=problems[:20],
                       digest=h.hexdigest()[:16], rows=len(rows),
                       files=len(files))
