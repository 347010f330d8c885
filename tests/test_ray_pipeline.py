"""Ray Data integration tests: DocStage task stage, url-hash
partitioned + resumable writes, dedup/ann Dataset operators, and byte-parity
of the distributed path with the single-doc kernel."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from html_parser_ray.htmlcore.api import parse_bytes
from html_parser_ray.htmlcore.extract import visible_text

SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def pages_table():
    from html_parser_ray.sources.synth import make_table
    return make_table(120, seed=7)


def test_synth_pages_schema(pages_table):
    assert {"url", "warc_ts", "html", "lang"} <= set(pages_table.column_names)
    assert pages_table.schema.field("html").type == pa.binary()
    assert pa.types.is_timestamp(pages_table.schema.field("warc_ts").type)


def test_extract_stage_matches_kernel(pages_table):
    """Distributed stage output == single-doc kernel output, per url."""
    from html_parser_ray.stages.extract import (
        OUTPUT_SCHEMA, VISIBLE_TEXT, DocStage)
    out = DocStage(VISIBLE_TEXT)(pages_table)
    assert out.num_rows == pages_table.num_rows
    # carried columns, projection fields (text replaces the input's
    # ground-truth text), status, error: the run_extract file layout
    assert out.schema == OUTPUT_SCHEMA
    htmls = pages_table.column("html").to_pylist()
    texts = out.column("text").to_pylist()
    statuses = out.column("status").to_pylist()
    for html, text, status in zip(htmls, texts, statuses):
        if status == "ok":
            assert text == visible_text(parse_bytes(html))
    assert statuses.count("ok") >= pages_table.num_rows - 2


def test_extract_stage_quarantines_bad_rows():
    from html_parser_ray.stages.extract import HTML, VISIBLE_TEXT, DocStage
    from html_parser_ray.htmlcore.api import Budgets
    import datetime
    import functools
    big = b"<p>" + b"x" * 1000
    batch = pa.table({
        "url": pa.array(["u1", "u2"], pa.string()),
        "warc_ts": pa.array([datetime.datetime(2024, 1, 1)] * 2,
                            pa.timestamp("us")),
        "html": pa.array([b"<p>fine</p>", big], pa.binary()),
        "lang": pa.array(["en", "en"], pa.string()),
    })
    decoder = HTML._replace(decode=functools.partial(
        parse_bytes, budgets=Budgets(max_input_bytes=100)))
    stage = DocStage(VISIBLE_TEXT, decoder=decoder)
    out = stage(batch)
    assert out.column("status").to_pylist() == ["ok", "budget_exceeded"]
    assert out.column("text").to_pylist()[0] == "fine"


def test_extract_pages_dataset(ray_session):
    from html_parser_ray.sources.synth import pages_dataset
    from html_parser_ray.stages.extract import extract_pages
    ds = extract_pages(pages_dataset(80, seed=3, parallelism=4),
                       batch_size=32)
    tbl = pa.Table.from_pylist(ds.take_all())
    assert tbl.num_rows == 80
    assert set(tbl.column("status").to_pylist()) <= {"ok", "budget_exceeded", "error"}
    ok = [s for s in tbl.column("status").to_pylist() if s == "ok"]
    assert len(ok) >= 78


def test_partitioned_write_and_lineage(ray_session, tmp_path):
    """One file of one row group per write task, its rows sorted by the
    url-hash ``part`` column."""
    import zlib

    from html_parser_ray.sources.synth import pages_dataset
    from html_parser_ray.stages.extract import extract_pages
    from html_parser_ray.pipelines.extract import write_extracted
    out_dir = str(tmp_path / "out")
    pages = pages_dataset(50, seed=9, parallelism=4).materialize()
    n_blocks = pages.num_blocks()
    write_extracted(extract_pages(pages, batch_size=32), out_dir,
                    n_buckets=8)
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    assert 1 <= len(files) <= n_blocks, (files, n_blocks)
    all_parts = []
    for f in files:
        path = os.path.join(out_dir, f)
        assert pq.ParquetFile(path).metadata.num_row_groups == 1, f
        t = pq.read_table(path, columns=["url", "part"])
        parts = t.column("part").to_pylist()
        assert parts == [zlib.crc32(u.encode()) % 8
                         for u in t.column("url").to_pylist()]
        assert parts == sorted(parts), f
        all_parts += parts
    assert len(all_parts) == 50
    # a reader of one bucket filters on the column
    bucket = pq.read_table(out_dir, filters=[("part", "=", 3)])
    assert bucket.column("part").to_pylist() == [3] * all_parts.count(3)


def _collect_parts(out_dir, columns):
    """Sorted rows of a run_extract output."""
    t = pq.read_table(out_dir, columns=columns)
    return sorted(zip(*(t.column(c).to_pylist() for c in columns)))


def _shard_files(out_dir, shard_id):
    """{path: mtime_ns} of the files one shard wrote."""
    import glob
    return {p: os.stat(p).st_mtime_ns for p in glob.glob(
        os.path.join(out_dir, f"shard-{shard_id}_*"))}


def test_resumable_extract_skips_done_shards(ray_session, tmp_path):
    from html_parser_ray.sources.synth import write_pages_parquet
    from html_parser_ray.pipelines.extract import run_extract
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    write_pages_parquet(os.path.join(in_dir, "a.parquet"), 30, seed=1)
    write_pages_parquet(os.path.join(in_dir, "b.parquet"), 30, seed=2,
                        start=30)
    out_dir = str(tmp_path / "out")
    counters = run_extract(in_dir, out_dir, files_per_shard=1,
                           batch_size=32)
    assert counters["docs"] == 60
    # second run must skip everything (manifest present) and keep counters
    counters2 = run_extract(in_dir, out_dir, files_per_shard=1,
                            batch_size=32)
    assert counters2["docs"] == 60
    manifest_files = os.listdir(os.path.join(out_dir, "_manifest"))
    assert len([f for f in manifest_files if f.endswith(".json")]) == 2


def test_resumable_extract_replaces_partial_shard_output(ray_session,
                                                         tmp_path):
    """A shard preempted after a partial write but before mark_done must be
    rewritten from scratch on resume — stale files would duplicate rows
    (ADVICE r01) — and redoing it must leave other shards' files alone."""
    from html_parser_ray.sources.synth import write_pages_parquet
    from html_parser_ray.pipelines.extract import run_extract
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    write_pages_parquet(os.path.join(in_dir, "a.parquet"), 30, seed=1)
    out_dir = str(tmp_path / "out")

    def plant_stale(shard_id, url):
        # a preempted run: a partial file in the shard's name, no
        # manifest entry
        os.makedirs(out_dir, exist_ok=True)
        pq.write_table(pa.table({"url": [url], "status": ["ok"],
                                 "n_errors": [0],
                                 "quirks_mode": ["no-quirks"]}),
                       os.path.join(out_dir,
                                    f"shard-{shard_id}_stale.parquet"))

    plant_stale("00000", "stale://1")
    counters = run_extract(in_dir, out_dir, files_per_shard=1,
                           batch_size=32)
    assert counters["docs"] == 30  # counted from the input footers
    rows = _collect_parts(out_dir, ["url"])
    assert len(rows) == 30  # not 31 — the stale row is gone
    assert ("stale://1",) not in rows

    # shard 00001 (a new file) is redone over its own stale file while
    # done shard 00000 keeps its files untouched
    done_files = _shard_files(out_dir, "00000")
    assert done_files
    write_pages_parquet(os.path.join(in_dir, "b.parquet"), 30, seed=2,
                        start=30)
    plant_stale("00001", "stale://2")
    counters = run_extract(in_dir, out_dir, files_per_shard=1,
                           batch_size=32)
    assert counters["docs"] == 60
    assert _shard_files(out_dir, "00000") == done_files
    rows = _collect_parts(out_dir, ["url"])
    assert len(rows) == len(set(rows)) == 60
    assert ("stale://2",) not in rows


def test_resumable_extract_rejects_changed_shard_files(ray_session,
                                                       tmp_path):
    """Shard ids are positions in the sorted file list: a file added
    ahead of a done shard changes what that shard holds, and skipping it
    would silently drop the new file's rows."""
    from html_parser_ray.sources.synth import write_pages_parquet
    from html_parser_ray.pipelines.extract import run_extract
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    write_pages_parquet(os.path.join(in_dir, "a.parquet"), 10, seed=1)
    write_pages_parquet(os.path.join(in_dir, "b.parquet"), 10, seed=2,
                        start=10)
    out_dir = str(tmp_path / "out")
    assert run_extract(in_dir, out_dir, files_per_shard=1)["docs"] == 20
    manifest = os.path.join(out_dir, "_manifest", "shard-00000.json")
    with open(manifest) as f:
        # paths relative to the input dir (each synth "file" is a
        # directory of part files)
        assert json.load(f)["files"] == ["a.parquet/part-00000.parquet"]
    write_pages_parquet(os.path.join(in_dir, "0.parquet"), 10, seed=3,
                        start=20)
    with pytest.raises(ValueError, match="shard 00000"):
        run_extract(in_dir, out_dir, files_per_shard=1)

    # a shrunk input: done shard 00001's rows would outlive its file
    shutil.rmtree(os.path.join(in_dir, "0.parquet"))
    shutil.rmtree(os.path.join(in_dir, "b.parquet"))
    with pytest.raises(ValueError, match="shard 00001"):
        run_extract(in_dir, out_dir, files_per_shard=1)


def test_run_extract_failed_shard_leaves_it_pending(ray_session, tmp_path,
                                                   monkeypatch):
    """Shards run a few at a time: one that fails raises out of
    run_extract without a manifest entry, and the resubmitted job does
    only that shard."""
    from html_parser_ray.pipelines import extract
    from html_parser_ray.sources.synth import write_pages_parquet
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    for i, name in enumerate(["a", "b", "c"]):
        write_pages_parquet(os.path.join(in_dir, f"{name}.parquet"), 10,
                            seed=i + 1, start=i * 10)
    real_read_pages = extract.read_pages

    def failing_read_pages(files, **kw):
        if any("b.parquet" in f for f in files):
            raise OSError("unreadable shard")
        return real_read_pages(files, **kw)

    monkeypatch.setattr(extract, "read_pages", failing_read_pages)
    out_dir = str(tmp_path / "out")
    with pytest.raises(OSError, match="unreadable shard"):
        extract.run_extract(in_dir, out_dir, files_per_shard=1)
    assert "shard-00001.json" not in os.listdir(
        os.path.join(out_dir, "_manifest"))
    monkeypatch.setattr(extract, "read_pages", real_read_pages)
    assert extract.run_extract(in_dir, out_dir,
                               files_per_shard=1)["docs"] == 30
    rows = _collect_parts(out_dir, ["url"])
    assert len(rows) == len(set(rows)) == 30


def test_run_extract_reads_and_writes_uris(ray_session, tmp_path):
    """Input and output given as ``file://`` URIs: the listing, the
    footers, the stale-file removal and the manifest all go through the
    URI's filesystem, as the reads and writes do."""
    from html_parser_ray.sources.synth import write_pages_parquet
    from html_parser_ray.pipelines.extract import run_extract
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_pages_parquet(str(in_dir / "a.parquet"), 10, seed=1)
    write_pages_parquet(str(in_dir / "b.parquet"), 10, seed=2, start=10)
    out_dir = tmp_path / "out"
    stale = out_dir / "shard-00001_stale.parquet"
    stale.parent.mkdir()
    pq.write_table(pa.table({"url": ["stale://1"]}), str(stale))
    counters = run_extract(in_dir.as_uri(), out_dir.as_uri(),
                           files_per_shard=1)
    assert counters["docs"] == 20
    assert not stale.exists()
    assert sorted(os.listdir(out_dir / "_manifest")) == [
        "shard-00000.json", "shard-00001.json"]
    rows = _collect_parts(str(out_dir), ["url"])
    assert len(rows) == len(set(rows)) == 20
    # resubmitted: both shards are skipped
    assert run_extract(in_dir.as_uri(), out_dir.as_uri(),
                       files_per_shard=1) == counters


def test_run_extract_writes_one_file_per_shard_task(ray_session, tmp_path):
    """4 single-file shards: every write task of every shard writes one
    file of one row group at the top of out_dir, not one per bucket."""
    import re

    from html_parser_ray.sources.synth import write_pages_parquet
    from html_parser_ray.pipelines.extract import run_extract
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    for i in range(4):
        write_pages_parquet(os.path.join(in_dir, f"{i}.parquet"), 20,
                            seed=i + 1, start=i * 20)
    out_dir = str(tmp_path / "out")
    assert run_extract(in_dir, out_dir, files_per_shard=1)["docs"] == 80
    files = sorted(f for f in os.listdir(out_dir) if f != "_manifest")
    # shard-<id>_<write uuid>_<task>_<block>-<file of the task>.parquet
    name = re.compile(r"shard-(\d{5})_[0-9a-f]+_(\d{6})_000000-0\.parquet")
    tasks = [name.fullmatch(f) for f in files]
    assert all(tasks), files
    assert len({m.groups() for m in tasks}) == len(files)
    assert {m.group(1) for m in tasks} == {f"{i:05d}" for i in range(4)}
    assert all(pq.ParquetFile(os.path.join(out_dir, f)).metadata
               .num_row_groups == 1 for f in files)
    assert len(_collect_parts(out_dir, ["url"])) == 80


def test_run_extract_rejects_old_partitioned_layout(ray_session, tmp_path):
    """Resuming into an out_dir of ``part=K/`` directories would mix two
    layouts in one output."""
    from html_parser_ray.sources.synth import write_pages_parquet
    from html_parser_ray.pipelines.extract import run_extract
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    write_pages_parquet(os.path.join(in_dir, "a.parquet"), 10, seed=1)
    old = tmp_path / "out" / "part=3" / "shard-00000_old.parquet"
    old.parent.mkdir(parents=True)
    pq.write_table(pa.table({"url": ["old://1"]}), str(old))
    with pytest.raises(ValueError, match="part=K/ layout"):
        run_extract(in_dir, str(tmp_path / "out"), files_per_shard=1)
    assert old.exists()


def test_resumable_extract_exactly_once_after_worker_sigkill(
        ray_session, tmp_path, monkeypatch):
    """Cluster-grade failure injection for the resume story: the first
    task of the second shard SIGKILLs its own worker process mid-
    pipeline (between extract and the shard's parquet write). Ray must
    retry the died task on a fresh worker, the run must complete, and
    the output must be EXACTLY-ONCE — identical (url, status, text)
    rows to a clean run, no dropped or duplicated docs."""
    import signal

    from html_parser_ray.pipelines import extract
    from html_parser_ray.sources.synth import write_pages_parquet

    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    write_pages_parquet(os.path.join(in_dir, "a.parquet"), 30, seed=1)
    write_pages_parquet(os.path.join(in_dir, "b.parquet"), 30, seed=2,
                        start=30)

    def collect(out_dir):
        return _collect_parts(out_dir, ["url", "status", "text"])

    clean_out = str(tmp_path / "clean")
    extract.run_extract(in_dir, clean_out, files_per_shard=1,
                        batch_size=32)
    expected = collect(clean_out)
    assert len(expected) == 60

    # crash injection: one extra map stage that SIGKILLs its worker the
    # first time any task runs with no marker file present (marker is
    # written BEFORE the kill so the retried task passes through)
    marker = str(tmp_path / "crashed.marker")
    real_pipeline = extract.extract_with_skew_routing

    def crashing_pipeline(pages, **kw):
        def maybe_crash(batch):
            if not os.path.exists(marker):
                with open(marker, "w") as f:
                    f.write("boom")
                os.kill(os.getpid(), signal.SIGKILL)
            return batch

        return real_pipeline(pages, **kw).map_batches(
            maybe_crash, batch_format="pyarrow")

    monkeypatch.setattr(extract, "extract_with_skew_routing",
                        crashing_pipeline)
    crash_out = str(tmp_path / "crash")
    counters = extract.run_extract(
        in_dir, crash_out, files_per_shard=1,
        batch_size=32)
    assert os.path.exists(marker), "injection never fired"
    assert counters["docs"] == 60
    assert collect(crash_out) == expected


def test_resumable_extract_resumes_after_driver_sigkill(
        ray_session, tmp_path):
    """The preemption story end-to-end: a SEPARATE driver process (own
    local Ray cluster) runs the resumable job and is SIGKILLed — whole
    process group, like a preempted node — after at least one shard's
    manifest entry lands. A resumed run must complete the remaining
    shards only, and the final output must be exactly-once equal to a
    clean run."""
    import signal
    import subprocess
    import sys as _sys
    import time

    from html_parser_ray.pipelines.extract import run_extract
    from html_parser_ray.sources.synth import write_pages_parquet

    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    # 8 small shards: wide window between first-manifest and job end, so
    # the SIGKILL reliably lands mid-run even on a fast box
    for i in range(8):
        write_pages_parquet(os.path.join(in_dir, f"{i}.parquet"), 10,
                            seed=i + 1, start=i * 10)

    def collect(out_dir):
        return _collect_parts(out_dir, ["url", "status"])

    clean_out = str(tmp_path / "clean")
    run_extract(in_dir, clean_out, files_per_shard=1,
                batch_size=16)
    expected = collect(clean_out)
    assert len(expected) == 80  # 8 shards x 10 docs

    crash_out = str(tmp_path / "crash")
    child_src = (
        "import ray, sys\n"
        "ray.init(address='local', num_cpus=4, include_dashboard=False)\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.dirname(os.path.abspath(__file__)))!r})\n"
        "from html_parser_ray.pipelines.extract import run_extract\n"
        f"run_extract({in_dir!r}, {crash_out!r}, files_per_shard=1,\n"
        "            batch_size=16)\n")
    # own session → killpg reaps the child's raylet/gcs too (a SIGKILLed
    # driver must not leak a second Ray cluster into later tests)
    child = subprocess.Popen([_sys.executable, "-c", child_src],
                             start_new_session=True,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    manifest_dir = os.path.join(crash_out, "_manifest")
    deadline = time.time() + 180
    try:
        while time.time() < deadline:
            done = [f for f in os.listdir(manifest_dir)
                    if f.endswith(".json")] if os.path.isdir(
                        manifest_dir) else []
            if done:
                break
            if child.poll() is not None:
                raise AssertionError(
                    "child driver finished before it could be killed — "
                    "shrink shard size")
            time.sleep(0.2)
        else:
            raise AssertionError("no shard completed within 180s")
        os.killpg(child.pid, signal.SIGKILL)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()

    n_done_at_kill = len([f for f in os.listdir(manifest_dir)
                          if f.endswith(".json")])
    # >=1 shard committed before the kill; the child keeps finishing
    # shards during the poll gap + killpg syscall, so an upper bound
    # would be racy — exactly-once below is the real property, and the
    # 8-shard layout makes a mid-run kill overwhelmingly likely
    assert n_done_at_kill >= 1
    counters = run_extract(in_dir, crash_out, files_per_shard=1,
                           batch_size=16)
    assert counters["docs"] == 80
    assert collect(crash_out) == expected


def test_read_pages_turns_off_reservation_on_its_own_context(ray_session,
                                                           tmp_path):
    """read_pages turns Ray Data's per-operator reservation off on the
    context its dataset owns, the plans built on it share that context,
    and the caller's global DataContext is left as it was."""
    from ray.data import DataContext

    from html_parser_ray.pipelines.extract import (
        add_url_bucket, extract_with_skew_routing, read_pages)
    from html_parser_ray.sources.synth import write_pages_parquet

    path = str(tmp_path / "pages")
    write_pages_parquet(path, 4, seed=1)
    before = DataContext.get_current().op_resource_reservation_enabled
    pages = read_pages(path)
    built = add_url_bucket(extract_with_skew_routing(pages))
    assert pages.context.op_resource_reservation_enabled is False
    assert built.context is pages.context
    assert pages.context is not DataContext.get_current()
    assert DataContext.get_current().op_resource_reservation_enabled == \
        before


@pytest.mark.parametrize("job,num_cpus", [
    pytest.param("run_extract", 1, id="1"),
    pytest.param("run_extract", 2, id="2"),
    pytest.param("pdf", 1, id="pdf-1"),
    pytest.param("pdf", 2, id="pdf-2"),
    pytest.param("main", 1, id="main-1"),
    pytest.param("main", 2, id="main-2"),
])
def test_run_extract_completes_at_low_cpu_counts(tmp_path, job, num_cpus):
    """run_extract, the PDF task map and the main-content plan
    (read_pages → fused_extract_pages → write_extracted) finish with their
    defaults on a 1- and a 2-CPU cluster (a stage that reserves CPUs up
    front starves the read and hangs there). Each runs in a child process
    with its own Ray cluster of exactly that size; the timeout turns a
    hang into a failure. Every input row must come out ok."""
    import signal
    import subprocess
    import sys as _sys

    from html_parser_ray.pdfcore import make_minimal_pdf
    from html_parser_ray.sources.synth import write_pages_parquet

    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    os.makedirs(in_dir)
    if job in ("run_extract", "main"):
        key = "url"
        for i in range(4):
            write_pages_parquet(str(in_dir / f"{i}.parquet"), 20,
                                seed=i + 1, start=i * 20)
        if job == "run_extract":
            run = ("from html_parser_ray.pipelines.extract import "
                   "run_extract\n"
                   "run_extract(IN, OUT)\n")
        else:
            run = ("from html_parser_ray.pipelines.extract import (\n"
                   "    read_pages, write_extracted)\n"
                   "from html_parser_ray.stages.fused import "
                   "fused_extract_pages\n"
                   "write_extracted(fused_extract_pages(read_pages(IN)), "
                   "OUT)\n")
    else:
        key = "doc_id"
        for i in range(4):
            ids = range(i * 10, i * 10 + 10)
            pq.write_table(pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "pdf": pa.array([make_minimal_pdf(f"doc {d}") for d in ids],
                                pa.binary()),
            }), str(in_dir / f"{i}.parquet"))
        run = ("from html_parser_ray.stages.pdf_extract import (\n"
               "    pdf_extract_pages)\n"
               "pdf_extract_pages(ray.data.read_parquet(IN)"
               ").write_parquet(OUT)\n")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child_src = (
        "import ray, sys\n"
        f"ray.init(address='local', num_cpus={num_cpus}, "
        "include_dashboard=False, object_store_memory=200 * 1024 * 1024)\n"
        f"sys.path.insert(0, {repo!r})\n"
        f"IN, OUT = {str(in_dir)!r}, {str(out_dir)!r}\n" + run)
    child = subprocess.Popen([_sys.executable, "-c", child_src],
                             start_new_session=True,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    try:
        assert child.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        raise AssertionError(
            f"{job} hung at num_cpus={num_cpus}") from None
    finally:
        if child.poll() is None:   # killpg also reaps the child's cluster
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    expected = sorted(pq.read_table(in_dir, columns=[key])
                      .column(key).to_pylist())
    written = pq.read_table(out_dir, columns=[key, "status"])
    assert sorted(written.column(key).to_pylist()) == expected
    assert set(written.column("status").to_pylist()) == {"ok"}


def test_exact_dedup_dataset(ray_session):
    import ray
    from html_parser_ray.functions.dedup import exact_dedup
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["same text", "same text", "other", "third",
                          "other"], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    kept = sorted(r["doc_id"] for r in exact_dedup(ds).take_all())
    assert kept == [1, 3, 4]


def test_minhash_neardup_pairs_dataset(ray_session):
    import ray
    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([base, base + " tiny tail", "unrelated words " * 20],
                         pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    from html_parser_ray.functions.dedup import minhash_dedup_pairs
    pairs = [(r["doc_a"], r["doc_b"])
             for r in minhash_dedup_pairs(ds).take_all()]
    assert (1, 2) in pairs
    assert all(3 not in p for p in pairs)


def test_embedding_neardup_pairs_dataset(ray_session):
    import ray
    import numpy as np
    rng = np.random.RandomState(0)
    v = rng.randn(16).astype("float32")
    near = v + rng.randn(16).astype("float32") * 0.01
    far = rng.randn(16).astype("float32")
    tbl = pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array([v.tolist(), near.tolist(), far.tolist()],
                              pa.list_(pa.float32())),
    })
    from html_parser_ray.functions.dedup import embedding_neardup_pairs
    out = embedding_neardup_pairs(ray.data.from_arrow(tbl),
                                  threshold=0.95).take_all()
    pairs = [(r["vec_a"], r["vec_b"]) for r in out]
    assert pairs == [(1, 2)]


def test_ann_brute_force_vs_numpy(ray_session):
    import ray
    import numpy as np
    from html_parser_ray.functions.ann import (
        brute_force_topk, deterministic_query_vector, ivf_topk)
    rng = np.random.RandomState(1)
    vecs = rng.randn(200, 64).astype("float32")
    tbl = pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    })
    q = np.asarray(deterministic_query_vector(64, seed=7), dtype="float32")
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = unit @ q
    expected = set(np.argsort(-sims)[:10].tolist())
    ds = ray.data.from_arrow(tbl)
    got = [r["vec_id"] for r in brute_force_topk(ds, q.tolist(), k=10).take_all()]
    assert set(got) == expected
    # full-probe IVF must equal brute force
    got_ivf = [r["vec_id"]
               for r in ivf_topk(ds, q.tolist(), k=10, n_cells=8,
                                 n_probe=8).take_all()]
    assert set(got_ivf) == expected


# The entry contract value-checks only the first 50 entries of queries();
# reordering the registry moves queries in or out of that window, so the
# window is pinned here.
FIRST_50_QUERIES = [
    "token_counts", "fingerprints", "quality_features", "quality_scores",
    "langid", "repetition_features", "decontam", "nfc_normalize",
    "shuffle_shards", "pack_spans", "grouped_topk", "hll_registers",
    "url_blocklist", "range_partition", "split_assign", "dedup_lines",
    "pii_redact", "url_canonical", "host_rollup", "stratified_sample",
    "dedup_spans", "heavy_hitters", "inverted_index", "cms_registers",
    "bloom_registers", "group_balance", "hll_by_group", "jsonl_roundtrip",
    "shard_roundtrip", "profile_table", "grouped_quantiles", "global_rank",
    "host_pagerank", "link_graph", "anchor_rollup", "extract_visible_text",
    "extract_rollup_by_lang", "extract_full", "main_content",
    "visible_tokens", "outline", "serialize_roundtrip", "chunks",
    "patch_edit", "warc_extract", "lm_score", "distinct_by_lang",
    "delta_dedup_bloom", "quantiles", "top_terms",
]


def test_first_50_query_window_is_pinned():
    import __ray_entry__ as entrymod
    assert len(FIRST_50_QUERIES) == len(set(FIRST_50_QUERIES)) == 50
    assert list(entrymod.queries())[:50] == FIRST_50_QUERIES


def test_testdata_extract_query_runs(ray_session):
    if not os.path.isdir(SF_DIR):
        pytest.skip("testdata not present")
    import __ray_entry__ as entrymod
    ds = entrymod.queries()["extract_visible_text"](SF_DIR)
    rows = ds.take(5)
    assert rows and all("text_out" in r for r in rows)


def test_simhash_neardup_pairs_dataset(ray_session):
    import ray
    from html_parser_ray.functions.dedup import simhash_neardup_pairs, simhash64
    base = "the quick brown fox jumps over the lazy dog once more " * 8
    near = base + "tail"
    far = "totally different vocabulary about other topics here " * 8
    assert bin(simhash64(base) ^ simhash64(near)).count("1") <= 3
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([base, near, far], pa.string()),
    })
    out = simhash_neardup_pairs(ray.data.from_arrow(tbl), hamming_k=3).take_all()
    pairs = sorted((r["doc_a"], r["doc_b"]) for r in out)
    assert (1, 2) in pairs
    assert all(3 not in p for p in pairs)
    # no duplicate pair rows despite multi-band collisions
    assert len(pairs) == len(set(pairs))


def test_skew_routing_single_scan_complete(ray_session, tmp_path):
    """Skew routing preserves every row AND reads the input exactly once
    (the r01 two-branch union re-executed the parquet read per consumer)."""
    import ray
    from html_parser_ray.sources.synth import make_table
    from html_parser_ray.pipelines.extract import extract_with_skew_routing
    tbl = make_table(60, seed=21, size_scale=8)  # mix incl. giant outliers
    path = str(tmp_path / "pages")
    ray.data.from_arrow(tbl).write_parquet(path)
    ds = ray.data.read_parquet(path)
    out = extract_with_skew_routing(ds, giant_bytes=20_000,
                                    batch_size=8)
    rows = out.take_all()
    assert len(rows) == 60
    assert sorted(r["url"] for r in rows) == \
        sorted(tbl.column("url").to_pylist())
    assert out.stats().count("ReadParquet") == 1  # single scan


def test_minhash_mega_bucket_capped(ray_session):
    """Adversarial boilerplate corpus: 60 identical docs land in ONE band
    bucket per band. bucket_cap bounds the O(k^2) verify; retained members
    still pair up (linking the bucket into one dedup component)."""
    import ray
    from html_parser_ray.functions.dedup import minhash_dedup_pairs
    n = 60
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["the same boilerplate text repeated everywhere"] * n,
                         pa.string()),
    })
    out = minhash_dedup_pairs(ray.data.from_arrow(tbl),
                              bucket_cap=10).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in out}
    # capped: at most C(10,2) pairs, never C(60,2)=1770
    assert 0 < len(pairs) <= 45
    assert all(a < 10 and b < 10 for a, b in pairs)  # deterministic prefix


def test_simhash_mega_bucket_capped(ray_session):
    import ray
    from html_parser_ray.functions.dedup import simhash_neardup_pairs
    n = 40
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["identical content block"] * n, pa.string()),
    })
    out = simhash_neardup_pairs(ray.data.from_arrow(tbl),
                                bucket_cap=8).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in out}
    assert 0 < len(pairs) <= 28  # C(8,2), never C(40,2)=780


def test_ivf_assignment_persisted_and_reused(ray_session, tmp_path):
    """ivf_assign writes the cell column ONCE; ivf_search reuses it across
    queries (r01 fix: no per-query corpus reassignment)."""
    import ray
    import numpy as np
    from html_parser_ray.functions.ann import (
        brute_force_topk, deterministic_query_vector, ivf_assign, ivf_search)
    rng = np.random.RandomState(11)
    vecs = rng.randn(300, 32).astype("float32")
    tbl = pa.table({
        "vec_id": pa.array(range(300), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    })
    path = str(tmp_path / "assigned")
    ivf_assign(ray.data.from_arrow(tbl), dim=32,
               n_cells=8).write_parquet(path)
    stored = ray.data.read_parquet(path)
    assert "cell" in stored.schema().names  # persisted at ingest
    for seed in (7, 8):   # two queries over the SAME stored assignment
        q = deterministic_query_vector(32, seed=seed)
        exact = [(r["vec_id"], r["cosine_bp"]) for r in
                 brute_force_topk(ray.data.from_arrow(tbl), q, k=5).take_all()]
        via_ivf = [(r["vec_id"], r["cosine_bp"]) for r in
                   ivf_search(stored, q, k=5, n_cells=8,
                              n_probe=8).take_all()]
        assert via_ivf == exact   # n_probe == n_cells → exact
        pruned = ivf_search(stored, q, k=5, n_cells=8, n_probe=2).take_all()
        assert 0 < len(pruned) <= 5  # probing fewer cells still answers


def test_connected_components_chain_transitivity(ray_session):
    # A~B and B~C with no direct A~C pair MUST collapse into one component
    import ray
    from html_parser_ray.functions.dedup import connected_components
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([1, 2, 10, 20, 21, 22], pa.int64()),
        "doc_b": pa.array([2, 3, 11, 21, 22, 23], pa.int64())}))
    comp = {r["doc_id"]: r["component"]
            for r in connected_components(pairs).take_all()}
    assert comp == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10,
                    20: 20, 21: 20, 22: 20, 23: 20}


@pytest.mark.parametrize("seed,n,m,parts", [
    (123, 200, 150, 64),    # sparse: many small components
    (7, 80, 300, 64),       # dense: few large components, multi-round
    (99, 500, 400, 3),      # few partitions: many nodes per star block
])
def test_connected_components_random_vs_union_find(ray_session, seed, n, m,
                                                   parts):
    # differential check of the r3 vectorized large-star/small-star blocks
    # (numpy segment reductions per hash partition) against a union-find
    import random
    import ray
    from html_parser_ray.functions.dedup import connected_components
    random.seed(seed)
    edges = [(random.randrange(n), random.randrange(n)) for _ in range(m)]
    edges = [(a, b) for a, b in edges if a != b]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members: dict[int, list[int]] = {}
    for v in {x for e in edges for x in e}:
        members.setdefault(find(v), []).append(v)
    expected = {v: min(vs) for vs in members.values() for v in vs}

    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in edges], pa.int64()),
        "doc_b": pa.array([b for _, b in edges], pa.int64())}))
    got = {r["doc_id"]: r["component"]
           for r in connected_components(pairs,
                                         num_partitions=parts).take_all()}
    assert got == expected


def test_dedup_keep_canonical_both_paths(ray_session):
    import ray
    from html_parser_ray.functions.dedup import dedup_keep_canonical
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([1, 2, 10], pa.int64()),
        "doc_b": pa.array([2, 3, 11], pa.int64())}))
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(15)), pa.int64()),
        "text": pa.array([f"t{i}" for i in range(15)], pa.string())}))
    expected = [i for i in range(15) if i not in (2, 3, 11)]
    # broadcast path
    kept = sorted(r["doc_id"]
                  for r in dedup_keep_canonical(docs, pairs).take_all())
    assert kept == expected
    # distributed marker anti-join path (forced)
    kept2 = dedup_keep_canonical(docs, pairs, broadcast_limit=0)
    rows = kept2.take_all()
    assert sorted(r["doc_id"] for r in rows) == expected
    assert all(r["text"] == f"t{r['doc_id']}" for r in rows)  # payload intact


def test_dedup_keep_canonical_no_pairs(ray_session):
    import ray
    from html_parser_ray.functions.dedup import dedup_keep_canonical
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64())}))
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([5, 6], pa.int64()),
        "text": pa.array(["a", "b"], pa.string())}))
    kept = sorted(r["doc_id"]
                  for r in dedup_keep_canonical(docs, pairs).take_all())
    assert kept == [5, 6]


def test_ivf_train_beats_seeded_centroids(ray_session):
    import numpy as np
    import ray
    from html_parser_ray.functions.ann import (
        brute_force_topk, ivf_assign, ivf_centroids, ivf_search, ivf_train)
    # 4 well-separated true clusters in 16-d
    rng = np.random.RandomState(9)
    centers = rng.randn(4, 16).astype("float32") * 5
    vecs = np.concatenate([
        centers[i] + rng.randn(120, 16).astype("float32") * 0.2
        for i in range(4)])
    ids = np.arange(len(vecs), dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tbl)
    trained = ivf_train(ds, dim=16, n_cells=4, sample_size=400)
    assert trained.shape == (4, 16)
    np.testing.assert_allclose(np.linalg.norm(trained, axis=1), 1.0,
                               rtol=1e-5)
    # deterministic: same seed + data -> same centroids
    again = ivf_train(ds, dim=16, n_cells=4, sample_size=400)
    np.testing.assert_array_equal(trained, again)

    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sim_trained = np.max(unit @ trained.T, axis=1).mean()
    sim_random = np.max(unit @ ivf_centroids(16, 4).T, axis=1).mean()
    assert sim_trained > sim_random + 0.2  # real quantization win

    # recall with n_probe=1 on trained cells: query at a cluster center
    q = (centers[2] / np.linalg.norm(centers[2])).tolist()
    assigned = ivf_assign(ds, dim=16, n_cells=4, centroids=trained)
    exact = [r["vec_id"] for r in brute_force_topk(ds, q, k=5).take_all()]
    got = [r["vec_id"] for r in
           ivf_search(assigned, q, k=5, n_cells=4, n_probe=1,
                      centroids=trained).take_all()]
    assert got == exact  # the whole cluster lives in one trained cell
    # and n_probe == n_cells stays exact regardless of centroids
    got_all = [r["vec_id"] for r in
               ivf_search(assigned, q, k=5, n_cells=4, n_probe=4,
                          centroids=trained).take_all()]
    assert got_all == exact


def test_connected_components_long_path_chain(ray_session):
    # 120-node path graph: worst-case diameter for label propagation;
    # large-star/small-star must converge in O(log n) rounds (max_rounds
    # defaults to 16 >> log2(120))
    import ray
    from html_parser_ray.functions.dedup import connected_components
    n = 120
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(list(range(n - 1)), pa.int64()),
        "doc_b": pa.array(list(range(1, n)), pa.int64())}))
    comp = {r["doc_id"]: r["component"]
            for r in connected_components(pairs).take_all()}
    assert comp == {i: 0 for i in range(n)}


def test_connected_components_duplicate_and_reversed_pairs(ray_session):
    import ray
    from html_parser_ray.functions.dedup import connected_components
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([5, 2, 2, 9, 9, 7], pa.int64()),
        "doc_b": pa.array([2, 5, 5, 7, 7, 9], pa.int64())}))
    comp = {r["doc_id"]: r["component"]
            for r in connected_components(pairs).take_all()}
    assert comp == {2: 2, 5: 2, 7: 7, 9: 7}


def test_flagship_extract_plan_is_shuffle_free(ray_session):
    # architecture guard: the flagship extract is read -> fused task map;
    # any AllToAll (sort/shuffle/aggregate) appearing in its plan is a
    # scale regression (the 100-TB path must stream without an exchange)
    import ray
    from html_parser_ray.pipelines.extract import (
        add_url_bucket, extract_with_skew_routing)
    from html_parser_ray.stages.extract import extract_pages
    tbl = pa.table({
        "url": pa.array([f"u{i}" for i in range(8)], pa.string()),
        "html": pa.array([b"<p>x</p>"] * 8, pa.binary()),
    })
    ds = extract_pages(ray.data.from_arrow(tbl), batch_size=4)
    ds.take_all()
    stats = ds.stats()
    assert "AllToAll" not in stats
    assert "Sort" not in stats
    # the split, the extract and the url bucketing of run_extract run as
    # ONE fused task operator; an actor stage or a task cap (concurrency=)
    # on any of them breaks the fusion
    ds = add_url_bucket(extract_with_skew_routing(
        ray.data.from_arrow(tbl), batch_size=4))
    assert len(ds.take_all()) == 8
    assert ("MapBatches(split)->MapBatches(DocStage)->"
            "MapBatches(bucketize)") in ds.stats()


def test_clean_corpus_pipeline(ray_session):
    import ray
    from html_parser_ray.pipelines.clean import clean_corpus
    long = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo "
            "sierra tango")                     # 20 words, all alpha
    docs = {
        1: long,                                 # keeps (canonical)
        2: long + " dup",                        # near-dup of 1 -> drop
        3: "too short",                          # quality fail -> drop
        4: ("uniform victor whiskey xray yankee zulu one two three four "
            "five six seven eight nine ten eleven twelve thirteen "
            "fourteen"),                         # distinct text, keeps
        5: ("uniform victor whiskey xray yankee zulu one two three four "
            "five six seven eight nine ten eleven twelve thirteen "
            "fourteen"),                         # exact dup of 4 -> drop
        6: "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20",
                                                 # no alpha -> drop
    }
    tbl = pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    })
    kept = clean_corpus(ray.data.from_arrow(tbl), min_ws_tokens=20)
    rows = kept.take_all()
    assert sorted(r["doc_id"] for r in rows) == [1, 4]
    assert all(r["text"] == docs[r["doc_id"]] for r in rows)


def test_clean_corpus_with_decontamination(ray_session):
    import ray
    from html_parser_ray.pipelines.clean import clean_corpus
    long = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo "
            "sierra tango")
    other = ("uniform victor whiskey xray yankee zulu one two three four "
             "five six seven eight nine ten eleven twelve thirteen "
             "fourteen")
    docs = {1: long, 2: long + " dup", 4: other}
    tbl = pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    })
    # snippet = the first 13 tokens of doc 1 -> doc 1 is contaminated;
    # decontam runs AFTER dedup, so doc 2 (non-canonical dup) stays
    # dropped rather than resurrected
    snippet = " ".join(long.split()[:13])
    kept = clean_corpus(ray.data.from_arrow(tbl), min_ws_tokens=20,
                        decontam_snippets=[snippet])
    assert sorted(r["doc_id"] for r in kept.take_all()) == [4]
    # no snippets -> unchanged behavior
    kept2 = clean_corpus(ray.data.from_arrow(tbl), min_ws_tokens=20)
    assert sorted(r["doc_id"] for r in kept2.take_all()) == [1, 4]


def test_hash_join(ray_session):
    import ray
    from html_parser_ray.functions.joins import hash_join
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 9], pa.int64()),
        "v": pa.array([10, 20, 21, 30, 90], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([1, 2, 3, 4], pa.int64()),
        "w": pa.array(["a", "b", "c", "d"], pa.string())}))
    out = hash_join(left, right, on="k", right_on="rk",
                    num_partitions=4).take_all()
    got = sorted((r["k"], r["v"], r["w"]) for r in out)
    assert got == [(1, 10, "a"), (2, 20, "b"), (2, 21, "b"), (3, 30, "c")]


def test_clean_corpus_checkpoint_reuse(ray_session, tmp_path):
    import ray
    from html_parser_ray.pipelines.clean import clean_corpus
    long = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo "
            "sierra tango")
    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([long, long + " dup"], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    ckpt = str(tmp_path / "feats")
    kept = sorted(r["doc_id"] for r in
                  clean_corpus(ds, min_ws_tokens=20,
                               checkpoint_dir=ckpt).take_all())
    assert kept == [1]
    assert os.path.exists(os.path.join(ckpt, "_DONE"))
    # second run reuses the checkpoint (feature pass skipped) and agrees
    kept2 = sorted(r["doc_id"] for r in
                   clean_corpus(ds, min_ws_tokens=20,
                                checkpoint_dir=ckpt).take_all())
    assert kept2 == [1]


def test_clean_corpus_quality_fails_never_hit_broadcast_limit(ray_session):
    # r3 scale fix: the quality gate is applied INLINE in the filter pass —
    # quality-failing ids must NOT count toward the broadcast drop set. With
    # 200 quality failures and broadcast_limit=2, the run must stay on the
    # broadcast path (CC drop set here is 1 id) and still be correct.
    import ray
    from html_parser_ray.pipelines.clean import clean_corpus
    long = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo "
            "sierra tango")
    ids = list(range(1, 204))
    texts = {1: long, 2: long + " dup"}            # near-dup pair -> drop 2
    texts[3] = ("uniform victor whiskey xray yankee zulu one two three "
                "four five six seven eight nine ten eleven twelve "
                "thirteen fourteen")               # distinct keeper
    for i in range(4, 204):
        texts[i] = f"short {i}"                    # 200 quality failures
    tbl = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[i] for i in ids], pa.string()),
    })
    kept = clean_corpus(ray.data.from_arrow(tbl), min_ws_tokens=20,
                        broadcast_limit=2)
    assert sorted(r["doc_id"] for r in kept.take_all()) == [1, 3]


def test_clean_corpus_cc_drop_fallback_path(ray_session):
    # broadcast_limit=0 forces the partitioned marker anti-join for the CC
    # drop set; the inline quality gate composes with it unchanged
    import ray
    from html_parser_ray.pipelines.clean import clean_corpus
    long = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo "
            "sierra tango")
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([long, long + " dup", "too short"], pa.string()),
    })
    rows = clean_corpus(ray.data.from_arrow(tbl), min_ws_tokens=20,
                        broadcast_limit=0).take_all()
    assert sorted(r["doc_id"] for r in rows) == [1]
    assert rows[0]["text"] == long                 # payload intact


def test_embedding_neardup_pairs_zero_row_blocks(ray_session):
    # upstream filters can yield zero-row blocks; bucketize must tolerate
    # them (ADVICE r2)
    import ray
    from html_parser_ray.functions.dedup import embedding_neardup_pairs
    vecs = [[1.0] * 8, [1.0] * 8, [-1.0] * 8]
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32()))}))
    filtered = ds.filter(lambda r: r["vec_id"] < 0)   # all blocks empty
    assert embedding_neardup_pairs(filtered).take_all() == []
    pairs = embedding_neardup_pairs(ds).take_all()
    assert [(p["vec_a"], p["vec_b"]) for p in pairs] == [(1, 2)]


def test_clean_corpus_checkpoint_param_mismatch_raises(ray_session,
                                                       tmp_path):
    # r3 review fix: reusing a feature checkpoint under DIFFERENT gate
    # params would silently skip dedup for docs whose quality decision
    # flipped — it must be a loud error instead
    import pytest as _pytest
    import ray
    from html_parser_ray.pipelines.clean import clean_corpus
    long = ("alpha bravo charlie delta echo foxtrot golf hotel india "
            "juliet kilo lima mike november oscar papa quebec romeo "
            "sierra tango")
    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([long, long + " dup"], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    ckpt = str(tmp_path / "feats")
    kept = sorted(r["doc_id"] for r in
                  clean_corpus(ds, min_ws_tokens=20,
                               checkpoint_dir=ckpt).take_all())
    assert kept == [1]
    with _pytest.raises(ValueError, match="params"):
        clean_corpus(ds, min_ws_tokens=5, checkpoint_dir=ckpt)
    # legacy marker (pre-r3 "ok" content) has UNKNOWN params — it must
    # refuse reuse too, not fall through silently
    import os
    with open(os.path.join(ckpt, "_DONE"), "w") as f:
        f.write("ok")
    with _pytest.raises(ValueError, match="params"):
        clean_corpus(ds, min_ws_tokens=20, checkpoint_dir=ckpt)


def test_fused_extract_matches_separate_stages(ray_session):
    # one parse must reproduce BOTH stages' outputs per row
    import datetime
    import ray
    from html_parser_ray.sources.synth import SCHEMA, pages_dataset
    from html_parser_ray.stages.extract import (
        extract_pages, main_content_pages)
    from html_parser_ray.stages.fused import fused_extract_pages
    # over the depth budget: every wiring parses under the same budgets
    deep = pa.Table.from_pylist([{
        "url": "http://deep.example/",
        "warc_ts": datetime.datetime(2024, 1, 1),
        "html": b"<body>" + b"<div>" * 5000 + b"x", "text": "", "lang": "en",
    }], schema=SCHEMA)
    pages = pages_dataset(60, seed=11, parallelism=4).union(
        ray.data.from_arrow(deep))
    fused = {r["url"]: r for r in
             fused_extract_pages(pages,
                                 batch_size=32).take_all()}
    ext = {r["url"]: r for r in
           extract_pages(pages, batch_size=32).take_all()}
    main = {r["url"]: r for r in
            main_content_pages(pages,
                               batch_size=32).take_all()}
    assert set(fused) == set(ext) == set(main)
    assert (fused["http://deep.example/"]["status"]
            == ext["http://deep.example/"]["status"]
            == main["http://deep.example/"]["status"] == "budget_exceeded")
    for url, f in fused.items():
        if f["status"] != "ok":
            continue
        assert f["text"] == ext[url]["text"]
        assert f["main_text"] == main[url]["main_text"]
        assert f["n_blocks"] == main[url]["n_blocks"]
        assert f["n_content_blocks"] == main[url]["n_content_blocks"]


def test_dedup_spans_removes_cross_doc_duplicates(ray_session):
    import ray
    import pyarrow as _pa
    from html_parser_ray.functions.spandedup import remove_duplicate_spans
    w = " ".join(f"w{i}" for i in range(20))          # one full window
    docs = _pa.table({
        "doc_id": _pa.array([1, 2, 3], _pa.int64()),
        "text": _pa.array([w + " tail one", w + " other end", "unique text"],
                          _pa.string())})
    out = {r["doc_id"]: r for r in remove_duplicate_spans(
        ray.data.from_arrow(docs).repartition(3), window=20).take_all()}
    assert out[1]["text"] == w + " tail one"          # first occurrence kept
    assert out[2]["text"] == "other end"              # dup window removed
    assert out[2]["n_dropped"] == 1 and out[2]["n_blocks"] == 2
    assert out[3]["text"] == "unique text"
    assert out[3]["n_dropped"] == 0


def test_dedup_spans_within_doc_duplicate(ray_session):
    import ray
    import pyarrow as _pa
    from html_parser_ray.functions.spandedup import remove_duplicate_spans
    # 2-word window repeated inside ONE doc: second occurrence dropped
    docs = _pa.table({"doc_id": _pa.array([7], _pa.int64()),
                      "text": _pa.array(["a b a b"], _pa.string())})
    out = remove_duplicate_spans(ray.data.from_arrow(docs),
                                 window=2).take_all()[0]
    assert out["text"] == "a b" and out["n_dropped"] == 1


def test_dedup_spans_fallback_matches_broadcast(ray_session):
    import ray
    import pyarrow as _pa
    from html_parser_ray.functions.spandedup import remove_duplicate_spans
    texts = [f"block {i % 4} is here now plus unique{i} filler words"
             for i in range(40)]
    docs = _pa.table({"doc_id": _pa.array(list(range(40)), _pa.int64()),
                      "text": _pa.array(texts, _pa.string())})
    ds = ray.data.from_arrow(docs).repartition(5)
    broad = {r["doc_id"]: r for r in
             remove_duplicate_spans(ds, window=5).take_all()}
    fall = {r["doc_id"]: r for r in
            remove_duplicate_spans(ds, window=5,
                                   broadcast_limit=0).take_all()}
    assert set(broad) == set(fall) == set(range(40))
    for i in broad:
        for col in ("text", "n_blocks", "n_dropped"):
            assert broad[i][col] == fall[i][col], (i, col)


def test_dedup_spans_empty_and_whitespace_doc(ray_session):
    import ray
    import pyarrow as _pa
    from html_parser_ray.functions.spandedup import remove_duplicate_spans
    docs = _pa.table({"doc_id": _pa.array([1, 2], _pa.int64()),
                      "text": _pa.array(["", "   "], _pa.string())})
    rows = {r["doc_id"]: r for r in
            remove_duplicate_spans(ray.data.from_arrow(docs)).take_all()}
    for i in (1, 2):
        assert rows[i]["text"] == ""
        assert rows[i]["n_blocks"] == 0 and rows[i]["n_dropped"] == 0


def test_semi_join_partition_and_exhaustive(ray_session):
    import ray
    from html_parser_ray.functions.joins import semi_join
    left = pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "v": pa.array(list("abcdef"), pa.string()),
    })
    right = pa.table({"rk": pa.array([2, 4, 4, 9], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(3)
    rds = ray.data.from_arrow(right)
    semi = sorted(r["k"] for r in semi_join(
        lds, rds, on="k", right_on="rk").take_all())
    assert semi == [2, 4]
    # forced marker-fallback path gives identical results
    semi_f = sorted(r["k"] for r in semi_join(
        lds, rds, on="k", right_on="rk", broadcast_limit=1,
        num_partitions=4).take_all())
    assert semi_f == semi
    # empty right side: semi -> nothing
    empty = ray.data.from_arrow(pa.table({"rk": pa.array([], pa.int64())}))
    assert semi_join(lds, empty, on="k", right_on="rk").count() == 0


def test_dedup_keep_best_by_score(ray_session):
    import ray
    from html_parser_ray.functions.dedup import dedup_keep_best
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "text": pa.array([f"t{i}" for i in range(6)], pa.string()),
    })
    # components: {1,2,3} (chain) and {5,6}; 4 is a singleton
    pairs = pa.table({
        "doc_a": pa.array([1, 2, 5], pa.int64()),
        "doc_b": pa.array([2, 3, 6], pa.int64()),
    })
    scores = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "score": pa.array([10, 99, 50, 1, 7, 7], pa.int64()),
    })
    kept = sorted(r["doc_id"] for r in dedup_keep_best(
        ray.data.from_arrow(docs), ray.data.from_arrow(pairs),
        ray.data.from_arrow(scores), num_partitions=4).take_all())
    # comp {1,2,3}: best score 99 -> keep 2; comp {5,6}: tie 7 -> min id 5
    assert kept == [2, 4, 5]
    # forced fallback path identical
    kept_f = sorted(r["doc_id"] for r in dedup_keep_best(
        ray.data.from_arrow(docs), ray.data.from_arrow(pairs),
        ray.data.from_arrow(scores), num_partitions=4,
        broadcast_limit=1).take_all())
    assert kept_f == kept


def test_split_assign_ratios_and_stability(ray_session):
    import ray
    from html_parser_ray.functions.sampling import split_assign
    import pytest
    n = 5000
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(4)
    rows = {r["doc_id"]: r["split"] for r in
            split_assign(ds, permille=(900, 50, 50)).take_all()}
    from collections import Counter
    c = Counter(rows.values())
    assert abs(c[0] / n - 0.9) < 0.03
    assert abs(c[1] / n - 0.05) < 0.015
    assert abs(c[2] / n - 0.05) < 0.015
    again = {r["doc_id"]: r["split"] for r in
             split_assign(ds, permille=(900, 50, 50)).take_all()}
    assert again == rows          # hash-stable across runs
    with pytest.raises(ValueError):
        split_assign(ds, permille=(900, 50, 40))


def test_remove_duplicate_lines_first_keeper(ray_session):
    import ray
    from html_parser_ray.functions.spandedup import remove_duplicate_lines
    shared = "copyright footer line"
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            f"unique one\n{shared}\nalpha",
            f"{shared}\nunique two",
            f"beta\n{shared}",
        ], pa.string()),
    })
    rows = {r["doc_id"]: r for r in remove_duplicate_lines(
        ray.data.from_arrow(tbl)).take_all()}
    # doc 1 (smallest id) keeps the shared line; 2 and 3 lose it
    assert rows[1]["text"] == f"unique one\n{shared}\nalpha"
    assert rows[2]["text"] == "unique two"
    assert rows[3]["text"] == "beta"
    assert rows[1]["n_dropped"] == 0
    assert rows[2]["n_dropped"] == 1 and rows[2]["n_blocks"] == 2
    assert rows[3]["n_dropped"] == 1
    # forced partitioned fallback: identical result
    rows_f = {r["doc_id"]: r["text"] for r in remove_duplicate_lines(
        ray.data.from_arrow(tbl), broadcast_limit=0,
        num_partitions=4).take_all()}
    assert rows_f == {i: rows[i]["text"] for i in (1, 2, 3)}
