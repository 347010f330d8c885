"""The benchmark's own tests (they start Ray; run with
``python -m pytest perfbench -q`` from the repository root, ~4 minutes)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import run
import pipeline_jobs as pj
from html_parser_ray.sources.synth import make_table
from kernel_ledger import SpanLog, kernel_ledger

WORKLOADS = sorted(pj.WORKLOADS)
COUNTS = ("htmlcore.count.docs", "htmlcore.count.bytes",
          "htmlcore.count.nodes", "htmlcore.count.parse_errors",
          "htmlcore.count.tokens", "htmlcore.count.content_blocks",
          "pipelines.input_blocks", "pipelines.output_rows")


@pytest.fixture
def two_cpus():
    """Pin this process (and the Ray session it starts) to two cores."""
    before = os.sched_getaffinity(0)
    if len(before) < 2:
        pytest.skip("needs two cores")
    os.sched_setaffinity(0, sorted(before)[:2])
    yield
    os.sched_setaffinity(0, before)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_passes_the_full_check(workload):
    result, report = run.run(pj, workload, seed=3, seconds=0, trace=False,
                             import_s=0.0, n_docs=24, n_setups=1)
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 24 * run.MIN_JOBS
    assert set(result["metrics"]) == set(run.metric_units(False))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_two_cpus_do_not_hang(two_cpus):
    result, report = run.run(pj, "tiny_pages", seed=4, seconds=0,
                             trace=False, import_s=0.0, n_docs=48,
                             n_setups=1)
    assert report["host"]["ray_cpus"] == 2 and report["host"]["pool"] == 1
    assert result["correct"] and result["failed"] == 0


def _traced(seed: int) -> tuple[dict, dict]:
    result, report = run.run(pj, "cc_pages", seed=seed, seconds=0,
                             trace=True, import_s=0.0, n_docs=60)
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}, report


def test_traced_run_writes_a_consistent_ledger():
    metrics, report = _traced(5)
    assert set(metrics) == set(run.metric_units(True))
    # layer spans cover the document span
    assert metrics["trace.unattributed_share"] < 0.05
    # decode + parse measure the same work as parse_bytes
    assert abs(metrics["htmlcore.decode_parse_vs_parse_bytes_share"]) < 0.05
    assert metrics["failed_share"] == 0
    trace_dir = Path(report["trace_dir"])
    ledger = json.loads((trace_dir / "ledger.json").read_text())
    assert "pipelines.unexplained.s" in ledger["derived"]
    spans = [json.loads(line) for line in
             (trace_dir / "spans.jsonl").read_text().splitlines()]
    docs = [s for s in spans if s["name"] == "htmlcore.kernel.doc"]
    assert len(docs) == 60
    jobs = {s["name"] for s in spans if s["trace_id"].startswith("job-")}
    assert jobs == {"pipelines.job", "pipelines.read_pages",
                    "pipelines.noop_job", "stages.extract"}


def test_exact_counts_repeat_across_runs():
    first, _ = _traced(6)
    second, _ = _traced(6)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_kernel_counts_repeat_in_process():
    pages = make_table(30, seed=8, size_scale=4)["html"].to_pylist()
    a = kernel_ledger(pages, True, SpanLog())
    b = kernel_ledger(pages, True, SpanLog())
    assert {k: v for k, v in a.items() if ".count." in k} == \
        {k: v for k, v in b.items() if ".count." in k}


def _write_output(out_dir: Path, urls: list[str], part_of) -> None:
    table = pa.table({
        "url": urls, "text": ["t"] * len(urls), "status": ["ok"] * len(urls),
        "n_nodes": [1] * len(urls), "n_errors": [0] * len(urls),
        "encoding": ["utf-8"] * len(urls),
        "part": [part_of(u) for u in urls]})
    pq.write_to_dataset(table, str(out_dir), partition_cols=["part"])


def test_check_flags_appended_and_misplaced_rows(tmp_path):
    wl = pj.WORKLOADS["cc_pages"]
    urls = [f"https://example.org/en/doc-{i}" for i in range(10)]

    def crc(url: str) -> int:
        return zlib.crc32(url.encode()) % pj.N_BUCKETS

    _write_output(tmp_path / "ok", urls, crc)
    good = pj.check_output(wl, tmp_path / "ok", urls, {})
    assert good.problems == [] and good.failed == 0 and good.rows == 10

    # a second job appending into the same directory
    _write_output(tmp_path / "ok", urls, crc)
    assert any("duplicate" in p
               for p in pj.check_output(wl, tmp_path / "ok", urls,
                                        {}).problems)

    _write_output(tmp_path / "moved", urls, lambda u: (crc(u) + 1) % 64)
    assert any("part=" in p for p in pj.check_output(
        wl, tmp_path / "moved", urls, {}).problems)

    _write_output(tmp_path / "short", urls[:7], crc)
    short = pj.check_output(wl, tmp_path / "short", urls, {})
    assert short.failed == 3 and short.problems


def test_watchdog_gives_up_on_a_hung_job():
    t0 = time.monotonic()
    with pytest.raises(pj.JobTimeout):
        pj.guarded(lambda: time.sleep(5), deadline=time.monotonic() + 0.2)
    assert time.monotonic() - t0 < 2


def test_cli_from_another_cwd_prints_one_result_line(tmp_path, two_cpus):
    bench = Path(run.__file__).resolve()
    proc = subprocess.run(
        [sys.executable, str(bench), "--workload", "tiny_pages", "--seed",
         "9", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_fails_fast_without_the_engine(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cc_pages",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
