"""Layer-ledger benchmark of the extraction engine.

    python3 perfbench/run.py --workload cc_pages --seed 1 --seconds 12 --trace 0

Runs one workload through the production job as a closed loop (one
submitting thread, one job at a time) and prints, as its last stdout line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ledger, whose spans and summary are also written under
``.perfbench_work/trace/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# Sessions set up per end-to-end run; setup_s is their median.  Each costs
# about 9 s with its teardown, and all runs of all workloads must fit the
# benchmark's time budget, so two.
SETUPS = 2
MIN_JOBS = 2      # measured jobs per end-to-end run, even past --seconds
WARM_DOCS = 8     # the warm job that completes a setup

DERIVED = ("htmlcore.treebuilder.tree.ms_per_doc", "ray.tax.s",
           "pipelines.write_extracted.s", "stages.kernel_per_pool.s",
           "pipelines.unexplained.s", "stages.pool_busy_share")


class Run:
    """One benchmark run: inputs, Ray sessions, jobs, checks and results."""

    def __init__(self, wl, seed: int, n_docs: int, pj) -> None:
        self.wl, self.seed, self.n_docs, self.pj = wl, seed, n_docs, pj
        self.cpus = pj.ray_cpus()
        self.pool = self.cpus - 1
        self.work = pj.WORK / f"{wl.name}-{os.getpid()}"
        self.input_dir = self.work / "input"
        self.out_dir = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.timed_out = False
        self.session_dirs: list[str] = []
        self.deadline = time.monotonic() + pj.RUN_TIMEOUT_S
        self.report: dict = {}
        self.host = {"affinity_cores": len(os.sched_getaffinity(0)),
                     "ray_cpus": self.cpus, "pool": self.pool,
                     "loadavg_1m_before": os.getloadavg()[0]}

    def prepare(self):
        pages = self.pj.write_inputs(self.wl, self.seed, self.n_docs,
                                     self.input_dir)
        self.pj.write_inputs(self.wl, self.seed, WARM_DOCS,
                             self.work / "warm", n_files=1)
        self.urls = pages["url"].to_pylist()
        self.expected = self.pj.expected_sample(self.wl, pages, self.seed)
        return pages

    def setup(self, import_s: float) -> float:
        """Ray session plus the first warm pool; imports are paid once."""
        pj = self.pj
        t0 = time.perf_counter()
        self.session_dirs.append(pj.start_session(self.cpus))
        pj.guarded(lambda: pj.run_job(self.wl, self.work / "warm",
                                      self.out_dir, self.pool), self.deadline)
        seconds = import_s + time.perf_counter() - t0
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return seconds

    def job(self) -> tuple[int, int, float, int]:
        """One checked production job: (start_ns, end_ns, cpu_s, peak_rss)."""
        pj = self.pj
        pj.wait_idle(self.cpus, self.deadline)
        self.attempted += self.n_docs
        with pj.ProcessMeter() as meter:
            start, end = pj.guarded(lambda: pj.run_job(
                self.wl, self.input_dir, self.out_dir, self.pool),
                self.deadline)
        self.check = pj.check_output(self.wl, self.out_dir, self.urls,
                                     self.expected)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.failed += self.check.failed
        self.problems += self.check.problems
        self.digests.add(self.check.digest)
        return start, end, meter.cpu_s, meter.peak_rss

    def end_to_end(self, seconds: float, import_s: float,
                   n_setups: int) -> dict:
        import ray
        setups = []
        for k in range(n_setups):
            if k:
                ray.shutdown()
            setups.append(self.setup(import_s))
        self.report["setups_s"] = setups
        jobs = self.report["jobs"] = []
        rates, peaks = [], []
        t0 = time.perf_counter()

        def more() -> bool:
            if len(rates) < MIN_JOBS:
                return True
            # stop early rather than let the last job meet the deadline
            return (time.perf_counter() - t0 < seconds and time.monotonic()
                    < self.deadline - self.pj.JOB_TIMEOUT_S)

        while more():
            start, end, cpu_s, peak = self.job()
            rates.append(self.n_docs / ((end - start) / 1e9))
            peaks.append(peak / 1e6)
            jobs.append({"s": (end - start) / 1e9, "cpu_s": cpu_s,
                         "peak_rss_mb": peak / 1e6})
        return {"docs_per_s": statistics.median(rates),
                "peak_rss_mb": statistics.median(peaks),
                "setup_s": statistics.median(setups)}

    def traced(self, pages, import_s: float) -> dict:
        from kernel_ledger import SpanLog, kernel_ledger
        pj = self.pj
        self.spans = SpanLog()
        ledger = kernel_ledger(pages["html"].to_pylist(), self.wl.main_content,
                               self.spans)
        self.host["kernel_docs_per_s"] = ledger["htmlcore.kernel.docs_per_s"]
        self.setup(import_s)
        start, end, cpu_s, _rss = self.job()
        self.spans.add("job-pipelines.job", "pipelines.job", start, end)
        layers = pj.layer_jobs(self.wl, self.input_dir, self.out_dir,
                               self.pool, self.spans, self.deadline)
        self.attempted += self.n_docs
        self.failed += abs(self.n_docs - layers.pop("stage_rows"))
        if layers.pop("read_rows") != self.n_docs:
            self.problems.append("read_pages returned a different row count")
        job_s = (end - start) / 1e9
        kernel_s = ledger.pop("htmlcore.kernel.total_s")
        noop_s = layers["pipelines.noop_job.s"]
        ledger.update(layers)
        ledger.update({
            "pipelines.job.s": job_s,
            "cpu_s_per_1k_docs": cpu_s * 1000 / self.n_docs,
            "ray.tax.s": noop_s - layers["pipelines.read_pages.s"],
            "pipelines.write_extracted.s": job_s - layers["stages.extract.s"],
            "htmlcore.kernel.total_s": kernel_s,
            "stages.kernel_per_pool.s": kernel_s / self.pool,
            "pipelines.unexplained.s": job_s - noop_s - kernel_s / self.pool,
            "stages.pool_busy_share": kernel_s / (self.pool * job_s),
            "pipelines.output_rows": self.check.rows,
            "pipelines.output_files": self.check.files,
            "failed_share": self.failed / self.attempted,
        })
        return ledger

    def write_trace(self, metrics: dict) -> Path:
        out = self.pj.WORK / "trace" / f"{self.wl.name}-seed{self.seed}"
        out.mkdir(parents=True, exist_ok=True)
        self.spans.write(out / "spans.jsonl")
        with open(out / "ledger.json", "w", encoding="utf-8") as f:
            json.dump({"workload": self.wl.name, "seed": self.seed,
                       "docs": self.n_docs, "host": self.host,
                       "derived": [m for m in DERIVED if m in metrics],
                       "metrics": metrics}, f, indent=1, sort_keys=True)
        return out


def run(pj, workload: str, seed: int, seconds: float, trace: bool,
        import_s: float, n_docs: int | None = None,
        n_setups: int = SETUPS) -> tuple[dict, dict]:
    """One run; returns (result line, report)."""
    import ray
    wl = pj.WORKLOADS[workload]
    r = Run(wl, seed, n_docs or wl.n_docs, pj)
    metrics: dict = {}
    try:
        pages = r.prepare()
        pj.ray_stop()
        if trace:
            metrics = r.traced(pages, import_s)
        else:
            metrics = r.end_to_end(seconds, import_s, n_setups)
    except pj.JobTimeout as exc:
        r.timed_out = True
        r.problems.append(str(exc))
        r.failed = r.attempted      # every doc of a timed-out run counts failed
    finally:
        if ray.is_initialized() and not r.timed_out:
            ray.shutdown()
        pj.ray_stop()               # also cancels the work of a timed-out job
        for path in r.session_dirs:
            shutil.rmtree(path, ignore_errors=True)
    r.host["loadavg_1m_after"] = os.getloadavg()[0]
    report = {"workload": wl.name, "seed": seed, "docs": r.n_docs,
              "host": r.host, "digest": sorted(r.digests),
              "problems": r.problems, **r.report}
    if trace and not r.timed_out:
        report["trace_dir"] = str(r.write_trace(metrics))
    shutil.rmtree(r.work, ignore_errors=True)
    units = metric_units(trace)
    result = {"correct": not r.problems and len(r.digests) == 1,
              "attempted": r.attempted, "failed": r.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items() if k in units}}
    return result, report


def metric_units(trace: bool) -> dict[str, str]:
    """name → unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cc_pages", "tiny_pages", "cc_main_content"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        import pipeline_jobs as pj
    except ImportError as exc:
        print(f"perfbench: the engine is not importable here: {exc}",
              file=sys.stderr)
        return 2
    result, report = run(pj, args.workload, args.seed, args.seconds,
                         bool(args.trace), time.perf_counter() - t0)
    if report["problems"]:
        print("perfbench: output check failed: " + "; ".join(
            report["problems"][:5]), file=sys.stderr, flush=True)
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        # a timed-out job may still hold a thread inside Ray
        os._exit(1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
