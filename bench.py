"""Benchmark harness (driver contract).

Runs the headline extraction and every ``queries()`` entry over
$GRAFT_SF_DIR (default /root/testdata/sf0.1) with
ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or the CPUs this process
may run on) and prints ONE JSON line:
  {"metric": ..., "value": N, "unit": "sec", "queries": {...}, "sf": ...,
   "num_cpus": N}
"""

from __future__ import annotations

import json
import os
import sys
import time

import pyarrow as pa

REPO = os.path.dirname(os.path.abspath(__file__))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))


def _sf_label(sf_dir: str) -> float | str:
    base = os.path.basename(sf_dir.rstrip("/"))
    if base.startswith("sf"):
        try:
            return float(base[2:])
        except ValueError:
            pass
    return base


SIZE_SCALE = 32           # ~40 KB mean page (CC-like), 2 MB giant outliers
PAGES_PER_SF = 160_000    # sf0.1 → 16000 pages ≈ 600 MB of html (long
                          # enough that pool spin-up doesn't dominate at 32 cpus)


def _corpus_dir(sf: float) -> str:
    n = max(200, int(PAGES_PER_SF * sf))
    return os.path.join(
        "/tmp/graft_bench",
        f"pages_n{n}_scale{SIZE_SCALE}_seed42"), n


def _ensure_corpus(sf: float) -> str:
    """Deterministic CC-scale synth pages parquet, generated once and cached
    (the flagship benchmark input — the testdata documents are ~300 B each,
    far below web-page sizes, so extraction timing over them measures only
    dispatch overhead)."""
    path, n = _corpus_dir(sf)
    marker = os.path.join(path, "_DONE")
    if not os.path.exists(marker):
        from html_parser_ray.sources.synth import pages_dataset
        # many output files: block count is the map-parallelism unit
        ds = pages_dataset(n, seed=42, parallelism=64, size_scale=SIZE_SCALE)
        ds.write_parquet(path)
        with open(marker, "w") as f:
            f.write("ok")
    return path


def bench_extract(sf_dir: str) -> dict:
    """Flagship: CC-scale pages parquet → DocStage task map →
    streaming aggregate consumption."""
    import ray
    from html_parser_ray.stages.extract import extract_pages
    import pyarrow.compute as pc

    sf = _sf_label(sf_dir)
    corpus = _ensure_corpus(sf if isinstance(sf, float) else 0.1)
    pages = ray.data.read_parquet(
        corpus, columns=["url", "warc_ts", "html", "lang"],
        override_num_blocks=max(64, NUM_CPUS * 4))
    meta = ray.data.read_parquet(corpus, columns=["html"])
    stats0 = meta.map_batches(
        lambda b: pa.table({
            "n": [b.num_rows],
            "b": [int(pc.sum(pc.binary_length(b.column("html"))).as_py() or 0)],
        }), batch_format="pyarrow").sum(["n", "b"])
    n_docs, total_bytes = stats0["sum(n)"], stats0["sum(b)"]

    t0 = time.perf_counter()
    extracted = extract_pages(pages, batch_size=16)
    stats = extracted.map_batches(
        lambda b: pa.table({
            "chars": [int(pc.sum(b.column("n_chars")).as_py() or 0)],
            "ok": [int(pc.sum(pc.cast(pc.equal(b.column("status"), "ok"),
                                      pa.int64())).as_py() or 0)],
        }), batch_format="pyarrow").sum(["chars", "ok"])
    elapsed = time.perf_counter() - t0
    return {"sec": elapsed, "docs": n_docs, "bytes": total_bytes,
            "docs_per_sec": n_docs / elapsed,
            "mb_per_sec": total_bytes / 1e6 / elapsed,
            "ok_docs": stats["sum(ok)"]}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# This VM's wall-clock drifts ±20–35% with host load (BASELINE.md), so a
# bench of one run cannot distinguish regression from noise (the r2 verdict's
# ask). Every headline number is the MEDIAN of GRAFT_BENCH_REPS (default 3)
# same-session runs, with min/max disclosed in the output.
BENCH_REPS = int(os.environ.get("GRAFT_BENCH_REPS", "3"))

# Idle-box single-thread calibration rate (docs/s over the 60-doc synth
# sample below), pinned from a measured idle window — BASELINE.md
# "Calibration". A bench window whose pre/post calibration falls well
# under this (ratio < ~0.8) ran on a degraded host and its absolute
# times overstate; within-window relative prices remain meaningful.
CALIB_REF_DOCS_PER_SEC = float(
    os.environ.get("GRAFT_CALIB_REF", "130.0"))


def _calibration(n_docs: int = 60) -> dict:
    """Single-thread extract-kernel rate + loadavg, embedded before and
    after every sweep so a host-degraded window is machine-detectable
    (the r4 driver window silently recorded a 25%-degraded host; this
    field makes that visible in the artifact itself)."""
    from html_parser_ray.sources.synth import make_table
    from html_parser_ray.htmlcore.api import parse_bytes
    from html_parser_ray.htmlcore.extract import visible_text
    tbl = make_table(n_docs, seed=42, size_scale=32)
    htmls = tbl.column("html").to_pylist()
    n_bytes = sum(len(h) for h in htmls)
    t0 = time.perf_counter()
    for h in htmls:
        visible_text(parse_bytes(h))
    dt = time.perf_counter() - t0
    load = os.getloadavg()
    return {"docs_per_sec": round(len(htmls) / dt, 1),
            "mb_per_sec": round(n_bytes / 1e6 / dt, 3),
            "loadavg_1m": round(load[0], 2),
            "loadavg_5m": round(load[1], 2)}


def _window_health(pre: dict, post: dict) -> dict:
    ratio = min(pre["docs_per_sec"], post["docs_per_sec"]) \
        / CALIB_REF_DOCS_PER_SEC
    return {"pre": pre, "post": post,
            "ref_docs_per_sec": CALIB_REF_DOCS_PER_SEC,
            "min_ratio_vs_ref": round(ratio, 3),
            "host_degraded": ratio < 0.8}


def _median_timed(fn, reps: int = BENCH_REPS) -> dict:
    times = sorted(_timed(fn) for _ in range(reps))
    mid = len(times) // 2
    median = times[mid] if reps % 2 else (times[mid - 1] + times[mid]) / 2
    return {"median": median, "min": times[0], "max": times[-1],
            "reps": reps}


def bench_main_content_cc(sf_dir: str) -> dict:
    """Boilerplate-strip throughput over the SAME CC-scale corpus as the
    flagship (real chrome to classify, not the 300-B documents rows)."""
    import ray
    from html_parser_ray.stages.extract import main_content_pages
    sf = _sf_label(sf_dir)
    corpus = _ensure_corpus(sf if isinstance(sf, float) else 0.1)
    pages = ray.data.read_parquet(
        corpus, columns=["url", "html"],
        override_num_blocks=max(64, NUM_CPUS * 4))
    return _median_timed(lambda: _consume(main_content_pages(pages)))


def bench_queries(sf_dir: str) -> dict[str, dict]:
    sys.path.insert(0, REPO)
    import __ray_entry__ as em
    qs = em.queries()
    times: dict[str, dict] = {}
    for name, fn in qs.items():
        times[name] = _median_timed(lambda: _consume(fn(sf_dir)))
    times["main_content_cc"] = bench_main_content_cc(sf_dir)
    return times


def _consume(result) -> None:
    import ray
    if isinstance(result, ray.data.Dataset):
        for _ in result.iter_batches(batch_size=4096, batch_format="pyarrow"):
            pass
    # pandas / pyarrow results are already materialized


def run_single(sf_dir: str, num_cpus: int) -> dict:
    import ray
    # log_to_driver=False: worker stdout/stderr otherwise forwards to THE
    # DRIVER'S STDOUT (observed: a stray actor log line landed in front of
    # the one-JSON-line contract output); logs stay in the Ray session dir
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             log_to_driver=False)
    try:
        runs = sorted((bench_extract(sf_dir) for _ in range(BENCH_REPS)),
                      key=lambda r: r["sec"])
        mid = len(runs) // 2
        if BENCH_REPS % 2:
            ext = dict(runs[mid])               # true median run
        else:
            # even reps: report the true median elapsed (mean of the two
            # middle runs) and rescale the derived rates to match, so the
            # headline agrees with _median_timed's convention
            ext = dict(runs[mid - 1])
            ext["sec"] = (runs[mid - 1]["sec"] + runs[mid]["sec"]) / 2
            ext["docs_per_sec"] = ext["docs"] / ext["sec"]
            ext["mb_per_sec"] = ext["bytes"] / 1e6 / ext["sec"]
        ext.update({"sec_min": runs[0]["sec"], "sec_max": runs[-1]["sec"],
                    "reps": BENCH_REPS})
        return {"extract": ext, "queries": bench_queries(sf_dir)}
    finally:
        ray.shutdown()


def main() -> None:
    calib_pre = _calibration()
    out = run_single(SF_DIR, NUM_CPUS)
    calib_post = _calibration()
    ext = out["extract"]
    queries = {"extract": round(ext["sec"], 3)}
    queries.update({k: round(v["median"], 3)
                    for k, v in out["queries"].items()})
    spread = {"extract": [round(ext["sec_min"], 3), round(ext["sec_max"], 3)]}
    spread.update({k: [round(v["min"], 3), round(v["max"], 3)]
                   for k, v in out["queries"].items()})
    print(json.dumps({
        "metric": f"extraction throughput (docs/sec, median of {BENCH_REPS})",
        "value": round(ext["docs_per_sec"], 2),
        "unit": "sec",
        "queries": queries,
        "queries_min_max": spread,
        "bench_reps": BENCH_REPS,
        "sf": _sf_label(SF_DIR),
        "num_cpus": NUM_CPUS,
        "extract_docs": ext["docs"],
        "extract_mb_per_sec": round(ext["mb_per_sec"], 3),
        "ok_docs": ext["ok_docs"],
        "calibration": _window_health(calib_pre, calib_post),
    }))


if __name__ == "__main__":
    main()
