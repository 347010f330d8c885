"""The driver queries built on the HTML document stage, checked against
their DuckDB oracles (``tools/check_oracle.py``) at sf0.001."""

import importlib.util
import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")

HTML_STAGE_QUERIES = [
    "extract_visible_text", "extract_rollup_by_lang", "extract_full",
    "main_content", "visible_tokens", "outline", "serialize_roundtrip",
    "chunks", "patch_edit",
]


@pytest.mark.skipif(not os.path.isdir(SF_DIR),
                    reason=f"sf0.001 test data not found at {SF_DIR}")
@pytest.mark.skipif(importlib.util.find_spec("duckdb") is None,
                    reason="duckdb (the oracle engine) is not installed")
def test_html_stage_queries_match_oracle():
    """Every query whose rows come from DocStage equals its SQL oracle.

    Runs in a child driver with its own 4-CPU Ray cluster, because
    check_oracle.main shuts Ray down when it finishes."""
    child_src = (
        "import ray, sys\n"
        "ray.init(address='local', num_cpus=4, include_dashboard=False)\n"
        f"sys.path[:0] = [{REPO!r}, {os.path.join(REPO, 'tools')!r}]\n"
        "import check_oracle\n"
        f"sys.exit(1 if check_oracle.main({SF_DIR!r}, "
        f"{HTML_STAGE_QUERIES!r}) else 0)\n")
    child = subprocess.Popen([sys.executable, "-c", child_src], cwd=REPO,
                             start_new_session=True, text=True,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    try:
        out, _ = child.communicate(timeout=300)
    finally:
        if child.poll() is None:   # killpg also reaps the child's cluster
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert child.returncode == 0, out
    ok = {line.split()[1].rstrip(":") for line in out.splitlines()
          if line.startswith("ok ")}
    assert ok == set(HTML_STAGE_QUERIES), out
