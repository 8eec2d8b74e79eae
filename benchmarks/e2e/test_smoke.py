"""Smoke test of the end-to-end benchmark.

Run explicitly with ``pytest benchmarks/e2e -q``; it is outside
tier-1's ``testpaths`` because it starts eighteen child processes and
takes about half a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import validate_chrome_trace  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text(encoding="utf-8"))["sets"][0]


def test_every_workload_reports_the_four_end_to_end_metrics(smoke):
    assert list(smoke) == WORKLOADS
    for name, workload in smoke.items():
        assert set(workload["end_to_end"]) == {
            "wall_s",
            "setup_s",
            "peak_rss_mb",
            "fail_frac",
        }, name
        assert workload["end_to_end"]["fail_frac"] == 0, name
        assert workload["end_to_end"]["wall_s"] > 0, name


def test_names_are_plain_and_declared_in_benchmark_json(smoke):
    # fail_frac travels as the contract's failed/attempted pair: an
    # end-to-end metric in BENCHMARK.json may never read 0
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]} | {"fail_frac"}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for name, workload in smoke.items():
        assert NAME.fullmatch(name)
        for metric in workload["end_to_end"]:
            assert NAME.fullmatch(metric) and metric in end_to_end, metric
        for metric in workload["per_layer"]:
            assert NAME.fullmatch(metric) and metric in per_layer, metric


def test_traces_are_valid_and_account_for_the_time(smoke):
    for name, workload in smoke.items():
        trace = json.loads(
            (HERE / "out" / f"trace_{name}.json").read_text(encoding="utf-8")
        )
        assert validate_chrome_trace(trace) == [], name
        assert trace["traceEvents"], name
        assert workload["per_layer"]["bench.span_coverage"] >= 0.9, name
