"""Every committed ``BENCH_*.json`` carries what a speed claim rests on: the
parent commit it was measured against, the host's core and BLAS thread counts,
and for each workload it reports the parent's and the change's median of every
end-to-end metric that ``BENCHMARK.json`` declares."""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_repository_has_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_its_parent_host_and_every_end_to_end_median(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc.get("parent"), str) and doc["parent"], "no parent commit"
    host = doc.get("host", {})
    for key in ("nproc", "blas_threads"):
        assert type(host.get(key)) is int and host[key] >= 1, f"no host.{key}"
    workloads = doc.get("workloads", {})
    assert workloads and set(workloads) <= WORKLOADS, sorted(workloads)
    for name, record in workloads.items():
        summary = record.get("summary", {})
        missing = [metric for metric in END_TO_END
                   if not all(isinstance(summary.get(metric, {}).get(side), numbers.Real)
                              for side in ("parent_median", "change_median"))]
        assert not missing, f"{name}: no parent and change median for {missing}"
