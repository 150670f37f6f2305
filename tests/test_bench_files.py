"""The committed perf trajectory: every ``perf/BENCH_*.json`` is a whole record of one run."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted((ROOT / "perf").glob("BENCH_*.json"))


def test_the_trajectory_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_names_its_run_and_metrics(path):
    record = json.loads(path.read_text())
    argv = record["argv"]
    assert argv[:2] == ["python3", "bench/run.py"]
    flags = dict(zip(argv[2::2], argv[3::2]))
    assert set(flags) == {"--workload", "--seed", "--seconds", "--trace"}
    assert flags["--workload"] in {w["name"] for w in SPEC["workloads"]}
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert path.name == f"BENCH_{record['commit'][:10]}_{flags['--workload']}_trace{flags['--trace']}.json"
    assert record["header"][0].startswith(f"workload {flags['--workload']}  seed {flags['--seed']}")
    assert any(line.startswith("host nproc") for line in record["header"])
    assert re.fullmatch(r"Core: \S+", record["blas_core"])
    result = record["result"]
    assert result["correct"] is True
    names = SPEC["per_layer" if flags["--trace"] == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in names]
