"""Smoke test of the benchmark harness: the smallest workload at a tiny
size.  It checks the result's shape and metric names, and that a wrong
expectation counts as a failure.  It never looks at a timing.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "corpus", "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "0.03"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    result = bench(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.SHIPPED)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")


def test_traced_run_prints_every_per_layer_metric():
    result = bench(1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")


def test_wrong_expectation_counts_as_failure(tmp_path):
    instances = [i for i in workloads.build("corpus", 7, size=0.01) if i["family"] == "shipped"]
    manifest = json.loads(workloads.write(instances[:2], tmp_path).read_text(encoding="utf-8"))
    right, wrong = manifest
    wrong["expect"] = ["0 NO"]  # no shipped system is refuted without --disprove
    records = [run.run_instance(right), run.run_instance(wrong)]
    assert [r["status"] for r in records] == ["ok", "wrong"]
    counts = run.tally(records)
    assert counts["failed"] == 1 and counts["wrong"] == 1
    assert counts["correct"] is False
