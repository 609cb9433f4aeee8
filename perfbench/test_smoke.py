"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END_UNITS if trace == "0" else {n: u for n, u, _ in LAYER_METRICS}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(LAYER_METRICS)
    baseline = json.loads((BENCH / "baseline.json").read_text())
    mapped = {metric for row in baseline["layer_map"] for metric in row["metrics"]}
    assert mapped == {name for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_checkpoint_matches_baseline(workload):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                "--checkpoint", "--smoke")
    assert out.returncode == 0, out.stderr
    baseline = json.loads((BENCH / "baseline.json").read_text())
    assert out.stdout.strip() == baseline["smoke_checkpoints_seed_0"][workload]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "equiv", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
