"""Smoke tests of the benchmark: tiny inputs, every workload, both modes.

Run from the root of the checkout with ``python3 -m pytest bench``.  Each run
uses ``--smoke`` (depth-2 games, an 11x5x11 PDE grid, 1k filter paths) and
checks the result line against BENCHMARK.json: the exact metric names, each
with its unit, all gates passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_counters_repeat_at_one_seed():
    runs = [_run("--workload", "cli_pipeline", "--seed", "1", "--seconds", "0.5",
                 "--trace", "1", "--smoke") for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    # read from what the commands did: the rule set, the simulated paths, the files
    assert all(counts[0][k] > 0 for k in
               ("oracle.rules", "dynamics.path_steps", "gameio.bytes_written"))


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tree_battery",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
