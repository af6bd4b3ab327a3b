"""Small-size smoke test of the benchmark.

Run from the repository root:  python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import tail_latency  # noqa: E402


def run_bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


@pytest.mark.parametrize("workload", ["describe_clean", "relation_corpus"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_and_nothing_fails(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.split()[:1] == [m["name"]] for line in proc.stdout.splitlines())
    details = next(line for line in proc.stdout.splitlines() if line.startswith("details "))
    if not trace:
        assert json.loads(details[len("details "):])["failed_frac"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "describe_clean", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, pct = tail_latency(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100 * 89 / 99)
