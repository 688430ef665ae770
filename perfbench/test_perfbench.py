"""The benchmark's own test: every workload at tiny size, in both trace modes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_perturbed_reference_is_counted_in_the_failed_share(tmp_path):
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    for key in refs:
        if key.startswith("decoherence/tiny/phonon_chain_24["):
            refs[key]["fgr_rate"] *= 1.01
    perturbed = tmp_path / "references.json"
    perturbed.write_text(json.dumps(refs))
    result = result_of(run_bench("decoherence", 0, "--references", str(perturbed)))
    assert not result["correct"]
    # one task of the four misses its reference on every pass
    assert 4 * result["failed"] == result["attempted"]
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(0.75)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("configs", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_mismatches_respect_tolerances_and_ignore_extra_keys():
    ref = {"x": 1.0, "gate_time": 2.0, "flag": True, "label": "a", "none": None}
    assert workloads.mismatches({**ref, "extra": 5}, ref) == []
    assert workloads.mismatches({**ref, "x": 1.0 + 1e-9}, ref) == []
    assert len(workloads.mismatches({**ref, "x": 1.0 + 1e-4}, ref)) == 1
    assert workloads.mismatches({**ref, "gate_time": 2.0 * (1 + 5e-5)}, ref) == []
    assert len(workloads.mismatches({**ref, "flag": False}, ref)) == 1
    assert len(workloads.mismatches({"x": 1.0}, ref)) == 4


def test_evaluated_points_follow_grid_doubling():
    assert tracing.evaluated_points(150, 150) == 150
    assert tracing.evaluated_points(150, 299) == 150 + 299
    assert tracing.evaluated_points(10, 37) == 10 + 19 + 37
