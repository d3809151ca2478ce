"""Self-check of the benchmark.

Every workload runs at smoke size, passes its output checks, reports
exactly the metrics that BENCHMARK.json names, and produces the same
artifact digest on a repeat at the same seed, traced or not.  Run from the
repository root (about a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def _result(proc, lines):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def _digest(lines):
    return next(ln for ln in lines if ln.startswith("artifact_sha256 = "))


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    proc, lines = _run(workload, 0)
    result = _result(proc, lines)
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    proc, again = _run(workload, 0)
    _result(proc, again)
    assert _digest(again) == _digest(lines)

    proc, traced = _run(workload, 1)
    result = _result(proc, traced)
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["per_layer"]}
    assert _digest(traced) == _digest(lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = _run("design", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)


def test_tracer_wraps_every_binding_and_reports_absent_names():
    import fdjam.cli
    import fdjam.optimizer
    from tracer import Tracer

    original = fdjam.optimizer.solve_step1
    tracer = Tracer(("optimizer.solve_step1", "optimizer.optimize",
                     "params.validate", "optimizer.no_such_function"))
    tracer.install()
    try:
        assert fdjam.cli.optimize is fdjam.optimizer.optimize
        assert fdjam.optimizer.solve_step1 is not original
        fdjam.optimizer.solve_step1(1e-3, 1e-7, _params())
    finally:
        tracer.uninstall()
    assert fdjam.optimizer.solve_step1 is original
    assert tracer.absent == ["optimizer.no_such_function"]
    step1 = tracer.stats["optimizer.solve_step1"]
    assert step1.calls == 1 and step1.errors == 0
    assert tracer.stats["params.validate"].calls == 1
    assert 0.0 < step1.self_s
    assert tracer.counters["optimizer.solve_step1.iterations"] > 0


def _params():
    from fdjam import SystemParams
    return SystemParams(alpha=4.0, d_ab=10.0, lambda_e=1e-4, sigma_b2=1e-12,
                        sigma_e2=1e-12, rho=1e-7, epsilon=0.1,
                        p_a_max=1e-2, p_b_max=1e-2)
