"""Tests of the benchmark itself, on a tiny workload that runs in seconds.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

TINY = bench.Workload("tiny", "a 6^3 stencil that runs in well under a second",
                      "extruded_laplacian", (6, 6, 6), nranks=2, threads=1,
                      latency=True, mult_share=0.5, min_solves=2)


@pytest.fixture
def run_tiny(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    for name, seconds in (("GROUP_S", 0.005), ("BASELINE_S", 0.05), ("GEN_S", 0.01)):
        monkeypatch.setattr(bench, name, seconds)

    def run(trace=0):
        rc = bench.main(["--workload", "tiny", "--seed", "7", "--seconds", "0.05",
                         "--trace", str(trace)], workloads={"tiny": TINY})
        lines = capsys.readouterr().out.strip().splitlines()
        details = json.loads(lines[-2].removeprefix("# details "))
        return rc, json.loads(lines[-1]), details
    return run


def _spec_file():
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(run_tiny, tmp_path, trace):
    rc, result, details = run_tiny(trace)
    assert rc == 0
    assert details["spmv_groups"] > 1 and details["baseline_groups"] > 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec_file()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert not list((tmp_path / "work").iterdir())
    if trace:
        with open(tmp_path / "out" / "tiny-s7.trace.json", encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        assert {"mmio.read", "engine.context", "engine.mult",
                "krylov.cg_solve", "sparse.diagonal"} <= names
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_benchmark_json_workloads_are_defined_with_their_why():
    declared = {w["name"]: w["why"] for w in _spec_file()["workloads"]}
    defined = {name: w.why for name, w in bench.WORKLOADS.items()}
    assert declared.items() <= defined.items()
    for w in bench.WORKLOADS.values():
        assert w.nranks * w.threads <= 2


def _corrupt(y):
    y = y.copy()
    y[0] = np.nextafter(y[0], np.inf)
    return y


@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_multiply_output_fails_the_run(run_tiny, monkeypatch, trace):
    lab = bench.load_spmvlab()
    mat_mult = lab.MultContext.mat_mult
    phase_timings = lab.MultContext.mult_phase_timings

    def bad_phase_timings(self, x):
        y, timings = phase_timings(self, x)
        return _corrupt(y), timings
    monkeypatch.setattr(lab.MultContext, "mat_mult",
                        lambda self, x: _corrupt(mat_mult(self, x)))
    monkeypatch.setattr(lab.MultContext, "mult_phase_timings", bad_phase_timings)
    rc, result, details = run_tiny(trace)
    assert rc != 0
    assert not result["correct"] and result["failed"] > 0
    assert details["spmv_samples"] == details["baseline_samples"] == 0
    assert details["solves"] == 0


def test_wrong_solution_fails_the_run(run_tiny, monkeypatch):
    lab = bench.load_spmvlab()
    cg_solve = lab.cg_solve

    def bad_solve(*args, **kwargs):
        x, report = cg_solve(*args, **kwargs)
        x[0] += 1e-3
        return x, report
    monkeypatch.setattr(lab, "cg_solve", bad_solve)
    rc, result, details = run_tiny()
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] >= TINY.min_solves and details["solves"] == 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "spans.py"):
        shutil.copy(BENCH_DIR / name, tmp_path / "perfbench")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "lap40-spmv", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_engine_exception_fails_the_run_without_metrics(run_tiny, monkeypatch):
    lab = bench.load_spmvlab()

    def broken(self, x):
        raise RuntimeError("injected engine failure")
    monkeypatch.setattr(lab.MultContext, "mat_mult", broken)
    rc, result, _ = run_tiny()
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] == 1 and result["metrics"] == {}
