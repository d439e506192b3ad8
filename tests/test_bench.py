import csv
import gc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spmvlab import (BenchRecord, CSV_HEADER, ExecConfig, csr_from_triplets,
                     extruded_laplacian, read_matrix_market, write_matrix_market)
from spmvlab.bench import (append_record, find_baseline, format_partition_stats,
                           load_records, partition_stats, run_cg_benchmark,
                           run_spmv_benchmark, with_efficiency)
from spmvlab.cli import main

from helpers import identity_csr, tridiagonal


def test_gflops_arithmetic_fixture():
    # 1,000,000 nonzeros, 100 reps, 0.1 s median -> 2.0 by definition
    rec = BenchRecord("m", "serial", 1, 1, reps=100, median_s=0.1,
                      flops=2 * 1_000_000 * 100, gflops=0.0)
    rec.gflops = rec.flops / (rec.median_s * 1e9)
    assert rec.gflops == 2.0


def test_paper_scale_flop_accounting_metadata_only():
    # far beyond desk scale; only the flop accounting is asserted
    nnz = 371_102_769
    nrows = 13_491_933
    assert nrows > 10**7  # metadata sanity, matrix never built
    rec = BenchRecord("pressure", "task", 1024, 8, reps=1, median_s=1.0,
                      flops=2 * nnz * 1, gflops=0.0)
    assert rec.flops == 742_205_538


def test_run_spmv_benchmark_identity():
    A = identity_csr(1000)
    rec = run_spmv_benchmark(A, "identity", ExecConfig("vector", 2, 2), reps=3)
    assert rec.flops == 2 * 1000 * 3
    assert np.isfinite(rec.gflops) and rec.gflops > 0
    assert rec.iterations is None and rec.converged is None
    assert rec.error == ""


def test_flops_equal_across_configs():
    A = extruded_laplacian(3, 3, 4)
    flops = set()
    for cfg in (ExecConfig("serial"), ExecConfig("vector", 2, 2),
                ExecConfig("task", 1, 2), ExecConfig("task-balanced", 2, 2)):
        rec = run_spmv_benchmark(A, "lap", cfg, reps=2)
        flops.add(rec.flops)
    assert len(flops) == 1


def test_efficiency_baseline_exactly_one():
    rec = BenchRecord("m", "serial", 1, 1, 5, 0.01, 10, 1.0)
    with_efficiency(rec, None)
    assert rec.efficiency == 1.0


def test_efficiency_formula_against_baseline():
    base = BenchRecord("m", "serial", 1, 1, 5, 0.08, 10, 1.0)
    rec = BenchRecord("m", "task", 2, 2, 5, 0.03, 10, 1.0)
    with_efficiency(rec, base)
    assert rec.efficiency == (0.08 * 1) / (0.03 * 4)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "bench.csv"
    rec = BenchRecord("m.mtx", "task", 2, 4, 10, 0.015625, 2048, 0.1234,
                      efficiency=0.875, iterations=17, converged=True,
                      error="")
    append_record(path, rec)
    rec2 = BenchRecord("m.mtx", "vector", 1, 2, 10, 0.03125, 2048, 0.05,
                       iterations=None, converged=False,
                       error="message, with comma")
    append_record(path, rec2)
    with open(path) as f:
        header = f.readline().strip()
    assert header == ",".join(CSV_HEADER)
    back = load_records(path)
    assert back[0] == rec
    assert back[1] == rec2
    assert find_baseline(back, rec2) == rec
    assert find_baseline(back, replace(rec, matrix="other")) is None
    assert find_baseline(back, replace(rec, converged=None)) is None


def test_csv_empty_fields_for_inapplicable(tmp_path):
    path = tmp_path / "b.csv"
    append_record(path, BenchRecord("a", "serial", 1, 1, 1, 0.5, 2, 1.0))
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[1][9] == "" and rows[1][10] == "" and rows[1][11] == ""


def test_run_cg_benchmark_laplacian():
    A = extruded_laplacian(8, 8, 16)
    rec = run_cg_benchmark(A, "lap", ExecConfig("serial"), rtol=1e-6)
    assert rec.converged
    assert rec.iterations < 200
    assert rec.reps == rec.iterations + 1
    assert rec.flops == 2 * A.nnz * rec.reps
    assert rec.error == ""


def test_run_cg_benchmark_identity_one_iteration():
    A = identity_csr(16)
    rec = run_cg_benchmark(A, "id", ExecConfig("serial"), rtol=1e-8)
    assert rec.iterations == 1 and rec.converged


def test_run_cg_benchmark_records_breakdown():
    A = csr_from_triplets([(0, 0, 1.0), (1, 1, -1.0)], 2, 2)
    rec = run_cg_benchmark(A, "bad", ExecConfig("serial"),
                           b=np.array([0.0, 1.0]))
    assert rec.converged is False
    assert "not SPD" in rec.error
    assert rec.flops == 0 and rec.gflops == 0.0


def test_partition_stats_tridiagonal_near_uniform():
    rows = partition_stats(tridiagonal(64), workers=4)
    diag = {r["scheme"]: r["stats"] for r in rows if r["block"] == "diag"}
    assert diag["equal-rows"].imbalance < 1.1


def test_partition_stats_arrowhead_ordering():
    from spmvlab import arrowhead
    rows = partition_stats(arrowhead(256), workers=4)
    diag = {r["scheme"]: r["stats"] for r in rows if r["block"] == "diag"}
    assert (diag["greedy+diffuse"].imbalance
            <= diag["greedy"].imbalance
            <= diag["equal-rows"].imbalance)


def test_partition_stats_single_worker_exactly_one():
    rows = partition_stats(tridiagonal(32), workers=1)
    assert all(r["stats"].imbalance == 1.0 for r in rows)


def test_format_partition_stats_table():
    text = format_partition_stats(partition_stats(tridiagonal(16), workers=2))
    lines = text.strip().split("\n")
    assert "imbalance" in lines[0]
    assert len(lines) == 1 + 6  # header + 2 blocks x 3 schemes


def test_cli_gen_and_spmv_round_trip(tmp_path, capsys):
    mtx = tmp_path / "lap.mtx"
    assert main(["gen", "2", "2", "2", str(mtx)]) == 0
    out = capsys.readouterr().out
    assert "8 rows" in out and "32 nonzeros" in out
    size_line = mtx.read_text().split("\n")[1]
    assert size_line == "8 8 32"
    A = read_matrix_market(mtx)
    assert A.nnz == 32

    csv_path = tmp_path / "out.csv"
    rc = main(["spmv", str(mtx), "--model", "task", "--ranks", "2",
               "--threads", "2", "--reps", "3", "--csv", str(csv_path)])
    assert rc == 0
    recs = load_records(csv_path)
    assert len(recs) == 1
    assert recs[0].efficiency == 1.0
    rc = main(["spmv", str(mtx), "--model", "vector", "--ranks", "1",
               "--threads", "2", "--reps", "3", "--csv", str(csv_path)])
    assert rc == 0
    recs = load_records(csv_path)
    assert len(recs) == 2
    assert recs[0].flops == recs[1].flops


def test_cli_gen_rejects_zero_dimension(tmp_path, capsys):
    rc = main(["gen", "0", "1", "1", str(tmp_path / "x.mtx")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    rc = main(["spmv", str(tmp_path / "absent.mtx")])
    assert rc == 2


def test_cli_overflowing_row_is_a_structural_error(tmp_path, capsys):
    huge = [(0, j, 1.7e308) for j in range(8)] + [(i, i, 1.0) for i in range(1, 8)]
    mtx = tmp_path / "huge.mtx"
    mtx.write_text(write_matrix_market(csr_from_triplets(huge, 8, 8)))
    for model in ("serial", "vector"):
        assert main(["spmv", str(mtx), "--model", model, "--ranks", "2"]) == 2
        assert "overflow limit" in capsys.readouterr().err


def test_cli_cg(tmp_path, capsys):
    mtx = tmp_path / "lap.mtx"
    main(["gen", "4", "4", "4", str(mtx)])
    capsys.readouterr()
    rc = main(["cg", str(mtx), "--model", "task", "--ranks", "2",
               "--threads", "2", "--rtol", "1e-6",
               "--csv", str(tmp_path / "cg.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    recs = load_records(tmp_path / "cg.csv")
    assert recs[0].converged is True
    assert recs[0].iterations is not None


def test_cli_cg_non_spd_reported(tmp_path, capsys):
    mtx = tmp_path / "bad.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n"
                   "1 1 1.0\n"
                   "2 2 -1.0\n")
    rc = main(["cg", str(mtx), "--csv", str(tmp_path / "cg.csv")])
    assert rc == 0
    recs = load_records(tmp_path / "cg.csv")
    assert recs[0].converged is False
    assert "not SPD" in recs[0].error


def test_cli_partition_stats(tmp_path, capsys):
    mtx = tmp_path / "lap.mtx"
    main(["gen", "4", "4", "2", str(mtx)])
    capsys.readouterr()
    rc = main(["partition-stats", str(mtx), "--threads", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equal-rows" in out and "greedy+diffuse" in out


def test_cli_latency_flags(tmp_path):
    mtx = tmp_path / "m.mtx"
    main(["gen", "2", "2", "2", str(mtx)])
    rc = main(["spmv", str(mtx), "--model", "task", "--ranks", "2",
               "--threads", "2", "--reps", "2", "--latency-us", "100",
               "--latency-per-elem-ns", "50", "--progress", "background"])
    assert rc == 0


def test_cli_rejects_non_finite_latency(tmp_path, capsys):
    mtx = tmp_path / "m.mtx"
    main(["gen", "2", "2", "2", str(mtx)])
    for flag in ("--latency-us", "--latency-per-elem-ns"):
        for bad in ("nan", "inf"):
            rc = main(["spmv", str(mtx), "--model", "task", "--ranks", "2",
                       "--threads", "2", "--reps", "1", flag, bad])
            assert rc == 2, (flag, bad)
            assert "finite" in capsys.readouterr().err


def test_cli_cg_rejects_bad_tolerances(tmp_path, capsys):
    mtx = tmp_path / "m.mtx"
    main(["gen", "4", "4", "4", str(mtx)])
    capsys.readouterr()
    for flags in (["--rtol", "nan"], ["--rtol", "-1"], ["--rtol", "inf"],
                  ["--max-iterations", "-2"]):
        assert main(["cg", str(mtx)] + flags) == 2, flags
        captured = capsys.readouterr()
        assert "must be" in captured.err and captured.out == "", flags


def test_append_record_closes_files(tmp_path):
    path = tmp_path / "r.csv"
    rec = BenchRecord("m", "serial", 1, 1, reps=1, median_s=0.5, flops=2,
                      gflops=4e-9)
    append_record(path, rec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        append_record(path, rec)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(load_records(path)) == 2


def test_cli_weighted_decomposition(tmp_path):
    mtx = tmp_path / "m.mtx"
    main(["gen", "3", "3", "3", str(mtx)])
    rc = main(["spmv", str(mtx), "--model", "vector", "--ranks", "2",
               "--threads", "2", "--reps", "2", "--weighted-decomp"])
    assert rc == 0


def test_cli_cg_efficiency_baseline_is_a_solve(tmp_path, capsys):
    mtx = tmp_path / "m.mtx"
    csv_path = tmp_path / "r.csv"
    main(["gen", "4", "4", "4", str(mtx)])
    assert main(["spmv", str(mtx), "--reps", "2", "--csv", str(csv_path)]) == 0
    assert main(["cg", str(mtx), "--csv", str(csv_path)]) == 0
    assert main(["cg", str(mtx), "--model", "task", "--ranks", "2",
                 "--threads", "2", "--csv", str(csv_path)]) == 0
    spmv, cg, cg4 = load_records(csv_path)
    assert spmv.converged is None and cg.converged is True
    assert spmv.efficiency == 1.0 and cg.efficiency == 1.0
    assert cg4.efficiency == (cg.median_s * 1) / (cg4.median_s * 4)


def test_cli_rejects_oversize_thread_count(tmp_path, capsys):
    mtx = tmp_path / "m.mtx"
    main(["gen", "2", "2", "2", str(mtx)])
    capsys.readouterr()
    # serial spawns no rank threads, so no version of this call can start
    # a million of them; the limit applies to every model
    rc = main(["spmv", str(mtx), "--model", "serial", "--ranks", "10000",
               "--threads", "100", "--reps", "1"])
    assert rc == 2
    assert "thread limit" in capsys.readouterr().err
