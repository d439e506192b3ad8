"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines alongside pytest's own report. Timing-based criteria use medians
over repeated runs to resist scheduler noise.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spmvlab import (ExecConfig, Fabric, LatencyModel, arrowhead,
                     build_all_layouts, build_scatter_plan, create_context,
                     create_fabric, csr_from_triplets, decompose_rows, diffuse,
                     cg_solve, extruded_laplacian, greedy_partition,
                     read_matrix_market, spmv_serial, two_phase_multiply,
                     write_matrix_market)
from spmvlab.balance import balance_stats
from spmvlab.bench import BenchRecord, partition_stats, run_spmv_benchmark, with_efficiency
from spmvlab.krylov import MAX_ITERATIONS

from helpers import (max_load_of, optimal_contiguous_max_load, random_spd_csr,
                     reference_cg_jacobi)

MODELS = ("serial", "vector", "task", "task-balanced")
RANK_SET = (1, 2, 3, 4)
THREAD_SET = (2, 3, 4, 8)


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL: {description}")
        raise
    print(f"\n[criterion {number}] PASS: {description} "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_oracle_equivalence_exact():
    with criterion(1, "bitwise oracle equivalence over 100 SPD matrices x "
                      "all model/rank/thread combinations"):
        rng = np.random.default_rng(1001)
        sizes = [16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]
        for index in range(100):
            n = sizes[index % len(sizes)]
            density = 0.01 + 0.09 * ((index * 7) % 10) / 9
            A = random_spd_csr(rng, n, density)
            x = rng.uniform(-1.0, 1.0, n)
            ref = spmv_serial(A, x)
            fabric = create_fabric(max(RANK_SET))
            for model in MODELS:
                for ranks in RANK_SET:
                    for threads in THREAD_SET:
                        cfg = ExecConfig(model, ranks, threads)
                        with create_context(A, cfg, fabric) as ctx:
                            y = ctx.mat_mult(x)
                        assert y.tobytes() == ref.tobytes(), (
                            index, n, density, model, ranks, threads)


def test_criterion_2_two_phase_identity_exact():
    with criterion(2, "per-rank diag+off concatenation equals whole-matrix "
                      "multiply for 50 random decompositions"):
        rng = np.random.default_rng(2002)
        for trial in range(50):
            n = int(rng.integers(2, 260))
            A = random_spd_csr(rng, n, float(rng.uniform(0.02, 0.2)))
            nranks = int(rng.integers(1, 7))
            layouts = build_all_layouts(A, decompose_rows(n, nranks))
            plan = build_scatter_plan(layouts)
            x = rng.uniform(-10.0, 10.0, n)
            y = two_phase_multiply(layouts, plan, x)
            assert y.tobytes() == spmv_serial(A, x).tobytes(), (trial, n, nranks)


def test_criterion_3_partitioner_optimality_bracket():
    with criterion(3, "greedy+diffuse within [optimum, optimum + max row "
                      "nnz] on 1000 exhaustively checked profiles; "
                      "diffusion never increases max load"):
        rng = np.random.default_rng(3003)
        for trial in range(1000):
            nrows = int(rng.integers(1, 13))
            workers = int(rng.integers(1, 5))
            row_nnz = rng.integers(0, 25, nrows).tolist()
            g = greedy_partition(row_nnz, workers)
            d = diffuse(g, row_nnz)
            greedy_max = max_load_of(g.boundaries, row_nnz)
            diffused_max = max_load_of(d.boundaries, row_nnz)
            assert diffused_max <= greedy_max, (trial, row_nnz, workers)
            optimum = optimal_contiguous_max_load(row_nnz, workers)
            assert optimum <= diffused_max <= optimum + max(row_nnz, default=0), (
                trial, row_nnz, workers)


def test_criterion_4_worked_partition_fixtures():
    with criterion(4, "worked partition fixtures match and agree with the "
                      "enumeration oracle"):
        part = greedy_partition([3, 1, 1, 3], 2)
        assert balance_stats(part, [3, 1, 1, 3]).loads == (4, 4)
        assert optimal_contiguous_max_load([3, 1, 1, 3], 2) == 4

        nnz = [2, 2, 5, 1, 1, 1]
        g = greedy_partition(nnz, 2)
        assert max_load_of(g.boundaries, nnz) == 9
        d = diffuse(g, nnz)
        assert max_load_of(d.boundaries, nnz) == 8
        assert optimal_contiguous_max_load(nnz, 2) == 8


def alternating_medians(contexts, reps, measure):
    """Median of ``measure(ctx)`` per context over ``reps`` rounds, each
    round measuring every context in turn, so that all of them see the
    same host state."""
    runs = [[] for _ in contexts]
    for _ in range(reps):
        for ctx, out in zip(contexts, runs):
            out.append(measure(ctx))
    return [statistics.median(out) for out in runs]


def test_criterion_5_overlap_demonstration():
    with criterion(5, "task model hides injected latency: median task time "
                      "<= 0.75 x median vector time at latency = diag time"):
        A = extruded_laplacian(16, 16, 1024)
        x = np.random.default_rng(5005).uniform(-1.0, 1.0, A.ncols)

        with create_context(A, ExecConfig("vector", 2, 4), create_fabric(2)) as ctx:
            ctx.mat_mult(x)
            spans = []
            for _ in range(3):
                _, tms = ctx.mult_phase_timings(x)
                spans.append(max(t.diag_s for t in tms))
        L = statistics.median(spans)
        assert L > 0.005, f"diag phase unexpectedly fast ({L * 1e3:.2f} ms)"
        fab = Fabric(2, LatencyModel(per_message_s=L))

        def timed_multiply(ctx):
            t0 = time.perf_counter()
            ctx.mat_mult(x)
            return time.perf_counter() - t0

        with create_context(A, ExecConfig("vector", 2, 4), fab) as vector, \
                create_context(A, ExecConfig("task", 2, 4), fab) as task:
            alternating_medians((vector, task), 3, timed_multiply)  # warm-up
            t_vector, t_task = alternating_medians((vector, task), 5,
                                                   timed_multiply)
        ratio = t_task / t_vector
        print(f"\n  diag span L={L * 1e3:.1f} ms, vector={t_vector * 1e3:.1f} ms, "
              f"task={t_task * 1e3:.1f} ms, ratio={ratio:.3f}")
        assert ratio <= 0.75, f"overlap ratio {ratio:.3f} > 0.75"


def test_criterion_6_balanced_thread_benefit():
    with criterion(6, "nnz balancing shrinks the slowest thread: balanced "
                      "max-thread diag time <= 0.8 x equal-rows, and "
                      "imbalance ordering diffuse <= greedy <= equal-rows"):
        A = arrowhead(262144)
        x = np.random.default_rng(6006).uniform(-1.0, 1.0, A.ncols)
        ref = spmv_serial(A, x)

        def max_thread(ctx):
            _, tms = ctx.mult_phase_timings(x)
            return max(max(t.diag_thread_s) for t in tms)

        with create_context(A, ExecConfig("task", 1, 4)) as equal, \
                create_context(A, ExecConfig("task-balanced", 1, 4)) as balanced:
            for ctx in (equal, balanced):
                assert ctx.mat_mult(x).tobytes() == ref.tobytes()
            t_equal, t_balanced = alternating_medians((equal, balanced), 5,
                                                      max_thread)
        assert t_equal > 0.005, f"diag phase unexpectedly fast ({t_equal * 1e3:.2f} ms)"
        ratio = t_balanced / t_equal
        print(f"\n  equal-rows={t_equal * 1e3:.2f} ms, "
              f"balanced={t_balanced * 1e3:.2f} ms, ratio={ratio:.3f}")
        assert ratio <= 0.8, f"balanced/equal ratio {ratio:.3f} > 0.8"

        stats = {r["scheme"]: r["stats"]
                 for r in partition_stats(A, workers=4) if r["block"] == "diag"}
        assert (stats["greedy+diffuse"].imbalance
                <= stats["greedy"].imbalance
                <= stats["equal-rows"].imbalance)


def test_criterion_7_cg_protocol():
    with criterion(7, "Jacobi-PCG converges in < 200 iterations at rtol 1e-6 "
                      "with oracle-verified residual; iteration cap honored"):
        A = extruded_laplacian(8, 8, 16)
        b = np.ones(A.nrows)
        with create_context(A, ExecConfig("task", 2, 4)) as ctx:
            x, report = cg_solve(ctx, b, rtol=1e-6)
        assert report.converged and report.iterations < 200
        true_rel = np.linalg.norm(b - spmv_serial(A, x)) / np.linalg.norm(b)
        assert true_rel <= 1e-6
        x_ref, it_ref, ok = reference_cg_jacobi(A.to_dense(), b, 1e-6)
        assert ok and it_ref < 200
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-5

        assert MAX_ITERATIONS == 10_000
        tiny = extruded_laplacian(3, 3, 3)
        with create_context(tiny, ExecConfig("serial")) as ctx:
            _, capped = cg_solve(ctx, np.ones(tiny.nrows), rtol=1e-300,
                                 max_iterations=25)
        assert capped.converged is False
        assert capped.iterations == 25


def test_criterion_8_efficiency_accounting(tmp_path):
    with criterion(8, "baseline efficiency exactly 1.0 and flop counts "
                      "identical across configurations"):
        A = extruded_laplacian(4, 4, 4)
        reps = 3
        records = []
        for cfg in (ExecConfig("serial", 1, 1), ExecConfig("vector", 2, 2),
                    ExecConfig("task", 2, 2), ExecConfig("task-balanced", 4, 2)):
            rec = run_spmv_benchmark(A, "lap444", cfg, reps=reps)
            baseline = records[0] if records else None
            records.append(with_efficiency(rec, baseline))
        assert records[0].efficiency == 1.0
        assert len({r.flops for r in records}) == 1
        assert records[0].flops == 2 * A.nnz * reps
        for rec in records[1:]:
            expected = (records[0].median_s * records[0].cores) / (
                rec.median_s * rec.cores)
            assert rec.efficiency == expected


def test_criterion_9_matrix_market_fixtures():
    with criterion(9, "Matrix Market round-trip and symmetric expansion are "
                      "bit-exact"):
        rng = np.random.default_rng(9009)
        for trial in range(20):
            n = int(rng.integers(1, 60))
            A = random_spd_csr(rng, n, float(rng.uniform(0.05, 0.4)))
            import io
            B = read_matrix_market(io.StringIO(write_matrix_market(A)))
            assert np.array_equal(A.row_offsets, B.row_offsets)
            assert np.array_equal(A.col_indices, B.col_indices)
            assert A.values.tobytes() == B.values.tobytes()

        import io
        sym = read_matrix_market(io.StringIO(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -0.5\n"
            "3 2 0.25\n"
            "3 3 1.0\n"))
        dense = sym.to_dense()
        assert np.array_equal(dense, dense.T)
        assert dense[1, 0] == -0.5 and dense[0, 1] == -0.5
        assert dense[2, 1] == 0.25 and dense[1, 2] == 0.25
