import os
import threading
import time

import numpy as np
import pytest

from spmvlab import (CgBreakdownError, ExecConfig, MODELS,
                     SingularPreconditionerError, cg_solve, create_context,
                     csr_from_triplets, extruded_laplacian, jacobi_apply,
                     spmv_serial)
from spmvlab.krylov import DEFAULT_RTOL, MAX_ITERATIONS, _ranked_dot
from spmvlab.layout import decompose_rows

from helpers import identity_csr, random_spd_csr, reference_cg_jacobi


def test_jacobi_fixture():
    z = jacobi_apply(np.array([2.0, 4.0]), np.array([2.0, 4.0]))
    assert z.tolist() == [1.0, 1.0]


def test_jacobi_identity_preconditioner():
    r = np.array([3.0, -1.0, 0.5])
    assert jacobi_apply(np.ones(3), r).tolist() == r.tolist()


def test_jacobi_zero_diagonal_names_row():
    with pytest.raises(SingularPreconditionerError, match="row 1"):
        jacobi_apply(np.array([2.0, 0.0, 1.0]), np.ones(3))


def test_default_constants():
    assert MAX_ITERATIONS == 10_000
    assert DEFAULT_RTOL == 1e-5


def test_identity_converges_in_one_iteration():
    A = identity_csr(8)
    b = np.random.default_rng(0).uniform(-5, 5, 8)
    with create_context(A, ExecConfig("serial")) as ctx:
        x, rep = cg_solve(ctx, b, rtol=1e-10)
    assert rep.iterations == 1
    assert rep.converged
    assert rep.spmv_count == rep.iterations + 1
    assert np.allclose(x, b, rtol=0, atol=1e-12)


def test_jacobi_makes_diagonal_system_one_iteration():
    A = csr_from_triplets([(i, i, float(i + 1)) for i in range(8)], 8, 8)
    with create_context(A, ExecConfig("serial")) as ctx:
        x, rep = cg_solve(ctx, np.ones(8), rtol=1e-12)
    assert rep.iterations == 1
    assert np.allclose(x, 1.0 / np.arange(1.0, 9.0), rtol=0, atol=1e-15)


def test_laplacian_solve_matches_reference():
    A = extruded_laplacian(8, 8, 16)
    b = np.ones(A.nrows)
    with create_context(A, ExecConfig("task", 2, 4)) as ctx:
        x, rep = cg_solve(ctx, b, rtol=1e-6)
    assert rep.converged
    assert rep.iterations < 200
    assert rep.spmv_count == rep.iterations + 1
    true_rel = np.linalg.norm(b - spmv_serial(A, x)) / np.linalg.norm(b)
    assert true_rel <= 1e-6
    # independent dense oracle agrees on behavior and solution
    x_ref, it_ref, ok = reference_cg_jacobi(A.to_dense(), b, 1e-6)
    assert ok and it_ref < 200
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-5


def test_residual_recurrence_drift_small():
    A = extruded_laplacian(6, 6, 8)
    rng = np.random.default_rng(5)
    b = rng.uniform(-1, 1, A.nrows)
    with create_context(A, ExecConfig("serial")) as ctx:
        x, rep = cg_solve(ctx, b, rtol=1e-8)
    assert rep.converged
    true_norm = np.linalg.norm(b - spmv_serial(A, x))
    recurred = rep.final_relative_residual * np.linalg.norm(b)
    assert abs(true_norm - recurred) <= 1e-8 * np.linalg.norm(b)


def test_model_independence_bitwise_at_fixed_ranks():
    A = extruded_laplacian(4, 4, 6)
    b = np.random.default_rng(6).uniform(-2, 2, A.nrows)
    results = {}
    for model in MODELS:
        cfg = ExecConfig(model, 2, 2) if model != "serial" else ExecConfig(model, 2, 1)
        with create_context(A, cfg) as ctx:
            x, rep = cg_solve(ctx, b, rtol=1e-7)
        results[model] = (x.tobytes(), rep.iterations)
    baseline = results["serial"]
    for model in MODELS:
        assert results[model] == baseline, model


def test_rank_count_changes_iterations_little():
    A = extruded_laplacian(4, 4, 8)
    b = np.random.default_rng(7).uniform(-1, 1, A.nrows)
    iters = []
    for ranks in (1, 2, 3, 4):
        with create_context(A, ExecConfig("vector", ranks, 2)) as ctx:
            x, rep = cg_solve(ctx, b, rtol=1e-7)
        assert rep.converged
        assert rep.final_relative_residual <= 1e-7
        iters.append(rep.iterations)
    assert max(iters) - min(iters) <= 2


def test_iteration_cap_honored_exactly():
    A = extruded_laplacian(3, 3, 3)
    with create_context(A, ExecConfig("serial")) as ctx:
        x, rep = cg_solve(ctx, np.ones(A.nrows), rtol=1e-300, max_iterations=25)
    assert not rep.converged
    assert rep.iterations == 25
    assert rep.spmv_count == 26


def test_breakdown_on_indefinite_matrix():
    A = csr_from_triplets([(0, 0, 1.0), (1, 1, -1.0)], 2, 2)
    with create_context(A, ExecConfig("serial")) as ctx:
        with pytest.raises(CgBreakdownError, match="not SPD"):
            cg_solve(ctx, np.array([0.0, 1.0]))


def test_zero_rhs_converges_immediately():
    A = identity_csr(4)
    with create_context(A, ExecConfig("serial")) as ctx:
        x, rep = cg_solve(ctx, np.zeros(4))
    assert rep.converged and rep.iterations == 0
    assert rep.spmv_count == 1
    assert x.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_energy_norm_monotone():
    rng = np.random.default_rng(8)
    A = random_spd_csr(rng, 60, 0.1)
    dense = A.to_dense()
    x_star = np.linalg.solve(dense, np.ones(60))
    history = []
    with create_context(A, ExecConfig("serial")) as ctx:
        cg_solve(ctx, np.ones(60), rtol=1e-10,
                 callback=lambda k, x: history.append(x.copy()))
    energies = [float((x - x_star) @ dense @ (x - x_star)) for x in history]
    for a, b in zip(energies, energies[1:]):
        assert b <= a * (1 + 1e-12)


def test_rhs_length_checked():
    A = identity_csr(3)
    with create_context(A, ExecConfig("serial")) as ctx:
        with pytest.raises(ValueError, match="rhs length"):
            cg_solve(ctx, np.ones(4))
        with pytest.raises(ValueError, match="non-finite"):
            cg_solve(ctx, np.array([1.0, np.nan, 0.0]))


def _other_threads_cpu_s():
    """CPU seconds used so far by this process's threads other than the
    calling one, from ``/proc/self/task``."""
    me = threading.get_native_id()
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread exited meanwhile
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="per-thread CPU times need /proc")
def test_ranked_dot_leaves_other_threads_idle():
    # a BLAS dot may wake helper threads that spin after every call; with
    # a solve's gaps between dots they would burn a core the multiply needs
    u, v = np.random.default_rng(9).uniform(-1, 1, (2, 32768))
    ranges = decompose_rows(len(u), 1)
    time.sleep(0.2)
    before = _other_threads_cpu_s()
    for _ in range(200):
        _ranked_dot(u, v, ranges)
        time.sleep(0.003)
    assert _other_threads_cpu_s() - before < 0.05
