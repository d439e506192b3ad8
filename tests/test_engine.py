import sys
import threading
import time

import numpy as np
import pytest

from spmvlab import (CsrMatrix, ExecConfig, Fabric, LatencyModel, MODELS,
                     arrowhead, balance_stats, build_all_layouts, create_context,
                     create_fabric, csr_from_triplets, decompose_rows,
                     extruded_laplacian, spmv_serial, two_phase_multiply)
from spmvlab.engine import MAX_THREADS
from spmvlab.exact import finish_rows, start_rows

from helpers import identity_csr, random_spd_csr, tridiagonal

THREADED = [m for m in MODELS if m != "serial"]


def _spmv_threads():
    return [th.name for th in threading.enumerate() if th.name.startswith("spmv-")]


def test_config_validation():
    with pytest.raises(ValueError, match="unknown model"):
        ExecConfig("turbo")
    with pytest.raises(ValueError, match="threads_per_rank >= 2"):
        ExecConfig("task", 1, 1)
    with pytest.raises(ValueError, match="threads_per_rank >= 2"):
        ExecConfig("task-balanced", 2, 1)
    with pytest.raises(ValueError):
        ExecConfig("vector", 0, 1)
    assert ExecConfig("vector", 2, 4).worker_count == 4
    assert ExecConfig("task", 2, 4).worker_count == 3
    assert ExecConfig("task-balanced", 2, 2).worker_count == 1
    # rejected as configs: no thread is ever spawned for these
    for ranks, threads in [(10_000, 100), (1, MAX_THREADS + 1), (2, MAX_THREADS)]:
        with pytest.raises(ValueError, match="thread limit"):
            ExecConfig("vector", ranks, threads)
    assert ExecConfig("task", 2, MAX_THREADS // 2).threads_per_rank == MAX_THREADS // 2


def test_serial_context_single_rank():
    A = tridiagonal(6)
    with create_context(A, ExecConfig("serial")) as ctx:
        lay = ctx.layouts[0]
        assert lay.off_block.nnz == 0
        assert np.array_equal(lay.diag_block.row_offsets, A.row_offsets)
        assert all(not s for s in ctx.plan.send)
        x = np.arange(6.0)
        assert ctx.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()


def test_serial_model_ignores_ranks_and_threads():
    A = tridiagonal(5)
    x = np.arange(5.0)
    ref = spmv_serial(A, x)
    for ranks, threads in [(1, 1), (4, 8), (3, 2)]:
        with create_context(A, ExecConfig("serial", ranks, threads)) as ctx:
            assert ctx.mat_mult(x).tobytes() == ref.tobytes()


def test_identity_all_models_bitwise():
    A = identity_csr(64)
    x = np.random.default_rng(0).uniform(-9, 9, 64)
    for model in MODELS:
        with create_context(A, ExecConfig(model, 2, 2)) as ctx:
            assert ctx.mat_mult(x).tobytes() == x.astype(np.float64).tobytes()


def test_laplacian_sweep_bitwise_equals_oracle():
    A = extruded_laplacian(4, 4, 8)
    x = np.random.default_rng(1).uniform(-1, 1, A.ncols)
    ref = spmv_serial(A, x)
    for model in MODELS:
        for ranks in (1, 2, 4):
            for threads in (2, 4):
                with create_context(A, ExecConfig(model, ranks, threads)) as ctx:
                    y = ctx.mat_mult(x)
                assert y.tobytes() == ref.tobytes(), (model, ranks, threads)


def test_random_spd_models_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(10, 120))
        A = random_spd_csr(rng, n, 0.1)
        x = rng.uniform(-3, 3, n)
        ref = spmv_serial(A, x)
        for model in THREADED:
            with create_context(A, ExecConfig(model, 3, 3)) as ctx:
                assert ctx.mat_mult(x).tobytes() == ref.tobytes()


def test_repeated_multiplies_same_context():
    A = extruded_laplacian(3, 3, 4)
    rng = np.random.default_rng(3)
    with create_context(A, ExecConfig("task", 2, 3)) as ctx:
        for _ in range(4):
            x = rng.uniform(-1, 1, A.ncols)
            assert ctx.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()


def test_task_balanced_partitions_beat_equal_rows_on_tridiagonal():
    A = tridiagonal(100)
    with create_context(A, ExecConfig("task-balanced", 2, 4)) as ctx:
        W = ctx.cfg.worker_count
        assert W == 3
        for lay in ctx.layouts:
            part = ctx.partitions[(lay.rank, "diag")]
            nnz = lay.diag_block.row_nnz()
            balanced = balance_stats(part, nnz).imbalance
            from spmvlab import equal_rows_partition
            equal = balance_stats(
                equal_rows_partition(lay.diag_block.nrows, W), nnz).imbalance
            assert balanced <= equal


def test_partition_cache_reused_across_multiplies():
    A = extruded_laplacian(3, 3, 3)
    x = np.ones(A.ncols)
    with create_context(A, ExecConfig("task-balanced", 2, 3)) as ctx:
        builds = ctx.partition_builds
        before = {k: id(v) for k, v in ctx.partitions.items()}
        ctx.mat_mult(x)
        ctx.mat_mult(x)
        assert ctx.partition_builds == builds
        assert {k: id(v) for k, v in ctx.partitions.items()} == before


def test_row_ownership_exactly_once_per_phase():
    A = random_spd_csr(np.random.default_rng(4), 37, 0.2)
    x = np.ones(37)
    for model in MODELS:
        with create_context(A, ExecConfig(model, 3, 3)) as ctx:
            ctx.mat_mult(x)
            for phase in ("diag", "off"):
                seen = np.zeros(37, dtype=int)
                for r, t, lo, hi in ctx.ownership[phase]:
                    seen[lo:hi] += 1
                assert np.all(seen == 1), (model, phase)
            # rank assignment consistent between phases
            rank_of = {}
            for r, t, lo, hi in ctx.ownership["diag"]:
                for row in range(lo, hi):
                    rank_of[row] = r
            for r, t, lo, hi in ctx.ownership["off"]:
                for row in range(lo, hi):
                    assert rank_of[row] == r


def test_empty_ranks_are_legal():
    A = tridiagonal(3)
    x = np.array([1.0, -2.0, 3.0])
    ref = spmv_serial(A, x)
    with create_context(A, ExecConfig("task", 4, 2)) as ctx:
        assert ctx.mat_mult(x).tobytes() == ref.tobytes()
    with create_context(A, ExecConfig("vector", 4, 3)) as ctx:
        assert ctx.mat_mult(x).tobytes() == ref.tobytes()


def test_more_workers_than_rows():
    A = identity_csr(3)
    x = np.ones(3)
    with create_context(A, ExecConfig("vector", 1, 8)) as ctx:
        assert ctx.mat_mult(x).tolist() == [1.0, 1.0, 1.0]


def test_dimension_mismatch():
    A = tridiagonal(4)
    with create_context(A, ExecConfig("vector", 2, 2)) as ctx:
        with pytest.raises(ValueError, match="ncols"):
            ctx.mat_mult(np.ones(3))


def test_distributed_requires_square():
    A = csr_from_triplets([(0, 0, 1.0)], 2, 3)
    with pytest.raises(ValueError, match="square"):
        create_context(A, ExecConfig("vector", 2, 2))
    # serial handles rectangular
    with create_context(A, ExecConfig("serial")) as ctx:
        assert ctx.mat_mult(np.ones(3)).tolist() == [1.0, 0.0]


def test_weighted_decomposition_shifts_cut():
    n = 8
    triplets = [(0, j, 1.0) for j in range(n)]
    triplets += [(i, i, 1.0) for i in range(1, n)]
    A = csr_from_triplets(triplets, n, n)
    heavy = create_context(A, ExecConfig("serial", 2, 1, weighted_decomposition=True))
    plain = create_context(A, ExecConfig("serial", 2, 1))
    assert plain.ranges[0].nrows == 4
    assert heavy.ranges[0].nrows < 4


def test_context_close_and_reuse_error():
    A = tridiagonal(4)
    for model in MODELS:
        ctx = create_context(A, ExecConfig(model, 2, 2))
        ctx.mat_mult(np.ones(4))
        ctx.close()
        with pytest.raises(RuntimeError, match="closed"):
            ctx.mat_mult(np.ones(4))
        ctx.close()  # idempotent


@pytest.mark.parametrize("model", MODELS)
def test_multiply_threads_end_with_the_multiply(model, monkeypatch):
    A = extruded_laplacian(4, 4, 4)
    x = np.ones(A.ncols)
    ctx = create_context(A, ExecConfig(model, 2, 2))
    assert _spmv_threads() == []
    assert ctx.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()
    assert _spmv_threads() == []

    def failing(*args):
        raise RuntimeError("injected kernel failure")
    monkeypatch.setattr("spmvlab.engine.start_rows", failing)
    monkeypatch.setattr("spmvlab.engine.spmv_serial", failing)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        ctx.mat_mult(x)
    assert _spmv_threads() == []
    ctx.close()


def test_fabric_endpoint_count_checked():
    A = tridiagonal(4)
    with pytest.raises(ValueError, match="endpoints"):
        create_context(A, ExecConfig("vector", 4, 2), create_fabric(2))


def test_worker_exception_surfaces():
    A = tridiagonal(6)
    with create_context(A, ExecConfig("vector", 2, 2), _FailingWaitFabric(2)) as ctx:
        with pytest.raises(RuntimeError, match="injected wait failure"):
            ctx.mat_mult(np.ones(6))
        with pytest.raises(RuntimeError, match="closed or broken"):
            ctx.mat_mult(np.ones(6))


def test_phase_timings_zero_latency():
    A = extruded_laplacian(4, 4, 4)
    x = np.ones(A.ncols)
    for model in THREADED:
        with create_context(A, ExecConfig(model, 2, 3)) as ctx:
            y, tms = ctx.mult_phase_timings(x)
            assert y.tobytes() == spmv_serial(A, x).tobytes()
            assert len(tms) == 2
            for tm in tms:
                assert tm.wait_s < 0.005
                assert tm.diag_s > 0
                expected_threads = 3 if model == "vector" else 2
                assert len(tm.diag_thread_s) == expected_threads


def test_phase_timings_serial_model():
    A = tridiagonal(10)
    with create_context(A, ExecConfig("serial")) as ctx:
        y, tms = ctx.mult_phase_timings(np.ones(10))
        assert len(tms) == 1
        assert tms[0].diag_s > 0
        assert tms[0].wait_s == 0.0


def test_vector_model_pays_latency_after_diag():
    A = extruded_laplacian(6, 6, 6)
    x = np.ones(A.ncols)
    L = 0.03
    fab = Fabric(2, LatencyModel(per_message_s=L))
    with create_context(A, ExecConfig("vector", 2, 2), fab) as ctx:
        ctx.mat_mult(x)
        _, tms = ctx.mult_phase_timings(x)
    for tm in tms:
        assert tm.wait_s >= L


def test_task_never_slower_than_vector_at_half_latency():
    # with injected latency >= 50% of the diagonal phase, hiding it behind
    # compute must not lose to paying it unoverlapped (5-run medians)
    import statistics
    import time as _time

    A = extruded_laplacian(12, 12, 768)
    x = np.random.default_rng(10).uniform(-1, 1, A.ncols)
    with create_context(A, ExecConfig("vector", 2, 4), create_fabric(2)) as ctx:
        ctx.mat_mult(x)
        _, tms = ctx.mult_phase_timings(x)
        L = max(t.diag_s for t in tms)
    latency = LatencyModel(per_message_s=0.6 * L)

    def median_run(model):
        with create_context(A, ExecConfig(model, 2, 4), Fabric(2, latency)) as ctx:
            for _ in range(2):
                ctx.mat_mult(x)
            runs = []
            for _ in range(5):
                t0 = _time.perf_counter()
                ctx.mat_mult(x)
                runs.append(_time.perf_counter() - t0)
        return statistics.median(runs)

    assert median_run("task") <= median_run("vector")


class _FailingWaitFabric(Fabric):
    """Fabric whose wait fails on rank 1's communication thread, as a
    crashed peer's exchange would, 50 ms into the multiply."""

    def wait(self, posted, sizes):
        if threading.current_thread().name == "spmv-r1t0":
            time.sleep(0.05)
            raise RuntimeError("injected wait failure")
        super().wait(posted, sizes)


@pytest.mark.parametrize("model,threads", [("task", 2), ("vector", 1)])
def test_peer_failure_releases_every_thread(model, threads):
    A = extruded_laplacian(8, 8, 8)
    ctx = create_context(A, ExecConfig(model, 2, threads), _FailingWaitFabric(2))
    with pytest.raises(RuntimeError, match="injected"):
        ctx.mat_mult(np.ones(A.ncols))
    t0 = time.perf_counter()
    ctx.close()
    assert time.perf_counter() - t0 < 1.0
    assert _spmv_threads() == []


def test_non_finite_input_rejected_before_multiply():
    A = csr_from_triplets([(i, j, 1.0) for i in range(2) for j in range(2)], 2, 2)
    # finite inputs whose product A[0, 0] * x[0] overflows to inf
    big = csr_from_triplets([(0, 0, 1e200), (0, 1, 1.0), (1, 0, 1.0),
                             (1, 1, 1.0)], 2, 2)
    for model in MODELS:
        with create_context(A, ExecConfig(model, 2, 2)) as ctx:
            for bad in ([np.inf, 1.0], [1.0, np.nan]):
                with pytest.raises(ValueError, match="non-finite"):
                    ctx.mat_mult(np.array(bad))
            assert ctx.mat_mult(np.array([2.0, 1.0])).tolist() == [3.0, 3.0]
        with create_context(big, ExecConfig(model, 2, 2)) as ctx:
            with pytest.raises(ValueError, match="non-finite"):
                ctx.mat_mult(np.array([1e200, 1.0]))
            x = np.array([1e100, 1.0])
            assert ctx.mat_mult(x).tobytes() == spmv_serial(big, x).tobytes()


def test_row_sum_overflow_rejected_before_multiply():
    # finite products whose row sums overflow: the oracle raises, and the
    # threaded kernels' running sums turn into inf - inf
    big = csr_from_triplets([(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1.0)], 2, 2)
    # MAX + 0.625 ulp rounds up to inf, but adding the two small entries
    # to MAX one at a time rounds down to MAX both times
    top, small = np.finfo(np.float64).max, 1.25 * 2.0**969
    edge = csr_from_triplets([(0, 0, top), (0, 1, small), (0, 2, small),
                              (1, 1, 1.0), (2, 2, 1.0)], 3, 3)
    for model in MODELS:
        for A in (big, edge):
            with create_context(A, ExecConfig(model, 2, 2)) as ctx:
                with pytest.raises(OverflowError, match="row 0"):
                    ctx.mat_mult(np.ones(A.ncols))
                assert ctx.events == []  # no thread ran
                x = np.full(A.ncols, 0.5)
                assert ctx.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()


def _start_rows_failing_on_r1t1(*args):
    if threading.current_thread().name == "spmv-r1t1":
        raise RuntimeError("injected kernel failure")
    start_rows(*args)


def test_kernel_failure_releases_every_thread(monkeypatch):
    monkeypatch.setattr("spmvlab.engine.start_rows", _start_rows_failing_on_r1t1)
    A = extruded_laplacian(6, 6, 6)
    ctx = create_context(A, ExecConfig("vector", 2, 3))
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        ctx.mat_mult(np.ones(A.ncols))
    t0 = time.perf_counter()
    ctx.close()
    assert time.perf_counter() - t0 < 1.0
    assert _spmv_threads() == []


def test_failed_multiply_leaves_shared_fabric_usable(monkeypatch):
    monkeypatch.setattr("spmvlab.engine.start_rows", _start_rows_failing_on_r1t1)
    A = extruded_laplacian(6, 6, 6)
    x = np.random.default_rng(11).uniform(-1, 1, A.ncols)
    fab = Fabric(2, LatencyModel(per_message_s=1e-3))
    first = create_context(A, ExecConfig("vector", 2, 3), fab)
    second = create_context(A, ExecConfig("task", 2, 3), fab)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        first.mat_mult(x)
    monkeypatch.undo()
    assert second.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()
    first.close()
    second.close()


def test_thread_start_failure_releases_started_threads(monkeypatch):
    start = threading.Thread.start

    def failing_start(self):
        if self.name == "spmv-r1t0":
            raise RuntimeError("can't start new thread")
        start(self)
    monkeypatch.setattr(threading.Thread, "start", failing_start)
    A = extruded_laplacian(6, 6, 6)
    ctx = create_context(A, ExecConfig("vector", 2, 2))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="can't start"):
        ctx.mat_mult(np.ones(A.ncols))
    assert time.perf_counter() - t0 < 1.0
    assert _spmv_threads() == []


@pytest.mark.parametrize("model,nranks,threads", [
    ("vector", 1, 1), ("vector", 2, 1), ("vector", 1, 2), ("task", 1, 2),
    ("task-balanced", 2, 3)])
def test_caller_runs_rank_0_thread_0(monkeypatch, model, nranks, threads):
    starts = []
    start = threading.Thread.start

    def counting_start(self):
        starts.append(self.name)
        start(self)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    A = extruded_laplacian(4, 4, 4)
    x = np.linspace(-1.0, 1.0, A.ncols)
    with create_context(A, ExecConfig(model, nranks, threads)) as ctx:
        assert ctx.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()
    assert len(starts) == nranks * threads - 1
    assert "spmv-r0t0" not in starts


@pytest.mark.parametrize("model,nranks,threads", [
    ("vector", 1, 1), ("vector", 2, 2), ("task", 2, 2), ("task-balanced", 1, 3)])
def test_callers_error_state_does_not_reach_the_kernels(model, nranks, threads):
    # the products underflow, and rank 0's rows run on the calling thread,
    # which raises on every floating-point error here
    rng = np.random.default_rng(16)
    B = random_spd_csr(rng, 24, 0.3)
    A = CsrMatrix(B.nrows, B.ncols, B.row_offsets, B.col_indices,
                  B.values * 1e-150)
    x = rng.uniform(-1.0, 1.0, A.ncols) * 1e-170
    ref = spmv_serial(A, x)
    with create_context(A, ExecConfig(model, nranks, threads)) as ctx, \
            np.errstate(all="raise"):
        assert ctx.mat_mult(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_phase_events_of_one_multiply(model):
    A = extruded_laplacian(4, 4, 4)
    cfg = ExecConfig(model, 2, 3)
    with create_context(A, cfg) as ctx:
        _, tms = ctx.mult_phase_timings(np.ones(A.ncols))
        events = ctx.events
    assert all(e.begin <= e.end for e in events)
    for tm in tms:
        mine = [e for e in events if e.rank == tm.rank]
        for phase, span, threads in (("diag", tm.diag_s, tm.diag_thread_s),
                                     ("off", tm.off_diag_s, tm.off_thread_s)):
            compute = sorted((e for e in mine if e.phase == phase),
                             key=lambda e: e.thread)
            assert threads == [e.cpu for e in compute]
            assert span == (max(e.end for e in compute)
                            - min(e.begin for e in compute))
            assert len(compute) == (1 if model == "serial" else cfg.worker_count)
        if model != "serial":
            assert [(e.phase, e.thread, e.lo, e.hi) for e in mine
                    if e.phase in ("post", "wait")] == [("post", 0, 0, 0),
                                                        ("wait", 0, 0, 0)]
    assert len(tms) == (1 if model == "serial" else 2)


@pytest.mark.parametrize("model,threads", [("vector", 2), ("task", 3)])
def test_one_ranks_workers_compute_at_once(monkeypatch, model, threads):
    # each of the rank's two workers waits in its kernel for the other
    meet = threading.Barrier(2, timeout=5.0)

    def meeting(*args):
        meet.wait()
        start_rows(*args)
    monkeypatch.setattr("spmvlab.engine.start_rows", meeting)
    A = extruded_laplacian(4, 4, 4)
    x = np.linspace(-1.0, 1.0, A.ncols)
    with create_context(A, ExecConfig(model, 1, threads)) as ctx:
        y = ctx.mat_mult(x)
    assert y.tobytes() == spmv_serial(A, x).tobytes()


@pytest.mark.parametrize("model", THREADED)
def test_overlapping_kernels_under_a_short_switch_interval(model):
    # eight threads switched every microsecond: a lost write to y or to
    # the event log would show
    A = random_spd_csr(np.random.default_rng(14), 600, 0.02)
    x = np.random.default_rng(15).uniform(-1.0, 1.0, A.ncols)
    ref = spmv_serial(A, x).tobytes()
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with create_context(A, ExecConfig(model, 2, 4)) as ctx:
            for _ in range(20):
                assert ctx.mat_mult(x).tobytes() == ref
                assert len(ctx.events) == 2 * (2 + 2 * ctx.cfg.worker_count)
    finally:
        sys.setswitchinterval(before)


def test_thread_times_are_cpu_times(monkeypatch):
    # a kernel that sleeps is charged its wall time in the phase span but
    # only its CPU time in the per-thread list
    def sleeping(*args):
        time.sleep(0.02)
        start_rows(*args)
    monkeypatch.setattr("spmvlab.engine.start_rows", sleeping)
    A = extruded_laplacian(4, 4, 4)
    with create_context(A, ExecConfig("task", 1, 2)) as ctx:
        y, (tm,) = ctx.mult_phase_timings(np.ones(A.ncols))
    assert y.tobytes() == spmv_serial(A, np.ones(A.ncols)).tobytes()
    assert tm.diag_s >= 0.02
    assert tm.diag_thread_s[0] < 0.005


def _rows_written_by_off_phase(monkeypatch, A, cfg, x):
    """Global rows that the off-diagonal kernels write in one multiply."""
    written = []

    def probing(sums, lo, hi, x_local, ghost, scale, y, row_base):
        probe = np.full_like(y, np.nan)
        finish_rows(sums, lo, hi, x_local, ghost, scale, probe, row_base)
        written.extend(np.flatnonzero(~np.isnan(probe)).tolist())
        finish_rows(sums, lo, hi, x_local, ghost, scale, y, row_base)
    monkeypatch.setattr("spmvlab.engine.finish_rows", probing)
    with create_context(A, cfg) as ctx:
        assert ctx.mat_mult(x).tobytes() == spmv_serial(A, x).tobytes()
        layouts = ctx.layouts
    return sorted(written), layouts


def test_off_phase_writes_only_rows_with_off_entries(monkeypatch):
    A = arrowhead(4096)
    x = np.random.default_rng(12).uniform(-1, 1, A.ncols)
    written, _ = _rows_written_by_off_phase(
        monkeypatch, A, ExecConfig("task-balanced", 1, 4), x)
    assert written == []

    A = extruded_laplacian(6, 6, 6)
    x = np.random.default_rng(13).uniform(-1, 1, A.ncols)
    written, layouts = _rows_written_by_off_phase(
        monkeypatch, A, ExecConfig("vector", 3, 2), x)
    with_off = [lay.own.begin + int(i) for lay in layouts
                for i in np.flatnonzero(lay.off_block.row_nnz())]
    assert written == with_off and len(with_off) > 0


def test_input_check_bound_that_trips_still_multiplies_exactly():
    # max_i sum_j |A_ij| times max |x| passes the overflow limit, though
    # every row's products are small: the full check runs and accepts
    A = csr_from_triplets([(0, 0, 1e300), (0, 1, 1.0), (1, 0, 1.0),
                           (1, 1, 2.0)], 2, 2)
    x = np.array([1e-300, 1e10])
    ref = spmv_serial(A, x)
    for model in MODELS:
        with create_context(A, ExecConfig(model, 2, 2)) as ctx:
            assert ctx.mat_mult(x).tobytes() == ref.tobytes()


def test_unused_non_finite_input_multiplies_exactly(fsum_calls):
    # the last column is empty, so x[-1] enters no product and must not
    # reach y, nor the kernels' scale, which would send every row to fsum;
    # in the second matrix the first column is empty too, and x[0] enters
    # no product either
    rng = np.random.default_rng(14)
    n = 40
    for first in (0, 1):  # the first used column
        triplets = [(i, j, float(v)) for i in range(n) for j in range(first, n - 1)
                    for v in [rng.uniform(-1, 1)] if j == i or rng.random() < 0.3]
        A = csr_from_triplets(triplets, n, n)
        for bad in (np.inf, np.nan):
            x = rng.uniform(-1, 1, n) * 1e6
            x[:first] = x[-1] = bad
            ref = spmv_serial(A, x)
            for model in MODELS:
                with create_context(A, ExecConfig(model, 2, 2)) as ctx:
                    assert ctx.mat_mult(x).tobytes() == ref.tobytes()
            layouts = build_all_layouts(A, decompose_rows(n, 2))
            assert two_phase_multiply(layouts, x).tobytes() == ref.tobytes()
    assert fsum_calls == []
