"""Distributed sparse matrix-vector multiply under four execution models.

``serial`` runs the reference kernel on the whole matrix. The threaded
models distribute contiguous row blocks over ranks (thread groups inside
this process) and run the two-phase scheme per rank: multiply the
diagonal block against the local vector slice while ghost values travel
through the fabric, then fold in the off-diagonal block.

``vector`` is master-only threading: every thread computes a share of
both phases, and the master pays the communication wait between them,
unoverlapped. ``task`` dedicates thread 0 to communication: it posts,
actively waits, and unpacks while threads 1..T-1 compute, hiding the
transfer latency behind the diagonal phase. ``task-balanced`` is
``task`` with per-block thread partitions balanced by nonzero count
(greedy cuts plus local diffusion) instead of equal rows.

Both threaded models run one per-thread schedule and differ only in when
thread 0 waits for the ghost values: at once under ``task``, where it
computes nothing, and after its share of the diagonal phase, between two
rank barriers, under ``vector``.

Every model produces output bit-identical to ``spmv_serial`` because row
sums are exactly rounded by the two phase kernels in ``exact``, which
``layout.two_phase_multiply`` runs too: each row is finalized by exactly
one thread of exactly one rank, and the diagonal/off-diagonal grouping
cannot change a correctly rounded result.

Within one rank's team, compute kernels run in worker order, handed off
through a baton: the interpreter lock serializes Python-level compute
anyway, so this costs no wall time, but it makes each thread's measured
kernel duration equal its actual share of work (per-thread CPU clocks
are too coarse on some hosts to attribute millisecond phases). The
communication wait is a real sleep and overlaps compute for real; during
a multiply the interpreter switch interval is narrowed so a woken waiter
does not stall behind a compute thread's full default time slice.

Thread partitions are computed once at context creation and cached with
the context, keyed by rank and block (``"diag"`` or ``"off"``); repeat
multiplies reuse them. Thread placement is left to the host scheduler
(no pinning, no memory-domain control at desk scale).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from math import nan
from time import perf_counter

import numpy as np

from .balance import scheme_partition
from .exact import finish_rows, start_rows
from .fabric import Fabric, create_fabric
from .layout import build_all_layouts, build_scatter_plan, decompose_rows
from .sparse import CsrMatrix, spmv_serial

__all__ = [
    "MODELS",
    "TASK_MODELS",
    "ExecConfig",
    "RankPhaseTimings",
    "MultContext",
    "create_context",
    "mat_mult",
    "mult_phase_timings",
]

MODELS = ("serial", "vector", "task", "task-balanced")
TASK_MODELS = ("task", "task-balanced")


@dataclass(frozen=True)
class ExecConfig:
    """Execution model, rank count, and threads per rank.

    Task models need at least two threads per rank: one dedicated
    communication thread plus at least one worker. The ``serial`` model
    ignores ``nranks`` and ``threads_per_rank``. With
    ``weighted_decomposition`` the rank-level row split follows the
    greedy nonzero cut instead of equal row counts.
    """

    model: str
    nranks: int = 1
    threads_per_rank: int = 1
    weighted_decomposition: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.threads_per_rank < 1:
            raise ValueError(
                f"threads_per_rank must be >= 1, got {self.threads_per_rank}")
        if self.model in TASK_MODELS and self.threads_per_rank < 2:
            raise ValueError(
                f"model {self.model!r} needs threads_per_rank >= 2 "
                "(a communication thread plus at least one worker)")

    @property
    def worker_count(self) -> int:
        """Threads that compute: all of them for vector, T-1 for task."""
        if self.model in TASK_MODELS:
            return self.threads_per_rank - 1
        return self.threads_per_rank


@dataclass
class RankPhaseTimings:
    """Phase durations for one rank during one multiply, in seconds.

    ``scatter_post_s`` covers posting sends/receives, ``wait_s`` the
    active wait plus ghost unpack, ``diag_s`` and ``off_diag_s`` the full
    span of the compute phases. The per-thread lists give each compute
    thread's own kernel duration; team compute is serialized in worker
    order, so these are true per-thread work times, not phase spans.
    All values come from the monotonic wall clock.
    """

    rank: int
    scatter_post_s: float = 0.0
    diag_s: float = 0.0
    wait_s: float = 0.0
    off_diag_s: float = 0.0
    diag_thread_s: list = field(default_factory=list)
    off_thread_s: list = field(default_factory=list)


class _Baton:
    """Hands compute turns through a rank's workers in order.

    With ``W`` workers, worker ``w`` takes turn ``w`` in the diagonal
    phase and turn ``W + w`` in the off-diagonal phase.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._turn = 0
        self._broken = False

    def reset(self):
        self._turn = 0

    def acquire(self, turn):
        with self._cond:
            while self._turn != turn and not self._broken:
                self._cond.wait()
            if self._broken:
                raise RuntimeError("phase chain aborted")

    def release(self):
        with self._cond:
            self._turn += 1
            self._cond.notify_all()

    def abort(self):
        with self._cond:
            self._broken = True
            self._cond.notify_all()


class _RankScratch:
    """Per-rank mutable timing state for the multiply in flight."""

    __slots__ = ("scatter_post", "wait", "diag_start", "diag_end",
                 "off_start", "off_end")

    def __init__(self, nthreads):
        self.diag_start = [nan] * nthreads
        self.diag_end = [nan] * nthreads
        self.off_start = [nan] * nthreads
        self.off_end = [nan] * nthreads
        self.reset()

    def reset(self):
        self.scatter_post = 0.0
        self.wait = 0.0
        for a in (self.diag_start, self.diag_end, self.off_start, self.off_end):
            for i in range(len(a)):
                a[i] = nan


def _span(starts, ends):
    s = [v for v in starts if v == v]
    e = [v for v in ends if v == v]
    return (max(e) - min(s)) if s and e else 0.0


class MultContext:
    """Precomputed layouts, scatter plan, partitions, and worker threads.

    Create through :func:`create_context`. A context owns one long-lived
    thread team per rank; call :meth:`close` (or use the context manager
    form) when done. Only one multiply may be in flight at a time.
    """

    def __init__(self, A: CsrMatrix, cfg: ExecConfig, fabric: Fabric | None = None,
                 record_ownership: bool = False):
        self.matrix = A
        self.cfg = cfg
        if fabric is None:
            fabric = create_fabric(max(cfg.nranks, 1))
        if fabric.nranks < cfg.nranks:
            raise ValueError(
                f"fabric has {fabric.nranks} endpoints, config needs {cfg.nranks}")
        self.fabric = fabric
        self.partition_builds = 0
        self.partitions = {}
        self.ownership = None
        self._record_ownership = record_ownership

        weights = A.row_nnz() if cfg.weighted_decomposition else None
        self.ranges = decompose_rows(A.nrows, cfg.nranks, weights)

        distributed = cfg.model != "serial"
        if distributed and A.nrows != A.ncols:
            raise ValueError(
                f"distributed models need a square matrix, got {A.nrows}x{A.ncols}")
        if A.nrows == A.ncols:
            self.layouts = build_all_layouts(A, self.ranges)
            self.plan = build_scatter_plan(self.layouts)
        else:
            self.layouts = None
            self.plan = None

        self._threads: list[threading.Thread] = []
        self._closed = False
        self._broken = False
        if not distributed:
            return

        scheme = "greedy+diffuse" if cfg.model == "task-balanced" else "equal-rows"
        for lay in self.layouts:
            for block_name, block in (("diag", lay.diag_block), ("off", lay.off_block)):
                self.partitions[(lay.rank, block_name)] = scheme_partition(
                    scheme, block.row_nnz(), cfg.worker_count)
                self.partition_builds += 1

        self._send_pos = []
        for lay in self.layouts:
            pos = {dst: self.plan.send[lay.rank][dst] - lay.own.begin
                   for dst in self.plan.peers_out(lay.rank)}
            self._send_pos.append(pos)
        self._ghost = [np.empty(len(lay.ghost_cols)) for lay in self.layouts]
        self._partials = [[None] * lay.own.nrows for lay in self.layouts]
        self._tm = [_RankScratch(cfg.threads_per_rank) for _ in range(cfg.nranks)]
        self._batons = [_Baton() for _ in range(cfg.nranks)]

        self._x = None
        self._y = None
        self._stop = False
        self._errors: list[BaseException] = []
        self._busy = threading.Lock()
        total = cfg.nranks * cfg.threads_per_rank
        self._start = threading.Barrier(total + 1)
        self._done = threading.Barrier(total + 1)
        self._rank_barriers = [threading.Barrier(cfg.threads_per_rank)
                               for _ in range(cfg.nranks)]
        for r in range(cfg.nranks):
            for t in range(cfg.threads_per_rank):
                th = threading.Thread(target=self._worker_loop, args=(r, t),
                                      name=f"spmv-r{r}t{t}", daemon=True)
                th.start()
                self._threads.append(th)

    # -- lifecycle -------------------------------------------------------

    def close(self):
        """Stop and join the worker threads. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if not self._threads:
            return
        self._stop = True
        try:
            self._start.wait(timeout=5.0)
        except threading.BrokenBarrierError:
            pass
        for th in self._threads:
            th.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- public multiply API ----------------------------------------------

    def mat_mult(self, x) -> np.ndarray:
        """Compute y = A x under this context's execution model.

        The result is bit-identical to ``spmv_serial(A, x)`` for every
        model, rank count, and thread count.
        """
        y, _ = self._multiply(x)
        return y

    def mult_phase_timings(self, x):
        """Multiply and report per-rank phase durations.

        Returns ``(y, timings)`` with one :class:`RankPhaseTimings` per
        rank.
        """
        return self._multiply(x)

    def _multiply(self, x):
        A = self.matrix
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (A.ncols,):
            raise ValueError(f"vector length {x.shape} does not match ncols={A.ncols}")
        # An infinite product turns the expansion's error terms into NaN,
        # so the threaded kernels cannot round such a row like the oracle.
        if not np.all(np.isfinite(x)):
            raise ValueError("input vector contains non-finite entries")
        if self.cfg.model == "serial":
            w0 = perf_counter()
            y = spmv_serial(A, x)
            wall = perf_counter() - w0
            if self._record_ownership:
                self.ownership = {"diag": [(0, 0, 0, A.nrows)],
                                  "off": [(0, 0, 0, A.nrows)]}
            return y, [RankPhaseTimings(0, 0.0, wall, 0.0, 0.0, [wall], [0.0])]
        if self._closed or self._broken:
            raise RuntimeError("context is closed or broken")
        if not self._busy.acquire(blocking=False):
            raise RuntimeError("a multiply is already in flight on this context")
        # A woken communication thread must not sit out a full default
        # interpreter switch interval before it can unpack; keep handoffs
        # tight for the duration of the multiply.
        old_switch = sys.getswitchinterval()
        sys.setswitchinterval(5e-4)
        try:
            self._x = x
            self._y = np.empty(A.nrows)
            for tm in self._tm:
                tm.reset()
            for baton in self._batons:
                baton.reset()
            if self._record_ownership:
                self.ownership = {"diag": [], "off": []}
            try:
                self._start.wait()
                self._done.wait()
            except threading.BrokenBarrierError:
                self._broken = True
                if self._errors:
                    raise self._errors[0] from None
                raise RuntimeError("worker thread failed during multiply") from None
            return self._y, self._collect_timings()
        finally:
            sys.setswitchinterval(old_switch)
            self._busy.release()

    def _collect_timings(self):
        out = []
        for r in range(self.cfg.nranks):
            tm = self._tm[r]
            diag_thread = [e - s for s, e in zip(tm.diag_start, tm.diag_end)
                           if s == s and e == e]
            off_thread = [e - s for s, e in zip(tm.off_start, tm.off_end)
                          if s == s and e == e]
            out.append(RankPhaseTimings(
                rank=r,
                scatter_post_s=tm.scatter_post,
                diag_s=_span(tm.diag_start, tm.diag_end),
                wait_s=tm.wait,
                off_diag_s=_span(tm.off_start, tm.off_end),
                diag_thread_s=diag_thread,
                off_thread_s=off_thread,
            ))
        return out

    # -- worker side --------------------------------------------------------

    def _worker_loop(self, r, t):
        while True:
            try:
                self._start.wait()
            except threading.BrokenBarrierError:
                return
            if self._stop:
                return
            try:
                self._run(r, t)
            except BaseException as e:  # surface worker failures to the caller
                self._errors.append(e)
                self._panic()
                return
            try:
                self._done.wait()
            except threading.BrokenBarrierError:
                return

    def _panic(self):
        self._broken = True
        self._start.abort()
        self._done.abort()
        for b in self._rank_barriers:
            b.abort()
        for baton in self._batons:
            baton.abort()
        self.fabric.cancel()

    def _run(self, r, t):
        """Thread ``t``'s share of one multiply on rank ``r``.

        Thread 0 posts the ghost exchange. Under ``task`` it then waits at
        once and computes nothing, and thread ``t`` is worker ``t - 1``.
        Under ``vector`` every thread is worker ``t``, and thread 0 waits
        only after the diagonal phase, between two rank barriers.
        """
        lay = self.layouts[r]
        tm = self._tm[r]
        barrier = self._rank_barriers[r]
        baton = self._batons[r]
        task = self.cfg.model in TASK_MODELS
        worker = t - 1 if task else t
        row_base = lay.own.begin
        x_local = self._x[row_base:lay.own.end]
        if t == 0:
            t0 = perf_counter()
            recv_handles = self._post_exchange(r, x_local)
            tm.scatter_post = perf_counter() - t0
            if task:
                self._wait_and_unpack(r, recv_handles)
        if worker >= 0:
            lo, hi = self.partitions[(r, "diag")].rows(worker)
            baton.acquire(worker)
            try:
                tm.diag_start[t] = perf_counter()
                start_rows(lay.diag_block, lo, hi, x_local, self._partials[r])
                tm.diag_end[t] = perf_counter()
            finally:
                baton.release()
            self._note_ownership("diag", r, t, row_base + lo, row_base + hi)
        barrier.wait()
        if not task:
            if t == 0:
                self._wait_and_unpack(r, recv_handles)
            barrier.wait()
        if worker >= 0:
            lo, hi = self.partitions[(r, "off")].rows(worker)
            baton.acquire(self.cfg.worker_count + worker)
            try:
                tm.off_start[t] = perf_counter()
                finish_rows(lay.off_block, lo, hi, self._ghost[r],
                            self._partials[r], self._y, row_base)
                tm.off_end[t] = perf_counter()
            finally:
                baton.release()
            self._note_ownership("off", r, t, row_base + lo, row_base + hi)

    def _post_exchange(self, r, x_local):
        plan, fab = self.plan, self.fabric
        handles = [fab.post_recv(r, src, len(plan.recv[r][src]))
                   for src in plan.peers_in(r)]
        for dst in plan.peers_out(r):
            fab.post_send(r, dst, x_local[self._send_pos[r][dst]])
        return handles

    def _wait_and_unpack(self, r, recv_handles):
        w0 = perf_counter()
        payloads = self.fabric.wait_all(recv_handles)
        ghost = self._ghost[r]
        for k, src in enumerate(self.plan.peers_in(r)):
            ghost[self.plan.recv_pos[r][src]] = payloads[k]
        self._tm[r].wait = perf_counter() - w0

    def _note_ownership(self, phase, r, t, glo, ghi):
        if self._record_ownership and glo < ghi:
            self.ownership[phase].append((r, t, glo, ghi))


def create_context(A: CsrMatrix, cfg: ExecConfig, fabric: Fabric | None = None,
                   *, record_ownership: bool = False) -> MultContext:
    """Build a multiply context: decomposition, scatter plan, partitions,
    and (for threaded models) the long-lived worker thread teams."""
    return MultContext(A, cfg, fabric, record_ownership=record_ownership)


def mat_mult(ctx: MultContext, x) -> np.ndarray:
    """y = A x under the context's execution model; see MultContext.mat_mult."""
    return ctx.mat_mult(x)


def mult_phase_timings(ctx: MultContext, x):
    """Multiply with per-rank phase timings; see MultContext.mult_phase_timings."""
    return ctx.mult_phase_timings(x)
