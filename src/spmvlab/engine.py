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

Each multiply records where its time went in ``ctx.events``, one
:class:`PhaseEvent` per thread and phase; per-rank timings and row
ownership are views of it. The rank barrier is the only thing that
orders phases. Within one rank's team, compute kernels run one at a time
under a per-rank lock: the interpreter lock serializes Python-level
compute anyway, so this costs no wall time, but a rank's compute events
never overlap and each one's duration is its thread's actual share of
work (per-thread CPU clocks are too coarse on some hosts to attribute
millisecond phases). The communication wait is a real sleep and overlaps
compute for real; during a multiply the interpreter switch interval is
narrowed so a woken waiter does not stall behind a compute thread's full
default time slice.

Each multiply is one fork-join region, as an OpenMP ``MatMult`` is: its
threads start and end inside ``mat_mult``. Thread partitions are computed
once at context creation and cached with the context, keyed by rank and
block (``"diag"`` or ``"off"``). Thread placement is left to the host
scheduler (no pinning, no memory-domain control at desk scale).
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .balance import scheme_partition
from .exact import check_products, finish_rows, start_rows
from .fabric import Fabric, create_fabric
from .layout import build_all_layouts, build_scatter_plan, decompose_rows
from .sparse import CsrMatrix, spmv_serial

__all__ = [
    "MODELS",
    "TASK_MODELS",
    "ExecConfig",
    "PhaseEvent",
    "RankPhaseTimings",
    "MultContext",
    "create_context",
]

MODELS = ("serial", "vector", "task", "task-balanced")
TASK_MODELS = ("task", "task-balanced")
MAX_THREADS = 256


@dataclass(frozen=True)
class ExecConfig:
    """Execution model, rank count, and threads per rank.

    Task models need at least two threads per rank: one dedicated
    communication thread plus at least one worker. The ``serial`` model
    ignores ``nranks`` and ``threads_per_rank``. With
    ``weighted_decomposition`` the rank-level row split follows the
    greedy nonzero cut instead of equal row counts. ``nranks *
    threads_per_rank`` may not exceed ``MAX_THREADS``.
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
        if self.nranks * self.threads_per_rank > MAX_THREADS:
            raise ValueError(
                f"{self.nranks} ranks x {self.threads_per_rank} threads "
                f"exceeds the {MAX_THREADS}-thread limit")

    @property
    def worker_count(self) -> int:
        """Threads that compute: all of them for vector, T-1 for task."""
        if self.model in TASK_MODELS:
            return self.threads_per_rank - 1
        return self.threads_per_rank


class PhaseEvent(NamedTuple):
    """One thread's pass through one phase of one multiply: ``"post"``,
    ``"wait"`` (wait plus unpack), or compute (``"diag"``, ``"off"``)
    over global rows ``[lo, hi)``. Times are monotonic wall clock."""

    phase: str
    rank: int
    thread: int
    begin: float
    end: float
    lo: int = 0
    hi: int = 0


@dataclass
class RankPhaseTimings:
    """Phase durations for one rank during one multiply, in seconds.

    ``scatter_post_s`` covers posting sends/receives, ``wait_s`` the
    active wait plus ghost unpack, ``diag_s`` and ``off_diag_s`` the full
    span of the compute phases. The per-thread lists give each compute
    thread's own kernel duration, in worker order; a rank's kernels run
    one at a time under its lock, so these are true per-thread work
    times, not phase spans.
    All values come from the monotonic wall clock.
    """

    rank: int
    scatter_post_s: float = 0.0
    diag_s: float = 0.0
    wait_s: float = 0.0
    off_diag_s: float = 0.0
    diag_thread_s: list = field(default_factory=list)
    off_thread_s: list = field(default_factory=list)


_switch_lock = threading.Lock()
_switch_users = 0
_switch_saved = 0.0


@contextmanager
def _narrow_switch_interval():
    """Narrow the process-wide switch interval so a woken communication
    thread need not sit out a full default slice before it unpacks.
    Overlapping multiplies share it: the last to finish restores it."""
    global _switch_users, _switch_saved
    with _switch_lock:
        if _switch_users == 0:
            _switch_saved = sys.getswitchinterval()
            sys.setswitchinterval(5e-4)
        _switch_users += 1
    try:
        yield
    finally:
        with _switch_lock:
            _switch_users -= 1
            if _switch_users == 0:
                sys.setswitchinterval(_switch_saved)


class MultContext:
    """Precomputed layouts, scatter plan, and partitions.

    Create through :func:`create_context`. A context holds no thread, and
    :meth:`close` (or the context manager form) only marks it closed.
    Only one multiply may be in flight at a time. ``events`` holds the
    :class:`PhaseEvent` list of the last multiply.
    """

    def __init__(self, A: CsrMatrix, cfg: ExecConfig, fabric: Fabric | None = None):
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
        self.events: list[PhaseEvent] = []

        weights = A.row_nnz() if cfg.weighted_decomposition else None
        self.ranges = decompose_rows(A.nrows, cfg.nranks, weights)

        distributed = cfg.model != "serial"
        if distributed and A.nrows != A.ncols:
            raise ValueError(
                f"distributed models need a square matrix, got {A.nrows}x{A.ncols}")
        self.layouts = self.plan = None
        if A.nrows == A.ncols:
            self.layouts = build_all_layouts(A, self.ranges)
            self.plan = build_scatter_plan(self.layouts)

        self._closed = self._broken = False
        if not distributed:
            return

        scheme = "greedy+diffuse" if cfg.model == "task-balanced" else "equal-rows"
        for lay in self.layouts:
            for block_name, block in (("diag", lay.diag_block), ("off", lay.off_block)):
                self.partitions[(lay.rank, block_name)] = scheme_partition(
                    scheme, block.row_nnz(), cfg.worker_count)
                self.partition_builds += 1

        self._ghost = [np.empty(len(lay.ghost_cols)) for lay in self.layouts]
        self._partials = [[None] * lay.own.nrows for lay in self.layouts]
        self._compute_locks = [threading.Lock() for _ in range(cfg.nranks)]
        self._busy = threading.Lock()
        self._rank_barriers = [threading.Barrier(cfg.threads_per_rank)
                               for _ in range(cfg.nranks)]

    # -- lifecycle -------------------------------------------------------

    def close(self):
        """Mark the context closed; later multiplies raise. Idempotent."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- public multiply API ----------------------------------------------

    def mat_mult(self, x) -> np.ndarray:
        """Compute y = A x under this context's execution model.

        The result is bit-identical to ``spmv_serial(A, x)`` for every
        model, rank count, and thread count. Input with a non-finite
        product raises ``ValueError``, and a row whose product magnitudes
        sum to the overflow limit raises ``OverflowError``, for every
        model and before any thread starts. No thread outlives the call.
        """
        if self._closed or self._broken:
            raise RuntimeError("context is closed or broken")
        A = self.matrix
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (A.ncols,):
            raise ValueError(f"vector length {x.shape} does not match ncols={A.ncols}")
        check_products([(A, x)])
        if self.cfg.model == "serial":
            w0 = perf_counter()
            y = spmv_serial(A, x)
            w1 = perf_counter()
            self.events = [PhaseEvent("diag", 0, 0, w0, w1, 0, A.nrows),
                           PhaseEvent("off", 0, 0, w1, w1, 0, A.nrows)]
            return y
        if not self._busy.acquire(blocking=False):
            raise RuntimeError("a multiply is already in flight on this context")
        y = np.empty(A.nrows)
        self.events = []
        errors = []  # the first is raised; each one releases every thread
        started = threading.Event()  # no kernel runs while threads still spawn

        def work(r, t):
            started.wait()
            try:
                if not errors:
                    self._run(r, t, x, y)
            except BaseException as e:
                errors.append(e)
                self._panic()

        threads = [threading.Thread(target=work, args=(r, t), name=f"spmv-r{r}t{t}")
                   for r in range(self.cfg.nranks)
                   for t in range(self.cfg.threads_per_rank)]
        try:
            with _narrow_switch_interval():
                try:
                    for th in threads:
                        th.start()
                except BaseException as e:
                    errors.append(e)
                started.set()
                for th in threads:
                    if th.is_alive():
                        th.join()
            if errors:
                self._broken = True
                raise errors[0]
            return y
        finally:
            self._busy.release()

    def mult_phase_timings(self, x):
        """Multiply and report per-rank phase durations.

        Returns ``(y, timings)`` with one :class:`RankPhaseTimings` per
        rank, folded from :attr:`events`.
        """
        y = self.mat_mult(x)
        by_rank = {}
        # a rank's compute events arrive in lock order; list them by thread
        for e in sorted(self.events, key=lambda e: e.thread):
            by_rank.setdefault(e.rank, {}).setdefault(e.phase, []).append(e)
        timings = []
        for r, phases in sorted(by_rank.items()):
            span = {p: max(e.end for e in evs) - min(e.begin for e in evs)
                    for p, evs in phases.items()}
            timings.append(RankPhaseTimings(
                r, span.get("post", 0.0), span.get("diag", 0.0),
                span.get("wait", 0.0), span.get("off", 0.0),
                [e.end - e.begin for e in phases.get("diag", ())],
                [e.end - e.begin for e in phases.get("off", ())]))
        return y, timings

    @property
    def ownership(self) -> dict:
        """``{"diag": [...], "off": [...]}`` of ``(rank, thread, lo, hi)``:
        the nonempty global rows each thread computed in the last multiply."""
        owned = {"diag": [], "off": []}
        for e in self.events:
            if e.lo < e.hi:
                owned[e.phase].append((e.rank, e.thread, e.lo, e.hi))
        return owned

    # -- worker side --------------------------------------------------------

    def _panic(self):
        for b in self._rank_barriers:
            b.abort()
        self.fabric.cancel()

    def _run(self, r, t, x, y):
        """Thread ``t``'s share of one multiply on rank ``r``.

        Thread 0 posts the ghost exchange. Under ``task`` it then waits at
        once and computes nothing, and thread ``t`` is worker ``t - 1``.
        Under ``vector`` every thread is worker ``t``, and thread 0 waits
        only after the diagonal phase, between two rank barriers.
        """
        lay = self.layouts[r]
        barrier = self._rank_barriers[r]
        lock = self._compute_locks[r]
        task = self.cfg.model in TASK_MODELS
        worker = t - 1 if task else t
        row_base = lay.own.begin
        x_local = x[row_base:lay.own.end]
        if t == 0:
            t0 = perf_counter()
            recv_handles = self._post_exchange(r, x)
            self.events.append(PhaseEvent("post", r, 0, t0, perf_counter()))
            if task:
                self._wait_and_unpack(r, recv_handles)
        if worker >= 0:
            lo, hi = self.partitions[(r, "diag")].rows(worker)
            with lock:
                t0 = perf_counter()
                start_rows(lay.diag_block, lo, hi, x_local, self._partials[r])
                self.events.append(PhaseEvent("diag", r, t, t0, perf_counter(),
                                              row_base + lo, row_base + hi))
        barrier.wait()
        if not task:
            if t == 0:
                self._wait_and_unpack(r, recv_handles)
            barrier.wait()
        if worker >= 0:
            lo, hi = self.partitions[(r, "off")].rows(worker)
            with lock:
                t0 = perf_counter()
                finish_rows(lay.off_block, lo, hi, self._ghost[r],
                            self._partials[r], y, row_base)
                self.events.append(PhaseEvent("off", r, t, t0, perf_counter(),
                                              row_base + lo, row_base + hi))

    def _post_exchange(self, r, x):
        plan, fab = self.plan, self.fabric
        handles = [fab.post_recv(r, src, len(plan.recv[r][src]))
                   for src in plan.peers_in(r)]
        for dst in plan.peers_out(r):
            fab.post_send(r, dst, x[plan.send[r][dst]])
        return handles

    def _wait_and_unpack(self, r, recv_handles):
        w0 = perf_counter()
        payloads = self.fabric.wait_all(recv_handles)
        ghost = self._ghost[r]
        for k, src in enumerate(self.plan.peers_in(r)):
            ghost[self.plan.recv_pos[r][src]] = payloads[k]
        self.events.append(PhaseEvent("wait", r, 0, w0, perf_counter()))


def create_context(A: CsrMatrix, cfg: ExecConfig,
                   fabric: Fabric | None = None) -> MultContext:
    """Build a multiply context: decomposition, scatter plan and, for
    threaded models, thread partitions. No thread starts here."""
    return MultContext(A, cfg, fabric)

