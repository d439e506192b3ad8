"""Distributed sparse matrix-vector multiply under four execution models.

``serial`` runs the reference kernel on the whole matrix. The threaded
models distribute contiguous row blocks over ranks (thread groups inside
this process) and run the two-phase scheme per rank: multiply the
diagonal block against the local vector slice while the fabric charges
the ghost exchange's latency, then fold in the off-diagonal block.

``vector`` is master-only threading: every thread computes a share of
both phases, and the master pays the communication wait between them,
unoverlapped. ``task`` dedicates thread 0 to communication: it posts,
actively waits, and unpacks while threads 1..T-1 compute, hiding the
transfer latency behind the diagonal phase. ``task-balanced`` is
``task`` with per-block thread partitions balanced by nonzero count
(greedy cuts plus local diffusion) instead of equal rows.

Ranks share the input vector, so thread 0 posts by recording the time
its rank's latency starts, and unpacks by gathering the rank's ghost
values, ``x[ghost_cols]``, once the fabric has charged that latency. No
rank waits on a peer.

Both threaded models run one per-thread schedule and differ only in when
thread 0 waits for the ghost values: at once under ``task``, where it
computes nothing, and after its share of the diagonal phase, between two
rank barriers, under ``vector``.

Every model produces output bit-identical to ``spmv_serial`` because row
sums are correctly rounded by the two phase kernels in ``exact``, which
``layout.two_phase_multiply`` runs too, with a per-rank ``exact.RowSums``.
Each row is finished by one thread of one rank, in the diagonal phase if
it has no off-diagonal entry, and the grouping cannot change its result.

Each multiply records where its time went in ``ctx.events``, one
:class:`PhaseEvent` per thread and phase, with its wall-clock span and,
for compute, its thread's CPU time; per-rank timings and row ownership
are views of it. The rank barrier is the only thing that orders phases:
one rank's threads run their kernels at once, on disjoint rows of ``y``
and of the rank's ``RowSums``, so its compute events may overlap. The
communication wait is a real sleep and overlaps compute for real.

Each multiply is one fork-join region, as an OpenMP ``MatMult`` is: its
threads start and end inside ``mat_mult``, and the caller acts as rank 0's
thread 0, as an OpenMP master thread does, so a 1 x 1 multiply starts no
thread. Thread partitions are computed once at context creation and
cached with the context, keyed by rank and block (``"diag"`` or
``"off"``). Thread placement is left to the host scheduler (no pinning,
no memory-domain control at desk scale).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import NamedTuple

import numpy as np

from .balance import scheme_partition
from .exact import (RowSums, check_products, finish_rows, start_rows,
                    vector_scale)
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
    """One thread's pass through one phase of one multiply: ``"post"``
    (an instant: the exchange's latency starts), ``"wait"`` (latency
    plus unpack), or compute (``"diag"``, ``"off"``) over global rows
    ``[lo, hi)``. Times are wall clock; ``cpu`` is a kernel's thread time."""

    phase: str
    rank: int
    thread: int
    begin: float
    end: float
    lo: int = 0
    hi: int = 0
    cpu: float = 0.0


@dataclass
class RankPhaseTimings:
    """Phase durations for one rank during one multiply, in seconds.

    ``scatter_post_s`` is the post event's span (zero: posting only
    records the time), ``wait_s`` the latency wait plus ghost unpack,
    ``diag_s`` and ``off_diag_s`` the full span of the compute phases, all
    wall clock. The per-thread lists give each compute thread's CPU time
    in its kernel, in worker order: its share of the work.
    """

    rank: int
    scatter_post_s: float = 0.0
    diag_s: float = 0.0
    wait_s: float = 0.0
    off_diag_s: float = 0.0
    diag_thread_s: list = field(default_factory=list)
    off_thread_s: list = field(default_factory=list)


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
        self._row_abs_max = np.inf  # no fast input check without RowSums
        self._read = None  # the columns A reads, if not all of them
        if not distributed:
            return

        scheme = "greedy+diffuse" if cfg.model == "task-balanced" else "equal-rows"
        for lay in self.layouts:
            for block_name, block in (("diag", lay.diag_block), ("off", lay.off_block)):
                self.partitions[(lay.rank, block_name)] = scheme_partition(
                    scheme, block.row_nnz(), cfg.worker_count)
                self.partition_builds += 1

        self._ghost = [np.empty(len(lay.ghost_cols)) for lay in self.layouts]
        self._sums = [RowSums(lay.diag_block, lay.off_block) for lay in self.layouts]
        self._row_abs_max = max(s.row_abs_max for s in self._sums)
        read = np.zeros(A.ncols, bool)
        read[A.col_indices] = True
        if not read.all():  # x's other entries must not set the kernels' scale
            self._read = np.flatnonzero(read)
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
        scale = vector_scale(x if self._read is None else x[self._read])
        check_products([(A, x)], bound=self._row_abs_max * scale)
        if self.cfg.model == "serial":
            w0, c0 = perf_counter(), thread_time()
            y = spmv_serial(A, x)
            w1, c1 = perf_counter(), thread_time()
            self.events = [PhaseEvent("diag", 0, 0, w0, w1, 0, A.nrows, c1 - c0),
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
                    # one floating-point error state on every thread, the
                    # caller's included: the kernels let products underflow
                    with np.errstate(all="ignore"):
                        self._run(r, t, x, scale, y)
            except BaseException as e:
                errors.append(e)
                self._panic()

        threads = [threading.Thread(target=work, args=(r, t), name=f"spmv-r{r}t{t}")
                   for r in range(self.cfg.nranks)
                   for t in range(self.cfg.threads_per_rank) if r or t]
        try:
            try:
                for th in threads:
                    th.start()
            except BaseException as e:
                errors.append(e)
            started.set()
            work(0, 0)  # the caller is rank 0's thread 0
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
        # threads append their events as they finish; list them by thread
        for e in sorted(self.events, key=lambda e: e.thread):
            by_rank.setdefault(e.rank, {}).setdefault(e.phase, []).append(e)
        timings = []
        for r, phases in sorted(by_rank.items()):
            span = {p: max(e.end for e in evs) - min(e.begin for e in evs)
                    for p, evs in phases.items()}
            timings.append(RankPhaseTimings(
                r, span.get("post", 0.0), span.get("diag", 0.0),
                span.get("wait", 0.0), span.get("off", 0.0),
                [e.cpu for e in phases.get("diag", ())],
                [e.cpu for e in phases.get("off", ())]))
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

    def _run(self, r, t, x, scale, y):
        """Thread ``t``'s share of one multiply on rank ``r``.

        Thread 0 posts the ghost exchange, which starts its latency. Under
        ``task`` it then waits at once and computes nothing, and thread
        ``t`` is worker ``t - 1``.
        Under ``vector`` every thread is worker ``t``, and thread 0 waits
        only after the diagonal phase, between two rank barriers.
        """
        lay, sums = self.layouts[r], self._sums[r]
        barrier = self._rank_barriers[r]
        task = self.cfg.model in TASK_MODELS
        worker = t - 1 if task else t
        row_base = lay.own.begin
        x_local = x[row_base:lay.own.end]

        def compute(phase, kernel, *ghost):
            lo, hi = self.partitions[(r, phase)].rows(worker)
            t0, c0 = perf_counter(), thread_time()
            kernel(sums, lo, hi, x_local, *ghost, scale, y, row_base)
            self.events.append(PhaseEvent(
                phase, r, t, t0, perf_counter(), row_base + lo,
                row_base + hi, thread_time() - c0))

        if t == 0:
            posted = perf_counter()
            self.events.append(PhaseEvent("post", r, 0, posted, posted))
            if task:
                self._wait_and_unpack(r, posted, x)
        if worker >= 0:
            compute("diag", start_rows)
        barrier.wait()
        if not task:
            if t == 0:
                self._wait_and_unpack(r, posted, x)
            barrier.wait()
        if worker >= 0:
            compute("off", finish_rows, self._ghost[r])

    def _wait_and_unpack(self, r, posted, x):
        w0 = perf_counter()
        self.fabric.wait(posted, [len(idx) for idx in self.plan.recv[r].values()])
        np.take(x, self.layouts[r].ghost_cols, out=self._ghost[r])
        self.events.append(PhaseEvent("wait", r, 0, w0, perf_counter()))


def create_context(A: CsrMatrix, cfg: ExecConfig,
                   fabric: Fabric | None = None) -> MultContext:
    """Build a multiply context: decomposition, scatter plan and, for
    threaded models, thread partitions. No thread starts here."""
    return MultContext(A, cfg, fabric)

