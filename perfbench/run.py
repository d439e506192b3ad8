#!/usr/bin/env python3
"""spmvlab benchmark: oracle-gated end-to-end and per-layer timings.

Run from the repository root::

    python3 perfbench/run.py --workload lap40-spmv --seed 1 --seconds 30 --trace 0

The benchmark drives spmvlab from outside, through the public calls the
``spmvlab gen``, ``spmv``, ``cg`` and ``partition-stats`` commands make.
It imports the library from the ``src/`` directory beside this one and
from nowhere else; without it the run exits with status 2 and prints no
result.

Each run generates its workload's matrix, writes it as a Matrix Market
file, and reads it back from that file, so the input layer is measured
too. The seed draws the input vector ``x`` and the right-hand side ``b``.
The run has three rounds. Each round generates and writes the matrix
(repeatedly, for at least a second), sets up once (file to a ready
multiply context), and then spends a third of ``--seconds``: the
workload's own multiplies for ``mult_share`` of it, interleaved with a
third of 6 s of ``vector`` 1 x 1 single-thread baseline multiplies on the
same matrix and ``x``, and Jacobi-PCG solves to ``rtol = 1e-10`` in the
workload's config for the rest. Spreading every kind of sample over the whole run keeps a slow spell of the host
from landing on one metric only. Every workload reports every metric, so
each runs at least one solve; lap32-cg, which has no standalone
multiplies, takes its multiply metrics from the multiplies inside its
solves.

Every timed result is verified after its timed interval ends. A
multiply's output bytes must equal ``spmv_serial`` on the same input (the
oracle output is computed once per distinct input). A solve must converge,
every multiply inside it must pass the same check, its true residual
through ``spmv_serial`` must meet ``rtol``, and its solution and iteration
count must be bitwise identical to the run's first solve. A failure
excludes that timing, counts in ``failed``, and makes the run exit with
status 1; ``failed / attempted`` is the error rate.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` the same work runs with a span recorded around
each call into a layer, and a few layer calls the engine makes internally
are repeated from outside to time them alone. The last line then holds the
per-layer metrics; the spans are written in Chrome trace-event format to
``perfbench/out/<workload>-s<seed>.trace.json`` beside the per-layer
summary ``<workload>-s<seed>.layers.json``. In that run every other
multiply is traced and the rest are not, and ``trace.overhead_s`` is the
difference of their medians.

Measurement notes:

* Multiply timings (``spmv_s``, ``spmv_1t_s``, ``spmv_cpu_s``) are
  medians over groups of consecutive multiplies, each group at least
  ``GROUP_S`` long, of the per-multiply mean within the group. On the
  2-core host the benchmark was tuned on, one thread's speed switches
  between two modes about 1.5x apart every 0.3-1.5 s. A median of single
  multiplies then jumps between the modes as their shares shift from run
  to run (``spmv_1t_s`` on lap32-cg read 0.10 s in some runs and 0.16 s in
  others), while a group mean moves smoothly with the shares.
  ``spmv_tail_s`` is still taken over single multiplies, and ``gen_s`` is
  the median over rounds of each round's mean generation time.
* Timings are raw wall clock. Normalizing by a calibration loop did not
  reduce the spread between processes on that host, so there is none;
  the CPU steal share over the run is printed with the host facts so that
  a noisy run can be recognized.
* The BLAS thread pool is left at its default, as users get it. Its cost
  shows in ``proc.foreign_cpu_s`` (process CPU not spent by any Python
  thread) and ``proc.os_threads``.
* ``engine.flops`` and ``engine.bytes_computed`` are computed from array
  sizes, not measured: 2 flops per stored entry, and 8-byte values,
  column indices and row offsets plus one read of ``x`` and one write of
  ``y``. The working sets (about 9 MB on lap40-spmv, 14 MB on
  arrow200k-setup) fit in the 300 MB L3 cache of the 2-core Xeon host
  the benchmark was tuned on (each run records the cache sizes), so the
  benchmark makes no bandwidth or roofline claim.
* Every workload keeps ranks x threads <= 2, the core count of the host
  it was tuned on, and the calling thread blocks while the engine runs.
  The ``task`` models' latency hiding at 2 ranks x 2 threads therefore
  goes unmeasured until the benchmark runs on a host with 4 cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_DIR = HERE / "work"
OUT_DIR = HERE / "out"

RTOL = 1e-10
ROUNDS = 3
TAIL_BEYOND = 10
# Seconds of multiplies per timing group, of 1 x 1 baseline multiplies per
# run, and of matrix generation per round (see "Measurement notes").
GROUP_S = 2.0
BASELINE_S = 6.0
GEN_S = 1.0
LAYER_REPS = 3
REF_REPS = 20
# The CLI's documented example: --latency-us 500 --latency-per-elem-ns 10.
LATENCY = (500e-6, 10e-9, "active")
# Every workload runs the vector model, so the benchmark mirrors the
# engine's equal-rows thread partitions when it times them alone.
MODEL = "vector"
# partition-stats on 4 workers over 2 ranks; it starts no threads.
STATS_WORKERS, STATS_RANKS = 4, 2

EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the config it runs in.

    ``mult_share`` is the share of ``--seconds`` spent on standalone
    multiplies; solves get the rest, with at least ``min_solves``.
    """

    name: str
    why: str
    generator: str
    args: tuple
    nranks: int
    threads: int
    latency: bool
    mult_share: float
    min_solves: int


# Why each workload (the full reasoning behind the one-line ``why``):
#
# lap40-spmv: where the time goes in the two-phase kernel (engine plus the
#   exact row sums), in rank-level concurrency and in the fabric exchange:
#   each rank receives one 1,600-element plane per multiply. Set-up (about
#   1.6 s) is small against the multiplies (0.26-0.45 s each).
# lap32-cg: time to solution. It exercises krylov (ranked dots,
#   jacobi_apply, A.diagonal()), the intra-rank two-thread team and the
#   per-multiply barrier cost 40 times per solve (39 iterations). With one
#   rank there is no fabric traffic and no ghosts, and input is a small
#   share.
# arrow200k-setup: set-up dominates. The Matrix Market read, including
#   validate_csr's per-row loop, takes several multiplies' time; layout,
#   the scatter plan and balance see extreme row skew (one dense
#   200,000-entry row; one 100,000-element message one way and 1 element
#   the other). Same config as lap40-spmv with another matrix shape, so a
#   kernel gain for short uniform rows that costs long rows shows up.
#   It is defined and runnable but not listed in BENCHMARK.json, so no
#   change is gated on it: its two-rank multiply amplifies the host's slow
#   spells, and the spread of spmv_s between runs (0.26 and 0.38 of the
#   median over ten runs, on a 2-core host with up to 22% CPU steal)
#   exceeded the largest bound a metric may have.
#
# The 64^3 Laplacian (7 s read, 1.4 s per multiply) is too slow and
# arrowhead(4096) (millisecond set-up) too small for runs repeated 22
# times, so they are left out.
WORKLOADS = {w.name: w for w in (
    Workload("lap40-spmv",
             "two-phase kernel, rank concurrency and ghost exchange on a 40^3 "
             "stencil; set-up is small against many multiplies",
             "extruded_laplacian", (40, 40, 40), nranks=2, threads=1,
             latency=True, mult_share=0.6, min_solves=1),
    Workload("lap32-cg",
             "time to solution: Jacobi-PCG on a 32^3 stencil, 1 rank x 2 "
             "threads; krylov, the thread team and per-multiply barriers, "
             "no fabric traffic",
             "extruded_laplacian", (32, 32, 32), nranks=1, threads=2,
             latency=False, mult_share=0.0, min_solves=2),
    Workload("arrow200k-setup",
             "set-up dominates: Matrix Market read, validation, layout and "
             "balance on one dense row among 2-entry rows; same config as "
             "lap40-spmv",
             "arrowhead", (200_000,), nranks=2, threads=1,
             latency=True, mult_share=0.75, min_solves=1),
)}

END_TO_END = {
    "setup_s": "s", "gen_s": "s", "spmv_s": "s", "spmv_tail_s": "s",
    "gflops": "GFlop/s", "spmv_1t_s": "s", "spmv_cpu_s": "s",
    "cg_solve_s": "s", "cg_cpu_s": "s", "cg_iterations": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mmio.read_s": "s", "mmio.write_s": "s", "mmio.file_mb": "MB",
    "sparse.validate_s": "s", "sparse.diagonal_s": "s",
    "sparse.oracle_s": "s",
    "generate.matrix_s": "s",
    "layout.layouts_s": "s", "layout.plan_s": "s",
    "layout.ghost_elems": "count", "layout.messages": "count",
    "balance.partition_s": "s", "balance.imbalance": "ratio",
    "balance.imbalance_greedy_diffuse": "ratio",
    "engine.context_s": "s", "engine.close_s": "s",
    "engine.scatter_post_s": "s", "engine.diag_s": "s",
    "engine.wait_s": "s", "engine.off_diag_s": "s", "engine.sync_s": "s",
    "engine.thread_imbalance": "ratio",
    "engine.parallel_efficiency": "ratio",
    "engine.flops": "flop", "engine.bytes_computed": "B",
    "fabric.modeled_s": "s", "fabric.exposed_ratio": "ratio",
    "krylov.mult_s": "s", "krylov.other_s": "s",
    "krylov.spmv_count": "count", "krylov.final_rel_residual": "ratio",
    "proc.os_threads": "count", "proc.foreign_cpu_s": "s",
    "ref.scipy_spmv_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(RuntimeError):
    """The spmvlab sources are not where the benchmark expects them."""


def load_spmvlab():
    """Import spmvlab from ``src/`` beside the benchmark, and only there."""
    pkg = SRC / "spmvlab"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no spmvlab package at {pkg}")
    sys.path.insert(0, str(SRC))
    import spmvlab
    if Path(spmvlab.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"imported spmvlab from {spmvlab.__file__}, not {pkg}")
    return spmvlab


# -- timing and verification --------------------------------------------------

@dataclass
class Call:
    """One timed multiply: its input and output (dropped once verified, so
    they do not count in the run's peak memory), wall and process CPU
    time, and, when traced, the engine's per-rank phase timings."""

    x: np.ndarray | None
    y: np.ndarray | None
    wall: float
    cpu: float
    timings: list | None


@dataclass
class Solve:
    """One verified solve: wall and process CPU time, the solver's report,
    and the multiplies it made."""

    wall: float
    cpu: float
    report: object
    calls: list


class TimedMatrix:
    """Forwards to a CsrMatrix and records a span around ``diagonal()``,
    which ``cg_solve`` calls once per solve."""

    def __init__(self, A, tracer: Tracer):
        self._A = A
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._A, name)

    def diagonal(self):
        with self._tracer.span("sparse.diagonal"):
            return self._A.diagonal()


class TimedContext:
    """Stands in for a multiply context and times each multiply.

    ``cg_solve`` uses only the ``matrix``, ``ranges`` and ``mat_mult`` of
    the context it is given, so passing this object times the solver's
    multiplies from outside. Each call keeps a copy of its input and its
    output for verification after the timed interval. With tracing on,
    every other call counts the process's OS threads and then runs inside
    an ``engine.mult`` span through ``mult_phase_timings``; its time
    includes the span, so traced minus untraced is the tracing overhead.
    """

    def __init__(self, ctx, matrix, tracer: Tracer):
        self.ctx = ctx
        self.matrix = matrix
        self.ranges = ctx.ranges
        self.tracer = tracer
        self.calls: list[Call] = []
        self.count = 0
        self.os_threads = 0

    def mat_mult(self, x):
        x_in = np.array(x, dtype=np.float64)
        traced = self.tracer.enabled and self.count % 2 == 0
        self.count += 1
        if traced:
            self.os_threads = max(self.os_threads,
                                  len(os.listdir("/proc/self/task")))
        timings = None
        w0, c0 = time.perf_counter(), time.process_time()
        if traced:
            with self.tracer.span("engine.mult"):
                y, timings = self.ctx.mult_phase_timings(x)
        else:
            y = self.ctx.mat_mult(x)
        c1, w1 = time.process_time(), time.perf_counter()
        self.calls.append(Call(x_in, y, w1 - w0, c1 - c0, timings))
        return y

    def bind(self, ctx, matrix) -> None:
        """Time ``ctx`` from now on, e.g. after a fresh set-up."""
        self.ctx = ctx
        self.matrix = matrix
        self.ranges = ctx.ranges

    def take_calls(self) -> list[Call]:
        calls, self.calls = self.calls, []
        return calls


class Oracle:
    """``spmv_serial`` outputs, computed once per distinct input vector."""

    def __init__(self, lab, A, tracer: Tracer):
        self._lab = lab
        self._A = A
        self._tracer = tracer
        self._cache: dict[bytes, np.ndarray] = {}

    def expected(self, x: np.ndarray) -> np.ndarray:
        key = hashlib.blake2b(memoryview(x), digest_size=16).digest()
        y = self._cache.get(key)
        if y is None:
            with self._tracer.span("sparse.oracle"):
                y = self._lab.spmv_serial(self._A, x)
            self._cache[key] = y
        return y

    def matches(self, call: Call) -> bool:
        """Whether the call's output is bitwise the oracle's; drops the
        call's vectors either way."""
        ok = call.y.tobytes() == self.expected(call.x).tobytes()
        call.x = call.y = None
        return ok


class Tally:
    """Operations attempted and failed; every failure is reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def check_solve(xs, report, b, calls, oracle: Oracle, first) -> str | None:
    """Why a solve fails verification, or None when it passes."""
    if not report.converged:
        return f"did not converge in {report.iterations} iterations"
    for k, call in enumerate(calls):
        if not oracle.matches(call):
            return f"multiply {k} inside the solve differs from spmv_serial"
    rel = float(np.linalg.norm(b - oracle.expected(xs)) / np.linalg.norm(b))
    if not rel <= RTOL:
        return f"true relative residual {rel:.3e} exceeds rtol {RTOL:.0e}"
    if first is not None:
        x0, it0 = first
        if report.iterations != it0 or xs.tobytes() != x0.tobytes():
            return "solution or iteration count differs from the first solve"
    return None


# -- host facts ---------------------------------------------------------------

def cpu_jiffies() -> tuple[int, int] | None:
    """(total, steal) jiffies of all CPUs from /proc/stat, read only."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7]


def cache_sizes() -> dict:
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (idx / "type").read_text().strip()
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def host_facts(steal_share) -> dict:
    clock = time.get_clock_info("perf_counter")
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "perf_counter": {"implementation": clock.implementation,
                         "monotonic": clock.monotonic,
                         "resolution": clock.resolution},
        "caches": cache_sizes(),
        "cpu_steal_share": steal_share,
    }


def thread_cpu() -> tuple[float, dict]:
    """Process CPU time and each live Python thread's CPU time."""
    per_thread = {}
    for t in threading.enumerate():
        try:
            per_thread[t.ident] = time.clock_gettime(
                time.pthread_getcpuclockid(t.ident))
        except (OSError, TypeError):
            continue
    return time.process_time(), per_thread


# -- the run ------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return math.nan, math.nan
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def group_means(calls: list[Call], field: str) -> list[float]:
    """Per-multiply means of ``field`` over consecutive groups of calls
    whose wall times add up to at least GROUP_S; a shorter remainder joins
    the last group."""
    groups: list[list[Call]] = [[]]
    total = 0.0
    for c in calls:
        if total >= GROUP_S:
            groups.append([])
            total = 0.0
        groups[-1].append(c)
        total += c.wall
    if len(groups) > 1 and total < GROUP_S:
        groups[-2].extend(groups.pop())
    return [statistics.fmean(getattr(c, field) for c in g) for g in groups if g]


class Budget:
    """A phase's share of ``--seconds``, spread evenly over the rounds.

    Round ``k`` may start another operation while the time spent so far
    plus the last operation's time stays within the first ``k + 1``
    rounds' part of the share.
    """

    def __init__(self, total_s: float):
        self.total_s = total_s
        self.spent_s = 0.0
        self.last_s = 0.0

    def allows(self, rnd: int) -> bool:
        return (self.total_s > 0
                and self.spent_s + self.last_s <= self.total_s * (rnd + 1) / ROUNDS)

    def charge(self, seconds: float) -> None:
        self.spent_s += seconds
        self.last_s = seconds


class Run:
    """One run of one workload: its samples, contexts and failure tally."""

    def __init__(self, lab, w: Workload, seed: int, trace: bool):
        self.lab = lab
        self.w = w
        self.tracer = Tracer(trace, run_id=f"{w.name}-s{seed}-p{os.getpid()}")
        self.tally = Tally()
        self.mtx = WORK_DIR / f"{w.name}-p{os.getpid()}.mtx"
        self.cfg = lab.ExecConfig(MODEL, w.nranks, w.threads)
        self.latency = lab.LatencyModel(*LATENCY) if w.latency else lab.LatencyModel()
        self.rng = np.random.default_rng(seed)
        self.gen_s: list[float] = []
        self.setup_s: list[float] = []
        self.loop: list[Call] = []
        self.base: list[Call] = []
        self.solves: list[Solve] = []
        self.first_solve = None
        self.foreign_cpu_s = 0.0
        self.window_mults = 0
        self.A = self.ctx = self.base_ctx = self.main = None
        self.x = self.b = self.oracle = None

    def generate(self) -> float:
        """Generate the matrix and write its file, as ``spmvlab gen`` does;
        returns the time taken."""
        tr = self.tracer
        self.tally.attempted += 1
        with tr.span("gen"):
            t0 = time.perf_counter()
            with tr.span("generate.matrix"):
                A = getattr(self.lab, self.w.generator)(*self.w.args)
            with tr.span("mmio.write"):
                with open(self.mtx, "w", encoding="ascii") as f:
                    f.write(self.lab.write_matrix_market(A))
            return time.perf_counter() - t0

    def set_up(self) -> None:
        """Read the file back and build a ready context, replacing the last."""
        tr = self.tracer
        self.close_main()
        self.tally.attempted += 1
        with tr.span("setup"):
            t0 = time.perf_counter()
            with tr.span("mmio.read"):
                self.A = self.lab.read_matrix_market(self.mtx)
            fabric = self.lab.create_fabric(self.w.nranks, self.latency)
            with tr.span("engine.context"):
                self.ctx = self.lab.create_context(self.A, self.cfg, fabric)
            self.setup_s.append(time.perf_counter() - t0)

    def close_main(self) -> None:
        if self.ctx is not None:
            with self.tracer.span("engine.close"):
                self.ctx.close()
            self.ctx = None

    def multiply(self, timed: TimedContext, keep: list | None) -> Call:
        """One multiply, verified after it is timed; kept if it passes."""
        self.tally.attempted += 1
        timed.mat_mult(self.x)
        call = timed.take_calls()[0]
        if not self.oracle.matches(call):
            self.tally.fail("multiply differs from spmv_serial")
        elif keep is not None:
            keep.append(call)
        return call

    def solve(self, timed: TimedContext) -> float:
        """One Jacobi-PCG solve, verified after it is timed; returns its wall time."""
        self.tally.attempted += 1
        with self.tracer.span("krylov.cg_solve"):
            w0, c0 = time.perf_counter(), time.process_time()
            xs, report = self.lab.cg_solve(timed, self.b, rtol=RTOL)
            c1, w1 = time.process_time(), time.perf_counter()
        calls = timed.take_calls()
        problem = check_solve(xs, report, self.b, calls, self.oracle, self.first_solve)
        if self.first_solve is None:
            self.first_solve = (xs, report.iterations)
        if problem:
            self.tally.fail(f"solve: {problem}")
        else:
            self.solves.append(Solve(w1 - w0, c1 - c0, report, calls))
        return w1 - w0

    def execute(self, seconds: float) -> None:
        w, tr, lab = self.w, self.tracer, self.lab
        mult_budget = Budget(seconds * w.mult_share)
        base_budget = Budget(BASELINE_S)
        solve_budget = Budget(seconds * (1.0 - w.mult_share))
        min_mults = TAIL_BEYOND + 1 if w.mult_share else 0
        mults = solves = 0
        for rnd in range(ROUNDS):
            gens = [self.generate()]
            while sum(gens) < GEN_S:
                gens.append(self.generate())
            self.gen_s.append(statistics.fmean(gens))
            self.set_up()
            if rnd == 0:
                self.x = self.rng.uniform(-1.0, 1.0, self.A.ncols)
                self.b = self.rng.uniform(-1.0, 1.0, self.A.nrows)
                self.oracle = Oracle(lab, self.A, tr)
                self.base_ctx = lab.create_context(self.A, lab.ExecConfig("vector", 1, 1))
                base = TimedContext(self.base_ctx, self.A, tr)
                main = TimedContext(self.ctx, TimedMatrix(self.A, tr), tr)
                self.main = main
                self.multiply(base, None)
            main.bind(self.ctx, TimedMatrix(self.A, tr))
            done = (rnd + 1) / ROUNDS
            cpu0 = thread_cpu()
            count0 = main.count + base.count
            with tr.span("multiplies"):
                self.multiply(main, None)
                while True:
                    more_main = mults < math.ceil(min_mults * done) or mult_budget.allows(rnd)
                    more_base = base_budget.allows(rnd)
                    if not (more_main or more_base):
                        break
                    if more_main:
                        mult_budget.charge(self.multiply(main, self.loop).wall)
                        mults += 1
                    if more_base:
                        base_budget.charge(self.multiply(base, self.base).wall)
            n = 0
            while (n < w.min_solves - solves and rnd == ROUNDS - 1) or solve_budget.allows(rnd):
                solve_budget.charge(self.solve(main))
                n += 1
            solves += n
            cpu1 = thread_cpu()
            self.foreign_cpu_s += (cpu1[0] - cpu0[0]) - sum(
                cpu1[1][t] - c for t, c in cpu0[1].items() if t in cpu1[1])
            self.window_mults += main.count + base.count - count0
        self.close_main()

    def close(self) -> None:
        for ctx in (self.ctx, self.base_ctx):
            if ctx is not None:
                ctx.close()
        self.mtx.unlink(missing_ok=True)

    def end_to_end(self) -> dict:
        mults = self.mults()
        spmv_s = median(group_means(mults, "wall"))
        return {
            "setup_s": median(self.setup_s),
            "gen_s": median(self.gen_s),
            "spmv_s": spmv_s,
            "spmv_tail_s": tail(c.wall for c in mults)[0],
            "gflops": 2 * self.A.nnz / spmv_s / 1e9,
            "spmv_1t_s": median(group_means(self.base, "wall")),
            "spmv_cpu_s": median(group_means(mults, "cpu")),
            "cg_solve_s": median(s.wall for s in self.solves),
            "cg_cpu_s": median(s.cpu for s in self.solves),
            "cg_iterations": median(s.report.iterations for s in self.solves),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def mults(self) -> list[Call]:
        """Verified multiplies in the workload's config: the standalone ones,
        or, on a workload that has none, those inside the solves. The two
        are never mixed: a solve's vectors can cost more per multiply than
        the random ``x`` (on arrowhead they do), so a mix would move the
        median with the share of each."""
        if self.w.mult_share:
            return self.loop
        return [c for s in self.solves for c in s.calls]

    def details(self, seed: int, seconds: float) -> dict:
        walls = [c.wall for c in self.mults()]
        return {
            "workload": self.w.name, "seed": seed, "seconds": seconds,
            "config": {"model": MODEL, "nranks": self.w.nranks,
                       "threads_per_rank": self.w.threads,
                       "latency": LATENCY if self.w.latency else None},
            "matrix": None if self.A is None else {"nrows": self.A.nrows,
                                                   "nnz": self.A.nnz},
            "spmv_samples": len(walls),
            "spmv_groups": len(group_means(self.mults(), "wall")),
            "spmv_tail_percentile": tail(walls)[1],
            "baseline_samples": len(self.base),
            "baseline_groups": len(group_means(self.base, "wall")),
            "solves": len(self.solves),
            "setups": len(self.setup_s),
            "error_rate": self.tally.failed / max(self.tally.attempted, 1),
        }


def run_workload(lab, w: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (tally, metrics, details).

    An exception from spmvlab counts as a failed operation and ends the
    run without metrics.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    jiffies0 = cpu_jiffies()
    run = Run(lab, w, seed, trace)
    metrics = {}
    try:
        run.execute(seconds)
        metrics = layer_metrics(run) if trace else run.end_to_end()
    except Exception:
        run.tally.fail("exception:\n" + traceback.format_exc())
    finally:
        run.close()
    jiffies1 = cpu_jiffies()
    steal = None
    if jiffies0 and jiffies1 and jiffies1[0] > jiffies0[0]:
        steal = (jiffies1[1] - jiffies0[1]) / (jiffies1[0] - jiffies0[0])
    details = run.details(seed, seconds)
    details["host"] = host_facts(steal)
    if trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = OUT_DIR / f"{w.name}-s{seed}"
        run.tracer.write_chrome(f"{stem}.trace.json", details)
        with open(f"{stem}.layers.json", "w", encoding="utf-8") as f:
            json.dump({"metrics": metrics, "details": details}, f, indent=1)
    return run.tally, metrics, details


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics of a traced run, mostly medians of span durations.

    Layer calls that ``create_context`` makes internally are repeated here
    from outside, so each is timed alone.
    """
    lab, w, A, x, tracer = run.lab, run.w, run.A, run.x, run.tracer
    mults, solves = run.mults(), run.solves
    with tracer.span("sparse.validate"):
        lab.validate_csr(A)
    for _ in range(LAYER_REPS):
        with tracer.span("layout.layouts"):
            layouts = lab.build_all_layouts(A, lab.decompose_rows(A.nrows, w.nranks))
        with tracer.span("layout.plan"):
            plan = lab.build_scatter_plan(layouts)
        with tracer.span("balance.partition"):
            parts = [(lab.equal_rows_partition(lay.diag_block.nrows, w.threads),
                      lab.equal_rows_partition(lay.off_block.nrows, w.threads))
                     for lay in layouts]
    with tracer.span("balance.partition_stats"):
        stats = lab.partition_stats(A, STATS_WORKERS, nranks=STATS_RANKS)
    # Imported here so that scipy stays out of the untraced run's memory.
    import scipy.sparse
    S = scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets),
                                shape=A.shape)
    for _ in range(REF_REPS):
        with tracer.span("ref.scipy_spmv"):
            S @ x

    # nnz load of each (rank, worker) under the engine's equal-rows split.
    loads = []
    for lay, (dpart, opart) in zip(layouts, parts):
        doffs, ooffs = lay.diag_block.row_offsets, lay.off_block.row_offsets
        for k in range(w.threads):
            (dlo, dhi), (olo, ohi) = dpart.rows(k), opart.rows(k)
            loads.append(int(doffs[dhi] - doffs[dlo] + ooffs[ohi] - ooffs[olo]))
    modeled = max(sum(run.latency.delay(len(plan.recv[r][src]))
                      for src in plan.peers_in(r))
                  for r in range(w.nranks))

    phased = [c for c in mults if c.timings]

    def phase(f):
        return median(f(c.timings) for c in phased)

    def thread_imbalance(timings):
        d = [s for t in timings for s in t.diag_thread_s]
        return max(d) / statistics.fmean(d)

    wait_s = phase(lambda ts: max(t.wait_s for t in ts))
    sync_s = median(c.wall - max(t.scatter_post_s + t.diag_s + t.wait_s
                                 + t.off_diag_s for t in c.timings)
                    for c in phased)
    mult_in_solve = [sum(c.wall for c in s.calls) for s in solves]
    med = tracer.durations
    return {
        "mmio.read_s": median(med("mmio.read")),
        "mmio.write_s": median(med("mmio.write")),
        "mmio.file_mb": run.mtx.stat().st_size / 1e6,
        "sparse.validate_s": median(med("sparse.validate")),
        "sparse.diagonal_s": median(med("sparse.diagonal")),
        "sparse.oracle_s": median(med("sparse.oracle")),
        "generate.matrix_s": median(med("generate.matrix")),
        "layout.layouts_s": median(med("layout.layouts")),
        "layout.plan_s": median(med("layout.plan")),
        "layout.ghost_elems": sum(len(lay.ghost_cols) for lay in layouts),
        "layout.messages": sum(len(plan.peers_out(r)) for r in range(w.nranks)),
        "balance.partition_s": median(med("balance.partition")),
        "balance.imbalance": max(loads) / statistics.fmean(loads),
        "balance.imbalance_greedy_diffuse": max(
            r["stats"].imbalance for r in stats
            if r["block"] == "diag" and r["scheme"] == "greedy+diffuse"),
        "engine.context_s": median(med("engine.context")),
        "engine.close_s": median(med("engine.close")),
        "engine.scatter_post_s": phase(lambda ts: max(t.scatter_post_s for t in ts)),
        "engine.diag_s": phase(lambda ts: max(t.diag_s for t in ts)),
        "engine.wait_s": wait_s,
        "engine.off_diag_s": phase(lambda ts: max(t.off_diag_s for t in ts)),
        "engine.sync_s": sync_s,
        "engine.thread_imbalance": phase(thread_imbalance),
        "engine.parallel_efficiency": (median(group_means(run.base, "wall"))
                                       / (w.nranks * w.threads
                                          * median(group_means(mults, "wall")))),
        "engine.flops": 2 * A.nnz,
        "engine.bytes_computed": 16 * A.nnz + 8 * (A.nrows + 1) + 8 * A.ncols + 8 * A.nrows,
        "fabric.modeled_s": modeled,
        "fabric.exposed_ratio": wait_s / modeled if modeled > 0 else 0.0,
        "krylov.mult_s": median(mult_in_solve),
        "krylov.other_s": median(s.wall - m for s, m in zip(solves, mult_in_solve)),
        "krylov.spmv_count": median(s.report.spmv_count for s in solves),
        "krylov.final_rel_residual": median(
            s.report.final_relative_residual for s in solves),
        "proc.os_threads": run.main.os_threads,
        "proc.foreign_cpu_s": run.foreign_cpu_s / run.window_mults,
        "ref.scipy_spmv_s": median(med("ref.scipy_spmv")),
        "trace.overhead_s": (median(c.wall for c in phased)
                             - median(c.wall for c in mults if not c.timings)),
    }


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    """The final stdout line; metrics that could not be computed (only
    possible after a failure) are left out."""
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items()
           if name in metrics and math.isfinite(metrics[name])}
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": out})


def main(argv=None, workloads=WORKLOADS) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent on the workload's multiplies and solves")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        lab = load_spmvlab()
    except (ProgramMissing, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    w = workloads[args.workload]
    cores = len(os.sched_getaffinity(0))
    if w.nranks * w.threads > cores:
        print(f"warning: {w.nranks} x {w.threads} threads on {cores} cores",
              file=sys.stderr)
    tally, metrics, details = run_workload(lab, w, args.seed, args.seconds,
                                           bool(args.trace))
    print("# details " + json.dumps(details))
    print(result_line(tally, metrics, PER_LAYER if args.trace else END_TO_END))
    return EXIT_FAILED if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
