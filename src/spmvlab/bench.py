"""Benchmark harness: timed multiplies, solves, and partition tables.

Timing methodology: three warm-up multiplies populate caches, then the
median of the per-repetition monotonic-clock times resists scheduler
noise. Results are only ever recorded after the engine's output has been
checked against the serial oracle; a mismatch aborts instead of emitting
a timing for a wrong answer.

Record conventions: ``flops = 2 * nnz * reps`` counts the total useful
work of the run, ``gflops = flops / (median_s * 1e9)``, and parallel
efficiency is ``(t_base * cores_base) / (t * cores)`` against a named
baseline record of the same kind, multiply or solve (a record with no
baseline is its own, with efficiency exactly 1.0). For solve records
``reps`` is the number of multiplies the solve performed, keeping the
flop accounting uniform.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .balance import PARTITION_SCHEMES, balance_stats, scheme_partition
from .engine import ExecConfig, create_context
from .fabric import Fabric
from .krylov import CgBreakdownError, SingularPreconditionerError, cg_solve
from .layout import build_all_layouts, decompose_rows
from .sparse import CsrMatrix, spmv_serial

__all__ = [
    "CSV_HEADER",
    "BenchRecord",
    "OracleMismatchError",
    "run_spmv_benchmark",
    "run_cg_benchmark",
    "with_efficiency",
    "append_record",
    "load_records",
    "find_baseline",
    "partition_stats",
    "format_partition_stats",
]

CSV_HEADER = ("matrix", "model", "nranks", "threads", "reps", "median_s",
              "flops", "gflops", "efficiency", "iterations", "converged",
              "error")


class OracleMismatchError(RuntimeError):
    """Engine output disagreed with the serial oracle; nothing was recorded."""


@dataclass
class BenchRecord:
    """One benchmark measurement, one CSV row."""

    matrix: str
    model: str
    nranks: int
    threads: int
    reps: int
    median_s: float
    flops: int
    gflops: float
    efficiency: float = 1.0
    iterations: int | None = None
    converged: bool | None = None
    error: str = ""

    @property
    def cores(self) -> int:
        return self.nranks * self.threads

    def to_csv_row(self) -> list[str]:
        return [
            self.matrix, self.model, str(self.nranks), str(self.threads),
            str(self.reps), repr(self.median_s), str(self.flops),
            repr(self.gflops), repr(self.efficiency),
            "" if self.iterations is None else str(self.iterations),
            "" if self.converged is None else str(self.converged).lower(),
            self.error,
        ]

    @classmethod
    def from_csv_row(cls, row) -> "BenchRecord":
        if len(row) != len(CSV_HEADER) or row[10] not in ("", "true", "false"):
            raise ValueError(f"not {len(CSV_HEADER)} fields with converged "
                             f"'', true or false: {row}")
        return cls(
            matrix=row[0], model=row[1], nranks=int(row[2]), threads=int(row[3]),
            reps=int(row[4]), median_s=float(row[5]), flops=int(row[6]),
            gflops=float(row[7]), efficiency=float(row[8]),
            iterations=int(row[9]) if row[9] else None,
            converged=row[10] == "true" if row[10] else None,
            error=row[11],
        )


def _gflops(flops: int, median_s: float) -> float:
    if flops == 0 or median_s == 0.0:
        return 0.0
    return flops / (median_s * 1e9)


def run_spmv_benchmark(A: CsrMatrix, matrix_id: str, cfg: ExecConfig,
                       fabric: Fabric | None = None, reps: int = 10,
                       warmups: int = 3, x=None) -> BenchRecord:
    """Time repeated multiplies under one configuration.

    Verifies the engine against ``spmv_serial`` once up front, runs
    ``warmups`` untimed multiplies, then records the median of ``reps``
    per-repetition times.

    Raises
    ------
    OracleMismatchError
        If the engine output is not bit-identical to the serial oracle.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if x is None:
        x = np.random.default_rng(20240117).uniform(-1.0, 1.0, A.ncols)
    with create_context(A, cfg, fabric) as ctx:
        y = ctx.mat_mult(x)
        y_ref = spmv_serial(A, x)
        if y.tobytes() != y_ref.tobytes():
            bad = int(np.flatnonzero(y != y_ref)[0])
            raise OracleMismatchError(
                f"{cfg.model} output differs from serial oracle at row {bad}: "
                f"{y[bad]!r} vs {y_ref[bad]!r} "
                f"(max abs diff {np.max(np.abs(y - y_ref)):.3e})")
        for _ in range(warmups):
            ctx.mat_mult(x)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            ctx.mat_mult(x)
            times.append(time.perf_counter() - t0)
    median_s = statistics.median(times)
    flops = 2 * A.nnz * reps
    return BenchRecord(matrix_id, cfg.model, cfg.nranks, cfg.threads_per_rank,
                       reps, median_s, flops, _gflops(flops, median_s))


def run_cg_benchmark(A: CsrMatrix, matrix_id: str, cfg: ExecConfig,
                     fabric: Fabric | None = None, rtol: float = 1e-5,
                     max_iterations: int = 10_000, b=None) -> BenchRecord:
    """Time one preconditioned CG solve under one configuration.

    Breakdown (non-SPD input) and singular preconditioners are recorded
    in the record's ``error`` column rather than raised. A converged
    solution is independently verified against the serial oracle's
    residual before it is recorded.
    """
    if b is None:
        b = np.ones(A.nrows)
    t0 = time.perf_counter()
    with create_context(A, cfg, fabric) as ctx:
        try:
            x, report = cg_solve(ctx, b, rtol=rtol, max_iterations=max_iterations)
        except (CgBreakdownError, SingularPreconditionerError) as e:
            elapsed = time.perf_counter() - t0
            return BenchRecord(matrix_id, cfg.model, cfg.nranks,
                               cfg.threads_per_rank, 0, elapsed, 0, 0.0,
                               iterations=None, converged=False, error=str(e))
    if report.converged:
        r = b - spmv_serial(A, x)
        rel = float(np.linalg.norm(r) / np.linalg.norm(b))
        if rel > rtol:
            raise OracleMismatchError(
                f"solve claimed convergence but true relative residual is "
                f"{rel:.3e} > rtol {rtol:.3e}")
    reps = report.spmv_count
    flops = 2 * A.nnz * reps
    return BenchRecord(matrix_id, cfg.model, cfg.nranks, cfg.threads_per_rank,
                       reps, report.wall_time_s, flops,
                       _gflops(flops, report.wall_time_s),
                       iterations=report.iterations, converged=report.converged)


def with_efficiency(record: BenchRecord, baseline: BenchRecord | None) -> BenchRecord:
    """Fill in parallel efficiency against a baseline record.

    Without a baseline the record is its own reference and gets
    efficiency exactly 1.0.
    """
    if baseline is None:
        record.efficiency = 1.0
    else:
        record.efficiency = ((baseline.median_s * baseline.cores)
                             / (record.median_s * record.cores))
    return record


def load_records(path) -> list[BenchRecord]:
    """Read all records from a CSV file; empty or missing file gives [].
    A malformed row raises ``ValueError`` naming its line."""
    try:
        with open(path, "r", newline="") as f:
            reader = csv.reader(f)
            rows = [(reader.line_num, row) for row in reader]
    except FileNotFoundError:
        return []
    if rows and tuple(rows[0][1]) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}: {rows[0][1]}")
    records = []
    for line, row in rows[1:]:
        try:
            records.append(BenchRecord.from_csv_row(row))
        except ValueError as e:
            raise ValueError(f"{path}, line {line}: {e}") from None
    return records


def find_baseline(records, record: BenchRecord) -> BenchRecord | None:
    """First recorded run of the same matrix and kind (solve rows have
    ``converged`` set, multiply rows do not) as ``record``, if any."""
    solve = record.converged is not None
    for rec in records:
        if rec.matrix == record.matrix and (rec.converged is not None) == solve:
            return rec
    return None


def append_record(path, record: BenchRecord) -> None:
    """Append one CSV row, writing the header if the file is new/empty."""
    try:
        with open(path, "r") as f:
            need_header = not f.read(1)
    except FileNotFoundError:
        need_header = True
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if need_header:
            w.writerow(CSV_HEADER)
        w.writerow(record.to_csv_row())


def partition_stats(A: CsrMatrix, workers: int, nranks: int = 1,
                    schemes=PARTITION_SCHEMES) -> list[dict]:
    """Balance statistics per rank and block under each partition scheme.

    Returns one dict per (rank, block, scheme) with the scheme's
    :class:`BalanceStats`, for the diagonal and off-diagonal blocks of
    every rank in an equal-rows decomposition.
    """
    ranges = decompose_rows(A.nrows, nranks)
    layouts = build_all_layouts(A, ranges)
    rows = []
    for lay in layouts:
        for block_name, block in (("diag", lay.diag_block), ("off", lay.off_block)):
            nnz = block.row_nnz()
            for scheme in schemes:
                part = scheme_partition(scheme, nnz, workers)
                rows.append({"rank": lay.rank, "block": block_name,
                             "scheme": scheme, "workers": workers,
                             "stats": balance_stats(part, nnz)})
    return rows


def format_partition_stats(rows) -> str:
    """Render partition statistics as an aligned text table."""
    out = io.StringIO()
    out.write(f"{'rank':>4} {'block':>5} {'scheme':>15} {'max':>10} "
              f"{'mean':>12} {'imbalance':>10}\n")
    for row in rows:
        s = row["stats"]
        out.write(f"{row['rank']:>4} {row['block']:>5} {row['scheme']:>15} "
                  f"{s.max_load:>10} {s.mean_load:>12.2f} {s.imbalance:>10.4f}\n")
    return out.getvalue()
