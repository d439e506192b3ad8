"""Command-line harness: generate inputs, time multiplies and solves,
inspect thread partitions.

Exit codes: 0 on success, 2 on structural errors (bad files, bad
arguments), 3 when an engine result fails oracle verification.
"""

from __future__ import annotations

import argparse
import sys
import time

from .balance import PARTITION_SCHEMES
from .bench import (OracleMismatchError, append_record, find_baseline,
                    format_partition_stats, load_records, partition_stats,
                    run_cg_benchmark, run_spmv_benchmark, with_efficiency)
from .engine import ExecConfig, MODELS
from .fabric import Fabric, LatencyModel
from .generate import extruded_laplacian
from .krylov import DEFAULT_RTOL, MAX_ITERATIONS
from .mmio import read_matrix_market, write_matrix_market
from .sparse import SparseFormatError

EXIT_OK = 0
EXIT_STRUCTURAL = 2
EXIT_ORACLE = 3


def _add_exec_options(p, with_reps=False, with_rtol=False):
    p.add_argument("--model", choices=MODELS, default="serial",
                   help="execution model (default: serial)")
    p.add_argument("--ranks", type=int, default=1, metavar="N",
                   help="rank count (default: 1)")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="threads per rank (default: 1)")
    if with_reps:
        p.add_argument("--reps", type=int, default=10, metavar="N",
                       help="timed repetitions (default: 10)")
    if with_rtol:
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL, metavar="X",
                       help=f"relative residual tolerance (default: {DEFAULT_RTOL})")
        p.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS,
                       metavar="N",
                       help=f"iteration cap (default: {MAX_ITERATIONS})")
    p.add_argument("--latency-us", type=float, default=0.0, metavar="X",
                   help="injected per-message latency in microseconds")
    p.add_argument("--latency-per-elem-ns", type=float, default=0.0, metavar="Y",
                   help="injected per-element latency in nanoseconds")
    p.add_argument("--progress", choices=("active", "background"),
                   default="active",
                   help="message progress mode: latency paid inside wait "
                        "(active) or elapsing from post (background)")
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="append the result row to this CSV file")
    p.add_argument("--weighted-decomp", action="store_true",
                   help="decompose ranks by nonzero count instead of rows")


def _fabric_from(args) -> Fabric:
    model = LatencyModel(per_message_s=args.latency_us * 1e-6,
                         per_element_s=args.latency_per_elem_ns * 1e-9,
                         progress=args.progress)
    return Fabric(args.ranks, model)


def _config_from(args) -> ExecConfig:
    return ExecConfig(model=args.model, nranks=args.ranks,
                      threads_per_rank=args.threads,
                      weighted_decomposition=args.weighted_decomp)


def _record_result(args, record):
    if args.csv:
        baseline = find_baseline(load_records(args.csv), record)
        with_efficiency(record, baseline)
        append_record(args.csv, record)
    else:
        with_efficiency(record, None)
    return record


def _print_timer_info():
    info = time.get_clock_info("perf_counter")
    print(f"timer: {info.implementation} (monotonic={info.monotonic}, "
          f"resolution={info.resolution:g}s)")


def _cmd_gen(args) -> int:
    A = extruded_laplacian(args.nx, args.ny, args.layers)
    with open(args.out, "w", encoding="ascii") as f:
        f.write(write_matrix_market(A))
    print(f"wrote {args.out}: {A.nrows} rows, {A.nnz} nonzeros")
    return EXIT_OK


def _cmd_spmv(args) -> int:
    A = read_matrix_market(args.matrix)
    record = run_spmv_benchmark(A, args.matrix, _config_from(args),
                                _fabric_from(args), reps=args.reps)
    _record_result(args, record)
    _print_timer_info()
    print(f"{record.matrix}: model={record.model} ranks={record.nranks} "
          f"threads={record.threads} reps={record.reps} "
          f"median={record.median_s:.6f}s gflops={record.gflops:.4f} "
          f"efficiency={record.efficiency:.4f}")
    return EXIT_OK


def _cmd_cg(args) -> int:
    A = read_matrix_market(args.matrix)
    record = run_cg_benchmark(A, args.matrix, _config_from(args),
                              _fabric_from(args), rtol=args.rtol,
                              max_iterations=args.max_iterations)
    _record_result(args, record)
    if record.error:
        print(f"{record.matrix}: solve failed: {record.error}")
    else:
        print(f"{record.matrix}: model={record.model} ranks={record.nranks} "
              f"threads={record.threads} iterations={record.iterations} "
              f"converged={record.converged} wall={record.median_s:.6f}s "
              f"gflops={record.gflops:.4f}")
    return EXIT_OK


def _cmd_partition_stats(args) -> int:
    A = read_matrix_market(args.matrix)
    rows = partition_stats(A, args.threads, nranks=args.ranks,
                           schemes=args.scheme or PARTITION_SCHEMES)
    print(format_partition_stats(rows), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmvlab",
        description="Desk-scale distributed SpMV benchmarks: ranks are "
                    "threads in this process, communication latency is "
                    "injected, results are oracle-verified.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an extruded-mesh test matrix")
    p.add_argument("nx", type=int)
    p.add_argument("ny", type=int)
    p.add_argument("layers", type=int)
    p.add_argument("out", help="output Matrix Market path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spmv", help="time repeated multiplies")
    p.add_argument("matrix", help="Matrix Market input path")
    _add_exec_options(p, with_reps=True)
    p.set_defaults(func=_cmd_spmv)

    p = sub.add_parser("cg", help="time a Jacobi-preconditioned CG solve")
    p.add_argument("matrix", help="Matrix Market input path")
    _add_exec_options(p, with_rtol=True)
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("partition-stats",
                       help="compare thread partition schemes on a matrix")
    p.add_argument("matrix", help="Matrix Market input path")
    p.add_argument("--threads", type=int, default=4, metavar="W",
                   help="worker count to partition for (default: 4)")
    p.add_argument("--ranks", type=int, default=1, metavar="N",
                   help="rank count whose blocks to inspect (default: 1)")
    p.add_argument("--scheme", action="append", choices=PARTITION_SCHEMES,
                   help="restrict to one or more schemes (default: all)")
    p.set_defaults(func=_cmd_partition_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ORACLE
    except (SparseFormatError, ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
