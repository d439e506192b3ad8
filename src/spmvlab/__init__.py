"""Desk-scale distributed sparse matrix-vector multiplication.

Reproduces, inside one process, the architecture of a hybrid
message-passing/threaded SpMV engine: per-rank diagonal/off-diagonal
matrix layout, an input-vector scatter with communication/computation
overlap, vector-based vs task-based threading, explicit nonzero-balanced
thread partitions, a Jacobi-preconditioned CG solver, and a benchmark
harness.

Ranks are threads within this process and the interconnect is a latency
model, so absolute performance is not comparable to real clusters; the
architectural effects (latency hiding, thread load balance) are real and
measurable, and every execution model's output is bit-identical to the
serial reference.
"""

from .balance import (BalanceStats, ThreadPartition, balance_stats, diffuse,
                      equal_rows_partition, greedy_partition)
from .bench import (BenchRecord, CSV_HEADER, OracleMismatchError,
                    partition_stats, run_cg_benchmark, run_spmv_benchmark)
from .engine import (ExecConfig, MODELS, MultContext, PhaseEvent,
                     RankPhaseTimings, create_context)
from .fabric import Fabric, LatencyModel, create_fabric
from .generate import arrowhead, extruded_laplacian
from .krylov import (CgBreakdownError, SingularPreconditionerError,
                     SolveReport, cg_solve, jacobi_apply)
from .layout import (RankLayout, RowRange, ScatterPlan, build_all_layouts,
                     build_rank_layout, build_scatter_plan, decompose_rows,
                     two_phase_multiply)
from .mmio import read_matrix_market, write_matrix_market
from .sparse import (CsrMatrix, SparseFormatError, csr_from_arrays,
                     csr_from_triplets, spmv_serial, validate_csr)

__version__ = "0.1.0"

__all__ = [
    "BalanceStats", "ThreadPartition", "balance_stats", "diffuse",
    "equal_rows_partition", "greedy_partition",
    "BenchRecord", "CSV_HEADER", "OracleMismatchError", "partition_stats",
    "run_cg_benchmark", "run_spmv_benchmark",
    "ExecConfig", "MODELS", "MultContext", "PhaseEvent", "RankPhaseTimings",
    "create_context",
    "Fabric", "LatencyModel", "create_fabric",
    "arrowhead", "extruded_laplacian",
    "CgBreakdownError", "SingularPreconditionerError", "SolveReport",
    "cg_solve", "jacobi_apply",
    "RankLayout", "RowRange", "ScatterPlan", "build_all_layouts",
    "build_rank_layout", "build_scatter_plan", "decompose_rows",
    "two_phase_multiply",
    "CsrMatrix", "SparseFormatError", "csr_from_arrays", "csr_from_triplets",
    "spmv_serial", "validate_csr",
    "__version__",
]
