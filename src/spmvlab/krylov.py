"""Conjugate gradient solver with Jacobi preconditioning.

Runs over a multiply context, so the sparse multiplies inherit whatever
execution model the context was built with. Dot products are reduced
from per-rank partial sums in fixed rank order: for a given rank count
the solve is deterministic (and, since the multiply itself is bitwise
model-independent, identical across execution models); changing the rank
count changes the reduction rounding and may shift the iteration count
slightly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .engine import MultContext

__all__ = [
    "DEFAULT_RTOL",
    "MAX_ITERATIONS",
    "SolveReport",
    "SingularPreconditionerError",
    "CgBreakdownError",
    "jacobi_apply",
    "cg_solve",
]

DEFAULT_RTOL = 1e-5
MAX_ITERATIONS = 10_000


class SingularPreconditionerError(ValueError):
    """The Jacobi preconditioner hit a zero diagonal entry."""


class CgBreakdownError(RuntimeError):
    """The search direction had non-positive curvature (matrix not SPD)."""


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    final_relative_residual: float
    wall_time_s: float
    spmv_count: int


def jacobi_apply(diag: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Diagonal-scaling preconditioner: z[i] = r[i] / diag[i].

    Raises
    ------
    SingularPreconditionerError
        If any diagonal entry is zero; the message names the first such
        row.
    """
    diag = np.asarray(diag, dtype=np.float64)
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise SingularPreconditionerError(
            f"zero diagonal entry at row {int(zero[0])}")
    return np.asarray(r, dtype=np.float64) / diag


def _ranked_dot(u: np.ndarray, v: np.ndarray, ranges) -> float:
    """Dot product reduced from per-rank partials in ascending rank order."""
    total = 0.0
    for rr in ranges:
        # not np.dot: BLAS may wake helper threads that spin between calls
        total += float((u[rr.begin:rr.end] * v[rr.begin:rr.end]).sum())
    return total


def cg_solve(ctx: MultContext, b, rtol: float = DEFAULT_RTOL,
             max_iterations: int = MAX_ITERATIONS, callback=None):
    """Preconditioned conjugate gradients for A x = b, starting from zero.

    Convergence is declared when the unpreconditioned residual satisfies
    ``norm(r) / norm(b) <= rtol``. Hitting the iteration cap is reported
    (``converged=False``), not raised. The caller is responsible for A
    being symmetric positive definite; violations surface as breakdown.

    Returns ``(x, SolveReport)``. ``callback(k, x)`` is invoked after
    every accepted iterate, mainly for tests.

    Raises
    ------
    CgBreakdownError
        If a search direction has non-positive curvature.
    SingularPreconditionerError
        If the matrix diagonal contains a zero.
    """
    A = ctx.matrix
    if A.nrows != A.ncols:
        raise ValueError(f"cg needs a square matrix, got {A.nrows}x{A.ncols}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.nrows,):
        raise ValueError(f"rhs length {b.shape} does not match n={A.nrows}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite entries")
    ranges = ctx.ranges
    diag = A.diagonal()
    t0 = time.perf_counter()

    x = np.zeros(A.nrows)
    r = b - ctx.mat_mult(x)
    spmv_count = 1
    b_norm = _ranked_dot(b, b, ranges) ** 0.5
    r_norm = _ranked_dot(r, r, ranges) ** 0.5
    if b_norm == 0.0 or r_norm <= rtol * b_norm:
        rel = 0.0 if b_norm == 0.0 else r_norm / b_norm
        report = SolveReport(0, True, rel, time.perf_counter() - t0, spmv_count)
        return x, report

    z = jacobi_apply(diag, r)
    p = z.copy()
    rz = _ranked_dot(r, z, ranges)
    iterations = 0
    converged = False
    for k in range(1, max_iterations + 1):
        Ap = ctx.mat_mult(p)
        spmv_count += 1
        pAp = _ranked_dot(p, Ap, ranges)
        if pAp <= 0.0:
            raise CgBreakdownError(
                f"p^T A p = {pAp:.6g} at iteration {k}; matrix is not SPD")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations = k
        if callback is not None:
            callback(k, x)
        r_norm = _ranked_dot(r, r, ranges) ** 0.5
        if r_norm <= rtol * b_norm:
            converged = True
            break
        z = jacobi_apply(diag, r)
        rz_new = _ranked_dot(r, z, ranges)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    report = SolveReport(iterations, converged, r_norm / b_norm,
                         time.perf_counter() - t0, spmv_count)
    return x, report
