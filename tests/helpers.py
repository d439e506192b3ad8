"""Shared test oracles, all independent of the code paths they check."""

from itertools import combinations_with_replacement
from math import fsum

import numpy as np

from spmvlab import CsrMatrix, csr_from_triplets


def dense_spmv_exact(A, x):
    """Dense-route multiply with correctly rounded row sums.

    Converts to a dense matrix and sums each full dense row's products
    with fsum, so it shares no sparse indexing with the implementation.
    """
    dense = A.to_dense()
    x = np.asarray(x, dtype=np.float64)
    return np.array([fsum((dense[i] * x).tolist()) for i in range(A.nrows)])


def all_contiguous_boundaries(nrows, workers):
    """Every valid boundary tuple for `workers` contiguous blocks."""
    for interior in combinations_with_replacement(range(nrows + 1), workers - 1):
        yield (0,) + interior + (nrows,)


def optimal_contiguous_max_load(row_nnz, workers):
    """Exhaustive optimum of max block load over contiguous partitions."""
    prefix = [0]
    for w in row_nnz:
        prefix.append(prefix[-1] + int(w))
    best = None
    n = len(row_nnz)
    for bounds in all_contiguous_boundaries(n, workers):
        worst = max(prefix[bounds[k + 1]] - prefix[bounds[k]]
                    for k in range(workers))
        if best is None or worst < best:
            best = worst
    return best


def max_load_of(boundaries, row_nnz):
    prefix = [0]
    for w in row_nnz:
        prefix.append(prefix[-1] + int(w))
    return max(prefix[boundaries[k + 1]] - prefix[boundaries[k]]
               for k in range(len(boundaries) - 1))


def random_spd_csr(rng, n, density):
    """Random symmetric strictly diagonally dominant (hence SPD) matrix."""
    target_off = max(0, int(density * n * n / 2))
    i = rng.integers(0, n, size=2 * target_off + 8)
    j = rng.integers(0, n, size=2 * target_off + 8)
    keep = i < j
    pairs = np.unique(i[keep] * n + j[keep])[:target_off]
    ii, jj = pairs // n, pairs % n
    vals = rng.uniform(-1.0, 1.0, len(pairs))
    triplets = list(zip(ii.tolist(), jj.tolist(), vals.tolist()))
    triplets += [(int(b), int(a), v) for a, b, v in triplets]
    row_abs = np.zeros(n)
    np.add.at(row_abs, ii, np.abs(vals))
    np.add.at(row_abs, jj, np.abs(vals))
    triplets += [(k, k, 1.0 + row_abs[k]) for k in range(n)]
    return csr_from_triplets(triplets, n, n)


def reference_cg_jacobi(dense, b, rtol, max_iterations=10_000):
    """Plain numpy dense PCG with diagonal scaling, x0 = 0.

    Independent oracle for the solver: no sparse storage, no rank
    reductions, vanilla vector arithmetic.
    """
    dense = np.asarray(dense, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.diag(dense).copy()
    x = np.zeros(len(b))
    r = b - dense @ x
    b_norm = np.linalg.norm(b)
    if b_norm == 0 or np.linalg.norm(r) <= rtol * b_norm:
        return x, 0, True
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iterations + 1):
        Ap = dense @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= rtol * b_norm:
            return x, k, True
        z = r / d
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iterations, False


def laplacian_nnz_by_counting(nx, ny, layers):
    """Entry count of the 7-point grid stencil by direct neighbor checks."""
    count = 0
    for k in range(layers):
        for j in range(ny):
            for i in range(nx):
                count += 1  # diagonal
                count += (i > 0) + (i < nx - 1)
                count += (j > 0) + (j < ny - 1)
                count += (k > 0) + (k < layers - 1)
    return count


def laplacian_dense_by_neighbors(nx, ny, layers):
    """Dense 7-point grid stencil built by direct neighbor checks: 7 on the
    diagonal, -1 for each in-grid axis neighbor, node (i, j, k) at row
    i + nx*(j + ny*k)."""
    n = nx * ny * layers
    dense = np.zeros((n, n))
    for k in range(layers):
        for j in range(ny):
            for i in range(nx):
                row = i + nx * (j + ny * k)
                dense[row, row] = 7.0
                for di, dj, dk in [(-1, 0, 0), (1, 0, 0), (0, -1, 0),
                                   (0, 1, 0), (0, 0, -1), (0, 0, 1)]:
                    a, b, c = i + di, j + dj, k + dk
                    if 0 <= a < nx and 0 <= b < ny and 0 <= c < layers:
                        dense[row, a + nx * (b + ny * c)] = -1.0
    return dense


def arrowhead_dense(n):
    """Dense arrowhead of order n: n on the diagonal, 1 elsewhere in the
    last row and last column, 0 everywhere else."""
    dense = np.zeros((n, n))
    dense[-1, :] = dense[:, -1] = 1.0
    np.fill_diagonal(dense, float(n))
    return dense


def tridiagonal(n, diag=2.0, off=-1.0):
    triplets = [(i, i, diag) for i in range(n)]
    triplets += [(i, i + 1, off) for i in range(n - 1)]
    triplets += [(i + 1, i, off) for i in range(n - 1)]
    return csr_from_triplets(triplets, n, n)


def identity_csr(n):
    return csr_from_triplets([(i, i, 1.0) for i in range(n)], n, n)


def csr_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (a.nrows == b.nrows and a.ncols == b.ncols
            and np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices)
            and a.values.tobytes() == b.values.tobytes())
