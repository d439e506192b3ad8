"""Synthetic benchmark matrices.

``extruded_laplacian`` is the workhorse input: a 7-point stencil on an
nx * ny * layers grid, so the ``layers`` argument scales the problem
size (and nonzero count) linearly. ``arrowhead`` produces a strongly
row-skewed matrix for exercising thread-level load balancing.
"""

from __future__ import annotations

import numpy as np

from .sparse import CsrMatrix, csr_from_arrays

__all__ = ["extruded_laplacian", "arrowhead"]


def extruded_laplacian(nx: int, ny: int, layers: int) -> CsrMatrix:
    """7-point Laplacian on an nx x ny x layers grid, shifted to be SPD.

    Node (i, j, k) maps to row i + nx*(j + ny*k). Every row carries a
    diagonal value of 7 (the 6-neighbor stencil plus a unit shift) and -1
    for each in-grid axis neighbor. The unit shift keeps the matrix
    strictly diagonally dominant regardless of boundary truncation, hence
    symmetric positive definite and safe for conjugate gradients.

    Raises
    ------
    ValueError
        If any dimension is < 1.
    """
    if nx < 1 or ny < 1 or layers < 1:
        raise ValueError(f"grid dimensions must be >= 1, got ({nx}, {ny}, {layers})")
    n = nx * ny * layers
    node = np.arange(n)
    i, j, k = node % nx, node // nx % ny, node // (nx * ny)
    # stencil offsets in ascending column order, each with its in-grid test
    steps = np.array([-nx * ny, -nx, -1, 0, 1, nx, nx * ny])
    inside = np.stack([k > 0, j > 0, i > 0, np.ones(n, dtype=bool),
                       i < nx - 1, j < ny - 1, k < layers - 1], axis=1)
    rows, step = np.nonzero(inside)
    cols = rows + steps[step]
    return csr_from_arrays(rows, cols, np.where(rows == cols, 7.0, -1.0), n, n)


def arrowhead(n: int) -> CsrMatrix:
    """Symmetric arrowhead matrix: dense last row/column, heavy diagonal.

    Rows 0..n-2 hold (diag, last-column) pairs; the last row is dense.
    The diagonal value n keeps it strictly diagonally dominant (SPD).
    The last row concentrates roughly half the nonzeros in one row,
    which is the worst case for equal-rows thread partitions.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    head = np.arange(n - 1)
    rows = np.concatenate([head, head, np.full(n, n - 1)])
    cols = np.concatenate([head, np.full(n - 1, n - 1), np.arange(n)])
    return csr_from_arrays(rows, cols, np.where(rows == cols, float(n), 1.0), n, n)
