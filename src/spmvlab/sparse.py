"""Compressed sparse row matrices and the serial multiply oracle.

``csr_from_arrays`` is the package's one assembly path: the Matrix Market
reader, the generators and ``csr_from_triplets`` all build through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

__all__ = [
    "SparseFormatError",
    "CsrMatrix",
    "validate_csr",
    "csr_from_arrays",
    "csr_from_triplets",
    "spmv_serial",
]


class SparseFormatError(ValueError):
    """Structurally invalid sparse data: bad index, bad shape, bad file."""


@dataclass(frozen=True)
class CsrMatrix:
    """Sparse matrix in compressed sparse row form.

    ``row_offsets`` has ``nrows + 1`` entries; row ``i`` occupies the slice
    ``[row_offsets[i], row_offsets[i + 1])`` of ``col_indices`` and
    ``values``. Column indices are strictly increasing within each row and
    there are no duplicate (row, col) pairs. Instances are immutable after
    construction (the arrays are marked read-only) and safe to share
    across threads.
    """

    nrows: int
    ncols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, dtype in (("row_offsets", np.int64), ("col_indices", np.int64),
                            ("values", np.float64)):
            a = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row_nnz(self) -> np.ndarray:
        """Stored entry count of each row."""
        return np.diff(self.row_offsets)

    def diagonal(self) -> np.ndarray:
        """Main-diagonal entries as a dense vector (absent entries are 0)."""
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        on = rows == self.col_indices
        d = np.zeros(min(self.nrows, self.ncols))
        d[rows[on]] = self.values[on]
        return d

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        for i in range(self.nrows):
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            out[i, self.col_indices[lo:hi]] = self.values[lo:hi]
        return out

    def triplets(self) -> list[tuple[int, int, float]]:
        """Stored entries as (row, col, value), in row-major storage order."""
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        return list(zip(rows.tolist(), self.col_indices.tolist(), self.values.tolist()))

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def validate_csr(A: CsrMatrix) -> None:
    """Check all CSR structural invariants, raising SparseFormatError.

    Verifies offset monotonicity, column bounds, strict per-row column
    ordering (which also rules out duplicates), and finite values.
    """
    offs = A.row_offsets
    if len(offs) != A.nrows + 1:
        raise SparseFormatError(
            f"row_offsets has {len(offs)} entries, expected nrows+1={A.nrows + 1}")
    if A.nrows < 0 or A.ncols < 0:
        raise SparseFormatError(f"negative dimension {A.nrows}x{A.ncols}")
    if offs[0] != 0:
        raise SparseFormatError(f"row_offsets[0] = {offs[0]}, expected 0")
    if np.any(np.diff(offs) < 0):
        raise SparseFormatError("row_offsets not non-decreasing")
    nnz = int(offs[-1])
    if len(A.col_indices) != nnz or len(A.values) != nnz:
        raise SparseFormatError(
            f"index/value arrays sized {len(A.col_indices)}/{len(A.values)}, "
            f"expected nnz={nnz}")
    if nnz and (A.col_indices.min() < 0 or A.col_indices.max() >= A.ncols):
        bad = np.flatnonzero((A.col_indices < 0) | (A.col_indices >= A.ncols))[0]
        raise SparseFormatError(
            f"column index {A.col_indices[bad]} out of range [0, {A.ncols})")
    # a step into a row start compares two rows: it orders nothing
    bad = np.diff(A.col_indices) <= 0
    bad[offs[(offs > 0) & (offs < nnz)] - 1] = False
    if bad.any():
        row = int(np.searchsorted(offs, np.argmax(bad), side="right")) - 1
        raise SparseFormatError(
            f"row {row}: column indices not strictly increasing")
    if nnz and not np.all(np.isfinite(A.values)):
        bad = np.flatnonzero(~np.isfinite(A.values))[0]
        raise SparseFormatError(f"non-finite value at storage position {bad}")


def csr_from_arrays(rows, cols, values, nrows: int, ncols: int) -> CsrMatrix:
    """Assemble a validated canonical CSR matrix from coordinate arrays.

    Entry k is (rows[k], cols[k], values[k]). Duplicate (row, col) pairs
    are summed in input order, exact zeros stay stored, and rows come out
    sorted by column. Raises SparseFormatError naming the first entry with
    an index that is not of integer dtype or is outside the shape.
    """
    r, c = np.asarray(rows), np.asarray(cols)
    v = np.asarray(values, dtype=np.float64)
    if len(r) and (r.dtype.kind not in "iu" or c.dtype.kind not in "iu"):
        integral = [x == np.trunc(x) if x.dtype.kind == "f" else
                    np.full(len(x), x.dtype.kind in "iu") for x in (r, c)]
        k = int(np.argmin(integral[0] & integral[1]))
        raise SparseFormatError(
            f"entry ({r[k]}, {c[k]}, {v[k]}) has an index that is not a 64-bit integer")
    bad = np.flatnonzero((r < 0) | (r >= nrows) | (c < 0) | (c >= ncols))
    if len(bad):
        k = int(bad[0])
        raise SparseFormatError(
            f"entry ({r[k]}, {c[k]}, {v[k]}) out of range for a "
            f"{nrows}x{ncols} matrix")
    r, c = r.astype(np.int64, copy=False), c.astype(np.int64, copy=False)
    step = np.diff(r)
    # generated and written entries come sorted by (row, col) without repeats
    if not ((step >= 0).all() and ((step > 0) | (np.diff(c) > 0)).all()):
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        starts = np.flatnonzero((np.diff(r, prepend=-1) != 0)
                                | (np.diff(c, prepend=-1) != 0))
        r, c, v = r[starts], c[starts], np.add.reduceat(v, starts)
    offsets = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=nrows), out=offsets[1:])
    A = CsrMatrix(nrows, ncols, offsets, np.array(c), np.array(v))
    validate_csr(A)
    return A


def csr_from_triplets(entries, nrows: int, ncols: int) -> CsrMatrix:
    """Assemble a canonical CSR matrix from (row, col, value) triplets by
    unzipping them into ``csr_from_arrays``, whose rules and errors apply."""
    rows, cols, values = tuple(zip(*entries)) or ((), (), ())
    return csr_from_arrays(rows, cols, values, nrows, ncols)


def spmv_serial(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Serial sparse matrix-vector multiply, y = A x.

    Rows are processed in order; each output entry is the correctly
    rounded sum of that row's products ``A[i, j] * x[j]`` taken over the
    stored (ascending-column) entries. Correct rounding makes each entry
    independent of how row entries might be grouped, so this routine is
    the reference every parallel execution model must match bit for bit.

    Raises
    ------
    ValueError
        If ``len(x) != A.ncols``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.ncols,):
        raise ValueError(f"vector length {x.shape} does not match ncols={A.ncols}")
    prods = (A.values * x[A.col_indices]).tolist()
    offs = A.row_offsets.tolist()
    y = np.empty(A.nrows)
    for i in range(A.nrows):
        y[i] = fsum(prods[offs[i]:offs[i + 1]])
    return y
