"""Order-independent, correctly rounded row sums: the two-phase kernels.

Every row sum in this package is *correctly rounded*: the exact sum of
its addends, rounded once, and so bit-for-bit the same however its entries
are grouped between blocks, ranks or threads. This is the mechanism behind
the engine's bitwise reproducibility guarantee.

The kernels split each product ``p`` without error by AccSum's extraction
(Rump, Ogita and Oishi, "Accurate floating-point summation, Part I", SISC
2008), applied twice: ``q1 = (s1 + p) - s1``, ``r1 = p - q1``, ``q2 =
(s2 + r1) - s2``, ``r2 = r1 - q2``. A row's powers of two ``s1 >= 2
sum_j |A_ij| max|x|`` and ``s2 = s1 2^(m - 53)``, ``2^m >= 2 nnz_i``, keep
every partial sum of its ``q1``, or of its ``q2``, exact. A row whose
``r2`` are all zero thus sums exactly to ``t1 + t2``, the sums of its
``q1`` and ``q2``, and one addition rounds it. Any other row, one with a
nonzero ``r2`` or with ``s1`` overflowing or ``s2`` near the subnormal
range, is marked by a NaN ``t1 + t2``, and ``math.fsum``, the oracle's own
rule, rounds its products, gathered in one batch per phase and block.
``start_rows`` finishes rows with no off-diagonal entry, and
``finish_rows`` the others; the engine and ``layout.two_phase_multiply``
run them after ``check_products``, as overflow breaks the splitting.

Each phase walks its rows as slices of a width fixed per block, its
median row length, stored slot-major and padded with zeros (the SELL-C-σ
layout of Kreutzer et al., SISC 2014). So a chunk of slices costs a few
numpy calls: one gather of ``x``, one product, the two extraction steps
with each slice's ``s1`` and ``s2`` broadcast over its slots, and a sum
per slot column; a row longer than the width spans several slices, and
only then are its slices' sums folded, by ``np.add.reduceat``. Phase 1
writes a chunk's rows to ``y`` while they are still in cache, and keeps
``(t1, t2)`` for phase 2 only for rows with off-diagonal entries.
"""

from math import frexp, fsum, inf, ldexp
from typing import NamedTuple

import numpy as np

__all__ = ["RowSums", "vector_scale", "start_rows", "finish_rows",
           "check_products"]

# A row whose product magnitudes sum to this may overflow a running sum;
# the margin below the largest double covers the check's own rounding.
_ROW_SUM_LIMIT = np.finfo(np.float64).max * (1 - 2.0**-20)
_TINY = 2.0**-1000
_CHUNK = 1 << 16  # slots of slices split at a time, which bounds the scratch


class _Slices(NamedTuple):
    """Walked rows cut into slices of ``width`` entries, slot-major: slice
    ``s`` holds ``values[:, s]`` and ``cols[:, s]`` (int32), padded with
    0.0 at a column the block uses, belongs to walked row ``row[s]`` and
    carries its unscaled ``(s1, s2)`` in ``sigma[:, s]``; walked row ``k``
    owns slices ``first[k]:first[k + 1]``, at least one (of width 0 if the
    block has no entry), and of its ``c`` slices the ``i``-th holds its
    entries ``i, c + i, 2c + i, ...``."""

    values: np.ndarray
    cols: np.ndarray
    row: np.ndarray
    sigma: np.ndarray
    first: np.ndarray


def _slices(block, offsets, sigma):
    """Slices of the walked rows ``k``, entries ``offsets[k]:offsets[k + 1]``
    of ``block``, as wide as their median length."""
    if block.ncols > np.iinfo(np.int32).max:
        raise ValueError(f"{block.ncols} columns: slices index at most 2^31 - 1")
    n = np.diff(offsets)
    width = max(1, int(np.median(n))) if block.nnz else 0
    count = np.maximum(-(-n // max(width, 1)), 1)
    first = np.concatenate([[0], np.cumsum(count)])
    row = np.repeat(np.arange(len(n)), count)
    end = offsets[row + 1]
    # slot j of a row's slices holds a run of its entries, so a long row
    # reads x in runs, not with a stride of width
    pos = offsets[row] + np.arange(first[-1]) - first[row]
    pos = pos + np.arange(width)[:, None] * count[row]
    pad = pos >= end
    # a pad reads its row's last entry, or an empty row a neighbour's
    np.minimum(pos, np.maximum(end - 1, 0), out=pos)
    values = np.take(block.values, pos)
    values[pad] = 0.0
    cols = np.take(block.col_indices, pos).astype(np.int32)  # half the memory
    return _Slices(values, cols, row, np.take(sigma, row, axis=1), first)


class RowSums:
    """One rank's row-sum state: ``parts``, the ``(t1, t2)`` of each row
    in ``off_rows`` between the phases; ``row_abs_max``, the largest
    ``sum_j |A_ij|``; and each phase's walk, the :class:`_Slices` of all
    rows or of ``off_rows``."""

    def __init__(self, diag, off):
        self.diag, self.off = diag, off
        nnz, off_nnz = diag.row_nnz(), off.row_nnz()
        self.off_rows = np.flatnonzero(off_nnz)
        off_offsets = off.row_offsets[np.append(self.off_rows, off.nrows)]
        with np.errstate(over="ignore"):  # to inf, which certifies no row
            row_abs = np.bincount(np.repeat(np.arange(diag.nrows), nnz),
                                  np.abs(diag.values), diag.nrows) * 1.0  # float if empty
            row_abs[self.off_rows] += np.bincount(
                np.repeat(np.arange(len(self.off_rows)), off_nnz[self.off_rows]),
                np.abs(off.values), len(self.off_rows))
            e = np.frexp(row_abs)[1] + 1
            m = np.frexp(2 * (nnz + off_nnz) - 1)[1]
            sigma = np.ldexp(1.0, np.stack([e, e + m - 53]))
        sigma[:, np.isinf(row_abs)] = inf
        self.row_abs_max = float(np.max(row_abs, initial=0.0))
        self.sigma2_min = float(np.min(sigma[1], initial=inf))
        self.diag_walk = _slices(diag, diag.row_offsets, sigma)
        self.off_walk = _slices(off, off_offsets, sigma[:, self.off_rows])
        self.parts = np.empty((2, len(self.off_rows)))


def vector_scale(x) -> float:
    """``2^v > max |x|``, or inf if no such double exists."""
    big = float(np.max(np.abs(x), initial=0.0))
    return ldexp(1.0, frexp(big)[1]) if big < 2.0**1023 else inf


def _row_sums(sums, walk, lo, hi, v, scale):
    """Yield per chunk ``(a, b, t, marked)``: ``t``, the ``q1`` and ``q2``
    sums of walked rows ``lo + [a, b)``, NaN for a row with a nonzero
    ``r2`` or with ``s1`` or ``s2`` out of range, and ``marked`` false if
    no row is NaN. A row that goes on into the next chunk is summed whole
    there."""
    end, carry = int(walk.first[hi]), None
    step = max(1, _CHUNK // max(1, len(walk.values)))
    for c0 in range(int(walk.first[lo]), end, step):
        c1 = min(c0 + step, end)
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.take(v, walk.cols[:, c0:c1])
            p *= walk.values[:, c0:c1]
            q = walk.sigma[:, c0:c1] * scale
            if sums.sigma2_min * scale < _TINY:
                p[:, q[1] < _TINY] = np.nan  # stays NaN in r2
            for s in q:  # s becomes the slices' q1 sums, then q2 sums
                w = s + p
                w -= s
                p -= w  # p becomes r1, then r2
                w.sum(axis=0, out=s)
            marked = p.any()  # NaN counts as nonzero
            if marked:
                q[:, p.any(axis=0)] = np.nan
        r0, r1 = int(walk.row[c0]), int(walk.row[c1 - 1]) + 1
        if r1 - r0 < c1 - c0:  # fold each row's slices: any partial sum is exact
            q = np.add.reduceat(q, np.append(0, walk.first[r0 + 1:r1] - c0), axis=1)
        if carry is not None:
            q[:, 0] += carry
            marked = marked or np.isnan(carry[0])
        carry = None
        if c1 < walk.first[r1]:  # the last row goes on
            carry, q, r1 = q[:, -1], q[:, :-1], r1 - 1
        yield r0 - lo, r1 - lo, q, marked


def _fsum_rows(sums, rows, x_local, ghost):
    """``fsum`` of each of ``rows``' products, with one gather per block
    (``ghost`` is read only for the off-diagonal entries)."""
    terms = []
    for b, v in ((sums.diag, x_local), (sums.off, ghost)):
        first = b.row_offsets[rows]
        n = b.row_offsets[rows + 1] - first
        ends = np.cumsum(n)
        pos = np.arange(n.sum()) + np.repeat(first - ends + n, n)
        prods = (b.values[pos] * v[b.col_indices[pos]]).tolist()
        terms.append([prods[e - k:e] for e, k in zip(ends.tolist(), n.tolist())])
    return [fsum(d + o) for d, o in zip(*terms)]


def start_rows(sums, lo, hi, x_local, scale, y, row_base):
    """Phase 1 over rows ``[lo, hi)``: write ``fl(t1 + t2)`` from
    ``x_local`` to ``y[row_base + row]``, final for rows with no
    off-diagonal entry, and keep the others' ``(t1, t2)`` in ``parts``.
    ``scale`` is ``vector_scale`` of ``x``, or of the entries of ``x``
    that the rows read."""
    off, off_rows = sums.off.row_offsets, sums.off_rows
    k0 = int(np.searchsorted(off_rows, lo))
    for a, b, t, marked in _row_sums(sums, sums.diag_walk, lo, hi, x_local, scale):
        out = np.add(t[0], t[1], out=y[row_base + lo + a:row_base + lo + b])
        k1 = int(np.searchsorted(off_rows, lo + b))
        sums.parts[:, k0:k1] = t[:, off_rows[k0:k1] - (lo + a)]
        k0 = k1
        if marked:
            rows = lo + a + np.flatnonzero(np.isnan(out))
            rows = rows[off[rows] == off[rows + 1]]  # finish_rows has the rest
            y[row_base + rows] = _fsum_rows(sums, rows, x_local, x_local)


def finish_rows(sums, lo, hi, x_local, ghost, scale, y, row_base):
    """Phase 2 over rows ``[lo, hi)``: add the parts from ``ghost`` to each
    row with off-diagonal entries and write it to ``y[row_base + row]``."""
    a, b = np.searchsorted(sums.off_rows, (lo, hi))
    rows = sums.off_rows[a:b]
    u = np.empty((2, b - a))
    for i0, i1, t, _ in _row_sums(sums, sums.off_walk, a, b, ghost, scale):
        u[:, i0:i1] = t
    u += sums.parts[:, a:b]
    s = u[0] + u[1]
    nan_at = np.flatnonzero(np.isnan(s))
    if len(nan_at):
        s[nan_at] = _fsum_rows(sums, rows[nan_at], x_local, ghost)
    y[row_base + rows] = s


def check_products(pieces, row_base=0, bound=inf):
    """Raise ``ValueError`` for a non-finite product ``A[i, j] * x[j]`` and
    ``OverflowError`` for a row whose magnitudes sum to ``_ROW_SUM_LIMIT``.

    ``pieces`` are ``(block, vector)`` pairs that together hold whole rows
    ``row_base + i``; the common case is one sum over all the magnitudes,
    or a ``bound`` on every row's, ``RowSums.row_abs_max * vector_scale(x)``,
    below half the limit, which covers its rounding.
    """
    if bound < _ROW_SUM_LIMIT / 2:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        mags = [np.abs(block.values * v[block.col_indices]) for block, v in pieces]
        if sum(m.sum() for m in mags) < _ROW_SUM_LIMIT:
            return
        if not all(np.isfinite(m).all() for m in mags):
            raise ValueError("input gives non-finite products A[i, j] * x[j]")
        sums = sum(np.bincount(np.repeat(np.arange(b.nrows), b.row_nnz()),
                               weights=m, minlength=b.nrows)
                   for (b, _), m in zip(pieces, mags))
    over = np.flatnonzero(sums >= _ROW_SUM_LIMIT)
    if len(over):
        raise OverflowError(f"row {row_base + int(over[0])}: "
                            "product magnitudes sum to the overflow limit")
