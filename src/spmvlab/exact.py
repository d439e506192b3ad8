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
``q1`` and ``q2``, and one addition rounds it. Otherwise ``math.fsum``,
the oracle's own rule, rounds ``t1``, ``t2`` and the nonzero ``r2``, or,
where ``s1`` overflows or ``s2`` nears the subnormal range, the row's
products. ``start_rows`` finishes rows with no off-diagonal entry, and
``finish_rows`` the others; the engine and ``layout.two_phase_multiply``
run them after ``check_products``, as overflow breaks the splitting.
"""

from math import frexp, fsum, inf, ldexp

import numpy as np

__all__ = ["RowSums", "vector_scale", "start_rows", "finish_rows",
           "check_products"]

# A row whose product magnitudes sum to this may overflow a running sum;
# the margin below the largest double covers the check's own rounding.
_ROW_SUM_LIMIT = np.finfo(np.float64).max * (1 - 2.0**-20)
_TINY = 2.0**-1000
_CHUNK = 1 << 15  # entries split at a time, which bounds the scratch


class RowSums:
    """One rank's row-sum state: ``parts``, each row's ``(t1, t2)``;
    ``row_abs_max``, the largest ``sum_j |A_ij|``; and each phase's walk
    ``(block, offsets, ids, sigma)`` over all rows or ``off_rows``: walked
    row ``k`` has entries ``offsets[k]:offsets[k + 1]``, marked ``k`` in
    ``ids``, and its unscaled ``(s1, s2)`` in ``sigma[:, k]``."""

    def __init__(self, diag, off):
        self.diag, self.off = diag, off
        nnz, off_nnz = diag.row_nnz(), off.row_nnz()
        self.off_rows = np.flatnonzero(off_nnz)
        ids = np.repeat(np.arange(diag.nrows), nnz)
        off_ids = np.repeat(np.arange(len(self.off_rows)), off_nnz[self.off_rows])
        with np.errstate(over="ignore"):  # to inf, which certifies no row
            row_abs = np.bincount(ids, np.abs(diag.values), diag.nrows) * 1.0  # float if empty
            row_abs[self.off_rows] += np.bincount(off_ids, np.abs(off.values),
                                                  len(self.off_rows))
            e = np.frexp(row_abs)[1] + 1
            m = np.frexp(2 * (nnz + off_nnz) - 1)[1]
            sigma = np.ldexp(1.0, np.stack([e, e + m - 53]))
        sigma[:, np.isinf(row_abs)] = inf
        self.row_abs_max = float(np.max(row_abs, initial=0.0))
        self.sigma2_min = float(np.min(sigma[1], initial=inf))
        self.diag_walk = (diag, diag.row_offsets, ids, sigma)
        self.off_walk = (off, off.row_offsets[np.append(self.off_rows, off.nrows)],
                         off_ids, sigma[:, self.off_rows])
        self.parts = np.empty((2, diag.nrows))


def vector_scale(x) -> float:
    """``2^v > max |x|``, or inf if no such double exists."""
    big = float(np.max(np.abs(x), initial=0.0))
    return ldexp(1.0, frexp(big)[1]) if big < 2.0**1023 else inf


def _sum_rows(sums, walk, lo, hi, v, scale, t):
    """Add the ``q1`` and ``q2`` sums of walked rows ``[lo, hi)`` to ``t``;
    return ``{i: nonzero r2}``, NaN where ``s1`` or ``s2`` is out of range."""
    block, offsets, ids, sigma = walk
    rests, end = {}, int(offsets[hi])
    for c0 in range(int(offsets[lo]), end, _CHUNK):
        c1 = min(c0 + _CHUNK, end)
        k = ids[c0:c1]
        with np.errstate(over="ignore", invalid="ignore"):
            p = block.values[c0:c1] * v[block.col_indices[c0:c1]]
            q = np.take(sigma, k, axis=1) * scale
            if sums.sigma2_min * scale < _TINY:
                p[q[1] < _TINY] = np.nan  # stays NaN in r2
            for s in q:  # s becomes q1, then q2; p becomes r1, then r2
                w = s + p
                np.subtract(w, s, out=s)
                p -= s
        for j in (0, 1):  # a row split over chunks still sums exactly
            t[j, k[0] - lo:k[-1] + 1 - lo] += np.bincount(k - k[0], q[j])
        nz = np.flatnonzero(p)
        for i, r in zip((k[nz] - lo).tolist(), p[nz].tolist()):
            rests.setdefault(i, []).append(r)
    return rests


def _fsum_row(sums, i, parts, rest, x_local, ghost):
    """Row ``i`` from its ``parts`` and nonzero ``r2``, which sum to it
    exactly, or, if any is NaN, from its products (``ghost`` is read only
    for its off-diagonal entries)."""
    terms = [*parts.tolist(), *rest]
    if np.isfinite(terms).all():
        return fsum(terms)
    return fsum(np.concatenate([
        b.values[s] * v[b.col_indices[s]]
        for b, v in ((sums.diag, x_local), (sums.off, ghost))
        for s in [slice(*b.row_offsets[i:i + 2])]]).tolist())


def start_rows(sums, lo, hi, x_local, scale, y, row_base):
    """Phase 1 over rows ``[lo, hi)``: keep each row's ``(t1, t2)`` from
    ``x_local`` and write ``fl(t1 + t2)`` to ``y[row_base + row]``, final
    for rows with no off-diagonal entry. ``scale`` is ``vector_scale(x)``."""
    t = sums.parts[:, lo:hi]
    t[...] = 0.0
    rests = _sum_rows(sums, sums.diag_walk, lo, hi, x_local, scale, t)
    out = np.add(t[0], t[1], out=y[row_base + lo:row_base + hi])
    off = sums.off.row_offsets
    for i, rest in rests.items():
        if off[lo + i] < off[lo + i + 1]:
            t[0, i] = np.nan  # finish_rows sums the whole row
        else:
            out[i] = _fsum_row(sums, lo + i, t[:, i], rest, x_local, x_local)


def finish_rows(sums, lo, hi, x_local, ghost, scale, y, row_base):
    """Phase 2 over rows ``[lo, hi)``: add the parts from ``ghost`` to each
    row with off-diagonal entries and write it to ``y[row_base + row]``."""
    a, b = np.searchsorted(sums.off_rows, (lo, hi))
    rows = sums.off_rows[a:b]
    u = sums.parts[:, rows]
    rests = _sum_rows(sums, sums.off_walk, a, b, ghost, scale, u)
    s = u[0] + u[1]
    for i in rests.keys() | np.flatnonzero(np.isnan(s)).tolist():
        s[i] = _fsum_row(sums, int(rows[i]), u[:, i], rests.get(i, []),
                         x_local, ghost)
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
