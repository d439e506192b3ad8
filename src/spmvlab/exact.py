"""Order-independent, exactly rounded row sums: the two-phase kernels.

Every row sum in this package is *correctly rounded*: the returned double
is the exact real-number sum of the addends, rounded once. Since the exact
sum does not depend on the order in which addends arrive, a row's result
is bit-for-bit identical no matter how its entries are grouped between
diagonal/off-diagonal blocks, ranks, or threads. This is the mechanism
behind the engine's bitwise reproducibility guarantee.

The running state is a Shewchuk expansion: a list of non-overlapping
partials whose exact sum equals the exact sum of everything accumulated so
far. ``math.fsum`` over the partials yields the correctly rounded total.

The two phases of the row sum live here and serve both the threaded
engine and the sequential ``layout.two_phase_multiply``:
``start_rows`` starts each row's expansion from its diagonal-block
products, and ``finish_rows`` folds in the off-diagonal products and
rounds each row once. Both callers run ``check_products`` first, since the
running sums stay exact only while no row's products can overflow.
"""

from math import fsum

import numpy as np

__all__ = ["extend", "start_rows", "finish_rows", "check_products"]

# A row whose product magnitudes sum to this may overflow a running sum;
# the margin below the largest double covers the check's own rounding.
_ROW_SUM_LIMIT = np.finfo(np.float64).max * (1 - 2.0**-20)


def extend(partials: list[float], values) -> list[float]:
    """Accumulate a sequence of floats into an expansion, in place.

    Hot path for the multiply kernels; ``values`` should be a plain list
    of Python floats (``ndarray.tolist()``), not a numpy array.
    """
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


def start_rows(block, lo, hi, x_local, partials):
    """Phase 1: start the expansion of each row in ``[lo, hi)`` from its
    products with ``x_local``, storing it in ``partials[row]``."""
    if lo == hi:
        return
    offs = block.row_offsets
    p0, p1 = int(offs[lo]), int(offs[hi])
    prods = (block.values[p0:p1] * x_local[block.col_indices[p0:p1]]).tolist()
    offlist = (offs[lo:hi + 1] - p0).tolist()
    for i in range(hi - lo):
        partials[lo + i] = extend([], prods[offlist[i]:offlist[i + 1]])


def finish_rows(block, lo, hi, ghost, partials, y, row_base):
    """Phase 2: fold each row's products with ``ghost`` into its expansion
    and round it once into ``y[row_base + row]``."""
    if lo == hi:
        return
    offs = block.row_offsets
    p0, p1 = int(offs[lo]), int(offs[hi])
    prods = (block.values[p0:p1] * ghost[block.col_indices[p0:p1]]).tolist()
    offlist = (offs[lo:hi + 1] - p0).tolist()
    for i in range(hi - lo):
        pl = partials[lo + i]
        extend(pl, prods[offlist[i]:offlist[i + 1]])
        y[row_base + lo + i] = fsum(pl)


def check_products(pieces, row_base=0):
    """Raise ``ValueError`` for a non-finite product ``A[i, j] * x[j]`` and
    ``OverflowError`` for a row whose magnitudes sum to ``_ROW_SUM_LIMIT``.

    ``pieces`` are ``(block, vector)`` pairs that together hold whole rows
    ``row_base + i``; the common case is one sum over all the magnitudes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mags = [block.values * v[block.col_indices] for block, v in pieces]
        for m in mags:
            np.abs(m, out=m)
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
