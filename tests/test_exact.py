"""Property test: the two phase kernels give correctly rounded row sums."""

from math import fsum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spmvlab import CsrMatrix
from spmvlab.exact import finish_rows, start_rows

# Nonzero magnitudes of 10^-20..10^20; products stay far from under- and
# overflow, so every row's exact sum is finite.
magnitudes = st.builds(lambda m, e, s: s * m * 10.0 ** e,
                       st.floats(1.0, 10.0), st.integers(-20, 20),
                       st.sampled_from([1.0, -1.0]))


@st.composite
def row_entries(draw):
    """(value, x, in_diag) triples of one row, cancellation-heavy: many
    products come with their exact negation or a near-negation."""
    base = draw(st.lists(st.tuples(magnitudes, magnitudes), max_size=8))
    entries = list(base)
    for v, xv in base:
        kind = draw(st.sampled_from(["negate", "perturb", "none"]))
        if kind == "negate":
            entries.append((-v, xv))
        elif kind == "perturb":
            entries.append((-v * (1.0 + 2.0 ** -50), xv))
    order = draw(st.permutations(range(len(entries))))
    return [(*entries[k], draw(st.booleans())) for k in order]


def _block(rows, pick):
    """CSR block of the picked entries; entry k reads column k of its x."""
    offsets, values, xs = [0], [], []
    for row in rows:
        for v, xv, in_diag in row:
            if in_diag == pick:
                values.append(v)
                xs.append(xv)
        offsets.append(len(values))
    n = len(values)
    block = CsrMatrix(len(rows), n, np.array(offsets), np.arange(n),
                      np.array(values, dtype=np.float64))
    return block, np.array(xs, dtype=np.float64)


def _chunks(draw, nrows):
    cuts = sorted(draw(st.lists(st.integers(0, nrows), max_size=4)))
    bounds = [0] + cuts + [nrows]
    return list(zip(bounds, bounds[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(row_entries(), min_size=1, max_size=12), st.data())
def test_two_phase_kernels_equal_fsum_of_row(rows, data):
    diag, x_local = _block(rows, True)
    off, ghost = _block(rows, False)
    nrows = len(rows)
    row_base = data.draw(st.integers(0, 3))
    partials = [None] * nrows
    y = np.full(row_base + nrows, np.nan)
    for lo, hi in _chunks(data.draw, nrows):
        start_rows(diag, lo, hi, x_local, partials)
    for lo, hi in _chunks(data.draw, nrows):
        finish_rows(off, lo, hi, ghost, partials, y, row_base)
    expected = np.array([fsum(v * xv for v, xv, _ in row) for row in rows])
    assert y[row_base:].tobytes() == expected.tobytes()
