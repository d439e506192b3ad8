"""Property tests: the two phase kernels give correctly rounded row sums,
bit-equal to ``fsum`` of each row's products, and certify ordinary rows
without falling back to ``fsum``."""

import math
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spmvlab.exact
from spmvlab import (CsrMatrix, ExecConfig, cg_solve, create_context,
                     extruded_laplacian, spmv_serial)
from spmvlab.exact import (RowSums, check_products, finish_rows, start_rows,
                           vector_scale)

signs = st.sampled_from([1.0, -1.0])


def decades(lo, hi):
    """Nonzero magnitudes of 10^lo..10^hi, either sign."""
    return st.builds(lambda m, e, s: s * m * 10.0 ** e,
                     st.floats(1.0, 10.0, exclude_max=True), st.integers(lo, hi),
                     signs)


# Products stay far from under- and overflow, so every row's exact sum is
# finite.
magnitudes = decades(-20, 20)


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


def check_rows(rows, draw):
    """Run both kernels over randomly chunked rows, as a rank's threads
    would, with entry chunks that split rows, and compare each row with
    ``fsum`` of its products."""
    diag, x_local = _block(rows, True)
    off, ghost = _block(rows, False)
    nrows = len(rows)
    row_base = draw(st.integers(0, 3))
    check_products([(diag, x_local), (off, ghost)])
    sums = RowSums(diag, off)
    scale = vector_scale(np.concatenate([x_local, ghost]))
    y = np.full(row_base + nrows, np.nan)
    entry_chunk = spmvlab.exact._CHUNK
    spmvlab.exact._CHUNK = draw(st.sampled_from([1, 2, 3, 7, entry_chunk]))
    try:
        for lo, hi in _chunks(draw, nrows):
            start_rows(sums, lo, hi, x_local, scale, y, row_base)
        for lo, hi in _chunks(draw, nrows):
            finish_rows(sums, lo, hi, x_local, ghost, scale, y, row_base)
    finally:
        spmvlab.exact._CHUNK = entry_chunk
    expected = np.array([fsum(v * xv for v, xv, _ in row) for row in rows])
    assert y[row_base:].tobytes() == expected.tobytes()


def placed(draw, entries):
    """Shuffle ``(value, x)`` pairs and put each in a random block."""
    order = draw(st.permutations(range(len(entries))))
    return [(*entries[k], draw(st.booleans())) for k in order]


@st.composite
def cancelling_rows(draw):
    """Many products come with their exact negation or a near-negation."""
    base = draw(st.lists(st.tuples(magnitudes, magnitudes), max_size=8))
    entries = list(base)
    for v, xv in base:
        kind = draw(st.sampled_from(["negate", "perturb", "none"]))
        if kind == "negate":
            entries.append((-v, xv))
        elif kind == "perturb":
            entries.append((-v * (1.0 + 2.0 ** -50), xv))
    return placed(draw, entries)


@st.composite
def tie_rows(draw):
    """Rows whose exact sum lies exactly halfway between two doubles."""
    a = draw(magnitudes)
    half = math.ulp(a) / 2
    k = draw(st.integers(-4, 4))  # x = 2^k keeps every product exact
    pieces = draw(st.sampled_from([[1.0], [3.0, -2.0], [0.5, 0.25, 0.25]]))
    entries = [(a * 2.0 ** -k, 2.0 ** k)]
    entries += [(half * c * 2.0 ** -k, 2.0 ** k) for c in pieces]
    for c in draw(st.lists(magnitudes, max_size=3)):
        entries += [(c, 1.0), (-c, 1.0)]
    return placed(draw, entries)


@st.composite
def zero_rows(draw):
    """Empty rows and rows of signed-zero products only."""
    zeros = st.sampled_from([(-0.0, 1.0), (0.0, -1.0), (2.0, -0.0), (0.0, 0.0),
                             (-0.0, -0.0)])
    return placed(draw, draw(st.lists(zeros, max_size=5)))


@st.composite
def extreme_rows(draw):
    """Products near 1e+-300: the scaled s1 overflows, s2 falls below
    2^-1000 before or after scaling, a row's sum of |A_ij| overflows, or
    tiny products sit beside huge ones."""
    pairs = st.one_of(st.tuples(decades(290, 302), decades(-10, 3)),
                      st.tuples(decades(306, 307), decades(-12, -8)),
                      st.tuples(decades(-320, -290), decades(-10, 40)))
    return placed(draw, draw(st.lists(pairs, max_size=8)))


@st.composite
def spread_rows(draw):
    """Input values spread over 40 decades."""
    return placed(draw, draw(st.lists(st.tuples(decades(-1, 1), magnitudes),
                                      max_size=8)))


@settings(max_examples=200, deadline=None)
@given(st.lists(cancelling_rows(), min_size=1, max_size=12), st.data())
def test_two_phase_kernels_equal_fsum_of_row(rows, data):
    check_rows(rows, data.draw)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(tie_rows(), cancelling_rows()), min_size=1,
                max_size=12), st.data())
def test_midpoint_ties_equal_fsum_of_row(rows, data):
    check_rows(rows, data.draw)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(zero_rows(), cancelling_rows()), min_size=1,
                max_size=12), st.data())
def test_zero_and_empty_rows_equal_fsum_of_row(rows, data):
    check_rows(rows, data.draw)


@settings(max_examples=200, deadline=None)
@given(st.lists(extreme_rows(), min_size=1, max_size=8), st.data())
def test_extreme_products_fall_back_to_fsum(rows, data):
    check_rows(rows, data.draw)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_scaled_up_underflowed_s2_falls_back(data):
    # s2 = 2^-1077 underflows to 0 before the input's scale 2^101 would
    # bring it back into range; certifying with it would round this row's
    # sum, just below a midpoint, up
    tiny = math.ldexp(1.0, -1030)
    row = [(tiny, math.ldexp(1.0 + 2.0 ** -52, 100)), (tiny, 2.0 ** 47),
           (-tiny, 2.0 ** -10)]
    check_rows([placed(data.draw, row)], data.draw)


@settings(max_examples=200, deadline=None)
@given(st.lists(spread_rows(), min_size=1, max_size=12), st.data())
def test_input_spread_over_40_decades_equals_fsum_of_row(rows, data):
    check_rows(rows, data.draw)


@settings(max_examples=8, deadline=None)
@given(st.integers(70_001, 140_000), st.integers(0, 2**32 - 1), st.data())
def test_long_row_equals_fsum_of_row(n, seed, data):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)
    xs = rng.uniform(-1.0, 1.0, n)
    values[n // 2:] = -values[:n - n // 2]  # cancel half of the row
    long_row = list(zip(values.tolist(), xs.tolist(),
                        (rng.random(n) < 0.3).tolist()))
    short = data.draw(st.lists(cancelling_rows(), max_size=4))
    check_rows(short + [long_row] + short, data.draw)


@pytest.fixture
def fsum_calls(monkeypatch):
    """Count the kernels' ``fsum`` fallbacks."""
    calls = []

    def counting(terms):
        calls.append(1)
        return fsum(terms)
    monkeypatch.setattr(spmvlab.exact, "fsum", counting)
    return calls


@pytest.mark.parametrize("n", [16, 32])
def test_laplacian_multiplies_without_fallback(n, fsum_calls):
    A = extruded_laplacian(n, n, n)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, A.ncols)
    ref = spmv_serial(A, x)
    for cfg in (ExecConfig("vector", 2, 2), ExecConfig("task", 3, 3)):
        with create_context(A, cfg) as ctx:
            assert ctx.mat_mult(x).tobytes() == ref.tobytes()
    assert fsum_calls == []


def test_cg_solve_without_fallback(fsum_calls):
    A = extruded_laplacian(32, 32, 32)
    b = np.random.default_rng(32).uniform(-1.0, 1.0, A.nrows)
    with create_context(A, ExecConfig("vector", 2, 2)) as ctx:
        _, report = cg_solve(ctx, b, rtol=1e-10)
    assert report.converged
    assert fsum_calls == []
