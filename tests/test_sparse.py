import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmvlab import (CsrMatrix, SparseFormatError, csr_from_triplets,
                     spmv_serial, validate_csr)

from helpers import csr_equal, dense_spmv_exact, identity_csr, random_spd_csr


def test_triplets_diagonal_case():
    A = csr_from_triplets([(0, 0, 1), (1, 1, 2)], 2, 2)
    assert A.row_offsets.tolist() == [0, 1, 2]
    assert A.col_indices.tolist() == [0, 1]
    assert A.values.tolist() == [1.0, 2.0]


def test_triplets_duplicates_summed():
    A = csr_from_triplets([(0, 1, 1), (0, 1, 2)], 1, 2)
    assert A.nnz == 1
    assert A.col_indices.tolist() == [1]
    assert A.values.tolist() == [3.0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_triplets_round_trip_property(nrows, ncols, data):
    # quarter-integer values: duplicate sums are exact in any order
    entries = data.draw(st.lists(st.tuples(
        st.integers(0, nrows - 1), st.integers(0, ncols - 1),
        st.integers(-40, 40).map(lambda k: k / 4)), max_size=40))
    A = csr_from_triplets(entries, nrows, ncols)
    validate_csr(A)
    summed = {}
    for r, c, v in entries:
        summed[(r, c)] = summed.get((r, c), 0.0) + v
    assert A.triplets() == sorted((r, c, v) for (r, c), v in summed.items())
    assert csr_equal(csr_from_triplets(A.triplets(), nrows, ncols), A)


def test_triplets_out_of_range_names_entry():
    with pytest.raises(SparseFormatError, match=r"\(0, 2, 5"):
        csr_from_triplets([(0, 2, 5)], 1, 2)
    with pytest.raises(SparseFormatError, match=r"\(3, 0"):
        csr_from_triplets([(3, 0, 1.0)], 2, 2)


def test_triplets_explicit_zero_retained():
    A = csr_from_triplets([(0, 0, 1.0), (0, 0, -1.0), (1, 1, 0.0)], 2, 2)
    assert A.nnz == 2
    assert A.values.tolist() == [0.0, 0.0]


def test_triplets_rows_sorted_by_column():
    A = csr_from_triplets([(0, 3, 1.0), (0, 1, 2.0), (0, 2, 3.0)], 1, 4)
    assert A.col_indices.tolist() == [1, 2, 3]
    assert A.values.tolist() == [2.0, 3.0, 1.0]


def test_empty_matrix():
    A = csr_from_triplets([], 3, 3)
    assert A.nnz == 0
    assert A.row_offsets.tolist() == [0, 0, 0, 0]
    validate_csr(A)


def test_arrays_are_read_only():
    A = csr_from_triplets([(0, 0, 1.0)], 1, 1)
    with pytest.raises(ValueError):
        A.values[0] = 2.0


def test_validator_rejects_bad_structures():
    good = csr_from_triplets([(0, 0, 1.0), (1, 1, 2.0)], 2, 2)
    validate_csr(good)
    with pytest.raises(SparseFormatError, match="out of range"):
        validate_csr(CsrMatrix(2, 2, [0, 1, 2], [0, 5], [1.0, 2.0]))
    with pytest.raises(SparseFormatError, match="not strictly increasing"):
        validate_csr(CsrMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0]))
    with pytest.raises(SparseFormatError, match="non-decreasing"):
        validate_csr(CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0]))
    with pytest.raises(SparseFormatError, match="expected 0"):
        validate_csr(CsrMatrix(1, 2, [1, 2], [0, 1], [1.0, 2.0]))
    with pytest.raises(SparseFormatError, match="non-finite"):
        validate_csr(CsrMatrix(1, 1, [0, 1], [0], [float("nan")]))


def test_constructors_validate():
    for A in (identity_csr(5),
              csr_from_triplets([(0, 1, 2.0), (1, 0, 1.0)], 2, 2)):
        validate_csr(A)


def test_spmv_identity():
    A = identity_csr(3)
    y = spmv_serial(A, [1.0, 2.0, 3.0])
    assert y.tolist() == [1.0, 2.0, 3.0]


def test_spmv_diagonal_scaling():
    A = csr_from_triplets([(0, 0, 2.0), (1, 1, 3.0)], 2, 2)
    assert spmv_serial(A, [1.0, 1.0]).tolist() == [2.0, 3.0]


def test_spmv_dimension_mismatch():
    A = identity_csr(3)
    with pytest.raises(ValueError, match="ncols"):
        spmv_serial(A, [1.0, 2.0])


def test_spmv_matches_dense_oracle_50x50():
    rng = np.random.default_rng(50)
    n = 50
    mask = rng.random((n, n)) < 0.1
    triplets = [(int(i), int(j), float(v)) for (i, j), v in
                zip(np.argwhere(mask), rng.uniform(-1, 1, mask.sum()))]
    A = csr_from_triplets(triplets, n, n)
    x = rng.uniform(-1, 1, n)
    y = spmv_serial(A, x)
    y_dense = dense_spmv_exact(A, x)
    assert np.array_equal(y, y_dense)


def test_spmv_matches_dense_oracle_random_sizes():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 201))
        A = random_spd_csr(rng, n, float(rng.uniform(0.02, 0.3)))
        x = rng.uniform(-10, 10, n)
        assert np.array_equal(spmv_serial(A, x), dense_spmv_exact(A, x)), trial


def test_spmv_empty_rows_give_zero():
    A = csr_from_triplets([(2, 2, 4.0)], 3, 3)
    y = spmv_serial(A, [1.0, 1.0, 1.0])
    assert y.tolist() == [0.0, 0.0, 4.0]


def test_diagonal_extraction():
    A = csr_from_triplets([(0, 0, 5.0), (0, 1, 1.0), (1, 0, 2.0)], 2, 2)
    assert A.diagonal().tolist() == [5.0, 0.0]
