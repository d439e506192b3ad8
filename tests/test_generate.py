import numpy as np
import pytest

from spmvlab import arrowhead, extruded_laplacian

from helpers import (arrowhead_dense, laplacian_dense_by_neighbors,
                     laplacian_nnz_by_counting)


def test_single_node_grid():
    A = extruded_laplacian(1, 1, 1)
    assert A.to_dense().tolist() == [[7.0]]


def test_2x2x2_grid_counts():
    A = extruded_laplacian(2, 2, 2)
    assert A.nrows == 8
    assert A.nnz == 32
    assert laplacian_nnz_by_counting(2, 2, 2) == 32
    assert all(n == 4 for n in A.row_nnz())


def test_nnz_matches_neighbor_count_oracle():
    for nx, ny, layers in [(1, 1, 5), (3, 2, 1), (4, 4, 8), (2, 5, 3)]:
        A = extruded_laplacian(nx, ny, layers)
        assert A.nnz == laplacian_nnz_by_counting(nx, ny, layers)


def test_entries_match_dense_neighbor_oracle():
    for nx, ny, layers in [(1, 1, 5), (3, 2, 1), (4, 4, 8), (2, 5, 3)]:
        A = extruded_laplacian(nx, ny, layers)
        assert np.array_equal(A.to_dense(), laplacian_dense_by_neighbors(nx, ny, layers))


def test_nnz_grows_affinely_in_layers():
    n1 = extruded_laplacian(4, 4, 4).nnz
    n2 = extruded_laplacian(4, 4, 8).nnz
    n3 = extruded_laplacian(4, 4, 12).nnz
    assert n2 - n1 == n3 - n2


def test_symmetric():
    A = extruded_laplacian(3, 2, 4)
    dense = A.to_dense()
    assert np.array_equal(dense, dense.T)


def test_strictly_diagonally_dominant():
    A = extruded_laplacian(4, 3, 2)
    dense = A.to_dense()
    diag = np.diag(dense)
    off_sum = np.sum(np.abs(dense), axis=1) - np.abs(diag)
    assert np.all(diag > off_sum)


def test_spd_via_eigenvalues():
    A = extruded_laplacian(3, 3, 3)
    assert np.linalg.eigvalsh(A.to_dense()).min() > 0


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        extruded_laplacian(0, 1, 1)
    with pytest.raises(ValueError):
        extruded_laplacian(4, 4, 0)


def test_arrowhead_shape():
    A = arrowhead(6)
    dense = A.to_dense()
    assert np.array_equal(dense, dense.T)
    assert A.row_nnz()[-1] == 6
    assert all(n == 2 for n in A.row_nnz()[:-1])
    assert np.linalg.eigvalsh(dense).min() > 0


def test_arrowhead_entries_match_definition():
    for n in (1, 2, 3, 6, 17):
        assert np.array_equal(arrowhead(n).to_dense(), arrowhead_dense(n))


def test_arrowhead_trivial_order():
    assert arrowhead(1).to_dense().tolist() == [[1.0]]
    with pytest.raises(ValueError):
        arrowhead(0)
