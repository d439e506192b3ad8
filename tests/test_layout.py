import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmvlab import (build_all_layouts, build_rank_layout, build_scatter_plan,
                     csr_from_triplets, decompose_rows, spmv_serial,
                     two_phase_multiply)
from spmvlab.layout import RowRange

from helpers import identity_csr, random_spd_csr, tridiagonal


def test_decompose_unweighted_fixture():
    ranges = decompose_rows(10, 3)
    assert [(r.begin, r.end) for r in ranges] == [(0, 4), (4, 7), (7, 10)]


def test_decompose_single_rank():
    assert [(r.begin, r.end) for r in decompose_rows(4, 1)] == [(0, 4)]


def test_decompose_weighted_fixture():
    ranges = decompose_rows(4, 2, weights=[9, 1, 1, 1])
    assert [(r.begin, r.end) for r in ranges] == [(0, 1), (1, 4)]
    # brute force over the 3 interior cuts: max load 9 is unavoidable and
    # this cut achieves loads (9, 3)
    weights = [9, 1, 1, 1]
    best = min(max(sum(weights[:c]), sum(weights[c:])) for c in range(5))
    assert best == 9


def test_decompose_more_ranks_than_rows():
    ranges = decompose_rows(2, 4)
    assert [(r.begin, r.end) for r in ranges] == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_decompose_rejects_bad_counts():
    with pytest.raises(ValueError):
        decompose_rows(4, 0)
    with pytest.raises(ValueError):
        decompose_rows(-1, 2)
    with pytest.raises(ValueError):
        decompose_rows(4, 2, weights=[1, 2])


def test_tridiagonal_two_rank_ghosts():
    A = tridiagonal(4)
    ranges = decompose_rows(4, 2)
    lay0 = build_rank_layout(A, ranges, 0)
    lay1 = build_rank_layout(A, ranges, 1)
    assert lay0.ghost_cols.tolist() == [2]
    assert lay1.ghost_cols.tolist() == [1]
    assert lay0.diag_block.nrows == lay0.diag_block.ncols == 2
    assert lay0.off_block.ncols == 1


def test_block_diagonal_has_no_coupling():
    triplets = [(i, i, 2.0) for i in range(6)]
    triplets += [(0, 1, 1.0), (1, 0, 1.0), (4, 5, 1.0), (5, 4, 1.0)]
    A = csr_from_triplets(triplets, 6, 6)
    ranges = [RowRange(0, 2), RowRange(2, 4), RowRange(4, 6)]
    layouts = build_all_layouts(A, ranges)
    for lay in layouts:
        assert len(lay.ghost_cols) == 0
        assert lay.off_block.nnz == 0
    plan = build_scatter_plan(layouts)
    assert all(not s for s in plan.send)
    assert all(not r for r in plan.recv)


def test_single_rank_layout_is_whole_matrix():
    A = tridiagonal(5)
    lay = build_rank_layout(A, decompose_rows(5, 1), 0)
    assert lay.off_block.nnz == 0
    assert lay.ghost_cols.tolist() == []
    assert np.array_equal(lay.diag_block.row_offsets, A.row_offsets)
    assert np.array_equal(lay.diag_block.col_indices, A.col_indices)
    assert lay.diag_block.values.tobytes() == A.values.tobytes()


def test_layouts_without_coupling_share_the_matrix_arrays():
    A = random_spd_csr(np.random.default_rng(3), 30, 0.2)
    lay = build_rank_layout(A, decompose_rows(30, 1), 0)
    for name in ("col_indices", "values"):
        assert np.shares_memory(getattr(lay.diag_block, name), getattr(A, name))
    # a later rank of a block-diagonal matrix still shares the values
    B = csr_from_triplets([(i, i, 2.0) for i in range(6)], 6, 6)
    lay = build_rank_layout(B, decompose_rows(6, 2), 1)
    assert np.shares_memory(lay.diag_block.values, B.values)
    assert lay.diag_block.col_indices.tolist() == [0, 1, 2]


def test_scatter_plan_tridiagonal():
    A = tridiagonal(4)
    layouts = build_all_layouts(A, decompose_rows(4, 2))
    plan = build_scatter_plan(layouts)
    assert plan.recv[0][1].tolist() == [2]
    assert plan.recv[1][0].tolist() == [1]
    assert plan.send[1][0].tolist() == [2]
    assert plan.send[0][1].tolist() == [1]


def test_scatter_plan_arrow_matrix_eight_ranks():
    n = 8
    triplets = [(i, i, 2.0) for i in range(n)]
    triplets += [(i, n - 1, 1.0) for i in range(n - 1)]
    A = csr_from_triplets(triplets, n, n)
    layouts = build_all_layouts(A, decompose_rows(n, n))
    plan = build_scatter_plan(layouts)
    owner = n - 1
    assert sorted(plan.send[owner]) == list(range(n - 1))
    for r in range(n - 1):
        assert plan.recv[r][owner].tolist() == [n - 1]
        assert plan.send[owner][r].tolist() == [n - 1]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(1, 7), st.booleans(), st.data())
def test_plan_symmetry_random(n, nranks, weighted, data):
    coords = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1)), max_size=80))
    A = csr_from_triplets([(i, j, 1.0) for i, j in coords], n, n)
    ranges = decompose_rows(n, nranks, A.row_nnz() if weighted else None)
    layouts = build_all_layouts(A, ranges)
    plan = build_scatter_plan(layouts)
    for r in range(nranks):
        assert sorted(plan.send[r]) == [q for q in range(nranks) if r in plan.recv[q]]
        for q, idx in plan.send[r].items():
            assert np.array_equal(idx, plan.recv[q][r])
            assert np.all((ranges[r].begin <= idx) & (idx < ranges[r].end))
        # rank r receives exactly the columns its rows use outside its range
        rows = range(ranges[r].begin, ranges[r].end)
        needed = sorted({j for i, j in coords if i in rows and j not in rows})
        got = sorted(int(g) for idx in plan.recv[r].values() for g in idx)
        assert got == needed == layouts[r].ghost_cols.tolist()


def test_ghost_cols_sorted_and_outside_own_range():
    rng = np.random.default_rng(6)
    A = random_spd_csr(rng, 40, 0.2)
    layouts = build_all_layouts(A, decompose_rows(40, 3))
    for lay in layouts:
        g = lay.ghost_cols
        assert np.all(np.diff(g) > 0)
        assert not np.any((g >= lay.own.begin) & (g < lay.own.end))


def test_reassembly_reproduces_matrix():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        A = random_spd_csr(rng, n, 0.2)
        nranks = int(rng.integers(1, 5))
        layouts = build_all_layouts(A, decompose_rows(n, nranks))
        entries = []
        for lay in layouts:
            base = lay.own.begin
            for i, j, v in lay.diag_block.triplets():
                entries.append((base + i, base + j, v))
            for i, j, v in lay.off_block.triplets():
                entries.append((base + i, int(lay.ghost_cols[j]), v))
        assert sorted(entries) == sorted(A.triplets())


def test_two_phase_identity_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 80))
        A = random_spd_csr(rng, n, 0.15)
        nranks = int(rng.integers(1, 6))
        layouts = build_all_layouts(A, decompose_rows(n, nranks))
        x = rng.uniform(-5, 5, n)
        y = two_phase_multiply(layouts, x)
        assert y.tobytes() == spmv_serial(A, x).tobytes()


def test_two_phase_rejects_what_the_engine_rejects():
    # non-finite product A[0, 0] * x[0]; finite products whose row sum
    # overflows, on either rank, named by global row
    inf_product = csr_from_triplets([(0, 0, 1e200), (0, 1, 1.0), (1, 0, 1.0),
                                     (1, 1, 1.0)], 2, 2)
    row0 = csr_from_triplets([(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1.0)], 2, 2)
    row1 = csr_from_triplets([(0, 0, 1.0), (1, 0, 1e308), (1, 1, 1e308)], 2, 2)
    cases = [(inf_product, [1e200, 1.0], ValueError, "non-finite"),
             (row0, [1.0, 1.0], OverflowError, "row 0"),
             (row1, [1.0, 1.0], OverflowError, "row 1")]
    for A, x, error, match in cases:
        layouts = build_all_layouts(A, decompose_rows(2, 2))
        with pytest.raises(error, match=match):
            two_phase_multiply(layouts, np.array(x))


def test_layout_rejects_bad_ranges():
    A = tridiagonal(4)
    with pytest.raises(ValueError, match="cover"):
        build_rank_layout(A, [RowRange(0, 3)], 0)
    with pytest.raises(ValueError, match="contiguous"):
        build_rank_layout(A, [RowRange(0, 2), RowRange(3, 4)], 0)


def test_scatter_plan_unowned_ghost_column():
    # 2x3 matrix: column 2 exists but no rank owns row/column 2
    A = csr_from_triplets([(0, 0, 1.0), (1, 2, 1.0)], 2, 3)
    layouts = build_all_layouts(A, decompose_rows(2, 2))
    with pytest.raises(ValueError, match="owned by no rank"):
        build_scatter_plan(layouts)


def test_empty_rank_layouts_are_legal():
    A = tridiagonal(3)
    layouts = build_all_layouts(A, decompose_rows(3, 5))
    build_scatter_plan(layouts)  # raises nothing for empty ranks
    x = np.array([1.0, 2.0, 3.0])
    y = two_phase_multiply(layouts, x)
    assert y.tobytes() == spmv_serial(A, x).tobytes()
