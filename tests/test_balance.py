import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmvlab import (ThreadPartition, balance_stats, diffuse,
                     equal_rows_partition, greedy_partition)

from helpers import max_load_of, optimal_contiguous_max_load


def test_equal_rows_fixtures():
    assert equal_rows_partition(10, 4).boundaries == (0, 3, 6, 8, 10)
    assert equal_rows_partition(3, 5).boundaries == (0, 1, 2, 3, 3, 3)
    assert equal_rows_partition(0, 2).boundaries == (0, 0, 0)


def test_equal_rows_rejects_zero_workers():
    with pytest.raises(ValueError):
        equal_rows_partition(10, 0)


def test_greedy_fixture_balanced_pair():
    part = greedy_partition([3, 1, 1, 3], 2)
    assert part.boundaries == (0, 2, 4)
    assert balance_stats(part, [3, 1, 1, 3]).loads == (4, 4)
    # the enumeration oracle confirms max load 4 is optimal
    assert optimal_contiguous_max_load([3, 1, 1, 3], 2) == 4


def test_greedy_fixture_heavy_first_row():
    part = greedy_partition([5, 1, 1, 1], 2)
    assert part.boundaries == (0, 1, 4)
    assert balance_stats(part, [5, 1, 1, 1]).loads == (5, 3)
    assert optimal_contiguous_max_load([5, 1, 1, 1], 2) == 5


def test_greedy_uniform_rows_equals_equal_rows():
    for nrows, workers in [(10, 4), (7, 3), (12, 5), (4, 4), (9, 2)]:
        nnz = [3] * nrows
        assert (greedy_partition(nnz, workers).boundaries
                == equal_rows_partition(nrows, workers).boundaries)


def test_diffuse_fixture_improves_greedy():
    nnz = [2, 2, 5, 1, 1, 1]
    part = greedy_partition(nnz, 2)
    assert part.boundaries == (0, 3, 6)
    assert balance_stats(part, nnz).loads == (9, 3)
    refined = diffuse(part, nnz)
    assert refined.boundaries == (0, 2, 6)
    assert balance_stats(refined, nnz).loads == (4, 8)
    assert max_load_of(refined.boundaries, nnz) == 8
    assert optimal_contiguous_max_load(nnz, 2) == 8


def test_diffuse_fixed_point_when_optimal():
    nnz = [3, 1, 1, 3]
    part = greedy_partition(nnz, 2)
    assert diffuse(part, nnz).boundaries == part.boundaries


def test_diffuse_cannot_improve_heavy_row():
    nnz = [5, 1, 1, 1]
    part = greedy_partition(nnz, 2)
    assert diffuse(part, nnz).boundaries == part.boundaries


def test_diffuse_never_increases_max_load():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        W = int(rng.integers(1, 5))
        nnz = rng.integers(0, 20, n).tolist()
        g = greedy_partition(nnz, W)
        d = diffuse(g, nnz)
        assert max_load_of(d.boundaries, nnz) <= max_load_of(g.boundaries, nnz)


def test_greedy_diffuse_optimality_bracket():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        W = int(rng.integers(1, 5))
        nnz = rng.integers(0, 12, n).tolist()
        got = max_load_of(diffuse(greedy_partition(nnz, W), nnz).boundaries, nnz)
        opt = optimal_contiguous_max_load(nnz, W)
        assert opt <= got <= opt + max(nnz, default=0)


def test_partitions_are_pure_functions():
    nnz = [4, 0, 3, 7, 1]
    assert greedy_partition(nnz, 3) == greedy_partition(nnz, 3)
    assert (diffuse(greedy_partition(nnz, 3), nnz)
            == diffuse(greedy_partition(nnz, 3), nnz))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=40), st.integers(1, 8))
def test_partition_boundary_invariants(nnz, W):
    n = len(nnz)
    equal, greedy = equal_rows_partition(n, W), greedy_partition(nnz, W)
    for start in (equal, greedy):
        diffused = diffuse(start, nnz)
        for part in (start, diffused):
            b = part.boundaries
            assert len(b) == W + 1 and b[0] == 0 and b[-1] == n
            assert all(b[i] <= b[i + 1] for i in range(W))
        assert (max_load_of(diffused.boundaries, nnz)
                <= max_load_of(start.boundaries, nnz))


def _greedy_loop(nnz, workers):
    """greedy_partition as a row-by-row walk, the reference for the search."""
    remaining = sum(nnz)
    bounds, row = [0], 0
    for left in range(workers, 1, -1):
        running = 0
        while row < len(nnz) and running * left < remaining:
            running += nnz[row]
            row += 1
        bounds.append(row)
        remaining -= running
    bounds.append(len(nnz))
    return tuple(bounds)


def _diffuse_loop(bounds, nnz):
    """diffuse over a Python list of running sums, the reference."""
    bounds = list(bounds)
    n, W = len(nnz), len(bounds) - 1
    prefix = [0]
    for w in nnz:
        prefix.append(prefix[-1] + w)

    def pair(k, b):
        return prefix[b] - prefix[bounds[k - 1]], prefix[bounds[k + 1]] - prefix[b]

    for _ in range(n):
        moved = False
        for k in range(1, W):
            b = bounds[k]
            left, right = pair(k, b)
            best = max(left, right)
            choice = b
            if b - 1 >= bounds[k - 1]:
                l2, r2 = pair(k, b - 1)
                if max(l2, r2) < best:
                    best = max(l2, r2)
                    choice = b - 1
            if b + 1 <= bounds[k + 1]:
                l2, r2 = pair(k, b + 1)
                if max(l2, r2) < best:
                    best = max(l2, r2)
                    choice = b + 1
            if choice != b:
                bounds[k] = choice
                moved = True
        if not moved:
            break
    return tuple(bounds)


# runs of zero-weight rows are where a cut could slip by one
_WEIGHTS = st.lists(st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 10**6)),
                    max_size=60)


@settings(max_examples=400, deadline=None)
@given(_WEIGHTS, st.integers(1, 9))
def test_partitions_match_row_by_row_reference(nnz, W):
    greedy = greedy_partition(nnz, W)
    assert greedy.boundaries == _greedy_loop(nnz, W)
    for start in (greedy, equal_rows_partition(len(nnz), W)):
        assert diffuse(start, nnz).boundaries == _diffuse_loop(start.boundaries, nnz)
    assert greedy_partition(np.array(nnz, dtype=np.int64), W) == greedy


def test_partitions_reject_negative_weights():
    with pytest.raises(ValueError, match="non-negative"):
        greedy_partition([3, -1, 2], 2)
    with pytest.raises(ValueError, match="non-negative"):
        diffuse(ThreadPartition((0, 1, 3)), [3, -1, 2])


def test_partition_validation():
    with pytest.raises(ValueError):
        ThreadPartition((1, 2))
    with pytest.raises(ValueError):
        ThreadPartition((0, 3, 2))
    with pytest.raises(ValueError):
        ThreadPartition((0,))


def test_balance_stats_fixtures():
    s = balance_stats(ThreadPartition((0, 2, 4)), [3, 1, 1, 3])
    assert s.loads == (4, 4) and s.imbalance == 1.0
    s = balance_stats(ThreadPartition((0, 1, 4)), [5, 1, 1, 1])
    assert s.imbalance == 5 / 4
    s = balance_stats(ThreadPartition((0, 3, 6)), [2, 2, 5, 1, 1, 1])
    assert s.imbalance == 9 / 6
    assert sum(s.loads) == 12


def test_balance_stats_empty_block():
    s = balance_stats(ThreadPartition((0, 0, 0)), [])
    assert s.imbalance == 1.0 and s.max_load == 0
