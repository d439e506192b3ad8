"""Contiguous thread partitions of a block's rows, balanced by nonzeros.

Three schemes, in increasing quality: ``equal_rows_partition`` splits row
counts evenly (what a naive parallel-for gives you), ``greedy_partition``
cuts by cumulative nonzero targets, and ``diffuse`` refines any partition
with local one-row boundary moves. All are pure functions of their
inputs, so a partition can be computed once and cached with its matrix.
``scheme_partition`` maps a scheme name to one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThreadPartition",
    "BalanceStats",
    "equal_rows_partition",
    "greedy_partition",
    "diffuse",
    "scheme_partition",
    "balance_stats",
]

PARTITION_SCHEMES = ("equal-rows", "greedy", "greedy+diffuse")


@dataclass(frozen=True)
class ThreadPartition:
    """Contiguous row-block boundaries for a team of workers.

    ``boundaries`` has ``workers + 1`` non-decreasing entries starting at
    0 and ending at the block's row count; worker ``w`` owns rows
    ``[boundaries[w], boundaries[w + 1])``. Empty blocks are legal.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self):
        b = self.boundaries
        if len(b) < 2:
            raise ValueError("partition needs at least one worker")
        if b[0] != 0:
            raise ValueError(f"boundaries must start at 0, got {b[0]}")
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries not non-decreasing: {b}")

    @property
    def workers(self) -> int:
        return len(self.boundaries) - 1

    @property
    def nrows(self) -> int:
        return self.boundaries[-1]

    def rows(self, worker: int) -> tuple[int, int]:
        """Half-open local row range owned by ``worker``."""
        return self.boundaries[worker], self.boundaries[worker + 1]


@dataclass(frozen=True)
class BalanceStats:
    """Per-worker nonzero loads and the resulting imbalance ratio."""

    loads: tuple[int, ...]
    max_load: int
    mean_load: float
    imbalance: float


def equal_rows_partition(nrows: int, workers: int) -> ThreadPartition:
    """Split ``nrows`` rows as evenly as possible among ``workers``.

    The first ``nrows % workers`` workers receive one extra row.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    base, extra = divmod(nrows, workers)
    bounds = [0]
    for w in range(workers):
        bounds.append(bounds[-1] + base + (1 if w < extra else 0))
    return ThreadPartition(tuple(bounds))


def greedy_partition(row_nnz, workers: int) -> ThreadPartition:
    """Cut rows by cumulative nonzero count against a moving target.

    Walks the rows accumulating nonzeros and cuts after the row where the
    running sum first reaches ``remaining_nnz / remaining_workers``,
    recomputing the target after every cut; the last worker takes
    whatever remains. The comparison is done in integer arithmetic
    (``running * remaining_workers >= remaining_nnz``) so equal-weight
    rows reproduce the equal-rows split exactly. Each cut is one binary
    search of the running sums from the previous cut.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    prefix = _prefix(row_nnz)
    bounds = [0]
    for left in range(workers, 1, -1):
        row = bounds[-1]
        remaining = int(prefix[-1] - prefix[row])
        # running * left >= remaining  <=>  running >= ceil(remaining / left)
        target = prefix[row] - (-remaining // left)
        bounds.append(row + int(np.searchsorted(prefix[row:], target)))
    bounds.append(len(prefix) - 1)
    return ThreadPartition(tuple(bounds))


def diffuse(partition: ThreadPartition, row_nnz) -> ThreadPartition:
    """Refine a partition by local one-row boundary moves.

    Sweeps the interior boundaries in order; at each boundary the row
    just left or just right of it may hop across, and a move is accepted
    only if it strictly decreases the larger of the two adjacent loads
    (ties are rejected, which guarantees termination). Stops after a
    sweep with no accepted move, or after as many sweeps as the block has
    rows. The overall maximum load never increases.
    """
    # the sweeps read single entries, which a list serves faster than an array
    prefix = _prefix(row_nnz).tolist()
    n = len(prefix) - 1
    if partition.nrows != n:
        raise ValueError(
            f"partition covers {partition.nrows} rows but {n} weights given")
    bounds = list(partition.boundaries)

    def worse(k, b):
        """The larger load beside boundary ``k`` if it sat at row ``b``."""
        return max(prefix[b] - prefix[bounds[k - 1]], prefix[bounds[k + 1]] - prefix[b])

    for _ in range(n):
        moved = False
        for k in range(1, partition.workers):
            b = bounds[k]
            best, choice = worse(k, b), b
            for c in (b - 1, b + 1):
                if bounds[k - 1] <= c <= bounds[k + 1] and (load := worse(k, c)) < best:
                    best, choice = load, c
            if choice != b:
                bounds[k] = choice
                moved = True
        if not moved:
            break
    return ThreadPartition(tuple(bounds))


def _prefix(row_nnz) -> np.ndarray:
    """0, then the running sums of the rows' non-negative weights."""
    nnz = np.asarray(row_nnz, dtype=np.int64)
    if nnz.size and nnz.min() < 0:
        raise ValueError("row weights must be non-negative")
    return np.concatenate(([0], np.cumsum(nnz)))


def scheme_partition(scheme: str, row_nnz, workers: int) -> ThreadPartition:
    """Partition a block's rows, given their nonzero counts, under a scheme
    named in ``PARTITION_SCHEMES``."""
    if scheme == "equal-rows":
        return equal_rows_partition(len(row_nnz), workers)
    if scheme == "greedy":
        return greedy_partition(row_nnz, workers)
    if scheme == "greedy+diffuse":
        return diffuse(greedy_partition(row_nnz, workers), row_nnz)
    raise ValueError(f"unknown scheme {scheme!r}")


def balance_stats(partition: ThreadPartition, row_nnz) -> BalanceStats:
    """Per-worker loads, max load, mean load, and max/mean imbalance."""
    prefix = _prefix(row_nnz)
    if partition.nrows != len(prefix) - 1:
        raise ValueError(f"partition covers {partition.nrows} rows but "
                         f"{len(prefix) - 1} weights given")
    b = np.array(partition.boundaries, dtype=np.int64)
    loads = tuple(int(v) for v in (prefix[b[1:]] - prefix[b[:-1]]))
    max_load = max(loads)
    mean = sum(loads) / len(loads)
    imbalance = 1.0 if mean == 0 else max_load / mean
    return BalanceStats(loads, max_load, mean, imbalance)
