"""Per-rank matrix layout and the input-vector scatter plan.

A global matrix is decomposed into contiguous row blocks, one per rank.
Each rank's rows are split into a diagonal block (columns the rank owns,
multiplied against the local slice of the input vector) and an
off-diagonal block (everything else, multiplied against gathered ghost
values). The scatter plan records which owned vector entries each rank
must ship to which peers so that every ghost buffer can be filled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import equal_rows_partition, greedy_partition
from .exact import RowSums, check_products, finish_rows, start_rows, vector_scale
from .sparse import CsrMatrix

__all__ = [
    "RowRange",
    "RankLayout",
    "ScatterPlan",
    "decompose_rows",
    "build_rank_layout",
    "build_all_layouts",
    "build_scatter_plan",
    "two_phase_multiply",
]


@dataclass(frozen=True)
class RowRange:
    """Half-open range [begin, end) of globally indexed rows."""

    begin: int
    end: int

    def __post_init__(self):
        if self.begin > self.end:
            raise ValueError(f"invalid row range [{self.begin}, {self.end})")

    @property
    def nrows(self) -> int:
        return self.end - self.begin


@dataclass(frozen=True)
class RankLayout:
    """One rank's share of the matrix.

    ``diag_block`` is indexed against local columns: its column ``j``
    stands for global column ``own.begin + j``. ``off_block`` is indexed
    against the compacted ghost space: its column ``j`` stands for global
    column ``ghost_cols[j]``. ``ghost_cols`` is sorted ascending, unique,
    and contains nothing from the rank's own column range.
    """

    rank: int
    own: RowRange
    diag_block: CsrMatrix
    off_block: CsrMatrix
    ghost_cols: np.ndarray


@dataclass(frozen=True)
class ScatterPlan:
    """Matched send and receive lists for the ghost exchange.

    ``send[r]`` maps destination rank -> sorted global indices of entries
    rank ``r`` owns and must ship there; ``recv[r]`` maps source rank ->
    the same indices from the receiving side, which together are rank
    ``r``'s ``ghost_cols``. By construction ``send[r][q]`` equals
    ``recv[q][r]`` elementwise. Ranks share the input vector, so a rank
    fills its ghost buffer with one gather of ``x[ghost_cols]``; the plan
    sizes the messages whose latency the fabric charges.
    """

    nranks: int
    send: tuple
    recv: tuple

    def peers_out(self, rank: int) -> list[int]:
        """Destination ranks this rank sends to, ascending."""
        return sorted(self.send[rank])

    def peers_in(self, rank: int) -> list[int]:
        """Source ranks this rank receives from, ascending."""
        return sorted(self.recv[rank])


def decompose_rows(nrows: int, nranks: int, weights=None) -> list[RowRange]:
    """Contiguous, disjoint, covering row ranges, one per rank.

    Unweighted, the first ``nrows % nranks`` ranks get the extra row.
    With per-row weights (typically nonzero counts) the cuts come from
    the greedy nonzero partitioner instead. More ranks than rows is
    legal and yields empty trailing ranges.
    """
    if nranks < 1:
        raise ValueError(f"rank count must be >= 1, got {nranks}")
    if nrows < 0:
        raise ValueError(f"row count must be >= 0, got {nrows}")
    if weights is None:
        part = equal_rows_partition(nrows, nranks)
    else:
        if len(weights) != nrows:
            raise ValueError(f"{len(weights)} weights for {nrows} rows")
        part = greedy_partition(weights, nranks)
    b = part.boundaries
    return [RowRange(b[r], b[r + 1]) for r in range(nranks)]


def _check_ranges(ranges, nrows: int) -> None:
    if not ranges:
        raise ValueError("empty decomposition")
    if ranges[0].begin != 0 or ranges[-1].end != nrows:
        raise ValueError(f"ranges do not cover [0, {nrows})")
    for a, b in zip(ranges, ranges[1:]):
        if a.end != b.begin:
            raise ValueError(
                f"ranges not contiguous/disjoint at [{a.begin},{a.end}) -> "
                f"[{b.begin},{b.end})")


def build_rank_layout(A: CsrMatrix, ranges, rank: int) -> RankLayout:
    """Split one rank's rows into diagonal and off-diagonal blocks.

    Entries (i, j) with both indices in the rank's own range land in the
    diagonal block; the rest go to the off-diagonal block with columns
    compacted through ``ghost_cols``. Per-row column order is preserved
    in both blocks, so reassembling all ranks' blocks reproduces the
    global matrix entry for entry. A rank with no off-diagonal entry
    shares ``A``'s arrays where it can.
    """
    _check_ranges(ranges, A.nrows)
    own = ranges[rank]
    lo, hi = own.begin, own.end
    p0, p1 = int(A.row_offsets[lo]), int(A.row_offsets[hi])
    cols = A.col_indices[p0:p1]
    vals = A.values[p0:p1]
    sub_offsets = A.row_offsets[lo:hi + 1] - p0
    in_diag = (cols >= lo) & (cols < hi)
    off_pos = np.flatnonzero(~in_diag)
    off_offsets = np.searchsorted(off_pos, sub_offsets)
    if len(off_pos):
        diag = CsrMatrix(own.nrows, own.nrows, sub_offsets - off_offsets,
                         cols[in_diag] - lo, vals[in_diag])
    else:
        diag = CsrMatrix(own.nrows, own.nrows, sub_offsets,
                         cols - lo if lo else cols, vals)

    off_cols_global = cols[off_pos]
    ghost_cols = np.unique(off_cols_global)
    off = CsrMatrix(own.nrows, len(ghost_cols), off_offsets,
                    np.searchsorted(ghost_cols, off_cols_global), vals[off_pos])
    ghost_cols.flags.writeable = False
    return RankLayout(rank, own, diag, off, ghost_cols)


def build_all_layouts(A: CsrMatrix, ranges) -> list[RankLayout]:
    return [build_rank_layout(A, ranges, r) for r in range(len(ranges))]


def build_scatter_plan(layouts) -> ScatterPlan:
    """Derive matched send/receive lists from all ranks' ghost columns.

    Index lists are sorted ascending so the wire order is deterministic.

    Raises
    ------
    ValueError
        If some ghost column is owned by no rank (possible only when the
        matrix has more columns than rows).
    """
    nranks = len(layouts)
    begins = np.array([lay.own.begin for lay in layouts], dtype=np.int64)
    ends = np.array([lay.own.end for lay in layouts], dtype=np.int64)
    send: list[dict] = [dict() for _ in range(nranks)]
    recv: list[dict] = [dict() for _ in range(nranks)]
    for lay in layouts:
        r = lay.rank
        ghosts = lay.ghost_cols
        if len(ghosts) == 0:
            continue
        # Owner of column g is the unique rank with begin <= g < end;
        # empty ranges never match because begin == end for them.
        owner = np.searchsorted(ends, ghosts, side="right")
        bad = (owner >= nranks) | (ghosts < begins[np.minimum(owner, nranks - 1)])
        if np.any(bad):
            g = int(ghosts[np.flatnonzero(bad)[0]])
            raise ValueError(f"ghost column {g} of rank {r} is owned by no rank")
        for q in np.unique(owner):
            idx = ghosts[owner == q]
            idx.flags.writeable = False
            send[int(q)][r] = idx
            recv[r][int(q)] = idx
    return ScatterPlan(nranks, tuple(send), tuple(recv))


def two_phase_multiply(layouts, x: np.ndarray) -> np.ndarray:
    """Sequential reference of the distributed two-phase multiply.

    Each rank's rows run through the engine's two kernels, ``start_rows``
    on the diagonal block and then, once the rank's ghost values are
    gathered, ``finish_rows`` on the off-diagonal block, after each rank's
    input check. The kernels' scale is taken over the entries of ``x`` the
    rank reads. Row sums are correctly rounded, so the per-rank results
    equal ``spmv_serial`` bit for bit.
    """
    y = np.empty(layouts[-1].own.end)
    for lay in layouts:
        ghost = np.take(x, lay.ghost_cols)
        x_local, nrows = x[lay.own.begin:lay.own.end], lay.own.nrows
        check_products([(lay.diag_block, x_local), (lay.off_block, ghost)],
                       lay.own.begin)
        scale = vector_scale(np.append(x_local[lay.diag_block.col_indices], ghost))
        sums = RowSums(lay.diag_block, lay.off_block)
        start_rows(sums, 0, nrows, x_local, scale, y, lay.own.begin)
        finish_rows(sums, 0, nrows, x_local, ghost, scale, y, lay.own.begin)
    return y
