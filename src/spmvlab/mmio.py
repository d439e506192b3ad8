"""Matrix Market coordinate-format reader and writer.

Supports ``real`` and ``integer`` fields with ``general`` or ``symmetric``
symmetry. Symmetric inputs are expanded to full storage on read. Values
are written with ``repr`` so that write -> read reproduces the exact CSR
arrays, bit for bit.

The writer's lines are exactly ``f"{i + 1} {j + 1} {v!r}\\n"``, built from
arrays: indices become digits by integer arithmetic, ``repr`` is called
once per distinct value (by bit pattern, so ``-0.0`` is not ``0.0``), and
each chunk of lines is laid out in a fixed-width buffer, padding deleted.

After the size line each non-blank line is one entry of three tokens:
two indices and a value, an integer in ``integer`` files, so ``1.0`` is
rejected there. The body is parsed in one ``np.loadtxt`` pass, whose rules
are those of Python's ``int()`` and ``float()`` but narrower: digit
separators (``1_000``), non-ASCII digits and integer values beyond int64
are rejected. An index beyond int64 is reported as out of bounds.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .sparse import CsrMatrix, SparseFormatError, csr_from_arrays

__all__ = ["read_matrix_market", "write_matrix_market"]

_BANNER = "%%MatrixMarket"
# Small enough that each chunk's buffers fit in memory the allocator freed
# from the chunk before, so writing does not fault in fresh pages chunk
# after chunk.
_WRITE_CHUNK = 1 << 13
# 0..9999 as four ASCII digits packed in one uint32: the first 10,000 words
# with leading zeros as NULs (a number's leading group), the next 10,000
# zero-padded (every later group).
_q = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGIT_GROUPS = np.concatenate([np.where(np.cumsum(_q, axis=1) > 0, _q + 48, 0),
                                _q + 48]).astype(np.uint8).view(np.uint32).ravel()
del _q


def read_matrix_market(source) -> CsrMatrix:
    """Parse a Matrix Market coordinate file into a CsrMatrix.

    ``source`` may be a path or an open text stream. One-based indices are
    converted to zero-based; for ``symmetric`` files every off-diagonal
    entry (i, j) is mirrored to (j, i).

    Raises
    ------
    SparseFormatError
        On a malformed or unsupported header, a malformed entry line, an
        index outside the declared bounds, or an entry count that
        disagrees with the size line. A per-line error names the first
        bad line in file order and takes precedence over the count.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as stream:
            return read_matrix_market(stream)
    header = source.readline()
    parts = header.split()
    if len(parts) != 5 or parts[0] != _BANNER:
        raise SparseFormatError(f"malformed header line: {header.strip()!r}")
    obj, fmt, field, symmetry = (p.lower() for p in parts[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise SparseFormatError(
            f"unsupported object/format {obj!r}/{fmt!r}; "
            "only 'matrix coordinate' is handled")
    if field not in ("real", "integer"):
        raise SparseFormatError(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise SparseFormatError(f"unsupported symmetry {symmetry!r}")

    size_line = next((s for s in map(str.strip, source)
                      if s and not s.startswith("%")), None)
    if size_line is None:
        raise SparseFormatError("missing size line")
    try:
        nrows, ncols, nnz = (int(t) for t in size_line.split())
    except ValueError:
        raise SparseFormatError(f"malformed size line: {size_line!r}") from None
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise SparseFormatError(f"negative size declaration: {size_line!r}")

    entries = _read_entries(source.read(), field, nrows, ncols)
    if len(entries) != nnz:
        raise SparseFormatError(
            f"size line declares {nnz} entries but file contains {len(entries)}")
    i, j, v = entries["i"] - 1, entries["j"] - 1, entries["v"]
    if symmetry == "symmetric":
        # each off-diagonal entry is followed by its mirror
        keep = np.column_stack([np.ones(len(i), dtype=bool), i != j])
        i, j = np.column_stack([i, j])[keep], np.column_stack([j, i])[keep]
        v = np.column_stack([v, v])[keep]
    return csr_from_arrays(i, j, v, nrows, ncols)


def _read_entries(body: str, field: str, nrows: int, ncols: int) -> np.ndarray:
    """The entry lines as one-based (i, j, v) records, parsed in one pass.

    On a parse or bounds failure the stripped lines are checked one by one
    in file order, so the error names the first bad line; if none breaks a
    per-line rule, numpy's message is raised.
    """
    dtype = [("i", np.int64), ("j", np.int64),
             ("v", np.float64 if field == "real" else np.int64)]
    if not body or body.isspace():
        return np.empty(0, dtype=dtype)
    try:
        # BytesIO shares the encoded body; StringIO copies it at 4 bytes a char
        entries = np.loadtxt(io.BytesIO(body.encode()), comments=None, ndmin=1,
                             dtype=dtype, encoding="utf-8")
    except ValueError as exc:
        error = str(exc)
    else:
        i, j = entries["i"], entries["j"]
        if not np.any((i < 1) | (i > nrows) | (j < 1) | (j > ncols)):
            return entries
        error = f"an entry lies outside declared {nrows}x{ncols} bounds"
    for s in filter(None, map(str.strip, io.StringIO(body))):
        try:
            i, j, value = s.split()
            i, j = int(i), int(j)
            (float if field == "real" else int)(value)
        except ValueError:
            raise SparseFormatError(f"malformed entry line: {s!r}") from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise SparseFormatError(
                f"entry ({i}, {j}) outside declared {nrows}x{ncols} bounds")
    raise SparseFormatError(error)


def write_matrix_market(A: CsrMatrix) -> str:
    """Render a CsrMatrix as Matrix Market coordinate/general text."""
    parts = [f"{_BANNER} matrix coordinate real general\n",
             f"{A.nrows} {A.ncols} {A.nnz}\n"]
    if not A.nnz:
        return "".join(parts)
    bits = A.values.view(np.int64)
    distinct, reprs = _value_lines(bits)
    # four-digit groups, as uint32 words, for the indices 1..nrows and 1..ncols
    row_words, col_words = (-(-len(str(n)) // 4) for n in A.shape)
    cols = row_words + 1
    vals = cols + col_words + 1
    offsets = A.row_offsets
    for lo in range(0, A.nnz, _WRITE_CHUNK):
        hi = min(lo + _WRITE_CHUNK, A.nnz)
        # one uint32 word per four bytes: row, space, column, space, value
        # and newline, with NUL padding that ``translate`` deletes
        line = np.empty((hi - lo, vals + reprs.shape[1]), np.uint32)
        first, last = np.searchsorted(offsets, [lo, hi - 1], side="right")
        labels = _digits(np.arange(first, last + 1), row_words)
        line[:, :row_words] = np.repeat(
            labels, np.diff(offsets[first - 1:last + 1].clip(lo, hi)), axis=0)
        line[:, cols:vals - 1] = _digits(A.col_indices[lo:hi] + 1, col_words)
        line[:, [cols - 1, vals - 1]] = ord(" ")
        line[:, vals:] = np.take(reprs, np.searchsorted(distinct, bits[lo:hi]), axis=0)
        parts.append(line.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _digits(k: np.ndarray, groups: int) -> np.ndarray:
    """The positive integers ``k`` in decimal, ``groups`` uint32 words each,
    NUL-padded on the left."""
    out = np.empty((len(k), groups), np.uint32)
    for g in range(groups):
        scale = 10000 ** (groups - 1 - g)
        q = k // scale
        if g:
            q = q % 10000 + 10000 * (k >= scale * 10000)
        out[:, g] = np.take(_DIGIT_GROUPS, q)
    return out


def _value_lines(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``bits`` (float64 bit patterns), sorted, and
    the ``repr`` of each plus a newline as a NUL-padded row of uint32 words."""
    ordered = np.sort(bits)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    # "[r0, r1, ...]": the list's repr formats every value in C, with no
    # str object per value; no repr of a float holds a comma or a space
    listed = repr(distinct.view(np.float64).tolist()).encode("ascii")
    commas = np.flatnonzero(np.frombuffer(listed, np.uint8) == ord(","))
    lengths = np.diff(np.concatenate(([-1], commas, [len(listed) - 1]))) - 2
    width = 4 * (lengths.max() // 4 + 1)
    table = np.zeros((len(distinct), width), np.uint8)
    table[np.arange(width) < lengths[:, None]] = np.frombuffer(
        listed[1:-1].translate(None, b", "), np.uint8)
    table[np.arange(len(distinct)), lengths] = ord("\n")
    return distinct, table.view(np.uint32)
