import io
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spmvlab
from spmvlab import (SparseFormatError, csr_from_triplets, extruded_laplacian,
                     read_matrix_market, write_matrix_market)

from helpers import csr_equal, identity_csr, random_spd_csr


def _read(text):
    return read_matrix_market(io.StringIO(text))


def test_read_general():
    A = _read("%%MatrixMarket matrix coordinate real general\n"
              "2 2 2\n"
              "1 1 1.0\n"
              "2 2 2.0\n")
    assert A.nrows == A.ncols == 2
    assert A.col_indices.tolist() == [0, 1]
    assert A.values.tolist() == [1.0, 2.0]


def test_read_symmetric_expands_mirror():
    A = _read("%%MatrixMarket matrix coordinate real symmetric\n"
              "2 2 1\n"
              "2 1 5.0\n")
    assert A.nnz == 2
    assert (1, 0, 5.0) in A.triplets()
    assert (0, 1, 5.0) in A.triplets()


def test_read_symmetric_diagonal_not_doubled():
    A = _read("%%MatrixMarket matrix coordinate real symmetric\n"
              "2 2 2\n"
              "1 1 3.0\n"
              "2 1 5.0\n")
    assert A.to_dense().tolist() == [[3.0, 5.0], [5.0, 0.0]]


def test_read_integer_field():
    A = _read("%%MatrixMarket matrix coordinate integer general\n"
              "1 1 1\n"
              "1 1 7\n")
    assert A.values.tolist() == [7.0]


def test_read_entry_count_mismatch():
    with pytest.raises(SparseFormatError, match="declares 3 entries but"):
        _read("%%MatrixMarket matrix coordinate real general\n"
              "2 2 3\n"
              "1 1 1.0\n"
              "2 2 2.0\n")


def test_read_index_out_of_bounds():
    with pytest.raises(SparseFormatError, match="outside declared"):
        _read("%%MatrixMarket matrix coordinate real general\n"
              "2 2 1\n"
              "3 1 1.0\n")


def test_read_rejects_unsupported_headers():
    with pytest.raises(SparseFormatError, match="malformed header"):
        _read("%%NotMatrixMarket whatever\n1 1 0\n")
    with pytest.raises(SparseFormatError, match="field"):
        _read("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(SparseFormatError, match="symmetry"):
        _read("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n")
    with pytest.raises(SparseFormatError, match="object/format"):
        _read("%%MatrixMarket matrix array real general\n1 1\n")


def test_read_comments_and_blank_lines_before_size():
    A = _read("%%MatrixMarket matrix coordinate real general\n"
              "% a comment\n"
              "\n"
              "1 1 1\n"
              "1 1 -2.5\n")
    assert A.values.tolist() == [-2.5]


def test_write_identity_two():
    text = write_matrix_market(identity_csr(2))
    lines = text.strip().split("\n")
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "2 2 2"
    assert lines[2:] == ["1 1 1.0", "2 2 1.0"]


def test_write_empty_matrix():
    text = write_matrix_market(csr_from_triplets([], 3, 3))
    assert text.strip().split("\n")[1] == "3 3 0"


def test_write_spans_chunks():
    A = extruded_laplacian(20, 20, 25)  # 67,200 entries: 17 write chunks
    rows = np.repeat(np.arange(A.nrows), A.row_nnz())
    text = write_matrix_market(A)
    assert text.split("\n", 2)[2] == "".join(
        f"{i + 1} {j + 1} {v!r}\n"
        for i, j, v in zip(rows.tolist(), A.col_indices.tolist(), A.values.tolist()))
    assert csr_equal(A, _read(text))


def test_write_reuses_its_memory_from_chunk_to_chunk():
    # a fresh interpreter, whose allocator state no other test has touched
    src = str(Path(spmvlab.__file__).resolve().parents[1])
    code = (f"import resource, sys; sys.path.insert(0, {src!r})\n"
            "from spmvlab import extruded_laplacian, write_matrix_market\n"
            "A = extruded_laplacian(20, 20, 25)\n"
            "write_matrix_market(A)\n"
            "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "text = write_matrix_market(A)\n"
            "f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(f1 - f0, len(text))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    faults, size = map(int, run.stdout.split())
    # the text and its row indices need fresh pages; the per-entry objects,
    # which the allocator frees and reuses chunk after chunk, should not
    assert faults < 4 * size / 4096


def test_round_trip_random_20x20_exact():
    rng = np.random.default_rng(20)
    A = random_spd_csr(rng, 20, 0.2)
    B = _read(write_matrix_market(A))
    assert csr_equal(A, B)


def test_round_trip_awkward_values():
    vals = [0.1, 1e-300, -1e300, 1 / 3, 7.0, -0.0]
    A = csr_from_triplets([(i, i, v) for i, v in enumerate(vals)], 6, 6)
    B = _read(write_matrix_market(A))
    assert csr_equal(A, B)


def test_read_from_path(tmp_path):
    p = tmp_path / "m.mtx"
    A = identity_csr(4)
    p.write_text(write_matrix_market(A))
    assert csr_equal(A, read_matrix_market(p))


_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("line", ["1   1", "1 1 1.0  7", "1 1 abc", "% a  comment"])
def test_read_malformed_entry_line_quotes_stripped_line(line):
    with pytest.raises(SparseFormatError,
                       match=re.escape(f"malformed entry line: {line!r}")):
        _read(_GENERAL + "2 2 2\n1 1 1.0\n  " + line + " \t\n")


def test_read_integer_field_rejects_fraction():
    with pytest.raises(SparseFormatError,
                       match=re.escape("malformed entry line: '1 1 1.0'")):
        _read("%%MatrixMarket matrix coordinate integer general\n"
              "1 1 1\n"
              "1 1 1.0\n")


def test_read_skips_blank_lines_and_crlf():
    text = (_GENERAL.replace("\n", "\r\n") + "2 2 2\r\n\r\n"
            "1 1 1.5\r\n   \r\n\t\n2 2 -2.0\r\n\r\n")
    A = _read(text)
    assert A.to_dense().tolist() == [[1.5, 0.0], [0.0, -2.0]]
    with pytest.raises(SparseFormatError, match="declares 3 entries but file contains 2"):
        _read(text.replace("2 2 2\r\n", "2 2 3\r\n", 1))


def test_read_crlf_file_from_path(tmp_path):
    p = tmp_path / "crlf.mtx"
    p.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\r\n"
                  b"2 2 2\r\n1 1 3.0\r\n\r\n2 1 5.0\r\n")
    assert read_matrix_market(p).to_dense().tolist() == [[3.0, 5.0], [5.0, 0.0]]


def test_read_first_defect_in_file_order_wins():
    with pytest.raises(SparseFormatError, match=re.escape("entry (3, 1) outside declared")):
        _read(_GENERAL + "2 2 3\n1 1 1.0\n3 1 1.0\n1 x 1.0\n")
    with pytest.raises(SparseFormatError, match=re.escape("malformed entry line: '1 x 1.0'")):
        _read(_GENERAL + "2 2 3\n1 1 1.0\n1 x 1.0\n3 1 1.0\n")
    with pytest.raises(SparseFormatError, match=re.escape("entry (1, 3) outside declared")):
        _read(_GENERAL + "2 2 5\n1 1 1.0\n1 3 1.0\n")
    with pytest.raises(SparseFormatError, match="malformed entry line"):
        _read(_GENERAL + "2 2 1\n1 1 1.0\n2 2\n")


def test_read_huge_index_is_out_of_bounds():
    with pytest.raises(SparseFormatError,
                       match=re.escape("entry (1, 12345678901234567890) outside declared")):
        _read(_GENERAL + "2 2 1\n1 12345678901234567890 1.0\n")


def test_read_rejects_tokens_only_python_parses():
    # Python's int() and float() accept digit separators and integers of any
    # size; the reader's parser does not.
    with pytest.raises(SparseFormatError, match="1_000"):
        _read(_GENERAL + "1 1 1\n1 1 1_000\n")
    with pytest.raises(SparseFormatError, match="99999999999999999999"):
        _read("%%MatrixMarket matrix coordinate integer general\n"
              "1 1 1\n1 1 99999999999999999999\n")


@pytest.mark.parametrize("tail", ["", "\n", "\n\n  \n"])
def test_read_no_entries_is_empty_and_silent(tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = _read(_GENERAL + "3 2 0\n" + tail)
    assert A.shape == (3, 2) and A.nnz == 0
    assert A.row_offsets.tolist() == [0, 0, 0, 0]


_EDGE_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                2.2250738585072014e-308, 1.7976931348623157e308,
                                0.1, 1 / 3])
_VALUES = st.one_of(_EDGE_VALUES, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_round_trip_general_bit_exact(nrows, ncols, data):
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), _VALUES))
    A = csr_from_triplets([(i, j, v) for (i, j), v in entries.items()], nrows, ncols)
    assert csr_equal(A, _read(write_matrix_market(A)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_round_trip_symmetric_bit_exact(n, data):
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ij: ij[0] >= ij[1]), _VALUES))
    text = (f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(entries)}\n"
            + "".join(f"{i + 1} {j + 1} {v!r}\n" for (i, j), v in entries.items()))
    mirrored = {(j, i): v for (i, j), v in entries.items()} | entries
    expected = csr_from_triplets([(i, j, v) for (i, j), v in mirrored.items()], n, n)
    assert csr_equal(_read(text), expected)
