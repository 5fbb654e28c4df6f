"""The one-pass CSV body parse against the row-by-row loop it stands in for.

``read_series_csv`` parses the body with ``np.loadtxt`` and runs the ``csv``
row loop only where that fails. Forcing the loop on the same file must give
the same outcome: the same column names and bitwise-equal arrays, or the
same ``IngestionError`` message.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dpxa.io
from dpxa.errors import IngestionError
from dpxa.io import read_series_csv


def _outcome(path):
    try:
        columns = read_series_csv(path)
    except IngestionError as exc:
        return str(exc)
    return [(name, col.dtype.str, col.flags.c_contiguous, col.tobytes())
            for name, col in columns.items()]


def _one_pass_and_row_loop(path):
    one_pass = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpxa.io, "_load_table", lambda handle, width: None)
        row_loop = _outcome(path)
    return one_pass, row_loop


# (id, file text, first-column values or a fragment of the error message)
PINNED = [
    ("bom_header", "\ufeffx,y\n1,2\n", [1.0]),
    ("whitespace_only_line", "x,y\n1,2\n  \n3,4\n",
     "line 3: expected 2 cells, got 1"),
    ("blank_line", "x,y\n1,2\n\n3,4\n", [1.0, 3.0]),
    ("header_only", "x,y\n", "has a header but no data rows"),
    ("underscore", "x\n1_000\n", [1000.0]),
    ("quoted", 'x,y\n"1.5",2\n', [1.5]),
    ("spaces_around_cells", "x,y\n 1.5 , 2 \n", [1.5]),
    ("crlf", "x,y\r\n1,2\r\n3,4\r\n", [1.0, 3.0]),
    ("hash_line", "x,y\n# a,b\n1,2\n",
     "line 2: non-numeric value '# a' in column 'x'"),
    ("empty_cell", "x,y\n1,\n", "line 2: non-numeric value '' in column 'y'"),
    ("trailing_comma", "x,y\n1,2,\n", "line 2: expected 2 cells, got 3"),
    ("every_row_too_wide", "x\n1,2\n3,4\n", "line 2: expected 1 cells, got 2"),
    ("nan_inf", "x,y\nnan,inf\n-Infinity,NaN\n", [np.nan, -np.inf]),
    ("one_column", "x\n1\n2\n3\n", [1.0, 2.0, 3.0]),
    ("tab_before_comma", "x,y\n1\t,2\n", [1.0]),
    # float() keeps an ASCII unit separator, np.loadtxt strips it
    ("unit_separator", "x,y\n1\x1f,2\n",
     "line 2: non-numeric value '1\\x1f' in column 'x'"),
    # a cell over the csv field limit, alone and beside a quoted cell
    ("long_cell", "x\n1\n1." + "5" * 140_000 + "\n2\n",
     "line 3: field larger than field limit (131072)"),
    ("long_cell_and_quoted_cell", 'x\n"1"\n1.' + "5" * 140_000 + "\n2\n",
     "line 3: field larger than field limit (131072)"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,expected", [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_pinned_case_matches_row_loop(tmp_path, text, expected):
    path = tmp_path / "case.csv"
    path.write_text(text, encoding="utf-8", newline="")
    one_pass, row_loop = _one_pass_and_row_loop(path)
    assert one_pass == row_loop
    if isinstance(expected, str):
        assert isinstance(one_pass, str) and expected in one_pass
    else:
        np.testing.assert_array_equal(read_series_csv(path)["x"], expected)


def test_clean_file_skips_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "clean.csv"
    path.write_text("x,y\n1.5,-2\n3e-3,nan\n")

    def refuse(*args):
        raise AssertionError("row loop ran on a clean file")

    monkeypatch.setattr(dpxa.io, "_read_rows", refuse)
    columns = read_series_csv(path)
    assert list(columns) == ["x", "y"]
    np.testing.assert_array_equal(columns["y"], [-2.0, np.nan])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_pipe_is_read(tmp_path):
    # a pipe cannot seek, as with `dpxa analyze dfa <(zcat data.csv.gz)`
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=("x\n1\n 2\n",),
                              daemon=True)
    writer.start()
    try:
        columns = read_series_csv(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(columns["x"], [1.0, 2.0])


_finite = st.floats(allow_nan=False, allow_infinity=False)
_values = st.one_of(
    _finite.map(repr),
    _finite.map(lambda v: "%.12g" % v),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-Infinity", "-0.0",
                     "5e-324", "2.2250738585072014e-308", "1e308"]),
)
# cell rewrites and line edits; a file takes at most three, so most files
# stay clean and the one-pass parse is exercised, not only the fallback
_CELL_FORMS = [" {} ", "\t{}", "{}\u2003", "\x85{}", '"{}"', "1_0", "", "#{}",
               "{}\x1e"]
_LINES = {"blank": "", "whitespace": " \t", "comment": "# comment"}
_edits = st.sampled_from(_CELL_FORMS + ["extra", "missing", *_LINES])


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    rows = [[draw(_values) for _ in range(width)]
            for _ in range(draw(st.integers(0, 40)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        edit = draw(_edits)
        if edit in _LINES:
            rows.insert(at, [_LINES[edit]])
        elif at == len(rows) or not rows[at]:
            continue
        elif edit == "extra":
            rows[at].append(draw(_values))
        elif edit == "missing":
            rows[at].pop()
        else:
            cell = draw(st.integers(0, len(rows[at]) - 1))
            rows[at][cell] = edit.format(rows[at][cell])
    lines = [",".join("abcd"[:width])] + [",".join(cells) for cells in rows]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.booleans()) else ""
    return newline.join(lines) + end


@given(text=_csv_texts())
def test_one_pass_agrees_with_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    one_pass, row_loop = _one_pass_and_row_loop(path)
    assert one_pass == row_loop
