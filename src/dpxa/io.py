"""Headered-CSV and JSON readers/writers shared by the CLI and experiments.

A series CSV is read as UTF-8, with or without a leading byte-order mark.
Its bytes are read into memory once. The header goes through ``csv`` and
the body is parsed in one C pass by ``np.loadtxt``. For a regular file
``np.loadtxt`` is given the path, which it reads in chunks, skipping the
physical lines the header took; an open handle it would read line by
line. A named pipe cannot be read twice, and numpy opens a path ending in
``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` through a decompressor, so those
inputs are parsed from the bytes in memory. A row-by-row ``csv`` loop over
those bytes runs only where the one pass fails or finds the wrong shape,
and on files that may hold a field over the ``csv`` field limit, which
only the loop refuses: it accepts the few cells ``float`` takes and the
one-pass parser refuses (quoted or ``1_000`` cells) and words every error
with its line number, so both paths accept the same files with the same
values.

All numeric output uses 12 significant digits; JSON keys are sorted so
identical results serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import IngestionError

# suffixes of the files numpy opens through a decompressor (the openers of
# numpy.lib._datasource); such a file is parsed from the bytes read here
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# ASCII separators that np.loadtxt strips from around a number and float()
# does not; a file holding one is parsed by the row loop
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def fmt(value: float) -> str:
    return format(float(value), ".12g")


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _may_exceed_field_limit(data: bytes) -> bool:
    """Whether some aligned block of half the ``csv`` field limit holds no
    line break. A field over the limit spans such a block, and a clean body
    has a break near the start of every block, so the check reads little
    more than one line per block."""
    step = max(1, csv.field_size_limit() // 2)
    return any(data.find(b"\n", i, i + step) < 0
               and data.find(b"\r", i, i + step) < 0
               for i in range(0, len(data) - step + 1, step))


def read_series_csv(path) -> dict[str, np.ndarray]:
    """Parse a headered numeric CSV into an ordered {column: array} map."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    by_path = path.is_file() and path.suffix not in _COMPRESSED
    one_pass = not (any(sep in data for sep in _SEPARATORS)
                    or _may_exceed_field_limit(data))
    # read once into memory, so a pipe works too and the body can be re-read
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                              newline="")
    try:
        with handle:
            header, lines = _read_header(path, handle)
            body = handle.tell()
            source, skip = (str(path), lines) if by_path else (handle, 0)
            table = _load_table(source, len(header), skip) if one_pass \
                else None
            if table is None:
                handle.seek(body)
                return _read_rows(path, handle, header)
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path} is not UTF-8 text: {exc.reason}") \
            from None
    return dict(zip(header, np.ascontiguousarray(table.T)))


def _csv_rows(path: Path, lines, first: int):
    """``csv`` rows of ``lines``, whose first line is line ``first`` of the
    file; a ``csv`` error (a field over its size limit) names the line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestionError(
            f"{path} line {first + reader.line_num - 1}: {exc}") from None


def _read_header(path: Path, handle) -> tuple[list[str], int]:
    """The header's names and the number of physical lines they took,
    counted from the reads: ``tell()`` is an opaque cookie, not an
    offset."""
    lines = 0

    # readline, not the handle's iterator, so that tell() still works
    def readline():
        nonlocal lines
        line = handle.readline()
        lines += bool(line)
        return line

    try:
        header = next(_csv_rows(path, iter(readline, ""), 1))
    except StopIteration:
        raise IngestionError(f"{path} is empty") from None
    header = [name.strip() for name in header]
    if all(_looks_numeric(name) for name in header):
        raise IngestionError(
            f"{path} has no header row (first line is all numeric)"
        )
    if len(set(header)) != len(header):
        raise IngestionError(f"{path} has duplicate column names")
    return header, lines


def _load_table(source, width: int, skip: int) -> np.ndarray | None:
    """Every body cell, after the first ``skip`` lines of ``source`` (a
    path or an open handle), as a (rows, width) array, or None when the
    row loop must decide (a cell the one-pass parser refuses, a ragged or
    empty body)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            table = np.loadtxt(source, delimiter=",", comments=None, ndmin=2,
                               dtype=float, encoding="utf-8-sig",
                               skiprows=skip)
        except ValueError:
            # a UnicodeDecodeError too: the row loop meets it again
            return None
    if table.shape[0] == 0 or table.shape[1] != width:
        return None
    return table


def _read_rows(path: Path, handle, header: list[str]) -> dict[str, np.ndarray]:
    columns: list[list[float]] = [[] for _ in header]
    for line_no, row in enumerate(_csv_rows(path, handle, 2), start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise IngestionError(
                f"{path} line {line_no}: expected {len(header)} cells, "
                f"got {len(row)}"
            )
        for name, cell, col in zip(header, row, columns):
            try:
                col.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path} line {line_no}: non-numeric value {cell!r} "
                    f"in column {name!r}"
                ) from None
    if not columns[0]:
        raise IngestionError(f"{path} has a header but no data rows")
    return {name: np.asarray(col) for name, col in zip(header, columns)}


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if math.isnan(float(value)):
        return ""
    return fmt(value)


def write_table_csv(path, header: list[str], rows) -> None:
    """Rows of mixed str/number cells; numbers get the 12-digit format and
    NaN becomes an empty cell. A row of numbers none of which is NaN is
    formatted by one ``str.format`` call per row, which writes the bytes
    ``csv.writer`` would: no formatted number needs quoting. A str cell
    fails the call and a NaN formats as "nan"; those rows, and any other
    the call refuses, go through ``csv.writer``."""
    lines = {}
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            line = lines.get(len(row))
            if line is None:
                line = lines[len(row)] = ",".join(["{:.12g}"] * len(row)) \
                    + "\r\n"
            try:
                text = line.format(*row)
            except (TypeError, ValueError):
                text = "nan"
            if "nan" in text:
                writer.writerow([_cell(cell) for cell in row])
            else:
                handle.write(text)


def jsonable(obj):
    """Recursively convert to JSON-safe types; floats rounded to 12
    significant digits, NaN mapped to null."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(fmt(value))
    return obj


def write_json(path, obj) -> None:
    text = json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
