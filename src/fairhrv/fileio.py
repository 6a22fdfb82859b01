"""Atomic file writes, the CSV codec of the interchange files, and artifact checksums."""

import array
import csv
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, obj) -> None:
    """Serialize ``obj`` as deterministic JSON (sorted keys, no volatile fields)."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_csv(path):
    """Stream a headed CSV as (line number, fields) pairs.

    The header comes first, with the number of lines it spans (0 and
    ``[]`` for an empty file), then every non-blank row, each as wide as
    the header. Callers check the header. A leading UTF-8 byte-order mark,
    which spreadsheet "CSV UTF-8" exports write, is dropped.

    Raises:
        ValueError: naming the file and line, for a row of another width
            or a line the csv module refuses (such as a field over its size
            limit); naming the file and the byte offset of the first bad
            byte, for a file that is not UTF-8 text.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            yield reader.line_num, header
            width = len(header)
            for row in reader:
                if len(row) == width and row:
                    yield reader.line_num, row
                elif row:
                    raise ValueError(f"{path}, line {reader.line_num}: expected {width} columns, got {len(row)}")
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num or 1}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8_error(path) from None


def read_numeric_csv(path, columns, *, converters=(), positive=False, exact_header=False):
    """(rows, len(columns)) float64 array of the leading columns of a headed CSV, under one rule.

    The rule is the row scan's (``_scan_numeric_rows``): ``read_csv`` gives
    each non-blank row with its line, CRLF line endings and quoted fields
    accepted; the leading fields go through ``converters``, one callable
    each, and every further field in ``columns`` through ``float()``; and
    the first bad line raises. The header is ``columns`` with
    ``exact_header``, and otherwise any header at least as wide; rows are
    as wide as the header, and fields past ``columns`` are ignored. Every
    ``float()`` value must be finite, and with ``positive`` also > 0.

    The scan costs a Python call per value, so numpy's ``loadtxt`` parses
    the file first, in C and in large blocks, and its array is returned
    when it holds what the scan would. Only a file that numpy's parser
    splits and converts as the scan does goes to it (``_parses_as_scan``);
    any refusal, or a value that breaks the rule, leaves it to the scan.
    A converter returns a float64-exact number or an int (one past the
    float64 range is refused as bad text), raises ValueError on text it
    refuses, and numbers the same rows the same way when called on them
    again.

    Raises:
        ValueError: naming the file, and the line for a bad header, a row
            of another width, text a converter refuses or a value that is
            not a finite (positive) number; or the byte offset of the first
            bad byte, for a file that is not UTF-8 text.
    """
    rows = read_csv(path)
    _, header = next(rows)
    if header != list(columns) if exact_header else len(header) < len(columns):
        rows.close()
        raise ValueError(f"{path}, line 1: expected the header {','.join(columns)}")
    # loadtxt warns about a body without rows, so it never sees one
    try:
        empty = next(rows, None) is None
    except ValueError:  # a defect in the first row, which the scan names
        empty = False
    rows.close()
    if empty:
        return np.zeros((0, len(columns)))
    if _parses_as_scan(path):
        try:
            # Given a path, not an open file, loadtxt reads large blocks
            # instead of one line at a time. It also opens a path ending in
            # .gz, .bz2 or .xz as compressed, and then raises on plain text.
            # A header without quotes is one line.
            data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, encoding="utf-8", ndmin=2,
                              converters=dict(enumerate(converters)))
        except Exception:  # any refusal: the scan rereads the file and raises what applies
            data = None
        if data is not None and data.shape[1] == len(header):
            data = data[:, : len(columns)]
            values = data[:, len(converters) :]
            # A finite sum proves every value finite, without an array the size
            # of the rows. Values whose sum overflows go to the scan.
            with np.errstate(over="ignore", invalid="ignore"):
                total = values.sum()
            if math.isfinite(total) and (not positive or (values > 0).all()):
                return data
    return _scan_numeric_rows(path, columns, converters, positive)


# Byte marks of text that numpy's parser reads otherwise than the scan: a
# quote (a quoted field may span lines, and numpy turns a \r\n in it into
# \n) and the separator controls 0x1C-0x1F (numpy strips them from a
# number; float() refuses it).
_SCAN_ONLY_BYTES = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_GUARD_BLOCK = 1 << 20
_NEWLINE_SPAN = 1 << 16  # a newline in each such block keeps lines below 131,072 bytes, the csv field limit


def _parses_as_scan(path) -> bool:
    """Whether numpy's parser gives the rows and fields of ``read_csv`` for ``path``.

    True for a file with none of ``_SCAN_ONLY_BYTES`` and a newline in every
    whole 64 KiB-aligned block, so that no field can reach the csv
    module's limit. It reads 1 MB at a time, and never the whole file.
    """
    with open(path, "rb") as fh:
        while block := fh.read(_GUARD_BLOCK):
            if any(mark in block for mark in _SCAN_ONLY_BYTES):
                return False
            for start in range(0, len(block) - _NEWLINE_SPAN + 1, _NEWLINE_SPAN):
                if block.find(b"\n", start, start + _NEWLINE_SPAN) < 0:
                    return False
    return True


def _scan_numeric_rows(path, columns, converters, positive):
    """``read_numeric_csv`` row by row: one converter or ``float()`` call per value, raising at the first bad line."""
    requirement = "a positive finite number" if positive else "a finite number"
    rows = read_csv(path)
    next(rows)
    values = array.array("d")  # 8 bytes a value, not a float object each
    for line, row in rows:
        for convert, text in zip(converters, row):
            try:
                values.append(convert(text))
            except (ValueError, OverflowError) as exc:  # OverflowError: an int past the float64 range
                raise ValueError(f"{path}, line {line}: {exc}") from None
        for name, text in zip(columns[len(converters) :], row[len(converters) :]):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and (value > 0 or not positive)):
                raise ValueError(f"{path}, line {line}: {name} is {text!r}, not {requirement}")
            values.append(value)
    return np.frombuffer(values, dtype=np.float64).reshape(-1, len(columns))


def not_utf8_error(path) -> ValueError:
    """The error for a text file that is not UTF-8, naming it and its first bad byte.

    A decoder counts its offsets from the block it was handed, not from
    the start of the file, so the file is decoded again, whole.
    """
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return ValueError(f"{path}: not UTF-8 text (byte offset {exc.start})")
    return ValueError(f"{path}: not UTF-8 text")


def check_csv_name(what, name) -> None:
    """Reject a name, such as an id, that the CSV files it is written into unquoted could not read back."""
    if any(c in name for c in ',"\r\n'):
        raise ValueError(f"{what} {name!r} holds a comma, quote, CR or LF, which the CSV files cannot hold")


def write_csv(path, header, lines) -> None:
    """Atomically write the header fields, then ``lines``, each a formatted CSV row."""
    atomic_write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
