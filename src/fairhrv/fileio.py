"""Atomic file writes, the CSV codec of the interchange files, and artifact checksums."""

import csv
import hashlib
import json
import os
import tempfile
from pathlib import Path


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
    the header. Callers check the header.

    Raises:
        ValueError: naming the file and line, for a row of another width
            or a line the csv module refuses (such as a field over its size
            limit); naming the file and the byte offset of the first bad
            byte, for a file that is not UTF-8 text.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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


def write_csv(path, header, lines) -> None:
    """Atomically write the header fields, then ``lines``, each a formatted CSV row."""
    atomic_write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
