"""A numeric-CSV reader's outcome with numpy's parser allowed, and with the row scan forced.

``fileio.read_numeric_csv`` returns numpy's array only when it holds what
the row scan would return; these helpers check that on a given file.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from fairhrv import fileio


def outcome(read, path):
    """``read(path)`` with every array as its dtype, shape and bytes; or the ValueError's message."""
    try:
        return _bits(read(path))
    except ValueError as exc:
        return str(exc)


def fast_and_scan(read, path):
    """(outcome as read, outcome with the scan forced, whether the scan ran as read)."""
    with mock.patch.object(fileio, "_scan_numeric_rows", wraps=fileio._scan_numeric_rows) as scan:
        got = outcome(read, path)
    with mock.patch.object(fileio, "_parses_as_scan", return_value=False):
        want = outcome(read, path)
    return got, want, scan.called


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    return value


# Texts of one value on which numpy's parser and the row scan once disagreed,
# or might, each with what the readers make of it: the float it reads as,
# or the end of the error that names its line.
NOT_A_NUMBER = "not a number"  # the reader's own "<column> is <text>, not a ... number"
DIVERGENT_VALUES = [
    pytest.param("\x1c0.5", NOT_A_NUMBER, id="0x1C before"),
    pytest.param("0.5\x1c", NOT_A_NUMBER, id="0x1C after"),
    pytest.param("\x1f0.5", NOT_A_NUMBER, id="0x1F before"),
    pytest.param("0.5\x1f", NOT_A_NUMBER, id="0x1F after"),
    pytest.param("0" * 131_070 + "0.5", "field larger than field limit (131072)", id="131073 characters"),
    pytest.param("1_000", 1000.0, id="underscore"),
    pytest.param("nan", NOT_A_NUMBER, id="nan"),
    pytest.param("inf", NOT_A_NUMBER, id="inf"),
]
