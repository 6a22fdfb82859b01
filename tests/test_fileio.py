"""fileio: read_numeric_csv returns what its row scan returns, in bits or in message, whatever the table;
every reader reads a file with a leading byte-order mark as without it; a failed atomic write leaves no trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhrv import dataset, fileio, hrv_features
from reader_outcome import fast_and_scan, outcome

PADS = ["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0"]
NUMBERS = st.one_of(
    st.floats().map(repr),  # with nan, inf and -inf
    st.integers(-5, 30).map(str),
    st.sampled_from(["1e400", "-1e400", "1e308", "-1.7976931348623157e308", "-0.0", ".5", "1.", "1_000", "1__0",
                     "_1", "0x10", "zz", "", "1.5e", "+inf", "nan(1)"]),
)
FIELDS = st.one_of(
    NUMBERS,
    st.tuples(st.sampled_from(PADS), NUMBERS, st.sampled_from(PADS)).map("".join),
    # quoted, with a line break inside or not
    st.tuples(NUMBERS, st.sampled_from(["", "\n", "\r\n", "\r"])).map(lambda t: f'"{t[0]}{t[1]}"'),
)


@st.composite
def tables(draw):
    """(file bytes, columns, number of leading int() columns, positive) of a small headed table."""
    width = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 1))
    columns = tuple(f"c{k}" for k in range(width))
    lines = [",".join(columns + ("extra",) * extra)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
        # now and then a row of another width
        row_width = width + extra + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(FIELDS) for _ in range(max(row_width, 1))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text.encode(), columns, draw(st.integers(0, min(width, 1))), draw(st.booleans())


@given(tables())
@settings(max_examples=400, deadline=None)
def test_numpy_path_gives_what_the_scan_gives(tmp_path_factory, table):
    data, columns, converters, positive = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(data)
    got, want, _ = fast_and_scan(
        lambda p: fileio.read_numeric_csv(p, columns, converters=(int,) * converters, positive=positive), path)
    assert got == want


@pytest.mark.parametrize("run", [(1 << 16) - 1, (1 << 17) - 1])
def test_a_64_kib_aligned_block_without_a_newline_goes_to_the_scan(tmp_path, run):
    # a newline-free run of 2 x 64 KiB - 1 bytes holds an aligned block wherever it starts
    path = tmp_path / "t.csv"
    path.write_text("c\n" + ("1" * run + "\n") * 3)
    assert fileio._parses_as_scan(path) == (run < 1 << 16)


def _windows_csv(path):
    features = np.random.default_rng(0).normal(size=(2, dataset.WINDOW_STEPS, dataset.N_FEATURES))
    dataset.write_windows_csv(path, ["s0", "s1"], ["p0", "p1"], features)


BOM_READERS = {
    "windows": (_windows_csv, dataset.read_windows_csv),
    "labels": (lambda p: p.write_text("sample_id,anxiety\ns0,1\ns1,0\n"),
               lambda p: dataset.read_outcomes_csv(p, dataset.LABELS_HEADER, "label")),
    "predictions": (lambda p: p.write_text("sample_id,prediction,probability\ns0,1,0.75\ns1,0,0.125\n"),
                    lambda p: dataset.read_outcomes_csv(p, dataset.PREDICTIONS_HEADER, "prediction")),
    "demographics": (lambda p: p.write_text("participant_id,group\np0,a\np1,b\n"), dataset._read_demographics_csv),
    "ecg": (lambda p: p.write_text("t_seconds,voltage\n" + "".join(f"{k / 10},{k % 7 / 10}\n" for k in range(30))),
            hrv_features.read_ecg_csv),
    "nni": (lambda p: p.write_text("interval_ms\n800\n812.5\n790\n"), hrv_features.read_nni_csv),
}


@pytest.mark.parametrize("name", list(BOM_READERS))
def test_a_leading_byte_order_mark_reads_as_without_it(tmp_path, name):
    write, read = BOM_READERS[name]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = outcome(read, plain)
    assert not isinstance(want, str), want
    # read as it is, and with the row scan forced
    got, scanned, _ = fast_and_scan(read, marked)
    assert got == scanned == want


def test_a_failed_atomic_write_keeps_the_destination_and_leaves_no_temp_file(tmp_path, monkeypatch):
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(fileio.os, "replace", fail)
    for path in (kept, absent):
        with pytest.raises(OSError, match="^replace failed$"):
            fileio.atomic_write_bytes(path, b"new\n")
    assert kept.read_bytes() == b"old\n"
    assert not absent.exists()
    assert list(tmp_path.glob("*.tmp")) == []
