"""CLI tests: artifacts, exit codes, manifests, and reproducibility."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairhrv import hrv_features, mitigation
from fairhrv.checkpoint_io import save_checkpoint
from fairhrv.cli import build_parser, main
from fairhrv.dataset import WINDOWS_HEADER, _format_windows
from fairhrv.hrv_features import extract_features, write_features_csv
from fairhrv.nnet import ModelArch, init_params
from peak_memory import peak_mb
from test_hrv_features import synthetic_ecg

# every model command's training flags, then the three that only the proposed model (mitigate, compare) takes
FAST_TRAIN = ["--epochs", "4", "--lstm-hidden", "6", "--dense-size", "4", "--batch-size", "16"]
FAST_PROPOSED = ["--ckpt-every", "2", "--loss-weights", "4.5,0.5", "--mc-passes", "4"]


def fast_train(command) -> list:
    """The fast training flags that ``command`` takes."""
    return [*FAST_TRAIN, *FAST_PROPOSED] if command in ("mitigate", "compare") else FAST_TRAIN


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--n", "60", "--bias", "0.8", "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def base_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main([
        "train-base", *data_args(synth_dir), "--protected", "group",
        *FAST_TRAIN, "--seed", "5", "--out", str(out),
    ]) == 0
    return out


# One field over the csv module's 131,072-character limit; tests write "<huge>" for it.
HUGE_FIELD = "9" * 131_073
PREDICTIONS_HEADER = "sample_id,prediction,probability\n"


def write_test_file(path, text) -> int:
    """Write ``text`` as UTF-8 with "<huge>" expanded and "<ff>" as the byte 0xff.

    Returns the offset of that byte, or -1 when there is none.
    """
    data = text.replace("<huge>", HUGE_FIELD).encode().replace(b"<ff>", b"\xff")
    path.write_bytes(data)
    return data.find(b"\xff")


def not_utf8(path, offset) -> str:
    return f"error: {path}: not UTF-8 text (byte offset {offset})"


TESTS = Path(__file__).resolve().parent


def source_env():
    """The environment with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    src = str(TESTS.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def data_args(synth_dir):
    return [
        "--windows", str(synth_dir / "windows.csv"),
        "--labels", str(synth_dir / "labels.csv"),
        "--demo", str(synth_dir / "demographics.csv"),
    ]


class TestSynth:
    def test_artifacts_written(self, synth_dir):
        for name in ("windows.csv", "labels.csv", "demographics.csv", "catalog.json", "manifest.json"):
            assert (synth_dir / name).exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert set(manifest["artifacts"]) == {
            "windows.csv", "labels.csv", "demographics.csv", "catalog.json"
        }

    def test_reproducible(self, synth_dir, tmp_path):
        other = tmp_path / "again"
        assert main(["synth", "--n", "60", "--bias", "0.8", "--seed", "3", "--out", str(other)]) == 0
        for name in ("windows.csv", "labels.csv", "demographics.csv", "catalog.json"):
            assert (other / name).read_bytes() == (synth_dir / name).read_bytes()


    @pytest.mark.parametrize("attribute", ["a,b", 'a"b', "a\nb", "a\rb", "participant_id"])
    def test_attribute_the_demographics_file_cannot_hold_exits_1(self, tmp_path, capsys, attribute):
        out = tmp_path / "synth"
        assert main(["synth", "--n", "40", "--bias", "0.5", "--attribute", attribute, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --attribute "), err
        assert not out.exists()


class TestAudit:
    def test_dataset_level(self, synth_dir, tmp_path):
        out = tmp_path / "audit"
        code = main(["audit", *data_args(synth_dir), "--protected", "group", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["attribute"] == "group"
        assert report["bounds"] == [0.8, 1.2]
        assert report["accuracy"] is None

    def test_missing_labels_file_exits_1(self, synth_dir, tmp_path, capsys):
        code = main([
            "audit", "--windows", str(synth_dir / "windows.csv"),
            "--labels", str(synth_dir / "nope.csv"),
            "--demo", str(synth_dir / "demographics.csv"),
            "--protected", "group", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, synth_dir, tmp_path, capsys):
        code = main(["audit", *data_args(synth_dir), "--protected", "group",
                     "--out", str(tmp_path / "y"), "--frobnicate"])
        assert code == 2

    def test_predictions_audit_equals_train_base_metrics(self, synth_dir, base_dir, tmp_path):
        # the audit and the model command build their report with one builder
        out = tmp_path / "audit"
        code = main(["audit", *data_args(synth_dir), "--protected", "group",
                     "--predictions", str(base_dir / "predictions.csv"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report == json.loads((base_dir / "metrics.json").read_text())["metrics"]

    @pytest.mark.parametrize("text,where,message", [
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000\n", ", line 3", "expected 3 columns, got 1"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000,1,0.9,extra\n", ", line 3", "expected 3 columns, got 4"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000,yes,0.9\n", ", line 3", "prediction 'yes' is not an integer"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000,2,0.9\n", ", line 3", "prediction 2 is not 0 or 1"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000001,1,0.9\n", ", line 3", "repeats sample 's000001'"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000,1,<huge>\n", ", line 3",
         "field larger than field limit (131072)"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000,1,abc\n", ", line 3",
         "probability 'abc' is not a finite number in [0, 1]"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns000000,1,\n", ", line 3",
         "probability '' is not a finite number in [0, 1]"),
        (PREDICTIONS_HEADER + "s000001,0,nan\n", ", line 2", "probability 'nan' is not a finite number in [0, 1]"),
        (PREDICTIONS_HEADER + "s000001,0,inf\n", ", line 2", "probability 'inf' is not a finite number in [0, 1]"),
        (PREDICTIONS_HEADER + "s000001,0,-0.1\n", ", line 2", "probability '-0.1' is not a finite number in [0, 1]"),
        (PREDICTIONS_HEADER + "s000001,1,1.5\n", ", line 2", "probability '1.5' is not a finite number in [0, 1]"),
        ("s000001,0,0.1\ns000000,1,0.9\n", ", line 1", "expected the header sample_id,prediction,probability"),
        ("", ", line 1", "expected the header sample_id,prediction,probability"),
        (PREDICTIONS_HEADER, "", "no predictions after the header"),
        (PREDICTIONS_HEADER + "s000001,0,0.1\ns0<ff>0000,1,0.9\n", "", "not UTF-8 text (byte offset 49)"),
    ], ids=["short row", "long row", "non-integer", "not binary", "repeated", "huge field", "probability text",
            "probability empty", "probability nan", "probability inf", "probability below 0", "probability above 1",
            "no header", "empty", "header only", "non-utf-8"])
    def test_malformed_prediction_row_exits_1_naming_file_and_line(
        self, synth_dir, tmp_path, capsys, text, where, message
    ):
        preds = tmp_path / "preds.csv"
        write_test_file(preds, text)
        code = main(["audit", *data_args(synth_dir), "--protected", "group",
                     "--predictions", str(preds), "--out", str(tmp_path / "a")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {preds}{where}: {message}"]

    def test_prediction_for_unknown_sample_exits_1(self, synth_dir, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("sample_id,prediction,probability\ns000000,1,0.9\nnosuch,0,0.1\n")
        code = main(["audit", *data_args(synth_dir), "--protected", "group",
                     "--predictions", str(preds), "--out", str(tmp_path / "a")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'nosuch'" in err[0]


class TestExtract:
    def test_nni_to_features_and_windows(self, tmp_path):
        rng = np.random.default_rng(0)
        intervals = rng.uniform(700, 900, size=800)
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n" + "\n".join(f"{v:.3f}" for v in intervals) + "\n")
        out = tmp_path / "extract"
        code = main([
            "extract", "--nni", str(nni_csv), "--segment-seconds", "20",
            "--steps", "24", "--participant", "p0001", "--out", str(out),
        ])
        assert code == 0
        features = (out / "features.csv").read_text().splitlines()
        assert len(features) > 24  # enough segments for at least one window
        windows = (out / "windows.csv").read_text().splitlines()
        assert windows[0].startswith("sample_id,participant_id,step,mean_nni")
        assert len(windows) == 1 + 24 * ((len(features) - 1) // 24)

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        code = main(["extract", "--out", str(tmp_path / "z")])
        assert code == 1

    @pytest.mark.parametrize("steps", ["0", "5"])
    def test_steps_other_than_window_length_rejected_before_reading(self, tmp_path, capsys, steps):
        out = tmp_path / "ext"
        code = main(["extract", "--nni", str(tmp_path / "absent.csv"), "--steps", steps,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --steps must be 24")
        assert not out.exists()


    @pytest.mark.parametrize("participant", ["x,y", 'x"y', "x\ny", "x\ry"])
    def test_participant_the_windows_file_cannot_hold_exits_1(self, tmp_path, capsys, participant):
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n" + "800.0\n" * 100)
        out = tmp_path / "ext"
        assert main(["extract", "--nni", str(nni_csv), "--participant", participant, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --participant "), err
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["0", "-5", "nan", "inf", "-inf"])
    def test_segment_length_not_finite_positive_rejected_before_reading(self, tmp_path, capsys, seconds):
        out = tmp_path / "ext"
        code = main(["extract", "--nni", str(tmp_path / "absent.csv"), f"--segment-seconds={seconds}",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --segment-seconds must be finite and positive"), err
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["2.5", "4", "7.3", "20", "1e6"])
    def test_segments_are_the_intervals_ending_in_each_length(self, tmp_path, seconds):
        intervals = np.random.default_rng(1).uniform(500, 1100, size=400)
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n" + "\n".join(map(repr, intervals.tolist())) + "\n")
        out = tmp_path / "ext"
        assert main(["extract", "--nni", str(nni_csv), "--segment-seconds", seconds, "--out", str(out)]) == 0
        # one mask per segment id, empty segments included
        ids = (np.cumsum(intervals) / 1000.0 // float(seconds)).astype(int)
        rows = [extract_features(intervals[ids == seg]) for seg in range(ids[-1] + 1)
                if np.sum(ids == seg) >= 2]
        want = tmp_path / "want.csv"
        write_features_csv(want, np.stack(rows))
        assert (out / "features.csv").read_bytes() == want.read_bytes()

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning means an out-of-range interval got through
    def test_nni_outside_the_detector_range_is_dropped_with_a_note(self, tmp_path, capsys, monkeypatch):
        intervals = np.random.default_rng(4).uniform(700, 900, size=800).tolist()
        kept = tmp_path / "kept.csv"
        kept.write_text("interval_ms\n" + "".join(f"{v!r}\n" for v in intervals))
        for at, value in ((10, 100.0), (300, hrv_features.MAX_NN_MS + 1e-9), (400, 1e300)):
            intervals.insert(at, value)
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n" + "".join(f"{v!r}\n" for v in intervals))
        longest = []
        extract = hrv_features.extract_features
        monkeypatch.setattr(hrv_features, "extract_features",
                            lambda nni: longest.append(nni.max()) or extract(nni))
        assert main(["extract", "--nni", str(nni_csv), "--segment-seconds", "20", "--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"note: {nni_csv}: dropped 3 of 803 intervals outside [250, 3000] ms"]
        assert longest and max(longest) <= hrv_features.MAX_NN_MS
        # the same features as a file without the three
        assert main(["extract", "--nni", str(kept), "--segment-seconds", "20", "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == ""
        for name in ("features.csv", "windows.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_nni_wholly_outside_the_detector_range_exits_1(self, tmp_path, capsys):
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n5000\n100\n1e300\n")
        out = tmp_path / "out"
        assert main(["extract", "--nni", str(nni_csv), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {nni_csv}: every interval lies outside [250, 3000] ms"]
        assert not out.exists()

    def test_tiny_segment_length_finishes(self, tmp_path):
        # 2,000 intervals span about 1.6e12 segments of 1e-9 s; one pass over the intervals splits them
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n" + "800.0\n" * 2000)
        done = subprocess.run([sys.executable, "-m", "fairhrv.cli", "extract", "--nni", str(nni_csv),
                               "--segment-seconds", "1e-9", "--out", str(tmp_path / "ext")],
                              env=source_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        err = done.stderr.strip().splitlines()
        assert err == ["note: 2000 of 2000 segment(s) had fewer than 2 intervals; skipped",
                       "error: no segment had enough intervals for feature extraction"], err


def _ecg_lines(seconds=3, fs=250, offset=0.0):
    """Header plus a unit-impulse train at 1 Hz on a baseline of ``offset``, one row per sample."""
    return ["t_seconds,voltage"] + [f"{i / fs:.3f},{offset + (1.0 if i % fs == 0 else 0.0)}"
                                    for i in range(seconds * fs)]


def _extract_ecg(tmp_path, name, lines):
    """Exit code of ``extract --ecg`` over ``lines`` in 10 s segments, and the features.csv bytes or None."""
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / name
    code = main(["extract", "--ecg", str(path), "--segment-seconds", "10", "--out", str(out)])
    features = out / "features.csv"
    return code, features.read_bytes() if features.exists() else None


class TestExtractInputs:
    @pytest.mark.parametrize("kind,row,message", [
        ("ecg", "0.012", "expected 2 columns, got 1"),
        ("ecg", "0.012,x", "voltage is 'x', not a finite number"),
        ("ecg", "0.012,nan", "voltage is 'nan', not a finite number"),
        ("ecg", "0.012,inf", "voltage is 'inf', not a finite number"),
        ("ecg", "nan,0.0", "t_seconds is 'nan', not a finite number"),
        ("nni", "nan", "interval_ms is 'nan', not a positive finite number"),
        ("nni", "0", "interval_ms is '0', not a positive finite number"),
        ("nni", "x", "interval_ms is 'x', not a positive finite number"),
        ("nni", "1e400", "interval_ms is '1e400', not a positive finite number"),
    ])
    def test_bad_row_exits_1_naming_file_and_line(self, tmp_path, capsys, kind, row, message):
        if kind == "ecg":
            lines = _ecg_lines()
        else:
            lines = ["interval_ms"] + [f"{800 + i % 7 * 10}.0" for i in range(400)]
        lines[4] = row
        bad = tmp_path / f"bad_{kind}.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["extract", f"--{kind}", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}, line 5: {message}"]
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_text_with_a_compression_suffix_is_read_as_text(self, tmp_path, capsys, suffix):
        lines = _ecg_lines()
        lines[4] = "0.012,x"
        bad = tmp_path / f"ecg.csv{suffix}"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["extract", "--ecg", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}, line 5: voltage is 'x', not a finite number"], err

    @pytest.mark.parametrize("kind", ["ecg", "nni"])
    def test_non_utf8_file_exits_1_naming_file_and_offset(self, tmp_path, capsys, kind):
        lines = _ecg_lines() if kind == "ecg" else ["interval_ms"] + ["800.0"] * 400
        lines[4] = lines[4].replace("0", "<ff>", 1)
        bad = tmp_path / f"bad_{kind}.csv"
        offset = write_test_file(bad, "\n".join(lines) + "\n")
        assert main(["extract", f"--{kind}", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [not_utf8(bad, offset)]

    def test_ecg_timestamps_that_do_not_increase_exit_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "ecg.csv"
        path.write_text("t_seconds,voltage\n0,1\n0,2\n0,3\n0,4\n")
        assert main(["extract", "--ecg", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: timestamps must increase from row to row"], err

    @pytest.mark.parametrize("trace,note", [
        ("half amplitude after 150 s", "accepted beats span 148.7 s of the 300.0 s trace"),
        ("clean", None),
        ("benchmark seed 1", None),
    ])
    def test_ecg_whose_beats_cover_too_little_of_it_prints_one_note(self, tmp_path, capsys, monkeypatch, trace,
                                                                     note):
        if trace == "benchmark seed 1":
            spec = importlib.util.spec_from_file_location("ecg", TESTS.parent / "perfbench" / "ecg.py")
            ecg = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(ecg)
            signal = ecg.ecg_trace(1, ecg.rr_series_ms(1, 7200.0), 7200.0), ecg.SAMPLE_RATE
        else:
            signal = synthetic_ecg(3, 300.0, 250.0)
            if trace != "clean":  # the detector's threshold then stays above the smaller beats
                signal = np.concatenate([signal[0][:37500], 0.5 * signal[0][37500:]]), 250.0
        monkeypatch.setattr(hrv_features, "read_ecg_csv", lambda path: signal)
        path = tmp_path / "ecg.csv"
        assert main(["extract", "--ecg", str(path), "--out", str(tmp_path / "out")]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if "accepted beats" in line]
        assert notes == ([] if note is None else [f"note: {path}: {note}"])

    @pytest.mark.parametrize("offset", [5.0, -500.0])
    def test_ecg_with_a_dc_offset_gives_the_features_without(self, tmp_path, offset):
        # zero-padded moving averages once let the offset into the band-pass at both ends: the edge
        # spikes set the threshold, no beat passed it, and the run exited 1 with every interval rejected
        want = _extract_ecg(tmp_path, "plain", _ecg_lines(seconds=40))
        assert want[0] == 0
        assert _extract_ecg(tmp_path, "offset", _ecg_lines(seconds=40, offset=offset)) == want

    def test_ecg_with_a_numeric_extra_column_gives_the_features_of_two_columns(self, tmp_path):
        lines = _ecg_lines(seconds=40)
        wide = ["t_seconds,voltage,lead"] + [f"{row},{k % 3}" for k, row in enumerate(lines[1:])]
        want = _extract_ecg(tmp_path, "two", lines)
        assert want[0] == 0
        assert _extract_ecg(tmp_path, "three", wide) == want

    @pytest.mark.parametrize("bad_value", [False, True], ids=["numbers", "zz"])
    def test_ecg_rows_narrower_than_the_header_exit_1_at_line_2(self, tmp_path, capsys, bad_value):
        # numpy's parser once read the leading columns of such rows unless a bad value sent the file to the scan
        lines = ["t_seconds,voltage,note"] + _ecg_lines()[1:]
        if bad_value:
            lines[4] = "0.012,zz"
        path = tmp_path / "ecg.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["extract", "--ecg", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}, line 2: expected 3 columns, got 2"], err

    def test_ecg_shorter_than_2_s_exits_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "ecg.csv"
        path.write_text("\n".join(_ecg_lines()[:376]) + "\n")
        assert main(["extract", "--ecg", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: need at least 2 s of signal at 250 Hz, got 375 samples"], err

    def test_ecg_spacing_of_a_huge_sample_rate_exits_1_with_one_line(self, tmp_path, capsys):
        # 1e-308 s spacing gives a finite rate of 1e308 Hz, which once overflowed converting 2 s to samples
        path = tmp_path / "ecg.csv"
        path.write_text("t_seconds,voltage\n" + "".join(f"{i}e-308,{i % 2}\n" for i in range(1, 6)))
        assert main(["extract", "--ecg", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: need at least 2 s of signal at 1e+308 Hz, got 5 samples"], err

    @pytest.mark.parametrize("kind,columns", [("ecg", ",voltage"), ("nni", "")])
    def test_header_field_over_the_csv_limit_exits_1_with_one_line(self, tmp_path, capsys, kind, columns):
        path = tmp_path / f"{kind}.csv"
        path.write_text("x" * 131_073 + columns + "\n")
        assert main(["extract", f"--{kind}", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}, line 1: field larger than field limit (131072)"], err

    @pytest.mark.parametrize("kind,header,message", [
        ("ecg", "t_seconds,voltage", "too few samples"),
        ("nni", "interval_ms", "no intervals after the header"),
    ])
    def test_header_only_exits_1_with_one_line(self, tmp_path, capsys, kind, header, message):
        path = tmp_path / f"{kind}.csv"
        path.write_text(header + "\n\n")
        with warnings.catch_warnings():
            # such as the parser's "input contained no data"
            warnings.simplefilter("error")
            assert main(["extract", f"--{kind}", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {path}: {message}"]


class TestDemographicsReader:
    @pytest.mark.parametrize("defect,line_no,message", [
        ("empty", 1, "expected the header participant_id,<attribute>,... with distinct names"),
        ("no header", 1, "expected the header participant_id,<attribute>,... with distinct names"),
        ("short row", 2, "expected 2 columns, got 1"),
        ("long row", 2, "expected 2 columns, got 3"),
        ("repeated", 3, "repeats participant 'p0000'"),
        ("huge field", 2, "field larger than field limit (131072)"),
        ("non-utf-8", None, None),
    ])
    @pytest.mark.parametrize("command", ["audit", "train-base"])
    def test_malformed_demographics_exit_1_naming_file_and_line(
        self, synth_dir, tmp_path, capsys, command, defect, line_no, message
    ):
        lines = (synth_dir / "demographics.csv").read_text().splitlines()
        if defect == "empty":
            lines = []
        elif defect == "no header":
            lines = lines[1:]
        elif defect == "short row":
            lines[1] = lines[1].split(",")[0]
        elif defect == "long row":
            lines[1] += ",extra"
        elif defect == "huge field":
            lines[1] = lines[1].split(",")[0] + ",<huge>"
        elif defect == "non-utf-8":
            lines[1] = "p<ff>" + lines[1]
        else:
            lines.insert(2, lines[1])
        bad = tmp_path / "bad_demo.csv"
        offset = write_test_file(bad, "".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        extra = FAST_TRAIN if command == "train-base" else []
        code = main([command, "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), "--demo", str(bad),
                     "--protected", "group", *extra, "--out", str(out)])
        assert code == 1
        want = not_utf8(bad, offset) if line_no is None else f"error: {bad}, line {line_no}: {message}"
        assert capsys.readouterr().err.strip().splitlines() == [want]
        assert not out.exists() or not any(out.iterdir())

    def test_header_only_demographics_exit_1_naming_file(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad_demo.csv"
        bad.write_text("participant_id,group\n")
        code = main(["audit", "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), "--demo", str(bad),
                     "--protected", "group", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {bad}: no participant rows after the header"]

    def test_participant_absent_from_demographics_names_the_file(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "demographics.csv").read_text().splitlines()
        bad = tmp_path / "bad_demo.csv"
        bad.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        code = main(["audit", "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), "--demo", str(bad),
                     "--protected", "group", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}: participant 'p0000' is missing"]


def _corrupt(lines, defect):
    """Windows-CSV lines with one defect; returns (lines, line number of the defect)."""
    lines = list(lines)
    if defect == "header":
        lines[0] = "sample_id,step"
        return lines, 1
    if defect == "duplicate":
        lines.insert(2, lines[1])
        return lines, 3
    if defect == "participant":  # the second row of a sample names another participant than its first
        fields = lines[2].split(",")
        fields[1] = "p9999"
        lines[2] = ",".join(fields)
        return lines, 3
    fields = lines[1].split(",")
    if defect == "columns":
        fields.pop()
    elif defect == "feature":
        fields[5] = "n/a"
    elif defect in ("inf", "nan"):
        fields[5] = defect  # parses as a float, but not a finite one
    elif defect == "huge field":
        fields[5] = "<huge>"
    elif defect == "non-utf-8":
        fields[0] += "<ff>"
    else:
        fields[2] = defect  # a step outside [0, 24) or not an integer
    lines[1] = ",".join(fields)
    return lines, 2


class TestWindowsReader:
    @pytest.mark.parametrize("command", ["saliency", "train-base"])
    @pytest.mark.parametrize("defect", ["header", "24", "-1", "x", "duplicate", "participant", "columns", "feature",
                                        "inf", "nan", "huge field", "non-utf-8"])
    def test_malformed_windows_exit_1_naming_file_and_line(
        self, synth_dir, base_dir, tmp_path, capsys, command, defect
    ):
        lines, line_no = _corrupt((synth_dir / "windows.csv").read_text().splitlines(), defect)
        bad = tmp_path / "bad_windows.csv"
        offset = write_test_file(bad, "\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        if command == "saliency":
            argv = ["saliency", "--checkpoint", str(base_dir / "model.bin"),
                    "--windows", str(bad), "--out", out]
        else:
            argv = ["train-base", "--windows", str(bad), "--labels", str(synth_dir / "labels.csv"),
                    *FAST_TRAIN, "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        if defect == "non-utf-8":
            assert err == [not_utf8(bad, offset)]
        else:
            assert err[0].startswith(f"error: {bad}, line {line_no}:")

    @pytest.mark.parametrize("column", ["sample", "participant"])
    @pytest.mark.parametrize("name", ["s,000000", 's"000000', "s\r000000", "s\n000000"])
    def test_id_the_written_files_cannot_hold_exits_1_before_training(self, synth_dir, tmp_path, capsys, column,
                                                                       name):
        # quoted, the reader takes such an id; predictions.csv and test_windows.csv would write it unquoted
        old = "s000000" if column == "sample" else "p0000"
        quoted = '"' + name.replace('"', '""') + '"'
        windows, labels = tmp_path / "windows.csv", tmp_path / "labels.csv"
        for path in (windows, labels):
            path.write_text((synth_dir / path.name).read_text().replace(f"{old},", f"{quoted},"), newline="")
        out = tmp_path / "out"
        assert main(["train-base", "--windows", str(windows), "--labels", str(labels), *FAST_TRAIN,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {windows}: {column} {name!r} holds a comma, quote, CR or LF, which the CSV files cannot hold"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "train-base", "saliency"])
    def test_windows_file_with_only_a_header_exits_1_naming_it(self, synth_dir, base_dir, tmp_path, capsys,
                                                               command):
        # extract writes such a file for a trace of fewer than 24 segments: here 10 of 60 s
        nni_csv = tmp_path / "nni.csv"
        nni_csv.write_text("interval_ms\n" + "800.0\n" * 750)
        assert main(["extract", "--nni", str(nni_csv), "--segment-seconds", "60",
                     "--out", str(tmp_path / "ext")]) == 0
        windows = tmp_path / "ext" / "windows.csv"
        assert windows.read_text() == ",".join(WINDOWS_HEADER) + "\n"
        capsys.readouterr()
        out = str(tmp_path / "out")
        if command == "saliency":
            argv = ["saliency", "--checkpoint", str(base_dir / "model.bin"), "--windows", str(windows)]
        else:
            argv = [command, "--windows", str(windows), "--labels", str(synth_dir / "labels.csv"),
                    "--demo", str(synth_dir / "demographics.csv"), "--protected", "group"]
            argv += FAST_TRAIN if command == "train-base" else []
        assert main([*argv, "--out", out]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {windows}: no windows after the header"]
        assert not (tmp_path / "out").exists()


class TestLabelsReader:
    @pytest.mark.parametrize("defect,line_no,row", [
        ("header", 1, "id,label"),
        ("columns", 2, "s000000"),
        ("non-integer", 2, "s000000,x"),
        ("not binary", 2, "s000000,2"),
        ("repeated", 3, "s000000,0"),
        ("huge field", 2, "s000000,<huge>"),
        ("non-utf-8", 2, "s000000<ff>,1"),
    ])
    def test_malformed_labels_exit_1_naming_file_and_line(
        self, synth_dir, tmp_path, capsys, defect, line_no, row
    ):
        lines = (synth_dir / "labels.csv").read_text().splitlines()
        lines[line_no - 1] = row
        bad = tmp_path / "bad_labels.csv"
        offset = write_test_file(bad, "\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["train-base", "--windows", str(synth_dir / "windows.csv"), "--labels", str(bad),
                     *FAST_TRAIN, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        if defect == "non-utf-8":
            assert err == [not_utf8(bad, offset)]
        else:
            assert err[0].startswith(f"error: {bad}, line {line_no}:")
        assert not (out / "model.bin").exists()

    def test_window_without_label_names_the_labels_file(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "labels.csv").read_text().splitlines()
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        code = main(["audit", "--windows", str(synth_dir / "windows.csv"), "--labels", str(bad),
                     "--demo", str(synth_dir / "demographics.csv"), "--protected", "group",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {bad}: sample 's000000' has no anxiety label"]


def _fuzz_cohort() -> dict:
    """{file name: bytes} of a valid cohort: window sK of participant pK, for K < 6; p0-p3 in group a, p4-p5 in b.

    Each participant has a window, and each group two or more members, so
    a missing or third group in any row makes the demographics invalid;
    and no one row ties the group counts, which would add a note.
    """
    features = np.random.default_rng(0).normal(size=(6, 24, 25))
    rows = _format_windows(([f"s{k}" for k in range(6)], [f"p{k}" for k in range(6)], features))
    return {"windows.csv": ",".join(WINDOWS_HEADER).encode() + b"\n" + rows,
            "labels.csv": "".join(["sample_id,anxiety\n", *(f"s{k},{k % 2}\n" for k in range(6))]).encode(),
            "demographics.csv": "".join(["participant_id,group\n", *(f"p{k},{'ab'[k // 4]}\n" for k in range(6))]
                                        ).encode()}


FUZZ_COHORT = _fuzz_cohort()
# Field texts that no reader may accept, by (file, column); None is every further column.
FUZZ_BAD_FIELDS = {
    ("windows.csv", 0): ['"s,0"', '"s""0"', '"s\r0"', '"s\n0"', "zz", ""],
    # read_windows_csv refuses a participant other than that of the sample's first row, and one no row may hold
    ("windows.csv", 1): ['"p,0"', '"p""0"', '"p\n0"', "zz", ""],
    ("windows.csv", 2): ["24", "-1", "1.0", "x", "", "1e3"],
    ("windows.csv", None): ["", "nan", "NaN", "inf", "-inf", "abc", "1e999", "-1e999", "0x10", "1.0.0", "1,5",
                            "\x1c1", "<huge>"],
    ("labels.csv", 0): ["zz", "", '"s0,"'],
    ("labels.csv", 1): ["2", "-1", "0.5", "", "yes", "1.0", "<huge>"],
    ("demographics.csv", 0): ["zz", ""],
    ("demographics.csv", 1): ["c", "", "A", '"a,b"'],
}


@st.composite
def malformed_cohorts(draw) -> tuple:
    """(files, defect): FUZZ_COHORT with one defect that leaves a file the readers must refuse."""
    files = dict(FUZZ_COHORT)
    name = draw(st.sampled_from(sorted(files)))
    lines = files[name].decode().splitlines(keepends=True)
    row = draw(st.integers(1, len(lines) - 1))
    defect = draw(st.sampled_from(["drop row", "repeat row", "cut row", "bad field", "non-utf-8", "header"]))
    if defect == "drop row":  # a window loses a step, a sample its label, a participant its group
        del lines[row]
    elif defect == "repeat row":
        lines.insert(draw(st.integers(1, len(lines))), lines[row])
    elif defect == "cut row":  # the file ends inside a row, before its last field
        lines[row:] = [lines[row][: draw(st.integers(1, lines[row].rindex(",")))]]
    elif defect == "bad field":
        fields = lines[row].rstrip("\n").split(",")
        column = draw(st.integers(0, len(fields) - 1))
        texts = FUZZ_BAD_FIELDS.get((name, column)) or FUZZ_BAD_FIELDS[(name, None)]
        fields[column] = draw(st.sampled_from(texts)).replace("<huge>", HUGE_FIELD)
        lines[row] = ",".join(fields) + "\n"
    elif defect == "header":
        fields = lines[0].rstrip("\n").split(",")
        change = draw(st.sampled_from(["rename", "drop", "add"]))
        column = draw(st.integers(0, len(fields) - 1))
        if change == "rename":
            fields[column] = draw(st.sampled_from(["x", "", "sample_id", "participant_id", "step"]).filter(
                lambda text: text != fields[column]))
        elif change == "drop":
            del fields[column]
        else:
            fields.insert(column, "extra")
        lines[0] = ",".join(fields) + "\n"
    data = "".join(lines).encode()
    if defect == "non-utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"])) + data[at:]
    files[name] = data
    return files, f"{name}: {defect} at row {row}"


class TestReaderFuzz:
    def test_valid_cohort_audits(self, tmp_path):
        for name, data in FUZZ_COHORT.items():
            (tmp_path / name).write_bytes(data)
        assert main(["audit", *data_args(tmp_path), "--protected", "group", "--out", str(tmp_path / "out")]) == 0

    @given(malformed_cohorts())
    @settings(max_examples=500, deadline=None)
    def test_malformed_input_exits_1_with_one_error_line(self, case):
        files, defect = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, data in files.items():
                (tmp / name).write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["audit", *data_args(tmp), "--protected", "group", "--out", str(tmp / "out")])
            lines = err.getvalue().splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (defect, code, lines)
            assert not (tmp / "out").exists()


class TestSplitCheck:
    @pytest.mark.parametrize("command", ["train-base", "mitigate", "compare"])
    def test_split_lacking_a_group_exits_1_before_training(self, synth_dir, tmp_path, capsys, command):
        # one participant is unprivileged; alone in its stratum, it goes to train
        demo = tmp_path / "one_unprivileged.csv"
        demo.write_text("".join(
            line.replace(",min", ",maj") if not line.startswith("p0004,") else line
            for line in (synth_dir / "demographics.csv").read_text().splitlines(keepends=True)))
        out = tmp_path / "out"
        code = main([command, *data_args(synth_dir)[:4], "--demo", str(demo), "--protected", "group",
                     *fast_train(command), "--by-participant", "--seed", "0", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: by-participant split, seed 0: test windows have anxiety 1/0 = 6/6, "
                       "group privileged/unprivileged = 12/0; train and test each need both values of each"]
        assert not out.exists()

    def test_split_with_both_groups_and_labels_trains(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["train-base", *data_args(synth_dir), "--protected", "group", *FAST_TRAIN,
                     "--by-participant", "--seed", "1", "--out", str(out)]) == 0

    def test_split_lacking_a_label_exits_1_before_training(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "labels.csv").read_text().splitlines()
        negatives = tmp_path / "negatives.csv"
        negatives.write_text("\n".join([lines[0]] + [f"{line.split(',')[0]},0" for line in lines[1:]]) + "\n")
        out = tmp_path / "out"
        code = main(["train-base", "--windows", str(synth_dir / "windows.csv"), "--labels", str(negatives),
                     *FAST_TRAIN, "--seed", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: window split, seed 5: train windows have anxiety 1/0 = 0/45; "
                       "train and test each need both values of each"]
        assert not (out / "model.bin").exists()


class TestProtectedAttribute:
    @pytest.mark.parametrize("command,extra", [
        ("audit", []), ("audit", ["--predictions", "absent.csv"]), ("train-base", FAST_TRAIN),
        ("reweigh-train", FAST_TRAIN), ("mitigate", fast_train("mitigate")), ("compare", fast_train("compare")),
    ])
    def test_unknown_attribute_names_demographics_file_and_columns(
        self, synth_dir, tmp_path, capsys, command, extra
    ):
        code = main([command, *data_args(synth_dir), "--protected", "nosuch", *extra, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        want = f"error: {synth_dir / 'demographics.csv'} has no attribute column 'nosuch'; its attribute columns are group"
        assert err == [want], err

    def test_train_base_protected_without_demographics_exits_1(self, synth_dir, tmp_path, capsys):
        code = main(["train-base", *data_args(synth_dir)[:4], "--protected", "group", *FAST_TRAIN,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --protected needs --demo"), err

    def test_tied_attribute_prints_one_note_naming_the_privileged_category(self, synth_dir, tmp_path, capsys):
        # p0000 moves from maj to min, which leaves 5 participants in each group
        demo = tmp_path / "tied.csv"
        demo.write_text((synth_dir / "demographics.csv").read_text().replace("p0000,maj", "p0000,min"))
        assert main(["audit", *data_args(synth_dir)[:4], "--demo", str(demo), "--protected", "group",
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: 'group': category counts tied (5 each); treating 'maj' as privileged"]

    def test_only_the_requested_column_must_be_binary(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "demographics.csv").read_text().splitlines()
        demo = tmp_path / "demo_with_age.csv"
        ages = [f"{line},{20 + i}" for i, line in enumerate(lines[1:])]
        demo.write_text("\n".join([lines[0] + ",age", *ages]) + "\n")
        args = [*data_args(synth_dir)[:4], "--demo", str(demo)]
        assert main(["audit", *args, "--protected", "group", "--out", str(tmp_path / "group")]) == 0
        assert main(["audit", *args, "--protected", "age", "--out", str(tmp_path / "age")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {demo}: 'age' has 10 categories; coarsen to two first"], err


class TestTrainingInputs:
    ANXIETY_WEIGHT = "--loss-weights must give anxiety a positive weight, as the proposed model predicts anxiety; got"

    @pytest.mark.parametrize("flag,value,message,command", [
        *((*case, command) for case in [
            ("--batch-size", "0", "--batch-size must be at least 1, got 0"),
            ("--lr", "0", "--lr must be finite and positive, got 0.0"),
            ("--lr", "inf", "--lr must be finite and positive, got inf"),
            ("--threshold", "1.5", "--threshold must be in [0, 1], got 1.5"),
            ("--threshold", "2", "--threshold must be in [0, 1], got 2.0"),
            ("--lstm-hidden", "0", "--lstm-hidden must be at least 1, got 0"),
            ("--lstm-hidden", "-3", "--lstm-hidden must be at least 1, got -3"),
            ("--dense-size", "0", "--dense-size must be at least 1, got 0"),
            ("--keep-rate", "0", "--keep-rate must be in (0, 1], got 0.0"),
            ("--keep-rate", "nan", "--keep-rate must be in (0, 1], got nan"),
        ] for command in ("train-base", "mitigate")),
        # the proposed model refuses --epochs below 1 with its own message
        ("--epochs", "-1", "--epochs must be non-negative, got -1", "train-base"),
        # flags of the proposed model, which train-base does not take
        *((*case, "mitigate") for case in [
            ("--loss-weights", "inf,1", "--loss-weights must be finite and non-negative, got inf,1"),
            ("--loss-weights", "nan,1", "--loss-weights must be finite and non-negative, got nan,1"),
            ("--loss-weights", "1,-0.5", "--loss-weights must be finite and non-negative, got 1,-0.5"),
            ("--loss-weights", "abc,1", "--loss-weights must be 'anxiety,protected', e.g. '4.5,0.5'"),
            ("--loss-weights", "0,1", f"{ANXIETY_WEIGHT} 0,1"),
            ("--loss-weights", "0,0", f"{ANXIETY_WEIGHT} 0,0"),
            ("--ckpt-every", "0", "--ckpt-every must be at least 1, got 0"),
            ("--mc-passes", "1", "--mc-passes must be at least 2, got 1"),
        ]),
        ("--loss-weights", "0,1", f"{ANXIETY_WEIGHT} 0,1", "compare"),
        ("--bias", "1.5", "--bias must be in [0, 1], got 1.5", "synth"),
        ("--n", "39", "--n must be at least 40, got 39", "synth"),
    ])
    def test_bad_config_exits_1_before_training(self, tmp_path, capsys, command, flag, value, message):
        # input files that do not exist: the error must come before any file is read
        missing = str(tmp_path / "missing.csv")
        data = ["--n", "80", "--bias", "0.8"] if command == "synth" else [
            "--windows", missing, "--labels", missing, "--demo", missing, "--protected", "group", *fast_train(command)]
        out = tmp_path / "out"
        assert main([command, *data, flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,shape", [
        ("train-base", "--dense-size", "(64, 1125899906842624)"),
        ("mitigate", "--mc-passes", "(2, 1125899906842624, 60)"),
        ("compare", "--mc-passes", "(2, 1125899906842624, 60)"),
    ])
    def test_an_allocation_the_host_cannot_make_exits_1(self, tmp_path, capsys, monkeypatch, command, flag, shape):
        # 2**50 asks for 512 and 960 PiB, more than a 64-bit address space maps, so it fails at once
        calls = []
        train_loop = mitigation._train_loop
        monkeypatch.setattr(mitigation, "_train_loop", lambda *a, **kw: calls.append(a) or train_loop(*a, **kw))
        cohort = tmp_path / "cohort"
        assert main(["synth", "--n", "80", "--bias", "0.8", "--seed", "1", "--out", str(cohort)]) == 0
        out = tmp_path / "out"
        assert main([command, *data_args(cohort), "--protected", "group", "--epochs", "1", flag, str(2**50),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate ") and shape in err[0], err
        assert not out.exists()
        # the dense layer's weights are allocated as the model trains; the MC sample buffer before any model trains
        assert len(calls) == (0 if flag == "--mc-passes" else 1)

    @pytest.mark.parametrize("command", ["train-base", "reweigh-train"])
    @pytest.mark.parametrize("flag,value", [("--ckpt-every", "2"), ("--loss-weights", "1,1"), ("--mc-passes", "4")])
    def test_proposed_model_flag_is_a_usage_error_of_a_single_model_command(self, synth_dir, tmp_path, capsys,
                                                                            command, flag, value):
        out = tmp_path / "out"
        assert main([command, *data_args(synth_dir), "--protected", "group", *FAST_TRAIN, flag, value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        # the subcommand's usage, which lists the flags it does take
        assert err[0].startswith(f"usage: fairhrv {command} "), err
        assert err[-1] == f"fairhrv {command}: error: unrecognized arguments: {flag} {value}"
        assert not out.exists()

    def test_eval_on_outside_its_choices_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        out = tmp_path / "out"
        assert main(["mitigate", "--windows", missing, "--labels", missing, "--demo", missing, "--protected", "group",
                     "--eval-on", "valid", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("fairhrv mitigate: error: argument --eval-on: invalid choice: 'valid'"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-base", "reweigh-train", "mitigate", "compare"])
    @pytest.mark.parametrize("flag,value,rule", [("--seed", 2**64, "must be in [0, 2**64)"),
                                                 ("--epochs", 2**32, "must be below 2**32")])
    def test_value_the_checkpoint_cannot_record_exits_1_before_the_work(self, synth_dir, tmp_path, capsys,
                                                                        monkeypatch, command, flag, value, rule):
        # the checkpoint header holds the seed as u64 and the epoch as u32
        calls = []
        monkeypatch.setattr(mitigation, "_train_loop", lambda *a, **kw: calls.append(a))
        out = tmp_path / "out"
        assert main([command, *data_args(synth_dir), "--protected", "group", *fast_train(command), flag, str(value),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {flag} {rule}, got {value}"]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train-base", "reweigh-train", "mitigate", "compare"])
    def test_negative_seed_exits_1_naming_it_before_reading(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        data = ["--n", "60", "--bias", "0.8"] if command == "synth" else [
            "--windows", str(missing), "--labels", str(missing), "--demo", str(missing), "--protected", "group"]
        out = tmp_path / "out"
        assert main([command, *data, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: --seed must be non-negative, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mitigate", "compare"])
    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_proposed_model_epochs_below_1_exit_1_naming_them_before_reading(self, tmp_path, capsys, command,
                                                                             epochs):
        missing = str(tmp_path / "missing.csv")
        out = tmp_path / "out"
        assert main([command, "--windows", missing, "--labels", missing, "--demo", missing, "--protected", "group",
                     "--epochs", epochs, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: --epochs must be at least 1, as the proposed model is checkpointed at its last epoch; "
            f"got {epochs}"]
        assert not out.exists()

    @pytest.mark.parametrize("command,epochs", [("train-base", "7"), ("reweigh-train", "3"), ("train-base", "0"),
                                                ("reweigh-train", "0")])
    def test_single_model_epochs_need_no_checkpoint_cadence(self, synth_dir, tmp_path, command, epochs):
        out = tmp_path / "out"
        assert main([command, *data_args(synth_dir), "--protected", "group", *FAST_TRAIN, "--epochs", epochs,
                     "--out", str(out)]) == 0
        assert len(json.loads((out / "metrics.json").read_text())["train_losses"]) == int(epochs)

    @pytest.mark.parametrize("command", ["mitigate", "compare"])
    def test_epochs_off_the_cadence_add_a_last_checkpoint(self, synth_dir, tmp_path, command):
        out = tmp_path / "out"
        assert main([command, *data_args(synth_dir), "--protected", "group", *fast_train(command), "--epochs", "5",
                     "--out", str(out)]) == 0
        if command == "mitigate":
            assert sorted(p.name for p in (out / "checkpoints").iterdir()) == [
                "ckpt_epoch_2.bin", "ckpt_epoch_4.bin", "ckpt_epoch_5.bin"]
            records = json.loads((out / "uncertainties.json").read_text())
            assert [r["epoch"] for r in records] == [2, 4, 5]

    @pytest.mark.filterwarnings("error")  # numpy overflow warnings would precede the error line
    def test_divergence_exits_1_with_one_error_line(self, synth_dir, tmp_path, capsys):
        code = main(["train-base", "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), *FAST_TRAIN,
                     "--lr", "1e300", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss at epoch"), err

    @pytest.fixture(scope="class")
    def one_batch_dir(self, tmp_path_factory):
        """A cohort whose 30 train windows are one batch at the default --batch-size: one epoch is one Adam step."""
        out = tmp_path_factory.mktemp("one_batch")
        assert main(["synth", "--n", "40", "--bias", "0.5", "--seed", "1", "--out", str(out)]) == 0
        return out

    @pytest.mark.filterwarnings("error")  # numpy overflow warnings would precede the error line
    @pytest.mark.parametrize("command,error", [
        ("train-base", "the model of epoch 1 predicts a non-finite anxiety probability"),
        ("reweigh-train", "the model of epoch 1 predicts a non-finite anxiety probability"),
        ("compare", "the model of epoch 1 predicts a non-finite anxiety probability"),
        ("mitigate", "checkpoint of epoch 1 has a non-finite uncertainty gap"),
    ])
    def test_model_that_overflows_at_prediction_exits_1_with_one_error_line(self, one_batch_dir, tmp_path, capsys,
                                                                           command, error):
        # the step leaves finite weights whose forward pass overflows; train-base once exited 0 with nan probabilities
        out = tmp_path / "out"
        assert main([command, *data_args(one_batch_dir), "--protected", "group", "--epochs", "1", "--lr", "1e300",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()


# A second valid value of each training flag: the runs below start from fast_train(command) at 2 epochs.
SECOND_VALUES = {
    "--epochs": "1", "--keep-rate": "0.5", "--lr": "0.01", "--batch-size": "8", "--lstm-hidden": "5",
    "--dense-size": "3", "--threshold": "0", "--by-participant": None, "--seed": "1",
    "--ckpt-every": "1", "--loss-weights": "1,1", "--mc-passes": "3", "--eval-on": "test",
}


def training_flags(command) -> list:
    """The flags that ``command`` takes besides --help, its data files, --protected and --out."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    return [a.option_strings[-1] for a in commands[command]._actions if a.option_strings[-1:] and
            a.option_strings[-1] not in ("--help", "--windows", "--labels", "--demo", "--protected", "--out")]


class TestEveryTrainingFlagCounts:
    """Each training flag that a command takes changes at least one of its artifact bytes at a second value."""

    COMMANDS = ("train-base", "reweigh-train", "mitigate")

    @staticmethod
    def artifacts(synth_dir, out, command, extra=()) -> dict:
        assert main([command, *data_args(synth_dir), "--protected", "group", *fast_train(command), "--epochs", "2",
                     *extra, "--out", str(out)]) == 0
        return {str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file() and path.name != "manifest.json"}

    @pytest.fixture(scope="class")
    def first_values(self, synth_dir, tmp_path_factory):
        return {command: self.artifacts(synth_dir, tmp_path_factory.mktemp("first"), command)
                for command in self.COMMANDS}

    @pytest.mark.parametrize("command,flag", [(command, flag) for command in COMMANDS
                                              for flag in training_flags(command)])
    def test_second_value_changes_an_artifact(self, synth_dir, tmp_path, first_values, command, flag):
        value = SECOND_VALUES[flag]
        second = self.artifacts(synth_dir, tmp_path, command, [flag] if value is None else [flag, value])
        assert second != first_values[command]


class TestTrainAndMitigate:
    def test_train_base_without_protected_writes_null_group_metrics(self, synth_dir, tmp_path):
        out = tmp_path / "base_np"
        code = main(["train-base", "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), *FAST_TRAIN, "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]
        assert len(metrics) == 12
        assert metrics["accuracy"] is not None
        for key in ("attribute", "dir", "in_bounds", "dir_undefined", "diff_fn", "diff_fp",
                    "n_privileged", "n_unprivileged"):
            assert metrics[key] is None, key

    def test_train_base_artifacts(self, synth_dir, tmp_path):
        out = tmp_path / "base"
        code = main([
            "train-base", *data_args(synth_dir), "--protected", "group",
            *FAST_TRAIN, "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.bin").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert "accuracy" in metrics["metrics"]
        assert len(metrics["train_losses"]) == 4
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[0] == "sample_id,prediction,probability"
        assert len(preds) == 1 + 15  # 25% of 60

    def test_reweigh_train(self, synth_dir, tmp_path):
        out = tmp_path / "rew"
        code = main([
            "reweigh-train", *data_args(synth_dir), "--protected", "group",
            *FAST_TRAIN, "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.bin").exists()

    def test_mitigate_artifacts_and_determinism(self, synth_dir, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            code = main([
                "mitigate", *data_args(synth_dir), "--protected", "group",
                *FAST_TRAIN, *FAST_PROPOSED, "--seed", "7", "--out", str(out),
            ])
            assert code == 0
            outs.append(out)

        uncertainties = json.loads((outs[0] / "uncertainties.json").read_text())
        assert len(uncertainties) == 2
        assert set(uncertainties[0]) == {"epoch", "c_anxiety", "c_protected", "gap"}
        selection = json.loads((outs[0] / "selection.json").read_text())
        assert set(selection) == {"chosen_epoch", "gap"}
        assert (outs[0] / "checkpoints" / "ckpt_epoch_2.bin").exists()
        assert (outs[0] / "checkpoints" / "ckpt_epoch_4.bin").exists()

        # identical config + seed: byte-identical artifacts
        for rel in (
            "uncertainties.json", "selection.json", "report.json", "predictions.csv",
            "test_windows.csv", "checkpoints/ckpt_epoch_2.bin", "checkpoints/ckpt_epoch_4.bin",
        ):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    @pytest.mark.parametrize("command", ["mitigate", "compare"])
    def test_mitigate_memory_per_window(self, tmp_path, command):
        # holding the unstandardized cohort through training, or the recurrence
        # history of the whole MC batch, would each cost several KB per window
        peaks, codes = {}, []
        for n in (400, 1600):
            cohort = tmp_path / f"synth{n}"
            assert main(["synth", "--n", str(n), "--bias", "0.8", "--seed", "1", "--out", str(cohort)]) == 0
            argv = [command, *data_args(cohort), "--protected", "group", "--epochs", "1", "--ckpt-every", "1",
                    "--lstm-hidden", "64", "--mc-passes", "2", "--out", str(tmp_path / f"out{n}")]
            peaks[n] = peak_mb(lambda: codes.append(main(argv)))
        assert codes == [0, 0]
        kb_per_window = (peaks[1600] - peaks[400]) * 1024 / 1200
        assert kb_per_window <= 12, peaks

    def test_saliency_command(self, synth_dir, tmp_path):
        mit = tmp_path / "mit"
        assert main([
            "mitigate", *data_args(synth_dir), "--protected", "group",
            *FAST_TRAIN, *FAST_PROPOSED, "--seed", "9", "--out", str(mit),
        ]) == 0
        out = tmp_path / "sal"
        code = main([
            "saliency", "--checkpoint", str(mit / "checkpoints" / "ckpt_epoch_4.bin"),
            "--windows", str(mit / "test_windows.csv"), "--head", "anxiety",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "saliency.csv").exists()
        assert (out / "saliency_abs.csv").exists()
        assert (out / "saliency.svg").exists()

    @pytest.mark.filterwarnings("error")  # numpy overflow warnings would precede the error line
    def test_saliency_of_a_checkpoint_whose_gradient_overflows_exits_1_with_one_error_line(self, synth_dir, tmp_path,
                                                                                          capsys):
        params = init_params(ModelArch(input_size=25, lstm_hidden=6, dense_size=4), seed=0)
        for tensor in params.tensors.values():
            tensor[...] = 1e308
        checkpoint, out = tmp_path / "huge.bin", tmp_path / "sal"
        save_checkpoint(params, checkpoint)
        assert main(["saliency", "--checkpoint", str(checkpoint), "--windows", str(synth_dir / "windows.csv"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: saliency values must be finite"]
        assert not out.exists()

    def test_saliency_of_a_head_the_checkpoint_lacks_names_checkpoint_and_heads(self, base_dir, tmp_path, capsys):
        checkpoint = base_dir / "model.bin"
        out = tmp_path / "sal"
        code = main(["saliency", "--checkpoint", str(checkpoint), "--windows", str(tmp_path / "absent.csv"),
                     "--head", "protected", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {checkpoint} has no head 'protected'; its heads are anxiety"], err

    def test_compare_table(self, synth_dir, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", *data_args(synth_dir), "--protected", "group",
            *FAST_TRAIN, *FAST_PROPOSED, "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        table = json.loads((out / "comparison.json").read_text())
        assert set(table["models"]) == {"base", "reweighting", "proposed"}
        text = (out / "comparison.txt").read_text()
        for row in ("Accuracy", "F1", "DI Ratio", "Diff in FN", "Diff in FP"):
            assert row in text
        for col in ("Base Model", "Reweighting", "Proposed Method"):
            assert col in text


class TestManifest:
    @staticmethod
    def argv(command, synth_dir, base_dir, tmp_path):
        data = [*data_args(synth_dir), "--protected", "group"]
        if command == "extract":
            nni = tmp_path / "nni.csv"
            intervals = np.random.default_rng(0).uniform(700, 900, size=800)
            nni.write_text("interval_ms\n" + "".join(f"{v:.3f}\n" for v in intervals))
            return ["extract", "--nni", str(nni), "--segment-seconds", "20"]
        return {
            "synth": ["synth", "--n", "40", "--bias", "0.5"],
            "audit": ["audit", *data],
            "train-base": ["train-base", *data, *FAST_TRAIN],
            "reweigh-train": ["reweigh-train", *data, *FAST_TRAIN],
            "mitigate": ["mitigate", *data, *FAST_TRAIN, *FAST_PROPOSED],
            "saliency": ["saliency", "--checkpoint", str(base_dir / "model.bin"),
                         "--windows", str(synth_dir / "windows.csv")],
            "compare": ["compare", *data, *FAST_TRAIN, *FAST_PROPOSED],
        }[command]

    @pytest.mark.parametrize("command,recorded", [
        ("extract", "extract"), ("synth", "synth"), ("audit", "audit"), ("train-base", "base"),
        ("reweigh-train", "reweighting"), ("mitigate", "mitigate"), ("saliency", "saliency"), ("compare", "compare"),
    ])
    def test_manifest_names_the_command_and_hashes_every_file(self, synth_dir, base_dir, tmp_path, command, recorded):
        out = tmp_path / "out"
        assert main([*self.argv(command, synth_dir, base_dir, tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == recorded
        assert not {"out", "func", "command"} & set(manifest["config"])
        files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in out.rglob("*") if path.is_file() and path.name != "manifest.json"}
        assert files and manifest["artifacts"] == files

    @pytest.mark.parametrize("command", ["extract", "synth", "audit", "train-base", "reweigh-train", "mitigate",
                                         "saliency", "compare"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_in_the_way_of_a_file_exits_1_before_the_work(self, synth_dir, base_dir, tmp_path, capsys,
                                                               monkeypatch, command, under):
        calls = []
        monkeypatch.setattr(mitigation, "_train_loop", lambda *a, **kw: calls.append(a))
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / "sub" if under else afile
        assert main([*self.argv(command, synth_dir, base_dir, tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --out {out}: {afile} exists and is not a directory"], err
        assert afile.read_text() == "keep\n"
        assert calls == []

    @pytest.mark.parametrize("failure", ["unlabeled sample", "divergence"])
    def test_failed_command_leaves_no_manifest(self, synth_dir, tmp_path, capsys, failure):
        labels = synth_dir / "labels.csv"
        extra = ["--lr", "1e300"]
        if failure == "unlabeled sample":
            labels = tmp_path / "labels.csv"
            labels.write_text("".join((synth_dir / "labels.csv").read_text().splitlines(keepends=True)[:-1]))
            extra = []
        out = tmp_path / "out"
        code = main(["mitigate", *data_args(synth_dir)[:2], "--labels", str(labels),
                     "--demo", str(synth_dir / "demographics.csv"), "--protected", "group", *FAST_TRAIN,
                     *FAST_PROPOSED, *extra, "--out", str(out)])
        assert code == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        # mitigate makes --out only once its run has succeeded
        assert not out.exists()


def test_importing_the_cli_loads_no_numpy_random():
    """Only a command that draws loads numpy.random; extract, audit and saliency draw nothing."""
    out = subprocess.run([sys.executable, "-c", "import sys, fairhrv.cli; print('numpy.random' in sys.modules)"],
                         env=source_env(), capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout == "False\n", out.stdout + out.stderr


def test_commands_run_without_scipy(tmp_path):
    """scipy is a test dependency only: every command runs, and loads no scipy module, without it."""
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", str(TESTS / "no_scipy_chain.py"),
                          str(tmp_path)],
                         env=source_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout)
    commands = ["audit", "audit --predictions", "compare", "extract", "extract --ecg +5", "extract --nni",
                "extract --nni 8_80", "mitigate", "reweigh-train", "saliency", "synth", "train-base"]
    digests = result.pop("artifacts_sha256")
    assert result == {"exit_codes": dict.fromkeys(commands, 0), "scipy_modules": []}
    assert sorted(digests) == commands and all(len(d) == 64 for d in digests.values()), digests
    # a DC offset leaves the detected beats, and so every extracted byte, as they were
    assert digests["extract --ecg +5"] == digests["extract"]
    # an interval written with a digit separator, which only the row scan reads, gives the bytes of the plain one
    assert digests["extract --nni 8_80"] == digests["extract --nni"]
