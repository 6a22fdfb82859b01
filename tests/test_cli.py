"""CLI tests: artifacts, exit codes, manifests, and reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairhrv.cli import main

FAST_TRAIN = [
    "--epochs", "4", "--ckpt-every", "2", "--mc-passes", "4",
    "--lstm-hidden", "6", "--dense-size", "4", "--batch-size", "16",
]


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
        ("s000001,0,0.1\ns000000,1,0.9\n", ", line 1", "expected the header sample_id,prediction,probability"),
        ("", ", line 1", "expected the header sample_id,prediction,probability"),
        (PREDICTIONS_HEADER, "", "no predictions after the header"),
    ], ids=["short row", "long row", "non-integer", "not binary", "repeated", "huge field", "no header", "empty",
            "header only"])
    def test_malformed_prediction_row_exits_1_naming_file_and_line(
        self, synth_dir, tmp_path, capsys, text, where, message
    ):
        preds = tmp_path / "preds.csv"
        preds.write_text(text.replace("<huge>", HUGE_FIELD))
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


def _ecg_lines(seconds=3, fs=250):
    """Header plus a unit-impulse train at 1 Hz, one row per sample."""
    return ["t_seconds,voltage"] + [f"{i / fs:.3f},{1.0 if i % fs == 0 else 0.0}"
                                    for i in range(seconds * fs)]


class TestExtractInputs:
    @pytest.mark.parametrize("kind,row,message", [
        ("ecg", "0.012", "expected 2 column(s), got 1"),
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
            lines[1] = lines[1].split(",")[0] + "," + HUGE_FIELD
        else:
            lines.insert(2, lines[1])
        bad = tmp_path / "bad_demo.csv"
        bad.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        extra = FAST_TRAIN if command == "train-base" else []
        code = main([command, "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), "--demo", str(bad),
                     "--protected", "group", *extra, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}, line {line_no}: {message}"]
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
    fields = lines[1].split(",")
    if defect == "columns":
        fields.pop()
    elif defect == "feature":
        fields[5] = "n/a"
    elif defect in ("inf", "nan"):
        fields[5] = defect  # parses as a float, but not a finite one
    elif defect == "huge field":
        fields[5] = HUGE_FIELD
    else:
        fields[2] = defect  # a step outside [0, 24) or not an integer
    lines[1] = ",".join(fields)
    return lines, 2


class TestWindowsReader:
    @pytest.mark.parametrize("command", ["saliency", "train-base"])
    @pytest.mark.parametrize("defect", ["header", "24", "-1", "x", "duplicate", "columns", "feature", "inf", "nan",
                                        "huge field"])
    def test_malformed_windows_exit_1_naming_file_and_line(
        self, synth_dir, base_dir, tmp_path, capsys, command, defect
    ):
        lines, line_no = _corrupt((synth_dir / "windows.csv").read_text().splitlines(), defect)
        bad = tmp_path / "bad_windows.csv"
        bad.write_text("\n".join(lines) + "\n")
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
        assert err[0].startswith(f"error: {bad}, line {line_no}:")


class TestLabelsReader:
    @pytest.mark.parametrize("defect,line_no,row", [
        ("header", 1, "id,label"),
        ("columns", 2, "s000000"),
        ("non-integer", 2, "s000000,x"),
        ("not binary", 2, "s000000,2"),
        ("repeated", 3, "s000000,0"),
        ("huge field", 2, "s000000,<huge>"),
    ])
    def test_malformed_labels_exit_1_naming_file_and_line(
        self, synth_dir, tmp_path, capsys, defect, line_no, row
    ):
        lines = (synth_dir / "labels.csv").read_text().splitlines()
        lines[line_no - 1] = row.replace("<huge>", HUGE_FIELD)
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["train-base", "--windows", str(synth_dir / "windows.csv"), "--labels", str(bad),
                     *FAST_TRAIN, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
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


class TestSplitCheck:
    @pytest.mark.parametrize("command", ["train-base", "mitigate", "compare"])
    def test_split_lacking_a_group_exits_1_before_training(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = main([command, *data_args(synth_dir), "--protected", "group", *FAST_TRAIN,
                     "--by-participant", "--seed", "0", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: by-participant split, seed 0: test windows have anxiety 1/0 = 9/3, "
                       "group privileged/unprivileged = 12/0; train and test each need both values of each"]
        assert not out.exists() or not any(out.iterdir())

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


class TestTrainingInputs:
    @pytest.mark.parametrize("command", ["train-base", "mitigate"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--batch-size", "0", "batch_size must be at least 1"),
        ("--lr", "0", "lr must be finite and positive"),
        ("--threshold", "1.5", "threshold must be in [0, 1]"),
        ("--eval-samples", "0", "eval_samples must be at least 1"),
        ("--eval-samples", "-3", "eval_samples must be at least 1"),
    ])
    def test_bad_config_exits_1_before_training(
        self, synth_dir, tmp_path, capsys, command, flag, value, message
    ):
        out = tmp_path / "out"
        code = main([command, *data_args(synth_dir), "--protected", "group",
                     *FAST_TRAIN, flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # numpy overflow warnings would precede the error line
    def test_divergence_exits_1_with_one_error_line(self, synth_dir, tmp_path, capsys):
        code = main(["train-base", "--windows", str(synth_dir / "windows.csv"),
                     "--labels", str(synth_dir / "labels.csv"), *FAST_TRAIN,
                     "--lr", "1e300", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss at epoch"), err


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
                *FAST_TRAIN, "--seed", "7", "--out", str(out),
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

    def test_saliency_command(self, synth_dir, tmp_path):
        mit = tmp_path / "mit"
        assert main([
            "mitigate", *data_args(synth_dir), "--protected", "group",
            *FAST_TRAIN, "--seed", "9", "--out", str(mit),
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

    def test_compare_table(self, synth_dir, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", *data_args(synth_dir), "--protected", "group",
            *FAST_TRAIN, "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        table = json.loads((out / "comparison.json").read_text())
        assert set(table["models"]) == {"base", "reweighting", "proposed"}
        text = (out / "comparison.txt").read_text()
        for row in ("Accuracy", "F1", "DI Ratio", "Diff in FN", "Diff in FP"):
            assert row in text
        for col in ("Base Model", "Reweighting", "Proposed Method"):
            assert col in text


def test_cli_import_leaves_scipy_signal_unloaded():
    """Only feature extraction needs scipy.signal and scipy.interpolate."""
    code = ("import sys, fairhrv.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.interpolate') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
