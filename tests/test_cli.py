"""CLI tests: artifacts, exit codes, manifests, and reproducibility."""

import json

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


def _corrupt(lines, defect):
    """Windows-CSV lines with one defect; returns (lines, line number of the defect)."""
    lines = list(lines)
    if defect == "duplicate":
        lines.insert(2, lines[1])
        return lines, 3
    fields = lines[1].split(",")
    if defect == "columns":
        fields.pop()
    else:
        fields[2] = defect  # a step outside [0, 24)
    lines[1] = ",".join(fields)
    return lines, 2


class TestWindowsReader:
    @pytest.mark.parametrize("command", ["saliency", "train-base"])
    @pytest.mark.parametrize("defect", ["24", "-1", "duplicate", "columns"])
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
