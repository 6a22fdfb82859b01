"""The three benchmark workloads: inputs, CLI commands and output checks.

Each workload has a ``setup`` that generates its inputs from the seed, an
``operation`` that runs the ``fairhrv`` commands of one operation (the
next command may depend on the previous one's output), and
``check_outputs`` for the operation's output directory. Commands go
through a caller-supplied ``run_cli(argv) -> exit code``, so the same
definitions serve the subprocess benchmark and the in-process traced run.
"""

import csv
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ecg


@dataclass(frozen=True)
class Config:
    """Workload sizes. The defaults are the benchmark; tests use a tiny one."""

    n: int = 2000
    mitigate_epochs: int = 10
    ckpt_every: int = 5
    train_epochs: int = 20
    model_flags: tuple = ()  # extra training flags; empty means CLI defaults
    ecg_seconds: float = 7200.0
    segment_seconds: float = 60.0
    heldout_n: int = 10000  # windows of the cohort that scores the trained model


# Small, but like the benchmark dominated by the layers: 50 MC passes (the
# CLI default) keep MC ahead of the CLI's own CSV reading in ``saliency``.
TINY = Config(
    n=80, mitigate_epochs=2, ckpt_every=1, train_epochs=10,
    model_flags=("--lstm-hidden", "16", "--dense-size", "8"),
    ecg_seconds=300.0, segment_seconds=10.0, heldout_n=200,
)

WINDOW_STEPS, N_FEATURES = 24, 25
SYNTH_BIAS = 0.8  # label bias of the synthetic cohort (fairhrv synth --bias)
SCORE_TIMEOUT_S = 120

# Tolerances of the extract check against the generated RR series.
BEAT_COUNT_TOLERANCE = 0.001  # share of true intervals
MEAN_NN_TOLERANCE_MS = 1.0


@dataclass
class Inputs:
    paths: dict
    seed: int
    rr_ms: np.ndarray = None  # ground truth of the extract workload
    scores: dict = field(default_factory=dict)  # score.py results by (model, predictions) sha256


@dataclass
class Outcome:
    """What the check of one operation found."""

    errors: list = field(default_factory=list)
    artifacts_sha256: str = ""
    accuracy: float = math.nan
    dir: float = None  # None when the CLI reports the ratio as undefined
    chosen_epoch: int = None

    @property
    def dir_miss(self) -> float:
        """Distance of the disparate-impact ratio from [0.8, 1.2]."""
        return None if self.dir is None else max(0.0, 0.8 - self.dir, self.dir - 1.2)


class CommandFailed(RuntimeError):
    pass


def _run(run_cli, argv):
    code = run_cli(argv)
    if code != 0:
        raise CommandFailed(f"fairhrv {argv[0]} exited with {code}")


# ---------------------------------------------------------------------------
# setup


def setup_cohort(work: Path, seed: int, config: Config, run_cli) -> Inputs:
    out = work / "cohort"
    _run(run_cli, ["synth", "--n", str(config.n), "--bias", str(SYNTH_BIAS),
                   "--seed", str(seed), "--out", str(out)])
    return Inputs({"windows": out / "windows.csv", "labels": out / "labels.csv",
                   "demo": out / "demographics.csv"}, seed)


def setup_ecg(work: Path, seed: int, config: Config, run_cli) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    rr = ecg.rr_series_ms(seed, config.ecg_seconds)
    path = work / "ecg.csv"
    ecg.write_ecg_csv(path, ecg.ecg_trace(seed, rr, config.ecg_seconds))
    return Inputs({"ecg": path}, seed, rr_ms=rr)


# ---------------------------------------------------------------------------
# operations


def _data_args(inputs: Inputs) -> list:
    p = inputs.paths
    return ["--windows", str(p["windows"]), "--labels", str(p["labels"]),
            "--demo", str(p["demo"]), "--protected", "group"]


def op_mitigate(inputs: Inputs, out: Path, config: Config, run_cli) -> None:
    _run(run_cli, ["mitigate", *_data_args(inputs), "--epochs", str(config.mitigate_epochs),
                   "--ckpt-every", str(config.ckpt_every), *config.model_flags,
                   "--out", str(out / "mitigate")])
    chosen = json.loads((out / "mitigate" / "selection.json").read_text())["chosen_epoch"]
    _run(run_cli, ["saliency",
                   "--checkpoint", str(out / "mitigate" / "checkpoints" / f"ckpt_epoch_{chosen}.bin"),
                   "--windows", str(out / "mitigate" / "test_windows.csv"),
                   "--out", str(out / "saliency")])


def op_train(inputs: Inputs, out: Path, config: Config, run_cli) -> None:
    _run(run_cli, ["train-base", *_data_args(inputs), "--epochs", str(config.train_epochs),
                   *config.model_flags, "--out", str(out / "train")])


def op_extract(inputs: Inputs, out: Path, config: Config, run_cli) -> None:
    _run(run_cli, ["extract", "--ecg", str(inputs.paths["ecg"]),
                   "--segment-seconds", str(config.segment_seconds),
                   "--steps", str(WINDOW_STEPS), "--out", str(out / "extract")])


# ---------------------------------------------------------------------------
# checks


def sha256_file(path) -> str:
    # not fairhrv.fileio.sha256_file: the check must not trust the code it checks
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_manifest(out: Path, errors: list) -> dict:
    """The manifest's artifacts map, after checking it lists every file with its sha256."""
    manifest = json.loads((out / "manifest.json").read_text())
    artifacts = manifest["artifacts"]
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()} - {"manifest.json"}
    if set(artifacts) != on_disk:
        errors.append(f"{out.name}: manifest lists {sorted(artifacts)}, directory holds {sorted(on_disk)}")
    for name, digest in artifacts.items():
        if (out / name).is_file() and sha256_file(out / name) != digest:
            errors.append(f"{out.name}: sha256 of {name} differs from the manifest")
    return artifacts


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _model_quality(inputs, config, checkpoint: Path, run_dir: Path, metrics: dict, outcome: Outcome) -> None:
    """Held-out accuracy of the model the CLI saved (``score.py``), and its test-split ``dir``.

    The CLI's own test accuracy rests on 500 windows, so across seeds it
    spreads about 4% of its median; on a held-out cohort of 10,000 windows
    the spread is about 1%. Scored once per distinct model and prediction file.
    """
    outcome.dir = metrics.get("dir")
    key = (sha256_file(checkpoint), sha256_file(run_dir / "predictions.csv"))
    if key not in inputs.scores:
        request = {**{k: str(v) for k, v in inputs.paths.items()}, "seed": inputs.seed,
                   "heldout_n": config.heldout_n, "checkpoint": str(checkpoint),
                   "predictions": str(run_dir / "predictions.csv")}
        try:
            done = subprocess.run([sys.executable, str(Path(__file__).with_name("score.py")), json.dumps(request)],
                                  capture_output=True, text=True, timeout=SCORE_TIMEOUT_S)
            inputs.scores[key] = (json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0
                                  else {"error": f"score.py exited with {done.returncode}: {done.stderr[-500:]!r}"})
        except subprocess.TimeoutExpired:
            inputs.scores[key] = {"error": f"score.py took longer than {SCORE_TIMEOUT_S} s"}
    result = inputs.scores[key]
    if "error" in result:
        outcome.errors.append(result["error"])
    else:
        outcome.accuracy = result["accuracy"]


def check(workload, inputs: Inputs, out: Path, config: Config) -> Outcome:
    """Validate one operation's outputs; never raises on bad outputs."""
    outcome = Outcome()
    try:
        workload.check_outputs(inputs, out, config, outcome)
        maps = {d.name: _check_manifest(d, outcome.errors) for d in sorted(out.iterdir()) if d.is_dir()}
        outcome.artifacts_sha256 = hashlib.sha256(
            json.dumps(maps, sort_keys=True).encode()
        ).hexdigest()
    except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        outcome.errors.append(f"{type(exc).__name__}: {exc}")
    return outcome


def _check_mitigate(inputs, out, config, outcome):
    mit, sal = out / "mitigate", out / "saliency"
    records = json.loads((mit / "uncertainties.json").read_text())
    ckpt_epochs = sorted(int(p.stem.rsplit("_", 1)[1]) for p in (mit / "checkpoints").glob("ckpt_epoch_*.bin"))
    expected = list(range(config.ckpt_every, config.mitigate_epochs + 1, config.ckpt_every))
    if ckpt_epochs != expected or sorted(r["epoch"] for r in records) != expected:
        outcome.errors.append(f"checkpoints {ckpt_epochs} / records {[r['epoch'] for r in records]}, expected {expected}")
    if not all(_finite([r["c_anxiety"], r["c_protected"], r["gap"]]) for r in records):
        outcome.errors.append("non-finite uncertainty record")
    outcome.chosen_epoch = json.loads((mit / "selection.json").read_text())["chosen_epoch"]
    if outcome.chosen_epoch not in ckpt_epochs:
        outcome.errors.append(f"chosen epoch {outcome.chosen_epoch} is not a checkpoint")
    test_ids = {row[0] for row in _csv_rows(mit / "test_windows.csv")[1:] if row}
    predictions = [row for row in _csv_rows(mit / "predictions.csv")[1:] if row]
    if len(predictions) != len(test_ids) or {row[0] for row in predictions} != test_ids:
        outcome.errors.append(f"{len(predictions)} predictions for {len(test_ids)} test windows")
    grid = [row for row in _csv_rows(sal / "saliency.csv")[1:] if row]
    if len(grid) != WINDOW_STEPS or any(len(row) != N_FEATURES or not _finite(row) for row in grid):
        outcome.errors.append("saliency.csv is not a finite 24x25 grid")
    _model_quality(inputs, config, mit / "checkpoints" / f"ckpt_epoch_{outcome.chosen_epoch}.bin",
                   mit, json.loads((mit / "report.json").read_text()), outcome)


def _check_train(inputs, out, config, outcome):
    from fairhrv.checkpoint_io import load_checkpoint

    model = out / "train"
    load_checkpoint(model / "model.bin")
    _model_quality(inputs, config, model / "model.bin", model,
                   json.loads((model / "metrics.json").read_text())["metrics"], outcome)


def _check_extract(inputs, out, config, outcome):
    ext = out / "extract"
    features = _csv_rows(ext / "features.csv")
    header, rows = features[0], [row for row in features[1:] if row]
    n20, p20, mean_col = header.index("nni_20"), header.index("pnni_20"), header.index("mean_nni")
    counts, sums = 0, 0.0
    for row in rows:
        if float(row[p20]) == 0.0:
            outcome.errors.append("a segment has no successive difference above 20 ms; cannot count it")
            return
        n_seg = round(100.0 * float(row[n20]) / float(row[p20])) + 1
        counts += n_seg
        sums += n_seg * float(row[mean_col])
    truth = inputs.rr_ms
    if abs(counts - len(truth)) > max(2, BEAT_COUNT_TOLERANCE * len(truth)):
        outcome.errors.append(f"detected {counts} intervals, generated {len(truth)}")
    if abs(sums / counts - float(np.mean(truth))) > MEAN_NN_TOLERANCE_MS:
        outcome.errors.append(f"mean NN {sums / counts:.3f} ms, generated {np.mean(truth):.3f} ms")
    window_rows = [row for row in _csv_rows(ext / "windows.csv")[1:] if row]
    if len(window_rows) != (len(rows) // WINDOW_STEPS) * WINDOW_STEPS:
        outcome.errors.append(f"{len(window_rows)} window rows for {len(rows)} segments")
    # beat-detection accuracy: the extract workload trains no model
    outcome.accuracy = 1.0 - abs(counts - len(truth)) / len(truth)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    operation: object
    check_outputs: object
    epochs_field: str = None  # Config field with the epochs one operation trains


WORKLOADS = {
    "mitigate": Workload("mitigate", setup_cohort, op_mitigate, _check_mitigate, "mitigate_epochs"),
    "train": Workload("train", setup_cohort, op_train, _check_train, "train_epochs"),
    "extract": Workload("extract", setup_ecg, op_extract, _check_extract),
}
