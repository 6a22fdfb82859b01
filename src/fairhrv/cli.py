"""Command-line interface.

Subcommands: extract, synth, audit, train-base, reweigh-train, mitigate,
saliency, compare. Each writes its artifacts into --out, made only once
its work has succeeded, so a failed command leaves no --out (an --out
that is, or lies under, a file is refused before the work); on success
``main`` adds a manifest (config echo and artifact checksums, no volatile
fields), so identical configs and seeds reproduce byte-identical outputs.
All fairness reports come from fairness.evaluate_predictions; all
windows CSVs are read by dataset.read_windows_csv, and they and the ECG
and NN-interval CSVs under the one rule of fileio.read_numeric_csv, the
row scan's. Every model command takes --epochs, --keep-rate, --lr,
--batch-size, --lstm-hidden, --dense-size, --threshold, --by-participant
and --seed; only mitigate and compare, which train the proposed model, take
its --ckpt-every, --loss-weights and --mc-passes.
Exit codes: 0 success; 1 data or I/O errors, a flag out of range or an
allocation that fails; 2 usage errors.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataset, fairness, hrv_features, pipeline, saliency
from .checkpoint_io import load_checkpoint, save_checkpoint
from .fileio import atomic_write_text, check_csv_name, sha256_file, write_json
from .mitigation import TrainConfig, TrainingDiverged
from .nnet import ModelArch


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    artifacts = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            artifacts[str(path.relative_to(out_dir))] = sha256_file(path)
    write_json(out_dir / "manifest.json", {"command": command, "config": config, "artifacts": artifacts})


def _out_dir(args) -> Path:
    """Make the --out directory; a command calls this only once its work has succeeded."""
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


# the flag's argparse dest of each TrainConfig field or generate_synthetic parameter whose dest is not its name
PARAMETER_DESTS = {"checkpoint_every": "ckpt_every", "task_weights": "loss_weights", "bias_strength": "bias"}

# the manifest's "command" where it is not the subcommand's name
MANIFEST_COMMANDS = {"train-base": "base", "reweigh-train": "reweighting"}


def _config_echo(args) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("out", "func", "command", "parser"):
            continue
        config[key] = str(value) if isinstance(value, Path) else value
    return config


def _write_test_predictions(path, split: dataset.SplitCohort, run: pipeline.ModelRun) -> None:
    dataset.write_predictions_csv(path, [w.sample_id for w in split.test.windows], run.predictions, run.probabilities)


def _write_cohort_windows(path, cohort: dataset.Cohort) -> None:
    windows = cohort.windows
    dataset.write_windows_csv(path, [w.sample_id for w in windows], [w.participant_id for w in windows],
                              cohort.feature_tensor())


def _train_config(args) -> TrainConfig:
    """The TrainConfig of the command's flags; a command without the proposed model's keeps their defaults."""
    proposed = {}
    if hasattr(args, "loss_weights"):
        if args.epochs < 1:
            raise ValueError(f"--epochs must be at least 1, as the proposed model is checkpointed at its last epoch; "
                             f"got {args.epochs}")
        try:
            weights = tuple(float(w) for w in args.loss_weights.split(","))
        except ValueError:
            weights = ()
        if len(weights) != 2:
            raise ValueError("--loss-weights must be 'anxiety,protected', e.g. '4.5,0.5'")
        if weights[0] == 0:  # a protected weight of 0 stays legal: it trains the anxiety head alone
            raise ValueError(f"--loss-weights must give anxiety a positive weight, as the proposed model predicts "
                             f"anxiety; got {args.loss_weights}")
        proposed = {"checkpoint_every": args.ckpt_every, "task_weights": weights, "mc_passes": args.mc_passes}
    return TrainConfig(**proposed, **{key: getattr(args, key) for key in (
        "epochs", "keep_rate", "lr", "batch_size", "seed", "lstm_hidden", "dense_size", "threshold")})


def _load_cohort(args) -> dataset.Cohort:
    """The cohort of --windows, --labels and --demo, holding the --protected attribute when one is named."""
    if args.protected is not None and args.demo is None:
        raise ValueError("--protected needs --demo, the demographics CSV with that attribute column")
    cohort = dataset.load_cohort(args.windows, args.labels, args.demo, args.protected)
    coding = cohort.attribute_catalog.get(args.protected)
    if coding is not None and len(set(coding.counts.values())) == 1:
        print(f"note: {args.protected!r}: category counts tied ({max(coding.counts.values())} each); "
              f"treating {coding.privileged_category()!r} as privileged", file=sys.stderr)
    return cohort


def _standardized_split(args, config: TrainConfig) -> dataset.SplitCohort:
    """The standardized split of ``_load_cohort(args)``, which no name holds, so it is freed before training."""
    return pipeline.prepare_split(_load_cohort(args), config.seed, by_participant=args.by_participant,
                                  protected=args.protected)


# ---------------------------------------------------------------------------
# commands


def cmd_extract(args) -> None:
    if (args.ecg is None) == (args.nni is None):
        raise ValueError("provide exactly one of --ecg or --nni")
    if args.steps != dataset.WINDOW_STEPS:
        raise ValueError(f"--steps must be {dataset.WINDOW_STEPS}, the window length models take")
    if not (np.isfinite(args.segment_seconds) and args.segment_seconds > 0):
        raise ValueError(f"--segment-seconds must be finite and positive, got {args.segment_seconds}")
    check_csv_name("--participant", args.participant)
    if args.ecg is not None:
        samples, sample_rate = hrv_features.read_ecg_csv(args.ecg)
        try:
            intervals = hrv_features.detect_r_peaks(samples, sample_rate)
        except ValueError as exc:
            raise ValueError(f"{args.ecg}: {exc}") from None
        span, covered = len(samples) / sample_rate, intervals.sum() / 1000.0
        if covered < 0.9 * span and span - covered > hrv_features.MAX_NN_MS / 1000.0:
            print(f"note: {args.ecg}: accepted beats span {covered:.1f} s of the {span:.1f} s trace", file=sys.stderr)
    else:
        read = hrv_features.read_nni_csv(args.nni)
        intervals = hrv_features.in_nn_range(read)  # the detector's range, so both sources give the same features
        bounds = f"[{hrv_features.MIN_NN_MS:g}, {hrv_features.MAX_NN_MS:g}] ms"
        if len(intervals) == 0:
            raise ValueError(f"{args.nni}: every interval lies outside {bounds}")
        if len(intervals) < len(read):
            print(f"note: {args.nni}: dropped {len(read) - len(intervals)} of {len(read)} intervals outside {bounds}",
                  file=sys.stderr)

    # each interval goes to the segment holding its end; cut where the id
    # changes (ids past the float range are inf, whose nan differences cut too)
    segment_ids = (np.cumsum(intervals) / 1000.0) // args.segment_seconds
    chunks = np.split(intervals, np.flatnonzero(np.diff(segment_ids)) + 1)
    rows = [hrv_features.extract_features(c) for c in chunks if len(c) >= 2]
    if len(rows) < len(chunks):
        print(f"note: {len(chunks) - len(rows)} of {len(chunks)} segment(s) had fewer than 2 intervals; skipped",
              file=sys.stderr)
    if not rows:
        raise ValueError("no segment had enough intervals for feature extraction")
    rows = np.stack(rows)
    out = _out_dir(args)
    hrv_features.write_features_csv(out / "features.csv", rows)

    n_windows = len(rows) // args.steps
    dataset.write_windows_csv(
        out / "windows.csv",
        [f"{args.participant}_w{k:04d}" for k in range(n_windows)],
        [args.participant] * n_windows,
        rows[: n_windows * args.steps].reshape(n_windows, args.steps, dataset.N_FEATURES),
    )
    if n_windows == 0:
        print(f"note: {len(rows)} segment(s) < {args.steps}; windows.csv has no rows", file=sys.stderr)


def cmd_synth(args) -> None:
    check_csv_name("--attribute", args.attribute)
    if args.attribute == "participant_id":
        raise ValueError("--attribute cannot be participant_id, the demographics id column")
    cohort = dataset.generate_synthetic(args.n, args.bias, args.seed, attribute=args.attribute)
    out = _out_dir(args)
    _write_cohort_windows(out / "windows.csv", cohort)
    dataset.write_labels_csv(out / "labels.csv", cohort)
    dataset.write_demographics_csv(out / "demographics.csv", cohort)
    dataset.write_catalog_json(out / "catalog.json", cohort)


def cmd_audit(args) -> None:
    cohort = _load_cohort(args)
    groups = cohort.protected_values(args.protected)
    labels = cohort.labels()
    if args.predictions is None:
        report = fairness.evaluate_predictions(labels, groups=groups, attribute=args.protected)
    else:
        # audit exactly the listed samples: model commands write test-split predictions only
        by_id = dataset.read_outcomes_csv(args.predictions, dataset.PREDICTIONS_HEADER, "prediction")
        index = {w.sample_id: i for i, w in enumerate(cohort.windows)}
        unknown = [sid for sid in by_id if sid not in index]
        if unknown:
            raise ValueError(f"{args.predictions}: sample {unknown[0]!r} is not in the cohort")
        rows = [index[sid] for sid in by_id]
        try:
            report = fairness.evaluate_predictions(list(by_id.values()), labels[rows], groups[rows], args.protected)
        except ValueError as exc:  # the listed samples may leave a group empty
            raise ValueError(f"{args.predictions}: --protected {args.protected}: {exc}") from None
    write_json(_out_dir(args) / "report.json", report)


def _run_single_model(args) -> None:
    """train-base and reweigh-train: one model's checkpoint, test predictions and metrics."""
    config = _train_config(args)
    split = _standardized_split(args, config)
    run_model = pipeline.run_reweighted_model if args.command == "reweigh-train" else pipeline.run_base_model
    run = run_model(split, args.protected, config)
    out = _out_dir(args)
    save_checkpoint(run.params, out / "model.bin")
    _write_test_predictions(out / "predictions.csv", split, run)
    write_json(out / "metrics.json", {"metrics": run.metrics, "train_losses": list(run.train_losses)})


def cmd_mitigate(args) -> None:
    config = _train_config(args)
    split = _standardized_split(args, config)
    run = pipeline.run_mitigation(split, args.protected, config)
    out = _out_dir(args)
    for ckpt in run.checkpoints:
        save_checkpoint(ckpt, out / "checkpoints" / f"ckpt_epoch_{ckpt.epoch}.bin")
    write_json(
        out / "uncertainties.json",
        [
            {"epoch": r.epoch, "c_anxiety": r.c_anxiety, "c_protected": r.c_protected, "gap": r.gap}
            for r in run.records
        ],
    )
    write_json(out / "selection.json", {"chosen_epoch": run.selection.epoch, "gap": run.selection.gap})
    write_json(out / "report.json", run.metrics)
    _write_test_predictions(out / "predictions.csv", split, run)
    _write_cohort_windows(out / "test_windows.csv", split.test)


def cmd_saliency(args) -> None:
    params = load_checkpoint(args.checkpoint)
    arch = ModelArch.from_params(params)
    if arch.lstm_hidden is None or arch.input_size != dataset.N_FEATURES:  # the windows' shape
        raise ValueError(f"{args.checkpoint}: saliency needs an LSTM over {dataset.N_FEATURES} features per step, "
                         f"as the model commands write; got {arch}")
    if args.head not in arch.heads:
        raise ValueError(f"{args.checkpoint} has no head {args.head!r}; its heads are {', '.join(arch.heads)}")
    sample_ids, _, windows = dataset.read_windows_csv(args.windows)
    if not sample_ids:
        raise ValueError(f"{args.windows}: no windows after the header")
    values = saliency.average_saliency_over_windows(params, windows, args.head)
    out = _out_dir(args)
    saliency.write_saliency_csv(values, out / "saliency.csv")
    saliency.write_saliency_csv(np.abs(values), out / "saliency_abs.csv")
    saliency.write_saliency_svg(values, args.head, out / "saliency.svg")


def cmd_compare(args) -> None:
    config = _train_config(args)
    comparison = pipeline.run_comparison(_standardized_split(args, config), args.protected, config)
    out = _out_dir(args)
    write_json(out / "comparison.json", comparison)
    atomic_write_text(out / "comparison.txt", pipeline.render_comparison_text(comparison))


# ---------------------------------------------------------------------------
# parser


def _add_data_args(p, need_demo=False):
    p.add_argument("--windows", required=True, type=Path, help="windows CSV")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV (sample_id,anxiety)")
    p.add_argument("--demo", required=need_demo, type=Path, default=None,
                   help="demographics CSV (participant_id + raw attribute columns)")


def _add_train_args(p):
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--keep-rate", type=float, default=TrainConfig.keep_rate)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lstm-hidden", type=int, default=TrainConfig.lstm_hidden)
    p.add_argument("--dense-size", type=int, default=TrainConfig.dense_size)
    p.add_argument("--threshold", type=float, default=TrainConfig.threshold)
    p.add_argument("--by-participant", action="store_true",
                   help="split by participant instead of by window")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def _add_proposed_model_args(p):
    """The flags that only the proposed model reads: its checkpoints, task weights and MC passes."""
    p.add_argument("--ckpt-every", type=int, default=TrainConfig.checkpoint_every,
                   help="checkpoint every this many epochs and at the last")
    p.add_argument("--loss-weights", default=",".join(map(str, TrainConfig.task_weights)),
                   help="task loss weights 'anxiety,protected'")
    p.add_argument("--mc-passes", type=int, default=TrainConfig.mc_passes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairhrv",
        description="Fairness-aware anxiety prediction on HRV feature windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, type=Path, help="directory for the artifacts and manifest.json")

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[out], help=summary)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("extract", cmd_extract, "ECG or NN intervals -> feature windows")
    p.add_argument("--ecg", type=Path, help="ECG CSV (t_seconds,voltage)")
    p.add_argument("--nni", type=Path, help="NN-interval CSV (interval_ms)")
    p.add_argument("--segment-seconds", type=float, default=300.0)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--participant", default="p0000")

    p = command("synth", cmd_synth, "generate a synthetic biased cohort")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bias", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attribute", default="group")

    p = command("audit", cmd_audit, "dataset- or prediction-level fairness report")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    p.add_argument("--predictions", type=Path, default=None,
                   help="predictions CSV; audits the model instead of the dataset")

    p = command("train-base", _run_single_model, "train the single-task anxiety model")
    _add_data_args(p)
    p.add_argument("--protected", default=None, help="audit attribute (optional)")
    _add_train_args(p)

    p = command("reweigh-train", _run_single_model, "train the reweighted baseline")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    _add_train_args(p)

    p = command("mitigate", cmd_mitigate, "checkpointed MTL + uncertainty selection")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    _add_train_args(p)
    _add_proposed_model_args(p)

    p = command("saliency", cmd_saliency, "average saliency map for a checkpoint")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--windows", required=True, type=Path,
                   help="windows CSV in the model's input scale "
                        "(e.g. test_windows.csv written by mitigate)")
    p.add_argument("--head", choices=("anxiety", "protected"), default="anxiety")

    p = command("compare", cmd_compare, "base vs reweighting vs proposed table")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    _add_train_args(p)
    _add_proposed_model_args(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # the subcommand's usage, not the root's, lists the flags it does take
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        existing = next(path for path in (args.out, *args.out.parents) if path.exists())  # "." or "/" at last
        if not existing.is_dir():  # --out is made after the work; a file in its way is found before it
            raise ValueError(f"--out {args.out}: {existing} exists and is not a directory")
        args.func(args)
        _write_manifest(args.out, MANIFEST_COMMANDS.get(args.command, args.command), _config_echo(args))
        return 0
    except dataset.OutOfRange as exc:  # name the flag the value came from, not the parameter
        dest = PARAMETER_DESTS.get(exc.name, exc.name)
        print(f"error: --{dest.replace('_', '-')} {exc.rule}, got {getattr(args, dest)}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, MemoryError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
