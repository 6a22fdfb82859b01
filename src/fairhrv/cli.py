"""Command-line interface.

Subcommands: extract, synth, audit, train-base, reweigh-train, mitigate,
saliency, compare. Every command writes its artifacts plus a manifest
(configuration echo and artifact checksums, no volatile fields) into the
--out directory, so identical configurations and seeds reproduce
byte-identical outputs. All fairness reports come from
fairness.evaluate_predictions; all windows CSVs are read by
dataset.read_windows_csv. Exit codes: 0 success, 1 data or I/O errors,
2 usage errors.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataset, fairness, hrv_features, pipeline, saliency
from .checkpoint_io import load_checkpoint, save_checkpoint
from .fileio import atomic_write_text, sha256_file, write_csv, write_json
from .mitigation import TrainConfig, TrainingDiverged


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    artifacts = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            artifacts[str(path.relative_to(out_dir))] = sha256_file(path)
    write_json(out_dir / "manifest.json", {"command": command, "config": config, "artifacts": artifacts})


def _config_echo(args, exclude=("out", "func", "command")) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in exclude or callable(value):
            continue
        config[key] = str(value) if isinstance(value, Path) else value
    return config


PREDICTIONS_HEADER = ["sample_id", "prediction", "probability"]


def _write_predictions_csv(path, sample_ids, preds, probs) -> None:
    write_csv(path, PREDICTIONS_HEADER, (
        f"{sid},{int(pred)},{repr(float(prob))}" for sid, pred, prob in zip(sample_ids, preds, probs)
    ))


def _write_cohort_windows(path, cohort: dataset.Cohort) -> None:
    windows = cohort.windows
    dataset.write_windows_csv(path, [w.sample_id for w in windows], [w.participant_id for w in windows],
                              cohort.feature_tensor())


def _check_csv_name(flag, name) -> None:
    """Reject a name that the CSV files it is written into could not read back."""
    if any(c in name for c in ',"\r\n'):
        raise ValueError(f"{flag} {name!r} holds a comma, quote, CR or LF, which the CSV files cannot hold")


def _train_config(args) -> TrainConfig:
    weights = tuple(float(w) for w in args.loss_weights.split(","))
    if len(weights) != 2:
        raise ValueError("--loss-weights must be 'anxiety,protected', e.g. '4.5,0.5'")
    return TrainConfig(
        epochs=args.epochs,
        checkpoint_every=args.ckpt_every,
        task_weights=weights,
        mc_passes=args.mc_passes,
        keep_rate=args.keep_rate,
        lr=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        lstm_hidden=args.lstm_hidden,
        dense_size=args.dense_size,
        eval_samples=args.eval_samples,
        threshold=args.threshold,
    )


def _load_cohort_from_args(args, need_demo=False) -> dataset.Cohort:
    demo = getattr(args, "demo", None)
    if need_demo and demo is None:
        raise ValueError("this command requires --demo with the protected attribute column")
    return dataset.load_cohort(args.windows, args.labels, demo)


# ---------------------------------------------------------------------------
# commands


def cmd_extract(args) -> int:
    if (args.ecg is None) == (args.nni is None):
        raise ValueError("provide exactly one of --ecg or --nni")
    if args.steps != dataset.WINDOW_STEPS:
        raise ValueError(f"--steps must be {dataset.WINDOW_STEPS}, the window length models take")
    _check_csv_name("--participant", args.participant)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.ecg is not None:
        signal = hrv_features.read_ecg_csv(args.ecg)
        nni = hrv_features.detect_r_peaks(signal)
    else:
        nni = hrv_features.read_nni_csv(args.nni)

    # assign each interval to the fixed-length segment containing its end
    intervals = nni.intervals_ms
    end_times = np.cumsum(intervals) / 1000.0
    segment_ids = (end_times // args.segment_seconds).astype(int)
    vectors = []
    for seg in range(int(segment_ids[-1]) + 1):
        chunk = intervals[segment_ids == seg]
        if len(chunk) < 2:
            print(f"note: segment {seg} has {len(chunk)} interval(s); skipped", file=sys.stderr)
            continue
        vectors.append(hrv_features.extract_features(hrv_features.NNIntervalSeries(chunk)))
    if not vectors:
        raise ValueError("no segment had enough intervals for feature extraction")
    hrv_features.write_features_csv(out / "features.csv", vectors)

    rows = np.stack([v.as_array() for v in vectors])
    n_windows = len(vectors) // args.steps
    dataset.write_windows_csv(
        out / "windows.csv",
        [f"{args.participant}_w{k:04d}" for k in range(n_windows)],
        [args.participant] * n_windows,
        rows[: n_windows * args.steps].reshape(n_windows, args.steps, dataset.N_FEATURES),
    )
    if n_windows == 0:
        print(
            f"note: {len(vectors)} segment(s) < {args.steps}; windows.csv has no rows",
            file=sys.stderr,
        )
    _write_manifest(out, "extract", _config_echo(args))
    return 0


def cmd_synth(args) -> int:
    _check_csv_name("--attribute", args.attribute)
    if args.attribute == "participant_id":
        raise ValueError("--attribute cannot be participant_id, the demographics id column")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cohort = dataset.generate_synthetic(args.n, args.bias, args.seed, attribute=args.attribute)
    _write_cohort_windows(out / "windows.csv", cohort)
    dataset.write_labels_csv(out / "labels.csv", cohort)
    dataset.write_demographics_csv(out / "demographics.csv", cohort)
    dataset.write_catalog_json(out / "catalog.json", cohort)
    _write_manifest(out, "synth", _config_echo(args))
    return 0


def cmd_audit(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort_from_args(args, need_demo=True)
    groups = cohort.protected_values(args.protected)
    labels = cohort.labels()
    if args.predictions is None:
        report = fairness.evaluate_predictions(labels, groups=groups, attribute=args.protected)
    else:
        # audit exactly the listed samples: model commands write test-split predictions only
        by_id = dataset.read_outcomes_csv(args.predictions, PREDICTIONS_HEADER, "prediction")
        index = {w.sample_id: i for i, w in enumerate(cohort.windows)}
        unknown = [sid for sid in by_id if sid not in index]
        if unknown:
            raise ValueError(f"{args.predictions}: sample {unknown[0]!r} is not in the cohort")
        rows = [index[sid] for sid in by_id]
        report = fairness.evaluate_predictions(list(by_id.values()), labels[rows], groups[rows], args.protected)
    write_json(out / "report.json", report)
    _write_manifest(out, "audit", _config_echo(args))
    return 0


def _run_single_model(args, variant: str) -> int:
    config = _train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    need_demo = variant == "reweighting" or args.protected is not None
    cohort = _load_cohort_from_args(args, need_demo=need_demo)
    split = pipeline.prepare_split(cohort, config.seed, by_participant=args.by_participant,
                                   protected=args.protected)
    run_model = pipeline.run_reweighted_model if variant == "reweighting" else pipeline.run_base_model
    run = run_model(split, args.protected, config)
    save_checkpoint(run.params, out / "model.bin")
    _write_predictions_csv(
        out / "predictions.csv",
        [w.sample_id for w in split.test.windows],
        run.predictions,
        run.probabilities,
    )
    write_json(out / "metrics.json", {"metrics": run.metrics, "train_losses": list(run.train_losses)})
    _write_manifest(out, variant, _config_echo(args))
    return 0


def cmd_train_base(args) -> int:
    return _run_single_model(args, "base")


def cmd_reweigh_train(args) -> int:
    return _run_single_model(args, "reweighting")


def cmd_mitigate(args) -> int:
    config = _train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort_from_args(args, need_demo=True)
    split = pipeline.prepare_split(cohort, config.seed, by_participant=args.by_participant,
                                   protected=args.protected)
    run = pipeline.run_mitigation(
        split, args.protected, config, out_dir=out / "checkpoints", eval_on=args.eval_on
    )
    write_json(
        out / "uncertainties.json",
        [
            {"epoch": r.epoch, "c_anxiety": r.c_anxiety, "c_protected": r.c_protected, "gap": r.gap}
            for r in run.records
        ],
    )
    write_json(out / "selection.json", run.selection.as_dict())
    write_json(out / "report.json", run.metrics)
    _write_predictions_csv(
        out / "predictions.csv",
        [w.sample_id for w in split.test.windows],
        run.predictions,
        run.probabilities,
    )
    _write_cohort_windows(out / "test_windows.csv", split.test)
    _write_manifest(out, "mitigate", _config_echo(args))
    return 0


def cmd_saliency(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = load_checkpoint(args.checkpoint)
    _, _, windows = dataset.read_windows_csv(args.windows)
    smap = saliency.average_saliency_over_windows(params, windows, args.head)
    saliency.write_saliency_csv(smap, out / "saliency.csv")
    abs_map = saliency.SaliencyMap(np.abs(smap.values), smap.feature_names, smap.head)
    saliency.write_saliency_csv(abs_map, out / "saliency_abs.csv")
    saliency.write_saliency_svg(smap, out / "saliency.svg")
    _write_manifest(out, "saliency", _config_echo(args))
    return 0


def cmd_compare(args) -> int:
    config = _train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cohort = _load_cohort_from_args(args, need_demo=True)
    comparison = pipeline.run_comparison(cohort, args.protected, config, by_participant=args.by_participant)
    write_json(out / "comparison.json", comparison)
    atomic_write_text(out / "comparison.txt", pipeline.render_comparison_text(comparison))
    _write_manifest(out, "compare", _config_echo(args))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_data_args(p, need_demo=False):
    p.add_argument("--windows", required=True, type=Path, help="windows CSV")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV (sample_id,anxiety)")
    p.add_argument("--demo", required=need_demo, type=Path, default=None,
                   help="demographics CSV (participant_id + raw attribute columns)")


def _add_train_args(p):
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--ckpt-every", type=int, default=5)
    p.add_argument("--loss-weights", default="4.5,0.5",
                   help="task loss weights 'anxiety,protected'")
    p.add_argument("--mc-passes", type=int, default=50)
    p.add_argument("--keep-rate", type=float, default=0.8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lstm-hidden", type=int, default=64)
    p.add_argument("--dense-size", type=int, default=32)
    p.add_argument("--eval-samples", type=int, default=None,
                   help="cap on windows used for uncertainty evaluation")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--by-participant", action="store_true",
                   help="split by participant instead of by window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairhrv",
        description="Fairness-aware anxiety prediction on HRV feature windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="ECG or NN intervals -> feature windows")
    p.add_argument("--ecg", type=Path, help="ECG CSV (t_seconds,voltage)")
    p.add_argument("--nni", type=Path, help="NN-interval CSV (interval_ms)")
    p.add_argument("--segment-seconds", type=float, default=300.0)
    p.add_argument("--steps", type=int, default=24)
    p.add_argument("--participant", default="p0000")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic biased cohort")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bias", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attribute", default="group")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("audit", help="dataset- or prediction-level fairness report")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    p.add_argument("--predictions", type=Path, default=None,
                   help="predictions CSV; audits the model instead of the dataset")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("train-base", help="train the single-task anxiety model")
    _add_data_args(p)
    p.add_argument("--protected", default=None, help="audit attribute (optional)")
    _add_train_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("reweigh-train", help="train the reweighted baseline")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    _add_train_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_reweigh_train)

    p = sub.add_parser("mitigate", help="checkpointed MTL + uncertainty selection")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    _add_train_args(p)
    p.add_argument("--eval-on", choices=("train", "test"), default="train")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("saliency", help="average saliency map for a checkpoint")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--windows", required=True, type=Path,
                   help="windows CSV in the model's input scale "
                        "(e.g. test_windows.csv written by mitigate)")
    p.add_argument("--head", choices=("anxiety", "protected"), default="anxiety")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("compare", help="base vs reweighting vs proposed table")
    _add_data_args(p, need_demo=True)
    p.add_argument("--protected", required=True)
    _add_train_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
