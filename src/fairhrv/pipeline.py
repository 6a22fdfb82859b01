"""End-to-end runs: split, standardize, train, predict, evaluate.

Wires the dataset, training, and fairness modules into the three model
variants the comparison table reports: the single-task base model, the
reweighted baseline, and the uncertainty-selected multi-task model.

The benchmark (``perfbench/tracer.py``) traces ``prepare_split``,
``evaluate_predictions``, ``run_base_model``, ``run_reweighted_model`` and
``run_mitigation`` by name, and ``perfbench/score.py`` builds
``Cohort(windows, catalog)`` and calls ``dataclasses.replace(w,
features=...)`` on its ``.windows``; folding those wrappers or deleting
``dataset.LabeledWindow`` waits for a benchmark change.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import fairness
from .dataset import Cohort, SplitCohort, split_cohort, standardize
from .fairness import evaluate_predictions
from .mitigation import (
    TrainConfig,
    UncertaintyRecord,
    evaluate_uncertainties,
    final_predict,
    select_checkpoint,
    train_baseline,
    train_mtl_with_checkpoints,
    train_reweighted,
)
from .nnet import ModelParams


@dataclass(frozen=True)
class ModelRun:
    """One model's test-split run; the proposed model adds its checkpoints, their records and the selected one."""

    params: ModelParams
    predictions: np.ndarray
    probabilities: np.ndarray
    metrics: dict
    train_losses: tuple
    records: tuple = ()
    selection: UncertaintyRecord | None = None
    checkpoints: tuple = ()


def prepare_split(cohort: Cohort, seed: int, by_participant: bool = False,
                  protected: str | None = None) -> SplitCohort:
    """75/25 split followed by train-statistics standardization.

    Raises:
        ValueError: the train or the test part lacks one of the two labels
            or, with ``protected``, one of the two groups; raised before
            any training can start.
    """
    split = split_cohort(cohort, seed, by_participant=by_participant)
    for part_name, part in (("train", split.train), ("test", split.test)):
        columns = {"anxiety 1/0": part.labels()}
        if protected is not None:
            columns[f"{protected} privileged/unprivileged"] = part.protected_values(protected)
        counts = {name: (int(np.sum(v == 1)), int(np.sum(v == 0))) for name, v in columns.items()}
        if any(0 in pair for pair in counts.values()):
            kind = "by-participant" if by_participant else "window"
            detail = ", ".join(f"{name} = {ones}/{zeros}" for name, (ones, zeros) in counts.items())
            raise ValueError(f"{kind} split, seed {seed}: {part_name} windows have {detail}; "
                             "train and test each need both values of each")
    return standardize(split)


def _test_run(params: ModelParams, losses, split: SplitCohort, protected: str | None, config: TrainConfig) -> ModelRun:
    """Predict ``split.test`` with ``params`` and report the predictions' fairness."""
    preds, probs = final_predict(params, split.test, threshold=config.threshold)
    groups = None if protected is None else split.test.protected_values(protected)
    metrics = evaluate_predictions(preds, split.test.labels(), groups, protected)
    return ModelRun(params, preds, probs, metrics, tuple(losses))


def run_base_model(split: SplitCohort, protected: str | None, config: TrainConfig) -> ModelRun:
    """Train the single-task anxiety model; ``protected`` may be None."""
    params, losses = train_baseline(split.train, config)
    return _test_run(params, losses, split, protected, config)


def run_reweighted_model(split: SplitCohort, protected: str, config: TrainConfig) -> ModelRun:
    """Reweighting baseline: per-(group, label) weights on the training set."""
    weights = fairness.sample_weights(
        split.train.labels(), split.train.protected_values(protected)
    )
    params, losses = train_reweighted(split.train, config, weights)
    return _test_run(params, losses, split, protected, config)


def run_mitigation(split: SplitCohort, protected: str, config: TrainConfig) -> ModelRun:
    """The full mitigation pipeline on a prepared split; the run holds every checkpoint.

    The MC draws' one (heads, passes, train windows) buffer is allocated
    before training, so an ``mc_passes`` the host cannot hold fails before
    any epoch runs. Uncertainties are evaluated on the training split, so
    the test split the run reports on has no say in the checkpoint; the
    selected checkpoint's weights are used verbatim for the final
    prediction.
    """
    samples = np.empty((len(config.task_weights), config.mc_passes, len(split.train)))
    checkpoints, losses = train_mtl_with_checkpoints(split.train, protected, config)
    records = evaluate_uncertainties(checkpoints, split.train, config, samples)
    selection = select_checkpoint(records)
    run = _test_run(next(c for c in checkpoints if c.epoch == selection.epoch), losses, split, protected, config)
    return replace(run, metrics={**run.metrics, "chosen_epoch": selection.epoch}, records=tuple(records),
                   selection=selection, checkpoints=tuple(checkpoints))


COMPARISON_ROWS = (
    ("Accuracy", "accuracy"),
    ("F1", "f1"),
    ("DI Ratio", "dir"),
    ("Diff in FN", "diff_fn"),
    ("Diff in FP", "diff_fp"),
)

COMPARISON_COLUMNS = (
    ("base", "Base Model"),
    ("reweighting", "Reweighting"),
    ("proposed", "Proposed Method"),
)


def run_comparison(split: SplitCohort, protected: str, config: TrainConfig) -> dict:
    """Train all three models on one prepared split and collect the comparison table.

    The proposed model trains first, so its MC buffer is allocated before
    any model trains; each model's trajectory depends only on the split
    and ``config``, so the order leaves every number as it is.
    """
    proposed = run_mitigation(split, protected, config)
    runs = {
        "base": run_base_model(split, protected, config),
        "reweighting": run_reweighted_model(split, protected, config),
        "proposed": proposed,
    }
    return {
        "attribute": protected,
        "seed": config.seed,
        "models": {name: run.metrics for name, run in runs.items()},
    }


def render_comparison_text(comparison: dict) -> str:
    """Plain-text table: one metric per row, one model per column."""
    models = comparison["models"]
    headers = ["Metric"] + [label for _, label in COMPARISON_COLUMNS]
    rows = [headers]
    for label, key in COMPARISON_ROWS:
        row = [label]
        for model_key, _ in COMPARISON_COLUMNS:
            value = models[model_key].get(key)
            row.append("undefined" if value is None else f"{value:.3f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(headers))))
    return "\n".join(lines) + "\n"
