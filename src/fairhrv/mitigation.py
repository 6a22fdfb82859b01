"""Checkpointed multi-task training and uncertainty-based weight selection.

The bias-mitigation procedure: train a two-head model (anxiety + one
protected attribute) under a 4.5:0.5 weighted loss, checkpoint every few
epochs, score each checkpoint's per-head epistemic uncertainty with
Monte-Carlo dropout, pick the checkpoint with the largest
protected-minus-anxiety uncertainty gap, and predict anxiety with those
weights verbatim. Single-task and reweighted baselines share the same
training loop, and every loop minimizes the sample-weighted loss (unit
weights for the plain mean). Training writes no files: checkpoints are
returned, and the command that asked for them writes them.

The benchmark traces this module's public functions by name
(``LAYER_FUNCTIONS`` in ``perfbench/tracer.py``) and its tests count 50
``nnet.forward`` calls per ``mc_forward``, so folding the ``train_*``
wrappers waits for a benchmark change that renames them too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import N_FEATURES, Cohort, OutOfRange
from .nnet import (
    AdamState,
    ModelArch,
    ModelParams,
    adam_step,
    backward,
    forward,
    init_params,
    mc_forward,
    mtl_loss,
    predict,
    sample_dropout_mask,
)
from .rng import substream


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient appeared during training, or a trained model predicts a non-finite probability."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for all training entry points.

    ``task_weights`` orders (anxiety, protected); ``mc_passes`` is the
    number of dropout forward passes per checkpoint. Checkpoints are taken
    every ``checkpoint_every`` epochs and at the last epoch.
    """

    epochs: int = 100
    checkpoint_every: int = 5
    task_weights: tuple = (4.5, 0.5)
    mc_passes: int = 50
    keep_rate: float = 0.8
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    lstm_hidden: int = 64
    dense_size: int = 32
    threshold: float = 0.5

    def __post_init__(self):
        """Raises OutOfRange, naming the first field outside its range.

        The epochs and seed bounds are those of a checkpoint header's u32 epoch and u64 seed.
        """
        for field, ok, rule in (
            ("epochs", self.epochs >= 0, "must be non-negative"),
            ("epochs", self.epochs < 2**32, "must be below 2**32"),
            ("seed", 0 <= self.seed < 2**64, "must be in [0, 2**64)"),
            ("checkpoint_every", self.checkpoint_every >= 1, "must be at least 1"),
            ("task_weights", all(math.isfinite(w) and w >= 0 for w in self.task_weights),
             "must be finite and non-negative"),
            ("lstm_hidden", self.lstm_hidden >= 1, "must be at least 1"),
            ("dense_size", self.dense_size >= 1, "must be at least 1"),
            ("mc_passes", self.mc_passes >= 2, "must be at least 2"),
            ("keep_rate", 0.0 < self.keep_rate <= 1.0, "must be in (0, 1]"),
            ("batch_size", self.batch_size >= 1, "must be at least 1"),
            ("lr", math.isfinite(self.lr) and self.lr > 0, "must be finite and positive"),
            ("threshold", 0.0 <= self.threshold <= 1.0, "must be in [0, 1]"),
        ):
            if not ok:
                raise OutOfRange(field, rule, getattr(self, field))

    def arch(self, heads) -> ModelArch:
        return ModelArch(
            input_size=N_FEATURES,
            lstm_hidden=self.lstm_hidden,
            dense_size=self.dense_size,
            heads=tuple(heads),
        )


@dataclass(frozen=True)
class UncertaintyRecord:
    """Per-checkpoint window means of each head's predictive variance."""

    epoch: int
    c_anxiety: float
    c_protected: float

    @property
    def gap(self) -> float:
        return self.c_protected - self.c_anxiety


# a diverging run ends with one TrainingDiverged, not with numpy overflow warnings first
@np.errstate(over="ignore", invalid="ignore")
def _train_loop(x, targets, task_weights, config: TrainConfig, sample_weights, checkpoint_epochs=()):
    """Shared minibatch Adam loop; returns (final params, checkpoints, losses).

    The model has one head per ``task_weights`` key, in key order, and
    ``sample_weights`` holds one loss weight per row of ``x``.

    All shuffling and dropout randomness derives from named substreams of
    config.seed, so a trajectory depends only on (data, config).

    Raises:
        TrainingDiverged: a batch loss or gradient is not finite; the
            parameters never take a non-finite update.
    """
    arch = config.arch(task_weights)
    params = init_params(arch, config.seed)
    state = AdamState.for_params(params)
    n = x.shape[0]

    checkpoints = []
    epoch_losses = []
    for epoch in range(1, config.epochs + 1):
        order = substream(config.seed, "shuffle", epoch).permutation(n)
        mask_rng = substream(config.seed, "dropout", epoch)
        total = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = x[idx]
            tb = {head: targets[head][idx] for head in task_weights}
            sw = sample_weights[idx]
            mask = sample_dropout_mask(arch, config.keep_rate, mask_rng, batch=len(idx))
            outputs, trace = forward(params, xb, mask=mask)
            loss = mtl_loss(outputs, tb, task_weights, sample_weights=sw)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batches} (lr={config.lr})"
                )
            grads = backward(params, trace, tb, task_weights, sample_weights=sw)
            if not all(np.isfinite(g).all() for g in grads.values()):
                raise TrainingDiverged(
                    f"non-finite gradient at epoch {epoch}, batch {batches} (lr={config.lr})"
                )
            total += loss
            batches += 1
            adam_step(params, grads, state, config.lr)
        epoch_losses.append(total / max(1, batches))
        if epoch in checkpoint_epochs:
            snapshot = params.copy()
            snapshot.epoch = epoch
            checkpoints.append(snapshot)
    params.epoch = config.epochs
    return params, checkpoints, epoch_losses


def _cohort_inputs(cohort: Cohort, protected: str = None):
    x = cohort.feature_tensor()
    targets = {"anxiety": cohort.labels().astype(np.float64)}
    if protected is not None:
        targets["protected"] = cohort.protected_values(protected).astype(np.float64)
    return x, targets


def train_baseline(train: Cohort, config: TrainConfig):
    """Single-head anxiety model; returns (params, per-epoch mean losses)."""
    x, targets = _cohort_inputs(train)
    params, _, losses = _train_loop(x, targets, {"anxiety": 1.0}, config, np.ones(len(x)))
    return params, losses


def train_reweighted(train: Cohort, config: TrainConfig, weights):
    """Baseline with per-sample loss weights (weighted-mean normalized).

    ``weights`` are ``fairness.sample_weights``: one positive float64
    weight per window of ``train``. Within each batch the loss is sum(w_i
    * bce_i) / sum(w_i), so scaling every weight by a constant leaves the
    trajectory unchanged and a zero-weight sample contributes nothing.
    """
    x, targets = _cohort_inputs(train)
    params, _, losses = _train_loop(x, targets, {"anxiety": 1.0}, config, weights)
    return params, losses


def train_mtl_with_checkpoints(train: Cohort, protected: str, config: TrainConfig):
    """Two-head training with a checkpoint every ``checkpoint_every`` epochs and at the last.

    Returns (checkpoints, losses); checkpoints carry their epoch tag, and
    the last is the final params.

    Raises:
        TrainingDiverged: non-finite loss or gradient.
    """
    x, targets = _cohort_inputs(train, protected)
    task_w = {"anxiety": config.task_weights[0], "protected": config.task_weights[1]}
    checkpoint_epochs = {*range(config.checkpoint_every, config.epochs, config.checkpoint_every), config.epochs}
    _, checkpoints, losses = _train_loop(x, targets, task_w, config, np.ones(len(x)), checkpoint_epochs)
    return checkpoints, losses


# as in _train_loop and final_predict, an overflow ends in one error (here select_checkpoint's), not warnings
@np.errstate(over="ignore", invalid="ignore")
def evaluate_uncertainties(checkpoints, cohort: Cohort, config: TrainConfig, samples: np.ndarray):
    """Score every checkpoint's per-head epistemic uncertainty.

    ``samples`` is the (heads, passes, windows) buffer that ``mc_forward``
    fills with one checkpoint's draws at a time, heads in (anxiety,
    protected) order. Each head's draws reduce to the window mean of its
    predictive variance: divisor T, the passes (at least 2, as
    ``TrainConfig`` refuses fewer), about a mean accumulated relative to
    the first pass, so a deterministic model (keep_rate 1) gives exactly
    0. The mask stream is seeded per checkpoint epoch, so results do not
    depend on evaluation order.
    """
    x, passes = cohort.feature_tensor(), samples.shape[1]
    records = []
    for ckpt in checkpoints:
        rng = substream(config.seed, "mc-eval", ckpt.epoch)
        variances = []
        for draws in mc_forward(ckpt, x, config.keep_rate, rng, samples):  # one head's (passes, windows) at a time
            mean = draws[0] + np.sum(draws - draws[0], axis=0) / passes
            variances.append(float(np.mean(np.sum((draws - mean) ** 2, axis=0) / passes)))
        records.append(UncertaintyRecord(ckpt.epoch, *variances))
    return records


def select_checkpoint(records) -> UncertaintyRecord:
    """The record of largest (c_protected - c_anxiety); ties go to the earliest epoch.

    Raises:
        ValueError: a gap is NaN or infinite.
    """
    for record in records:
        if not math.isfinite(record.gap):
            raise ValueError(f"checkpoint of epoch {record.epoch} has a non-finite uncertainty gap")
    return max(records, key=lambda record: record.gap)  # the first of equal maxima


@np.errstate(over="ignore", invalid="ignore")
def final_predict(params: ModelParams, cohort: Cohort, threshold: float = 0.5):
    """Deterministic anxiety predictions of a model; returns (predictions, probabilities).

    The protected head's output is discarded. The pass keeps no backprop
    trace (``nnet.predict``), so its memory does not grow with the steps.
    Finite weights can still overflow in it: a non-finite probability raises TrainingDiverged.
    """
    probs = predict(params, cohort.feature_tensor())["anxiety"]
    if not np.isfinite(probs).all():
        raise TrainingDiverged(f"the model of epoch {params.epoch} predicts a non-finite anxiety probability")
    preds = (probs >= threshold).astype(np.int64)
    return preds, probs
